"""Outage analysis of relay-assisted secondary transmission under imperfect
spectrum sensing: closed-form expressions cross-validated by a deterministic
parallel Monte Carlo simulator, plus direct-transmission and best-relay
benchmarks.
"""

from .analytic import (
    OutageBreakdown,
    outage_best_relay,
    outage_direct,
    outage_multi_relay,
)
from .model import (
    MAX_RELAYS,
    ChannelVariances,
    Scheme,
    SystemParams,
    db_to_linear,
)
from .montecarlo import OutageEstimate, estimate_outage

__version__ = "0.1.0"

__all__ = [
    "MAX_RELAYS",
    "ChannelVariances",
    "OutageBreakdown",
    "OutageEstimate",
    "Scheme",
    "SystemParams",
    "db_to_linear",
    "estimate_outage",
    "outage_best_relay",
    "outage_direct",
    "outage_multi_relay",
]
