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

_MONTE_CARLO = ("OutageEstimate", "estimate_outage")  # numpy: resolved on first use (PEP 562)


def __getattr__(name):
    if name in _MONTE_CARLO:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MONTE_CARLO})
