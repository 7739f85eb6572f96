"""Outage analysis of relay-assisted secondary transmission under imperfect
spectrum sensing: closed-form expressions cross-validated by a deterministic
parallel Monte Carlo simulator, plus direct-transmission and best-relay
benchmarks.
"""

from .analytic import (
    OutageBreakdown,
    decoding_cardinality_pmf,
    outage_best_relay,
    outage_direct,
    outage_multi_relay,
)
from .model import (
    MAX_RELAYS,
    ChannelVariances,
    Posterior,
    Scheme,
    SnrThreshold,
    SystemParams,
    db_to_linear,
    linear_to_db,
    posterior,
    snr_threshold,
)
from .montecarlo import OutageEstimate, estimate_outage, outage_flags
from .specfun import reg_lower_gamma, scaled_upper_gamma_term

__version__ = "0.1.0"

__all__ = [
    "MAX_RELAYS",
    "ChannelVariances",
    "OutageBreakdown",
    "OutageEstimate",
    "Posterior",
    "Scheme",
    "SnrThreshold",
    "SystemParams",
    "db_to_linear",
    "decoding_cardinality_pmf",
    "estimate_outage",
    "linear_to_db",
    "outage_best_relay",
    "outage_direct",
    "outage_flags",
    "outage_multi_relay",
    "posterior",
    "reg_lower_gamma",
    "scaled_upper_gamma_term",
    "snr_threshold",
]
