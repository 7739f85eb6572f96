"""System parameters, sensing posteriors and SNR thresholds.

Everything here is deterministic configuration shared by the closed-form and
Monte Carlo paths: prior spectrum occupancy, sensing quality (detection /
false-alarm probabilities of a spectrum hole), transmit SNRs, target rate and
the per-link Rayleigh fading variances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

__all__ = [
    "MAX_RELAYS",
    "MAX_WORKERS",
    "ChannelVariances",
    "Posterior",
    "Scheme",
    "SnrThreshold",
    "SystemParams",
    "db_to_linear",
    "posterior",
    "snr_threshold",
]

# Bounds Monte Carlo batch memory: the kernel holds one block of 2048 x (3N+3)
# float64 uniforms at a time, 1.2 MB at N=24.  The closed forms cost O(N^2)
# and need no cap.
MAX_RELAYS = 24

# Upper bound on Monte Carlo pool processes, checked before any starts.
MAX_WORKERS = 64


class Scheme(str, enum.Enum):
    """Transmission scheme under evaluation."""

    MULTI_RELAY = "multi"
    BEST_RELAY = "best"
    DIRECT = "direct"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Posterior:
    """Probabilities of H0 (band free) and H1 (primary active) conditioned on
    the sensor declaring a hole."""

    pi0: float

    def __post_init__(self):
        if not (0.0 <= self.pi0 <= 1.0):
            raise ValueError(f"posterior probability out of [0,1]: {self}")

    @property
    def pi1(self) -> float:
        return 1.0 - self.pi0


@dataclass(frozen=True)
class SnrThreshold:
    """Linear SNR levels below which decoding fails at rate R.

    Relayed schemes spend two time slots on every message, so their capacity
    carries a 1/2 pre-log and the threshold is (2^{2R}-1)/gamma_s.  The
    single-hop direct benchmark uses one slot: (2^R-1)/gamma_s.
    """

    delta: float
    delta_direct: float


class _ThresholdNotFinite(ValueError):
    """``snr_threshold``'s error for a threshold beyond the float range."""


@dataclass(frozen=True)
class ChannelVariances:
    """Mean squared fading magnitudes for every link class.

    sigma2_si / sigma2_pi are per-relay (source->relay i, primary->relay i).
    The relay->destination links are i.i.d. with the single common variance
    sigma2_d; the closed forms require that homogeneity, so it is a scalar by
    construction.  sigma2_sd feeds only the direct-transmission benchmark.
    """

    sigma2_si: tuple[float, ...]
    sigma2_pi: tuple[float, ...]
    sigma2_d: float
    sigma2_pd: float
    sigma2_sd: float

    def __post_init__(self):
        object.__setattr__(self, "sigma2_si", tuple(float(v) for v in self.sigma2_si))
        object.__setattr__(self, "sigma2_pi", tuple(float(v) for v in self.sigma2_pi))
        for name in ("sigma2_d", "sigma2_pd", "sigma2_sd"):
            v = getattr(self, name)
            if not (v > 0.0) or math.isinf(v):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name in ("sigma2_si", "sigma2_pi"):
            vec = getattr(self, name)
            if not vec:
                raise ValueError(f"{name} must have one entry per relay")
            if any(not (v > 0.0) or math.isinf(v) for v in vec):
                raise ValueError(f"all {name} entries must be finite and > 0, got {vec}")
        if len(self.sigma2_si) != len(self.sigma2_pi):
            raise ValueError(
                f"sigma2_si and sigma2_pi lengths differ: "
                f"{len(self.sigma2_si)} vs {len(self.sigma2_pi)}"
            )

    @classmethod
    def homogeneous(
        cls,
        n_relays: int,
        sigma2_si: float = 1.0,
        sigma2_pi: float = 0.2,
        sigma2_d: float = 1.0,
        sigma2_pd: float = 0.2,
        sigma2_sd: float = 1.0,
    ) -> "ChannelVariances":
        return cls(
            sigma2_si=(float(sigma2_si),) * n_relays,
            sigma2_pi=(float(sigma2_pi),) * n_relays,
            sigma2_d=sigma2_d,
            sigma2_pd=sigma2_pd,
            sigma2_sd=sigma2_sd,
        )


@dataclass(frozen=True)
class SystemParams:
    """Complete scalar configuration of one operating point.

    p0        prior probability that the band is unoccupied
    pd        detection probability of a spectrum hole, Pr(declare free | free)
    pf        false-alarm probability, Pr(declare free | occupied)
    gamma_s   secondary transmit SNR, linear
    gamma_p   primary transmit SNR, linear
    rate      target data rate, bit/s/Hz
    n_relays  number of decode-and-forward relays

    ``posterior`` and ``snr_threshold`` are derived at construction (and by
    ``dataclasses.replace``) by the module functions of those names, which
    check their inputs; they take no part in ==, hash or repr.
    """

    p0: float
    pd: float
    pf: float
    gamma_s: float
    gamma_p: float
    rate: float
    n_relays: int
    variances: ChannelVariances
    posterior: Posterior = field(init=False, repr=False, compare=False)
    snr_threshold: SnrThreshold = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "posterior", posterior(self.p0, self.pd, self.pf))
        object.__setattr__(self, "snr_threshold", snr_threshold(self.rate, self.gamma_s))
        if not (self.gamma_p > 0.0) or math.isinf(self.gamma_p):
            raise ValueError(f"gamma_p must be finite and > 0, got {self.gamma_p}")
        if not 1 <= self.n_relays <= MAX_RELAYS:
            raise ValueError(
                f"n_relays must be in [1, {MAX_RELAYS}] (the cap bounds Monte "
                f"Carlo batch memory), got {self.n_relays}"
            )
        if len(self.variances.sigma2_si) != self.n_relays:
            raise ValueError(
                f"variances cover {len(self.variances.sigma2_si)} relays, "
                f"n_relays is {self.n_relays}"
            )


def posterior(p0: float, pd: float, pf: float) -> Posterior:
    """Bayes-invert the sensing outcome: Pr(H0 | declared free) and complement.

    pi0 = p0*pd / (p0*pd + (1-p0)*pf).  Raises if a probability leaves
    [0, 1] or the sensor can never declare a hole (zero denominator).
    """
    for name, v in (("p0", p0), ("pd", pd), ("pf", pf)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be in [0,1], got {v}")
    denom = p0 * pd + (1.0 - p0) * pf
    if denom <= 0.0:
        raise ValueError("sensing never declares a hole: p0*pd + (1-p0)*pf must be > 0")
    return Posterior(pi0=p0 * pd / denom)


def snr_threshold(rate: float, gamma_s: float) -> SnrThreshold:
    """Decode thresholds on the fading gain scale for both rate conventions.

    Raises unless rate and gamma_s are finite and > 0 and the (larger)
    two-slot threshold is finite: 2^{2R} overflows from R = 512, and a
    subnormal gamma_s overflows the quotient."""
    for name, v in (("rate", rate), ("gamma_s", gamma_s)):
        if not (v > 0.0) or math.isinf(v):
            raise ValueError(f"{name} must be finite and > 0, got {v}")
    try:
        delta = (2.0 ** (2.0 * rate) - 1.0) / gamma_s
    except OverflowError:
        delta = math.inf
    if math.isinf(delta):
        raise _ThresholdNotFinite(f"the decode threshold is not finite at rate {rate} and gamma_s {gamma_s}")
    return SnrThreshold(delta=delta, delta_direct=(2.0 ** rate - 1.0) / gamma_s)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)

