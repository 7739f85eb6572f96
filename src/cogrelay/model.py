"""System parameters, the sensing posterior and the SNR thresholds.

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
    "Scheme",
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

    Derived at construction and by ``dataclasses.replace``, outside ==,
    hash and repr: the posterior ``pi0`` = Pr(band free | hole declared),
    from ``posterior``, and the decode thresholds ``delta`` (two slots) and
    ``delta_direct`` (one slot), from ``snr_threshold``.  The properties
    ``pi1`` = 1 - pi0 and ``n_relays``, the length of the per-relay
    variance tuples, complete them.
    """

    p0: float
    pd: float
    pf: float
    gamma_s: float
    gamma_p: float
    rate: float
    variances: ChannelVariances
    pi0: float = field(init=False, repr=False, compare=False)
    delta: float = field(init=False, repr=False, compare=False)
    delta_direct: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pi0", posterior(self.p0, self.pd, self.pf))
        delta, delta_direct = snr_threshold(self.rate, self.gamma_s)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "delta_direct", delta_direct)
        if not (self.gamma_p > 0.0) or math.isinf(self.gamma_p):
            raise ValueError(f"gamma_p must be finite and > 0, got {self.gamma_p}")
        if self.n_relays > MAX_RELAYS:
            raise ValueError(
                f"n_relays must be in [1, {MAX_RELAYS}] (the cap bounds Monte "
                f"Carlo batch memory), got {self.n_relays}"
            )

    @property
    def pi1(self) -> float:
        return 1.0 - self.pi0

    @property
    def n_relays(self) -> int:
        return len(self.variances.sigma2_si)


def posterior(p0: float, pd: float, pf: float) -> float:
    """Bayes-invert the sensing outcome: pi0 = Pr(H0 | declared free).

    pi0 = p0*pd / (p0*pd + (1-p0)*pf), in [0, 1] since the numerator is a
    term of the denominator.  Raises if a probability leaves [0, 1] or the
    sensor can never declare a hole (zero denominator).
    """
    for name, v in (("p0", p0), ("pd", pd), ("pf", pf)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be in [0,1], got {v}")
    denom = p0 * pd + (1.0 - p0) * pf
    if denom <= 0.0:
        raise ValueError("sensing never declares a hole: p0*pd + (1-p0)*pf must be > 0")
    return p0 * pd / denom


def snr_threshold(rate: float, gamma_s: float) -> tuple[float, float]:
    """Decode thresholds (delta, delta_direct) on the fading gain scale.

    Relayed schemes spend two time slots on every message, so their capacity
    carries a 1/2 pre-log and delta = (2^{2R}-1)/gamma_s.  The single-hop
    direct benchmark uses one slot: delta_direct = (2^R-1)/gamma_s.

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
    return delta, (2.0 ** rate - 1.0) / gamma_s


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)

