"""Closed-form outage probabilities for the three transmission schemes.

Conditioned on the sensor declaring a spectrum hole, an outage happens when
either no relay decodes the first hop, or the combined second hop falls short
of the target rate.  The total splits four ways: (empty / non-empty decoding
set) x (band truly free H0 / primary actually active H1), with the H0/H1
branches weighted by the sensing posterior.

All fading gains are exponential (Rayleigh magnitudes squared), which makes
every piece elementary: first-hop failures are exponential CDFs, the combined
relay->destination sum is an Erlang tail, and the interference-perturbed
versions integrate out the primary gain in closed form.  Sums over decoding
sets and alternating binomial series go through ``math.fsum`` because the
terms span many orders of magnitude at high transmit SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import SystemParams
from .specfun import _poisson_cdf_terms, reg_lower_gamma, scaled_upper_gamma_term

__all__ = [
    "OutageBreakdown",
    "outage_best_relay",
    "outage_direct",
    "outage_multi_relay",
    "p_below_h0",
    "p_below_h1",
    "p_max_below_h0",
    "p_max_below_h1",
    "p_sum_below_h0",
    "p_sum_below_h1",
]


@dataclass(frozen=True)
class OutageBreakdown:
    """Outage probability split by decoding-set emptiness and true hypothesis."""

    total: float
    empty_h0: float
    empty_h1: float
    nonempty_h0: float
    nonempty_h1: float

    _TOL = 1e-12

    def __post_init__(self):
        parts = (self.empty_h0, self.empty_h1, self.nonempty_h0, self.nonempty_h1)
        for p in parts:
            if not (-self._TOL <= p <= 1.0 + self._TOL):
                raise ValueError(f"component out of [0,1]: {self}")
        if abs(self.total - math.fsum(parts)) > self._TOL:
            raise ValueError(f"total does not match component sum: {self}")

    @classmethod
    def from_components(
        cls, empty_h0: float, empty_h1: float, nonempty_h0: float, nonempty_h1: float
    ) -> "OutageBreakdown":
        total = math.fsum((empty_h0, empty_h1, nonempty_h0, nonempty_h1))
        return cls(
            total=total,
            empty_h0=empty_h0,
            empty_h1=empty_h1,
            nonempty_h0=nonempty_h0,
            nonempty_h1=nonempty_h1,
        )


def _check_positive(**kwargs) -> None:
    for name, v in kwargs.items():
        if not (v > 0.0) or math.isinf(v):
            raise ValueError(f"{name} must be finite and > 0, got {v}")


def _check_delta(delta: float) -> None:
    if not (delta >= 0.0) or math.isinf(delta):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")


def p_below_h0(delta: float, sigma2: float) -> float:
    """Pr(gain < delta) for an exponential gain of mean sigma2: 1 - e^{-delta/sigma2}."""
    _check_delta(delta)
    _check_positive(sigma2=sigma2)
    return -math.expm1(-delta / sigma2)


def p_below_h1(delta: float, sigma2_s: float, sigma2_p: float, gamma_p: float) -> float:
    """Pr(signal gain < delta * (gamma_p * interference gain + 1)).

    Integrating the exponential interference gain out of the conditional CDF
    gives 1 - e^{-delta/sigma2_s} / (1 + r) with r = sigma2_p*gamma_p*delta /
    sigma2_s.  Evaluated as (r - expm1(-delta/sigma2_s)) / (1 + r), a sum of
    nonnegative terms, so small-delta precision survives.  Recovers the
    interference-free case as gamma_p -> 0.
    """
    _check_delta(delta)
    _check_positive(sigma2_s=sigma2_s, sigma2_p=sigma2_p, gamma_p=gamma_p)
    r = sigma2_p * gamma_p * delta / sigma2_s
    return (r - math.expm1(-delta / sigma2_s)) / (1.0 + r)


def p_sum_below_h0(delta: float, sigma2_d: float, k: int) -> float:
    """Pr(sum of k relay->destination gains < delta): Erlang CDF at delta/sigma2_d."""
    _check_delta(delta)
    _check_positive(sigma2_d=sigma2_d)
    return reg_lower_gamma(k, delta / sigma2_d)


def p_sum_below_h1(
    delta: float, sigma2_d: float, sigma2_pd: float, gamma_p: float, k: int
) -> float:
    """Pr(sum of k relay gains < gamma_p*delta*interference gain + delta).

    Averaging the Erlang CDF over the exponential interference gain yields

        P(k, a) + scaled_upper_gamma_term(k, a, c) / (1 + sigma2_d*c/delta)^k

    with a = delta/sigma2_d and c = 1/(sigma2_pd*gamma_p).  The pre-cancelled
    tail term is mandatory here: its raw e^{c} factor overflows on its own for
    weak interference while the combined term stays finite.  delta = 0 is the
    vanishing-threshold limit and returns 0 directly (the 1/delta factor in
    the denominator is otherwise singular).

    Where the k-th power in the denominator passes the float range (small
    delta against c, so high SNR), the tail term is summed in the form
    e^{-a} sum_{m<k} a^m/m! * (a/(a+c))^(k-m), equal because
    1 + sigma2_d*c/delta = (a+c)/a, whose factors never exceed 1.
    """
    _check_delta(delta)
    _check_positive(sigma2_d=sigma2_d, sigma2_pd=sigma2_pd, gamma_p=gamma_p)
    if delta == 0.0:
        return 0.0
    a = delta / sigma2_d
    c = 1.0 / (sigma2_pd * gamma_p)
    lower = reg_lower_gamma(k, a)
    try:
        denom = (1.0 + sigma2_d / (sigma2_pd * gamma_p * delta)) ** k
    except OverflowError:
        r = a / (a + c)
        tail = math.fsum(t * r ** (k - m) for m, t in enumerate(_poisson_cdf_terms(k, a)))
    else:
        tail = scaled_upper_gamma_term(k, a, c) / denom
    return min(lower + tail, 1.0)


def p_max_below_h0(delta: float, sigma2_d: float, k: int) -> float:
    """Pr(max of k relay->destination gains < delta) = (1 - e^{-delta/sigma2_d})^k."""
    _check_delta(delta)
    _check_positive(sigma2_d=sigma2_d)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (-math.expm1(-delta / sigma2_d)) ** k


def p_max_below_h1(
    delta: float, sigma2_d: float, sigma2_pd: float, gamma_p: float, k: int
) -> float:
    """Pr(max of k relay gains < gamma_p*delta*interference gain + delta).

    Derivation: condition on the interference gain y, where the max-CDF is
    (1 - e^{-(delta + gamma_p*delta*y)/sigma2_d})^k; expand binomially and
    average each e^{-m*gamma_p*delta*y/sigma2_d} over the exponential y, which
    contributes 1/(1 + m*r) with r = sigma2_pd*gamma_p*delta/sigma2_d:

        sum_{m=0}^{k} C(k,m) (-1)^m e^{-m*delta/sigma2_d} / (1 + m*r)

    The alternating sum is fsum-accumulated and clamped to [0,1] against
    cancellation residue at tiny delta.
    """
    _check_delta(delta)
    _check_positive(sigma2_d=sigma2_d, sigma2_pd=sigma2_pd, gamma_p=gamma_p)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    r = sigma2_pd * gamma_p * delta / sigma2_d
    total = math.fsum(
        math.comb(k, m) * (-1.0) ** m * math.exp(-m * delta / sigma2_d) / (1.0 + m * r)
        for m in range(k + 1)
    )
    return min(max(total, 0.0), 1.0)


def _cardinality_pmf(fail: list[float]) -> list[float]:
    """Entry k: probability that exactly k relays decode, given per-relay
    first-hop failure probabilities.

    The subset sum depends only on the decoding-set size, so its weights are
    the Poisson-binomial pmf.  Relays with equal failure probability form one
    binomial group, and the groups are convolved; with every relay distinct
    this is the O(N^2) recursion of Y. Hong (CSDA 59:41-51, 2013).  All terms
    are nonnegative, so the accumulation cancels nothing.
    """
    pmf = None
    for f in dict.fromkeys(fail):
        m = fail.count(f)
        group = [math.comb(m, j) * (1.0 - f) ** j * f ** (m - j) for j in range(m + 1)]
        if pmf is None:  # one group alone is already the pmf, term for term
            pmf = group
            continue
        out = [0.0] * (len(pmf) + m)
        for i, a in enumerate(pmf):
            for j, b in enumerate(group):
                out[i + j] += a * b
        pmf = out
    return pmf


def _first_hop_failures(params: SystemParams, delta: float) -> tuple[list[float], list[float]]:
    v = params.variances
    f0 = [p_below_h0(delta, s2) for s2 in v.sigma2_si]
    f1 = [
        p_below_h1(delta, s2s, s2p, params.gamma_p)
        for s2s, s2p in zip(v.sigma2_si, v.sigma2_pi)
    ]
    return f0, f1


def _relay_scheme_outage(params: SystemParams, tail_h0, tail_h1) -> OutageBreakdown:
    post = params.posterior()
    delta = params.snr_threshold().delta
    f0, f1 = _first_hop_failures(params, delta)
    pmf0 = _cardinality_pmf(f0)
    pmf1 = _cardinality_pmf(f1)
    sizes = range(1, params.n_relays + 1)
    return OutageBreakdown.from_components(
        empty_h0=post.pi0 * pmf0[0],
        empty_h1=post.pi1 * pmf1[0],
        nonempty_h0=post.pi0 * math.fsum(pmf0[k] * tail_h0(k) for k in sizes),
        nonempty_h1=post.pi1 * math.fsum(pmf1[k] * tail_h1(k) for k in sizes),
    )


def outage_multi_relay(params: SystemParams) -> OutageBreakdown:
    """Outage of the all-decoders scheme: every relay that decoded forwards,
    and the destination combines the branches coherently, so the second hop
    fails only when the *sum* of member gains falls below the threshold.
    """
    v = params.variances
    delta = params.snr_threshold().delta
    return _relay_scheme_outage(
        params,
        tail_h0=lambda k: p_sum_below_h0(delta, v.sigma2_d, k),
        tail_h1=lambda k: p_sum_below_h1(delta, v.sigma2_d, v.sigma2_pd, params.gamma_p, k),
    )


def outage_best_relay(params: SystemParams) -> OutageBreakdown:
    """Outage of the single-best-relay benchmark.

    Same first-hop decoding-set probabilities as the multi-relay scheme, but
    only the decoding relay with the strongest relay->destination gain
    forwards, so the second hop fails when the *max* of member gains falls
    below the threshold.  Since max <= sum path by path, this scheme's outage
    dominates the multi-relay one.
    """
    v = params.variances
    delta = params.snr_threshold().delta
    return _relay_scheme_outage(
        params,
        tail_h0=lambda k: p_max_below_h0(delta, v.sigma2_d, k),
        tail_h1=lambda k: p_max_below_h1(delta, v.sigma2_d, v.sigma2_pd, params.gamma_p, k),
    )


def outage_direct(params: SystemParams) -> OutageBreakdown:
    """Outage of the relay-free benchmark: one hop, one time slot.

    The single-slot rate convention applies, so the threshold is
    (2^R - 1)/gamma_s rather than the two-slot (2^{2R} - 1)/gamma_s.  No
    decoding set exists; the empty-set components are reported as zero.
    """
    post = params.posterior()
    thr = params.snr_threshold()
    v = params.variances
    return OutageBreakdown.from_components(
        empty_h0=0.0,
        empty_h1=0.0,
        nonempty_h0=post.pi0 * p_below_h0(thr.delta_direct, v.sigma2_sd),
        nonempty_h1=post.pi1 * p_below_h1(thr.delta_direct, v.sigma2_sd, v.sigma2_pd, params.gamma_p),
    )

