"""Closed-form outage probabilities for the three transmission schemes.

Conditioned on the sensor declaring a spectrum hole, an outage happens when
either no relay decodes the first hop, or the combined second hop falls short
of the target rate.  The total splits four ways: (empty / non-empty decoding
set) x (band truly free H0 / primary actually active H1), with the H0/H1
branches weighted by the sensing posterior.

All fading gains are exponential (Rayleigh magnitudes squared), which makes
every piece elementary: first-hop failures are exponential CDFs, the combined
relay->destination sum is an Erlang tail, and the interference-perturbed
versions integrate out the primary gain in closed form.  Every sum here,
over decoding-set sizes and inside each second-hop tail, adds nonnegative
terms only, so nothing cancels at high transmit SNR or at low.

Nothing here checks its arguments: they are what a checked ``SystemParams``
produces.  Thresholds delta are finite and >= 0, variances and gamma_p are
finite and > 0, and each decoding-set size k is an int from 1 to N.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import SystemParams
from .specfun import reg_lower_gamma, scaled_upper_gamma_term

__all__ = ["OutageBreakdown", "outage_best_relay", "outage_direct", "outage_multi_relay"]


@dataclass(frozen=True)
class OutageBreakdown:
    """Outage probability split by decoding-set emptiness and true hypothesis."""

    empty_h0: float
    empty_h1: float
    nonempty_h0: float
    nonempty_h1: float

    _TOL = 1e-12

    def __post_init__(self):
        for p in (self.empty_h0, self.empty_h1, self.nonempty_h0, self.nonempty_h1):
            if not (-self._TOL <= p <= 1.0 + self._TOL):
                raise ValueError(f"component out of [0,1]: {self}")

    @property
    def total(self) -> float:
        # the parts are rounded, so their sum may pass 1 by a few ulps
        return min(math.fsum((self.empty_h0, self.empty_h1, self.nonempty_h0, self.nonempty_h1)), 1.0)


_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max


def _interference_ratio(sigma2_p: float, gamma_p: float, delta: float, sigma2: float) -> float:
    """r = sigma2_p*gamma_p*delta/sigma2: the mean interference part of an
    H1 threshold over the mean signal gain.  It is 0 at delta = 0 and inf
    where r overflows.

    The product is formed left to right wherever every partial result is a
    normal float.  Where one leaves that range (sigma2_p*gamma_p overflowing
    while r is moderate, say), r is formed from the sum of the operands'
    base-2 logarithms instead: their integer parts, the binary exponents,
    add exactly, and their mantissas multiply with the same roundings as
    the direct product."""
    if not delta > 0.0:
        return 0.0
    p = sigma2_p * gamma_p
    q = p * delta
    r = q / sigma2
    if _NORMAL_MIN <= p and _NORMAL_MIN <= q and _NORMAL_MIN <= r <= _NORMAL_MAX:
        return r
    (m1, e1), (m2, e2), (m3, e3), (m4, e4) = map(math.frexp, (sigma2_p, gamma_p, delta, sigma2))
    try:
        return math.ldexp(m1 * m2 * m3 / m4, e1 + e2 + e3 - e4)
    except OverflowError:
        return math.inf


def p_below_h0(delta: float, sigma2: float) -> float:
    """Pr(gain < delta) for an exponential gain of mean sigma2: 1 - e^{-delta/sigma2}."""
    return -math.expm1(-delta / sigma2)


def p_below_h1(delta: float, sigma2_s: float, sigma2_p: float, gamma_p: float) -> float:
    """Pr(signal gain < delta * (gamma_p * interference gain + 1)).

    Integrating the exponential interference gain out of the conditional CDF
    gives 1 - e^{-delta/sigma2_s} / (1 + r) with r = sigma2_p*gamma_p*delta /
    sigma2_s.  Evaluated as (r - expm1(-delta/sigma2_s)) / (1 + r), a sum of
    nonnegative terms, so small-delta precision survives.  Recovers the
    interference-free case as gamma_p -> 0, and its limit 1 where r
    overflows.
    """
    r = _interference_ratio(sigma2_p, gamma_p, delta, sigma2_s)
    if math.isinf(r):
        return 1.0
    return (r - math.expm1(-delta / sigma2_s)) / (1.0 + r)


def p_sum_below_h0(delta: float, sigma2_d: float, k: int) -> float:
    """Pr(sum of k relay->destination gains < delta): Erlang CDF at delta/sigma2_d."""
    return reg_lower_gamma(k, delta / sigma2_d)


def p_sum_below_h1(
    delta: float, sigma2_d: float, sigma2_pd: float, gamma_p: float, k: int
) -> float:
    """Pr(sum of k relay gains < gamma_p*delta*interference gain + delta).

    Averaging the Erlang CDF over the exponential interference gain yields

        P(k, a) + e^{c} Q(k, a + c) (a / (a + c))^k

    with a = delta/sigma2_d and c = 1/(sigma2_pd*gamma_p).  The second term is
    ``scaled_upper_gamma_term`` of r = a/(a + c), a sum of nonnegative terms
    that stays finite where e^{c} or ((a + c)/a)^k alone would overflow; at
    delta = 0 both terms are 0.  r is formed as rho/(1 + rho) from the
    interference ratio rho = a/c (as in ``p_below_h1``), so it keeps its
    digits where sigma2_pd*gamma_p leaves the float range but rho does not.
    Where rho overflows, r takes its limit 1, the second term is the whole
    upper tail 1 - P(k, a) and the sum is 1.
    """
    a = delta / sigma2_d
    rho = _interference_ratio(sigma2_pd, gamma_p, delta, sigma2_d)
    r = 1.0 if math.isinf(rho) else rho / (1.0 + rho)
    return min(reg_lower_gamma(k, a) + scaled_upper_gamma_term(k, a, r), 1.0)


def p_max_below_h0(delta: float, sigma2_d: float, k: int) -> float:
    """Pr(max of k relay->destination gains < delta) = (1 - e^{-delta/sigma2_d})^k."""
    return (-math.expm1(-delta / sigma2_d)) ** k


def p_max_below_h1(
    delta: float, sigma2_d: float, sigma2_pd: float, gamma_p: float, k: int
) -> float:
    """Pr(max of k relay gains < gamma_p*delta*interference gain + delta).

    Given the interference gain y, the max-CDF is (1 - c*u)^k with
    c = e^{-delta/sigma2_d} and u = e^{-gamma_p*delta*y/sigma2_d}.  Over the
    exponential y, u is Beta(theta, 1) with theta = 1/r and
    r = sigma2_pd*gamma_p*delta/sigma2_d, so v = 1 - u has the moments
    E[v^n] = prod_{j<=n} j*r/(1 + j*r).  Writing 1 - c*u = q + c*v with
    q = 1 - c and expanding the power binomially gives

        sum_{n=0}^{k} C(k,n) q^{k-n} c^n E[v^n]

    whose terms are all nonnegative: nothing cancels at high SNR, and at
    delta = 0 every term is 0.  Where k*r overflows, every E[v^n] is 1 to
    double precision and the sum is its limit (q + c)^k = 1.
    """
    r = _interference_ratio(sigma2_pd, gamma_p, delta, sigma2_d)
    if math.isinf(k * r):
        return 1.0
    q = -math.expm1(-delta / sigma2_d)
    c = math.exp(-delta / sigma2_d)
    terms, moment = [], 1.0  # moment = E[v^n]
    for n in range(k + 1):
        terms.append(math.comb(k, n) * q ** (k - n) * c ** n * moment)
        moment *= (n + 1) * r / (1.0 + (n + 1) * r)
    return math.fsum(terms)


def _cardinality_pmf(groups: list[tuple[float, float, int]]) -> list[float]:
    """Entry k: probability that exactly k relays decode, given the first-hop
    (failure, success, relay count) of each group of alike relays.

    The subset sum depends only on the decoding-set size, so its weights are
    the Poisson-binomial pmf: one binomial per group, convolved; with every
    relay distinct this is the O(N^2) recursion of Y. Hong (CSDA 59:41-51,
    2013).  All terms are nonnegative, so the accumulation cancels nothing.

    A relay in a group of its own is one two-term pass, term k becoming
    pmf[k-1]*s + pmf[k]*f.  Its bits are the nested loop's: that loop's
    binomial is exactly [f, s], and it adds the same two products in the
    same order into 0.0, where 0.0 + x is x for the nonnegative x here.
    """
    pmf = [1.0]  # the empty set's; 1.0 * b and 0.0 + b are exact, so no term changes
    for f, s, m in groups:
        if m == 1:
            pmf = [a * s + b * f for a, b in zip([0.0] + pmf, pmf + [0.0])]
            continue
        group = [math.comb(m, j) * s ** j * f ** (m - j) for j in range(m + 1)]
        out = [0.0] * (len(pmf) + m)
        for i, a in enumerate(pmf):
            for j, b in enumerate(group):
                out[i + j] += a * b
        pmf = out
    return pmf


def _first_hop(params: SystemParams, delta: float) -> tuple[list, list]:
    """First-hop (failure, success, relay count) under H0 and under H1 of
    each group of relays with equal (sigma2_si, sigma2_pi).

    Success is formed directly, e^{-delta/sigma2_si} under H0 and that over
    1 + r under H1 (r as in ``p_below_h1``), not as 1 - failure: at low SNR
    the failure rounds towards 1 and the difference keeps no digits.
    """
    v = params.variances
    relays = list(zip(v.sigma2_si, v.sigma2_pi))
    h0, h1 = [], []
    for s2s, s2p in dict.fromkeys(relays):
        m = relays.count((s2s, s2p))
        success = math.exp(-delta / s2s)
        r = _interference_ratio(s2p, params.gamma_p, delta, s2s)
        h0.append((p_below_h0(delta, s2s), success, m))
        h1.append((p_below_h1(delta, s2s, s2p, params.gamma_p), success / (1.0 + r), m))
    return h0, h1


def _relay_scheme_outage(params: SystemParams, tail_h0, tail_h1) -> OutageBreakdown:
    """Sum over k of Pr(|D| = k) * Pr(second hop fails | k) under H0 and H1, weighted by the
    posterior.  A scheme gives its second-hop tails, called once per k as
    tail_h0(delta, sigma2_d, k) and tail_h1(delta, sigma2_d, sigma2_pd, gamma_p, k)."""
    v, delta = params.variances, params.delta
    pmf0, pmf1 = map(_cardinality_pmf, _first_hop(params, delta))
    sizes = range(1, params.n_relays + 1)
    return OutageBreakdown(
        empty_h0=params.pi0 * pmf0[0],
        empty_h1=params.pi1 * pmf1[0],
        nonempty_h0=params.pi0 * math.fsum(pmf0[k] * tail_h0(delta, v.sigma2_d, k) for k in sizes),
        nonempty_h1=params.pi1 * math.fsum(
            pmf1[k] * tail_h1(delta, v.sigma2_d, v.sigma2_pd, params.gamma_p, k) for k in sizes),
    )


def outage_multi_relay(params: SystemParams) -> OutageBreakdown:
    """Outage of the all-decoders scheme: every relay that decoded forwards,
    and the destination combines the branches coherently, so the second hop
    fails only when the *sum* of member gains falls below the threshold.
    """
    return _relay_scheme_outage(params, p_sum_below_h0, p_sum_below_h1)


def outage_best_relay(params: SystemParams) -> OutageBreakdown:
    """Outage of the single-best-relay benchmark.

    Same first-hop decoding-set probabilities as the multi-relay scheme, but
    only the decoding relay with the strongest relay->destination gain
    forwards, so the second hop fails when the *max* of member gains falls
    below the threshold.  Since max <= sum path by path, this scheme's outage
    dominates the multi-relay one.
    """
    return _relay_scheme_outage(params, p_max_below_h0, p_max_below_h1)


def outage_direct(params: SystemParams) -> OutageBreakdown:
    """Outage of the relay-free benchmark: one hop, one time slot.

    The single-slot rate convention applies, so the threshold is
    (2^R - 1)/gamma_s rather than the two-slot (2^{2R} - 1)/gamma_s.  No
    decoding set exists; the empty-set components are reported as zero.
    """
    v = params.variances
    return OutageBreakdown(
        empty_h0=0.0,
        empty_h1=0.0,
        nonempty_h0=params.pi0 * p_below_h0(params.delta_direct, v.sigma2_sd),
        nonempty_h1=params.pi1 * p_below_h1(params.delta_direct, v.sigma2_sd, v.sigma2_pd, params.gamma_p),
    )

