"""Erlang (integer-shape gamma) tails for the second-hop outage terms.

The sum of k i.i.d. unit-mean exponentials has the exact finite-sum CDF

    P(k, x) = 1 - e^{-x} * sum_{m=0}^{k-1} x^m / m!

Only integer shapes ever occur here (k counts relays in a decoding set), so
nothing heavier than finite sums is needed.  Both functions sum Poisson pmf
terms e^{-x} x^m / m!, which are nonnegative and never exceed 1, so no sum
here cancels or overflows.

The terms are built from a leading e^{-x}.  Past x ~ 708 that factor is
subnormal (past ~745 it is 0.0) and carries few or no significant digits, so
there each term is formed in one piece as exp(-x + m*log(x) - lgamma(m+1)).

Nothing here checks its arguments: they are what the closed forms form from
a checked ``SystemParams``.  Each shape k or count n is an int >= 1, each
argument x or a is >= 0 (inf where delta/sigma2_d overflows), and each ratio
r is in [0, 1].
"""

from __future__ import annotations

import math
import sys

__all__ = ["reg_lower_gamma", "scaled_upper_gamma_term"]

_SMALLEST_NORMAL = sys.float_info.min


def _log_space_term(x: float, m: int) -> float:
    # e^{-x} x^m / m! where e^{-x} alone has lost its precision
    return math.exp(-x + m * math.log(x) - math.lgamma(m + 1))


def _poisson_cdf_terms(k: int, x: float) -> list[float]:
    # e^{-x} x^m / m! for m = 0..k-1, built multiplicatively while e^{-x} is
    # a normal float; each is a Poisson pmf, so no intermediate exceeds 1
    t = math.exp(-x)
    if t < _SMALLEST_NORMAL:
        return [_log_space_term(x, m) for m in range(k)]
    terms = []
    for m in range(k):
        terms.append(t)
        t *= x / (m + 1)
    return terms


def reg_lower_gamma(k: int, x: float) -> float:
    """P(k, x): probability that a sum of k unit-mean exponentials is < x.

    Equals ``1 - e^{-x} sum_{m<k} x^m/m!``.  For x < k that subtraction would
    cancel catastrophically (the result is tiny), so the complementary Poisson
    tail ``e^{-x} sum_{m>=k} x^m/m!`` is summed instead; its terms are all
    positive and decay geometrically, preserving full relative precision.
    """
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        # every Poisson term e^{-x} x^m / m! is 0 in the limit
        return 1.0
    if x >= k:
        # complement is O(1) here, no cancellation
        return 1.0 - math.fsum(_poisson_cdf_terms(k, x))
    # Poisson tail: term ratio x/(m+1) < 1 for every m >= k
    terms = []
    t = _poisson_cdf_terms(k + 1, x)[k]
    total = 0.0
    m = k
    while True:
        terms.append(t)
        total += t
        if not t > total * 1e-18:  # a NaN ends the loop too
            break
        m += 1
        t *= x / m
    return min(math.fsum(terms), 1.0)


def scaled_upper_gamma_term(n: int, a: float, r: float) -> list[float]:
    """T_1..T_n, where T_k = e^{c} * (1 - P(k, a + c)) * (a / (a + c))^k as
    one sum of nonnegative terms, given r = a / (a + c).

    Expanding the upper tail and moving the power inside gives

        T_k = e^{-a} * sum_{m=0}^{k-1} a^m / m! * r^(k - m)

    a Poisson pmf times a factor of at most 1 in each term, evaluated by
    Horner's rule in r: T_k = r * (T_{k-1} + e^{-a} a^{k-1} / (k-1)!), so
    one pass over the first n Poisson terms passes through every T_k, and
    each has the bits of a pass that stops at k.  Neither e^{c} nor
    ((a + c) / a)^k is ever formed, so each value is finite and keeps its
    relative precision for any c > 0 and a >= 0.  T_k is 0 at r = 0 (a = 0
    or c = inf) and in the limit a -> inf, where e^{-a} takes every term
    with it; where a rounds to 0 but r does not, it is r^k, the limit as
    a -> 0 at fixed r.
    """
    if math.isinf(a):
        return [0.0] * n
    tails, tail = [], 0.0
    for t in _poisson_cdf_terms(n, a):
        tail = r * (tail + t)
        tails.append(tail)
    return tails
