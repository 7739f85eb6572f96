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
"""

from __future__ import annotations

import math
import operator
import sys

__all__ = ["reg_lower_gamma", "scaled_upper_gamma_term"]

_SMALLEST_NORMAL = sys.float_info.min


def _check_shape(k) -> int:
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"shape k must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError(f"shape k must be >= 1, got {k}")
    return k


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


def reg_lower_gamma(k, x: float) -> float:
    """P(k, x): probability that a sum of k unit-mean exponentials is < x.

    Equals ``1 - e^{-x} sum_{m<k} x^m/m!``.  For x < k that subtraction would
    cancel catastrophically (the result is tiny), so the complementary Poisson
    tail ``e^{-x} sum_{m>=k} x^m/m!`` is summed instead; its terms are all
    positive and decay geometrically, preserving full relative precision.
    """
    k = _check_shape(k)
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x >= k:
        # complement is O(1) here, no cancellation
        return 1.0 - math.fsum(_poisson_cdf_terms(k, x))
    # Poisson tail: term ratio x/(m+1) < 1 for every m >= k
    terms = []
    t = math.exp(-x)
    if t < _SMALLEST_NORMAL:
        t = _log_space_term(x, k)
    else:
        for m in range(1, k + 1):
            t *= x / m
    total = 0.0
    m = k
    while True:
        terms.append(t)
        total += t
        if t <= total * 1e-18:
            break
        m += 1
        t *= x / m
    return min(math.fsum(terms), 1.0)


def scaled_upper_gamma_term(k, a: float, c: float) -> float:
    """e^{c} * (1 - P(k, a + c)) * (a / (a + c))^k as one sum of nonnegative terms.

    Expanding the upper tail and moving the power inside gives

        e^{-a} * sum_{m=0}^{k-1} a^m / m! * r^(k - m),   r = a / (a + c)

    a Poisson pmf times a factor of at most 1 in each term, evaluated by
    Horner's rule in r.  Neither e^{c} nor ((a + c) / a)^k is ever formed, so
    the value is finite and keeps its relative precision for any c > 0 and
    a >= 0; it is 0 at a = 0.
    """
    k = _check_shape(k)
    if math.isnan(a) or a < 0.0:
        raise ValueError(f"a must be >= 0, got {a}")
    if math.isnan(c) or c <= 0.0:
        raise ValueError(f"c must be > 0, got {c}")
    r = a / (a + c)
    tail = 0.0
    for t in _poisson_cdf_terms(k, a):
        tail = r * (tail + t)
    return tail
