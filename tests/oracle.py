"""Reference closed forms that sum over every decoding set explicitly.

The package weights each second-hop tail by the distribution of the
decoding-set size.  These functions take the subset sum literally instead:
one product of per-relay success/failure factors for each of the 2^N relay
subsets, in bitmask order.  They share the first- and second-hop building
blocks with the package, so a disagreement isolates the weighting step.
Exponential in N, so the tests stay at N <= MAX_ORACLE_RELAYS.
"""

import math

from cogrelay.analytic import (
    OutageBreakdown,
    p_below_h0,
    p_below_h1,
    p_max_below_h0,
    p_max_below_h1,
    p_sum_below_h0,
    p_sum_below_h1,
)
from cogrelay.model import Scheme

MAX_ORACLE_RELAYS = 12


def _subset_probabilities(fail):
    """(subset size, probability) for every relay subset, in bitmask order."""
    n = len(fail)
    if n > MAX_ORACLE_RELAYS:
        raise ValueError(f"oracle enumerates 2^N subsets; N={n} > {MAX_ORACLE_RELAYS}")
    for mask in range(1 << n):
        w = 1.0
        for i, f in enumerate(fail):
            w *= (1.0 - f) if (mask >> i) & 1 else f
        yield mask.bit_count(), w


def _first_hop_failures(params):
    v = params.variances
    delta = params.snr_threshold().delta
    f0 = [p_below_h0(delta, s2) for s2 in v.sigma2_si]
    f1 = [
        p_below_h1(delta, s2s, s2p, params.gamma_p)
        for s2s, s2p in zip(v.sigma2_si, v.sigma2_pi)
    ]
    return f0, f1


def enumerated_outage(params, scheme):
    """Outage breakdown of a relay scheme by summing over all decoding sets."""
    v = params.variances
    delta = params.snr_threshold().delta
    if scheme is Scheme.MULTI_RELAY:
        tail_h0 = lambda k: p_sum_below_h0(delta, v.sigma2_d, k)  # noqa: E731
        tail_h1 = lambda k: p_sum_below_h1(delta, v.sigma2_d, v.sigma2_pd, params.gamma_p, k)  # noqa: E731
    elif scheme is Scheme.BEST_RELAY:
        tail_h0 = lambda k: p_max_below_h0(delta, v.sigma2_d, k)  # noqa: E731
        tail_h1 = lambda k: p_max_below_h1(delta, v.sigma2_d, v.sigma2_pd, params.gamma_p, k)  # noqa: E731
    else:
        raise ValueError(f"no decoding sets in scheme {scheme}")

    def split(fail, tail):
        empty, terms = 0.0, []
        for k, w in _subset_probabilities(fail):
            if k == 0:
                empty = w
            else:
                terms.append(w * tail(k))
        return empty, math.fsum(terms)

    post = params.posterior()
    f0, f1 = _first_hop_failures(params)
    empty0, sum0 = split(f0, tail_h0)
    empty1, sum1 = split(f1, tail_h1)
    return OutageBreakdown.from_components(
        empty_h0=post.pi0 * empty0,
        empty_h1=post.pi1 * empty1,
        nonempty_h0=post.pi0 * sum0,
        nonempty_h1=post.pi1 * sum1,
    )


def enumerated_cardinality_pmf(params):
    """Decoding-set size distribution by summing subset probabilities per size."""
    post = params.posterior()
    n = params.n_relays
    mixed = [[] for _ in range(n + 1)]
    for weight, fail in zip((post.pi0, post.pi1), _first_hop_failures(params)):
        for k, w in _subset_probabilities(fail):
            mixed[k].append(weight * w)
    return tuple(math.fsum(terms) for terms in mixed)
