"""Reference implementations that the tests compare the package against.

Closed forms: the package weights each second-hop tail by the distribution
of the decoding-set size.  ``enumerated_outage`` and
``enumerated_cardinality_pmf`` take the subset sum literally instead: one
product of per-relay success/failure factors for each of the 2^N relay
subsets, in bitmask order.  They share the first- and second-hop building
blocks with the package, so a disagreement isolates the weighting step.
Exponential in N, so the tests stay at N <= MAX_ORACLE_RELAYS.

Monte Carlo: ``whole_batch_outage_flags`` is the batch kernel drawing a
batch's uniforms in one piece, the reference for the block-wise kernel.
``scalar_trial_outage`` is the scalar reference: it runs one trial at a
time, drawing that trial's 3N+3 uniforms from the stream, mapping them to
gains in the kernel's column layout and with the kernel's expressions, and
applying the decode, sum and max tests to plain arrays.  Called
TRIALS_PER_BATCH times on a batch's stream, it must reproduce the kernel's
flags for that batch exactly.
"""

import math

import numpy as np

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
from cogrelay.montecarlo import TRIALS_PER_BATCH, batch_generator, exponential_from_uniform

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


def whole_batch_outage_flags(params, scheme, seed, batch_index):
    """Outage flags of one batch from a single whole-matrix draw.

    This is the batch kernel as it stood before it drew its rows in blocks:
    all TRIALS_PER_BATCH rows of uniforms at once, then every link in one
    pass.  The package kernel must reproduce it flag for flag.
    """
    post = params.posterior()
    thr = params.snr_threshold()
    n = params.n_relays
    v = params.variances
    gen = batch_generator(seed, batch_index)
    u = gen.random((TRIALS_PER_BATCH, 3 * n + 3))
    alpha = (u[:, 0] < post.pi1).astype(np.float64)
    g_pd = exponential_from_uniform(u[:, 3 * n + 1], v.sigma2_pd)
    interference = alpha * params.gamma_p * g_pd + 1.0
    if scheme is Scheme.DIRECT:
        g_sd = exponential_from_uniform(u[:, 3 * n + 2], v.sigma2_sd)
        return g_sd < thr.delta_direct * interference
    g_si = exponential_from_uniform(u[:, 1 : n + 1], np.asarray(v.sigma2_si))
    g_pi = exponential_from_uniform(u[:, n + 1 : 2 * n + 1], np.asarray(v.sigma2_pi))
    g_id = exponential_from_uniform(u[:, 2 * n + 1 : 3 * n + 1], v.sigma2_d)
    decoded = g_si > thr.delta * (alpha[:, None] * params.gamma_p * g_pi + 1.0)
    forwarded = np.where(decoded, g_id, 0.0)
    combined = forwarded.sum(axis=1) if scheme is Scheme.MULTI_RELAY else forwarded.max(axis=1)
    return combined < thr.delta * interference


def decoded_relays(params, g_si, g_pi, alpha):
    """Decode test of one trial: relay i decodes when g_si[i] beats
    delta*(alpha*gamma_p*g_pi[i] + 1), alpha being 1.0 under H1 (primary
    active) and 0.0 under H0."""
    delta = params.snr_threshold().delta
    return g_si > delta * (alpha * params.gamma_p * g_pi + 1.0)


def scalar_trial_outage(gen, params, scheme):
    """Outage of the next trial on `gen`, computed one trial at a time."""
    post = params.posterior()
    thr = params.snr_threshold()
    n = params.n_relays
    v = params.variances
    u = gen.random(3 * n + 3)
    alpha = 1.0 if u[0] < post.pi1 else 0.0
    g_pd = exponential_from_uniform(u[3 * n + 1], v.sigma2_pd)
    interference = alpha * params.gamma_p * g_pd + 1.0
    if scheme is Scheme.DIRECT:
        g_sd = exponential_from_uniform(u[3 * n + 2], v.sigma2_sd)
        return bool(g_sd < thr.delta_direct * interference)
    g_si = exponential_from_uniform(u[1 : n + 1], np.asarray(v.sigma2_si))
    g_pi = exponential_from_uniform(u[n + 1 : 2 * n + 1], np.asarray(v.sigma2_pi))
    g_id = exponential_from_uniform(u[2 * n + 1 : 3 * n + 1], v.sigma2_d)
    forwarded = np.where(decoded_relays(params, g_si, g_pi, alpha), g_id, 0.0)
    combined = forwarded.sum() if scheme is Scheme.MULTI_RELAY else forwarded.max()
    return bool(combined < thr.delta * interference)
