"""Reference implementations that the tests compare the package against.

Closed forms: the package weights each second-hop tail by the distribution
of the decoding-set size.  ``enumerated_outage`` and
``enumerated_cardinality_pmf`` take the subset sum literally instead: one
product of per-relay success/failure factors for each of the 2^N relay
subsets, in bitmask order.  They share the first- and second-hop building
blocks with the package, so a disagreement isolates the weighting step.
Exponential in N, so the tests stay at N <= MAX_ORACLE_RELAYS.
``nested_loop_cardinality_pmf`` is the package's decoding-set pmf as it was
built before a relay in a group of its own took a two-term pass: one
binomial per group, convolved by a nested loop.  The package must match it
bit for bit.  The ``per_size_*`` tails and
``per_size_scaled_upper_gamma_term`` are the second-hop tails as they were
before each became one call per point: one call per decoding-set size k,
forming r, q, c, the moments and the Poisson terms again at every k.
``standalone_sum_below_h1`` and ``standalone_max_below_h1`` are the H1
tails as they were before that, when they did not start from the H0 tail
the relay schemes had already computed at the same k: each forms that H0
part itself.  ``group_count_first_hop`` is the first hop as it was before it
counted each group's relays in one pass: one ``list.count`` per group.  The
package's entry k must match each of them bit for bit.

Exact references: ``mp_sum_below_h1``, ``mp_max_below_h1`` and ``mp_outage``
evaluate the second-hop tails and the whole outage breakdown in mpmath from
the same float inputs.  ``alternating_max_below_h1`` is the best-relay tail
as the package once computed it, an alternating series in doubles that
cancels at high SNR; at enough digits that same series is the exact
reference ``mp_max_below_h1``.

High SNR: ``asymptotic_outage`` is the leading term C*delta^d of each
scheme's outage as gamma_s grows, with diversity order d = N for both relay
schemes and 1 for direct, built from elementary sums that share nothing
with the package's tails.

Monte Carlo: ``whole_batch_outage_flags`` is the batch kernel drawing a
batch's uniforms in one piece, the reference for the block-wise kernel;
it draws and transforms each (seed, batch, variances) once and tests every
point and scheme on that draw.
``scalar_trial_outage`` is the scalar reference: it runs one trial at a
time, drawing that trial's 3N+3 uniforms from the stream, mapping them to
gains in the kernel's column layout and with the kernel's expressions, and
applying the decode, sum and max tests to plain arrays.  Called
TRIALS_PER_BATCH times on a batch's stream, it must reproduce the kernel's
flags for that batch exactly.  Both add a trial's forwarded gains in relay
index order, left to right, as the kernel does: the whole-batch oracle by
``np.add.accumulate`` along each row, the scalar one by an explicit loop.
Neither uses ``ndarray.sum`` (pairwise from 8 terms) or the builtin ``sum``
(compensated from Python 3.12), whose bits differ.

Sweep order: ``sorted_sweep_points`` builds the whole scheme x pair x N x
gamma_s product and sorts it once, as the CLI once did; the streamed
``cli.sweep_points`` must yield the same points in the same order.
"""

import functools
import math

import mpmath
import numpy as np

from cogrelay.analytic import (
    OutageBreakdown,
    _interference_ratio,
    p_below_h0,
    p_below_h1,
    p_max_below_h0,
    p_max_below_h1,
    p_sum_below_h0,
    p_sum_below_h1,
)
from cogrelay.model import Scheme
from cogrelay.montecarlo import TRIALS_PER_BATCH, batch_generator, exponential_from_uniform
from cogrelay.specfun import _poisson_cdf_terms, reg_lower_gamma

MAX_ORACLE_RELAYS = 12


def sorted_sweep_points(spec):
    """Every grid point of a SweepSpec, stably sorted by
    (scheme value, pd, pf, n_relays, gamma_s_db)."""
    points = [
        (scheme, line.pd, line.pf, line.n_relays, g)
        for scheme in spec.schemes
        for line in spec.lines
        for g in spec.gamma_s_db
    ]
    points.sort(key=lambda p: (p[0].value, p[1], p[2], p[3], p[4]))
    return points


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
    delta = params.delta
    f0 = [p_below_h0(delta, s2) for s2 in v.sigma2_si]
    f1 = [
        p_below_h1(delta, s2s, s2p, params.gamma_p)
        for s2s, s2p in zip(v.sigma2_si, v.sigma2_pi)
    ]
    return f0, f1


def enumerated_outage(params, scheme):
    """Outage breakdown of a relay scheme by summing over all decoding sets."""
    v = params.variances
    delta = params.delta
    if scheme is Scheme.MULTI_RELAY:
        tail_h0, tail_h1 = p_sum_below_h0, p_sum_below_h1
    elif scheme is Scheme.BEST_RELAY:
        tail_h0, tail_h1 = p_max_below_h0, p_max_below_h1
    else:
        raise ValueError(f"no decoding sets in scheme {scheme}")
    below_h0 = tail_h0(delta, v.sigma2_d, params.n_relays)
    below_h1 = tail_h1(delta, v.sigma2_d, v.sigma2_pd, params.gamma_p, below_h0)

    def split(fail, below):
        # below[k - 1]: the second-hop tail at decoding-set size k
        empty, terms = 0.0, []
        for k, w in _subset_probabilities(fail):
            if k == 0:
                empty = w
            else:
                terms.append(w * below[k - 1])
        return empty, math.fsum(terms)

    f0, f1 = _first_hop_failures(params)
    empty0, sum0 = split(f0, below_h0)
    empty1, sum1 = split(f1, below_h1)
    return OutageBreakdown(
        empty_h0=params.pi0 * empty0,
        empty_h1=params.pi1 * empty1,
        nonempty_h0=params.pi0 * sum0,
        nonempty_h1=params.pi1 * sum1,
    )


def enumerated_cardinality_pmf(params):
    """Decoding-set size distribution by summing subset probabilities per size."""
    n = params.n_relays
    mixed = [[] for _ in range(n + 1)]
    for weight, fail in zip((params.pi0, params.pi1), _first_hop_failures(params)):
        for k, w in _subset_probabilities(fail):
            mixed[k].append(weight * w)
    return tuple(math.fsum(terms) for terms in mixed)


def nested_loop_cardinality_pmf(groups):
    """Entry k: probability that exactly k relays decode, given the first-hop
    (failure, success, relay count) of each group of alike relays; every
    group, a single relay too, forms its binomial and is convolved in."""
    pmf = [1.0]
    for f, s, m in groups:
        group = [math.comb(m, j) * s ** j * f ** (m - j) for j in range(m + 1)]
        out = [0.0] * (len(pmf) + m)
        for i, a in enumerate(pmf):
            for j, b in enumerate(group):
                out[i + j] += a * b
        pmf = out
    return pmf


def per_size_scaled_upper_gamma_term(k, a, r):
    """e^{c} * (1 - P(k, a + c)) * (a / (a + c))^k at one k, given
    r = a / (a + c): e^{-a} sum_{m<k} a^m / m! r^(k - m) by Horner's rule
    in r over the first k Poisson terms."""
    if math.isinf(a):
        return 0.0
    tail = 0.0
    for t in _poisson_cdf_terms(k, a):
        tail = r * (tail + t)
    return tail


def per_size_sum_below_h0(delta, sigma2_d, k):
    """Pr(sum of k relay->destination gains < delta) at one k."""
    return reg_lower_gamma(k, delta / sigma2_d)


def per_size_sum_below_h1(delta, sigma2_d, sigma2_pd, gamma_p, k, below_h0):
    """Pr(sum of k relay gains < gamma_p*delta*interference gain + delta) at
    one k, given below_h0 = ``per_size_sum_below_h0(delta, sigma2_d, k)``:
    below_h0 plus ``per_size_scaled_upper_gamma_term`` of r = rho/(1 + rho)."""
    a = delta / sigma2_d
    rho = _interference_ratio(sigma2_pd, gamma_p, delta, sigma2_d)
    r = 1.0 if math.isinf(rho) else rho / (1.0 + rho)
    return min(below_h0 + per_size_scaled_upper_gamma_term(k, a, r), 1.0)


def per_size_max_below_h0(delta, sigma2_d, k):
    """Pr(max of k relay->destination gains < delta) at one k."""
    return (-math.expm1(-delta / sigma2_d)) ** k


def per_size_max_below_h1(delta, sigma2_d, sigma2_pd, gamma_p, k, below_h0):
    """Pr(max of k relay gains < gamma_p*delta*interference gain + delta) at
    one k, given below_h0 = ``per_size_max_below_h0(delta, sigma2_d, k)``:
    sum_{n=0}^{k} C(k,n) q^{k-n} c^n E[v^n] with its n = 0 term below_h0,
    forming r, q, c and the moments E[v^n] for this k alone."""
    r = _interference_ratio(sigma2_pd, gamma_p, delta, sigma2_d)
    if math.isinf(k * r):
        return 1.0
    q = -math.expm1(-delta / sigma2_d)
    c = math.exp(-delta / sigma2_d)
    terms, moment = [below_h0], r / (1.0 + r)  # moment = E[v^n]
    for n in range(1, k + 1):
        terms.append(math.comb(k, n) * q ** (k - n) * c ** n * moment)
        moment *= (n + 1) * r / (1.0 + (n + 1) * r)
    return math.fsum(terms)


def standalone_sum_below_h1(delta, sigma2_d, sigma2_pd, gamma_p, k):
    """Pr(sum of k relay gains < gamma_p*delta*interference gain + delta) as
    P(k, a) + ``per_size_scaled_upper_gamma_term`` of r = rho/(1 + rho), where
    a = delta/sigma2_d and rho is the interference ratio; P(k, a) is formed
    here, not taken from the H0 tail."""
    a = delta / sigma2_d
    rho = _interference_ratio(sigma2_pd, gamma_p, delta, sigma2_d)
    r = 1.0 if math.isinf(rho) else rho / (1.0 + rho)
    return min(reg_lower_gamma(k, a) + per_size_scaled_upper_gamma_term(k, a, r), 1.0)


def standalone_max_below_h1(delta, sigma2_d, sigma2_pd, gamma_p, k):
    """Pr(max of k relay gains < gamma_p*delta*interference gain + delta) as
    sum_{n=0}^{k} C(k,n) q^{k-n} c^n E[v^n], with q = 1 - e^{-delta/sigma2_d},
    c = 1 - q and E[v^n] = prod_{j<=n} j*r/(1 + j*r); its n = 0 term, the H0
    tail q^k, is formed here."""
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


def group_count_first_hop(params, delta):
    """First-hop (failure, success, relay count) under H0 and under H1 of
    each group of relays with equal (sigma2_si, sigma2_pi), in first-seen
    order; each group's count is one ``list.count``, O(N^2) in all."""
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


def alternating_max_below_h1(delta, sigma2_d, sigma2_pd, gamma_p, k):
    """Pr(max of k relay gains < gamma_p*delta*interference gain + delta) as

        sum_{m=0}^{k} C(k,m) (-1)^m e^{-m*delta/sigma2_d} / (1 + m*r)

    with r = sigma2_pd*gamma_p*delta/sigma2_d, fsum-accumulated in doubles
    and clamped to [0, 1].  Its terms cancel at high SNR: it returns exactly
    0.0 at k = 6, delta = 3e-4, where the true value is 5.5e-17."""
    r = sigma2_pd * gamma_p * delta / sigma2_d
    total = math.fsum(
        math.comb(k, m) * (-1.0) ** m * math.exp(-m * delta / sigma2_d) / (1.0 + m * r)
        for m in range(k + 1)
    )
    return min(max(total, 0.0), 1.0)


def mp_max_below_h1(delta, sigma2_d, sigma2_pd, gamma_p, k, dps=700):
    """The alternating series of ``alternating_max_below_h1`` in `dps`-digit
    arithmetic.  For k <= 24 no term exceeds C(24, 12) < 10^7, so the
    cancellation costs at most 7 - log10(value) digits: at 700 digits the
    sum is exact to double precision for every value above 1e-600."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(delta) / sigma2_d
        r = mpmath.mpf(sigma2_pd) * gamma_p * delta / sigma2_d
        return mpmath.fsum(
            mpmath.binomial(k, m) * (-1) ** m * mpmath.exp(-m * a) / (1 + m * r)
            for m in range(k + 1)
        )


def mp_sum_below_h1(delta, sigma2_d, sigma2_pd, gamma_p, k, dps=60):
    """P(k, a) + e^c Q(k, a+c) (a/(a+c))^k in `dps`-digit arithmetic,
    a = delta/sigma2_d and c = 1/(sigma2_pd*gamma_p), with both incomplete
    gamma tails from mpmath's ``gammainc``; no power overflows there."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(delta) / sigma2_d
        c = 1 / (mpmath.mpf(sigma2_pd) * gamma_p)
        lower = mpmath.gammainc(k, 0, a, regularized=True)
        upper = mpmath.gammainc(k, a + c, mpmath.inf, regularized=True)
        return lower + mpmath.e**c * upper * (a / (a + c)) ** k


def mp_outage(params, scheme):
    """Outage breakdown of a relay scheme in mpmath, as a field -> float dict.

    The decoding-set size pmf is convolved relay by relay from first-hop
    failure and success probabilities, each formed on its own, and the tails
    are the exact references above.  The threshold is the package's float
    delta, so both sides start from the same input."""
    v = params.variances
    delta = mpmath.mpf(params.delta)
    with mpmath.workdps(60):
        p0, pd, pf = (mpmath.mpf(x) for x in (params.p0, params.pd, params.pf))
        declared = p0 * pd + (1 - p0) * pf
        post = (p0 * pd / declared, (1 - p0) * pf / declared)
        hops = ([], [])
        for s2s, s2p in zip(v.sigma2_si, v.sigma2_pi):
            success = mpmath.exp(-delta / s2s)
            hops[0].append((-mpmath.expm1(-delta / s2s), success))
            success /= 1 + s2p * params.gamma_p * delta / s2s
            hops[1].append((1 - success, success))
        if scheme is Scheme.MULTI_RELAY:
            tails = (
                lambda k: mpmath.gammainc(k, 0, delta / v.sigma2_d, regularized=True),
                lambda k: mp_sum_below_h1(delta, v.sigma2_d, v.sigma2_pd, params.gamma_p, k),
            )
        elif scheme is Scheme.BEST_RELAY:
            tails = (
                lambda k: (-mpmath.expm1(-delta / v.sigma2_d)) ** k,
                lambda k: mp_max_below_h1(delta, v.sigma2_d, v.sigma2_pd, params.gamma_p, k),
            )
        else:
            raise ValueError(f"no decoding sets in scheme {scheme}")
        out = {}
        for h, (weight, hop, tail) in enumerate(zip(post, hops, tails)):
            pmf = [mpmath.mpf(1)]
            for f, s in hop:
                pmf = [a * f + b * s for a, b in zip(pmf + [0], [0] + pmf)]
            out[f"empty_h{h}"] = weight * pmf[0]
            out[f"nonempty_h{h}"] = weight * mpmath.fsum(
                pmf[k] * tail(k) for k in range(1, len(pmf))
            )
        out["total"] = mpmath.fsum(out.values())
        return {field: float(x) for field, x in out.items()}


def elementary_symmetric(xs):
    """e_0..e_n of `xs`: e_j is the sum over all j-element subsets of the
    product of their entries."""
    e = [mpmath.mpf(1)]
    for x in xs:
        e = [a + x * b for a, b in zip(e + [0], [0] + e)]
    return e


def asymptotic_outage(params, scheme):
    """Leading term C*delta^d of the outage as gamma_s -> infinity.

    Direct (d = 1, delta the one-slot threshold): the link fails with
    probability about delta*E[I]/sigma2_sd, where I = 1 under H0 and
    1 + gamma_p*g_pd under H1, so C = (pi0 + pi1*(1 + gamma_p*sigma2_pd))/sigma2_sd.

    Relay schemes (d = N): relay i fails the first hop with probability
    about delta*s_i, where s_i = 1/sigma2_si under H0 and
    (1 + gamma_p*sigma2_pi_i)/sigma2_si under H1.  Given k decoders, the
    second hop fails with probability about (delta*I/sigma2_d)^k/D_k, with
    D_k = k! for the multi-relay sum and 1 for the best-relay max, and
    E[I^k] = M_k = sum_j C(k,j) j! (gamma_p*sigma2_pd)^j under H1 (1 under
    H0).  Summing over the sets of N-k failed relays gives
        C = sum_k (pi0*e_{N-k}(s^H0) + pi1*e_{N-k}(s^H1)*M_k) / (sigma2_d^k D_k),
    with e the elementary symmetric sums; with equal variances
    e_{N-k}(s) = C(N,k) s^(N-k)."""
    v = params.variances
    g = params.gamma_p
    with mpmath.workdps(40):
        pi0, pi1 = mpmath.mpf(params.pi0), mpmath.mpf(params.pi1)
        if scheme is Scheme.DIRECT:
            c = (pi0 + pi1 * (1 + g * mpmath.mpf(v.sigma2_pd))) / v.sigma2_sd
            return float(c * params.delta_direct)
        n = params.n_relays
        e0 = elementary_symmetric([1 / mpmath.mpf(s) for s in v.sigma2_si])
        e1 = elementary_symmetric(
            [(1 + g * mpmath.mpf(p)) / s for s, p in zip(v.sigma2_si, v.sigma2_pi)]
        )
        c = mpmath.mpf(0)
        for k in range(n + 1):
            m_k = mpmath.fsum(
                math.comb(k, j) * mpmath.factorial(j) * (g * mpmath.mpf(v.sigma2_pd)) ** j
                for j in range(k + 1)
            )
            d_k = mpmath.factorial(k) if scheme is Scheme.MULTI_RELAY else 1
            c += (pi0 * e0[n - k] + pi1 * e1[n - k] * m_k) / (mpmath.mpf(v.sigma2_d) ** k * d_k)
        return float(c * mpmath.mpf(params.delta) ** n)


# as in the kernel, a gain or a threshold past the float range is inf and a
# zero threshold times an infinite factor NaN; numpy's warnings are silenced
@functools.lru_cache(maxsize=4)
@np.errstate(over="ignore", invalid="ignore")
def _whole_batch_gains(seed, batch_index, variances):
    """One batch's hypothesis uniforms and its gains, each link in one pass,
    as read-only arrays: (u0, g_pd, g_sd, g_si, g_pi, g_id).

    They depend on the seed, the batch and the variances (which fix N)
    only, so every point and scheme of a draw reads one draw and one
    transform.  At N = 24 an entry holds about 10 MB; the cache keeps four."""
    n = len(variances.sigma2_si)
    u = batch_generator(seed, batch_index).random((TRIALS_PER_BATCH, 3 * n + 3))
    arrays = (
        u[:, 0].copy(),
        exponential_from_uniform(u[:, 3 * n + 1], variances.sigma2_pd),
        exponential_from_uniform(u[:, 3 * n + 2], variances.sigma2_sd),
        exponential_from_uniform(u[:, 1 : n + 1], np.asarray(variances.sigma2_si)),
        exponential_from_uniform(u[:, n + 1 : 2 * n + 1], np.asarray(variances.sigma2_pi)),
        exponential_from_uniform(u[:, 2 * n + 1 : 3 * n + 1], variances.sigma2_d),
    )
    for a in arrays:
        a.flags.writeable = False
    return arrays


@np.errstate(over="ignore", invalid="ignore")
def whole_batch_outage_flags(params, scheme, seed, batch_index):
    """Outage flags of one batch from a single whole-matrix draw.

    This is the batch kernel as it stood before it drew its rows in blocks:
    all TRIALS_PER_BATCH rows of uniforms at once, then every link in one
    pass (shared through ``_whole_batch_gains``), then the decode, sum and
    max tests over the whole batch.  The package kernel must reproduce it
    flag for flag.
    """
    u0, g_pd, g_sd, g_si, g_pi, g_id = _whole_batch_gains(seed, batch_index, params.variances)
    alpha = (u0 < params.pi1).astype(np.float64)
    interference = alpha * params.gamma_p * g_pd + 1.0
    if scheme is Scheme.DIRECT:
        return g_sd < params.delta_direct * interference
    decoded = g_si > params.delta * (alpha[:, None] * params.gamma_p * g_pi + 1.0)
    forwarded = np.where(decoded, g_id, 0.0)
    if scheme is Scheme.MULTI_RELAY:
        # each row's running sum in relay order; the last one is the total
        combined = np.add.accumulate(forwarded, axis=1)[:, -1]
    else:
        combined = forwarded.max(axis=1)
    return combined < params.delta * interference


def decoded_relays(params, g_si, g_pi, alpha):
    """Decode test of one trial: relay i decodes when g_si[i] beats
    delta*(alpha*gamma_p*g_pi[i] + 1), alpha being 1.0 under H1 (primary
    active) and 0.0 under H0."""
    delta = params.delta
    return g_si > delta * (alpha * params.gamma_p * g_pi + 1.0)


def scalar_trial_outage(gen, params, scheme):
    """Outage of the next trial on `gen`, computed one trial at a time."""
    n = params.n_relays
    v = params.variances
    u = gen.random(3 * n + 3)
    alpha = 1.0 if u[0] < params.pi1 else 0.0
    g_pd = exponential_from_uniform(u[3 * n + 1], v.sigma2_pd)
    interference = alpha * params.gamma_p * g_pd + 1.0
    if scheme is Scheme.DIRECT:
        g_sd = exponential_from_uniform(u[3 * n + 2], v.sigma2_sd)
        return bool(g_sd < params.delta_direct * interference)
    g_si = exponential_from_uniform(u[1 : n + 1], np.asarray(v.sigma2_si))
    g_pi = exponential_from_uniform(u[n + 1 : 2 * n + 1], np.asarray(v.sigma2_pi))
    g_id = exponential_from_uniform(u[2 * n + 1 : 3 * n + 1], v.sigma2_d)
    forwarded = np.where(decoded_relays(params, g_si, g_pi, alpha), g_id, 0.0)
    if scheme is Scheme.MULTI_RELAY:
        combined = forwarded[0]
        for g in forwarded[1:]:
            combined += g
    else:
        combined = forwarded.max()
    return bool(combined < params.delta * interference)


# an accepted config whose multi and best parts sum to 1.000000000000002
ROUNDED_ABOVE_ONE = {
    "sensing_pairs": [[0.9, 0.0]], "relay_counts": [24], "rate": 1.0,
    "gamma_s_db": [-25.091885495573443], "gamma_p_db": 18.34048351784797,
    "sigma2_si": 526.383650889647, "sigma2_pi": 853.9112995698636, "sigma2_d": 0.012342138055357457,
    "sigma2_pd": 0.20285782656780957, "sigma2_sd": 101.26357392677589, "p0": 0.8,
}
