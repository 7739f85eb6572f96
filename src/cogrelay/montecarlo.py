"""Sample-path Monte Carlo estimator for the outage probabilities.

Every trial is conditioned on the sensor having declared a hole: the true
hypothesis is drawn from the sensing posterior (rejection sampling would
waste the complementary fraction of draws), then one squared-magnitude fading
gain per link.  Complex coefficients, symbols and noise never materialize;
the decode, sum and max tests depend on gains only.

Each trial consumes one row of 3N+3 uniforms: the hypothesis, then the N
source->relay, N primary->relay and N relay->destination gains, then the
primary->destination and source->destination gains.  The multi-relay
test adds a trial's forwarded gains in relay index order, g_1 + g_2 + ...
+ g_N, left to right; that order fixes the sum's bits, and with them the
flags, on any numpy release.

Reproducibility contract: trial t consumes row t % TRIALS_PER_BATCH of a
uniform matrix generated by a counter-based Philox stream keyed with
(seed, t // TRIALS_PER_BATCH).  The kernel draws that matrix in blocks of
BLOCK_ROWS consecutive rows, one block after another from the same stream,
so every row holds exactly the uniforms a single whole-matrix draw would.
Batch boundaries are fixed regardless of the requested trial count, and a
batch draws only the rows of the trials it serves: the stream fills rows in
order, so a shorter draw is an exact prefix of a longer one.  Estimates are
therefore bit-identical for any worker count, and any longer run reproduces
a shorter run's trials exactly as its prefix.

Schemes share sample paths: at equal (params, seed) every scheme reads the
same rows.  So do points of different gamma_s, rate or sensing pair at the
same N, variances and gamma_p: the uniforms depend on the seed, the batch
and the row width 3N+3 only, and the gains on the variances, so such
points share every uniform and gain (common random numbers).  They differ
only in their thresholds delta and delta_direct and in which rows are H1:
a row is H1 when its hypothesis uniform is below the posterior pi1, so the
H1 rows of a smaller pi1 are a subset of those of a larger one.  The
kernel therefore draws and transforms each block once and emits flags for
every requested point and scheme from that one draw.  ``estimate_outage``
takes any tuple of points, groups them by (variances, gamma_p) into draw
groups, and runs one pass over the batches per group; a point's flags for
a scheme do not depend on which other points or schemes were requested
with it.

Along a line (the points of one posterior), outage only shrinks as gamma_s
grows, trial by trial and in floating point, not just in probability: the
threshold delta falls, and every rounded step of the relay tests (the
products delta*s, the forwarded gains g or +0.0, their sum in relay order
or exact max) is monotone in delta.  So the kernel runs each block's relay
tests of a line from the largest delta down and stops at the first point
where no trial of the block is in relay outage; the points above it keep
"no outage" for that block, which is what testing them would give (see
``_batch_outage_flags``).

Worker pool: with workers > 1, ``estimate_outage`` starts a process pool of
at most `workers` processes (no more than it has batches), hands it the
batches of every draw group in one map, and shuts it down, cancelling what is
still queued, before it returns, raises or is interrupted.  The map takes
the batches heaviest first, by rows times row width 3N+3, so the widest
group's batches do not form its tail; each batch's counts are put back in
input order.  ``numpy.random`` is imported with this module, so the forked
workers inherit it instead of importing it again in every call.  No worker
outlives the call, and calls share no pool or other module state.  The
worker count is capped at MAX_WORKERS, checked before any pool starts; it
lives in ``model``, so the CLI checks it without importing numpy.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .model import MAX_WORKERS, Scheme, SystemParams

__all__ = [
    "MAX_WORKERS",
    "TRIALS_PER_BATCH",
    "OutageEstimate",
    "estimate_outage",
]

TRIALS_PER_BATCH = 16384

# Rows per kernel block.  Small blocks keep each block's temporaries
# (2048 x (3N+3) float64, 0.34 MB at N=6) from churning the allocator of a
# long-lived pool worker.  On the validate-acceptance benchmark (seed 1,
# 10 alternating pairs against 2048 rows on 2 cores), wall_s read 0.547 s
# at 1024 rows against 0.470 s (1024 faster in 1 of 10 pairs) and 0.505 s
# at 4096 against 0.528 s (4096 faster in 8 of 10); 4096 also raised
# peak_rss_mb by 3.0% (103.7 -> 106.8 MB), more than its 4% saving is worth.
BLOCK_ROWS = 2048

_SEED_MASK = (1 << 64) - 1

# Above every unit-mean gain -log1p(-u): each double u below 1 is at most
# 1 - 2^-53, so -log1p(-u) <= 53*ln 2 = 36.74.
_UNIT_GAIN_BOUND = 37.0


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo point estimate with its binomial standard error."""

    p_hat: float
    trials: int
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.p_hat <= 1.0):
            raise ValueError(f"p_hat out of [0,1]: {self.p_hat}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")

    @property
    def stderr(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.trials)

    @classmethod
    def from_count(cls, count: int, trials: int, seed: int) -> "OutageEstimate":
        return cls(p_hat=count / trials, trials=trials, seed=seed)


def exponential_from_uniform(u, mean, out=None):
    """Inverse-CDF map: u in [0,1) -> -mean*ln(1-u).  Elementwise on arrays.

    With `out` (which may be `u` itself) the result is written there, with
    the same bits as the default path.
    """
    x = np.log1p(np.negative(u, out=out), out=out)
    return np.multiply(-mean, x, out=out)


def batch_generator(seed: int, batch_index: int) -> Generator:
    """Counter-based stream for one batch: Philox keyed with (seed, batch)."""
    return Generator(Philox(key=(seed & _SEED_MASK, batch_index)))


def _column_sum(cols: np.ndarray) -> np.ndarray:
    """Row sums of the matrix whose columns are `cols` (shape (N, rows)),
    added relay by relay in index order: ((c0 + c1) + c2) + ..."""
    total = cols[0].copy()
    for col in cols[1:]:
        total += col
    return total


# At the edges of the accepted range the float limits give the intended
# flags, so numpy's warnings about them are silenced.  A gain or an
# interference factor gamma_p*g + 1 whose exact value passes the float range
# overflows to inf, which compares with every finite value as the exact value
# does.  A zero threshold times an infinite factor is NaN, and a comparison
# with NaN is False: no outage, as at delta = 0 no gain is below the threshold.
@np.errstate(over="ignore", invalid="ignore")
def _batch_outage_flags(
    points: tuple[SystemParams, ...],
    schemes: tuple[Scheme, ...],
    seed: int,
    batch_index: int,
    rows: int = TRIALS_PER_BATCH,
) -> np.ndarray:
    """Outage flags for the first `rows` trials of one batch: flags[p, s]
    holds point p's flags for scheme s, in the orders given.

    The points share N, the variances and gamma_p (``estimate_outage``
    groups them so), so they read the same uniforms and gains; they differ
    only in their thresholds and their posterior pi1.

    Column r holds trial batch_index*TRIALS_PER_BATCH + r.  The uniform
    matrix is drawn BLOCK_ROWS rows at a time from the batch's one stream,
    and only its first `rows` rows are drawn.  The stream fills rows in
    order, so each row holds the same uniforms whatever `rows` is, and the
    flags are exactly the first `rows` columns of the full batch's flags.
    Each block's gains and interference factors are computed once and shared
    by every point; each point's decode mask and forwarded gains are shared
    by every scheme.  A point's flags for a scheme are exactly those of a
    call asking for that point and scheme alone.

    The primary's gains (g_pi, g_pd) are transformed on H1 rows only: on H0
    rows alpha*gamma_p*g is exactly 0.0, so the decode threshold is delta
    and the interference factor 1.0, bit for bit.  A trial is H1 when its
    first uniform is below pi1, so the H1 rows of a smaller pi1 are a subset
    of those of a larger one: the gains are transformed once, over the H1
    rows of the largest pi1, and each posterior takes its own rows from
    them.  Every value is the same elementwise operation on the same
    uniform, so it has the bits a transform over its own rows gives.

    The relay gains are held relay-major: each block's g_si and g_id
    columns are copied once into contiguous (N, rows) arrays and
    transformed in place, so the per-point decode, mask product, sum and
    max run on contiguous rows, one relay at a time.  The forwarded gains
    are the gain where the relay decoded and +0.0 where it did not, the
    bits np.where(decoded, g_id, 0.0) gives.  A gain -mean*log1p(-u) with u
    in [0, 1) is never -0.0, and it is finite wherever
    _UNIT_GAIN_BOUND*mean is.  There the cheaper mask product
    g_id * decoded has the same bits.  A
    larger relay->destination mean can overflow a gain to inf, and
    inf * False is NaN, which no comparison flags as an outage, so there
    the kernel takes np.where.  The multi-relay sum
    adds the relays one at a time in index order (``_column_sum``), so each
    trial's sum, and with it each flag, has the bits of the left-to-right
    sum g_1 + g_2 + ... + g_N of its forwarded gains; the max is exact in
    any order.

    Early stop: the relay tests visit the points of each posterior from the
    largest delta (the lowest gamma_s) down, and stop after the first point
    at which no trial of the block is in outage for any requested relay
    scheme; that posterior's remaining points keep the zero-initialised
    False.  This cannot change a flag, because every step is monotone in
    delta under IEEE rounding: fl(delta*s) never decreases as delta grows,
    so a smaller delta decodes a superset of relays; each forwarded gain is
    g or +0.0, so none decreases; a fixed-order float sum of non-negative
    terms is monotone in each term and the max is exact, so the combined
    gain does not decrease; and the limit fl(delta*I) does not increase.
    So a trial in relay outage at a smaller delta is in outage at every
    larger one, and a block with none at some delta has none below it.
    Direct flags are computed for every point.
    """
    first = points[0]
    # each posterior's points, from the largest delta down
    lines: dict[float, list[int]] = {}
    for i in sorted(range(len(points)), key=lambda i: points[i].delta, reverse=True):
        lines.setdefault(points[i].pi1, []).append(i)
    pi1_max = max(lines)
    n = first.n_relays
    v = first.variances
    gamma_p = first.gamma_p
    sigma2_si = np.asarray(v.sigma2_si)[:, None]
    sigma2_pi = np.asarray(v.sigma2_pi)[:, None]
    # every relay->destination gain is finite (see above)
    finite_g_id = math.isfinite(_UNIT_GAIN_BOUND * v.sigma2_d)
    direct = schemes.index(Scheme.DIRECT) if Scheme.DIRECT in schemes else None
    relay_schemes = [(k, s) for k, s in enumerate(schemes) if s is not Scheme.DIRECT]
    gen = batch_generator(seed, batch_index)
    flags = np.zeros((len(points), len(schemes), rows), dtype=bool)
    for start in range(0, rows, BLOCK_ROWS):
        u = gen.random((min(BLOCK_ROWS, rows - start), 3 * n + 3))
        block = slice(start, start + len(u))
        # the H1 rows of the largest pi1 and their hypothesis uniforms
        h1_all = np.flatnonzero(u[:, 0] < pi1_max)
        u_h1 = u[h1_all, 0]
        g_pd = exponential_from_uniform(u[h1_all, 3 * n + 1], v.sigma2_pd)
        interference_h1 = gamma_p * g_pd + 1.0
        if direct is not None:
            g_sd = exponential_from_uniform(u[:, 3 * n + 2], v.sigma2_sd)
        if relay_schemes:
            # relay-major: row i holds relay i's gains over the block's trials
            g_si = np.ascontiguousarray(u[:, 1 : n + 1].T)
            exponential_from_uniform(g_si, sigma2_si, out=g_si)
            g_id = np.ascontiguousarray(u[:, 2 * n + 1 : 3 * n + 1].T)
            exponential_from_uniform(g_id, v.sigma2_d, out=g_id)
            g_pi = u[:, n + 1 : 2 * n + 1].T[:, h1_all]
            exponential_from_uniform(g_pi, sigma2_pi, out=g_pi)
            interference_pi_h1 = gamma_p * g_pi + 1.0
        for pi1, line in lines.items():
            # this posterior's H1 rows, as a mask over h1_all
            in_h1 = u_h1 < pi1
            h1 = h1_all[in_h1]
            interference = np.ones(len(u))
            interference[h1] = interference_h1[in_h1]
            if direct is not None:
                for i in line:
                    out = flags[i, direct, block]
                    np.less(g_sd, points[i].delta_direct * interference, out=out)
            if not relay_schemes:
                continue
            g_si_h1 = g_si[:, h1]
            interference_pi = interference_pi_h1[:, in_h1]
            for i in line:
                delta = points[i].delta
                decoded = g_si > delta
                decoded[:, h1] = g_si_h1 > delta * interference_pi
                # the gain where the relay decoded, +0.0 where it did not
                forwarded = g_id * decoded if finite_g_id else np.where(decoded, g_id, 0.0)
                relay_limit = delta * interference
                for k, scheme in relay_schemes:
                    if scheme is Scheme.MULTI_RELAY:
                        combined = _column_sum(forwarded)
                    else:
                        combined = np.maximum.reduce(forwarded, axis=0)
                    np.less(combined, relay_limit, out=flags[i, k, block])
                # no relay outage at this delta means none at any smaller one
                if not any(flags[i, k, block].any() for k, _ in relay_schemes):
                    break
    return flags


def _batch_outage_count(task) -> np.ndarray:
    points, schemes, seed, batch_index, limit = task
    return _batch_outage_flags(points, schemes, seed, batch_index, rows=limit).sum(axis=2)


def _batch_tasks(
    points: tuple[SystemParams, ...], schemes: tuple[Scheme, ...], trials: int, seed: int
):
    n_batches = -(-trials // TRIALS_PER_BATCH)
    for b in range(n_batches):
        limit = min(TRIALS_PER_BATCH, trials - b * TRIALS_PER_BATCH)
        yield (points, schemes, seed, b, limit)


def _integer(name: str, value) -> int:
    """`value` as an int; a bool or a non-integer raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _request(params, scheme, trials, seed):
    """(points, schemes, trials, seed) as both entry points check them, with
    `params` and `scheme` as tuples and the seed masked to 64 bits; a bad
    argument raises ValueError."""
    points = params if isinstance(params, tuple) else (params,)
    if not points:
        raise ValueError("params tuple must not be empty")
    for p in points:
        if not isinstance(p, SystemParams):
            raise ValueError(f"params must be SystemParams, got {p!r}")
    schemes = scheme if isinstance(scheme, tuple) else (scheme,)
    if not schemes:
        raise ValueError("scheme tuple must not be empty")
    for s in schemes:
        if not isinstance(s, Scheme):
            raise ValueError(f"schemes must be Scheme members, got {s!r}")
    if len(set(schemes)) != len(schemes):
        raise ValueError(f"scheme tuple repeats a scheme: {schemes}")
    trials = _integer("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return points, schemes, trials, _integer("seed", seed) & _SEED_MASK


def outage_flags(
    params: SystemParams, scheme: Scheme, trials: int, seed: int
) -> np.ndarray:
    """Per-trial outage booleans, trial t at index t.

    Schemes share sample paths at equal (params, seed): comparing the arrays
    of two schemes compares them trial by trial on identical fading draws.
    `params` must be one SystemParams and `scheme` one Scheme member, not a
    tuple; `trials` and `seed` must be integers (not bools), `trials` >= 1.
    """
    if isinstance(params, tuple) or isinstance(scheme, tuple):
        raise ValueError("outage_flags takes one SystemParams and one Scheme, not tuples")
    request = _request(params, scheme, trials, seed)
    return np.concatenate([_batch_outage_flags(*task)[0, 0] for task in _batch_tasks(*request)])


def _task_weight(task) -> int:
    """A batch task's uniforms: its rows times the row width 3N+3."""
    points, _, _, _, rows = task
    return rows * (3 * points[0].n_relays + 3)


def _pooled_counts(tasks: list, workers: int) -> list[np.ndarray]:
    """Every task's counts, in order, from a pool that lives only in this call.

    The pool takes the tasks heaviest first, so the widest groups' batches do
    not form the tail of the map; each task's counts go back to its slot."""
    order = sorted(range(len(tasks)), key=lambda i: _task_weight(tasks[i]), reverse=True)
    chunk = max(1, len(tasks) // (4 * workers))
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        counts = [None] * len(tasks)
        results = pool.map(_batch_outage_count, [tasks[i] for i in order], chunksize=chunk)
        for i, count in zip(order, results):
            counts[i] = count
        return counts
    finally:
        # a failed or interrupted map may leave tasks queued: drop them, and
        # wait until every worker has exited
        pool.shutdown(wait=True, cancel_futures=True)


def estimate_outage(
    params: SystemParams | tuple[SystemParams, ...],
    scheme: Scheme | tuple[Scheme, ...],
    trials: int,
    seed: int,
    workers: int = 1,
) -> OutageEstimate | tuple:
    """Estimate the outage probability from `trials` independent trials.

    `scheme` is one Scheme, which gives one OutageEstimate, or a tuple of
    distinct schemes, which gives one estimate per scheme in the same order.
    `params` is one SystemParams, or a tuple of points, which returns one
    entry per point in the same order; points may repeat.  Points with the
    same variances and gamma_p (so the same N) form one draw group,
    whatever their gamma_s, rate and sensing pair: they read the same
    trials, so the call serves each group from one pass over its batches,
    one draw and one transform of each block.  Each entry equals what a
    call with that point alone returns, and each estimate what a call for
    that scheme alone returns.

    With workers > 1, the batches of every group go to one process pool that
    the call starts and shuts down (see the module docstring); per-batch
    outage counts are integers, so the total is exactly the same whatever
    the worker count or scheduling order.  `trials`, `seed` and `workers`
    must be integers (not bools), `trials` >= 1 and `workers` in
    [1, MAX_WORKERS]; a bad value, or a tuple of points that is empty or
    holds anything but SystemParams, raises ValueError before any pool
    starts.
    """
    points, schemes, trials, seed = _request(params, scheme, trials, seed)
    workers = _integer("workers", workers)
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    # the indices of each draw group's points, keyed by what the uniforms
    # and gains depend on (the variances fix N)
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault((p.variances, p.gamma_p), []).append(i)
    tasks = [
        task
        for group in groups.values()
        for task in _batch_tasks(tuple(points[i] for i in group), schemes, trials, seed)
    ]
    workers = min(workers, len(tasks))
    if workers == 1:
        counts = [_batch_outage_count(t) for t in tasks]
    else:
        counts = _pooled_counts(tasks, workers)
    # the tasks come group by group, the same number of batches for each
    batches = len(tasks) // len(groups)
    estimates = [None] * len(points)
    for k, group in enumerate(groups.values()):
        totals = np.sum(counts[k * batches : (k + 1) * batches], axis=0)
        for i, per_scheme in zip(group, totals):
            estimates[i] = tuple(OutageEstimate.from_count(int(c), trials, seed) for c in per_scheme)
    if not isinstance(scheme, tuple):
        estimates = [per_scheme[0] for per_scheme in estimates]
    return tuple(estimates) if isinstance(params, tuple) else estimates[0]
