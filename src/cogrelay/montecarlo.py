"""Sample-path Monte Carlo estimator for the outage probabilities.

Every trial is conditioned on the sensor having declared a hole: the true
hypothesis is drawn from the sensing posterior (rejection sampling would
waste the complementary fraction of draws), then one squared-magnitude fading
gain per link.  Complex coefficients, symbols and noise never materialize;
the decode tests and combiner SINR depend on gains only.

Reproducibility contract: trial t consumes row t % TRIALS_PER_BATCH of a
uniform matrix generated by a counter-based Philox stream keyed with
(seed, t // TRIALS_PER_BATCH).  The kernel draws that matrix in blocks of
BLOCK_ROWS consecutive rows, one block after another from the same stream,
so every row holds exactly the uniforms a single whole-matrix draw would.
Batches are fixed-size regardless of the requested trial count, so
estimates are bit-identical for any worker count and any longer run
reproduces a shorter run's trials exactly as its prefix.

Schemes share sample paths: at equal (params, seed) every scheme reads the
same rows.  The kernel therefore draws and transforms each block once and
emits flags for every requested scheme from that one draw;
``estimate_outage`` with a tuple of schemes returns one estimate per scheme
from one pass over the batches.  A scheme's flags do not depend on which
other schemes were requested with it.

Worker pool: ``estimate_outage`` with workers > 1 hands batches to one
process pool, started at the first pooled batch and reused by every later
call with the same worker count (another count replaces it).  The pool
outlives the call; ``shutdown_pool`` stops it and reaps its processes.  The
CLI calls it when a sweep or a simulate run ends, so no worker outlives one.
The worker count is capped at MAX_WORKERS, checked before any pool exists.
The pool is module state, so pooled calls must come from one thread at a
time.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import DecodingSet
from .model import Hypothesis, Posterior, Scheme, SnrThreshold, SystemParams

__all__ = [
    "MAX_WORKERS",
    "TRIALS_PER_BATCH",
    "ChannelState",
    "MrcResult",
    "OutageEstimate",
    "decoding_set",
    "estimate_outage",
    "exponential_from_uniform",
    "mrc_combine",
    "outage_flags",
    "sample_channel_state",
    "sample_exponential",
    "sample_hypothesis",
    "shutdown_pool",
    "trial_outage",
]

TRIALS_PER_BATCH = 16384

# Rows per kernel block.  Small blocks keep each block's temporaries
# (2048 x (3N+3) float64, 0.34 MB at N=6) from churning the allocator of a
# long-lived pool worker.  On the validate-acceptance benchmark, 512 and
# 4096 rows measured slower and 1024 about the same.
BLOCK_ROWS = 2048

# Upper bound on pool processes; a larger request is refused before any
# process starts.
MAX_WORKERS = 64

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class ChannelState:
    """One sample path: squared fading magnitudes for every link.

    g_si, g_pi, g_id are per-relay vectors (source->relay, primary->relay,
    relay->destination); g_pd and g_sd are the primary->destination and
    source->destination scalars.
    """

    g_si: np.ndarray
    g_pi: np.ndarray
    g_id: np.ndarray
    g_pd: float
    g_sd: float

    def __post_init__(self):
        for name in ("g_si", "g_pi", "g_id"):
            vec = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, vec)
            if vec.ndim != 1 or np.any(vec < 0.0):
                raise ValueError(f"{name} must be a 1-D nonnegative vector")
        if len({self.g_si.size, self.g_pi.size, self.g_id.size}) != 1:
            raise ValueError("per-relay gain vectors must share one length")
        if self.g_pd < 0.0 or self.g_sd < 0.0:
            raise ValueError("scalar gains must be >= 0")


@dataclass(frozen=True)
class MrcResult:
    """Optimal coherent combiner over the decoding set and its output SINR.

    The SINR-maximizing unit-norm weights are proportional to the conjugate
    channel; at the gain level that is sqrt of each member gain, normalized.
    """

    weights: np.ndarray
    sinr: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if abs(float(np.linalg.norm(w)) - 1.0) > 1e-12:
            raise ValueError(f"combiner weights must have unit norm, got {w}")
        if self.sinr < 0.0:
            raise ValueError(f"sinr must be >= 0, got {self.sinr}")


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo point estimate with its binomial standard error."""

    p_hat: float
    stderr: float
    trials: int
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.p_hat <= 1.0):
            raise ValueError(f"p_hat out of [0,1]: {self.p_hat}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        expected = math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.trials)
        if abs(self.stderr - expected) > 1e-15:
            raise ValueError(f"stderr inconsistent with p_hat and trials: {self}")

    @classmethod
    def from_count(cls, count: int, trials: int, seed: int) -> "OutageEstimate":
        p = count / trials
        return cls(
            p_hat=p,
            stderr=math.sqrt(p * (1.0 - p) / trials),
            trials=trials,
            seed=seed,
        )


def exponential_from_uniform(u, mean):
    """Inverse-CDF map: u in [0,1) -> -mean*ln(1-u).  Elementwise on arrays."""
    return -mean * np.log1p(-u)


def sample_exponential(stream: np.random.Generator, mean: float, size=None):
    """Draw exponential gains of the given mean from the stream."""
    if not (mean > 0.0):
        raise ValueError(f"mean must be > 0, got {mean}")
    return exponential_from_uniform(stream.random(size), mean)


def sample_hypothesis(stream: np.random.Generator, post: Posterior) -> Hypothesis:
    """Draw the true spectrum state conditioned on a declared hole."""
    return Hypothesis.H1 if stream.random() < post.pi1 else Hypothesis.H0


def sample_channel_state(stream: np.random.Generator, params: SystemParams) -> ChannelState:
    """Draw one full sample path, in the fixed per-trial layout.

    Consumption order (one uniform each): source->relay gains, then
    primary->relay, then relay->destination, then the primary->destination
    and source->destination scalars.  The vectorized batch path consumes the
    same columns, which is what makes the scalar path its exact reference.
    """
    n = params.n_relays
    v = params.variances
    u = stream.random(3 * n + 2)
    return ChannelState(
        g_si=exponential_from_uniform(u[0:n], np.asarray(v.sigma2_si)),
        g_pi=exponential_from_uniform(u[n : 2 * n], np.asarray(v.sigma2_pi)),
        g_id=exponential_from_uniform(u[2 * n : 3 * n], v.sigma2_d),
        g_pd=float(exponential_from_uniform(u[3 * n], v.sigma2_pd)),
        g_sd=float(exponential_from_uniform(u[3 * n + 1], v.sigma2_sd)),
    )


def decoding_set(
    state: ChannelState,
    hyp: Hypothesis,
    thr: SnrThreshold,
    params: SystemParams,
) -> DecodingSet:
    """Relays whose first-hop capacity beats the rate: gain above the
    interference-inflated threshold delta*(gamma_p*primary gain + 1), with
    the interference active only under H1."""
    alpha = 1.0 if hyp.interference_on else 0.0
    decoded = state.g_si > thr.delta * (alpha * params.gamma_p * state.g_pi + 1.0)
    mask = 0
    for i, bit in enumerate(decoded):
        if bit:
            mask |= 1 << i
    return DecodingSet(mask=mask, n_relays=params.n_relays)


def mrc_combine(
    state: ChannelState,
    dset: DecodingSet,
    hyp: Hypothesis,
    params: SystemParams,
) -> MrcResult:
    """Coherently combine the decoding set's relay->destination branches.

    Optimal unit-norm weights (Cauchy-Schwarz) align with the channel, and
    the resulting SINR is gamma_s * (sum of member gains) divided by the
    interference-plus-noise level.  Callers must treat an empty decoding set
    as outage; combining nothing is a contract violation.
    """
    if dset.is_empty:
        raise ValueError("cannot combine an empty decoding set")
    members = list(dset.relays())
    gains = state.g_id[members]
    amplitudes = np.sqrt(gains)
    norm = float(np.linalg.norm(amplitudes))
    if norm > 0.0:
        weights = amplitudes / norm
    else:
        # all member gains exactly zero (measure-zero path): any unit vector
        weights = np.full(len(members), 1.0 / math.sqrt(len(members)))
    alpha = 1.0 if hyp.interference_on else 0.0
    sinr = params.gamma_s * float(gains.sum()) / (alpha * params.gamma_p * state.g_pd + 1.0)
    return MrcResult(weights=weights, sinr=sinr)


def _path_outage(
    state: ChannelState,
    hyp: Hypothesis,
    thr: SnrThreshold,
    params: SystemParams,
    scheme: Scheme,
) -> bool:
    # Decode tests are done on the gain scale; combined < delta*(...) is the
    # capacity-below-rate test with the log and the SNR scaling divided out.
    # Expressions mirror the batch kernel exactly so both paths agree bitwise.
    alpha = 1.0 if hyp.interference_on else 0.0
    interference = alpha * params.gamma_p * state.g_pd + 1.0
    if scheme is Scheme.DIRECT:
        return bool(state.g_sd < thr.delta_direct * interference)
    dset = decoding_set(state, hyp, thr, params)
    if dset.is_empty:
        return True
    member = np.zeros(params.n_relays, dtype=bool)
    member[list(dset.relays())] = True
    forwarded = np.where(member, state.g_id, 0.0)
    combined = forwarded.sum() if scheme is Scheme.MULTI_RELAY else forwarded.max()
    return bool(combined < thr.delta * interference)


def trial_outage(stream: np.random.Generator, params: SystemParams, scheme: Scheme) -> bool:
    """Run one conditioned trial: draw the hypothesis, draw all gains, test."""
    post = params.posterior()
    thr = params.snr_threshold()
    hyp = sample_hypothesis(stream, post)
    state = sample_channel_state(stream, params)
    return _path_outage(state, hyp, thr, params, scheme)


def batch_generator(seed: int, batch_index: int) -> np.random.Generator:
    """Counter-based stream for one batch: Philox keyed with (seed, batch)."""
    return np.random.Generator(np.random.Philox(key=(seed & _SEED_MASK, batch_index)))


def _batch_outage_flags(
    params: SystemParams, schemes: tuple[Scheme, ...], seed: int, batch_index: int
) -> np.ndarray:
    """Outage flags for one full batch of TRIALS_PER_BATCH trials, one row
    per requested scheme, in the order given.

    Column r holds trial batch_index*TRIALS_PER_BATCH + r.  The uniform
    matrix is drawn BLOCK_ROWS rows at a time from the batch's one stream,
    and every row is always drawn, whatever the schemes or how many trials
    the caller actually needs, so trial outcomes never depend on context.
    Each block's gains, decode mask and forwarded gains are computed once
    and shared by every scheme, whose flags are exactly those of a call
    asking for that scheme alone.
    """
    post = params.posterior()
    thr = params.snr_threshold()
    n = params.n_relays
    v = params.variances
    sigma2_si = np.asarray(v.sigma2_si)
    sigma2_pi = np.asarray(v.sigma2_pi)
    relayed = any(s is not Scheme.DIRECT for s in schemes)
    gen = batch_generator(seed, batch_index)
    flags = np.empty((len(schemes), TRIALS_PER_BATCH), dtype=bool)
    for start in range(0, TRIALS_PER_BATCH, BLOCK_ROWS):
        u = gen.random((BLOCK_ROWS, 3 * n + 3))
        alpha = (u[:, 0] < post.pi1).astype(np.float64)
        g_pd = exponential_from_uniform(u[:, 3 * n + 1], v.sigma2_pd)
        interference = alpha * params.gamma_p * g_pd + 1.0
        if relayed:
            g_si = exponential_from_uniform(u[:, 1 : n + 1], sigma2_si)
            g_pi = exponential_from_uniform(u[:, n + 1 : 2 * n + 1], sigma2_pi)
            g_id = exponential_from_uniform(u[:, 2 * n + 1 : 3 * n + 1], v.sigma2_d)
            decoded = g_si > thr.delta * (alpha[:, None] * params.gamma_p * g_pi + 1.0)
            forwarded = np.where(decoded, g_id, 0.0)
        for out, scheme in zip(flags[:, start : start + BLOCK_ROWS], schemes):
            if scheme is Scheme.DIRECT:
                g_sd = exponential_from_uniform(u[:, 3 * n + 2], v.sigma2_sd)
                np.less(g_sd, thr.delta_direct * interference, out=out)
            elif scheme is Scheme.MULTI_RELAY:
                np.less(forwarded.sum(axis=1), thr.delta * interference, out=out)
            else:
                np.less(forwarded.max(axis=1), thr.delta * interference, out=out)
    return flags


def _batch_outage_count(task) -> tuple[int, ...]:
    params, schemes, seed, batch_index, limit = task
    flags = _batch_outage_flags(params, schemes, seed, batch_index)
    return tuple(int(c) for c in flags[:, :limit].sum(axis=1))


def _batch_tasks(params: SystemParams, schemes: tuple[Scheme, ...], trials: int, seed: int):
    n_batches = -(-trials // TRIALS_PER_BATCH)
    for b in range(n_batches):
        limit = min(TRIALS_PER_BATCH, trials - b * TRIALS_PER_BATCH)
        yield (params, schemes, seed, b, limit)


def outage_flags(
    params: SystemParams, scheme: Scheme, trials: int, seed: int
) -> np.ndarray:
    """Per-trial outage booleans, trial t at index t.

    Schemes share sample paths at equal (params, seed): comparing the arrays
    of two schemes compares them trial by trial on identical fading draws.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    out = np.empty(trials, dtype=bool)
    for _, _, _, b, limit in _batch_tasks(params, (scheme,), trials, seed):
        flags = _batch_outage_flags(params, (scheme,), seed, b)
        start = b * TRIALS_PER_BATCH
        out[start : start + limit] = flags[0, :limit]
    return out


# The pool that estimate_outage reuses across calls, and its worker count;
# started at the first pooled batch, ended by shutdown_pool.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def shutdown_pool() -> None:
    """Stop the worker pool kept by ``estimate_outage`` and reap its
    processes; the next pooled call starts a new one.  No-op without a pool."""
    global _pool, _pool_workers
    pool, _pool, _pool_workers = _pool, None, 0
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def _pooled_counts(tasks: list, workers: int) -> list[tuple[int, ...]]:
    global _pool, _pool_workers
    if workers != _pool_workers:
        shutdown_pool()
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    chunk = max(1, len(tasks) // (4 * workers))
    try:
        return list(_pool.map(_batch_outage_count, tasks, chunksize=chunk))
    except BaseException:
        # a failed or interrupted map may leave tasks queued or a worker
        # dead; drop the pool rather than hand it to the next call
        shutdown_pool()
        raise


def _requested_schemes(scheme) -> tuple[Scheme, ...]:
    schemes = scheme if isinstance(scheme, tuple) else (scheme,)
    if not schemes:
        raise ValueError("scheme tuple must not be empty")
    for s in schemes:
        if not isinstance(s, Scheme):
            raise ValueError(f"schemes must be Scheme members, got {s!r}")
    if len(set(schemes)) != len(schemes):
        raise ValueError(f"scheme tuple repeats a scheme: {schemes}")
    return schemes


def estimate_outage(
    params: SystemParams,
    scheme: Scheme | tuple[Scheme, ...],
    trials: int,
    seed: int,
    workers: int = 1,
) -> OutageEstimate | tuple[OutageEstimate, ...]:
    """Estimate the outage probability from `trials` independent trials.

    `scheme` is one Scheme, which returns one OutageEstimate, or a tuple of
    distinct schemes, which returns one estimate per scheme in the same
    order.  Every scheme's flags come from the same draw of each batch, and
    each estimate equals the one a call for that scheme alone returns.

    With workers > 1, batches are distributed across the shared pool of
    `workers` processes (see the module docstring for its lifetime);
    per-batch outage counts are integers, so the total is exactly the same
    whatever the worker count or scheduling order.  `workers` must lie in
    [1, MAX_WORKERS].
    """
    schemes = _requested_schemes(scheme)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    seed = seed & _SEED_MASK
    tasks = list(_batch_tasks(params, schemes, trials, seed))
    if workers == 1 or len(tasks) == 1:
        counts = [_batch_outage_count(t) for t in tasks]
    else:
        counts = _pooled_counts(tasks, workers)
    estimates = tuple(
        OutageEstimate.from_count(sum(per_scheme), trials, seed) for per_scheme in zip(*counts)
    )
    return estimates if isinstance(scheme, tuple) else estimates[0]
