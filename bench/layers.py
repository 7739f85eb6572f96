"""Per-layer measurement: span tracing and in-process probes.

Tracing wraps the public names where the package looks them up at call time:

    cogrelay.cli        estimate_outage, outage_multi_relay, outage_best_relay,
                        outage_direct, validate_points
    cogrelay.analytic   p_below_h0/h1, p_sum_below_h0/h1, p_max_below_h0/h1,
                        reg_lower_gamma, scaled_upper_gamma_term
    cogrelay.model      posterior, snr_threshold

plus one ``cli.row`` span per grid point (see ``run.RowSink``).  A span keeps
its name, start, end and parent in flat arrays; a layer's self time is its
duration minus that of its direct children.  Pool workers are forked with the
wrappers installed but their spans stay in the worker and are discarded, so
the MC kernel's sub-layers (Philox uniforms, exponential transform, decode
mask and reduction) come from the in-process probes below instead.
``montecarlo.mask_reduce_ms-n6`` is derived as kernel - philox - expo; the
relay kernel transforms 3N+1 of the 3N+3 columns that the expo probe
transforms, so on a noisy host the difference can read below zero.

Span times are scaled to the reference speed like the end-to-end metrics,
which on analytic workloads means not at all; probe times are as measured.
"""

from __future__ import annotations

import statistics
import time
from array import array
from pathlib import Path

import numpy as np

# the self time of the cli.row spans -- time outside every wrapped layer:
# parameter building, CSV formatting and the loop itself -- must stay within
# this share of the traced wall time, so that the wrapped layers account for
# the rest (analytic-grid, with cheap points, has the largest share, ~0.15)
UNWRAPPED_LIMIT = 0.25

FIRST_HOP = ("p_below_h0", "p_below_h1")
TAILS = ("p_sum_below_h0", "p_sum_below_h1", "p_max_below_h0", "p_max_below_h1")
SPECFUN = ("reg_lower_gamma", "scaled_upper_gamma_term")
OUTAGE = ("outage_multi_relay", "outage_best_relay", "outage_direct")
PROBE_N = (6, 24)
TIME_UNITS = ("s", "ms", "us")


class Tracer:
    """In-memory span recorder; spans are written out by ``save``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched = []

    def open(self, name: str, at: float | None = None) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter() if at is None else at)
        return idx

    def close(self, idx: int, at: float | None = None) -> None:
        self.end[idx] = time.perf_counter() if at is None else at
        self._stack.pop()

    def wrap(self, module, attr: str, span: str, observe=None) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            idx = self.open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


class McCalls:
    """Counts requested trials and generated batches from estimate_outage's arguments."""

    def __init__(self, per_batch: int):
        self.per_batch = per_batch
        self.trials = 0
        self.batches = 0

    def __call__(self, params, scheme, trials, seed, workers=1):
        self.trials += trials
        self.batches += -(-trials // self.per_batch)


def install(tracer: Tracer, cli, mc_calls: McCalls) -> None:
    from cogrelay import analytic, model

    tracer.wrap(cli, "estimate_outage", "montecarlo.estimate_outage", observe=mc_calls)
    for name in OUTAGE:
        tracer.wrap(cli, name, f"analytic.{name}")
    tracer.wrap(cli, "validate_points", "cli.validate_points")
    for name in FIRST_HOP + TAILS:
        tracer.wrap(analytic, name, f"analytic.{name}")
    for name in SPECFUN:
        tracer.wrap(analytic, name, f"specfun.{name}")
    for name in ("posterior", "snr_threshold"):
        tracer.wrap(model, name, f"model.{name}")


# ---------------------------------------------------------------------------
# probes (untraced, in this process)


def _median_time(fn, reps: int, min_seconds: float = 0.0) -> float:
    fn()  # warm-up: first-touch allocation and lazy imports
    times = []
    spent = 0.0
    while len(times) < reps or spent < min_seconds:
        t = time.perf_counter()
        fn()
        dt = time.perf_counter() - t
        times.append(dt)
        spent += dt
    return statistics.median(times)


def _params(cli, cfg: dict, scheme: str, n: int, gamma_s_db: float):
    one = {**cfg, "schemes": [scheme], "relay_counts": [n], "gamma_s_db": [gamma_s_db],
           "sensing_pairs": cfg["sensing_pairs"][:1]}
    return cli.build_spec(one).base


def probes(cli, cfg: dict) -> dict[str, tuple[float, str]]:
    from cogrelay import montecarlo
    from cogrelay.model import Scheme

    base_cfg = {"sensing_pairs": [[0.9, 0.1]], "trials": 0}
    per_batch = montecarlo.TRIALS_PER_BATCH
    out = {}
    for n in PROBE_N:
        cols = 3 * n + 3
        out[f"montecarlo.bytes_per_batch-n{n}"] = (float(per_batch * cols * 8), "B")
        batch = iter(range(10**6))
        out[f"montecarlo.philox_ms-n{n}"] = (1e3 * _median_time(
            lambda: montecarlo.batch_generator(12345, next(batch)).random((per_batch, cols)), 21), "ms")
        u = montecarlo.batch_generator(12345, 0).random((per_batch, cols))
        out[f"montecarlo.expo_ms-n{n}"] = (
            1e3 * _median_time(lambda: montecarlo.exponential_from_uniform(u, 1.0), 21), "ms")
    kernels = [("multi", 6), ("best", 6), ("direct", 6), ("multi", 24)]
    for scheme, n in kernels:
        params = _params(cli, base_cfg, scheme, n, 20.0)
        seeds = iter(range(10**6))
        out[f"montecarlo.kernel_ms-{scheme}-n{n}"] = (1e3 * _median_time(
            lambda: montecarlo.outage_flags(params, Scheme(scheme), per_batch, next(seeds)), 21), "ms")
    out["montecarlo.mask_reduce_ms-n6"] = (
        out["montecarlo.kernel_ms-multi-n6"][0] - out["montecarlo.philox_ms-n6"][0]
        - out["montecarlo.expo_ms-n6"][0], "ms")

    params = _params(cli, base_cfg, "direct", 6, 20.0)
    pooled = _median_time(
        lambda: cli.estimate_outage(params, Scheme.DIRECT, 2 * per_batch, 1, workers=2), 7)
    inline = _median_time(
        lambda: cli.estimate_outage(params, Scheme.DIRECT, 2 * per_batch, 1, workers=1), 7)
    out["montecarlo.pool_overhead_ms"] = (1e3 * (pooled - inline), "ms")

    # the analytic point at the workload's largest N and middle SNR
    n = max(cfg["relay_counts"])
    g = statistics.median(cfg["gamma_s_db"])
    for scheme, fn_name in (("multi", "outage_multi_relay"), ("best", "outage_best_relay"),
                            ("direct", "outage_direct")):
        params = _params(cli, cfg, scheme, n, g)
        fn = getattr(cli, fn_name)
        out[f"analytic.point_us-{scheme}"] = (1e6 * _median_time(lambda: fn(params), 5, 0.2), "us")

    out["cli.build_spec_ms"] = (1e3 * _median_time(lambda: cli.build_spec(cfg), 25), "ms")
    return out


# ---------------------------------------------------------------------------
# the traced run


def _scaled(metrics: dict, speed: float) -> dict:
    return {k: (v * speed if unit in TIME_UNITS else v, unit) for k, (v, unit) in metrics.items()}


def traced_run(cli, wl, spec, workers: int, cfg: dict, harness, spans_path: Path):
    """Probes, one untraced and one traced repetition; `harness` is run.py,
    which owns repetitions."""
    from cogrelay import montecarlo

    metrics = probes(cli, cfg)
    plain = harness.run_rep(cli, wl, spec, workers)

    tracer = Tracer()
    mc_calls = McCalls(montecarlo.TRIALS_PER_BATCH)
    install(tracer, cli, mc_calls)
    try:
        traced = harness.run_rep(cli, wl, spec, workers, tracer=tracer)
    finally:
        tracer.unwrap()
    tracer.save(spans_path)
    spans = tracer.summary()

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    an = lambda names: [f"analytic.{n}" for n in names]  # noqa: E731
    est_s = total("montecarlo.estimate_outage")
    metrics.update(_scaled({
        "montecarlo.estimate_calls": (float(calls("montecarlo.estimate_outage")), "count"),
        "montecarlo.estimate_s": (est_s, "s"),
        "montecarlo.useful_trial_ratio": (
            mc_calls.trials / (mc_calls.batches * montecarlo.TRIALS_PER_BATCH)
            if mc_calls.batches else 0.0, "ratio"),
        "montecarlo.mtrials_per_s": (
            mc_calls.trials / (est_s * traced.speed) / 1e6 if est_s else 0.0, "Mtrials/s"),
        "analytic.first_hop_calls": (float(calls(*an(FIRST_HOP))), "count"),
        "analytic.first_hop_s": (total(*an(FIRST_HOP)), "s"),
        "analytic.tail_calls": (float(calls(*an(TAILS))), "count"),
        "analytic.tail_s": (total(*an(TAILS)), "s"),
        "analytic.weighting_s": (own(*an(OUTAGE)), "s"),
        "model.posterior.calls": (float(calls("model.posterior")), "count"),
        "model.snr_threshold.calls": (float(calls("model.snr_threshold")), "count"),
        "model.s": (total("model.posterior", "model.snr_threshold"), "s"),
        "cli.row_self_s": (own("cli.row"), "s"),
        "cli.csv_bytes": (float(len(traced.csv.encode())), "B"),
        **{f"specfun.{name}.calls": (float(calls(f"specfun.{name}")), "count") for name in SPECFUN},
        **{f"specfun.{name}.s": (total(f"specfun.{name}"), "s") for name in SPECFUN},
    }, traced.speed))
    metrics["trace.overhead_s"] = (traced.wall * traced.speed - plain.wall * plain.speed, "s")

    modules = {}
    for name, (_, _, self_s) in spans.items():
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + self_s
    unwrapped = own("cli.row") / traced.wall
    info = {
        "measured_untraced_wall_s": plain.wall,
        "measured_traced_wall_s": traced.wall,
        "speed_factors": {"untraced": plain.speed, "traced": traced.speed},
        "self_s_by_module": modules,
        "spans": len(tracer.start),
        "unwrapped_share": unwrapped,
        "unwrapped_limit": UNWRAPPED_LIMIT,
    }
    hard = {
        "traced_csv_matches_untraced": traced.csv == plain.csv,
        "wrapped_layers_cover_wall": unwrapped <= UNWRAPPED_LIMIT,
    }
    return [plain, traced], {"metrics": metrics, "info": info, "hard": hard}
