#!/usr/bin/env python3
"""cogrelay benchmark: four workloads driven through the package's public API.

Run from the repository root:

    python3 bench/run.py --workload validate-acceptance --seed 1 --seconds 25 --trace 0

The program under test is imported from ``src/`` next to this directory; the
run exits with code 2 before measuring anything when that source tree is
missing.  The caller is a single closed loop: the next grid point starts only
after the previous one completed.  Monte Carlo (MC) workloads use two pool
workers and no other threads.

``--trace 0`` repeats the workload for about ``--seconds`` seconds (at least
the workload's minimum repetitions) and reports the end-to-end metrics:

    wall_s       wall time of one whole workload, median over repetitions
    setup_s      fresh interpreter: import cogrelay, cli.build_spec, up to the
                 start of the first grid point; median of several interpreters
    row_p50_ms   gap between consecutive completed grid points as the caller
                 sees them, pooled over repetitions
    row_tail_ms  the same gaps at the highest percentile of PERCENTILE_LADDER
                 that keeps at least 10 rows beyond it for the guaranteed row
                 count (min_reps x grid points)
    peak_rss_mb  peak resident memory of this process plus, for MC workloads,
                 the workers times the peak of the largest pool worker

On MC workloads, which start a process pool for every grid point, times are
scaled to a reference machine speed.  On the shared host the cost of
starting processes drifts by up to 60% between sets of runs made minutes
apart (sweep-short, unscaled), while the analytic workloads and set-up time
drifted by at most about 15%.  So for MC workloads the run asks a separate
host-speed interpreter (``hostspeed.py``, see ``calibrate``) to time a fixed
pure-Python loop plus a round trip through a fresh two-process pool, before
and after every repetition and between rows at least CAL_INTERVAL_S apart,
and multiplies each repetition's times by the reference calibration time
over the mean calibration time of that repetition.  Calibration time is
excluded from every row and repetition.  Analytic workloads and ``setup_s``
are reported as measured; there, scaling by the loop made the spread between
runs wider, not narrower.  The unscaled medians (``info raw_metrics``), the
measured times and the factors are printed as ``info`` lines, so a
comparison can be checked against what was measured.  Throughput is printed
there too (Mtrials/s for MC workloads);
``failed``/``attempted`` in the result line carry the failed share, since
neither may be an end-to-end metric that reads 0.

``--trace 1`` runs in-process probes, then one untraced and one traced
repetition, and reports the per-layer metrics (see ``layers.py``); span
times are scaled in the same way, probe times are as measured.
Spans are recorded by wrapping the public names where the package looks them
up; pool workers are not traced, so the kernel sub-layers come from the
in-process probes.  Spans are written to ``bench/out/`` at the end.

Every run checks its outputs (see ``checks.py``) and prints human-readable
lines, then one JSON object as its last line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``attempted`` and ``failed`` count grid points of one repetition, so
failed / attempted is the workload's failed share.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 15
# on the reference machine (the 2-vCPU Xeon KVM guest in the record), the
# median over 120 calls of hostspeed.py's loop plus its round trip through a
# fresh two-process pool; a factor near 1 means the host ran at its usual speed
CAL_REFERENCE_S = 0.0185 + 0.0125
CAL_INTERVAL_S = 0.5
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 99.0)
ACCEPTANCE_SNR_DB = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    validate: bool  # True: iter_sweep_rows + validate_points; False: run_sweep
    workers: int
    min_reps: int
    make_config: object  # (seed, tiny) -> build_spec mapping
    # MC points allowed past z = 3 (see checks.py): the most seen on correct
    # code (6 of 90 over sweep-short seeds 1-120, 1 of 42 over
    # validate-acceptance seeds 1-40) plus a margin of 2
    z3_allowance: int = 0

    def config(self, seed: int, tiny: bool = False) -> dict:
        return self.make_config(seed, tiny)


def _acceptance(seed, tiny):
    return {
        "schemes": ["direct", "best", "multi"],
        "sensing_pairs": [[0.9, 0.1]],
        "relay_counts": [4, 6],
        "gamma_s_db": [5.0, 15.0] if tiny else ACCEPTANCE_SNR_DB,
        "trials": 20_000 if tiny else 10**6,
        "seed": seed,
    }


def _sweep_short(seed, tiny):
    # 50k trials fill 4 batches and use 5% of the last; every point starts
    # a new process pool, so start-up and dispatch dominate
    return {
        "schemes": ["direct", "best", "multi"],
        "sensing_pairs": [[0.9, 0.1]] if tiny else [[0.9, 0.1], [0.8, 0.2]],
        "relay_counts": [2] if tiny else [2, 6, 12],
        "gamma_s_db": [0.0, 10.0] if tiny else [0.0, 5.0, 10.0, 15.0, 20.0],
        "trials": 50_000,
        "seed": seed,
    }


def _analytic_grid(seed, tiny):
    # keeps 31..60 dB, where the best-relay tail cancels (known defect); the
    # output checks count those points as failed
    return {
        "schemes": ["direct", "best", "multi"],
        "sensing_pairs": [[0.9, 0.1], [0.8, 0.2], [0.95, 0.05], [0.7, 0.3]],
        "relay_counts": [1, 12, 24] if tiny else list(range(1, 25)),
        "gamma_s_db": [float(g) for g in (range(0, 5) if tiny else range(-10, 61))],
        "trials": 0,
        "seed": seed,
    }


def _analytic_hetero(seed, tiny):
    # per-relay first-hop variances drawn from the seed; only per-relay lists
    # reach the 2^N subset enumeration, whose cost does not depend on values
    n = 8 if tiny else 16
    rng = random.Random(seed)
    return {
        "schemes": ["best", "multi"],
        "sensing_pairs": [[0.9, 0.1]],
        "relay_counts": [n],
        "gamma_s_db": [0.0, 10.0, 20.0, 30.0],
        "sigma2_si": [round(rng.uniform(0.5, 2.0), 6) for _ in range(n)],
        "sigma2_pi": [round(rng.uniform(0.1, 0.4), 6) for _ in range(n)],
        "trials": 0,
        "seed": seed,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "validate-acceptance",
            validate=True, workers=2, min_reps=2, make_config=_acceptance, z3_allowance=3,
        ),
        Workload(
            "sweep-short",
            validate=False, workers=2, min_reps=2, make_config=_sweep_short, z3_allowance=8,
        ),
        Workload(
            "analytic-grid",
            validate=False, workers=1, min_reps=1, make_config=_analytic_grid,
        ),
        Workload(
            "analytic-hetero",
            validate=False, workers=1, min_reps=5, make_config=_analytic_hetero,
        ),
    )
}


def grid_size(cfg: dict) -> int:
    return (
        len(cfg["schemes"]) * len(cfg["sensing_pairs"])
        * len(cfg["relay_counts"]) * len(cfg["gamma_s_db"])
    )


def tail_percentile(rows: int) -> float:
    """Highest ladder percentile with at least 10 of `rows` beyond it (p50 if none)."""
    ok = [p for p in PERCENTILE_LADDER if rows * (100.0 - p) / 100.0 >= 10.0]
    return ok[-1] if ok else PERCENTILE_LADDER[0]


def percentile(values, p: float) -> float:
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


# ---------------------------------------------------------------------------
# importing the program under test


def import_cli():
    """Import cogrelay.cli from ./src; exit 2 when that source tree is absent."""
    if not (SRC / "cogrelay" / "__init__.py").is_file():
        print(f"error: no cogrelay source tree at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cogrelay import cli

    if Path(cli.__file__).resolve().parent != SRC / "cogrelay":
        print(f"error: imported cogrelay from {cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cli


# ---------------------------------------------------------------------------
# one repetition of a workload


_hostspeed: subprocess.Popen | None = None


def calibrate(workers: int) -> float:
    """Seconds for a fixed pure-Python loop plus, when `workers` > 1, a round
    trip through a fresh pool of that many processes: the host's current
    speed for the kind of work the workload does (MC workloads start a pool
    per grid point, and process start-up slows differently from the loop).
    Timed in the hostspeed.py interpreter, started on first use."""
    global _hostspeed
    if _hostspeed is None:
        _hostspeed = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "hostspeed.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        atexit.register(stop_calibrator)
    _hostspeed.stdin.write(f"{workers}\n")
    _hostspeed.stdin.flush()
    return float(_hostspeed.stdout.readline())


def stop_calibrator() -> None:
    global _hostspeed
    if _hostspeed is not None:
        _hostspeed.stdin.close()
        _hostspeed.wait(timeout=60)
        _hostspeed.stdout.close()
        _hostspeed = None


def speed_factor(cals) -> float:
    """Reference-speed seconds per measured second, from calibration times
    with a two-process pool."""
    return CAL_REFERENCE_S / statistics.fmean(cals)


class RowSink:
    """File-like CSV target for run_sweep: keeps the text and the start and
    end of every data row.  The first write is the header.

    With ``cal_workers``, the sink runs ``calibrate`` before the first
    row, after the last and between rows at least CAL_INTERVAL_S apart; that
    time is excluded from every row.  With a tracer, each row interval is a
    ``cli.row`` span, so everything the sweep does for a point (parameter
    building, the analytic and MC calls, CSV formatting) nests under it and
    the row spans tile the repetition's wall time.
    """

    def __init__(self, tracer=None, cal_workers: int | None = None):
        self.parts: list[str] = []
        self.rows: list[tuple[float, float]] = []
        self.cals: list[float] = []
        self.trailer = 0.0
        self._tracer = tracer
        self._cal_workers = cal_workers
        self._row_span = None
        self._mark = self._last_cal = 0.0

    def _cal(self) -> None:
        self.cals.append(calibrate(self._cal_workers))
        self._mark = self._last_cal = time.perf_counter()

    def start(self) -> None:
        if self._cal_workers:
            self._cal()
        self._mark = time.perf_counter()
        if self._tracer is not None:
            self._row_span = self._tracer.open("cli.row", at=self._mark)

    def write(self, text: str) -> int:
        now = time.perf_counter()
        header = not self.parts
        self.parts.append(text)
        if header:
            return len(text)
        self.rows.append((self._mark, now))
        self._mark = now
        if self._tracer is not None:
            self._tracer.close(self._row_span, at=now)
        if self._cal_workers and now - self._last_cal >= CAL_INTERVAL_S:
            self._cal()
        if self._tracer is not None:
            self._row_span = self._tracer.open("cli.row", at=self._mark)
        return len(text)

    def flush(self) -> None:
        pass

    def stop(self) -> None:
        now = time.perf_counter()
        self.trailer = now - self._mark
        if self._tracer is not None:
            self._tracer.close(self._row_span, at=now)
        if self._cal_workers:
            self._cal()

    def text(self) -> str:
        return "".join(self.parts)


@dataclasses.dataclass
class Rep:
    wall: float
    gaps: list[float]
    cals: list[float]
    csv: str

    @property
    def speed(self) -> float:
        """1 when the repetition started no pools and was not calibrated."""
        return speed_factor(self.cals) if self.cals else 1.0


def run_rep(cli, wl: Workload, spec, workers: int, tracer=None) -> Rep:
    sink = RowSink(tracer, workers if workers > 1 else None)
    sink.start()
    if wl.validate:
        sink.write(cli.CSV_HEADER + "\n")
        rows = []
        for row in cli.iter_sweep_rows(spec, workers=workers):
            rows.append(row)
            sink.write(row.csv_line(spec.trials, spec.seed) + "\n")
        cli.validate_points(rows, spec.trials)
    else:
        cli.run_sweep(spec, sink, workers=workers)
    sink.stop()
    gaps = [b - a for a, b in sink.rows]
    return Rep(wall=sum(gaps) + sink.trailer, gaps=gaps, cals=sink.cals, csv=sink.text())


# ---------------------------------------------------------------------------
# set-up time, measured in fresh interpreters


class _FirstPoint(Exception):
    pass


def setup_probe(wl: Workload, seed: int, workers: int, tiny: bool) -> float:
    """Seconds from importing cogrelay to the first grid point's first call
    into the analytic or MC layer (or its completed row, if earlier)."""
    t0 = time.perf_counter()
    cli = import_cli()
    spec = cli.build_spec(wl.config(seed, tiny))
    stamps = []

    def first_point(*args, **kwargs):
        stamps.append(time.perf_counter())
        raise _FirstPoint

    for name in ("outage_multi_relay", "outage_best_relay", "outage_direct", "estimate_outage"):
        setattr(cli, name, first_point)

    class StopSink(RowSink):
        def write(self, text):
            if self.parts:
                first_point()
            return super().write(text)

    try:
        if wl.validate:
            next(iter(cli.iter_sweep_rows(spec, workers=workers)))
        else:
            cli.run_sweep(spec, StopSink(), workers=workers)
    except _FirstPoint:
        pass
    return stamps[0] - t0


def measure_setup(wl: Workload, seed: int, workers: int, tiny: bool) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh interpreters."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", wl.name, "--seed", str(seed), "--workers", str(workers),
    ]
    if tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# machine and code record


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "none (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _cpu_record() -> dict:
    model = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else ():
        level, kind, size = (_read(idx / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = size
    return {"cpu_model": model, "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown")}


def code_record() -> dict:
    digest = hashlib.sha256()
    lines = {}
    for path in sorted((SRC / "cogrelay").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def machine_record() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        **_cpu_record(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------
# the measured run


def peak_rss_mb(workers: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # RUSAGE_CHILDREN reports the largest waited-for child; the pool workers
    # run the same batches, so each is charged that peak
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def run_untraced(cli, wl, spec, workers, seconds, min_reps):
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(cli, wl, spec, workers))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in reps)
        if len(reps) >= min_reps and elapsed + typical > seconds:
            return reps


def end_to_end_metrics(reps, setup, rss_mb, rows_per_rep, min_reps):
    tail_p = tail_percentile(rows_per_rep * min_reps)

    def timings(speeds):
        gaps = [g * f for r, f in zip(reps, speeds) for g in r.gaps]
        return {
            "wall_s": (statistics.median(r.wall * f for r, f in zip(reps, speeds)), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "row_p50_ms": (percentile(gaps, 50.0) * 1e3, "ms"),
            "row_tail_ms": (percentile(gaps, tail_p) * 1e3, "ms"),
        }

    speeds = [r.speed for r in reps]
    metrics = {**timings(speeds), "peak_rss_mb": (rss_mb, "MB")}
    info = {
        "tail_percentile": tail_p, "row_samples": sum(len(r.gaps) for r in reps), "reps": len(reps),
        "raw_metrics": {k: v for k, (v, _) in timings([1.0] * len(reps)).items()},
        "measured_wall_s_per_rep": [r.wall for r in reps],
        "speed_factor_per_rep": speeds,
        "measured_setup_s": setup,
    }
    return metrics, info


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  workers: int | None = None, tiny: bool = False) -> dict:
    """Measure one workload; returns the result record (see module docstring)."""
    import checks

    cli = import_cli()
    wl = WORKLOADS[workload]
    workers = wl.workers if workers is None else workers
    min_reps = 1 if tiny else wl.min_reps
    cfg = wl.config(seed, tiny)
    spec = cli.build_spec(cfg)
    rows = grid_size(cfg)
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "workers": workers, "grid_points": rows, "trials_per_point": spec.trials,
        "seeds": {"workload": seed, "mc": spec.seed},
        **machine_record(), **code_record(),
    }

    if trace:
        import layers

        tag = f"{wl.name}-seed{seed}" + ("-tiny" if tiny else "")
        reps, layer = layers.traced_run(cli, wl, spec, workers, cfg, sys.modules[__name__],
                                        OUT_DIR / f"spans-{tag}.npz")
        metrics = layer["metrics"]
        info = layer["info"]
    else:
        reps = run_untraced(cli, wl, spec, workers, seconds, min_reps)
        rss = peak_rss_mb(workers)
        setup = measure_setup(wl, seed, workers, tiny)
        metrics, info = end_to_end_metrics(reps, setup, rss, rows, min_reps)
        if spec.trials:
            info["mtrials_per_s"] = rows * spec.trials / metrics["wall_s"][0] / 1e6

    verdict = checks.check_run(cli, spec, cfg, reps, workers, rows, wl.z3_allowance)
    if trace:
        verdict["hard"].update(layer["hard"])
    return {
        "record": record,
        "info": info,
        "verdict": verdict,
        "correct": all(verdict["hard"].values()),
        "attempted": rows,
        "failed": verdict["failed"],
        "metrics": metrics,
    }


def report(result: dict) -> None:
    rec, info, verdict = result["record"], result["info"], result["verdict"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"workers {rec['workers']}  grid points {rec['grid_points']}")
    print("record " + json.dumps(rec, sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    for key, value in info.items():
        print(f"info {key} = {json.dumps(value)}")
    print(f"csv_sha256 {verdict['csv_sha256']}")
    print(f"failed_share {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}  reasons {json.dumps(verdict['reasons'])}")
    print("checks " + json.dumps(verdict["hard"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="override the workload's MC worker count (the CSV must not change)")
    parser.add_argument("--tiny", action="store_true", help="tiny grids, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    wl = WORKLOADS[args.workload]

    if args.setup_probe:
        print(repr(setup_probe(wl, args.seed, args.workers or wl.workers, args.tiny)))
        return 0

    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                               workers=args.workers, tiny=args.tiny)
    except Exception:
        # a point that raises stops the sweep, as it stops the CLI
        traceback.print_exc()
        return 1
    finally:
        stop_calibrator()
    report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
