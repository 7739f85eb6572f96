#!/usr/bin/env python3
"""Steadiness check: run the benchmark over several seeds and report spreads.

    python3 bench/steady.py                          # every workload, seeds 1..10
    python3 bench/steady.py --workloads analytic-hetero --seeds 1 2 3 4 5
    python3 bench/steady.py --compare bench/out/steady-a.json --label b

For each workload and end-to-end metric it prints the median and the spread
(q3 - q1) / median of the per-run values, with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json, and for times the median of the unscaled values (see
run.py).  A spread must stay within the bound and should stay below a third
of it.  It asserts that every run produced a correct result and, with
``--compare``, that each (workload, seed) gave the same CSV digest as in the
earlier set, that no median got worse by more than its bound, and that for
every time the shift of the scaled median agrees with the shift of the
unscaled median within the bound, so that no comparison rests on the scaling
alone.  When sweep-short is among
the workloads it adds one sweep-short run at workers=1, whose CSV digest must
equal the workers=2 digest of the same seed (the worker-count contract of
``cogrelay.montecarlo``).
Results are written to ``bench/out/steady-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, workers: int | None = None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("csv_sha256 "))
    raw = next(line.split(" = ", 1)[1] for line in lines if line.startswith("info raw_metrics = "))
    return {"workload": workload, "seed": seed, "elapsed_s": elapsed, "csv_sha256": digest,
            "raw": json.loads(raw), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", default="a")
    parser.add_argument("--compare", type=Path, help="an earlier steady-<label>.json")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds)
            runs.append(run)
            print(f"{workload} seed {seed}: {run['elapsed_s']:.1f} s, correct "
                  f"{run['result']['correct']}, failed {run['result']['failed']}", flush=True)

    ok = all(r["result"]["correct"] for r in runs)
    summary = {}
    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload]
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            med, sp = spread(values)
            summary[f"{workload}/{name}"] = {"median": med, "spread": sp, "bound": bound}
            flag = "ok" if sp < bound / 3 else ("WITHIN BOUND" if sp <= bound else "TOO WIDE")
            line = (f"{workload:20s} {name:12s} median {med:12.6g}  spread {sp:7.4f}  "
                    f"bound {bound:5.3f}  {flag}")
            ok = ok and sp <= bound
            if name in mine[0]["raw"]:
                raw_med = statistics.median(r["raw"][name] for r in mine)
                summary[f"{workload}/{name}"]["raw_median"] = raw_med
                line += f"  raw median {raw_med:12.6g}"
            print(line)

    if args.compare:
        before = json.loads(args.compare.read_text())
        old_digest = {(r["workload"], r["seed"]): r["csv_sha256"] for r in before["runs"]}
        for r in runs:
            key = (r["workload"], r["seed"])
            if key in old_digest and old_digest[key] != r["csv_sha256"]:
                print(f"DIGEST CHANGED {key}")
                ok = False
        for key, cur in summary.items():
            old = before["summary"].get(key)
            if old is None:
                continue
            # every end-to-end metric is "lower is better"
            shift = cur["median"] / old["median"] - 1.0
            line = f"{key:34s} median shift {shift:+.4f} (bound {cur['bound']})"
            ok = ok and shift <= cur["bound"]
            if "raw_median" in cur:
                raw_shift = cur["raw_median"] / old["raw_median"] - 1.0
                line += f"  raw shift {raw_shift:+.4f}"
                if abs(shift - raw_shift) > cur["bound"]:
                    line += "  RESTS ON SCALING"
                    ok = False
            print(line)

    if "sweep-short" in args.workloads:
        seed = args.seeds[0]
        single = run_once("sweep-short", seed, args.seconds, workers=1)
        pooled = next(r for r in runs if r["workload"] == "sweep-short" and r["seed"] == seed)
        same = single["csv_sha256"] == pooled["csv_sha256"]
        print(f"sweep-short seed {seed}: workers=1 digest {'matches' if same else 'DIFFERS FROM'} workers=2")
        ok = ok and same

    out = BENCH_DIR / "out" / f"steady-{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    print(f"{'PASS' if ok else 'FAIL'}; results in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
