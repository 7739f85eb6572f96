#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny grids:

    python3 bench/selftest.py

1. Every workload, untraced and traced, returns a correct result carrying
   exactly the metrics BENCHMARK.json names for that mode, with their units.
2. Mirroring acceptance criterion 8: raising the analytic value of any one
   row of the tiny validate-acceptance output by 0.05 makes the output check
   count that row as a failed point.
3. In a directory holding only BENCHMARK.json and the benchmark's files, the
   benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import checks
import run


def check_metrics(spec: dict) -> None:
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in run.WORKLOADS:
        for trace, units in wanted.items():
            result = run.run_benchmark(name, seed=1, seconds=0, trace=trace, tiny=True)
            got = {k: unit for k, (_, unit) in result["metrics"].items()}
            assert got == units, (name, trace, set(got) ^ set(units))
            for key, (value, _) in result["metrics"].items():
                assert isinstance(value, float) and math.isfinite(value), (name, key, value)
            assert result["correct"], (name, trace, result["verdict"])
            print(f"ok  {name} trace={int(trace)}: {len(got)} metrics with units")


def check_perturbation() -> None:
    cli = run.import_cli()
    wl = run.WORKLOADS["validate-acceptance"]
    spec = cli.build_spec(wl.config(1, tiny=True))
    rows = checks.parse_csv(run.run_rep(cli, wl, spec, wl.workers).csv, cli.CSV_HEADER)
    failed = lambda rs: set().union(*checks.point_failures(cli, rs).values())  # noqa: E731
    assert not failed(rows), failed(rows)
    for i, row in enumerate(rows):
        bad = list(rows)
        bad[i] = dataclasses.replace(row, analytic=row.analytic + 0.05)
        assert i in failed(bad), f"+0.05 at row {i} not counted as failed"
    print(f"ok  each of {len(rows)} single-row +0.05 faults is counted as a failed point")


def check_bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "analytic-grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_perturbation()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
