"""The package names that the benchmark harness under bench/ looks up.

bench/layers.py wraps functions by name for its traced runs, and its probes
and bench/checks.py read attributes by name.  Deleting or renaming one of
them breaks `bench/run.py --trace 1` and `bench/selftest.py`; these tests
make that fail here too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cogrelay import analytic, cli, model, montecarlo
from cogrelay.model import Scheme

BENCH = Path(__file__).parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """Load a bench/ module by path under a private name."""

    def load(name):
        spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
        return module

    return load


def test_layer_tracing_wraps_every_named_function_and_unwraps(bench):
    layers = bench("layers")
    modules = (cli, analytic, model)
    before = {(m, name): value for m in modules for name, value in vars(m).items()}
    tracer = layers.Tracer()
    try:
        layers.install(tracer, cli, layers.McCalls(montecarlo.TRIALS_PER_BATCH))
        wrapped = {name for (m, name), value in before.items() if getattr(m, name) is not value}
        spec = cli.build_spec({"gamma_s_db": [10.0], "relay_counts": [2]})
        rows = list(cli.iter_sweep_rows(spec))
        spans = tracer.summary()
    finally:
        tracer.unwrap()
    assert {(m, name): value for m in modules for name, value in vars(m).items()} == before
    assert set(layers.OUTAGE + layers.FIRST_HOP + layers.TAILS + layers.SPECFUN) <= wrapped
    assert len(rows) == 3
    # every layer but the Monte Carlo and validation ones runs in this sweep
    ran = {name.split(".")[-1] for name in spans}
    assert wrapped - ran == {"estimate_outage", "validate_points"}


def test_checks_and_probes_read_their_names(bench):
    layers = bench("layers")
    checks = bench("checks")
    # layers._params: build_spec(...).base
    params = layers._params(cli, {"sensing_pairs": [[0.9, 0.1]], "trials": 0}, "multi", 6, 20.0)
    assert (params.n_relays, params.pd, params.pf) == (6, 0.9, 0.1)
    # the SweepRow fields, validate_points(...).max_z, estimate_outage on
    # spec.base, run_sweep and CSV_HEADER
    assert checks._golden(cli, workers=1)
    [row] = checks.parse_csv(
        f"{cli.CSV_HEADER}\n{checks.GOLDEN_ROW}\n", cli.CSV_HEADER
    )
    assert checks.z_score(cli, row) < checks.MC_Z_LIMIT
    assert checks._single_worker_matches(cli, checks.GOLDEN_CONFIG, row)
    spec = cli.build_spec(checks._one_point_config(checks.GOLDEN_CONFIG, row, 1000))
    assert cli.estimate_outage(spec.base, Scheme.MULTI_RELAY, 1000, spec.seed).trials == 1000
    # the Monte Carlo probes
    per_batch = montecarlo.TRIALS_PER_BATCH
    u = montecarlo.batch_generator(12345, 0).random((per_batch, 9))
    assert montecarlo.exponential_from_uniform(u, 1.0).shape == (per_batch, 9)
    flags = montecarlo.outage_flags(params, Scheme.MULTI_RELAY, per_batch, 1)
    assert len(flags) == per_batch
