import ast
import dataclasses
import re
from pathlib import Path

import cogrelay

PUBLIC_API = {
    "MAX_RELAYS",
    "ChannelVariances",
    "OutageBreakdown",
    "OutageEstimate",
    "Scheme",
    "SystemParams",
    "db_to_linear",
    "estimate_outage",
    "outage_best_relay",
    "outage_direct",
    "outage_multi_relay",
}

README = Path(__file__).parents[1] / "README.md"


def library_example() -> str:
    """The first python block of the README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_public_api_is_pinned_and_resolves():
    assert set(cogrelay.__all__) == PUBLIC_API
    assert len(cogrelay.__all__) == len(PUBLIC_API)
    for name in cogrelay.__all__:
        assert hasattr(cogrelay, name), name


def test_init_fields_are_pinned():
    # each fact is an argument once: N is the variance tuples' length, and
    # a sweep's pair and relay-count axes are its lines
    from cogrelay.cli import SweepSpec

    def init_fields(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert init_fields(cogrelay.SystemParams) == ["p0", "pd", "pf", "gamma_s", "gamma_p", "rate", "variances"]
    assert init_fields(SweepSpec) == ["gamma_s_db", "schemes", "trials", "seed", "lines"]


def test_montecarlo_exports_only_the_estimator():
    # outage_flags and exponential_from_uniform stay importable for the
    # tests and the benchmark, but are not exported
    from cogrelay import montecarlo

    assert set(montecarlo.__all__) == {"MAX_WORKERS", "TRIALS_PER_BATCH", "OutageEstimate", "estimate_outage"}


def test_model_exports_are_pinned():
    # the posterior and the thresholds are SystemParams attributes; the
    # functions that derive them stay exported for their checks
    from cogrelay import model

    assert set(model.__all__) == {
        "MAX_RELAYS", "MAX_WORKERS", "ChannelVariances", "Scheme", "SystemParams",
        "db_to_linear", "posterior", "snr_threshold",
    }
    assert len(model.__all__) == 8
    for name in model.__all__:
        assert hasattr(model, name), name


def test_readme_library_example_uses_the_public_api_and_runs():
    code = library_example()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "cogrelay"
        for alias in node.names
    }
    assert imported and imported <= PUBLIC_API
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert 0.0 < namespace["closed"].total < 1.0
