"""Bit-identity gate: sha256 digests of the sweep CSV on small grids.

The grids are shaped like the benchmark workloads (a Monte Carlo validate
grid, a short Monte Carlo sweep over two sensing pairs, an analytic grid
that reaches the high-SNR range, per-relay analytic grids at N = 8 and at
the per-relay workload's N = 16) plus an analytic grid whose relays form
groups of 3, 1, 2 and 1 alike relays, the configs at the edge of the
accepted range that the CLI tests run, and per-relay variances at the float
limits of the first hop.  Each
digest was taken before a refactor that claimed bit-identical output, so a
change that moves one printed digit fails here, not only in a benchmark
run.  A change that means to move the numbers updates the digests and says
why.

The CSV prints 10 significant digits, so it can hide a change in the last
bits of a closed form.  The analytic grids (trials 0) therefore also pin a
digest of the repr of every ``OutageBreakdown`` field, the four parts and
the total, of each (scheme, point) in sweep order.
"""

import hashlib
import io

import pytest

from cogrelay.cli import _params_at, analytic_outage, build_spec, run_sweep, sweep_points

GRIDS = {
    "validate-like": {
        "schemes": ["direct", "best", "multi"],
        "sensing_pairs": [[0.9, 0.1]],
        "relay_counts": [4, 6],
        "gamma_s_db": [5.0, 15.0],
        "trials": 20_000,
        "seed": 1,
    },
    "sweep-like": {
        "schemes": ["direct", "best", "multi"],
        "sensing_pairs": [[0.9, 0.1], [0.8, 0.2]],
        "relay_counts": [2, 12],
        "gamma_s_db": [0.0, 20.0],
        "trials": 5_000,
        "seed": 2,
    },
    "analytic-grid-like": {
        "schemes": ["direct", "best", "multi"],
        "sensing_pairs": [[0.9, 0.1], [0.8, 0.2], [0.95, 0.05], [0.7, 0.3]],
        "relay_counts": [1, 12, 24],
        "gamma_s_db": [-10.0, 0.0, 15.0, 30.0, 45.0, 60.0],
        "trials": 0,
    },
    "analytic-hetero-like": {
        "schemes": ["best", "multi"],
        "sensing_pairs": [[0.9, 0.1]],
        "relay_counts": [8],
        "gamma_s_db": [0.0, 10.0, 20.0, 30.0],
        "sigma2_si": [0.7, 1.9, 1.2, 0.55, 1.45, 0.9, 1.75, 1.05],
        "sigma2_pi": [0.15, 0.35, 0.2, 0.4, 0.1, 0.3, 0.25, 0.12],
        "trials": 0,
    },
    # the shape of the per-relay benchmark workload: 16 distinct relays
    "analytic-hetero16-like": {
        "schemes": ["best", "multi"],
        "sensing_pairs": [[0.9, 0.1]],
        "relay_counts": [16],
        "gamma_s_db": [0.0, 10.0, 20.0, 30.0],
        "sigma2_si": [1.042, 1.221, 1.125, 1.17, 1.114, 1.487, 0.888, 1.452,
                      0.515, 0.953, 1.003, 0.713, 1.615, 0.965, 1.684, 1.934],
        "sigma2_pi": [0.176, 0.368, 0.342, 0.3, 0.108, 0.237, 0.288, 0.189,
                      0.167, 0.193, 0.177, 0.336, 0.204, 0.227, 0.293, 0.385],
        "trials": 0,
    },
    # groups of 3, 1, 2 and 1 alike relays, interleaved: the decoding-set
    # pmf convolves binomials of one, two and three relays
    "analytic-mixed-like": {
        "schemes": ["best", "multi"],
        "sensing_pairs": [[0.9, 0.1]],
        "relay_counts": [7],
        "gamma_s_db": [-10.0, 0.0, 10.0, 20.0, 30.0],
        "sigma2_si": [0.7, 1.9, 0.7, 1.2, 0.7, 1.2, 0.55],
        "sigma2_pi": [0.15, 0.35, 0.15, 0.2, 0.15, 0.2, 0.4],
        "trials": 0,
    },
    # the configs of test_cli.py::TestMainEntry::test_analytic_at_the_edge_of_the_accepted_range,
    # over a gamma_s axis that holds the -10 dB of that test's flags
    **{
        f"edge-{name}": {**config, "gamma_s_db": [-10.0, 0.0, 15.0, 30.0]}
        for name, config in {
            "sigma2_si-1e-300": {"sigma2_si": 1e-300, "gamma_p_db": 100},
            "gamma_p-3080-dB": {"gamma_p_db": 3080},
            "sigma2_d-1e-308": {"sigma2_d": 1e-308},
            "sigma2_sd-1e-320": {"sigma2_sd": 1e-320},
            "interference-underflow": {"sigma2_pd": 1e-320, "gamma_p_db": -40},
            "interference-overflow": {"sigma2_pd": 1e10, "gamma_p_db": 3080},
            "zero-threshold": {"rate": 1e-17, "sigma2_pd": 1e10, "gamma_p_db": 3080},
        }.items()
    },
    # the first hop gives relay 1 a success of exactly 0.0 and relay 3 a
    # subnormal failure probability (3e-308 at 0 dB)
    "edge-per-relay-limits": {
        "relay_counts": [3],
        "sigma2_si": [1e-300, 1.0, 1e308],
        "sigma2_pi": [0.2, 0.2, 0.2],
        "gamma_s_db": [-10.0, 0.0, 15.0, 30.0],
    },
}

DIGESTS = {
    "validate-like": "e818eaa913e8694ab11eb7b645134c6870bbdffa6f52d77b625b80ee4fd37ca8",
    "sweep-like": "95189f076328a7b9313f7ff9d271264bb6c8016c6928b48025abad7bbb4d24a5",
    "analytic-grid-like": "1d244d26c1104db6c695820152467264892ce619113f96803e7c769e502434a1",
    "analytic-hetero-like": "3ad4128688447f08431c8c733b3bb01fdf9f43f873cfe3d3df520a812fe79287",
    "analytic-hetero16-like": "a62218fa410735c717e211c7562e021542f9e773e28cacfb9a4af7f50ead0d39",
    "analytic-mixed-like": "164a6fef63d59bd00461c5c2c415828ef7d6752d88668ae64c2a1b32e454fb22",
    "edge-sigma2_si-1e-300": "d63cae7b5e2e172a614134d3d10ef7d6e4de555d1182f25497ed0a548ed8d5df",
    "edge-gamma_p-3080-dB": "cd972bae2641e51a9ca9284f8f191d752a1a774ad9a550cfe4512e012f72a1e7",
    "edge-sigma2_d-1e-308": "31987e80f918f69cf9b2b651a28415dcbf2bc2e313d173ecbf3afacdaef8f347",
    "edge-sigma2_sd-1e-320": "61e841f31bab50fd92110c72f2804c933269cb1c7c0cfb68f28a90ecb89692d0",
    "edge-interference-underflow": "1c8c30d78f81f2972d20f786ecf0821fd7a73dabc333d850ae9255e91212b0c6",
    "edge-interference-overflow": "cd972bae2641e51a9ca9284f8f191d752a1a774ad9a550cfe4512e012f72a1e7",
    "edge-zero-threshold": "a9093b3258b4cc2ed58715fa31c34f3bdb0e36f1e07c68aefdaf0a1204c2f7ee",
    "edge-per-relay-limits": "70fe10ff4e4dd83aa184edb0ad84a6be0e897b0d9da2c752127319e27063f905",
}


def csv_digest(config: dict) -> str:
    out = io.StringIO()
    run_sweep(build_spec(config), out, workers=1)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", GRIDS)
def test_sweep_csv_digest(name):
    assert csv_digest(GRIDS[name]) == DIGESTS[name]


ANALYTIC_GRIDS = [name for name, config in GRIDS.items() if not config.get("trials")]

BREAKDOWN_DIGESTS = {
    "analytic-grid-like": "ac0414ad1ccd6da888ce2dc9a571509dbfb1c8c340f4139cff837c5987b74e0f",
    "analytic-hetero-like": "ab460537b25d8759d532ff9446ec9f4438a460940c0a6d1c36c521c5e21ed5fe",
    "analytic-hetero16-like": "e53c1ee90d4aec5c6624f64735e05ac3b6479e34852efa4f6b4d79098049deb3",
    "analytic-mixed-like": "6151773741cb2c9409079b8850b6b2b0c8159156171bea61057a0bdc8284d4ee",
    "edge-sigma2_si-1e-300": "bc9e08c67ce643917552fc2dafcfaccfe28787641ff47e3d7fd20a5790a34389",
    "edge-gamma_p-3080-dB": "c6472f1ef6fceb937e88368750221c7ffd334b87c5c9fb3b0443c05a2d205034",
    "edge-sigma2_d-1e-308": "3bdcfc10f52f56df9a45677458bbac813dc1c6d953e52cc54f2bcef02709c49b",
    "edge-sigma2_sd-1e-320": "4c4f4f39267f1fe0111e13c16d925e0116044cfc8c84033f6a2c5de1708a54e0",
    "edge-interference-underflow": "bc96caff2b0aac35ed798f7b422ec46b2b512d19f4bae168538218d020924f1f",
    "edge-interference-overflow": "c6472f1ef6fceb937e88368750221c7ffd334b87c5c9fb3b0443c05a2d205034",
    "edge-zero-threshold": "4a8b0cc4e0eaf2c3873bcc5f5741995fc552216d7213e6d244da21eb374d86a4",
    "edge-per-relay-limits": "4ed285cbe0be9e0a41d2c236c256d9352856313ab54e885c005dbc3a2df64429",
}


def breakdown_digest(config: dict) -> str:
    spec = build_spec(config)
    lines = {(p.pd, p.pf, p.n_relays): p for p in spec.lines}
    h = hashlib.sha256()
    for scheme, pd, pf, n, g in sweep_points(spec):
        b = analytic_outage(_params_at(lines[pd, pf, n], g), scheme)
        h.update(repr((b.empty_h0, b.empty_h1, b.nonempty_h0, b.nonempty_h1, b.total)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", ANALYTIC_GRIDS)
def test_breakdown_digest(name):
    assert breakdown_digest(GRIDS[name]) == BREAKDOWN_DIGESTS[name]
