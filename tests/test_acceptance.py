"""Acceptance gate: every repo-level criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The heavyweight cross-validation uses a million trials per grid
point; expect the whole module to take on the order of a minute.
"""

import dataclasses
import io
import math

import numpy as np
import pytest
from scipy import integrate

from cogrelay.analytic import (
    outage_best_relay,
    outage_direct,
    outage_multi_relay,
    p_below_h1,
    p_sum_below_h1,
)
from cogrelay.cli import (
    build_spec,
    iter_sweep_rows,
    run_sweep,
    run_validate,
    validate_points,
)
from cogrelay.model import Scheme
from cogrelay.montecarlo import outage_flags
from cogrelay.specfun import reg_lower_gamma
from oracle import MAX_ORACLE_RELAYS, enumerated_outage

WORKERS = 2

STUDY_GRID = {
    "gamma_s_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
    "sensing_pairs": [[0.9, 0.1]],
    "relay_counts": [4, 6],
    "schemes": ["direct", "best", "multi"],
}

ANALYTIC_BY_SCHEME = {
    Scheme.MULTI_RELAY: outage_multi_relay,
    Scheme.BEST_RELAY: outage_best_relay,
    Scheme.DIRECT: outage_direct,
}


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS: {message}")


def test_criterion_1_closed_form_matches_simulation():
    """Every scheme, both relay counts, seven SNR points: the analytic total
    sits within 3 standard errors of a million-trial estimate at >= 99% of
    the 42 grid points."""
    spec = build_spec({**STUDY_GRID, "trials": 10**6})
    rep = run_validate(spec, workers=WORKERS)
    assert rep.n_points == 42
    assert rep.passed, rep.render()
    report(1, f"42/42 grid points within 3 stderr (max |z| = {rep.max_z:.2f})")


def test_criterion_2_closed_form_tail_vs_quadrature():
    """The interference-averaged Erlang tail matches adaptive quadrature to
    1e-8 relative on a 200-point random grid, and reduces exactly to the
    single-link expression at k=1."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 7))
        delta = float(rng.uniform(0.005, 5.0))
        s2d = float(rng.uniform(0.2, 3.0))
        s2pd = float(rng.uniform(0.05, 2.0))
        gp = float(rng.uniform(0.1, 50.0))
        got = p_sum_below_h1(delta, s2d, s2pd, gp, k)
        oracle, _ = integrate.quad(
            lambda y: (1.0 / s2pd)
            * math.exp(-y / s2pd)
            * reg_lower_gamma(k, (delta + gp * delta * y) / s2d),
            0.0,
            np.inf,
            limit=400,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        rel = abs(got - oracle) / oracle
        worst = max(worst, rel)
        assert rel <= 1e-8, (k, delta, s2d, s2pd, gp, got, oracle)
    for _ in range(100):
        delta = float(rng.uniform(0.001, 5.0))
        s2d = float(rng.uniform(0.1, 3.0))
        s2pd = float(rng.uniform(0.05, 2.0))
        gp = float(rng.uniform(0.01, 100.0))
        single = p_below_h1(delta, s2d, s2pd, gp)
        assert p_sum_below_h1(delta, s2d, s2pd, gp, 1) == pytest.approx(
            single, rel=1e-12
        )
    report(2, f"200-point quadrature grid within 1e-8 (worst {worst:.2e}); k=1 reduction at 1e-12")


def test_criterion_3_sensing_quality_ordering():
    """Improving the sensing pair from (0.65, 0.35) to (0.95, 0.05) strictly
    lowers the analytic outage of all three schemes at every swept SNR."""
    checked = 0
    for g_db in STUDY_GRID["gamma_s_db"]:
        for scheme, fn in ANALYTIC_BY_SCHEME.items():
            good = fn(_params(g_db, pd=0.95, pf=0.05, n_relays=6)).total
            poor = fn(_params(g_db, pd=0.65, pf=0.35, n_relays=6)).total
            assert good < poor, (scheme, g_db, good, poor)
            checked += 1
    report(3, f"better sensing strictly lowers outage at all {checked} scheme/SNR points")


def test_criterion_4_scheme_and_relay_count_ordering():
    """At 20 dB the schemes order multi < best < direct, and going from 4 to
    6 relays strictly helps both relay schemes at every swept SNR."""
    multi = outage_multi_relay(_params(20.0, n_relays=6)).total
    best = outage_best_relay(_params(20.0, n_relays=6)).total
    direct = outage_direct(_params(20.0, n_relays=6)).total
    assert multi < best < direct
    for g_db in STUDY_GRID["gamma_s_db"]:
        for fn in (outage_multi_relay, outage_best_relay):
            assert (
                fn(_params(g_db, n_relays=6)).total
                < fn(_params(g_db, n_relays=4)).total
            ), (fn.__name__, g_db)
    report(4, f"multi ({multi:.3e}) < best ({best:.3e}) < direct ({direct:.3e}) at 20 dB; N=6 beats N=4 everywhere")


def test_criterion_5_pathwise_dominance():
    """On shared sample paths, no trial exists where the all-decoders scheme
    is in outage while the best-relay scheme is not."""
    params = _params(10.0, n_relays=6)
    trials, seed = 10**6, 12345
    multi = outage_flags(params, Scheme.MULTI_RELAY, trials, seed)
    best = outage_flags(params, Scheme.BEST_RELAY, trials, seed)
    violations = int(np.sum(multi & ~best))
    assert violations == 0
    report(5, f"0 dominance violations across {trials} shared-path trials "
              f"(multi outages {int(multi.sum())} <= best outages {int(best.sum())})")


def test_criterion_6_sweep_is_deterministic_across_workers():
    """A seeded sweep emits byte-identical CSV for 1, 4 and 8 workers."""
    cfg = {
        "gamma_s_db": [0.0, 15.0, 30.0],
        "schemes": ["direct", "best", "multi"],
        "trials": 30_000,
        "seed": 2024,
    }
    outputs = []
    for workers in (1, 4, 8):
        buf = io.StringIO()
        run_sweep(build_spec(cfg), buf, workers=workers)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1] == outputs[2]
    report(6, f"byte-identical CSV ({len(outputs[0])} bytes) for workers in {{1, 4, 8}}")


def test_criterion_7_grouped_fast_path_equals_enumeration():
    """The closed forms, which weight the second-hop tails by the
    decoding-set size distribution, equal the explicit sum over all 2^N - 1
    decoding sets (the test oracle) to 1e-12 for N = 1..12: homogeneous
    relays, all-distinct per-relay variances, and one 3+4 two-group mix."""
    rng = np.random.default_rng(77)
    cases = []
    for n in range(1, MAX_ORACLE_RELAYS + 1):
        g_db = float(rng.uniform(0.0, 30.0))
        pd = float(rng.uniform(0.5, 1.0))
        pf = float(rng.uniform(0.0, 0.5))
        cases.append(_params(
            g_db, pd=pd, pf=pf, n_relays=n,
            sigma2_si=float(rng.uniform(0.3, 2.0)),
            sigma2_pi=float(rng.uniform(0.05, 0.8)),
        ))
        cases.append(_params(
            g_db, pd=pd, pf=pf, n_relays=n,
            sigma2_si=tuple(float(x) for x in rng.uniform(0.3, 2.0, n)),
            sigma2_pi=tuple(float(x) for x in rng.uniform(0.05, 0.8, n)),
        ))
    cases.append(_params(
        15.0, n_relays=7, sigma2_si=(0.7,) * 3 + (1.6,) * 4, sigma2_pi=(0.3,) * 3 + (0.1,) * 4,
    ))
    worst = 0.0
    for params in cases:
        for scheme in (Scheme.MULTI_RELAY, Scheme.BEST_RELAY):
            got = ANALYTIC_BY_SCHEME[scheme](params)
            ref = enumerated_outage(params, scheme)
            diff = abs(got.total - ref.total)
            worst = max(worst, diff)
            assert diff <= 1e-12, (scheme, params.n_relays, params.variances, diff)
    report(7, f"{len(cases)} closed-form points equal the subset enumeration for "
              f"N=1..{MAX_ORACLE_RELAYS} (worst |diff| = {worst:.2e})")


def test_criterion_8_validation_flags_injected_faults():
    """Perturbing the analytic total by +0.05 at any single grid point flips
    the cross-validation verdict to FAIL."""
    spec = build_spec(
        {"gamma_s_db": [5.0, 15.0], "schemes": ["direct", "best", "multi"], "trials": 10**4}
    )
    rows = list(iter_sweep_rows(spec, workers=WORKERS))
    assert validate_points(rows, spec.trials).passed
    for idx in range(len(rows)):
        corrupted = list(rows)
        corrupted[idx] = dataclasses.replace(
            rows[idx], analytic_outage=rows[idx].analytic_outage + 0.05
        )
        rep = validate_points(corrupted, spec.trials)
        assert not rep.passed, f"fault at row {idx} not detected"
        assert len(rep.exceedances) >= 1
    report(8, f"each of {len(rows)} single-point +0.05 faults flips the verdict to FAIL")


def _params(gamma_s_db, *, pd=0.9, pf=0.1, n_relays=6, sigma2_si=1.0, sigma2_pi=0.2):
    from cogrelay.model import ChannelVariances, SystemParams, db_to_linear

    def per_relay(v):  # scalar = the same variance at every relay
        return v if isinstance(v, tuple) else (v,) * n_relays

    return SystemParams(
        p0=0.8,
        pd=pd,
        pf=pf,
        gamma_s=db_to_linear(gamma_s_db),
        gamma_p=db_to_linear(10.0),
        rate=1.0,
        variances=ChannelVariances(
            sigma2_si=per_relay(sigma2_si),
            sigma2_pi=per_relay(sigma2_pi),
            sigma2_d=1.0,
            sigma2_pd=0.2,
            sigma2_sd=1.0,
        ),
    )
