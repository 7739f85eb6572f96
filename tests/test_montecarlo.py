import io
import itertools
import math
import multiprocessing

import numpy as np
import pytest

from cogrelay import montecarlo
from cogrelay.analytic import (
    decoding_cardinality_pmf,
    outage_multi_relay,
    p_sum_below_h0,
)
from cogrelay.cli import build_spec, iter_sweep_rows, run_sweep
from cogrelay.model import ChannelVariances, Scheme
from cogrelay.montecarlo import (
    MAX_WORKERS,
    TRIALS_PER_BATCH,
    OutageEstimate,
    _batch_outage_flags,
    batch_generator,
    estimate_outage,
    exponential_from_uniform,
    outage_flags,
    shutdown_pool,
)
from oracle import decoded_relays, scalar_trial_outage, whole_batch_outage_flags


@pytest.fixture(autouse=True)
def _reap_pool():
    # estimate_outage keeps its pool between calls by design; tests calling
    # it directly must not hand their workers to the next test
    yield
    shutdown_pool()


class TestSampling:
    def test_inverse_cdf_at_zero(self):
        assert exponential_from_uniform(0.0, 1.0) == 0.0

    def test_inverse_cdf_at_mean_quantile(self):
        u = 1.0 - math.exp(-1.0)
        assert exponential_from_uniform(u, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_elementwise_on_arrays(self):
        u = np.array([0.0, 0.5, 0.9])
        out = exponential_from_uniform(u, 2.0)
        assert out == pytest.approx(-2.0 * np.log1p(-u))

    def test_seeded_sample_mean_golden(self):
        draws = exponential_from_uniform(batch_generator(2024, 0).random(10**6), 0.2)
        mean = float(draws.mean())
        assert 0.199 <= mean <= 0.201
        # pinned once; counter-based streams make this exactly reproducible
        assert mean == pytest.approx(0.19994563297574888, rel=1e-12)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_hypothesis_degenerate_posteriors(self, scheme, make_params):
        # pd=1, pf=0: every declared hole is H0, so the primary's power never
        # reaches a trial; pd=0: every one is H1, and interference only hurts
        always_h0 = [make_params(8.0, pd=1.0, pf=0.0, gamma_p_db=g) for g in (10.0, 40.0)]
        assert always_h0[0].posterior().pi1 == 0.0
        quiet, loud = (outage_flags(p, scheme, 20_000, 3) for p in always_h0)
        assert np.array_equal(quiet, loud)
        always_h1 = [make_params(8.0, pd=0.0, pf=0.5, gamma_p_db=g) for g in (10.0, 40.0)]
        assert always_h1[0].posterior().pi1 == 1.0
        weak, strong = (outage_flags(p, scheme, 20_000, 3) for p in always_h1)
        assert not np.any(quiet & ~weak) and weak.sum() > quiet.sum()
        assert not np.any(weak & ~strong) and strong.sum() > weak.sum()
        for params, flags in ((always_h0[1], loud), (always_h1[1], strong)):
            gen = batch_generator(3, 0)
            scalar = [scalar_trial_outage(gen, params, scheme) for _ in range(2000)]
            assert np.array_equal(flags[:2000], np.asarray(scalar))

    def test_hypothesis_frequency(self, make_params):
        # direct link at gamma_s = 120 dB and gamma_p = 3000 dB: a trial is in
        # outage exactly when the primary is active, so the flags are the
        # kernel's hypothesis draws
        params = make_params(120.0, gamma_p_db=3000.0)
        pi1 = params.posterior().pi1
        assert pi1 == pytest.approx(0.02702702702702703, rel=1e-12)
        u = batch_generator(8, 0).random((TRIALS_PER_BATCH, 3 * params.n_relays + 3))
        flags = outage_flags(params, Scheme.DIRECT, TRIALS_PER_BATCH, 8)
        assert np.array_equal(flags, u[:, 0] < pi1)
        n = 10**6
        hits = estimate_outage(params, Scheme.DIRECT, n, 8).p_hat
        assert abs(hits - pi1) <= 3.0 * math.sqrt(pi1 * (1.0 - pi1) / n)


class TestDecodingSet:
    # alpha is 0.0 under H0 (band free) and 1.0 under H1 (primary active)
    def test_no_signal_decodes_nothing(self, make_params):
        params = make_params(10.0, n_relays=2)
        decoded = decoded_relays(params, np.array([0.0, 0.0]), np.array([0.1, 0.1]), 0.0)
        assert decoded.tolist() == [False, False]

    def test_strong_signal_decodes_everything(self, make_params):
        params = make_params(10.0, n_relays=3)
        decoded = decoded_relays(params, np.array([0.6] * 3), np.array([5.0] * 3), 0.0)
        assert decoded.tolist() == [True, True, True]

    def test_interference_knocks_out_weak_relay(self, make_params):
        # relay 0: 0.5 > 0.3*(10*0.01 + 1) = 0.33 -> in
        # relay 1: 0.2 > 0.3*(10*1.0 + 1) = 3.3 -> out
        params = make_params(10.0, n_relays=2)
        decoded = decoded_relays(params, np.array([0.5, 0.2]), np.array([0.01, 1.0]), 1.0)
        assert decoded.tolist() == [True, False]

    def test_interference_is_the_only_difference(self, make_params):
        # both gains clear the bare 0.3 threshold, but under interference
        # relay 1 needs 3.3 and drops out
        params = make_params(10.0, n_relays=2)
        g_si, g_pi = np.array([0.5, 0.35]), np.array([0.01, 1.0])
        assert decoded_relays(params, g_si, g_pi, 0.0).tolist() == [True, True]
        assert decoded_relays(params, g_si, g_pi, 1.0).tolist() == [True, False]


class TestTrialOutage:
    def test_forced_outage(self, make_params):
        # rate so high the threshold is astronomically unreachable
        params = make_params(0.0, rate=40.0, n_relays=2)
        assert all(outage_flags(params, s, 50, 1).all() for s in Scheme)

    @pytest.mark.parametrize("heterogeneous", [False, True], ids=["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_scalar_path_matches_batch_kernel(self, scheme, heterogeneous, make_params):
        # a full batch, so every block boundary of the kernel is crossed
        variances = None
        if heterogeneous:
            variances = ChannelVariances(
                sigma2_si=(0.5, 1.0, 2.0, 0.8, 1.5),
                sigma2_pi=(0.1, 0.4, 0.2, 0.3, 0.25),
                sigma2_d=1.0,
                sigma2_pd=0.2,
                sigma2_sd=1.0,
            )
        params = make_params(8.0, pd=0.65, pf=0.35, n_relays=5, variances=variances)
        batch = _batch_outage_flags(params, (scheme,), 99, 0)[0]
        gen = batch_generator(99, 0)
        scalar = [scalar_trial_outage(gen, params, scheme) for _ in range(TRIALS_PER_BATCH)]
        assert np.array_equal(batch, np.asarray(scalar))

    def test_guaranteed_decoding_leaves_only_the_tail(self, make_params):
        # enormous first-hop variances make the decoding set full w.p. ~1, so
        # outage reduces to the combined-gain tail
        params = make_params(
            10.0, pf=0.0, n_relays=3, sigma2_si=1e9, sigma2_pi=0.2
        )
        flags = outage_flags(params, Scheme.MULTI_RELAY, 200_000, 303)
        expected = p_sum_below_h0(0.3, 1.0, 3)
        emp = float(flags.mean())
        assert abs(emp - expected) <= 4.0 * math.sqrt(expected * (1 - expected) / 200_000)


# every non-empty ordered subset of the schemes; a 1-tuple's id is its
# scheme's name
SCHEME_TUPLES = [t for r in (1, 2, 3) for t in itertools.permutations(Scheme, r)]


def _kernel_params(make_params, heterogeneous, n_relays, **kwargs):
    variances = None
    if heterogeneous:
        rng = np.random.default_rng(n_relays)
        variances = ChannelVariances(
            sigma2_si=tuple(rng.uniform(0.5, 2.0, n_relays)),
            sigma2_pi=tuple(rng.uniform(0.1, 0.4, n_relays)),
            sigma2_d=1.0,
            sigma2_pd=0.2,
            sigma2_sd=1.0,
        )
    return make_params(8.0, n_relays=n_relays, variances=variances, **kwargs)


# Row counts around the block and batch edges (BLOCK_ROWS = 2048), plus two
# that end inside a block: 576 and 848 are the rows the last batch of a
# 1e6-trial and a 50k-trial run uses.
PREFIX_ROWS = [1, 576, 848, 2047, 2048, 2049, 16383, 16384]


def kernel_cases(test):
    """Every ordered scheme subset, homogeneous and heterogeneous, N 1/6/24."""
    test = pytest.mark.parametrize(
        "schemes", SCHEME_TUPLES, ids=lambda t: "+".join(s.value for s in t)
    )(test)
    test = pytest.mark.parametrize(
        "heterogeneous", [False, True], ids=["homogeneous", "heterogeneous"]
    )(test)
    return pytest.mark.parametrize("n_relays", [1, 6, 24])(test)


class TestBlockedKernel:
    @kernel_cases
    def test_matches_whole_batch_kernel(self, schemes, heterogeneous, n_relays, make_params):
        # each scheme's row equals the oracle for that scheme alone, whatever
        # other schemes share the draw and in whatever order
        params = _kernel_params(make_params, heterogeneous, n_relays)
        for batch in (0, 1):
            flags = _batch_outage_flags(params, schemes, 4242, batch)
            assert flags.shape == (len(schemes), TRIALS_PER_BATCH)
            for row, scheme in zip(flags, schemes):
                assert np.array_equal(row, whole_batch_outage_flags(params, scheme, 4242, batch))

    @kernel_cases
    def test_prefix_matches_whole_batch_kernel(self, schemes, heterogeneous, n_relays, make_params):
        # drawing only the first `rows` rows leaves each of them as it is
        params = _kernel_params(make_params, heterogeneous, n_relays)
        whole = [whole_batch_outage_flags(params, s, 4242, 1) for s in schemes]
        for rows in PREFIX_ROWS:
            flags = _batch_outage_flags(params, schemes, 4242, 1, rows=rows)
            assert flags.shape == (len(schemes), rows)
            for row, reference in zip(flags, whole):
                assert np.array_equal(row, reference[:rows])

    @pytest.mark.parametrize(
        "pd, pf, pi1",
        [(1.0, 0.0, 0.0), (0.0, 0.1, 1.0), (0.65, 0.35, 0.11864406779661017)],
        ids=["no-h1-row", "all-h1-rows", "pd0.65-pf0.35"],
    )
    @pytest.mark.parametrize("heterogeneous", [False, True], ids=["homogeneous", "heterogeneous"])
    def test_h1_rows_edge_cases(self, pd, pf, pi1, heterogeneous, make_params):
        # the primary's gains are transformed on H1 rows only: an empty H1
        # index, one that covers every row, and a large H1 share
        params = _kernel_params(make_params, heterogeneous, 6, pd=pd, pf=pf)
        assert params.posterior().pi1 == pytest.approx(pi1, rel=1e-12, abs=0)
        schemes = tuple(Scheme)
        for rows in (TRIALS_PER_BATCH, 2049):
            flags = _batch_outage_flags(params, schemes, 99, 0, rows=rows)
            for row, scheme in zip(flags, schemes):
                assert np.array_equal(row, whole_batch_outage_flags(params, scheme, 99, 0)[:rows])


# (argument, value) pairs that are not integers, each alone in a call
NOT_INTEGERS = [
    ("trials", 100000.0), ("trials", True), ("trials", "100"),
    ("seed", 1.5), ("seed", False), ("seed", None),
    ("workers", 2.0), ("workers", True),
]


class TestEstimator:
    def test_single_forced_trial(self, make_params):
        params = make_params(0.0, rate=40.0, n_relays=2)
        est = estimate_outage(params, Scheme.MULTI_RELAY, 1, 7)
        assert est.p_hat == 1.0
        assert est.stderr == 0.0
        assert est.trials == 1

    def test_worker_count_does_not_change_estimate(self, make_params):
        # the second call reuses the first call's pool, later counts replace it
        params = make_params(5.0)
        trials = 50_000
        base = estimate_outage(params, Scheme.MULTI_RELAY, trials, 11, workers=1)
        pids = []
        for workers in (2, 2, 3, 8):
            est = estimate_outage(params, Scheme.MULTI_RELAY, trials, 11, workers=workers)
            assert est == base
            pids.append({p.pid for p in multiprocessing.active_children()})
            assert len(pids[-1]) == workers
        assert pids[0] == pids[1]
        assert pids[1].isdisjoint(pids[2])

    def test_longer_run_extends_shorter_one(self, make_params):
        params = make_params(8.0)
        short = outage_flags(params, Scheme.BEST_RELAY, 30_000, 5)
        long = outage_flags(params, Scheme.BEST_RELAY, 60_000, 5)
        assert np.array_equal(long[:30_000], short)
        est = estimate_outage(params, Scheme.BEST_RELAY, 60_000, 5)
        assert est.p_hat == pytest.approx(float(long.mean()), abs=0)

    def test_stderr_scales_as_inverse_sqrt_trials(self, make_params):
        params = make_params(0.0)
        small = estimate_outage(params, Scheme.DIRECT, 20_000, 13)
        big = estimate_outage(params, Scheme.DIRECT, 80_000, 13)
        assert big.stderr == pytest.approx(small.stderr / 2.0, rel=0.1)

    def test_estimate_matches_flags(self, make_params):
        params = make_params(10.0)
        flags = outage_flags(params, Scheme.DIRECT, 40_000, 21)
        est = estimate_outage(params, Scheme.DIRECT, 40_000, 21)
        assert est.p_hat == float(flags.mean())
        assert est.stderr == math.sqrt(est.p_hat * (1 - est.p_hat) / 40_000)

    def test_better_sensing_estimates_lower_outage(self, make_params):
        good = estimate_outage(
            make_params(15.0, pd=0.95, pf=0.05), Scheme.MULTI_RELAY, 10**6, 31
        )
        poor = estimate_outage(
            make_params(15.0, pd=0.65, pf=0.35), Scheme.MULTI_RELAY, 10**6, 31
        )
        assert good.p_hat < poor.p_hat

    def test_agrees_with_closed_form(self, make_params):
        params = make_params(10.0)
        est = estimate_outage(params, Scheme.MULTI_RELAY, 10**6, 12345)
        total = outage_multi_relay(params).total
        assert abs(est.p_hat - total) <= 3.0 * max(
            est.stderr, math.sqrt(total * (1 - total) / est.trials)
        )

    def test_estimate_validation(self, make_params):
        with pytest.raises(ValueError):
            OutageEstimate(p_hat=1.2, stderr=0.0, trials=10, seed=0)
        with pytest.raises(ValueError, match="stderr"):
            OutageEstimate(p_hat=0.5, stderr=0.9, trials=10, seed=0)
        params = make_params(10.0)
        with pytest.raises(ValueError, match="trials"):
            estimate_outage(params, Scheme.DIRECT, 0, 1)
        with pytest.raises(ValueError, match="workers"):
            estimate_outage(params, Scheme.DIRECT, 10, 1, workers=0)
        with pytest.raises(ValueError, match="workers"):
            estimate_outage(params, Scheme.DIRECT, 10**6, 1, workers=MAX_WORKERS + 1)
        for bad in ((), (Scheme.BEST_RELAY, Scheme.BEST_RELAY), (Scheme.DIRECT, "multi"), "multi"):
            with pytest.raises(ValueError, match="scheme"):
                estimate_outage(params, bad, 10**6, 1, workers=2)
        for name, bad in NOT_INTEGERS:
            args = {"trials": 10**6, "seed": 1, "workers": 2, name: bad}
            with pytest.raises(ValueError, match=name):
                estimate_outage(params, Scheme.DIRECT, **args)
        assert not multiprocessing.active_children()

    def test_outage_flags_validation(self, make_params):
        params = make_params(10.0)
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials"):
                outage_flags(params, Scheme.MULTI_RELAY, trials, 1)
        for name, bad in NOT_INTEGERS:
            if name != "workers":
                args = {"trials": 100, "seed": 1, name: bad}
                with pytest.raises(ValueError, match=name):
                    outage_flags(params, Scheme.MULTI_RELAY, **args)
        assert outage_flags(params, Scheme.MULTI_RELAY, 1, 1).shape == (1,)
        assert np.array_equal(
            outage_flags(params, Scheme.MULTI_RELAY, np.int64(100), np.uint64(1)),
            outage_flags(params, Scheme.MULTI_RELAY, 100, 1),
        )

    @pytest.mark.parametrize("trials", [50_000, 10**6])
    def test_draws_only_the_uniforms_of_its_trials(self, trials, make_params, monkeypatch):
        # every trial reads one row of 3N+3 uniforms, and nothing else is drawn
        drawn = []

        class CountingGenerator:
            def __init__(self, gen):
                self.gen = gen

            def random(self, size):
                drawn.append(math.prod(size))
                return self.gen.random(size)

        make_generator = montecarlo.batch_generator
        monkeypatch.setattr(
            montecarlo, "batch_generator", lambda *key: CountingGenerator(make_generator(*key))
        )
        params = make_params(10.0)
        estimate_outage(params, tuple(Scheme), trials, 3)
        assert sum(drawn) == trials * (3 * params.n_relays + 3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scheme_tuple_matches_single_scheme_calls(self, workers, make_params):
        # 50,000 trials end in a partial batch
        params = make_params(5.0)
        schemes = (Scheme.MULTI_RELAY, Scheme.DIRECT, Scheme.BEST_RELAY)
        fused = estimate_outage(params, schemes, 50_000, 17, workers=workers)
        assert isinstance(fused, tuple)
        assert fused == tuple(estimate_outage(params, s, 50_000, 17) for s in schemes)
        assert estimate_outage(params, (Scheme.DIRECT,), 50_000, 17, workers=workers) == (fused[1],)


class TestWorkerPool:
    SPEC = {"sensing_pairs": [[0.9, 0.1]], "relay_counts": [4, 6],
            "gamma_s_db": [5.0, 15.0], "trials": 40_000, "seed": 3}

    def test_sweep_matches_one_worker_and_reaps_its_workers(self):
        # within every scheme the sweep moves from N=4 to N=6, so the pool's
        # workers run batches of both widths in turn
        spec = build_spec(self.SPEC)
        outputs = []
        for workers in (1, 2):
            buf = io.StringIO()
            run_sweep(spec, buf, workers=workers)
            outputs.append(buf.getvalue())
            assert not multiprocessing.active_children()
        assert len(outputs[0].splitlines()) == 1 + 12
        assert outputs[0] == outputs[1]

    def test_closing_a_sweep_early_reaps_its_workers(self):
        rows = iter_sweep_rows(build_spec(self.SPEC), workers=2)
        next(rows)
        assert len(multiprocessing.active_children()) == 2
        rows.close()
        assert not multiprocessing.active_children()

    def test_failed_map_drops_the_pool(self, make_params, monkeypatch):
        params = make_params(5.0)
        estimate_outage(params, Scheme.DIRECT, 50_000, 1, workers=2)
        assert len(multiprocessing.active_children()) == 2
        # int(task) raises TypeError inside the worker
        monkeypatch.setattr(montecarlo, "_batch_outage_count", int)
        with pytest.raises(TypeError):
            estimate_outage(params, Scheme.DIRECT, 50_000, 1, workers=2)
        assert not multiprocessing.active_children()
        monkeypatch.undo()
        assert estimate_outage(params, Scheme.DIRECT, 50_000, 1, workers=2) == estimate_outage(
            params, Scheme.DIRECT, 50_000, 1, workers=1
        )


class TestPathwiseDominance:
    def test_multi_never_fails_where_best_succeeds(self, make_params):
        params = make_params(6.0)
        multi = outage_flags(params, Scheme.MULTI_RELAY, 100_000, 777)
        best = outage_flags(params, Scheme.BEST_RELAY, 100_000, 777)
        assert not np.any(multi & ~best)
        assert best.sum() >= multi.sum()


class TestDecodingSetDistribution:
    def test_cardinality_frequencies_match_closed_form(self, make_params):
        # independent sample-path draw straight from numpy, compared to the
        # grouped closed-form pmf
        params = make_params(10.0)
        pmf = decoding_cardinality_pmf(params)
        post = params.posterior()
        thr = params.snr_threshold()
        n, trials = params.n_relays, 10**6
        rng = np.random.default_rng(2468)
        alpha = (rng.random(trials) < post.pi1).astype(float)
        g_si = rng.exponential(1.0, (trials, n))
        g_pi = rng.exponential(0.2, (trials, n))
        decoded = g_si > thr.delta * (alpha[:, None] * params.gamma_p * g_pi + 1.0)
        counts = np.bincount(decoded.sum(axis=1), minlength=n + 1)
        for k in range(n + 1):
            se = math.sqrt(pmf[k] * (1 - pmf[k]) / trials)
            assert abs(counts[k] / trials - pmf[k]) <= 4.0 * se + 1e-9
