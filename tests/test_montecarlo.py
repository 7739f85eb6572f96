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
from cogrelay.model import ChannelVariances, Hypothesis, Posterior, Scheme
from cogrelay.montecarlo import (
    MAX_WORKERS,
    TRIALS_PER_BATCH,
    ChannelState,
    MrcResult,
    OutageEstimate,
    _batch_outage_flags,
    batch_generator,
    decoding_set,
    estimate_outage,
    exponential_from_uniform,
    mrc_combine,
    outage_flags,
    sample_channel_state,
    sample_exponential,
    sample_hypothesis,
    shutdown_pool,
    trial_outage,
)
from oracle import whole_batch_outage_flags


@pytest.fixture(autouse=True)
def _reap_pool():
    # estimate_outage keeps its pool between calls by design; tests calling
    # it directly must not hand their workers to the next test
    yield
    shutdown_pool()


def make_state(g_si, g_pi, g_id, g_pd=0.0, g_sd=0.0):
    return ChannelState(
        g_si=np.asarray(g_si, float),
        g_pi=np.asarray(g_pi, float),
        g_id=np.asarray(g_id, float),
        g_pd=g_pd,
        g_sd=g_sd,
    )


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
        gen = batch_generator(2024, 0)
        draws = sample_exponential(gen, 0.2, 10**6)
        mean = float(draws.mean())
        assert 0.199 <= mean <= 0.201
        # pinned once; counter-based streams make this exactly reproducible
        assert mean == pytest.approx(0.19994563297574888, rel=1e-12)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            sample_exponential(batch_generator(0, 0), 0.0)

    def test_hypothesis_degenerate_posteriors(self):
        gen = batch_generator(3, 0)
        assert all(
            sample_hypothesis(gen, Posterior(1.0, 0.0)) is Hypothesis.H0
            for _ in range(500)
        )
        assert all(
            sample_hypothesis(gen, Posterior(0.0, 1.0)) is Hypothesis.H1
            for _ in range(500)
        )

    def test_hypothesis_frequency(self):
        pi1 = 0.02702702702702703
        post = Posterior(1.0 - pi1, pi1)
        gen = batch_generator(8, 0)
        n = 10**6
        hits = sum(sample_hypothesis(gen, post) is Hypothesis.H1 for _ in range(n))
        bound = 3.0 * math.sqrt(pi1 * (1.0 - pi1) / n)
        assert abs(hits / n - pi1) <= bound

    def test_channel_state_shapes(self, make_params):
        state = sample_channel_state(batch_generator(5, 0), make_params(10.0))
        assert state.g_si.shape == (6,)
        assert np.all(state.g_si >= 0) and state.g_pd >= 0 and state.g_sd >= 0


class TestDecodingSet:
    def test_no_signal_decodes_nothing(self, make_params):
        params = make_params(10.0, n_relays=2)
        thr = params.snr_threshold()
        state = make_state([0.0, 0.0], [0.1, 0.1], [1.0, 1.0])
        assert decoding_set(state, Hypothesis.H0, thr, params).is_empty

    def test_strong_signal_decodes_everything(self, make_params):
        params = make_params(10.0, n_relays=3)
        thr = params.snr_threshold()
        state = make_state([0.6] * 3, [5.0] * 3, [1.0] * 3)
        dset = decoding_set(state, Hypothesis.H0, thr, params)
        assert dset.mask == 0b111

    def test_interference_knocks_out_weak_relay(self, make_params):
        # relay 0: 0.5 > 0.3*(10*0.01 + 1) = 0.33 -> in
        # relay 1: 0.2 > 0.3*(10*1.0 + 1) = 3.3 -> out
        params = make_params(10.0, n_relays=2)
        thr = params.snr_threshold()
        state = make_state([0.5, 0.2], [0.01, 1.0], [1.0, 1.0])
        dset = decoding_set(state, Hypothesis.H1, thr, params)
        assert dset.mask == 0b01

    def test_interference_is_the_only_difference(self, make_params):
        # both gains clear the bare 0.3 threshold, but under interference
        # relay 1 needs 3.3 and drops out
        params = make_params(10.0, n_relays=2)
        thr = params.snr_threshold()
        state = make_state([0.5, 0.35], [0.01, 1.0], [1.0, 1.0])
        assert decoding_set(state, Hypothesis.H0, thr, params).mask == 0b11
        assert decoding_set(state, Hypothesis.H1, thr, params).mask == 0b01


class TestMrcCombine:
    def test_singleton(self, make_params):
        params = make_params(10.0, n_relays=1)
        dset = decoding_set(
            make_state([1.0], [0.0], [0.7]), Hypothesis.H0, params.snr_threshold(), params
        )
        res = mrc_combine(make_state([1.0], [0.0], [0.7]), dset, Hypothesis.H0, params)
        assert res.weights == pytest.approx([1.0])
        assert res.sinr == pytest.approx(10.0 * 0.7)

    def test_interference_free_pair(self, make_params):
        from cogrelay.analytic import DecodingSet

        params = make_params(10.0, n_relays=2)
        state = make_state([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        res = mrc_combine(
            state, DecodingSet(mask=0b11, n_relays=2), Hypothesis.H0, params
        )
        assert res.sinr == pytest.approx(20.0, rel=1e-12)

    def test_interfered_pair(self, make_params):
        from cogrelay.analytic import DecodingSet

        params = make_params(10.0, n_relays=2)
        state = make_state([1.0, 1.0], [0.0, 0.0], [0.4, 0.6], g_pd=0.1)
        res = mrc_combine(
            state, DecodingSet(mask=0b11, n_relays=2), Hypothesis.H1, params
        )
        # 10 * (0.4+0.6) / (10*0.1 + 1) = 5
        assert res.sinr == pytest.approx(5.0, rel=1e-12)

    def test_empty_set_is_contract_violation(self, make_params):
        from cogrelay.analytic import DecodingSet

        params = make_params(10.0, n_relays=2)
        state = make_state([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="empty"):
            mrc_combine(state, DecodingSet(mask=0, n_relays=2), Hypothesis.H0, params)

    def test_weights_unit_norm_and_match_closed_form(self, make_params):
        from cogrelay.analytic import DecodingSet

        params = make_params(10.0, n_relays=4)
        rng = np.random.default_rng(44)
        for _ in range(200):
            g_id = rng.exponential(1.0, 4)
            g_pd = float(rng.exponential(0.2))
            state = make_state(np.ones(4), np.zeros(4), g_id, g_pd=g_pd)
            mask = int(rng.integers(1, 16))
            dset = DecodingSet(mask=mask, n_relays=4)
            res = mrc_combine(state, dset, Hypothesis.H1, params)
            assert np.linalg.norm(res.weights) == pytest.approx(1.0, abs=1e-12)
            members = list(dset.relays())
            expected = 10.0 * g_id[members].sum() / (10.0 * g_pd + 1.0)
            assert res.sinr == pytest.approx(expected, rel=1e-10)

    def test_no_unit_norm_alternative_beats_mrc(self, make_params):
        # Cauchy-Schwarz: (w . sqrt(g))^2 <= sum(g) for any unit-norm w
        from cogrelay.analytic import DecodingSet

        params = make_params(10.0, n_relays=5)
        rng = np.random.default_rng(45)
        for _ in range(1000):
            g_id = rng.exponential(1.0, 5)
            state = make_state(np.ones(5), np.zeros(5), g_id)
            dset = DecodingSet(mask=0b11111, n_relays=5)
            res = mrc_combine(state, dset, Hypothesis.H0, params)
            alt = rng.normal(size=5)
            alt /= np.linalg.norm(alt)
            alt_sinr = 10.0 * float(alt @ np.sqrt(g_id)) ** 2
            assert alt_sinr <= res.sinr * (1.0 + 1e-12)

    def test_result_type_validates_norm(self):
        with pytest.raises(ValueError, match="unit norm"):
            MrcResult(weights=np.array([0.5, 0.5]), sinr=1.0)


class TestTrialOutage:
    def test_forced_outage(self, make_params):
        # rate so high the threshold is astronomically unreachable
        params = make_params(0.0, rate=40.0, n_relays=2)
        gen = batch_generator(1, 0)
        assert all(trial_outage(gen, params, s) for s in Scheme for _ in range(50))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_scalar_path_matches_batch_kernel(self, scheme, make_params):
        # a full batch, so every block boundary of the kernel is crossed
        params = make_params(8.0, pd=0.65, pf=0.35, n_relays=5)
        batch = _batch_outage_flags(params, (scheme,), 99, 0)[0]
        gen = batch_generator(99, 0)
        scalar = [trial_outage(gen, params, scheme) for _ in range(TRIALS_PER_BATCH)]
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


class TestBlockedKernel:
    @pytest.mark.parametrize("n_relays", [1, 6, 24])
    @pytest.mark.parametrize("heterogeneous", [False, True], ids=["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize(
        "schemes", SCHEME_TUPLES, ids=lambda t: "+".join(s.value for s in t)
    )
    def test_matches_whole_batch_kernel(self, schemes, heterogeneous, n_relays, make_params):
        # each scheme's row equals the oracle for that scheme alone, whatever
        # other schemes share the draw and in whatever order
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
        params = make_params(8.0, n_relays=n_relays, variances=variances)
        for batch in (0, 1):
            flags = _batch_outage_flags(params, schemes, 4242, batch)
            assert flags.shape == (len(schemes), TRIALS_PER_BATCH)
            for row, scheme in zip(flags, schemes):
                assert np.array_equal(row, whole_batch_outage_flags(params, scheme, 4242, batch))


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
        assert not multiprocessing.active_children()

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
