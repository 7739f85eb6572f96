import dataclasses
import functools
import io
import itertools
import math
import multiprocessing

import numpy as np
import pytest

from cogrelay import montecarlo
from cogrelay.analytic import (
    _cardinality_pmf,
    _first_hop,
    outage_multi_relay,
    p_sum_below_h0,
)
from cogrelay.cli import build_spec, iter_sweep_rows, run_sweep
from cogrelay.model import ChannelVariances, Scheme, db_to_linear
from cogrelay.montecarlo import (
    MAX_WORKERS,
    TRIALS_PER_BATCH,
    OutageEstimate,
    _batch_outage_flags,
    _column_sum,
    batch_generator,
    estimate_outage,
    exponential_from_uniform,
    outage_flags,
)
from oracle import decoded_relays, scalar_trial_outage, whole_batch_outage_flags


@pytest.fixture
def drawn_uniforms(monkeypatch):
    """The sizes of every uniform draw the kernel makes, in order, counted by
    a proxy around each batch's generator."""
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
    return drawn


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

    def test_out_matches_default_path(self):
        # the kernel transforms relay-major copies in place: each element has
        # the bits of the default path on the trial-major columns
        u = batch_generator(5, 0).random((2049, 7))
        mean = np.array([0.5, 1.0, 2.0, 0.2, 1.5, 0.8, 1.0])
        expected = exponential_from_uniform(u, mean)
        relay_major = np.ascontiguousarray(u.T)
        result = exponential_from_uniform(relay_major, mean[:, None], out=relay_major)
        assert result is relay_major
        assert np.array_equal(relay_major.T.view(np.int64), expected.view(np.int64))
        out = np.empty_like(u)
        assert exponential_from_uniform(u, 0.2, out=out) is out
        assert np.array_equal(out.view(np.int64), exponential_from_uniform(u, 0.2).view(np.int64))

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
        assert always_h0[0].pi1 == 0.0
        quiet, loud = (outage_flags(p, scheme, 20_000, 3) for p in always_h0)
        assert np.array_equal(quiet, loud)
        always_h1 = [make_params(8.0, pd=0.0, pf=0.5, gamma_p_db=g) for g in (10.0, 40.0)]
        assert always_h1[0].pi1 == 1.0
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
        pi1 = params.pi1
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
        batch = _batch_outage_flags((params,), (scheme,), 99, 0)[0, 0]
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


# every non-empty ordered subset of the schemes (15)
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

# the prefix calls' scheme tuples: the early stop is keyed on both relay
# schemes, on multi alone, or (direct alone) on no relay scheme at all
PREFIX_SCHEMES = [
    (Scheme.BEST_RELAY, Scheme.DIRECT, Scheme.MULTI_RELAY),
    (Scheme.MULTI_RELAY,),
    (Scheme.DIRECT,),
]


class TestColumnSum:
    @pytest.mark.parametrize("n_relays", range(1, 25))
    @pytest.mark.parametrize("rows", [1, 7, 2048])
    def test_adds_relays_in_index_order(self, n_relays, rows):
        # the multi-relay flags rest on these bits: each trial's sum is the
        # left-to-right sum of its relays, which ndarray.sum (pairwise from
        # 8 terms on) does not give
        rng = np.random.default_rng(n_relays * rows)
        forwarded = exponential_from_uniform(rng.random((n_relays, rows)), 1.0)
        forwarded *= rng.random((n_relays, rows)) < 0.6
        expected = np.add.accumulate(forwarded, axis=0)[-1]
        got = _column_sum(forwarded)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def _line_points(make_params, heterogeneous, n_relays, gammas_db, **kwargs):
    """Points of one sweep line: the kernel case's parameters at each gamma_s."""
    base = _kernel_params(make_params, heterogeneous, n_relays, **kwargs)
    return tuple(dataclasses.replace(base, gamma_s=db_to_linear(g)) for g in gammas_db)


# gamma_s tuples of one sweep line: a single point, unordered points with a
# repeated value, and an unordered line reaching 40, 60 and 120 dB, on which
# the kernel stops its relay tests before the last point in every block of
# every case below (at N = 1 only 120 dB is free of relay outage)
LINE_GAMMAS = [(8.0,), (20.0, 0.0, 8.0, 0.0, -5.0), (60.0, 0.0, 40.0, 8.0, 40.0, 120.0)]

# sensing pairs with no H1 row, only H1 rows, and a large H1 share
SENSING = [(1.0, 0.0), (0.0, 0.1), (0.65, 0.35)]

# the pairs of one draw group: the headline pair and the edge cases above
GROUP_PAIRS = [(0.9, 0.1), *SENSING]


@functools.cache
def _oracle_flags(point, scheme, batch):
    """The oracle's flags at `point` alone for seed 77.  A draw group, its
    lines and its prefixes ask for the same (point, scheme, batch) across
    many cases, and each oracle call redraws the whole batch."""
    return whole_batch_outage_flags(point, scheme, 77, batch)


def _check_kernel(points, schemes, batch, rows):
    """The kernel's flags for `points` equal the oracle's flags at each
    point alone, for every point and scheme."""
    flags = _batch_outage_flags(points, schemes, 77, batch, rows=rows)
    assert flags.shape == (len(points), len(schemes), rows)
    for per_point, point in zip(flags, points):
        for row, scheme in zip(per_point, schemes):
            assert np.array_equal(row, _oracle_flags(point, scheme, batch)[:rows])


def _draw_group(make_params, heterogeneous, n_relays):
    """One draw group: every line of LINE_GAMMAS at each of the four
    GROUP_PAIRS, the points of all twelve lines interleaved."""
    lines = [
        _line_points(make_params, heterogeneous, n_relays, gammas_db, pd=pd, pf=pf)
        for gammas_db in LINE_GAMMAS
        for pd, pf in GROUP_PAIRS
    ]
    interleaved = itertools.chain.from_iterable(itertools.zip_longest(*lines))
    return tuple(p for p in interleaved if p is not None)


def kernel_cases(test):
    """Homogeneous and heterogeneous variances at N 1/6/24."""
    test = pytest.mark.parametrize(
        "heterogeneous", [False, True], ids=["homogeneous", "heterogeneous"]
    )(test)
    return pytest.mark.parametrize("n_relays", [1, 6, 24])(test)


def _schemes_id(schemes):
    return "+".join(s.value for s in schemes)


class TestBlockedKernel:
    # In a draw group each pair takes its own H1 rows from those of the
    # largest pi1 and runs its own early stop, and every point gets exactly
    # the oracle's flags at that point alone
    @kernel_cases
    @pytest.mark.parametrize("schemes", SCHEME_TUPLES, ids=_schemes_id)
    def test_matches_whole_batch_kernel(self, schemes, heterogeneous, n_relays, make_params):
        # whatever other schemes share the draw and in whatever order
        points = _draw_group(make_params, heterogeneous, n_relays)
        _check_kernel(points, schemes, 1, TRIALS_PER_BATCH)

    @kernel_cases
    @pytest.mark.parametrize("schemes", PREFIX_SCHEMES, ids=_schemes_id)
    @pytest.mark.parametrize("rows", PREFIX_ROWS[:-1])
    def test_prefix_matches_whole_batch_kernel(
        self, rows, schemes, heterogeneous, n_relays, make_params
    ):
        # drawing only the first `rows` rows leaves each of them as it is
        points = _draw_group(make_params, heterogeneous, n_relays)
        _check_kernel(points, schemes, 1, rows)

    @kernel_cases
    @pytest.mark.parametrize(
        "pd, pf, pi1",
        [
            (0.9, 0.1, 0.02702702702702703),
            (1.0, 0.0, 0.0),
            (0.0, 0.1, 1.0),
            (0.65, 0.35, 0.11864406779661017),
        ],
        ids=["headline", "no-h1-row", "all-h1-rows", "pd0.65-pf0.35"],
    )
    def test_h1_rows_edge_cases(self, pd, pf, pi1, heterogeneous, n_relays, make_params):
        # batch 0, the pair's 8 dB point alone in its call: alone, the no-H1
        # pair transforms no primary gain and the all-H1 pair every one
        point = _kernel_params(make_params, heterogeneous, n_relays, pd=pd, pf=pf)
        assert point.pi1 == pytest.approx(pi1, rel=1e-12, abs=0)
        for rows in (TRIALS_PER_BATCH, 2049):
            _check_kernel((point,), PREFIX_SCHEMES[0], 0, rows)


class TestOutageMonotoneInSnr:
    # the kernel's early stop rests on this: at a higher gamma_s a trial can
    # only leave outage, never enter it, for each scheme; checked on the
    # reference kernel, which tests every point
    @pytest.mark.parametrize("pd, pf", SENSING, ids=["no-h1-row", "all-h1-rows", "pd0.65-pf0.35"])
    @pytest.mark.parametrize("heterogeneous", [False, True], ids=["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("n_relays", [1, 6, 24])
    def test_flags_at_higher_gamma_s_are_a_subset(self, n_relays, heterogeneous, pd, pf, make_params):
        gammas_db = (-5.0, 0.0, 8.0, 20.0, 40.0, 60.0)
        points = _line_points(make_params, heterogeneous, n_relays, gammas_db, pd=pd, pf=pf)
        for scheme in Scheme:
            flags = [whole_batch_outage_flags(p, scheme, 77, 1) for p in points]
            for lower, higher in zip(flags, flags[1:]):
                assert not np.any(higher & ~lower)
            assert flags[0].sum() > flags[-1].sum()


# sensing pairs in increasing pi1 at p0 = 0.8
PAIRS_BY_PI1 = [(1.0, 0.0), (0.95, 0.05), (0.9, 0.1), (0.65, 0.35), (0.0, 0.1)]


class TestOutageMonotoneInSensing:
    # a higher pi1 makes more trials H1 (u0 < pi1), and on an H1 trial the
    # primary only raises the decode threshold and the outage limit; so at
    # fixed N, seed and gamma_s a trial can only enter outage as pi1 grows,
    # for each scheme, on the draw the pairs share
    @pytest.mark.parametrize("heterogeneous", [False, True], ids=["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("n_relays", [1, 6, 24])
    def test_flags_at_higher_pi1_are_a_superset(self, n_relays, heterogeneous, make_params):
        counts = 0
        for g_db in (0.0, 8.0, 20.0):
            points = tuple(
                _line_points(make_params, heterogeneous, n_relays, (g_db,), pd=pd, pf=pf)[0]
                for pd, pf in PAIRS_BY_PI1
            )
            pi1 = [p.pi1 for p in points]
            assert pi1 == sorted(set(pi1))
            flags = _batch_outage_flags(points, tuple(Scheme), 77, 1)
            for lower, higher in zip(flags, flags[1:]):
                assert not np.any(lower & ~higher)
            counts = counts + flags.sum(axis=2)
        # per scheme, the all-H1 pair sees more outage than the no-H1 pair
        assert np.all(counts[0] < counts[-1])

    def test_fused_estimates_rise_with_pi1(self, make_params):
        # one call for every pair: the estimates never fall as pi1 grows,
        # and (0.95, 0.05) sees strictly less outage than (0.65, 0.35)
        points = tuple(make_params(15.0, pd=pd, pf=pf) for pd, pf in PAIRS_BY_PI1)
        fused = estimate_outage(points, tuple(Scheme), 200_000, 31)
        for k in range(len(Scheme)):
            p_hat = [per_point[k].p_hat for per_point in fused]
            assert p_hat == sorted(p_hat)
            assert p_hat[1] < p_hat[3]


class TestSweepLine:
    @kernel_cases
    @pytest.mark.parametrize("gammas_db", LINE_GAMMAS, ids=["one-point", "repeated", "early-stop"])
    @pytest.mark.parametrize(
        "pd, pf", GROUP_PAIRS, ids=["headline", "no-h1-row", "all-h1-rows", "pd0.65-pf0.35"]
    )
    def test_points_match_whole_batch_kernel(
        self, pd, pf, gammas_db, heterogeneous, n_relays, make_params
    ):
        # one line alone in its call, so its own pair sets the H1 rows: every
        # point sharing the draw gets exactly the flags of the oracle at that
        # point alone, for the full batch and two prefixes, with the early
        # stop keyed on both relay schemes, on multi alone, or on none
        points = _line_points(make_params, heterogeneous, n_relays, gammas_db, pd=pd, pf=pf)
        for schemes in PREFIX_SCHEMES:
            for rows in (TRIALS_PER_BATCH, 1, 2049):
                _check_kernel(points, schemes, 1, rows)

    @kernel_cases
    def test_sensing_pairs_match_whole_batch_kernel(self, heterogeneous, n_relays, make_params):
        # the early-stop lines of the four pairs share one draw, their points
        # interleaved by gamma_s, without the other lines of a draw group
        lines = [
            _line_points(make_params, heterogeneous, n_relays, LINE_GAMMAS[-1], pd=pd, pf=pf)
            for pd, pf in GROUP_PAIRS
        ]
        points = tuple(p for same_gamma in zip(*lines) for p in same_gamma)
        for schemes in PREFIX_SCHEMES:
            for rows in (TRIALS_PER_BATCH, 1, 2049):
                _check_kernel(points, schemes, 1, rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_point_tuple_matches_single_point_calls(self, workers, make_params):
        # 50,000 trials end in a partial batch
        points = _line_points(make_params, False, 6, (30.0, 0.0, 10.0, 0.0, 5.0), pd=0.65, pf=0.35)
        schemes = (Scheme.MULTI_RELAY, Scheme.DIRECT, Scheme.BEST_RELAY)
        fused = estimate_outage(points, schemes, 50_000, 17, workers=workers)
        assert fused == tuple(estimate_outage(p, schemes, 50_000, 17) for p in points)
        assert len({e.p_hat for per_point in fused for e in per_point}) > len(schemes)
        best = estimate_outage(points, Scheme.BEST_RELAY, 50_000, 17, workers=workers)
        assert best == tuple(per_point[2] for per_point in fused)
        assert estimate_outage(points[:1], schemes, 50_000, 17, workers=workers) == fused[:1]

    @pytest.mark.parametrize(
        "pairs", [((0.9, 0.1),), ((0.9, 0.1), (0.8, 0.2), (0.65, 0.35))],
        ids=["one-pair", "three-pairs"],
    )
    @pytest.mark.parametrize("relay_counts", [(6,), (4, 6)], ids=["one-line", "two-lines"])
    @pytest.mark.parametrize("trials", [50_000, 10**6])
    def test_line_draws_the_uniforms_of_its_trials_once(
        self, trials, relay_counts, pairs, make_params, drawn_uniforms
    ):
        # the seven points of a line read the same trials: one draw per line,
        # not seven, also when the points of two lines come interleaved; and
        # the lines of every sensing pair at one N share that draw too
        gammas_db = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        points = tuple(
            make_params(g, pd=pd, pf=pf, n_relays=n)
            for g in gammas_db for n in relay_counts for pd, pf in pairs
        )
        estimate_outage(points, tuple(Scheme), trials, 3)
        assert sum(drawn_uniforms) == sum(trials * (3 * n + 3) for n in relay_counts)

    @pytest.mark.parametrize(
        "scheme", [Scheme.BEST_RELAY, tuple(Scheme)], ids=["one-scheme", "all-schemes"]
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_points_of_several_lines_match_single_point_calls(self, workers, scheme, make_params):
        # four lines (pd 0.9 and 0.8, N = 4 and 6), interleaved, and one
        # point repeated; 50,000 trials end in a partial batch
        points = tuple(
            make_params(g, pd=pd, n_relays=n)
            for g in (25.0, 5.0) for n in (6, 4) for pd in (0.9, 0.8)
        )
        points += (points[3],)
        fused = estimate_outage(points, scheme, 50_000, 17, workers=workers)
        assert fused == tuple(estimate_outage(p, scheme, 50_000, 17) for p in points)
        assert fused[-1] == fused[3]

    def test_points_of_other_rates_share_the_draw(self, make_params, drawn_uniforms):
        # rate, like gamma_s and the sensing pair, moves only the thresholds:
        # one draw group, and each entry still equals its single-point call
        points = tuple(
            make_params(g, pd=pd, rate=rate)
            for g in (5.0, 20.0) for pd in (0.9, 0.7) for rate in (1.0, 0.5)
        )
        fused = estimate_outage(points, tuple(Scheme), 50_000, 17)
        assert sum(drawn_uniforms) == 50_000 * (3 * 6 + 3)
        assert fused == tuple(estimate_outage(p, tuple(Scheme), 50_000, 17) for p in points)

    def test_bad_point_tuples_are_refused(self, make_params):
        params = make_params(10.0)
        for bad, message in (((), "empty"), ((params, "10 dB"), "SystemParams"),
                             ("10 dB", "SystemParams")):
            with pytest.raises(ValueError, match=message):
                estimate_outage(bad, Scheme.DIRECT, 10**6, 1, workers=2)
        assert not multiprocessing.active_children()


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
        params = make_params(5.0)
        trials = 50_000
        base = estimate_outage(params, Scheme.MULTI_RELAY, trials, 11, workers=1)
        for workers in (2, 3, 8):
            assert estimate_outage(params, Scheme.MULTI_RELAY, trials, 11, workers=workers) == base

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

    def test_agrees_with_closed_form(self, make_params):
        params = make_params(10.0)
        est = estimate_outage(params, Scheme.MULTI_RELAY, 10**6, 12345)
        total = outage_multi_relay(params).total
        assert abs(est.p_hat - total) <= 3.0 * max(
            est.stderr, math.sqrt(total * (1 - total) / est.trials)
        )

    def test_estimate_validation(self, make_params):
        with pytest.raises(ValueError):
            OutageEstimate(p_hat=1.2, trials=10, seed=0)
        with pytest.raises(ValueError, match="trials"):
            OutageEstimate(p_hat=0.5, trials=0, seed=0)
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
        # Scheme is a str enum: "multi" must not pass for Scheme.MULTI_RELAY
        # (the kernel tells the schemes apart by identity), and one call
        # serves one point and one scheme
        for bad in ("multi", "direct", None, (Scheme.MULTI_RELAY,), tuple(Scheme)):
            with pytest.raises(ValueError, match="Scheme"):
                outage_flags(params, bad, 100, 1)
        for bad in ("10 dB", (params,), ()):
            with pytest.raises(ValueError, match="SystemParams"):
                outage_flags(bad, Scheme.MULTI_RELAY, 100, 1)
        assert outage_flags(params, Scheme.MULTI_RELAY, 1, 1).shape == (1,)
        assert np.array_equal(
            outage_flags(params, Scheme.MULTI_RELAY, np.int64(100), np.uint64(1)),
            outage_flags(params, Scheme.MULTI_RELAY, 100, 1),
        )

    @pytest.mark.parametrize("trials", [50_000, 10**6])
    def test_draws_only_the_uniforms_of_its_trials(self, trials, make_params, drawn_uniforms):
        # every trial reads one row of 3N+3 uniforms, and nothing else is drawn
        params = make_params(10.0)
        estimate_outage(params, tuple(Scheme), trials, 3)
        assert sum(drawn_uniforms) == trials * (3 * params.n_relays + 3)

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
        # the sweep's one call holds the N=4 and N=6 lines, so the pool's
        # workers run batches of both widths in one map
        spec = build_spec(self.SPEC)
        outputs = []
        for workers in (1, 2):
            buf = io.StringIO()
            run_sweep(spec, buf, workers=workers)
            outputs.append(buf.getvalue())
            assert not multiprocessing.active_children()
        assert len(outputs[0].splitlines()) == 1 + 12
        assert outputs[0] == outputs[1]

    def test_heaviest_first_dispatch_matches_one_worker(self, make_params, monkeypatch):
        dispatched = []

        class RecordingPool(montecarlo.ProcessPoolExecutor):
            def map(self, fn, tasks, **kwargs):
                dispatched.append([rows * (3 * points[0].n_relays + 3)
                                   for points, _, _, _, rows in tasks])
                return super().map(fn, tasks, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        # three draw groups of different widths, out of N order, one point
        # repeated; the last batch of each group is partial
        points = (make_params(5.0, n_relays=7), make_params(15.0, n_relays=2),
                  make_params(10.0, n_relays=12), make_params(5.0, n_relays=7),
                  make_params(0.0, n_relays=2))
        trials = 2 * TRIALS_PER_BATCH + 5
        schemes = tuple(Scheme)
        results = [estimate_outage(points, schemes, trials, 9, workers=w) for w in (1, 2, 3)]
        assert not multiprocessing.active_children()
        assert results[0] == results[1] == results[2]
        assert results[0][0] == results[0][3]
        assert results[0] == tuple(estimate_outage(p, schemes, trials, 9) for p in points)
        # both pooled calls took the widest full batches first
        assert len(dispatched) == 2
        for weights in dispatched:
            assert weights == sorted(weights, reverse=True)
            assert weights[0] == TRIALS_PER_BATCH * (3 * 12 + 3)

    def test_closing_a_sweep_early_reaps_its_workers(self):
        # every estimate is in before the first row, and its pool is gone
        rows = iter_sweep_rows(build_spec(self.SPEC), workers=2)
        next(rows)
        assert not multiprocessing.active_children()
        rows.close()
        assert not multiprocessing.active_children()

    def test_interrupted_map_reaps_its_workers(self, make_params, monkeypatch):
        class InterruptedPool(montecarlo.ProcessPoolExecutor):
            def map(self, *args, **kwargs):
                results = super().map(*args, **kwargs)
                next(results)
                raise KeyboardInterrupt

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InterruptedPool)
        with pytest.raises(KeyboardInterrupt):
            estimate_outage(make_params(5.0), Scheme.DIRECT, 10**6, 1, workers=2)
        assert not multiprocessing.active_children()

    def test_failed_map_drops_the_pool(self, make_params, monkeypatch):
        params = make_params(5.0)
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
        h0, h1 = _first_hop(params, params.delta)
        pmf0, pmf1 = _cardinality_pmf(h0), _cardinality_pmf(h1)
        pmf = [params.pi0 * a + params.pi1 * b for a, b in zip(pmf0, pmf1)]
        n, trials = params.n_relays, 10**6
        rng = np.random.default_rng(2468)
        alpha = (rng.random(trials) < params.pi1).astype(float)
        g_si = rng.exponential(1.0, (trials, n))
        g_pi = rng.exponential(0.2, (trials, n))
        decoded = g_si > params.delta * (alpha[:, None] * params.gamma_p * g_pi + 1.0)
        counts = np.bincount(decoded.sum(axis=1), minlength=n + 1)
        for k in range(n + 1):
            se = math.sqrt(pmf[k] * (1 - pmf[k]) / trials)
            assert abs(counts[k] / trials - pmf[k]) <= 4.0 * se + 1e-9
