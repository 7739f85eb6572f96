import contextlib
import dataclasses
import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from cogrelay import analytic
from cogrelay.analytic import (
    OutageBreakdown,
    _cardinality_pmf,
    _first_hop,
    _interference_ratio,
    outage_best_relay,
    outage_direct,
    outage_multi_relay,
    p_below_h0,
    p_below_h1,
    p_max_below_h0,
    p_max_below_h1,
    p_sum_below_h0,
    p_sum_below_h1,
)
from cogrelay.cli import build_spec
from cogrelay.model import ChannelVariances, Scheme, SystemParams, db_to_linear, snr_threshold
from cogrelay.specfun import reg_lower_gamma
from oracle import (
    MAX_ORACLE_RELAYS,
    ROUNDED_ABOVE_ONE,
    alternating_max_below_h1,
    asymptotic_outage,
    enumerated_cardinality_pmf,
    enumerated_outage,
    group_count_first_hop,
    mp_max_below_h1,
    mp_outage,
    mp_sum_below_h1,
    nested_loop_cardinality_pmf,
    per_size_max_below_h0,
    per_size_max_below_h1,
    per_size_sum_below_h0,
    per_size_sum_below_h1,
    standalone_max_below_h1,
    standalone_sum_below_h1,
)

BREAKDOWN_FIELDS = ("total", "empty_h0", "empty_h1", "nonempty_h0", "nonempty_h1")

# two variance groups of 3 and 4 relays: the size distribution convolves two
# binomials rather than collapsing to one
MIXED_VARIANCES = ChannelVariances(
    sigma2_si=(0.7,) * 3 + (1.6,) * 4,
    sigma2_pi=(0.3,) * 3 + (0.1,) * 4,
    sigma2_d=1.0,
    sigma2_pd=0.2,
    sigma2_sd=1.0,
)


def random_variances(rng, n):
    """Per-relay first-hop variances, all distinct with probability one."""
    return ChannelVariances(
        sigma2_si=tuple(float(x) for x in rng.uniform(0.3, 2.0, n)),
        sigma2_pi=tuple(float(x) for x in rng.uniform(0.05, 0.8, n)),
        sigma2_d=1.0,
        sigma2_pd=0.2,
        sigma2_sd=1.0,
    )


def assert_rel_close(got, ref, rel=1e-12):
    assert abs(got - ref) <= rel * abs(ref), (got, ref)


def sum_tail_h1(delta, sigma2_d, sigma2_pd, gamma_p, k):
    """``p_sum_below_h1``'s entry k, given the H0 tails up to k as the
    multi-relay scheme gives them."""
    below_h0 = p_sum_below_h0(delta, sigma2_d, k)
    return p_sum_below_h1(delta, sigma2_d, sigma2_pd, gamma_p, below_h0)[-1]


def max_tail_h1(delta, sigma2_d, sigma2_pd, gamma_p, k):
    """``p_max_below_h1``'s entry k, given the H0 tails up to k as the
    best-relay scheme gives them."""
    below_h0 = p_max_below_h0(delta, sigma2_d, k)
    return p_max_below_h1(delta, sigma2_d, sigma2_pd, gamma_p, below_h0)[-1]


def assert_matches_oracle(params, scheme):
    fn = outage_multi_relay if scheme is Scheme.MULTI_RELAY else outage_best_relay
    got = fn(params)
    ref = enumerated_outage(params, scheme)
    for field in BREAKDOWN_FIELDS:
        assert_rel_close(getattr(got, field), getattr(ref, field))


def quad_sum_below_h1(delta, sigma2_d, sigma2_pd, gamma_p, k):
    """Independent oracle: integrate the Erlang CDF over the exponential
    interference gain by adaptive quadrature."""
    val, _ = integrate.quad(
        lambda y: (1.0 / sigma2_pd)
        * math.exp(-y / sigma2_pd)
        * reg_lower_gamma(k, (delta + gamma_p * delta * y) / sigma2_d),
        0.0,
        np.inf,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    return val


def brute_force_outage(params, scheme, trials, rng):
    """Independent sample-path oracle built straight from numpy draws."""
    n = params.n_relays
    v = params.variances
    hyp1 = rng.random(trials) < params.pi1
    alpha = hyp1.astype(float)
    g_si = rng.exponential(1.0, (trials, n)) * np.asarray(v.sigma2_si)
    g_pi = rng.exponential(1.0, (trials, n)) * np.asarray(v.sigma2_pi)
    g_id = rng.exponential(v.sigma2_d, (trials, n))
    g_pd = rng.exponential(v.sigma2_pd, trials)
    interf = alpha * params.gamma_p * g_pd + 1.0
    if scheme == "direct":
        g_sd = rng.exponential(v.sigma2_sd, trials)
        return float(np.mean(g_sd < params.delta_direct * interf))
    decoded = g_si > params.delta * (alpha[:, None] * params.gamma_p * g_pi + 1.0)
    forwarded = np.where(decoded, g_id, 0.0)
    combined = forwarded.sum(axis=1) if scheme == "multi" else forwarded.max(axis=1)
    return float(np.mean(combined < params.delta * interf))


def mc_tolerance(p, trials, z=4.0):
    return z * math.sqrt(p * (1.0 - p) / trials)


class TestFirstHopProbs:
    def test_h0_zero_threshold(self):
        assert p_below_h0(0.0, 1.0) == 0.0

    def test_h0_at_mean(self):
        assert p_below_h0(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_h0_reference_point(self):
        # 1 - e^{-0.3}; cross-checked against a 1e7-draw exponential sample
        assert p_below_h0(0.3, 1.0) == pytest.approx(0.2591817793182821, rel=1e-12)

    def test_h1_zero_threshold(self):
        assert p_below_h1(0.0, 1.0, 0.2, 10.0) == 0.0

    def test_h1_reference_point(self):
        # 1 - e^{-0.3}/1.6; cross-checked against paired exponential draws
        assert p_below_h1(0.3, 1.0, 0.2, 10.0) == pytest.approx(
            0.5369886120739263, rel=1e-12
        )

    def test_h1_limits_where_the_ratio_leaves_the_float_range(self):
        # r = sigma2_p*gamma_p*delta/sigma2_s overflows (a 1e-300 signal
        # variance): the limit is 1, not inf/inf; at delta = 0 the value is
        # 0 even where sigma2_p*gamma_p alone overflows
        assert 0.2 * 1e10 * 30.0 / 1e-300 == math.inf
        assert p_below_h1(30.0, 1e-300, 0.2, 1e10) == 1.0
        assert 1e300 * 1e300 == math.inf
        assert p_below_h1(0.0, 1.0, 1e300, 1e300) == 0.0

    def test_h1_moderate_ratio_past_an_overflowing_partial_product(self, make_params):
        # sigma2_p*gamma_p overflows, yet r = sigma2_p*gamma_p*delta/sigma2_s
        # is 3: the H1 first hop, its success and the max tail keep their
        # values instead of the limit 1
        delta, s2s, s2p, gp = 3e-308, 100.0, 1e300, 1e10
        assert s2p * gp == math.inf
        with mpmath.workdps(60):
            r = mpmath.mpf(s2p) * gp * delta / s2s
            success = mpmath.exp(-mpmath.mpf(delta) / s2s) / (1 + r)
        assert_rel_close(p_below_h1(delta, s2s, s2p, gp), float(1 - success), rel=1e-15)
        for k in (1, 2, 24):
            ref = float(mp_max_below_h1(delta, s2s, s2p, gp, k))
            assert_rel_close(max_tail_h1(delta, s2s, s2p, gp, k), ref, rel=1e-14)
        params = make_params(
            gamma_p_db=100.0, n_relays=2, sigma2_si=s2s, sigma2_pi=s2p, sigma2_d=s2s, sigma2_pd=s2p
        )
        assert params.gamma_p == gp
        _, [(fail, succ, m)] = _first_hop(params, delta)
        assert m == 2
        assert_rel_close(succ, float(success), rel=1e-15)
        assert_rel_close(fail, float(1 - success), rel=1e-15)

    def test_ratio_keeps_the_bits_of_the_left_to_right_product(self):
        rng = np.random.default_rng(3)
        for args in 10.0 ** rng.uniform(-60.0, 60.0, size=(500, 4)):
            a, b, c, d = map(float, args)
            assert _interference_ratio(a, b, c, d) == a * b * c / d

    def test_h1_collapses_without_interference(self):
        weak = p_below_h1(0.3, 1.0, 0.2, 1e-12)
        assert weak == pytest.approx(p_below_h0(0.3, 1.0), rel=1e-9)

    def test_h1_monte_carlo(self):
        rng = np.random.default_rng(1813)
        n = 2_000_000
        x = rng.exponential(0.7, n)
        y = rng.exponential(0.4, n)
        emp = float(np.mean(x < 1.1 * 3.0 * y + 1.1))
        got = p_below_h1(1.1, 0.7, 0.4, 3.0)
        assert got == pytest.approx(emp, abs=mc_tolerance(got, n))


class TestSecondHopSum:
    def test_zero_threshold(self):
        assert p_sum_below_h0(0.0, 1.0, 3)[-1] == 0.0
        assert sum_tail_h1(0.0, 1.0, 0.2, 10.0, 3) == 0.0
        assert max_tail_h1(0.0, 1.0, 0.2, 10.0, 3) == 0.0

    def test_single_relay_reduces_to_exponential_cdf(self):
        assert p_sum_below_h0(0.3, 1.0, 1)[-1] == pytest.approx(
            p_below_h0(0.3, 1.0), rel=1e-14
        )

    def test_two_relay_value(self):
        # 1 - 1.3 e^{-0.3}; cross-checked against summed exponential draws
        assert p_sum_below_h0(0.3, 1.0, 2)[-1] == pytest.approx(
            0.03693631311376677, rel=1e-12
        )

    def test_h1_reference_point_vs_quadrature(self):
        got = sum_tail_h1(0.3, 1.0, 0.2, 10.0, 2)
        assert got == pytest.approx(0.22445592522382665, rel=1e-10)
        assert got == pytest.approx(
            quad_sum_below_h1(0.3, 1.0, 0.2, 10.0, 2), rel=1e-8
        )

    def test_h1_k1_reduces_to_single_link(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            delta = float(rng.uniform(0.001, 5.0))
            s2d = float(rng.uniform(0.1, 3.0))
            s2pd = float(rng.uniform(0.05, 2.0))
            gp = float(rng.uniform(0.01, 100.0))
            assert sum_tail_h1(delta, s2d, s2pd, gp, 1) == pytest.approx(
                p_below_h1(delta, s2d, s2pd, gp), rel=1e-12
            )

    def test_h1_matches_quadrature_on_random_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            k = int(rng.integers(1, 7))
            delta = float(rng.uniform(0.005, 5.0))
            s2d = float(rng.uniform(0.2, 3.0))
            s2pd = float(rng.uniform(0.05, 2.0))
            gp = float(rng.uniform(0.1, 50.0))
            got = sum_tail_h1(delta, s2d, s2pd, gp, k)
            assert got == pytest.approx(
                quad_sum_below_h1(delta, s2d, s2pd, gp, k), rel=1e-8
            )
            assert 0.0 <= got <= 1.0

    @pytest.mark.parametrize(
        "delta,s2d,s2pd,gp,k",
        [
            (snr_threshold(1.0, db_to_linear(140.0))[0], 1.0, 0.2, 10.0, 24),
            (snr_threshold(1.0, db_to_linear(300.0))[0], 1.0, 0.2, 10.0, 12),
            (200.0, 1.0, 1.0, 1e-6, 200),
            (150.0, 1.0, 1.0, 1e-6, 200),
        ],
    )
    def test_h1_overflowing_power_matches_mpmath(self, delta, s2d, s2pd, gp, k):
        # the case must reach the branch that avoids the overflowing power
        with pytest.raises(OverflowError):
            (1.0 + s2d / (s2pd * gp * delta)) ** k
        got = sum_tail_h1(delta, s2d, s2pd, gp, k)
        assert abs(got - float(mp_sum_below_h1(delta, s2d, s2pd, gp, k))) <= 1e-14

    @pytest.mark.parametrize("k", (1, 2, 6, 24))
    def test_h1_moderate_ratio_past_an_overflowing_interference_scale(self, k):
        # sigma2_pd*gamma_p = 1e309 overflows while a = delta/sigma2_d is
        # 3e-309, so a/(a + c) = 0.75 is moderate; the tail returned its
        # limit 1.0 here, above the best-relay tail
        assert math.isinf(1e300 * 1e9)
        got = sum_tail_h1(0.3, 1e308, 1e300, 1e9, k)
        assert_rel_close(got, float(mp_sum_below_h1(0.3, 1e308, 1e300, 1e9, k)), rel=1e-13)

    def test_h1_weak_interference_collapses_to_h0(self):
        for k in (1, 3, 6):
            weak = sum_tail_h1(0.4, 1.0, 0.2, 1e-9, k)
            assert weak == pytest.approx(p_sum_below_h0(0.4, 1.0, k)[-1], rel=1e-7)

    @pytest.mark.parametrize("k", (1, 6, 24))
    def test_limits_where_the_arguments_leave_the_float_range(self, k):
        # a = delta/sigma2_d overflows: P(k, inf) = 1 and the interference
        # term vanishes
        assert p_sum_below_h0(30.0, 1e-308, k)[-1] == 1.0
        assert sum_tail_h1(30.0, 1e-308, 0.2, 10.0, k) == 1.0
        # sigma2_pd*gamma_p underflows to 0 (c = inf): no interference left
        assert 1e-320 * 1e-10 == 0.0
        assert sum_tail_h1(0.3, 1.0, 1e-320, 1e-10, k) == p_sum_below_h0(0.3, 1.0, k)[-1]
        # it overflows (c = 0): the threshold is unbounded
        assert sum_tail_h1(0.3, 1.0, 1e300, 1e300, k) == 1.0
        assert sum_tail_h1(0.0, 1.0, 1e300, 1e300, k) == 0.0


class TestSecondHopMax:
    def test_single_relay_equals_sum(self):
        assert p_max_below_h0(0.3, 1.0, 1)[-1] == pytest.approx(
            p_sum_below_h0(0.3, 1.0, 1)[-1], rel=1e-14
        )
        assert max_tail_h1(0.3, 1.0, 0.2, 10.0, 1) == pytest.approx(
            sum_tail_h1(0.3, 1.0, 0.2, 10.0, 1), rel=1e-12
        )

    def test_h0_two_relays(self):
        # (1 - e^{-0.3})^2; cross-checked against max of paired draws
        assert p_max_below_h0(0.3, 1.0, 2)[-1] == pytest.approx(
            0.06717519473059069, rel=1e-12
        )

    def test_h1_monte_carlo(self):
        rng = np.random.default_rng(99)
        n = 2_000_000
        delta, s2d, s2pd, gp, k = 0.6, 0.8, 0.3, 5.0, 3
        g = rng.exponential(s2d, (n, k)).max(axis=1)
        y = rng.exponential(s2pd, n)
        emp = float(np.mean(g < gp * delta * y + delta))
        got = max_tail_h1(delta, s2d, s2pd, gp, k)
        assert got == pytest.approx(emp, abs=mc_tolerance(got, n))

    def test_h1_high_snr_regression(self):
        # k=6 at 40 dB (delta = 3e-4): the alternating series this tail was
        # once summed as cancels to exactly 0.0 in doubles here
        assert alternating_max_below_h1(3e-4, 1.0, 0.2, 10.0, 6) == 0.0
        got = max_tail_h1(3e-4, 1.0, 0.2, 10.0, 6)
        assert got > 0.0
        assert_rel_close(got, float(mp_max_below_h1(3e-4, 1.0, 0.2, 10.0, 6)), rel=1e-13)

    @pytest.mark.parametrize("k", (1, 6, 24))
    def test_h1_limits_where_the_ratio_leaves_the_float_range(self, k):
        # r overflows (a 1e-308 relay variance): every E[v^n] is 1 and the
        # tail is its limit 1, not inf/inf
        assert max_tail_h1(30.0, 1e-308, 0.2, 10.0, k) == 1.0
        # r = 1e307 is finite, and k*r overflows at k = 24; each E[v^n] is
        # 1 to double precision
        assert max_tail_h1(1.0, 1.0, 1e300, 1e7, k) == pytest.approx(1.0, abs=1e-15)
        assert max_tail_h1(0.0, 1.0, 1e300, 1e300, k) == 0.0

    def test_max_never_exceeds_sum_probability(self):
        # max < x is implied by sum < x, so its probability dominates
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            delta = float(rng.uniform(0.01, 4.0))
            gp = float(rng.uniform(0.1, 30.0))
            assert (
                max_tail_h1(delta, 1.0, 0.2, gp, k)
                >= sum_tail_h1(delta, 1.0, 0.2, gp, k) - 1e-12
            )


# relative tolerance of every closed form over SNR_DB (dB) wherever the exact
# value is at least TAIL_FLOOR; below it the values approach the subnormal
# range
TAIL_REL = 1e-13
TAIL_FLOOR = 1e-290
SNR_DB = range(-40, 121, 5)


def assert_exact_within_tail_tolerance(got, exact):
    exact = float(exact)
    slack = TAIL_REL * exact if exact >= TAIL_FLOOR else TAIL_FLOOR
    assert abs(got - exact) <= slack, (got, exact)


@pytest.mark.parametrize("k", (1, 2, 6, 12, 24))
@pytest.mark.parametrize("sigma2_d", (0.3, 1.0, 3.0))
@pytest.mark.parametrize("gamma_p", (1e-3, 10.0, 1e5))
class TestTailsOverWholeRange:
    """Both H1 second-hop tails against exact mpmath references from -40 to
    120 dB: the max tail against its alternating series at 700 digits, the
    sum tail against mpmath's incomplete gamma functions."""

    def check(self, tail, exact_tail, k, sigma2_d, gamma_p):
        for g_db in SNR_DB:
            delta = snr_threshold(1.0, db_to_linear(g_db))[0]
            got = tail(delta, sigma2_d, 0.2, gamma_p, k)
            assert_exact_within_tail_tolerance(got, exact_tail(delta, sigma2_d, 0.2, gamma_p, k))

    def test_max_tail(self, k, sigma2_d, gamma_p):
        self.check(max_tail_h1, mp_max_below_h1, k, sigma2_d, gamma_p)

    def test_sum_tail(self, k, sigma2_d, gamma_p):
        self.check(sum_tail_h1, mp_sum_below_h1, k, sigma2_d, gamma_p)


@pytest.mark.parametrize("sigma2", (0.3, 1.0, 3.0))
def test_h0_tails_and_first_hop_over_whole_range(sigma2):
    # the elementary closed forms over the same range and tolerance
    with mpmath.workdps(60):
        for g_db in SNR_DB:
            delta = snr_threshold(1.0, db_to_linear(g_db))[0]
            x = mpmath.mpf(delta) / sigma2
            below = -mpmath.expm1(-x)
            assert_exact_within_tail_tolerance(p_below_h0(delta, sigma2), below)
            for gamma_p in (1e-3, 10.0, 1e5):
                r = mpmath.mpf(0.2) * gamma_p * delta / sigma2
                assert_exact_within_tail_tolerance(
                    p_below_h1(delta, sigma2, 0.2, gamma_p), (r + below) / (1 + r)
                )
            for k in (1, 2, 6, 12, 24):
                assert_exact_within_tail_tolerance(
                    p_sum_below_h0(delta, sigma2, k)[-1], mpmath.gammainc(k, 0, x, regularized=True)
                )
                assert_exact_within_tail_tolerance(p_max_below_h0(delta, sigma2, k)[-1], below**k)


@pytest.mark.parametrize("scheme", (Scheme.MULTI_RELAY, Scheme.BEST_RELAY))
@pytest.mark.parametrize("g_db", (-10.0, -20.0))
def test_low_snr_breakdown_matches_mpmath(make_params, scheme, g_db):
    # the non-empty components once came from 1 - failure, which rounds to
    # 0 here: nonempty_h0 was 1.7e-4 off at -10 dB and 0.0 at -20 dB
    params = make_params(g_db)
    fn = outage_multi_relay if scheme is Scheme.MULTI_RELAY else outage_best_relay
    got = fn(params)
    for field, exact in mp_outage(params, scheme).items():
        assert exact > 0.0
        assert_rel_close(getattr(got, field), exact, rel=1e-13)


RELATIVE_SLACK = 1e-12


def assert_at_most(x, y):
    """x <= y up to rounding: RELATIVE_SLACK of y, or the smallest normal
    double where both values are below the normal range."""
    assert x <= y * (1.0 + RELATIVE_SLACK) + sys.float_info.min, (x, y)


OUTAGE = {
    Scheme.MULTI_RELAY: outage_multi_relay,
    Scheme.BEST_RELAY: outage_best_relay,
    Scheme.DIRECT: outage_direct,
}
relay_scheme = st.sampled_from((Scheme.MULTI_RELAY, Scheme.BEST_RELAY))
snr_db = st.floats(min_value=-10.0, max_value=120.0)
relay_count = st.integers(min_value=1, max_value=24)
detection = st.floats(min_value=0.05, max_value=1.0)
false_alarm = st.floats(min_value=0.0, max_value=1.0)
primary_db = st.floats(min_value=-20.0, max_value=40.0)


def ordered(values):
    return st.tuples(values, values).map(sorted)


def outage_total(scheme, g_db, n, pd, pf, gamma_p_db):
    params = SystemParams(
        p0=0.8,
        pd=pd,
        pf=pf,
        gamma_s=db_to_linear(g_db),
        gamma_p=db_to_linear(gamma_p_db),
        rate=1.0,
        variances=ChannelVariances.homogeneous(n),
    )
    return OUTAGE[scheme](params).total


class TestOrderingsOverCliRange:
    """The proven orderings of the closed forms over the range the CLI
    accepts: N 1..24, gamma_s -10..120 dB, gamma_p -20..40 dB and any
    sensing pair that declares a hole."""

    @given(g_db=snr_db, n=relay_count, pd=detection, pf=false_alarm, gp_db=primary_db)
    @settings(deadline=None)
    def test_multi_at_most_best_at_most_one(self, g_db, n, pd, pf, gp_db):
        multi = outage_total(Scheme.MULTI_RELAY, g_db, n, pd, pf, gp_db)
        best = outage_total(Scheme.BEST_RELAY, g_db, n, pd, pf, gp_db)
        assert_at_most(multi, best)
        assert_at_most(best, 1.0)

    @given(
        scheme=st.sampled_from(tuple(OUTAGE)),
        g_db=ordered(snr_db),
        n=relay_count,
        pd=detection,
        pf=false_alarm,
        gp_db=primary_db,
    )
    @settings(deadline=None)
    def test_nonincreasing_in_snr(self, scheme, g_db, n, pd, pf, gp_db):
        low, high = (outage_total(scheme, g, n, pd, pf, gp_db) for g in g_db)
        assert_at_most(high, low)

    @given(
        scheme=relay_scheme,
        g_db=snr_db,
        n=ordered(relay_count),
        pd=detection,
        pf=false_alarm,
        gp_db=primary_db,
    )
    @settings(deadline=None)
    def test_nonincreasing_in_relay_count(self, scheme, g_db, n, pd, pf, gp_db):
        fewer, more = (outage_total(scheme, g_db, m, pd, pf, gp_db) for m in n)
        assert_at_most(more, fewer)

    @given(
        scheme=st.sampled_from(tuple(OUTAGE)),
        g_db=snr_db,
        n=relay_count,
        pd=ordered(detection),
        pf=ordered(false_alarm),
        gp_db=primary_db,
    )
    @settings(deadline=None)
    def test_monotone_in_sensing(self, scheme, g_db, n, pd, pf, gp_db):
        # non-increasing in pd at fixed pf, non-decreasing in pf at fixed pd
        low_pd, high_pd = (outage_total(scheme, g_db, n, d, pf[0], gp_db) for d in pd)
        assert_at_most(high_pd, low_pd)
        low_pf, high_pf = (outage_total(scheme, g_db, n, pd[1], f, gp_db) for f in pf)
        assert_at_most(low_pf, high_pf)


def scale(low_exponent, high_exponent):
    """Positive floats 10^e, e uniform in [low_exponent, high_exponent]."""
    return st.floats(min_value=low_exponent, max_value=high_exponent).map(lambda e: 10.0**e)


# a variance anywhere in the range build_spec accepts, down to the subnormal
# 1e-320
variance = scale(-320.0, 308.0)


@st.composite
def accepted_configs(draw):
    """A config build_spec accepts: every variance from 1e-320 to 1e308, per
    relay for sigma2_si and sigma2_pi; gamma_p from -3200 to 3080 dB;
    gamma_s from -3000 to 3080 dB; rates from 1e-20, where the two-slot
    threshold rounds to 0, to 10."""
    n = draw(relay_count)
    return {
        "gamma_s_db": [draw(st.floats(min_value=-3000.0, max_value=3080.0))],
        "gamma_p_db": draw(st.floats(min_value=-3200.0, max_value=3080.0)),
        "rate": draw(scale(-20.0, 1.0)),
        "relay_counts": [n],
        "sensing_pairs": [[draw(detection), draw(false_alarm)]],
        "sigma2_si": draw(st.lists(variance, min_size=n, max_size=n)),
        "sigma2_pi": draw(st.lists(variance, min_size=n, max_size=n)),
        "sigma2_d": draw(variance),
        "sigma2_pd": draw(variance),
        "sigma2_sd": draw(variance),
    }


def is_threshold(x):
    return 0.0 <= x < math.inf


def is_scale(x):
    return 0.0 < x < math.inf


def is_shape(k):
    return type(k) is int and k >= 1


def is_argument(x):
    # delta/sigma2_d, inf where the quotient overflows
    return x >= 0.0


def is_ratio(r):
    return 0.0 <= r <= 1.0


def are_probabilities(ps):
    return type(ps) is list and len(ps) >= 1 and all(0.0 <= p <= 1.0 for p in ps)


# what the closed forms and special functions assume of their arguments,
# positionally: thresholds delta finite and >= 0, variances and gamma_p
# finite and > 0, shapes and relay counts ints >= 1, Erlang arguments >= 0,
# ratios in [0, 1], and the H0 tails each H1 tail starts from a non-empty
# list of probabilities
PRECONDITIONS = {
    "p_below_h0": (is_threshold, is_scale),
    "p_below_h1": (is_threshold, is_scale, is_scale, is_scale),
    "p_sum_below_h0": (is_threshold, is_scale, is_shape),
    "p_max_below_h0": (is_threshold, is_scale, is_shape),
    "p_sum_below_h1": (is_threshold, is_scale, is_scale, is_scale, are_probabilities),
    "p_max_below_h1": (is_threshold, is_scale, is_scale, is_scale, are_probabilities),
    "reg_lower_gamma": (is_shape, is_argument),
    "scaled_upper_gamma_term": (is_shape, is_argument, is_ratio),
}


class TestWholeAcceptedRange:
    @given(config=accepted_configs())
    @example(config=ROUNDED_ABOVE_ONE)
    @settings(deadline=None)
    def test_breakdown_is_a_probability(self, config):
        # wherever a ratio, a second-hop argument or the interference scale
        # leaves the float range, the closed forms take their limits; the
        # parts are rounded, so a value near 1 may pass it by an ulp or two,
        # but the total is clamped
        params = build_spec(config).base
        for scheme, outage in OUTAGE.items():
            b = outage(params)
            assert 0.0 <= b.total <= 1.0, (scheme, b)
            for field in BREAKDOWN_FIELDS:
                value = getattr(b, field)
                assert math.isfinite(value) and value >= 0.0, (scheme, field, value)
                assert_at_most(value, 1.0)

    @given(config=accepted_configs())
    @example(config={"sigma2_d": 1e308, "sigma2_pd": 1e300, "gamma_p_db": 90,
                     "gamma_s_db": [10], "relay_counts": [2]})
    @settings(deadline=None)
    def test_multi_at_most_best(self, config):
        # at the example sigma2_pd*gamma_p overflows while a/(a + c) is
        # moderate; the multi-relay sum tail once took its limit 1 there and
        # put the multi-relay total above the best-relay one
        params = build_spec(config).base
        assert_at_most(outage_multi_relay(params).total, outage_best_relay(params).total)

    @given(config=accepted_configs())
    @settings(deadline=None)
    def test_closed_forms_get_arguments_that_meet_their_preconditions(self, config):
        # the tails and special functions check nothing, so every argument
        # a checked SystemParams leads to must meet PRECONDITIONS.  The
        # module attributes are patched in the body, not by the
        # function-scoped monkeypatch fixture, which hypothesis' health check
        # rejects
        params = build_spec(config).base
        with contextlib.ExitStack() as stack:
            spies = {
                name: stack.enter_context(
                    mock.patch.object(analytic, name, wraps=getattr(analytic, name))
                )
                for name in PRECONDITIONS
            }
            for outage in OUTAGE.values():
                outage(params)
        for name, spy in spies.items():
            holds = PRECONDITIONS[name]
            assert spy.called, name
            for args, kwargs in spy.call_args_list:
                assert not kwargs and len(args) == len(holds), (name, args, kwargs)
                assert all(h(arg) for h, arg in zip(holds, args)), (name, args)


# thresholds from 0 through the subnormals to 1e308, and an interference
# scale gamma_p from 1e-320 to 1e308, as the accepted range gives them
threshold = st.one_of(st.just(0.0), scale(-325.0, 308.0))
interference_scale = scale(-320.0, 308.0)


@st.composite
def pooled_relay_configs(draw):
    """An accepted config whose relays are drawn from a pool of 1 to 5
    (sigma2_si, sigma2_pi) pairs, so alike relays repeat, interleaved."""
    config = draw(accepted_configs())
    pool = draw(st.lists(st.tuples(variance, variance), min_size=1, max_size=5))
    relays = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    config["relay_counts"] = [len(relays)]
    config["sigma2_si"], config["sigma2_pi"] = map(list, zip(*relays))
    return config


class TestBitIdenticalToTheStandaloneForms:
    """Each second-hop tail is one call per point that returns every k, the
    H1 tails start from the H0 tails the relay schemes computed, and the
    first hop counts each group in one pass; all keep every bit of the
    forms in tests/oracle.py that did none of this."""

    @given(n=st.integers(1, 24), delta=threshold, sigma2_d=variance, sigma2_pd=variance,
           gamma_p=interference_scale)
    # the interference ratio overflows, sigma2_pd*gamma_p alone overflows,
    # k*r overflows with r finite, a = delta/sigma2_d overflows, and delta is 0
    @example(n=6, delta=30.0, sigma2_d=1e-300, sigma2_pd=0.2, gamma_p=1e10)
    @example(n=2, delta=0.3, sigma2_d=1e308, sigma2_pd=1e300, gamma_p=1e9)
    @example(n=24, delta=1.0, sigma2_d=1.0, sigma2_pd=1e300, gamma_p=1e7)
    @example(n=24, delta=30.0, sigma2_d=1e-308, sigma2_pd=0.2, gamma_p=10.0)
    @example(n=3, delta=0.0, sigma2_d=1.0, sigma2_pd=1e300, gamma_p=1e300)
    @example(n=12, delta=5e-324, sigma2_d=1e-320, sigma2_pd=1e-320, gamma_p=1e-10)
    @settings(deadline=None)
    def test_tails(self, n, delta, sigma2_d, sigma2_pd, gamma_p):
        # entry k of the n-relay call, for every k <= n
        h1_args = (delta, sigma2_d, sigma2_pd, gamma_p)
        sum_h0 = p_sum_below_h0(delta, sigma2_d, n)
        max_h0 = p_max_below_h0(delta, sigma2_d, n)
        sum_h1 = p_sum_below_h1(*h1_args, sum_h0)
        max_h1 = p_max_below_h1(*h1_args, max_h0)
        assert len(sum_h0) == len(max_h0) == len(sum_h1) == len(max_h1) == n
        for k in range(1, n + 1):
            below_sum = per_size_sum_below_h0(delta, sigma2_d, k)
            below_max = per_size_max_below_h0(delta, sigma2_d, k)
            assert repr(sum_h0[k - 1]) == repr(below_sum)
            assert repr(max_h0[k - 1]) == repr(below_max)
            assert repr(sum_h1[k - 1]) == repr(per_size_sum_below_h1(*h1_args, k, below_sum))
            assert repr(max_h1[k - 1]) == repr(per_size_max_below_h1(*h1_args, k, below_max))
            assert repr(sum_h1[k - 1]) == repr(standalone_sum_below_h1(*h1_args, k))
            assert repr(max_h1[k - 1]) == repr(standalone_max_below_h1(*h1_args, k))

    @given(config=st.one_of(accepted_configs(), pooled_relay_configs()))
    @example(config={"relay_counts": [3], "sigma2_si": [1e-300, 1.0, 1e308],
                     "sigma2_pi": [0.2, 0.2, 0.2], "gamma_s_db": [0.0]})
    @example(config={"relay_counts": [7], "sigma2_si": [0.7, 1.9, 0.7, 1.2, 0.7, 1.2, 0.55],
                     "sigma2_pi": [0.15, 0.35, 0.15, 0.2, 0.15, 0.2, 0.4], "gamma_s_db": [10.0]})
    @example(config={"relay_counts": [24], "gamma_s_db": [20.0]})
    @settings(deadline=None)
    def test_first_hop(self, config):
        params = build_spec(config).base
        assert repr(_first_hop(params, params.delta)) == repr(
            group_count_first_hop(params, params.delta))


# gamma_s from 50 dB to the top of the range the CLI accepts (gamma_s below
# 10^308.3); each case stops at the first value below 1e-290
ASYMPTOTE_DB = (50.0, 55.0, 60.0, 70.0, 80.0, 90.0, 100.0, 120.0, 150.0, 200.0,
                300.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 2900.0, 3000.0)

# |outage/asymptote - 1| <= K*delta + ASYMPTOTE_FLOOR, delta being the
# scheme's own threshold (two-slot for the relay schemes, one-slot for
# direct).  The next term of each expansion is O(delta); the worst
# |ratio - 1|/delta over the cases below reads 87.6 (multi, N = 16
# heterogeneous), 601 (best, N = 24) and 0.98 (direct, pd 0.65/pf 0.35).
# The floor is the closed forms' stated relative accuracy, which the ratio
# meets once K*delta falls below it.
ASYMPTOTE_K = {Scheme.MULTI_RELAY: 200.0, Scheme.BEST_RELAY: 1000.0, Scheme.DIRECT: 2.0}
ASYMPTOTE_FLOOR = 1e-13


def assert_follows_asymptote(params, scheme):
    """The closed form's ratio to C*delta^d stays within ASYMPTOTE_K*delta
    of 1 from 50 dB up, until the value falls below 1e-290."""
    tested = 0
    for g_db in ASYMPTOTE_DB:
        point = dataclasses.replace(params, gamma_s=db_to_linear(g_db))
        asymptote = asymptotic_outage(point, scheme)
        if asymptote < 1e-290:
            break
        delta = point.delta_direct if scheme is Scheme.DIRECT else point.delta
        ratio = OUTAGE[scheme](point).total / asymptote
        assert abs(ratio - 1.0) <= ASYMPTOTE_K[scheme] * delta + ASYMPTOTE_FLOOR, (g_db, ratio)
        tested += 1
    assert tested >= 8  # every case reaches 120 dB


@pytest.mark.parametrize("pd, pf", [(0.9, 0.1), (0.95, 0.05), (0.65, 0.35)])
@pytest.mark.parametrize("scheme", list(Scheme))
class TestHighSnrAsymptote:
    """Diversity order and coding gain: every scheme's outage approaches
    C*delta^d, with d = N for both relay schemes and 1 for direct."""

    def test_homogeneous(self, scheme, pd, pf, make_params):
        for n in range(1, 25):
            assert_follows_asymptote(make_params(50.0, pd=pd, pf=pf, n_relays=n), scheme)

    def test_heterogeneous(self, scheme, pd, pf, make_params):
        variances = random_variances(np.random.default_rng(16), 16)
        params = make_params(50.0, pd=pd, pf=pf, variances=variances)
        assert_follows_asymptote(params, scheme)


class TestMultiRelayOutage:
    def test_perfect_sensing_kills_h1_terms(self, make_params):
        b = outage_multi_relay(make_params(10.0, pd=1.0, pf=0.0))
        assert b.empty_h1 == 0.0
        assert b.nonempty_h1 == 0.0

    def test_single_relay_hand_value(self, make_params):
        # pf=0 forces pi0=1; outage = q + (1-q) q with q = 1 - e^{-0.3}
        b = outage_multi_relay(make_params(10.0, pf=0.0, n_relays=1))
        assert b.total == pytest.approx(0.45118836390597356, rel=1e-12)
        assert b.empty_h0 == pytest.approx(0.2591817793182821, rel=1e-12)

    def test_breakdown_closure(self, make_params):
        for g_db in (0.0, 10.0, 25.0):
            b = outage_multi_relay(make_params(g_db))
            parts = (b.empty_h0, b.empty_h1, b.nonempty_h0, b.nonempty_h1)
            assert b.total == pytest.approx(math.fsum(parts), abs=1e-15)
            assert all(0.0 <= p <= 1.0 for p in parts)
            assert 0.0 <= b.total <= 1.0

    def test_strictly_decreasing_in_gamma_s(self, make_params):
        totals = [outage_multi_relay(make_params(g)).total for g in range(0, 31, 2)]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_nonincreasing_in_relay_count(self, make_params):
        totals = [
            outage_multi_relay(make_params(5.0, n_relays=n)).total
            for n in range(1, 9)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(totals, totals[1:]))

    def test_nondecreasing_in_rate(self, make_params):
        totals = [
            outage_multi_relay(make_params(10.0, rate=r)).total
            for r in (0.5, 1.0, 1.5, 2.0)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(totals, totals[1:]))

    def test_better_sensing_never_hurts(self, make_params):
        for g_db in range(0, 31):
            good = outage_multi_relay(make_params(g_db, pd=0.95, pf=0.05)).total
            poor = outage_multi_relay(make_params(g_db, pd=0.65, pf=0.35)).total
            assert good < poor

    def test_grouped_fast_path_equals_enumeration(self, make_params):
        rng = np.random.default_rng(11)
        for n in range(1, 11):
            params = make_params(
                float(rng.uniform(0.0, 25.0)),
                pd=float(rng.uniform(0.5, 1.0)),
                pf=float(rng.uniform(0.0, 0.5)),
                n_relays=n,
                sigma2_si=float(rng.uniform(0.3, 2.0)),
                sigma2_pi=float(rng.uniform(0.05, 0.8)),
            )
            fast = outage_multi_relay(params)
            ref = enumerated_outage(params, Scheme.MULTI_RELAY)
            assert fast.total == pytest.approx(ref.total, abs=1e-12)
            assert fast.nonempty_h0 == pytest.approx(ref.nonempty_h0, abs=1e-12)
            assert fast.nonempty_h1 == pytest.approx(ref.nonempty_h1, abs=1e-12)

    def test_heterogeneous_equals_enumeration(self, make_params):
        rng = np.random.default_rng(13)
        for n in range(1, MAX_ORACLE_RELAYS + 1):
            params = make_params(
                float(rng.uniform(0.0, 30.0)),
                pd=float(rng.uniform(0.5, 1.0)),
                pf=float(rng.uniform(0.0, 0.5)),
                variances=random_variances(rng, n),
            )
            assert_matches_oracle(params, Scheme.MULTI_RELAY)

    def test_mixed_groups_equal_enumeration(self, make_params):
        for g_db in (0.0, 10.0, 25.0):
            params = make_params(g_db, variances=MIXED_VARIANCES)
            assert_matches_oracle(params, Scheme.MULTI_RELAY)

    def test_heterogeneous_against_brute_force(self, make_params):
        params = make_params(
            8.0,
            variances=ChannelVariances(
                sigma2_si=(1.0, 0.6, 1.4),
                sigma2_pi=(0.2, 0.3, 0.1),
                sigma2_d=1.0,
                sigma2_pd=0.2,
                sigma2_sd=1.0,
            ),
        )
        total = outage_multi_relay(params).total
        emp = brute_force_outage(params, "multi", 2_000_000, np.random.default_rng(17))
        assert total == pytest.approx(emp, abs=mc_tolerance(total, 2_000_000))


class TestBestRelayOutage:
    def test_single_relay_equals_multi(self, make_params):
        params = make_params(7.0, n_relays=1)
        assert outage_best_relay(params).total == pytest.approx(
            outage_multi_relay(params).total, rel=1e-14
        )

    def test_multi_dominates_best(self, make_params):
        rng = np.random.default_rng(23)
        for _ in range(20):
            params = make_params(
                float(rng.uniform(0.0, 30.0)),
                pd=float(rng.uniform(0.5, 1.0)),
                pf=float(rng.uniform(0.0, 0.5)),
                n_relays=int(rng.integers(1, 9)),
            )
            assert (
                outage_multi_relay(params).total
                <= outage_best_relay(params).total + 1e-15
            )

    def test_against_brute_force(self, make_params):
        params = make_params(8.0, n_relays=4)
        total = outage_best_relay(params).total
        emp = brute_force_outage(params, "best", 2_000_000, np.random.default_rng(29))
        assert total == pytest.approx(emp, abs=mc_tolerance(total, 2_000_000))

    def test_grouped_fast_path_equals_enumeration(self, make_params):
        params = make_params(12.0, n_relays=7)
        fast = outage_best_relay(params)
        ref = enumerated_outage(params, Scheme.BEST_RELAY)
        assert fast.total == pytest.approx(ref.total, abs=1e-12)

    def test_heterogeneous_equals_enumeration(self, make_params):
        rng = np.random.default_rng(19)
        for n in range(1, MAX_ORACLE_RELAYS + 1):
            params = make_params(
                float(rng.uniform(0.0, 30.0)),
                variances=random_variances(rng, n),
            )
            assert_matches_oracle(params, Scheme.BEST_RELAY)

    def test_mixed_groups_equal_enumeration(self, make_params):
        for g_db in (0.0, 10.0, 25.0):
            params = make_params(g_db, variances=MIXED_VARIANCES)
            assert_matches_oracle(params, Scheme.BEST_RELAY)


def test_relay_schemes_call_each_tail_once_per_point_through_the_module_globals(monkeypatch, make_params):
    # bench/layers.py counts analytic.tail_calls and the specfun calls by
    # wrapping these names on the module; each tail returns every k at once,
    # and the multi-relay H0 tail calls reg_lower_gamma at each k
    params = make_params(10.0, n_relays=6)
    expected = (outage_multi_relay(params), outage_best_relay(params))
    names = ("p_sum_below_h0", "p_sum_below_h1", "p_max_below_h0", "p_max_below_h1",
             "reg_lower_gamma", "scaled_upper_gamma_term")
    calls = {name: [] for name in names}
    for name in names:
        def counted(*args, _fn=getattr(analytic, name), _calls=calls[name]):
            _calls.append(args)
            return _fn(*args)
        monkeypatch.setattr(analytic, name, counted)
    assert (analytic.outage_multi_relay(params), analytic.outage_best_relay(params)) == expected
    delta, s2d = params.delta, params.variances.sigma2_d
    assert calls["p_sum_below_h0"] == calls["p_max_below_h0"] == [(delta, s2d, 6)]
    for name in ("p_sum_below_h1", "p_max_below_h1"):
        [args] = calls[name]
        assert len(args[-1]) == 6
    assert [k for k, _ in calls["reg_lower_gamma"]] == [1, 2, 3, 4, 5, 6]
    assert [args[0] for args in calls["scaled_upper_gamma_term"]] == [6]


class TestDirectOutage:
    def test_perfect_sensing_kills_h1_term(self, make_params):
        b = outage_direct(make_params(10.0, pd=1.0, pf=0.0))
        assert b.nonempty_h1 == 0.0

    def test_no_relays_involved(self, make_params):
        b = outage_direct(make_params(10.0))
        assert b.empty_h0 == 0.0
        assert b.empty_h1 == 0.0

    def test_hand_value(self, make_params):
        # pi0=1 and delta_direct=0.1 on a unit-variance link: 1 - e^{-0.1}
        b = outage_direct(make_params(10.0, pf=0.0))
        assert b.total == pytest.approx(0.09516258196404043, rel=1e-12)

    def test_against_brute_force(self, make_params):
        params = make_params(5.0)
        total = outage_direct(params).total
        emp = brute_force_outage(params, "direct", 2_000_000, np.random.default_rng(31))
        assert total == pytest.approx(emp, abs=mc_tolerance(total, 2_000_000))


def cardinality_pmf(params):
    """Decoding-set size distribution given a declared hole: the pmfs of the
    interference-free and interfered first hops, mixed by the posterior."""
    h0, h1 = _first_hop(params, params.delta)
    return [params.pi0 * a + params.pi1 * b for a, b in zip(_cardinality_pmf(h0), _cardinality_pmf(h1))]


def relay_group(x, m):
    """First-hop (failure, success, relay count) of m alike relays whose
    threshold over variance is x."""
    return -math.expm1(-x), math.exp(-x), m


@st.composite
def relay_groups(draw):
    """1 to 24 relays in groups of 1 to 4, in any order; x runs from 0
    (failure 0, success 1) past 745, where the success is exactly 0.0."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=24))
    groups, n = [], 0
    for m in sizes:
        if n + m > 24:
            break
        groups.append(relay_group(draw(st.floats(0.0, 750.0)), m))
        n += m
    return groups


class TestDecodingCardinalityPmf:
    @given(groups=relay_groups())
    @example(groups=[relay_group(x, 1) for x in (0.0, 5e-324, 1e-310, 1e-17, 0.01, 0.1, 0.3, 0.7,
                                                  1.0, 2.0, 5.0, 10.0, 40.0, 300.0, 745.0, 746.0)])
    @example(groups=[relay_group(0.3, 24)])
    @example(groups=[relay_group(x, m) for x in (1e-310, 0.2, 1.5, 9.0, 700.0, 746.0) for m in (1, 3)])
    @settings(deadline=None)
    def test_bit_identical_to_the_nested_loop(self, groups):
        # a group of one relay takes a two-term pass instead of forming its
        # binomial and running the nested loop; every term keeps its bits
        assert list(map(repr, _cardinality_pmf(groups))) == list(
            map(repr, nested_loop_cardinality_pmf(groups)))

    def test_sums_to_one(self, make_params):
        pmf = cardinality_pmf(make_params(10.0))
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0.0 for p in pmf)

    def test_matches_enumeration(self, make_params):
        params = make_params(6.0, n_relays=5)
        fast = cardinality_pmf(params)
        ref = enumerated_cardinality_pmf(params)
        assert fast == pytest.approx(ref, abs=1e-12)

    def test_heterogeneous_matches_enumeration(self, make_params):
        rng = np.random.default_rng(3)
        for n in range(1, MAX_ORACLE_RELAYS + 1):
            params = make_params(
                float(rng.uniform(0.0, 30.0)),
                pf=float(rng.uniform(0.0, 0.5)),
                variances=random_variances(rng, n),
            )
            pmf = cardinality_pmf(params)
            ref = enumerated_cardinality_pmf(params)
            assert len(pmf) == n + 1
            for got, want in zip(pmf, ref):
                assert_rel_close(got, want)

    def test_mixed_groups_match_enumeration(self, make_params):
        params = make_params(6.0, variances=MIXED_VARIANCES)
        for got, want in zip(cardinality_pmf(params), enumerated_cardinality_pmf(params)):
            assert_rel_close(got, want)

    def test_large_heterogeneous_sums_to_one(self, make_params):
        # far beyond what subset enumeration could reach
        n = 24
        params = make_params(5.0, variances=random_variances(np.random.default_rng(8), n))
        pmf = cardinality_pmf(params)
        assert len(pmf) == n + 1
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0.0 for p in pmf)

    def test_two_relay_binomial_by_hand(self, make_params):
        params = make_params(10.0, pd=1.0, pf=0.0, n_relays=2)
        q = p_below_h0(0.3, 1.0)
        pmf = cardinality_pmf(params)
        assert pmf[0] == pytest.approx(q * q, rel=1e-12)
        assert pmf[1] == pytest.approx(2 * q * (1 - q), rel=1e-12)
        assert pmf[2] == pytest.approx((1 - q) * (1 - q), rel=1e-12)


class TestDomainTypes:
    def test_breakdown_total_is_the_component_sum(self):
        b = OutageBreakdown(empty_h0=0.1, empty_h1=0.2, nonempty_h0=0.3, nonempty_h1=1e-17)
        assert b.total == math.fsum((0.1, 0.2, 0.3, 1e-17))
        assert "total" not in repr(b)

    def test_breakdown_component_range(self):
        with pytest.raises(ValueError, match="component"):
            OutageBreakdown(1.5, 0.0, 0.0, 0.0)

    def test_breakdown_rejects_nan(self):
        # the closed forms check nothing, so a NaN that reaches a component
        # (reg_lower_gamma hands one on) is stopped here
        with pytest.raises(ValueError, match="component"):
            OutageBreakdown(0.0, 0.0, math.nan, 0.0)
