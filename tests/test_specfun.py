import math
import signal
import sys

import mpmath
import pytest
from hypothesis import example, given, strategies as st
from scipy import integrate

from cogrelay.specfun import reg_lower_gamma, scaled_upper_gamma_term
from oracle import per_size_scaled_upper_gamma_term

mpmath.mp.dps = 50


def erlang_cdf_quadrature(k: int, x: float) -> float:
    """Independent oracle: adaptive quadrature of int_0^x t^{k-1} e^{-t}/(k-1)! dt."""
    val, _ = integrate.quad(
        lambda t: t ** (k - 1) * math.exp(-t) / math.factorial(k - 1), 0.0, x, limit=200
    )
    return val


def scaled_term_mpmath(k: int, a: float, c: float) -> float:
    """Independent oracle: e^c * Q(k, a+c) * (a/(a+c))^k in 50-digit
    arithmetic, with the upper tail Q computed natively (1 - P would cancel
    to zero at large c) and the power formed in mpmath, where it cannot
    overflow."""
    a = mpmath.mpf(a)
    z = a + mpmath.mpf(c)
    upper = mpmath.gammainc(k, z, mpmath.inf, regularized=True)
    return float(mpmath.e ** mpmath.mpf(c) * upper * (a / z) ** k)


class TestRegLowerGamma:
    def test_exponential_cdf_at_mean(self):
        assert reg_lower_gamma(1, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_empty_integral(self):
        assert reg_lower_gamma(3, 0.0) == 0.0

    def test_k2_value(self):
        # frozen from the quadrature oracle; equals 1 - 3 e^{-2}
        assert reg_lower_gamma(2, 2.0) == pytest.approx(0.5939941502901619, rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 10.0, 50.0])
    def test_matches_quadrature(self, k, x):
        oracle = erlang_cdf_quadrature(k, x)
        assert reg_lower_gamma(k, x) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_saturates_at_large_x(self, k):
        x = k + 50.0 * math.sqrt(k)
        assert reg_lower_gamma(k, x) >= 1.0 - 1e-12

    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 5.0, 20.0, 100.0])
    def test_recurrence(self, k, x):
        # P(k+1, x) = P(k, x) - e^{-x} x^k / k!
        step = math.exp(-x + k * math.log(x) - math.lgamma(k + 1))
        assert reg_lower_gamma(k + 1, x) == pytest.approx(
            reg_lower_gamma(k, x) - step, abs=1e-12
        )

    @pytest.mark.parametrize("k", [1, 6, 24])
    def test_limit_at_infinite_x(self, k):
        # x = delta/sigma2_d is inf once sigma2_d is tiny enough; every
        # Poisson term e^{-x} x^m / m! is 0 there
        assert reg_lower_gamma(k, math.inf) == 1.0

    @pytest.mark.parametrize("k", [1, 6, 24])
    def test_nan_ends_the_tail_loop(self, k):
        # x < k is false for NaN, so NaN reaches the Poisson tail loop; its
        # stop test must end the loop there and hand the NaN on for
        # OutageBreakdown to reject.  A stop test that NaN never meets loops
        # forever, so the call runs under a 5 s alarm of its own
        def expire(signum, frame):
            raise TimeoutError("the tail loop did not stop on NaN")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            got = reg_lower_gamma(k, math.nan)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert math.isnan(got)

    @pytest.mark.parametrize(
        "k, x", [(1000, 1000.0), (1000, 900.0), (800, 760.0), (800, 740.0), (2000, 1500.0)]
    )
    def test_large_x_matches_mpmath(self, k, x):
        # e^{-x} is 0.0 past x ~ 745 and subnormal past ~ 708; the sums built
        # on it returned 1.0, 0.0, 0.0, 0.0152 (true 0.0152 to 3 digits) and 0.0
        oracle = float(mpmath.gammainc(k, 0, x, regularized=True))
        assert reg_lower_gamma(k, x) == pytest.approx(oracle, rel=1e-10, abs=0.0)

    @given(
        k=st.integers(min_value=1, max_value=40),
        x=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    )
    def test_is_probability(self, k, x):
        p = reg_lower_gamma(k, x)
        assert 0.0 <= p <= 1.0

    @given(
        k=st.integers(min_value=1, max_value=30),
        x1=st.floats(min_value=0.0, max_value=200.0),
        x2=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_monotone_in_x(self, k, x1, x2):
        lo, hi = sorted((x1, x2))
        assert reg_lower_gamma(k, lo) <= reg_lower_gamma(k, hi) + 1e-15

    @given(
        k=st.integers(min_value=1, max_value=30),
        x=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_monotone_in_shape(self, k, x):
        # adding one more summand can only make the sum exceed x less often
        assert reg_lower_gamma(k + 1, x) <= reg_lower_gamma(k, x) + 1e-15


def scaled_term(k: int, a: float, c: float) -> float:
    """scaled_upper_gamma_term's entry k at r = a/(a+c) formed in floats, and
    at r = 1 where a = inf, as a/(a+c) is NaN there."""
    return scaled_upper_gamma_term(k, a, 1.0 if math.isinf(a) else a / (a + c))[-1]


class TestScaledUpperGammaTerm:
    def test_zero_at_zero_a(self):
        # (a/(a+c))^k vanishes with a
        assert scaled_term(1, 0.0, 5.0) == 0.0

    def test_k1_value(self):
        # e^{-a} a/(a+c); frozen from the 50-digit oracle at moderate c
        assert scaled_term(1, 0.3, 2.0) == pytest.approx(
            0.09662846356718059, rel=1e-12
        )

    @pytest.mark.parametrize("k, a, c", [(1000, 800.0, 1.0), (1000, 720.0, 1.0), (24, 746.0, 1.0)])
    def test_large_a_matches_mpmath(self, k, a, c):
        # e^{-a} underflows here; a sum built on it returned 0.0 in the first
        # and last cases
        assert scaled_term(k, a, c) == pytest.approx(
            scaled_term_mpmath(k, a, c), rel=1e-10, abs=0.0
        )

    def test_huge_c_stays_finite(self):
        # the naive e^c (1 - P) route overflows at c=1000; the sum never forms
        # e^c and must match 50-digit arithmetic instead
        with pytest.raises(OverflowError):
            math.exp(1000.0)
        got = scaled_term(2, 0.3, 1000.0)
        assert math.isfinite(got)
        assert got == pytest.approx(6.672027742189626e-05, rel=1e-12)
        assert got == pytest.approx(scaled_term_mpmath(2, 0.3, 1000.0), rel=1e-12)

    @pytest.mark.parametrize("k, a, c", [(12, 1e-20, 1e10), (24, 1e-8, 1e5), (200, 150.0, 1e6)])
    def test_overflowing_power_stays_finite(self, k, a, c):
        # ((a+c)/a)^k passes the float range while the value is a normal
        # double; the sum never forms that power
        with pytest.raises(OverflowError):
            (1.0 + c / a) ** k
        got = scaled_term(k, a, c)
        assert math.isfinite(got) and got >= sys.float_info.min
        assert got == pytest.approx(scaled_term_mpmath(k, a, c), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    @pytest.mark.parametrize("a", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0, 30.0])
    def test_cancellation_identity(self, k, a, c):
        # e^c (1 - P(k, a+c)) in doubles only carries ~1e-16/Q relative error,
        # so the double-precision identity is asserted where the upper tail Q
        # keeps 1e-9 headroom; the high-precision oracle covers every point
        assert scaled_term(k, a, c) == pytest.approx(
            scaled_term_mpmath(k, a, c), rel=1e-12
        )
        q = 1.0 - reg_lower_gamma(k, a + c)
        if q >= 1e-7:
            naive = math.exp(c) * q * (a / (a + c)) ** k
            assert scaled_term(k, a, c) == pytest.approx(naive, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 6, 24])
    @pytest.mark.parametrize("c", [1e-300, 1.0, 1e300, math.inf])
    def test_limits_at_infinite_a_and_c(self, k, c):
        # e^{-a} takes every term with it as a -> inf, and a/(a+c) vanishes
        # as c -> inf (sigma2_pd*gamma_p underflowing to 0)
        assert scaled_term(k, math.inf, c) == 0.0
        assert scaled_term(k, 0.3, math.inf) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 6, 24])
    def test_ratio_power_where_a_rounds_to_zero(self, k):
        # a = delta/sigma2_d can round to 0 while r = a/(a+c), taken from the
        # interference ratio, stays moderate; every Poisson term past the
        # first is 0 there and the sum is r^k, its limit as a -> 0 at fixed r
        # (0.75^k is exact in doubles for these k)
        assert scaled_upper_gamma_term(k, 0.0, 0.75)[-1] == 0.75**k
        assert scaled_upper_gamma_term(k, 0.0, 1.0)[-1] == 1.0

    @given(
        k=st.integers(min_value=1, max_value=20),
        a=st.floats(min_value=0.0, max_value=50.0),
        c=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_nonnegative(self, k, a, c):
        assert scaled_term(k, a, c) >= 0.0

    @given(
        n=st.integers(min_value=1, max_value=24),
        a=st.one_of(st.just(0.0), st.just(math.inf), st.floats(min_value=0.0, max_value=800.0)),
        r=st.floats(min_value=0.0, max_value=1.0),
    )
    # e^{-a} subnormal (past ~708) and 0.0 (past ~745), so the terms are
    # formed in log space
    @example(n=24, a=720.0, r=0.999)
    @example(n=24, a=746.0, r=0.5)
    def test_every_k_has_the_bits_of_a_pass_that_stops_at_k(self, n, a, r):
        got = scaled_upper_gamma_term(n, a, r)
        assert len(got) == n
        for k in range(1, n + 1):
            assert repr(got[k - 1]) == repr(per_size_scaled_upper_gamma_term(k, a, r))
