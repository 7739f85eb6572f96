import math

import numpy as np
import pytest

from cogrelay.model import (
    MAX_RELAYS,
    ChannelVariances,
    Posterior,
    Scheme,
    SystemParams,
    db_to_linear,
    posterior,
    snr_threshold,
)


class TestPosterior:
    def test_reference_point(self):
        # 0.8*0.9 / (0.8*0.9 + 0.2*0.1) = 36/37, by hand
        post = posterior(0.8, 0.9, 0.1)
        assert post.pi0 == pytest.approx(0.9729729729729729, rel=1e-12)
        assert post.pi1 == pytest.approx(0.02702702702702703, rel=1e-10)

    @pytest.mark.parametrize("p0", [0.1, 0.5, 0.99])
    def test_perfect_sensing(self, p0):
        post = posterior(p0, 1.0, 0.0)
        assert post.pi0 == 1.0
        assert post.pi1 == 0.0

    @pytest.mark.parametrize("p", [0.05, 0.4, 1.0])
    def test_uninformative_sensing_is_symmetric(self, p):
        post = posterior(0.5, p, p)
        assert post.pi0 == pytest.approx(0.5, rel=1e-14)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="never declares"):
            posterior(0.5, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [(-0.1, 0.9, 0.1), (0.5, 1.2, 0.1), (0.5, 0.9, -0.5)])
    def test_out_of_range_inputs(self, bad):
        with pytest.raises(ValueError):
            posterior(*bad)

    def test_monotone_in_sensing_quality(self):
        pds = np.linspace(0.2, 1.0, 9)
        pi0s = [posterior(0.7, pd, 0.2).pi0 for pd in pds]
        assert all(a <= b + 1e-15 for a, b in zip(pi0s, pi0s[1:]))
        pfs = np.linspace(0.01, 0.9, 9)
        pi0s = [posterior(0.7, 0.9, pf).pi0 for pf in pfs]
        assert all(a >= b - 1e-15 for a, b in zip(pi0s, pi0s[1:]))

    def test_inconsistent_posterior_rejected(self):
        with pytest.raises(ValueError):
            Posterior(pi0=0.8, pi1=0.1)


class TestSnrThreshold:
    def test_unit_snr(self):
        assert snr_threshold(1.0, 1.0).delta == 3.0

    def test_reference_point(self):
        thr = snr_threshold(1.0, 10.0)
        assert thr.delta == pytest.approx(0.3, rel=1e-15)
        assert thr.delta_direct == pytest.approx(0.1, rel=1e-15)

    def test_strictly_decreasing_in_gamma_s(self):
        gammas = np.logspace(-1, 3, 12)
        deltas = [snr_threshold(1.0, g) for g in gammas]
        assert all(a.delta > b.delta and a.delta_direct > b.delta_direct
                   for a, b in zip(deltas, deltas[1:]))

    def test_strictly_increasing_in_rate(self):
        rates = [0.25, 0.5, 1.0, 2.0, 4.0]
        deltas = [snr_threshold(r, 5.0) for r in rates]
        assert all(a.delta < b.delta and a.delta_direct < b.delta_direct
                   for a, b in zip(deltas, deltas[1:]))

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            snr_threshold(*bad)


class TestDbConversion:
    def test_known_values(self):
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert db_to_linear(0.0) == 1.0
        # 10^{2.7}, by hand
        assert db_to_linear(27.0) == pytest.approx(501.18723362727246, rel=1e-12)


class TestScheme:
    def test_scheme_names(self):
        assert {s.value for s in Scheme} == {"multi", "best", "direct"}


class TestChannelVariances:
    def test_homogeneous_factory(self):
        v = ChannelVariances.homogeneous(4)
        assert v.sigma2_si == (1.0,) * 4
        assert v.sigma2_pi == (0.2,) * 4

    def test_heterogeneous_detection(self):
        v = ChannelVariances(
            sigma2_si=(1.0, 2.0), sigma2_pi=(0.2, 0.2),
            sigma2_d=1.0, sigma2_pd=0.2, sigma2_sd=1.0,
        )
        assert v.sigma2_si == (1.0, 2.0)
        assert v.sigma2_pi == (0.2, 0.2)

    @pytest.mark.parametrize("field,value", [
        ("sigma2_d", 0.0), ("sigma2_pd", -1.0), ("sigma2_sd", math.inf),
    ])
    def test_scalar_variances_positive(self, field, value):
        kwargs = dict(sigma2_si=(1.0,), sigma2_pi=(0.2,),
                      sigma2_d=1.0, sigma2_pd=0.2, sigma2_sd=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            ChannelVariances(**kwargs)

    def test_vector_lengths_must_agree(self):
        with pytest.raises(ValueError, match="lengths differ"):
            ChannelVariances(
                sigma2_si=(1.0, 1.0), sigma2_pi=(0.2,),
                sigma2_d=1.0, sigma2_pd=0.2, sigma2_sd=1.0,
            )

    def test_zero_relay_vector_rejected(self):
        with pytest.raises(ValueError):
            ChannelVariances(
                sigma2_si=(), sigma2_pi=(),
                sigma2_d=1.0, sigma2_pd=0.2, sigma2_sd=1.0,
            )


class TestSystemParams:
    def test_valid_construction(self, make_params):
        params = make_params(10.0)
        assert params.gamma_s == pytest.approx(10.0)
        assert params.posterior().pi0 == pytest.approx(0.9729729729729729)
        assert params.snr_threshold().delta == pytest.approx(0.3)

    @pytest.mark.parametrize("field,value", [
        ("p0", 1.2), ("pd", -0.1), ("pf", 2.0),
        ("gamma_s", 0.0), ("gamma_p", -5.0), ("rate", 0.0),
    ])
    def test_scalar_validation(self, field, value):
        kwargs = dict(
            p0=0.8, pd=0.9, pf=0.1, gamma_s=10.0, gamma_p=10.0,
            rate=1.0, n_relays=2, variances=ChannelVariances.homogeneous(2),
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SystemParams(**kwargs)

    def test_sensing_that_never_fires(self):
        with pytest.raises(ValueError, match="never declares"):
            SystemParams(
                p0=1.0, pd=0.0, pf=0.5, gamma_s=10.0, gamma_p=10.0,
                rate=1.0, n_relays=2, variances=ChannelVariances.homogeneous(2),
            )

    @pytest.mark.parametrize("n", [0, -1, MAX_RELAYS + 1])
    def test_relay_count_bounds(self, n):
        with pytest.raises(ValueError, match="n_relays"):
            SystemParams(
                p0=0.8, pd=0.9, pf=0.1, gamma_s=10.0, gamma_p=10.0,
                rate=1.0, n_relays=n,
                variances=ChannelVariances.homogeneous(max(n, 1)),
            )

    def test_variance_length_mismatch(self):
        with pytest.raises(ValueError, match="relays"):
            SystemParams(
                p0=0.8, pd=0.9, pf=0.1, gamma_s=10.0, gamma_p=10.0,
                rate=1.0, n_relays=3, variances=ChannelVariances.homogeneous(2),
            )
