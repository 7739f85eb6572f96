import dataclasses
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogrelay import model
from cogrelay.analytic import outage_best_relay, outage_direct, outage_multi_relay
from cogrelay.model import (
    MAX_RELAYS,
    ChannelVariances,
    Scheme,
    SystemParams,
    db_to_linear,
    posterior,
    snr_threshold,
)
from cogrelay.montecarlo import estimate_outage


# probabilities as the config accepts them: exact 0 and 1, subnormals and
# everything between
probability = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53]),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestBayesInversion:
    def test_reference_point(self):
        # 0.8*0.9 / (0.8*0.9 + 0.2*0.1) = 36/37, by hand
        pi0 = posterior(0.8, 0.9, 0.1)
        assert pi0 == pytest.approx(0.9729729729729729, rel=1e-12)
        assert 1.0 - pi0 == pytest.approx(0.02702702702702703, rel=1e-10)

    @pytest.mark.parametrize("p0", [0.1, 0.5, 0.99])
    def test_perfect_sensing(self, p0):
        assert posterior(p0, 1.0, 0.0) == 1.0

    @pytest.mark.parametrize("p", [0.05, 0.4, 1.0])
    def test_uninformative_sensing_is_symmetric(self, p):
        assert posterior(0.5, p, p) == pytest.approx(0.5, rel=1e-14)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="never declares"):
            posterior(0.5, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [(-0.1, 0.9, 0.1), (0.5, 1.2, 0.1), (0.5, 0.9, -0.5)])
    def test_out_of_range_inputs(self, bad):
        with pytest.raises(ValueError):
            posterior(*bad)

    def test_monotone_in_sensing_quality(self):
        pds = np.linspace(0.2, 1.0, 9)
        pi0s = [posterior(0.7, pd, 0.2) for pd in pds]
        assert all(a <= b + 1e-15 for a, b in zip(pi0s, pi0s[1:]))
        pfs = np.linspace(0.01, 0.9, 9)
        pi0s = [posterior(0.7, 0.9, pf) for pf in pfs]
        assert all(a >= b - 1e-15 for a, b in zip(pi0s, pi0s[1:]))

    @settings(max_examples=500, deadline=None)
    @given(p0=probability, pd=probability, pf=probability)
    def test_posterior_and_complement_are_probabilities(self, p0, pd, pf):
        # nothing checks pi0's range: fl(p0*pd) <= fl(p0*pd + (1-p0)*pf),
        # and rounding is monotone, so the quotient cannot pass 1
        try:
            pi0 = posterior(p0, pd, pf)
        except ValueError as exc:
            assert "never declares" in str(exc)
            assert p0 * pd + (1.0 - p0) * pf == 0.0
            return
        assert 0.0 <= pi0 <= 1.0
        assert 0.0 <= 1.0 - pi0 <= 1.0


class TestDecodeThresholds:
    def test_unit_snr(self):
        assert snr_threshold(1.0, 1.0)[0] == 3.0

    def test_reference_point(self):
        delta, delta_direct = snr_threshold(1.0, 10.0)
        assert delta == pytest.approx(0.3, rel=1e-15)
        assert delta_direct == pytest.approx(0.1, rel=1e-15)

    def test_strictly_decreasing_in_gamma_s(self):
        gammas = np.logspace(-1, 3, 12)
        deltas = [snr_threshold(1.0, g) for g in gammas]
        assert all(a[0] > b[0] and a[1] > b[1] for a, b in zip(deltas, deltas[1:]))

    def test_strictly_increasing_in_rate(self):
        rates = [0.25, 0.5, 1.0, 2.0, 4.0]
        deltas = [snr_threshold(r, 5.0) for r in rates]
        assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(deltas, deltas[1:]))

    @pytest.mark.parametrize("bad", [
        (0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
        (1.0, 0.0), (1.0, -2.0), (1.0, math.inf), (1.0, math.nan),
    ])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            snr_threshold(*bad)

    @pytest.mark.parametrize("rate, gamma_s", [(600.0, 1.0), (512.0, 1e300), (1.0, 1e-310)])
    def test_threshold_must_be_finite(self, rate, gamma_s):
        # 2^(2R) overflows from R = 512 whatever gamma_s is; a subnormal
        # gamma_s overflows the quotient
        with pytest.raises(ValueError, match="threshold"):
            snr_threshold(rate, gamma_s)

    def test_largest_finite_threshold(self):
        delta, delta_direct = snr_threshold(511.5, 1.0)
        assert math.isfinite(delta) and delta_direct < delta


class TestDbConversion:
    def test_known_values(self):
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert db_to_linear(0.0) == 1.0
        # 10^{2.7}, by hand
        assert db_to_linear(27.0) == pytest.approx(501.18723362727246, rel=1e-12)


class TestScheme:
    def test_scheme_names(self):
        assert {s.value for s in Scheme} == {"multi", "best", "direct"}

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_text_is_the_value(self, scheme):
        # without __str__, str(Scheme.MULTI_RELAY) would be "Scheme.MULTI_RELAY"
        assert str(scheme) == format(scheme) == f"{scheme}" == scheme.value


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
        assert params.pi0 == posterior(0.8, 0.9, 0.1)
        assert (params.delta, params.delta_direct) == snr_threshold(1.0, params.gamma_s)
        assert params.delta == pytest.approx(0.3)

    def test_pi1_is_the_complement(self, make_params):
        params = make_params(10.0)
        assert params.pi1 == 1.0 - params.pi0
        assert "pi1" not in {f.name for f in dataclasses.fields(params)}

    def test_derived_attributes_stay_out_of_eq_hash_and_repr(self, make_params):
        params = make_params(10.0)
        copy = dataclasses.replace(params)
        assert copy == params and hash(copy) == hash(params)
        derived = ("pi0", "pi1", "delta", "delta_direct")
        assert not set(derived) & set(re.findall(r"(\w+)=", repr(params)))
        for name in ("pi0", "delta", "delta_direct"):
            with pytest.raises(ValueError):
                dataclasses.replace(params, **{name: 0.5})
        # pool workers receive points pickled, derived attributes included
        unpickled = pickle.loads(pickle.dumps(params))
        assert [getattr(unpickled, a) for a in derived] == [getattr(params, a) for a in derived]

    def test_each_derivation_runs_once_per_point(self, make_params, monkeypatch):
        # construction and replace call each model function once; the
        # closed forms and the Monte Carlo kernel only read the attributes
        calls = Counter()
        for name in ("posterior", "snr_threshold"):
            real = getattr(model, name)
            monkeypatch.setattr(
                model, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args)
            )
        params = make_params(10.0)
        assert calls == {"posterior": 1, "snr_threshold": 1}
        point = dataclasses.replace(params, gamma_s=db_to_linear(20.0))
        assert calls == {"posterior": 2, "snr_threshold": 2}
        assert point.delta < params.delta
        for outage in (outage_multi_relay, outage_best_relay, outage_direct):
            outage(point)
        estimate_outage((params, point), tuple(Scheme), 20_000, 1, workers=1)
        assert calls == {"posterior": 2, "snr_threshold": 2}

    @pytest.mark.parametrize("field,value", [
        ("p0", 1.2), ("pd", -0.1), ("pf", 2.0),
        ("gamma_s", 0.0), ("gamma_p", -5.0), ("rate", 0.0),
    ])
    def test_scalar_validation(self, field, value):
        kwargs = dict(
            p0=0.8, pd=0.9, pf=0.1, gamma_s=10.0, gamma_p=10.0,
            rate=1.0, variances=ChannelVariances.homogeneous(2),
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SystemParams(**kwargs)

    @pytest.mark.parametrize("rate, gamma_s", [(600.0, 1.0), (1.0, 1e-310)])
    def test_threshold_must_be_finite(self, rate, gamma_s):
        with pytest.raises(ValueError, match="threshold"):
            SystemParams(
                p0=0.8, pd=0.9, pf=0.1, gamma_s=gamma_s, gamma_p=10.0,
                rate=rate, variances=ChannelVariances.homogeneous(2),
            )

    def test_sensing_that_never_fires(self):
        with pytest.raises(ValueError, match="never declares"):
            SystemParams(
                p0=1.0, pd=0.0, pf=0.5, gamma_s=10.0, gamma_p=10.0,
                rate=1.0, variances=ChannelVariances.homogeneous(2),
            )

    @pytest.mark.parametrize("n", [MAX_RELAYS + 1])
    def test_relay_count_bounds(self, n):
        # a count below 1 cannot be built: ChannelVariances rejects empty tuples
        with pytest.raises(ValueError, match=f"n_relays must be in \\[1, {MAX_RELAYS}\\]"):
            SystemParams(
                p0=0.8, pd=0.9, pf=0.1, gamma_s=10.0, gamma_p=10.0,
                rate=1.0, variances=ChannelVariances.homogeneous(n),
            )

    def test_relay_count_is_not_an_argument(self):
        with pytest.raises(TypeError, match="n_relays"):
            SystemParams(
                p0=0.8, pd=0.9, pf=0.1, gamma_s=10.0, gamma_p=10.0,
                rate=1.0, n_relays=6, variances=ChannelVariances.homogeneous(6),
            )
        assert "n_relays" not in {f.name for f in dataclasses.fields(SystemParams)}

    def test_relay_count_follows_the_variances(self, make_params):
        params = make_params(10.0, n_relays=6)
        assert params.n_relays == 6
        point = dataclasses.replace(params, variances=ChannelVariances.homogeneous(4))
        assert point.n_relays == 4
        assert pickle.loads(pickle.dumps(point)).n_relays == 4
        with pytest.raises(AttributeError):
            point.n_relays = 6
