import multiprocessing

import pytest

from cogrelay.model import ChannelVariances, SystemParams, db_to_linear


@pytest.fixture(autouse=True)
def _no_worker_outlives_a_test():
    # estimate_outage starts and stops its own pool: whatever a test does,
    # no worker process may be left when it ends
    yield
    assert not multiprocessing.active_children()


@pytest.fixture
def make_params():
    """Factory for SystemParams; defaults are the headline cross-validation setup
    (p0=0.8, gamma_p=10 dB, R=1, N=6, unit signal variances, 0.2 primary).
    n_relays sizes the homogeneous variances built when none are given."""

    def make(
        gamma_s_db=10.0,
        *,
        pd=0.9,
        pf=0.1,
        n_relays=6,
        p0=0.8,
        gamma_p_db=10.0,
        rate=1.0,
        variances=None,
        **var_kwargs,
    ):
        if variances is None:
            variances = ChannelVariances.homogeneous(n_relays, **var_kwargs)
        return SystemParams(
            p0=p0,
            pd=pd,
            pf=pf,
            gamma_s=db_to_linear(gamma_s_db),
            gamma_p=db_to_linear(gamma_p_db),
            rate=rate,
            variances=variances,
        )

    return make
