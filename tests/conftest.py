import math

import numpy as np
import pytest

from bdbridge import BridgeSpec, LBDIParams, SISParams, bridge_count, lbdi_model, sis_model
from bdbridge.counting import NEG_INF
from bdbridge.errors import BridgeDomainError
from bdbridge.sampler import RngStream


@pytest.fixture
def rng():
    return RngStream(20240817)


@pytest.fixture(scope="session")
def lbdi_table():
    """The standard linear-immigration test setting."""
    return LBDIParams(lam=0.8, mu=0.6, nu=1.2)


@pytest.fixture(scope="session")
def lbdi_table_model(lbdi_table):
    return lbdi_model(lbdi_table)


@pytest.fixture(scope="session")
def sis_table():
    return SISParams(n0=30, beta=0.003, gamma=1.0)


@pytest.fixture(scope="session")
def sis_table_model(sis_table):
    return sis_model(sis_table)


@pytest.fixture(scope="session")
def zero_model():
    from bdbridge import BirthDeathModel

    return BirthDeathModel(lambda y: 0.0 * np.asarray(y),
                           lambda y: 0.0 * np.asarray(y), name="frozen")


@pytest.fixture(scope="session")
def uniformity_family():
    """Skeleton spaces of 2 to 50 paths for uniformity sweeps: corridors
    (0, width) of width 2..6 with up to 10 jumps, absorbing lower terminals
    included, plus a few unbounded spaces."""
    specs = []
    for width in range(2, 7):
        for i in range(1, width):
            for j in range(0, width):
                for ups in range(0, 8):
                    try:
                        spec = BridgeSpec(i=i, j=j, up_jumps=ups, lower=0, upper=width)
                    except BridgeDomainError:
                        continue
                    if spec.jumps <= 10 and 2 <= bridge_count(spec) <= 50:
                        specs.append(spec)
    for i, j, ups in ((0, 0, 2), (0, 0, 3), (0, 1, 2), (0, 2, 3), (1, 0, 2)):
        spec = BridgeSpec(i=i, j=j, up_jumps=ups)
        if 2 <= bridge_count(spec) <= 50:
            specs.append(spec)
    return specs


def _path_loglik(model, path) -> float:
    """Log-likelihood of one complete bridge path, jump by jump.

    An impossible jump (birth where the birth rate vanishes, or the mirror
    case) yields -inf.  This loop is the reference for the vectorized
    ``likelihood.batch_path_loglik``.
    """
    states = path.states
    times = path.times
    jumps = path.jumps
    ll = 0.0
    ups = 0
    for k in range(1, jumps + 1):
        pre = int(states[k - 1])
        step = int(states[k] - states[k - 1])
        rate = (model.birth_rate(pre, ups) if step == 1 else model.death_rate(pre, ups))
        rate = float(rate)
        if rate <= 0.0:
            return NEG_INF
        ll += math.log(rate)
        if step == 1:
            ups += 1
    hold_ups = 0
    for k in range(1, jumps + 2):
        pre = int(states[k - 1])
        total = float(model.birth_rate(pre, hold_ups)) + float(model.death_rate(pre, hold_ups))
        ll -= total * (times[k] - times[k - 1])
        if k <= jumps and states[k] > states[k - 1]:
            hold_ups += 1
    return ll


@pytest.fixture(scope="session")
def path_loglik():
    """The scalar path log-likelihood oracle."""
    return _path_loglik
