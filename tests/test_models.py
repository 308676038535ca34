import math

import numpy as np
import pytest

from bdbridge.counting import NEG_INF, POS_INF
from bdbridge.errors import ModelDomainError
from bdbridge.models import (
    BirthDeathModel,
    LBDIParams,
    SIRParams,
    SISParams,
    lbdi_model,
    sir_as_bd,
    sis_model,
)


def test_lbdi_rates(lbdi_table_model):
    assert lbdi_table_model.rates(5) == (5.2, 3.0)


def test_sis_rates(sis_table_model):
    assert sis_table_model.rates(30) == (0.0, 30.0)   # susceptible pool empty
    assert sis_table_model.rates(0) == (0.0, 0.0)     # absorbing
    assert sis_table_model.rates(5) == (pytest.approx(0.003 * 5 * 25), 5.0)


def test_state_space_enforced(sis_table_model, lbdi_table_model):
    with pytest.raises(ModelDomainError):
        sis_table_model.rates(31)
    with pytest.raises(ModelDomainError):
        sis_table_model.rates(-1)
    with pytest.raises(ModelDomainError):
        lbdi_table_model.rates(-2)


def test_rates_deterministic_and_nonnegative(sis_table_model, lbdi_table_model):
    for model, states in ((sis_table_model, range(31)), (lbdi_table_model, range(60))):
        for y in states:
            b, d = model.rates(y)
            assert b >= 0 and d >= 0 and np.isfinite(b) and np.isfinite(d)
            assert model.rates(y) == (b, d)


def test_sis_zero_rate_states(sis_table_model):
    births = [sis_table_model.rates(y)[0] for y in range(31)]
    deaths = [sis_table_model.rates(y)[1] for y in range(31)]
    assert [y for y in range(31) if births[y] == 0] == [0, 30]
    assert [y for y in range(31) if deaths[y] == 0] == [0]


def test_boundary_declarations():
    assert lbdi_model(LBDIParams(0.8, 0.6, 1.2)).lower == ("reflecting", 0)
    assert lbdi_model(LBDIParams(0.8, 0.6, 0.0)).lower == ("absorbing", 0)
    m = sis_model(SISParams(30, 0.003, 1.0))
    assert m.lower == ("absorbing", 0) and m.upper == ("reflecting", 30)


def test_taboo_bounds():
    assert lbdi_model(LBDIParams(0.8, 0.6, 1.2)).taboo_bounds() == (-1, POS_INF)
    assert lbdi_model(LBDIParams(0.8, 0.6, 0.0)).taboo_bounds() == (0, POS_INF)
    assert sis_model(SISParams(30, 0.003, 1.0)).taboo_bounds() == (0, 31)
    assert BirthDeathModel(lambda y: 1.0, lambda y: 0.0).taboo_bounds() == (NEG_INF, POS_INF)


def test_boundary_rates_must_agree():
    with pytest.raises(ModelDomainError):
        BirthDeathModel(lambda y: 1.0, lambda y: 1.0, lower=("absorbing", 0))
    with pytest.raises(ModelDomainError):
        BirthDeathModel(lambda y: 1.0, lambda y: 1.0, lower=("reflecting", 0))
    with pytest.raises(ModelDomainError):
        BirthDeathModel(lambda y: np.asarray(y) * 0 + 1.0, lambda y: 0.0 * np.asarray(y),
                        upper=("reflecting", 5))


def test_param_validation():
    with pytest.raises(ModelDomainError):
        LBDIParams(-0.1, 0.5, 0.0)
    with pytest.raises(ModelDomainError):
        SISParams(0, 0.1, 1.0)
    with pytest.raises(ModelDomainError):
        SIRParams(10, -1.0, 1.0)


@pytest.mark.parametrize("cls", [LBDIParams, SISParams, SIRParams])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_rates_must_be_finite_and_nonnegative(cls, value):
    # The second field is a rate in each class: mu, or beta after n0.
    first, name = (0.8, "mu") if cls is LBDIParams else (30, "beta")
    with pytest.raises(ModelDomainError, match=f"^{name} must be finite and >= 0"):
        cls(first, value, 1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan, 2.5])
def test_counts_must_be_whole_numbers(value):
    message = f"^{{}} must be a finite whole number, got {value}$"
    for cls in (SISParams, SIRParams):
        with pytest.raises(ModelDomainError, match=message.format("n0")):
            cls(value, 0.1, 1.0)
    with pytest.raises(ModelDomainError, match=message.format("s0")):
        sir_as_bd(SIRParams(n0=10, beta=0.1, gamma=1.0), s0=value)


def test_counts_are_stored_as_ints():
    params = SISParams(n0=30.0, beta=0.1, gamma=1.0)
    assert params.n0 == 30 and type(params.n0) is int
    model = sir_as_bd(SIRParams(n0=np.int64(10), beta=0.1, gamma=1.0), s0=4.0)
    assert type(model.params.n0) is int and model.s0 == 4 and type(model.s0) is int


def test_sir_reduction_rates():
    model = sir_as_bd(SIRParams(n0=199, beta=0.0016, gamma=0.2607), s0=198)
    # first infection sees the full susceptible pool
    assert model.birth_rate(1, 0) == pytest.approx(0.0016 * 198 * 1)
    assert model.death_rate(1, 0) == pytest.approx(0.2607)
    # the susceptible pool shrinks with each up jump already made
    assert model.birth_rate(3, 5) == pytest.approx(0.0016 * 193 * 3)
    assert model.birth_rate(2, 198) == 0.0


def test_sir_degenerate_cases():
    pure_death = sir_as_bd(SIRParams(n0=50, beta=0.5, gamma=0.3), s0=0)
    for i in range(1, 6):
        assert pure_death.birth_rate(i, 0) == 0.0
        assert pure_death.death_rate(i, 0) == pytest.approx(0.3 * i)
    model = sir_as_bd(SIRParams(n0=50, beta=0.5, gamma=0.3), s0=10)
    assert model.birth_rate(0, 0) == 0.0 and model.death_rate(0, 0) == 0.0
    with pytest.raises(ModelDomainError):
        sir_as_bd(SIRParams(n0=50, beta=0.5, gamma=0.3), s0=51)


def test_sir_taboo_bounds():
    model = sir_as_bd(SIRParams(n0=199, beta=0.0016, gamma=0.2607), s0=198)
    lower, upper = model.taboo_bounds()
    assert lower == 0 and upper == 200  # hidden count ≤ population size


def test_vectorized_rates(sis_table_model):
    ys = np.arange(31)
    births = sis_table_model.birth_rate(ys)
    deaths = sis_table_model.death_rate(ys)
    assert births.shape == ys.shape
    assert np.allclose(births, 0.003 * ys * (30 - ys))
    assert np.allclose(deaths, 1.0 * ys)
