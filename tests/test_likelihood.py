import math

import numpy as np
import pytest

from bdbridge.counting import NEG_INF
from bdbridge.errors import BridgeDomainError, ModelDomainError
from bdbridge.likelihood import (
    BSet,
    MCEstimate,
    batch_path_loglik,
    choose_bset,
    estimate_pij,
    estimate_pij_b,
)
from bdbridge.models import LBDIParams, SIRParams, lbdi_model, sir_as_bd
from bdbridge.reference import generator_transition_fixed_ups, lbdi_transition
from bdbridge.sampler import BridgePath, RngStream


def test_bset_validation():
    with pytest.raises(BridgeDomainError):
        BSet(())
    with pytest.raises(BridgeDomainError):
        BSet((2, 2))
    with pytest.raises(BridgeDomainError):
        BSet((-1, 0))
    assert list(BSet((0, 1, 5))) == [0, 1, 5]


def _batch_one(model, path) -> float:
    """``batch_path_loglik`` on the one-row step and interval matrices of ``path``."""
    steps = np.diff(path.states[:path.jumps + 1])[None, :]
    return float(batch_path_loglik(model, path.states[0], steps, np.diff(path.times)[None, :])[0])


def test_path_loglik_no_jumps(lbdi_table_model, path_loglik):
    path = BridgePath(np.array([0.0, 1.0]), np.array([5, 5]))
    assert path_loglik(lbdi_table_model, path) == pytest.approx(-8.2)
    assert _batch_one(lbdi_table_model, path) == pytest.approx(-8.2)


def test_path_loglik_hand_example(path_loglik):
    # One death from state 1 at time 0.5; after absorption both rates vanish,
    # so the exposure integral gains nothing on (0.5, 1].
    model = lbdi_model(LBDIParams(lam=0.8, mu=0.6, nu=0.0))
    path = BridgePath(np.array([0.0, 0.5, 1.0]), np.array([1, 0, 0]))
    assert path_loglik(model, path) == pytest.approx(math.log(0.6) - 1.4 * 0.5)
    assert _batch_one(model, path) == pytest.approx(math.log(0.6) - 1.4 * 0.5)


def test_path_loglik_impossible_jump(sis_table_model, path_loglik):
    # A down jump out of the absorbing state has rate zero: -inf, not an error.
    path = BridgePath(np.array([0.0, 0.3, 0.6, 1.0]), np.array([1, 0, -1, -1]))
    assert path_loglik(sis_table_model, path) == NEG_INF
    assert _batch_one(sis_table_model, path) == NEG_INF


def test_path_loglik_malformed_is_error():
    with pytest.raises(BridgeDomainError):
        BridgePath(np.array([0.0, 0.7, 0.3, 1.0]), np.array([2, 3, 4, 4])).validate()
    with pytest.raises(BridgeDomainError):
        BridgePath(np.array([0.0, 0.5, 1.0]), np.array([2, 4, 4])).validate()


def test_estimate_deterministic_model(zero_model, rng):
    est = estimate_pij(zero_model, 3, 3, 1.0, BSet((0,)), 500, rng)
    assert est.value == 1.0 and est.std_error == 0.0 and est.log_value == 0.0


def test_estimate_zero_jump_exact(rng):
    model = lbdi_model(LBDIParams(lam=0.8, mu=0.6, nu=0.0))
    est = estimate_pij_b(model, 5, 5, 1.0, 0, 200, rng)
    assert est.value == pytest.approx(math.exp(-7.0), rel=1e-12)
    assert est.std_error == 0.0


def test_estimate_infeasible_and_out_of_space(sis_table_model, rng):
    assert estimate_pij_b(sis_table_model, 5, 8, 1.0, 2, 100, rng).value == 0.0
    est = estimate_pij(sis_table_model, 5, 31, 1.0, BSet((26,)), 100, rng)
    assert est.value == 0.0 and est.std_error == 0.0 and est.log_value == NEG_INF
    with pytest.raises(ModelDomainError):
        estimate_pij(sis_table_model, 31, 5, 1.0, BSet((0,)), 100, rng)


def test_estimate_from_absorbing_state(sis_table_model, rng):
    est = estimate_pij(sis_table_model, 0, 0, 1.0, BSet((0, 1)), 100, rng)
    assert est.value == 1.0 and est.std_error == 0.0
    assert estimate_pij(sis_table_model, 0, 2, 1.0, BSet((0, 1, 2)), 100, rng).value == 0.0


def test_estimate_agrees_with_closed_form(lbdi_table, lbdi_table_model):
    bset = choose_bset(5, 5, lbdi_table_model, 1.0, 1e-4, RngStream(7))
    est = estimate_pij(lbdi_table_model, 5, 5, 1.0, bset, 50_000, RngStream(11))
    truth = lbdi_transition(lbdi_table, 5, 5, 1.0)
    assert abs(est.value - truth) <= 3.5 * est.std_error


def test_estimate_unbiased_at_fixed_ups(sis_table_model):
    # Repeated seeded runs against the up-jump-restricted generator oracle.
    oracle = generator_transition_fixed_ups(sis_table_model, 5, 6, 1.0, 3, n_states=30)
    hits = 0
    runs = 100
    for seed in range(runs):
        est = estimate_pij_b(sis_table_model, 5, 6, 1.0, 3, 20_000, RngStream(3_000 + seed))
        if abs(est.value - oracle) <= 3.0 * est.std_error:
            hits += 1
    assert hits >= 0.99 * runs


def test_aggregate_normalization(sis_table_model, lbdi_table_model):
    for model, j_max in ((sis_table_model, 20), (lbdi_table_model, 26)):
        total = 0.0
        for j in range(j_max + 1):
            bset = choose_bset(5, j, model, 1.0, 3e-4, RngStream(40 + j))
            total += estimate_pij(model, 5, j, 1.0, bset, 25_000, RngStream(640 + j)).value
        assert 0.99 <= total <= 1.01, (model.name, total)


def test_rare_event_log_value(rng):
    # Far tails keep a finite log estimate with small relative error even when
    # the linear value is minuscule.
    model = lbdi_model(LBDIParams(lam=0.8, mu=0.6, nu=0.0))
    est = estimate_pij_b(model, 5, 33, 1.0, 28, 50_000, rng)
    truth = generator_transition_fixed_ups(model, 5, 33, 1.0, 28)
    assert truth < 1e-8
    assert math.isfinite(est.log_value)
    assert est.std_error / est.value < 0.05
    assert abs(est.value - truth) <= 4 * est.std_error


def test_no_impossible_paths_with_model_bounds(sis_table_model, rng):
    # Taboo bounds derived from the boundaries exclude zero-rate transitions
    # combinatorially, so no sampled path carries -inf likelihood.
    for i, j, ups in ((5, 0, 4), (29, 30, 3), (1, 2, 5)):
        est = estimate_pij_b(sis_table_model, i, j, 1.0, ups, 5_000, rng)
        assert est.value > 0.0


def test_threads_bit_identical(sis_table_model):
    one = estimate_pij(sis_table_model, 5, 7, 1.0, BSet(range(2, 9)), 250_000,
                       RngStream(77), threads=1)
    four = estimate_pij(sis_table_model, 5, 7, 1.0, BSet(range(2, 9)), 250_000,
                        RngStream(77), threads=4)
    assert one == four


@pytest.mark.parametrize("threads", [0, -1])
def test_nonpositive_threads_rejected(sis_table_model, threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        estimate_pij(sis_table_model, 5, 7, 1.0, BSet(range(2, 9)), 1_000,
                     RngStream(77), threads=threads)


def test_choose_bset_zero_model(zero_model):
    assert list(choose_bset(4, 4, zero_model, 1.0, 1e-4, RngStream(3))) == [0]


def test_choose_bset_min_feasible(lbdi_table_model):
    bset = choose_bset(2, 5, lbdi_table_model, 1.0, 1e-3, RngStream(3))
    assert list(bset)[0] == 3


def test_choose_bset_support_matches_plot_range(lbdi_table_model):
    bset = choose_bset(5, 5, lbdi_table_model, 1.0, 1e-4, RngStream(7))
    assert 12 <= list(bset)[-1] <= 17  # seed-dependent cutoff around 14


def test_mc_estimate_consistency():
    est = MCEstimate(0.5, 0.01, 100, math.log(0.5))
    assert math.exp(est.log_value) == pytest.approx(est.value)
    with pytest.raises(ValueError):
        MCEstimate(-0.5, 0.01, 10, 0.0)


def test_sir_transition_via_bridges(rng):
    # The hidden-count reduction with path-dependent birth rates agrees with
    # the up-count-augmented generator oracle.
    model = sir_as_bd(SIRParams(n0=20, beta=0.05, gamma=0.7), s0=15)
    for j, ups in ((4, 2), (2, 1), (6, 3)):
        est = estimate_pij_b(model, 3, j, 1.0, ups, 40_000, rng)
        oracle = generator_transition_fixed_ups(model, 3, j, 1.0, ups)
        assert abs(est.value - oracle) <= 3.5 * est.std_error, (j, ups)
