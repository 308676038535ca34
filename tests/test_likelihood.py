import math
import statistics

import numpy as np
import pytest

from bdbridge import likelihood
from bdbridge.counting import NEG_INF, log_bridge_count, log_simplex_density
from bdbridge.errors import BridgeDomainError, ModelDomainError
from bdbridge.likelihood import (
    BLOCK,
    BSet,
    MCEstimate,
    _allocate,
    batch_path_loglik,
    choose_bset,
    estimate_pij,
    estimate_pij_b,
    spec_for,
)
from bdbridge.models import LBDIParams, SIRParams, SISParams, lbdi_model, sir_as_bd, sis_model
from bdbridge.reference import (
    generator_transition,
    generator_transition_fixed_ups,
    gillespie_simulate,
    lbdi_transition,
    straight_estimate,
)
from bdbridge.sampler import RngStream, _draw_padded
from conftest import BridgePath


def test_bset_validation():
    with pytest.raises(BridgeDomainError):
        BSet(())
    with pytest.raises(BridgeDomainError):
        BSet((2, 2))
    with pytest.raises(BridgeDomainError):
        BSet((-1, 0))
    assert list(BSet((0, 1, 5))) == [0, 1, 5]
    assert BSet((0, 1), pilot_sd=(2, 0.5)).pilot_sd == (2.0, 0.5)
    for bad in ((1.0,), (1.0, -0.1), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(BridgeDomainError, match="pilot_sd"):
            BSet((0, 1), pilot_sd=bad)


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
    # An out-of-domain start is an error even with an infeasible budget.
    with pytest.raises(ModelDomainError):
        estimate_pij_b(sis_table_model, 40, 45, 1.0, 2, 100, rng)


def test_estimate_from_absorbing_state(sis_table_model, rng):
    est = estimate_pij(sis_table_model, 0, 0, 1.0, BSet((0, 1)), 100, rng)
    assert est.value == 1.0 and est.std_error == 0.0
    assert estimate_pij(sis_table_model, 0, 2, 1.0, BSet((0, 1, 2)), 100, rng).value == 0.0


# Every entry that takes an elapsed time refuses one that is not finite and
# positive.  They run on SIS, which absorbs, so at t = inf a forward
# simulator that skipped the check would return rather than hang.
_TIMED_ENTRIES = {
    "estimate_pij": lambda m, t, rng: estimate_pij(m, 5, 5, t, BSet((0, 1, 2)), 100, rng),
    "estimate_pij_absorbing_start": lambda m, t, rng: estimate_pij(m, 0, 0, t, BSet((0,)), 100, rng),
    "estimate_pij_b": lambda m, t, rng: estimate_pij_b(m, 5, 5, t, 1, 100, rng),
    "straight_estimate": lambda m, t, rng: straight_estimate(m, 5, 5, t, 100, rng),
    "gillespie_simulate": lambda m, t, rng: gillespie_simulate(m, 5, t, rng),
}


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", list(_TIMED_ENTRIES))
def test_invalid_time_raises(sis_table_model, rng, entry, t):
    with pytest.raises(BridgeDomainError, match="finite and > 0"):
        _TIMED_ENTRIES[entry](sis_table_model, t, rng)


def test_fractional_start_raises(sis_table_model, rng):
    with pytest.raises(BridgeDomainError, match="must be an integer"):
        estimate_pij(sis_table_model, 2.5, 5, 1.0, BSet((0, 1, 2)), 100, rng)


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
    assert est.log_std_error == math.log(0.01)
    assert MCEstimate(1.0, 0.0, 10, 0.0).log_std_error == NEG_INF
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


# Rare-event termination on SIS; the benchmark's transprob workload runs it.
RARE_SIS = sis_model(SISParams(n0=30, beta=0.03, gamma=1.0))


def test_allocation_split():
    pilot_sd = (5.0, 1e-3, 0.0, 2.0)
    k = len(pilot_sd)
    for n in (1, 7, 8, 9, 1000, 12_345, 1 << 18):
        counts = _allocate(n, pilot_sd)
        assert counts == _allocate(n, pilot_sd)
        assert sum(counts) == max(n, 2 * k)
        assert all(c >= max(2, n // (8 * k)) for c in counts)
    counts = _allocate(1 << 18, pilot_sd)
    assert counts[0] > counts[3] > counts[1] >= counts[2]
    # With equal pilots (no pilot information), or only exact ones, the split is equal.
    assert _allocate(1000, (1.0,) * 4) == [250] * 4
    assert _allocate(1000, (0.0, 0.0)) == [500, 500]


def test_empty_strata_get_no_draws(sis_table_model):
    # 5 -> 7 needs two up jumps: counts 0 and 1 have empty bridge spaces, so
    # the estimate, n included, is the one over the set without them,
    # whatever pilot SDs they carry.
    for n in (3, 5000):
        with_empty = estimate_pij(sis_table_model, 5, 7, 1.0,
                                  BSet(range(0, 6), pilot_sd=(9.0, 9.0, 1.0, 2.0, 3.0, 4.0)),
                                  n, RngStream(6))
        without = estimate_pij(sis_table_model, 5, 7, 1.0,
                               BSet(range(2, 6), pilot_sd=(1.0, 2.0, 3.0, 4.0)), n,
                               RngStream(6))
        assert with_empty == without and with_empty.value > 0


def test_estimate_raises_n_to_two_per_stratum(sis_table_model):
    est = estimate_pij(sis_table_model, 5, 3, 1.0, BSet(range(0, 6)), 3, RngStream(4))
    assert est.n == 12 and est.value > 0 and est.std_error > 0


def test_choose_bset_keeps_pilot_sd(sis_table_model):
    bset = choose_bset(5, 7, sis_table_model, 1.0, 1e-4, RngStream(78))
    assert bset.pilot_sd is not None and len(bset.pilot_sd) == len(bset)
    assert all(sd > 0 for sd in bset.pilot_sd)


def test_stratified_z_calibration():
    # Pilot-driven sets, each estimate against the exact generator value.
    exact = generator_transition(RARE_SIS, 10, 0, 1.0, n_states=30)
    zs = []
    for seed in range(120):
        bset = choose_bset(10, 0, RARE_SIS, 1.0, 1e-4, RngStream(seed, (1,)), pilot_n=512)
        est = estimate_pij(RARE_SIS, 10, 0, 1.0, bset, 8192, RngStream(seed, (2,)))
        zs.append((est.value - exact) / est.std_error)
    assert sum(abs(z) <= 3.0 for z in zs) >= 0.97 * len(zs)
    assert abs(statistics.fmean(zs)) <= 0.3


def test_wrong_pilot_sd_stays_unbiased():
    # All pilot weight on the last count: the others get only the floor.
    exact = generator_transition(RARE_SIS, 10, 0, 1.0, n_states=30)
    bset = choose_bset(10, 0, RARE_SIS, 1.0, 1e-4, RngStream(5))
    wrong = BSet(bset.values, pilot_sd=(0.0,) * (len(bset) - 1) + (1.0,))
    assert _allocate(4096, wrong.pilot_sd)[0] < 4096 // len(bset)
    ests = [estimate_pij(RARE_SIS, 10, 0, 1.0, wrong, 4096, RngStream(seed, (3,)))
            for seed in range(120)]
    mean = statistics.fmean(e.value for e in ests)
    se_mean = math.sqrt(sum(e.std_error ** 2 for e in ests)) / len(ests)
    assert abs(mean - exact) <= 4.0 * se_mean


def test_threads_bit_identical_with_pilot_sd(sis_table_model):
    bset = choose_bset(5, 7, sis_table_model, 1.0, 1e-4, RngStream(78))
    assert len(set(bset.pilot_sd)) > 1
    one = estimate_pij(sis_table_model, 5, 7, 1.0, bset, 3 * BLOCK + 5, RngStream(77),
                       threads=1)
    four = estimate_pij(sis_table_model, 5, 7, 1.0, bset, 3 * BLOCK + 5, RngStream(77),
                        threads=4)
    assert one == four


def test_draw_calls_stay_within_block(sis_table_model, monkeypatch):
    rows = []
    draw = likelihood._draw_padded

    def spy(i, j, up_jumps, t, lower, upper, size, rng):
        rows.append(size)
        return draw(i, j, up_jumps, t, lower, upper, size, rng)

    monkeypatch.setattr(likelihood, "_draw_padded", spy)
    bset = BSet((2, 3, 4), pilot_sd=(1.0, 0.0, 0.0))
    est = estimate_pij(sis_table_model, 5, 7, 1.0, bset, 5 * BLOCK + 3, RngStream(5))
    assert max(rows) <= BLOCK and sum(rows) == est.n == 5 * BLOCK + 3


def test_stratum_stream_keyed_by_count(sis_table_model):
    # Count 2 cannot reach 8 from 5, so it gets no draws; count 3 then draws
    # exactly what it draws alone, from the stream keyed by its count.
    alone = estimate_pij_b(sis_table_model, 5, 8, 1.0, 3, 3000, RngStream(12))
    in_set = estimate_pij(sis_table_model, 5, 8, 1.0, BSet((2, 3)), 3000, RngStream(12))
    assert in_set == alone and alone.value > 0


# Tilted holding times: (model, i, j, up jumps, t) against the up-jump-restricted
# generator.  SIS: two finite bounds with the absorbing end; SIR: birth rates
# that read the up count; L-BDI with immigration: one (reflecting) bound.
_TILT_CASES = {
    "sis_absorbing": (sis_model(SISParams(n0=8, beta=0.3, gamma=1.0)), 6, 0, 4, 1.0),
    "sir_up_count": (sir_as_bd(SIRParams(n0=20, beta=0.05, gamma=0.7), s0=15), 3, 4, 3, 1.0),
    "lbdi_immigration": (lbdi_model(LBDIParams(lam=0.8, mu=0.6, nu=1.2)), 2, 1, 3, 1.5),
}


@pytest.mark.parametrize("case", list(_TILT_CASES))
def test_tilted_estimate_z_calibration(case):
    model, i, j, ups, t = _TILT_CASES[case]
    oracle = generator_transition_fixed_ups(model, i, j, t, ups, n_states=40)
    zs = [(est.value - oracle) / est.std_error
          for est in (estimate_pij_b(model, i, j, t, ups, 4096, RngStream(seed, (8,)))
                      for seed in range(20))]
    assert max(abs(z) for z in zs) <= 4.0, zs
    assert abs(statistics.fmean(zs)) <= 0.9, zs


@pytest.mark.parametrize("case", list(_TILT_CASES))
def test_tilted_estimate_exact_without_jumps(case):
    # With no jump the tilted weight reduces to exp(-t a_0): every draw is exact.
    model, i, _, _, t = _TILT_CASES[case]
    est = estimate_pij_b(model, i, i, t, 0, 64, RngStream(1))
    oracle = generator_transition_fixed_ups(model, i, i, t, 0, n_states=40)
    assert est.value == pytest.approx(oracle, rel=1e-12) and est.std_error == 0.0


def test_tilted_weights_spread_below_uniform():
    # Same skeletons and uniform times: weighed at the uniform times by
    # batch_path_loglik, and mapped onto the tilted times.
    spec = spec_for(RARE_SIS, 10, 0, 0, 1.0)

    def rel_sd(logw):
        w = np.exp(logw - logw.max())
        return w.std() / w.mean()

    def log_mean(logw):
        return logw.max() + math.log(np.exp(logw - logw.max()).mean())

    tilted = likelihood._log_weights_block(RARE_SIS, spec, 8192, RngStream(4))
    steps, dtau, _ = _draw_padded(10, 0, 0, 1.0, spec.lower, spec.upper, 8192, RngStream(4))
    uniform = (batch_path_loglik(RARE_SIS, 10, steps, dtau)
               - (log_simplex_density(spec.jumps, 1.0) - log_bridge_count(spec)))
    assert rel_sd(uniform) >= 10 * rel_sd(tilted)
    assert abs(log_mean(tilted) - log_mean(uniform)) <= 5 * rel_sd(uniform) / math.sqrt(8192)


def test_tilted_path_loglik_mixed_rows_match_single_rows():
    # Rows of mixed length in one padded draw, as the filter makes them
    # (several width classes, with shorter rows padded inside each), weigh as
    # each row does alone at its own width, the padding-free case that
    # estimate_pij's blocks are.  Only the rounding of the padding
    # corrections differs.
    model = sir_as_bd(SIRParams(n0=199, beta=0.0016, gamma=0.2607), s0=190)
    rng = np.random.default_rng(3)
    drop, t, m = 6, 1.0, 2000
    i = np.sort(rng.integers(1, 31, m))
    j = (rng.random(m) * (i + drop + 1)).astype(np.int64)
    steps, dtau, jumps = _draw_padded(i, j, drop, t, 0, np.inf, m, RngStream(5))
    assert len(set(jumps.tolist())) > 20
    mixed = batch_path_loglik(model, i, steps, dtau, t)
    single = [batch_path_loglik(model, i[r], steps[r:r + 1, :k], dtau[r:r + 1, :k + 1], t)[0]
              for r, k in enumerate(jumps.tolist())]
    assert np.all(np.isfinite(mixed))
    np.testing.assert_allclose(mixed, single, rtol=1e-11, atol=1e-11)


def test_choose_bset_below_float_range():
    # log p(600 -> 0) is about -833: every linear increment underflows to 0.
    model = sis_model(SISParams(n0=600, beta=0.0015, gamma=1.0))
    bset = choose_bset(600, 0, model, 0.3, 1e-4, RngStream(1), pilot_n=256)
    assert len(bset) > 1 and max(bset.pilot_sd) == 1.0
    est = estimate_pij(model, 600, 0, 0.3, bset, 4096, RngStream(2))
    full = estimate_pij(model, 600, 0, 0.3, BSet(range(21)), 4096, RngStream(3))
    assert est.value == 0.0 and -850 < est.log_value < -820
    assert math.isfinite(est.log_std_error) and math.isfinite(full.log_std_error)
    rel = math.hypot(*(math.exp(e.log_std_error - e.log_value) for e in (est, full)))
    assert abs(est.log_value - full.log_value) <= 4 * rel
