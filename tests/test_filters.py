import math

import numpy as np
import pytest

from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln

from bdbridge import filters
from bdbridge.counting import NEG_INF, BridgeSpec, log_bridge_count
from bdbridge.errors import DataFormatError
from bdbridge.filters import (
    FilterState,
    Observations,
    bootstrap_filter,
    failure_domain_scan,
    igbs_filter_loglik,
    igbs_filter_step,
    initial_state,
    run_filter,
)
from bdbridge.likelihood import batch_path_loglik, estimate_pij_b
from bdbridge.models import SIRParams, sir_as_bd
from bdbridge.reference import _generator, generator_transition_fixed_ups
from bdbridge.sampler import RngStream, _draw_padded

SHIGELLA = SIRParams(n0=199, beta=0.0016, gamma=0.2607)


def make_obs(times, sus):
    return Observations(np.array(times, float), np.array(sus))


def test_observation_validation():
    with pytest.raises(DataFormatError):
        make_obs([0, 1, 1], [5, 4, 3])           # times not increasing
    with pytest.raises(DataFormatError):
        make_obs([0, 1, 2], [5, 6, 3])           # susceptibles increase
    with pytest.raises(DataFormatError):
        make_obs([0, 1], [3, -1])
    for value in (10.5, math.inf, math.nan):
        for row, sus in ((1, [value, 9]), (2, [10, value])):
            with pytest.raises(DataFormatError, match=f"^susceptible count in row {row} "
                                                      f"is not a finite whole number"):
                make_obs([0, 1], sus)
    obs = make_obs([0.0, 1.5, 4.0], [9, 9, 7])
    assert obs.susceptibles.dtype == np.int64
    assert obs.steps == 2
    assert obs.susceptibles.tolist() == [9, 9, 7]


def test_filter_state_invariants():
    state = initial_state(3)
    assert state.p_alive == 1.0
    assert state.posterior.tolist() == [0, 0, 0, 1]
    with pytest.raises(ValueError):
        initial_state(0)


def test_absorbed_step_is_zero_one():
    dead = initial_state(1)
    dead.posterior[:] = [1.0, 0.0]
    state, ll = igbs_filter_step(dead, SHIGELLA, 198, 198, 1.0, 100, RngStream(1))
    assert ll == 0.0 and state.p_alive == 0.0
    state, ll = igbs_filter_step(dead, SHIGELLA, 198, 196, 1.0, 100, RngStream(1))
    assert ll == NEG_INF


def test_one_step_constant_count_hand_value():
    # From one infectious case, an unchanged susceptible count means either no
    # event or a single removal; both terms integrate in closed form.
    total_rate = SHIGELLA.beta * 198 * 1 + SHIGELLA.gamma
    exact = math.exp(-total_rate) + SHIGELLA.gamma * (1 - math.exp(-total_rate)) / total_rate
    state, ll = igbs_filter_step(initial_state(1), SHIGELLA, 198, 198, 1.0,
                                 60_000, RngStream(5))
    assert math.exp(ll) == pytest.approx(exact, rel=0.01)
    assert state.posterior.sum() == pytest.approx(1.0, abs=1e-12)


def test_one_step_matches_bridge_expectation():
    # The step's conditional probability equals the sum over end states of the
    # fixed-up-jump transition probabilities, estimated independently.
    params = SIRParams(n0=199, beta=0.002, gamma=0.3)
    s_prev, s_next, i0 = 198, 196, 2
    drop = s_prev - s_next
    _, ll = igbs_filter_step(initial_state(i0), params, s_prev, s_next, 1.0,
                             120_000, RngStream(9))
    model = sir_as_bd(params, s0=s_prev)
    total, var = 0.0, 0.0
    for j in range(0, i0 + drop + 1):
        est = estimate_pij_b(model, i0, j, 1.0, drop, 120_000, RngStream(200 + j))
        total += est.value
        var += est.std_error ** 2
    assert abs(math.exp(ll) - total) <= 3.0 * math.sqrt(var) + 0.01 * total


#: A start posterior spread over several states, with zero-mass gaps.
SPREAD_POSTERIOR = np.array([0.1, 0.2, 0.3, 0.0, 0.25, 0.15, 0.0])


def test_step_draws_are_stratified(monkeypatch):
    # Start state i gets floor(m p_i) or ceil(m p_i) draws (p the positive
    # posterior), a zero-mass state none; within start i, each end state
    # gets n_i / (i + drop + 1) draws to within 2 (one stratum per draw).
    drawn = []

    def recording(i, j, *args):
        drawn.append((np.array(i), np.array(j)))
        return _draw_padded(i, j, *args)

    monkeypatch.setattr(filters, "_draw_padded", recording)
    positive = SPREAD_POSTERIOR.copy()
    positive[0] = 0.0
    positive /= positive.sum()
    m, drop = 1_000, 2
    for seed in range(5):
        drawn.clear()
        igbs_filter_step(FilterState(0, SPREAD_POSTERIOR), SHIGELLA, 198, 198 - drop,
                         1.0, m, RngStream(seed))
        (i_draws, j_draws), = drawn
        counts = np.bincount(i_draws, minlength=len(positive))
        assert np.all((counts == np.floor(m * positive)) | (counts == np.ceil(m * positive))), counts
        assert np.all(counts[positive == 0.0] == 0)
        for i in np.flatnonzero(counts):
            width = i + drop + 1
            ends = np.bincount(j_draws[i_draws == i], minlength=width)
            assert len(ends) == width
            assert np.all(np.abs(ends - counts[i] / width) < 2), (i, ends)


def _iid_step_total(posterior, params, s_prev, drop, dt, m, rng):
    """The step total from independent start and end draws, the scheme the
    stratified draws replaced; kept here as a spread baseline."""
    positive = posterior.copy()
    positive[0] = 0.0
    positive /= positive.sum()
    i = rng.gen.choice(len(positive), m, p=positive)
    j = (rng.gen.random(m) * (i + drop + 1)).astype(np.int64)
    steps, dtau, jumps = _draw_padded(i, j, drop, dt, 0, np.inf, m, rng)
    ll = batch_path_loglik(sir_as_bd(params, s0=s_prev), i, steps, dtau)
    log_cards = np.array([log_bridge_count(BridgeSpec(i=int(a), j=int(b), up_jumps=drop,
                                                      lower=0, upper=int(a) + drop + 1))
                          for a, b in zip(i, j)])
    log_simplex = gammaln(jumps + 1) - jumps * math.log(dt)
    q = np.exp(ll - log_simplex + log_cards + np.log(i + drop + 1))
    p_alive = 1.0 - posterior[0]
    return p_alive * q.mean() + (1.0 - p_alive if drop == 0 else 0.0)


@pytest.mark.parametrize("drop", [0, 2])
def test_step_total_calibrated_against_exact(drop):
    # exp(step log-likelihood) is unbiased for the exact predictive
    # probability: its mean over 40 seeds at m = 200 lies within 3 SE of the
    # generator value.  Its spread is under 60% of that of independent draws
    # on the same seeds (measured: 21% at drop 0, 37% at drop 2).
    s_prev, dt, m = 198, 1.0, 200
    model = sir_as_bd(SHIGELLA, s0=s_prev)
    exact = sum(p * generator_transition_fixed_ups(model, i, j, dt, drop)
                for i, p in enumerate(SPREAD_POSTERIOR) if i > 0 and p > 0
                for j in range(i + drop + 1))
    if drop == 0:
        exact += SPREAD_POSTERIOR[0]  # the epidemic is over: nothing can drop
    seeds = range(300, 340)
    stratified = np.array([
        math.exp(igbs_filter_step(FilterState(0, SPREAD_POSTERIOR), SHIGELLA, s_prev,
                                  s_prev - drop, dt, m, RngStream(seed))[1])
        for seed in seeds])
    iid = np.array([_iid_step_total(SPREAD_POSTERIOR, SHIGELLA, s_prev, drop, dt, m,
                                    RngStream(seed)) for seed in seeds])
    se = stratified.std(ddof=1) / math.sqrt(len(seeds))
    assert abs(stratified.mean() - exact) <= 3.0 * se, (stratified.mean(), exact, se)
    assert stratified.std(ddof=1) < 0.6 * iid.std(ddof=1)


def _exact_step_log_prob(params, i0, s_prev, drop, dt):
    """log P(``drop`` infections in ``dt`` | ``i0`` infectious), over every
    end state, from the generator with up-count layers."""
    cap, layers = i0 + drop, drop + 2
    start = np.zeros((cap + 1) * layers)
    start[i0 * layers] = 1.0
    end = expm_multiply(_generator(sir_as_bd(params, s0=s_prev), cap, drop).T * dt, start)
    return math.log(end[np.arange(cap + 1) * layers + drop].sum())


@pytest.mark.parametrize("drop, dt, exact, mean_tol, sd_max", [
    (60, 1.0, -5.5882, 0.05, 0.1),
    (100, 7.0, -17.9697, 1.0, 0.6),
])
def test_long_bridge_step_against_exact(drop, dt, exact, mean_tol, sd_max):
    # One step from 30 infectious (n0 = 2000, R0 = 2) over bridges of 60 to
    # 230 jumps, at m = 2000 on seeds 0..11.  Measured mean minus exact and
    # sd: -0.012 and 0.038 at drop 60, -0.46 and 0.32 at drop 100.  Uniform
    # holding times read -0.14 and 0.15, and -2.39 and 1.03, failing both
    # bounds at both drops.
    params = SIRParams(n0=2000, beta=0.0005, gamma=0.5)
    i0, s_prev = 30, 1970
    assert _exact_step_log_prob(params, i0, s_prev, drop, dt) == pytest.approx(exact, abs=1e-4)
    lls = np.array([igbs_filter_step(initial_state(i0), params, s_prev, s_prev - drop,
                                     dt, 2000, RngStream(seed))[1] for seed in range(12)])
    assert abs(lls.mean() - exact) <= mean_tol, lls - exact
    assert lls.std(ddof=1) <= sd_max, lls - exact


def test_step_beyond_exact_count_limit():
    # With beta = 0 no susceptible is ever infected, so an unchanged count has
    # log-probability exactly 0.  From 4600 infectious the bridges reach 4600
    # jumps, past the 4096 of exact integer counting, which the step does
    # not call.  Measured on seeds 0..11: mean 0.0085, sd 0.021.
    params = SIRParams(n0=4700, beta=0.0, gamma=1.0)
    lls = np.array([igbs_filter_step(initial_state(4600), params, 100, 100, 1.0, 500,
                                     RngStream(seed))[1] for seed in range(12)])
    assert abs(lls.mean()) <= 0.05, lls
    assert lls.std(ddof=1) <= 0.06, lls


def test_posterior_support_bound():
    obs = make_obs(range(6), [198, 198, 196, 195, 195, 192])
    state = initial_state(1)
    for k in range(1, len(obs)):
        state, _ = igbs_filter_step(
            state, SHIGELLA, int(obs.susceptibles[k - 1]), int(obs.susceptibles[k]),
            1.0, 4_000, RngStream(70 + k),
        )
        assert state.posterior.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(state.posterior) == 1 + 1 + (198 - obs.susceptibles[k])


def test_loglik_constant_series_no_transmission():
    # With no transmission and constant counts the record is certain once the
    # single case recovers; the log-likelihood stays near 0 and always finite.
    obs = make_obs(range(8), [50] * 8)
    params = SIRParams(n0=51, beta=0.0, gamma=0.8)
    ll = igbs_filter_loglik(params, obs, 1, 4_000, RngStream(3))
    assert math.isfinite(ll)
    assert abs(ll) < 0.05


def test_loglik_impossible_drop():
    obs = make_obs([0, 1], [50, 48])
    params = SIRParams(n0=51, beta=0.0, gamma=0.8)
    assert igbs_filter_loglik(params, obs, 1, 2_000, RngStream(3)) == NEG_INF


def test_filter_deterministic():
    obs = make_obs(range(5), [198, 198, 197, 195, 195])
    a = igbs_filter_loglik(SHIGELLA, obs, 1, 3_000, RngStream(11))
    b = igbs_filter_loglik(SHIGELLA, obs, 1, 3_000, RngStream(11))
    assert a == b


def test_filter_time_rescaling_invariance():
    # Doubling all times while halving both rates leaves every conditional
    # probability unchanged.
    obs1 = make_obs(range(5), [198, 198, 197, 195, 195])
    obs2 = make_obs([0, 2, 4, 6, 8], [198, 198, 197, 195, 195])
    half = SIRParams(n0=199, beta=SHIGELLA.beta / 2, gamma=SHIGELLA.gamma / 2)
    a = igbs_filter_loglik(SHIGELLA, obs1, 1, 5_000, RngStream(13))
    b = igbs_filter_loglik(half, obs2, 1, 5_000, RngStream(13))
    assert a == pytest.approx(b, abs=1e-9)


def test_run_filter_trace():
    obs = make_obs(range(4), [198, 197, 197, 196])
    trace = []
    ll, final = run_filter(SHIGELLA, obs, 1, 2_000, RngStream(17), trace=trace)
    assert len(trace) == 3
    assert ll == pytest.approx(sum(e["cond_loglik"] for e in trace))
    assert final.posterior.sum() == pytest.approx(1.0, abs=1e-12)


def test_bootstrap_frozen_model():
    obs = make_obs(range(5), [60] * 5)
    params = SIRParams(n0=61, beta=0.0, gamma=0.0)
    res = bootstrap_filter(params, obs, 2_000, 0.001, RngStream(19))
    assert res.loglik == 0.0
    assert not res.failed
    assert np.all(res.survival == 1.0)


def test_bootstrap_matches_igbs_filter():
    obs = make_obs(range(8), [198, 198, 197, 197, 196, 195, 195, 194])
    boot = bootstrap_filter(SHIGELLA, obs, 60_000, 0.001, RngStream(23))
    igbs = igbs_filter_loglik(SHIGELLA, obs, 1, 20_000, RngStream(29))
    assert not boot.failed
    assert abs(boot.loglik - igbs) < 0.35


def test_bootstrap_all_dead_weights():
    obs = make_obs([0, 1], [50, 45])
    params = SIRParams(n0=51, beta=1e-7, gamma=5.0)
    res = bootstrap_filter(params, obs, 500, 0.001, RngStream(31))
    assert res.loglik == NEG_INF and res.failed


def test_failure_scan_threshold_monotone():
    obs = make_obs(range(6), [198, 198, 196, 194, 193, 192])
    scan = failure_domain_scan(obs, [0.001, 0.004], [0.15, 0.5], 3_000,
                               (0.001, 0.0001), RngStream(37))
    assert scan.survival_min.shape == (2, 2)
    # failure at the tighter threshold implies failure at the looser one
    assert np.all(scan.failed[1] <= scan.failed[0])
