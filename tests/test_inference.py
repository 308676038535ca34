import dataclasses
import hashlib

import numpy as np
import pytest

from bdbridge.counting import NEG_INF
from bdbridge.filters import Observations
from bdbridge.inference import (
    GridSpec,
    SearchConfig,
    _profile_interval,
    basic_reproduction_number,
    fit_mle,
    loglik_surface,
)
from bdbridge.filters import igbs_filter_loglik
from bdbridge.models import SIRParams
from bdbridge.sampler import RngStream


def make_obs(times, sus):
    return Observations(np.array(times, float), np.array(sus))


def test_single_cell_surface_equals_average():
    obs = make_obs(range(5), [198, 198, 197, 196, 196])
    rng = RngStream(3)
    surf = loglik_surface(obs, [0.0016], [0.26], 2_000, rng, replications=3)
    direct = np.mean([
        igbs_filter_loglik(SIRParams(199, 0.0016, 0.26), obs, 1, 2_000, rng.child(0, 0, r))
        for r in range(3)
    ])
    assert surf.mean[0, 0] == pytest.approx(direct)


def test_surface_with_impossible_column():
    obs = make_obs(range(4), [50, 50, 48, 48])
    surf = loglik_surface(obs, [0.0, 0.01], [0.3], 1_000, RngStream(5))
    assert surf.mean[0, 0] == NEG_INF        # no transmission cannot drop S
    assert np.isfinite(surf.mean[1, 0])


def test_surface_threads_invariant():
    # beta = 0 cannot drop S, so its -inf cells cross the process boundary too.
    obs = make_obs(range(4), [198, 197, 197, 196])
    a = loglik_surface(obs, [0.0, 0.001, 0.002], [0.2, 0.3], 1_500, RngStream(7),
                       replications=2, threads=1)
    b = loglik_surface(obs, [0.0, 0.001, 0.002], [0.2, 0.3], 1_500, RngStream(7),
                       replications=2, threads=4)
    assert np.all(a.mean[0] == NEG_INF) and np.all(np.isfinite(a.mean[1:]))
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.spread, b.spread)


def test_fit_worker_count_invariant():
    obs = make_obs(range(6), [198, 197, 197, 195, 194, 194])
    config = SearchConfig(beta=GridSpec(0.0005, 0.004, 3),
                          gamma=GridSpec(0.1, 0.5, 3),
                          refinements=2, replications=2, threads=1)
    one = fit_mle(obs, config, 500, RngStream(31))
    two = fit_mle(obs, dataclasses.replace(config, threads=2), 500, RngStream(31))
    for name in ("beta_hat", "gamma_hat", "ci_beta", "ci_gamma", "r0",
                 "loglik_max", "boundary_warning", "ci_beta_at_edge", "ci_gamma_at_edge"):
        assert getattr(one, name) == getattr(two, name), name
    assert np.array_equal(one.surface.mean, two.surface.mean)
    assert np.array_equal(one.surface.spread, two.surface.spread)


@pytest.mark.parametrize("threads", [1, 2])
def test_surface_cell_errors_propagate(threads):
    obs = make_obs(range(4), [198, 197, 197, 196])
    with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
        loglik_surface(obs, [0.001, 0.002], [0.2, 0.3], 0, RngStream(7),
                       threads=threads)


@pytest.mark.parametrize("name, value", [
    pytest.param("threads", 0, id="0"), pytest.param("threads", -3, id="-3"),
    ("refinements", 0), ("replications", 0),
])
def test_nonpositive_threads_rejected(name, value):
    message = f"{name} must be >= 1, got {value}"
    with pytest.raises(ValueError, match=message):
        SearchConfig(beta=GridSpec(0.001, 0.002, 2), gamma=GridSpec(0.2, 0.3, 2),
                     **{name: value})
    if name != "refinements":
        obs = make_obs(range(4), [198, 197, 197, 196])
        with pytest.raises(ValueError, match=message):
            loglik_surface(obs, [0.001], [0.2], 100, RngStream(7), **{name: value})


def _digest(*values) -> str:
    h = hashlib.sha256()
    for value in values:
        a = np.ascontiguousarray(value, dtype=float)
        h.update(f"{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


#: Digests of seeded fits, recorded when the filter began to read its skeleton
#: counts off the sampler's walk table instead of exact integer counts (every
#: field moved by at most 9e-16, and the argmax of every fit stayed where it
#: was).  Keys: grid points per parameter, levels, workers.
PINNED_FIT = {
    (3, 1, 1): "9bd1212b92218b07e80b83528675db651d1aae51b24989349b218fd030fb08be",
    (4, 2, 2): "d30a96e254175a2ff25cd733857be60d66d00fa0aa837b8482de90d97543821c",
    (3, 3, 1): "dddd32074a156d8fd407d14bd17038dc35740c76f4cd322f45dcf2f2db50321d",
    (1, 2, 1): "a67cb7b7aa7216a5da465ede2fdcbb1ef3355cc00386f7e72fd7bbd1a780468c",
}


@pytest.mark.parametrize("steps, levels, threads", PINNED_FIT)
def test_fit_pinned(steps, levels, threads):
    """Seeded fit outputs are pinned; a deliberate change of the search must
    update these digests and record the change in CHANGES.md."""
    obs = make_obs(range(6), [198, 197, 197, 195, 194, 194])
    if steps == 1:
        beta, gamma = GridSpec(0.0016, 0.002, 1), GridSpec(0.26, 0.3, 1)
    else:
        beta, gamma = GridSpec(0.0005, 0.004, steps), GridSpec(0.1, 0.5, steps)
    fit = fit_mle(obs, SearchConfig(beta, gamma, refinements=levels, replications=2,
                                    threads=threads), 300, RngStream(41))
    assert _digest([fit.beta_hat, fit.gamma_hat, fit.r0, fit.loglik_max,
                    fit.boundary_warning], fit.ci_beta, fit.ci_gamma,
                   fit.ci_beta_at_edge, fit.ci_gamma_at_edge,
                   fit.surface.beta_grid, fit.surface.gamma_grid,
                   fit.surface.mean, fit.surface.spread) == PINNED_FIT[steps, levels, threads]


def test_profile_interval_interpolation():
    grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    profile = np.array([-10.0, -1.0, 0.0, -1.0, -10.0])
    lo, hi, lo_at_edge, hi_at_edge = _profile_interval(grid, profile, drop=1.92)
    assert not lo_at_edge and not hi_at_edge
    # crossing interpolated between the -1 and -10 points
    assert 1.0 - (1.92 - 1.0) / 9.0 == pytest.approx(lo)
    assert 3.0 + (1.92 - 1.0) / 9.0 == pytest.approx(hi)
    assert lo < 2.0 < hi


def test_profile_cutoff_monotone():
    grid = np.linspace(0, 4, 9)
    profile = -((grid - 2.0) ** 2)
    lo1, hi1, *_ = _profile_interval(grid, profile, drop=1.92)
    lo2, hi2, *_ = _profile_interval(grid, profile, drop=3.0)
    assert lo2 <= lo1 and hi2 >= hi1


def test_profile_interval_flags_grid_edge():
    # A profile rising to the top of the grid never drops by 1.92 on that
    # side: the upper end is the grid edge and is flagged, the lower end is
    # an interpolated crossing.  Mirrored, the flags swap.
    grid = np.linspace(0.0, 4.0, 9)
    profile = 2.0 * grid
    assert _profile_interval(grid, profile) == pytest.approx((4.0 - 1.92 / 2.0, 4.0, False, True))
    assert _profile_interval(grid, profile[::-1]) == pytest.approx((0.0, 1.92 / 2.0, True, False))
    assert _profile_interval(grid, np.zeros(9))[2:] == (True, True)


def test_r0_formula_and_rescaling():
    assert basic_reproduction_number(0.0016, 0.2607, 199) == pytest.approx(1.2213, abs=1e-3)
    # jointly rescaling the time unit leaves the ratio unchanged
    assert basic_reproduction_number(0.0008, 0.13035, 199) == pytest.approx(
        basic_reproduction_number(0.0016, 0.2607, 199))
    assert basic_reproduction_number(1.0, 0.0, 10) == np.inf


def _simulate_sir_record(params, i0, n_obs, rng):
    """Forward-simulate a full epidemic and read off daily susceptible counts."""
    s, i = params.n0 - i0, i0
    t = 0.0
    times = [0.0]
    sus = [s]
    gen = rng.gen
    while len(times) < n_obs:
        rate_inf = params.beta * s * i
        rate_rem = params.gamma * i
        total = rate_inf + rate_rem
        if total <= 0:
            t_next = times[-1] + 1.0
        else:
            t_next = t + gen.exponential(1.0 / total)
        while len(times) < n_obs and times[-1] + 1.0 <= t_next:
            times.append(times[-1] + 1.0)
            sus.append(s)
        if total <= 0:
            continue
        t = t_next
        if gen.random() < rate_inf / total:
            s -= 1
            i += 1
        else:
            i -= 1
    return make_obs(times, sus)


def test_fit_recovers_synthetic_truth_coverage():
    # Small-scale simulation study: the profile intervals should cover the
    # generating parameters in most seeded fits.
    true = SIRParams(n0=120, beta=0.004, gamma=0.35)
    config = SearchConfig(beta=GridSpec(0.001, 0.012, 9),
                          gamma=GridSpec(0.1, 0.9, 9),
                          refinements=2, replications=2, threads=4)
    covered = 0
    fits = 6
    for seed in range(fits):
        obs = _simulate_sir_record(true, 2, 60, RngStream(500 + seed))
        if obs.susceptibles[0] == obs.susceptibles[-1]:
            covered += 1  # epidemic died instantly; nothing to fit
            continue
        fit = fit_mle(obs, config, 800, RngStream(900 + seed), i0=2)
        if (fit.ci_beta[0] <= true.beta <= fit.ci_beta[1]
                and fit.ci_gamma[0] <= true.gamma <= fit.ci_gamma[1]):
            covered += 1
    assert covered >= fits - 1


def test_fit_argmax_stable_across_seeds():
    # Scaled-down stability check on the outbreak record: independently seeded
    # refits should land within one coarse grid cell of each other.  With
    # independent filter draws one cell held in only 7 or 8 of 12 seed triples
    # (base seeds 1403, 1406, ..., 1436), so the bound was two cells.  With
    # the stratified draws it held in all 12 fresh triples (base seeds 1439,
    # 1442, ..., 1472), the largest spread 0.875 cells in each parameter.  The
    # seeds below spread 0.375 cells in each.
    from bdbridge.cli import load_shigellosis

    obs = load_shigellosis()
    config = SearchConfig(beta=GridSpec(0.0008, 0.0028, 9),
                          gamma=GridSpec(0.10, 0.45, 9),
                          refinements=2, replications=2, threads=4)
    fits = [fit_mle(obs, config, 2_500, RngStream(1_400 + s)) for s in range(3)]
    beta_cell = (0.0028 - 0.0008) / 8
    gamma_cell = (0.45 - 0.10) / 8
    betas = [f.beta_hat for f in fits]
    gammas = [f.gamma_hat for f in fits]
    assert max(betas) - min(betas) <= beta_cell + 1e-12, betas
    assert max(gammas) - min(gammas) <= gamma_cell + 1e-12, gammas


def test_fit_result_invariants():
    true = SIRParams(n0=120, beta=0.004, gamma=0.35)
    obs = _simulate_sir_record(true, 2, 50, RngStream(321))
    config = SearchConfig(beta=GridSpec(0.001, 0.012, 7),
                          gamma=GridSpec(0.1, 0.9, 7),
                          refinements=2, replications=2, threads=4)
    fit = fit_mle(obs, config, 600, RngStream(11), i0=2)
    assert fit.ci_beta[0] <= fit.beta_hat <= fit.ci_beta[1]
    assert fit.ci_gamma[0] <= fit.gamma_hat <= fit.ci_gamma[1]
    assert np.isfinite(fit.loglik_max)
    assert fit.r0 == pytest.approx(fit.beta_hat * 120 / fit.gamma_hat)
