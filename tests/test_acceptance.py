"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line so a run with ``pytest -s`` reads as a checklist
(without ``-s`` the lines surface only for failures).  Tolerances are fixed
here, not tuned at runtime; Monte Carlo checks run under frozen seeds so the
suite is deterministic.
"""

import math
import time
from collections import Counter

import numpy as np
from scipy import stats

from bdbridge.cli import load_shigellosis
from bdbridge.counting import BridgeSpec, bridge_count
from bdbridge.errors import BridgeDomainError
from bdbridge.filters import bootstrap_filter, igbs_filter_loglik
from bdbridge.inference import GridSpec, SearchConfig, fit_mle
from bdbridge.likelihood import BSet, choose_bset, estimate_pij, estimate_pij_b
from bdbridge.models import LBDIParams, SIRParams, SISParams, lbdi_model, sis_model
from bdbridge.reference import lbdi_transition, straight_estimate
from bdbridge.sampler import RngStream, _draw_padded
from conftest import enumerate_bridges

TABLE5_CI_BETA = (0.0011, 0.0024)
TABLE5_CI_GAMMA = (0.1624, 0.4032)

# The published termination probabilities (and their reported standard errors)
# are reproduced exactly by the finite-state generator exponential only at a
# contact rate of 0.03; the rate table's 0.003 gives values an order of
# magnitude larger.  The termination runs therefore use 0.03.
SIS_TERMINATION = sis_model(SISParams(n0=30, beta=0.03, gamma=1.0))
TERMINATION_TARGETS = {
    10: (1.997e-3, 3.6e-5),
    20: (8.948e-6, 2.9e-7),
    30: (8.529e-8, 3.5e-9),
}


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_counting_oracle_equivalence():
    """Reflection-series counts equal brute-force enumeration everywhere."""
    t0 = time.time()
    checked = 0
    bound_sets = [(0, width) for width in range(2, 9)]
    bound_sets += [(0, None), (None, 6), (None, None)]
    for lower, upper in bound_sets:
        i_range = range(1, 8) if upper is None else range(1, upper)
        for i in i_range:
            j_lo = 0 if lower is not None else i - 6
            j_hi = (upper if upper is not None else i + 6) + 1
            for j in range(j_lo, j_hi):
                for ups in range(0, 10):
                    try:
                        spec = BridgeSpec(i=i, j=j, up_jumps=ups,
                                          lower=lower, upper=upper)
                    except BridgeDomainError:
                        continue
                    if not 0 <= spec.jumps <= 12:
                        continue
                    assert bridge_count(spec) == len(enumerate_bridges(spec, 12)), spec
                    checked += 1
    elapsed = time.time() - t0
    assert checked > 2000
    report(f"ACCEPTANCE 1: PASS — exact counts match enumeration on "
           f"{checked} bridge spaces ({elapsed:.1f}s)")


def test_criterion_2_lbdi_agreement():
    """Bridge-sampling estimates match the closed-form transition law."""
    params = LBDIParams(lam=0.8, mu=0.6, nu=1.2)
    model = lbdi_model(params)
    worst = 0.0
    for j in range(0, 13):
        bset = choose_bset(5, j, model, 1.0, 1e-4, RngStream(20_100 + j))
        est = estimate_pij(model, 5, j, 1.0, bset, 100_000, RngStream(20_200 + j),
                           threads=4)
        truth = lbdi_transition(params, 5, j, 1.0)
        assert abs(est.value - truth) <= 3.0 * est.std_error, (j, est.value, truth)
        worst = max(worst, abs(est.value - truth) / est.std_error)
    # Normalization over a range wide enough to hold the mass (the closed form
    # leaves < 1e-4 beyond state 25 from this start).
    total = 0.0
    for j in range(0, 26):
        bset = choose_bset(5, j, model, 1.0, 1e-4, RngStream(20_100 + j))
        total += estimate_pij(model, 5, j, 1.0, bset, 100_000,
                              RngStream(20_200 + j), threads=4).value
    assert 0.99 <= total <= 1.01, total
    report(f"ACCEPTANCE 2: PASS — per-state agreement with the closed form "
           f"(worst |z| = {worst:.2f}), mass total {total:.4f}")


def test_criterion_3_fixed_up_jump_decomposition():
    """Cumulative fixed-up-jump estimates recover the full probability."""
    for nu in (0.0, 1.2):
        params = LBDIParams(lam=0.8, mu=0.6, nu=nu)
        model = lbdi_model(params)
        truth = lbdi_transition(params, 5, 5, 1.0)
        cumulative = 0.0
        variance = 0.0
        partials = []
        for ups in range(0, 15):
            est = estimate_pij_b(model, 5, 5, 1.0, ups, 100_000,
                                 RngStream(20_300 + ups + int(nu * 10)), threads=4)
            cumulative += est.value
            variance += est.std_error ** 2
            partials.append(cumulative)
        assert all(b >= a for a, b in zip(partials, partials[1:]))
        sigma = math.sqrt(variance)
        assert abs(cumulative - truth) <= 3.0 * sigma, (nu, cumulative, truth)
        report(f"ACCEPTANCE 3: PASS — immigration {nu}: cumulative "
               f"{cumulative:.6f} vs closed form {truth:.6f} "
               f"(|z| = {abs(cumulative - truth) / sigma:.2f})")


def test_criterion_4_sis_cross_validation():
    """Bridge sampling and straight simulation agree on the epidemic model."""
    model = sis_model(SISParams(n0=30, beta=0.003, gamma=1.0))
    n_straight = 1_000_000
    from bdbridge.reference import _terminal_states

    finals, _ = _terminal_states(model, 5, 1.0, n_straight, RngStream(20_400))
    counts = np.bincount(finals, minlength=31)
    worst = 0.0
    for j in range(0, 22):
        bset = choose_bset(5, j, model, 1.0, 1e-4, RngStream(20_500 + j))
        est = estimate_pij(model, 5, j, 1.0, bset, 100_000, RngStream(20_600 + j),
                           threads=4)
        p_straight = counts[j] / n_straight
        # Binomial dispersion for the straight side at the better-supported
        # probability estimate: with zero hits the empirical error estimate
        # degenerates to 0, which would make the comparison vacuous.
        p_ref = max(p_straight, est.value)
        se_straight = math.sqrt(p_ref * (1 - p_ref) / n_straight)
        combined = math.sqrt(est.std_error ** 2 + se_straight ** 2)
        diff = abs(est.value - p_straight)
        assert diff <= 3.0 * combined or diff == 0.0, (j, est.value, p_straight)
        if combined > 0:
            worst = max(worst, diff / combined)
    report(f"ACCEPTANCE 4: PASS — bridge vs straight simulation consistent over "
           f"terminal states 0..21 (worst |z| = {worst:.2f})")


def test_criterion_5_rare_event_termination():
    """Termination probabilities down to 1e-8 with controlled relative error."""
    lines = []
    for i0, (target, tol) in TERMINATION_TARGETS.items():
        bset = choose_bset(i0, 0, SIS_TERMINATION, 1.0, 1e-4, RngStream(20_700 + i0))
        est = estimate_pij(SIS_TERMINATION, i0, 0, 1.0, bset, 1_000_000,
                           RngStream(20_800 + i0), threads=4)
        rel = est.std_error / est.value
        assert abs(est.value - target) <= tol, (i0, est.value, target)
        assert math.isfinite(est.log_value)
        assert rel < 0.05, (i0, rel)
        lines.append(f"I0={i0}: {est.value:.4e} (rel se {100 * rel:.2f}%)")
    # Straight simulation at the same budget cannot resolve the middle case:
    # about nine expected hits leave an unusable relative error.
    straight = straight_estimate(SIS_TERMINATION, 20, 0, 1.0, 1_000_000,
                                 RngStream(20_900))
    hits = round(straight.value * 1_000_000)
    assert hits <= 30
    assert straight.value == 0.0 or straight.std_error / straight.value > 0.18
    report("ACCEPTANCE 5: PASS — " + "; ".join(lines)
           + f"; straight simulation saw {hits} hits at the same budget")


def test_criterion_6_shigellosis_fit():
    """Maximum likelihood on the outbreak record reproduces the published fit."""
    obs = load_shigellosis()
    config = SearchConfig(beta=GridSpec(0.0008, 0.0028, 13),
                          gamma=GridSpec(0.10, 0.45, 13),
                          refinements=2, replications=5, threads=4)
    fit = fit_mle(obs, config, 10_000, RngStream(21_000))
    assert 0.0013 <= fit.beta_hat <= 0.0019, fit.beta_hat
    assert 0.21 <= fit.gamma_hat <= 0.31, fit.gamma_hat

    def overlap(ours, ref):
        lo = max(ours[0], ref[0])
        hi = min(ours[1], ref[1])
        return max(0.0, hi - lo) / (ref[1] - ref[0])

    ov_beta = overlap(fit.ci_beta, TABLE5_CI_BETA)
    ov_gamma = overlap(fit.ci_gamma, TABLE5_CI_GAMMA)
    assert ov_beta >= 0.8, (fit.ci_beta, ov_beta)
    assert ov_gamma >= 0.8, (fit.ci_gamma, ov_gamma)
    assert abs(fit.r0 - 1.24) <= 0.10, fit.r0
    assert not fit.boundary_warning
    report(f"ACCEPTANCE 6: PASS — beta {fit.beta_hat:.5f}, gamma {fit.gamma_hat:.4f}, "
           f"R0 {fit.r0:.3f}, CI overlaps {ov_beta:.0%}/{ov_gamma:.0%}")


def test_criterion_7_filtering_failure_exorcism():
    """The bootstrap filter collapses at marginal parameters; the bridge filter
    stays finite there, and the two agree at the optimum."""
    obs = load_shigellosis()
    mle = SIRParams(n0=199, beta=0.0016, gamma=0.2607)
    betas = np.array([0.00055, 0.0011, 0.0016, 0.0024, 0.0048])
    gammas = np.array([0.081, 0.1624, 0.26, 0.4032, 0.81])
    failures = []
    for a, beta in enumerate(betas):
        for b, gamma in enumerate(gammas):
            res = bootstrap_filter(SIRParams(199, float(beta), float(gamma)), obs,
                                   100_000, 0.001, RngStream(21_100).child(a, b))
            if res.failed:
                failures.append((float(beta), float(gamma)))
    assert failures, "expected at least one bootstrap failure on the margins"
    exorcised = 0
    for beta, gamma in failures[:3]:
        ll = igbs_filter_loglik(SIRParams(199, beta, gamma), obs, 1, 2_000,
                                RngStream(21_200))
        if math.isfinite(ll):
            exorcised += 1
    assert exorcised > 0
    boot = bootstrap_filter(mle, obs, 100_000, 0.001, RngStream(21_300))
    igbs = igbs_filter_loglik(mle, obs, 1, 10_000, RngStream(21_400))
    assert not boot.failed
    assert abs(boot.loglik - igbs) <= 1.0, (boot.loglik, igbs)
    report(f"ACCEPTANCE 7: PASS — {len(failures)} grid points collapse the "
           f"bootstrap filter yet stay finite under the bridge filter; at the "
           f"optimum |{boot.loglik:.2f} - {igbs:.2f}| <= 1 nat")


def test_criterion_8_sampler_statistics(uniformity_family):
    """Skeleton uniformity, order-statistic law, and seeded reproducibility."""
    t0 = time.time()
    specs = uniformity_family
    assert len(specs) >= 40
    worst_p = 1.0
    rng = RngStream(21_500)
    for spec in specs:
        card = bridge_count(spec)
        paths = [tuple(p) for p in enumerate_bridges(spec, max_jumps=None)]
        steps, _, _ = _draw_padded(spec.i, spec.j, spec.up_jumps, spec.t, spec.lower,
                                   spec.upper, 1000 * card, rng)
        skeletons = spec.i + np.cumsum(steps, axis=1)
        got = Counter((spec.i,) + tuple(row) for row in skeletons.tolist())
        assert set(got) <= set(paths)
        pval = stats.chisquare([got.get(p, 0) for p in paths]).pvalue
        assert pval > 0.001, (spec, pval)
        worst_p = min(worst_p, pval)

    # Sorted jump times from the batch core's time draw (K down steps,
    # unbounded) follow the Beta order-statistic law.
    k_total, t_len, reps = 5, 2.0, 100_000
    _, dtau, _ = _draw_padded(k_total, 0, 0, t_len, -np.inf, np.inf, reps,
                              RngStream(21_600))
    draws = np.cumsum(dtau, axis=1)[:, :k_total]
    ks_worst = 1.0
    for k in range(1, k_total + 1):
        pval = stats.kstest(draws[:, k - 1] / t_len,
                            stats.beta(k, k_total - k + 1).cdf).pvalue
        assert pval > 0.001, (k, pval)
        ks_worst = min(ks_worst, pval)

    model = sis_model(SISParams(n0=30, beta=0.003, gamma=1.0))
    single = estimate_pij(model, 5, 7, 1.0, BSet(range(2, 10)), 200_000,
                          RngStream(21_700), threads=1)
    quad = estimate_pij(model, 5, 7, 1.0, BSet(range(2, 10)), 200_000,
                        RngStream(21_700), threads=4)
    assert single == quad
    rerun = estimate_pij(model, 5, 7, 1.0, BSet(range(2, 10)), 200_000,
                         RngStream(21_700), threads=4)
    assert quad == rerun
    report(f"ACCEPTANCE 8: PASS — {len(specs)} spaces uniform (min p "
           f"{worst_p:.4f}), order statistics match Beta marginals (min p "
           f"{ks_worst:.4f}), thread-count invariant ({time.time() - t0:.0f}s)")
