import hashlib

import numpy as np
import pytest
from scipy import stats

from bdbridge.cli import load_shigellosis
from bdbridge.errors import ModelDomainError, UnsupportedCaseError
from bdbridge.filters import bootstrap_filter, failure_domain_scan
from bdbridge.models import LBDIParams, SIRParams, SISParams, lbdi_model, sir_as_bd, sis_model
from bdbridge.reference import (
    _terminal_states,
    generator_transition,
    generator_transition_fixed_ups,
    gillespie_simulate,
    lbdi_transition,
    straight_estimate,
)
from bdbridge.sampler import RngStream


def test_absorbed_origin_without_immigration():
    params = LBDIParams(lam=0.8, mu=0.6, nu=0.0)
    assert lbdi_transition(params, 0, 0, 1.0) == 1.0
    for j in (1, 2, 5):
        assert lbdi_transition(params, 0, j, 1.0) == 0.0


def test_closed_form_normalizes(lbdi_table):
    total = sum(lbdi_transition(lbdi_table, 5, j, 1.0) for j in range(61))
    assert abs(total - 1.0) < 1e-10


def test_closed_form_matches_generator(lbdi_table, lbdi_table_model):
    for j in range(0, 35):
        cf = lbdi_transition(lbdi_table, 5, j, 1.0)
        ge = generator_transition(lbdi_table_model, 5, j, 1.0, n_states=250)
        assert cf == pytest.approx(ge, abs=1e-8)


def test_closed_form_matches_generator_across_regimes():
    cases = [
        (LBDIParams(0.3, 0.9, 0.7), 4, 2.5),   # subcritical with immigration
        (LBDIParams(0.8, 0.6, 0.0), 5, 1.0),   # supercritical, no immigration
        (LBDIParams(0.0, 0.5, 0.0), 7, 2.0),   # pure death
        (LBDIParams(0.5, 0.0, 0.0), 3, 1.0),   # pure birth
    ]
    for params, i, t in cases:
        model = lbdi_model(params)
        for j in range(0, 30):
            cf = lbdi_transition(params, i, j, t)
            ge = generator_transition(model, i, j, t, n_states=250)
            assert cf == pytest.approx(ge, abs=1e-9), (params, j)


def test_closed_form_unsupported_cases():
    with pytest.raises(UnsupportedCaseError):
        lbdi_transition(LBDIParams(0.5, 0.5, 0.1), 2, 2, 1.0)   # equal rates
    with pytest.raises(UnsupportedCaseError):
        lbdi_transition(LBDIParams(0.0, 0.5, 0.3), 2, 2, 1.0)   # immigration, no birth
    with pytest.raises(ModelDomainError):
        lbdi_transition(LBDIParams(0.8, 0.6, 0.0), -1, 2, 1.0)


def test_gillespie_frozen_model(zero_model, rng):
    path = gillespie_simulate(zero_model, 4, 2.0, rng)
    assert path.states.tolist() == [4]
    assert path.final_state == 4


def test_gillespie_absorbed_start(sis_table_model, rng):
    path = gillespie_simulate(sis_table_model, 0, 5.0, rng)
    assert path.states.tolist() == [0]


def test_gillespie_moves_are_unit_steps(lbdi_table_model, rng):
    path = gillespie_simulate(lbdi_table_model, 5, 2.0, rng)
    assert np.all(np.abs(np.diff(path.states)) == 1)
    assert np.all(np.diff(path.times) > 0)
    assert path.times[-1] < path.horizon


def test_absorption_consistency(rng):
    # Once a simulated path hits the absorbing state it never moves again.
    model = lbdi_model(LBDIParams(lam=0.2, mu=2.5, nu=0.0))
    for _ in range(200):
        path = gillespie_simulate(model, 3, 4.0, rng)
        visits = np.flatnonzero(path.states == 0)
        if visits.size:
            assert visits[0] == len(path.states) - 1


def test_gillespie_law_matches_closed_form(lbdi_table, lbdi_table_model):
    # Terminal-state law of straight simulation vs the closed form.
    n = 1_000_000
    finals, _ = _terminal_states(lbdi_table_model, 5, 1.0, n, RngStream(123))
    j_max = 30
    observed = np.bincount(np.minimum(finals, j_max + 1), minlength=j_max + 2)
    expected = np.array([lbdi_transition(lbdi_table, 5, j, 1.0) for j in range(j_max + 1)])
    expected = np.append(expected, 1.0 - expected.sum()) * n
    keep = expected > 10
    p = stats.chisquare(observed[keep], expected[keep] * observed[keep].sum()
                        / expected[keep].sum()).pvalue
    assert p > 0.001


def test_straight_estimate_deterministic(zero_model, rng):
    est = straight_estimate(zero_model, 2, 2, 1.0, 1000, rng)
    assert est.value == 1.0 and est.std_error == 0.0


def test_straight_estimate_matches_truth(sis_table_model, rng):
    truth = generator_transition(sis_table_model, 5, 4, 1.0, n_states=30)
    est = straight_estimate(sis_table_model, 5, 4, 1.0, 200_000, rng)
    assert abs(est.value - truth) <= 4 * est.std_error


def test_straight_cannot_resolve_rare_events(rng):
    # The motivating failure: a probability near 1e-6 yields a handful of hits
    # at n = 1e5, leaving an unusable relative error.
    model = sis_model(SISParams(n0=30, beta=0.03, gamma=1.0))
    truth = generator_transition(model, 20, 0, 1.0, n_states=30)
    assert truth < 1e-5
    est = straight_estimate(model, 20, 0, 1.0, 100_000, rng)
    assert est.value == 0.0 or est.std_error / est.value > 0.3


def test_generator_fixed_ups_totals(sis_table_model):
    # Summing the up-count-restricted probabilities recovers the plain one.
    total = sum(generator_transition_fixed_ups(sis_table_model, 5, 7, 1.0, b, 30)
                for b in range(2, 14))
    plain = generator_transition(sis_table_model, 5, 7, 1.0, n_states=30)
    assert total == pytest.approx(plain, rel=1e-6)


def test_generator_fixed_ups_sir_path_dependence():
    # With a shrinking susceptible pool the restricted oracle must use the
    # up-count-dependent birth rate, not the initial one.
    params = SIRParams(n0=12, beta=0.4, gamma=0.5)
    model = sir_as_bd(params, s0=3)
    # After 3 infections the pool is empty: 4 ups are impossible.
    assert generator_transition_fixed_ups(model, 2, 6, 1.0, 4) == pytest.approx(0.0, abs=1e-12)
    assert generator_transition_fixed_ups(model, 2, 5, 1.0, 3) > 0


def test_gillespie_sir_ups_bounded_by_susceptibles():
    # Each infection uses up a susceptible: a path from s0 = 3 makes at most
    # three up jumps, however fast the contact rate.
    model = sir_as_bd(SIRParams(n0=20, beta=0.5, gamma=0.1), s0=3)
    for seed in range(40):
        path = gillespie_simulate(model, 2, 3.0, RngStream(seed))
        assert np.sum(np.diff(path.states) == 1) <= 3, seed


@pytest.mark.parametrize("j", [0, 3, 8])
def test_straight_sir_matches_fixed_ups_sum(j):
    # Forward simulation tracks each path's up count, so the susceptible pool
    # shrinks with every infection, as in the up-count-augmented oracle.
    model = sir_as_bd(SIRParams(n0=20, beta=0.3, gamma=0.7), s0=15)
    exact = sum(generator_transition_fixed_ups(model, 3, j, 1.0, b) for b in range(16))
    est = straight_estimate(model, 3, j, 1.0, 200_000, RngStream(40 + j))
    assert abs(est.value - exact) <= 4 * est.std_error, (est.value, exact)


def test_generator_transition_refuses_sir():
    model = sir_as_bd(SIRParams(n0=20, beta=0.3, gamma=0.7), s0=15)
    with pytest.raises(UnsupportedCaseError, match="generator_transition_fixed_ups"):
        generator_transition(model, 3, 8, 1.0, n_states=20)


def test_generator_oracles_pinned():
    """Values of the dense matrix exponential the sparse oracles replaced."""
    sis_rare = sis_model(SISParams(n0=30, beta=0.03, gamma=1.0))
    sis = sis_model(SISParams(n0=30, beta=0.003, gamma=1.0))
    cases = [
        (generator_transition(sis_rare, 10, 0, 1.0, n_states=30), 0.001995203511775846),
        (generator_transition(sis_rare, 20, 0, 1.0, n_states=30), 8.95822916686395e-06),
        (generator_transition(sis_rare, 30, 0, 1.0, n_states=30), 8.457672315928868e-08),
        (generator_transition(lbdi_model(LBDIParams(0.8, 0.6, 1.2)), 5, 5, 1.0,
                              n_states=250), 0.11375547087626041),
        (generator_transition(lbdi_model(LBDIParams(0.3, 0.9, 0.7)), 4, 2, 2.5,
                              n_states=250), 0.21524842532748942),
        (generator_transition_fixed_ups(sis, 5, 6, 1.0, 3, n_states=30), 0.0004223517630779476),
        (generator_transition_fixed_ups(sis, 5, 7, 1.0, 9, 30), 1.9267377893300502e-10),
        (generator_transition_fixed_ups(lbdi_model(LBDIParams(0.8, 0.6, 0.0)), 5, 33, 1.0, 28),
         1.8512249470150003e-09),
        (generator_transition_fixed_ups(sir_as_bd(SIRParams(n0=12, beta=0.4, gamma=0.5), s0=3),
                                        2, 5, 1.0, 3), 0.05544359620629266),
    ]
    for value, dense in cases:
        assert value == pytest.approx(dense, rel=1e-12, abs=0)


def _digest(*values) -> str:
    h = hashlib.sha256()
    for value in values:
        a = np.ascontiguousarray(value, dtype=float)
        h.update(f"{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


#: Digests of seeded forward-simulation outputs, recorded while the bootstrap
#: filter still had its own (S, I) propagator; moving it onto
#: ``_terminal_states`` left every output byte as it was.
PINNED_SIMULATION = {
    "bootstrap": "4912524bb4bac80f19937fc28e316850bba7989246cb6be147f0df40f8f0ce02",
    "scan": "3a62446c9e10a92f0ec308413e459bb7b2182eced4f1f8ba1b90b952095a1169",
    "straight": "07d584c1c51af6b7e1890b0e8673e7a2f466b4a6ca20a982f5520780a878335f",
}


def test_forward_simulation_pinned():
    """Seeded bootstrap-filter, failure-scan and straight outputs are pinned.

    A deliberate change of the simulator's law or of its use of the random
    stream must update these digests and record the change in CHANGES.md.
    """
    obs = load_shigellosis()
    runs = []
    for k, (beta, gamma, n) in enumerate(((0.0016, 0.2607, 100_000),
                                          (0.0011, 0.1624, 20_000),
                                          (0.0024, 0.4032, 50_000))):
        res = bootstrap_filter(SIRParams(199, beta, gamma), obs, n, 0.001,
                               RngStream(31_000 + k))
        runs += [[res.loglik, res.failed], res.survival, res.posterior_final]
    assert _digest(*runs) == PINNED_SIMULATION["bootstrap"]
    scan = failure_domain_scan(obs, [0.0011, 0.0048], [0.081, 0.2607], 5_000,
                               (0.001, 0.0001), RngStream(31_100))
    assert _digest(scan.survival_min, scan.failed) == PINNED_SIMULATION["scan"]
    ests = []
    for k, (model, i, j) in enumerate(((sis_model(SISParams(30, 0.003, 1.0)), 5, 4),
                                       (lbdi_model(LBDIParams(0.8, 0.6, 1.2)), 5, 5))):
        est = straight_estimate(model, i, j, 1.0, 200_000, RngStream(31_200 + k))
        ests.append([est.value, est.std_error])
    assert _digest(*ests) == PINNED_SIMULATION["straight"]
