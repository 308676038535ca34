"""Independent oracles: closed forms, forward simulation, generator exponentials.

These routes give every estimator an independent check; the forward
simulator also runs the bootstrap particle filter baseline.  The
linear-immigration closed form is a binomial mixture of negative binomials;
the generator exponential is a second, purely numerical route that also
catches transcription mistakes in the closed form itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .counting import check_time
from .errors import ModelDomainError, UnsupportedCaseError
from .likelihood import MCEstimate
from .models import BirthDeathModel, LBDIParams, SIRReducedModel
from .sampler import RngStream

_SIM_MAX_ROUNDS = 1_000_000


@dataclass
class SimPath:
    """A forward-simulated trajectory: state ``states[k]`` holds on
    [times[k], times[k+1]) and the last state holds to the horizon."""

    times: np.ndarray
    states: np.ndarray
    horizon: float

    def __post_init__(self):
        self.times = np.asarray(self.times, float)
        self.states = np.asarray(self.states, np.int64)

    @property
    def final_state(self) -> int:
        return int(self.states[-1])


def _negbin_logpmf(k: int, r: float, alpha: float) -> float:
    """log pmf of the negative binomial with success probability ``alpha``:
    P(k) = C(k + r - 1, k) (1 - alpha)^r alpha^k, mean r * alpha / (1 - alpha).

    ``r == 0`` (and the degenerate ``alpha == 0``) are point masses at zero.
    """
    if k < 0:
        return -math.inf
    if r == 0.0 or alpha == 0.0:
        return 0.0 if k == 0 else -math.inf
    return (gammaln(k + r) - gammaln(r) - gammaln(k + 1)
            + r * math.log1p(-alpha) + k * math.log(alpha))


def lbdi_transition(params: LBDIParams, i: int, j: int, t: float) -> float:
    """Closed-form transition probability of the linear immigration process.

    The time-t state given start i is X + Y with X binomial over the i
    initial lineages and Y negative binomial given X.  Only the generic case
    is covered: equal per-capita birth and death rates are refused, as is
    immigration without birth (the mixture parameters degenerate), and a zero
    death rate (the mixing weight leaves the unit interval).
    """
    lam, mu, nu = params.lam, params.mu, params.nu
    if i < 0 or j < 0:
        raise ModelDomainError(f"states must be >= 0, got ({i}, {j})")
    if not t > 0:
        raise ModelDomainError(f"t must be > 0, got {t}")
    if lam == mu:
        raise UnsupportedCaseError("closed form requires unequal per-capita rates")
    if lam == 0 and nu > 0:
        raise UnsupportedCaseError("closed form undefined for immigration without birth")
    rho = math.exp(-(mu - lam) * t)
    delta = nu / lam if lam > 0 else 0.0
    if mu == 0:
        # Pure-birth limit of the mixture parameters.
        p, alpha = 1.0, -math.expm1(-lam * t)
    else:
        c = lam / mu
        p = rho * (1.0 - c) / (1.0 - rho * c)
        alpha = (1.0 - rho) * c / (1.0 - rho * c)
    if not (0.0 < p <= 1.0 and 0.0 <= alpha < 1.0):
        raise UnsupportedCaseError(
            f"mixture parameters leave the unit interval (p={p}, alpha={alpha})"
        )
    terms = []
    for x in range(0, min(i, j) + 1):
        if x < i and p == 1.0:
            continue
        log_binom = (gammaln(i + 1) - gammaln(x + 1) - gammaln(i - x + 1)
                     + (x * math.log(p) if x else 0.0)
                     + ((i - x) * math.log1p(-p) if x < i else 0.0))
        terms.append(log_binom + _negbin_logpmf(j - x, x + delta, alpha))
    if not terms:
        return 0.0
    out = float(np.exp(logsumexp(terms)))
    return min(out, 1.0)


def gillespie_simulate(model: BirthDeathModel, y0: int, t: float,
                       rng: RngStream) -> SimPath:
    """Exact forward draw: exponential waits at the total rate, then a
    rate-proportional direction; stops at absorbing states or the horizon."""
    if not model.contains(y0):
        raise ModelDomainError(f"start state {y0} outside state space of {model.name}")
    check_time(t)
    times = [0.0]
    states = [int(y0)]
    now = 0.0
    state = int(y0)
    ups = 0
    while True:
        birth = float(model.birth_rate(state, ups))
        death = float(model.death_rate(state, ups))
        total = birth + death
        if total <= 0.0:
            break
        now += rng.gen.exponential(1.0 / total)
        if now >= t:
            break
        up = rng.gen.random() < birth / total
        state += 1 if up else -1
        ups += up
        times.append(now)
        states.append(state)
    return SimPath(np.array(times), np.array(states), t)


def _terminal_states(model: BirthDeathModel, y0, t: float, n: int,
                     rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized forward simulation of ``n`` paths from ``y0`` (one start, or
    one per path); returns the time-t states and each path's up-jump count."""
    state = np.full(n, y0, np.int64)
    ups = np.zeros(n, np.int64)
    now = np.zeros(n)
    active = np.ones(n, bool)
    for _ in range(_SIM_MAX_ROUNDS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return state, ups
        birth = np.asarray(model.birth_rate(state[idx], ups[idx]), float)
        total = birth + np.asarray(model.death_rate(state[idx], ups[idx]), float)
        dead = total <= 0.0
        if dead.any():
            active[idx[dead]] = False
            keep = ~dead
            idx, birth, total = idx[keep], birth[keep], total[keep]
            if idx.size == 0:
                continue
        wait = rng.gen.exponential(1.0, idx.size) / total
        u = rng.gen.random(idx.size)
        t_new = now[idx] + wait
        done = t_new >= t
        active[idx[done]] = False
        move = ~done
        rows = idx[move]
        now[rows] = t_new[move]
        up = u[move] < birth[move] / total[move]
        state[rows] += np.where(up, 1, -1)
        ups[rows] += up
    raise RuntimeError("forward simulation exceeded the event-round cap")


def straight_estimate(model: BirthDeathModel, i: int, j: int, t: float,
                      n: int, rng: RngStream):
    """Transition probability as the terminal hit fraction of forward paths.

    Returns an MCEstimate with the binomial standard error.
    """
    check_time(t)
    finals, _ = _terminal_states(model, i, t, n, rng)
    hits = int(np.sum(finals == j))
    p = hits / n
    se = math.sqrt(p * (1.0 - p) / n)
    return MCEstimate(p, se, n, math.log(p) if p > 0 else -math.inf)


def _generator(model: BirthDeathModel, cap: int, up_jumps: int | None = None):
    """Sparse truncated generator on states 0..cap.

    The diagonal carries the full exit rate, so probability leaks out at the
    cap (exact for models whose birth rate dies there).  With ``up_jumps``,
    state (y, up count b) sits at y * (up_jumps + 2) + b, and an up jump from
    b = up_jumps lands in the last, absorbing overflow layer.
    """
    import scipy.sparse  # here, not at module level: only the oracles need it

    if up_jumps is None:
        layers, up_step, ups = 1, 1, np.zeros(1, np.int64)
    else:
        layers, up_step, ups = up_jumps + 2, up_jumps + 3, np.arange(up_jumps + 1)
    y, b = np.meshgrid(np.arange(cap + 1), ups, indexing="ij")
    birth = np.broadcast_to(np.asarray(model.birth_rate(y, b), float), y.shape)
    death = np.broadcast_to(np.asarray(model.death_rate(y, b), float), y.shape)
    here = y * layers + b
    up, down = y < cap, y > 0
    rows = np.concatenate([here[up], here[down], here.ravel()])
    cols = np.concatenate([here[up] + up_step, here[down] - layers, here.ravel()])
    vals = np.concatenate([birth[up], death[down], -(birth + death).ravel()])
    dim = (cap + 1) * layers
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def _expm_entry(q, t: float, row: int, col: int) -> float:
    """Entry (row, col) of exp(q t), from exp(q^T t) applied to a unit vector."""
    from scipy.sparse.linalg import expm_multiply  # here: only the oracles need it

    start = np.zeros(q.shape[0])
    start[row] = 1.0
    return float(expm_multiply(q.T * t, start)[col])


def generator_transition(model: BirthDeathModel, i: int, j: int, t: float,
                         n_states: int = 200) -> float:
    """Transition probability via the exponential of the truncated generator."""
    if isinstance(model, SIRReducedModel):  # this state space has no up count
        raise UnsupportedCaseError("SIR rates depend on the up-jump count; sum "
                                   "generator_transition_fixed_ups over it")
    return _expm_entry(_generator(model, n_states), t, i, j)


def generator_transition_fixed_ups(model: BirthDeathModel, i: int, j: int,
                                   t: float, up_jumps: int,
                                   n_states: int | None = None) -> float:
    """Probability of i -> j in time t with exactly ``up_jumps`` upward jumps.

    Augments the state with the running up-jump count; paths exceeding the
    budget fall into an absorbing overflow layer and never reach the target
    cell, so the restriction is exact.  No truncation error: with at most
    ``up_jumps`` ups the state never exceeds i + up_jumps.
    """
    if up_jumps + i - j < 0:
        return 0.0
    cap = i + up_jumps if n_states is None else n_states
    layers = up_jumps + 2
    return _expm_entry(_generator(model, cap, up_jumps), t, i * layers, j * layers + up_jumps)
