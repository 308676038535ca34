"""Sequential likelihood evaluation for epidemics observed through susceptibles.

The hidden infectious count evolves as a birth-death process whose up-jump
total over an observation interval is pinned by the observed drop in
susceptibles.  Each step therefore reduces to an expectation over restricted
bridge spaces: over start states from the positive part of the current
posterior, end states uniform on their admissible range, and a uniform bridge
between them; the importance weight is the path likelihood over the bridge
density times the size of the end-state range.  The start and end states are
drawn stratified rather than independently: start states by systematic
sampling of the posterior (Kitagawa 1996), end states one stratum per draw
within each start state.  Each start state keeps its expected share of the
draws and each end state its uniform law given the start, so each step's
total stays an unbiased estimate of the predictive probability, at about a
third of the spread of independent draws.  The absorbed case (no infectious
individuals left) is handled exactly: the susceptible count can then never
move again.

A plain bootstrap particle filter (propagate forward, keep exact matches on
the observed susceptible count) is included as the baseline whose weight
collapse the bridge filter is designed to avoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .counting import NEG_INF, BridgeSpec, log_bridge_count
from .errors import DataFormatError, ModelDomainError
from .likelihood import batch_path_loglik
from .models import SIRParams, sir_as_bd
from .reference import _terminal_states
from .sampler import RngStream, _draw_padded

POSTERIOR_TOL = 1e-12


@dataclass
class Observations:
    """Susceptible counts at strictly increasing times; counts never increase.

    Counts are finite whole numbers >= 0, stored as int64.  A violation
    raises :class:`DataFormatError` naming its row, 1-based (of a pair, the
    later one).
    """

    times: np.ndarray
    susceptibles: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, float)
        sus = np.asarray(self.susceptibles, float)
        if self.times.ndim != 1 or self.times.shape != sus.shape:
            raise DataFormatError("times and susceptibles must be equal-length vectors")
        if len(self.times) < 1:
            raise DataFormatError("need at least one observation")
        if not np.all(np.isfinite(self.times)):
            k = int(np.flatnonzero(~np.isfinite(self.times))[0]) + 1
            raise DataFormatError(f"times must be finite (row {k})")
        whole = np.isfinite(sus) & (sus == np.floor(sus))
        if not np.all(whole):
            k = int(np.flatnonzero(~whole)[0]) + 1
            raise DataFormatError(f"susceptible count in row {k} is not a finite whole "
                                  f"number, got {sus[k - 1]}")
        self.susceptibles = sus.astype(np.int64)
        if np.any(np.diff(self.times) <= 0):
            k = int(np.flatnonzero(np.diff(self.times) <= 0)[0]) + 2
            raise DataFormatError(f"times must be strictly increasing (row {k})")
        if np.any(np.diff(self.susceptibles) > 0):
            k = int(np.flatnonzero(np.diff(self.susceptibles) > 0)[0]) + 2
            raise DataFormatError(f"susceptible counts must be nonincreasing (row {k})")
        if np.any(self.susceptibles < 0):
            k = int(np.flatnonzero(self.susceptibles < 0)[0]) + 1
            raise DataFormatError(f"susceptible counts must be >= 0 (row {k})")

    def __len__(self):
        return len(self.times)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def population(self, i0: int) -> int:
        """Total population n0: the first susceptible count plus ``i0`` infectious."""
        return int(self.susceptibles[0]) + i0


@dataclass
class FilterState:
    """Empirical posterior over the hidden infectious count after ``step``."""

    step: int
    posterior: np.ndarray

    def __post_init__(self):
        self.posterior = np.asarray(self.posterior, float)
        total = self.posterior.sum()
        if self.posterior.ndim != 1 or abs(total - 1.0) > POSTERIOR_TOL:
            raise ValueError(f"posterior must sum to 1, got {total}")
        if np.any(self.posterior < 0):
            raise ValueError("posterior must be nonnegative")

    @property
    def p_alive(self) -> float:
        return float(1.0 - self.posterior[0])


def initial_state(i0: int) -> FilterState:
    if i0 < 1:
        raise ModelDomainError(f"initial infectious count must be >= 1, got {i0}")
    post = np.zeros(i0 + 1)
    post[i0] = 1.0
    return FilterState(0, post)


@lru_cache(maxsize=1 << 16)
def _log_pair_count(i: int, j: int, drop: int) -> float:
    """log number of skeletons from ``i`` to ``j`` with ``drop`` up steps in
    the corridor (0, inf) of the filter's draws.

    A path with ``drop`` up steps peaks at most at ``i + drop``, so no upper
    bound, such as the population, can bind.  The count does not depend on
    the elapsed time, and the same pairs recur across steps, filter passes
    and grid cells, so it is cached.
    """
    return log_bridge_count(BridgeSpec(i=i, j=j, up_jumps=drop, lower=0))


def igbs_filter_step(state: FilterState, params: SIRParams, s_prev: int,
                     s_next: int, dt: float, m: int, rng: RngStream):
    """One filtering step; returns the new state and the log conditional
    probability of the observed susceptible count.

    The ``m`` start states are the points ``(k + u) / m``, k = 0..m-1, with
    one uniform ``u``, read off the CDF of the positive posterior, so state
    i gets floor(m p_i) or ceil(m p_i) of them and a state with p_i = 0
    none.  The n_i draws from start i take end states
    ``floor((r + U_r) (i + drop + 1) / n_i)`` for ranks r = 0..n_i-1 with
    independent uniforms ``U_r``: one stratum of 0..i+drop each.  The
    expected count of every start state is m p_i, and every end-state draw
    is uniform on 0..i+drop given its start, so the total is unbiased, as it
    is with independent draws.

    With the epidemic surely absorbed, the observation law is 0-1: an
    unchanged count has probability one, any drop is impossible (-inf).
    """
    if s_next > s_prev:
        raise DataFormatError("susceptible count increased between observations")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    drop = int(s_prev - s_next)
    p_alive = state.p_alive
    size_new = len(state.posterior) + drop

    if p_alive == 0.0:
        post = np.zeros(size_new)
        post[0] = 1.0
        new_state = FilterState(state.step + 1, post)
        return new_state, (0.0 if drop == 0 else NEG_INF)

    model = sir_as_bd(params, s0=s_prev)

    # Start states: m evenly spaced points, one shared uniform offset, on the
    # CDF of the positive posterior.  Dividing by the last entry makes it
    # exactly 1, so no point falls past the last state with positive mass.
    positive = state.posterior.copy()
    positive[0] = 0.0
    cdf = np.cumsum(positive)
    cdf /= cdf[-1]
    i_draws = np.searchsorted(cdf, (np.arange(m) + rng.gen.random()) / m, side="right")
    # End states: the n_i draws from start i (contiguous, as i_draws is
    # sorted) take one stratum each of the uniform on 0..i+drop.
    first = np.searchsorted(i_draws, i_draws, side="left")
    n_i = np.searchsorted(i_draws, i_draws, side="right") - first
    rank = np.arange(m) - first
    j_draws = np.minimum(
        ((rank + rng.gen.random(m)) * (i_draws + drop + 1) / n_i).astype(np.int64),
        i_draws + drop)
    steps, dtau, jumps = _draw_padded(i_draws, j_draws, drop, dt, 0, np.inf, m, rng)
    ll = batch_path_loglik(model, i_draws, steps, dtau)

    # log bridge density per draw; skeleton counts looked up once per endpoint pair
    pair_codes = i_draws * (size_new + 1) + j_draws
    codes, inverse = np.unique(pair_codes, return_inverse=True)
    log_cards = np.array([_log_pair_count(*divmod(int(code), size_new + 1), drop)
                          for code in codes])[inverse]
    log_simplex = gammaln(jumps + 1) - jumps * math.log(dt)
    log_q = ll - (log_simplex - log_cards) + np.log(i_draws + drop + 1)
    q = np.exp(log_q)

    contrib = np.bincount(j_draws, weights=q, minlength=size_new) * (p_alive / m)
    if drop == 0:
        contrib[0] += 1.0 - p_alive
    total = float(contrib.sum())
    if total <= 0.0:
        # All replicate weights vanished: the observation is unexplainable at
        # these parameters (or m was exhausted); keep a degenerate posterior.
        post = np.zeros(size_new)
        post[0] = 1.0
        return FilterState(state.step + 1, post), NEG_INF
    new_state = FilterState(state.step + 1, contrib / total)
    return new_state, math.log(total)


def run_filter(params: SIRParams, obs: Observations, i0: int, m: int,
               rng: RngStream, trace: list | None = None):
    """Full filtering pass; returns (log-likelihood, final state).

    The recursion starts from a point mass at ``i0`` infectious individuals.
    A -inf step (parameters cannot explain the data) propagates immediately.
    """
    state = initial_state(i0)
    total = 0.0
    for k in range(1, len(obs)):
        dt = float(obs.times[k] - obs.times[k - 1])
        state, step_ll = igbs_filter_step(
            state, params, int(obs.susceptibles[k - 1]), int(obs.susceptibles[k]),
            dt, m, rng,
        )
        if trace is not None:
            trace.append({"step": k, "cond_loglik": step_ll, "p_alive": state.p_alive})
        if step_ll == NEG_INF:
            return NEG_INF, state
        total += step_ll
    return total, state


def igbs_filter_loglik(params: SIRParams, obs: Observations, i0: int, m: int,
                       rng: RngStream) -> float:
    """Log-likelihood of the susceptible record under the bridge filter."""
    return run_filter(params, obs, i0, m, rng)[0]


@dataclass
class BootstrapResult:
    loglik: float
    survival: np.ndarray
    failed: bool
    posterior_final: np.ndarray = field(default=None, repr=False)


def bootstrap_filter(params: SIRParams, obs: Observations, n_particles: int,
                     threshold: float, rng: RngStream,
                     i0: int = 1) -> BootstrapResult:
    """Sequential importance resampling with the exact 0-1 observation match.

    Particles are forward-simulated infectious counts; a particle's weight
    indicates that its infections over the interval equal the observed drop
    in susceptibles.  A per-step surviving fraction below ``threshold``
    raises the failure flag (all-zero weights give -inf and failure).
    """
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    infectious = np.full(n_particles, i0, np.int64)
    survival = np.zeros(obs.steps)
    loglik = 0.0
    failed = False
    for k in range(1, len(obs)):
        dt = float(obs.times[k] - obs.times[k - 1])
        s_prev = int(obs.susceptibles[k - 1])
        i_end, ups = _terminal_states(sir_as_bd(params, s0=s_prev), infectious,
                                      dt, n_particles, rng)
        hits = ups == s_prev - obs.susceptibles[k]
        frac = float(hits.mean())
        survival[k - 1] = frac
        if frac < threshold:
            failed = True
        if frac == 0.0:
            loglik = NEG_INF
            break
        loglik += math.log(frac)
        survivors = i_end[hits]
        infectious = survivors[rng.gen.integers(0, len(survivors), n_particles)]
    counts = np.bincount(infectious)
    return BootstrapResult(loglik, survival, failed, counts / counts.sum())


@dataclass
class ScanResult:
    beta_grid: np.ndarray
    gamma_grid: np.ndarray
    thresholds: tuple[float, ...]
    survival_min: np.ndarray      # (n_beta, n_gamma)
    failed: np.ndarray            # (n_thresholds, n_beta, n_gamma) booleans


def failure_domain_scan(obs: Observations, beta_grid, gamma_grid,
                        n_particles: int, thresholds, rng: RngStream,
                        i0: int = 1) -> ScanResult:
    """Bootstrap-filter survival over a parameter grid; failures are data."""
    beta_grid = np.asarray(beta_grid, float)
    gamma_grid = np.asarray(gamma_grid, float)
    thresholds = tuple(float(x) for x in thresholds)
    n0 = obs.population(i0)
    survival_min = np.empty((len(beta_grid), len(gamma_grid)))
    failed = np.zeros((len(thresholds), len(beta_grid), len(gamma_grid)), bool)
    for a, beta in enumerate(beta_grid):
        for b, gamma in enumerate(gamma_grid):
            res = bootstrap_filter(
                SIRParams(n0=n0, beta=float(beta), gamma=float(gamma)),
                obs, n_particles, min(thresholds), rng.child(a, b), i0=i0,
            )
            smin = float(res.survival.min()) if res.survival.size else 1.0
            if res.loglik == NEG_INF:
                smin = 0.0
            survival_min[a, b] = smin
            for c, thr in enumerate(thresholds):
                failed[c, a, b] = smin < thr
    return ScanResult(beta_grid, gamma_grid, thresholds, survival_min, failed)
