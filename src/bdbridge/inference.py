"""Maximum likelihood for the contact and removal rates from susceptible records.

The likelihood surface is Monte Carlo, so every cell is averaged over several
independently seeded filter runs before any argmax is taken, and the search is
a coarse-to-fine grid refinement rather than a gradient method.  Confidence
intervals come from profile likelihoods with the usual chi-square(1) 95% drop
of 1.92, interpolated linearly between grid points.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .counting import NEG_INF
from .filters import Observations, igbs_filter_loglik
from .models import SIRParams
from .sampler import RngStream

PROFILE_DROP = 1.92  # chi-square(1) 95% cutoff / 2


@dataclass
class SurfaceResult:
    beta_grid: np.ndarray
    gamma_grid: np.ndarray
    mean: np.ndarray    # (n_beta, n_gamma) averaged log-likelihoods
    spread: np.ndarray  # per-cell standard deviation across replications
    replications: int


@dataclass
class GridSpec:
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if not (self.lo < self.hi) or self.steps < 1:
            raise ValueError(f"bad grid range {self}")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass
class SearchConfig:
    """Grid search settings; ``threads`` counts worker processes for grid cells."""

    beta: GridSpec
    gamma: GridSpec
    refinements: int = 2
    replications: int = 5
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


@dataclass
class FitResult:
    beta_hat: float
    gamma_hat: float
    ci_beta: tuple[float, float]
    ci_gamma: tuple[float, float]
    r0: float
    loglik_max: float
    boundary_warning: bool
    surface: SurfaceResult = field(repr=False)
    # Per interval end (lo, hi): True when the profile stays within the
    # cutoff out to the grid edge, so that end is the edge, not an estimate.
    ci_beta_at_edge: tuple[bool, bool]
    ci_gamma_at_edge: tuple[bool, bool]


def _cell(job) -> tuple[float, float]:
    """Mean and spread of one cell's replicate filter runs, one per stream.

    Module-level with picklable arguments, so that a worker process can run it.
    """
    obs, n0, beta, gamma, i0, m, streams = job
    params = SIRParams(n0=n0, beta=beta, gamma=gamma)
    vals = np.array([igbs_filter_loglik(params, obs, i0, m, stream) for stream in streams])
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        return NEG_INF, 0.0
    # A single -inf replicate is Monte Carlo starvation, not evidence the
    # cell is impossible; average the finite runs and record the spread.
    return float(finite.mean()), float(finite.std())


def loglik_surface(obs: Observations, beta_grid, gamma_grid, m: int,
                   rng: RngStream, replications: int = 1, i0: int = 1,
                   threads: int = 1) -> SurfaceResult:
    """Seed-averaged filter log-likelihood over a parameter grid.

    ``threads`` counts worker processes for grid cells.  With more than one,
    cells run in a pool of forked processes made for this call, which inherit
    the imported package and its count cache.  A fork copies only the calling
    thread, so ask for workers only while no other thread holds a lock.
    Cells own derived streams indexed by (row, column, replication) and
    results come back in grid order, so the surface is bit-identical for any
    worker count; -inf cells are permitted.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    beta_grid = np.asarray(beta_grid, float)
    gamma_grid = np.asarray(gamma_grid, float)
    n0 = int(obs.susceptibles[0]) + i0
    jobs = [(obs, n0, float(beta), float(gamma), i0, m,
             [rng.child(a, b, r) for r in range(replications)])
            for a, beta in enumerate(beta_grid) for b, gamma in enumerate(gamma_grid)]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs)),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_cell, jobs))
    else:
        results = [_cell(job) for job in jobs]
    mean = np.array([r[0] for r in results]).reshape(len(beta_grid), len(gamma_grid))
    spread = np.array([r[1] for r in results]).reshape(len(beta_grid), len(gamma_grid))
    return SurfaceResult(beta_grid, gamma_grid, mean, spread, replications)


def _profile_interval(grid: np.ndarray, profile: np.ndarray,
                      drop: float = PROFILE_DROP) -> tuple[float, float, bool, bool]:
    """{theta : max - profile(theta) <= drop}, linearly interpolated at the ends.

    Returns ``(lo, hi, lo_at_edge, hi_at_edge)``.  An end whose side of the
    profile never drops below the cutoff is the grid edge and is flagged: the
    interval runs on past the searched range.
    """
    finite = np.isfinite(profile)
    if not finite.any():
        return float("nan"), float("nan"), False, False
    k_max = int(np.nanargmax(np.where(finite, profile, -np.inf)))
    cutoff = profile[k_max] - drop
    lo, lo_at_edge = grid[0], True
    for k in range(k_max, 0, -1):
        if not np.isfinite(profile[k - 1]) or profile[k - 1] < cutoff:
            frac = ((profile[k] - cutoff) / (profile[k] - profile[k - 1])
                    if np.isfinite(profile[k - 1]) else 1.0)
            lo, lo_at_edge = grid[k] - frac * (grid[k] - grid[k - 1]), False
            break
    hi, hi_at_edge = grid[-1], True
    for k in range(k_max, len(grid) - 1):
        if not np.isfinite(profile[k + 1]) or profile[k + 1] < cutoff:
            frac = ((profile[k] - cutoff) / (profile[k] - profile[k + 1])
                    if np.isfinite(profile[k + 1]) else 1.0)
            hi, hi_at_edge = grid[k] + frac * (grid[k + 1] - grid[k]), False
            break
    return float(lo), float(hi), lo_at_edge, hi_at_edge


def fit_mle(obs: Observations, config: SearchConfig, m: int, rng: RngStream,
            i0: int = 1) -> FitResult:
    """Coarse-to-fine grid maximum likelihood with profile intervals.

    The top-level surface spans the full configured ranges and supplies the
    confidence intervals; each refinement re-grids a window around the running
    argmax.  An argmax on the outer boundary raises a warning flag, and an
    interval end that reaches the grid edge is flagged in ``ci_*_at_edge``.
    """
    beta_grid = config.beta.values()
    gamma_grid = config.gamma.values()
    surface0 = loglik_surface(obs, beta_grid, gamma_grid, m, rng.child(0),
                              replications=config.replications, i0=i0,
                              threads=config.threads)
    if not np.isfinite(surface0.mean).any():
        raise ValueError("log-likelihood is -inf over the whole search grid")
    flat = np.where(np.isfinite(surface0.mean), surface0.mean, -np.inf)
    a, b = np.unravel_index(int(np.argmax(flat)), flat.shape)
    boundary_warning = a in (0, len(beta_grid) - 1) or b in (0, len(gamma_grid) - 1)
    best = (float(beta_grid[a]), float(gamma_grid[b]), float(surface0.mean[a, b]))

    cur_beta, cur_gamma = beta_grid, gamma_grid
    for level in range(1, config.refinements):
        db = (cur_beta[1] - cur_beta[0]) if len(cur_beta) > 1 else (config.beta.hi - config.beta.lo)
        dg = (cur_gamma[1] - cur_gamma[0]) if len(cur_gamma) > 1 else (config.gamma.hi - config.gamma.lo)
        beta_w = np.linspace(max(best[0] - 1.5 * db, config.beta.lo),
                             min(best[0] + 1.5 * db, config.beta.hi), config.beta.steps)
        gamma_w = np.linspace(max(best[1] - 1.5 * dg, config.gamma.lo),
                              min(best[1] + 1.5 * dg, config.gamma.hi), config.gamma.steps)
        surf = loglik_surface(obs, beta_w, gamma_w, m, rng.child(level),
                              replications=config.replications, i0=i0,
                              threads=config.threads)
        flat = np.where(np.isfinite(surf.mean), surf.mean, -np.inf)
        a, b = np.unravel_index(int(np.argmax(flat)), flat.shape)
        if flat[a, b] > best[2]:
            best = (float(beta_w[a]), float(gamma_w[b]), float(flat[a, b]))
        cur_beta, cur_gamma = beta_w, gamma_w

    profile_beta = np.max(np.where(np.isfinite(surface0.mean), surface0.mean, -np.inf), axis=1)
    profile_gamma = np.max(np.where(np.isfinite(surface0.mean), surface0.mean, -np.inf), axis=0)
    b_lo, b_hi, *beta_at_edge = _profile_interval(beta_grid, profile_beta)
    g_lo, g_hi, *gamma_at_edge = _profile_interval(gamma_grid, profile_gamma)
    ci_beta = (min(b_lo, best[0]), max(b_hi, best[0]))
    ci_gamma = (min(g_lo, best[1]), max(g_hi, best[1]))

    n0 = int(obs.susceptibles[0]) + i0
    r0 = basic_reproduction_number(best[0], best[1], n0)
    return FitResult(best[0], best[1], ci_beta, ci_gamma, r0, best[2],
                     boundary_warning, surface0, tuple(beta_at_edge),
                     tuple(gamma_at_edge))


def basic_reproduction_number(beta: float, gamma: float, n0: int) -> float:
    """Expected secondary infections per case in a fully susceptible population."""
    if gamma <= 0:
        return math.inf
    return beta * n0 / gamma
