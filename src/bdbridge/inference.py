"""Maximum likelihood for the contact and removal rates from susceptible records.

The likelihood surface is Monte Carlo, so every cell is averaged over several
independently seeded filter runs before any argmax is taken.  The search is a
coarse-to-fine grid: level 0 is the configured grid, and each later level puts
``steps`` points over 1.5 cells of the level before either side of the running
best, clipped to the configured range.  Profile-likelihood intervals on level 0
use the chi-square(1) 95% drop of 1.92, interpolated linearly between points.
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

    def window(self, grid: np.ndarray, centre: float) -> np.ndarray:
        """``steps`` points, 1.5 cells of ``grid`` either side of ``centre``, in range."""
        cell = (grid[1] - grid[0]) if len(grid) > 1 else (self.hi - self.lo)
        return np.linspace(max(centre - 1.5 * cell, self.lo),
                           min(centre + 1.5 * cell, self.hi), self.steps)


@dataclass
class SearchConfig:
    """Grid search settings; ``threads`` counts worker processes for grid cells."""

    beta: GridSpec
    gamma: GridSpec
    refinements: int = 2
    replications: int = 5
    threads: int = 1

    def __post_init__(self):
        for name in ("refinements", "replications", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


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
    the imported package.  A fork copies only the calling thread, so ask for
    workers only while no other thread holds a lock.
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
    jobs = [(obs, obs.population(i0), float(beta), float(gamma), i0, m,
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
    interval runs on past the searched range.  A -inf neighbour is an end.
    """
    if not np.isfinite(profile).any():
        return float("nan"), float("nan"), False, False
    k_max = int(np.argmax(profile))
    cutoff = profile[k_max] - drop

    def walk(step: int) -> tuple[float, bool]:
        k = k_max
        while 0 <= k + step < len(grid):
            nxt = profile[k + step]
            if not np.isfinite(nxt) or nxt < cutoff:
                frac = (profile[k] - cutoff) / (profile[k] - nxt) if np.isfinite(nxt) else 1.0
                return float(grid[k] + frac * (grid[k + step] - grid[k])), False
            k += step
        return float(grid[k]), True

    (lo, lo_at_edge), (hi, hi_at_edge) = walk(-1), walk(+1)
    return lo, hi, lo_at_edge, hi_at_edge


def fit_mle(obs: Observations, config: SearchConfig, m: int, rng: RngStream,
            i0: int = 1) -> FitResult:
    """Coarse-to-fine grid maximum likelihood with profile intervals.

    Level 0 spans the configured ranges and supplies the intervals.  Each of
    the ``refinements - 1`` later levels puts ``steps`` points over 1.5 cells
    of the level before either side of the running best, clipped to the
    configured range, and moves the best only if it beats it.  A level-0
    argmax on the outer boundary sets ``boundary_warning``.
    """
    beta_grid, gamma_grid = config.beta.values(), config.gamma.values()
    best = (math.nan, math.nan, NEG_INF)
    for level in range(config.refinements):
        surf = loglik_surface(obs, beta_grid, gamma_grid, m, rng.child(level),
                              replications=config.replications, i0=i0, threads=config.threads)
        a, b = np.unravel_index(int(np.argmax(surf.mean)), surf.mean.shape)
        if level == 0:
            if surf.mean[a, b] == NEG_INF:
                raise ValueError("log-likelihood is -inf over the whole search grid")
            surface0 = surf
            boundary_warning = a in (0, len(beta_grid) - 1) or b in (0, len(gamma_grid) - 1)
        if surf.mean[a, b] > best[2]:
            best = (float(beta_grid[a]), float(gamma_grid[b]), float(surf.mean[a, b]))
        beta_grid = config.beta.window(beta_grid, best[0])
        gamma_grid = config.gamma.window(gamma_grid, best[1])

    b_lo, b_hi, *beta_at_edge = _profile_interval(surface0.beta_grid, surface0.mean.max(axis=1))
    g_lo, g_hi, *gamma_at_edge = _profile_interval(surface0.gamma_grid, surface0.mean.max(axis=0))
    ci_beta = (min(b_lo, best[0]), max(b_hi, best[0]))
    ci_gamma = (min(g_lo, best[1]), max(g_hi, best[1]))
    r0 = basic_reproduction_number(best[0], best[1], obs.population(i0))
    return FitResult(best[0], best[1], ci_beta, ci_gamma, r0, best[2], boundary_warning,
                     surface0, tuple(beta_at_edge), tuple(gamma_at_edge))


def basic_reproduction_number(beta: float, gamma: float, n0: int) -> float:
    """Expected secondary infections per case in a fully susceptible population."""
    if gamma <= 0:
        return math.inf
    return beta * n0 / gamma
