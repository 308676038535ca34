"""Complete-path likelihoods and the bridge-sampling transition estimators.

A complete path's likelihood is the product of its jump-direction rates times
the exponential of minus the integrated total rate.  Dividing by the uniform
bridge density and averaging over uniform draws gives an unbiased transition
probability estimate; summing over a finite set of admissible up-jump counts
(sampled uniformly) extends this to the full transition probability.

Everything on the hot path runs in log space with max-shifted accumulation so
probabilities far below float precision (rare events) keep controlled relative
error.  Replicates are processed in fixed-size blocks, each with its own
derived random stream and a deterministic combine order, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .counting import (
    NEG_INF,
    BridgeSpec,
    log_bridge_count,
    log_simplex_density,
)
from .errors import BridgeDomainError, ModelDomainError
from .models import BirthDeathModel
from .sampler import RngStream, _draw_padded, _width_classes

# Replicates per block; the block layout sets the random stream.
BLOCK = 1 << 16
# Pilot up-jump counts tried by choose_bset beyond the minimum feasible one.
_MAX_PILOT_UP_JUMPS = 512

# Stream-derivation tags; fixed constants keep parallel layouts reproducible.
_TAG_ESTIMATE = 101
_TAG_PILOT = 102


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo probability estimate with its sampling error.

    ``log_value`` stays finite (or -inf for an exact zero) even when ``value``
    underflows, which is the working representation for rare events.
    """

    value: float
    std_error: float
    n: int
    log_value: float

    def __post_init__(self):
        if self.value < 0 or self.std_error < 0:
            raise ValueError(f"negative estimate fields: {self}")


@dataclass(frozen=True)
class BSet:
    """Finite ascending set of admissible up-jump counts."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        if not vals:
            raise BridgeDomainError("up-jump set must be nonempty")
        if any(v < 0 for v in vals) or any(b <= a for a, b in zip(vals, vals[1:])):
            raise BridgeDomainError(f"up-jump set must be ascending and >= 0, got {vals}")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def _as_bset(bset) -> BSet:
    return bset if isinstance(bset, BSet) else BSet(tuple(bset))


def batch_path_loglik(model: BirthDeathModel, start, steps: np.ndarray,
                      dtau: np.ndarray) -> np.ndarray:
    """Vectorized path log-likelihoods for padded step/interval matrices.

    Padding columns (zero steps, zero-length intervals) contribute nothing.
    A row's jump count is its number of nonzero steps; rows are weighed in
    the width classes of ``sampler._width_classes``, each only up to its own
    width.
    """
    n, width_max = steps.shape
    start = np.broadcast_to(np.asarray(start, np.int64), (n,))
    jumps = np.count_nonzero(steps, axis=1)
    ll = np.empty(n)
    for width, rows in _width_classes(jumps, width_max):
        x = steps[rows, :width]
        rows_n = x.shape[0]
        # States and up-counts at the start of each holding interval; dropping
        # the last column gives the pre-jump values for each step.
        hold_states = np.empty((rows_n, width + 1), np.int64)
        hold_states[:, 0] = start[rows]
        np.cumsum(x, axis=1, dtype=np.int64, out=hold_states[:, 1:])
        hold_states[:, 1:] += hold_states[:, :1]
        up = x == 1
        hold_ups = np.zeros((rows_n, width + 1), np.int64)
        np.cumsum(up, axis=1, dtype=np.int64, out=hold_ups[:, 1:])
        lam = np.asarray(model.birth_rate(hold_states, hold_ups), float)
        mu = np.asarray(model.death_rate(hold_states, hold_ups), float)
        rate = np.where(up, lam[:, :-1], mu[:, :-1])  # rate of the jump taken
        if jumps[rows].min() < width:
            rate[x == 0] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            jump_ll = np.log(rate).sum(axis=1)
        block = jump_ll - np.einsum("ij,ij->i", lam + mu, dtau[rows, :width + 1])
        block[(rate <= 0).any(axis=1)] = NEG_INF
        ll[rows] = block
    return ll


def spec_for(model: BirthDeathModel, i: int, j: int, up_jumps: int, t: float) -> BridgeSpec:
    """Bridge spec whose taboo bounds encode the model's declared boundaries."""
    lower, upper = model.taboo_bounds()
    return BridgeSpec(i=i, j=j, up_jumps=up_jumps, t=t, lower=lower, upper=upper)


def _log_weights_block(model, i, j, t, bset: BSet, specs, n_block: int,
                       rng: RngStream) -> np.ndarray:
    """Per-draw log of (set size) * path likelihood / bridge density."""
    m = len(bset)
    choice = rng.gen.integers(0, m, n_block)
    out = np.full(n_block, NEG_INF)
    log_m = math.log(m)
    for pos, up_jumps in enumerate(bset):
        rows = np.flatnonzero(choice == pos)
        if rows.size == 0:
            continue
        spec, log_card = specs[pos]
        if spec is None or log_card == NEG_INF:
            continue  # empty space: weight stays 0 but the draw still counts
        steps, dtau, _ = _draw_padded(
            spec.i, spec.j, spec.up_jumps, spec.t, spec.lower, spec.upper,
            rows.size, rng,
        )
        ll = batch_path_loglik(model, spec.i, steps, dtau)
        log_h = log_simplex_density(spec.jumps, spec.t) - log_card
        out[rows] = ll - log_h + log_m
    return out


def _block_stats(logw: np.ndarray):
    shift = float(logw.max()) if logw.size else NEG_INF
    if shift == NEG_INF:
        return NEG_INF, 0.0, 0.0, logw.size
    v = np.exp(logw - shift)
    return shift, float(v.sum()), float((v * v).sum()), logw.size


def _combine_stats(blocks) -> MCEstimate:
    shift = max(b[0] for b in blocks)
    n = sum(b[3] for b in blocks)
    if shift == NEG_INF:
        return MCEstimate(0.0, 0.0, n, NEG_INF)
    s1 = sum(b[1] * math.exp(b[0] - shift) for b in blocks)
    s2 = sum(b[2] * math.exp(2.0 * (b[0] - shift)) for b in blocks)
    if s1 <= 0.0:
        return MCEstimate(0.0, 0.0, n, NEG_INF)
    log_value = shift + math.log(s1) - math.log(n)
    value = math.exp(log_value) if log_value > -745 else 0.0
    if n > 1:
        var = max(s2 - s1 * s1 / n, 0.0) / (n - 1)
        std_error = math.exp(shift) * math.sqrt(var / n)
    else:
        std_error = 0.0
    return MCEstimate(value, std_error, n, log_value)


def _build_specs(model, i, j, t, bset: BSet):
    """Per up-jump count: (spec, log count), or (None, -inf) for empty spaces."""
    specs = []
    for up_jumps in bset:
        if up_jumps + i - j < 0:
            specs.append((None, NEG_INF))
            continue
        try:
            spec = spec_for(model, i, j, up_jumps, t)
        except BridgeDomainError:
            specs.append((None, NEG_INF))
            continue
        specs.append((spec, log_bridge_count(spec)))
    return specs


def estimate_pij(model: BirthDeathModel, i: int, j: int, t: float, bset,
                 n: int, rng: RngStream, threads: int = 1) -> MCEstimate:
    """Transition probability estimate over a finite set of up-jump counts.

    Draws the up-jump count uniformly from ``bset`` per replicate; empty
    bridge spaces contribute exact zeros but still count toward the set size,
    keeping the estimator unbiased as designed.  Fixed ``(seed, stream)``
    give bit-identical results for any ``threads``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    bset = _as_bset(bset)
    if not model.contains(i):
        raise ModelDomainError(f"start state {i} outside state space of {model.name}")
    if model.is_absorbing(i):
        exact = 1.0 if i == j else 0.0
        return MCEstimate(exact, 0.0, n, math.log(exact) if exact else NEG_INF)
    if not model.contains(j):
        return MCEstimate(0.0, 0.0, n, NEG_INF)
    specs = _build_specs(model, i, j, t, bset)
    if all(lc == NEG_INF for _, lc in specs):
        return MCEstimate(0.0, 0.0, n, NEG_INF)

    sizes = [BLOCK] * (n // BLOCK)
    if n % BLOCK:
        sizes.append(n % BLOCK)

    def run_block(args):
        idx, sz = args
        logw = _log_weights_block(model, i, j, t, bset, specs,
                                  sz, rng.child(_TAG_ESTIMATE, idx))
        return _block_stats(logw)

    jobs = list(enumerate(sizes))
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(run_block, jobs))
    else:
        blocks = [run_block(job) for job in jobs]
    return _combine_stats(blocks)


def estimate_pij_b(model: BirthDeathModel, i: int, j: int, t: float,
                   up_jumps: int, n: int, rng: RngStream,
                   threads: int = 1) -> MCEstimate:
    """Probability of travelling i -> j in time t with exactly ``up_jumps`` up steps."""
    if up_jumps + i - j < 0:
        return MCEstimate(0.0, 0.0, n, NEG_INF)
    return estimate_pij(model, i, j, t, BSet((up_jumps,)), n, rng, threads=threads)


def choose_bset(i: int, j: int, model: BirthDeathModel, t: float, eps: float,
                rng: RngStream, pilot_n: int = 4096) -> BSet:
    """Grow the up-jump set until additional counts stop mattering.

    Cheap pilot estimates are accumulated from the minimum feasible count
    upward; growth stops once the last three increments each fall below
    ``eps`` times the running total.  Counts whose pilot estimate is exactly
    zero (infeasible or zero-likelihood spaces) are stripped from the tail.
    Deterministic given the stream.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    b_min = max(0, j - i)
    increments: list[float] = []
    total = 0.0
    b = b_min
    while b - b_min < _MAX_PILOT_UP_JUMPS:
        est = estimate_pij_b(model, i, j, t, b, pilot_n, rng.child(_TAG_PILOT, b))
        increments.append(est.value)
        total += est.value
        tail = increments[-3:]
        if len(increments) >= 3 and total > 0 and all(v < eps * total for v in tail):
            break
        b += 1
    if total <= 0:
        return BSet((b_min,))
    while len(increments) > 1 and increments[-1] == 0.0:
        increments.pop()
    return BSet(tuple(range(b_min, b_min + len(increments))))
