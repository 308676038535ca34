"""Complete-path likelihoods and the bridge-sampling transition estimators.

A complete path's likelihood is the product of its jump-direction rates times
the exponential of minus the integrated total rate.  Dividing by the uniform
bridge density and averaging over uniform draws gives an unbiased estimate of
the probability restricted to one up-jump count.  The full transition
probability is the sum of these over a finite set of admissible counts, each
count a stratum with its own draws: the pilot runs of ``choose_bset`` set how
many draws each stratum gets, and the strata's estimates and variances add.

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
    check_time,
    log_bridge_count,
    log_simplex_density,
)
from .errors import BridgeDomainError, ModelDomainError
from .models import BirthDeathModel
from .sampler import RngStream, _draw_padded, _width_classes

# Replicates per block, and so the rows of one sampler call; the block layout
# sets the random stream.
BLOCK = 1 << 12
# Share of the draws spread equally over the nonempty strata, whatever the
# pilots say, and the fewest draws any nonempty stratum gets.
_FLOOR_SHARE = 1 / 8
_MIN_STRATUM_DRAWS = 2
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
    """Finite ascending set of admissible up-jump counts.

    ``pilot_sd`` optionally holds, per count, the standard deviation of one
    draw's weight in a pilot run; ``estimate_pij`` gives each count draws in
    proportion to it.  Without it every count gets an equal share.
    """

    values: tuple[int, ...]
    pilot_sd: tuple[float, ...] | None = None

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        if not vals:
            raise BridgeDomainError("up-jump set must be nonempty")
        if any(v < 0 for v in vals) or any(b <= a for a, b in zip(vals, vals[1:])):
            raise BridgeDomainError(f"up-jump set must be ascending and >= 0, got {vals}")
        object.__setattr__(self, "values", vals)
        if self.pilot_sd is not None:
            sd = tuple(float(s) for s in self.pilot_sd)
            if len(sd) != len(vals) or not all(math.isfinite(s) and s >= 0 for s in sd):
                raise BridgeDomainError(
                    f"pilot_sd must hold one finite value >= 0 per up-jump count, got {sd}")
            object.__setattr__(self, "pilot_sd", sd)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


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


def _log_weights_block(model, spec: BridgeSpec, log_card: float, n_block: int,
                       rng: RngStream) -> np.ndarray:
    """Per-draw log of path likelihood / bridge density for one up-jump count."""
    steps, dtau, _ = _draw_padded(
        spec.i, spec.j, spec.up_jumps, spec.t, spec.lower, spec.upper,
        n_block, rng,
    )
    ll = batch_path_loglik(model, spec.i, steps, dtau)
    return ll - (log_simplex_density(spec.jumps, spec.t) - log_card)


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


def _allocate(n: int, pilot_sd) -> list[int]:
    """Draws per nonempty stratum, given one pilot SD per stratum.

    Each stratum first gets ``_MIN_STRATUM_DRAWS``.  Of the draws left,
    ``_FLOOR_SHARE`` is spread equally over the strata and the rest in
    proportion to ``pilot_sd`` (equally when it is all zero), rounded by
    largest remainder.  The total is ``n``, raised to ``_MIN_STRATUM_DRAWS``
    per stratum when smaller.
    """
    k = len(pilot_sd)
    rest = max(n - _MIN_STRATUM_DRAWS * k, 0)
    total = math.fsum(pilot_sd)
    if not (total > 0 and math.isfinite(total)):
        pilot_sd, total = [1.0] * k, float(k)
    target = [rest * (_FLOOR_SHARE / k + (1.0 - _FLOOR_SHARE) * s / total) for s in pilot_sd]
    counts = [math.floor(x) for x in target]
    for p in sorted(range(k), key=lambda p: counts[p] - target[p])[:rest - sum(counts)]:
        counts[p] += 1
    return [c + _MIN_STRATUM_DRAWS for c in counts]


def _sum_strata(parts: list[MCEstimate]) -> MCEstimate:
    """The sum of independent stratum estimates; their variances add."""
    n = sum(p.n for p in parts)
    top = max(p.log_value for p in parts)
    if top == NEG_INF:
        return MCEstimate(0.0, 0.0, n, NEG_INF)
    log_value = top + math.log(math.fsum(math.exp(p.log_value - top) for p in parts))
    value = math.exp(log_value) if log_value > -745 else 0.0
    return MCEstimate(value, math.hypot(*(p.std_error for p in parts)), n, log_value)


def estimate_pij(model: BirthDeathModel, i: int, j: int, t: float, bset,
                 n: int, rng: RngStream, threads: int = 1) -> MCEstimate:
    """Transition probability estimate over a finite set of up-jump counts.

    Stratified over the counts in ``bset`` whose bridge space is nonempty:
    one list holds each such count's spec, log count and pilot SD, and the
    draws are allocated, made and combined over that list alone.  Empty
    spaces are exact zeros and get no draws.  The estimate is the sum of the
    per-count means, with standard error sqrt(sum of s_B^2 / n_B).  The
    ``n`` draws are split before any is made: 1/8 equally over the strata,
    the rest in proportion to ``bset.pilot_sd`` (equally without it), and at
    least 2 per stratum, so ``n`` is raised to twice their number when
    smaller.  Count ``B``'s block ``k`` draws from
    ``rng.child(_TAG_ESTIMATE, B, k)``, so fixed ``(seed, stream)`` give
    bit-identical results for any ``threads``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    check_time(t)
    bset = bset if isinstance(bset, BSet) else BSet(tuple(bset))
    if not model.contains(i):
        raise ModelDomainError(f"start state {i} outside state space of {model.name}")
    if model.is_absorbing(i):
        exact = 1.0 if i == j else 0.0
        return MCEstimate(exact, 0.0, n, math.log(exact) if exact else NEG_INF)
    if not model.contains(j):
        return MCEstimate(0.0, 0.0, n, NEG_INF)
    strata = []
    for up_jumps, sd in zip(bset, bset.pilot_sd or (1.0,) * len(bset)):
        spec = spec_for(model, i, j, up_jumps, t)
        log_card = log_bridge_count(spec)
        if log_card > NEG_INF:
            strata.append((spec, log_card, sd))
    if not strata:
        return MCEstimate(0.0, 0.0, n, NEG_INF)

    counts = _allocate(n, [sd for _, _, sd in strata])
    jobs = [(pos, block, min(BLOCK, draws - start)) for pos, draws in enumerate(counts)
            for block, start in enumerate(range(0, draws, BLOCK))]

    def run_block(job):
        pos, block, size = job
        spec, log_card, _ = strata[pos]
        logw = _log_weights_block(model, spec, log_card, size,
                                  rng.child(_TAG_ESTIMATE, spec.up_jumps, block))
        return _block_stats(logw)

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(run_block, jobs))
    else:
        blocks = [run_block(job) for job in jobs]
    per_stratum = [_combine_stats([b for (p, _, _), b in zip(jobs, blocks) if p == pos])
                   for pos in range(len(strata))]
    return _sum_strata(per_stratum)


def estimate_pij_b(model: BirthDeathModel, i: int, j: int, t: float,
                   up_jumps: int, n: int, rng: RngStream,
                   threads: int = 1) -> MCEstimate:
    """Probability of travelling i -> j in time t with exactly ``up_jumps`` up steps."""
    return estimate_pij(model, i, j, t, BSet((up_jumps,)), n, rng, threads=threads)


def choose_bset(i: int, j: int, model: BirthDeathModel, t: float, eps: float,
                rng: RngStream, pilot_n: int = 4096) -> BSet:
    """Grow the up-jump set until additional counts stop mattering.

    Cheap pilot estimates are accumulated from the minimum feasible count
    upward; growth stops once the last three increments each fall below
    ``eps`` times the running total.  Counts whose pilot estimate is exactly
    zero (infeasible or zero-likelihood spaces) are stripped from the tail.
    Each kept count's pilot standard deviation per draw goes on the returned
    set as ``pilot_sd``, from which ``estimate_pij`` allocates its draws.
    Deterministic given the stream.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    b_min = max(0, j - i)
    increments: list[float] = []
    sds: list[float] = []
    total = 0.0
    for b in range(b_min, b_min + _MAX_PILOT_UP_JUMPS):
        est = estimate_pij_b(model, i, j, t, b, pilot_n, rng.child(_TAG_PILOT, b))
        increments.append(est.value)
        sds.append(est.std_error * math.sqrt(est.n))
        total += est.value
        tail = increments[-3:]
        if len(increments) >= 3 and total > 0 and all(v < eps * total for v in tail):
            break
    if total <= 0:
        return BSet((b_min,))
    while len(increments) > 1 and increments[-1] == 0.0:
        increments.pop()
    kept = len(increments)
    return BSet(tuple(range(b_min, b_min + kept)), pilot_sd=tuple(sds[:kept]))
