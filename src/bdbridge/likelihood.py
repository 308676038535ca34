"""Complete-path likelihoods and the bridge-sampling transition estimators.

A complete path's likelihood is the product of its jump-direction rates times
the exponential of minus the integrated total rate.  Dividing by the bridge
density and averaging over draws gives an unbiased estimate of the
probability restricted to one up-jump count.  The full transition
probability is the sum of these over a finite set of admissible counts, each
count a stratum with its own draws: the pilot runs of ``choose_bset`` set how
many draws each stratum gets, and the strata's estimates and variances add.

The skeletons are uniform, but the holding times are tilted to each
skeleton's rates: with a_k the total rate on holding interval k, the times
follow Delta tau = t Y / sum(Y) with independent Y_k ~ Exp(a_k + theta),
theta set per row by the skeleton alone (see ``_tilt``).  They are
a deterministic map of the sampler's uniform times, so the random stream is
the paper's uniform draw.  Any theta fixed by the skeleton leaves the
estimate unbiased; the one chosen makes the times' spread match the rates
and cuts the weights' spread on rare events and long bridges by an order of
magnitude or more.  The estimator and the bridge filter (``filters``) weigh
their draws, rows of one length or of mixed lengths, through
``batch_path_loglik`` with the tilt; without it, it weighs paths at the
times given.

Everything on the hot path runs in log space with max-shifted accumulation so
probabilities far below float precision (rare events) keep controlled relative
error, and so do their standard errors (``MCEstimate.log_std_error``).
Replicates are processed in fixed-size blocks, each with its own derived
random stream and a deterministic combine order, so results are bit-identical
for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .counting import NEG_INF, BridgeSpec, check_time, log_bridge_count
from .errors import BridgeDomainError, ModelDomainError
from .models import BirthDeathModel
from .sampler import RngStream, _draw_padded

# Replicates per block, and so the rows of one sampler call; the block layout
# sets the random stream.
BLOCK = 1 << 12
# Share of the draws spread equally over the nonempty strata, whatever the
# pilots say, and the fewest draws any nonempty stratum gets.
_FLOOR_SHARE = 1 / 8
_MIN_STRATUM_DRAWS = 2
# Pilot up-jump counts tried by choose_bset beyond the minimum feasible one.
_MAX_PILOT_UP_JUMPS = 512
# Width classes smaller than this many cells join the next wider class: a
# class costs a fixed number of NumPy calls, worth more than the padding
# cells a small class saves.
_MIN_CLASS_CELLS = 1 << 14

# Stream-derivation tags; fixed constants keep parallel layouts reproducible.
_TAG_ESTIMATE = 101
_TAG_PILOT = 102


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo probability estimate with its sampling error.

    ``log_value`` and ``log_std_error`` stay finite (or -inf for an exact
    zero) even when ``value`` and ``std_error`` underflow, which is the
    working representation for rare events.  Left out, ``log_std_error`` is
    the log of ``std_error``.
    """

    value: float
    std_error: float
    n: int
    log_value: float
    log_std_error: float | None = None

    def __post_init__(self):
        if self.value < 0 or self.std_error < 0:
            raise ValueError(f"negative estimate fields: {self}")
        if self.log_std_error is None:
            object.__setattr__(self, "log_std_error", _log(self.std_error))


def _log(x: float) -> float:
    return math.log(x) if x > 0 else NEG_INF


def _exp(log_x: float) -> float:
    return math.exp(log_x) if log_x > -745 else 0.0


@dataclass(frozen=True)
class BSet:
    """Finite ascending set of admissible up-jump counts.

    ``pilot_sd`` optionally holds, per count, the standard deviation of one
    draw's weight in a pilot run, up to one common factor: ``choose_bset``
    stores them relative to the largest, so they survive probabilities below
    the float range.  ``estimate_pij`` gives each count draws in proportion
    to it, and so reads only their ratios.  Without it every count gets an
    equal share.
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


def _path_rates(model: BirthDeathModel, start, x: np.ndarray):
    """Per-interval total rates and jump log-rate sums of skeletons stored as
    columns.

    Column r of ``x`` holds one skeleton's steps (+1, -1, or 0 as padding
    past its end) and ``start[r]`` its first state.  Returns
    ``(a, jump_ll)``: ``a[k, r]`` is the total rate on skeleton r's holding
    interval k = 0..width, and ``jump_ll[r]`` the sum of the log rates of the
    jumps it takes, -inf if one has rate 0.  The model's rates are evaluated
    once, on every (state, up count) cell between the lowest and highest
    state the skeletons reach, and gathered by index.  With one path per
    column, every sum over a path runs down axis 0, which NumPy vectorizes
    across paths; along rows it pays a loop call per path, several times the
    cost on paths of tens of jumps.
    """
    width, n = x.shape
    up = x == 1
    span = int(np.count_nonzero(up, axis=0).max(initial=0)) + 1
    # key = 3 (state * span + up count) + 1 at the start of each holding
    # interval, so key + step (-1, 0 or +1) indexes the rate of the step.
    key = np.empty((width + 1, n), np.int64)
    key[0] = 3 * span * np.asarray(start, np.int64) + 1
    np.multiply(x, 3 * span, out=key[1:], dtype=np.int64)
    key[1:] += np.multiply(up, 3, dtype=np.int8)
    np.cumsum(key, axis=0, out=key)
    low = int(key.min()) // (3 * span)
    key -= 3 * span * low
    states = np.arange(low, int(key.max()) // (3 * span) + low + 1)[:, None]
    shape = (len(states), span)
    ups = np.arange(span)
    lam = np.broadcast_to(np.asarray(model.birth_rate(states, ups), float), shape).ravel()
    mu = np.broadcast_to(np.asarray(model.death_rate(states, ups), float), shape).ravel()
    # Per cell: log rate down, 0 (a padding step), log rate up; then totals.
    # Every key lies in the tables by construction, so the gathers skip the
    # bounds check.
    rate = np.stack([mu, np.ones_like(mu), lam], axis=1).ravel()
    log_rate = np.full(rate.size, NEG_INF)
    np.log(rate, out=log_rate, where=rate > 0)
    a = np.stack([mu, lam + mu, lam], axis=1).ravel().take(key, mode="clip")
    key[:-1] += x
    jump_ll = log_rate.take(key[:-1], mode="clip").sum(axis=0)
    return a, jump_ll


def _width_classes(lengths: np.ndarray, cap: int):
    """Group rows by their own length into power-of-two width classes.

    Yields ``(width, rows)`` for every nonempty class: the rows whose length
    ``n`` satisfies ``width / 2 < n <= width`` (length 0 forms width 0), with
    widths capped at ``cap >= lengths.max()``.  A class with fewer than
    ``_MIN_CLASS_CELLS`` cells is folded into the next wider one, where its
    rows are padding-masked like any shorter row.  ``rows`` is an index
    array, or ``slice(None)`` when one class holds every row, so that callers
    work on views of full-width arrays instead of gathered copies.
    """
    code = np.frexp(np.maximum(lengths - 1, 0))[1] + (lengths > 0)
    counts = np.bincount(code)
    classes = []
    low = -1
    carried = 0
    for c in np.flatnonzero(counts):
        width = min(1 << (int(c) - 1), cap) if c else 0
        carried += counts[c]
        if carried * width >= _MIN_CLASS_CELLS or c == len(counts) - 1:
            classes.append((width, low, c))
            low, carried = c, 0
    if len(classes) == 1:
        yield classes[0][0], slice(None)
        return
    for width, low, high in classes:
        yield width, np.flatnonzero((code > low) & (code <= high))


def batch_path_loglik(model: BirthDeathModel, start, steps: np.ndarray,
                      dtau: np.ndarray, t: float | None = None) -> np.ndarray:
    """Vectorized path log-likelihoods for padded step/interval matrices.

    Padding columns (zero steps, zero-length intervals) contribute nothing.
    A row's jump count is its number of nonzero steps; rows are weighed in
    width classes (``_width_classes``), each only up to its own width, with
    one path per column (see ``_path_rates``).

    With ``t``, the length every row's intervals sum to, the intervals are
    taken as uniform draws, and each row is weighed at its times mapped onto
    the law tilted to its rates, times the ratio of the uniform to the
    tilted time density (see ``_tilt``).  Over uniform draws, the
    exponential of either result has the same mean; the tilted one has a
    fraction of the spread on long bridges and rare events.
    """
    n, width_max = steps.shape
    start = np.broadcast_to(np.asarray(start, np.int64), (n,))
    jumps = np.count_nonzero(steps, axis=1)
    ll = np.empty(n)
    for width, rows in _width_classes(jumps, width_max):
        a, jump_ll = _path_rates(model, start[rows],
                                 np.ascontiguousarray(steps.T[:width, rows]))
        d = dtau.T[:width + 1, rows]
        if t is None:
            ll[rows] = jump_ll - np.einsum("ij,ij->j", a, d)
        else:
            ll[rows] = jump_ll + _tilt(a, d, jumps[rows], t)
    return ll


def _tilt(a: np.ndarray, d: np.ndarray, jumps: np.ndarray, t: float) -> np.ndarray:
    """Minus the exposure at tilted holding times, plus the log ratio of the
    uniform to the tilted time density, for paths stored as columns.

    ``a`` and ``d`` hold each path's total rates and uniform holding
    intervals down a column, padded past its ``jumps`` + 1 intervals with
    zero-length intervals that repeat its last rate.  Column by column, the
    uniform times map onto Delta tau = t Y / sum(Y), Y_k ~ Exp(b_k),
    b_k = a_k + theta.  Uniform spacings are E / sum(E) for i.i.d. Exp(1)
    variables E, so t (Delta tau_k / b_k) / R, with R = sum_k Delta tau_k /
    b_k, has exactly that law.  Its density on the time simplex is
    K! prod(b) / (t^K c^(K+1)) with c = t / R, and the exposure of the
    mapped times is sum_k a_k Delta tau'_k = t (c - theta), so the mapped
    times themselves are never formed.

    ``theta`` starts at the larger of two lower bounds of the root of
    g = sum_k 1 / (a_k + theta) = t, 1/t - min(a) and (K + 1)/t - mean(a).
    Newton steps on 1/g - 1/t, which is concave and increasing, stay left of
    the root, so every b_k is at least 1/t, and move toward it.  Every column
    takes one step; those whose g still exceeds 1.1 t take more until none
    does.  One step leaves g / t at most 1.034 on the benchmark's rare-event
    specs and 1.0006 in its filter and fit runs, below the threshold, but 2.7
    when every rate is far above 1/t (theta -676 against a root of 3.39 for
    3000 deaths at rate 2.3 in t = 1).  ``theta`` depends only on the
    path's skeleton, so every weight is an exact likelihood ratio and the
    estimate stays unbiased.

    A padding cell has no length, so it adds nothing to R, and every other
    sum over a path's intervals is the sum down the whole column less
    (width - K) copies of its last cell's term.  Paths of one length, as
    ``estimate_pij`` draws them, have no padding.
    """
    pad = a.shape[0] - 1 - jumps
    intervals = jumps + 1
    theta = np.maximum(1.0 / t - a.min(axis=0),
                       intervals / t - (a.sum(axis=0) - pad * a[-1]) / intervals)
    inv_b = a + theta
    np.reciprocal(inv_b, out=inv_b)
    g = inv_b.sum(axis=0) - pad * inv_b[-1]
    h = np.einsum("ij,ij->j", inv_b, inv_b) - pad * inv_b[-1] ** 2
    theta += g * (g - t) / (t * h)
    np.add(a, theta, out=inv_b)
    np.reciprocal(inv_b, out=inv_b)
    g = inv_b.sum(axis=0) - pad * inv_b[-1]
    far = np.flatnonzero(g > 1.1 * t)
    while far.size:
        ib, gf, p = inv_b[:, far], g[far], pad[far]
        theta[far] += gf * (gf - t) / (t * (np.einsum("ij,ij->j", ib, ib) - p * ib[-1] ** 2))
        inv_b[:, far] = ib = 1.0 / (a[:, far] + theta[far])
        g[far] = ib.sum(axis=0) - p * ib[-1]
        far = far[g[far] > 1.1 * t]
    c = t / np.einsum("ij,ij->j", d, inv_b)
    log_inv_b = np.log(inv_b, out=inv_b)
    log_prod_b = pad * log_inv_b[-1] - log_inv_b.sum(axis=0)
    return intervals * np.log(c) - t * (c - theta) - log_prod_b


def spec_for(model: BirthDeathModel, i: int, j: int, up_jumps: int, t: float) -> BridgeSpec:
    """Bridge spec whose taboo bounds encode the model's declared boundaries."""
    lower, upper = model.taboo_bounds()
    return BridgeSpec(i=i, j=j, up_jumps=up_jumps, t=t, lower=lower, upper=upper)


def _log_weights_block(model, spec: BridgeSpec, n_block: int, rng: RngStream) -> np.ndarray:
    """Per-draw log of path likelihood / proposal density for one up-jump count.

    The skeletons and uniform holding times come from ``_draw_padded``, and
    ``batch_path_loglik`` weighs them with the times tilted to each row's
    rates; that less the sampler's log proposal density is the weight.
    """
    draws = _draw_padded(spec.i, spec.j, spec.up_jumps, spec.t, spec.lower, spec.upper,
                         n_block, rng)
    steps, dtau, _ = draws
    return batch_path_loglik(model, spec.i, steps, dtau, spec.t) - draws.log_density


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
    var = max(s2 - s1 * s1 / n, 0.0) / (n - 1) if n > 1 else 0.0
    log_se = shift + 0.5 * (_log(var) - math.log(n))
    return MCEstimate(_exp(log_value), _exp(log_se), n, log_value, log_se)


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


def _log_sum(logs) -> float:
    """log of the sum of exp(logs), for values of any magnitude."""
    top = max(logs)
    if top == NEG_INF:
        return NEG_INF
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def _sum_strata(parts: list[MCEstimate]) -> MCEstimate:
    """The sum of independent stratum estimates; their variances add."""
    n = sum(p.n for p in parts)
    log_value = _log_sum([p.log_value for p in parts])
    if log_value == NEG_INF:
        return MCEstimate(0.0, 0.0, n, NEG_INF)
    log_se = 0.5 * _log_sum([2.0 * p.log_std_error for p in parts])
    return MCEstimate(_exp(log_value), _exp(log_se), n, log_value, log_se)


def estimate_pij(model: BirthDeathModel, i: int, j: int, t: float, bset,
                 n: int, rng: RngStream, threads: int = 1) -> MCEstimate:
    """Transition probability estimate over a finite set of up-jump counts.

    Each draw is a uniform skeleton with holding times tilted to its rates,
    Exp(a_k + theta) spacings normalised to ``t``, weighed by its exact
    likelihood ratio (see ``_log_weights_block``); theta depends on the
    skeleton alone, so every stratum's mean weight is unbiased.

    Stratified over the counts in ``bset`` whose bridge space is nonempty:
    one list holds each such count's spec and pilot SD, and the draws are
    allocated, made and combined over that list alone.  Empty spaces, found
    by ``log_bridge_count`` once per count, are exact zeros and get no
    draws.  The estimate is the sum of the per-count means, with standard
    error sqrt(sum of s_B^2 / n_B), both kept in log space.  The ``n`` draws
    are split before any is made: 1/8 equally over the strata, the rest in
    proportion to ``bset.pilot_sd`` (equally without it), and at least 2 per
    stratum, so ``n`` is raised to twice their number when smaller.  Count
    ``B``'s block ``k`` draws from ``rng.child(_TAG_ESTIMATE, B, k)``, so
    fixed ``(seed, stream)`` give bit-identical results for any ``threads``.
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
        if log_bridge_count(spec) > NEG_INF:
            strata.append((spec, sd))
    if not strata:
        return MCEstimate(0.0, 0.0, n, NEG_INF)

    counts = _allocate(n, [sd for _, sd in strata])
    jobs = [(pos, block, min(BLOCK, draws - start)) for pos, draws in enumerate(counts)
            for block, start in enumerate(range(0, draws, BLOCK))]

    def run_block(job):
        pos, block, size = job
        spec, _ = strata[pos]
        logw = _log_weights_block(model, spec, size,
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
    set as ``pilot_sd``, relative to the largest, from which ``estimate_pij``
    allocates its draws.  Increments, total and SDs are compared in log
    space, so probabilities below the float range keep every count that
    matters.  Deterministic given the stream.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    b_min = max(0, j - i)
    increments: list[float] = []
    log_sds: list[float] = []
    for b in range(b_min, b_min + _MAX_PILOT_UP_JUMPS):
        est = estimate_pij_b(model, i, j, t, b, pilot_n, rng.child(_TAG_PILOT, b))
        increments.append(est.log_value)
        log_sds.append(est.log_std_error + 0.5 * math.log(est.n))
        log_total = _log_sum(increments)
        tail = increments[-3:]
        if (len(increments) >= 3 and log_total > NEG_INF
                and all(v < math.log(eps) + log_total for v in tail)):
            break
    if log_total == NEG_INF:
        return BSet((b_min,))
    while len(increments) > 1 and increments[-1] == NEG_INF:
        increments.pop()
    kept = len(increments)
    top = max(log_sds[:kept])
    sds = tuple(_exp(v - top) if top > NEG_INF else 0.0 for v in log_sds[:kept])
    return BSet(tuple(range(b_min, b_min + kept)), pilot_sd=sds)
