"""Uniform sampling over jump-time simplexes and taboo-bounded skeletons.

A bridge path factors into two independent uniform draws: sorted i.i.d.
uniform jump times, and a uniformly chosen admissible skeleton.

``_draw_padded`` is the one sampler of both.  Rows may have different
endpoints and step counts.  Each row's skeleton is drawn step by step with
the down-step probability that the exact log counts of its completions give,
the counting-driven recursive method of uniform generation (Nijenhuis & Wilf,
*Combinatorial Algorithms*, 1978), so it never rejects, however narrow the
corridor.  It returns matrices as wide as the longest row, with zero steps
and zero-length holding intervals past each row's end, so downstream
likelihood sums are unaffected.  It also returns each row's log proposal
density, log K!/t^K less the log skeleton count that its walk table holds,
which every importance weight divides by.  ``sample_bridges`` draws many
paths of one spec from one call of it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .counting import NEG_INF, BridgeSpec, _core
from .errors import CapacityError, ZeroMeasureSpace

#: Most cells one walk table may hold: 128 MiB of float64, and about 415 MiB
#: peak for a one-row draw near it.
_MAX_TABLE_CELLS = 1 << 24


class RngStream:
    """Splittable counter-based random stream.

    A stream is identified by ``(seed, stream_id)``; identical identities
    replay identical draws, distinct ones are statistically independent
    (Philox keyed through a seed sequence).  ``child`` derives subordinate
    independent streams for blocks, workers, or grid cells.  The underlying
    generator is created lazily and consumed sequentially; never share one
    instance across threads, give each worker its own child.
    """

    def __init__(self, seed: int, stream_id=0):
        self.seed = int(seed)
        if isinstance(stream_id, (tuple, list)):
            self.stream_id = tuple(int(k) for k in stream_id)
        else:
            self.stream_id = (int(stream_id),)
        self._gen: np.random.Generator | None = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream_id)
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def child(self, *keys: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + tuple(int(k) for k in keys))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def sample_bridges(spec: BridgeSpec, n: int, rng: RngStream):
    """``n`` uniform bridge paths of one spec, from one batch-core call.

    Returns ``(times, states)``, each of shape (n, K + 2).  A row's times run
    0 = tau_0 <= tau_1 <= ... <= tau_K <= tau_{K+1} = t, and its states hold
    the start state, the K post-jump states, and the end state repeated (the
    process sits there after its last jump).  Raises
    :class:`ZeroMeasureSpace` for an empty space and :class:`CapacityError`
    for one too large to draw.  Jump times tie (see ``_draw_padded``) with
    probability about K**2 * 2**-54 per row.
    """
    steps, dtau, _ = _draw_padded(spec.i, spec.j, spec.up_jumps, spec.t, spec.lower,
                                  spec.upper, n, rng)
    times = np.cumsum(np.pad(dtau, ((0, 0), (1, 0))), axis=1)
    times[:, -1] = spec.t
    states = spec.i + np.cumsum(np.pad(steps, ((0, 0), (1, 1))), axis=1, dtype=np.int64)
    return times, states


def _log_walk_counts(ends: np.ndarray, steps: int, ups: int, lower: float,
                     upper: float) -> np.ndarray:
    """log T[k, r, u]: the number of r-step walks with u up steps that end at
    ``ends[k]`` and keep every state, the first included, strictly inside
    (lower, upper); -inf where there is none.

    Such a walk starts at ``ends[k] + r - 2u``, so the table spans only the
    states that the up budget can reach.  Its first step is down with
    probability T[k, r - 1, u] / T[k, r, u].  Log space keeps long rows, whose
    counts overflow a float, exact to rounding.
    """
    r = np.arange(steps + 1)[:, None]
    state = ends[:, None, None] + r - 2 * np.arange(ups + 1)
    log_t = np.where((state > lower) & (state < upper), 0.0, NEG_INF)
    log_t[:, 0, 1:] = NEG_INF
    for k in range(1, steps + 1):
        prev = log_t[:, k - 1]
        log_t[:, k, 0] += prev[:, 0]
        log_t[:, k, 1:] += np.logaddexp(prev[:, 1:], prev[:, :-1])
    return log_t


class _Draws(tuple):
    """``(steps, dtau, jumps)``, with each row's log proposal density as
    ``log_density``; callers that unpack three outputs, as the benchmark's
    tracer does, keep working."""

    def __new__(cls, steps, dtau, jumps, log_density):
        draws = super().__new__(cls, (steps, dtau, jumps))
        draws.log_density = log_density
        return draws


def _draw_padded(i, j, up_jumps: int, t: float, lower, upper, size: int,
                 rng: RngStream):
    """Vectorized uniform draws for ``size`` bridges sharing ``up_jumps`` and ``t``.

    ``i`` and ``j`` may vary per row; ``lower`` and ``upper`` are shared.
    Returns ``(steps, dtau, jumps)`` as matrices as wide as the longest row:
    padding steps are 0 and padding holding intervals have zero length, so
    likelihood sums ignore them.  Its ``log_density`` holds each row's log
    proposal density: log K!/t^K for the sorted uniform times, less the log
    count of its skeletons, the walk table's cell for its whole core.  Raises
    :class:`ZeroMeasureSpace`, before any draw, when a row's bridge space is
    empty, and :class:`CapacityError`, before the walk table is built, when
    it would hold more than ``_MAX_TABLE_CELLS`` cells (distinct core ends x
    (longest core + 1) x (up_jumps + 1)).

    A row's core (``counting._core``) runs strictly inside the corridor; a
    row whose end state sits on a finite bound gets its forced terminal step
    appended after it.
    The core is drawn column by column from the exact counts of its
    completions (see ``_log_walk_counts``), one table per distinct core end,
    so it never rejects.  The stream use is fixed: one uniform matrix of
    shape (rows, longest core), where row r steps down at column c iff its
    uniform is below the down-step probability, then one time matrix of
    shape (rows, most jumps).  A tie, or a time at exactly 0 (probability
    about K**2 * 2**-54 per row), is kept: it leaves a zero-length holding
    interval, which the likelihood weighs like any other, as it reads jumps
    from ``steps``.  The time matrix is sorted at full width, with each row's
    padding cells set to 1 so that they sort last and map to ``t``.
    """
    i = np.broadcast_to(np.asarray(i, np.int64), (size,))
    j = np.broadcast_to(np.asarray(j, np.int64), (size,))
    lower, upper = float(lower), float(upper)

    jumps = 2 * up_jumps + i - j
    length, ups, core_end = _core(jumps, up_jumps, j, lower, upper)
    ends, end_row = np.unique(core_end, return_inverse=True)
    len_max = max(int(length.max()), 0) if size else 0
    cells = len(ends) * (len_max + 1) * (up_jumps + 1)
    if cells > _MAX_TABLE_CELLS:
        raise CapacityError(f"walk table of {len(ends)} x {len_max + 1} x {up_jumps + 1} = "
                            f"{cells} cells exceeds the limit of {_MAX_TABLE_CELLS}")
    log_t = _log_walk_counts(ends, len_max, up_jumps, lower, upper)
    # A negative core length or up count only arises from an infeasible
    # budget or a start state outside the corridor.
    start = log_t[end_row, np.maximum(length, 0), np.maximum(ups, 0)]
    empty = (length < 0) | (ups < 0) | (start == NEG_INF)
    if np.any(empty):
        r = int(np.argmax(empty))
        raise ZeroMeasureSpace(f"no bridge from {i[r]} to {j[r]} with {up_jumps} up "
                               f"jumps inside ({lower}, {upper}) (row {r})")

    jumps_max = int(jumps.max()) if size else 0
    # log K!/t^K, once per jump count K, less each row's log skeleton count.
    k = np.arange(jumps_max + 1)
    log_density = (gammaln(k + 1) - k * math.log(t))[jumps] - start
    cols = np.arange(jumps_max)
    keys = rng.gen.random((size, len_max))
    # Rows walk longest first, so the rows still walking at column c are a
    # prefix.  ``at`` indexes P(down) at each row's end, steps and ups left.
    stride = up_jumps + 1
    with np.errstate(invalid="ignore"):
        p_down = np.exp(log_t[:, :-1] - log_t[:, 1:]).ravel()
    order = np.argsort(-length, kind="stable")
    live = size - np.searchsorted(length[order][::-1], cols[:len_max], side="right")
    at = (end_row[order] * len_max + length[order] - 1) * stride + ups[order]
    keys = keys.T[:, order]
    up = np.zeros((len_max, size), np.int8)
    for c in range(len_max):
        n = live[c]
        went_up = keys[c, :n] >= p_down[at[:n]]
        up[c, :n] = went_up
        at[:n] -= went_up
        at[:n] -= stride
    steps = np.zeros((size, jumps_max), np.int8)
    steps[order, :len_max] = 2 * up.T - (cols[:len_max] < length[order, None])

    rows_low = np.flatnonzero(j == lower)
    steps[rows_low, length[rows_low]] = -1
    rows_up = np.flatnonzero(j == upper)
    steps[rows_up, length[rows_up]] = 1

    tau = rng.gen.random((size, jumps_max))
    tau[cols >= jumps[:, None]] = 1.0  # padding sorts last, at t
    tau.sort(axis=1)
    tau *= t
    # Holding intervals: the gaps of (0, tau_1, ..., tau_K, t, ..., t).
    dtau = np.empty((size, jumps_max + 1))
    dtau[:, :-1] = tau
    dtau[:, -1] = t
    dtau[:, 1:] -= tau
    return _Draws(steps, dtau, jumps, log_density)
