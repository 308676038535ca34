"""Uniform sampling over jump-time simplexes and taboo-bounded skeletons.

A bridge path factors into two independent uniform draws: sorted i.i.d.
uniform jump times, and a uniformly chosen admissible skeleton.
``sample_skeleton`` unranks a uniform index through the exact skeleton
counts, so it never rejects, however narrow the corridor.

``_draw_padded`` is the vectorized core used by the estimators: rows may have
different endpoints and step counts, and each row's step multiset is shuffled
until it avoids the taboo bounds.  It returns matrices as wide as the
longest row, with zero steps and zero-length holding intervals past each
row's end, so downstream likelihood sums are unaffected.  Inside, rows are
grouped by their own length into power-of-two width classes (small classes
join the next wider one), and each class is shuffled, checked and
time-sorted only up to its own width;
``likelihood.batch_path_loglik`` weighs rows in the same classes.  The
classes do not touch the random stream: the key and time matrices are drawn
at full width, in the same calls and order as for one padded block, and a
row's path depends only on its own numbers, so a seed gives the same paths
whatever the mix of row lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import NEG_INF, BridgeSpec, _count_cached, _reduced, bridge_count
from .errors import BridgeDomainError, RejectionCapExceeded, ZeroMeasureSpace

_BATCH_MAX_ROUNDS = 10_000
#: Width classes smaller than this many cells join the next wider class: a
#: class costs a fixed number of NumPy calls, worth more than the padding
#: cells a small class saves.
_MIN_CLASS_CELLS = 1 << 14


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


@dataclass
class BridgePath:
    """A decomposed bridge: jump epochs and visited states.

    ``times`` runs 0 = tau_0 < tau_1 < ... < tau_K < tau_{K+1} = t and
    ``states`` holds the start state, the K post-jump states, and the end
    state repeated (the process sits at the end state after its last jump).
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=np.int64)

    @property
    def jumps(self) -> int:
        return len(self.times) - 2

    @property
    def up_jumps(self) -> int:
        return int(np.sum(np.diff(self.states[:-1]) == 1))

    def validate(self, spec: BridgeSpec | None = None) -> None:
        if self.times.shape != self.states.shape or len(self.times) < 2:
            raise BridgeDomainError("times and states must share a length >= 2")
        if self.times[0] != 0.0 or not np.all(np.diff(self.times[:-1]) > 0):
            raise BridgeDomainError("jump times must be strictly increasing from 0")
        if self.jumps > 0 and self.times[-2] >= self.times[-1]:
            raise BridgeDomainError("last jump must precede the horizon")
        if self.states[-1] != self.states[-2]:
            raise BridgeDomainError("state after the last jump must repeat the end state")
        steps = np.diff(self.states[:-1])
        if self.jumps > 0 and not np.all(np.abs(steps) == 1):
            raise BridgeDomainError("consecutive states must differ by exactly 1")
        if spec is not None:
            if self.jumps != spec.jumps:
                raise BridgeDomainError("jump count does not match the spec")
            if self.states[0] != spec.i or self.states[-1] != spec.j:
                raise BridgeDomainError("endpoints do not match the spec")
            if self.up_jumps != spec.up_jumps:
                raise BridgeDomainError("up-jump count does not match the spec")
            if self.times[-1] != spec.t:
                raise BridgeDomainError("horizon does not match the spec")
            interior = self.states[1:-2] if spec.jumps > 0 else self.states[:0]
            if interior.size and not np.all(
                (interior > spec.lower) & (interior < spec.upper)
            ):
                raise BridgeDomainError("interior states touch a taboo bound")


def sample_times(jumps: int, t: float, rng: RngStream) -> np.ndarray:
    """Sorted i.i.d. uniform jump times on (0, t); exact ties trigger a redraw."""
    if jumps < 0:
        raise BridgeDomainError(f"jumps must be >= 0, got {jumps}")
    if not t > 0:
        raise BridgeDomainError(f"t must be > 0, got {t}")
    if jumps == 0:
        return np.empty(0)
    while True:
        u = rng.gen.uniform(0.0, t, jumps)
        u.sort()
        if u[0] > 0.0 and u[-1] < t and np.all(np.diff(u) > 0):
            return u


def _uniform_index(card: int, gen: np.random.Generator) -> int:
    """A uniform integer in [0, card), exact also for card >= 2**63."""
    if card < 1 << 63:
        return int(gen.integers(card))
    bits = card.bit_length()
    nbytes = (bits + 7) // 8
    while True:
        idx = int.from_bytes(gen.bytes(nbytes), "little") >> (8 * nbytes - bits)
        if idx < card:
            return idx


def sample_skeleton(spec: BridgeSpec, rng: RngStream) -> np.ndarray:
    """One uniform draw from the admissible skeletons, as states omega_0..omega_K.

    Skeletons are ranked in the order of :func:`counting.enumerate_bridges`,
    down steps before up steps.  A uniform rank below ``bridge_count(spec)``
    is unranked through the exact count of the strict-interior sub-bridges
    left after each step, so the draw takes one random index, never rejects,
    and costs K cached counts.
    """
    card = bridge_count(spec)
    if card == 0:
        raise ZeroMeasureSpace(f"no skeletons for {spec}")
    idx = _uniform_index(card, rng.gen)
    jumps, ups, state, j = _reduced(spec)
    out = [state]
    for rest in range(jumps - 1, -1, -1):
        # Sub-bridges after a down step.  From a state on a bound the
        # reflection series cancels to 0, so that step is never taken.
        down = _count_cached(rest, ups, state - 1, j, spec.lower, spec.upper)
        if idx < down:
            state -= 1
        else:
            idx -= down
            state += 1
            ups -= 1
        out.append(state)
    if spec.ends_at_lower or spec.ends_at_upper:
        out.append(spec.j)
    return np.asarray(out, dtype=np.int64)


def sample_bridge(spec: BridgeSpec, rng: RngStream) -> BridgePath:
    """Assemble one uniform bridge path: independent time and skeleton draws."""
    mid = sample_times(spec.jumps, spec.t, rng)
    skeleton = sample_skeleton(spec, rng)
    times = np.concatenate([[0.0], mid, [spec.t]])
    states = np.concatenate([skeleton, [spec.j]])
    return BridgePath(times, states)


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


def _draw_padded(i, j, up_jumps: int, t: float, lower, upper, size: int,
                 rng: RngStream):
    """Vectorized uniform draws for ``size`` bridges sharing ``up_jumps`` and ``t``.

    ``i``, ``j`` and ``upper`` may vary per row; ``lower`` is shared.  Rows
    whose end state sits on a finite bound get their forced terminal step
    appended after the strict-interior shuffle.  Returns ``(steps, dtau,
    jumps)`` as matrices as wide as the longest row: padding steps are 0 and
    padding holding intervals have zero length, so likelihood sums ignore
    them.

    The work runs on width classes (see ``_width_classes``): each class is
    shuffled, bound-checked, time-sorted and differenced only up to its own
    width.  The random stream does not depend on the classes.  Every
    rejection round draws one key matrix of shape (pending rows, longest
    core), and every time draw one matrix of shape (rows, most jumps), in the
    same order whatever the mix of lengths; a row's skeleton is set by the
    ranks of its own keys and its times by its own uniforms.

    Callers must pre-filter empty bridge spaces; this routine only rejects on
    bound violations and will loop on impossible rows until the round cap.
    """
    i = np.broadcast_to(np.asarray(i, np.int64), (size,))
    j = np.broadcast_to(np.asarray(j, np.int64), (size,))
    upper_arr = np.broadcast_to(np.asarray(upper, float), (size,))
    lower = float(lower)

    ends_low = (j == lower) if lower != NEG_INF else np.zeros(size, bool)
    ends_up = np.isfinite(upper_arr) & (j == upper_arr)
    jumps = 2 * up_jumps + i - j
    if np.any(jumps < 0):
        raise BridgeDomainError("infeasible up-jump budget in batch draw")
    length = jumps - ends_low - ends_up
    ups = np.where(ends_up, up_jumps - 1, up_jumps)
    # A core walk is admissible when its running sum of steps stays strictly
    # between these two, i.e. its states strictly inside (lower, upper).
    room_low = lower - i
    room_up = upper_arr - i

    len_max = int(length.max()) if size else 0
    jumps_max = int(jumps.max()) if size else 0
    cols = np.arange(jumps_max)
    steps = np.zeros((size, jumps_max), np.int8)
    pending = np.arange(size)
    tries = 0
    accepted = 0
    for _ in range(_BATCH_MAX_ROUNDS):
        if pending.size == 0:
            break
        keys = rng.gen.random((pending.size, len_max))
        ok = np.ones(pending.size, bool)
        for width, sel in _width_classes(length[pending], len_max):
            if width == 0:
                continue
            rows = pending[sel]
            n_len, n_up = length[rows], ups[rows]
            k = keys[sel, :width]
            pad = cols[:width] >= n_len[:, None] if n_len.min() < width else None
            if pad is not None:
                k[pad] = 2.0  # padding sorts last
            # The n_up smallest keys of a row carry its up steps, the rest of
            # its core the down steps: the key ranks are a uniform shuffle.
            thr = np.sort(k, axis=1)[np.arange(len(rows)), np.maximum(n_up - 1, 0)]
            thr[n_up == 0] = -1.0
            x = (k <= thr[:, None]).view(np.int8)
            x = x + x - 1
            if pad is not None:
                x[pad] = 0
            # Padding repeats the last core state, so it never moves the
            # extremes of an admissible walk.  A key tied with the threshold
            # adds an up step; the end check rejects that row (measure zero).
            walk = np.cumsum(x, axis=1, dtype=np.int8 if width < 128 else np.int32)
            good = ((walk.min(axis=1) > room_low[rows]) & (walk.max(axis=1) < room_up[rows])
                    & (walk[:, -1] == 2 * n_up - n_len))
            steps[rows[good], :width] = x[good]
            ok[sel] = good
        tries += pending.size
        accepted += int(ok.sum())
        pending = pending[~ok]
    if pending.size:
        raise RejectionCapExceeded(tries, accepted, _BATCH_MAX_ROUNDS)

    rows_low = np.flatnonzero(ends_low)
    steps[rows_low, length[rows_low]] = -1
    rows_up = np.flatnonzero(ends_up)
    steps[rows_up, length[rows_up]] = 1

    dtau = np.zeros((size, jumps_max + 1))
    while True:
        u = rng.gen.random((size, jumps_max))
        collision = False
        for width, rows in _width_classes(jumps, jumps_max):
            if width == 0:
                dtau[rows, 0] = t
                continue
            n_jumps = jumps[rows]
            tau = u[rows, :width]
            if n_jumps.min() < width:
                tau[cols[:width] >= n_jumps[:, None]] = 1.0  # padding sorts last, at t
            tau.sort(axis=1)
            tau *= t
            # Holding intervals: the gaps of (0, tau_1, ..., tau_K, t, ..., t).
            gaps = dtau if isinstance(rows, slice) else np.empty((len(n_jumps), width + 1))
            gaps[:, 0] = tau[:, 0]
            np.subtract(tau[:, 1:], tau[:, :-1], out=gaps[:, 1:width])
            gaps[:, width] = t - tau[:, -1]
            # Padding gaps are exactly 0; any other zero gap is a tie or a
            # time at 0 or t (measure zero): redraw the whole batch.
            if np.count_nonzero(gaps == 0.0) > width * len(n_jumps) - int(n_jumps.sum()):
                collision = True
                break
            if not isinstance(rows, slice):
                dtau[rows, :width + 1] = gaps
        if not collision:
            break
    return steps, dtau, jumps
