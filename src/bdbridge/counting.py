"""Exact combinatorics of taboo-bounded integer-grid bridges.

A bridge skeleton is a lattice path from ``i`` to ``j`` built from unit up and
down steps, with a prescribed number of up steps and two taboo bounds that the
path must never touch.  The number of such paths follows from the reflection
principle: images of the endpoint under the group generated by reflections in
the two bounds contribute an alternating series of binomial coefficients, which
terminates because out-of-range coefficients vanish.  For a single bound the
series collapses to one mirror term; with no bounds it is a plain binomial.

When the end state sits exactly on an absorbing bound, the path must stay
strictly inside the corridor up to its penultimate step and hit the bound with
its final jump.  That count reduces to a strict-interior bridge one step
shorter, with the forced final jump appended.

Counts are exact integers, and ``log_bridge_count`` is their log.  The
skeleton sampler (``sampler._draw_padded``) needs the same numbers for every
prefix of a path, so it builds them by the one-step recursion in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import BridgeDomainError, CapacityError, ZeroMeasureSpace

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Exact integer counting is refused above this many jumps.
EXACT_JUMP_LIMIT = 4096


def _normalize_bound(value, default: float):
    if value is None:
        return default
    if value in (NEG_INF, POS_INF):
        return float(value)
    if float(value) != int(value):
        raise BridgeDomainError(f"taboo bound must be an integer or infinite, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class BridgeSpec:
    """One restricted bridge space: start ``i``, end ``j``, ``up_jumps`` up
    steps, elapsed time ``t``, and exclusive taboo bounds ``lower < state < upper``.

    ``j == lower`` (or ``j == upper``) with a finite bound declares an
    absorbing terminal: the path may only touch the bound with its final step.
    """

    i: int
    j: int
    up_jumps: int
    t: float = 1.0
    lower: float = NEG_INF
    upper: float = POS_INF

    def __post_init__(self):
        for name in ("i", "j", "up_jumps"):
            v = getattr(self, name)
            if float(v) != int(v):
                raise BridgeDomainError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        object.__setattr__(self, "lower", _normalize_bound(self.lower, NEG_INF))
        object.__setattr__(self, "upper", _normalize_bound(self.upper, POS_INF))
        if self.up_jumps < 0:
            raise BridgeDomainError(f"up_jumps must be >= 0, got {self.up_jumps}")
        if not (self.t > 0) or math.isinf(self.t):
            raise BridgeDomainError(f"t must be finite and > 0, got {self.t}")
        if self.lower >= self.upper:
            raise BridgeDomainError(f"need lower < upper, got ({self.lower}, {self.upper})")
        if not (self.lower < self.i < self.upper):
            raise BridgeDomainError(
                f"start state {self.i} must lie strictly inside ({self.lower}, {self.upper})"
            )
        if not (self.lower <= self.j <= self.upper):
            raise BridgeDomainError(
                f"end state {self.j} must lie inside [{self.lower}, {self.upper}]"
            )
        if self.ends_at_lower and self.ends_at_upper:
            raise BridgeDomainError("end state cannot sit on both bounds")

    @property
    def down_jumps(self) -> int:
        return self.up_jumps + self.i - self.j

    @property
    def jumps(self) -> int:
        """Total number of jumps K."""
        return 2 * self.up_jumps + self.i - self.j

    @property
    def feasible(self) -> bool:
        return self.down_jumps >= 0

    @property
    def ends_at_lower(self) -> bool:
        return self.lower != NEG_INF and self.j == self.lower

    @property
    def ends_at_upper(self) -> bool:
        return self.upper != POS_INF and self.j == self.upper


def _comb0(n: int, m) -> int:
    """Binomial coefficient with the convention C(n, m) = 0 outside 0 <= m <= n."""
    if m < 0 or m > n:
        return 0
    return math.comb(n, int(m))


def _strict_terms(jumps: int, ups: int, i: int, j: int, lower, upper):
    """Signed reflection-series terms ``(coeff_index, sign)`` for
    strict-interior bridge counts."""
    if ups < 0 or ups > jumps:
        return
    yield ups, 1
    if lower == NEG_INF and upper == POS_INF:
        return
    mirror_low = ups - j + lower if lower != NEG_INF else None
    mirror_up = ups - j + upper if upper != POS_INF else None
    if upper == POS_INF:
        yield mirror_low, -1
        return
    if lower == NEG_INF:
        yield mirror_up, -1
        return
    width = int(upper - lower)
    # Doubly infinite alternating series over the reflection group; both
    # families terminate once their indices leave [0, jumps].
    n = 1
    while True:
        alive = False
        for idx in (ups + n * width, ups - n * width):
            if 0 <= idx <= jumps:
                yield idx, 1
                alive = True
        for idx in (mirror_low + n * width, mirror_low - (n - 1) * width):
            if 0 <= idx <= jumps:
                yield idx, -1
                alive = True
        if not alive:
            break
        n += 1


def _strict_count(jumps: int, ups: int, i: int, j: int, lower, upper) -> int:
    total = 0
    for idx, sign in _strict_terms(jumps, ups, i, j, lower, upper):
        total += sign * _comb0(jumps, idx)
    return total


def _reduced(spec: BridgeSpec):
    """(jumps, ups, i, j) of the strict-interior problem counting this spec."""
    if spec.ends_at_lower:
        return spec.jumps - 1, spec.up_jumps, spec.i, int(spec.lower) + 1
    if spec.ends_at_upper:
        return spec.jumps - 1, spec.up_jumps - 1, spec.i, int(spec.upper) - 1
    return spec.jumps, spec.up_jumps, spec.i, spec.j


@lru_cache(maxsize=1 << 16)
def _count_cached(jumps, ups, i, j, lower, upper) -> int:
    return _strict_count(jumps, ups, i, j, lower, upper)


def bridge_count(spec: BridgeSpec) -> int:
    """Exact number of skeletons in the restricted bridge space.

    Infeasible up-jump budgets give 0 (an empty space, not an error).
    """
    if not spec.feasible:
        return 0
    if spec.jumps > EXACT_JUMP_LIMIT:
        raise CapacityError(
            f"exact counting limited to {EXACT_JUMP_LIMIT} jumps, got {spec.jumps}"
        )
    jumps, ups, i, j = _reduced(spec)
    n = _count_cached(jumps, ups, i, j, spec.lower, spec.upper)
    assert n >= 0
    return n


def log_bridge_count(spec: BridgeSpec) -> float:
    """log(bridge_count(spec)), or -inf for an empty space.

    The log of the exact integer, so it is accurate to rounding.  Like
    :func:`bridge_count` it raises :class:`CapacityError` above
    ``EXACT_JUMP_LIMIT`` jumps.
    """
    n = bridge_count(spec)
    return math.log(n) if n > 0 else NEG_INF


def log_simplex_density(jumps: int, t: float) -> float:
    """Log of the constant density of sorted jump times, K!/t^K; 0 for K = 0."""
    if jumps < 0:
        raise BridgeDomainError(f"jumps must be >= 0, got {jumps}")
    if not t > 0:
        raise BridgeDomainError(f"t must be > 0, got {t}")
    if jumps == 0:
        return 0.0
    return math.lgamma(jumps + 1) - jumps * math.log(t)


def log_bridge_density(spec: BridgeSpec) -> float:
    """Log density of the uniform law over the restricted bridge space.

    Raises :class:`ZeroMeasureSpace` when the space is empty so callers can
    assign probability 0.
    """
    logn = log_bridge_count(spec)
    if logn == NEG_INF:
        raise ZeroMeasureSpace(f"no bridges for {spec}")
    return log_simplex_density(spec.jumps, spec.t) - logn


def enumerate_bridges(spec: BridgeSpec, max_jumps: int | None = 20) -> list[list[int]]:
    """All skeletons of the spec, as state sequences of length K + 1.

    Brute-force depth-first generation using only step budgets and the taboo
    bounds for pruning; deliberately independent of :func:`bridge_count` so it
    can serve as its oracle.  Refuses specs above ``max_jumps`` unless the
    limit is passed as None.
    """
    if not spec.feasible:
        return []
    if max_jumps is not None and spec.jumps > max_jumps:
        raise BridgeDomainError(
            f"enumeration limited to {max_jumps} jumps, got {spec.jumps}"
        )
    jumps, ups, i, j_eff = _reduced(spec)
    downs = jumps - ups
    if ups < 0 or downs < 0:
        return []
    lower, upper = spec.lower, spec.upper
    paths: list[list[int]] = []
    prefix = [i]

    def rec(state: int, ups_left: int, downs_left: int) -> None:
        if ups_left == 0 and downs_left == 0:
            paths.append(prefix.copy())
            return
        for step, u2, d2 in ((-1, ups_left, downs_left - 1), (1, ups_left - 1, downs_left)):
            ns = state + step
            if d2 < 0 or u2 < 0:
                continue
            if not (lower < ns < upper):
                continue
            if u2 < j_eff - ns or d2 < ns - j_eff:
                continue
            prefix.append(ns)
            rec(ns, u2, d2)
            prefix.pop()

    if jumps == 0:
        if i == j_eff:
            paths.append([i])
    else:
        rec(i, ups, downs)
    if spec.ends_at_lower:
        for p in paths:
            p.append(int(spec.lower))
    elif spec.ends_at_upper:
        for p in paths:
            p.append(int(spec.upper))
    return paths
