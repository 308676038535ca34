"""Exact combinatorics of taboo-bounded integer-grid bridges.

A bridge skeleton is a lattice path from ``i`` to ``j`` built from unit up and
down steps, with a prescribed number of up steps and two taboo bounds that the
path must never touch.  The number of such paths follows from the reflection
principle.  Of the C(K, u) paths of K steps with u up steps, those that touch
a bound b map one to one, by reflecting their part after the first touch,
onto the paths that end at the mirror image of ``j``; these have the mirror
up count u - j + b.  With one bound the count is C(K, u) - C(K, u - j + b).
Two bounds of width w = upper - lower generate a reflection group whose
images shift the up count by multiples of w, so the count is the sum of
C(K, x) over 0 <= x <= K with x = u (mod w), minus the same sum over
x = u - j + lower (mod w).

When the end state sits exactly on an absorbing bound, the path must stay
strictly inside the corridor up to its penultimate step and hit the bound with
its final jump.  ``_core`` reduces it to a strict-interior bridge one step
shorter; counting and the sampler both use it.

Counts are exact integers, and ``log_bridge_count`` is their log.  The
skeleton sampler (``sampler._draw_padded``) needs the same numbers for every
prefix of a path, so it builds them by the one-step recursion in log space,
and returns each row's whole count inside its log proposal density.  The
weights read that; the exact count serves ``bdbridge count``, the
estimator's test for an empty stratum, and the tests as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BridgeDomainError, CapacityError

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


def check_time(t) -> None:
    """The one rule for an elapsed time, shared by bridges and simulators."""
    if not (t > 0) or math.isinf(t):
        raise BridgeDomainError(f"t must be finite and > 0, got {t}")


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
        check_time(self.t)
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


def _class_sum(jumps: int, x, width) -> int:
    """Sum of C(jumps, y) over 0 <= y <= jumps with y = x (mod width); an
    infinite width leaves the one term.  After the first member the terms come
    from the running binomial C(K, y + 1) = C(K, y)(K - y)/(y + 1)."""
    if width == POS_INF:
        return math.comb(jumps, x) if 0 <= x <= jumps else 0
    first = x % width
    total = term = math.comb(jumps, first)
    for y in range(first, jumps - (jumps - first) % width):
        term = term * (jumps - y) // (y + 1)
        if (y + 1 - first) % width == 0:
            total += term
    return total


def _strict_count(jumps: int, ups: int, j: int, lower, upper) -> int:
    """Number of walks of ``jumps`` steps, ``ups`` of them up, that end at
    ``j`` and never touch ``lower`` or ``upper``, by the reflection principle;
    the mirror class sits at the lower bound, else at the upper one."""
    width = upper - lower
    bound = upper if lower == NEG_INF else lower
    return _class_sum(jumps, ups, width) - _class_sum(jumps, ups - j + bound, width)


def _core(jumps, ups, j, lower, upper):
    """(steps, ups, end) of the strict-interior core of a bridge.

    A bridge that ends on a finite bound is its core followed by one forced
    step onto the bound.  Takes scalars or arrays.
    """
    ends_low = j == lower
    ends_up = j == upper
    return jumps - ends_low - ends_up, ups - ends_up, j + ends_low - ends_up


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
    n = _strict_count(*_core(spec.jumps, spec.up_jumps, spec.j, spec.lower, spec.upper),
                      spec.lower, spec.upper)
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
