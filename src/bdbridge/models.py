"""Birth-death models with explicit boundary declarations.

Boundaries are metadata, not something inferred by probing rate functions:
the sampler derives taboo bounds for bridge skeletons directly from them.
An absorbing bound is untouchable except as a terminal state; a reflecting
bound is an ordinary state whose outward rate is zero.

Counts of individuals (``n0``, ``s0``) are stored as ints; anything but a
finite whole number raises :class:`ModelDomainError` naming the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import NEG_INF, POS_INF
from .errors import ModelDomainError

ABSORBING = "absorbing"
REFLECTING = "reflecting"


def _check_boundary(boundary, side: str):
    if boundary is None:
        return None
    try:
        kind, state = boundary
    except (TypeError, ValueError):
        raise ModelDomainError(f"{side} boundary must be (kind, state) or None")
    if kind not in (ABSORBING, REFLECTING):
        raise ModelDomainError(f"unknown boundary kind {kind!r}")
    return (kind, int(state))


class BirthDeathModel:
    """State-dependent birth/death rates plus boundary behaviour.

    ``birth`` and ``death`` are callables mapping a state (scalar or numpy
    array) to a nonnegative rate; a subclass that overrides ``birth_rate``
    passes ``birth=None``.  ``state_cap`` optionally declares a finite
    state-space maximum for generic models that lack an upper boundary, so a
    finite taboo bound exists for sampling.  Instances are immutable after
    construction and safe to share across parallel workers.
    """

    def __init__(self, birth, death, *, lower=None, upper=None,
                 state_cap: int | None = None, name: str = "custom"):
        self._birth = birth
        self._death = death
        self.lower = _check_boundary(lower, "lower")
        self.upper = _check_boundary(upper, "upper")
        self.state_cap = None if state_cap is None else int(state_cap)
        self.name = name
        if (self.lower is not None and self.upper is not None
                and self.lower[1] >= self.upper[1]):
            raise ModelDomainError("lower boundary state must be below the upper one")
        self._check_boundary_rates()

    def _check_boundary_rates(self):
        # Declared semantics must agree with the rate functions at the bound.
        for side, bound in (("lower", self.lower), ("upper", self.upper)):
            if bound is None:
                continue
            kind, s = bound
            b, d = float(self.birth_rate(s)), float(self.death_rate(s))
            outward, rate = ("death", d) if side == "lower" else ("birth", b)
            if kind == ABSORBING and (b != 0 or d != 0):
                raise ModelDomainError(f"absorbing state {s} has nonzero rates ({b}, {d})")
            if kind == REFLECTING and rate != 0:
                raise ModelDomainError(f"reflecting {side} state {s} has {outward} rate {rate}")

    # Raw vectorized access, used on hot paths; no domain checks.
    def birth_rate(self, state, up_count=0):
        return self._birth(state)

    def death_rate(self, state, up_count=0):
        return self._death(state)

    def contains(self, state) -> bool:
        lowest = self.lower[1] if self.lower is not None else NEG_INF
        highest = self.upper[1] if self.upper is not None else self.state_cap
        return lowest <= state <= (POS_INF if highest is None else highest)

    def is_absorbing(self, state) -> bool:
        for b in (self.lower, self.upper):
            if b is not None and b[0] == ABSORBING and b[1] == state:
                return True
        return False

    def rates(self, state, up_count: int = 0) -> tuple[float, float]:
        """Validated scalar rate pair (birth, death) at ``state``."""
        if float(state) != int(state) or not self.contains(state):
            raise ModelDomainError(f"state {state!r} outside state space of {self.name}")
        b = float(self.birth_rate(int(state), up_count))
        d = float(self.death_rate(int(state), up_count))
        if not (math.isfinite(b) and math.isfinite(d)) or b < 0 or d < 0:
            raise ModelDomainError(f"invalid rates ({b}, {d}) at state {state}")
        return b, d

    def taboo_bounds(self) -> tuple[float, float]:
        """Taboo bounds (exclusive) encoding the declared boundaries.

        Absorbing states are untouchable (except as terminal states, handled
        by the bridge spec); reflecting states are reachable, so the bound
        sits one step beyond them.
        """
        if self.lower is None:
            lo = NEG_INF
        else:
            kind, s = self.lower
            lo = s if kind == ABSORBING else s - 1
        if self.upper is None:
            hi = self.state_cap + 1 if self.state_cap is not None else POS_INF
        else:
            kind, s = self.upper
            hi = s if kind == ABSORBING else s + 1
        return lo, hi

    def __repr__(self):
        return f"<BirthDeathModel {self.name}>"


def _whole_number(name: str, value) -> int:
    """``value`` as an int; anything but a finite whole number is a domain error."""
    if not (math.isfinite(value) and value == int(value)):
        raise ModelDomainError(f"{name} must be a finite whole number, got {value}")
    return int(value)


def _check_rates(params, *names: str) -> None:
    """Reject a rate field that is negative or not finite, naming it."""
    for name in names:
        value = getattr(params, name)
        if not (math.isfinite(value) and value >= 0):
            raise ModelDomainError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class LBDIParams:
    """Linear birth-death-immigration rates: birth lam*Y + nu, death mu*Y."""

    lam: float
    mu: float
    nu: float

    def __post_init__(self):
        _check_rates(self, "lam", "mu", "nu")


@dataclass(frozen=True)
class _EpidemicParams:
    """Population size and rates shared by the SIS and SIR parameters."""

    n0: int
    beta: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "n0", _whole_number("n0", self.n0))
        if self.n0 < 1:
            raise ModelDomainError(f"n0 must be a positive integer, got {self.n0}")
        _check_rates(self, "beta", "gamma")


@dataclass(frozen=True)
class SISParams(_EpidemicParams):
    """Closed-population epidemic with reinfection: states are infectious counts."""


@dataclass(frozen=True)
class SIRParams(_EpidemicParams):
    """Closed-population epidemic with removal; infection rate beta*S*I, removal gamma*I."""


def lbdi_model(params: LBDIParams) -> BirthDeathModel:
    """Linear birth-death-immigration process on the nonnegative integers.

    State 0 is reflecting when immigration is positive, absorbing otherwise.
    """
    lam, mu, nu = params.lam, params.mu, params.nu
    lower = (REFLECTING, 0) if nu > 0 else (ABSORBING, 0)
    return BirthDeathModel(
        lambda y: lam * np.asarray(y) + nu,
        lambda y: mu * np.asarray(y),
        lower=lower,
        name="lbdi",
    )


def sis_model(params: SISParams) -> BirthDeathModel:
    """Infectious-count process on {0, ..., n0}: 0 absorbing, n0 reflecting."""
    n0, beta, gamma = params.n0, params.beta, params.gamma
    return BirthDeathModel(
        lambda y: beta * np.asarray(y) * (n0 - np.asarray(y)),
        lambda y: gamma * np.asarray(y),
        lower=(ABSORBING, 0),
        upper=(REFLECTING, n0),
        name="sis",
    )


class SIRReducedModel(BirthDeathModel):
    """The infectious-count process of the two-compartment removal model.

    The susceptible count is not part of the state: it is the initial value
    ``s0`` minus the number of upward jumps made so far, which the bridge
    machinery threads through as ``up_count``.  Each infection therefore sees
    a birth rate beta * (s0 - up_count) * I.  ``s0`` must be a whole number
    in [0, n0].
    """

    def __init__(self, params: SIRParams, s0: int):
        self.params = params
        self.s0 = _whole_number("s0", s0)
        if not (0 <= self.s0 <= params.n0):
            raise ModelDomainError(f"s0 must lie in [0, {params.n0}], got {s0}")
        gamma = params.gamma
        super().__init__(
            None,  # birth_rate is overridden: it reads the up count
            lambda y: gamma * np.asarray(y),
            lower=(ABSORBING, 0),
            state_cap=params.n0,
            name="sir",
        )

    def birth_rate(self, state, up_count=0):
        remaining = np.maximum(self.s0 - np.asarray(up_count), 0)
        return self.params.beta * remaining * np.asarray(state)


def sir_as_bd(params: SIRParams, s0: int) -> SIRReducedModel:
    """Reduce the removal-model pair (S, I) to a birth-death process in I.

    Valid because the susceptible path is recoverable from the up-jump times
    of the infectious path.  With s0 = 0 the result is a pure death process;
    at I = 0 both rates vanish and the epidemic is over.
    """
    return SIRReducedModel(params, s0)
