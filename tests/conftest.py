"""Shared fixtures and the test-only oracles: ``BridgePath`` (a bridge in
``sample_bridges`` layout, with its validity check), ``enumerate_bridges``
(brute-force skeletons) and the scalar path log-likelihood.  Test modules
import the oracles with ``from conftest import ...``."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from bdbridge import BridgeSpec, LBDIParams, SISParams, bridge_count, lbdi_model, sis_model
from bdbridge.counting import NEG_INF, _core
from bdbridge.errors import BridgeDomainError
from bdbridge.sampler import RngStream


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


def enumerate_bridges(spec: BridgeSpec, max_jumps: int | None = 20) -> list[list[int]]:
    """All skeletons of the spec, as state sequences of length K + 1.

    Brute-force depth-first generation using only step budgets and the taboo
    bounds for pruning; independent of the reflection sums of
    :func:`bridge_count` (it shares only ``_core``) so it can serve as their
    oracle.  Refuses specs above ``max_jumps`` unless the limit is passed as
    None.
    """
    if not spec.feasible:
        return []
    if max_jumps is not None and spec.jumps > max_jumps:
        raise BridgeDomainError(
            f"enumeration limited to {max_jumps} jumps, got {spec.jumps}"
        )
    lower, upper = spec.lower, spec.upper
    jumps, ups, j_eff = _core(spec.jumps, spec.up_jumps, spec.j, lower, upper)
    downs = jumps - ups
    if ups < 0 or downs < 0:
        return []
    i = spec.i
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
    if j_eff != spec.j:
        for p in paths:
            p.append(spec.j)
    return paths


@pytest.fixture
def rng():
    return RngStream(20240817)


@pytest.fixture(scope="session")
def lbdi_table():
    """The standard linear-immigration test setting."""
    return LBDIParams(lam=0.8, mu=0.6, nu=1.2)


@pytest.fixture(scope="session")
def lbdi_table_model(lbdi_table):
    return lbdi_model(lbdi_table)


@pytest.fixture(scope="session")
def sis_table():
    return SISParams(n0=30, beta=0.003, gamma=1.0)


@pytest.fixture(scope="session")
def sis_table_model(sis_table):
    return sis_model(sis_table)


@pytest.fixture(scope="session")
def zero_model():
    from bdbridge import BirthDeathModel

    return BirthDeathModel(lambda y: 0.0 * np.asarray(y),
                           lambda y: 0.0 * np.asarray(y), name="frozen")


@pytest.fixture(scope="session")
def uniformity_family():
    """Skeleton spaces of 2 to 50 paths for uniformity sweeps: corridors
    (0, width) of width 2..6 with up to 10 jumps, absorbing lower terminals
    included, plus a few unbounded spaces."""
    specs = []
    for width in range(2, 7):
        for i in range(1, width):
            for j in range(0, width):
                for ups in range(0, 8):
                    try:
                        spec = BridgeSpec(i=i, j=j, up_jumps=ups, lower=0, upper=width)
                    except BridgeDomainError:
                        continue
                    if spec.jumps <= 10 and 2 <= bridge_count(spec) <= 50:
                        specs.append(spec)
    for i, j, ups in ((0, 0, 2), (0, 0, 3), (0, 1, 2), (0, 2, 3), (1, 0, 2)):
        spec = BridgeSpec(i=i, j=j, up_jumps=ups)
        if 2 <= bridge_count(spec) <= 50:
            specs.append(spec)
    return specs


def _path_loglik(model, path) -> float:
    """Log-likelihood of one complete bridge path, jump by jump.

    An impossible jump (birth where the birth rate vanishes, or the mirror
    case) yields -inf.  This loop is the reference for the vectorized
    ``likelihood.batch_path_loglik``.
    """
    states = path.states
    times = path.times
    jumps = path.jumps
    ll = 0.0
    ups = 0
    for k in range(1, jumps + 1):
        pre = int(states[k - 1])
        step = int(states[k] - states[k - 1])
        rate = (model.birth_rate(pre, ups) if step == 1 else model.death_rate(pre, ups))
        rate = float(rate)
        if rate <= 0.0:
            return NEG_INF
        ll += math.log(rate)
        if step == 1:
            ups += 1
    hold_ups = 0
    for k in range(1, jumps + 2):
        pre = int(states[k - 1])
        total = float(model.birth_rate(pre, hold_ups)) + float(model.death_rate(pre, hold_ups))
        ll -= total * (times[k] - times[k - 1])
        if k <= jumps and states[k] > states[k - 1]:
            hold_ups += 1
    return ll


@pytest.fixture(scope="session")
def path_loglik():
    """The scalar path log-likelihood oracle."""
    return _path_loglik
