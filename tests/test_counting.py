import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdbridge.counting import BridgeSpec, bridge_count, log_bridge_count, log_simplex_density
from bdbridge.cli import main
from bdbridge.errors import BridgeDomainError, CapacityError
from conftest import enumerate_bridges

INF = float("inf")


def test_unrestricted_count_is_binomial():
    assert bridge_count(BridgeSpec(i=5, j=5, up_jumps=2)) == math.comb(4, 2)


def test_narrow_corridor_single_survivor():
    # Of the two shuffles of one up and one down step, only up-first stays
    # inside (-1, 2).
    spec = BridgeSpec(i=0, j=0, up_jumps=1, lower=-1, upper=2)
    assert bridge_count(spec) == 1
    assert enumerate_bridges(spec) == [[0, 1, 0]]


def test_double_reflection_case():
    # Six shuffles of (+1, +1, -1, -1); only strict alternation stays in (0, 3).
    spec = BridgeSpec(i=1, j=1, up_jumps=2, lower=0, upper=3)
    assert bridge_count(spec) == 1
    assert enumerate_bridges(spec) == [[1, 2, 1, 2, 1]]


def test_narrow_corridor_count_at_large_k():
    # On states {1, 2, 3} each two-step excursion from 1 goes through 2 and
    # then picks 1 or 3, so 2048 up jumps give 2^2047 skeletons.  K = 4096,
    # and each residue class mod 4 has about a thousand members.
    assert bridge_count(BridgeSpec(i=1, j=1, up_jumps=2048, lower=0, upper=4)) == 2**2047


def test_infeasible_budget_is_empty():
    spec = BridgeSpec(i=5, j=8, up_jumps=2)
    assert bridge_count(spec) == 0
    assert enumerate_bridges(spec) == []


def test_forced_single_step():
    assert enumerate_bridges(BridgeSpec(i=5, j=6, up_jumps=1)) == [[5, 6]]


def test_enumeration_respects_jump_limit():
    spec = BridgeSpec(i=0, j=0, up_jumps=11)
    with pytest.raises(BridgeDomainError):
        enumerate_bridges(spec, max_jumps=20)
    assert len(enumerate_bridges(spec, max_jumps=None)) == math.comb(22, 11)


def test_spec_validation():
    with pytest.raises(BridgeDomainError):
        BridgeSpec(i=0, j=0, up_jumps=1, lower=0, upper=3)  # start on the bound
    with pytest.raises(BridgeDomainError):
        BridgeSpec(i=1, j=5, up_jumps=4, lower=0, upper=3)  # end beyond the bound
    with pytest.raises(BridgeDomainError):
        BridgeSpec(i=1, j=1, up_jumps=-1)
    with pytest.raises(BridgeDomainError):
        BridgeSpec(i=1, j=1, up_jumps=1, t=0.0)


def test_capacity_limit():
    with pytest.raises(CapacityError):
        bridge_count(BridgeSpec(i=0, j=0, up_jumps=3000))
    with pytest.raises(CapacityError):
        log_bridge_count(BridgeSpec(i=0, j=0, up_jumps=3000))


def test_log_simplex_density_examples():
    assert log_simplex_density(3, 2.0) == pytest.approx(math.log(0.75))
    assert log_simplex_density(0, 5.0) == 0.0
    assert log_simplex_density(1, 0.5) == pytest.approx(math.log(2.0))
    with pytest.raises(BridgeDomainError):
        log_simplex_density(2, 0.0)


def _count_log_density(capsys, *bridge_args):
    """``bdbridge count``'s log density of the uniform law over one bridge space."""
    assert main(["count", *bridge_args]) == 0
    return json.loads(capsys.readouterr().out)["log_density"]


def test_log_bridge_density_examples(capsys):
    log_density = _count_log_density(capsys, "--i", "0", "--j", "0", "--B", "1",
                                     "--l", "-1", "--u", "2", "--t", "1")
    assert log_density == pytest.approx(math.log(2.0))
    assert _count_log_density(capsys, "--i", "5", "--j", "5", "--B", "0") == 0.0
    # An empty space has no density.
    assert _count_log_density(capsys, "--i", "5", "--j", "8", "--B", "2") is None


def test_density_is_constant_per_spec(capsys):
    args = ("--i", "2", "--j", "3", "--B", "4", "--l", "0", "--u", "9", "--t", "1.7")
    assert _count_log_density(capsys, *args) == _count_log_density(capsys, *args)


def test_absorbing_terminal_reduction():
    # End state on the lower bound: strict interior until the forced last step.
    spec = BridgeSpec(i=1, j=0, up_jumps=0, lower=0, upper=5)
    assert bridge_count(spec) == 1
    assert enumerate_bridges(spec) == [[1, 0]]
    spec = BridgeSpec(i=2, j=0, up_jumps=1, lower=0, upper=4)
    paths = enumerate_bridges(spec)
    assert bridge_count(spec) == len(paths)
    assert all(p[-1] == 0 and p[-2] == 1 and min(p[:-1]) >= 1 for p in paths)
    # Symmetric case on the upper bound.
    spec = BridgeSpec(i=2, j=4, up_jumps=3, lower=0, upper=4)
    paths = enumerate_bridges(spec)
    assert bridge_count(spec) == len(paths)
    assert all(p[-1] == 4 and max(p[:-1]) <= 3 for p in paths)


def _sweep_specs(max_jumps=10):
    specs = []
    for width in range(2, 7):
        for i in range(1, width):
            for j in range(0, width + 1):
                for ups in range(0, max_jumps + 2):
                    try:
                        spec = BridgeSpec(i=i, j=j, up_jumps=ups, lower=0, upper=width)
                    except BridgeDomainError:
                        continue
                    if 0 <= spec.jumps <= max_jumps:
                        specs.append(spec)
    return specs


def test_oracle_equivalence_sweep_small():
    for spec in _sweep_specs(max_jumps=9):
        assert bridge_count(spec) == len(enumerate_bridges(spec)), spec


def _transfer_count(spec):
    """Skeleton count by stepping a state histogram, dropping paths that sit
    on a bound before their last jump; independent of the reflection series."""
    hist = {spec.i: 1}
    for _ in range(spec.jumps):
        inside = {s: n for s, n in hist.items() if spec.lower < s < spec.upper}
        hist = {}
        for state, n in inside.items():
            for s in (state - 1, state + 1):
                hist[s] = hist.get(s, 0) + n
    return hist.get(spec.j, 0)


def test_log_route_matches_exact_route():
    # Counts of more than 64 jumps, in narrow and wide corridors and with
    # absorbing terminals, against an independent transfer count.
    # The width-2 corridor is empty; in the last case the lower mirror index
    # is negative and its residue class starts at 50.
    for i, j, ups, lower, upper in [(0, 1, 35, -4, 5), (0, 1, 40, None, 6),
                                    (0, 1, 38, -3, None), (0, 1, 45, None, None),
                                    (2, 0, 40, 0, 9), (2, 6, 40, 0, 6),
                                    (1, 1, 60, 0, 3), (1, 1, 40, 0, 2),
                                    (80, 70, 30, 0, 90)]:
        spec = BridgeSpec(i=i, j=j, up_jumps=ups, lower=lower, upper=upper)
        assert spec.jumps > 64
        exact = _transfer_count(spec)
        assert bridge_count(spec) == exact
        assert log_bridge_count(spec) == (math.log(exact) if exact else -INF)


bounded_specs = st.builds(
    lambda width, i, j, ups: (width, i, j, ups),
    st.integers(2, 8), st.integers(1, 7), st.integers(1, 7), st.integers(0, 8),
)


@given(bounded_specs)
@settings(max_examples=200, deadline=None)
def test_widening_never_decreases_count(params):
    width, i, j, ups = params
    if not (i < width and j < width):
        return
    spec = BridgeSpec(i=i, j=j, up_jumps=ups, lower=0, upper=width)
    wider = BridgeSpec(i=i, j=j, up_jumps=ups, lower=-1, upper=width + 1)
    unbounded = BridgeSpec(i=i, j=j, up_jumps=ups)
    assert bridge_count(spec) <= bridge_count(wider) <= bridge_count(unbounded)


@given(bounded_specs)
@settings(max_examples=200, deadline=None)
def test_up_down_mirror_symmetry(params):
    width, i, j, ups = params
    if not (i < width and j < width):
        return
    spec = BridgeSpec(i=i, j=j, up_jumps=ups, lower=0, upper=width)
    if spec.down_jumps < 0:
        return
    mirrored = BridgeSpec(i=-i, j=-j, up_jumps=spec.down_jumps,
                          lower=-width, upper=0)
    assert bridge_count(spec) == bridge_count(mirrored)


@given(bounded_specs)
@settings(max_examples=150, deadline=None)
def test_count_matches_enumeration_random(params):
    width, i, j, ups = params
    if not (i < width and j < width):
        return
    spec = BridgeSpec(i=i, j=j, up_jumps=ups, lower=0, upper=width)
    if spec.jumps > 14:
        return
    assert bridge_count(spec) == len(enumerate_bridges(spec, max_jumps=14))
