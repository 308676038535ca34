import hashlib
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import bdbridge.sampler as sampler_module
from bdbridge.counting import BridgeSpec, bridge_count, log_bridge_count, log_simplex_density
from bdbridge.errors import CapacityError, ZeroMeasureSpace
from bdbridge.likelihood import batch_path_loglik
from bdbridge.sampler import RngStream, _draw_padded, sample_bridges
from conftest import BridgePath, enumerate_bridges


def _skeletons(spec, n, rng):
    """``n`` skeletons omega_0..omega_K of one spec, one per row."""
    return sample_bridges(spec, n, rng)[1][:, :-1]


def test_sample_times_order_statistic_law(rng):
    # The k-th of K sorted uniforms on (0, t) is t * Beta(k, K - k + 1) for
    # the batch core's time draw (K down steps); K = 1 is the uniform law,
    # whose mean is also held to three standard errors.
    t = 2.0
    for k_total, reps in ((1, 100_000), (5, 20_000)):
        _, dtau, _ = _draw_padded(k_total, 0, 0, t, -np.inf, np.inf, reps, rng)
        draws = np.cumsum(dtau, axis=1)[:, :k_total] / t
        if k_total == 1:
            assert abs(draws.mean() - 0.5) < 3.0 / math.sqrt(12 * reps)
        for k in range(1, k_total + 1):
            p = stats.kstest(draws[:, k - 1], stats.beta(k, k_total - k + 1).cdf).pvalue
            assert p > 0.001, (k_total, k, p)


def test_skeleton_forced_single(rng):
    spec = BridgeSpec(i=1, j=1, up_jumps=2, lower=0, upper=3)
    assert _skeletons(spec, 5, rng).tolist() == [[1, 2, 1, 2, 1]] * 5


def test_skeleton_no_jumps(rng):
    assert _skeletons(BridgeSpec(i=4, j=4, up_jumps=0), 3, rng).tolist() == [[4]] * 3


def test_skeleton_narrow_long_corridor(rng):
    # One admissible path of 120 jumps among C(120, 60) shuffles: the
    # count-driven walk takes it at once, where a shuffle would never hit it.
    spec = BridgeSpec(i=1, j=1, up_jumps=60, lower=0, upper=3)
    assert bridge_count(spec) == 1
    assert _skeletons(spec, 2, rng).tolist() == [[1, 2] * 60 + [1]] * 2


def test_skeleton_count_beyond_int64():
    # C(80, 40) > 2**63 skeletons: the walk's log counts hold where an
    # integer index would not fit in 64 bits.
    spec = BridgeSpec(i=0, j=0, up_jumps=40)
    assert bridge_count(spec) >= 1 << 63
    n = 2000
    times, states = sample_bridges(spec, n, RngStream(5))
    for row_t, row_s in zip(times, states):
        BridgePath(row_t, row_s).validate(spec)
    first_up = int(np.sum(states[:, 1] == 1))
    assert stats.binomtest(first_up, n, 0.5).pvalue > 0.001


def _assert_densities_match_counts(i, j, ups, t, lower, upper):
    """``_draw_padded``'s log proposal densities, whose counts it reads off its
    walk table, equal log K!/t^K less the log exact count of each row's bridge
    space, for rows of mixed endpoints in one call."""
    i, j = np.broadcast_arrays(np.asarray(i), np.asarray(j))
    got = _draw_padded(i, j, ups, t, lower, upper, len(i), RngStream(0)).log_density
    want = [log_simplex_density(spec.jumps, t) - log_bridge_count(spec)
            for spec in (BridgeSpec(i=int(a), j=int(b), up_jumps=ups, t=t, lower=lower,
                                    upper=upper) for a, b in zip(i, j))]
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("drop", [0, 1, 2, 5, 10, 20, 40])
def test_walk_table_matches_filter_pair_counts(drop):
    # The filter draws its bridges in one corridor, (0, inf), from start
    # states 1..60 to every end state 0..i+drop; j = 0 is an absorbing end.
    i, j = np.array([(i, j) for i in range(1, 61) for j in range(i + drop + 1)]).T
    _assert_densities_match_counts(i, j, drop, 1.0, 0, np.inf)


def test_walk_table_matches_sis_counts():
    # Two bounds, as an SIS model's corridor (0, 31): absorbing at 0, and
    # inside it.
    i = np.arange(1, 31)
    for ups in range(41):
        _assert_densities_match_counts(i, 0, ups, 0.7, 0, 31)
        _assert_densities_match_counts(i, np.minimum(31 - i, i + ups), ups, 0.7, 0, 31)


@pytest.mark.parametrize("ups", [0, 3, 12])
def test_walk_table_matches_unbounded_counts(ups):
    i, j = np.array([(i, j) for i in range(-4, 5) for j in range(-6, i + ups + 1)]).T
    _assert_densities_match_counts(i, j, ups, 2.5, -np.inf, np.inf)


def test_skeleton_empty_space_errors(rng):
    with pytest.raises(ZeroMeasureSpace):
        sample_bridges(BridgeSpec(i=5, j=8, up_jumps=2), 1, rng)


class _TableBuilt(Exception):
    pass


def test_walk_table_capacity_limit(monkeypatch):
    # A walk table of more than 2**24 cells raises before it is built.  One
    # row from 5 to 3 needs 1 x 6003 x 3001 cells at B = 3000 and 1 x 5603 x
    # 2801 at B = 2800; filter-like rows from 1 to 0..250 with 250 up steps
    # need 250 x 501 x 251.
    def build(*args):
        raise _TableBuilt

    monkeypatch.setattr(sampler_module, "_log_walk_counts", build)
    with pytest.raises(CapacityError, match="walk table of 1 x 6003 x 3001"):
        sample_bridges(BridgeSpec(i=5, j=3, up_jumps=3000), 1, RngStream(1))
    with pytest.raises(CapacityError, match="walk table of 250 x 501 x 251"):
        _draw_padded(1, np.arange(251), 250, 1.0, 0, np.inf, 251, RngStream(1))
    with pytest.raises(_TableBuilt):
        sample_bridges(BridgeSpec(i=5, j=3, up_jumps=2800), 1, RngStream(1))


def _chisquare_uniform(spec, draws, rng):
    paths = [tuple(p) for p in enumerate_bridges(spec, max_jumps=None)]
    steps, _, _ = _draw_padded(spec.i, spec.j, spec.up_jumps, spec.t, spec.lower,
                               spec.upper, draws, rng)
    skeletons = spec.i + np.cumsum(steps, axis=1)
    counts = Counter((spec.i,) + tuple(row) for row in skeletons.tolist())
    assert set(counts) <= set(paths)
    observed = [counts.get(p, 0) for p in paths]
    return stats.chisquare(observed).pvalue


def test_skeleton_uniform_unbounded(rng):
    spec = BridgeSpec(i=5, j=5, up_jumps=2)
    p = _chisquare_uniform(spec, 60_000, rng)
    assert p > 0.001


def test_skeleton_uniform_rejection_route(rng):
    # A corridor-restricted space, where a step-multiset shuffle would be
    # rejected on most tries.
    spec = BridgeSpec(i=2, j=2, up_jumps=3, lower=0, upper=5)
    card = bridge_count(spec)
    assert 2 <= card <= 50
    p = _chisquare_uniform(spec, 1500 * card, rng)
    assert p > 0.001


def test_skeleton_absorbing_terminal(rng):
    spec = BridgeSpec(i=2, j=0, up_jumps=2, lower=0, upper=5)
    skel = _skeletons(spec, 20, rng)
    assert np.all(skel[:, 0] == 2) and np.all(skel[:, -1] == 0)
    assert np.all(skel[:, 1:-1] > 0)


def test_bridge_no_jump_path(rng):
    times, states = sample_bridges(BridgeSpec(i=5, j=5, up_jumps=0, t=1.0), 3, rng)
    assert times.tolist() == [[0.0, 1.0]] * 3
    assert states.tolist() == [[5, 5]] * 3


def test_bridge_narrow_example(rng):
    spec = BridgeSpec(i=0, j=0, up_jumps=1, lower=-1, upper=2, t=1.0)
    times, states = sample_bridges(spec, 10, rng)
    assert states.tolist() == [[0, 1, 0, 0]] * 10
    assert np.all((0 < times[:, 1]) & (times[:, 1] < times[:, 2]) & (times[:, 2] < 1.0))
    for row_t, row_s in zip(times, states):
        BridgePath(row_t, row_s).validate(spec)


def test_bridge_invariants_across_specs(rng):
    specs = [
        BridgeSpec(i=3, j=7, up_jumps=6, lower=0, upper=12, t=0.7),
        BridgeSpec(i=4, j=0, up_jumps=3, lower=0, upper=9, t=2.0),
        BridgeSpec(i=2, j=5, up_jumps=5, lower=-2, upper=6, t=1.0),
        BridgeSpec(i=1, j=1, up_jumps=4, t=3.0),
    ]
    for spec in specs:
        for row_t, row_s in zip(*sample_bridges(spec, 40, rng)):
            BridgePath(row_t, row_s).validate(spec)


def test_determinism_fixed_stream():
    spec = BridgeSpec(i=2, j=4, up_jumps=4, lower=0, upper=9)
    a = sample_bridges(spec, 3, RngStream(99, 5))
    b = sample_bridges(spec, 3, RngStream(99, 5))
    for xa, xb in zip(a, b):
        np.testing.assert_array_equal(xa, xb)


def test_distinct_streams_differ():
    spec = BridgeSpec(i=20, j=0, up_jumps=0)
    a, _ = sample_bridges(spec, 3, RngStream(7, 0))
    b, _ = sample_bridges(spec, 3, RngStream(7, 1))
    assert not np.array_equal(a, b)


def test_batch_draw_matches_scalar_law(rng):
    # The padded batch core draws the uniform skeleton law of the enumeration.
    spec = BridgeSpec(i=2, j=1, up_jumps=3, lower=0, upper=6, t=1.0)
    card = bridge_count(spec)
    paths = [tuple(p) for p in enumerate_bridges(spec)]
    steps, dtau, jumps = _draw_padded(spec.i, spec.j, spec.up_jumps, spec.t,
                                      spec.lower, spec.upper, 1500 * card, rng)
    assert np.all(jumps == spec.jumps)
    skeletons = spec.i + np.cumsum(steps, axis=1)
    counts = Counter((spec.i,) + tuple(row) for row in skeletons)
    observed = [counts.get(p, 0) for p in paths]
    assert stats.chisquare(observed).pvalue > 0.001
    # holding intervals partition (0, t)
    assert np.allclose(dtau.sum(axis=1), spec.t)
    assert np.all(dtau >= 0)


def test_batch_draw_uniform_sweep(uniformity_family, rng):
    # The batch core's skeleton law is uniform on every space of the family
    # and on spaces that end on their upper bound, also when rows of
    # different (i, j) share a call, as the filter draws them.  Spaces that
    # share an up count and a corridor are drawn in one call, 1000 rows per
    # admissible path, and each space's rows are tested against its
    # enumeration.
    upper_ends = [BridgeSpec(i=i, j=width, up_jumps=ups, lower=0, upper=width)
                  for width in range(2, 6) for i in range(1, width)
                  for ups in range(width - i, width - i + 4)]
    specs = uniformity_family + [s for s in upper_ends if 2 <= bridge_count(s) <= 50]
    calls = {}
    for spec in specs:
        calls.setdefault((spec.up_jumps, spec.lower, spec.upper), []).append(spec)
    p_values = []
    for (ups, lower, upper), group in calls.items():
        paths = [enumerate_bridges(s, max_jumps=None) for s in group]
        reps = [1000 * len(p) for p in paths]
        steps, _, jumps = _draw_padded(np.repeat([s.i for s in group], reps),
                                       np.repeat([s.j for s in group], reps),
                                       ups, 1.0, lower, upper, sum(reps), rng)
        first = np.cumsum([0] + reps)
        for spec, spec_paths, a, b in zip(group, paths, first[:-1], first[1:]):
            assert np.all(jumps[a:b] == spec.jumps)
            # A skeleton is coded by the bit pattern of its up steps.
            bits = 1 << np.arange(spec.jumps)
            codes = np.array([(np.diff(p) > 0) @ bits for p in spec_paths])
            observed = ((steps[a:b, :spec.jumps] > 0) @ bits == codes[:, None]).sum(axis=1)
            assert observed.sum() == b - a, spec
            p_values.append(stats.chisquare(observed).pvalue)
    assert any(s.j == s.upper for s in specs) and any(s.j == s.lower for s in specs)
    assert sum(len({(s.i, s.j) for s in group}) > 1 for group in calls.values()) >= 10
    assert min(p_values) * len(specs) > 0.001, min(p_values)


def test_batch_draw_long_rows(rng):
    # Counts of these rows overflow a float (C(2000, 1000) ~ 1e600), so only
    # a log-space table draws them: a row of 3000 down steps must take no up
    # step, and balanced rows of 2000 steps must end at their start, with a
    # fair first step.
    steps, dtau, jumps = _draw_padded(3000, 0, 0, 1.0, -np.inf, np.inf, 2, rng)
    assert jumps.tolist() == [3000, 3000] and np.all(steps == -1)
    assert np.allclose(dtau.sum(axis=1), 1.0)
    n = 400
    steps, _, jumps = _draw_padded(0, 0, 1000, 1.0, -np.inf, np.inf, n, rng)
    assert np.all(jumps == 2000) and np.all(steps.sum(axis=1) == 0)
    assert np.all((steps == 1).sum(axis=1) == 1000)
    assert stats.binomtest(int((steps[:, 0] == 1).sum()), n, 0.5).pvalue > 0.001
    # A narrow corridor leaves one admissible path of 2000 steps.
    steps, _, _ = _draw_padded(1, 1, 1000, 1.0, 0, 3, 3, rng)
    assert np.all(steps[:, 0::2] == 1) and np.all(steps[:, 1::2] == -1)


@pytest.mark.parametrize("args", [
    # every row empty: 1 -> 1 with one up step cannot stay inside (0, 2)
    (1, 1, 1, 1.0, 0, 2, 3),
    # an empty row among admissible ones (1 -> 2 ends on the bound by one step)
    (np.array([1, 1, 1]), np.array([2, 1, 2]), 1, 1.0, 0, 2, 3),
    # a start state on the upper bound, and an empty row first
    (np.array([1, 2]), np.array([1, 2]), 1, 1.0, 0, 2, 2),
    # too few up jumps to climb from 1 to 5
    (np.array([4, 1]), np.array([5, 5]), 1, 1.0, -np.inf, np.inf, 2),
])
def test_batch_draw_empty_rows_raise(args):
    # An empty row raises before anything is drawn, instead of stepping
    # through a table of zero counts.
    stub = _CollideOnceGen(None, at=0)
    with pytest.raises(ZeroMeasureSpace):
        _draw_padded(*args, SimpleNamespace(gen=stub))
    assert stub.calls == 0


def _pad_columns(a: np.ndarray, width: int) -> np.ndarray:
    return np.pad(a, ((0, 0), (0, width - a.shape[1])))


def _mixed_row_groups(pick):
    """(lower, ups, i, j, upper) groups of rows, one batch draw each."""
    groups = []
    lower = -3
    for ups, n in ((0, 200), (3, 200)):
        i = pick.integers(1, 41, n)
        j = np.array([pick.integers(lower + 1, a + ups + 1) for a in i])
        if ups == 0:
            i[:3], j[:3] = (5, 1, 40), (5, -1, 0)
        groups.append((lower, ups, i, j, np.inf))
    # An upper bound two above the highest start, which binds when ups > 0.
    for ups in (0, 3):
        i = pick.integers(30, 41, 100)
        j = np.array([pick.integers(lower + 1, min(a + ups, 41) + 1) for a in i])
        groups.append((lower, ups, i, j, 42))
    # Absorbing terminal on the lower bound 0, including 1 -> 0 by a single
    # forced step (ups = 0) and after a core of four steps (ups = 2), with
    # and without an upper bound that binds.
    for ups, upper in ((0, np.inf), (2, np.inf), (2, 6)):
        i = pick.integers(1, 41 if upper == np.inf else 6, 40)
        i[0] = 1
        groups.append((0, ups, i, np.zeros(40, np.int64), upper))
    # Terminal on a finite upper bound, after a single forced up step
    # (ups = 1) or after a core of 2 to 4 steps (ups = 3).
    groups.append((-3, 1, np.full(40, 40), np.full(40, 41), 41))
    i = pick.integers(9, 12, 40)
    groups.append((-3, 3, i, np.full(40, 12), 12))
    return groups


def _class_floors():
    """Width-class floors to test: every class apart, and the default."""
    return (0, sampler_module._MIN_CLASS_CELLS)


def test_width_classes_partition_rows(monkeypatch):
    # Every row lands in exactly one class no narrower than itself, classes
    # come in increasing width, and the floor only merges neighbours.
    lengths = np.random.default_rng(2).integers(0, 70, 3000)
    lengths[:5] = (0, 1, 2, 3, 70)
    for floor in (0, 1 << 10, 1 << 14, 1 << 30):
        monkeypatch.setattr(sampler_module, "_MIN_CLASS_CELLS", floor)
        seen = np.zeros(len(lengths), int)
        widths = []
        for width, rows in sampler_module._width_classes(lengths, 70):
            seen[rows] += 1
            assert lengths[rows].max() <= width
            if widths:
                assert lengths[rows].min() > widths[-1]
            widths.append(width)
        assert np.all(seen == 1)
        assert widths[-1] == 70
        if floor == 0:
            assert widths == [0, 1, 2, 4, 8, 16, 32, 64, 70]
        if floor == 1 << 30:
            assert widths == [70]


def test_batch_draw_mixed_rows_consistent(lbdi_table_model, path_loglik, monkeypatch):
    # Rows of many lengths, weighed together, must agree row by row with the
    # scalar path log-likelihood.  The batch has zero-jump rows, jump counts
    # in at least four width classes, rows ending on a lower or an upper
    # bound with their forced terminal step, and rows that must pass
    # 0 -> -1, a down jump at zero death rate (-inf).  It runs with every
    # width class apart and with the default floor, which folds small classes
    # into wider ones; both layouts must draw the same bytes.  Sums over
    # padded widths may round differently in the last bit.
    results = []
    for floor in _class_floors():
        monkeypatch.setattr(sampler_module, "_MIN_CLASS_CELLS", floor)
        results.append(_check_mixed_rows(RngStream(17), lbdi_table_model, path_loglik))
    (*split_draws, split_ll), (*merged_draws, merged_ll) = results
    for split, merged in zip(split_draws, merged_draws):
        np.testing.assert_array_equal(split, merged)
    np.testing.assert_allclose(split_ll, merged_ll, rtol=1e-12, atol=0)


def _check_mixed_rows(rng, model, path_loglik):
    t = 1.3
    draws, specs = [], []
    for lower, ups, i_arr, j_arr, upper in _mixed_row_groups(np.random.default_rng(5)):
        n = len(i_arr)
        steps, dtau, jumps = _draw_padded(i_arr, j_arr, ups, t, lower, upper, n, rng)
        cols = np.arange(steps.shape[1])
        assert np.all(steps[cols >= jumps[:, None]] == 0)
        assert np.all(dtau[:, 1:][cols >= jumps[:, None]] == 0.0)
        assert np.allclose(dtau.sum(axis=1), t, rtol=1e-14, atol=0)
        draws.append((i_arr, j_arr, steps, dtau, jumps))
        specs += [BridgeSpec(i=int(a), j=int(b), up_jumps=ups, t=t, lower=lower,
                             upper=upper) for a, b in zip(i_arr, j_arr)]
    width = max(d[2].shape[1] for d in draws)
    start, end, jumps = (np.concatenate([d[k] for d in draws]) for k in (0, 1, 4))
    steps = np.vstack([_pad_columns(d[2], width) for d in draws])
    dtau = np.vstack([_pad_columns(d[3], width + 1) for d in draws])
    assert np.any(jumps == 0)
    assert len({int(k - 1).bit_length() for k in jumps[jumps > 0]}) >= 4
    ends_low = np.array([s.j == s.lower for s in specs])
    ends_up = np.array([s.j == s.upper for s in specs])
    assert np.any(ends_low & (start == 1) & (jumps == 1)) and np.any(ends_low & (jumps > 1))
    assert np.any(ends_up & (jumps == 1)) and np.any(ends_up & (jumps > 1))
    ll = batch_path_loglik(model, start, steps, dtau)
    for r, spec in enumerate(specs):
        k = int(jumps[r])
        states = start[r] + np.concatenate([[0], np.cumsum(steps[r, :k])])
        taus = np.concatenate([[0.0], np.cumsum(dtau[r])[:k], [t]])
        path = BridgePath(taus, np.append(states, end[r]))
        path.validate(spec)
        scalar = path_loglik(model, path)
        if scalar == -math.inf:
            assert ll[r] == -math.inf, r
        else:
            assert ll[r] == pytest.approx(scalar, rel=1e-12), r
    assert jumps[0] == 0 and np.isfinite(ll[0]) and ll[1] == -math.inf
    return steps, dtau, jumps, ll


class _CollideOnceGen:
    """Generator stand-in that plants a collision in its ``at``-th matrix."""

    def __init__(self, collide, at):
        self.gen = np.random.default_rng(3)
        self.collide = collide
        self.at = at
        self.calls = 0

    def random(self, size):
        self.calls += 1
        u = self.gen.random(size)
        if self.calls == self.at:
            self.collide(u)
        return u


@pytest.mark.parametrize("collide, row", [
    (lambda u: u.__setitem__((1, 2), u[1, 0]), 1),   # two equal jump times
    (lambda u: u.__setitem__((0, 1), 0.0), 0),       # a jump at time 0
], ids=["tie", "at_zero"])
def test_batch_time_draw_keeps_ties(collide, row, lbdi_table_model, path_loglik):
    # The second matrix is the jump-time draw.  Its tie is kept as a
    # zero-length holding interval, which the batch likelihood weighs as the
    # jump-by-jump reference does.
    stub = _CollideOnceGen(collide, at=2)
    start, t = np.array([4, 9]), 1.0
    steps, dtau, jumps = _draw_padded(start, np.array([1, 2]), 0, t, -np.inf, np.inf,
                                      2, SimpleNamespace(gen=stub))
    assert stub.calls == 2
    assert jumps.tolist() == [3, 7]
    assert np.count_nonzero(dtau[row, :jumps[row] + 1] == 0.0) == 1
    ll = batch_path_loglik(lbdi_table_model, start, steps, dtau)
    for r, k in enumerate(jumps):
        states = start[r] + np.concatenate([[0], np.cumsum(steps[r, :k])])
        taus = np.concatenate([[0.0], np.cumsum(dtau[r])[:k], [t]])
        path = BridgePath(taus, np.append(states, states[-1]))
        assert np.isfinite(ll[r])
        assert ll[r] == pytest.approx(path_loglik(lbdi_table_model, path), rel=1e-12)


def _pinned_cases():
    """Seeded ``_draw_padded`` inputs: (name, args)."""
    i = np.arange(1, 61)
    j = np.where(i % 5 == 0, i, np.maximum(i - i % 23, 0))
    k = np.arange(40)
    return (
        # filter-like: per-row i and j, 0..22 jumps, zero-jump rows
        ("mixed", (i, j, 0, 0.7, 0, np.inf, 60, RngStream(41))),
        # transprob-like: one shared endpoint pair in a binding corridor
        ("uniform", (12, 12, 9, 1.0, 0, 16, 4096, RngStream(42))),
        # absorbing terminal on the lower bound, 7..46 jumps
        ("ends_lower", (k + 1, 0, 3, 2.0, 0, np.inf, 40, RngStream(43))),
        # terminal on a finite upper bound among interior ends, 6..11 jumps
        ("ends_upper", (4 + k % 5, np.where(k % 2, 10, 9), 6, 0.5, 0, 10, 40,
                        RngStream(44))),
    )


def _draw_digest(steps, dtau, jumps) -> str:
    h = hashlib.sha256()
    for a in (steps, dtau, jumps):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: Digests of the outputs of ``_pinned_cases``, recorded when the skeleton
#: draw became the count-driven walk.
PINNED_DRAWS = {
    "mixed": "713f04ba6472fa8ebae1a9145f82f2667abc624d474cb244cd88971ed02c2808",
    "uniform": "c21e8462aa8b85970c52cb58761b75908bce50ba061853941e3ab48e820369c2",
    "ends_lower": "9c10dc85d0a5870a252b02e80c0ae2607141a89e7659a55db9c411abcd27512b",
    "ends_upper": "6a459b6d8ff4df697e3e4601f06ec1f781af8e4512274f6ed36a0336a70189f8",
}


def test_batch_draw_random_stream_pinned(monkeypatch):
    """The batch core's output bytes for fixed seeds are pinned.

    Seeded results everywhere (filter log-likelihoods, estimates, the
    benchmark's mc_sd) depend on which random numbers the sampler consumes
    and how it maps them to paths.  A deliberate change of the sampling law
    or of its use of the stream must update these digests and record the
    change in CHANGES.md.
    """
    for floor in _class_floors():
        monkeypatch.setattr(sampler_module, "_MIN_CLASS_CELLS", floor)
        for name, args in _pinned_cases():
            assert _draw_digest(*_draw_padded(*args)) == PINNED_DRAWS[name], (name, floor)
