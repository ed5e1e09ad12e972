import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoreset import (
    Ball, CapacityError, CenterUniverse, DegenerateSetError, DynamicCoresetState, EXPLICIT,
    InputError, InsertionStream, Instance, L2, LINF, Metric, WeightedPoint, check_coreset,
    evaluate_cost, greedy, input_points_universe, materialize_universe, mbc_construction,
    mbc_size_bound, midpoint_grid_universe, min_pairwise_distance, outlier_vector,
    size_threshold,
)
from kcoreset import metric as metric_module
from kcoreset.metric import REL_TOL, leq

from conftest import scalar_distance, scalar_leq

coords = st.lists(st.integers(-50, 50).map(float), min_size=1, max_size=3)


def test_distance_examples(linf, l2):
    assert l2.distance((3.0, 7.0), (3.0, 7.0)) == 0.0
    assert l2.distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert linf.distance((0.0, 0.0), (3.0, 4.0)) == 4.0


def test_distance_dimension_mismatch(l2):
    with pytest.raises(InputError):
        l2.distance((0.0,), (1.0, 2.0))


@given(coords, coords)
def test_distance_symmetry(p, q):
    if len(p) != len(q):
        return
    for m in (Metric(L2), Metric(LINF)):
        assert m.distance(p, q) == m.distance(q, p)
        assert m.distance(p, p) == 0.0


@given(st.integers(1, 3), st.data())
@settings(max_examples=60)
def test_triangle_inequality(dim, data):
    pts = data.draw(st.lists(
        st.tuples(*([st.integers(-20, 20).map(float)] * dim)), min_size=3, max_size=3))
    p, q, r = pts
    for m in (Metric(L2), Metric(LINF)):
        assert m.distance(p, r) <= m.distance(p, q) + m.distance(q, r) + 1e-9


@given(st.lists(st.integers(-100, 100).map(float), min_size=2, max_size=6))
def test_l2_equals_linf_on_the_line(xs):
    m2, mi = Metric(L2), Metric(LINF)
    for a, b in itertools.combinations(xs, 2):
        assert m2.distance((a,), (b,)) == pytest.approx(mi.distance((a,), (b,)))


def test_explicit_matrix_metric():
    mat = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    m = Metric("matrix", matrix=mat)
    assert m.distance((0,), (2,)) == 2.0
    with pytest.raises(InputError):
        Metric("matrix", matrix=[[0, 5], [5, 1]])  # nonzero diagonal
    with pytest.raises(InputError):
        Metric("matrix", matrix=[[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(InputError):
        Metric("matrix", matrix=[[0, 9, 1], [9, 0, 1], [1, 1, 0]])  # triangle
    # 20 points, so triples are sampled: distance 1, except 3 between two
    # multiples of 3, which breaks the triangle inequality in one triple of 12
    mat = [[0 if i == j else 3 if i % 3 == 0 and j % 3 == 0 else 1 for j in range(20)]
           for i in range(20)]
    with pytest.raises(InputError, match="triangle"):
        Metric("matrix", matrix=mat)


def _triangle(long_side, short_side=1.0):
    """Points 0 and 2 at ``long_side``, each at ``short_side`` from point 1."""
    return [[0.0, short_side, long_side], [short_side, 0.0, short_side],
            [long_side, short_side, 0.0]]


def test_triangle_check_is_leq_over_both_sides():
    # the longest side within leq of the two-hop sum 2 is accepted and the
    # next float up is refused, naming the first failing triple; an infinite
    # side with a finite two-hop path is refused; a two-hop sum past the
    # float range is inf, which holds every side, and warns nothing
    edge = 2.0 + REL_TOL * 2.0
    while scalar_leq(float(np.nextafter(edge, math.inf)), 2.0):
        edge = float(np.nextafter(edge, math.inf))
    while not scalar_leq(edge, 2.0):
        edge = float(np.nextafter(edge, 0.0))
    Metric(EXPLICIT, matrix=_triangle(edge))
    for long_side in (float(np.nextafter(edge, math.inf)), math.inf):
        with pytest.raises(InputError, match=r"^triangle inequality violated on sampled "
                                             r"triple \(0,1,2\)$"):
            Metric(EXPLICIT, matrix=_triangle(long_side))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Metric(EXPLICIT, matrix=_triangle(math.inf, math.inf))
        Metric(EXPLICIT, matrix=_triangle(1.7e308, 1.7e308))


METRIC_REFUSALS = {
    "unknown metric kind": (lambda: Metric("l1"), InputError, "unknown metric kind"),
    "explicit kind without a matrix": (lambda: Metric(EXPLICIT), InputError, "requires a matrix"),
    "matrix on L2": (lambda: Metric(L2, matrix=[[0, 1], [1, 0]]), InputError,
                     "only allowed for explicit"),
    "non-square matrix": (lambda: Metric(EXPLICIT, matrix=[[0, 1], [1, 0, 2]]), InputError,
                          "must be square"),
    "negative matrix": (lambda: Metric(EXPLICIT, matrix=[[0, -1], [-1, 0]]), InputError,
                        "must be nonnegative"),
    "negative ball radius": (lambda: Ball((0.0,), -1.0), InputError, "must be nonnegative"),
    "NaN ball radius": (lambda: Ball((0.0,), math.nan), InputError, "must be nonnegative"),
    "NaN ball center": (lambda: Ball((math.nan,), 1.0), InputError, "center must be finite"),
    "infinite ball center": (lambda: Ball((0.0, math.inf), 1.0), InputError,
                             "center must be finite"),
    "size bound at eps = 0": (lambda: mbc_size_bound(1, 0, 0.0, 1), InputError,
                              r"epsilon must be in \(0, 1\]"),
    "size bound at eps < 0": (lambda: mbc_size_bound(1, 0, -1.0, 1), InputError,
                              r"epsilon must be in \(0, 1\]"),
    "size threshold at eps = 0": (lambda: size_threshold(1, 0, 0.0, 1), InputError,
                                  r"epsilon must be in \(0, 1\]"),
    "size threshold at eps = nan": (lambda: size_threshold(1, 0, math.nan, 1), InputError,
                                    r"epsilon must be in \(0, 1\]"),
    "unknown universe kind": (lambda: CenterUniverse("everywhere"), InputError,
                              "unknown universe kind"),
    "universe of no points": (lambda: materialize_universe([], input_points_universe()),
                              InputError, "empty point set"),
    "zero off-diagonal distance": (
        lambda: min_pairwise_distance([(0,), (1,)], Metric(EXPLICIT, matrix=[[0, 0], [0, 0]])),
        DegenerateSetError, "all pairwise distances are zero"),
}


@pytest.mark.parametrize("case", sorted(METRIC_REFUSALS))
def test_metric_refusals(case):
    make, error, message = METRIC_REFUSALS[case]
    with pytest.raises(error, match=message):
        make()


def test_leq_over_arrays_is_the_scalar_rule():
    # every ordered pair of values at the tolerance edge (v * (1 -+ 1e-9),
    # the bound v + 1e-9 * v and their neighbours), near the unit floor, at
    # 0, subnormal, past the float range's slack and not a number: leq over
    # arrays (and over two floats) gives the scalar rule's verdict, and warns
    # nothing. At v = 1.431455953023024 the float above the bound is within
    # v only because the slack scales by |a| too, not by |b| alone.
    values = [0.0, 5e-324, 1.0, 1.0 + REL_TOL, math.inf, 1.7e308, math.nan]
    for v in (3.0, 0.5, 1e-12, 1e300, 1.7e308, 1.431455953023024):
        for edge in (v * (1 + REL_TOL), v * (1 - REL_TOL), v + REL_TOL * max(1.0, v)):
            values += [v, edge, float(np.nextafter(edge, math.inf)),
                       float(np.nextafter(edge, 0.0))]
    a, b = (np.asarray(x) for x in zip(*itertools.product(values, repeat=2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = leq(a, b)
        assert got.dtype == bool and got.shape == a.shape
        assert got.tolist() == [scalar_leq(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert [leq(x, y) for x, y in zip(a.tolist(), b.tolist())] == got.tolist()
        # a row against one radius, as the callers pass it
        assert leq(a, 1.0).tolist() == [scalar_leq(x, 1.0) for x in a.tolist()]
    assert got.any() and not got.all()
    # NaN is within nothing, on either side; an inf is within inf alone
    assert not leq(math.nan, math.inf) and not leq(0.0, math.nan)
    assert not leq(math.inf, 1.7e308) and leq(math.inf, math.inf)


_PTS = [WeightedPoint((0.0,)), WeightedPoint((1.0,)), WeightedPoint((5.0,))]
BAD_COUNTS = {
    "Instance k=1.5, through mbc_construction":
        lambda m: mbc_construction(Instance(_PTS, 1.5, 0, 0.5, m)),
    "Instance z=0.5": lambda m: Instance(_PTS, 1, 0.5, 0.5, m),
    "Instance k=2.0 as a numpy float": lambda m: Instance(_PTS, np.float64(2.0), 0, 0.5, m),
    "greedy k=0": lambda m: greedy(_PTS, 0, 0, m),
    "greedy k=1.5": lambda m: greedy(_PTS, 1.5, 0, m),
    "check_coreset z=0.5": lambda m: check_coreset(_PTS, _PTS, 1, 0.5, 0.5, m),
    "DynamicCoresetState z=0.5": lambda m: DynamicCoresetState(64, 1, 1, 0.5, 0.5),
    "InsertionStream k=1.5": lambda m: InsertionStream(1.5, 0, 0.5, 1, m),
    "InsertionStream k=True, z=False": lambda m: InsertionStream(True, False, 1.0, 1, m),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_counts_are_integers_at_every_model(case, linf):
    # one check at every door: a fractional count once crashed deep inside a
    # model (TypeError, AssertionError) or was accepted silently
    with pytest.raises(InputError, match=r"need integers k >= 1 and z >= 0"):
        BAD_COUNTS[case](linf)


BAD_COUNTS_OUTSIDE = {
    "evaluate_cost z=0.5": lambda m: evaluate_cost(_PTS, [(0.0,)], 0.5, m),
    "evaluate_cost z=-1": lambda m: evaluate_cost(_PTS, [(0.0,)], -1, m),
    "outlier_vector z=0.5": lambda m: outlier_vector(_PTS, 1, 0.5, m),
    "size_threshold k=1.5": lambda m: size_threshold(1.5, 0, 1.0, 1),
    "mbc_size_bound k=1.5": lambda m: mbc_size_bound(1.5, 0, 1.0, 1),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS_OUTSIDE))
def test_counts_are_integers_outside_the_models(case, linf):
    # the public helpers around the models check their counts with the same
    # rule; before, a fractional count raised TypeError or returned a number
    with pytest.raises(InputError, match=r"need integers k >= 1 and z >= 0"):
        BAD_COUNTS_OUTSIDE[case](linf)


def test_min_pairwise_examples(linf, l2):
    assert min_pairwise_distance([(0.0,), (10.0,), (12.0,)], linf) == 2.0
    assert min_pairwise_distance([(0.0, 0.0), (0.0, 0.0), (5.0, 0.0)], l2) == 5.0
    with pytest.raises(DegenerateSetError):
        min_pairwise_distance([(1.0,), (1.0,)], l2)
    with pytest.raises(DegenerateSetError):
        min_pairwise_distance([(1.0,)], l2)


def test_min_pairwise_matches_double_loop(l2):
    rng = np.random.default_rng(42)
    pts = [tuple(map(float, p)) for p in rng.uniform(1, 100, size=(200, 2))]
    expect = min(
        scalar_distance(l2, p, q) for p, q in itertools.combinations(pts, 2)
    )
    assert min_pairwise_distance(pts, l2) == pytest.approx(expect)


def test_materialize_universe_examples():
    pts = [WeightedPoint((0.0,)), WeightedPoint((2.0,))]
    assert materialize_universe(pts, midpoint_grid_universe()) == [(0.0,), (1.0,), (2.0,)]
    pts2 = [WeightedPoint((0.0, 0.0)), WeightedPoint((2.0, 4.0))]
    grid = materialize_universe(pts2, midpoint_grid_universe())
    assert len(grid) == 9
    assert set(grid) == {(x, y) for x in (0.0, 1.0, 2.0) for y in (0.0, 2.0, 4.0)}
    single = [WeightedPoint((3.0, 1.0))]
    assert materialize_universe(single, input_points_universe()) == [(3.0, 1.0)]


def test_materialize_universe_cap(monkeypatch):
    monkeypatch.setattr(metric_module, "UNIVERSE_CAP", 100)
    pts = [WeightedPoint((float(i), float(i * 7 % 23))) for i in range(20)]
    with pytest.raises(CapacityError):
        materialize_universe(pts, midpoint_grid_universe())


def test_input_points_deduplicates():
    pts = [WeightedPoint((1.0,)), WeightedPoint((1.0,), 2), WeightedPoint((4.0,))]
    assert materialize_universe(pts, input_points_universe()) == [(1.0,), (4.0,)]


def test_midpoint_grid_contains_linf_meb_center(linf):
    # For every subset of a small set, some grid point achieves the exact
    # minimum enclosing L-infinity radius (the per-coordinate midpoint).
    rng = np.random.default_rng(3)
    pts = [tuple(map(float, p)) for p in rng.integers(0, 30, size=(8, 2))]
    grid = materialize_universe([WeightedPoint(p) for p in pts], midpoint_grid_universe())
    for size in (1, 2, 3, len(pts)):
        for subset in itertools.combinations(pts, size):
            arr = np.asarray(subset)
            mid = tuple((arr.min(axis=0) + arr.max(axis=0)) / 2.0)
            exact = max(scalar_distance(linf, p, mid) for p in subset)
            best = min(max(scalar_distance(linf, p, c) for p in subset) for c in grid)
            assert best == pytest.approx(exact)
            assert any(np.allclose(c, mid) for c in grid)


@given(st.integers(1, 9), st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=80)
def test_pairwise_equals_scalar_distance_bit_for_bit(dim, n, m, data):
    coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    a = np.asarray(data.draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n)))
    b = np.asarray(data.draw(st.lists(st.tuples(*[coord] * dim), min_size=m, max_size=m)))
    for metric in (Metric(L2), Metric(LINF)):
        got = metric.pairwise(a, b)
        assert got.shape == (n, m)
        for i in range(n):
            for j in range(m):
                p, q = tuple(a[i]), tuple(b[j])
                assert _bits(got[i, j]) == _bits(scalar_distance(metric, p, q))
                assert _bits(got[i, j]) == _bits(metric.distance(p, q))


def _bits(x):
    """The bits of a float, so that -0.0 and 0.0 differ."""
    return int(np.float64(x).view(np.uint64))


def test_one_row_pairwise_equals_its_row_bit_for_bit():
    # a one-row call takes its coordinates as scalar operands; its entries
    # must have the bits of the same row of a many-row call, and of the
    # scalar formula, also where a difference or a square overflows to inf
    rng = np.random.default_rng(43)
    with np.errstate(over="ignore"):
        _check_one_row_calls(rng)
    for metric in (Metric(L2), Metric(LINF)):  # no coordinates: every distance is 0
        for n in (1, 2):
            assert metric.pairwise(np.zeros((n, 0)), np.zeros((3, 0))).tolist() == [[0.0] * 3] * n
        for quiet in (True, False):  # row fills its buffer, which held 7s, with zeros
            out = np.full(3, 7.0)
            assert metric.row((), np.zeros((3, 0)), out, None, quiet) is out
            assert out.tolist() == [0.0] * 3


def _check_one_row_calls(rng):
    for dim in range(1, 6):
        for scale in (1.0, 1e-300, 1e154, 1e308):
            a = rng.uniform(-1.0, 1.0, size=(12, dim)) * scale
            b = rng.uniform(-1.0, 1.0, size=(9, dim)) * scale
            a[0], b[0] = 1.7e308, -1.7e308  # every difference overflows
            a[1], b[1] = -0.0, 0.0
            a[2] = b[2]
            for metric in (Metric(L2), Metric(LINF)):
                full = metric.pairwise(a, b).view(np.uint64)
                for i in range(len(a)):
                    row = metric.pairwise(a[i:i + 1], b).view(np.uint64)
                    assert np.array_equal(row, full[i:i + 1]), (dim, scale, i)
                    for j in range(len(b)):
                        want = scalar_distance(metric, tuple(a[i]), tuple(b[j]))
                        assert int(row[0, j]) == _bits(want), (dim, scale, i, j)
                assert np.isinf(metric.pairwise(a[:1], b[:1])[0, 0])
                # a float32 b promotes a float64 row the same way in both calls
                b32 = b.astype(np.float32)
                full32 = metric.pairwise(a, b32).view(np.uint64)
                for i in range(len(a)):
                    row = metric.pairwise(a[i:i + 1], b32).view(np.uint64)
                    assert np.array_equal(row, full32[i:i + 1]), (dim, scale, i)


def test_paired_rows_equal_the_pairwise_diagonal_bit_for_bit():
    # the elementwise layout of the kernel: entry i of paired(a, b) has the
    # bits of pairwise(a, b)[i, i] and of the scalar formula, also where a
    # difference or square overflows to inf or a square is subnormal, and it
    # warns nothing
    rng = np.random.default_rng(47)
    for dim in range(1, 5):
        for scale in (1.0, 1e-160, 1e-300, 1e154, 1e308):
            a = rng.uniform(-1.0, 1.0, size=(40, dim)) * scale
            b = rng.uniform(-1.0, 1.0, size=(40, dim)) * scale
            a[0], b[0] = 1.7e308, -1.7e308  # every difference overflows
            a[1], b[1] = -0.0, 0.0
            a[2] = b[2]
            a[3], b[3] = 5e-324, 0.0  # a subnormal difference, whose square is 0
            for metric in (Metric(L2), Metric(LINF)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = metric.paired(a, b)
                    diagonal = np.diagonal(metric.pairwise(a, b))
                assert np.array_equal(got.view(np.uint64), diagonal.view(np.uint64))
                with np.errstate(over="ignore"):  # the reference's numpy scalars would warn
                    want = [scalar_distance(metric, tuple(p), tuple(q)) for p, q in zip(a, b)]
                assert [_bits(x) for x in got] == [_bits(x) for x in want], (dim, scale)
                assert np.isinf(got[0])
    for metric in (Metric(L2), Metric(LINF)):
        assert metric.paired(np.zeros((3, 0)), np.zeros((3, 0))).tolist() == [0.0] * 3
        assert metric.paired(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)
        with pytest.raises(InputError, match="paired rows need equal counts"):
            metric.paired(np.zeros((2, 1)), np.zeros((3, 1)))
        with pytest.raises(InputError, match="dimension mismatch"):
            metric.paired(np.zeros((2, 1)), np.zeros((2, 2)))
    explicit = Metric(EXPLICIT, matrix=[[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    idx = np.asarray([[0.0], [2.0], [1.0]])
    assert explicit.paired(idx, idx[::-1]).tolist() == [1.0, 0.0, 1.0]
    with pytest.raises(InputError, match="matrix index out of range"):
        explicit.paired(idx, idx + 1)


def test_overflowing_pairwise_warns_nothing():
    # a difference or a square past the float range makes its entry inf, and
    # neither path of the kernel warns
    a = np.array([[1.7e308, 0.0], [1.0, 2.0]])
    b = np.array([[-1.7e308, 0.0], [3.0, -1.0], [1e200, 1e200]])
    for metric in (Metric(L2), Metric(LINF)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = metric.pairwise(a, b)
            rows = np.vstack([metric.pairwise(a[i:i + 1], b) for i in range(len(a))])
        assert np.isinf(full[0, 0]) and np.isinf(full[1, 2]) == (metric.kind == L2)
        assert np.array_equal(rows.view(np.uint64), full.view(np.uint64))


def test_self_pairwise_is_symmetric_bit_for_bit():
    # the greedy probe reads row i of a self-distance matrix as column i
    rng = np.random.default_rng(29)
    for dim in range(1, 6):
        for scale in (1.0, 1e-7, 3e5):
            x = rng.normal(0.0, scale, size=(60, dim))
            x = np.concatenate([x, x[:5], np.round(x[:20])])  # duplicates and ties
            for metric in (Metric(L2), Metric(LINF)):
                d = metric.pairwise(x, x)
                assert np.array_equal(d.view(np.uint64), d.T.view(np.uint64)), (dim, scale)


@pytest.mark.parametrize("m", [1, 7, 200, 4097])
def test_pairwise_row_blocks_keep_every_entry(m):
    # The general path fills its output in row blocks of _PAIRWISE_BLOCK
    # entries. At row counts one below, at and one above a block's, and at
    # two blocks plus one, every row equals its one-row call, every column
    # equals the one-row call of its b row against a (for small m), and
    # sampled entries equal the scalar formula, bit for bit. Overflowing rows
    # open and close the first block; -0.0 rows are row 1 and the second
    # block's first row.
    rng = np.random.default_rng(m)
    step = max(1, metric_module._PAIRWISE_BLOCK // m)
    for n in (step - 1, step, step + 1, 2 * step + 1):
        edges = sorted({0, 1, step - 1, step, step + 1, 2 * step, n - 1} & set(range(n)))
        rows = range(n) if n <= 512 else edges + rng.integers(0, n, size=20).tolist()
        for dim in range(1, 6):
            a = rng.uniform(-1.0, 1.0, size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
            b = rng.uniform(-1.0, 1.0, size=(m, dim))
            last, first = min(step - 1, n - 1), min(step, n - 1)  # a block's ends
            a[0] = a[last] = 1.7e308
            b[0] = -1.7e308  # every difference with those rows overflows
            a[1] = a[first] = -0.0
            if m > 1:
                b[-1] = 0.0
            for metric in (Metric(L2), Metric(LINF)):
                full = metric.pairwise(a, b)
                bits = full.view(np.uint64)
                for i in rows:
                    row = metric.pairwise(a[i:i + 1], b).view(np.uint64)
                    assert np.array_equal(row[0], bits[i]), (m, n, dim, i)
                if m <= 7:
                    for j in range(m):
                        col = metric.pairwise(b[j:j + 1], a).view(np.uint64)
                        assert np.array_equal(col[0], bits[:, j]), (m, n, dim, j)
                picks = [(i, j) for i in edges for j in (0, m - 1)]
                picks += zip(rng.integers(0, n, size=30).tolist(), rng.integers(0, m, size=30).tolist())
                for i, j in picks:
                    want = scalar_distance(metric, a[i].tolist(), b[j].tolist())
                    assert _bits(full[i, j]) == _bits(want), (m, n, dim, i, j)
                assert np.isinf(full[a[:, 0] == 1.7e308, 0]).all()


def test_self_pairwise_past_one_block_is_symmetric_bit_for_bit():
    # a self-distance matrix of several row blocks is symmetric bit for bit,
    # as the greedy probe's column counts need
    rng = np.random.default_rng(31)
    n = 2 * math.isqrt(metric_module._PAIRWISE_BLOCK) + 1
    for dim in range(1, 6):
        x = rng.normal(0.0, 1e3, size=(n, dim))
        x = np.concatenate([x, x[:5], np.round(x[:40])])  # duplicates and ties
        for metric in (Metric(L2), Metric(LINF)):
            d = metric.pairwise(x, x)
            assert np.array_equal(d.view(np.uint64), d.T.view(np.uint64)), dim


def test_pairwise_dimension_mismatch(l2):
    with pytest.raises(InputError):
        l2.pairwise(np.zeros((2, 2)), np.zeros((3, 1)))


def test_explicit_pairwise_checks_indices():
    m = Metric(EXPLICIT, matrix=[[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    idx = np.asarray([[0.0], [2.0]])
    assert m.pairwise(idx, idx).tolist() == [[0.0, 2.0], [2.0, 0.0]]
    for bad in ([[3.0]], [[-1.0]]):
        with pytest.raises(InputError):
            m.pairwise(np.asarray(bad), idx)
        with pytest.raises(InputError):
            m.pairwise(idx, np.asarray(bad))
    # the cached array does not take part in equality or hashing
    twin = Metric(EXPLICIT, matrix=[[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert m == twin and hash(m) == hash(twin)


def test_explicit_points_must_be_one_integral_index():
    from kcoreset import Instance, evaluate_cost, mbc_construction
    m = Metric(EXPLICIT, matrix=[[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    # integral indices of any numeric type are accepted
    assert m.distance((1,), (2.0,)) == 1.0
    assert evaluate_cost([(1,), (0.0,)], [(2.0,)], 0, m) == 2.0
    # a fractional index used to be truncated: distance 1.0 and cost 2.0
    for p, q in (((1.5,), (2.0,)), ((1.0,), (0.5,)), ((float("nan"),), (1.0,)),
                 ((0.0, 1.0), (1.0, 2.0))):
        with pytest.raises(InputError):
            m.distance(p, q)
        with pytest.raises(InputError):
            m.pairwise(np.asarray([p]), np.asarray([q]))
    with pytest.raises(InputError):
        evaluate_cost([(1.5,), (0.0,)], [(2.0,)], 0, m)
    # 2-D points used to reach _probe and fail with numpy's broadcast error
    with pytest.raises(InputError):
        mbc_construction(Instance(((0.0, 1.0), (1.0, 2.0)), 1, 0, 0.5, m))


@pytest.mark.parametrize("weight", [True, 0, 1.5, "2"])
def test_weighted_point_rejects_bad_weights(weight):
    # a bool is an int to isinstance, but True is no weight
    with pytest.raises(InputError, match="weight must be a positive integer"):
        WeightedPoint((1.0,), weight)


def test_weighted_point_rejects_non_finite():
    for bad in ((float("nan"), 3.0), (float("inf"),), (1.0, float("-inf"))):
        with pytest.raises(InputError):
            WeightedPoint(bad)
    # coordinates whose sum overflows are still finite
    assert WeightedPoint((1e308, 1e308)).point == (1e308, 1e308)
