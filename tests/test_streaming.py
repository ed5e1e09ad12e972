import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoreset import (
    EXPLICIT, InputError, InsertionStream, Instance, L2, LINF, Metric, WeightedPoint,
    brute_force_opt, input_points_universe, min_pairwise_distance, size_threshold,
)
from kcoreset import metric as metric_module, offline, streaming
from kcoreset.metric import REL_TOL, coords_array, quiet_bound
from kcoreset.offline import _PointSet, _cell_key
from kcoreset.pointio import read_points
from conftest import random_points, scalar_distance
from test_offline import scalar_net
from test_output_pins import _load_gen


def test_threshold_examples(linf):
    assert size_threshold(1, 0, 1.0, 1) == 16
    assert size_threshold(2, 3, 1.0, 1) == 35
    with pytest.raises(InputError):
        InsertionStream(1, 0, 0.0, 1, linf)
    # past 2^53; the power overflows; 16/eps is inf
    for eps, d in ((1e-8, 4), (1e-200, 2), (0.5, 1000), (1e-308, 1)):
        with pytest.raises(InputError, match=r"size threshold k\*\(16/eps\)\^d overflows"):
            size_threshold(1, 0, eps, d)


def test_hand_simulation(linf):
    st_ = InsertionStream(1, 0, 1.0, 1, linf)
    st_.arrival((0.0,))
    st_.arrival((10.0,))
    assert st_.r == 5.0
    assert [(p.point, p.weight) for p in st_.pstar] == [((0.0,), 1), ((10.0,), 1)]
    st_.arrival((12.0,))  # dist to 10 is 2 <= (eps/2)*r = 2.5
    assert [(p.point, p.weight) for p in st_.pstar] == [((0.0,), 1), ((10.0,), 2)]


def test_duplicates_merge_and_small_prefix(linf):
    st_ = InsertionStream(2, 1, 1.0, 1, linf)
    st_.arrival((1.0,))
    st_.arrival((5.0,))
    st_.arrival((1.0,))  # exact duplicate merges even at r=0
    assert [(p.point, p.weight) for p in st_.pstar] == [((1.0,), 2), ((5.0,), 1)]
    assert st_.r == 0.0
    fresh = InsertionStream(2, 1, 1.0, 1, linf)
    assert fresh.report() == []
    # below k+z+1 distinct arrivals everything is kept verbatim
    for x in (3.0, 9.0, 20.0):
        fresh.arrival((x,))
    assert [(p.point, p.weight) for p in fresh.pstar] == [((3.0,), 1), ((9.0,), 1), ((20.0,), 1)]
    assert fresh.r == 0.0


def test_dimension_mismatch(linf):
    st_ = InsertionStream(1, 0, 1.0, 2, linf)
    st_.arrival((0.0, 0.0))
    with pytest.raises(InputError):
        st_.arrival((1.0,))


@given(xs=st.lists(st.integers(0, 200), min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_weight_conservation_and_size(xs):
    m = Metric(LINF)
    st_ = InsertionStream(1, 2, 1.0, 1, m)
    ref = ScalarInsertionStream(1, 2, 1.0, 1, m)
    for i, x in enumerate(xs):
        st_.arrival((float(x),))
        ref.arrival((float(x),))
        assert sum(p.weight for p in st_.pstar) == i + 1
        assert len(st_.pstar) < st_.threshold
        if st_.r > 0:
            limit = (st_.epsilon / 2.0) * st_.r
            reps = st_.pstar
            for a in range(len(reps)):
                for b in range(a + 1, len(reps)):
                    assert scalar_distance(m, reps[a].point, reps[b].point) > limit
    # every arrival stays within eps*r of its transitively merged representative;
    # the reference tracks the merges, and it chooses the representatives the
    # fast stream does (test_vectorised_scan_matches_scalar_oracle)
    for t, x in enumerate(xs):
        rep = ref.resolved_representative(t)
        assert scalar_distance(m, (float(x),), rep) <= ref.epsilon * ref.r + 1e-9


def test_r_below_optimum(linf):
    rng = np.random.default_rng(13)
    for _ in range(5):
        pts = random_points(rng, 30, 1, hi=50)
        st_ = InsertionStream(2, 2, 1.0, 1, linf)
        seen = []
        for wp in pts:
            st_.arrival(wp.point)
            seen.append(wp)
            if sum(p.weight for p in seen) > 2:
                opt = brute_force_opt(
                    Instance(tuple(seen), 2, 2, 1.0, linf), input_points_universe()
                ).radius
                assert st_.r <= opt + 1e-9


def test_adversarial_orders_keep_invariants(linf):
    rng = np.random.default_rng(29)
    base = [float(x) for x in rng.integers(0, 60, size=80)]
    orders = [sorted(base), sorted(base, reverse=True),
              list(rng.permutation(base))]
    for xs in orders:
        st_ = InsertionStream(1, 1, 1.0, 1, linf)
        for x in xs:
            st_.arrival((x,))
            assert len(st_.pstar) < st_.threshold
        assert sum(p.weight for p in st_.pstar) == len(xs)


def test_compression_fires_in_two_dims(l2):
    # threshold k*(16/eps)^2 = 256 for k=1: push past it to exercise doubling
    rng = np.random.default_rng(37)
    st_ = InsertionStream(1, 0, 1.0, 2, l2)
    for _ in range(300):
        st_.arrival(tuple(float(v) for v in rng.integers(0, 1000, size=2)))
    assert st_.r > 0
    assert len(st_.pstar) < st_.threshold
    assert sum(p.weight for p in st_.pstar) == 300


def test_non_finite_arrival_leaves_state_unchanged(linf):
    st_ = InsertionStream(1, 0, 1.0, 2, linf)
    st_.arrival((0.0, 0.0))
    st_.arrival((9.0, 1.0))

    def state():
        m = len(st_.pstar)
        return st_.arrivals, st_.r, list(st_.pstar), st_._coords[:m].tolist()

    before = state()
    for bad in ((float("nan"), 3.0), (1.0, float("inf")), (float("-inf"), 0.0)):
        with pytest.raises(InputError):
            st_.arrival(bad)
    assert state() == before


class ScalarInsertionStream(InsertionStream):
    """Reference arrival rule: a ``scalar_distance`` loop over ``pstar``.

    This is the scan ``InsertionStream.arrival`` replaced with one
    ``pairwise`` call over its coordinate buffer, and it recompresses with
    ``scalar_net``, the net loop over one full matrix, where the stream's
    ``_net`` computes its distances one row block at a time. It is kept as
    the differential oracle for both fast paths. It also keeps the
    representative-merge history, so that ``resolved_representative`` traces
    each arrival to its current representative.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self._rep_ids: list[int] = []     # id of each current representative
        self._next_id = 0
        self._parent: dict[int, int] = {}  # merged rep id -> surviving rep id
        self._arrival_rep: list[int] = []  # arrival t -> rep id at assignment time

    def arrival(self, point) -> None:
        point = tuple(float(c) for c in point)
        if self.pstar and len(point) != len(self.pstar[0].point):
            raise InputError("arrival dimension mismatch")
        self.arrivals += 1
        limit = (self.epsilon / 2.0) * self.r
        slack = REL_TOL * max(1.0, limit)
        for i, rep in enumerate(self.pstar):
            if scalar_distance(self.metric, point, rep.point) <= limit + slack:
                self.pstar[i] = WeightedPoint(rep.point, rep.weight + 1)
                self._arrival_rep.append(self._rep_ids[i])
                break
        else:
            self.pstar.append(WeightedPoint(point, 1))
            self._rep_ids.append(self._next_id)
            self._arrival_rep.append(self._next_id)
            self._next_id += 1

        if self.r == 0.0 and len(self.pstar) >= self.k + self.z + 1:
            self.r = min_pairwise_distance(self.pstar, self.metric) / 2.0

        while len(self.pstar) >= self.threshold:
            self.r *= 2.0
            delta = (self.epsilon / 2.0) * self.r
            reps, assignment = scalar_net(self.pstar, delta, self.metric)
            new_ids = [None] * len(reps)
            for old_idx, new_idx in enumerate(assignment):
                old_id = self._rep_ids[old_idx]
                if new_ids[new_idx] is None:
                    new_ids[new_idx] = old_id  # survivor keeps its id
                else:
                    self._parent[old_id] = new_ids[new_idx]
            self._rep_ids = new_ids
            self.pstar = reps

    def resolved_representative(self, t: int):
        """Location of the (transitively merged) representative of arrival t."""
        rid = self._arrival_rep[t]
        while rid in self._parent:
            rid = self._parent[rid]
        return self.pstar[self._rep_ids.index(rid)].point


def growing_stream(kind, rng, n, growth, dim=2, scale=1.0, locs=80):
    """A metric and an arrival stream over it whose spread grows ``growth``-fold
    along its n arrivals, so the radius estimate doubles: L2 or L-inf points
    of dimension ``dim`` on a scaled integer grid, or indices of an explicit
    matrix of L1 distances between ``locs`` integer points in the plane."""
    spread = 10 * np.geomspace(1, growth, n)
    if kind == EXPLICIT:
        pos = np.rint(rng.uniform(0, 1, size=(locs, 2)) * 40 * growth)
        mat = np.abs(pos[:, None, :] - pos[None, :, :]).sum(axis=2)
        order = np.argsort(pos.sum(axis=1), kind="stable")  # nearby indices first
        stop = np.maximum(1, (locs * spread / spread[-1]).astype(int))
        stream = [(float(order[rng.integers(s)]),) for s in stop]
        return Metric(EXPLICIT, matrix=mat.tolist()), stream
    grid = np.rint(rng.uniform(-1, 1, size=(n, dim)) * spread[:, None])
    return Metric(kind), [tuple(float(v) * scale for v in row) for row in grid]


@st.composite
def metric_and_stream(draw):
    """A ``growing_stream`` of a drawn metric kind, seed, length and growth:
    dimension 1-3 and a drawn scale for L2 and L-inf, a drawn location count
    for an explicit matrix."""
    kind = draw(st.sampled_from([L2, LINF, EXPLICIT]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([300, 60, 5]))
    growth = draw(st.sampled_from([64, 4, 1]))  # final spread / initial spread
    if kind == EXPLICIT:
        return growing_stream(kind, rng, n, growth, locs=draw(st.sampled_from([80, 20, 2])))
    return growing_stream(kind, rng, n, growth, dim=draw(st.integers(1, 3)),
                          scale=draw(st.sampled_from([1.0, 0.1, 1 / 3, 7.5])))


@given(case=metric_and_stream(), k=st.integers(1, 2), z=st.integers(0, 2),
       eps=st.sampled_from([0.5, 1.0]))
@settings(max_examples=120, deadline=None)
def test_vectorised_scan_matches_scalar_oracle(case, k, z, eps):
    # declared d=1 keeps the threshold small, so recompressions fire at every
    # point dimension. Equal representatives after every arrival mean both
    # streams absorbed each arrival into the same representative.
    metric, stream = case
    fast = InsertionStream(k, z, eps, 1, metric)
    slow = ScalarInsertionStream(k, z, eps, 1, metric)
    for p in stream:
        fast.arrival(p)
        slow.arrival(p)
        assert fast.r == slow.r
        assert [(q.point, q.weight) for q in fast.pstar] == \
               [(q.point, q.weight) for q in slow.pstar]
    assert fast.arrivals == slow.arrivals == len(stream)


@pytest.mark.parametrize("kind", [L2, LINF, EXPLICIT])
def test_point_set_rows_match_pairwise(kind):
    # threshold 33: the coordinates grow 16 -> 32 -> 33, and r doubles
    # repeatedly. After every arrival, the representatives' rows from a
    # _PointSet have pairwise's bits, read from a built matrix or computed.
    metric, stream = growing_stream(kind, np.random.default_rng(61), 400, 64)
    st_ = InsertionStream(2, 1, 1.0, 1, metric)
    doublings = 0
    for p in stream:
        r0 = st_.r
        st_.arrival(p)
        doublings += r0 > 0 and st_.r != r0
        m = len(st_.pstar)
        coords = coords_array(st_.pstar)
        assert np.array_equal(st_._coords[:m], coords)
        full = metric.pairwise(coords, coords).view(np.uint64)
        every, odd = np.arange(m), np.arange(m)[1::2]
        for built in (True, False):
            ps = _PointSet(st_.pstar, metric)
            if built:
                ps.dmat
            for i, j in ((slice(None), slice(None)), (odd, slice(m // 3, m)),
                         (slice(0, m, 2), odd[::-1]), (every[::-1], odd)):
                assert np.array_equal(ps.rows(i, j).view(np.uint64), full[i][:, j])
            assert ("dmat" in ps.__dict__) == built
    assert doublings >= 2
    assert len(st_._coords) == st_.threshold == 33


def test_recompression_reads_the_stream_coordinates_in_place(monkeypatch):
    # the set handed to _net reads _coords[:m] itself, not a copy, and holds
    # the representatives' coordinates; a representative whose net holds
    # only itself comes back as the same WeightedPoint
    seen = []

    def net(ps, delta, metric):
        assert np.shares_memory(ps.coords, st_._coords)
        assert np.array_equal(ps.coords, coords_array(ps.wps))
        reps, firsts, assignment = real_net(ps, delta, metric)
        assert np.array_equal(firsts, np.unique(assignment, return_index=True)[1])
        alone = np.bincount(assignment) == 1
        assert [rep is ps.wps[i] for rep, i in zip(reps, firsts)] == alone.tolist()
        seen.append((len(ps), alone.sum(), (~alone).sum()))
        return reps, firsts, assignment

    real_net = streaming._net
    monkeypatch.setattr(streaming, "_net", net)
    metric, stream = growing_stream(LINF, np.random.default_rng(5), 400, 64)
    st_ = InsertionStream(2, 1, 1.0, 1, metric)
    st_.extend(stream)
    assert len(seen) >= 2 and {n for n, _, _ in seen} == {st_.threshold}
    assert sum(a for _, a, _ in seen) and sum(m for _, _, m in seen)  # both kinds of net


def test_point_set_normalizes_its_input_once(monkeypatch, linf):
    calls = []

    def counted(points):
        calls.append(1)
        return real(points)

    real = metric_module.as_weighted
    monkeypatch.setattr(metric_module, "as_weighted", counted)
    monkeypatch.setattr(offline, "as_weighted", counted)
    pts = [(0.0, 1.0), WeightedPoint((2.0, 3.0), 4), (5.0, 5.0)]
    ps = _PointSet(pts, linf)
    assert ps.weights.tolist() == [1, 4, 1]
    assert ps.coords.tolist() == [[0.0, 1.0], [2.0, 3.0], [5.0, 5.0]]
    ps.rows(slice(None), np.asarray([2]))
    assert ps.dmat.shape == (3, 3) and len(ps.cands)
    assert len(calls) == 1


def test_distance_matrix_waits_for_the_first_doubling(l2):
    # threshold 65 536: 3000 spread-out arrivals keep 2717 representatives
    # and never double r; the stream holds no quadratic matrix (a 4096 x
    # 4096 one would take 134 MB)
    stream = [tuple(row) for row in np.random.default_rng(1).uniform(0, 1000, size=(3000, 3))]
    st_ = InsertionStream(2, 0, 0.5, 3, l2)
    tracemalloc.start()
    try:
        st_.extend(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert st_.threshold == 65536
    assert len(st_.pstar) == 2717
    assert peak < 4 << 20


def test_stream_space_stays_linear_in_its_threshold(linf):
    # the paper's space bound: threshold 8 * (16 / 0.5)^2 = 8192. 9000
    # shuffled points of a 100 x 100 lattice with spacing 10 double r once
    # and keep 1852 representatives; a threshold^2 matrix alone would take
    # 537 MB, the coordinates 131 KB
    g = 10.0 * np.arange(100)
    lattice = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    stream = [tuple(row) for row in np.random.default_rng(3).permutation(lattice)[:9000].tolist()]
    st_ = InsertionStream(8, 0, 0.5, 2, linf)
    doublings = 0
    tracemalloc.start()
    try:
        for p in stream:
            r0 = st_.r
            st_.arrival(p)
            doublings += r0 > 0 and st_.r != r0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert st_.threshold == 8192 and doublings == 1
    assert len(st_.pstar) == 1852
    assert sum(p.weight for p in st_.pstar) == 9000
    assert peak < 8 << 20


def _weighted_stream(rng, d):
    """A random stream of weighted lines: mostly weight 1, some up to 40, and
    repeats of earlier points. Its first two points lie 1 apart, so r starts
    small and doubles; in two dimensions the stream is long enough to pass
    the threshold of 256, with fewer heavy lines."""
    n = int(rng.integers(10, 80)) if d == 1 else int(rng.integers(250, 350))
    heavy, repeat = (0.15, 0.3) if d == 1 else (0.05, 0.1)
    pts = [tuple(float(v) for v in rng.integers(0, 1000, size=d)) for _ in range(n)]
    pts[1] = (pts[0][0] + 1.0,) + pts[0][1:]
    lines = []
    for i in range(n):
        p = pts[int(rng.integers(0, i + 1))] if rng.random() < repeat else pts[i]
        w = int(rng.integers(2, 41)) if rng.random() < heavy else 1
        lines.append(WeightedPoint(p, w))
    return lines


def test_weighted_arrival_matches_repeated_arrivals():
    # a line of weight w in one scan against w single arrivals: reports, r and
    # the arrival count agree after every line, over streams whose radius
    # doubles, several times in one arrival too
    rng = np.random.default_rng(61)
    doubled = heavy_doubled = 0
    for trial in range(300):
        d = 2 if trial % 15 == 0 else 1
        lines = _weighted_stream(rng, d)
        metric = Metric(L2 if trial % 2 else LINF)
        k, z = 1 + trial % 2 * (d == 1), trial % 3
        fast, ref = (InsertionStream(k, z, 1.0, d, metric) for _ in range(2))
        for wp in lines:
            r = fast.r
            fast.arrival(wp.point, wp.weight)
            for _ in range(wp.weight):
                ref.arrival(wp.point)
            assert fast.r == ref.r and fast.arrivals == ref.arrivals
            assert fast.report() == ref.report()
            doubled += 0 < r < fast.r
            heavy_doubled += 0 < r < fast.r and wp.weight > 1
    # lines whose first arrival doubled r, and so joined a net representative
    assert doubled >= 500 and heavy_doubled >= 80


def test_a_heavy_arrival_reaches_the_recompression_it_triggers(linf):
    # the 16th representative fills the set; its weight is in the net, so a
    # total past int64 is refused there and not at a later recompression
    st_ = InsertionStream(1, 0, 1.0, 1, linf)
    st_.extend([(float(x),) for x in range(15)])
    with pytest.raises(InputError, match="int64"):
        st_.arrival((100.0,), 2**63 - 15)


@pytest.mark.parametrize("kind", [LINF, L2])
def test_arrivals_without_coordinates_join_as_offline_does(kind):
    # every distance between points of no coordinates is 0, in the stream's
    # scan as in pairwise: each arrival after the first joins it, and the
    # report is the offline covering's one representative
    metric = Metric(kind)
    weights = [1, 3, 1, 2] + [1] * 30
    for k, z in ((1, 0), (1, 2), (2, 1)):
        st_ = InsertionStream(k, z, 0.5, 1, metric)
        for wt in weights:
            st_.arrival((), wt)
        covering = offline.mbc_construction(
            Instance(tuple(WeightedPoint((), wt) for wt in weights), k, z, 0.5, metric))
        assert st_.report() == list(covering.representatives) == [WeightedPoint((), 37)]
        assert (st_.r, st_.arrivals) == (0.0, 37)


def test_a_refused_arrival_changes_no_state(linf):
    # 15 unit arrivals, then one that would fill the set with a total weight
    # past int64: it is refused before the count, the set, r, the
    # coordinates or the cells move, and the stream goes on as one that
    # never saw it
    def state(st_):
        m = len(st_.pstar)
        return (st_.arrivals, list(st_.pstar), st_.r, st_._coords[:m].tolist(),
                None if st_._cells is None else set(st_._cells))

    points = [(float(x),) for x in range(15)]
    st_, ref = InsertionStream(1, 0, 1.0, 1, linf), InsertionStream(1, 0, 1.0, 1, linf)
    st_.extend(points)
    ref.extend(points)
    before = state(st_)
    assert before[0] == 15 and before[2] == 0.5 and len(before[1]) == 15 and before[4]
    with pytest.raises(InputError, match="int64"):
        st_.arrival((100.0,), 2**63 - 15)
    assert state(st_) == before
    st_.arrival((100.0,), 2**63 - 16)  # the largest total that fits
    ref.arrival((100.0,), 2**63 - 16)
    assert state(st_) == state(ref) and st_.r == 2.0 and st_.arrivals == 2**63 - 1


class UnfilteredStream(InsertionStream):
    """The stream with its cell filter off: every arrival is scanned."""

    def _index(self):
        self._cells = None


def _filtered_matches_scan(metric, stream, k, d):
    """Feed ``stream`` to a filtered and an unfiltered stream. Before each
    arrival the filter skips, ``_first_within`` must find no representative
    within the bound; after each arrival both streams must hold the same r
    and representatives. Returns (skipped arrivals, scanned arrivals that
    joined a representative in another cell at exactly the bound)."""
    fast, plain = InsertionStream(k, 0, 1.0, d, metric), UnfilteredStream(k, 0, 1.0, d, metric)
    skipped = across = 0
    for p in stream:
        key = None if fast._cells is None else _cell_key(p, fast._width)
        bound = fast._bound()
        i = fast._first_within(p, bound)
        if key is not None and fast._isolated(key):
            assert i is None, (p, bound)
            skipped += 1
        elif i is not None and key is not None:
            q = fast.pstar[i].point
            across += _cell_key(q, fast._width) != key and metric.distance(p, q) == bound
        fast.arrival(p)
        plain.arrival(p)
        assert fast.r == plain.r and fast.report() == plain.report()
    return skipped, across


@pytest.mark.parametrize("kind", [L2, LINF])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cell_filter_matches_the_scan_on_every_arrival(kind, dim):
    # declared d != D: 2 for 1-D points, 1 otherwise. The first k + 1
    # arrivals lie far out on axis 0 and fix r. Then come -tiny and b (or
    # tiny and -b) on axis 0: pairwise puts them b apart, so b joins -tiny,
    # across the cell edge at 0; they are b + tiny apart exactly, so cells
    # as wide as b, or one ulp narrower, would put them two cells apart.
    # The rest are a shuffled lattice of spacing b around the origin, with
    # the neighbouring floats of each lattice value: negative coordinates,
    # and more points exactly b apart across cell edges.
    metric, k, d = Metric(kind), 40, 2 if dim == 1 else 1
    rng = np.random.default_rng(7 + dim)
    seeds = [(1000.0 + 6.6 * i,) + (0.0,) * (dim - 1) for i in range(k + 1)]
    probe = InsertionStream(k, 0, 1.0, d, metric)
    probe.extend(seeds)
    b = probe._bound()
    values = sorted({float(np.nextafter(j * b, s)) for j in range(-3, 4)
                     for s in (-np.inf, 0.0, np.inf)} | {j * b for j in range(-3, 4)})
    grid = np.stack(np.meshgrid(*[values] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    total_skipped = total_across = 0
    for sign in (1.0, -1.0, 1.0, -1.0):
        pair = [(-sign * 5e-324,) + (0.0,) * (dim - 1), (sign * b,) + (0.0,) * (dim - 1)]
        lattice = rng.permutation(grid)[:700]
        stream = seeds + pair + [tuple(row) for row in lattice.tolist()]
        skipped, across = _filtered_matches_scan(metric, stream, k, d)
        total_skipped += skipped
        total_across += across
    assert total_skipped >= 10 and total_across >= 5


@pytest.mark.parametrize("kind", [L2, LINF])
def test_cell_filter_matches_the_scan_on_growing_streams(kind):
    # r doubles many times, so the cells are rebuilt at every width
    for dim in (1, 2, 3):
        for seed in range(3):
            metric, stream = growing_stream(kind, np.random.default_rng(seed), 600, 64, dim=dim,
                                            scale=(1.0, 1 / 3, -7.5)[seed])
            skipped, _ = _filtered_matches_scan(metric, stream, 2, 1)
            assert skipped > 0


@pytest.mark.parametrize("kind", [L2, LINF])
def test_cell_filter_stays_on_where_arrivals_join(kind):
    # three tight clusters: once r settles nearly every arrival joins a
    # representative and the filter skips almost no scan; it stays on from
    # the first r to the end, and the output stays the scan's
    rng = np.random.default_rng(5)
    centers = rng.uniform(-100, 100, size=(3, 2))
    points = centers[rng.integers(0, 3, 1500)] + rng.normal(0, 1, size=(1500, 2))
    metric = Metric(kind)
    fast, plain = InsertionStream(3, 0, 1.0, 1, metric), UnfilteredStream(3, 0, 1.0, 1, metric)
    radii = set()
    for p in map(tuple, points.tolist()):
        fast.arrival(p)
        plain.arrival(p)
        assert fast.r == plain.r and fast.report() == plain.report()
        assert (fast._cells is None) == (fast.r == 0.0)
        radii.add(fast.r)
    assert len(radii) >= 4  # the cells were rebuilt at three r or more


@pytest.mark.parametrize("kind", [L2, LINF])
def test_cell_filter_falls_back_to_the_scan_past_its_guard(kind):
    metric = Metric(kind)
    seeds = [(float(x), 0.0) for x in range(0, 6, 2)]  # k + 1 = 3 arrivals fix r = 1
    probe = InsertionStream(2, 0, 1.0, 1, metric)
    probe.extend(seeds)
    b, width = probe._bound(), probe._width
    edge = offline._CELL_GUARD * width
    inside, outside = edge - b / 2, edge + b / 4  # 0.75 b apart, across the guard
    stream = seeds + [
        (inside, 1.0), (outside, 1.0),     # scanned past the guard, joins its neighbour
        (-outside, -1.0), (-inside, -1.0),  # appended past the guard: the filter turns off
        (0.25, 0.25), (4.0 * edge, 3.0),   # scanned while the filter is off
    ]
    fast, plain = InsertionStream(2, 0, 1.0, 1, metric), UnfilteredStream(2, 0, 1.0, 1, metric)
    filters = []
    for p in stream:
        fast.arrival(p)
        plain.arrival(p)
        assert fast.r == plain.r and fast.report() == plain.report()
        filters.append(fast._cells is not None)
    assert _cell_key((outside, 1.0), fast._width) is None
    assert filters == [False, False] + [True] * 3 + [False] * 4
    assert [wp.weight for wp in fast.pstar] == [2, 1, 1, 2, 2, 1]
    # a representative past the guard when r is first set: 0, 2^40 and 1 set
    # r = 0.5, and the rebuild leaves the filter off until r next changes
    fast, plain = InsertionStream(2, 0, 1.0, 1, metric), UnfilteredStream(2, 0, 1.0, 1, metric)
    for p in [(0.0,), (2.0**40,), (1.0,), (0.25,), (3.0,), (2.0**40 + 0.25,)]:
        fast.arrival(p)
        plain.arrival(p)
        assert fast.r == plain.r and fast.report() == plain.report()
    assert fast.r == 0.5 and fast._cells is None
    assert [wp.weight for wp in fast.pstar] == [2, 2, 1, 1]
    # the filter stays off for explicit metrics and above three coordinates
    explicit, stream = growing_stream(EXPLICIT, np.random.default_rng(1), 100, 4)
    for metric, points in ((explicit, stream),
                           (Metric(kind), [(float(i), 0.0, 0.0, 0.0) for i in range(5)])):
        st_ = InsertionStream(1, 0, 1.0, 1, metric)
        st_.extend(points)
        assert st_.r > 0 and st_._cells is None


def test_cell_filter_skips_most_benchmark_arrivals(tmp_path, monkeypatch):
    # the seed-1 insertion-stream input: every one of the 3000 arrivals was
    # scanned before the filter (3049 pairwise calls with the nets); 867
    # reach the scan with it, and they are the 867 pairwise calls in all,
    # since the grid nets compute through Metric.paired
    spec = _load_gen().generate("insertion-stream", 1, str(tmp_path))
    p = spec["params"]
    points = [wp.point for wp in read_points(str(tmp_path / "points.txt"))]
    calls = {"scan": 0, "pairwise": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(InsertionStream, "_first_within",
                        counted("scan", InsertionStream._first_within))
    monkeypatch.setattr(Metric, "pairwise", counted("pairwise", Metric.pairwise))
    st_ = InsertionStream(p["k"], p["z"], p["eps"], p["d"], Metric(LINF))
    st_.extend(points)
    assert len(points) == 3000 and len(st_.pstar) == 503
    assert calls["scan"] < len(points) / 3 and calls["pairwise"] < 1500


def _scan_stream(rng, dim, big, n=240):
    """n weighted arrivals of ``dim`` coordinates. Below B = quiet_bound(dim)
    they take B's largest float below it, its half and uniform draws, each
    of either sign, so the rows hold the largest differences and sums below
    B. With ``big``, from the 60th arrival on, a fifth of the coordinates
    are at or past B, so some differences, squares or sums overflow: half
    with a uniform exponent up to the largest float's, half within a factor
    2 of the largest float."""
    b = quiet_bound(dim)
    edge = float(np.nextafter(b, 0.0))
    stream = []
    for t in range(n):
        coords = []
        for _ in range(dim):
            pick = rng.random()
            if big and t >= 60 and pick < 0.1:
                v = b * 2.0 ** float(rng.uniform(0, 1023 - math.log2(b)))
            elif big and t >= 60 and pick < 0.2:
                v = float(rng.uniform(0.5, 1.0)) * float(np.finfo(float).max)
            elif pick < 0.5:
                v = edge
            elif pick < 0.6:
                v = b / 2
            else:
                v = float(rng.uniform(0, 1)) * edge
            coords.append(v if rng.random() < 0.5 else -v)
        stream.append((tuple(coords), int(rng.integers(1, 4))))
    return stream


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [L2, LINF])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_scan_rows_match_pairwise_and_the_scalar_formula(kind, dim, monkeypatch):
    # before each arrival, the scan's row (in the stream's own buffer) has
    # the bits of pairwise and of scalar_distance against every held
    # representative, and _first_within names the first entry within the
    # bound. Below B every scan runs without np.errstate and nothing warns;
    # past B the stream enters it from its first big coordinate on
    modes = []

    def row(self, point, b, out, diff, quiet):
        modes.append(quiet)
        return real(self, point, b, out, diff, quiet)

    real = Metric.row
    monkeypatch.setattr(Metric, "row", row)
    metric = Metric(kind)
    rng = np.random.default_rng(83 + dim)
    for big in (False, True):
        st_ = InsertionStream(2, 1, 1.0, 1, metric)
        modes.clear()
        loud_from, overflows = None, 0
        for p, w in _scan_stream(rng, dim, big):
            m, bound, scans = len(st_.pstar), st_._bound(), len(modes)
            i = st_._first_within(p, bound)
            if m:
                row = st_._row[:m]
                want = metric.pairwise(np.asarray([p]), st_._coords[:m])[0]
                assert row.tobytes() == want.tobytes()
                scalar = np.array([scalar_distance(metric, p, q.point) for q in st_.pstar])
                assert row.tobytes() == scalar.tobytes()
                within = np.flatnonzero(row <= bound)
                assert i == (int(within[0]) if len(within) else None)
                overflows += math.inf in row
            if loud_from is None and max(map(abs, p)) >= quiet_bound(dim):
                loud_from = scans  # this scan and every later one
            st_.arrival(p, w)
        assert len(modes) > 100
        if big:
            assert 0 < loud_from < len(modes)
            assert modes == [True] * loud_from + [False] * (len(modes) - loud_from)
            assert st_._loud and overflows > 10
        else:
            assert all(modes) and not st_._loud and not overflows
        assert st_.r > 0 and st_.arrivals > len(st_.pstar)


_POINT_REFUSALS = [
    ((1.0, 2.0), 0), ((1.0, 2.0), True), ((1.0, 2.0), 1.5), ((1.0, 2.0), np.int64(2)),
    ((math.nan, 2.0), 1), ((1.0, math.inf), 1), (("x", 2.0), 1), ((1.0, None), 1),
    (("x", 2.0), 0), ((math.nan, 2.0), True), (5.0, 1),
]


@pytest.mark.parametrize("point, weight", _POINT_REFUSALS)
def test_an_arrival_is_refused_as_weighted_point_refuses_it(point, weight, linf):
    # the arrival's fast path refuses what WeightedPoint refuses, with its
    # text (a bad weight named before a bad coordinate), and changes no state
    with pytest.raises(InputError) as want:
        WeightedPoint(point, weight)
    st_ = InsertionStream(1, 0, 1.0, 2, linf)
    st_.extend([(0.0, 0.0), (9.0, 1.0)])

    def state():
        m = len(st_.pstar)
        return st_.arrivals, st_.r, list(st_.pstar), st_._coords[:m].tolist(), st_._loud

    before = state()
    with pytest.raises(InputError) as got:
        st_.arrival(point, weight)
    assert str(got.value) == str(want.value)
    assert state() == before


def test_an_arrival_reads_its_coordinates_once(linf):
    # a one-shot iterator with a bad second coordinate is refused, not read
    # again as an empty point
    st_ = InsertionStream(1, 0, 1.0, 2, linf)
    with pytest.raises(InputError, match="coordinates must be numbers"):
        st_.arrival(iter([1.0, "x"]))
    assert st_.pstar == [] and st_.arrivals == 0


def test_an_arrival_builds_the_point_weighted_point_builds(linf):
    # ints, numpy floats, numeric strings and an int subclass of weight are
    # taken as WeightedPoint takes them
    class Count(int):
        pass

    for point, weight in (((1, 2), 1), (np.array([1.5, -2.0]), 3), (("3", " 4 "), 2),
                          ((np.float32(0.1), 7), Count(2)), ([5e-324, -0.0], 1)):
        st_ = InsertionStream(1, 0, 1.0, 2, linf)
        st_.arrival(point, weight)
        want = WeightedPoint(point, weight)
        assert st_.pstar == [want] and st_.arrivals == weight
        assert [type(c) for c in st_.pstar[0].point] == [float, float]
        assert st_._coords[0].tolist() == list(want.point)
