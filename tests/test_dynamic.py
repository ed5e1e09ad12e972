import copy
import hashlib
import random
import re
import tracemalloc

import numpy as np
import pytest

from kcoreset import (
    DynamicCoresetState, DynReport, GridConfig, InputError, Instance, L2, Metric,
    SketchFailureError, SparseRecoverySketch, WeightedPoint, brute_force_opt,
    check_coreset, explicit_universe, gen_dynamic_lb, input_points_universe,
)

W = WeightedPoint


def test_grid_levels_and_rounding():
    g = GridConfig(16, 1)
    assert g.delta == 16 and g.levels == 5
    assert GridConfig(9, 2).delta == 16  # rounded up to a power of two
    assert g.cells_per_axis(0) == 16 and g.cells_per_axis(4) == 1


def test_cell_of_examples():
    g = GridConfig(16, 1)
    assert g.cell_of((1,), 0) == (0,)
    assert g.cell_of((16,), 4) == (0,)
    g2 = GridConfig(16, 2)
    assert g2.cell_of((9, 2), 2) == (2, 0)
    with pytest.raises(InputError):
        g.cell_of((0,), 0)
    with pytest.raises(InputError):
        g.cell_of((17,), 0)
    with pytest.raises(InputError):
        g.cell_of((2.5,), 0)


def _center(grid, index, level):
    return grid.cell_centers([_ref_cell_id(grid, index, level)], level)[0]


def test_cell_id_roundtrip_and_center():
    g = GridConfig(16, 2)
    for level in range(g.levels):
        per_axis = g.cells_per_axis(level)
        for idx in [(0, 0), (per_axis - 1, 0), (per_axis - 1, per_axis - 1)]:
            assert _ref_cell_index(g, _ref_cell_id(g, idx, level), level) == idx
    assert _center(g, (0, 0), 0) == (1.0, 1.0)
    assert _center(g, (1, 0), 2) == (6.5, 2.5)
    assert _center(g, (3, 3), 2) == (14.5, 14.5)
    g1 = GridConfig(16, 1)
    assert _center(g1, (0,), 0) == (1.0,)
    assert _center(g1, (2,), 0) == (3.0,)
    assert _center(g1, (0,), 4) == (8.5,)


def test_whole_level_helpers_match_the_per_cell_ones():
    rng = np.random.default_rng(13)
    for delta, d in [(9, 1), (37, 2), (100, 3), (1024, 2)]:
        g = GridConfig(delta, d)
        counts = {}  # signed counts per point, so that some cells sum to zero
        for _ in range(20):
            point = tuple(int(v) for v in rng.integers(1, g.delta + 1, size=d))
            counts[point] = counts.get(point, 0) + int(rng.choice([-1, 1, 2]))
            base = g.cell_of(point, 0)
            ids = g.level_ids(base)
            assert ids == [_ref_cell_id(g, g.cell_of(point, lv), lv) for lv in range(g.levels)]
            for lv, ident in enumerate(ids):
                cell = g.cell_of(point, lv)
                assert _ref_cell_index(g, ident, lv) == cell
                side = 1 << lv
                assert g.cell_centers([ident], lv) == [tuple(v * side + (side + 1) / 2.0
                                                             for v in cell)]
        # coarsen sums a level's vector into the cells of the next one
        vector = None
        for lv in range(g.levels):
            expect = {}
            for point, c in counts.items():
                ident = _ref_cell_id(g, g.cell_of(point, lv), lv)
                expect[ident] = expect.get(ident, 0) + c
            expect = {i: c for i, c in expect.items() if c}
            vector = expect if lv == 0 else g.coarsen(vector, lv - 1)
            assert vector == expect
        # row-major ids sort as their index tuples, and so as their centers, do
        level1 = [int(i) for i in rng.integers(0, g.cell_count(1), size=30)]
        assert [_ref_cell_index(g, i, 1) for i in sorted(level1)] == \
            sorted(_ref_cell_index(g, i, 1) for i in level1)
        assert g.cell_centers(sorted(level1), 1) == sorted(g.cell_centers(level1, 1))


def test_report_exact_examples():
    st = DynamicCoresetState(16, 1, 1, 0, 1.0, with_shadow=True)
    assert st.s == 4
    st.update((1,), 1)
    st.update((2,), 1)
    rep = st.report(exact=True)
    assert rep.level == 0
    assert [(p.point, p.weight) for p in rep.points] == [((1.0,), 1), ((2.0,), 1)]
    # single point reports its level-0 cell center with weight 1
    solo = DynamicCoresetState(16, 2, 1, 0, 1.0, with_shadow=True, with_sketches=False)
    solo.update((9, 2), 1)
    r = solo.report(exact=True)
    assert [(p.point, p.weight) for p in r.points] == [((9.0, 2.0), 1)]
    # co-cellular points aggregate into one representative at a coarse level
    agg = DynamicCoresetState(16, 1, 1, 0, 1.0, with_shadow=True, with_sketches=False)
    for _ in range(3):
        agg.update((5,), 1)
    rep = agg.report(exact=True)
    assert rep.points[0].weight == 3


def test_insert_delete_returns_to_fresh_state():
    a = DynamicCoresetState(16, 1, 1, 0, 1.0, seed=4)
    b = DynamicCoresetState(16, 1, 1, 0, 1.0, seed=4)
    a.update((7,), 1)
    a.update((7,), -1)
    assert a.digest() == b.digest()


def test_shadow_replay_matches_recomputation():
    rng = np.random.default_rng(19)
    st = DynamicCoresetState(64, 2, 1, 0, 1.0, with_shadow=True, with_sketches=False)
    live = {}
    for _ in range(1000):
        p = tuple(int(v) for v in rng.integers(1, 65, size=2))
        if live.get(p, 0) > 0 and rng.random() < 0.4:
            st.update(p, -1)
            live[p] -= 1
        else:
            st.update(p, 1)
            live[p] = live.get(p, 0) + 1
    grid = st.grid
    for level in range(grid.levels):
        expect = {}
        for p, c in live.items():
            if c:
                cell = _ref_cell_id(grid, grid.cell_of(p, level), level)
                expect[cell] = expect.get(cell, 0) + c
        assert st.shadow[level] == expect


def test_strict_turnstile_enforced_in_shadow_mode():
    st = DynamicCoresetState(16, 1, 1, 0, 1.0, with_shadow=True, with_sketches=False)
    with pytest.raises(InputError):
        st.update((3,), -1)


@pytest.mark.parametrize("stream", [
    [(1, (3,)), (1, (4,)), (-1, (7,))],
    [(1, (1,)), (1, (2,)), (-1, (5,))],
    [(1, (5,)), (1, (6,)), (-1, (8,))],
])
def test_sketch_mode_refuses_deletion_of_absent_point(stream):
    st = DynamicCoresetState(8, 1, 1, 0, 1.0, seed=0)
    st.apply(stream)
    with pytest.raises(InputError, match="strict-turnstile"):
        st.report()


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_valid_turnstile_streams_keep_digest_and_report():
    # values recorded before sketch decoding learned to refuse negative counts;
    # the digests are those of the sparse-recovery sketches alone
    lb = gen_dynamic_lb(2, 1, 0.125, 1, 256, scenario=(0, 1, 0))
    st = DynamicCoresetState(lb.delta, lb.d, 2, 1, 0.125, seed=0)
    st.apply(lb.ops)
    assert _sha(st.digest()) == "b364bda2c897f43de3c9cbbfd40df19871c72b26a47e8398786207b29a51460c"
    rep = st.report()
    assert (rep.level, rep.from_exact) == (0, False)
    assert [(p.point, p.weight) for p in rep.points] == \
           [((1.0,), 1), ((47.0,), 2), ((53.0,), 1), ((59.0,), 2)]

    rng = np.random.default_rng(23)
    st = DynamicCoresetState(64, 2, 2, 2, 1.0, seed=5)
    live = []
    for _ in range(120):
        if live and rng.random() < 0.35:
            st.update(live.pop(int(rng.integers(len(live)))), -1)
        else:
            live.append(tuple(int(v) for v in rng.integers(1, 65, size=2)))
            st.update(live[-1], 1)
    assert _sha(st.digest()) == "ab3bae9c74030f5b32f052715111801d65d1cd6f73542445f767b7a0a04ed1d6"
    rep = st.report()
    assert (rep.level, rep.from_exact, len(rep.points)) == (0, False, 36)
    assert _sha([(p.point, p.weight) for p in rep.points]) == \
        "6b70dcf8b08e8e2f90c7529b03b28260e921459ff8853e3c64e1a30eb887507a"


def test_report_points_equal_validated_points():
    # the streams of test_valid_turnstile_streams_keep_digest_and_report,
    # with the shadow kept: report points are built without __post_init__,
    # and each equals, bit for bit, the point the checking constructor builds
    lb = gen_dynamic_lb(2, 1, 0.125, 1, 256, scenario=(0, 1, 0))
    first = DynamicCoresetState(lb.delta, lb.d, 2, 1, 0.125, seed=0, with_shadow=True)
    first.apply(lb.ops)
    rng = np.random.default_rng(23)
    second = DynamicCoresetState(64, 2, 2, 2, 1.0, seed=5, with_shadow=True)
    live = []
    for _ in range(120):
        if live and rng.random() < 0.35:
            second.update(live.pop(int(rng.integers(len(live)))), -1)
        else:
            live.append(tuple(int(v) for v in rng.integers(1, 65, size=2)))
            second.update(live[-1], 1)
    for st in (first, second):
        for exact in (False, True):
            points = st.report(exact=exact).points
            assert points
            for p in points:
                checked = W(p.point, p.weight)
                assert all(type(c) is float for c in p.point)
                assert [c.hex() for c in p.point] == [c.hex() for c in checked.point]
                assert type(p.weight) is int and p.weight == checked.weight


def test_sketch_agrees_with_shadow():
    rng = np.random.default_rng(23)
    st = DynamicCoresetState(64, 2, 2, 2, 1.0, with_shadow=True, seed=5)
    for _ in range(60):
        st.update(tuple(int(v) for v in rng.integers(1, 65, size=2)), 1)
    for level in range(st.grid.levels):
        got = st.level_sketch(level).query()  # loaded as a report loads it
        if got is not None:
            assert got == st.shadow[level]
    exact = st.report(exact=True)
    sk = st.report(exact=False)
    assert sk.level == exact.level
    assert [(p.point, p.weight) for p in sk.points] == \
           [(p.point, p.weight) for p in exact.points]


def test_sketch_report_has_at_most_s_cells():
    # level 0 has 5 cells, which sparse recovery with 2s buckets decodes
    st = DynamicCoresetState(64, 1, 1, 0, 1.0, seed=0, with_shadow=True)
    assert st.s == 4
    for p in np.random.default_rng(0).choice(np.arange(1, 65), size=5, replace=False):
        st.update((int(p),), 1)
    sk = st.report()
    exact = st.report(exact=True)
    assert len(sk.points) <= st.s
    assert sk.level == exact.level
    assert [(p.point, p.weight) for p in sk.points] == \
           [(p.point, p.weight) for p in exact.points]


def _log_decodes(monkeypatch, st):
    """Make each level's sketch log its level on ``query``; returns the log."""
    decoded = []
    for lv, sk in enumerate(st.sr):
        monkeypatch.setattr(sk, "query", lambda lv=lv, q=sk.query: decoded.append(lv) or q())
    return decoded


def test_sketch_report_decodes_no_level_known_to_exceed_s(monkeypatch):
    # 32 odd points: levels 0-3 hold 32, 32, 16 and 8 cells, level 4 holds s = 4
    st = DynamicCoresetState(64, 1, 1, 0, 1.0, seed=3, with_shadow=True)
    for p in range(1, 65, 2):
        st.update((p,), 1)
    decoded = _log_decodes(monkeypatch, st)
    sk = st.report()
    exact = st.report(exact=True)
    assert decoded == [exact.level] == [4]
    assert [(p.point, p.weight) for p in sk.points] == \
           [(p.point, p.weight) for p in exact.points]


def test_dense_levels_overflow_skip_and_peel(monkeypatch):
    # s = 4, so 2s = 8 buckets. All 256 points overflow levels 0-5 into their
    # tables; deleting all but 1..16 leaves 16, 8 and 4 cells on levels 0-2.
    # Level 0 holds more than 2s cells and is skipped undecoded, and level 2,
    # which still has tables, is peeled and reported.
    st = DynamicCoresetState(256, 1, 1, 0, 1.0, seed=9, with_shadow=True)
    assert st.s == 4
    order = [int(p) for p in np.random.default_rng(47).permutation(np.arange(1, 257))]
    for p in order:
        st.update((p,), 1)
    for p in order:
        if p > 16:
            st.update((p,), -1)
    assert [sk._count is not None for sk in st.sr[:7]] == [True] * 6 + [False]
    decoded = _log_decodes(monkeypatch, st)
    sk = st.report()
    exact = st.report(exact=True)
    assert (sk.level, exact.level) == (2, 2)
    assert 0 not in decoded and decoded[-1] == 2
    assert st.sr[2]._count is None  # the decode put level 2 back on its buffer
    assert [(p.point, p.weight) for p in sk.points] == \
           [(p.point, p.weight) for p in exact.points]


def test_top_level_stays_sparse_and_ends_every_report(monkeypatch):
    # The top level has one cell, so its buffer holds at most one id and
    # never reaches 2s: it builds no tables, and a read of it cannot fail.
    # With a live point it holds 1 <= s cells, so a report returns there at
    # the latest, even when every finer level fails. So no valid stream
    # makes the CLI exit 5 (SketchFailureError).
    st = DynamicCoresetState(64, 2, 1, 0, 1.0, seed=5)
    top = st.grid.top_level
    assert st.grid.cell_count(top) == 1 and st.s == 32
    rng = np.random.default_rng(53)
    live = []
    for step in range(300):
        if live and rng.random() < 0.3:
            st.update(live.pop(int(rng.integers(len(live)))), -1)
        else:
            live.append(tuple(int(v) for v in rng.integers(1, 65, size=2)))
            st.update(live[-1], 1)
        assert st.sr[top]._count is None and len(st.sr[top]._pending) <= 1
        if step % 50 == 49:
            with monkeypatch.context() as mp:
                for sk in st.sr[:top]:
                    mp.setattr(sk, "query", lambda: None)
                rep = st.report()
            assert rep.level == top and [p.weight for p in rep.points] == [len(live)]
            assert st.sr[top]._count is None
    assert st.sr[0]._count is not None  # the finer levels did build tables


def test_permutation_of_updates_is_invisible():
    rng = np.random.default_rng(29)
    pts = [tuple(int(v) for v in rng.integers(1, 17, size=1)) for _ in range(40)]
    a = DynamicCoresetState(16, 1, 1, 0, 1.0, seed=8)
    b = DynamicCoresetState(16, 1, 1, 0, 1.0, seed=8)
    for p in pts:
        a.update(p, 1)
    for p in reversed(pts):
        b.update(p, 1)
    assert a.digest() == b.digest()


def test_shard_then_merge_equals_sequential():
    rng = np.random.default_rng(41)
    pts = [tuple(int(v) for v in rng.integers(1, 17, size=1)) for _ in range(30)]
    whole = DynamicCoresetState(16, 1, 1, 0, 1.0, seed=6, with_shadow=True)
    shard_a = DynamicCoresetState(16, 1, 1, 0, 1.0, seed=6, with_shadow=True)
    shard_b = DynamicCoresetState(16, 1, 1, 0, 1.0, seed=6, with_shadow=True)
    for i, p in enumerate(pts):
        whole.update(p, 1)
        (shard_a if i % 2 else shard_b).update(p, 1)
    shard_a.merge(shard_b)
    assert shard_a.digest() == whole.digest()
    assert shard_a.shadow == whole.shadow
    assert shard_a.live_count == whole.live_count
    with pytest.raises(InputError):
        shard_a.merge(DynamicCoresetState(16, 1, 1, 0, 1.0, seed=7, with_shadow=True))


def test_merge_of_shards_that_delete_equals_sequential():
    # each shard deletes some of its own points, down to zero counts; a shard
    # cannot delete a point that only the other one holds, so every shadow
    # count stays positive and the merged shadow is the sequential one
    rng = np.random.default_rng(53)
    pts = [tuple(int(v) for v in rng.integers(1, 17, size=2)) for _ in range(40)]
    whole, shard_a, shard_b = (DynamicCoresetState(16, 2, 1, 0, 1.0, seed=4, with_shadow=True)
                               for _ in range(3))
    for i, p in enumerate(pts):
        for st in (whole, (shard_a, shard_b)[i % 2]):
            st.update(p, 1)
    for i, p in enumerate(pts):
        if i % 3 == 0:
            for st in (whole, (shard_a, shard_b)[i % 2]):
                st.update(p, -1)
    with pytest.raises(InputError, match="absent"):
        shard_a.update(pts[1], -1)  # held by shard_b only
    shard_a.merge(shard_b)
    assert shard_a.shadow == whole.shadow
    assert all(c > 0 for level in shard_a.shadow for c in level.values())
    assert shard_a.digest() == whole.digest()
    assert (shard_a.live_count, shard_a.ops) == (whole.live_count, whole.ops)
    assert _cells(shard_a.report(exact=True)) == _cells(whole.report(exact=True))


@pytest.mark.parametrize("mode", [dict(with_sketches=True, with_shadow=False),
                                  dict(with_sketches=False, with_shadow=True)],
                         ids=["sketches", "shadow"])
def test_delta_fail_outside_the_unit_interval_is_refused(mode):
    for delta_fail in (0.0, 1.0, 2.0, -3.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match="delta_fail"):
            DynamicCoresetState(16, 1, 1, 0, 1.0, delta_fail=delta_fail, **mode)
    assert DynamicCoresetState(16, 1, 1, 0, 1.0, delta_fail=0.5, **mode).delta_fail == 0.5


def test_refused_merge_changes_nothing():
    # equal but for delta_fail, which sets the sketches' row count; five cells
    # at levels 0 and 1 exceed s = 4, so the second report reads level 2, and
    # that st is fed up to level 2 only
    for xs, fed in [([3], 1), ([1, 3, 5, 7, 9], 3)]:
        st = DynamicCoresetState(16, 1, 1, 0, 1.0, with_shadow=True)
        other = DynamicCoresetState(16, 1, 1, 0, 1.0, delta_fail=0.01, with_shadow=True)
        assert st.sr[0].rows != other.sr[0].rows
        for x in xs:
            st.update((x,), 1)
        other.update((9,), 1)
        st.report()
        assert st.fed == fed < st.grid.levels
        before = copy.deepcopy(st)
        with pytest.raises(InputError):
            st.merge(other)
        assert (st.ops, st.live_count, st.shadow) == (before.ops, before.live_count, before.shadow)
        assert st.fed == fed and other.fed == 1  # neither state loaded a level
        assert [sk._pending for sk in st.sr] == [sk._pending for sk in before.sr]
        assert st.digest() == before.digest()
        assert _cells(st.report(exact=True)) == _cells(st.report()) == _cells(before.report())


def _cells(rep):
    return rep.level, [(p.point, p.weight) for p in rep.points]


def test_batch_sequential_and_sharded_ingestion_agree():
    rng = np.random.default_rng(43)
    live, ops = [], []
    for _ in range(150):
        if live and rng.random() < 0.35:
            ops.append((-1, live.pop(int(rng.integers(len(live))))))
        else:
            live.append(tuple(int(v) for v in rng.integers(1, 65, size=2)))
            ops.append((1, live[-1]))
    batch, seq, shard_a, shard_b = (DynamicCoresetState(64, 2, 2, 2, 1.0, seed=5)
                                    for _ in range(4))
    batch.apply(ops)
    for sign, p in ops:
        seq.update(p, sign)
    # a deletion may land on the other shard, so a shard can hold negative counts
    shard_a.apply(ops[0::2])
    shard_b.apply(ops[1::2])
    assert all(any(sk._pending for sk in shard.sr) for shard in (shard_a, shard_b))
    # each shard is fed up to a different level when it merges
    shard_a.level_sketch(2)
    shard_b.level_sketch(4)
    assert (shard_a.fed, shard_b.fed) == (3, 5)
    shard_a.merge(shard_b)
    assert batch.digest() == seq.digest() == shard_a.digest()
    assert batch.sketch_bytes() == seq.sketch_bytes() == shard_a.sketch_bytes()
    assert _cells(batch.report()) == _cells(seq.report()) == _cells(shard_a.report())


def test_construction_allocates_no_sketch_tables():
    # s = 257 and 11 levels of 75 x 514 buckets: about 10 MB if built eagerly.
    # The hash parameters are drawn with the tables too; drawn eagerly, their
    # 11 x 75 x 2 big ints alone made the peak about 170 KB.
    tracemalloc.start()
    try:
        st = DynamicCoresetState(1024, 2, 2, 1, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (st.s, st.grid.levels, st.sr[0].rows) == (257, 11, 75)
    assert peak < 20_000
    assert all(sk._hashes is None and sk._count is None for sk in st.sr)


def test_sketch_bytes_count_only_built_tables_and_buffered_ids():
    # one level's tables: 75 rows x 514 buckets x 4 words of 8 bytes, 1.2 MB
    sparse = DynamicCoresetState(1024, 2, 2, 1, 0.5, seed=5)
    table = sparse.sr[0].rows * sparse.sr[0].buckets * 4 * 8
    for x in range(1, 11):
        sparse.update((x, x), 1)
    assert all(sk._count is None for sk in sparse.sr)
    assert 0 < sparse.sketch_bytes() < table
    built = DynamicCoresetState(1024, 2, 2, 1, 0.5, seed=5)
    for x in range(1, 2 * built.s + 1):  # 2s distinct level-0 cells fill its buffer
        built.update((x, 1), 1)
    assert [sk._count is not None for sk in built.sr[:2]] == [True, False]
    assert built.sketch_bytes() >= table


def _fed(**modes):
    state = DynamicCoresetState(16, 1, 1, 0, 1.0, **modes)
    state.update((3,), 1)
    return state


_SHADOW_ONLY = dict(with_sketches=False, with_shadow=True)
DYNAMIC_REFUSALS = {
    "Delta 0": (lambda: GridConfig(0, 1), "need Delta >= 1"),
    "fractional Delta": (lambda: GridConfig(1024.0, 2), "need Delta >= 1 and d >= 1, as integers"),
    "fractional d": (lambda: GridConfig(64, 2.0), "need Delta >= 1 and d >= 1, as integers"),
    "Delta and d as bools": (lambda: GridConfig(True, True),
                             "need Delta >= 1 and d >= 1, as integers"),
    "fractional seed": (lambda: DynamicCoresetState(64, 1, 1, 0, 0.5, seed=1.5),
                        "seed must be an integer"),
    "bool seed": (lambda: DynamicCoresetState(64, 1, 1, 0, 0.5, seed=True),
                  "seed must be an integer"),
    "neither sketches nor shadow": (
        lambda: DynamicCoresetState(16, 1, 1, 0, 1.0, with_sketches=False), "enable sketches"),
    "exact report without the shadow": (lambda: _fed().report(exact=True), "requires the shadow"),
    "sketch report without sketches": (lambda: _fed(**_SHADOW_ONLY).report(), "requires sketches"),
    "digest without sketches": (lambda: _fed(**_SHADOW_ONLY).digest(), "requires sketches"),
    "merge across modes": (lambda: _fed().merge(_fed(with_shadow=True)), "identical modes"),
}


@pytest.mark.parametrize("case", sorted(DYNAMIC_REFUSALS))
def test_dynamic_refusals(case):
    make, message = DYNAMIC_REFUSALS[case]
    with pytest.raises(InputError, match=message):
        make()


def test_report_requires_live_points():
    st = DynamicCoresetState(16, 1, 1, 0, 1.0, with_shadow=True)
    with pytest.raises(InputError):
        st.report(exact=True)


def test_level_bound_and_coreset_quality_exact_mode(l2):
    rng = np.random.default_rng(31)
    for trial in range(8):
        k = 1 + trial % 2
        z = trial % 3
        eps = 1.0 if trial % 2 else 0.5
        n = int(rng.integers(8, 50))
        pts = [tuple(int(v) for v in rng.integers(1, 65, size=2)) for _ in range(n)]
        st = DynamicCoresetState(64, 2, k, z, eps, with_shadow=True, with_sketches=False)
        for p in pts:
            st.update(p, 1)
        wps = [W(tuple(float(c) for c in p)) for p in pts]
        inst = Instance(tuple(wps), k, z, min(eps, 1.0), Metric(L2))
        opt = brute_force_opt(inst, input_points_universe()).radius
        rep = st.report(exact=True)
        bound = k * (4 * np.sqrt(2) / eps) ** 2 + z
        if opt > 0:
            j_star = int(np.floor(np.log2((eps / np.sqrt(2)) * opt))) if (eps / np.sqrt(2)) * opt >= 1 else -1
            if j_star >= 0:
                j_star = min(j_star, st.grid.levels - 1)
                assert len(st.shadow[j_star]) <= bound + 1e-9
                assert rep.level <= j_star
        universe = explicit_universe(
            sorted({w.point for w in wps} | {p.point for p in rep.points}))
        res = check_coreset(wps, list(rep.points), k=k, z=z, epsilon=eps,
                            metric=Metric(L2), universe=universe)
        assert res.passed, res
        assert sum(p.weight for p in rep.points) == len(pts)


def test_update_validates_once_and_touches_each_level_once(monkeypatch):
    calls = []
    orig = SparseRecoverySketch.update
    monkeypatch.setattr(SparseRecoverySketch, "update",
                        lambda sk, ident, sign: calls.append(ident) or orig(sk, ident, sign))
    for shadow in (False, True):
        st = DynamicCoresetState(100, 2, 1, 0, 1.0, seed=2, with_shadow=shadow)
        ids = [_ref_cell_id(st.grid, st.grid.cell_of((37, 100), lv), lv)
               for lv in range(st.grid.levels)]
        # a sparse state feeds level 0 only; a read of level 3 loads levels
        # 1-3 and sketch_bytes loads none, so then an update feeds levels 0-3;
        # digest loads every level
        for read, fed in [(lambda: None, 1), (lambda: st.level_sketch(3), 4),
                          (st.sketch_bytes, 4), (st.digest, 8)]:
            read()
            assert st.fed == fed
            calls.clear()
            st.update((37, 100), 1)
            assert calls == ids[:fed]
        assert len(calls) == st.grid.levels == 8
        before = copy.deepcopy(st)
        for bad in [(0, 5), (129, 5), (2.5, 5), (5,), (5, 5, 5),
                    (float("inf"), 5), (float("nan"), 5)]:
            with pytest.raises(InputError):
                st.update(bad, 1)
        with pytest.raises(InputError):
            st.update((5, 5), 0)
        assert len(calls) == st.grid.levels  # no level was touched
        assert (st.ops, st.live_count, st.shadow) == (before.ops, before.live_count, before.shadow)
        assert [sk._pending for sk in st.sr] == [sk._pending for sk in before.sr]


def test_non_integer_signs_are_refused():
    st = DynamicCoresetState(1024, 2, 2, 1, 0.5, seed=1, with_shadow=True)
    for sign in (1.0, -1.0, 0.5, "1", None, 0, 2, np.int64(2)):
        with pytest.raises(InputError, match="sign must be"):
            st.update((5, 5), sign)
    assert (st.ops, st.live_count) == (0, 0)
    assert not any(st.shadow) and not any(sk._pending for sk in st.sr)
    st.update((5, 5), np.int64(1))  # an integer of another type is read as an int
    st.update((5, 5), True)
    assert type(st.live_count) is int and st.live_count == 2
    assert [type(c) for c in st.sr[0]._pending.values()] == [int]
    assert [(p.point, type(p.weight)) for p in st.report().points] == [((5.0, 5.0), int)]


# Reference copies of GridConfig.cell_of and GridConfig.cell_centers as they
# were before one pass formed the level-0 cell and its id, and before the
# centers were decoded with shifts.

def _reference_cell_of(grid, point, level):
    if not (0 <= level <= grid.top_level):
        raise InputError(f"level {level} outside 0..{grid.top_level}")
    idx = []
    for c in point:
        try:
            ci = int(c)
        except (OverflowError, ValueError):
            ci = 0
        if ci != c or not (1 <= ci <= grid.delta):
            raise InputError(f"coordinate {c} outside integer range [1, {grid.delta}]")
        idx.append((ci - 1) >> level)
    if len(idx) != grid.d:
        raise InputError(f"point dimension {len(idx)} != {grid.d}")
    return tuple(idx)


def _reference_cell_centers(grid, ids, level):
    per_axis = grid.cells_per_axis(level)
    strides = [per_axis ** j for j in range(grid.d - 1, -1, -1)]
    side = 1 << level
    half = (side + 1) / 2.0
    return [tuple([ident // st % per_axis * side + half for st in strides]) for ident in ids]


def _outcome_of(call):
    try:
        return call()
    except InputError as e:
        return "InputError", str(e)


@pytest.mark.parametrize("delta, d", [(1, 1), (1, 3), (2, 1), (2, 4), (1000, 1), (1000, 2),
                                      (1000, 3), (1000, 4), (1 << 40, 2)])
def test_cell_centers_equal_the_reference_bit_for_bit(delta, d):
    rng = random.Random(delta * 10 + d)
    g = GridConfig(delta, d)
    assert g.levels == (delta - 1).bit_length() + 1
    if delta == 1 << 40:
        assert g.cell_count(0) - 1 > 1 << 64  # ids past 64 bits
    for level in range(g.levels):  # the top level, with one cell, included
        count = g.cell_count(level)
        ids = list(range(count)) if count <= 4096 else \
            [0, 1, count - 2, count - 1] + [rng.randrange(count) for _ in range(500)]
        got, want = g.cell_centers(ids, level), _reference_cell_centers(g, ids, level)
        assert len(got) == len(ids) and all(type(c) is tuple and len(c) == d for c in got)
        assert [[v.hex() for v in c] for c in got] == [[v.hex() for v in c] for c in want]
    assert g.cell_centers([], 0) == []


def test_the_point_check_equals_the_reference_cell_of():
    # every failure gives the reference's InputError message, so the checks
    # run in its order: each coordinate in turn, then the dimension
    nan, inf = float("nan"), float("inf")
    corpus = [(1, 1), (1000, 1024), (1024, 7), (512.0, 3), (np.int64(9), np.float64(17.0)),
              (0, 5), (5, 0), (1025, 5), (5, 1025), (-3, 5), (2.5, 5), (5, 2.5),
              (inf, 5), (-inf, 5), (5, inf), (nan, 5), (5, nan), (5,), (), (5, 5, 5),
              (0, 5, 5), (5, 5, 0), (nan,), (5, 5, nan), (2.5,), np.array([3, 4])]
    g = GridConfig(1000, 2)
    st = DynamicCoresetState(1000, 2, 1, 0, 1.0, seed=2, with_shadow=True)
    for point in corpus:
        for level in (0, 1, 5, g.top_level):
            assert _outcome_of(lambda: g.cell_of(point, level)) == \
                _outcome_of(lambda: _reference_cell_of(g, point, level)), (point, level)
        want = _outcome_of(lambda: _reference_cell_of(g, point, 0))
        if want[0] == "InputError":
            assert _outcome_of(lambda: g.base_cell(point)) == want
            assert _outcome_of(lambda: st.update(point, 1)) == want, point
        else:
            base, ident = g.base_cell(point)
            assert tuple(base) == want and ident == g.level_ids(want, 1)[0]
    for level in (-1, g.levels):
        assert _outcome_of(lambda: g.cell_of((5, 5), level)) == \
            _outcome_of(lambda: _reference_cell_of(g, (5, 5), level))


# Reference copy of the per-level update and report loops as they were
# before ids were formed from the level-0 cell: one cell tuple, one row-major
# id and one index/center conversion per level and cell. The reference shadow
# keys its maps by index tuples, as the package did before it used ids.

def _ref_update(st, point, sign):
    if sign not in (1, -1):
        raise InputError("sign must be +1 or -1")
    grid = st.grid
    base = grid.cell_of(point, 0)
    if st.shadow is not None and sign < 0 and st.shadow[0].get(base, 0) <= 0:
        raise InputError(f"deletion of absent point {tuple(point)} (strict turnstile)")
    st.ops += 1
    st.live_count += sign
    for lv in range(grid.levels):
        cell = tuple(v >> lv for v in base)
        if st.shadow is not None:
            m = st.shadow[lv]
            c = m.get(cell, 0) + sign
            if c:
                m[cell] = c
            else:
                m.pop(cell, None)
        if st.sr is not None:
            per_axis = max(1, grid.delta >> lv)
            ident = 0
            for v in cell:
                ident = ident * per_axis + v
            st.sr[lv].update(ident, sign)


def _ref_cell_id(grid, index, level):
    per_axis = max(1, grid.delta >> level)
    out = 0
    for v in index:
        out = out * per_axis + v
    return out


def _ref_shadow_by_id(st):
    return [{_ref_cell_id(st.grid, cell, lv): c for cell, c in m.items()}
            for lv, m in enumerate(st.shadow)]


def _ref_cell_index(grid, ident, level):
    per_axis = max(1, grid.delta >> level)
    idx = []
    for _ in range(grid.d):
        idx.append(ident % per_axis)
        ident //= per_axis
    return tuple(reversed(idx))


def _ref_report(st, exact=False):
    if st.live_count <= 0:
        raise InputError("report requires at least one live point")
    for lv in range(st.grid.levels):
        if exact:
            cells = st.shadow[lv]
        elif st.sr[lv].support_lower_bound() > st.s:
            continue
        else:
            res = st.sr[lv].query()
            cells = None if res is None else \
                {_ref_cell_index(st.grid, i, lv): c for i, c in res.items()}
        if cells is not None and len(cells) <= st.s:
            side = 1 << lv
            pts = tuple(W(tuple(v * side + (side + 1) / 2.0 for v in idx), int(c))
                        for idx, c in sorted(cells.items()))
            return DynReport(points=pts, level=lv, from_exact=exact)
    raise SketchFailureError("sparse recovery failed at every level")


def _outcome(call):
    try:
        rep = call()
    except (InputError, SketchFailureError) as e:
        return type(e).__name__
    return rep.level, rep.from_exact, [(p.point, p.weight) for p in rep.points]


@pytest.mark.parametrize("delta, d, k, z, eps, shadow, sketches, ops, peels", [
    (100, 1, 1, 0, 1.0, False, True, 400, False),
    (100, 1, 1, 1, 1.0, True, True, 400, True),
    (9, 1, 2, 0, 1.0, True, True, 120, False),
    (37, 2, 1, 0, 1.0, False, True, 400, True),
    (37, 2, 1, 2, 1.0, True, True, 400, True),
    (1024, 2, 2, 1, 0.5, False, True, 120, False),
    (9, 3, 1, 0, 1.0, True, True, 200, False),
    (37, 3, 1, 1, 1.0, False, True, 200, False),
    (100, 2, 1, 0, 1.0, True, False, 300, False),
    # sketch-only streams whose reports read levels above 0 with no level
    # overflowing: the later updates feed the loaded levels
    (256, 1, 2, 1, 0.125, False, True, 300, False),
    (1024, 2, 1, 0, 1.0, False, True, 160, False),
])
def test_level_ids_match_reference_loops(monkeypatch, delta, d, k, z, eps, shadow,
                                         sketches, ops, peels):
    peeled = []
    orig_query = SparseRecoverySketch.query
    monkeypatch.setattr(SparseRecoverySketch, "query",
                        lambda sk: peeled.append(sk._count is not None) or orig_query(sk))
    rng = np.random.default_rng(delta * 10 + d + z)
    new, ref = (DynamicCoresetState(delta, d, k, z, eps, seed=d + z, with_shadow=shadow,
                                    with_sketches=sketches) for _ in range(2))
    # the reference feeds every level itself (_ref_update), so the package must
    # never reload its coarse buffers from its level 0
    ref.fed = ref.grid.levels
    live = []
    for step in range(ops):
        # mostly inserts, then mostly deletes, so dense levels overflow and empty again
        p_delete = 0.2 if step < ops // 2 else 0.85
        if live and rng.random() < p_delete:
            sign, point = -1, live.pop(int(rng.integers(len(live))))
        else:
            sign, point = 1, tuple(int(v) for v in rng.integers(1, delta + 1, size=d))
            live.append(point)
        new.update(point, sign)
        _ref_update(ref, point, sign)
        if sketches and new.fed < new.grid.levels:  # no tables while a level is unfed
            assert all(sk._count is None for sk in new.sr)
        if step % 20 == 19:
            for exact in (False, True):
                if (exact and shadow) or (not exact and sketches):
                    assert _outcome(lambda: new.report(exact)) == \
                        _outcome(lambda: _ref_report(ref, exact))
            assert new.sketch_bytes() == ref.sketch_bytes()
            if sketches:
                assert copy.deepcopy(new).digest() == copy.deepcopy(ref).digest()
            if shadow:
                assert new.shadow == _ref_shadow_by_id(ref)
    assert (new.ops, new.live_count) == (ref.ops, ref.live_count)
    assert new.shadow == (_ref_shadow_by_id(ref) if shadow else None)
    if sketches:
        assert new.digest() == ref.digest()
        assert new.sketch_bytes() == ref.sketch_bytes()
    # where a level overflowed 2s and was later decoded from its tables
    assert (True in peeled) == peels


@pytest.mark.parametrize("coord, shown", [(None, "None"), (1 + 0j, "(1+0j)"), ("5", "'5'")])
def test_a_coordinate_without_an_int_value_is_an_input_error(coord, shown):
    st = DynamicCoresetState(16, 2, 1, 0, 1.0)
    with pytest.raises(InputError, match=f"^coordinate {re.escape(shown)} outside integer range"):
        st.update((coord, 5), 1)
    assert st.ops == 0
