import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoreset import (
    CapacityError, EXPLICIT, InputError, Instance, L2, LINF, Metric, Solution,
    ValidationReport, WeightedPoint, brute_force_opt, check_coreset,
    check_mini_ball_covering, evaluate_cost, greedy, input_points_universe,
    mbc_construction, mbc_size_bound, midpoint_grid_universe, update_coreset,
)
from kcoreset import mpc, offline, outlier_vector, validate
from kcoreset.metric import (
    REL_TOL, Ball, as_weighted, coords_array, materialize_universe, slack_bound, weights_array,
)
from kcoreset.mpc import vector_length
from kcoreset.offline import (
    _CELL_GUARD, _CELL_MARGIN, GreedyResult, _PointSet, _cell_digits, _cell_runs, _grid_leaders,
    _mbc, _net,
)
from kcoreset.validate import (
    EXPANDED_COVER_FAILS, RADIUS_BAND_HIGH, RADIUS_BAND_LOW, WEIGHT_RESTRICTION, _cost_batch,
    uncovered_weight,
)
from conftest import random_points, scalar_distance
from test_output_pins import _load_gen

W = WeightedPoint


def pts1d(*xs):
    return [W((float(x),)) for x in xs]


def inst1d(xs, k, z, eps, metric):
    return Instance(tuple(pts1d(*xs)), k, z, eps, metric)


def test_instance_validation(linf):
    with pytest.raises(InputError):
        inst1d([1, 2], 0, 0, 1.0, linf)
    with pytest.raises(InputError):
        inst1d([1, 2], 1, -1, 1.0, linf)
    with pytest.raises(InputError):
        inst1d([1, 2], 1, 0, 0.0, linf)
    with pytest.raises(InputError):
        inst1d([1, 2], 1, 2, 1.0, linf)  # weight <= z is vacuous


def test_evaluate_cost_examples(linf):
    assert evaluate_cost(pts1d(0, 1, 2), [(1.0,)], 0, linf) == 1.0
    assert evaluate_cost(pts1d(0, 1, 3), [(1.0,)], 1, linf) == 1.0
    # weighted peel: distances are 1 (w=1), 0 (w=2), 2 (w=1); only the
    # distance-2 point fits in the z=1 outlier budget, so the cost is 1
    # (value frozen from the exhaustive threshold scan the contract defines).
    weighted = [W((0.0,)), W((1.0,), 2), W((3.0,))]
    assert evaluate_cost(weighted, [(1.0,)], 1, linf) == 1.0
    with pytest.raises(InputError):
        evaluate_cost(pts1d(0), [], 0, linf)
    with pytest.raises(InputError):
        evaluate_cost(pts1d(0), [(0.0,)], -1, linf)
    assert evaluate_cost([], [(0.0,)], 0, linf) == 0.0


def test_uncovered_weight_needs_a_center(linf):
    assert uncovered_weight(pts1d(0, 1, 3), [(1.0,)], 1.0, linf) == 1
    assert uncovered_weight([], [(1.0,)], 1.0, linf) == 0
    for points in (pts1d(0), []):
        with pytest.raises(InputError, match="at least one center"):
            uncovered_weight(points, [], 1.0, linf)


def exhaustive_threshold_scan(points, centers, z, metric):
    dists = [min(scalar_distance(metric, p.point, c) for c in centers) for p in points]
    for r in sorted({0.0} | set(dists)):
        if sum(p.weight for p, d in zip(points, dists) if d > r + 1e-12) <= z:
            return r
    raise AssertionError


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_evaluate_cost_matches_threshold_scan(linf, data):
    xs = data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=8))
    ws = data.draw(st.lists(st.integers(1, 3), min_size=len(xs), max_size=len(xs)))
    z = data.draw(st.integers(0, 4))
    cs = data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=3))
    pts = [W((float(x),), w) for x, w in zip(xs, ws)]
    centers = [(float(c),) for c in cs]
    assert evaluate_cost(pts, centers, z, linf) == pytest.approx(
        exhaustive_threshold_scan(pts, centers, z, linf))


def scalar_cost_from_nearest(nearest, weights, z):
    """The former single-row peel with a stable sort, kept as the oracle."""
    if nearest.size == 0:
        return 0.0
    if z <= 0:
        return float(nearest.max())
    order = np.argsort(-nearest, kind="stable")
    cw = np.cumsum(weights[order])
    idx = int(np.searchsorted(cw, z, side="right"))
    if idx >= nearest.size:
        return 0.0
    return float(nearest[order[idx]])


def test_cost_batch_matches_scalar_peel(linf, l2):
    # integer coordinates on a small range give many tied distances
    rng = np.random.default_rng(47)
    for trial in range(300):
        metric = (linf, l2)[trial % 2]
        n = int(rng.integers(1, 30))
        pts = random_points(rng, n, 1 + trial % 3, hi=int(rng.integers(1, 12)),
                            weights=trial % 4 != 0)
        w = np.asarray([p.weight for p in pts], dtype=np.int64)
        total = int(w.sum())
        center_sets = [[pts[int(i)].point for i in rng.integers(0, n, size=int(rng.integers(1, 4)))]
                       for _ in range(3)]
        nearest = np.stack([metric.pairwise(coords_array(pts), np.asarray(cs)).min(axis=1)
                            for cs in center_sets])
        for z in {0, 1, int(rng.integers(0, total + 1)), total - 1, total, total + 3}:
            expect = [scalar_cost_from_nearest(row, w, z) for row in nearest]
            assert _cost_batch(nearest.copy(), w, z).tolist() == expect
            assert [evaluate_cost(pts, cs, z, metric) for cs in center_sets] == expect


def test_cost_batch_edge_cases():
    # the peel against the scalar peel, on rows of ties, single columns and
    # z at or past the total weight, with unit, decreasing and equal weights
    rows = {
        "ties": np.full((3, 6), 2.5),
        "ties_and_one": np.array([[1.0, 1.0, 1.0, 4.0, 1.0], [4.0, 4.0, 4.0, 4.0, 0.0]]),
        "single_column": np.array([[3.0], [0.0], [7.5]]),
        "single_row": np.array([[5.0, 1.0, 5.0, 2.0, 0.0, 9.0, 2.0]]),
        "zeros": np.zeros((2, 4)),
    }
    for name, nearest in rows.items():
        n = nearest.shape[1]
        for weights in (np.ones(n, dtype=np.int64),
                        np.arange(1, n + 1, dtype=np.int64)[::-1].copy(),
                        np.full(n, 3, dtype=np.int64)):
            total = int(weights.sum())
            for z in sorted({0, 1, 2, n - 1, n, n + 2, total - 1, total, total + 5}):
                got = _cost_batch(nearest.copy(), weights, z)
                expect = [scalar_cost_from_nearest(row, weights, z) for row in nearest]
                assert got.tolist() == expect, (name, weights.tolist(), z)
    assert _cost_batch(np.zeros((2, 0)), np.zeros(0, dtype=np.int64), 1).tolist() == [0.0, 0.0]
    assert _cost_batch(np.zeros((0, 3)), np.ones(3, dtype=np.int64), 1).shape == (0,)


def argsort_cost_batch(nearest, weights, z):
    """The former full-sort ``_cost_batch``, kept as the oracle."""
    if nearest.shape[1] == 0:
        return np.zeros(nearest.shape[0])
    if z <= 0:
        return nearest.max(axis=1)
    order = np.argsort(-nearest, axis=1)
    w = np.broadcast_to(weights, nearest.shape)
    cw = np.take_along_axis(w, order, axis=1).cumsum(axis=1)
    idx = (cw <= z).sum(axis=1)
    sorted_near = np.take_along_axis(nearest, order, axis=1)
    safe = np.minimum(idx, nearest.shape[1] - 1)
    picked = sorted_near[np.arange(nearest.shape[0]), safe]
    return np.where(idx < nearest.shape[1], picked, 0.0)


def oracle_combo_chunks(n_items, k, chunk=13):
    """Lexicographic k-combinations in small blocks, so that ties across
    block boundaries are exercised."""
    it = itertools.combinations(range(n_items), k)
    while block := list(itertools.islice(it, chunk)):
        yield np.asarray(block, dtype=np.intp)


def oracle_costs(dmat, combos, wps, z):
    """Points x candidates matrix, the (n, chunk, k) gather, the full sort."""
    return argsort_cost_batch(dmat[:, combos].min(axis=2).T, weights_array(wps), z)


def oracle_brute_force_opt(inst, universe):
    """The former ``brute_force_opt`` enumeration, kept as the oracle."""
    cands = materialize_universe(inst.points, universe)
    k = min(inst.k, len(cands))
    carr = np.asarray(cands, dtype=float).reshape(len(cands), -1)
    dmat = inst.metric.pairwise(coords_array(inst.points), carr)
    best, best_combo = math.inf, None
    for combos in oracle_combo_chunks(len(cands), k):
        costs = oracle_costs(dmat, combos, inst.points, inst.z)
        i = int(np.argmin(costs))
        if costs[i] < best:
            best, best_combo = float(costs[i]), tuple(int(c) for c in combos[i])
    centers = tuple(cands[i] for i in best_combo)
    return Solution(best, centers, uncovered_weight(inst.points, centers, best, inst.metric))


def oracle_check_coreset(P, Pstar, k, z, epsilon, metric, universe):
    """The former ``check_coreset`` enumeration and verdict, kept as the oracle."""
    wP, wS = sum(p.weight for p in P), sum(q.weight for q in Pstar)
    if wS > wP:
        return ValidationReport(False, WEIGHT_RESTRICTION,
                                f"coreset weight {wS} exceeds input weight {wP}")
    cands = materialize_universe(P, universe)
    kk = min(k, len(cands))
    carr = np.asarray(cands, dtype=float).reshape(len(cands), -1)
    dP = metric.pairwise(coords_array(P), carr)
    dS = metric.pairwise(coords_array(Pstar), carr)
    opt_p = opt_s = math.inf
    max_gap, gap_witness = -math.inf, None
    for combos in oracle_combo_chunks(len(cands), kk):
        rp = oracle_costs(dP, combos, P, z)
        rs = oracle_costs(dS, combos, Pstar, z)
        opt_p = min(opt_p, float(rp.min()))
        opt_s = min(opt_s, float(rs.min()))
        gaps = rp - rs
        i = int(np.argmax(gaps))
        if gaps[i] > max_gap:
            max_gap, gap_witness = float(gaps[i]), tuple(int(c) for c in combos[i])
    slack = REL_TOL * max(1.0, opt_p, opt_s)
    if opt_s < (1 - epsilon) * opt_p - slack:
        return ValidationReport(False, RADIUS_BAND_LOW,
                                f"opt(coreset)={opt_s} below (1-eps)*opt(P)={(1 - epsilon) * opt_p}")
    if opt_s > (1 + epsilon) * opt_p + slack:
        return ValidationReport(False, RADIUS_BAND_HIGH,
                                f"opt(coreset)={opt_s} above (1+eps)*opt(P)={(1 + epsilon) * opt_p}")
    if max_gap > epsilon * opt_p + slack:
        centers = tuple(cands[i] for i in gap_witness)
        return ValidationReport(False, EXPANDED_COVER_FAILS,
                                f"centers {centers}: expanding by eps*opt(P)={epsilon * opt_p} "
                                f"leaves more than z={z} weight of P uncovered")
    return ValidationReport(True)


def enumeration_case(rng, trial):
    """A seeded (P, P*, k, z, eps, metric, universe) on a small integer grid,
    so distances and costs tie often. P* rotates through a construction
    output, P itself and four corruptions."""
    kind = (LINF, L2, EXPLICIT)[trial % 3]
    k = 1 + (trial // 3) % 3
    z = int(rng.integers(0, 5))
    eps = (0.1, 0.25, 0.5, 1.0)[int(rng.integers(0, 4))]
    d = 1 + int(rng.integers(0, 2))
    grid = kind != EXPLICIT and trial % 2 == 1
    if grid and (d == 2 and k == 3):
        d = 1
    n = z + 1 + int(rng.integers(0, 8 if grid else 16))
    # a midpoint grid has (m + m(m-1)/2)^d points for m distinct values per
    # axis, so its coordinates take fewer values
    hi = int(rng.integers(1, (4 if d == 2 else 8) if grid else 12))
    if kind == EXPLICIT:
        # L1 distances between integer sites form a metric; P uses the
        # first n sites, corruptions may move weight to the spare ones
        sites = rng.integers(0, hi + 1, size=(n + 4, 2))
        metric = Metric(EXPLICIT, matrix=np.abs(sites[:, None] - sites[None]).sum(axis=2).tolist())
        locs = [(float(i),) for i in range(n + 4)]
        P = [WeightedPoint(locs[i], int(rng.integers(1, 4)) if trial % 4 else 1) for i in range(n)]
    else:
        metric = Metric(kind)
        P = random_points(rng, n, d, hi=hi, weights=trial % 4 != 0)
        locs = [tuple(float(v) for v in rng.integers(0, 2 * hi + 1, size=d)) for _ in range(6)]
    variant = trial % 6
    if variant == 0:
        Pstar = list(mbc_construction(Instance(tuple(P), k, z, eps, metric)).representatives)
    elif variant == 1:
        Pstar = list(P)
    elif variant == 2:  # inflated weight
        i = int(rng.integers(0, n))
        Pstar = P[:i] + [WeightedPoint(P[i].point, P[i].weight + 1)] + P[i + 1:]
    elif variant == 3 and n > 1:  # one point's weight merged into another
        i, j = rng.choice(n, size=2, replace=False)
        Pstar = [WeightedPoint(p.point, p.weight + P[i].weight) for p in P[j:j + 1]]
        Pstar += [p for t, p in enumerate(P) if t not in (i, j)]
    elif variant == 4:  # weight moved to other locations
        Pstar = [WeightedPoint(locs[int(rng.integers(0, len(locs)))], p.weight) for p in P]
    else:  # points dropped
        keep = rng.random(n) < 0.6
        Pstar = [p for p, kept in zip(P, keep) if kept] or P[:1]
    universe = midpoint_grid_universe() if grid else input_points_universe()
    return P, Pstar, k, z, eps, metric, universe


def test_enumeration_matches_oracle():
    rng = np.random.default_rng(61)
    verdicts = Counter()
    for trial in range(240):
        P, Pstar, k, z, eps, metric, universe = enumeration_case(rng, trial)
        got = check_coreset(P, Pstar, k, z, eps, metric, universe)
        assert got == oracle_check_coreset(P, Pstar, k, z, eps, metric, universe), trial
        verdicts[got.violated_condition] += 1
        for pts in (P, Pstar):
            if sum(p.weight for p in pts) > z:
                inst = Instance(tuple(pts), k, z, 1.0, metric)
                assert brute_force_opt(inst, universe) == oracle_brute_force_opt(inst, universe), trial
    assert set(verdicts) == {None, WEIGHT_RESTRICTION, RADIUS_BAND_LOW, RADIUS_BAND_HIGH,
                             EXPANDED_COVER_FAILS}, verdicts


def test_cost_batch_many_peel_rounds():
    # wide rows of few distinct values, so one peel round after another
    # lands on ties; z from a few rounds up to past the row width
    rng = np.random.default_rng(83)
    for trial in range(36):
        n = int(rng.integers(50, 201))
        nearest = rng.integers(0, 6, size=(40, n)) * 0.5
        weights = (np.ones(n, dtype=np.int64),
                   rng.integers(1, 4, size=n),
                   rng.integers(1, 40, size=n))[trial % 3]
        total = int(weights.sum())
        for z in sorted({5, 8, 20, n - 1, n, total - 1}):
            expect = [scalar_cost_from_nearest(row, weights, z) for row in nearest]
            assert _cost_batch(nearest.copy(), weights, z).tolist() == expect, (trial, z)


def test_enumeration_matches_oracle_at_large_z():
    # z in 6..12, above the range of enumeration_case, so the peel runs
    # many rounds; P and a corrupted or reduced P* on a small grid
    rng = np.random.default_rng(89)
    verdicts = Counter()
    for trial in range(20):
        metric = Metric((LINF, L2)[trial % 2])
        z = int(rng.integers(6, 13))
        k = 1 + trial % 2
        P = random_points(rng, z + 1 + int(rng.integers(0, 10)), 1 + trial % 2,
                          hi=int(rng.integers(2, 9)), weights=trial % 3 != 0)
        if trial % 4 == 0:
            Pstar = list(mbc_construction(Instance(tuple(P), k, z, 0.5, metric)).representatives)
        elif trial % 4 == 1:
            Pstar = [p for p in P if rng.random() < 0.6] or P[:1]
        elif trial % 4 == 2:
            Pstar = P[1:] + [WeightedPoint(P[0].point, P[0].weight + 1)]
        else:
            Pstar = [WeightedPoint(tuple(v + 1.0 for v in p.point), p.weight) for p in P]
        universe = midpoint_grid_universe() if trial % 5 == 4 else input_points_universe()
        eps = (0.1, 0.5, 1.0)[trial % 3]
        got = check_coreset(P, Pstar, k, z, eps, metric, universe)
        assert got == oracle_check_coreset(P, Pstar, k, z, eps, metric, universe), trial
        verdicts[got.violated_condition] += 1
        for pts in (P, Pstar):
            if sum(p.weight for p in pts) > z:
                inst = Instance(tuple(pts), k, z, 1.0, metric)
                assert brute_force_opt(inst, universe) == oracle_brute_force_opt(inst, universe), trial
    assert {None, EXPANDED_COVER_FAILS} <= set(verdicts), verdicts


def test_extreme_coordinates_are_refused_or_checked_exactly(linf):
    # 1-D sets of 3-6 points near the ends of the float range: a check
    # either refuses an overflowing distance or midpoint, or gives the
    # oracle's verdict, which then reads only finite costs
    rng = np.random.default_rng(97)
    values = (-1.7e308, -1e308, -5e307, 0.0, 5e307, 1e308, 1.7e308)
    refused = checked = 0
    for trial in range(300):
        P = [WeightedPoint((float(v),)) for v in rng.choice(values, size=int(rng.integers(3, 7)))]
        Pstar = [WeightedPoint(p.point, int(rng.integers(1, 3))) for p in P if rng.random() < 0.7]
        Pstar = Pstar or P[:1]
        k, z = 1 + trial % 2, int(rng.integers(0, 2))
        eps = (0.25, 0.5, 1.0)[trial % 3]
        universe = midpoint_grid_universe() if trial % 4 == 3 else input_points_universe()
        try:
            got = check_coreset(P, Pstar, k, z, eps, linf, universe)
        except InputError:
            refused += 1
            continue
        assert got == oracle_check_coreset(P, Pstar, k, z, eps, linf, universe), trial
        checked += 1
    assert refused and checked, (refused, checked)


def test_evaluate_cost_monotonicity(linf):
    rng = np.random.default_rng(11)
    pts = random_points(rng, 20, 2, weights=True)
    centers = [pts[0].point, pts[3].point]
    costs = [evaluate_cost(pts, centers, z, linf) for z in range(6)]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    more = evaluate_cost(pts, centers + [pts[7].point], 2, linf)
    assert more <= costs[2] + 1e-12


def test_brute_force_examples(linf):
    assert brute_force_opt(inst1d([1, 2, 3], 2, 1, 1.0, linf)).radius == 0.0
    assert brute_force_opt(
        inst1d([1, 2, 3, 4], 2, 1, 1.0, linf), midpoint_grid_universe()
    ).radius == pytest.approx(0.5)
    sol = brute_force_opt(inst1d([0, 1, 2, 10, 11, 12], 2, 0, 1.0, linf))
    assert sol.radius == pytest.approx(1.0)
    assert sol.centers == ((1.0,), (11.0,))


def test_brute_force_cap(linf, monkeypatch):
    monkeypatch.setattr(validate, "SUBSET_CAP", 100)
    inst = inst1d(range(30), 3, 0, 1.0, linf)
    with pytest.raises(CapacityError):
        brute_force_opt(inst)


def test_brute_force_deterministic_witness(linf):
    inst = inst1d([0, 1, 10, 11], 2, 0, 1.0, linf)
    a = brute_force_opt(inst)
    b = brute_force_opt(inst)
    assert a == b


def test_weights_past_int64_are_input_errors(linf):
    top = 2**63 - 1
    too_big = [W((1.0,), 2**70), W((2.0,))]
    total_wraps = [W((1.0,), top), W((2.0,), top), W((3.0,), 1)]  # greedy read radius 0
    for pts in (too_big, total_wraps):
        for call in (lambda: weights_array(pts), lambda: greedy(pts, 1, 0, linf),
                     lambda: mbc_construction(Instance(tuple(pts), 1, 0, 0.5, linf))):
            with pytest.raises(InputError, match="int64"):
                call()
    assert weights_array([W((1.0,), top)]).tolist() == [top]


def test_greedy_examples(linf):
    r, balls, *_ = greedy(pts1d(5), 3, 0, linf)
    assert r == 0.0 and len(balls) == 1 and balls[0].center == (5.0,)
    r, balls, *_ = greedy(pts1d(1, 2, 3), 2, 1, linf)
    assert r == 0.0
    res = greedy([], 2, 0, linf)
    assert res.vacuous and res.radius == 0.0 and res.balls == ()
    res = greedy(pts1d(4), 1, 5, linf)  # weight <= z
    assert res.vacuous


def test_greedy_three_approx_small(linf, l2):
    rng = np.random.default_rng(1)
    for trial in range(40):
        n = int(rng.integers(4, 20))
        d = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        z = int(rng.integers(0, 4))
        metric = linf if trial % 2 else l2
        pts = random_points(rng, max(n, z + 1), d, hi=60)
        res = greedy(pts, k, z, metric)
        inst = Instance(tuple(pts), k, z, 1.0, metric)
        opt = brute_force_opt(inst).radius
        assert res.radius <= 3 * opt + 1e-9
        # uncovered weight within the reported balls is at most z
        uncov = 0
        for p in pts:
            if all(scalar_distance(metric, p.point, b.center) > b.radius + 1e-9 for b in res.balls):
                uncov += p.weight
        assert uncov <= z


# ---------------------------------------------------------------------------
# Reference greedy: the feasibility probe that builds both n x n masks and
# recomputes coverage with a full matrix-vector product per center, and the
# binary search that sorts every pair radius and probes the answer again.
# They pin _probe (through _feasible), greedy and outlier_vector bit for bit
# (test_greedy_matches_reference).
# ---------------------------------------------------------------------------

def _feasible(dmat, weights, k, z, r):
    """The verdict of one _probe at radius r with z outliers: (feasible,
    chosen center indices)."""
    remaining, centers = offline._probe(dmat, weights, k, r, offline._Mask(len(dmat)))
    return remaining <= z, centers


def ref_feasible(dmat, weights, k, z, r):
    slack = REL_TOL * max(1.0, abs(r))
    within_r = dmat <= r + slack
    within_3r = dmat <= 3 * r + 3 * slack
    uncovered = weights.astype(np.int64).copy()
    centers = []
    for _ in range(k):
        if uncovered.sum() == 0:
            break
        coverage = within_r @ uncovered
        c = int(np.argmax(coverage))
        centers.append(c)
        uncovered[within_3r[c]] = 0
    return int(uncovered.sum()) <= z, centers


def ref_candidates(dmat):
    pair = dmat[np.triu_indices(len(dmat), k=1)]
    return np.unique(np.concatenate([np.asarray([0.0]), pair, pair / 2.0]))


def ref_greedy(points, k, z, metric, dmat=None):
    wps = as_weighted(points)
    w = weights_array(wps) if wps else np.zeros(0, dtype=np.int64)
    if int(w.sum()) <= z:
        return GreedyResult(0.0, (), 0.0, vacuous=True)
    if dmat is None:
        dmat = metric.pairwise(coords_array(wps), coords_array(wps))
    cands = ref_candidates(dmat)
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        ok, _ = ref_feasible(dmat, w, k, z, float(cands[mid]))
        if ok:
            hi = mid
        else:
            lo = mid + 1
    r_f = float(cands[lo])
    ok, centers = ref_feasible(dmat, w, k, z, r_f)
    assert ok
    radius = 3.0 * r_f
    return GreedyResult(radius, tuple(Ball(wps[c].point, radius) for c in centers), r_f)


def ref_outlier_vector(part, k, z, metric):
    part = as_weighted(part)
    dmat = metric.pairwise(coords_array(part), coords_array(part)) if part else None
    return [ref_greedy(part, k, (1 << j) - 1, metric, dmat=dmat).radius
            for j in range(vector_length(z))]


def greedy_case(rng, trial):
    """A seeded (points, k, z, metric) on a small integer grid, with
    duplicated points, so that distances, coverages and argmaxes tie often."""
    kind = (LINF, L2, EXPLICIT)[trial % 3]
    k = 1 + (trial // 3) % 4
    z = int(rng.integers(0, 6))
    n = 1 + int(rng.integers(0, 40 if trial % 10 == 9 else 14))
    hi = int(rng.integers(1, 13))
    weighted = trial % 2 == 1
    if kind == EXPLICIT:
        # L1 distances between integer sites form a metric. Half the time
        # some distances D are raised to D + REL_TOL * max(1, D), the exact
        # edge of a probe's tolerance at radius D: still a metric, and only
        # a mask that compares with <= holds them.
        sites = rng.integers(0, hi + 1, size=(n, 2))
        mat = np.abs(sites[:, None] - sites[None]).sum(axis=2).astype(float)
        if rng.random() < 0.5:
            iu = np.triu_indices(n, k=1)
            lifted = rng.random(len(iu[0])) < 0.3
            edge = mat[iu] + REL_TOL * np.maximum(1.0, mat[iu])
            mat[iu] = np.where(lifted, edge, mat[iu])
            mat[iu[::-1]] = mat[iu]
        metric = Metric(EXPLICIT, matrix=mat.tolist())
        pts = [W((float(i),), int(rng.integers(1, 4)) if weighted else 1) for i in range(n)]
    else:
        metric = Metric(kind)
        pts = random_points(rng, n, 1 + trial % 3, hi=hi, weights=weighted)
    pts += [pts[int(i)] for i in rng.integers(0, n, size=int(rng.integers(0, 4)))]
    return pts, k, z, metric


def test_greedy_matches_reference():
    rng = np.random.default_rng(71)
    probes = feasible = 0
    for trial in range(330):
        pts, k, z, metric = greedy_case(rng, trial)
        dmat = metric.pairwise(coords_array(pts), coords_array(pts))
        w = weights_array(pts)
        cands = ref_candidates(dmat)
        assert np.array_equal(offline._candidate_radii(dmat).view(np.uint64), cands.view(np.uint64))
        step = 1 if len(cands) < 200 else 5
        for r in cands[::step]:
            got = _feasible(dmat, w, k, z, float(r))
            assert got == ref_feasible(dmat, w, k, z, float(r)), (trial, r)
            probes += 1
            feasible += got[0]
        got = greedy(pts, k, z, metric)
        expect = ref_greedy(pts, k, z, metric)
        assert got == expect and repr(got) == repr(expect), trial
        assert repr(outlier_vector(pts, k, z, metric)) == \
            repr(ref_outlier_vector(pts, k, z, metric)), trial
    assert probes > 4000 and probes - feasible > 400, (probes, feasible)


def test_feasible_arithmetic_matches_reference():
    # _probe counts unit weights in int32 and sums integer weights in float32
    # while their total is below 2^24, in float64 while it is below 2^53 and
    # in int64 from 2^53 on; each path against the int64 reference probe,
    # bit for bit
    x = np.asarray([[0.0], [1.0], [2.0]])
    dmat = Metric(LINF).pairwise(x, x)
    for cut in (2 ** 24, 2 ** 53):
        # Only an exact type above the cut gets this one right: ball(0)
        # weighs cut + 4 and ball(1) cut + 5, which the type below rounds to
        # cut + 4, so its product would tie them and pick center 0.
        w = np.asarray([cut, 4, 1], dtype=np.int64)
        assert _feasible(dmat, w, 1, 0, 1.0) == ref_feasible(dmat, w, 1, 0, 1.0) == (True, [1])
    rng = np.random.default_rng(37)
    paths = Counter()
    for trial in range(60):
        n = 2 + int(rng.integers(0, 30))
        x = rng.integers(0, 2 + trial % 9, size=(n, 1 + trial % 3)).astype(float)
        dmat = Metric(L2 if trial % 2 else LINF).pairwise(x, x)
        small = rng.integers(1, 4, size=n)
        small[0] = 2  # never all 1
        heavy = rng.integers(1, 2 ** 40, size=n)
        heavy[0] = 2 ** 53 + int(rng.integers(0, 5))
        weights = [np.ones(n, dtype=np.int64), small, rng.integers(1, 2 ** 40, size=n), heavy]
        for cut in (2 ** 24, 2 ** 53):
            edge = np.ones(n, dtype=np.int64)
            edge[0] = cut - n  # total cut - 1, the last total below the cut
            weights.append(edge)
        for w in weights:
            total = int(w.sum())
            paths["int32" if total == n else "float32" if total < 2 ** 24
                  else "float64" if total < 2 ** 53 else "int64"] += 1
            for r in ref_candidates(dmat)[::3]:
                for k in (1, 3):
                    z = int(rng.integers(0, total))
                    assert _feasible(dmat, w, k, z, float(r)) == \
                        ref_feasible(dmat, w, k, z, float(r)), (trial, total, r, k, z)
    assert paths == {"int32": 60, "float32": 120, "float64": 120, "int64": 60}


def ref_remaining(dmat, weights, r, centers):
    """The weight outside the 3r-balls of ``centers``, summed in Python."""
    slack = REL_TOL * max(1.0, abs(r))
    hit = (dmat[centers] <= 3 * r + 3 * slack).any(axis=0)
    return sum(int(wt) for wt, h in zip(weights, hit) if not h)


@pytest.mark.parametrize("n", [254, 255, 256, 510, 511, 512, 700])
def test_probe_counts_past_a_uint8_slab(n):
    # A unit-weight probe counts coverage in uint8 slabs of at most 255 rows.
    # n blob points lie within the blob's diameter of each other, so at that
    # radius or above one column counts all n of them. Far points, after or
    # before the blob, count only themselves, so a count that wrapped would
    # move the argmax; a second blob of 300 makes the per-center decrement
    # count more than 255 rows too. Every probe on a set writes into one
    # reused buffer, and returns what a probe into a fresh buffer returns.
    rng = np.random.default_rng(n)
    blob = rng.integers(0, 2, size=(n, 2)).astype(float)
    far = np.asarray([[40.0, 40.0], [80.0, 0.0]])
    for x in (blob, np.vstack([blob, far]), np.vstack([far, blob]),
              np.vstack([blob, blob[:300] + 20.0])):
        mask = offline._Mask(len(x))
        for metric in (Metric(LINF), Metric(L2)):
            dmat = metric.pairwise(x, x)
            diameter = float(dmat.max())
            radii = (float(metric.pairwise(blob, blob).max()), diameter, 2 * diameter)
            for w in (np.ones(len(x), dtype=np.int64), rng.integers(1, 4, size=len(x))):
                for r in radii:
                    for k in (1, 3):
                        got = offline._probe(dmat, w, k, r, mask)
                        _, centers = ref_feasible(dmat, w, k, 0, r)
                        assert got == (ref_remaining(dmat, w, r, centers), centers), (n, r, k)
                        assert got == offline._probe(dmat, w, k, r, offline._Mask(len(x)))


def test_weighted_probe_allocates_one_slab_at_a_time():
    # A weighted probe sums coverage one slab of at most _SLAB rows at a
    # time. At n = 1500 an n x n float64 cast of the mask is 18 MB; a slab,
    # with its gathered bool rows, stays below 4 MB in every weighted type.
    rng = np.random.default_rng(41)
    x = rng.normal(scale=30.0, size=(1500, 2))
    dmat = Metric(LINF).pairwise(x, x)
    mask = offline._Mask(len(x))
    radii = [float(np.quantile(dmat, q)) for q in (0.01, 0.2, 0.6)]
    for top in (4, 2 ** 30, 2 ** 52):  # float32, float64 and int64 totals
        w = rng.integers(1, top, size=len(x))
        expect = [offline._probe(dmat, w, 3, r, mask) for r in radii]
        tracemalloc.start()
        try:
            got = [offline._probe(dmat, w, 3, r, mask) for r in radii]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expect
        assert peak < 4 * 2 ** 20, (top, peak)


def test_outlier_vector_probes_each_radius_once(monkeypatch, linf):
    # the searches of every budget share one probe memo: each candidate index
    # is probed once, and exactly the indices the unshared searches probe;
    # also on a set above the band cut, whose float coordinates give many
    # distinct radii, with most of the shared probes flipping a band
    rng = np.random.default_rng(23)
    z = 10
    radii, flips = [], []
    orig, orig_flip = offline._probe, offline._Mask._flip
    monkeypatch.setattr(offline, "_probe",
                        lambda *a: radii.append(a[3]) or orig(*a))
    monkeypatch.setattr(offline._Mask, "_flip", lambda *a: flips.append(1) or orig_flip(*a))
    small = random_points(rng, 60, 2, hi=30, cluster_frac=0.5, weights=True)
    for pts in (small, _band_case(rng, LINF, 500, 4, 20, False)[0]):
        n = len(pts)
        expect = ref_outlier_vector(pts, 2, z, linf)
        radii[:] = []
        for j in range(vector_length(z)):
            greedy(pts, 2, (1 << j) - 1, linf)
        unshared, radii[:], flips[:] = list(radii), [], []
        got = outlier_vector(pts, 2, z, linf)
        assert repr(got) == repr(expect)
        assert len(radii) == len(set(radii)) and set(radii) == set(unshared)
        assert len(radii) < len(unshared)
        assert 2 * len(flips) > len(radii) if n * n >= offline._BAND_CUT else not flips, n


def _band_case(rng, kind, n, top, dup, huge):
    """A set of n points above the band cut: clustered floats with many
    distinct distances, weights drawn below ``top`` (None for unit
    weights), ``dup`` repeated points, and, when ``huge``, three points near
    -1.7e308, whose distances to all the others overflow to inf, so one
    center covers both groups only at the inf candidate. Under L-inf the
    others lie from 1.56e308 to 1.7e308; under L2, where any two distinct
    points that far out are at inf, they stay where they are."""
    centers = rng.uniform(0, 400, size=(3, 2))
    x = centers[rng.integers(0, 3, size=n - dup)] + rng.normal(scale=15.0, size=(n - dup, 2))
    x[:12] = rng.uniform(1000, 1400, size=(12, 2))  # far outliers
    if huge:
        if kind == LINF:
            x = 1.7e308 - x * 1e304
        x[-3:] = -1.7e308 + rng.uniform(0, 1e300, size=(3, 2))
    x = np.vstack([x, x[rng.integers(0, n - dup, size=dup)]])
    w = [1] * n if top is None else rng.integers(1, top, size=n).tolist()
    if top is not None and top > 2 ** 52:
        w[0] = 2 ** 53 + 3  # an int64 total
    if kind == EXPLICIT:
        metric = Metric(EXPLICIT, matrix=Metric(L2).pairwise(x, x).tolist())
        pts = [W((float(i),), wt) for i, wt in enumerate(w)]
    else:
        metric = Metric(kind)
        pts = [W(tuple(row), wt) for row, wt in zip(x.tolist(), w)]
    return pts, metric


def _band_calls(ps, k, metric):
    """Several searches on one set, as calls to make in order: outlier
    vectors at z up to 15, then a covering at each of their budgets and at
    budgets between them, then searches at other k. ``greedy`` is looked up
    when a call is made, so a test can wrap it."""
    calls = [lambda: outlier_vector(ps, k, 15, metric), lambda: outlier_vector(ps, k, 5, metric)]
    calls += [lambda b=b: _mbc(ps, k, b, 0.5, metric) for b in (0, 1, 2, 3, 5, 7, 10, 15)]
    calls += [lambda kk=kk, z=z: offline.greedy(ps, kk, z, metric)
              for kk, z in ((1, 0), (1, 2), (k + 1, 4))]
    return calls


def _band_searches(ps, k, metric):
    """The results of ``_band_calls``, by repr."""
    return repr([call() for call in _band_calls(ps, k, metric)])


BAND_CASES = [  # (kind, n, weights below, duplicates, near 1e308)
    (LINF, 450, None, 0, False), (L2, 520, None, 40, False), (EXPLICIT, 460, None, 0, False),
    (LINF, 480, 4, 30, False), (L2, 450, 2 ** 30, 0, False), (LINF, 500, 2 ** 40, 20, False),
    (EXPLICIT, 470, 4, 25, False), (LINF, 700, None, 0, False),
    (LINF, 480, None, 10, True), (L2, 460, 4, 0, True),
]


@pytest.mark.parametrize("case", range(len(BAND_CASES)))
def test_band_probes_match_full_passes(case, monkeypatch):
    # Sets above the band cut, searched several times on one _PointSet, give
    # what the same calls give with full passes only (the cut at infinity),
    # by repr; sampled probes of the banded run match the reference probe.
    # On the sets near 1e308, a band of the inf entries flips them exactly.
    kind, n, top, dup, huge = BAND_CASES[case]
    rng = np.random.default_rng(500 + case)
    pts, metric = _band_case(rng, kind, n, top, dup, huge)
    assert len(pts) ** 2 >= offline._BAND_CUT
    k = 2 + case % 2
    probes, flips = [], []
    orig_probe, orig_flip = offline._probe, offline._Mask._flip
    monkeypatch.setattr(offline, "_probe", lambda *a: probes.append(a[2:4]) or orig_probe(*a))
    monkeypatch.setattr(offline._Mask, "_flip", lambda self, *a: flips.append(
        bool(np.isinf(self.band[1]).any())) or orig_flip(self, *a))
    ps = _PointSet(pts, metric)
    banded = _band_searches(ps, k, metric)
    monkeypatch.setattr(offline, "_BAND_CUT", math.inf)
    flipped, flips[:] = list(flips), []
    assert banded == _band_searches(_PointSet(pts, metric), k, metric)
    assert len(flipped) > 20 and not flips, flipped
    if huge:
        # the searches refuse a band that reaches the inf candidate: it holds
        # the pair radii near the top as well, more than n^2/64 entries. A
        # band of the inf entries alone flips them, as a full pass
        assert np.isinf(ps.cands[-1])
        below = slack_bound(float(ps.cands[-2]))
        mask, flips[:] = offline._Mask(len(ps)), []
        mask.banded(ps.dmat, below, math.inf)
        for r in (ps.cands[-2], math.inf, ps.cands[-2], math.inf):
            got = orig_probe(ps.dmat, ps.weights, 1, float(r), mask)
            assert got == orig_probe(ps.dmat, ps.weights, 1, float(r), offline._Mask(len(ps)))
            assert (mask.within == (ps.dmat <= slack_bound(float(r)))).all()
        assert flips == [True] * 3
    w = ps.weights
    for kk, r in probes[::7]:
        _, centers = ref_feasible(ps.dmat, w, kk, 0, r)
        assert orig_probe(ps.dmat, w, kk, r, offline._Mask(len(ps))) == \
            (ref_remaining(ps.dmat, w, r, centers), centers)
    # a set built by of_rows over the searched set's rows holds no state
    rows = _PointSet.of_rows(ps.wps, ps.coords, metric)
    assert "mask" not in vars(rows)
    assert repr(greedy(rows, k, 6, metric)) == repr(greedy(ps, k, 6, metric))


@pytest.mark.parametrize("case", [0, 5, 8])
def test_a_band_lives_for_one_search(case, monkeypatch):
    # Every greedy search on a set above the band cut asks for a band at
    # most once, and no band is held once a greedy, _mbc or outlier_vector
    # call returns, so a refused band costs at most one partial pass per
    # search. Case 8 lies near 1e308, where the searches refuse bands.
    kind, n, top, dup, huge = BAND_CASES[case]
    pts, metric = _band_case(np.random.default_rng(500 + case), kind, n, top, dup, huge)
    asks, per_search = [], []
    orig_greedy, orig_banded = offline.greedy, offline._Mask.banded

    def search(*a):
        before = len(asks)
        result = orig_greedy(*a)
        per_search.append(len(asks) - before)
        return result

    def banded(mask, *a):
        assert mask.band is None
        orig_banded(mask, *a)
        asks.append(mask.band is not None)
    monkeypatch.setattr(offline, "greedy", search)
    monkeypatch.setattr(mpc, "greedy", search)
    monkeypatch.setattr(offline._Mask, "banded", banded)
    ps = _PointSet(pts, metric)
    for call in _band_calls(ps, 2 + case % 2, metric):
        call()
        assert ps.mask.band is None
    assert len(per_search) == 5 + 4 + 8 + 3  # two outlier vectors, 8 coverings, 3 greedy
    assert max(per_search) == 1 and sum(per_search) == len(asks)
    assert any(asks)
    if huge:
        assert not all(asks)


def test_crowded_band_is_refused(monkeypatch, linf):
    # 450 points of a 15 x 30 integer lattice and 150 float points: each of
    # 16 distances holds more than n^2/64 entries, so a band whose span holds
    # one is refused, and the searches give what full passes give
    rng = np.random.default_rng(7)
    lattice = np.stack(np.meshgrid(np.arange(15.0), np.arange(30.0)), -1).reshape(-1, 2)
    x = np.vstack([lattice, rng.uniform(0, 29, size=(150, 2)).round(3)])
    pts = [W(tuple(row)) for row in x.tolist()]
    cap = len(pts) ** 2 // offline._BAND_SHARE
    refused = []
    orig_banded = offline._Mask.banded

    def banded(mask, dmat, lo, hi):
        orig_banded(mask, dmat, lo, hi)
        if mask.band is None:
            refused.append((lo, hi))
    monkeypatch.setattr(offline._Mask, "banded", banded)

    def searches(ps):
        return repr([(outlier_vector(ps, k, 15, linf),
                      [_mbc(ps, k, b, 0.5, linf) for b in (0, 3, 10)]) for k in (1, 2, 3)])
    ps = _PointSet(pts, linf)
    banded = searches(ps)
    values, counts = np.unique(ps.dmat, return_counts=True)
    crowded = values[counts > cap]
    assert len(crowded) == 16
    assert any(((lo < crowded) & (crowded <= hi)).any() for lo, hi in refused), refused
    monkeypatch.setattr(offline, "_BAND_CUT", math.inf)
    assert banded == searches(_PointSet(pts, linf))


def test_band_search_peaks_below_the_candidate_radii(tmp_path, monkeypatch, linf):
    # At n = 1500 (the offline-mpc benchmark set) a search's peak allocation,
    # its mask buffer and band included, stays below that of building the
    # candidate radii, the largest allocation beside the matrix
    coords = np.asarray(_load_gen().generate("offline-mpc", 1, str(tmp_path))["coords"])
    ps = _PointSet([W(tuple(row)) for row in coords.tolist()], linf)
    ps.dmat
    flips = []
    orig_flip = offline._Mask._flip
    monkeypatch.setattr(offline._Mask, "_flip", lambda *a: flips.append(1) or orig_flip(*a))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ps.cands
        cands_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        greedy(ps, 3, 10, linf)
        search_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(flips) > 10
    assert search_peak < cands_peak, (search_peak, cands_peak)


def test_candidate_radii_match_unique_formula():
    # the row-slice gather and the merge of two sorted runs against np.unique
    # of the triangle's gather, bit for bit
    rng = np.random.default_rng(83)
    cases = [np.zeros((n, n)) for n in (1, 2, 5)]  # every distance zero
    for trial in range(60):
        n = int(rng.integers(1, 90))
        if trial % 3 == 0:
            x = rng.normal(scale=10.0 ** int(rng.integers(-3, 4)), size=(n, 2))
        else:  # a small integer grid: duplicate points and repeated radii
            x = rng.integers(0, 1 + trial % 7, size=(n, 1 + trial % 3)).astype(float)
        metric = Metric(L2 if trial % 2 else LINF)
        cases.append(metric.pairwise(x, x))
    for trial in range(12):
        metric = Metric(L2 if trial % 2 else LINF)
        n = int(rng.integers(2, 40))
        # subnormal distances: halving one rounds it, so a half can equal a
        # pair radius (half of 3 * 5e-324 rounds to 2 * 5e-324); under L2
        # their squares underflow, and every distance is 0
        x = rng.integers(0, 9, size=(n, 1 + trial % 2)) * 5e-324
        cases.append(metric.pairwise(x, x))
        # overflowing distances: inf, whose half is inf, next to finite ones
        x = rng.choice([-1.7e308, -1e308, 0.0, 5e307, 1.7e308], size=(n, 1 + trial % 2))
        cases.append(metric.pairwise(x, x))
    assert any(np.isinf(dmat).any() for dmat in cases)
    assert any(((dmat > 0) & (dmat < np.finfo(float).tiny)).any() for dmat in cases)
    for dmat in cases:
        got = offline._candidate_radii(dmat)
        assert np.array_equal(got.view(np.uint64), ref_candidates(dmat).view(np.uint64))


def test_candidate_radii_of_the_benchmark_set(tmp_path):
    # the 1500 points of the offline-mpc benchmark at seed 1, under both
    # metrics: the largest set the benchmark searches, bit for bit
    coords = np.asarray(_load_gen().generate("offline-mpc", 1, str(tmp_path))["coords"])
    assert coords.shape == (1500, 2)
    for metric in (Metric(LINF), Metric(L2)):
        dmat = metric.pairwise(coords, coords)
        got = offline._candidate_radii(dmat)
        assert np.array_equal(got.view(np.uint64), ref_candidates(dmat).view(np.uint64))


def test_outlier_vector_builds_one_matrix_and_one_candidate_array(monkeypatch, linf):
    rng = np.random.default_rng(17)
    pts = random_points(rng, 30, 2, hi=40, weights=True)
    z = 10
    expect = ref_outlier_vector(pts, 2, z, linf)
    pairwise, sorts = [], []
    orig_pairwise, orig_cands = Metric.pairwise, offline._candidate_radii
    monkeypatch.setattr(Metric, "pairwise",
                        lambda self, a, b: pairwise.append(1) or orig_pairwise(self, a, b))
    counting = lambda dmat: sorts.append(1) or orig_cands(dmat)  # noqa: E731
    monkeypatch.setattr(offline, "_candidate_radii", counting)
    got = outlier_vector(pts, 2, z, linf)
    assert repr(got) == repr(expect) and len(got) == vector_length(z) == 5
    assert (len(pairwise), len(sorts)) == (1, 1)


def test_point_set_searches_equal_fresh_list_calls():
    # one _PointSet searched at k = 1, then at k = 2, each at several z,
    # returns what fresh point lists return: its memo is keyed by (k, index),
    # so a k = 1 verdict is never read by a k = 2 search
    rng = np.random.default_rng(29)
    for trial in range(60):
        pts, _, _, metric = greedy_case(rng, trial)
        ps = _PointSet(pts, metric)
        for k in (1, 2):
            for z in (0, 1, 3, 7):
                got, expect = greedy(ps, k, z, metric), greedy(pts, k, z, metric)
                assert got == expect and repr(got) == repr(expect), (trial, k, z)


def test_net_and_mbc_on_a_point_set_equal_list_calls():
    rng = np.random.default_rng(31)
    for trial in range(60):
        pts, k, z, metric = greedy_case(rng, trial)
        ps = _PointSet(pts, metric)
        for delta in (0.0, 1.0, 2.5):
            assert _net_pair(ps, delta, metric) == _net_pair(pts, delta, metric), (trial, delta)
        for budget in (z, z + 2):
            got, expect = _mbc(ps, k, budget, 0.5, metric), _mbc(pts, k, budget, 0.5, metric)
            assert got == expect and repr(got) == repr(expect), (trial, budget)


def test_mbc_examples(linf):
    cov = mbc_construction(inst1d([7], 1, 0, 1.0, linf))
    assert [(p.point, p.weight) for p in cov.representatives] == [((7.0,), 1)]
    cov = mbc_construction(inst1d([0, 1], 1, 0, 1.0, linf))
    assert [(p.point, p.weight) for p in cov.representatives] == [((0.0,), 1), ((1.0,), 1)]
    assert cov.assignment == (0, 1)


def test_mbc_passes_flow_validation(linf):
    rng = np.random.default_rng(5)
    for _ in range(10):
        pts = random_points(rng, 15, 2, hi=40, weights=True)
        k, z, eps = 2, 2, 0.5
        inst = Instance(tuple(pts), k, z, eps, linf)
        cov = mbc_construction(inst)
        opt = brute_force_opt(inst).radius
        report = check_mini_ball_covering(pts, list(cov.representatives), eps * opt, linf)
        assert report.passed, report
        assert len(cov.representatives) <= mbc_size_bound(k, z, eps, 2)
        # the returned assignment itself is a witness: weights add up and
        # every point sits within the mini-ball radius of its representative
        totals = [0] * len(cov.representatives)
        for i, p in enumerate(pts):
            rep = cov.representatives[cov.assignment[i]]
            assert scalar_distance(linf, p.point, rep.point) <= cov.ball_radius + 1e-9
            totals[cov.assignment[i]] += p.weight
        assert totals == [r.weight for r in cov.representatives]
        # representatives are pairwise separated beyond the mini-ball radius
        if cov.ball_radius > 0:
            reps = cov.representatives
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    assert scalar_distance(linf, reps[i].point, reps[j].point) > cov.ball_radius


def test_mbc_builds_one_distance_matrix(monkeypatch, linf):
    from kcoreset import offline
    rng = np.random.default_rng(9)
    pts = random_points(rng, 40, 2, hi=60, weights=True)
    inst = Instance(tuple(pts), 2, 1, 0.5, linf)
    expect_greedy = greedy(pts, 2, 1, linf)
    expect_reps, _, expect_assignment = offline._net(pts, 0.5 * expect_greedy.radius / 3.0, linf)
    calls = []
    orig = Metric.pairwise
    monkeypatch.setattr(Metric, "pairwise", lambda self, a, b: calls.append(1) or orig(self, a, b))
    cov = mbc_construction(inst)
    assert len(calls) == 1
    assert cov.greedy_radius == expect_greedy.radius
    assert (list(cov.representatives), list(cov.assignment)) == \
        (expect_reps, expect_assignment.tolist())


def _net_pair(points, delta, metric):
    """``_net`` as (representatives, assignment as a list)."""
    reps, _, assignment = _net(points, delta, metric)
    return reps, assignment.tolist()


def scalar_net(points, delta, metric):
    """The former member-by-member net loop, kept as the oracle."""
    n = len(points)
    dmat = metric.pairwise(coords_array(points), coords_array(points))
    slack = REL_TOL * max(1.0, abs(delta))
    assignment = [-1] * n
    reps = []
    remaining = np.ones(n, dtype=bool)
    for i in range(n):
        if not remaining[i]:
            continue
        members = np.flatnonzero(remaining & (dmat[i] <= delta + slack))
        weight = int(sum(points[j].weight for j in members))
        rep_idx = len(reps)
        reps.append(WeightedPoint(points[i].point, weight))
        for j in members:
            assignment[int(j)] = rep_idx
        remaining[members] = False
    return reps, assignment


def test_net_matches_scalar_oracle(monkeypatch):
    rng = np.random.default_rng(53)
    cases = []
    for trial in range(120):
        metric = Metric((LINF, L2)[trial % 2])
        n = int(rng.integers(1, 60))
        pts = random_points(rng, n, 1 + trial % 3, hi=int(rng.integers(2, 40)),
                            cluster_frac=0.5 * (trial % 3), weights=trial % 5 != 0)
        pts += [pts[int(i)] for i in rng.integers(0, n, size=int(rng.integers(0, 6)))]
        coords = coords_array(pts)
        spread = float(metric.pairwise(coords, coords).max())
        # at or above the spread, the first row holds every point
        for delta in (0.0, 1.0, float(rng.uniform(0, 20)), spread, 2 * spread + 1):
            cases.append((pts, delta, metric))
    for trial in range(20):  # all-duplicate sets
        metric = Metric((LINF, L2)[trial % 2])
        loc = tuple(float(v) for v in rng.integers(-9, 9, size=1 + trial % 3))
        pts = [W(loc, int(w)) for w in rng.integers(1, 4, size=int(rng.integers(1, 30)))]
        for delta in (0.0, 1.0):
            cases.append((pts, delta, metric))
    for pts, delta, metric in cases:
        expect = scalar_net(pts, delta, metric)
        reps, _, assignment = _net(pts, delta, metric)
        assert (reps, assignment.tolist()) == expect
        assert assignment.dtype.kind == "i"
        assert all(type(r.weight) is int for r in reps)
        # every case fits one block; then blocks of at most 1, 2 and 3 rows.
        # Each runs on a set whose matrix is built first (the rows are read
        # from it, as in _mbc after greedy) and on one without (they are
        # computed, as in the stream)
        for rows in (None, 1, 2, 3):
            if rows:
                monkeypatch.setattr(offline, "_NET_BLOCK", rows * rows)
            for built in (True, False):
                ps = _PointSet(pts, metric)
                if built:
                    ps.dmat
                assert _net_pair(ps, delta, metric) == expect, (rows, built)
                assert ("dmat" in ps.__dict__) == built
        monkeypatch.undo()


def _blocked_net(pts, delta, metric):
    """``_net`` on a set whose matrix is built, so it takes the blocked path."""
    ps = _PointSet(pts, metric)
    ps.dmat
    return _net_pair(ps, delta, metric)


def _grid_net(pts, delta, metric):
    """The grid path alone, whatever its density check would say:
    (representatives' input indices, assignment), or None past the guard."""
    ps = _PointSet(pts, metric)
    bound = slack_bound(delta)
    digits = _cell_digits(ps.coords, bound * _CELL_MARGIN)
    if digits is None:
        return None
    order, first, sizes, _ = _cell_runs(digits)
    leader, owner = _grid_leaders(ps, bound, order, first, sizes)
    return np.flatnonzero(leader).tolist(), (np.cumsum(leader) - 1)[owner].tolist()


def _spread_cases(rng):
    """L-inf and L2 sets of 1-3 coordinates on a grid of step 0.5, some of
    them clustered, with repeated points and weights 1-3, and deltas from 0
    to a few grid steps. At delta = 0 the bound is 1e-9, so the cells are
    within the guard only near the origin: the set is also scaled by 2^-6."""
    for trial in range(60):
        metric, dim = Metric((LINF, L2)[trial % 2]), 1 + trial % 3
        n = int(rng.integers(1, 300))
        pts = random_points(rng, n, dim, lo=-30 * dim, hi=30 * dim,
                            cluster_frac=0.3 * (trial % 4 == 0), weights=trial % 3 != 0)
        pts = [W(tuple(0.5 * c for c in p.point), p.weight) for p in pts]
        pts += [pts[int(i)] for i in rng.integers(0, n, size=int(rng.integers(0, 8)))]
        for delta in (0.0, 0.5, float(rng.uniform(0.1, 3.0)), 2.0):
            yield pts, delta, metric
        yield [W(tuple(c / 64 for c in p.point), p.weight) for p in pts], 0.0, metric


def _grid_calls(monkeypatch):
    """A list that gains an entry each time ``_net`` takes its grid path."""
    calls = []
    real = offline._grid_leaders

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(offline, "_grid_leaders", counted)
    return calls


def test_grid_net_matches_the_blocked_net(monkeypatch):
    # the grid path against the blocked one, one chunk or many; it returns
    # each representative's input index
    rng = np.random.default_rng(71)
    gridded = _grid_calls(monkeypatch)
    default = offline._NET_BLOCK
    for pts, delta, metric in _spread_cases(rng):
        expect = _blocked_net(pts, delta, metric)
        for block in (30, default):  # the next blocked net runs at the default
            monkeypatch.setattr(offline, "_NET_BLOCK", block)
            reps, firsts, assignment = _net(pts, delta, metric)
            assert (reps, assignment.tolist()) == expect, (len(pts), delta, block)
            assert firsts.tolist() == np.unique(expect[1], return_index=True)[1].tolist()
        grid = _grid_net(pts, delta, metric)
        assert grid is None or grid[1] == expect[1]
    # each of at least 150 of 300 sets, in both chunkings; crowded and tiny
    # sets take the blocked path
    assert len(gridded) >= 2 * 150


@pytest.mark.parametrize("kind", [L2, LINF])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_net_matches_the_blocked_net_on_cell_edges(kind, dim, monkeypatch):
    # points exactly b apart across cell edges: -tiny and b (pairwise puts
    # them b apart, so they join; b + tiny apart exactly, so cells as wide
    # as b, or one ulp narrower, would put them two cells apart), the same
    # mirrored, and shuffled b-lattices with the neighbouring floats of each
    # lattice value, repeats and weights
    metric, rng = Metric(kind), np.random.default_rng(3 + dim)
    delta = 0.75
    b = slack_bound(delta)
    zero = (0.0,) * (dim - 1)
    values = sorted({float(np.nextafter(j * b, s)) for j in range(-3, 4)
                     for s in (-np.inf, 0.0, np.inf)} | {j * b for j in range(-3, 4)})
    grid = np.stack(np.meshgrid(*[values] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    cases = [[W((-5e-324,) + zero), W((b,) + zero)], [W((5e-324,) + zero), W((-b,) + zero)],
             [W((b,) + zero), W((-5e-324,) + zero), W((2 * b,) + zero)]]
    for _ in range(4):
        lattice = rng.permutation(grid)[:300]
        pts = [W(tuple(row), int(w)) for row, w in zip(lattice.tolist(), rng.integers(1, 4, 300))]
        cases.append(pts + pts[:20])
    for pts in cases:
        expect = _blocked_net(pts, delta, metric)
        firsts = np.unique(expect[1], return_index=True)[1].tolist()
        for block in (None, 1, 40):
            if block:
                monkeypatch.setattr(offline, "_NET_BLOCK", block)
            assert _grid_net(pts, delta, metric) == (firsts, expect[1]), (len(pts), block)
            assert _net_pair(pts, delta, metric) == expect
            monkeypatch.undo()
    assert _blocked_net(cases[0], delta, metric)[1] == [0, 0]
    # points without coordinates coincide, and take the blocked path
    assert _net_pair([W(()), W((), 2)], delta, metric) == ([W((), 3)], [0, 0])


@pytest.mark.parametrize("kind", [L2, LINF])
def test_grid_net_falls_back_past_its_guard(kind, monkeypatch):
    # a quotient past the guard sends the whole set to the blocked path,
    # which gives the same net
    metric = Metric(kind)
    delta = 1.0
    edge = _CELL_GUARD * slack_bound(delta) * _CELL_MARGIN
    pts = [W((float(x), 0.0)) for x in range(0, 40, 3)] + [W((edge, 1.0)), W((edge + 0.5, 1.0))]
    gridded = _grid_calls(monkeypatch)
    reps, _, assignment = _net(pts, delta, metric)
    assert not gridded and (reps, assignment.tolist()) == _blocked_net(pts, delta, metric)
    assert assignment.tolist()[-2:] == [len(reps) - 1] * 2
    reps, _, _ = _net(pts[:-2], delta, metric)  # inside the guard: the grid
    assert gridded and len(reps) == len(pts) - 2


def test_grid_net_computes_a_few_distances_per_point(monkeypatch, linf):
    # 4000 spread 2-D points: the grid path computes at most about 20 n
    # distances, all through Metric.paired, where the blocked path computes
    # about n^2 / 2 through Metric.pairwise
    rng = np.random.default_rng(5)
    pts = [W(tuple(row)) for row in rng.uniform(0, 1000, size=(4000, 2)).tolist()]
    counted = Counter()

    def counter(name, real):
        def wrapper(self, a, b):
            out = real(self, a, b)
            counted[name] += out.size
            return out
        return wrapper

    monkeypatch.setattr(Metric, "paired", counter("paired", Metric.paired))
    monkeypatch.setattr(Metric, "pairwise", counter("pairwise", Metric.pairwise))
    reps, _, assignment = _net(pts, 4.0, linf)
    grid = dict(counted)
    counted.clear()
    blocked = offline._blocked_leaders(_PointSet(pts, linf), slack_bound(4.0))
    assert assignment.tolist() == blocked[1].tolist()
    assert grid == {"paired": grid["paired"]} and grid["paired"] <= 20 * len(pts)
    assert counted["pairwise"] >= len(pts) ** 2 / 4 and len(reps) > 3000


def test_update_coreset_examples(linf):
    out = update_coreset([W((0.0,), 2), W((0.2,), 1), W((1.0,), 3)], 0.5, linf)
    assert [(p.point, p.weight) for p in out] == [((0.0,), 3), ((1.0,), 3)]
    dup = update_coreset([W((1.0,)), W((1.0,)), W((2.0,))], 0.0, linf)
    assert [(p.point, p.weight) for p in dup] == [((1.0,), 2), ((2.0,), 1)]
    for delta in (-1.0, math.nan):
        with pytest.raises(InputError, match="delta must be nonnegative"):
            update_coreset([W((0.0,))], delta, linf)


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 3)), min_size=1, max_size=12),
       st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_update_coreset_properties(raw, delta):
    m = Metric(LINF)
    pts = [W((float(x),), w) for x, w in raw]
    out = update_coreset(pts, float(delta), m)
    assert sum(p.weight for p in out) == sum(p.weight for p in pts)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            assert scalar_distance(m, out[i].point, out[j].point) > delta
    again = update_coreset(out, float(delta), m)
    assert [(p.point, p.weight) for p in again] == [(p.point, p.weight) for p in out]


def test_explicit_matrix_through_solvers():
    # five stations on a path metric, by index
    n = 5
    mat = [[abs(i - j) * 2.0 for j in range(n)] for i in range(n)]
    m = Metric("matrix", matrix=mat)
    pts = [W((float(i),)) for i in range(n)]
    inst = Instance(tuple(pts), 2, 1, 1.0, m)
    opt = brute_force_opt(inst).radius
    assert opt == pytest.approx(2.0)  # e.g. centers {1, 3}, drop one endpoint
    res = greedy(pts, 2, 1, m)
    assert res.radius <= 3 * opt + 1e-9
    cov = mbc_construction(inst)
    assert check_mini_ball_covering(pts, list(cov.representatives), 1.0 * opt, m).passed


def test_transitive_composition(linf):
    # gamma-covering of P recompressed at eps*opt stays a covering at
    # (eps + gamma + eps*gamma) * opt.
    rng = np.random.default_rng(9)
    for _ in range(5):
        pts = random_points(rng, 14, 1, hi=30)
        k, z = 2, 1
        gamma, eps = 0.5, 0.5
        inst = Instance(tuple(pts), k, z, gamma, linf)
        opt = brute_force_opt(inst).radius
        first = mbc_construction(inst)
        second = update_coreset(list(first.representatives), eps * opt, linf)
        bound = (eps + gamma + eps * gamma) * opt
        assert check_mini_ball_covering(pts, second, bound, linf).passed


def test_mbc_size_bound_keeps_its_formula_and_refuses_overflow():
    for k, z, eps, d in ((1, 0, 1.0, 1), (2, 1, 0.5, 2), (3, 4, 0.1, 3), (5, 2, 1e-3, 40)):
        assert mbc_size_bound(k, z, eps, d) == k * (12.0 / eps) ** d + z
    # the power overflows, 12/eps is inf, k does not fit a float
    for k, eps, d in ((1, 1e-200, 2), (1, 0.5, 1000), (1, 1e-308, 1), (10**400, 1.0, 1)):
        with pytest.raises(InputError, match=r"size bound k\*\(12/eps\)\^d overflows"):
            mbc_size_bound(k, 0, eps, d)
