import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from kcoreset import (
    CapacityError, InputError, Instance, ValidationReport, WeightedPoint, brute_force_opt,
    check_coreset, check_mini_ball_covering, evaluate_cost, explicit_universe,
    input_points_universe, materialize_universe, mbc_construction, midpoint_grid_universe,
)
from kcoreset import validate
from kcoreset.metric import L2, LINF, Metric, coords_array, weights_array
from kcoreset.validate import _center_set_costs, _lex_combination, uncovered_weight
from kcoreset.validate import (
    COVERING_DISTANCE, RADIUS_BAND_LOW, WEIGHT_MISMATCH, WEIGHT_RESTRICTION,
)
from conftest import random_points, scalar_distance, unit_assignment_exists

W = WeightedPoint


def test_mini_ball_examples(linf):
    P = [W((0.0,)), W((1.0,))]
    identity = check_mini_ball_covering(P, P, 0.0, linf)
    assert identity.passed
    failed = check_mini_ball_covering(P, [W((0.0,), 2)], 0.5, linf)
    assert not failed.passed and failed.violated_condition == COVERING_DISTANCE
    ok = check_mini_ball_covering(P, [W((0.0,), 2)], 1.0, linf)
    assert ok.passed
    assert check_mini_ball_covering([], [], 0.0, linf).passed  # nothing to cover


VALIDATE_REFUSALS = {
    "a pass that names a condition": (lambda m: ValidationReport(True, "x"), InputError,
                                      "passed must hold"),
    "negative covering bound": (
        lambda m: check_mini_ball_covering([W((0.0,))], [W((0.0,))], -1.0, m),
        InputError, "bound must be nonnegative"),
    "covering weight past the cap": (
        lambda m: check_mini_ball_covering([W((0.0,), validate._WEIGHT_CAP + 1)],
                                           [W((0.0,), validate._WEIGHT_CAP + 1)], 0.0, m),
        CapacityError, "exceeds validation cap"),
    "coreset check on an empty set": (lambda m: check_coreset([], [W((0.0,))], 1, 0, 0.5, m),
                                      InputError, "must be nonempty"),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_REFUSALS))
def test_validate_refusals(case, linf):
    make, error, message = VALIDATE_REFUSALS[case]
    with pytest.raises(error, match=message):
        make(linf)


def test_mini_ball_weight_mismatch(linf):
    P = [W((0.0,)), W((1.0,))]
    rep = check_mini_ball_covering(P, [W((0.0,), 3)], 1.0, linf)
    assert not rep.passed and rep.violated_condition == WEIGHT_MISMATCH


def test_mini_ball_rep_must_be_input_location(linf):
    with pytest.raises(InputError):
        check_mini_ball_covering([W((0.0,))], [W((0.5,))], 1.0, linf)


def test_mini_ball_rejects_mixed_dimensions(linf, l2):
    for metric in (linf, l2):
        with pytest.raises(InputError, match="mixed dimensions"):
            check_mini_ball_covering([W((0, 0)), W((1,))], [W((0, 0), 2)], 1.0, metric)
        with pytest.raises(InputError, match="mixed dimensions"):
            check_mini_ball_covering([W((0, 0)), W((1, 1, 1))], [W((0, 0)), W((1, 1, 1))],
                                     0.0, metric)


def test_mini_ball_on_overflowing_distances_warns_nothing(linf, l2):
    # an inf distance is past every finite bound: that pair is unreachable,
    # and no overflow warning escapes (CI runs the suite with -W error)
    far = [W((-1.7e308,)), W((1.7e308,))]
    for metric in (linf, l2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_mini_ball_covering(far, far, 1.0, metric).passed
            rep = check_mini_ball_covering(far, [W((-1.7e308,), 2)], 1e308, metric)
        assert not rep.passed and rep.violated_condition == COVERING_DISTANCE
        assert rep.witness == "point (1.7e+308,) has no representative within 1e+308"


def test_flow_checker_matches_unit_assignment_oracle(linf):
    rng = np.random.default_rng(17)
    checked_both_ways = [0, 0]
    for _ in range(120):
        n = int(rng.integers(2, 7))
        pts = [W((float(rng.integers(0, 8)),), int(rng.integers(1, 3))) for _ in range(n)]
        locs = sorted({p.point for p in pts})
        n_reps = int(rng.integers(1, len(locs) + 1))
        chosen = [locs[i] for i in rng.choice(len(locs), size=n_reps, replace=False)]
        total = sum(p.weight for p in pts)
        splits = rng.multinomial(total - n_reps, [1 / n_reps] * n_reps) + 1
        reps = [W(loc, int(w)) for loc, w in zip(chosen, splits)]
        bound = float(rng.integers(0, 6))
        got = check_mini_ball_covering(pts, reps, bound, linf).passed
        want = unit_assignment_exists(pts, reps, bound, linf)
        assert got == want
        checked_both_ways[int(got)] += 1
    assert min(checked_both_ways) > 5  # both outcomes exercised


def test_flow_finds_no_saturating_assignment_when_every_point_reaches(linf):
    # every point has a representative within bound, so only the max-flow
    # can reject: the representatives' weights do not fit the reachability
    rng = np.random.default_rng(29)
    rejected = 0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        pts = [W((float(rng.integers(0, 10)),), int(rng.integers(1, 4))) for _ in range(n)]
        locs = sorted({p.point for p in pts})
        n_reps = int(rng.integers(1, len(locs) + 1))
        chosen = [locs[i] for i in rng.choice(len(locs), size=n_reps, replace=False)]
        total = sum(p.weight for p in pts)
        splits = rng.multinomial(total - n_reps, [1 / n_reps] * n_reps) + 1
        reps = [W(loc, int(w)) for loc, w in zip(chosen, splits)]
        bound = float(rng.integers(0, 5))
        if not all(any(scalar_distance(linf, p.point, q.point) <= bound for q in reps)
                   for p in pts):
            continue
        got = check_mini_ball_covering(pts, reps, bound, linf)
        assert got.passed == unit_assignment_exists(pts, reps, bound, linf)
        if not got.passed:
            rejected += 1
            assert got.violated_condition == COVERING_DISTANCE
            assert got.witness.startswith("no saturating assignment: point ")
            assert any(f"point {p.point} keeps" in got.witness for p in pts)
    assert rejected >= 10


def _import_leaves_out(module):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = f"import kcoreset, sys; assert {module!r} not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_import_does_not_load_networkx():
    _import_leaves_out("networkx")


def test_import_does_not_load_scipy():
    # only the maximum flow of check_mini_ball_covering needs scipy, and no
    # CLI command calls it
    _import_leaves_out("scipy")


def test_check_coreset_identity(linf):
    P = [W((float(x),)) for x in [1, 2, 3, 4]]
    for eps in (0.1, 0.5, 1.0):
        rep = check_coreset(P, P, k=2, z=1, epsilon=eps, metric=linf,
                            universe=midpoint_grid_universe())
        assert rep.passed


def test_check_coreset_merged_far_point_fails(linf):
    # {1,2,3,4} with 3 merged into 4: opt drops from 1/2 to 0 over the
    # midpoint grid, violating the lower radius band at eps=1/2 (oracle
    # verdict; full enumeration agrees).
    P = [W((float(x),)) for x in [1, 2, 3, 4]]
    Ps = [W((1.0,), 1), W((2.0,), 1), W((4.0,), 2)]
    rep = check_coreset(P, Ps, k=2, z=1, epsilon=0.5, metric=linf,
                        universe=midpoint_grid_universe())
    assert not rep.passed
    assert rep.violated_condition == RADIUS_BAND_LOW


def test_check_coreset_weight_restriction(linf):
    P = [W((float(x),)) for x in [1, 2, 3]]
    inflated = [W((1.0,), 2), W((2.0,), 1), W((3.0,), 1)]
    rep = check_coreset(P, inflated, k=1, z=0, epsilon=1.0, metric=linf)
    assert not rep.passed and rep.violated_condition == WEIGHT_RESTRICTION


def test_overflowing_distances_are_input_errors(linf, l2):
    # the points of the README's overflow example: a NaN gap once let a
    # failing coreset pass, and the oracle's costs were inf
    P = [W((x,)) for x in (-1.7e308, -1e308, 0.0, 5e307, 1e308, 1.7e308)]
    Ps = [W((-1.7e308,)), W((-1e308,), 2), W((5e307,)), W((1e308,)), W((1.7e308,))]
    for metric in (linf, l2):
        with pytest.raises(InputError, match="overflows"):
            check_coreset(P, Ps, 2, 0, 0.5, metric)
        with pytest.raises(InputError, match="overflows"):
            brute_force_opt(Instance(tuple(P), 2, 0, 0.5, metric))
        with pytest.raises(InputError, match="overflows"):
            evaluate_cost(P, [(1.7e308,)], 0, metric)
        with pytest.raises(InputError, match="overflows"):
            uncovered_weight(P, [(-1.7e308,)], 1.0, metric)


def test_a_midpoint_past_the_float_range_is_an_input_error(linf):
    P = [W((1e308,)), W((1.7e308,)), W((0.0,))]
    with pytest.raises(InputError, match="midpoint"):
        materialize_universe(P, midpoint_grid_universe())
    with pytest.raises(InputError, match="midpoint"):
        check_coreset(P, P, 1, 0, 0.5, linf, midpoint_grid_universe())


@pytest.mark.parametrize("centers", [[(float("nan"),)], [(0.0,), (float("inf"),)], []])
def test_bad_explicit_universes_are_input_errors(centers):
    # refused where the universe is built, so neither the oracle nor the
    # checker ever enumerates it
    with pytest.raises(InputError, match="center"):
        explicit_universe(centers)


@pytest.mark.parametrize("center", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_centers_are_input_errors(linf, center):
    P = [W((0.0,)), W((1.0,))]
    with pytest.raises(InputError, match="finite"):
        uncovered_weight(P, [(center,)], 1.0, linf)
    with pytest.raises(InputError, match="finite"):
        evaluate_cost(P, [(0.0,), (center,)], 0, linf)


def test_mbc_outputs_are_coresets(linf):
    # every construction output passes the full Definition-1 check at eps
    rng = np.random.default_rng(23)
    for _ in range(8):
        pts = random_points(rng, 12, 1, hi=40, weights=True)
        k, z, eps = 2, 1, 0.5
        inst = Instance(tuple(pts), k, z, eps, linf)
        cov = mbc_construction(inst)
        rep = check_coreset(pts, list(cov.representatives), k=k, z=z, epsilon=eps,
                            metric=linf, universe=input_points_universe())
        assert rep.passed, rep


def test_union_property(linf):
    # split P in two, allocate z_i as each part's true outlier count under a
    # fixed global optimum, and check the union of per-part coverings
    rng = np.random.default_rng(31)
    for _ in range(6):
        pts = random_points(rng, 14, 1, hi=40)
        k, z, eps = 2, 2, 0.5
        inst = Instance(tuple(pts), k, z, eps, linf)
        sol = brute_force_opt(inst)
        outlier = [
            min(scalar_distance(linf, p.point, c) for c in sol.centers) > sol.radius + 1e-9
            for p in pts
        ]
        half = len(pts) // 2
        parts = [pts[:half], pts[half:]]
        flags = [outlier[:half], outlier[half:]]
        union = []
        for part, fl in zip(parts, flags):
            z_i = sum(w.weight for w, f in zip(part, fl) if f)
            cov = mbc_construction(Instance(tuple(part), k, z_i, eps, linf)) \
                if sum(p.weight for p in part) > z_i else None
            if cov is None:
                from kcoreset.offline import _mbc
                cov = _mbc(part, k, z_i, eps, linf)
            union.extend(cov.representatives)
        assert check_mini_ball_covering(pts, union, eps * sol.radius, linf).passed


def lex_combinations(m: int, k: int):
    """The k-combinations of range(m) in lexicographic order, by rank,
    decoded a block at a time: returns ``block(start, stop)``, the
    combinations of ranks start..stop-1 as a (stop - start, k) index array.
    The enumeration decoded every block of ranks so before it costed its
    sets from tables of minima; kept as the reference of the one-rank
    decoder ``validate._lex_combination`` and of that enumeration.

    Rank i is decoded as N = C(m, k) - 1 - i written greedily as
    sum_j C(x_j, k-j) with x_0 > x_1 > ...: x_j is the largest x with
    C(x, k-j) <= N (one ``searchsorted`` over the whole block), N loses
    C(x_j, k-j), and c_j = m - 1 - x_j. The last position needs no search:
    C(x, 1) = x, so x_{k-1} is what is left of N. Table r (r = k..2) holds
    C(x, r) for x = r-1, r, ..., each capped at C(m, k), and stops at x = m
    or at its first entry >= C(m, k), whichever comes first: N stays below
    both, so the search never runs off a table. The cap keeps the tables
    small when C(m, k) is: at k = m - 1 they hold O(m) entries in all, not
    O(k m).
    """
    total = math.comb(m, k)
    tables = []
    for r in range(k, 1, -1):
        row = []
        for x in range(r - 1, m + 1):
            row.append(min(math.comb(x, r), total))
            if row[-1] >= total:
                break
        tables.append(np.array(row, dtype=np.int64))

    def block(start: int, stop: int) -> np.ndarray:
        left = (total - 1) - np.arange(start, stop, dtype=np.int64)
        combos = np.empty((len(left), k), dtype=np.intp)
        for j, table in enumerate(tables):
            t = np.searchsorted(table, left, side="right") - 1  # x_j = k-j-1 + t
            left -= table[t]
            combos[:, j] = (m - k + j) - t
        combos[:, k - 1] = (m - 1) - left  # x_{k-1} = N
        return combos

    return block


def _itertools_block(m, k, start, stop):
    combos = list(itertools.islice(itertools.combinations(range(m), k), start, stop))
    return np.array(combos, dtype=np.intp).reshape(len(combos), k)


def test_lex_combinations_match_itertools():
    # every rank, in blocks of 1, 7 and all sets, so blocks start and stop
    # at every offset of the enumeration; the one-rank decoder at every rank
    for m in range(1, 13):
        for k in range(1, m + 1):
            block = lex_combinations(m, k)
            n_sets = math.comb(m, k)
            for size in (1, 7, n_sets):
                for start in range(0, n_sets, size):
                    stop = min(start + size, n_sets)
                    got = block(start, stop)
                    assert got.dtype == np.intp
                    assert np.array_equal(got, _itertools_block(m, k, start, stop)), (m, k, start)
            walk = list(itertools.combinations(range(m), k))
            assert [_lex_combination(m, k, i) for i in range(n_sets)] == walk, (m, k)


def test_block_size_changes_no_cost(linf, monkeypatch):
    # blocks of 1 set and of 7 sets straddle every boundary the default
    # blocks do not; each cost keeps its bits
    rng = np.random.default_rng(41)
    for n, k in ((40, 2), (20, 3)):
        P = random_points(rng, n, 2, hi=30, cluster_frac=0.5, weights=True)
        Ps = P[: n // 3]
        default, _ = _center_set_costs([P, Ps], k, 2, linf, None)
        for sets_per_block in (1, 7):
            monkeypatch.setattr(validate, "_BLOCK_DISTANCES", sets_per_block * n)
            costs, _ = _center_set_costs([P, Ps], k, 2, linf, None)
            for got, want in zip(costs, default):
                assert got.tobytes() == want.tobytes(), (n, k, sets_per_block)
        monkeypatch.undo()


def gathered_center_set_costs(point_sets, k, z, metric, universe):
    """The enumeration before the tables of minima, kept as the reference:
    each block of ranks is decoded by ``lex_combinations``, and the k rows
    of the distance matrix that a set names are gathered and their minimum
    peeled."""
    cands = materialize_universe(point_sets[0], universe or input_points_universe())
    k = min(k, len(cands))
    n_sets = math.comb(len(cands), k)
    carr = np.asarray(cands, dtype=float).reshape(len(cands), -1)
    dists = [validate._finite_distances(metric, carr, coords_array(wps)) for wps in point_sets]
    weights = [weights_array(wps) for wps in point_sets]
    costs = [np.empty(n_sets) for _ in point_sets]
    subsets = lex_combinations(len(cands), k)
    per_block = max(1, (1 << 16) // max(len(w) for w in weights))
    for start in range(0, n_sets, per_block):
        combos = subsets(start, min(start + per_block, n_sets))
        for d, w, out in zip(dists, weights, costs):
            nearest = d[combos[:, 0]]  # (block, n), a copy
            for col in combos.T[1:]:
                np.minimum(nearest, d[col], out=nearest)
            out[start:start + len(combos)] = validate._cost_batch(nearest, w, z)
    return costs


@pytest.mark.parametrize("kind", [LINF, L2])
def test_tables_of_minima_match_the_gather_loop(kind, monkeypatch):
    # every 1 <= k <= m <= 12 over an explicit universe of m centers; P and
    # P* are weighted and of one size n, so a block of 1 set, of 7 sets and
    # the default block apply to both. Each level j = 1..k-1 is used in
    # turn: forced by the table budget where a table of C(m, j) rows is no
    # larger than the C(m, k) sets, and set directly past that, where the
    # budget never picks it
    metric = Metric(kind)
    rng = np.random.default_rng(47)
    n = 9
    default_block = validate._BLOCK_DISTANCES
    for m in range(1, 13):
        cells = rng.choice(400, size=m, replace=False)
        universe = explicit_universe([(float(c // 20), float(c % 20)) for c in cells])
        P = random_points(rng, n, 2, hi=20, cluster_frac=0.5, weights=True)
        Ps = random_points(rng, n, 2, hi=20, weights=True)
        for k in range(1, m + 1):
            z = k % 4
            want = gathered_center_set_costs([P, Ps], k, z, metric, universe)
            for level in range(1, max(1, k - 1) + 1):
                budget = sum(math.comb(m, j) * n for j in range(2, level + 1))
                monkeypatch.setattr(validate, "_TABLE_DISTANCES", budget)
                if math.comb(m, level) <= math.comb(m, k) or level == 1:
                    assert validate._table_level(m, k, n) == level, (m, k, level)
                else:
                    assert validate._table_level(m, k, n) == max(1, m - k), (m, k, level)
                    monkeypatch.setattr(validate, "_table_level", lambda *_, j=level: j)
                for block in (n, 7 * n, default_block):
                    monkeypatch.setattr(validate, "_BLOCK_DISTANCES", block)
                    costs, _ = _center_set_costs([P, Ps], k, z, metric, universe)
                    for got, ref in zip(costs, want):
                        assert got.tobytes() == ref.tobytes(), (m, k, level, block)
                monkeypatch.undo()


def test_tables_of_minima_stay_within_their_budget(linf):
    # 40 centers over 5000 points at k = 3: T_2 would hold C(40, 2) * 5000 =
    # 3.9M distances (31 MB), past the budget, so the sets are costed from
    # the distance matrix itself and the peak is that matrix and the buffers
    rng = np.random.default_rng(53)
    P = [W(tuple(map(float, p)), int(w))
         for p, w in zip(rng.integers(0, 1000, size=(5000, 2)), rng.integers(1, 3, size=5000))]
    centers = [tuple(map(float, c)) for c in rng.choice(1000, size=(40, 2), replace=False)]
    universe = explicit_universe(centers)
    tracemalloc.start()
    try:
        (costs,), centers_of = _center_set_costs([P], 3, 1, linf, universe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix, block = 40 * 5000 * 8, validate._BLOCK_DISTANCES * 8
    assert peak < 1.5 * (matrix + block), peak
    assert validate._table_level(40, 3, 5000) == 1
    for i in (0, 4321, len(costs) - 1):
        assert costs[i] == evaluate_cost(P, centers_of(i), 1, linf)


def test_witness_is_decoded_from_its_rank(linf):
    # the one-rank decode equals walking the combinations up to the rank;
    # C(25, 10) is past SUBSET_CAP, so there only the decoder is enumerated
    rng = np.random.default_rng(43)
    for m, k in ((200, 2), (60, 3), (25, 10)):
        n_sets = math.comb(m, k)
        ranks = [0, n_sets - 1] + [int(i) for i in rng.integers(0, n_sets, size=4)]
        walks = [next(itertools.islice(itertools.combinations(range(m), k), i, None))
                 for i in ranks]
        block = lex_combinations(m, k)
        assert [tuple(block(i, i + 1)[0]) for i in ranks] == walks
        assert [_lex_combination(m, k, i) for i in ranks] == walks
        if n_sets <= validate.SUBSET_CAP:
            P = [W((float(x),)) for x in range(m)]
            _, centers = _center_set_costs([P], k, 0, linf, None)
            assert [centers(i) for i in ranks] == \
                [tuple((float(c),) for c in walk) for walk in walks]


def test_decoder_tables_stay_linear_at_k_one_below_m():
    # k = m - 1 = 1999: a table of k^2 binomials would be 32 MB of int64.
    # The one-rank decoder keeps no table; its walk takes at most m + k steps
    m, k = 2000, 1999
    tracemalloc.start()
    try:
        block = lex_combinations(m, k)
        first, last = block(0, 16), block(m - 16, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert np.array_equal(first, _itertools_block(m, k, 0, 16))
    assert np.array_equal(last, [np.delete(np.arange(m), m - 1 - i) for i in range(m - 16, m)])
    for i in (0, 1, 7, m // 2, m - 2, m - 1):
        assert _lex_combination(m, k, i) == tuple(np.delete(np.arange(m), m - 1 - i).tolist())
