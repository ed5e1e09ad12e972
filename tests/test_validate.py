import os
import subprocess
import sys

import numpy as np
import pytest

from kcoreset import (
    InputError, Instance, WeightedPoint, brute_force_opt, check_coreset,
    check_mini_ball_covering, evaluate_cost, explicit_universe, input_points_universe,
    materialize_universe, mbc_construction, midpoint_grid_universe,
)
from kcoreset.validate import uncovered_weight
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


def test_import_does_not_load_networkx():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-c", "import kcoreset, sys; assert 'networkx' not in sys.modules"],
                   check=True, env=env, timeout=60)


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
