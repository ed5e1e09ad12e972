"""Every construction, checked over the midpoint grid at its claimed quality.

The paper places the k centers anywhere in the metric space. Under L-inf the
midpoint grid holds an optimal center of every cluster, so ``check_coreset``
over it decides the coreset conditions for centers anywhere; at d = 1, L2 is
L-inf. The claimed qualities:

- the insertion stream and the dynamic report (exact mode): eps;
- two-round and one-round: 3 * eps;
- R-round: (1 + eps)^R - 1;
- the offline mini-ball covering: 2 * eps. The greedy's disks are centered
  on input points, so its feasibility radius is at most the optimum over
  input-point centers, which can be twice the optimum over centers anywhere.
  The covering holds at eps for centers among the input points only
  (``test_offline_covering_holds_at_two_eps_over_the_grid``).

Every set has d = 1 or k = 1, so each enumeration stays far below
``SUBSET_CAP``.
"""

import numpy as np
import pytest

from kcoreset import (
    DynamicCoresetState, InsertionStream, Instance, L2, LINF, Metric, MpcConfig,
    WeightedPoint, brute_force_opt, check_coreset, greedy, input_points_universe,
    mbc_construction, midpoint_grid_universe, random_dist, run_one_round_randomized,
    run_r_round, run_two_round,
)
from kcoreset.validate import EXPANDED_COVER_FAILS

GRID = midpoint_grid_universe()
DELTA = 1024  # the dynamic grid [DELTA]; every coordinate is an integer in it


def _constructions(pts, coords, k, z, eps, metric, trial):
    """(name, coreset, claimed quality) for each construction on one set."""
    d = coords.shape[1]
    yield "mbc", mbc_construction(Instance(tuple(pts), k, z, eps, metric)).representatives, 2 * eps
    stream = InsertionStream(k, z, eps, d, metric)
    for p in pts:
        stream.arrival(p.point)
    yield "stream", stream.report(), eps
    machines = 2 + trial % 3
    yield "two-round", run_two_round(pts, k, z, eps, MpcConfig(machines), metric).final, 3 * eps
    yield "one-round", run_one_round_randomized(
        pts, k, z, eps, MpcConfig(machines, random_dist(trial)), metric).final, 3 * eps
    rounds = 2 + trial % 2
    yield "r-round", run_r_round(pts, k, z, eps, rounds, MpcConfig(4), metric).final, \
        (1 + eps) ** rounds - 1
    if d == 1:
        dyn = DynamicCoresetState(DELTA, 1, k, z, eps, seed=trial, with_sketches=False,
                                  with_shadow=True)
        for (c,) in coords.tolist():
            dyn.update((c,), 1)
        yield "dynamic", dyn.report(exact=True).points, eps


def test_every_construction_holds_its_claimed_quality_over_the_grid():
    rng = np.random.default_rng(2026)
    checked = {}
    for trial in range(90):
        kind, d = ((LINF, 1), (LINF, 2), (L2, 1))[trial % 3]
        metric = Metric(kind)
        k = 1 if d == 2 else 1 + (trial // 3) % 2
        z = int(rng.integers(0, 4))
        eps = (1.0, 0.5, 0.25)[(trial // 6) % 3]
        n = int(rng.integers(z + 3, 13 if d == 2 else 25))
        coords = rng.integers(1, DELTA + 1 if d == 1 else 65, size=(n, d))
        pts = [WeightedPoint(tuple(float(c) for c in row)) for row in coords.tolist()]
        for name, coreset, quality in _constructions(pts, coords, k, z, eps, metric, trial):
            report = check_coreset(pts, list(coreset), k=k, z=z, epsilon=quality,
                                   metric=metric, universe=GRID)
            assert report.passed, (trial, name, kind, d, k, z, eps, report)
            checked[name] = checked.get(name, 0) + 1
    assert checked == {"mbc": 90, "stream": 90, "two-round": 90, "one-round": 90,
                       "r-round": 90, "dynamic": 60}


def test_offline_covering_holds_at_two_eps_over_the_grid():
    # Five points on the line, k = 1, z = 3, eps = 1. The greedy's
    # feasibility radius is a pair distance, twice the optimum over the
    # grid, whose center is a midpoint. The covering passes at eps over the
    # input points and at 2 * eps over the grid, and fails at eps over the
    # grid. Centering the greedy's disks anywhere would close this gap.
    xs = (-0.0016764577625487834, 0.10461169268474993, 0.09826856141947019,
          0.07581339732282238, 0.052073899589344906)
    pts = [WeightedPoint((x,)) for x in xs]
    metric = Metric(LINF)
    coreset = list(mbc_construction(Instance(tuple(pts), 1, 3, 1.0, metric)).representatives)
    assert len(coreset) == 4
    r_f = greedy(pts, 1, 3, metric).feasibility_radius
    opt = brute_force_opt(Instance(tuple(pts), 1, 3, 1.0, metric), GRID).radius
    assert r_f == pytest.approx(2 * opt)

    def check(quality, universe):
        return check_coreset(pts, coreset, k=1, z=3, epsilon=quality, metric=metric,
                             universe=universe)

    assert check(1.0, input_points_universe()).passed
    assert check(2.0, GRID).passed
    report = check(1.0, GRID)
    assert (report.passed, report.violated_condition) == (False, EXPANDED_COVER_FAILS)
    assert report.witness.startswith("centers ((0.10461169268474993,),): expanding by "
                                     "eps*opt(P)=0.0031715656326398722")
