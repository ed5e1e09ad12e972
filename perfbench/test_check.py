"""Tests of the benchmark's independent checker.

    python3 -m pytest perfbench/test_check.py -q     (or: python3 perfbench/test_check.py)

Each part of the checker gets one hand-computed case it must accept and one
corrupted case it must reject.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402

# Two unit-spaced pairs on a line plus one outlier at 100.
P = [(0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (11.0, 0.0), (100.0, 0.0)]
ONES = np.ones(len(P), dtype=np.int64)


def test_cost_by_hand():
    # centers at 0 and 10: nearest distances 0, 1, 0, 1, 90
    assert check.cost(P, ONES, [(0.0, 0.0), (10.0, 0.0)], z=1) == 1.0
    assert check.cost(P, ONES, [(0.0, 0.0), (10.0, 0.0)], z=0) == 90.0
    assert check.cost(P, ONES, [(0.0, 0.0)], z=5) == 0.0


def test_covering_accepts_hand_built_covering():
    reps, weights = [(0.0, 0.0), (10.0, 0.0), (100.0, 0.0)], [2, 2, 1]
    ok, edges = check.covering_ok(P, ONES, reps, weights, 1.0)
    assert ok
    assert edges == 5  # each point reaches exactly one representative


def test_covering_rejects_moved_weight():
    # same locations, but the pair at 10..11 is credited to the rep at 0
    ok, _ = check.covering_ok(P, ONES, [(0.0, 0.0), (10.0, 0.0), (100.0, 0.0)], [4, 0, 1], 1.0)
    assert not ok
    # and a radius just below the nearest-representative distance
    assert not check.covering_ok(P, ONES, [(0.0, 0.0), (10.0, 0.0), (100.0, 0.0)], [2, 2, 1],
                                 0.999)[0]


def test_coreset_errors_accept_and_reject():
    sets = [[(0.0, 0.0), (10.0, 0.0)], [(1.0, 0.0), (100.0, 0.0)]]
    good = check.coreset_errors(P, [(0.0, 0.0), (10.0, 0.0), (100.0, 0.0)], [2, 2, 1],
                                sets, z=1, q=1.0, U=1.0, where="good")
    assert good == []
    # whole cluster {10, 11} moved onto the representative at 0
    bad = check.coreset_errors(P, [(0.0, 0.0), (100.0, 0.0)], [4, 1],
                               sets, z=1, q=1.0, U=1.0, where="bad")
    assert any("center-set cost gap" in e for e in bad)
    assert check.coreset_errors(P, [(0.5, 0.0)], [5], sets, 1, 1.0, 1.0, "x")[0].endswith(
        "not an input location")


def test_dynamic_histogram_accepts_and_rejects():
    ops = [(1, (1, 1)), (1, (2, 2)), (1, (5, 5)), (-1, (2, 2)), (1, (2, 1))]
    live = check.live_multiset(ops)
    assert live == {(1, 1): 1, (5, 5): 1, (2, 1): 1}
    # level 1 cells have side 2: (1,1) and (2,1) share cell (0,0), center (1.5, 1.5)
    report = [[(1.5, 1.5), 2], [(5.5, 5.5), 1]]
    assert check.report_errors(live, 1, report, "ok") == []
    assert check.report_errors(live, 1, [[(1.5, 1.5), 3]], "bad") != []
    assert check.finest_level(live, 2, 11) == 1


def test_live_multiset_rejects_absent_deletion():
    try:
        check.live_multiset([(1, (3,)), (1, (4,)), (-1, (7,))])
    except ValueError:
        return
    raise AssertionError("deletion of an absent point was accepted")


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
