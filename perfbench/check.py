"""Independent output checker for the benchmark.

The program's own validators are what the ``validate-small`` workload
measures, so they cannot vouch for the program's outputs. Everything here is
computed apart from the package under test, with numpy and scipy only:

- ``cost``: k-center-with-outliers cost of a fixed center set (L-infinity);
- ``covering_ok``: does a partition of P into balls of a given radius around
  the weighted representatives exist? Decided as a transportation problem by
  ``scipy.sparse.csgraph.maximum_flow``;
- ``cell_histogram`` / ``live_multiset``: the dynamic workload's exact
  per-level cell counts, replayed from the update block.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

TOL = 1e-9


def slack(x):
    """Absolute tolerance for a comparison against ``x`` (relative, unit floor)."""
    return TOL * max(1.0, abs(x))


def linf(a, b):
    """L-infinity distance matrix between the rows of a and b."""
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)


def cost(coords, weights, centers, z):
    """Smallest r such that the weight at distance > r from every center is <= z."""
    near = linf(coords, centers).min(axis=1)
    order = np.argsort(-near, kind="stable")
    dropped = np.cumsum(np.asarray(weights, dtype=np.int64)[order])
    first_kept = int(np.searchsorted(dropped, z, side="right"))
    return 0.0 if first_kept >= len(near) else float(near[order[first_kept]])


def nearest_rep_distance(coords, reps):
    """Largest distance from an input point to its nearest representative."""
    return float(linf(coords, reps).min(axis=1).max())


def reachable(coords, reps, bound):
    return linf(coords, reps) <= bound + slack(bound)


def covering_ok(coords, weights, reps, rep_weights, bound):
    """True iff every unit of input weight can be sent to a representative
    within ``bound`` while each representative receives exactly its weight.

    Returns (ok, number of reachable (point, representative) pairs)."""
    w = np.asarray(weights, dtype=np.int64)
    wq = np.asarray(rep_weights, dtype=np.int64)
    if w.sum() != wq.sum():
        return False, 0
    reach = reachable(coords, reps, bound)
    n, m = reach.shape
    src, sink = n + m, n + m + 1
    pi, qj = np.nonzero(reach)
    rows = np.concatenate([np.full(n, src), pi, n + np.arange(m)])
    cols = np.concatenate([np.arange(n), n + qj, np.full(m, sink)])
    caps = np.concatenate([w, w[pi], wq]).astype(np.int32)
    graph = csr_matrix((caps, (rows, cols)), shape=(n + m + 2, n + m + 2))
    flow = maximum_flow(graph, src, sink).flow_value
    return int(flow) == int(w.sum()), int(len(pi))


def center_set_gaps(coords, weights, reps, rep_weights, center_sets, z):
    """|cost(P, C) - cost(P*, C)| for each center set C."""
    return [abs(cost(coords, weights, c, z) - cost(reps, rep_weights, c, z)) for c in center_sets]


def coreset_errors(coords, reps, rep_weights, center_sets, z, q, U, where):
    """Weight, location and center-set checks shared by every construction
    whose representatives are input points. Returns a list of failures."""
    errors = []
    n = len(coords)
    if int(np.sum(rep_weights)) != n:
        errors.append(f"{where}: representative weight {int(np.sum(rep_weights))} != {n}")
    locations = {tuple(p) for p in np.asarray(coords, dtype=float).tolist()}
    if any(tuple(r) not in locations for r in np.asarray(reps, dtype=float).tolist()):
        errors.append(f"{where}: a representative is not an input location")
    gaps = center_set_gaps(coords, np.ones(n, dtype=np.int64), reps, rep_weights, center_sets, z)
    if max(gaps) > q * U + slack(q * U):
        errors.append(f"{where}: center-set cost gap {max(gaps)} > q*U = {q * U}")
    return errors


def cell_of(point, level):
    return tuple((int(c) - 1) >> level for c in point)


def cell_center(cell, level):
    side = 1 << level
    return tuple(v * side + (side + 1) / 2.0 for v in cell)


def live_multiset(ops):
    """Net count per point after the ops; raises on a deletion of an absent point."""
    live = Counter()
    for sign, point in ops:
        point = tuple(point)
        if sign < 0 and live[point] <= 0:
            raise ValueError(f"deletion of absent point {point}")
        live[point] += sign
        if live[point] == 0:
            del live[point]
    return live


def cell_histogram(live, level):
    """Nonempty cells at ``level`` with their exact counts."""
    hist = Counter()
    for point, c in live.items():
        hist[cell_of(point, level)] += c
    return hist


def report_errors(live, report_level, report_points, where):
    """A dynamic report must equal the cell histogram at its level exactly."""
    expected = sorted((cell_center(cell, report_level), c)
                      for cell, c in cell_histogram(live, report_level).items())
    got = sorted((tuple(float(v) for v in p), int(w)) for p, w in report_points)
    if got != expected:
        return [f"{where}: report at level {report_level} differs from the cell histogram "
                f"({len(got)} vs {len(expected)} cells)"]
    return []


def finest_level(live, s, levels):
    """Finest level with at most s nonempty cells."""
    for lv in range(levels):
        if len(cell_histogram(live, lv)) <= s:
            return lv
    return levels - 1


def center_set_count(coords, k):
    """C(|U|, k) for the input-point universe (distinct locations)."""
    distinct = len({tuple(p) for p in np.asarray(coords, dtype=float).tolist()})
    return math.comb(distinct, min(k, distinct))
