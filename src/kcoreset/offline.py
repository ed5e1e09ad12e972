"""Offline constructions: the greedy 3-approximation for k-center with
outliers, the delta-net recompression and the mini-ball covering with its
size bound. The exhaustive oracles that check them are in ``validate.py``.

Everything here is a pure function of immutable inputs. "Arbitrary point"
choices are pinned to first-in-input-order so every run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .metric import (
    Ball,
    Metric,
    REL_TOL,
    WeightedPoint,
    _check_counts,
    _size_bound,
    _unchecked_point,
    as_weighted,
    coords_array,
    weights_array,
)

_EXACT_FLOAT32 = 2 ** 24  # float32 holds every integer below this exactly
_EXACT_FLOAT = 2 ** 53  # float64 holds every integer below this exactly
_NET_BLOCK = 1 << 16  # most distances in one row block of _net
_SLAB = 255  # most mask rows summed at once: a uint8 count of 255 fits


@dataclass(frozen=True)
class Instance:
    """A k-center-with-outliers instance: weighted points plus (k, z, epsilon)."""

    points: tuple
    k: int
    z: int
    epsilon: float
    metric: Metric

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(as_weighted(self.points)))
        _check_counts(self.k, self.z)
        if not (0 < self.epsilon <= 1):
            raise InputError("epsilon must be in (0, 1]")
        if not self.points:
            raise InputError("instance needs at least one point")
        if sum(wp.weight for wp in self.points) <= self.z:
            raise InputError("total weight must exceed z (instance is vacuous)")
        dims = {len(wp.point) for wp in self.points}
        if len(dims) != 1:
            raise InputError("points have mixed dimensions")


class GreedyResult(NamedTuple):
    radius: float          # radius of the reported balls (3x feasibility radius)
    balls: tuple
    feasibility_radius: float
    vacuous: bool = False


@dataclass(frozen=True)
class MiniBallCovering:
    """Weighted representatives plus the witnessing assignment.

    ``assignment[i]`` is the index into ``representatives`` for the i-th input
    point. ``ball_radius`` is the mini-ball radius used by the construction
    (epsilon * greedy_radius / 3).
    """

    representatives: tuple
    assignment: tuple
    epsilon: float
    ball_radius: float
    greedy_radius: float


def _column_sums(mask: np.ndarray, rows: np.ndarray | None = None,
                 weights: np.ndarray | None = None) -> np.ndarray:
    """The column sums of the mask's rows at ``rows`` (an index array; None
    for every row), each row scaled by its entry of ``weights``, or counted
    when ``weights`` is None. The rows are read one slab of at most
    ``_SLAB`` at a time, so no call makes a temporary larger than a slab.

    A count is a slab's 0/1 bytes summed in uint8, which cannot wrap, and
    added into int32. A weighted sum is the product of a slab's weights with
    the slab cast to the weights' type, added into that type. The caller
    picks a type that holds every integer up to the weights' total exactly,
    so every partial sum is exact in any summation order."""
    ones = mask.view(np.uint8)
    sums = np.zeros(mask.shape[1], dtype=np.int32 if weights is None else weights.dtype)
    for lo in range(0, len(ones) if rows is None else len(rows), _SLAB):
        slab = ones[lo:lo + _SLAB] if rows is None else ones.take(rows[lo:lo + _SLAB], axis=0)
        if weights is None:
            sums += np.add.reduce(slab, axis=0, dtype=np.uint8)
        else:
            sums += weights[lo:lo + _SLAB] @ slab.astype(sums.dtype)
    return sums


def _probe(dmat: np.ndarray, weights: np.ndarray, k: int, r: float,
           mask: np.ndarray | None = None):
    """One round-robin of the greedy disk heuristic at guess radius r.

    Picks, k times, the input point whose radius-r ball covers maximum
    uncovered weight (ties: lowest index), then marks everything within 3r of
    it covered. Returns (uncovered weight left, chosen center indices).
    Neither depends on an outlier budget: only the verdict ``remaining <= z``
    does, so one probe serves every z (``_PointSet.probe``).

    One n x n mask, ``within_r``, is written per probe, into ``mask`` when
    it is given (an n x n bool buffer; ``_PointSet`` keeps one per set), else
    into a new array. Coverage (uncovered weight in each point's r-ball; a
    count when every weight is 1) is computed once, then kept up to date:
    after center c, the newly covered points are the uncovered ones in c's
    3r-row, and each drops out of every r-ball that holds it. After the last
    center, or once nothing is left uncovered, coverage is not updated. The
    first coverage and the updates are column sums of ``within_r``
    (``_column_sums``), which read its columns as rows, so ``dmat`` must be
    symmetric bit for bit: ``Metric.pairwise(X, X)`` is, for L2 and L-inf,
    and an explicit matrix is validated as symmetric.

    Coverage is exact in one of four types, the narrowest that holds it. A
    count is at most n: uint8 slab counts added into int32. Integer weights
    are summed in slabs cast to float32 while their total is below 2^24, to
    float64 while it is below 2^53, and to int64 from 2^53 on. Below each
    cut every partial sum is an integer the type holds exactly, so the sums,
    and so the argmax and its ties, are those of any exact arithmetic.
    """
    slack = REL_TOL * max(1.0, abs(r))
    within_r = np.less_equal(dmat, r + slack, out=mask)
    remaining = int(weights.sum())
    unit = remaining == len(weights)  # weights are integers >= 1, so all are 1
    if unit:
        uncovered = np.ones(len(weights), dtype=bool)
        coverage = _column_sums(within_r)
    else:
        uncovered = weights.astype(np.float32 if remaining < _EXACT_FLOAT32 else
                                   np.float64 if remaining < _EXACT_FLOAT else np.int64)
        coverage = _column_sums(within_r, weights=uncovered)
    centers = []
    for i in range(k):
        c = int(coverage.argmax())
        centers.append(c)
        newly = ((dmat[c] <= 3 * r + 3 * slack) & (uncovered > 0)).nonzero()[0]
        gone = None if unit else uncovered[newly]
        remaining -= int(len(newly) if unit else gone.sum())
        if i == k - 1 or remaining == 0:  # coverage is not read again
            break
        coverage -= _column_sums(within_r, newly, gone)
        uncovered[newly] = 0
    return remaining, centers


def _starts(values: np.ndarray) -> np.ndarray:
    """For a sorted array, a bool mask of the entries that differ from their
    left neighbour, the first entry included."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _candidate_radii(dmat: np.ndarray) -> np.ndarray:
    """The sorted distinct values of 0, every pair radius and every half pair
    radius, bit-identical to ``np.unique`` of all three.

    The pair radii are gathered row by row from the upper triangle, sorted
    in place and made distinct, which is what ``np.unique`` does, without
    its copy. 0, the distinct radii and their halves are written into one
    buffer as two sorted runs, which a stable sort merges in linear time
    before equal neighbours are dropped again.

    The two compactions keep the first of each run of equal values
    (``_starts``). The first drops about half of the gather in no pattern,
    where a take by index is several times faster than boolean indexing;
    ``mode="clip"`` writes into the buffer unbuffered. The second keeps
    nearly every value, where boolean indexing is fastest and needs no
    index array. The gather is freed before the merge, so at most the gather,
    the buffer and one index array are alive at once."""
    pair = np.concatenate([dmat[i, i + 1:] for i in range(len(dmat))])
    pair.sort()
    first = _starts(pair).nonzero()[0]
    m = len(first)
    runs = np.empty(2 * m + 1)
    runs[0] = 0.0
    u = pair.take(first, out=runs[1:m + 1], mode="clip")
    del pair, first
    np.divide(u, 2.0, out=runs[m + 1:])
    runs.sort(kind="stable")
    return runs[_starts(runs)]


class _PointSet:
    """A weighted point set and what the greedy search and the net read of
    it: the coordinates, the distance matrix, the candidate radii and the
    probes' mask buffer, each built on first use, and a memo of probes keyed
    by (k, candidate index).
    A probe does not depend on an outlier budget, so searches on one set at
    several z probe a radius once, and a later search at a z already
    searched makes no probe.

    The input is normalized by one ``as_weighted`` pass, and the weights and
    coordinates are read from that list. (``InsertionStream`` alone sets
    ``coords`` to rows of its own array before the set's only use, a
    ``_net`` call; see ``streaming.py``.)"""

    def __init__(self, points, metric: Metric):
        self.wps = as_weighted(points)
        self.weights = weights_array(self.wps)
        self.metric = metric
        self._memo = {}

    def __len__(self) -> int:
        return len(self.wps)

    @cached_property
    def coords(self) -> np.ndarray:
        return coords_array(self.wps)

    @cached_property
    def dmat(self) -> np.ndarray:
        return self.metric.pairwise(self.coords, self.coords)

    def rows(self, i, j) -> np.ndarray:
        """Distances from the points at ``i`` to the points at ``j``, each an
        index array or a slice. They are read from the matrix once it is
        built, else computed with one ``pairwise`` call, whose entries have
        the matrix's bits. A slice of a built matrix is returned as a view,
        so the result is read-only to the caller."""
        dmat = self.__dict__.get("dmat")
        if dmat is None:
            return self.metric.pairwise(self.coords[i], self.coords[j])
        if isinstance(i, slice) or isinstance(j, slice):
            return dmat[i, j]
        return dmat[np.ix_(i, j)]

    @cached_property
    def cands(self) -> np.ndarray:
        return _candidate_radii(self.dmat)

    @cached_property
    def mask(self) -> np.ndarray:
        """The n x n bool buffer that every probe on this set writes its
        mask into."""
        return np.empty((len(self), len(self)), dtype=bool)

    def probe(self, k: int, i: int):
        """``_probe`` with k centers at candidate radius i, memoized."""
        if (k, i) not in self._memo:
            self._memo[k, i] = _probe(self.dmat, self.weights, k, float(self.cands[i]), self.mask)
        return self._memo[k, i]


def _point_set(points, metric: Metric) -> _PointSet:
    """``points`` itself when it is a ``_PointSet``, else a new one over it."""
    return points if isinstance(points, _PointSet) else _PointSet(points, metric)


def greedy(points, k: int, z: int, metric: Metric) -> GreedyResult:
    """Greedy 3-approximation for weighted k-center with z outliers.

    Candidate radii are 0, all pairwise distances, and all half pairwise
    distances; a binary search finds the smallest feasible candidate r and the
    reported balls have radius 3r. The centers are those of the probe at r;
    only when the search never probed r (the top candidate, feasible since
    one ball reaches every point) is it probed at the end. Returns radius 0
    and no balls when the total weight is at most z (vacuous instance:
    everything is an outlier).

    ``points`` is a point list or a ``_PointSet``. Searches on one
    ``_PointSet`` share its matrix, candidate radii and probe memo. A search
    still visits the same candidate indices and reads the same verdicts, so
    the result is the one a fresh point list gives.
    """
    _check_counts(k, z)
    ps = _point_set(points, metric)
    if int(ps.weights.sum()) <= z:
        return GreedyResult(0.0, (), 0.0, vacuous=True)
    cands = ps.cands
    lo, hi = 0, len(cands) - 1
    centers = None  # the centers of the probe at cands[hi], once hi has moved
    while lo < hi:
        mid = (lo + hi) // 2
        remaining, probed = ps.probe(k, mid)
        if remaining <= z:
            hi, centers = mid, probed
        else:
            lo = mid + 1
    r_f = float(cands[lo])
    if centers is None:
        remaining, centers = ps.probe(k, lo)
        if remaining > z:  # cannot happen: the top candidate is feasible
            raise AssertionError("greedy binary search ended on an infeasible radius")
    radius = 3.0 * r_f
    balls = tuple(Ball(ps.wps[c].point, radius) for c in centers)
    return GreedyResult(radius, balls, r_f)


def _net(points, delta: float, metric: Metric):
    """Greedy delta-net in input order.

    Repeatedly takes the first remaining point q and merges every remaining
    point within distance delta of q (inclusive) into q, summing weights.
    Returns (representatives, assignment) where assignment[i] is the
    representative index of input point i. A representative whose net holds
    only itself is its input ``WeightedPoint``, not a copy. ``points`` is a
    point list or a ``_PointSet``, whose rows (``_PointSet.rows``) are read.

    The input is walked in blocks. A point belongs to the first
    representative within delta of it, and every representative before a
    block lies in an earlier block. So one row block, the representatives so
    far against the block, assigns each point it covers to its first hit.
    The block's other points then run the leader loop over their own
    distances: each in turn, if still free, becomes a representative and
    takes the free points it covers. A block has at most sqrt(_NET_BLOCK)
    points, and at most _NET_BLOCK / r of them once there are r
    representatives, so no row block holds more than about ``_NET_BLOCK``
    distances. Every comparison reads the entry (representative, point) of
    the full matrix, so the result is the one the full matrix gives.
    """
    ps = _point_set(points, metric)
    n = len(ps)
    if n == 0:
        return [], []
    bound = delta + REL_TOL * max(1.0, abs(delta))
    assignment = np.full(n, -1, dtype=np.intp)
    firsts = []  # input index of each representative
    side = max(1, math.isqrt(_NET_BLOCK))
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, min(side, _NET_BLOCK // max(1, len(firsts)))))
        free, block = slice(lo, hi), range(lo, hi)
        lo = hi
        if firsts:
            within = ps.rows(np.asarray(firsts), free) <= bound
            hit = within.argmax(axis=0)
            covered = within[hit, np.arange(len(block))]
            assignment[free][covered] = hit[covered]
            if covered.any():
                free = np.flatnonzero(~covered) + block.start
                block = free.tolist()
                if not block:
                    continue
        local = ps.rows(free, free) <= bound
        # a row that covers no other point of the block needs no scan
        shared = (local.sum(axis=1, dtype=np.int32) > local.diagonal()).tolist()
        owner = [-1] * len(block)
        for a, i in enumerate(block):
            if owner[a] >= 0:
                continue
            owner[a] = rep = len(firsts)
            firsts.append(i)
            if shared[a]:
                for b in local[a].nonzero()[0].tolist():
                    if owner[b] < 0:
                        owner[b] = rep
        assignment[free] = owner
    weights = np.zeros(len(firsts), dtype=np.int64)
    np.add.at(weights, assignment, ps.weights)
    wps = ps.wps
    reps = [wps[i] if wps[i].weight == wt else _unchecked_point(wps[i].point, wt)
            for i, wt in zip(firsts, weights.tolist())]
    return reps, assignment.tolist()


def update_coreset(points, delta: float, metric: Metric) -> list[WeightedPoint]:
    """Recompress a weighted set to a delta-net (first-in-input-order greedy)."""
    if delta < 0:
        raise InputError("delta must be nonnegative")
    reps, _ = _net(points, delta, metric)
    return reps


def _mbc(points, k: int, z: int, epsilon: float, metric: Metric) -> MiniBallCovering:
    """Mini-ball covering construction without Instance validation.

    The covering is a coreset at eps for centers among the input points, and
    at 2 * eps for centers anywhere in the metric space. The mini-ball radius
    is eps * r_f, where r_f is the greedy's feasibility radius. Its disks are
    centered on input points, so r_f is at most the optimum over input-point
    centers, which can be twice the optimum over centers anywhere.

    Used internally where vacuous sub-instances (total weight <= z) are
    legitimate, e.g. on starved MPC machines; those reduce to a radius-0 net.
    The greedy search and the net run on one ``_PointSet``, so one distance
    matrix serves both. On a ``_PointSet`` already searched at z, the search
    reads every verdict from its memo and makes no probe.
    """
    ps = _point_set(points, metric)
    result = greedy(ps, k, z, metric)
    delta = epsilon * result.radius / 3.0
    reps, assignment = _net(ps, delta, metric)
    return MiniBallCovering(
        representatives=tuple(reps),
        assignment=tuple(assignment),
        epsilon=epsilon,
        ball_radius=delta,
        greedy_radius=result.radius,
    )


def mbc_construction(inst: Instance) -> MiniBallCovering:
    """Mini-ball covering of an instance (size at most k*(12/eps)^d + z for
    declared doubling dimension d)."""
    return _mbc(list(inst.points), inst.k, inst.z, inst.epsilon, inst.metric)


def mbc_size_bound(k: int, z: int, epsilon: float, d: int) -> float:
    return _size_bound(k, 12.0, epsilon, d, "size bound k*(12/eps)^d") + z
