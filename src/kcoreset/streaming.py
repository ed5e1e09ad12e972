"""Deterministic one-pass insertion-only streaming coreset maintainer.

The state keeps a lower-bound estimate r of the optimal radius and a weighted
representative set. A new arrival is absorbed by the first representative (in
insertion order) within (eps/2)*r, else appended with weight 1. Once the set
reaches k*(16/eps)^d + z, r doubles and the set is recompressed to a
(eps/2)*r net until it shrinks below the threshold.

Next to the representative list ``pstar`` the state keeps one buffer,
``_coords``, whose first m = ``len(pstar)`` rows hold the representatives'
coordinates in ``pstar``'s order. It grows by doubling up to the threshold,
so the stream holds O(threshold * (d+1)) words. An arrival is scanned
against ``_coords`` with one ``Metric.pairwise`` call, and the first row
within (eps/2)*r is found with a mask and ``argmax``, so the
first-in-insertion-order rule is kept exactly.

No distance matrix is kept. A recompression hands ``_net`` a ``_PointSet``
of ``pstar`` whose coordinates are ``_coords[:m]`` itself, read in place
rather than copied from the representatives. The set computes the distances
it reads one row block at a time (at most about 2^16 of them at once). The
stream then gathers ``_coords`` down to the kept rows.

Single-writer: one arrival at a time; reports may be taken between arrivals.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .metric import (
    Metric, REL_TOL, WeightedPoint, _size_bound, _unchecked_point, min_pairwise_distance,
)
from .offline import _PointSet, _net


def size_threshold(k: int, z: int, epsilon: float, d: int) -> int:
    what = "size threshold k*(16/eps)^d"
    t = _size_bound(k, 16.0, epsilon, d, what)
    if t > 2**53:
        raise InputError(f"{what} overflows; use a larger epsilon")
    return int(math.floor(t)) + z


class InsertionStream:
    """Streaming (eps,k,z)-coreset over a metric of declared doubling dimension d."""

    def __init__(self, k: int, z: int, epsilon: float, d: int, metric: Metric):
        if k < 1 or z < 0:
            raise InputError("need k >= 1 and z >= 0")
        if not (0 < epsilon <= 1):
            raise InputError("epsilon must be in (0, 1]")
        if d < 1:
            raise InputError("declared doubling dimension must be >= 1")
        self.k, self.z, self.epsilon, self.d = k, z, epsilon, d
        self.metric = metric
        self.threshold = size_threshold(k, z, epsilon, d)
        self.r = 0.0
        self.pstar: list[WeightedPoint] = []
        self._coords = None  # rows [:len(pstar)] hold the representatives' coordinates
        self.arrivals = 0

    def arrival(self, point) -> None:
        new = WeightedPoint(point)
        point = new.point
        if self.pstar and len(point) != len(self.pstar[0].point):
            raise InputError("arrival dimension mismatch")
        self.arrivals += 1
        limit = (self.epsilon / 2.0) * self.r
        slack = REL_TOL * max(1.0, limit)
        i = self._first_within(point, limit + slack)
        if i is not None:
            rep = self.pstar[i]
            self.pstar[i] = _unchecked_point(rep.point, rep.weight + 1)
        else:
            self._append(point)
            self.pstar.append(new)

        if self.r == 0.0 and len(self.pstar) >= self.k + self.z + 1:
            self.r = min_pairwise_distance(self.pstar, self.metric) / 2.0

        while len(self.pstar) >= self.threshold:
            self.r *= 2.0
            delta = (self.epsilon / 2.0) * self.r
            # the set reads the representatives' rows in place; the stream
            # writes them only once _net has returned
            ps = _PointSet(self.pstar, self.metric)
            ps.coords = self._coords[:len(self.pstar)]
            assert ps.coords.shape == (len(self.pstar), len(self.pstar[0].point))
            reps, assignment = _net(ps, delta, self.metric)
            _, keep = np.unique(assignment, return_index=True)  # each rep is its net's first point
            self._coords[:len(keep)] = self._coords[keep]
            self.pstar = reps

    def weighted_arrival(self, wp: WeightedPoint) -> None:
        """``wp.weight`` arrivals of ``wp.point`` in one scan.

        After one arrival of the point, some representative lies within
        (eps/2)*r of it: the one that absorbed it, or the point itself, or,
        if its arrival filled the set, its representative in the last net (an
        arrival adds at most one representative, so only the last of the
        recompressions it triggers merges any). Each later arrival joins the
        first such representative without changing the set or r, so that
        one takes the remaining weight at once."""
        self.arrival(wp.point)
        if wp.weight > 1:
            limit = (self.epsilon / 2.0) * self.r
            i = self._first_within(wp.point, limit + REL_TOL * max(1.0, limit))
            rep = self.pstar[i]
            self.pstar[i] = _unchecked_point(rep.point, rep.weight + wp.weight - 1)
            self.arrivals += wp.weight - 1

    def _first_within(self, point, bound):
        """The index of the first representative within ``bound`` of point,
        or None if there is none."""
        m = len(self.pstar)
        if not m:
            return None
        row = self.metric.pairwise(np.asarray([point]), self._coords[:m])[0]
        i = int((row <= bound).argmax())
        return i if row[i] <= bound else None

    def _append(self, point) -> None:
        """Store a new representative's coordinates."""
        m = len(self.pstar)
        if self._coords is None:
            self._coords = np.empty((16, len(point)))  # 16 <= threshold
        elif m == len(self._coords):
            coords = self._coords
            self._coords = np.empty((min(2 * m, self.threshold), len(point)))
            self._coords[:m] = coords
        self._coords[m] = point

    def extend(self, points) -> None:
        for p in points:
            self.arrival(p)

    def report(self) -> list[WeightedPoint]:
        return list(self.pstar)
