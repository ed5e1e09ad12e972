"""Deterministic one-pass insertion-only streaming coreset maintainer.

The state keeps a lower-bound estimate r of the optimal radius and a weighted
representative set. An arrival is a point with a weight (1 unless given): the
first representative (in insertion order) within (eps/2)*r takes its weight,
else it is appended with that weight. Once the set reaches k*(16/eps)^d + z,
r doubles and the set is recompressed to a (eps/2)*r net until it shrinks
below the threshold.

Next to the representative list ``pstar`` the state keeps one buffer,
``_coords``, whose first m = ``len(pstar)`` rows hold the representatives'
coordinates in ``pstar``'s order. It grows by doubling up to the threshold,
so the stream holds O(threshold * (d+1)) words.

An arrival that can join a representative is scanned against ``_coords``
with one ``Metric.pairwise`` call, and the first row within the bound
b = (eps/2)*r + slack is found with a mask and ``argmax``, so the
first-in-insertion-order rule is kept exactly. While the points' spread
grows, most arrivals cannot join one, and a cell-occupancy filter appends
those without the scan. The filter is a set ``_cells`` holding the cell of
each representative, in a grid of cubes of width w = b*(1 + 2^-20) along
each of the points' D coordinates (D is the coordinate count, not the
declared d). An arrival whose 3^D neighbouring cells are all empty is
appended at once; any other arrival is scanned as before. The set is
rebuilt whenever r changes (the first estimate, and once after the
recompressions an arrival triggers), and each new representative adds its
cell. It holds one entry per representative, so at most threshold entries.

The filter is exact. A point's cell is (floor(fl(c_j / w)))_j, computed
only while every quotient satisfies |fl(c_j / w)| < 2^30 (the guard); with
u = 2^-53, a representative q with ``pairwise(p, q) <= b`` lies in one of
the 3^D cells around p:

1. |p_j - q_j| <= b*(1 + 4u) for every j. Under L-inf the entry is
   max_j |fl(p_j - q_j)|. Under L2 it is fl(sqrt(s)), where s is a float sum
   of the nonnegative squares fl(fl(p_j - q_j)^2) and so at least each of
   them; an L2 ball lies inside the L-inf ball of the same radius. A
   rounded result x' of x has |x| <= |x'| / (1 - u), so the difference,
   square and root roundings give at most the factor (1 - u)^(-5/2) <
   1 + 4u. b >= 1e-9, so an underflowing square, off by at most 2^-1074,
   changes nothing at this precision, and an overflowing difference or
   square gives inf, which is never <= b.
2. So the exact quotients x = p_j/w and y = q_j/w differ by at most
   (1 + 4u) / ((1 + 2^-20)*(1 - u)) < 1 - 2^-21, and by the guard each
   computed quotient is within u*2^30*(1 + u) < 2^-22 of the exact one:
   X = fl(x) and Y = fl(y) satisfy |X - Y| < 1.
3. floor(X) - floor(Y) >= 2 would need X - Y > 1, so the cells differ by at
   most 1 in each coordinate.

``_pack`` packs a cell in base 2^32 (Horner over the coordinates). Each
digit, and each neighbour's, has magnitude at most 2^30 + 1 < 2^31, so the
balanced representation is unique, and a neighbour's key is the point's key
plus a fixed offset, ``_OFFSETS[D]``. The point's own cell is looked up
first: an arrival that joins a representative most often finds it there,
and then pays one lookup. The cell arithmetic computes no distance:
``pairwise`` stays the one distance kernel.

The full scan of every arrival stays for explicit metrics (points are
matrix indices), for r = 0, for D above ``_CELL_MAX_DIM`` (where, as
measured, the 3^D lookups cost more than the scans they save) and for an
arrival with a quotient past the guard. A representative past the guard
turns the filter off until r next changes.

The filter pays only where arrivals skip the scan. A skipped arrival saves
a scan, 10 to 15 us on a 2-vCPU machine; a scanned one pays about 1 us for
its key and lookups. Once r settles, nearly every arrival joins a
representative. So the stream counts the arrivals the filter skipped and
scanned since the last rebuild. Once ``_CELL_TRIAL`` were scanned and fewer
than one was skipped per ``_CELL_PAYBACK`` scanned, the filter is turned
off until r next changes.

No distance matrix is kept. A recompression hands ``_net`` a ``_PointSet``
of ``pstar`` whose coordinates are ``_coords[:m]`` itself, read in place
rather than copied from the representatives. The set computes the distances
it reads one row block at a time (at most about 2^16 of them at once). The
stream then gathers ``_coords`` down to the kept rows.

Single-writer: one arrival at a time; reports may be taken between arrivals.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InputError
from .metric import (
    EXPLICIT, Metric, REL_TOL, WeightedPoint, _check_counts, _size_bound, _unchecked_point,
    min_pairwise_distance,
)
from .offline import _PointSet, _net

_CELL_MARGIN = 1.0 + 2.0**-20  # a cell's width over the scan bound
_CELL_GUARD = 2.0**30          # cells are kept only while every |c / width| is below it
_CELL_BASE = 1 << 32           # key digit base: above 2 * (guard + 1)
_CELL_MAX_DIM = 3              # above it the 3^D lookups cost more than the scans they save
_CELL_TRIAL = 64               # scans of arrivals with a key before the filter is judged
_CELL_PAYBACK = 8              # the filter stays on while it skips one arrival per this many scans


def size_threshold(k: int, z: int, epsilon: float, d: int) -> int:
    what = "size threshold k*(16/eps)^d"
    t = _size_bound(k, 16.0, epsilon, d, what)
    if t > 2**53:
        raise InputError(f"{what} overflows; use a larger epsilon")
    return int(math.floor(t)) + z


def _pack(digits) -> int:
    """The key of a cell given by its integer digits: base ``_CELL_BASE``,
    first coordinate most significant. A Python int, since three digits
    overflow int64."""
    key = 0
    for digit in digits:
        key = key * _CELL_BASE + digit
    return key


# the key offsets of a cell's 3^D neighbours, the cell itself first
_OFFSETS = {
    dim: tuple(_pack(step) for step in itertools.product((0, -1, 1), repeat=dim))
    for dim in range(1, _CELL_MAX_DIM + 1)
}


class InsertionStream:
    """Streaming (eps,k,z)-coreset over a metric of declared doubling dimension d."""

    def __init__(self, k: int, z: int, epsilon: float, d: int, metric: Metric):
        _check_counts(k, z)
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
        self._cells = None  # the representatives' cell keys, or None when the filter is off
        self._width = self._offsets = None  # the cells' width; _OFFSETS[D]
        self._skips = self._scans = 0  # filtered arrivals skipped and scanned since the rebuild
        self.arrivals = 0

    def arrival(self, point, weight: int = 1) -> None:
        """One arrival of ``point`` carrying ``weight``. It equals ``weight``
        unit arrivals: after the first, the point is in (or is) the
        representative that the rest of the weight joins, so neither the set
        nor r moves."""
        new = WeightedPoint(point, weight)
        point = new.point
        if self.pstar and len(point) != len(self.pstar[0].point):
            raise InputError("arrival dimension mismatch")
        self.arrivals += weight
        cells = self._cells
        key = None if cells is None else self._cell(point)
        if key is not None and self._isolated(key):
            i = None  # no representative's cell neighbours the point's
            self._skips += 1
        else:
            i = self._first_within(point, self._bound())
            if key is not None:
                self._scans += 1
                if self._scans >= _CELL_TRIAL and self._skips * _CELL_PAYBACK < self._scans:
                    self._cells = cells = None  # it costs more than it saves until r changes
        if i is not None:
            rep = self.pstar[i]
            self.pstar[i] = _unchecked_point(rep.point, rep.weight + weight)
        else:
            self._append(point)
            self.pstar.append(new)
            if cells is not None:
                if key is None:
                    self._cells = None  # a representative past the guard
                else:
                    cells.add(key)

        r0 = self.r
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

        if self.r != r0:
            self._index()

    def _bound(self) -> float:
        """The scan bound b: (eps/2)*r with its rounding slack."""
        limit = (self.epsilon / 2.0) * self.r
        return limit + REL_TOL * max(1.0, limit)

    def _index(self) -> None:
        """Rebuild ``_cells`` for the current r, or leave the filter off
        where the module docstring says the full scan stays."""
        self._cells = None
        self._skips = self._scans = 0
        m, dim = len(self.pstar), len(self.pstar[0].point)
        if self.r == 0.0 or self.metric.kind == EXPLICIT or dim > _CELL_MAX_DIM:
            return
        width = self._bound() * _CELL_MARGIN
        quotients = self._coords[:m] / width
        if not (np.abs(quotients) < _CELL_GUARD).all():
            return
        self._width, self._offsets = width, _OFFSETS[dim]
        self._cells = {_pack(row) for row in np.floor(quotients).astype(np.int64).tolist()}

    def _cell(self, point):
        """The key of point's cell, or None if a quotient is past the guard."""
        width, digits = self._width, []
        for c in point:
            q = c / width
            if not -_CELL_GUARD < q < _CELL_GUARD:
                return None
            digits.append(math.floor(q))
        return _pack(digits)

    def _isolated(self, key: int) -> bool:
        """Whether the 3^D cells around the cell of ``key`` are all empty."""
        cells = self._cells
        for offset in self._offsets:
            if key + offset in cells:
                return False
        return True

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
