"""Deterministic one-pass insertion-only streaming coreset maintainer.

The state keeps a lower-bound estimate r of the optimal radius and a weighted
representative set. An arrival is a point with a weight (1 unless given): the
first representative (in insertion order) within (eps/2)*r takes its weight,
else it is appended with that weight. Once the set reaches k*(16/eps)^d + z,
r doubles and the set is recompressed to a (eps/2)*r net until it shrinks
below the threshold.

Next to the representative list ``pstar`` the state keeps one buffer,
``_coords``, whose first m = ``len(pstar)`` rows hold the representatives'
coordinates in ``pstar``'s order, and the scan's three buffers of as many
entries: ``_row`` (distances), ``_diff`` (a coordinate's terms) and ``_hit``
(verdicts). They grow together by doubling up to the threshold, so the
stream holds O(threshold * (d+1)) words.

An arrival's point is built once: its coordinates are converted to floats,
and ``metric._point`` builds it with no second check when its weight is a
positive int and its coordinates are finite; any other arrival goes
through ``WeightedPoint``, which refuses it.

An arrival that can join a representative is scanned against ``_coords``
with one ``Metric.row`` call, which takes the arrival's coordinate tuple as
it is and writes the distances into ``_row``; the first entry within the
bound b = (eps/2)*r + slack is found with a mask written into ``_hit`` and
``argmax``, so the first-in-insertion-order rule is kept exactly, and a
scan allocates nothing. The kernel enters ``np.errstate(over="ignore")``
only when the arrival or a coordinate the stream has held is at or past B =
``metric.quiet_bound(D)`` (2^510 for D <= 2) in absolute value; below B no
difference, square or sum can overflow (the proof is there), so the scan
cannot warn. Explicit metrics scan with ``Metric.pairwise``.

While the points' spread grows, most arrivals cannot join one, and a
cell-occupancy filter appends those without the scan. The filter is a set
``_cells`` holding the cell of each representative in the cell index of
``offline.py`` (cubes of width b*(1 + 2^-20) along each of the points' D
coordinates; ``_cell_digits`` there proves that the 3^D cells around a
point hold every point within b). An arrival whose 3^D neighbouring cells
are all empty is appended at once; any other arrival is scanned as before.
The set is rebuilt whenever r changes (the first estimate, and once after
the recompressions an arrival triggers), and each new representative adds
its cell. It holds one entry per representative, so at most threshold
entries.

The full scan of every arrival stays for explicit metrics (points are
matrix indices), for r = 0, for D above ``_CELL_MAX_DIM`` (where, as
measured, the 3^D lookups cost more than the scans they save) and for an
arrival with a quotient past the guard. A representative past the guard
turns the filter off until r next changes.

A skipped arrival saves a scan, 7 to 8 us against 700 representatives on
a 2-vCPU machine. An arrival that joins a representative pays, on top of
its scan, one key and most often one lookup: the point's own cell is
looked up first, and most often holds the representative it joins. Once r settles nearly every
arrival joins, so that is the filter's cost on a stream whose spread stops
growing.

No distance matrix is kept. A recompression hands ``_net`` a ``_PointSet``
of ``pstar`` whose coordinates are ``_coords[:m]`` itself, read in place
rather than copied from the representatives (``_PointSet.of_rows``). The
representatives are not normalized again, and their total weight is not
checked again: it is ``arrivals``, checked when the arrival that fills the
set comes. Where the filter could run, ``_net`` takes its grid path over
cells of the same width (the net's bound is the scan bound at the new r):
it compares each representative only with the earlier ones in the cells
around it, one chunk of about 2^16 pairs at a time. Elsewhere it computes
the distances it reads one row block of about 2^16 at a time. The stream
then gathers ``_coords`` down to the kept rows and puts them in cells.

An arrival that would trigger a recompression whose total weight is past
int64 is refused before it changes any state.

Single-writer: one arrival at a time; reports may be taken between arrivals.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .metric import (
    EXPLICIT, Metric, WeightedPoint, _check_counts, _check_total, _not_numbers, _point,
    _size_bound, _unchecked_point, min_pairwise_distance, quiet_bound,
)
from .offline import (
    _CELL_MARGIN, _OFFSETS, _PointSet, _cell_digits, _cell_key, _gridded, _net, _net_bound,
    _pack_rows,
)


def size_threshold(k: int, z: int, epsilon: float, d: int) -> int:
    _check_counts(k, z)
    what = "size threshold k*(16/eps)^d"
    t = _size_bound(k, 16.0, epsilon, d, what)
    if t > 2**53:
        raise InputError(f"{what} overflows; use a larger epsilon")
    return int(math.floor(t)) + z


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
        # the scan's buffers, as long as _coords: distances, terms, verdicts
        self._row = self._diff = self._hit = None
        self._quiet_below = None  # quiet_bound(D), set by the first arrival
        # whether the scan skips the screen: the stream has held a coordinate
        # at or past it, or its points have none, which min() cannot take
        self._loud = False
        self._cells = None  # the representatives' cell keys, or None when the filter is off
        self._width = self._offsets = None  # the cells' width; _OFFSETS[D]
        self.arrivals = 0

    def arrival(self, point, weight: int = 1) -> None:
        """One arrival of ``point`` carrying ``weight``. It equals ``weight``
        unit arrivals: after the first, the point is in (or is) the
        representative that the rest of the weight joins, so neither the set
        nor r moves. An arrival that is refused changes no state, and is
        refused as ``WeightedPoint(point, weight)`` would refuse it."""
        try:
            coords = tuple(map(float, point))
        except (TypeError, ValueError):
            WeightedPoint((), weight)  # a bad weight is named first, as WeightedPoint names it
            raise _not_numbers(point) from None
        new = _point(coords, weight)
        point = new.point
        if self.pstar and len(point) != len(self.pstar[0].point):
            raise InputError("arrival dimension mismatch")
        cells = self._cells
        key = None if cells is None else _cell_key(point, self._width)
        skip = key is not None and self._isolated(key)  # no representative's cell neighbours it
        i = None if skip else self._first_within(point, self._bound())
        if i is None and len(self.pstar) + 1 >= self.threshold:
            _check_total(self.arrivals + weight)  # the recompression sums every weight in int64
        self.arrivals += weight
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
            # the set reads the representatives' rows in place; the stream
            # writes them only once the net has returned. Their total weight
            # is self.arrivals, checked above
            ps = _PointSet.of_rows(self.pstar, self._coords[:len(self.pstar)], self.metric)
            reps, keep, _ = _net(ps, self._limit(), self.metric)
            self._coords[:len(keep)] = self._coords[keep]
            self.pstar = reps

        if self.r != r0:
            self._index()

    def _limit(self) -> float:
        """The join radius (eps/2)*r."""
        return (self.epsilon / 2.0) * self.r

    def _bound(self) -> float:
        """The scan bound b: the join radius with its rounding slack, the
        bound of a net at that radius."""
        return _net_bound(self._limit())

    def _index(self) -> None:
        """Rebuild ``_cells`` from ``_coords`` for the current r, or leave
        the filter off where the module docstring says the full scan
        stays."""
        self._cells = None
        m, dim = len(self.pstar), len(self.pstar[0].point)
        bound = self._bound()
        if not _gridded(self.metric, dim, bound):
            return
        width = bound * _CELL_MARGIN
        digits = _cell_digits(self._coords[:m], width)
        if digits is not None:
            self._width, self._offsets = width, _OFFSETS[dim]
            self._cells = set(_pack_rows(digits).tolist())

    def _isolated(self, key: int) -> bool:
        """Whether the 3^D cells around the cell of ``key`` are all empty."""
        cells = self._cells
        for offset in self._offsets:
            if key + offset in cells:
                return False
        return True

    def _first_within(self, point, bound):
        """The index of the first representative within ``bound`` of point,
        a tuple of floats, or None if there is none."""
        m = len(self.pstar)
        if not m:
            return None
        coords, metric = self._coords[:m], self.metric
        if metric.kind == EXPLICIT:
            hit = metric.pairwise(np.asarray([point]), coords)[0] <= bound
        else:
            big = self._quiet_below
            quiet = not self._loud and -big < min(point) and max(point) < big
            row = metric.row(point, coords, self._row[:m], self._diff[:m], quiet)
            hit = np.less_equal(row, bound, out=self._hit[:m])
        i = int(hit.argmax())
        return i if hit[i] else None

    def _append(self, point) -> None:
        """Store a new representative's coordinates, growing the coordinate
        buffer and the scan's buffers together."""
        m = len(self.pstar)
        if not m or m == len(self._coords):  # the first arrival, or full buffers
            size = min(2 * m, self.threshold) if m else 16  # 16 <= threshold
            coords, self._coords = self._coords, np.empty((size, len(point)))
            if m:
                self._coords[:m] = coords
            else:
                self._quiet_below = quiet_bound(len(point))
            self._row, self._diff = np.empty(size), np.empty(size)
            self._hit = np.empty(size, dtype=bool)
        big = self._quiet_below
        if not (point and -big < min(point) and max(point) < big):
            self._loud = True
        self._coords[m] = point

    def extend(self, points) -> None:
        for p in points:
            self.arrival(p)

    def report(self) -> list[WeightedPoint]:
        return list(self.pstar)
