"""Offline constructions: the greedy 3-approximation for k-center with
outliers, the delta-net recompression and the mini-ball covering with its
size bound, and the cell index that the net and the stream's arrival filter
share. The exhaustive oracles that check them are in ``validate.py``.

Everything here is a pure function of immutable inputs. "Arbitrary point"
choices are pinned to first-in-input-order so every run is reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .metric import (
    EXPLICIT,
    Ball,
    Metric,
    REL_TOL,
    WeightedPoint,
    _check_counts,
    _size_bound,
    _unchecked_point,
    as_weighted,
    coords_array,
    slack_bound,
    weights_array,
)

_EXACT_FLOAT32 = 2 ** 24  # float32 holds every integer below this exactly
_EXACT_FLOAT = 2 ** 53  # float64 holds every integer below this exactly
_NET_BLOCK = 1 << 16  # most distances in one row block, or one chunk of pairs, of _net
_SLAB = 255  # most mask rows summed at once: a uint8 count of 255 fits
_BAND_CUT = 450 ** 2  # fewest matrix entries of a set whose searches ask for a band (measured)
_BAND_SHARE = 64  # a band waits for 1/64 of the candidates and holds at most 1/64 of the entries


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


def _probe(dmat: np.ndarray, weights: np.ndarray, k: int, r: float, mask: _Mask):
    """One round-robin of the greedy disk heuristic at guess radius r.

    Picks, k times, the input point whose radius-r ball covers maximum
    uncovered weight (ties: lowest index), then marks everything within 3r of
    it covered. Returns (uncovered weight left, chosen center indices).
    Neither depends on an outlier budget: only the verdict ``remaining <= z``
    does, so one probe serves every z (``_PointSet.probe``).

    One n x n mask, ``within_r``, holds the entries within
    ``slack_bound(r)``, and its starting coverage is the uncovered weight in
    each point's r-ball (a count when every weight is 1). ``mask.write``
    makes both in ``mask``'s buffer: by a full pass, or by flipping a band
    from the previous probe's (``_Mask``). The coverage is then kept up to
    date: after center c, the newly covered points are the uncovered ones in
    c's 3r-row, and each drops out of every r-ball that holds it. After the
    last center, or once nothing is left uncovered, coverage is not updated.
    The first coverage and the updates are column sums of ``within_r``
    (``_column_sums``), which read its columns as rows, so ``dmat`` must be
    symmetric bit for bit: ``Metric.pairwise(X, X)`` is, for L2 and L-inf,
    and an explicit matrix is validated as symmetric.

    Coverage is exact in one of four types, the narrowest that holds it. A
    count is at most n: uint8 slab counts added into int32.
    Integer weights are summed in slabs cast to float32 while their total is
    below 2^24, to float64 while it is below 2^53, and to int64 from 2^53
    on. Below each cut every partial sum is an integer the type holds
    exactly, so the sums, and so the argmax and its ties, are those of any
    exact arithmetic.
    """
    slack = REL_TOL * max(1.0, abs(r))  # 3r's row is within 3r + 3 slack, not slack_bound(3r)
    remaining = int(weights.sum())
    unit = remaining == len(weights)  # weights are integers >= 1, so all are 1
    uncovered = None if unit else weights.astype(
        np.float32 if remaining < _EXACT_FLOAT32 else np.float64 if remaining < _EXACT_FLOAT
        else np.int64)
    within_r, coverage = mask.write(dmat, uncovered, slack_bound(r))
    if unit:
        uncovered = np.ones(len(weights), dtype=bool)
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


class _Mask:
    """The mask buffer of a ``_PointSet``, ``within``, and the state its
    last probe left in it: the threshold ``t`` (``slack_bound(r)``) of the
    mask it holds, None before the first probe, and that mask's starting
    coverage, ``start``.

    Late in a search, the radii left to probe are close, and so are their
    masks. ``greedy`` on a set of at least ``_BAND_CUT`` entries asks at
    most once for a band (``banded``): the flat index and distance of every
    entry in (lo, hi], the thresholds around the search interval once it
    holds at most 1/``_BAND_SHARE`` of the candidates. While both the held
    threshold and a probe's lie in [lo, hi], the probe flips only the band
    entries between the two and moves the coverage by their weights
    (``_flip``). Any other probe writes and sums the whole mask. The search
    drops its band when its binary search ends, so no band outlives the
    search that asked for it. Either way the mask and its coverage are
    those of a full pass, bit for bit."""

    def __init__(self, n: int):
        self.within = np.empty((n, n), dtype=bool)
        self.t = self.start = None
        self.band = None  # (flat indices, distances, lo, hi) of the entries in (lo, hi]

    def banded(self, dmat: np.ndarray, lo: float, hi: float):
        """Hold the band of the entries of ``dmat`` in (lo, hi], found one
        slab of rows at a time, or stay without one when it would hold more
        than n^2/``_BAND_SHARE`` entries: many equal distances, or the top
        of the candidates, where pair distances outnumber halves. A refused
        band costs the part of a pass that counted past the cap. ``greedy``
        asks only while no band is held."""
        n = len(dmat)
        cap = n * n // _BAND_SHARE
        found, count = [], 0
        for a in range(0, n, _SLAB):
            slab = dmat[a:a + _SLAB]
            sel = np.greater(slab, lo)
            sel &= slab <= hi
            at = np.flatnonzero(sel)
            count += len(at)
            if count > cap:
                return
            found.append(at + a * n)
        index = np.concatenate(found)
        self.band = (index, dmat.take(index), lo, hi)

    def write(self, dmat: np.ndarray, typed: np.ndarray | None, t: float):
        """This probe's mask at threshold t, in ``within``, and a copy of its
        starting coverage: column sums weighted by ``typed``, the weights in
        the type coverage is summed in, or counts when it is None."""
        held = self.t
        if (self.band is not None and held is not None
                and self.band[2] <= min(t, held) and max(t, held) <= self.band[3]):
            self._flip(typed, held, t)
        else:
            np.less_equal(dmat, t, out=self.within)
            self.start = _column_sums(self.within, weights=typed)
        self.t = t
        return self.within, self.start.copy()

    def _flip(self, typed: np.ndarray | None, held: float, t: float):
        """Turn the held mask at threshold ``held`` into the mask at t: the
        band entries between the two flip, and each one's row weight moves
        its column's coverage. The moves are counts, float64 sums of
        integers below 2^53 (exact, and so exact in float32 below 2^24) or
        int64 sums, so ``start`` stays exact in its type."""
        index, dist = self.band[:2]
        n = len(self.within)
        flat = index[(dist > min(t, held)) & (dist <= max(t, held))]
        if not len(flat):
            return
        self.within.reshape(-1)[flat] = t > held
        rows, cols = np.divmod(flat, n)
        if typed is None:
            moved = np.bincount(cols, minlength=n)
        elif typed.dtype == np.int64:
            moved = np.zeros(n, dtype=np.int64)
            np.add.at(moved, cols, typed[rows])
        else:
            moved = np.bincount(cols, typed[rows], minlength=n)
        if t > held:
            self.start += moved
        else:
            self.start -= moved


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
    probes' mask buffer (a ``_Mask``), each built on first use, and a memo
    of probes keyed by (k, candidate index).
    A probe does not depend on an outlier budget, so searches on one set at
    several z probe a radius once, and a later search at a z already
    searched makes no probe. The buffer holds the last probe's mask and
    coverage, which the next probe rewrites, or flips by the band of a
    ``greedy`` search in progress. A set built by ``of_rows`` starts, like
    any other, with no buffer.

    The input is normalized by one ``as_weighted`` pass, and the weights and
    coordinates are read from that list, except in a set built by
    ``of_rows``."""

    def __init__(self, points, metric: Metric):
        self.wps = as_weighted(points)
        self.weights = weights_array(self.wps)
        self.metric = metric
        self._memo = {}

    @classmethod
    def of_rows(cls, wps: list, coords: np.ndarray, metric: Metric) -> "_PointSet":
        """The set of ``wps``, a list of ``WeightedPoint``s whose total
        weight fits int64, whose coordinates are the rows of ``coords``,
        read in place: nothing is normalized, copied or checked again.
        ``InsertionStream``'s recompression builds its sets so, over its
        own coordinate buffer (see ``streaming.py``)."""
        ps = cls.__new__(cls)
        ps.wps, ps.metric, ps._memo = wps, metric, {}
        ps.weights = np.array([wp.weight for wp in wps], dtype=np.int64)
        ps.coords = coords
        return ps

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
    def mask(self) -> _Mask:
        """The buffer every probe on this set writes its mask into."""
        return _Mask(len(self))

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
    ``_PointSet`` share its matrix, candidate radii, probe memo and mask
    buffer. On a set of at least ``_BAND_CUT`` matrix entries, the search
    asks its mask once for a band (``_Mask.banded``): before its first probe
    that is not memoized once the interval holds at most 1/``_BAND_SHARE``
    of the candidates, over the thresholds of the candidate below the
    interval and of its top. The later probes then flip the band entries
    between the previous probe's radius and their own. The band is dropped
    when the binary search ends, before the probe of the top candidate that
    a search which never moved its top makes. A search still visits the same candidate
    indices and reads the same verdicts, so the result is the one a fresh
    point list gives.
    """
    _check_counts(k, z)
    ps = _point_set(points, metric)
    if int(ps.weights.sum()) <= z:
        return GreedyResult(0.0, (), 0.0, vacuous=True)
    cands, mask = ps.cands, ps.mask
    lo, hi = 0, len(cands) - 1
    ask = len(ps) ** 2 >= _BAND_CUT  # until the search has asked for its band
    centers = None  # the centers of the probe at cands[hi], once hi has moved
    while lo < hi:
        mid = (lo + hi) // 2
        if ask and (hi - lo + 1) * _BAND_SHARE <= len(cands) and (k, mid) not in ps._memo:
            below = slack_bound(float(cands[lo - 1])) if lo else -math.inf
            mask.banded(ps.dmat, below, slack_bound(float(cands[hi])))
            ask = False
        remaining, probed = ps.probe(k, mid)
        if remaining <= z:
            hi, centers = mid, probed
        else:
            lo = mid + 1
    mask.band = None
    r_f = float(cands[lo])
    if centers is None:
        remaining, centers = ps.probe(k, lo)
        if remaining > z:  # cannot happen: the top candidate is feasible
            raise AssertionError("greedy binary search ended on an infeasible radius")
    radius = 3.0 * r_f
    balls = tuple(Ball(ps.wps[c].point, radius) for c in centers)
    return GreedyResult(radius, balls, r_f)


# The cell index: the stream's arrival filter and the grid path of _net both
# sort points into cubes whose 3^D neighbours hold every point within a bound.

_CELL_MARGIN = 1.0 + 2.0**-20  # a cell's width over the bound
_CELL_GUARD = 2.0**30          # cells are kept only while every |c / width| is below it
_CELL_BASE = 1 << 32           # key digit base: above 2 * (guard + 1)
_CELL_MAX_DIM = 3              # above it the 3^D cells around a point cost more than they save


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
    for dim in range(_CELL_MAX_DIM + 1)
}


def _pack_rows(digits: np.ndarray) -> np.ndarray:
    """``_pack`` of each row of an n x D digit array: int64 up to two
    digits, where every key fits, and Python ints (an object array) above."""
    keys = np.zeros(len(digits), dtype=np.int64 if digits.shape[1] <= 2 else object)
    for column in digits.T:
        keys = keys * _CELL_BASE + column
    return keys


def _gridded(metric: Metric, dim: int, bound: float) -> bool:
    """Whether points of ``dim`` coordinates under ``metric`` can be put in
    cells for ``bound``: coordinates, not matrix indices, 1 to
    ``_CELL_MAX_DIM`` of them, and a finite bound of at least ``REL_TOL``
    (every ``slack_bound`` of a delta >= 0), as the proof needs."""
    return (metric.kind != EXPLICIT and 1 <= dim <= _CELL_MAX_DIM
            and REL_TOL <= bound and math.isfinite(bound * _CELL_MARGIN))


def _cell_digits(coords: np.ndarray, width: float) -> np.ndarray | None:
    """The cells of the rows of ``coords`` in a grid of cubes of width
    w = b*(1 + 2^-20) (``_CELL_MARGIN``) for a bound b: floor(fl(c_j / w))
    for each coordinate, as an int64 array, or None if a quotient is past
    the guard, |fl(c_j / w)| < 2^30. ``_cell_key`` computes the same digits
    for one point.

    Every point q with ``pairwise(p, q) <= b`` lies in one of the 3^D cells
    around p's (D is the coordinate count, not a declared dimension). With
    u = 2^-53:

    1. |p_j - q_j| <= b*(1 + 4u) for every j. Under L-inf the entry is
       max_j |fl(p_j - q_j)|. Under L2 it is fl(sqrt(s)), where s is a float
       sum of the nonnegative squares fl(fl(p_j - q_j)^2) and so at least
       each of them; an L2 ball lies inside the L-inf ball of the same
       radius. A rounded result x' of x has |x| <= |x'| / (1 - u), so the
       difference, square and root roundings give at most the factor
       (1 - u)^(-5/2) < 1 + 4u. b >= 1e-9, so an underflowing square, off
       by at most 2^-1074, changes nothing at this precision, and an
       overflowing difference or square gives inf, which is never <= b.
    2. So the exact quotients x = p_j/w and y = q_j/w differ by at most
       (1 + 4u) / ((1 + 2^-20)*(1 - u)) < 1 - 2^-21, and by the guard each
       computed quotient is within u*2^30*(1 + u) < 2^-22 of the exact one:
       X = fl(x) and Y = fl(y) satisfy |X - Y| < 1.
    3. floor(X) - floor(Y) >= 2 would need X - Y > 1, so the cells differ by
       at most 1 in each coordinate.

    ``_pack`` packs a cell in base 2^32 (Horner over the coordinates). Each
    digit, and each neighbour's, has magnitude at most 2^30 + 1 < 2^31, so
    the balanced representation is unique, and a neighbour's key is the
    cell's key plus a fixed offset, ``_OFFSETS[D]``. The cell arithmetic
    computes no distance: ``Metric._accumulate`` stays the one distance
    kernel."""
    quotients = coords / width
    if not (np.abs(quotients) < _CELL_GUARD).all():
        return None
    return np.floor(quotients).astype(np.int64)


def _cell_key(point, width: float):
    """The key of one point's cell: ``_pack`` of its ``_cell_digits``,
    packed as they are found, or None if a quotient is past the guard."""
    key = 0
    for c in point:
        q = c / width
        if not -_CELL_GUARD < q < _CELL_GUARD:
            return None
        key = key * _CELL_BASE + math.floor(q)
    return key


def _net(points, delta: float, metric: Metric):
    """Greedy delta-net in input order.

    Repeatedly takes the first remaining point q and merges every remaining
    point within distance delta of q (inclusive) into q, summing weights.
    Returns (representatives, input index of each, assignment), the last two
    as int arrays, where assignment[i] is the representative index of input
    point i. A representative whose net holds only itself is its input
    ``WeightedPoint``, not a copy. ``points`` is a point list or a
    ``_PointSet``.

    Equivalently, a point is owned by the first earlier representative
    within the bound b = ``slack_bound(delta)``, and is one itself if there is
    none. Two paths find that owner, each from the entries (earlier point,
    point) that the full ``pairwise`` matrix holds, so both give its result:

    - The grid path (``_grid_leaders``) serves L-inf and L2 sets of at most
      ``_CELL_MAX_DIM`` coordinates whose matrix is not built, at a delta
      >= 0, while every coordinate is within the guard of the cells of
      width b*(1 + 2^-20): the stream's recompressions and
      ``update_coreset``. It compares a point only with the earlier points
      in the 3^D cells around its own, which hold every point within b
      (``_cell_digits``), so on a spread set it computes a few distances
      per point, not one per representative.
    - The blocked path (``_blocked_leaders``) serves every other set:
      explicit metrics, more coordinates, coordinates past the guard, and
      ``_mbc``'s net, which reads the matrix that ``greedy`` has built
      (a vacuous set builds none). It also serves sets whose cells are
      crowded: a representative's ball meets at most 3^D cells, so the
      blocked path compares each point with at least (nonempty cells) /
      3^D representatives, and where the grid's candidates (``_cell_runs``)
      outnumber that per point, as in a set inside a few cells, the blocked
      path is the cheaper.
    """
    ps = _point_set(points, metric)
    n = len(ps)
    if n == 0:
        return [], np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    bound = slack_bound(delta)
    digits = runs = None
    if "dmat" not in ps.__dict__ and _gridded(metric, len(ps.wps[0].point), bound):
        digits = _cell_digits(ps.coords, bound * _CELL_MARGIN)
    if digits is not None:
        runs = _cell_runs(digits)
        order, first, sizes, occupied = runs
        if sizes.sum() * 3 ** digits.shape[1] > n * occupied:
            runs = None  # crowded cells: the blocked path compares fewer pairs (see above)
    if runs is not None:
        leader, owner = _grid_leaders(ps, bound, order, first, sizes)
        firsts = np.flatnonzero(leader)
        assignment = (np.cumsum(leader) - 1)[owner]
    else:
        firsts, assignment = _blocked_leaders(ps, bound)
    weights = np.zeros(len(firsts), dtype=np.int64)
    np.add.at(weights, assignment, ps.weights)
    wps = ps.wps
    reps = [wps[i] for i in firsts.tolist()]
    merged = np.flatnonzero(weights != ps.weights[firsts])
    for t, wt in zip(merged.tolist(), weights[merged].tolist()):
        reps[t] = _unchecked_point(reps[t].point, wt)
    return reps, firsts, assignment


def _cell_runs(digits: np.ndarray):
    """The points sorted by cell, and where each one's candidates lie:
    (order, first, sizes, cells). The leading D - 1 digits of a cell are
    ranked, and a cell's key is its rank times ``_CELL_BASE`` plus its last
    digit, so every key fits int64; ``order`` sorts the points by key.
    Sorted by key, the three cells (..., last - 1 .. last + 1) of each of
    the 3^(D-1) rows of cells around a cell are consecutive, so one
    ``searchsorted`` pair per row finds them, with needles in key order:
    ``first[t, p]`` and ``sizes[t, p]`` give the run of sorted positions in
    row t around the point at sorted position p. ``cells`` counts the
    nonempty cells."""
    steps = np.asarray(_OFFSETS[digits.shape[1] - 1], dtype=np.int64)[:, None]
    lead = _pack_rows(digits[:, :-1])  # the leading digits of each point's row
    heads, rank = np.unique(lead, return_inverse=True)
    keys = rank * _CELL_BASE + digits[:, -1]
    order = np.argsort(keys)
    skeys = keys[order]
    needles = lead[order] + steps  # the leading digits of the rows around each point
    at = np.searchsorted(heads, needles)
    middles = at * _CELL_BASE + digits[order, -1]  # the key of each row's middle cell
    middles[heads.take(at, mode="clip") != needles] = -2 * _CELL_BASE  # no such row
    first = np.searchsorted(skeys, middles - 1)
    sizes = np.searchsorted(skeys, middles + 1, "right") - first
    cells = 1 + int(np.count_nonzero(skeys[1:] != skeys[:-1]))
    return order, first, sizes, cells


def _grid_leaders(ps: _PointSet, bound: float, order, first, sizes):
    """The grid path of ``_net``: (leader mask, owner), where ``owner[i]`` is
    the index of the leader that owns point i (i itself for a leader).

    A point's candidates are the points in the 3^D cells around its own,
    found by ``_cell_runs``. The points are taken in index order, in chunks
    of about ``_NET_BLOCK`` candidates. A chunk keeps the candidates that
    come earlier in the input, less the points an earlier chunk found are
    not leaders, and reads their distances with one ``Metric.paired`` call,
    (earlier point, point) as in the matrix. A point whose first earlier
    point within b is a leader for sure (of an earlier chunk, or with no
    earlier point within b of its own) is owned by it. The chunk's other
    points run the leader rule in index order over their pairs."""
    coords, n = ps.coords, len(ps)
    counts = np.empty(n, dtype=np.int64)
    counts[order] = sizes.sum(axis=0)
    ends = np.cumsum(counts)
    leader = np.ones(n, dtype=bool)
    owner = np.arange(n)
    s = 0
    while s < n:
        start = int(ends[s - 1]) if s else 0
        e = max(s + 1, int(np.searchsorted(ends, start + _NET_BLOCK, "right")))
        at = slice(None) if e - s == n else np.flatnonzero((s <= order) & (order < e))
        f, z = first[:, at].ravel(), sizes[:, at].ravel()
        i = np.repeat(np.tile(order[at], len(first)), z)
        j = order[np.repeat(f - (np.cumsum(z) - z), z) + np.arange(len(i))]
        keep = (j < i) & leader[j]  # the chunk's points are all still marked leaders
        i, j = i[keep], j[keep]
        near = ps.metric.paired(coords[j], coords[i]) <= bound
        i, j = i[near] - s, j[near] - s  # chunk-relative: j < 0 is a leader of an earlier chunk
        m = e - s
        nearest = np.full(m, m)
        np.minimum.at(nearest, i, j)  # each point's first earlier point within b
        alone = nearest == m  # none: a leader
        # owned for sure: the first such point is a leader, of an earlier
        # chunk or with no earlier point within b of its own
        settled = nearest < 0
        inside = ~settled & ~alone
        settled[inside] = alone[nearest[inside]]
        owner[s:e][settled] = nearest[settled] + s
        rest = (inside & ~settled)[i]  # the others run the leader rule in index order
        i, j = i[rest], j[rest]
        pairs = np.argsort(i * m + j)  # by point, then by earlier point
        flags = (~settled).tolist()
        done = -1
        for a, b in zip(i[pairs].tolist(), j[pairs].tolist()):
            if a != done and flags[b]:  # b's flag is final: its own pairs came first
                flags[a] = False
                owner[s + a] = s + b
                done = a
        leader[s:e] = flags
        s = e
    return leader, owner


def _blocked_leaders(ps: _PointSet, bound: float):
    """The blocked path of ``_net``: (input index of each representative,
    assignment), as int arrays.

    The input is walked in blocks. A point belongs to the first
    representative within the bound, and every representative before a
    block lies in an earlier block. So one row block, the representatives so
    far against the block, assigns each point it covers to its first hit.
    The block's other points then run the leader loop over their own
    distances: each in turn, if still free, becomes a representative and
    takes the free points it covers. A block has at most sqrt(_NET_BLOCK)
    points, and at most _NET_BLOCK / r of them once there are r
    representatives, so no row block holds more than about ``_NET_BLOCK``
    distances. The rows are ``_PointSet.rows``: read from the matrix once
    it is built, else computed one row block at a time."""
    n = len(ps)
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
    return np.asarray(firsts, dtype=np.intp), assignment


def update_coreset(points, delta: float, metric: Metric) -> list[WeightedPoint]:
    """Recompress a weighted set to a delta-net (first-in-input-order greedy)."""
    if not delta >= 0:  # NaN too
        raise InputError("delta must be nonnegative")
    return _net(points, delta, metric)[0]


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
    reps, _, assignment = _net(ps, delta, metric)
    return MiniBallCovering(
        representatives=tuple(reps),
        assignment=tuple(assignment.tolist()),
        epsilon=epsilon,
        ball_radius=delta,
        greedy_radius=result.radius,
    )


def mbc_construction(inst: Instance) -> MiniBallCovering:
    """Mini-ball covering of an instance (size at most k*(12/eps)^d + z for
    declared doubling dimension d)."""
    return _mbc(list(inst.points), inst.k, inst.z, inst.epsilon, inst.metric)


def mbc_size_bound(k: int, z: int, epsilon: float, d: int) -> float:
    _check_counts(k, z)
    return _size_bound(k, 12.0, epsilon, d, "size bound k*(12/eps)^d") + z
