"""Points, weights, metrics, balls, and candidate-center universes.

All types here are immutable value objects; they can be shared freely across
threads. Coordinates are 64-bit floats. Radius comparisons absorb rounding
with a slack of ``REL_TOL`` (1e-9) times a scale of at least 1, in one of
three forms:

- ``leq(a, b)`` scales by the larger of |a| and |b|. ``compute_r_hat``
  applies its formula elementwise to float64 arrays, and
  ``validate.uncovered_weight`` applies it to each distance.
- A comparison of many distances with one bound scales by the bound alone,
  ``dist <= bound + REL_TOL * max(1, |bound|)``, so one slack serves a whole
  matrix or row: ``_probe``, ``_net``, the streaming scan,
  ``check_mini_ball_covering`` and ``probe_cover_ok``.
- ``check_coreset`` scales its radius-band slack by the larger of opt(P)
  and opt(coreset).

Every distance the package computes comes from the one kernel
``Metric._accumulate``, in one of three layouts: ``Metric.pairwise``, the
matrix between two row sets; ``Metric.paired``, the distances of paired
rows (entry i between a[i] and b[i]), with which ``_net``'s grid path reads
only the pairs its cells leave; and ``Metric.row``, the distances from one
point, given as its tuple of floats, to a row set, written into buffers
that the caller owns (the insertion stream's scan, its only caller). An
entry has the same bits in every layout, and the scalar formula it matches
bit for bit is the test reference in ``tests/conftest.py``. Overflow makes
an entry inf; ``pairwise`` and ``paired`` silence it with ``np.errstate``
on every call, and ``row`` only when its caller cannot rule it out with
``quiet_bound``.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DegenerateSetError, InputError

REL_TOL = 1e-9
UNIVERSE_CAP = 1_000_000  # most candidate centers a materialized universe holds
_PAIRWISE_BLOCK = 1 << 15  # most entries in one row block of ``pairwise``

Point = tuple  # tuple of floats (or a single index for explicit-matrix metrics)


def leq(a: float, b: float) -> bool:
    """a <= b up to relative tolerance (unit floor for values near zero)."""
    return a <= b + REL_TOL * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class WeightedPoint:
    point: Point
    weight: int = 1

    def __post_init__(self):
        if not isinstance(self.weight, int) or isinstance(self.weight, bool) or self.weight < 1:
            raise InputError(f"weight must be a positive integer, got {self.weight!r}")
        try:
            point = tuple(map(float, self.point))
        except (TypeError, ValueError):  # not a sequence, or a coordinate that is not a number
            raise _not_numbers(self.point) from None
        if not _finite(point):
            raise InputError(f"coordinates must be finite, got {point!r}")
        object.__setattr__(self, "point", point)


def _not_numbers(point) -> InputError:
    """The refusal of a point whose coordinates do not convert to floats."""
    return InputError(f"coordinates must be numbers, got {point!r}")


def _finite(point: tuple) -> bool:
    """Whether every coordinate of a tuple of floats is finite. The sum is a
    cheap screen; only when it is not finite (a NaN or inf, or finite
    coordinates whose sum overflows) are the coordinates checked one by one."""
    return math.isfinite(sum(point)) or all(map(math.isfinite, point))


# bound once: looking the two up on ``object`` costs as much as the stores
_new_object, _set_attribute = object.__new__, object.__setattr__


def _unchecked_point(point: tuple, weight: int) -> WeightedPoint:
    """A ``WeightedPoint`` built without ``__post_init__``. Only for callers
    whose ``point`` is already a tuple of finite floats and whose ``weight``
    is already a positive int: a representative's point with a sum of
    validated weights. ``_point``, for a point-file line or a stream
    arrival whose checks pass, and a dynamic report, for its cell centers
    in its one loop over the cells, build their points the same way,
    inline."""
    wp = _new_object(WeightedPoint)
    _set_attribute(wp, "point", point)
    _set_attribute(wp, "weight", weight)
    return wp


def _point(coords: tuple, weight) -> WeightedPoint:
    """``WeightedPoint(coords, weight)`` for ``coords`` a tuple of floats,
    checked once: a point whose weight is an int (not a bool) of at least 1
    and whose coordinates are finite is built with no second check, as
    ``_unchecked_point`` builds it but inline, which saves a call per point;
    any other goes through ``WeightedPoint``, which refuses it with its own
    ``InputError``. A point-file line and a stream arrival are built here."""
    if type(weight) is int and weight >= 1 and _finite(coords):
        wp = _new_object(WeightedPoint)
        _set_attribute(wp, "point", coords)
        _set_attribute(wp, "weight", weight)
        return wp
    return WeightedPoint(coords, weight)


def as_weighted(points) -> list[WeightedPoint]:
    """Normalize a list of Points / WeightedPoints to WeightedPoints."""
    return [p if isinstance(p, WeightedPoint) else WeightedPoint(tuple(p)) for p in points]


def total_weight(points) -> int:
    return sum(wp.weight for wp in as_weighted(points))


def coords_array(wps) -> np.ndarray:
    """The coordinates of a sequence of ``WeightedPoint``s as an n x d array.
    A caller normalizes its input with ``as_weighted`` once, beforehand."""
    pts = [wp.point for wp in wps]
    return np.asarray(pts, dtype=float).reshape(len(pts), -1)


_INT64_MAX = np.iinfo(np.int64).max


def weights_array(wps) -> np.ndarray:
    """The weights of a sequence of ``WeightedPoint``s as int64; their total
    must fit, so no sum over them wraps."""
    weights = [wp.weight for wp in wps]
    _check_total(sum(weights))
    return np.asarray(weights, dtype=np.int64)


def _check_total(total: int) -> None:
    """Refuse a total weight past int64, which ``weights_array`` sums in."""
    if total > _INT64_MAX:
        raise InputError(f"total weight {total} exceeds the int64 range")


L2 = "l2"
LINF = "linf"
EXPLICIT = "matrix"
_EXPLICIT_POINTS = "explicit metric points must be 1-tuples holding an integral index"


@dataclass(frozen=True)
class Metric:
    """A metric: L2, L-infinity, or an explicit finite distance matrix.

    For ``EXPLICIT``, points are 1-tuples holding an integral index into the
    matrix; ``pairwise`` raises ``InputError`` on any other.
    The matrix is validated for symmetry, nonnegativity and zero diagonal;
    the triangle inequality is spot-checked on sampled triples.

    ``pairwise``, ``paired`` and ``row`` share the package's only distance
    kernel, ``_accumulate``; ``distance`` reads one entry of ``pairwise``.
    ``row`` serves L2 and L-inf alone. The scalar formula they must match
    bit for bit is kept as a test reference, ``scalar_distance`` in
    ``tests/conftest.py``.
    """

    kind: str
    matrix: tuple = field(default=None, compare=True)
    _array: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (L2, LINF, EXPLICIT):
            raise InputError(f"unknown metric kind {self.kind!r}")
        if self.kind == EXPLICIT:
            if self.matrix is None:
                raise InputError("explicit metric requires a matrix")
            m = tuple(tuple(float(v) for v in row) for row in self.matrix)
            object.__setattr__(self, "matrix", m)
            _validate_matrix(m)
            arr = np.asarray(m, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, "_array", arr)
        elif self.matrix is not None:
            raise InputError("matrix only allowed for explicit metrics")

    def distance(self, p: Point, q: Point) -> float:
        """The distance between two points: one entry of ``pairwise``."""
        a, b = np.asarray([p], dtype=float), np.asarray([q], dtype=float)
        return float(self.pairwise(a, b)[0, 0])

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance matrix between rows of a (n x d) and rows of b (m x d).

        Accumulates one coordinate at a time, in the order of the scalar
        formula (sum of squared differences, or maximum absolute
        difference), so every entry has the same bits as that formula. The
        first coordinate's term is written straight into the output: adding
        it to a zero, or taking its maximum with a zero, would give the
        same bits, since a square or an absolute value is never -0.0.

        The output is filled in row blocks of at most ``_PAIRWISE_BLOCK``
        entries (at least one row), through one block-sized buffer for the
        later coordinates' terms, so no n x m temporary is made and a block
        stays in cache. Every entry still gets the same operations in the
        same order, so it keeps its bits whatever the block size. (The
        scan of one point against many rows, without an array for the
        point, is ``row``.)

        A difference, square or sum past the float range makes its entry
        inf, which is past every finite bound; the blocks run under one
        ``np.errstate(over="ignore")``, so no input makes the kernel warn.
        Callers that need finite distances refuse an inf entry themselves.
        """
        if self.kind == EXPLICIT:
            return self._array[np.ix_(self._indices(a), self._indices(b))]
        d = self._dim(a, b)
        # with no coordinates every distance is 0, and nothing is accumulated
        out = (np.empty if d else np.zeros)((a.shape[0], b.shape[0]))
        n, m = out.shape
        step = max(1, _PAIRWISE_BLOCK // max(1, m))
        buf = np.empty((min(step, n), m))
        with np.errstate(over="ignore"):
            for lo in range(0, n, step):
                self._accumulate(a.T[:, lo:lo + step, None], b.T[:, None, :],
                                 out[lo:lo + step], buf[:min(step, n - lo)])
        return out if self.kind == LINF else np.sqrt(out, out=out)

    def paired(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The distances between paired rows of a and b (both n x d): entry
        i is ``pairwise(a[i:i+1], b[i:i+1])[0, 0]``, bit for bit, since it
        gets the same operations in the same order. No n x n matrix is
        made: the n terms of a coordinate are one elementwise operation."""
        if len(a) != len(b):
            raise InputError(f"paired rows need equal counts: {len(a)} vs {len(b)}")
        if self.kind == EXPLICIT:
            return self._array[self._indices(a), self._indices(b)]
        d = self._dim(a, b)
        out = (np.empty if d else np.zeros)(len(a))
        with np.errstate(over="ignore"):
            self._accumulate(a.T, b.T, out, np.empty_like(out) if d > 1 else None)
        return out if self.kind == LINF else np.sqrt(out, out=out)

    def row(self, point: tuple, b: np.ndarray, out: np.ndarray, diff, quiet: bool) -> np.ndarray:
        """The L2 or L-inf distances from ``point``, a tuple of d floats, to
        the rows of the float64 array b (m x d), written into ``out`` (m
        floats) and returned; ``diff`` (m floats, or None when d = 1) takes
        the later coordinates' terms. The caller owns both buffers, so a
        call allocates nothing. Entry i is ``pairwise(np.asarray([point]),
        b[i:i+1])[0, 0]`` bit for bit: each coordinate is a Python float, a
        scalar operand of the same float64 subtractions, and a Python float
        converts to float64 exactly.

        ``quiet`` is the caller's word that every coordinate of ``point``
        and of b is below ``quiet_bound(d)`` in absolute value, so that no
        term overflows and no ``np.errstate`` needs entering; without it
        the kernel runs under ``np.errstate(over="ignore")`` as in
        ``pairwise``, and an overflowing entry is inf."""
        if quiet:
            self._accumulate(point, b.T, out, diff)
        else:
            with np.errstate(over="ignore"):
                self._accumulate(point, b.T, out, diff)
        return out if self.kind == LINF else np.sqrt(out, out=out)

    def _indices(self, x: np.ndarray) -> np.ndarray:
        """The matrix indices that the rows of x (n x 1) name."""
        if x.ndim != 2 or x.shape[1] != 1 or not np.array_equal(x, np.trunc(x)):
            raise InputError(_EXPLICIT_POINTS)
        idx = x.astype(int).ravel()
        if idx.size and not (0 <= idx.min() and idx.max() < len(self._array)):
            raise InputError(f"matrix index out of range: {idx.min()}..{idx.max()}")
        return idx

    @staticmethod
    def _dim(a: np.ndarray, b: np.ndarray) -> int:
        """The coordinate count that a and b share."""
        if a.shape[1] != b.shape[1]:
            raise InputError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
        return a.shape[1]

    def _accumulate(self, lhs, rhs, acc, diff):
        """Fill ``acc`` with the squared L2 or the L-inf distances between
        ``lhs`` and ``rhs``, one coordinate at a time: ``lhs[j] - rhs[j]``
        broadcasts to ``acc``'s shape, and ``diff``, of that shape too, takes
        the terms of the coordinates after the first. ``pairwise`` passes
        operands that broadcast to a matrix, ``paired`` aligned rows, and
        ``row`` a tuple of Python floats against the columns of its rows."""
        for j in range(len(lhs)):
            term = acc if j == 0 else diff
            np.subtract(lhs[j], rhs[j], out=term)
            if self.kind == LINF:
                np.abs(term, out=term)
                if j:
                    np.maximum(acc, term, out=acc)
            else:
                np.multiply(term, term, out=term)
                if j:
                    acc += term


def quiet_bound(d: int) -> float:
    """B = 2^e with e = floor((1021 - ceil(log2 d)) / 2): if every
    coordinate of two points of d coordinates is below B in absolute value,
    no operation of ``_accumulate`` between them overflows, under L2 or
    L-inf. B is 2^510 for d <= 2 (about 3.4e153) and halves as d
    quadruples.

    Proof. The difference x - y of two coordinates is below 2B in absolute
    value. 2B is a float and rounding is monotone, so the rounded difference
    is at most 2B, and its rounded square at most 4B^2, a float too. By
    induction the rounded sum of j such squares is at most 4jB^2, which is
    a float for j <= 2^53, so the squared distance is at most 4dB^2 = d *
    2^(2e+2) <= 2^(ceil(log2 d) + 2e + 2) <= 2^1023, below the largest
    float. L-inf takes the absolute differences and their maximum, at most
    2B."""
    return 2.0 ** ((1021 - (d - 1).bit_length()) // 2)


def _integer(value, low: int, refusal: str) -> int:
    """``value`` as a Python int if it is an integer of at least ``low``,
    else ``InputError(refusal)``. ``operator.index`` takes Python and numpy
    ints and refuses floats, strings and numpy bools, so no count or size is
    fractional; a Python bool is an int to it, so it is refused first."""
    if isinstance(value, bool):
        raise InputError(refusal)
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(refusal) from None
    if value < low:
        raise InputError(refusal)
    return value


def _check_counts(k, z) -> None:
    """Refuse a center count k or an outlier budget z that is not an integer
    with k >= 1 and z >= 0."""
    refusal = f"need integers k >= 1 and z >= 0, got k={k!r}, z={z!r}"
    _integer(k, 1, refusal)
    _integer(z, 0, refusal)


def _size_bound(k: int, c: float, epsilon: float, d: int, what: str) -> float:
    """k*(c/eps)^d, the packing bound behind every coreset size; ``what``
    names it in the ``InputError`` raised when it is past the float range."""
    try:
        bound = k * (c / epsilon) ** d
    except OverflowError:  # the power overflows; c/eps alone may be inf
        bound = math.inf
    if not math.isfinite(bound):
        raise InputError(f"{what} overflows; use a larger epsilon")
    return bound


_TRIANGLE_SAMPLES = 200  # triples checked when a matrix has more than 12 points


def _validate_matrix(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise InputError("explicit metric matrix must be square")
    for i in range(n):
        if m[i][i] != 0.0:
            raise InputError("explicit metric matrix must have zero diagonal")
        for j in range(n):
            if m[i][j] < 0:
                raise InputError("explicit metric matrix must be nonnegative")
            if m[i][j] != m[j][i]:
                raise InputError("explicit metric matrix must be symmetric")
    rng = random.Random(0)  # one generator for every sample, so the samples differ
    triples = itertools.permutations(range(n), 3) if n <= 12 else (
        rng.sample(range(n), 3) for _ in range(_TRIANGLE_SAMPLES)
    )
    for i, j, k in triples:
        if m[i][k] > m[i][j] + m[j][k] + REL_TOL * max(1.0, m[i][k]):
            raise InputError(f"triangle inequality violated on sampled triple ({i},{j},{k})")


@dataclass(frozen=True)
class Ball:
    center: Point
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise InputError("ball radius must be nonnegative")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))


INPUT_POINTS = "input-points"
LINF_MIDPOINT_GRID = "linf-midpoint-grid"
EXPLICIT_LIST = "explicit-list"


@dataclass(frozen=True)
class CenterUniverse:
    """A finite surrogate for the space of candidate centers.

    ``INPUT_POINTS``: the distinct input locations. ``LINF_MIDPOINT_GRID``:
    the Cartesian product, per coordinate, of all input coordinate values and
    all midpoints of input coordinate pairs; exact for L-infinity k-center.
    ``EXPLICIT_LIST``: the given centers, at least one, each finite.
    """

    kind: str
    points: tuple = ()

    def __post_init__(self):
        if self.kind not in (INPUT_POINTS, LINF_MIDPOINT_GRID, EXPLICIT_LIST):
            raise InputError(f"unknown universe kind {self.kind!r}")
        object.__setattr__(
            self, "points", tuple(tuple(float(c) for c in p) for p in self.points)
        )
        if self.kind == EXPLICIT_LIST and not self.points:
            raise InputError("an explicit center list needs at least one center")
        for p in self.points:
            if not _finite(p):
                raise InputError(f"centers must be finite, got {p!r}")


def input_points_universe() -> CenterUniverse:
    return CenterUniverse(INPUT_POINTS)


def midpoint_grid_universe() -> CenterUniverse:
    return CenterUniverse(LINF_MIDPOINT_GRID)


def explicit_universe(points) -> CenterUniverse:
    return CenterUniverse(EXPLICIT_LIST, tuple(tuple(p) for p in points))


def materialize_universe(points, universe: CenterUniverse) -> list[Point]:
    """Materialize the candidate centers for a point set, in canonical (sorted) order."""
    wps = as_weighted(points)
    if not wps:
        raise InputError("cannot materialize a universe for an empty point set")
    if universe.kind == EXPLICIT_LIST:
        pts = sorted(set(universe.points))
    elif universe.kind == INPUT_POINTS:
        pts = sorted({wp.point for wp in wps})
    else:
        axes = []
        dim = len(wps[0].point)
        for j in range(dim):
            vals = sorted({wp.point[j] for wp in wps})
            mids = {(a + b) / 2.0 for a, b in itertools.combinations(vals, 2)}
            if not all(map(math.isfinite, mids)):
                raise InputError(f"a midpoint of coordinate {j} overflows the float range")
            axes.append(sorted(set(vals) | mids))
        size = math.prod(len(ax) for ax in axes)
        if size > UNIVERSE_CAP:
            raise CapacityError(f"midpoint-grid universe has {size} points, cap is {UNIVERSE_CAP}")
        pts = [tuple(p) for p in itertools.product(*axes)]
    if len(pts) > UNIVERSE_CAP:
        raise CapacityError(f"universe has {len(pts)} points, cap is {UNIVERSE_CAP}")
    return pts


def min_pairwise_distance(points, metric: Metric) -> float:
    """Minimum distance over distinct locations; coinciding points are ignored.

    Raises DegenerateSetError when fewer than two distinct locations remain.
    """
    locs = sorted({wp.point for wp in as_weighted(points)})
    if len(locs) < 2:
        raise DegenerateSetError("need at least two distinct locations")
    arr = np.asarray(locs, dtype=float)
    d = metric.pairwise(arr, arr)
    iu = np.triu_indices(len(locs), k=1)
    vals = d[iu]
    vals = vals[vals > 0]
    if vals.size == 0:
        raise DegenerateSetError("all pairwise distances are zero")
    return float(vals.min())
