"""Fully dynamic (insert/delete) coreset maintenance over the integer grid
[Delta]^d.

A hierarchy of grids G_0..G_L (cell side 2^i, L = ceil(log2 Delta)) is kept;
each level carries an s-sparse recovery sketch over its cell-frequency
vector, with s = k*(4*sqrt(d)/eps)^d + z. A report takes the finest level
whose sparse-recovery decode succeeds with at most s cells and returns each
cell's center weighted by its exact count (a relaxed coreset:
representatives are cell centers, not input points). Decoding is exact under
strict turnstile: it returns every nonzero cell or fails, so this is the
level the exact cell counts would pick unless a decode fails there. A
level's sketch has no tables until its buffer first reaches 2s cells, and
again after a decode that recovers fewer (sparse mode, see ``sketches``).
Meanwhile a report decodes that level exactly from the buffer: the read
cannot fail and builds no tables.

An update takes its sign as an int (``operator.index``; a float sign is
refused) and checks its point in one pass over the coordinates
(``GridConfig.cell_id``), which also forms the zero-based level-0 cell and
its id. The cell at level i is the level-0 cell's index shifted right by i,
and every structure names it by one integer id: the shifted coordinates read
row-major in base Delta >> i. Cells per axis are a power of two, so each
coordinate of the level-0 id is a ``top_level``-bit field; a level's id
shifts each field right by the level and repacks the fields
(``GridConfig.level_ids``), so no per-level cell tuple is built. The ids of
levels 1 and up are formed only when a fed level above 0 or the shadow needs
them: while only level 0 is fed, an update passes the level-0 id straight
to level 0's sketch. The optional exact shadow (per-level id -> count maps)
sees the id of every level; it enforces strict-turnstile discipline and
answers reports without randomness (test mode). A report takes {id: count}
from the shadow or the sketch, sorts the ids once (row-major ids sort as
their index tuples do) and turns them straight into centers, decoding each
coordinate's bit field with a shift and a mask (``GridConfig.cell_centers``).

The sketches are fed lazily. An update feeds only levels 0..``fed``-1, and
``fed`` starts at 1, so while level 0 is sparse an update makes one sketch
update. A coarser level is loaded when something first reads it: its buffer
is set to the buffer of the level below summed into its cells
(``GridConfig.coarsen``), and ``fed`` rises past it. A report loads the
levels up to the one it reads. ``digest`` and ``merge`` (after its checks,
on both states) load every level, and so does an update that finds 2s - 1
ids in level 0's buffer, since it could make level 0 build its tables.
``sketch_bytes`` counts an unfed level as the buffer it would be loaded
with. The load is exact: a sparse buffer is its level's exact net vector, a
coarse level never has more nonzero cells than level 0 (so none could have
built tables while level 0 had not), and tables built from a buffer equal
those built one update at a time. So while ``fed`` < levels no level has
tables, and every report, digest and byte count is that of feeding every
level on every update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import index as _index

from .errors import InputError, SketchFailureError
from .metric import (
    WeightedPoint, _check_counts, _integer, _new_object, _set_attribute, _size_bound,
)
from .sketches import _BUFFERED_ID_BYTES, SparseRecoverySketch, _mix64


@dataclass(frozen=True)
class GridConfig:
    """Grid hierarchy over [Delta]^d; Delta is rounded up to a power of two."""

    delta: int
    d: int
    top_level: int = field(init=False, repr=False, compare=False)  # log2 of Delta

    def __post_init__(self):
        refusal = f"need Delta >= 1 and d >= 1, as integers, got {self.delta!r} and {self.d!r}"
        top = (_integer(self.delta, 1, refusal) - 1).bit_length()
        object.__setattr__(self, "d", _integer(self.d, 1, refusal))
        object.__setattr__(self, "delta", 1 << top)
        object.__setattr__(self, "top_level", top)

    @property
    def levels(self) -> int:
        return self.top_level + 1

    def cells_per_axis(self, level: int) -> int:
        return max(1, self.delta >> level)

    def cell_count(self, level: int) -> int:
        return self.cells_per_axis(level) ** self.d

    def cell_id(self, point) -> int:
        """Check ``point`` and return the row-major id of its level-0 cell.
        The one pass that checks each coordinate forms the zero-based
        level-0 cell and its id, and no cell tuple. A point must be a
        sequence; each coordinate must be an integer in [1, Delta], checked
        in order, and then the point must have d of them."""
        try:
            dim = len(point)
        except TypeError:  # a number, None, a generator
            raise InputError(f"a point must be a sequence of coordinates, got {point!r}") from None
        delta = self.delta
        ident = 0
        for c in point:
            try:
                ci = int(c)
            except (OverflowError, ValueError, TypeError):  # inf, NaN, None, 1+0j
                ci = 0  # outside the range, so refused below
            if ci != c or not 1 <= ci <= delta:
                raise InputError(f"coordinate {c!r} outside integer range [1, {delta}]")
            ident = ident * delta + ci - 1
        if dim != self.d:
            raise InputError(f"point dimension {dim} != {self.d}")
        return ident

    def _fields(self, ident: int) -> list:
        """The coordinates of the level-0 cell with row-major id ``ident``,
        first axis first: each is a ``top_level``-bit field of the id."""
        width = self.top_level
        low = (1 << width) - 1
        return [(ident >> (j * width)) & low for j in range(self.d - 1, -1, -1)]

    def cell_of(self, point, level: int) -> tuple:
        """The zero-based cell of ``point`` at ``level``, decoded from the
        level-0 id that ``cell_id`` checks and forms."""
        if not (0 <= level <= self.top_level):
            raise InputError(f"level {level} outside 0..{self.top_level}")
        return tuple([v >> level for v in self._fields(self.cell_id(point))])

    def level_ids(self, ident: int, count: int = None) -> list:
        """The row-major ids at levels 0..``count``-1 (every level by
        default) of the cells holding the level-0 cell ``ident``: each
        coordinate's bit field shifted right by the level, and the fields
        repacked at the level's width. An update forms the ids of levels 1
        and up only when a fed level above 0 or the shadow needs them."""
        fields = self._fields(ident)
        ids = []
        for lv in range(self.levels if count is None else count):
            width = self.top_level - lv
            out = 0
            for v in fields:
                out = (out << width) | (v >> lv)
            ids.append(out)
        return ids

    def coarsen(self, vector: dict, level: int) -> dict:
        """The {id: count} vector of ``level`` summed into the cells of
        ``level`` + 1, without the cells whose sum is zero: each coordinate
        of a row-major id loses its lowest bit."""
        width = self.top_level - level  # bits per coordinate at ``level``
        low = (1 << width) - 1
        shifts = range((self.d - 1) * width, -1, -width)  # the first coordinate first
        out = {}
        for ident, c in vector.items():
            coarse = 0
            for shift in shifts:
                coarse = (coarse << (width - 1)) | (((ident >> shift) & low) >> 1)
            out[coarse] = out.get(coarse, 0) + c
        return {ident: c for ident, c in out.items() if c}

    def cell_centers(self, ids, level: int) -> list:
        """The center of each cell id at a level, in the order given. A
        level has 2^w cells per axis (w = ``top_level`` - level), so each
        coordinate of a row-major id is a w-bit field: one list per axis
        decodes it with a shift and a mask for every id. These are the ints
        ``id // stride % cells_per_axis`` gives, so the centers keep their
        bits."""
        width = self.top_level - level
        low = (1 << width) - 1
        side = 1 << level
        half = (side + 1) / 2.0
        shifts = [j * width for j in range(self.d - 1, -1, -1)]  # the first axis first
        axes = [[((ident >> shift) & low) * side + half for ident in ids] for shift in shifts]
        return list(zip(*axes))


@dataclass(frozen=True)
class DynReport:
    points: tuple          # weighted cell centers
    level: int
    from_exact: bool


class DynamicCoresetState:
    """Per-level sparse-recovery sketches (and optionally an exact shadow)
    over [Delta]^d, each keyed by the cells' row-major level ids.

    ``with_shadow=True`` keeps exact per-level {id: count} maps, enforces the
    strict turnstile discipline and enables ``report(exact=True)``;
    ``with_sketches=False`` skips sketch allocation for shadow-only replays.
    The sketches of levels ``fed`` and up are empty until they are loaded
    (see the module docstring).
    """

    def __init__(self, delta: int, d: int, k: int, z: int, epsilon: float,
                 delta_fail: float = 0.1, seed: int = 0,
                 with_sketches: bool = True, with_shadow: bool = False):
        _check_counts(k, z)
        if not (0 < epsilon <= 1):
            raise InputError("epsilon must be in (0, 1]")
        if not with_sketches and not with_shadow:
            raise InputError("enable sketches, the shadow, or both")
        if not 0 < delta_fail < 1:
            raise InputError(f"delta_fail must be in (0, 1), got {delta_fail}")
        self.grid = GridConfig(delta, d)
        self.k, self.z, self.epsilon = k, z, epsilon
        self.delta_fail = delta_fail
        # any integer seeds the hashes, a negative one too; a bool is refused
        self.seed = _integer(seed, -math.inf, f"seed must be an integer, got {seed!r}")
        self.s = math.ceil(_size_bound(k, 4.0 * math.sqrt(d), epsilon, d,
                                       "sparsity k*(4*sqrt(d)/eps)^d") - 1e-9) + z
        self.live_count = 0
        self.ops = 0
        self.shadow = [dict() for _ in range(self.grid.levels)] if with_shadow else None
        self.sr = None
        self.fed = 1
        if with_sketches:
            # per-query failure budget: delta / (levels * assumed stream length Delta^(3d))
            queries = self.grid.levels * self.grid.delta ** (3 * d)
            try:
                per_query = delta_fail / max(queries, 1)
            except OverflowError:  # the int is past the float range
                raise InputError(f"failure budget: levels * Delta^(3d) = {self.grid.levels}"
                                 f" * {self.grid.delta}^{3 * d} overflows a float") from None
            self.sr = [SparseRecoverySketch(self.s, per_query, self.grid.cell_count(lv),
                                            seed=_mix64(self.seed + 7919 * lv + 1))
                       for lv in range(self.grid.levels)]

    def update(self, point, sign: int) -> None:
        try:
            sign = _index(sign)
        except TypeError:  # a float, or anything else that is not an integer
            raise InputError(f"sign must be +1 or -1, got {sign!r}") from None
        if sign != 1 and sign != -1:
            raise InputError(f"sign must be +1 or -1, got {sign!r}")
        grid, shadow, sr = self.grid, self.shadow, self.sr
        ident = grid.cell_id(point)  # the only check of the point
        if shadow is not None:
            if sign < 0 and shadow[0].get(ident, 0) <= 0:
                raise InputError(f"deletion of absent point {tuple(point)} (strict turnstile)")
            for m, cell in zip(shadow, grid.level_ids(ident)):
                c = m.get(cell, 0) + sign
                if c:
                    m[cell] = c
                else:
                    del m[cell]
        self.ops += 1
        self.live_count += sign
        if sr is not None:
            fed = self.fed
            if fed < len(sr) and len(sr[0]._pending) >= sr[0].buckets - 1:
                self._load(len(sr))  # this update could make level 0 build tables
                fed = len(sr)
            sr[0].update(ident, sign)
            if fed > 1:
                for sk, cell in zip(sr[1:fed], grid.level_ids(ident, fed)[1:]):
                    sk.update(cell, sign)

    def _load(self, upto: int) -> None:
        """Load levels ``fed``..``upto``-1, each from the buffer of the level
        below, and raise ``fed`` to ``upto``. While ``fed`` < levels no level
        has tables, so each buffer is its level's exact net vector."""
        for lv in range(self.fed, upto):
            self.sr[lv]._pending = self.grid.coarsen(self.sr[lv - 1]._pending, lv - 1)
        self.fed = max(self.fed, upto)

    def level_sketch(self, level: int) -> SparseRecoverySketch:
        """The sketch of ``level``, loaded first if no update has fed it."""
        self._load(level + 1)
        return self.sr[level]

    def apply(self, ops) -> None:
        for sign, point in ops:
            self.update(point, sign)

    def _report_from_cells(self, cells: dict, level: int, from_exact: bool) -> DynReport:
        # the centers are tuples of finite floats and the counts positive
        # ints (signs are ints, and a decode refuses negative counts), so
        # each point is built as _unchecked_point builds it, in one loop
        ids = sorted(cells)
        points = []
        for center, ident in zip(self.grid.cell_centers(ids, level), ids):
            wp = _new_object(WeightedPoint)
            _set_attribute(wp, "point", center)
            _set_attribute(wp, "weight", cells[ident])
            points.append(wp)
        return DynReport(points=tuple(points), level=level, from_exact=from_exact)

    def report(self, exact: bool = False) -> DynReport:
        """Weighted cell centers of the finest level with at most s cells.

        Cells come from the shadow when ``exact``, else from sparse recovery.
        A level whose decode fails is skipped. A level with more than s
        nonzero buckets in one sketch row holds more than s cells, so it is
        skipped without being decoded.
        """
        if self.live_count <= 0:
            raise InputError("report requires at least one live point")
        if exact and self.shadow is None:
            raise InputError("exact report requires the shadow")
        if not exact and self.sr is None:
            raise InputError("sketch report requires sketches")
        for lv in range(self.grid.levels):
            if exact:
                cells = self.shadow[lv]
            elif self.level_sketch(lv).support_lower_bound() > self.s:
                continue
            else:
                cells = self.sr[lv].query()
            if cells is not None and len(cells) <= self.s:
                return self._report_from_cells(cells, lv, exact)
        raise SketchFailureError("sparse recovery failed at every level")

    def merge(self, other: "DynamicCoresetState") -> None:
        """Absorb another shard built with identical parameters and seed.

        Sketches add bucket-wise (linearity), once both states have loaded
        every level; shadows and counters add too, so shard-then-merge
        ingestion equals sequential ingestion. A shadow holds only positive
        counts (each shard refuses to delete what it does not hold), so no
        sum of two shadows cancels. Every check runs before anything is
        loaded or added, so a refused merge changes nothing.
        """
        if (self.grid, self.k, self.z, self.epsilon, self.delta_fail, self.seed, self.s) != \
                (other.grid, other.k, other.z, other.epsilon, other.delta_fail, other.seed, other.s):
            raise InputError("can only merge states with identical configuration")
        if (self.shadow is None) != (other.shadow is None) or \
                (self.sr is None) != (other.sr is None):
            raise InputError("can only merge states with identical modes")
        if self.sr is not None:
            self._load(self.grid.levels)
            other._load(other.grid.levels)
        self.live_count += other.live_count
        self.ops += other.ops
        if self.shadow is not None:
            for mine, theirs in zip(self.shadow, other.shadow):
                for ident, c in theirs.items():
                    mine[ident] = mine.get(ident, 0) + c
        if self.sr is not None:
            for mine, theirs in zip(self.sr, other.sr):
                mine.merge(theirs)

    def sketch_bytes(self) -> int:
        """Nominal bytes of the built tables and buffered ids of every level.
        An unfed level counts the buffer it would be loaded with, so the
        figure is that of feeding every level on every update."""
        if self.sr is None:
            return 0
        sr, fed = self.sr, self.fed
        vector, unfed = sr[fed - 1]._pending, 0
        for lv in range(fed, len(sr)):
            vector = self.grid.coarsen(vector, lv - 1)
            unfed += len(vector)
        return sum(sk.nominal_bytes() for sk in sr[:fed]) + unfed * _BUFFERED_ID_BYTES

    def digest(self) -> tuple:
        if self.sr is None:
            raise InputError("digest requires sketches")
        self._load(self.grid.levels)
        return tuple(sk.digest() for sk in self.sr)
