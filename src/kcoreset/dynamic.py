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

An update validates the point once, as its level-0 cell. The cell at level
i is that cell's index shifted right by i, and every structure names it by
one integer id: the shifted coordinates read row-major in base Delta >> i
(``GridConfig.level_ids``), so no per-level cell tuple is built. The
sketch of level i sees that id, and so does the optional exact shadow
(per-level id -> count maps), which enforces strict-turnstile discipline
and answers reports without randomness (test mode). A report takes
{id: count} from the shadow or the sketch, sorts the ids once (row-major
ids sort as their index tuples do) and turns them straight into centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, SketchFailureError
from .metric import _unchecked_point
from .sketches import SparseRecoverySketch, _mix64


@dataclass(frozen=True)
class GridConfig:
    """Grid hierarchy over [Delta]^d; Delta is rounded up to a power of two."""

    delta: int
    d: int

    def __post_init__(self):
        if self.delta < 1 or self.d < 1:
            raise InputError("need Delta >= 1 and d >= 1")
        object.__setattr__(self, "delta", 1 << max(0, (self.delta - 1).bit_length()))

    @property
    def top_level(self) -> int:
        return max(1, self.delta).bit_length() - 1  # log2 of the power of two

    @property
    def levels(self) -> int:
        return self.top_level + 1

    def cells_per_axis(self, level: int) -> int:
        return max(1, self.delta >> level)

    def cell_count(self, level: int) -> int:
        return self.cells_per_axis(level) ** self.d

    def cell_of(self, point, level: int) -> tuple:
        if not (0 <= level <= self.top_level):
            raise InputError(f"level {level} outside 0..{self.top_level}")
        idx = []
        for c in point:
            ci = int(c)
            if ci != c or not (1 <= ci <= self.delta):
                raise InputError(f"coordinate {c} outside integer range [1, {self.delta}]")
            idx.append((ci - 1) >> level)
        if len(idx) != self.d:
            raise InputError(f"point dimension {len(idx)} != {self.d}")
        return tuple(idx)

    def level_ids(self, base: tuple) -> list:
        """The row-major id at every level of the cells holding level-0 cell
        ``base``: the coordinates shifted right by the level, read in base
        ``cells_per_axis`` of that level."""
        delta = self.delta
        ids = []
        for lv in range(self.levels):
            per_axis = delta >> lv
            ident = 0
            for v in base:
                ident = ident * per_axis + (v >> lv)
            ids.append(ident)
        return ids

    def cell_centers(self, ids, level: int) -> list:
        """The center of each cell id at a level, in the order given."""
        per_axis = self.cells_per_axis(level)
        strides = [per_axis ** j for j in range(self.d - 1, -1, -1)]
        side = 1 << level
        half = (side + 1) / 2.0
        return [tuple([ident // st % per_axis * side + half for st in strides]) for ident in ids]


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
    """

    def __init__(self, delta: int, d: int, k: int, z: int, epsilon: float,
                 delta_fail: float = 0.1, seed: int = 0,
                 with_sketches: bool = True, with_shadow: bool = False):
        if k < 1 or z < 0 or not (0 < epsilon <= 1):
            raise InputError("need k >= 1, z >= 0, 0 < epsilon <= 1")
        if not with_sketches and not with_shadow:
            raise InputError("enable sketches, the shadow, or both")
        if not 0 < delta_fail < 1:
            raise InputError(f"delta_fail must be in (0, 1), got {delta_fail}")
        self.grid = GridConfig(delta, d)
        self.k, self.z, self.epsilon = k, z, epsilon
        self.delta_fail = delta_fail
        self.seed = seed
        self.s = math.ceil(k * (4.0 * math.sqrt(d) / epsilon) ** d - 1e-9) + z
        self.live_count = 0
        self.ops = 0
        self.shadow = [dict() for _ in range(self.grid.levels)] if with_shadow else None
        self.sr = None
        if with_sketches:
            # per-query failure budget: delta / (levels * assumed stream length Delta^(3d))
            queries = self.grid.levels * self.grid.delta ** (3 * d)
            per_query = delta_fail / max(queries, 1)
            self.sr = [SparseRecoverySketch(self.s, per_query, self.grid.cell_count(lv),
                                            seed=_mix64(seed + 7919 * lv + 1))
                       for lv in range(self.grid.levels)]

    def update(self, point, sign: int) -> None:
        if sign not in (1, -1):
            raise InputError("sign must be +1 or -1")
        grid = self.grid
        ids = grid.level_ids(grid.cell_of(point, 0))  # cell_of validates the point
        if self.shadow is not None and sign < 0 and self.shadow[0].get(ids[0], 0) <= 0:
            raise InputError(f"deletion of absent point {tuple(point)} (strict turnstile)")
        self.ops += 1
        self.live_count += sign
        if self.shadow is not None:
            for m, ident in zip(self.shadow, ids):
                c = m.get(ident, 0) + sign
                if c:
                    m[ident] = c
                else:
                    m.pop(ident, None)
        if self.sr is not None:
            for sk, ident in zip(self.sr, ids):
                sk.update(ident, sign)

    def apply(self, ops) -> None:
        for sign, point in ops:
            self.update(point, sign)

    def _report_from_cells(self, cells: dict, level: int, from_exact: bool) -> DynReport:
        # the centers are tuples of finite floats and the counts positive
        # ints (a decode refuses negative ones), so no point is re-checked
        ids = sorted(cells)
        centers = self.grid.cell_centers(ids, level)
        pts = tuple(_unchecked_point(center, int(cells[i])) for center, i in zip(centers, ids))
        return DynReport(points=pts, level=level, from_exact=from_exact)

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
            elif self.sr[lv].support_lower_bound() > self.s:
                continue
            else:
                cells = self.sr[lv].query()
            if cells is not None and len(cells) <= self.s:
                return self._report_from_cells(cells, lv, exact)
        raise SketchFailureError("sparse recovery failed at every level")

    def merge(self, other: "DynamicCoresetState") -> None:
        """Absorb another shard built with identical parameters and seed.

        Sketches add bucket-wise (linearity); shadows and counters add too,
        so shard-then-merge ingestion equals sequential ingestion. A shadow
        holds only positive counts (each shard refuses to delete what it does
        not hold), so no sum of two shadows cancels. Every check runs before
        anything is added, so a refused merge changes nothing.
        """
        if (self.grid, self.k, self.z, self.epsilon, self.delta_fail, self.seed, self.s) != \
                (other.grid, other.k, other.z, other.epsilon, other.delta_fail, other.seed, other.s):
            raise InputError("can only merge states with identical configuration")
        if (self.shadow is None) != (other.shadow is None) or \
                (self.sr is None) != (other.sr is None):
            raise InputError("can only merge states with identical modes")
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
        """Nominal bytes of the built tables and buffered ids of every level."""
        if self.sr is None:
            return 0
        return sum(sk.nominal_bytes() for sk in self.sr)

    def digest(self) -> tuple:
        if self.sr is None:
            raise InputError("digest requires sketches")
        return tuple(sk.digest() for sk in self.sr)
