"""Linear turnstile sketches: s-sparse recovery and a distinct-count estimator.

The sparse-recovery sketch hashes ids into Theta(s) buckets per row over
Theta(log(s/delta)) rows; each bucket accumulates (count, id-weighted sum,
weighted sum of squared ids modulo the Mersenne prime 2^127 - 1). A bucket
holds a single id exactly when its weighted id-variance Q - C*(S/C)^2 is
zero; under strict-turnstile discipline that variance is a nonnegative
integer far below the field size, so the singleton test can never falsely
verify. Peeling therefore returns only exact pairs; a query either recovers
everything or reports an explicit failure.

Updates are write-combined. ``update`` takes its id and sign as ints
(``operator.index``, so a float is refused and a numpy integer never makes
a count a fixed-width numpy int), checks their ranges and adds the sign
into a buffer of id -> net count, dropping ids whose net count returns to
zero. A sketch starts in sparse mode: it has no tables, the buffer is the
exact net vector, ``query`` returns a copy of it and ``support_lower_bound``
its size. The tables are allocated and the buffer is applied to them, one
row update per id and row with the id's net count, when the buffer reaches
``buckets`` (2s) distinct ids, and in ``digest`` and ``merge``. From then on
the buffer is applied at the start of every read. A decode that succeeds
with fewer than ``buckets`` ids returns the sketch to sparse mode: the
decoded vector becomes the buffer and the tables are dropped. Because the
sketch is linear and reduction modulo the prime commutes with addition, the
tables built from a buffer equal those of applying every update on its own,
so the mode never shows in ``digest``.
A query in sparse mode never fails; only a decode of the tables can.
The rows' hash parameters are drawn, from a ``random.Random`` seeded by the
sketch's seed, when the tables are first allocated: every read of them
(a flush, a decode, ``digest``, ``merge``) allocates the tables first. The
draws do not depend on when they happen, and a sketch that never leaves
sparse mode draws none.

The distinct-count sketch subsamples ids geometrically (level = trailing
zeros of a pairwise-independent hash) and keeps a small recovery structure
per level; the estimate is the exact recovered count at the finest decodable
level, scaled by 2^level.

Both structures are linear: updates commute, insert+delete cancels exactly,
and two sketches with the same seeds merge by bucket-wise addition.
"""

from __future__ import annotations

import math
import random
from operator import index as _index

from .errors import InputError, SketchFailureError

_M64 = (1 << 64) - 1
_PRIME = (1 << 127) - 1
_BUFFERED_ID_BYTES = 16  # an id and its net count, one 8-byte word each


def _mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


class SparseRecoverySketch:
    """Recovers all nonzero frequencies exactly when at most ~s are nonzero.

    Strict turnstile only (no negative net counts). ``query`` returns a dict
    id -> positive count on success, or None for an explicit failure, and
    raises InputError when it finds a negative net count.

    ``update`` only records the signed update in ``_pending`` (id -> nonzero
    net count, fewer than ``buckets`` entries after every update). While the
    ``rows x buckets`` tables ``_count``, ``_idsum`` and ``_sqsum`` are None
    (sparse mode), ``_pending`` is the whole sketch and reads use it directly.
    ``_flush`` allocates the tables if needed (drawing ``_hashes`` the first
    time) and applies each net count once per row; it runs when the buffer
    fills, in ``digest`` and ``merge``, and before every read once the tables
    exist.
    """

    def __init__(self, s: int, delta_fail: float, universe: int, seed: int = 0,
                 rows: int = None):
        if s < 1 or universe < 1 or not (0 < delta_fail < 1):
            raise InputError("need s >= 1, universe >= 1, 0 < delta_fail < 1")
        self.s = s
        self.delta_fail = delta_fail
        self.universe = universe
        self.seed = seed
        self.rows = rows if rows is not None else max(
            4, math.ceil(math.log2(max(s, 2) / delta_fail)))
        self.buckets = 2 * s
        self._hashes = None  # drawn with the first tables, see ``_flush``
        self._pending: dict[int, int] = {}
        self._count = self._idsum = self._sqsum = None

    def update(self, ident: int, sign: int) -> None:
        try:
            ident, sign = _index(ident), _index(sign)
        except TypeError:  # a float id or sign would make the counts floats
            raise InputError(f"id and sign must be integers, got {ident!r} and {sign!r}") from None
        if ident < 0 or ident >= self.universe:
            raise InputError(f"id {ident} outside universe [0, {self.universe})")
        if sign != 1 and sign != -1:
            raise InputError(f"sign must be +1 or -1, got {sign!r}")
        pending = self._pending
        c = pending.get(ident, 0) + sign
        if c:
            pending[ident] = c
            if len(pending) >= self.buckets:
                self._flush()
        else:
            del pending[ident]

    def _flush(self) -> None:
        """Apply the buffered net counts to the tables, allocating them first
        (and, the first time, drawing the hash parameters) if there are none."""
        if self._count is None:
            size = self.rows * self.buckets
            self._count = [0] * size
            self._idsum = [0] * size
            self._sqsum = [0] * size
            if self._hashes is None:
                rng = random.Random(_mix64(self.seed) ^ 0x5EED)
                hash_a = [rng.randrange(1, _PRIME) for _ in range(self.rows)]
                hash_b = [rng.randrange(0, _PRIME) for _ in range(self.rows)]
                # row r sends id x to bucket r*buckets + ((a_r*x + b_r) mod P) mod buckets
                self._hashes = [(mul, add, r * self.buckets)
                                for r, (mul, add) in enumerate(zip(hash_a, hash_b))]
        count, idsum, sqsum = self._count, self._idsum, self._sqsum
        buckets = self.buckets
        for ident, c in self._pending.items():
            cid = c * ident
            sq = cid * ident
            for mul, add, off in self._hashes:
                j = off + (mul * ident + add) % _PRIME % buckets
                count[j] += c
                idsum[j] += cid
                sqsum[j] = (sqsum[j] + sq) % _PRIME
        self._pending.clear()

    def query(self):
        if self._count is None:
            if any(c < 0 for c in self._pending.values()):
                raise InputError("decoded a negative net count: strict-turnstile violation")
            return dict(self._pending)
        self._flush()
        count = list(self._count)
        idsum = list(self._idsum)
        sqsum = list(self._sqsum)
        buckets = self.buckets
        recovered: dict[int, int] = {}
        queue = [j for j, c in enumerate(count) if c]  # zero-count buckets never peel
        while queue:
            next_queue = []
            progress = False
            for j in queue:
                c = count[j]
                if c == 0:
                    continue
                if idsum[j] % c != 0:
                    next_queue.append(j)
                    continue
                ident = idsum[j] // c
                if not (0 <= ident < self.universe) or sqsum[j] != (c * ident * ident) % _PRIME:
                    next_queue.append(j)
                    continue
                recovered[ident] = recovered.get(ident, 0) + c
                cid = c * ident
                sq = cid * ident
                for mul, add, off in self._hashes:
                    b = off + (mul * ident + add) % _PRIME % buckets
                    count[b] -= c
                    idsum[b] -= cid
                    sqsum[b] = (sqsum[b] - sq) % _PRIME
                    next_queue.append(b)
                progress = True
            if not progress:
                break
            queue = sorted(set(next_queue))
        out = {i: c for i, c in recovered.items() if c != 0}
        if any(c < 0 for c in out.values()):
            raise InputError("decoded a negative net count: strict-turnstile violation")
        if any(count) or any(idsum) or any(sqsum):
            return None
        if len(out) < buckets:
            # the tables are exactly the sketch of ``out``: keep it as the buffer
            self._pending = dict(out)
            self._count = self._idsum = self._sqsum = None
        return out

    def support_lower_bound(self) -> int:
        """A lower bound on the number of nonzero ids, without decoding.

        Without tables it is the buffer's size, the exact support. Otherwise
        it is the most nonzero-count buckets in one row (a row's buckets hold
        disjoint ids, and a bucket whose ids are all zero has count zero)."""
        if self._count is None:
            return len(self._pending)
        self._flush()
        b = self.buckets
        return b - min(self._count[r * b:(r + 1) * b].count(0) for r in range(self.rows))

    def digest(self) -> tuple:
        self._flush()
        return (tuple(self._count), tuple(self._idsum), tuple(self._sqsum))

    def merge(self, other: "SparseRecoverySketch") -> None:
        """Bucket-wise addition; requires identical shape and seeds."""
        if (self.s, self.rows, self.buckets, self.seed, self.universe) != \
                (other.s, other.rows, other.buckets, other.seed, other.universe):
            raise InputError("can only merge sketches with identical configuration")
        self._flush()
        other._flush()
        for j in range(len(self._count)):
            self._count[j] += other._count[j]
            self._idsum[j] += other._idsum[j]
            self._sqsum[j] = (self._sqsum[j] + other._sqsum[j]) % _PRIME

    def nominal_bytes(self) -> int:
        """Bytes the sketch holds, in 8-byte words: four per table bucket once
        the tables are built (count and id sum one word each, the field
        element two), plus two per buffered id (the id and its net count)."""
        tables = 0 if self._count is None else self.rows * self.buckets * 4 * 8
        return tables + _BUFFERED_ID_BYTES * len(self._pending)


class F0Sketch:
    """(1 +/- eps_est)-estimator of the number of nonzero frequencies."""

    def __init__(self, epsilon_est: float, delta_fail: float, universe: int, seed: int = 0):
        if not (0 < epsilon_est < 1) or not (0 < delta_fail < 1) or universe < 1:
            raise InputError("need 0 < epsilon_est < 1, 0 < delta_fail < 1, universe >= 1")
        self.epsilon_est = epsilon_est
        self.delta_fail = delta_fail
        self.universe = universe
        self.seed = seed
        self.capacity = max(16, math.ceil(4.0 / epsilon_est**2))
        self.levels = max(1, math.ceil(math.log2(max(universe, 2)))) + 1
        rows = max(4, math.ceil(math.log2(max(2.0, 1.0 / delta_fail))))
        rng = random.Random(_mix64(seed) ^ 0xF0)
        self._level_seed = rng.getrandbits(63)
        self._samplers = [
            SparseRecoverySketch(self.capacity, delta_fail, universe,
                                 seed=_mix64(seed + 101 * lv), rows=rows)
            for lv in range(self.levels)
        ]

    def _level_of(self, ident: int) -> int:
        v = _mix64(self._level_seed ^ ((ident * 0x9E3779B97F4A7C15) & _M64))
        if v == 0:
            return self.levels - 1
        tz = (v & -v).bit_length() - 1
        return min(tz, self.levels - 1)

    def update(self, ident: int, sign: int) -> None:
        # every id feeds level 0, whose update checks the id and sign before
        # anything changes, and so before the id is hashed
        samplers = self._samplers
        samplers[0].update(ident, sign)
        for sk in samplers[1:self._level_of(_index(ident)) + 1]:
            sk.update(ident, sign)

    def query(self) -> float:
        for lv, sk in enumerate(self._samplers):
            res = sk.query()
            if res is not None:
                return float(len(res) * (1 << lv))
        raise SketchFailureError("distinct-count estimation failed at every sampling level")

    def digest(self) -> tuple:
        return tuple(sk.digest() for sk in self._samplers)

    def merge(self, other: "F0Sketch") -> None:
        if (self.seed, self.universe, self.capacity, self.levels) != \
                (other.seed, other.universe, other.capacity, other.levels):
            raise InputError("can only merge sketches with identical configuration")
        for a, b in zip(self._samplers, other._samplers):
            a.merge(b)

    def nominal_bytes(self) -> int:
        return sum(sk.nominal_bytes() for sk in self._samplers)
