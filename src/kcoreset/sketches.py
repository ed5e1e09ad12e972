"""Linear turnstile sketches: s-sparse recovery and a distinct-count estimator.

The sparse-recovery sketch hashes ids into Theta(s) buckets per row over
Theta(log(s/delta)) rows; each bucket accumulates (count, id-weighted sum,
weighted sum of squared ids modulo the Mersenne prime 2^127 - 1). A bucket
holds a single id exactly when its weighted id-variance Q - C*(S/C)^2 is
zero; under strict-turnstile discipline that variance is a nonnegative
integer far below the field size, so the singleton test can never falsely
verify. Peeling therefore returns only exact pairs; a query either recovers
everything or reports an explicit failure.

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

from .errors import InputError, SketchFailureError

_M64 = (1 << 64) - 1
_PRIME = (1 << 127) - 1


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
    raises InputError when it decodes a negative net count.
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
        rng = random.Random(_mix64(seed) ^ 0x5EED)
        self._hash_a = [rng.randrange(1, _PRIME) for _ in range(self.rows)]
        self._hash_b = [rng.randrange(0, _PRIME) for _ in range(self.rows)]
        size = self.rows * self.buckets
        self._count = [0] * size
        self._idsum = [0] * size
        self._sqsum = [0] * size

    def _bucket(self, row: int, ident: int) -> int:
        return row * self.buckets + ((self._hash_a[row] * ident + self._hash_b[row]) % _PRIME) % self.buckets

    def update(self, ident: int, sign: int) -> None:
        if not (0 <= ident < self.universe):
            raise InputError(f"id {ident} outside universe [0, {self.universe})")
        if sign not in (1, -1):
            raise InputError("sign must be +1 or -1")
        sq = sign * ident * ident
        count, idsum, sqsum = self._count, self._idsum, self._sqsum
        for row in range(self.rows):
            j = self._bucket(row, ident)
            count[j] += sign
            idsum[j] += sign * ident
            sqsum[j] = (sqsum[j] + sq) % _PRIME

    def query(self):
        count = list(self._count)
        idsum = list(self._idsum)
        sqsum = list(self._sqsum)
        recovered: dict[int, int] = {}
        pending = list(range(len(count)))
        while pending:
            next_pending = []
            progress = False
            for j in pending:
                c = count[j]
                if c == 0:
                    continue
                if idsum[j] % c != 0:
                    next_pending.append(j)
                    continue
                ident = idsum[j] // c
                if not (0 <= ident < self.universe) or sqsum[j] != (c * ident * ident) % _PRIME:
                    next_pending.append(j)
                    continue
                recovered[ident] = recovered.get(ident, 0) + c
                sq = c * ident * ident
                for row in range(self.rows):
                    b = self._bucket(row, ident)
                    count[b] -= c
                    idsum[b] -= c * ident
                    sqsum[b] = (sqsum[b] - sq) % _PRIME
                    next_pending.append(b)
                progress = True
            if not progress:
                break
            pending = sorted(set(next_pending))
        out = {i: c for i, c in recovered.items() if c != 0}
        if any(c < 0 for c in out.values()):
            raise InputError("decoded a negative net count: strict-turnstile violation")
        if any(count) or any(idsum) or any(sqsum):
            return None
        return out

    def support_lower_bound(self) -> int:
        """A lower bound on the number of nonzero ids, without decoding: the
        most nonzero-count buckets in one row (a row's buckets hold disjoint
        ids, and a bucket whose ids are all zero has count zero)."""
        b = self.buckets
        return b - min(self._count[r * b:(r + 1) * b].count(0) for r in range(self.rows))

    def digest(self) -> tuple:
        return (tuple(self._count), tuple(self._idsum), tuple(self._sqsum))

    def merge(self, other: "SparseRecoverySketch") -> None:
        """Bucket-wise addition; requires identical shape and seeds."""
        if (self.s, self.rows, self.buckets, self.seed, self.universe) != \
                (other.s, other.rows, other.buckets, other.seed, other.universe):
            raise InputError("can only merge sketches with identical configuration")
        for j in range(len(self._count)):
            self._count[j] += other._count[j]
            self._idsum[j] += other._idsum[j]
            self._sqsum[j] = (self._sqsum[j] + other._sqsum[j]) % _PRIME

    def nominal_bytes(self) -> int:
        # counts and id sums in machine words, field elements in two words
        return self.rows * self.buckets * 4 * 8


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
        top = self._level_of(ident)
        for lv in range(top + 1):
            self._samplers[lv].update(ident, sign)

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
