import math
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kcoreset import F0Sketch, InputError, SparseRecoverySketch
from kcoreset.sketches import _PRIME, _mix64


class EagerSparseRecoverySketch:
    """Reference: the sketch as it was before write-combining. Every update
    touches one bucket per row at once, the tables exist from construction,
    and peeling starts from every bucket."""

    def __init__(self, s, delta_fail, universe, seed=0, rows=None):
        self.s = s
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

    def _bucket(self, row, ident):
        return row * self.buckets + ((self._hash_a[row] * ident + self._hash_b[row]) % _PRIME) % self.buckets

    def update(self, ident, sign):
        if not (0 <= ident < self.universe):
            raise InputError(f"id {ident} outside universe [0, {self.universe})")
        if sign not in (1, -1):
            raise InputError("sign must be +1 or -1")
        sq = sign * ident * ident
        for row in range(self.rows):
            j = self._bucket(row, ident)
            self._count[j] += sign
            self._idsum[j] += sign * ident
            self._sqsum[j] = (self._sqsum[j] + sq) % _PRIME

    def query(self):
        count, idsum, sqsum = list(self._count), list(self._idsum), list(self._sqsum)
        recovered = {}
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

    def support_lower_bound(self):
        b = self.buckets
        return b - min(self._count[r * b:(r + 1) * b].count(0) for r in range(self.rows))

    def digest(self):
        return (tuple(self._count), tuple(self._idsum), tuple(self._sqsum))

    def merge(self, other):
        for j in range(len(self._count)):
            self._count[j] += other._count[j]
            self._idsum[j] += other._idsum[j]
            self._sqsum[j] = (self._sqsum[j] + other._sqsum[j]) % _PRIME


def _outcome(call):
    try:
        return ("ok", call())
    except InputError as e:
        return ("raised", str(e))


# one step of an interleaving: (operation, id, sign); "side_update" feeds a
# second shard that "merge" folds into the main sketch
_steps = st.lists(st.tuples(
    st.sampled_from(["update"] * 8 + ["side_update"] * 2
                    + ["digest", "query", "support_lower_bound", "merge"]),
    st.integers(0, 63), st.sampled_from([1, 1, -1])), max_size=80)


@seed(20070)
@given(s=st.integers(1, 4), universe=st.sampled_from([8, 64]), sk_seed=st.integers(0, 50),
       steps=_steps)
@settings(max_examples=300, deadline=None)
def test_write_combining_matches_eager_oracle(s, universe, sk_seed, steps):
    # 2s buckets of 2 to 8 overflow the buffer mid-stream; a sign of -1 on an
    # absent id makes the stream negative, so decoding must raise alike
    main, side = (SparseRecoverySketch(s, 0.1, universe, seed=sk_seed) for _ in range(2))
    ref_main, ref_side = (EagerSparseRecoverySketch(s, 0.1, universe, seed=sk_seed)
                          for _ in range(2))
    for op, ident, sign in steps:
        ident %= universe
        if op in ("update", "side_update"):
            sk, ref = (main, ref_main) if op == "update" else (side, ref_side)
            sk.update(ident, sign)
            ref.update(ident, sign)
            assert len(sk._pending) < sk.buckets
        elif op == "merge":
            main.merge(side)
            ref_main.merge(ref_side)
            assert side.digest() == ref_side.digest()
        else:
            assert _outcome(getattr(main, op)) == _outcome(getattr(ref_main, op))
    assert main.digest() == ref_main.digest()
    assert _outcome(main.query) == _outcome(ref_main.query)


def test_buffer_flushes_at_bucket_count_and_tables_are_lazy():
    sk = SparseRecoverySketch(4, 0.1, 1 << 12, seed=2)
    assert sk._count is None
    for i in range(sk.buckets - 1):
        sk.update(i, 1)
    assert sk._count is None and len(sk._pending) == sk.buckets - 1
    sk.update(3, -1)  # cancels in the buffer
    sk.update(3, 1)
    sk.update(sk.buckets - 1, 1)  # the buffer fills and is flushed
    assert sk._count is not None and sk._pending == {}


def test_insert_delete_cancels():
    sk = SparseRecoverySketch(8, 0.1, 1024, seed=3)
    fresh = SparseRecoverySketch(8, 0.1, 1024, seed=3)
    sk.update(17, 1)
    sk.update(17, -1)
    assert sk.digest() == fresh.digest()


def test_negative_net_count_is_a_turnstile_violation():
    sk = SparseRecoverySketch(8, 0.1, 1024, seed=3)
    sk.update(5, 1)
    sk.update(9, -1)
    with pytest.raises(InputError, match="strict-turnstile"):
        sk.query()


def test_empty_sketch_queries_empty():
    assert SparseRecoverySketch(8, 0.1, 1024, seed=1).query() == {}


def test_counts_accumulate():
    sk = SparseRecoverySketch(8, 0.1, 1024, seed=5)
    sk.update(3, 1)
    sk.update(3, 1)
    sk.update(9, 1)
    assert sk.query() == {3: 2, 9: 1}


def test_random_cancellation_leaves_empty():
    rng = np.random.default_rng(7)
    sk = SparseRecoverySketch(8, 0.1, 4096, seed=11)
    net = {}
    ops = []
    for _ in range(300):
        ident = int(rng.integers(0, 4096))
        ops.append(ident)
        net[ident] = net.get(ident, 0) + 1
        sk.update(ident, 1)
    for ident in ops:
        sk.update(ident, -1)
    assert sk.query() == {}


def test_exact_recovery_and_never_wrong():
    failures = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        sk = SparseRecoverySketch(16, 0.1, 4096, seed=seed)
        truth = {}
        for ident in rng.choice(4096, size=rng.integers(0, 17), replace=False):
            c = int(rng.integers(1, 5))
            truth[int(ident)] = c
            for _ in range(c):
                sk.update(int(ident), 1)
        got = sk.query()
        if got is None:
            failures += 1
        else:
            assert got == truth
    assert failures <= 10


def test_overloaded_sketch_fails_or_exact():
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        sk = SparseRecoverySketch(8, 0.1, 1 << 16, seed=seed)
        truth = {}
        for ident in rng.choice(1 << 16, size=32, replace=False):  # 4s items
            truth[int(ident)] = 1
            sk.update(int(ident), 1)
        got = sk.query()
        assert got is None or got == truth


def test_support_lower_bound_never_exceeds_support():
    rng = np.random.default_rng(61)
    for seed in range(40):
        sk = SparseRecoverySketch(4, 0.1, 1 << 12, seed=seed)
        ids = [int(i) for i in rng.choice(1 << 12, size=int(rng.integers(0, 40)), replace=False)]
        for i in ids:
            sk.update(i, 1)
        for i in ids[: len(ids) // 3]:  # deleted ids leave their buckets
            sk.update(i, -1)
        live = len(ids) - len(ids) // 3
        assert sk.support_lower_bound() <= live
        if live <= 1:
            assert sk.support_lower_bound() == live
    full = SparseRecoverySketch(4, 0.1, 1 << 12, seed=0)
    for i in range(400):
        full.update(i, 1)
    assert full.support_lower_bound() == full.buckets


def test_linearity_under_permutation():
    rng = np.random.default_rng(3)
    updates = [(int(i), s) for i in rng.integers(0, 512, size=80) for s in (1,)]
    a = SparseRecoverySketch(8, 0.1, 512, seed=9)
    b = SparseRecoverySketch(8, 0.1, 512, seed=9)
    for i, s in updates:
        a.update(i, s)
    for i, s in reversed(updates):
        b.update(i, s)
    assert a.digest() == b.digest()


def test_merge_equals_sequential():
    a = SparseRecoverySketch(8, 0.1, 256, seed=21)
    b = SparseRecoverySketch(8, 0.1, 256, seed=21)
    c = SparseRecoverySketch(8, 0.1, 256, seed=21)
    for i in (5, 9, 13):
        a.update(i, 1)
        c.update(i, 1)
    for i in (9, 200):
        b.update(i, 1)
        c.update(i, 1)
    a.merge(b)
    assert a.digest() == c.digest()
    with pytest.raises(InputError):
        a.merge(SparseRecoverySketch(8, 0.1, 256, seed=22))


def test_update_validation():
    sk = SparseRecoverySketch(4, 0.1, 16, seed=0)
    with pytest.raises(InputError):
        sk.update(16, 1)
    with pytest.raises(InputError):
        sk.update(3, 2)


def test_f0_empty_and_cancellation():
    f0 = F0Sketch(0.2, 0.1, 1 << 20, seed=2)
    assert f0.query() == 0.0
    for i in range(100):
        f0.update(i * 977, 1)
    for i in range(100):
        f0.update(i * 977, -1)
    assert f0.query() == 0.0


def test_f0_rough_accuracy():
    hits = 0
    trials = 60
    for seed in range(trials):
        f0 = F0Sketch(0.2, 0.1, 1 << 20, seed=seed)
        rng = np.random.default_rng(seed)
        for ident in rng.choice(1 << 20, size=500, replace=False):
            f0.update(int(ident), 1)
        if 400 <= f0.query() <= 600:
            hits += 1
    assert hits >= int(0.9 * trials)
