import copy
import hashlib
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


def _exact(net):
    """What a sketch without tables answers: the net vector, or the
    strict-turnstile error when a net count is negative."""
    if any(c < 0 for c in net.values()):
        raise InputError("decoded a negative net count: strict-turnstile violation")
    return {i: c for i, c in net.items() if c}


def _add(net, ident, c):
    net[ident] = net.get(ident, 0) + c


def _check_against_eager(s, universe, sk_seed, rows, steps):
    # 2s buckets of 2 to 8 overflow the buffer mid-stream; a sign of -1 on an
    # absent id makes the stream negative, so reading it must raise alike.
    # A sketch without tables (sparse mode) answers from its exact buffer, so
    # where the eager sketch's decode fails (often with 1 or 2 rows) it
    # returns the net vector, and its support bound is the exact support.
    main, side = (SparseRecoverySketch(s, 0.1, universe, seed=sk_seed, rows=rows)
                  for _ in range(2))
    ref_main, ref_side = (EagerSparseRecoverySketch(s, 0.1, universe, seed=sk_seed, rows=rows)
                          for _ in range(2))
    net_main, net_side = {}, {}
    for op, ident, sign in steps:
        ident %= universe
        if op in ("update", "side_update"):
            sk, ref, net = (main, ref_main, net_main) if op == "update" \
                else (side, ref_side, net_side)
            sk.update(ident, sign)
            ref.update(ident, sign)
            _add(net, ident, sign)
            assert len(sk._pending) < sk.buckets
        elif op == "merge":
            main.merge(side)
            ref_main.merge(ref_side)
            for i, c in net_side.items():
                _add(net_main, i, c)
            assert len(main._pending) < main.buckets
            assert copy.deepcopy(side).digest() == ref_side.digest()
        elif op == "digest":
            assert main.digest() == ref_main.digest()
        else:
            sparse = main._count is None
            got, expect = _outcome(getattr(main, op)), _outcome(getattr(ref_main, op))
            if sparse and op == "query" and expect == ("ok", None):
                expect = _outcome(lambda: _exact(net_main))
            elif sparse and op == "support_lower_bound":
                expect = ("ok", sum(1 for c in net_main.values() if c))
            assert got == expect
        # a copy, so that checking the digest does not build main's tables
        assert copy.deepcopy(main).digest() == ref_main.digest()
    sparse = main._count is None
    got, expect = _outcome(main.query), _outcome(ref_main.query)
    if sparse and expect == ("ok", None):
        expect = _outcome(lambda: _exact(net_main))
    assert got == expect
    assert main.digest() == ref_main.digest()


@seed(20070)
@given(s=st.integers(1, 4), universe=st.sampled_from([8, 64]), sk_seed=st.integers(0, 50),
       steps=_steps)
@settings(max_examples=300, deadline=None)
def test_write_combining_matches_eager_oracle(s, universe, sk_seed, steps):
    _check_against_eager(s, universe, sk_seed, None, steps)


@seed(20071)
@given(s=st.integers(1, 4), universe=st.sampled_from([8, 64]), sk_seed=st.integers(0, 50),
       rows=st.sampled_from([1, 2]), steps=_steps)
@settings(max_examples=150, deadline=None)
def test_sparse_mode_answers_where_few_row_eager_decode_fails(s, universe, sk_seed, rows,
                                                              steps):
    # with 1 or 2 rows the eager decode often fails while the sketch is sparse
    _check_against_eager(s, universe, sk_seed, rows, steps)


def test_sparse_mode_reads_the_buffer_and_builds_no_tables():
    sk = SparseRecoverySketch(4, 0.1, 1 << 12, seed=2)
    for i in (5, 9, 9, 700):
        sk.update(i, 1)
    sk.update(5, -1)
    assert sk.support_lower_bound() == 2  # exact: 9 and 700
    assert sk.query() == {9: 2, 700: 1}
    assert sk._count is None
    sk.query()[9] = 0  # a copy, not the buffer
    assert sk.query() == {9: 2, 700: 1}
    sk.update(3, -1)
    with pytest.raises(InputError, match="strict-turnstile"):
        sk.query()
    assert sk._count is None


def test_decode_below_bucket_count_returns_to_sparse_mode():
    sk = SparseRecoverySketch(4, 0.1, 1 << 12, seed=7)
    ref = EagerSparseRecoverySketch(4, 0.1, 1 << 12, seed=7)
    ids = [100 + 3 * j for j in range(3 * sk.buckets)]
    for i in ids[:sk.buckets]:  # the buffer fills: the tables are built
        sk.update(i, 1)
        ref.update(i, 1)
    assert sk._count is not None
    assert sk.query() == ref.query() == dict.fromkeys(ids[:sk.buckets], 1)
    assert sk._count is not None  # a decode of 2s ids keeps the tables
    for i in ids[sk.buckets:]:
        sk.update(i, 1)
        ref.update(i, 1)
    for i in ids[3:]:  # back to 3 ids, below the bucket count
        sk.update(i, -1)
        ref.update(i, -1)
    assert sk._count is not None
    before = copy.deepcopy(sk).digest()
    assert sk.query() == ref.query() == {100: 1, 103: 1, 106: 1}
    assert sk._count is None and sk._pending == {100: 1, 103: 1, 106: 1}
    assert before == sk.digest() == ref.digest()


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


def test_hash_parameters_are_drawn_with_the_first_tables():
    # the sha256 of the parameters a sketch drew in its constructor before
    # the draw moved into the first flush: the same seeded draws
    pinned = "d7ba95fbf0755c3e61c47bc13a46698fc9ed0ff209e95433e345d83592967984"
    sha = lambda sk: hashlib.sha256(repr(sk._hashes).encode()).hexdigest()
    sk = SparseRecoverySketch(3, 0.01, 1000, seed=11)
    assert (sk.rows, sk.buckets) == (9, 6)
    assert sk._hashes is None and sk._count is None
    for i in range(sk.buckets - 1):
        sk.update(7 * i, 1)
    assert sk.query() == {7 * i: 1 for i in range(sk.buckets - 1)}
    assert sk._hashes is None and sk._count is None
    sk.update(7 * (sk.buckets - 1), 1)  # the buffer overflows
    assert sk._count is not None and sha(sk) == pinned
    drawn = sk._hashes
    for i in range(1, sk.buckets):
        sk.update(7 * i, -1)
    assert sk.query() == {0: 1} and sk._count is None  # back on the buffer
    for i in range(1, sk.buckets):
        sk.update(7 * i, 1)
    assert sk._count is not None and sk._hashes is drawn  # rebuilt, not redrawn
    fresh = SparseRecoverySketch(3, 0.01, 1000, seed=11)
    fresh.digest()
    assert sha(fresh) == pinned


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
        sk.digest()  # builds the tables, so the query below decodes them
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


SKETCH_PARAMETERS = {
    "sparse recovery s=0": (lambda: SparseRecoverySketch(0, 0.1, 16), "need s >= 1"),
    "sparse recovery universe=0": (lambda: SparseRecoverySketch(4, 0.1, 0), "need s >= 1"),
    "sparse recovery delta_fail=1": (lambda: SparseRecoverySketch(4, 1.0, 16), "need s >= 1"),
    "F0 epsilon_est=1": (lambda: F0Sketch(1.0, 0.1, 16), "need 0 < epsilon_est < 1"),
    "F0 delta_fail=0": (lambda: F0Sketch(0.5, 0.0, 16), "need 0 < epsilon_est < 1"),
    "F0 universe=0": (lambda: F0Sketch(0.5, 0.1, 0), "need 0 < epsilon_est < 1"),
}


@pytest.mark.parametrize("case", sorted(SKETCH_PARAMETERS))
def test_constructor_parameters_are_checked(case):
    make, message = SKETCH_PARAMETERS[case]
    with pytest.raises(InputError, match=message):
        make()


def test_update_validation():
    sk = SparseRecoverySketch(4, 0.1, 16, seed=0)
    with pytest.raises(InputError):
        sk.update(16, 1)
    with pytest.raises(InputError):
        sk.update(3, 2)


def test_non_integer_ids_and_signs_are_refused():
    # a numpy sign used to be stored as a numpy count, and the flush's
    # count * id products overflowed int64 for ids past 2^62 / count
    sk = SparseRecoverySketch(2, 1e-3, 1 << 62, seed=3)
    ids = [(1 << 61) + 12345 * i for i in range(4)]
    for ident in ids:
        sk.update(ident, np.int64(1))  # the 4th update fills the buffer and flushes
    assert sk._count is not None and all(type(c) is int for c in sk._count)
    assert all(type(v) is int for v in sk._idsum + sk._sqsum)
    got = sk.query()
    assert got == dict.fromkeys(ids, 1) and all(type(c) is int for c in got.values())
    before = copy.deepcopy(sk)
    for ident, sign in [(3.0, 1), (3, 1.0), (3, -1.0), (3, 0.5), ("3", 1), (3, None)]:
        with pytest.raises(InputError, match="integers"):
            sk.update(ident, sign)
    assert sk.digest() == before.digest() and sk._pending == before._pending
    sk.update(np.uint8(7), True)  # integers of other types are read as ints
    assert sk._pending == {7: 1} and type(sk._pending[7]) is int


def test_f0_checks_the_id_and_sign_before_hashing():
    f0 = F0Sketch(0.5, 0.1, 100, seed=1)
    f0.update(7, 1)
    before = f0.digest()
    # refused before the hash, which a float id fails in and which repeats a
    # string id by its multiplier
    for ident, sign in [(1.5, 1), ("3", 1), (None, 1), (3, 1.0)]:
        with pytest.raises(InputError, match="integers"):
            f0.update(ident, sign)
    for ident, sign, message in [(100, 1, "outside universe"), (-1, 1, "outside universe"),
                                 (3, 0, "sign must be"), (3, 2, "sign must be")]:
        with pytest.raises(InputError, match=message):
            f0.update(ident, sign)
    assert f0.digest() == before
    f0.update(np.int64(9), np.int64(1))  # integers of other types are read as ints
    f0.update(9, -1)
    assert f0.digest() == before


def test_f0_empty_and_cancellation():
    f0 = F0Sketch(0.2, 0.1, 1 << 20, seed=2)
    assert f0.query() == 0.0
    for i in range(100):
        f0.update(i * 977, 1)
    for i in range(100):
        f0.update(i * 977, -1)
    assert f0.query() == 0.0


def test_f0_merge_digest_and_bytes():
    whole, a, b = (F0Sketch(0.2, 0.1, 1 << 20, seed=4) for _ in range(3))
    assert whole.nominal_bytes() == 0
    for n in range(300):
        whole.update(n * 977, 1)
        (a, b)[n % 2].update(n * 977, 1)
    assert a.digest() != whole.digest()
    a.merge(b)
    assert a.digest() == whole.digest()
    assert a.query() == whole.query()
    assert a.nominal_bytes() == whole.nominal_bytes() == \
        sum(sk.nominal_bytes() for sk in whole._samplers) > 0
    before = a.digest()
    with pytest.raises(InputError):
        a.merge(F0Sketch(0.2, 0.1, 1 << 20, seed=5))
    assert a.digest() == before


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
