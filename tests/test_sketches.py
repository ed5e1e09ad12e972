import numpy as np
import pytest

from kcoreset import F0Sketch, InputError, SparseRecoverySketch


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
