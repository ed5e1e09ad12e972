import dataclasses
import math

import numpy as np
import pytest

from kcoreset import (
    Distribution, L2, LINF, InputError, Instance, Metric, MpcConfig, WeightedPoint, adversarial,
    brute_force_opt, check_coreset, check_mini_ball_covering, compute_r_hat,
    distribute, input_points_universe, outlier_vector, random_dist,
    round_robin, run_one_round_randomized, run_r_round, run_two_round,
)
from kcoreset import offline
from kcoreset.metric import REL_TOL, as_weighted, leq
from kcoreset.offline import _mbc
from kcoreset.mpc import ADVERSARIAL, RANDOM, Message, MpcRun, point_words, vector_length
from conftest import random_points

W = WeightedPoint


# ---------------------------------------------------------------------------
# Reference pipelines: the three MPC pipelines as they were written before
# they shared one round engine, each with its own bookkeeping. They pin every
# MpcRun field of the engine-based pipelines (test_engine_matches_reference).
# ---------------------------------------------------------------------------

def _canonical(transcript):
    return tuple(sorted(transcript, key=lambda t: (t.round, t.sender, t.recipient)))


def ref_two_round(points, k, z, epsilon, cfg, metric):
    if cfg.m < 2:
        raise InputError("the two-round algorithm needs at least two machines")
    wps = as_weighted(points)
    if not wps:
        raise InputError("need at least one point")
    dim = len(wps[0].point)
    parts = distribute(wps, cfg)
    m = cfg.m
    vlen = vector_length(z)
    transcript = []
    peaks = [0] * m
    vectors = [outlier_vector(part, k, z, metric) for part in parts]
    for i in range(1, m + 1):
        peaks[i - 1] = max(peaks[i - 1], point_words(len(parts[i - 1]), dim) + vlen)
        for j in range(1, m + 1):
            if j != i:
                transcript.append(Message(1, i, j, "outlier-vector", vlen))
    round1_words = m * (m - 1) * vlen
    r_hats = []
    coverings = []
    round2_words = 0
    for i in range(1, m + 1):
        r_hat_i, j_hats_i = compute_r_hat(vectors, z)
        r_hats.append((r_hat_i, j_hats_i))
        j_i = j_hats_i[i - 1]
        cov = _mbc(parts[i - 1], k, (1 << j_i) - 1, epsilon, metric)
        coverings.append(list(cov.representatives))
        cov_words = point_words(len(cov.representatives), dim)
        peaks[i - 1] = max(peaks[i - 1],
                           point_words(len(parts[i - 1]), dim) + m * vlen + cov_words)
        if i != 1:
            transcript.append(Message(2, i, 1, "covering", cov_words))
            round2_words += cov_words
    assert all(rh == r_hats[0] for rh in r_hats)
    r_hat, j_hats = r_hats[0]
    union = [wp for cov in coverings for wp in cov]
    coordinator_words = point_words(len(union), dim) + m * vlen
    final = _mbc(union, k, z, epsilon, metric)
    return MpcRun(
        algorithm="two-round", rounds_used=2, final=tuple(final.representatives),
        parts=tuple(tuple(p) for p in parts), transcript=_canonical(transcript),
        per_machine_peak_words=tuple(peaks), coordinator_words=coordinator_words,
        messages_per_round=(round1_words, round2_words), union_received=tuple(union),
        r_hat=r_hat, j_hats=j_hats,
    )


def ref_one_round(points, k, z, epsilon, cfg, metric):
    if cfg.distribution.kind != RANDOM:
        raise InputError("the one-round algorithm assumes a random distribution")
    wps = as_weighted(points)
    if not wps:
        raise InputError("need at least one point")
    dim = len(wps[0].point)
    parts = distribute(wps, cfg)
    m = cfg.m
    n = len(wps)
    z_prime = min(math.ceil(6 * z / m + 3 * math.log2(n)) if n > 1 else math.ceil(6 * z / m), z)
    transcript = []
    peaks = [0] * m
    coverings = []
    round_words = 0
    for i in range(1, m + 1):
        cov = _mbc(parts[i - 1], k, z_prime, epsilon, metric)
        coverings.append(list(cov.representatives))
        cov_words = point_words(len(cov.representatives), dim)
        peaks[i - 1] = max(peaks[i - 1], point_words(len(parts[i - 1]), dim) + cov_words)
        if i != 1:
            transcript.append(Message(1, i, 1, "covering", cov_words))
            round_words += cov_words
    union = [wp for cov in coverings for wp in cov]
    final = _mbc(union, k, z, epsilon, metric)
    return MpcRun(
        algorithm="one-round", rounds_used=1, final=tuple(final.representatives),
        parts=tuple(tuple(p) for p in parts), transcript=_canonical(transcript),
        per_machine_peak_words=tuple(peaks), coordinator_words=point_words(len(union), dim),
        messages_per_round=(round_words,), union_received=tuple(union),
        z_prime=z_prime, seed=cfg.distribution.seed,
    )


def ref_r_round(points, k, z, epsilon, rounds, cfg, metric):
    if rounds < 1:
        raise InputError("need at least one round")
    wps = as_weighted(points)
    if not wps:
        raise InputError("need at least one point")
    dim = len(wps[0].point)
    parts = distribute(wps, cfg)
    m = cfg.m
    beta = 1
    while beta**rounds < m:
        beta += 1
    transcript = []
    peaks = [0] * m
    messages_per_round = []
    machine_counts = []
    holdings = [list(p) for p in parts]
    for t in range(1, rounds + 1):
        active = max(1, math.ceil(m / beta ** (t - 1)))
        machine_counts.append(active)
        outbox = [[] for _ in range(m)]
        round_words = 0
        for i in range(1, active + 1):
            received = holdings[i - 1]
            cov = _mbc(received, k, z, epsilon, metric)
            cov_words = point_words(len(cov.representatives), dim)
            peaks[i - 1] = max(peaks[i - 1], point_words(len(received), dim) + cov_words)
            dest = math.ceil(i / beta)
            outbox[dest - 1].extend(cov.representatives)
            if dest != i:
                transcript.append(Message(t, i, dest, "covering", cov_words))
                round_words += cov_words
        holdings = [list(box) for box in outbox]
        messages_per_round.append(round_words)
    machine_counts.append(1)
    final = holdings[0]
    peaks[0] = max(peaks[0], point_words(len(final), dim))
    return MpcRun(
        algorithm="r-round", rounds_used=rounds, final=tuple(final),
        parts=tuple(tuple(p) for p in parts), transcript=_canonical(transcript),
        per_machine_peak_words=tuple(peaks), coordinator_words=point_words(len(final), dim),
        messages_per_round=tuple(messages_per_round), machine_counts=tuple(machine_counts),
        seed=cfg.distribution.seed,
    )


def _differential_cases(n_instances=300, seed=20261018):
    """Seeded (pipeline, reference, args) triples over L2 and L-inf,
    m = 1..9, the three distributions, R = 1..3, unit and integer weights."""
    rng = np.random.default_rng(seed)
    metrics = (Metric(LINF), Metric(L2))
    for i in range(n_instances):
        m = 1 + i % 9
        n = 1 + int(rng.integers(0, 16))
        d = 1 + int(rng.integers(0, 2))
        pts = random_points(rng, n, d, hi=40, cluster_frac=float(rng.random()),
                            weights=bool(i % 2))
        k = 1 + int(rng.integers(0, 3))
        z = int(rng.integers(0, min(5, sum(p.weight for p in pts))))
        eps = (0.25, 0.5, 1.0)[int(rng.integers(0, 3))]
        kind = i // 9 % 3
        if kind == 0:
            dist = round_robin()
        elif kind == 1:
            dist = random_dist(int(rng.integers(0, 2**31)))
        else:
            skew = 1 + int(rng.integers(0, m))
            dist = adversarial([skew if rng.random() < 0.5 else 1 + int(rng.integers(0, m))
                                for _ in range(n)])
        cfg = MpcConfig(m, dist)
        metric = metrics[i // 27 % 2]
        if m >= 2:
            yield run_two_round, ref_two_round, (pts, k, z, eps, cfg, metric)
        if kind == 1:
            yield run_one_round_randomized, ref_one_round, (pts, k, z, eps, cfg, metric)
        rounds = 1 + int(rng.integers(0, 3))
        yield run_r_round, ref_r_round, (pts, k, z, eps, rounds, cfg, metric)


def test_engine_matches_reference():
    runs = 0
    for fn, ref, args in _differential_cases():
        expected = ref(*args)
        if fn is run_two_round:  # the engine records the distribution's seed
            expected = dataclasses.replace(expected, seed=args[-2].distribution.seed)
        assert fn(*args) == expected, (fn.__name__, args[1:])
        runs += 1
    assert runs >= 600


def test_distribute_modes(linf):
    pts = [W((float(i),)) for i in range(6)]
    parts = distribute(pts, MpcConfig(3, round_robin()))
    assert [len(p) for p in parts] == [2, 2, 2]
    parts = distribute(pts, MpcConfig(2, adversarial([2] * 6)))
    assert [len(p) for p in parts] == [0, 6]
    with pytest.raises(InputError):
        distribute(pts, MpcConfig(2, adversarial([1, 2, 3, 1, 1, 1])))
    with pytest.raises(InputError):
        distribute(pts, MpcConfig(2, adversarial([1, 2])))
    a = distribute(pts, MpcConfig(3, random_dist(99)))
    b = distribute(pts, MpcConfig(3, random_dist(99)))
    assert a == b


def test_compute_r_hat_hand_example():
    r_hat, j_hats = compute_r_hat([[5.0, 2.0], [4.0, 1.0]], z=1)
    assert r_hat == 2.0
    assert j_hats == (1, 1)


def test_compute_r_hat_z_zero():
    r_hat, j_hats = compute_r_hat([[3.0], [7.0]], z=0)
    assert r_hat == 7.0 and j_hats == (0, 0)


def walked_r_hat(vectors, z, within=leq):
    """``compute_r_hat`` as a walk over the sorted candidates, one ``leq``
    call (or ``within``) per entry and candidate, kept as the reference."""
    for r in sorted({v for vec in vectors for v in vec}):
        j_hats = [next((j for j, v in enumerate(vec) if within(v, r)), None) for vec in vectors]
        if None not in j_hats and sum((1 << j) - 1 for j in j_hats) <= 2 * z:
            return r, tuple(j_hats)
    raise AssertionError("no feasible radius found")


def _r_hat_or_none(vectors, z, solve):
    try:
        return solve(vectors, z)
    except AssertionError:
        return None


def test_compute_r_hat_matches_the_walk():
    # random vectors over a pool of values with ties at the REL_TOL edge
    # (v and its neighbours at v * (1 -+ 1e-9), around 1 where the slack's
    # floor sets in), inf, 0, a scale whose slack overflows the float range,
    # vectors out of order and of unequal lengths, and z from 0 to 19, so
    # the least candidates are infeasible (a machine with no entry, or a sum
    # past 2z), and some instances have no feasible radius at all (z < 0)
    rng = np.random.default_rng(71)
    outcomes = set()  # what the instances exercised
    for trial in range(1500):
        scale = float(rng.choice([1.0, 1e-12, 1e300, 1.7e308]))
        pool = (rng.uniform(0, 1, size=6) * scale).tolist()
        v = pool[0]
        edge = v * (1 + REL_TOL)
        pool += [edge, v * (1 - REL_TOL), float(np.nextafter(edge, math.inf)),
                 float(np.nextafter(edge, 0.0)), 1.0, 1.0 + REL_TOL, math.inf, 0.0]
        m, length = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        vectors = [[pool[i] for i in rng.integers(0, len(pool), size=length
                                                  if rng.random() < 0.8 else int(rng.integers(1, 6)))]
                   for _ in range(m)]
        if trial % 2:
            vectors = [sorted(vec, reverse=True) for vec in vectors]
        z = int(rng.integers(-1, 20))
        want = _r_hat_or_none(vectors, z, walked_r_hat)
        assert _r_hat_or_none(vectors, z, compute_r_hat) == want, (vectors, z)
        least = min(x for vec in vectors for x in vec)
        outcomes.add("none" if want is None else "past the least" if want[0] > least else "least")
        if want and math.inf in (x for vec in vectors for x in vec):
            outcomes.add("inf entry")
    assert outcomes == {"none", "past the least", "least", "inf entry"}
    # an inf entry is within no finite radius, though leq's slack for it is
    # inf: a machine whose only entry is inf has a j only at r = inf
    assert compute_r_hat([[math.inf], [1.0]], 0) == walked_r_hat([[math.inf], [1.0]], 0) \
        == (math.inf, (0, 0))


def test_two_round_budgets_a_part_whose_outlier_vector_overflows(linf):
    # part 1's greedy radius with no outlier is 3 * 8e307, past the float
    # range, though every distance is finite. Its inf entry is within no
    # finite radius, so part 1 takes the outlier it needs for a finite one;
    # an inf that was within every radius gave it none. The coreset holds
    # at 3 eps.
    pts = [W((x,)) for x in (-8e307, 8e307, 0.0, 0.0, 1.0, 2.0)]
    k, z, eps = 1, 1, 0.5
    run = run_two_round(pts, k, z, eps, MpcConfig(2, adversarial([1, 1, 1, 2, 2, 2])), linf)
    vectors = [outlier_vector(list(part), k, z, linf) for part in run.parts]
    assert vectors == [[math.inf, 1.2e308], [3.0, 1.5]]
    assert (run.r_hat, run.j_hats) == (1.2e308, (1, 0))
    overflowing = walked_r_hat(vectors, z, lambda a, b: a <= b + REL_TOL * max(1.0, abs(a), abs(b)))
    assert overflowing == (1.5, (0, 1))
    assert check_coreset(pts, list(run.final), k=k, z=z, epsilon=3 * eps, metric=linf,
                         universe=input_points_universe()).passed


def test_compute_r_hat_at_a_hundred_machines():
    # m = 100 outlier vectors of 8 entries: the walk makes about 320 000
    # leq calls; the bisection matches it
    rng = np.random.default_rng(73)
    vectors = [sorted(rng.uniform(0, 100, size=8).tolist(), reverse=True) for _ in range(100)]
    for z in (0, 10, 100, 127):
        assert compute_r_hat(vectors, z) == walked_r_hat(vectors, z)


def test_outlier_vector_monotone(linf):
    rng = np.random.default_rng(2)
    pts = random_points(rng, 25, 1, hi=50)
    vec = outlier_vector(pts, 2, 6, linf)
    assert len(vec) == vector_length(6) == 4
    assert all(a >= b for a, b in zip(vec, vec[1:]))


def test_two_round_analyses_each_part_once(monkeypatch, linf):
    # round 2 reuses each part's round-1 _PointSet: m parts plus the
    # coordinator make m + 1 self-distance matrices and m + 1 candidate
    # arrays, not 2m + 1, and the run is the reference's. Round 2 reads every
    # verdict from the parts' memos, so the run probes exactly as often as
    # the parts' outlier vectors and the coordinator's covering do alone.
    # The second run's parts of 450 points are above the band cut, and flip
    # bands in both rounds' searches.
    rng = np.random.default_rng(61)
    matrices, cands, probes, flips = [], [], [], []
    orig_pairwise, orig_cands = Metric.pairwise, offline._candidate_radii
    monkeypatch.setattr(Metric, "pairwise",
                        lambda self, a, b: matrices.append(1) or orig_pairwise(self, a, b))
    counting = lambda dmat: cands.append(1) or orig_cands(dmat)  # noqa: E731
    monkeypatch.setattr(offline, "_candidate_radii", counting)
    orig_probe, orig_flip = offline._probe, offline._Mask._flip
    monkeypatch.setattr(offline, "_probe", lambda *a: probes.append(1) or orig_probe(*a))
    monkeypatch.setattr(offline._Mask, "_flip", lambda *a: flips.append(1) or orig_flip(*a))
    for n, m, hi in ((90, 5, 50), (900, 2, 500)):
        pts = random_points(rng, n, 2, hi=hi, cluster_frac=0.5, weights=True)
        cfg = MpcConfig(m, round_robin())
        expect = dataclasses.replace(ref_two_round(pts, 2, 6, 0.5, cfg, linf), seed=None)
        matrices[:], cands[:], probes[:], flips[:] = [], [], [], []
        run = run_two_round(pts, 2, 6, 0.5, cfg, linf)
        assert run == expect
        assert (len(matrices), len(cands)) == (m + 1, m + 1)
        assert bool(flips) == ((n // m) ** 2 >= offline._BAND_CUT), n
        in_run, probes[:] = len(probes), []
        for part in run.parts:
            outlier_vector(list(part), 2, 6, linf)
        _mbc(list(run.union_received), 2, 6, 0.5, linf)
        assert len(probes) == in_run > 0


def test_two_round_single_point(linf):
    run = run_two_round([W((4.0,))], 1, 0, 1.0, MpcConfig(2, round_robin()), linf)
    assert [(p.point, p.weight) for p in run.final] == [((4.0,), 1)]
    assert run.rounds_used == 2


def test_two_round_needs_two_machines(linf):
    with pytest.raises(InputError):
        run_two_round([W((0.0,))], 1, 0, 1.0, MpcConfig(1, round_robin()), linf)


def test_two_round_all_points_on_one_machine(linf):
    rng = np.random.default_rng(4)
    pts = random_points(rng, 24, 1, hi=40)
    cfg = MpcConfig(2, adversarial([2] * len(pts)))
    k, z, eps = 2, 2, 0.5
    run = run_two_round(pts, k, z, eps, cfg, linf)
    assert run.rounds_used == 2
    assert sum((1 << j) - 1 for j in run.j_hats) <= 2 * z
    inst = Instance(tuple(pts), k, z, 1.0, linf)
    opt = brute_force_opt(inst).radius
    assert run.r_hat <= 3 * opt + 1e-9
    assert check_mini_ball_covering(pts, list(run.union_received), eps * opt, linf).passed
    rep = check_coreset(pts, list(run.final), k=k, z=z, epsilon=3 * eps,
                        metric=linf, universe=input_points_universe())
    assert rep.passed


def test_two_round_transcript_and_determinism(linf):
    rng = np.random.default_rng(6)
    pts = random_points(rng, 18, 2, hi=30)
    cfg = MpcConfig(3, round_robin())
    a = run_two_round(pts, 2, 1, 0.5, cfg, linf)
    b = run_two_round(pts, 2, 1, 0.5, cfg, linf)
    assert a == b
    # synchrony: vectors travel in round 1, coverings in round 2
    for msg in a.transcript:
        if msg.kind == "outlier-vector":
            assert msg.round == 1
        else:
            assert msg.kind == "covering" and msg.round == 2 and msg.recipient == 1
    assert len([m for m in a.transcript if m.round == 1]) == 3 * 2


def test_two_round_storage_accounting(linf):
    rng = np.random.default_rng(8)
    pts = random_points(rng, 30, 1, hi=60)
    k, z, eps, m = 2, 3, 0.5, 3
    cfg = MpcConfig(m, round_robin())
    run = run_two_round(pts, k, z, eps, cfg, linf)
    d = 1
    vlen = vector_length(z)
    for i, part in enumerate(run.parts):
        # worker bound: |P_i|(d+1) + m*vlen + covering size limit
        cov_bound = (k * (12 / eps) ** d + (1 << run.j_hats[i]) - 1) * (d + 1)
        assert run.per_machine_peak_words[i] <= \
            point_words(len(part), d) + m * vlen + cov_bound + 1e-9
    bound = sum(k * (12 / eps) ** d + (1 << j) - 1 for j in run.j_hats) * (d + 1) + m * vlen
    assert run.coordinator_words <= bound + 1e-9


def test_one_round_z_zero_and_m_one(linf):
    rng = np.random.default_rng(10)
    pts = random_points(rng, 20, 1, hi=40)
    run = run_one_round_randomized(pts, 2, 0, 0.5, MpcConfig(3, random_dist(1)), linf)
    assert run.z_prime == 0 and run.rounds_used == 1
    solo = run_one_round_randomized(pts, 2, 2, 0.5, MpcConfig(1, random_dist(1)), linf)
    assert solo.z_prime == 2
    offline = _mbc(_mbc(pts, 2, 2, 0.5, linf).representatives, 2, 2, 0.5, linf)
    assert [(p.point, p.weight) for p in solo.final] == \
           [(p.point, p.weight) for p in offline.representatives]
    with pytest.raises(InputError):
        run_one_round_randomized(pts, 2, 0, 0.5, MpcConfig(2, round_robin()), linf)


def test_one_round_deterministic_under_seed(linf):
    rng = np.random.default_rng(12)
    pts = random_points(rng, 30, 2, hi=40)
    cfg = MpcConfig(4, random_dist(77))
    assert run_one_round_randomized(pts, 2, 3, 0.5, cfg, linf) == \
        run_one_round_randomized(pts, 2, 3, 0.5, cfg, linf)


def test_r_round_machine_counts(linf):
    rng = np.random.default_rng(14)
    pts = random_points(rng, 27, 1, hi=50)
    run = run_r_round(pts, 2, 1, 0.5, 2, MpcConfig(9, round_robin()), linf)
    assert run.machine_counts == (9, 3, 1)
    assert run.rounds_used == 2


def test_r_round_quality(linf):
    rng = np.random.default_rng(16)
    pts = random_points(rng, 40, 1, hi=60)
    k, z, eps = 2, 2, 0.5
    run = run_r_round(pts, k, z, eps, 2, MpcConfig(4, round_robin()), linf)
    quality = (1 + eps) ** 2 - 1
    rep = check_coreset(pts, list(run.final), k=k, z=z, epsilon=quality,
                        metric=linf, universe=input_points_universe())
    assert rep.passed
    single = run_r_round(pts, k, z, eps, 1, MpcConfig(4, round_robin()), linf)
    assert single.rounds_used == 1
    rep1 = check_coreset(pts, list(single.final), k=k, z=z, epsilon=eps,
                         metric=linf, universe=input_points_universe())
    assert rep1.passed


def test_weight_conservation_through_pipelines(linf):
    rng = np.random.default_rng(18)
    pts = random_points(rng, 22, 1, hi=30, weights=True)
    total = sum(p.weight for p in pts)
    two = run_two_round(pts, 2, 2, 0.5, MpcConfig(3, round_robin()), linf)
    assert sum(p.weight for p in two.final) == total
    one = run_one_round_randomized(pts, 2, 2, 0.5, MpcConfig(3, random_dist(5)), linf)
    assert sum(p.weight for p in one.final) == total
    rr = run_r_round(pts, 2, 2, 0.5, 3, MpcConfig(8, round_robin()), linf)
    assert sum(p.weight for p in rr.final) == total


PIPELINES = {
    "two-round": lambda pts, k, z, eps, metric:
        run_two_round(pts, k, z, eps, MpcConfig(2), metric),
    "one-round": lambda pts, k, z, eps, metric:
        run_one_round_randomized(pts, k, z, eps, MpcConfig(2, random_dist(3)), metric),
    "r-round": lambda pts, k, z, eps, metric:
        run_r_round(pts, k, z, eps, 2, MpcConfig(3), metric),
}
FIVE = [W((float(x),)) for x in range(5)]
BAD_INSTANCES = {
    "k=0": (FIVE, 0, 0, 0.5),
    "k=1.5": (FIVE, 1.5, 0, 0.5),
    "z<0": (FIVE, 1, -1, 0.5),
    "z=0.5": (FIVE, 1, 0.5, 0.5),
    "eps=0": (FIVE, 1, 0, 0.0),
    "eps=nan": (FIVE, 1, 0, float("nan")),
    "mixed-dimensions": ([W((0.0, 0.0)), W((1.0,))], 1, 0, 0.5),
    "weight=z": (FIVE, 1, 5, 0.5),
    "weight<z": (FIVE, 1, 9, 0.5),
}


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_invalid_instance_is_an_input_error(pipeline, case, linf):
    pts, k, z, eps = BAD_INSTANCES[case]
    with pytest.raises(InputError):
        PIPELINES[pipeline](pts, k, z, eps, linf)


def test_every_pipeline_records_the_distribution_seed(linf):
    pts = [W((float(x),)) for x in range(12)]
    for dist, seed in ((random_dist(41), 41), (round_robin(), None)):
        cfg = MpcConfig(3, dist)
        assert run_two_round(pts, 2, 1, 0.5, cfg, linf).seed == seed
        assert run_r_round(pts, 2, 1, 0.5, 2, cfg, linf).seed == seed
    assert run_one_round_randomized(pts, 2, 1, 0.5, MpcConfig(3, random_dist(41)), linf).seed == 41


MPC_REFUSALS = {
    "unknown distribution kind": (lambda: Distribution("striped"), "unknown distribution kind"),
    "adversarial without an assignment": (lambda: Distribution(ADVERSARIAL), "assignment list"),
    "random without a seed": (lambda: Distribution(RANDOM), "needs a seed"),
    "no rounds": (lambda: run_r_round(FIVE, 1, 0, 0.5, 0, MpcConfig(3), Metric(LINF)),
                  "at least one round"),
    "fractional rounds": (lambda: run_r_round(FIVE, 1, 0, 0.5, 1.5, MpcConfig(4), Metric(LINF)),
                          "integer count of at least one round"),
    "fractional machines": (lambda: MpcConfig(2.5), "integer count of at least one machine"),
    "machines as a string": (lambda: MpcConfig("3"), "integer count of at least one machine"),
    "machines as a bool": (lambda: MpcConfig(True), "integer count of at least one machine"),
}


@pytest.mark.parametrize("case", sorted(MPC_REFUSALS))
def test_mpc_refusals(case):
    make, message = MPC_REFUSALS[case]
    with pytest.raises(InputError, match=message):
        make()
