"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np
import pytest

from kcoreset import (
    DynamicCoresetState, F0Sketch, Instance, InsertionStream, L2, LINF, Metric,
    MpcConfig, SparseRecoverySketch, WeightedPoint, adversarial,
    brute_force_opt, check_coreset, check_mini_ball_covering, explicit_universe,
    gen_insertion_lb, gen_one_dim_lb, input_points_universe, lb_geometry,
    midpoint_grid_universe, random_dist, round_robin,
    run_one_round_randomized, run_r_round, run_two_round,
)
from kcoreset.mpc import point_words, vector_length
from kcoreset.offline import _mbc
from kcoreset.cli import main as cli_main
from conftest import random_points, scalar_distance

W = WeightedPoint
LINF_M = Metric(LINF)
L2_M = Metric(L2)
SEED = 20260810


def report(num, detail, t0):
    print(f"\n[criterion {num}] PASS ({time.perf_counter() - t0:.1f}s): {detail}")


@pytest.fixture(scope="module")
def greedy_suite():
    """200 seeded instances (n<=30, k<=3, z<=3, d in {1,2}) with oracle optima."""
    rng = np.random.default_rng(SEED)
    suite = []
    for i in range(200):
        n = int(rng.integers(4, 31))
        d = 1 + i % 2
        k = int(rng.integers(1, 4))
        z = int(rng.integers(0, 4))
        metric = LINF_M if i % 4 < 2 else L2_M
        pts = random_points(rng, n, d, hi=60, cluster_frac=0.5 if i % 3 else 0.0,
                            weights=(i % 4 == 3))
        inst = Instance(tuple(pts), k, z, 1.0, metric)
        opt = brute_force_opt(inst).radius
        suite.append((inst, opt))
    return suite


def test_criterion_1_greedy_three_approximation(greedy_suite):
    from kcoreset import greedy
    t0 = time.perf_counter()
    worst = 0.0
    for inst, opt in greedy_suite:
        res = greedy(list(inst.points), inst.k, inst.z, inst.metric)
        assert res.radius <= 3 * opt + 1e-9, (res.radius, opt)
        uncov = sum(
            p.weight for p in inst.points
            if all(scalar_distance(inst.metric, p.point, b.center) > b.radius + 1e-9
                   for b in res.balls)
        )
        assert uncov <= inst.z
        if opt > 0:
            worst = max(worst, res.radius / opt)
    report(1, f"200 instances, greedy radius <= 3*opt (worst ratio {worst:.3f}), "
              f"uncovered weight <= z", t0)


def test_criterion_2_mbc_size_and_validity(greedy_suite):
    t0 = time.perf_counter()
    checked = 0
    for inst, opt in greedy_suite:
        d = len(inst.points[0].point)
        for eps in (1.0, 0.5):
            cov = _mbc(list(inst.points), inst.k, inst.z, eps, inst.metric)
            assert len(cov.representatives) <= inst.k * (12 / eps) ** d + inst.z
            rep = check_mini_ball_covering(
                list(inst.points), list(cov.representatives), eps * opt, inst.metric)
            assert rep.passed, rep
            checked += 1
    report(2, f"{checked} coverings within k*(12/eps)^d + z and flow-validated "
              f"at eps*opt", t0)


def test_criterion_3_streaming():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    checkpointed = finals = 0
    for i in range(100):
        two_d = i % 10 < 3
        eps = 1.0 if i % 2 == 0 else 0.5
        z = i % 4
        if two_d:
            d, k, hi = 2, 1, 10
            n = int(rng.integers(20, 201))
        else:
            d = 1
            k = 1 + i % 3
            hi = 8 if k == 3 else 12
            n = int(rng.integers(20, 201))
        checkpoint = (not two_d) and i % 10 == 4
        if checkpoint:
            k, n = 1 + i % 2, int(rng.integers(20, 41))
        xs = [tuple(float(v) for v in rng.integers(0, hi + 1, size=d)) for _ in range(n)]
        st = InsertionStream(k, z, eps, d, LINF_M)
        seen = []
        for x in xs:
            st.arrival(x)
            seen.append(W(x))
            assert len(st.pstar) < st.threshold
            if checkpoint and len(seen) > z:
                opt_now = brute_force_opt(
                    Instance(tuple(seen), k, z, 1.0, LINF_M), input_points_universe()
                ).radius
                assert st.r <= opt_now + 1e-9
                checkpointed += 1
        assert sum(p.weight for p in st.pstar) == n
        rep = check_coreset(seen, st.report(), k=k, z=z, epsilon=eps,
                            metric=LINF_M, universe=midpoint_grid_universe())
        assert rep.passed, (i, rep)
        finals += 1
    report(3, f"100 streams: size < k*(16/eps)^d + z after every arrival, "
              f"{checkpointed} oracle checkpoints r <= opt, "
              f"{finals} final coresets pass at eps over the midpoint grid", t0)


def test_criterion_4_two_round_pipeline():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)
    for i in range(50):
        n = 20 + int(rng.integers(0, 41))
        d = 1 + i % 2
        k = 1 + i % 3
        z = i % 5
        eps = 0.5 if i % 2 else 1.0
        m = 2 + i % 3
        metric = LINF_M if i % 4 < 2 else L2_M
        pts = random_points(rng, n, d, hi=50, cluster_frac=0.4)
        if i % 3 == 0:
            dist = adversarial([2] * n)        # everything on one worker
        elif i % 3 == 1:
            dist = adversarial([1 + j % m for j in range(n)])  # alternating
        else:
            dist = round_robin()
        run = run_two_round(pts, k, z, eps, MpcConfig(m, dist), metric)
        opt = brute_force_opt(Instance(tuple(pts), k, z, 1.0, metric)).radius
        assert run.rounds_used == 2
        assert run.r_hat <= 3 * opt + 1e-9
        assert sum((1 << j) - 1 for j in run.j_hats) <= 2 * z
        assert check_mini_ball_covering(
            pts, list(run.union_received), eps * opt, metric).passed
        assert check_coreset(pts, list(run.final), k=k, z=z, epsilon=3 * eps,
                             metric=metric, universe=input_points_universe()).passed
        vlen = vector_length(z)
        for idx, part in enumerate(run.parts):
            cov_bound = (k * (12 / eps) ** d + (1 << run.j_hats[idx]) - 1) * (d + 1)
            assert run.per_machine_peak_words[idx] <= \
                point_words(len(part), d) + m * vlen + cov_bound + 1e-9
        coord_bound = sum(
            k * (12 / eps) ** d + (1 << j) - 1 for j in run.j_hats
        ) * (d + 1) + m * vlen
        assert run.coordinator_words <= coord_bound + 1e-9
    report(4, "50 runs: r_hat/3 <= opt, sum(2^j - 1) <= 2z, union is an "
              "eps*opt covering, final passes at 3*eps, exact word bounds hold", t0)


@pytest.fixture(scope="module")
def one_round_instance():
    rng = np.random.default_rng(SEED + 5)
    pts = []
    taken = set()
    for cx, cy, count in ((10, 10, 98), (60, 60, 97)):
        while sum(1 for p in taken if abs(p[0] - cx) <= 5) < count:
            p = (cx + int(rng.integers(-5, 6)), cy + int(rng.integers(-5, 6)))
            if p not in taken:
                taken.add(p)
    pts = [W((float(x), float(y))) for x, y in sorted(taken)]
    outliers = [(200.0, 10.0), (10.0, 200.0), (200.0, 200.0), (300.0, 150.0), (150.0, 300.0)]
    pts.extend(W(p) for p in outliers)
    assert len(pts) == 200
    return pts


def test_criterion_5_one_round_randomized(one_round_instance):
    t0 = time.perf_counter()
    pts = one_round_instance
    k, z, eps, m = 2, 5, 0.5, 4
    n = len(pts)
    sol = brute_force_opt(Instance(tuple(pts), k, z, 1.0, LINF_M))
    outlier_locs = {
        p.point for p in pts
        if min(scalar_distance(LINF_M, p.point, c) for c in sol.centers) > sol.radius + 1e-9
    }
    threshold = 6 * z / m + 3 * math.log2(n)
    passes = exceed = 0
    for seed in range(100):
        run = run_one_round_randomized(pts, k, z, eps, MpcConfig(m, random_dist(seed)), LINF_M)
        ok = check_coreset(pts, list(run.final), k=k, z=z, epsilon=3 * eps,
                           metric=LINF_M, universe=input_points_universe()).passed
        passes += ok
        per_machine = [sum(1 for p in part if p.point in outlier_locs) for part in run.parts]
        exceed += max(per_machine) > threshold
    assert passes >= 95, passes
    assert exceed <= 5, exceed
    report(5, f"100 seeds: {passes} pass the 3*eps coreset check, "
              f"{exceed} exceed the 6z/m + 3*log2(n) outlier bound", t0)


def test_criterion_6_r_round():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 6)
    for i in range(20):
        n = 15 + int(rng.integers(0, 26))
        k = 1 + i % 2
        z = i % 3
        eps = 0.5
        pts = random_points(rng, n, 1, hi=60, cluster_frac=0.5)
        for m, rounds in ((4, 2), (8, 3)):
            run = run_r_round(pts, k, z, eps, rounds, MpcConfig(m, round_robin()), LINF_M)
            assert run.rounds_used == rounds
            quality = (1 + eps) ** rounds - 1
            assert check_coreset(pts, list(run.final), k=k, z=z, epsilon=quality,
                                 metric=LINF_M, universe=input_points_universe()).passed
    report(6, "20 instances x {(4,2),(8,3)}: exactly R rounds and the result "
              "passes at (1+eps)^R - 1", t0)


def test_criterion_7_sketch_calibration():
    t0 = time.perf_counter()
    successes = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        sk = SparseRecoverySketch(16, 0.1, 4096, seed=seed)
        truth = {}
        for ident in rng.choice(4096, size=int(rng.integers(0, 17)), replace=False):
            c = int(rng.integers(1, 5))
            truth[int(ident)] = c
            for _ in range(c):
                sk.update(int(ident), 1)
        if seed % 3 == 0:  # churn that nets to zero
            extra = [int(x) for x in rng.choice(4096, size=5, replace=False)]
            for e in extra:
                sk.update(e, 1)
            for e in extra:
                sk.update(e, -1)
        sk.digest()  # builds the tables, so the query below decodes them
        got = sk.query()
        if got is not None:
            assert got == truth  # never an incorrect pair
            successes += 1
    assert successes >= 450, successes

    f0_hits = {}
    for count in (10, 100, 1000):
        hits = 0
        for seed in range(500):
            f0 = F0Sketch(0.2, 0.1, 1 << 20, seed=seed)
            rng = np.random.default_rng(10_000 + seed)
            for ident in rng.choice(1 << 20, size=count, replace=False):
                f0.update(int(ident), 1)
            if 0.8 * count <= f0.query() <= 1.2 * count:
                hits += 1
        assert hits >= 450, (count, hits)
        f0_hits[count] = hits
    report(7, f"sparse recovery exact in {successes}/500 trials (no wrong pairs); "
              f"F0 within 20% in {f0_hits} of 500", t0)


def test_criterion_8_dynamic_streaming():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 8)
    agree = total = 0
    for i in range(50):
        k = 1 + i % 2
        z = i % 4
        eps = 1.0 if i % 2 else 0.5
        n = 10 + int(rng.integers(0, 91))
        st = DynamicCoresetState(64, 2, k, z, eps, delta_fail=0.1, seed=i,
                                 with_shadow=True)
        inserted = []
        for _ in range(n):
            p = tuple(int(v) for v in rng.integers(1, 65, size=2))
            st.update(p, 1)
            inserted.append(p)
        for p in [inserted[j] for j in rng.choice(n, size=n // 5, replace=False)]:
            st.update(p, -1)
            inserted.remove(p)
        live = [W(tuple(float(c) for c in p)) for p in inserted]
        opt = brute_force_opt(
            Instance(tuple(live), k, z, 1.0, L2_M), input_points_universe()).radius
        exact = st.report(exact=True)
        s_bound = k * (4 * math.sqrt(2) / eps) ** 2 + z
        if opt > 0 and (eps / math.sqrt(2)) * opt >= 1:
            j_star = min(int(math.floor(math.log2((eps / math.sqrt(2)) * opt))),
                         st.grid.levels - 1)
            assert len(st.shadow[j_star]) <= s_bound + 1e-9
            assert exact.level <= j_star
        universe = explicit_universe(
            sorted({p.point for p in live} | {p.point for p in exact.points}))
        assert check_coreset(live, list(exact.points), k=k, z=z, epsilon=eps,
                             metric=L2_M, universe=universe).passed
        assert sum(p.weight for p in exact.points) == len(live)
        sketch = st.report(exact=False)
        total += 1
        agree += (sketch.level == exact.level and
                  [(p.point, p.weight) for p in sketch.points] ==
                  [(p.point, p.weight) for p in exact.points])
    assert agree >= 0.9 * total, (agree, total)
    report(8, f"50 live sets: level bound and eps-quality hold in exact mode; "
              f"sketch mode agrees in {agree}/{total}", t0)


def test_criterion_9_lower_bound_geometry(linf):
    t0 = time.perf_counter()
    for d in (1, 2, 3):
        for eps in (1 / (8 * d), 1 / (16 * d), 1 / (32 * d)):
            g = lb_geometry(eps, d)
            assert g.r < (1 - eps) * (g.r + g.h) / 2
    g = lb_geometry(1 / 8, 1)
    stream = gen_insertion_lb(2, 1, 1 / 8, 1, probe=(0, 1))
    opt = brute_force_opt(
        Instance(tuple(W(p) for p in stream), 2, 1, 1.0, linf),
        midpoint_grid_universe()).radius
    assert abs(opt - (g.h + g.r) / 2) <= 1e-6
    before = tuple(W(p) for p in gen_one_dim_lb(2, 1))
    after = tuple(W(p) for p in gen_one_dim_lb(2, 1, include_extra=True))
    assert brute_force_opt(Instance(before, 2, 1, 1.0, linf),
                           midpoint_grid_universe()).radius == 0.0
    assert brute_force_opt(Instance(after, 2, 1, 1.0, linf),
                           midpoint_grid_universe()).radius == pytest.approx(0.5)
    report(9, f"geometry inequality on the (eps, d) grid; probe optimum equals "
              f"(h+r)/2 = {(g.h + g.r) / 2}; one-dim optimum moves 0 -> 1/2", t0)


def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    stats = json.loads(captured.out.strip().splitlines()[-1]) if captured.out.strip() else {}
    stats.pop("wall_time_s", None)
    return code, stats


def test_criterion_10_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    base = tmp_path / "in"
    base.mkdir()
    pts_file = str(base / "pts.txt")
    upd_file = str(base / "upd.txt")
    assert _run_cli(capsys, "gen", "--family", "insertion-lb", "--k", "2", "--z", "2",
                    "--eps", "0.125", "--d", "1", "--probe", "0", "1",
                    "--out", pts_file)[0] == 0
    assert _run_cli(capsys, "gen", "--family", "dynamic-lb", "--k", "2", "--z", "1",
                    "--eps", "0.125", "--d", "1", "--delta", "256",
                    "--scenario", "0", "1", "0", "--out", upd_file)[0] == 0

    def commands(outdir):
        o = lambda name: str(outdir / name)
        return [
            ("gen", "--family", "one-dim-lb", "--k", "3", "--z", "2", "--out", o("g1.txt")),
            ("gen", "--family", "insertion-lb", "--k", "2", "--z", "1", "--eps", "0.125",
             "--d", "1", "--out", o("g2.txt")),
            ("gen", "--family", "dynamic-lb", "--k", "2", "--z", "1", "--eps", "0.125",
             "--d", "1", "--delta", "256", "--out", o("g3.txt")),
            ("offline", pts_file, "--k", "2", "--z", "2", "--eps", "0.5", "--out", o("c1.txt")),
            ("stream", pts_file, "--k", "2", "--z", "2", "--eps", "1.0", "--d", "1",
             "--out", o("c2.txt")),
            ("mpc", pts_file, "--algo", "two-round", "--machines", "3", "--k", "2",
             "--z", "2", "--eps", "0.5", "--out", o("c3.txt")),
            ("mpc", pts_file, "--algo", "r-round", "--machines", "4", "--rounds", "2",
             "--k", "2", "--z", "2", "--eps", "0.5", "--out", o("c4.txt")),
            ("mpc", pts_file, "--algo", "one-round", "--machines", "3", "--dist",
             "random:7", "--k", "2", "--z", "2", "--eps", "0.5", "--out", o("c5.txt")),
            ("dynamic", upd_file, "--k", "2", "--z", "1", "--eps", "0.125",
             "--exact-shadow", "--out", o("c6.txt")),
            ("dynamic", upd_file, "--k", "2", "--z", "1", "--eps", "0.125",
             "--seed", "3", "--out", o("c7.txt")),
            ("validate", pts_file, pts_file, "--k", "2", "--z", "2", "--eps", "0.5",
             "--universe", "input-points"),
        ]

    results = []
    for run_id in (1, 2):
        outdir = tmp_path / f"run{run_id}"
        outdir.mkdir()
        outputs = []
        for cmd in commands(outdir):
            code, stats = _run_cli(capsys, *cmd)
            assert code == 0, cmd
            stats.pop("out", None)
            outputs.append(stats)
        files = sorted(p.name for p in outdir.iterdir())
        contents = {p.name: p.read_bytes() for p in outdir.iterdir()}
        results.append((outputs, files, contents))
    assert results[0][0] == results[1][0]  # stats modulo wall time
    assert results[0][1] == results[1][1]
    for name in results[0][2]:
        assert results[0][2][name] == results[1][2][name], name
    report(10, f"{len(results[0][0])} commands re-run byte-identically "
               f"(stats compared without wall time)", t0)
