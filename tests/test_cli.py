import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import kcoreset
from kcoreset import WeightedPoint, pointio
from kcoreset.cli import build_parser, main
from kcoreset.sketches import SparseRecoverySketch

W = WeightedPoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    stats = json.loads(out.out.strip().splitlines()[-1]) if out.out.strip() else None
    return code, stats, out.err


def write_pts(path, xs):
    pointio.write_points(str(path), [W((float(x),)) for x in xs])


def test_offline_single_point(tmp_path, capsys):
    src, out = tmp_path / "p.txt", tmp_path / "c.txt"
    write_pts(src, [7])
    code, stats, _ = run_cli(capsys, "offline", str(src), "--k", "1", "--z", "0",
                             "--eps", "1.0", "--out", str(out))
    assert code == 0
    assert stats["coreset_size"] == 1
    assert [(p.point, p.weight) for p in pointio.read_points(str(out))] == [((7.0,), 1)]


def test_offline_size_bound_on_one_dim_lb(tmp_path, capsys):
    pts, out = tmp_path / "p.txt", tmp_path / "c.txt"
    code, _, _ = run_cli(capsys, "gen", "--family", "one-dim-lb", "--k", "2",
                         "--z", "1", "--out", str(pts))
    assert code == 0
    code, stats, _ = run_cli(capsys, "offline", str(pts), "--k", "2", "--z", "1",
                             "--eps", "1.0", "--out", str(out))
    assert code == 0
    assert stats["coreset_size"] <= 2 * 12 + 1
    assert stats["size_bound"] == 25.0


def test_malformed_line_names_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0,w=1\nnot a point\n")
    code, _, err = run_cli(capsys, "offline", str(bad), "--k", "1", "--z", "0",
                           "--eps", "1.0", "--out", str(tmp_path / "o.txt"))
    assert code == 3
    assert "line 2" in err


def test_non_finite_coordinate_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "nan.txt"
    bad.write_text("1.0,2.0\nnan,3\n")
    code, _, err = run_cli(capsys, "offline", str(bad), "--k", "1", "--z", "0",
                           "--eps", "0.5", "--out", str(tmp_path / "o.txt"))
    assert code == 3
    assert "line 2" in err and "Traceback" not in err


def test_sketch_mode_refuses_turnstile_violation(tmp_path, capsys):
    upd = tmp_path / "u.txt"
    upd.write_text("delta=8 d=1\n+ 3\n+ 4\n- 7\n")
    for extra in ((), ("--exact-shadow",)):
        code, _, err = run_cli(capsys, "dynamic", str(upd), "--k", "1", "--z", "0",
                               "--eps", "1.0", "--seed", "0", *extra,
                               "--out", str(tmp_path / "c.txt"))
        assert code == 3
        assert "Traceback" not in err


def test_validate_exit_codes(tmp_path, capsys):
    pts, good, bad = tmp_path / "p.txt", tmp_path / "good.txt", tmp_path / "bad.txt"
    write_pts(pts, [1, 2, 3, 4])
    write_pts(good, [1, 2, 3, 4])
    pointio.write_points(str(bad), [W((1.0,), 1), W((2.0,), 1), W((4.0,), 2)])
    code, stats, _ = run_cli(capsys, "validate", str(pts), str(good), "--k", "2",
                             "--z", "1", "--eps", "0.5")
    assert code == 0 and stats["passed"]
    code, stats, _ = run_cli(capsys, "validate", str(pts), str(bad), "--k", "2",
                             "--z", "1", "--eps", "0.5")
    assert code == 2 and not stats["passed"]
    assert stats["violated_condition"] == "RadiusBandLow"


def test_stream_on_shuffled_insertion_lb(tmp_path, capsys):
    import random

    from kcoreset import gen_insertion_lb
    stream = gen_insertion_lb(2, 1, 1 / 8, 1)
    random.Random(0).shuffle(stream)
    src = tmp_path / "s.txt"
    pointio.write_points(str(src), [W(p) for p in stream])
    code, stats, _ = run_cli(capsys, "stream", str(src), "--k", "2", "--z", "1",
                             "--eps", "1.0", "--d", "1", "--out", str(tmp_path / "c.txt"))
    assert code == 0
    assert stats["coreset_size"] < 2 * 16 + 1
    assert stats["arrivals"] == len(stream)
    assert set(stats) >= {"arrivals", "final_r", "coreset_size", "threshold"}


def test_stream_takes_a_huge_weight_in_one_scan(tmp_path, capsys):
    # a line of weight 2^63 - 1 is one arrival carrying that weight, not
    # 2^63 - 1 arrivals
    src, out = tmp_path / "w.txt", tmp_path / "c.txt"
    src.write_text("1,w=9223372036854775807\n2\n")
    code, stats, _ = run_cli(capsys, "stream", str(src), "--k", "1", "--z", "0",
                             "--eps", "1.0", "--d", "1", "--out", str(out))
    assert code == 0
    assert (stats["arrivals"], stats["coreset_size"], stats["final_r"]) == (2**63, 2, 0.5)
    assert out.read_text().split() == ["1.0,w=9223372036854775807", "2.0,w=1"]


def test_dynamic_end_to_end(tmp_path, capsys):
    upd, out = tmp_path / "u.txt", tmp_path / "c.txt"
    code, _, _ = run_cli(capsys, "gen", "--family", "dynamic-lb", "--k", "2", "--z", "1",
                         "--eps", "0.125", "--d", "1", "--delta", "256",
                         "--scenario", "0", "1", "0", "--out", str(upd))
    assert code == 0
    code, stats, _ = run_cli(capsys, "dynamic", str(upd), "--k", "2", "--z", "1",
                             "--eps", "0.125", "--exact-shadow", "--out", str(out))
    assert code == 0
    assert stats["live_count"] == stats["ops"] - 2 * 1  # one delete, minus probe math
    assert "level" in stats and stats["exact_shadow"]
    parsed = pointio.read_points(str(out))
    assert sum(p.weight for p in parsed) == stats["live_count"]


def test_mpc_command(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    write_pts(pts, range(20))
    code, stats, _ = run_cli(capsys, "mpc", str(pts), "--algo", "two-round",
                             "--machines", "3", "--k", "2", "--z", "1",
                             "--eps", "0.5", "--out", str(tmp_path / "c.txt"))
    assert code == 0
    assert stats["rounds"] == 2
    assert len(stats["per_machine_peak_words"]) == 3
    assert "r_hat" in stats
    code, stats, _ = run_cli(capsys, "mpc", str(pts), "--algo", "r-round",
                             "--machines", "4", "--rounds", "2", "--k", "2",
                             "--z", "1", "--eps", "0.5", "--out", str(tmp_path / "c2.txt"))
    assert code == 0 and stats["rounds"] == 2
    code, stats, _ = run_cli(capsys, "mpc", str(pts), "--algo", "one-round",
                             "--machines", "3", "--dist", "random:11", "--k", "2",
                             "--z", "1", "--eps", "0.5", "--out", str(tmp_path / "c3.txt"))
    assert code == 0 and stats["rounds"] == 1 and stats["seed"] == 11


def test_coreset_files_round_trip(tmp_path, capsys):
    src, out = tmp_path / "p.txt", tmp_path / "c.txt"
    write_pts(src, [1, 1, 2, 9])
    run_cli(capsys, "offline", str(src), "--k", "2", "--z", "0", "--eps", "0.5",
            "--out", str(out))
    first = pointio.read_points(str(out))
    pointio.write_points(str(out), first)
    assert pointio.read_points(str(out)) == first


def test_unknown_flags_are_input_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "offline", "missing.txt", "--k", "1")
    assert code == 3


def test_update_stream_parse_errors(tmp_path):
    bad = tmp_path / "u.txt"
    bad.write_text("delta=16 d=1\n* 3\n")
    with pytest.raises(Exception):
        pointio.read_update_stream(str(bad))


MPC_ALGOS = {"two-round": (), "one-round": ("--dist", "random:5"), "r-round": ("--rounds", "2")}


@pytest.mark.parametrize("algo", sorted(MPC_ALGOS))
def test_mpc_rejects_invalid_instances(tmp_path, capsys, algo):
    five, mixed = tmp_path / "five.txt", tmp_path / "mixed.txt"
    write_pts(five, range(5))
    mixed.write_text("0,0\n1\n")
    cases = [
        (five, "0", "0", "0.5"),     # k = 0
        (five, "1", "-1", "0.5"),    # z < 0
        (five, "1", "0", "0"),       # eps = 0
        (five, "1", "0", "nan"),     # eps = nan
        (mixed, "1", "0", "0.5"),    # mixed dimensions
        (five, "1", "5", "0.5"),     # total weight = z
        (five, "1", "9", "0.5"),     # total weight < z
    ]
    for pts, k, z, eps in cases:
        code, stats, err = run_cli(capsys, "mpc", str(pts), "--algo", algo, "--machines", "2",
                                   *MPC_ALGOS[algo], "--k", k, "--z", z, "--eps", eps,
                                   "--out", str(tmp_path / "c.txt"))
        assert code == 3 and stats is None, (k, z, eps, pts.name)
        assert err.startswith("input error:")


def _mpc_argv(pts, out, *extra):
    return ("mpc", str(pts), "--algo", "r-round", "--machines", "2", "--k", "1",
            "--z", "0", "--eps", "0.5", "--out", str(out), *extra)


def test_bad_distribution_specs_are_input_errors(tmp_path, capsys):
    pts, adv, frac = tmp_path / "p.txt", tmp_path / "adv.txt", tmp_path / "frac.txt"
    write_pts(pts, range(4))
    adv.write_text("1 2 x 1\n")
    frac.write_text("1 2 1.5 1\n")  # a fractional machine id is not truncated
    for spec in ("random:abc", "random:", "random:2.9", f"adversarial:{adv}",
                 f"adversarial:{frac}", "adversarial:", "mystery"):
        code, _, err = run_cli(capsys, *_mpc_argv(pts, tmp_path / "c.txt", "--dist", spec))
        assert code == 3 and "distribution" in err, spec


def test_a_directory_in_place_of_a_file_is_an_input_error(tmp_path, capsys):
    pts, folder = tmp_path / "p.txt", tmp_path / "folder"
    write_pts(pts, range(4))
    folder.mkdir()
    out = tmp_path / "c.txt"
    for argv in (_mpc_argv(folder, out),                                    # points file
                 _mpc_argv(pts, folder),                                    # --out
                 _mpc_argv(pts, out, "--dist", f"adversarial:{folder}")):   # assignment file
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and err.startswith("input error:"), argv


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    pts, adv = tmp_path / "p.txt", tmp_path / "adv.txt"
    write_pts(pts, range(4))
    adv.write_bytes(b"\xff\xfe 1 2 1 2\n")
    for argv in (_mpc_argv(adv, tmp_path / "c.txt"),
                 _mpc_argv(pts, tmp_path / "c.txt", "--dist", f"adversarial:{adv}")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and err.startswith("input error:"), argv


def test_validate_rejects_mixed_dimensions_and_nan_epsilon(tmp_path, capsys):
    pts, core, flat = tmp_path / "p.txt", tmp_path / "c.txt", tmp_path / "f.txt"
    pointio.write_points(str(pts), [W((1.0, 1.0)), W((2.0, 5.0))])
    pointio.write_points(str(core), [W((1.0, 1.0)), W((2.0, 5.0))])
    write_pts(flat, [1, 2])
    for argv in ((str(pts), str(flat), "--eps", "0.5"),    # coreset of another dimension
                 (str(pts), str(core), "--eps", "nan")):
        code, stats, err = run_cli(capsys, "validate", *argv, "--k", "1", "--z", "0")
        assert code == 3 and stats is None and err.startswith("input error:"), argv


def test_weights_past_int64_are_input_errors(tmp_path, capsys):
    too_big = tmp_path / "big.txt"
    too_big.write_text(f"1,w={2**70}\n2\n")
    total_wraps = tmp_path / "wrap.txt"
    total_wraps.write_text(f"1,w={2**63 - 1}\n2,w={2**63 - 1}\n3\n")
    kze = ("--k", "1", "--z", "0", "--eps", "0.5")
    for pts in (str(too_big), str(total_wraps)):
        for argv in (("offline", pts, *kze, "--out", str(tmp_path / "c.txt")),
                     ("mpc", pts, "--algo", "two-round", "--machines", "2", *kze,
                      "--out", str(tmp_path / "c.txt")),
                     ("validate", pts, pts, *kze)):
            code, stats, err = run_cli(capsys, *argv)
            assert code == 3 and stats is None and "int64" in err, argv


def test_delta_fail_outside_the_unit_interval_is_an_input_error(tmp_path, capsys):
    upd = tmp_path / "u.txt"
    upd.write_text("delta=8 d=1\n+ 3\n+ 4\n")
    for value, extra in (("2", ()), ("nan", ("--exact-shadow",)), ("-3", ("--exact-shadow",))):
        code, stats, err = run_cli(capsys, "dynamic", str(upd), "--k", "1", "--z", "0",
                                   "--eps", "1.0", "--delta-fail", value, *extra,
                                   "--out", str(tmp_path / "c.txt"))
        assert code == 3 and stats is None and "delta_fail" in err, (value, extra)


@pytest.mark.parametrize("argv", [
    "offline {pts} --k 1 --z 0 --eps 1e-200 --out {out}",        # k*(12/eps)^d
    "stream {pts} --k 1 --z 0 --eps 1e-200 --d 2 --out {out}",   # k*(16/eps)^d
    "stream {pts} --k 1 --z 0 --eps 0.5 --d 1000 --out {out}",
    "dynamic {upd} --k 1 --z 0 --eps 1e-308 --out {out}",        # k*(4*sqrt(d)/eps)^d
    "dynamic {wide} --k 1 --z 0 --eps 1.0 --out {out}",          # levels * Delta^(3d)
    "gen --family insertion-lb --k 1 --z 0 --eps 1e-300 --out {out}",  # h*h
    "gen --family dynamic-lb --k 1 --z 0 --eps 1e-300 --delta 64 --out {out}",
    f"gen --family dynamic-lb --k {10**160} --z 0 --eps 0.125 --d 1 --delta 64 --out {{out}}",
])
def test_bounds_past_the_float_range_are_input_errors(tmp_path, capsys, argv):
    files = {name: tmp_path / f"{name}.txt" for name in ("pts", "upd", "wide", "out")}
    pointio.write_points(str(files["pts"]), [W(p) for p in ((0, 0), (1, 0), (5, 5), (9, 9))])
    files["upd"].write_text("delta=8 d=1\n+ 3\n+ 4\n")
    files["wide"].write_text("delta=1048576 d=20\n+ " + ",".join(["1"] * 20) + "\n")
    code, stats, err = run_cli(capsys, *argv.format(**files).split())
    assert code == 3 and stats is None
    assert err.startswith("input error:") and err.count("\n") == 1, err
    assert not files["out"].exists()


# both sets' costs at the center set (-1.7e308, -1e308) overflow, so a NaN
# gap once hid the finite center set (-1.7e308, 1.7e308), which fails
# condition 2, and the check passed
OVERFLOW_POINTS = "-1.7e308\n-1e308\n0\n5e307\n1e308\n1.7e308\n"
OVERFLOW_CORESET = "-1.7e308,w=1\n-1e308,w=2\n5e307,w=1\n1e308,w=1\n1.7e308,w=1\n"


@pytest.mark.parametrize("universe", ["input-points", "midpoint-grid"])
def test_validate_refuses_overflowing_distances(tmp_path, capsys, universe):
    pts, core = tmp_path / "big.txt", tmp_path / "core.txt"
    pts.write_text(OVERFLOW_POINTS)
    core.write_text(OVERFLOW_CORESET)
    code, stats, err = run_cli(capsys, "validate", str(pts), str(core), "--k", "2", "--z", "0",
                               "--eps", "0.5", "--universe", universe)
    assert code == 3 and stats is None
    assert err.startswith("input error:") and err.count("\n") == 1, err


# under -W error a numpy overflow warning once ended offline and stream on
# these points in a traceback and exit 1; the kernel now makes such an entry
# inf without a warning. Stats (but the timing) and coresets are pinned.
OVERFLOW_STATS = {
    "offline": {"algorithm": "offline-mbc", "coreset_size": 6, "epsilon": 0.5,
                "greedy_radius": 1.5e308, "k": 2, "metric": "linf", "mini_ball_radius": 2.5e307,
                "points": 6, "size_bound": 48.0, "total_weight": 6, "z": 0},
    "stream": {"algorithm": "insertion-streaming", "arrivals": 6, "coreset_size": 6, "d": 1,
               "epsilon": 0.5, "final_r": 3.4999999999999996e307, "k": 2, "threshold": 64,
               "z": 0},
}


@pytest.mark.parametrize("command", ["offline", "stream"])
def test_overflowing_distances_warn_nothing_under_w_error(tmp_path, command):
    pts, out = tmp_path / "big.txt", tmp_path / "out.txt"
    pts.write_text(OVERFLOW_POINTS)
    argv = [command, "big.txt", "--k", "2", "--z", "0", "--eps", "0.5", "--out", "out.txt"]
    if command == "stream":
        argv += ["--d", "1"]
    src = os.path.dirname(os.path.dirname(kcoreset.__file__))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "kcoreset", *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    stats = json.loads(proc.stdout)
    del stats["wall_time_s"], stats["out"]
    assert stats == OVERFLOW_STATS[command]
    assert out.read_text() == "".join(f"{x!r},w=1\n" for x in (-1.7e308, -1e308, 0.0, 5e307,
                                                                1e308, 1.7e308))


def test_two_round_stats_record_the_distribution_seed(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    write_pts(pts, range(12))
    code, stats, _ = run_cli(capsys, "mpc", str(pts), "--algo", "two-round", "--machines", "3",
                             "--dist", "random:9", "--k", "2", "--z", "1", "--eps", "0.5",
                             "--out", str(tmp_path / "c.txt"))
    assert code == 0 and stats["seed"] == 9


# ---------------------------------------------------------------------------
# CLI fuzz: small random files and flags, bad values included; every run ends
# in a documented exit code and nothing escapes main.
# ---------------------------------------------------------------------------

def _mostly(good, bad):
    """Draws one of ``good`` about three times in four, else one of ``bad``."""
    return st.sampled_from(good) | st.sampled_from(good) | st.sampled_from(good) | \
        st.sampled_from(bad)


_K = _mostly(["1", "2", "3"], ["0", "-1"])
_Z = _mostly(["0", "1", "2"], ["-1", "5", "40"])
_EPS = _mostly(["0.0625", "0.125", "0.5", "1.0"], ["0", "-0.5", "1.5", "nan", "inf"])
# (family, k, z, eps, d, delta) that each family accepts; each has one cluster
_GEN_OK = [("one-dim-lb", "2", "1", "0.125", "1", "0"),
           ("insertion-lb", "2", "1", "0.125", "1", "0"),
           ("insertion-lb", "4", "2", "0.0625", "2", "0"),
           ("dynamic-lb", "2", "1", "0.125", "1", "256"),
           ("dynamic-lb", "4", "0", "0.0625", "2", "4096")]
_INDEX = _mostly(["0", "1", "2"], ["-1", "3", "9", "999"])  # a probe or scenario index
_BAD_POINT_LINE = st.sampled_from(["1,x", "nan,1", "1e400", ",", "1,w=0", "1,w=y", "3,4,5"])


@st.composite
def _point_file(draw):
    """Lines of one dimension with small integer coordinates, sometimes one bad line."""
    d = draw(st.integers(1, 2))
    coords = st.lists(st.integers(0, 20), min_size=d, max_size=d)
    lines = [",".join(map(str, c)) + draw(st.sampled_from(["", "", ",w=2", ",w=3"]))
             for c in draw(st.lists(coords, max_size=8))]
    bad = draw(st.none() | st.none() | st.none() | _BAD_POINT_LINE)
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


@st.composite
def _update_file(draw):
    """A header, inserts on the grid, deletes of some of them; sometimes a bad
    header, an off-grid point, a deletion of an absent point or a bad line."""
    delta, d = draw(st.sampled_from([(8, 1), (16, 2), (16, 1)]))
    header = draw(_mostly([f"delta={delta} d={d}"], ["delta=0 d=1", "delta=8 d=0",
                                                       "delta=x d=1", "nonsense"]))
    cell = st.lists(st.integers(1, delta), min_size=d, max_size=d)
    inserts = draw(st.lists(cell, max_size=8))
    deletes = [c for c in inserts if draw(st.booleans())]
    ops = [f"+ {','.join(map(str, c))}" for c in inserts] + \
          [f"- {','.join(map(str, c))}" for c in deletes]
    bad = draw(st.none() | st.none() | st.none() | st.sampled_from(
        ["- " + ",".join(["1"] * d), "+ " + ",".join([str(delta + 1)] * d), "+ 0", "* 1", "+ 1,x"]))
    if bad is not None:
        ops.insert(draw(st.integers(0, len(ops))), bad)
    return "\n".join([header] + ops)


@st.composite
def _gen_argv(draw):
    """gen flags: half the time a configuration its family accepts, else free
    draws; then maybe probe and scenario indices, in range or not."""
    out = ["--out", draw(_mostly(["{dir}/out.txt"], ["{dir}/folder"]))]
    if draw(st.booleans()):
        family, k, z, eps, d, delta = draw(st.sampled_from(_GEN_OK))
        argv = ["gen", "--family", family, "--k", k, "--z", z, "--eps", eps, "--d", d,
                "--delta", delta, *out]
    else:
        family = draw(st.sampled_from(["one-dim-lb", "insertion-lb", "dynamic-lb"]))
        argv = ["gen", "--family", family, "--k", draw(_K), "--z", draw(_Z), "--eps", draw(_EPS),
                "--d", draw(_mostly(["1", "2"], ["0"])), *out]
        if draw(st.booleans()):
            argv += ["--delta", draw(st.sampled_from(["0", "64", "256"]))]
    if draw(st.booleans()):
        argv += ["--probe", draw(_INDEX), draw(_INDEX)]
    if draw(st.booleans()):
        argv += ["--scenario", draw(_INDEX), draw(_INDEX), draw(_INDEX)]
    return argv


@st.composite
def _cli_case(draw):
    """(argv with {dir} placeholders, point file, second point file, update file)."""
    files = (draw(_point_file()), draw(_point_file()), draw(_update_file()))
    cmd = draw(st.sampled_from(["offline", "stream", "dynamic", "mpc", "gen", "validate"]))
    kze = ["--k", draw(_K), "--z", draw(_Z), "--eps", draw(_EPS)]
    out = ["--out", draw(_mostly(["{dir}/out.txt"], ["{dir}/folder"]))]
    src = draw(_mostly(["{dir}/p.txt"], ["{dir}/missing.txt", "{dir}/folder", "{dir}/bin.txt"]))
    if cmd == "offline":
        argv = [cmd, src, *kze, *out]
    elif cmd == "stream":
        argv = [cmd, src, *kze, "--d", draw(_mostly(["1", "2"], ["0"])), *out]
    elif cmd == "dynamic":
        upd = draw(_mostly(["{dir}/u.txt"], ["{dir}/p.txt", "{dir}/missing.txt"]))
        argv = [cmd, upd, *kze, "--seed", draw(st.sampled_from(["0", "7"])), *out]
        if draw(st.booleans()):
            argv.append("--exact-shadow")
    elif cmd == "mpc":
        argv = [cmd, src, *kze, *out,
                "--algo", draw(st.sampled_from(["two-round", "one-round", "r-round"])),
                "--machines", draw(_mostly(["1", "2", "3"], ["0", "-1"])),
                "--rounds", draw(_mostly(["1", "2", "3"], ["0"])),
                "--dist", draw(_mostly(
                    ["roundrobin", "random:3", "adversarial:{dir}/a.txt"],
                    ["random:abc", "random:", "adversarial:{dir}/p.txt",
                     "adversarial:{dir}/folder", "adversarial:{dir}/missing.txt", "mystery"])),
                "--metric", draw(st.sampled_from(["l2", "linf"]))]
    elif cmd == "gen":
        argv = draw(_gen_argv())
    else:
        argv = [cmd, src, draw(st.sampled_from(["{dir}/q.txt", "{dir}/p.txt"])), *kze,
                "--universe", draw(st.sampled_from(["input-points", "midpoint-grid"]))]
    return argv, files


def _exit_code(argv, files):
    """Runs ``argv`` in a fresh directory holding the fuzz files and returns its exit code."""
    points, coreset, updates = files
    with tempfile.TemporaryDirectory() as tmp:
        for name, lines in (("p.txt", points), ("q.txt", coreset)):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        with open(os.path.join(tmp, "u.txt"), "w", encoding="utf-8") as fh:
            fh.write(updates + "\n")
        with open(os.path.join(tmp, "a.txt"), "w", encoding="utf-8") as fh:
            fh.write(" ".join(str(1 + i % 2) for i in range(len(points))) + "\n")
        with open(os.path.join(tmp, "bin.txt"), "wb") as fh:
            fh.write(b"\xff\xfe1,2\n")
        os.mkdir(os.path.join(tmp, "folder"))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([arg.replace("{dir}", tmp) for arg in argv])
    return code


@seed(20261018)
@given(case=_cli_case())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_ends_in_a_documented_exit_code(case):
    assert _exit_code(*case) in {0, 2, 3, 4, 5}


# gen is one command in six above, so its index draws get a run of their own
@seed(20261019)
@given(argv=_gen_argv())
@settings(max_examples=100, deadline=None)
def test_gen_fuzz_ends_in_a_documented_exit_code(argv):
    assert _exit_code(argv, ([], [], "")) in {0, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# Pins: every README CLI example, the oracle and adversarial-distribution
# paths and one case per error exit code, run in order in one directory; and
# the parser surface of every subcommand.
# ---------------------------------------------------------------------------

def _pin_inputs():
    """Writes the hand-made inputs of the pinned runs into the working directory."""
    write_pts("small.txt", [1, 2, 3, 4])
    pointio.write_points("bad.txt", [W((1.0,), 1), W((2.0,), 1), W((4.0,), 2)])
    pointio.write_points("squares.txt", [W((float(i * i), float(i * i))) for i in range(60)])
    with open("assign.txt", "w", encoding="utf-8") as fh:
        fh.write("1 1 2 3\n")


# (argv, exit code, stats without wall_time_s or the stderr label, --out SHA-256)
PINNED_RUNS = [
    ("gen --family one-dim-lb --k 2 --z 1 --out pts.txt",
     0, {"algorithm": "gen", "count": 3, "family": "one-dim-lb", "out": "pts.txt"},
     "c623f31eecfae5df65a106259ea01a7ff2c00c4ad78e6d6eabe750ab03a981b2"),
    ("gen --family insertion-lb --k 2 --z 1 --out ins.txt",
     0, {"algorithm": "gen", "count": 4, "family": "insertion-lb", "out": "ins.txt"},
     "3aff4758d321670cd0c463af81d23053ccca84866a2213e4a38b0f49458083cc"),
    ("gen --family dynamic-lb --k 2 --z 1 --eps 0.125 --d 1 --delta 256 --out upd.txt",
     0, {"algorithm": "gen", "count": 3, "family": "dynamic-lb", "out": "upd.txt"},
     "8d59afcb422849efbdc8d8bf091e351e2c7388b0b8729ea83dac151af95c972e"),
    ("offline pts.txt --k 2 --z 1 --eps 1.0 --out core.txt",
     0, {"algorithm": "offline-mbc", "coreset_size": 3, "epsilon": 1.0, "greedy_radius": 0.0,
         "k": 2, "metric": "linf", "mini_ball_radius": 0.0, "out": "core.txt", "points": 3,
         "size_bound": 25.0, "total_weight": 3, "z": 1},
     "c623f31eecfae5df65a106259ea01a7ff2c00c4ad78e6d6eabe750ab03a981b2"),
    ("stream pts.txt --k 2 --z 1 --eps 1.0 --d 1 --out core.txt",
     0, {"algorithm": "insertion-streaming", "arrivals": 3, "coreset_size": 3, "d": 1,
         "epsilon": 1.0, "final_r": 0.0, "k": 2, "out": "core.txt", "threshold": 33, "z": 1},
     "c623f31eecfae5df65a106259ea01a7ff2c00c4ad78e6d6eabe750ab03a981b2"),
    ("validate pts.txt core.txt --k 2 --z 1 --eps 1.0",
     0, {"algorithm": "validate", "passed": True, "violated_condition": None, "witness": None},
     None),
    ("mpc pts.txt --algo two-round --machines 3 --k 2 --z 1 --eps 0.5 --out core.txt",
     0, {"algorithm": "mpc-two-round", "coordinator_peak_words": 12, "coreset_size": 3,
         "epsilon": 0.5, "k": 2, "machines": 3, "messages_per_round": [12, 4],
         "out": "core.txt", "per_machine_peak_words": [10, 10, 10], "r_hat": 0.0, "rounds": 2,
         "z": 1},
     "c623f31eecfae5df65a106259ea01a7ff2c00c4ad78e6d6eabe750ab03a981b2"),
    ("mpc pts.txt --algo one-round --machines 4 --dist random:7 "
     "--k 2 --z 1 --eps 0.5 --out core.txt",
     0, {"algorithm": "mpc-one-round", "coordinator_peak_words": 6, "coreset_size": 3,
         "epsilon": 0.5, "k": 2, "machines": 4, "messages_per_round": [6], "out": "core.txt",
         "per_machine_peak_words": [0, 4, 4, 4], "rounds": 1, "seed": 7, "z": 1, "z_prime": 1},
     "3c777b49b5b7ed902f9bc281665535453877e91d36da8c6ee19168ab66005b75"),
    ("mpc pts.txt --algo r-round --machines 8 --rounds 3 --k 2 --z 1 --eps 0.5 --out core.txt",
     0, {"algorithm": "mpc-r-round", "coordinator_peak_words": 6, "coreset_size": 3,
         "epsilon": 0.5, "k": 2, "machines": 8, "messages_per_round": [4, 2, 0],
         "out": "core.txt", "per_machine_peak_words": [12, 4, 4, 0, 0, 0, 0, 0], "rounds": 3,
         "z": 1},
     "c623f31eecfae5df65a106259ea01a7ff2c00c4ad78e6d6eabe750ab03a981b2"),
    ("dynamic upd.txt --k 2 --z 1 --eps 0.125 --seed 3 --out core.txt",
     0, {"algorithm": "dynamic-streaming", "coreset_size": 3, "d": 1, "delta": 256,
         "epsilon": 0.125, "exact_shadow": False, "k": 2, "level": 0, "live_count": 3, "ops": 3,
         "out": "core.txt", "seed": 3, "sketch_bytes": 304, "z": 1},
     "18a5415273f118f716545cdaf6887a2bd432ca57a6c7e92e60bddf0289ff6a00"),
    ("dynamic upd.txt --k 2 --z 1 --eps 0.125 --seed 3 --out core.txt --exact-shadow",
     0, {"algorithm": "dynamic-streaming", "coreset_size": 3, "d": 1, "delta": 256,
         "epsilon": 0.125, "exact_shadow": True, "k": 2, "level": 0, "live_count": 3, "ops": 3,
         "out": "core.txt", "seed": 3, "sketch_bytes": 0, "z": 1},
     "18a5415273f118f716545cdaf6887a2bd432ca57a6c7e92e60bddf0289ff6a00"),
    ("offline ins.txt --k 2 --z 1 --eps 0.5 --oracle input-points --out core.txt",
     0, {"algorithm": "offline-mbc", "coreset_opt": 1.0, "coreset_size": 4, "epsilon": 0.5,
         "greedy_radius": 1.5, "k": 2, "metric": "linf", "mini_ball_radius": 0.25,
         "oracle_opt": 1.0, "out": "core.txt", "points": 4, "size_bound": 49.0,
         "total_weight": 4, "z": 1},
     "3aff4758d321670cd0c463af81d23053ccca84866a2213e4a38b0f49458083cc"),
    ("stream ins.txt --k 2 --z 1 --eps 0.5 "
     "--d 1 --metric l2 --oracle midpoint-grid --out core.txt",
     0, {"algorithm": "insertion-streaming", "arrivals": 4, "coreset_opt": 0.5,
         "coreset_size": 4, "d": 1, "epsilon": 0.5, "final_r": 0.5, "k": 2, "oracle_opt": 0.5,
         "out": "core.txt", "threshold": 65, "z": 1},
     "3aff4758d321670cd0c463af81d23053ccca84866a2213e4a38b0f49458083cc"),
    ("mpc small.txt --algo two-round --machines 3 --dist adversarial:assign.txt "
     "--k 2 --z 1 --eps 0.5 --out core.txt",
     0, {"algorithm": "mpc-two-round", "coordinator_peak_words": 14, "coreset_size": 4,
         "epsilon": 0.5, "k": 2, "machines": 3, "messages_per_round": [12, 4],
         "out": "core.txt", "per_machine_peak_words": [14, 10, 10], "r_hat": 0.0, "rounds": 2,
         "z": 1},
     "4222cfc158683dd8a941aedabeb69f61acb5a0834dc0584ed97c790f4de40fee"),
    ("validate small.txt bad.txt --k 2 --z 1 --eps 0.5",
     2, {"algorithm": "validate", "passed": False, "violated_condition": "RadiusBandLow",
         "witness": "opt(coreset)=0.0 below (1-eps)*opt(P)=0.25"},
     None),
    ("offline pts.txt --k 2 --z 1 --eps 1.0 --metric l1 --out err.txt",
     3, "input error",
     None),
    ("offline missing.txt --k 2 --z 1 --eps 1.0 --out err.txt",
     3, "input error",
     None),
    ("gen --family dynamic-lb --k 2 --z 1 --out err.txt",
     3, "input error",
     None),
    ("validate squares.txt squares.txt --k 1 --z 0 --eps 0.5",
     4, "capacity error",
     None),
]


def _observe(argv):
    """(exit code, stats without wall_time_s or the stderr label, --out file SHA-256)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    if out.getvalue():
        stats = json.loads(out.getvalue())
        del stats["wall_time_s"]
    else:
        stats = err.getvalue().partition(":")[0]
    path = argv.split()[argv.split().index("--out") + 1] if "--out" in argv.split() else None
    sha = None
    if path is not None and os.path.isfile(path):
        with open(path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
    return code, stats, sha


def test_cli_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _pin_inputs()
    for argv, *pinned in PINNED_RUNS:
        assert _observe(argv) == tuple(pinned), argv
    # exit 5 needs every decode to fail, which no small valid stream does
    monkeypatch.setattr(SparseRecoverySketch, "query", lambda self: None)
    assert _observe("dynamic upd.txt --k 2 --z 1 --eps 0.125 --seed 3 --out failed.txt") == \
        (5, "sketch failure", None)


# dest -> (option strings, default, choices, required, nargs, type name), per subcommand
PARSER_SURFACE = {
    "offline": {
        "help": (("-h", "--help"), "==SUPPRESS==", None, False, 0, None),
        "points": ((), None, None, True, None, None),
        "k": (("--k",), None, None, True, None, "int"),
        "z": (("--z",), None, None, True, None, "int"),
        "eps": (("--eps",), None, None, True, None, "float"),
        "metric": (("--metric",), "linf", ["l2", "linf"], False, None, None),
        "oracle": (("--oracle",), "none", ["none", "input-points", "midpoint-grid"],
                   False, None, None),
        "out": (("--out",), None, None, True, None, None),
    },
    "stream": {
        "help": (("-h", "--help"), "==SUPPRESS==", None, False, 0, None),
        "points": ((), None, None, True, None, None),
        "k": (("--k",), None, None, True, None, "int"),
        "z": (("--z",), None, None, True, None, "int"),
        "eps": (("--eps",), None, None, True, None, "float"),
        "d": (("--d",), None, None, True, None, "int"),
        "metric": (("--metric",), "linf", ["l2", "linf"], False, None, None),
        "oracle": (("--oracle",), "none", ["none", "input-points", "midpoint-grid"],
                   False, None, None),
        "out": (("--out",), None, None, True, None, None),
    },
    "dynamic": {
        "help": (("-h", "--help"), "==SUPPRESS==", None, False, 0, None),
        "updates": ((), None, None, True, None, None),
        "k": (("--k",), None, None, True, None, "int"),
        "z": (("--z",), None, None, True, None, "int"),
        "eps": (("--eps",), None, None, True, None, "float"),
        "delta_fail": (("--delta-fail",), 0.1, None, False, None, "float"),
        "seed": (("--seed",), 0, None, False, None, "int"),
        "exact_shadow": (("--exact-shadow",), False, None, False, 0, None),
        "out": (("--out",), None, None, True, None, None),
    },
    "mpc": {
        "help": (("-h", "--help"), "==SUPPRESS==", None, False, 0, None),
        "points": ((), None, None, True, None, None),
        "k": (("--k",), None, None, True, None, "int"),
        "z": (("--z",), None, None, True, None, "int"),
        "eps": (("--eps",), None, None, True, None, "float"),
        "algo": (("--algo",), None, ["two-round", "one-round", "r-round"], True, None, None),
        "machines": (("--machines",), None, None, True, None, "int"),
        "rounds": (("--rounds",), 1, None, False, None, "int"),
        "dist": (("--dist",), "roundrobin", None, False, None, None),
        "metric": (("--metric",), "linf", ["l2", "linf"], False, None, None),
        "out": (("--out",), None, None, True, None, None),
    },
    "gen": {
        "help": (("-h", "--help"), "==SUPPRESS==", None, False, 0, None),
        "family": (("--family",), None, ["insertion-lb", "one-dim-lb", "dynamic-lb"],
                   True, None, None),
        "k": (("--k",), None, None, True, None, "int"),
        "z": (("--z",), None, None, True, None, "int"),
        "eps": (("--eps",), 0.125, None, False, None, "float"),
        "d": (("--d",), 1, None, False, None, "int"),
        "delta": (("--delta",), None, None, False, None, "int"),
        "probe": (("--probe",), None, None, False, 2, "int"),
        "scenario": (("--scenario",), None, None, False, 3, "int"),
        "extra": (("--extra",), False, None, False, 0, None),
        "out": (("--out",), None, None, True, None, None),
    },
    "validate": {
        "help": (("-h", "--help"), "==SUPPRESS==", None, False, 0, None),
        "points": ((), None, None, True, None, None),
        "coreset": ((), None, None, True, None, None),
        "k": (("--k",), None, None, True, None, "int"),
        "z": (("--z",), None, None, True, None, "int"),
        "eps": (("--eps",), None, None, True, None, "float"),
        "metric": (("--metric",), "linf", ["l2", "linf"], False, None, None),
        "universe": (("--universe",), "midpoint-grid", ["input-points", "midpoint-grid"],
                     False, None, None),
    },
}


def test_parser_surface_is_pinned():
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {a.dest: (tuple(a.option_strings), a.default,
                        None if a.choices is None else list(a.choices), a.required, a.nargs,
                        getattr(a.type, "__name__", None))
               for a in parser._actions}
        for name, parser in sub.choices.items()
    }
    assert surface == PARSER_SURFACE
