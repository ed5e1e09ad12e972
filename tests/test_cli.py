import json

import pytest

from kcoreset import WeightedPoint, pointio
from kcoreset.cli import main

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
