import numpy as np
import pytest

from kcoreset import InputError, pointio
from conftest import reference_read_points, reference_read_update_stream

# every line is read alone and then, where it parses, together with the others
POINT_LINES = [
    # plain and padded points
    "1,2", "1.5, -2.25", "  3 , 4  ", "\t5,\t6\t", " 7,8 ", "0", "-0.0,0.0", "+1,-0",
    # weight fields
    "1,2,w=3", "1,2, w=3 ", "1,2,w= 3", "1,w=1", "3.5,w=007", "1,w=99999999999999999999",
    # comments and blank lines
    "", "   ", "\t", "#", "# a comment", "#1,2", "  # padded comment",
    # exponents, overflow to inf, nan and inf
    "1e3,2E-4", "1e-320,5e-324", "1e400,0", "-1e400,1", "nan,1", "NaN, 2", "inf,0", "-inf,0",
    "Infinity,1", "1,nan,w=2", "1e400,w=2",
    # finite coordinates whose sum overflows
    "1.7e308,1.7e308", "-1.7e308,-1.7e308,w=2", "1e308,1e308,1e308",
    # empty fields and trailing commas
    ",1", "1,,2", "1,", "1,2,", ",", "1, ,2", "1,2,,w=3", ",w=3", "w=3", " , ",
    # bad weights
    "1,w=0", "1,w=-2", "1,w=x", "1,w=", "1,w=1.5", "1,w=3,4", "1,2,W=3",
    # other text float() takes or refuses
    "abc", "1;2", "1 2", "0x10,1", "1_000,2", "١٢,3", "1\x00,2", "1,2\r",
    # str.strip() strips the separators U+001C..U+001F, float() and int() do not
    "1,\x1c2\x1d", "1,2,\x1ew=3\x1f", "1,w=\x1f3", "1,\x1f,2", "1,\x1c,w=3", "1,\x1cx",
    # text around a weight field
    "1, w=x ", "1,2,xw=3", "1,w=3w=4", "1,2=w", "1,w=3,w=4",
]

UPDATE_LINES = [
    "+ 1,2", "- 3,4", "+1,2", "+ 1 , 2 ", "+  1,2", "-\t-1,+2", "+ 1_0,2", "+ ١,2",
    "", "# comment", "* 1,2", "+", "-", "+ 1", "+ 1,2,3", "+ 1.5,2", "+ a,2", "+ 1,",
    "+ ,1", "+ 1e3,2", "+-1,2", "++1,2", "+ 1,,2", "+ 99999999999999999999999,1",
]


def _outcome(reader, path):
    try:
        return "ok", reader(path)
    except InputError as exc:
        return "error", str(exc)


def _assert_same_points(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.weight) is int and g.weight == w.weight
        assert all(type(c) is float for c in g.point)
        assert np.array_equal(np.asarray(g.point).view(np.uint64),
                              np.asarray(w.point).view(np.uint64))


def _assert_same_read(reader, reference, path):
    got, want = _outcome(reader, path), _outcome(reference, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    return got, want


def _one(tmp_path, line):
    path = tmp_path / "one.txt"
    path.write_text(line + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("line", POINT_LINES)
def test_point_reader_matches_reference_on_each_line(tmp_path, line):
    path = tmp_path / "p.txt"
    path.write_text(f"# header\n{line}\n", encoding="utf-8")
    got, want = _assert_same_read(pointio.read_points, reference_read_points, str(path))
    if got[0] == "ok":
        _assert_same_points(got[1], want[1])


def test_point_reader_matches_reference_on_whole_files(tmp_path):
    good = [line for line in POINT_LINES
            if _outcome(reference_read_points, _one(tmp_path, line))[0] == "ok"]
    assert len(good) > 20
    path = tmp_path / "all.txt"
    path.write_text("\n".join(good) + "\n", encoding="utf-8")
    got, want = _assert_same_read(pointio.read_points, reference_read_points, str(path))
    assert got[0] == "ok" and len(got[1]) > 20
    _assert_same_points(got[1], want[1])
    # a fault part way down names the same line
    for bad in ("nan,1", "1,w=0", "1,,2"):
        path.write_text("\n".join(good[:7] + [bad] + good[7:]) + "\n", encoding="utf-8")
        got, _ = _assert_same_read(pointio.read_points, reference_read_points, str(path))
        assert got[0] == "error" and got[1].startswith("line 8:")


@pytest.mark.parametrize("line", UPDATE_LINES)
def test_update_reader_matches_reference_on_each_line(tmp_path, line):
    path = tmp_path / "u.txt"
    path.write_text(f"delta=8 d=2\n{line}\n", encoding="utf-8")
    got, want = _assert_same_read(pointio.read_update_stream, reference_read_update_stream,
                                  str(path))
    if got[0] == "ok":
        assert got[1] == want[1]
        for sign, point in got[1][2]:
            assert type(sign) is int and all(type(c) is int for c in point)


@pytest.mark.parametrize("text", ["", "# only a comment\n", "d=2\n+ 1,2\n", "delta=x d=2\n",
                                  "delta=8\n", "delta=8 d=1 extra\n+ 3\n"])
def test_update_reader_matches_reference_on_headers(tmp_path, text):
    path = tmp_path / "u.txt"
    path.write_text(text, encoding="utf-8")
    got, want = _assert_same_read(pointio.read_update_stream, reference_read_update_stream,
                                  str(path))
    if got[0] == "ok":
        assert got[1] == want[1]
