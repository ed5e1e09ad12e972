"""Text file formats: point files and dynamic update streams.

Point file: one point per line, comma-separated coordinates, optional final
field ``w=<int>`` (default weight 1); ``#`` starts a comment line. Update
stream: header ``delta=<int> d=<int>``, then one op per line, ``+ x1,...,xd``
or ``- x1,...,xd`` with integer coordinates.
"""

from __future__ import annotations

from .errors import InputError
from .metric import WeightedPoint, as_weighted


def parse_point_line(line: str, lineno: int) -> WeightedPoint:
    fields = [f.strip() for f in line.split(",")]
    weight = 1
    if fields and fields[-1].startswith("w="):
        try:
            weight = int(fields[-1][2:])
        except ValueError:
            raise InputError(f"line {lineno}: bad weight field {fields[-1]!r}")
        fields = fields[:-1]
    if not fields or any(not f for f in fields):
        raise InputError(f"line {lineno}: expected comma-separated coordinates")
    try:
        coords = tuple(map(float, fields))
    except ValueError:
        raise InputError(f"line {lineno}: bad coordinate in {line!r}")
    try:
        return WeightedPoint(coords, weight)
    except InputError as exc:
        raise InputError(f"line {lineno}: {exc}")


def read_points(path: str) -> list[WeightedPoint]:
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            points.append(parse_point_line(line, lineno))
    return points


def format_point(wp: WeightedPoint) -> str:
    coords = ",".join(repr(c) for c in wp.point)
    return f"{coords},w={wp.weight}"


def write_points(path: str, points) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for wp in as_weighted(points):
            fh.write(format_point(wp) + "\n")


def read_update_stream(path: str):
    """Returns (delta, d, ops) with ops a list of (sign, integer point)."""
    header = None
    ops = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                parts = dict(
                    kv.split("=", 1) for kv in line.split() if "=" in kv
                )
                if "delta" not in parts or "d" not in parts:
                    raise InputError(f"line {lineno}: expected header 'delta=<int> d=<int>'")
                try:
                    header = (int(parts["delta"]), int(parts["d"]))
                except ValueError:
                    raise InputError(f"line {lineno}: bad header {line!r}")
                continue
            if line[0] not in "+-" or len(line) < 2:
                raise InputError(f"line {lineno}: expected '+ x1,...,xd' or '- x1,...,xd'")
            sign = 1 if line[0] == "+" else -1
            try:
                coords = tuple(int(f.strip()) for f in line[1:].strip().split(","))
            except ValueError:
                raise InputError(f"line {lineno}: bad coordinates in {line!r}")
            if len(coords) != header[1]:
                raise InputError(f"line {lineno}: expected {header[1]} coordinates")
            ops.append((sign, coords))
    if header is None:
        raise InputError("update stream is missing its header line")
    return header[0], header[1], ops


def write_update_stream(path: str, delta: int, d: int, ops) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"delta={delta} d={d}\n")
        for sign, point in ops:
            mark = "+" if sign > 0 else "-"
            fh.write(f"{mark} {','.join(str(int(c)) for c in point)}\n")
