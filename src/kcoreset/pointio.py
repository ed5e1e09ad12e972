"""Text file formats: point files and dynamic update streams.

Point file: one point per line, comma-separated coordinates, optional final
field ``w=<int>`` (default weight 1); ``#`` starts a comment line, and blank
lines are skipped. Fields may be padded with whitespace. A line is checked
for nonempty fields, coordinates that parse as finite floats, and a weight
that is a positive integer, and it is checked once: ``parse_point_line``
splits it once, converts each field once and builds the point with no
second check, or names the line and its fault.

Update stream: header ``delta=<int> d=<int>``, then one op per line,
``+ x1,...,xd`` or ``- x1,...,xd`` with integer coordinates.
"""

from __future__ import annotations

from .errors import InputError
from .metric import WeightedPoint, _point, as_weighted


def parse_point_line(line: str, lineno: int) -> WeightedPoint:
    """The point on a stripped line that is neither blank nor a comment.

    The line is split once and each field converted once; a point with a
    positive weight and finite coordinates is then built with no second
    check. ``float`` and ``int`` strip a field's padding as ``str.strip``
    does, except for the separators U+001C..U+001F, so only a line that
    fails to convert strips its fields and converts them again, to tell an
    empty field from a bad one. Faults are named in this order: a bad
    weight field, an empty field, a bad coordinate, a weight below 1, a
    coordinate that is not finite. The point is built by ``metric._point``,
    as a stream arrival is."""
    fields = line.split(",")
    weight = 1
    if "w=" in fields[-1]:  # a cheap screen; the field must start with it
        last = fields[-1].strip()
        if last.startswith("w="):
            try:
                weight = int(last[2:])
            except ValueError:
                raise InputError(f"line {lineno}: bad weight field {last!r}")
            fields.pop()
    try:
        coords = tuple(map(float, fields))
    except ValueError:
        fields = [f.strip() for f in fields]
        coords = None
        if all(fields):
            try:
                coords = tuple(map(float, fields))
            except ValueError:
                raise InputError(f"line {lineno}: bad coordinate in {line!r}")
    if not coords:  # an empty field, or a weight field alone
        raise InputError(f"line {lineno}: expected comma-separated coordinates")
    try:
        return _point(coords, weight)  # refuses a weight below 1 or a coordinate not finite
    except InputError as exc:
        raise InputError(f"line {lineno}: {exc}")


def read_points(path: str) -> list[WeightedPoint]:
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
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
                coords = tuple(map(int, line[1:].split(",")))  # int() strips padding
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
