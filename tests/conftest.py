import math

import numpy as np
import pytest

from kcoreset import EXPLICIT, L2, LINF, InputError, Metric, WeightedPoint
from kcoreset.metric import _EXPLICIT_POINTS


@pytest.fixture(scope="session")
def linf():
    return Metric(LINF)


@pytest.fixture(scope="session")
def l2():
    return Metric(L2)


def scalar_distance(metric, p, q):
    """Reference distance: the scalar formula, one pair at a time. Every
    entry of ``Metric.pairwise`` has the same bits."""
    p, q = tuple(p), tuple(q)
    if len(p) != len(q):
        raise InputError(f"dimension mismatch: {len(p)} vs {len(q)}")
    if metric.kind == EXPLICIT:
        if len(p) != 1 or not (float(p[0]).is_integer() and float(q[0]).is_integer()):
            raise InputError(_EXPLICIT_POINTS)
        i, j = int(p[0]), int(q[0])
        n = len(metric.matrix)
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"matrix index out of range: {i}, {j}")
        return metric.matrix[i][j]
    diff = [abs(a - b) for a, b in zip(p, q)]
    if metric.kind == LINF:
        return max(diff) if diff else 0.0
    return math.sqrt(sum(d * d for d in diff))


def reference_parse_point_line(line, lineno):
    """Reference point-line parser: every field stripped, converted, then
    checked again by ``WeightedPoint``. The readers in ``kcoreset.pointio``
    give the same points and the same errors."""
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


def reference_read_points(path):
    """Reference point-file reader: ``reference_parse_point_line`` on every
    line that is neither blank nor a comment."""
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            points.append(reference_parse_point_line(line, lineno))
    return points


def reference_read_update_stream(path):
    """Reference update-stream reader: every coordinate field stripped and
    converted on its own. Returns (delta, d, ops)."""
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


def random_points(rng, n, d, lo=0, hi=100, cluster_frac=0.0, weights=False):
    """Random integer-coordinate points, optionally clustered, as WeightedPoints."""
    pts = []
    n_clustered = int(n * cluster_frac)
    if n_clustered:
        n_centers = int(rng.integers(1, 4))
        centers = rng.integers(lo, hi + 1, size=(n_centers, d))
        for _ in range(n_clustered):
            c = centers[rng.integers(n_centers)]
            p = np.clip(c + rng.integers(-3, 4, size=d), lo, hi)
            pts.append(tuple(float(v) for v in p))
    for _ in range(n - n_clustered):
        pts.append(tuple(float(v) for v in rng.integers(lo, hi + 1, size=d)))
    out = []
    for p in pts:
        w = int(rng.integers(1, 4)) if weights else 1
        out.append(WeightedPoint(p, w))
    return out


def unit_assignment_exists(P, Pstar, bound, metric):
    """Exhaustive oracle for the transportation feasibility the flow checker
    decides: every unit of input weight goes to some representative within
    ``bound`` and representative totals are met exactly."""
    units = []
    for p in P:
        units.extend([p.point] * p.weight)
    compat = [
        tuple(j for j, q in enumerate(Pstar)
              if scalar_distance(metric, u, q.point) <= bound + 1e-12 * max(1.0, bound))
        for u in units
    ]
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i, remaining):
        if i == len(units):
            return all(r == 0 for r in remaining)
        for j in compat[i]:
            if remaining[j] > 0:
                nxt = list(remaining)
                nxt[j] -= 1
                if rec(i + 1, tuple(nxt)):
                    return True
        return False

    return rec(0, tuple(q.weight for q in Pstar))
