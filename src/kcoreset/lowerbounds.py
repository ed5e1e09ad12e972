"""Generators for the adversarial lower-bound point configurations.

Three families: the insertion-only grid-cluster construction with its probe
points, the one-dimensional k+z construction, and the dynamic (insert/delete)
scaled-group construction over the integer grid. Generators emit exact
arrival orders (outliers first, then clusters, then probes) because the
hardness arguments reference arrival timing; the order is part of the
contract. All generators are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .metric import Metric, L2, _check_counts, _integer, slack_bound

_INT_TOL = 1e-9


@dataclass(frozen=True)
class LbGeometry:
    """The lambda/h/r geometry underlying the cluster constructions.

    Requires eps <= 1/(8d) and integral 1/(4*d*eps), and refuses an eps so
    small that h or r is past the float range; construction asserts
    r < (1 - eps) * (r + h) / 2, the inequality the hardness argument needs.
    """

    epsilon: float
    d: int
    lam: int = field(init=False)
    h: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        d = _integer(self.d, 1, f"d must be an integer >= 1, got {self.d!r}")
        object.__setattr__(self, "d", d)
        if not (0 < self.epsilon <= 1.0 / (8 * self.d)):
            raise InputError(f"epsilon must be in (0, 1/(8d)] = (0, {1.0 / (8 * self.d)}]")
        raw = 1.0 / (4 * self.d * self.epsilon)
        try:
            lam = round(raw)  # raises on an infinite raw
            h = self.d * (lam + 2) / 2.0  # raises on an int past the float range
        except OverflowError:
            lam, h = raw, math.inf  # refused below
        if abs(raw - lam) > _INT_TOL * max(1.0, raw):
            raise InputError(f"1/(4*d*eps) = {raw} is not an integer; pick eps = 1/(4*d*m)")
        r = math.sqrt(h * h - 2 * h + self.d)
        if not (math.isfinite(h) and math.isfinite(r)):
            raise InputError(f"h or r overflows at eps = {self.epsilon}, d = {self.d}; "
                             "use a larger epsilon")
        object.__setattr__(self, "lam", int(lam))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", r)
        if not r < (1 - self.epsilon) * (r + h) / 2.0:
            raise AssertionError("geometry inequality r < (1-eps)(r+h)/2 failed")


def lb_geometry(epsilon: float, d: int) -> LbGeometry:
    return LbGeometry(epsilon=epsilon, d=d)


def _outliers(z: int, gap, d: int) -> list[tuple]:
    """z points ``gap`` apart on the negative first axis, nearest first; the
    coordinates have the type of ``gap``."""
    return [(-gap * i,) + (gap * 0,) * (d - 1) for i in range(1, z + 1)]


def _shifted(base: list, offset) -> list[tuple]:
    """The points of ``base`` moved by ``offset`` along the first axis."""
    return [(p[0] + offset,) + p[1:] for p in base]


def _probe_cross(p_star: tuple, offset) -> list[tuple]:
    """p* + offset*e_j for every axis j, then p* - offset*e_j, each twice."""
    cross = []
    for sgn in (1, -1):
        for j in range(len(p_star)):
            q = list(p_star)
            q[j] += sgn * offset
            cross.extend([tuple(q)] * 2)
    return cross


def _pick(nested: list, indices: tuple, what: str):
    """The item of nested lists at ``indices``, each index checked."""
    item = nested
    for i in indices:
        if not 0 <= i < len(item):
            raise InputError(f"{what} indices out of range")
        item = item[i]
    return item


def gen_insertion_lb(k: int, z: int, epsilon: float, d: int, probe=None) -> list[tuple]:
    """Insertion stream: z outliers, then k-2d+1 grid clusters of side lambda,
    then (optionally) the 2d probe points around a chosen cluster point, each
    sent twice to realize weight 2.

    ``probe`` is (cluster_index, point_index), both 0-based; the point index
    addresses the cluster's lexicographically sorted grid.
    """
    _check_counts(k, z)
    geom = lb_geometry(epsilon, d)
    if k < 2 * d:
        raise InputError("the construction needs k >= 2d")
    lam, h, r = geom.lam, geom.h, geom.r
    stream = _outliers(z, 4.0 * (h + r), d)
    base = [tuple(map(float, x)) for x in itertools.product(range(lam + 1), repeat=d)]
    clusters = [_shifted(base, i * (lam + 4.0 * (h + r))) for i in range(k - 2 * d + 1)]
    stream.extend(p for cluster in clusters for p in cluster)
    if probe is not None:
        stream.extend(_probe_cross(_pick(clusters, probe, "probe"), h + r))
    return stream


def probe_cover_ok(geom: LbGeometry, k: int, probe, metric: Metric = None) -> bool:
    """Direct distance check: the 2d balls of radius r centered at
    p* +/- h*e_j cover the probe points and the probed cluster minus p*."""
    metric = metric or Metric(L2)
    d = geom.d
    stream = gen_insertion_lb(k, 0, geom.epsilon, d, probe=probe)  # checks the indices
    ci, pi = probe
    size = (geom.lam + 1) ** d
    cluster = stream[ci * size:(ci + 1) * size]
    p_star = cluster[pi]
    centers = _probe_cross(p_star, geom.h)[::2]
    targets = [q for q in cluster if q != p_star] + stream[-4 * d:]
    nearest = metric.pairwise(np.asarray(targets, dtype=float), np.asarray(centers, dtype=float))
    return bool((nearest.min(axis=1) <= slack_bound(geom.r)).all())


def gen_one_dim_lb(k: int, z: int, include_extra: bool = False) -> list[tuple]:
    """Points 1..k+z on the line; the optional extra arrival k+z+1 forces
    the optimum from 0 to 1/2."""
    _check_counts(k, z)
    n = k + z + (1 if include_extra else 0)
    return [(float(i),) for i in range(1, n + 1)]


@dataclass(frozen=True)
class DynamicLbStream:
    delta: int
    d: int
    ops: tuple            # (sign, integer point) in arrival order
    geometry: LbGeometry
    g: int                # groups per cluster
    clusters: int
    group_size: int


def gen_dynamic_lb(k: int, z: int, epsilon: float, d: int, delta: int,
                   scenario=None) -> DynamicLbStream:
    """Insert/delete stream over [Delta]^d: clusters of g scaled groups plus
    outliers; the optional scenario deletes every group above level m* and
    inserts the duplicated probe points around a chosen point of G^{m*}.

    ``scenario`` is (cluster_index, m_star, point_index), 0-based cluster and
    point, 1-based group level m*. Irrational spacings are rounded up to keep
    all coordinates integral; the construction asserts it fits in [1, Delta].
    """
    _check_counts(k, z)
    delta = _integer(delta, 1, f"Delta must be an integer >= 1, got {delta!r}")
    geom = lb_geometry(epsilon, d)
    if k < 2 * d:
        raise InputError("the construction needs k >= 2d")
    lam, h, r = geom.lam, geom.h, geom.r
    if lam % 2 != 0:
        raise InputError("lambda/2 must be an integer; pick eps = 1/(8*d*m)")
    delta_pow = 1 << max(0, (delta - 1).bit_length())
    try:
        fit = ((2 * k + z) * (1.0 / (4 * epsilon) + d)) ** 2
    except OverflowError:  # the bound is past the float range
        raise InputError("((2k+z)(1/(4eps)+d))^2 overflows; use a smaller k or z "
                         "or a larger epsilon")
    if delta_pow < fit:
        raise InputError("Delta must be at least ((2k+z)(1/(4eps)+d))^2")
    big_l = delta_pow.bit_length() - 1
    g = big_l // 2 - 2
    if g < 1:
        raise InputError("Delta too small for at least one group per cluster")

    spacing = math.ceil((1 << (g + 2)) * (h + r))
    half = lam // 2
    groups = [[tuple(c << m for c in x) for x in itertools.product(range(lam + 1), repeat=d)
               if not all(c <= half for c in x)] for m in range(1, g + 1)]
    n_clusters = k - 2 * d + 1
    outliers = _outliers(z, spacing, d)
    clusters = [[_shifted(pts, i * (lam * (1 << g) + spacing)) for pts in groups]
                for i in range(n_clusters)]

    probes, deletes = [], []
    if scenario is not None:
        ci, m_star, pi = scenario
        p_star = _pick(clusters, (ci, m_star - 1, pi), "scenario")
        probes = _probe_cross(p_star, math.ceil((1 << m_star) * (h + r)))
        deletes = [p for cluster in clusters for pts in cluster[m_star:] for p in pts]

    inserts = outliers + [p for cluster in clusters for pts in cluster for p in pts]
    lo = min(min(p) for p in inserts + probes)
    hi = max(max(p) for p in inserts + probes)
    if hi - lo > delta_pow - 1:
        raise AssertionError("construction does not fit in [1, Delta] (Delta-fit bound)")
    shift = 1 - lo  # every coordinate is an int in [1, Delta] from here on
    ops = [(1, p) for p in inserts] + [(-1, p) for p in deletes] + [(1, p) for p in probes]
    ops = tuple((sign, tuple(c + shift for c in p)) for sign, p in ops)
    return DynamicLbStream(delta=delta_pow, d=d, ops=ops, geometry=geom,
                           g=g, clusters=n_clusters, group_size=len(groups[0]))
