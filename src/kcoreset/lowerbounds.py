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
from .metric import Metric, L2

_INT_TOL = 1e-9


@dataclass(frozen=True)
class LbGeometry:
    """The lambda/h/r geometry underlying the cluster constructions.

    Requires eps <= 1/(8d) and integral 1/(4*d*eps); construction asserts
    r < (1 - eps) * (r + h) / 2, the inequality the hardness argument needs.
    """

    epsilon: float
    d: int
    lam: int = field(init=False)
    h: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise InputError("d must be >= 1")
        if not (0 < self.epsilon <= 1.0 / (8 * self.d)):
            raise InputError(f"epsilon must be in (0, 1/(8d)] = (0, {1.0 / (8 * self.d)}]")
        raw = 1.0 / (4 * self.d * self.epsilon)
        lam = round(raw)
        if abs(raw - lam) > _INT_TOL * max(1.0, raw):
            raise InputError(f"1/(4*d*eps) = {raw} is not an integer; pick eps = 1/(4*d*m)")
        h = self.d * (lam + 2) / 2.0
        r = math.sqrt(h * h - 2 * h + self.d)
        object.__setattr__(self, "lam", int(lam))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", r)
        if not r < (1 - self.epsilon) * (r + h) / 2.0:
            raise AssertionError("geometry inequality r < (1-eps)(r+h)/2 failed")


def lb_geometry(epsilon: float, d: int) -> LbGeometry:
    return LbGeometry(epsilon=epsilon, d=d)


def _cluster_grid(lam: int, d: int) -> list[tuple]:
    return [tuple(float(c) for c in x) for x in itertools.product(range(lam + 1), repeat=d)]


def gen_insertion_lb(k: int, z: int, epsilon: float, d: int, probe=None) -> list[tuple]:
    """Insertion stream: z outliers, then k-2d+1 grid clusters of side lambda,
    then (optionally) the 2d probe points around a chosen cluster point, each
    sent twice to realize weight 2.

    ``probe`` is (cluster_index, point_index), both 0-based; the point index
    addresses the cluster's lexicographically sorted grid.
    """
    geom = lb_geometry(epsilon, d)
    if k < 2 * d:
        raise InputError("the construction needs k >= 2d")
    lam, h, r = geom.lam, geom.h, geom.r
    stream = []
    for i in range(1, z + 1):
        stream.append((-4.0 * (h + r) * i,) + (0.0,) * (d - 1))
    base = sorted(_cluster_grid(lam, d))
    shift = lam + 4.0 * (h + r)
    clusters = []
    for i in range(k - 2 * d + 1):
        cluster = [(p[0] + i * shift,) + p[1:] for p in base]
        clusters.append(cluster)
        stream.extend(cluster)
    if probe is not None:
        ci, pi = probe
        p_star = clusters[ci][pi]
        for j in range(d):
            plus = list(p_star)
            plus[j] += h + r
            stream.extend([tuple(plus)] * 2)
        for j in range(d):
            minus = list(p_star)
            minus[j] -= h + r
            stream.extend([tuple(minus)] * 2)
    return stream


def probe_cover_ok(geom: LbGeometry, k: int, probe, metric: Metric = None) -> bool:
    """Direct distance check: the 2d balls of radius r centered at
    p* +/- h*e_j cover the probe points and the probed cluster minus p*."""
    metric = metric or Metric(L2)
    d = geom.d
    stream = gen_insertion_lb(k, 0, geom.epsilon, d, probe=probe)
    base = sorted(_cluster_grid(geom.lam, d))
    ci, pi = probe
    shift = geom.lam + 4.0 * (geom.h + geom.r)
    cluster = [(p[0] + ci * shift,) + p[1:] for p in base]
    p_star = cluster[pi]
    centers = []
    for j in range(d):
        for sgn in (1.0, -1.0):
            c = list(p_star)
            c[j] += sgn * geom.h
            centers.append(tuple(c))
    targets = [q for q in cluster if q != p_star] + stream[-4 * d:]
    tol = 1e-9 * max(1.0, geom.r)
    dist = metric.pairwise(np.asarray(targets, dtype=float), np.asarray(centers))
    return bool((dist.min(axis=1) <= geom.r + tol).all())


def gen_one_dim_lb(k: int, z: int, include_extra: bool = False) -> list[tuple]:
    """Points 1..k+z on the line; the optional extra arrival k+z+1 forces
    the optimum from 0 to 1/2."""
    if k < 1 or z < 0:
        raise InputError("need k >= 1 and z >= 0")
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
    geom = lb_geometry(epsilon, d)
    if k < 2 * d:
        raise InputError("the construction needs k >= 2d")
    lam, h, r = geom.lam, geom.h, geom.r
    if lam % 2 != 0:
        raise InputError("lambda/2 must be an integer; pick eps = 1/(8*d*m)")
    delta_pow = 1 << max(0, (delta - 1).bit_length())
    if delta_pow < ((2 * k + z) * (1.0 / (4 * epsilon) + d)) ** 2:
        raise InputError("Delta must be at least ((2k+z)(1/(4eps)+d))^2")
    big_l = delta_pow.bit_length() - 1
    g = big_l // 2 - 2
    if g < 1:
        raise InputError("Delta too small for at least one group per cluster")

    spacing = math.ceil((1 << (g + 2)) * (h + r))
    half = lam // 2
    group_points = {}
    for m in range(1, g + 1):
        pts = [
            tuple(c * (1 << m) for c in x)
            for x in itertools.product(range(lam + 1), repeat=d)
            if not all(c <= half for c in x)
        ]
        group_points[m] = sorted(pts)
    group_size = (lam + 1) ** d - (half + 1) ** d
    n_clusters = k - 2 * d + 1
    extent = lam * (1 << g)

    outliers = [(-spacing * i,) + (0,) * (d - 1) for i in range(1, z + 1)]
    clusters = []
    for i in range(n_clusters):
        off = i * (extent + spacing)
        clusters.append({m: [(p[0] + off,) + p[1:] for p in pts]
                         for m, pts in group_points.items()})

    probes = []
    deletes = []
    if scenario is not None:
        ci, m_star, pi = scenario
        if not (0 <= ci < n_clusters) or not (1 <= m_star <= g):
            raise InputError("scenario indices out of range")
        p_star = clusters[ci][m_star][pi]
        offset = math.ceil((1 << m_star) * (h + r))
        for sgn in (1, -1):
            for j in range(d):
                q = list(p_star)
                q[j] += sgn * offset
                probes.extend([tuple(q)] * 2)
        for cluster in clusters:
            for m in range(m_star + 1, g + 1):
                deletes.extend(cluster[m])

    everything = outliers + [p for c in clusters for m in c for p in c[m]] + probes
    lo = min(min(p) for p in everything)
    hi = max(max(p) for p in everything)
    if hi - lo > delta_pow - 1:
        raise AssertionError("construction does not fit in [1, Delta] (Delta-fit bound)")
    shift = 1 - lo

    def tr(p):
        return tuple(int(c + shift) for c in p)

    ops = [(1, tr(p)) for p in outliers]
    for cluster in clusters:
        for m in range(1, g + 1):
            ops.extend((1, tr(p)) for p in cluster[m])
    ops.extend((-1, tr(p)) for p in deletes)
    ops.extend((1, tr(p)) for p in probes)
    for _, p in ops:
        if not all(1 <= c <= delta_pow for c in p):
            raise AssertionError(f"emitted coordinate {p} outside [1, {delta_pow}]")
    return DynamicLbStream(delta=delta_pow, d=d, ops=tuple(ops), geometry=geom,
                           g=g, clusters=n_clusters, group_size=group_size)
