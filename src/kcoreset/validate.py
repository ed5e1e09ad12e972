"""The exhaustive oracle and the machine-checkable validators.

The mini-ball check does not trust any assignment produced by a construction:
it decides existence of a valid partition independently, as a transportation
feasibility problem solved by max-flow. ``brute_force_opt`` and
``check_coreset`` share one enumeration of the center sets of a finite
universe, ``_center_set_costs``, which refuses a distance past the float
range; for each center set the uncovered-weight function of the radius is a
step function, so checking at its feasibility threshold is exact.

The enumeration costs the center sets of m candidates in lexicographic
order, one point set at a time. T_j, the table of minima at level j, holds the
entrywise minimum of the distance rows of every j-combination of range(m) in
lexicographic order; T_1 is the distance matrix, and T_j is built from T_{j-1}
by one broadcast minimum per first entry. For c_0 < ... < c_{k-1}, the sets
that share the prefix c_0 .. c_{k-j-1} are the tail of T_j from rank
C(m, j) - C(m-1-c_{k-j-1}, j), so one broadcast minimum of the prefix's row
with that tail writes the whole run into a block buffer, which is peeled when
full. j is the deepest level up to k - 1 whose tables fit
``_TABLE_DISTANCES`` and have no more rows than there are sets. Only a
witness is decoded from its rank (``_lex_combination``): the rank of
c_0 < ... < c_{k-1} is C(m, k) - 1 - sum_j C(m-1-c_j, k-j), read back
greedily, one position at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .metric import (
    CenterUniverse,
    Metric,
    REL_TOL,
    _check_counts,
    as_weighted,
    coords_array,
    explicit_universe,
    input_points_universe,
    materialize_universe,
    weights_array,
)
from .offline import Instance

WEIGHT_MISMATCH = "WeightMismatch"
COVERING_DISTANCE = "CoveringDistance"
RADIUS_BAND_LOW = "RadiusBandLow"
RADIUS_BAND_HIGH = "RadiusBandHigh"
EXPANDED_COVER_FAILS = "ExpandedCoverFails"
WEIGHT_RESTRICTION = "WeightRestriction"

SUBSET_CAP = 2_000_000  # most candidate center sets one enumeration takes
_WEIGHT_CAP = 10**6  # largest total input weight check_mini_ball_covering accepts
_BLOCK_DISTANCES = 1 << 16  # distances per point set in one block of _center_set_costs
_TABLE_DISTANCES = 1 << 20  # most distances per point set in its tables of minima


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violated_condition: str = None
    witness: str = None

    def __post_init__(self):
        if self.passed != (self.violated_condition is None):
            raise InputError("passed must hold exactly when no condition is violated")


@dataclass(frozen=True)
class Solution:
    radius: float
    centers: tuple
    outlier_weight: int


def _cost_batch(nearest: np.ndarray, weights: np.ndarray, z: int) -> np.ndarray:
    """Per row of a (rows, n) nearest-distance matrix: the smallest r with
    total weight of points at distance > r at most z (z >= 0). The answer is
    0 when the total weight is at most z.

    The rows are peeled all at once, one entry per round: each round takes
    every row's largest remaining entry (``argmax``), adds its weight to the
    row's dropped weight, and then overwrites it with -inf. A row's answer is
    the entry whose weight first takes its dropped weight past z. Every
    weight is an integer >= 1, so each row has crossed after at most
    min(z+1, n) rounds, and the loop stops once every row has.

    Ties cannot change the answer. Among equal entries ``argmax`` takes the
    first, but all of them weigh in before any smaller entry, so the value at
    which the dropped weight crosses z is the same in any tie order. The
    answer is always one of the input distances, so its bits do not depend on
    the order either.

    ``nearest`` is overwritten when it is C-contiguous: pass a copy if it is
    read again. A round is one argmax over the rows, and the entries it takes
    are read and overwritten by their flat index, so the cost is O((z+1) n)
    per row.
    """
    nearest = np.ascontiguousarray(nearest)  # so ``flat`` is a view of it
    rows, n = nearest.shape
    cost = np.zeros(rows)
    if int(weights.sum()) <= z:
        return cost
    flat = nearest.reshape(-1)
    starts = np.arange(0, rows * n, n)
    dropped = np.zeros(rows, dtype=np.int64)
    for _ in range(min(z + 1, n)):
        open_ = dropped <= z  # rows that have not crossed yet
        if not open_.any():
            break
        col = nearest.argmax(axis=1)
        at = starts + col
        np.copyto(cost, flat[at], where=open_)
        dropped += weights[col]
        flat[at] = -np.inf
    return cost


def _finite_distances(metric: Metric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``metric.pairwise(a, b)``, refused with InputError when an entry is
    past the float range: a cost of inf, or inf minus inf, decides nothing."""
    d = metric.pairwise(a, b)
    if not np.isfinite(d).all():
        raise InputError("a distance overflows the float range")
    return d


def _lex_combination(m: int, k: int, rank: int) -> tuple:
    """The k-combination of range(m) of lexicographic rank ``rank``.

    N = C(m, k) - 1 - rank is written greedily as sum_j C(x_j, k-j) with
    x_0 > x_1 > ...: x_j is the largest x with C(x, k-j) <= N, N loses
    C(x_j, k-j), and c_j = m - 1 - x_j. Each x_j is found by walking down
    from x_{j-1} - 1 (from m - 1 for j = 0), so the walk takes at most m + k
    steps in all."""
    left = math.comb(m, k) - 1 - rank
    combo, x = [], m
    for r in range(k, 0, -1):
        x -= 1
        while math.comb(x, r) > left:
            x -= 1
        left -= math.comb(x, r)
        combo.append(m - 1 - x)
    return tuple(combo)


def _tail(m: int, j: int, last: int) -> int:
    """The rank of the first j-combination of range(m) whose entries all
    exceed ``last``: those combinations are the last C(m-last-1, j) in
    lexicographic order."""
    return math.comb(m, j) - math.comb(m - last - 1, j)


def _table_level(m: int, k: int, n: int) -> int:
    """The level j of the table of minima that the enumeration of the
    k-subsets of m candidates reads over a point set of n points: the
    largest j <= max(1, k-1) whose tables T_2..T_j hold at most
    ``_TABLE_DISTANCES`` distances in all and no more rows each than there
    are k-subsets. T_1 is the distance matrix itself, so level 1 builds
    nothing. A table with more rows than the enumeration it serves saves no
    work: past k = m/2 the levels stop at m - k, and a single set (k = m)
    is costed from d itself."""
    level, held = 1, 0
    while level + 1 < k and math.comb(m, level + 1) <= math.comb(m, k):
        held += math.comb(m, level + 1) * n
        if held > _TABLE_DISTANCES:
            break
        level += 1
    return level


def _minima_table(d: np.ndarray, level: int) -> np.ndarray:
    """T_level over the (m, n) distance matrix d: row r is the entrywise
    minimum of the rows of d that the level-combination of rank r names.

    T_1 is d. The j-combinations that start at a are a followed by every
    (j-1)-combination of range(a+1, m), the tail of T_{j-1} from rank
    ``_tail(m, j-1, a)``, so one broadcast minimum of d[a] with that tail
    writes them all. Only T_{j-1} and T_j are held at once."""
    m = len(d)
    table = d
    for j in range(2, level + 1):
        prev, table = table, np.empty((math.comb(m, j), d.shape[1]))
        row = 0
        for a in range(m - j + 1):
            tail = prev[_tail(m, j - 1, a):]
            np.minimum(d[a], tail, out=table[row:row + len(tail)])
            row += len(tail)
    return table


def _prefix_minima(d: np.ndarray, length: int, level: int):
    """Every ``length``-combination of range(m - level), the prefixes of the
    k-combinations of range(m) whose last ``level`` entries T_level holds, in
    lexicographic order, as (the entrywise minimum of its rows of d, its last
    entry). Each prefix costs one minimum of its parent's row and one row of
    d. The empty prefix (length 0) is a row of inf with last entry -1."""
    m = len(d)

    def walk(row, first, left):
        if not left:
            yield row, first - 1
            return
        for c in range(first, m - level - left + 1):
            yield from walk(np.minimum(row, d[c]), c + 1, left - 1)

    yield from walk(np.full(d.shape[1], np.inf), 0, length)


def _enumerate_costs(d: np.ndarray, w: np.ndarray, k: int, z: int) -> np.ndarray:
    """The cost of every k-subset of the rows of the (m, n) distance matrix
    d, in lexicographic order. With j = ``_table_level(m, k, n)``, a prefix
    of k - j entries has for its run the tail of T_j after its last entry:
    one broadcast minimum writes it into a block buffer of max(1,
    ``_BLOCK_DISTANCES`` // n) rows, which ``_cost_batch`` peels each time
    it is full."""
    m, n = d.shape
    level = _table_level(m, k, n)
    per_block = max(1, _BLOCK_DISTANCES // n)
    table = _minima_table(d, level)
    out = np.empty(math.comb(m, k))
    block = np.empty((per_block, n))
    filled = done = 0
    for row, last in _prefix_minima(d, k - level, level):
        run = table[_tail(m, level, last):]
        while len(run):
            take = min(len(run), per_block - filled)
            np.minimum(row, run[:take], out=block[filled:filled + take])
            run = run[take:]
            filled += take
            if filled == per_block:
                out[done:done + filled] = _cost_batch(block, w, z)
                done, filled = done + filled, 0
    if filled:
        out[done:] = _cost_batch(block[:filled], w, z)
    return out


def _center_set_costs(point_sets, k: int, z: int, metric: Metric, universe: CenterUniverse):
    """The cost of every k-subset of the universe (input points by default,
    materialized over the first point set; k is capped at its size), one
    array per point set; and a function naming subset i as a tuple of
    centers. Entry i is the i-th k-combination of the candidates in
    lexicographic order, so np.argmin and np.argmax name the
    lexicographically first minimizer and maximizer. Raises CapacityError
    past ``SUBSET_CAP`` subsets.

    Each point set is costed on its own (``_enumerate_costs``), from its
    (m, n) distance matrix and one table of minima T_j, j =
    ``_table_level(m, k, n)``: the k-subsets that share their first k - j
    entries are a run, the prefix's minimum row against the tail of T_j
    after its last entry. The runs fill a block buffer of max(1,
    ``_BLOCK_DISTANCES`` // n) rows, which is peeled when full. The tables
    hold at most ``_TABLE_DISTANCES`` distances, so the memory is the
    distance matrix, the tables and the buffer of one point set. A subset's
    cost reads only its own row, and a minimum is exact in any order, so
    neither the block size nor the level changes a cost.
    ``_lex_combination`` decodes only the witness.
    """
    cands = materialize_universe(point_sets[0], universe or input_points_universe())
    k = min(k, len(cands))
    n_sets = math.comb(len(cands), k)
    if n_sets > SUBSET_CAP:
        raise CapacityError(f"{n_sets} candidate center sets exceed cap {SUBSET_CAP}")
    carr = np.asarray(cands, dtype=float).reshape(len(cands), -1)
    # candidates x points, so each candidate's distances are one contiguous
    # row; the bits equal the points x candidates matrix transposed, since
    # L2 and L-inf are symmetric in their arguments and an explicit matrix is
    # validated as symmetric
    costs = [_enumerate_costs(_finite_distances(metric, carr, coords_array(wps)),
                              weights_array(wps), k, z) for wps in point_sets]

    def centers(i: int) -> tuple:
        return tuple(cands[c] for c in _lex_combination(len(cands), k, i))

    return costs, centers


def evaluate_cost(points, centers, z: int, metric: Metric) -> float:
    """k-center-with-outliers cost of a fixed center set: the enumeration
    over the universe of its own centers, which has one center set."""
    universe = explicit_universe(centers)  # refuses an empty or non-finite set
    _check_counts(len(universe.points), z)
    wps = as_weighted(points)
    if not wps:
        return 0.0
    (cost,), _ = _center_set_costs([wps], len(universe.points), z, metric, universe)
    return float(cost[0])


def uncovered_weight(points, centers, radius: float, metric: Metric) -> int:
    """Total weight at nearest-center distance beyond ``radius`` (with tolerance)."""
    centers = explicit_universe(centers).points  # refuses an empty or non-finite set
    wps = as_weighted(points)
    if not wps:
        return 0
    carr = np.asarray(centers).reshape(len(centers), -1)
    nearest = _finite_distances(metric, coords_array(wps), carr).min(axis=1)
    slack = REL_TOL * np.maximum(1.0, np.maximum(np.abs(nearest), abs(radius)))
    return int(weights_array(wps)[nearest > radius + slack].sum())


def brute_force_opt(inst: Instance, universe: CenterUniverse = None) -> Solution:
    """Exact optimum over all k-subsets of the materialized universe.

    Deterministic: the witness is the lexicographically first minimizer in the
    canonical universe order.
    """
    (costs,), centers_of = _center_set_costs([inst.points], inst.k, inst.z, inst.metric, universe)
    i = int(np.argmin(costs))
    best = float(costs[i])
    centers = centers_of(i)
    out_w = uncovered_weight(inst.points, centers, best, inst.metric)
    return Solution(radius=best, centers=centers, outlier_weight=out_w)


def check_mini_ball_covering(P, Pstar, bound: float, metric: Metric) -> ValidationReport:
    """Does a partition of P into radius-``bound`` balls around Pstar exist?

    Supply w(p) at each input point, demand w(q) at each representative, edges
    where dist(p, q) <= bound; passes iff a saturating integral flow exists.
    The maximum flow is scipy's; when it falls short, the witness is the
    first input point whose supply it leaves unsent.
    """
    P = as_weighted(P)
    Pstar = as_weighted(Pstar)
    if bound < 0:
        raise InputError("bound must be nonnegative")
    if len({len(p.point) for p in P + Pstar}) > 1:
        raise InputError("points have mixed dimensions")
    locations = {wp.point for wp in P}
    for q in Pstar:
        if q.point not in locations:
            raise InputError(f"representative {q.point} is not an input location")
    wp_total = sum(p.weight for p in P)
    wq_total = sum(q.weight for q in Pstar)
    if wp_total > _WEIGHT_CAP:
        raise CapacityError(f"total weight {wp_total} exceeds validation cap {_WEIGHT_CAP}")
    if wp_total != wq_total:
        return ValidationReport(False, WEIGHT_MISMATCH,
                                f"total weight {wq_total} of representatives vs {wp_total} of input")
    if not P:
        return ValidationReport(True)

    d = metric.pairwise(coords_array(P), coords_array(Pstar))  # an inf entry is past every bound
    slack = REL_TOL * max(1.0, abs(bound))
    reachable = d <= bound + slack
    stranded = np.flatnonzero(~reachable.any(axis=1))
    if stranded.size:
        i = int(stranded[0])
        return ValidationReport(False, COVERING_DISTANCE,
                                f"point {P[i].point} has no representative within {bound}")

    # imported here, not at module level: no CLI command reaches this check,
    # and scipy doubles the package's import time and memory
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    # node 0 is the source, 1..n the points, n+1..n+m the representatives,
    # n+m+1 the sink
    n, m = reachable.shape
    wp, wq = weights_array(P), weights_array(Pstar)
    pi, qj = np.nonzero(reachable)
    tails = np.concatenate([np.zeros(n, dtype=np.intp), 1 + pi, 1 + n + np.arange(m)])
    heads = np.concatenate([1 + np.arange(n), 1 + n + qj, np.full(m, n + m + 1)])
    caps = np.concatenate([wp, wp[pi], wq]).astype(np.int32)
    graph = csr_matrix((caps, (tails, heads)), shape=(n + m + 2, n + m + 2))
    result = maximum_flow(graph, 0, n + m + 1)
    if result.flow_value == wp_total:
        return ValidationReport(True)
    sent = result.flow[0, 1:n + 1].toarray().ravel()
    i = int(np.flatnonzero(sent < wp)[0])
    return ValidationReport(False, COVERING_DISTANCE,
                            f"no saturating assignment: point {P[i].point} keeps "
                            f"{P[i].weight - int(sent[i])} unassigned weight")


def check_coreset(P, Pstar, k: int, z: int, epsilon: float, metric: Metric,
                  universe: CenterUniverse = None) -> ValidationReport:
    """Decide both coreset conditions over a finite center universe.

    Condition 1 compares the two optima computed over the same universe.
    Condition 2 quantifies over all k-subsets of the universe and all radii;
    per center set C it reduces to cost(P, C) <= cost(Pstar, C) + eps * opt(P)
    because the uncovered weight is a nonincreasing step function of the
    radius. The weight restriction w(Pstar) <= w(P) is checked first.
    ``epsilon`` here is the claimed quality and may exceed 1 (composed
    pipelines are validated at 3*eps or (1+eps)^R - 1).
    """
    P = as_weighted(P)
    Pstar = as_weighted(Pstar)
    _check_counts(k, z)
    if not (0 < epsilon < float("inf")):
        raise InputError("epsilon must be in (0, inf)")
    if not P or not Pstar:
        raise InputError("both point sets must be nonempty")
    if len({len(p.point) for p in P + Pstar}) != 1:
        raise InputError("points have mixed dimensions")
    wP, wS = sum(p.weight for p in P), sum(q.weight for q in Pstar)
    if wS > wP:
        return ValidationReport(False, WEIGHT_RESTRICTION,
                                f"coreset weight {wS} exceeds input weight {wP}")
    (rp, rs), centers_of = _center_set_costs([P, Pstar], k, z, metric, universe)
    opt_p, opt_s = float(rp.min()), float(rs.min())
    gaps = rp - rs
    i = int(np.argmax(gaps))
    max_gap = float(gaps[i])

    slack = REL_TOL * max(1.0, opt_p, opt_s)
    if opt_s < (1 - epsilon) * opt_p - slack:
        return ValidationReport(False, RADIUS_BAND_LOW,
                                f"opt(coreset)={opt_s} below (1-eps)*opt(P)={(1 - epsilon) * opt_p}")
    if opt_s > (1 + epsilon) * opt_p + slack:
        return ValidationReport(False, RADIUS_BAND_HIGH,
                                f"opt(coreset)={opt_s} above (1+eps)*opt(P)={(1 + epsilon) * opt_p}")
    if max_gap > epsilon * opt_p + slack:
        return ValidationReport(False, EXPANDED_COVER_FAILS,
                                f"centers {centers_of(i)}: expanding by eps*opt(P)={epsilon * opt_p} "
                                f"leaves more than z={z} weight of P uncovered")
    return ValidationReport(True)
