"""Machine-checkable validators for mini-ball coverings and coresets.

The mini-ball check does not trust any assignment produced by a construction:
it decides existence of a valid partition independently, as a transportation
feasibility problem solved by max-flow. The coreset check enumerates candidate
center sets over a finite universe; for each center set the uncovered-weight
function of the radius is a step function, so checking at its feasibility
threshold is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .errors import CapacityError, InputError
from .metric import (
    CenterUniverse,
    Metric,
    REL_TOL,
    as_weighted,
    coords_array,
    input_points_universe,
    materialize_universe,
    weights_array,
)
from .offline import SUBSET_CAP, _center_set_costs, _nth_combination

WEIGHT_MISMATCH = "WeightMismatch"
COVERING_DISTANCE = "CoveringDistance"
RADIUS_BAND_LOW = "RadiusBandLow"
RADIUS_BAND_HIGH = "RadiusBandHigh"
EXPANDED_COVER_FAILS = "ExpandedCoverFails"
WEIGHT_RESTRICTION = "WeightRestriction"

_WEIGHT_CAP = 10**6  # largest total input weight check_mini_ball_covering accepts


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violated_condition: str = None
    witness: str = None

    def __post_init__(self):
        if self.passed != (self.violated_condition is None):
            raise InputError("passed must hold exactly when no condition is violated")


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

    d = metric.pairwise(coords_array(P), coords_array(Pstar))
    slack = REL_TOL * max(1.0, abs(bound))
    reachable = d <= bound + slack
    stranded = np.flatnonzero(~reachable.any(axis=1))
    if stranded.size:
        i = int(stranded[0])
        return ValidationReport(False, COVERING_DISTANCE,
                                f"point {P[i].point} has no representative within {bound}")

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
                  universe: CenterUniverse = None, cap: int = SUBSET_CAP) -> ValidationReport:
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
    if k < 1 or z < 0 or not (0 < epsilon < float("inf")):
        raise InputError("need k >= 1, z >= 0, 0 < epsilon < inf")
    if not P or not Pstar:
        raise InputError("both point sets must be nonempty")
    if len({len(p.point) for p in P + Pstar}) != 1:
        raise InputError("points have mixed dimensions")
    wP, wS = sum(p.weight for p in P), sum(q.weight for q in Pstar)
    if wS > wP:
        return ValidationReport(False, WEIGHT_RESTRICTION,
                                f"coreset weight {wS} exceeds input weight {wP}")
    universe = universe or input_points_universe()
    cands = materialize_universe(P, universe)
    kk = min(k, len(cands))
    rp, rs = _center_set_costs([P, Pstar], cands, kk, z, metric, cap)
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
        centers = tuple(cands[c] for c in _nth_combination(len(cands), kk, i))
        return ValidationReport(False, EXPANDED_COVER_FAILS,
                                f"centers {centers}: expanding by eps*opt(P)={epsilon * opt_p} "
                                f"leaves more than z={z} weight of P uncovered")
    return ValidationReport(True)
