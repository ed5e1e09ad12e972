"""Coresets for k-center clustering with outliers.

Offline mini-ball coverings, a deterministic MPC round simulator hosting the
two-round, one-round and R-round pipelines, an insertion-only streaming
maintainer, a fully dynamic streaming maintainer over [Delta]^d built on
turnstile sketches, plus validators and adversarial instance generators.
"""

from .errors import CapacityError, DegenerateSetError, InputError, SketchFailureError
from .metric import (
    Ball, CenterUniverse, L2, LINF, EXPLICIT, Metric, WeightedPoint,
    explicit_universe, input_points_universe, materialize_universe,
    midpoint_grid_universe, min_pairwise_distance,
)
from .offline import (
    GreedyResult, Instance, MiniBallCovering, greedy, mbc_construction, mbc_size_bound,
    update_coreset,
)
from .validate import (
    Solution, ValidationReport, brute_force_opt, check_coreset, check_mini_ball_covering,
    evaluate_cost,
)
from .streaming import InsertionStream, size_threshold
from .sketches import F0Sketch, SparseRecoverySketch
from .dynamic import DynReport, DynamicCoresetState, GridConfig
from .mpc import (
    Distribution, MpcConfig, MpcRun, adversarial, compute_r_hat, distribute,
    outlier_vector, random_dist, round_robin, run_one_round_randomized,
    run_r_round, run_two_round,
)
from .lowerbounds import (
    DynamicLbStream, LbGeometry, gen_dynamic_lb, gen_insertion_lb,
    gen_one_dim_lb, lb_geometry, probe_cover_ok,
)

__version__ = "0.1.0"
