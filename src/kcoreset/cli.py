"""Command-line surface.

Subcommands: offline, stream, dynamic, mpc, gen, validate. Data files go to
paths, a stats JSON record goes to stdout. Exit codes: 0 success,
2 validation failure, 3 input error, 4 capacity error, 5 sketch failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import CapacityError, InputError, SketchFailureError
from .metric import L2, LINF, Metric, total_weight
from .offline import Instance, mbc_construction, mbc_size_bound
from .streaming import InsertionStream
from .dynamic import DynamicCoresetState
from .mpc import (
    MpcConfig, adversarial, random_dist, round_robin,
    run_one_round_randomized, run_r_round, run_two_round,
)
from .lowerbounds import gen_dynamic_lb, gen_insertion_lb, gen_one_dim_lb
from .validate import check_coreset
from .metric import input_points_universe, midpoint_grid_universe
from . import pointio

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INPUT = 3
EXIT_CAPACITY = 4
EXIT_SKETCH = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code collides with ours
        raise InputError(message)


def _metric(name: str) -> Metric:
    if name == "l2":
        return Metric(L2)
    if name == "linf":
        return Metric(LINF)
    raise InputError(f"unknown metric {name!r}")


def _universe(name: str):
    if name == "input-points":
        return input_points_universe()
    if name == "midpoint-grid":
        return midpoint_grid_universe()
    raise InputError(f"unknown universe {name!r}")


def _emit(stats: dict) -> None:
    print(json.dumps(stats, sort_keys=True))


def _oracle_fields(points, coreset, args, metric) -> dict:
    """Optional oracle-vs-coreset radii for the stats record."""
    if args.oracle == "none":
        return {}
    universe = _universe(args.oracle)
    from .offline import brute_force_opt
    opt_in = brute_force_opt(Instance(tuple(points), args.k, args.z, 1.0, metric), universe)
    opt_core = brute_force_opt(Instance(tuple(coreset), args.k, args.z, 1.0, metric), universe)
    return {"oracle_opt": opt_in.radius, "coreset_opt": opt_core.radius}


def cmd_offline(args) -> int:
    t0 = time.perf_counter()
    points = pointio.read_points(args.points)
    metric = _metric(args.metric)
    inst = Instance(tuple(points), args.k, args.z, args.eps, metric)
    cov = mbc_construction(inst)
    pointio.write_points(args.out, cov.representatives)
    d = len(points[0].point)
    stats = {
        "algorithm": "offline-mbc",
        "k": args.k, "z": args.z, "epsilon": args.eps, "metric": args.metric,
        "points": len(points), "total_weight": total_weight(points),
        "coreset_size": len(cov.representatives),
        "size_bound": mbc_size_bound(args.k, args.z, args.eps, d),
        "greedy_radius": cov.greedy_radius,
        "mini_ball_radius": cov.ball_radius,
        "out": args.out,
    }
    stats.update(_oracle_fields(points, cov.representatives, args, metric))
    stats["wall_time_s"] = time.perf_counter() - t0
    _emit(stats)
    return EXIT_OK


def cmd_stream(args) -> int:
    t0 = time.perf_counter()
    points = pointio.read_points(args.points)
    metric = _metric(args.metric)
    state = InsertionStream(args.k, args.z, args.eps, args.d, metric)
    for wp in points:
        for _ in range(wp.weight):  # a weighted line stands for repeated arrivals
            state.arrival(wp.point)
    pointio.write_points(args.out, state.report())
    stats = {
        "algorithm": "insertion-streaming",
        "k": args.k, "z": args.z, "epsilon": args.eps, "d": args.d,
        "arrivals": state.arrivals,
        "final_r": state.r,
        "coreset_size": len(state.pstar),
        "threshold": state.threshold,
        "out": args.out,
    }
    stats.update(_oracle_fields(points, state.report(), args, metric))
    stats["wall_time_s"] = time.perf_counter() - t0
    _emit(stats)
    return EXIT_OK


def cmd_dynamic(args) -> int:
    t0 = time.perf_counter()
    delta, d, ops = pointio.read_update_stream(args.updates)
    state = DynamicCoresetState(
        delta, d, args.k, args.z, args.eps,
        delta_fail=args.delta_fail, seed=args.seed,
        with_sketches=not args.exact_shadow, with_shadow=args.exact_shadow,
    )
    state.apply(ops)
    report = state.report(exact=args.exact_shadow)
    pointio.write_points(args.out, report.points)
    _emit({
        "algorithm": "dynamic-streaming",
        "k": args.k, "z": args.z, "epsilon": args.eps,
        "delta": state.grid.delta, "d": d,
        "ops": state.ops,
        "live_count": state.live_count,
        "level": report.level,
        "coreset_size": len(report.points),
        "sketch_bytes": state.sketch_bytes(),
        "exact_shadow": bool(args.exact_shadow),
        "seed": args.seed,
        "out": args.out,
        "wall_time_s": time.perf_counter() - t0,
    })
    return EXIT_OK


def _parse_dist(spec: str):
    if spec == "roundrobin":
        return round_robin()
    kind, _, arg = spec.partition(":")
    try:
        if kind == "random" and arg:
            return random_dist(int(arg))
        if kind == "adversarial" and arg:
            with open(arg, "r", encoding="utf-8") as fh:
                return adversarial(fh.read().split())
    except ValueError as exc:  # a token that is not an integer, or a file that is not UTF-8
        raise InputError(f"distribution {spec!r}: {exc}") from None
    raise InputError(f"unknown distribution {spec!r}")


def cmd_mpc(args) -> int:
    t0 = time.perf_counter()
    points = pointio.read_points(args.points)
    metric = _metric(args.metric)
    cfg = MpcConfig(args.machines, _parse_dist(args.dist))
    if args.algo == "two-round":
        run = run_two_round(points, args.k, args.z, args.eps, cfg, metric)
    elif args.algo == "one-round":
        run = run_one_round_randomized(points, args.k, args.z, args.eps, cfg, metric)
    elif args.algo == "r-round":
        run = run_r_round(points, args.k, args.z, args.eps, args.rounds, cfg, metric)
    else:
        raise InputError(f"unknown algorithm {args.algo!r}")
    pointio.write_points(args.out, run.final)
    stats = {
        "algorithm": f"mpc-{run.algorithm}",
        "k": args.k, "z": args.z, "epsilon": args.eps,
        "machines": args.machines,
        "rounds": run.rounds_used,
        "per_machine_peak_words": list(run.per_machine_peak_words),
        "coordinator_peak_words": run.coordinator_words,
        "messages_per_round": list(run.messages_per_round),
        "coreset_size": len(run.final),
        "out": args.out,
        "wall_time_s": time.perf_counter() - t0,
    }
    if run.r_hat is not None:
        stats["r_hat"] = run.r_hat
    if run.z_prime is not None:
        stats["z_prime"] = run.z_prime
    if run.seed is not None:
        stats["seed"] = run.seed
    _emit(stats)
    return EXIT_OK


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    if args.family == "one-dim-lb":
        stream = gen_one_dim_lb(args.k, args.z, include_extra=args.extra)
        pointio.write_points(args.out, stream)
        count = len(stream)
    elif args.family == "insertion-lb":
        probe = tuple(args.probe) if args.probe else None
        stream = gen_insertion_lb(args.k, args.z, args.eps, args.d, probe=probe)
        pointio.write_points(args.out, stream)
        count = len(stream)
    elif args.family == "dynamic-lb":
        if args.delta is None:
            raise InputError("--delta is required for dynamic-lb")
        scenario = tuple(args.scenario) if args.scenario else None
        stream = gen_dynamic_lb(args.k, args.z, args.eps, args.d, args.delta,
                                scenario=scenario)
        pointio.write_update_stream(args.out, stream.delta, stream.d, stream.ops)
        count = len(stream.ops)
    else:
        raise InputError(f"unknown family {args.family!r}")
    _emit({
        "algorithm": "gen",
        "family": args.family,
        "count": count,
        "out": args.out,
        "wall_time_s": time.perf_counter() - t0,
    })
    return EXIT_OK


def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    points = pointio.read_points(args.points)
    coreset = pointio.read_points(args.coreset)
    metric = _metric(args.metric)
    report = check_coreset(points, coreset, k=args.k, z=args.z, epsilon=args.eps,
                           metric=metric, universe=_universe(args.universe))
    _emit({
        "algorithm": "validate",
        "passed": report.passed,
        "violated_condition": report.violated_condition,
        "witness": report.witness,
        "wall_time_s": time.perf_counter() - t0,
    })
    return EXIT_OK if report.passed else EXIT_VALIDATION


def build_parser() -> _Parser:
    parser = _Parser(prog="kcoreset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, d_flag=True):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--z", type=int, required=True)
        p.add_argument("--eps", type=float, required=True)
        if d_flag:
            p.add_argument("--d", type=int, required=True)

    oracle_choices = ["none", "input-points", "midpoint-grid"]

    p = sub.add_parser("offline", help="mini-ball covering of a point file")
    p.add_argument("points")
    common(p, d_flag=False)
    p.add_argument("--metric", default="linf", choices=["l2", "linf"])
    p.add_argument("--oracle", default="none", choices=oracle_choices,
                   help="also report brute-force optima of input and coreset")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_offline)

    p = sub.add_parser("stream", help="insertion-only streaming coreset")
    p.add_argument("points")
    common(p)
    p.add_argument("--metric", default="linf", choices=["l2", "linf"])
    p.add_argument("--oracle", default="none", choices=oracle_choices,
                   help="also report brute-force optima of input and coreset")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("dynamic", help="dynamic streaming coreset over [Delta]^d")
    p.add_argument("updates")
    common(p, d_flag=False)
    p.add_argument("--delta-fail", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact-shadow", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_dynamic)

    p = sub.add_parser("mpc", help="simulate an MPC coreset pipeline")
    p.add_argument("points")
    common(p, d_flag=False)
    p.add_argument("--algo", required=True, choices=["two-round", "one-round", "r-round"])
    p.add_argument("--machines", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--dist", default="roundrobin",
                   help="roundrobin | random:<seed> | adversarial:<file>")
    p.add_argument("--metric", default="linf", choices=["l2", "linf"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_mpc)

    p = sub.add_parser("gen", help="write an adversarial instance/stream file")
    p.add_argument("--family", required=True,
                   choices=["insertion-lb", "one-dim-lb", "dynamic-lb"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.125)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--delta", type=int)
    p.add_argument("--probe", type=int, nargs=2, metavar=("CLUSTER", "POINT"))
    p.add_argument("--scenario", type=int, nargs=3, metavar=("CLUSTER", "M", "POINT"))
    p.add_argument("--extra", action="store_true",
                   help="one-dim-lb: append the (k+z+1)-th arrival")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("validate", help="check a coreset file against a point file")
    p.add_argument("points")
    p.add_argument("coreset")
    common(p, d_flag=False)
    p.add_argument("--metric", default="linf", choices=["l2", "linf"])
    p.add_argument("--universe", default="midpoint-grid",
                   choices=["input-points", "midpoint-grid"])
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, UnicodeDecodeError) as exc:  # a file that cannot be read as text
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SketchFailureError as exc:
        print(f"sketch failure: {exc}", file=sys.stderr)
        return EXIT_SKETCH


if __name__ == "__main__":
    sys.exit(main())
