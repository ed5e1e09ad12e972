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

from . import pointio
from .dynamic import DynamicCoresetState
from .errors import CapacityError, InputError, SketchFailureError
from .lowerbounds import DynamicLbStream, gen_dynamic_lb, gen_insertion_lb, gen_one_dim_lb
from .metric import L2, LINF, Metric, input_points_universe, midpoint_grid_universe, total_weight
from .mpc import (
    MpcConfig, adversarial, random_dist, round_robin,
    run_one_round_randomized, run_r_round, run_two_round,
)
from .offline import Instance, mbc_construction, mbc_size_bound
from .streaming import InsertionStream
from .validate import brute_force_opt, check_coreset

EXIT_OK = 0
EXIT_VALIDATION = 2

# exit code per exception class, the first match deciding; OSError and
# UnicodeDecodeError are files that cannot be read as text
EXIT_CODES = {
    InputError: 3,
    OSError: 3,
    UnicodeDecodeError: 3,
    CapacityError: 4,
    SketchFailureError: 5,
}
_ERROR_LABELS = {3: "input error", 4: "capacity error", 5: "sketch failure"}

METRICS = {"l2": Metric(L2), "linf": Metric(LINF)}
UNIVERSES = {"input-points": input_points_universe(), "midpoint-grid": midpoint_grid_universe()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code collides with ours
        raise InputError(message)


def _oracle_fields(points, coreset, args) -> dict:
    """Optional oracle-vs-coreset radii for the stats record."""
    if args.oracle == "none":
        return {}
    metric, universe = METRICS[args.metric], UNIVERSES[args.oracle]
    opt_in = brute_force_opt(Instance(tuple(points), args.k, args.z, 1.0, metric), universe)
    opt_core = brute_force_opt(Instance(tuple(coreset), args.k, args.z, 1.0, metric), universe)
    return {"oracle_opt": opt_in.radius, "coreset_opt": opt_core.radius}


def cmd_offline(args):
    points = pointio.read_points(args.points)
    inst = Instance(tuple(points), args.k, args.z, args.eps, METRICS[args.metric])
    size_bound = mbc_size_bound(args.k, args.z, args.eps, len(points[0].point))
    cov = mbc_construction(inst)
    pointio.write_points(args.out, cov.representatives)
    stats = {
        "algorithm": "offline-mbc",
        "k": args.k, "z": args.z, "epsilon": args.eps, "metric": args.metric,
        "points": len(points), "total_weight": total_weight(points),
        "coreset_size": len(cov.representatives),
        "size_bound": size_bound,
        "greedy_radius": cov.greedy_radius,
        "mini_ball_radius": cov.ball_radius,
        "out": args.out,
    }
    stats.update(_oracle_fields(points, cov.representatives, args))
    return stats, EXIT_OK


def cmd_stream(args):
    points = pointio.read_points(args.points)
    state = InsertionStream(args.k, args.z, args.eps, args.d, METRICS[args.metric])
    for wp in points:
        state.arrival(wp.point, wp.weight)  # a line of weight w is one arrival carrying w
    coreset = state.report()
    pointio.write_points(args.out, coreset)
    stats = {
        "algorithm": "insertion-streaming",
        "k": args.k, "z": args.z, "epsilon": args.eps, "d": args.d,
        "arrivals": state.arrivals,
        "final_r": state.r,
        "coreset_size": len(coreset),
        "threshold": state.threshold,
        "out": args.out,
    }
    stats.update(_oracle_fields(points, coreset, args))
    return stats, EXIT_OK


def cmd_dynamic(args):
    delta, d, ops = pointio.read_update_stream(args.updates)
    state = DynamicCoresetState(
        delta, d, args.k, args.z, args.eps,
        delta_fail=args.delta_fail, seed=args.seed,
        with_sketches=not args.exact_shadow, with_shadow=args.exact_shadow,
    )
    state.apply(ops)
    report = state.report(exact=args.exact_shadow)
    pointio.write_points(args.out, report.points)
    return {
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
    }, EXIT_OK


def _parse_dist(spec: str):
    if spec == "roundrobin":
        return round_robin()
    kind, _, arg = spec.partition(":")
    try:
        if kind == "random" and arg:
            return random_dist(int(arg))
        if kind == "adversarial" and arg:
            with open(arg, "r", encoding="utf-8") as fh:
                return adversarial([int(token) for token in fh.read().split()])
    except ValueError as exc:  # a token that is not an integer, or a file that is not UTF-8
        raise InputError(f"distribution {spec!r}: {exc}") from None
    raise InputError(f"unknown distribution {spec!r}")


MPC_PIPELINES = {
    "two-round": lambda pts, a, cfg, m: run_two_round(pts, a.k, a.z, a.eps, cfg, m),
    "one-round": lambda pts, a, cfg, m: run_one_round_randomized(pts, a.k, a.z, a.eps, cfg, m),
    "r-round": lambda pts, a, cfg, m: run_r_round(pts, a.k, a.z, a.eps, a.rounds, cfg, m),
}


def cmd_mpc(args):
    points = pointio.read_points(args.points)
    cfg = MpcConfig(args.machines, _parse_dist(args.dist))
    run = MPC_PIPELINES[args.algo](points, args, cfg, METRICS[args.metric])
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
    }
    for key in ("r_hat", "z_prime", "seed"):  # set only by the pipelines that use them
        if getattr(run, key) is not None:
            stats[key] = getattr(run, key)
    return stats, EXIT_OK


def _gen_dynamic_lb(a):
    if a.delta is None:
        raise InputError("--delta is required for dynamic-lb")
    return gen_dynamic_lb(a.k, a.z, a.eps, a.d, a.delta,
                          scenario=tuple(a.scenario) if a.scenario else None)


# each family returns a point list, except dynamic-lb: an update stream
GENERATORS = {
    "insertion-lb": lambda a: gen_insertion_lb(a.k, a.z, a.eps, a.d,
                                               probe=tuple(a.probe) if a.probe else None),
    "one-dim-lb": lambda a: gen_one_dim_lb(a.k, a.z, include_extra=a.extra),
    "dynamic-lb": _gen_dynamic_lb,
}


def cmd_gen(args):
    stream = GENERATORS[args.family](args)
    if isinstance(stream, DynamicLbStream):
        pointio.write_update_stream(args.out, stream.delta, stream.d, stream.ops)
        count = len(stream.ops)
    else:
        pointio.write_points(args.out, stream)
        count = len(stream)
    return {"algorithm": "gen", "family": args.family, "count": count, "out": args.out}, EXIT_OK


def cmd_validate(args):
    points = pointio.read_points(args.points)
    coreset = pointio.read_points(args.coreset)
    report = check_coreset(points, coreset, k=args.k, z=args.z, epsilon=args.eps,
                           metric=METRICS[args.metric], universe=UNIVERSES[args.universe])
    return {
        "algorithm": "validate",
        "passed": report.passed,
        "violated_condition": report.violated_condition,
        "witness": report.witness,
    }, EXIT_OK if report.passed else EXIT_VALIDATION


# Flags that several subcommands share, declared once.
_SHARED = {
    "--k": dict(type=int, required=True),
    "--z": dict(type=int, required=True),
    "--eps": dict(type=float, required=True),
    "--metric": dict(default="linf", choices=METRICS),
    "--oracle": dict(default="none", choices=["none", *UNIVERSES],
                     help="also report brute-force optima of input and coreset"),
    "--out": dict(required=True),
}

# name -> (function, help, arguments in order); an argument is a positional
# name, a flag of _SHARED, or a (flag, keyword arguments) pair of its own
COMMANDS = {
    "offline": (cmd_offline, "mini-ball covering of a point file", [
        "points", "--k", "--z", "--eps", "--metric", "--oracle", "--out"]),
    "stream": (cmd_stream, "insertion-only streaming coreset", [
        "points", "--k", "--z", "--eps", ("--d", dict(type=int, required=True)),
        "--metric", "--oracle", "--out"]),
    "dynamic": (cmd_dynamic, "dynamic streaming coreset over [Delta]^d", [
        "updates", "--k", "--z", "--eps",
        ("--delta-fail", dict(type=float, default=0.1)),
        ("--seed", dict(type=int, default=0)),
        ("--exact-shadow", dict(action="store_true")),
        "--out"]),
    "mpc": (cmd_mpc, "simulate an MPC coreset pipeline", [
        "points", "--k", "--z", "--eps",
        ("--algo", dict(required=True, choices=MPC_PIPELINES)),
        ("--machines", dict(type=int, required=True)),
        ("--rounds", dict(type=int, default=1)),
        ("--dist", dict(default="roundrobin",
                        help="roundrobin | random:<seed> | adversarial:<file>")),
        "--metric", "--out"]),
    "gen": (cmd_gen, "write an adversarial instance/stream file", [
        ("--family", dict(required=True, choices=GENERATORS)),
        "--k", "--z",
        ("--eps", dict(type=float, default=0.125)),
        ("--d", dict(type=int, default=1)),
        ("--delta", dict(type=int)),
        ("--probe", dict(type=int, nargs=2, metavar=("CLUSTER", "POINT"))),
        ("--scenario", dict(type=int, nargs=3, metavar=("CLUSTER", "M", "POINT"))),
        ("--extra", dict(action="store_true",
                         help="one-dim-lb: append the (k+z+1)-th arrival")),
        "--out"]),
    "validate": (cmd_validate, "check a coreset file against a point file (cost linear "
                 "in z: slower than a selection-based check for z >= 8)", [
        "points", "coreset", "--k", "--z", "--eps", "--metric",
        ("--universe", dict(default="midpoint-grid", choices=UNIVERSES))]),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="kcoreset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in arguments:
            flag, kwargs = arg if isinstance(arg, tuple) else (arg, _SHARED.get(arg, {}))
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    """Runs one subcommand: times it, prints its stats with ``wall_time_s``,
    and maps an exception to its ``EXIT_CODES`` code and a line on stderr."""
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        stats, code = args.fn(args)
    except tuple(EXIT_CODES) as exc:
        code = next(c for cls, c in EXIT_CODES.items() if isinstance(exc, cls))
        print(f"{_ERROR_LABELS[code]}: {exc}", file=sys.stderr)
        return code
    stats["wall_time_s"] = time.perf_counter() - t0
    print(json.dumps(stats, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
