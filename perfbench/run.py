"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload offline-mpc --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout. It generates the workload's inputs from
the seed under ``.perfbench_work/``, runs them through the package in a fresh
worker process (``worker.py``), checks every output with the independent
checker (``check.py``, which never imports the package) and prints, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, taken
from a traced repetition of the same rounds. The line before it records the
environment: git SHA, interpreter and library versions, cores and thread
settings, plus the untraced per-phase medians.
"""

from __future__ import annotations

import os

# Pin the BLAS / OpenMP pools before numpy is imported, here and in the worker.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 170


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def stamp(root):
    return {"git_sha": git_sha(root), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# output checks, independent of the package
# ---------------------------------------------------------------------------

def distinct(outputs):
    seen = {}
    for out in outputs:
        seen.setdefault(json.dumps(out, sort_keys=True), out)
    return list(seen.values())


def check_offline(spec, result):
    p = spec["params"]
    coords = np.asarray(spec["coords"])
    n, k, z, eps = p["n"], p["k"], p["z"], p["eps"]
    U = check.cost(coords, np.ones(n, dtype=np.int64), spec["planted"], z)
    sets = [spec["planted"]] + [coords[f].tolist() for f in spec["families"]]
    q = {"mbc": eps, "two_round": 3 * eps, "one_round": 3 * eps,
         "r_round": (1 + eps) ** p["rounds"] - 1}
    errors = []
    for out in distinct(result["outputs"]):
        for name, qq in q.items():
            o = out[name]
            errors += check.coreset_errors(coords, o["reps"], o["weights"], sets, z, qq, U, name)
        mbc = out["mbc"]
        ok, _ = check.covering_ok(coords, np.ones(n, dtype=np.int64), mbc["reps"], mbc["weights"],
                                  mbc["ball_radius"])
        if not ok:
            errors.append("mbc: no covering at its own ball_radius")
        if len(mbc["reps"]) > k * (12 / eps) ** 2 + z:
            errors.append("mbc: more representatives than k*(12/eps)^d + z")
    return errors


def check_stream(spec, result):
    p = spec["params"]
    coords = np.asarray(spec["coords"])
    errors = []
    for out in distinct(result["outputs"]):
        if out["arrivals"] != p["n"] or sum(out["weights"]) != p["n"]:
            errors.append("stream: representative weight differs from the arrival count")
        locations = {tuple(c) for c in coords.tolist()}
        if any(tuple(r) not in locations for r in out["reps"]):
            errors.append("stream: a representative is not an arrival")
        if not len(out["reps"]) < out["threshold"]:
            errors.append("stream: representative count reached the threshold")
        ok, _ = check.covering_ok(coords, np.ones(p["n"], dtype=np.int64), out["reps"],
                                  out["weights"], p["eps"] * out["r"])
        if not ok:
            errors.append("stream: no covering at eps * r")
    return errors


def check_dynamic(spec, result):
    ops = [(sign, tuple(pt)) for sign, pt in spec["ops"]]
    errors = []
    for out in distinct(result["outputs"]):
        for rep in out["reports"]:
            live = check.live_multiset(ops[:rep["position"]])
            where = f"report after {rep['position']} updates"
            if sum(w for _, w in rep["points"]) != sum(live.values()):
                errors.append(f"{where}: report weight differs from the live count")
            errors += check.report_errors(live, rep["level"], rep["points"], where)
    return errors


def check_validate(spec, result):
    expected = dict(mbc=True, two_round=True, corrupted=False, covering=True, covering_low=False)
    errors = []
    for out in distinct(result["outputs"]):
        for i, (inst, o) in enumerate(zip(spec["instances"], out)):
            coords = np.asarray(inst["coords"])
            n, k, z, eps = inst["n"], inst["k"], inst["z"], inst["eps"]
            ones = np.ones(n, dtype=np.int64)
            U = check.cost(coords, ones, inst["planted"], z)
            sets = [inst["planted"]] + [coords[f].tolist() for f in inst["families"]]
            errors += check.coreset_errors(coords, o["mbc"]["reps"], o["mbc"]["weights"], sets, z,
                                           eps, U, f"instance {i} mbc")
            errors += check.coreset_errors(coords, o["two_round"]["reps"], o["two_round"]["weights"],
                                           sets, z, 3 * eps, U, f"instance {i} two_round")
            if not check.covering_ok(coords, ones, o["mbc"]["reps"], o["mbc"]["weights"],
                                     o["mbc"]["ball_radius"])[0]:
                errors.append(f"instance {i}: mbc has no covering at its ball_radius")
            if check.covering_ok(coords, ones, o["mbc"]["reps"], o["mbc"]["weights"],
                                 o["low_bound"])[0]:
                errors.append(f"instance {i}: a covering exists below the nearest-rep bound")
            for name, want in expected.items():
                if o["verdicts"][name] != want:
                    errors.append(f"instance {i}: validator verdict {name} is "
                                  f"{o['verdicts'][name]}, expected {want}")
    return errors


CHECKS = {
    "offline-mpc": check_offline,
    "insertion-stream": check_stream,
    "dynamic-turnstile": check_dynamic,
    "validate-small": check_validate,
}


# ---------------------------------------------------------------------------

def end_to_end(result):
    return {
        "setup_s": result["setup_ref_s"],
        "round_vs_ref": result["round_vs_ref"],
        "peak_rss_mb": result["peak_rss_mb"],
        "coreset_points": statistics.median(result["points"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kcoreset", "__init__.py")):
        sys.exit(f"no package source at {os.path.join(ROOT, 'src', 'kcoreset')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    spec = gen.generate(args.workload, args.seed, workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--workdir", workdir,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"worker exited with code {proc.returncode}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)

    errors = CHECKS[args.workload](spec, result)
    for e in errors[:20]:
        print("CHECK FAILED:", e, file=sys.stderr)

    if args.trace:
        values = result["per_layer"]
        wanted = bench["per_layer"]
    else:
        values = end_to_end(result)
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"stamp": stamp(ROOT), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, "rounds": result["rounds"],
                      "round_times": result["round_times"], "ref_slice_s": result["ref_slice_s"],
                      "round_fastest_s": result["round_fastest"], "setup_fastest_s": result["setup_fastest_s"],
                      "setup_times": result["setup_times"],
                      "phases": result["phases"]}))
    print(json.dumps({"correct": not errors, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
