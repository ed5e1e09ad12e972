"""Steadiness check: repeat each workload over several seeds and print, for
every end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) next to the metric's bound.

    python3 perfbench/steady.py                      # all workloads, seeds 1..10
    python3 perfbench/steady.py --workloads insertion-stream --seeds 1 2 3 4 5

Each run is a separate ``run.py`` process with the run length from
BENCHMARK.json. Every result line, with its environment stamp, is appended
to ``.perfbench_work/steady.jsonl``. The bounds in BENCHMARK.json are set
from this output: a spread should stay below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = ap.parse_args()

    log_path = os.path.join(ROOT, ".perfbench_work", "steady.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            info, res = run_once(workload, seed, bench["run_seconds"], 0)
            results.append(res)
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"info": info, "result": res}) + "\n")
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share per run {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  <-- NOT CONSTANT'}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:<16} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {m['bound']}  spread/bound {spread / m['bound']:.3f}"
                  f"{flag}")
        if not all(r["correct"] for r in results):
            print(f"{workload}: SOME RUNS FAILED THEIR OUTPUT CHECKS")


if __name__ == "__main__":
    main()
