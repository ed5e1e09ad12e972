"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of the workload seed: the same seed gives
the same files, byte for byte. The program under test only ever sees the
files written here; the numpy arrays and planted structure returned alongside
stay with the benchmark and feed the independent checker.

Only numpy is used here, never the package under test.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Workload parameters, fixed so that two commits always run the same inputs.
OFFLINE = dict(n=1500, k=3, z=10, eps=0.5, machines=8, rounds=3, side=1000.0,
               half_width=40.0, center_sets=20)
STREAM = dict(n=3000, k=3, z=5, eps=1.0, d=2, growth=8.0, base_side=10.0)
DYNAMIC = dict(delta=1024, d=2, k=2, z=1, eps=0.5, block=600, report_every=100,
               half_width=60)
VALIDATE = dict(instances=[dict(n=150, k=2, z=2, eps=0.5),
                           dict(n=200, k=2, z=1, eps=0.5),
                           dict(n=60, k=3, z=2, eps=0.5)],
                side=100.0, half_width=5.0, machines=4, center_sets=10)

# Ill-formed strict-turnstile streams over delta=8, d=1: each deletes a point
# that was never inserted, so a correct program must refuse to report on it.
# They do not depend on the seed.
DYNAMIC_PROBES = [
    [(1, (3,)), (1, (4,)), (-1, (7,))],
    [(1, (1,)), (1, (2,)), (-1, (5,))],
    [(1, (5,)), (1, (6,)), (-1, (8,))],
]

# One point set with a non-finite coordinate, seed independent.
NAN_PROBE = [(0.0, 0.0), (1.0, 0.0), (float("nan"), 3.0), (5.0, 5.0)]


def write_points(path, coords):
    with open(path, "w", encoding="utf-8") as fh:
        for row in coords:
            fh.write(",".join(repr(float(c)) for c in row) + "\n")


def write_updates(path, delta, d, ops):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"delta={delta} d={d}\n")
        for sign, point in ops:
            fh.write(f"{'+' if sign > 0 else '-'} {','.join(str(int(c)) for c in point)}\n")


def planted(rng, n, k, z, side, half_width, far):
    """k clusters of uniform points (L-inf half-width ``half_width``) around
    well-separated planted centers, plus z outliers at distance ``far``."""
    centers = np.empty((k, 2))
    for i in range(k):  # centers on a circle of radius side/2: pairwise gaps >= side/2
        angle = 2 * np.pi * (i + rng.uniform(0.0, 0.25)) / max(k, 3)
        centers[i] = side / 2 + (side / 2) * np.array([np.cos(angle), np.sin(angle)])
    labels = np.arange(n - z) % k  # equal cluster sizes, so every seed does similar work
    pts = centers[labels] + rng.uniform(-half_width, half_width, size=(n - z, 2))
    out = side * far + rng.uniform(0.0, side, size=(z, 2))
    coords = np.round(np.vstack([pts, out]), 3)
    perm = rng.permutation(n)
    return coords[perm], centers, np.concatenate([labels, -np.ones(z, dtype=int)])[perm]


def center_families(rng, n, k, count):
    """A fixed family of random k-subsets of the input indices."""
    return [sorted(int(i) for i in rng.choice(n, size=k, replace=False)) for _ in range(count)]


def gen_offline(seed, workdir):
    p = OFFLINE
    rng = np.random.default_rng([seed, 1])
    coords, centers, _ = planted(rng, p["n"], p["k"], p["z"], p["side"], p["half_width"], 4.0)
    write_points(os.path.join(workdir, "points.txt"), coords)
    write_points(os.path.join(workdir, "nan_probe.txt"), NAN_PROBE)
    return dict(params=p, files=["points.txt"], coords=coords.tolist(), planted=centers.tolist(),
                mpc_seed=int(rng.integers(1, 2**31)),
                families=center_families(rng, p["n"], p["k"], p["center_sets"]))


def gen_stream(seed, workdir):
    """Arrivals uniform in a square whose side grows 2^growth-fold along the
    stream, so the radius estimate doubles repeatedly. The first k+z+1
    arrivals sit on a fixed unit grid: they fix the initial radius estimate,
    so every seed doubles from the same value and does the same amount of
    work (a random start would shift every doubling by a seed-dependent factor)."""
    p = STREAM
    rng = np.random.default_rng([seed, 2])
    n = p["n"]
    side = p["base_side"] * 2.0 ** (p["growth"] * np.arange(n) / n)
    coords = np.round(rng.uniform(0.0, 1.0, size=(n, 2)) * side[:, None], 3)
    first = p["k"] + p["z"] + 1
    grid = [(float(i), float(j)) for i in range(first) for j in range(first)][:first]
    coords[:first] = np.asarray(grid)
    write_points(os.path.join(workdir, "points.txt"), coords)
    return dict(params=p, files=["points.txt"], coords=coords.tolist())


def gen_dynamic(seed, workdir):
    """One block of updates around two planted clusters; a third of the ops
    delete a point that is live at that moment. Each round replays the block
    on a freshly built state, so every round does the same work."""
    p = DYNAMIC
    rng = np.random.default_rng([seed, 3])
    delta, hw = p["delta"], p["half_width"]
    centers = rng.integers(hw + 1, delta - hw, size=(p["k"], p["d"]))
    block = p["block"]
    is_delete = np.zeros(block, dtype=bool)
    # deletes only after the first report interval, at a fixed third of positions
    slots = rng.choice(np.arange(p["report_every"] // 2, block), size=block // 3, replace=False)
    is_delete[slots] = True
    ops, live = [], []
    for t in range(block):
        if is_delete[t] and live:
            j = int(rng.integers(len(live)))
            live[j], live[-1] = live[-1], live[j]
            ops.append((-1, live.pop()))
        else:
            c = centers[int(rng.integers(p["k"]))]
            pt = tuple(int(v) for v in np.clip(c + rng.integers(-hw, hw + 1, size=p["d"]), 1, delta))
            live.append(pt)
            ops.append((1, pt))
    write_updates(os.path.join(workdir, "updates.txt"), delta, p["d"], ops)
    for i, probe in enumerate(DYNAMIC_PROBES):
        write_updates(os.path.join(workdir, f"probe{i}.txt"), 8, 1, probe)
    return dict(params=p, files=["updates.txt"], ops=[[s, list(pt)] for s, pt in ops])


def gen_validate(seed, workdir):
    p = VALIDATE
    rng = np.random.default_rng([seed, 4])
    instances = []
    for i, spec in enumerate(p["instances"]):
        coords, centers, labels = planted(rng, spec["n"], spec["k"], spec["z"], p["side"],
                                          p["half_width"], 4.0)
        name = f"points{i}.txt"
        write_points(os.path.join(workdir, name), coords)
        instances.append(dict(spec, file=name, coords=coords.tolist(), planted=centers.tolist(),
                              labels=labels.tolist(),
                              families=center_families(rng, spec["n"], spec["k"], p["center_sets"])))
    return dict(params=p, files=[inst["file"] for inst in instances], instances=instances)


GENERATORS = {
    "offline-mpc": gen_offline,
    "insertion-stream": gen_stream,
    "dynamic-turnstile": gen_dynamic,
    "validate-small": gen_validate,
}


def generate(workload, seed, workdir):
    """Write the workload's input files into ``workdir`` and return its spec
    (also saved as ``spec.json`` for the worker process)."""
    os.makedirs(workdir, exist_ok=True)
    spec = GENERATORS[workload](seed, workdir)
    spec["workload"] = workload
    spec["seed"] = seed
    with open(os.path.join(workdir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return spec
