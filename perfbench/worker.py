"""Runs one benchmark workload against the package under test, in a process
of its own (``run.py`` starts it), so that peak resident memory belongs to
this workload alone.

The package is imported from ``<root>/src`` and nowhere else. Every call into
it goes through a module or class attribute looked up at call time, so the
traced rounds see the wrappers installed by ``tracing.Tracer``.

A run repeats whole rounds of the workload's operations, each after timed
set-ups from the input files, until ``--seconds`` have passed. With
``--trace 1`` that takes half of ``--seconds``; then as many rounds again run
with the entry points wrapped in spans, and the per-layer metrics are derived
from those spans. Results go to ``<workdir>/result.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

import check
import reference
from tracing import Tracer

MPC_PIPELINES = ("two_round", "one_round", "r_round")


class Package:
    """The package's modules, imported from the checkout's ``src``."""

    def __init__(self, root):
        src = os.path.join(root, "src")
        sys.path.insert(0, src)
        import kcoreset
        if not os.path.abspath(kcoreset.__file__).startswith(os.path.abspath(src) + os.sep):
            raise SystemExit(f"kcoreset imported from {kcoreset.__file__}, not from {src}")
        from kcoreset import dynamic, errors, metric, mpc, offline, pointio, sketches, \
            streaming, validate
        self.dynamic, self.metric, self.mpc = dynamic, metric, mpc
        self.offline, self.pointio, self.sketches = offline, pointio, sketches
        self.streaming, self.validate = streaming, validate
        self.LINF = metric.Metric(metric.LINF)
        self.expected_errors = (errors.InputError, errors.SketchFailureError)


def reps_of(points):
    return [list(wp.point) for wp in points], [wp.weight for wp in points]


def mpc_words(out):
    """Total words sent and peak words stored, over the three MPC pipelines."""
    return (sum(sum(out[n]["messages_per_round"]) for n in MPC_PIPELINES),
            max(out[n]["peak_words"] for n in MPC_PIPELINES))


class Laps:
    """Times of one round's program segments, in the same order every round.

    Only the package calls inside ``time`` are timed; the benchmark's own
    bookkeeping between segments is not. After each segment, slices of the
    workload's reference computation (``kernels``, from ``reference.py``) run
    and are timed apart: one per ``REF_EVERY_S`` of the segment's time, at
    least one, so that they sample the machine's speed all through the
    round."""

    REF_EVERY_S = 0.05

    def __init__(self, clock, kernels):
        self.clock = clock
        self.names, self.times = [], []
        self.kernels = [reference.KERNELS[name] for name in kernels]
        self.ref_time, self.ref_slices = 0.0, 0

    def time(self, name, fn, *args):
        t0 = self.clock()
        result = fn(*args)
        t = self.clock() - t0
        self.times.append(t)
        self.names.append(name)
        for _ in range(max(1, round(t / self.REF_EVERY_S))):
            for kernel in self.kernels:
                t0 = self.clock()
                kernel()
                self.ref_time += self.clock() - t0
            self.ref_slices += 1
        return result

    def ref_slice_s(self):
        return self.ref_time / self.ref_slices


# ---------------------------------------------------------------------------
# workloads: setup() builds the state from the input files; run_round() does
# one round of operations, timing them with ``laps``, and returns its outputs
# and the number of points they hold. Operations and probes per round are
# fixed, so the share of failed operations is the same in every run.
# ---------------------------------------------------------------------------

class OfflineMpc:
    ref_kernels = reference.NUMPY
    ops_per_round = 4  # mbc_construction and the three MPC pipelines
    probes = 1         # a point set with a NaN coordinate must raise InputError

    def __init__(self, K, spec, workdir):
        self.K, self.spec, self.workdir = K, spec, workdir
        self.p = spec["params"]

    def setup(self):
        return self.K.pointio.read_points(os.path.join(self.workdir, "points.txt"))

    def run_round(self, points, laps):
        K, p = self.K, self.p
        k, z, eps, m = p["k"], p["z"], p["eps"], p["machines"]
        cov = laps.time("offline_s", lambda: K.offline.mbc_construction(
            K.offline.Instance(tuple(points), k, z, eps, K.LINF)))
        two = laps.time("mpc_s", lambda: K.mpc.run_two_round(
            points, k, z, eps, K.mpc.MpcConfig(m), K.LINF))
        one = laps.time("mpc_s", lambda: K.mpc.run_one_round_randomized(
            points, k, z, eps, K.mpc.MpcConfig(m, K.mpc.random_dist(self.spec["mpc_seed"])), K.LINF))
        rr = laps.time("mpc_s", lambda: K.mpc.run_r_round(
            points, k, z, eps, p["rounds"], K.mpc.MpcConfig(m), K.LINF))
        out = {"mbc": dict(zip(("reps", "weights"), reps_of(cov.representatives)),
                           ball_radius=cov.ball_radius, greedy_radius=cov.greedy_radius)}
        for name, run in zip(MPC_PIPELINES, (two, one, rr)):
            reps, weights = reps_of(run.final)
            out[name] = dict(reps=reps, weights=weights,
                             messages_per_round=list(run.messages_per_round),
                             peak_words=max(max(run.per_machine_peak_words), run.coordinator_words))
        return out, sum(len(o["reps"]) for o in out.values())

    def summary(self, phases, out):
        phases["mpc_words"], phases["mpc_peak_words"] = mpc_words(out)

    def run_probes(self):
        K = self.K
        try:
            pts = K.pointio.read_points(os.path.join(self.workdir, "nan_probe.txt"))
            K.offline.mbc_construction(K.offline.Instance(tuple(pts), 1, 0, 0.5, K.LINF))
        except K.expected_errors:
            return 0
        except Exception:  # the named fault: an AssertionError from greedy
            return 1
        return 1


class InsertionStreamWorkload:
    ref_kernels = reference.PYTHON
    probes = 0
    chunk = 100  # arrivals per timed segment

    def __init__(self, K, spec, workdir):
        self.K, self.spec, self.workdir = K, spec, workdir
        self.p = spec["params"]
        self.ops_per_round = self.p["n"] + 1  # arrivals and the final report

    def setup(self):
        return [wp.point for wp in self.K.pointio.read_points(os.path.join(self.workdir, "points.txt"))]

    def run_round(self, arrivals, laps):
        K, p = self.K, self.p
        st = laps.time("stream_s", K.streaming.InsertionStream, p["k"], p["z"], p["eps"], p["d"],
                       K.LINF)

        def feed(chunk):
            for pt in chunk:
                st.arrival(pt)

        for i in range(0, len(arrivals), self.chunk):
            laps.time("stream_s", feed, arrivals[i:i + self.chunk])
        core = laps.time("stream_s", st.report)
        reps, weights = reps_of(core)
        return dict(reps=reps, weights=weights, r=st.r, threshold=st.threshold,
                    arrivals=st.arrivals), len(reps)

    def summary(self, phases, out):
        phases["arrivals_per_s"] = self.p["n"] / phases["stream_s"]

    def run_probes(self):
        return 0


class DynamicTurnstile:
    ref_kernels = reference.PYTHON
    probes = 3  # ill-formed sketch-mode streams must raise InputError/SketchFailureError
    chunk = 25  # updates per timed segment

    def __init__(self, K, spec, workdir):
        self.K, self.spec, self.workdir = K, spec, workdir
        self.p = spec["params"]
        self.ops_per_round = self.p["block"] + self.p["block"] // self.p["report_every"]

    def setup(self):
        K, p = self.K, self.p
        delta, d, ops = K.pointio.read_update_stream(os.path.join(self.workdir, "updates.txt"))
        st = K.dynamic.DynamicCoresetState(delta, d, p["k"], p["z"], p["eps"], seed=self.spec["seed"])
        return ops, st

    def run_round(self, state, laps):
        (ops, st), every = state, self.p["report_every"]

        def feed(chunk):
            for sign, pt in chunk:
                st.update(pt, sign)

        reports, points_out = [], 0
        for start in range(0, len(ops), every):
            for i in range(start, start + every, self.chunk):
                laps.time("update_s", feed, ops[i:min(i + self.chunk, start + every)])
            rep = laps.time("report_s", st.report)
            reports.append(dict(position=start + every, level=rep.level,
                                points=[[list(wp.point), wp.weight] for wp in rep.points]))
            points_out += len(rep.points)
        return dict(reports=reports, live_count=st.live_count,
                    nominal_bytes=st.sketch_bytes(), s=st.s, levels=st.grid.levels), points_out

    def summary(self, phases, out):
        phases["updates_per_s"] = self.p["block"] / phases["update_s"]
        phases["report_s"] /= len(out["reports"])  # per report

    def run_probes(self):
        K = self.K
        failed = 0
        for i in range(self.probes):
            try:
                delta, d, ops = K.pointio.read_update_stream(os.path.join(self.workdir, f"probe{i}.txt"))
                st = K.dynamic.DynamicCoresetState(delta, d, 1, 0, 1.0, seed=0)
                st.apply(ops)
                st.report()
            except K.expected_errors:
                continue
            failed += 1  # today: report() returns a coreset for a stream it should refuse
        return failed


class ValidateSmall:
    ref_kernels = reference.NUMPY
    probes = 0

    def __init__(self, K, spec, workdir):
        self.K, self.spec, self.workdir = K, spec, workdir
        self.p = spec["params"]
        # per instance: two constructions, three check_coreset, two mini-ball checks
        self.ops_per_round = 7 * len(spec["instances"])

    def setup(self):
        return [self.K.pointio.read_points(os.path.join(self.workdir, inst["file"]))
                for inst in self.spec["instances"]]

    def run_round(self, instances, laps):
        K, p = self.K, self.p
        check_coreset, check_cover = K.validate.check_coreset, K.validate.check_mini_ball_covering
        outs, points_out = [], 0
        for spec, pts in zip(self.spec["instances"], instances):
            k, z, eps = spec["k"], spec["z"], spec["eps"]
            cov = laps.time("construct_s", lambda: K.offline.mbc_construction(
                K.offline.Instance(tuple(pts), k, z, eps, K.LINF)))
            two = laps.time("construct_s", lambda: K.mpc.run_two_round(
                pts, k, z, eps, K.mpc.MpcConfig(p["machines"]), K.LINF))
            mbc = list(cov.representatives)
            corrupt = corrupted(K, spec, mbc)
            low = below_bound(spec, mbc)
            verdicts = dict(
                mbc=laps.time("validate_s", check_coreset, pts, mbc, k, z, eps, K.LINF),
                two_round=laps.time("validate_s", check_coreset, pts, list(two.final), k, z,
                                    3 * eps, K.LINF),
                corrupted=laps.time("validate_s", check_coreset, pts, corrupt, k, z, eps, K.LINF),
                covering=laps.time("validate_s", check_cover, pts, mbc, cov.ball_radius, K.LINF),
                covering_low=laps.time("validate_s", check_cover, pts, mbc, low, K.LINF),
            )
            reps, weights = reps_of(mbc)
            treps, tweights = reps_of(two.final)
            outs.append(dict(mbc=dict(reps=reps, weights=weights, ball_radius=cov.ball_radius),
                             two_round=dict(reps=treps, weights=tweights), low_bound=low,
                             verdicts={name: v.passed for name, v in verdicts.items()}))
            points_out += len(reps) + len(treps)
        return outs, points_out

    def summary(self, phases, out):
        pass

    def run_probes(self):
        return 0


def corrupted(K, spec, mbc):
    """The covering with planted cluster 0's whole weight moved onto the
    representative nearest the center of the planted cluster farthest from it."""
    label = {tuple(c): lab for c, lab in zip(spec["coords"], spec["labels"])}
    owner = [label[wp.point] for wp in mbc]
    planted = np.asarray(spec["planted"])
    far = int(np.argmax(check.linf(planted[:1], planted)[0]))
    dist = check.linf([wp.point for wp in mbc], planted[far:far + 1])[:, 0]
    target = int(np.argmin(np.where(np.asarray(owner) == far, dist, np.inf)))
    moved = sum(wp.weight for wp, o in zip(mbc, owner) if o == 0)
    return [K.metric.WeightedPoint(wp.point, wp.weight + (moved if i == target else 0))
            for i, (wp, o) in enumerate(zip(mbc, owner)) if o != 0]


def below_bound(spec, mbc):
    """A radius just below the largest nearest-representative distance:
    some point has no representative within it, so no covering exists."""
    return 0.999 * check.nearest_rep_distance(spec["coords"], [wp.point for wp in mbc])


WORKLOADS = {
    "offline-mpc": OfflineMpc,
    "insertion-stream": InsertionStreamWorkload,
    "dynamic-turnstile": DynamicTurnstile,
    "validate-small": ValidateSmall,
}


# ---------------------------------------------------------------------------
# tracing: where each layer's entry points are wrapped
# ---------------------------------------------------------------------------

def install_tracing(K):
    tr = Tracer()
    M, S = K.metric.Metric, K.sketches
    tr.leaf(M, "pairwise", "metric.pairwise", units=lambda a: a[1].shape[0] * a[2].shape[0])
    tr.leaf(M, "distance", "metric.distance")
    tr.span(K.offline, "greedy", "offline.greedy")
    tr.span(K.mpc, "greedy", "offline.greedy")  # mpc's own binding (outlier vectors)
    tr.span(K.offline, "mbc_construction", "offline.mbc")
    tr.span(K.streaming.InsertionStream, "arrival", "streaming.arrival",
            before=lambda a: a[0].r,
            after=lambda a, res, r0: (r0, a[0].r, len(a[0].pstar)))
    tr.span(K.streaming.InsertionStream, "report", "streaming.report")
    tr.leaf(S.SparseRecoverySketch, "update", "sketches.sr_update")
    tr.leaf(S.SparseRecoverySketch, "query", "sketches.sr_query", failed=lambda res: res is None)
    tr.span(S.F0Sketch, "update", "sketches.f0_update")
    tr.span(S.F0Sketch, "query", "sketches.f0_query")
    D = K.dynamic.DynamicCoresetState
    tr.span(D, "__init__", "dynamic.construct")
    tr.span(D, "update", "dynamic.update")
    tr.span(D, "report", "dynamic.report", after=lambda a, res, ctx: res.level)
    tr.span(K.mpc, "run_two_round", "mpc.two_round")
    tr.span(K.mpc, "run_one_round_randomized", "mpc.one_round")
    tr.span(K.mpc, "run_r_round", "mpc.r_round")
    tr.span(K.validate, "check_coreset", "validate.check_coreset")
    tr.span(K.validate, "check_mini_ball_covering", "validate.mbc_check")
    tr.span(K.pointio, "read_points", "pointio.read")
    tr.span(K.pointio, "read_update_stream", "pointio.read")
    return tr


def per_layer(tr, rounds, setups, extra):
    """Per-layer metrics from the traced spans. Times, calls and sizes are
    per round (totals over the traced rounds divided by their number), except
    quantiles, peaks, levels and ratios, and the set-up layers, which are
    medians over the traced set-ups."""
    by_name = defaultdict(list)
    kids = defaultdict(list)
    for s in tr.spans:
        by_name[s.name].append(s)
        kids[s.parent].append(s)
    round_ids = {s.id for s in rounds}
    parent_of = {s.id: s.parent for s in tr.spans}

    def under(span, ids):
        p = span.parent
        while p is not None:
            if p in ids:
                return True
            p = parent_of.get(p)
        return False

    def in_rounds(name):
        return [s for s in by_name[name] if under(s, round_ids)]

    n = len(rounds)

    def leaf_total(spans, leaf, field):
        return sum(s.leaf(leaf, field) for s in spans)

    def dur(spans):
        return sum(s.duration for s in spans)

    m = {}
    m["metric.pairwise_calls"] = leaf_total(rounds, "metric.pairwise", 0) / n
    m["metric.pairwise_s"] = leaf_total(rounds, "metric.pairwise", 1) / n
    m["metric.pairwise_entries"] = leaf_total(rounds, "metric.pairwise", 2) / n
    m["metric.distance_calls"] = leaf_total(rounds, "metric.distance", 0) / n
    m["metric.distance_s"] = leaf_total(rounds, "metric.distance", 1) / n

    greedy = in_rounds("offline.greedy")
    mbc = in_rounds("offline.mbc")
    m["offline.greedy_calls"] = len(greedy) / n
    m["offline.greedy_s"] = dur(greedy) / n
    m["offline.mbc_calls"] = len(mbc) / n
    m["offline.mbc_s"] = dur(mbc) / n
    m["offline.net_s"] = sum(s.duration - dur(c for c in kids[s.id] if c.name == "offline.greedy")
                             for s in mbc) / n
    m["offline.pairwise_per_mbc"] = leaf_total(mbc, "metric.pairwise", 0) / len(mbc) if mbc else 0

    arrivals = in_rounds("streaming.arrival")
    doubling = [s for s in arrivals if s.info[0] > 0 and s.info[1] != s.info[0]]
    plain = [s.duration * 1e6 for s in arrivals if not (s.info[0] > 0 and s.info[1] != s.info[0])]
    q = statistics.quantiles(plain, n=100, method="inclusive") if len(plain) > 1 else [0] * 99
    m["streaming.arrival_us_p50"] = q[49]
    m["streaming.arrival_us_p99"] = q[98]
    m["streaming.recompress_s"] = dur(doubling) / n
    m["streaming.doublings"] = sum(math.log2(s.info[1] / s.info[0]) for s in doubling) / n
    m["streaming.peak_reps"] = max((s.info[2] for s in arrivals), default=0)
    m["streaming.distance_per_arrival"] = (leaf_total(arrivals, "metric.distance", 0) / len(arrivals)
                                           if arrivals else 0)

    f0u, f0q = in_rounds("sketches.f0_update"), in_rounds("sketches.f0_query")
    reports, updates = in_rounds("dynamic.report"), in_rounds("dynamic.update")
    m["sketches.sr_update_calls"] = (leaf_total(rounds, "sketches.sr_update", 0)
                                     - leaf_total(f0u, "sketches.sr_update", 0)) / n
    m["sketches.sr_update_s"] = (leaf_total(rounds, "sketches.sr_update", 1)
                                 - leaf_total(f0u, "sketches.sr_update", 1)) / n
    m["sketches.f0_update_calls"] = len(f0u) / n
    m["sketches.f0_update_s"] = dur(f0u) / n
    direct_q = leaf_total(rounds, "sketches.sr_query", 0) - leaf_total(f0q, "sketches.sr_query", 0)
    m["sketches.sr_query_calls"] = direct_q / n
    m["sketches.sr_query_s"] = (leaf_total(rounds, "sketches.sr_query", 1)
                                - leaf_total(f0q, "sketches.sr_query", 1)) / n
    m["sketches.sr_query_failed"] = (leaf_total(rounds, "sketches.sr_query", 3)
                                     - leaf_total(f0q, "sketches.sr_query", 3)) / n
    m["sketches.f0_query_calls"] = len(f0q) / n
    m["sketches.f0_query_s"] = dur(f0q) / n
    m["sketches.nominal_bytes"] = extra.get("nominal_bytes", 0)

    constructs = [s for s in by_name["dynamic.construct"] if under(s, {x.id for x in setups})]
    m["dynamic.construct_s"] = statistics.median(s.duration for s in constructs) if constructs else 0
    m["dynamic.update_s"] = dur(updates) / n
    m["dynamic.report_s"] = dur(reports) / n
    m["dynamic.sr_queries_per_report"] = direct_q / len(reports) if reports else 0
    m["dynamic.report_level"] = statistics.median(s.info for s in reports) if reports else 0
    m["dynamic.exact_level"] = extra.get("exact_level", 0)

    two, one, rr = in_rounds("mpc.two_round"), in_rounds("mpc.one_round"), in_rounds("mpc.r_round")
    mpc_ids = {s.id for s in two + one + rr}
    m["mpc.two_round_s"] = dur(two) / n
    m["mpc.one_round_s"] = dur(one) / n
    m["mpc.r_round_s"] = dur(rr) / n
    m["mpc.greedy_calls"] = sum(1 for s in greedy if under(s, mpc_ids)) / n
    for key in ("mpc.two_round.r1_words", "mpc.two_round.r2_words", "mpc.one_round.r1_words",
                "mpc.r_round.r1_words", "mpc.r_round.r2_words", "mpc.r_round.r3_words",
                "mpc.words", "mpc.peak_words"):
        m[key] = extra.get(key, 0)

    cc, mc = in_rounds("validate.check_coreset"), in_rounds("validate.mbc_check")
    m["validate.check_coreset_calls"] = len(cc) / n
    m["validate.check_coreset_s"] = dur(cc) / n
    m["validate.center_sets"] = extra.get("center_sets", 0)
    m["validate.center_sets_per_s"] = (m["validate.center_sets"] / m["validate.check_coreset_s"]
                                       if cc else 0)
    m["validate.mbc_check_calls"] = len(mc) / n
    m["validate.mbc_check_s"] = dur(mc) / n
    m["validate.flow_edges"] = extra.get("flow_edges", 0)

    reads = [s for s in by_name["pointio.read"] if under(s, {x.id for x in setups})]
    m["pointio.read_s"] = dur(reads) / len(setups)
    m["pointio.lines_read"] = extra.get("lines_read", 0)
    return m


def layer_extras(spec, workdir, out, workload):
    """Per-layer counts the benchmark computes itself from the inputs and the
    program's outputs (not from the trace)."""
    extra = {"lines_read": 0}
    for name in spec["files"]:
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            extra["lines_read"] += sum(1 for _ in fh)
    if isinstance(workload, OfflineMpc):
        for n in MPC_PIPELINES:
            for i, v in enumerate(out[n]["messages_per_round"], start=1):
                extra[f"mpc.{n}.r{i}_words"] = v
        extra["mpc.words"], extra["mpc.peak_words"] = mpc_words(out)
    elif isinstance(workload, ValidateSmall):
        sets = edges = 0
        for inst, o in zip(spec["instances"], out):
            sets += 3 * check.center_set_count(inst["coords"], inst["k"])
            for bound in (o["mbc"]["ball_radius"], o["low_bound"]):
                edges += int(check.reachable(inst["coords"], o["mbc"]["reps"], bound).sum())
        extra["center_sets"] = sets
        extra["flow_edges"] = edges
    elif isinstance(workload, DynamicTurnstile):
        extra["nominal_bytes"] = out["nominal_bytes"]
        ops = [(sign, tuple(pt)) for sign, pt in spec["ops"]]
        extra["exact_level"] = statistics.median(
            check.finest_level(check.live_multiset(ops[:rep["position"]]), out["s"], out["levels"])
            for rep in out["reports"])
    return extra


# ---------------------------------------------------------------------------

SETUPS_PER_ROUND = 5


def timed_rounds(workload, clock, seconds=None, count=None, tracer=None):
    """Whole rounds until ``seconds`` have passed (or ``count`` rounds are
    done). Each round is preceded by ``SETUPS_PER_ROUND`` timed set-ups from
    the input files, the last of which the round uses, so every round starts
    from the same state and does the same work, and the set-up samples spread
    over the whole run."""
    r = dict(setup_times=[], laps=[], ref_slice_s=[], failed=0, points=[], outputs=[],
             setup_spans=[], round_spans=[])
    names = None
    start = clock()
    while len(r["laps"]) < (count or 1) or (count is None and clock() - start < seconds):
        for _ in range(SETUPS_PER_ROUND):
            state = None  # free the previous state before the next set-up
            gc.collect()
            if tracer is not None:
                tracer.run = len(r["laps"]) + 1
                frame = tracer._open("bench.setup")
            t0 = clock()
            state = workload.setup()
            r["setup_times"].append(clock() - t0)
            if tracer is not None:
                r["setup_spans"].append(tracer._close(frame))
        gc.collect()
        if tracer is not None:
            frame = tracer._open("bench.round")
        laps = Laps(clock, workload.ref_kernels)
        out, pts = workload.run_round(state, laps)
        if tracer is not None:
            r["round_spans"].append(tracer._close(frame))
        r["laps"].append(laps.times)
        r["ref_slice_s"].append(laps.ref_slice_s())
        names = laps.names
        r["failed"] += workload.run_probes()
        r["points"].append(pts)
        r["outputs"].append(out)
    r["round_times"] = [sum(t) for t in r["laps"]]
    # every round runs the same segments in the same order on the same state,
    # so each segment's least time over the rounds is its cost with the least
    # interference from the rest of the machine
    r["round_fastest"] = sum(min(col) for col in zip(*r["laps"]))
    # a slow phase of the machine slows the round and the reference slices
    # run between its segments alike, so their ratio cancels it
    r["round_vs_ref"] = statistics.median(t / ref for t, ref in zip(r["round_times"],
                                                                   r["ref_slice_s"]))
    # the fastest set-up, as a ratio to the run's median slice, in seconds at
    # the speed the slice has on the machine the benchmark was written on
    r["setup_fastest_s"] = min(r["setup_times"])
    r["setup_ref_s"] = (r["setup_fastest_s"] / statistics.median(r["ref_slice_s"])
                        * reference.NOMINAL_SLICE_S[workload.ref_kernels])
    phases = defaultdict(list)
    for times in r["laps"]:
        per_round = defaultdict(float)
        for name, t in zip(names, times):
            per_round[name] += t
        for name, t in per_round.items():
            phases[name].append(t)
    r["phases"] = {name: statistics.median(v) for name, v in phases.items()}
    workload.summary(r["phases"], r["outputs"][-1])
    r["rounds"] = len(r["laps"])
    r["attempted"] = r["rounds"] * (workload.ops_per_round + workload.probes)
    return r


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    K = Package(args.root)
    with open(os.path.join(args.workdir, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[spec["workload"]](K, spec, args.workdir)
    clock = time.perf_counter
    for name in workload.ref_kernels:  # warm the reference kernels before any timing
        for _ in range(20):
            reference.KERNELS[name]()

    # a traced run spends half its time untraced, then repeats as many rounds traced
    result = timed_rounds(workload, clock, seconds=args.seconds / (2 if args.trace else 1))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del result["setup_spans"], result["round_spans"]

    if args.trace:
        tr = install_tracing(K)
        try:
            traced = timed_rounds(workload, clock, count=result["rounds"], tracer=tr)
        finally:
            tr.restore()
        for key in ("attempted", "failed", "rounds"):
            result[key] += traced[key]
        result["outputs"] += traced["outputs"]
        extra = layer_extras(spec, args.workdir, traced["outputs"][-1], workload)
        layers = per_layer(tr, traced["round_spans"], traced["setup_spans"], extra)
        layers["trace.overhead_s"] = traced["round_fastest"] - result["round_fastest"]
        result["per_layer"] = layers
        tr.write(os.path.join(args.workdir, "spans.jsonl"))

    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
