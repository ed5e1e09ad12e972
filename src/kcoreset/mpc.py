"""Deterministic synchronous-round MPC simulator for the coreset pipelines.

Machines are numbered 1..m; machine 1 is the coordinator. The two-round,
one-round and R-round pipelines share one round engine, ``_Rounds``, and
keep only their own steps: the two-round outlier-vector broadcast and r-hat,
the one-round allowance z', the R-round fan-in beta and active machines.

The engine checks its input as an offline ``Instance``, so a pipeline
rejects what ``mbc_construction`` rejects, and splits it into parts.
Messages sent in round t are readable only in round t+1 and a machine reads
them in sender order, so runs are schedule-independent; the transcript is
ordered by (round, sender, recipient), and a machine keeping its own output
sends nothing. Storage is metered in words: a point costs d+1 words
(coordinates plus weight), a radius-vector entry one word. ``store`` keeps a
machine's peak over rounds of what it holds at once: in a covering step its
points, plus words resident from earlier rounds (the two-round m outlier
vectors), plus the covering it builds; a part already compressed is dropped.
Metering describes what a machine stores, not what the simulator reuses
between rounds: a two-round machine keeps its part as one ``_PointSet``, so
its round-2 covering reuses the distance matrix, candidate radii and probe
verdicts of its round-1 outlier vector, which no figure counts.
Machine 1's collection stage, where it compresses the union of the coverings
it received once more, is metered apart in ``coordinator_words``. In the
R-round pipeline the last round's union is the result and also counts in
machine 1's peak.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .metric import REL_TOL, Metric, WeightedPoint, _check_counts, _integer, as_weighted
from .offline import Instance, _PointSet, _mbc, _point_set, greedy

ROUND_ROBIN = "roundrobin"
ADVERSARIAL = "adversarial"
RANDOM = "random"


@dataclass(frozen=True)
class Distribution:
    kind: str
    assignment: tuple = None  # adversarial: machine id (1-based) per point
    seed: int = None          # random: RNG seed

    def __post_init__(self):
        if self.kind not in (ROUND_ROBIN, ADVERSARIAL, RANDOM):
            raise InputError(f"unknown distribution kind {self.kind!r}")
        if self.kind == ADVERSARIAL and self.assignment is None:
            raise InputError("adversarial distribution needs an assignment list")
        if self.kind == RANDOM and self.seed is None:
            raise InputError("random distribution needs a seed")


def round_robin() -> Distribution:
    return Distribution(ROUND_ROBIN)


def adversarial(assignment) -> Distribution:
    return Distribution(ADVERSARIAL, assignment=tuple(int(a) for a in assignment))


def random_dist(seed: int) -> Distribution:
    return Distribution(RANDOM, seed=int(seed))


@dataclass(frozen=True)
class MpcConfig:
    m: int
    distribution: Distribution = field(default_factory=round_robin)

    def __post_init__(self):
        _integer(self.m, 1, f"need an integer count of at least one machine, got {self.m!r}")


@dataclass(frozen=True)
class Message:
    round: int
    sender: int
    recipient: int
    kind: str
    words: int


@dataclass(frozen=True)
class MpcRun:
    algorithm: str
    rounds_used: int
    final: tuple                      # final coreset (weighted points)
    parts: tuple                      # per-machine input parts
    transcript: tuple                 # Messages, ordered (round, sender, recipient)
    per_machine_peak_words: tuple     # peak over rounds, machine i at index i-1
    coordinator_words: int            # coordinator storage in its collection stage
    messages_per_round: tuple         # total words sent per round
    union_received: tuple = ()        # two-round: union of coverings at coordinator
    r_hat: float = None
    j_hats: tuple = None
    z_prime: int = None               # one-round outlier allowance per machine
    machine_counts: tuple = None      # r-round: active machines per round
    seed: int = None


def point_words(n_points: int, dim: int) -> int:
    return n_points * (dim + 1)


def distribute(points, cfg: MpcConfig) -> list[list[WeightedPoint]]:
    """Split the input into per-machine parts (disjoint, union = input)."""
    wps = as_weighted(points)
    parts = [[] for _ in range(cfg.m)]
    dist = cfg.distribution
    if dist.kind == ROUND_ROBIN:
        for i, wp in enumerate(wps):
            parts[i % cfg.m].append(wp)
    elif dist.kind == ADVERSARIAL:
        if len(dist.assignment) != len(wps):
            raise InputError("adversarial assignment length differs from point count")
        for wp, machine in zip(wps, dist.assignment):
            if not (1 <= machine <= cfg.m):
                raise InputError(f"adversarial assignment targets machine {machine} of {cfg.m}")
            parts[machine - 1].append(wp)
    else:
        rng = random.Random(dist.seed)
        for wp in wps:
            parts[rng.randrange(cfg.m)].append(wp)
    return parts


def outlier_vector(part, k: int, z: int, metric: Metric) -> list[float]:
    """V[j] = greedy radius on the part with 2^j - 1 outliers, j = 0..ceil(log2(z+1)).
    Every search runs on one ``_PointSet`` (``part`` itself when it is one),
    so a radius is probed once on the part."""
    _check_counts(k, z)
    part = _point_set(part, metric)
    return [greedy(part, k, (1 << j) - 1, metric).radius for j in range(vector_length(z))]


def vector_length(z: int) -> int:
    return math.ceil(math.log2(z + 1)) + 1


def compute_r_hat(vectors, z: int):
    """Smallest broadcast radius r with sum_i (2^{min j: V_i[j] <= r} - 1) <= 2z.

    A machine with no entry <= r makes r infeasible. Returns (r_hat, j_hats).
    The largest V_i[0] is always feasible, so the minimum exists.

    The candidates are the sorted distinct entries, and "<=" is ``leq``,
    which is monotone in r: its right side is r plus a slack that grows with
    |r|, rounded monotonically. So every entry has a first candidate it is
    ``leq`` (``_first_leq``, one bisection for all entries), and machine i's
    least j at candidate t is the number of its j whose prefix minimum of
    first candidates is past t. That count falls as t grows, and so does the
    sum, so a bisection over t finds r_hat: O(N log N) work for N entries,
    not the O(N^2) ``leq`` calls of a walk over the candidates.
    """
    radii = sorted({v for vec in vectors for v in vec})
    lengths = [len(vec) for vec in vectors]
    if not radii or not all(lengths):
        raise AssertionError("no feasible radius found; max V_i[0] should always qualify")
    flat = np.asarray([v for vec in vectors for v in vec], dtype=float)
    at = np.split(_first_leq(flat, np.asarray(radii, dtype=float)), np.cumsum(lengths)[:-1])
    first = np.full((len(vectors), max(lengths)), len(radii))  # past a short vector: never
    for row, part in zip(first, at):
        row[:len(part)] = part
    np.minimum.accumulate(first, axis=1, out=first)  # machine i's j <= j from first[i, j] on

    def j_hats(t: int) -> np.ndarray:
        return np.count_nonzero(first > t, axis=1)

    def feasible(t: int) -> bool:  # summed in Python ints, exact however large z is
        return sum(((1 << j) - 1) * int(c) for j, c in enumerate(np.bincount(j_hats(t)))) <= 2 * z

    lo, hi = int(first[:, -1].max()), len(radii) - 1  # from lo on, every machine has a j
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if feasible(mid) else (mid + 1, hi)
    if not feasible(lo):
        raise AssertionError("no feasible radius found; max V_i[0] should always qualify")
    return radii[lo], tuple(j_hats(lo).tolist())


def _first_leq(values: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """For each value v, the index of the first of the sorted ``radii`` r
    with ``leq(v, r)``; every v is one of the radii, so one exists. ``leq``
    is applied elementwise with the same float64 operations, and a slack
    past the float range is inf, as it is for ``leq``."""
    lo = np.zeros(len(values), dtype=np.intp)
    hi = np.searchsorted(radii, values)  # v itself, which leq(v, v) accepts
    with np.errstate(over="ignore"):
        while (lo < hi).any():  # leq(v, radii[hi]) holds, so a settled entry stays put
            mid = (lo + hi) // 2
            r = radii[mid]
            ok = values <= r + REL_TOL * np.maximum(np.maximum(np.abs(values), np.abs(r)), 1.0)
            lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
    return lo


class _Rounds:
    """The round engine: validated input, per-machine parts, metered storage
    and the transcript of one run."""

    def __init__(self, points, k: int, z: int, epsilon: float, cfg: MpcConfig,
                 metric: Metric):
        self.inst = Instance(points, k, z, epsilon, metric)
        self.cfg = cfg
        self.dim = len(self.inst.points[0].point)
        self.parts = distribute(self.inst.points, cfg)
        self.peaks = [0] * cfg.m
        self.transcript = []
        self.sent = Counter()  # words sent, per round

    def words(self, points) -> int:
        return point_words(len(points), self.dim)

    def store(self, machine: int, words: int) -> None:
        """Machine ``machine`` holds ``words`` words at once in some round."""
        self.peaks[machine - 1] = max(self.peaks[machine - 1], words)

    def send(self, rnd: int, sender: int, recipient: int, kind: str, words: int) -> None:
        if sender != recipient:
            self.transcript.append(Message(rnd, sender, recipient, kind, words))
            self.sent[rnd] += words

    def compress(self, points, z: int) -> list[WeightedPoint]:
        inst = self.inst
        return list(_mbc(points, inst.k, z, inst.epsilon, inst.metric).representatives)

    def cover(self, rnd: int, held, budgets, resident: int, dest) -> list[list[WeightedPoint]]:
        """Round ``rnd``: machine i compresses ``held[i-1]`` (a point list or
        a ``_PointSet``) into a mini-ball covering with ``budgets[i-1]``
        outliers, holding its points, ``resident`` more words and the
        covering at once, and sends the covering to machine ``dest(i)``.
        Returns what each machine received, in sender order."""
        inbox = [[] for _ in self.parts]
        for i, (points, budget) in enumerate(zip(held, budgets), start=1):
            cov = self.compress(points, budget)
            cov_words = self.words(cov)
            self.store(i, self.words(points) + resident + cov_words)
            self.send(rnd, i, dest(i), "covering", cov_words)
            inbox[dest(i) - 1].extend(cov)
        return inbox

    def run(self, algorithm: str, rounds_used: int, final, coordinator_words: int,
            **fields) -> MpcRun:
        return MpcRun(
            algorithm=algorithm, rounds_used=rounds_used, final=tuple(final),
            parts=tuple(tuple(p) for p in self.parts),
            transcript=tuple(sorted(self.transcript, key=lambda t: (t.round, t.sender, t.recipient))),
            per_machine_peak_words=tuple(self.peaks), coordinator_words=coordinator_words,
            messages_per_round=tuple(self.sent[t] for t in range(1, rounds_used + 1)),
            seed=self.cfg.distribution.seed, **fields)


def run_two_round(points, k: int, z: int, epsilon: float, cfg: MpcConfig,
                  metric: Metric) -> MpcRun:
    """Deterministic 2-round pipeline: outlier-vector broadcast, then local
    mini-ball coverings at the agreed outlier split, compressed once more at
    the coordinator."""
    if cfg.m < 2:
        raise InputError("the two-round algorithm needs at least two machines")
    eng = _Rounds(points, k, z, epsilon, cfg, metric)
    m, vlen = cfg.m, vector_length(z)

    # round 1: every machine computes its outlier vector and broadcasts it;
    # it keeps its part's _PointSet, whose memo its round-2 search reads
    parts = [_PointSet(part, metric) for part in eng.parts]
    vectors = [outlier_vector(part, k, z, metric) for part in parts]
    for i, part in enumerate(eng.parts, start=1):
        eng.store(i, eng.words(part) + vlen)
        for j in range(1, m + 1):
            eng.send(1, i, j, "outlier-vector", vlen)

    # round 2: every machine holds the same m vectors, so all agree on r-hat;
    # machine i covers its part with 2^j_i - 1 outliers
    r_hat, j_hats = compute_r_hat(vectors, z)
    union = eng.cover(2, parts, [(1 << j) - 1 for j in j_hats], m * vlen, lambda i: 1)[0]
    return eng.run("two-round", 2, eng.compress(union, z), eng.words(union) + m * vlen,
                   union_received=tuple(union), r_hat=r_hat, j_hats=j_hats)


def run_one_round_randomized(points, k: int, z: int, epsilon: float, cfg: MpcConfig,
                             metric: Metric) -> MpcRun:
    """Randomized 1-round pipeline under a random initial distribution."""
    if cfg.distribution.kind != RANDOM:
        raise InputError("the one-round algorithm assumes a random distribution")
    eng = _Rounds(points, k, z, epsilon, cfg, metric)
    m = cfg.m
    z_prime = min(math.ceil(6 * z / m + 3 * math.log2(len(eng.inst.points))), z)
    union = eng.cover(1, eng.parts, [z_prime] * m, 0, lambda i: 1)[0]
    return eng.run("one-round", 1, eng.compress(union, z), eng.words(union),
                   union_received=tuple(union), z_prime=z_prime)


def run_r_round(points, k: int, z: int, epsilon: float, rounds: int, cfg: MpcConfig,
                metric: Metric) -> MpcRun:
    """Deterministic R-round fan-in: beta = ceil(m^(1/R)); each active machine
    compresses what it received and forwards to machine ceil(i/beta)."""
    rounds = _integer(rounds, 1, f"need an integer count of at least one round, got {rounds!r}")
    eng = _Rounds(points, k, z, epsilon, cfg, metric)
    m = cfg.m
    beta = 1
    while beta**rounds < m:
        beta += 1
    machine_counts = []
    held = eng.parts
    for t in range(1, rounds + 1):
        active = max(1, math.ceil(m / beta ** (t - 1)))  # the quotient underflows for large t
        machine_counts.append(active)
        held = eng.cover(t, held[:active], [z] * active, 0, lambda i: math.ceil(i / beta))
    final = held[0]
    eng.store(1, eng.words(final))
    return eng.run("r-round", rounds, final, eng.words(final),
                   machine_counts=tuple(machine_counts) + (1,))
