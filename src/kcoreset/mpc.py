"""Deterministic synchronous-round MPC simulator for the coreset pipelines.

Machines are numbered 1..m; machine 1 is the coordinator. Messages sent in
round t are readable only in round t+1 and delivery is canonicalized by
sender id, so runs are schedule-independent. Storage is metered in words:
a point costs d+1 words (coordinates plus weight), a radius-vector entry one
word. A machine's per-round storage is its resident input plus messages
received that round plus anything it constructs in the round; residents a
machine no longer needs (a part already compressed into a covering) are
dropped before the next stage, which is what the coordinator does with its
own part before collecting coverings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import InputError
from .metric import Metric, WeightedPoint, as_weighted, leq
from .offline import _mbc, _self_distances, greedy

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
        if self.m < 1:
            raise InputError("need at least one machine")


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
    """V[j] = greedy radius on the part with 2^j - 1 outliers, j = 0..ceil(log2(z+1))."""
    vlen = vector_length(z)
    part = as_weighted(part)
    dmat = _self_distances(part, metric) if part else None  # one matrix for every j
    return [greedy(part, k, (1 << j) - 1, metric, dmat=dmat).radius for j in range(vlen)]


def vector_length(z: int) -> int:
    return math.ceil(math.log2(z + 1)) + 1


def compute_r_hat(vectors, z: int):
    """Smallest broadcast radius r with sum_i (2^{min j: V_i[j] <= r} - 1) <= 2z.

    A machine with no entry <= r makes r infeasible. Returns (r_hat, j_hats).
    The largest V_i[0] is always feasible, so the minimum exists.
    """
    entries = sorted({v for vec in vectors for v in vec})
    for r in entries:
        total = 0
        j_hats = []
        for vec in vectors:
            j = next((j for j, v in enumerate(vec) if leq(v, r)), None)
            if j is None:
                break
            j_hats.append(j)
            total += (1 << j) - 1
        else:
            if total <= 2 * z:
                return r, tuple(j_hats)
    raise AssertionError("no feasible radius found; max V_i[0] should always qualify")


def run_two_round(points, k: int, z: int, epsilon: float, cfg: MpcConfig,
                  metric: Metric) -> MpcRun:
    """Deterministic 2-round pipeline: outlier-vector broadcast, then local
    mini-ball coverings at the agreed outlier split, compressed once more at
    the coordinator."""
    if cfg.m < 2:
        raise InputError("the two-round algorithm needs at least two machines")
    wps = as_weighted(points)
    if not wps:
        raise InputError("need at least one point")
    dim = len(wps[0].point)
    parts = distribute(wps, cfg)
    m = cfg.m
    vlen = vector_length(z)
    transcript = []
    peaks = [0] * m

    # round 1: every machine computes its outlier vector and broadcasts it
    vectors = [outlier_vector(part, k, z, metric) for part in parts]
    for i in range(1, m + 1):
        peaks[i - 1] = max(peaks[i - 1], point_words(len(parts[i - 1]), dim) + vlen)
        for j in range(1, m + 1):
            if j != i:
                transcript.append(Message(1, i, j, "outlier-vector", vlen))
    round1_words = m * (m - 1) * vlen

    # round 2: shared r-hat, local covering, send to coordinator
    r_hats = []
    coverings = []
    round2_words = 0
    for i in range(1, m + 1):
        r_hat_i, j_hats_i = compute_r_hat(vectors, z)  # same inputs on every machine
        r_hats.append((r_hat_i, j_hats_i))
        j_i = j_hats_i[i - 1]
        cov = _mbc(parts[i - 1], k, (1 << j_i) - 1, epsilon, metric)
        coverings.append(list(cov.representatives))
        cov_words = point_words(len(cov.representatives), dim)
        peaks[i - 1] = max(peaks[i - 1],
                           point_words(len(parts[i - 1]), dim) + m * vlen + cov_words)
        if i != 1:
            transcript.append(Message(2, i, 1, "covering", cov_words))
            round2_words += cov_words
    assert all(rh == r_hats[0] for rh in r_hats)
    r_hat, j_hats = r_hats[0]

    union = [wp for cov in coverings for wp in cov]
    coordinator_words = point_words(len(union), dim) + m * vlen
    final = _mbc(union, k, z, epsilon, metric)

    return MpcRun(
        algorithm="two-round",
        rounds_used=2,
        final=tuple(final.representatives),
        parts=tuple(tuple(p) for p in parts),
        transcript=tuple(sorted(transcript, key=lambda t: (t.round, t.sender, t.recipient))),
        per_machine_peak_words=tuple(peaks),
        coordinator_words=coordinator_words,
        messages_per_round=(round1_words, round2_words),
        union_received=tuple(union),
        r_hat=r_hat,
        j_hats=j_hats,
    )


def run_one_round_randomized(points, k: int, z: int, epsilon: float, cfg: MpcConfig,
                             metric: Metric) -> MpcRun:
    """Randomized 1-round pipeline under a random initial distribution."""
    if cfg.distribution.kind != RANDOM:
        raise InputError("the one-round algorithm assumes a random distribution")
    wps = as_weighted(points)
    if not wps:
        raise InputError("need at least one point")
    dim = len(wps[0].point)
    parts = distribute(wps, cfg)
    m = cfg.m
    n = len(wps)
    z_prime = min(math.ceil(6 * z / m + 3 * math.log2(n)) if n > 1 else math.ceil(6 * z / m), z)
    transcript = []
    peaks = [0] * m
    coverings = []
    round_words = 0
    for i in range(1, m + 1):
        cov = _mbc(parts[i - 1], k, z_prime, epsilon, metric)
        coverings.append(list(cov.representatives))
        cov_words = point_words(len(cov.representatives), dim)
        peaks[i - 1] = max(peaks[i - 1], point_words(len(parts[i - 1]), dim) + cov_words)
        if i != 1:
            transcript.append(Message(1, i, 1, "covering", cov_words))
            round_words += cov_words
    union = [wp for cov in coverings for wp in cov]
    coordinator_words = point_words(len(union), dim)
    final = _mbc(union, k, z, epsilon, metric)
    return MpcRun(
        algorithm="one-round",
        rounds_used=1,
        final=tuple(final.representatives),
        parts=tuple(tuple(p) for p in parts),
        transcript=tuple(sorted(transcript, key=lambda t: (t.round, t.sender, t.recipient))),
        per_machine_peak_words=tuple(peaks),
        coordinator_words=coordinator_words,
        messages_per_round=(round_words,),
        union_received=tuple(union),
        z_prime=z_prime,
        seed=cfg.distribution.seed,
    )


def run_r_round(points, k: int, z: int, epsilon: float, rounds: int, cfg: MpcConfig,
                metric: Metric) -> MpcRun:
    """Deterministic R-round fan-in: beta = ceil(m^(1/R)); each active machine
    compresses what it received and forwards to machine ceil(i/beta)."""
    if rounds < 1:
        raise InputError("need at least one round")
    wps = as_weighted(points)
    if not wps:
        raise InputError("need at least one point")
    dim = len(wps[0].point)
    parts = distribute(wps, cfg)
    m = cfg.m
    beta = 1
    while beta**rounds < m:
        beta += 1
    transcript = []
    peaks = [0] * m
    messages_per_round = []
    machine_counts = []
    holdings = [list(p) for p in parts]
    for t in range(1, rounds + 1):
        active = max(1, math.ceil(m / beta ** (t - 1)))
        machine_counts.append(active)
        outbox = [[] for _ in range(m)]
        round_words = 0
        for i in range(1, active + 1):
            received = holdings[i - 1]
            cov = _mbc(received, k, z, epsilon, metric)
            cov_words = point_words(len(cov.representatives), dim)
            peaks[i - 1] = max(peaks[i - 1], point_words(len(received), dim) + cov_words)
            dest = math.ceil(i / beta)
            outbox[dest - 1].extend(cov.representatives)
            if dest != i:
                transcript.append(Message(t, i, dest, "covering", cov_words))
                round_words += cov_words
        holdings = [list(box) for box in outbox]
        messages_per_round.append(round_words)
    machine_counts.append(1)
    final = holdings[0]
    peaks[0] = max(peaks[0], point_words(len(final), dim))
    return MpcRun(
        algorithm="r-round",
        rounds_used=rounds,
        final=tuple(final),
        parts=tuple(tuple(p) for p in parts),
        transcript=tuple(sorted(transcript, key=lambda t: (t.round, t.sender, t.recipient))),
        per_machine_peak_words=tuple(peaks),
        coordinator_words=point_words(len(final), dim),
        messages_per_round=tuple(messages_per_round),
        machine_counts=tuple(machine_counts),
        seed=cfg.distribution.seed,
    )
