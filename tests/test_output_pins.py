"""The package's outputs on the benchmark's inputs, pinned by one SHA-256
each.

The inputs come from ``perfbench/gen.py`` at seeds 1 and 1009; the test
imports that module and writes its files into a temporary directory, as the
benchmark does. Each pin covers one (workload, seed, metric, output):

- offline-mpc: ``mbc_construction`` and the ``repr`` of the three
  ``MpcRun``s, which holds their parts and transcripts too;
- insertion-stream: the report, with ``r``, every 500 arrivals and at the
  end;
- dynamic-turnstile: the reports in sketch mode, with ``sketch_bytes`` and
  the final ``digest()``, and the reports from the exact shadow;
- validate-small: ``brute_force_opt`` on each instance, and the
  ``check_coreset`` report (verdict, condition, witness) of the mbc
  coreset, of the two-round coreset at 3*eps and of a corrupted coreset
  that fails.

A pin moves only with a change that means to change outputs, which records
the old and new hashes and the reason.
"""

import hashlib
import importlib.util
import pathlib

import pytest

from kcoreset import (
    L2, LINF, DynamicCoresetState, InsertionStream, Instance, Metric, MpcConfig,
    WeightedPoint, brute_force_opt, check_coreset, mbc_construction, random_dist,
    run_one_round_randomized, run_r_round, run_two_round,
)
from kcoreset.pointio import read_points, read_update_stream

_GEN_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
_SEEDS = (1, 1009)
_METRICS = {"linf": Metric(LINF), "l2": Metric(L2)}


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(workload, seed) -> (spec, workdir), each generated once."""
    gen, cache = _load_gen(), {}

    def get(workload, seed):
        if (workload, seed) not in cache:
            workdir = tmp_path_factory.mktemp(f"{workload}-{seed}")
            cache[workload, seed] = gen.generate(workload, seed, str(workdir)), workdir
        return cache[workload, seed]

    return get


def _digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(rec).encode())
        h.update(b"\n")
    return h.hexdigest()


def _check(got: dict, key: tuple):
    """Compare each output's digest with its pin."""
    assert {name: _digest(recs) for name, recs in got.items()} == PINS[key]


@pytest.mark.parametrize("metric", _METRICS)
@pytest.mark.parametrize("seed", _SEEDS)
def test_offline_mpc_outputs_are_pinned(inputs, seed, metric):
    spec, workdir = inputs("offline-mpc", seed)
    p, m = spec["params"], _METRICS[metric]
    points = read_points(str(workdir / "points.txt"))
    k, z, eps, machines = p["k"], p["z"], p["eps"], p["machines"]
    got = {
        "mbc": [mbc_construction(Instance(tuple(points), k, z, eps, m))],
        "two-round": [run_two_round(points, k, z, eps, MpcConfig(machines), m)],
        "one-round": [run_one_round_randomized(
            points, k, z, eps, MpcConfig(machines, random_dist(spec["mpc_seed"])), m)],
        "r-round": [run_r_round(points, k, z, eps, p["rounds"], MpcConfig(machines), m)],
    }
    _check(got, ("offline-mpc", seed, metric))


@pytest.mark.parametrize("metric", _METRICS)
@pytest.mark.parametrize("seed", _SEEDS)
def test_stream_outputs_are_pinned(inputs, seed, metric):
    spec, workdir = inputs("insertion-stream", seed)
    p = spec["params"]
    points = read_points(str(workdir / "points.txt"))
    st = InsertionStream(p["k"], p["z"], p["eps"], p["d"], _METRICS[metric])
    reports = []
    for i, wp in enumerate(points, 1):
        st.arrival(wp.point)
        if i % 500 == 0:
            reports.append((i, st.r, st.report()))
    reports.append((st.arrivals, st.r, st.threshold, st.report()))
    _check({"reports": reports}, ("insertion-stream", seed, metric))


@pytest.mark.parametrize("seed", _SEEDS)
def test_dynamic_outputs_are_pinned(inputs, seed):
    spec, workdir = inputs("dynamic-turnstile", seed)
    p = spec["params"]
    delta, d, ops = read_update_stream(str(workdir / "updates.txt"))
    every = p["report_every"]
    got = {}
    for mode in ("sketch", "shadow"):
        exact = mode == "shadow"
        st = DynamicCoresetState(delta, d, p["k"], p["z"], p["eps"], seed=seed,
                                 with_sketches=not exact, with_shadow=exact)
        reports = []
        for start in range(0, len(ops), every):
            st.apply(ops[start:start + every])
            reports.append((start + every, st.report(exact=exact), st.sketch_bytes()))
        if not exact:
            reports.append(st.digest())
        got[mode] = reports
    _check(got, ("dynamic-turnstile", seed))


def _corrupted(spec, mbc):
    """The covering with planted cluster 0's whole weight moved onto the
    first representative of the last planted cluster: far from cluster 0, so
    some center set leaves that weight uncovered."""
    label = {tuple(c): lab for c, lab in zip(spec["coords"], spec["labels"])}
    owner = [label[wp.point] for wp in mbc]
    target = owner.index(spec["k"] - 1)
    moved = sum(wp.weight for wp, o in zip(mbc, owner) if o == 0)
    return [WeightedPoint(wp.point, wp.weight + (moved if i == target else 0))
            for i, (wp, o) in enumerate(zip(mbc, owner)) if o != 0]


@pytest.mark.parametrize("metric", _METRICS)
@pytest.mark.parametrize("seed", _SEEDS)
def test_oracle_and_checker_outputs_are_pinned(inputs, seed, metric):
    spec, workdir = inputs("validate-small", seed)
    m = _METRICS[metric]
    opts, reports = [], []
    for inst in spec["instances"]:
        pts = read_points(str(workdir / inst["file"]))
        k, z, eps = inst["k"], inst["z"], inst["eps"]
        opts.append(brute_force_opt(Instance(tuple(pts), k, z, eps, m)))
        mbc = list(mbc_construction(Instance(tuple(pts), k, z, eps, m)).representatives)
        two = run_two_round(pts, k, z, eps, MpcConfig(spec["params"]["machines"]), m)
        for name, core, quality in (("mbc", mbc, eps), ("two-round", list(two.final), 3 * eps),
                                    ("corrupted", _corrupted(inst, mbc), eps)):
            r = check_coreset(pts, core, k, z, quality, m)
            reports.append((name, r.passed, r.violated_condition, r.witness))
    assert [r[1] for r in reports] == [True, True, False] * len(spec["instances"])
    _check({"opt": opts, "reports": reports}, ("validate-small", seed, metric))


PINS = {
    ('offline-mpc', 1, 'linf'): {
        'mbc':
            'f3ee3c5f425d6572e58a16774677a6254aa278ef12726e66d725ca35c6b9bc7b',
        'two-round':
            'ebd7598b04995adbd4b9b0eb392cffd383dfb08a6f3a284b878cc9c5a132c7bd',
        'one-round':
            '163209faadee942ef9b7002c9413bcf0ac27d7551c89c83a0dad0c0c92e3f9d6',
        'r-round':
            '2a6e0fe63d1ff9e9b00e0542a68348e7b8d3b61c1f5c25d75054c60f0ffe1dcc',
    },
    ('insertion-stream', 1, 'linf'): {
        'reports':
            '24e9d2559a9dacee138c7f275f922bd9b51272ab3bfd6e1aa7fba9ad20d7d5cc',
    },
    ('validate-small', 1, 'linf'): {
        'opt':
            '24804746e63f966448f4baf3244ee5a49e02480bccb1b33eda8c77267d2a534a',
        'reports':
            'c6cd63d45fb903c3e98f28aec0ec2c4ec66c18a6ff17ca93506c235cca97aaf3',
    },
    ('offline-mpc', 1, 'l2'): {
        'mbc':
            '8b8188f66e90d82aea0bf88f0810692672a5de820123b7c897d4a815a5ba77b0',
        'two-round':
            '5908dc29c16698343636c0e79c6767e1b3303ab658f9bd0ac25f8f8ae0c5df29',
        'one-round':
            '70f98dcf1419597f5ad3b0f671d72491d816d83d2e00235268aba0f0df4889d5',
        'r-round':
            '2c868f8d70618ad7ec599365d4e1de583640e028c08145a6f1f61812dce6ef36',
    },
    ('insertion-stream', 1, 'l2'): {
        'reports':
            'f3060b0fb66136ada08f50252cccb197c0b9cb78f1b2cd67550b526d2173f3ed',
    },
    ('validate-small', 1, 'l2'): {
        'opt':
            '300f9859a44e9f25badf1e24504ed1ab40a195b51a8958cf096663a4df2d3864',
        'reports':
            '5e02a878c059f53b7bb771b9132835044d9147bbda0614d38b356bcae74f9f12',
    },
    ('dynamic-turnstile', 1): {
        'sketch':
            'b3888132d21ea6cf3ec7569db74ec8af6c13193188a64cf6f35235b2bd96454a',
        'shadow':
            'edb31240c90297d3f951a35d201422cada48a1f92bb93864ef536bdea455c038',
    },
    ('offline-mpc', 1009, 'linf'): {
        'mbc':
            '26e82f6edd2af33dce8773bf982ba3cd277d43eed1d256e5f739d74baf54dcf6',
        'two-round':
            '119f0ee2a1a02f8c8a592e624831a67a907d36e7d63129983f5505520f7532a6',
        'one-round':
            'dd362e4424ccb252d21d01da8b28abe958ec5a6b3923aef4f401d71094189941',
        'r-round':
            '8c12f3f20d011e3c487ab6c7861131a09fb50e344941a0640fe193320f3fb397',
    },
    ('insertion-stream', 1009, 'linf'): {
        'reports':
            'b58b8a5f91581406bfff5bd6fd5f0addfea361b1e46ba60a1ebf0feb14afd26c',
    },
    ('validate-small', 1009, 'linf'): {
        'opt':
            '37e7c70c11fe822d7d49bf7070654b7afbee86224f11418da57ba3ebfb10b7e1',
        'reports':
            '58539b8d375e850069aa67108af8280fcd7927d684f279eccd51807519dedc64',
    },
    ('offline-mpc', 1009, 'l2'): {
        'mbc':
            'e5716ea5234d17b3010c020ffee6a7375df68c463b8af0eeb0c5549c03bf4063',
        'two-round':
            '24b291a464e879784644364f59919fb65a47b58487d03b70ae88745d0527d955',
        'one-round':
            '0b13306fee60bcd5d59c3604377f74fda4f03b804932a29365295cdb4328e01b',
        'r-round':
            'f51af2add72b13d31756771bf167bb8f2053a1aac59bd45f66b50b56ece2ac1c',
    },
    ('insertion-stream', 1009, 'l2'): {
        'reports':
            'bcd048bf4a73f032fb22fb26155ff1fef861643af6757266cbb0d273e26977c6',
    },
    ('validate-small', 1009, 'l2'): {
        'opt':
            '1580f435d2200dcf88e0a1e9da5354bf32d604ffc12caa2da430d98a58eeca39',
        'reports':
            'e25dc70539e71180ca4427991dbb0cf23e965011c10b2634618a589d3717f391',
    },
    ('dynamic-turnstile', 1009): {
        'sketch':
            '2f9b084c0be29a65f6a9368c696b4be9369510e98f264b854097bf869d71fe9c',
        'shadow':
            '695f35d90c10fe78b7abbc87792dba400f5e4bd8ede5f6f359074a28f09a31cc',
    },
}
