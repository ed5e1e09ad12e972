"""The lower-bound generators' outputs over a parameter sweep, pinned by one
SHA-256 each, and their index checks."""

import hashlib

import pytest

from kcoreset import InputError, gen_dynamic_lb, gen_insertion_lb, lb_geometry, probe_cover_ok
from kcoreset.cli import main

_KS = range(2, 8)
_ZS = range(0, 4)
_DS = (1, 2, 3)
_DELTAS = (256, 4096, 1 << 16)


def _eps(d):
    """Two epsilons per dimension, lambda = 2 and lambda = 4 (both even)."""
    return (1 / (8 * d), 1 / (16 * d))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InputError:
        return "InputError"


def _probes(k, d, eps):
    """No probe, then the first, a middle and the last (cluster, point) pair."""
    n_clusters = k - 2 * d + 1
    n_points = (lb_geometry(eps, d).lam + 1) ** d
    if n_clusters < 1:
        return [None, (0, 0)]
    return [None, (0, 0), (n_clusters // 2, n_points // 2), (n_clusters - 1, n_points - 1)]


def _scenarios(k, d, eps, delta):
    """No scenario, then the first, a middle and the last (cluster, m*, point)."""
    base = _outcome(gen_dynamic_lb, k, 0, eps, d, delta)
    if base == "InputError":
        return [None, (0, 1, 0)]
    c, g, n = base.clusters, base.g, base.group_size
    return [None, (0, 1, 0), (c // 2, (g + 1) // 2, n // 2), (c - 1, g, n - 1)]


def _digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(rec).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_insertion_lb_outputs_are_pinned():
    records = []
    for d in _DS:
        for eps in _eps(d):
            for k in _KS:
                for z in _ZS:
                    for probe in _probes(k, d, eps):
                        records.append((k, z, eps, d, probe,
                                        _outcome(gen_insertion_lb, k, z, eps, d, probe=probe)))
    assert len(records) == 480
    assert _digest(records) == \
        "f1f180e742829da95c3585189e932cc9ac7a18e420ad434006c351823785399f"


def test_probe_cover_verdicts_are_pinned():
    records = []
    for d in _DS:
        for eps in _eps(d):
            for k in _KS:
                for probe in _probes(k, d, eps)[1:]:
                    records.append((k, eps, d, probe,
                                    _outcome(probe_cover_ok, lb_geometry(eps, d), k, probe)))
    assert len(records) == 84
    assert _digest(records) == \
        "9701153097382bbf7790536a20a1afed89f2cb952240570929e2c323a095abd1"


def test_dynamic_lb_outputs_are_pinned():
    records = []
    for d in _DS:
        for eps in _eps(d):
            for delta in _DELTAS:
                for k in _KS:
                    for z in _ZS:
                        for scenario in _scenarios(k, d, eps, delta):
                            s = _outcome(gen_dynamic_lb, k, z, eps, d, delta, scenario=scenario)
                            if s != "InputError":
                                s = (s.ops, s.delta, s.d, s.g, s.clusters, s.group_size)
                            records.append((k, z, eps, d, delta, scenario, s))
    assert len(records) == 1168
    assert _digest(records) == \
        "3146c297913a189413917d2442b191aa151aab6c7e1304d575244bbd89fce753"


@pytest.mark.parametrize("probe", [(5, 0), (0, 9), (-1, 0), (0, -1)])
def test_probe_indices_are_checked(probe):
    # k=4, d=2, lambda=2: one cluster of nine points
    with pytest.raises(InputError, match="probe"):
        gen_insertion_lb(4, 1, 1 / 16, 2, probe=probe)
    with pytest.raises(InputError, match="probe"):
        probe_cover_ok(lb_geometry(1 / 16, 2), 4, probe)


@pytest.mark.parametrize("scenario", [(1, 1, 0), (-1, 1, 0), (0, 0, 0), (0, 3, 0),
                                      (0, 1, 1), (0, 1, 999), (0, 1, -1)])
def test_scenario_indices_are_checked(scenario):
    # k=2, d=1, lambda=2, Delta=256: one cluster of g=2 groups of one point each
    stream = gen_dynamic_lb(2, 1, 1 / 8, 1, 256)
    assert (stream.clusters, stream.g, stream.group_size) == (1, 2, 1)
    with pytest.raises(InputError, match="scenario"):
        gen_dynamic_lb(2, 1, 1 / 8, 1, 256, scenario=scenario)


def test_negative_outlier_counts_are_refused():
    with pytest.raises(InputError, match="z >= 0"):
        gen_insertion_lb(2, -1, 1 / 8, 1)
    with pytest.raises(InputError, match="z >= 0"):
        gen_dynamic_lb(2, -1, 1 / 8, 1, 256)


@pytest.mark.parametrize("argv", [
    "--family insertion-lb --k 2 --z 1 --probe 5 0",
    "--family insertion-lb --k 2 --z 1 --probe 0 9",
    "--family insertion-lb --k 2 --z 1 --probe -1 0",
    "--family insertion-lb --k 2 --z 1 --probe 0 -1",
    "--family insertion-lb --k 2 --z -1",
    "--family dynamic-lb --k 2 --z 1 --delta 256 --scenario 0 1 999",
    "--family dynamic-lb --k 2 --z 1 --delta 256 --scenario 0 1 -1",
    "--family dynamic-lb --k 2 --z -1 --delta 256",
])
def test_cli_refuses_bad_generator_indices(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    assert main(["gen", *argv.split(), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("input error:")
    assert not out.exists()
