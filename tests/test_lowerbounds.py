import pytest

from kcoreset import (
    DynamicCoresetState, InputError, InsertionStream, Instance, LbGeometry,
    WeightedPoint, brute_force_opt, gen_dynamic_lb, gen_insertion_lb,
    gen_one_dim_lb, lb_geometry, midpoint_grid_universe, probe_cover_ok,
)

W = WeightedPoint


def test_geometry_examples():
    g = lb_geometry(1 / 16, 2)
    assert g.lam == 2 and g.h == 4.0
    assert g.r == pytest.approx(3.16228, abs=1e-5)
    assert g.r < (1 - g.epsilon) * (g.r + g.h) / 2 == pytest.approx(3.35732, abs=1e-5)
    g1 = lb_geometry(1 / 8, 1)
    assert g1.lam == 2 and g1.h == 2.0 and g1.r == pytest.approx(1.0)
    assert (1 - g1.epsilon) * (g1.r + g1.h) / 2 == pytest.approx(1.3125)
    with pytest.raises(InputError):
        lb_geometry(1 / 4, 1)  # epsilon above 1/(8d)
    with pytest.raises(InputError):
        lb_geometry(0.1, 1)  # 1/(4*d*eps) = 2.5 not an integer
    # h*h overflows; 1/(4*d*eps) is inf; d*(lam+2) is an int past the float range
    for eps, d in ((1e-300, 1), (1e-200, 3), (5e-324, 1), (1e-309, 4)):
        with pytest.raises(InputError, match="overflows"):
            lb_geometry(eps, d)


def test_geometry_derives_lam_h_and_r_only():
    g = LbGeometry(1 / 8, 1)
    assert (g.lam, g.h, g.r) == (2, 2.0, 1.0)
    for name, value in (("lam", 99), ("h", 1.0), ("r", 2.0)):
        with pytest.raises(TypeError):
            LbGeometry(1 / 8, 1, **{name: value})


def test_geometry_inequality_grid():
    for d in (1, 2, 3):
        for eps in (1 / (8 * d), 1 / (16 * d), 1 / (32 * d)):
            g = lb_geometry(eps, d)  # constructor asserts r < (1-eps)(r+h)/2
            assert g.r < (1 - eps) * (g.r + g.h) / 2


def test_insertion_lb_structure():
    k, z, eps, d = 4, 2, 1 / 16, 2
    g = lb_geometry(eps, d)
    stream = gen_insertion_lb(k, z, eps, d)
    clusters = k - 2 * d + 1
    assert len(stream) == z + clusters * (g.lam + 1) ** d
    # outliers first, on the negative first axis
    assert stream[0] == (-4 * (g.h + g.r), 0.0)
    assert stream[1] == (-8 * (g.h + g.r), 0.0)
    with pytest.raises(InputError):
        gen_insertion_lb(2, 0, 1 / 16, 2)  # k < 2d


def test_insertion_lb_probe_weights_and_cover():
    k, z, eps, d = 4, 1, 1 / 16, 2
    g = lb_geometry(eps, d)
    stream = gen_insertion_lb(k, z, eps, d, probe=(0, 4))
    probes = stream[-4 * d:]
    assert probes[0] == probes[1] and probes[2] == probes[3]  # duplicated arrivals
    assert probe_cover_ok(g, k, (0, 4))
    assert probe_cover_ok(lb_geometry(1 / 8, 1), 2, (0, 1))


def test_insertion_lb_probe_optimum_matches_formula(linf):
    # d=1 probe instance: the exact midpoint-grid optimum equals (h+r)/2
    for k, z, eps in [(2, 1, 1 / 8), (3, 0, 1 / 16), (2, 2, 1 / 8)]:
        g = lb_geometry(eps, 1)
        stream = gen_insertion_lb(k, z, eps, 1, probe=(0, 1))
        pts = tuple(W(p) for p in stream)
        inst = Instance(pts, k, z, 1.0, linf)
        opt = brute_force_opt(inst, midpoint_grid_universe()).radius
        assert opt == pytest.approx((g.h + g.r) / 2, abs=1e-6)


def test_insertion_lb_streams_feed_the_maintainer(linf):
    stream = gen_insertion_lb(5, 2, 1 / 16, 2, probe=(1, 0))
    st = InsertionStream(5, 2, 1.0, 2, linf)
    for p in stream:
        st.arrival(p)
        assert len(st.pstar) < st.threshold
    assert sum(p.weight for p in st.pstar) == len(stream)


def test_one_dim_lb_feeds_the_maintainer(linf):
    stream = gen_one_dim_lb(3, 2, include_extra=True)
    st = InsertionStream(3, 2, 1.0, 1, linf)
    for p in stream:
        st.arrival(p)
        assert len(st.pstar) < st.threshold
    assert sum(p.weight for p in st.pstar) == len(stream)


def test_one_dim_lb(linf):
    assert gen_one_dim_lb(2, 1) == [(1.0,), (2.0,), (3.0,)]
    pts = tuple(W(p) for p in gen_one_dim_lb(2, 1))
    opt = brute_force_opt(Instance(pts, 2, 1, 1.0, linf), midpoint_grid_universe()).radius
    assert opt == 0.0
    full = tuple(W(p) for p in gen_one_dim_lb(2, 1, include_extra=True))
    opt2 = brute_force_opt(Instance(full, 2, 1, 1.0, linf), midpoint_grid_universe()).radius
    assert opt2 == pytest.approx(0.5)


def test_dynamic_lb_structure_and_range():
    k, z, eps, d = 2, 1, 1 / 8, 1
    stream = gen_dynamic_lb(k, z, eps, d, 256)
    g = stream.geometry
    assert stream.delta == 256
    assert stream.g == 2  # (1/2)*log2(256) - 2
    assert stream.group_size == (g.lam + 1) ** d - (g.lam // 2 + 1) ** d
    for sign, p in stream.ops:
        assert sign == 1
        assert all(1 <= c <= stream.delta for c in p)
        assert all(isinstance(c, int) for c in p)


def test_dynamic_lb_hypothesis_gates():
    with pytest.raises(InputError):
        gen_dynamic_lb(1, 0, 1 / 8, 1, 256)  # k < 2d
    with pytest.raises(InputError):
        gen_dynamic_lb(2, 0, 1 / 8, 1, 16)  # Delta below the required minimum
    with pytest.raises(InputError):
        gen_dynamic_lb(4, 0, 1 / 12, 1, 1 << 12)  # lambda = 3 is odd


def test_dynamic_lb_2d():
    stream = gen_dynamic_lb(4, 1, 1 / 16, 2, 4096)
    assert stream.g == 4
    assert stream.group_size == 9 - 4
    assert len([op for op in stream.ops if op[0] == 1]) == \
        1 + stream.clusters * stream.g * stream.group_size


def test_dynamic_lb_scenario_replays_cleanly():
    stream = gen_dynamic_lb(2, 1, 1 / 8, 1, 256, scenario=(0, 1, 0))
    st = DynamicCoresetState(stream.delta, stream.d, 2, 1, 1 / 8,
                             with_shadow=True, with_sketches=False)
    st.apply(stream.ops)  # shadow mode raises on any negative net count
    assert st.live_count == sum(s for s, _ in stream.ops)
    deletes = [op for op in stream.ops if op[0] == -1]
    assert deletes, "scenario should delete the groups above m*"
    probes = [p for s, p in stream.ops[-4 * stream.d:]]
    assert probes[0] == probes[1]


LB_REFUSALS = {
    "insertion z=1.5": (lambda: gen_insertion_lb(2, 1.5, 1 / 8, 1), "need integers k >= 1"),
    "insertion z=True": (lambda: gen_insertion_lb(2, True, 1 / 8, 1), "need integers k >= 1"),
    "dynamic k=2.0": (lambda: gen_dynamic_lb(2.0, 0, 1 / 16, 1, 4096), "need integers k >= 1"),
    "dynamic Delta=4096.0": (lambda: gen_dynamic_lb(2, 0, 1 / 16, 1, 4096.0),
                             "Delta must be an integer"),
    "dynamic Delta=0": (lambda: gen_dynamic_lb(2, 0, 1 / 16, 1, 0), "Delta must be an integer"),
    "probe cover k=2.0": (lambda: probe_cover_ok(lb_geometry(1 / 8, 1), 2.0, (0, 0)),
                          "need integers k >= 1"),
    "geometry d=2.5": (lambda: lb_geometry(0.05, 2.5), "d must be an integer"),
    "geometry d=0": (lambda: lb_geometry(0.05, 0), "d must be an integer"),
}


@pytest.mark.parametrize("case", sorted(LB_REFUSALS))
def test_generator_refusals(case):
    # each generator checks its counts, Delta and d at its door; before, a
    # fractional count or Delta raised TypeError or AttributeError deep in
    # the construction, z=True was taken as 1 and a fractional d was kept
    make, message = LB_REFUSALS[case]
    with pytest.raises(InputError, match=message):
        make()
