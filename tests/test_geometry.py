import math

import pytest

from shrq.ces import LAYOUT_SHRQ, LAYOUT_UNIFIED
from shrq.errors import ConfigError, IngestionError, QueryRejected
from shrq.geometry import (
    Layer,
    RangeQuery,
    SphereQuery,
    coarse_layer,
    coarse_transform,
    coarsity_base,
    covering_radii,
    dist_squared,
    make_data_component,
    make_sphere_query_component,
    range_to_sphere,
    scaled_radius,
    sphere_contains,
    validate_point,
)
from reference import layered_radii, make_range_query_component, plaintext_dot


# -- components ---------------------------------------------------------------


def test_data_component_layouts():
    assert make_data_component((3, 4), LAYOUT_SHRQ) == (3, 4, 1, 25)
    assert make_data_component((3, 4), LAYOUT_UNIFIED) == (3, 4, 1, 9, 16)
    assert make_data_component((0, 0), LAYOUT_SHRQ) == (0, 0, 1, 0)


def test_sphere_component_d1():
    comp = make_sphere_query_component(SphereQuery((2,), 2), LAYOUT_SHRQ)
    assert comp == (4, 0, -1)
    data = make_data_component((3,), LAYOUT_SHRQ)
    assert plaintext_dot(data, comp) == 3  # r^2 - (3-2)^2


def test_sphere_component_zero_radius_origin():
    comp = make_sphere_query_component(SphereQuery((0, 0), 0), LAYOUT_SHRQ)
    for m in ((0, 0), (1, 0), (3, 4)):
        dot = plaintext_dot(make_data_component(m, LAYOUT_SHRQ), comp)
        assert dot == -(m[0] ** 2 + m[1] ** 2)
        assert dot <= 0 and (dot == 0) == (m == (0, 0))


def test_sphere_component_unified_subset(rng):
    comp = make_sphere_query_component(SphereQuery((1, 2), 3), LAYOUT_UNIFIED, cols=(1, 2))
    assert comp == (2, 4, 4, -1, -1)
    for _ in range(10):
        m = (rng.randrange(10), rng.randrange(10))
        dot = plaintext_dot(make_data_component(m, LAYOUT_UNIFIED), comp)
        assert dot == 9 - dist_squared(m, (1, 2))


def test_sphere_component_single_column(rng):
    comp = make_sphere_query_component(SphereQuery((7, 0), 4), LAYOUT_UNIFIED, cols=(1,))
    for _ in range(10):
        m = (rng.randrange(20), rng.randrange(20))
        dot = plaintext_dot(make_data_component(m, LAYOUT_UNIFIED), comp)
        assert dot == 16 - (m[0] - 7) ** 2  # second column contributes nothing


def test_sphere_component_subset_needs_unified():
    with pytest.raises(ConfigError):
        make_sphere_query_component(SphereQuery((1, 2), 3), LAYOUT_SHRQ, cols=(1,))


def test_range_component_example():
    comp, sphere = make_range_query_component(RangeQuery(1, 25, 50), 2)
    assert sphere == SphereQuery((38, 0), 13)
    assert comp == (76, 0, -1275, -1, 0)
    for m1, want in ((25, 0), (51, 0), (24, -27), (38, 169)):
        dot = plaintext_dot(make_data_component((m1, 9), LAYOUT_UNIFIED), comp)
        assert dot == want


def test_range_to_sphere_widths():
    assert range_to_sphere(RangeQuery(1, 10, 20), 1) == SphereQuery((15,), 5)
    assert range_to_sphere(RangeQuery(1, 25, 50), 1) == SphereQuery((38,), 13)  # odd: over-covers 51
    assert range_to_sphere(RangeQuery(1, 7, 7), 1) == SphereQuery((7,), 0)


def test_range_component_requires_unified():
    with pytest.raises(ConfigError):
        make_range_query_component(RangeQuery(1, 0, 4), 2, layout=LAYOUT_SHRQ)


def test_range_equivalence_sweep():
    comp, sphere = make_range_query_component(RangeQuery(1, 12, 31), 1)
    r2 = sphere.radius**2
    for m in range(0, 60):
        dot = plaintext_dot(make_data_component((m,), LAYOUT_UNIFIED), comp)
        if 12 <= m <= 31:
            assert 0 <= dot <= r2
        elif m == 32:  # odd-width over-cover, trimmed by validation
            assert 0 <= dot <= r2
        else:
            assert dot < 0


# -- coarse transforms ----------------------------------------------------------


def test_coarse_transform():
    assert coarse_transform((7, 9), 4) == (1, 2)
    assert coarse_transform((7, 9), 1) == (7, 9)


def test_distance_impact_example():
    a, b, f = (0, 0), (3, 3), 2
    d1 = math.dist(a, b)
    df = math.dist(coarse_transform(a, f), coarse_transform(b, f))
    assert d1 / f - math.sqrt(2) <= df <= d1 / f + math.sqrt(2)


def test_distance_impact_fuzz(rng):
    for _ in range(2000):
        d = rng.choice((2, 3))
        f = rng.choice((2, 3, 4, 8))
        a = tuple(rng.randrange(0, 500) for _ in range(d))
        b = tuple(rng.randrange(0, 500) for _ in range(d))
        d1 = math.dist(a, b)
        df = math.dist(coarse_transform(a, f), coarse_transform(b, f))
        assert d1 / f - math.sqrt(d) - 1e-9 <= df <= d1 / f + math.sqrt(d) + 1e-9


def test_coarsity_base_values():
    assert coarsity_base(400, 2) == 5
    assert coarsity_base(100, 2) == 2
    with pytest.raises(ConfigError):
        coarsity_base(16, 4)  # floor(4/5) = 0


def test_coarse_layer():
    assert coarse_layer(25, 400, 2, 3) == Layer(1, 25.0, 14, 2)  # ceil(12.5 + 1.414) = 14
    assert coarse_layer(20, 400, 2, 3) == Layer(0, 20.0, 20, 1)  # r <= sqrt(v)
    with pytest.raises(QueryRejected):
        coarse_layer(500, 400, 2, 3)  # 62.5 + 1.414 > 20
    with pytest.raises(QueryRejected, match=r"r > sqrt\(v\).*E_max = 0"):
        coarse_layer(21, 400, 2, 0)  # the single-table protocol's bound


def test_scaled_radius():
    assert scaled_radius(7, 1, 3) == 7  # factor 1 adds no floor error
    assert scaled_radius(25, 2, 2) == 14
    assert scaled_radius(24, 4, 4) == 8  # ceil(6 + 2 - EPS) stays 8


def test_coarse_layer_is_minimal(rng):
    root = math.isqrt(400)
    for _ in range(500):
        r = rng.randrange(0, 149)
        e = coarse_layer(r, 400, 2, 3).index
        qualifying = [0] if r <= root else []
        qualifying += [k for k in range(1, 4) if r / 2**k + math.sqrt(2) <= root + 1e-9]
        assert e == min(qualifying)


# -- layer plans ------------------------------------------------------------------


def test_layered_radii_trace_r60():
    plan = layered_radii(60, 400, 2, 5)
    assert [layer.index for layer in plan] == [0, 1]
    assert plan[0].scaled_radius == 60
    assert plan[1].radius == pytest.approx(47.0710678, abs=1e-6)
    assert plan[1].scaled_radius == 10  # ceil(47.071 / 5)
    assert plan[1].factor == 5


def test_layered_radii_single_layer():
    plan = layered_radii(15, 400, 2, 5)
    assert len(plan) == 1 and plan[0].scaled_radius == 15


def test_layered_radii_layer_cap():
    with pytest.raises(QueryRejected):
        layered_radii(200, 400, 2, 5, e_max=1)


def test_layered_radii_count_bound(rng):
    for _ in range(300):
        v = rng.choice((100, 225, 400, 900))
        d = rng.choice((2, 3))
        try:
            b_c = coarsity_base(v, d)
        except ConfigError:
            continue
        r = rng.randrange(1, 40 * math.isqrt(v))
        plan = layered_radii(r, v, d, b_c)
        bound = 1 if r <= math.sqrt(v) else math.ceil(math.log(r / math.sqrt(v), b_c)) + 1
        assert len(plan) <= bound + 1


def test_scaled_radius_bounds_final_layer(rng):
    # the terminating layer always fits the table; middle layers need not
    for planner in (layered_radii, covering_radii):
        for _ in range(200):
            v = rng.choice((100, 400, 900))
            d = rng.choice((2, 3))
            try:
                b_c = coarsity_base(v, d)
            except ConfigError:
                continue
            r = rng.randrange(1, 20 * math.isqrt(v))
            plan = planner(r, v, d, b_c, 12)
            last = plan[-1]
            if last.index > 0:
                assert last.scaled_radius <= math.isqrt(v) + 1


def test_covering_radii_trace_r60():
    plan = covering_radii(60, 400, 2, 5, 3)
    assert [layer.index for layer in plan] == [0, 1]
    assert plan[1].scaled_radius == 13  # ceil(sqrt(3200)/5 + sqrt(2))


def test_annulus_edge_inequality(rng):
    # the exact inner edge sqrt(r^2 - v) never lies below r - sqrt(v)
    for _ in range(500):
        v = rng.randrange(1, 1000)
        r = rng.randrange(math.isqrt(v) + 1, 4000)
        assert math.sqrt(r * r - v) >= r - math.sqrt(v) - 1e-9


def _plan_covers(plan, center, coords, v):
    for layer in plan:
        d2 = dist_squared(
            coarse_transform(coords, layer.factor), coarse_transform(center, layer.factor)
        )
        if max(0, layer.scaled_radius**2 - v) <= d2 <= layer.scaled_radius**2:
            return True
    return False


def test_width_recurrence_leaves_gap_covering_does_not():
    # (28, 49) from center (0, 0) at r=60, v=400, b_c=5: inside the sphere,
    # missed by both layers of the width-based plan, caught by the covering plan
    center, pt, v = (0, 0), (28, 49), 400
    assert dist_squared(center, pt) <= 60 * 60
    literal = layered_radii(60, v, 2, 5)
    assert not _plan_covers(literal, center, pt, v)
    covering = covering_radii(60, v, 2, 5, 3)
    assert _plan_covers(covering, center, pt, v)


def test_covering_radii_full_coverage_grid(rng):
    v, d, b_c = 400, 2, 5
    for r in (21, 35, 60, 90, 141, 200):
        plan = covering_radii(r, v, d, b_c, 4)
        center = (rng.randrange(101), rng.randrange(101))
        for x in range(0, 101, 3):
            for y in range(0, 101, 3):
                if dist_squared((x, y), center) <= r * r:
                    assert _plan_covers(plan, center, (x, y), v), (r, center, (x, y))


def test_covering_radii_layer_cap():
    with pytest.raises(QueryRejected):
        covering_radii(200, 400, 2, 5, e_max=1)


# -- sphere membership equivalence -------------------------------------------------


def test_sphere_membership_equivalence_grid(rng):
    for _ in range(20):
        q = SphereQuery((rng.randrange(50), rng.randrange(50)), rng.randrange(0, 30))
        comp = make_sphere_query_component(q, LAYOUT_SHRQ)
        for x in range(0, 50, 2):
            for y in range(0, 50, 2):
                dot = plaintext_dot(make_data_component((x, y), LAYOUT_SHRQ), comp)
                inside = sphere_contains((x, y), q)
                assert inside == (0 <= dot <= q.radius**2)
                assert inside == (dot >= 0)  # dot <= r^2 holds automatically


def test_unified_and_base_layouts_agree(rng):
    for _ in range(50):
        q = SphereQuery((rng.randrange(30), rng.randrange(30)), rng.randrange(0, 20))
        m = (rng.randrange(30), rng.randrange(30))
        dots = [
            plaintext_dot(make_data_component(m, layout), make_sphere_query_component(q, layout))
            for layout in (LAYOUT_SHRQ, LAYOUT_UNIFIED)
        ]
        assert dots[0] == dots[1]


# -- validation helpers --------------------------------------------------------------


def test_validate_point_errors():
    assert validate_point((0, 100), 2, 100) == (0, 100)
    with pytest.raises(IngestionError, match="r7"):
        validate_point((0, 101), 2, 100, label="r7")
    with pytest.raises(IngestionError):
        validate_point((-1, 0), 2, 100)
    with pytest.raises(IngestionError):
        validate_point((0,), 2, 100)
    with pytest.raises(IngestionError):
        validate_point((0.5, 1), 2, 100)


def test_range_query_validation():
    with pytest.raises(ConfigError):
        RangeQuery(1, 5, 4)
    with pytest.raises(ConfigError):
        RangeQuery(0, 1, 2)
    with pytest.raises(ConfigError):
        SphereQuery((1,), -1)
