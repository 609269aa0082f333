from conftest import random_dataset
from shrq.geometry import RangeQuery, SphereQuery, covering_radii
from shrq.oracle import hrq_oracle, range_oracle
from reference import annulus_oracle, hrq_oracle_dot_form, range_oracle_dot_form


def test_sphere_zero_radius_hits_exact_point(rng):
    ds = [("a", (3, 4)), ("b", (3, 5)), ("c", (3, 4))]
    assert hrq_oracle(ds, SphereQuery((3, 4), 0)) == {"a", "c"}


def test_sphere_all_points_radius(rng):
    ds = random_dataset(rng, 50)
    assert hrq_oracle(ds, SphereQuery((50, 50), 200)) == {rid for rid, _ in ds}


def test_dot_form_agrees_with_distance_form(rng):
    ds = random_dataset(rng, 100, x_max=60)
    for _ in range(30):
        q = SphereQuery((rng.randrange(61), rng.randrange(61)), rng.randrange(0, 40))
        assert hrq_oracle(ds, q) == hrq_oracle_dot_form(ds, q)


def test_range_oracle_basics(rng):
    ds = random_dataset(rng, 80)
    assert range_oracle(ds, RangeQuery(1, 30, 30)) == {r for r, c in ds if c[0] == 30}
    assert range_oracle(ds, RangeQuery(2, 0, 100)) == {r for r, _ in ds}


def test_range_dot_form_cross_check(rng):
    ds = random_dataset(rng, 100)
    for _ in range(30):
        lo = rng.randrange(0, 101)
        rq = RangeQuery(rng.choice((1, 2)), lo, rng.randrange(lo, 101))
        assert range_oracle(ds, rq) == range_oracle_dot_form(ds, rq, 2)


def test_annulus_oracle_f1_small_radius_equals_sphere(rng):
    ds = random_dataset(rng, 100)
    for _ in range(20):
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(0, 21))
        assert annulus_oracle(ds, q.center, q.radius, 400, 1) == hrq_oracle(ds, q)


def test_annulus_oracle_excludes_far_point():
    ds = [("far", (99, 99)), ("near", (1, 1))]
    assert annulus_oracle(ds, (0, 0), 10, 400, 1) == {"near"}


def test_layer_union_covers_sphere(rng):
    ds = random_dataset(rng, 200)
    for r in (25, 60, 120, 200):
        center = (rng.randrange(101), rng.randrange(101))
        plan = covering_radii(r, 400, 2, (1, 5, 25, 125, 625))
        union = set()
        for layer in plan:
            union |= annulus_oracle(ds, center, layer.scaled_radius, 400, layer.factor)
        assert union >= hrq_oracle(ds, SphereQuery(center, r))
