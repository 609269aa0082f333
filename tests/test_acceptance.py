"""Acceptance gate: every criterion as one test, printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import json
import math
import random
import time

import pytest
from scipy import stats

from conftest import RecordingServer, random_dataset
from shrq import ces, protocols as prot
from shrq.bench import run_bench
from shrq.ces import LAYOUT_SHRQ, LAYOUT_UNIFIED
from shrq.errors import QueryRejected
from shrq.geometry import (
    RangeQuery,
    SphereQuery,
    coarse_transform,
    covering_radii,
    dist_squared,
    make_data_component,
    make_sphere_query_component,
)
from shrq.oracle import hrq_oracle, range_oracle
from shrq.pairing import CURVE_A1, TRANSPARENT, group_gen
from shrq.server import ServerState
from reference import annulus_oracle, layered_radii, make_range_query_component, plaintext_dot


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"[acceptance] criterion {num:2d} FAIL - {title}")
                raise
            print(f"[acceptance] criterion {num:2d} PASS - {title}")

        return wrapper

    return deco


def _deploy(protocol, layout, v, e_max, seed, d=2, x_max=100, lam=32, backend=TRANSPARENT):
    config = prot.make_config(protocol, d, v, x_max, e_max=e_max, backend=backend, layout=layout)
    sk, _ = ces.keygen(lam, d, layout, v, x_max, backend, rng=random.Random(seed))
    return config, sk


@criterion(1, "pairing laws, 100 randomized trials per backend")
def test_c01_pairing_laws():
    budgets = {TRANSPARENT: 10.0, CURVE_A1: 300.0}
    for backend in (TRANSPARENT, CURVE_A1):
        rng = random.Random(101)
        start = time.monotonic()
        grp = group_gen(32, backend, rng)
        q1, q2, n = grp.params.q1, grp.params.q2, grp.N
        g = grp.random_generator(rng)
        egg = grp.pair(g, g)
        assert egg != grp.identity_gt()  # non-degeneracy
        assert grp.pow(egg, n) == grp.identity_gt()  # order-N annihilation
        for _ in range(100):
            x, y = grp.random_generator(rng), grp.random_generator(rng)
            a, b = rng.randrange(n), rng.randrange(n)
            lhs = grp.pair(grp.pow(x, a), grp.pow(y, b))
            rhs = grp.pow(grp.pair(x, y), a * b % n)
            assert lhs == rhs  # bilinearity
            ortho = grp.pair(grp.pow(g, q1 * rng.randrange(1, n)), grp.pow(g, q2 * rng.randrange(1, n)))
            assert ortho == grp.identity_gt()  # subgroup orthogonality
            if backend == TRANSPARENT:
                assert lhs.value == x.value * a * y.value * b % n  # exact exponent check
        assert time.monotonic() - start < budgets[backend]


@criterion(2, "backend cross-validation: identical ResultSets on a full run")
def test_c02_backend_cross_validation():
    rng = random.Random(202)
    dataset = random_dataset(rng, 20)
    queries = [
        SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(0, 11))
        for _ in range(10)
    ]
    outcomes = []
    for backend in (TRANSPARENT, CURVE_A1):
        config, sk = _deploy("t", LAYOUT_SHRQ, v=100, e_max=0, seed=77, backend=backend)
        server = ServerState()
        prot.run_setup(config, sk, dataset, server, rng=random.Random(1))
        outcomes.append([prot.query_sphere(config, sk, q, server).records for q in queries])
    assert outcomes[0] == outcomes[1]


@criterion(3, "compute() equals e(s,s)^(alpha(dot+beta)) on 10^3 component pairs")
def test_c03_compute_correctness():
    rng = random.Random(303)
    config, sk = _deploy("t", LAYOUT_SHRQ, v=400, e_max=0, seed=33)
    grp = sk.group
    ss = grp.pair(sk.s, sk.s)
    for _ in range(1000):
        c_m = make_data_component((rng.randrange(101), rng.randrange(101)), LAYOUT_SHRQ)
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(0, 21))
        c_q = make_sphere_query_component(q, LAYOUT_SHRQ)
        enc_m = ces.tuple_encrypt(sk, c_m, rng=rng)
        enc_q = ces.query_encrypt(sk, c_q, config.d, rng=rng)
        value = ces.compute(grp, enc_m, ces.prepare_query(grp, enc_q))
        direct = grp.pow(ss, sk.alpha * (plaintext_dot(c_m, c_q) + sk.beta))
        assert grp.canonical_bytes(value) == grp.canonical_bytes(direct)
        # blinding independence: fresh randomness, same deterministic value
        enc_q = ces.query_encrypt(sk, c_q, config.d, rng=rng)
        again = ces.compute(grp, ces.tuple_encrypt(sk, c_m, rng=rng), ces.prepare_query(grp, enc_q))
        assert again == value


@criterion(4, "single-table protocol is oracle-exact before and after validation")
def test_c04_table_protocol_exact():
    rng = random.Random(404)
    start = time.monotonic()
    dataset = random_dataset(rng, 200)
    config, sk = _deploy("t", LAYOUT_SHRQ, v=400, e_max=0, seed=44)
    server = RecordingServer(ServerState())
    prot.run_setup(config, sk, dataset, server, rng=rng)
    for _ in range(50):
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(0, 21))
        result, pre = server.query(prot.query_sphere, config, sk, q)
        want = hrq_oracle(dataset, q)
        assert pre == want  # zero false negatives AND zero false positives
        assert result.ids == want
    assert time.monotonic() - start < 60.0


@criterion(5, "coarse protocol: superset pre-validation, exact after, minimal level")
def test_c05_coarse_protocol():
    rng = random.Random(505)
    dataset = random_dataset(rng, 200)
    config, sk = _deploy("c", LAYOUT_SHRQ, v=400, e_max=3, seed=55)
    server = RecordingServer(ServerState())
    prot.run_setup(config, sk, dataset, server, rng=rng)
    root_v = math.isqrt(400)
    rejected = accepted = 0
    for _ in range(50):
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(0, 161))
        try:
            result, pre = server.query(prot.query_sphere, config, sk, q)
        except QueryRejected:
            # only radii failing the published support rule may be rejected
            assert q.radius / 2**3 + math.sqrt(2) > root_v
            rejected += 1
            continue
        accepted += 1
        want = hrq_oracle(dataset, q)
        assert pre >= want  # false-negative count = 0
        assert result.ids == want
        # executed level is the minimal qualifying exponent (independent scan)
        qualifying = [0] if q.radius <= root_v else []
        qualifying += [e for e in range(1, 4) if q.radius / 2**e + math.sqrt(2) <= root_v + 1e-9]
        assert server.query_levels == [min(qualifying)]
    assert accepted >= 40 and rejected >= 1  # both paths exercised


@criterion(6, "layered protocol: per-layer annulus exactness, zero false negatives")
def test_c06_layered_protocol():
    rng = random.Random(606)
    dataset = random_dataset(rng, 200)
    config, sk = _deploy("l", LAYOUT_SHRQ, v=400, e_max=3, seed=66)
    assert config.b_c == 5
    server = ServerState()
    prot.run_setup(config, sk, dataset, server, rng=rng)
    for _ in range(50):
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(0, 201))
        plan = covering_radii(q.radius, 400, 2, config.factors)
        union = set()
        for layer in plan:
            tq = SphereQuery(coarse_transform(q.center, layer.factor), layer.scaled_radius)
            comp = make_sphere_query_component(tq, LAYOUT_SHRQ)
            reply = server.request(prot.query_message(config, sk, comp, layer.index))
            got = {m["id"] for m in reply["matches"]}
            # margin in force: each layer returns exactly its annulus
            assert got == annulus_oracle(dataset, q.center, layer.scaled_radius, 400, layer.factor)
            union |= got
        want = hrq_oracle(dataset, q)
        assert union >= want  # layer union has zero false negatives
        result = prot.query_sphere(config, sk, q, server)
        assert result.ids == want
    # the width-based recurrence trace is preserved: r=60 -> layers (0, 1),
    # scaled radii (60, 10); the executed gap-free plan uses the same layers
    trace = layered_radii(60, 400, 2, 5)
    assert [(l.index, l.scaled_radius) for l in trace] == [(0, 60), (1, 10)]
    executed = covering_radii(60, 400, 2, config.factors)
    assert [l.index for l in executed] == [l.index for l in trace] == [0, 1]


@criterion(7, "range queries: oracle-exact, wire-indistinguishable from spheres")
def test_c07_range_queries():
    rng = random.Random(707)
    dataset = random_dataset(rng, 200)
    config, sk = _deploy("c", LAYOUT_UNIFIED, v=400, e_max=3, seed=78)
    server = ServerState()
    prot.run_setup(config, sk, dataset, server, rng=rng)
    for i in range(50):
        lo = rng.randrange(0, 101)
        width = rng.randrange(0, 101 - lo)
        if i % 2:  # force plenty of odd widths
            width |= 1
        rq = RangeQuery(rng.choice((1, 2)), lo, min(lo + width, 100))
        assert prot.query_range(config, sk, rq, server).ids == range_oracle(dataset, rq)
    # open range [25, inf) over a column with maximum 60 becomes [25, 60]
    rq = RangeQuery(1, 25, 60)
    assert prot.query_range(config, sk, rq, server).ids == range_oracle(dataset, rq)

    # obliviousness: same wire length for sphere/range/column choices
    comps = [
        make_sphere_query_component(SphereQuery((50, 60), 15), LAYOUT_UNIFIED),
        make_sphere_query_component(SphereQuery((9, 0), 4), LAYOUT_UNIFIED, col=1),
        make_sphere_query_component(SphereQuery((0, 73), 11), LAYOUT_UNIFIED, col=2),
        make_range_query_component(RangeQuery(1, 25, 50), 2)[0],
        make_range_query_component(RangeQuery(2, 3, 98), 2)[0],
    ]
    sizes = {
        len(json.dumps(prot.query_message(config, sk, comp, 0), sort_keys=True)) for comp in comps
    }
    assert len(sizes) == 1


@criterion(8, "coarse-distance inequality holds on 10^4 random pairs")
def test_c08_distance_inequality_fuzz():
    rng = random.Random(808)
    for _ in range(10**4):
        d = rng.choice((2, 3))
        f = rng.choice((2, 3, 4, 8))
        a = tuple(rng.randrange(0, 1000) for _ in range(d))
        b = tuple(rng.randrange(0, 1000) for _ in range(d))
        d1 = math.dist(a, b)
        df = math.dist(coarse_transform(a, f), coarse_transform(b, f))
        assert d1 / f - math.sqrt(d) - 1e-9 <= df <= d1 / f + math.sqrt(d) + 1e-9


@criterion(9, "dynamic updates stay oracle-exact across a mid-sequence restart")
def test_c09_dynamic_updates(tmp_path):
    rng = random.Random(909)
    dataset = random_dataset(rng, 60)
    config, sk = _deploy("c", LAYOUT_UNIFIED, v=400, e_max=3, seed=99)
    state_dir = str(tmp_path / "state")
    server = ServerState(state_dir)
    prot.run_setup(config, sk, dataset, server, rng=rng)
    alive = dict(dataset)

    def check():
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(0, 80))
        assert prot.query_sphere(config, sk, q, server).ids == hrq_oracle(alive.items(), q)
        rq = RangeQuery(rng.choice((1, 2)), 20, 70)
        assert prot.query_range(config, sk, rq, server).ids == range_oracle(alive.items(), rq)

    for step in range(100):
        op = rng.choice(("insert", "delete", "update"))
        if op == "insert" or not alive:
            rid, coords = f"n{step}", (rng.randrange(101), rng.randrange(101))
            prot.insert_point(config, sk, rid, coords, server)
            alive[rid] = coords
        elif op == "delete":
            rid = rng.choice(sorted(alive))
            prot.delete_point(config, sk, rid, server)
            del alive[rid]
        else:
            rid = rng.choice(sorted(alive))
            coords = (rng.randrange(101), rng.randrange(101))
            prot.update_point(config, sk, rid, coords, server)
            alive[rid] = coords
        if step % 10 == 0:
            check()
        if step == 50:  # crash and restart between two acknowledged messages
            server.close()
            server = ServerState(state_dir)
            assert set(server.db_store) == set(alive)
            check()
    check()
    server.close()


@criterion(10, "bench sweeps: times grow with dimensions and with data size")
def test_c10_bench_shapes():
    rows = run_bench(points=400, d_max=6, queries=12, seed=10)
    dims = [r for r in rows if r["sweep"] == "dims"]
    size = [r for r in rows if r["sweep"] == "size"]
    checks = [
        ([r["d"] for r in dims], [r["tuple_enc_s"] for r in dims]),
        ([r["d"] for r in dims], [r["query_s"] for r in dims]),
        ([r["points"] for r in size], [r["tuple_enc_s"] for r in size]),
        ([r["points"] for r in size], [r["query_s"] for r in size]),
    ]
    for xs, ys in checks:
        rho = stats.spearmanr(xs, ys).statistic
        assert rho > 0.9, (xs, ys, rho)
