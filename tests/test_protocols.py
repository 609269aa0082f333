import json
import math
import random

import pytest

from conftest import RecordingServer, random_dataset
from shrq import ces, protocols as prot
from shrq.ces import LAYOUT_SHRQ, LAYOUT_UNIFIED
from shrq.pairing import TRANSPARENT
from shrq.errors import (
    ConfigError,
    DataIntegrityError,
    DuplicateIdError,
    NotFoundError,
    QueryRejected,
    SetupError,
)
from shrq.geometry import (
    Layer,
    RangeQuery,
    SphereQuery,
    covering_radii,
    make_sphere_query_component,
)
from shrq.oracle import hrq_oracle, range_oracle
from shrq.server import ServerState
from reference import make_range_query_component

_KEY_CACHE = {}


def deployment(protocol, layout=LAYOUT_SHRQ, v=400, e_max=0, d=2, x_max=100, lam=32, seed=99):
    config = prot.make_config(protocol, d, v, x_max, e_max=e_max, backend=TRANSPARENT, layout=layout)
    cache = (layout, v, d, x_max, lam, seed)
    if cache not in _KEY_CACHE:
        _KEY_CACHE[cache] = ces.keygen(lam, d, layout, v, x_max, TRANSPARENT, rng=random.Random(seed))[0]
    return config, _KEY_CACHE[cache]


def loaded_server(config, sk, dataset, rng=None):
    server = ServerState()
    prot.run_setup(config, sk, dataset, server, rng=rng)
    return server


# -- setup stream ---------------------------------------------------------------


def test_setup_message_counts(rng):
    ds = random_dataset(rng, 3)
    config, sk = deployment("t")
    msgs = list(prot.setup_messages(config, sk, ds, rng=rng))
    kinds = [m["type"] for m in msgs]
    assert kinds.count("put_store") == 3
    assert kinds.count("put_tuple") == 3  # single level
    assert kinds.count("put_lookup") == 1
    assert kinds.count("hello") == 1

    config, sk = deployment("c", e_max=2)
    msgs = list(prot.setup_messages(config, sk, ds, rng=rng))
    tuples = [m for m in msgs if m["type"] == "put_tuple"]
    assert len(tuples) == 9  # one per point per level f = 1, 2, 4
    assert {m["level"] for m in tuples} == {0, 1, 2}


def test_setup_layered_uses_base_powers(rng):
    ds = [("1", (50, 75))]
    config, sk = deployment("l", v=400, e_max=2)
    assert config.b_c == 5
    assert [config.level_factor(e) for e in range(3)] == [1, 5, 25]
    msgs = [m for m in prot.setup_messages(config, sk, ds, rng=rng) if m["type"] == "put_tuple"]
    assert len(msgs) == 3


def test_setup_rejects_duplicate_ids(rng):
    config, sk = deployment("t")
    with pytest.raises(SetupError, match="dup"):
        list(prot.setup_messages(config, sk, [("dup", (1, 1)), ("dup", (2, 2))], rng=rng))


def test_setup_rejects_out_of_domain(rng):
    config, sk = deployment("t")
    with pytest.raises(Exception, match="bad-rec"):
        list(prot.setup_messages(config, sk, [("bad-rec", (1, 101))], rng=rng))


# -- record blobs ------------------------------------------------------------------


def test_record_blob_roundtrip_and_binding(sk32):
    blob = prot.encrypt_record(sk32, "r1", (3, 4))
    assert prot.decrypt_record(sk32, "r1", blob) == (3, 4)
    with pytest.raises(DataIntegrityError):
        prot.decrypt_record(sk32, "r2", blob)  # AAD binds the id
    with pytest.raises(DataIntegrityError):
        prot.decrypt_record(sk32, "r1", blob[:-1] + bytes([blob[-1] ^ 1]))


# -- sphere pipelines ------------------------------------------------------------------


def test_table_protocol_oracle_exact(rng):
    ds = random_dataset(rng, 120)
    config, sk = deployment("t")
    server = RecordingServer(loaded_server(config, sk, ds, rng))
    for _ in range(15):
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(0, 21))
        result, pre = server.query(prot.query_sphere, config, sk, q)
        want = hrq_oracle(ds, q)
        assert result.ids == want
        assert pre == want  # pre-validation already exact under the margin


def test_table_protocol_rejects_fast(rng):
    config, sk = deployment("t")
    server = RecordingServer(loaded_server(config, sk, random_dataset(rng, 5), rng))
    with pytest.raises(QueryRejected, match=r"r > sqrt\(v\)"):
        prot.query_sphere(config, sk, SphereQuery((1, 1), 21), server)
    assert server.requests == 0  # rejected before anything went out


def test_query_with_r0_returns_coincident_points(rng):
    ds = [("a", (9, 9)), ("b", (9, 9)), ("c", (9, 10))]
    config, sk = deployment("t")
    server = loaded_server(config, sk, ds, rng)
    assert prot.query_sphere(config, sk, SphereQuery((9, 9), 0), server).ids == {"a", "b"}


def test_coarse_protocol_oracle_exact(rng):
    ds = random_dataset(rng, 120)
    config, sk = deployment("c", e_max=3)
    server = RecordingServer(loaded_server(config, sk, ds, rng))
    for _ in range(15):
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(0, 149))
        result, pre = server.query(prot.query_sphere, config, sk, q)
        want = hrq_oracle(ds, q)
        assert pre >= want  # no false negatives before validation
        assert result.ids == want


def test_layered_protocol_oracle_exact(rng):
    ds = random_dataset(rng, 120)
    config, sk = deployment("l", e_max=3)
    server = RecordingServer(loaded_server(config, sk, ds, rng))
    for _ in range(15):
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(0, 201))
        result, pre = server.query(prot.query_sphere, config, sk, q)
        want = hrq_oracle(ds, q)
        assert pre >= want
        assert result.ids == want


def test_zero_false_negatives_exhaustive_grid():
    grid = [(f"{x}-{y}", (x, y)) for x in range(0, 25) for y in range(0, 25)]
    rng = random.Random(4)
    for protocol, e_max, radii in (("t", 0, (0, 3, 10, 15)), ("c", 3, (0, 10, 40, 90)), ("l", 3, (0, 10, 40, 90))):
        config, sk = deployment(protocol, v=256, e_max=e_max, x_max=24, seed=55)
        server = RecordingServer(loaded_server(config, sk, grid, rng))
        for r in radii:
            q = SphereQuery((rng.randrange(25), rng.randrange(25)), r)
            result, pre = server.query(prot.query_sphere, config, sk, q)
            want = hrq_oracle(grid, q)
            assert pre >= want, (protocol, q)
            assert result.ids == want, (protocol, q)


def test_query_idempotent(rng):
    ds = random_dataset(rng, 60)
    config, sk = deployment("l", e_max=3)
    server = loaded_server(config, sk, ds, rng)
    q = SphereQuery((40, 40), 75)
    assert prot.query_sphere(config, sk, q, server) == prot.query_sphere(config, sk, q, server)


def test_results_sorted_and_deduplicated(rng):
    ds = random_dataset(rng, 80)
    config, sk = deployment("l", e_max=3)
    server = loaded_server(config, sk, ds, rng)
    result = prot.query_sphere(config, sk, SphereQuery((50, 50), 90), server)
    ids = [rid for rid, _ in result.records]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_center_out_of_domain_rejected(rng):
    config, sk = deployment("t")
    server = loaded_server(config, sk, [], rng)
    with pytest.raises(QueryRejected, match="center"):
        prot.query_sphere(config, sk, SphereQuery((250, 0), 5), server)


# -- range pipeline -----------------------------------------------------------------------


def test_range_queries_oracle_exact(rng):
    ds = random_dataset(rng, 120)
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    server = loaded_server(config, sk, ds, rng)
    for _ in range(20):
        lo = rng.randrange(0, 101)
        rq = RangeQuery(rng.choice((1, 2)), lo, rng.randrange(lo, 101))
        assert prot.query_range(config, sk, rq, server).ids == range_oracle(ds, rq)


def test_range_equality_and_full_domain(rng):
    ds = random_dataset(rng, 80)
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    server = loaded_server(config, sk, ds, rng)
    rq = RangeQuery(1, 33, 33)
    assert prot.query_range(config, sk, rq, server).ids == range_oracle(ds, rq)
    assert prot.query_range(config, sk, RangeQuery(2, 0, 100), server).ids == {r for r, _ in ds}


def test_range_clamps_to_domain(rng):
    ds = random_dataset(rng, 50)
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    server = loaded_server(config, sk, ds, rng)
    assert prot.query_range(config, sk, RangeQuery(1, 90, 500), server).ids == range_oracle(
        ds, RangeQuery(1, 90, 100)
    )
    assert prot.query_range(config, sk, RangeQuery(1, 300, 400), server).ids == set()


def test_range_needs_unified(rng):
    config, sk = deployment("c", layout=LAYOUT_SHRQ, e_max=3)
    with pytest.raises(ConfigError):
        prot.query_range(config, sk, RangeQuery(1, 0, 5), ServerState())


def test_query_messages_constant_length(sk32_unified):
    # sphere vs range vs column choice: identical wire bytes at a fixed level
    sk = sk32_unified
    comps = [
        make_sphere_query_component(SphereQuery((50, 60), 15), LAYOUT_UNIFIED),
        make_sphere_query_component(SphereQuery((3, 0), 9), LAYOUT_UNIFIED, cols=(1,)),
        make_range_query_component(RangeQuery(1, 25, 50), 2)[0],
        make_range_query_component(RangeQuery(2, 0, 100), 2)[0],
    ]
    sizes = {len(json.dumps(prot.query_message(sk, comp, 0), sort_keys=True)) for comp in comps}
    assert len(sizes) == 1


# -- updates ------------------------------------------------------------------------------


def test_insert_delete_update_cycle(rng):
    ds = random_dataset(rng, 40)
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    server = loaded_server(config, sk, ds, rng)

    prot.insert_point(config, sk, "x1", (70, 70), server)
    q = SphereQuery((70, 70), 2)
    assert "x1" in prot.query_sphere(config, sk, q, server).ids

    prot.update_point(config, sk, "x1", (10, 10), server)
    assert "x1" not in prot.query_sphere(config, sk, q, server).ids
    assert "x1" in prot.query_sphere(config, sk, SphereQuery((10, 10), 0), server).ids

    prot.delete_point(config, sk, "x1", server)
    assert "x1" not in prot.query_sphere(config, sk, SphereQuery((10, 10), 5), server).ids

    with pytest.raises(NotFoundError):
        prot.delete_point(config, sk, "x1", server)
    with pytest.raises(DuplicateIdError):
        prot.insert_point(config, sk, "0", (1, 1), server)


def test_update_sequence_stays_oracle_exact(rng):
    ds = random_dataset(rng, 30)
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    server = loaded_server(config, sk, ds, rng)
    alive = dict(ds)
    for step in range(40):
        op = rng.choice(("insert", "delete", "update"))
        if op == "insert" or not alive:
            rid = f"n{step}"
            coords = (rng.randrange(101), rng.randrange(101))
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
        if step % 5 == 0:
            q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(0, 60))
            got = prot.query_sphere(config, sk, q, server).ids
            assert got == hrq_oracle(alive.items(), q)


# -- integrity and guards ----------------------------------------------------------------


def test_tampered_blob_fails_decrypt(rng):
    ds = [("a", (5, 5))]
    config, sk = deployment("t")
    server = loaded_server(config, sk, ds, rng)
    blob = server.db_store["a"]
    server.db_store["a"] = blob[:-1] + bytes([blob[-1] ^ 0xFF])
    with pytest.raises(DataIntegrityError):
        prot.query_sphere(config, sk, SphereQuery((5, 5), 1), server)


def test_wrap_guard_rejects_enormous_layer_radius():
    rng = random.Random(3)
    config = prot.make_config("l", 2, 400, 100, e_max=8, backend=TRANSPARENT)
    sk, _ = ces.keygen(17, 2, LAYOUT_SHRQ, 400, 100, TRANSPARENT, rng=rng)
    q2 = sk.group.params.q2
    r = math.isqrt(q2) + 1  # guaranteed r^2 >= q2 - margin
    server = loaded_server(config, sk, [], rng)
    with pytest.raises(QueryRejected, match="wrap"):
        prot.query_sphere(config, sk, SphereQuery((0, 0), r), server)


def test_plan_shapes():
    # every protocol plans a tuple of Layer; t and c plan exactly one
    config, sk = deployment("t")
    assert prot.plan_sphere(config, sk, SphereQuery((10, 11), 20)) == (Layer(0, 20.0, 20, 1),)
    config, sk = deployment("c", e_max=3)
    assert prot.plan_sphere(config, sk, SphereQuery((10, 11), 20)) == (Layer(0, 20.0, 20, 1),)
    # one level coarser: ceil(25 / 2 + sqrt(2)) absorbs the floor error
    assert prot.plan_sphere(config, sk, SphereQuery((10, 11), 25)) == (Layer(1, 25.0, 14, 2),)
    config, sk = deployment("l", e_max=3)
    assert prot.plan_sphere(config, sk, SphereQuery((10, 11), 60)) == covering_radii(60, 400, 2, 5, 3)
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    sphere, plan = prot.plan_range(config, sk, RangeQuery(2, 90, 500))
    assert sphere == SphereQuery((0, 95), 5) and plan == (Layer(0, 5.0, 5, 1),)
    assert prot.plan_range(config, sk, RangeQuery(1, 300, 400)) == (None, ())


def test_level_count_economy():
    # stores needed to support radius R_max: layered (base 5) vs coarse (base 2)
    v, d, b_c = 400, 2, 5
    for r_max in (50, 100, 160, 200):
        coarse_levels = 1 + min(
            e for e in range(1, 20) if r_max / 2**e + math.sqrt(d) <= math.isqrt(v) + 1e-9
        )
        layered_levels = len(covering_radii(r_max, v, d, b_c, 20))
        assert layered_levels <= coarse_levels


def test_make_config_validation():
    with pytest.raises(ConfigError):
        prot.make_config("t", 2, 400, 100, e_max=1)
    with pytest.raises(ConfigError):
        prot.make_config("x", 2, 400, 100)
    with pytest.raises(ConfigError):
        prot.make_config("l", 4, 16, 100)  # coarsity base degenerates
    config = prot.make_config("l", 2, 400, 100, e_max=3, backend=TRANSPARENT)
    assert config.b_c == 5 and config.levels == 4
