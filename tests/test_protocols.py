import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import RecordingServer, random_dataset
from shrq import ces, protocols as prot
from shrq.ces import LAYOUT_SHRQ, LAYOUT_UNIFIED
from shrq.pairing import TRANSPARENT
from shrq.errors import (
    ConfigError,
    DataIntegrityError,
    DuplicateIdError,
    IngestionError,
    NotFoundError,
    ProtocolError,
    QueryRejected,
)
from shrq.geometry import (
    Layer,
    RangeQuery,
    SphereQuery,
    covering_radii,
    make_sphere_query_component,
)
from shrq.oracle import hrq_oracle, range_oracle
from shrq.server import ServerState, b64e
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
    assert config.factors == (1, 5, 25)
    msgs = [m for m in prot.setup_messages(config, sk, ds, rng=rng) if m["type"] == "put_tuple"]
    assert len(msgs) == 3


def test_setup_rejects_duplicate_ids(rng):
    # the server refuses the repeated id at its put_store and keeps the first record
    config, sk = deployment("t")
    state = ServerState()
    with pytest.raises(DuplicateIdError, match="dup"):
        prot.run_setup(config, sk, [("dup", (1, 1)), ("dup", (2, 2))], state, rng=rng)
    assert list(state.db_store) == ["dup"]
    assert prot.decrypt_record(sk, "dup", state.db_store["dup"]) == (1, 1)


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


def test_short_blob_fails_decrypt(sk32):
    blob = prot.encrypt_record(sk32, "r1", (3, 4))
    with pytest.raises(DataIntegrityError, match="too short"):
        prot.decrypt_record(sk32, "r1", blob[:27])  # one byte short of a nonce and a tag


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


@st.composite
def _planned_queries(draw):
    """A deployment, about 20 points in the domain and one query: a sphere
    or, on a unified-layout draw, maybe a one-column range across it."""
    protocol = draw(st.sampled_from((prot.PROTOCOL_TABLE, prot.PROTOCOL_COARSE, prot.PROTOCOL_LAYERED)))
    d = draw(st.integers(1, 3))
    v = draw(st.integers(0, 400))
    e_max = draw(st.integers(0, 0 if protocol == prot.PROTOCOL_TABLE else 4))
    layout = draw(st.sampled_from((LAYOUT_SHRQ, LAYOUT_UNIFIED)))
    x_max = draw(st.integers(1, 200))
    center = draw(st.tuples(*[st.integers(0, x_max)] * d))
    radius = draw(st.integers(0, x_max) | st.integers(0, 2 * math.isqrt(v) + 2))
    # points in the sphere's bounding box, half of them pulled onto its
    # surface along a uniform direction and truncated toward the center,
    # so that many lie just inside it
    rnd = draw(st.randoms(use_true_random=False))
    dataset = []
    for i in range(draw(st.integers(15, 25))):
        offset = [rnd.randint(-radius - 2, radius + 2) for _ in range(d)]
        norm = math.sqrt(sum(o * o for o in offset))
        if i % 2 and norm:
            offset = [int(o * radius / norm) for o in offset]
        dataset.append((str(i), tuple(min(max(c + o, 0), x_max) for c, o in zip(center, offset))))
    query = SphereQuery(center, radius)
    if layout == LAYOUT_UNIFIED and draw(st.booleans()):
        # the points crowd the sphere's surface, so they crowd the range's
        # bounds too; odd widths make the planned sphere over-cover by one
        col = draw(st.integers(1, d))
        lo = center[col - 1] - radius
        query = RangeQuery(col, lo, lo + draw(st.integers(0, 2 * radius + 1)))
    return protocol, d, v, e_max, layout, x_max, dataset, query


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_planned_queries())
def test_planner_has_no_false_negatives(case):
    protocol, d, v, e_max, layout, x_max, dataset, query = case
    try:
        config, sk = deployment(protocol, layout, v=v, e_max=e_max, d=d, x_max=x_max)
    except ConfigError:
        assume(False)
    server = RecordingServer(loaded_server(config, sk, dataset, random.Random(v)))
    ranged = isinstance(query, RangeQuery)
    try:
        result, matched = server.query(prot.query_range if ranged else prot.query_sphere, config, sk, query)
    except QueryRejected:
        assume(False)
    want = range_oracle(dataset, query) if ranged else hrq_oracle(dataset, query)
    assert matched >= want  # no false negatives before validation
    assert result.ids == want
    plan = prot.plan_range(config, sk, query)[1] if ranged else prot.plan_sphere(config, sk, query)
    assert server.query_levels == [layer.index for layer in plan]
    assert all(layer.factor == config.factors[layer.index] for layer in plan)


def _not_ints(x_max):
    """Values in [-2, x_max + 2] that are no int: floats, integral ones
    included, and halves as Fractions."""
    halves = st.integers(-4, 2 * x_max + 4).filter(lambda n: n % 2).map(lambda n: Fraction(n, 2))
    return st.floats(-2, x_max + 2) | halves


@st.composite
def _non_integer_queries(draw):
    """A unified-layout deployment, about 20 points and a sphere or range
    query with at least one centre coordinate, radius or bound that is no
    int; the points crowd the range's bounds, where rounding matters."""
    protocol = draw(st.sampled_from((prot.PROTOCOL_TABLE, prot.PROTOCOL_COARSE, prot.PROTOCOL_LAYERED)))
    d = draw(st.integers(1, 3))
    v = draw(st.integers(0, 400))
    e_max = draw(st.integers(0, 0 if protocol == prot.PROTOCOL_TABLE else 4))
    x_max = draw(st.integers(1, 200))
    values = _not_ints(x_max)
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        center = draw(st.tuples(*[st.integers(0, x_max) | values | st.booleans()] * d))
        radius = draw(st.integers(0, 2 * math.isqrt(v) + 2) | values.map(abs))
        assume(any(type(c) is not int for c in (*center, radius)))
        return protocol, d, v, e_max, x_max, [], SphereQuery(center, radius)
    bound = st.integers(-2, x_max + 2) | values | st.sampled_from((-math.inf, math.inf))
    lo, hi = sorted(draw(st.tuples(bound, bound)))
    assume(type(lo) is not int or type(hi) is not int)
    col = draw(st.integers(1, d))
    edges = [b for b in (lo, hi) if math.isfinite(b)] or [0]
    dataset = []
    for i in range(draw(st.integers(15, 25))):
        point = [rnd.randint(0, x_max) for _ in range(d)]
        point[col - 1] = min(max(math.floor(rnd.choice(edges)) + rnd.randint(-1, 2), 0), x_max)
        dataset.append((str(i), tuple(point)))
    return protocol, d, v, e_max, x_max, dataset, RangeQuery(col, lo, hi)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_non_integer_queries())
def test_non_integer_queries_are_refused_or_exact(case):
    # the components truncate with int(), so a sphere centred at 0.5 would
    # run at 0 and lose matches: a sphere needs int centre and radius (a
    # bool is refused too), and a range is rounded inward to its integers
    protocol, d, v, e_max, x_max, dataset, query = case
    try:
        config, sk = deployment(protocol, LAYOUT_UNIFIED, v=v, e_max=e_max, d=d, x_max=x_max)
    except ConfigError:
        assume(False)
    if isinstance(query, SphereQuery):
        with pytest.raises(ConfigError, match="integer"):
            prot.query_sphere(config, sk, query, ServerState())
        return
    server = loaded_server(config, sk, dataset, random.Random(v))
    try:
        result = prot.query_range(config, sk, query, server)
    except QueryRejected:
        assume(False)
    assert result.ids == range_oracle(dataset, query)


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


def test_range_column_beyond_d_rejected():
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    for rq in (RangeQuery(3, 0, 5), RangeQuery(3, 300, 400)):  # the second clamps to nothing
        with pytest.raises(ConfigError, match="column 3"):
            prot.plan_range(config, sk, rq)


def test_range_needs_unified(rng):
    config, sk = deployment("c", layout=LAYOUT_SHRQ, e_max=3)
    with pytest.raises(ConfigError):
        prot.query_range(config, sk, RangeQuery(1, 0, 5), ServerState())


def test_query_messages_constant_length():
    # sphere vs range vs column choice: identical wire bytes at a fixed level
    config, sk = deployment("t", layout=LAYOUT_UNIFIED)
    comps = [
        make_sphere_query_component(SphereQuery((50, 60), 15), LAYOUT_UNIFIED),
        make_sphere_query_component(SphereQuery((3, 0), 9), LAYOUT_UNIFIED, col=1),
        make_range_query_component(RangeQuery(1, 25, 50), 2)[0],
        make_range_query_component(RangeQuery(2, 0, 100), 2)[0],
    ]
    sizes = {len(json.dumps(prot.query_message(config, sk, comp, 0), sort_keys=True)) for comp in comps}
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


def test_rejected_update_keeps_the_record(rng):
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    server = loaded_server(config, sk, [("a", (5, 5))], rng)
    with pytest.raises(IngestionError):
        prot.update_point(config, sk, "a", (500, 1), server)  # x_max is 100
    assert prot.query_sphere(config, sk, SphereQuery((5, 5), 0), server).ids == {"a"}


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


class _StubServer:
    """Answers every request with one fixed reply."""

    def __init__(self, reply):
        self.reply = reply

    def request(self, msg):
        return self.reply


def test_error_reply_other_than_duplicate_is_protocol_error():
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    server = _StubServer({"type": "error", "error": "state log append failed: disk full"})
    with pytest.raises(ProtocolError, match="^server error: state log append failed"):
        prot.delete_point(config, sk, "a", server)


@pytest.mark.parametrize(
    "reply, reason",
    [
        ({"type": "ack", "found": 1}, "found is 1"),
        ({"type": "ack"}, "found is None"),
        ({"type": "error", "error": 5}, "error is 5"),
        ({"type": "error"}, "error is None"),
        ({"type": "result", "found": True}, "delete got {'type': 'result', 'found': True}, not an ack"),
    ],
    ids=["found-int", "no-found", "error-int", "no-error", "result-found"],
)
def test_malformed_delete_reply_is_protocol_error(reply, reason):
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    with pytest.raises(ProtocolError, match=f"^malformed reply from the server: {reason}$"):
        prot.delete_point(config, sk, "a", _StubServer(reply))


@pytest.mark.parametrize(
    "reply, reason",
    [
        ({"type": "ack"}, "query got {'type': 'ack'}, not a result"),
        ({"type": "result"}, "malformed reply"),
        ({"type": "result", "matches": 5}, "malformed reply"),
        ({"type": "result", "matches": [5]}, "malformed reply"),
        ({"type": "result", "matches": [{"blob": "AAAA"}]}, "malformed reply"),
        ({"type": "result", "matches": [{"id": 7, "blob": "AAAA"}]}, "malformed reply"),
        ({"type": "result", "matches": [{"id": "a"}]}, "malformed reply"),
        ({"type": "result", "matches": [{"id": "a", "blob": None}]}, "malformed reply"),
    ],
    ids=["ack", "no-matches", "matches-int", "match-int", "no-id", "id-int", "no-blob", "blob-null"],
)
def test_query_reply_that_is_not_a_result_is_protocol_error(reply, reason):
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    with pytest.raises(ProtocolError, match=reason):
        prot.query_sphere(config, sk, SphereQuery((5, 5), 1), _StubServer(reply))


@pytest.mark.parametrize(
    "reply",
    [{"type": "result", "matches": []}, {"type": "bogus"}, {}, {"type": "ack", "found": True}],
    ids=["result", "bogus", "empty", "ack-found"],
)
def test_write_reply_that_is_not_an_ack_is_protocol_error(reply, rng):
    # hello, put_lookup, put_store and put_tuple are answered {"type": "ack"}
    # and nothing else: the first write that gets another reply raises
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    for run in (lambda server: prot.run_setup(config, sk, [("a", (1, 1))], server, rng=rng),
                lambda server: prot.insert_point(config, sk, "b", (2, 2), server, rng=rng)):
        server = RecordingServer(_StubServer(reply))
        with pytest.raises(ProtocolError, match="^malformed reply from the server: "):
            run(server)
        assert server.requests == 1


def test_tampered_blob_fails_decrypt(rng):
    ds = [("a", (5, 5))]
    config, sk = deployment("t")
    server = loaded_server(config, sk, ds, rng)
    blob = server.db_store["a"]
    server.db_store["a"] = blob[:-1] + bytes([blob[-1] ^ 0xFF])
    with pytest.raises(DataIntegrityError):
        prot.query_sphere(config, sk, SphereQuery((5, 5), 1), server)


def test_reply_id_that_is_not_utf8_fails_as_a_forgery():
    # "\ud800" is a JSON string the server accepts as an id, but no UTF-8
    # text: no write could have bound it to a blob, so the blob cannot authenticate
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    reply = {"type": "result", "matches": [{"id": "\ud800", "blob": b64e(bytes(40))}]}
    with pytest.raises(DataIntegrityError, match="AES authentication failed"):
        prot.query_sphere(config, sk, SphereQuery((5, 5), 1), _StubServer(reply))


def test_insert_of_an_id_that_is_not_utf8_sends_nothing(rng):
    # "\udcff" is what a command line decodes byte 0xff to
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    server = RecordingServer(_StubServer({"type": "ack"}))
    with pytest.raises(IngestionError, match="not UTF-8 text"):
        prot.insert_point(config, sk, "\udcff", (2, 2), server, rng=rng)
    assert server.requests == 0


def test_wrap_guard_rejects_enormous_layer_radius():
    rng = random.Random(3)
    config = prot.make_config("l", 2, 400, 100, e_max=8, backend=TRANSPARENT, layout=LAYOUT_SHRQ)
    sk, _ = ces.keygen(17, 2, config.layout, 400, 100, TRANSPARENT, rng=rng)
    q2 = sk.group.params.q2
    r = math.isqrt(q2) + 1  # guaranteed r^2 >= q2 - margin
    server = loaded_server(config, sk, [], rng)
    with pytest.raises(QueryRejected, match="wrap"):
        prot.query_sphere(config, sk, SphereQuery((0, 0), r), server)


def test_plan_shapes():
    # every protocol plans a tuple of Layer; t and c plan exactly one
    config, sk = deployment("t")
    assert prot.plan_sphere(config, sk, SphereQuery((10, 11), 20)) == (Layer(0, 1, 20),)
    config, sk = deployment("c", e_max=3)
    assert prot.plan_sphere(config, sk, SphereQuery((10, 11), 20)) == (Layer(0, 1, 20),)
    # one level coarser: ceil(25 / 2 + sqrt(2)) absorbs the floor error
    assert prot.plan_sphere(config, sk, SphereQuery((10, 11), 25)) == (Layer(1, 2, 14),)
    config, sk = deployment("l", e_max=3)
    assert prot.plan_sphere(config, sk, SphereQuery((10, 11), 60)) == covering_radii(60, 400, 2, (1, 5, 25, 125))
    config, sk = deployment("c", layout=LAYOUT_UNIFIED, e_max=3)
    sphere, plan = prot.plan_range(config, sk, RangeQuery(2, 90, 500))
    assert sphere == SphereQuery((0, 95), 5) and plan == (Layer(0, 1, 5),)
    assert prot.plan_range(config, sk, RangeQuery(1, 300, 400)) == (None, ())
    for center in ((10,), (10, 11, 12)):  # d = 2
        with pytest.raises(ConfigError, match="coordinates"):
            prot.plan_sphere(config, sk, SphereQuery(center, 20))


def test_level_count_economy():
    # stores needed to support radius R_max: layered (base 5) vs coarse (base 2)
    v, d, b_c = 400, 2, 5
    for r_max in (50, 100, 160, 200):
        coarse_levels = 1 + min(
            e for e in range(1, 20) if r_max / 2**e + math.sqrt(d) <= math.isqrt(v) + 1e-9
        )
        layered_levels = len(covering_radii(r_max, v, d, tuple(b_c**e for e in range(21))))
        assert layered_levels <= coarse_levels


def test_make_config_validation():
    with pytest.raises(ConfigError):
        prot.make_config("t", 2, 400, 100, e_max=1)
    with pytest.raises(ConfigError):
        prot.make_config("x", 2, 400, 100)
    with pytest.raises(ConfigError):
        prot.make_config("l", 4, 16, 100)  # coarsity base degenerates
    with pytest.raises(ConfigError, match="layout"):
        prot.make_config("t", 2, 400, 100, layout="bogus")
    config = prot.make_config("l", 2, 400, 100, e_max=3, backend=TRANSPARENT)
    assert config.b_c == 5 and config.levels == 4
    with pytest.raises(AttributeError, match="cannot assign"):
        config.v = 100  # the server holds a table built for the v set up with


def test_config_derives_its_coarsity_base():
    # b_c is no field: it is coarsity_base(v, d) for l and None otherwise
    layered = prot.make_config("l", 2, 400, 100, e_max=3, backend=TRANSPARENT)
    assert layered.__slots__ == ("protocol", "layout", "d", "v", "x_max", "e_max", "backend")
    assert layered.b_c == 5 and prot.make_config("c", 2, 400, 100, e_max=3).b_c is None


def test_key_made_for_another_v_answers_by_the_config(rng):
    # the key's keygen checked its margin for v=100; the deployment's v=400
    # sizes the lookup table and the plan alike, so no match is lost
    config = prot.make_config("t", 2, 400, 100, layout=LAYOUT_SHRQ)
    sk, _ = ces.keygen(32, 2, LAYOUT_SHRQ, 100, 100, TRANSPARENT, rng=random.Random(1))
    ds = random_dataset(random.Random(2), 300)
    q = SphereQuery((50, 50), 15)
    assert prot.query_sphere(config, sk, q, loaded_server(config, sk, ds, rng)).ids == hrq_oracle(ds, q)
