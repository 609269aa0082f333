import errno
import hashlib
import json
import os
import random
import runpy
import shutil
import socket
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

import shrq._kernel
import shrq.server
from conftest import random_dataset
from shrq import ces, protocols as prot
from shrq.ces import LAYOUT_SHRQ, LAYOUT_UNIFIED
from shrq.errors import ConfigError, DataIntegrityError, DuplicateIdError, ServerUnreachable
from shrq.pairing import CURVE_A1, TRANSPARENT, CurveGroup, GElement, group_from_primes
from shrq.geometry import RangeQuery, SphereQuery, make_sphere_query_component
from shrq.keyfile import load_keyfile, save_keyfile
from shrq.oracle import hrq_oracle, range_oracle
from shrq.server import ServerConnection, ServerState, TcpServer, b64d, b64e, connect, hello_message


@pytest.fixture(scope="module")
def deployment():
    config = prot.make_config("c", 2, 400, 100, e_max=2, backend=TRANSPARENT, layout=LAYOUT_SHRQ)
    sk, _ = ces.keygen(32, 2, LAYOUT_SHRQ, 400, 100, TRANSPARENT, rng=random.Random(31))
    return config, sk


@pytest.fixture
def open_state():
    """Opens a ServerState on a state directory; every state opened is
    closed at teardown, so a failed assertion leaks no log file into a
    later test."""
    states = []

    def open_(state_dir):
        state = ServerState(str(state_dir))
        states.append(state)
        return state

    yield open_
    for state in states:
        state.close()


def fill(config, sk, dataset, server, rng):
    prot.run_setup(config, sk, dataset, server, rng=rng)


# -- message-level behaviour ------------------------------------------------------


def test_put_then_query_roundtrip(deployment, rng):
    config, sk = deployment
    server = ServerState()
    ds = [("p1", (10, 10)), ("p2", (90, 90))]
    fill(config, sk, ds, server, rng)
    comp = make_sphere_query_component(SphereQuery((10, 10), 1), config.layout)
    reply = server.request(prot.query_message(config, sk, comp, 0))
    assert reply["type"] == "result"
    assert [m["id"] for m in reply["matches"]] == ["p1"]


def test_query_on_empty_level(deployment, rng):
    config, sk = deployment
    server = ServerState()
    fill(config, sk, [], server, rng)
    comp = make_sphere_query_component(SphereQuery((1, 1), 1), config.layout)
    reply = server.request(prot.query_message(config, sk, comp, 1))
    assert reply == {"type": "result", "matches": []}


def test_unknown_level_is_protocol_error(deployment, rng):
    config, sk = deployment
    server = ServerState()
    fill(config, sk, [], server, rng)
    comp = make_sphere_query_component(SphereQuery((1, 1), 1), config.layout)
    for bad in (3, -1, "0"):
        reply = server.request(dict(prot.query_message(config, sk, comp, 0), level=bad))
        assert reply["type"] == "error" and "level" in reply["error"]


def test_boolean_level_is_no_level(deployment, rng):
    # JSON true and false are no levels, though a Python bool is an int: each
    # line gets one error reply and changes no state, and the same line with
    # 1 or 0 is answered
    config, sk = deployment
    server = ServerState()
    fill(config, sk, [("a", (5, 5))], server, rng)
    store, *tuples = prot.point_messages(config, sk, "b", (6, 6), rng=rng)
    assert server.request(store)["type"] == "ack"
    query = prot.query_message(config, sk, make_sphere_query_component(SphereQuery((5, 5), 2), config.layout), 0)
    for flag, level in ((False, 0), (True, 1)):
        before = server.snapshot_messages()
        for msg in (tuples[level], dict(query, level=level)):
            reply = json.loads(server.handle_line(json.dumps(dict(msg, level=flag))))
            assert reply["type"] == "error" and "level" in reply["error"]
            assert server.snapshot_messages() == before
        assert server.request(tuples[level]) == {"type": "ack"}
        assert server.request(dict(query, level=level))["type"] == "result"


def test_messages_before_hello_fail():
    server = ServerState()
    reply = server.request({"type": "put_store", "id": "a", "blob": b64e(b"x")})
    assert reply["type"] == "error" and "hello" in reply["error"]


# lines the handler must answer with an error, given a server that holds a
# hello and a tuple; several of them once raised out of handle_line instead
BAD_CURVE_HELLO = {
    "type": "hello", "N": "35", "hash": "SHA-256", "levels": 1,
    "backend": {"backend": "curveA1", "p": "7", "l": "1"},  # p + 1 != l*N
}
BAD_LINES = [
    "{not json",
    '"just a string"',
    "[" * 100000,  # RecursionError inside json.loads
    json.dumps({"type": "frobnicate"}),
    json.dumps({"type": "hello"}),  # missing fields
    json.dumps({"type": ["unhashable"]}),
    json.dumps(BAD_CURVE_HELLO),  # ConfigError from group_from_descriptor
    json.dumps(dict(BAD_CURVE_HELLO, backend={"backend": "nope"})),
    json.dumps(dict(BAD_CURVE_HELLO, levels=1e400)),  # a float where an int belongs
    json.dumps({"type": "put_tuple", "level": 0, "id": "a", "slots": ["AAAA"]}),  # a count other than the level's
    json.dumps({"type": "query", "level": 0, "slots": ["AAAA", "AAAA"]}),  # the same, in a query
    json.dumps({"type": "put_lookup", "v": 1e400, "digests": []}),
    json.dumps(dict(BAD_CURVE_HELLO, levels=0)),
    json.dumps({"type": "put_lookup", "v": 1, "digests": [b64e(bytes(31))]}),
    json.dumps({"type": "put_lookup", "v": 1, "digests": [b64e(bytes(32))] * 2}),
    # digests are all 16 bytes or all 32, and 32-byte ones are kept as 16-byte prefixes
    json.dumps({"type": "put_lookup", "v": 1, "digests": [b64e(bytes([i]) * 8) for i in range(2)]}),
    json.dumps({"type": "put_lookup", "v": 1, "digests": [b64e(bytes([i]) * 33) for i in range(2)]}),
    json.dumps({"type": "put_lookup", "v": 1, "digests": [b64e(bytes(16)), b64e(bytes([1]) * 32)]}),
    json.dumps({"type": "put_lookup", "v": 1, "digests": [b64e(bytes(16) + bytes([i]) * 16) for i in range(2)]}),
    # a table holds one digest per dot value in [0, v]
    json.dumps({"type": "put_lookup", "v": -7, "digests": [b64e(bytes([i]) * 16) for i in range(3)]}),
    json.dumps({"type": "put_lookup", "v": 1000, "digests": [b64e(bytes([i]) * 16) for i in range(3)]}),
    json.dumps({"type": "put_tuple", "level": 0, "id": "a", "slots": []}),
    # nested so deep that json.loads succeeds but json.dumps of the log entry
    # can exceed the recursion limit; the exact depth depends on the stack
    *(f'{{"type": "delete", "id": {"[" * n}{"]" * n}}}' for n in range(900, 1000, 3)),
    *(f'{{"type": "put_store", "id": "x", "blob": "", "pad": {"[" * n}{"]" * n}}}' for n in range(901, 1000, 3)),
]


def test_malformed_and_unknown_messages(deployment, rng, tmp_path, open_state):
    config, sk = deployment
    server = open_state(tmp_path)  # accepted mutations are serialized to the log
    fill(config, sk, [("a", (1, 1))], server, rng)
    assert server.request(shrq.server.store_message("g", b"blob"))["type"] == "ack"  # a record, no tuple
    before = server.snapshot_messages()
    # slots holding GT encodings, which decode to nothing: GT is only hashed
    width = len(server.db_query[0]["a"])
    gt = [b64e(sk.group.canonical_bytes(sk.group.pair(sk.g, sk.g)))] * width
    gt_lines = [
        json.dumps({"type": "put_tuple", "level": 0, "id": "a", "slots": gt}),
        json.dumps({"type": "put_tuple", "level": 0, "id": "g", "slots": gt}),
        json.dumps({"type": "query", "level": 0, "slots": gt}),
    ]
    for line in BAD_LINES + gt_lines:
        reply = json.loads(server.handle_line(line))
        assert reply["type"] == "error", line[:80]
        if line.startswith('{"type": "put_tuple"'):  # the count and the id are checked before any decode
            count = len(json.loads(line)["slots"])
            cause = (f"tuple has {count} slots, level 0 holds {width}" if count != width
                     else "duplicate id 'a' at level 0" if '"id": "a"' in line
                     else "not a transparent G element encoding")
            assert reply["error"] == cause, line[:80]
    assert server.snapshot_messages() == before
    server.close()


# -- lookup digest widths ---------------------------------------------------------

def _whole_digest_lookup(sk, v):
    """The put_lookup of a client before 16-byte prefixes: whole SHA-256 digests."""
    grp = sk.group
    base = grp.pair(sk.s, sk.s)
    entries = (grp.pow(base, sk.alpha * (k + sk.beta)) for k in range(v + 1))
    digests = sorted(hashlib.sha256(grp.canonical_bytes(t)).digest() for t in entries)
    return {"type": "put_lookup", "v": v, "digests": [b64e(d) for d in digests]}


def test_whole_sha256_digests_are_kept_as_prefixes(deployment, rng):
    config, sk = deployment
    server = ServerState()
    fill(config, sk, [("a", (1, 1))], server, rng)
    old = _whole_digest_lookup(sk, config.v)
    assert server.request(old) == {"type": "ack"}
    (snapshot,) = [m for m in server.snapshot_messages() if m["type"] == "put_lookup"]
    assert sorted(snapshot["digests"]) == sorted(b64e(b64d(d)[:16]) for d in old["digests"])
    assert snapshot == shrq.server.lookup_message(ces.create_lookup_table(sk, config.v))


def test_log_of_whole_digests_restarts_to_the_same_answers(deployment, rng, tmp_path, open_state):
    config, sk = deployment
    points = random_dataset(rng, 16)
    stream = list(prot.setup_messages(config, sk, points, rng=rng))
    whole = [_whole_digest_lookup(sk, config.v) if m["type"] == "put_lookup" else m for m in stream]
    for name, msgs in (("prefix", stream), ("whole", whole)):
        state = open_state(tmp_path / name)
        assert all(state.request(m)["type"] == "ack" for m in msgs)
        state.close()
    prefix, old = open_state(tmp_path / "prefix"), open_state(tmp_path / "whole")
    queries = (SphereQuery((50, 50), 20), SphereQuery((10, 90), 35), SphereQuery((0, 0), 0))
    assert any(hrq_oracle(points, q) for q in queries)
    for q in queries:
        want = hrq_oracle(points, q)
        assert prot.query_sphere(config, sk, q, old).ids == prot.query_sphere(config, sk, q, prefix).ids == want
    # the next compaction writes the prefixes: 20 base64 characters fewer a digest
    size = (tmp_path / "whole" / "log.jsonl").stat().st_size
    old.compact()
    assert old.snapshot_messages() == prefix.snapshot_messages()
    assert size - (tmp_path / "whole" / "log.jsonl").stat().st_size == (config.v + 1) * 20


def test_lookup_line_byte_budget(deployment):
    # a 16-byte digest is 24 base64 characters, 28 bytes with its quotes and
    # separator: whole digests or a wider encoding overrun this budget
    _, sk = deployment
    line = shrq.server._log_line(shrq.server.lookup_message(ces.create_lookup_table(sk, 400)))
    assert len(line.encode()) <= 401 * 28 + 64


# -- any line gets one reply; a rejected one changes nothing --------------------

_CONFIG = prot.make_config("c", 2, 100, 30, e_max=1, backend=TRANSPARENT, layout=LAYOUT_SHRQ)
_SK, _ = ces.keygen(32, 2, LAYOUT_SHRQ, 100, 30, TRANSPARENT, rng=random.Random(41))
_SETUP = list(prot.setup_messages(_CONFIG, _SK, [("a", (1, 1)), ("b", (9, 9))], rng=random.Random(2)))


def _loaded_state():
    state = ServerState()
    for msg in _SETUP:
        state.request(msg)
    return state


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _typed_messages(draw):
    """Dicts with a real type and fields drawn from real values and noise."""
    real = draw(st.sampled_from(_SETUP))
    msg = {"type": draw(st.sampled_from(["delete", "hello", "put_lookup", "put_store", "put_tuple", "query"]))}
    for key in draw(st.sets(st.sampled_from(sorted({k for m in _SETUP for k in m} - {"type"})))):
        noise = draw(_json)
        msg[key] = draw(st.sampled_from([real.get(key, noise), noise]))
    return json.dumps(msg)


_LINES = st.one_of(_json.map(json.dumps), _typed_messages(), st.text(max_size=60))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_LINES)
def test_any_line_gets_one_reply_and_errors_change_nothing(line):
    state = _loaded_state()
    before = state.snapshot_messages()
    reply = state.handle_line(line)
    assert "\n" not in reply
    decoded = json.loads(reply)
    assert decoded["type"] in ("ack", "result", "error")
    if decoded["type"] == "error":
        assert state.snapshot_messages() == before


# -- one table types every wire field --------------------------------------------

# a record "c" without tuples, and one request of each type that a loaded
# state holding it answers
_C_STORE, _C_TUPLE, *_ = prot.point_messages(_CONFIG, _SK, "c", (5, 5), rng=random.Random(3))
_WELL_TYPED = {
    "hello": _SETUP[0],
    "put_lookup": next(m for m in _SETUP if m["type"] == "put_lookup"),
    "put_tuple": _C_TUPLE,
    "put_store": dict(_C_STORE, id="d"),
    "delete": {"type": "delete", "id": "a"},
    "query": prot.query_message(_CONFIG, _SK, make_sphere_query_component(SphereQuery((5, 5), 2), _CONFIG.layout), 0),
}
# a well-typed value of each kind to values of a wrong JSON type
_ILL_TYPED = {
    int: lambda value: [True, False, float(value)],
    str: lambda value: [7, None, [value]],
    list: lambda value: [value[0], [*value, 1]],
    dict: lambda value: [list(value.values()), {**value, "x": 1}],
}
_NAMES = sorted({name for fields in shrq.server._FIELDS.values() for name in fields} | {"junk"})


@st.composite
def _ill_typed_lines(draw):
    """A well-typed request with one thing broken: a field of a wrong type,
    a field dropped or an unknown one added."""
    mtype = draw(st.sampled_from(sorted(shrq.server._FIELDS)))
    fields = shrq.server._FIELDS[mtype]
    msg = dict(_WELL_TYPED[mtype])
    name = draw(st.sampled_from(sorted(fields)))
    how = draw(st.sampled_from(["retype", "drop", "add"]))
    if how == "retype":
        msg[name] = draw(st.sampled_from(_ILL_TYPED[fields[name]](msg[name])))
    elif how == "drop":
        del msg[name]
    else:
        msg[draw(st.sampled_from([n for n in _NAMES if n not in fields]))] = msg[name]
    return json.dumps(msg)


def _ill_typed_examples(test):
    # a type nested so deep that json.loads succeeds and its repr may exceed the
    # recursion limit; the exact depth depends on the interpreter and the stack
    for n in range(900, 1000, 3):
        test = example(f'{{"type": {"[" * n}{"]" * n}}}')(test)
    return test


def _holding_c():
    state = _loaded_state()
    assert state.request(_C_STORE) == {"type": "ack"}
    return state


def _log_holding_c():
    return "".join(map(shrq.server._log_line, [*_SETUP, _C_STORE]))


@_ill_typed_examples
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ill_typed_lines())
def test_ill_typed_request_gets_one_error_and_fails_replay(line):
    for state in (ServerState(), _holding_c()):  # an empty state would pin an ill-typed hello
        before = state.snapshot_messages()
        assert json.loads(state.handle_line(line))["type"] == "error"
        assert state.snapshot_messages() == before
    # the same line, logged by an older server, fails the restart
    with tempfile.TemporaryDirectory() as state_dir:
        Path(state_dir, "log.jsonl").write_text(_log_holding_c() + line + "\n")
        with pytest.raises(DataIntegrityError):
            ServerState(state_dir)


def test_fields_table_has_a_handler_span_and_well_typed_request_per_type(tmp_path, open_state):
    handlers = {name[len("_do_"):] for name in vars(ServerState) if name.startswith("_do_")}
    assert set(shrq.server._FIELDS) == handlers == set(_WELL_TYPED)
    # Tracer.install skips a missing attribute, so a renamed handler would lose its span
    spans = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "spans.py"))
    prefix = "shrq.server:ServerState."
    targets = [path[len(prefix):] for _, path in spans["SERVER_TARGETS"] if path.startswith(prefix + "_do_")]
    assert targets and all(name in vars(ServerState) for name in targets)
    # each well-typed request is answered, on the wire and from the log
    for mtype, msg in _WELL_TYPED.items():
        prot._send(_holding_c(), msg)  # the reply REPLIES gives, or ProtocolError
        (tmp_path / mtype).mkdir()
        (tmp_path / mtype / "log.jsonl").write_text(_log_holding_c() + shrq.server._log_line(msg))
        open_state(tmp_path / mtype)


def test_rejections_before_the_deployment_is_complete(deployment):
    config, sk = deployment
    server = ServerState()
    hello = hello_message(sk.group.params.describe(), config.levels)
    reply = server.request(dict(hello, hash="MD5"))
    assert reply["type"] == "error" and "unsupported hash" in reply["error"]
    assert server.snapshot_messages() == []
    assert server.request(hello) == {"type": "ack"}
    before = server.snapshot_messages()
    comp = make_sphere_query_component(SphereQuery((5, 5), 1), config.layout)
    reply = server.request(prot.query_message(config, sk, comp, 0))
    assert reply["type"] == "error" and "no lookup table" in reply["error"]
    assert server.snapshot_messages() == before


def test_hello_pinning(deployment, tmp_path, open_state):
    config, sk = deployment
    server = open_state(tmp_path)
    hello = hello_message(sk.group.params.describe(), config.levels)
    assert server.request(hello)["type"] == "ack"
    # the pin is the one encoder's hello, the one the client sent
    assert server.hello == hello_message(sk.group.params.describe(), config.levels) == hello
    log = (tmp_path / "log.jsonl").read_bytes()
    assert server.request(hello)["type"] == "ack"  # idempotent re-hello
    assert server.request(dict(hello, N=int(hello["N"])))["type"] == "error"  # N is a string on the wire
    other = dict(hello, N=str(int(hello["N"]) + 2))
    reply = server.request(other)
    assert reply["type"] == "error" and "mismatch" in reply["error"]
    reply = server.request(dict(hello, hash="MD5"))
    assert reply["type"] == "error" and "unsupported hash" in reply["error"]
    assert server.hello == hello and (tmp_path / "log.jsonl").read_bytes() == log


def test_only_its_groups_hello_message_is_acked(tmp_path, open_state):
    # a first hello is acked only as its group's hello_message: another
    # spelling of the same group gets one error reply and pins and logs
    # nothing, and as the first line of a log it fails the restart
    hello = hello_message(group_from_primes(5, 7, TRANSPARENT).params.describe(), 1)
    others = [
        *(dict(hello, N=n) for n in ("035", "+35", " 35", "3_5")),
        dict(hello, backend=dict(hello["backend"], extra="1")),
        dict(hello, backend=dict(hello["backend"], N="35")),
    ]
    for i, other in enumerate(others):
        state = open_state(tmp_path / f"wire{i}")
        reply = json.loads(state.handle_line(json.dumps(other)))
        assert reply == {"type": "error", "error": "hello is not its group's canonical hello_message"}, other
        assert state.hello is None and state.snapshot_messages() == []
        assert (tmp_path / f"wire{i}" / "log.jsonl").read_bytes() == b""
        (tmp_path / f"log{i}").mkdir()
        (tmp_path / f"log{i}" / "log.jsonl").write_text(json.dumps(other) + "\n")
        with pytest.raises(DataIntegrityError, match="corrupt state log line 1:"):
            open_state(tmp_path / f"log{i}")
    state = open_state(tmp_path / "canonical")
    assert state.request(hello) == {"type": "ack"} and state.snapshot_messages() == [hello]


@pytest.mark.parametrize(
    "N, l, p, rule",
    [(35, 2, 69, "curve prime must be 3 mod 4"), (385, 4, 1539, "curve prime p is composite")],
    ids=["p-1-mod-4", "p-composite"],
)
def test_first_hello_with_a_bad_curve_prime_is_refused(tmp_path, open_state, N, l, p, rule):
    # p + 1 = l*N holds in both; 69 is 1 mod 4, and 1539 = 3^4 * 19 is 3
    # mod 4: a fresh state answers with the rule, and pins and logs nothing,
    # and as the first line of a log the hello fails the restart
    hello = hello_message({"backend": CURVE_A1, "N": str(N), "p": str(p), "l": str(l)}, 1)
    state = open_state(tmp_path / "wire")
    assert json.loads(state.handle_line(json.dumps(hello))) == {"type": "error", "error": rule}
    assert state.hello is None and state.snapshot_messages() == []
    assert (tmp_path / "wire" / "log.jsonl").read_bytes() == b""
    (tmp_path / "log").mkdir()
    (tmp_path / "log" / "log.jsonl").write_text(json.dumps(hello) + "\n")
    with pytest.raises(DataIntegrityError, match=f"corrupt state log line 1: {rule}$"):
        open_state(tmp_path / "log")


def test_duplicate_puts_rejected(deployment, rng):
    config, sk = deployment
    server = ServerState()
    fill(config, sk, [("a", (1, 1))], server, rng)
    msgs = prot.point_messages(config, sk, "a", (2, 2), rng=rng)
    replies = [server.request(m) for m in msgs]
    assert all(r["type"] == "error" and "duplicate id" in r["error"] for r in replies)


def test_delete_reports_found(deployment, rng):
    config, sk = deployment
    server = ServerState()
    fill(config, sk, [("a", (1, 1))], server, rng)
    assert server.request({"type": "delete", "id": "a"}) == {"type": "ack", "found": True}
    assert server.request({"type": "delete", "id": "a"}) == {"type": "ack", "found": False}


def test_delete_of_unknown_id_is_not_logged(deployment, rng, tmp_path, open_state):
    config, sk = deployment
    state = open_state(tmp_path)
    fill(config, sk, [("a", (1, 2))], state, rng)
    log = tmp_path / "log.jsonl"
    before = log.read_bytes()
    assert state.request({"type": "delete", "id": "b"}) == {"type": "ack", "found": False}
    assert log.read_bytes() == before
    snapshot = state.snapshot_messages()
    state.close()
    # a log that holds such a delete, as older servers wrote, still replays
    log.write_bytes(before + b'{"id": "b", "type": "delete"}\n')
    assert _restarted(open_state, tmp_path) == snapshot


def test_tuple_without_its_record_is_rejected(deployment, rng):
    config, sk = deployment
    server = ServerState()
    fill(config, sk, [("a", (5, 5))], server, rng)
    before = server.snapshot_messages()
    orphan = prot.point_messages(config, sk, "z", (5, 6), rng=rng)[1]  # z's tuple at level 0, no put_store
    reply = server.request(orphan)
    assert reply["type"] == "error" and "put_store" in reply["error"]
    assert server.snapshot_messages() == before
    assert prot.query_sphere(config, sk, SphereQuery((5, 5), 2), server).ids == {"a"}  # the level still answers


def test_paired_tuple_count_is_store_size(deployment, rng, monkeypatch):
    config, sk = deployment
    ds = random_dataset(rng, 17)
    server = ServerState()
    fill(config, sk, ds, server, rng)
    comp = make_sphere_query_component(SphereQuery((3, 3), 5), config.layout)
    paired = []

    group_class = type(sk.group)
    pair_products = group_class.pair_products

    def counting_pair_products(group, prepared, tuples):
        paired.extend(tuples)
        return pair_products(group, prepared, tuples)

    monkeypatch.setattr(group_class, "pair_products", counting_pair_products)
    server.request(prot.query_message(config, sk, comp, 0))
    assert len(paired) == 17
    server.request(prot.query_message(config, sk, comp, 1))
    assert len(paired) == 34


def test_query_reply_deterministic(deployment, rng):
    config, sk = deployment
    server = ServerState()
    fill(config, sk, random_dataset(rng, 25), server, rng)
    comp = make_sphere_query_component(SphereQuery((40, 40), 18), config.layout)
    line = json.dumps(prot.query_message(config, sk, comp, 0))
    assert server.handle_line(line) == server.handle_line(line)


# -- persistence --------------------------------------------------------------------


def test_restart_replays_state(deployment, rng, tmp_path, open_state):
    config, sk = deployment
    ds = random_dataset(rng, 12)
    first = open_state(tmp_path)
    fill(config, sk, ds, first, rng)
    q = SphereQuery((50, 50), 20)
    want = prot.query_sphere(config, sk, q, first)
    first.close()

    reborn = open_state(tmp_path)
    assert prot.query_sphere(config, sk, q, reborn) == want
    assert reborn.db_store.keys() == first.db_store.keys()
    reborn.close()


def test_restart_between_any_two_messages(deployment, rng, tmp_path, open_state):
    config, sk = deployment
    msgs = list(prot.setup_messages(config, sk, random_dataset(rng, 3), rng=rng))
    cut = len(msgs) // 2
    state = open_state(tmp_path)
    for msg in msgs[:cut]:
        assert state.request(msg)["type"] == "ack"
    state.close()  # simulated crash after the ack

    state = open_state(tmp_path)
    for msg in msgs[cut:]:
        assert state.request(msg)["type"] == "ack"
    q = SphereQuery((50, 50), 20)
    fresh = ServerState()
    for msg in msgs:
        fresh.request(msg)
    assert prot.query_sphere(config, sk, q, state) == prot.query_sphere(config, sk, q, fresh)
    state.close()


def test_compaction_preserves_state(deployment, rng, tmp_path, open_state):
    config, sk = deployment
    ds = random_dataset(rng, 10)
    state = open_state(tmp_path)
    fill(config, sk, ds, state, rng)
    state.request({"type": "delete", "id": ds[0][0]})
    q = SphereQuery((50, 50), 20)
    want = prot.query_sphere(config, sk, q, state)
    state.compact()
    state.close()
    reborn = open_state(tmp_path)
    assert prot.query_sphere(config, sk, q, reborn) == want
    reborn.close()


def _logged_state(open_state, config, sk, rng, state_dir):
    state = open_state(state_dir)
    fill(config, sk, [("a", (1, 2)), ("b", (60, 61))], state, rng)
    state.close()
    return (state_dir / "log.jsonl").read_bytes()


def _restarted(open_state, state_dir):
    state = open_state(state_dir)
    state.close()
    return state.snapshot_messages()


def test_torn_log_tail_restarts(deployment, rng, tmp_path, open_state):
    config, sk = deployment
    log = _logged_state(open_state, config, sk, rng, tmp_path / "full")
    head = log[: log.rindex(b"\n", 0, len(log) - 1) + 1]
    last = log[len(head):]
    cut_dir = tmp_path / "cut"
    cut_dir.mkdir()
    (cut_dir / "log.jsonl").write_bytes(head)
    without_last = _restarted(open_state, cut_dir)
    for cut in range(1, len(last)):  # every cut inside the record, before its newline
        (cut_dir / "log.jsonl").write_bytes(head + last[:cut])
        assert _restarted(open_state, cut_dir) == without_last
        assert (cut_dir / "log.jsonl").read_bytes() == head  # truncated to the last newline
    # the dropped record was never acknowledged: the client sends it again
    state = open_state(cut_dir)
    assert state.request(json.loads(last))["type"] == "ack"
    state.close()
    assert _restarted(open_state, cut_dir) == _restarted(open_state, tmp_path / "full")


@pytest.mark.parametrize(
    "damage", ["middle", "last-with-newline", "not-an-object", "rejected", "too-deep", "blank", "orphan", "lookup-v"]
)
def test_corrupt_log_line_fails_closed(deployment, rng, tmp_path, damage, open_state):
    config, sk = deployment
    lines = _logged_state(open_state, config, sk, rng, tmp_path).splitlines(keepends=True)
    number = len(lines) if damage == "last-with-newline" else 3
    if damage == "middle":
        lines[2] = lines[2][: len(lines[2]) // 2] + b"\n"
    elif damage == "last-with-newline":
        lines[-1] = lines[-1][: len(lines[-1]) // 2] + b"\n"
    elif damage == "not-an-object":
        lines.insert(2, b"[1, 2]\n")
    elif damage == "too-deep":  # the wire rejects this line, so replay must too
        lines.insert(2, b'{"type": "delete", "id": [[[[]]]]}\n')
    elif damage == "blank":  # as is this one
        lines.insert(2, b"\n")
    elif damage == "orphan":  # a tuple without its put_store, which older servers acked and logged
        orphan = prot.point_messages(config, sk, "z", (5, 6), rng=rng)[1]
        lines.insert(2, json.dumps(orphan, sort_keys=True).encode() + b"\n")
    elif damage == "lookup-v":  # a table whose v does not match its digests, which older servers acked
        lookup = json.loads(lines[1])
        lines.insert(2, json.dumps(dict(lookup, v=lookup["v"] + 1), sort_keys=True).encode() + b"\n")
    else:
        lines.insert(2, b'{"type": "frobnicate"}\n')
    (tmp_path / "log.jsonl").write_bytes(b"".join(lines))
    with pytest.raises(DataIntegrityError, match=f"corrupt state log line {number}:") as exc:
        open_state(tmp_path)
    assert damage != "orphan" or "'z' has no record in db-store" in str(exc.value)
    assert damage != "lookup-v" or f"v = {config.v + 1} holds v + 1 digests, not {config.v + 1}" in str(exc.value)


def test_slot_count_pinned_per_level(deployment, rng, tmp_path, open_state):
    config, sk = deployment
    state = open_state(tmp_path)
    fill(config, sk, [("a", (5, 5))], state, rng)
    store, good = prot.point_messages(config, sk, "b", (5, 6), rng=rng)[:2]  # b's record, its tuple at level 0
    assert state.request(store)["type"] == "ack"
    short = dict(good, slots=good["slots"][:-1])
    reply = state.request(short)
    assert reply["type"] == "error" and "slots" in reply["error"]
    q = SphereQuery((5, 5), 2)
    assert prot.query_sphere(config, sk, q, state).ids == {"a"}  # the level still answers
    state.close()
    state = open_state(tmp_path)  # replay keeps the pin
    assert state.request(short)["type"] == "error"
    assert state.request(good)["type"] == "ack"
    state.close()
    # the first tuple at an empty level sets the count
    fresh = ServerState()
    fill(config, sk, [], fresh, rng)
    assert fresh.request(store)["type"] == "ack"
    assert fresh.request(dict(store, id="c"))["type"] == "ack"
    assert fresh.request(dict(good, slots=[])) == {"type": "error", "error": "tuple has no slots"}
    assert fresh.request(short)["type"] == "ack"
    reply = fresh.request(dict(good, id="c"))
    assert reply["type"] == "error" and "slots" in reply["error"]


def test_query_slot_count_is_checked_before_any_prepare(curve_deployment, rng, monkeypatch):
    # a query's work is bounded by its level: a wrong slot count at a
    # populated level is an error before any slot is prepared (or parsed),
    # and a query at an empty level parses its slots, prepares none and
    # matches nothing
    config, sk = curve_deployment
    populated, empty = ServerState(), ServerState()
    fill(config, sk, [("a", (5, 5))], populated, rng)
    fill(config, sk, [], empty, rng)
    comp = make_sphere_query_component(SphereQuery((5, 5), 2), config.layout)
    good = prot.query_message(config, sk, comp, 0)
    prepared = []
    prepare = CurveGroup.prepare
    monkeypatch.setattr(CurveGroup, "prepare", lambda grp, x: prepared.append(x) or prepare(grp, x))
    for slots in ([], good["slots"][:-1], good["slots"] * 100, ["AAAA"] * 5):
        reply = populated.request(dict(good, slots=slots))
        assert reply == {"type": "error", "error": f"query has {len(slots)} slots, level 0 holds 4"}
    for slots in (good["slots"], good["slots"] * 100):
        assert empty.request(dict(good, slots=slots)) == {"type": "result", "matches": []}
    assert prepared == []
    assert empty.request(dict(good, slots=["AAAA"])) == {"type": "error", "error": "not a curve G element encoding"}
    assert [m["id"] for m in populated.request(good)["matches"]] == ["a"]
    assert len(prepared) == 4


def test_put_tuple_decodes_no_slot_before_its_other_checks(curve_deployment, rng, monkeypatch):
    # a put_tuple's work is bounded as a query's: a wrong slot count at a
    # populated level, or an id already held there, is an error before any
    # slot is decoded, and a put_tuple that passes decodes each slot once
    config, sk = curve_deployment
    state = ServerState()
    fill(config, sk, [("a", (5, 5))], state, rng)
    store, good = prot.point_messages(config, sk, "b", (5, 6), rng=rng)[:2]  # b's record, its tuple at level 0
    assert state.request(store) == {"type": "ack"}
    width = len(good["slots"])
    decoded = []
    decode = CurveGroup.decode
    monkeypatch.setattr(CurveGroup, "decode", lambda grp, data: decoded.append(data) or decode(grp, data))
    for slots in (good["slots"][:-1], good["slots"] * 100, ["AAAA"] * (width + 1)):
        reply = state.request(dict(good, slots=slots))
        assert reply == {"type": "error", "error": f"tuple has {len(slots)} slots, level 0 holds {width}"}
    for slots in (good["slots"], ["AAAA"] * width):
        assert state.request(dict(good, id="a", slots=slots)) == {"type": "error", "error": "duplicate id 'a' at level 0"}
    assert decoded == []
    assert state.request(good) == {"type": "ack"}
    assert decoded == [b64d(s) for s in good["slots"]]


@pytest.mark.parametrize("kind", ["put_tuple", "delete"])
def test_failed_log_append_changes_nothing(deployment, rng, tmp_path, monkeypatch, kind, open_state):
    config, sk = deployment
    state = open_state(tmp_path)
    fill(config, sk, [("a", (1, 2))], state, rng)
    if kind == "put_tuple":
        store, msg = prot.point_messages(config, sk, "b", (5, 6), rng=rng)[:2]  # b's record, its tuple at level 0
        assert state.request(store)["type"] == "ack"
    else:
        msg = {"type": "delete", "id": "a"}
    before = state.snapshot_messages()
    log = (tmp_path / "log.jsonl").read_bytes()
    fsync = os.fsync

    def full_disk_once(fd):
        monkeypatch.setattr(shrq.server.os, "fsync", fsync)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(shrq.server.os, "fsync", full_disk_once)
    reply = state.request(msg)
    assert reply["type"] == "error" and "log" in reply["error"]
    assert state.snapshot_messages() == before
    assert (tmp_path / "log.jsonl").read_bytes() == log  # cut back to before the append
    assert state.request(msg)["type"] == "ack"  # the next line is answered
    after = state.snapshot_messages()
    assert after != before
    state.close()
    assert _restarted(open_state, tmp_path) == after


@pytest.mark.parametrize("failing_fsync", ["snapshot", "directory"])
def test_failed_compaction_still_acks(deployment, rng, tmp_path, monkeypatch, failing_fsync, open_state):
    config, sk = deployment
    monkeypatch.setattr(shrq.server, "_COMPACT_EVERY", 3)
    state = open_state(tmp_path)
    fill(config, sk, [], state, rng)  # hello and put_lookup: two logged mutations
    log = tmp_path / "log.jsonl"
    fsync, calls = os.fsync, []
    fail_at = 2 if failing_fsync == "snapshot" else 3  # after the append's fsync

    def full_disk_in_compaction(fd):
        calls.append(fd)
        if len(calls) == fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        fsync(fd)

    monkeypatch.setattr(shrq.server.os, "fsync", full_disk_in_compaction)
    store = {"type": "put_store", "id": "x1", "blob": b64e(b"blob one")}
    assert state.request(store) == {"type": "ack"}  # the third mutation triggers compaction
    assert len(calls) == fail_at
    assert not (tmp_path / "log.jsonl.tmp").exists()
    assert [m.get("id") for m in _restarted(open_state, tmp_path)] == [None, None, "x1"]
    inode = log.stat().st_ino
    assert state.request(dict(store, id="x2", blob=b64e(b"blob two"))) == {"type": "ack"}
    assert log.stat().st_ino != inode  # the next mutation compacted: a new file was renamed in
    state.close()
    assert [m.get("id") for m in _restarted(open_state, tmp_path)] == [None, None, "x1", "x2"]


def _failing_on_directories(fsync):
    """An os.fsync that fails on a directory as a broken disk does."""

    def fsync_or_fail(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        fsync(fd)

    return fsync_or_fail


def test_append_after_failed_directory_fsync_survives_restart(deployment, rng, tmp_path, monkeypatch, open_state):
    # the rename happened, so the snapshot is the log: the next append must
    # land in it even though no later compaction rewrites it from memory
    config, sk = deployment
    state = open_state(tmp_path)
    fill(config, sk, [], state, rng)
    fsync = os.fsync
    monkeypatch.setattr(shrq.server.os, "fsync", _failing_on_directories(fsync))
    with pytest.raises(OSError):
        state.compact()
    monkeypatch.setattr(shrq.server.os, "fsync", fsync)
    assert state.request({"type": "put_store", "id": "x1", "blob": b64e(b"x")}) == {"type": "ack"}
    state.close()
    assert [m.get("id") for m in _restarted(open_state, tmp_path)] == [None, None, "x1"]


def test_compaction_past_stale_tmp_link(deployment, rng, tmp_path, open_state):
    config, sk = deployment
    state_dir, outside = tmp_path / "state", tmp_path / "outside"
    outside.write_bytes(b"not the server's")
    state = open_state(state_dir)
    fill(config, sk, [("a", (1, 2))], state, rng)
    (state_dir / "log.jsonl.tmp").symlink_to(outside)
    want = state.snapshot_messages()
    state.compact()
    state.close()
    log = state_dir / "log.jsonl"
    assert not log.is_symlink() and log.is_file()
    assert outside.read_bytes() == b"not the server's"
    assert os.listdir(state_dir) == ["log.jsonl"]
    assert _restarted(open_state, state_dir) == want


def test_log_is_owner_only(deployment, rng, tmp_path, open_state):
    # the same mode from creation as after compaction, under umask 022
    config, sk = deployment
    log = tmp_path / "log.jsonl"
    old = os.umask(0o022)
    try:
        state = open_state(tmp_path)
        fill(config, sk, [("a", (1, 2))], state, rng)
        assert stat.S_IMODE(log.stat().st_mode) == 0o600
        state.compact()
    finally:
        os.umask(old)
    assert stat.S_IMODE(log.stat().st_mode) == 0o600


def test_compaction_counts_replayed_lines(deployment, rng, tmp_path, monkeypatch, open_state):
    config, sk = deployment
    msgs = list(prot.setup_messages(config, sk, random_dataset(rng, 2), rng=rng))
    snapshots = {}
    for n in range(1, len(msgs) + 1):  # logs that end on and between multiples of 3
        state = open_state(tmp_path / str(n))
        for msg in msgs[:n]:
            assert state.request(msg)["type"] == "ack"
        state.close()
        snapshots[n] = state.snapshot_messages()
    monkeypatch.setattr(shrq.server, "_COMPACT_EVERY", 3)
    for n, snapshot in snapshots.items():
        open_state(tmp_path / str(n)).close()  # replay itself compacts nothing
        state = open_state(tmp_path / str(n))
        assert state.snapshot_messages() == snapshot
    # the replayed lines count: a server restarted more often than every
    # _COMPACT_EVERY mutations still compacts, at its first mutation here
    log = tmp_path / str(len(msgs)) / "log.jsonl"
    inode = log.stat().st_ino
    assert state.request({"type": "put_store", "id": "x", "blob": b64e(b"x")}) == {"type": "ack"}
    assert log.stat().st_ino != inode


def test_only_a_logged_mutation_compacts(deployment, rng, tmp_path, monkeypatch, open_state):
    # after a restart whose replay reached the count, a request that logs
    # nothing leaves the log as it is; the next mutation compacts it
    config, sk = deployment
    state = open_state(tmp_path)
    fill(config, sk, [("a", (1, 2))], state, rng)
    state.close()
    log = tmp_path / "log.jsonl"
    monkeypatch.setattr(shrq.server, "_COMPACT_EVERY", log.read_bytes().count(b"\n"))
    state = open_state(tmp_path)
    before, inode = log.read_bytes(), log.stat().st_ino
    hello = hello_message(sk.group.params.describe(), config.levels)
    for request in (
        lambda: prot.query_sphere(config, sk, SphereQuery((1, 2), 1), state).ids == {"a"},
        lambda: state.request(hello) == {"type": "ack"},
        lambda: state.request({"type": "delete", "id": "b"}) == {"type": "ack", "found": False},
    ):
        assert request()
        assert (log.stat().st_ino, log.read_bytes()) == (inode, before)
    prot.insert_point(config, sk, "b", (3, 4), state, rng=rng)
    assert log.stat().st_ino != inode
    snapshot = state.snapshot_messages()
    state.close()
    assert _restarted(open_state, tmp_path) == snapshot


def _record_fsyncs(monkeypatch, events):
    fsync = os.fsync

    def recording_fsync(fd):
        events.append("fsync directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        fsync(fd)

    monkeypatch.setattr(shrq.server.os, "fsync", recording_fsync)


def test_compaction_fsyncs_directory_after_rename(deployment, rng, tmp_path, monkeypatch, open_state):
    config, sk = deployment
    state = open_state(tmp_path)
    fill(config, sk, [("a", (1, 2))], state, rng)
    events = []
    replace = os.replace

    def recording_replace(src, dst):
        events.append("replace")
        replace(src, dst)

    _record_fsyncs(monkeypatch, events)
    monkeypatch.setattr(shrq.server.os, "replace", recording_replace)
    state.compact()
    state.close()
    assert events == ["fsync file", "replace", "fsync directory"]


def test_fresh_state_directory_is_fsynced_before_first_ack(deployment, tmp_path, monkeypatch, open_state):
    config, sk = deployment
    events = []
    _record_fsyncs(monkeypatch, events)
    state = open_state(tmp_path / "state")
    assert state.request(hello_message(sk.group.params.describe(), config.levels)) == {"type": "ack"}
    state.close()
    # the state directory, then its parent, then the log line itself
    assert events == ["fsync directory", "fsync directory", "fsync file"]


def test_layered_curve_queries_match_oracle(rng):
    config = prot.make_config("l", 2, 100, 60, e_max=3, backend=CURVE_A1, layout=LAYOUT_UNIFIED)
    sk, _ = ces.keygen(32, 2, LAYOUT_UNIFIED, 100, 60, CURVE_A1, rng=random.Random(32))
    ds = random_dataset(rng, 10, x_max=60)
    state = ServerState()
    fill(config, sk, ds, state, rng)
    spheres = (SphereQuery((30, 30), 12), SphereQuery((10, 50), 25), SphereQuery((45, 15), 40))
    ranges = (RangeQuery(1, 10, 30), RangeQuery(2, 0, 60))
    for q in spheres:
        assert prot.query_sphere(config, sk, q, state).ids == hrq_oracle(ds, q)
    for rq in ranges:
        assert prot.query_range(config, sk, rq, state).ids == range_oracle(ds, rq)
    assert prot.query_range(config, sk, ranges[1], state).ids == {rid for rid, _ in ds}


# -- one order check per inbound slot (curveA1) ----------------------------------------


@pytest.fixture(scope="module")
def curve_deployment():
    config = prot.make_config("c", 2, 400, 100, e_max=2, backend=CURVE_A1, layout=LAYOUT_SHRQ)
    sk, _ = ces.keygen(32, 2, LAYOUT_SHRQ, 400, 100, CURVE_A1, rng=random.Random(33))
    return config, sk


def _off_g_slot(group, kind):
    """A slot that parses but lies outside G: the order-2 point (0, 0), whose
    walk meets infinity after one doubling, or the first curve point with
    x >= 2 and [N]P not infinity."""
    pt = (0, 0)
    if kind == "wide":
        p, x = group.p, 2
        while True:
            rhs = (x**3 + x) % p
            y = pow(rhs, (p + 1) // 4, p)
            if y * y % p == rhs and group._pt_mul((x, y), group.N) is not None:
                break
            x += 1
        pt = (x, y)
    raw = group.canonical_bytes(GElement(pt))
    assert group.parse(raw) == GElement(pt)
    return b64e(raw)


_OUTSIDE_G = {"type": "error", "error": "point outside the order-N subgroup"}


@pytest.mark.parametrize("kind", ["order 2", "wide"])
def test_off_subgroup_query_slot_gets_one_error_reply(curve_deployment, rng, kind):
    # the query's Miller walk is its slots' order check: one error reply on
    # the connection, no state changed, and the next line is answered
    config, sk = curve_deployment
    ds = [("a", (5, 5)), ("b", (40, 41))]
    state = ServerState()
    fill(config, sk, ds, state, rng)
    comp = make_sphere_query_component(SphereQuery((5, 5), 2), config.layout)
    good = prot.query_message(config, sk, comp, 0)
    bad = dict(good, slots=good["slots"][:1] + [_off_g_slot(sk.group, kind)] + good["slots"][2:])
    before = state.snapshot_messages()
    srv = TcpServer(("127.0.0.1", 0), state)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        with ServerConnection(*srv.server_address[:2], timeout=5.0) as conn:
            assert conn.request(bad) == _OUTSIDE_G
            assert state.snapshot_messages() == before
            assert conn.request(good) == state.request(good)
            assert prot.query_sphere(config, sk, SphereQuery((5, 5), 2), conn).ids == {"a"}
    finally:
        srv.shutdown()
        srv.server_close()


@pytest.mark.parametrize("kind", ["order 2", "wide"])
@pytest.mark.parametrize("durable", [True, False], ids=["state-dir", "in-memory"])
def test_off_subgroup_put_tuple_is_rejected(curve_deployment, rng, tmp_path, open_state, durable, kind):
    # a wire put_tuple is decoded, order check included, with or without a log
    config, sk = curve_deployment
    state = open_state(tmp_path) if durable else ServerState()
    fill(config, sk, [("a", (5, 5))], state, rng)
    store, good = prot.point_messages(config, sk, "b", (5, 6), rng=rng)[:2]
    assert state.request(store)["type"] == "ack"
    before = state.snapshot_messages()
    log = tmp_path / "log.jsonl"
    logged = log.read_bytes() if durable else None
    bad = dict(good, slots=[_off_g_slot(sk.group, kind)] + good["slots"][1:])
    assert state.request(bad) == _OUTSIDE_G
    assert state.snapshot_messages() == before
    assert not durable or log.read_bytes() == logged
    assert state.request(good)["type"] == "ack"


def test_replay_parses_and_the_wire_decodes(curve_deployment, rng, tmp_path, open_state, monkeypatch):
    # a restart runs no order check on its own log; after it, a wire
    # put_tuple is decoded slot by slot and a query decodes nothing (its
    # walk is the check)
    config, sk = curve_deployment
    state = open_state(tmp_path)
    fill(config, sk, [("a", (5, 5)), ("b", (40, 41))], state, rng)
    state.close()
    decoded = []
    decode = CurveGroup.decode
    monkeypatch.setattr(CurveGroup, "decode", lambda grp, data: decoded.append(data) or decode(grp, data))
    state = open_state(tmp_path)
    assert decoded == []
    store, tup = prot.point_messages(config, sk, "c", (7, 7), rng=rng)[:2]
    assert state.request(store)["type"] == "ack"
    assert state.request(tup)["type"] == "ack"
    assert decoded == [b64d(s) for s in tup["slots"]]
    assert prot.query_sphere(config, sk, SphereQuery((6, 6), 2), state).ids == {"a", "c"}
    assert decoded == [b64d(s) for s in tup["slots"]]


def test_log_slot_off_the_curve_fails_replay(curve_deployment, rng, tmp_path, open_state):
    # replay skips the order check but not the parse: a flipped coordinate
    # bit in a logged put_tuple slot leaves the curve and fails the restart
    config, sk = curve_deployment
    state = open_state(tmp_path)
    fill(config, sk, [("a", (5, 5)), ("b", (40, 41))], state, rng)
    state.close()
    log = tmp_path / "log.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)
    number = [n for n, line in enumerate(lines, start=1) if json.loads(line)["type"] == "put_tuple"][-2]
    msg = json.loads(lines[number - 1])
    raw = bytearray(b64d(msg["slots"][0]))
    assert raw[1] == 1  # a point, not the identity
    raw[-1] ^= 1  # the low bit of y
    msg["slots"][0] = b64e(bytes(raw))
    lines[number - 1] = json.dumps(msg, sort_keys=True).encode() + b"\n"
    log.write_bytes(b"".join(lines))
    with pytest.raises(DataIntegrityError, match=f"corrupt state log line {number}: point not on curve"):
        open_state(tmp_path)


def test_mutations_logged_queries_not(deployment, rng, tmp_path, open_state):
    config, sk = deployment
    state = open_state(tmp_path)
    fill(config, sk, [("a", (1, 2))], state, rng)
    comp = make_sphere_query_component(SphereQuery((1, 2), 1), config.layout)
    state.request(prot.query_message(config, sk, comp, 0))
    state.close()
    lines = (tmp_path / "log.jsonl").read_text().strip().splitlines()
    kinds = [json.loads(line)["type"] for line in lines]
    assert "query" not in kinds
    assert kinds.count("hello") == 1


def test_repeated_hello_is_not_logged(deployment, tmp_path, open_state):
    config, sk = deployment
    hello = hello_message(sk.group.params.describe(), config.levels)
    state = open_state(tmp_path)
    assert state.request(hello) == state.request(hello) == {"type": "ack"}
    state.close()
    log = tmp_path / "log.jsonl"
    assert len(log.read_text().splitlines()) == 1
    # a log that holds a repeated hello, as older servers wrote, still replays
    log.write_text(log.read_text() * 2)
    state = open_state(tmp_path)
    assert state.snapshot_messages() == [hello]
    state.close()


# state written by commit c8bee39, before the group descriptor and the planner
# were unified: a layered deployment (transparent backend, unified layout,
# d=2, v=100, x_max=60, E_max=2) holding these points after one insert (p6)
# and one delete (p2)
WRITTEN_BY_C8BEE39 = os.path.join(os.path.dirname(__file__), "data", "written_by_c8bee39")
C8BEE39_POINTS = {
    "p0": (29, 4), "p1": (51, 24), "p3": (6, 18), "p4": (22, 47), "p5": (13, 34), "p6": (30, 31),
}


def test_reads_state_written_by_c8bee39(tmp_path, open_state):
    shutil.copytree(WRITTEN_BY_C8BEE39, tmp_path, dirs_exist_ok=True)
    sk, config, offsets = load_keyfile(str(tmp_path / "key.json"))
    state = open_state(tmp_path)
    assert set(state.db_store) == set(C8BEE39_POINTS)
    points = C8BEE39_POINTS.items()
    for q in (SphereQuery((30, 30), 5), SphereQuery((20, 20), 25), SphereQuery((40, 40), 30)):
        assert prot.query_sphere(config, sk, q, state).ids == hrq_oracle(points, q)
    for rq in (RangeQuery(1, 10, 30), RangeQuery(2, 0, 100)):
        assert prot.query_range(config, sk, rq, state).ids == range_oracle(points, rq)
    # the same hello on the wire, and the same key file on disk
    logged_hello = json.loads((tmp_path / "log.jsonl").read_text().splitlines()[0])
    assert hello_message(sk.group.params.describe(), config.levels) == logged_hello
    assert state.snapshot_messages()[0] == logged_hello
    state.close()
    save_keyfile(str(tmp_path / "again.json"), sk, config, offsets)
    with open(tmp_path / "again.json") as again, open(tmp_path / "key.json") as old:
        assert json.load(again) == json.load(old)


def test_no_compiler_means_a_config_error_naming_cc(curve_deployment, rng, tmp_path, open_state, monkeypatch):
    # with no cc on PATH and no library built yet, a process's first curve
    # decode raises a ConfigError naming cc, and so does the next, with no
    # second build; the transparent backend, c8bee39's state and the replay
    # of a curve state still work, and a curve put_tuple gets one error reply
    config, sk = curve_deployment
    state = open_state(tmp_path / "curve")
    fill(config, sk, [("a", (5, 5))], state, rng)
    state.close()
    store, tup = prot.point_messages(config, sk, "b", (7, 7), rng=rng)[:2]
    real_load, real_build, builds = shrq._kernel.load, shrq._kernel._build, []

    def build(source, path):
        builds.append(path)
        return real_build(source, path)

    monkeypatch.setattr(shrq._kernel, "_build", build)
    monkeypatch.setattr(shrq._kernel, "load", lambda directory: real_load(str(tmp_path / "cache")))
    monkeypatch.setattr(shrq._kernel, "_handle", shrq._kernel._UNTRIED)
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    for _ in range(2):
        with pytest.raises(ConfigError, match=r"\bcc\b"):
            sk.group.decode(sk.group.canonical_bytes(sk.s))
    assert len(builds) == 1 and os.listdir(tmp_path / "cache") == []
    toy = group_from_primes(5, 7, TRANSPARENT)
    assert toy.pair(GElement(2), GElement(3)) == toy.pow(toy.pair(GElement(1), GElement(1)), 6)
    shutil.copytree(WRITTEN_BY_C8BEE39, tmp_path / "c8bee39")
    old_sk, old_config, _ = load_keyfile(str(tmp_path / "c8bee39" / "key.json"))
    q = SphereQuery((20, 20), 25)
    assert prot.query_sphere(old_config, old_sk, q, open_state(tmp_path / "c8bee39")).ids == hrq_oracle(
        C8BEE39_POINTS.items(), q)
    state = open_state(tmp_path / "curve")
    assert set(state.db_store) == {"a"} and state.request(store) == {"type": "ack"}
    reply = state.request(tup)
    assert reply.keys() == {"type", "error"} and reply["type"] == "error" and " cc " in reply["error"]
    assert set(state.db_query[0]) == {"a"} and len(builds) == 1


# -- a directory-backed server against a plaintext mirror -----------------------------

_IDS = st.sampled_from("abcde")
_POINTS = st.tuples(st.integers(0, 100), st.integers(0, 100))


class _ServerMachine(RuleBasedStateMachine):
    """Inserts, updates, deletes, rejected mutations and sphere queries
    against a plaintext mirror, with restarts, torn restarts and compactions
    whose directory fsync fails."""

    def __init__(self, root, config, sk):
        super().__init__()
        self.config, self.sk, self.rng = config, sk, random.Random(7)
        self.dir = Path(tempfile.mkdtemp(dir=root))
        self.log = self.dir / "log.jsonl"
        self.state = ServerState(str(self.dir))
        self.inode = self.log.stat().st_ino
        self.base = 0  # log lines when it was last rewritten as a snapshot
        self.mirror = {}  # id -> coords
        prot.run_setup(config, sk, [], self, rng=self.rng)

    def _lines(self):
        return self.log.read_bytes().count(b"\n")

    def _note_rewrite(self):
        inode = self.log.stat().st_ino
        if inode != self.inode:  # compacted: the log is the snapshot alone
            self.inode, self.base = inode, self._lines()
            assert self.base == len(self.state.snapshot_messages())

    def request(self, msg):
        """The client code's server: any message may compact, so each one is
        checked before a later rewrite could reuse the log's inode."""
        reply = self.state.request(msg)
        self._note_rewrite()
        return reply

    @rule(rid=_IDS, coords=_POINTS)
    def insert(self, rid, coords):
        if rid not in self.mirror:
            prot.insert_point(self.config, self.sk, rid, coords, self, rng=self.rng)
            self.mirror[rid] = coords

    @rule(rid=_IDS, coords=_POINTS)
    def update(self, rid, coords):
        if rid in self.mirror:
            prot.update_point(self.config, self.sk, rid, coords, self, rng=self.rng)
            self.mirror[rid] = coords

    @rule(rid=_IDS, coords=_POINTS)
    def rejected_mutation(self, rid, coords):
        before = self.state.snapshot_messages()
        if rid in self.mirror:
            with pytest.raises(DuplicateIdError):
                prot.insert_point(self.config, self.sk, rid, coords, self, rng=self.rng)
        else:  # a tuple whose record was never stored
            orphan = prot.point_messages(self.config, self.sk, rid, coords, rng=self.rng)[1]
            assert self.request(orphan)["type"] == "error"
        assert self.state.snapshot_messages() == before

    @rule(rid=_IDS)
    def delete(self, rid):
        assert self.request({"type": "delete", "id": rid}) == {"type": "ack", "found": rid in self.mirror}
        self.mirror.pop(rid, None)

    @rule(center=_POINTS, radius=st.integers(0, 74))  # the widest radius the deployment plans
    def sphere_query(self, center, radius):
        q = SphereQuery(center, radius)
        got = prot.query_sphere(self.config, self.sk, q, self)
        assert got.records == sorted((rid, self.mirror[rid]) for rid in hrq_oracle(self.mirror.items(), q))

    @rule()
    def restart(self):
        before = self.state.snapshot_messages()
        self.state.close()
        self.state = ServerState(str(self.dir))
        assert self.state.snapshot_messages() == before

    @rule(cut=st.integers(0, 10**6))
    def torn_restart(self, cut):
        # a crash inside the last append: that line was never acknowledged,
        # so the client sends it again
        before = self.state.snapshot_messages()
        data = self.log.read_bytes()
        head = data[: data.rfind(b"\n", 0, len(data) - 1) + 1]
        last = data[len(head):]
        self.state.close()
        self.log.write_bytes(head + last[: 1 + cut % (len(last) - 1)])
        self.state = ServerState(str(self.dir))
        assert self.log.read_bytes() == head
        assert self.request(json.loads(last))["type"] == "ack"
        assert self.state.snapshot_messages() == before

    @rule()
    def compaction_with_failed_directory_fsync(self):
        fsync = os.fsync
        shrq.server.os.fsync = _failing_on_directories(fsync)
        try:
            with pytest.raises(OSError):
                self.state.compact()
        finally:
            shrq.server.os.fsync = fsync
        self._note_rewrite()

    @invariant()
    def log_bounded_by_its_snapshot(self):
        assert self._lines() - self.base <= shrq.server._COMPACT_EVERY

    def teardown(self):
        self.state.close()


def test_server_state_machine(deployment, tmp_path, monkeypatch):
    config, sk = deployment
    monkeypatch.setattr(shrq.server, "_COMPACT_EVERY", 6)
    run_state_machine_as_test(
        lambda: _ServerMachine(tmp_path, config, sk),
        settings=settings(max_examples=40, stateful_step_count=30, derandomize=True, database=None,
                          deadline=None, suppress_health_check=[HealthCheck.too_slow]),
    )


def test_closed_state_refuses_every_mutation(curve_deployment, rng, tmp_path, open_state):
    # close() waits for the line in hand and closes the log; after it every
    # mutation gets one error reply and changes nothing, a query is still
    # answered, and a restart holds what was acked before
    config, sk = curve_deployment
    state = ServerState(str(tmp_path))
    ds = [("a", (10, 10)), ("b", (12, 11)), ("c", (60, 60))]
    fill(config, sk, ds, state, rng)
    store, tup = prot.point_messages(config, sk, "d", (11, 11), rng=rng)[:2]
    assert state.request(store) == {"type": "ack"}  # so its put_tuple passes every check
    with state._lock:
        closing = threading.Thread(target=state.close)
        closing.start()
        closing.join(0.2)
        assert closing.is_alive()  # it waits for the lock
    closing.join(5)
    before, log = state.snapshot_messages(), (tmp_path / "log.jsonl").read_bytes()
    lookup = next(m for m in before if m["type"] == "put_lookup")
    for msg in (dict(store, id="e"), tup, {"type": "delete", "id": "a"}, lookup):
        assert state.request(msg) == {"type": "error", "error": "the state is closed"}
    q = SphereQuery((11, 11), 3)
    assert prot.query_sphere(config, sk, q, state).ids == {"a", "b"}
    state.compact()
    state.close()  # a second close does nothing
    assert state.snapshot_messages() == before and (tmp_path / "log.jsonl").read_bytes() == log
    assert open_state(tmp_path).snapshot_messages() == before


def test_writes_acked_around_serves_close_all_survive_a_restart(deployment, tmp_path, open_state):
    # serve's way out on Ctrl-C: the listening socket closes, then the state,
    # under a connection thread that keeps answering a client that writes in
    # a loop; the restart holds exactly the acked ids
    config, sk = deployment
    state = ServerState(str(tmp_path))
    state.request(hello_message(sk.group.params.describe(), config.levels))
    srv = TcpServer(("127.0.0.1", 0), state)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    acked, errors, stop = [], [], threading.Event()

    def client():
        with ServerConnection(*srv.server_address[:2], timeout=5.0) as conn:
            while not stop.is_set():
                rid = str(len(acked) + len(errors))
                reply = conn.request(shrq.server.store_message(rid, b"blob"))
                if reply == {"type": "ack"}:
                    acked.append(rid)
                else:
                    errors.append(reply["error"])

    writer = threading.Thread(target=client, daemon=True)
    writer.start()
    try:
        time.sleep(0.2)
        srv.shutdown()
        srv.server_close()
        state.close()
        time.sleep(0.1)
    finally:
        stop.set()
        writer.join(5)
    assert acked and errors and set(errors) == {"the state is closed"}
    assert sorted(open_state(tmp_path).db_store) == sorted(acked)


# -- TCP transport ---------------------------------------------------------------------


def test_tcp_round_trip(deployment, rng):
    config, sk = deployment
    ds = random_dataset(rng, 15)
    state = ServerState()
    srv = TcpServer(("127.0.0.1", 0), state)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    host, port = srv.server_address[:2]
    try:
        with ServerConnection(host, port) as conn:
            prot.run_setup(config, sk, ds, conn, rng=rng)
            q = SphereQuery((30, 30), 19)
            got = prot.query_sphere(config, sk, q, conn)
            assert got.ids == hrq_oracle(ds, q)
    finally:
        srv.shutdown()
        srv.server_close()


def test_tcp_malformed_line_keeps_connection(deployment):
    config, sk = deployment
    state = ServerState()
    srv = TcpServer(("127.0.0.1", 0), state)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    host, port = srv.server_address[:2]
    try:
        with ServerConnection(host, port, timeout=5.0) as conn:  # a line left unanswered fails, not hangs
            for line in ["zzz not json", "", "   ", *BAD_LINES]:
                conn._file.write(line.encode() + b"\n")
                conn._file.flush()
                assert json.loads(conn._file.readline())["type"] == "error"
            hello = hello_message(sk.group.params.describe(), config.levels)
            assert conn.request(hello)["type"] == "ack"  # still usable
    finally:
        srv.shutdown()
        srv.server_close()


def test_tcp_line_that_is_not_utf8_gets_one_error(deployment, tmp_path, open_state):
    # a line is read strictly as UTF-8 over TCP, as in replay: a put_store
    # whose id holds the byte 0xff gets one error reply, stores nothing, and
    # the connection stays open; the same bytes in a log fail the restart
    config, sk = deployment
    state = open_state(tmp_path / "wire")
    hello = hello_message(sk.group.params.describe(), config.levels)
    bad = json.dumps(shrq.server.store_message("a", b"blob")).encode().replace(b'"a"', b'"\xff"')
    srv = TcpServer(("127.0.0.1", 0), state)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        with ServerConnection(*srv.server_address[:2], timeout=5.0) as conn:
            assert conn.request(hello) == {"type": "ack"}
            log = (tmp_path / "wire" / "log.jsonl").read_bytes()
            conn._file.write(bad + b"\n")
            conn._file.flush()
            reply = json.loads(conn._file.readline())
            assert reply["type"] == "error" and "utf-8" in reply["error"], reply
            assert state.db_store == {} and (tmp_path / "wire" / "log.jsonl").read_bytes() == log
            assert conn.request(shrq.server.store_message("a", b"blob")) == {"type": "ack"}  # still usable
    finally:
        srv.shutdown()
        srv.server_close()
    (tmp_path / "log").mkdir()
    (tmp_path / "log" / "log.jsonl").write_bytes(log + bad + b"\n")
    with pytest.raises(DataIntegrityError, match="corrupt state log line 2: 'utf-8' codec"):
        open_state(tmp_path / "log")


def test_request_to_a_peer_that_hangs_up():
    listener = socket.create_server(("127.0.0.1", 0))

    def hang_up():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as fh:
            fh.readline()  # the whole request is read, so the close sends no reset

    thread = threading.Thread(target=hang_up, daemon=True)
    thread.start()
    try:
        with ServerConnection(*listener.getsockname()[:2]) as conn:
            with pytest.raises(ServerUnreachable, match="closed the connection"):
                conn.request({"type": "hello"})
    finally:
        thread.join(timeout=10)
        listener.close()


@pytest.mark.parametrize("failure", ["reset", "stall"])
def test_lost_connection_is_server_unreachable(failure):
    # a peer that resets the connection after reading the request, or one
    # that stalls past the timeout: this request and the next raise
    # ServerUnreachable, not an OSError, and closing does not raise
    listener = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()

    def peer():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as fh:
            fh.readline()
            if failure == "reset":  # close with SO_LINGER 0 sends a reset
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            else:
                done.wait(10)

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    try:
        with ServerConnection(*listener.getsockname()[:2], timeout=0.5) as conn:
            for _ in range(2):
                with pytest.raises(ServerUnreachable, match="connection to the server lost"):
                    conn.request({"type": "hello"})
        conn.close()
    finally:
        done.set()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def _modules_loaded_by(module):
    """sys.modules of a fresh interpreter after `import module`."""
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH="src")
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_server_imports_no_client_crypto():
    """The server module loads neither the client library nor its AES-GCM."""
    loaded = _modules_loaded_by("shrq.server")
    assert "shrq.protocols" not in loaded
    assert [m for m in loaded if m.split(".")[0] == "cryptography"] == []


def test_cli_imports_only_the_server():
    """`shrq serve` loads only the server: the CLI module loads no client
    module (protocols, keyfile, geometry, oracle, bench), no AES-GCM, no
    process pool (a scan's helper is a bare thread) and neither dataclasses
    nor inspect, counted against what a bare interpreter's site loads."""
    loaded = _modules_loaded_by("shrq.cli")
    server = ["shrq", "shrq.ces", "shrq.cli", "shrq.errors", "shrq.pairing", "shrq.server"]
    assert [m for m in loaded if m.split(".")[0] == "shrq"] == server
    pools = ("cryptography", "multiprocessing", "concurrent", "pickle")
    assert [m for m in loaded if m.split(".")[0] in pools] == []
    added = set(loaded) - set(_modules_loaded_by("json"))
    assert {"dataclasses", "inspect"}.isdisjoint(added)


def _modules_loaded_by_main(argv):
    """cli.main(argv)'s exit code and sys.modules in a fresh interpreter."""
    code = f"import json, sys; from shrq import cli; c = cli.main({argv!r}); print(json.dumps([c, sorted(sys.modules)]))"
    env = dict(os.environ, PYTHONPATH="src")
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_main_loads_the_client_modules_for_every_command_but_serve(tmp_path):
    # a bad --listen is refused before any fork or state
    code, loaded = _modules_loaded_by_main(["serve", "--listen", "bad", "--state", str(tmp_path / "state")])
    assert code == 3 and not (tmp_path / "state").exists()
    assert [m for m in loaded if m.split(".")[0] == "shrq"] == [
        "shrq", "shrq.ces", "shrq.cli", "shrq.errors", "shrq.pairing", "shrq.server"]
    assert [m for m in loaded if m.split(".")[0] == "cryptography"] == []
    data = tmp_path / "rows.csv"
    data.write_text("id,x1\na,3\n")
    code, loaded = _modules_loaded_by_main(["oracle", "range", "--data", str(data), "--col", "1", "--lo", "0"])
    client = {"shrq.protocols", "shrq.keyfile", "shrq.geometry", "shrq.oracle", "shrq.bench", "cryptography"}
    assert code == 0 and client <= set(loaded)


def test_protocols_imports_neither_dataclasses_nor_inspect():
    """Every record of the package is a pairing.Record, so the client library
    loads neither dataclasses nor inspect, counted as above."""
    added = set(_modules_loaded_by("shrq.protocols")) - set(_modules_loaded_by("json"))
    assert {"dataclasses", "inspect"}.isdisjoint(added)


def test_package_imports_none_of_its_modules():
    """The package re-exports nothing, so a module loads only what it imports."""
    loaded = _modules_loaded_by("shrq.errors")
    assert [m for m in loaded if m.split(".")[0] == "shrq"] == ["shrq", "shrq.errors"]


def test_connect_helper_unreachable():
    from shrq.errors import ServerUnreachable

    with pytest.raises(ServerUnreachable):
        connect("127.0.0.1:9")
