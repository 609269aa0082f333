import errno
import json
import os
import random
import shutil
import stat
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import shrq.server
from conftest import random_dataset
from shrq import ces, protocols as prot
from shrq.ces import LAYOUT_SHRQ, LAYOUT_UNIFIED
from shrq.errors import DataIntegrityError
from shrq.pairing import CURVE_A1, TRANSPARENT
from shrq.geometry import RangeQuery, SphereQuery, make_sphere_query_component
from shrq.keyfile import load_keyfile, save_keyfile
from shrq.oracle import hrq_oracle, range_oracle
from shrq.server import ServerConnection, ServerState, TcpServer, b64e, connect


@pytest.fixture(scope="module")
def deployment():
    config = prot.make_config("c", 2, 400, 100, e_max=2, backend=TRANSPARENT, layout=LAYOUT_SHRQ)
    sk, _ = ces.keygen(32, 2, LAYOUT_SHRQ, 400, 100, TRANSPARENT, rng=random.Random(31))
    return config, sk


def fill(config, sk, dataset, server, rng):
    prot.run_setup(config, sk, dataset, server, rng=rng)


# -- message-level behaviour ------------------------------------------------------


def test_put_then_query_roundtrip(deployment, rng):
    config, sk = deployment
    server = ServerState()
    ds = [("p1", (10, 10)), ("p2", (90, 90))]
    fill(config, sk, ds, server, rng)
    comp = make_sphere_query_component(SphereQuery((10, 10), 1), config.layout)
    reply = server.request(prot.query_message(sk, comp, 0))
    assert reply["type"] == "result"
    assert [m["id"] for m in reply["matches"]] == ["p1"]


def test_query_on_empty_level(deployment, rng):
    config, sk = deployment
    server = ServerState()
    fill(config, sk, [], server, rng)
    comp = make_sphere_query_component(SphereQuery((1, 1), 1), config.layout)
    reply = server.request(prot.query_message(sk, comp, 1))
    assert reply == {"type": "result", "matches": []}


def test_unknown_level_is_protocol_error(deployment, rng):
    config, sk = deployment
    server = ServerState()
    fill(config, sk, [], server, rng)
    comp = make_sphere_query_component(SphereQuery((1, 1), 1), config.layout)
    for bad in (3, -1, "0"):
        reply = server.request(dict(prot.query_message(sk, comp, 0), level=bad))
        assert reply["type"] == "error" and "level" in reply["error"]


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
    json.dumps(dict(BAD_CURVE_HELLO, levels=1e400)),  # int(inf): OverflowError
    json.dumps({"type": "put_tuple", "level": 0, "id": "x", "slots": ["AAAA"]}),  # ConfigError from decode
    json.dumps({"type": "query", "level": 0, "slots": ["AAAA", "AAAA"]}),  # the same, in a query
    json.dumps({"type": "put_lookup", "v": 1e400, "digests": []}),
    # nested so deep that json.loads succeeds but json.dumps of the log entry
    # can exceed the recursion limit; the exact depth depends on the stack
    *(f'{{"type": "delete", "id": {"[" * n}{"]" * n}}}' for n in range(900, 1000, 3)),
    *(f'{{"type": "put_store", "id": "x", "blob": "", "pad": {"[" * n}{"]" * n}}}' for n in range(901, 1000, 3)),
]


def test_malformed_and_unknown_messages(deployment, rng, tmp_path):
    config, sk = deployment
    server = ServerState(str(tmp_path))  # accepted mutations are serialized to the log
    fill(config, sk, [("a", (1, 1))], server, rng)
    before = server.snapshot_messages()
    for line in BAD_LINES:
        assert json.loads(server.handle_line(line))["type"] == "error", line[:80]
    assert server.snapshot_messages() == before
    server.close()


# -- any line gets one reply; a rejected one changes nothing --------------------

def _setup_stream():
    config = prot.make_config("c", 2, 100, 30, e_max=1, backend=TRANSPARENT, layout=LAYOUT_SHRQ)
    sk, _ = ces.keygen(32, 2, LAYOUT_SHRQ, 100, 30, TRANSPARENT, rng=random.Random(41))
    return list(prot.setup_messages(config, sk, [("a", (1, 1)), ("b", (9, 9))], rng=random.Random(2)))


_SETUP = _setup_stream()


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
    msg = {"type": draw(st.sampled_from(sorted(shrq.server._HANDLERS)))}
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


def test_hello_pinning(deployment):
    config, sk = deployment
    server = ServerState()
    hello = prot.hello_message(config, sk.group.params.describe())
    assert server.request(hello)["type"] == "ack"
    assert server.request(hello)["type"] == "ack"  # idempotent re-hello
    other = dict(hello, N=str(int(hello["N"]) + 2))
    reply = server.request(other)
    assert reply["type"] == "error" and "mismatch" in reply["error"]


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


def test_matched_id_missing_from_store_is_integrity_error(deployment, rng):
    config, sk = deployment
    server = ServerState()
    fill(config, sk, [("a", (5, 5))], server, rng)
    del server.db_store["a"]
    comp = make_sphere_query_component(SphereQuery((5, 5), 1), config.layout)
    reply = server.request(prot.query_message(sk, comp, 0))
    assert reply["type"] == "error" and "db-store" in reply["error"]


def test_compute_call_count_is_store_size(deployment, rng, monkeypatch):
    config, sk = deployment
    ds = random_dataset(rng, 17)
    server = ServerState()
    fill(config, sk, ds, server, rng)
    comp = make_sphere_query_component(SphereQuery((3, 3), 5), config.layout)
    calls = []

    def counting_compute(*args):
        calls.append(args)
        return ces.compute(*args)

    monkeypatch.setattr(shrq.server, "compute", counting_compute)
    server.request(prot.query_message(sk, comp, 0))
    assert len(calls) == 17
    server.request(prot.query_message(sk, comp, 1))
    assert len(calls) == 34


def test_query_reply_deterministic(deployment, rng):
    config, sk = deployment
    server = ServerState()
    fill(config, sk, random_dataset(rng, 25), server, rng)
    comp = make_sphere_query_component(SphereQuery((40, 40), 18), config.layout)
    line = json.dumps(prot.query_message(sk, comp, 0))
    assert server.handle_line(line) == server.handle_line(line)


# -- persistence --------------------------------------------------------------------


def test_restart_replays_state(deployment, rng, tmp_path):
    config, sk = deployment
    ds = random_dataset(rng, 12)
    first = ServerState(str(tmp_path))
    fill(config, sk, ds, first, rng)
    q = SphereQuery((50, 50), 20)
    want = prot.query_sphere(config, sk, q, first)
    first.close()

    reborn = ServerState(str(tmp_path))
    assert prot.query_sphere(config, sk, q, reborn) == want
    assert reborn.db_store.keys() == first.db_store.keys()
    reborn.close()


def test_restart_between_any_two_messages(deployment, rng, tmp_path):
    config, sk = deployment
    msgs = list(prot.setup_messages(config, sk, random_dataset(rng, 3), rng=rng))
    cut = len(msgs) // 2
    state = ServerState(str(tmp_path))
    for msg in msgs[:cut]:
        assert state.request(msg)["type"] == "ack"
    state.close()  # simulated crash after the ack

    state = ServerState(str(tmp_path))
    for msg in msgs[cut:]:
        assert state.request(msg)["type"] == "ack"
    q = SphereQuery((50, 50), 20)
    fresh = ServerState()
    for msg in msgs:
        fresh.request(msg)
    assert prot.query_sphere(config, sk, q, state) == prot.query_sphere(config, sk, q, fresh)
    state.close()


def test_compaction_preserves_state(deployment, rng, tmp_path):
    config, sk = deployment
    ds = random_dataset(rng, 10)
    state = ServerState(str(tmp_path))
    fill(config, sk, ds, state, rng)
    state.request({"type": "delete", "id": ds[0][0]})
    q = SphereQuery((50, 50), 20)
    want = prot.query_sphere(config, sk, q, state)
    state.compact()
    state.close()
    reborn = ServerState(str(tmp_path))
    assert prot.query_sphere(config, sk, q, reborn) == want
    reborn.close()


def _logged_state(config, sk, rng, state_dir):
    state = ServerState(str(state_dir))
    fill(config, sk, [("a", (1, 2)), ("b", (60, 61))], state, rng)
    state.close()
    return (state_dir / "log.jsonl").read_bytes()


def _restarted(state_dir):
    state = ServerState(str(state_dir))
    state.close()
    return state.snapshot_messages()


def test_torn_log_tail_restarts(deployment, rng, tmp_path):
    config, sk = deployment
    log = _logged_state(config, sk, rng, tmp_path / "full")
    head = log[: log.rindex(b"\n", 0, len(log) - 1) + 1]
    last = log[len(head):]
    cut_dir = tmp_path / "cut"
    cut_dir.mkdir()
    (cut_dir / "log.jsonl").write_bytes(head)
    without_last = _restarted(cut_dir)
    for cut in range(1, len(last)):  # every cut inside the record, before its newline
        (cut_dir / "log.jsonl").write_bytes(head + last[:cut])
        assert _restarted(cut_dir) == without_last
        assert (cut_dir / "log.jsonl").read_bytes() == head  # truncated to the last newline
    # the dropped record was never acknowledged: the client sends it again
    state = ServerState(str(cut_dir))
    assert state.request(json.loads(last))["type"] == "ack"
    state.close()
    assert _restarted(cut_dir) == _restarted(tmp_path / "full")


@pytest.mark.parametrize("damage", ["middle", "last-with-newline", "not-an-object", "rejected"])
def test_corrupt_log_line_fails_closed(deployment, rng, tmp_path, damage):
    config, sk = deployment
    lines = _logged_state(config, sk, rng, tmp_path).splitlines(keepends=True)
    number = len(lines) if damage == "last-with-newline" else 3
    if damage == "middle":
        lines[2] = lines[2][: len(lines[2]) // 2] + b"\n"
    elif damage == "last-with-newline":
        lines[-1] = lines[-1][: len(lines[-1]) // 2] + b"\n"
    elif damage == "not-an-object":
        lines.insert(2, b"[1, 2]\n")
    else:
        lines.insert(2, b'{"type": "frobnicate"}\n')
    (tmp_path / "log.jsonl").write_bytes(b"".join(lines))
    with pytest.raises(DataIntegrityError, match=f"corrupt state log line {number}:"):
        ServerState(str(tmp_path))


def test_slot_count_pinned_per_level(deployment, rng, tmp_path):
    config, sk = deployment
    state = ServerState(str(tmp_path))
    fill(config, sk, [("a", (5, 5))], state, rng)
    good = prot.point_messages(config, sk, "b", (5, 6), rng=rng)[1]  # b's tuple at level 0
    short = dict(good, slots=good["slots"][:-1])
    reply = state.request(short)
    assert reply["type"] == "error" and "slots" in reply["error"]
    q = SphereQuery((5, 5), 2)
    assert prot.query_sphere(config, sk, q, state).ids == {"a"}  # the level still answers
    state.close()
    state = ServerState(str(tmp_path))  # replay keeps the pin
    assert state.request(short)["type"] == "error"
    assert state.request(good)["type"] == "ack"
    state.close()
    # the first tuple at an empty level sets the count
    fresh = ServerState()
    fill(config, sk, [], fresh, rng)
    assert fresh.request(short)["type"] == "ack"
    assert fresh.request(dict(good, id="c"))["type"] == "error"


@pytest.mark.parametrize("kind", ["put_tuple", "delete"])
def test_failed_log_append_changes_nothing(deployment, rng, tmp_path, monkeypatch, kind):
    config, sk = deployment
    state = ServerState(str(tmp_path))
    fill(config, sk, [("a", (1, 2))], state, rng)
    if kind == "put_tuple":
        msg = prot.point_messages(config, sk, "b", (5, 6), rng=rng)[1]  # b's tuple at level 0
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
    assert _restarted(tmp_path) == after


@pytest.mark.parametrize("failing_fsync", ["snapshot", "directory"])
def test_failed_compaction_still_acks(deployment, rng, tmp_path, monkeypatch, failing_fsync):
    config, sk = deployment
    monkeypatch.setattr(shrq.server, "_COMPACT_EVERY", 3)
    state = ServerState(str(tmp_path))
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
    assert [m.get("id") for m in _restarted(tmp_path)] == [None, None, "x1"]
    inode = log.stat().st_ino
    assert state.request(dict(store, id="x2", blob=b64e(b"blob two"))) == {"type": "ack"}
    assert log.stat().st_ino != inode  # the next mutation compacted: a new file was renamed in
    state.close()
    assert [m.get("id") for m in _restarted(tmp_path)] == [None, None, "x1", "x2"]


def test_compaction_fsyncs_directory_after_rename(deployment, rng, tmp_path, monkeypatch):
    config, sk = deployment
    state = ServerState(str(tmp_path))
    fill(config, sk, [("a", (1, 2))], state, rng)
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        events.append("fsync directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        fsync(fd)

    def recording_replace(src, dst):
        events.append("replace")
        replace(src, dst)

    monkeypatch.setattr(shrq.server.os, "fsync", recording_fsync)
    monkeypatch.setattr(shrq.server.os, "replace", recording_replace)
    state.compact()
    state.close()
    assert events == ["fsync file", "replace", "fsync directory"]


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


def test_mutations_logged_queries_not(deployment, rng, tmp_path):
    config, sk = deployment
    state = ServerState(str(tmp_path))
    fill(config, sk, [("a", (1, 2))], state, rng)
    comp = make_sphere_query_component(SphereQuery((1, 2), 1), config.layout)
    state.request(prot.query_message(sk, comp, 0))
    state.close()
    lines = (tmp_path / "log.jsonl").read_text().strip().splitlines()
    kinds = [json.loads(line)["type"] for line in lines]
    assert "query" not in kinds
    assert kinds.count("hello") == 1


# state written by commit c8bee39, before the group descriptor and the planner
# were unified: a layered deployment (transparent backend, unified layout,
# d=2, v=100, x_max=60, E_max=2) holding these points after one insert (p6)
# and one delete (p2)
WRITTEN_BY_C8BEE39 = os.path.join(os.path.dirname(__file__), "data", "written_by_c8bee39")
C8BEE39_POINTS = {
    "p0": (29, 4), "p1": (51, 24), "p3": (6, 18), "p4": (22, 47), "p5": (13, 34), "p6": (30, 31),
}


def test_reads_state_written_by_c8bee39(tmp_path):
    shutil.copytree(WRITTEN_BY_C8BEE39, tmp_path, dirs_exist_ok=True)
    sk, config, offsets = load_keyfile(str(tmp_path / "key.json"))
    state = ServerState(str(tmp_path))
    assert set(state.db_store) == set(C8BEE39_POINTS)
    points = C8BEE39_POINTS.items()
    for q in (SphereQuery((30, 30), 5), SphereQuery((20, 20), 25), SphereQuery((40, 40), 30)):
        assert prot.query_sphere(config, sk, q, state).ids == hrq_oracle(points, q)
    for rq in (RangeQuery(1, 10, 30), RangeQuery(2, 0, 100)):
        assert prot.query_range(config, sk, rq, state).ids == range_oracle(points, rq)
    # the same hello on the wire, and the same key file on disk
    logged_hello = json.loads((tmp_path / "log.jsonl").read_text().splitlines()[0])
    assert prot.hello_message(config, sk.group.params.describe()) == logged_hello
    assert state.snapshot_messages()[0] == logged_hello
    state.close()
    save_keyfile(str(tmp_path / "again.json"), sk, config, offsets)
    with open(tmp_path / "again.json") as again, open(tmp_path / "key.json") as old:
        assert json.load(again) == json.load(old)


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
        with ServerConnection(host, port) as conn:
            for line in ["zzz not json", *BAD_LINES]:
                conn._file.write(line.encode() + b"\n")
                conn._file.flush()
                assert json.loads(conn._file.readline())["type"] == "error"
            hello = prot.hello_message(config, sk.group.params.describe())
            assert conn.request(hello)["type"] == "ack"  # still usable
    finally:
        srv.shutdown()
        srv.server_close()


def test_connect_helper_unreachable():
    from shrq.errors import ServerUnreachable

    with pytest.raises(ServerUnreachable):
        connect("127.0.0.1:9")
