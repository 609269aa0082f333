import contextlib
import csv
import errno
import functools
import json
import os
import random
import signal
import socket
import stat
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import shrq.server
from shrq import ces, cli, protocols as prot
from shrq.errors import ConfigError, KeyfileError, ProtocolError
from shrq.geometry import SphereQuery
from shrq.keyfile import load_keyfile, save_keyfile
from shrq.pairing import CURVE_A1, TRANSPARENT, group_from_primes

CLI = [sys.executable, "-m", "shrq.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# the CLI subprocesses import shrq from this checkout, installed or not
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=120, env=ENV, **kw)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def launch_serve(state, stderr=subprocess.PIPE, start_new_session=False):
    """A `shrq serve` of state on any free port, and the address its first
    stdout line reports.  It starts with SIGINT at its default disposition,
    as an interactive shell starts a command, even when this process ignores
    SIGINT, which a child would otherwise inherit."""
    proc = subprocess.Popen(CLI + ["serve", "--listen", "127.0.0.1:0", "--state", str(state)],
                            stdout=subprocess.PIPE, stderr=stderr, text=True, env=ENV,
                            preexec_fn=functools.partial(signal.signal, signal.SIGINT, signal.SIG_DFL),
                            start_new_session=start_new_session)
    return proc, json.loads(proc.stdout.readline())["listening"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """keygen + CSV + running server + setup, shared by the query tests."""
    root = tmp_path_factory.mktemp("cli")
    key = str(root / "key.json")
    data = str(root / "pts.csv")
    rng = random.Random(12)
    with open(data, "w") as fh:
        fh.write("id,x1,x2\n")
        for i in range(40):
            fh.write(f"{i},{rng.randrange(0, 90)},{rng.randrange(0, 90)}\n")
    assert run_cli(
        "keygen", "--lambda", "32", "--d", "2", "--layout", "unified", "--v", "400",
        "--x-max", "100", "--protocol", "c", "--emax", "3",
        "--out", key,
    ).returncode == 0

    server, address = launch_serve(root / "state", stderr=subprocess.DEVNULL)
    try:
        out = run_cli("setup", "--key", key, "--data", data, "--server", address)
        assert out.returncode == 0, out.stderr
        yield {"key": key, "data": data, "server": address}
    finally:
        server.terminate()
        server.communicate(timeout=30)


def test_query_sphere_matches_oracle(workspace):
    args = ["--center", "40,40", "--radius", "17"]
    enc = run_cli("query", "sphere", "--key", workspace["key"], "--server", workspace["server"], *args)
    ora = run_cli("oracle", "sphere", "--data", workspace["data"], *args)
    assert enc.returncode == 0 and ora.returncode == 0
    assert sorted(enc.stdout.splitlines()) == sorted(ora.stdout.splitlines())
    assert enc.stdout.strip(), "query should match something"
    first = json.loads(enc.stdout.splitlines()[0])
    assert set(first) == {"id", "coords"}


def test_query_range_matches_oracle(workspace):
    args = ["--col", "1", "--lo", "25", "--hi", "60"]
    enc = run_cli("query", "range", "--key", workspace["key"], "--server", workspace["server"], *args)
    ora = run_cli("oracle", "range", "--data", workspace["data"], *args)
    assert enc.returncode == 0 and ora.returncode == 0
    assert sorted(enc.stdout.splitlines()) == sorted(ora.stdout.splitlines())


@pytest.mark.parametrize("bound", [("--lo", "85"), ("--hi", "12"), ("--hi", "-3")])
def test_open_range_matches_oracle(workspace, bound):
    # a missing bound is open: [85, inf), (-inf, 12] and (-inf, -3]
    args = ["--col", "1", *bound]
    enc = run_cli("query", "range", "--key", workspace["key"], "--server", workspace["server"], *args)
    ora = run_cli("oracle", "range", "--data", workspace["data"], *args)
    assert enc.returncode == 0 and ora.returncode == 0, enc.stderr + ora.stderr
    assert sorted(enc.stdout.splitlines()) == sorted(ora.stdout.splitlines())
    with open(workspace["data"], newline="") as fh:
        xs = {row["id"]: int(row["x1"]) for row in csv.DictReader(fh)}
    value = int(bound[1])
    want = {rid for rid, x in xs.items() if (x >= value if bound[0] == "--lo" else x <= value)}
    assert {json.loads(line)["id"] for line in ora.stdout.splitlines()} == want


@pytest.mark.parametrize("reply", [b"not json", b"[]", b'{"type": "result"}'])
def test_reply_that_is_not_an_object_is_protocol_error(workspace, reply):
    # a peer that answers every line with a reply that is not a JSON object,
    # or an object without the fields a delete or a query reads: the library
    # raises ProtocolError, and `shrq query` exits 1 with its JSON error line
    # and no traceback
    listener = socket.create_server(("127.0.0.1", 0))

    def peer():
        for _ in range(2):  # the library's connection, then the CLI's
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as fh:
                for _line in fh:
                    fh.write(reply + b"\n")
                    fh.flush()

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    host, port = listener.getsockname()[:2]
    try:
        sk, config, _ = load_keyfile(workspace["key"])
        with shrq.server.ServerConnection(host, port, timeout=10) as conn:
            with pytest.raises(ProtocolError, match="malformed reply from the server"):
                prot.delete_point(config, sk, "0", conn)
        out = run_cli("query", "sphere", "--key", workspace["key"], "--server", f"{host}:{port}",
                      "--center", "40,40", "--radius", "17")
        assert out.returncode == 1 and "Traceback" not in out.stderr, out.stderr
        error = json.loads(out.stderr)
        assert error["error"] == "failed" and "malformed reply from the server" in error["reason"]
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


@pytest.mark.parametrize("col", ["0", "5"])
def test_range_column_outside_key(workspace, col):
    bounds = ("--col", col, "--lo", "1", "--hi", "5")
    for out in (
        run_cli("query", "range", "--key", workspace["key"], "--server", workspace["server"], *bounds),
        run_cli("oracle", "range", "--data", workspace["data"], *bounds),
    ):
        assert out.returncode == 3 and "Traceback" not in out.stderr, out.stderr


def test_oracle_sphere_center_of_wrong_length(workspace):
    args = ("--center", "1,1,1", "--radius", "3")
    for out in (
        run_cli("oracle", "sphere", "--data", workspace["data"], *args),
        run_cli("query", "sphere", "--key", workspace["key"], "--server", workspace["server"], *args),
    ):
        assert out.returncode == 3 and "Traceback" not in out.stderr, out.stderr


def test_insert_then_delete(workspace):
    ws = workspace
    out = run_cli("insert", "--key", ws["key"], "--id", "bad", "--point", "1,2,3",
                  "--server", ws["server"])  # d = 2: rejected, not cut to (1, 2)
    assert out.returncode == 1 and "3 coordinates" in out.stderr, out.stderr
    out = run_cli("insert", "--key", ws["key"], "--id", os.fsdecode(b"\xff"), "--point", "1,2",
                  "--server", ws["server"])  # byte 0xff is no UTF-8 text, so no record id
    assert out.returncode == 1 and "Traceback" not in out.stderr, out.stderr
    assert "not UTF-8 text" in json.loads(out.stderr)["reason"]
    assert run_cli("insert", "--key", ws["key"], "--id", "zz", "--point", "77,78",
                   "--server", ws["server"]).returncode == 0
    out = run_cli("query", "sphere", "--key", ws["key"], "--center", "77,78", "--radius", "0",
                  "--server", ws["server"])
    assert json.loads(out.stdout.splitlines()[0])["id"] == "zz"
    assert run_cli("delete", "--key", ws["key"], "--id", "zz", "--server", ws["server"]).returncode == 0
    out = run_cli("query", "sphere", "--key", ws["key"], "--center", "77,78", "--radius", "0",
                  "--server", ws["server"])
    assert out.stdout.strip() == ""


def test_rejected_query_exit_code_and_reason(tmp_path):
    key = str(tmp_path / "k.json")
    run_cli("keygen", "--lambda", "32", "--d", "2", "--layout", "shrq", "--v", "400",
            "--x-max", "100", "--protocol", "t", "--emax", "0",
            "--out", key)
    for center, radius, why in (("1,1", "21", "r > sqrt(v)"), ("500,500", "1", "center-out-of-domain")):
        out = run_cli("query", "sphere", "--key", key, "--center", center, "--radius", radius,
                      "--server", "127.0.0.1:1")  # rejected before connecting
        assert out.returncode == 2, out.stderr
        reason = json.loads(out.stderr.strip())
        assert reason["error"] == "query-rejected"
        assert why in reason["reason"]


def test_unreachable_server_exit_code(workspace):
    out = run_cli("query", "sphere", "--key", workspace["key"], "--center", "1,1",
                  "--radius", "1", "--server", "127.0.0.1:9")
    assert out.returncode == 4


def test_missing_key_exit_code():
    out = run_cli("query", "sphere", "--key", "/nonexistent.json", "--center", "1,1",
                  "--radius", "1", "--server", "127.0.0.1:9")
    assert out.returncode == 3


def test_bad_csv_names_row(workspace, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,x1,x2\n1,3,4\n2,x,4\n")
    out = run_cli("setup", "--key", workspace["key"], "--data", str(bad),
                  "--server", workspace["server"])
    assert out.returncode == 1
    assert "row 3" in out.stderr
    # a point outside the domain is named by its id: a count of rows would
    # skip the blank lines and call b, on line 5, "row 3"
    bad.write_text("id,x1,x2\na,3,4\n\n\nb,500,3\n")
    out = run_cli("setup", "--key", workspace["key"], "--data", str(bad),
                  "--server", workspace["server"])
    assert out.returncode == 1
    assert "id 'b'" in out.stderr and "row 3" not in out.stderr


def test_negative_coordinates_get_offset(tmp_path):
    key = str(tmp_path / "k.json")
    data = tmp_path / "neg.csv"
    data.write_text("id,x1\na,-5\nb,0\nc,12\n")
    run_cli("keygen", "--lambda", "32", "--d", "1", "--layout", "unified", "--v", "100",
            "--x-max", "50", "--protocol", "t", "--emax", "0",
            "--out", key)
    server, address = launch_serve(tmp_path / "state")
    try:
        out = run_cli("setup", "--key", key, "--data", str(data), "--server", address)
        assert out.returncode == 0
        assert read_json(key)["offset"] == [5]
        out = run_cli("query", "range", "--key", key, "--col", "1", "--lo", "-5", "--hi", "0",
                      "--server", address)
        got = sorted(json.loads(line)["id"] for line in out.stdout.splitlines())
        assert got == ["a", "b"]
        coords = {json.loads(line)["id"]: json.loads(line)["coords"] for line in out.stdout.splitlines()}
        assert coords["a"] == [-5]  # returned in original coordinates
        # a later set-up on the same server keeps the recorded offset, even
        # when its own rows need none, so a, b and c still read as uploaded
        data.write_text("id,x1\nd,3\ne,40\n")
        out = run_cli("setup", "--key", key, "--data", str(data), "--server", address)
        assert out.returncode == 0, out.stderr
        assert read_json(key)["offset"] == [5]
        out = run_cli("query", "range", "--key", key, "--col", "1", "--lo", "-5", "--hi", "3",
                      "--server", address)
        coords = {json.loads(line)["id"]: json.loads(line)["coords"] for line in out.stdout.splitlines()}
        assert coords == {"a": [-5], "b": [0], "d": [3]}
        # rows that need a larger offset than the recorded one are rejected,
        # and the key file is left as it was
        before = Path(key).read_bytes()
        data.write_text("id,x1\nf,-7\n")
        out = run_cli("setup", "--key", key, "--data", str(data), "--server", address)
        assert out.returncode == 1
        assert "id 'f' after offset [5]" in out.stderr and "coordinate -2 outside" in out.stderr
        assert Path(key).read_bytes() == before
    finally:
        server.terminate()
        server.communicate(timeout=30)


def test_first_upload_fixes_the_offset(tmp_path):
    # keygen records no offset; the first set-up records the one its rows
    # need, zeros included, so a later row below 0 is rejected, not shifted
    key = tmp_path / "k.json"
    data = tmp_path / "pts.csv"
    args = ["--lambda", "32", "--d", "1", "--layout", "unified", "--v", "100", "--x-max", "50",
            "--protocol", "t", "--emax", "0"]
    run_cli("keygen", *args, "--out", str(key))
    assert read_json(key)["offset"] is None
    server, address = launch_serve(tmp_path / "state")
    try:
        data.write_text("id,x1\na,0\nb,12\n")
        out = run_cli("setup", "--key", str(key), "--data", str(data), "--server", address)
        assert out.returncode == 0, out.stderr
        assert read_json(key)["offset"] == [0]
        before = key.read_bytes()
        data.write_text("id,x1\nc,-5\n")
        out = run_cli("setup", "--key", str(key), "--data", str(data), "--server", address)
        assert out.returncode == 1 and "coordinate -5 outside" in out.stderr
        assert key.read_bytes() == before
    finally:
        server.terminate()
        server.communicate(timeout=30)
    # an insert records zeros once the server is reached, so one that cannot
    # reach it leaves the key file byte for byte
    other = tmp_path / "other.json"
    run_cli("keygen", *args, "--out", str(other))
    before = other.read_bytes()
    out = run_cli("insert", "--key", str(other), "--id", "x", "--point", "-1", "--server", "127.0.0.1:9")
    assert out.returncode == 1 and other.read_bytes() == before
    out = run_cli("insert", "--key", str(other), "--id", "x", "--point", "3", "--server", "127.0.0.1:9")
    assert out.returncode == 4 and other.read_bytes() == before


def test_rejected_setup_leaves_key_unchanged(tmp_path):
    # a is shifted by an offset of 5; b lies outside [0, 50] with or without it
    key = tmp_path / "k.json"
    data = tmp_path / "bad.csv"
    data.write_text("id,x1,x2\na,-5,1\nb,500,3\n")
    run_cli("keygen", "--lambda", "32", "--d", "2", "--layout", "unified", "--v", "100",
            "--x-max", "50", "--protocol", "t", "--emax", "0",
            "--out", str(key))
    before = key.read_bytes()
    out = run_cli("setup", "--key", str(key), "--data", str(data), "--server", "127.0.0.1:9")
    assert out.returncode == 1
    assert "id 'b' after offset [5, 0]" in out.stderr
    assert key.read_bytes() == before


def test_upload_that_cannot_reach_the_server_records_no_offset(keyfile_pair, tmp_path, capsys):
    # a fresh key records its offset once the server is reached, so the next
    # upload that reaches one records the offset its own rows need
    _, sk, config = keyfile_pair
    data = tmp_path / "rows.csv"
    uploads = {"setup": ["setup", "--data", str(data)], "insert": ["insert", "--id", "i", "--point", "3,4"]}
    for command, argv in uploads.items():
        key = tmp_path / f"{command}.json"
        save_keyfile(str(key), sk, config)  # no offset recorded, as keygen writes it
        before = key.read_bytes()
        data.write_text("id,x1,x2\na,-5,1\n")
        assert cli.main([*argv, "--key", str(key), "--server", "127.0.0.1:9"]) == 4
        assert key.read_bytes() == before
    capsys.readouterr()
    proc, address = launch_serve(tmp_path / "state")
    try:
        data.write_text("id,x1,x2\nb,-7,2\n")
        key = str(tmp_path / "setup.json")
        assert cli.main([*uploads["setup"], "--key", key, "--server", address]) == 0
        assert read_json(key)["offset"] == [7, 0]
        assert "recorded coordinate offset [7, 0]" in capsys.readouterr().err
        assert cli.main(["query", "range", "--key", key, "--col", "1", "--lo", "-7", "--hi", "-7",
                         "--server", address]) == 0
        assert json.loads(capsys.readouterr().out) == {"id": "b", "coords": [-7, 2]}
        key = str(tmp_path / "insert.json")
        assert cli.main([*uploads["insert"], "--key", key, "--server", address]) == 0
        assert read_json(key)["offset"] == [0, 0]
        assert "recorded coordinate offset [0, 0]" in capsys.readouterr().err
    finally:
        proc.terminate()
        proc.communicate(timeout=30)


def test_insert_checks_its_point_before_connecting(keyfile_pair, tmp_path, capsys):
    key, sk, config = keyfile_pair  # offset [1, 0] recorded, x_max 100
    fresh = tmp_path / "fresh.json"
    save_keyfile(str(fresh), sk, config)  # no offset recorded, as keygen writes it
    before = fresh.read_bytes()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = f"127.0.0.1:{listener.getsockname()[1]}"
        for point in ("-2,0", "0,101"):
            argv = ["insert", "--key", key, "--id", "a", f"--point={point}", "--server", server]
            assert cli.main(argv) == 1
            assert "outside [0, 100]" in json.loads(capsys.readouterr().err)["reason"]
        # and its id, so one that is no UTF-8 text records no offset
        argv = ["insert", "--key", str(fresh), "--id", os.fsdecode(b"\xff"), "--point", "1,2", "--server", server]
        assert cli.main(argv) == 1
        assert "is not UTF-8 text" in json.loads(capsys.readouterr().err)["reason"]
        assert fresh.read_bytes() == before
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):  # no connection is waiting to be accepted
            listener.accept()


def test_bench_emits_csv():
    out = run_cli("bench", "--points", "20", "--d", "3", "--queries", "2")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "sweep,d,points,queries,setup_s,tuple_enc_s,query_s"
    assert len(lines) == 1 + 3 + 4  # dim sweep rows + size sweep rows


def test_curve_backend_cli_keygen(tmp_path, capsys):
    # keygen writes curveA1 keys only: the insecure transparent backend is
    # not an option
    key = str(tmp_path / "curve.json")
    args = ["keygen", "--lambda", "24", "--d", "1", "--layout", "shrq", "--v", "64",
            "--x-max", "30", "--protocol", "t", "--emax", "0", "--out", key]
    out = run_cli(*args, "--backend", "transparent")
    assert out.returncode == 2 and "--backend" in out.stderr and not os.path.exists(key)
    assert cli.main(["keygen", "--lambda", "2", *args[3:]]) == 3 and not os.path.exists(key)
    assert "lambda must be at least 3 bits" in json.loads(capsys.readouterr().err)["reason"]
    out = run_cli(*args)
    assert out.returncode == 0
    doc = read_json(key)
    assert doc["backend"] == "curveA1" and "p" in doc and "l" in doc
    sk, config, _ = load_keyfile(key)  # load-verify passes
    assert config.protocol == "t"


def test_serve_needs_a_state_directory(tmp_path):
    # a server that keeps nothing is no option, whatever the environment says
    env = dict(ENV, SHRQ_STATE_DIR=str(tmp_path / "state"))
    for environ in (ENV, env):
        out = subprocess.run(CLI + ["serve", "--listen", "127.0.0.1:0"],
                             capture_output=True, text=True, timeout=30, env=environ)
        assert out.returncode == 2 and "--state" in out.stderr, out.stderr
    assert os.listdir(tmp_path) == []


def _json_error(out):
    assert "Traceback" not in out.stderr, out.stderr
    return json.loads(out.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--listen", "127.0.0.1:notaport"],
        ["serve", "--listen", "127.0.0.1:99999"],
        ["query", "sphere", "--center", "1,1", "--radius", "1", "--server", "nohost"],
    ],
    ids=["port-not-an-integer", "port-out-of-range", "no-port"],
)
def test_malformed_address_is_a_config_error(keyfile_pair, tmp_path, argv):
    # a serve address is checked before the state directory is made
    extra = ["--state", str(tmp_path / "state")] if argv[0] == "serve" else ["--key", keyfile_pair[0]]
    out = run_cli(*argv, *extra)
    assert out.returncode == 3 and _json_error(out)["error"] == "key-or-config"
    assert "bad address" in _json_error(out)["reason"]
    assert not (tmp_path / "state").exists()


@pytest.mark.parametrize(
    "case, code, error, reason",
    [
        ("port-taken", 1, "failed", "cannot listen on"),
        ("state-is-a-file", 3, "key-or-config", "as the state directory"),
        ("log-fails-replay", 1, "failed", "corrupt state log line 1"),
        ("log-is-a-directory", 1, "failed", "cannot open the state in"),
    ],
)
def test_serve_start_up_failure_is_a_json_line(tmp_path, case, code, error, reason):
    state = tmp_path / "state"
    args = ["serve", "--state", str(state), "--listen"]
    if case == "port-taken":
        with socket.create_server(("127.0.0.1", 0)) as taken:
            out = run_cli(*args, f"127.0.0.1:{taken.getsockname()[1]}")
    else:  # port 0 is any free port: a server that wrongly started would time out
        if case == "state-is-a-file":
            state.write_text("")
        elif case == "log-is-a-directory":
            (state / "log.jsonl").mkdir(parents=True)
        else:
            state.mkdir()
            (state / "log.jsonl").write_text("not json\n")
        out = run_cli(*args, "127.0.0.1:0")
    assert out.returncode == code, out.stderr
    assert _json_error(out)["error"] == error and reason in _json_error(out)["reason"]


_HELLO = shrq.server.hello_message(group_from_primes(5, 7, TRANSPARENT).params.describe(), 1)


def test_serve_reports_the_port_it_bound(tmp_path):
    proc, address = launch_serve(tmp_path / "state")
    try:
        host, port = address.rsplit(":", 1)
        assert host == "127.0.0.1" and int(port) > 0
        with shrq.server.connect(address) as conn:
            assert conn.request(_HELLO) == {"type": "ack"}
    finally:
        proc.terminate()
        proc.communicate(timeout=30)


@contextlib.contextmanager
def _sigint(handler):
    """This process's SIGINT disposition set to handler, and restored after."""
    old = signal.signal(signal.SIGINT, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, old)


# this process's own SIGINT disposition as it launches serve: Python's
# handler, or ignored, as a shell without job control starts a job with `&`
_LAUNCHED_UNDER = pytest.mark.parametrize(
    "parent_sigint", [signal.default_int_handler, signal.SIG_IGN], ids=["default", "ignored"]
)


@_LAUNCHED_UNDER
def test_serve_stops_cleanly_on_ctrl_c(tmp_path, parent_sigint):
    state = tmp_path / "state"
    with _sigint(parent_sigint):
        proc, address = launch_serve(state)
    try:
        with shrq.server.connect(address) as conn:
            assert conn.request(_HELLO) == {"type": "ack"}
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == 130 and "Traceback" not in err, err
    reopened = shrq.server.ServerState(str(state))
    assert reopened.hello == _HELLO
    reopened.close()


# -- the scan worker's lifetime: it never outlives serve -------------------------------

# serve forks one scan worker when it may run on more than one CPU
_WORKERS = 1 if len(os.sched_getaffinity(0)) > 1 else 0


def _children(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return [int(child) for child in fh.read().split()]


def _stat(pid):
    """The fields of /proc/<pid>/stat after the command name (state, ppid,
    pgrp, session, ...), or None once pid is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()
    except FileNotFoundError:
        return None


def _live(pid):
    """pid names a process that is neither gone nor a zombie."""
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def _session(sid):
    """The live processes of session sid."""
    members = []
    for pid in (int(entry) for entry in os.listdir("/proc") if entry.isdigit()):
        stat = _stat(pid)
        if stat is not None and stat[0] != "Z" and int(stat[3]) == sid:
            members.append(pid)
    return members


def _serve_in_session(state):
    """A `shrq serve` that leads a session of its own, and its workers."""
    proc, _ = launch_serve(state, start_new_session=True)  # listening, so the worker is forked
    workers = _children(proc.pid)
    assert len(workers) == _WORKERS
    return proc, workers


def test_scan_worker_leaves_with_a_killed_server(tmp_path):
    proc, workers = _serve_in_session(tmp_path / "state")
    try:
        proc.kill()
        proc.communicate(timeout=30)
        deadline = time.monotonic() + 2
        while any(map(_live, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(_live, workers))
    finally:
        for pid in filter(_live, workers):
            os.kill(pid, signal.SIGKILL)


@_LAUNCHED_UNDER
def test_scan_worker_leaves_with_a_ctrl_c(tmp_path, parent_sigint):
    # Ctrl-C signals the whole foreground process group, the worker included
    with _sigint(parent_sigint):
        proc, workers = _serve_in_session(tmp_path / "state")
    try:
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == 130 and "Traceback" not in err, err
    assert _session(proc.pid) == [] and not any(map(_live, workers))


def test_serve_reaps_its_scan_worker_when_it_fails_to_start(tmp_path):
    # in process: serve's caller lives on, so serve closes the worker itself
    state = tmp_path / "state"
    state.write_text("")
    before = _children(os.getpid())
    with pytest.raises(ConfigError, match="as the state directory"):
        shrq.server.serve("127.0.0.1:0", str(state))
    assert _children(os.getpid()) == before


def test_serve_runs_without_a_worker_it_cannot_fork(tmp_path, monkeypatch):
    # in process, with a fork that fails as it does when no process id is
    # left (EAGAIN): serve closes both socketpair ends and answers queries
    # without a worker, as after a worker failure
    pairs, served = [], []
    socketpair = socket.socketpair

    def recorded_socketpair():
        pairs.append(socketpair())
        return pairs[-1]

    def failed_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def serve_one_query(srv):  # in place of serve_forever: return once answered
        config = prot.make_config("t", 2, 400, 100, backend=TRANSPARENT)
        sk, _ = ces.keygen(32, 2, ces.LAYOUT_UNIFIED, 400, 100, TRANSPARENT, rng=random.Random(9))
        prot.run_setup(config, sk, [("a", (5, 5)), ("b", (9, 9)), ("c", (50, 50))], srv.state)
        served.append((srv.state._worker, prot.query_sphere(config, sk, SphereQuery((6, 6), 5), srv.state).ids))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(socket, "socketpair", recorded_socketpair)
    monkeypatch.setattr(os, "fork", failed_fork)
    monkeypatch.setattr(shrq.server.TcpServer, "serve_forever", serve_one_query)
    shrq.server.serve("127.0.0.1:0", str(tmp_path / "state"))
    assert served == [(None, {"a", "b"})]
    assert len(pairs) == 1 and [end.fileno() for end in pairs[0]] == [-1, -1]


def test_start_up_failure_leaves_no_scan_worker(tmp_path):
    state = tmp_path / "state"
    state.write_text("")
    proc = subprocess.Popen(CLI + ["serve", "--listen", "127.0.0.1:0", "--state", str(state)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV,
                            start_new_session=True)
    _, err = proc.communicate(timeout=30)
    assert proc.returncode == 3 and "as the state directory" in err, err
    assert _session(proc.pid) == []


# -- key file consistency ----------------------------------------------------------


@pytest.fixture(scope="module")
def keyfile_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("keys")
    config = prot.make_config("l", 2, 400, 100, e_max=3, backend=TRANSPARENT)
    sk, _ = ces.keygen(32, 2, ces.LAYOUT_UNIFIED, 400, 100, TRANSPARENT, rng=random.Random(8))
    path = str(root / "key.json")
    save_keyfile(path, sk, config, offsets=[1, 0])
    return path, sk, config


def test_keyfile_roundtrip(keyfile_pair):
    path, sk, config = keyfile_pair
    sk2, config2, offsets = load_keyfile(path)
    assert offsets == [1, 0]
    assert config2 == config
    assert sk2.A == sk.A and sk2.B == sk.B
    assert sk2.alpha == sk.alpha and sk2.beta == sk.beta
    assert sk2.aes_key == sk.aes_key
    assert sk2.s == sk.s and sk2.h == sk.h


def test_encrypting_leaves_key_and_key_file_unchanged(tmp_path):
    # fixed_pow's tables live on the group, never on the key or in its file,
    # and a group compares by its class and parameters, not by its tables
    config = prot.make_config("t", 2, 400, 100, layout=ces.LAYOUT_SHRQ)
    sk, _ = ces.keygen(32, 2, ces.LAYOUT_SHRQ, 400, 100, rng=random.Random(17))
    path, again = str(tmp_path / "key.json"), str(tmp_path / "again.json")
    save_keyfile(path, sk, config)
    before = Path(path).read_bytes()
    used, idle = load_keyfile(path)[0], load_keyfile(path)[0]
    for key in (sk, used):
        ces.tuple_encrypt(key, (3, 4, 1, 25), rng=random.Random(1))
        ces.query_encrypt(key, (-6, -8, 0, 1), 2, rng=random.Random(1))
        save_keyfile(again, key, config)
        assert Path(again).read_bytes() == before
    assert used == idle


def test_loads_of_one_key_file_compare_equal(tmp_path):
    # a group compares by its class and parameters, not by the window tables
    # it holds, so two loads of one file are equal keys, before and after
    # one of them has encrypted; a key from another file is not
    config = prot.make_config("t", 2, 400, 100, layout=ces.LAYOUT_SHRQ)
    paths = [str(tmp_path / "key.json"), str(tmp_path / "other.json")]
    for path, seed in zip(paths, (17, 18)):
        sk, _ = ces.keygen(32, 2, ces.LAYOUT_SHRQ, 400, 100, rng=random.Random(seed))
        save_keyfile(path, sk, config)
    used, idle, other = load_keyfile(paths[0])[0], load_keyfile(paths[0])[0], load_keyfile(paths[1])[0]
    assert used == idle and used.group is not idle.group
    ces.tuple_encrypt(used, (3, 4, 1, 25), rng=random.Random(1))
    ces.query_encrypt(used, (-6, -8, 0, 1), 2, rng=random.Random(1))
    assert used.group._tables and not idle.group._tables
    assert used == idle and hash(used.group) == hash(idle.group)
    assert other != used and other.group != used.group


class _FullDisk:
    """A file that takes half of the first write, then fails as a full disk
    does."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_keyfile_failed_save_keeps_old_key(keyfile_pair, tmp_path, monkeypatch):
    # shrq setup rewrites the key in place to record an offset: a save that
    # runs out of disk partway must leave the old file, byte for byte
    path, sk, config = keyfile_pair
    key = tmp_path / "key.json"
    key.write_bytes(Path(path).read_bytes())
    monkeypatch.setattr(shrq.server, "open", lambda *a, **kw: _FullDisk(open(*a, **kw)), raising=False)
    with pytest.raises(OSError) as err:
        save_keyfile(str(key), sk, config, offsets=[7, 0])
    monkeypatch.undo()
    assert err.value.errno == errno.ENOSPC
    assert key.read_bytes() == Path(path).read_bytes()
    assert load_keyfile(str(key))[2] == [1, 0]
    assert os.listdir(tmp_path) == ["key.json"]  # the temporary file is gone


def test_keyfile_is_owner_only(keyfile_pair, tmp_path):
    # the key holds q1, q2, alpha, beta and the AES key: under umask 022 a new
    # key, one saved over a world-readable key and one saved past a stale
    # world-readable temporary file all come out 0600
    _, sk, config = keyfile_pair
    key = tmp_path / "key.json"
    old = os.umask(0o022)
    try:
        save_keyfile(key, sk, config)  # a Path serves as well as a str
        assert stat.S_IMODE(os.stat(key).st_mode) == 0o600
        key.chmod(0o644)
        (tmp_path / "key.json.tmp").write_text("stale")
        (tmp_path / "key.json.tmp").chmod(0o644)
        save_keyfile(str(key), sk, config)
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(key).st_mode) == 0o600
    assert os.listdir(tmp_path) == ["key.json"]
    assert load_keyfile(str(key))[2] is None


@pytest.mark.parametrize("field", ["s", "h", "A", "B"])
def test_keyfile_single_field_tamper_rejected(keyfile_pair, tmp_path, field):
    path, sk, _ = keyfile_pair
    doc = read_json(path)
    if field in ("s", "h"):
        doc[field] = doc["g"]
    else:
        tampered = list(doc[field])
        tampered[0] = str(int(tampered[0]) + 1)
        doc[field] = tampered
    bad = tmp_path / f"bad_{field}.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(KeyfileError):
        load_keyfile(str(bad))


@pytest.mark.parametrize("field", ["g", "aes_key"])
def test_keyfile_non_base64_rejected(keyfile_pair, tmp_path, field):
    # base64 is read strictly, as on the wire: a stray character is not dropped
    doc = read_json(keyfile_pair[0])
    doc[field] = doc[field][:4] + "!*" + doc[field][4:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(KeyfileError, match="base64"):
        load_keyfile(str(bad))


@pytest.mark.parametrize(
    "field, value",
    [
        ("protocol", "x"), ("protocol", "C"), ("protocol", "L"), ("protocol", 5), ("e_max", -1), ("b_c", 3),
        # the key file is the only copy of these: caught by vector length,
        # coarsity base, correctness margin or range
        ("layout", "shrq"), ("d", 3), ("v", 100), ("v", -1), ("x_max", 10**12), ("x_max", 0),
        # and of the secrets and the offset: alpha vanishing mod q2, a short AES key, one offset per column
        ("alpha", "0"), ("aes_key", shrq.server.b64e(bytes(31))), ("offset", [0]), ("offset", [0, 0, 0]),
        # and of the group: an N that is not q1*q2
        ("N", "35"),
    ],
)
def test_keyfile_bad_deployment_rejected(keyfile_pair, tmp_path, field, value):
    doc = read_json(keyfile_pair[0])
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(KeyfileError):
        load_keyfile(str(bad))
    out = run_cli("query", "sphere", "--key", str(bad), "--center", "1,1", "--radius", "1",
                  "--server", "127.0.0.1:9")
    assert out.returncode == 3 and "Traceback" not in out.stderr


@st.composite
def _deployments(draw):
    protocol = draw(st.sampled_from((prot.PROTOCOL_TABLE, prot.PROTOCOL_COARSE, prot.PROTOCOL_LAYERED)))
    d = draw(st.integers(1, 4))
    return (
        protocol,
        draw(st.sampled_from((ces.LAYOUT_SHRQ, ces.LAYOUT_UNIFIED))),
        d,
        draw(st.integers(0, 2000)),  # v
        draw(st.integers(1, 1000)),  # x_max
        0 if protocol == prot.PROTOCOL_TABLE else draw(st.integers(0, 5)),  # e_max
        draw(st.none() | st.lists(st.integers(0, 50), min_size=d, max_size=d)),  # offsets, None until recorded
        draw(st.integers(0, 2**32)),  # key seed
    )


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_deployments())
def test_keyfile_save_load_save_is_byte_exact(case):
    protocol, layout, d, v, x_max, e_max, offsets, seed = case
    try:
        config = prot.make_config(protocol, d, v, x_max, e_max=e_max, backend=TRANSPARENT, layout=layout)
    except ConfigError:  # no coarsity base >= 2 for this v and d
        assume(False)
    sk, _ = ces.keygen(32, d, layout, v, x_max, TRANSPARENT, rng=random.Random(seed))
    with tempfile.TemporaryDirectory() as root:
        first, again = Path(root) / "first.json", Path(root) / "again.json"
        save_keyfile(str(first), sk, config, offsets)
        sk2, config2, offsets2 = load_keyfile(str(first))
        save_keyfile(str(again), sk2, config2, offsets2)
        assert config2 == config and offsets2 == offsets
        assert again.read_bytes() == first.read_bytes()


def test_keyfile_alpha_multiple_of_q2_rejected(keyfile_pair, tmp_path):
    # alpha = 0 is a case of test_keyfile_bad_deployment_rejected; q2 depends on the key
    doc = read_json(keyfile_pair[0])
    doc["alpha"] = doc["q2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(KeyfileError, match="alpha vanishes mod q2"):
        load_keyfile(str(bad))


@pytest.mark.parametrize("backend", [TRANSPARENT, CURVE_A1])
@pytest.mark.parametrize("fields", [("g", "s"), ("u", "h")], ids=["g-and-s", "u-and-h"])
def test_keyfile_with_an_identity_s_or_h_rejected(tmp_path, backend, fields):
    # s = g^q1 and h = u^q2 both hold with each side the identity: a key whose
    # s is the identity loses matches, and one whose h is blinds nothing
    config = prot.make_config("c", 2, 400, 100, e_max=3, backend=backend)
    sk, _ = ces.keygen(32, 2, ces.LAYOUT_UNIFIED, 400, 100, backend, rng=random.Random(8))
    key = tmp_path / "key.json"
    save_keyfile(str(key), sk, config)
    doc = read_json(key)
    for field in fields:
        doc[field] = shrq.server.b64e(sk.group.canonical_bytes(sk.group.identity_g()))
    key.write_text(json.dumps(doc))
    with pytest.raises(KeyfileError, match="s or h is the identity"):
        load_keyfile(str(key))


NO_FILE = object()  # a --data path where no file is


@pytest.mark.parametrize(
    "argv, rows, code, reason",
    [
        (["insert", "--id", "a", "--point", "1,x"], None, 1, "bad coordinate list"),
        (["setup"], "id,x1\n1,2\n", 1, "expected header"),  # a d = 1 file for a d = 2 key
        (["setup"], "id,x1,x2\n1,2,3\n2,4\n", 1, "row 3: expected 3 cells"),
        (["setup"], "id,x1,x2\na,1,2\na,3,4\n", 1, "duplicate id"),
        (["query", "range", "--col", "1"], None, 3, "--lo and/or --hi"),
        (["setup"], NO_FILE, 1, "No such file"),
        (["setup"], b"id,x1,x2\n\xff,1,2\n", 1, "can't decode byte 0xff"),
        (["setup"], "id,x1,x2\n" + "a" * 131073 + ",1,2\n", 1, "field larger than field limit"),
        (["insert", "--id", os.fsdecode(b"\xff"), "--point", "1,2"], None, 1, "is not UTF-8 text"),
        (["setup"], "id,x1,x2\na,1,2.5\n", 1, "row 2 (id 'a'): non-integer coordinate"),
    ],
    ids=["non-integer-point", "header", "short-row", "duplicate-id", "range-without-bounds",
         "missing-file", "not-utf8", "field-over-csv-limit", "id-not-utf8", "non-integer-csv"],
)
def test_cli_ingestion_rejected(keyfile_pair, tmp_path, capsys, argv, rows, code, reason):
    # each is rejected before connecting, so no server is needed, and the key stays as it was
    key = tmp_path / "key.json"
    key.write_bytes(Path(keyfile_pair[0]).read_bytes())
    args = [*argv, "--key", str(key), "--server", "127.0.0.1:9"]
    if rows is not None:
        if rows is not NO_FILE:
            (tmp_path / "rows.csv").write_bytes(rows if isinstance(rows, bytes) else rows.encode())
        args += ["--data", str(tmp_path / "rows.csv")]
    assert cli.main(args) == code
    assert reason in json.loads(capsys.readouterr().err)["reason"]
    assert key.read_bytes() == Path(keyfile_pair[0]).read_bytes()


def test_oracle_sphere_on_an_unreadable_csv_is_one_error_line(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    for content, reason in ((None, "No such file"), (b"id,x1\n\xff,1\n", "can't decode byte 0xff")):
        if content is not None:
            data.write_bytes(content)
        assert cli.main(["oracle", "sphere", "--data", str(data), "--center", "1", "--radius", "1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "failed" and str(data) in err["reason"] and reason in err["reason"]


def test_keyfile_garbage_rejected(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("{]")
    with pytest.raises(KeyfileError):
        load_keyfile(str(bad))
    with pytest.raises(KeyfileError):
        load_keyfile(str(tmp_path / "missing.json"))
