import json
import os
import random
import socket
import subprocess
import sys
import time

import pytest

from shrq import ces, protocols as prot
from shrq.errors import KeyfileError
from shrq.keyfile import load_keyfile, save_keyfile
from shrq.pairing import TRANSPARENT

CLI = [sys.executable, "-m", "shrq.cli"]


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=120, **kw)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_for_port(port, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            return
        except OSError:
            time.sleep(0.05)
    raise RuntimeError("server did not come up")


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
        "--x-max", "100", "--backend", "transparent", "--protocol", "c", "--emax", "3",
        "--out", key,
    ).returncode == 0

    port = free_port()
    server = subprocess.Popen(
        CLI + ["serve", "--listen", f"127.0.0.1:{port}", "--state", str(root / "state")],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    wait_for_port(port)
    out = run_cli("setup", "--key", key, "--data", data, "--server", f"127.0.0.1:{port}")
    assert out.returncode == 0, out.stderr
    yield {"key": key, "data": data, "server": f"127.0.0.1:{port}"}
    server.terminate()
    server.wait(timeout=10)


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


def test_open_range_needs_bound(workspace):
    out = run_cli(
        "query", "range", "--key", workspace["key"], "--server", workspace["server"],
        "--col", "1", "--lo", "25",
    )
    assert out.returncode == 3  # config error: open range without --col-max
    out = run_cli(
        "query", "range", "--key", workspace["key"], "--server", workspace["server"],
        "--col", "1", "--lo", "25", "--col-max", "60",
    )
    assert out.returncode == 0


@pytest.mark.parametrize("col", ["0", "5"])
def test_range_column_outside_key(workspace, col):
    out = run_cli(
        "query", "range", "--key", workspace["key"], "--server", workspace["server"],
        "--col", col, "--lo", "1", "--hi", "5",
    )
    assert out.returncode == 3 and "Traceback" not in out.stderr


def test_insert_then_delete(workspace):
    ws = workspace
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
            "--x-max", "100", "--backend", "transparent", "--protocol", "t", "--emax", "0",
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


def test_negative_coordinates_get_offset(tmp_path):
    key = str(tmp_path / "k.json")
    data = tmp_path / "neg.csv"
    data.write_text("id,x1\na,-5\nb,0\nc,12\n")
    run_cli("keygen", "--lambda", "32", "--d", "1", "--layout", "unified", "--v", "100",
            "--x-max", "50", "--backend", "transparent", "--protocol", "t", "--emax", "0",
            "--out", key)
    port = free_port()
    server = subprocess.Popen(CLI + ["serve", "--listen", f"127.0.0.1:{port}"],
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        wait_for_port(port)
        out = run_cli("setup", "--key", key, "--data", str(data), "--server", f"127.0.0.1:{port}")
        assert out.returncode == 0
        assert read_json(key)["offset"] == [5]
        out = run_cli("query", "range", "--key", key, "--col", "1", "--lo", "-5", "--hi", "0",
                      "--server", f"127.0.0.1:{port}")
        got = sorted(json.loads(line)["id"] for line in out.stdout.splitlines())
        assert got == ["a", "b"]
        coords = {json.loads(line)["id"]: json.loads(line)["coords"] for line in out.stdout.splitlines()}
        assert coords["a"] == [-5]  # returned in original coordinates
    finally:
        server.terminate()
        server.wait(timeout=10)


def test_bench_emits_csv():
    out = run_cli("bench", "--points", "20", "--d", "3", "--queries", "2")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "sweep,d,points,queries,setup_s,tuple_enc_s,query_s"
    assert len(lines) == 1 + 3 + 4  # dim sweep rows + size sweep rows


def test_curve_backend_cli_keygen(tmp_path):
    key = str(tmp_path / "curve.json")
    out = run_cli("keygen", "--lambda", "24", "--d", "1", "--layout", "shrq", "--v", "64",
                  "--x-max", "30", "--backend", "curve", "--protocol", "t", "--emax", "0",
                  "--out", key)
    assert out.returncode == 0
    doc = read_json(key)
    assert doc["backend"] == "curveA1" and "p" in doc and "l" in doc
    sk, config, _ = load_keyfile(key)  # load-verify passes
    assert config.protocol == "t"


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


@pytest.mark.parametrize(
    "field, value",
    [("protocol", "x"), ("protocol", "C"), ("protocol", "L"), ("protocol", 5), ("e_max", -1), ("b_c", 3)],
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


def test_keyfile_garbage_rejected(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("{]")
    with pytest.raises(KeyfileError):
        load_keyfile(str(bad))
    with pytest.raises(KeyfileError):
        load_keyfile(str(tmp_path / "missing.json"))
