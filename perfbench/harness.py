"""One benchmark run: a real server process, one client, a closed loop.

The server is `python3 -m shrq.cli serve` (or, for the traced run,
serve_traced.py) with its default fsync'd write-ahead log and a fresh state
directory.  This process is the only client: one TCP connection, one
operation at a time, each sent after the previous reply.  Every answer is
checked against the plaintext oracles over a mirror of the acknowledged
writes.

A run has three parts:

1. set-up on a fresh server: seeded keygen, key file save and reload, lookup
   table, then one insert_point per initial point, each timed as an insert;
2. the measured closed loop on that server, whole operation cycles until
   `seconds` of active time have passed.  After `kill_cycle` cycles (a fixed
   point in the seeded sequence, so the log is the same on every run of a
   seed) the server is killed with SIGKILL and restarted on its state
   directory, and the first query after it must match the oracle;
3. at evenly spaced marks of the loop, sixteen more timed restarts, each on a
   fresh copy of the state the killed server left, and two more set-ups on
   fresh servers.  The loop's clock stops meanwhile.

Restarts and set-ups are spread over the loop because the speed of a shared
machine drifts; back to back, they would all land in one slow or fast stretch.

Every time that goes into a metric is also scaled to a reference speed.  The
drift is in the processor's speed itself (process time follows wall time) and
reaches 1.6x over minutes, more than any bound, while the ratio of a query's
time to a fixed block of plain Python arithmetic timed next to it stays within
a few percent.  So after each operation, and before and after each restart
and set-up, the benchmark times REFERENCE_BLOCK, and a time t measured next to
a block that took r is reported as t * REF_S / r: the time on a machine where
the block takes REF_S.  The block uses no shrq code, so a change to the
program moves the scaled times exactly as it moves the wall-clock ones.  The
report prints the wall-clock figures too.
"""

import collections
import json
import os
import platform
import random
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from shrq import keyfile, oracle, protocols
from shrq.errors import ServerUnreachable, ShrqError
from shrq.server import connect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_ROOT = ROOT / ".perfbench_state"
REQUEST_TIMEOUT_S = 120.0
START_TIMEOUT_S = 60.0
FLUSH_POLICY = "fsync of log.jsonl before every ack (server default), compaction every 10000 mutations"
QUERY_KINDS = ("sphere", "range")

# the reference block: modular squarings of 139-bit integers, the size and
# kind of integer arithmetic the curveA1 pairing does, in plain Python
REF_MODULUS = (1 << 139) - 159
REF_SQUARINGS = 3000
REF_REPEATS = 3
REF_S = 0.001  # scaled times are times on a machine where the block takes 1 ms

# functions reported as <name>.calls and <name>.ms (self time) in the traced run
LAYER_FUNCTIONS = (
    "pairing.pair",
    "pairing.pow",
    "pairing.decode",
    "ces.keygen",
    "ces.tuple_encrypt",
    "ces.query_encrypt",
    "ces.create_lookup_table",
    "ces.compute",
    "ces.lookup_contains",
    "keyfile.save_keyfile",
    "keyfile.load_keyfile",
    "protocols.insert_point",
    "protocols.decrypt_record",
    "protocols.validate",
    "protocols.wait",
    "server.handle_line",
    "server.replay",
    "server.log_append",
    "server.fsync",
    "server.hello",
    "server.put_lookup",
    "server.put_tuple",
    "server.put_store",
    "server.query",
)


# what happens at the evenly spaced marks of the measured loop: with the
# SIGKILL restart and the first set-up, 17 timed restarts and 3 set-ups
SPREAD = ("restart",) * 4 + ("set-up",) + ("restart",) * 4
SPREAD *= 2


@dataclass
class Deployment:
    """A server and the client state that goes with it."""

    server: object
    sk: object
    config: object
    mirror: dict  # id -> coords of every acknowledged live record
    blinding: random.Random


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One server child process on a fresh port."""

    def __init__(self, state_dir, err_path, trace_dir=None):
        self.state_dir = Path(state_dir)
        self.trace_dir = trace_dir
        self.address = f"127.0.0.1:{_free_port()}"
        if trace_dir is None:
            cmd = [sys.executable, "-m", "shrq.cli", "serve"]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), "--trace-dir", trace_dir]
        cmd += ["--listen", self.address, "--state", str(state_dir)]
        path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.err_path = err_path
        self.conn = None
        self.peak_rss_mb = 0.0  # read just before the kill
        with open(err_path, "wb") as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )

    def wait_ready(self):
        """Connect as soon as the server listens, which it does only after
        replaying its log, and send one probe that the server does not log.
        Returns seconds from spawn to the probe's reply."""
        while True:
            if self.proc.poll() is not None:
                tail = Path(self.err_path).read_text(errors="replace")[-2000:]
                raise RuntimeError(f"server exited with code {self.proc.returncode}:\n{tail}")
            try:
                self.conn = connect(self.address, timeout=REQUEST_TIMEOUT_S)
                break
            except ServerUnreachable:
                if time.perf_counter() - self.started > START_TIMEOUT_S:
                    raise RuntimeError(f"server on {self.address} did not start") from None
                time.sleep(0.002)
        self.conn.request({"type": "stats"})  # any reply will do
        return time.perf_counter() - self.started

    def kill(self):
        """SIGKILL, after the traced server has written out its spans."""
        if self.conn is not None:
            if self.trace_dir is not None:
                request = type(self.conn).request
                getattr(request, "__wrapped__", request)(self.conn, {"type": spans.FLUSH})
            self.conn.close()
            self.conn = None
        if self.proc.poll() is None:
            self.peak_rss_mb = self.read_peak_rss_mb()
            self.proc.kill()
        self.proc.wait()

    def read_peak_rss_mb(self):
        """VmHWM of the running server.  getrusage(RUSAGE_CHILDREN) would not
        do: a child's max RSS counts the client's memory it had after fork."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        return 0.0


def reference_s():
    """Median wall time of REF_REPEATS runs of the reference block."""
    times = []
    for _ in range(REF_REPEATS):
        x = 12345678901234567
        t0 = time.perf_counter()
        for _ in range(REF_SQUARINGS):
            x = (x * x + 987654321) % REF_MODULUS
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def interquartile_mean(samples):
    """Mean of the middle half of the samples.  Like the median it ignores
    outliers, but where the samples fall into cost classes (queries of 1, 2
    and 3 layers) it does not jump between classes from run to run."""
    xs = sorted(samples)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def tail(samples):
    """(value, quantile): the highest percentile with at least ten samples
    beyond it, never below the median; linear interpolation."""
    xs = sorted(samples)
    q = max(0.5, 1.0 - 10.0 / len(xs))
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), q


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        RUN_ROOT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUN_ROOT))
        self.trace_dir = str(self.dir / "trace") if trace else None
        self.tracer = spans.Tracer() if trace else None
        self.servers = []
        self.samples = collections.defaultdict(list)  # kind -> scaled seconds
        self.wall = collections.defaultdict(list)  # kind -> wall-clock seconds
        self.refs = []  # every reference_s() reading
        self.setup_s = []  # scaled, as is restart_s
        self.restart_s = []
        self.windows = []  # (start_ns, end_ns) of each measured operation
        self.scaled_active = 0.0  # scaled seconds of measured operations
        self.log_bytes_per_record = None
        self.snapshot = None  # copy of the state the SIGKILLed server left
        self.attempted = self.failed = self.checked = self.validated = 0
        self.completed = 0  # successful operations in the measured loop
        self.durable = False  # the first query after the SIGKILL restart matched
        self.errors = []
        self.agg = {}  # span name -> [calls, inclusive ns, self ns], traced runs only

    def spawn(self, state_dir):
        err_path = self.dir / f"server{len(self.servers)}.err"
        self.servers.append(ServerProcess(state_dir, err_path, self.trace_dir))
        return self.servers[-1]

    def close(self):
        for server in self.servers:
            server.kill()

    def reference(self):
        self.refs.append(reference_s())
        return self.refs[-1]

    def record(self, kind, elapsed, scale):
        self.wall[kind].append(elapsed)
        self.samples[kind].append(elapsed * scale)

    # -- set-up -------------------------------------------------------------------
    def set_up(self):
        """One timed set-up on a fresh server and state directory."""
        w = self.w
        rep = len(self.setup_s)
        server = self.spawn(self.dir / f"state{rep}")
        server.wait_ready()
        key_path = self.dir / f"key{rep}.json"
        dep = Deployment(server, None, None, {}, random.Random(f"{self.seed}:blinding"))
        before = self.reference()
        t0 = time.perf_counter()
        keyfile.save_keyfile(key_path, w.keygen(self.seed), w.config())
        dep.sk, dep.config, _ = keyfile.load_keyfile(key_path)
        protocols.run_setup(dep.config, dep.sk, [], server.conn)  # hello, lookup table
        inserts = [self.run_op(dep, "insert", point) for point in w.dataset(self.seed)]
        elapsed = time.perf_counter() - t0
        scale = 2 * REF_S / (before + self.reference())
        self.setup_s.append(elapsed * scale)
        for t in inserts:
            if t is not None:
                self.record("insert", t, scale)
        return dep

    def extra_set_up(self):
        self.set_up().server.kill()

    # -- the measured loop -------------------------------------------------------
    def run_op(self, dep, kind, payload):
        """One closed-loop operation; returns its wall time in seconds, or
        None if it failed."""
        config, sk, conn = dep.config, dep.sk, dep.server.conn
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if kind == "sphere":
                result = protocols.query_sphere(config, sk, payload, conn)
            elif kind == "range":
                result = protocols.query_range(config, sk, payload, conn)
            elif kind == "insert":
                protocols.insert_point(config, sk, *payload, conn, rng=dep.blinding)
            elif kind == "update":
                protocols.update_point(config, sk, *payload, conn, rng=dep.blinding)
            else:
                protocols.delete_point(config, sk, payload, conn)
        except ShrqError as exc:  # a rejection is a failure: only supported ops are sent
            self._fail(f"{kind} {payload!r}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        if kind in QUERY_KINDS:
            if kind == "sphere":
                ids = oracle.hrq_oracle(dep.mirror.items(), payload)
            else:
                ids = oracle.range_oracle(dep.mirror.items(), payload)
            self.checked += 1
            self.validated += len(result)
            if result.records != sorted((rid, dep.mirror[rid]) for rid in ids):
                self._fail(f"{kind} {payload!r}: answer differs from the oracle")
                return None
        elif kind == "delete":
            del dep.mirror[payload]
        else:
            rid, coords = payload
            dep.mirror[rid] = coords
        return elapsed

    def _fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def measure(self, dep):
        """Whole cycles until `seconds` of active time have passed.  The
        SIGKILL restart comes after `kill_cycle` cycles; the other restarts
        and set-ups come at evenly spaced marks of active time."""
        w = self.w
        ops = w.operations(self.seed, dep.mirror)
        step = self.seconds / (len(SPREAD) + 1)
        marks = [(step * (i + 1), action) for i, action in enumerate(SPREAD)]
        active, cycles = 0.0, 0
        while True:
            if cycles == w.kill_cycle:
                self.kill_and_restart(dep)
            while cycles > w.kill_cycle and marks and active >= marks[0][0]:
                if marks.pop(0)[1] == "restart":
                    self.replay_copy()
                else:
                    self.extra_set_up()
            if cycles > w.kill_cycle and not marks and active >= self.seconds:
                return
            for _ in w.cycle:
                kind, payload = next(ops)
                t0 = time.perf_counter_ns()
                elapsed = self.run_op(dep, kind, payload)
                t1 = time.perf_counter_ns()
                self.windows.append((t0, t1))
                scale = REF_S / self.reference()
                active += (t1 - t0) / 1e9
                self.scaled_active += (t1 - t0) / 1e9 * scale
                if elapsed is not None:
                    self.completed += 1
                    self.record(kind, elapsed, scale)
            cycles += 1

    # -- restarts -------------------------------------------------------------------
    def kill_and_restart(self, dep):
        """SIGKILL the loop's server, keep a copy of the state directory it
        left, restart the server on that directory, check the first query."""
        state_dir = dep.server.state_dir
        self.log_bytes_per_record = (state_dir / "log.jsonl").stat().st_size / len(dep.mirror)
        dep.server.kill()
        self.snapshot = self.dir / "snapshot"
        shutil.copytree(state_dir, self.snapshot)
        before = self.reference()
        dep.server = self.spawn(state_dir)
        self.restart_s.append(self.scaled_restart(dep.server, before))
        query = self.w.durability_query(self.seed, dep.mirror)
        self.durable = self.run_op(dep, "sphere", query) is not None

    def replay_copy(self):
        """Start one more server on a fresh copy of the killed server's
        state, so that every timed restart replays the same log."""
        replica = self.dir / f"replica{len(self.restart_s)}"
        shutil.copytree(self.snapshot, replica)
        before = self.reference()
        server = self.spawn(replica)
        self.restart_s.append(self.scaled_restart(server, before))
        server.kill()

    def scaled_restart(self, server, before):
        """Seconds from spawn to the first reply, scaled by the reference
        readings taken before the spawn and after the reply."""
        elapsed = server.wait_ready()
        self.wall["restart"].append(elapsed)
        return elapsed * 2 * REF_S / (before + self.reference())

    # -- the whole run --------------------------------------------------------------
    def execute(self):
        started = time.perf_counter_ns()
        if self.tracer is not None:
            os.makedirs(self.trace_dir)
            self.tracer.install(spans.CLIENT_TARGETS + spans.PAIRING_TARGETS)
        try:
            self.measure(self.set_up())
        finally:
            self.close()
            if self.tracer is not None:
                self.tracer.uninstall()
        wall_ns = time.perf_counter_ns() - started
        ops_per_s = self.completed / self.scaled_active
        metrics = self.layer_metrics(ops_per_s, wall_ns) if self.tracer else self.end_to_end(ops_per_s)
        correct = self.failed == 0 and self.durable
        return {
            "line": {
                "correct": correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            },
            "report": self.report(),
            "checked": self.checked,
            "errors": self.errors,
        }

    # -- results ----------------------------------------------------------------
    def _samples(self, kinds, samples=None):
        samples = self.samples if samples is None else samples
        return [s * 1000.0 for kind in kinds for s in samples[kind]]

    def end_to_end(self, ops_per_s):
        query = self._samples(QUERY_KINDS)
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "query_iqm_ms": (interquartile_mean(query), "ms"),
            "ops_per_s": (ops_per_s, "1/s"),
            "restart_s": (statistics.median(self.restart_s), "s"),
            "server_rss_mb": (max(server.peak_rss_mb for server in self.servers), "MB"),
            "client_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "log_bytes_per_record": (self.log_bytes_per_record, "B"),
        }

    def layer_metrics(self, ops_per_s, wall_ns):
        client_spans, client_counters = self.tracer.take()
        server_spans, counters = [], collections.Counter(client_counters)
        overhead_ns = len(client_spans) * spans.span_cost_ns()
        for path in sorted(Path(self.trace_dir).glob("server-*.json")):
            dump = json.loads(path.read_text())
            server_spans += dump["spans"]
            counters.update(dump["counters"])
            overhead_ns += len(dump["spans"]) * dump["span_cost_ns"]
        agg = self.agg = spans.aggregate(client_spans + server_spans)
        out = {}
        for name in LAYER_FUNCTIONS:
            calls, _incl, self_ns = agg[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.ms"] = (self_ns / 1e6, "ms")
        compute_in_windows = sum(
            end - start
            for _id, _parent, _request, name, start, end, _self in server_spans
            if name == "ces.compute" and any(a <= start < b for a, b in self.windows)
        )
        active_ns = sum(b - a for a, b in self.windows)
        queries = agg["protocols.query_sphere"][0] + agg["protocols.query_range"][0]
        out.update({
            "ces.lookup_hits": (counters["ces.lookup_hits"], "count"),
            "ces.compute.share": (compute_in_windows / active_ns, "ratio"),
            "server.request_bytes": (counters["server.request_bytes"], "B"),
            "server.reply_bytes": (counters["server.reply_bytes"], "B"),
            "geometry.layers_per_query": (agg["ces.query_encrypt"][0] / queries, "ratio"),
            "protocols.raw_per_result": (
                agg["protocols.decrypt_record"][0] / max(1, self.validated), "ratio"
            ),
            "wire.overhead_ms": ((agg["protocols.wait"][1] - agg["server.handle_line"][1]) / 1e6, "ms"),
            "trace.overhead_pct": (100.0 * overhead_ns / wall_ns, "%"),
            "trace.ops_per_s": (ops_per_s, "1/s"),
        })
        return out

    def report(self):
        """Human-readable lines: run context, then each end-to-end figure
        of the issue's list that applies to this workload."""
        w = self.w
        context = {
            "workload": w.name, "seed": self.seed, "seconds": self.seconds,
            "traced": self.tracer is not None,
            "machine": platform.machine(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "backend": w.backend, "lambda": w.lambda_bits, "n": w.points, "d": w.d,
            "v": w.v, "x_max": w.x_max, "protocol": w.protocol, "layout": w.layout,
            "e_max": w.e_max, "flush_policy": FLUSH_POLICY,
            "loop": "closed, one client, one TCP connection",
            "note": "latencies are measured on the machine that ran this, client and "
                    "server sharing its cores, and scaled to a machine where the "
                    f"reference block takes {REF_S * 1000:g} ms; wall-clock figures follow",
        }
        lines = ["# " + json.dumps(context)]

        def stat(name, kinds):
            xs = self._samples(kinds)
            if xs:
                lines.append(f"{name}_p50_ms = {statistics.median(xs):.3f} ms (n={len(xs)})")
                value, q = tail(xs)
                lines.append(f"{name}_tail_ms = {value:.3f} ms (p{100 * q:.1f} of n={len(xs)})")

        stat("sphere", ("sphere",))
        stat("range", ("range",))
        stat("insert", ("insert",))
        if self.samples["update"]:
            xs = self._samples(("update",))
            lines.append(f"update_p50_ms = {statistics.median(xs):.3f} ms (n={len(xs)})")
        lines.append(f"error_rate = {self.failed / max(1, self.attempted):.6f} ratio "
                     f"({self.failed} of {self.attempted}; {self.checked} oracle checks)")
        lines.append(f"restart_s samples = {[round(s, 3) for s in self.restart_s]}")
        lines.append(f"setup_s samples = {[round(s, 3) for s in self.setup_s]}")
        lines.append(f"# reference block: median {statistics.median(self.refs) * 1000:.3f} ms, "
                     f"range {min(self.refs) * 1000:.3f}-{max(self.refs) * 1000:.3f} ms "
                     f"over {len(self.refs)} readings")
        for kind in ("sphere", "range", "insert", "update", "restart"):
            xs = self._samples((kind,), self.wall)
            if xs:
                lines.append(f"# wall-clock {kind}_p50_ms = {statistics.median(xs):.3f} ms "
                             f"(n={len(xs)})")
        lines.append(f"durable_after_restart = {self.durable}")
        for name, (calls, incl_ns, self_ns) in sorted(self.agg.items()):
            lines.append(f"# span {name}: {calls} calls, {self_ns / 1e6:.3f} ms self, "
                         f"{incl_ns / 1e6:.3f} ms inclusive")
        lines.extend(f"# error: {e}" for e in self.errors[:10])
        return lines


def run(workload, seed, seconds, trace=False):
    r = Run(workload, seed, seconds, trace)
    try:
        return r.execute()
    finally:
        shutil.rmtree(r.dir, ignore_errors=True)
