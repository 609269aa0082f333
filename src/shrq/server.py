"""The untrusted query server: stores, wire protocol, evaluation loop.

The server holds only public computation parameters (N, group descriptor,
hash id), the lookup-table digests, AES blobs it cannot open, and encrypted
tuples.  Its whole query-time behaviour is: parse the query's slots and
prepare each one once (ces.prepare_query records its Miller lines), then for
every tuple at the queried level evaluate the product of the slot pairings
and hash it (ces.scan), check membership (ces.lookup_contains) and return
the blob on a hit.

Wire format: newline-delimited UTF-8 JSON over TCP, binary fields base64.
Requests carry a "type" field:

    hello      {N, backend, hash, levels}           -> ack
    put_lookup {v, digests: [b64 16-byte prefix]}   -> ack
    put_tuple  {level, id, slots: [b64 canonical]}  -> ack
    put_store  {id, blob: b64}                      -> ack
    delete     {id}                                 -> ack {found}
    query      {level, slots: [b64 canonical]}      -> result {matches: [{id, blob}]}

hello_message is the one hello encoder: the client sends its output, and
the server pins, logs and snapshots hello_message of the hello it acks.
A slot is the canonical encoding (Group.canonical_bytes) of a G element,
and decode reads exactly those byte strings: a GT encoding, a
non-canonical one or a point outside the order-N subgroup does not decode.
Every line, a blank one included, takes _dispatch and gets exactly one
reply line: anything malformed (not JSON, not an object, nested more than
four deep, an unknown type, a missing or ill-typed field, a slot that does
not decode, parameters that do not build a group) gets {"type": "error",
"error": ...}, changes no state, and the connection stays open.  A
put_tuple needs its id's put_store first, and all tuples at a level have one
slot count: the first tuple stored at an empty level fixes it, and a
put_tuple with another count is an error.  So one bad tuple cannot turn
every later query at its level into an error.  A query's work is bounded by
the level it asks: a query whose slot count differs from its populated
level's pinned count is an error before any slot is parsed or prepared, and
a query at an empty level has its slots parsed, prepares none and answers no
matches.

A lookup digest is the first 16 bytes of SHA-256 (ces.DIGEST_BYTES), and
the server keeps only that width.  put_lookup takes a table whose digests
are all 16 bytes, or all 32: the whole SHA-256 digest, which clients before
the 16-byte prefix sent and which older logs hold.  Of a 32-byte digest the
server keeps the first 16 bytes, so an old log replays to the same answers
and shrinks at its next compaction.  Mixed widths, any other width, and two
digests equal after truncation are errors.  A server from before the prefix
answers a 16-byte table with "lookup digests must be 32 bytes", so a current
client fails against it at put_lookup, before it sends any tuple.

The answers rest on every slot lying in G: then the blinding and the cross
terms of compute pair to 1.  Each slot that arrives on the wire passes
exactly one order check ([N]P = infinity).  A put_tuple slot is decoded.
A query slot is parsed (Group.parse: the encoding and the curve equation)
and prepared, and prepare's Miller walk, which ends at [N]q, rejects it if
it is outside G.  Replay parses the log's put_tuple slots and runs no order
check: each of them passed decode before it was logged, or was written by
compact from slots that had, and the log is the server's own file.  The
parse still fails the restart on a slot whose bytes changed on disk, as a
flipped coordinate bit leaves the curve.

A query's scan is split between two processes when serve may run on more
than one CPU (os.sched_getaffinity).  serve forks one scan worker
(ScanWorker) at its start, after the address check and before the state
opens, so the worker inherits no thread, no log and no listening socket;
if that fork fails, serve runs without a worker.  For a query over n >= 2
tuples, the main process parses and prepares the slots as above, so
prepare's walk stays the order check, and sends the worker the group
descriptor, the prepared lines and the slot values of the last n // 2
tuples in sorted-id order.  Both shares run the one scan routine, ces.scan,
which gives each tuple's DIGEST_BYTES-byte lookup digest: main on its own
share meanwhile, the worker on its share.  Main then tests every digest of
both shares against the table.  The two talk over a private socketpair in
length-prefixed frames, marshal to the worker and raw digests back; a
prepared line is plain data on both backends, so the frame carries it as it
is.  The worker sees only what the server already holds: prepared lines and
tuple coordinates.  handle_line holds the state lock for a whole query, so
one scan runs at a time, on at most these two processes.  If the worker
fails in any way (a send error, the end of its stream, a reply of the wrong
length), main kills and reaps it, runs ces.scan on that share itself and
answers as without it; it never forks again.  A worker that stops without
exiting (SIGSTOP) stalls the query that waits for it.  The
worker ignores SIGINT and leaves through os._exit once it reads the end of
its stream, so it goes when serve stops, fails to start or is SIGKILLed:
serve kills and reaps it on its way out, and a killed serve's end closes
with its process.

serve always has a state directory; ServerState() keeps nothing and is for
in-process use only.  Mutations are appended to a write-ahead log and
fsync'd before they are applied and acknowledged, and replayed in order on
restart (a hello equal to the pinned one, or a delete of an id not held,
changes nothing and is not logged), so an acknowledged mutation survives a
crash between any two messages; opening the state fsyncs the state
directory and its parent, so the entries of a directory or log created
there are as durable as the first ack.  If the append fails (a full disk),
the log is cut back to its length before it, the state is left unchanged
and the reply is an error; should that cut fail too, the line may stay, as
after a crash before the ack.  A final log line without its newline was
cut by a crash before its ack: replay drops it and truncates the log to the
last newline.  Every other line, a blank one included, takes the wire's
path (_dispatch), and a line that gets an error reply fails the restart
with DataIntegrityError; so does a put_tuple without its put_store, which
older servers acked and logged.

Every _COMPACT_EVERY logged mutations the log is rewritten as a snapshot
(compact); the count starts at the number of lines replayed at open, so a
server restarted more often than that still compacts.  The snapshot goes
through write_durably, which fsyncs the directory after the rename, so a
crash cannot undo the rename under later appends.  The log is reopened even
when that fsync fails, as later appends must land in the renamed file; it
is created 0600, as the snapshot is.  Only a request that logged a line
compacts, after applying it: a query, a repeated hello or a delete of an id
not held never does, even after a restart whose replay reached the count.
If compaction fails (a full disk), the mutation is durable all the same and
still gets its reply, and the next mutation tries the compaction again.
"""

import base64
import contextlib
import json
import marshal
import os
import socket
import socketserver
import struct
import threading

from .ces import DIGEST_BYTES, HASH_ID, LookupTable, lookup_contains, prepare_query, scan
from .errors import ConfigError, DataIntegrityError, ProtocolError, ServerUnreachable, ShrqError
from .pairing import GElement, group_from_descriptor

_LOG_NAME = "log.jsonl"
# logged mutations after which the log is rewritten as a snapshot
_COMPACT_EVERY = 10000
# int() of a JSON number too large for a float (1e400) raises OverflowError
_BAD_INPUT = (ShrqError, KeyError, TypeError, ValueError, OverflowError)
# messages nest containers two deep; JSON nested near the interpreter's
# recursion limit parses but may not serialize again for the log
_MAX_NESTING = 4
# put_lookup also takes whole SHA-256 digests, as older clients sent them
_SHA256_BYTES = 32
# the byte length that leads each frame on the scan worker's socketpair
_FRAME = struct.Struct(">Q")
# what a scan worker that failed in any way raises on main's side
_WORKER_FAILED = (OSError, EOFError, ValueError)


def b64e(raw):
    return base64.b64encode(raw).decode("ascii")


def b64d(text):
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise ProtocolError(f"bad base64 payload: {exc}") from None


def _too_deep(value, depth=_MAX_NESTING):
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return False
    return depth == 0 or any(_too_deep(v, depth - 1) for v in value)


def fsync_dir(path):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_durably(path, lines):
    """Replace path with lines, one write each, atomically and owner-only: a
    temporary file beside it, created 0600 once a stale one (or a link) is
    removed, is fsync'd, renamed over path and the directory fsync'd.  A
    failure before the rename removes it and leaves path whole."""
    tmp = os.fspath(path) + ".tmp"
    with contextlib.suppress(FileNotFoundError):
        os.unlink(tmp)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    fsync_dir(os.path.dirname(os.path.abspath(path)))


def _log_line(msg):
    return json.dumps(msg, sort_keys=True) + "\n"


def hello_message(descriptor, levels):
    """Pin the group (a GroupParams.describe() output) and the level count."""
    backend = dict(descriptor)
    return dict(type="hello", N=backend.pop("N"), backend=backend, hash=HASH_ID, levels=levels)


def store_message(rid, blob):
    return {"type": "put_store", "id": rid, "blob": b64e(blob)}


def lookup_message(table):
    return {
        "type": "put_lookup",
        "v": table.v,
        "digests": [b64e(d) for d in sorted(table.digests)],
    }


def tuple_message(group, level, rid, slots):
    return {
        "type": "put_tuple",
        "level": level,
        "id": rid,
        "slots": [b64e(group.canonical_bytes(s)) for s in slots],
    }


def _send_frame(sock, data):
    sock.sendall(_FRAME.pack(len(data)) + data)


def _recv_exactly(sock, size):
    data = bytearray()
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise EOFError("scan worker socket closed")
        data += chunk
    return bytes(data)


def _recv_frame(sock, expect=None):
    """The next frame's bytes; EOFError at the end of the stream, and
    ValueError for a frame of other than expect bytes."""
    (size,) = _FRAME.unpack(_recv_exactly(sock, _FRAME.size))
    if expect is not None and size != expect:
        raise ValueError(f"scan worker frame of {size} bytes, expected {expect}")
    return _recv_exactly(sock, size)


def _serve_scans(sock):
    """The scan worker's loop: for each marshal frame (group descriptor,
    prepared query, tuples of slot values), a frame of the tuples' ces.scan
    digests.  Returns only by raising, EOFError once main's end is closed."""
    descriptor = group = None
    while True:
        desc, prepared, tuples = marshal.loads(_recv_frame(sock))
        if desc != descriptor:
            descriptor, group = desc, group_from_descriptor(desc)
        _send_frame(sock, b"".join(scan(group, prepared, [tuple(map(GElement, t)) for t in tuples])))


class ScanWorker:
    """Main's end of the forked scan worker (see the module docstring)."""

    def __init__(self, sock, pid):
        self._sock = sock
        self.pid = pid

    @classmethod
    def fork(cls):
        """Fork the worker.  Returns its handle in the parent; in the child it
        scans until main's end of the socketpair closes, then leaves through
        os._exit, never returning.  A failed fork closes both ends first."""
        ours, theirs = socket.socketpair()
        try:
            pid = os.fork()
        except OSError:
            ours.close()
            theirs.close()
            raise
        if pid:
            theirs.close()
            return cls(ours, pid)
        try:
            import signal  # here and in close, not on serve's start-up path

            ours.close()
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops main, and main's exit stops this
            _serve_scans(theirs)
        finally:
            os._exit(0)

    def send(self, descriptor, prepared, tuples):
        msg = (descriptor, prepared, [[s.value for s in t] for t in tuples])
        _send_frame(self._sock, marshal.dumps(msg))

    def receive(self, count):
        """The lookup digests of the count tuples sent.  The reply is raw
        bytes checked by its length, as marshal.loads of a malformed buffer
        may allocate gigabytes; any fault raises one of _WORKER_FAILED."""
        joined = _recv_frame(self._sock, count * DIGEST_BYTES)
        return [joined[i : i + DIGEST_BYTES] for i in range(0, len(joined), DIGEST_BYTES)]

    def close(self):
        """Kill and reap the worker; a second call does nothing."""
        if self.pid is None:
            return
        import signal

        self._sock.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None


class ServerState:
    """All server-side state plus the message handler; transport-agnostic.
    A query shares its scan with worker, a ScanWorker, if one is given.  The
    caller closes the worker after the state, which closes it only when it
    fails."""

    def __init__(self, state_dir=None, worker=None):
        self.hello = None  # the pinned hello message
        self.group = None
        self.lookup = None
        self.db_store = {}  # id -> AES blob bytes
        self.db_query = {}  # level -> {id: tuple of G elements}
        self._mutations_since_compact = 0
        self._log = None
        self._lock = threading.Lock()
        self._worker = worker
        self._replaying = False  # True in _replay, where put_tuple parses and does not decode
        if state_dir is not None:
            self._log_path = os.path.join(state_dir, _LOG_NAME)
            try:
                os.makedirs(state_dir, exist_ok=True)
            except OSError as exc:  # a file where the directory should be, say
                raise ConfigError(f"cannot use {state_dir} as the state directory: {exc}") from None
            self._replay()
            self._open_log()
            fsync_dir(state_dir)
            fsync_dir(os.path.dirname(os.path.abspath(state_dir)))

    # -- persistence --------------------------------------------------------
    def _replay(self):
        kept = 0  # a missing log is created 0600, as in _open_log, and replays empty
        self._replaying = True
        with open(os.open(self._log_path, os.O_RDWR | os.O_CREAT, 0o600), "r+b") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    break  # torn tail: written, never acknowledged
                kept += len(line)
                reply = self._dispatch(line)
                if reply.get("type") == "error":
                    raise DataIntegrityError(f"corrupt state log line {number}: {reply['error']}")
                # the replayed lines count, so a server restarted often still compacts
                self._mutations_since_compact += 1
            if kept < fh.seek(0, os.SEEK_END):
                fh.truncate(kept)
                os.fsync(fh.fileno())
        self._replaying = False

    def _open_log(self):
        # unbuffered, so a failed write leaves no bytes behind to flush later
        fd = os.open(self._log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        self._log = open(fd, "ab", buffering=0)

    def _append_log(self, msg):
        """Write msg to the log and fsync it.  A handler calls this after its
        checks and before it changes any state; on OSError the log is cut
        back to its length before the append and the error propagates."""
        if self._log is None:
            return
        start = self._log.seek(0, os.SEEK_END)
        data = memoryview(_log_line(msg).encode("utf-8"))
        try:
            while data:
                data = data[self._log.write(data) :]
            os.fsync(self._log.fileno())
        except OSError:
            self._log.truncate(start)
            raise
        self._mutations_since_compact += 1

    def snapshot_messages(self):
        """Current state as a minimal replayable message sequence."""
        msgs = []
        if self.hello is not None:
            msgs.append(self.hello)
        if self.lookup is not None:
            msgs.append(lookup_message(self.lookup))
        for rid in sorted(self.db_store):
            msgs.append(store_message(rid, self.db_store[rid]))
        for level in sorted(self.db_query):
            for rid, slots in sorted(self.db_query[level].items()):
                msgs.append(tuple_message(self.group, level, rid, slots))
        return msgs

    def compact(self):
        """Rewrite the log as a snapshot (see the module docstring)."""
        if self._log is None:
            return  # no state directory, or closed
        try:
            write_durably(self._log_path, map(_log_line, self.snapshot_messages()))
        finally:  # after the rename, appends go to the new file
            self._log.close()
            self._open_log()
        self._mutations_since_compact = 0

    def close(self):
        if self._log is not None:
            self._log.close()
            self._log = None

    # -- message handling -----------------------------------------------------
    def handle_line(self, line):
        """Process one wire line, return one reply line (thread-safe)."""
        with self._lock:
            return json.dumps(self._dispatch(line), sort_keys=True)

    def request(self, msg):
        """In-process transport: same code path as TCP, JSON round-tripped."""
        return json.loads(self.handle_line(json.dumps(msg)))

    def _dispatch(self, line):
        """Parse one wire or log line and run its handler; returns the reply.
        Each mutation handler checks its message, logs it and only then
        applies it, so a rejected line or a failed log append changes no
        state and gets an error reply."""
        before = self._mutations_since_compact
        try:
            msg = json.loads(line)
        except (ValueError, RecursionError) as exc:
            return {"type": "error", "error": f"malformed message: {exc}"}
        if not isinstance(msg, dict) or _too_deep(msg):
            error = f"malformed message: not a JSON object nested at most {_MAX_NESTING} deep"
            return {"type": "error", "error": error}
        try:
            mtype = msg.get("type")
            handler = getattr(self, f"_do_{mtype}", None)
            if handler is None:
                raise ProtocolError(f"unknown message type {mtype!r}")
            if self.hello is None and mtype != "hello":
                raise ProtocolError("no parameters pinned: send hello first")
            reply = handler(msg)
        except _BAD_INPUT as exc:
            return {"type": "error", "error": str(exc)}
        except OSError as exc:
            return {"type": "error", "error": f"state log append failed: {exc}"}
        # only a request that logged a line compacts (see the module docstring)
        if before < self._mutations_since_compact >= _COMPACT_EVERY:
            with contextlib.suppress(OSError):  # the mutation is logged; the next one retries
                self.compact()
        return reply

    def _check_level(self, level):
        levels = self.hello["levels"]
        if type(level) is not int or not 0 <= level < levels:  # JSON true is no level
            raise ProtocolError(f"unknown level {level!r} (levels 0..{levels - 1})")

    def _do_hello(self, msg):
        if msg["hash"] != HASH_ID:
            raise ProtocolError(f"unsupported hash {msg['hash']!r}")
        hello = hello_message(dict(msg["backend"], N=str(msg["N"])), int(msg["levels"]))
        if hello["levels"] < 1:
            raise ProtocolError("levels must be >= 1")
        if self.hello is not None:
            if hello != self.hello:
                raise ProtocolError("parameter mismatch with pinned hello")
            return {"type": "ack"}  # changes nothing, so nothing to log
        group = group_from_descriptor(dict(hello["backend"], N=hello["N"]))
        self._append_log(msg)
        self.group, self.hello = group, hello
        return {"type": "ack"}

    def _do_put_lookup(self, msg):
        digests = [b64d(d) for d in msg["digests"]]
        widths = {len(d) for d in digests}
        if len(widths) > 1 or not widths <= {DIGEST_BYTES, _SHA256_BYTES}:
            raise ProtocolError(f"lookup digests must be all {DIGEST_BYTES} or all {_SHA256_BYTES} bytes")
        uniq = frozenset(d[:DIGEST_BYTES] for d in digests)
        if len(uniq) != len(digests):
            raise ProtocolError("duplicate lookup digests")
        lookup = LookupTable(uniq, int(msg["v"]))
        self._append_log(msg)
        self.lookup = lookup
        return {"type": "ack"}

    def _do_put_tuple(self, msg):
        level = msg["level"]
        self._check_level(level)
        rid = str(msg["id"])
        if rid not in self.db_store:
            raise ProtocolError(f"id {rid!r} has no record in db-store: send its put_store first")
        read = self.group.parse if self._replaying else self.group.decode
        slots = tuple(read(b64d(s)) for s in msg["slots"])
        if not slots:
            raise ProtocolError("tuple has no slots")
        bucket = self.db_query.get(level, {})
        if rid in bucket:
            raise ProtocolError(f"duplicate id {rid!r} at level {level}")
        pinned = len(next(iter(bucket.values()), slots))
        if len(slots) != pinned:
            raise ProtocolError(f"tuple has {len(slots)} slots, level {level} holds {pinned}")
        self._append_log(msg)
        self.db_query.setdefault(level, {})[rid] = slots
        return {"type": "ack"}

    def _do_put_store(self, msg):
        rid = str(msg["id"])
        if rid in self.db_store:
            raise ProtocolError(f"duplicate id {rid!r} in store")
        blob = b64d(msg["blob"])
        self._append_log(msg)
        self.db_store[rid] = blob
        return {"type": "ack"}

    def _do_delete(self, msg):
        rid = str(msg["id"])
        if rid not in self.db_store:
            return {"type": "ack", "found": False}  # changes nothing, so nothing to log
        self._append_log(msg)
        del self.db_store[rid]
        for bucket in self.db_query.values():
            bucket.pop(rid, None)
        return {"type": "ack", "found": True}

    def _do_query(self, msg):
        level = msg["level"]
        self._check_level(level)
        if self.lookup is None:
            raise ProtocolError("no lookup table uploaded")
        bucket = self.db_query.get(level, {})
        wire = msg["slots"]
        pinned = len(next(iter(bucket.values()), wire))
        if len(wire) != pinned:  # before any parse or prepare (see the module docstring)
            raise ProtocolError(f"query has {len(wire)} slots, level {level} holds {pinned}")
        slots = [self.group.parse(b64d(s)) for s in wire]
        if not bucket:
            return {"type": "result", "matches": []}
        # prepare's walk is the slots' order check (see the module docstring)
        prepared = prepare_query(self.group, slots)
        ids = sorted(bucket)
        matches = []
        for rid, dig in zip(ids, self._scan([bucket[rid] for rid in ids], prepared)):
            if lookup_contains(self.lookup, dig):
                blob = self.db_store.get(rid)
                if blob is None:
                    raise DataIntegrityError(f"matched id {rid!r} missing from db-store")
                matches.append({"id": rid, "blob": b64e(blob)})
        return {"type": "result", "matches": matches}

    def _scan(self, tuples, prepared):
        """ces.scan of the tuples, in order.  The worker takes the last half
        of the tuples; if it fails, it is closed and this process scans its
        share (see the module docstring)."""
        own = len(tuples) - (len(tuples) // 2 if self._worker else 0)
        theirs = tuples[own:]
        if theirs:
            try:
                self._worker.send(self.group.params.describe(), prepared, theirs)
            except _WORKER_FAILED:
                self._close_worker()
        try:
            digests = scan(self.group, prepared, tuples[:own])
        except BaseException:  # the worker's reply would stay unread
            self._close_worker()
            raise
        if theirs and self._worker:
            try:
                return digests + self._worker.receive(len(theirs))
            except _WORKER_FAILED:
                self._close_worker()
        return digests + scan(self.group, prepared, theirs)

    def _close_worker(self):
        if self._worker is not None:
            self._worker.close()
            self._worker = None


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            reply = self.server.state.handle_line(raw.decode("utf-8", errors="replace"))
            self.wfile.write(reply.encode("utf-8") + b"\n")
            self.wfile.flush()


class TcpServer(socketserver.ThreadingTCPServer):
    """Serve one ServerState over TCP."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, state):
        super().__init__(address, _Handler)
        self.state = state


def _address(text):
    """(host, port) of "host:port"; the host defaults to 127.0.0.1."""
    host, colon, port = text.rpartition(":")
    if not colon or not port.isdecimal() or int(port) > 65535:
        raise ConfigError(f"bad address {text!r}: expected host:port with a port in 0..65535")
    return host or "127.0.0.1", int(port)


def serve(listen, state_dir):
    """Blocking entry point for the server process over state_dir.  The
    address is checked before the state opens, and the state is replayed
    before the server listens.  Every start-up failure is a ShrqError: a
    ConfigError for a malformed address or a state path that cannot be a
    directory, and a plain ShrqError or DataIntegrityError for a state that
    does not open or replay, or an address that cannot be bound.  A scan
    worker that cannot be forked is none: it is only a speed-up.  Once
    bound, and before it serves, it prints one JSON line {"listening":
    "host:port"} to stdout with the port it bound, so a --listen port of 0
    (any free port) can be found."""
    address = _address(listen)
    # before the state opens: the worker inherits no thread, log or socket
    worker = None
    if len(os.sched_getaffinity(0)) > 1:
        with contextlib.suppress(OSError):  # a failed fork serves without a worker
            worker = ScanWorker.fork()
    try:
        try:
            state = ServerState(state_dir, worker)
        except OSError as exc:  # a log that is a directory, say
            raise ShrqError(f"cannot open the state in {state_dir}: {exc}") from None
        try:
            srv = TcpServer(address, state)
        except OSError as exc:  # the port is taken, say
            state.close()
            raise ShrqError(f"cannot listen on {listen}: {exc}") from None
        try:
            host, port = srv.server_address[:2]
            print(json.dumps({"listening": f"{host}:{port}"}), flush=True)
            srv.serve_forever()
        finally:
            srv.server_close()
            state.close()
    finally:
        if worker is not None:
            worker.close()


class ServerConnection:
    """Client end of the wire: one JSON line out, one JSON line back."""

    def __init__(self, host, port, timeout=30.0):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServerUnreachable(f"cannot connect to {host}:{port}: {exc}") from None
        self._file = self._sock.makefile("rwb")

    def request(self, msg):
        """A reset or a timeout closes the connection and raises
        ServerUnreachable; a reply that is not a JSON object raises
        ProtocolError."""
        data = json.dumps(msg).encode("utf-8") + b"\n"
        try:
            self._file.write(data)
            self._file.flush()
            line = self._file.readline()
        except (OSError, ValueError) as exc:  # ValueError: closed by an earlier one
            self.close()
            raise ServerUnreachable(f"connection to the server lost: {exc}") from None
        if not line:
            raise ServerUnreachable("server closed the connection")
        try:
            reply = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"malformed reply from the server: {exc}") from None
        if not isinstance(reply, dict):
            raise ProtocolError("malformed reply from the server: not a JSON object")
        return reply

    def close(self):
        with contextlib.suppress(OSError):  # the flush of a request the peer never read
            self._file.close()
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def connect(address, timeout=30.0):
    return ServerConnection(*_address(address), timeout)
