"""The untrusted query server: stores, wire protocol, evaluation loop.

The server holds only public computation parameters (N, group descriptor,
hash id), the lookup-table digests, AES blobs it cannot open, and encrypted
tuples.  Its whole query-time behaviour is: parse the query's slots and
prepare each one once (ces.prepare_query records its Miller lines), then for
every tuple at the queried level evaluate the product of the slot pairings
and hash it (ces.scan), check membership (ces.lookup_contains) and return
the blob on a hit.

Wire format: newline-delimited UTF-8 JSON over TCP, binary fields base64.
_dispatch decodes a line's bytes once, strictly as UTF-8 (RFC 8259, section
8.1), on the wire and in replay alike: a line holding an invalid byte gets
an error reply, as below, and fails a replay.  A request holds its "type"
and exactly that type's _FIELDS.  REPLIES gives each type's answer, its
reply type and fields: a query gets {"type": "result", "matches": [{id,
blob}]}, a delete {"type": "ack", "found": bool} and any other request
{"type": "ack"}.  A handler returns the fields, and _dispatch stamps the type.

hello_message is the one hello encoder: the client sends its output, and
the server acks a first hello only if it is its group's hello_message, then
pins, logs and snapshots it as sent; a later hello must equal the pinned one.
A slot is the canonical encoding (Group.canonical_bytes) of a G element,
and decode reads exactly those byte strings: a GT encoding, a
non-canonical one or a point outside the order-N subgroup does not decode.
Every line, a blank one included, takes _dispatch and gets exactly one
reply line: anything malformed (not JSON, not an object, an unknown type,
a field missing, unknown or of the wrong JSON type, a slot that does not
decode, parameters that do not build a group) gets {"type": "error",
"error": ...}, changes no state, and the connection stays open.  A
put_tuple needs its id's put_store first, and all tuples at a level have one
slot count: the first tuple stored at an empty level fixes it, and a
put_tuple with another count is an error.  So one bad tuple cannot turn
every later query at its level into an error.  The work of a put_tuple or a
query is bounded by the level it names: one whose slot count differs from
its populated level's pinned count is an error before any slot is read.  A
put_tuple decodes its slots only after every other check has passed (its
record, at least one slot, an id new at its level), and a query at an empty
level has its slots parsed, prepares none and answers no matches.

A lookup digest is the first 16 bytes of SHA-256 (ces.DIGEST_BYTES), and
the server keeps only that width.  put_lookup takes a table whose digests
are all 16 bytes, or all 32: the whole SHA-256 digest, which clients before
the 16-byte prefix sent and which older logs hold.  Of a 32-byte digest the
server keeps the first 16 bytes, so an old log replays to the same answers
and shrinks at its next compaction.  Mixed widths, any other width, and two
digests equal after truncation are errors, as is a table of other than
v + 1 digests, one per dot value in [0, v].  A server from before the prefix
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
one scan runs at a time, on at most these two processes.  A send waits at
most _WORKER_FLOOR_S, and the reply at most that plus _WORKER_MULTIPLE times
main's own share.  If the worker fails in any way (a send error, the end of
its stream, a reply of the wrong length, a missed deadline, as when SIGSTOP
stops it), main kills and reaps it, scans every tuple of that query itself
and answers as without it; it never forks again.  The worker ignores SIGINT
and leaves through os._exit once it reads the end of its stream, so it goes
when serve stops, fails to start or is SIGKILLed: serve kills and reaps it
on its way out, and a killed serve's end closes with its process.

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
after a crash before the ack.  close() waits for the line in hand and closes
the log and the worker; after it a mutation gets an error reply, and a query
is answered from memory.  A final log line without its newline was cut by a
crash before its ack: replay drops it and truncates the log to the last
newline.  Every other line, a blank one included, takes the wire's path
(_dispatch), and a line that gets an error reply fails the restart with
DataIntegrityError, as do lines that older servers acked and logged: a
put_tuple without its put_store, and one with an extra or ill-typed field,
which no compacted log holds, as the snapshot re-encodes every message; a
hello other than its group's hello_message, and a put_lookup whose v does
not match its digests.  The repo's clients never sent either.

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
import time

from .ces import DIGEST_BYTES, HASH_ID, lookup_contains, prepare_query, scan
from .errors import ConfigError, DataIntegrityError, ProtocolError, ServerUnreachable, ShrqError
from .pairing import GElement, group_from_descriptor

_LOG_NAME = "log.jsonl"
# logged mutations after which the log is rewritten as a snapshot
_COMPACT_EVERY = 10000
# json.loads raises ValueError or RecursionError, group_from_descriptor KeyError, TypeError or ValueError
_BAD_INPUT = (ShrqError, KeyError, TypeError, ValueError, RecursionError)
_FIELDS = {
    "hello": {"N": str, "backend": dict, "hash": str, "levels": int},
    "put_lookup": {"v": int, "digests": list},
    "put_tuple": {"level": int, "id": str, "slots": list},
    "put_store": {"id": str, "blob": str},
    "delete": {"id": str},
    "query": {"level": int, "slots": list},
}
# each request type's reply, error replies aside: its type and its fields' JSON types
REPLIES = dict.fromkeys(_FIELDS, ("ack", {})) | {
    "delete": ("ack", {"found": bool}),
    "query": ("result", {"matches": list}),
}
# put_lookup also takes whole SHA-256 digests, as older clients sent them
_SHA256_BYTES = 32
# the byte length that leads each frame on the scan worker's socketpair
_FRAME = struct.Struct(">Q")
# what a scan worker that failed in any way raises on main's side
_WORKER_FAILED = (OSError, EOFError, ValueError)
# a scan worker's send and reply deadlines (see the module docstring)
_WORKER_FLOOR_S = 5.0
_WORKER_MULTIPLE = 4


def b64e(raw):
    return base64.b64encode(raw).decode("ascii")


def b64d(text):
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise ProtocolError(f"bad base64 payload: {exc}") from None


def _check_fields(msg):
    """msg's type, once msg is an object of its type and exactly its _FIELDS,
    each of its JSON type (lists and objects hold strings); else ProtocolError."""
    mtype = msg.get("type") if type(msg) is dict else None
    fields = _FIELDS.get(mtype) if type(mtype) is str else None
    if fields is None:  # echo only a string: the repr of a deep list may raise
        raise ProtocolError(f"unknown message type {mtype!r}" if type(mtype) is str else "malformed message")
    if msg.keys() != {"type", *fields}:
        raise ProtocolError(f"{mtype} takes exactly the fields {', '.join(sorted(fields))}")
    for name, kind in fields.items():
        value = msg[name]
        inner = value.values() if type(value) is dict else value if type(value) is list else ()
        if type(value) is not kind or any(type(v) is not str for v in inner):  # a bool is no int
            raise ProtocolError(f"{mtype} field {name!r} has the wrong JSON type")
    return mtype


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
    """The put_lookup of a table (ces.create_lookup_table): v + 1 digests."""
    return {"type": "put_lookup", "v": len(table) - 1, "digests": [b64e(d) for d in sorted(table)]}


def tuple_message(group, level, rid, slots):
    return {
        "type": "put_tuple",
        "level": level,
        "id": rid,
        "slots": [b64e(group.canonical_bytes(s)) for s in slots],
    }


def _send_frame(sock, data):
    sock.sendall(_FRAME.pack(len(data)) + data)


def _recv_exactly(sock, size, deadline=None):
    data = bytearray()
    while len(data) < size:
        if deadline is not None:  # a time.monotonic() past which recv raises TimeoutError
            sock.settimeout(max(deadline - time.monotonic(), 1e-6))
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise EOFError("scan worker socket closed")
        data += chunk
    return bytes(data)


def _recv_frame(sock, expect=None, deadline=None):
    """The next frame's bytes; EOFError at the end of the stream, ValueError
    for a frame of other than expect bytes and TimeoutError past deadline."""
    (size,) = _FRAME.unpack(_recv_exactly(sock, _FRAME.size, deadline))
    if expect is not None and size != expect:
        raise ValueError(f"scan worker frame of {size} bytes, expected {expect}")
    return _recv_exactly(sock, size, deadline)


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

    def split_scan(self, group, prepared, tuples):
        """ces.scan of n >= 2 tuples, in order: the worker scans the last n // 2
        while this process scans the rest.  The reply is raw bytes checked by
        its length, as marshal.loads of a malformed buffer may allocate
        gigabytes; a fault or a late reply raises one of _WORKER_FAILED."""
        theirs = len(tuples) // 2
        msg = (group.params.describe(), prepared, [[s.value for s in t] for t in tuples[-theirs:]])
        self._sock.settimeout(_WORKER_FLOOR_S)
        _send_frame(self._sock, marshal.dumps(msg))
        start = time.monotonic()
        ours = scan(group, prepared, tuples[:-theirs])
        now = time.monotonic()
        deadline = now + _WORKER_FLOOR_S + _WORKER_MULTIPLE * (now - start)
        joined = _recv_frame(self._sock, theirs * DIGEST_BYTES, deadline)
        return ours + [joined[i : i + DIGEST_BYTES] for i in range(0, len(joined), DIGEST_BYTES)]

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
    A query shares its scan with worker (a ScanWorker), which the state closes."""

    def __init__(self, state_dir=None, worker=None):
        self.hello = None  # the pinned hello message
        self.group = None
        self.lookup = None  # the frozenset of lookup digests
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
            return  # no state directory, or in replay
        if self._log.closed:
            raise ShrqError("the state is closed")
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
        if self._log is None or self._log.closed:
            return  # no state directory, or closed
        try:
            write_durably(self._log_path, map(_log_line, self.snapshot_messages()))
        finally:  # after the rename, appends go to the new file
            self._log.close()
            self._open_log()
        self._mutations_since_compact = 0

    def close(self):
        with self._lock:  # waits for the line in hand (see the module docstring)
            if self._log is not None:
                self._log.close()
            if self._worker is not None:
                self._worker.close()
                self._worker = None

    # -- message handling -----------------------------------------------------
    def handle_line(self, line):
        """Process one wire line, return one reply line (thread-safe).  line is
        text; a byte that is not UTF-8 is its surrogateescape code point, as
        _Handler decodes it, so _dispatch reads the bytes that arrived."""
        with self._lock:
            return json.dumps(self._dispatch(line.encode("utf-8", "surrogateescape")), sort_keys=True)

    def request(self, msg):
        """In-process transport: same code path as TCP, JSON round-tripped."""
        return json.loads(self.handle_line(json.dumps(msg)))

    def _dispatch(self, raw):
        """Parse one wire or log line's bytes and run its handler; returns the reply.
        Each mutation handler checks its message, logs it and only then
        applies it, so a rejected line or a failed log append changes no
        state and gets an error reply."""
        before = self._mutations_since_compact
        try:
            msg = json.loads(raw.decode("utf-8"))  # strictly: an invalid byte is a ValueError
            mtype = _check_fields(msg)
            if self.hello is None and mtype != "hello":
                raise ProtocolError("no parameters pinned: send hello first")
            reply = {"type": REPLIES[mtype][0], **getattr(self, f"_do_{mtype}")(msg)}
        except _BAD_INPUT as exc:
            return {"type": "error", "error": str(exc)}
        except OSError as exc:
            return {"type": "error", "error": f"state log append failed: {exc}"}
        # only a request that logged a line compacts (see the module docstring)
        if before < self._mutations_since_compact >= _COMPACT_EVERY:
            with contextlib.suppress(OSError):  # the mutation is logged; the next one retries
                self.compact()
        return reply

    def _level(self, msg):
        """The level of a put_tuple or query msg and the tuples it holds, once
        the level is in range and msg has its pinned slot count (any count at
        an empty level); else ProtocolError, before any slot is read."""
        level, levels = msg["level"], self.hello["levels"]
        if not 0 <= level < levels:
            raise ProtocolError(f"unknown level {level!r} (levels 0..{levels - 1})")
        bucket = self.db_query.get(level, {})
        wire = msg["slots"]
        pinned = len(next(iter(bucket.values()), wire))
        if len(wire) != pinned:
            what = "query" if msg["type"] == "query" else "tuple"
            raise ProtocolError(f"{what} has {len(wire)} slots, level {level} holds {pinned}")
        return level, bucket

    def _do_hello(self, msg):
        if msg["hash"] != HASH_ID:
            raise ProtocolError(f"unsupported hash {msg['hash']!r}")
        if msg["levels"] < 1:
            raise ProtocolError("levels must be >= 1")
        if self.hello is not None:
            if msg != self.hello:
                raise ProtocolError("parameter mismatch with pinned hello")
            return {}  # changes nothing, so nothing to log
        group = group_from_descriptor(dict(msg["backend"], N=msg["N"]))
        if msg != hello_message(group.params.describe(), msg["levels"]):
            raise ProtocolError("hello is not its group's canonical hello_message")
        self._append_log(msg)
        self.group, self.hello = group, msg
        return {}

    def _do_put_lookup(self, msg):
        digests = [b64d(d) for d in msg["digests"]]
        widths = {len(d) for d in digests}
        if len(widths) > 1 or not widths <= {DIGEST_BYTES, _SHA256_BYTES}:
            raise ProtocolError(f"lookup digests must be all {DIGEST_BYTES} or all {_SHA256_BYTES} bytes")
        uniq = frozenset(d[:DIGEST_BYTES] for d in digests)
        if len(uniq) != len(digests):
            raise ProtocolError("duplicate lookup digests")
        if len(digests) != msg["v"] + 1:  # one digest per dot value in [0, v]
            raise ProtocolError(f"a table of v = {msg['v']} holds v + 1 digests, not {len(digests)}")
        self._append_log(msg)
        self.lookup = uniq
        return {}

    def _do_put_tuple(self, msg):
        level, bucket = self._level(msg)
        rid = msg["id"]
        if rid not in self.db_store:
            raise ProtocolError(f"id {rid!r} has no record in db-store: send its put_store first")
        if not msg["slots"]:
            raise ProtocolError("tuple has no slots")
        if rid in bucket:
            raise ProtocolError(f"duplicate id {rid!r} at level {level}")
        # only now, every other check passed, is a slot read (see the module docstring)
        read = self.group.parse if self._replaying else self.group.decode
        slots = tuple(read(b64d(s)) for s in msg["slots"])
        self._append_log(msg)
        self.db_query.setdefault(level, {})[rid] = slots
        return {}

    def _do_put_store(self, msg):
        rid = msg["id"]
        if rid in self.db_store:
            raise ProtocolError(f"duplicate id {rid!r} in store")
        blob = b64d(msg["blob"])
        self._append_log(msg)
        self.db_store[rid] = blob
        return {}

    def _do_delete(self, msg):
        rid = msg["id"]
        if rid not in self.db_store:
            return {"found": False}  # changes nothing, so nothing to log
        self._append_log(msg)
        del self.db_store[rid]
        for bucket in self.db_query.values():
            bucket.pop(rid, None)
        return {"found": True}

    def _do_query(self, msg):
        level, bucket = self._level(msg)
        if self.lookup is None:
            raise ProtocolError("no lookup table uploaded")
        slots = [self.group.parse(b64d(s)) for s in msg["slots"]]
        if not bucket:
            return {"matches": []}
        # prepare's walk is the slots' order check (see the module docstring)
        prepared = prepare_query(self.group, slots)
        ids = sorted(bucket)
        matches = []
        for rid, dig in zip(ids, self._scan([bucket[rid] for rid in ids], prepared)):
            if lookup_contains(self.lookup, dig):
                matches.append({"id": rid, "blob": b64e(self.db_store[rid])})
        return {"matches": matches}

    def _scan(self, tuples, prepared):
        """ces.scan of the tuples, in order.  The worker takes the last half
        of the tuples; if it fails, it is closed and this process scans them
        all (see the module docstring)."""
        if self._worker and len(tuples) > 1:
            try:
                return self._worker.split_scan(self.group, prepared, tuples)
            except BaseException as exc:  # any fault, or a reply left unread, ends the worker
                self._worker.close()
                self._worker = None
                if not isinstance(exc, _WORKER_FAILED):
                    raise
        return scan(self.group, prepared, tuples)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:  # no byte is replaced, so _dispatch sees it (see handle_line)
            reply = self.server.state.handle_line(raw.decode("utf-8", "surrogateescape"))
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
    with contextlib.ExitStack() as opened:  # closed in reverse: server, state, worker
        # before the state opens: the worker inherits no thread, log or socket
        worker = None
        if len(os.sched_getaffinity(0)) > 1:
            with contextlib.suppress(OSError):  # a failed fork serves without a worker
                worker = opened.enter_context(contextlib.closing(ScanWorker.fork()))
        try:
            state = opened.enter_context(contextlib.closing(ServerState(state_dir, worker)))
        except OSError as exc:  # a log that is a directory, say
            raise ShrqError(f"cannot open the state in {state_dir}: {exc}") from None
        try:
            srv = opened.enter_context(TcpServer(address, state))
        except OSError as exc:  # the port is taken, say
            raise ShrqError(f"cannot listen on {listen}: {exc}") from None
        host, port = srv.server_address[:2]
        print(json.dumps({"listening": f"{host}:{port}"}), flush=True)
        srv.serve_forever()


class ServerConnection:
    """Client end of the wire: one JSON line out, one JSON line back."""

    def __init__(self, host, port, timeout=30.0):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServerUnreachable(f"cannot connect to {host}:{port}: {exc}") from None
        self._file = self._sock.makefile("rwb")

    def request(self, msg):
        """The reply's JSON value.  A reset or a timeout closes the connection
        and raises ServerUnreachable; a reply that is not JSON raises ProtocolError."""
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
            return json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"malformed reply from the server: {exc}") from None

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
