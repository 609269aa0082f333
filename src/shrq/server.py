"""The untrusted query server: stores, wire protocol, evaluation loop.

The server holds only public computation parameters (N, group descriptor,
hash id), the lookup-table digests, AES blobs it cannot open, and encrypted
tuples.  Its whole query-time behaviour is: decode the query's slots and
prepare each one once (ces.prepare_query records its Miller lines), then for
every tuple at the queried level evaluate the product of the slot pairings
(ces.compute), hash it, check membership and return the blob on a hit.

Wire format: newline-delimited UTF-8 JSON over TCP, binary fields base64.
Requests carry a "type" field:

    hello      {N, backend, hash, levels}           -> ack
    put_lookup {v, digests: [b64]}                  -> ack
    put_tuple  {level, id, slots: [b64 canonical]}  -> ack
    put_store  {id, blob: b64}                      -> ack
    delete     {id}                                 -> ack {found}
    query      {level, slots: [b64 canonical]}      -> result {matches: [{id, blob}]}

Every line gets exactly one reply line: anything malformed (not JSON, not
an object, nested more than four deep, an unknown type, a missing or ill-typed field, an element that
does not decode, parameters that do not build a group) gets
{"type": "error", "error": ...}, changes no state, and the connection stays
open.  All tuples at a level have one slot count: the first tuple stored
at an empty level fixes it, and a put_tuple with another count is an error,
so one bad tuple cannot turn every later query at its level into an error.

Mutations are appended to a write-ahead log and fsync'd before they are
applied and acknowledged, and replayed in order on restart, so an
acknowledged mutation survives a crash between any two messages.  If the
append fails (a full disk), the log is cut back to its length before it,
the state is left unchanged and the reply is an error; should that cut fail
too, the line may stay, as after a crash before the ack.  A final log line
without its newline was cut by a crash before its ack: replay drops it and
truncates the log to the last newline.  Any other line that is not a JSON
object, or that the handler rejects, fails the restart with
DataIntegrityError.

Every _COMPACT_EVERY logged mutations the log is rewritten as a snapshot
(compact): written to a temporary file and fsync'd, renamed over the log,
and the state directory fsync'd, so the rename cannot be undone by a crash
while later appends land in the new file.  Compaction runs after the
mutation that triggers it is logged and applied; if it fails (a full disk),
that mutation is durable all the same and still gets its reply, and the
next mutation tries the compaction again.
"""

import base64
import json
import os
import socket
import socketserver
import threading

from .ces import HASH_ID, LookupTable, compute, lookup_contains, prepare_query
from .errors import DataIntegrityError, ProtocolError, ServerUnreachable, ShrqError
from .pairing import group_from_descriptor

_LOG_NAME = "log.jsonl"
# logged mutations after which the log is rewritten as a snapshot
_COMPACT_EVERY = 10000
# message type -> handler name, looked up on the instance at each call so a
# handler patched onto the class (the traced benchmark server does) still runs
_HANDLERS = {
    "hello": "_do_hello",
    "put_lookup": "_do_put_lookup",
    "put_tuple": "_do_put_tuple",
    "put_store": "_do_put_store",
    "delete": "_do_delete",
    "query": "_do_query",
}
# int() of a JSON number too large for a float (1e400) raises OverflowError
_BAD_INPUT = (ShrqError, KeyError, TypeError, ValueError, OverflowError)
# messages nest containers two deep; JSON nested near the interpreter's
# recursion limit parses but may not serialize again for the log
_MAX_NESTING = 4


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


class ServerState:
    """All server-side state plus the message handler; transport-agnostic."""

    def __init__(self, state_dir=None):
        self.hello = None  # the pinned hello message
        self.group = None
        self.lookup = None
        self.db_store = {}  # id -> AES blob bytes
        self.db_query = {}  # level -> {id: tuple of G elements}
        self._state_dir = state_dir
        self._mutations_since_compact = 0
        self._log = None
        self._lock = threading.Lock()
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
            self._replay()
            self._open_log()

    # -- persistence --------------------------------------------------------
    def _replay(self):
        path = os.path.join(self._state_dir, _LOG_NAME)
        if not os.path.exists(path):
            return
        kept = 0
        with open(path, "rb") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    break  # torn tail: written, never acknowledged
                kept += len(line)
                if not line.strip():
                    continue
                try:
                    msg = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise DataIntegrityError(f"corrupt state log line {number}: {exc}") from None
                if not isinstance(msg, dict):
                    raise DataIntegrityError(f"corrupt state log line {number}: not an object")
                reply = self._dispatch(msg)
                if reply.get("type") == "error":
                    raise DataIntegrityError(f"corrupt state log line {number}: {reply['error']}")
            size = fh.seek(0, os.SEEK_END)
        if kept < size:
            with open(path, "r+b") as fh:
                fh.truncate(kept)
                os.fsync(fh.fileno())

    def _open_log(self):
        # unbuffered, so a failed write leaves no bytes behind to flush later
        self._log = open(os.path.join(self._state_dir, _LOG_NAME), "ab", buffering=0)

    def _append_log(self, msg):
        """Write msg to the log and fsync it.  A handler calls this after its
        checks and before it changes any state; on OSError the log is cut
        back to its length before the append and the error propagates."""
        if self._log is None:
            return
        start = self._log.seek(0, os.SEEK_END)
        data = memoryview((json.dumps(msg, sort_keys=True) + "\n").encode("utf-8"))
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
            msgs.append({"type": "put_store", "id": rid, "blob": b64e(self.db_store[rid])})
        for level in sorted(self.db_query):
            for rid, slots in sorted(self.db_query[level].items()):
                msgs.append(tuple_message(self.group, level, rid, slots))
        return msgs

    def compact(self):
        """Rewrite the log as a snapshot, atomically: the snapshot is written
        and fsync'd beside the log, renamed over it, and the directory is
        fsync'd so the rename, and every append after it, survives a crash."""
        if self._state_dir is None:
            return
        path = os.path.join(self._state_dir, _LOG_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for msg in self.snapshot_messages():
                fh.write(json.dumps(msg, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        if self._log is not None:
            self._log.close()
            self._open_log()
        dir_fd = os.open(self._state_dir, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        self._mutations_since_compact = 0

    def close(self):
        if self._log is not None:
            self._log.close()
            self._log = None

    # -- message handling -----------------------------------------------------
    def handle_line(self, line):
        """Process one wire line, return one reply line (thread-safe)."""
        with self._lock:
            try:
                msg = json.loads(line)
            except (ValueError, RecursionError) as exc:
                return json.dumps({"type": "error", "error": f"malformed message: {exc}"})
            if not isinstance(msg, dict) or _too_deep(msg):
                error = f"malformed message: not a JSON object nested at most {_MAX_NESTING} deep"
                return json.dumps({"type": "error", "error": error})
            return json.dumps(self._dispatch(msg), sort_keys=True)

    def request(self, msg):
        """In-process transport: same code path as TCP, JSON round-tripped."""
        return json.loads(self.handle_line(json.dumps(msg)))

    def _dispatch(self, msg):
        """Run the handler.  Each mutation handler checks its message, logs
        it and only then applies it, so a rejected message or a failed log
        append changes no state and gets an error reply."""
        try:
            mtype = msg.get("type")
            name = _HANDLERS.get(mtype)
            if name is None:
                raise ProtocolError(f"unknown message type {mtype!r}")
            if self.hello is None and mtype != "hello":
                raise ProtocolError("no parameters pinned: send hello first")
            reply = getattr(self, name)(msg)
        except _BAD_INPUT as exc:
            return {"type": "error", "error": str(exc)}
        except OSError as exc:
            return {"type": "error", "error": f"state log append failed: {exc}"}
        if self._mutations_since_compact >= _COMPACT_EVERY:
            try:
                self.compact()
            except OSError:
                pass  # the mutation is durable in the log; the next one retries
        return reply

    def _check_level(self, level):
        levels = self.hello["levels"]
        if not isinstance(level, int) or not 0 <= level < levels:
            raise ProtocolError(f"unknown level {level!r} (levels 0..{levels - 1})")

    def _do_hello(self, msg):
        hello = {
            "type": "hello",
            "N": str(msg["N"]),
            "backend": dict(msg["backend"]),
            "hash": msg["hash"],
            "levels": int(msg["levels"]),
        }
        if hello["levels"] < 1:
            raise ProtocolError("levels must be >= 1")
        if self.hello is not None:
            if hello != self.hello:
                raise ProtocolError("parameter mismatch with pinned hello")
            self._append_log(msg)
            return {"type": "ack"}
        if hello["hash"] != HASH_ID:
            raise ProtocolError(f"unsupported hash {hello['hash']!r}")
        group = group_from_descriptor(dict(hello["backend"], N=hello["N"]))
        self._append_log(msg)
        self.group, self.hello = group, hello
        return {"type": "ack"}

    def _do_put_lookup(self, msg):
        digests = [b64d(d) for d in msg["digests"]]
        if any(len(d) != 32 for d in digests):
            raise ProtocolError("lookup digests must be 32 bytes")
        uniq = frozenset(digests)
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
        slots = tuple(self.group.decode(b64d(s)) for s in msg["slots"])
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
        found = rid in self.db_store
        self._append_log(msg)
        self.db_store.pop(rid, None)
        for bucket in self.db_query.values():
            found |= bucket.pop(rid, None) is not None
        return {"type": "ack", "found": found}

    def _do_query(self, msg):
        level = msg["level"]
        self._check_level(level)
        if self.lookup is None:
            raise ProtocolError("no lookup table uploaded")
        prepared = prepare_query(self.group, [self.group.decode(b64d(s)) for s in msg["slots"]])
        matches = []
        bucket = self.db_query.get(level, {})
        for rid in sorted(bucket):
            if lookup_contains(self.lookup, self.group, compute(self.group, bucket[rid], prepared)):
                blob = self.db_store.get(rid)
                if blob is None:
                    raise DataIntegrityError(f"matched id {rid!r} missing from db-store")
                matches.append({"id": rid, "blob": b64e(blob)})
        return {"type": "result", "matches": matches}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            reply = self.server.state.handle_line(line.decode("utf-8", errors="replace"))
            self.wfile.write(reply.encode("utf-8") + b"\n")
            self.wfile.flush()


class TcpServer(socketserver.ThreadingTCPServer):
    """Serve one ServerState over TCP."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, state):
        super().__init__(address, _Handler)
        self.state = state


def serve(listen="127.0.0.1:9045", state_dir=None):
    """Blocking entry point for the server process."""
    host, _, port = listen.rpartition(":")
    state = ServerState(state_dir)
    srv = TcpServer((host or "127.0.0.1", int(port)), state)
    try:
        srv.serve_forever()
    finally:
        srv.server_close()
        state.close()


class ServerConnection:
    """Client end of the wire: one JSON line out, one JSON line back."""

    def __init__(self, host, port, timeout=30.0):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServerUnreachable(f"cannot connect to {host}:{port}: {exc}") from None
        self._file = self._sock.makefile("rwb")

    def request(self, msg):
        self._file.write(json.dumps(msg).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServerUnreachable("server closed the connection")
        return json.loads(line)

    def close(self):
        self._file.close()
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def connect(address, timeout=30.0):
    host, _, port = address.rpartition(":")
    return ServerConnection(host or "127.0.0.1", int(port), timeout)
