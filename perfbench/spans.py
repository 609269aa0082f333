"""In-memory span recording around the public functions of each shrq layer.

A Tracer wraps functions in place, so the program itself is unchanged; the
benchmark installs the same wrappers in its own (client) process and, through
serve_traced.py, in the server process.  Each span keeps its name, start and
end (time.perf_counter_ns, which is CLOCK_MONOTONIC on Linux and so
comparable across the two processes), its self time, the span that caused it
and the id of the request it belongs to.  Spans stay in memory until the
owner writes them out.
"""

import collections
import functools
import itertools
import sys
import threading
import time

# (span name, attribute path) per layer; the first component of the name is
# the shrq module the function lives in.
CLIENT_TARGETS = (
    ("ces.keygen", "shrq.ces:keygen"),
    ("ces.tuple_encrypt", "shrq.ces:tuple_encrypt"),
    ("ces.query_encrypt", "shrq.ces:query_encrypt"),
    ("ces.create_lookup_table", "shrq.ces:create_lookup_table"),
    ("keyfile.save_keyfile", "shrq.keyfile:save_keyfile"),
    ("keyfile.load_keyfile", "shrq.keyfile:load_keyfile"),
    ("geometry.covering_radii", "shrq.geometry:covering_radii"),
    ("protocols.run_setup", "shrq.protocols:run_setup"),
    ("protocols.insert_point", "shrq.protocols:insert_point"),
    ("protocols.update_point", "shrq.protocols:update_point"),
    ("protocols.delete_point", "shrq.protocols:delete_point"),
    ("protocols.query_sphere", "shrq.protocols:query_sphere"),
    ("protocols.query_range", "shrq.protocols:query_range"),
    ("protocols.decrypt_record", "shrq.protocols:decrypt_record"),
    ("protocols.validate", "shrq.protocols:validate"),
    # time the client spends blocked on the server's reply
    ("protocols.wait", "shrq.server:ServerConnection.request"),
)

SERVER_TARGETS = (
    ("server.handle_line", "shrq.server:ServerState.handle_line"),
    ("server.replay", "shrq.server:ServerState._replay"),
    ("server.log_append", "shrq.server:ServerState._append_log"),
    ("server.hello", "shrq.server:ServerState._do_hello"),
    ("server.put_lookup", "shrq.server:ServerState._do_put_lookup"),
    ("server.put_tuple", "shrq.server:ServerState._do_put_tuple"),
    ("server.put_store", "shrq.server:ServerState._do_put_store"),
    ("server.delete", "shrq.server:ServerState._do_delete"),
    ("server.query", "shrq.server:ServerState._do_query"),
    ("server.fsync", "os:fsync"),
    ("ces.compute", "shrq.ces:compute"),
    ("ces.lookup_contains", "shrq.ces:lookup_contains"),
)

PAIRING_TARGETS = tuple(
    (f"pairing.{fn}", f"shrq.pairing:{cls}.{fn}")
    for fn in ("pair", "pow", "decode")
    for cls in ("CurveGroup", "TransparentGroup")
)

# wrapped functions whose truthy results are counted, by counter name
COUNT_TRUE = {"ces.lookup_contains": "ces.lookup_hits"}

# message type the traced server answers itself by writing out its spans
FLUSH = "perfbench_flush"


class Tracer:
    """Collects spans and counters; one instance per process."""

    def __init__(self):
        self.spans = []  # (id, parent id, request id, name, start_ns, end_ns, self_ns)
        self.counters = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original) for uninstall

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        tracer = self
        counter = COUNT_TRUE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent, request = (stack[-1][1], stack[-1][2]) if stack else (0, span_id)
            frame = [0, span_id, request]  # child time, id, request id
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                tracer.spans.append(
                    (span_id, parent, request, name, start, end, end - start - frame[0])
                )
            if counter is not None and result:
                tracer.counters[counter] += 1
            return result

        return traced

    def install(self, targets):
        """Replace every target in place, including copies that other shrq
        modules bound with `from .x import f`."""
        for name, path in targets:
            module_name, _, attr_path = path.partition(":")
            owner = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:  # inherited, not defined on this class
                continue
            wrapped = self.wrap(name, original)
            owners = [(owner, attr)]
            if not parents:
                owners += [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name.startswith("shrq") and mod is not owner
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for obj, key in owners:
                setattr(obj, key, wrapped)
                self._patched.append((obj, key, original))

    def uninstall(self):
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched = []

    def take(self):
        """Hand over the recorded spans and counters and start afresh."""
        spans, counters = self.spans, dict(self.counters)
        self.spans, self.counters = [], collections.Counter()
        return spans, counters


def _noop():
    return None


def span_cost_ns(rounds=20000):
    """Added cost of one wrapped call, measured against a direct call."""
    wrapped = Tracer().wrap("calibrate", _noop)
    t0 = time.perf_counter_ns()
    for _ in range(rounds):
        wrapped()
    t1 = time.perf_counter_ns()
    for _ in range(rounds):
        _noop()
    t2 = time.perf_counter_ns()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / rounds)


def aggregate(spans):
    """name -> [calls, inclusive ns, self ns]."""
    out = collections.defaultdict(lambda: [0, 0, 0])
    for _id, _parent, _request, name, start, end, self_ns in spans:
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += self_ns
    return out
