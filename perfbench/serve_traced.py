"""Server launcher for the traced benchmark run.

Installs the span wrappers of spans.py in this process, then calls
shrq.server.serve exactly as `shrq serve` does.  A line of type
"perfbench_flush" is answered here, before the wrapped handler sees it: the
spans recorded so far go to a JSON file in --trace-dir and the reply is an
ack.  The benchmark sends it before it kills the process, so no span is lost.

    python3 perfbench/serve_traced.py --listen 127.0.0.1:9045 --state DIR --trace-dir DIR
"""

import argparse
import json
import os

import spans
from shrq import server


def _install_flush(tracer, trace_dir, cost_ns):
    traced_handle = server.ServerState.handle_line
    dumps = 0

    def handle_line(state, line):
        nonlocal dumps
        if spans.FLUSH in line[:40]:
            taken, counters = tracer.take()
            dumps += 1
            path = os.path.join(trace_dir, f"server-{os.getpid()}-{dumps}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"spans": taken, "counters": counters, "span_cost_ns": cost_ns}, fh)
            return json.dumps({"type": "ack"})
        reply = traced_handle(state, line)
        tracer.counters["server.request_bytes"] += len(line)
        tracer.counters["server.reply_bytes"] += len(reply)
        return reply

    server.ServerState.handle_line = handle_line


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--listen", required=True)
    parser.add_argument("--state", required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args()

    tracer = spans.Tracer()
    cost_ns = spans.span_cost_ns()
    tracer.install(spans.SERVER_TARGETS + spans.PAIRING_TARGETS)
    _install_flush(tracer, args.trace_dir, cost_ns)
    server.serve(args.listen, args.state)


if __name__ == "__main__":
    main()
