"""End-to-end benchmark of shrq on the curveA1 backend.

    python3 perfbench/run.py --workload scan|churn|layered --seed N --seconds S --trace 0|1

Run from the repository root.  Prints a report (run context and the
per-operation figures), then, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.  The
program is imported from ./src; without it the benchmark exits non-zero.
"""

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "shrq").is_dir():
    sys.exit(f"no shrq sources under {ROOT / 'src'}: run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the harness's cleanup, which kills the servers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in result["report"]:
        print(line)
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
