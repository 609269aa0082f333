"""Operator commands for the data-owner and query-user roles.

Coordinates may be negative.  A key's first upload fixes its per-column
offset in the key file: `setup` records the one that lifts the least
coordinate of each column in its CSV to 0, zeros included, and `insert`
records zeros.  Every command shifts by it, points and queries in and
records out, and by zeros while none is recorded (`"offset": null`, as
keygen writes it).  The server reads what earlier uploads sent with the
key's offset, so a recorded offset never changes: later rows that fall
below 0 under it are rejected.  A key file written before keygen wrote
null holds zeros, and they count as recorded, so its set-ups reject
negative rows rather than shift them.  Every row is checked before the key
file changes: a rejected set-up leaves it byte for byte.

keygen writes curveA1 keys only, and serve needs --state, the directory
whose log keeps every acknowledged mutation.

A restart of the server is mostly the start of its process, so `serve`
loads only the server: this module imports at its top only what the
argument parser and serve need (argparse, json, sys, errors, ces for the
layout choices, and server).  A client-only module (protocols with its
AES-GCM binding, keyfile, geometry, oracle, bench, csv, math) is imported
in the command or helper that uses it.

Exit codes: 0 success, 1 general error, 2 query rejected by the deployment
(a machine-readable JSON reason goes to stderr), 3 key file missing or
inconsistent, or a bad configuration or argument (such as a centre with
the wrong number of coordinates), 4 server unreachable, 130 stopped by
Ctrl-C (SIGINT), with no traceback.  serve prints {"listening": "host:port"}
to stdout once it has bound, so `--listen 127.0.0.1:0` reports its port.
"""

import argparse
import json
import sys

from . import ces
from .errors import (
    ConfigError,
    IngestionError,
    KeyfileError,
    QueryRejected,
    ServerUnreachable,
    ShrqError,
)
from .server import connect, serve


def _parse_coords(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise IngestionError(f"bad coordinate list {text!r}: expected comma-separated integers")


def _read_csv(path, d=None):
    """CSV with header id,x1..xd; returns (d, [(id, coords)]) with raw
    (unshifted) ints.  d defaults to the header's column count less one."""
    import csv

    rows = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or [""]
        d = len(header) - 1 if d is None else d
        if len(header) != d + 1 or header[0].strip() != "id":
            raise IngestionError(f"{path}: expected header id,x1..x{d}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != d + 1:
                raise IngestionError(f"{path} row {lineno}: expected {d + 1} cells")
            rid = row[0].strip()
            if rid in seen:
                raise IngestionError(f"{path} row {lineno}: duplicate id {rid!r}")
            seen.add(rid)
            try:
                coords = tuple(int(c.strip()) for c in row[1:])
            except ValueError:
                raise IngestionError(
                    f"{path} row {lineno} (id {rid!r}): non-integer coordinate"
                )
            rows.append((rid, coords))
    return d, rows


def _shift(coords, offsets, sign=1):
    # keeps the length of coords, so a wrong-length list reaches the check
    # of plan_sphere or validate_point instead of being cut to d
    return tuple(c + sign * o for c, o in zip(coords, offsets)) + tuple(coords[len(offsets) :])


def _emit_records(records, offsets):
    for rid, coords in records:
        print(json.dumps({"id": rid, "coords": list(_shift(coords, offsets, -1))}))


# -- subcommand bodies ---------------------------------------------------------


def cmd_keygen(args):
    from . import protocols
    from .keyfile import save_keyfile

    config = protocols.make_config(args.protocol, args.d, args.v, args.x_max,
                                   e_max=args.emax, layout=args.layout)
    sk, _ = ces.keygen(args.lambda_bits, args.d, args.layout, args.v, args.x_max)
    save_keyfile(args.out, sk, config)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_setup(args):
    from . import protocols
    from .geometry import validate_point
    from .keyfile import load_keyfile, save_keyfile

    sk, config, recorded = load_keyfile(args.key)
    _, rows = _read_csv(args.data, config.d)
    needed = [max(0, -min((c[i] for _, c in rows), default=0)) for i in range(config.d)]
    offsets = needed if recorded is None else recorded  # rows below 0 under it fail below
    after = f" after offset {offsets}" if any(offsets) else ""
    dataset = []
    for rid, coords in rows:
        label = f"{args.data} id {rid!r}{after}"
        dataset.append((rid, validate_point(_shift(coords, offsets), config.d, config.x_max, label)))
    if recorded is None:  # every row passed: only now may the key change
        save_keyfile(args.key, sk, config, offsets)
        print(f"recorded coordinate offset {offsets} in {args.key}", file=sys.stderr)
    with connect(args.server) as conn:
        sent = protocols.run_setup(config, sk, dataset, conn)
    print(f"uploaded {len(dataset)} records ({sent} messages)", file=sys.stderr)
    return 0


def cmd_serve(args):
    serve(args.listen, args.state)
    return 0


def cmd_query_sphere(args):
    from . import protocols
    from .geometry import SphereQuery
    from .keyfile import load_keyfile

    sk, config, offsets = load_keyfile(args.key)
    offsets = offsets or [0] * config.d
    center = _shift(_parse_coords(args.center), offsets)
    query = SphereQuery(center, args.radius)
    protocols.plan_sphere(config, sk, query)  # reject before connecting
    with connect(args.server) as conn:
        result = protocols.query_sphere(config, sk, query, conn)
    _emit_records(result.records, offsets)
    return 0


def _resolve_range(args, offsets):
    """The range of --col, --lo and --hi, shifted by offsets; a missing bound
    is open (-inf or inf), and the planner clamps it to the domain."""
    import math

    from .geometry import RangeQuery

    if args.lo is None and args.hi is None:
        raise ConfigError("range query needs --lo and/or --hi")
    if not 1 <= args.col <= len(offsets):
        raise ConfigError(f"--col {args.col} is not a column of this key (1..{len(offsets)})")
    lo = -math.inf if args.lo is None else args.lo
    hi = math.inf if args.hi is None else args.hi
    off = offsets[args.col - 1]
    return RangeQuery(args.col, lo + off, hi + off)


def cmd_query_range(args):
    from . import protocols
    from .keyfile import load_keyfile

    sk, config, offsets = load_keyfile(args.key)
    offsets = offsets or [0] * config.d
    rq = _resolve_range(args, offsets)
    protocols.plan_range(config, sk, rq)  # reject before connecting
    with connect(args.server) as conn:
        result = protocols.query_range(config, sk, rq, conn)
    _emit_records(result.records, offsets)
    return 0


def cmd_insert(args):
    from . import protocols
    from .geometry import validate_point
    from .keyfile import load_keyfile, save_keyfile

    sk, config, recorded = load_keyfile(args.key)
    offsets = [0] * config.d if recorded is None else recorded
    coords = _shift(_parse_coords(args.point), offsets)
    if recorded is None:  # this upload fixes the offset at zeros, once the point passes
        validate_point(coords, config.d, config.x_max, str(args.id))
        save_keyfile(args.key, sk, config, offsets)
    with connect(args.server) as conn:
        protocols.insert_point(config, sk, args.id, coords, conn)
    return 0


def cmd_delete(args):
    from . import protocols
    from .keyfile import load_keyfile

    sk, config, _ = load_keyfile(args.key)
    with connect(args.server) as conn:
        protocols.delete_point(config, sk, args.id, conn)
    return 0


def cmd_oracle_sphere(args):
    from . import oracle
    from .geometry import SphereQuery

    d, rows = _read_csv(args.data)
    center = _parse_coords(args.center)
    if len(center) != d:
        raise ConfigError(f"--center has {len(center)} coordinates, the data file has {d}")
    ids = oracle.hrq_oracle(rows, SphereQuery(center, args.radius))
    _emit_records(sorted(row for row in rows if row[0] in ids), [0] * d)
    return 0


def cmd_oracle_range(args):
    from . import oracle

    d, rows = _read_csv(args.data)
    rq = _resolve_range(args, [0] * d)
    ids = oracle.range_oracle(rows, rq)
    _emit_records(sorted(row for row in rows if row[0] in ids), [0] * d)
    return 0


def cmd_bench(args):
    import csv

    from . import bench as bench_mod

    rows = bench_mod.run_bench(points=args.points, d_max=args.d, queries=args.queries)
    writer = csv.DictWriter(sys.stdout, fieldnames=bench_mod.FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (f"{v:.6f}" if isinstance(v, float) else v) for k, v in row.items()})
    return 0


# -- argument wiring -------------------------------------------------------------


def _add_key_server(sp):
    sp.add_argument("--key", required=True)
    sp.add_argument("--server", required=True, help="host:port")


def _add_range_args(sp):
    sp.add_argument("--col", type=int, required=True, help="1-based column index")
    sp.add_argument("--lo", type=int, help="lower bound; omitted, the range is (-inf, hi]")
    sp.add_argument("--hi", type=int, help="upper bound; omitted, the range is [lo, inf)")


def build_parser():
    parser = argparse.ArgumentParser(prog="shrq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("keygen", help="generate a key file")
    sp.add_argument("--lambda", dest="lambda_bits", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--layout", choices=(ces.LAYOUT_SHRQ, ces.LAYOUT_UNIFIED), required=True)
    sp.add_argument("--v", type=int, required=True)
    sp.add_argument("--x-max", type=int, required=True)
    sp.add_argument("--protocol", choices=("t", "c", "l"), required=True)
    sp.add_argument("--emax", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_keygen)

    sp = sub.add_parser("setup", help="encrypt and upload a CSV dataset")
    sp.add_argument("--data", required=True)
    _add_key_server(sp)
    sp.set_defaults(func=cmd_setup)

    sp = sub.add_parser("serve", help="run the query server")
    sp.add_argument("--listen", default="127.0.0.1:9045")
    sp.add_argument("--state", required=True, help="state directory: the log of every acked mutation")
    sp.set_defaults(func=cmd_serve)

    qp = sub.add_parser("query", help="run an encrypted query")
    qsub = qp.add_subparsers(dest="query_kind", required=True)
    sp = qsub.add_parser("sphere")
    sp.add_argument("--center", required=True, help="comma-separated integers")
    sp.add_argument("--radius", type=int, required=True)
    _add_key_server(sp)
    sp.set_defaults(func=cmd_query_sphere)
    sp = qsub.add_parser("range", help="encrypted range query; a missing --lo or --hi is open")
    _add_range_args(sp)
    _add_key_server(sp)
    sp.set_defaults(func=cmd_query_range)

    sp = sub.add_parser("insert", help="insert one record")
    sp.add_argument("--id", required=True)
    sp.add_argument("--point", required=True, help="comma-separated integers")
    _add_key_server(sp)
    sp.set_defaults(func=cmd_insert)

    sp = sub.add_parser("delete", help="delete one record")
    sp.add_argument("--id", required=True)
    _add_key_server(sp)
    sp.set_defaults(func=cmd_delete)

    op = sub.add_parser("oracle", help="plaintext reference answers")
    osub = op.add_subparsers(dest="oracle_kind", required=True)
    sp = osub.add_parser("sphere")
    sp.add_argument("--data", required=True)
    sp.add_argument("--center", required=True)
    sp.add_argument("--radius", type=int, required=True)
    sp.set_defaults(func=cmd_oracle_sphere)
    sp = osub.add_parser("range", help="plaintext range answer; a missing --lo or --hi is open")
    sp.add_argument("--data", required=True)
    _add_range_args(sp)
    sp.set_defaults(func=cmd_oracle_range)

    sp = sub.add_parser("bench", help="emit CSV timing sweeps")
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--d", type=int, default=6)
    sp.add_argument("--queries", type=int, default=10)
    sp.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QueryRejected as exc:
        print(json.dumps({"error": "query-rejected", "reason": str(exc)}), file=sys.stderr)
        return 2
    except (KeyfileError, ConfigError) as exc:
        print(json.dumps({"error": "key-or-config", "reason": str(exc)}), file=sys.stderr)
        return 3
    except ServerUnreachable as exc:
        print(json.dumps({"error": "server-unreachable", "reason": str(exc)}), file=sys.stderr)
        return 4
    except ShrqError as exc:
        print(json.dumps({"error": "failed", "reason": str(exc)}), file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C: serve's finally has closed the server and its state
        return 130


if __name__ == "__main__":
    sys.exit(main())
