"""Operator commands for the data-owner and query-user roles.

Exit codes: 0 success, 1 general error, 2 query rejected by the deployment
(a machine-readable JSON reason goes to stderr), 3 key file missing or
inconsistent, 4 server unreachable.
"""

import argparse
import csv
import json
import os
import sys

from . import bench as bench_mod
from . import ces, oracle, protocols
from .errors import (
    ConfigError,
    IngestionError,
    KeyfileError,
    QueryRejected,
    ServerUnreachable,
    ShrqError,
)
from .geometry import RangeQuery, SphereQuery
from .keyfile import load_keyfile, save_keyfile
from .pairing import CURVE_A1, TRANSPARENT
from .server import connect, serve


def _parse_coords(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise IngestionError(f"bad coordinate list {text!r}: expected comma-separated integers")


def _read_csv(path, d):
    """CSV with header id,x1..xd; returns [(id, coords)] with raw (unshifted) ints."""
    rows = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) != d + 1 or header[0].strip() != "id":
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
    return rows


def _shift(coords, offsets, sign=1):
    return tuple(c + sign * o for c, o in zip(coords, offsets))


def _emit_records(records, offsets):
    for rid, coords in records:
        print(json.dumps({"id": rid, "coords": list(_shift(coords, offsets, -1))}))


def _load_key(path):
    if not os.path.exists(path):
        raise KeyfileError(f"key file {path} does not exist")
    return load_keyfile(path)


# -- subcommand bodies ---------------------------------------------------------


def cmd_keygen(args):
    backend = CURVE_A1 if args.backend == "curve" else TRANSPARENT
    config = protocols.make_config(
        args.protocol, args.d, args.v, args.x_max, e_max=args.emax,
        backend=backend, layout=args.layout,
    )
    sk, _ = ces.keygen(args.lambda_bits, args.d, args.layout, args.v, args.x_max, backend)
    save_keyfile(args.out, sk, config)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_setup(args):
    sk, config, offsets = _load_key(args.key)
    rows = _read_csv(args.data, config.d)
    mins = [min((c[i] for _, c in rows), default=0) for i in range(config.d)]
    new_offsets = [max(0, -m) for m in mins]
    if any(new_offsets):
        offsets = new_offsets
        save_keyfile(args.key, sk, config, offsets)
        print(f"recorded coordinate offset {offsets} in {args.key}", file=sys.stderr)
    dataset = []
    for lineno, (rid, coords) in enumerate(rows, start=2):
        shifted = _shift(coords, offsets)
        if any(not 0 <= c <= config.x_max for c in shifted):
            raise IngestionError(
                f"{args.data} row {lineno} (id {rid!r}): coordinate outside [0, {config.x_max}]"
                + (f" after offset {offsets}" if any(offsets) else "")
            )
        dataset.append((rid, shifted))
    with connect(args.server) as conn:
        sent = protocols.run_setup(config, sk, dataset, conn)
    print(f"uploaded {len(dataset)} records ({sent} messages)", file=sys.stderr)
    return 0


def cmd_serve(args):
    state_dir = args.state or os.environ.get("SHRQ_STATE_DIR")
    serve(args.listen, state_dir)
    return 0


def cmd_query_sphere(args):
    sk, config, offsets = _load_key(args.key)
    center = _shift(_parse_coords(args.center), offsets)
    query = SphereQuery(center, args.radius)
    protocols.plan_sphere(config, sk, query)  # reject before connecting
    with connect(args.server) as conn:
        result = protocols.query_sphere(config, sk, query, conn)
    _emit_records(result.records, offsets)
    return 0


def _resolve_range(args, offsets):
    if args.lo is None and args.hi is None:
        raise ConfigError("range query needs --lo and/or --hi")
    lo, hi = args.lo, args.hi
    if lo is None:
        if args.col_min is None:
            raise ConfigError("open range (-inf, hi] needs --col-min")
        lo = args.col_min
    if hi is None:
        if args.col_max is None:
            raise ConfigError("open range [lo, inf) needs --col-max")
        hi = args.col_max
    off = offsets[args.col - 1]
    return RangeQuery(args.col, lo + off, hi + off)


def cmd_query_range(args):
    sk, config, offsets = _load_key(args.key)
    rq = _resolve_range(args, offsets)
    protocols.plan_range(config, sk, rq)  # reject before connecting
    with connect(args.server) as conn:
        result = protocols.query_range(config, sk, rq, conn)
    _emit_records(result.records, offsets)
    return 0


def cmd_insert(args):
    sk, config, offsets = _load_key(args.key)
    coords = _shift(_parse_coords(args.point), offsets)
    with connect(args.server) as conn:
        protocols.insert_point(config, sk, args.id, coords, conn)
    return 0


def cmd_delete(args):
    sk, config, _ = _load_key(args.key)
    with connect(args.server) as conn:
        protocols.delete_point(config, sk, args.id, conn)
    return 0


def cmd_oracle_sphere(args):
    center = _parse_coords(args.center)
    rows = _read_csv(args.data, len(center))
    ids = oracle.hrq_oracle(rows, SphereQuery(center, args.radius))
    by_id = dict(rows)
    _emit_records(sorted((rid, by_id[rid]) for rid in ids), [0] * len(center))
    return 0


def cmd_oracle_range(args):
    with open(args.data, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    d = len(header) - 1
    rows = _read_csv(args.data, d)
    rq = _resolve_range(args, [0] * max(args.col, d))
    ids = oracle.range_oracle(rows, rq)
    by_id = dict(rows)
    _emit_records(sorted((rid, by_id[rid]) for rid in ids), [0] * d)
    return 0


def cmd_bench(args):
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
    sp.add_argument("--lo", type=int)
    sp.add_argument("--hi", type=int)
    sp.add_argument("--col-max", type=int, help="column maximum for [lo, inf)")
    sp.add_argument("--col-min", type=int, help="column minimum for (-inf, hi]")


def build_parser():
    parser = argparse.ArgumentParser(prog="shrq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("keygen", help="generate a key file")
    sp.add_argument("--lambda", dest="lambda_bits", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--layout", choices=(ces.LAYOUT_SHRQ, ces.LAYOUT_UNIFIED), required=True)
    sp.add_argument("--v", type=int, required=True)
    sp.add_argument("--x-max", type=int, required=True)
    sp.add_argument("--backend", choices=("transparent", "curve"), default="curve")
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
    sp.add_argument("--state", help="state directory (default: $SHRQ_STATE_DIR)")
    sp.set_defaults(func=cmd_serve)

    qp = sub.add_parser("query", help="run an encrypted query")
    qsub = qp.add_subparsers(dest="query_kind", required=True)
    sp = qsub.add_parser("sphere")
    sp.add_argument("--center", required=True, help="comma-separated integers")
    sp.add_argument("--radius", type=int, required=True)
    _add_key_server(sp)
    sp.set_defaults(func=cmd_query_sphere)
    sp = qsub.add_parser("range")
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
    sp = osub.add_parser("range")
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


if __name__ == "__main__":
    sys.exit(main())
