"""Timing sweeps over dimension count and database size.

Absolute numbers depend entirely on the machine; what these sweeps are for
is the scaling shape: tuple encryption and query evaluation cost grow with
the number of dimensions and with the number of stored points.
"""

import random
import time

from . import ces, protocols
from .geometry import SphereQuery, make_data_component
from .pairing import TRANSPARENT
from .server import ServerState

FIELDS = ("sweep", "d", "points", "queries", "setup_s", "tuple_enc_s", "query_s")
LAMBDA_BITS = 32
LAYOUT = ces.LAYOUT_SHRQ


def _measure(d, n_points, n_queries, rng):
    config = protocols.make_config("t", d, 100, 100, layout=LAYOUT)
    sk, _ = ces.keygen(LAMBDA_BITS, d, LAYOUT, 100, 100, backend=TRANSPARENT, rng=rng)
    dataset = [
        (str(i), tuple(rng.randrange(0, 101) for _ in range(d))) for i in range(n_points)
    ]

    ces.tuple_encrypt(sk, make_data_component(dataset[0][1], LAYOUT), rng=rng)  # warm up

    tuple_enc_s = None
    for _ in range(3):  # min over repeats to shed scheduler noise
        t0 = time.perf_counter()
        for _, coords in dataset:
            ces.tuple_encrypt(sk, make_data_component(coords, LAYOUT), rng=rng)
        elapsed = time.perf_counter() - t0
        tuple_enc_s = elapsed if tuple_enc_s is None else min(tuple_enc_s, elapsed)

    server = ServerState()
    t0 = time.perf_counter()
    protocols.run_setup(config, sk, dataset, server, rng=rng)
    setup_s = time.perf_counter() - t0

    queries = [
        SphereQuery(tuple(rng.randrange(0, 101) for _ in range(d)), rng.randrange(0, 11))
        for _ in range(n_queries)
    ]
    t0 = time.perf_counter()
    for q in queries:
        protocols.query_sphere(config, sk, q, server)
    query_s = time.perf_counter() - t0
    return setup_s, tuple_enc_s, query_s


def run_bench(points=200, d_max=6, queries=10, seed=1):
    """Two sweeps: d = 1..d_max at fixed |D|, then |D| growing at d = 2."""
    rng = random.Random(seed)
    rows = []
    for d in range(1, d_max + 1):
        setup_s, enc_s, qry_s = _measure(d, points, queries, rng)
        rows.append(
            {
                "sweep": "dims",
                "d": d,
                "points": points,
                "queries": queries,
                "setup_s": setup_s,
                "tuple_enc_s": enc_s,
                "query_s": qry_s,
            }
        )
    for frac in (0.25, 0.5, 0.75, 1.0):
        n = max(1, int(points * frac))
        setup_s, enc_s, qry_s = _measure(2, n, queries, rng)
        rows.append(
            {
                "sweep": "size",
                "d": 2,
                "points": n,
                "queries": queries,
                "setup_s": setup_s,
                "tuple_enc_s": enc_s,
                "query_s": qry_s,
            }
        )
    return rows
