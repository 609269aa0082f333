"""Timing sweeps over dimension count and database size.

Absolute numbers depend entirely on the machine; what these sweeps are for
is the scaling shape: tuple encryption and query evaluation cost grow with
the number of dimensions and with the number of stored points.

The sweeps run on curveA1, where per-slot group and pairing work dominates
each tuple's cost; on the transparent backend a slot costs about as much
as the bookkeeping around it.  Every row shares one group, so rows differ
only in d and |D|.  The timed work is interleaved across rows, one slice
of the dataset or one query at a time, so a slow spell of the machine
lands on every row rather than on the row that happened to be running.
The clock is the process's CPU time, so time spent waiting for a CPU that
other processes hold is not counted, and the cyclic garbage collector is
off during the sweeps, as in timeit: a collection of the caller's heap
(about 0.1 s in the test suite) would otherwise land on one row's slice.
"""

import gc
import random
import time

from . import ces, protocols
from .geometry import SphereQuery, make_data_component
from .pairing import CURVE_A1, group_gen
from .server import ServerState

FIELDS = ("sweep", "d", "points", "queries", "setup_s", "tuple_enc_s", "query_s")
LAMBDA_BITS = 20  # q2 >= 2^19 clears the margin 2*(v + d*x_max^2) up to d = 26
SLICES = 20
LAYOUT = ces.LAYOUT_SHRQ


def _case(sweep, d, n_points, n_queries, group, rng):
    config = protocols.make_config("t", d, 100, 100, layout=LAYOUT)
    sk, _ = ces.keygen(LAMBDA_BITS, d, LAYOUT, 100, 100, rng=rng, group=group)
    dataset = [
        (str(i), tuple(rng.randrange(0, 101) for _ in range(d))) for i in range(n_points)
    ]
    server = ServerState()
    t0 = time.process_time()
    protocols.run_setup(config, sk, dataset, server, rng=rng)
    setup_s = time.process_time() - t0
    queries = [
        SphereQuery(tuple(rng.randrange(0, 101) for _ in range(d)), rng.randrange(0, 11))
        for _ in range(n_queries)
    ]
    row = {
        "sweep": sweep,
        "d": d,
        "points": n_points,
        "queries": n_queries,
        "setup_s": setup_s,
        "tuple_enc_s": 0.0,
        "query_s": 0.0,
    }
    return row, config, sk, dataset, server, queries


def run_bench(points=200, d_max=6, queries=10, seed=1):
    """Two sweeps: d = 1..d_max at fixed |D|, then |D| growing at d = 2."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        return _sweeps(points, d_max, queries, seed)
    finally:
        if was_on:
            gc.enable()


def _sweeps(points, d_max, queries, seed):
    rng = random.Random(seed)
    group = group_gen(LAMBDA_BITS, CURVE_A1, rng)
    shapes = [("dims", d, points) for d in range(1, d_max + 1)]
    shapes += [("size", 2, max(1, int(points * frac))) for frac in (0.25, 0.5, 0.75, 1.0)]
    cases = [_case(sweep, d, n, queries, group, rng) for sweep, d, n in shapes]

    for k in range(SLICES):
        for row, _, sk, dataset, _, _ in cases:
            t0 = time.process_time()
            for _, coords in dataset[k::SLICES]:
                ces.tuple_encrypt(sk, make_data_component(coords, LAYOUT), rng=rng)
            row["tuple_enc_s"] += time.process_time() - t0
    for k in range(queries):
        for row, config, sk, _, server, qs in cases:
            t0 = time.process_time()
            protocols.query_sphere(config, sk, qs[k], server)
            row["query_s"] += time.process_time() - t0
    return [row for row, *_ in cases]
