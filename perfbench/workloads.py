"""The benchmark's workloads and their seeded input generators.

Each workload is a deployment (protocol, layout, sizes) plus a fixed cycle
of operation kinds.  The seed fixes the key's secrets, the initial dataset
and every operation's arguments; the group and the kind sequence are the
same for every seed, so each run has the same crypto cost per operation and
the same mix, and a median never sits on the edge between two cost classes
by chance.  Why each workload exists is in README.md.
"""

import random
from dataclasses import dataclass

from shrq import ces, protocols
from shrq.geometry import RangeQuery, SphereQuery
from shrq.pairing import CURVE_A1, group_gen

# (kind, argument): sphere and range take (lowest, highest) radius or width
INSERT = ("insert", None)
UPDATE = ("update", None)
DELETE = ("delete", None)


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    layout: str
    e_max: int
    points: int
    cycle: tuple
    kill_cycle: int  # cycles run before the server is killed and restarted
    d: int = 2
    v: int = 400
    x_max: int = 100
    lambda_bits: int = 64
    backend: str = CURVE_A1

    def config(self):
        return protocols.make_config(
            self.protocol, self.d, self.v, self.x_max, e_max=self.e_max,
            backend=self.backend, layout=self.layout,
        )

    def keygen(self, seed):
        """Seeded key over a group that is the same for every seed, as one
        deployment keeps one curve: the cost of pair, pow and decode depends
        on the bits of N and p, and would otherwise change with the seed."""
        group = group_gen(self.lambda_bits, self.backend, rng=random.Random(f"group:{self.lambda_bits}"))
        rng = random.Random(f"{seed}:key")
        return ces.keygen(
            self.lambda_bits, self.d, self.layout, self.v, self.x_max, rng=rng, group=group
        )[0]

    def dataset(self, seed):
        rng = random.Random(f"{seed}:data")
        return [(f"p{i}", self._point(rng)) for i in range(self.points)]

    def _point(self, rng):
        return tuple(rng.randrange(self.x_max + 1) for _ in range(self.d))

    def operations(self, seed, live):
        """Endless (kind, payload) stream; `live` is the caller's id -> coords
        mirror, read to pick existing ids for updates and deletes."""
        rng = random.Random(f"{seed}:ops")
        fresh = self.points
        while True:
            for kind, arg in self.cycle:
                if kind == "sphere":
                    yield kind, SphereQuery(self._point(rng), rng.randint(*arg))
                elif kind == "range":
                    width = rng.randint(*arg)
                    lo = rng.randrange(self.x_max - width + 1)
                    yield kind, RangeQuery(rng.randint(1, self.d), lo, lo + width)
                elif kind == "insert":
                    yield kind, (f"p{fresh}", self._point(rng))
                    fresh += 1
                elif kind == "update":
                    yield kind, (rng.choice(sorted(live)), self._point(rng))
                else:
                    yield kind, rng.choice(sorted(live))

    def durability_query(self, seed, live):
        """The first query after the SIGKILL restart: as wide as the protocol
        allows, so it reads back as many acknowledged writes as it can."""
        if self.protocol == protocols.PROTOCOL_TABLE:  # radius is capped at sqrt(v)
            rng = random.Random(f"{seed}:durability")
            return SphereQuery(live[rng.choice(sorted(live))], int(self.v**0.5))
        half = self.x_max // 2
        return SphereQuery((half,) * self.d, int((self.d * half * half) ** 0.5) + 1)


WORKLOADS = {
    w.name: w
    for w in (
        # server pairing scan: one level, n x L pairings per query, no writes
        Workload(
            "scan", protocols.PROTOCOL_TABLE, ces.LAYOUT_SHRQ, e_max=0, points=40,
            cycle=(("sphere", (0, 20)),), kill_cycle=0,
        ),
        # writes over a small table: encryption, decode checks, fsync'd log;
        # inserts and deletes balance, so the table stays at 8 to 9 points
        Workload(
            "churn", protocols.PROTOCOL_COARSE, ces.LAYOUT_UNIFIED, e_max=3, points=8,
            cycle=(INSERT, UPDATE, DELETE, INSERT, UPDATE, ("range", (0, 20)),
                   DELETE, INSERT, UPDATE, DELETE),
            kill_cycle=2,
        ),
        # planner-driven layer counts and false positives: per cycle one
        # 1-layer, two 2-layer and one 3-layer query
        Workload(
            "layered", protocols.PROTOCOL_LAYERED, ces.LAYOUT_UNIFIED, e_max=2, points=20,
            cycle=(("sphere", (0, 20)), ("sphere", (21, 95)), ("sphere", (96, 140)),
                   ("range", (42, 100))),
            kill_cycle=0,
        ),
    )
}
