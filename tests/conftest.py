import random

import pytest

from shrq import ces
from shrq.ces import LAYOUT_SHRQ, SecretKey
from shrq.pairing import CURVE_A1, TRANSPARENT, GElement, group_from_primes


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def toy_transparent():
    return group_from_primes(5, 7, TRANSPARENT)


@pytest.fixture(scope="session")
def toy_curve():
    return group_from_primes(5, 7, CURVE_A1)


def toy_secret_key(group, alpha=1, beta=0):
    """Hand-built key over transparent N=35: g = exp 1, u = exp 3, s = g^5,
    h = u^7 (= exp 21), A = (1,1,1), B = (3,3,4) so A.B = 10 = 2*q1; sized
    for the base layout at d=1, so slot 1 is the constant slot."""
    g, u = GElement(1), GElement(3)
    s = group.pow(g, 5)
    h = group.pow(u, 7)
    return SecretKey(group, g, u, s, h, [1, 1, 1], [3, 3, 4], alpha, beta, b"\0" * 32)


@pytest.fixture(scope="session")
def sk32():
    """Shared transparent key: d=2, base layout, v=400, x_max=100."""
    sk, _ = ces.keygen(32, 2, LAYOUT_SHRQ, 400, 100, TRANSPARENT, rng=random.Random(1234))
    return sk


@pytest.fixture(scope="session")
def sk32_unified():
    sk, _ = ces.keygen(32, 2, ces.LAYOUT_UNIFIED, 400, 100, TRANSPARENT, rng=random.Random(5678))
    return sk


def random_dataset(rng, n, d=2, x_max=100):
    return [(str(i), tuple(rng.randrange(0, x_max + 1) for _ in range(d))) for i in range(n)]


class RecordingServer:
    """Passes requests to a server and records, per query message, its
    level and the ids the server matched (the answer before validation)."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = 0
        self.query_levels = []
        self.matched = set()

    def request(self, msg):
        self.requests += 1
        reply = self.inner.request(msg)
        if msg.get("type") == "query":
            self.query_levels.append(msg["level"])
            self.matched.update(m["id"] for m in reply.get("matches", ()))
        return reply

    def query(self, run, *args, **kwargs):
        """Run prot.query_sphere/query_range through this wrapper; returns
        (validated result, ids the server matched for it)."""
        self.query_levels.clear()
        self.matched.clear()
        return run(*args, self, **kwargs), set(self.matched)
