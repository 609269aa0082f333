"""Slot-wise component encryption with homomorphic dot-product evaluation.

A data component and a query component (fixed-length integer vectors) are
encrypted slot by slot as s^{x_i} * h^{r*Y_i}.  Pairing matching slots and
multiplying the results yields

    T = e(s,s)^{alpha * (dot(m, q) + beta)}

because the blinding factors pair to e(h,h)^{r_m * r_q * (A.B)} = 1
(A.B is a multiple of q1 and h has order q1) and the cross terms
e(s, h) vanish outright.  The server decides "dot value in [0, v]" by
hashing T against a precomputed lookup table, learning nothing else.

An encrypted tuple or query is a plain tuple of L group elements, one per
component slot (L = layout_len(layout, d)); the record id and the level it
is stored or asked at travel beside it in the wire message, not in it.

alpha and beta are long-term key material: the lookup table is built from
them once at setup, so they cannot be refreshed per query (only the
blinding scalars r_m, r_q are fresh).  Correctness needs
q2 > 2*(v + d*x_max^2): dot values live mod q2, and that margin forces
every out-of-range dot (negative residues included) to miss the table.
"""

import hashlib
import math
import secrets
from dataclasses import dataclass

from .errors import ConfigError, DataIntegrityError, ProtocolError
from .pairing import CURVE_A1, group_gen

LAYOUT_SHRQ = "shrq"  # {m_1..m_d, 1, ||m||^2}, length d+2
LAYOUT_UNIFIED = "unified"  # {m_1..m_d, 1, m_1^2..m_d^2}, length 2d+1

HASH_ID = "SHA-256"


def layout_len(layout, d):
    if layout == LAYOUT_SHRQ:
        return d + 2
    if layout == LAYOUT_UNIFIED:
        return 2 * d + 1
    raise ConfigError(f"unknown layout {layout!r}")


@dataclass(frozen=True)
class Component:
    """Integer vector derived from a point or query; slot const_slot pairs
    with the other side's constant-1 slot."""

    entries: tuple
    const_slot: int

    def __post_init__(self):
        if not 0 <= self.const_slot < len(self.entries):
            raise ConfigError("const_slot out of range")


@dataclass
class SecretKey:
    """All owner-side secrets plus the layout the components must follow."""

    group: object
    g: object
    u: object
    s: object  # g^q1, order q2: carries the message slots
    h: object  # u^q2, order q1: carries the blinding
    A: list
    B: list
    alpha: int
    beta: int
    aes_key: bytes
    layout: str
    d: int
    v: int
    x_max: int

    @property
    def L(self):
        return layout_len(self.layout, self.d)


@dataclass(frozen=True)
class LookupTable:
    digests: frozenset  # 32-byte SHA-256 values
    v: int


def margin_bound(d, v, x_max):
    """Smallest value q2 must exceed for exact table membership."""
    return 2 * (v + d * x_max * x_max)


def keygen(lambda_bits, d, layout, v, x_max, backend=CURVE_A1, rng=None, group=None):
    """Generate a secret key and the group's server-shareable descriptor.

    The B vector is solved so that A.B is a multiple of q1 mod N, which is
    what makes the blinding disappear inside compute().
    """
    rng = rng if rng is not None else secrets.SystemRandom()
    if group is None:
        group = group_gen(lambda_bits, backend, rng)
    params = group.params
    if params.q1 is None:
        raise ConfigError("keygen needs a group with its factorization")
    q1, q2, N = params.q1, params.q2, params.N
    bound = margin_bound(d, v, x_max)
    if q2 <= bound:
        raise ConfigError(
            f"correctness margin violated: need q2 > 2*(v + d*x_max^2) = {bound}, got q2 = {q2}"
        )
    if v + 1 > q2:
        raise ConfigError(f"lookup bound too large: need v + 1 <= q2, got v = {v}, q2 = {q2}")
    L = layout_len(layout, d)

    g = group.random_generator(rng)
    u = group.random_generator(rng)
    s = group.pow(g, q1)
    h = group.pow(u, q2)

    A = [rng.randrange(N) for _ in range(L)]
    while math.gcd(A[-1], N) != 1:
        A[-1] = rng.randrange(N)
    B = [rng.randrange(N) for _ in range(L - 1)]
    r_factor = rng.randrange(1, N)
    partial = sum(a * b for a, b in zip(A, B)) % N
    B.append((r_factor * q1 - partial) * pow(A[-1], -1, N) % N)

    alpha = rng.randrange(1, N)
    while alpha % q2 == 0:
        alpha = rng.randrange(1, N)
    beta = rng.randrange(N)
    aes_key = rng.randbytes(32)

    sk = SecretKey(group, g, u, s, h, A, B, alpha, beta, aes_key, layout, d, v, x_max)
    return sk, params.describe()


def _check_len(sk, comp):
    if len(comp.entries) != sk.L:
        raise ProtocolError(f"component has {len(comp.entries)} slots, key expects {sk.L}")


def tuple_encrypt(sk, comp, rng=None):
    """Encrypt a data component under a fresh blinding scalar; returns the
    tuple of L slots."""
    _check_len(sk, comp)
    rng = rng if rng is not None else secrets.SystemRandom()
    blinding = rng.randrange(1, sk.group.N)
    group = sk.group
    return tuple(
        group.mul(group.pow(sk.s, int(m_i)), group.pow(sk.h, blinding * a_i))
        for m_i, a_i in zip(comp.entries, sk.A)
    )


def query_encrypt(sk, comp, rng=None):
    """Encrypt a query component; beta shifts only the slot facing the
    data side's constant-1 slot, alpha scales every slot.  Returns the
    tuple of L slots."""
    _check_len(sk, comp)
    rng = rng if rng is not None else secrets.SystemRandom()
    blinding = rng.randrange(1, sk.group.N)
    group = sk.group
    slots = []
    for i, (q_i, b_i) in enumerate(zip(comp.entries, sk.B)):
        coeff = int(q_i) + sk.beta if i == comp.const_slot else int(q_i)
        slots.append(
            group.mul(group.pow(sk.s, coeff * sk.alpha), group.pow(sk.h, blinding * b_i))
        )
    return tuple(slots)


def prepare_query(group, slots):
    """The query's slots in the group's fixed-argument form (Group.prepare),
    made once per query and shared by every compute() over its tuples."""
    return tuple(group.prepare(q) for q in slots)


def compute(group, slots, prepared_query):
    """Pair matching slots and multiply: e(s,s)^{alpha*(dot+beta)}.

    slots is an encrypted tuple and prepared_query is prepare_query() of
    the encrypted query.  The result is prod_i pair(m_i, q_i) exactly;
    Group.pair_product shares one squaring chain and one final
    exponentiation across the slots.
    """
    if len(slots) != len(prepared_query):
        raise ProtocolError("encrypted tuple/query slot counts differ")
    return group.pair_product(prepared_query, slots)


def _digest(group, t):
    return hashlib.sha256(group.canonical_bytes(t)).digest()


def create_lookup_table(sk):
    """Hash e(s,s)^{(i+beta)*alpha} for i in [0, sk.v]; abort on any
    collision (it would mean the canonical encoding is broken)."""
    v, group = sk.v, sk.group
    base = group.pair(sk.s, sk.s)
    digests = set()
    for i in range(v + 1):
        dig = _digest(group, group.pow(base, (i + sk.beta) * sk.alpha))
        if dig in digests:
            raise DataIntegrityError("lookup table digest collision during build")
        digests.add(dig)
    return LookupTable(frozenset(digests), v)


def lookup_contains(table, group, t):
    """Membership test the server runs on each compute() output."""
    return _digest(group, t) in table.digests
