"""Slot-wise component encryption with homomorphic dot-product evaluation.

A data component and a query component are plain tuples of L ints; in
both layouts slot d is the constant slot, 1 on the data side and the one
query slot that beta shifts.  One routine, _encrypt, encrypts both sides
slot by slot as s^{x_i} * h^{r*Y_i}: a tuple with x = m and Y = A, a
query with x = (q + beta*[i = d]) * alpha and Y = B.  Pairing matching
slots and multiplying the results yields

    T = e(s,s)^{alpha * (dot(m, q) + beta)}

because the blinding factors pair to e(h,h)^{r_m * r_q * (A.B)} = 1
(A.B is a multiple of q1 and h has order q1) and the cross terms
e(s, h) vanish outright.  The server decides "dot value in [0, v]" by
hashing T against a precomputed lookup table, learning nothing else.  A
table digest is the first DIGEST_BYTES = 16 bytes of SHA-256 over T's
canonical bytes, a 128-bit truncated digest (NIST SP 800-107 Rev. 1,
section 5.1).  Answers stay exact: a T whose dot value is in [0, v] always
finds its prefix, and any other T matches a stray prefix with probability
about (v+1)/2^128 per tuple, which costs one AES-GCM decrypt that client
validation then drops.

Every slot is one power of the key's w = s*h: s = g^q1 has order q2 and
h = u^q2 has order q1, so s^x * h^y = w^k for the k that is x mod q2 and
y mod q1 (CRT).  keygen and load_keyfile make no other keys.  _encrypt
takes w^k with Group.fixed_pow, so the key's group keeps one window table,
on w, built on the key's first encryption and never stored: the key file,
the wire and the log hold the same bytes as with plain pow.

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

from .errors import ConfigError, DataIntegrityError, ProtocolError
from .pairing import CURVE_A1, Record, group_gen

LAYOUT_SHRQ = "shrq"  # {m_1..m_d, 1, ||m||^2}, length d+2
LAYOUT_UNIFIED = "unified"  # {m_1..m_d, 1, m_1^2..m_d^2}, length 2d+1

HASH_ID = "SHA-256"
# a lookup digest is this many leading bytes of the SHA-256 digest
DIGEST_BYTES = 16


def layout_len(layout, d):
    if layout == LAYOUT_SHRQ:
        return d + 2
    if layout == LAYOUT_UNIFIED:
        return 2 * d + 1
    raise ConfigError(f"unknown layout {layout!r}")


class SecretKey(Record):
    """The owner-side secrets only; the layout, d, v and x_max a key serves
    live on protocols.DeploymentConfig.  s = g^q1 has order q2 and carries
    the message slots; h = u^q2 has order q1 and carries the blinding.  Its
    repr names the group and the vector length, never a secret."""

    __slots__ = ("group", "g", "u", "s", "h", "A", "B", "alpha", "beta", "aes_key")

    def __repr__(self):
        return f"SecretKey({self.group.params.backend} group, {len(self.A)} slots)"


class LookupTable(Record):
    """digests, the frozenset of DIGEST_BYTES-byte SHA-256 prefixes, one per
    dot value in [0, v]."""

    __slots__ = ("digests", "v")


def margin_bound(d, v, x_max):
    """Smallest value q2 must exceed for exact table membership."""
    return 2 * (v + d * x_max * x_max)


def keygen(lambda_bits, d, layout, v, x_max, backend=CURVE_A1, rng=None, group=None):
    """Generate a secret key and the group's server-shareable descriptor.

    d and layout size the vectors A and B (layout_len slots each); v and
    x_max only check the q2 margin.  None of the four is kept in the key.
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

    return SecretKey(group, g, u, s, h, A, B, alpha, beta, aes_key), params.describe()


def _encrypt(sk, exponents, vector, rng):
    """s^{e_i} * h^{r*y_i} per slot under one fresh blinding scalar r, as
    w^k with k = r*y_i + q1*((e_i - r*y_i)/q1 mod q2); the tuple of L slots."""
    if len(exponents) != len(vector):
        raise ProtocolError(f"component has {len(exponents)} slots, key expects {len(vector)}")
    rng = rng if rng is not None else secrets.SystemRandom()
    group = sk.group
    q1, q2 = group.params.q1, group.params.q2
    blinding = rng.randrange(1, group.N)
    w, q1_inv = group.mul(sk.s, sk.h), pow(q1, -1, q2)
    return tuple(
        group.fixed_pow(w, r_y + q1 * ((int(e_i) - r_y) * q1_inv % q2))
        for e_i, r_y in zip(exponents, (blinding * y_i for y_i in vector))
    )


def tuple_encrypt(sk, comp, rng=None):
    """Encrypt a data component under A; returns the tuple of L slots."""
    return _encrypt(sk, comp, sk.A, rng)


def query_encrypt(sk, comp, d, rng=None):
    """Encrypt a query component under B; beta shifts only slot d, which
    faces the data side's constant 1, and alpha scales every slot.  Returns
    the tuple of L slots."""
    exponents = [(int(q_i) + (sk.beta if i == d else 0)) * sk.alpha for i, q_i in enumerate(comp)]
    return _encrypt(sk, exponents, sk.B, rng)


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


def digest(group, t):
    """The lookup digest of a GT element t (see the module docstring)."""
    return hashlib.sha256(group.canonical_bytes(t)).digest()[:DIGEST_BYTES]


def scan(group, prepared_query, tuples):
    """digest(compute()) of each encrypted tuple, in order: a server's scan."""
    return [digest(group, compute(group, t, prepared_query)) for t in tuples]


def create_lookup_table(sk, v):
    """Hash e(s,s)^{(i+beta)*alpha} for i in [0, v]; abort on any
    collision (it would mean the canonical encoding is broken).  Each entry
    is the previous one times step = e(s,s)^alpha, one GT multiplication."""
    group = sk.group
    step = group.pow(group.pair(sk.s, sk.s), sk.alpha)
    entry = group.pow(step, sk.beta)
    digests = set()
    for _ in range(v + 1):
        dig = digest(group, entry)
        if dig in digests:
            raise DataIntegrityError("lookup table digest collision during build")
        digests.add(dig)
        entry = group.mul(entry, step)
    return LookupTable(frozenset(digests), v)


def lookup_contains(table, dig):
    """Membership test the server runs on each scan() digest."""
    return dig in table.digests
