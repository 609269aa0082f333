"""Composite-order symmetric bilinear groups with two interchangeable backends.

The groups have order N = q1*q2 (q1, q2 distinct primes) and support a
pairing e: G x G -> GT with e(x^a, y^b) = e(x,y)^{a*b}.  Two facts make the
whole construction above this module work:

  * orthogonality: e(x, y) = 1 whenever x lies in the order-q1 subgroup and
    y in the order-q2 subgroup (their exponents multiply to a multiple of N);
  * pairing a q2-order element with itself lands in the q2-order subgroup
    of GT, so membership checks survive blinding by q1-order factors.

Backends:

  * "transparent" represents every element by its discrete log relative to a
    fixed generator.  It is structurally exact and INSECURE BY CONSTRUCTION
    (the discrete log is the representation); it exists as an oracle for
    tests and must be selected explicitly.
  * "curveA1" is the real construction: the supersingular curve
    y^2 = x^3 + x over F_p with p = l*N - 1 prime and p = 3 (mod 4).
    #E(F_p) = p + 1 = l*N is cyclic; G is the order-N subgroup, GT the
    order-N subgroup of F_{p^2}^* with F_{p^2} = F_p[i]/(i^2 + 1).  The
    pairing is the Tate pairing of order N composed with the distortion map
    (x, y) -> (-x, i*y): Miller's loop runs over the bits of N, vertical
    lines are dropped (they evaluate into F_p and die under the final
    exponentiation), and the final exponentiation uses
    (p^2-1)/N = (p-1)*l, i.e. f -> (conj(f) * f^{-1})^l.

Products of pairings with a fixed argument (Group.prepare, pair_product).
The server pairs every stored tuple slot m_i with the same query slot q_i,
so it wants prod_i e(m_i, q_i) for many m and one fixed q.  Three facts let
curveA1 do that with a fraction of pair()'s work:

  * symmetry: G is cyclic, so with m = g^a and q = g^b both e(m, q) and
    e(q, m) equal e(g, g)^{ab}; the Miller loop can run over q, the fixed
    argument, and evaluate its lines at the distorted image of m;
  * prepared lines: the loop's points and line slopes depend on q alone.
    prepare(q) records, per step, the affine line y = lam*x + c (one modular
    inversion gives both the slope and the next point), and evaluating it at
    (-x_m, i*y_m) is then one multiplication, (lam*x_m - c) + i*y_m
    (Costello & Stebila, "Fixed Argument Pairings", LATINCRYPT 2010);
  * one squaring chain and one final exponentiation: all the loops follow
    the bits of N, so a single accumulator f is squared once per step and
    multiplied by every slot's line, and the final exponentiation, a
    homomorphism, runs once on the product (Granger & Smart, "On computing
    products of pairings", ePrint 2006/172).

The result is the same element of GT as the product of pair() calls, so its
canonical bytes are identical.  Identity slots contribute 1.  pair() keeps
its own loop over its first argument and is the reference that the tests
hold the prepared product to.  The transparent backend's prepare() returns
the element, and its pair_product() multiplies pair() results.
"""

import secrets
from dataclasses import dataclass

from .errors import ConfigError, SetupError

TRANSPARENT = "transparent"
CURVE_A1 = "curveA1"

# 1-byte kind tags for canonical element encodings.
_TAG_G_TRANSPARENT = 0x11
_TAG_GT_TRANSPARENT = 0x12
_TAG_G_CURVE = 0x21
_TAG_GT_CURVE = 0x22

# largest cofactor l tried for p = l*N - 1, and prime pairs drawn per group_gen
_COFACTOR_CAP = 10**6
_GEN_ATTEMPTS = 32


def _is_prime(n, rounds=16):
    """Miller-Rabin primality test (deterministic witnesses + random rounds)."""
    if n < 2:
        return False
    small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for sp in small:
        if n % sp == 0:
            return n == sp
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a):
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    for a in small:
        if witness(a):
            return False
    for _ in range(rounds):
        if witness(secrets.randbelow(n - 3) + 2):
            return False
    return True


def _random_prime(bits, rng):
    """Uniform-ish random prime with exactly `bits` bits."""
    if bits < 2:
        raise ConfigError("prime size must be at least 2 bits")
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_prime(cand):
            return cand


@dataclass(frozen=True)
class GroupParams:
    """Public shape of a composite-order group instance.

    q1/q2 are present only on the owner side; a server reconstructs the
    group from (backend, N, p, l) alone and can never derive them without
    factoring N.
    """

    backend: str
    N: int
    lambda_bits: int = 0
    q1: int | None = None
    q2: int | None = None
    p: int | None = None  # curveA1 field prime
    l: int | None = None  # curveA1 cofactor, p + 1 = l * N

    def __post_init__(self):
        if self.backend not in (TRANSPARENT, CURVE_A1):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.q1 is not None:
            if self.q1 == self.q2:
                raise ConfigError("q1 and q2 must be distinct")
            if self.q1 * self.q2 != self.N:
                raise ConfigError("N != q1*q2")
            if not (_is_prime(self.q1) and _is_prime(self.q2)):
                raise ConfigError("q1, q2 must both be prime")
        if self.backend == CURVE_A1:
            if self.p is None or self.l is None:
                raise ConfigError("curveA1 requires p and l")
            if self.p % 4 != 3:
                raise ConfigError("curve prime must be 3 mod 4")
            if self.p + 1 != self.l * self.N:
                raise ConfigError("p + 1 != l*N")
            if not _is_prime(self.p):
                raise ConfigError("curve prime p is composite")

    def describe(self):
        """Server-shareable descriptor: no q1/q2."""
        desc = {"backend": self.backend, "N": str(self.N)}
        if self.backend == CURVE_A1:
            desc["p"] = str(self.p)
            desc["l"] = str(self.l)
        return desc


@dataclass(frozen=True)
class GElement:
    """Source-group element; payload is backend-specific and opaque."""

    value: object  # transparent: int exponent; curveA1: None or (x, y)


@dataclass(frozen=True)
class GTElement:
    """Target-group element; payload is backend-specific and opaque."""

    value: object  # transparent: int exponent; curveA1: (a, b) meaning a + b*i


class Group:
    """Operations over one parameter set; elements are immutable, ops pure."""

    def __init__(self, params):
        self.params = params
        self.N = params.N

    # -- subclass surface -------------------------------------------------
    def identity_g(self):
        raise NotImplementedError

    def identity_gt(self):
        raise NotImplementedError

    def random_generator(self, rng=None):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def pow(self, x, k):
        raise NotImplementedError

    def pair(self, x, y):
        raise NotImplementedError

    def canonical_bytes(self, x):
        raise NotImplementedError

    def decode(self, data):
        raise NotImplementedError

    def prepare(self, x):
        """Fixed-argument form of x for pair_product; here x itself."""
        return x

    def pair_product(self, prepared, points):
        """prod_i pair(points[i], x_i) for prepared[i] = prepare(x_i)."""
        out = self.identity_gt()
        for x, m in zip(prepared, points):
            out = self.mul(out, self.pair(m, x))
        return out

    # -- shared helpers ---------------------------------------------------
    def is_identity(self, x):
        ident = self.identity_gt() if isinstance(x, GTElement) else self.identity_g()
        return x == ident

    def has_full_order(self, x):
        """True if x has order exactly N (requires owner-side q1, q2)."""
        q1, q2 = self.params.q1, self.params.q2
        if q1 is None:
            raise ConfigError("order check requires the secret factorization")
        return not (
            self.is_identity(x)
            or self.is_identity(self.pow(x, q1))
            or self.is_identity(self.pow(x, q2))
        )

    def _rng(self, rng):
        return rng if rng is not None else secrets.SystemRandom()


class TransparentGroup(Group):
    """Exponent-arithmetic stand-in: an element IS its discrete log mod N."""

    def __init__(self, params):
        super().__init__(params)
        self._width = (params.N.bit_length() + 7) // 8

    def identity_g(self):
        return GElement(0)

    def identity_gt(self):
        return GTElement(0)

    def random_generator(self, rng=None):
        rng = self._rng(rng)
        while True:
            e = rng.randrange(1, self.N)
            x = GElement(e)
            if self.has_full_order(x):
                return x

    def mul(self, x, y):
        if type(x) is not type(y):
            raise ConfigError("cannot multiply G by GT")
        return type(x)((x.value + y.value) % self.N)

    def pow(self, x, k):
        return type(x)(x.value * (k % self.N) % self.N)

    def pair(self, x, y):
        return GTElement(x.value * y.value % self.N)

    def canonical_bytes(self, x):
        tag = _TAG_GT_TRANSPARENT if isinstance(x, GTElement) else _TAG_G_TRANSPARENT
        return bytes([tag]) + (x.value % self.N).to_bytes(self._width, "big")

    def decode(self, data):
        if len(data) != 1 + self._width:
            raise ConfigError("bad transparent element length")
        tag, e = data[0], int.from_bytes(data[1:], "big")
        if e >= self.N:
            raise ConfigError("transparent exponent out of range")
        if tag == _TAG_G_TRANSPARENT:
            return GElement(e)
        if tag == _TAG_GT_TRANSPARENT:
            return GTElement(e)
        raise ConfigError(f"bad transparent element tag {tag:#x}")


class CurveGroup(Group):
    """Supersingular-curve backend: points of order N on y^2 = x^3 + x / F_p."""

    def __init__(self, params):
        super().__init__(params)
        self.p = params.p
        self.l = params.l
        self._width = (params.p.bit_length() + 7) // 8
        # Miller loop schedule over the bits of N after the leading one: a
        # doubling step (True) per bit, then an addition step (False) per 1 bit
        self._miller_steps = tuple(
            step for bit in bin(params.N)[3:] for step in ((True,) if bit == "0" else (True, False))
        )

    # -- F_p^2 arithmetic on (a, b) = a + b*i, i^2 = -1 --------------------
    def _fp2_mul(self, u, v):
        p = self.p
        a, b = u
        c, d = v
        return ((a * c - b * d) % p, (a * d + b * c) % p)

    def _fp2_inv(self, u):
        p = self.p
        a, b = u
        norm_inv = pow(a * a + b * b, -1, p)
        return (a * norm_inv % p, -b * norm_inv % p)

    def _fp2_pow(self, u, k):
        out = (1, 0)
        base = u
        while k:
            if k & 1:
                out = self._fp2_mul(out, base)
            base = self._fp2_mul(base, base)
            k >>= 1
        return out

    # -- affine point arithmetic; None is the point at infinity ------------
    def _pt_add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        p = self.p
        x1, y1 = a
        x2, y2 = b
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + 1) * pow(2 * y1 % p, -1, p) % p
        else:
            lam = (y2 - y1) * pow((x2 - x1) % p, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return (x3, (lam * (x1 - x3) - y1) % p)

    def _pt_mul(self, a, k):
        # raw scalar multiplication: callers reduce mod N where appropriate
        # (cofactor clearing and subgroup checks must not reduce)
        if a is None or k == 0:
            return None
        if k < 0:
            a, k = (a[0], (-a[1]) % self.p), -k
        out = None
        add = a
        while k:
            if k & 1:
                out = self._pt_add(out, add)
            add = self._pt_add(add, add)
            k >>= 1
        return out

    def _on_curve(self, pt):
        x, y = pt
        return y * y % self.p == (x * x * x + x) % self.p

    # -- group interface ----------------------------------------------------
    def identity_g(self):
        return GElement(None)

    def identity_gt(self):
        return GTElement((1, 0))

    def random_generator(self, rng=None):
        rng = self._rng(rng)
        p = self.p
        while True:
            x = rng.randrange(p)
            rhs = (x * x * x + x) % p
            y = pow(rhs, (p + 1) // 4, p)  # sqrt when rhs is a QR (p = 3 mod 4)
            if y * y % p != rhs:
                continue
            if rng.getrandbits(1):
                y = (-y) % p
            pt = self._pt_mul((x, y), self.l)  # clear the cofactor
            if pt is None:
                continue
            g = GElement(pt)
            if self.params.q1 is None or self.has_full_order(g):
                return g

    def mul(self, x, y):
        if type(x) is not type(y):
            raise ConfigError("cannot multiply G by GT")
        if isinstance(x, GTElement):
            return GTElement(self._fp2_mul(x.value, y.value))
        return GElement(self._pt_add(x.value, y.value))

    def pow(self, x, k):
        k %= self.N
        if isinstance(x, GTElement):
            return GTElement(self._fp2_pow(x.value, k))
        return GElement(self._pt_mul(x.value, k) if k else None)

    def _line(self, a, b, xq, yq):
        """Line through a, b (tangent if equal) evaluated at (-xq, i*yq).

        Returns an F_p^2 value, or None for vertical lines, which the final
        exponentiation annihilates anyway.
        """
        p = self.p
        x1, y1 = a
        x2, y2 = b
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + 1) * pow(2 * y1 % p, -1, p) % p
        else:
            lam = (y2 - y1) * pow((x2 - x1) % p, -1, p) % p
        c = (y1 - lam * x1) % p
        # y - lam*x - c at x = -xq, y = yq*i
        return ((lam * xq - c) % p, yq)

    def pair(self, x, y):
        if x.value is None or y.value is None:
            return self.identity_gt()
        xq, yq = y.value
        f = (1, 0)
        v = x.value
        for bit in bin(self.N)[3:]:
            g = None if v is None else self._line(v, v, xq, yq)
            f = self._fp2_mul(f, f)
            if g is not None:
                f = self._fp2_mul(f, g)
            v = self._pt_add(v, v)
            if bit == "1":
                g = None if v is None else self._line(v, x.value, xq, yq)
                if g is not None:
                    f = self._fp2_mul(f, g)
                v = self._pt_add(v, x.value)
        return self._final_exp(f)

    def _final_exp(self, f):
        """f^((p^2-1)/N) = (conj(f) / f)^l, since (p^2-1)/N = (p-1)*l."""
        conj = (f[0], (-f[1]) % self.p)
        return GTElement(self._fp2_pow(self._fp2_mul(conj, self._fp2_inv(f)), self.l))

    def _step(self, a, b):
        """(a + b, line through a and b as (lam, c) with y = lam*x + c).

        One slope serves both the sum and the line.  The line is None when
        vertical (b = -a) or when a is the point at infinity.
        """
        if a is None:
            return b, None
        p = self.p
        x1, y1 = a
        x2, y2 = b
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None, None
            lam = (3 * x1 * x1 + 1) * pow(2 * y1 % p, -1, p) % p
        else:
            lam = (y2 - y1) * pow((x2 - x1) % p, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return (x3, (lam * (x1 - x3) - y1) % p), (lam, (y1 - lam * x1) % p)

    def prepare(self, x):
        """The Miller lines of x, one (lam, c) or None per loop step; None
        for the identity.  Costs one modular inversion per step."""
        if x.value is None:
            return None
        v = x.value
        lines = []
        for double in self._miller_steps:
            v, line = self._step(v, v if double else x.value)
            lines.append(line)
        return tuple(lines)

    def pair_product(self, prepared, points):
        """prod_i pair(points[i], x_i) for prepared[i] = prepare(x_i).

        Runs the Miller loops of all x_i together over one squaring chain,
        evaluating each line at the distorted point (-x_m, i*y_m), and
        applies one final exponentiation to the product.
        """
        p = self.p
        active = [
            (lines, pt.value)
            for lines, pt in zip(prepared, points)
            if lines is not None and pt.value is not None
        ]
        f0, f1 = 1, 0
        for k, double in enumerate(self._miller_steps):
            if double:
                f0, f1 = (f0 + f1) * (f0 - f1) % p, 2 * f0 * f1 % p
            for lines, (xm, ym) in active:
                line = lines[k]
                if line is not None:
                    # line y - lam*x - c at (-xm, i*ym) is (lam*xm - c) + i*ym;
                    # the next reduction mod p covers a as well
                    a = line[0] * xm - line[1]
                    f0, f1 = (f0 * a - f1 * ym) % p, (f0 * ym + f1 * a) % p
        return self._final_exp((f0, f1))

    def canonical_bytes(self, x):
        w = self._width
        if isinstance(x, GTElement):
            a, b = x.value
            return bytes([_TAG_GT_CURVE]) + a.to_bytes(w, "big") + b.to_bytes(w, "big")
        if x.value is None:
            return bytes([_TAG_G_CURVE, 0]) + bytes(2 * w)
        xo, yo = x.value
        return bytes([_TAG_G_CURVE, 1]) + xo.to_bytes(w, "big") + yo.to_bytes(w, "big")

    def decode(self, data):
        w = self._width
        if not data:
            raise ConfigError("empty element encoding")
        tag = data[0]
        if tag == _TAG_GT_CURVE:
            if len(data) != 1 + 2 * w:
                raise ConfigError("bad GT element length")
            a = int.from_bytes(data[1 : 1 + w], "big")
            b = int.from_bytes(data[1 + w :], "big")
            if a >= self.p or b >= self.p:
                raise ConfigError("GT coordinate out of range")
            return GTElement((a, b))
        if tag == _TAG_G_CURVE:
            if len(data) != 2 + 2 * w:
                raise ConfigError("bad G element length")
            if data[1] == 0:
                return GElement(None)
            x = int.from_bytes(data[2 : 2 + w], "big")
            y = int.from_bytes(data[2 + w :], "big")
            pt = (x, y)
            if x >= self.p or y >= self.p or not self._on_curve(pt):
                raise ConfigError("point not on curve")
            if self._pt_mul(pt, self.N) is not None:
                raise ConfigError("point outside the order-N subgroup")
            return GElement(pt)
        raise ConfigError(f"bad curve element tag {tag:#x}")


def _find_curve(N):
    """Scan cofactors l = 1, 2, 3, ... for a prime p = l*N - 1 with p = 3 mod 4."""
    for l in range(1, _COFACTOR_CAP + 1):
        p = l * N - 1
        if p % 4 == 3 and _is_prime(p):
            return l, p
    return None


def group_from_primes(q1, q2, backend=TRANSPARENT, lambda_bits=0):
    """Build a group over explicitly chosen primes (toy/test parameter sets)."""
    N = q1 * q2
    if backend == CURVE_A1:
        found = _find_curve(N)
        if found is None:
            raise SetupError(f"no prime p = l*N - 1 with l <= {_COFACTOR_CAP} for N={N}")
        l, p = found
        return CurveGroup(GroupParams(CURVE_A1, N, lambda_bits, q1, q2, p, l))
    return TransparentGroup(GroupParams(TRANSPARENT, N, lambda_bits, q1, q2))


def group_gen(lambda_bits, backend=CURVE_A1, rng=None):
    """Generate a fresh composite-order group with lambda_bits-bit primes."""
    if lambda_bits < 3:
        raise ConfigError("lambda must be at least 3 bits")
    rng = rng if rng is not None else secrets.SystemRandom()
    for _ in range(_GEN_ATTEMPTS):
        q1 = _random_prime(lambda_bits, rng)
        q2 = _random_prime(lambda_bits, rng)
        if q1 == q2:
            continue
        try:
            return group_from_primes(q1, q2, backend, lambda_bits)
        except SetupError:
            continue  # fresh primes, new cofactor scan
    raise SetupError(f"parameter search exhausted after {_GEN_ATTEMPTS} attempts")


def group_from_descriptor(desc, lambda_bits=0, q1=None, q2=None):
    """Rebuild a group from its describe() output; keys other than the
    descriptor's are ignored.  A server passes the descriptor alone and gets
    a factorization-free group; the owner also passes q1, q2 and lambda."""
    backend = desc["backend"]
    curve = backend == CURVE_A1
    params = GroupParams(
        backend,
        int(desc["N"]),
        lambda_bits,
        q1,
        q2,
        int(desc["p"]) if curve else None,
        int(desc["l"]) if curve else None,
    )
    return CurveGroup(params) if curve else TransparentGroup(params)
