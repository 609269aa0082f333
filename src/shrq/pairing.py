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
    (the discrete log is the representation): it serves the tests,
    perfbench's smoke run and old state, must be selected explicitly
    (group_from_primes has no default) and never comes from `shrq keygen`.
  * "curveA1" is the real construction: the supersingular curve
    y^2 = x^3 + x over F_p with p = l*N - 1 prime and p = 3 (mod 4).
    #E(F_p) = p + 1 = l*N is cyclic; G is the order-N subgroup, GT the
    order-N subgroup of F_{p^2}^* with F_{p^2} = F_p[i]/(i^2 + 1).  The
    pairing is the Tate pairing of order N composed with the distortion map
    (x, y) -> (-x, i*y): Miller's loop runs over the bits of N, vertical
    lines are dropped (they evaluate into F_p and die under the final
    exponentiation), and the final exponentiation uses
    (p^2-1)/N = (p-1)*l, i.e. f -> (conj(f) * f^{-1})^l.

Products of pairings with a fixed argument (Group.prepare, pair_products).
The server pairs every stored tuple slot m_i with the same query slot q_i,
so it wants prod_i e(m_i, q_i) for many m and one fixed q.  Three facts let
curveA1 do that with a fraction of the work of separate pairings:

  * symmetry: G is cyclic, so with m = g^a and q = g^b both e(m, q) and
    e(q, m) equal e(g, g)^{ab}; the Miller loop can run over q, the fixed
    argument, and evaluate its lines at the distorted image of m;
  * prepared lines: the loop's points and line slopes depend on q alone.
    prepare(q) walks the points with pow's Jacobian steps, each of which
    gives its slope as lam = n/Z3 over the Z3 it reaches, and one inversion
    of all the walk's Z (Montgomery's trick, Math. Comp. 48, 1987) builds
    each step's affine line y = lam*x + c with c = y0 - lam*x0 from the
    point (x0, y0) it stepped from; evaluating it at (-x_m, i*y_m) is then
    one multiplication, (lam*x_m - c) + i*y_m (Costello & Stebila, "Fixed
    Argument Pairings", LATINCRYPT 2010);
  * one squaring chain and one final exponentiation: all the loops follow
    the bits of N, so a single accumulator f is squared once per step and
    multiplied by every slot's line, and the final exponentiation, a
    homomorphism, runs once on the product (Granger & Smart, "On computing
    products of pairings", ePrint 2006/172).

The result is the same element of GT as the product of separate pairings,
so its canonical bytes are identical.  Identity slots contribute 1.
pair_products takes a query's prepared slots and many tuples of points,
and pair_product is its one-tuple case.  The curve's pair(x, y) is the
one-slot product, so the package has one Miller loop; reference_pair in
tests/reference.py is the independent loop the tests hold it to.  The
transparent backend's prepare() returns the exponent, so a prepared slot is
plain data (an int, bytes or None) on both backends, and its pair_product() is
one sum of exponent products mod N.

Kernel.  A query's curve work runs in C when it can: decode's order check,
prepare and pair_products.  _kernel.c does Montgomery arithmetic over
64-bit limbs (CIOS; Montgomery, Math. Comp. 44, 1985) and, over it, the
walk of the Miller steps by _jac_double's and _jac_madd's formulas and
branches, prepare's lines from that walk with every Z inverted at once, and
per tuple the squaring chain with each prepared line evaluated at
(-x_m, i*y_m) followed by the final exponentiation, computed as
(conj(f)^2 / N(f))^l with N(f) = f0^2 + f1^2 in F_p, so that one inversion
serves all the norms of a call.  It writes each GT element's normal form
(a, b), so digests and canonical bytes are those of the Python path.  A
prepared curve slot is one byte string in one format on both paths: per
Miller step lam and c as the kernel's limbs, (0, 0) for a step without a
line, then one flag byte per step, 1 where the step has a line.  prepare
returns the kernel's bytes, or the same bytes from its Python walk, and
pair_products checks a slot's length before either path reads it.  f = 0
(only an even N allows it, by a line through (0, 0)) has no final
exponentiation: the kernel finds a zero norm before it inverts any, the
Python path finds f = 0 itself, and both raise the same ValueError for the
whole call.  C is given only ints below p that parse has range-checked or
that prepare has reduced, and prepared slots of the checked length,
packed by Python into byte strings whose sizes follow from the limb count,
the step count, L and the number of tuples; it parses no bytes from a
peer, and each call writes to its own buffers.  When there are two tuples
or more and os.sched_getaffinity allows more than one CPU, Kernel.miller
makes two calls at once: one helper thread takes the tuples from n // 2 on,
with their final exponentiations, while the calling thread takes the rest,
as a foreign call releases the GIL, and the helper's exception, if any, is
raised in the caller once both are done.  The pure-Python loops run on one
thread.  _kernel.py builds and loads the library on a process's first
decode, prepare or pairing, which is when this module imports it, so a
parse-only path (a server's replay) loads neither.  The system cc, with
_kernel._CFLAGS (-O3 -shared -fPIC), builds it into the __pycache__
directory beside this module, under a name that carries the SHA-256 of
those flags and the source, and sys.implementation.cache_tag, so changed
flags build a new library; it is written to a temporary file of the
building process and renamed into place, so another process never loads a
partial one.  As with bytecode, the library is trusted as far as the .py
next to it.  Each process tries once: with no compiler, a failed build, a
directory it cannot write, a big-endian host or a p wider than the
kernel's limbs, the pure-Python loops serve instead, with the same results
byte for byte.

Points and powers.  G has one set of point formulas: the Jacobian doubling
and mixed addition of an affine point, which invert nothing (Cohen, Miyaji
& Ono, ASIACRYPT 1998).  _power is the one left-to-right square-and-multiply,
over _fp2_mul in GT and over those two steps in G.  The base that recurs, a
key's w = s*h (ces makes every encrypted slot a power of it), takes
fixed_pow instead (Brickell, Gordon, McCurley & Wilson, EUROCRYPT 1992; Lim
& Lee, CRYPTO 1994).  Its window table holds the affine [d*16^j]x for
d = 0..15 and j = 0..ceil(log2 N / 4) - 1, so a power of x is one mixed
addition per nonzero 4-bit window of k mod N.  The table is built on x's
first fixed_pow and kept on the group, keyed by the point x, so it cannot
go stale and is never part of a key, a message or the log.  _inverses
inverts many Z by one inversion (Montgomery's trick): prepare's Python walk
takes one, a table two (its row bases [16^j]x, then its entries: a mixed addition
needs its second point affine).  mul, _pt_mul and fixed_pow invert once, to
go back to affine, and decode's order check tests Z = 0 on [N]P; _fp2_inv
inverts once per final exponentiation.  prepare's walk runs the same steps
over the bits of N, so it ends at [N]x too: its last Z is 0 exactly when x
is in G, and prepare raises decode's ConfigError when it is not.  A walk
may meet infinity partway, as the order-2 point (0, 0) does at its first
doubling; it still ends at [N]x, because a doubling keeps Z = 0 and a mixed
addition from infinity gives the added point.  The identity has no walk
and is in G.  So the walk is the order check of a query slot, and a
server parses those slots (parse) and does not decode them.

Encodings.  canonical_bytes gives every element of G and GT one byte string;
decode is its inverse on G alone: parse (tag, flag, length, coordinate
range, curve equation), then the order check.  GT elements are only hashed
(the lookup table's digests, the server's membership test), never decoded:
what a server or a key file reads back is always a G element.
"""

import secrets

from .errors import ConfigError, SetupError

TRANSPARENT = "transparent"
CURVE_A1 = "curveA1"

# 1-byte kind tags for canonical element encodings.
_TAG_G_TRANSPARENT = 0x11
_TAG_GT_TRANSPARENT = 0x12
_TAG_G_CURVE = 0x21
_TAG_GT_CURVE = 0x22

# fixed_pow reads k in windows of 4 bits, one table row of 16 points each
_WINDOW = 4
_DIGITS = 1 << _WINDOW

# what decode and prepare raise for a curve point whose [N]P is not infinity
_OUTSIDE_G = "point outside the order-N subgroup"
# the ValueError of pair_products when a tuple's Miller product has no inverse
_F_IS_0 = "a Miller product is 0: a line vanishes at a tuple point"

# largest cofactor l tried for p = l*N - 1, and prime pairs drawn per group_gen
_COFACTOR_CAP = 10**6
_GEN_ATTEMPTS = 32
_MR_ROUNDS = 16  # random Miller-Rabin witnesses per _is_prime, after its fixed ones


def _power(double, add, one, base, k):
    """base^k for k >= 0, left to right from k's top bit: double(out) squares
    the accumulator and add(out, base) multiplies in base; one is base^0."""
    out = one
    for bit in bin(k)[2:]:
        out = double(out)
        if bit == "1":
            out = add(out, base)
    return out


def _is_prime(n):
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
    for _ in range(_MR_ROUNDS):
        if witness(secrets.randbelow(n - 3) + 2):
            return False
    return True


def _random_prime(bits, rng):
    """Uniform-ish random prime with exactly `bits` bits."""
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_prime(cand):
            return cand


class Record:
    """An immutable record over its class's __slots__, built from the fields
    in slot order.  Records of one type with equal fields are equal and hash
    alike; a record never equals one of another type, and assigning to or
    deleting a field raises AttributeError."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class GroupParams(Record):
    """Public shape of a composite-order group instance.

    q1/q2 are present only on the owner side; a server reconstructs the
    group from (backend, N, p, l) alone and can never derive them without
    factoring N.  p is the curveA1 field prime and l its cofactor,
    p + 1 = l * N.
    """

    __slots__ = ("backend", "N", "q1", "q2", "p", "l")

    def __init__(self, backend, N, q1=None, q2=None, p=None, l=None):
        super().__init__(backend, N, q1, q2, p, l)
        if backend not in (TRANSPARENT, CURVE_A1):
            raise ConfigError(f"unknown backend {backend!r}")
        if q1 is not None:
            if q1 == q2:
                raise ConfigError("q1 and q2 must be distinct")
            if q1 * q2 != N:
                raise ConfigError("N != q1*q2")
            if not (_is_prime(q1) and _is_prime(q2)):
                raise ConfigError("q1, q2 must both be prime")
        if backend == CURVE_A1:
            if p is None or l is None:
                raise ConfigError("curveA1 requires p and l")
            if p % 4 != 3:
                raise ConfigError("curve prime must be 3 mod 4")
            if p + 1 != l * N:
                raise ConfigError("p + 1 != l*N")
            if not _is_prime(p):
                raise ConfigError("curve prime p is composite")

    def describe(self):
        """Server-shareable descriptor: no q1/q2."""
        desc = {"backend": self.backend, "N": str(self.N)}
        if self.backend == CURVE_A1:
            desc["p"] = str(self.p)
            desc["l"] = str(self.l)
        return desc


class GElement(Record):
    """Source-group element; payload is backend-specific and opaque."""

    __slots__ = ("value",)  # transparent: int exponent; curveA1: None or (x, y)


class GTElement(Record):
    """Target-group element; payload is backend-specific and opaque."""

    __slots__ = ("value",)  # transparent: int exponent; curveA1: (a, b) meaning a + b*i


class Group:
    """Operations over one parameter set; elements are immutable, ops pure.

    Each backend defines identity_g, identity_gt, mul, pow, fixed_pow (pow
    of a recurring G base, with the same result), pair, prepare,
    pair_product, pair_products, canonical_bytes, parse, decode and _draw,
    random_generator's candidate.  decode(data) is the G element whose
    canonical bytes are data; any other byte string, a GT encoding among
    them, raises ConfigError.  parse(data) is decode less its order check,
    so it also returns a curve point outside G, which prepare then rejects.
    Groups of one class and params are equal, whatever tables they hold."""

    def __init__(self, params):
        self.params = params
        self.N = params.N

    def __eq__(self, other):
        return type(other) is type(self) and other.params == self.params

    def __hash__(self):
        return hash((type(self), self.params))

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

    def random_generator(self, rng=None):
        """A G element of order exactly N: the first _draw(rng) that
        has_full_order accepts (owner side only)."""
        rng = rng if rng is not None else secrets.SystemRandom()
        while True:
            x = self._draw(rng)
            if self.has_full_order(x):
                return x


class TransparentGroup(Group):
    """Exponent-arithmetic stand-in: an element IS its discrete log mod N."""

    def __init__(self, params):
        super().__init__(params)
        self._width = (params.N.bit_length() + 7) // 8

    def identity_g(self):
        return GElement(0)

    def identity_gt(self):
        return GTElement(0)

    def _draw(self, rng):
        return GElement(rng.randrange(1, self.N))

    def mul(self, x, y):
        if type(x) is not type(y):
            raise ConfigError("cannot multiply G by GT")
        return type(x)((x.value + y.value) % self.N)

    def pow(self, x, k):
        return type(x)(x.value * (k % self.N) % self.N)

    fixed_pow = pow  # a power is one multiplication: nothing to precompute

    def pair(self, x, y):
        return GTElement(x.value * y.value % self.N)

    def prepare(self, x):
        """Fixed-argument form of x for pair_product; here x's exponent."""
        return x.value

    def pair_product(self, prepared, points):
        """prod_i pair(points[i], x_i) for prepared[i] = prepare(x_i)."""
        return GTElement(sum(x * m.value for x, m in zip(prepared, points)) % self.N)

    def pair_products(self, prepared, tuples):
        """pair_product(prepared, points) for each points in tuples."""
        return [self.pair_product(prepared, points) for points in tuples]

    def canonical_bytes(self, x):
        tag = _TAG_GT_TRANSPARENT if isinstance(x, GTElement) else _TAG_G_TRANSPARENT
        return bytes([tag]) + (x.value % self.N).to_bytes(self._width, "big")

    def decode(self, data):
        if len(data) != 1 + self._width or data[0] != _TAG_G_TRANSPARENT:
            raise ConfigError("not a transparent G element encoding")
        e = int.from_bytes(data[1:], "big")
        if e >= self.N:
            raise ConfigError("transparent exponent out of range")
        return GElement(e)

    parse = decode  # every exponent below N is an element of G: no order to check


class CurveGroup(Group):
    """Supersingular-curve backend: points of order N on y^2 = x^3 + x / F_p."""

    def __init__(self, params):
        super().__init__(params)
        self.p = params.p
        self.l = params.l
        self._width = (params.p.bit_length() + 7) // 8
        self._tables = {}  # fixed_pow's window table per affine base point
        # Miller loop schedule over the bits of N after the leading one: a
        # doubling step (True) per bit, then an addition step (False) per 1 bit
        self._miller_steps = tuple(
            step for bit in bin(params.N)[3:] for step in ((True,) if bit == "0" else (True, False))
        )
        # the kernel's form of the steps, the field (p, R^2 mod p for
        # R = 2^(64 * limbs), and -p^-1 mod 2^64) and l, as little-endian
        # limbs, and the length of a prepared slot
        self._limbs = (params.p.bit_length() + 63) // 64
        self._steps = bytes(self._miller_steps)
        self._field = self._pack([params.p, pow(2, 128 * self._limbs, params.p)]) + (
            -pow(params.p, -1, 1 << 64) % (1 << 64)).to_bytes(8, "little")
        self._cofactor = self._pack([params.l])
        self._slot_bytes = len(self._steps) * (16 * self._limbs + 1)

    def _pack(self, values):
        """The kernel's limbs of ints below p, one after another."""
        w = 8 * self._limbs
        return b"".join([v.to_bytes(w, "little") for v in values])

    def _unpack(self, data):
        w = 8 * self._limbs
        return [int.from_bytes(data[i : i + w], "little") for i in range(0, len(data), w)]

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
        return _power(lambda f: self._fp2_mul(f, f), self._fp2_mul, (1, 0), u, k)

    # -- points: affine (x, y) with None the infinity, and Jacobian (X, Y, Z, n)
    # for (X/Z^2, Y/Z^3) with Z = 0 the infinity and n/Z the slope of its step
    def _pt_mul(self, a, k):
        # raw scalar multiplication for k >= 0: callers reduce mod N where
        # appropriate (cofactor clearing and subgroup checks must not reduce)
        if a is None:
            return None
        return self._affine_all([self._jac_mul(a, k)])[0]

    def _inverses(self, zs):
        """1/z mod p for every z in zs, 0 for z = 0, by one inversion of
        their product (Montgomery's trick)."""
        p = self.p
        prefix = [1]  # prefix[k]: the product of the nonzero z before zs[k]
        for z in zs:
            prefix.append(prefix[-1] * (z or 1) % p)
        inv, out = pow(prefix[-1], -1, p), [0] * len(zs)
        for k in range(len(zs) - 1, -1, -1):
            if zs[k]:
                out[k], inv = inv * prefix[k] % p, inv * zs[k] % p
        return out

    def _affine_all(self, points):
        """The affine forms of Jacobian points, by one inversion."""
        p = self.p
        zinv = self._inverses([pt[2] for pt in points])
        return [
            (x * zi * zi % p, y * zi * zi * zi % p) if zi else None
            for (x, y, _, _), zi in zip(points, zinv)
        ]

    def _window_table(self, b):
        """Row j holds [d*16^j]b for d = 0..15, affine, None for infinity: the
        row bases take 4 doublings each, the multiples 15 mixed additions of
        their row's base, and each set one inversion to be made affine."""
        bases = [b + (1, 0)]
        for _ in range((self.N.bit_length() - 1) // _WINDOW):
            pt = bases[-1]
            for _ in range(_WINDOW):
                pt = self._jac_double(pt)
            bases.append(pt)
        multiples = []
        for base in self._affine_all(bases):
            row = [(1, 1, 0, 0)]
            for _ in range(_DIGITS - 1):
                row.append(row[-1] if base is None else self._jac_madd(row[-1], base))
            multiples += row
        flat = self._affine_all(multiples)
        return [flat[j : j + _DIGITS] for j in range(0, len(flat), _DIGITS)]

    def _native(self):
        """The compiled kernel (shrq._kernel), or None for the pure-Python
        path: none was loaded, or p is wider than it takes."""
        from . import _kernel

        kernel = _kernel.current()
        return kernel if kernel is not None and self._limbs <= kernel.max_limbs else None

    def _in_g(self, b):
        """[N]b is infinity, for an affine b: the last Z of the kernel's walk,
        or of _jac_mul's."""
        kernel = self._native()
        if kernel is not None:
            return kernel.in_g(self._limbs, self._field, self._pack(b), self._steps)
        return not self._jac_mul(b, self.N)[2]

    def _jac_mul(self, a, k):
        """[k]a in Jacobian form for an affine point a and k >= 0."""
        return _power(self._jac_double, self._jac_madd, (1, 1, 0, 0), a, k)

    def _jac_double(self, a):
        """2a by the EFD's dbl-1998-cmo-2 with curve coefficient a = 1, slope
        M/Z3; Y = 0 (a point of order 2) gives Z = 0, and Z = 0 stays 0."""
        p = self.p
        x, y, z, _ = a
        xx, yy, zz = x * x % p, y * y % p, z * z % p
        s = 4 * x * yy % p
        m = (3 * xx + zz * zz) % p
        t = (m * m - 2 * s) % p
        return t, (m * (s - t) - 8 * yy * yy) % p, 2 * y * z % p, m

    def _jac_madd(self, a, b):
        """a + b for a Jacobian a and an affine b by madd-2007-bl, Z3 = 2*Z1*H
        as a product and slope r/Z3.  a = b (H = r = 0) doubles; a = -b (H = 0,
        r != 0) gives Z = 0 by the formula; a = infinity gives b."""
        x1, y1, z1, _ = a
        if not z1:
            return b + (1, 0)
        p = self.p
        z1z1 = z1 * z1 % p
        h = (b[0] * z1z1 - x1) % p
        r = 2 * (b[1] * z1 * z1z1 - y1) % p
        if not h and not r:
            return self._jac_double(a)
        i = 4 * h * h % p
        j = h * i % p
        v = x1 * i % p
        x3 = (r * r - j - 2 * v) % p
        return x3, (r * (v - x3) - 2 * y1 * j) % p, 2 * z1 * h % p, r

    def _on_curve(self, pt):
        x, y = pt
        return y * y % self.p == (x * x * x + x) % self.p

    # -- group interface ----------------------------------------------------
    def identity_g(self):
        return GElement(None)

    def identity_gt(self):
        return GTElement((1, 0))

    def _draw(self, rng):
        """A random point, its cofactor cleared; the identity if x has none."""
        p = self.p
        x = rng.randrange(p)
        rhs = (x * x * x + x) % p
        y = pow(rhs, (p + 1) // 4, p)  # sqrt when rhs is a QR (p = 3 mod 4)
        if y * y % p != rhs:
            return self.identity_g()
        if rng.getrandbits(1):
            y = (-y) % p
        return GElement(self._pt_mul((x, y), self.l))

    def mul(self, x, y):
        if type(x) is not type(y):
            raise ConfigError("cannot multiply G by GT")
        if isinstance(x, GTElement):
            return GTElement(self._fp2_mul(x.value, y.value))
        if x.value is None or y.value is None:
            return y if x.value is None else x
        return GElement(self._affine_all([self._jac_madd(x.value + (1, 0), y.value)])[0])

    def pow(self, x, k):
        k %= self.N
        if isinstance(x, GTElement):
            return GTElement(self._fp2_pow(x.value, k))
        return GElement(self._pt_mul(x.value, k))

    def fixed_pow(self, x, k):
        """pow(x, k) for a G element x, by x's window table, built on x's
        first call (two threads that race both build it, to the same value)."""
        if x.value is None:
            return x
        table = self._tables.get(x.value)
        if table is None:
            table = self._tables[x.value] = self._window_table(x.value)
        k %= self.N
        acc = (1, 1, 0, 0)
        for row in table:
            pt = row[k & (_DIGITS - 1)]
            if pt is not None:
                acc = self._jac_madd(acc, pt)
            k >>= _WINDOW
        return GElement(self._affine_all([acc])[0])

    def pair(self, x, y):
        return self.pair_product((self.prepare(y),), (x,))

    def _final_exp(self, f):
        """f^((p^2-1)/N) = (conj(f) / f)^l, since (p^2-1)/N = (p-1)*l;
        ValueError for f = 0."""
        if f == (0, 0):
            raise ValueError(_F_IS_0)
        conj = (f[0], (-f[1]) % self.p)
        return GTElement(self._fp2_pow(self._fp2_mul(conj, self._fp2_inv(f)), self.l))

    def prepare(self, x):
        """The Miller lines of x as a prepared slot, one byte string: per loop
        step, the line's lam and c, c taken at the point stepped from, as the
        kernel's limbs, or (0, 0) for a step from or to infinity (a vertical
        line), then one flag byte per step, 1 where the step has a line; None
        for the identity.  The walk ends at [N]x, so it is x's order check:
        ConfigError, as decode raises it, unless x is in G."""
        if x.value is None:
            return None
        kernel = self._native()
        if kernel is None:
            slot = self._prepare(x.value)
        else:
            slot = kernel.prepare(self._limbs, self._field, self._pack(x.value), self._steps)
        if slot is None:
            raise ConfigError(_OUTSIDE_G)
        return slot

    def _prepare(self, b):
        """prepare's slot of the affine b in Python, None unless its walk
        ends at infinity: one _inverses call makes the walk affine."""
        p, walk = self.p, [b + (1, 0)]
        for double in self._miller_steps:
            walk.append(self._jac_double(walk[-1]) if double else self._jac_madd(walk[-1], b))
        if walk[-1][2]:  # Z != 0: [N]b is not infinity
            return None
        zinv = self._inverses([pt[2] for pt in walk])
        lines, flags = [], []
        for (x0, y0, z0, _), zi, (_, _, z3, n), zi3 in zip(walk, zinv, walk[1:], zinv[1:]):
            lam = n * zi3 % p
            flags.append(bool(z0 and z3))
            lines += (lam, (y0 * zi - lam * x0) * zi * zi % p) if flags[-1] else (0, 0)
        return self._pack(lines) + bytes(flags)

    def _lines(self, slot):
        """A prepared slot's lines, (lam, c) per step or None without one."""
        count = len(self._steps)
        values = iter(self._unpack(slot[:-count]))
        return [line if on else None for line, on in zip(zip(values, values), slot[-count:])]

    def pair_product(self, prepared, points):
        """prod_i e(points[i], x_i) for prepared[i] = prepare(x_i)."""
        return self.pair_products(prepared, (points,))[0]

    def pair_products(self, prepared, tuples):
        """pair_product(prepared, points) for each points in tuples: the Miller
        loops of all x_i over one squaring chain, each line evaluated at the
        distorted point (-x_m, i*y_m), and one final exponentiation.
        ValueError if a tuple's Miller product is 0, which only an even N
        allows (a line through (0, 0), its own distorted image)."""
        if any(slot is not None and len(slot) != self._slot_bytes for slot in prepared):
            raise ConfigError("prepared lines do not follow the Miller steps")
        kernel = self._native()
        if kernel is not None:
            return self._kernel_products(kernel, prepared, tuples)
        slots = [None if slot is None else self._lines(slot) for slot in prepared]
        return [self._final_exp(self._miller(slots, points)) for points in tuples]

    def _kernel_products(self, kernel, prepared, tuples):
        """pair_products by the kernel, in one call and its helper's: the
        slots side by side, an identity slot as zeros, which have no line."""
        coords, active = [], []
        for points in tuples:
            for slot, pt in zip(prepared, points, strict=True):
                on = slot is not None and pt.value is not None
                coords += pt.value if on else (0, 0)
                active.append(on)
        blank = bytes(self._slot_bytes)
        data = kernel.miller(self._limbs, self._field, self._cofactor, self._steps, len(prepared),
                             b"".join(slot or blank for slot in prepared), len(tuples), self._pack(coords),
                             bytes(active))
        if data is None:
            raise ValueError(_F_IS_0)
        gt = iter(self._unpack(data))
        return [GTElement(value) for value in zip(gt, gt)]

    def _miller(self, slots, points):
        """pair_products' Miller product f of one tuple, in Python, over the
        _lines of each prepared slot, None for the identity."""
        p = self.p
        active = [
            (lines, pt.value)
            for lines, pt in zip(slots, points, strict=True)
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
        return f0, f1

    def canonical_bytes(self, x):
        w = self._width
        if isinstance(x, GTElement):
            a, b = x.value
            return bytes([_TAG_GT_CURVE]) + a.to_bytes(w, "big") + b.to_bytes(w, "big")
        if x.value is None:
            return bytes([_TAG_G_CURVE, 0]) + bytes(2 * w)
        xo, yo = x.value
        return bytes([_TAG_G_CURVE, 1]) + xo.to_bytes(w, "big") + yo.to_bytes(w, "big")

    def parse(self, data):
        w = self._width
        if len(data) != 2 + 2 * w or data[0] != _TAG_G_CURVE:
            raise ConfigError("not a curve G element encoding")
        x, y = int.from_bytes(data[2 : 2 + w], "big"), int.from_bytes(data[2 + w :], "big")
        if data[1] == 0 and x == y == 0:
            return GElement(None)
        if data[1] != 1:
            raise ConfigError("bad point flag, or an identity with coordinates")
        pt = (x, y)
        if x >= self.p or y >= self.p or not self._on_curve(pt):
            raise ConfigError("point not on curve")
        return GElement(pt)

    def decode(self, data):
        x = self.parse(data)
        if x.value is not None and not self._in_g(x.value):
            raise ConfigError(_OUTSIDE_G)
        return x


def _find_curve(N):
    """Scan cofactors l = 1, 2, 3, ... for a prime p = l*N - 1 with p = 3 mod 4."""
    for l in range(1, _COFACTOR_CAP + 1):
        p = l * N - 1
        if p % 4 == 3 and _is_prime(p):
            return l, p
    return None


def _group(params):
    """The backend's group class over params."""
    return CurveGroup(params) if params.backend == CURVE_A1 else TransparentGroup(params)


def group_from_primes(q1, q2, backend):
    """Build a group over explicitly chosen primes (toy/test parameter sets)."""
    N = q1 * q2
    l = p = None
    if backend == CURVE_A1:
        found = _find_curve(N)
        if found is None:
            raise SetupError(f"no prime p = l*N - 1 with l <= {_COFACTOR_CAP} for N={N}")
        l, p = found
    return _group(GroupParams(backend, N, q1, q2, p, l))


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
            return group_from_primes(q1, q2, backend)
        except SetupError:
            continue  # fresh primes, new cofactor scan
    raise SetupError(f"parameter search exhausted after {_GEN_ATTEMPTS} attempts")


def group_from_descriptor(desc, q1=None, q2=None):
    """Rebuild a group from its describe() output; keys other than the
    descriptor's are ignored.  A server passes the descriptor alone and gets
    a factorization-free group; the owner also passes q1 and q2."""
    curve = desc["backend"] == CURVE_A1
    params = GroupParams(
        desc["backend"],
        int(desc["N"]),
        q1,
        q2,
        int(desc["p"]) if curve else None,
        int(desc["l"]) if curve else None,
    )
    return _group(params)
