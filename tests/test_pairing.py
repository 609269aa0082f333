import hashlib
import os
import random
import shutil
import sys
import threading
import time

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import shrq._kernel
import shrq.pairing
from shrq import ces
from shrq.errors import ConfigError
from shrq.pairing import (
    CURVE_A1,
    TRANSPARENT,
    GElement,
    GroupParams,
    GTElement,
    group_from_descriptor,
    group_from_primes,
    group_gen,
)
from reference import prepared_lines, reference_add, reference_lines, reference_mul, reference_pair


def test_group_gen_toy_transparent():
    grp = group_gen(3, TRANSPARENT, random.Random(0))
    assert {grp.params.q1, grp.params.q2} == {5, 7}
    assert grp.N == 35


@pytest.mark.curve
def test_group_gen_curve_toy(toy_curve):
    # independent oracle: trial-division scan over cofactors
    def trial_prime(n):
        if n < 2:
            return False
        k = 2
        while k * k <= n:
            if n % k == 0:
                return False
            k += 1
        return True

    expected = next(
        (l, 35 * l - 1) for l in range(1, 1000) if (35 * l - 1) % 4 == 3 and trial_prime(35 * l - 1)
    )
    assert (toy_curve.l, toy_curve.p) == expected == (4, 139)


def test_group_gen_random_32bit():
    grp = group_gen(32, TRANSPARENT, random.Random(9))
    q1, q2 = grp.params.q1, grp.params.q2
    assert q1 != q2
    assert sympy.isprime(q1) and sympy.isprime(q2)  # independent primality oracle
    assert grp.N == q1 * q2
    assert q1.bit_length() == q2.bit_length() == 32


def test_is_prime_refuses_a_strong_pseudoprime_to_its_fixed_bases(monkeypatch):
    # 399165290221 * 798330580441 passes all twelve fixed witnesses, so only
    # the random rounds refuse it; a first hello's p reaches _is_prime
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    monkeypatch.setattr(shrq.pairing, "_MR_ROUNDS", 0)
    assert shrq.pairing._is_prime(n)
    monkeypatch.undo()
    assert not shrq.pairing._is_prime(n)
    assert not shrq.pairing._is_prime(0) and not shrq.pairing._is_prime(1)


def test_generator_order_filter(toy_transparent):
    grp = toy_transparent
    assert grp.has_full_order(GElement(2))  # gcd(2, 35) = 1
    assert not grp.has_full_order(GElement(5))  # order 7, killed by q2
    assert not grp.has_full_order(GElement(21))  # order 5, killed by q1
    assert not grp.has_full_order(GElement(0))


@pytest.mark.curve
def test_random_generator_always_full_order(toy_transparent, toy_curve, rng):
    for grp in (toy_transparent, toy_curve):
        for _ in range(20):
            assert grp.has_full_order(grp.random_generator(rng))


@pytest.mark.curve
def test_mul_of_g_by_gt_rejected(toy_transparent, toy_curve, rng):
    for grp in (toy_transparent, toy_curve):
        g = grp.random_generator(rng)
        for x, y in ((g, grp.pair(g, g)), (grp.pair(g, g), g)):
            with pytest.raises(ConfigError):
                grp.mul(x, y)


@pytest.mark.curve
def test_curve_generator_in_subgroup(toy_curve, rng):
    pt = toy_curve.random_generator(rng)
    assert toy_curve.pow(pt, 35).value is None  # 35 * P is the point at infinity


@pytest.mark.curve
@pytest.mark.parametrize("backend", [TRANSPARENT, CURVE_A1])
def test_pow_basics(backend, rng):
    grp = group_from_primes(5, 7, backend)
    g = grp.random_generator(rng)
    assert grp.pow(g, 0) == grp.identity_g()
    assert grp.pow(g, grp.N) == grp.identity_g()
    assert grp.mul(grp.pow(g, -1), g) == grp.identity_g()
    assert grp.pow(g, -3) == grp.pow(g, grp.N - 3)


@pytest.mark.curve
def test_pow_is_repeated_mul_toy(toy_curve, rng):
    # k in -40..40 runs the one square-and-multiply loop through k = 0,
    # negative k and k past N = 35; G is held to plain affine addition and
    # GT to mul, neither of which runs that loop
    grp = toy_curve
    g = grp.random_generator(rng)
    gt = grp.pair(g, g)
    acc_g, acc_gt = grp.identity_g(), grp.identity_gt()
    for k in range(41):
        assert grp.pow(g, k) == acc_g
        assert grp.pow(gt, k) == acc_gt
        assert reference_add(grp, grp.pow(g, -k), acc_g) == grp.identity_g()
        assert grp.mul(grp.pow(gt, -k), acc_gt) == grp.identity_gt()
        acc_g, acc_gt = reference_add(grp, acc_g, g), grp.mul(acc_gt, gt)


@pytest.mark.curve
def test_pt_mul_does_not_reduce_k(toy_curve):
    # (0, 0) has order 2, outside the order-35 subgroup (the cofactor is
    # l = 4): 35 * (0, 0) = (0, 0), where 35 mod N = 0 would give infinity
    assert toy_curve._pt_mul((0, 0), toy_curve.N) == (0, 0)


# the toy curve (N = 35, l = 4) and a lambda = 32 one: every point of either
# has order dividing l*N, and the toy's small orders put the accumulator on
# +-base partway through the loop
_MUL_GROUPS = (group_from_primes(5, 7, CURVE_A1), group_gen(32, CURVE_A1, random.Random(32)))


def _draw_point(draw, grp):
    """A point of G, a curve point (mostly off G), the order-2 point (0, 0)
    or infinity."""
    p = grp.p
    kind = draw(st.sampled_from(("G", "curve", "order 2", "infinity")))
    pt = {"order 2": (0, 0), "infinity": None}.get(kind)
    if kind in ("G", "curve"):
        x = draw(st.integers(0, p - 1))
        while pow(x**3 + x, (p - 1) // 2, p) != 1:  # until x^3 + x is a nonzero square
            x = (x + 1) % p
        y = pow(x**3 + x, (p + 1) // 4, p)
        pt = (x, draw(st.sampled_from((y, p - y))))
        if kind == "G":
            pt = reference_mul(grp, GElement(pt), grp.l).value  # clear the cofactor
    return pt


@st.composite
def _mul_case(draw):
    """(group, point, k, other): a drawn point, a raw scalar of either sign,
    and a second operand for mul: the point, its negative, infinity or a
    second drawn point."""
    grp = draw(st.sampled_from(_MUL_GROUPS))
    N, q1, q2 = grp.N, grp.params.q1, grp.params.q2
    pt = _draw_point(draw, grp)
    k = draw(
        st.sampled_from((0, 1, -1, 2, 3, N, N - 1, N + 1, -N, -N + 5))
        | st.builds(lambda c, q: c * q, st.integers(-3, 3), st.sampled_from((q1, q2)))
        | st.integers(-(N**2), N**2)
    )
    negative = None if pt is None else (pt[0], -pt[1] % grp.p)
    other = draw(st.sampled_from((pt, negative, None)) | st.just("drawn"))
    return grp, pt, k, _draw_point(draw, grp) if other == "drawn" else other


@pytest.mark.curve
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_mul_case())
def test_scalar_mul_matches_reference(case):
    grp, pt, k, other = case
    x, y = GElement(pt), GElement(other)
    assert grp.mul(x, y) == reference_add(grp, x, y)
    assert grp._pt_mul(pt, abs(k)) == reference_mul(grp, x, abs(k)).value
    assert grp.pow(x, k) == reference_mul(grp, x, k % grp.N)
    in_g = reference_mul(grp, x, grp.N).value is None
    try:
        assert grp.decode(grp.canonical_bytes(x)) == x
        accepted = True
    except ConfigError:
        accepted = False
    assert accepted == in_g


# the two groups above, and an N = 22 curve, on which the order-2 point and
# the points of order 11 lie in G and meet infinity partway through their
# walk
_WALK_GROUPS = _MUL_GROUPS + (group_from_primes(2, 11, CURVE_A1),)


@st.composite
def _walk_case(draw):
    grp = draw(st.sampled_from(_WALK_GROUPS))
    return grp, _draw_point(draw, grp)


@pytest.mark.curve
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_walk_case())
def test_prepare_walk_is_the_order_check(case):
    # prepare raises decode's error exactly when [N]P is not infinity, and
    # its slot's lines are the affine reference's otherwise; parse accepts
    # every curve point and decode agrees with prepare
    grp, pt = case
    x = GElement(pt)
    raw = grp.canonical_bytes(x)
    assert grp.parse(raw) == x
    if reference_mul(grp, x, grp.N).value is None:
        assert prepared_lines(grp, grp.prepare(x)) == reference_lines(grp, x)
        assert grp.decode(raw) == x
    else:
        with pytest.raises(ConfigError, match="point outside the order-N subgroup"):
            grp.prepare(x)
        with pytest.raises(ConfigError, match="point outside the order-N subgroup"):
            grp.decode(raw)


def _fixed_pow_bases():
    """(group, bases) for fixed_pow: every element of both toy groups, so the
    identity and the orders 5 (q1), 7 (q2) and 35, whose tables hold the
    identity (at d = 5, 10, 15 for order 5); every element of an N = 22
    curve, where the row base [16]x is the identity for x of order 2; and a
    lambda = 32 curve key's identity, h (order q1), s (order q2) and g."""
    cases = []
    for q1, q2, backend in ((5, 7, TRANSPARENT), (5, 7, CURVE_A1), (2, 11, CURVE_A1)):
        grp = group_from_primes(q1, q2, backend)
        g = grp.random_generator(random.Random(35))
        cases.append((grp, [grp.pow(g, i) for i in range(grp.N)]))
    sk, _ = ces.keygen(32, 2, ces.LAYOUT_SHRQ, 400, 100, CURVE_A1, rng=random.Random(32))
    cases.append((sk.group, [sk.group.identity_g(), sk.h, sk.s, sk.g]))
    return cases


_FIXED_POW_BASES = _fixed_pow_bases()


@st.composite
def _fixed_pow_case(draw):
    grp, bases = draw(st.sampled_from(_FIXED_POW_BASES))
    N = grp.N
    k = draw(
        st.sampled_from((0, 1, -1, N - 1, N, N + 1, -N))
        | st.builds(lambda c: c * N, st.integers(-3, 3))
        | st.integers(-N, -1)
        | st.integers(0, N - 1)
        | st.integers(-(N**2), N**2)
    )
    return grp, draw(st.sampled_from(bases)), k


@pytest.mark.curve
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_fixed_pow_case())
# -39 = 31 mod 35 takes digit 15 of an order-5 point: the identity entry
@example((_FIXED_POW_BASES[1][0], _FIXED_POW_BASES[1][1][7], -39))
def test_fixed_pow_is_pow(case):
    grp, x, k = case
    assert grp.canonical_bytes(grp.fixed_pow(x, k)) == grp.canonical_bytes(grp.pow(x, k))


def test_pow_transparent_trace(toy_transparent):
    assert toy_transparent.pow(GElement(1), 5) == GElement(5)


@pytest.mark.curve
@pytest.mark.parametrize("backend", [TRANSPARENT, CURVE_A1])
def test_pair_bilinear_identity(backend, rng):
    grp = group_from_primes(5, 7, backend)
    g = grp.random_generator(rng)
    assert grp.pair(grp.pow(g, 2), grp.pow(g, 3)) == grp.pow(grp.pair(g, g), 6)


@pytest.mark.curve
@pytest.mark.parametrize("backend", [TRANSPARENT, CURVE_A1])
def test_pair_laws_fuzz(backend, rng):
    grp = group_from_primes(251, 241, backend)
    g = grp.random_generator(rng)
    egg = grp.pair(g, g)
    assert egg != grp.identity_gt()  # non-degeneracy
    assert grp.pow(egg, grp.N) == grp.identity_gt()  # order divides N
    for _ in range(25):
        x = grp.random_generator(rng)
        y = grp.random_generator(rng)
        a, b = rng.randrange(grp.N), rng.randrange(grp.N)
        assert grp.pair(grp.pow(x, a), grp.pow(y, b)) == grp.pow(grp.pair(x, y), a * b)
    q1, q2 = grp.params.q1, grp.params.q2
    for _ in range(10):
        x = grp.pow(g, q1 * rng.randrange(1, grp.N))
        y = grp.pow(g, q2 * rng.randrange(1, grp.N))
        assert grp.pair(x, y) == grp.identity_gt()  # subgroup orthogonality


@pytest.mark.curve
@pytest.mark.parametrize("backend", [TRANSPARENT, CURVE_A1])
def test_prepared_pairing_matches_pair_toy(backend, rng):
    # every ordered pair of the 35 elements, the identity included; on the
    # curve the prepared Miller loop runs over the other argument than the
    # reference loop, and mul's Jacobian addition is checked against plain
    # affine addition (P + P, P + (-P) and the identity among the pairs)
    grp = group_from_primes(5, 7, backend)
    g = grp.random_generator(rng)
    elems = [grp.pow(g, k) for k in range(35)]
    for b in elems:
        prepared = grp.prepare(b)
        for a in elems:
            assert grp.pair_product([prepared], [a]) == reference_pair(grp, a, b)
            assert grp.mul(a, b) == reference_add(grp, a, b)


def test_pair_orthogonality_toy(toy_transparent):
    t = toy_transparent.pair(GElement(5), GElement(7))
    assert toy_transparent.is_identity(t)


def test_pair_exponent_trace_toy(toy_transparent):
    # u = exp 3, h = u^q2 = exp 21; pair(h,h) = exp(21*21 mod 35) = exp 21
    grp = toy_transparent
    h = grp.pow(GElement(3), 7)
    assert h == GElement(21)
    hh = grp.pair(h, h)
    assert hh == GTElement(21)
    assert grp.pow(hh, 10) == grp.identity_gt()  # 10 is a multiple of q1


@pytest.mark.curve
@pytest.mark.parametrize("backend", [TRANSPARENT, CURVE_A1])
def test_pair_identity_inputs(backend, rng):
    grp = group_from_primes(5, 7, backend)
    g = grp.random_generator(rng)
    assert grp.pair(grp.identity_g(), g) == grp.identity_gt()
    assert grp.pair(g, grp.identity_g()) == grp.identity_gt()


def test_canonical_bytes_toy(toy_transparent):
    assert toy_transparent.canonical_bytes(GElement(21)) == bytes([0x11, 0x15])


def test_canonical_equality_fuzz_transparent(toy_transparent, rng):
    grp = group_from_primes(65003, 65011, TRANSPARENT)
    for _ in range(10**4):
        a = GElement(rng.randrange(grp.N))
        b = GElement(rng.randrange(grp.N)) if rng.random() < 0.5 else a
        assert (grp.canonical_bytes(a) == grp.canonical_bytes(b)) == (a == b)


@pytest.mark.curve
def test_canonical_equality_fuzz_curve(toy_curve, rng):
    g = toy_curve.random_generator(rng)
    elems = [toy_curve.pow(g, k) for k in range(35)]
    for _ in range(2000):
        a, b = rng.choice(elems), rng.choice(elems)
        assert (toy_curve.canonical_bytes(a) == toy_curve.canonical_bytes(b)) == (a == b)


@pytest.mark.curve
@pytest.mark.parametrize("backend", [TRANSPARENT, CURVE_A1])
def test_canonical_roundtrip(backend, rng):
    grp = group_from_primes(5, 7, backend)
    g = grp.random_generator(rng)
    for x in (g, grp.pow(g, 13), grp.identity_g()):
        assert grp.decode(grp.canonical_bytes(x)) == x
    for t in (grp.pair(g, g), grp.identity_gt()):  # GT is hashed, never decoded
        with pytest.raises(ConfigError):
            grp.decode(grp.canonical_bytes(t))


def _toy_encodings(backend):
    """The toy group (N=35) and the canonical bytes of all 35 elements of G,
    then all 35 of GT."""
    grp = group_from_primes(5, 7, backend)
    g = grp.random_generator(random.Random(3))
    return grp, [grp.canonical_bytes(grp.pow(x, k)) for x in (g, grp.pair(g, g)) for k in range(35)]


_TOY = {backend: _toy_encodings(backend) for backend in (TRANSPARENT, CURVE_A1)}
_CURVE_G = _TOY[CURVE_A1][1][1]  # the generator's encoding: tag, flag 1, x, y


@st.composite
def _toy_bytes(draw):
    """(backend, data): a G or GT encoding with one byte replaced (perhaps
    by itself), or arbitrary bytes of an encoding's length."""
    backend = draw(st.sampled_from(sorted(_TOY)))
    encodings = _TOY[backend][1]
    if draw(st.booleans()):
        data = bytearray(draw(st.sampled_from(encodings)))
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        return backend, bytes(data)
    size = draw(st.sampled_from(sorted({len(e) for e in encodings})))
    return backend, draw(st.binary(min_size=size, max_size=size))


@pytest.mark.curve
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_toy_bytes())
@example((CURVE_A1, _CURVE_G[:1] + bytes([2]) + _CURVE_G[2:]))  # flag byte 2
@example((CURVE_A1, _CURVE_G[:1] + bytes([0, 0, 1])))  # an identity with a coordinate
@example((CURVE_A1, _TOY[CURVE_A1][1][36]))  # GT encodings
@example((TRANSPARENT, _TOY[TRANSPARENT][1][36]))
def test_decode_reads_only_canonical_g(case):
    backend, data = case
    grp = _TOY[backend][0]
    try:
        x = grp.decode(data)
    except ConfigError:
        return
    assert isinstance(x, GElement) and grp.canonical_bytes(x) == data


@pytest.mark.curve
def test_decode_rejects_tampering(toy_curve, toy_transparent, rng):
    with pytest.raises(ConfigError):
        toy_transparent.decode(bytes([0x11, 40]))  # exponent >= N
    with pytest.raises(ConfigError):
        toy_transparent.decode(bytes([0x99, 3]))  # bad tag
    g = toy_curve.random_generator(rng)
    raw = bytearray(toy_curve.canonical_bytes(g))
    raw[-1] ^= 1
    with pytest.raises(ConfigError):
        toy_curve.decode(bytes(raw))  # knocked off the curve


@pytest.mark.curve
def test_decode_rejects_wrong_subgroup(toy_curve):
    # find an order-(p+1)-ish point that survives the curve check but not
    # the subgroup check: any point with 35*P != infinity
    p = toy_curve.p
    for x in range(2, p):
        rhs = (x * x * x + x) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p == rhs and toy_curve._pt_mul((x, y), 35) is not None:
            raw = bytes([0x21, 1]) + x.to_bytes(1, "big") + y.to_bytes(1, "big")
            with pytest.raises(ConfigError):
                toy_curve.decode(raw)
            return
    pytest.fail("no out-of-subgroup point found")


@pytest.mark.curve
def test_pairing_with_a_point_is_the_pairing_with_its_g_part(toy_curve):
    # why a put_tuple slot needs no order check for exact answers: a prepared
    # q in G pairs any point P of E(F_p), in G or not, as it pairs P's
    # G-part [l * (l^-1 mod N)]P, and never raises
    grp, p = toy_curve, toy_curve.p
    points = [GElement(None)]
    points += [GElement((x, y)) for x in range(p) for y in range(p) if (y * y - x * x * x - x) % p == 0]
    assert len(points) == p + 1 == grp.l * grp.N
    g_part = {P: reference_mul(grp, P, grp.l * pow(grp.l, -1, grp.N)) for P in points}
    subgroup = set(g_part.values())
    assert len(subgroup) == grp.N
    for q in subgroup:
        prepared = (grp.prepare(q),)
        for P in points:
            assert grp.pair_product(prepared, (P,)) == grp.pair(q, g_part[P])


@pytest.mark.curve
def test_descriptor_roundtrip(toy_curve, rng):
    pub = group_from_descriptor(toy_curve.params.describe())
    assert pub.params.q1 is None  # the factorization never travels
    g = toy_curve.random_generator(rng)
    assert pub.pair(g, g) == toy_curve.pair(g, g)
    with pytest.raises(ConfigError):
        pub.has_full_order(g)


@pytest.mark.curve
@pytest.mark.parametrize("backend", [TRANSPARENT, CURVE_A1])
def test_elements_and_params_are_immutable_values(backend, rng):
    # elements and group parameters compare and hash by type and fields, so a
    # G element never equals the GT element of the same payload, and no field
    # can be assigned, deleted or added once built
    grp = group_from_primes(5, 7, backend)
    g = grp.random_generator(rng)
    t = grp.pair(g, g)
    twin = group_from_descriptor(grp.params.describe(), 5, 7).params
    for x, same in ((g, GElement(g.value)), (t, GTElement(t.value)), (grp.params, twin)):
        assert x == same and not x != same and hash(x) == hash(same) and len({x, same}) == 1
    assert GElement(g.value) != GTElement(g.value) and GTElement(t.value) != GElement(t.value)
    assert g != grp.pow(g, 2) and t != grp.identity_gt()
    assert grp.params != group_from_descriptor(grp.params.describe()).params  # no q1, q2
    for x, name in ((g, "value"), (t, "value"), (grp.params, "N"), (grp.params, "q1")):
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert getattr(x, name) == before


@pytest.mark.curve
def test_backend_agreement_on_membership(rng):
    # the same exponent-level facts hold in both backends
    for backend in (TRANSPARENT, CURVE_A1):
        grp = group_from_primes(5, 7, backend)
        g = grp.random_generator(rng)
        outcomes = [
            grp.pair(grp.pow(g, 5), grp.pow(g, 7)) == grp.identity_gt(),
            grp.pair(g, g) == grp.identity_gt(),
            grp.pow(grp.pair(g, g), 35) == grp.identity_gt(),
        ]
        assert outcomes == [True, False, True]


def test_group_params_validation():
    with pytest.raises(ConfigError):
        group_from_primes(5, 5, TRANSPARENT)  # q1 == q2
    with pytest.raises(ConfigError):
        group_from_primes(6, 7, TRANSPARENT)  # composite q1
    with pytest.raises(ConfigError, match="curveA1 requires p and l"):
        GroupParams(CURVE_A1, 35, 5, 7)


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError, match="unknown backend"):
        group_from_primes(5, 7, "bogus")
    with pytest.raises(ConfigError, match="unknown backend"):
        group_gen(3, "bogus", random.Random(0))


# -- the compiled kernel and the pure-Python path ------------------------------

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def _both_paths(fn):
    """[fn() on the path this process has, fn() with the kernel handle None]."""
    kernel = shrq._kernel.current()
    out = [fn()]
    shrq._kernel._handle = None
    try:
        out.append(fn())
    finally:
        shrq._kernel._handle = kernel
    return out


def _outcome(fn, arg):
    """fn(arg), or the message of the ConfigError it raises."""
    try:
        return fn(arg)
    except ConfigError as exc:
        return str(exc)


def _toy_answers(grp):
    """decode of every point of a toy curve, prepare of each, and the
    pairing of each point of G, prepared, with every point."""
    points = [GElement(None)]
    points += [GElement((x, y)) for x in range(grp.p) for y in range(grp.p) if (y * y - x**3 - x) % grp.p == 0]
    decoded = [_outcome(grp.decode, grp.canonical_bytes(x)) for x in points]
    prepared = [_outcome(grp.prepare, x) for x in points]
    products = [
        grp.canonical_bytes(t)
        for x, lines in zip(decoded, prepared)
        if isinstance(x, GElement)
        for t in grp.pair_products((lines,), [(m,) for m in points])
    ]
    return decoded, prepared, products


def _library_name(flags):
    """The kernel's file name for these cc flags: the SHA-256 of the flags
    and the source, and the interpreter's cache tag."""
    with open(shrq._kernel._SOURCE, "rb") as src:
        digest = hashlib.sha256(" ".join(flags).encode() + b"\0" + src.read()).hexdigest()
    return f"_kernel.{digest}.{sys.implementation.cache_tag}.so"


@needs_cc
def test_kernel_builds_once_into_its_directory(tmp_path, monkeypatch, toy_curve):
    kernel = shrq._kernel.load(str(tmp_path))
    assert kernel is not None
    # one library, named by the flags, the source and the interpreter, and no temporary file left
    assert os.listdir(tmp_path) == [_library_name(shrq._kernel._CFLAGS)]

    def build_again(source, path):
        raise AssertionError("the library was built a second time")

    monkeypatch.setattr(shrq._kernel, "_build", build_again)
    again = shrq._kernel.load(str(tmp_path))
    assert again is not None and len(os.listdir(tmp_path)) == 1
    monkeypatch.setattr(shrq._kernel, "_handle", again)
    kernel_answers = _toy_answers(toy_curve)
    monkeypatch.setattr(shrq._kernel, "_handle", None)
    assert kernel_answers == _toy_answers(toy_curve)


@needs_cc
def test_changed_flags_build_a_second_library(tmp_path, monkeypatch, toy_curve):
    # a library built with other flags is not loaded in place of this one
    assert shrq._kernel.load(str(tmp_path)) is not None
    flags, first = ("-O1", "-shared", "-fPIC"), _library_name(shrq._kernel._CFLAGS)
    monkeypatch.setattr(shrq._kernel, "_CFLAGS", flags)
    kernel = shrq._kernel.load(str(tmp_path))
    assert kernel is not None
    assert sorted(os.listdir(tmp_path)) == sorted([first, _library_name(flags)])
    monkeypatch.setattr(shrq._kernel, "_handle", kernel)
    kernel_answers = _toy_answers(toy_curve)
    monkeypatch.setattr(shrq._kernel, "_handle", None)
    assert kernel_answers == _toy_answers(toy_curve)


def test_no_compiler_or_no_directory_means_the_pure_path(tmp_path, monkeypatch, toy_curve):
    want = _toy_answers(toy_curve)  # on the path this process has
    assert sum(isinstance(x, GElement) for x in want[0]) == toy_curve.N
    # a directory that cannot be made, as its parent is a file; then no cc on PATH
    (tmp_path / "file").write_text("")
    assert shrq._kernel.load(str(tmp_path / "file" / "cache")) is None
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert shrq._kernel.load(str(tmp_path / "cache")) is None
    assert os.listdir(tmp_path / "cache") == []
    monkeypatch.setattr(shrq._kernel, "_handle", None)
    assert _toy_answers(toy_curve) == want


@needs_cc
def test_a_p_wider_than_the_kernel_takes_runs_in_python(tmp_path, monkeypatch):
    kernel = shrq._kernel.load(str(tmp_path))
    monkeypatch.setattr(shrq._kernel, "_handle", kernel)
    with pytest.raises(ConfigError, match="limbs"):  # the kernel's own bound
        kernel.in_g(kernel.max_limbs + 1, b"", b"", b"\1")
    grp, points = _PATH_POOLS[2]
    query = [GElement(pt) for pt in points[2:6]]
    tuples = [tuple(GElement(pt) for pt in points[k : k + 4]) for k in range(len(points) - 3)]

    def answers():
        prepared = tuple(grp.prepare(q) for q in query)
        return [_outcome(grp.decode, grp.canonical_bytes(GElement(pt))) for pt in points], prepared, [
            grp.canonical_bytes(t) for t in grp.pair_products(prepared, tuples)]

    want = answers()
    monkeypatch.setattr(kernel, "max_limbs", grp._limbs - 1)
    assert grp._native() is None
    assert answers() == want


@needs_cc
def test_threads_load_one_kernel_and_pair_on_their_own_buffers(tmp_path, monkeypatch):
    # six threads make their first kernel calls at once: one load, which the
    # others wait for, and every thread's products equal the pure path's
    real_load, loads = shrq._kernel.load, []

    def slow_load(directory):
        loads.append(directory)
        time.sleep(0.05)  # a second load would start in this window
        return real_load(str(tmp_path))

    monkeypatch.setattr(shrq._kernel, "load", slow_load)
    monkeypatch.setattr(shrq._kernel, "_handle", shrq._kernel._UNTRIED)
    grp, points = _PATH_POOLS[2]
    query = [GElement(pt) for pt in points[2:6]]
    tuples = [tuple(GElement(pt) for pt in points[k : k + 4]) for k in range(len(points) - 3)]
    results = [None] * 6

    def pair(i):
        prepared = tuple(grp.prepare(q) for q in query)
        results[i] = [grp.canonical_bytes(t) for t in grp.pair_products(prepared, tuples)]

    threads = [threading.Thread(target=pair, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(loads) == 1 and isinstance(shrq._kernel._handle, shrq._kernel.Kernel)
    monkeypatch.setattr(shrq._kernel, "_handle", None)
    want = [grp.canonical_bytes(t) for t in grp.pair_products(tuple(grp.prepare(q) for q in query), tuples)]
    assert results == [want] * len(results)


@pytest.fixture(scope="module")
def own_kernel(tmp_path_factory):
    """A kernel built for this module alone, so its calls can be wrapped."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    return shrq._kernel.load(str(tmp_path_factory.mktemp("kernel")))


def _split_case(count):
    """The lambda = 64 pool's group, four prepared query slots of G and count
    tuples of four of its points, cycling through the pool."""
    grp, points = _PATH_POOLS[2]
    prepared = tuple(grp.prepare(GElement(pt)) for pt in points[2:6])
    return grp, prepared, [tuple(GElement(points[(k + j) % len(points)]) for j in range(4)) for k in range(count)]


def _miller_threads(monkeypatch, kernel, cpus, fail_off_caller=False):
    """The thread of each foreign Miller call that kernel makes as this
    process's kernel, with cpus CPUs reported; a call off the calling thread
    raises if fail_off_caller."""
    calls, real, caller = [], kernel._miller, threading.get_ident()

    def recorded(*args):
        calls.append(threading.get_ident())
        if fail_off_caller and calls[-1] != caller:
            raise RuntimeError("the helper's call failed")
        return real(*args)

    monkeypatch.setattr(kernel, "_miller", recorded)
    monkeypatch.setattr(shrq._kernel, "_handle", kernel)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return calls


@pytest.mark.parametrize("count", [2, 3, 41])
def test_two_cpus_split_the_miller_products_across_two_threads(own_kernel, monkeypatch, count):
    grp, prepared, tuples = _split_case(count)
    calls = _miller_threads(monkeypatch, own_kernel, cpus=2)
    split = [grp.canonical_bytes(t) for t in grp.pair_products(prepared, tuples)]
    assert len(calls) == 2 and len(set(calls)) == 2 and threading.get_ident() in calls
    monkeypatch.setattr(shrq._kernel, "_handle", None)
    assert split == [grp.canonical_bytes(t) for t in grp.pair_products(prepared, tuples)]


@pytest.mark.parametrize(("cpus", "count"), [(1, 41), (2, 1)])
def test_one_cpu_or_one_tuple_makes_one_miller_call(own_kernel, monkeypatch, cpus, count):
    grp, prepared, tuples = _split_case(count)
    calls = _miller_threads(monkeypatch, own_kernel, cpus)
    grp.pair_products(prepared, tuples)
    assert calls == [threading.get_ident()]


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_fault_in_the_helpers_call_reaches_the_caller(own_kernel, monkeypatch):
    grp, prepared, tuples = _split_case(8)
    calls = _miller_threads(monkeypatch, own_kernel, cpus=2, fail_off_caller=True)
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match="the helper's call failed"):
        grp.pair_products(prepared, tuples)
    assert len(set(calls)) == 2 and threading.enumerate() == before


def _random_curve_points(grp, count, rng):
    """count random points of grp's curve, none of them cleared into G."""
    out = []
    while len(out) < count:
        x = rng.randrange(grp.p)
        rhs = (x**3 + x) % grp.p
        y = pow(rhs, (grp.p + 1) // 4, grp.p)
        if y * y % grp.p == rhs:
            out.append((x, y))
    return out


def _path_pools():
    """(group, points): every point of the N = 35 and N = 22 toy curves;
    of a lambda = 64 curve (3 limbs, which the kernel unrolls) eight points
    of G, four random curve points and the order-2 point (0, 0), and of a
    lambda = 128 curve (5 limbs, its generic loops) four, two and (0, 0);
    the identity in every pool."""
    pools = []
    for grp in (group_from_primes(5, 7, CURVE_A1), group_from_primes(2, 11, CURVE_A1)):
        p = grp.p
        pools.append((grp, [None] + [(x, y) for x in range(p) for y in range(p) if (y * y - x**3 - x) % p == 0]))
    rng = random.Random(64)
    for bits, in_g, off_g in ((64, 8, 4), (128, 4, 2)):
        big = group_gen(bits, CURVE_A1, rng)
        g = big.random_generator(rng)
        points = [big.pow(g, rng.randrange(1, big.N)).value for _ in range(in_g)]
        pools.append((big, [None, (0, 0)] + points + _random_curve_points(big, off_g, rng)))
    return pools


_PATH_POOLS = _path_pools()


_OUTSIDE_G = "point outside the order-N subgroup"


def test_decode_and_prepare_agree_on_both_paths():
    # decode's verdict is [N]P = infinity by _jac_mul, and prepare gives the
    # same slot on both paths, whose lines are reference_lines', at every
    # point of the pools
    for grp, points in _PATH_POOLS:
        for pt in points:
            x = GElement(pt)
            in_g = pt is None or grp._jac_mul(pt, grp.N)[2] == 0
            want = x if in_g else _OUTSIDE_G
            assert _both_paths(lambda: _outcome(grp.decode, grp.canonical_bytes(x))) == [want, want], pt
            slots = _both_paths(lambda: _outcome(grp.prepare, x))
            assert slots[0] == slots[1], pt
            got = prepared_lines(grp, slots[0]) if in_g else slots[0]
            assert got == (reference_lines(grp, x) if in_g else _OUTSIDE_G), pt


@st.composite
def _product_case(draw):
    """(group, L query slots of G or the identity, 1-3 tuples of L points of
    the group's pool, in G or not)."""
    grp, points = draw(st.sampled_from(_PATH_POOLS))
    in_g = [pt for pt in points if pt is None or grp._jac_mul(pt, grp.N)[2] == 0]
    L = draw(st.integers(1, 4))
    query = [GElement(draw(st.sampled_from(in_g))) for _ in range(L)]
    tuples = draw(st.lists(st.lists(st.sampled_from(points), min_size=L, max_size=L), min_size=1, max_size=3))
    return grp, query, [tuple(GElement(pt) for pt in t) for t in tuples]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_product_case())
def test_pair_products_agree_on_both_paths_and_with_reference_pair(case):
    grp, query, tuples = case

    def products():
        prepared = tuple(grp.prepare(q) for q in query)
        return _unless_f_is_0(lambda: [grp.canonical_bytes(t) for t in grp.pair_products(prepared, tuples)])

    def reference():
        want = []
        for points in tuples:
            product = grp.identity_gt()
            for q, m in zip(query, points):
                product = grp.mul(product, reference_pair(grp, q, m))
            want.append(grp.canonical_bytes(product))
        return want

    want = _unless_f_is_0(reference)
    assert _both_paths(products) == [want, want]


@pytest.mark.parametrize("bad", [0, 3, 6])
def test_one_tuple_whose_miller_product_is_0_fails_the_call_on_both_paths(monkeypatch, bad):
    # on the N = 22 curve a query slot whose walk has a line through (0, 0)
    # makes f = 0 at the tuple point (0, 0).  One such tuple among six good
    # ones, in the calling thread's half (0) or the helper's (3, 6), fails
    # the whole call with the same ValueError on both paths, and the six
    # good tuples alone pair as reference_pair does
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    grp, points = _PATH_POOLS[1]
    in_g = [GElement(pt) for pt in points[1:] if grp._jac_mul(pt, grp.N)[2] == 0]
    zero = GElement((0, 0))
    q = next(x for x in in_g if _unless_f_is_0(lambda: reference_pair(grp, x, zero)) == "f = 0")
    good = [(m,) for m in in_g if m != zero][:6]
    prepared = (grp.prepare(q),)

    def refused():
        with pytest.raises(ValueError) as info:
            grp.pair_products(prepared, good[:bad] + [(zero,)] + good[bad:])
        return str(info.value)

    assert _both_paths(refused) == [shrq.pairing._F_IS_0] * 2
    want = [grp.canonical_bytes(reference_pair(grp, q, m)) for (m,) in good]
    assert _both_paths(lambda: [grp.canonical_bytes(t) for t in grp.pair_products(prepared, good)]) == [want, want]


def _unless_f_is_0(fn):
    """fn(), or "f = 0" where a Miller line vanishes at a tuple point and
    the final exponentiation cannot invert f.  Only (0, 0) is its own
    distorted image, and only an even N puts it in G: on the N = 22 curve
    the walk of a query point of even order reaches (0, 0), and the line of
    that step passes through it."""
    try:
        return fn()
    except ValueError:
        return "f = 0"
