import random

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

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
from reference import reference_add, reference_lines, reference_mul, reference_pair


def test_group_gen_toy_transparent():
    grp = group_gen(3, TRANSPARENT, random.Random(0))
    assert {grp.params.q1, grp.params.q2} == {5, 7}
    assert grp.N == 35


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


def test_random_generator_always_full_order(toy_transparent, toy_curve, rng):
    for grp in (toy_transparent, toy_curve):
        for _ in range(20):
            assert grp.has_full_order(grp.random_generator(rng))


def test_mul_of_g_by_gt_rejected(toy_transparent, toy_curve, rng):
    for grp in (toy_transparent, toy_curve):
        g = grp.random_generator(rng)
        for x, y in ((g, grp.pair(g, g)), (grp.pair(g, g), g)):
            with pytest.raises(ConfigError):
                grp.mul(x, y)


def test_curve_generator_in_subgroup(toy_curve, rng):
    pt = toy_curve.random_generator(rng)
    assert toy_curve.pow(pt, 35).value is None  # 35 * P is the point at infinity


@pytest.mark.parametrize("backend", [TRANSPARENT, CURVE_A1])
def test_pow_basics(backend, rng):
    grp = group_from_primes(5, 7, backend)
    g = grp.random_generator(rng)
    assert grp.pow(g, 0) == grp.identity_g()
    assert grp.pow(g, grp.N) == grp.identity_g()
    assert grp.mul(grp.pow(g, -1), g) == grp.identity_g()
    assert grp.pow(g, -3) == grp.pow(g, grp.N - 3)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_walk_case())
def test_prepare_walk_is_the_order_check(case):
    # prepare raises decode's error exactly when [N]P is not infinity, and
    # its lines are the affine reference's otherwise; parse accepts every
    # curve point and decode agrees with prepare
    grp, pt = case
    x = GElement(pt)
    raw = grp.canonical_bytes(x)
    assert grp.parse(raw) == x
    if reference_mul(grp, x, grp.N).value is None:
        assert grp.prepare(x) == reference_lines(grp, x)
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_fixed_pow_case())
# -39 = 31 mod 35 takes digit 15 of an order-5 point: the identity entry
@example((_FIXED_POW_BASES[1][0], _FIXED_POW_BASES[1][1][7], -39))
def test_fixed_pow_is_pow(case):
    grp, x, k = case
    assert grp.canonical_bytes(grp.fixed_pow(x, k)) == grp.canonical_bytes(grp.pow(x, k))


def test_pow_transparent_trace(toy_transparent):
    assert toy_transparent.pow(GElement(1), 5) == GElement(5)


@pytest.mark.parametrize("backend", [TRANSPARENT, CURVE_A1])
def test_pair_bilinear_identity(backend, rng):
    grp = group_from_primes(5, 7, backend)
    g = grp.random_generator(rng)
    assert grp.pair(grp.pow(g, 2), grp.pow(g, 3)) == grp.pow(grp.pair(g, g), 6)


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


def test_canonical_equality_fuzz_curve(toy_curve, rng):
    g = toy_curve.random_generator(rng)
    elems = [toy_curve.pow(g, k) for k in range(35)]
    for _ in range(2000):
        a, b = rng.choice(elems), rng.choice(elems)
        assert (toy_curve.canonical_bytes(a) == toy_curve.canonical_bytes(b)) == (a == b)


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


def test_descriptor_roundtrip(toy_curve, rng):
    pub = group_from_descriptor(toy_curve.params.describe())
    assert pub.params.q1 is None  # the factorization never travels
    g = toy_curve.random_generator(rng)
    assert pub.pair(g, g) == toy_curve.pair(g, g)
    with pytest.raises(ConfigError):
        pub.has_full_order(g)


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
