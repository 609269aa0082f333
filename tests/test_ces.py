import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import toy_secret_key
from shrq import ces
from shrq.ces import (
    LAYOUT_SHRQ,
    LAYOUT_UNIFIED,
    SecretKey,
    compute,
    create_lookup_table,
    digest,
    keygen,
    lookup_contains,
    prepare_query,
    query_encrypt,
    tuple_encrypt,
)
from shrq.errors import ConfigError, DataIntegrityError, NotFoundError, ProtocolError
from shrq.geometry import SphereQuery, make_data_component, make_sphere_query_component
from shrq.pairing import CURVE_A1, TRANSPARENT, group_from_descriptor, group_from_primes
from reference import (
    PinnedRng,
    bgn_add,
    bgn_dec_lookup,
    bgn_enc,
    bgn_keygen,
    bgn_mul,
    plaintext_dot,
    reference_pair,
)


def test_keygen_invariants(sk32):
    grp = sk32.group
    q1, q2, N = grp.params.q1, grp.params.q2, grp.N
    dot = sum(a * b for a, b in zip(sk32.A, sk32.B)) % N
    assert dot % q1 == 0 and dot != 0
    assert grp.is_identity(grp.pow(grp.pair(sk32.h, sk32.h), dot))
    assert grp.is_identity(grp.pow(sk32.s, q2))  # s = g^q1 has order q2
    assert grp.is_identity(grp.pow(sk32.h, q1))  # h = u^q2 has order q1
    assert sk32.alpha % q2 != 0
    assert q2 > 2 * (400 + 2 * 100**2)  # sk32 serves d=2, v=400, x_max=100
    assert 400 + 1 <= q2
    assert len(sk32.A) == len(sk32.B) == 2 + 2
    assert len(sk32.aes_key) == 32


def test_keygen_toy_vector_construction(toy_transparent):
    # the hand example: A=(1,1,1), B=(3,3,4) gives A.B = 10 = 2*q1
    sk = toy_secret_key(toy_transparent)
    assert sum(a * b for a, b in zip(sk.A, sk.B)) == 10 == 2 * 5


def test_keygen_margin_recompute():
    sk, _ = keygen(64, 2, LAYOUT_SHRQ, 400, 100, TRANSPARENT, rng=random.Random(5))
    assert sk.group.params.q2 > 2 * (400 + 2 * 100**2) == 40800


def test_keygen_margin_violation_names_bound():
    grp = group_from_primes(101, 103, TRANSPARENT)
    with pytest.raises(ConfigError, match="q2"):
        keygen(0, 2, LAYOUT_SHRQ, 400, 100, TRANSPARENT, group=grp)


def test_keygen_needs_the_groups_factorization():
    # a group rebuilt from its descriptor alone knows N but not q1 and q2
    grp = group_from_descriptor(group_from_primes(101, 103, TRANSPARENT).params.describe())
    with pytest.raises(ConfigError, match="^keygen needs a group with its factorization$"):
        keygen(0, 2, LAYOUT_SHRQ, 400, 100, TRANSPARENT, group=grp)


def test_keygen_unified_vector_length():
    sk, _ = keygen(32, 3, LAYOUT_UNIFIED, 50, 10, TRANSPARENT, rng=random.Random(6))
    assert len(sk.A) == 7 == 2 * 3 + 1


def test_public_params_hold_no_secrets(sk32):
    sk, desc = keygen(32, 2, LAYOUT_SHRQ, 400, 100, TRANSPARENT, rng=random.Random(7))
    assert desc == {"backend": TRANSPARENT, "N": str(sk.group.N)}
    assert group_from_descriptor(desc).params.q1 is None


def test_secret_key_repr_shows_no_secrets(sk32_unified):
    sk = sk32_unified
    text = repr(sk)
    assert text == "SecretKey(transparent group, 5 slots)"
    assert "alpha" not in text and str(sk.alpha) not in text
    for shown in (repr(sk.aes_key), sk.aes_key.hex(), str(list(sk.aes_key))):
        assert shown not in text
    with pytest.raises(AttributeError):
        sk.alpha = 1


def test_lookup_tables_are_immutable_values(sk32):
    table, again = create_lookup_table(sk32, 4), create_lookup_table(sk32, 4)
    assert table == again and hash(table) == hash(again)
    assert table != create_lookup_table(sk32, 3)
    with pytest.raises(AttributeError):
        table.add(bytes(16))
    assert len(table) - 1 == 4


def test_tuple_encrypt_zero_blinding_is_plain_power(sk32):
    comp = make_data_component((3, 4), LAYOUT_SHRQ)
    enc = tuple_encrypt(sk32, comp, rng=PinnedRng(0))
    grp = sk32.group
    assert list(enc) == [grp.pow(sk32.s, m) for m in comp]


def test_tuple_encrypt_exponent_trace_toy(toy_transparent):
    # slot exponent = q1*m_i + 21*r_m*A_i (mod 35) for the toy key
    sk = toy_secret_key(toy_transparent)
    comp = (2, 1, 4)
    enc = tuple_encrypt(sk, comp, rng=PinnedRng(2))
    for slot, m_i, a_i in zip(enc, comp, sk.A):
        assert slot.value == (5 * m_i + 21 * 2 * a_i) % 35


def test_tuple_encrypt_lengths_both_layouts(sk32, sk32_unified):
    for sk, layout in ((sk32, LAYOUT_SHRQ), (sk32_unified, LAYOUT_UNIFIED)):
        enc = tuple_encrypt(sk, make_data_component((3, 4), layout), rng=random.Random(1))
        assert len(enc) == len(sk.A)


def test_tuple_encrypt_wrong_length_rejected(sk32):
    comp = make_data_component((3, 4), LAYOUT_SHRQ)
    for bad in (comp[:-1], comp + (0,)):
        with pytest.raises(ProtocolError):
            tuple_encrypt(sk32, bad)


def test_tuple_encrypt_randomized(sk32, rng):
    comp = make_data_component((3, 4), LAYOUT_SHRQ)
    seen = {tuple_encrypt(sk32, comp, rng=rng) for _ in range(100)}
    assert len(seen) == 100


def test_query_encrypt_hook_alpha1_beta0(toy_transparent):
    sk = toy_secret_key(toy_transparent, alpha=1, beta=0)
    comp = (4, 0, -1)
    enc = query_encrypt(sk, comp, 1, rng=PinnedRng(0))
    assert list(enc) == [sk.group.pow(sk.s, q) for q in comp]


def test_query_encrypt_const_slot_gets_beta(toy_transparent):
    sk = toy_secret_key(toy_transparent, alpha=2, beta=3)
    comp = (4, 1, -1)
    enc = query_encrypt(sk, comp, 1, rng=PinnedRng(0))
    assert enc[1].value == 5 * (1 + 3) * 2 % 35
    assert enc[0].value == 5 * 4 * 2 % 35  # beta only on the const slot


def test_query_serialization_oblivious(sk32_unified, rng):
    grp = sk32_unified.group
    sphere = make_sphere_query_component(SphereQuery((50, 60), 15), LAYOUT_UNIFIED)
    one_col = make_sphere_query_component(SphereQuery((12, 0), 4), LAYOUT_UNIFIED, col=1)
    sizes = set()
    for comp in (sphere, one_col):
        enc = query_encrypt(sk32_unified, comp, 2, rng=rng)
        sizes.add(len(json.dumps([grp.canonical_bytes(s).hex() for s in enc])))
    assert len(sizes) == 1


def test_compute_matches_lookup_entry(toy_transparent):
    # alpha=2, beta=3, dot=4: T equals the table entry for i=4
    sk = toy_secret_key(toy_transparent, alpha=2, beta=3)
    c_m = (2, 1, 1)
    c_q = (1, 1, 1)
    assert plaintext_dot(c_m, c_q) == 4
    enc_q = query_encrypt(sk, c_q, 1, rng=PinnedRng(1))
    t = compute(sk.group, tuple_encrypt(sk, c_m, rng=PinnedRng(1)), prepare_query(sk.group, enc_q))
    assert t == sk.group.pow(sk.group.pair(sk.s, sk.s), (4 + 3) * 2)


def test_compute_dot_oracle_d1(sk32):
    # m=3 -> {3,1,9}; center 2, r=2 -> {4,0,-1}; dot = 3 = r^2 - (3-2)^2
    sk, _ = keygen(32, 1, LAYOUT_SHRQ, 25, 10, TRANSPARENT, rng=random.Random(8))
    c_m = make_data_component((3,), LAYOUT_SHRQ)
    c_q = make_sphere_query_component(SphereQuery((2,), 2), LAYOUT_SHRQ)
    assert plaintext_dot(c_m, c_q) == 3
    enc_q = query_encrypt(sk, c_q, 1, rng=random.Random(2))
    t = compute(sk.group, tuple_encrypt(sk, c_m, rng=random.Random(1)), prepare_query(sk.group, enc_q))
    expected = sk.group.pow(sk.group.pair(sk.s, sk.s), sk.alpha * (3 + sk.beta))
    assert sk.group.canonical_bytes(t) == sk.group.canonical_bytes(expected)


def test_compute_blinding_invariance(sk32, rng):
    c_m = make_data_component((30, 40), LAYOUT_SHRQ)
    c_q = make_sphere_query_component(SphereQuery((28, 44), 9), LAYOUT_SHRQ)
    grp = sk32.group
    plain_q = prepare_query(grp, query_encrypt(sk32, c_q, 2, rng=PinnedRng(0)))
    plain = compute(grp, tuple_encrypt(sk32, c_m, rng=PinnedRng(0)), plain_q)
    blinded_q = prepare_query(grp, query_encrypt(sk32, c_q, 2, rng=rng))
    blinded = compute(grp, tuple_encrypt(sk32, c_m, rng=rng), blinded_q)
    assert plain == blinded


def test_compute_length_mismatch(sk32, sk32_unified, rng):
    t = tuple_encrypt(sk32, make_data_component((1, 2), LAYOUT_SHRQ), rng=rng)
    c_q = make_sphere_query_component(SphereQuery((1, 2), 1), LAYOUT_UNIFIED)
    q = query_encrypt(sk32_unified, c_q, 2, rng=rng)
    with pytest.raises(ProtocolError):
        compute(sk32.group, t, prepare_query(sk32.group, q))


@pytest.fixture(scope="module", params=[LAYOUT_SHRQ, LAYOUT_UNIFIED])
def curve_sk(request):
    """(key, layout, d) of a deployment on the curve backend."""
    sk, _ = keygen(32, 2, request.param, 400, 100, CURVE_A1, rng=random.Random(32))
    return sk, request.param, 2


def test_encryption_is_plain_pow_on_curve(curve_sk):
    # slot i is s^{x_i} * h^{r*Y_i} with r the rng's first randrange(1, N):
    # x = m and Y = A for a tuple, x = q*alpha (+ beta*alpha at slot d) and
    # Y = B for a query
    sk, layout, d = curve_sk
    grp = sk.group
    c_m = make_data_component((37, 90), layout)
    c_q = make_sphere_query_component(SphereQuery((41, 86), 9), layout)
    x_q = [q * sk.alpha for q in c_q]
    x_q[d] += sk.beta * sk.alpha
    for k in range(3):
        r = random.Random(k).randrange(1, grp.N)
        for enc, xs, ys in ((tuple_encrypt(sk, c_m, rng=random.Random(k)), c_m, sk.A),
                            (query_encrypt(sk, c_q, d, rng=random.Random(k)), x_q, sk.B)):
            want = [grp.mul(grp.pow(sk.s, x), grp.pow(sk.h, r * y)) for x, y in zip(xs, ys)]
            assert [grp.canonical_bytes(e) for e in enc] == [grp.canonical_bytes(w) for w in want]


def _one_base_groups():
    """(group, g and u candidates, fixed key or None): every element of the
    transparent and curve toy groups of N = 35 and of an N = 22 curve, so s
    = g^q1 or h = u^q2 may be the identity, and a lambda = 32 curve key."""
    cases = []
    for q1, q2, backend in ((5, 7, TRANSPARENT), (5, 7, CURVE_A1), (2, 11, CURVE_A1)):
        grp = group_from_primes(q1, q2, backend)
        gen = grp.random_generator(random.Random(35))
        cases.append((grp, [grp.pow(gen, i) for i in range(grp.N)], None))
    sk, _ = keygen(32, 1, LAYOUT_UNIFIED, 100, 50, CURVE_A1, rng=random.Random(18))
    cases.append((sk.group, None, sk))
    return cases


_ONE_BASE_GROUPS = _one_base_groups()


@st.composite
def _one_base_case(draw):
    grp, elements, sk = draw(st.sampled_from(_ONE_BASE_GROUPS))
    q1, q2, N = grp.params.q1, grp.params.q2, grp.N
    value = (
        st.sampled_from((0, -1, N - 1, N, -N))
        | st.builds(lambda c, m: c * m, st.integers(-3, 3), st.sampled_from((q1, q2, N)))
        | st.integers(-(N**2), -1)
        | st.integers(0, N - 1)
        | st.integers(-(N**2), N**2)
    )
    L = 3
    vec = st.lists(value, min_size=L, max_size=L)
    if sk is None:
        g, u = draw(st.sampled_from(elements)), draw(st.sampled_from(elements))
        sk = SecretKey(grp, g, u, grp.pow(g, q1), grp.pow(u, q2), draw(vec), draw(vec),
                       draw(value), draw(value), bytes(32))
        comp = draw(vec)
    else:
        comp = draw(st.lists(value, min_size=len(sk.A), max_size=len(sk.A)))
    return sk, comp, draw(st.integers(0, len(comp) - 1)), draw(value | st.integers(1, N - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_one_base_case())
def test_slot_is_one_power_of_s_times_h(case):
    # every slot is one fixed-base power of w = s*h; it must equal
    # s^x * h^{r*y} for any blinding r the rng hands out, 0 and multiples
    # of q1 included, and for keys whose s or h is the identity
    sk, comp, d, r = case
    grp = sk.group
    x_q = [(q + (sk.beta if i == d else 0)) * sk.alpha for i, q in enumerate(comp)]
    for enc, xs, ys in ((tuple_encrypt(sk, comp, rng=PinnedRng(r)), comp, sk.A),
                        (query_encrypt(sk, comp, d, rng=PinnedRng(r)), x_q, sk.B)):
        want = [grp.mul(grp.pow(sk.s, x), grp.pow(sk.h, r * y)) for x, y in zip(xs, ys)]
        assert [grp.canonical_bytes(e) for e in enc] == [grp.canonical_bytes(w) for w in want]


def test_encryption_keeps_one_window_table():
    sk, _ = keygen(32, 2, LAYOUT_UNIFIED, 400, 100, CURVE_A1, rng=random.Random(33))
    grp = sk.group
    tuple_encrypt(sk, make_data_component((37, 90), LAYOUT_UNIFIED), rng=random.Random(1))
    query_encrypt(sk, make_sphere_query_component(SphereQuery((41, 86), 9), LAYOUT_UNIFIED), 2)
    assert list(grp._tables) == [grp.mul(sk.s, sk.h).value]


def test_compute_is_product_of_pairs_on_curve(curve_sk, rng):
    sk, layout, d = curve_sk
    grp = sk.group

    def slot():  # identity, pure s (order q2), pure h (order q1) or both
        kind = rng.randrange(4)
        s_part = grp.pow(sk.s, rng.randrange(1, grp.N)) if kind & 1 else grp.identity_g()
        h_part = grp.pow(sk.h, rng.randrange(1, grp.N)) if kind & 2 else grp.identity_g()
        return grp.mul(s_part, h_part)

    def encrypted():  # a random data component against a random sphere query
        c_m = make_data_component((rng.randrange(101), rng.randrange(101)), layout)
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(21))
        c_q = make_sphere_query_component(q, layout)
        return tuple_encrypt(sk, c_m, rng=rng), query_encrypt(sk, c_q, d, rng=rng)

    cases = [encrypted() for _ in range(4)]
    for _ in range(16):
        cases.append((tuple(slot() for _ in sk.A), tuple(slot() for _ in sk.A)))
    cases.append(((grp.identity_g(),) * len(sk.A), cases[0][1]))
    for ms, qs in cases:
        want = grp.identity_gt()
        for m, q in zip(ms, qs):
            want = grp.mul(want, reference_pair(grp, m, q))
        got = compute(grp, ms, prepare_query(grp, qs))
        assert grp.canonical_bytes(got) == grp.canonical_bytes(want)
    with pytest.raises(ProtocolError):
        compute(grp, ms[:-1], prepare_query(grp, qs))


def test_compute_correctness_fuzz(sk32, rng):
    grp = sk32.group
    ss = grp.pair(sk32.s, sk32.s)
    for _ in range(200):
        c_m = make_data_component((rng.randrange(101), rng.randrange(101)), LAYOUT_SHRQ)
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(21))
        c_q = make_sphere_query_component(q, LAYOUT_SHRQ)
        enc_q = query_encrypt(sk32, c_q, 2, rng=rng)
        t = compute(grp, tuple_encrypt(sk32, c_m, rng=rng), prepare_query(grp, enc_q))
        want = grp.pow(ss, sk32.alpha * (plaintext_dot(c_m, c_q) + sk32.beta))
        assert grp.canonical_bytes(t) == grp.canonical_bytes(want)


def test_lookup_table_size_and_v0(sk32):
    table = create_lookup_table(sk32, 0)
    grp = sk32.group
    entry = grp.pow(grp.pair(sk32.s, sk32.s), sk32.beta * sk32.alpha)
    assert lookup_contains(table, digest(grp, entry))
    assert len(table) == 1
    assert len(create_lookup_table(sk32, 40)) == 41


def test_lookup_table_refuses_digests_that_collide(sk32):
    # alpha = q2 makes the step e(s,s)^alpha the identity, as e(s,s) has order
    # q2, so every entry is the same.  The check must stay: lookup_message
    # takes v from the table's size, so a table whose digests collapsed would
    # pin a smaller v without any error
    fields = dict(zip(SecretKey.__slots__, sk32._fields()), alpha=sk32.group.params.q2)
    with pytest.raises(DataIntegrityError, match="digest collision"):
        create_lookup_table(SecretKey(*fields.values()), 3)


def test_lookup_membership_sweep():
    # the table is built by repeated multiplication; on the transparent
    # backend that is only addition, so the curve key checks GT arithmetic
    for backend in (TRANSPARENT, CURVE_A1):
        sk, _ = keygen(32, 2, LAYOUT_SHRQ, 50, 10, backend, rng=random.Random(77))
        grp = sk.group
        table = create_lookup_table(sk, 50)
        base = grp.pair(sk.s, sk.s)
        # sweep the whole reachable dot range |k| <= v + d*x_max^2
        for k in range(-250, 251):
            t = grp.pow(base, sk.alpha * (k + sk.beta))
            assert lookup_contains(table, digest(grp, t)) == (0 <= k <= 50), (backend, k)


def test_lookup_boundaries(sk32):
    grp = sk32.group
    table = create_lookup_table(sk32, 400)
    base = grp.pair(sk32.s, sk32.s)
    for k, inside in ((-1, False), (0, True), (400, True), (401, False)):
        t = grp.pow(base, sk32.alpha * (k + sk32.beta))
        assert lookup_contains(table, digest(grp, t)) is inside


def _table_keys():
    """(group, key or None): the transparent and curve toy groups of N = 35,
    for which the test draws alpha, beta and v, and a lambda = 32 curve key."""
    toys = [(group_from_primes(5, 7, backend), None) for backend in (TRANSPARENT, CURVE_A1)]
    sk, _ = keygen(32, 2, LAYOUT_SHRQ, 400, 100, CURVE_A1, rng=random.Random(2303))
    return toys + [(sk.group, sk)]


_TABLE_KEYS = _table_keys()


@st.composite
def _membership_case(draw):
    grp, sk = draw(st.sampled_from(_TABLE_KEYS))
    q1, q2, N = grp.params.q1, grp.params.q2, grp.N
    if sk is None:  # only s, alpha and beta build a table; v + 1 entries need v < q2
        g = grp.random_generator(random.Random(35))
        alpha = draw(st.integers(1, N - 1).filter(lambda a: a % q2))
        beta = draw(st.integers(0, N - 1))
        sk = SecretKey(grp, g, g, grp.pow(g, q1), grp.pow(g, q2), [], [], alpha, beta, bytes(32))
        v = draw(st.integers(0, q2 - 1))
    else:
        v = draw(st.integers(0, 400))
    k = draw(
        st.integers(-3, 3)
        | st.integers(v - 3, v + 3)
        | st.builds(lambda sign, j: sign * N + j, st.sampled_from((1, -1)), st.integers(-3, v + 3))
        | st.integers(-(N**2), N**2)
    )
    return sk, v, k


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_membership_case())
def test_lookup_membership_is_exact(case):
    # T_k = e(s,s)^{alpha*(k+beta)} hits the table of 16-byte digest prefixes
    # exactly when k, which lives mod q2, is one of 0..v; for k in
    # (-(q2 - v), q2), the reach that keygen's margin keeps, that is 0 <= k <= v
    sk, v, k = case
    grp = sk.group
    q2 = grp.params.q2
    table = create_lookup_table(sk, v)
    assert len(table) == v + 1 and {len(dig) for dig in table} == {16}
    hit = lookup_contains(table, digest(grp, grp.pow(grp.pair(sk.s, sk.s), sk.alpha * (k + sk.beta))))
    assert hit is (k % q2 <= v)
    if -(q2 - v) < k < q2:
        assert hit is (0 <= k <= v)


def test_bgn_roundtrip(sk32, rng):
    grp = sk32.group
    pk, bsk = bgn_keygen(grp, rng)
    assert bgn_dec_lookup(bsk, pk, bgn_enc(pk, 0, rng), 10) == 0
    c5 = bgn_add(pk, bgn_enc(pk, 2, rng), bgn_enc(pk, 3, rng))
    assert bgn_dec_lookup(bsk, pk, c5, 10) == 5
    c6 = bgn_mul(pk, bgn_enc(pk, 2, rng), bgn_enc(pk, 3, rng))
    assert bgn_dec_lookup(bsk, pk, c6, 10) == 6


def test_bgn_homomorphism_fuzz(sk32, rng):
    pk, bsk = bgn_keygen(sk32.group, rng)
    for _ in range(100):
        m1, m2 = rng.randrange(12), rng.randrange(12)
        assert bgn_dec_lookup(bsk, pk, bgn_add(pk, bgn_enc(pk, m1, rng), bgn_enc(pk, m2, rng)), 24) == m1 + m2
        assert bgn_dec_lookup(bsk, pk, bgn_mul(pk, bgn_enc(pk, m1, rng), bgn_enc(pk, m2, rng)), 144) == m1 * m2


def test_bgn_out_of_bound(sk32, rng):
    pk, bsk = bgn_keygen(sk32.group, rng)
    with pytest.raises(NotFoundError):
        bgn_dec_lookup(bsk, pk, bgn_enc(pk, 50, rng), 10)
