import dataclasses
import json
import random

import pytest

from conftest import toy_secret_key
from shrq import ces
from shrq.ces import (
    LAYOUT_SHRQ,
    LAYOUT_UNIFIED,
    Component,
    compute,
    create_lookup_table,
    keygen,
    lookup_contains,
    prepare_query,
    query_encrypt,
    tuple_encrypt,
)
from shrq.errors import ConfigError, NotFoundError, ProtocolError
from shrq.geometry import SphereQuery, make_data_component, make_sphere_query_component
from shrq.pairing import CURVE_A1, TRANSPARENT, group_from_descriptor, group_from_primes
from reference import PinnedRng, bgn_add, bgn_dec_lookup, bgn_enc, bgn_keygen, bgn_mul, plaintext_dot


def test_keygen_invariants(sk32):
    grp = sk32.group
    q1, q2, N = grp.params.q1, grp.params.q2, grp.N
    dot = sum(a * b for a, b in zip(sk32.A, sk32.B)) % N
    assert dot % q1 == 0 and dot != 0
    assert grp.is_identity(grp.pow(grp.pair(sk32.h, sk32.h), dot))
    assert grp.is_identity(grp.pow(sk32.s, q2))  # s = g^q1 has order q2
    assert grp.is_identity(grp.pow(sk32.h, q1))  # h = u^q2 has order q1
    assert sk32.alpha % q2 != 0
    assert q2 > 2 * (sk32.v + sk32.d * sk32.x_max**2)
    assert sk32.v + 1 <= q2
    assert len(sk32.A) == len(sk32.B) == sk32.L == sk32.d + 2
    assert len(sk32.aes_key) == 32


def test_keygen_toy_vector_construction(toy_transparent):
    # the hand example: A=(1,1,1), B=(3,3,4) gives A.B = 10 = 2*q1
    sk = toy_secret_key(toy_transparent)
    assert sum(a * b for a, b in zip(sk.A, sk.B)) == 10 == 2 * 5


def test_keygen_margin_recompute():
    sk, _ = keygen(64, 2, LAYOUT_SHRQ, 400, 100, TRANSPARENT, rng=random.Random(5))
    assert sk.group.params.q2 > 2 * (400 + 2 * 100**2) == 40800


def test_keygen_margin_violation_names_bound():
    grp = group_from_primes(101, 103)
    with pytest.raises(ConfigError, match="q2"):
        keygen(0, 2, LAYOUT_SHRQ, 400, 100, TRANSPARENT, group=grp)


def test_keygen_unified_vector_length():
    sk, _ = keygen(32, 3, LAYOUT_UNIFIED, 50, 10, TRANSPARENT, rng=random.Random(6))
    assert sk.L == 7 == 2 * 3 + 1


def test_public_params_hold_no_secrets(sk32):
    sk, desc = keygen(32, 2, LAYOUT_SHRQ, 400, 100, TRANSPARENT, rng=random.Random(7))
    assert desc == {"backend": TRANSPARENT, "N": str(sk.group.N)}
    assert group_from_descriptor(desc).params.q1 is None


def test_tuple_encrypt_zero_blinding_is_plain_power(sk32):
    comp = make_data_component((3, 4), LAYOUT_SHRQ)
    enc = tuple_encrypt(sk32, comp, rng=PinnedRng(0))
    grp = sk32.group
    assert list(enc) == [grp.pow(sk32.s, m) for m in comp.entries]


def test_tuple_encrypt_exponent_trace_toy(toy_transparent):
    # slot exponent = q1*m_i + 21*r_m*A_i (mod 35) for the toy key
    sk = toy_secret_key(toy_transparent)
    comp = Component((2, 1, 4), 1)
    enc = tuple_encrypt(sk, comp, rng=PinnedRng(2))
    for slot, m_i, a_i in zip(enc, comp.entries, sk.A):
        assert slot.value == (5 * m_i + 21 * 2 * a_i) % 35


def test_tuple_encrypt_lengths_both_layouts(sk32, sk32_unified):
    for sk, layout in ((sk32, LAYOUT_SHRQ), (sk32_unified, LAYOUT_UNIFIED)):
        enc = tuple_encrypt(sk, make_data_component((3, 4), layout), rng=random.Random(1))
        assert len(enc) == sk.L


def test_tuple_encrypt_randomized(sk32, rng):
    comp = make_data_component((3, 4), LAYOUT_SHRQ)
    seen = {tuple_encrypt(sk32, comp, rng=rng) for _ in range(100)}
    assert len(seen) == 100


def test_query_encrypt_hook_alpha1_beta0(toy_transparent):
    sk = toy_secret_key(toy_transparent, alpha=1, beta=0)
    comp = Component((4, 0, -1), 1)
    enc = query_encrypt(sk, comp, rng=PinnedRng(0))
    assert list(enc) == [sk.group.pow(sk.s, q) for q in comp.entries]


def test_query_encrypt_const_slot_gets_beta(toy_transparent):
    sk = toy_secret_key(toy_transparent, alpha=2, beta=3)
    comp = Component((4, 1, -1), 1)
    enc = query_encrypt(sk, comp, rng=PinnedRng(0))
    assert enc[1].value == 5 * (1 + 3) * 2 % 35
    assert enc[0].value == 5 * 4 * 2 % 35  # beta only on the const slot


def test_query_serialization_oblivious(sk32_unified, rng):
    grp = sk32_unified.group
    sphere = make_sphere_query_component(SphereQuery((50, 60), 15), LAYOUT_UNIFIED)
    one_col = make_sphere_query_component(SphereQuery((12, 0), 4), LAYOUT_UNIFIED, cols=(1,))
    sizes = set()
    for comp in (sphere, one_col):
        enc = query_encrypt(sk32_unified, comp, rng=rng)
        sizes.add(len(json.dumps([grp.canonical_bytes(s).hex() for s in enc])))
    assert len(sizes) == 1


def test_compute_matches_lookup_entry(toy_transparent):
    # alpha=2, beta=3, dot=4: T equals the table entry for i=4
    sk = toy_secret_key(toy_transparent, alpha=2, beta=3)
    c_m = Component((2, 1, 1), 1)
    c_q = Component((1, 1, 1), 1)
    assert plaintext_dot(c_m, c_q) == 4
    enc_q = query_encrypt(sk, c_q, rng=PinnedRng(1))
    t = compute(sk.group, tuple_encrypt(sk, c_m, rng=PinnedRng(1)), prepare_query(sk.group, enc_q))
    assert t == sk.group.pow(sk.group.pair(sk.s, sk.s), (4 + 3) * 2)


def test_compute_dot_oracle_d1(sk32):
    # m=3 -> {3,1,9}; center 2, r=2 -> {4,0,-1}; dot = 3 = r^2 - (3-2)^2
    sk, _ = keygen(32, 1, LAYOUT_SHRQ, 25, 10, TRANSPARENT, rng=random.Random(8))
    c_m = make_data_component((3,), LAYOUT_SHRQ)
    c_q = make_sphere_query_component(SphereQuery((2,), 2), LAYOUT_SHRQ)
    assert plaintext_dot(c_m, c_q) == 3
    enc_q = query_encrypt(sk, c_q, rng=random.Random(2))
    t = compute(sk.group, tuple_encrypt(sk, c_m, rng=random.Random(1)), prepare_query(sk.group, enc_q))
    expected = sk.group.pow(sk.group.pair(sk.s, sk.s), sk.alpha * (3 + sk.beta))
    assert sk.group.canonical_bytes(t) == sk.group.canonical_bytes(expected)


def test_compute_blinding_invariance(sk32, rng):
    c_m = make_data_component((30, 40), LAYOUT_SHRQ)
    c_q = make_sphere_query_component(SphereQuery((28, 44), 9), LAYOUT_SHRQ)
    grp = sk32.group
    plain_q = prepare_query(grp, query_encrypt(sk32, c_q, rng=PinnedRng(0)))
    plain = compute(grp, tuple_encrypt(sk32, c_m, rng=PinnedRng(0)), plain_q)
    blinded_q = prepare_query(grp, query_encrypt(sk32, c_q, rng=rng))
    blinded = compute(grp, tuple_encrypt(sk32, c_m, rng=rng), blinded_q)
    assert plain == blinded


def test_compute_length_mismatch(sk32, sk32_unified, rng):
    t = tuple_encrypt(sk32, make_data_component((1, 2), LAYOUT_SHRQ), rng=rng)
    q = query_encrypt(sk32_unified, make_sphere_query_component(SphereQuery((1, 2), 1), LAYOUT_UNIFIED), rng=rng)
    with pytest.raises(ProtocolError):
        compute(sk32.group, t, prepare_query(sk32.group, q))


@pytest.fixture(scope="module", params=[LAYOUT_SHRQ, LAYOUT_UNIFIED])
def curve_sk(request):
    return keygen(32, 2, request.param, 400, 100, CURVE_A1, rng=random.Random(32))[0]


def test_compute_is_product_of_pairs_on_curve(curve_sk, rng):
    sk, grp = curve_sk, curve_sk.group

    def slot():  # identity, pure s (order q2), pure h (order q1) or both
        kind = rng.randrange(4)
        s_part = grp.pow(sk.s, rng.randrange(1, grp.N)) if kind & 1 else grp.identity_g()
        h_part = grp.pow(sk.h, rng.randrange(1, grp.N)) if kind & 2 else grp.identity_g()
        return grp.mul(s_part, h_part)

    def encrypted():  # a random data component against a random sphere query
        c_m = make_data_component((rng.randrange(101), rng.randrange(101)), sk.layout)
        q = SphereQuery((rng.randrange(101), rng.randrange(101)), rng.randrange(21))
        c_q = make_sphere_query_component(q, sk.layout)
        return tuple_encrypt(sk, c_m, rng=rng), query_encrypt(sk, c_q, rng=rng)

    cases = [encrypted() for _ in range(4)]
    for _ in range(16):
        cases.append((tuple(slot() for _ in range(sk.L)), tuple(slot() for _ in range(sk.L))))
    cases.append(((grp.identity_g(),) * sk.L, cases[0][1]))
    for ms, qs in cases:
        want = grp.identity_gt()
        for m, q in zip(ms, qs):
            want = grp.mul(want, grp.pair(m, q))
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
        enc_q = query_encrypt(sk32, c_q, rng=rng)
        t = compute(grp, tuple_encrypt(sk32, c_m, rng=rng), prepare_query(grp, enc_q))
        want = grp.pow(ss, sk32.alpha * (plaintext_dot(c_m, c_q) + sk32.beta))
        assert grp.canonical_bytes(t) == grp.canonical_bytes(want)


def test_lookup_table_size_and_v0(sk32):
    table = create_lookup_table(dataclasses.replace(sk32, v=0))
    grp = sk32.group
    entry = grp.pow(grp.pair(sk32.s, sk32.s), sk32.beta * sk32.alpha)
    assert lookup_contains(table, grp, entry)
    assert len(table.digests) == 1
    assert len(create_lookup_table(dataclasses.replace(sk32, v=40)).digests) == 41


def test_lookup_membership_sweep():
    sk, _ = keygen(32, 2, LAYOUT_SHRQ, 50, 10, TRANSPARENT, rng=random.Random(77))
    grp = sk.group
    table = create_lookup_table(sk)
    base = grp.pair(sk.s, sk.s)
    # sweep the whole reachable dot range |k| <= v + d*x_max^2
    for k in range(-250, 251):
        t = grp.pow(base, sk.alpha * (k + sk.beta))
        assert lookup_contains(table, grp, t) == (0 <= k <= 50), k


def test_lookup_boundaries(sk32):
    grp = sk32.group
    table = create_lookup_table(sk32)
    base = grp.pair(sk32.s, sk32.s)
    for k, inside in ((-1, False), (0, True), (400, True), (401, False)):
        t = grp.pow(base, sk32.alpha * (k + sk32.beta))
        assert lookup_contains(table, grp, t) is inside


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


def test_component_const_slot_validation():
    with pytest.raises(ConfigError):
        Component((1, 2, 3), 5)
