"""Reference constructions and test doubles the tests compare the package against.

None is on a query path:
- the Boneh-Goh-Nissim scheme (TCC 2005) checks that both pairing backends
  carry a textbook homomorphic scheme;
- layered_radii is the paper's width recurrence for layer radii, which the
  gap-free covering_radii replaced in the query path;
- the dot-form oracles re-derive the sphere and range predicates from the
  plaintext component dot product (plaintext_dot, the value compute()
  encrypts), independently of the distance form in shrq.oracle, and
  annulus_oracle gives what one coarse layer captures on its own;
- PinnedRng stands in for an rng to fix the blinding scalar an encryption
  draws;
- reference_pair is the Tate pairing composed with the distortion map, by
  Miller's loop over its first argument with its own affine addition and
  line evaluation (reference_add), so it shares no loop or slope code with
  the prepared product that Group.pair and compute() run;
- reference_mul is [k]x by affine double-and-add from the low bit of k over
  that same addition, so it shares no loop or formula with _power's
  Jacobian steps.
"""

import math
import secrets
from dataclasses import dataclass

from shrq.ces import LAYOUT_UNIFIED
from shrq.errors import ConfigError, NotFoundError, QueryRejected
from shrq.geometry import (
    EPS,
    Layer,
    coarse_transform,
    dist_squared,
    make_data_component,
    make_sphere_query_component,
    range_contains,
    range_to_sphere,
)
from shrq.pairing import TRANSPARENT, GElement, GTElement


class PinnedRng:
    """An rng whose every randrange() returns value, so tuple_encrypt and
    query_encrypt use it as their blinding scalar (0 included)."""

    def __init__(self, value):
        self.value = value

    def randrange(self, *args):
        return self.value


# -- the pairing by its textbook Miller loop (validates pair_product) --------


def _affine_add(p, a, b):
    """a + b on y^2 = x^3 + x over F_p; None is the point at infinity."""
    if a is None:
        return b
    if b is None:
        return a
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


def _line_through(p, a, b):
    """(lam, c) of the line y = lam*x + c through a, b (tangent if equal);
    None for a vertical line."""
    x1, y1 = a
    x2, y2 = b
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 1) * pow(2 * y1 % p, -1, p) % p
    else:
        lam = (y2 - y1) * pow((x2 - x1) % p, -1, p) % p
    return lam, (y1 - lam * x1) % p


def _line(p, a, b, xq, yq):
    """Line through a, b (tangent if equal) evaluated at (-xq, i*yq), as an
    F_p^2 pair; None for vertical lines, which the final exponentiation
    annihilates anyway."""
    line = _line_through(p, a, b)
    if line is None:
        return None
    lam, c = line
    # y - lam*x - c at x = -xq, y = yq*i
    return ((lam * xq - c) % p, yq)


def reference_add(group, x, y):
    """x * y in G: exponent addition, or the affine chord-and-tangent rule."""
    if group.params.backend == TRANSPARENT:
        return GElement((x.value + y.value) % group.N)
    return GElement(_affine_add(group.p, x.value, y.value))


def reference_mul(group, x, k):
    """[k]x on the curve for a raw k, never reduced mod N: affine
    double-and-add from the low bit of k, with x negated for k < 0."""
    p, base, out = group.p, x.value, None
    if k < 0 and base is not None:
        base = (base[0], -base[1] % p)
    k = abs(k)
    while k:
        if k & 1:
            out = _affine_add(p, out, base)
        base = _affine_add(p, base, base)
        k >>= 1
    return GElement(out)


def reference_lines(group, x):
    """Group.prepare(x) on the curve by affine arithmetic: per step of
    Miller's loop over x, as reference_pair takes them, the (lam, c) of the
    line through the point stepped from, or None for a step from infinity
    or a vertical line; None for the identity."""
    if x.value is None:
        return None
    p, v, lines = group.p, x.value, []
    for bit in bin(group.N)[3:]:
        lines.append(None if v is None else _line_through(p, v, v))
        v = _affine_add(p, v, v)
        if bit == "1":
            lines.append(None if v is None else _line_through(p, v, x.value))
            v = _affine_add(p, v, x.value)
    return tuple(lines)


def reference_pair(group, x, y):
    """e(x, y): the exponent product, or Miller's loop over x with its lines
    evaluated at the distorted image of y, then the final exponentiation."""
    if group.params.backend == TRANSPARENT:
        return GTElement(x.value * y.value % group.N)
    if x.value is None or y.value is None:
        return group.identity_gt()
    p = group.p
    xq, yq = y.value
    f = (1, 0)
    v = x.value
    for bit in bin(group.N)[3:]:
        g = None if v is None else _line(p, v, v, xq, yq)
        f = group._fp2_mul(f, f)
        if g is not None:
            f = group._fp2_mul(f, g)
        v = _affine_add(p, v, v)
        if bit == "1":
            g = None if v is None else _line(p, v, x.value, xq, yq)
            if g is not None:
                f = group._fp2_mul(f, g)
            v = _affine_add(p, v, x.value)
    return group._final_exp(f)


# -- minimal BGN reference (validates the backends) --------------------------


@dataclass
class BgnPublicKey:
    group: object
    g: object
    h: object  # u^q2, order q1


@dataclass
class BgnSecretKey:
    q1: int


def bgn_keygen(group, rng=None):
    rng = rng if rng is not None else secrets.SystemRandom()
    params = group.params
    if params.q1 is None:
        raise ConfigError("BGN keygen needs the factorization")
    g = group.random_generator(rng)
    u = group.random_generator(rng)
    return BgnPublicKey(group, g, group.pow(u, params.q2)), BgnSecretKey(params.q1)


def bgn_enc(pk, m, rng=None, blinding=None):
    if blinding is None:
        rng = rng if rng is not None else secrets.SystemRandom()
        blinding = rng.randrange(1, pk.group.N)
    return pk.group.mul(pk.group.pow(pk.g, m), pk.group.pow(pk.h, blinding))


def bgn_add(pk, c1, c2):
    return pk.group.mul(c1, c2)


def bgn_mul(pk, c1, c2):
    return pk.group.pair(c1, c2)


def bgn_dec_lookup(sk, pk, c, bound):
    """Kill the blinding by raising to q1, then scan g^{q1*i} for i <= bound."""
    group = pk.group
    if isinstance(c, GTElement):
        base = group.pow(group.pair(pk.g, pk.g), sk.q1)
    else:
        base = group.pow(pk.g, sk.q1)
    target = group.pow(c, sk.q1)
    acc = group.identity_gt() if isinstance(c, GTElement) else group.identity_g()
    for m in range(bound + 1):
        if acc == target:
            return m
        acc = group.mul(acc, base)
    raise NotFoundError(f"plaintext not within decryption bound {bound}")


# -- the paper's layer recurrence --------------------------------------------


def layered_radii(r, v, d, b_c, e_max=None):
    """Width-based layer recurrence: peel sqrt(v) per layer, re-padding each
    deeper layer by factor*sqrt(d) for the floor error.

    This is the storage-economical recurrence; it under-reaches the exact
    annulus edge sqrt(r^2 - v), so consecutive layers can leave a gap (see
    covering_radii, which the query path uses).
    """
    if b_c < 2:
        raise ConfigError("layered plan needs a coarsity base >= 2")
    root_d, root_v = math.sqrt(d), math.sqrt(v)
    layers = [Layer(0, float(r), int(r), 1)]
    rem = r - root_v
    i = 1
    while rem > EPS:
        if e_max is not None and i > e_max:
            raise QueryRejected(
                "radius-unsupported", f"radius {r} needs layer {i} > E_max = {e_max}"
            )
        factor = b_c**i
        rem += factor * root_d
        layers.append(Layer(i, rem, math.ceil(rem / factor - EPS), factor))
        rem -= factor * root_v
        i += 1
    return tuple(layers)


# -- plaintext dot form (the value compute() encrypts) ------------------------


def plaintext_dot(c_m, c_q):
    """Exact integer dot product; the oracle for compute()."""
    if len(c_m) != len(c_q):
        raise ConfigError("component lengths differ")
    return sum(int(a) * int(b) for a, b in zip(c_m, c_q))


def make_range_query_component(rq, d, layout=LAYOUT_UNIFIED):
    """Range query as a single-column sphere component (unified layout only)."""
    if layout != LAYOUT_UNIFIED:
        raise ConfigError("range queries need the unified layout")
    sphere = range_to_sphere(rq, d)
    return make_sphere_query_component(sphere, layout, cols=(rq.col,)), sphere


def hrq_oracle_dot_form(dataset, query, layout=LAYOUT_UNIFIED):
    """Same predicate as hrq_oracle via the component dot product."""
    q_comp = make_sphere_query_component(query, layout)
    out = set()
    for rid, coords in dataset:
        dot = plaintext_dot(make_data_component(coords, layout), q_comp)
        if 0 <= dot <= query.radius * query.radius:
            out.add(rid)
    return out


def range_oracle_dot_form(dataset, rq, d):
    """Range predicate via the sphere reduction, with the odd-width trim."""
    q_comp, sphere = make_range_query_component(rq, d)
    out = set()
    for rid, coords in dataset:
        dot = plaintext_dot(make_data_component(coords, LAYOUT_UNIFIED), q_comp)
        if 0 <= dot <= sphere.radius * sphere.radius and range_contains(coords, rq):
            out.add(rid)
    return out


def annulus_oracle(dataset, center, scaled_radius, v, factor):
    """ids a single layer captures: coarse dist^2 in [max(0, r^2-v), r^2]."""
    chat = coarse_transform(center, factor)
    lo = max(0, scaled_radius * scaled_radius - v)
    hi = scaled_radius * scaled_radius
    out = set()
    for rid, coords in dataset:
        d2 = dist_squared(coarse_transform(coords, factor), chat)
        if lo <= d2 <= hi:
            out.add(rid)
    return out
