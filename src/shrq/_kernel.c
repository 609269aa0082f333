/* The curveA1 loops of shrq.pairing over Montgomery arithmetic.
 *
 * An element of F_p is n little-endian 64-bit limbs, n <= MAX_LIMBS, kept
 * in Montgomery form a*R mod p with R = 2^(64n); products are CIOS
 * (Koc, Acar & Kaliski, IEEE Micro 16(3), 1996), and an inversion is
 * Fermat's a^(p-2), once per call: many values are inverted by one
 * inversion of their product (Montgomery's trick).  Every input is a byte
 * string of limbs in normal form, read with memcpy, and every output is
 * written in normal form.  The field arrives as p, R^2 mod p and
 * -p^-1 mod 2^64, in that order.
 *
 *   shrq_walk    decode's order check: the Jacobian walk from the affine
 *                point, a doubling per nonzero step byte and a mixed
 *                addition of the point per zero one, by the formulas and
 *                branches of CurveGroup._jac_double and _jac_madd.  It
 *                returns 1 if the last Z is 0, else 0.
 *   shrq_prepare prepare: the same walk, its order check, then every
 *                step's line y = lam*x + c, from the walk's points made
 *                affine by one inversion.  It writes a prepared slot, the
 *                format CurveGroup.prepare gives: per step lam and c
 *                ((0, 0) for a step from or to infinity), then one flag
 *                byte per step, 1 where the step has a line.  It returns 1,
 *                or 0, writing no slot, if the point is outside G.
 *   shrq_miller  pair_products: per tuple, one squaring chain with every
 *                active slot's line evaluated at its distorted point
 *                (-x, i*y), giving f = f0 + f1*i, then the final
 *                exponentiation (conj(f)/f)^l = (conj(f)^2 / N(f))^l, with
 *                the norms N(f) = f0^2 + f1^2 of all the call's tuples
 *                inverted at once.  It writes each tuple's GT element
 *                (a, b) and returns 0, or returns 1, its output unfinished,
 *                if some f is 0 (a line that vanishes at a tuple point).
 *
 * All return -1, and write nothing, for n outside 1..MAX_LIMBS, which the
 * build defines (_kernel.py's _CFLAGS).  The caller sizes every array from
 * n, the step count, the slot count and the tuple count, as the comments on
 * the entry points below say, and passes only ints below p (a prepared
 * slot's lines and flags may be any bytes); nothing here parses bytes from
 * a peer.
 * Nothing is static but code, so calls on separate buffers may run at once.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#ifndef MAX_LIMBS
#error "build with -DMAX_LIMBS=<the widest p in 64-bit limbs>"
#endif
#define INLINE static inline __attribute__((always_inline))

typedef unsigned __int128 u128;

typedef struct {
    uint64_t p[MAX_LIMBS], r2[MAX_LIMBS], one[MAX_LIMBS], unit[MAX_LIMBS], pinv;
} field;

typedef struct {
    uint64_t x[MAX_LIMBS], y[MAX_LIMBS], z[MAX_LIMBS], m[MAX_LIMBS];
} jac;

/* a - p if a >= p, for a < 2p given as n limbs and a top limb */
INLINE void reduce_once_n(int n, const field *f, uint64_t *r, const uint64_t *a, uint64_t top)
{
    uint64_t d[MAX_LIMBS], borrow = 0;
    for (int j = 0; j < n; j++) {
        u128 x = (u128)a[j] - f->p[j] - borrow;
        d[j] = (uint64_t)x;
        borrow = (uint64_t)(x >> 64) & 1;
    }
    if (top || !borrow)
        memcpy(r, d, sizeof(uint64_t) * n);
    else if (r != a)
        memcpy(r, a, sizeof(uint64_t) * n);
}

INLINE void add_n(int n, const field *f, uint64_t *r, const uint64_t *a, const uint64_t *b)
{
    uint64_t s[MAX_LIMBS];
    u128 c = 0;
    for (int j = 0; j < n; j++) {
        c += (u128)a[j] + b[j];
        s[j] = (uint64_t)c;
        c >>= 64;
    }
    reduce_once_n(n, f, r, s, (uint64_t)c);
}

INLINE void sub_n(int n, const field *f, uint64_t *r, const uint64_t *a, const uint64_t *b)
{
    uint64_t d[MAX_LIMBS], borrow = 0;
    for (int j = 0; j < n; j++) {
        u128 x = (u128)a[j] - b[j] - borrow;
        d[j] = (uint64_t)x;
        borrow = (uint64_t)(x >> 64) & 1;
    }
    if (borrow) {
        u128 c = 0;
        for (int j = 0; j < n; j++) {
            c += (u128)d[j] + f->p[j];
            d[j] = (uint64_t)c;
            c >>= 64;
        }
    }
    memcpy(r, d, sizeof(uint64_t) * n);
}

/* a*b/R mod p for a < R and b < p, by CIOS; r may alias a or b */
INLINE void mul_n(int n, const field *f, uint64_t *r, const uint64_t *a, const uint64_t *b)
{
    uint64_t t[MAX_LIMBS + 2];
    memset(t, 0, sizeof(uint64_t) * (n + 2));
    for (int i = 0; i < n; i++) {
        u128 c = 0;
        for (int j = 0; j < n; j++) {
            c += (u128)a[j] * b[i] + t[j];
            t[j] = (uint64_t)c;
            c >>= 64;
        }
        c += t[n];
        t[n] = (uint64_t)c;
        t[n + 1] = (uint64_t)(c >> 64);
        uint64_t m = t[0] * f->pinv;
        c = ((u128)m * f->p[0] + t[0]) >> 64;
        for (int j = 1; j < n; j++) {
            c += (u128)m * f->p[j] + t[j];
            t[j - 1] = (uint64_t)c;
            c >>= 64;
        }
        c += t[n];
        t[n - 1] = (uint64_t)c;
        t[n] = t[n + 1] + (uint64_t)(c >> 64);
    }
    reduce_once_n(n, f, r, t, t[n]);
}

/* one copy of each field operation per n up to 4, where its loops unroll */
#define SPECIALISE(op)                                                                        \
    static void op(int n, const field *f, uint64_t *r, const uint64_t *a, const uint64_t *b) \
    {                                                                                         \
        switch (n) {                                                                          \
        case 1: op##_n(1, f, r, a, b); return;                                                \
        case 2: op##_n(2, f, r, a, b); return;                                                \
        case 3: op##_n(3, f, r, a, b); return;                                                \
        case 4: op##_n(4, f, r, a, b); return;                                                \
        default: op##_n(n, f, r, a, b);                                                       \
        }                                                                                     \
    }
SPECIALISE(add)
SPECIALISE(sub)
SPECIALISE(mul)

static int is_zero(int n, const uint64_t *a)
{
    uint64_t any = 0;
    for (int j = 0; j < n; j++)
        any |= a[j];
    return !any;
}

static void load_field(int n, field *f, const unsigned char *bytes)
{
    size_t w = sizeof(uint64_t) * n;
    memcpy(f->p, bytes, w);
    memcpy(f->r2, bytes + w, w);
    memcpy(&f->pinv, bytes + 2 * w, sizeof(uint64_t));
    memset(f->unit, 0, w);
    f->unit[0] = 1;
    mul(n, f, f->one, f->r2, f->unit); /* R mod p */
}

/* the Montgomery form of the n limbs at src */
static void load(int n, const field *f, uint64_t *r, const unsigned char *src)
{
    memcpy(r, src, sizeof(uint64_t) * n);
    mul(n, f, r, r, f->r2);
}

/* the normal form of a, to the n limbs at dst */
static void store(int n, const field *f, void *dst, const uint64_t *a)
{
    uint64_t t[MAX_LIMBS];
    mul(n, f, t, a, f->unit);
    memcpy(dst, t, sizeof(uint64_t) * n);
}

/* the bit length of the n limbs at e */
static int bit_length(int n, const uint64_t *e)
{
    for (int j = n - 1; j >= 0; j--)
        if (e[j])
            return 64 * j + 64 - __builtin_clzll(e[j]);
    return 0;
}

/* 1/a = a^(p-2) for a nonzero a (Fermat); r may alias a */
static void invert(int n, const field *f, uint64_t *r, const uint64_t *a)
{
    uint64_t e[MAX_LIMBS], out[MAX_LIMBS], borrow = 2;
    for (int j = 0; j < n; j++) { /* e = p - 2 */
        e[j] = f->p[j] - borrow;
        borrow = f->p[j] < borrow;
    }
    memcpy(out, f->one, sizeof(uint64_t) * n);
    for (int i = bit_length(n, e) - 1; i >= 0; i--) {
        mul(n, f, out, out, out);
        if (e[i / 64] >> (i % 64) & 1)
            mul(n, f, out, out, a);
    }
    memcpy(r, out, sizeof(uint64_t) * n);
}

/* out[k] = 1/a[k] for count values a[k], stride limbs apart, and 0 where
   a[k] is 0, by one inversion of their product (Montgomery's trick) */
static void invert_all(int n, const field *f, const uint64_t *a, size_t stride, int count,
                       uint64_t *out)
{
    size_t w = sizeof(uint64_t) * n;
    uint64_t acc[MAX_LIMBS];
    memcpy(acc, f->one, w);
    for (int k = 0; k < count; k++) { /* out[k]: the product of the nonzero a before a[k] */
        memcpy(out + (size_t)k * n, acc, w);
        if (!is_zero(n, a + k * stride))
            mul(n, f, acc, acc, a + k * stride);
    }
    invert(n, f, acc, acc);
    for (int k = count - 1; k >= 0; k--) {
        const uint64_t *ak = a + k * stride;
        uint64_t *ok = out + (size_t)k * n;
        if (is_zero(n, ak)) {
            memset(ok, 0, w);
            continue;
        }
        mul(n, f, ok, acc, ok);
        mul(n, f, acc, acc, ak);
    }
}

/* 2a by dbl-1998-cmo-2 (curve coefficient 1), slope numerator M */
static void jac_double(int n, const field *f, jac *out, const jac *a)
{
    uint64_t xx[MAX_LIMBS], yy[MAX_LIMBS], zz[MAX_LIMBS], s[MAX_LIMBS], m[MAX_LIMBS];
    uint64_t t[MAX_LIMBS], u[MAX_LIMBS], z3[MAX_LIMBS];
    mul(n, f, xx, a->x, a->x);
    mul(n, f, yy, a->y, a->y);
    mul(n, f, zz, a->z, a->z);
    mul(n, f, s, a->x, yy); /* s = 4*x*yy */
    add(n, f, s, s, s);
    add(n, f, s, s, s);
    add(n, f, m, xx, xx); /* m = 3*xx + zz^2 */
    add(n, f, m, m, xx);
    mul(n, f, zz, zz, zz);
    add(n, f, m, m, zz);
    mul(n, f, t, m, m); /* t = m^2 - 2*s */
    sub(n, f, t, t, s);
    sub(n, f, t, t, s);
    mul(n, f, z3, a->y, a->z); /* z3 = 2*y*z */
    add(n, f, z3, z3, z3);
    sub(n, f, u, s, t); /* y3 = m*(s - t) - 8*yy^2 */
    mul(n, f, u, m, u);
    mul(n, f, yy, yy, yy);
    add(n, f, yy, yy, yy);
    add(n, f, yy, yy, yy);
    add(n, f, yy, yy, yy);
    sub(n, f, out->y, u, yy);
    memcpy(out->x, t, sizeof(uint64_t) * n);
    memcpy(out->z, z3, sizeof(uint64_t) * n);
    memcpy(out->m, m, sizeof(uint64_t) * n);
}

/* a + b for an affine b by madd-2007-bl, slope numerator r: a = b doubles,
   and a at infinity gives b */
static void jac_madd(int n, const field *f, jac *out, const jac *a, const uint64_t *bx,
                     const uint64_t *by)
{
    size_t w = sizeof(uint64_t) * n;
    if (is_zero(n, a->z)) {
        memcpy(out->x, bx, w);
        memcpy(out->y, by, w);
        memcpy(out->z, f->one, w);
        memset(out->m, 0, w);
        return;
    }
    uint64_t z1z1[MAX_LIMBS], h[MAX_LIMBS], r[MAX_LIMBS], i[MAX_LIMBS], j[MAX_LIMBS], v[MAX_LIMBS];
    uint64_t x3[MAX_LIMBS], y3[MAX_LIMBS], z3[MAX_LIMBS];
    mul(n, f, z1z1, a->z, a->z);
    mul(n, f, h, bx, z1z1); /* h = bx*z1z1 - x1 */
    sub(n, f, h, h, a->x);
    mul(n, f, r, by, a->z); /* r = 2*(by*z1*z1z1 - y1) */
    mul(n, f, r, r, z1z1);
    sub(n, f, r, r, a->y);
    add(n, f, r, r, r);
    if (is_zero(n, h) && is_zero(n, r)) {
        jac_double(n, f, out, a);
        return;
    }
    mul(n, f, i, h, h); /* i = 4*h^2, j = h*i, v = x1*i */
    add(n, f, i, i, i);
    add(n, f, i, i, i);
    mul(n, f, j, h, i);
    mul(n, f, v, a->x, i);
    mul(n, f, x3, r, r); /* x3 = r^2 - j - 2*v */
    sub(n, f, x3, x3, j);
    sub(n, f, x3, x3, v);
    sub(n, f, x3, x3, v);
    sub(n, f, y3, v, x3); /* y3 = r*(v - x3) - 2*y1*j */
    mul(n, f, y3, r, y3);
    mul(n, f, j, a->y, j);
    add(n, f, j, j, j);
    sub(n, f, y3, y3, j);
    mul(n, f, z3, a->z, h); /* z3 = 2*z1*h */
    add(n, f, z3, z3, z3);
    memcpy(out->x, x3, w);
    memcpy(out->y, y3, w);
    memcpy(out->z, z3, w);
    memcpy(out->m, r, w);
}

/* the walk from the affine (bx, by) over the steps; every point it reaches,
   (bx, by) first, to points as (X, Y, Z, M) when points is not NULL; 1 if
   the last Z is 0, else 0 */
static int walk_n(int n, const field *f, const uint64_t *bx, const uint64_t *by,
                  const unsigned char *steps, int nsteps, uint64_t *points)
{
    size_t w = sizeof(uint64_t) * n;
    jac pt;
    memcpy(pt.x, bx, w);
    memcpy(pt.y, by, w);
    memcpy(pt.z, f->one, w);
    memset(pt.m, 0, w);
    for (int k = 0;; k++) {
        if (points) {
            uint64_t *dst = points + (size_t)k * 4 * n;
            memcpy(dst, pt.x, w);
            memcpy(dst + n, pt.y, w);
            memcpy(dst + 2 * n, pt.z, w);
            memcpy(dst + 3 * n, pt.m, w);
        }
        if (k == nsteps)
            return is_zero(n, pt.z);
        if (steps[k])
            jac_double(n, f, &pt, &pt);
        else
            jac_madd(n, f, &pt, &pt, bx, by);
    }
}

static void load_point(int n, const field *f, uint64_t *bx, uint64_t *by,
                       const unsigned char *point)
{
    load(n, f, bx, point);
    load(n, f, by, point + sizeof(uint64_t) * n);
}

static int prepare_n(int n, const unsigned char *fieldbytes, const unsigned char *point,
                     const unsigned char *steps, int nsteps, uint64_t *scratch,
                     unsigned char *slot)
{
    field f;
    load_field(n, &f, fieldbytes);
    uint64_t bx[MAX_LIMBS], by[MAX_LIMBS];
    load_point(n, &f, bx, by, point);
    uint64_t *points = scratch, *zinv = scratch + (size_t)(nsteps + 1) * 4 * n;
    if (!walk_n(n, &f, bx, by, steps, nsteps, points))
        return 0;
    invert_all(n, &f, points + 2 * n, 4 * (size_t)n, nsteps + 1, zinv);
    size_t w = sizeof(uint64_t) * n;
    unsigned char *flags = slot + (size_t)nsteps * 2 * w;
    for (int k = 0; k < nsteps; k++) {
        /* the step from (X, Y, Z) to a point whose slope is M/Z3: lam = M/Z3
           and c = y - lam*x = (Y/Z - lam*X)/Z^2 */
        const uint64_t *from = points + (size_t)k * 4 * n, *to = from + 4 * n;
        const uint64_t *zi = zinv + (size_t)k * n, *zi3 = zi + n;
        unsigned char *line = slot + (size_t)k * 2 * w;
        flags[k] = !is_zero(n, from + 2 * n) && !is_zero(n, to + 2 * n);
        if (!flags[k]) {
            memset(line, 0, 2 * w);
            continue;
        }
        uint64_t lam[MAX_LIMBS], c[MAX_LIMBS], t[MAX_LIMBS];
        mul(n, &f, lam, to + 3 * n, zi3);
        mul(n, &f, t, from + n, zi);
        mul(n, &f, c, lam, from);
        sub(n, &f, c, t, c);
        mul(n, &f, t, zi, zi);
        mul(n, &f, c, c, t);
        store(n, &f, line, lam);
        store(n, &f, line + w, c);
    }
    return 1;
}

/* r = a^2 in F_p^2, as (a0 + a1)(a0 - a1) + 2*a0*a1*i; r may alias a */
static void fp2_square(int n, const field *f, uint64_t *r0, uint64_t *r1, const uint64_t *a0,
                       const uint64_t *a1)
{
    uint64_t s[MAX_LIMBS], d[MAX_LIMBS];
    add(n, f, s, a0, a1);
    sub(n, f, d, a0, a1);
    mul(n, f, r1, a0, a1);
    add(n, f, r1, r1, r1);
    mul(n, f, r0, s, d);
}

/* r = a*b in F_p^2 by three products; r may alias a or b */
static void fp2_mul(int n, const field *f, uint64_t *r0, uint64_t *r1, const uint64_t *a0,
                    const uint64_t *a1, const uint64_t *b0, const uint64_t *b1)
{
    uint64_t t0[MAX_LIMBS], t1[MAX_LIMBS], s[MAX_LIMBS], u[MAX_LIMBS];
    mul(n, f, t0, a0, b0);
    mul(n, f, t1, a1, b1);
    add(n, f, s, a0, a1);
    add(n, f, u, b0, b1);
    mul(n, f, s, s, u);
    sub(n, f, r0, t0, t1);
    sub(n, f, s, s, t0);
    sub(n, f, r1, s, t1);
}

/* the final exponentiation of the tuples' f, Montgomery form at out as
   (f0, f1) each, into their GT elements' normal form at out, with norms
   2 * tuples * n limbs of scratch; 1, out unfinished, if some f is 0 */
static int final_exps(int n, const field *f, const uint64_t *l, int tuples, uint64_t *norms,
                      uint64_t *out)
{
    uint64_t *inverse = norms + (size_t)tuples * n, t[MAX_LIMBS], zero[MAX_LIMBS] = {0};
    for (int i = 0; i < tuples; i++) {
        const uint64_t *f0 = out + (size_t)i * 2 * n, *f1 = f0 + n;
        uint64_t *norm = norms + (size_t)i * n;
        mul(n, f, norm, f0, f0);
        mul(n, f, t, f1, f1);
        add(n, f, norm, norm, t);
        if (is_zero(n, norm)) /* N(f) = 0 only for f = 0, as -1 is no square mod p */
            return 1;
    }
    invert_all(n, f, norms, n, tuples, inverse);
    int bits = bit_length(n, l);
    for (int i = 0; i < tuples; i++) {
        uint64_t *f0 = out + (size_t)i * 2 * n, *f1 = f0 + n;
        const uint64_t *ni = inverse + (size_t)i * n;
        uint64_t g0[MAX_LIMBS], g1[MAX_LIMBS], h0[MAX_LIMBS], h1[MAX_LIMBS];
        fp2_square(n, f, g0, g1, f0, f1); /* conj(f)^2 / N(f) = (f0^2 - f1^2, -2*f0*f1) / N(f) */
        mul(n, f, g0, g0, ni);
        mul(n, f, g1, g1, ni);
        sub(n, f, g1, zero, g1);
        memcpy(h0, f->one, sizeof(uint64_t) * n);
        memset(h1, 0, sizeof(uint64_t) * n);
        for (int b = bits - 1; b >= 0; b--) { /* h = g^l */
            fp2_square(n, f, h0, h1, h0, h1);
            if (l[b / 64] >> (b % 64) & 1)
                fp2_mul(n, f, h0, h1, h0, h1, g0, g1);
        }
        store(n, f, f0, h0);
        store(n, f, f1, h1);
    }
    return 0;
}

static int miller_n(int n, const unsigned char *fieldbytes, const unsigned char *cofactor,
                    const unsigned char *steps, int nsteps, int slots,
                    const unsigned char *prepared, int tuples, const unsigned char *points,
                    const unsigned char *active, uint64_t *scratch, uint64_t *out)
{
    field f;
    load_field(n, &f, fieldbytes);
    size_t w = sizeof(uint64_t) * n, slotbytes = (size_t)nsteps * (2 * w + 1);
    uint64_t *mlines = scratch, *mpoints = scratch + (size_t)slots * nsteps * 2 * n;
    for (int s = 0; s < slots; s++)
        for (int k = 0; k < nsteps; k++) {
            const unsigned char *line = prepared + s * slotbytes + (size_t)k * 2 * w;
            uint64_t *mline = mlines + ((size_t)s * nsteps + k) * 2 * n;
            load(n, &f, mline, line);
            load(n, &f, mline + n, line + w);
        }
    for (int t = 0; t < tuples; t++) {
        const unsigned char *on = active + (size_t)t * slots;
        for (int s = 0; s < slots; s++)
            if (on[s])
                load_point(n, &f, mpoints + 2 * (size_t)s * n, mpoints + (2 * (size_t)s + 1) * n,
                           points + ((size_t)t * slots + s) * 2 * w);
        uint64_t *f0 = out + (size_t)t * 2 * n, *f1 = f0 + n, a[MAX_LIMBS], b[MAX_LIMBS],
                 c[MAX_LIMBS];
        memcpy(f0, f.one, w);
        memset(f1, 0, w);
        for (int k = 0; k < nsteps; k++) {
            if (steps[k]) /* f^2 */
                fp2_square(n, &f, f0, f1, f0, f1);
            for (int s = 0; s < slots; s++) {
                const unsigned char *has_line = prepared + s * slotbytes + (size_t)nsteps * 2 * w;
                if (!on[s] || !has_line[k])
                    continue;
                const uint64_t *lam = mlines + ((size_t)s * nsteps + k) * 2 * n, *cc = lam + n;
                const uint64_t *xm = mpoints + 2 * (size_t)s * n, *ym = xm + n;
                /* the line at (-xm, i*ym) is g = (lam*xm - c) + i*ym, and f*g
                   takes three products: f0*a - f1*ym and
                   (f0 + f1)(a + ym) - f0*a - f1*ym */
                mul(n, &f, a, lam, xm);
                sub(n, &f, a, a, cc);
                add(n, &f, b, f0, f1);
                add(n, &f, c, a, ym);
                mul(n, &f, b, b, c);
                mul(n, &f, a, f0, a);
                mul(n, &f, c, f1, ym);
                sub(n, &f, f0, a, c);
                sub(n, &f, b, b, a);
                sub(n, &f, f1, b, c);
            }
        }
    }
    uint64_t l[MAX_LIMBS];
    memcpy(l, cofactor, w);
    return final_exps(n, &f, l, tuples, scratch + ((size_t)slots * nsteps + slots) * 2 * n, out);
}

/* point: x then y */
int shrq_walk(int n, const unsigned char *fieldbytes, const unsigned char *point,
              const unsigned char *steps, int nsteps)
{
    if (n < 1 || n > MAX_LIMBS)
        return -1;
    field f;
    load_field(n, &f, fieldbytes);
    uint64_t bx[MAX_LIMBS], by[MAX_LIMBS];
    load_point(n, &f, bx, by, point);
    return walk_n(n, &f, bx, by, steps, nsteps, NULL);
}

/* point: x then y; scratch: (nsteps + 1) * 5 * n limbs;
   slot: nsteps * (16 * n + 1) bytes, lines then flags */
int shrq_prepare(int n, const unsigned char *fieldbytes, const unsigned char *point,
                 const unsigned char *steps, int nsteps, uint64_t *scratch, unsigned char *slot)
{
    if (n < 1 || n > MAX_LIMBS)
        return -1;
    return prepare_n(n, fieldbytes, point, steps, nsteps, scratch, slot);
}

/* cofactor: l, n limbs; prepared: slots prepared slots of nsteps * (16 * n + 1) bytes each;
   points: tuples * slots * (x, y), active: tuples * slots flags;
   scratch: (slots * nsteps + slots + tuples) * 2 * n limbs;
   out: tuples * (a, b) */
int shrq_miller(int n, const unsigned char *fieldbytes, const unsigned char *cofactor,
                const unsigned char *steps, int nsteps, int slots, const unsigned char *prepared,
                int tuples, const unsigned char *points, const unsigned char *active,
                uint64_t *scratch, uint64_t *out)
{
    if (n < 1 || n > MAX_LIMBS)
        return -1;
    return miller_n(n, fieldbytes, cofactor, steps, nsteps, slots, prepared, tuples, points,
                    active, scratch, out);
}
