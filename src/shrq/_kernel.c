/* The curveA1 loops of shrq.pairing over Montgomery arithmetic.
 *
 * An element of F_p is n little-endian 64-bit limbs, n <= MAX_LIMBS, kept
 * in Montgomery form a*R mod p with R = 2^(64n); products are CIOS
 * (Koc, Acar & Kaliski, IEEE Micro 16(3), 1996).  Every input is a byte
 * string of limbs in normal form, read with memcpy, and every output is
 * written in normal form.  The field arrives as p, R^2 mod p and
 * -p^-1 mod 2^64, in that order.
 *
 *   shrq_walk   the Jacobian walk of prepare and decode: from the affine
 *               point b, a doubling per nonzero step byte and a mixed
 *               addition of b per zero one, by the formulas and branches
 *               of CurveGroup._jac_double and _jac_madd.  It stores every
 *               point it reaches as (X, Y, Z, n) when walk is not NULL, and
 *               returns 1 if the last Z is 0, else 0.
 *   shrq_miller the Miller product of pair_products: per tuple, one
 *               squaring chain with every active slot's prepared line
 *               (lam, c) evaluated at its distorted point (-x, i*y), before
 *               the final exponentiation.  It writes f = f0 + f1*i per
 *               tuple.
 *
 * Both return -1, and write nothing, for n outside 1..MAX_LIMBS, which
 * shrq_max_limbs gives.  The caller sizes every array from n, the step
 * count, the slot count and the tuple count, and passes only ints below p;
 * nothing here parses bytes from a peer.  Nothing is static but code, so
 * calls on separate buffers may run at once.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define MAX_LIMBS 32
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

/* the normal form of a, to dst */
static void store(int n, const field *f, uint64_t *dst, const uint64_t *a)
{
    mul(n, f, dst, a, f->unit);
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

static void store_point(int n, const field *f, uint64_t *dst, const jac *a)
{
    store(n, f, dst, a->x);
    store(n, f, dst + n, a->y);
    store(n, f, dst + 2 * n, a->z);
    store(n, f, dst + 3 * n, a->m);
}

static int walk_n(int n, const unsigned char *fieldbytes, const unsigned char *point,
                  const unsigned char *steps, int nsteps, uint64_t *walk)
{
    field f;
    load_field(n, &f, fieldbytes);
    uint64_t bx[MAX_LIMBS], by[MAX_LIMBS];
    load(n, &f, bx, point);
    load(n, &f, by, point + sizeof(uint64_t) * n);
    jac pt;
    memcpy(pt.x, bx, sizeof(uint64_t) * n);
    memcpy(pt.y, by, sizeof(uint64_t) * n);
    memcpy(pt.z, f.one, sizeof(uint64_t) * n);
    memset(pt.m, 0, sizeof(uint64_t) * n);
    if (walk)
        store_point(n, &f, walk, &pt);
    for (int k = 0; k < nsteps; k++) {
        if (steps[k])
            jac_double(n, &f, &pt, &pt);
        else
            jac_madd(n, &f, &pt, &pt, bx, by);
        if (walk)
            store_point(n, &f, walk + (size_t)(k + 1) * 4 * n, &pt);
    }
    return is_zero(n, pt.z);
}

static void miller_n(int n, const unsigned char *fieldbytes, const unsigned char *steps,
                     int nsteps, int slots, const unsigned char *lines,
                     const unsigned char *has_line, int tuples, const unsigned char *points,
                     const unsigned char *active, uint64_t *scratch, uint64_t *out)
{
    field f;
    load_field(n, &f, fieldbytes);
    size_t w = sizeof(uint64_t) * n;
    uint64_t *mlines = scratch, *mpoints = scratch + (size_t)slots * nsteps * 2 * n;
    for (size_t k = 0; k < (size_t)slots * nsteps; k++)
        if (has_line[k]) {
            load(n, &f, mlines + 2 * k * n, lines + 2 * k * w);
            load(n, &f, mlines + (2 * k + 1) * n, lines + (2 * k + 1) * w);
        }
    for (int t = 0; t < tuples; t++) {
        const unsigned char *on = active + (size_t)t * slots;
        for (int s = 0; s < slots; s++)
            if (on[s]) {
                const unsigned char *src = points + ((size_t)t * slots + s) * 2 * w;
                load(n, &f, mpoints + 2 * (size_t)s * n, src);
                load(n, &f, mpoints + (2 * (size_t)s + 1) * n, src + w);
            }
        uint64_t f0[MAX_LIMBS], f1[MAX_LIMBS], a[MAX_LIMBS], b[MAX_LIMBS], c[MAX_LIMBS];
        memcpy(f0, f.one, w);
        memset(f1, 0, w);
        for (int k = 0; k < nsteps; k++) {
            if (steps[k]) { /* f^2 = (f0 + f1)(f0 - f1) + 2*f0*f1*i */
                add(n, &f, a, f0, f1);
                sub(n, &f, b, f0, f1);
                mul(n, &f, f1, f0, f1);
                add(n, &f, f1, f1, f1);
                mul(n, &f, f0, a, b);
            }
            for (int s = 0; s < slots; s++) {
                size_t line = (size_t)s * nsteps + k;
                if (!on[s] || !has_line[line])
                    continue;
                const uint64_t *lam = mlines + 2 * line * n, *cc = lam + n;
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
        store(n, &f, out + (size_t)t * 2 * n, f0);
        store(n, &f, out + ((size_t)t * 2 + 1) * n, f1);
    }
}

/* point: x then y; walk: NULL, or (nsteps + 1) * 4 * n limbs */
int shrq_walk(int n, const unsigned char *fieldbytes, const unsigned char *point,
              const unsigned char *steps, int nsteps, uint64_t *walk)
{
    if (n < 1 || n > MAX_LIMBS)
        return -1;
    return walk_n(n, fieldbytes, point, steps, nsteps, walk);
}

/* lines: slots * nsteps * (lam, c), has_line: slots * nsteps flags;
   points: tuples * slots * (x, y), active: tuples * slots flags;
   scratch: (slots * nsteps + slots) * 2 * n limbs;
   out: tuples * (f0, f1) */
int shrq_miller(int n, const unsigned char *fieldbytes, const unsigned char *steps, int nsteps,
                int slots, const unsigned char *lines, const unsigned char *has_line,
                int tuples, const unsigned char *points, const unsigned char *active,
                uint64_t *scratch, uint64_t *out)
{
    if (n < 1 || n > MAX_LIMBS)
        return -1;
    miller_n(n, fieldbytes, steps, nsteps, slots, lines, has_line, tuples, points, active, scratch,
             out);
    return 0;
}

int shrq_max_limbs(void)
{
    return MAX_LIMBS;
}
