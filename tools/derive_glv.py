#!/usr/bin/env python3
"""Derive FourQ's endomorphisms psi7, psi8 and the 4-D GLV lattice of the
whole group E(F_p^2), and write them as crates/curve/src/glv_consts.rs.

Usage:
    python3 tools/derive_glv.py           # rewrite the Rust module
    python3 tools/derive_glv.py --check   # regenerate and diff against it

Pure standard library with a fixed seed, so the output is reproducible byte
for byte. Every step asserts its own result; the Rust test suite re-checks
the emitted constants independently (crates/curve/src/glv.rs).

The recipe, from p and N alone:

1. t = p^2 + 1 - 392*N is the trace of the p^2-Frobenius pi. The value
   c = sqrt((4p^2 - t^2)/40) is exact, and s = (1 - t/2)/c mod N is the
   square root of -10 under which pi acts as 1 on the order-N subgroup.
2. Inseparable endomorphisms a + b*sqrt(-10) (b even: End(E) has
   conductor 2) lie in the lattice {(a, b) : a = r*b mod p, b even} with
   r^2 = -10 mod p. Gauss reduction under a^2 + 10*b^2 finds the elements
   of norm 7p and 8p. Each acts on the order-N subgroup as lambda = a + b*s.
3. Random order-N points P and [lambda]P fix each map by linear algebra
   over F_p^2. With w = conj(y)^2, psi8 is y' = A(w)/B(w),
   x' = conj(x)*conj(y)*C(w)/E(w) (degree 4 in w) and psi7 is
   y' = conj(y)*A(w)/B(w), x' = conj(x)*C(w)/E(w) (degree 3 in w).
4. The maps act on the 392-torsion Z/8 x (Z/7)^2 too. The lattice of
   x in Z^4 with [x0 + x1*psi7 + x2*psi8 + x3*psi7*psi8]P = O for every
   P in E(F_p^2) has det 392*N; LLL reduces it. Babai rounding on that
   basis plus a lattice offset vector splits any k into four non-negative
   sub-scalars with [a0 + a1*psi7 + a2*psi8 + a3*psi7*psi8]P = [k]P on
   every on-curve point, torsion included.
"""

import difflib
import math
import os
import random
import sys
from fractions import Fraction

SEED = 0x4651  # fixed: the emitted module must be reproducible
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "crates", "curve",
                   "src", "glv_consts.rs")

P = 2**127 - 1
N = 0x29CBC14E5E0A72F05397829CBC14E5DFBD004DFE0F79992FB2540EC7768CE7
COFACTOR = 392
D = (0xE40000000000000142, 0x5E472F846657E0FCB3821488F1FC0C8D)
ONE, ZERO = (1, 0), (0, 0)

# ---- F_p^2 = F_p[i]/(i^2 + 1), elements (re, im) -------------------------


def add(a, b): return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)
def sub(a, b): return ((a[0] - b[0]) % P, (a[1] - b[1]) % P)
def neg(a): return ((-a[0]) % P, (-a[1]) % P)
def conj(a): return (a[0], (-a[1]) % P)


def mul(a, b):
    return ((a[0] * b[0] - a[1] * b[1]) % P, (a[0] * b[1] + a[1] * b[0]) % P)


def inv(a):
    n = pow((a[0] * a[0] + a[1] * a[1]) % P, P - 2, P)
    return (a[0] * n % P, (-a[1]) * n % P)


def sqrt_fp(a):
    r = pow(a, (P + 1) // 4, P)  # p = 3 mod 4
    return r if r * r % P == a % P else None


def sqrt_fp2(a):
    if a == ZERO:
        return ZERO
    n = sqrt_fp((a[0] * a[0] + a[1] * a[1]) % P)
    if n is None:
        return None
    half = (P + 1) // 2
    for s in (n, P - n):
        t = sqrt_fp((a[0] + s) * half % P)
        if t:
            root = (t, a[1] * pow(2 * t, P - 2, P) % P)
            if mul(root, root) == a:
                return root
    t = sqrt_fp((-a[0]) % P)  # purely imaginary root
    return (0, t) if t is not None and mul((0, t), (0, t)) == a else None


# ---- the curve -x^2 + y^2 = 1 + d x^2 y^2, affine and projective -------------

IDENT = (ZERO, ONE)


def on_curve(pt):
    x2, y2 = mul(pt[0], pt[0]), mul(pt[1], pt[1])
    return sub(y2, x2) == add(ONE, mul(D, mul(x2, y2)))


def proj_add(p1, p2):
    # complete twisted Edwards addition, a = -1 (add-2008-bbjlp)
    (x1, y1, z1), (x2, y2, z2) = p1, p2
    a = mul(z1, z2)
    b = mul(a, a)
    c, dd = mul(x1, x2), mul(y1, y2)
    e = mul(D, mul(c, dd))
    f, g = sub(b, e), add(b, e)
    x3 = mul(mul(a, f), sub(sub(mul(add(x1, y1), add(x2, y2)), c), dd))
    return (x3, mul(mul(a, g), add(dd, c)), mul(f, g))


def affine(pt):
    zi = inv(pt[2])
    return (mul(pt[0], zi), mul(pt[1], zi))


def padd(p1, p2):
    return affine(proj_add((p1[0], p1[1], ONE), (p2[0], p2[1], ONE)))


def smul(k, pt):
    """[k]pt by double-and-add (k >= 0)."""
    acc, base = (ZERO, ONE, ONE), (pt[0], pt[1], ONE)
    for i in reversed(range(k.bit_length())):
        acc = proj_add(acc, acc)
        if (k >> i) & 1:
            acc = proj_add(acc, base)
    return affine(acc)


def random_point(rng):
    while True:
        y = (rng.randrange(P), rng.randrange(P))
        y2 = mul(y, y)
        x = sqrt_fp2(mul(sub(y2, ONE), inv(add(mul(D, y2), ONE))))
        if x is not None:
            assert on_curve((x, y))
            return (x, y)


def subgroup_point(rng):
    while True:
        pt = smul(COFACTOR, random_point(rng))
        if pt != IDENT:
            return pt


# ---- step 1: Frobenius and sqrt(-10) mod N -----------------------------------


def frobenius():
    t = P * P + 1 - COFACTOR * N
    c = math.isqrt((4 * P * P - t * t) // 40)
    assert 40 * c * c == 4 * P * P - t * t, "discriminant is -40 c^2"
    s = (1 - t // 2) * pow(c, -1, N) % N
    assert (s * s + 10) % N == 0
    return s


# ---- step 2: the short inseparable elements ----------------------------------


def short_elements():
    """Norm-7p and norm-8p elements (a, b) with a = r*b mod p, b even."""
    r = sqrt_fp(P - 10)
    assert r is not None
    q = lambda v: v[0] * v[0] + 10 * v[1] * v[1]
    ip = lambda u, v: u[0] * v[0] + 10 * u[1] * v[1]
    u, v = (P, 0), (2 * r % P, 2)
    if q(u) > q(v):
        u, v = v, u
    while True:  # Lagrange-Gauss reduction
        m = round(Fraction(ip(u, v), q(u)))
        v = (v[0] - m * u[0], v[1] - m * u[1])
        if q(v) >= q(u):
            break
        u, v = v, u
    found = {}
    for i in range(-3, 4):
        for j in range(-3, 4):
            a, b = i * u[0] + j * v[0], i * u[1] + j * v[1]
            if a > 0 and q((a, b)) in (7 * P, 8 * P):
                found.setdefault(q((a, b)) // P, (a, b))
    assert sorted(found) == [7, 8], found
    assert min(q(u), q(v)) == 7 * P, "7p is the shortest norm"
    return found


# ---- step 3: fit the maps -----------------------------------------------------


def nullspace(rows, ncols):
    m, pivots = [list(r) for r in rows], []
    for col in range(ncols):
        rank = len(pivots)
        pr = next((i for i in range(rank, len(m)) if m[i][col] != ZERO), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        iv = inv(m[rank][col])
        m[rank] = [mul(e, iv) for e in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != ZERO:
                f = m[i][col]
                m[i] = [sub(e, mul(f, g)) for e, g in zip(m[i], m[rank])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[free] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = neg(m[i][free])
        basis.append(v)
    return basis


def fit(samples, deg):
    """Rational functions num/den of degree `deg` in conj(y) through the
    samples (conj(y), value); returns the null space of the fit."""
    rows = []
    for yb, val in samples:
        pw = [ONE]
        for _ in range(deg):
            pw.append(mul(pw[-1], yb))
        rows.append([neg(e) for e in pw] + [mul(val, e) for e in pw])
    return nullspace(rows, 2 * deg + 2)


def fit_map(points, lam, ydeg, xdeg):
    """(R, S) with y' = R(conj y), x' = conj(x) * S(conj y), or None."""
    images = [smul(lam, pt) for pt in points]
    ys = [(conj(pt[1]), im[1]) for pt, im in zip(points, images)]
    xs = [(conj(pt[1]), mul(im[0], inv(conj(pt[0])))) for pt, im in zip(points, images)]
    r, s = fit(ys, ydeg), fit(xs, xdeg)
    if len(r) != 1 or len(s) != 1:
        assert not r and not s, "a fit is either unique or absent"
        return None
    assert not fit(ys, ydeg - 1) and not fit(xs, xdeg - 1), "degree is minimal"
    return r[0], s[0]


def in_w(vec, deg):
    """Splits a fitted num/den vector into polynomials in w = conj(y)^2,
    denominator monic. Returns (num, den, odd) with num possibly carrying
    one extra factor conj(y) (odd)."""
    num, den = vec[:deg + 1], vec[deg + 1:]
    assert all(den[i] == ZERO for i in range(1, deg + 1, 2)), "even denominator"
    odd = any(num[i] != ZERO for i in range(1, deg + 1, 2))
    assert all(num[i] == ZERO for i in range(int(not odd), deg + 1, 2)), "num has one parity"
    lead = inv(next(c for c in reversed(den) if c != ZERO))
    return ([mul(c, lead) for c in num[int(odd)::2]],
            [mul(c, lead) for c in den[0::2]], odd)


class Endo:
    """y' = conj(y)^y_odd * A(w)/B(w), x' = conj(x) * conj(y)^x_odd * C(w)/E(w)."""

    def __init__(self, name, lam, rvec, ydeg, svec, xdeg):
        self.name, self.lam = name, lam
        a, b, self.y_odd = in_w(rvec, ydeg)
        c, e, self.x_odd = in_w(svec, xdeg)
        n = max(len(a), len(b), len(c), len(e))
        pad = lambda p: p + [ZERO] * (n - len(p))
        self.polys = [pad(a), pad(b), pad(c), pad(e)]
        assert self.polys[1][-1] == ONE, "monic y denominator at full degree"

    def __call__(self, pt):
        x, y = pt
        xb, yb = conj(x), conj(y)
        w = mul(yb, yb)
        a, b, c, e = (horner(p, w) for p in self.polys)
        assert b != ZERO and e != ZERO, "map defined at every rational point"
        yn = mul(yb, a) if self.y_odd else a
        xn = mul(xb, mul(yb, c) if self.x_odd else c)
        return (mul(xn, inv(e)), mul(yn, inv(b)))


def horner(coeffs, w):
    acc = ZERO
    for c in reversed(coeffs):
        acc = add(mul(acc, w), c)
    return acc


def derive_maps(rng, s):
    elems = short_elements()
    points = [subgroup_point(rng) for _ in range(40)]
    maps = {}
    for norm, ydeg, xdeg in ((8, 8, 8), (7, 7, 6)):
        a, b = elems[norm]
        lam = (a + b * s) % N
        got = fit_map(points, lam, ydeg, xdeg)
        assert got is not None, f"psi{norm} exists"
        conj_lam = (a - b * s) % N
        assert fit_map(points[:2 * ydeg + 4], conj_lam, ydeg, xdeg) is None, \
            "the conjugate element has no map of this shape"
        maps[norm] = Endo(f"psi{norm}", lam, got[0], ydeg, got[1], xdeg)
    return maps[7], maps[8]


# ---- step 4: torsion action and the whole-group lattice ----------------------


def small_mul(k, pt):
    acc = IDENT
    for _ in range(k):
        acc = padd(acc, pt)
    return acc


def torsion_action(rng, psi7, psi8):
    """Linear conditions mod 8 and mod 7 for x to kill the 392-torsion."""
    while True:
        t8 = smul(49 * N, random_point(rng))
        if small_mul(4, t8) != IDENT:
            break
    while True:
        t7a = smul(8 * N, random_point(rng))
        if t7a != IDENT:
            break
    span = {small_mul(i, t7a) for i in range(7)}
    while True:
        t7b = smul(8 * N, random_point(rng))
        if t7b not in span:
            break
    # Each map acts on Z/8 as a scalar and on (Z/7)^2 as a 2x2 matrix.
    mu, mats = {}, {}
    grid = {padd(small_mul(i, t7a), small_mul(j, t7b)): (i, j)
            for i in range(7) for j in range(7)}
    for name, psi in (("psi7", psi7), ("psi8", psi8)):
        mu[name] = next(m for m in range(8) if small_mul(m, t8) == psi(t8))
        ca, cb = grid[psi(t7a)], grid[psi(t7b)]
        mats[name] = ((ca[0], cb[0]), (ca[1], cb[1]))
    return mu, mats, (t8, t7a, t7b)


def mat_mul(a, b, m):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) % m for j in range(2))
                 for i in range(2))


def egcd(a, b):
    if b == 0:
        return (abs(a), (1 if a > 0 else -1), 0)
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


def hnf_basis(rows):
    """A basis of the integer row span (rows may be dependent)."""
    rows, basis = [list(r) for r in rows], []
    for col in range(len(rows[0])):
        pivot, rest = None, []
        for r in rows:
            if r[col] == 0:
                rest.append(r)
            elif pivot is None:
                pivot = r
            else:
                g, s, t = egcd(pivot[col], r[col])
                a, b = pivot[col] // g, r[col] // g
                pivot, other = ([s * x + t * y for x, y in zip(pivot, r)],
                                [b * x - a * y for x, y in zip(pivot, r)])
                rest.append(other)
        if pivot is not None:
            basis.append(pivot)
        rows = rest
    return basis


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def lll(basis, delta=Fraction(99, 100)):
    b = [list(r) for r in basis]
    n = len(b)
    dot = lambda u, v: sum(x * y for x, y in zip(u, v))

    def gram_schmidt():
        bs, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = Fraction(dot(b[i], bs[j])) / dot(bs[j], bs[j])
                v = [x - mu[i][j] * y for x, y in zip(v, bs[j])]
            bs.append(v)
        return bs, mu

    k = 1
    bs, mu = gram_schmidt()
    while k < n:
        for j in reversed(range(k)):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                bs, mu = gram_schmidt()
        if dot(bs[k], bs[k]) >= (delta - mu[k][k - 1] ** 2) * dot(bs[k - 1], bs[k - 1]):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            bs, mu = gram_schmidt()
            k = max(k - 1, 1)
    return b


def whole_group_lattice(psi7, psi8, mu, mats):
    l7, l8 = psi7.lam, psi8.lam
    # order N: x0 + x1*l7 + x2*l8 + x3*l7*l8 = 0 mod N
    ln = [[N, 0, 0, 0], [-l7 % N, 1, 0, 0], [-l8 % N, 0, 1, 0], [-l7 * l8 % N, 0, 0, 1]]
    # Z/8: the maps are the scalars mu
    m7, m8 = mu["psi7"], mu["psi8"]
    l8rows = [[8, 0, 0, 0], [-m7 % 8, 1, 0, 0], [-m8 % 8, 0, 1, 0], [-m7 * m8 % 8, 0, 0, 1]]
    # (Z/7)^2: x0*I + x1*M7 + x2*M8 + x3*M7*M8 = 0, four equations mod 7
    ident = ((1, 0), (0, 1))
    gens = [ident, mats["psi7"], mats["psi8"], mat_mul(mats["psi7"], mats["psi8"], 7)]
    eqs = [[g[i][j] for g in gens] for i in range(2) for j in range(2)]
    kernel = [v for v in ((a, b, c, d) for a in range(7) for b in range(7)
                          for c in range(7) for d in range(7))
              if all(sum(e * x for e, x in zip(eq, v)) % 7 == 0 for eq in eqs)]
    assert len(kernel) == 7 ** 2, "the maps generate a 2-dimensional algebra mod 7"
    l7rows = hnf_basis([[7 * (i == j) for j in range(4)] for i in range(4)] + [list(v) for v in kernel])
    # intersections of coprime-index lattices: A ∩ B = [Z^4:B]·A + [Z^4:A]·B
    l56 = hnf_basis([[49 * x for x in r] for r in l8rows] + [[8 * x for x in r] for r in l7rows])
    assert abs(det(l56)) == 392
    full = hnf_basis([[392 * x for x in r] for r in ln] + [[N * x for x in r] for r in l56])
    assert abs(det(full)) == 392 * N
    return full


def kills(x, psi7, psi8, pt):
    """[x0 + x1*psi7 + x2*psi8 + x3*psi7*psi8]pt == O."""
    imgs = [pt, psi7(pt), psi8(pt), psi7(psi8(pt))]
    acc = IDENT
    for coeff, im in zip(x, imgs):
        acc = padd(acc, smul(coeff, im) if coeff >= 0 else smul(-coeff, (neg(im[0]), im[1])))
    return acc == IDENT


# ---- step 5: Babai rounding constants and the offset vector -------------------

def widths(basis):
    """Column L1 norms: the width of each sub-scalar's range under rounding."""
    return [sum(abs(r[j]) for r in basis) for j in range(4)]


def balance(basis):
    """Greedy unimodular row moves b_i += c*b_k that shrink the widest
    sub-scalar range (LLL minimises lengths, not column sums)."""
    basis = [list(r) for r in basis]
    while True:
        score = sorted(widths(basis), reverse=True)
        best = None
        for i in range(4):
            for k in range(4):
                for c in (-3, -2, -1, 1, 2, 3):
                    if i == k:
                        continue
                    trial = [list(r) for r in basis]
                    trial[i] = [x + c * y for x, y in zip(basis[i], basis[k])]
                    got = sorted(widths(trial), reverse=True)
                    if got < score and (best is None or got < best[0]):
                        best = (got, trial)
        if best is None:
            return basis
        basis = best[1]


def inverse(basis):
    dt = det(basis)
    return [[Fraction((-1) ** (i + j) * det([[basis[r][c] for c in range(4) if c != i]
                                              for r in range(4) if r != j]), dt)
             for j in range(4)] for i in range(4)]


def sub_scalar_range(basis, ell, bias, offset):
    """Bounds lo <= a_j < hi, scaled by 2^32, of the rounded split
    a = (k,0,0,0) - sum c_i b_i + offset with
    c_i = floor(g_i), g_i = (k*ell_i + bias_i*2^224)/2^256, for every k < N.

    a_j = offset_j - (bias*B)_j + (k/2^256)*R_j + sum_i (g_i - c_i)*b_ij,
    where R = 2^256*e_0 - ell*B is an exact integer vector, k/2^256 < 2^-10
    and each g_i - c_i lies in [0, 1). Nothing assumes ell is the exact
    inverse row: any ell with a small R gives a valid bound."""
    lo, hi = [], []
    for j in range(4):
        r = (1 << 256) * (j == 0) - sum(e * row[j] for e, row in zip(ell, basis))
        base = (offset[j] << 32) - sum(b * row[j] for b, row in zip(bias, basis))
        col = [row[j] for row in basis]
        lo.append(base + min(0, r << 22) + (sum(min(0, v) for v in col) << 32))
        hi.append(base + max(0, r << 22) + (sum(max(0, v) for v in col) << 32))
    return lo, hi


def rounding_setup(basis):
    """Returns (basis, ell, bias, offset, bits) with every sub-scalar in
    [0, 2^bits) and a_0 <= 2^bits - 2, so the parity step stays in range."""
    basis = balance(basis)
    # Sign the rows so the first row of B^-1 (the Babai multipliers) is >= 0.
    first = inverse(basis)[0]
    basis = [r if first[i] >= 0 else [-x for x in r] for i, r in enumerate(basis)]
    binv = inverse(basis)
    assert all(v >= 0 for v in binv[0])
    ell = [math.floor(v * 2**256) for v in binv[0]]
    w = widths(basis)
    bits = max(v.bit_length() for v in w)
    # Centre each range: solve offset - bias*B = target - B^T(1/2) over the
    # reals, with offset = -m*B (a lattice vector) and bias the fraction.
    target = [Fraction((1 << bits) - 1 - (j == 0), 2) - Fraction(sum(r[j] for r in basis), 2)
              for j in range(4)]
    theta = [-sum(target[j] * binv[j][i] for j in range(4)) for i in range(4)]
    m = [math.floor(t) for t in theta]
    bias = [round((t - mi) * 2**32) for t, mi in zip(theta, m)]
    m = [mi + (b >> 32) for mi, b in zip(m, bias)]
    bias = [b & 0xFFFFFFFF for b in bias]
    offset = [-sum(m[i] * basis[i][j] for i in range(4)) for j in range(4)]
    lo, hi = sub_scalar_range(basis, ell, bias, offset)
    for j in range(4):
        assert lo[j] >= 0 and hi[j] < ((1 << bits) - (j == 0)) << 32, "range fits"
    return basis, ell, bias, offset, bits


def decompose(k, basis, ell, bias, offset):
    c = [(k * e + (b << 224)) >> 256 for e, b in zip(ell, bias)]
    a = [(k if j == 0 else 0) - sum(c[i] * basis[i][j] for i in range(4)) + offset[j]
         for j in range(4)]
    corrected = 1 - (a[0] & 1)
    a[0] += corrected
    return a, corrected


# ---- emission -------------------------------------------------------------------


# A list is an (open, items, close) triple; an item is a string or a list.
# `layout` mirrors rustfmt's defaults so the emitted file is already
# formatted: one line when the items fit in 60 columns and the line in 100,
# else one item per line.


def layout(lst, indent, prefix="", suffix=""):
    opening, items, closing = lst
    parts = [layout(i, indent + 4) if isinstance(i, tuple) else [i] for i in items]
    if all(len(p) == 1 for p in parts):
        inner = ", ".join(p[0] for p in parts)
        line = f"{' ' * indent}{prefix}{opening}{inner}{closing}{suffix}"
        if len(inner) <= 60 and len(line) <= 100:
            return [line]
    lines = [f"{' ' * indent}{prefix}{opening}"]
    for p in parts:
        if len(p) == 1:
            lines.append(f"{' ' * (indent + 4)}{p[0].strip()},")
        else:
            lines.extend(p[:-1] + [p[-1] + ","])
    return lines + [f"{' ' * indent}{closing}{suffix}"]


def fp2_lit(c):
    return ("Fp2::from_u128_pair(", [f"0x{c[0]:032x}", f"0x{c[1]:032x}"], ")")


def u256_lit(v):
    return ("U256([", [f"0x{(v >> (64 * i)) & (2**64 - 1):016x}" for i in range(4)], "])")


def i128_lit(v):
    return f"-0x{-v:x}" if v < 0 else f"0x{v:x}"


def emit(psi7, psi8, basis, ell, bias, offset, bits):
    out = []
    w = out.append
    const = lambda decl, lst: out.extend(layout(lst, 0, f"pub const {decl} = ", ";"))
    w("//! Constants of the 4-D GLV decomposition: FourQ's endomorphisms ψ₇ and")
    w("//! ψ₈, and the reduced lattice of the whole group `E(F_p²)`.")
    w("//!")
    w("//! Generated by `tools/derive_glv.py`; do not edit. Regenerate with")
    w("//! `python3 tools/derive_glv.py`, check with `--check`. The unit tests")
    w("//! of `glv.rs` re-verify every value here without trusting the tool.")
    w("")
    w("use crate::glv::Endomorphism;")
    w("use fourq_fp::{Fp2, U256};")
    w("")
    for psi, deg in ((psi7, "7p"), (psi8, "8p")):
        n = psi.name[-1]
        w(f"/// The eigenvalue of ψ{sub_digit(n)} on the order-`N` subgroup.")
        const(f"LAMBDA{n}: U256", u256_lit(psi.lam))
        w("")
        shape_y = "ȳ·A(w)/B(w)" if psi.y_odd else "A(w)/B(w)"
        shape_x = "x̄·ȳ·C(w)/E(w)" if psi.x_odd else "x̄·C(w)/E(w)"
        w(f"/// ψ{sub_digit(n)}, of degree {deg}: `y′ = {shape_y}`, `x′ = {shape_x}`")
        w("/// with `w = ȳ²`; coefficients lowest degree first.")
        w(f"pub const PSI{n}: Endomorphism<{len(psi.polys[0])}> = Endomorphism {{")
        w(f"    y_odd: {str(psi.y_odd).lower()},")
        w(f"    x_odd: {str(psi.x_odd).lower()},")
        polys = ("[", [("[", [fp2_lit(c) for c in poly], "]") for poly in psi.polys], "]")
        out.extend(layout(polys, 4, "polys: ", ","))
        w("};")
        w("")
    w("/// Rows of a reduced basis of the lattice of `x ∈ Z⁴` with")
    w("/// `[x₀ + x₁·ψ₇ + x₂·ψ₈ + x₃·ψ₇ψ₈]P = O` for every `P ∈ E(F_p²)`;")
    w("/// its determinant is `±392·N`.")
    const("BASIS: [[i128; 4]; 4]", ("[", [("[", [i128_lit(v) for v in r], "]") for r in basis], "]"))
    w("")
    w("/// Babai rounding constants `⌊ℓᵢ·2²⁵⁶⌋`, `ℓ` the first row of `BASIS⁻¹`")
    w("/// (non-negative by the choice of row signs).")
    const("ELL: [U256; 4]", ("[", [u256_lit(e) for e in ell], "]"))
    w("")
    w("/// Rounding biases in units of `2⁻³²`: `cᵢ = ⌊(k·ELLᵢ + BIASᵢ·2²²⁴)/2²⁵⁶⌋`")
    w("/// centres every sub-scalar's range.")
    const("BIAS: [u32; 4]", ("[", [f"0x{b:08x}" for b in bias], "]"))
    w("")
    w("/// A lattice vector that shifts every rounded sub-scalar into")
    w("/// `[0, 2^SUBSCALAR_BITS)`.")
    const("OFFSET: [i128; 4]", ("[", [i128_lit(v) for v in offset], "]"))
    w("")
    w("/// Bits per sub-scalar, after the parity step.")
    w(f"pub const SUBSCALAR_BITS: usize = {bits};")
    return "\n".join(out) + "\n"


def sub_digit(d):
    return "₀₁₂₃₄₅₆₇₈₉"[int(d)]


def derive():
    rng = random.Random(SEED)
    s = frobenius()
    psi7, psi8 = derive_maps(rng, s)
    mu, mats, (t8, t7a, t7b) = torsion_action(rng, psi7, psi8)
    basis = lll(whole_group_lattice(psi7, psi8, mu, mats))
    assert abs(det(basis)) == COFACTOR * N
    basis, ell, bias, offset, bits = rounding_setup(basis)

    # Cross-checks on points whose cofactor is not cleared.
    mixed = [random_point(rng) for _ in range(3)] + [t8, t7a, padd(t8, t7b)]
    for pt in mixed:
        for psi in (psi7, psi8):
            assert on_curve(psi(pt))
        assert psi7(psi8(pt)) == psi8(psi7(pt)), "the maps commute"
        for row in basis + [offset]:
            assert kills(row, psi7, psi8, pt)
    q, r = mixed[0], mixed[1]
    for psi in (psi7, psi8):
        assert psi(padd(q, r)) == padd(psi(q), psi(r)), "additive"
    sub = subgroup_point(rng)
    for psi in (psi7, psi8):
        assert psi(sub) == smul(psi.lam, sub)
    for k in [0, 1, 2, N - 1, N - 2] + [rng.randrange(N) for _ in range(200)]:
        a, corrected = decompose(k, basis, ell, bias, offset)
        assert a[0] & 1 and all(0 <= v < 1 << bits for v in a), (k, a)
        recon = a[0] + a[1] * psi7.lam + a[2] * psi8.lam + a[3] * psi7.lam * psi8.lam
        assert (recon - k - corrected) % N == 0
    pt, k = mixed[0], rng.randrange(N)
    a, corrected = decompose(k, basis, ell, bias, offset)
    imgs = [pt, psi7(pt), psi8(pt), psi7(psi8(pt))]
    acc = IDENT
    for coeff, im in zip(a, imgs):
        acc = padd(acc, smul(coeff, im))
    assert acc == smul(k + corrected, pt), "exact on a mixed-order point"
    return emit(psi7, psi8, basis, ell, bias, offset, bits)


def main(argv):
    if any(a not in ("--check",) for a in argv[1:]):
        print(__doc__)
        return 2
    text = derive()
    if "--check" in argv:
        with open(OUT, encoding="utf-8") as f:
            current = f.read()
        if current != text:
            sys.stdout.writelines(difflib.unified_diff(
                current.splitlines(True), text.splitlines(True),
                "glv_consts.rs (checked in)", "glv_consts.rs (derived)"))
            return 1
        print("glv_consts.rs matches the derivation")
        return 0
    with open(OUT, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"wrote {os.path.relpath(OUT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
