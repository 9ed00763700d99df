//! NIST P-256 (secp256r1): the curve of the paper's primary ASIC baseline
//! (Knežević et al. \[5\]) and of several FPGA rows of Table II.
//!
//! `y² = x³ − 3x + b` over `p = 2^256 − 2^224 + 2^192 + 2^96 − 1`,
//! implemented with Montgomery field arithmetic and Jacobian projective
//! coordinates. Correctness is established structurally (generator
//! satisfies the curve equation, `[n]G = O`, scalar-multiplication
//! homomorphism) in the test suite.
#![allow(clippy::needless_range_loop)] // limb loops are clearer indexed

use crate::mont::{pow, FeLike, MontFe, MontField};
use fourq_fp::{Choice, U256};

/// Complete (exception-free) point addition in homogeneous projective
/// coordinates `(X : Y : Z)` for a short-Weierstrass curve with `a = −3`
/// — Renes–Costello–Batina 2015, Algorithm 4. `b` is the curve constant.
///
/// Cost: 14 multiplications (two of them by `b`) + 29
/// additions/subtractions; no doubling/infinity special cases.
pub fn add_complete<T: FeLike>(p: &[T; 3], q: &[T; 3], b: &T) -> [T; 3] {
    let (x1, y1, z1) = (&p[0], &p[1], &p[2]);
    let (x2, y2, z2) = (&q[0], &q[1], &q[2]);
    let t0 = x1.mul(x2);
    let t1 = y1.mul(y2);
    let t2 = z1.mul(z2);
    let t3 = x1.add(y1);
    let t4 = x2.add(y2);
    let t3 = t3.mul(&t4);
    let t4 = t0.add(&t1);
    let t3 = t3.sub(&t4);
    let t4 = y1.add(z1);
    let x3 = y2.add(z2);
    let t4 = t4.mul(&x3);
    let x3 = t1.add(&t2);
    let t4 = t4.sub(&x3);
    let x3 = x1.add(z1);
    let y3 = x2.add(z2);
    let x3 = x3.mul(&y3);
    let y3 = t0.add(&t2);
    let y3 = x3.sub(&y3);
    let z3 = b.mul(&t2);
    let x3 = y3.sub(&z3);
    let z3 = x3.add(&x3);
    let x3 = x3.add(&z3);
    let z3 = t1.sub(&x3);
    let x3 = t1.add(&x3);
    let y3 = b.mul(&y3);
    let t1 = t2.add(&t2);
    let t2 = t1.add(&t2);
    let y3 = y3.sub(&t2);
    let y3 = y3.sub(&t0);
    let t1 = y3.add(&y3);
    let y3 = t1.add(&y3);
    let t1 = t0.add(&t0);
    let t0 = t1.add(&t0);
    let t0 = t0.sub(&t2);
    let t1 = t4.mul(&y3);
    let t2 = t0.mul(&y3);
    let y3 = x3.mul(&z3);
    let y3 = y3.add(&t2);
    let x3 = t3.mul(&x3);
    let x3 = x3.sub(&t1);
    let z3 = t4.mul(&z3);
    let t1 = t3.mul(&t0);
    let z3 = z3.add(&t1);
    [x3, y3, z3]
}

/// Complete point doubling in homogeneous projective coordinates for a
/// short-Weierstrass curve with `a = −3` — Renes–Costello–Batina 2015,
/// Algorithm 6. Cost: 10 multiplications (two by `b`) + 3 squarings +
/// 21 additions/subtractions.
pub fn double_complete<T: FeLike>(p: &[T; 3], b: &T) -> [T; 3] {
    let (x, y, z) = (&p[0], &p[1], &p[2]);
    let t0 = x.sqr();
    let t1 = y.sqr();
    let t2 = z.sqr();
    let t3 = x.mul(y);
    let t3 = t3.add(&t3);
    let z3 = x.mul(z);
    let z3 = z3.add(&z3);
    let y3 = b.mul(&t2);
    let y3 = y3.sub(&z3);
    let x3 = y3.add(&y3);
    let y3 = x3.add(&y3);
    let x3 = t1.sub(&y3);
    let y3 = t1.add(&y3);
    let y3 = x3.mul(&y3);
    let x3 = x3.mul(&t3);
    let t3 = t2.add(&t2);
    let t2 = t2.add(&t3);
    let z3 = b.mul(&z3);
    let z3 = z3.sub(&t2);
    let z3 = z3.sub(&t0);
    let t3 = z3.add(&z3);
    let z3 = z3.add(&t3);
    let t3 = t0.add(&t0);
    let t0 = t3.add(&t0);
    let t0 = t0.sub(&t2);
    let t0 = t0.mul(&z3);
    let y3 = y3.add(&t0);
    let t0 = y.mul(z);
    let t0 = t0.add(&t0);
    let z3 = t0.mul(&z3);
    let x3 = x3.sub(&z3);
    let z3 = t0.mul(&t1);
    let z3 = z3.add(&z3);
    let z3 = z3.add(&z3);
    [x3, y3, z3]
}

/// `[k]P` as one uniform program: from the accumulator `r0` (the
/// homogeneous identity `(0 : 1 : 0)`), each of the 256 iterations runs
/// [`double_complete`] *and* [`add_complete`] with the base, and select
/// line `s` (bit `255 − s` of `k`, [`P256::select_bits`]) keeps one
/// result per coordinate. The affine exit inverts `Z` by [`pow`] on the
/// public exponent `p − 2` and leaves the Montgomery domain by
/// multiplying with `rawone` (the raw integer 1). Returns plain `[x, y]`;
/// a result at infinity (`Z = 0`) exponentiates to `[0, 0]` without a
/// branch.
///
/// [`P256::scalar_mul_complete`] runs it on host integers and
/// `fourq-trace` records it as the P-256 kernel; the operation sequence
/// is the same for every `(k, P)`, the identity base included.
// ct: secret(bits)
pub fn scalar_mul_program<T: FeLike>(
    field: &MontField,
    base: &[T; 3],
    b: &T,
    r0: &[T; 3],
    rawone: &T,
    bits: &[Choice; 256],
) -> [T; 2] {
    let mut r = r0.clone();
    for (s, &c) in bits.iter().enumerate() {
        let d = double_complete(&r, b);
        let t = add_complete(&d, base, b);
        r = [
            T::select(s, c, &d[0], &t[0]),
            T::select(s, c, &d[1], &t[1]),
            T::select(s, c, &d[2], &t[2]),
        ];
    }
    let zinv = pow(&r[2], &field.p_minus_2());
    [r[0].mul(&zinv).mul(rawone), r[1].mul(&zinv).mul(rawone)]
}

/// The P-256 curve context (field, constants, generator).
#[derive(Clone, Copy, Debug)]
pub struct P256 {
    /// Field of definition.
    pub field: MontField,
    /// Curve constant `b` (Montgomery form).
    b: U256,
    /// `a = −3` (Montgomery form).
    a: U256,
    /// Group order `n`.
    pub order: U256,
    /// Generator x (Montgomery form).
    gx: U256,
    /// Generator y (Montgomery form).
    gy: U256,
}

/// A Jacobian point `(X : Y : Z)`, `x = X/Z²`, `y = Y/Z³`; `Z = 0` encodes
/// the point at infinity.
#[derive(Clone, Copy, Debug)]
pub struct Jacobian {
    x: U256,
    y: U256,
    z: U256,
}

/// An affine P-256 point or infinity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Affine {
    /// The point at infinity.
    Infinity,
    /// A finite point (plain, non-Montgomery coordinates).
    Point {
        /// x-coordinate.
        x: U256,
        /// y-coordinate.
        y: U256,
    },
}

/// The field modulus `p = 2^256 − 2^224 + 2^192 + 2^96 − 1`.
const P: U256 = U256([u64::MAX, 0x0000_0000_ffff_ffff, 0, 0xffff_ffff_0000_0001]);

impl Affine {
    /// The 64-byte little-endian `x ‖ y` encoding; all-zero encodes the
    /// point at infinity (`(0, 0)` is not on the curve, so the encoding
    /// is unambiguous).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        if let Affine::Point { x, y } = self {
            out[..32].copy_from_slice(&x.to_le_bytes());
            out[32..].copy_from_slice(&y.to_le_bytes());
        }
        out
    }

    /// Inverse of [`Affine::to_bytes`]: `None` unless both coordinates
    /// are canonical (`< p`). The curve equation is the caller's check
    /// ([`P256::is_on_curve`]).
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<Affine> {
        let x = U256::from_le_bytes(bytes[..32].try_into().ok()?);
        let y = U256::from_le_bytes(bytes[32..].try_into().ok()?);
        if x.is_zero() && y.is_zero() {
            Some(Affine::Infinity)
        } else if x < P && y < P {
            Some(Affine::Point { x, y })
        } else {
            None
        }
    }
}

impl Default for P256 {
    fn default() -> Self {
        Self::new()
    }
}

impl P256 {
    /// Builds the standard curve context.
    pub fn new() -> P256 {
        let field = MontField::new(P);
        let b = U256::from_hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b")
            .expect("valid b");
        let order =
            U256::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")
                .expect("valid order");
        let gx = U256::from_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296")
            .expect("valid gx");
        let gy = U256::from_hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5")
            .expect("valid gy");
        let three = field.enter(U256::from_u64(3));
        P256 {
            field,
            b: field.enter(b),
            a: field.neg(three),
            order,
            gx: field.enter(gx),
            gy: field.enter(gy),
        }
    }

    /// The curve constant `b` in Montgomery form (the form the complete
    /// formulas and the traced kernel consume).
    pub fn b(&self) -> U256 {
        self.b
    }

    /// The standard generator in plain affine coordinates.
    pub fn generator_affine(&self) -> Affine {
        Affine::Point {
            x: self.field.leave(self.gx),
            y: self.field.leave(self.gy),
        }
    }

    /// The standard generator.
    pub fn generator(&self) -> Jacobian {
        Jacobian {
            x: self.gx,
            y: self.gy,
            z: self.field.enter(U256::ONE),
        }
    }

    /// The point at infinity.
    pub fn infinity(&self) -> Jacobian {
        Jacobian {
            x: self.field.enter(U256::ONE),
            y: self.field.enter(U256::ONE),
            z: U256::ZERO,
        }
    }

    /// Whether an affine point satisfies the curve equation.
    pub fn is_on_curve(&self, pt: &Affine) -> bool {
        match pt {
            Affine::Infinity => true,
            Affine::Point { x, y } => {
                let f = &self.field;
                let xm = f.enter(*x);
                let ym = f.enter(*y);
                let lhs = f.sqr(ym);
                let rhs = f.add(f.add(f.mul(f.sqr(xm), xm), f.mul(self.a, xm)), self.b);
                lhs == rhs
            }
        }
    }

    /// Jacobian doubling (a = −3 optimised form).
    pub fn double(&self, p: &Jacobian) -> Jacobian {
        let f = &self.field;
        if p.z.is_zero() || p.y.is_zero() {
            return self.infinity();
        }
        // delta = Z², gamma = Y², beta = X·gamma,
        // alpha = 3(X−delta)(X+delta)   [uses a = −3]
        let delta = f.sqr(p.z);
        let gamma = f.sqr(p.y);
        let beta = f.mul(p.x, gamma);
        let alpha = {
            let t = f.mul(f.sub(p.x, delta), f.add(p.x, delta));
            f.add(f.dbl(t), t)
        };
        let x3 = f.sub(f.sqr(alpha), f.dbl(f.dbl(f.dbl(beta))));
        let z3 = f.sub(f.sqr(f.add(p.y, p.z)), f.add(gamma, delta));
        let y3 = f.sub(
            f.mul(alpha, f.sub(f.dbl(f.dbl(beta)), x3)),
            f.dbl(f.dbl(f.dbl(f.sqr(gamma)))),
        );
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Jacobian addition (general; handles doubling and infinity inputs).
    pub fn add(&self, p: &Jacobian, q: &Jacobian) -> Jacobian {
        let f = &self.field;
        if p.z.is_zero() {
            return *q;
        }
        if q.z.is_zero() {
            return *p;
        }
        let z1z1 = f.sqr(p.z);
        let z2z2 = f.sqr(q.z);
        let u1 = f.mul(p.x, z2z2);
        let u2 = f.mul(q.x, z1z1);
        let s1 = f.mul(f.mul(p.y, q.z), z2z2);
        let s2 = f.mul(f.mul(q.y, p.z), z1z1);
        if u1 == u2 {
            if s1 == s2 {
                return self.double(p);
            }
            return self.infinity();
        }
        let h = f.sub(u2, u1);
        let i = f.sqr(f.dbl(h));
        let j = f.mul(h, i);
        let r = f.dbl(f.sub(s2, s1));
        let v = f.mul(u1, i);
        let x3 = f.sub(f.sub(f.sqr(r), j), f.dbl(v));
        let y3 = f.sub(f.mul(r, f.sub(v, x3)), f.dbl(f.mul(s1, j)));
        let z3 = f.mul(f.sub(f.sqr(f.add(p.z, q.z)), f.add(z1z1, z2z2)), h);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Scalar multiplication by plain double-and-add (MSB first).
    pub fn scalar_mul(&self, k: &U256, p: &Jacobian) -> Jacobian {
        let mut acc = self.infinity();
        let bits = k.bits();
        for i in (0..bits as usize).rev() {
            acc = self.double(&acc);
            if k.bit(i) {
                acc = self.add(&acc, p);
            }
        }
        acc
    }

    /// Converts to affine coordinates.
    pub fn to_affine(&self, p: &Jacobian) -> Affine {
        let f = &self.field;
        if p.z.is_zero() {
            return Affine::Infinity;
        }
        let zi = f.inv(p.z);
        let zi2 = f.sqr(zi);
        let zi3 = f.mul(zi2, zi);
        Affine::Point {
            x: f.leave(f.mul(p.x, zi2)),
            y: f.leave(f.mul(p.y, zi3)),
        }
    }

    /// Select line `s` of [`scalar_mul_program`]: bit `255 − s` of `k`
    /// (MSB first).
    // ct: secret(k)
    pub fn select_bits(k: &U256) -> [Choice; 256] {
        core::array::from_fn(|s| Choice::from_bit(u64::from(k.bit(255 - s))))
    }

    /// The homogeneous projective `[X, Y, Z]` of `p` in Montgomery form,
    /// the base-point inputs of [`scalar_mul_program`]; infinity is
    /// `(0 : 1 : 0)`, whose addition the complete formulas handle exactly.
    pub fn enter_point(&self, p: &Affine) -> [U256; 3] {
        let f = &self.field;
        match p {
            Affine::Infinity => [U256::ZERO, f.enter(U256::ONE), U256::ZERO],
            Affine::Point { x, y } => [f.enter(*x), f.enter(*y), f.enter(U256::ONE)],
        }
    }

    /// Branch-free always-double-and-add scalar multiplication over the
    /// complete formulas: [`scalar_mul_program`] on host integers, the
    /// code the compiled P-256 kernel replays.
    // ct: secret(k)
    pub fn scalar_mul_complete(&self, k: &U256, p: &Affine) -> Affine {
        let f = &self.field;
        let fe = |v| MontFe::new(f, v);
        let (zero, one) = (fe(U256::ZERO), fe(f.enter(U256::ONE)));
        let [x, y] = scalar_mul_program(
            f,
            &self.enter_point(p).map(fe),
            &fe(self.b),
            &[zero, one, zero],
            &fe(U256::ONE),
            &Self::select_bits(k),
        );
        if x.value.is_zero() && y.value.is_zero() {
            Affine::Infinity
        } else {
            Affine::Point {
                x: x.value,
                y: y.value,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_on_curve() {
        let c = P256::new();
        let g = c.to_affine(&c.generator());
        assert!(c.is_on_curve(&g));
        assert_ne!(g, Affine::Infinity);
    }

    #[test]
    fn order_annihilates_generator() {
        let c = P256::new();
        let o = c.scalar_mul(&c.order, &c.generator());
        assert_eq!(c.to_affine(&o), Affine::Infinity);
    }

    #[test]
    fn group_law_consistency() {
        let c = P256::new();
        let g = c.generator();
        // [2]G + G == [3]G
        let two_g = c.double(&g);
        let three_g = c.add(&two_g, &g);
        let three_g2 = c.scalar_mul(&U256::from_u64(3), &g);
        assert_eq!(c.to_affine(&three_g), c.to_affine(&three_g2));
    }

    #[test]
    fn scalar_mul_homomorphism() {
        let c = P256::new();
        let g = c.generator();
        let a = U256::from_u64(123457);
        let b = U256::from_u64(987651);
        let ab = U256::rem_wide(&a.widening_mul(&b), &c.order);
        let lhs = c.scalar_mul(&a, &c.scalar_mul(&b, &g));
        let rhs = c.scalar_mul(&ab, &g);
        assert_eq!(c.to_affine(&lhs), c.to_affine(&rhs));
    }

    #[test]
    fn doubling_infinity_is_infinity() {
        let c = P256::new();
        let inf = c.infinity();
        assert_eq!(c.to_affine(&c.double(&inf)), Affine::Infinity);
        let g = c.generator();
        assert_eq!(c.to_affine(&c.add(&inf, &g)), c.to_affine(&g));
    }

    #[test]
    fn complete_formulas_match_jacobian() {
        let c = P256::new();
        let g = c.generator();
        let ga = c.to_affine(&g);
        for k in [0u64, 1, 2, 3, 5, 1023, 0xdead_beef, u64::MAX] {
            let k = U256::from_u64(k);
            let expect = c.to_affine(&c.scalar_mul(&k, &g));
            assert_eq!(c.scalar_mul_complete(&k, &ga), expect, "k = {k:?}");
        }
        // Full-width scalar, a non-generator base, and the group order.
        let k = U256::from_hex("c51e4753afdec1e6b6c6a5b992f43f8dd0c7a8933072708b6522468b2ffb06fd")
            .unwrap();
        assert_eq!(
            c.scalar_mul_complete(&k, &ga),
            c.to_affine(&c.scalar_mul(&k, &g))
        );
        let p = c.scalar_mul(&U256::from_u64(0xabcdef), &g);
        let pa = c.to_affine(&p);
        assert_eq!(
            c.scalar_mul_complete(&k, &pa),
            c.to_affine(&c.scalar_mul(&k, &p))
        );
        assert_eq!(c.scalar_mul_complete(&c.order, &ga), Affine::Infinity);
    }

    #[test]
    fn point_encoding_roundtrips_and_rejects_non_canonical() {
        let c = P256::new();
        assert_eq!(c.field.p, P);
        let g = c.generator_affine();
        assert_eq!(Affine::from_bytes(&g.to_bytes()), Some(g));
        assert_eq!(Affine::Infinity.to_bytes(), [0u8; 64]);
        assert_eq!(Affine::from_bytes(&[0u8; 64]), Some(Affine::Infinity));
        // `p` encodes the residue 0 but is not canonical, in either
        // coordinate.
        for half in [0..32, 32..64] {
            let mut bad = g.to_bytes();
            bad[half].copy_from_slice(&P.to_le_bytes());
            assert_eq!(Affine::from_bytes(&bad), None);
        }
    }

    #[test]
    fn complete_ladder_handles_infinity_base() {
        let c = P256::new();
        assert_eq!(
            c.scalar_mul_complete(&U256::from_u64(7), &Affine::Infinity),
            Affine::Infinity
        );
    }

    #[test]
    fn generator_affine_on_curve() {
        let c = P256::new();
        let g = c.generator_affine();
        assert!(c.is_on_curve(&g));
        assert_eq!(g, c.to_affine(&c.generator()));
    }

    #[test]
    fn add_inverse_gives_infinity() {
        let c = P256::new();
        let g = c.generator();
        let f = &c.field;
        let neg_g = Jacobian {
            x: g.x,
            y: f.neg(g.y),
            z: g.z,
        };
        assert_eq!(c.to_affine(&c.add(&g, &neg_g)), Affine::Infinity);
    }
}
