//! Affine FourQ points and the user-facing scalar-multiplication API.

use crate::decompose::{decompose, recode};
use crate::engine::scalar_mul_engine;
use crate::extended::ExtendedPoint;
use crate::params::{D, GENERATOR_X, GENERATOR_Y, ORDER, TWO_D};
use core::fmt;
use fourq_fp::{Fp2, Scalar, U256};

/// An affine point on FourQ (or the neutral element `(0, 1)`).
///
/// ```
/// use fourq_curve::AffinePoint;
/// let g = AffinePoint::generator();
/// assert!(g.is_on_curve());
/// assert_eq!(g.add(&g.neg()), AffinePoint::identity());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AffinePoint {
    /// x-coordinate.
    pub x: Fp2,
    /// y-coordinate.
    pub y: Fp2,
}

/// Error returned when decoding a compressed point fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodePointError {
    /// The encoded y-coordinate does not correspond to any curve point.
    NotOnCurve,
    /// A coordinate component was out of canonical range.
    NonCanonical,
}

impl fmt::Display for DecodePointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodePointError::NotOnCurve => write!(f, "encoding does not decode to a curve point"),
            DecodePointError::NonCanonical => write!(f, "coordinate encoding is non-canonical"),
        }
    }
}
impl std::error::Error for DecodePointError {}

impl AffinePoint {
    /// The neutral element `(0, 1)`.
    pub fn identity() -> AffinePoint {
        AffinePoint {
            x: Fp2::ZERO,
            y: Fp2::ONE,
        }
    }

    /// The standard FourQ generator (order `N`).
    pub fn generator() -> AffinePoint {
        AffinePoint {
            x: GENERATOR_X,
            y: GENERATOR_Y,
        }
    }

    /// Constructs a point from coordinates, checking the curve equation.
    ///
    /// # Errors
    ///
    /// Returns [`DecodePointError::NotOnCurve`] if `(x, y)` does not
    /// satisfy `-x² + y² = 1 + d·x²·y²`.
    pub fn new(x: Fp2, y: Fp2) -> Result<AffinePoint, DecodePointError> {
        let p = AffinePoint { x, y };
        if p.is_on_curve() {
            Ok(p)
        } else {
            Err(DecodePointError::NotOnCurve)
        }
    }

    /// Whether the coordinates satisfy the curve equation.
    pub fn is_on_curve(&self) -> bool {
        let x2 = self.x.square();
        let y2 = self.y.square();
        y2 - x2 == Fp2::ONE + D * x2 * y2
    }

    /// Whether this is the neutral element.
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y == Fp2::ONE
    }

    /// Point negation `(−x, y)`.
    pub fn neg(&self) -> AffinePoint {
        AffinePoint {
            x: -self.x,
            y: self.y,
        }
    }

    /// Complete affine addition (the reference group law; the projective
    /// formulas are property-tested against this).
    pub fn add(&self, rhs: &AffinePoint) -> AffinePoint {
        let (x1, y1, x2, y2) = (self.x, self.y, rhs.x, rhs.y);
        let x1x2 = x1 * x2;
        let y1y2 = y1 * y2;
        let t = D * x1x2 * y1y2;
        let x3 = (x1 * y2 + y1 * x2) * (Fp2::ONE + t).inv();
        let y3 = (y1y2 + x1x2) * (Fp2::ONE - t).inv();
        AffinePoint { x: x3, y: y3 }
    }

    /// Point doubling via the complete law.
    pub fn double(&self) -> AffinePoint {
        self.add(self)
    }

    /// The affine form of a projective point: `(X·Z⁻¹, Y·Z⁻¹)` with one
    /// [`Fp2::inv`], which runs the Fermat chain in `F_p` on the norm of
    /// `Z`. Every concrete normalisation goes through here;
    /// [`crate::normalize`] keeps the `F_p²` chain for the tracer.
    ///
    /// # Panics
    ///
    /// Panics if `Z = 0`, which the complete formulas never produce.
    pub(crate) fn from_extended(p: &ExtendedPoint<Fp2>) -> AffinePoint {
        let zinv = p.z.inv();
        AffinePoint {
            x: p.x * zinv,
            y: p.y * zinv,
        }
    }

    /// Scalar multiplication `[k]P` using the paper's Algorithm 1 pipeline
    /// (decompose → recode → endomorphism table → 65× double-and-add →
    /// normalise).
    ///
    /// The pipeline runs for every scalar, including zero: `decompose(0)`
    /// parity-corrects to `k + 1 = 1` and the engine's final `−P` step
    /// cancels it, so there is no scalar-dependent early exit. Only the
    /// *point* (public) short-circuits.
    // ct: secret(k)
    pub fn mul(&self, k: &Scalar) -> AffinePoint {
        AffinePoint::from_extended(&self.mul_extended(k))
    }

    /// Scalar multiplication returning the projective result, normalisation
    /// deferred — the building block of the batch pipeline, where one
    /// [`crate::FourQEngine::batch_to_affine`] amortises the `Z⁻¹`
    /// inversion over many points instead of paying it per call.
    // ct: secret(k)
    pub fn mul_extended(&self, k: &Scalar) -> ExtendedPoint<Fp2> {
        if self.is_identity() {
            // ct: public — the base point is public input
            return crate::engine::identity(&Fp2::ONE);
        }
        let d = decompose(k);
        let r = recode(&d);
        scalar_mul_engine(&self.x, &self.y, &Fp2::ONE, &TWO_D, &r, d.corrected).point
    }

    /// Reference scalar multiplication by plain double-and-add over the
    /// extended coordinates (used to validate [`AffinePoint::mul`]).
    pub fn mul_generic(&self, k: &Scalar) -> AffinePoint {
        self.mul_u256_generic(&k.to_u256())
    }

    /// Double-and-add by an arbitrary 256-bit integer (not reduced mod `N`;
    /// useful for cofactor and order checks).
    pub fn mul_u256_generic(&self, k: &U256) -> AffinePoint {
        let bits = k.bits();
        if bits == 0 || self.is_identity() {
            return AffinePoint::identity();
        }
        let base = ExtendedPoint::from_affine(&self.x, &self.y, &Fp2::ONE);
        let cached = base.to_cached(&TWO_D);
        let mut acc = crate::engine::identity(&Fp2::ONE);
        for i in (0..bits as usize).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add_cached(&cached);
            }
        }
        AffinePoint::from_extended(&acc)
    }

    /// Multiplies by the cofactor 392, mapping any curve point into the
    /// prime-order subgroup.
    pub fn clear_cofactor(&self) -> AffinePoint {
        self.mul_u256_generic(&U256::from_u64(crate::params::COFACTOR))
    }

    /// Whether the point lies in the prime-order subgroup (`[N]P = O`).
    pub fn is_in_subgroup(&self) -> bool {
        self.mul_u256_generic(&ORDER).is_identity()
    }

    /// Compressed 32-byte encoding: the two 127-bit components of `y`
    /// little-endian, with the sign of `x` (parity of the real component,
    /// or of the imaginary one when the real part is zero) stored in the
    /// top bit of the last byte.
    pub fn encode(&self) -> [u8; 32] {
        let mut out = self.y.to_bytes();
        let sign = if self.x.re.is_zero() {
            (self.x.im.to_u128() & 1) as u8
        } else {
            (self.x.re.to_u128() & 1) as u8
        };
        out[31] |= sign << 7;
        out
    }

    /// Decodes a compressed point.
    ///
    /// # Errors
    ///
    /// [`DecodePointError::NonCanonical`] if a coordinate is out of range
    /// or the sign bit is set on `x = 0`;
    /// [`DecodePointError::NotOnCurve`] if `y` admits no valid `x`.
    pub fn decode(bytes: &[u8; 32]) -> Result<AffinePoint, DecodePointError> {
        let mut ybytes = *bytes;
        let sign = ybytes[31] >> 7;
        ybytes[31] &= 0x7f;
        // Components must be canonical (< p); Fp::from_bytes folds, so
        // compare the round-trip.
        let y = Fp2::from_bytes(&ybytes);
        if y.to_bytes() != ybytes {
            return Err(DecodePointError::NonCanonical);
        }
        // -x² + y² = 1 + d x² y²  =>  x² = (y² - 1) / (d y² + 1)
        let y2 = y.square();
        let num = y2 - Fp2::ONE;
        let den = D * y2 + Fp2::ONE;
        let x2 = num * den.inv();
        let mut x = x2.sqrt().ok_or(DecodePointError::NotOnCurve)?;
        // Negating x = 0 changes nothing, so a set sign bit would be a
        // second encoding of (0, 1) or (0, −1).
        if x.is_zero() && sign == 1 {
            return Err(DecodePointError::NonCanonical);
        }
        let parity = if x.re.is_zero() {
            (x.im.to_u128() & 1) as u8
        } else {
            (x.re.to_u128() & 1) as u8
        };
        if parity != sign {
            x = -x;
        }
        AffinePoint::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::COFACTOR;

    #[test]
    fn generator_on_curve_and_in_subgroup() {
        let g = AffinePoint::generator();
        assert!(g.is_on_curve());
        assert!(g.is_in_subgroup());
    }

    #[test]
    fn order_kills_generator() {
        let g = AffinePoint::generator();
        assert!(g.mul_u256_generic(&ORDER).is_identity());
        // but no smaller power-of-two related factor does
        assert!(!g.mul_u256_generic(&U256::from_u64(2)).is_identity());
    }

    #[test]
    fn affine_group_axioms() {
        let g = AffinePoint::generator();
        let a = g.double();
        let b = a.add(&g);
        assert!(a.is_on_curve());
        assert!(b.is_on_curve());
        assert_eq!(g.add(&a), a.add(&g));
        assert_eq!(b.add(&g.neg()), a);
        assert_eq!(g.add(&AffinePoint::identity()), g);
    }

    #[test]
    fn decomposed_mul_matches_generic() {
        let g = AffinePoint::generator();
        for v in [1u64, 2, 3, 5, 1000, 0xdead_beef, u64::MAX] {
            let k = Scalar::from_u64(v);
            assert_eq!(g.mul(&k), g.mul_generic(&k), "k = {v}");
        }
    }

    #[test]
    fn mul_large_scalars() {
        let g = AffinePoint::generator();
        let k = Scalar::from_u256(
            U256::from_hex("123456789abcdef0fedcba9876543210aabbccddeeff00112233445566778899")
                .unwrap(),
        );
        assert_eq!(g.mul(&k), g.mul_generic(&k));
        // k ≡ 0 mod N edge
        assert!(g.mul(&Scalar::ZERO).is_identity());
    }

    #[test]
    fn mul_distributes() {
        let g = AffinePoint::generator();
        let a = Scalar::from_u64(111);
        let b = Scalar::from_u64(222);
        assert_eq!(g.mul(&a).add(&g.mul(&b)), g.mul(&(a + b)));
    }

    #[test]
    fn cofactor_clears_into_subgroup() {
        // 392 * N kills everything; generator already in subgroup.
        let g = AffinePoint::generator();
        let p = g.clear_cofactor();
        assert!(p.is_in_subgroup());
        assert_eq!(p, g.mul(&Scalar::from_u64(COFACTOR)));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let g = AffinePoint::generator();
        for v in [1u64, 7, 99, 123456] {
            let p = g.mul(&Scalar::from_u64(v));
            let enc = p.encode();
            let dec = AffinePoint::decode(&enc).expect("valid encoding");
            assert_eq!(dec, p, "v = {v}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        // y = 2 is (very likely) not on the curve; construct explicitly.
        let mut bytes = [0u8; 32];
        bytes[0] = 2;
        // Don't assert error blindly: check decode-validate consistency.
        match AffinePoint::decode(&bytes) {
            Ok(p) => assert!(p.is_on_curve()),
            Err(e) => assert_eq!(e, DecodePointError::NotOnCurve),
        }
    }

    #[test]
    fn decode_rejects_sign_bit_on_zero_x() {
        // The identity (0, 1) and the order-2 point (0, −1) each have one
        // encoding: x = 0 has no sign.
        let order_two = AffinePoint::new(Fp2::ZERO, -Fp2::ONE).expect("on curve");
        for p in [AffinePoint::identity(), order_two] {
            let mut enc = p.encode();
            assert_eq!(enc[31] >> 7, 0);
            assert_eq!(AffinePoint::decode(&enc), Ok(p));
            enc[31] |= 0x80;
            assert_eq!(
                AffinePoint::decode(&enc),
                Err(DecodePointError::NonCanonical)
            );
        }
    }

    /// `(0, 1)` and `(0, −1)` reached by arithmetic may hold `x = 0` as
    /// the field's second representative `p`, whose raw parity is 1; their
    /// encodings must still be the canonical bytes with sign bit 0.
    #[test]
    fn arithmetic_x_zero_points_encode_canonically() {
        let mut identity_bytes = [0u8; 32];
        identity_bytes[0] = 1;
        let mut order_two_bytes = [0u8; 32];
        order_two_bytes[..16].copy_from_slice(&(-fourq_fp::Fp::ONE).to_bytes());

        // [k]G + [−k]G, by the affine law and by the projective formulas.
        let g = AffinePoint::generator();
        for v in [1u64, 2, 7, 0xdead_beef, u64::MAX] {
            let k = Scalar::from_u64(v);
            let sum = g.mul(&k).add(&g.mul(&-k));
            let cached = g.mul_extended(&-k).to_cached(&TWO_D);
            let projective = AffinePoint::from_extended(&g.mul_extended(&k).add_cached(&cached));
            for p in [sum, projective] {
                assert!(p.is_identity(), "k = {v}");
                assert_eq!(p.encode(), identity_bytes, "k = {v}");
            }
        }

        // [4]T for points T of order 8: [N]R lies in the 392-torsion and
        // [49] of that in the cyclic 8-part.
        let mut rng = fourq_testkit::TestRng::from_seed(0x0eb8_7e57);
        let mut order_eight = 0;
        for i in 0..64 {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            bytes[15] &= 0x7f;
            bytes[31] &= 0x7f;
            let Ok(r) = AffinePoint::decode(&bytes) else {
                continue;
            };
            let t = r
                .mul_u256_generic(&ORDER)
                .mul_u256_generic(&U256::from_u64(49));
            let t4 = t.mul_u256_generic(&U256::from_u64(4));
            if t4.is_identity() {
                continue;
            }
            order_eight += 1;
            for p in [t4, t.double().double(), t4.add(&AffinePoint::identity())] {
                assert!(p.x.is_zero() && p.y == -Fp2::ONE, "point {i}");
                assert_eq!(p.encode(), order_two_bytes, "point {i}");
            }
        }
        assert!(order_eight >= 4, "too few order-8 points: {order_eight}");
    }

    /// `decode(b) == Ok(P)` holds exactly when `P.encode() == b`. The
    /// Schnorr verifier compares `[s]G + [N−h]A` with `R` by encoding
    /// instead of decoding `R`, and gives the same verdicts only because
    /// of this.
    #[test]
    fn decode_accepts_exactly_the_encodings() {
        let mut rng = fourq_testkit::TestRng::from_seed(0xdec0_de00_e4c0_de00);
        let mut accepted = 0;
        for _ in 0..100_000 {
            let mut b = [0u8; 32];
            rng.fill_bytes(&mut b);
            if let Ok(p) = AffinePoint::decode(&b) {
                assert_eq!(p.encode(), b, "decode accepted a non-encoding");
                // Points no string decoded to must round-trip as well.
                for q in [p.neg(), p.double(), p.add(&AffinePoint::generator())] {
                    assert_eq!(AffinePoint::decode(&q.encode()), Ok(q));
                }
                accepted += 1;
            }
        }
        assert!(accepted > 10_000, "only {accepted} strings decoded");

        let order_two = AffinePoint::new(Fp2::ZERO, -Fp2::ONE).expect("on curve");
        let g = AffinePoint::generator();
        let mut edges = Vec::new();
        // A y component equal to p, the non-canonical zero.
        for (lo, hi) in [(0, 16), (16, 32)] {
            let mut b = AffinePoint::identity().encode();
            b[lo..hi].fill(0xff);
            b[hi - 1] = 0x7f;
            edges.push(b);
        }
        // Bit 127 of y.re set.
        let mut b = g.encode();
        b[15] |= 0x80;
        edges.push(b);
        // The sign bit set on (0, 1) and on (0, −1).
        for p in [AffinePoint::identity(), order_two] {
            let mut b = p.encode();
            b[31] |= 0x80;
            edges.push(b);
        }
        for b in edges {
            assert_eq!(
                AffinePoint::decode(&b),
                Err(DecodePointError::NonCanonical),
                "{b:02x?}"
            );
        }
        for p in [AffinePoint::identity(), order_two, g, g.neg()] {
            assert_eq!(AffinePoint::decode(&p.encode()), Ok(p));
        }
    }

    #[test]
    fn identity_edge_cases() {
        let id = AffinePoint::identity();
        assert!(id.is_on_curve());
        assert!(id.is_identity());
        assert_eq!(id.mul(&Scalar::from_u64(42)), id);
        assert_eq!(id.double(), id);
    }
}
