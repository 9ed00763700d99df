//! The base field `F_p` with `p = 2^127 - 1`.

use crate::wide::Wide;
use core::fmt;
use core::hash::{Hash, Hasher};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The Mersenne prime `p = 2^127 - 1` as a `u128`.
pub const P: u128 = (1u128 << 127) - 1;

/// An element of `F_p`, `p = 2^127 - 1`, stored as a representative in
/// `[0, p]`.
///
/// Zero has two representatives, `0` and `p`; every other residue has one.
/// Arithmetic never makes its result canonical (FourQlib's incomplete
/// reduction): addition and subtraction are one Mersenne fold each,
/// `v ↦ (v mod 2^127) + ⌊v / 2^127⌋`, negation is `p - a`, and a product
/// is one fold of its 254-bit value (§II-B-2). The
/// value is made canonical in `[0, p)` only where it leaves the type:
/// [`Fp::to_u128`], [`Fp::to_bytes`], [`Fp::is_zero`], `==`, hashing,
/// constant-time equality and formatting. Equal elements therefore compare
/// equal and encode byte-identically whichever representative they hold.
///
/// ```
/// use fourq_fp::Fp;
/// let a = Fp::from_u64(7);
/// assert_eq!(a * a.inv(), Fp::one());
/// assert_eq!(a - a, Fp::ZERO); // stored as p, canonical on the way out
/// assert_eq!((a - a).to_bytes(), [0u8; 16]);
/// ```
#[derive(Clone, Copy, Default)]
pub struct Fp(u128);

/// One Mersenne fold, `v ↦ (v mod 2^127) + ⌊v / 2^127⌋ ≡ v (mod p)`.
///
/// For `v ≤ 2p` the result is at most `p`; for any `v < 2^128` it is at
/// most `2^127 = p + 1`.
#[inline]
pub(crate) const fn fold(v: u128) -> u128 {
    (v & P) + (v >> 127)
}

/// Canonical representative of `r ≤ 2^127`: maps `p` to `0` and `p + 1` to
/// `1`, and leaves `r < p` alone. Branch-free: `(r + 1) >> 127` is `1`
/// exactly when `r ≥ p`, and adding it carries into bit 127, which the
/// mask clears.
#[inline]
const fn canon(r: u128) -> u128 {
    (r + ((r + 1) >> 127)) & P
}

impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Returns `0`.
    #[inline]
    pub const fn zero() -> Fp {
        Fp(0)
    }

    /// Returns `1`.
    #[inline]
    pub const fn one() -> Fp {
        Fp(1)
    }

    /// Builds an element from a small integer.
    #[inline]
    pub const fn from_u64(v: u64) -> Fp {
        Fp(v as u128)
    }

    /// Builds an element from a `u128`, reducing modulo `p`.
    ///
    /// Accepts any `u128` and stores its canonical residue: `v < 2^128 ≡ 2`,
    /// so one fold brings it to at most `p + 1`, and `canon` finishes.
    #[inline]
    pub const fn from_u128(v: u128) -> Fp {
        Fp(canon(fold(v)))
    }

    /// The canonical representative in `[0, p)`.
    #[inline]
    pub const fn to_u128(self) -> u128 {
        canon(self.0)
    }

    /// The stored representative in `[0, p]`, as it is (for the
    /// constant-time selection primitives, which mask raw words).
    #[inline]
    pub(crate) const fn raw(self) -> u128 {
        self.0
    }

    /// Rebuilds an element from a stored representative `v ≤ p` (used by
    /// the reductions and by the constant-time selection primitives, which
    /// mask between two stored words and must not re-reduce).
    #[inline]
    pub(crate) const fn from_raw_canonical(v: u128) -> Fp {
        debug_assert!(v <= P);
        Fp(v)
    }

    /// Whether the element is zero (either representative).
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.to_u128() == 0
    }

    /// Field addition: `a + b ≤ 2p`, so one fold lands in `[0, p]`.
    #[inline]
    pub const fn add_const(self, rhs: Fp) -> Fp {
        Fp(fold(self.0 + rhs.0))
    }

    /// Field subtraction: `a + (p - b) ≤ 2p`, so one fold lands in
    /// `[0, p]`.
    #[inline]
    pub const fn sub_const(self, rhs: Fp) -> Fp {
        Fp(fold(self.0 + (P - rhs.0)))
    }

    /// Field negation, `p - a` (zero maps to its other representative).
    #[inline]
    pub const fn neg_const(self) -> Fp {
        Fp(P - self.0)
    }

    /// Full 254-bit product of two elements, unreduced.
    ///
    /// Exposed for the lazy-reduction path of the `F_p²` multiplier
    /// (Algorithm 2 of the paper): sums of products are accumulated in
    /// [`Wide`] form and reduced once at the end.
    #[inline]
    pub fn widening_mul(self, rhs: Fp) -> Wide {
        Wide::mul_u128(self.0, rhs.0)
    }

    /// Full 254-bit square, unreduced, from 3 limb products.
    #[inline]
    pub(crate) fn widening_square(self) -> Wide {
        Wide::square_u128(self.0)
    }

    /// Field multiplication (the product folded once).
    #[inline]
    pub fn mul_reduced(self, rhs: Fp) -> Fp {
        self.widening_mul(rhs).reduce_product()
    }

    /// Field squaring (3 limb products, one fold).
    #[inline]
    pub fn square(self) -> Fp {
        self.widening_square().reduce_product()
    }

    /// Doubles the element.
    #[inline]
    pub fn double(self) -> Fp {
        self.add_const(self)
    }

    /// Raises to the power `e` (square-and-multiply, MSB first).
    pub fn pow(self, e: u128) -> Fp {
        if e == 0 {
            return Fp::ONE;
        }
        let mut acc = Fp::ONE;
        let bits = 128 - e.leading_zeros();
        for i in (0..bits).rev() {
            acc = acc.square();
            if (e >> i) & 1 == 1 {
                acc = acc.mul_reduced(self);
            }
        }
        acc
    }

    /// Multiplicative inverse, computed as `x^(p-2)`.
    ///
    /// Uses the identity `p - 2 = 4·(2^125 - 1) + 1`: an addition chain
    /// builds `x^(2^125-1)` with 11 multiplications and 124 squarings, then
    /// two squarings and one multiplication finish the exponent.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero (zero has no inverse).
    pub fn inv(self) -> Fp {
        // ct: allow(R5) reason="documented domain-error panic; zero has no inverse"
        assert!(!self.is_zero(), "inverse of zero in F_p");
        // t_k denotes x^(2^k - 1).
        let pow2k = |mut v: Fp, k: u32| {
            for _ in 0..k {
                v = v.square();
            }
            v
        };
        let t1 = self;
        let t2 = pow2k(t1, 1).mul_reduced(t1);
        let t4 = pow2k(t2, 2).mul_reduced(t2);
        let t5 = pow2k(t4, 1).mul_reduced(t1);
        let t10 = pow2k(t5, 5).mul_reduced(t5);
        let t20 = pow2k(t10, 10).mul_reduced(t10);
        let t25 = pow2k(t20, 5).mul_reduced(t5);
        let t50 = pow2k(t25, 25).mul_reduced(t25);
        let t100 = pow2k(t50, 50).mul_reduced(t50);
        let t125 = pow2k(t100, 25).mul_reduced(t25);
        // x^(p-2) = x^(4*(2^125-1) + 1)
        pow2k(t125, 2).mul_reduced(t1)
    }

    /// Square root, if one exists.
    ///
    /// Since `p ≡ 3 (mod 4)`, a root of a quadratic residue is
    /// `x^((p+1)/4)`. Returns `None` for non-residues.
    pub fn sqrt(self) -> Option<Fp> {
        let r = self.pow((P + 1) >> 2);
        if r.square() == self {
            Some(r)
        } else {
            None
        }
    }

    /// Legendre symbol check: is this element a square in `F_p`?
    pub fn is_quadratic_residue(self) -> bool {
        self.is_zero() || self.pow((P - 1) >> 1) == Fp::ONE
    }

    /// Little-endian 16-byte encoding of the canonical representative.
    pub fn to_bytes(self) -> [u8; 16] {
        self.to_u128().to_le_bytes()
    }

    /// Parses a little-endian 16-byte encoding, reducing it to its
    /// canonical residue modulo `p`.
    pub fn from_bytes(bytes: &[u8; 16]) -> Fp {
        Fp::from_u128(u128::from_le_bytes(*bytes))
    }
}

impl Add for Fp {
    type Output = Fp;
    #[inline]
    fn add(self, rhs: Fp) -> Fp {
        self.add_const(rhs)
    }
}
impl AddAssign for Fp {
    #[inline]
    fn add_assign(&mut self, rhs: Fp) {
        *self = *self + rhs;
    }
}
impl Sub for Fp {
    type Output = Fp;
    #[inline]
    fn sub(self, rhs: Fp) -> Fp {
        self.sub_const(rhs)
    }
}
impl SubAssign for Fp {
    #[inline]
    fn sub_assign(&mut self, rhs: Fp) {
        *self = *self - rhs;
    }
}
impl Mul for Fp {
    type Output = Fp;
    #[inline]
    fn mul(self, rhs: Fp) -> Fp {
        self.mul_reduced(rhs)
    }
}
impl MulAssign for Fp {
    #[inline]
    fn mul_assign(&mut self, rhs: Fp) {
        *self = *self * rhs;
    }
}
impl Neg for Fp {
    type Output = Fp;
    #[inline]
    fn neg(self) -> Fp {
        self.neg_const()
    }
}

/// Equality of residues: both sides are made canonical first, so the two
/// representatives of zero compare equal.
impl PartialEq for Fp {
    #[inline]
    fn eq(&self, other: &Fp) -> bool {
        self.to_u128() == other.to_u128()
    }
}
impl Eq for Fp {}
/// Hashes the canonical representative, consistent with `==`.
impl Hash for Fp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.to_u128().hash(state);
    }
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp(0x{:032x})", self.to_u128())
    }
}
impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:032x}", self.to_u128())
    }
}
impl fmt::LowerHex for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.to_u128(), f)
    }
}

impl From<u64> for Fp {
    fn from(v: u64) -> Fp {
        Fp::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: u128) -> Fp {
        Fp::from_u128(v)
    }

    #[test]
    fn canonical_construction() {
        assert_eq!(Fp::from_u128(P), Fp::ZERO);
        assert_eq!(Fp::from_u128(P + 1), Fp::ONE);
        // 2^128 - 1 = 2·p + 1 ≡ 1 (mod p)
        assert_eq!(Fp::from_u128(u128::MAX), Fp::ONE);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = fp(123456789123456789);
        let b = fp(P - 5);
        assert_eq!(a + b - b, a);
        assert_eq!(a - a, Fp::ZERO);
        assert_eq!(Fp::ZERO - a, -a);
        assert_eq!(-(-a), a);
    }

    #[test]
    fn neg_zero_is_zero() {
        assert_eq!(-Fp::ZERO, Fp::ZERO);
    }

    #[test]
    fn mul_small() {
        assert_eq!(fp(6) * fp(7), fp(42));
        assert_eq!(fp(P - 1) * fp(P - 1), Fp::ONE); // (-1)^2 = 1
    }

    #[test]
    fn mul_wraps_correctly() {
        // (2^126) * 4 = 2^128 ≡ 4 * ... : 2^128 mod p = 2
        let a = fp(1u128 << 126);
        assert_eq!(a * fp(4), fp(2));
    }

    #[test]
    fn inverse() {
        for v in [1u128, 2, 3, 12345, P - 1, P - 2, 1 << 100] {
            let a = fp(v);
            assert_eq!(a * a.inv(), Fp::ONE, "v = {v}");
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn inverse_of_zero_panics() {
        let _ = Fp::ZERO.inv();
    }

    #[test]
    fn fermat() {
        let a = fp(987654321);
        assert_eq!(a.pow(P - 1), Fp::ONE);
        assert_eq!(a.pow(P), a);
    }

    #[test]
    fn sqrt_of_squares() {
        for v in [2u128, 5, 100, P - 3] {
            let a = fp(v);
            let sq = a.square();
            let r = sq.sqrt().expect("square must have a root");
            assert!(r == a || r == -a);
        }
    }

    #[test]
    fn sqrt_of_nonresidue_is_none() {
        // -1 is a non-residue mod p since p ≡ 3 (mod 4).
        assert!((-Fp::ONE).sqrt().is_none());
        assert!(!(-Fp::ONE).is_quadratic_residue());
    }

    #[test]
    fn bytes_roundtrip() {
        let a = fp(0x0123456789abcdef0011223344556677);
        assert_eq!(Fp::from_bytes(&a.to_bytes()), a);
    }

    #[test]
    fn distributivity_spot() {
        let a = fp(1 << 100);
        let b = fp(P - 12345);
        let c = fp(987);
        assert_eq!(a * (b + c), a * b + a * c);
    }
}
