//! Unreduced 256-bit products for the lazy-reduction technique.
//!
//! The paper's `F_p²` multiplier (Algorithm 2) delays modular reduction:
//! sums and differences of full double-width products are accumulated and
//! reduced once at the end with Mersenne folds. [`Wide`] is that
//! accumulator.

use crate::fp::{fold, Fp, P};
use core::fmt;

/// An unreduced 256-bit value `hi·2^128 + lo`.
///
/// Produced by [`Fp::widening_mul`] and consumed by [`Wide::reduce`], which
/// performs the division-free Mersenne fold (`2^127 ≡ 1 (mod p)`). The
/// operands of a product are stored field elements, at most `p`, so a
/// product is at most `p² < 2^254`.
///
/// ```
/// use fourq_fp::{Fp, Wide};
/// let a = Fp::from_u64(u64::MAX);
/// let w = a.widening_mul(a);
/// assert_eq!(w.reduce(), a * a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Wide {
    lo: u128,
    hi: u128,
}

/// `p · 2^128`, the offset added before lazy subtractions so intermediate
/// values stay non-negative. It is a multiple of `p`, so it vanishes after
/// reduction.
const SUB_OFFSET: Wide = Wide { lo: 0, hi: P };

impl Wide {
    /// The zero accumulator.
    pub const ZERO: Wide = Wide { lo: 0, hi: 0 };

    /// Full 256-bit product of two values `< 2^127`.
    ///
    /// # Panics
    ///
    /// Debug-panics if either operand has bit 127 set.
    #[inline]
    pub fn mul_u128(a: u128, b: u128) -> Wide {
        debug_assert!(a < (1 << 127) && b < (1 << 127));
        let (a0, a1) = (a as u64 as u128, a >> 64);
        let (b0, b1) = (b as u64 as u128, b >> 64);
        let ll = a0 * b0;
        let hh = a1 * b1;
        // Both cross terms are < 2^127 (one factor < 2^63), so no overflow.
        let mid = a0 * b1 + a1 * b0;
        let (lo, carry) = ll.overflowing_add(mid << 64);
        let hi = hh + (mid >> 64) + carry as u128;
        Wide { lo, hi }
    }

    /// Full 256-bit square of a value `< 2^127`, from 3 limb products: the
    /// cross term `a0·a1` is formed once and doubled.
    ///
    /// # Panics
    ///
    /// Debug-panics if the operand has bit 127 set.
    #[inline]
    pub(crate) fn square_u128(a: u128) -> Wide {
        debug_assert!(a < (1 << 127));
        let (a0, a1) = (a as u64 as u128, a >> 64);
        let ll = a0 * a0;
        let hh = a1 * a1;
        // a1 < 2^63, so 2·a0·a1 < 2^128: the doubled cross term fits.
        let mid = (a0 * a1) << 1;
        let (lo, carry) = ll.overflowing_add(mid << 64);
        let hi = hh + (mid >> 64) + carry as u128;
        Wide { lo, hi }
    }

    /// Accumulator addition.
    ///
    /// # Panics
    ///
    /// Debug-panics on 256-bit overflow (never happens for the operand
    /// ranges used by the `F_p²` multiplier).
    #[inline]
    #[allow(clippy::should_implement_trait)] // unreduced accumulator op, deliberately not std::ops::Add
    pub fn add(self, rhs: Wide) -> Wide {
        let (lo, carry) = self.lo.overflowing_add(rhs.lo);
        let (hi, overflow) = self.hi.overflowing_add(rhs.hi + carry as u128);
        debug_assert!(!overflow, "Wide::add overflow");
        Wide { lo, hi }
    }

    /// Lazy subtraction modulo `p`: computes `self + p·2^128 - rhs`.
    ///
    /// The offset keeps the result non-negative for any `rhs < p·2^128`
    /// (all products and product-sums in Algorithm 2 qualify) and is a
    /// multiple of `p`, so [`Wide::reduce`] yields the correct residue.
    ///
    /// # Panics
    ///
    /// Debug-panics if `rhs` exceeds the offset or the sum overflows.
    #[inline]
    pub fn sub_mod_p(self, rhs: Wide) -> Wide {
        let shifted = self.add(SUB_OFFSET);
        let (lo, borrow) = shifted.lo.overflowing_sub(rhs.lo);
        let (hi, underflow) = shifted.hi.overflowing_sub(rhs.hi + borrow as u128);
        debug_assert!(!underflow, "Wide::sub_mod_p underflow");
        Wide { lo, hi }
    }

    /// The 127-bit chunks `a` (bits 0–126) and `b` (bits 127–253), each at
    /// most `p` and each `≡` its own weight-1 contribution, since
    /// `2^127 ≡ 1 (mod p)`.
    #[inline]
    fn low_chunks(self) -> (u128, u128) {
        (self.lo & P, ((self.lo >> 127) | (self.hi << 1)) & P)
    }

    /// Mersenne reduction of any 256-bit value to an [`Fp`] in `[0, p]`.
    ///
    /// Uses `2^127 ≡ 1 (mod p)`; no division is involved, mirroring the
    /// hardware reduction of the paper (§II-B-2). The value is cut into
    /// 127-bit chunks `a` (bits 0–126), `b` (bits 127–253) and `c`
    /// (bits 254–255), and the residue is `fold(fold(a + b) + c)`:
    ///
    /// * `a, b ≤ p`, so `a + b ≤ 2p` and `fold(a + b) ≤ p`;
    /// * `c ≤ 3`, so `fold(a + b) + c ≤ p + 3 = 2^127 + 2`, and the second
    ///   fold lands in `[0, p]`.
    ///
    /// The result is not made canonical; `p` may stand for zero (see
    /// [`Fp`]). The lazy sums of the `F_p²` multiplier reach bit 254
    /// (`p² + p·2^128` after [`Wide::sub_mod_p`]), so they need both folds.
    #[inline]
    pub fn reduce(self) -> Fp {
        let (a, b) = self.low_chunks();
        let c = self.hi >> 126;
        let r = fold(a + b);
        debug_assert!(r <= P && c <= 3);
        Fp::from_raw_canonical(fold(r + c))
    }

    /// Reduction of one product of two stored elements, one fold.
    ///
    /// Both factors are at most `p`, so the product is below `2^254`: its
    /// top chunk `c` is zero and `fold(a + b) ≤ p`.
    ///
    /// # Panics
    ///
    /// Debug-panics if the value reaches `2^254`.
    #[inline]
    pub(crate) fn reduce_product(self) -> Fp {
        debug_assert!(self.hi >> 126 == 0, "Wide::reduce_product: not one product");
        let (a, b) = self.low_chunks();
        Fp::from_raw_canonical(fold(a + b))
    }

    /// The raw `(lo, hi)` words (for tests and debugging).
    pub fn to_words(self) -> (u128, u128) {
        (self.lo, self.hi)
    }
}

impl fmt::Debug for Wide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Wide(0x{:032x}_{:032x})", self.hi, self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_matches_schoolbook_small() {
        let w = Wide::mul_u128(0xdeadbeef, 0xcafebabe);
        assert_eq!(w.to_words(), (0xdeadbeefu128 * 0xcafebabe, 0));
    }

    #[test]
    fn mul_large_has_high_word() {
        let a = (1u128 << 126) + 12345;
        let w = Wide::mul_u128(a, a);
        let (_, hi) = w.to_words();
        assert!(hi > 0);
        // a^2 mod p check against Fp path
        assert_eq!(w.reduce(), Fp::from_u128(a) * Fp::from_u128(a));
    }

    #[test]
    fn square_matches_mul() {
        for a in [0, 1, P, P - 1, (1 << 126) + 12345, u64::MAX as u128] {
            assert_eq!(Wide::square_u128(a), Wide::mul_u128(a, a), "a = {a:#x}");
        }
    }

    #[test]
    fn reduce_stays_in_stored_range() {
        // a = b = p, c = 0: fold(a + b) is exactly p, which stays stored
        // as the second representative of zero (p + p·2^127 ≡ 0).
        let w = Wide {
            lo: u128::MAX,
            hi: P >> 1,
        };
        assert_eq!(w.reduce().raw(), P);
        assert_eq!(w.reduce(), Fp::ZERO);
        // a = b = p, c = 3: fold(a + b) + c = p + 3 needs the second fold.
        let all_ones = Wide {
            lo: u128::MAX,
            hi: u128::MAX,
        };
        assert_eq!(all_ones.reduce().raw(), 3);
        // The largest product, p², reduces with one fold to p.
        let max_product = Wide::mul_u128(P, P);
        assert_eq!(max_product.reduce_product().raw(), P);
        assert_eq!(max_product.reduce_product(), Fp::ZERO);
    }

    #[test]
    fn reduce_handles_max_pattern() {
        // hi with top bit set exercises the `top` path.
        let w = Wide {
            lo: u128::MAX,
            hi: u128::MAX,
        };
        // value = 2^256 - 1 ≡ 2^2 - 1 = 3 (mod p) since 2^256 ≡ 4? Let's
        // compute: 2^256 - 1 = (2^127)^2 · 4 - 1 ≡ 4 - 1 = 3.
        assert_eq!(w.reduce(), Fp::from_u64(3));
    }

    #[test]
    fn sub_mod_p_is_subtraction() {
        let a = Fp::from_u128((1 << 120) + 7);
        let b = Fp::from_u128((1 << 125) + 99);
        let c = Fp::from_u64(3);
        let w1 = a.widening_mul(b);
        let w2 = b.widening_mul(c);
        assert_eq!(w1.sub_mod_p(w2).reduce(), a * b - b * c);
        // And in the order that underflows without the offset:
        assert_eq!(w2.sub_mod_p(w1).reduce(), b * c - a * b);
    }

    #[test]
    fn add_then_reduce_is_lazy_sum() {
        let a = Fp::from_u128(1 << 126);
        let b = Fp::from_u128((1 << 126) + 4242);
        let acc = a.widening_mul(a).add(b.widening_mul(b));
        assert_eq!(acc.reduce(), a * a + b * b);
    }
}
