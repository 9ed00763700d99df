//! The field abstraction used to run curve formulas either on values or on
//! the microinstruction tracer, plus the constant-time selection and
//! comparison primitives the scalar-multiplication hot path is built on.
//!
//! The paper obtains its microinstruction sequences by *recording the
//! execution trace* of a Python implementation (§III-C, steps 1–2). The Rust
//! counterpart: every curve formula in `fourq-curve`, the
//! scalar-multiplication engine included, is generic over [`Fp2Like`];
//! instantiated with [`crate::Fp2`] it computes values, instantiated with
//! the tracing type of `fourq-trace` it emits the exact `F_p²`
//! microinstruction stream those values would execute on the ASIC
//! datapath. The engine's secret choices are the one place the two
//! differ: masked selection here, recorded multiplexers on the tracer
//! (`fourq_curve::EngineSelect`).
//!
//! The constant-time layer ([`Choice`], [`CtSelect`], [`CtEq`],
//! [`CtNegate`]) mirrors the ASIC's fixed schedule in software (the
//! compiled kernel whose cycle count `tests/vectors/fourq_kernel_kat.json`
//! pins): the hardware leaks nothing because every scalar multiplication
//! executes the same operation sequence, and these primitives let the software
//! kernel make its operand *selection* data-independent too. The in-tree
//! `fourq-ctlint` analyzer enforces their use (see `DESIGN.md` §8).

use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::scalar::{Scalar, U256};

/// Operations an `F_p²` datapath element supports.
///
/// The operation set matches the ASIC's two arithmetic units: `mul`/`sqr`
/// issue on the pipelined Karatsuba multiplier, `add`/`sub`/`neg`/`conj` on
/// the adder/subtractor (Fig. 1(a)).
///
/// Implementations must be pure: the result depends only on operand values.
/// `value()` exposes the concrete field value (tracing implementations carry
/// it alongside the trace so functional checks remain possible).
pub trait Fp2Like: Clone {
    /// Field addition.
    fn add(&self, rhs: &Self) -> Self;
    /// Field subtraction.
    fn sub(&self, rhs: &Self) -> Self;
    /// Field multiplication.
    fn mul(&self, rhs: &Self) -> Self;
    /// Field squaring (separate so the tracer can label it; the multiplier
    /// unit executes it).
    fn sqr(&self) -> Self;
    /// Field negation.
    fn neg(&self) -> Self;
    /// Complex conjugation (executes on the adder/subtractor unit).
    fn conj(&self) -> Self;
    /// The concrete value this element currently holds.
    fn value(&self) -> Fp2;

    /// Doubling, provided as `add(self, self)` by default.
    fn dbl(&self) -> Self {
        self.add(self)
    }
}

/// A boolean carried as an all-zeros / all-ones 64-bit mask, so that
/// consuming it never requires a branch.
///
/// This is the software analogue of the select lines driving the ASIC's
/// table-entry multiplexer: control flow stays fixed and the mask only
/// steers which operand bits survive an AND/XOR network. Values of this
/// type are assumed to be derived from secrets; the `fourq-ctlint`
/// analyzer treats them as tainted.
// ct: secret
#[derive(Clone, Copy)]
pub struct Choice(u64);

impl Choice {
    /// The constant false choice.
    pub const FALSE: Choice = Choice(0);
    /// The constant true choice.
    pub const TRUE: Choice = Choice(u64::MAX);

    /// Builds a choice from a bit that must be `0` or `1`.
    #[inline]
    pub fn from_bit(bit: u64) -> Choice {
        debug_assert!(bit <= 1, "Choice::from_bit argument must be 0 or 1");
        Choice(bit.wrapping_neg())
    }

    /// Builds a choice from the least-significant bit of `v`, ignoring the
    /// rest (mask arithmetic; never branches).
    #[inline]
    pub fn from_lsb(v: u64) -> Choice {
        Choice((v & 1).wrapping_neg())
    }

    /// The raw 64-bit mask (`0` or `u64::MAX`).
    #[inline]
    pub fn mask64(self) -> u64 {
        self.0
    }

    /// The mask widened to 128 bits (`0` or `u128::MAX`).
    #[inline]
    pub fn mask128(self) -> u128 {
        self.0 as u128 | ((self.0 as u128) << 64)
    }

    /// Logical AND.
    #[inline]
    #[must_use]
    pub fn and(self, rhs: Choice) -> Choice {
        Choice(self.0 & rhs.0)
    }

    /// Logical OR.
    #[inline]
    #[must_use]
    pub fn or(self, rhs: Choice) -> Choice {
        Choice(self.0 | rhs.0)
    }

    /// Declassifies the choice into a `bool`.
    ///
    /// The `vartime` suffix marks the spot where constant-time discipline
    /// deliberately ends (e.g. publishing a comparison result); call sites
    /// are easy to audit by grepping for it.
    #[inline]
    pub fn to_bool_vartime(self) -> bool {
        let mask = self.0; // ct: public — explicit declassification point
        mask != 0
    }
}

impl core::ops::Not for Choice {
    type Output = Choice;

    /// Logical NOT (mask complement; branch-free).
    #[inline]
    fn not(self) -> Choice {
        Choice(!self.0)
    }
}

/// Constant-time equality of two `u64` words, computed with mask
/// arithmetic only (no comparison instruction whose result feeds a branch).
#[inline]
pub fn ct_eq_u64(a: u64, b: u64) -> Choice {
    let d = a ^ b;
    // (d | -d) has its top bit set exactly when d != 0.
    Choice::from_bit(1 ^ ((d | d.wrapping_neg()) >> 63))
}

/// Constant-time selection: `ct_select(a, b, c)` returns `a` when `c` is
/// false and `b` when `c` is true, with no data-dependent branch.
pub trait CtSelect: Clone {
    /// Selects between `a` (choice false) and `b` (choice true).
    fn ct_select(a: &Self, b: &Self, c: Choice) -> Self;
}

/// Constant-time equality producing a [`Choice`] instead of a `bool`.
pub trait CtEq {
    /// Mask-arithmetic equality test.
    fn ct_eq(&self, other: &Self) -> Choice;
}

/// Constant-time conditional negation.
///
/// The negation is always computed and then selected, so the operation
/// sequence (and, on the tracer, the recorded microinstruction program) is
/// identical for both choices.
pub trait CtNegate: CtSelect {
    /// The additive inverse of `self`.
    fn neg_value(&self) -> Self;

    /// Returns `-self` when `c` is true, `self` otherwise.
    #[must_use]
    fn conditional_negate(&self, c: Choice) -> Self {
        let negated = self.neg_value();
        Self::ct_select(self, &negated, c)
    }
}

impl CtSelect for u64 {
    #[inline]
    fn ct_select(a: &u64, b: &u64, c: Choice) -> u64 {
        a ^ (c.mask64() & (a ^ b))
    }
}

impl CtEq for u64 {
    #[inline]
    fn ct_eq(&self, other: &u64) -> Choice {
        ct_eq_u64(*self, *other)
    }
}

impl CtSelect for u128 {
    #[inline]
    fn ct_select(a: &u128, b: &u128, c: Choice) -> u128 {
        a ^ (c.mask128() & (a ^ b))
    }
}

impl CtEq for u128 {
    #[inline]
    fn ct_eq(&self, other: &u128) -> Choice {
        let d = self ^ other;
        ct_eq_u64((d >> 64) as u64 | d as u64, 0)
    }
}

impl CtSelect for Fp {
    #[inline]
    fn ct_select(a: &Fp, b: &Fp, c: Choice) -> Fp {
        // Selects the stored words; both are in [0, p], so is the result.
        Fp::from_raw_canonical(u128::ct_select(&a.raw(), &b.raw(), c))
    }
}

impl CtEq for Fp {
    /// Compares canonical representatives, so `0` and `p` are equal.
    #[inline]
    fn ct_eq(&self, other: &Fp) -> Choice {
        self.to_u128().ct_eq(&other.to_u128())
    }
}

impl CtNegate for Fp {
    #[inline]
    fn neg_value(&self) -> Fp {
        -*self
    }
}

impl CtSelect for Fp2 {
    #[inline]
    fn ct_select(a: &Fp2, b: &Fp2, c: Choice) -> Fp2 {
        Fp2::new(
            Fp::ct_select(&a.re, &b.re, c),
            Fp::ct_select(&a.im, &b.im, c),
        )
    }
}

impl CtEq for Fp2 {
    #[inline]
    fn ct_eq(&self, other: &Fp2) -> Choice {
        self.re.ct_eq(&other.re).and(self.im.ct_eq(&other.im))
    }
}

impl CtNegate for Fp2 {
    #[inline]
    fn neg_value(&self) -> Fp2 {
        -*self
    }
}

impl CtSelect for U256 {
    #[inline]
    fn ct_select(a: &U256, b: &U256, c: Choice) -> U256 {
        let m = c.mask64();
        let mut out = [0u64; 4];
        for i in 0..4 {
            out[i] = a.0[i] ^ (m & (a.0[i] ^ b.0[i]));
        }
        U256(out)
    }
}

impl CtEq for U256 {
    #[inline]
    fn ct_eq(&self, other: &U256) -> Choice {
        let mut acc = 0u64;
        for i in 0..4 {
            acc |= self.0[i] ^ other.0[i];
        }
        ct_eq_u64(acc, 0)
    }
}

impl CtSelect for Scalar {
    #[inline]
    fn ct_select(a: &Scalar, b: &Scalar, c: Choice) -> Scalar {
        Scalar::from_raw_canonical(U256::ct_select(&a.to_u256(), &b.to_u256(), c))
    }
}

impl CtEq for Scalar {
    #[inline]
    fn ct_eq(&self, other: &Scalar) -> Choice {
        self.to_u256().ct_eq(&other.to_u256())
    }
}

impl CtNegate for Scalar {
    #[inline]
    fn neg_value(&self) -> Scalar {
        Scalar::neg(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_masks() {
        assert_eq!(Choice::from_bit(0).mask64(), 0);
        assert_eq!(Choice::from_bit(1).mask64(), u64::MAX);
        assert_eq!(Choice::from_bit(1).mask128(), u128::MAX);
        assert_eq!(Choice::from_lsb(0xfe).mask64(), 0);
        assert_eq!(Choice::from_lsb(0xff).mask64(), u64::MAX);
        assert!(Choice::TRUE.to_bool_vartime());
        assert!(!Choice::FALSE.to_bool_vartime());
        assert!(Choice::TRUE.and(Choice::FALSE).mask64() == 0);
        assert!(Choice::TRUE.or(Choice::FALSE).to_bool_vartime());
        assert!(!(!Choice::TRUE).to_bool_vartime());
    }

    #[test]
    fn u64_eq_and_select() {
        assert!(ct_eq_u64(42, 42).to_bool_vartime());
        assert!(!ct_eq_u64(42, 43).to_bool_vartime());
        assert!(!ct_eq_u64(0, u64::MAX).to_bool_vartime());
        assert_eq!(u64::ct_select(&1, &2, Choice::FALSE), 1);
        assert_eq!(u64::ct_select(&1, &2, Choice::TRUE), 2);
    }

    #[test]
    fn field_select_and_eq() {
        let a = Fp::from_u64(7);
        let b = Fp::from_u64(9);
        assert_eq!(Fp::ct_select(&a, &b, Choice::FALSE), a);
        assert_eq!(Fp::ct_select(&a, &b, Choice::TRUE), b);
        assert!(a.ct_eq(&a).to_bool_vartime());
        assert!(!a.ct_eq(&b).to_bool_vartime());

        let x = Fp2::new(a, b);
        let y = Fp2::new(b, a);
        assert_eq!(Fp2::ct_select(&x, &y, Choice::TRUE), y);
        assert!(x.ct_eq(&x).to_bool_vartime());
        assert!(!x.ct_eq(&y).to_bool_vartime());
    }

    #[test]
    fn conditional_negate_matches_neg() {
        let x = Fp2::new(Fp::from_u64(11), Fp::from_u64(13));
        assert_eq!(x.conditional_negate(Choice::FALSE), x);
        assert_eq!(x.conditional_negate(Choice::TRUE), -x);
        let s = Scalar::from_u64(1234);
        assert_eq!(s.conditional_negate(Choice::TRUE), -s);
        assert_eq!(s.conditional_negate(Choice::FALSE), s);
    }

    #[test]
    fn wide_select_and_eq() {
        let a = U256([1, 2, 3, 4]);
        let b = U256([5, 6, 7, 8]);
        assert_eq!(U256::ct_select(&a, &b, Choice::FALSE), a);
        assert_eq!(U256::ct_select(&a, &b, Choice::TRUE), b);
        assert!(a.ct_eq(&a).to_bool_vartime());
        assert!(!a.ct_eq(&b).to_bool_vartime());
        let s = Scalar::from_u64(99);
        let t = Scalar::from_u64(100);
        assert_eq!(Scalar::ct_select(&s, &t, Choice::TRUE), t);
        assert!(s.ct_eq(&s).to_bool_vartime());
        assert!(!s.ct_eq(&t).to_bool_vartime());
    }
}
