//! Generic 256-bit Montgomery-representation prime field.
//!
//! The CIOS (coarsely integrated operand scanning) Montgomery multiplier —
//! the same algorithm the Montgomery-multiplier ECDSA processors of the
//! paper's Table II rows \[17\]/\[18\] implement in hardware.
#![allow(clippy::needless_range_loop)] // limb loops are clearer indexed

use fourq_fp::{Choice, CtSelect, U256};

/// A prime-field context with modulus `p < 2^256`, `p` odd.
///
/// Elements are kept in Montgomery form (`aR mod p`, `R = 2^256`).
///
/// ```
/// use fourq_baselines::mont::MontField;
/// use fourq_fp::U256;
/// let f = MontField::new(U256::from_u64(101));
/// let a = f.enter(U256::from_u64(57));
/// let inv = f.inv(a);
/// assert_eq!(f.leave(f.mul(a, inv)), U256::from_u64(1));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MontField {
    /// The modulus.
    pub p: U256,
    /// `-p^{-1} mod 2^64`.
    n0: u64,
    /// `R² mod p` for conversions into Montgomery form.
    r2: U256,
}

impl MontField {
    /// Creates a field context.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even or zero.
    pub fn new(p: U256) -> MontField {
        assert!(p.is_odd(), "Montgomery arithmetic requires an odd modulus");
        // n0 = -p^{-1} mod 2^64 via Newton iteration.
        let p0 = p.0[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(inv)));
        }
        let n0 = inv.wrapping_neg();
        // r2 = 2^512 mod p via the division-based reference (done once).
        let mut wide = [0u64; 8];
        // represent 2^512 - something: rem_wide takes a 512-bit value, max is
        // 2^512 - 1; use (2^512 - 1) mod p + 1 mod p.
        wide.iter_mut().for_each(|w| *w = u64::MAX);
        let r2m1 = U256::rem_wide(&wide, &p);
        let r2 = add_mod(r2m1, U256::ONE, &p);
        MontField { p, n0, r2 }
    }

    /// Converts into Montgomery form.
    pub fn enter(&self, a: U256) -> U256 {
        self.mul(a.rem(&self.p), self.r2)
    }

    /// Converts out of Montgomery form.
    pub fn leave(&self, a: U256) -> U256 {
        self.mont_mul(a, U256::ONE)
    }

    /// Montgomery product `a·b·R⁻¹ mod p` (CIOS).
    fn mont_mul(&self, a: U256, b: U256) -> U256 {
        let mut t = [0u64; 6]; // t[0..4] value, t[4..6] overflow words
        for i in 0..4 {
            // t += a[i] * b
            let mut carry = 0u128;
            for j in 0..4 {
                let acc = t[j] as u128 + a.0[i] as u128 * b.0[j] as u128 + carry;
                t[j] = acc as u64;
                carry = acc >> 64;
            }
            let acc = t[4] as u128 + carry;
            t[4] = acc as u64;
            t[5] = (acc >> 64) as u64;
            // m = t[0] * n0 mod 2^64 ; t += m*p ; t >>= 64
            let m = t[0].wrapping_mul(self.n0);
            let acc = t[0] as u128 + m as u128 * self.p.0[0] as u128;
            let mut carry = acc >> 64;
            for j in 1..4 {
                let acc = t[j] as u128 + m as u128 * self.p.0[j] as u128 + carry;
                t[j - 1] = acc as u64;
                carry = acc >> 64;
            }
            let acc = t[4] as u128 + carry;
            t[3] = acc as u64;
            let acc2 = t[5] as u128 + (acc >> 64);
            t[4] = acc2 as u64;
            t[5] = (acc2 >> 64) as u64;
        }
        debug_assert_eq!(t[5], 0);
        let mut r = U256([t[0], t[1], t[2], t[3]]);
        if t[4] != 0 || r >= self.p {
            r = r.overflowing_sub(&self.p).0;
        }
        r
    }

    /// Field multiplication (both operands in Montgomery form).
    pub fn mul(&self, a: U256, b: U256) -> U256 {
        self.mont_mul(a, b)
    }

    /// Field squaring.
    pub fn sqr(&self, a: U256) -> U256 {
        self.mont_mul(a, a)
    }

    /// Field addition.
    pub fn add(&self, a: U256, b: U256) -> U256 {
        add_mod(a, b, &self.p)
    }

    /// Field subtraction.
    pub fn sub(&self, a: U256, b: U256) -> U256 {
        match a.checked_sub(&b) {
            Some(v) => v,
            None => a.overflowing_add(&self.p).0.overflowing_sub(&b).0,
        }
    }

    /// Field negation.
    pub fn neg(&self, a: U256) -> U256 {
        if a.is_zero() {
            a
        } else {
            self.p.overflowing_sub(&a).0
        }
    }

    /// Doubling.
    pub fn dbl(&self, a: U256) -> U256 {
        self.add(a, a)
    }

    /// The Fermat inversion exponent `p − 2` (public: it shapes the
    /// square-and-multiply program identically for every input).
    pub fn p_minus_2(&self) -> U256 {
        self.p.checked_sub(&U256::from_u64(2)).expect("p > 2")
    }

    /// Inversion via Fermat (`p` must be prime): [`pow`] on `p − 2`.
    ///
    /// # Panics
    ///
    /// Panics on zero input.
    pub fn inv(&self, a: U256) -> U256 {
        assert!(!a.is_zero(), "inverse of zero");
        pow(&MontFe::new(self, a), &self.p_minus_2()).value
    }
}

/// `base^e` by square-and-multiply on a *public* exponent (a fixed field
/// constant such as `p − 2`): branching on its bits shapes the program
/// identically for every `base`, so the same code runs on host integers
/// and records one fixed microinstruction sequence on a traced handle.
///
/// # Panics
///
/// Panics on a zero exponent.
pub fn pow<T: FeLike>(base: &T, e: &U256) -> T {
    let bits = e.bits() as usize;
    assert!(bits > 0, "zero exponent has no program");
    let mut acc = base.clone();
    for i in (0..bits - 1).rev() {
        acc = acc.sqr();
        if e.bit(i) {
            acc = acc.mul(base);
        }
    }
    acc
}

/// A field-element *handle*: the minimal operation set the baseline
/// programs ([`crate::x25519::ladder_program`],
/// [`crate::p256::scalar_mul_program`]) and their step formulas need.
///
/// Two implementations exist: [`MontFe`] executes on host integers, and
/// `fourq-trace`'s `TracedFe` records the identical operation stream into a
/// microinstruction trace. Each program is written once against this
/// trait, so the compiled kernel *is* the host baseline's code, recorded.
pub trait FeLike: Clone {
    /// Field addition.
    fn add(&self, other: &Self) -> Self;
    /// Field subtraction.
    fn sub(&self, other: &Self) -> Self;
    /// Field multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Field squaring.
    fn sqr(&self) -> Self;
    /// Returns `b` when `c` is set, `a` otherwise. `step` names the
    /// select line: a host element masks by `c` and ignores `step`; a
    /// traced element records a 2-way mux on digit position `step` and
    /// ignores `c` (the tracer's digit stream carries the same bits).
    fn select(step: usize, c: Choice, a: &Self, b: &Self) -> Self;
}

/// Host-side [`FeLike`]: a Montgomery-form element bound to its field.
#[derive(Clone, Copy, Debug)]
pub struct MontFe<'f> {
    /// The field this element lives in.
    pub field: &'f MontField,
    /// The element (Montgomery form).
    pub value: U256,
}

impl<'f> MontFe<'f> {
    /// Wraps a Montgomery-form value.
    pub fn new(field: &'f MontField, value: U256) -> MontFe<'f> {
        MontFe { field, value }
    }
}

impl FeLike for MontFe<'_> {
    fn add(&self, other: &Self) -> Self {
        MontFe::new(self.field, self.field.add(self.value, other.value))
    }
    fn sub(&self, other: &Self) -> Self {
        MontFe::new(self.field, self.field.sub(self.value, other.value))
    }
    fn mul(&self, other: &Self) -> Self {
        MontFe::new(self.field, self.field.mul(self.value, other.value))
    }
    fn sqr(&self) -> Self {
        MontFe::new(self.field, self.field.sqr(self.value))
    }
    fn select(_step: usize, c: Choice, a: &Self, b: &Self) -> Self {
        MontFe::new(a.field, U256::ct_select(&a.value, &b.value, c))
    }
}

fn add_mod(a: U256, b: U256, p: &U256) -> U256 {
    let (s, c) = a.overflowing_add(&b);
    if c || s >= *p {
        s.overflowing_sub(p).0
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p256_modulus() -> U256 {
        U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff").unwrap()
    }

    #[test]
    fn roundtrip_and_identities() {
        let f = MontField::new(p256_modulus());
        let a = f.enter(U256::from_u64(123456789));
        assert_eq!(f.leave(a), U256::from_u64(123456789));
        let one = f.enter(U256::ONE);
        assert_eq!(f.mul(a, one), a);
    }

    #[test]
    fn matches_division_reference() {
        let p = p256_modulus();
        let f = MontField::new(p);
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..50 {
            let a = U256([next(), next(), next(), next()]).rem(&p);
            let b = U256([next(), next(), next(), next()]).rem(&p);
            let expect = U256::rem_wide(&a.widening_mul(&b), &p);
            let got = f.leave(f.mul(f.enter(a), f.enter(b)));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn inversion() {
        let f = MontField::new(p256_modulus());
        let a = f.enter(U256::from_u64(0xdeadbeef));
        let ai = f.inv(a);
        assert_eq!(f.leave(f.mul(a, ai)), U256::ONE);
    }

    #[test]
    fn sub_and_neg() {
        let f = MontField::new(p256_modulus());
        let a = f.enter(U256::from_u64(5));
        let b = f.enter(U256::from_u64(9));
        let d = f.sub(a, b); // -4
        assert_eq!(f.add(d, b), a);
        assert_eq!(f.add(f.neg(a), a), U256::ZERO);
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        let _ = MontField::new(U256::from_u64(100));
    }
}
