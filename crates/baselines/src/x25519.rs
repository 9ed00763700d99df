//! X25519 (RFC 7748): the Curve25519 Diffie–Hellman function, baseline of
//! Table II row \[22\] and the "2× slower than FourQ" comparison of the
//! paper's introduction.
//!
//! Montgomery ladder over `p = 2^255 − 19` with the standard
//! constant-time-shaped conditional swaps.

use crate::mont::{FeLike, MontFe, MontField};
use fourq_fp::{Choice, CtSelect, U256};

/// One Montgomery-ladder step on the working state `(x2, z2, x3, z3)` with
/// the fixed base `x1` and curve constant `a24`, written against
/// [`FeLike`] so the host ladder and the traced uniform ladder of
/// `fourq-trace` run the *same* formula. Returns the updated state.
///
/// Cost: 6 mul-unit multiplications + 4 squarings + 8 additions per step
/// (the `a24` product counted as a full multiplication, as the simulated
/// machine executes it).
pub fn ladder_step<T: FeLike>(x1: &T, a24: &T, x2: &T, z2: &T, x3: &T, z3: &T) -> (T, T, T, T) {
    let a = x2.add(z2);
    let aa = a.sqr();
    let b = x2.sub(z2);
    let bb = b.sqr();
    let e = aa.sub(&bb);
    let c = x3.add(z3);
    let d = x3.sub(z3);
    let da = d.mul(&a);
    let cb = c.mul(&b);
    let nx3 = da.add(&cb).sqr();
    let nz3 = x1.mul(&da.sub(&cb).sqr());
    let nx2 = aa.mul(&bb);
    let nz2 = e.mul(&aa.add(&a24.mul(&e)));
    (nx2, nz2, nx3, nz3)
}

/// The X25519 context.
#[derive(Clone, Copy, Debug)]
pub struct X25519 {
    field: MontField,
    a24: U256,
}

impl Default for X25519 {
    fn default() -> Self {
        Self::new()
    }
}

impl X25519 {
    /// Builds the curve context (`p = 2^255 − 19`, `a24 = 121665`).
    pub fn new() -> X25519 {
        let p = U256::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed")
            .expect("valid modulus");
        let field = MontField::new(p);
        X25519 {
            field,
            a24: field.enter(U256::from_u64(121665)),
        }
    }

    /// The field of definition (`p = 2^255 − 19`).
    pub fn field(&self) -> &MontField {
        &self.field
    }

    /// The ladder constant `(A+2)/4 = 121665` in Montgomery form.
    pub fn a24(&self) -> U256 {
        self.a24
    }

    /// RFC 7748 scalar clamping.
    pub fn clamp(scalar: &[u8; 32]) -> U256 {
        let mut s = *scalar;
        s[0] &= 248;
        s[31] &= 127;
        s[31] |= 64;
        U256::from_le_bytes(&s)
    }

    /// The X25519 function: `k · u` on the Montgomery curve
    /// (u-coordinate-only ladder). `k` is clamped per RFC 7748.
    // ct: secret(scalar)
    pub fn ladder(&self, scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
        let f = &self.field;
        let k = Self::clamp(scalar);
        // RFC 7748 masks the top bit of u.
        let mut ub = *u;
        ub[31] &= 0x7f;
        let x1 = f.enter(U256::from_le_bytes(&ub));

        let one = f.enter(U256::ONE);
        let mut x2 = one;
        let mut z2 = U256::ZERO;
        let mut x3 = x1;
        let mut z3 = one;
        let mut swap = false;

        let x1h = MontFe::new(f, x1);
        let a24h = MontFe::new(f, self.a24);
        for t in (0..255).rev() {
            // The running conditional swap by masked selection: no branch
            // depends on the scalar bits.
            let kt = k.bit(t);
            let c = Choice::from_bit(u64::from(swap ^ kt));
            (x2, x3) = (U256::ct_select(&x2, &x3, c), U256::ct_select(&x3, &x2, c));
            (z2, z3) = (U256::ct_select(&z2, &z3, c), U256::ct_select(&z3, &z2, c));
            swap = kt;

            let (nx2, nz2, nx3, nz3) = ladder_step(
                &x1h,
                &a24h,
                &MontFe::new(f, x2),
                &MontFe::new(f, z2),
                &MontFe::new(f, x3),
                &MontFe::new(f, z3),
            );
            x2 = nx2.value;
            z2 = nz2.value;
            x3 = nx3.value;
            z3 = nz3.value;
        }
        let c = Choice::from_bit(u64::from(swap));
        (x2, z2) = (U256::ct_select(&x2, &x3, c), U256::ct_select(&z2, &z3, c));
        let out = if z2.is_zero() {
            U256::ZERO
        } else {
            f.leave(f.mul(x2, f.inv(z2)))
        };
        out.to_le_bytes()
    }

    /// Diffie–Hellman public key from a secret (`X25519(k, 9)`).
    pub fn public_key(&self, secret: &[u8; 32]) -> [u8; 32] {
        let mut base = [0u8; 32];
        base[0] = 9;
        self.ladder(secret, &base)
    }

    /// Multiplier-unit operations (multiplications + squarings) in one
    /// ladder execution, derived from the structure the trace actually
    /// records: 255 × [`ladder_step`] (6M + 4S each), the Fermat inversion
    /// of `z2` by square-and-multiply on the public exponent `p − 2`, and
    /// the final `x2·z2⁻¹` product plus the Montgomery-domain exit
    /// multiplication. `fourq-trace` asserts this equals the traced
    /// kernel's op counts (`trace_op_counts_match_baseline_estimate`).
    pub fn ladder_field_ops() -> u64 {
        let x = X25519::new();
        let e = x.field.p.checked_sub(&U256::from_u64(2)).expect("p > 2");
        let popcount: u64 = e.0.iter().map(|w| w.count_ones() as u64).sum();
        let invert = (u64::from(e.bits()) - 1) + (popcount - 1);
        255 * 10 + invert + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dh_commutativity() {
        let x = X25519::new();
        let a = [0x11u8; 32];
        let b = [0x42u8; 32];
        let pa = x.public_key(&a);
        let pb = x.public_key(&b);
        let sab = x.ladder(&a, &pb);
        let sba = x.ladder(&b, &pa);
        assert_eq!(sab, sba);
        assert_ne!(sab, [0u8; 32]);
    }

    #[test]
    fn different_secrets_different_keys() {
        let x = X25519::new();
        assert_ne!(x.public_key(&[1u8; 32]), x.public_key(&[2u8; 32]));
    }

    #[test]
    fn clamping_fixes_bits() {
        let k = X25519::clamp(&[0xffu8; 32]);
        assert!(!k.bit(0) && !k.bit(1) && !k.bit(2));
        assert!(k.bit(254));
        assert!(!k.bit(255));
    }

    #[test]
    fn ladder_ignores_u_top_bit() {
        let x = X25519::new();
        let k = [0x77u8; 32];
        let mut u1 = [0x05u8; 32];
        let mut u2 = u1;
        u1[31] &= 0x7f;
        u2[31] |= 0x80;
        assert_eq!(x.ladder(&k, &u1), x.ladder(&k, &u2));
    }
}
