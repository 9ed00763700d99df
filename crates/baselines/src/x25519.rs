//! X25519 (RFC 7748): the Curve25519 Diffie–Hellman function, baseline of
//! Table II row \[22\] and the "2× slower than FourQ" comparison of the
//! paper's introduction.
//!
//! Montgomery ladder over `p = 2^255 − 19` with the standard
//! constant-time-shaped conditional swaps.

use crate::mont::{pow, FeLike, MontFe, MontField};
use fourq_fp::{Choice, U256};

/// One Montgomery-ladder step on the working state `(x2, z2, x3, z3)` with
/// the fixed base `x1` and curve constant `a24`. Returns the updated state.
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

/// The whole X25519 function `X25519(k, u)` as one uniform program: 255
/// [`ladder_step`]s behind the RFC 7748 running conditional swaps, the
/// final unswap, the Fermat inversion of `z2` by [`pow`] on the public
/// exponent `p − 2`, and the exit from the Montgomery domain as a
/// multiplication by `rawone` (the raw integer 1). `swaps` is
/// [`X25519::swap_bits`] of the scalar; select line `s` drives step `s`.
///
/// [`X25519::ladder`] runs it on host integers and `fourq-trace` records
/// it as the X25519 kernel. The operation sequence is the same for every
/// `(scalar, u)`: a degenerate `z2 = 0` exponentiates to 0, so the output
/// is 0 without a branch.
// ct: secret(swaps)
pub fn ladder_program<T: FeLike>(
    field: &MontField,
    u: &T,
    a24: &T,
    one: &T,
    zero: &T,
    rawone: &T,
    swaps: &[Choice; 256],
) -> T {
    let (mut x2, mut z2, mut x3, mut z3) = (one.clone(), zero.clone(), u.clone(), one.clone());
    for (s, &c) in swaps[..255].iter().enumerate() {
        // The running conditional swap: four 2-way selects sharing one
        // select line. No value moves on the datapath; the routing does.
        let x2m = T::select(s, c, &x2, &x3);
        let x3m = T::select(s, c, &x3, &x2);
        let z2m = T::select(s, c, &z2, &z3);
        let z3m = T::select(s, c, &z3, &z2);
        (x2, z2, x3, z3) = ladder_step(u, a24, &x2m, &z2m, &x3m, &z3m);
    }
    let x2 = T::select(255, swaps[255], &x2, &x3);
    let z2 = T::select(255, swaps[255], &z2, &z3);
    let zinv = pow(&z2, &field.p_minus_2());
    x2.mul(&zinv).mul(rawone)
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

    /// The running-swap recoding of the clamped scalar: position `s < 255`
    /// holds `k_{t+1} XOR k_t` for ladder step `t = 254 − s` (RFC 7748's
    /// `swap ^= k_t`), position 255 the final unswap `k_0`.
    // ct: secret(scalar)
    pub fn swap_bits(scalar: &[u8; 32]) -> [Choice; 256] {
        let k = Self::clamp(scalar);
        let mut swaps = [Choice::FALSE; 256];
        let mut prev = false;
        for (s, t) in (0..255).rev().enumerate() {
            let kt = k.bit(t);
            // Boolean XOR, not `!=`: same truth table, but lowers to a
            // mask op with no data-dependent comparison on the scalar bits.
            swaps[s] = Choice::from_bit(u64::from(prev ^ kt));
            prev = kt;
        }
        swaps[255] = Choice::from_bit(u64::from(prev));
        swaps
    }

    /// The input u-coordinate in Montgomery form, its top bit masked as
    /// RFC 7748 requires.
    pub fn enter_u(&self, u: &[u8; 32]) -> U256 {
        let mut ub = *u;
        ub[31] &= 0x7f;
        self.field.enter(U256::from_le_bytes(&ub))
    }

    /// The X25519 function: `k · u` on the Montgomery curve
    /// (u-coordinate-only ladder), by [`ladder_program`] on host
    /// integers. `k` is clamped per RFC 7748.
    // ct: secret(scalar)
    pub fn ladder(&self, scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
        let f = &self.field;
        let fe = |v| MontFe::new(f, v);
        let out = ladder_program(
            f,
            &fe(self.enter_u(u)),
            &fe(self.a24),
            &fe(f.enter(U256::ONE)),
            &fe(U256::ZERO),
            &fe(U256::ONE),
            &Self::swap_bits(scalar),
        );
        out.value.to_le_bytes()
    }

    /// Diffie–Hellman public key from a secret (`X25519(k, 9)`).
    pub fn public_key(&self, secret: &[u8; 32]) -> [u8; 32] {
        let mut base = [0u8; 32];
        base[0] = 9;
        self.ladder(secret, &base)
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
