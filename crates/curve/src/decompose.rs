//! Scalar decomposition and sign-aligned recoding (Algorithm 1, steps 3–5).
//!
//! The paper decomposes a 256-bit scalar into four sub-scalars with
//! FourQ's endomorphisms and recodes them into sign/index digit pairs
//! `(m_i, v_i)` driving the table lookups of the main loop. Here the
//! endomorphisms are ψ₇ and ψ₈ (see `glv.rs`), and
//! `[k]P = [a₁]P + [a₂]ψ₇(P) + [a₃]ψ₈(P) + [a₄]ψ₇ψ₈(P)` holds on every
//! point of `E(F_p²)`, not only on the order-`N` subgroup: the split rounds
//! against the lattice of the whole group (det `392·N`), so no subgroup
//! check or fallback path is needed. The price is 65-bit sub-scalars. The
//! GLV-SAC recoding that follows is FourQ's (all-positive table indices,
//! signs carried by the first sub-scalar, which is forced odd).
#![allow(clippy::needless_range_loop)] // limb loops are clearer indexed

use crate::glv_consts::{BASIS, BIAS, ELL, OFFSET, SUBSCALAR_BITS};
use fourq_fp::{Choice, Scalar};

/// Number of recoded digits; the main loop runs `DIGITS − 1` iterations of
/// double-and-add, matching the structure of the paper's Algorithm 1
/// (64 iterations there, 65 here).
pub const DIGITS: usize = SUBSCALAR_BITS + 1;

/// The result of decomposing a scalar into four sub-scalars.
///
/// The sub-scalars determine the secret scalar, so the type is
/// secret-bearing: no `Debug`/`PartialEq` derives (rule R4 of the
/// constant-time policy, `DESIGN.md` §8).
// ct: secret
#[derive(Clone, Copy)]
pub struct Decomposition {
    /// The sub-scalars `a₁..a₄` of `P`, `ψ₇(P)`, `ψ₈(P)` and `ψ₇ψ₈(P)`
    /// (each `< 2^65`, `a₁` odd).
    pub limbs: [u128; 4],
    /// Whether the rounded `a₁` was even and was incremented, so that the
    /// split represents `k + 1`; the engine compensates by subtracting the
    /// base point once at the end.
    pub corrected: Choice,
}

/// Recoded digit sequence: `signs[i] ∈ {−1, +1}` and table indices
/// `indices[i] ∈ 0..8`, most significant digit at `DIGITS − 1`.
///
/// Digits drive the secret table lookups, so the type is secret-bearing
/// like [`Decomposition`].
// ct: secret
#[derive(Clone)]
pub struct Recoded {
    /// Sign digits `m_i` of Algorithm 1 (`s_i` after step 5).
    pub signs: [i8; DIGITS],
    /// Table indices `v_i`.
    pub indices: [u8; DIGITS],
}

/// Splits `k (mod N)` into four sub-scalars in `[0, 2^65)` with `a₁` odd.
///
/// Constant-time Babai rounding against the reduced lattice basis `B`:
/// `cᵢ = ⌊(k·ℓᵢ + βᵢ)/2²⁵⁶⌋`, then `a = (k, 0, 0, 0) − Σ cᵢ·bᵢ + offset`.
/// The rounding constants `ℓᵢ`, biases `βᵢ` and lattice offset come from
/// `tools/derive_glv.py`, which centres every sub-scalar's range; the unit
/// tests of `glv.rs` re-derive the bound. If the rounded `a₁` is even, it
/// is incremented and [`Decomposition::corrected`] is set (Algorithm 1,
/// step 4, needs an odd `a₁`).
// ct: secret(k)
pub fn decompose(k: &Scalar) -> Decomposition {
    let k = k.to_u256();
    // The sub-scalars are < 2^65, so arithmetic mod 2^128 is exact: every
    // product and sum below wraps, and only the low 128 bits of cᵢ count.
    let mut c = [0u128; 4];
    for i in 0..4 {
        let w = k.widening_mul(&ELL[i]);
        let (_, carry) = w[3].overflowing_add((BIAS[i] as u64) << 32);
        c[i] = (w[4] as u128 | (w[5] as u128) << 64).wrapping_add(carry as u128);
    }
    let mut limbs = OFFSET.map(|o| o as u128);
    limbs[0] = limbs[0].wrapping_add(k.0[0] as u128 | (k.0[1] as u128) << 64);
    for j in 0..4 {
        for i in 0..4 {
            limbs[j] = limbs[j].wrapping_sub(c[i].wrapping_mul(BASIS[i][j] as u128));
        }
    }
    // The parity of a₁ is secret: add it back arithmetically, no branch.
    let even = 1 - (limbs[0] & 1);
    limbs[0] += even;
    Decomposition {
        limbs,
        corrected: Choice::from_bit(even as u64),
    }
}

/// Sign-aligned (GLV-SAC) recoding of a decomposition into
/// `(m_i, v_i)` digit pairs — Algorithm 1 of the FourQ paper as used in
/// step 4 of the DATE paper's Algorithm 1.
///
/// Invariants (checked in tests): for each limb `a_j`,
/// `a_j = Σ_i b_j[i]·2^i` where `b₁[i] = signs[i] ∈ {±1}` and
/// `b_j[i] ∈ {0, signs[i]}` for `j > 1`; `indices[i]` packs
/// `|b₂[i]| + 2|b₃[i]| + 4|b₄[i]|`.
///
/// # Panics
///
/// In debug builds only: panics if the first sub-scalar is even or any is
/// `≥ 2^65` (i.e. if the input did not come from [`decompose`]). The checks
/// are `debug_assert!`s because they inspect secret limbs; release builds
/// compile them out and stay branch-free.
// ct: secret(d)
pub fn recode(d: &Decomposition) -> Recoded {
    let a1 = d.limbs[0];
    debug_assert!(a1 & 1 == 1, "first sub-scalar must be odd");
    for &l in &d.limbs {
        debug_assert!(l < 1 << (DIGITS - 1), "sub-scalar exceeds 2^65");
    }
    let mut signs = [0i8; DIGITS];
    let mut indices = [0u8; DIGITS];

    // Sign digits from a1: b1[i] = 2·bit_{i+1}(a1) − 1, top digit +1.
    // The {0,1} → {−1,+1} map is arithmetic, not a branch on the bit.
    for (i, s) in signs.iter_mut().enumerate().take(DIGITS - 1) {
        let bit = ((a1 >> (i + 1)) & 1) as i64;
        *s = (2 * bit - 1) as i8;
    }
    signs[DIGITS - 1] = 1;

    // Align the remaining sub-scalars to those signs. Every update is mask
    // or ring arithmetic on the secret digits; the only control flow ranges
    // over the public digit/limb positions, the `>> 1` shift amount is a
    // constant, and index packing multiplies by a public weight (1, 2, 4)
    // instead of shifting by a loop binding, so every shift amount stays
    // visibly data-independent.
    let mut rest = [d.limbs[1] as i128, d.limbs[2] as i128, d.limbs[3] as i128];
    for i in 0..DIGITS {
        let mut idx = 0u8;
        let mut weight = 1u8; // bit weight of limb j in the index: 1, 2, 4
        for aj in rest.iter_mut() {
            let bit = *aj & 1; // 0 or 1
            let digit = signs[i] as i128 * bit; // 0 or ±1
            idx |= (bit as u8) * weight;
            weight <<= 1;
            *aj = (*aj - digit) >> 1; // exact: aj − digit is even
        }
        indices[i] = idx;
    }
    debug_assert_eq!(rest, [0, 0, 0], "recoding must consume all limbs");
    Recoded { signs, indices }
}

impl Recoded {
    /// Reconstructs the four sub-scalars from the digits (test helper and
    /// specification of the recoding invariant).
    pub fn reconstruct(&self) -> [i128; 4] {
        let mut out = [0i128; 4];
        for i in (0..DIGITS).rev() {
            let s = self.signs[i] as i128;
            out[0] = 2 * out[0] + s;
            for j in 1..4 {
                let bit = ((self.indices[i] >> (j - 1)) & 1) as i128;
                out[j] = 2 * out[j] + s * bit;
            }
        }
        // The doubling loop above double-counts: digit i has weight 2^i, so
        // accumulate MSB-first with a single doubling per step — which is
        // what we did; out[j] = Σ b_j[i] 2^i.
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glv_consts::{LAMBDA7, LAMBDA8};
    use fourq_fp::U256;

    fn check_roundtrip(k: Scalar) {
        let d = decompose(&k);
        let r = recode(&d);
        let rec = r.reconstruct();
        for j in 0..4 {
            assert_eq!(rec[j], d.limbs[j] as i128, "limb {j} of {k}");
        }
        // And the sub-scalars satisfy the lattice relation
        // a₁ + a₂λ₇ + a₃λ₈ + a₄λ₇λ₈ ≡ k (+1 if corrected) (mod N).
        let [a1, a2, a3, a4] = d.limbs.map(|l| Scalar::from_u256(U256::from_u128(l)));
        let (l7, l8) = (Scalar::from_u256(LAMBDA7), Scalar::from_u256(LAMBDA8));
        let sum = a1 + a2 * l7 + a3 * l8 + a4 * l7 * l8;
        let expect = if d.corrected.to_bool_vartime() {
            k + Scalar::ONE
        } else {
            k
        };
        assert_eq!(sum, expect, "lattice relation for {k}");
    }

    #[test]
    fn roundtrip_small_and_structured() {
        for v in [0u64, 1, 2, 3, 4, 5, 63, 64, 0xffff_ffff, u64::MAX] {
            check_roundtrip(Scalar::from_u64(v));
        }
    }

    #[test]
    fn roundtrip_large() {
        let near_n = Scalar::from_u256(
            U256::from_hex("29CBC14E5E0A72F05397829CBC14E5DFBD004DFE0F79992FB2540EC7768CE6")
                .unwrap(),
        );
        check_roundtrip(near_n);
        check_roundtrip(Scalar::from_u64(0) - Scalar::from_u64(1)); // N-1
    }

    #[test]
    fn roundtrip_pseudorandom() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..200 {
            let mut limbs = [0u64; 4];
            for l in limbs.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *l = state;
            }
            check_roundtrip(Scalar::from_u256(U256(limbs)));
        }
    }

    #[test]
    fn parity_step_makes_the_first_sub_scalar_odd() {
        let mut seen = [false; 2];
        for v in 1..64u64 {
            let d = decompose(&Scalar::from_u64(v));
            assert_eq!(d.limbs[0] & 1, 1);
            seen[d.corrected.to_bool_vartime() as usize] = true;
        }
        assert_eq!(seen, [true, true], "both parities occur");
    }

    #[test]
    #[should_panic(expected = "odd")]
    #[cfg(debug_assertions)] // the precondition check is a debug_assert
    fn recode_rejects_even_first_limb() {
        let _ = recode(&Decomposition {
            limbs: [2, 0, 0, 0],
            corrected: Choice::FALSE,
        });
    }

    #[test]
    fn indices_in_range() {
        let d = decompose(&Scalar::from_u64(0xdead_beef_1234_5677));
        let r = recode(&d);
        for i in 0..DIGITS {
            assert!(r.indices[i] < 8);
            assert!(r.signs[i] == 1 || r.signs[i] == -1);
        }
    }
}
