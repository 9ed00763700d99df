//! One `#[inline(never)]` wrapper per field leaf operation, and one around
//! the ψ-table read of Algorithm 1's loop, so the release binary holds each
//! one's code as a symbol of its own.
//!
//! `tools/leafops.sh` builds this binary, disassembles it, prints every
//! wrapper's instruction count and fails on any conditional jump and on
//! any indirect jump or call: the deterministic, host-independent record
//! of what each `F_p`/`F_p²` operation costs and of its branch-freedom,
//! and of the masked table scan staying a scan. The wrappers are found by
//! their demangled names (`leafops::fp_add`, …), so they carry no
//! `#[no_mangle]`. Running the binary evaluates each wrapper once on
//! opaque inputs and checks a few identities between them.

use fourq_curve::params::TWO_D;
use fourq_curve::{decompose, recode, AffinePoint, CachedPoint, EngineSelect, Recoded};
use fourq_fp::{Choice, CtSelect, Fp, Fp2, Scalar, Wide};
use std::hint::black_box;

#[inline(never)]
fn fp_add(a: Fp, b: Fp) -> Fp {
    a + b
}

#[inline(never)]
fn fp_sub(a: Fp, b: Fp) -> Fp {
    a - b
}

#[inline(never)]
fn fp_neg(a: Fp) -> Fp {
    -a
}

#[inline(never)]
fn fp_mul(a: Fp, b: Fp) -> Fp {
    a * b
}

#[inline(never)]
fn fp_square(a: Fp) -> Fp {
    a.square()
}

#[inline(never)]
fn fp_from_u128(v: u128) -> Fp {
    Fp::from_u128(v)
}

#[inline(never)]
fn fp_to_u128(a: Fp) -> u128 {
    a.to_u128()
}

#[inline(never)]
fn fp_eq(a: Fp, b: Fp) -> bool {
    a == b
}

#[inline(never)]
fn fp2_add(a: Fp2, b: Fp2) -> Fp2 {
    a + b
}

#[inline(never)]
fn fp2_sub(a: Fp2, b: Fp2) -> Fp2 {
    a - b
}

#[inline(never)]
fn fp2_mul(a: Fp2, b: Fp2) -> Fp2 {
    a * b
}

#[inline(never)]
fn fp2_square(a: Fp2) -> Fp2 {
    a.square()
}

#[inline(never)]
fn fp2_conj(a: Fp2) -> Fp2 {
    a.conj()
}

#[inline(never)]
fn fp2_ct_select(a: Fp2, b: Fp2, c: Choice) -> Fp2 {
    Fp2::ct_select(&a, &b, c)
}

#[inline(never)]
fn wide_reduce(w: Wide) -> Fp {
    w.reduce()
}

/// `±T[v]` at one digit position of a secret scalar's recoding: a masked
/// scan of all 8 slots, then a masked negation. The position is a constant
/// so that no bounds check enters the code; a compiler that turned the
/// scan into a jump table or a branch per slot would fail the gate.
#[inline(never)]
fn psi_table_entry(table: &[CachedPoint<Fp2>; 8], recoded: &Recoded) -> CachedPoint<Fp2> {
    <Fp2 as EngineSelect>::table_entry(table, recoded, 7)
}

fn main() {
    // Every argument passes through black_box: a constant argument at a
    // wrapper's only call site would be propagated into its body.
    let a = black_box(Fp::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677));
    let b = black_box(Fp::from_u128((1 << 126) + 12345));
    let x = black_box(Fp2::new(a, b));
    let y = black_box(Fp2::new(b, fp_neg(a)));

    let zero = fp_sub(a, black_box(a));
    assert!(fp_eq(zero, black_box(Fp::ZERO)) && fp_to_u128(zero) == 0);
    assert_eq!(fp_add(fp_neg(a), a), Fp::ZERO);
    assert_eq!(fp_square(a), fp_mul(a, black_box(a)));
    assert_eq!(fp_from_u128(black_box(u128::MAX)), Fp::ONE);
    assert_eq!(wide_reduce(black_box(a.widening_mul(b))), fp_mul(a, b));

    assert_eq!(fp2_sub(fp2_add(x, y), y), x);
    assert_eq!(fp2_square(x), fp2_mul(x, black_box(x)));
    assert_eq!(fp2_mul(x, fp2_conj(x)), Fp2::new(x.norm(), Fp::ZERO));
    assert_eq!(fp2_ct_select(x, y, black_box(Choice::TRUE)), y);

    let g = AffinePoint::generator();
    let table: [CachedPoint<Fp2>; 8] = core::array::from_fn(|u| {
        g.mul_extended(&Scalar::from_u64(u as u64 + 1))
            .to_cached(&TWO_D)
    });
    let recoded = recode(&decompose(&black_box(Scalar::from_u64(0x0bad_cafe_f00d))));
    let e = &table[usize::from(recoded.indices[7])];
    let want = if recoded.signs[7] < 0 {
        e.neg()
    } else {
        e.clone()
    };
    let got = psi_table_entry(&table, black_box(&recoded));
    assert_eq!(
        [got.y_plus_x, got.y_minus_x, got.z2, got.t2d],
        [want.y_plus_x, want.y_minus_x, want.z2, want.t2d]
    );
    println!("leafops: 16 wrappers agree; tools/leafops.sh counts their instructions");
}
