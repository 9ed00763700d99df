//! The scalar-multiplication engine — the program executed by the ASIC.
//!
//! [`scalar_mul_engine`] is the paper's Algorithm 1 expressed over any
//! [`EngineSelect`] field. With concrete [`fourq_fp::Fp2`] elements it
//! computes; on the tracer of `fourq-trace` the same code emits the
//! complete microinstruction program (endomorphism setup, 8-entry table,
//! 65 double-add iterations, final normalisation) that the scheduler and
//! the cycle-accurate datapath consume.

use crate::decompose::{Recoded, DIGITS};
use crate::extended::{CachedPoint, ExtendedPoint};
use crate::glv_consts::{PSI7, PSI8};
use fourq_fp::{ct_eq_u64, Choice, CtSelect, Fp2, Fp2Like};

/// How a field makes the engine's two secret choices: the table entry
/// `s_i·T[v_i]` of every digit and the final parity pick. [`Fp2`] scans
/// every candidate under a mask; the tracer of `fourq-trace` records
/// operand multiplexers driven by the recoded digits, so one recording is
/// the program for every scalar. It also lifts the public endomorphism
/// coefficients, which the tracer records as program constants.
pub trait EngineSelect: Fp2Like {
    /// Lifts a public curve constant into the field; `one` is the lifted
    /// unit, which carries whatever context the field needs.
    fn constant(one: &Self, name: &'static str, value: Fp2) -> Self;

    /// `s_i·T[v_i]`: the table entry of digit position `i`, negated when
    /// the digit's sign is `−1`.
    fn table_entry(
        table: &[CachedPoint<Self>; 8],
        recoded: &Recoded,
        i: usize,
    ) -> CachedPoint<Self>;

    /// The parity pick: `b` when `c` is true, `a` otherwise.
    fn parity_pick(a: &CachedPoint<Self>, b: &CachedPoint<Self>, c: Choice) -> CachedPoint<Self>;
}

impl EngineSelect for Fp2 {
    #[inline]
    fn constant(_one: &Fp2, _name: &'static str, value: Fp2) -> Fp2 {
        value
    }

    // ct: secret(recoded)
    #[inline]
    fn table_entry(table: &[CachedPoint<Fp2>; 8], recoded: &Recoded, i: usize) -> CachedPoint<Fp2> {
        ct_lookup(table, recoded.indices[i], recoded.signs[i])
    }

    // ct: secret(c)
    #[inline]
    fn parity_pick(a: &CachedPoint<Fp2>, b: &CachedPoint<Fp2>, c: Choice) -> CachedPoint<Fp2> {
        CachedPoint::ct_select(a, b, c)
    }
}

/// Result of the engine: projective output plus the table/loop structure
/// sizes (useful for reporting op-count breakdowns).
#[derive(Clone, Debug)]
pub struct MulOutput<F> {
    /// The resulting point, still projective.
    pub point: ExtendedPoint<F>,
}

/// Runs the decomposed scalar multiplication `[k]P`.
///
/// Inputs are the affine coordinates of `P` lifted into `F`, the lifted
/// constants `one` and `2d`, and the recoded digits. The steps mirror the
/// paper's Algorithm 1:
///
/// 1. compute the endomorphism images `ψ₇(P)`, `ψ₈(P)` and `ψ₇(ψ₈(P))`
///    (FourQ's `φ(P), ψ(P), ψ(φ(P))` in the paper; see `glv.rs`);
/// 2. build the table `T[u] = P + u₀·ψ₇(P) + u₁·ψ₈(P) + u₂·ψ₇ψ₈(P)` in
///    `(X+Y, Y−X, 2Z, 2dT)` coordinates;
/// 3. `Q = s₆₅·T[v₆₅]`, then 65 iterations of `Q ← [2]Q; Q ← Q + s_i·T[v_i]`;
/// 4. parity correction `Q ← Q − P`, performed unconditionally with the
///    mask selecting between `−P` and a cached identity.
///
/// Every secret-dependent choice (table index, sign digit, parity flag)
/// goes through [`EngineSelect`] — masked selection over all candidates
/// for [`Fp2`], the software counterpart of the fixed schedule that makes
/// the paper's ASIC constant-time (the compiled kernel whose cycle count
/// `tests/vectors/fourq_kernel_kat.json` pins); a mux that records
/// no operation on the tracer, exactly like the hardware's operand-select
/// lines.
// ct: secret(recoded, corrected)
pub fn scalar_mul_engine<F: EngineSelect>(
    x: &F,
    y: &F,
    one: &F,
    two_d: &F,
    recoded: &Recoded,
    corrected: Choice,
) -> MulOutput<F> {
    // Steps 1–2: the endomorphism images and the 8-entry table.
    let table = psi_table(x, y, one, two_d);
    // Steps 3–4: the digit loop and the parity correction.
    MulOutput {
        point: psi_table_mul(&table, one, recoded, corrected),
    }
}

/// Steps 1–2 of Algorithm 1 for the affine point `(x, y)`: the
/// endomorphism images `ψ₇(P)`, `ψ₈(P)` and `ψ₇(ψ₈(P))`, then the table
/// `T[u] = P + u₀·ψ₇(P) + u₁·ψ₈(P) + u₂·ψ₇ψ₈(P)` in `(X+Y, Y−X, 2Z, 2dT)`
/// coordinates, built with 7 cached additions. `T[0]` is `P` itself.
///
/// [`scalar_mul_engine`] (and through it the tracer),
/// [`crate::FixedBaseTable::new`] and [`crate::double_scalar_mul`] build
/// their tables here.
pub(crate) fn psi_table<F: EngineSelect>(x: &F, y: &F, one: &F, two_d: &F) -> [CachedPoint<F>; 8] {
    // Constants first: the tracer registers them before any operation.
    let psi7 = PSI7.lift(|c| F::constant(one, "psi7", c));
    let psi8 = PSI8.lift(|c| F::constant(one, "psi8", c));
    let p1 = ExtendedPoint::from_affine(x, y, one);

    // Step 1: the endomorphism images, P affine, ψ₈(P) projective.
    let p2 = psi7.apply(&p1, one, true);
    let p3 = psi8.apply(&p1, one, true);
    let p4 = psi7.apply(&p3, one, false);

    // Step 2: the 8-entry table, built with 7 cached additions.
    let c2 = p2.to_cached(two_d);
    let c3 = p3.to_cached(two_d);
    let c4 = p4.to_cached(two_d);
    let t0 = p1;
    let t1 = t0.add_cached(&c2);
    let t2 = t0.add_cached(&c3);
    let t3 = t1.add_cached(&c3);
    let t4 = t0.add_cached(&c4);
    let t5 = t1.add_cached(&c4);
    let t6 = t2.add_cached(&c4);
    let t7 = t3.add_cached(&c4);
    [t0, t1, t2, t3, t4, t5, t6, t7].map(|t| t.to_cached(two_d))
}

/// Steps 3–4 of Algorithm 1 on a table built by [`psi_table`]: the top
/// digit, 65 double-and-add iterations and the masked parity correction.
///
/// [`scalar_mul_engine`] runs it on the table it has just built;
/// [`crate::FixedBaseTable`] runs it on a table built once per base.
// ct: secret(recoded, corrected)
pub(crate) fn psi_table_mul<F: EngineSelect>(
    table: &[CachedPoint<F>; 8],
    one: &F,
    recoded: &Recoded,
    corrected: Choice,
) -> ExtendedPoint<F> {
    // Step 3: the main double-and-add loop (the workload of Table I).
    // Each digit's table entry comes out of `table_entry`, which considers
    // all eight slots — the entry that survives is decided by the select
    // lines, never by an address.
    let top = DIGITS - 1;
    let entry = F::table_entry(table, recoded, top);
    // Q = s_top · T[v_top], realised by adding the cached entry to the
    // neutral element in extended coordinates (cached points have no
    // direct extended form with a consistent Ta·Tb product).
    let q0 = identity(one);
    let mut q = q0.add_cached(&entry);

    for i in (0..top).rev() {
        q = q.double();
        let e = F::table_entry(table, recoded, i);
        q = q.add_cached(&e);
    }

    // Step 4: parity correction (subtract P once if k was even). The flag
    // is the secret scalar's parity bit, so the addition always executes:
    // the pick is between −P and the cached identity (1, 1, 2Z=2, 0),
    // which the complete addition formula absorbs without moving Q.
    let neg_p1 = table[0].neg();
    let id_cached = CachedPoint {
        y_plus_x: one.clone(),
        y_minus_x: one.clone(),
        z2: one.dbl(),
        t2d: one.sub(one),
    };
    let corr = F::parity_pick(&id_cached, &neg_p1, corrected);
    q.add_cached(&corr)
}

/// Constant-time lookup of `signs · T[index]` from the 8-entry table.
///
/// Scans every slot and folds the hit in by masked selection (the
/// multiplexer network of the paper's datapath), then applies the sign by
/// always-compute conditional negation. `index` must be `< 8` and `sign`
/// `±1`; both are secret digits from the recoding.
// ct: secret(index, sign)
fn ct_lookup<F: Fp2Like + CtSelect>(
    table: &[CachedPoint<F>; 8],
    index: u8,
    sign: i8,
) -> CachedPoint<F> {
    let mut acc = table[0].clone();
    for (u, entry) in table.iter().enumerate().skip(1) {
        let hit = ct_eq_u64(index as u64, u as u64);
        acc = CachedPoint::ct_select(&acc, entry, hit);
    }
    // sign ∈ {+1, −1}: the top bit of the byte is exactly "sign < 0".
    let negate = Choice::from_bit(((sign as u8) >> 7) as u64);
    acc.conditional_negate(negate)
}

/// The neutral element `(0 : 1 : 1)` lifted into `F`.
///
/// `zero` is produced as `one − one` so that tracing implementations record
/// it as a datapath operation rather than requiring a dedicated constant.
pub(crate) fn identity<F: Fp2Like>(one: &F) -> ExtendedPoint<F> {
    let zero = one.sub(one);
    ExtendedPoint {
        x: zero.clone(),
        y: one.clone(),
        z: one.clone(),
        ta: zero.clone(),
        tb: one.clone(),
    }
}

/// Normalises a projective point to affine using only datapath operations:
/// `Z⁻¹ = conj(Z)·(Z·conj(Z))^(p−2)` with the `F_p` Fermat inversion run as
/// an `F_p²` square-and-multiply chain (126 squarings, 12 multiplications).
///
/// Returns `(x, y) = (X·Z⁻¹, Y·Z⁻¹)`.
///
/// The fabricated processor performs its final conversion on the same two
/// arithmetic units, which is why this is expressed generically instead of
/// calling [`fourq_fp::Fp2::inv`]. The software paths on concrete points
/// call [`fourq_fp::Fp2::inv`], which runs the same chain in `F_p` in
/// less than half the time and returns the same (exact) inverse.
pub fn normalize<F: Fp2Like>(p: &ExtendedPoint<F>) -> (F, F) {
    let zinv = invert(&p.z);
    (p.x.mul(&zinv), p.y.mul(&zinv))
}

/// Generic `F_p²` inversion on the datapath operation set.
///
/// # Panics
///
/// The concrete instantiation panics (division by zero in the value check)
/// if `z` is zero; projective points produced by the engine always have
/// `Z ≠ 0` because the curve is complete.
pub fn invert<F: Fp2Like>(z: &F) -> F {
    // norm n = z · conj(z) lies in F_p (imaginary part zero).
    let zc = z.conj();
    let n = z.mul(&zc);
    // n^(p-2) with p-2 = 2^127 - 3 = 4·(2^125 - 1) + 1.
    let pow2k = |v: &F, k: u32| {
        let mut acc = v.clone();
        for _ in 0..k {
            acc = acc.sqr();
        }
        acc
    };
    let t1 = n.clone();
    let t2 = pow2k(&t1, 1).mul(&t1);
    let t4 = pow2k(&t2, 2).mul(&t2);
    let t5 = pow2k(&t4, 1).mul(&t1);
    let t10 = pow2k(&t5, 5).mul(&t5);
    let t20 = pow2k(&t10, 10).mul(&t10);
    let t25 = pow2k(&t20, 5).mul(&t5);
    let t50 = pow2k(&t25, 25).mul(&t25);
    let t100 = pow2k(&t50, 50).mul(&t50);
    let t125 = pow2k(&t100, 25).mul(&t25);
    let n_inv = pow2k(&t125, 2).mul(&t1);
    // z^{-1} = conj(z) · n^{-1}
    zc.mul(&n_inv)
}
