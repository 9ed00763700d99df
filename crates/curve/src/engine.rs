//! The scalar-multiplication engine — the program executed by the ASIC.
//!
//! [`scalar_mul_engine`] is the paper's Algorithm 1 expressed over any
//! [`EngineSelect`] field. With concrete [`fourq_fp::Fp2`] elements it
//! computes; on the tracer of `fourq-trace` the same code emits the
//! complete microinstruction program (setup, 8-entry table, 62 double-add
//! iterations, final normalisation) that the scheduler and the
//! cycle-accurate datapath consume.

use crate::decompose::{Recoded, DIGITS, LIMB_BITS};
use crate::extended::{CachedPoint, ExtendedPoint};
use fourq_fp::{ct_eq_u64, Choice, CtSelect, Fp2, Fp2Like};

/// How a field makes the engine's two secret choices: the table entry
/// `s_i·T[v_i]` of every digit and the final parity pick. [`Fp2`] scans
/// every candidate under a mask; the tracer of `fourq-trace` records
/// operand multiplexers driven by the recoded digits, so one recording is
/// the program for every scalar.
pub trait EngineSelect: Fp2Like {
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
/// 1. compute the three auxiliary bases `[2^62]P`, `[2^124]P`, `[2^186]P`
///    (the substitution for `φ(P), ψ(P), ψ(φ(P))` — see `DESIGN.md` §3);
/// 2. build the table `T[u] = P + u₀·P₂ + u₁·P₃ + u₂·P₄` in
///    `(X+Y, Y−X, 2Z, 2dT)` coordinates;
/// 3. `Q = s₆₂·T[v₆₂]`, then 62 iterations of `Q ← [2]Q; Q ← Q + s_i·T[v_i]`;
/// 4. parity correction `Q ← Q − P`, performed unconditionally with the
///    mask selecting between `−P` and a cached identity.
///
/// Every secret-dependent choice (table index, sign digit, parity flag)
/// goes through [`EngineSelect`] — masked selection over all candidates
/// for [`Fp2`], the software counterpart of the fixed 12,301-cycle
/// schedule that makes the paper's ASIC constant-time; a mux that records
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
    let p1 = ExtendedPoint::from_affine(x, y, one);

    // Step 1: auxiliary bases by repeated doubling.
    let mut p2 = p1.clone();
    for _ in 0..LIMB_BITS {
        p2 = p2.double();
    }
    let mut p3 = p2.clone();
    for _ in 0..LIMB_BITS {
        p3 = p3.double();
    }
    let mut p4 = p3.clone();
    for _ in 0..LIMB_BITS {
        p4 = p4.double();
    }

    // Step 2: the 8-entry table, built with 7 cached additions.
    let c2 = p2.to_cached(two_d);
    let c3 = p3.to_cached(two_d);
    let c4 = p4.to_cached(two_d);
    let t0 = p1.clone();
    let t1 = t0.add_cached(&c2);
    let t2 = t0.add_cached(&c3);
    let t3 = t1.add_cached(&c3);
    let t4 = t0.add_cached(&c4);
    let t5 = t1.add_cached(&c4);
    let t6 = t2.add_cached(&c4);
    let t7 = t3.add_cached(&c4);
    let table: [CachedPoint<F>; 8] = [
        t0.to_cached(two_d),
        t1.to_cached(two_d),
        t2.to_cached(two_d),
        t3.to_cached(two_d),
        t4.to_cached(two_d),
        t5.to_cached(two_d),
        t6.to_cached(two_d),
        t7.to_cached(two_d),
    ];

    // Step 3: the main double-and-add loop (the workload of Table I).
    // Each digit's table entry comes out of `table_entry`, which considers
    // all eight slots — the entry that survives is decided by the select
    // lines, never by an address.
    let top = DIGITS - 1;
    let entry = F::table_entry(&table, recoded, top);
    // Q = s_top · T[v_top], realised by adding the cached entry to the
    // neutral element in extended coordinates (cached points have no
    // direct extended form with a consistent Ta·Tb product).
    let q0 = identity(one);
    let mut q = q0.add_cached(&entry);

    for i in (0..top).rev() {
        q = q.double();
        let e = F::table_entry(&table, recoded, i);
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
    q = q.add_cached(&corr);

    MulOutput { point: q }
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
/// calling [`fourq_fp::Fp2::inv`].
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
