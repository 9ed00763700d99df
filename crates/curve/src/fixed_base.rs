//! Fixed-base tables: an mLSB-set comb and a pair table of one base point.
//!
//! Signature generation and key generation always multiply the *same*
//! base point, and verification adds a multiple of it to every check, so
//! a [`FixedBaseTable`] precomputes whatever depends only on the base. It
//! holds two tables.
//!
//! * **The comb**, which every `[k]B` runs: the modified-LSB-set comb of
//!   Faz-Hernández, Longa and Sánchez (CT-RSA 2014), FourQlib's fixed-base
//!   method, with `W = 5` rows and `V = 5` tables. The odd scalar
//!   `k′ = k + [k even] ≤ N` is recoded into `D = 50` columns of `W`
//!   signed bits each; table `m` holds the 16 points a column of block `m`
//!   can select, so the loop runs `E = 10` columns of one doubling and `V`
//!   mixed additions: 9 doublings and 51 mixed additions with the parity
//!   correction, 420 `F_p²` multiplications and squarings against the ψ
//!   loop's 991.
//! * **The pair table**, which the verifying side reads:
//!   `E[16·h + 8·r + l] = [2]T[h] + (−1)^r·T[l]` over Algorithm 1's 8-entry
//!   ψ table `T` of the base, 128 affine entries. [`crate::double_scalar_mul`]
//!   and every small MSM run 65 doublings for their other points' ψ
//!   streams, which a comb cannot share; `B`'s stream reads two of its
//!   recoded columns at once from this table, so it adds 33 mixed
//!   additions instead of 66 cached ones (`multi::split_msm`).

use crate::affine::AffinePoint;
use crate::engine::{ct_lookup, identity, psi_table};
use crate::extended::{AffineCached, ExtendedPoint};
use crate::params::TWO_D;
use fourq_fp::{Choice, CtNegate, CtSelect, Fp2, Fp2Like, Scalar, U256};

/// Rows of the recoding: a column's sign bit and `W − 1` index bits.
const W: usize = 5;
/// Comb tables, one per block of `E` adjacent columns.
const V: usize = 5;
/// Columns per block, the loop's iterations: `⌈247 / (W·V)⌉`, because the
/// recoding of an odd `k′ ≤ N < 2^246` needs `W·D ≥ 247` digits.
const E: usize = 10;
/// Columns of the recoding, and bits per row.
const D: usize = V * E;
/// Entries per comb table: one per value of a column's index bits.
const SLOTS: usize = 1 << (W - 1);
/// Entries of the pair table: two ψ-table indices and a relative sign.
pub(crate) const PAIRS: usize = 8 * 2 * 8;
/// The pair-table entry that is the base itself: `[2]T[0] − T[0]`.
pub(crate) const BASE_ENTRY: usize = 8;

/// A base point's pair table in affine cached form, or that table lifted
/// into a counting field.
pub(crate) type PairTable<F> = [AffineCached<F>; PAIRS];

/// A base point's precomputed tables: the comb that every `[k]B` runs and
/// the 128-entry pair table, which verification reads for `G`.
///
/// One multiplication costs the recoding, 9 doublings and 51 mixed
/// additions (one per column and block, plus the parity correction), with
/// every comb entry read by a masked scan of all 16 slots of its table.
///
/// ```
/// use fourq_curve::{AffinePoint, FixedBaseTable};
/// use fourq_fp::Scalar;
/// let table = FixedBaseTable::new(&AffinePoint::generator());
/// let k = Scalar::from_u64(0xdecafbad);
/// assert_eq!(table.mul(&k), AffinePoint::generator().mul_generic(&k));
/// ```
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    /// `comb[m][u] = 2^(E·m)·(1 + Σ_r u_r·2^(D·(r+1)))·B` in affine cached
    /// form, `u_r` the bits of `u`.
    comb: [[AffineCached<Fp2>; SLOTS]; V],
    /// `pairs[16·h + 8·r + l] = [2]T[h] + (−1)^r·T[l]` in affine cached
    /// form, with `T[u] = B + u₀·ψ₇(B) + u₁·ψ₈(B) + u₂·ψ₇ψ₈(B)`.
    pairs: PairTable<Fp2>,
    /// The base point (kept for identity checks and documentation).
    base: AffinePoint,
}

impl FixedBaseTable {
    /// Builds both tables of `base`, one-time: the comb from one chain of
    /// 240 doublings, 75 cached additions and one batch inversion; the
    /// pair table from Algorithm 1's ψ table, 8 doublings, 136 cached
    /// additions and one batch inversion.
    ///
    /// # Panics
    ///
    /// Panics if `base` is the identity (no meaningful table exists).
    pub fn new(base: &AffinePoint) -> FixedBaseTable {
        // ct: allow(R5) reason="table construction is one-time setup on a public base point"
        assert!(!base.is_identity(), "fixed-base table of the identity");
        FixedBaseTable {
            comb: comb_table(base),
            pairs: pair_table(base),
            base: *base,
        }
    }

    /// The base point this table belongs to.
    pub fn base(&self) -> &AffinePoint {
        &self.base
    }

    /// The pair table, read by [`crate::double_scalar_mul`] and every
    /// small MSM for the stream of this table's base.
    pub(crate) fn pairs(&self) -> &PairTable<Fp2> {
        &self.pairs
    }

    /// Fixed-base multiplication `[k]B`.
    ///
    /// Constant-time in the scalar: the recoding is word arithmetic, every
    /// digit selects its entry by a masked scan, and the parity correction
    /// always adds.
    // ct: secret(k)
    pub fn mul(&self, k: &Scalar) -> AffinePoint {
        AffinePoint::from_extended(&self.mul_extended(k))
    }

    /// Fixed-base multiplication returning the projective result, so batch
    /// callers (key generation, batch signing) can normalise many outputs
    /// with a single shared inversion via
    /// [`crate::FourQEngine::batch_to_affine`].
    // ct: secret(k)
    pub fn mul_extended(&self, k: &Scalar) -> ExtendedPoint<Fp2> {
        let (digits, corrected) = comb_recode(k);
        comb_mul(&self.comb, &Fp2::ONE, &digits, corrected)
    }
}

/// The comb tables of `base`: with `P_i = 2^(E·i)·B` from one doubling
/// chain, `comb[m][u] = P_m + Σ_r u_r·P_(m + V·(r+1))`, 15 cached
/// additions per table, then one shared inversion to affine.
fn comb_table(base: &AffinePoint) -> [[AffineCached<Fp2>; SLOTS]; V] {
    let mut powers = vec![ExtendedPoint::from_affine(&base.x, &base.y, &Fp2::ONE)];
    while powers.len() < W * V {
        let last = powers[powers.len() - 1].clone();
        powers.push((0..E).fold(last, |p, _| p.double()));
    }
    let cached: Vec<_> = powers.iter().map(|p| p.to_cached(&TWO_D)).collect();
    let mut points: Vec<ExtendedPoint<Fp2>> = Vec::with_capacity(V * SLOTS);
    for (m, first) in powers.iter().take(V).enumerate() {
        points.push(first.clone());
        for u in 1..SLOTS {
            // u's top bit r adds P_(m + V·(r+1)) to the entry without it.
            let r = u.ilog2() as usize;
            let sum = points[m * SLOTS + u - (1 << r)].add_cached(&cached[m + V * (r + 1)]);
            points.push(sum);
        }
    }
    let entries = to_affine_cached(&points);
    core::array::from_fn(|m| core::array::from_fn(|u| entries[m * SLOTS + u].clone()))
}

/// The pair table of `base`: `E[16·h + 8·r + l] = [2]T[h] + (−1)^r·T[l]`
/// over Algorithm 1's ψ table `T`, each `[2]T[h]` from one addition to the
/// identity and one doubling, each entry one cached addition, then one
/// shared inversion to affine.
fn pair_table(base: &AffinePoint) -> PairTable<Fp2> {
    let t = psi_table(&base.x, &base.y, &Fp2::ONE, &TWO_D);
    let mut points = Vec::with_capacity(PAIRS);
    for high in &t {
        let twice = identity(&Fp2::ONE).add_cached(high).double();
        points.extend(t.iter().map(|low| twice.add_cached(low)));
        points.extend(t.iter().map(|low| twice.add_cached(&low.neg())));
    }
    let entries = to_affine_cached(&points);
    core::array::from_fn(|i| entries[i].clone())
}

/// `points` as affine `(y+x, y−x, 2dxy)` entries, with one shared
/// inversion.
fn to_affine_cached(points: &[ExtendedPoint<Fp2>]) -> Vec<AffineCached<Fp2>> {
    let zinv = Fp2::batch_invert(&points.iter().map(|p| p.z).collect::<Vec<_>>());
    points
        .iter()
        .zip(zinv)
        .map(|(p, zinv)| {
            let (x, y) = (p.x * zinv, p.y * zinv);
            AffineCached {
                y_plus_x: y + x,
                y_minus_x: y - x,
                xy2d: x * y * TWO_D,
            }
        })
        .collect()
}

/// The mLSB-set digits of an odd `k′`: column `j` stands for
/// `s_j·(1 + Σ_r u_(j,r)·2^(D·(r+1)))·2^j`, where `s_j = ±1` and
/// `u_(j,r) ∈ {0, 1}`.
///
/// The digits determine the secret scalar, so the type is secret-bearing:
/// no `Debug`/`PartialEq` derives (rule R4, `DESIGN.md` §8).
// ct: secret
struct CombDigits {
    /// Bit `j` is set when `s_j = −1`.
    negative: u64,
    /// `rows[r]` holds the bits `u_(j,r)`, column `j` at bit `j`.
    rows: [u64; W - 1],
}

impl CombDigits {
    /// Column `j`'s comb-table index `Σ_r u_(j,r)·2^r` and whether its
    /// sign is negative.
    fn column(&self, j: usize) -> (u8, Choice) {
        let mut index = 0u8;
        for r in 0..W - 1 {
            index |= (((self.rows[r] >> j) & 1) as u8) << r;
        }
        (index, Choice::from_lsb(self.negative >> j))
    }
}

/// Recodes `k′ = k + [k even]`, which is odd and at most `N`, and returns
/// the digits with the flag `[k even]`.
///
/// Word arithmetic only. The sign row makes column `j < D − 1` negative
/// when bit `j + 1` of `k′` is 0 and column `D − 1` positive, which writes
/// `k′ mod 2^D` exactly. With `M` that negative-column mask repeated at bit
/// offsets `0, D, 2D, 3D`, the upper rows are `((k′ >> D) + M) ^ M`: those
/// bits `u` satisfy `Σ u·s·2^pos = u − 2·(u & M) = k′ >> D`. They fit the
/// `(W − 1)·D` bits because `M`'s top bit is clear and `k′ >> D < 2^196`.
// ct: secret(k)
fn comb_recode(k: &Scalar) -> (CombDigits, Choice) {
    let mut k = k.to_u256();
    let even = 1 ^ (k.0[0] & 1);
    k.0[0] |= 1;
    let negative = !(k.0[0] >> 1) & ((1 << (D - 1)) - 1);
    let mut mask = U256::ZERO;
    for r in 0..W - 1 {
        // Public offsets: row r's copy starts at bit D·r, below bit 192.
        let wide = (negative as u128) << (D * r % 64);
        mask.0[D * r / 64] |= wide as u64;
        mask.0[D * r / 64 + 1] |= (wide >> 64) as u64;
    }
    let (sum, _) = k.shr(D as u32).overflowing_add(&mask);
    let upper = U256(core::array::from_fn(|i| sum.0[i] ^ mask.0[i]));
    let rows = core::array::from_fn(|r| upper.extract_bits(D * r, D));
    (CombDigits { negative, rows }, Choice::from_bit(even))
}

/// The comb's loop on `table`: `E` columns from the top, each one doubling
/// (but the first) and one mixed addition per block `m` of the
/// masked-scanned entry `±comb[m][u]`, then the parity correction, a mixed
/// addition of `−B` when `corrected` is set and of the identity otherwise.
///
/// Generic over the field so the unit tests can log its operations.
// ct: secret(digits, corrected)
fn comb_mul<F: Fp2Like + CtSelect>(
    table: &[[AffineCached<F>; SLOTS]; V],
    one: &F,
    digits: &CombDigits,
    corrected: Choice,
) -> ExtendedPoint<F> {
    let add_column = |q: ExtendedPoint<F>, i: usize| {
        table.iter().enumerate().fold(q, |q, (m, t)| {
            let (index, negative) = digits.column(E * m + i);
            q.add_affine(&ct_lookup(t, index, negative))
        })
    };
    let mut q = add_column(identity(one), E - 1);
    for i in (0..E - 1).rev() {
        q = add_column(q.double(), i);
    }
    let id = AffineCached {
        y_plus_x: one.clone(),
        y_minus_x: one.clone(),
        xy2d: one.sub(one),
    };
    let neg_base = table[0][0].neg_value();
    q.add_affine(&AffineCached::ct_select(&id, &neg_base, corrected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::{record, tally, values, Counted, Op};
    use crate::decompose::{decompose, recode};
    use crate::engine::psi_table_mul;
    use crate::glv_consts::{LAMBDA7, LAMBDA8};

    /// `2^e` for `e < 256`.
    fn pow2(e: usize) -> U256 {
        let mut limbs = [0u64; 4];
        limbs[e / 64] = 1 << (e % 64);
        U256(limbs)
    }

    /// Seeded uniform scalars.
    fn random_scalars(seed: u64, n: usize) -> Vec<Scalar> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                let limbs = core::array::from_fn(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state
                });
                Scalar::from_u256(U256(limbs))
            })
            .collect()
    }

    /// `Σ_j s_j·(1 + Σ_r u_(j,r)·2^(D·(r+1)))·2^j`, read back from the
    /// digits column by column.
    fn reconstruct(digits: &CombDigits) -> U256 {
        let (mut pos, mut neg) = (U256::ZERO, U256::ZERO);
        for j in 0..D {
            let (index, negative) = digits.column(j);
            assert!(usize::from(index) < SLOTS);
            let mut col = pow2(j);
            for r in 0..W - 1 {
                if index >> r & 1 == 1 {
                    col = col.checked_add(&pow2(j + D * (r + 1))).unwrap();
                }
            }
            let sum = if negative.to_bool_vartime() {
                &mut neg
            } else {
                &mut pos
            };
            *sum = sum.checked_add(&col).unwrap();
        }
        assert!(
            !digits.column(D - 1).1.to_bool_vartime(),
            "top column positive"
        );
        pos.checked_sub(&neg)
            .expect("the digits sum to a positive value")
    }

    #[test]
    fn recoding_represents_the_odd_scalar() {
        let mut ks: Vec<Scalar> = [0u64, 1, 2].map(Scalar::from_u64).to_vec();
        ks.extend([-Scalar::ONE, -Scalar::from_u64(2)]);
        for e in [D, 4 * D] {
            let pow = Scalar::from_u256(pow2(e));
            ks.extend([pow + Scalar::ONE, pow - Scalar::ONE]);
        }
        // k′ = 1 + 2^D·x: bits 1..D of k′ clear, every column of the sign
        // row negative. k′ = 2^D − 1 + 2^D·x: every column positive.
        let x = Scalar::from_u256(pow2(D)) * Scalar::from_u64(0xdead_beef_1234_5678);
        ks.extend([x, x + Scalar::from_u256(pow2(D)) - Scalar::from_u64(2)]);
        ks.extend(random_scalars(0xc0b, 10_000));
        let mut sign_rows_seen = [0usize; 2];
        for k in &ks {
            let (digits, corrected) = comb_recode(k);
            let mut odd = k.to_u256();
            let even = !odd.is_odd();
            odd.0[0] |= 1;
            assert_eq!(reconstruct(&digits), odd, "k = {k}");
            assert_eq!(corrected.to_bool_vartime(), even, "k = {k}");
            let sign_row = digits.negative;
            sign_rows_seen[0] += (sign_row == (1 << (D - 1)) - 1) as usize;
            sign_rows_seen[1] += (sign_row == 0) as usize;
        }
        assert!(
            sign_rows_seen[0] > 0 && sign_rows_seen[1] > 0,
            "all-negative and all-positive sign rows"
        );
    }

    /// `G`'s comb lifted into the counting field, each coordinate tagged
    /// with its table and slot, `m·SLOTS + u`.
    fn counted_comb(t: &FixedBaseTable) -> [[AffineCached<Counted>; SLOTS]; V] {
        core::array::from_fn(|m| {
            core::array::from_fn(|u| {
                let (e, tag) = (&t.comb[m][u], (m * SLOTS + u) as u8);
                AffineCached {
                    y_plus_x: Counted::in_slot(e.y_plus_x, tag),
                    y_minus_x: Counted::in_slot(e.y_minus_x, tag),
                    xy2d: Counted::in_slot(e.xy2d, tag),
                }
            })
        })
    }

    #[test]
    fn comb_runs_one_counted_op_sequence_for_every_scalar() {
        let g = AffinePoint::generator();
        let t = FixedBaseTable::new(&g);
        let comb = counted_comb(&t);
        let one = Counted::new(Fp2::ONE);
        let mut ks = vec![Scalar::ZERO, Scalar::ONE, -Scalar::ONE];
        ks.extend(random_scalars(0x5ca1a4, 1));
        let mut logs = Vec::new();
        for k in &ks {
            let (digits, corrected) = comb_recode(k);
            let (q, log) = record(|| comb_mul(&comb, &one, &digits, corrected));
            assert_eq!(values(&q), g.mul_generic(k), "k = {k}");
            logs.push(log);
        }
        let log = &logs[0];
        for (k, other) in ks.iter().zip(&logs) {
            assert!(
                other == log,
                "the op sequence of k = {k} differs from k = 0"
            );
        }
        // 9 doublings (3M + 4S) and 51 mixed additions (7M).
        let [mul, sqr, ..] = tally(log);
        assert_eq!((mul, sqr), (384, 36));
        // Each of the 50 scans starts from slot 0 of its table and folds in
        // slots 1..16, one select per coordinate; the correction's −B swaps
        // the two sums of comb[0][0] (its −2dxy is computed).
        let reads: Vec<u8> = log
            .iter()
            .filter_map(|op| match op {
                Op::Select(slot) => *slot,
                _ => None,
            })
            .collect();
        let mut want = Vec::new();
        for _ in 0..E {
            for m in 0..V {
                want.extend((1..SLOTS).flat_map(|u| [(m * SLOTS + u) as u8; 3]));
            }
        }
        want.extend([0, 0]);
        assert_eq!(reads, want);

        // Algorithm 1's loop on G's ψ table: 65 doublings and 67 cached
        // additions, 991 mul/sqr.
        let c = Counted::new;
        let psi = psi_table(&c(g.x), &c(g.y), &one, &c(TWO_D));
        let d = decompose(&ks[3]);
        let r = recode(&d);
        let (_, log) = record(|| psi_table_mul(&psi, &one, &r, d.corrected));
        let [mul, sqr, ..] = tally(&log);
        assert_eq!(mul + sqr, 991);
    }

    #[test]
    fn pair_table_entries_are_their_multiples_of_the_base() {
        let g = AffinePoint::generator();
        let t = FixedBaseTable::new(&g);
        // T[u] = [1 + u₀·λ₇ + u₁·λ₈ + u₂·λ₇λ₈]G: ψ₇ and ψ₈ act as λ₇ and
        // λ₈ on G's order-N subgroup.
        let (l7, l8) = (Scalar::from_u256(LAMBDA7), Scalar::from_u256(LAMBDA8));
        let psi = |u: usize| {
            [l7, l8, l7 * l8]
                .iter()
                .enumerate()
                .filter(|&(b, _)| u >> b & 1 == 1)
                .fold(Scalar::ONE, |sum, (_, l)| sum + *l)
        };
        for h in 0..8 {
            for r in 0..2 {
                for l in 0..8 {
                    let low = if r == 1 { -psi(l) } else { psi(l) };
                    let p = g.mul_u256_generic(&(psi(h) + psi(h) + low).to_u256());
                    let e = &t.pairs()[16 * h + 8 * r + l];
                    let want = (p.y + p.x, p.y - p.x, p.x * p.y * TWO_D);
                    assert!(
                        (e.y_plus_x, e.y_minus_x, e.xy2d) == want,
                        "entry (h, r, l) = ({h}, {r}, {l})"
                    );
                }
            }
        }
        let base = &t.pairs()[BASE_ENTRY];
        assert!((base.y_plus_x, base.y_minus_x) == (g.y + g.x, g.y - g.x));
    }

    #[test]
    fn table_mul_matches_double_and_add() {
        let g = AffinePoint::generator();
        let table = FixedBaseTable::new(&g);
        for v in [0u64, 1, 2, 3, 62, 63, 64, 0xffff_ffff_ffff_fffe] {
            let k = Scalar::from_u64(v);
            assert_eq!(table.mul(&k), g.mul_generic(&k), "v = {v}");
        }
    }

    #[test]
    fn table_mul_full_width_scalars() {
        let g = AffinePoint::generator();
        let table = FixedBaseTable::new(&g);
        let k = Scalar::from_u256(
            U256::from_hex("29CBC14E5E0A72F05397829CBC14E5DFBD004DFE0F79992FB2540EC7768CE6")
                .unwrap(),
        ); // N - 1
        assert_eq!(table.mul(&k), g.mul_generic(&k));
        assert_eq!(table.mul(&Scalar::ZERO), AffinePoint::identity());
    }

    #[test]
    fn table_for_non_generator() {
        let g = AffinePoint::generator();
        let b = g.mul_generic(&Scalar::from_u64(4242));
        let table = FixedBaseTable::new(&b);
        let k = Scalar::from_u64(777777);
        assert_eq!(table.mul(&k), b.mul_generic(&k));
        assert_eq!(table.base(), &b);
    }

    #[test]
    #[should_panic(expected = "identity")]
    fn identity_base_rejected() {
        let _ = FixedBaseTable::new(&AffinePoint::identity());
    }
}
