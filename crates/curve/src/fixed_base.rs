//! Fixed-base scalar multiplication with precomputed combs.
//!
//! Signature generation and key generation always multiply the *same*
//! base point; a one-time table of `[2^(j·s)]`-spaced multiples lets each
//! subsequent multiplication skip most doublings (Lim–Lee comb). This is
//! the standard deployment optimisation for the signing side of the
//! paper's ITS workload. The verifying side runs
//! [`crate::double_scalar_mul`], which reads `G` from a different cached
//! table, the generator's 8-entry ψ table held by [`crate::FourQEngine`].

use crate::affine::AffinePoint;
use crate::engine::identity;
use crate::extended::{CachedPoint, ExtendedPoint};
use crate::params::TWO_D;
use fourq_fp::{ct_eq_u64, Fp, Fp2, Scalar};

/// A precomputed comb table for one base point.
///
/// With `W` teeth the 246-bit scalar is cut into `W` rows of
/// `ceil(246/W)` columns; one multiplication then costs `246/W` doublings
/// and `246/W` additions (every column adds — a zero comb value selects
/// the cached identity at slot 0, so there is no data-dependent skip).
///
/// ```
/// use fourq_curve::{AffinePoint, FixedBaseTable};
/// use fourq_fp::Scalar;
/// let table = FixedBaseTable::new(&AffinePoint::generator());
/// let k = Scalar::from_u64(0xdecafbad);
/// assert_eq!(table.mul(&k), AffinePoint::generator().mul(&k));
/// ```
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    /// Cached `[u·2^(j·cols)]B` combinations: `table[u]` for the comb
    /// value `u ∈ 0..2^W` (u = Σ bit_j·2^j selects which rows are set;
    /// slot 0 holds the cached identity so lookups cover every value).
    entries: Vec<CachedPoint<Fp2>>,
    /// Columns per row (doublings per multiplication).
    cols: usize,
    /// The base point (kept for identity checks and documentation).
    base: AffinePoint,
}

/// Comb width: 4 teeth → 62 doublings + ≤62 additions per multiplication,
/// 15 stored points.
const TEETH: usize = 4;
/// Scalar bits covered (246-bit order, rounded to a multiple of TEETH).
const BITS: usize = 248;

impl FixedBaseTable {
    /// Precomputes the comb table for `base` (60–70 point operations,
    /// one-time).
    ///
    /// # Panics
    ///
    /// Panics if `base` is the identity (no meaningful table exists).
    pub fn new(base: &AffinePoint) -> FixedBaseTable {
        // ct: allow(R5) reason="table construction is one-time setup on a public base point"
        assert!(!base.is_identity(), "fixed-base table of the identity");
        let cols = BITS / TEETH; // 62
                                 // row generators: R_j = [2^(j*cols)]B as extended points
        let mut rows: Vec<ExtendedPoint<Fp2>> = Vec::with_capacity(TEETH);
        let mut cur = ExtendedPoint::from_affine(&base.x, &base.y, &Fp2::ONE);
        for _ in 0..TEETH {
            rows.push(cur.clone());
            for _ in 0..cols {
                cur = cur.double();
            }
        }
        // entries[u] = Σ_{j: bit_j(u)} R_j; slot 0 is the cached identity
        // (Y+X, Y−X, 2Z, 2dT) = (1, 1, 2, 0), absorbed by the complete
        // addition formula, so every column performs exactly one addition.
        let mut entries: Vec<CachedPoint<Fp2>> = Vec::with_capacity(1 << TEETH);
        entries.push(CachedPoint {
            y_plus_x: Fp2::ONE,
            y_minus_x: Fp2::ONE,
            z2: Fp2::new(Fp::from_u64(2), Fp::ZERO),
            t2d: Fp2::ZERO,
        });
        let mut exts: Vec<ExtendedPoint<Fp2>> = Vec::with_capacity((1 << TEETH) - 1);
        for u in 1usize..(1 << TEETH) {
            let lowest = u.trailing_zeros() as usize;
            let rest = u & (u - 1);
            let e = if rest == 0 {
                rows[lowest].clone()
            } else {
                let prev = &exts[rest - 1];
                prev.add_cached(&rows[lowest].to_cached(&TWO_D))
            };
            entries.push(e.to_cached(&TWO_D));
            exts.push(e);
        }
        FixedBaseTable {
            entries,
            cols,
            base: *base,
        }
    }

    /// The base point this table belongs to.
    pub fn base(&self) -> &AffinePoint {
        &self.base
    }

    /// Fixed-base multiplication `[k]B` using the comb.
    ///
    /// Constant-time in the scalar: the comb value is gathered with mask
    /// arithmetic, the table entry comes from a full masked scan of all
    /// 16 slots, and every column adds (slot 0 is the identity), so the
    /// doubling/addition sequence and memory access pattern are fixed.
    // ct: secret(k)
    pub fn mul(&self, k: &Scalar) -> AffinePoint {
        AffinePoint::from_extended(&self.mul_extended(k))
    }

    /// Fixed-base multiplication returning the projective result, so batch
    /// callers (key generation, batch signing) can normalise many outputs
    /// with a single shared inversion via [`crate::batch_normalize`].
    // ct: secret(k)
    pub fn mul_extended(&self, k: &Scalar) -> ExtendedPoint<Fp2> {
        let v = k.to_u256();
        let mut acc = identity(&Fp2::ONE);
        for col in (0..self.cols).rev() {
            acc = acc.double();
            let mut u = 0u64;
            for row in 0..TEETH {
                u |= v.bit64(row * self.cols + col) << row;
            }
            acc = acc.add_cached(&self.ct_lookup(u));
        }
        acc
    }

    /// Masked scan of the full table: every slot is read, the mask decides
    /// which entry survives.
    // ct: secret(u)
    fn ct_lookup(&self, u: u64) -> CachedPoint<Fp2> {
        let mut acc = self.entries[0].clone();
        for (j, entry) in self.entries.iter().enumerate().skip(1) {
            let hit = ct_eq_u64(u, j as u64);
            acc = CachedPoint::ct_select(&acc, entry, hit);
        }
        acc
    }
}

/// The process-wide comb table for the standard generator, built on first
/// use (signing and key generation always multiply `G`).
///
/// ```
/// use fourq_curve::{generator_table, AffinePoint};
/// use fourq_fp::Scalar;
/// let k = Scalar::from_u64(99);
/// assert_eq!(generator_table().mul(&k), AffinePoint::generator().mul(&k));
/// ```
pub fn generator_table() -> &'static FixedBaseTable {
    crate::context::FourQEngine::shared().generator_table()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourq_fp::U256;

    #[test]
    fn comb_matches_pipeline() {
        let g = AffinePoint::generator();
        let table = FixedBaseTable::new(&g);
        for v in [1u64, 2, 3, 62, 63, 64, 0xffff_ffff_ffff_fffe] {
            let k = Scalar::from_u64(v);
            assert_eq!(table.mul(&k), g.mul(&k), "v = {v}");
        }
    }

    #[test]
    fn comb_full_width_scalars() {
        let g = AffinePoint::generator();
        let table = FixedBaseTable::new(&g);
        let k = Scalar::from_u256(
            U256::from_hex("29CBC14E5E0A72F05397829CBC14E5DFBD004DFE0F79992FB2540EC7768CE6")
                .unwrap(),
        ); // N - 1
        assert_eq!(table.mul(&k), g.mul(&k));
        assert_eq!(table.mul(&Scalar::ZERO), AffinePoint::identity());
    }

    #[test]
    fn comb_for_non_generator() {
        let g = AffinePoint::generator();
        let b = g.mul(&Scalar::from_u64(4242));
        let table = FixedBaseTable::new(&b);
        let k = Scalar::from_u64(777777);
        assert_eq!(table.mul(&k), b.mul(&k));
        assert_eq!(table.base(), &b);
    }

    #[test]
    #[should_panic(expected = "identity")]
    fn identity_base_rejected() {
        let _ = FixedBaseTable::new(&AffinePoint::identity());
    }

    #[test]
    fn table_size_is_sixteen() {
        // 15 comb combinations plus the identity in slot 0.
        let table = FixedBaseTable::new(&AffinePoint::generator());
        assert_eq!(table.entries.len(), 16);
    }
}
