//! Fixed-base scalar multiplication on a cached ψ table.
//!
//! Signature generation and key generation always multiply the *same*
//! base point. Steps 1–2 of Algorithm 1 (the endomorphism images and the
//! 8-entry table) depend only on the base, so a [`FixedBaseTable`] builds
//! that table once and every multiplication runs only the scalar's part:
//! the 4-D split, the recoding and steps 3–4, the same loop
//! [`crate::scalar_mul_engine`] runs. The verifying side's
//! [`crate::double_scalar_mul`] reads `G`'s table from the one
//! [`FixedBaseTable`] held by [`crate::FourQEngine`].

use crate::affine::AffinePoint;
use crate::decompose::{decompose, recode};
use crate::engine::{psi_table, psi_table_mul};
use crate::extended::{CachedPoint, ExtendedPoint};
use crate::params::TWO_D;
use fourq_fp::{Fp2, Scalar};

/// The 8-entry ψ table of one base point (Algorithm 1, steps 1–2), built
/// once and reused for every scalar.
///
/// One multiplication then costs the split, 65 doublings and 67 cached
/// additions (the top digit, one per iteration, the parity correction),
/// with every table entry read by a masked scan of all eight slots — the
/// loop of [`AffinePoint::mul`], without its per-call endomorphism images
/// and table additions.
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
    /// `T[u] = B + u₀·ψ₇(B) + u₁·ψ₈(B) + u₂·ψ₇ψ₈(B)` in cached form.
    table: [CachedPoint<Fp2>; 8],
    /// The base point (kept for identity checks and documentation).
    base: AffinePoint,
}

impl FixedBaseTable {
    /// Builds the ψ table of `base` (three endomorphism images and 7
    /// cached additions, one-time).
    ///
    /// # Panics
    ///
    /// Panics if `base` is the identity (no meaningful table exists).
    pub fn new(base: &AffinePoint) -> FixedBaseTable {
        // ct: allow(R5) reason="table construction is one-time setup on a public base point"
        assert!(!base.is_identity(), "fixed-base table of the identity");
        FixedBaseTable {
            table: psi_table(&base.x, &base.y, &Fp2::ONE, &TWO_D),
            base: *base,
        }
    }

    /// The base point this table belongs to.
    pub fn base(&self) -> &AffinePoint {
        &self.base
    }

    /// The cached 8-entry ψ table, read by [`crate::double_scalar_mul`]
    /// when one of its points is this table's base.
    pub(crate) fn psi_table(&self) -> &[CachedPoint<Fp2>; 8] {
        &self.table
    }

    /// Fixed-base multiplication `[k]B`.
    ///
    /// Constant-time in the scalar: the digits select table entries by
    /// masked scans and the parity correction always adds, exactly as in
    /// [`AffinePoint::mul`].
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
        let d = decompose(k);
        let r = recode(&d);
        psi_table_mul(&self.table, &Fp2::ONE, &r, d.corrected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourq_fp::U256;

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
