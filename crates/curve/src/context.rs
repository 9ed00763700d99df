//! The reusable scalar-multiplication context — the batch-first entry
//! point of the curve layer.
//!
//! The paper's ASIC amortises its one-time costs (precomputed tables, a
//! fixed schedule) across every scalar multiplication it serves. The
//! software analogue is [`FourQEngine`]: a context constructed once that
//! owns the generator's precomputed tables and the curve constants, and
//! exposes *batch* operations as the primary API. Batching is where the
//! throughput is: a single [`Fp2`] inversion costs ~54 `fp2_mul`
//! equivalents, so `batch_to_affine` (one inversion per batch instead of
//! per point) and [`FourQEngine::msm`] (one doubling chain per batch)
//! change the per-op cost structure rather than micro-tuning single
//! calls. Every one-shot method is a thin wrapper over the batch path
//! with `n = 1`.

use crate::affine::AffinePoint;
use crate::extended::ExtendedPoint;
use crate::fixed_base::FixedBaseTable;
use crate::multi;
use crate::params::TWO_D;
use fourq_fp::{Fp2, Scalar};

/// Items per pool chunk of a variable-base batch: one item is a whole
/// `[k]P` (~20 µs on a 2-vCPU host), so a chunk is ~160 µs against a
/// 60–120 µs thread spawn, and a batch fans out from two chunks, 16 items
/// (`DESIGN.md` §10).
const SCALAR_MUL_CHUNK: usize = 8;

/// Items per pool chunk of a fixed-base batch: one `[k]G` on the comb is
/// ~9 µs, so a chunk is ~145 µs and a batch fans out from 32 items.
const FIXED_BASE_CHUNK: usize = 16;

/// A reusable FourQ computation context.
///
/// Owns the generator's [`FixedBaseTable`], which carries two tables:
/// the mLSB-set comb that every `[k]G` runs, and the 128-entry pair table
/// over Algorithm 1's ψ table that [`crate::double_scalar_mul`] and every
/// small MSM read, two of `G`'s recoded columns at a time, whenever one of
/// their points is `G`, since that stream shares their 65 doublings. It
/// also exposes the curve constant `2d` used by the cached-point formulas.
/// The four-dimensional decomposition itself needs no per-engine state:
/// its endomorphisms ψ₇ and ψ₈ and its lattice are compile-time constants
/// (see `DESIGN.md` §3), and for any other point the images `ψ₇(P)`,
/// `ψ₈(P)`, `ψ₇ψ₈(P)` are evaluated per call.
///
/// ```
/// use fourq_curve::{AffinePoint, FourQEngine};
/// use fourq_fp::Scalar;
/// let eng = FourQEngine::shared();
/// let k = Scalar::from_u64(7);
/// assert_eq!(eng.fixed_base_mul(&k), AffinePoint::generator().mul(&k));
/// ```
#[derive(Clone, Debug)]
pub struct FourQEngine {
    gen_table: FixedBaseTable,
    threads: usize,
}

impl FourQEngine {
    /// Builds a fresh engine, precomputing the generator's tables once
    /// ([`FixedBaseTable::new`], ~60–80 µs). The thread budget
    /// for batch operations is resolved once here — `FOURQ_THREADS` if set, else
    /// the machine's available parallelism (capped); see
    /// [`fourq_pool::resolved_threads`].
    pub fn new() -> FourQEngine {
        FourQEngine {
            gen_table: FixedBaseTable::new(&AffinePoint::generator()),
            threads: fourq_pool::resolved_threads(),
        }
    }

    /// Returns a copy of this engine pinned to exactly `n` worker
    /// threads (clamped to `1..=`[`fourq_pool::MAX_THREADS`]), ignoring
    /// `FOURQ_THREADS`. Batch results are bit-identical at every thread
    /// count; this knob only changes wall-clock time. It is also what the
    /// differential test layer uses to pin both sides of a comparison.
    pub fn with_threads(&self, n: usize) -> FourQEngine {
        FourQEngine {
            gen_table: self.gen_table.clone(),
            threads: n.clamp(1, fourq_pool::MAX_THREADS),
        }
    }

    /// The number of worker threads batch operations may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The process-wide shared engine, built on first use. Library
    /// entry points (signatures, key exchange) all route through this so
    /// the generator's table is precomputed exactly once per process.
    pub fn shared() -> &'static FourQEngine {
        static ENGINE: std::sync::OnceLock<FourQEngine> = std::sync::OnceLock::new();
        ENGINE.get_or_init(FourQEngine::new)
    }

    /// The generator's precomputed tables.
    pub fn generator_table(&self) -> &FixedBaseTable {
        &self.gen_table
    }

    /// The curve constant `2d` (the cached-point coordinate `2dT`).
    pub fn two_d(&self) -> &'static Fp2 {
        &TWO_D
    }

    // ------------------------------------------------------------------
    // Variable-base scalar multiplication
    // ------------------------------------------------------------------

    /// One-shot `[k]P` — a batch of size 1.
    // ct: secret(k)
    pub fn scalar_mul(&self, p: &AffinePoint, k: &Scalar) -> AffinePoint {
        let out = self.batch_scalar_mul(&[(*k, *p)]);
        out[0]
    }

    /// Computes `[k_i]P_i` for every pair, sharing a single field
    /// inversion across the whole batch for the final normalisation.
    ///
    /// Each multiplication runs the full constant-time kernel (the
    /// per-point work is unchanged); the amortisation is in
    /// [`FourQEngine::batch_to_affine`], which replaces `n` Fermat
    /// inversions with one inversion plus `3(n−1)` multiplications.
    ///
    /// With a multi-thread engine, a batch of 16 items or more spreads its
    /// multiplications over worker threads, one whole multiplication at a
    /// time; outputs land at their input index, so the result is
    /// bit-identical to the sequential run.
    // ct: secret(pairs)
    pub fn batch_scalar_mul(&self, pairs: &[(Scalar, AffinePoint)]) -> Vec<AffinePoint> {
        let projective =
            fourq_pool::map_items(pairs, SCALAR_MUL_CHUNK, self.threads, |_, (k, p)| {
                p.mul_extended(k)
            });
        self.batch_to_affine(&projective)
    }

    // ------------------------------------------------------------------
    // Fixed-base (generator) multiplication
    // ------------------------------------------------------------------

    /// One-shot `[k]G` on the generator's comb — a batch of size 1.
    // ct: secret(k)
    pub fn fixed_base_mul(&self, k: &Scalar) -> AffinePoint {
        let out = self.batch_fixed_base_mul(std::slice::from_ref(k));
        out[0]
    }

    /// Computes `[k_i]G` for every scalar on the generator's comb and one
    /// batch-normalisation inversion. This is the key-generation /
    /// signing workload shape: many independent secret scalars, one
    /// public base. Fans out as [`FourQEngine::batch_scalar_mul`] does,
    /// from 32 items.
    // ct: secret(ks)
    pub fn batch_fixed_base_mul(&self, ks: &[Scalar]) -> Vec<AffinePoint> {
        let projective = fourq_pool::map_items(ks, FIXED_BASE_CHUNK, self.threads, |_, k| {
            self.gen_table.mul_extended(k)
        });
        self.batch_to_affine(&projective)
    }

    // ------------------------------------------------------------------
    // Normalisation
    // ------------------------------------------------------------------

    /// One-shot projective → affine conversion (one inversion).
    pub fn to_affine(&self, p: &ExtendedPoint<Fp2>) -> AffinePoint {
        AffinePoint::from_extended(p)
    }

    /// Converts a whole batch with a single field inversion
    /// (Montgomery's trick via [`Fp2::batch_invert`]); the per-point cost
    /// collapses from one ~1.4 µs inversion to three field
    /// multiplications. Returns an empty vector for empty input.
    ///
    /// # Panics
    ///
    /// Panics if any point has `Z = 0` (never produced by the complete
    /// Edwards formulas).
    pub fn batch_to_affine(&self, points: &[ExtendedPoint<Fp2>]) -> Vec<AffinePoint> {
        let zs: Vec<Fp2> = points
            .iter()
            .map(|p| {
                // ct: allow(R5) reason="documented panic on Z = 0; inputs are public verifier points"
                assert!(!p.z.is_zero(), "projective Z must be nonzero");
                p.z
            })
            .collect();
        points
            .iter()
            .zip(Fp2::batch_invert(&zs))
            .map(|(p, zinv)| AffinePoint {
                x: p.x * zinv,
                y: p.y * zinv,
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Multi-scalar multiplication
    // ------------------------------------------------------------------

    /// `Σ [k_i]P_i` with public inputs (verification workloads), the one
    /// multi-scalar multiplication of the crate.
    ///
    /// Below [`crate::PIPPENGER_THRESHOLD`] terms, every scalar is split four
    /// ways with the endomorphisms of Algorithm 1 and all digit streams
    /// share one sequential loop of 65 doublings, the loop of
    /// [`crate::double_scalar_mul`]. From the threshold up, the bucket
    /// (Pippenger) method runs, its windows spread over the engine's
    /// threads. Both are exact on every point of `E(F_p²)`, torsion
    /// included, and the result is bit-identical at every thread count.
    ///
    /// ```
    /// use fourq_curve::{AffinePoint, FourQEngine};
    /// use fourq_fp::Scalar;
    /// let g = AffinePoint::generator();
    /// let pairs = [(Scalar::from_u64(3), g), (Scalar::from_u64(4), g.double())];
    /// assert_eq!(FourQEngine::shared().msm(&pairs), g.mul(&Scalar::from_u64(11)));
    /// ```
    pub fn msm(&self, pairs: &[(Scalar, AffinePoint)]) -> AffinePoint {
        let sum: ExtendedPoint<Fp2> = multi::msm(self.gen_table.pairs(), pairs, self.threads);
        AffinePoint::from_extended(&sum)
    }
}

impl Default for FourQEngine {
    fn default() -> Self {
        FourQEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_wrappers_match_direct() {
        let eng = FourQEngine::shared();
        let g = AffinePoint::generator();
        let k = Scalar::from_u64(0xfeed_f00d);
        let want = g.mul_generic(&k);
        assert_eq!(eng.scalar_mul(&g, &k), want);
        assert_eq!(eng.fixed_base_mul(&k), want);
        let e = g.mul_extended(&k);
        assert_eq!(eng.to_affine(&e), want);
    }

    #[test]
    fn batch_scalar_mul_matches_one_shot() {
        let eng = FourQEngine::shared();
        let g = AffinePoint::generator();
        let pairs: Vec<(Scalar, AffinePoint)> = (1u64..10)
            .map(|i| (Scalar::from_u64(i * 31 + 5), g.mul(&Scalar::from_u64(i))))
            .collect();
        let batch = eng.batch_scalar_mul(&pairs);
        for ((k, p), b) in pairs.iter().zip(&batch) {
            assert_eq!(*b, p.mul(k));
        }
    }

    #[test]
    fn batch_fixed_base_matches_double_and_add() {
        let eng = FourQEngine::shared();
        let g = AffinePoint::generator();
        let ks: Vec<Scalar> = (0u64..7).map(|i| Scalar::from_u64(i * i + 1)).collect();
        let batch = eng.batch_fixed_base_mul(&ks);
        for (k, b) in ks.iter().zip(&batch) {
            assert_eq!(*b, g.mul_generic(k));
        }
    }

    #[test]
    fn empty_batches() {
        let eng = FourQEngine::shared();
        assert!(eng.batch_scalar_mul(&[]).is_empty());
        assert!(eng.batch_fixed_base_mul(&[]).is_empty());
        assert!(eng.batch_to_affine(&[]).is_empty());
    }

    #[test]
    fn engine_constants() {
        let eng = FourQEngine::new();
        assert_eq!(*eng.two_d(), crate::params::D + crate::params::D);
        assert_eq!(eng.generator_table().base(), &AffinePoint::generator());
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let eng = FourQEngine::shared();
        let g = AffinePoint::generator();
        let pts: Vec<ExtendedPoint<Fp2>> = (1u64..9)
            .map(|i| {
                let p = g.mul(&Scalar::from_u64(i));
                let e = ExtendedPoint::from_affine(&p.x, &p.y, &Fp2::ONE);
                // un-normalise deliberately by doubling (Z ≠ 1)
                e.double()
            })
            .collect();
        let batch = eng.batch_to_affine(&pts);
        for (i, b) in batch.iter().enumerate() {
            let expect = g.mul(&Scalar::from_u64(2 * (i as u64 + 1)));
            assert_eq!(*b, expect, "i = {i}");
        }
    }

    #[test]
    fn batch_to_affine_single() {
        let g = AffinePoint::generator();
        let e = ExtendedPoint::from_affine(&g.x, &g.y, &Fp2::ONE);
        assert_eq!(FourQEngine::shared().batch_to_affine(&[e])[0], g);
    }
}
