//! Multi-scalar multiplication `Σ [kᵢ]Pᵢ` over public inputs.
//!
//! Signature verification (paper §II-A, ECDSA verification step 4, and
//! Schnorr) computes `[u₁]G + [u₂]Q`; Schnorr batch verification computes
//! a `2n + 1`-term sum. Below [`PIPPENGER_THRESHOLD`] terms, [`split_msm`]
//! splits every scalar four ways with the endomorphisms of Algorithm 1 and
//! runs all the digit streams through one loop of 65 doublings
//! ([`double_scalar_mul`] is its two-term call). From the threshold up,
//! [`pippenger`] shares one doubling chain and a per-window bucket sweep
//! across all terms. [`FourQEngine::msm`] chooses between the two.

use crate::affine::AffinePoint;
use crate::context::FourQEngine;
use crate::decompose::{decompose, recode, DIGITS};
use crate::engine::{identity, psi_table};
use crate::extended::{CachedPoint, ExtendedPoint};
use crate::params::TWO_D;
use fourq_fp::{Fp2, Scalar, U256};
use std::borrow::Cow;

/// Computes `[a]P + [b]Q`: the two-term call of the split loop that
/// [`FourQEngine::msm`] runs on small batches. Exact on every point of
/// `E(F_p²)`, torsion included, like [`AffinePoint::mul`].
///
/// ```
/// use fourq_curve::{double_scalar_mul, AffinePoint};
/// use fourq_fp::Scalar;
/// let g = AffinePoint::generator();
/// let q = g.mul(&Scalar::from_u64(99));
/// let r = double_scalar_mul(&Scalar::from_u64(5), &g, &Scalar::from_u64(7), &q);
/// assert_eq!(r, g.mul(&Scalar::from_u64(5 + 7 * 99)));
/// ```
pub fn double_scalar_mul(a: &Scalar, p: &AffinePoint, b: &Scalar, q: &AffinePoint) -> AffinePoint {
    split_msm(&[(*a, *p), (*b, *q)])
}

/// Batch size, in terms, from which [`FourQEngine::msm`] runs the bucket
/// (Pippenger) method instead of the split loop. The split loop costs a
/// ψ table and 66 cached additions per term whatever the scalar's length,
/// plus 65 shared doublings; Pippenger's per-window bucket sweep is a
/// fixed cost that only enough terms amortise. Set from interleaved
/// single-thread timings on Schnorr batch verification's `2n + 1`-term
/// shape: from 37 terms the two tie or Pippenger wins (`DESIGN.md` §9).
pub const PIPPENGER_THRESHOLD: usize = 37;

/// `Σ [kᵢ]Pᵢ` with the 4-D split of Algorithm 1 on every scalar:
/// [`decompose`] and [`recode`] turn each into 66 signed digits over its
/// point's 8-entry ψ table, and one shared loop runs 65 iterations of one
/// doubling and one cached addition per term, then the parity corrections
/// and one inversion.
///
/// Inputs are public, so the digits index the tables directly and the
/// parity corrections branch. `G`'s table is built once per process and
/// held by [`FourQEngine::shared`]; any other point's is built per call.
pub(crate) fn split_msm(pairs: &[(Scalar, AffinePoint)]) -> AffinePoint {
    // Verifier-side: scalars and points derive from public signatures and
    // messages, so their digits may drive indexing and branches.
    let streams: Vec<_> = pairs
        .iter()
        .map(|(k, p)| {
            let d = decompose(k); // ct: public — verification inputs are public by protocol
            (recode(&d), d.corrected, psi_table_of(p))
        })
        .collect();
    let add_digits = |acc: ExtendedPoint<Fp2>, i: usize| {
        streams.iter().fold(acc, |acc, (r, _, t)| {
            let e = &t[r.indices[i] as usize];
            if r.signs[i] < 0 {
                acc.add_cached(&e.neg())
            } else {
                acc.add_cached(e)
            }
        })
    };
    let top = DIGITS - 1;
    let mut acc = add_digits(identity(&Fp2::ONE), top);
    for i in (0..top).rev() {
        acc = add_digits(acc.double(), i);
    }
    // A split whose rounded a₁ was even represents k + 1: subtract T[0],
    // the point itself.
    for (_, corrected, t) in &streams {
        if corrected.to_bool_vartime() {
            acc = acc.add_cached(&t[0].neg());
        }
    }
    AffinePoint::from_extended(&acc)
}

/// The ψ table of `p`: the shared engine's copy for `G`, a fresh one
/// otherwise.
fn psi_table_of(p: &AffinePoint) -> Cow<'static, [CachedPoint<Fp2>; 8]> {
    if *p == AffinePoint::generator() {
        Cow::Borrowed(FourQEngine::shared().generator_table().psi_table())
    } else {
        Cow::Owned(psi_table(&p.x, &p.y, &Fp2::ONE, &TWO_D))
    }
}

/// Picks the Pippenger window width `c` minimising the estimated addition
/// count `n·⌈246/c⌉ + ⌈246/c⌉·2·2^c` for a batch of `n` points
/// (`n ≥ PIPPENGER_THRESHOLD`, so never below 5).
fn pippenger_window(n: usize) -> usize {
    match n {
        0..=229 => 5,
        230..=799 => 6,
        _ => 7,
    }
}

/// Smallest Pippenger batch worth going parallel: below this, a window
/// partial is so few bucket additions that thread spawn cost dominates
/// (measured crossover; see `DESIGN.md` §10).
const MSM_PAR_MIN_POINTS: usize = 48;

/// Windows per parallel work item. Fixed (thread-count-independent) so
/// the chunk tree — and therefore the reduction order — never changes.
const MSM_WINDOW_CHUNK: usize = 4;

/// The bucket accumulation + running-sum sweep for one `c`-bit window:
/// returns `Σ d·B_d` over this window's digits, in extended coordinates.
fn pippenger_window_sum(
    scalars: &[U256],
    lifted: &[ExtendedPoint<Fp2>],
    cached: &[CachedPoint<Fp2>],
    w: usize,
    c: usize,
) -> ExtendedPoint<Fp2> {
    let n_buckets = (1usize << c) - 1;
    let mut buckets: Vec<Option<ExtendedPoint<Fp2>>> = vec![None; n_buckets];
    for (i, s) in scalars.iter().enumerate() {
        let d = s.extract_bits(w * c, c) as usize;
        if d != 0 {
            buckets[d - 1] = Some(match buckets[d - 1].take() {
                Some(b) => b.add_cached(&cached[i]),
                None => lifted[i].clone(),
            });
        }
    }
    // Running-sum sweep: running = Σ_{e ≥ d} B_e after step d, and
    // Σ_d running_d = Σ d·B_d. Both accumulators stay in extended
    // coordinates; empty buckets only skip the `running` update.
    let mut running = identity(&Fp2::ONE);
    let mut window_sum = identity(&Fp2::ONE);
    let mut any = false;
    for b in buckets.iter().rev() {
        if let Some(b) = b {
            running = running.add_cached(&b.to_cached(&TWO_D));
            any = true;
        }
        if any {
            window_sum = window_sum.add_cached(&running.to_cached(&TWO_D));
        }
    }
    window_sum
}

/// `Σ [kᵢ]Pᵢ` by the bucket (Pippenger) method, on up to `threads`
/// workers.
///
/// The 246-bit scalars are cut into `⌈246/c⌉` windows of `c` bits. For
/// each window every point falls into the bucket of its digit (digit 0
/// skips, so short scalars such as 64-bit RLC coefficients cost nothing in
/// their empty upper windows), and the running-sum sweep over the buckets
/// recovers the window sum `Σ d·B_d`.
///
/// Every window's bucket accumulation is independent of every other
/// window's, so the windows are the parallel axis: workers compute
/// window partials over fixed index ranges of `MSM_WINDOW_CHUNK` (4)
/// windows, and the calling thread folds the partials high-to-low through
/// the shared doubling chain (`acc ← [2^c]acc + partial_w`) — a reduction
/// whose order is fixed by the window index, not by thread scheduling.
/// Affine outputs are canonical, so results are bit-identical at every
/// thread count.
pub(crate) fn pippenger(pairs: &[(Scalar, AffinePoint)], threads: usize) -> AffinePoint {
    // Batch verification input: scalars and points are public signature
    // components, so the digit-driven skips below are deliberate.
    let scalars: Vec<U256> = pairs.iter().map(|(k, _)| k.to_u256()).collect(); // ct: public — verification inputs
    let c = pippenger_window(pairs.len()); // ct: public — window width derives from the public batch size
    let windows = 246usize.div_ceil(c);

    // Lift every point once; bucket insertion uses the cached form.
    let lifted: Vec<ExtendedPoint<Fp2>> = pairs
        .iter()
        .map(|(_, p)| ExtendedPoint::from_affine(&p.x, &p.y, &Fp2::ONE))
        .collect(); // ct: public — verification points are public by protocol
    let cached: Vec<_> = lifted.iter().map(|e| e.to_cached(&TWO_D)).collect();

    let window_ids: Vec<usize> = (0..windows).collect();
    let workers = if pairs.len() >= MSM_PAR_MIN_POINTS {
        threads
    } else {
        1
    };
    let partials = fourq_pool::map_items(&window_ids, MSM_WINDOW_CHUNK, workers, |_, &w| {
        pippenger_window_sum(&scalars, &lifted, &cached, w, c)
    });

    // Fold the partials through the shared doubling chain, high window
    // first — the same `acc ← [2^c]acc + Σ d·B_d` recurrence the fused
    // sequential loop performs.
    let mut acc = identity(&Fp2::ONE);
    for partial in partials.iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc = acc.add_cached(&partial.to_cached(&TWO_D));
    }
    AffinePoint::from_extended(&acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Σ [kᵢ]Pᵢ` by double-and-add, the reference.
    fn reference(pairs: &[(Scalar, AffinePoint)]) -> AffinePoint {
        pairs.iter().fold(AffinePoint::identity(), |acc, (k, p)| {
            acc.add(&p.mul_u256_generic(&k.to_u256()))
        })
    }

    #[test]
    fn double_scalar_matches_separate() {
        let g = AffinePoint::generator();
        let q = g.mul(&Scalar::from_u64(31415926));
        for (a, b) in [(1u64, 1u64), (5, 7), (0, 9), (9, 0), (u64::MAX, 2)] {
            let a = Scalar::from_u64(a);
            let b = Scalar::from_u64(b);
            let joint = double_scalar_mul(&a, &g, &b, &q);
            let separate = g.mul(&a).add(&q.mul(&b));
            assert_eq!(joint, separate);
        }
    }

    #[test]
    fn double_scalar_zero_zero() {
        let g = AffinePoint::generator();
        let r = double_scalar_mul(&Scalar::ZERO, &g, &Scalar::ZERO, &g);
        assert!(r.is_identity());
    }

    #[test]
    fn both_paths_match_double_and_add() {
        let g = AffinePoint::generator();
        // Small sizes and the two sizes around the dispatch threshold.
        for n in [1, 2, 13, PIPPENGER_THRESHOLD - 1, PIPPENGER_THRESHOLD] {
            let pairs: Vec<(Scalar, AffinePoint)> = (0..n as u64)
                .map(|i| {
                    (
                        Scalar::from_u64(i * 0x9e37_79b9 + 11),
                        g.mul(&Scalar::from_u64(i + 2)),
                    )
                })
                .collect();
            let want = reference(&pairs);
            assert_eq!(split_msm(&pairs), want, "split, n = {n}");
            assert_eq!(pippenger(&pairs, 1), want, "Pippenger, n = {n}");
        }
    }

    #[test]
    fn both_paths_handle_zero_scalars_and_identity_points() {
        let g = AffinePoint::generator();
        let pairs = vec![
            (Scalar::ZERO, g),
            (Scalar::from_u64(5), AffinePoint::identity()),
            (Scalar::from_u64(3), g.double()),
        ];
        assert_eq!(split_msm(&pairs), g.mul(&Scalar::from_u64(6)));
        assert_eq!(pippenger(&pairs, 1), g.mul(&Scalar::from_u64(6)));
        assert!(split_msm(&[]).is_identity());
        assert!(pippenger(&[], 1).is_identity());
        assert!(split_msm(&[(Scalar::ZERO, g)]).is_identity());
        assert!(pippenger(&[(Scalar::ZERO, g)], 1).is_identity());
    }

    #[test]
    fn both_paths_take_full_width_scalars() {
        let g = AffinePoint::generator();
        // N − 1 exercises the top window of every width class.
        let pairs = vec![(-Scalar::ONE, g), (Scalar::from_u64(12345), g.double())];
        let want = reference(&pairs);
        assert_eq!(split_msm(&pairs), want);
        assert_eq!(pippenger(&pairs, 1), want);
    }
}
