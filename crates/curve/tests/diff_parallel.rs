//! Differential tests: every parallel batch path must be bit-identical
//! to its sequential execution at every thread count. The multiplication
//! paths must also equal an independent one-shot reference at every
//! thread count.
//!
//! These tests are the enforcement side of the determinism contract in
//! `DESIGN.md` §10: each item's output depends only on the item and its
//! index, outputs land at their index, and all outputs are canonical
//! encodings — so `threads = 8` must reproduce `threads = 1` exactly,
//! not just up to curve equality.

use fourq_curve::{AffinePoint, ExtendedPoint, FourQEngine, PIPPENGER_THRESHOLD};
use fourq_fp::{Fp2, Scalar};
use fourq_testkit::{diff_check, Arbitrary, TestRng};

/// Eight `[k]P` chunks and four `[k]G` chunks plus one item: enough for
/// both multiplication batches to fan out at every thread count above 1,
/// with more items than a worker's share.
const FAN_OUT_ITEMS: usize = 65;

fn random_pairs(rng: &mut TestRng, n: usize) -> Vec<(Scalar, AffinePoint)> {
    (0..n)
        .map(|_| (Scalar::arbitrary(rng), AffinePoint::arbitrary(rng)))
        .collect()
}

#[test]
fn batch_scalar_mul_is_thread_count_invariant() {
    let mut rng = TestRng::from_seed(0x51ca_1a01);
    let pairs = random_pairs(&mut rng, FAN_OUT_ITEMS);
    let reference: Vec<AffinePoint> = pairs.iter().map(|(k, p)| p.mul(k)).collect();
    diff_check!(|threads| {
        let got = FourQEngine::shared()
            .with_threads(threads)
            .batch_scalar_mul(&pairs);
        assert_eq!(got, reference, "batch diverges from one-shot muls");
        got
    });
}

#[test]
fn batch_fixed_base_mul_is_thread_count_invariant() {
    let mut rng = TestRng::from_seed(0xf1bb_a5e0);
    let mut ks: Vec<Scalar> = (0..FAN_OUT_ITEMS)
        .map(|_| Scalar::arbitrary(&mut rng))
        .collect();
    // Edge scalars ride along: 0 and 1 hit the identity/no-op rows.
    ks[0] = Scalar::ZERO;
    ks[1] = Scalar::ONE;
    let g = AffinePoint::generator();
    let reference: Vec<AffinePoint> = ks.iter().map(|k| g.mul_generic(k)).collect();
    diff_check!(|threads| {
        let got = FourQEngine::shared()
            .with_threads(threads)
            .batch_fixed_base_mul(&ks);
        assert_eq!(got, reference, "batch diverges from double-and-add");
        got
    });
}

#[test]
fn batch_to_affine_is_thread_count_invariant_above_chunk_size() {
    // A doubling chain makes thousands of distinct projective points
    // cheap to generate. 2200 points, far above the largest batch the
    // server flushes (256), run through one Montgomery inversion; each
    // must equal its own per-point inversion.
    let mut p: ExtendedPoint<Fp2> =
        AffinePoint::generator().mul_extended(&Scalar::from_u64(0xdead_beef));
    let mut points: Vec<ExtendedPoint<Fp2>> = Vec::with_capacity(2200);
    for _ in 0..2200 {
        p = p.double();
        points.push(p.clone());
    }
    let eng = FourQEngine::shared();
    let reference: Vec<AffinePoint> = points.iter().map(|p| eng.to_affine(p)).collect();
    diff_check!(|threads| {
        let got = eng.with_threads(threads).batch_to_affine(&points);
        assert_eq!(got, reference, "batch diverges from per-point inversion");
        got
    });
}

#[test]
fn msm_is_thread_count_invariant() {
    // 70 points: above the Pippenger threshold, so the per-window
    // fan-out is exercised for real.
    let mut rng = TestRng::from_seed(0x0515_0070);
    let pairs = random_pairs(&mut rng, 70);
    assert!(pairs.len() >= PIPPENGER_THRESHOLD);
    // An independent reference catches a window-offset or fold bug that
    // gives the same wrong answer at every thread count.
    let reference = pairs.iter().fold(AffinePoint::identity(), |acc, (k, p)| {
        acc.add(&p.mul_u256_generic(&k.to_u256()))
    });
    diff_check!(|threads| {
        let got = FourQEngine::shared().with_threads(threads).msm(&pairs);
        assert_eq!(got, reference, "Pippenger diverges from double-and-add");
        got
    });
}

#[test]
fn with_threads_clamps_and_reports() {
    let eng = FourQEngine::shared();
    assert!(eng.threads() >= 1);
    assert_eq!(eng.with_threads(0).threads(), 1);
    assert_eq!(eng.with_threads(3).threads(), 3);
    assert_eq!(
        eng.with_threads(usize::MAX).threads(),
        fourq_pool::MAX_THREADS
    );
}
