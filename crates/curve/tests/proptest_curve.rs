#![allow(clippy::needless_range_loop)]
//! Property-based tests for decomposition, recoding and the group law.
//!
//! Runs on the hermetic `fourq-testkit` property runner; every failure
//! prints a `FOURQ_PROP_SEED` recipe that replays the exact case.

use fourq_curve::{
    decompose, recode, AffinePoint, FourQEngine, DIGITS, LAMBDA7, LAMBDA8, PIPPENGER_THRESHOLD,
};
use fourq_fp::{Scalar, U256};
use fourq_testkit::prop_check;

#[test]
fn decompose_recode_reconstructs() {
    prop_check!(cases = 64, |k: Scalar| {
        let d = decompose(&k);
        let r = recode(&d);
        let rec = r.reconstruct();
        for j in 0..4 {
            assert_eq!(rec[j], d.limbs[j] as i128);
        }
        // the sub-scalars satisfy the lattice relation
        // a₁ + a₂λ₇ + a₃λ₈ + a₄λ₇λ₈ ≡ k (or k+1 when parity-corrected)
        let [a1, a2, a3, a4] = d.limbs.map(|l| Scalar::from_u256(U256::from_u128(l)));
        let (l7, l8) = (Scalar::from_u256(LAMBDA7), Scalar::from_u256(LAMBDA8));
        let expect = if d.corrected.to_bool_vartime() {
            k + Scalar::ONE
        } else {
            k
        };
        assert_eq!(a1 + a2 * l7 + a3 * l8 + a4 * l7 * l8, expect);
    });
}

#[test]
fn recoded_digits_well_formed() {
    prop_check!(cases = 64, |k: Scalar| {
        let r = recode(&decompose(&k));
        for i in 0..DIGITS {
            assert!(r.indices[i] < 8);
            assert!(r.signs[i] == 1 || r.signs[i] == -1);
        }
        assert_eq!(r.signs[DIGITS - 1], 1);
    });
}

// scalar multiplications are ~ms each; keep the case count moderate

#[test]
fn decomposed_mul_matches_generic() {
    prop_check!(cases = 12, |k: Scalar| {
        let g = AffinePoint::generator();
        assert_eq!(g.mul(&k), g.mul_generic(&k));
    });
}

#[test]
fn addition_is_commutative_and_associative() {
    prop_check!(cases = 12, |rng| {
        let a = rng.range_u64(1, u64::MAX);
        let b = rng.range_u64(1, u64::MAX);
        let g = AffinePoint::generator();
        let p = g.mul(&Scalar::from_u64(a));
        let q = g.mul(&Scalar::from_u64(b));
        assert_eq!(p.add(&q), q.add(&p));
        let r = g.double();
        assert_eq!(p.add(&q).add(&r), p.add(&q.add(&r)));
    });
}

#[test]
fn encode_decode_roundtrip() {
    prop_check!(cases = 12, |rng| {
        let a = rng.range_u64(1, u64::MAX);
        let p = AffinePoint::generator().mul(&Scalar::from_u64(a));
        assert_eq!(AffinePoint::decode(&p.encode()).unwrap(), p);
    });
}

/// `Σ [kᵢ]Pᵢ` by double-and-add, the MSM reference.
fn msm_reference(pairs: &[(Scalar, AffinePoint)]) -> AffinePoint {
    pairs.iter().fold(AffinePoint::identity(), |acc, (k, p)| {
        acc.add(&p.mul_u256_generic(&k.to_u256()))
    })
}

#[test]
fn msm_matches_repeated_scalar_mul() {
    // Batch sizes on both sides of the split/Pippenger dispatch, against
    // the sum of independent double-and-add multiplications.
    prop_check!(cases = 4, |rng| {
        let g = AffinePoint::generator();
        let n = rng.range_u64(1, 2 * PIPPENGER_THRESHOLD as u64) as usize;
        let pairs: Vec<(Scalar, AffinePoint)> = (0..n)
            .map(|_| {
                let k = Scalar::from_u64(rng.range_u64(0, u64::MAX));
                let p = g.mul(&Scalar::from_u64(rng.range_u64(1, 1 << 20)));
                (k, p)
            })
            .collect();
        let got = FourQEngine::shared().msm(&pairs);
        assert_eq!(got, msm_reference(&pairs), "n = {n}");
    });
}

#[test]
fn batch_to_affine_matches_pointwise() {
    prop_check!(cases = 6, |rng| {
        let eng = FourQEngine::shared();
        let g = AffinePoint::generator();
        let n = rng.range_u64(1, 9) as usize;
        let ext: Vec<_> = (0..n)
            .map(|_| {
                let k = Scalar::from_u64(rng.range_u64(1, u64::MAX));
                g.mul_extended(&k)
            })
            .collect();
        let batch = eng.batch_to_affine(&ext);
        for (e, b) in ext.iter().zip(&batch) {
            assert_eq!(eng.to_affine(e), *b);
        }
    });
}

#[test]
fn double_scalar_mul_correct() {
    prop_check!(cases = 12, |rng; a: Scalar, b: Scalar| {
        let q = rng.range_u64(1, 1000);
        let g = AffinePoint::generator();
        let qp = g.mul(&Scalar::from_u64(q));
        assert_eq!(
            fourq_curve::double_scalar_mul(&a, &g, &b, &qp),
            g.mul(&a).add(&qp.mul(&b))
        );
    });
}

#[test]
fn msm_at_pippenger_threshold_boundary() {
    // The split→Pippenger dispatch flips exactly at PIPPENGER_THRESHOLD;
    // run the batch sizes straddling it (T−1, T, T+1) against the naive
    // sum at each.
    prop_check!(cases = 3, |rng| {
        for n in [
            PIPPENGER_THRESHOLD - 1,
            PIPPENGER_THRESHOLD,
            PIPPENGER_THRESHOLD + 1,
        ] {
            let g = AffinePoint::generator();
            let pairs: Vec<(Scalar, AffinePoint)> = (0..n)
                .map(|_| {
                    let p = g.mul(&Scalar::from_u64(rng.range_u64(1, 1 << 20)));
                    (Scalar::from_u64(rng.range_u64(1, 1 << 20)), p)
                })
                .collect();
            let got = FourQEngine::shared().msm(&pairs);
            assert_eq!(got, msm_reference(&pairs), "n = {n}");
        }
    });
}
