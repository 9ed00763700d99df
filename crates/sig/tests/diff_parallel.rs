//! Differential tests for the signature layer: batch signing, batch
//! verification and batch key derivation must be bit-identical at every
//! thread count and equal their one-shot forms (see `DESIGN.md` §10).
//!
//! Each test pins the engine with `FourQEngine::with_threads` through the
//! `*_with` entry points, so the ambient `FOURQ_THREADS` setting cannot
//! influence the comparison.

use fourq_curve::FourQEngine;
use fourq_sig::{dh, ecdsa, schnorr};
use fourq_testkit::diff_check;

/// Two 32-item chunks plus one item: enough for the fixed-base
/// multiplications, signing's per-commitment stage and the verification
/// prep to fan out at every thread count above 1.
const FAN_OUT_ITEMS: usize = 65;

fn messages(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("beacon {i}: intersection clear").into_bytes())
        .collect()
}

#[test]
fn schnorr_sign_batch_is_thread_count_invariant() {
    let kp = schnorr::KeyPair::from_seed(&[0xa1; 32]);
    let msgs = messages(FAN_OUT_ITEMS);
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    let one_shot: Vec<schnorr::Signature> = refs.iter().map(|m| kp.sign(m)).collect();
    diff_check!(|threads| {
        let eng = FourQEngine::shared().with_threads(threads);
        let got = kp.sign_batch_with(&eng, &refs);
        assert_eq!(got, one_shot, "batch diverges from one-shot signing");
        got
    });
}

#[test]
fn schnorr_verify_batch_is_thread_count_invariant() {
    let kps: Vec<schnorr::KeyPair> = (0u8..FAN_OUT_ITEMS as u8)
        .map(|i| schnorr::KeyPair::from_seed(&[i + 0x40; 32]))
        .collect();
    let msgs = messages(FAN_OUT_ITEMS);
    let sigs: Vec<schnorr::Signature> = kps.iter().zip(&msgs).map(|(kp, m)| kp.sign(m)).collect();
    let items: Vec<(&schnorr::PublicKey, &[u8], &schnorr::Signature)> = kps
        .iter()
        .zip(&msgs)
        .zip(&sigs)
        .map(|((kp, m), s)| (&kp.public, m.as_slice(), s))
        .collect();

    diff_check!(|threads| {
        let eng = FourQEngine::shared().with_threads(threads);
        let accepted = schnorr::verify_batch_with(&eng, &items);
        assert!(accepted, "valid batch rejected at {threads} threads");
        accepted
    });

    // The verdict must also hold for a rejecting batch: a malformed
    // encoding in the first chunk (the decode early-out), or a wrong `s`
    // in the last, partial one.
    for (at, forge) in [
        (
            4,
            (|s: &mut schnorr::Signature| s.r[0] ^= 0xff) as fn(&mut schnorr::Signature),
        ),
        (FAN_OUT_ITEMS - 1, |s| s.s = s.s + fourq_fp::Scalar::ONE),
    ] {
        let mut forged = sigs.clone();
        forge(&mut forged[at]);
        let forged_items: Vec<(&schnorr::PublicKey, &[u8], &schnorr::Signature)> = kps
            .iter()
            .zip(&msgs)
            .zip(&forged)
            .map(|((kp, m), s)| (&kp.public, m.as_slice(), s))
            .collect();
        diff_check!(|threads| {
            let eng = FourQEngine::shared().with_threads(threads);
            let accepted = schnorr::verify_batch_with(&eng, &forged_items);
            assert!(!accepted, "forgery at {at} accepted at {threads} threads");
            accepted
        });
    }
}

#[test]
fn ecdsa_sign_batch_is_thread_count_invariant() {
    let kp = ecdsa::KeyPair::from_secret(fourq_fp::Scalar::from_u64(0x1ce_cafe)).unwrap();
    let msgs = messages(FAN_OUT_ITEMS);
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    let one_shot: Vec<ecdsa::Signature> = refs.iter().map(|m| kp.sign(m).unwrap()).collect();
    diff_check!(|threads| {
        let eng = FourQEngine::shared().with_threads(threads);
        let got = kp.sign_batch_with(&eng, &refs).unwrap();
        assert_eq!(got, one_shot, "batch diverges from one-shot signing");
        got
    });
}

#[test]
fn dh_batch_from_seeds_is_thread_count_invariant() {
    let seeds: Vec<[u8; 32]> = (0u8..FAN_OUT_ITEMS as u8).map(|i| [i ^ 0x5a; 32]).collect();
    let one_shot: Vec<[u8; 32]> = seeds
        .iter()
        .map(|s| dh::EphemeralSecret::from_seed(s).public)
        .collect();
    diff_check!(|threads| {
        let eng = FourQEngine::shared().with_threads(threads);
        let got: Vec<[u8; 32]> = dh::EphemeralSecret::batch_from_seeds_with(&eng, &seeds)
            .iter()
            .map(|p| p.public)
            .collect();
        assert_eq!(got, one_shot, "batch diverges from one-shot derivation");
        got
    });
}
