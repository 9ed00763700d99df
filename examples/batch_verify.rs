//! Batch verification throughput: the optimisation an ITS roadside unit
//! facing the paper's "1000 messages/second" channel load would use on
//! top of the accelerator.
//!
//! Run with: `cargo run --release --example batch_verify`

use fourq::curve::FourQEngine;
use fourq::sig::schnorr::{verify, verify_batch_with, KeyPair, PublicKey, Signature};
use std::time::Instant;

fn main() {
    let eng = FourQEngine::shared();
    let n = 32;
    let keypairs: Vec<KeyPair> = (0..n)
        .map(|i| KeyPair::from_seed(&[i as u8 + 1; 32]))
        .collect();
    let messages: Vec<Vec<u8>> = (0..n)
        .map(|i| format!("CAM: vehicle {i}, intersection 7").into_bytes())
        .collect();
    let signatures: Vec<Signature> = keypairs
        .iter()
        .zip(&messages)
        .map(|(kp, m)| kp.sign(m))
        .collect();
    let items: Vec<(&PublicKey, &[u8], &Signature)> = keypairs
        .iter()
        .zip(&messages)
        .zip(&signatures)
        .map(|((kp, m), s)| (&kp.public, m.as_slice(), s))
        .collect();

    let t0 = Instant::now();
    let ok_individual = items.iter().all(|(pk, m, s)| verify(pk, m, s));
    let t_individual = t0.elapsed();

    let t0 = Instant::now();
    let ok_batch = verify_batch_with(eng, &items);
    let t_batch = t0.elapsed();

    assert!(ok_individual && ok_batch);
    println!("verified {n} signatures");
    println!(
        "  one-by-one : {t_individual:?}  ({:?}/sig)",
        t_individual / n as u32
    );
    println!("  batched    : {t_batch:?}  ({:?}/sig)", t_batch / n as u32);
    println!(
        "  speedup    : {:.1}x",
        t_individual.as_secs_f64() / t_batch.as_secs_f64()
    );

    // A single forged signature poisons the batch — fall back to scan.
    let mut bad = signatures.clone();
    bad[n / 2] = keypairs[n / 2].sign(b"forged payload");
    let poisoned: Vec<(&PublicKey, &[u8], &Signature)> = keypairs
        .iter()
        .zip(&messages)
        .zip(&bad)
        .map(|((kp, m), s)| (&kp.public, m.as_slice(), s))
        .collect();
    assert!(!verify_batch_with(eng, &poisoned));
    let culprit = poisoned
        .iter()
        .position(|(pk, m, s)| !verify(pk, m, s))
        .expect("one item is bad");
    println!("poisoned batch rejected; individual scan located item {culprit}");
}
