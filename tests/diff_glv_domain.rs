//! Differential oracle for the domain of the GLV split: `[k]P` must be
//! exact on every on-curve point, not only on the order-`N` subgroup.
//!
//! The decomposition rounds against the lattice of the whole group
//! `E(F_p²) ≅ Z/8 × (Z/7)² × Z/N`, so torsion and mixed-order points need no
//! subgroup check and no fallback path. This pins that decision: the
//! one-shot `AffinePoint::mul`, a `FixedBaseTable` built on the point, the
//! batch engine, the compiled kernel, the verifier's `double_scalar_mul`
//! and both paths of `FourQEngine::msm` must each equal plain
//! double-and-add (`mul_u256_generic`) on points of order 2, 4, 8, 7 and
//! 56, on mixed-order points `S + T`, and on scalars at the edges of the
//! split; and `schnorr::verify` and `ecdsa::verify` must give the verdicts
//! that double-and-add and `AffinePoint::decode` give, torsion keys
//! included.

use fourq::cpu::shared_kernel;
use fourq::curve::{
    decompose, double_scalar_mul, params::ORDER, AffinePoint, CurveId, FixedBaseTable, FourQEngine,
    PIPPENGER_THRESHOLD,
};
use fourq::fp::{Scalar, U256};
use fourq::hash::{Sha256, Sha512};
use fourq::sched::MachineConfig;
use fourq::sig::{ecdsa, schnorr};

/// Deterministic on-curve points, cofactor not cleared.
fn curve_points(seed: u64) -> impl Iterator<Item = AffinePoint> {
    let mut state = seed;
    std::iter::from_fn(move || loop {
        let mut bytes = [0u8; 32];
        for b in bytes.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        bytes[15] &= 0x7f; // canonical real component
        if let Ok(p) = AffinePoint::decode(&bytes) {
            return Some(p);
        }
    })
}

fn small(p: &AffinePoint, k: u64) -> AffinePoint {
    p.mul_u256_generic(&U256::from_u64(k))
}

/// The order of a point whose order divides `56`.
fn torsion_order(p: &AffinePoint) -> u64 {
    (1..=56)
        .find(|&d| 56 % d == 0 && small(p, d).is_identity())
        .expect("order divides 56")
}

/// Torsion points of orders 2, 4, 8, 7 and 56.
fn torsion() -> Vec<AffinePoint> {
    // [N]R lies in the 392-torsion; [49]·[N]R in the 8-part, [8]·[N]R in
    // the 7-part. E(F_p²)[2^∞] is cyclic of order 8.
    let mut pts = curve_points(0x7075).map(|r| r.mul_u256_generic(&ORDER));
    let t8 = pts
        .by_ref()
        .map(|t| small(&t, 49))
        .find(|t| torsion_order(t) == 8)
        .expect("a point of order 8");
    let t7 = pts
        .map(|t| small(&t, 8))
        .find(|t| !t.is_identity())
        .expect("a point of order 7");
    let out = vec![small(&t8, 4), small(&t8, 2), t8, t7, t8.add(&t7)];
    let orders: Vec<u64> = out.iter().map(torsion_order).collect();
    assert_eq!(orders, [2, 4, 8, 7, 56]);
    out
}

/// Scalars at the edges of the split: 0, 1, 2, N−1, N−2, 2^(62j) ± 1 for
/// j = 1..3; at the row boundaries of the fixed-base comb, 2^50 ± 1 and
/// 2^200 ± 1; and seeded random ones.
fn scalars() -> Vec<Scalar> {
    let mut out: Vec<Scalar> = [0u64, 1, 2].map(Scalar::from_u64).to_vec();
    out.push(-Scalar::ONE);
    out.push(-Scalar::from_u64(2));
    for e in [62, 124, 186, 50, 200] {
        let mut limbs = [0u64; 4];
        limbs[e / 64] = 1 << (e % 64);
        let pow = Scalar::from_u256(U256(limbs));
        out.push(pow + Scalar::ONE);
        out.push(pow - Scalar::ONE);
    }
    let mut state = 0x5eed_0f91_u64;
    for _ in 0..4 {
        let mut bytes = [0u8; 32];
        for b in bytes.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        out.push(Scalar::from_le_bytes(&bytes));
    }
    out
}

#[test]
fn every_path_is_exact_on_torsion_and_mixed_order_points() {
    let g = AffinePoint::generator();
    let torsion = torsion();
    let mut points = torsion.clone();
    // Mixed order S + T: orders 2N, 4N, 8N, 7N and 56N.
    let s = g.mul_generic(&Scalar::from_u64(0x1234_5678_9abc));
    points.extend(torsion.iter().map(|t| s.add(t)));
    // Random curve points carry a random torsion component.
    points.extend(curve_points(0xd1ff).take(2));

    let eng = FourQEngine::shared();
    let kernel = shared_kernel(CurveId::FourQ, &MachineConfig::paper()).expect("pipeline compiles");
    let ks = scalars();
    let mut pairs = Vec::new();
    for p in &points {
        let table = FixedBaseTable::new(p);
        for k in &ks {
            let want = p.mul_u256_generic(&k.to_u256());
            assert_eq!(p.mul(k), want, "AffinePoint::mul, k = {k}, P = {p:?}");
            assert_eq!(
                table.mul(k),
                want,
                "FixedBaseTable::mul, k = {k}, P = {p:?}"
            );
            let got = kernel.execute(p, k).expect("kernel executes");
            assert_eq!(got, want, "CompiledKernel::execute, k = {k}, P = {p:?}");
            pairs.push((*k, *p));
        }
    }
    let batch = eng.batch_scalar_mul(&pairs);
    for ((k, p), got) in pairs.iter().zip(batch) {
        assert_eq!(got, p.mul_u256_generic(&k.to_u256()), "batch, k = {k}");
    }
}

fn generic(p: &AffinePoint, k: &Scalar) -> AffinePoint {
    p.mul_u256_generic(&k.to_u256())
}

#[test]
fn double_scalar_mul_is_exact_on_every_point_pair() {
    let g = AffinePoint::generator();
    let torsion = torsion();
    let s = generic(&g, &Scalar::from_u64(0x0dd5_ca1a_b1e5));
    let mut points = vec![g, s, AffinePoint::identity()];
    points.extend(&torsion);
    points.push(s.add(&torsion[4]));

    // 0, 1, 2, N−1, N−2, one scalar whose rounded a₁ is even (the split
    // represents k + 1), one whose a₁ is odd, and seeded random ones.
    let all = scalars();
    let mut ks = all[..5].to_vec();
    for even in [true, false] {
        let k = all[5..]
            .iter()
            .find(|k| decompose(k).corrected.to_bool_vartime() == even)
            .expect("both parities occur");
        ks.push(*k);
    }
    ks.extend(&all[all.len() - 2..]);

    let want: Vec<Vec<AffinePoint>> = points
        .iter()
        .map(|p| ks.iter().map(|k| generic(p, k)).collect())
        .collect();
    // Every (P, Q) pair sees every `a`; `b` rotates with the pair, so every
    // (a, b) pair of scalars occurs too.
    for (ip, p) in points.iter().enumerate() {
        for (iq, q) in points.iter().enumerate() {
            for (ia, a) in ks.iter().enumerate() {
                let ib = (ia + ip + iq) % ks.len();
                let b = &ks[ib];
                assert_eq!(
                    double_scalar_mul(a, p, b, q),
                    want[ip][ia].add(&want[iq][ib]),
                    "a = {a}, b = {b}, P = {p:?}, Q = {q:?}"
                );
            }
        }
    }
}

#[test]
fn msm_is_exact_on_both_sides_of_the_threshold() {
    let g = AffinePoint::generator();
    let torsion = torsion();
    let s = generic(&g, &Scalar::from_u64(0x5ca1_ab1e_f00d));
    let mut points = vec![g, s, AffinePoint::identity()];
    points.extend(&torsion);
    points.extend(torsion.iter().map(|t| s.add(t)));
    points.extend(curve_points(0xa15e).take(2));

    // Every (k, P) pair once, each with its double-and-add product.
    let ks = scalars();
    let terms: Vec<((Scalar, AffinePoint), AffinePoint)> = points
        .iter()
        .flat_map(|p| ks.iter().map(move |k| ((*k, *p), generic(p, k))))
        .collect();
    let sum = |w: &[((Scalar, AffinePoint), AffinePoint)]| {
        w.iter()
            .fold(AffinePoint::identity(), |acc, (_, kp)| acc.add(kp))
    };
    let engines = [1, 2].map(|t| FourQEngine::shared().with_threads(t));
    // T − 1 terms run the split loop, T run Pippenger.
    for n in [PIPPENGER_THRESHOLD - 1, PIPPENGER_THRESHOLD] {
        let mut batches: Vec<(Vec<(Scalar, AffinePoint)>, AffinePoint)> = terms
            .chunks(n)
            .map(|w| (w.iter().map(|(t, _)| *t).collect(), sum(w)))
            .collect();
        // A batch whose sum is the identity: n − 1 terms, then [1](−Σ).
        let head = &terms[..n - 1];
        let mut cancel: Vec<_> = head.iter().map(|(t, _)| *t).collect();
        cancel.push((Scalar::ONE, sum(head).neg()));
        batches.push((cancel, AffinePoint::identity()));
        for (batch, want) in &batches {
            for eng in &engines {
                assert_eq!(
                    eng.msm(batch),
                    *want,
                    "{} terms, {} threads, {batch:?}",
                    batch.len(),
                    eng.threads()
                );
            }
        }
    }
}

/// `SHA-512(R ‖ A ‖ m) mod N`, the Schnorr challenge.
fn schnorr_challenge(r: &[u8; 32], a: &[u8; 32], msg: &[u8]) -> Scalar {
    Scalar::from_wide_bytes(&Sha512::digest(&[r.as_slice(), a, msg].concat()))
}

/// The Schnorr verdict by decoding `R` and double-and-add:
/// `[s]G + [N−h]A == R`.
fn schnorr_reference(pk: &schnorr::PublicKey, msg: &[u8], sig: &schnorr::Signature) -> bool {
    let Ok(r) = AffinePoint::decode(&sig.r) else {
        return false;
    };
    let h = schnorr_challenge(&sig.r, &pk.encoded, msg);
    let g = AffinePoint::generator();
    generic(&g, &sig.s).add(&generic(&pk.point, &h.neg())) == r
}

/// The ECDSA verdict of §II-A with double-and-add for step 4.
fn ecdsa_reference(q: &AffinePoint, msg: &[u8], sig: &ecdsa::Signature) -> bool {
    if sig.r.is_zero() || sig.s.is_zero() || !q.is_on_curve() || q.is_identity() {
        return false;
    }
    let mut e = Sha256::digest(msg);
    e.reverse();
    let z = Scalar::from_u256(U256::from_le_bytes(&e).shr(256 - 246));
    let w = sig.s.inv();
    let p = generic(&AffinePoint::generator(), &(z * w)).add(&generic(q, &(sig.r * w)));
    !p.is_identity() && Scalar::from_u256(U256::from_le_bytes(&p.x.to_bytes())) == sig.r
}

#[test]
fn verify_verdicts_match_double_and_add_and_decode() {
    let g = AffinePoint::generator();
    let torsion = torsion();
    let d = Scalar::from_u64(0x00c0_ffee_d00d);
    let a = generic(&g, &d);
    let ecdsa_key = ecdsa::KeyPair::from_secret(d).expect("nonzero key");
    for (name, key) in [
        ("A", a),
        ("A + T7", a.add(&torsion[3])),
        ("A + T8", a.add(&torsion[2])),
    ] {
        let pk = schnorr::PublicKey {
            point: key,
            encoded: key.encode(),
        };
        // Schnorr signatures crafted for `key` with the secret of `A`: on a
        // torsion key they verify only when [N−h]T is the identity, so
        // messages run until both verdicts have occurred.
        let (mut accepted, mut rejected) = (0, 0);
        for m in 0u8.. {
            assert!(m < 100, "{name}: {accepted} accepted, {rejected} rejected");
            let msg = [b'm', m];
            let nonce = Scalar::from_u64(0x9e37_79b9 + m as u64);
            let r = generic(&g, &nonce).encode();
            let s = nonce + schnorr_challenge(&r, &pk.encoded, &msg) * d;
            let mut cases = vec![
                schnorr::Signature { r, s },
                schnorr::Signature {
                    r,
                    s: s + Scalar::ONE,
                },
            ];
            let ecdsa_sig = ecdsa_key.sign(&msg).expect("signs");
            let mut ecdsa_cases = vec![
                ecdsa_sig,
                ecdsa::Signature {
                    s: ecdsa_sig.s + Scalar::ONE,
                    ..ecdsa_sig
                },
            ];
            if m == 0 && name == "A" {
                for bit in 0..256 {
                    let mut flipped = r;
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    cases.push(schnorr::Signature { r: flipped, s });
                    let mut flipped = ecdsa_sig.r.to_le_bytes();
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    let r = Scalar::from_le_bytes(&flipped);
                    ecdsa_cases.push(ecdsa::Signature { r, ..ecdsa_sig });
                }
            }
            for c in &cases {
                let want = schnorr_reference(&pk, &msg, c);
                assert_eq!(
                    schnorr::verify(&pk, &msg, c),
                    want,
                    "{name}, m = {m}, {c:?}"
                );
            }
            for c in &ecdsa_cases {
                let want = ecdsa_reference(&key, &msg, c);
                assert_eq!(ecdsa::verify(&key, &msg, c), want, "{name}, m = {m}, {c:?}");
            }
            if name == "A" {
                assert!(
                    ecdsa_reference(&key, &msg, &ecdsa_sig),
                    "honest ECDSA, m = {m}"
                );
            }
            if schnorr_reference(&pk, &msg, &cases[0]) {
                accepted += 1;
            } else {
                rejected += 1;
            }
            if m >= 7 && (name == "A" || (accepted > 0 && rejected > 0)) {
                break;
            }
        }
        if name == "A" {
            assert_eq!(rejected, 0, "an honest Schnorr signature was rejected");
        }
    }
}
