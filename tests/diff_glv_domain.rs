//! Differential oracle for the domain of the GLV split: `[k]P` must be
//! exact on every on-curve point, not only on the order-`N` subgroup.
//!
//! The decomposition rounds against the lattice of the whole group
//! `E(F_p²) ≅ Z/8 × (Z/7)² × Z/N`, so torsion and mixed-order points need no
//! subgroup check and no fallback path. This pins that decision: the
//! one-shot `AffinePoint::mul`, the batch engine and the compiled kernel
//! must each equal plain double-and-add (`mul_u256_generic`) on points of
//! order 2, 4, 8, 7 and 56, on mixed-order points `S + T`, and on scalars
//! at the edges of the split.

use fourq::cpu::shared_kernel;
use fourq::curve::{params::ORDER, AffinePoint, CurveId, FourQEngine};
use fourq::fp::{Scalar, U256};
use fourq::sched::MachineConfig;

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
/// j = 1..3, and seeded random ones.
fn scalars() -> Vec<Scalar> {
    let mut out: Vec<Scalar> = [0u64, 1, 2].map(Scalar::from_u64).to_vec();
    out.push(-Scalar::ONE);
    out.push(-Scalar::from_u64(2));
    for j in 1..=3 {
        let mut limbs = [0u64; 4];
        limbs[62 * j / 64] = 1 << (62 * j % 64);
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
        for k in &ks {
            let want = p.mul_u256_generic(&k.to_u256());
            assert_eq!(p.mul(k), want, "AffinePoint::mul, k = {k}, P = {p:?}");
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
