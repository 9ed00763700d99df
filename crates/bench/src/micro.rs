//! The micro-benchmark suite: every group the old Criterion benches
//! covered, re-expressed on the hermetic [`crate::harness`].
//!
//! | group | paper hook |
//! |-------|------------|
//! | `fp2_mul` | Algorithm 2 — Karatsuba + lazy reduction vs schoolbook |
//! | `scalar_mul` | Algorithm 1 — decomposed kernel vs double-and-add, plus fixed-base |
//! | `signatures` | §I ITS motivation — Schnorr/ECDSA sign + verify throughput |
//! | `curve_compare` | Table II shape — FourQ vs P-256 vs Curve25519 in software |
//! | `scheduling` | §III-C turn-around — scheduling must be fast per design iteration |
//! | `scalar_ops` | mod-N arithmetic — Montgomery multiplication, windowed and batch inversion |
//! | `batch_ops` | batch-first curve pipeline — amortized normalisation, fixed-base, MSM |
//! | `batch_sig` | batch-first signature pipeline — RLC batch verify, batch signing |
//! | `parallel_ops` | the parallel batch engine — `batch_scalar_mul` at 1 and 4 threads |

use crate::harness::{run, BenchOptions, BenchRecord, BenchReport};
use fourq_baselines::{p256::P256, x25519::X25519};
use fourq_curve::{decompose, recode, AffinePoint, FourQEngine, PIPPENGER_THRESHOLD};
use fourq_fp::{Fp, Fp2, Scalar, U256};
use fourq_sig::{ecdsa, schnorr};
use fourq_testkit::TestRng;
use std::hint::black_box;

/// Fixed seed for bench operand generation: results must be comparable
/// run-over-run, so operands are deterministic.
const BENCH_SEED: u64 = 0xBE0C_4007_DA7E_0001;

fn bench_scalar(rng: &mut TestRng) -> Scalar {
    let mut limbs = [0u64; 4];
    rng.fill_u64(&mut limbs);
    Scalar::from_u256(U256(limbs))
}

/// Batch size for the `batch_*` groups — the ISSUE acceptance size.
const BATCH_N: usize = 64;

/// Rescales a record measured over an `n`-item batch call to per-item
/// cost, so `batch_*` numbers compare directly against their one-shot
/// counterparts in `BENCH_fourq.json`.
fn per_item(mut rec: BenchRecord, n: usize) -> BenchRecord {
    rec.ns_per_op /= n as f64;
    rec.ops_per_sec *= n as f64;
    rec
}

/// `F_p²` multiplication ablation (the paper's multiplier design choice).
pub fn fp2_mul(report: &mut BenchReport, opts: &BenchOptions) {
    let mut rng = TestRng::from_seed(BENCH_SEED);
    let a = Fp2::new(
        Fp::from_u128(rng.next_u128()),
        Fp::from_u128(rng.next_u128()),
    );
    let b = Fp2::new(
        Fp::from_u128(rng.next_u128()),
        Fp::from_u128(rng.next_u128()),
    );
    report.push(run("fp2_mul", "karatsuba_lazy", opts, || {
        black_box(a).mul_karatsuba(black_box(&b))
    }));
    report.push(run("fp2_mul", "schoolbook", opts, || {
        black_box(a).mul_schoolbook(black_box(&b))
    }));
    report.push(run("fp2_mul", "square", opts, || black_box(a).square()));
    report.push(run("fp2_mul", "add", opts, || black_box(a) + black_box(b)));
    report.push(run("fp2_mul", "invert", opts, || black_box(a).inv()));
}

/// Variable-base (decomposed vs generic), fixed-base, and the
/// decompose+recode front-end in isolation.
pub fn scalar_mul(report: &mut BenchReport, opts: &BenchOptions) {
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 1);
    let g = AffinePoint::generator();
    let k = bench_scalar(&mut rng);
    let table = FourQEngine::shared().generator_table();
    report.push(run("scalar_mul", "variable_base_decomposed", opts, || {
        g.mul(black_box(&k))
    }));
    report.push(run("scalar_mul", "double_and_add_reference", opts, || {
        g.mul_generic(black_box(&k))
    }));
    report.push(run("scalar_mul", "fixed_base_table", opts, || {
        table.mul(black_box(&k))
    }));
    report.push(run("scalar_mul", "decompose_recode_only", opts, || {
        recode(&decompose(black_box(&k)))
    }));
}

/// The ITS workload: signature generation and verification.
pub fn signatures(report: &mut BenchReport, opts: &BenchOptions) {
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 2);
    let msg = b"CAM: vehicle 42, lane 3, 48 km/h, intersection 12 in 80 m";
    let mut seed = [0u8; 32];
    rng.fill_bytes(&mut seed);
    let skp = schnorr::KeyPair::from_seed(&seed);
    let ssig = skp.sign(msg);
    let ekp = ecdsa::KeyPair::from_secret(bench_scalar(&mut rng)).expect("nonzero secret");
    let esig = ekp.sign(msg).expect("signable");
    report.push(run("signatures", "schnorr_sign", opts, || {
        skp.sign(black_box(msg))
    }));
    report.push(run("signatures", "schnorr_verify", opts, || {
        schnorr::verify(&skp.public, black_box(msg), &ssig)
    }));
    report.push(run("signatures", "ecdsa_sign", opts, || {
        ekp.sign(black_box(msg))
    }));
    report.push(run("signatures", "ecdsa_verify", opts, || {
        ecdsa::verify(&ekp.public, black_box(msg), &esig)
    }));
}

/// Cross-curve software comparison backing the Table II shape.
pub fn curve_compare(report: &mut BenchReport, opts: &BenchOptions) {
    let fourq_g = AffinePoint::generator();
    let k = Scalar::from_u256(
        U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
            .expect("valid hex"),
    );
    report.push(run("curve_compare", "fourq_scalar_mul", opts, || {
        fourq_g.mul(black_box(&k))
    }));

    let p256 = P256::new();
    let kp = U256::from_hex("7fffffff11112222333344445555666677778888aaaabbbbccccddddeeee0001")
        .expect("valid hex");
    report.push(run("curve_compare", "p256_scalar_mul", opts, || {
        let r = p256.scalar_mul(black_box(&kp), &p256.generator());
        p256.to_affine(&r)
    }));

    let x = X25519::new();
    let secret = [0x5au8; 32];
    report.push(run("curve_compare", "x25519_ladder", opts, || {
        x.public_key(black_box(&secret))
    }));
}

/// The scheduling flow itself (trace → problem → schedule).
pub fn scheduling(report: &mut BenchReport, opts: &BenchOptions) {
    use fourq_sched::{schedule, trace_to_problem, MachineConfig};
    use fourq_trace::{trace_double_add_iteration, trace_scalar_mul};

    let machine = MachineConfig::paper();
    let loop_problem = trace_to_problem(&trace_double_add_iteration());
    report.push(run("scheduling", "loop_body_ils64", opts, || {
        schedule(&loop_problem, &machine, 64)
    }));

    let sm = trace_scalar_mul(&Scalar::from_u64(0xfeef_dead_beef_cafe));
    let sm_problem = trace_to_problem(&sm.trace);
    report.push(run("scheduling", "full_sm_critical_path", opts, || {
        schedule(&sm_problem, &machine, 0)
    }));
    report.push(run("scheduling", "trace_full_sm", opts, || {
        trace_scalar_mul(&Scalar::from_u64(0x1234_5678))
    }));
}

/// Mod-N scalar arithmetic: the Montgomery/CIOS multiplier, the windowed
/// Fermat ladder and the batch inversion.
pub fn scalar_ops(report: &mut BenchReport, opts: &BenchOptions) {
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 3);
    let a = bench_scalar(&mut rng);
    let b = bench_scalar(&mut rng);
    let xs: Vec<Scalar> = (0..BATCH_N).map(|_| bench_scalar(&mut rng)).collect();
    report.push(run("scalar_ops", "mul_montgomery", opts, || {
        black_box(a) * black_box(b)
    }));
    report.push(run("scalar_ops", "inv_windowed", opts, || {
        black_box(a).inv()
    }));
    report.push(per_item(
        run("scalar_ops", "batch_invert_n64_per_item", opts, || {
            Scalar::batch_invert(black_box(&xs))
        }),
        BATCH_N,
    ));
}

/// The batch-first curve pipeline: amortized normalisation, batched
/// fixed-base multiplication, and [`FourQEngine::msm`] on one thread just
/// below [`PIPPENGER_THRESHOLD`] (the split loop) and at the acceptance
/// batch size (Pippenger).
pub fn batch_ops(report: &mut BenchReport, opts: &BenchOptions) {
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 4);
    let eng = FourQEngine::shared();
    let g = AffinePoint::generator();
    let ext: Vec<_> = (0..BATCH_N)
        .map(|_| g.mul_extended(&bench_scalar(&mut rng)))
        .collect();
    let ks: Vec<Scalar> = (0..BATCH_N).map(|_| bench_scalar(&mut rng)).collect();
    let pairs: Vec<(Scalar, AffinePoint)> = (0..BATCH_N)
        .map(|i| {
            (
                bench_scalar(&mut rng),
                g.mul(&Scalar::from_u64(2 * i as u64 + 3)),
            )
        })
        .collect();
    report.push(run("batch_ops", "to_affine_single", opts, || {
        eng.to_affine(black_box(&ext[0]))
    }));
    report.push(per_item(
        run("batch_ops", "batch_to_affine_n64_per_point", opts, || {
            eng.batch_to_affine(black_box(&ext))
        }),
        BATCH_N,
    ));
    report.push(run("batch_ops", "fixed_base_single", opts, || {
        eng.fixed_base_mul(black_box(&ks[0]))
    }));
    let mut rec = per_item(
        run("batch_ops", "batch_fixed_base_n64_per_point", opts, || {
            eng.batch_fixed_base_mul(black_box(&ks))
        }),
        BATCH_N,
    );
    rec.threads = eng.threads() as u32;
    report.push(rec);
    let one = eng.with_threads(1);
    for n in [PIPPENGER_THRESHOLD - 1, BATCH_N] {
        let pairs = &pairs[..n];
        report.push(per_item(
            run("batch_ops", &format!("msm_n{n}_per_point"), opts, || {
                one.msm(black_box(pairs))
            }),
            n,
        ));
    }
}

/// The batch-first signature pipeline at the acceptance batch size:
/// RLC batch verification (single MSM) and batch signing for both
/// schemes, next to their one-shot counterparts for the ratio.
pub fn batch_sig(report: &mut BenchReport, opts: &BenchOptions) {
    let kps: Vec<schnorr::KeyPair> = (0..BATCH_N as u8)
        .map(|i| schnorr::KeyPair::from_seed(&[i ^ 0xA5; 32]))
        .collect();
    let msgs: Vec<Vec<u8>> = (0..BATCH_N)
        .map(|i| format!("CAM: vehicle {i}, lane 3, 48 km/h").into_bytes())
        .collect();
    let sigs: Vec<schnorr::Signature> = kps.iter().zip(&msgs).map(|(kp, m)| kp.sign(m)).collect();
    let items: Vec<(&schnorr::PublicKey, &[u8], &schnorr::Signature)> = kps
        .iter()
        .zip(&msgs)
        .zip(&sigs)
        .map(|((kp, m), s)| (&kp.public, m.as_slice(), s))
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    let ekp = ecdsa::KeyPair::from_secret(Scalar::from_u64(0xBA7C_51D5)).expect("nonzero secret");

    report.push(run("batch_sig", "schnorr_verify_single", opts, || {
        schnorr::verify(&kps[0].public, black_box(&msgs[0]), &sigs[0])
    }));
    // The batches run on the shared engine, at its resolved thread
    // budget — record it honestly.
    let eng = FourQEngine::shared();
    let shared_threads = eng.threads() as u32;
    let mut rec = per_item(
        run(
            "batch_sig",
            "schnorr_batch_verify_n64_per_sig",
            opts,
            || schnorr::verify_batch_with(eng, black_box(&items)),
        ),
        BATCH_N,
    );
    rec.threads = shared_threads;
    report.push(rec);
    let mut rec = per_item(
        run("batch_sig", "schnorr_sign_batch_n64_per_sig", opts, || {
            kps[0].sign_batch_with(eng, black_box(&refs))
        }),
        BATCH_N,
    );
    rec.threads = shared_threads;
    report.push(rec);
    let mut rec = per_item(
        run("batch_sig", "ecdsa_sign_batch_n64_per_sig", opts, || {
            ekp.sign_batch_with(eng, black_box(&refs))
        }),
        BATCH_N,
    );
    rec.threads = shared_threads;
    report.push(rec);
}

/// The parallel batch engine at its acceptance size: `batch_scalar_mul`
/// over 256 pairs, pinned to 1 and 4 worker threads via
/// [`FourQEngine::with_threads`]. The two records differ only in their
/// `threads` field, so the speedup ratio is directly computable from
/// `BENCH_fourq.json`.
pub fn parallel_ops(report: &mut BenchReport, opts: &BenchOptions) {
    const PAR_N: usize = 256;
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 5);
    let g = AffinePoint::generator();
    let pairs: Vec<(Scalar, AffinePoint)> = (0..PAR_N)
        .map(|i| {
            (
                bench_scalar(&mut rng),
                g.mul(&Scalar::from_u64(3 * i as u64 + 7)),
            )
        })
        .collect();
    for threads in [1usize, 4] {
        let eng = FourQEngine::shared().with_threads(threads);
        let name = format!("batch_scalar_mul_n256_t{threads}_per_point");
        let mut rec = per_item(
            run("parallel_ops", &name, opts, || {
                eng.batch_scalar_mul(black_box(&pairs))
            }),
            PAR_N,
        );
        rec.threads = threads as u32;
        report.push(rec);
    }
}

/// A benchmark group: fills a report under the given options.
type GroupFn = fn(&mut BenchReport, &BenchOptions);

/// Runs every group whose name contains `filter` (empty filter = all).
pub fn run_suite(opts: &BenchOptions, filter: &str) -> BenchReport {
    let groups: [(&str, GroupFn); 9] = [
        ("fp2_mul", fp2_mul),
        ("scalar_mul", scalar_mul),
        ("scalar_ops", scalar_ops),
        ("signatures", signatures),
        ("batch_ops", batch_ops),
        ("batch_sig", batch_sig),
        ("parallel_ops", parallel_ops),
        ("curve_compare", curve_compare),
        ("scheduling", scheduling),
    ];
    let mut report = BenchReport::default();
    for (name, group) in groups {
        if name.contains(filter) {
            eprintln!("group {name}:");
            group(&mut report, opts);
        }
    }
    report
}
