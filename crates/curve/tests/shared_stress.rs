//! Concurrency stress test for the process-wide shared engine.
//!
//! `FourQEngine::shared()` is a `OnceLock` built on first use; this test
//! races eight threads through that first touch and then hammers the
//! engine with mixed batch operations of 40 items, cross-checking every
//! result against a private engine built up front. 40 items are at least
//! two pool chunks for each multiplication batch and a Pippenger MSM, so
//! on a multi-thread shared engine pool threads nest under test threads. Any
//! torn initialisation, shared-state mutation or cross-thread
//! interference shows up as a mismatch or a panic.

use fourq_curve::{AffinePoint, FourQEngine};
use fourq_fp::Scalar;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const RACERS: usize = 8;
const BUDGET: Duration = Duration::from_millis(800);

#[test]
fn shared_engine_survives_concurrent_first_touch_and_mixed_batches() {
    // Reference engine built before any racer touches shared(); pinned
    // sequential so its outputs are the plain reference values.
    let reference = FourQEngine::new().with_threads(1);

    let barrier = Barrier::new(RACERS);
    std::thread::scope(|scope| {
        for tid in 0..RACERS {
            let barrier = &barrier;
            let reference = &reference;
            scope.spawn(move || {
                barrier.wait();
                // First touch races the OnceLock initialisation.
                let eng = FourQEngine::shared();
                assert_eq!(
                    eng.generator_table().base(),
                    &AffinePoint::generator(),
                    "racer {tid} saw a torn shared engine"
                );

                let start = Instant::now();
                let mut round = 0u64;
                while start.elapsed() < BUDGET {
                    let base = tid as u64 * 1_000_003 + round * 17 + 1;
                    let ks: Vec<Scalar> = (0..40).map(|j| Scalar::from_u64(base + j)).collect();

                    // Mixed ops per round, rotating by thread id so the
                    // shared engine sees interleaved workloads.
                    match (tid + round as usize) % 3 {
                        0 => {
                            let got = eng.batch_fixed_base_mul(&ks);
                            let want = reference.batch_fixed_base_mul(&ks);
                            assert_eq!(got, want, "racer {tid} round {round}: fixed-base");
                        }
                        1 => {
                            let g = AffinePoint::generator();
                            let pairs: Vec<(Scalar, AffinePoint)> =
                                ks.iter().map(|k| (*k, g)).collect();
                            let got = eng.batch_scalar_mul(&pairs);
                            let want = reference.batch_scalar_mul(&pairs);
                            assert_eq!(got, want, "racer {tid} round {round}: scalar-mul");
                        }
                        _ => {
                            let pairs: Vec<(Scalar, AffinePoint)> =
                                ks.iter().map(|k| (*k, AffinePoint::generator())).collect();
                            let got = eng.msm(&pairs);
                            let want = reference.msm(&pairs);
                            assert_eq!(got, want, "racer {tid} round {round}: msm");
                        }
                    }
                    round += 1;
                }
                assert!(round > 0, "racer {tid} never completed a round");
            });
        }
    });
}
