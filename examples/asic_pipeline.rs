//! The paper's §III-C design flow as a compile-once/execute-many
//! pipeline:
//!
//!   1. compile — trace Algorithm 1 into one *uniform* microprogram
//!      (recoded digits are runtime mux selectors, not baked constants),
//!      extract the dependency DAG, schedule it, allocate registers,
//!      assemble the control ROM, and audit the result against software.
//!   2. execute — replay the fixed microcode for any (base, scalar) pair;
//!      the chip never reschedules, it just feeds new digits to the muxes.
//!   3. reuse — the kernel is cached process-wide per (curve, machine),
//!      so every later caller pays only the replay cost.
//!
//! Run with: `cargo run --release --example asic_pipeline`

use fourq::cpu::{shared_kernel, CompiledKernel};
use fourq::curve::{AffinePoint, CurveId};
use fourq::fp::Scalar;
use fourq::sched::MachineConfig;
use std::time::Instant;

fn main() {
    // Step 1: compile the kernel once. This is the whole §III-C flow —
    // trace, schedule, register allocation, control ROM — plus a
    // self-audit that executes two scalars against AffinePoint::mul.
    let machine = MachineConfig::paper();
    let t0 = Instant::now();
    let kernel: &'static CompiledKernel =
        shared_kernel(CurveId::FourQ, &machine).expect("pipeline compiles");
    let compile_time = t0.elapsed();
    let fp = &kernel.fingerprint;
    println!(
        "step 1 — compiled: {} microinstructions, {} digit muxes, {} registers",
        kernel.trace.nodes.len(),
        fp.mux_count,
        fp.registers
    );
    println!(
        "         schedule {} cycles (lower bound {}, serial {}, gap {:.1}%)",
        fp.cycles,
        fp.lower_bound,
        fp.serial_cycles,
        100.0 * (fp.cycles - fp.lower_bound) as f64 / fp.lower_bound as f64
    );
    println!(
        "         control ROM {} words / {:.1} kbit; compile took {:.1} ms",
        fp.rom_words,
        fp.rom_bits as f64 / 1000.0,
        compile_time.as_secs_f64() * 1e3
    );

    // Step 2: execute the same microcode for several scalars. Only the
    // digit stream changes between runs — the schedule does not.
    let g = AffinePoint::generator();
    let scalars = [
        Scalar::from_u64(0x600d_cafe_f00d_5eed),
        Scalar::from_u64(1),
        Scalar::from_u64(0x9e37_79b9_7f4a_7c15),
    ];
    let t1 = Instant::now();
    for k in &scalars {
        let out = kernel.execute(&g, k).expect("kernel executes");
        let expected = g.mul(k);
        assert_eq!((out.x, out.y), (expected.x, expected.y));
    }
    let execute_time = t1.elapsed() / scalars.len() as u32;
    println!(
        "step 2 — executed {} scalars on the fixed microcode, {:.2} ms each; \
         datapath output == software [k]G  ✓",
        scalars.len(),
        execute_time.as_secs_f64() * 1e3
    );

    // Step 3: a second lookup hits the process-wide cache — same kernel,
    // zero compilation.
    let again = shared_kernel(CurveId::FourQ, &machine).expect("pipeline compiles");
    assert!(std::ptr::eq(kernel, again));
    println!(
        "step 3 — cache hit: same kernel instance, amortisation {:.0}x per reuse",
        (compile_time.as_secs_f64() + execute_time.as_secs_f64()) / execute_time.as_secs_f64()
    );
}
