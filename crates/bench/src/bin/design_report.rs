//! Design report: the simulated processor's complexity breakdown —
//! the counterpart of the paper's §IV-A chip figures (1400 kGE in
//! 1.76 mm × 3.56 mm) and of the Fig. 1 block structure.
//!
//! Built on the compile-once/execute-many pipeline: one [`CompiledKernel`]
//! is compiled (trace → schedule → register allocation → control ROM) and
//! every figure below is read off its fingerprint. Prints per-stage
//! observability — microinstruction counts by kind, schedule gap against
//! the issue-bandwidth lower bound, register pressure vs allocated
//! registers, ROM geometry — plus the compile-vs-execute wall-time split
//! that justifies caching the kernel.
//!
//! [`CompiledKernel`]: fourq_cpu::CompiledKernel

use fourq_curve::{AffinePoint, CurveId};
use fourq_fp::{Scalar, U256};
use fourq_sched::MachineConfig;
use fourq_tech::AreaModel;
use std::time::Instant;

fn main() {
    println!("== Design report: simulated FourQ cryptoprocessor ==\n");
    let machine = MachineConfig::paper();

    // Cold compile (the first lookup in this process): the full trace ->
    // schedule -> allocate -> assemble pipeline plus the self-audit
    // against software scalar multiplication.
    let t0 = Instant::now();
    let kernel =
        fourq_cpu::shared_kernel(CurveId::FourQ, &machine).expect("scalar-mul pipeline compiles");
    let compile_time = t0.elapsed();

    // Warm execute: replay the fixed microcode for one fresh scalar.
    let k = Scalar::from_u256(
        U256::from_hex("1d3f297b1a2c4d5e6f708192a3b4c5d6e7f8091a2b3c4d5e6f70819202122231")
            .expect("valid"),
    );
    let g = AffinePoint::generator();
    let t1 = Instant::now();
    let result = kernel.execute(&g, &k).expect("compiled kernel executes");
    let execute_time = t1.elapsed();
    let expected = g.mul(&k);
    assert_eq!(
        (result.x, result.y),
        (expected.x, expected.y),
        "kernel replay is value-correct"
    );

    let fp = &kernel.fingerprint;
    println!("program (one uniform microprogram for every scalar):");
    println!("  microinstructions : {}", kernel.trace.nodes.len());
    println!("  op mix            : {}", fp.op_counts);
    println!(
        "  digit muxes       : {} (always-compute-and-select)",
        fp.mux_count
    );
    let gap = 100.0 * (fp.cycles - fp.lower_bound) as f64 / fp.lower_bound as f64;
    println!(
        "  schedule          : {} cycles (lower bound {}, gap {gap:.1}%)",
        fp.cycles, fp.lower_bound
    );
    // The static verifier recomputes the bounds from the trace alone,
    // through an independent code path from fourq-sched's lower_bound —
    // the two must agree, and the kernel must verify clean.
    let check = fourq_cpu::verify(kernel, fourq_cpu::CheckLevel::Full);
    assert!(
        check.is_clean(),
        "kernel fails verification: {:?}",
        check.findings
    );
    let m = &check.metrics;
    let agree = if m.lower_bound == fp.lower_bound {
        "cross-check OK"
    } else {
        "MISMATCH vs scheduler bound"
    };
    println!(
        "  verifier bounds   : issue bandwidth {}, critical path {} ({agree})",
        m.issue_bandwidth_bound, m.critical_path_bound
    );
    println!(
        "  serial execution  : {} cycles ({:.2}x speedup from overlap)",
        fp.serial_cycles,
        fp.serial_cycles as f64 / fp.cycles as f64
    );

    println!("\nregister file:");
    println!(
        "  physical registers: {} x 256-bit F_p^2 words",
        fp.registers
    );
    println!("  peak live values  : {}", fp.register_pressure);
    println!("  ports             : 4R / 2W + forwarding (paper configuration)");

    let rom = kernel.rom.as_ref().expect("paper machine is single-issue");
    println!("\nprogram ROM / controller:");
    println!(
        "  words             : {} (one control word per cycle)",
        fp.rom_words
    );
    println!(
        "  word width        : {} bits ({}-bit register addresses, {}-bit mux routes)",
        rom.word_bits(),
        rom.addr_bits,
        rom.route_bits
    );
    println!(
        "  route table       : {} digit-mux entries",
        rom.routes.len()
    );
    println!(
        "  total             : {:.1} kbit",
        fp.rom_bits as f64 / 1000.0
    );

    println!("\ncompile/execute split (why the kernel cache exists):");
    println!(
        "  compile (cold)    : {:>10.2} ms",
        compile_time.as_secs_f64() * 1e3
    );
    println!(
        "  execute (warm)    : {:>10.2} ms",
        execute_time.as_secs_f64() * 1e3
    );
    println!(
        "  amortisation      : {:>10.1}x per reused execution",
        (compile_time.as_secs_f64() + execute_time.as_secs_f64()) / execute_time.as_secs_f64()
    );

    let area = AreaModel::paper_like(fp.registers, fp.rom_words);
    println!("\narea estimate (65 nm, kGE):");
    println!("  F_p^2 multiplier  : {:>8.0}", area.multiplier_kge());
    println!("  adder/subtractor  : {:>8.0}", area.addsub_kge());
    println!("  register file     : {:>8.0}", area.register_file_kge());
    println!("  controller + ROM  : {:>8.0}", area.controller_kge());
    println!("  integration ovh.  : {:>8.2}x", area.integration_overhead);
    println!(
        "  total             : {:>8.0} kGE   (paper: 1400 kGE)",
        area.total_kge()
    );
    println!(
        "  die area          : {:>8.2} mm^2  (paper: 6.27 mm^2 for the SM unit)",
        area.area_mm2()
    );

    println!("\nfirst microinstructions of the program:");
    for line in kernel.trace.disassemble().lines().take(12) {
        println!("  {line}");
    }
    println!("  ...");
}
