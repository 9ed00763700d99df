//! Quickstart: FourQ scalar multiplication and the full ASIC pipeline in
//! a dozen lines.
//!
//! Run with: `cargo run --example quickstart`

use fourq::cpu::shared_kernel;
use fourq::curve::{AffinePoint, CurveId};
use fourq::fp::Scalar;
use fourq::sched::MachineConfig;
use fourq::tech::SotbModel;

fn main() {
    // --- the cryptography: [k]G on FourQ -------------------------------
    let g = AffinePoint::generator();
    let k = Scalar::from_u64(0xc0ff_ee15_600d);
    let p = g.mul(&k);
    println!("[k]G = ({}, {})", p.x, p.y);
    assert!(p.is_on_curve());
    assert_eq!(p, g.mul_generic(&k), "decomposed == double-and-add");

    // --- the hardware: the same computation on the simulated ASIC ------
    let machine = MachineConfig::paper();
    let kernel = shared_kernel(CurveId::FourQ, &machine).expect("pipeline compiles");
    let cycles = kernel.fingerprint.cycles;
    println!(
        "simulated ASIC: {} cycles ({} microinstructions, multiplier {:.0}% busy)",
        cycles,
        kernel.fingerprint.rom_words,
        100.0 * kernel.stats.mul_utilization
    );
    let hw = kernel.execute(&g, &k).expect("kernel executes");
    assert_eq!(hw, p, "datapath agrees with software");

    // --- the silicon: latency and energy at two supply voltages --------
    let tech = SotbModel::calibrate_paper(cycles);
    for vdd in [1.20, 0.32] {
        let pt = tech.operating_point(vdd, cycles);
        println!(
            "at {vdd:.2} V: {:.1} MHz, {:.1} us/SM, {:.3} uJ/SM",
            pt.fmax_mhz, pt.latency_us, pt.energy_uj
        );
    }
}
