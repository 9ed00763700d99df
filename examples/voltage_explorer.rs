//! Explores the voltage/performance/energy trade-off of the simulated
//! chip (the design space behind the paper's Fig. 4): finds the
//! throughput-optimal and energy-optimal operating points and prints the
//! energy cost of meeting a latency target.
//!
//! Run with: `cargo run --release --example voltage_explorer [latency_us]`

use fourq::cpu::shared_kernel;
use fourq::curve::CurveId;
use fourq::sched::MachineConfig;
use fourq::tech::SotbModel;

fn main() {
    let target_us: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50.0);

    let cycles = shared_kernel(CurveId::FourQ, &MachineConfig::paper())
        .expect("pipeline compiles")
        .fingerprint
        .cycles;
    let tech = SotbModel::calibrate_paper(cycles);
    println!("simulated scalar multiplication: {cycles} cycles\n");

    let sweep = tech.sweep(0.32, 1.20, 89, cycles);
    let fastest = sweep.last().expect("sweep non-empty");
    let greenest = sweep
        .iter()
        .min_by(|a, b| a.energy_uj.total_cmp(&b.energy_uj))
        .expect("sweep non-empty");
    println!(
        "fastest point : {:.2} V -> {:.1} us/SM at {:.2} uJ/SM",
        fastest.vdd, fastest.latency_us, fastest.energy_uj
    );
    println!(
        "greenest point: {:.2} V -> {:.1} us/SM at {:.3} uJ/SM",
        greenest.vdd, greenest.latency_us, greenest.energy_uj
    );

    // Lowest-energy voltage that still meets the latency target.
    match sweep
        .iter()
        .filter(|p| p.latency_us <= target_us)
        .min_by(|a, b| a.energy_uj.total_cmp(&b.energy_uj))
    {
        Some(p) => println!(
            "to meet {target_us:.1} us/SM: run at {:.2} V ({:.1} us, {:.3} uJ/SM, {:.1} MHz)",
            p.vdd, p.latency_us, p.energy_uj, p.fmax_mhz
        ),
        None => println!(
            "no operating point in [0.32 V, 1.20 V] meets {target_us:.1} us/SM \
             (fastest is {:.1} us)",
            fastest.latency_us
        ),
    }
}
