//! Regenerates the paper's Fig. 4: maximum operating frequency, scalar
//! multiplication latency, and energy per scalar multiplication as
//! functions of the supply voltage (0.32 V … 1.20 V, body bias
//! `V_BP = 0.7·V_DD`, `V_BN = 0.3·V_DD`).
//!
//! The cycle count comes from the scheduled, cycle-accurate simulation;
//! the voltage dependence from the 65 nm SOTB model calibrated to the
//! paper's two measured anchor points (see `fourq-tech`).

use fourq_curve::CurveId;
use fourq_sched::MachineConfig;
use fourq_tech::SotbModel;

fn main() {
    println!("== Fig. 4: frequency / latency / energy vs supply voltage ==\n");
    let fp = &fourq_cpu::shared_kernel(CurveId::FourQ, &MachineConfig::paper())
        .expect("scalar-mul pipeline compiles")
        .fingerprint;
    let cycles = fp.cycles;
    let tech = SotbModel::calibrate_paper(cycles);
    println!(
        "simulated SM cycle count: {cycles} (schedule lower bound {})",
        fp.lower_bound
    );
    println!(
        "technology model: alpha-power (alpha = {:.2}, Vth = {:.3} V), \
         Ceff = {:.3} nF, leakage anchored at 0.32 V\n",
        tech.alpha,
        tech.vth,
        tech.ceff * 1e9
    );

    println!(" VDD [V] | fmax [MHz] | latency [us] | energy/SM [uJ] | dyn [uJ] | leak [uJ]");
    println!("---------+------------+--------------+----------------+----------+----------");
    for pt in tech.sweep(0.32, 1.20, 23, cycles) {
        println!(
            "   {:>4.2}  | {:>9.2}  | {:>11.2}  | {:>13.4}  | {:>7.4}  | {:>7.4}",
            pt.vdd, pt.fmax_mhz, pt.latency_us, pt.energy_uj, pt.dynamic_uj, pt.leakage_uj
        );
    }

    let hi = tech.operating_point(1.20, cycles);
    let lo = tech.operating_point(0.32, cycles);
    println!("\nanchor checks (paper-measured vs model):");
    println!(
        "  1.20 V : latency {:>8.2} us (paper 10.1 us), energy {:.2} uJ (paper 3.98 uJ)",
        hi.latency_us, hi.energy_uj
    );
    println!(
        "  0.32 V : latency {:>8.1} us (paper 857 us),  energy {:.3} uJ (paper 0.327 uJ)",
        lo.latency_us, lo.energy_uj
    );
    println!(
        "\nimplied clock at 1.20 V: {:.1} MHz; at 0.32 V: {:.2} MHz",
        hi.fmax_mhz, lo.fmax_mhz
    );
}
