//! Regenerates the paper's Table II in two parts, both from one set of
//! compiled kernels ([`measured_table`]).
//!
//! 1. **Comparison to prior art.** Our Fourℚ row comes from the compiled
//!    kernel plus the calibrated technology model, the prior-art rows
//!    from the cited papers' reported figures, followed by the headline
//!    ratios of the abstract (15.5×, 3.66×, 5.14×) and an algorithmic
//!    op-count comparison (Fourℚ vs P-256 vs Curve25519 from our own
//!    implementations), so the "who wins and why" shape is visible
//!    independently of any platform figure.
//! 2. **Measured, on the same simulated silicon.** The paper compares
//!    Fourℚ against Curve25519 and P-256 numbers *reported* by other
//!    groups on other silicon — different nodes, voltages and
//!    methodologies. This part removes that caveat: every curve's scalar
//!    multiplication is compiled through the identical trace → schedule
//!    → allocate → assemble pipeline onto the identical machine
//!    configuration, and the resulting cycle counts are run through one
//!    technology model calibrated once. The remaining differences are
//!    purely algorithmic — exactly the comparison the paper could not
//!    make.
//!
//! ```text
//! cargo run --release -p fourq-bench --bin table2_report
//! ```
//!
//! The Fourℚ row of part 1 is calibration-anchored. Caveats printed with
//! part 2: the machine config models the paper's Fourℚ datapath (an
//! `F_p²` multiplier on 127-bit lanes); X25519 and P-256 kernels run
//! their 255/256-bit field ops on the same nominal units, so their cycle
//! counts are optimistic for them (a real 256-bit multiplier would be
//! slower or larger). Even so the measured gap is dominated by operation
//! *count*, which is exact.

use fourq_baselines::models::{self, headline, Platform};
use fourq_bench::cell;
use fourq_bench::table2::{measured_table, MeasuredTable};
use fourq_curve::CurveId;
use fourq_sched::MachineConfig;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        if arg == "--help" || arg == "-h" {
            eprintln!("usage: table2_report");
            return;
        }
        eprintln!("unknown argument '{arg}' (see --help)");
        std::process::exit(2);
    }

    let table = measured_table(&MachineConfig::paper());
    print_prior_art(&table);
    print_measured(&table);
}

/// Part 1: the Fourℚ row against the prior art, the headline ratios and
/// the op-count comparison.
fn print_prior_art(table: &MeasuredTable) {
    println!("== Table II: comparison to prior art ==\n");
    let fourq = table.fourq();
    let hi = table.operating_point(fourq, 1.20);
    let lo = table.operating_point(fourq, 0.32);
    let kge = table.area(fourq).total_kge();

    println!(
        "design                | platform      | curve      | cores | area      | VDD   | lat [ms]  | ops/s     | E/op [uJ] | lat*area"
    );
    println!(
        "----------------------+---------------+------------+-------+-----------+-------+-----------+-----------+-----------+---------"
    );
    for (label, pt) in [("Ours (simulated)", lo), ("Ours (simulated)", hi)] {
        let lat_ms = pt.latency_us / 1000.0;
        println!(
            "{label:<21} | ASIC 65nm SOTB| FourQ      | 1     | {:>6.0}kGE | {:>5.2} | {} | {} | {} | {}",
            kge,
            pt.vdd,
            cell(Some(lat_ms), 9, 4),
            cell(Some(1000.0 / lat_ms), 9, 0),
            cell(Some(pt.energy_uj), 9, 3),
            cell(Some(lat_ms * kge), 8, 1),
        );
    }
    for row in models::TABLE2_PAPER_OURS {
        print_reported(row);
    }
    for row in models::TABLE2_PRIOR_ART {
        print_reported(row);
    }

    let ours_ms = hi.latency_us / 1000.0;
    println!("\n== headline ratios (paper: 15.5x, 3.66x, 5.14x) ==");
    println!(
        "  vs FourQ on FPGA [10]  : {:.1}x  (paper 15.5x)",
        headline::speedup_vs_fourq_fpga(ours_ms)
    );
    println!(
        "  vs P-256 ASIC [5]      : {:.2}x  (paper 3.66x)",
        headline::speedup_vs_p256_asic(ours_ms)
    );
    println!(
        "  energy vs ECDSA [17]   : {:.2}x  (paper 5.14x)",
        headline::energy_gain_vs_ecdsa(lo.energy_uj)
    );

    // Algorithmic shape check from our own implementations: each count is
    // the multiplier-unit issues of that curve's compiled kernel.
    println!("\n== algorithmic op-count comparison (our implementations) ==");
    let fourq_mults = fourq.stats.mul_issued;
    let p256_ops = table.kernel(CurveId::P256).stats.mul_issued;
    let x25519_ops = table.kernel(CurveId::X25519).stats.mul_issued;
    println!("  FourQ (this work)  : {fourq_mults} F_p^2-mult-unit ops (127-bit lanes, x3 F_p muls each)");
    println!("  NIST P-256 (ours)  : {p256_ops} 256-bit field mults (double-and-add)");
    println!("  Curve25519 (ours)  : {x25519_ops} 255-bit field mults (Montgomery ladder)");
    println!(
        "  normalized to 128-bit multiplier work (x4 for 256-bit fields, x3 Fp/Fp2): \
         FourQ {:.0} vs P-256 {:.0} vs X25519 {:.0}",
        fourq_mults as f64 * 3.0,
        p256_ops as f64 * 4.0,
        x25519_ops as f64 * 4.0
    );
}

fn print_reported(row: &models::ReportedRow) {
    let platform = match row.platform {
        Platform::Asic(nm) => format!("ASIC {nm}nm"),
        Platform::Fpga(f) => f.to_string(),
    };
    let area = match row.area_kge {
        Some(a) => format!("{a:>6.0}kGE"),
        None => format!("{:>9}", "—"),
    };
    println!(
        "{:<21} | {platform:<13} | {:<10} | {:<5} | {area} | {} | {} | {} | {} | {}",
        row.design,
        row.curve,
        row.cores,
        cell(row.vdd, 5, 2),
        cell(row.latency_ms, 9, 4),
        cell(row.throughput, 9, 0),
        cell(row.energy_uj, 9, 3),
        cell(row.latency_area_product(), 8, 1),
    );
}

/// Part 2: every curve's kernel on the same machine, one technology
/// calibration against the Fourℚ cycle count (the paper's anchor).
fn print_measured(table: &MeasuredTable) {
    println!("== Table II, measured: three curves on one simulated machine ==");
    println!(
        "   (machine = paper config; every row is the same pipeline, same\n\
         \x20   simulated datapath, same calibrated 65nm SOTB model)\n"
    );

    let fourq_cycles = table.fourq_cycles;

    println!(
        "curve      | cycles    | vs fourq | lb        | rom words | regs | VDD   | fmax MHz | lat [us]  | ops/s     | E/op [uJ]"
    );
    println!(
        "-----------+-----------+----------+-----------+-----------+------+-------+----------+-----------+-----------+----------"
    );
    for (curve, kernel) in &table.rows {
        let fp = &kernel.fingerprint;
        for vdd in [1.20, 0.32] {
            let pt = table.operating_point(kernel, vdd);
            println!(
                "{:<10} | {:>9} | {:>7.2}x | {:>9} | {:>9} | {:>4} | {vdd:>5.2} | {} | {} | {} | {}",
                curve.name(),
                fp.cycles,
                fp.cycles as f64 / fourq_cycles as f64,
                fp.lower_bound,
                fp.rom_words,
                fp.registers,
                cell(Some(pt.fmax_mhz), 8, 1),
                cell(Some(pt.latency_us), 9, 2),
                cell(Some(1e6 / pt.latency_us), 9, 0),
                cell(Some(pt.energy_uj), 9, 4),
            );
        }
    }

    println!("\n== measured op mix (same trace layer, uniform programs) ==");
    for (curve, kernel) in &table.rows {
        let ops = &kernel.fingerprint.op_counts;
        println!(
            "  {:<7}: mul {:>5}  sqr {:>5}  add {:>5}  sub {:>5}  neg {:>4}  conj {:>4}  (total {})",
            curve.name(),
            ops.mul,
            ops.sqr,
            ops.add,
            ops.sub,
            ops.neg,
            ops.conj,
            ops.total(),
        );
    }

    println!(
        "\ncaveat: the machine models the paper's F_p^2 datapath; X25519/P-256 field\n\
         ops are counted as single unit ops, flattering them. The cycle ratios above\n\
         are therefore a *lower bound* on Fourq's same-silicon advantage."
    );
}
