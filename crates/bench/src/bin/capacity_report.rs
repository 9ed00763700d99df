//! Capacity planning: how many chips for a target load?
//!
//! Sweeps the multi-core fleet model (N compiled-kernel cores sharing
//! one table ROM) across (machine variant × cores × voltage) through the
//! calibrated 65 nm SOTB model and prints the throughput/watt Pareto
//! frontier, per-curve core assignments for the mixed workload, and the
//! headline answers: SM/s, sigs/s and W per chip at 0.32 V vs 1.20 V,
//! plus chips needed for the target.
//!
//! ```text
//! cargo run --release -p fourq-bench --bin capacity_report
//! cargo run --release -p fourq-bench --bin capacity_report -- \
//!     --rom-ports 2 --cores 1,2,4,8,16 --vdd-steps 4 \
//!     --workload fourq=0.5,x25519=0.3,p256=0.2 --target-load 1e6
//! cargo run --release -p fourq-bench --bin capacity_report -- --kat
//! ```
//!
//! `FOURQ_BENCH_FAST=1` shrinks the sweep for CI smoke runs. `--kat`
//! prints the pinned `fourq-fleet-kat/v2` document (the exact bytes of
//! `tests/vectors/fourq_fleet_kat.json`); `--json` renders the current
//! sweep in the same schema.

use fourq_bench::capacity::{kat_json, plan, PlanConfig, Workload};
use fourq_curve::CurveId;

/// Parses `--workload fourq=0.5,x25519=0.3,...` into validated shares:
/// every share positive and finite, every curve listed at most once.
/// Returns only the shares so the caller keeps whatever
/// `target_sm_per_s` is already configured (`--target-load` composes
/// with `--workload` in either argument order).
fn parse_workload(spec: &str) -> Vec<(CurveId, f64)> {
    let mut shares: Vec<(CurveId, f64)> = Vec::new();
    for part in spec.split(',') {
        let (name, share) = part.split_once('=').unwrap_or_else(|| {
            eprintln!("--workload wants name=share pairs, got '{part}'");
            std::process::exit(2);
        });
        let curve = CurveId::from_name(name.trim()).unwrap_or_else(|| {
            eprintln!("unknown curve '{name}'");
            std::process::exit(2);
        });
        let share: f64 = share.trim().parse().unwrap_or_else(|_| {
            eprintln!("bad share '{share}'");
            std::process::exit(2);
        });
        if !(share.is_finite() && share > 0.0) {
            eprintln!(
                "--workload share for '{}' must be a positive finite number, got '{share}'",
                curve.name()
            );
            std::process::exit(2);
        }
        if shares.iter().any(|&(c, _)| c == curve) {
            eprintln!("--workload lists '{}' twice", curve.name());
            std::process::exit(2);
        }
        shares.push((curve, share));
    }
    shares
}

fn main() {
    let fast = std::env::var("FOURQ_BENCH_FAST").is_ok_and(|v| v == "1");
    let mut cfg = PlanConfig {
        rom_ports: 2,
        core_counts: if fast {
            vec![1, 2, 4]
        } else {
            vec![1, 2, 4, 8, 16]
        },
        vdds: vec![0.32, 0.61, 0.91, 1.20],
        workload: Workload::reference(),
        banked: true,
    };
    let mut emit_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--kat" => {
                // The pinned config, rendered byte-for-byte as the KAT
                // vector file.
                let kat = PlanConfig::kat();
                print!("{}", kat_json(&kat, &plan(&kat)));
                return;
            }
            "--json" => emit_json = true,
            "--rom-ports" => {
                cfg.rom_ports = next("--rom-ports").parse().expect("numeric --rom-ports")
            }
            "--cores" => {
                cfg.core_counts = next("--cores")
                    .split(',')
                    .map(|s| s.trim().parse().expect("numeric core count"))
                    .collect()
            }
            "--vdd-steps" => {
                let n: usize = next("--vdd-steps").parse().expect("numeric --vdd-steps");
                assert!(n >= 2, "--vdd-steps wants at least 2");
                cfg.vdds = (0..n)
                    .map(|i| {
                        let v = 0.32 + (1.20 - 0.32) * i as f64 / (n - 1) as f64;
                        (v * 100.0).round() / 100.0
                    })
                    .collect();
            }
            "--workload" => cfg.workload.shares = parse_workload(&next("--workload")),
            "--target-load" => {
                cfg.workload.target_sm_per_s = next("--target-load")
                    .parse()
                    .expect("numeric --target-load")
            }
            "--no-banked" => cfg.banked = false,
            "--help" | "-h" => {
                eprintln!(
                    "usage: capacity_report [--rom-ports N] [--cores a,b,c] \
                     [--vdd-steps N] [--workload fourq=0.5,x25519=0.3,p256=0.2] \
                     [--target-load OPS] [--no-banked] [--json] [--kat]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (see --help)");
                std::process::exit(2);
            }
        }
    }

    let result = plan(&cfg);
    if emit_json {
        print!("{}", kat_json(&cfg, &result));
        return;
    }

    println!("== capacity planner: fleet sweep on the calibrated SOTB model ==\n");
    println!(
        "fourq kernel: {} cycles (lower bound {}, gap {})",
        result.fourq_cycles,
        result.fourq_lower_bound,
        result.fourq_cycles.saturating_sub(result.fourq_lower_bound),
    );
    println!("workload: {}", describe_workload(&cfg.workload));
    for k in &result.kernels {
        println!(
            "  {:<7}: {} cycles/op, {} ROM reads/op",
            k.curve.name(),
            k.cycles,
            k.rom_reads
        );
    }

    println!(
        "\nmachine | cores | VDD   | assignment        | SM/s      | sigs/s    | W/chip    | mm2 pc/shROM  | util  | stalls | chips | pareto"
    );
    println!(
        "--------+-------+-------+-------------------+-----------+-----------+-----------+---------------+-------+--------+-------+-------"
    );
    for p in &result.points {
        let assignment = p
            .assignment
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(c, n)| format!("{}:{n}", c.name()))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<7} | {:>5} | {:>5.2} | {assignment:<17} | {:>9.3e} | {:>9.3e} | {:>9.3e} | {:>6.2}/{:<6.2} | {:>4.0}%  | {:>5.2}% | {:>5} | {}",
            p.machine,
            p.cores,
            p.vdd,
            p.sm_per_s,
            p.sigs_per_s,
            p.power_w,
            p.area_mm2,
            p.area_shared_rom_mm2,
            p.utilization * 100.0,
            p.stall_frac * 100.0,
            p.chips_for_target,
            if p.on_frontier { "*" } else { "" },
        );
    }

    // The ROADMAP's question, answered at the two anchor voltages with
    // the largest configured chip.
    let max_cores = *cfg.core_counts.iter().max().unwrap();
    println!("\n== per chip at {max_cores} cores (flat machine) ==");
    println!(
        "            | SM/s      | sigs/s    | W/chip    | chips for {:.1e} SM/s",
        cfg.workload.target_sm_per_s
    );
    for &(label, vdd) in &[("0.32 V", 0.32f64), ("1.20 V", 1.20f64)] {
        if let Some(p) = result
            .points
            .iter()
            .find(|p| p.machine == "flat" && p.cores == max_cores && (p.vdd - vdd).abs() < 5e-3)
        {
            println!(
                "  at {label} | {:>9.3e} | {:>9.3e} | {:>9.3e} | {}",
                p.sm_per_s, p.sigs_per_s, p.power_w, p.chips_for_target
            );
        } else {
            println!("  at {label} | (not on the configured voltage grid)");
        }
    }
    println!(
        "\n* = on the throughput/watt Pareto frontier. The banked machine matches the\n\
         flat one cycle-for-cycle (register-file ports never bind on this datapath)\n\
         at lower area — see DESIGN.md section 15. mm2 pc/shROM prices both\n\
         floorplans: per-core table copies vs one shared table-ROM macro (the\n\
         layout whose port contention the fleet simulation accounts for)."
    );
}

fn describe_workload(w: &Workload) -> String {
    let shares = w
        .shares
        .iter()
        .map(|(c, s)| format!("{} {:.0}%", c.name(), s * 100.0))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{shares}; target {:.2e} SM/s", w.target_sm_per_s)
}
