//! Hermetic micro-benchmark runner: times the core operations of the
//! workspace (field, curve, signatures, baselines, scheduler) and writes
//! the machine-readable `BENCH_fourq.json` perf-trajectory file.
//!
//! ```text
//! cargo run --release -p fourq-bench --bin microbench            # full run
//! cargo run --release -p fourq-bench --bin microbench -- --filter fp2
//! cargo run --release -p fourq-bench --bin microbench -- --out /tmp/bench.json
//! FOURQ_BENCH_FAST=1 cargo run --release -p fourq-bench --bin microbench   # CI smoke
//! cargo run --release -p fourq-bench --bin microbench -- --filter batch --gate-batch
//! ```
//!
//! `--gate-batch` fails the run (exit 1) when the measured
//! `batch_to_affine` per-point cost exceeds half of a single-point
//! normalisation — the CI tripwire for the batch pipeline's amortisation.
//!
//! `--gate-parallel` fails the run when 4-thread `batch_scalar_mul` at
//! n = 256 is below 2× the 1-thread throughput (alert-only below 2.5×,
//! and alert-only entirely on machines with fewer than 4 hardware
//! threads, where the speedup cannot exist).
//!
//! `--gate-kernel-cache` fails the run when a warm-cache kernel
//! `execute` is not at least 10× faster than the cold compile+execute
//! path — the tripwire for the compile-once/execute-many pipeline. When
//! the `multi_curve` group is in the run, the same floor applies to
//! every curve's `(curve, machine)` cache entry.
//!
//! `--gate-fleet` fails the run when the modeled 4-core fleet (2 ROM
//! ports) falls below 2× the single-core modeled throughput — the
//! tripwire for ROM-port arbitration in the capacity planner's fleet
//! model. The model is deterministic, so the gate can fail on any host.
//!
//! `--compare BASELINE.json` re-parses a previous report and fails when
//! the median slowdown within any of `scalar_ops`, `parallel_ops` or
//! `asic_pipeline` exceeds 25%. Each matched pair of records is judged
//! by its own hardware: pairs whose `hw_threads` counts differ are
//! reported alert-only.
//!
//! `--filter` accepts a comma-separated list of group-name substrings,
//! so the CI regression stage can run exactly
//! `--filter scalar_ops,parallel_ops,asic_pipeline`.
//!
//! By default the JSON lands at the repository root (resolved relative to
//! this crate's manifest), so successive PRs overwrite the same
//! `BENCH_fourq.json` and the git history of that file *is* the perf
//! trajectory.

use fourq_bench::harness::{BenchOptions, BenchReport};
use fourq_bench::micro::run_suite;
use std::path::PathBuf;

fn default_out() -> PathBuf {
    // crates/bench/../../BENCH_fourq.json == repo root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_fourq.json")
}

/// The CI batch-amortisation gate (`--gate-batch`): `batch_to_affine`
/// per-point cost must not exceed this fraction of a single-point
/// normalisation, or the batch pipeline has lost its reason to exist.
const GATE_BATCH_RATIO: f64 = 0.5;

fn gate_batch(report: &BenchReport) -> Result<(), String> {
    let lookup = |name: &str| -> Result<f64, String> {
        report
            .results
            .iter()
            .find(|r| r.group == "batch_ops" && r.name == name)
            .map(|r| r.ns_per_op)
            .ok_or(format!("gate: batch_ops/{name} missing from this run"))
    };
    let single = lookup("to_affine_single")?;
    let per_point = lookup("batch_to_affine_n64_per_point")?;
    let ratio = per_point / single;
    eprintln!(
        "gate: batch_to_affine {per_point:.1} ns/point vs single {single:.1} ns \
         (ratio {ratio:.3}, limit {GATE_BATCH_RATIO})"
    );
    if ratio > GATE_BATCH_RATIO {
        return Err(format!(
            "gate: batch_to_affine per-point cost is {:.1}% of a single \
             normalisation (limit {:.0}%)",
            ratio * 100.0,
            GATE_BATCH_RATIO * 100.0
        ));
    }
    Ok(())
}

/// The parallel-speedup gate (`--gate-parallel`): 4-thread
/// `batch_scalar_mul` at n = 256 must reach at least this multiple of the
/// 1-thread throughput; below [`GATE_PARALLEL_WARN`] it alerts without
/// failing. On machines with fewer than 4 hardware threads the gate is
/// alert-only (the speedup is physically unreachable there).
const GATE_PARALLEL_MIN: f64 = 2.0;
const GATE_PARALLEL_WARN: f64 = 2.5;

fn gate_parallel(report: &BenchReport) -> Result<(), String> {
    let lookup = |threads: u32| -> Result<&fourq_bench::harness::BenchRecord, String> {
        report
            .results
            .iter()
            .find(|r| r.group == "parallel_ops" && r.threads == threads)
            .ok_or(format!(
                "gate: parallel_ops entry with threads={threads} missing from this run"
            ))
    };
    let t1 = lookup(1)?.ns_per_op;
    let rec4 = lookup(4)?;
    let t4 = rec4.ns_per_op;
    let speedup = t1 / t4;
    // Judge reachability by the hw_threads *recorded in the measurement
    // itself*, so gating a loaded-from-disk report stays honest about
    // the machine that produced it.
    let cores = rec4.hw_threads;
    eprintln!(
        "gate: batch_scalar_mul n=256 speedup {speedup:.2}x at 4 threads \
         ({t1:.0} -> {t4:.0} ns/point; fail <{GATE_PARALLEL_MIN}x, warn <{GATE_PARALLEL_WARN}x, \
         {cores} hardware threads recorded)"
    );
    if cores < 4 {
        eprintln!(
            "gate: only {cores} hardware thread(s) recorded — a 4-thread speedup is \
             unreachable there, reporting alert-only"
        );
        return Ok(());
    }
    if speedup < GATE_PARALLEL_MIN {
        return Err(format!(
            "gate: 4-thread batch_scalar_mul speedup {speedup:.2}x is below the \
             {GATE_PARALLEL_MIN}x floor"
        ));
    }
    if speedup < GATE_PARALLEL_WARN {
        eprintln!(
            "gate: WARNING — speedup {speedup:.2}x is below the {GATE_PARALLEL_WARN}x \
             alert threshold (passing, but the pool is losing efficiency)"
        );
    }
    Ok(())
}

/// The kernel-cache gate (`--gate-kernel-cache`): a warm-cache `execute`
/// must be at least this many times faster than compiling the kernel and
/// executing once. If the ratio collapses, either compilation got
/// suspiciously cheap (the pipeline stopped doing its job) or the cached
/// replay regressed — both are worth failing CI over.
const GATE_KERNEL_CACHE_MIN: f64 = 10.0;

fn gate_kernel_cache(report: &BenchReport) -> Result<(), String> {
    let lookup = |group: &str, name: &str| -> Result<f64, String> {
        report
            .results
            .iter()
            .find(|r| r.group == group && r.name == name)
            .map(|r| r.ns_per_op)
            .ok_or(format!("gate: {group}/{name} missing from this run"))
    };
    let check = |label: &str, cold: f64, warm: f64| -> Result<(), String> {
        let ratio = (cold + warm) / warm;
        eprintln!(
            "gate: {label} kernel compile {:.0} us vs warm execute {:.0} us \
             (amortisation {ratio:.1}x, floor {GATE_KERNEL_CACHE_MIN}x)",
            cold / 1e3,
            warm / 1e3
        );
        if ratio < GATE_KERNEL_CACHE_MIN {
            return Err(format!(
                "gate: {label} warm-cache execute is only {ratio:.1}x faster than cold \
                 compile+execute (floor {GATE_KERNEL_CACHE_MIN}x)"
            ));
        }
        Ok(())
    };
    check(
        "fourq",
        lookup("asic_pipeline", "compile_cold")?,
        lookup("asic_pipeline", "execute_warm")?,
    )?;
    // The per-curve cache: when the multi_curve group ran, every curve's
    // compile/execute pair must amortise like the Fourℚ one. When it was
    // filtered out, say so instead of silently passing.
    if report.results.iter().any(|r| r.group == "multi_curve") {
        for curve in ["fourq", "x25519", "p256"] {
            check(
                curve,
                lookup("multi_curve", &format!("{curve}_compile_cold"))?,
                lookup("multi_curve", &format!("{curve}_execute_warm"))?,
            )?;
        }
    } else {
        eprintln!("gate: multi_curve group absent from this run — per-curve cache not gated");
    }
    Ok(())
}

/// The fleet-scaling gate (`--gate-fleet`): the modeled 4-core fleet
/// (homogeneous Fourℚ cores sharing a 2-port table ROM, the same
/// configuration `fleet_ops` times) must sustain at least this multiple
/// of the modeled single-core throughput. The model is deterministic,
/// so a miss means ROM-port arbitration started eating more than half
/// the added cores — a real regression in either the fleet model or the
/// kernel's fetch density — whatever host runs the gate.
const GATE_FLEET_MIN: f64 = 2.0;

fn gate_fleet() -> Result<(), String> {
    use fourq_curve::CurveId;
    use fourq_sched::MachineConfig;
    use fourq_tech::fleet::{simulate_fleet, CoreSpec, FleetConfig};

    let fp = &fourq_cpu::shared_kernel(CurveId::FourQ, &MachineConfig::paper())
        .map_err(|e| format!("gate: fourq kernel compiles: {e}"))?
        .fingerprint;
    let fleet = |cores: usize| {
        let cfg = FleetConfig {
            rom_ports: 2,
            cores: (0..cores)
                .map(|_| CoreSpec {
                    name: "fourq".to_string(),
                    cycles_per_op: fp.cycles,
                    rom_reads_per_op: fp.mux_count as u64,
                })
                .collect(),
        };
        simulate_fleet(&cfg, 8 * fp.cycles).ops_per_cycle
    };
    let solo = fleet(1);
    let quad = fleet(4);
    let scaling = quad / solo;
    eprintln!(
        "gate: modeled fleet scaling {scaling:.2}x at 4 cores / 2 ROM ports \
         ({solo:.6} -> {quad:.6} ops/cycle; floor {GATE_FLEET_MIN}x)"
    );
    if scaling < GATE_FLEET_MIN {
        return Err(format!(
            "gate: 4-core modeled fleet throughput is only {scaling:.2}x single-core \
             (floor {GATE_FLEET_MIN}x) — ROM-port arbitration regressed"
        ));
    }
    Ok(())
}

/// The regression tripwire (`--compare BASELINE.json`): re-parses the
/// baseline and judges this run against it with [`BenchReport::compare`].
fn compare_baseline(report: &BenchReport, path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("compare: cannot read {}: {e}", path.display()))?;
    let base = BenchReport::from_json(&text)
        .map_err(|e| format!("compare: cannot parse {}: {e}", path.display()))?;
    let outcome = report.compare(&base);
    for line in &outcome.lines {
        eprintln!("{line}");
    }
    if outcome.failures.is_empty() {
        Ok(())
    } else {
        Err(outcome.failures.join("\n"))
    }
}

fn main() {
    let mut out = default_out();
    let mut filter = String::new();
    let mut gate = false;
    let mut gate_par = false;
    let mut gate_kernel = false;
    let mut gate_fleet_flag = false;
    let mut compare: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }))
            }
            "--filter" => filter = args.next().unwrap_or_default(),
            "--gate-batch" => gate = true,
            "--gate-parallel" => gate_par = true,
            "--gate-kernel-cache" => gate_kernel = true,
            "--gate-fleet" => gate_fleet_flag = true,
            "--compare" => {
                compare = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--compare requires a baseline path");
                    std::process::exit(2);
                })))
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: microbench [--out PATH] [--filter GROUPS] [--compare BASELINE] \
                     [--gate-batch] [--gate-parallel] [--gate-kernel-cache] [--gate-fleet]\n\
                     \x20      GROUPS is a comma-separated list of group-name substrings"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (see --help)");
                std::process::exit(2);
            }
        }
    }

    let opts = BenchOptions::from_env();
    eprintln!(
        "microbench: {} samples x ~{:?} per bench (FOURQ_BENCH_FAST to shrink)",
        opts.samples, opts.sample_time
    );
    let report = run_suite(&opts, &filter);
    if report.results.is_empty() {
        eprintln!("filter '{filter}' matched no groups");
        std::process::exit(2);
    }

    let json = report.to_json();
    // Self-check: the file we are about to write must parse back equal.
    let reparsed = BenchReport::from_json(&json).expect("emitted JSON parses");
    assert_eq!(reparsed, report, "JSON round-trip drifted");

    // Compare against the baseline *before* the write below can
    // overwrite it (the default --out path is the usual baseline).
    let compare_result = compare.as_deref().map(|p| compare_baseline(&report, p));

    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    eprintln!("wrote {} ({} results)", out.display(), report.results.len());

    if gate {
        if let Err(e) = gate_batch(&report) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if gate_par {
        if let Err(e) = gate_parallel(&report) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if gate_kernel {
        if let Err(e) = gate_kernel_cache(&report) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if gate_fleet_flag {
        if let Err(e) = gate_fleet() {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if let Some(Err(e)) = compare_result {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
