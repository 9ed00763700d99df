//! Hermetic micro-benchmark runner: times the core operations of the
//! workspace (field, curve, signatures, baselines, scheduler) and writes
//! the machine-readable `BENCH_fourq.json` perf-trajectory file.
//!
//! ```text
//! cargo run --release -p fourq-bench --bin microbench            # full run
//! cargo run --release -p fourq-bench --bin microbench -- --filter fp2
//! cargo run --release -p fourq-bench --bin microbench -- --out /tmp/bench.json
//! FOURQ_BENCH_FAST=1 cargo run --release -p fourq-bench --bin microbench -- --gate-batch  # CI
//! ```
//!
//! The records are reports (see [`fourq_bench::harness`] for what one
//! run can resolve). `--filter` runs only the groups whose name contains
//! its one substring.
//!
//! `--gate-batch` is the one gate: it fails the run (exit 1) when the
//! measured `batch_to_affine` per-point cost exceeds half of a single-point
//! normalisation — the CI tripwire for the batch pipeline's amortisation.
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

fn main() {
    let mut out = default_out();
    let mut filter = String::new();
    let mut gate = false;
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
            "--help" | "-h" => {
                eprintln!(
                    "usage: microbench [--out PATH] [--filter SUBSTRING] [--gate-batch]\n\
                     \x20      SUBSTRING selects the groups whose name contains it"
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
}
