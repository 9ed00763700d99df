#![forbid(unsafe_code)]
//! CLI driver for `fourq-kernelcheck`.
//!
//! ```text
//! kernelcheck [--curve fourq|x25519|p256|all]
//!             [--level quick|full|both] [--json FILE]
//!             [--baseline FILE] [--update-baseline] [--root DIR]
//!             [--inject N] [--seed S]
//! ```
//!
//! Compiles (or fetches from the process cache) the scalar-multiplication
//! kernel of each selected curve for the paper's `MachineConfig`, runs
//! the static verifier at the requested level(s), optionally runs an
//! `N`-case single-bit fault-injection campaign per curve, and prints
//! findings plus the recomputed gap metrics. `--curve` accepts one name,
//! a comma-separated list, or `all` (the default — every curve the
//! multi-curve pipeline compiles). Exit status is 0 when every finding
//! is baselined and every injected fault was detected, 1 on live
//! findings or an undetected fault, 2 on usage errors.

use fourq_curve::CurveId;
use fourq_kernelcheck::{
    apply_baseline, parse_baseline, run_campaign, to_baseline, to_json, verify, CampaignReport,
    CheckLevel, CurveSection, KernelDiag, VerifyReport,
};
use fourq_sched::MachineConfig;
use std::path::PathBuf;
use std::process::ExitCode;

const DEFAULT_BASELINE: &str = "tools/kernelcheck-baseline.txt";

fn usage() -> ExitCode {
    eprintln!(
        "usage: kernelcheck [--curve fourq|x25519|p256|all] \
         [--level quick|full|both] [--json FILE] [--baseline FILE] [--update-baseline] \
         [--root DIR] [--inject N] [--seed S]"
    );
    ExitCode::from(2)
}

/// Parses `--curve`'s operand: `all`, one name, or a comma list.
fn parse_curves(spec: &str) -> Option<Vec<CurveId>> {
    if spec == "all" {
        return Some(CurveId::ALL.to_vec());
    }
    spec.split(',').map(CurveId::from_name).collect()
}

/// Everything checked for one curve, ready for printing and JSON.
struct CurveRun {
    curve: CurveId,
    reports: Vec<VerifyReport>,
    live: Vec<KernelDiag>,
    suppressed: Vec<KernelDiag>,
    campaign: Option<CampaignReport>,
}

fn main() -> ExitCode {
    let mut curves: Vec<CurveId> = CurveId::ALL.to_vec();
    let mut levels: Vec<CheckLevel> = vec![CheckLevel::Quick, CheckLevel::Full];
    let mut json_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut root: Option<PathBuf> = None;
    let mut inject: usize = 0;
    let mut seed: u64 = 0xfa01;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--curve" => match args.next().as_deref().and_then(parse_curves) {
                Some(c) => curves = c,
                None => return usage(),
            },
            "--level" => match args.next().as_deref() {
                Some("quick") => levels = vec![CheckLevel::Quick],
                Some("full") => levels = vec![CheckLevel::Full],
                Some("both") => levels = vec![CheckLevel::Quick, CheckLevel::Full],
                _ => return usage(),
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--update-baseline" => update_baseline = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--inject" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => inject = v,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    // Default root: CARGO_MANIFEST_DIR/../.. (the workspace), else cwd.
    let root = root.unwrap_or_else(|| {
        std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| PathBuf::from(d).join("../.."))
            .ok()
            .and_then(|p| p.canonicalize().ok())
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let baseline_file = baseline_path.unwrap_or_else(|| root.join(DEFAULT_BASELINE));
    let baseline = std::fs::read_to_string(&baseline_file)
        .map(|t| parse_baseline(&t))
        .unwrap_or_default();

    let machine = MachineConfig::paper();
    let mut runs: Vec<CurveRun> = Vec::with_capacity(curves.len());
    for &curve in &curves {
        let kernel = match fourq_cpu::shared_kernel(curve, &machine) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("kernelcheck: {curve}: compile failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let reports: Vec<_> = levels.iter().map(|&l| verify(kernel, l)).collect();
        // The deepest level run carries the authoritative finding set
        // (the quick pass is a strict subset by construction).
        let deepest = reports.last().expect("at least one level").clone();
        let (live, suppressed) = apply_baseline(curve.name(), deepest.findings, &baseline);
        let campaign = (inject > 0).then(|| run_campaign(kernel, inject, seed));
        runs.push(CurveRun {
            curve,
            reports,
            live,
            suppressed,
            campaign,
        });
    }

    if update_baseline {
        let sections: Vec<(&str, &[KernelDiag])> = runs
            .iter()
            .map(|r| {
                // The authoritative set is live + suppressed, i.e. the
                // deepest level's findings before baseline subtraction.
                (
                    r.curve.name(),
                    r.reports.last().expect("ran").findings.as_slice(),
                )
            })
            .collect();
        let text = to_baseline(&sections);
        let entries: usize = sections.iter().map(|(_, f)| f.len()).sum();
        if let Err(e) = std::fs::write(&baseline_file, text) {
            eprintln!("kernelcheck: cannot write {}: {e}", baseline_file.display());
            return ExitCode::from(2);
        }
        println!(
            "kernelcheck: wrote {} entries to {}",
            entries,
            baseline_file.display()
        );
        return ExitCode::SUCCESS;
    }

    if let Some(p) = &json_path {
        let sections: Vec<CurveSection> = runs
            .iter()
            .map(|r| CurveSection {
                curve: r.curve.name(),
                reports: &r.reports,
                campaign: r.campaign.as_ref(),
                live: r.live.len(),
                suppressed: r.suppressed.len(),
            })
            .collect();
        let json = to_json(&sections);
        if let Err(e) = std::fs::write(p, json) {
            eprintln!("kernelcheck: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }

    let mut failed = false;
    for run in &runs {
        let curve = run.curve.name();
        for f in &run.live {
            println!("{curve}: {}: {}: {f}", f.rule(), f.location());
        }
        let m = &run.reports.last().expect("ran").metrics;
        println!(
            "kernelcheck[{curve}]: {} cycles vs lower bound {} \
             (critical path {}, issue bandwidth {}), gap {:.1}%",
            m.makespan,
            m.lower_bound,
            m.critical_path_bound,
            m.issue_bandwidth_bound,
            m.schedule_gap_percent
        );
        println!(
            "kernelcheck[{curve}]: {} registers vs pressure {} (gap {}), \
             {} tainted values reach {} outputs, {} words / {} routes",
            m.registers,
            m.register_pressure,
            m.register_gap,
            m.tainted_values,
            m.tainted_outputs,
            m.rom_words,
            m.route_entries
        );
        failed |= !run.live.is_empty();
        if let Some(c) = &run.campaign {
            let undetected = c.undetected();
            println!(
                "kernelcheck[{curve}]: fault campaign: {} cases, {} static, {} runtime, \
                 {} undetected",
                c.outcomes.len(),
                c.static_detections(),
                c.runtime_detections(),
                undetected.len()
            );
            for o in &undetected {
                println!("  UNDETECTED: {:?} at {}", o.class, o.site);
            }
            failed |= !undetected.is_empty();
        }
    }
    let live: usize = runs.iter().map(|r| r.live.len()).sum();
    let suppressed: usize = runs.iter().map(|r| r.suppressed.len()).sum();
    println!("kernelcheck: {live} finding(s), {suppressed} baselined");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
