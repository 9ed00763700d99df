#![forbid(unsafe_code)]
//! `kernelcheck`: gap metrics and fault campaigns for the shipped kernels.
//!
//! ```text
//! kernelcheck [--curve fourq|x25519|p256|all] [--json FILE] [--inject N] [--seed S]
//! ```
//!
//! For each selected curve it takes the process-wide kernel for the
//! paper's `MachineConfig` (`fourq_cpu::shared_kernel`, whose compile
//! has already run the full static verifier and `CompiledKernel::audit`),
//! runs the full verifier once more for its gap metrics and prints them,
//! and with `--inject N` runs an `N`-case single-bit fault-injection
//! campaign (`fourq_testkit::fault::run_campaign`, seeded by `--seed`,
//! decimal or `0x`-hex, default `0xfa01`). `--curve` accepts one name, a
//! comma-separated list, or `all` (the default). `--json` writes one
//! object per curve: its `metrics` and, with `--inject`, its
//! `fault_campaign`. Exit status is 0 when every kernel verifies clean
//! and every injected fault was detected, 1 otherwise, 2 on usage
//! errors.

use fourq_cpu::{verify, CheckLevel, GapMetrics};
use fourq_curve::CurveId;
use fourq_sched::MachineConfig;
use fourq_testkit::fault::{run_campaign, CampaignReport};
use fourq_testkit::prop::parse_seed;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: kernelcheck [--curve fourq|x25519|p256|all] [--json FILE] [--inject N] [--seed S]"
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

/// What was measured for one curve, ready for printing and JSON.
struct CurveRun {
    curve: CurveId,
    metrics: GapMetrics,
    campaign: Option<CampaignReport>,
}

/// A JSON object with one `"key": value` line per field; `value` is
/// already JSON.
fn json_object(indent: &str, fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{indent}  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n{indent}}}", body.join(",\n"))
}

/// The machine-readable report: one object per curve checked.
fn to_json(runs: &[CurveRun]) -> String {
    let curves: Vec<String> = runs
        .iter()
        .map(|r| {
            let m = &r.metrics;
            let metrics = json_object(
                "      ",
                &[
                    ("makespan", m.makespan.to_string()),
                    ("critical_path_bound", m.critical_path_bound.to_string()),
                    ("issue_bandwidth_bound", m.issue_bandwidth_bound.to_string()),
                    ("lower_bound", m.lower_bound.to_string()),
                    (
                        "schedule_gap_percent",
                        format!("{:.2}", m.schedule_gap_percent),
                    ),
                    ("registers", m.registers.to_string()),
                    ("register_pressure", m.register_pressure.to_string()),
                    ("register_gap", m.register_gap.to_string()),
                    ("tainted_values", m.tainted_values.to_string()),
                    ("tainted_outputs", m.tainted_outputs.to_string()),
                    ("mux_count", m.mux_count.to_string()),
                    ("rom_words", m.rom_words.to_string()),
                    ("route_entries", m.route_entries.to_string()),
                ],
            );
            let mut fields = vec![
                ("curve", format!("\"{}\"", r.curve.name())),
                ("metrics", metrics),
            ];
            if let Some(c) = &r.campaign {
                // Sites are the campaign's own ASCII labels, so Rust's
                // string escaping is valid JSON for them.
                let sites: Vec<String> = c
                    .undetected()
                    .iter()
                    .map(|o| format!("{:?}", o.site))
                    .collect();
                let campaign = json_object(
                    "      ",
                    &[
                        ("cases", c.outcomes.len().to_string()),
                        ("static_detections", c.static_detections().to_string()),
                        ("runtime_detections", c.runtime_detections().to_string()),
                        ("undetected", sites.len().to_string()),
                        ("undetected_sites", format!("[{}]", sites.join(", "))),
                    ],
                );
                fields.push(("fault_campaign", campaign));
            }
            format!("    {}", json_object("    ", &fields))
        })
        .collect();
    let top = json_object(
        "",
        &[
            ("tool", "\"fourq-kernelcheck\"".to_string()),
            ("curves", format!("[\n{}\n  ]", curves.join(",\n"))),
        ],
    );
    top + "\n"
}

fn main() -> ExitCode {
    let mut curves: Vec<CurveId> = CurveId::ALL.to_vec();
    let mut json_path: Option<PathBuf> = None;
    let mut inject: usize = 0;
    let mut seed: u64 = 0xfa01;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--curve" => match args.next().as_deref().and_then(parse_curves) {
                Some(c) => curves = c,
                None => return usage(),
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--inject" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => inject = v,
                None => return usage(),
            },
            "--seed" => match args.next().as_deref().and_then(parse_seed) {
                Some(v) => seed = v,
                None => {
                    eprintln!("kernelcheck: --seed takes a decimal or 0x-hex u64");
                    return usage();
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    let machine = MachineConfig::paper();
    let mut runs: Vec<CurveRun> = Vec::with_capacity(curves.len());
    let mut failed = false;
    for curve in curves {
        let kernel = match fourq_cpu::shared_kernel(curve, &machine) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("kernelcheck: {curve}: compile failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        // The compile refuses any finding, so this only recomputes the
        // metrics; a finding here means the verifier is not deterministic.
        let report = verify(kernel, CheckLevel::Full);
        if !report.is_clean() {
            for f in &report.findings {
                println!("{curve}: {}: {}: {f}", f.rule(), f.location());
            }
            return ExitCode::FAILURE;
        }
        let m = &report.metrics;
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
        let campaign = (inject > 0).then(|| run_campaign(kernel, inject, seed));
        if let Some(c) = &campaign {
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
        runs.push(CurveRun {
            curve,
            metrics: report.metrics,
            campaign,
        });
    }

    if let Some(p) = &json_path {
        if let Err(e) = std::fs::write(p, to_json(&runs)) {
            eprintln!("kernelcheck: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_tool_and_counts() {
        let run = CurveRun {
            curve: CurveId::FourQ,
            metrics: GapMetrics {
                makespan: 7,
                ..GapMetrics::default()
            },
            campaign: None,
        };
        let j = to_json(&[run]);
        assert!(j.contains("\"tool\": \"fourq-kernelcheck\""));
        assert!(j.contains("\"curve\": \"fourq\""));
        assert!(j.contains("\"makespan\": 7"));
        assert!(j.contains("\"schedule_gap_percent\": 0.00"));
        assert!(!j.contains("fault_campaign"));
        assert!(j.ends_with("}\n"));
    }
}
