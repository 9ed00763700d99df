//! Report, baseline and JSON plumbing for the `kernelcheck` CLI.
//!
//! The analysis itself lives in `fourq_cpu::check` (it must, so that
//! `fourq_cpu::compile_curve` can run it without a crate cycle); this crate is
//! the operational front-end, deliberately mirroring `fourq-ctlint`'s
//! UX: human-readable findings on stdout, `--json` for the
//! machine-readable artifact, `--baseline` / `--update-baseline` for a
//! reviewed multiset of accepted findings (kept empty in this
//! repository), exit code 1 on live findings.
//!
//! Baseline entries are keyed `curve|rule|location` (e.g.
//! `fourq|K-FLOW-RAW|op 12`) and matched as a multiset, like ctlint's
//! `rule|file|line-text` keys. Legacy unqualified `rule|location`
//! entries (from before the CLI grew `--curve`) still match any curve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;

pub use fourq_cpu::{verify, CheckLevel, GapMetrics, KernelDiag, VerifyReport};
pub use fourq_testkit::fault::{run_campaign, CampaignReport, Detection};

/// The baseline key of a finding: `curve|rule|location`.
pub fn baseline_key(curve: &str, d: &KernelDiag) -> String {
    format!("{curve}|{}|{}", d.rule(), d.location())
}

/// The pre-`--curve` baseline key: `rule|location`, curve implied.
fn legacy_key(d: &KernelDiag) -> String {
    format!("{}|{}", d.rule(), d.location())
}

/// Parses a baseline file into a key → count multiset. Blank lines and
/// `#` comments are ignored.
pub fn parse_baseline(text: &str) -> HashMap<String, usize> {
    let mut out = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        *out.entry(line.to_string()).or_insert(0) += 1;
    }
    out
}

/// Splits one curve's findings into (live, baselined) against the
/// baseline multiset. Curve-qualified keys are consumed first; a legacy
/// unqualified `rule|location` entry matches a finding on any curve.
pub fn apply_baseline(
    curve: &str,
    findings: Vec<KernelDiag>,
    baseline: &HashMap<String, usize>,
) -> (Vec<KernelDiag>, Vec<KernelDiag>) {
    let mut budget = baseline.clone();
    let mut live = Vec::new();
    let mut suppressed = Vec::new();
    for f in findings {
        let hit = match budget.get_mut(&baseline_key(curve, &f)) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => match budget.get_mut(&legacy_key(&f)) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    true
                }
                _ => false,
            },
        };
        if hit {
            suppressed.push(f);
        } else {
            live.push(f);
        }
    }
    (live, suppressed)
}

/// Renders per-curve findings in baseline format (sorted, with a header).
pub fn to_baseline(sections: &[(&str, &[KernelDiag])]) -> String {
    let mut keys: Vec<String> = sections
        .iter()
        .flat_map(|(curve, findings)| findings.iter().map(|f| baseline_key(curve, f)))
        .collect();
    keys.sort();
    let mut out = String::from(
        "# fourq-kernelcheck baseline — audited accepted findings.\n\
         # Format: curve|rule|location. Regenerate with:\n\
         #   cargo run -p fourq-kernelcheck -- --update-baseline\n",
    );
    for k in keys {
        out.push_str(&k);
        out.push('\n');
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn metrics_json(m: &GapMetrics, indent: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{indent}{{");
    let _ = writeln!(out, "{indent}  \"makespan\": {},", m.makespan);
    let _ = writeln!(
        out,
        "{indent}  \"critical_path_bound\": {},",
        m.critical_path_bound
    );
    let _ = writeln!(
        out,
        "{indent}  \"issue_bandwidth_bound\": {},",
        m.issue_bandwidth_bound
    );
    let _ = writeln!(out, "{indent}  \"lower_bound\": {},", m.lower_bound);
    let _ = writeln!(
        out,
        "{indent}  \"schedule_gap_percent\": {:.2},",
        m.schedule_gap_percent
    );
    let _ = writeln!(out, "{indent}  \"registers\": {},", m.registers);
    let _ = writeln!(
        out,
        "{indent}  \"register_pressure\": {},",
        m.register_pressure
    );
    let _ = writeln!(out, "{indent}  \"register_gap\": {},", m.register_gap);
    let _ = writeln!(out, "{indent}  \"tainted_values\": {},", m.tainted_values);
    let _ = writeln!(out, "{indent}  \"tainted_outputs\": {},", m.tainted_outputs);
    let _ = writeln!(out, "{indent}  \"mux_count\": {},", m.mux_count);
    let _ = writeln!(out, "{indent}  \"rom_words\": {},", m.rom_words);
    let _ = writeln!(out, "{indent}  \"route_entries\": {}", m.route_entries);
    let _ = write!(out, "{indent}}}");
    out
}

fn findings_json(findings: &[KernelDiag], indent: &str) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i == 0 {
            out.push('\n');
        }
        let _ = write!(
            out,
            "{indent}  {{\"rule\": \"{}\", \"location\": \"{}\", \"message\": \"{}\"}}",
            f.rule(),
            json_escape(&f.location()),
            json_escape(&f.to_string())
        );
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    if !findings.is_empty() {
        out.push_str(indent);
    }
    out.push(']');
    out
}

/// One curve's slice of the machine-readable report.
pub struct CurveSection<'a> {
    /// Curve name as printed by `CurveId::name()` (e.g. `"fourq"`).
    pub curve: &'a str,
    /// One [`VerifyReport`] per verification level run.
    pub reports: &'a [VerifyReport],
    /// Fault-injection campaign, when `--inject` was given.
    pub campaign: Option<&'a CampaignReport>,
    /// Live finding count after baseline subtraction.
    pub live: usize,
    /// Baselined finding count.
    pub suppressed: usize,
}

/// Renders the machine-readable report: one section per curve checked,
/// each with its verification levels, optional fault campaign and
/// baseline tally; top-level counts are totals across curves.
pub fn to_json(sections: &[CurveSection]) -> String {
    let live: usize = sections.iter().map(|s| s.live).sum();
    let suppressed: usize = sections.iter().map(|s| s.suppressed).sum();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"tool\": \"fourq-kernelcheck\",");
    let _ = writeln!(out, "  \"finding_count\": {live},");
    let _ = writeln!(out, "  \"baselined_count\": {suppressed},");
    out.push_str("  \"curves\": [\n");
    for (si, s) in sections.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"curve\": \"{}\",", json_escape(s.curve));
        let _ = writeln!(out, "      \"finding_count\": {},", s.live);
        let _ = writeln!(out, "      \"baselined_count\": {},", s.suppressed);
        out.push_str("      \"reports\": [\n");
        for (i, r) in s.reports.iter().enumerate() {
            let _ = writeln!(out, "        {{");
            let _ = writeln!(out, "          \"level\": \"{}\",", r.level);
            let _ = writeln!(out, "          \"finding_count\": {},", r.findings.len());
            let _ = writeln!(
                out,
                "          \"findings\": {},",
                findings_json(&r.findings, "          ")
            );
            let _ = writeln!(out, "          \"metrics\":");
            let _ = writeln!(out, "{}", metrics_json(&r.metrics, "          "));
            let _ = write!(out, "        }}");
            out.push_str(if i + 1 < s.reports.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]");
        if let Some(c) = s.campaign {
            let undetected = c.undetected();
            out.push_str(",\n      \"fault_campaign\": {\n");
            let _ = writeln!(out, "        \"cases\": {},", c.outcomes.len());
            let _ = writeln!(
                out,
                "        \"static_detections\": {},",
                c.static_detections()
            );
            let _ = writeln!(
                out,
                "        \"runtime_detections\": {},",
                c.runtime_detections()
            );
            let _ = writeln!(out, "        \"undetected\": {},", undetected.len());
            out.push_str("        \"undetected_sites\": [");
            for (i, o) in undetected.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\"", json_escape(&o.site));
            }
            out.push_str("]\n      }");
        }
        out.push_str("\n    }");
        out.push_str(if si + 1 < sections.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(cycle: u64) -> KernelDiag {
        KernelDiag::RomWordMismatch { cycle }
    }

    #[test]
    fn baseline_roundtrip() {
        let findings = vec![diag(3), diag(3)];
        let text = to_baseline(&[("fourq", findings.as_slice())]);
        let parsed = parse_baseline(&text);
        assert_eq!(parsed.get("fourq|K-FLOW-ROM|cycle 3"), Some(&2));
        let (live, supp) = apply_baseline("fourq", findings, &parsed);
        assert!(live.is_empty());
        assert_eq!(supp.len(), 2);
    }

    #[test]
    fn baseline_budget_is_a_multiset() {
        let baseline = parse_baseline("fourq|K-FLOW-ROM|cycle 3");
        let (live, supp) = apply_baseline("fourq", vec![diag(3), diag(3)], &baseline);
        assert_eq!(live.len(), 1);
        assert_eq!(supp.len(), 1);
    }

    #[test]
    fn baseline_keys_are_curve_scoped_with_legacy_fallback() {
        // An x25519-qualified entry must not suppress a fourq finding…
        let baseline = parse_baseline("x25519|K-FLOW-ROM|cycle 3");
        let (live, supp) = apply_baseline("fourq", vec![diag(3)], &baseline);
        assert_eq!((live.len(), supp.len()), (1, 0));
        // …but a legacy unqualified entry suppresses on any curve.
        let legacy = parse_baseline("K-FLOW-ROM|cycle 3");
        let (live, supp) = apply_baseline("p256", vec![diag(3)], &legacy);
        assert_eq!((live.len(), supp.len()), (0, 1));
    }

    #[test]
    fn json_has_tool_and_counts() {
        let report = VerifyReport {
            level: CheckLevel::Quick,
            findings: vec![diag(7)],
            metrics: GapMetrics::default(),
        };
        let section = CurveSection {
            curve: "fourq",
            reports: core::slice::from_ref(&report),
            campaign: None,
            live: 1,
            suppressed: 0,
        };
        let j = to_json(&[section]);
        assert!(j.contains("\"tool\": \"fourq-kernelcheck\""));
        assert!(j.contains("\"finding_count\": 1"));
        assert!(j.contains("\"curve\": \"fourq\""));
        assert!(j.contains("\"rule\": \"K-FLOW-ROM\""));
        assert!(j.contains("\"level\": \"quick\""));
        assert!(!j.contains("fault_campaign"));
    }
}
