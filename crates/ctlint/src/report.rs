//! Finding records and the machine-readable JSON report.

use std::fmt::Write as _;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`R1`..`R6`).
    pub rule: &'static str,
    /// Workspace-relative path (filled in by the driver).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    pub message: String,
    /// The trimmed offending source line.
    pub snippet: String,
}

impl Finding {
    pub fn new(rule: &'static str, line: u32, message: String, snippet: String) -> Finding {
        Finding {
            rule,
            file: String::new(),
            line,
            message,
            snippet,
        }
    }
}

/// Escapes a string for JSON output.
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

/// Renders the machine-readable report.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"tool\": \"fourq-ctlint\",");
    let _ = writeln!(out, "  \"finding_count\": {},", findings.len());
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}",
            f.rule,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            json_escape(&f.snippet)
        );
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        let finding = Finding {
            rule: "R1",
            file: "a\\b.rs".to_string(),
            line: 3,
            message: "say \"no\"".to_string(),
            snippet: "x\ty".to_string(),
        };
        let j = to_json(&[finding]);
        assert!(j.contains("a\\\\b.rs"));
        assert!(j.contains("say \\\"no\\\""));
        assert!(j.contains("x\\ty"));
        assert!(j.contains("\"finding_count\": 1"));
    }
}
