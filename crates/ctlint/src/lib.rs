#![forbid(unsafe_code)]
//! `fourq-ctlint` — in-tree constant-time taint lint for the FourQ
//! workspace.
//!
//! A zero-dependency static analyzer over a hand-written Rust lexer. It
//! propagates a secret-taint lattice seeded by `// ct:` annotations (see
//! `DESIGN.md` §8 for the grammar and policy) and reports six classes of
//! timing-channel hazards:
//!
//! | rule | hazard |
//! |------|--------|
//! | R1 | branch (`if`/`while`/`match`/`&&`/`\|\|`) on secret data |
//! | R2 | variable-time op (`/`, `%`, data-dependent shift) on secret data |
//! | R3 | secret-indexed array/table lookup |
//! | R4 | `derive(PartialEq/Debug)` on secret types, `==`/`!=` on secrets |
//! | R5 | panicking op (`unwrap`/`expect`/`assert!`) in fp/curve paths |
//! | R6 | early `return` under a secret-dependent condition |
//!
//! Findings carry `file:line` spans; CI fails on any finding, and an
//! audited exception is an inline `// ct: allow(<rule>) reason="..."` at
//! its line.

pub mod analyze;
pub mod lexer;
pub mod report;

use analyze::{analyze_file, collect_globals, Globals};
use report::Finding;
use std::path::{Path, PathBuf};

/// Collects the `.rs` files under `crates/*/src` (library sources only —
/// tests, benches and fixtures are out of scope for the lint).
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else {
        return out;
    };
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        collect_rs(&dir, &mut out);
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
}

/// Runs the full two-pass analysis over `files`, reporting paths relative
/// to `root`. The ctlint crate itself is excluded (its rule tables and
/// fixtures would self-trigger).
pub fn run(root: &Path, files: &[PathBuf]) -> Vec<Finding> {
    let mut sources = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.starts_with("crates/ctlint/") {
            continue;
        }
        match std::fs::read_to_string(f) {
            Ok(src) => sources.push((rel, src)),
            Err(e) => eprintln!("ctlint: skipping {rel}: {e}"),
        }
    }
    run_on_sources(&sources)
}

/// Analysis over in-memory (path, source) pairs — used by the golden
/// fixture tests.
pub fn run_on_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let mut globals = Globals::default();
    for (path, src) in sources {
        collect_globals(path, src, &mut globals);
    }
    let mut findings = Vec::new();
    for (path, src) in sources {
        analyze_file(path, src, &globals, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}
