#![forbid(unsafe_code)]
//! CLI driver for `fourq-ctlint`.
//!
//! ```text
//! fourq-ctlint [--workspace | PATH...] [--json FILE] [--root DIR]
//! ```
//!
//! Exit status is 0 when no finding remains (an audited exception is an
//! inline `// ct: allow` at its line), 1 when findings remain, 2 on usage
//! errors.

use fourq_ctlint::report::to_json;
use fourq_ctlint::{run, workspace_sources};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: fourq-ctlint [--workspace | PATH...] [--json FILE] [--root DIR]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            p if !p.starts_with('-') => paths.push(PathBuf::from(p)),
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

    let files = if workspace {
        workspace_sources(&root)
    } else if paths.is_empty() {
        return usage();
    } else {
        paths
    };
    if files.is_empty() {
        eprintln!("ctlint: no source files found under {}", root.display());
        return ExitCode::from(2);
    }

    let findings = run(&root, &files);
    if let Some(p) = json_path {
        if let Err(e) = std::fs::write(&p, to_json(&findings)) {
            eprintln!("ctlint: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }

    for f in &findings {
        println!("{}: {}:{}: {}", f.rule, f.file, f.line, f.message);
        println!("    | {}", f.snippet);
    }
    println!("ctlint: {} finding(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
