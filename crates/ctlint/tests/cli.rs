//! CLI exit-status contract: non-zero on a known-bad fixture, zero on a
//! clean one, and `--update-baseline` round-trips to a passing run.

use std::path::Path;
use std::process::Command;

fn lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fourq-ctlint"))
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn bad_fixture_fails() {
    let out = lint()
        .args(["--root", "/", "--baseline", "/nonexistent-baseline"])
        .arg(fixture("bad_branch.rs"))
        .output()
        .expect("run lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn good_fixture_passes() {
    let out = lint()
        .args(["--root", "/", "--baseline", "/nonexistent-baseline"])
        .arg(fixture("good_masked.rs"))
        .output()
        .expect("run lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn baseline_update_roundtrip() {
    let dir = std::env::temp_dir().join(format!("ctlint-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.txt");
    let json = dir.join("report.json");

    let out = lint()
        .args(["--root", "/", "--update-baseline"])
        .arg("--baseline")
        .arg(&baseline)
        .arg(fixture("bad_branch.rs"))
        .output()
        .expect("run lint");
    assert_eq!(out.status.code(), Some(0));

    // with the generated baseline, the same findings are suppressed
    let out = lint()
        .args(["--root", "/"])
        .arg("--baseline")
        .arg(&baseline)
        .arg("--json")
        .arg(&json)
        .arg(fixture("bad_branch.rs"))
        .output()
        .expect("run lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let report = std::fs::read_to_string(&json).expect("json report");
    assert!(report.contains("\"finding_count\": 0"), "{report}");
    assert!(report.contains("\"baselined_count\": 6"), "{report}");

    let _ = std::fs::remove_dir_all(&dir);
}
