//! CLI exit-status contract: non-zero on a known-bad fixture, zero on a
//! clean one.

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
        .args(["--root", "/"])
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
        .args(["--root", "/"])
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
