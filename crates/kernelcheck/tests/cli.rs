//! End-to-end tests of the `kernelcheck` binary: exit codes and the
//! JSON artifact's shape.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kernelcheck"))
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("kernelcheck-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn clean_kernel_exits_zero_and_writes_json() {
    let json = temp_path("report.json");
    let out = bin()
        .arg("--json")
        .arg(&json)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lower bound"));
    let text = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    assert!(text.contains("\"tool\": \"fourq-kernelcheck\""));
    // One metrics object per curve, no per-level reports.
    assert_eq!(text.matches("\"metrics\"").count(), 3);
    assert!(text.contains("\"issue_bandwidth_bound\""));
    assert!(!text.contains("\"level\""));
    assert!(!text.contains("fault_campaign"));
}

#[test]
fn fault_injection_smoke_exits_zero_with_full_detection() {
    let json = temp_path("inject.json");
    let out = bin()
        .args(["--inject", "8", "--seed", "5", "--json"])
        .arg(&json)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fault campaign: 8 cases"));
    assert!(stdout.contains("0 undetected"));
    let text = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    assert!(text.contains("\"fault_campaign\""));
    assert!(text.contains("\"undetected\": 0"));
}

#[test]
fn bad_usage_exits_two() {
    let out = bin().arg("--no-such-flag").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["--level", "full"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["--curve", "ed448"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn seed_accepts_hex_and_rejects_garbage() {
    let run = |seed: &str| {
        let json = temp_path(&format!("seed-{seed}.json"));
        let out = bin()
            .args(["--inject", "8", "--seed", seed, "--json"])
            .arg(&json)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "--seed {seed}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&json).expect("report written");
        std::fs::remove_file(&json).ok();
        text
    };
    // 0xfa01 = 64001, the default seed.
    assert_eq!(run("0xfa01"), run("64001"));
    let out = bin().args(["--seed", "zz"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--seed takes a decimal or 0x-hex u64"),
        "{stderr}"
    );
}

#[test]
fn default_run_covers_all_three_curves() {
    let json = temp_path("curves.json");
    let out = bin()
        .arg("--json")
        .arg(&json)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for curve in ["fourq", "x25519", "p256"] {
        assert!(
            stdout.contains(&format!("kernelcheck[{curve}]:")),
            "missing {curve} section in: {stdout}"
        );
    }
    let text = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    for curve in ["fourq", "x25519", "p256"] {
        assert!(text.contains(&format!("\"curve\": \"{curve}\"")));
    }
}

#[test]
fn curve_flag_selects_a_single_kernel() {
    let json = temp_path("x25519.json");
    let out = bin()
        .args(["--curve", "x25519", "--inject", "4", "--json"])
        .arg(&json)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kernelcheck[x25519]: fault campaign: 4 cases"));
    assert!(!stdout.contains("kernelcheck[fourq]"));
    assert!(!stdout.contains("kernelcheck[p256]"));
    let text = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    assert!(text.contains("\"curve\": \"x25519\""));
    assert!(!text.contains("\"curve\": \"fourq\""));
    assert!(text.contains("\"undetected\": 0"));
}
