#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — the same steps in the same
# order, runnable in the offline build environment (only the workflow's
# toolchain-info and artifact-upload steps have no counterpart here).
# Every step must pass with no network access: the workspace has zero
# external dependencies by design (see DESIGN.md, "Hermetic toolchain").
#
# Usage: tools/ci.sh
set -euo pipefail
[[ $# -eq 0 ]] || { echo "usage: tools/ci.sh (takes no arguments)" >&2; exit 2; }
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

step "cargo doc -D warnings"
# Broken intra-doc links (e.g. to a deleted item) fail the build.
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps -q

step "cargo build --release"
cargo build --release

# Also the home of the deterministic pipeline checks, which must be able
# to fail while the workspace steps below are red: one compile per
# (curve, machine) in the kernel cache, and the modeled 4-core fleet on a
# 2-port ROM at >= 2x one core (tests/pipeline.rs).
step "cargo test -q (tier-1)"
cargo test -q

# perfbench is a workspace of its own that calls the crates' public API;
# building it and running its unit tests catches an API change that
# would otherwise only break a benchmark run.
step "cargo test perfbench (release)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The field's leaf operations (Fp add/sub/neg/mul/square, Fp2 mul/square
# and the rest) must compile to branch-free code: disassembles one
# #[inline(never)] wrapper per op, prints its instruction count and fails
# on any conditional jump. Runs before the workspace suite so it gates
# even while that suite is red.
step "leaf-op gate: no conditional jumps in field leaf ops"
tools/leafops.sh

# The full suite runs twice: pinned sequential and pinned 4-thread. The
# parallel batch engine promises bit-identical results at every thread
# count, so both runs must pass identically (the differential tests
# additionally pin thread counts internally via with_threads).
# --no-fail-fast runs every test binary even after one fails, so a
# failure in one crate cannot hide the rest of the suite; the step still
# fails if any test does.
step "cargo test --workspace -q --no-fail-fast (FOURQ_THREADS=1)"
FOURQ_THREADS=1 cargo test --workspace -q --no-fail-fast

step "cargo test --workspace -q --no-fail-fast (FOURQ_THREADS=4)"
FOURQ_THREADS=4 cargo test --workspace -q --no-fail-fast

mkdir -p target/ci

step "fourq-ctlint (constant-time taint lint)"
cargo run --release -q -p fourq-ctlint -- --workspace --json target/ci/ctlint_report.json

step "fourq-kernelcheck: gap metrics + 64-fault injection smoke, all curves"
# The compile has already verified and audited the shared kernel of each
# curve (Fourℚ, X25519, P-256) for the default MachineConfig before the
# report and the single-bit fault-injection campaign run; any
# undetected fault on any curve fails the build. The campaign injects
# into cloned kernels, so FOURQ_BENCH_FAST only shrinks unrelated
# budgets.
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-kernelcheck --bin kernelcheck -- \
    --curve all --inject 64 --json target/ci/kernelcheck_report.json

step "microbench: all groups + batch amortisation gate (FOURQ_BENCH_FAST=1)"
# Every microbench group at the fast profile. The records are reports;
# the one gate fails if the measured batch_to_affine per-point cost
# exceeds 50% of a single-point normalisation (batch amortisation).
out="$(mktemp)"
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin microbench -- \
    --gate-batch --out "$out"
test -s "$out"
rm -f "$out"

step "asic-smoke: paper-artifact binaries (FOURQ_BENCH_FAST=1)"
# End-to-end smoke of the compile-once/execute-many ASIC pipeline: the
# profiling claim, the Table I schedule (reduced search budgets under
# FOURQ_BENCH_FAST), the Fig. 4 voltage sweep, Table II (prior art, then
# all three curves measured on the same silicon), and the design report
# (asserts replay == software and a clean verifier). The kernel KAT
# emitter must reproduce the checked-in vector byte for byte, and the
# GLV derivation must reproduce the checked-in endomorphism constants.
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin profile_ops > /dev/null
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin table1_schedule > /dev/null
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin fig4_voltage_sweep > /dev/null
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin table2_report > /dev/null
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin design_report > /dev/null
cargo run --release -q -p fourq-bench --bin emit_kernel_kat | diff - tests/vectors/fourq_kernel_kat.json
python3 tools/derive_glv.py --check

step "fleet-smoke: capacity planner (FOURQ_BENCH_FAST=1)"
# End-to-end smoke of the multi-core fleet model: the capacity_report
# sweep (reduced core grid under FOURQ_BENCH_FAST) must produce its
# Pareto frontier.
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin capacity_report > /dev/null

step "serve-smoke: server binary + loadgen over loopback TCP"
# Starts the real `serve` binary on its defaults (work-conserving, no
# window) on an ephemeral loopback port, drives 2000 mixed requests
# through `loadgen`, and requires zero errors plus a mean flush size
# above 1 (batches formed from the requests queued behind each flush).
# The server runs one executor per FOURQ_THREADS thread, else one per
# hardware thread: FOURQ_THREADS=2 makes two executors run overlapping
# flushes over real TCP even on a 1-thread host. loadgen reads the same
# variable for the `threads` field of its record.
# The record goes to target/ci/BENCH_serve.json, the serve-layer perf
# artifact; the committed BENCH_serve.json changes only through an
# explicit `--out BENCH_serve.json`.
serve_log="$(mktemp)"
FOURQ_THREADS=2 cargo run --release -q -p fourq-serve --bin serve > "$serve_log" 2>/dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    serve_addr="$(sed -n 's/^listening on //p' "$serve_log")"
    [[ -n "$serve_addr" ]] && break
    sleep 0.1
done
[[ -n "$serve_addr" ]] || { echo "serve did not report an address"; exit 1; }
FOURQ_THREADS=2 cargo run --release -q -p fourq-serve --bin loadgen -- \
    --addr "$serve_addr" --requests 2000 --mixed \
    --assert-zero-errors --assert-coalesced --out target/ci/BENCH_serve.json
kill "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f "$serve_log"
test -s target/ci/BENCH_serve.json

step "OK"
