#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — the same gate, runnable in
# the offline build environment. Every step must pass with no network
# access: the workspace has zero external dependencies by design (see
# DESIGN.md, "Hermetic toolchain").
#
# Usage: tools/ci.sh [--with-bench]
#   --with-bench  additionally smoke-runs the microbench binary (fast
#                 profile) to prove BENCH_fourq.json generation works.
#
# Setting FOURQ_BENCH_FAST=1 shrinks the bench budgets AND skips the
# bench-regression compare stage (FAST medians are too noisy to gate on).
set -euo pipefail
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

step "cargo test -q (tier-1)"
cargo test -q

# The full suite runs twice: pinned sequential and pinned 4-thread. The
# parallel batch engine promises bit-identical results at every thread
# count, so both runs must pass identically (the differential tests
# additionally pin thread counts internally via with_threads).
step "cargo test --workspace -q (FOURQ_THREADS=1)"
FOURQ_THREADS=1 cargo test --workspace -q

step "cargo test --workspace -q (FOURQ_THREADS=4)"
FOURQ_THREADS=4 cargo test --workspace -q

mkdir -p target/ci

step "fourq-ctlint (constant-time taint lint)"
cargo run --release -q -p fourq-ctlint -- --workspace --json target/ci/ctlint_report.json

step "fourq-kernelcheck: static verify + 64-fault injection smoke, all curves"
# Verifies the shared kernels of all three curves (Fourℚ, X25519, P-256)
# for the default MachineConfig at both check levels, then runs the
# single-bit fault-injection campaign per curve; any live finding or
# undetected fault on any curve fails the build. The campaign injects
# into cloned kernels, so FOURQ_BENCH_FAST only shrinks unrelated
# budgets.
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-kernelcheck --bin kernelcheck -- \
    --curve all --level both --inject 64 --json target/ci/kernelcheck_report.json

step "bench smoke: batch groups + amortisation gate (FOURQ_BENCH_FAST=1)"
# Runs the batch_* benchmark groups and fails if the measured
# batch_to_affine per-point cost exceeds 50% of a single-point
# normalisation — the tripwire for regressions in the batch pipeline.
out="$(mktemp)"
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin microbench -- \
    --filter batch --gate-batch --out "$out"
rm -f "$out"

step "bench smoke: parallel speedup tripwire (FOURQ_BENCH_FAST=1)"
# 4-thread batch_scalar_mul at n=256 must reach 2x the 1-thread
# throughput (alert-only below 2.5x, and alert-only on machines with
# fewer than 4 hardware threads, where the speedup cannot exist).
out="$(mktemp)"
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin microbench -- \
    --filter parallel --gate-parallel --out "$out"
rm -f "$out"

step "asic-smoke: paper-artifact binaries (FOURQ_BENCH_FAST=1)"
# End-to-end smoke of the compile-once/execute-many ASIC pipeline: the
# profiling claim, the Table I schedule (reduced search budgets under
# FOURQ_BENCH_FAST), the Fig. 4 voltage sweep, Table II (prior art, then
# all three curves measured on the same silicon), and the design report
# (asserts replay == software and a clean verifier). The kernel KAT
# emitter must reproduce the checked-in vector byte for byte.
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin profile_ops > /dev/null
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin table1_schedule > /dev/null
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin fig4_voltage_sweep > /dev/null
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin table2_report -- --effort 2 > /dev/null
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin design_report > /dev/null
cargo run --release -q -p fourq-bench --bin emit_kernel_kat | diff - tests/vectors/fourq_kernel_kat.json

step "asic-smoke: kernel-cache amortisation tripwire, all curves (FOURQ_BENCH_FAST=1)"
# Warm-cache kernel execute must be >=10x faster than the cold
# compile+execute path — on the Fourℚ kernel (asic_pipeline group) and
# on every curve of the multi_curve group — or the compile-once
# pipeline lost its point.
out="$(mktemp)"
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin microbench -- \
    --filter asic,multi_curve --gate-kernel-cache --out "$out"
rm -f "$out"

step "fleet-smoke: capacity planner + fleet scaling tripwire (FOURQ_BENCH_FAST=1)"
# End-to-end smoke of the multi-core fleet model: the capacity_report
# sweep (reduced core grid and stitch budget under FOURQ_BENCH_FAST)
# must produce its Pareto frontier, and the modeled 4-core fleet on a
# 2-port table ROM must sustain >=2x the single-core throughput (a
# deterministic model, so the gate holds on any host).
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin capacity_report > /dev/null
out="$(mktemp)"
FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin microbench -- \
    --filter fleet_ops --gate-fleet --out "$out"
rm -f "$out"

step "serve-smoke: server binary + loadgen over loopback TCP"
# Starts the real `serve` binary on an ephemeral loopback port, drives
# 2000 mixed requests through `loadgen`, and requires zero errors plus a
# mean flush size above 1 (the coalescer actually coalesced). The
# resulting BENCH_serve.json is the serve-layer perf artifact.
serve_log="$(mktemp)"
cargo run --release -q -p fourq-serve --bin serve -- --window-us 500 > "$serve_log" 2>/dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    serve_addr="$(sed -n 's/^listening on //p' "$serve_log")"
    [[ -n "$serve_addr" ]] && break
    sleep 0.1
done
[[ -n "$serve_addr" ]] || { echo "serve did not report an address"; exit 1; }
cargo run --release -q -p fourq-serve --bin loadgen -- \
    --addr "$serve_addr" --requests 2000 --mixed \
    --assert-zero-errors --assert-coalesced --out BENCH_serve.json
kill "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f "$serve_log"

step "serve-gate: coalescing throughput tripwire"
# Coalesced (window_us=500) Schnorr-verify throughput must be >=2x the
# strict no-coalesce (window_us=0) baseline; alert-only on hosts with
# fewer than 4 hardware threads.
cargo run --release -q -p fourq-serve --bin loadgen -- --gate-serve --requests 2000

if [[ "${1:-}" == "--with-bench" ]]; then
    step "microbench smoke, all groups (FOURQ_BENCH_FAST=1)"
    out="$(mktemp)"
    FOURQ_BENCH_FAST=1 cargo run --release -q -p fourq-bench --bin microbench -- --out "$out"
    rm -f "$out"
fi

if [[ "${FOURQ_BENCH_FAST:-0}" == "0" || -z "${FOURQ_BENCH_FAST:-}" ]]; then
    step "bench-regression: compare against committed BENCH_fourq.json"
    # Full-budget (non-FAST) re-measurement of the three tracked groups,
    # failing on a >25% median regression against the committed baseline
    # (alert-only when the baseline came from different hardware).
    out="$(mktemp)"
    cargo run --release -q -p fourq-bench --bin microbench -- \
        --filter scalar_ops,parallel_ops,asic_pipeline \
        --compare BENCH_fourq.json --out "$out"
    rm -f "$out"
else
    step "bench-regression: skipped (FOURQ_BENCH_FAST is set)"
fi

step "OK"
