//! Integration tests for the capacity planner on top of the fleet
//! model: thread-count invariance of the full sweep (the `diff_check!`
//! half of the fleet property suite — the per-fleet properties live in
//! `fourq-tech/tests/fleet_props.rs`) and end-to-end conservation of
//! the workload's op mix through assignment, simulation and the
//! technology model.

use fourq_bench::capacity::{kat_json, plan_with_threads, PlanConfig, Workload};
use fourq_curve::CurveId;
use fourq_tech::SotbModel;
use fourq_testkit::diff_check;

/// A sweep small enough for debug-build runs at five thread counts but
/// still covering both machine variants and contended fleets.
fn small_config() -> PlanConfig {
    PlanConfig {
        rom_ports: 2,
        core_counts: vec![1, 2, 4],
        vdds: vec![0.32, 1.20],
        workload: Workload::reference(),
        banked: true,
    }
}

#[test]
fn planner_output_is_thread_invariant() {
    // The parallel axis is the (machine, cores) grid; every point is a
    // pure function of the shared kernels, and the KAT rendering fixes
    // key order and float formatting — so the whole document must be
    // byte-identical at every thread count, not merely "equivalent".
    let cfg = small_config();
    diff_check!(|threads| kat_json(&cfg, &plan_with_threads(&cfg, threads)));
}

#[test]
fn op_mix_is_conserved_end_to_end() {
    let cfg = small_config();
    let plan = plan_with_threads(&cfg, 1);
    let fourq_cycles = plan
        .kernels
        .iter()
        .find(|k| k.curve == CurveId::FourQ)
        .expect("fourq kernel present")
        .cycles;
    let tech = SotbModel::calibrate_paper(fourq_cycles);

    assert_eq!(
        plan.points.len(),
        2 * cfg.core_counts.len() * cfg.vdds.len(),
        "flat + banked variants over the full (cores, vdd) grid"
    );
    for p in &plan.points {
        // Core assignment conserves the chip's core count and follows
        // workload order.
        assert_eq!(
            p.assignment.iter().map(|&(_, n)| n).sum::<u32>(),
            p.cores,
            "{}/{}-core assignment must hand out every core",
            p.machine,
            p.cores
        );
        assert_eq!(
            p.assignment.iter().map(|&(c, _)| c).collect::<Vec<_>>(),
            cfg.workload
                .shares
                .iter()
                .map(|&(c, _)| c)
                .collect::<Vec<_>>(),
        );

        // Per-curve throughput decomposes the aggregate exactly: a curve
        // produces iff it holds cores, and the shares sum back to the
        // total (same fleet report, so only float association differs).
        let mut sum = 0.0;
        for (&(curve, ncores), &(tcurve, t)) in p.assignment.iter().zip(&p.per_curve_sm_per_s) {
            assert_eq!(curve, tcurve);
            assert_eq!(
                ncores > 0,
                t > 0.0,
                "{}/{}-core: {curve} has {ncores} cores but {t} SM/s",
                p.machine,
                p.cores
            );
            sum += t;
        }
        assert!(
            (sum - p.sm_per_s).abs() <= 1e-9 * p.sm_per_s.max(1.0),
            "per-curve SM/s must sum to the aggregate: {} vs {}",
            sum,
            p.sm_per_s
        );

        // SchnorrQ verification costs two scalar multiplications.
        let fourq_sm = p
            .per_curve_sm_per_s
            .iter()
            .find(|(c, _)| *c == CurveId::FourQ)
            .map(|(_, t)| *t)
            .unwrap();
        assert_eq!(p.sigs_per_s, fourq_sm / 2.0);

        // Busy-cycle conservation through the technology model: the
        // cycles the fleet spends per second (Σ throughput_i × cycles_i)
        // must equal the busy fraction of the chip's cycle budget.
        let f_hz = tech.fmax_mhz(p.vdd) * 1e6;
        let spent: f64 = p
            .per_curve_sm_per_s
            .iter()
            .zip(&plan.kernels)
            .map(|(&(_, t), k)| t * k.cycles as f64)
            .sum();
        let budget = p.utilization * p.cores as f64 * f_hz;
        assert!(
            (spent - budget).abs() <= 1e-9 * budget.max(1.0),
            "{}/{}-core@{}V: busy-cycle conservation: {spent} vs {budget}",
            p.machine,
            p.cores,
            p.vdd
        );

        // Chips-needed is the exact ceiling of target / per-chip rate.
        if p.sm_per_s > 0.0 {
            let chips = p.chips_for_target;
            assert!(chips as f64 * p.sm_per_s >= cfg.workload.target_sm_per_s);
            assert!((chips - 1) as f64 * p.sm_per_s < cfg.workload.target_sm_per_s);
        }
    }
}
