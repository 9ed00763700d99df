//! The capacity planner: (cores × voltage) sweeps of the multi-core
//! fleet model, answering the ROADMAP's north-star question — "how many
//! chips for a target load?"
//!
//! The planner composes the layers beneath it, adding no physics of its
//! own:
//!
//! 1. **Kernels** — per-curve cycle counts from the compiled-kernel
//!    cache (`fourq_cpu::shared_kernel`), one kernel per (curve, machine).
//! 2. **Fleet** — N cores sharing one table ROM with cycle-accounted
//!    port arbitration (`fourq_tech::fleet`), cores split across curves
//!    by compute demand (`assign_cores`).
//! 3. **Technology** — the calibrated 65 nm SOTB model turns cycles into
//!    SM/s and watts at each grid voltage; the banked-register-file
//!    ablation enters as a second machine axis (`paper_banked`).
//!
//! Every number the planner emits is deterministic — fixed kernels,
//! fixed arbiter, fixed float formatting — so the whole Pareto frontier
//! is pinned bit-for-bit by `tests/vectors/fourq_fleet_kat.json`.

use fourq_curve::CurveId;
use fourq_sched::MachineConfig;
use fourq_tech::fleet::{
    assign_cores, chips_needed, pareto_frontier, simulate_fleet, CoreSpec, FleetConfig, ParetoPoint,
};
use fourq_tech::{AreaModel, SotbModel};

/// Schema tag of the fleet KAT vector file.
pub const KAT_SCHEMA: &str = "fourq-fleet-kat/v2";

/// A mixed-curve workload: per-curve shares of the request stream and
/// the total load the deployment must serve.
#[derive(Clone, Debug)]
pub struct Workload {
    /// `(curve, share)` pairs; shares are positive and sum to ~1.
    pub shares: Vec<(CurveId, f64)>,
    /// Target aggregate scalar multiplications per second.
    pub target_sm_per_s: f64,
}

impl Workload {
    /// The ROADMAP's reference mix: Fourℚ-dominated with X25519 and
    /// P-256 minorities, one million scalar multiplications per second.
    pub fn reference() -> Workload {
        Workload {
            shares: vec![
                (CurveId::FourQ, 0.5),
                (CurveId::X25519, 0.3),
                (CurveId::P256, 0.2),
            ],
            target_sm_per_s: 1.0e6,
        }
    }
}

/// Planner configuration: the sweep axes.
#[derive(Clone, Debug)]
pub struct PlanConfig {
    /// Read ports on the shared table ROM.
    pub rom_ports: u32,
    /// Core counts to sweep.
    pub core_counts: Vec<u32>,
    /// Supply-voltage grid (V).
    pub vdds: Vec<f64>,
    /// The workload to plan for.
    pub workload: Workload,
    /// Also sweep the banked-register-file machine variant.
    pub banked: bool,
}

impl PlanConfig {
    /// The pinned KAT configuration: everything fixed, cheap enough for
    /// a debug-build test run.
    pub fn kat() -> PlanConfig {
        PlanConfig {
            rom_ports: 2,
            core_counts: vec![1, 2, 4, 8],
            vdds: vec![0.32, 0.62, 0.90, 1.20],
            workload: Workload::reference(),
            banked: true,
        }
    }
}

/// Cycle identity of one curve's kernel as the planner sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct CurveKernelInfo {
    /// The curve.
    pub curve: CurveId,
    /// Cycles per scalar multiplication.
    pub cycles: u64,
    /// Table-ROM reads per operation (the operand-mux count).
    pub rom_reads: u64,
    /// Physical registers of the kernel (area input).
    pub registers: usize,
    /// Microinstructions (area input).
    pub rom_words: usize,
}

/// One point of the (machine × cores × voltage) sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanPoint {
    /// Machine variant: `"flat"` or `"banked"`.
    pub machine: &'static str,
    /// Cores on the chip.
    pub cores: u32,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Cores assigned per curve, workload order.
    pub assignment: Vec<(CurveId, u32)>,
    /// Aggregate scalar multiplications per second (all curves).
    pub sm_per_s: f64,
    /// Per-curve SM/s, workload order.
    pub per_curve_sm_per_s: Vec<(CurveId, f64)>,
    /// Fourℚ signature verifications per second (2 SM each: `[s]G` and
    /// `[h]Q` of the SchnorrQ verify equation, no multi-scalar trick).
    pub sigs_per_s: f64,
    /// Chip power at this point (W).
    pub power_w: f64,
    /// Chip area (mm², sum of per-core macros — every Fourℚ core carries
    /// a private copy of the 32-word precomputed table).
    pub area_mm2: f64,
    /// Chip area of the shared-ROM floorplan (mm²): the Fourℚ cores drop
    /// their private table words and one shared table-ROM macro (with
    /// `rom_ports` read ports — the floorplan the fleet timing model's
    /// port arbitration actually describes) is placed once.
    pub area_shared_rom_mm2: f64,
    /// Mean core utilization (busy / horizon).
    pub utilization: f64,
    /// Fraction of core-cycles lost to ROM-port stalls.
    pub stall_frac: f64,
    /// Chips needed for the workload's target load.
    pub chips_for_target: u64,
    /// Whether this point survives the throughput/power Pareto filter.
    pub on_frontier: bool,
}

/// The planner's output: the swept points plus the Fourℚ kernel's cycle
/// count against its lower bound.
#[derive(Clone, Debug)]
pub struct CapacityPlan {
    /// Cycles of the Fourℚ kernel on the flat machine (0 when the
    /// workload has no Fourℚ share).
    pub fourq_cycles: u64,
    /// Issue-bandwidth lower bound of the Fourℚ program.
    pub fourq_lower_bound: u64,
    /// Kernel identities on the flat machine, workload order.
    pub kernels: Vec<CurveKernelInfo>,
    /// Sweep results, ordered (machine, cores, vdd) — machine-major.
    pub points: Vec<PlanPoint>,
}

/// Fleet-simulation horizon: long enough to amortize op boundaries for
/// the slowest kernel, short enough for debug-build test runs.
fn horizon_for(kernels: &[CurveKernelInfo]) -> u64 {
    8 * kernels.iter().map(|k| k.cycles).max().unwrap_or(1)
}

/// The planner's view of each workload curve's kernel on `machine`, plus
/// the Fourℚ kernel's `(cycles, lower_bound)` (zeros without a Fourℚ
/// share).
fn kernel_infos(machine: &MachineConfig, cfg: &PlanConfig) -> (Vec<CurveKernelInfo>, u64, u64) {
    let mut infos = Vec::new();
    let (mut cycles, mut lb) = (0, 0);
    for &(curve, _) in &cfg.workload.shares {
        let fp = &fourq_cpu::shared_kernel(curve, machine)
            .expect("kernel compiles")
            .fingerprint;
        if curve == CurveId::FourQ {
            (cycles, lb) = (fp.cycles, fp.lower_bound);
        }
        infos.push(CurveKernelInfo {
            curve,
            cycles: fp.cycles,
            rom_reads: fp.mux_count as u64,
            registers: fp.registers,
            rom_words: fp.rom_words,
        });
    }
    (infos, cycles, lb)
}

/// Chip area for a core mix on a machine variant, priced under both
/// floorplans; returns `(per_core_tables, shared_rom)` in mm².
///
/// Per-core: every Fourℚ core holds the 32-word precomputed table in its
/// register file (the banked variant in the cheap table bank). Shared
/// ROM: the table words leave every core and one shared table-ROM macro
/// with `rom_ports` read ports serves the whole curve group — the
/// floorplan whose port contention `simulate_fleet` already accounts
/// for. Curves without a table price identically under both.
fn chip_area_mm2(
    banked: bool,
    rom_ports: u32,
    assignment: &[(CurveId, u32)],
    kernels: &[CurveKernelInfo],
) -> (f64, f64) {
    let mut per_core = 0.0;
    let mut shared = 0.0;
    for (&(curve, n), k) in assignment.iter().zip(kernels) {
        let table_words = if curve == CurveId::FourQ { 32 } else { 0 };
        let with_table = if banked {
            AreaModel::paper_banked(k.registers, table_words.min(k.registers), k.rom_words)
        } else {
            AreaModel::paper_like(k.registers, k.rom_words)
        };
        per_core += n as f64 * with_table.area_mm2();
        let sans_table =
            AreaModel::paper_like(k.registers.saturating_sub(table_words), k.rom_words);
        shared += n as f64 * sans_table.area_mm2();
        if table_words > 0 && n > 0 {
            shared += AreaModel::shared_table_rom_mm2(table_words, rom_ports);
        }
    }
    (per_core, shared)
}

/// Runs the full sweep on the process-wide thread pool.
pub fn plan(cfg: &PlanConfig) -> CapacityPlan {
    plan_with_threads(cfg, fourq_pool::resolved_threads())
}

/// As [`plan`] with an explicit thread count. The output is bit-identical
/// at every thread count: the parallel axis is the (machine, cores)
/// grid, each point an independent pure function of the shared kernels.
pub fn plan_with_threads(cfg: &PlanConfig, threads: usize) -> CapacityPlan {
    assert!(!cfg.core_counts.is_empty() && !cfg.vdds.is_empty());
    assert!(!cfg.workload.shares.is_empty());
    // A workload is keyed by curve throughout the planner (core
    // assignment, per-curve accounting, KAT JSON object keys), so
    // duplicate curves would double-count cores and emit duplicate
    // JSON keys; shares must be positive so every listed curve is a
    // real slice of the request stream.
    for (i, &(curve, share)) in cfg.workload.shares.iter().enumerate() {
        assert!(
            share.is_finite() && share > 0.0,
            "workload share for {} must be positive and finite, got {share}",
            curve.name()
        );
        assert!(
            cfg.workload.shares[..i].iter().all(|&(c, _)| c != curve),
            "duplicate curve {} in workload",
            curve.name()
        );
    }
    let flat = MachineConfig::paper();
    let (kernels, fourq_cycles, fourq_lower_bound) = kernel_infos(&flat, cfg);
    // One technology model, calibrated against the Fourℚ cycle count (the
    // paper's anchor methodology), or the first curve's without one.
    let tech = SotbModel::calibrate_paper(match fourq_cycles {
        0 => kernels[0].cycles,
        c => c,
    });

    // The banked machine variant re-schedules every kernel with the
    // 6-port register file; on the paper datapath the ports do not bind,
    // so cycles typically match flat — which is itself a finding the
    // sweep exposes (banked = same speed, less area). Each variant
    // simulates under a horizon scaled to its *own* slowest kernel, so
    // op-boundary amortization stays comparable even if the variants'
    // cycle counts diverge.
    let variants: Vec<(&'static str, Vec<CurveKernelInfo>, u64)> = if cfg.banked {
        let banked_machine = MachineConfig::paper_banked();
        let (banked_kernels, ..) = kernel_infos(&banked_machine, cfg);
        let banked_horizon = horizon_for(&banked_kernels);
        vec![
            ("flat", kernels.clone(), horizon_for(&kernels)),
            ("banked", banked_kernels, banked_horizon),
        ]
    } else {
        vec![("flat", kernels.clone(), horizon_for(&kernels))]
    };

    // Parallel axis: (variant, cores). Each item simulates one fleet and
    // expands the voltage grid arithmetically.
    let grid: Vec<(usize, u32)> = (0..variants.len())
        .flat_map(|v| cfg.core_counts.iter().map(move |&n| (v, n)))
        .collect();
    let points: Vec<Vec<PlanPoint>> = fourq_pool::map_items(&grid, 1, threads, |_, &(v, n)| {
        let (variant, vkernels, horizon) = &variants[v];
        let horizon = *horizon;
        let demands: Vec<(String, f64)> = cfg
            .workload
            .shares
            .iter()
            .zip(vkernels)
            .map(|(&(curve, share), k)| (curve.name().to_string(), share * k.cycles as f64))
            .collect();
        let assignment: Vec<(CurveId, u32)> = assign_cores(&demands, n)
            .into_iter()
            .zip(&cfg.workload.shares)
            .map(|((_, c), &(curve, _))| (curve, c))
            .collect();
        let fleet_cfg = FleetConfig {
            rom_ports: cfg.rom_ports,
            cores: assignment
                .iter()
                .zip(vkernels)
                .flat_map(|(&(curve, c), k)| {
                    (0..c).map(move |_| CoreSpec {
                        name: curve.name().to_string(),
                        cycles_per_op: k.cycles,
                        rom_reads_per_op: k.rom_reads,
                    })
                })
                .collect(),
        };
        let report = simulate_fleet(&fleet_cfg, horizon);
        let (area_mm2, area_shared_rom_mm2) =
            chip_area_mm2(*variant == "banked", cfg.rom_ports, &assignment, vkernels);
        let util_sum: f64 = report.cores.iter().map(|c| c.utilization).sum();
        cfg.vdds
            .iter()
            .map(|&vdd| {
                let f_hz = tech.fmax_mhz(vdd) * 1e6;
                let sm_per_s = report.ops_per_cycle * f_hz;
                let per_curve_sm_per_s: Vec<(CurveId, f64)> = cfg
                    .workload
                    .shares
                    .iter()
                    .map(|&(curve, _)| {
                        (
                            curve,
                            report.progress_of(curve.name()) / horizon as f64 * f_hz,
                        )
                    })
                    .collect();
                let fourq_sm = per_curve_sm_per_s
                    .iter()
                    .find(|(c, _)| *c == CurveId::FourQ)
                    .map(|(_, t)| *t)
                    .unwrap_or(0.0);
                // Dynamic power scales with the cycles actually executed;
                // leakage burns in every core whether stalled or not.
                let power_w =
                    util_sum * tech.ceff * vdd * vdd * f_hz + n as f64 * tech.leakage_w(vdd);
                PlanPoint {
                    machine: variant,
                    cores: n,
                    vdd,
                    assignment: assignment.clone(),
                    sm_per_s,
                    per_curve_sm_per_s,
                    sigs_per_s: fourq_sm / 2.0,
                    power_w,
                    area_mm2,
                    area_shared_rom_mm2,
                    utilization: util_sum / n as f64,
                    stall_frac: report.total_stalls as f64 / (n as u64 * horizon) as f64,
                    chips_for_target: chips_needed(cfg.workload.target_sm_per_s, sm_per_s),
                    on_frontier: false,
                }
            })
            .collect()
    });
    let mut points: Vec<PlanPoint> = points.into_iter().flatten().collect();
    let pareto_in: Vec<ParetoPoint> = points
        .iter()
        .map(|p| ParetoPoint {
            throughput: p.sm_per_s,
            power_w: p.power_w,
        })
        .collect();
    for i in pareto_frontier(&pareto_in) {
        points[i].on_frontier = true;
    }
    CapacityPlan {
        fourq_cycles,
        fourq_lower_bound,
        kernels,
        points,
    }
}

/// Deterministic significant-digit float rendering for the KAT: fixed
/// scientific notation sidesteps any doubt about shortest-repr digits.
fn sig(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else {
        format!("{x:.5e}")
    }
}

/// Renders a plan as the `fourq-fleet-kat/v2` JSON document.
///
/// Key order, float formatting and point order are all fixed, so two
/// runs of the same configuration produce byte-identical strings — the
/// property `tests/kat.rs` pins against the checked-in vector file.
pub fn kat_json(cfg: &PlanConfig, plan: &CapacityPlan) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{KAT_SCHEMA}\",\n"));
    s.push_str("  \"config\": {\n");
    s.push_str(&format!("    \"rom_ports\": {},\n", cfg.rom_ports));
    s.push_str(&format!(
        "    \"core_counts\": [{}],\n",
        cfg.core_counts
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!(
        "    \"vdds\": [{}],\n",
        cfg.vdds
            .iter()
            .map(|v| format!("\"{v:.2}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!(
        "    \"workload\": {{{}}},\n",
        cfg.workload
            .shares
            .iter()
            .map(|(c, sh)| format!("\"{}\": \"{sh:.2}\"", c.name()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!(
        "    \"target_sm_per_s\": \"{}\",\n",
        sig(cfg.workload.target_sm_per_s)
    ));
    s.push_str(&format!("    \"banked\": {}\n", cfg.banked));
    s.push_str("  },\n");
    s.push_str(&format!(
        "  \"fourq_cycles\": {{\"cycles\": {}, \"lower_bound\": {}}},\n",
        plan.fourq_cycles, plan.fourq_lower_bound
    ));
    s.push_str("  \"kernels\": [\n");
    for (i, k) in plan.kernels.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"curve\": \"{}\", \"cycles\": {}, \"rom_reads\": {}, \"registers\": {}, \"rom_words\": {}}}{}\n",
            k.curve.name(),
            k.cycles,
            k.rom_reads,
            k.registers,
            k.rom_words,
            if i + 1 < plan.kernels.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"points\": [\n");
    for (i, p) in plan.points.iter().enumerate() {
        let assignment = p
            .assignment
            .iter()
            .map(|(c, n)| format!("\"{}\": {n}", c.name()))
            .collect::<Vec<_>>()
            .join(", ");
        let per_curve = p
            .per_curve_sm_per_s
            .iter()
            .map(|(c, t)| format!("\"{}\": \"{}\"", c.name(), sig(*t)))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            "    {{\"machine\": \"{}\", \"cores\": {}, \"vdd\": \"{:.2}\", \
             \"assignment\": {{{assignment}}}, \"sm_per_s\": \"{}\", \
             \"per_curve_sm_per_s\": {{{per_curve}}}, \"sigs_per_s\": \"{}\", \
             \"power_w\": \"{}\", \"area_mm2\": \"{}\", \"area_shared_rom_mm2\": \"{}\", \
             \"utilization\": \"{}\", \
             \"stall_frac\": \"{}\", \"chips_for_target\": {}, \"pareto\": {}}}{}\n",
            p.machine,
            p.cores,
            p.vdd,
            sig(p.sm_per_s),
            sig(p.sigs_per_s),
            sig(p.power_w),
            sig(p.area_mm2),
            sig(p.area_shared_rom_mm2),
            sig(p.utilization),
            sig(p.stall_frac),
            p.chips_for_target,
            p.on_frontier,
            if i + 1 < plan.points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> PlanConfig {
        PlanConfig {
            rom_ports: 2,
            core_counts: vec![1, 2],
            vdds: vec![0.32, 1.20],
            workload: Workload::reference(),
            banked: false,
        }
    }

    #[test]
    fn plan_is_deterministic_and_covers_the_grid() {
        let cfg = tiny_cfg();
        let a = plan_with_threads(&cfg, 1);
        let b = plan_with_threads(&cfg, 1);
        assert_eq!(a.points, b.points);
        assert_eq!(a.points.len(), cfg.core_counts.len() * cfg.vdds.len());
        assert!(a.points.iter().any(|p| p.on_frontier));
        // Higher voltage at equal cores is strictly faster and hungrier.
        for w in a.points.chunks(cfg.vdds.len()) {
            assert!(w[1].sm_per_s > w[0].sm_per_s);
            assert!(w[1].power_w > w[0].power_w);
        }
    }

    #[test]
    fn core_assignment_conserves_totals() {
        let cfg = tiny_cfg();
        let p = plan_with_threads(&cfg, 1);
        for pt in &p.points {
            assert_eq!(pt.assignment.iter().map(|(_, n)| n).sum::<u32>(), pt.cores);
        }
    }

    #[test]
    fn shared_rom_floorplan_is_priced_and_smaller_with_fourq_cores() {
        let cfg = tiny_cfg();
        let p = plan_with_threads(&cfg, 1);
        for pt in &p.points {
            assert!(pt.area_shared_rom_mm2 > 0.0);
            let fourq_cores = pt
                .assignment
                .iter()
                .find(|(c, _)| *c == CurveId::FourQ)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            if fourq_cores > 0 {
                // Dropping 32 multiport table words per Fourℚ core buys
                // more than the one shared macro costs.
                assert!(
                    pt.area_shared_rom_mm2 < pt.area_mm2,
                    "shared-ROM floorplan should be smaller at {} cores",
                    pt.cores
                );
            } else {
                assert!((pt.area_shared_rom_mm2 - pt.area_mm2).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate curve")]
    fn plan_rejects_duplicate_workload_curves() {
        let mut cfg = tiny_cfg();
        cfg.workload.shares = vec![(CurveId::FourQ, 0.5), (CurveId::FourQ, 0.5)];
        plan_with_threads(&cfg, 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn plan_rejects_non_positive_shares() {
        let mut cfg = tiny_cfg();
        cfg.workload.shares = vec![(CurveId::FourQ, 0.0)];
        plan_with_threads(&cfg, 1);
    }

    #[test]
    fn kat_json_is_stable_across_runs() {
        let cfg = tiny_cfg();
        let a = kat_json(&cfg, &plan_with_threads(&cfg, 1));
        let b = kat_json(&cfg, &plan_with_threads(&cfg, 2));
        assert_eq!(a, b, "thread count leaked into the KAT rendering");
        assert!(a.contains(KAT_SCHEMA));
    }
}
