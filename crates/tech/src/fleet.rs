//! Multi-core fleet model: N compiled-kernel cores sharing one table ROM.
//!
//! The paper's §V scales throughput by replicating the Fourℚ datapath;
//! the Curve25519/448 unified accelerator (PAPERS.md) replicates
//! heterogeneous per-curve cores behind one shared precomputed-table ROM.
//! This module does the *cycle accounting* of that shape: each core runs
//! its curve's fixed microprogram over and over (`cycles_per_op` cycles
//! per scalar multiplication, with `rom_reads_per_op` table-ROM fetches
//! spread evenly through the program), and the shared ROM grants at most
//! `rom_ports` reads per cycle under a fixed-priority daisy-chain
//! arbiter. A core denied its fetch stalls — its program counter freezes
//! — so throughput degrades *only* through modeled ROM-port contention,
//! a property the test suite pins.
//!
//! The model is deliberately curve-agnostic and technology-free: cores
//! are described by two integers, and the result is in cycles.
//! `crates/bench`'s capacity planner combines it with the calibrated
//! [`SotbModel`](crate::SotbModel) to turn cycle counts into SM/s and
//! watts across a (cores × voltage) sweep.

/// One replicated core: which fixed microprogram it loops and how often
/// that program touches the shared table ROM.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CoreSpec {
    /// Label for reports (typically the curve name).
    pub name: String,
    /// Cycles per operation (the kernel's schedule makespan).
    pub cycles_per_op: u64,
    /// Shared-ROM fetches per operation, spread evenly through the
    /// program. For a compiled kernel this is the operand-mux count:
    /// every mux read routes a precomputed-table word.
    pub rom_reads_per_op: u64,
}

/// A fleet: the shared-ROM port count and the cores hanging off it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FleetConfig {
    /// Read ports on the shared table ROM (grants per cycle).
    pub rom_ports: u32,
    /// The replicated cores.
    pub cores: Vec<CoreSpec>,
}

/// Per-core accounting after a [`simulate_fleet`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreReport {
    /// The core's label (from [`CoreSpec::name`]).
    pub name: String,
    /// Whole operations finished within the horizon.
    pub ops_completed: u64,
    /// Fractional operations finished: `ops_completed` plus the partial
    /// progress of the in-flight op. Strictly monotone in useful cycles,
    /// which makes throughput comparisons horizon-artifact-free.
    pub progress: f64,
    /// Cycles the core advanced its program.
    pub busy_cycles: u64,
    /// Cycles the core sat stalled waiting for a ROM grant.
    pub stall_cycles: u64,
    /// `busy_cycles / horizon`.
    pub utilization: f64,
}

/// Fleet-level accounting after a [`simulate_fleet`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// Simulated horizon in cycles.
    pub horizon: u64,
    /// Per-core breakdown, in [`FleetConfig::cores`] order.
    pub cores: Vec<CoreReport>,
    /// Sum of whole operations across cores.
    pub total_ops: u64,
    /// Sum of fractional operations across cores.
    pub total_progress: f64,
    /// Sum of stall cycles across cores.
    pub total_stalls: u64,
    /// `total_progress / horizon` — the fleet's operations per cycle.
    pub ops_per_cycle: f64,
}

impl FleetReport {
    /// Fractional operations completed by the cores named `name`.
    pub fn progress_of(&self, name: &str) -> f64 {
        // fold, not sum: an empty iterator's f64 sum is -0.0, which leaks
        // a minus sign into formatted reports.
        self.cores
            .iter()
            .filter(|c| c.name == name)
            .fold(0.0, |acc, c| acc + c.progress)
    }
}

/// Runs the fleet for `horizon` cycles and returns the accounting.
///
/// Every core starts at program counter 0 (the deterministic worst case
/// for port contention: in-phase fetch bursts). Each cycle, cores whose
/// current program position is a ROM-fetch slot request a port; the
/// arbiter is a **fixed-priority daisy chain** — grants go to the
/// lowest-index requesters, up to `rom_ports` of them. Granted and
/// non-fetching cores advance one cycle; denied cores stall.
///
/// Fixed priority is the cheapest arbiter to build and the one that makes
/// the model's headline properties *theorems* rather than observations:
/// core `i` can only ever be displaced by cores `0..i`, so its trajectory
/// is completely independent of any higher-index core. Appending a core
/// therefore leaves every existing core's accounting bit-identical
/// (prefix invariance) and can only add throughput (monotonicity) — both
/// pinned by the property suite. The price is bounded unfairness under
/// saturation: a fetch-every-cycle core can starve lower-priority peers,
/// visible in the per-core `stall_cycles`. Real microprograms fetch
/// sparsely (Fourℚ: 445 table reads in 3372 cycles), where colliding
/// cores decohere by a cycle and then stream conflict-free.
///
/// # Panics
///
/// Panics if a core has `cycles_per_op == 0` or more ROM reads than
/// cycles (the fixed schedule issues at most one table fetch per cycle
/// per core).
pub fn simulate_fleet(cfg: &FleetConfig, horizon: u64) -> FleetReport {
    let n = cfg.cores.len();
    // Per-core fetch-slot map: read i happens at cycle ⌊i·C/R⌋ of the op.
    let fetch_slot: Vec<Vec<bool>> = cfg
        .cores
        .iter()
        .map(|c| {
            assert!(c.cycles_per_op > 0, "core {:?}: zero-cycle op", c.name);
            assert!(
                c.rom_reads_per_op <= c.cycles_per_op,
                "core {:?}: more ROM reads than cycles",
                c.name
            );
            let mut slots = vec![false; c.cycles_per_op as usize];
            for i in 0..c.rom_reads_per_op {
                slots[(i * c.cycles_per_op / c.rom_reads_per_op.max(1)) as usize] = true;
            }
            slots
        })
        .collect();

    let mut pos = vec![0usize; n];
    let mut ops = vec![0u64; n];
    let mut busy = vec![0u64; n];
    let mut stall = vec![0u64; n];
    let ports = cfg.rom_ports as usize;
    for _cycle in 0..horizon {
        // Daisy-chain grant: scan cores in priority (index) order, hand
        // out ports to requesters until they run out.
        let mut granted = 0usize;
        for i in 0..n {
            if fetch_slot[i][pos[i]] {
                if granted == ports {
                    stall[i] += 1;
                    continue;
                }
                granted += 1;
            }
            busy[i] += 1;
            pos[i] += 1;
            if pos[i] == fetch_slot[i].len() {
                pos[i] = 0;
                ops[i] += 1;
            }
        }
    }

    let cores: Vec<CoreReport> = (0..n)
        .map(|i| CoreReport {
            name: cfg.cores[i].name.clone(),
            ops_completed: ops[i],
            progress: ops[i] as f64 + pos[i] as f64 / fetch_slot[i].len() as f64,
            busy_cycles: busy[i],
            stall_cycles: stall[i],
            utilization: if horizon == 0 {
                0.0
            } else {
                busy[i] as f64 / horizon as f64
            },
        })
        .collect();
    let total_progress = cores.iter().fold(0.0, |acc, c| acc + c.progress);
    FleetReport {
        horizon,
        total_ops: cores.iter().map(|c| c.ops_completed).sum(),
        total_stalls: cores.iter().map(|c| c.stall_cycles).sum(),
        ops_per_cycle: if horizon == 0 {
            0.0
        } else {
            total_progress / horizon as f64
        },
        total_progress,
        cores,
    }
}

/// Splits `total_cores` across curves proportionally to
/// `share × cycles_per_op` (the compute demand of each curve's slice of
/// the workload), by largest remainder, guaranteeing every curve with a
/// positive share at least one core when enough cores exist.
///
/// Returns `(name, cores)` pairs in input order; the counts sum to
/// `total_cores` exactly.
///
/// # Panics
///
/// Panics if `total_cores == 0`, shares are not all finite and
/// non-negative, or no share is positive.
pub fn assign_cores(demands: &[(String, f64)], total_cores: u32) -> Vec<(String, u32)> {
    assert!(total_cores > 0, "need at least one core");
    let total: f64 = demands
        .iter()
        .map(|(n, d)| {
            assert!(d.is_finite() && *d >= 0.0, "bad demand for {n:?}");
            d
        })
        .sum();
    assert!(total > 0.0, "no positive demand");
    let ideal: Vec<f64> = demands
        .iter()
        .map(|(_, d)| d / total * total_cores as f64)
        .collect();
    let mut counts: Vec<u32> = ideal.iter().map(|x| x.floor() as u32).collect();
    let assigned: u32 = counts.iter().sum();
    // Largest remainder (ties broken by input order for determinism).
    let mut rem: Vec<(usize, f64)> = ideal
        .iter()
        .enumerate()
        .map(|(i, x)| (i, x - x.floor()))
        .collect();
    rem.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    for k in 0..(total_cores - assigned) as usize {
        counts[rem[k % rem.len()].0] += 1;
    }
    // Guarantee: no starved positive-share curve while another holds ≥ 2.
    for i in 0..counts.len() {
        if counts[i] == 0 && demands[i].1 > 0.0 {
            if let Some(j) = (0..counts.len()).max_by_key(|&j| counts[j]) {
                if counts[j] >= 2 {
                    counts[j] -= 1;
                    counts[i] += 1;
                }
            }
        }
    }
    demands.iter().map(|(n, _)| n.clone()).zip(counts).collect()
}

/// A candidate design point for the Pareto sweep: maximize throughput,
/// minimize power.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParetoPoint {
    /// Operations per second (higher is better).
    pub throughput: f64,
    /// Watts (lower is better).
    pub power_w: f64,
}

/// Indices of the non-dominated points (higher throughput, lower power),
/// sorted by ascending power. A point survives unless some other point
/// has ≥ throughput *and* ≤ power with at least one strict.
pub fn pareto_frontier(points: &[ParetoPoint]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| {
        points[a]
            .power_w
            .partial_cmp(&points[b].power_w)
            .unwrap()
            .then(
                points[b]
                    .throughput
                    .partial_cmp(&points[a].throughput)
                    .unwrap(),
            )
    });
    let mut frontier = Vec::new();
    let mut best = f64::NEG_INFINITY;
    let mut best_power = f64::INFINITY;
    for &i in &idx {
        // Keep strict improvements, and also exact (throughput, power)
        // ties with the point that set `best`: co-located points do not
        // dominate each other, so all of them are on the frontier (the
        // banked machine's points coincide with the flat machine's).
        if points[i].throughput > best
            || (points[i].throughput == best && points[i].power_w == best_power)
        {
            frontier.push(i);
            best = points[i].throughput;
            best_power = points[i].power_w;
        }
    }
    frontier
}

/// Chips needed to serve `target_ops_per_sec` given one chip's
/// throughput: `⌈target / per_chip⌉`.
///
/// # Panics
///
/// Panics if `per_chip_ops_per_sec` is not positive or the target is
/// negative.
pub fn chips_needed(target_ops_per_sec: f64, per_chip_ops_per_sec: f64) -> u64 {
    assert!(per_chip_ops_per_sec > 0.0, "chip must do work");
    assert!(target_ops_per_sec >= 0.0, "negative load");
    (target_ops_per_sec / per_chip_ops_per_sec).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(name: &str, cycles: u64, reads: u64) -> CoreSpec {
        CoreSpec {
            name: name.to_string(),
            cycles_per_op: cycles,
            rom_reads_per_op: reads,
        }
    }

    #[test]
    fn single_core_runs_uncontended() {
        let cfg = FleetConfig {
            rom_ports: 1,
            cores: vec![core("fourq", 100, 13)],
        };
        let r = simulate_fleet(&cfg, 1000);
        assert_eq!(r.total_ops, 10);
        assert_eq!(r.total_stalls, 0);
        assert!((r.cores[0].utilization - 1.0).abs() < 1e-12);
        assert!((r.total_progress - 10.0).abs() < 1e-12);
    }

    #[test]
    fn enough_ports_means_perfect_scaling() {
        let solo = simulate_fleet(
            &FleetConfig {
                rom_ports: 1,
                cores: vec![core("a", 64, 17)],
            },
            4096,
        );
        let four = simulate_fleet(
            &FleetConfig {
                rom_ports: 4,
                cores: (0..4).map(|_| core("a", 64, 17)).collect(),
            },
            4096,
        );
        assert_eq!(four.total_stalls, 0);
        assert!((four.total_progress - 4.0 * solo.total_progress).abs() < 1e-9);
    }

    #[test]
    fn in_phase_cores_decohere_and_stream() {
        // Two identical cores in phase, one port, a fetch every 4th
        // cycle: the first collision shifts core 1 by one cycle, after
        // which the sparse fetch patterns never collide again.
        let cfg = FleetConfig {
            rom_ports: 1,
            cores: vec![core("a", 8, 2), core("a", 8, 2)],
        };
        let r = simulate_fleet(&cfg, 8000);
        let (a, b) = (&r.cores[0], &r.cores[1]);
        assert_eq!(a.stall_cycles, 0, "priority core never stalls");
        assert!(b.stall_cycles >= 1, "in-phase fetches must collide once");
        assert!(b.stall_cycles <= 2, "sparse patterns decohere, not starve");
        // Throughput loss comes only from the accounted stalls.
        assert_eq!(
            a.busy_cycles + a.stall_cycles + b.busy_cycles + b.stall_cycles,
            2 * r.horizon
        );
    }

    #[test]
    fn saturating_core_starves_lower_priority() {
        // A fetch-every-cycle core ahead of another on one port: the
        // documented worst case of the daisy-chain arbiter.
        let cfg = FleetConfig {
            rom_ports: 1,
            cores: vec![core("hog", 4, 4), core("victim", 4, 4)],
        };
        let r = simulate_fleet(&cfg, 100);
        assert_eq!(r.cores[0].stall_cycles, 0);
        assert_eq!(r.cores[1].busy_cycles, 0, "fully starved");
    }

    #[test]
    fn assign_cores_conserves_and_covers() {
        let got = assign_cores(
            &[
                ("fourq".into(), 5.0),
                ("x25519".into(), 3.0),
                ("p256".into(), 2.0),
            ],
            8,
        );
        assert_eq!(got.iter().map(|(_, c)| c).sum::<u32>(), 8);
        assert_eq!(got[0].1, 4);
        assert_eq!(got[1].1, 2);
        // every positive-share curve got a core
        assert!(got.iter().all(|(_, c)| *c >= 1));
    }

    #[test]
    fn assign_cores_single_core_goes_to_biggest_demand() {
        let got = assign_cores(&[("a".into(), 1.0), ("b".into(), 3.0)], 1);
        assert_eq!(got, vec![("a".into(), 0), ("b".into(), 1)]);
    }

    #[test]
    fn pareto_frontier_drops_dominated_points() {
        let pts = [
            ParetoPoint {
                throughput: 10.0,
                power_w: 1.0,
            },
            ParetoPoint {
                throughput: 5.0,
                power_w: 2.0,
            }, // dominated
            ParetoPoint {
                throughput: 20.0,
                power_w: 3.0,
            },
        ];
        assert_eq!(pareto_frontier(&pts), vec![0, 2]);
    }

    #[test]
    fn pareto_frontier_keeps_colocated_ties_and_drops_weak_ties() {
        let pts = [
            ParetoPoint {
                throughput: 10.0,
                power_w: 1.0,
            },
            // Exact duplicate (the banked machine's points coincide with
            // the flat machine's): neither dominates, both survive.
            ParetoPoint {
                throughput: 10.0,
                power_w: 1.0,
            },
            // Equal throughput at strictly higher power: dominated.
            ParetoPoint {
                throughput: 10.0,
                power_w: 2.0,
            },
            // Equal power at strictly lower throughput: dominated.
            ParetoPoint {
                throughput: 8.0,
                power_w: 1.0,
            },
        ];
        assert_eq!(pareto_frontier(&pts), vec![0, 1]);
    }

    #[test]
    fn chips_needed_rounds_up() {
        assert_eq!(chips_needed(0.0, 10.0), 0);
        assert_eq!(chips_needed(10.0, 10.0), 1);
        assert_eq!(chips_needed(10.1, 10.0), 2);
    }
}
