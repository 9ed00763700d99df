//! Window-decomposed exact scheduling.
//!
//! The full uniform scalar-multiplication program (~4.7k jobs for Fourℚ)
//! is far beyond what [`exact_schedule`]'s branch-and-bound can prove
//! optimal, so the whole-program heuristics leave a visible gap to the
//! issue-bandwidth lower bound (~37% on the paper machine). This module
//! closes part of that gap by *decomposing* the program into contiguous
//! windows (digit segments of the main loop), running the exact search on
//! each window independently, and stitching the window schedules back
//! together with the smallest offsets that keep every global constraint
//! satisfied — cross-window dependencies, unit issue capacity and
//! register-file ports are all re-checked at the seam, so consecutive
//! windows overlap wherever the datapath has room.
//!
//! Two effects make the windows schedule tighter than the global pass:
//!
//! 1. the exact search (seeded by a per-window ILS run) is affordable on
//!    a few hundred jobs, and
//! 2. the giant mux ordering fan-ins (every digit read order-depends on
//!    the whole precomputed table, built in window 0) become *offset
//!    constraints* instead of per-job edges, so the local problems are
//!    much freer than the global one.
//!
//! The result is always validated against the *original* problem: the
//! stitched schedule is a plain [`Schedule`] the rest of the pipeline
//! (simulation, allocation, ROM assembly, the K-FLOW/K-OBLIV/K-RES
//! verifier) consumes with no special cases.

use crate::{
    critical_path_priorities, exact_schedule, list_schedule, lower_bound, Job, MachineConfig,
    Problem, Schedule, UnitKind,
};
use std::collections::HashMap;

/// Knobs for [`stitched_exact_schedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StitchOptions {
    /// Number of contiguous windows the job list is split into. For the
    /// Fourℚ program (66 recoded digits) `8` gives windows of about eight
    /// digits each.
    pub segments: usize,
    /// Branch-and-bound node budget *per segment* (see
    /// [`exact_schedule`]); exhausted segments keep the best schedule
    /// found and report `proved_optimal = false`.
    pub node_limit: u64,
    /// Restarts of the diversified backward-pass search per segment
    /// (see [`diversified_schedule`]). `0` disables the search and
    /// leaves only the exact/ILS result.
    pub window_trials: u32,
}

impl Default for StitchOptions {
    fn default() -> Self {
        StitchOptions {
            segments: 8,
            node_limit: 10_000,
            window_trials: 64,
        }
    }
}

/// Reverses the dependency DAG: job `i` becomes job `n-1-i` with every
/// edge flipped. Port costs are dropped — the reversed problem is only
/// ever scheduled under relaxed ports to derive priorities.
fn reverse_problem(p: &Problem) -> Problem {
    let n = p.len();
    let mut rev_deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, j) in p.jobs.iter().enumerate() {
        for d in j.all_deps() {
            rev_deps[n - 1 - d].push(n - 1 - i);
        }
    }
    Problem::new(
        (0..n)
            .map(|i| {
                let mut deps = rev_deps[i].clone();
                deps.sort_unstable();
                deps.dedup();
                Job {
                    unit: p.jobs[n - 1 - i].unit,
                    deps,
                    order_deps: vec![],
                    input_operands: 0,
                }
            })
            .collect(),
    )
}

/// Multi-restart backward-pass search: each trial perturbs the *reversed*
/// problem's critical-path priorities, list-schedules the reversed DAG
/// under relaxed ports, and uses the resulting start times as forward
/// priorities. Perturbing the backward pass itself (rather than the final
/// priority vector, as the plain ILS does) produces structurally diverse
/// seeds that escape the plateau the forward heuristics share: on the
/// Fourℚ scalar-multiplication program this lands ~4% below the best
/// whole-program ILS schedule at any effort.
///
/// Deterministic for a given `(problem, machine, trials, seed)`.
pub fn diversified_schedule(
    problem: &Problem,
    machine: &MachineConfig,
    trials: u32,
    seed: u64,
) -> Schedule {
    let n = problem.len();
    let cp = critical_path_priorities(problem, machine);
    let mut best = list_schedule(problem, machine, &cp);
    if problem.is_empty() || best.makespan == lower_bound(problem, machine) {
        return best;
    }
    let mut relaxed = *machine;
    relaxed.read_ports = u32::MAX;
    relaxed.write_ports = u32::MAX;
    let rev = reverse_problem(problem);
    let rev_cp = critical_path_priorities(&rev, &relaxed);
    let mut rng = XorShift64::new(seed);
    for trial in 0..trials {
        let pert: Vec<u64> = if trial == 0 {
            rev_cp.clone()
        } else {
            rev_cp.iter().map(|&x| x * 16 + (rng.next() % 16)).collect()
        };
        let rev_sched = list_schedule(&rev, &relaxed, &pert);
        let bw_prio: Vec<u64> = (0..n).map(|i| rev_sched.start[n - 1 - i]).collect();
        let cand = list_schedule(problem, machine, &bw_prio);
        if cand.makespan < best.makespan {
            best = cand;
        }
    }
    best
}

/// Local copy of the crate's deterministic PRNG (kept private there).
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Per-window outcome of the decomposition.
#[derive(Clone, Debug)]
pub struct SegmentReport {
    /// Number of jobs in this window.
    pub jobs: usize,
    /// Global cycle the window was placed at after seam compaction.
    pub offset: u64,
    /// Makespan of the plain critical-path list schedule of the
    /// *sub-problem* (the "meet or beat" reference).
    pub list_makespan: u64,
    /// Best makespan the exact search found for the sub-problem.
    pub exact_makespan: u64,
    /// Lower bound of the sub-problem.
    pub lower_bound: u64,
    /// Whether the exact search exhausted its space (provably optimal).
    pub proved_optimal: bool,
    /// Branch-and-bound nodes the segment search expanded.
    pub nodes: u64,
}

/// A stitched whole-program schedule plus its per-segment provenance.
#[derive(Clone, Debug)]
pub struct StitchedSchedule {
    /// The combined schedule, valid for the original problem.
    pub schedule: Schedule,
    /// One report per window, in program order.
    pub segments: Vec<SegmentReport>,
}

/// Builds the sub-problem for jobs `lo..hi`: local edges are reindexed,
/// cross-window data deps become always-taken register reads (the value
/// sits in the register file by the time the window may start), and
/// cross-window ordering edges are dropped locally — both kinds are
/// re-imposed globally as placement constraints by the stitcher.
fn sub_problem(problem: &Problem, lo: usize, hi: usize) -> Problem {
    let jobs = problem.jobs[lo..hi]
        .iter()
        .map(|job| {
            let mut deps = Vec::new();
            let mut input_operands = job.input_operands;
            for &d in &job.deps {
                if d >= lo {
                    deps.push(d - lo);
                } else {
                    input_operands += 1;
                }
            }
            let order_deps = job
                .order_deps
                .iter()
                .filter(|&&d| d >= lo)
                .map(|&d| d - lo)
                .collect();
            Job {
                unit: job.unit,
                deps,
                order_deps,
                input_operands,
            }
        })
        .collect();
    Problem::new(jobs)
}

/// Conservative register-read count of sub-job `j` at its issue cycle:
/// the sub-problem's `input_operands` (which already includes every
/// cross-window operand) plus each local dep that does not forward under
/// the sub-schedule. Forwarding alignment is relative timing, so it is
/// invariant under the uniform shift the stitcher applies.
fn sub_reads(sub: &Problem, sched: &Schedule, machine: &MachineConfig, j: usize) -> u32 {
    let job = &sub.jobs[j];
    let mut reads = job.input_operands as u32;
    let s = sched.start[j];
    for &d in &job.deps {
        let dep_finish = sched.start[d] + machine.latency(sub.jobs[d].unit) as u64;
        if !(machine.forwarding && dep_finish == s) {
            reads += 1;
        }
    }
    reads
}

/// Base seed for the per-segment diversified search (xored with the
/// segment index so segments explore independent restart streams).
const SEED_BASE: u64 = 0x5717_c4ed_2019_0325;

/// Window-decomposed exact scheduling with seam compaction.
///
/// Splits the problem into `opts.segments` contiguous windows, runs
/// [`exact_schedule`] on each (node budget `opts.node_limit`), then
/// places each window at the smallest offset where cross-window
/// dependencies, unit capacity and port budgets all hold against the
/// already-placed prefix. The returned schedule is validated against the
/// original problem in debug builds; callers on the compile path
/// re-validate via `Schedule::validate` anyway.
///
/// # Panics
///
/// Panics if the machine has more than one instance of either unit (the
/// exact search is restricted to the paper's single-issue-per-unit
/// configuration).
pub fn stitched_exact_schedule(
    problem: &Problem,
    machine: &MachineConfig,
    opts: &StitchOptions,
) -> StitchedSchedule {
    assert!(
        machine.mul_units == 1 && machine.addsub_units == 1,
        "windowed exact search supports the single-multiplier configuration"
    );
    let n = problem.len();
    if n == 0 {
        return StitchedSchedule {
            schedule: Schedule {
                start: Vec::new(),
                makespan: 0,
            },
            segments: Vec::new(),
        };
    }
    let segments = opts.segments.clamp(1, n);

    // Global occupancy of the already-stitched prefix.
    let mut issue: HashMap<(UnitKind, u64), usize> = HashMap::new();
    let mut reads: HashMap<u64, u32> = HashMap::new();
    let mut writes: HashMap<u64, u32> = HashMap::new();
    let mut finish = vec![0u64; n]; // global finish cycle per placed job
    let mut start = vec![0u64; n];
    let mut makespan = 0u64;
    let mut reports = Vec::with_capacity(segments);

    for s in 0..segments {
        let lo = s * n / segments;
        let hi = (s + 1) * n / segments;
        if lo == hi {
            continue;
        }
        let sub = sub_problem(problem, lo, hi);
        let cp = critical_path_priorities(&sub, machine);
        let list = list_schedule(&sub, machine, &cp);
        let exact = exact_schedule(&sub, machine, opts.node_limit);
        // Best of the exact/ILS result and the diversified backward
        // search (seeded per segment, fully deterministic). The branch
        // and bound result is never worse than the plain list schedule
        // by construction, so the minimum keeps that guarantee.
        let div = diversified_schedule(&sub, machine, opts.window_trials, SEED_BASE ^ (s as u64));
        let (sched, proved_optimal) = if exact.schedule.makespan <= div.makespan {
            (&exact.schedule, exact.proved_optimal)
        } else {
            (&div, false)
        };

        // Precompute per-job conservative read counts once.
        let job_reads: Vec<u32> = (0..sub.len())
            .map(|j| sub_reads(&sub, sched, machine, j))
            .collect();

        // Aggregate the window's own occupancy per relative cycle. The
        // seam check must compare `prefix + window-cycle-total` against
        // the budgets: two window jobs sharing a cycle (a mul/add
        // co-issue, or writes from different issue cycles retiring
        // together) could each fit beside the prefix individually while
        // their sum busts a port.
        let mut win_issue: HashMap<(UnitKind, u64), usize> = HashMap::new();
        let mut win_reads: HashMap<u64, u32> = HashMap::new();
        let mut win_writes: HashMap<u64, u32> = HashMap::new();
        for j in 0..sub.len() {
            let c = sched.start[j];
            let unit = sub.jobs[j].unit;
            *win_issue.entry((unit, c)).or_default() += 1;
            *win_reads.entry(c).or_default() += job_reads[j];
            *win_writes
                .entry(c + machine.latency(unit) as u64)
                .or_default() += 1;
        }

        // Smallest feasible offset: start from the cross-window
        // dependency bound and grow until the overlap region is clean.
        // `delta = makespan` is always feasible (the prefix issues no
        // job at or after its makespan and retires no write after it),
        // so the search terminates.
        let mut delta = 0u64;
        for (j, job) in problem.jobs[lo..hi].iter().enumerate() {
            for d in job.all_deps() {
                if d < lo {
                    delta = delta.max(finish[d].saturating_sub(sched.start[j]));
                }
            }
        }
        loop {
            let fits = win_issue.iter().all(|(&(unit, c), &k)| {
                issue.get(&(unit, delta + c)).copied().unwrap_or(0) + k <= machine.units(unit)
            }) && win_reads.iter().all(|(&c, &r)| {
                reads.get(&(delta + c)).copied().unwrap_or(0) + r <= machine.read_ports
            }) && win_writes.iter().all(|(&c, &w)| {
                writes.get(&(delta + c)).copied().unwrap_or(0) + w <= machine.write_ports
            });
            if fits {
                break;
            }
            delta += 1;
        }

        // Commit the window at `delta`.
        for (&(unit, c), &k) in &win_issue {
            *issue.entry((unit, delta + c)).or_default() += k;
        }
        for (&c, &r) in &win_reads {
            *reads.entry(delta + c).or_default() += r;
        }
        for (&c, &w) in &win_writes {
            *writes.entry(delta + c).or_default() += w;
        }
        for j in 0..sub.len() {
            let c = delta + sched.start[j];
            let lat = machine.latency(sub.jobs[j].unit) as u64;
            start[lo + j] = c;
            finish[lo + j] = c + lat;
            makespan = makespan.max(c + lat);
        }
        reports.push(SegmentReport {
            jobs: hi - lo,
            offset: delta,
            list_makespan: list.makespan,
            exact_makespan: sched.makespan,
            lower_bound: lower_bound(&sub, machine),
            proved_optimal,
            nodes: exact.nodes,
        });
    }

    let schedule = Schedule { start, makespan };
    debug_assert!(schedule.validate(problem, machine).is_ok());
    StitchedSchedule {
        schedule,
        segments: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule;

    fn mul(deps: Vec<usize>, inputs: usize) -> Job {
        Job {
            unit: UnitKind::Multiplier,
            deps,
            order_deps: vec![],
            input_operands: inputs,
        }
    }
    fn add(deps: Vec<usize>, inputs: usize) -> Job {
        Job {
            unit: UnitKind::AddSub,
            deps,
            order_deps: vec![],
            input_operands: inputs,
        }
    }

    /// A layered DAG with both cross-layer data edges and mux-style
    /// ordering edges, roughly shaped like the digit loop.
    fn loopish_problem(iters: usize) -> Problem {
        let mut jobs = Vec::new();
        for i in 0..iters {
            let base = jobs.len();
            let prev = base.checked_sub(1);
            jobs.push(mul(prev.into_iter().collect(), 1)); // "double"
            jobs.push(mul(vec![base], 0));
            jobs.push(add(vec![base, base + 1], 0));
            jobs.push(Job {
                unit: UnitKind::AddSub,
                deps: vec![base + 2],
                order_deps: if i > 0 { vec![0, 1] } else { vec![] },
                input_operands: 1, // mux read
            });
            jobs.push(mul(vec![base + 3], 1)); // "add"
        }
        Problem::new(jobs)
    }

    #[test]
    fn stitched_is_valid_and_bounded() {
        let p = loopish_problem(12);
        let m = MachineConfig::paper();
        let r = stitched_exact_schedule(&p, &m, &StitchOptions::default());
        r.schedule.validate(&p, &m).unwrap();
        assert!(r.schedule.makespan >= lower_bound(&p, &m));
        // Every window beat (or met) its own list schedule.
        for seg in &r.segments {
            assert!(seg.exact_makespan <= seg.list_makespan);
            assert!(seg.exact_makespan >= seg.lower_bound);
        }
        assert_eq!(r.segments.iter().map(|s| s.jobs).sum::<usize>(), p.len());
    }

    #[test]
    fn single_segment_equals_exact() {
        let p = loopish_problem(3);
        let m = MachineConfig::paper();
        let opts = StitchOptions {
            segments: 1,
            node_limit: 200_000,
            window_trials: 0,
        };
        let r = stitched_exact_schedule(&p, &m, &opts);
        r.schedule.validate(&p, &m).unwrap();
        let e = exact_schedule(&p, &m, 200_000);
        assert_eq!(r.schedule.makespan, e.schedule.makespan);
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.segments[0].offset, 0);
    }

    #[test]
    fn windows_overlap_when_the_seam_has_room() {
        // Independent mul chains: windows can slide fully into each
        // other's pipeline shadow, so the stitched makespan must be far
        // below the sum of the window makespans.
        let jobs: Vec<Job> = (0..40).map(|_| mul(vec![], 1)).collect();
        let p = Problem::new(jobs);
        let m = MachineConfig::paper();
        let opts = StitchOptions {
            segments: 4,
            node_limit: 10_000,
            window_trials: 8,
        };
        let r = stitched_exact_schedule(&p, &m, &opts);
        r.schedule.validate(&p, &m).unwrap();
        let sum: u64 = r.segments.iter().map(|s| s.exact_makespan).sum();
        assert!(
            r.schedule.makespan < sum,
            "no overlap at the seams: {} vs {}",
            r.schedule.makespan,
            sum
        );
    }

    #[test]
    fn stitched_never_beats_the_lower_bound_and_rarely_loses_to_ils() {
        let p = loopish_problem(20);
        let m = MachineConfig::paper();
        let r = stitched_exact_schedule(
            &p,
            &m,
            &StitchOptions {
                segments: 5,
                node_limit: 20_000,
                window_trials: 16,
            },
        );
        r.schedule.validate(&p, &m).unwrap();
        let lb = lower_bound(&p, &m);
        assert!(r.schedule.makespan >= lb);
        // Not a hard guarantee in general, but on this pipelined shape
        // the decomposition must stay within 2x of the global heuristic.
        let ils = schedule(&p, &m, 16);
        assert!(r.schedule.makespan <= ils.makespan * 2);
    }

    #[test]
    fn empty_problem() {
        let p = Problem::new(vec![]);
        let m = MachineConfig::paper();
        let r = stitched_exact_schedule(&p, &m, &StitchOptions::default());
        assert_eq!(r.schedule.makespan, 0);
        assert!(r.segments.is_empty());
        let d = diversified_schedule(&p, &m, 8, 1);
        assert_eq!(d.makespan, 0);
    }

    #[test]
    fn diversified_is_deterministic_and_never_worse_than_list() {
        let p = loopish_problem(10);
        let m = MachineConfig::paper();
        let cp = critical_path_priorities(&p, &m);
        let plain = list_schedule(&p, &m, &cp);
        let a = diversified_schedule(&p, &m, 24, 42);
        let b = diversified_schedule(&p, &m, 24, 42);
        a.validate(&p, &m).unwrap();
        assert_eq!(a, b, "same (trials, seed) must reproduce bit-identically");
        assert!(a.makespan <= plain.makespan);
        assert!(a.makespan >= lower_bound(&p, &m));
    }

    #[test]
    fn cross_window_read_costs_are_charged() {
        // Two windows of adds whose second window reads 2 values from
        // the first: the sub-problem must charge those as register
        // reads, and the combined schedule must stay port-feasible.
        let mut jobs = vec![add(vec![], 2), add(vec![], 2)];
        jobs.push(add(vec![0, 1], 0));
        jobs.push(add(vec![0, 1], 0));
        let p = Problem::new(jobs);
        let mut m = MachineConfig::paper();
        m.read_ports = 2;
        let r = stitched_exact_schedule(
            &p,
            &m,
            &StitchOptions {
                segments: 2,
                node_limit: 10_000,
                window_trials: 4,
            },
        );
        r.schedule.validate(&p, &m).unwrap();
    }

    #[test]
    fn seam_check_sums_co_issued_window_jobs() {
        // Every window holds an independent mul/add pair that co-issues
        // in the window-local schedule, so each overlap cycle carries
        // the *sum* of both jobs' reads and both retiring writes — a
        // per-job seam check would under-count exactly here. Sweep
        // tight port budgets and segment counts; validate() recomputes
        // combined per-cycle usage from scratch and must stay clean.
        let mut jobs = Vec::new();
        for _ in 0..8 {
            jobs.push(mul(vec![], 2));
            jobs.push(add(vec![], 2));
        }
        let p = Problem::new(jobs);
        for read_ports in [2, 3, 4] {
            for write_ports in [1, 2] {
                for segments in [2, 4, 8] {
                    let mut m = MachineConfig::paper();
                    m.read_ports = read_ports;
                    m.write_ports = write_ports;
                    let r = stitched_exact_schedule(
                        &p,
                        &m,
                        &StitchOptions {
                            segments,
                            node_limit: 5_000,
                            window_trials: 2,
                        },
                    );
                    r.schedule.validate(&p, &m).unwrap_or_else(|e| {
                        panic!("invalid stitch at r{read_ports}/w{write_ports}/s{segments}: {e:?}")
                    });
                }
            }
        }
    }
}
