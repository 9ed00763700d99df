//! Cycle-accurate simulation of the FourQ ASIC cryptoprocessor and the
//! compile-once/execute-many kernel pipeline built on top of it.
//!
//! The paper's processor (Fig. 1(a)) is a register file with four read and
//! two write ports, a pipelined Karatsuba `F_p²` multiplier, an `F_p²`
//! adder/subtractor, forwarding paths, and an FSM + program-ROM controller
//! that plays back the statically scheduled microcode. This crate executes
//! a recorded [`fourq_trace::Trace`] under a [`fourq_sched::Schedule`] on
//! that machine model, cycle by cycle, producing:
//!
//! * the functional outputs (cross-checked against the software library —
//!   the simulator refuses schedules that would read a result before the
//!   pipeline produced it);
//! * the exact cycle count (the quantity the paper converts to latency and
//!   energy via the technology model);
//! * occupancy and register-file statistics, including the register
//!   pressure the schedule implies (how large the register file must be).
//!
//! Because the recorded scalar multiplication is *uniform* — every
//! secret-dependent choice is an operand mux driven by the recoded digit
//! stream — the expensive trace/schedule/allocate/assemble work happens
//! **once** per machine shape. [`CompiledKernel`] captures that artifact
//! and [`CompiledKernel::execute`] replays the fixed microcode for any
//! (base, scalar) pair; [`shared_kernel`] caches one kernel per
//! (curve, machine) process-wide.
//!
//! # Example
//!
//! ```
//! use fourq_cpu::shared_kernel;
//! use fourq_curve::{AffinePoint, CurveId};
//! use fourq_fp::Scalar;
//! use fourq_sched::MachineConfig;
//!
//! let kernel = shared_kernel(CurveId::FourQ, &MachineConfig::paper())?;
//! assert!(kernel.fingerprint.cycles > 0);
//! // The datapath computes the same point the software library computes.
//! let (g, k) = (AffinePoint::generator(), Scalar::from_u64(12345));
//! assert_eq!(kernel.execute(&g, &k)?, g.mul(&k));
//! # Ok::<(), fourq_cpu::PipelineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod kernel;
mod regalloc;

pub use check::{verify, CheckLevel, GapMetrics, KernelDiag, VerifyReport};
pub use kernel::{
    compile_curve, compile_curve_stitched, shared_kernel, CompiledKernel, KernelFingerprint,
    PipelineError, StitchedKernel, DEFAULT_REGISTER_BUDGET,
};
pub use regalloc::{allocate, Allocation, AssembleError, ControlRom, ControlWord, RomRoute, Src};

use fourq_sched::{MachineConfig, Schedule, UnitKind};
use fourq_trace::{OpKind, Operand, Trace, Word};
use std::collections::HashMap;
use std::fmt;

/// Statistics gathered during simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Operations issued on the multiplier.
    pub mul_issued: u64,
    /// Operations issued on the adder/subtractor.
    pub addsub_issued: u64,
    /// Register-file reads performed.
    pub rf_reads: u64,
    /// Register-file writes performed.
    pub rf_writes: u64,
    /// Operands delivered through the forwarding paths.
    pub forwarded: u64,
    /// Multiplier issue-slot utilisation over the whole run (0..1).
    pub mul_utilization: f64,
    /// Adder/subtractor utilisation (0..1).
    pub addsub_utilization: f64,
    /// Peak number of simultaneously live values (required register-file
    /// capacity, in `F_p²` words).
    pub register_pressure: usize,
}

/// Outcome of a successful simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Total cycles (schedule makespan, i.e. last write-back).
    pub cycles: u64,
    /// Named outputs with their computed values (`F_p²` or base-field
    /// words, per the trace's curve).
    pub outputs: Vec<(String, Word)>,
    /// Machine statistics.
    pub stats: SimStats,
}

/// Simulation failures (all indicate an invalid schedule or trace/schedule
/// mismatch — the simulator is also a dynamic schedule verifier).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A scheduled operation would read a value the pipeline has not
    /// produced yet (for mux-routed operands: *any* candidate the select
    /// lines could pick).
    OperandNotReady {
        /// Index of the consuming operation.
        op: usize,
        /// Cycle at which the read was attempted.
        cycle: u64,
    },
    /// Schedule and trace sizes differ.
    LengthMismatch,
    /// A unit received two issues in one cycle (II = 1 violated).
    IssueConflict {
        /// The oversubscribed unit.
        unit: UnitKind,
        /// The conflicting cycle.
        cycle: u64,
    },
    /// A binary operation is missing its second operand —
    /// [`fourq_trace::Trace::validate`] catches this statically.
    MalformedTrace {
        /// Index of the malformed operation.
        op: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OperandNotReady { op, cycle } => {
                write!(
                    f,
                    "operation {op} reads an unavailable operand at cycle {cycle}"
                )
            }
            SimError::LengthMismatch => write!(f, "schedule length does not match trace"),
            SimError::IssueConflict { unit, cycle } => {
                write!(f, "unit {unit:?} double-issued at cycle {cycle}")
            }
            SimError::MalformedTrace { op } => {
                write!(f, "operation {op} is missing its second operand")
            }
        }
    }
}
impl std::error::Error for SimError {}

/// Executes `trace` under `sched` on the machine model, cycle-accurately.
///
/// Mux-routed operands are resolved under the trace's recorded digit
/// stream, but readiness is enforced for *every* candidate the select
/// lines could pick — the schedule must be valid whatever the digits say
/// — and the routed value always arrives through the register file
/// (forwarding a mux operand would only be correct for one digit value).
///
/// # Errors
///
/// Returns a [`SimError`] if the schedule is malformed (reads data too
/// early, double-issues a unit, or has the wrong length). A schedule that
/// passed [`fourq_sched::Schedule::validate`] never fails here.
pub fn simulate(
    trace: &Trace,
    sched: &Schedule,
    machine: &MachineConfig,
) -> Result<SimResult, SimError> {
    let n = trace.nodes.len();
    if sched.start.len() != n {
        return Err(SimError::LengthMismatch);
    }
    let base = trace.first_op_id();
    let reach = trace.mux_reach();

    // Execution order: by issue cycle (ties: any order works because
    // dependencies always finish strictly before or at issue).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (sched.start[i], i));

    let latency = |i: usize| -> u64 {
        match trace.nodes[i].kind.unit() {
            fourq_trace::Unit::Multiplier => machine.mul_latency as u64,
            fourq_trace::Unit::AddSub => machine.addsub_latency as u64,
        }
    };

    // avail[id] = cycle at which the value can first be read (inputs: 0).
    let mut avail = vec![0u64; base + n];
    let mut values: Vec<Word> = trace.inputs.iter().map(|(_, v)| *v).collect();
    values.resize(base + n, trace.zero_word());

    let mut stats = SimStats::default();
    let mut issue_guard: HashMap<(UnitKind, u64), usize> = HashMap::new();

    for &i in &order {
        let node = &trace.nodes[i];
        let cycle = sched.start[i];
        let unit = match node.kind.unit() {
            fourq_trace::Unit::Multiplier => UnitKind::Multiplier,
            fourq_trace::Unit::AddSub => UnitKind::AddSub,
        };
        let slot = issue_guard.entry((unit, cycle)).or_default();
        *slot += 1;
        let max_units = match unit {
            UnitKind::Multiplier => machine.mul_units,
            UnitKind::AddSub => machine.addsub_units,
        };
        if *slot > max_units {
            return Err(SimError::IssueConflict { unit, cycle });
        }

        let fetch = |op: Operand, stats: &mut SimStats| -> Result<Word, SimError> {
            match op {
                Operand::Val(id) if id >= base => {
                    // produced by an operation
                    let ready = avail[id];
                    if ready > cycle {
                        return Err(SimError::OperandNotReady { op: i, cycle });
                    }
                    if machine.forwarding && ready == cycle {
                        stats.forwarded += 1;
                    } else {
                        stats.rf_reads += 1;
                    }
                    Ok(values[id])
                }
                Operand::Val(id) => {
                    stats.rf_reads += 1;
                    Ok(values[id])
                }
                Operand::Mux(m) => {
                    let ready = reach[m].iter().map(|&id| avail[id]).max().unwrap_or(0);
                    if ready > cycle {
                        return Err(SimError::OperandNotReady { op: i, cycle });
                    }
                    // the digit-selected winner always comes from the RF
                    stats.rf_reads += 1;
                    Ok(values[trace.resolve(op, &trace.digits)])
                }
            }
        };

        let a = fetch(node.a, &mut stats)?;
        let b = match (node.kind, node.b) {
            (OpKind::Mul | OpKind::Add | OpKind::Sub, Some(op)) => Some(fetch(op, &mut stats)?),
            (OpKind::Mul | OpKind::Add | OpKind::Sub, None) => {
                return Err(SimError::MalformedTrace { op: i });
            }
            _ => None,
        };
        let result = Word::eval(node.kind, a, b);
        match unit {
            UnitKind::Multiplier => stats.mul_issued += 1,
            UnitKind::AddSub => stats.addsub_issued += 1,
        }
        let id = base + i;
        values[id] = result;
        avail[id] = cycle + latency(i);
        stats.rf_writes += 1;
    }

    let cycles = sched.makespan;
    if cycles > 0 {
        stats.mul_utilization =
            stats.mul_issued as f64 / (cycles as f64 * machine.mul_units as f64);
        stats.addsub_utilization =
            stats.addsub_issued as f64 / (cycles as f64 * machine.addsub_units as f64);
    }
    stats.register_pressure = register_pressure(trace, sched, machine);

    let outputs = trace
        .outputs
        .iter()
        .map(|(name, id)| (name.clone(), values[*id]))
        .collect();
    Ok(SimResult {
        cycles,
        outputs,
        stats,
    })
}

/// Peak number of simultaneously live `F_p²` values under a schedule: the
/// size the register file must have. A value is live from the cycle it is
/// produced until the last cycle it is read (program outputs stay live to
/// the end; program inputs are live from cycle 0). Every candidate of a
/// mux-routed operand counts as read at the consumer's issue cycle.
pub fn register_pressure(trace: &Trace, sched: &Schedule, machine: &MachineConfig) -> usize {
    let base = trace.first_op_id();
    let n = trace.nodes.len();
    let total = base + n;
    let reach = trace.mux_reach();
    let latency = |i: usize| -> u64 {
        match trace.nodes[i].kind.unit() {
            fourq_trace::Unit::Multiplier => machine.mul_latency as u64,
            fourq_trace::Unit::AddSub => machine.addsub_latency as u64,
        }
    };
    let mut born = vec![0u64; total];
    let mut dies = vec![0u64; total];
    for i in 0..n {
        born[base + i] = sched.start[i] + latency(i);
    }
    for (i, node) in trace.nodes.iter().enumerate() {
        let use_cycle = sched.start[i];
        for op in core::iter::once(node.a).chain(node.b) {
            match op {
                Operand::Val(id) => dies[id] = dies[id].max(use_cycle),
                Operand::Mux(m) => {
                    for &id in &reach[m] {
                        dies[id] = dies[id].max(use_cycle);
                    }
                }
            }
        }
    }
    for (_, id) in &trace.outputs {
        dies[*id] = dies[*id].max(sched.makespan);
    }
    // sweep
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(2 * total);
    for id in 0..total {
        if dies[id] < born[id] {
            continue; // dead value (never read): occupies a write slot only
        }
        events.push((born[id], 1));
        events.push((dies[id] + 1, -1));
    }
    events.sort_unstable();
    let mut live = 0i64;
    let mut peak = 0i64;
    for (_, delta) in events {
        live += delta;
        peak = peak.max(live);
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourq_curve::CurveId;
    use fourq_fp::Scalar;
    use fourq_sched::{lower_bound, schedule, trace_to_problem};

    #[test]
    fn loop_iteration_simulates_and_checks() {
        let t = fourq_trace::trace_double_add_iteration();
        let p = trace_to_problem(&t);
        let m = MachineConfig::paper();
        let s = schedule(&p, &m, 32);
        s.validate(&p, &m).unwrap();
        let r = simulate(&t, &s, &m).unwrap();
        // Functional equality with the recorded values.
        for (name, v) in &r.outputs {
            let id = t.outputs.iter().find(|(n, _)| n == name).unwrap().1;
            assert_eq!(*v, t.values[id]);
        }
        // The paper schedules the iteration in ~25 cycles on this machine.
        assert!(r.cycles >= lower_bound(&p, &m));
        assert!(r.cycles <= 40, "loop body took {} cycles", r.cycles);
    }

    #[test]
    fn bad_schedule_rejected_dynamically() {
        let t = fourq_trace::trace_double_add_iteration();
        let p = trace_to_problem(&t);
        let m = MachineConfig::paper();
        let mut s = schedule(&p, &m, 0);
        // Pull the last op to cycle 0 — operands can't be ready.
        let last = s.start.len() - 1;
        s.start[last] = 0;
        assert!(matches!(
            simulate(&t, &s, &m),
            Err(SimError::OperandNotReady { .. }) | Err(SimError::IssueConflict { .. })
        ));
    }

    #[test]
    fn uniform_trace_simulates_for_any_digits() {
        // The same uniform program simulates correctly under two
        // different recorded scalars (the trace carries its own digits).
        let m = MachineConfig::paper();
        for k in [Scalar::from_u64(3), Scalar::from_le_bytes(&[0xa5; 32])] {
            let rec = fourq_trace::trace_scalar_mul(&k);
            let p = trace_to_problem(&rec.trace);
            let s = schedule(&p, &m, 0);
            let r = simulate(&rec.trace, &s, &m).unwrap();
            assert_eq!(r.outputs[0].1.as_fp2(), rec.expected.x);
            assert_eq!(r.outputs[1].1.as_fp2(), rec.expected.y);
        }
    }

    #[test]
    fn wider_machine_is_not_slower() {
        let cycles = |m: &MachineConfig| {
            shared_kernel(CurveId::FourQ, m)
                .expect("compiles")
                .fingerprint
                .cycles
        };
        let m1 = MachineConfig::paper();
        let mut m2 = m1;
        m2.mul_units = 2;
        m2.read_ports = 8;
        m2.write_ports = 4;
        assert!(cycles(&m2) <= cycles(&m1));
    }

    #[test]
    fn utilization_bounded() {
        let m = MachineConfig::paper();
        let stats = shared_kernel(CurveId::FourQ, &m).expect("compiles").stats;
        assert!(stats.mul_utilization <= 1.0);
        assert!(stats.addsub_utilization <= 1.0);
        assert!(stats.mul_utilization > 0.3);
    }
}
