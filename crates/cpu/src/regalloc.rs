//! Register allocation and control-signal generation — the paper's
//! §III-C step 4.
//!
//! The trace is in SSA form (one virtual value per operation); the real
//! chip has a finite register file. [`allocate`] maps virtual values to
//! physical registers by linear scan over the schedule's lifetimes, and
//! [`ControlRom::assemble`] packs each cycle's control signals (issue
//! enables, source/destination register addresses, opcodes) into the
//! program-ROM words the FSM sequencer plays back. [`simulate_allocated`]
//! re-executes the program *through the physical register file*, which
//! catches any allocation bug (a clobbered live value produces a wrong
//! output and fails the cross-check).
//!
//! With the uniform trace model, an operand may be a [`Operand::Mux`]
//! route: the register address is then not a constant in the ROM word but
//! comes out of a small route table indexed by the recoded digits (the
//! select network of the paper's architecture). The allocator must keep
//! *every* candidate of such a route alive until the consuming read —
//! whichever one the digits pick at runtime must still be in its
//! register.

use crate::SimError;
use fourq_sched::{MachineConfig, Schedule};
use fourq_trace::{OpKind, Operand, Selector, Trace, Unit, Word};

/// A virtual-to-physical register mapping.
#[derive(Clone, Debug)]
pub struct Allocation {
    /// Physical register of each value id (inputs then operations).
    pub assignment: Vec<u16>,
    /// Number of physical registers used.
    pub num_registers: usize,
}

/// Allocates physical registers for a scheduled trace by linear scan.
///
/// A value occupies its register from the cycle it is written
/// (`issue + latency`; inputs from cycle 0) until the last cycle it is
/// read; program outputs are pinned until the end. Every candidate of a
/// mux-routed operand counts as read at the consumer's issue cycle — the
/// schedule is digit-independent, so all candidates must survive to the
/// read. A freed register is reusable from the *following* cycle (the
/// register file writes at the end of a cycle, after that cycle's reads).
///
/// # Panics
///
/// Panics if `sched` does not belong to `trace`.
pub fn allocate(trace: &Trace, sched: &Schedule, machine: &MachineConfig) -> Allocation {
    let base = trace.first_op_id();
    let n = trace.nodes.len();
    assert_eq!(sched.start.len(), n, "schedule/trace mismatch");
    let total = base + n;
    let reach = trace.mux_reach();

    let latency = |i: usize| -> u64 {
        match trace.nodes[i].kind.unit() {
            Unit::Multiplier => machine.mul_latency as u64,
            Unit::AddSub => machine.addsub_latency as u64,
        }
    };

    // Lifetimes.
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

    // Linear scan in birth order.
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by_key(|&v| (born[v], v));
    let mut assignment = vec![u16::MAX; total];
    // (free_from_cycle, reg) min-heap via sorted Vec; registers created on
    // demand.
    let mut free: Vec<(u64, u16)> = Vec::new();
    let mut num_registers: usize = 0;
    for &v in &order {
        if dies[v] < born[v] {
            // value never read (dead write): still needs a destination
            // register at write time; give it any register free then and
            // release immediately.
        }
        // find a register free at `born[v]`
        let mut chosen: Option<usize> = None;
        for (idx, &(from, _)) in free.iter().enumerate() {
            if from <= born[v] {
                chosen = Some(idx);
                break;
            }
        }
        let reg = match chosen {
            Some(idx) => free.remove(idx).1,
            None => {
                let r = num_registers as u16;
                num_registers += 1;
                r
            }
        };
        assignment[v] = reg;
        let release = dies[v].max(born[v]) + 1;
        // keep the free list sorted by availability
        let pos = free.partition_point(|&(f, _)| f <= release);
        free.insert(pos, (release, reg));
    }
    Allocation {
        assignment,
        num_registers,
    }
}

/// A source-operand address in a control word: either a fixed register or
/// an entry of the route table (the digit-driven select network picks the
/// actual register at runtime).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// A fixed physical register address.
    Reg(u16),
    /// Index into [`ControlRom::routes`].
    Route(u16),
}

impl Default for Src {
    fn default() -> Src {
        Src::Reg(0)
    }
}

/// One entry of the ROM's route table: a selector plus the candidate
/// sources it chooses among (candidates may chain to earlier routes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RomRoute {
    /// What drives the select lines.
    pub sel: Selector,
    /// Candidate sources, `sel.arity()` of them.
    pub cands: Vec<Src>,
}

/// One decoded control word (one clock cycle of the sequencer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControlWord {
    /// Multiplier issue enable.
    pub mul_valid: bool,
    /// Multiplier is squaring (reads only `mul_a`).
    pub mul_sqr: bool,
    /// Multiplier source operand.
    pub mul_a: Src,
    /// Second multiplier source.
    pub mul_b: Src,
    /// Multiplier destination register (written `mul_latency` later).
    pub mul_dst: u16,
    /// Adder/subtractor issue enable.
    pub add_valid: bool,
    /// Adder opcode: 0 add, 1 sub, 2 neg, 3 conj.
    pub add_op: u8,
    /// Adder source operand.
    pub add_a: Src,
    /// Second adder source.
    pub add_b: Src,
    /// Adder destination register.
    pub add_dst: u16,
}

/// The assembled program ROM: one control word per cycle plus the route
/// table that resolves digit-selected sources.
#[derive(Clone, Debug)]
pub struct ControlRom {
    /// Decoded control words, indexed by cycle.
    pub words: Vec<ControlWord>,
    /// The route table shared by all words (one entry per trace mux).
    pub routes: Vec<RomRoute>,
    /// Register-address width in bits.
    pub addr_bits: u32,
    /// Route-index width in bits.
    pub route_bits: u32,
}

/// Errors while assembling the control ROM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssembleError {
    /// Two multiplier (or two adder) issues landed on the same cycle —
    /// the single-sequencer encoding has one slot per unit per cycle.
    SlotConflict {
        /// The conflicting cycle.
        cycle: u64,
        /// The unit with two issues.
        unit: Unit,
    },
}

impl core::fmt::Display for AssembleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AssembleError::SlotConflict { cycle, unit } => {
                write!(f, "two {unit:?} issues at cycle {cycle}")
            }
        }
    }
}
impl std::error::Error for AssembleError {}

impl ControlRom {
    /// Packs the scheduled, register-allocated program into per-cycle
    /// control words (the artifact the paper's flow stores in the program
    /// ROM) plus the route table driven by the recoded digits.
    ///
    /// # Errors
    ///
    /// [`AssembleError::SlotConflict`] if the machine has more than one
    /// unit instance of a kind (this encoding covers the paper's
    /// single-multiplier configuration).
    pub fn assemble(
        trace: &Trace,
        sched: &Schedule,
        alloc: &Allocation,
    ) -> Result<ControlRom, AssembleError> {
        let base = trace.first_op_id();
        let src = |op: Operand| -> Src {
            match op {
                Operand::Val(id) => Src::Reg(alloc.assignment[id]),
                Operand::Mux(m) => Src::Route(m as u16),
            }
        };
        let routes: Vec<RomRoute> = trace
            .muxes
            .iter()
            .map(|mx| RomRoute {
                sel: mx.sel,
                cands: mx.cands.iter().map(|&c| src(c)).collect(),
            })
            .collect();
        let mut words = vec![ControlWord::default(); sched.makespan as usize + 1];
        for (i, node) in trace.nodes.iter().enumerate() {
            let cycle = sched.start[i] as usize;
            let w = &mut words[cycle];
            let dst = alloc.assignment[base + i];
            let a = src(node.a);
            let b = node.b.map(src).unwrap_or_default();
            match node.kind.unit() {
                Unit::Multiplier => {
                    if w.mul_valid {
                        return Err(AssembleError::SlotConflict {
                            cycle: cycle as u64,
                            unit: Unit::Multiplier,
                        });
                    }
                    w.mul_valid = true;
                    w.mul_sqr = node.kind == OpKind::Sqr;
                    w.mul_a = a;
                    w.mul_b = if w.mul_sqr { a } else { b };
                    w.mul_dst = dst;
                }
                Unit::AddSub => {
                    if w.add_valid {
                        return Err(AssembleError::SlotConflict {
                            cycle: cycle as u64,
                            unit: Unit::AddSub,
                        });
                    }
                    w.add_valid = true;
                    w.add_op = match node.kind {
                        OpKind::Add => 0,
                        OpKind::Sub => 1,
                        OpKind::Neg => 2,
                        OpKind::Conj => 3,
                        _ => unreachable!("mul ops handled above"),
                    };
                    w.add_a = a;
                    w.add_b = b;
                    w.add_dst = dst;
                }
            }
        }
        let width = |n: usize| (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1);
        let addr_bits = width(alloc.num_registers);
        let route_bits = width(routes.len());
        Ok(ControlRom {
            words,
            routes,
            addr_bits,
            route_bits,
        })
    }

    /// Bits per encoded source: one tag bit (register vs route) plus the
    /// wider of the two address spaces.
    pub fn src_bits(&self) -> u32 {
        1 + self.addr_bits.max(self.route_bits)
    }

    /// Bits per control word: 5 flag/opcode bits, two destination
    /// register addresses and four tagged sources.
    pub fn word_bits(&self) -> u32 {
        5 + 2 * self.addr_bits + 4 * self.src_bits()
    }

    /// Bit-packs a control word into a 64-bit ROM word
    /// (demonstrates the physical encoding; width must fit).
    pub fn encode_word(&self, w: &ControlWord) -> u64 {
        let ab = self.addr_bits;
        let sb = self.src_bits();
        let mut v: u64 = 0;
        let push = |val: u64, bits: u32, v: &mut u64| {
            *v = (*v << bits) | (val & ((1 << bits) - 1));
        };
        let push_src = |s: Src, v: &mut u64| {
            let (tag, val) = match s {
                Src::Reg(r) => (0u64, r as u64),
                Src::Route(r) => (1u64, r as u64),
            };
            push(tag, 1, v);
            push(val, sb - 1, v);
        };
        push(w.mul_valid as u64, 1, &mut v);
        push(w.mul_sqr as u64, 1, &mut v);
        push_src(w.mul_a, &mut v);
        push_src(w.mul_b, &mut v);
        push(w.mul_dst as u64, ab, &mut v);
        push(w.add_valid as u64, 1, &mut v);
        push(w.add_op as u64, 2, &mut v);
        push_src(w.add_a, &mut v);
        push_src(w.add_b, &mut v);
        push(w.add_dst as u64, ab, &mut v);
        v
    }

    /// Total ROM size in bits: the per-cycle words plus the route table
    /// (each entry: an 8-bit selector descriptor and its tagged candidate
    /// sources).
    pub fn size_bits(&self) -> usize {
        let words = self.words.len() * self.word_bits() as usize;
        let routes: usize = self
            .routes
            .iter()
            .map(|r| 8 + r.cands.len() * (1 + self.src_bits() as usize))
            .sum();
        words + routes
    }
}

/// Executes the register-allocated program through a *physical* register
/// file, cycle by cycle, and returns the named outputs.
///
/// Mux-routed operands are resolved under the trace's own recorded digit
/// stream (the representative execution). Unlike [`crate::simulate`],
/// values here live in shared physical registers: if the allocator
/// clobbered a live value, the outputs come out wrong — making this the
/// independent verifier of [`allocate`].
///
/// # Errors
///
/// [`SimError::LengthMismatch`] if the schedule does not belong to the
/// trace; [`SimError::MalformedTrace`] if a binary operation is missing
/// its second operand.
pub fn simulate_allocated(
    trace: &Trace,
    sched: &Schedule,
    alloc: &Allocation,
    machine: &MachineConfig,
) -> Result<Vec<(String, Word)>, SimError> {
    let base = trace.first_op_id();
    let n = trace.nodes.len();
    if sched.start.len() != n {
        return Err(SimError::LengthMismatch);
    }
    let latency = |i: usize| -> u64 {
        match trace.nodes[i].kind.unit() {
            Unit::Multiplier => machine.mul_latency as u64,
            Unit::AddSub => machine.addsub_latency as u64,
        }
    };

    let mut rf = vec![trace.zero_word(); alloc.num_registers];
    for (id, (_, v)) in trace.inputs.iter().enumerate() {
        rf[alloc.assignment[id] as usize] = *v;
    }

    // Issue order by cycle; writes land at issue+latency. We process
    // cycle by cycle: first perform this cycle's writebacks (results that
    // finish now... but forwarding means a result finishing at cycle c is
    // readable at c), so: apply writebacks for finish == c, then reads.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (sched.start[i], i));
    // pending writebacks: (finish_cycle, reg, value)
    let mut pending: Vec<(u64, u16, Word)> = Vec::new();
    let mut oi = 0usize;
    for cycle in 0..=sched.makespan {
        // retire results that finish at this cycle (readable this cycle).
        pending.retain(|&(f, reg, v)| {
            if f == cycle {
                rf[reg as usize] = v;
                false
            } else {
                true
            }
        });
        // issue
        while oi < n && sched.start[order[oi]] == cycle {
            let i = order[oi];
            oi += 1;
            let node = &trace.nodes[i];
            let fetch = |op: Operand| -> Word {
                rf[alloc.assignment[trace.resolve(op, &trace.digits)] as usize]
            };
            let a = fetch(node.a);
            let b = match (node.kind, node.b) {
                (OpKind::Mul | OpKind::Add | OpKind::Sub, Some(op)) => Some(fetch(op)),
                (OpKind::Mul | OpKind::Add | OpKind::Sub, None) => {
                    return Err(SimError::MalformedTrace { op: i });
                }
                _ => None,
            };
            let result = Word::eval(node.kind, a, b);
            pending.push((cycle + latency(i), alloc.assignment[base + i], result));
        }
    }
    debug_assert!(pending.is_empty(), "all results must retire by makespan");
    Ok(trace
        .outputs
        .iter()
        .map(|(name, id)| (name.clone(), rf[alloc.assignment[*id] as usize]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourq_sched::{schedule, trace_to_problem};

    fn pipeline(trace: &Trace, machine: &MachineConfig) -> (Schedule, Allocation) {
        let problem = trace_to_problem(trace);
        let s = schedule(&problem, machine, 16);
        s.validate(&problem, machine).expect("valid");
        let a = allocate(trace, &s, machine);
        (s, a)
    }

    #[test]
    fn loop_body_allocates_and_executes() {
        let t = fourq_trace::trace_double_add_iteration();
        let m = MachineConfig::paper();
        let (s, a) = pipeline(&t, &m);
        // every value has a register
        assert!(a.assignment.iter().all(|&r| r != u16::MAX));
        let outs = simulate_allocated(&t, &s, &a, &m).expect("executes");
        for (name, v) in outs {
            let id = t.outputs.iter().find(|(n, _)| *n == name).unwrap().1;
            assert_eq!(v, t.values[id], "output {name}");
        }
        // register count bounded by (and near) the SSA register pressure
        let pressure = crate::register_pressure(&t, &s, &m);
        assert!(a.num_registers >= pressure);
        assert!(a.num_registers <= pressure + 8);
    }

    #[test]
    fn full_scalar_mul_on_physical_registers() {
        let rec = fourq_trace::trace_scalar_mul(&fourq_fp::Scalar::from_u64(0xfeed_5eed_0bad_cafd));
        let m = MachineConfig::paper();
        let (s, a) = pipeline(&rec.trace, &m);
        let outs = simulate_allocated(&rec.trace, &s, &a, &m).expect("executes");
        assert_eq!(outs[0].1.as_fp2(), rec.expected.x);
        assert_eq!(outs[1].1.as_fp2(), rec.expected.y);
        // A realistic register file (paper's has 4R/2W ports; capacity is
        // set by allocation). The uniform program pins the full 8-entry
        // table, so the budget is wider than a per-scalar schedule's.
        assert!(
            a.num_registers <= 128,
            "register file of {} words is implausible",
            a.num_registers
        );
    }

    #[test]
    fn control_rom_assembles_and_encodes() {
        let t = fourq_trace::trace_double_add_iteration();
        let m = MachineConfig::paper();
        let (s, a) = pipeline(&t, &m);
        let rom = ControlRom::assemble(&t, &s, &a).expect("assembles");
        assert_eq!(rom.words.len() as u64, s.makespan + 1);
        // every issued op appears exactly once
        let issues: usize = rom
            .words
            .iter()
            .map(|w| w.mul_valid as usize + w.add_valid as usize)
            .sum();
        assert_eq!(issues, t.nodes.len());
        // encoding fits 64 bits
        assert!(rom.word_bits() <= 64);
        let _ = rom.encode_word(&rom.words[0]);
        assert!(rom.size_bits() > 0);
    }

    #[test]
    fn uniform_scalar_mul_rom_carries_routes() {
        let rec = fourq_trace::trace_scalar_mul(&fourq_fp::Scalar::from_u64(13));
        let m = MachineConfig::paper();
        let (s, a) = pipeline(&rec.trace, &m);
        let rom = ControlRom::assemble(&rec.trace, &s, &a).expect("assembles");
        // one route per trace mux; digit-selected sources appear in words
        assert_eq!(rom.routes.len(), rec.trace.muxes.len());
        assert!(rom.routes.len() > 400, "uniform trace routes every digit");
        let routed = rom
            .words
            .iter()
            .flat_map(|w| [w.mul_a, w.mul_b, w.add_a, w.add_b])
            .filter(|s| matches!(s, Src::Route(_)))
            .count();
        assert!(routed > 0);
        assert!(rom.word_bits() <= 64);
        let _ = rom.encode_word(&rom.words[0]);
    }

    #[test]
    fn clobber_detection_would_fail() {
        // Force a bogus allocation (everything in one register) and check
        // the physical simulation detects it by producing wrong outputs.
        let t = fourq_trace::trace_double_add_iteration();
        let m = MachineConfig::paper();
        let problem = trace_to_problem(&t);
        let s = schedule(&problem, &m, 4);
        let bogus = Allocation {
            assignment: vec![0; t.first_op_id() + t.nodes.len()],
            num_registers: 1,
        };
        let outs = simulate_allocated(&t, &s, &bogus, &m).expect("runs");
        let mismatch = outs.iter().any(|(name, v)| {
            let id = t.outputs.iter().find(|(n, _)| n == name).unwrap().1;
            *v != t.values[id]
        });
        assert!(mismatch, "one-register allocation cannot be correct");
    }
}
