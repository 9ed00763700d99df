//! Static microcode verifier — the analysis core behind
//! `fourq-kernelcheck`.
//!
//! [`verify`] runs over a finished [`CompiledKernel`] and proves three
//! structural properties of the artifact, with typed diagnostics
//! ([`KernelDiag`]) instead of panics:
//!
//! 1. **Data-obliviousness** (`K-OBLIV-*`): digit-dependent selection is
//!    confined to the sanctioned select network. Every route index in a
//!    control word stays inside the route table, route chains only point
//!    backwards, selector digit positions are covered by the digit
//!    stream, and every candidate a digit could pick is finished before
//!    the consuming read issues — so opcodes, destination registers,
//!    issue cycles and register-file traffic are compile-time constants,
//!    whatever the scalar. The digit-taint fixpoint (reported in
//!    [`GapMetrics::tainted_values`]) is the microcode analogue of
//!    ctlint's R1/R3: taint may flow through *values*, never into the
//!    control stream.
//! 2. **Dataflow soundness** (`K-FLOW-*`): def-before-use under the
//!    latency model, single writer per (cycle, register), port and
//!    issue-slot budgets, no physical-register clobber of a live value,
//!    and (at [`CheckLevel::Full`]) bit-exact agreement of the shipped
//!    ROM and allocation with a canonical re-derivation — the static
//!    counterpart of replaying the kernel through its physical registers
//!    ([`CompiledKernel::execute`]).
//! 3. **Resource honesty** (`K-RES-*`): the fingerprint's cycle count,
//!    lower bound, register pressure and ROM geometry are recomputed
//!    here from scratch (independent code path from `fourq-sched`) and
//!    any disagreement is a finding; the recomputed bounds feed the
//!    schedule/register gap report in [`GapMetrics`].
//!
//! The verifier is wired into every compile ([`crate::compile_curve`],
//! [`crate::compile_curve_stitched`]): always on in debug
//! builds (so every test exercises it), effort-gated in release via
//! [`VERIFY_EFFORT`].

use crate::regalloc::{allocate, ControlRom, Src};
use crate::{CompiledKernel, KernelFingerprint};
use fourq_sched::{MachineConfig, Schedule};
use fourq_trace::{Operand, Selector, Trace, TraceError, Unit};
use std::collections::HashMap;

/// Scheduling effort at or above which release builds run the full
/// verifier inside [`crate::compile_curve`]. Debug builds always verify. The
/// threshold keeps the hot `compile_cold` benchmark path (effort 2)
/// unverified in release while the design-report/ablation efforts
/// (16–64) get the full pass.
pub const VERIFY_EFFORT: u32 = 16;

/// How deep the verifier digs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckLevel {
    /// Structural rules only: trace validity, latency/port/issue
    /// soundness, register ranges, double writers, route-table topology.
    /// Linear in the program size.
    Quick,
    /// Everything in `Quick` plus the liveness clobber scan, the
    /// digit-taint fixpoint, canonical ROM/allocation re-derivation
    /// diffs and the fingerprint cross-check.
    Full,
}

impl core::fmt::Display for CheckLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckLevel::Quick => write!(f, "quick"),
            CheckLevel::Full => write!(f, "full"),
        }
    }
}

/// One typed verifier diagnostic.
///
/// Every variant maps to exactly one rule code (see
/// [`KernelDiag::rule`]); the golden known-bad fixtures in
/// `fourq-kernelcheck` assert one variant per rule.
#[derive(Clone, Debug, PartialEq)]
pub enum KernelDiag {
    /// The trace failed its own structural validation.
    Trace(TraceError),
    /// Schedule length does not match the trace.
    ScheduleLengthMismatch {
        /// Expected entry count (trace operations).
        expected: usize,
        /// Entries the schedule actually has.
        got: usize,
    },
    /// The schedule's claimed makespan disagrees with the latest finish.
    MakespanMismatch {
        /// Makespan the schedule claims.
        claimed: u64,
        /// Latest issue+latency actually present.
        actual: u64,
    },
    /// A consumer issues before a direct operand's producer finishes —
    /// the over-latency RAW pair.
    RawHazard {
        /// Consuming operation index.
        op: usize,
        /// Producing operation index.
        dep: usize,
        /// Cycle the consumer issues.
        issue: u64,
        /// Cycle the producer's result is first readable.
        ready: u64,
    },
    /// More operations issued on one unit kind in a cycle than instances
    /// exist.
    IssueOversubscribed {
        /// The oversubscribed unit kind.
        unit: Unit,
        /// The conflicting cycle.
        cycle: u64,
        /// Operations issued that cycle.
        issued: usize,
        /// Unit instances available.
        units: usize,
    },
    /// Register-file reads in one cycle exceed the read ports.
    ReadPortsExceeded {
        /// The conflicting cycle.
        cycle: u64,
        /// Reads demanded.
        used: u32,
        /// Ports available.
        ports: u32,
    },
    /// Register-file writes in one cycle exceed the write ports.
    WritePortsExceeded {
        /// The conflicting cycle.
        cycle: u64,
        /// Writes demanded.
        used: u32,
        /// Ports available.
        ports: u32,
    },
    /// Allocation vector length does not cover every value.
    AllocationLengthMismatch {
        /// Expected length (inputs + operations).
        expected: usize,
        /// Entries the allocation actually has.
        got: usize,
    },
    /// A value is assigned a register outside the register file.
    RegisterOutOfRange {
        /// The value id.
        value: usize,
        /// Its assigned register.
        reg: u16,
        /// Registers the allocation claims to use.
        registers: usize,
    },
    /// Two results land in the same register on the same cycle — the
    /// double-writer hazard.
    DoubleWrite {
        /// The cycle both writes retire.
        cycle: u64,
        /// The contested register.
        reg: u16,
        /// First writing operation.
        first: usize,
        /// Second writing operation.
        second: usize,
    },
    /// A register is overwritten while an earlier value in it is still
    /// awaiting a read (WAR/WAW violation of the liveness intervals).
    RegisterClobber {
        /// The clobbered register.
        reg: u16,
        /// Value id whose live range is violated.
        victim: usize,
        /// Value id whose write lands inside it.
        writer: usize,
    },
    /// The allocation deviates from the canonical linear-scan result for
    /// this (trace, schedule, machine) — the artifact is not the one the
    /// compile flow produces.
    AllocationNotCanonical {
        /// First deviating value id.
        value: usize,
        /// Canonical register.
        expected: u16,
        /// Register the artifact carries.
        got: u16,
    },
    /// ROM word count does not cover every schedule cycle.
    RomLengthMismatch {
        /// Expected word count (makespan + 1).
        expected: usize,
        /// Words present.
        got: usize,
    },
    /// A control word differs from the canonical re-assembly — the
    /// corrupted-ROM-word diagnostic.
    RomWordMismatch {
        /// Cycle (word index) of the first difference.
        cycle: u64,
    },
    /// Route-table entry count does not match the trace's mux network.
    RouteCountMismatch {
        /// Expected entries (one per trace mux).
        expected: usize,
        /// Entries present.
        got: usize,
    },
    /// A control word references a route index outside the route table —
    /// a digit-driven select escaping the sanctioned network (the
    /// digit-tainted route index).
    RouteOutOfRange {
        /// Cycle of the offending word.
        cycle: u64,
        /// The out-of-range route index.
        route: u16,
        /// Entries the route table actually has.
        routes: usize,
    },
    /// A route candidate chains to itself or a later route, so its
    /// resolution depth would depend on evaluation order.
    RouteForwardReference {
        /// The offending route.
        route: usize,
        /// The forward target it references.
        target: usize,
    },
    /// A route's candidate count does not match its selector arity.
    RouteArityMismatch {
        /// The offending route.
        route: usize,
        /// Candidates the selector demands.
        expected: usize,
        /// Candidates present.
        got: usize,
    },
    /// A route's selector reads a digit position the digit stream does
    /// not cover.
    SelectorDigitOutOfRange {
        /// The offending route.
        route: usize,
    },
    /// A route candidate names a register outside the register file.
    RouteBadRegister {
        /// The offending route.
        route: usize,
        /// The out-of-range register.
        reg: u16,
        /// Registers the allocation claims to use.
        registers: usize,
    },
    /// A route entry differs from the canonical select network.
    RouteMismatch {
        /// Index of the first differing route.
        route: usize,
    },
    /// A route entry is reachable from no control word and no referenced
    /// route chain.
    DanglingRoute {
        /// The unreachable route.
        route: usize,
    },
    /// A digit-selected candidate is not finished when its consumer
    /// issues: which digit wins would decide whether the read sees stale
    /// data — a digit-dependent timing/correctness leak.
    DigitTimingLeak {
        /// Consuming operation index.
        op: usize,
        /// The mux the consumer reads through.
        mux: usize,
        /// The unfinished candidate's producing operation.
        producer: usize,
    },
    /// A fingerprint field disagrees with the value recomputed here.
    FingerprintMismatch {
        /// Which fingerprint field.
        field: &'static str,
        /// Value the kernel claims.
        claimed: u64,
        /// Value recomputed by the verifier.
        actual: u64,
    },
}

impl KernelDiag {
    /// The stable rule code of this diagnostic (baseline key and report
    /// grouping).
    pub fn rule(&self) -> &'static str {
        match self {
            KernelDiag::Trace(_) => "K-FLOW-TRACE",
            KernelDiag::ScheduleLengthMismatch { .. } => "K-FLOW-LEN",
            KernelDiag::MakespanMismatch { .. } => "K-FLOW-SPAN",
            KernelDiag::RawHazard { .. } => "K-FLOW-RAW",
            KernelDiag::IssueOversubscribed { .. } => "K-FLOW-ISSUE",
            KernelDiag::ReadPortsExceeded { .. } => "K-FLOW-RPORT",
            KernelDiag::WritePortsExceeded { .. } => "K-FLOW-WPORT",
            KernelDiag::AllocationLengthMismatch { .. } => "K-FLOW-ALEN",
            KernelDiag::RegisterOutOfRange { .. } => "K-FLOW-REG",
            KernelDiag::DoubleWrite { .. } => "K-FLOW-WW",
            KernelDiag::RegisterClobber { .. } => "K-FLOW-CLOBBER",
            KernelDiag::AllocationNotCanonical { .. } => "K-FLOW-CANON",
            KernelDiag::RomLengthMismatch { .. } => "K-FLOW-ROMLEN",
            KernelDiag::RomWordMismatch { .. } => "K-FLOW-ROM",
            KernelDiag::RouteCountMismatch { .. } => "K-OBLIV-COUNT",
            KernelDiag::RouteOutOfRange { .. } => "K-OBLIV-ROUTE",
            KernelDiag::RouteForwardReference { .. } => "K-OBLIV-CHAIN",
            KernelDiag::RouteArityMismatch { .. } => "K-OBLIV-ARITY",
            KernelDiag::SelectorDigitOutOfRange { .. } => "K-OBLIV-DIGIT",
            KernelDiag::RouteBadRegister { .. } => "K-OBLIV-REG",
            KernelDiag::RouteMismatch { .. } => "K-OBLIV-TABLE",
            KernelDiag::DanglingRoute { .. } => "K-OBLIV-DANGLING",
            KernelDiag::DigitTimingLeak { .. } => "K-OBLIV-TIMING",
            KernelDiag::FingerprintMismatch { .. } => "K-RES-FP",
        }
    }

    /// A short location tag (`op 12`, `cycle 80`, `route 7`, …) for
    /// reports and baselines.
    pub fn location(&self) -> String {
        match self {
            KernelDiag::Trace(_)
            | KernelDiag::ScheduleLengthMismatch { .. }
            | KernelDiag::MakespanMismatch { .. }
            | KernelDiag::AllocationLengthMismatch { .. }
            | KernelDiag::RomLengthMismatch { .. }
            | KernelDiag::RouteCountMismatch { .. } => "kernel".to_string(),
            KernelDiag::RawHazard { op, .. } | KernelDiag::DigitTimingLeak { op, .. } => {
                format!("op {op}")
            }
            KernelDiag::IssueOversubscribed { cycle, .. }
            | KernelDiag::ReadPortsExceeded { cycle, .. }
            | KernelDiag::WritePortsExceeded { cycle, .. }
            | KernelDiag::DoubleWrite { cycle, .. }
            | KernelDiag::RomWordMismatch { cycle }
            | KernelDiag::RouteOutOfRange { cycle, .. } => format!("cycle {cycle}"),
            KernelDiag::RegisterOutOfRange { value, .. }
            | KernelDiag::AllocationNotCanonical { value, .. } => format!("value {value}"),
            KernelDiag::RegisterClobber { reg, .. } => format!("reg {reg}"),
            KernelDiag::RouteForwardReference { route, .. }
            | KernelDiag::RouteArityMismatch { route, .. }
            | KernelDiag::SelectorDigitOutOfRange { route }
            | KernelDiag::RouteBadRegister { route, .. }
            | KernelDiag::RouteMismatch { route }
            | KernelDiag::DanglingRoute { route } => format!("route {route}"),
            KernelDiag::FingerprintMismatch { field, .. } => format!("fingerprint.{field}"),
        }
    }
}

impl core::fmt::Display for KernelDiag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelDiag::Trace(e) => write!(f, "trace validation failed: {e}"),
            KernelDiag::ScheduleLengthMismatch { expected, got } => {
                write!(f, "schedule has {got} entries, trace has {expected} ops")
            }
            KernelDiag::MakespanMismatch { claimed, actual } => {
                write!(f, "claimed makespan {claimed}, latest finish is {actual}")
            }
            KernelDiag::RawHazard {
                op,
                dep,
                issue,
                ready,
            } => write!(
                f,
                "op {op} issues at cycle {issue} but dep {dep} is ready at {ready}"
            ),
            KernelDiag::IssueOversubscribed {
                unit,
                cycle,
                issued,
                units,
            } => write!(
                f,
                "{issued} {unit:?} issues at cycle {cycle}, only {units} unit(s)"
            ),
            KernelDiag::ReadPortsExceeded { cycle, used, ports } => {
                write!(f, "{used} register reads at cycle {cycle}, {ports} ports")
            }
            KernelDiag::WritePortsExceeded { cycle, used, ports } => {
                write!(f, "{used} register writes at cycle {cycle}, {ports} ports")
            }
            KernelDiag::AllocationLengthMismatch { expected, got } => {
                write!(f, "allocation covers {got} values, program has {expected}")
            }
            KernelDiag::RegisterOutOfRange {
                value,
                reg,
                registers,
            } => write!(
                f,
                "value {value} assigned register {reg}, register file has {registers}"
            ),
            KernelDiag::DoubleWrite {
                cycle,
                reg,
                first,
                second,
            } => write!(
                f,
                "ops {first} and {second} both write r{reg} at cycle {cycle}"
            ),
            KernelDiag::RegisterClobber {
                reg,
                victim,
                writer,
            } => write!(
                f,
                "value {writer} overwrites r{reg} while value {victim} is still live"
            ),
            KernelDiag::AllocationNotCanonical {
                value,
                expected,
                got,
            } => write!(
                f,
                "value {value} in r{got}, canonical linear scan puts it in r{expected}"
            ),
            KernelDiag::RomLengthMismatch { expected, got } => {
                write!(f, "ROM has {got} words, schedule spans {expected} cycles")
            }
            KernelDiag::RomWordMismatch { cycle } => {
                write!(f, "control word at cycle {cycle} differs from re-assembly")
            }
            KernelDiag::RouteCountMismatch { expected, got } => {
                write!(
                    f,
                    "route table has {got} entries, trace has {expected} muxes"
                )
            }
            KernelDiag::RouteOutOfRange {
                cycle,
                route,
                routes,
            } => write!(
                f,
                "word at cycle {cycle} selects route {route}, table has {routes}"
            ),
            KernelDiag::RouteForwardReference { route, target } => {
                write!(f, "route {route} chains forward to route {target}")
            }
            KernelDiag::RouteArityMismatch {
                route,
                expected,
                got,
            } => write!(
                f,
                "route {route} has {got} candidates, selector arity is {expected}"
            ),
            KernelDiag::SelectorDigitOutOfRange { route } => {
                write!(f, "route {route} selects on a digit beyond the stream")
            }
            KernelDiag::RouteBadRegister {
                route,
                reg,
                registers,
            } => write!(
                f,
                "route {route} candidate names r{reg}, register file has {registers}"
            ),
            KernelDiag::RouteMismatch { route } => {
                write!(f, "route {route} differs from the canonical select network")
            }
            KernelDiag::DanglingRoute { route } => {
                write!(f, "route {route} is referenced by no word or route chain")
            }
            KernelDiag::DigitTimingLeak { op, mux, producer } => write!(
                f,
                "op {op} reads mux {mux} before candidate producer {producer} finishes"
            ),
            KernelDiag::FingerprintMismatch {
                field,
                claimed,
                actual,
            } => write!(
                f,
                "fingerprint.{field} claims {claimed}, recomputation gives {actual}"
            ),
        }
    }
}

/// Resource gap report: everything recomputed from the artifact by this
/// module, independently of `fourq-sched`'s own bound code.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GapMetrics {
    /// Latest issue+latency over all operations.
    pub makespan: u64,
    /// Longest latency chain through data and mux-ordering edges.
    pub critical_path_bound: u64,
    /// Per-unit issue-bandwidth bound: `ceil(ops/units) + latency - 1`,
    /// maximised over unit kinds.
    pub issue_bandwidth_bound: u64,
    /// `max(critical_path_bound, issue_bandwidth_bound)`.
    pub lower_bound: u64,
    /// Percent gap of the makespan above `lower_bound`.
    pub schedule_gap_percent: f64,
    /// Physical registers the allocation uses.
    pub registers: usize,
    /// Recomputed peak of simultaneously-live values.
    pub register_pressure: usize,
    /// `registers - register_pressure` (allocator overhead).
    pub register_gap: usize,
    /// Values carrying digit taint (downstream of any mux read).
    pub tainted_values: usize,
    /// Program outputs carrying digit taint.
    pub tainted_outputs: usize,
    /// Operand multiplexers in the program.
    pub mux_count: usize,
    /// Microinstruction count.
    pub rom_words: usize,
    /// Route-table entries (0 when no packed ROM exists).
    pub route_entries: usize,
}

/// The verifier's verdict: findings (empty = clean) plus the recomputed
/// gap metrics.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Level the verification ran at.
    pub level: CheckLevel,
    /// Typed findings, in pass order.
    pub findings: Vec<KernelDiag>,
    /// Recomputed resource metrics (zeroed when structural breakage made
    /// recomputation impossible).
    pub metrics: GapMetrics,
}

impl VerifyReport {
    /// Whether no finding fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

fn latency_of(trace: &Trace, machine: &MachineConfig, i: usize) -> u64 {
    match trace.nodes[i].kind.unit() {
        Unit::Multiplier => machine.mul_latency as u64,
        Unit::AddSub => machine.addsub_latency as u64,
    }
}

/// Liveness intervals `(born, dies)` per value id, mirroring the
/// allocator's lifetime rule: born at issue+latency (inputs at 0), dies
/// at the last consuming issue cycle (every mux candidate counts),
/// outputs pinned to the makespan.
fn lifetimes(trace: &Trace, sched: &Schedule, machine: &MachineConfig) -> (Vec<u64>, Vec<u64>) {
    let base = trace.first_op_id();
    let total = base + trace.nodes.len();
    let reach = trace.mux_reach();
    let mut born = vec![0u64; total];
    let mut dies = vec![0u64; total];
    for i in 0..trace.nodes.len() {
        born[base + i] = sched.start[i] + latency_of(trace, machine, i);
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
    (born, dies)
}

/// Recomputes the schedule lower bound from the trace alone: the longest
/// latency chain through data and mux-ordering edges, and the per-unit
/// issue-bandwidth bound. Deliberately does not call
/// `fourq_sched::lower_bound` — the two code paths cross-check each
/// other through the fingerprint comparison and `design_report`.
fn recompute_bounds(trace: &Trace, machine: &MachineConfig) -> (u64, u64) {
    let base = trace.first_op_id();
    let n = trace.nodes.len();
    let reach = trace.mux_reach();
    // Successor lists over op indices (data edges + mux ordering edges).
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in trace.nodes.iter().enumerate() {
        for op in core::iter::once(node.a).chain(node.b) {
            match op {
                Operand::Val(id) if id >= base => succs[id - base].push(i),
                Operand::Val(_) => {}
                Operand::Mux(m) => {
                    for &id in &reach[m] {
                        if id >= base {
                            succs[id - base].push(i);
                        }
                    }
                }
            }
        }
    }
    let mut prio = vec![0u64; n];
    let mut cp = 0u64;
    for i in (0..n).rev() {
        let down = succs[i].iter().map(|&s| prio[s]).max().unwrap_or(0);
        prio[i] = latency_of(trace, machine, i) + down;
        cp = cp.max(prio[i]);
    }
    let mut bw = 0u64;
    for unit in [Unit::Multiplier, Unit::AddSub] {
        let ops = trace
            .nodes
            .iter()
            .filter(|nd| nd.kind.unit() == unit)
            .count();
        if ops == 0 {
            continue;
        }
        let (units, lat) = match unit {
            Unit::Multiplier => (machine.mul_units.max(1), machine.mul_latency as u64),
            Unit::AddSub => (machine.addsub_units.max(1), machine.addsub_latency as u64),
        };
        bw = bw.max(ops.div_ceil(units) as u64 + lat - 1);
    }
    (cp, bw)
}

/// Digit-taint fixpoint: a value is tainted when it reads through a mux
/// or from a tainted value. One forward pass suffices — operands are
/// defined strictly before their consumers.
fn taint(trace: &Trace) -> Vec<bool> {
    let base = trace.first_op_id();
    let mut tainted = vec![false; base + trace.nodes.len()];
    for (i, node) in trace.nodes.iter().enumerate() {
        let t = core::iter::once(node.a).chain(node.b).any(|op| match op {
            Operand::Mux(_) => true,
            Operand::Val(id) => tainted[id],
        });
        tainted[base + i] = t;
    }
    tainted
}

/// Route-topology checks shared by the quick pass: index ranges, chain
/// direction, arity, digit coverage, register ranges, reachability.
fn check_routes(rom: &ControlRom, trace: &Trace, registers: usize, findings: &mut Vec<KernelDiag>) {
    let routes = rom.routes.len();
    if routes != trace.muxes.len() {
        findings.push(KernelDiag::RouteCountMismatch {
            expected: trace.muxes.len(),
            got: routes,
        });
    }
    let mut referenced = vec![false; routes];
    for (cycle, w) in rom.words.iter().enumerate() {
        let mut srcs: Vec<Src> = Vec::with_capacity(4);
        if w.mul_valid {
            srcs.push(w.mul_a);
            if !w.mul_sqr {
                srcs.push(w.mul_b);
            }
        }
        if w.add_valid {
            srcs.push(w.add_a);
            // add_op 2/3 (neg/conj) are unary; add_b is a don't-care.
            if w.add_op < 2 {
                srcs.push(w.add_b);
            }
        }
        for s in srcs {
            if let Src::Route(r) = s {
                if (r as usize) < routes {
                    referenced[r as usize] = true;
                } else {
                    findings.push(KernelDiag::RouteOutOfRange {
                        cycle: cycle as u64,
                        route: r,
                        routes,
                    });
                }
            }
        }
    }
    for (ri, route) in rom.routes.iter().enumerate() {
        if route.cands.len() != route.sel.arity() {
            findings.push(KernelDiag::RouteArityMismatch {
                route: ri,
                expected: route.sel.arity(),
                got: route.cands.len(),
            });
        }
        let covered = match route.sel {
            Selector::TableIndex(d) => d < trace.digits.indices.len(),
            Selector::SignNeg(d) => d < trace.digits.neg.len(),
            Selector::Corrected => true,
        };
        if !covered {
            findings.push(KernelDiag::SelectorDigitOutOfRange { route: ri });
        }
        for &c in &route.cands {
            match c {
                Src::Reg(r) => {
                    if (r as usize) >= registers {
                        findings.push(KernelDiag::RouteBadRegister {
                            route: ri,
                            reg: r,
                            registers,
                        });
                    }
                }
                Src::Route(j) => {
                    if (j as usize) >= ri {
                        findings.push(KernelDiag::RouteForwardReference {
                            route: ri,
                            target: j as usize,
                        });
                    }
                }
            }
        }
    }
    // Propagate reachability through (backward-only) chains, then flag
    // entries no word and no referenced route can reach.
    for ri in (0..routes).rev() {
        if referenced[ri] {
            for &c in &rom.routes[ri].cands {
                if let Src::Route(j) = c {
                    if (j as usize) < ri {
                        referenced[j as usize] = true;
                    }
                }
            }
        }
    }
    for (ri, &seen) in referenced.iter().enumerate() {
        if !seen {
            findings.push(KernelDiag::DanglingRoute { route: ri });
        }
    }
}

/// Runs the static verifier over a compiled kernel.
///
/// Returns all findings (an empty list means the artifact is proven
/// sound under the rules above) plus the recomputed [`GapMetrics`].
/// Never panics on corrupted artifacts: structural breakage that would
/// make later passes unsound short-circuits with the findings collected
/// so far.
pub fn verify(kernel: &CompiledKernel, level: CheckLevel) -> VerifyReport {
    let mut findings = Vec::new();
    let trace = &kernel.trace;
    let sched = &kernel.schedule;
    let machine = &kernel.machine;
    let alloc = &kernel.allocation;
    let base = trace.first_op_id();
    let n = trace.nodes.len();
    let total = base + n;

    if let Err(e) = trace.validate() {
        findings.push(KernelDiag::Trace(e));
        return VerifyReport {
            level,
            findings,
            metrics: GapMetrics::default(),
        };
    }
    if sched.start.len() != n {
        findings.push(KernelDiag::ScheduleLengthMismatch {
            expected: n,
            got: sched.start.len(),
        });
        return VerifyReport {
            level,
            findings,
            metrics: GapMetrics::default(),
        };
    }
    if alloc.assignment.len() != total {
        findings.push(KernelDiag::AllocationLengthMismatch {
            expected: total,
            got: alloc.assignment.len(),
        });
        return VerifyReport {
            level,
            findings,
            metrics: GapMetrics::default(),
        };
    }

    let reach = trace.mux_reach();
    let finish = |i: usize| sched.start[i] + latency_of(trace, machine, i);

    // --- dataflow: RAW under the latency model, mux timing closure ---
    let mut actual_makespan = 0u64;
    for i in 0..n {
        actual_makespan = actual_makespan.max(finish(i));
    }
    if actual_makespan != sched.makespan {
        findings.push(KernelDiag::MakespanMismatch {
            claimed: sched.makespan,
            actual: actual_makespan,
        });
    }
    for (i, node) in trace.nodes.iter().enumerate() {
        let issue = sched.start[i];
        for op in core::iter::once(node.a).chain(node.b) {
            match op {
                Operand::Val(id) if id >= base => {
                    let dep = id - base;
                    let ready = finish(dep);
                    if issue < ready {
                        findings.push(KernelDiag::RawHazard {
                            op: i,
                            dep,
                            issue,
                            ready,
                        });
                    }
                }
                Operand::Val(_) => {}
                Operand::Mux(m) => {
                    for &id in &reach[m] {
                        if id >= base {
                            let producer = id - base;
                            if issue < finish(producer) {
                                findings.push(KernelDiag::DigitTimingLeak {
                                    op: i,
                                    mux: m,
                                    producer,
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // --- issue slots and register-file ports, recounted from scratch ---
    let mut issues: HashMap<(Unit, u64), usize> = HashMap::new();
    let mut reads: HashMap<u64, u32> = HashMap::new();
    let mut writes: HashMap<u64, u32> = HashMap::new();
    for (i, node) in trace.nodes.iter().enumerate() {
        let issue = sched.start[i];
        *issues.entry((node.kind.unit(), issue)).or_default() += 1;
        let mut deps: Vec<usize> = Vec::with_capacity(2);
        let mut rf_reads = 0u32;
        for op in core::iter::once(node.a).chain(node.b) {
            match op {
                Operand::Val(id) if id >= base => deps.push(id - base),
                // Program-input reads and mux reads always hit the
                // register file (a mux winner never forwards).
                Operand::Val(_) | Operand::Mux(_) => rf_reads += 1,
            }
        }
        deps.sort_unstable();
        deps.dedup();
        for dep in deps {
            let forwarded = machine.forwarding && finish(dep) == issue;
            if !forwarded {
                rf_reads += 1;
            }
        }
        *reads.entry(issue).or_default() += rf_reads;
        *writes.entry(finish(i)).or_default() += 1;
    }
    let mut sorted: Vec<_> = issues.into_iter().collect();
    sorted.sort_by_key(|&((u, c), _)| (c, u != Unit::Multiplier));
    for ((unit, cycle), issued) in sorted {
        let units = match unit {
            Unit::Multiplier => machine.mul_units,
            Unit::AddSub => machine.addsub_units,
        };
        if issued > units {
            findings.push(KernelDiag::IssueOversubscribed {
                unit,
                cycle,
                issued,
                units,
            });
        }
    }
    let mut sorted: Vec<_> = reads.into_iter().collect();
    sorted.sort_unstable();
    for (cycle, used) in sorted {
        if used > machine.read_ports {
            findings.push(KernelDiag::ReadPortsExceeded {
                cycle,
                used,
                ports: machine.read_ports,
            });
        }
    }
    let mut sorted: Vec<_> = writes.into_iter().collect();
    sorted.sort_unstable();
    for (cycle, used) in sorted {
        if used > machine.write_ports {
            findings.push(KernelDiag::WritePortsExceeded {
                cycle,
                used,
                ports: machine.write_ports,
            });
        }
    }

    // --- allocation: ranges and double writers ---
    for (value, &reg) in alloc.assignment.iter().enumerate() {
        if (reg as usize) >= alloc.num_registers {
            findings.push(KernelDiag::RegisterOutOfRange {
                value,
                reg,
                registers: alloc.num_registers,
            });
        }
    }
    let mut writers: HashMap<(u64, u16), usize> = HashMap::new();
    for i in 0..n {
        let reg = alloc.assignment[base + i];
        let cycle = finish(i);
        if let Some(&first) = writers.get(&(cycle, reg)) {
            findings.push(KernelDiag::DoubleWrite {
                cycle,
                reg,
                first,
                second: i,
            });
        } else {
            writers.insert((cycle, reg), i);
        }
    }

    // --- route network topology ---
    if let Some(rom) = &kernel.rom {
        if rom.words.len() as u64 != sched.makespan + 1 {
            findings.push(KernelDiag::RomLengthMismatch {
                expected: sched.makespan as usize + 1,
                got: rom.words.len(),
            });
        }
        check_routes(rom, trace, alloc.num_registers, &mut findings);
    }

    // --- metrics (always recomputed; cheap) ---
    let (born, dies) = lifetimes(trace, sched, machine);
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(2 * total);
    for id in 0..total {
        if dies[id] < born[id] {
            continue; // dead write: occupies a write slot only
        }
        events.push((born[id], 1));
        events.push((dies[id] + 1, -1));
    }
    events.sort_unstable();
    let mut live = 0i64;
    let mut pressure = 0i64;
    for (_, delta) in events {
        live += delta;
        pressure = pressure.max(live);
    }
    let (cp, bw) = recompute_bounds(trace, machine);
    let lower = cp.max(bw);
    let tainted = taint(trace);
    let metrics = GapMetrics {
        makespan: actual_makespan,
        critical_path_bound: cp,
        issue_bandwidth_bound: bw,
        lower_bound: lower,
        schedule_gap_percent: if lower > 0 {
            100.0 * (actual_makespan.saturating_sub(lower)) as f64 / lower as f64
        } else {
            0.0
        },
        registers: alloc.num_registers,
        register_pressure: pressure as usize,
        register_gap: alloc.num_registers.saturating_sub(pressure as usize),
        tainted_values: tainted.iter().filter(|&&t| t).count(),
        tainted_outputs: trace.outputs.iter().filter(|(_, id)| tainted[*id]).count(),
        mux_count: trace.muxes.len(),
        rom_words: n,
        route_entries: kernel.rom.as_ref().map(|r| r.routes.len()).unwrap_or(0),
    };

    if level == CheckLevel::Quick {
        return VerifyReport {
            level,
            findings,
            metrics,
        };
    }

    // --- full: liveness clobber scan over physical registers ---
    let mut by_reg: HashMap<u16, Vec<usize>> = HashMap::new();
    for v in 0..total {
        let reg = alloc.assignment[v];
        if (reg as usize) < alloc.num_registers {
            by_reg.entry(reg).or_default().push(v);
        }
    }
    let mut regs: Vec<_> = by_reg.into_iter().collect();
    regs.sort_unstable_by_key(|&(r, _)| r);
    for (reg, mut vals) in regs {
        vals.sort_by_key(|&v| (born[v], v));
        for w in vals.windows(2) {
            let (prev, next) = (w[0], w[1]);
            // A register frees the cycle after its occupant's last read
            // (or its write, for dead values); the next write must land
            // strictly later.
            if born[next] <= dies[prev].max(born[prev]) {
                findings.push(KernelDiag::RegisterClobber {
                    reg,
                    victim: prev,
                    writer: next,
                });
            }
        }
    }

    // --- full: canonical allocation and ROM re-derivation diffs ---
    let canonical = allocate(trace, sched, machine);
    if canonical.assignment != alloc.assignment {
        let (value, (&expected, &got)) = canonical
            .assignment
            .iter()
            .zip(&alloc.assignment)
            .enumerate()
            .find(|(_, (c, a))| c != a)
            .expect("assignments differ");
        findings.push(KernelDiag::AllocationNotCanonical {
            value,
            expected,
            got,
        });
    }
    let makespan_ok = !findings
        .iter()
        .any(|d| matches!(d, KernelDiag::MakespanMismatch { .. }));
    if let (Some(rom), true) = (&kernel.rom, makespan_ok) {
        // Re-assemble against the kernel's own allocation so a ROM
        // corruption is attributed to the ROM, not to the allocation.
        match ControlRom::assemble(trace, sched, alloc) {
            Ok(canon) => {
                for (cycle, (have, want)) in rom.words.iter().zip(&canon.words).enumerate() {
                    if have != want {
                        findings.push(KernelDiag::RomWordMismatch {
                            cycle: cycle as u64,
                        });
                    }
                }
                for (ri, (have, want)) in rom.routes.iter().zip(&canon.routes).enumerate() {
                    if have != want {
                        findings.push(KernelDiag::RouteMismatch { route: ri });
                    }
                }
            }
            Err(_) => {
                // Unassemblable means an issue-slot conflict, which the
                // quick pass already reported as IssueOversubscribed.
            }
        }
    }

    // --- full: resource honesty (fingerprint cross-check) ---
    let fp: &KernelFingerprint = &kernel.fingerprint;
    let serial: u64 = (0..n).map(|i| latency_of(trace, machine, i)).sum();
    let stats = trace.stats();
    let claimed_ops = fp.op_counts.mul + fp.op_counts.sqr + fp.op_counts.add + fp.op_counts.sub;
    let actual_ops = stats.mul + stats.sqr + stats.add + stats.sub;
    let rom_bits = kernel.rom.as_ref().map(|r| r.size_bits()).unwrap_or(0);
    let checks: [(&'static str, u64, u64); 8] = [
        ("cycles", fp.cycles, actual_makespan),
        ("lower_bound", fp.lower_bound, lower),
        ("serial_cycles", fp.serial_cycles, serial),
        ("rom_words", fp.rom_words as u64, n as u64),
        ("rom_bits", fp.rom_bits as u64, rom_bits as u64),
        ("registers", fp.registers as u64, alloc.num_registers as u64),
        (
            "register_pressure",
            fp.register_pressure as u64,
            metrics.register_pressure as u64,
        ),
        ("mux_count", fp.mux_count as u64, trace.muxes.len() as u64),
    ];
    for (field, claimed, actual) in checks {
        if claimed != actual {
            findings.push(KernelDiag::FingerprintMismatch {
                field,
                claimed,
                actual,
            });
        }
    }
    if fp.op_counts != stats {
        findings.push(KernelDiag::FingerprintMismatch {
            field: "op_counts",
            claimed: claimed_ops as u64,
            actual: actual_ops as u64,
        });
    }

    VerifyReport {
        level,
        findings,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_kernel;
    use fourq_curve::CurveId;
    use fourq_sched::lower_bound as sched_lower_bound;
    use fourq_sched::trace_to_problem;

    fn kernel() -> &'static CompiledKernel {
        &shared_kernel(CurveId::FourQ, &MachineConfig::paper(), 0, None)
            .expect("compiles")
            .kernel
    }

    #[test]
    fn clean_kernel_passes_both_levels() {
        for level in [CheckLevel::Quick, CheckLevel::Full] {
            let report = verify(kernel(), level);
            assert!(report.is_clean(), "{level}: {:?}", report.findings);
        }
    }

    #[test]
    fn metrics_cross_check_scheduler_code_path() {
        let k = kernel();
        let report = verify(k, CheckLevel::Full);
        let m = &report.metrics;
        // Independent recomputation must agree with fourq-sched's own
        // bound and the fingerprint's dynamic pressure measurement.
        let problem = trace_to_problem(&k.trace);
        assert_eq!(m.lower_bound, sched_lower_bound(&problem, &k.machine));
        assert_eq!(m.makespan, k.fingerprint.cycles);
        assert_eq!(m.register_pressure, k.fingerprint.register_pressure);
        assert!(m.issue_bandwidth_bound > 0);
        assert!(m.critical_path_bound > 0);
        assert!(m.lower_bound >= m.issue_bandwidth_bound);
        assert!(m.registers >= m.register_pressure);
    }

    #[test]
    fn taint_reaches_outputs_but_not_control() {
        let report = verify(kernel(), CheckLevel::Full);
        let m = &report.metrics;
        // The scalar-dependent result must be digit-tainted; the route
        // network itself is clean (no K-OBLIV finding above).
        assert_eq!(m.tainted_outputs, 2, "x and y depend on the digits");
        assert!(m.tainted_values > 100, "taint flows through the ladder");
        assert!(m.tainted_values < m.rom_words + 5);
        assert!(report.is_clean());
    }

    #[test]
    fn wider_machine_without_rom_still_verifies() {
        let mut m = MachineConfig::paper();
        m.mul_units = 2;
        m.read_ports = 8;
        m.write_ports = 4;
        let k = &shared_kernel(CurveId::FourQ, &m, 0, None)
            .expect("compiles")
            .kernel;
        assert!(k.rom.is_none());
        let report = verify(k, CheckLevel::Full);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.metrics.route_entries, 0);
    }

    #[test]
    fn makespan_corruption_is_flagged() {
        let mut k = kernel().clone();
        k.schedule.makespan += 3;
        let report = verify(&k, CheckLevel::Quick);
        assert!(report
            .findings
            .iter()
            .any(|d| matches!(d, KernelDiag::MakespanMismatch { .. })));
    }

    #[test]
    fn diag_rules_and_locations_are_stable() {
        let d = KernelDiag::RouteOutOfRange {
            cycle: 7,
            route: 900,
            routes: 445,
        };
        assert_eq!(d.rule(), "K-OBLIV-ROUTE");
        assert_eq!(d.location(), "cycle 7");
        assert!(d.to_string().contains("route 900"));
        let d = KernelDiag::RawHazard {
            op: 3,
            dep: 1,
            issue: 4,
            ready: 6,
        };
        assert_eq!(d.rule(), "K-FLOW-RAW");
        assert_eq!(d.location(), "op 3");
    }
}
