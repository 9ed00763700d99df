//! Compile-once / execute-many: the [`CompiledKernel`] pipeline.
//!
//! The uniform trace makes the whole §III-C flow — trace, schedule,
//! register-allocate, assemble the control ROM — a *per-machine* cost
//! instead of a per-scalar one: the recorded program is identical for
//! every (base, scalar) pair, only the two base-point inputs and the
//! recoded digit stream change between executions. [`compile_curve`]
//! runs the flow once and captures the result;
//! [`compile_curve_stitched`] does the same on the better of the ILS and
//! the window-decomposed stitched schedules; [`CompiledKernel::execute`]
//! replays the fixed microcode through the physical register file with
//! fresh inputs; [`shared_kernel`] memoises kernels process-wide by
//! `(curve, machine, effort, stitch options)`.
//!
//! Every stage failure is a typed [`PipelineError`] — the compile path
//! has no panicking branches — and every compile ends with an end-to-end
//! audit executing two scalars against the software library.
//!
//! The same pipeline serves every curve the tracer knows: it builds
//! kernels for Fourℚ, X25519 and P-256 from their uniform traces, and
//! [`CompiledKernel::execute_x25519`] /
//! [`CompiledKernel::execute_p256`] replay them with fresh inputs. The
//! register-file words are [`Word`]s — `F_p²` pairs for Fourℚ,
//! Montgomery-form base-field residues for the short-Weierstrass and
//! Montgomery curves — but the control path (schedule, allocation, ROM,
//! verifier) is identical.

use crate::regalloc::{allocate, Allocation, ControlRom};
use crate::{simulate, SimError, SimStats};
use fourq_baselines::p256::{Affine, P256};
use fourq_baselines::x25519::X25519;
use fourq_curve::{AffinePoint, CurveId};
use fourq_fp::{Scalar, U256};
use fourq_sched::{
    lower_bound, schedule, serial_schedule, stitched_exact_schedule, trace_to_problem,
    MachineConfig, Problem, Schedule, ScheduleError, StitchOptions,
};
use fourq_trace::{
    mont_field, DigitStream, OpKind, OpStats, Operand, Trace, TraceError, Unit, Word,
};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Default register-file capacity a kernel must fit.
///
/// The uniform always-compute-and-select program keeps the whole 8-entry
/// precomputed table (32 `F_p²` words) live across all 63 digit reads —
/// the price of one fixed ROM serving every scalar — so its register file
/// is larger than a per-scalar schedule would need (~93 words on the
/// paper machine vs. ~64 for the specialised flow).
pub const DEFAULT_REGISTER_BUDGET: usize = 128;

/// The representative scalar the kernel is compiled (and value-audited)
/// under. Any non-zero scalar works — the recorded program is the same
/// for all of them; this one exercises every limb.
const REP_SCALAR: [u8; 32] = [
    0x31, 0x22, 0x12, 0x02, 0x19, 0x08, 0x70, 0x6f, 0x5e, 0x4d, 0x3c, 0x2b, 0x1a, 0x09, 0xf8, 0xe7,
    0xd6, 0xc5, 0xb4, 0xa3, 0x92, 0x81, 0x70, 0x6f, 0x5e, 0x4d, 0x2c, 0x1a, 0x7b, 0x29, 0x3f, 0x1d,
];

/// A typed failure anywhere in the compile pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// The recorded trace failed structural validation.
    Trace(TraceError),
    /// The scheduler produced (or was handed) an invalid schedule.
    Schedule(ScheduleError),
    /// The cycle-accurate simulation rejected the program.
    Sim(SimError),
    /// Control-ROM assembly failed.
    Assemble(crate::AssembleError),
    /// Register allocation needs more registers than the budget allows.
    RegisterBudget {
        /// Registers the allocation requires.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The compiled kernel's output disagrees with the software library
    /// (or left the curve) — a pipeline bug, caught by the compile audit.
    Diverged,
    /// The static verifier ([`crate::check::verify`]) rejected the
    /// artifact. Carries the finding count and the first diagnostic.
    Verify {
        /// Total findings the verifier reported.
        findings: usize,
        /// The first finding, in pass order.
        first: Box<crate::check::KernelDiag>,
    },
    /// The kernel was asked to execute a curve other than the one it was
    /// compiled for.
    WrongCurve {
        /// Curve the kernel was compiled for.
        compiled: CurveId,
        /// Curve the call requested.
        requested: CurveId,
    },
}

impl core::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PipelineError::Trace(e) => write!(f, "trace validation failed: {e}"),
            PipelineError::Schedule(e) => write!(f, "schedule validation failed: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation failed: {e}"),
            PipelineError::Assemble(e) => write!(f, "control-ROM assembly failed: {e}"),
            PipelineError::RegisterBudget { needed, budget } => {
                write!(f, "allocation needs {needed} registers, budget is {budget}")
            }
            PipelineError::Diverged => {
                write!(f, "kernel output diverged from the software library")
            }
            PipelineError::Verify { findings, first } => {
                write!(
                    f,
                    "static verification failed with {findings} finding(s); first: [{}] {first}",
                    first.rule()
                )
            }
            PipelineError::WrongCurve {
                compiled,
                requested,
            } => {
                write!(
                    f,
                    "kernel compiled for {compiled}, asked to execute {requested}"
                )
            }
        }
    }
}
impl std::error::Error for PipelineError {}

impl From<TraceError> for PipelineError {
    fn from(e: TraceError) -> Self {
        PipelineError::Trace(e)
    }
}
impl From<ScheduleError> for PipelineError {
    fn from(e: ScheduleError) -> Self {
        PipelineError::Schedule(e)
    }
}
impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}
impl From<crate::AssembleError> for PipelineError {
    fn from(e: crate::AssembleError) -> Self {
        PipelineError::Assemble(e)
    }
}

/// Scalar-independent identity of a compiled kernel: every number here is
/// a constant of the (machine, effort) pair, not of any particular
/// execution — mux reads never forward, so even the register-file traffic
/// is digit-independent.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelFingerprint {
    /// Cycles per scalar multiplication (the schedule makespan).
    pub cycles: u64,
    /// Makespan lower bound on this machine.
    pub lower_bound: u64,
    /// Cycles of the fully serial schedule.
    pub serial_cycles: u64,
    /// Microinstruction count (program-ROM words).
    pub rom_words: usize,
    /// Assembled ROM size in bits (0 when no single-sequencer ROM is
    /// encodable, i.e. multi-unit machines).
    pub rom_bits: usize,
    /// Operation counts by kind.
    pub op_counts: OpStats,
    /// Physical registers the allocation uses.
    pub registers: usize,
    /// Peak simultaneously-live values under the schedule.
    pub register_pressure: usize,
    /// Operand multiplexers in the uniform program.
    pub mux_count: usize,
}

/// One step of the precompiled replay program (issue order).
#[derive(Clone, Copy, Debug)]
struct Step {
    kind: OpKind,
    a: Operand,
    b: Option<Operand>,
    dst: u16,
    start: u64,
    finish: u64,
}

/// The compile-once artifact: uniform trace, validated schedule, register
/// allocation, control ROM and fingerprint for one machine shape.
///
/// Built by [`compile_curve`]; executed any number of times by
/// [`CompiledKernel::execute`] / [`CompiledKernel::execute_batch`].
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// The curve whose scalar multiplication this kernel computes.
    pub curve: CurveId,
    /// The machine this kernel is scheduled for.
    pub machine: MachineConfig,
    /// Scheduling effort (ILS iterations) the schedule was built with.
    pub effort: u32,
    /// The uniform microinstruction program.
    pub trace: Trace,
    /// The validated static schedule.
    pub schedule: Schedule,
    /// Virtual→physical register mapping.
    pub allocation: Allocation,
    /// The assembled program ROM (single-sequencer machines only).
    pub rom: Option<ControlRom>,
    /// Scalar-independent identity of this kernel.
    pub fingerprint: KernelFingerprint,
    /// Machine statistics from the compile-time cycle-accurate run
    /// (digit-independent — see [`KernelFingerprint`]).
    pub stats: SimStats,
    prog: Vec<Step>,
}

/// Compiles the scalar-multiplication kernel of any supported curve on
/// the whole-program ILS schedule at `effort`, uncached. The allocation
/// must fit the [`DEFAULT_REGISTER_BUDGET`].
///
/// Each curve's uniform trace goes through the identical flow — validate,
/// schedule, allocate, assemble, verify — and ends with the same
/// end-to-end audit: the kernel must reproduce that curve's software
/// baseline on two independent inputs before it is handed out.
///
/// # Errors
///
/// Any stage failure as a [`PipelineError`]; [`PipelineError::Diverged`]
/// if the final audit against the software baseline fails.
pub fn compile_curve(
    curve: CurveId,
    machine: &MachineConfig,
    effort: u32,
) -> Result<CompiledKernel, PipelineError> {
    compile_trace(record_curve_trace(curve), machine, effort, None).map(|st| st.kernel)
}

/// Records the uniform trace of a curve's scalar multiplication under the
/// representative inputs. The program is the same for every (base, scalar)
/// pair — only the captured constants differ — so one recording serves
/// every compile of that curve.
fn record_curve_trace(curve: CurveId) -> Trace {
    match curve {
        CurveId::FourQ => {
            let rep = Scalar::from_le_bytes(&REP_SCALAR);
            fourq_trace::trace_scalar_mul(&rep).trace
        }
        CurveId::X25519 => {
            let mut base = [0u8; 32];
            base[0] = 9;
            fourq_trace::trace_x25519_ladder(&REP_SCALAR, &base).trace
        }
        CurveId::P256 => {
            let ctx = P256::new();
            let rep = U256::from_le_bytes(&REP_SCALAR);
            fourq_trace::trace_p256_scalar_mul(&rep, &ctx.generator_affine()).trace
        }
    }
}

/// End-to-end compile audit: the kernel must reproduce its curve's
/// software baseline on the representative inputs and on unrelated ones
/// before it is handed out.
///
/// The Fourℚ kernel is recorded from `scalar_mul_engine`, the code
/// `AffinePoint::mul` runs, so it is audited against the independent
/// double-and-add of `AffinePoint::mul_generic` instead: a bug in the
/// shared engine then fails the compile rather than agreeing with itself.
fn audit_kernel(kernel: &CompiledKernel) -> Result<(), PipelineError> {
    match kernel.curve {
        CurveId::FourQ => {
            let rep = Scalar::from_le_bytes(&REP_SCALAR);
            let g = AffinePoint::generator();
            for k in [rep, Scalar::from_u64(0x9e37_79b9_7f4a_7c15)] {
                let got = kernel.execute(&g, &k)?;
                let want = g.mul_generic(&k);
                if (got.x, got.y) != (want.x, want.y) {
                    return Err(PipelineError::Diverged);
                }
            }
        }
        CurveId::X25519 => {
            let ctx = X25519::new();
            let mut scalar2 = REP_SCALAR;
            scalar2[7] ^= 0xa5;
            // Chain the audits: the second runs on the first's output, so
            // a non-trivial u-coordinate is exercised too.
            let mut u = [0u8; 32];
            u[0] = 9;
            for s in [REP_SCALAR, scalar2] {
                let got = kernel.execute_x25519(&s, &u)?;
                if got != ctx.ladder(&s, &u) {
                    return Err(PipelineError::Diverged);
                }
                u = got;
            }
        }
        CurveId::P256 => {
            let ctx = p256_ctx();
            let rep = U256::from_le_bytes(&REP_SCALAR);
            let g = ctx.generator_affine();
            let base = encode_p256_point(&g);
            for k in [rep, U256::from_u64(0x9e37_79b9_7f4a_7c15)] {
                let got = kernel.execute_p256(&k.to_le_bytes(), &base)?;
                let want = encode_p256_point(&ctx.scalar_mul_complete(&k, &g));
                if got != want {
                    return Err(PipelineError::Diverged);
                }
            }
        }
    }
    Ok(())
}

/// A compiled kernel with the cycle counts of the schedules it was
/// chosen from.
///
/// The embedded kernel uses whichever schedule was better — the stitched
/// one or the whole-program ILS baseline at `effort` — so
/// `kernel.fingerprint.cycles == stitched_cycles.min(baseline_cycles)`.
/// A kernel compiled without stitching (a [`shared_kernel`] entry with
/// no [`StitchOptions`]) carries the ILS makespan in both counts.
/// Everything downstream (simulation, allocation, ROM, the verifier, the
/// execute paths) is identical to a [`compile_curve`] kernel.
#[derive(Clone, Debug)]
pub struct StitchedKernel {
    /// The compiled artifact, on the better of the two schedules.
    pub kernel: CompiledKernel,
    /// Whole-program ILS makespan at the requested effort.
    pub baseline_cycles: u64,
    /// Makespan of the window-decomposed stitched schedule.
    pub stitched_cycles: u64,
}

/// Compiles a curve's kernel through [`stitched_exact_schedule`], keeping
/// whichever of (stitched, whole-program ILS at `effort`) schedule is
/// shorter, uncached. The allocation must fit the
/// [`DEFAULT_REGISTER_BUDGET`].
///
/// This is the ROADMAP "window-decomposed exact scheduling" path: the job
/// list is split into `opts.segments` windows, each window is scheduled by
/// branch-and-bound (budget `opts.node_limit`) and a diversified
/// backward-pass search (`opts.window_trials` restarts), and the windows
/// are stitched back into one schedule that validates against the
/// original problem.
///
/// # Errors
///
/// Any stage failure as a [`PipelineError`], exactly as [`compile_curve`].
///
/// # Panics
///
/// If `machine` has more than one multiplier or add/sub unit (the exact
/// scheduler models single-instance units only; the paper machine and its
/// banked variant both qualify).
pub fn compile_curve_stitched(
    curve: CurveId,
    machine: &MachineConfig,
    effort: u32,
    opts: &StitchOptions,
) -> Result<StitchedKernel, PipelineError> {
    compile_trace(record_curve_trace(curve), machine, effort, Some(opts))
}

/// 64-byte little-endian `x ‖ y` encoding of a P-256 affine point; the
/// all-zero string encodes the point at infinity (`(0, 0)` is not on the
/// curve, so the encoding is unambiguous).
fn encode_p256_point(pt: &Affine) -> [u8; 64] {
    let mut out = [0u8; 64];
    if let Affine::Point { x, y } = pt {
        out[..32].copy_from_slice(&x.to_le_bytes());
        out[32..].copy_from_slice(&y.to_le_bytes());
    }
    out
}

/// Process-wide P-256 context for the per-execution on-curve guard.
fn p256_ctx() -> &'static P256 {
    static CTX: OnceLock<P256> = OnceLock::new();
    CTX.get_or_init(P256::new)
}

/// The one compile flow behind [`compile_curve`],
/// [`compile_curve_stitched`] and [`shared_kernel`]: validate → bridge →
/// ILS schedule (plus the stitched schedule when `stitch` is given,
/// keeping the shorter) → the shared back half → the end-to-end audit.
fn compile_trace(
    trace: Trace,
    machine: &MachineConfig,
    effort: u32,
    stitch: Option<&StitchOptions>,
) -> Result<StitchedKernel, PipelineError> {
    trace.validate()?;
    let problem = trace_to_problem(&trace);
    let baseline = schedule(&problem, machine, effort);
    let baseline_cycles = baseline.makespan;
    let (best, stitched_cycles) = match stitch {
        None => (baseline, baseline_cycles),
        Some(opts) => {
            let stitched = stitched_exact_schedule(&problem, machine, opts).schedule;
            let cycles = stitched.makespan;
            let best = if cycles <= baseline_cycles {
                stitched
            } else {
                baseline
            };
            (best, cycles)
        }
    };
    let kernel = finish_compile(
        trace,
        problem,
        best,
        machine,
        effort,
        DEFAULT_REGISTER_BUDGET,
    )?;
    audit_kernel(&kernel)?;
    Ok(StitchedKernel {
        kernel,
        baseline_cycles,
        stitched_cycles,
    })
}

/// Back half of the flow, taking the schedule as input so corrupted
/// schedules surface as [`PipelineError::Schedule`] instead of panics.
fn finish_compile(
    trace: Trace,
    problem: Problem,
    sched: Schedule,
    machine: &MachineConfig,
    effort: u32,
    budget: usize,
) -> Result<CompiledKernel, PipelineError> {
    sched.validate(&problem, machine)?;
    let sim = simulate(&trace, &sched, machine)?;
    let allocation = allocate(&trace, &sched, machine);
    if allocation.num_registers > budget {
        return Err(PipelineError::RegisterBudget {
            needed: allocation.num_registers,
            budget,
        });
    }
    let (rom, prog) = assemble(&trace, &sched, &allocation, machine)?;
    let fingerprint = KernelFingerprint {
        cycles: sched.makespan,
        lower_bound: lower_bound(&problem, machine),
        serial_cycles: serial_schedule(&problem, machine).makespan,
        rom_words: problem.len(),
        rom_bits: rom.as_ref().map(|r| r.size_bits()).unwrap_or(0),
        op_counts: trace.stats(),
        registers: allocation.num_registers,
        register_pressure: sim.stats.register_pressure,
        mux_count: trace.muxes.len(),
    };
    let kernel = CompiledKernel {
        curve: trace.curve,
        machine: *machine,
        effort,
        trace,
        schedule: sched,
        allocation,
        rom,
        fingerprint,
        stats: sim.stats,
        prog,
    };
    // Static verification: always in debug builds (every test compile
    // gets the full pass), effort-gated in release so the hot low-effort
    // compile path stays cheap.
    if cfg!(debug_assertions) || effort >= crate::check::VERIFY_EFFORT {
        let report = crate::check::verify(&kernel, crate::check::CheckLevel::Full);
        if let Some(first) = report.findings.first() {
            return Err(PipelineError::Verify {
                findings: report.findings.len(),
                first: Box::new(first.clone()),
            });
        }
    }
    Ok(kernel)
}

/// The allocation-dependent artifacts: the control ROM and the replay
/// program (issue order, destinations in physical registers).
fn assemble(
    trace: &Trace,
    sched: &Schedule,
    allocation: &Allocation,
    machine: &MachineConfig,
) -> Result<(Option<ControlRom>, Vec<Step>), PipelineError> {
    // A single-sequencer ROM exists only for single-instance units; wider
    // machines keep the decoded schedule without a packed encoding.
    let rom = if machine.mul_units == 1 && machine.addsub_units == 1 {
        Some(ControlRom::assemble(trace, sched, allocation)?)
    } else {
        None
    };
    let base = trace.first_op_id();
    let mut order: Vec<usize> = (0..trace.nodes.len()).collect();
    order.sort_by_key(|&i| (sched.start[i], i));
    let prog = order
        .iter()
        .map(|&i| {
            let node = &trace.nodes[i];
            let latency = match node.kind.unit() {
                Unit::Multiplier => machine.mul_latency as u64,
                Unit::AddSub => machine.addsub_latency as u64,
            };
            Step {
                kind: node.kind,
                a: node.a,
                b: node.b,
                dst: allocation.assignment[base + i],
                start: sched.start[i],
                finish: sched.start[i] + latency,
            }
        })
        .collect();
    Ok((rom, prog))
}

impl CompiledKernel {
    /// Rebuilds this kernel around a replacement register allocation,
    /// re-deriving the ROM, the replay program and the
    /// allocation-dependent fingerprint fields — with **no verification
    /// and no audit**.
    ///
    /// The replay program writes through a private copy of the
    /// destination registers, so mutating [`CompiledKernel::allocation`]
    /// in place would leave execution on the old mapping; this is the
    /// consistent way to swap an allocation in. It exists for the
    /// fault-injection campaign (`fourq-testkit`), which needs to
    /// manufacture kernels the compile flow would refuse to produce.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Assemble`] if the control ROM cannot be packed
    /// under the replacement allocation.
    pub fn with_allocation(&self, allocation: Allocation) -> Result<CompiledKernel, PipelineError> {
        let (rom, prog) = assemble(&self.trace, &self.schedule, &allocation, &self.machine)?;
        let mut fingerprint = self.fingerprint.clone();
        fingerprint.registers = allocation.num_registers;
        fingerprint.rom_bits = rom.as_ref().map(|r| r.size_bits()).unwrap_or(0);
        Ok(CompiledKernel {
            curve: self.curve,
            machine: self.machine,
            effort: self.effort,
            trace: self.trace.clone(),
            schedule: self.schedule.clone(),
            allocation,
            rom,
            fingerprint,
            stats: self.stats,
            prog,
        })
    }

    /// Executes the fixed microcode for `[k]base` and returns the affine
    /// result.
    ///
    /// Only the two base-point registers and the mux select lines (the
    /// recoded digits of `k`) change between calls — the program, the
    /// schedule and the register allocation are the compile-time
    /// constants. Mirrors `AffinePoint::mul`'s degenerate handling: an
    /// identity base short-circuits; a zero scalar flows through the
    /// datapath (its decomposition is parity-corrected to an odd scalar
    /// whose final correction step cancels the result to the identity).
    ///
    /// # Errors
    ///
    /// [`PipelineError::WrongCurve`] if this is not a Fourℚ kernel;
    /// [`PipelineError::Diverged`] if the replayed outputs are not a
    /// curve point (the per-execution sanity guard).
    pub fn execute(&self, base: &AffinePoint, k: &Scalar) -> Result<AffinePoint, PipelineError> {
        self.expect_curve(CurveId::FourQ)?;
        if base.is_identity() {
            return Ok(AffinePoint::identity());
        }
        let digits = fourq_trace::digit_stream(k);
        let outs = self.replay_words(
            &[("Px", Word::Fp2(base.x)), ("Py", Word::Fp2(base.y))],
            &digits,
        );
        let x = out_word(&outs, "x").as_fp2();
        let y = out_word(&outs, "y").as_fp2();
        AffinePoint::new(x, y).map_err(|_| PipelineError::Diverged)
    }

    /// Executes an X25519 kernel: `scalar` is the raw RFC 7748 secret
    /// (clamped here, exactly as the baseline does), `u` the little-endian
    /// input u-coordinate; returns the output u-coordinate.
    ///
    /// Only the u-coordinate register and the mux select lines (the
    /// running-swap recoding of the clamped scalar) change between calls.
    ///
    /// # Errors
    ///
    /// [`PipelineError::WrongCurve`] if this is not an X25519 kernel.
    pub fn execute_x25519(
        &self,
        scalar: &[u8; 32],
        u: &[u8; 32],
    ) -> Result<[u8; 32], PipelineError> {
        self.expect_curve(CurveId::X25519)?;
        let digits = fourq_trace::x25519_digit_stream(scalar);
        let f = mont_field(CurveId::X25519);
        // RFC 7748 masks the top bit of u (mirrors the trace recording).
        let mut ub = *u;
        ub[31] &= 0x7f;
        let x1 = f.enter(U256::from_le_bytes(&ub));
        let outs = self.replay_words(&[("U", Word::Fe(CurveId::X25519, x1))], &digits);
        // The program's Montgomery exit already returned `x` to a plain
        // little-endian integer.
        Ok(out_word(&outs, "x").as_fe().to_le_bytes())
    }

    /// Executes a P-256 kernel: `scalar` is little-endian, `point` the
    /// 64-byte little-endian `x ‖ y` affine encoding (all-zero = point at
    /// infinity); the result uses the same encoding.
    ///
    /// The caller is responsible for point validation (`fourq-curve`'s
    /// `MultiCurveEngine` rejects off-curve inputs before reaching this);
    /// the kernel still guards its own *output*: a non-infinity result
    /// that is not on the curve reports [`PipelineError::Diverged`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::WrongCurve`] if this is not a P-256 kernel;
    /// [`PipelineError::Diverged`] on an off-curve output.
    pub fn execute_p256(
        &self,
        scalar: &[u8; 32],
        point: &[u8; 64],
    ) -> Result<[u8; 64], PipelineError> {
        self.expect_curve(CurveId::P256)?;
        let f = mont_field(CurveId::P256);
        let k = U256::from_le_bytes(scalar);
        let digits = fourq_trace::p256_digit_stream(&k);
        let (px, py, pz) = if point.iter().all(|&b| b == 0) {
            // Projective identity (0 : 1 : 0), as the trace records it.
            (U256::ZERO, f.enter(U256::ONE), U256::ZERO)
        } else {
            let x = U256::from_le_bytes(point[..32].try_into().expect("32 bytes"));
            let y = U256::from_le_bytes(point[32..].try_into().expect("32 bytes"));
            (f.enter(x), f.enter(y), f.enter(U256::ONE))
        };
        let outs = self.replay_words(
            &[
                ("Px", Word::Fe(CurveId::P256, px)),
                ("Py", Word::Fe(CurveId::P256, py)),
                ("Pz", Word::Fe(CurveId::P256, pz)),
            ],
            &digits,
        );
        let x = out_word(&outs, "x").as_fe();
        let y = out_word(&outs, "y").as_fe();
        let result = if x == U256::ZERO && y == U256::ZERO {
            Affine::Infinity
        } else {
            Affine::Point { x, y }
        };
        if !p256_ctx().is_on_curve(&result) {
            return Err(PipelineError::Diverged);
        }
        Ok(encode_p256_point(&result))
    }

    fn expect_curve(&self, requested: CurveId) -> Result<(), PipelineError> {
        if self.curve == requested {
            Ok(())
        } else {
            Err(PipelineError::WrongCurve {
                compiled: self.curve,
                requested,
            })
        }
    }

    /// Executes a batch of scalars against one base, fanning the replay
    /// over the process-wide thread pool (`FOURQ_THREADS` respected).
    ///
    /// Results are bit-identical at every thread count: each replay is an
    /// independent pure function of `(base, scalar)` and the order of the
    /// returned vector matches `scalars`.
    ///
    /// # Errors
    ///
    /// The first [`PipelineError`] any replay produced.
    pub fn execute_batch(
        &self,
        base: &AffinePoint,
        scalars: &[Scalar],
    ) -> Result<Vec<AffinePoint>, PipelineError> {
        self.execute_batch_with(base, scalars, fourq_pool::resolved_threads())
    }

    /// As [`CompiledKernel::execute_batch`] with an explicit thread count.
    ///
    /// # Errors
    ///
    /// See [`CompiledKernel::execute_batch`].
    pub fn execute_batch_with(
        &self,
        base: &AffinePoint,
        scalars: &[Scalar],
        threads: usize,
    ) -> Result<Vec<AffinePoint>, PipelineError> {
        fourq_pool::map_items(scalars, 4, threads, |_, k| self.execute(base, k))
            .into_iter()
            .collect()
    }

    /// Replays the precompiled program through the physical register file
    /// under a fresh digit stream, returning the named outputs.
    ///
    /// `runtime` overrides the named inputs' recorded values (the curve
    /// points); every other input keeps the constant captured at compile
    /// time. This is the curve-agnostic core behind [`Self::execute`],
    /// [`Self::execute_x25519`] and [`Self::execute_p256`].
    fn replay_words(&self, runtime: &[(&str, Word)], digits: &DigitStream) -> Vec<(String, Word)> {
        let assignment = &self.allocation.assignment;
        let mut rf = vec![self.trace.zero_word(); self.allocation.num_registers];
        for (id, (name, rep)) in self.trace.inputs.iter().enumerate() {
            let v = runtime
                .iter()
                .find(|(n, _)| *n == name.as_str())
                .map(|&(_, w)| w)
                .unwrap_or(*rep); // constants keep their recorded value
            rf[assignment[id] as usize] = v;
        }
        // Pending-writeback replay (the forwarding timing of
        // `crate::simulate`): a result finishing at cycle c is readable
        // from cycle c on; idle cycles are skipped.
        let mut pending: Vec<(u64, u16, Word)> = Vec::new();
        for step in &self.prog {
            let cycle = step.start;
            pending.retain(|&(f, reg, v)| {
                if f <= cycle {
                    rf[reg as usize] = v;
                    false
                } else {
                    true
                }
            });
            let fetch =
                |op: Operand| -> Word { rf[assignment[self.trace.resolve(op, digits)] as usize] };
            let a = fetch(step.a);
            let b = match (step.kind, step.b) {
                (OpKind::Mul | OpKind::Add | OpKind::Sub, Some(op)) => Some(fetch(op)),
                _ => None,
            };
            pending.push((step.finish, step.dst, Word::eval(step.kind, a, b)));
        }
        for (_, reg, v) in pending {
            rf[reg as usize] = v;
        }
        self.trace
            .outputs
            .iter()
            .map(|(n, id)| (n.clone(), rf[assignment[*id] as usize]))
            .collect()
    }
}

/// Looks up a named replay output.
fn out_word(outs: &[(String, Word)], name: &str) -> Word {
    outs.iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("kernel trace carries output {name:?}"))
        .1
}

type KernelCache =
    Mutex<HashMap<(CurveId, MachineConfig, u32, Option<StitchOptions>), &'static StitchedKernel>>;

/// Returns the process-wide kernel for `(curve, machine, effort, stitch)`,
/// compiling it on first use: as [`compile_curve_stitched`] with
/// `Some(opts)`, as [`compile_curve`] with `None` (both cycle counts are
/// then the ILS makespan).
///
/// Kernels are leaked into `'static` storage (a handful per process — one
/// per distinct key), so callers share one immutable artifact across
/// threads with no per-call locking beyond the map probe.
///
/// # Errors
///
/// The [`PipelineError`] of the first compile attempt. Failures are not
/// cached: a later call retries.
///
/// # Panics
///
/// With `Some(opts)`, as [`compile_curve_stitched`].
pub fn shared_kernel(
    curve: CurveId,
    machine: &MachineConfig,
    effort: u32,
    stitch: Option<&StitchOptions>,
) -> Result<&'static StitchedKernel, PipelineError> {
    static CACHE: OnceLock<KernelCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (curve, *machine, effort, stitch.copied());
    {
        let map = cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(k) = map.get(&key) {
            return Ok(k);
        }
    }
    // Compile outside the lock (it is the slow path); racing compiles are
    // benign — the first insert wins and later ones are dropped.
    let kernel = compile_trace(record_curve_trace(curve), machine, effort, stitch)?;
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    Ok(*map
        .entry(key)
        .or_insert_with(|| Box::leak(Box::new(kernel))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{verify, CheckLevel};
    use fourq_fp::Fp2;
    use fourq_trace::Node;

    /// Cheap options keep the debug-build runtime sane; the full-effort
    /// stitched numbers are pinned by crates/sched/tests/stitched_sm.rs
    /// and the fleet KAT.
    const CHEAP_STITCH: StitchOptions = StitchOptions {
        segments: 8,
        node_limit: 500,
        window_trials: 4,
    };

    fn kernel_for(curve: CurveId) -> &'static CompiledKernel {
        &shared_kernel(curve, &MachineConfig::paper(), 0, None)
            .expect("compiles")
            .kernel
    }

    #[test]
    fn compiled_kernel_matches_software_for_fresh_inputs() {
        let kernel = kernel_for(CurveId::FourQ);
        let base = AffinePoint::generator().mul_generic(&Scalar::from_u64(5));
        // N − 1, N − 2, 2^245, and the radix-limb boundaries 2^(62j) and
        // 2^(62j) − 1, where parity correction and the recoding edges act.
        let two = Scalar::from_u64(2);
        let pow2 = |e: u64| two.pow(&U256::from_u64(e));
        let mut scalars = vec![
            Scalar::ONE,
            two,
            Scalar::from_le_bytes(&[0x6b; 32]),
            Scalar::ZERO.sub(&Scalar::ONE),
            Scalar::ZERO.sub(&two),
            pow2(245),
        ];
        for e in [62, 124, 186] {
            scalars.extend([pow2(e), pow2(e).sub(&Scalar::ONE)]);
        }
        for k in scalars {
            let got = kernel.execute(&base, &k).expect("executes");
            let want = base.mul_generic(&k);
            assert_eq!((got.x, got.y), (want.x, want.y));
        }
    }

    #[test]
    fn clobber_detection_would_fail() {
        // Everything in one register clobbers live values: the replay
        // through the physical register file leaves the curve.
        let kernel = kernel_for(CurveId::FourQ);
        let bogus = Allocation {
            assignment: vec![0; kernel.allocation.assignment.len()],
            num_registers: 1,
        };
        let broken = kernel.with_allocation(bogus).expect("reassembles");
        assert_eq!(
            broken.execute(&AffinePoint::generator(), &Scalar::from_u64(7)),
            Err(PipelineError::Diverged)
        );
    }

    #[test]
    fn degenerate_inputs_mirror_affine_mul() {
        let kernel = kernel_for(CurveId::FourQ);
        // identity base short-circuits
        let id = AffinePoint::identity();
        let r = kernel.execute(&id, &Scalar::from_u64(42)).unwrap();
        assert!(r.is_identity());
        // zero scalar flows through the parity-corrected pipeline
        let g = AffinePoint::generator();
        let z = kernel.execute(&g, &Scalar::from_u64(0)).unwrap();
        let want = g.mul(&Scalar::from_u64(0));
        assert_eq!((z.x, z.y), (want.x, want.y));
        assert!(z.is_identity());
    }

    #[test]
    fn execute_batch_matches_execute() {
        let kernel = kernel_for(CurveId::FourQ);
        let g = AffinePoint::generator();
        let scalars: Vec<Scalar> = (1..=6u64).map(|i| Scalar::from_u64(i * 977)).collect();
        let serial: Vec<AffinePoint> = scalars
            .iter()
            .map(|k| kernel.execute(&g, k).unwrap())
            .collect();
        for threads in [1, 3] {
            let batch = kernel.execute_batch_with(&g, &scalars, threads).unwrap();
            assert_eq!(batch.len(), serial.len());
            for (a, b) in batch.iter().zip(&serial) {
                assert_eq!((a.x, a.y), (b.x, b.y));
            }
        }
    }

    #[test]
    fn shared_kernel_is_keyed_and_equals_uncached_compiles() {
        let m = MachineConfig::paper();
        let fq = shared_kernel(CurveId::FourQ, &m, 0, None).expect("compiles");
        let x = shared_kernel(CurveId::X25519, &m, 0, None).expect("compiles");
        let st = shared_kernel(CurveId::FourQ, &m, 0, Some(&CHEAP_STITCH)).expect("compiles");
        assert!(std::ptr::eq(
            fq,
            shared_kernel(CurveId::FourQ, &m, 0, None).unwrap()
        ));
        assert!(std::ptr::eq(
            st,
            shared_kernel(CurveId::FourQ, &m, 0, Some(&CHEAP_STITCH)).unwrap()
        ));
        assert!(!std::ptr::eq(fq, x), "distinct curves → distinct kernels");
        assert!(
            !std::ptr::eq(fq, st),
            "stitched and ILS entries are distinct"
        );
        // Each entry is exactly what the uncached compile returns.
        for (curve, cached) in [(CurveId::FourQ, fq), (CurveId::X25519, x)] {
            let fresh = compile_curve(curve, &m, 0).expect("compiles");
            assert_eq!(cached.kernel.fingerprint, fresh.fingerprint, "{curve}");
            let c = fresh.fingerprint.cycles;
            assert_eq!((cached.baseline_cycles, cached.stitched_cycles), (c, c));
        }
        let fresh = compile_curve_stitched(CurveId::FourQ, &m, 0, &CHEAP_STITCH).expect("compiles");
        assert_eq!(st.kernel.fingerprint, fresh.kernel.fingerprint);
        assert_eq!(
            (st.baseline_cycles, st.stitched_cycles),
            (fresh.baseline_cycles, fresh.stitched_cycles)
        );
        // The stitched entry's baseline is the ILS kernel.
        assert_eq!(st.baseline_cycles, fq.kernel.fingerprint.cycles);
    }

    #[test]
    fn with_allocation_round_trips_every_curve() {
        for curve in CurveId::ALL {
            let k = kernel_for(curve);
            let r = k
                .with_allocation(k.allocation.clone())
                .expect("reassembles");
            assert_eq!(r.fingerprint, k.fingerprint, "{curve}");
            // The full check re-derives the ROM from the allocation.
            let report = verify(&r, CheckLevel::Full);
            assert!(report.is_clean(), "{curve}: {:?}", report.findings.first());
            // It executes like the compiled kernel: both reproduce the
            // software baseline on the compile audit's inputs.
            audit_kernel(&r).unwrap_or_else(|e| panic!("{curve}: {e}"));
        }
    }

    #[test]
    fn fingerprint_is_scalar_independent_and_plausible() {
        let kernel = kernel_for(CurveId::FourQ);
        let fp = &kernel.fingerprint;
        assert!(fp.cycles >= fp.lower_bound);
        assert!(fp.cycles < fp.serial_cycles);
        assert_eq!(fp.rom_words, kernel.trace.nodes.len());
        assert!(fp.rom_bits > 0, "paper machine has a packed ROM");
        assert!(fp.mux_count > 400, "uniform program routes every digit");
        assert!(fp.registers <= DEFAULT_REGISTER_BUDGET);
        assert!(fp.register_pressure <= fp.registers);
    }

    #[test]
    fn over_budget_register_allocation_is_reported() {
        let t = record_curve_trace(CurveId::FourQ);
        let m = MachineConfig::paper();
        let problem = trace_to_problem(&t);
        let sched = schedule(&problem, &m, 0);
        match finish_compile(t, problem, sched, &m, 0, 8) {
            Err(PipelineError::RegisterBudget { needed, budget }) => {
                assert_eq!(budget, 8);
                assert!(needed > 8);
            }
            other => panic!("expected RegisterBudget, got {other:?}"),
        }
    }

    #[test]
    fn malformed_trace_is_reported() {
        // Hand-rolled trace with a value-table mismatch: typed error, no
        // panic.
        let bad = Trace {
            curve: CurveId::FourQ,
            inputs: vec![("a".to_string(), Word::Fp2(Fp2::ONE))],
            runtime_ids: vec![],
            nodes: vec![Node {
                kind: OpKind::Sqr,
                a: Operand::Val(0),
                b: None,
            }],
            muxes: vec![],
            outputs: vec![("o".to_string(), 1)],
            values: vec![Word::Fp2(Fp2::ONE)], // should be 2 entries
            digits: DigitStream::empty(),
        };
        let m = MachineConfig::paper();
        assert_eq!(
            compile_trace(bad, &m, 0, None).err(),
            Some(PipelineError::Trace(TraceError::ValueCountMismatch))
        );
    }

    #[test]
    fn x25519_kernel_matches_baseline() {
        let kernel = kernel_for(CurveId::X25519);
        assert_eq!(kernel.curve, CurveId::X25519);
        let ctx = X25519::new();
        let mut base = [0u8; 32];
        base[0] = 9;
        let mut u = base;
        for i in 0..3u8 {
            let mut s = [0x42u8 ^ i; 32];
            s[0] = i.wrapping_mul(97);
            let got = kernel.execute_x25519(&s, &u).expect("executes");
            assert_eq!(got, ctx.ladder(&s, &u));
            u = got;
        }
        // High-bit-set u is masked identically on both sides.
        let mut high = [0xffu8; 32];
        high[0] = 7;
        let s = [0x11u8; 32];
        assert_eq!(
            kernel.execute_x25519(&s, &high).expect("executes"),
            ctx.ladder(&s, &high)
        );
    }

    #[test]
    fn p256_kernel_matches_baseline_including_degenerates() {
        let kernel = kernel_for(CurveId::P256);
        assert_eq!(kernel.curve, CurveId::P256);
        let ctx = P256::new();
        let g = ctx.generator_affine();
        let gb = encode_p256_point(&g);
        for k in [
            U256::from_u64(1),
            U256::from_u64(2),
            U256::from_le_bytes(&[0x6b; 32]),
        ] {
            let got = kernel
                .execute_p256(&k.to_le_bytes(), &gb)
                .expect("executes");
            assert_eq!(got, encode_p256_point(&ctx.scalar_mul_complete(&k, &g)));
        }
        // Zero scalar flows through the datapath and lands on infinity.
        let zero = kernel.execute_p256(&[0u8; 32], &gb).expect("executes");
        assert_eq!(zero, [0u8; 64]);
        // Infinity base stays at infinity, through the same fixed program.
        let inf = kernel
            .execute_p256(&U256::from_u64(5).to_le_bytes(), &[0u8; 64])
            .expect("executes");
        assert_eq!(inf, [0u8; 64]);
    }

    #[test]
    fn wrong_curve_execution_is_reported() {
        let kernel = kernel_for(CurveId::X25519);
        let err = kernel
            .execute(&AffinePoint::generator(), &Scalar::from_u64(3))
            .unwrap_err();
        assert_eq!(
            err,
            PipelineError::WrongCurve {
                compiled: CurveId::X25519,
                requested: CurveId::FourQ,
            }
        );
        let fq = kernel_for(CurveId::FourQ);
        assert!(matches!(
            fq.execute_p256(&[1u8; 32], &[0u8; 64]),
            Err(PipelineError::WrongCurve { .. })
        ));
    }

    #[test]
    fn stitched_kernel_verifies_and_executes() {
        let m = MachineConfig::paper();
        let st = shared_kernel(CurveId::FourQ, &m, 0, Some(&CHEAP_STITCH)).expect("compiles");
        // The embedded kernel carries the better of the two schedules.
        assert_eq!(
            st.kernel.fingerprint.cycles,
            st.stitched_cycles.min(st.baseline_cycles)
        );
        // The stitched artifact passes the full K-FLOW/K-OBLIV/K-RES
        // battery, same as a plain compile.
        let report = verify(&st.kernel, CheckLevel::Full);
        assert!(
            report.findings.is_empty(),
            "stitched kernel rejected: {:?}",
            report.findings.first()
        );
        // And it still computes scalar multiplication on fresh inputs.
        let base = AffinePoint::generator().mul_generic(&Scalar::from_u64(7));
        let k = Scalar::from_le_bytes(&[0x35; 32]);
        let got = st.kernel.execute(&base, &k).expect("executes");
        let want = base.mul_generic(&k);
        assert_eq!((got.x, got.y), (want.x, want.y));
    }

    #[test]
    fn corrupted_schedule_is_reported() {
        let t = fourq_trace::trace_double_add_iteration();
        let m = MachineConfig::paper();
        let problem = trace_to_problem(&t);
        let mut sched = schedule(&problem, &m, 0);
        let last = sched.start.len() - 1;
        sched.start[last] = 0; // operands cannot be ready at cycle 0
        match finish_compile(t, problem, sched, &m, 0, DEFAULT_REGISTER_BUDGET) {
            Err(PipelineError::Schedule(_)) => {}
            other => panic!("expected Schedule error, got {other:?}"),
        }
    }
}
