//! The ASIC section: repeated cold compiles of the Table II kernel set
//! (trace → sched → cpu, ending in each kernel's audit against its
//! software baseline), the static verifier on the Fourℚ kernel, warm
//! `CompiledKernel::execute` calls, and the fleet energy model. trace,
//! sched, cpu and tech do all the work; fp and curve run only inside the
//! simulator.

use crate::inputs::{Rng, ASIC};
use crate::metrics::Out;
use crate::spans::{durations_us, Recorder, Span};
use crate::stats::{describe, median, pct, sorted, FAST};
use fourq_baselines::p256::{Affine, P256};
use fourq_baselines::x25519::X25519;
use fourq_cpu::{CheckLevel, CompiledKernel, ControlRom, DEFAULT_REGISTER_BUDGET};
use fourq_curve::{AffinePoint, CurveId, FourQEngine};
use fourq_fp::{Scalar, U256};
use fourq_sched::{MachineConfig, Schedule, StitchOptions};
use fourq_tech::fleet::{simulate_fleet, CoreSpec, FleetConfig, FleetReport};
use fourq_tech::SotbModel;
use fourq_trace::Trace;
use std::hint::black_box;
use std::time::Instant;

/// Scheduling effort of the Table II kernel set.
pub const EFFORT: u32 = 2;
/// Fleet model: this many Fourℚ cores share one table ROM with
/// [`ROM_PORTS`] read ports, run for [`HORIZON`] cycles at [`FLEET_VDD`].
pub const FLEET_CORES: usize = 8;
pub const ROM_PORTS: u32 = 2;
pub const HORIZON: u64 = 1 << 20;
pub const FLEET_VDD: f64 = 0.32;
/// The technology model is calibrated once, on this cycle count, and held
/// fixed: recalibrating on the kernel under test pins every kernel's
/// energy to the paper's 0.327 µJ and hides a faster kernel.
pub const CALIBRATION_CYCLES: u64 = 3215;
const POINTS: usize = 16;

/// The exact counts of one compile; every compile must give the same.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub cycles: u64,
    pub ils_cycles: u64,
    pub lower_bound: u64,
    pub registers: usize,
    pub rom_words: usize,
    pub rom_reads: u64,
    pub x25519_cycles: u64,
    pub p256_cycles: u64,
}

/// Modelled Fourℚ scalar multiplications per joule of the shared-ROM
/// fleet, and the fleet report. Every core is clocked for the whole
/// horizon, stalled or not.
pub fn fleet_sm_per_j(cycles: u64, rom_reads: u64) -> (f64, FleetReport) {
    let tech = SotbModel::calibrate_paper(CALIBRATION_CYCLES);
    let core = CoreSpec {
        name: "fourq".into(),
        cycles_per_op: cycles,
        rom_reads_per_op: rom_reads,
    };
    let cfg = FleetConfig {
        rom_ports: ROM_PORTS,
        cores: vec![core; FLEET_CORES],
    };
    let report = simulate_fleet(&cfg, HORIZON);
    let joules = FLEET_CORES as f64 * tech.operating_point(FLEET_VDD, HORIZON).energy_uj * 1e-6;
    (report.total_progress / joules, report)
}

pub struct Asic {
    machine: MachineConfig,
    stitch: StitchOptions,
    rng: Rng,
    points: Vec<AffinePoint>,
    kernel: Option<CompiledKernel>,
    /// The latest X25519 and P-256 kernels, audited again in traced rounds.
    others: Vec<CompiledKernel>,
    counts: Option<Counts>,
    fleet: Option<f64>,
    /// Host seconds per compile of the kernel set.
    compile_s: Vec<f64>,
    /// Host µs per `execute` call.
    exec_us: Vec<f64>,
    pub round_s: Vec<f64>,
    /// Median host µs of each untraced and each traced round's executes.
    pub exec_round_us: Vec<f64>,
    pub traced_exec_round_us: Vec<f64>,
    pub attempted: u64,
    pub wrong: u64,
    rounds: u64,
}

impl Asic {
    pub fn setup(seed: u64) -> Asic {
        let mut rng = Rng::new(seed, ASIC);
        let eng = FourQEngine::shared();
        let points = (0..POINTS)
            .map(|_| eng.fixed_base_mul(&rng.scalar()))
            .collect();
        Asic {
            machine: MachineConfig::paper(),
            stitch: StitchOptions::default(),
            rng,
            points,
            kernel: None,
            others: Vec::new(),
            counts: None,
            fleet: None,
            compile_s: Vec::new(),
            exec_us: Vec::new(),
            round_s: Vec::new(),
            exec_round_us: Vec::new(),
            traced_exec_round_us: Vec::new(),
            attempted: 0,
            wrong: 0,
            rounds: 0,
        }
    }

    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.wrong += u64::from(!ok);
    }

    /// One untraced round: a cold compile of the kernel set (timed as
    /// one sample), the verifier on the Fourℚ kernel, `executes` warm
    /// executions checked against `AffinePoint::mul`, and the fleet model,
    /// which must give the same figure every round.
    pub fn round(&mut self, executes: usize) {
        self.rounds += 1;
        let m = self.machine;
        let t0 = Instant::now();
        let fourq = fourq_cpu::compile_curve_stitched(CurveId::FourQ, &m, EFFORT, &self.stitch);
        let x25519 = fourq_cpu::compile_curve(CurveId::X25519, &m, EFFORT);
        let p256 = fourq_cpu::compile_curve(CurveId::P256, &m, EFFORT);
        let dt = t0.elapsed().as_secs_f64();
        self.compile_s.push(dt);
        let (Ok(st), Ok(x), Ok(p)) = (fourq, x25519, p256) else {
            self.tally(false);
            return;
        };
        let fp = &st.kernel.fingerprint;
        let counts = Counts {
            cycles: fp.cycles,
            ils_cycles: st.baseline_cycles,
            lower_bound: fp.lower_bound,
            registers: fp.registers,
            rom_words: fp.rom_words,
            rom_reads: fp.mux_count as u64,
            x25519_cycles: x.fingerprint.cycles,
            p256_cycles: p.fingerprint.cycles,
        };
        let same = *self.counts.get_or_insert(counts) == counts;
        self.tally(same);
        let clean = fourq_cpu::verify(&st.kernel, CheckLevel::Full).is_clean();
        self.tally(clean);
        self.kernel = Some(st.kernel);
        self.others = vec![x, p];
        self.executes(executes, None);
        let fleet = fleet_sm_per_j(counts.cycles, counts.rom_reads).0;
        let first = *self.fleet.get_or_insert(fleet);
        self.tally(first == fleet);
        self.round_s.push(t0.elapsed().as_secs_f64());
    }

    /// The asic slice other workloads run: the first compiles the kernel
    /// set and checks it like [`Asic::round`]; later ones only execute.
    pub fn slice(&mut self, executes: usize) {
        if self.kernel.is_none() {
            self.round(executes);
        } else {
            self.executes(executes, None);
        }
    }

    /// Warm executions through the latest kernel, each timed alone and
    /// checked against the software library.
    fn executes(&mut self, n: usize, mut rec: Option<&mut Recorder>) {
        let Some(kernel) = self.kernel.take() else {
            return;
        };
        let mut batch = Vec::with_capacity(n);
        for _ in 0..n {
            let base = self.points[(self.rng.next_u64() % POINTS as u64) as usize];
            let k = self.rng.scalar();
            let t = Instant::now();
            let got = match rec.as_deref_mut() {
                Some(r) => r.leaf("cpu.execute", "cpu", self.rounds, || {
                    kernel.execute(black_box(&base), black_box(&k))
                }),
                None => kernel.execute(black_box(&base), black_box(&k)),
            };
            batch.push(t.elapsed().as_nanos() as f64 / 1e3);
            self.tally(got.is_ok_and(|q| q == base.mul(&k)));
        }
        self.exec_us.extend(&batch);
        match rec {
            Some(_) => self.traced_exec_round_us.push(median(&mut batch)),
            None => self.exec_round_us.push(median(&mut batch)),
        }
        self.kernel = Some(kernel);
    }

    /// One traced round, the same work as [`Asic::round`] with a span
    /// around each layer call: the kernel set compiled stage by stage
    /// through each layer's public calls (the stages of
    /// `compile_curve_stitched` and `compile_curve`), each kernel's
    /// audit, then the verifier and the executions, then the fleet model.
    /// The stages cannot assemble a `CompiledKernel`, so the audit, the
    /// verifier and the executions run on the latest untraced kernels,
    /// which hold the same programs.
    pub fn traced_round(&mut self, rec: &mut Recorder, executes: usize) {
        self.rounds += 1;
        let req = self.rounds;
        rec.root("round", req, |rec| self.traced_calls(rec, req, executes));
    }

    fn traced_calls(&mut self, rec: &mut Recorder, req: u64, executes: usize) {
        let m = self.machine;
        rec.span("op.compile_set", "harness", req, |r| {
            for curve in [CurveId::FourQ, CurveId::X25519, CurveId::P256] {
                let stitch = (curve == CurveId::FourQ).then_some(&self.stitch);
                let c = compile_stages(r, req, curve, &m, stitch);
                let kernel = match curve {
                    CurveId::FourQ => self.kernel.as_ref(),
                    _ => self.others.iter().find(|k| k.curve == curve),
                };
                let audited =
                    kernel.is_some_and(|k| r.leaf(audit_name(curve), "cpu", req, || audit(k)));
                let same = curve != CurveId::FourQ || self.counts.is_none_or(|k| k.cycles == c);
                self.attempted += 2;
                self.wrong += u64::from(!same) + u64::from(!audited);
            }
        });
        if let Some(kernel) = self.kernel.as_ref() {
            let clean = rec.span("op.verify", "harness", req, |r| {
                r.leaf("cpu.verify", "cpu", req, || {
                    fourq_cpu::verify(kernel, CheckLevel::Full).is_clean()
                })
            });
            self.tally(clean);
        }
        rec.span("op.execute", "harness", req, |r| {
            self.executes(executes, Some(r))
        });
        if let Some(c) = self.counts {
            rec.span("op.fleet", "harness", req, |r| {
                r.leaf("tech.fleet_sim", "tech", req, || {
                    fleet_sm_per_j(c.cycles, c.rom_reads)
                })
            });
        }
    }

    fn counts(&self) -> Counts {
        self.counts.expect("at least one compile finished")
    }

    pub fn end_to_end(&mut self, out: &mut Out) {
        let c = self.counts();
        out.put("kernel_exec_us", pct(sorted(&mut self.exec_us), FAST), "us");
        out.put("fourq_cycles", c.cycles as f64, "cycles");
        out.put(
            "fleet_sm_per_j",
            self.fleet.expect("a round finished"),
            "SM/J",
        );
        out.line(describe(
            "asic.compile_set",
            "s",
            &mut self.compile_s,
            &[FAST, 5_000],
        ));
        out.line(describe(
            "asic.execute",
            "us",
            &mut self.exec_us,
            &[FAST, 5_000, 9_900],
        ));
        out.line(format!("asic.counts {c:?}"));
    }

    pub fn per_layer(&mut self, spans: &[Span], out: &mut Out) {
        let c = self.counts();
        out.put("compile_s", pct(sorted(&mut self.compile_s), FAST), "s");
        let ms = |name: &str| median(&mut durations_us(spans, name)) / 1e3;
        out.put("trace.record_ms", ms("trace.record.fourq"), "ms");
        out.put("sched.ils_ms", ms("sched.ils.fourq"), "ms");
        out.put("sched.stitched_ms", ms("sched.stitched.fourq"), "ms");
        out.put("sched.ils_cycles", c.ils_cycles as f64, "cycles");
        out.put("sched.lower_bound", c.lower_bound as f64, "cycles");
        out.put("cpu.simulate_ms", ms("cpu.simulate.fourq"), "ms");
        out.put("cpu.alloc_rom_ms", ms("cpu.alloc_rom.fourq"), "ms");
        out.put("cpu.verify_ms", ms("cpu.verify"), "ms");
        out.put("cpu.registers", c.registers as f64, "count");
        out.put("cpu.rom_words", c.rom_words as f64, "count");
        out.put("cpu.x25519_cycles", c.x25519_cycles as f64, "cycles");
        out.put("cpu.p256_cycles", c.p256_cycles as f64, "cycles");
        let (_, report) = fleet_sm_per_j(c.cycles, c.rom_reads);
        out.put("tech.fleet_sim_ms", ms("tech.fleet_sim"), "ms");
        out.put(
            "tech.rom_stall_frac",
            report.total_stalls as f64 / (FLEET_CORES as u64 * HORIZON) as f64,
            "frac",
        );
    }

    /// Share of rounds slower than 1.3× the fastest quartile of rounds.
    pub fn slow_round_frac(&mut self) -> f64 {
        crate::stats::slow_frac(&mut self.round_s)
    }
}

fn audit_name(curve: CurveId) -> &'static str {
    match curve {
        CurveId::FourQ => "cpu.audit.fourq",
        CurveId::X25519 => "cpu.audit.x25519",
        CurveId::P256 => "cpu.audit.p256",
    }
}

/// The audit the compile functions run before handing a kernel out: two
/// executions, each against the curve's software baseline.
fn audit(kernel: &CompiledKernel) -> bool {
    let scalars = [U256::from_u64(REP), U256::from_u64(REP.rotate_left(17))];
    match kernel.curve {
        CurveId::FourQ => {
            let g = AffinePoint::generator();
            scalars.iter().all(|s| {
                let k = Scalar::from_le_bytes(&s.to_le_bytes());
                kernel.execute(&g, &k).is_ok_and(|q| q == g.mul(&k))
            })
        }
        CurveId::X25519 => {
            // Chained, so the second execution starts from a non-trivial u.
            let ctx = X25519::new();
            let mut u = [0u8; 32];
            u[0] = 9;
            scalars.iter().all(|s| {
                let s = s.to_le_bytes();
                let want = ctx.ladder(&s, &u);
                let ok = kernel.execute_x25519(&s, &u) == Ok(want);
                u = want;
                ok
            })
        }
        CurveId::P256 => {
            let ctx = P256::new();
            let g = ctx.generator_affine();
            let encode = |p: &Affine| {
                let mut out = [0u8; 64];
                if let Affine::Point { x, y } = p {
                    out[..32].copy_from_slice(&x.to_le_bytes());
                    out[32..].copy_from_slice(&y.to_le_bytes());
                }
                out
            };
            scalars.iter().all(|k| {
                let want = encode(&ctx.scalar_mul_complete(k, &g));
                kernel.execute_p256(&k.to_le_bytes(), &encode(&g)) == Ok(want)
            })
        }
    }
}

/// Span names per curve (spans carry static names).
fn names(curve: CurveId) -> [&'static str; 7] {
    match curve {
        CurveId::FourQ => [
            "trace.record.fourq",
            "trace.validate.fourq",
            "sched.bridge.fourq",
            "sched.ils.fourq",
            "sched.finish.fourq",
            "cpu.simulate.fourq",
            "cpu.alloc_rom.fourq",
        ],
        CurveId::X25519 => [
            "trace.record.x25519",
            "trace.validate.x25519",
            "sched.bridge.x25519",
            "sched.ils.x25519",
            "sched.finish.x25519",
            "cpu.simulate.x25519",
            "cpu.alloc_rom.x25519",
        ],
        CurveId::P256 => [
            "trace.record.p256",
            "trace.validate.p256",
            "sched.bridge.p256",
            "sched.ils.p256",
            "sched.finish.p256",
            "cpu.simulate.p256",
            "cpu.alloc_rom.p256",
        ],
    }
}

/// The representative scalar the uniform traces are recorded under; the
/// recorded program does not depend on it.
const REP: u64 = 0x9e37_79b9_7f4a_7c15;

fn record(curve: CurveId) -> Trace {
    match curve {
        CurveId::FourQ => fourq_trace::trace_scalar_mul(&Scalar::from_u64(REP)).trace,
        CurveId::X25519 => {
            let mut u = [0u8; 32];
            u[0] = 9;
            fourq_trace::trace_x25519_ladder(&U256::from_u64(REP).to_le_bytes(), &u).trace
        }
        CurveId::P256 => {
            let ctx = P256::new();
            fourq_trace::trace_p256_scalar_mul(&U256::from_u64(REP), &ctx.generator_affine()).trace
        }
    }
}

/// The compile flow of one curve as separate layer calls; returns the
/// chosen schedule's makespan.
fn compile_stages(
    r: &mut Recorder,
    req: u64,
    curve: CurveId,
    m: &MachineConfig,
    stitch: Option<&StitchOptions>,
) -> u64 {
    let [rec_n, val_n, bridge_n, ils_n, finish_n, sim_n, alloc_n] = names(curve);
    let trace = r.leaf(rec_n, "trace", req, || record(curve));
    r.leaf(val_n, "trace", req, || {
        trace.validate().expect("trace validates")
    });
    let problem = r.leaf(bridge_n, "sched", req, || {
        fourq_sched::trace_to_problem(&trace)
    });
    let ils = r.leaf(ils_n, "sched", req, || {
        fourq_sched::schedule(&problem, m, EFFORT)
    });
    let best: Schedule = match stitch {
        Some(opts) => {
            let st = r.leaf("sched.stitched.fourq", "sched", req, || {
                fourq_sched::stitched_exact_schedule(&problem, m, opts)
            });
            if st.schedule.makespan <= ils.makespan {
                st.schedule
            } else {
                ils
            }
        }
        None => ils,
    };
    r.leaf(finish_n, "sched", req, || {
        best.validate(&problem, m).expect("schedule validates");
        (
            fourq_sched::lower_bound(&problem, m),
            fourq_sched::serial_schedule(&problem, m),
        )
    });
    r.leaf(sim_n, "cpu", req, || {
        fourq_cpu::simulate(&trace, &best, m).expect("simulates")
    });
    r.leaf(alloc_n, "cpu", req, || {
        let alloc = fourq_cpu::allocate(&trace, &best, m);
        assert!(
            alloc.num_registers <= DEFAULT_REGISTER_BUDGET,
            "register budget"
        );
        ControlRom::assemble(&trace, &best, &alloc).expect("ROM assembles")
    });
    best.makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fewer_cycles_raise_fleet_sm_per_j() {
        let (at_3215, _) = fleet_sm_per_j(3215, 445);
        let (at_2570, _) = fleet_sm_per_j(2570, 445);
        assert!(at_2570 > at_3215, "{at_2570} vs {at_3215}");
        // One stall-free core at the calibration point is the paper's
        // 0.327 µJ per SM; stalls only lower the fleet figure.
        assert!(at_3215 <= 1.0 / 0.327e-6 * 1.0001, "{at_3215}");
        let mut last = 0.0;
        for cycles in (2600..=3600).rev().step_by(200) {
            let (v, _) = fleet_sm_per_j(cycles, 445);
            assert!(v > last, "not monotone at {cycles} cycles");
            last = v;
        }
    }
}
