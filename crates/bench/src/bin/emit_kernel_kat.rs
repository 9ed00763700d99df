//! Regenerates the golden kernel-fingerprint known-answer-test file
//! `tests/vectors/fourq_kernel_kat.json` on stdout.
//!
//! ```text
//! cargo run --release -p fourq-bench --bin emit_kernel_kat > tests/vectors/fourq_kernel_kat.json
//! ```
//!
//! A compiled kernel's fingerprint — cycle count, op counts by kind,
//! control-ROM geometry, register pressure — is a deterministic function
//! of the curve and the machine configuration, so regenerating the file
//! must be a no-op unless the pipeline itself changed. Schema v2 pins
//! one fingerprint per curve (Fourℚ, X25519, P-256) so a behavioural
//! drift in any curve's trace, scheduler, register allocator or ROM
//! encoder trips `tests/kat.rs::kernel_fingerprint_kat`. A caught drift
//! is either a real regression or an intentional change that must
//! regenerate this file and say why in the PR.

use fourq_curve::CurveId;
use fourq_sched::MachineConfig;

/// Schema tag of the kernel KAT file.
const SCHEMA: &str = "fourq-kernel-kat/v2";

/// ILS effort the golden vector records. The schedule does not depend on
/// it (`ils_restarts_do_not_pay` in `fourq-cpu`), so these fingerprints
/// are the shared kernels' too.
const EFFORT: u32 = 2;

fn main() {
    let machine = MachineConfig::paper();
    print!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"machine\": \"paper\",\n  \"effort\": {EFFORT},\n  \
         \"kernels\": {{\n"
    );
    for (i, curve) in CurveId::ALL.into_iter().enumerate() {
        let kernel = fourq_cpu::compile_curve(curve, &machine, EFFORT)
            .unwrap_or_else(|e| panic!("{curve} pipeline compiles: {e}"));
        let fp = &kernel.fingerprint;
        let ops = &fp.op_counts;
        let comma = if i + 1 < CurveId::ALL.len() { "," } else { "" };
        print!(
            "    \"{}\": {{\n      \"cycles\": {},\n      \"lower_bound\": {},\n      \
             \"serial_cycles\": {},\n      \"rom_words\": {},\n      \"rom_bits\": {},\n      \
             \"registers\": {},\n      \"register_pressure\": {},\n      \"mux_count\": {},\n      \
             \"ops\": {{\"mul\": {}, \"sqr\": {}, \"add\": {}, \"sub\": {}, \"neg\": {}, \
             \"conj\": {}}}\n    }}{comma}\n",
            curve.name(),
            fp.cycles,
            fp.lower_bound,
            fp.serial_cycles,
            fp.rom_words,
            fp.rom_bits,
            fp.registers,
            fp.register_pressure,
            fp.mux_count,
            ops.mul,
            ops.sqr,
            ops.add,
            ops.sub,
            ops.neg,
            ops.conj,
        );
    }
    print!("  }}\n}}\n");
}
