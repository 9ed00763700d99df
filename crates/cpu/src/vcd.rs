//! VCD (Value Change Dump) export of a scheduled program's execution.
//!
//! Writes the cycle-by-cycle activity of the datapath — issue valid
//! signals, opcode of each unit, busy flags, and write-back strobes — in
//! the standard IEEE 1364 VCD format, so a schedule can be inspected in
//! GTKWave or any waveform viewer exactly like a gate-level simulation of
//! the fabricated design would be.

use crate::SimError;
use fourq_sched::{MachineConfig, Schedule};
use fourq_trace::{OpKind, Trace, Unit};
use std::fmt::Write as _;

/// Renders the execution of `trace` under `sched` as a VCD document.
///
/// Signals: `clk`, `mul_issue`, `mul_busy`, `mul_wb`, `add_issue`,
/// `add_op[2:0]`, `add_wb`, and the 16-bit `pc` (ROM address). Time unit:
/// one nanosecond per half clock cycle.
///
/// # Errors
///
/// Returns [`SimError::LengthMismatch`] if the schedule does not belong
/// to the trace.
pub fn export_vcd(
    trace: &Trace,
    sched: &Schedule,
    machine: &MachineConfig,
) -> Result<String, SimError> {
    let n = trace.nodes.len();
    if sched.start.len() != n {
        return Err(SimError::LengthMismatch);
    }

    let mut out = String::new();
    let _ = writeln!(out, "$timescale 1ns $end");
    let _ = writeln!(out, "$scope module fourq_sm_unit $end");
    let _ = writeln!(out, "$var wire 1 ! clk $end");
    let _ = writeln!(out, "$var wire 1 m mul_issue $end");
    let _ = writeln!(out, "$var wire 1 b mul_busy $end");
    let _ = writeln!(out, "$var wire 1 w mul_wb $end");
    let _ = writeln!(out, "$var wire 1 a add_issue $end");
    let _ = writeln!(out, "$var wire 3 o add_op $end");
    let _ = writeln!(out, "$var wire 1 v add_wb $end");
    let _ = writeln!(out, "$var wire 16 p pc $end");
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // Precompute per-cycle events.
    let cycles = sched.makespan + 1;
    let mut mul_issue = vec![false; cycles as usize];
    let mut add_issue = vec![false; cycles as usize];
    let mut add_op = vec![0u8; cycles as usize];
    let mut mul_wb = vec![false; cycles as usize];
    let mut add_wb = vec![false; cycles as usize];
    for (i, node) in trace.nodes.iter().enumerate() {
        let s = sched.start[i] as usize;
        match node.kind.unit() {
            Unit::Multiplier => {
                mul_issue[s] = true;
                let f = s + machine.mul_latency as usize;
                if f < cycles as usize {
                    mul_wb[f] = true;
                }
            }
            Unit::AddSub => {
                add_issue[s] = true;
                add_op[s] = match node.kind {
                    OpKind::Add => 1,
                    OpKind::Sub => 2,
                    OpKind::Neg => 3,
                    OpKind::Conj => 4,
                    _ => 0,
                };
                let f = s + machine.addsub_latency as usize;
                if f < cycles as usize {
                    add_wb[f] = true;
                }
            }
        }
    }
    // busy: multiplier pipeline occupied (any op in flight)
    let mut mul_busy = vec![false; cycles as usize];
    for (i, node) in trace.nodes.iter().enumerate() {
        if node.kind.unit() == Unit::Multiplier {
            let s = sched.start[i] as usize;
            let end = (s + machine.mul_latency as usize).min(cycles as usize);
            mul_busy[s..end].fill(true);
        }
    }

    let mut prev: Option<(bool, bool, bool, bool, u8, bool)> = None;
    for c in 0..cycles as usize {
        let t_rise = 2 * c;
        let _ = writeln!(out, "#{t_rise}");
        let _ = writeln!(out, "1!");
        let cur = (
            mul_issue[c],
            mul_busy[c],
            mul_wb[c],
            add_issue[c],
            add_op[c],
            add_wb[c],
        );
        if prev.map(|p| p.0) != Some(cur.0) {
            let _ = writeln!(out, "{}m", cur.0 as u8);
        }
        if prev.map(|p| p.1) != Some(cur.1) {
            let _ = writeln!(out, "{}b", cur.1 as u8);
        }
        if prev.map(|p| p.2) != Some(cur.2) {
            let _ = writeln!(out, "{}w", cur.2 as u8);
        }
        if prev.map(|p| p.3) != Some(cur.3) {
            let _ = writeln!(out, "{}a", cur.3 as u8);
        }
        if prev.map(|p| p.4) != Some(cur.4) {
            let _ = writeln!(out, "b{:03b} o", cur.4);
        }
        if prev.map(|p| p.5) != Some(cur.5) {
            let _ = writeln!(out, "{}v", cur.5 as u8);
        }
        if prev.is_none() || c > 0 {
            let _ = writeln!(out, "b{:016b} p", c as u16);
        }
        prev = Some(cur);
        let _ = writeln!(out, "#{}", t_rise + 1);
        let _ = writeln!(out, "0!");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourq_sched::{schedule, trace_to_problem};

    #[test]
    fn vcd_export_is_well_formed() {
        let t = fourq_trace::trace_double_add_iteration();
        let p = trace_to_problem(&t);
        let m = MachineConfig::paper();
        let s = schedule(&p, &m, 8);
        let vcd = export_vcd(&t, &s, &m).expect("export");
        assert!(vcd.starts_with("$timescale"));
        assert!(vcd.contains("$enddefinitions $end"));
        // one rising edge per cycle
        let rises = vcd.matches("\n1!\n").count();
        assert_eq!(rises as u64, s.makespan + 1);
        // issue strobes appear
        assert!(vcd.contains("1m"));
        assert!(vcd.contains("1a"));
    }

    #[test]
    fn vcd_rejects_wrong_schedule() {
        let t = fourq_trace::trace_double_add_iteration();
        let m = MachineConfig::paper();
        let bogus = Schedule {
            start: vec![0; 3],
            makespan: 1,
        };
        assert_eq!(export_vcd(&t, &bogus, &m), Err(SimError::LengthMismatch));
    }
}
