//! Golden corpus of known-bad kernels: one test per verifier rule,
//! asserting the exact typed diagnostic fires.
//!
//! Each fixture starts from the clean shared kernel for the paper
//! machine, applies one surgical corruption through the kernel's public
//! fields, and checks the expected [`KernelDiag`] variant — with its
//! exact payload where the corruption pins it down — appears in the
//! findings. Fixtures never execute the corrupted kernels; they are
//! static artifacts only.

use fourq_cpu::{shared_kernel, verify, CheckLevel, CompiledKernel, KernelDiag, Src};
use fourq_curve::CurveId;
use fourq_sched::MachineConfig;
use fourq_trace::{Operand, Selector, TraceError, Unit};

fn kernel() -> &'static CompiledKernel {
    shared_kernel(CurveId::FourQ, &MachineConfig::paper()).expect("clean kernel compiles")
}

fn latency(k: &CompiledKernel, i: usize) -> u64 {
    match k.trace.nodes[i].kind.unit() {
        Unit::Multiplier => k.machine.mul_latency as u64,
        Unit::AddSub => k.machine.addsub_latency as u64,
    }
}

fn finish(k: &CompiledKernel, i: usize) -> u64 {
    k.schedule.start[i] + latency(k, i)
}

#[test]
fn clean_kernel_is_clean_at_both_levels() {
    for level in [CheckLevel::Quick, CheckLevel::Full] {
        let r = verify(kernel(), level);
        assert!(r.is_clean(), "{level}: {:?}", r.findings);
    }
}

#[test]
fn corrupted_trace_fires_k_flow_trace() {
    let mut k = kernel().clone();
    k.trace.values.pop();
    let r = verify(&k, CheckLevel::Quick);
    assert_eq!(
        r.findings,
        vec![KernelDiag::Trace(TraceError::ValueCountMismatch)]
    );
}

#[test]
fn truncated_schedule_fires_k_flow_len() {
    let mut k = kernel().clone();
    let expected = k.trace.nodes.len();
    k.schedule.start.pop();
    let r = verify(&k, CheckLevel::Quick);
    assert_eq!(
        r.findings,
        vec![KernelDiag::ScheduleLengthMismatch {
            expected,
            got: expected - 1,
        }]
    );
}

#[test]
fn inflated_makespan_fires_k_flow_span() {
    let mut k = kernel().clone();
    let actual = k.schedule.makespan;
    k.schedule.makespan += 3;
    let r = verify(&k, CheckLevel::Quick);
    assert!(r.findings.contains(&KernelDiag::MakespanMismatch {
        claimed: actual + 3,
        actual,
    }));
}

/// The over-latency RAW pair: a consumer pulled under its producer's
/// latency shadow.
#[test]
fn over_latency_raw_pair_fires_k_flow_raw() {
    let k0 = kernel();
    let base = k0.trace.first_op_id();
    // Find a consumer with a direct op-produced operand that does not
    // define the makespan, and issue it exactly when its dep issues.
    let (op, dep) = k0
        .trace
        .nodes
        .iter()
        .enumerate()
        .find_map(|(i, node)| {
            let d = core::iter::once(node.a)
                .chain(node.b)
                .find_map(|o| match o {
                    Operand::Val(id) if id >= base => Some(id - base),
                    _ => None,
                })?;
            (finish(k0, i) < k0.schedule.makespan).then_some((i, d))
        })
        .expect("ladder has op→op dependencies");
    let mut k = k0.clone();
    k.schedule.start[op] = k.schedule.start[dep];
    let r = verify(&k, CheckLevel::Quick);
    assert!(
        r.findings.contains(&KernelDiag::RawHazard {
            op,
            dep,
            issue: k.schedule.start[op],
            ready: finish(&k, dep),
        }),
        "findings: {:?}",
        r.findings
    );
}

#[test]
fn colliding_issue_slots_fire_k_flow_issue() {
    let k0 = kernel();
    // Two multiplies forced onto the single multiplier in one cycle.
    let muls: Vec<usize> = k0
        .trace
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.kind.unit() == Unit::Multiplier)
        .map(|(i, _)| i)
        .take(2)
        .collect();
    let mut k = k0.clone();
    k.schedule.start[muls[1]] = k.schedule.start[muls[0]];
    let r = verify(&k, CheckLevel::Quick);
    assert!(
        r.findings.iter().any(|d| matches!(
            d,
            KernelDiag::IssueOversubscribed {
                unit: Unit::Multiplier,
                issued: 2,
                units: 1,
                ..
            }
        )),
        "findings: {:?}",
        r.findings
    );
}

#[test]
fn exhausted_read_ports_fire_k_flow_rport() {
    let mut k = kernel().clone();
    k.machine.read_ports = 0;
    let r = verify(&k, CheckLevel::Quick);
    assert!(r
        .findings
        .iter()
        .any(|d| matches!(d, KernelDiag::ReadPortsExceeded { ports: 0, .. })));
}

#[test]
fn exhausted_write_ports_fire_k_flow_wport() {
    let mut k = kernel().clone();
    k.machine.write_ports = 0;
    let r = verify(&k, CheckLevel::Quick);
    assert!(r
        .findings
        .iter()
        .any(|d| matches!(d, KernelDiag::WritePortsExceeded { ports: 0, .. })));
}

#[test]
fn truncated_allocation_fires_k_flow_alen() {
    let mut k = kernel().clone();
    let expected = k.allocation.assignment.len();
    k.allocation.assignment.pop();
    let r = verify(&k, CheckLevel::Quick);
    assert_eq!(
        r.findings,
        vec![KernelDiag::AllocationLengthMismatch {
            expected,
            got: expected - 1,
        }]
    );
}

#[test]
fn out_of_range_register_fires_k_flow_reg() {
    let mut k = kernel().clone();
    let registers = k.allocation.num_registers;
    let reg = registers as u16 + 7;
    k.allocation.assignment[3] = reg;
    let r = verify(&k, CheckLevel::Quick);
    assert!(r.findings.contains(&KernelDiag::RegisterOutOfRange {
        value: 3,
        reg,
        registers,
    }));
}

/// The double-writer cycle: two results retiring into one register on
/// the same edge.
#[test]
fn double_writer_cycle_fires_k_flow_ww() {
    let k0 = kernel();
    let base = k0.trace.first_op_id();
    // Find two ops retiring on the same cycle (a mul and an add whose
    // latencies line up) and alias their destination registers.
    let mut by_cycle: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let (first, second) = (0..k0.trace.nodes.len())
        .find_map(|i| by_cycle.insert(finish(k0, i), i).map(|f| (f, i)))
        .expect("a 2-write-port machine retires pairs");
    let mut k = k0.clone();
    let reg = k.allocation.assignment[base + first];
    k.allocation.assignment[base + second] = reg;
    let r = verify(&k, CheckLevel::Quick);
    assert!(
        r.findings.contains(&KernelDiag::DoubleWrite {
            cycle: finish(&k, first),
            reg,
            first,
            second,
        }),
        "findings: {:?}",
        r.findings
    );
}

#[test]
fn aliased_live_ranges_fire_k_flow_clobber() {
    let mut k = kernel().clone();
    // Two program inputs in one register: both born at cycle 0, so the
    // second write lands inside the first one's live range.
    let reg = k.allocation.assignment[0];
    k.allocation.assignment[1] = reg;
    let r = verify(&k, CheckLevel::Full);
    assert!(
        r.findings.contains(&KernelDiag::RegisterClobber {
            reg,
            victim: 0,
            writer: 1,
        }),
        "findings: {:?}",
        r.findings
    );
}

#[test]
fn register_renaming_fires_k_flow_canon() {
    let k0 = kernel();
    // Swap two physical registers everywhere: still functionally sound
    // (disjoint intervals stay disjoint under renaming), so only the
    // canonicality rule can catch it.
    let a = k0.allocation.assignment[0];
    let b = k0
        .allocation
        .assignment
        .iter()
        .copied()
        .find(|&r| r != a)
        .expect("more than one register");
    let mut k = k0.clone();
    for r in &mut k.allocation.assignment {
        if *r == a {
            *r = b;
        } else if *r == b {
            *r = a;
        }
    }
    let quick = verify(&k, CheckLevel::Quick);
    assert!(
        quick.is_clean(),
        "renaming is structurally sound: {:?}",
        quick.findings
    );
    let full = verify(&k, CheckLevel::Full);
    assert!(full
        .findings
        .iter()
        .any(|d| matches!(d, KernelDiag::AllocationNotCanonical { .. })));
}

#[test]
fn truncated_rom_fires_k_flow_romlen() {
    let mut k = kernel().clone();
    let rom = k.rom.as_mut().expect("paper machine has a packed ROM");
    let expected = rom.words.len();
    rom.words.pop();
    let r = verify(&k, CheckLevel::Quick);
    assert!(r.findings.contains(&KernelDiag::RomLengthMismatch {
        expected,
        got: expected - 1,
    }));
}

/// The corrupted ROM word: one flipped control bit.
#[test]
fn corrupted_rom_word_fires_k_flow_rom() {
    let k0 = kernel();
    let cycle = k0
        .rom
        .as_ref()
        .expect("packed ROM")
        .words
        .iter()
        .position(|w| w.mul_valid)
        .expect("some cycle issues a multiply");
    let mut k = k0.clone();
    k.rom.as_mut().unwrap().words[cycle].mul_sqr ^= true;
    let quick = verify(&k, CheckLevel::Quick);
    assert!(
        quick.is_clean(),
        "a word flip is invisible to the quick pass: {:?}",
        quick.findings
    );
    let full = verify(&k, CheckLevel::Full);
    assert!(
        full.findings.contains(&KernelDiag::RomWordMismatch {
            cycle: cycle as u64,
        }),
        "findings: {:?}",
        full.findings
    );
}

#[test]
fn extra_route_fires_k_obliv_count_and_dangling() {
    let mut k = kernel().clone();
    let rom = k.rom.as_mut().expect("packed ROM");
    let expected = rom.routes.len();
    rom.routes.push(rom.routes[0].clone());
    let r = verify(&k, CheckLevel::Quick);
    assert!(r.findings.contains(&KernelDiag::RouteCountMismatch {
        expected,
        got: expected + 1,
    }));
    assert!(r
        .findings
        .contains(&KernelDiag::DanglingRoute { route: expected }));
}

/// The digit-tainted route index: a control word selecting outside the
/// sanctioned route table.
#[test]
fn out_of_table_route_index_fires_k_obliv_route() {
    let k0 = kernel();
    let rom0 = k0.rom.as_ref().expect("packed ROM");
    let routes = rom0.routes.len();
    // Find a word with a live route-resolved read in any source slot and
    // point it past the table.
    let (cycle, slot) = rom0
        .words
        .iter()
        .enumerate()
        .find_map(|(c, w)| {
            if w.mul_valid && matches!(w.mul_a, Src::Route(_)) {
                Some((c, 0))
            } else if w.mul_valid && !w.mul_sqr && matches!(w.mul_b, Src::Route(_)) {
                Some((c, 1))
            } else if w.add_valid && matches!(w.add_a, Src::Route(_)) {
                Some((c, 2))
            } else if w.add_valid && w.add_op < 2 && matches!(w.add_b, Src::Route(_)) {
                Some((c, 3))
            } else {
                None
            }
        })
        .expect("table reads go through routes");
    let mut k = k0.clone();
    let bad = Src::Route(routes as u16 + 41);
    let w = &mut k.rom.as_mut().unwrap().words[cycle];
    match slot {
        0 => w.mul_a = bad,
        1 => w.mul_b = bad,
        2 => w.add_a = bad,
        _ => w.add_b = bad,
    }
    let r = verify(&k, CheckLevel::Quick);
    assert!(
        r.findings.contains(&KernelDiag::RouteOutOfRange {
            cycle: cycle as u64,
            route: routes as u16 + 41,
            routes,
        }),
        "findings: {:?}",
        r.findings
    );
}

#[test]
fn self_referential_route_fires_k_obliv_chain() {
    let mut k = kernel().clone();
    let rom = k.rom.as_mut().expect("packed ROM");
    let ri = rom.routes.len() / 2;
    rom.routes[ri].cands[0] = Src::Route(ri as u16);
    let r = verify(&k, CheckLevel::Quick);
    assert!(r.findings.contains(&KernelDiag::RouteForwardReference {
        route: ri,
        target: ri,
    }));
}

#[test]
fn dropped_candidate_fires_k_obliv_arity() {
    let mut k = kernel().clone();
    let rom = k.rom.as_mut().expect("packed ROM");
    let ri = rom
        .routes
        .iter()
        .position(|r| r.sel.arity() == 8)
        .expect("table-index routes have arity 8");
    rom.routes[ri].cands.pop();
    let r = verify(&k, CheckLevel::Quick);
    assert!(r.findings.contains(&KernelDiag::RouteArityMismatch {
        route: ri,
        expected: 8,
        got: 7,
    }));
}

#[test]
fn uncovered_digit_position_fires_k_obliv_digit() {
    let mut k = kernel().clone();
    let rom = k.rom.as_mut().expect("packed ROM");
    let ri = rom
        .routes
        .iter()
        .position(|r| matches!(r.sel, Selector::TableIndex(_)))
        .expect("table-index routes exist");
    rom.routes[ri].sel = Selector::TableIndex(10_000);
    let r = verify(&k, CheckLevel::Quick);
    assert!(r
        .findings
        .contains(&KernelDiag::SelectorDigitOutOfRange { route: ri }));
}

#[test]
fn out_of_file_candidate_fires_k_obliv_reg() {
    let mut k = kernel().clone();
    let registers = k.allocation.num_registers;
    let rom = k.rom.as_mut().expect("packed ROM");
    let ri = rom
        .routes
        .iter()
        .position(|r| matches!(r.cands[0], Src::Reg(_)))
        .expect("routes resolve to registers");
    rom.routes[ri].cands[0] = Src::Reg(registers as u16 + 9);
    let r = verify(&k, CheckLevel::Quick);
    assert!(r.findings.contains(&KernelDiag::RouteBadRegister {
        route: ri,
        reg: registers as u16 + 9,
        registers,
    }));
}

#[test]
fn swapped_candidates_fire_k_obliv_table() {
    let k0 = kernel();
    let rom0 = k0.rom.as_ref().expect("packed ROM");
    // Swap two register candidates inside one route: ranges, arity and
    // chain direction all stay legal, so only the canonical table diff
    // can see the (digit-semantics-inverting) change.
    let ri = rom0
        .routes
        .iter()
        .position(|r| {
            matches!((r.cands.first(), r.cands.get(1)),
                (Some(Src::Reg(a)), Some(Src::Reg(b))) if a != b)
        })
        .expect("a route with two distinct register candidates");
    let mut k = k0.clone();
    k.rom.as_mut().unwrap().routes[ri].cands.swap(0, 1);
    let quick = verify(&k, CheckLevel::Quick);
    assert!(
        quick.is_clean(),
        "swap is structurally legal: {:?}",
        quick.findings
    );
    let full = verify(&k, CheckLevel::Full);
    assert!(full
        .findings
        .contains(&KernelDiag::RouteMismatch { route: ri }));
}

#[test]
fn premature_mux_read_fires_k_obliv_timing() {
    let k0 = kernel();
    let base = k0.trace.first_op_id();
    let reach = k0.trace.mux_reach();
    // Find a consumer reading through a mux with at least one op-produced
    // candidate, and issue it before that candidate's producer finishes.
    let (op, mux, producer) = k0
        .trace
        .nodes
        .iter()
        .enumerate()
        .find_map(|(i, node)| {
            core::iter::once(node.a)
                .chain(node.b)
                .find_map(|o| match o {
                    Operand::Mux(m) => reach[m]
                        .iter()
                        .filter(|&&id| id >= base)
                        .map(|&id| id - base)
                        .max_by_key(|&p| finish(k0, p))
                        .map(|p| (i, m, p)),
                    _ => None,
                })
        })
        .expect("digit-selected table reads exist");
    let mut k = k0.clone();
    k.schedule.start[op] = finish(k0, producer) - 1;
    let r = verify(&k, CheckLevel::Quick);
    assert!(
        r.findings
            .contains(&KernelDiag::DigitTimingLeak { op, mux, producer }),
        "findings: {:?}",
        r.findings
    );
}

#[test]
fn dishonest_fingerprint_fires_k_res_fp() {
    let mut k = kernel().clone();
    let actual = k.fingerprint.cycles;
    k.fingerprint.cycles += 10;
    let quick = verify(&k, CheckLevel::Quick);
    assert!(
        quick.is_clean(),
        "fingerprint honesty is a full-level check: {:?}",
        quick.findings
    );
    let full = verify(&k, CheckLevel::Full);
    assert!(full.findings.contains(&KernelDiag::FingerprintMismatch {
        field: "cycles",
        claimed: actual + 10,
        actual,
    }));
}
