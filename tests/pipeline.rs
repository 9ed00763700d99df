//! Cross-crate integration tests: the full trace → schedule → simulate
//! pipeline against the software library, across machine configurations
//! and scalars, plus the compile-once/execute-many kernel contract and
//! the multi-core fleet model's scaling.

use fourq::cpu::{shared_kernel, simulate, CompiledKernel};
use fourq::curve::{AffinePoint, CurveId};
use fourq::fp::{Scalar, U256};
use fourq::sched::{lower_bound, schedule, trace_to_problem, MachineConfig};
use fourq::tech::fleet::{simulate_fleet, CoreSpec, FleetConfig};
use fourq::trace::{trace_scalar_mul, trace_scalar_mul_for};

fn full_scalar() -> Scalar {
    Scalar::from_u256(
        U256::from_hex("1d3f297b1a2c4d5e6f708192a3b4c5d6e7f8091a2b3c4d5e6f70819202122231").unwrap(),
    )
}

/// The shared Fourℚ kernel of `machine`.
fn kernel_on(machine: &MachineConfig) -> &'static CompiledKernel {
    shared_kernel(CurveId::FourQ, machine).expect("pipeline compiles")
}

#[test]
fn pipeline_works_across_machine_configs() {
    let k = Scalar::from_u64(0xdead_beef_1234_5677);
    let recorded = trace_scalar_mul(&k);
    let problem = trace_to_problem(&recorded.trace);
    let configs = [
        MachineConfig::paper(),
        MachineConfig {
            mul_latency: 4,
            ..MachineConfig::paper()
        },
        MachineConfig {
            mul_units: 2,
            read_ports: 8,
            write_ports: 4,
            ..MachineConfig::paper()
        },
        MachineConfig {
            forwarding: false,
            ..MachineConfig::paper()
        },
        MachineConfig {
            read_ports: 2,
            write_ports: 1,
            ..MachineConfig::paper()
        },
    ];
    for (ci, machine) in configs.iter().enumerate() {
        let sched = schedule(&problem, machine, 2);
        sched
            .validate(&problem, machine)
            .unwrap_or_else(|e| panic!("config {ci}: invalid schedule: {e}"));
        let sim = simulate(&recorded.trace, &sched, machine)
            .unwrap_or_else(|e| panic!("config {ci}: simulation failed: {e}"));
        assert_eq!(
            sim.outputs[0].1.as_fp2(),
            recorded.expected.x,
            "config {ci}"
        );
        assert_eq!(
            sim.outputs[1].1.as_fp2(),
            recorded.expected.y,
            "config {ci}"
        );
        assert!(sim.cycles >= lower_bound(&problem, machine), "config {ci}");
    }
}

#[test]
fn schedule_quality_gap_is_bounded() {
    // The open-source scheduler must stay within 25% of the lower bound on
    // the real workload (the paper's CP-solver flow motivates automated
    // scheduling; ours documents its gap).
    let recorded = trace_scalar_mul(&full_scalar());
    let problem = trace_to_problem(&recorded.trace);
    let machine = MachineConfig::paper();
    let sched = schedule(&problem, &machine, 48);
    let lb = lower_bound(&problem, &machine);
    let gap = sched.makespan as f64 / lb as f64;
    assert!(
        gap < 1.55,
        "schedule gap too large: {gap:.3} (lb {lb}, got {})",
        sched.makespan
    );
}

#[test]
fn traced_program_is_scalar_independent_in_size() {
    // The uniform always-compute-and-select program is *identical* in
    // size for every scalar: digit signs and table indices are runtime
    // mux selectors, never baked into the SSA stream.
    let a = trace_scalar_mul(&Scalar::from_u64(3)).trace.stats();
    let b = trace_scalar_mul(&full_scalar()).trace.stats();
    assert_eq!(
        a.total(),
        b.total(),
        "trace sizes diverge: {} vs {}",
        a.total(),
        b.total()
    );
    assert_eq!(a, b, "op mix diverges between scalars");
}

#[test]
fn compiled_kernel_execute_equals_software() {
    let machine = MachineConfig::paper();
    let kernel = kernel_on(&machine);
    let g = AffinePoint::generator();
    for k in [
        Scalar::from_u64(1),
        Scalar::from_u64(2),
        Scalar::from_u64(0xffff_ffff_ffff_fffe),
        full_scalar(),
    ] {
        let got = kernel.execute(&g, &k).expect("kernel executes");
        assert_eq!(got, g.mul_generic(&k));
    }
    // Random scalars and bases through the same fixed microcode.
    fourq_testkit::prop_check!(cases = 8, |k: Scalar| {
        let got = kernel.execute(&g, &k).expect("kernel executes");
        assert_eq!(got, g.mul_generic(&k));
    });
    fourq_testkit::prop_check!(cases = 4, |b: AffinePoint, k: Scalar| {
        let got = kernel.execute(&b, &k).expect("kernel executes");
        assert_eq!(got, b.mul_generic(&k));
    });
}

#[test]
fn compiled_kernel_batch_is_thread_count_invariant() {
    let machine = MachineConfig::paper();
    let kernel = kernel_on(&machine);
    let g = AffinePoint::generator();
    let ks: Vec<Scalar> = (1u64..=9)
        .map(|i| Scalar::from_u64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    fourq_testkit::diff_check!(|threads| {
        kernel
            .execute_batch_with(&g, &ks, threads)
            .expect("kernel executes")
            .into_iter()
            .map(|p| (p.x, p.y))
            .collect::<Vec<_>>()
    });
}

#[test]
fn shared_kernel_is_compiled_once_per_config() {
    let machine = MachineConfig::paper();
    for curve in CurveId::ALL {
        let first = shared_kernel(curve, &machine).expect("pipeline compiles");
        let again = shared_kernel(curve, &machine).expect("pipeline compiles");
        assert!(
            std::ptr::eq(first, again),
            "{}: same (curve, machine) must hit the cache",
            curve.name()
        );
    }
    let narrow = MachineConfig {
        read_ports: 2,
        write_ports: 1,
        ..MachineConfig::paper()
    };
    assert!(
        !std::ptr::eq(kernel_on(&machine), kernel_on(&narrow)),
        "distinct configs get distinct kernels"
    );
}

#[test]
fn four_cores_on_two_rom_ports_double_one_core() {
    // Homogeneous Fourℚ cores sharing a 2-port table ROM. The fleet model
    // is deterministic, so port arbitration that costs four cores more
    // than two cores' worth of throughput fails here on any host.
    let fp = &kernel_on(&MachineConfig::paper()).fingerprint;
    let ops_per_cycle = |cores: usize| {
        let cfg = FleetConfig {
            rom_ports: 2,
            cores: (0..cores)
                .map(|_| CoreSpec {
                    name: "fourq".to_string(),
                    cycles_per_op: fp.cycles,
                    rom_reads_per_op: fp.mux_count as u64,
                })
                .collect(),
        };
        simulate_fleet(&cfg, 8 * fp.cycles).ops_per_cycle
    };
    let (solo, quad) = (ops_per_cycle(1), ops_per_cycle(4));
    let scaling = quad / solo;
    assert!(
        scaling >= 2.0,
        "4 cores / 2 ROM ports reach {scaling:.2}x one core ({solo:.3e} -> {quad:.3e} ops/cycle)"
    );
}

#[test]
fn signature_over_simulated_datapath_point() {
    // Use the simulated-datapath result as a public key and verify a
    // signature against it — ties sig, curve and cpu crates together.
    let machine = MachineConfig::paper();
    let secret = Scalar::from_u64(0x5eed_1234_abcd_ef01);
    let public = kernel_on(&machine)
        .execute(&AffinePoint::generator(), &secret)
        .expect("kernel executes");
    let kp = fourq::sig::ecdsa::KeyPair::from_secret(secret).unwrap();
    assert_eq!(kp.public, public);
    let sig = kp.sign(b"cross-crate message").unwrap();
    assert!(fourq::sig::ecdsa::verify(
        &public,
        b"cross-crate message",
        &sig
    ));
}

#[test]
fn trace_for_arbitrary_base_self_checks() {
    let base = AffinePoint::generator().mul(&Scalar::from_u64(31337));
    let rec = trace_scalar_mul_for(&base, &Scalar::from_u64(99991));
    assert!(rec.trace.self_check());
    assert_eq!(rec.expected, base.mul(&Scalar::from_u64(99991)));
}
