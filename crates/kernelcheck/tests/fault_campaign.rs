//! The ≥64-case single-bit fault-injection campaign: every corruption
//! must be caught, either statically by the verifier or (pure-data
//! faults) by the runtime on-curve / software-reference audit.

use fourq_curve::CurveId;
use fourq_sched::MachineConfig;
use fourq_testkit::fault::{run_campaign, Detection, FaultClass};

#[test]
fn sixty_four_fault_campaign_detects_everything() {
    let kernel =
        fourq_cpu::shared_kernel(CurveId::FourQ, &MachineConfig::paper()).expect("compiles");
    let report = run_campaign(kernel, 64, 0xdeadf001);
    assert_eq!(report.outcomes.len(), 64);

    if let Some(o) = report.undetected().first() {
        panic!("undetected fault: {:?} at {}", o.class, o.site);
    }
    assert!(report.all_detected());

    // The class split the detection-guarantee design promises: every
    // structural fault is caught before execution; constant faults are
    // invisible to the structural rules by construction, so each one the
    // statics missed must have been caught at runtime.
    for o in &report.outcomes {
        match o.class {
            FaultClass::Constant => {}
            _ => assert!(
                matches!(o.detection, Detection::Static { .. }),
                "structural fault fell through to runtime: {:?} at {} ({:?})",
                o.class,
                o.site,
                o.detection
            ),
        }
    }
    let statics = report.static_detections();
    let runtimes = report.runtime_detections();
    assert_eq!(statics + runtimes, 64);
    assert!(statics >= 48, "three structural classes: {statics} static");
}

#[test]
fn campaign_exercises_every_class() {
    let kernel =
        fourq_cpu::shared_kernel(CurveId::FourQ, &MachineConfig::paper()).expect("compiles");
    let report = run_campaign(kernel, 64, 1);
    for class in [
        FaultClass::RomWord,
        FaultClass::RouteTable,
        FaultClass::Allocation,
        FaultClass::Constant,
    ] {
        let n = report.outcomes.iter().filter(|o| o.class == class).count();
        assert_eq!(n, 16, "{class:?} gets an even quarter of the budget");
    }
}
