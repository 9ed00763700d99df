//! The one source of truth behind `table2_report`: one set of kernels
//! per machine, one technology calibration, one area rule, for
//! both the prior-art comparison and the measured three-curve table.

use fourq_cpu::CompiledKernel;
use fourq_curve::CurveId;
use fourq_sched::MachineConfig;
use fourq_tech::{AreaModel, OperatingPoint, SotbModel};

/// All three curves compiled on one machine, plus the technology model
/// calibrated against the Fourℚ cycle count (the paper's anchor).
#[derive(Clone, Debug)]
pub struct MeasuredTable {
    /// SOTB model calibrated to [`MeasuredTable::fourq_cycles`].
    pub tech: SotbModel,
    /// The Fourℚ kernel's cycle count — the calibration anchor.
    pub fourq_cycles: u64,
    /// `(curve, kernel)` rows in [`CurveId::ALL`] order.
    pub rows: Vec<(CurveId, &'static CompiledKernel)>,
}

/// Compiles (or fetches from the process-wide cache) every curve's
/// kernel on `machine` and calibrates the technology model
/// once, against the Fourℚ row.
///
/// # Panics
///
/// Panics if any kernel fails to compile — the table binaries have no
/// useful degraded mode.
pub fn measured_table(machine: &MachineConfig) -> MeasuredTable {
    let rows: Vec<(CurveId, &'static CompiledKernel)> = CurveId::ALL
        .iter()
        .map(|&curve| {
            let k = fourq_cpu::shared_kernel(curve, machine)
                .unwrap_or_else(|e| panic!("{curve} kernel compiles: {e}"));
            (curve, k)
        })
        .collect();
    let fourq_cycles = rows
        .iter()
        .find(|(c, _)| *c == CurveId::FourQ)
        .expect("CurveId::ALL contains FourQ")
        .1
        .fingerprint
        .cycles;
    MeasuredTable {
        tech: SotbModel::calibrate_paper(fourq_cycles),
        fourq_cycles,
        rows,
    }
}

impl MeasuredTable {
    /// Operating point of one row's kernel at a voltage.
    pub fn operating_point(&self, kernel: &CompiledKernel, vdd: f64) -> OperatingPoint {
        self.tech.operating_point(vdd, kernel.fingerprint.cycles)
    }

    /// Area model of one row's kernel: register pressure, not allocated
    /// registers, sizes the register file.
    pub fn area(&self, kernel: &CompiledKernel) -> AreaModel {
        AreaModel::paper_like(
            kernel.fingerprint.register_pressure,
            kernel.fingerprint.rom_words,
        )
    }

    /// The row of `curve`.
    pub fn kernel(&self, curve: CurveId) -> &'static CompiledKernel {
        self.rows
            .iter()
            .find(|(c, _)| *c == curve)
            .expect("every curve has a row")
            .1
    }

    /// The Fourℚ row.
    pub fn fourq(&self) -> &'static CompiledKernel {
        self.kernel(CurveId::FourQ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourq_row_is_paper_anchored_and_priced_from_register_pressure() {
        let machine = MachineConfig::paper();
        let table = measured_table(&machine);
        let fourq = table.fourq();
        let kernel = fourq_cpu::shared_kernel(CurveId::FourQ, &machine).expect("compiles");
        assert!(std::ptr::eq(fourq, kernel), "the row is the cached kernel");
        assert_eq!(table.fourq_cycles, kernel.fingerprint.cycles);
        // Calibration makes the anchors the paper's by construction; the
        // check here is that the pipeline stayed wired together.
        let hi = table.operating_point(fourq, 1.2);
        assert!((hi.latency_us - 10.1).abs() < 0.2, "{}", hi.latency_us);
        let lo = table.operating_point(fourq, 0.32);
        assert!((lo.energy_uj - 0.327).abs() < 0.01, "{}", lo.energy_uj);
        let fp = &kernel.fingerprint;
        let by_pressure = AreaModel::paper_like(fp.register_pressure, fp.rom_words);
        let area = table.area(fourq);
        assert_eq!(area.total_kge(), by_pressure.total_kge());
        assert_eq!(area.area_mm2(), by_pressure.area_mm2());
    }
}
