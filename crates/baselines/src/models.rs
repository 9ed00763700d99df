//! The prior-art rows of the paper's Table II, as reported data.
//!
//! Each row carries the figures the cited papers report (and that the DATE
//! paper tabulates). The Table II harness in `fourq-bench` combines these
//! with our *simulated* FourQ ASIC row to regenerate the comparison and
//! the headline ratios (15.5× vs FourQ-FPGA \[10\], 3.66× vs P-256-ASIC \[5\],
//! 5.14× energy vs the ECDSA processor \[17\]).

/// Hardware platform of a design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Platform {
    /// Application-specific IC, with the process node in nm.
    Asic(u32),
    /// FPGA family.
    Fpga(&'static str),
}

/// One row of Table II.
#[derive(Clone, Copy, Debug)]
pub struct ReportedRow {
    /// Citation key as printed in the paper.
    pub design: &'static str,
    /// Implementation platform.
    pub platform: Platform,
    /// Curve computed on.
    pub curve: &'static str,
    /// Parallel core count.
    pub cores: u32,
    /// Area in kGE where reported (ASIC designs).
    pub area_kge: Option<f64>,
    /// Supply voltage in volts, where reported.
    pub vdd: Option<f64>,
    /// Latency per operation in milliseconds.
    pub latency_ms: Option<f64>,
    /// Throughput in operations per second.
    pub throughput: Option<f64>,
    /// Energy per operation in microjoules.
    pub energy_uj: Option<f64>,
    /// What the "operation" is (SM, signature generation/verification).
    pub operation: &'static str,
}

impl ReportedRow {
    /// Latency–area product (`kGE × ms`), the paper's last column.
    pub fn latency_area_product(&self) -> Option<f64> {
        Some(self.area_kge? * self.latency_ms?)
    }
}

/// The prior-art rows of Table II (reported figures from the cited works).
pub const TABLE2_PRIOR_ART: &[ReportedRow] = &[
    ReportedRow {
        design: "[5]",
        platform: Platform::Asic(45),
        curve: "NIST P-256",
        cores: 1,
        area_kge: Some(1030.0),
        vdd: None,
        latency_ms: Some(0.0370),
        throughput: Some(2.70e4),
        energy_uj: None,
        operation: "signature verification",
    },
    ReportedRow {
        design: "[5]",
        platform: Platform::Asic(45),
        curve: "NIST P-256",
        cores: 1,
        area_kge: Some(373.0),
        vdd: None,
        latency_ms: Some(0.0750),
        throughput: Some(1.33e4),
        energy_uj: None,
        operation: "signature verification",
    },
    ReportedRow {
        design: "[5]",
        platform: Platform::Asic(45),
        curve: "NIST P-256",
        cores: 1,
        area_kge: Some(322.0),
        vdd: None,
        latency_ms: Some(0.0760),
        throughput: Some(1.32e4),
        energy_uj: None,
        operation: "signature verification",
    },
    ReportedRow {
        design: "[5]",
        platform: Platform::Asic(45),
        curve: "NIST P-256",
        cores: 1,
        area_kge: Some(253.0),
        vdd: None,
        latency_ms: Some(0.115),
        throughput: Some(8.70e3),
        energy_uj: None,
        operation: "signature verification",
    },
    ReportedRow {
        design: "[5]",
        platform: Platform::Asic(45),
        curve: "NIST P-256",
        cores: 1,
        area_kge: Some(223.0),
        vdd: None,
        latency_ms: Some(0.212),
        throughput: Some(4.72e3),
        energy_uj: None,
        operation: "signature verification",
    },
    ReportedRow {
        design: "[18]",
        platform: Platform::Asic(65),
        curve: "Any",
        cores: 1,
        area_kge: Some(2490.0),
        vdd: None,
        latency_ms: Some(0.0600),
        throughput: Some(1.67e4),
        energy_uj: Some(10.7),
        operation: "signature generation",
    },
    ReportedRow {
        design: "[17]",
        platform: Platform::Asic(65),
        curve: "Any",
        cores: 1,
        area_kge: None,
        vdd: Some(1.10),
        latency_ms: Some(0.325),
        throughput: Some(3.08e3),
        energy_uj: Some(13.9),
        operation: "signature generation",
    },
    ReportedRow {
        design: "[17]",
        platform: Platform::Asic(65),
        curve: "Any",
        cores: 1,
        area_kge: None,
        vdd: Some(0.300),
        latency_ms: Some(2.30),
        throughput: Some(435.0),
        energy_uj: Some(1.68),
        operation: "signature generation",
    },
    ReportedRow {
        design: "[19]",
        platform: Platform::Fpga("Virtex-4"),
        curve: "NIST P-256",
        cores: 1,
        area_kge: None,
        vdd: None,
        latency_ms: Some(0.495),
        throughput: Some(2.02e3),
        energy_uj: None,
        operation: "scalar multiplication",
    },
    ReportedRow {
        design: "[19]",
        platform: Platform::Fpga("Virtex-4"),
        curve: "NIST P-256",
        cores: 16,
        area_kge: None,
        vdd: None,
        latency_ms: None,
        throughput: Some(2.47e4),
        energy_uj: None,
        operation: "scalar multiplication",
    },
    ReportedRow {
        design: "[20]",
        platform: Platform::Fpga("Virtex-5"),
        curve: "NIST P-256",
        cores: 1,
        area_kge: None,
        vdd: None,
        latency_ms: Some(3.95),
        throughput: Some(253.0),
        energy_uj: None,
        operation: "scalar multiplication",
    },
    ReportedRow {
        design: "[21]",
        platform: Platform::Fpga("Virtex-5"),
        curve: "NIST P-256",
        cores: 1,
        area_kge: None,
        vdd: None,
        latency_ms: Some(0.570),
        throughput: Some(1.75e3),
        energy_uj: None,
        operation: "scalar multiplication",
    },
    ReportedRow {
        design: "[22]",
        platform: Platform::Fpga("Zynq-7020"),
        curve: "Curve25519",
        cores: 1,
        area_kge: None,
        vdd: None,
        latency_ms: Some(0.397),
        throughput: Some(2.52e3),
        energy_uj: None,
        operation: "scalar multiplication",
    },
    ReportedRow {
        design: "[22]",
        platform: Platform::Fpga("Zynq-7020"),
        curve: "Curve25519",
        cores: 11,
        area_kge: None,
        vdd: None,
        latency_ms: Some(0.341),
        throughput: Some(3.23e4),
        energy_uj: None,
        operation: "scalar multiplication",
    },
    ReportedRow {
        design: "[10]",
        platform: Platform::Fpga("Zynq-7020"),
        curve: "FourQ",
        cores: 1,
        area_kge: None,
        vdd: None,
        latency_ms: Some(0.157),
        throughput: Some(6.39e3),
        energy_uj: None,
        operation: "scalar multiplication",
    },
    ReportedRow {
        design: "[10]",
        platform: Platform::Fpga("Zynq-7020"),
        curve: "FourQ",
        cores: 11,
        area_kge: None,
        vdd: None,
        latency_ms: Some(0.170),
        throughput: Some(6.47e4),
        energy_uj: None,
        operation: "scalar multiplication",
    },
];

/// The paper's own measured rows (for checking our simulated row against).
pub const TABLE2_PAPER_OURS: &[ReportedRow] = &[
    ReportedRow {
        design: "Ours (paper)",
        platform: Platform::Asic(65),
        curve: "FourQ",
        cores: 1,
        area_kge: Some(1400.0),
        vdd: Some(0.320),
        latency_ms: Some(0.857),
        throughput: Some(117.0),
        energy_uj: Some(0.327),
        operation: "scalar multiplication",
    },
    ReportedRow {
        design: "Ours (paper)",
        platform: Platform::Asic(65),
        curve: "FourQ",
        cores: 1,
        area_kge: Some(1400.0),
        vdd: Some(1.200),
        latency_ms: Some(0.0101),
        throughput: Some(9.90e4),
        energy_uj: Some(3.98),
        operation: "scalar multiplication",
    },
];

/// Headline ratio helpers used in the paper's abstract and §IV-B.
pub mod headline {
    /// Speed-up of a latency `ours_ms` against the 1-core FourQ FPGA \[10\]
    /// (0.157 ms). Paper: 15.5×.
    pub fn speedup_vs_fourq_fpga(ours_ms: f64) -> f64 {
        0.157 / ours_ms
    }

    /// Speed-up against the fastest P-256 ASIC \[5\] (0.0370 ms).
    /// Paper: 3.66×.
    pub fn speedup_vs_p256_asic(ours_ms: f64) -> f64 {
        0.0370 / ours_ms
    }

    /// Energy-efficiency gain over the ECDSA processor \[17\] at its
    /// low-voltage point (1.68 µJ). Paper: 5.14×.
    pub fn energy_gain_vs_ecdsa(ours_uj: f64) -> f64 {
        1.68 / ours_uj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_ratios_reproduce() {
        // Using the paper's own measured numbers the ratios must match the
        // abstract: 15.5×, 3.66×, 5.14×.
        let ours = &TABLE2_PAPER_OURS[1]; // 1.2 V row
        let lat = ours.latency_ms.unwrap();
        assert!((headline::speedup_vs_fourq_fpga(lat) - 15.5).abs() < 0.1);
        assert!((headline::speedup_vs_p256_asic(lat) - 3.66).abs() < 0.05);
        let e = TABLE2_PAPER_OURS[0].energy_uj.unwrap();
        assert!((headline::energy_gain_vs_ecdsa(e) - 5.14).abs() < 0.03);
    }

    #[test]
    fn latency_area_products_match_paper() {
        // Paper's last column: ours@1.2V = 14.1, [5]@1030kGE = 38.1,
        // [18] = 149.
        let ours = &TABLE2_PAPER_OURS[1];
        assert!((ours.latency_area_product().unwrap() - 14.1).abs() < 0.1);
        let k5 = &TABLE2_PRIOR_ART[0];
        assert!((k5.latency_area_product().unwrap() - 38.1).abs() < 0.1);
        let k18 = &TABLE2_PRIOR_ART[5];
        assert!((k18.latency_area_product().unwrap() - 149.0).abs() < 0.5);
    }

    #[test]
    fn throughput_consistent_with_latency() {
        // Note: the paper's own 0.32 V row prints 117 op/s next to a
        // 0.857 ms latency; 1/0.857 ms = 1167 op/s, so the printed "117"
        // is evidently a typo in the paper's Table II. We therefore allow
        // an exact factor-of-10 slip in addition to the 5% tolerance.
        for row in TABLE2_PRIOR_ART.iter().chain(TABLE2_PAPER_OURS) {
            if let (Some(lat), Some(tp)) = (row.latency_ms, row.throughput) {
                if row.cores == 1 {
                    let implied = 1000.0 / lat;
                    let consistent = (implied - tp).abs() / tp < 0.05
                        || (implied - 10.0 * tp).abs() / (10.0 * tp) < 0.05;
                    assert!(
                        consistent,
                        "{} row inconsistent: implied {implied}, reported {tp}",
                        row.design
                    );
                }
            }
        }
    }
}
