//! 65 nm SOTB CMOS technology model.
//!
//! The paper measures a fabricated chip: maximum clock frequency, scalar
//! multiplication latency, and energy per scalar multiplication as
//! functions of the supply voltage (Fig. 4), with body bias
//! `V_BP = 0.7·V_DD`, `V_BN = 0.3·V_DD`. We cannot measure silicon, so
//! this crate provides the standard compact models —
//!
//! * **delay**: the alpha-power law, `f_max(V) = K·(V − V_th)^α / V`,
//! * **energy**: `E = C_eff·V²·N_cycles + P_leak(V)·T_total` with an
//!   exponential-in-V leakage power,
//!
//! — **calibrated to the paper's two measured anchor points**
//! (1.20 V → 10.1 µs, 3.98 µJ and 0.32 V → 0.857 ms, 0.327 µJ) for the
//! simulated cycle count of one scalar multiplication. The calibration is
//! numeric ([`SotbModel::calibrate`]), so any change to the simulated cycle
//! count re-anchors the model consistently; the *shape* of the Fig. 4
//! curves (frequency/latency scaling, the low-voltage energy optimum) then
//! follows from the physics-shaped models rather than from interpolation.
//!
//! An [`AreaModel`] estimates the design's complexity in two-input-NAND
//! gate equivalents (the paper reports 1400 kGE in 1.76 mm × 3.56 mm).
//!
//! # Example
//!
//! ```
//! use fourq_tech::SotbModel;
//! let m = SotbModel::calibrate_paper(2571);
//! let pt = m.operating_point(1.2, 2571);
//! assert!((pt.latency_us - 10.1).abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;

/// One point of the paper's Fig. 4: what the chip does at a given supply
/// voltage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Maximum clock frequency in MHz.
    pub fmax_mhz: f64,
    /// Scalar-multiplication latency in microseconds.
    pub latency_us: f64,
    /// Energy per scalar multiplication in microjoules.
    pub energy_uj: f64,
    /// Dynamic component of the energy (µJ).
    pub dynamic_uj: f64,
    /// Leakage component of the energy (µJ).
    pub leakage_uj: f64,
}

/// Calibrated 65 nm SOTB voltage/frequency/energy model.
#[derive(Clone, Copy, Debug)]
pub struct SotbModel {
    /// Alpha-power exponent (velocity-saturation; ~1.3 in 65 nm).
    pub alpha: f64,
    /// Effective threshold voltage (V) under the paper's body-bias scheme.
    pub vth: f64,
    /// Frequency scale constant `K` (MHz·V^(1−α) so `f` is in MHz).
    pub k: f64,
    /// Effective switched capacitance per cycle (J/V², i.e. farads).
    pub ceff: f64,
    /// Leakage power at the reference voltage `v_ref` (W).
    pub p_leak_ref: f64,
    /// Reference voltage for the leakage anchor (V).
    pub v_ref: f64,
    /// Exponential voltage scale of leakage growth (V) — DIBL plus gate
    /// leakage lumped; 0.30 V/decade-ish behaviour.
    pub v_leak_scale: f64,
}

/// The paper's measured anchor points (Fig. 4 / Table II).
pub mod anchors {
    /// Nominal voltage (V).
    pub const V_HIGH: f64 = 1.20;
    /// Latency at nominal voltage (µs).
    pub const LATENCY_HIGH_US: f64 = 10.1;
    /// Energy at nominal voltage (µJ).
    pub const ENERGY_HIGH_UJ: f64 = 3.98;
    /// Minimum-energy voltage (V).
    pub const V_LOW: f64 = 0.32;
    /// Latency at the minimum-energy voltage (µs) — 0.857 ms.
    pub const LATENCY_LOW_US: f64 = 857.0;
    /// Energy at the minimum-energy voltage (µJ).
    pub const ENERGY_LOW_UJ: f64 = 0.327;
}

impl SotbModel {
    /// Calibrates the model so that a scalar multiplication of
    /// `sm_cycles` cycles reproduces the paper's two measured
    /// (latency, energy) anchor points exactly.
    ///
    /// `alpha` is fixed at 1.35; `V_th` is solved by bisection from the
    /// frequency ratio of the two anchors, `K` from the high anchor, and
    /// the energy parameters (`C_eff`, leakage) from a two-step fixed
    /// point (leakage is negligible at 1.2 V, dynamic dominates at
    /// 0.32 V, so the iteration converges immediately).
    ///
    /// # Panics
    ///
    /// Panics if `sm_cycles == 0`.
    pub fn calibrate(
        sm_cycles: u64,
        v1: f64,
        lat1_us: f64,
        e1_uj: f64,
        v2: f64,
        lat2_us: f64,
        e2_uj: f64,
    ) -> SotbModel {
        assert!(sm_cycles > 0, "cycle count must be positive");
        let n = sm_cycles as f64;
        let f1 = n / lat1_us; // MHz
        let f2 = n / lat2_us; // MHz
        let alpha = 1.35;
        // Solve (v1-vth)^a/v1 / ((v2-vth)^a/v2) = f1/f2 for vth in (0, v2).
        let target = f1 / f2;
        let ratio = |vth: f64| ((v1 - vth).powf(alpha) / v1) / ((v2 - vth).powf(alpha) / v2);
        let (mut lo, mut hi) = (0.0f64, v2 - 1e-4);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if ratio(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let vth = 0.5 * (lo + hi);
        let k = f1 / ((v1 - vth).powf(alpha) / v1);

        // Energy: E = ceff*V^2*N + pleak(V) * T,  pleak exponential in V.
        let v_leak_scale = 0.30;
        let v_ref = v2;
        let t1 = lat1_us * 1e-6;
        let t2 = lat2_us * 1e-6;
        let e1 = e1_uj * 1e-6;
        let e2 = e2_uj * 1e-6;
        let mut ceff = e1 / (v1 * v1 * n);
        let mut p_leak_ref = 0.0;
        for _ in 0..20 {
            p_leak_ref = ((e2 - ceff * v2 * v2 * n) / t2).max(0.0);
            let leak1 = p_leak_ref * ((v1 - v_ref) / v_leak_scale).exp() * (v1 / v_ref);
            ceff = ((e1 - leak1 * t1) / (v1 * v1 * n)).max(1e-15);
        }
        SotbModel {
            alpha,
            vth,
            k,
            ceff,
            p_leak_ref,
            v_ref,
            v_leak_scale,
        }
    }

    /// Calibration against the paper's anchors for a given simulated
    /// cycle count.
    pub fn calibrate_paper(sm_cycles: u64) -> SotbModel {
        SotbModel::calibrate(
            sm_cycles,
            anchors::V_HIGH,
            anchors::LATENCY_HIGH_US,
            anchors::ENERGY_HIGH_UJ,
            anchors::V_LOW,
            anchors::LATENCY_LOW_US,
            anchors::ENERGY_LOW_UJ,
        )
    }

    /// Maximum clock frequency (MHz) at a supply voltage.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is at or below the calibrated threshold voltage
    /// (the chip does not operate there; the paper's sweep stops at
    /// 0.32 V).
    pub fn fmax_mhz(&self, vdd: f64) -> f64 {
        assert!(
            vdd > self.vth,
            "V_DD = {vdd} V is below the operating range (V_th ≈ {:.3} V)",
            self.vth
        );
        self.k * (vdd - self.vth).powf(self.alpha) / vdd
    }

    /// Leakage power (W) at a supply voltage.
    pub fn leakage_w(&self, vdd: f64) -> f64 {
        self.p_leak_ref * ((vdd - self.v_ref) / self.v_leak_scale).exp() * (vdd / self.v_ref)
    }

    /// The full operating point for a computation of `cycles` cycles.
    pub fn operating_point(&self, vdd: f64, cycles: u64) -> OperatingPoint {
        let f = self.fmax_mhz(vdd);
        let latency_us = cycles as f64 / f;
        let dynamic = self.ceff * vdd * vdd * cycles as f64;
        let leakage = self.leakage_w(vdd) * latency_us * 1e-6;
        OperatingPoint {
            vdd,
            fmax_mhz: f,
            latency_us,
            energy_uj: (dynamic + leakage) * 1e6,
            dynamic_uj: dynamic * 1e6,
            leakage_uj: leakage * 1e6,
        }
    }

    /// Sweeps the supply voltage (inclusive ends), reproducing Fig. 4.
    pub fn sweep(&self, v_lo: f64, v_hi: f64, steps: usize, cycles: u64) -> Vec<OperatingPoint> {
        assert!(steps >= 2 && v_hi > v_lo);
        (0..steps)
            .map(|i| {
                let v = v_lo + (v_hi - v_lo) * i as f64 / (steps - 1) as f64;
                self.operating_point(v, cycles)
            })
            .collect()
    }
}

/// Multi-core throughput model for the core-count rows of Table II.
///
/// Scalar multiplications are independent, so throughput scales nearly
/// linearly with the core count until shared I/O saturates; `efficiency`
/// (0..1] captures that loss (the FourQ-FPGA row \[10\] reports 11 cores at
/// ~92 % of linear scaling; its latency grows slightly, reported
/// separately).
///
/// ```
/// use fourq_tech::multicore_throughput;
/// // 1-core at 6390 op/s, 11 cores at ~92% efficiency ≈ the paper's 6.47e4
/// let t = multicore_throughput(0.157, 11, 0.92);
/// assert!((t - 6.47e4).abs() / 6.47e4 < 0.01, "{t}");
/// ```
pub fn multicore_throughput(latency_ms: f64, cores: u32, efficiency: f64) -> f64 {
    assert!(latency_ms > 0.0 && (0.0..=1.0).contains(&efficiency));
    1000.0 / latency_ms * cores as f64 * efficiency
}

/// Gate-count (kGE) and area estimate of the processor, following the
/// block structure of Fig. 1(a).
///
/// Coefficients are typical 65 nm standard-cell figures (documented per
/// field); the paper reports the totals — 1400 kGE, 1.76 mm × 3.56 mm —
/// which the default configuration approximates.
#[derive(Clone, Copy, Debug)]
pub struct AreaModel {
    /// Register-file words (`F_p²` values, 256 bits each).
    pub rf_words: usize,
    /// Program-ROM words (microinstructions).
    pub rom_words: usize,
    /// Control bits per ROM word.
    pub rom_width_bits: usize,
    /// Number of multiplier units.
    pub mul_units: usize,
    /// Number of adder/subtractor units.
    pub addsub_units: usize,
    /// Multiplicative factor covering what gate-level first-order models
    /// miss on a fabricated macro: pipeline registers inside the
    /// multiplier, operand/result muxing, clock tree, scan/DFT, and
    /// routing-driven cell upsizing. Calibrated once so the default
    /// configuration reproduces the paper's reported 1400 kGE.
    pub integration_overhead: f64,
}

impl AreaModel {
    /// The fabricated configuration: the register pressure and program
    /// size measured from the scheduled scalar multiplication.
    pub fn paper_like(rf_words: usize, rom_words: usize) -> AreaModel {
        AreaModel {
            rf_words,
            rom_words,
            // opcode (3) + two read addresses + write address (6b each) +
            // sequencing flags
            rom_width_bits: 24,
            mul_units: 1,
            addsub_units: 1,
            integration_overhead: 2.27,
        }
    }

    /// kGE of one pipelined 127-bit Karatsuba `F_p²` multiplier:
    /// three 64×64→128 partial multipliers per 127-bit product, three
    /// 127-bit products per `F_p²` product, plus lazy-reduction adders and
    /// pipeline registers. ~6 GE per full-adder-equivalent bit cell.
    pub fn multiplier_kge(&self) -> f64 {
        // 3 Fp products × 3 sub-multipliers × 64×64 cells × 6 GE + overhead
        let core = 3.0 * 3.0 * 64.0 * 64.0 * 6.0 / 1000.0;
        let reduction_and_pipe = 120.0;
        (core + reduction_and_pipe) * self.mul_units as f64
    }

    /// kGE of the adder/subtractor unit (two 127-bit lanes with fold
    /// logic, ~18 GE/bit including muxing).
    pub fn addsub_kge(&self) -> f64 {
        (2.0 * 127.0 * 18.0 / 1000.0) * self.addsub_units as f64
    }

    /// The banked-register-file ablation: the precomputed table (read-only
    /// after the precompute phase, streamed mostly one word at a time)
    /// moves into a narrow-ported **table bank** at ~6 GE/bit, while only
    /// the working accumulators keep the full 4R/2W multiport cells at
    /// ~12 GE/bit. Modeled as an *effective* flat word count at the
    /// multiport cost — `(rf_words − table_words) + table_words/2` — so
    /// every downstream figure ([`Self::total_kge`], [`Self::area_mm2`])
    /// applies unchanged. The schedule side of the ablation is
    /// `MachineConfig::paper_banked()` in `fourq-sched` (6 read ports:
    /// 4 accumulator + 2 table).
    ///
    /// # Panics
    ///
    /// Panics if `table_words > rf_words`.
    pub fn paper_banked(rf_words: usize, table_words: usize, rom_words: usize) -> AreaModel {
        assert!(table_words <= rf_words, "table bank cannot exceed the RF");
        let effective = (rf_words - table_words) + table_words.div_ceil(2);
        AreaModel::paper_like(effective, rom_words)
    }

    /// kGE of the register file (4R/2W multiport flop-based cells,
    /// ~12 GE/bit).
    pub fn register_file_kge(&self) -> f64 {
        self.rf_words as f64 * 256.0 * 12.0 / 1000.0
    }

    /// kGE of the controller: program ROM (~1 GE/bit synthesised) + FSM.
    pub fn controller_kge(&self) -> f64 {
        self.rom_words as f64 * self.rom_width_bits as f64 * 1.0 / 1000.0 + 15.0
    }

    /// Total complexity in kGE (block estimates times the integration
    /// overhead).
    pub fn total_kge(&self) -> f64 {
        (self.multiplier_kge()
            + self.addsub_kge()
            + self.register_file_kge()
            + self.controller_kge())
            * self.integration_overhead
    }

    /// Silicon area in mm² at a 65 nm standard-cell density of
    /// ~0.22 mm²/100 kGE (paper: 1400 kGE in 6.27 mm²).
    pub fn area_mm2(&self) -> f64 {
        self.total_kge() * 6.27 / 1400.0
    }

    /// kGE of one shared table-ROM macro: `words` 256-bit entries in a
    /// dense single-array macro (~2 GE/bit — array cells, not multiport
    /// flops) plus ~1.5 kGE of address decode and output muxing per read
    /// port.
    ///
    /// This is the area side of the fleet model's shared table ROM
    /// (`fleet::FleetConfig::rom_ports` arbitrates its read ports): the
    /// floorplan alternative to every core carrying a private table copy
    /// in its (expensive, multiport) register file. A hard macro is
    /// placed once and routed point-to-point, so the standard-cell
    /// [`AreaModel::integration_overhead`] deliberately does not apply.
    pub fn shared_table_rom_kge(words: usize, ports: u32) -> f64 {
        words as f64 * 256.0 * 2.0 / 1000.0 + ports as f64 * 1.5
    }

    /// [`AreaModel::shared_table_rom_kge`] converted at the same 65 nm
    /// density as [`AreaModel::area_mm2`].
    pub fn shared_table_rom_mm2(words: usize, ports: u32) -> f64 {
        Self::shared_table_rom_kge(words, ports) * 6.27 / 1400.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYCLES: u64 = 2571;

    #[test]
    fn calibration_reproduces_anchors() {
        let m = SotbModel::calibrate_paper(CYCLES);
        let hi = m.operating_point(anchors::V_HIGH, CYCLES);
        let lo = m.operating_point(anchors::V_LOW, CYCLES);
        assert!((hi.latency_us - anchors::LATENCY_HIGH_US).abs() / anchors::LATENCY_HIGH_US < 1e-6);
        assert!((lo.latency_us - anchors::LATENCY_LOW_US).abs() / anchors::LATENCY_LOW_US < 1e-6);
        assert!((hi.energy_uj - anchors::ENERGY_HIGH_UJ).abs() / anchors::ENERGY_HIGH_UJ < 1e-3);
        assert!((lo.energy_uj - anchors::ENERGY_LOW_UJ).abs() / anchors::ENERGY_LOW_UJ < 1e-3);
    }

    #[test]
    fn frequency_monotone_in_vdd() {
        let m = SotbModel::calibrate_paper(CYCLES);
        let mut prev = 0.0;
        for op in m.sweep(0.32, 1.2, 45, CYCLES) {
            assert!(op.fmax_mhz > prev, "f must grow with V");
            prev = op.fmax_mhz;
        }
    }

    #[test]
    fn energy_decreases_toward_low_voltage() {
        // Fig. 4: energy/SM falls monotonically from 1.2 V down to the
        // 0.32 V optimum (below which the chip stops working).
        let m = SotbModel::calibrate_paper(CYCLES);
        let pts = m.sweep(0.32, 1.2, 45, CYCLES);
        let e_low = pts.first().unwrap().energy_uj;
        let e_high = pts.last().unwrap().energy_uj;
        assert!(e_low < e_high / 10.0, "energy scaling must exceed 10x");
        // monotone decreasing with V on the sweep
        for w in pts.windows(2) {
            assert!(w[0].energy_uj <= w[1].energy_uj + 1e-9);
        }
    }

    #[test]
    fn vth_in_plausible_sotb_range() {
        let m = SotbModel::calibrate_paper(CYCLES);
        assert!(
            m.vth > 0.15 && m.vth < 0.32,
            "calibrated Vth {:.3} outside SOTB range",
            m.vth
        );
    }

    #[test]
    #[should_panic(expected = "below the operating range")]
    fn below_threshold_panics() {
        let m = SotbModel::calibrate_paper(CYCLES);
        let _ = m.fmax_mhz(0.10);
    }

    #[test]
    fn area_near_paper_figure() {
        let a = AreaModel::paper_like(34, 4629);
        let kge = a.total_kge();
        assert!(
            (500.0..2500.0).contains(&kge),
            "total {kge} kGE implausible vs paper's 1400 kGE"
        );
    }

    #[test]
    fn banked_register_file_saves_area() {
        let flat = AreaModel::paper_like(93, 4706);
        // 32 table words (the 8-entry F_p² table) move to the cheap bank.
        let banked = AreaModel::paper_banked(93, 32, 4706);
        assert!(banked.register_file_kge() < flat.register_file_kge());
        assert!(banked.total_kge() < flat.total_kge());
        // The saving is exactly half the table bank's multiport cost.
        let want = flat.register_file_kge() - 16.0 * 256.0 * 12.0 / 1000.0;
        assert!((banked.register_file_kge() - want).abs() < 1e-9);
    }

    #[test]
    fn shared_table_rom_beats_private_copies() {
        // The 32-word Fourℚ table: one shared 2-port macro vs a private
        // copy in every core's multiport register file. The macro is ~2
        // GE/bit with no integration overhead; the private copy burns 12
        // GE/bit multiport cells times the overhead, so sharing wins from
        // one core up and the gap grows linearly with the core count.
        let with_table = AreaModel::paper_like(93, 4706);
        let sans_table = AreaModel::paper_like(93 - 32, 4706);
        let macro_mm2 = AreaModel::shared_table_rom_mm2(32, 2);
        for n in [1usize, 2, 8] {
            let private = n as f64 * with_table.area_mm2();
            let shared = n as f64 * sans_table.area_mm2() + macro_mm2;
            assert!(shared < private, "shared floorplan must win at n = {n}");
        }
        let gap1 = with_table.area_mm2() - sans_table.area_mm2();
        let shared8 = 8.0 * sans_table.area_mm2() + macro_mm2;
        assert!((8.0 * with_table.area_mm2() - shared8) > 7.0 * gap1 - macro_mm2 - 1e-9);
    }

    #[test]
    fn shared_table_rom_scales_with_words_and_ports() {
        assert!(AreaModel::shared_table_rom_kge(64, 2) > AreaModel::shared_table_rom_kge(32, 2));
        assert!(AreaModel::shared_table_rom_kge(32, 4) > AreaModel::shared_table_rom_kge(32, 1));
        assert_eq!(AreaModel::shared_table_rom_kge(0, 0), 0.0);
    }

    #[test]
    fn leakage_grows_with_voltage() {
        let m = SotbModel::calibrate_paper(CYCLES);
        assert!(m.leakage_w(1.2) > m.leakage_w(0.32));
    }
}
