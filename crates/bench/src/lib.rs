//! Shared evaluation harness for the table/figure binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper:
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `profile_ops` | the §III-B profiling claim (≈57 % `F_p²` multiplications) |
//! | `table1_schedule` | Table I — scheduled double-and-add loop |
//! | `fig4_voltage_sweep` | Fig. 4 — `f_max` / latency / energy vs `V_DD` |
//! | `table2_report` | Table II — comparison to prior art + headline ratios, then all three curves compiled onto the *same* simulated machine |
//! | `ablation` | design-choice ablations (§III): multiplier algorithm, scheduler, pipeline depth, ports |
//!
//! Micro-benchmarks (formerly Criterion benches) live in the hermetic
//! [`harness`] + [`micro`] modules, driven by the `microbench` binary,
//! which refreshes the repo-root `BENCH_fourq.json` perf-trajectory file
//! when run with `--out BENCH_fourq.json`.
//!
//! The library part additionally hosts [`table2`], which builds "our"
//! rows of Table II from the compiled kernels plus the calibrated
//! technology model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod harness;
pub mod micro;
pub mod table2;

/// Formats a float with engineering-friendly width, rendering `None` as
/// a dash (Table II has many unreported cells).
pub fn cell(v: Option<f64>, width: usize, prec: usize) -> String {
    match v {
        Some(x) => format!("{x:>width$.prec$}"),
        None => format!("{:>width$}", "—"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formats_missing_values() {
        assert_eq!(cell(None, 5, 1), "    —");
        assert_eq!(cell(Some(1.25), 6, 2), "  1.25");
    }
}
