//! Percentiles and the reporting rule for them.
//!
//! Percentiles are nearest-rank and given in parts per ten thousand, so
//! the rank arithmetic is exact: p99 of 1000 samples is the 990th
//! smallest, with exactly 10 samples beyond it.

/// The percentile that single-call and per-repetition host times are read
/// at. The host alternates between a fast and a slow phase (measured on a
/// 2-vCPU host: one-shot [k]P at about 58 µs or 97 µs, in phases of
/// seconds that an idle process sees too, so no reference loop can
/// normalise them away). The work timed is constant-time, so spread above
/// the floor is the host, and a run's fast-phase speed is what two runs
/// of the same code agree on. p1 reads it even in a run the slow phase
/// covers for all but a few percent; p10 did not.
pub const FAST: u32 = 100;

/// The percentile ladder the reports walk, in parts per ten thousand.
pub const LADDER: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// 1-based nearest rank of percentile `q` (per ten thousand) among `n`.
pub fn rank(n: usize, q: u32) -> usize {
    let r = (q as usize * n).div_ceil(10_000);
    r.max(1)
}

/// Samples strictly beyond the percentile's rank.
pub fn beyond(n: usize, q: u32) -> usize {
    n - rank(n, q).min(n)
}

/// The highest ladder percentile with at least ten samples beyond it.
pub fn highest_supported(n: usize) -> Option<u32> {
    LADDER.iter().rev().copied().find(|&q| beyond(n, q) >= 10)
}

/// Nearest-rank percentile of an ascending slice; NaN when empty.
pub fn pct(sorted: &[f64], q: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Sorts in place (NaN-free input) and returns the slice for [`pct`].
pub fn sorted(v: &mut [f64]) -> &[f64] {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

pub fn median(v: &mut [f64]) -> f64 {
    pct(sorted(v), 5_000)
}

/// Median of the differences `b[i] - a[i]` of paired samples. Paired
/// rounds run back to back, so each pair shares the host's speed phase
/// and the phase cancels out of the difference.
pub fn median_paired_diff(a: &[f64], b: &[f64]) -> f64 {
    let mut d: Vec<f64> = a.iter().zip(b).map(|(x, y)| y - x).collect();
    median(&mut d)
}

/// The share of samples above 1.3× the fastest quartile (p25): on a host
/// that alternates between two speeds, the share taken in its slow phase.
pub fn slow_frac(v: &mut [f64]) -> f64 {
    let s = sorted(v);
    let fast = pct(s, 2_500);
    s.iter().filter(|&&t| t > 1.3 * fast).count() as f64 / s.len().max(1) as f64
}

/// Formats a percentile name: 9_990 → "p99.9".
pub fn pname(q: u32) -> String {
    let s = format!("{}", q as f64 / 100.0);
    format!("p{s}")
}

/// One line for the human-readable report: the given percentiles with the
/// sample count, plus the highest percentile the count supports.
pub fn describe(name: &str, unit: &str, samples: &mut [f64], qs: &[u32]) -> String {
    let n = samples.len();
    let s = sorted(samples);
    let mut line = format!("{name:<26} n={n:<7}");
    for &q in qs {
        line.push_str(&format!(" {}={:.2}{unit}", pname(q), pct(s, q)));
    }
    match highest_supported(n) {
        Some(q) => line.push_str(&format!(
            "  | top {}={:.2}{unit} ({} beyond)",
            pname(q),
            pct(s, q),
            beyond(n, q)
        )),
        None => line.push_str("  | top: none (fewer than 10 beyond p50)"),
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; p99.9 leaves 1.
        assert_eq!(beyond(1000, 9_900), 10);
        assert_eq!(beyond(1000, 9_990), 1);
        assert_eq!(highest_supported(1000), Some(9_900));
        // One sample fewer and p99 has only 9 beyond: fall back to p90.
        assert_eq!(beyond(999, 9_900), 9);
        assert_eq!(highest_supported(999), Some(9_000));
        assert_eq!(highest_supported(10_000), Some(9_990));
        assert_eq!(highest_supported(100_000), Some(9_999));
        assert_eq!(highest_supported(20), Some(5_000));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = sorted(&mut v);
        assert_eq!(pct(s, 1_000), 10.0);
        assert_eq!(pct(s, 5_000), 50.0);
        assert_eq!(pct(s, 9_900), 99.0);
        assert_eq!(pct(&[3.0], 1_000), 3.0);
        assert!(pct(&[], 5_000).is_nan());
        assert_eq!(pname(9_990), "p99.9");
        assert_eq!(pname(1_000), "p10");
    }

    #[test]
    fn paired_difference_cancels_a_shared_phase() {
        // Untraced and traced rounds alternate; the host is twice as slow
        // in the last two pairs. The tracing cost is 1.
        let untraced = [10.0, 10.0, 10.0, 20.0, 20.0];
        let traced = [11.0, 11.0, 11.0, 21.0, 21.0];
        assert_eq!(median_paired_diff(&untraced, &traced), 1.0);
    }

    #[test]
    fn slow_share_counts_samples_over_the_fast_quartile() {
        let mut v = vec![10.0, 10.0, 10.0, 10.0, 12.0, 13.1, 16.0, 17.0];
        assert_eq!(slow_frac(&mut v), 3.0 / 8.0);
    }
}
