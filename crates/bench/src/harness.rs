//! Hermetic micro-benchmark harness: the in-tree replacement for
//! Criterion.
//!
//! Measurement protocol, per benchmark:
//!
//! 1. **Warmup** — the closure runs for a fixed wall-clock budget so
//!    caches, branch predictors and any lazy statics settle, and so the
//!    harness gets a per-op estimate.
//! 2. **Calibration** — the per-sample iteration count is chosen so one
//!    sample takes roughly the sample budget (always at least one
//!    iteration; operations slower than the budget are simply timed
//!    one-at-a-time).
//! 3. **Sampling** — K timed samples with `std::time::Instant`; the
//!    reported figure is the **median** ns/op, which is robust against
//!    scheduler noise in a way a mean is not.
//!
//! Results aggregate into a [`BenchReport`] that serialises to the
//! machine-readable `BENCH_fourq.json` via [`BenchReport::to_json`] and
//! parses back with [`BenchReport::from_json`] (used by the round-trip
//! tests and by any tooling tracking the perf trajectory across PRs).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing budgets and sample counts for one harness run.
#[derive(Clone, Copy, Debug)]
pub struct BenchOptions {
    /// Wall-clock budget for the warmup phase.
    pub warmup: Duration,
    /// Target wall-clock duration of one sample.
    pub sample_time: Duration,
    /// Number of timed samples (the median is reported).
    pub samples: u32,
}

impl BenchOptions {
    /// Defaults tuned for a trustworthy local run (~0.5 s per bench).
    pub fn standard() -> BenchOptions {
        BenchOptions {
            warmup: Duration::from_millis(60),
            sample_time: Duration::from_millis(50),
            samples: 9,
        }
    }

    /// A smoke-test profile for CI: every bench still runs end to end,
    /// but with minimal budgets. Selected by `FOURQ_BENCH_FAST=1`.
    pub fn fast() -> BenchOptions {
        BenchOptions {
            warmup: Duration::from_millis(2),
            sample_time: Duration::from_millis(2),
            samples: 3,
        }
    }

    /// [`BenchOptions::standard`] unless `FOURQ_BENCH_FAST` is set in the
    /// environment.
    pub fn from_env() -> BenchOptions {
        match std::env::var("FOURQ_BENCH_FAST") {
            Ok(v) if v != "0" && !v.is_empty() => BenchOptions::fast(),
            _ => BenchOptions::standard(),
        }
    }
}

/// The measured outcome of one benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Benchmark family, e.g. `"fp2_mul"`.
    pub group: String,
    /// Benchmark name within the group, e.g. `"karatsuba_lazy"`.
    pub name: String,
    /// Median nanoseconds per operation.
    pub ns_per_op: f64,
    /// Convenience reciprocal: operations per second at the median.
    pub ops_per_sec: f64,
    /// Number of timed samples taken.
    pub samples: u32,
    /// Iterations per sample chosen by calibration.
    pub iters_per_sample: u64,
    /// Worker threads configured for the timed operation (1 =
    /// sequential). [`run`] records 1; callers timing a multi-threaded
    /// engine overwrite this before pushing the record.
    pub threads: u32,
    /// Hardware threads available on the machine that produced the
    /// record (`std::thread::available_parallelism`). Lets downstream
    /// gates and cross-run comparisons judge whether a parallel figure
    /// was even reachable; `0` in records parsed from files that predate
    /// the field.
    pub hw_threads: u32,
}

/// Hardware threads on this machine (0 if undeterminable).
pub fn hw_threads() -> u32 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u32)
}

/// Times `f` under `opts` and returns the record for `group`/`name`.
pub fn run<R, F: FnMut() -> R>(
    group: &str,
    name: &str,
    opts: &BenchOptions,
    mut f: F,
) -> BenchRecord {
    // Warmup + estimate.
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < opts.warmup || warm_iters == 0 {
        black_box(f());
        warm_iters += 1;
    }
    let est_ns = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;

    // Calibrate iterations so one sample ≈ sample_time.
    let target_ns = opts.sample_time.as_nanos() as f64;
    let iters = (target_ns / est_ns.max(1.0)).round().max(1.0) as u64;

    let mut per_op: Vec<f64> = Vec::with_capacity(opts.samples as usize);
    for _ in 0..opts.samples.max(1) {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_op.sort_by(|a, b| a.total_cmp(b));
    let median = per_op[per_op.len() / 2];

    BenchRecord {
        group: group.to_string(),
        name: name.to_string(),
        ns_per_op: median,
        ops_per_sec: if median > 0.0 {
            1e9 / median
        } else {
            f64::INFINITY
        },
        samples: opts.samples.max(1),
        iters_per_sample: iters,
        threads: 1,
        hw_threads: hw_threads(),
    }
}

/// A full harness run: every record plus schema identification.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BenchReport {
    /// The records, in execution order.
    pub results: Vec<BenchRecord>,
}

/// Schema tag embedded in the JSON so downstream tooling can detect
/// format changes.
pub const SCHEMA: &str = "fourq-bench/v2";

impl BenchReport {
    /// Appends a record and echoes it to stderr as live progress.
    pub fn push(&mut self, rec: BenchRecord) {
        eprintln!(
            "  {:<16} {:<28} {:>14.1} ns/op {:>16.0} ops/s",
            rec.group, rec.name, rec.ns_per_op, rec.ops_per_sec
        );
        self.results.push(rec);
    }

    /// Serialises to the `BENCH_fourq.json` format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", quote(SCHEMA)));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"group\": {}, \"name\": {}, \"ns_per_op\": {:?}, \
                 \"ops_per_sec\": {:?}, \"samples\": {}, \"iters_per_sample\": {}, \
                 \"threads\": {}, \"hw_threads\": {}}}{}\n",
                quote(&r.group),
                quote(&r.name),
                r.ns_per_op,
                r.ops_per_sec,
                r.samples,
                r.iters_per_sample,
                r.threads,
                r.hw_threads,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report produced by [`BenchReport::to_json`].
    ///
    /// Floats are emitted with Rust's shortest-roundtrip formatting, so
    /// parse → serialise → parse is lossless and `PartialEq` on the
    /// report holds exactly.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or("top level must be an object")?;
        let schema = obj
            .get("schema")
            .and_then(|v| v.as_str())
            .ok_or("missing schema tag")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema '{schema}', expected '{SCHEMA}'"));
        }
        let results = obj
            .get("results")
            .and_then(|v| v.as_array())
            .ok_or("missing results array")?;
        let mut report = BenchReport::default();
        for item in results {
            let rec = item.as_object().ok_or("result entries must be objects")?;
            let str_field = |k: &str| -> Result<String, String> {
                rec.get(k)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or(format!("missing string field '{k}'"))
            };
            let num_field = |k: &str| -> Result<f64, String> {
                rec.get(k)
                    .and_then(|v| v.as_f64())
                    .ok_or(format!("missing numeric field '{k}'"))
            };
            report.results.push(BenchRecord {
                group: str_field("group")?,
                name: str_field("name")?,
                ns_per_op: num_field("ns_per_op")?,
                ops_per_sec: num_field("ops_per_sec")?,
                samples: num_field("samples")? as u32,
                iters_per_sample: num_field("iters_per_sample")? as u64,
                threads: num_field("threads")? as u32,
                // Tolerant: files written before the field default to 0
                // ("unknown hardware").
                hw_threads: num_field("hw_threads").unwrap_or(0.0) as u32,
            });
        }
        Ok(report)
    }
}

/// Groups the regression tripwire ([`BenchReport::compare`]) compares.
pub const COMPARE_GROUPS: [&str; 3] = ["scalar_ops", "parallel_ops", "asic_pipeline"];

/// The largest median slowdown within a group that
/// [`BenchReport::compare`] lets pass.
pub const COMPARE_MAX_REGRESSION: f64 = 0.25;

/// The outcome of [`BenchReport::compare`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Comparison {
    /// One summary per group and hardware class, for the log.
    pub lines: Vec<String>,
    /// Same-hardware median regressions above
    /// [`COMPARE_MAX_REGRESSION`]; any entry fails the comparison.
    pub failures: Vec<String>,
}

impl BenchReport {
    /// The regression tripwire (`microbench --compare BASELINE.json`).
    ///
    /// For each group in [`COMPARE_GROUPS`], every record of `self` with a
    /// baseline record of the same group, name and thread count gives one
    /// ratio of ns/op. Each pair is judged by its own two records: ratios
    /// from pairs with equal `hw_threads` feed the group's hard gate,
    /// which fails when their median slowdown exceeds
    /// [`COMPARE_MAX_REGRESSION`]; the other ratios are summarised
    /// alert-only, since a cross-machine ns/op delta is not a regression.
    /// The median makes the gate robust to one noisy bench without letting
    /// a real across-the-board regression hide.
    pub fn compare(&self, baseline: &BenchReport) -> Comparison {
        let mut out = Comparison::default();
        for group in COMPARE_GROUPS {
            let (mut same, mut other) = (Vec::new(), Vec::new());
            for cur in self.results.iter().filter(|r| r.group == group) {
                let matched = baseline.results.iter().find(|b| {
                    b.group == cur.group && b.name == cur.name && b.threads == cur.threads
                });
                if let Some(b) = matched.filter(|b| b.ns_per_op > 0.0) {
                    let ratio = (cur.ns_per_op / b.ns_per_op, cur.name.as_str());
                    if b.hw_threads == cur.hw_threads {
                        same.push(ratio);
                    } else {
                        other.push(ratio);
                    }
                }
            }
            if same.is_empty() && other.is_empty() {
                out.lines.push(format!(
                    "compare: {group}: no overlapping benches with the baseline, skipping"
                ));
                continue;
            }
            for (mut ratios, hard) in [(same, true), (other, false)] {
                if ratios.is_empty() {
                    continue;
                }
                ratios.sort_by(|a, b| a.0.total_cmp(&b.0));
                let median = ratios[ratios.len() / 2].0;
                let (worst, worst_name) = ratios[ratios.len() - 1];
                let class = if hard {
                    "same hardware"
                } else {
                    "other hardware, alert-only"
                };
                out.lines.push(format!(
                    "compare: {group} ({class}): median {:+.1}% over {} benches \
                     (worst {:+.1}% in {worst_name})",
                    (median - 1.0) * 100.0,
                    ratios.len(),
                    (worst - 1.0) * 100.0,
                ));
                if median - 1.0 > COMPARE_MAX_REGRESSION {
                    let msg = format!(
                        "compare: {group} median regression {:+.1}% exceeds the {:.0}% limit",
                        (median - 1.0) * 100.0,
                        COMPARE_MAX_REGRESSION * 100.0
                    );
                    if hard {
                        out.failures.push(msg);
                    } else {
                        out.lines
                            .push(format!("{msg} (alert-only: hardware mismatch)"));
                    }
                }
            }
        }
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A deliberately small JSON reader: just enough for the subset the
/// writer above emits (objects, arrays, strings, numbers). Exists so the
/// report format can be verified to round-trip without pulling in serde.
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number (parsed as f64).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object (key order not preserved; irrelevant for the report).
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The fields, if this is an object.
        pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Obj(m) => Some(m),
                _ => None,
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => literal(b, pos, "true", Value::Bool(true)),
            Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
            Some(b'n') => literal(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut map = BTreeMap::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let val = value(b, pos)?;
            map.insert(key, val);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            *pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                c => {
                    // Re-decode UTF-8 continuation bytes via the source
                    // slice to stay correct for multibyte characters.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = *pos - 1;
                        let s = std::str::from_utf8(&b[start..]).map_err(|e| e.to_string())?;
                        let ch = s.chars().next().ok_or("empty char")?;
                        out.push(ch);
                        *pos = start + ch.len_utf8();
                    }
                }
            }
        }
        Err("unterminated string".into())
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or(format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_run_measures_something() {
        let opts = BenchOptions {
            warmup: Duration::from_micros(200),
            sample_time: Duration::from_micros(200),
            samples: 3,
        };
        let mut acc = 0u64;
        let rec = run("unit", "wrapping_sum", &opts, || {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            acc
        });
        assert!(rec.ns_per_op > 0.0);
        assert!(rec.ops_per_sec > 0.0);
        assert_eq!(rec.samples, 3);
        assert!(rec.iters_per_sample >= 1);
    }

    #[test]
    fn json_report_round_trips() {
        let mut report = BenchReport::default();
        report.results.push(BenchRecord {
            group: "fp2_mul".into(),
            name: "karatsuba_lazy".into(),
            ns_per_op: 123.456789,
            ops_per_sec: 1e9 / 123.456789,
            samples: 9,
            iters_per_sample: 40000,
            threads: 1,
            hw_threads: 8,
        });
        report.results.push(BenchRecord {
            group: "signatures".into(),
            name: "schnorr \"quoted\"\\name".into(),
            ns_per_op: 0.25,
            ops_per_sec: 4e9,
            samples: 3,
            iters_per_sample: 1,
            threads: 4,
            hw_threads: 8,
        });
        let text = report.to_json();
        let back = BenchReport::from_json(&text).expect("parses");
        assert_eq!(back, report);
        // and a second round trip is byte-identical
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn from_json_tolerates_missing_hw_threads() {
        // Records written before the field existed parse with 0
        // ("unknown hardware") instead of erroring.
        let text = "{\"schema\": \"fourq-bench/v2\", \"results\": [\
                    {\"group\": \"g\", \"name\": \"n\", \"ns_per_op\": 10.0, \
                    \"ops_per_sec\": 1e8, \"samples\": 3, \"iters_per_sample\": 7, \
                    \"threads\": 1}]}";
        let report = BenchReport::from_json(text).expect("parses");
        assert_eq!(report.results[0].hw_threads, 0);
    }

    fn record(group: &str, name: &str, ns_per_op: f64, hw_threads: u32) -> BenchRecord {
        BenchRecord {
            group: group.into(),
            name: name.into(),
            ns_per_op,
            ops_per_sec: 1e9 / ns_per_op,
            samples: 9,
            iters_per_sample: 1,
            threads: 1,
            hw_threads,
        }
    }

    #[test]
    fn compare_judges_each_pair_by_its_own_hardware() {
        // The baseline's first record comes from an 8-thread host; the
        // others, which regressed by 40%, from this 2-thread one.
        let base = BenchReport {
            results: vec![
                record("scalar_ops", "a", 100.0, 8),
                record("scalar_ops", "b", 100.0, 2),
                record("scalar_ops", "c", 100.0, 2),
            ],
        };
        let cur = BenchReport {
            results: vec![
                record("scalar_ops", "a", 100.0, 2),
                record("scalar_ops", "b", 140.0, 2),
                record("scalar_ops", "c", 140.0, 2),
            ],
        };
        let c = cur.compare(&base);
        assert_eq!(c.failures.len(), 1, "{c:?}");
        assert!(c.failures[0].contains("scalar_ops"));

        // The same rows against a baseline recorded entirely elsewhere are
        // alert-only.
        let elsewhere = BenchReport {
            results: base
                .results
                .iter()
                .map(|r| BenchRecord {
                    hw_threads: 8,
                    ..r.clone()
                })
                .collect(),
        };
        let c = cur.compare(&elsewhere);
        assert!(c.failures.is_empty(), "{c:?}");
        assert!(c
            .lines
            .iter()
            .any(|l| l.contains("alert-only: hardware mismatch")));
    }

    #[test]
    fn compare_passes_within_the_limit_and_skips_other_groups() {
        let base = BenchReport {
            results: vec![
                record("asic_pipeline", "x", 100.0, 2),
                record("fp2_mul", "y", 100.0, 2),
            ],
        };
        let cur = BenchReport {
            results: vec![
                record("asic_pipeline", "x", 120.0, 2),
                record("fp2_mul", "y", 900.0, 2),
            ],
        };
        let c = cur.compare(&base);
        assert!(c.failures.is_empty(), "{c:?}");
        assert!(c
            .lines
            .iter()
            .any(|l| l.contains("parallel_ops: no overlapping")));
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let err = BenchReport::from_json("{\"schema\": \"other/v9\", \"results\": []}");
        assert!(err.is_err());
    }

    #[test]
    fn json_parser_handles_the_usual_suspects() {
        let v = json::parse(
            "{\"a\": [1, 2.5, -3e2], \"b\": {\"nested\": true}, \"c\": null, \"s\": \"x\\ny\"}",
        )
        .unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(obj["s"].as_str(), Some("x\ny"));
        assert!(json::parse("{\"a\": }").is_err());
        assert!(json::parse("[1, 2] tail").is_err());
    }
}
