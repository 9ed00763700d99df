//! Metric names, the result line, and the human-readable report.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 12] = [
    ("sm_us", "us"),
    ("fixed_base_us", "us"),
    ("sign_us", "us"),
    ("verify_us", "us"),
    ("serve_p50_us", "us"),
    ("serve_p90_us", "us"),
    ("kernel_exec_us", "us"),
    ("fourq_cycles", "cycles"),
    ("fleet_sm_per_j", "SM/J"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Layers, named after the crates, plus the harness's own glue.
pub const LAYERS: [&str; 11] = [
    "harness", "fp", "curve", "hash", "sig", "pool", "serve", "trace", "sched", "cpu", "tech",
];

/// Per-layer metrics, printed by every workload's traced run. A layer a
/// workload bypasses reports 0. The first two are end-to-end figures
/// whose spread between runs on a host with minute-long speed regimes
/// exceeds any bound the benchmark may set, so they carry no bound.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("serve_ops_per_s", "1/s"),
        ("compile_s", "s"),
        ("fp.fp2_mul_ns", "ns"),
        ("fp.fp2_sqr_ns", "ns"),
        ("fp.fp2_inv_ns", "ns"),
        ("fp.mul_per_sm", "count"),
        ("fp.sqr_per_sm", "count"),
        ("fp.addsub_per_sm", "count"),
        ("curve.decompose_us", "us"),
        ("curve.engine_us", "us"),
        ("curve.normalize_us", "us"),
        ("curve.comb_us", "us"),
        ("curve.double_scalar_us", "us"),
        ("curve.batch_sm_item_us", "us"),
        ("curve.batch_to_affine_item_us", "us"),
        ("hash.sha512_us", "us"),
        ("sig.sign_self_us", "us"),
        ("sig.verify_self_us", "us"),
        ("sig.ecdh_us", "us"),
        ("sig.sign_batch_item_us", "us"),
        ("sig.verify_batch_item_us", "us"),
        ("pool.fanout_us", "us"),
        ("pool.threads", "count"),
        ("serve.flushes", "count"),
        ("serve.mean_flush", "count"),
        ("serve.lat_mean_flush", "count"),
        ("serve.max_flush", "count"),
        ("serve.busy_rejects", "count"),
        ("serve.exec_flush_us", "us"),
        ("serve.proto_us", "us"),
        ("serve.overhead_us", "us"),
        ("serve.p99_us", "us"),
        ("serve.p999_us", "us"),
        ("serve.latency_n", "count"),
        ("serve.gen_late_p99_us", "us"),
        ("trace.record_ms", "ms"),
        ("trace.ops", "count"),
        ("sched.ils_ms", "ms"),
        ("sched.stitched_ms", "ms"),
        ("sched.ils_cycles", "cycles"),
        ("sched.lower_bound", "cycles"),
        ("cpu.simulate_ms", "ms"),
        ("cpu.alloc_rom_ms", "ms"),
        ("cpu.verify_ms", "ms"),
        ("cpu.registers", "count"),
        ("cpu.rom_words", "count"),
        ("cpu.x25519_cycles", "cycles"),
        ("cpu.p256_cycles", "cycles"),
        ("tech.fleet_sim_ms", "ms"),
        ("tech.rom_stall_frac", "frac"),
        ("host.slow_round_frac", "frac"),
        ("span.count", "count"),
        ("span.traced_ms", "ms"),
        ("span.self_sum_ms", "ms"),
        ("span.traced_us", "us"),
        ("span.untraced_us", "us"),
        ("span.overhead_us", "us"),
        ("span.recv_wait_ms", "ms"),
        ("span.cost_ns", "ns"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for op in crate::oneshot::OPS {
        v.push((format!("oneshot.{op}_p50_us"), "us"));
        v.push((format!("oneshot.{op}_p99_us"), "us"));
        v.push((format!("oneshot.{op}_n"), "count"));
    }
    for layer in LAYERS {
        v.push((format!("self.{layer}_ms"), "ms"));
    }
    v
}

/// Collected metrics and report lines of one run.
#[derive(Default)]
pub struct Out {
    metrics: BTreeMap<String, (f64, &'static str)>,
    lines: Vec<String>,
}

impl Out {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Prints the report lines and the metric table, and returns the
    /// result object. Only the `expected` metrics are included. With
    /// `zero_if_missing` one that was not measured is reported as 0 (a
    /// layer the workload bypasses); otherwise it is an error, as is a
    /// metric measured in another unit or with a non-finite value.
    pub fn finish(
        &self,
        expected: &[(String, &'static str)],
        zero_if_missing: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        for l in &self.lines {
            println!("{l}");
        }
        let mut fields = Vec::new();
        for (name, unit) in expected {
            let value = match self.metrics.get(name) {
                Some(&(_, u)) if u != *unit => {
                    return Err(format!("metric {name} measured in {u}, declared {unit}"))
                }
                Some(&(v, _)) => v,
                None if zero_if_missing => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            println!("{name:<32} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            fields.join(", ")
        ))
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units here and in BENCHMARK.json must agree.
    #[test]
    fn names_match_benchmark_json() {
        use fourq_bench::harness::json::{self, Value};
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let bench = json::parse(text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            bench
                .as_object()
                .and_then(|o| o.get(key))
                .and_then(Value::as_array)
                .expect("metric list present")
                .iter()
                .map(|m| {
                    let m = m.as_object().expect("metric is an object");
                    let s = |k: &str| m[k].as_str().expect("string field").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(declared("end_to_end"), owned(e2e));
        assert_eq!(declared("per_layer"), owned(per_layer_names()));
    }

    #[test]
    fn result_line_has_every_expected_metric() {
        let mut out = Out::default();
        out.put("a", 1.5, "us");
        let expected = vec![("a".to_string(), "us"), ("b".to_string(), "count")];
        let line = out.finish(&expected, true, 4, 0).unwrap();
        assert!(out.finish(&expected, false, 4, 0).is_err());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
        out.put("b", f64::NAN, "count");
        assert!(out.finish(&expected, true, 4, 0).is_err());
        out.put("b", 1.0, "ms");
        assert!(out.finish(&expected, true, 4, 0).is_err());
    }
}
