//! `perfbench` — the fourq-asic benchmark.
//!
//! ```text
//! perfbench --workload oneshot|served|asic --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs three sections: the one-shot library calls, the
//! TCP server, and the ASIC compile/simulate/fleet model. The workload's
//! own section takes most of each cycle; the other two run as short
//! slices between its blocks, never at the same time, so every
//! end-to-end metric is measured in every run.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs only the
//! workload's own section, alternating untraced and traced rounds; it
//! records a span around every call the harness makes into a layer,
//! writes the spans to `perfbench/out/spans-<workload>.tsv`, and prints
//! the per-layer metrics. The last line of standard output is the result
//! object; the exit code is non-zero when any output checked wrong.

mod asic;
mod inputs;
mod kat;
mod metrics;
mod oneshot;
mod served;
mod spans;
mod stats;

use metrics::{Out, END_TO_END};
use spans::Recorder;
use stats::{describe, median, pct, sorted, FAST};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Oneshot,
    Served,
    Asic,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload oneshot|served|asic --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("missing value for {flag}"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad value for {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "oneshot" => Workload::Oneshot,
                    "served" => Workload::Served,
                    "asic" => Workload::Asic,
                    _ => return Err(format!("unknown workload {value}")),
                })
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Length of the workload's own block in each cycle. Host phases last
/// seconds, so short cycles give every section's samples many phases.
const MAIN_BLOCK: Duration = Duration::from_millis(1500);
/// The served workload's own block: capacity phase, then latency phase.
const SERVE_CAP: Duration = Duration::from_millis(600);
const SERVE_LAT: Duration = Duration::from_millis(1000);
/// Slices of the other sections run once per cycle.
const SLICE_LIB_ROUNDS: usize = 100;
const SLICE_EXECUTES: usize = 20;
const SLICE_CAP: Duration = Duration::from_millis(300);
const SLICE_LAT: Duration = Duration::from_millis(400);
/// Warm executions after each compile in the asic workload's own block.
const EXECUTES: usize = 50;
/// Set-up repetitions at the end of each cycle. Back to back, so the
/// later ones start from a warm allocator whatever the cycle left behind.
const SETUP_REPS: usize = 3;

struct Sections {
    lib: oneshot::Lib,
    serve: served::Serve,
    asic: asic::Asic,
}

impl Sections {
    fn setup(seed: u64) -> Sections {
        Sections {
            lib: oneshot::Lib::setup(seed),
            serve: served::Serve::setup(seed),
            asic: asic::Asic::setup(seed),
        }
    }

    fn tally(&self) -> (u64, u64) {
        (
            self.lib.attempted + self.serve.attempted + self.asic.attempted,
            self.lib.wrong + self.serve.wrong + self.asic.wrong,
        )
    }

    /// Output checks that need the whole run: the known-answer vectors
    /// and every served answer against the one-shot library.
    fn final_checks(&mut self) {
        self.lib.check_kats();
        self.serve.check_against_library();
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (line, failed) = run(&args, process_start).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    println!("{line}");
    if failed > 0 {
        eprintln!("perfbench: {failed} outputs checked wrong");
        std::process::exit(1);
    }
}

fn run(args: &Args, process_start: Instant) -> Result<(String, u64), String> {
    // The first set-up runs from process start, so it includes the
    // process's one-time initialisation; the untraced run repeats the
    // set-up at the end of every cycle (see `untraced`).
    let mut sections = Sections::setup(args.seed);
    let mut setup_s = vec![process_start.elapsed().as_secs_f64()];
    let mut out = Out::default();
    out.line(format!(
        "workload={:?} seed={} seconds={} trace={} hw_threads={} pool_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        fourq_pool::resolved_threads()
    ));
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    if args.trace {
        traced(args, &mut sections, deadline, &mut out)?;
    } else {
        untraced(args, &mut sections, deadline, &mut setup_s, &mut out);
        let mut setup_ms: Vec<f64> = setup_s.iter().map(|s| s * 1e3).collect();
        out.line(describe("setup", "ms", &mut setup_ms, &[FAST, 5_000]));
        out.put("setup_s", pct(sorted(&mut setup_s), FAST), "s");
    }
    sections.final_checks();
    let (attempted, failed) = sections.tally();
    if !args.trace {
        out.put("peak_rss_mb", metrics::peak_rss_mb(), "MB");
        out.put(
            "ok_frac",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "frac",
        );
    }
    let expected: Vec<(String, &'static str)> = if args.trace {
        metrics::per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let line = out.finish(&expected, args.trace, attempted, failed)?;
    Ok((line, failed))
}

/// The untraced run: cycles of the workload's own block followed by one
/// slice of each other section and [`SETUP_REPS`] repetitions of the set-up, until
/// the deadline.
fn untraced(
    args: &Args,
    s: &mut Sections,
    deadline: Instant,
    setup_s: &mut Vec<f64>,
    out: &mut Out,
) {
    let w = args.workload;
    while Instant::now() < deadline {
        let until = (Instant::now() + MAIN_BLOCK).min(deadline);
        match w {
            Workload::Oneshot => {
                while Instant::now() < until {
                    s.lib.round();
                }
            }
            Workload::Served => s.serve.slice(SERVE_CAP, SERVE_LAT, None),
            Workload::Asic => loop {
                s.asic.round(EXECUTES);
                if Instant::now() >= until {
                    break;
                }
            },
        }
        if w != Workload::Oneshot && Instant::now() < deadline {
            for _ in 0..SLICE_LIB_ROUNDS {
                s.lib.round();
            }
        }
        if w != Workload::Asic && Instant::now() < deadline {
            s.asic.slice(SLICE_EXECUTES);
        }
        if w != Workload::Served && Instant::now() < deadline {
            s.serve.slice(SLICE_CAP, SLICE_LAT, None);
        }
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            std::hint::black_box(Sections::setup(args.seed));
            setup_s.push(t.elapsed().as_secs_f64());
        }
    }
    let slow = match w {
        Workload::Oneshot => s.lib.slow_round_frac(),
        Workload::Served => s.serve.slow_round_frac(),
        Workload::Asic => s.asic.slow_round_frac(),
    };
    out.line(format!("host.slow_round_frac {slow}"));
    s.lib.end_to_end(out);
    s.serve.end_to_end(out);
    s.asic.end_to_end(out);
}

/// The traced run: the workload's own section only, untraced and traced
/// rounds alternating, then the per-layer metrics and the span file.
///
/// Each traced round runs under a root span of the main thread's
/// recorder; the layer self times of those spans are checked against the
/// rounds' wall time. Spans outside the rounds (the fp micro-benchmarks,
/// the op count, and on served the receiver thread's waits, which overlap
/// the sender's calls) are kept in a second recorder: they go to the span
/// file but not into that accounting.
fn traced(args: &Args, s: &mut Sections, deadline: Instant, out: &mut Out) -> Result<(), String> {
    let epoch = Instant::now();
    let mut side = Recorder::new(epoch);
    fp_layer(&mut side, out);
    out.put("span.cost_ns", span_cost_ns(), "ns");
    let mut rec = Recorder::new(epoch);
    let mut round = 0u64;
    while Instant::now() < deadline {
        round += 1;
        match args.workload {
            Workload::Oneshot => {
                s.lib.round();
                s.lib.traced_round(&mut rec);
            }
            Workload::Served => {
                s.serve.slice(SLICE_CAP, SLICE_LAT, None);
                s.serve.slice(SLICE_CAP, SLICE_LAT, Some(&mut rec));
                rec.root("layer_calls", round, |r| s.serve.layer_calls(r, round));
            }
            Workload::Asic => {
                s.asic.round(EXECUTES);
                s.asic.traced_round(&mut rec, EXECUTES);
            }
        }
    }
    // The overhead is read on work that untraced and traced rounds do
    // alike, the traced side inside spans: oneshot's sign and ECDH calls,
    // served's latency phase p50, asic's executions (its traced compile
    // runs the stages as temporaries, which itself changes the round's
    // time). Rounds alternate, so it is the median of paired differences.
    let (untraced_us, traced_us): (Vec<f64>, Vec<f64>) = match args.workload {
        Workload::Oneshot => {
            s.lib.per_layer(&rec.spans, out);
            out.put("host.slow_round_frac", s.lib.slow_round_frac(), "frac");
            (s.lib.calls_us.clone(), s.lib.traced_calls_us.clone())
        }
        Workload::Served => {
            s.serve.per_layer(&rec.spans, out);
            out.put("host.slow_round_frac", s.serve.slow_round_frac(), "frac");
            for r in s.serve.receivers.drain(..) {
                side.absorb(r);
            }
            let wait_ms: f64 = spans::durations_us(&side.spans, "serve.recv").iter().sum();
            out.put("span.recv_wait_ms", wait_ms / 1e3, "ms");
            (
                s.serve.phase_p50_us.clone(),
                s.serve.traced_phase_p50_us.clone(),
            )
        }
        Workload::Asic => {
            s.asic.per_layer(&rec.spans, out);
            out.put("host.slow_round_frac", s.asic.slow_round_frac(), "frac");
            (
                s.asic.exec_round_us.clone(),
                s.asic.traced_exec_round_us.clone(),
            )
        }
    };
    let overhead_us = stats::median_paired_diff(&untraced_us, &traced_us);
    out.put("span.untraced_us", median(&mut untraced_us.clone()), "us");
    out.put("span.traced_us", median(&mut traced_us.clone()), "us");
    out.put("span.overhead_us", overhead_us, "us");
    let (self_ns, self_sum) = spans::account(&rec)?;
    for (layer, ns) in &self_ns {
        out.put(&format!("self.{layer}_ms"), *ns as f64 / 1e6, "ms");
    }
    out.put("span.count", rec.spans.len() as f64, "count");
    out.put("span.traced_ms", rec.wall_ns as f64 / 1e6, "ms");
    out.put("span.self_sum_ms", self_sum as f64 / 1e6, "ms");
    let (counted, wall) = (rec.spans.len(), rec.wall_ns);
    rec.absorb(side);
    let name = format!("spans-{:?}.tsv", args.workload).to_lowercase();
    let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(name);
    spans::write_tsv(&path, &rec.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.line(format!(
        "spans: {} written to {}; the {counted} spans of the traced rounds have layer self \
         times summing to {:.3} ms of {:.3} ms measured round wall time",
        rec.spans.len(),
        path.display(),
        self_sum as f64 / 1e6,
        wall as f64 / 1e6
    ));
    Ok(())
}

/// Host ns to record one empty leaf span, the median of 15 blocks of
/// 10 000 spans in a throwaway recorder. Times the spans of a round gives
/// the tracing cost where the round-to-round noise hides it.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 10_000;
    let mut per_span: Vec<f64> = (0..15)
        .map(|_| {
            let mut r = Recorder::new(Instant::now());
            let t = Instant::now();
            for i in 0..SPANS {
                r.leaf("empty", "harness", i as u64, || ());
            }
            t.elapsed().as_nanos() as f64 / SPANS as f64
        })
        .collect();
    median(&mut per_span)
}

/// Direct Fp² calls (dependent chains, so each call waits for the last)
/// and the exact op counts of one traced scalar multiplication.
fn fp_layer(rec: &mut Recorder, out: &mut Out) {
    use fourq_fp::Fp2;
    const CHAIN: u32 = 10_000;
    const BLOCKS: u64 = 15;
    let mut x = Fp2::from_u128_pair(0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321);
    let y = Fp2::from_u128_pair(0x7777_1111_3333_5555, 0x2222_4444_6666_8888);
    for b in 0..BLOCKS {
        x = rec.leaf("fp.fp2_mul", "fp", b, || {
            (0..CHAIN).fold(x, |acc, _| std::hint::black_box(acc * y))
        });
        x = rec.leaf("fp.fp2_sqr", "fp", b, || {
            (0..CHAIN).fold(x, |acc, _| std::hint::black_box(acc.square()))
        });
        x = rec.leaf("fp.fp2_inv", "fp", b, || {
            (0..CHAIN / 50).fold(x, |acc, _| std::hint::black_box(acc.inv()))
        });
    }
    let per_op =
        |name: &str, n: u32| median(&mut spans::durations_us(&rec.spans, name)) * 1e3 / n as f64;
    out.put("fp.fp2_mul_ns", per_op("fp.fp2_mul", CHAIN), "ns");
    out.put("fp.fp2_sqr_ns", per_op("fp.fp2_sqr", CHAIN), "ns");
    out.put("fp.fp2_inv_ns", per_op("fp.fp2_inv", CHAIN / 50), "ns");
    let stats = rec.leaf("trace.count_ops", "trace", 0, || {
        fourq_trace::trace_scalar_mul(&fourq_fp::Scalar::from_u64(0x9e37_79b9))
            .trace
            .stats()
    });
    out.put("fp.mul_per_sm", stats.mul as f64, "count");
    out.put("fp.sqr_per_sm", stats.sqr as f64, "count");
    out.put(
        "fp.addsub_per_sm",
        (stats.total() - stats.multiplier_ops()) as f64,
        "count",
    );
    out.put("trace.ops", stats.total() as f64, "count");
}
