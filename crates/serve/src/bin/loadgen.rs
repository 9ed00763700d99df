//! `loadgen` — traffic generator and latency harness for fourq-serve.
//!
//! ```text
//! loadgen [--requests 2000] [--rate 0] [--mixed] [--conns 4]
//!         [--pipeline 32] [--window-us 0] [--max-batch 256]
//!         [--addr HOST:PORT] [--out BENCH_serve.json]
//!         [--assert-coalesced] [--assert-zero-errors]
//! ```
//!
//! By default the server is spawned in-process on an ephemeral loopback
//! port (all traffic still crosses real TCP sockets), configured as
//! `ServerConfig::default()` apart from the flags given, with one
//! executor per thread of `FOURQ_THREADS` (else the host's parallelism,
//! capped at 8); `--addr` targets an external server instead. `--rate 0`
//! runs closed-loop with `--pipeline` requests in flight per connection;
//! a positive rate runs open-loop (requests are launched on a fixed
//! schedule regardless of completions, so queueing delay shows up in the
//! latency tail).
//!
//! Per op kind the run records completed ops/sec and p50/p99/p999
//! latency, written to `--out` as a `fourq-serve-bench/v1` JSON document
//! carrying `threads` (the executor count, read from the same
//! `FOURQ_THREADS`) and `hw_threads`. `--assert-coalesced` fails the
//! process unless the server's mean flush size exceeds 1;
//! `--assert-zero-errors` fails on any non-`Ok` response.

use fourq_curve::{CurveId, MultiCurveEngine};
use fourq_fp::Scalar;
use fourq_serve::proto::{OpKind, Request, Status};
use fourq_serve::{Client, ServerConfig};
use fourq_sig::{dh, schnorr};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

struct Opts {
    requests: u64,
    rate: u64,
    mixed: bool,
    conns: usize,
    pipeline: usize,
    window_us: u64,
    max_batch: usize,
    addr: Option<String>,
    out: Option<String>,
    assert_coalesced: bool,
    assert_zero_errors: bool,
}

impl Default for Opts {
    fn default() -> Opts {
        let server = ServerConfig::default();
        Opts {
            requests: 2000,
            rate: 0,
            mixed: false,
            conns: 4,
            pipeline: 32,
            window_us: server.window_us,
            max_batch: server.max_batch,
            addr: None,
            out: None,
            assert_coalesced: false,
            assert_zero_errors: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--requests N] [--rate RPS] [--mixed] [--conns N]\n\
         \x20              [--pipeline N] [--window-us N] [--max-batch N]\n\
         \x20              [--addr HOST:PORT] [--out PATH] [--assert-coalesced]\n\
         \x20              [--assert-zero-errors]\n\
         executors: FOURQ_THREADS, else the host's parallelism (capped at 8)"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric value: {s}");
        usage()
    })
}

fn parse_opts() -> Opts {
    let mut o = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--requests" => o.requests = parse(&val("--requests")),
            "--rate" => o.rate = parse(&val("--rate")),
            "--mixed" => o.mixed = true,
            "--conns" => o.conns = parse::<usize>(&val("--conns")).max(1),
            "--pipeline" => o.pipeline = parse::<usize>(&val("--pipeline")).max(1),
            "--window-us" => o.window_us = parse(&val("--window-us")),
            "--max-batch" => o.max_batch = parse(&val("--max-batch")),
            "--addr" => o.addr = Some(val("--addr")),
            "--out" => o.out = Some(val("--out")),
            "--assert-coalesced" => o.assert_coalesced = true,
            "--assert-zero-errors" => o.assert_zero_errors = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    o
}

/// splitmix64 — deterministic request material without an RNG dep.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn scalar_for(i: u64) -> Scalar {
    let mut b = [0u8; 32];
    for (w, chunk) in b.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(i ^ ((w as u64) << 56)).to_le_bytes());
    }
    Scalar::from_le_bytes(&b)
}

fn msg_for(i: u64) -> Vec<u8> {
    let mut m = Vec::with_capacity(24);
    m.extend_from_slice(b"loadgen-");
    m.extend_from_slice(&mix(i).to_le_bytes());
    m.extend_from_slice(&i.to_le_bytes());
    m
}

/// A pre-signed verify tuple: (public key, sig r, sig s, message).
type VerifyTuple = ([u8; 32], [u8; 32], Scalar, Vec<u8>);

/// Pre-generated request material: valid points and valid signatures
/// (invalid signatures would trip the RLC batch-verify fallback and
/// turn the throughput measurement into a fallback-path measurement).
struct Material {
    points: Vec<[u8; 32]>,
    verifies: Vec<VerifyTuple>,
    /// One valid (generator) point encoding per curve, for `CurveMul`.
    curve_points: Vec<(CurveId, Vec<u8>)>,
}

impl Material {
    fn build() -> Material {
        let points: Vec<[u8; 32]> = (0u8..4)
            .map(|j| dh::EphemeralSecret::from_seed(&[j + 101; 32]).public)
            .collect();
        let kp = schnorr::KeyPair::from_seed(&[9u8; 32]);
        let verifies = (0u64..8)
            .map(|j| {
                let m = msg_for(0xF00D + j);
                let sig = kp.sign(&m);
                (kp.public.encoded, sig.r, sig.s, m)
            })
            .collect();
        let mc = MultiCurveEngine::shared();
        let curve_points = CurveId::ALL
            .iter()
            .map(|&c| (c, mc.generator_encoded(c)))
            .collect();
        Material {
            points,
            verifies,
            curve_points,
        }
    }

    fn request_for(&self, i: u64, mixed: bool) -> Request {
        let pick = if mixed { i % 7 } else { 3 };
        match pick {
            0 => Request::ScalarMul {
                scalar: scalar_for(i),
                point: self.points[(i / 6) as usize % self.points.len()],
            },
            1 => Request::FixedBaseMul {
                scalar: scalar_for(i),
            },
            2 => Request::SchnorrSign {
                tenant: i % 8,
                msg: msg_for(i),
            },
            3 => {
                let (public, sig_r, sig_s, msg) =
                    self.verifies[i as usize % self.verifies.len()].clone();
                Request::SchnorrVerify {
                    public,
                    sig_r,
                    sig_s,
                    msg,
                }
            }
            4 => Request::EcdsaSign {
                tenant: i % 8,
                msg: msg_for(i),
            },
            5 => Request::Ecdh {
                tenant: i % 8,
                peer: self.points[(i / 6) as usize % self.points.len()],
            },
            _ => {
                let (curve, point) =
                    self.curve_points[(i / 7) as usize % self.curve_points.len()].clone();
                Request::CurveMul {
                    curve,
                    scalar: scalar_for(i).to_le_bytes(),
                    point,
                }
            }
        }
    }
}

/// One completed response observation.
type Sample = (OpKind, Status, u64);

/// Drives `count` requests over one connection; returns samples.
#[allow(clippy::too_many_arguments)]
fn drive_conn(
    addr: SocketAddr,
    material: Arc<Material>,
    base: u64,
    count: u64,
    mixed: bool,
    interval: Option<Duration>,
    pipeline: usize,
) -> std::io::Result<Vec<Sample>> {
    let sender = Client::connect(addr)?;
    let stream = sender.stream_clone()?;
    let mut sender = sender;
    let inflight: Arc<Mutex<HashMap<u64, (OpKind, Instant)>>> =
        Arc::new(Mutex::new(HashMap::new()));

    // Closed-loop permits: the receiver returns one per response.
    let (permit_tx, permit_rx) = mpsc::channel::<()>();
    for _ in 0..pipeline {
        let _ = permit_tx.send(());
    }

    let recv_inflight = Arc::clone(&inflight);
    let receiver = std::thread::spawn(move || -> std::io::Result<Vec<Sample>> {
        let mut client = Client::from_stream(stream);
        let mut samples = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let resp = client.recv()?;
            let done = Instant::now();
            let looked = recv_inflight.lock().expect("inflight map").remove(&resp.id);
            if let Some((kind, sent)) = looked {
                samples.push((
                    kind,
                    resp.status,
                    done.duration_since(sent).as_micros() as u64,
                ));
            }
            let _ = permit_tx.send(());
        }
        Ok(samples)
    });

    let start = Instant::now();
    for i in 0..count {
        let req = material.request_for(base + i, mixed);
        let kind = req.kind();
        match interval {
            // Open loop: launch on schedule, regardless of completions.
            Some(step) => {
                let due = start + step * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            // Closed loop: bounded in-flight window.
            None => {
                let _ = permit_rx.recv();
            }
        }
        let id = base + i;
        inflight
            .lock()
            .expect("inflight map")
            .insert(id, (kind, Instant::now()));
        sender.send_with_id(id, &req)?;
    }

    receiver.join().expect("receiver thread")
}

struct KindAgg {
    count: u64,
    lat_us: Vec<u64>,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct RunResult {
    elapsed: Duration,
    ok: u64,
    busy: u64,
    malformed: u64,
    failed: u64,
    per_kind: Vec<(OpKind, KindAgg)>,
}

fn run_traffic(addr: SocketAddr, o: &Opts) -> std::io::Result<RunResult> {
    let material = Arc::new(Material::build());
    let per_conn = o.requests / o.conns as u64;
    let extra = o.requests % o.conns as u64;
    let interval = if o.rate > 0 {
        // Per-connection schedule step for the aggregate target rate.
        Some(Duration::from_secs_f64(o.conns as f64 / o.rate as f64))
    } else {
        None
    };

    let start = Instant::now();
    let handles: Vec<_> = (0..o.conns)
        .map(|c| {
            let count = per_conn + u64::from((c as u64) < extra);
            let base = ((c as u64) << 32) | 1;
            let material = Arc::clone(&material);
            let mixed = o.mixed;
            let pipeline = o.pipeline;
            std::thread::spawn(move || {
                drive_conn(addr, material, base, count, mixed, interval, pipeline)
            })
        })
        .collect();

    let mut samples = Vec::with_capacity(o.requests as usize);
    for h in handles {
        samples.extend(h.join().expect("conn thread")?);
    }
    let elapsed = start.elapsed();

    let (mut ok, mut busy, mut malformed, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let mut agg: HashMap<u8, KindAgg> = HashMap::new();
    for (kind, status, us) in samples {
        match status {
            Status::Ok => ok += 1,
            Status::Busy => busy += 1,
            Status::Malformed | Status::UnknownCurve => malformed += 1,
            Status::Failed => failed += 1,
        }
        if status == Status::Ok {
            let e = agg.entry(kind.as_u8()).or_insert(KindAgg {
                count: 0,
                lat_us: Vec::new(),
            });
            e.count += 1;
            e.lat_us.push(us);
        }
    }
    let mut per_kind: Vec<(OpKind, KindAgg)> = agg
        .into_iter()
        .map(|(k, mut v)| {
            v.lat_us.sort_unstable();
            (OpKind::from_u8(k).expect("known kind"), v)
        })
        .collect();
    per_kind.sort_by_key(|(k, _)| k.as_u8());

    Ok(RunResult {
        elapsed,
        ok,
        busy,
        malformed,
        failed,
        per_kind,
    })
}

fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

fn bench_json(o: &Opts, r: &RunResult, stats: &fourq_serve::proto::WireStats) -> String {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let secs = r.elapsed.as_secs_f64();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"fourq-serve-bench/v1\",\n");
    s.push_str(&format!("  \"unix_time\": {unix},\n"));
    s.push_str(&format!(
        "  \"threads\": {},\n",
        fourq_pool::resolved_threads()
    ));
    s.push_str(&format!("  \"hw_threads\": {},\n", hw_threads()));
    s.push_str(&format!("  \"window_us\": {},\n", o.window_us));
    s.push_str(&format!("  \"max_batch\": {},\n", o.max_batch));
    s.push_str(&format!("  \"conns\": {},\n", o.conns));
    s.push_str(&format!("  \"pipeline\": {},\n", o.pipeline));
    s.push_str(&format!("  \"rate\": {},\n", o.rate));
    s.push_str(&format!("  \"requests\": {},\n", o.requests));
    s.push_str(&format!("  \"mixed\": {},\n", o.mixed));
    s.push_str(&format!("  \"elapsed_sec\": {secs:.6},\n"));
    s.push_str(&format!(
        "  \"coalesce\": {{\"flushes\": {}, \"items\": {}, \"max_flush\": {}, \"mean_flush\": {:.3}, \"busy_rejects\": {}}},\n",
        stats.flushes,
        stats.items,
        stats.max_flush,
        stats.mean_flush(),
        stats.busy_rejects
    ));
    s.push_str(&format!(
        "  \"counts\": {{\"ok\": {}, \"busy\": {}, \"malformed\": {}, \"failed\": {}}},\n",
        r.ok, r.busy, r.malformed, r.failed
    ));
    s.push_str("  \"ops\": [\n");
    for (i, (kind, a)) in r.per_kind.iter().enumerate() {
        let sep = if i + 1 == r.per_kind.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"op\": \"{}\", \"count\": {}, \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}{sep}\n",
            kind.name(),
            a.count,
            a.count as f64 / secs,
            percentile(&a.lat_us, 0.50),
            percentile(&a.lat_us, 0.99),
            percentile(&a.lat_us, 0.999),
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The in-process server's config: the defaults, overridden by flags.
fn server_config(o: &Opts) -> ServerConfig {
    ServerConfig {
        window_us: o.window_us,
        max_batch: o.max_batch,
        ..ServerConfig::default()
    }
}

fn main() {
    let o = parse_opts();

    // Resolve the target: external server or in-process spawn.
    let mut spawned = None;
    let addr: SocketAddr = match &o.addr {
        Some(a) => a.parse().unwrap_or_else(|_| {
            eprintln!("bad --addr: {a}");
            usage()
        }),
        None => {
            let handle = fourq_serve::spawn(server_config(&o)).expect("spawn server");
            let a = handle.addr();
            spawned = Some(handle);
            a
        }
    };

    let r = run_traffic(addr, &o).expect("traffic run");
    let stats = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .expect("stats probe");

    let secs = r.elapsed.as_secs_f64();
    println!(
        "loadgen: {} requests in {:.3}s ({:.0} rps aggregate), ok={} busy={} malformed={} failed={}",
        o.requests,
        secs,
        (r.ok + r.busy + r.malformed + r.failed) as f64 / secs,
        r.ok,
        r.busy,
        r.malformed,
        r.failed
    );
    println!(
        "coalesce: flushes={} items={} mean_flush={:.2} max_flush={} busy_rejects={}",
        stats.flushes,
        stats.items,
        stats.mean_flush(),
        stats.max_flush,
        stats.busy_rejects
    );
    for (kind, a) in &r.per_kind {
        println!(
            "  {:<15} count={:<6} ops/s={:<9.1} p50={}us p99={}us p999={}us",
            kind.name(),
            a.count,
            a.count as f64 / secs,
            percentile(&a.lat_us, 0.50),
            percentile(&a.lat_us, 0.99),
            percentile(&a.lat_us, 0.999),
        );
    }

    if let Some(path) = &o.out {
        std::fs::write(path, bench_json(&o, &r, &stats)).expect("write bench json");
        println!("wrote {path}");
    }

    let mut code = 0;
    if o.assert_zero_errors && (r.busy + r.malformed + r.failed > 0 || r.ok != o.requests) {
        eprintln!(
            "assert-zero-errors: FAIL ok={} busy={} malformed={} failed={}",
            r.ok, r.busy, r.malformed, r.failed
        );
        code = 1;
    }
    if o.assert_coalesced && stats.mean_flush() <= 1.0 {
        eprintln!(
            "assert-coalesced: FAIL mean flush {:.3} <= 1.0",
            stats.mean_flush()
        );
        code = 1;
    }

    if let Some(h) = spawned {
        h.shutdown();
    }
    std::process::exit(code);
}
