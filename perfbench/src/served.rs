//! The served section: the in-process `fourq_serve` server over loopback
//! TCP, carrying the six Fourℚ op kinds of `loadgen --mixed`. `CurveMul`
//! is left out because P-256's cost alone would set the tail.
//!
//! Each slice spawns a server and runs two phases against it:
//!
//! * capacity: one closed-loop connection per client thread keeps
//!   [`INFLIGHT`] requests in flight in total, so flushes are large and
//!   the batch paths run (lane quads, pool fan-out, `batch_to_affine`,
//!   RLC verify, batched signing);
//! * latency: one connection, open loop at [`RATE`] requests per second,
//!   each request timed from its due time, so a stall of the generator
//!   or the server counts against every request it delays.

use crate::inputs::{Rng, SERVE};
use crate::metrics::Out;
use crate::spans::{durations_us, Recorder, Span};
use crate::stats::{describe, median, pct, sorted};
use fourq_curve::{AffinePoint, FourQEngine, MultiCurveEngine};
use fourq_fp::Scalar;
use fourq_serve::exec::{execute_flush, Pending};
use fourq_serve::proto::{self, Request, Response, Status, WireStats};
use fourq_serve::tenant::{TenantDirectory, TenantKeys};
use fourq_serve::{Client, ServerConfig};
use fourq_sig::schnorr;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Open-loop rate of the latency phase. Capacity measured on a 2-vCPU
/// host was 7.9k–10.8k ops/s, lower in its slow phase; at 3000 req/s
/// flushes average 2–3 requests and no backlog forms, so the reactor,
/// the framing and the coalescing window set the latency.
pub const RATE: f64 = 3000.0;
/// Requests in flight during the capacity phase, across all connections:
/// enough for flushes of about 55–64 requests.
pub const INFLIGHT: usize = 64;
/// The start of each capacity phase, while the in-flight window fills,
/// is not counted.
pub const RAMP: Duration = Duration::from_millis(50);
/// Width of the windows the latency phase's percentiles are read in, by
/// due time (600 requests at [`RATE`]). Serving is less two-speed than a
/// single call: the median over windows agreed best between runs.
pub const LAT_WINDOW: Duration = Duration::from_millis(200);
/// Distinct requests; the generator cycles through them.
const POOL: usize = 1200;
const TENANTS: u64 = 8;
const POINTS: usize = 16;
/// Verify requests carry signatures by this many seeded keys.
const SIGNERS: usize = 8;

pub struct Serve {
    cfg: ServerConfig,
    conns: usize,
    pool: Vec<Request>,
    /// The first payload each pool entry was answered with; every later
    /// answer must equal it, and at the end it must equal the one-shot
    /// library result.
    seen: Vec<Option<Vec<u8>>>,
    next_id: u64,
    /// Requests completed and seconds counted, per capacity phase.
    pub cap_blocks: Vec<(u64, f64)>,
    /// Latency-phase µs from due time to response (∞ when not `Ok`).
    pub lat_us: Vec<f64>,
    /// How late the generator sent each request (µs).
    pub late_us: Vec<f64>,
    /// p50 and p90 of each latency window.
    pub win_p50_us: Vec<f64>,
    pub win_p90_us: Vec<f64>,
    /// p50 of each untraced and each traced latency phase.
    pub phase_p50_us: Vec<f64>,
    pub traced_phase_p50_us: Vec<f64>,
    /// The receiver threads' recorders of traced latency phases.
    pub receivers: Vec<Recorder>,
    cap_stats: WireStats,
    lat_stats: WireStats,
    pub max_flush: u64,
    pub busy: u64,
    pub attempted: u64,
    pub wrong: u64,
}

/// Client threads and connections: at most the host's thread count.
fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The seeded request pool: `POOL` requests, the six Fourℚ kinds in turn.
pub fn request_pool(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, SERVE);
    let eng = FourQEngine::shared();
    let points: Vec<[u8; 32]> = (0..POINTS)
        .map(|_| eng.fixed_base_mul(&rng.scalar()).encode())
        .collect();
    let signers: Vec<schnorr::KeyPair> = (0..SIGNERS)
        .map(|_| schnorr::KeyPair::from_seed(&rng.bytes32()))
        .collect();
    (0..POOL)
        .map(|j| {
            let point = points[(j / 6) % POINTS];
            let tenant = rng.next_u64() % TENANTS;
            let msg = rng.bytes32().to_vec();
            match j % 6 {
                0 => Request::ScalarMul {
                    scalar: rng.scalar(),
                    point,
                },
                1 => Request::FixedBaseMul {
                    scalar: rng.scalar(),
                },
                2 => Request::SchnorrSign { tenant, msg },
                3 => {
                    let kp = &signers[(j / 6) % SIGNERS];
                    let sig = kp.sign(&msg);
                    Request::SchnorrVerify {
                        public: kp.public.encoded,
                        sig_r: sig.r,
                        sig_s: sig.s,
                        msg,
                    }
                }
                4 => Request::EcdsaSign { tenant, msg },
                _ => Request::Ecdh {
                    tenant,
                    peer: point,
                },
            }
        })
        .collect()
}

/// What the one-shot library answers for a request.
fn one_shot(req: &Request, tenants: &[TenantKeys]) -> Option<Vec<u8>> {
    let eng = FourQEngine::shared();
    Some(match req {
        Request::ScalarMul { scalar, point } => {
            let p = AffinePoint::decode(point).ok()?;
            eng.scalar_mul(&p, scalar).encode().to_vec()
        }
        Request::FixedBaseMul { scalar } => eng.fixed_base_mul(scalar).encode().to_vec(),
        Request::SchnorrSign { tenant, msg } => {
            let sig = tenants[*tenant as usize].schnorr.sign(msg);
            [sig.r, sig.s.to_le_bytes()].concat()
        }
        Request::SchnorrVerify {
            public,
            sig_r,
            sig_s,
            msg,
        } => {
            let pk = schnorr::PublicKey {
                point: AffinePoint::decode(public).ok()?,
                encoded: *public,
            };
            let sig = schnorr::Signature {
                r: *sig_r,
                s: *sig_s,
            };
            vec![schnorr::verify(&pk, msg, &sig) as u8]
        }
        Request::EcdsaSign { tenant, msg } => {
            let sig = tenants[*tenant as usize].ecdsa.sign(msg).ok()?;
            [sig.r.to_le_bytes(), sig.s.to_le_bytes()].concat()
        }
        Request::Ecdh { tenant, peer } => tenants[*tenant as usize].dh.agree(peer).ok()?.to_vec(),
        Request::Stats | Request::CurveMul { .. } => return None,
    })
}

/// Responses a phase collected: (completion time, response).
type Done = Vec<(Instant, Response)>;

impl Serve {
    pub fn setup(seed: u64) -> Serve {
        let cfg = ServerConfig::default();
        Serve {
            cfg,
            conns: client_threads(),
            pool: request_pool(seed),
            seen: vec![None; POOL],
            next_id: 1,
            cap_blocks: Vec::new(),
            lat_us: Vec::new(),
            late_us: Vec::new(),
            win_p50_us: Vec::new(),
            win_p90_us: Vec::new(),
            phase_p50_us: Vec::new(),
            traced_phase_p50_us: Vec::new(),
            receivers: Vec::new(),
            cap_stats: WireStats::default(),
            lat_stats: WireStats::default(),
            max_flush: 0,
            busy: 0,
            attempted: 0,
            wrong: 0,
        }
    }

    /// Mean flush size of the capacity and latency phases so far.
    pub fn mean_flushes(&self) -> (f64, f64) {
        (self.cap_stats.mean_flush(), self.lat_stats.mean_flush())
    }

    fn req(&self, id: u64) -> &Request {
        &self.pool[id as usize % POOL]
    }

    /// Checks one response: `Ok`, and the same payload as every earlier
    /// answer to the same pool entry.
    fn check(&mut self, r: &Response) -> bool {
        self.attempted += 1;
        if r.status == Status::Busy {
            self.busy += 1;
        }
        let slot = &mut self.seen[r.id as usize % POOL];
        let ok = r.status == Status::Ok
            && match slot {
                Some(p) => *p == r.payload,
                None => {
                    *slot = Some(r.payload.clone());
                    true
                }
            };
        self.wrong += u64::from(!ok);
        ok
    }

    /// One slice: spawn a server, warm it, run the capacity phase for
    /// `cap` and the latency phase for `lat`, shut it down. With a
    /// recorder, the latency phase records a span around every client
    /// call.
    pub fn slice(&mut self, cap: Duration, lat: Duration, rec: Option<&mut Recorder>) {
        let server = fourq_serve::spawn(self.cfg).expect("bind loopback server");
        let addr = server.addr();
        let mut probe = Client::connect(addr).expect("connect to server");
        // Warm-up: derive every tenant's keys on the server, untimed.
        for t in 0..TENANTS {
            let r = probe
                .call(&Request::SchnorrSign {
                    tenant: t,
                    msg: b"warm".to_vec(),
                })
                .expect("warm-up call");
            self.attempted += 1;
            self.wrong += u64::from(r.status != Status::Ok);
        }
        let s0 = probe.stats().expect("stats probe");
        self.capacity(addr, cap);
        let s1 = probe.stats().expect("stats probe");
        self.latency(addr, lat, rec);
        let s2 = probe.stats().expect("stats probe");
        drop(probe);
        server.shutdown();
        add_delta(&mut self.cap_stats, &s1, &s0);
        add_delta(&mut self.lat_stats, &s2, &s1);
        self.max_flush = self.max_flush.max(s2.max_flush);
    }

    fn capacity(&mut self, addr: SocketAddr, dur: Duration) {
        let conns = self.conns;
        let base = self.next_id;
        let start = Instant::now();
        let until = start + dur;
        let pool = &self.pool;
        let per_conn = INFLIGHT / conns;
        let results: Vec<(Done, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    s.spawn(move || {
                        closed_loop(addr, pool, base + c as u64, conns as u64, per_conn, until)
                            .expect("capacity connection")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("capacity thread"))
                .collect()
        });
        let from = start + RAMP;
        let mut counted = 0;
        for (done, next) in results {
            self.next_id = self.next_id.max(next);
            for (t, r) in done {
                if self.check(&r) && t >= from && t < until {
                    counted += 1;
                }
            }
        }
        self.cap_blocks
            .push((counted, (until - from).as_secs_f64()));
    }

    /// The latency phase. Traced, it runs under a root span of the main
    /// thread's recorder with a span around every send; the receiver
    /// thread records its waits in a recorder of its own, kept in
    /// [`Serve::receivers`], because they overlap the sends.
    fn latency(&mut self, addr: SocketAddr, dur: Duration, rec: Option<&mut Recorder>) {
        let n = (dur.as_secs_f64() * RATE) as u64;
        let base = self.next_id;
        self.next_id += n;
        let traced = rec.is_some();
        let (done, due) = match rec {
            Some(r) => r.root("serve.latency_phase", base, |r| {
                self.open_loop(addr, base, n, Some(r))
            }),
            None => self.open_loop(addr, base, n, None),
        };
        let mut lat = vec![f64::INFINITY; n as usize];
        for (t, resp) in done {
            let slot = resp.id.checked_sub(base).filter(|&i| i < n);
            match slot {
                Some(i) if self.check(&resp) => {
                    lat[i as usize] = (t - due[i as usize]).as_nanos() as f64 / 1e3
                }
                Some(_) => {}
                None => {
                    self.attempted += 1;
                    self.wrong += 1;
                }
            }
        }
        let p50 = pct(sorted(&mut lat.clone()), 5_000);
        if traced {
            self.traced_phase_p50_us.push(p50);
            return;
        }
        self.phase_p50_us.push(p50);
        self.lat_us.extend(&lat);
        let per_window = (LAT_WINDOW.as_secs_f64() * RATE) as usize;
        for w in lat.chunks_exact_mut(per_window) {
            let w = sorted(w);
            self.win_p50_us.push(pct(w, 5_000));
            self.win_p90_us.push(pct(w, 9_000));
        }
    }

    /// Sends `n` requests from id `base` at [`RATE`] on one connection
    /// while a receiver thread collects the responses; returns them with
    /// each request's due time.
    fn open_loop(
        &mut self,
        addr: SocketAddr,
        base: u64,
        n: u64,
        mut rec: Option<&mut Recorder>,
    ) -> (Done, Vec<Instant>) {
        let mut sender = Client::connect(addr).expect("connect latency client");
        let mut receiver = Client::from_stream(sender.stream_clone().expect("clone stream"));
        let epoch = rec.as_ref().map(|r| r.epoch());
        let recv_thread = std::thread::spawn(move || {
            let mut done = Vec::with_capacity(n as usize);
            let mut local = epoch.map(Recorder::new);
            let mut recv_all = |mut r: Option<&mut Recorder>| {
                for i in 0..n {
                    let resp = match r.as_deref_mut() {
                        Some(r) => r.leaf("serve.recv", "serve", base + i, || receiver.recv()),
                        None => receiver.recv(),
                    }
                    .expect("latency response");
                    done.push((Instant::now(), resp));
                }
            };
            match local.as_mut() {
                Some(l) => l.root("serve.recv_loop", base, |l| recv_all(Some(l))),
                None => recv_all(None),
            }
            (done, local)
        });
        let step = Duration::from_secs_f64(1.0 / RATE);
        let start = Instant::now();
        let mut due = Vec::with_capacity(n as usize);
        for i in 0..n {
            let at = start + step * i as u32;
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let sent = Instant::now();
            self.late_us.push((sent - at).as_nanos() as f64 / 1e3);
            due.push(at);
            let id = base + i;
            let req = &self.pool[id as usize % POOL];
            match rec.as_deref_mut() {
                Some(r) => r.leaf("serve.send", "serve", id, || sender.send_with_id(id, req)),
                None => sender.send_with_id(id, req),
            }
            .expect("send latency request");
        }
        let (done, local) = recv_thread.join().expect("latency receiver");
        self.receivers.extend(local);
        (done, due)
    }

    /// Compares every pool entry's served answer with the one-shot
    /// library result.
    pub fn check_against_library(&mut self) {
        let tenants: Vec<TenantKeys> = (0..TENANTS)
            .map(|t| TenantKeys::derive(self.cfg.tenant_root, t))
            .collect();
        for (req, seen) in self.pool.iter().zip(&self.seen) {
            if let Some(payload) = seen {
                self.attempted += 1;
                self.wrong += u64::from(one_shot(req, &tenants).as_ref() != Some(payload));
            }
        }
    }

    /// End-to-end metrics: the median over latency windows of each
    /// window's p50 and p90. Serving moves with the host's speed regime
    /// (measured over 5 minutes: 7k–14k requests/s, p50 670–920 µs); of
    /// the statistics tried on 36 s stretches of that record these agreed
    /// best. The capacity figure, p90 over capacity phases, still spread
    /// too far between runs for a bound and is a per-layer metric.
    pub fn end_to_end(&mut self, out: &mut Out) {
        let mut rates = self.capacity_rates();
        out.put("serve_p50_us", median(&mut self.win_p50_us), "us");
        out.put("serve_p90_us", median(&mut self.win_p90_us), "us");
        out.line(describe(
            "serve.capacity_phase",
            "/s",
            &mut rates,
            &[1_000, 5_000, 9_000],
        ));
        out.line(describe(
            "serve.window_p50",
            "us",
            &mut self.win_p50_us,
            &[1_000, 5_000, 9_000],
        ));
        out.line(describe(
            "serve.window_p90",
            "us",
            &mut self.win_p90_us,
            &[1_000, 5_000, 9_000],
        ));
        out.line(describe(
            "serve.latency",
            "us",
            &mut self.lat_us,
            &[5_000, 9_000, 9_900],
        ));
        out.line(describe(
            "serve.gen_late",
            "us",
            &mut self.late_us,
            &[5_000, 9_900],
        ));
        let (cm, lm) = self.mean_flushes();
        out.line(format!(
            "serve.flushes capacity={} (mean {cm:.1}) latency={} (mean {lm:.2}) max={} busy={} rate={RATE}/s inflight={INFLIGHT} conns={}",
            self.cap_stats.flushes, self.lat_stats.flushes, self.max_flush, self.busy, self.conns
        ));
    }

    /// Completed requests per second of each capacity phase.
    fn capacity_rates(&self) -> Vec<f64> {
        self.cap_blocks.iter().map(|&(n, t)| n as f64 / t).collect()
    }

    /// Per-layer metrics of a traced run, read from the spans of the
    /// direct per-layer calls made by [`Serve::layer_calls`].
    pub fn per_layer(&mut self, spans: &[Span], out: &mut Out) {
        let mut rates = self.capacity_rates();
        out.put("serve_ops_per_s", pct(sorted(&mut rates), 9_000), "1/s");
        let (cm, lm) = self.mean_flushes();
        let p50 = |name: &str| median(&mut durations_us(spans, name));
        out.put(
            "serve.flushes",
            (self.cap_stats.flushes + self.lat_stats.flushes) as f64,
            "count",
        );
        out.put("serve.mean_flush", cm, "count");
        out.put("serve.lat_mean_flush", lm, "count");
        out.put("serve.max_flush", self.max_flush as f64, "count");
        out.put("serve.busy_rejects", self.busy as f64, "count");
        out.put("serve.exec_flush_us", p50("serve.exec_flush"), "us");
        out.put("serve.proto_us", p50("serve.proto"), "us");
        let n = self.lat_us.len();
        let window = self.cfg.window_us as f64;
        let lat = sorted(&mut self.lat_us);
        let overhead = pct(lat, 5_000) - window - p50("serve.exec_flush_lat");
        out.put("serve.overhead_us", overhead, "us");
        out.put("serve.p99_us", pct(lat, 9_900), "us");
        out.put("serve.p999_us", pct(lat, 9_990), "us");
        out.put("serve.latency_n", n as f64, "count");
        out.put(
            "serve.gen_late_p99_us",
            pct(sorted(&mut self.late_us), 9_900),
            "us",
        );
        let m = batch_size(cm);
        out.put(
            "curve.batch_sm_item_us",
            p50("curve.batch_scalar_mul") / m as f64,
            "us",
        );
        out.put(
            "curve.batch_to_affine_item_us",
            p50("curve.batch_to_affine") / m as f64,
            "us",
        );
        out.put(
            "sig.sign_batch_item_us",
            p50("sig.sign_batch") / m as f64,
            "us",
        );
        out.put(
            "sig.verify_batch_item_us",
            p50("sig.verify_batch") / m as f64,
            "us",
        );
        out.put("pool.fanout_us", p50("pool.map_items"), "us");
        out.put(
            "pool.threads",
            fourq_pool::resolved_threads() as f64,
            "count",
        );
    }

    /// Capacity phases as rounds: the share whose time per request is
    /// over 1.3× the fastest quartile's.
    pub fn slow_round_frac(&mut self) -> f64 {
        let mut per_request: Vec<f64> =
            self.cap_blocks.iter().map(|&(n, t)| t / n as f64).collect();
        crate::stats::slow_frac(&mut per_request)
    }

    /// Direct calls into each layer the server uses, at the capacity
    /// phase's mean flush size: a replayed flush through
    /// `exec::execute_flush`, the batch curve and signature calls, the
    /// pool fan-out, and the wire encoding. Each call gets a span.
    pub fn layer_calls(&self, rec: &mut Recorder, req: u64) {
        let (cm, lm) = self.mean_flushes();
        let threads = fourq_pool::resolved_threads();
        let engine = MultiCurveEngine::shared().with_threads(threads);
        let eng = engine.fourq();
        let tenants = TenantDirectory::new(self.cfg.tenant_root);
        for t in 0..TENANTS {
            tenants.resolve(t);
        }
        let m = batch_size(cm);
        let flush = |size: usize| -> Vec<Pending> {
            (0..size as u64)
                .map(|i| Pending {
                    conn: 0,
                    id: req * 1000 + i,
                    req: self.req(req * 1000 + i).clone(),
                })
                .collect()
        };
        let (big, small) = (flush(m), flush(batch_size(lm)));
        rec.leaf("serve.exec_flush", "serve", req, || {
            execute_flush(&engine, &tenants, &big)
        });
        rec.leaf("serve.exec_flush_lat", "serve", req, || {
            execute_flush(&engine, &tenants, &small)
        });
        let pairs: Vec<(Scalar, AffinePoint)> = (0..m)
            .map(|i| (Scalar::from_u64(i as u64 + 3), AffinePoint::generator()))
            .collect();
        let projective: Vec<_> = pairs.iter().map(|(k, p)| p.mul_extended(k)).collect();
        rec.leaf("curve.batch_scalar_mul", "curve", req, || {
            eng.batch_scalar_mul(&pairs)
        });
        rec.leaf("curve.batch_to_affine", "curve", req, || {
            eng.batch_to_affine(&projective)
        });
        let keys = tenants.resolve(0);
        let msgs: Vec<Vec<u8>> = (0..m).map(|i| (i as u64).to_le_bytes().to_vec()).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let sigs = rec.leaf("sig.sign_batch", "sig", req, || {
            keys.schnorr.sign_batch_with(eng, &refs)
        });
        let items: Vec<_> = refs
            .iter()
            .zip(&sigs)
            .map(|(msg, sig)| (&keys.schnorr.public, *msg, sig))
            .collect();
        let ok = rec.leaf("sig.verify_batch", "sig", req, || {
            schnorr::verify_batch_with(eng, &items)
        });
        assert!(ok, "batch of valid signatures must verify");
        let noop: Vec<u64> = (0..threads as u64).collect();
        rec.leaf("pool.map_items", "pool", req, || {
            fourq_pool::map_items(&noop, 1, threads, |_, x| std::hint::black_box(*x))
        });
        rec.leaf("serve.proto", "serve", req, || {
            let r = self.req(req);
            let frame = proto::encode_request(req, r);
            let decoded = proto::decode_request(&frame[4..]).expect("request decodes");
            let resp = Response {
                id: decoded.0,
                status: Status::Ok,
                payload: vec![0u8; 64],
            };
            let bytes = proto::encode_response(&resp);
            proto::decode_response(&bytes[4..]).expect("response decodes")
        });
    }
}

fn batch_size(mean: f64) -> usize {
    (mean.round() as usize).max(1)
}

fn add_delta(acc: &mut WireStats, now: &WireStats, before: &WireStats) {
    acc.flushes += now.flushes - before.flushes;
    acc.items += now.items - before.items;
    acc.busy_rejects += now.busy_rejects - before.busy_rejects;
}

/// A closed-loop connection: `window` requests in flight until `until`,
/// then drain. Ids start at `first` and step by `stride` so connections
/// never share one. Returns the responses and the next unused id.
fn closed_loop(
    addr: SocketAddr,
    pool: &[Request],
    first: u64,
    stride: u64,
    window: usize,
    until: Instant,
) -> std::io::Result<(Done, u64)> {
    let mut client = Client::connect(addr)?;
    let mut id = first;
    let mut outstanding = 0usize;
    for _ in 0..window {
        client.send_with_id(id, &pool[id as usize % POOL])?;
        id += stride;
        outstanding += 1;
    }
    let mut done = Vec::new();
    while outstanding > 0 {
        let r = client.recv()?;
        let t = Instant::now();
        outstanding -= 1;
        done.push((t, r));
        if t < until {
            client.send_with_id(id, &pool[id as usize % POOL])?;
            id += stride;
            outstanding += 1;
        }
    }
    Ok((done, id))
}

#[cfg(test)]
mod tests {
    #[test]
    fn same_seed_gives_identical_requests() {
        let a = super::request_pool(11);
        assert_eq!(a, super::request_pool(11));
        assert_ne!(a, super::request_pool(12));
        assert_eq!(a.len(), super::POOL);
    }
}
