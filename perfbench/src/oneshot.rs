//! The one-shot library section: single calls of [k]P, [k]G, Schnorr
//! sign, Schnorr verify and ECDH, interleaved in rounds on distinct
//! seeded inputs. A batch of one takes the scalar kernel, so fp, curve,
//! hash and sig do all the work and pool, the lane code and serve none.

use crate::inputs::{Rng, LIB};
use crate::metrics::Out;
use crate::spans::{durations_us, Recorder};
use crate::stats::{describe, median, pct, sorted, FAST};
use fourq_curve::{
    decompose, double_scalar_mul, recode, scalar_mul_engine, AffinePoint, FourQEngine,
};
use fourq_fp::{Fp2, Scalar};
use fourq_hash::{Digest, Sha512};
use fourq_sig::dh::EphemeralSecret;
use fourq_sig::schnorr::{self, KeyPair};
use std::hint::black_box;
use std::time::Instant;

/// The timed ops of a round, in call order.
pub const OPS: [&str; 5] = ["sm", "fixed_base", "sign", "verify", "ecdh"];
const POINTS: usize = 64;
const KEYS: usize = 8;

pub struct Lib {
    eng: FourQEngine,
    rng: Rng,
    points: Vec<AffinePoint>,
    keys: Vec<KeyPair>,
    peers: Vec<EphemeralSecret>,
    rounds: u64,
    /// Host µs per call, one vector per entry of [`OPS`].
    samples: [Vec<f64>; 5],
    /// Host µs of the five calls of each untraced round.
    pub round_us: Vec<f64>,
    /// Host µs of each round's sign and ECDH calls, untraced and traced:
    /// the two calls a traced round makes unchanged, inside spans.
    pub calls_us: Vec<f64>,
    pub traced_calls_us: Vec<f64>,
    pub attempted: u64,
    pub wrong: u64,
}

/// The round's inputs, drawn before any call is timed.
struct Draw {
    k: Scalar,
    msg: [u8; 32],
    p: AffinePoint,
    /// Index of the signing key and of this side's ECDH secret.
    a: usize,
    /// Index of the ECDH peer.
    b: usize,
}

impl Lib {
    /// Builds a fresh engine (the generator comb table) and the seeded
    /// input pools.
    pub fn setup(seed: u64) -> Lib {
        let eng = FourQEngine::new();
        let mut rng = Rng::new(seed, LIB);
        let points = (0..POINTS)
            .map(|_| eng.fixed_base_mul(&rng.scalar()))
            .collect();
        let keys = (0..KEYS)
            .map(|_| KeyPair::from_seed(&rng.bytes32()))
            .collect();
        let peers = (0..KEYS)
            .map(|_| EphemeralSecret::from_seed(&rng.bytes32()))
            .collect();
        Lib {
            eng,
            rng,
            points,
            keys,
            peers,
            rounds: 0,
            samples: Default::default(),
            round_us: Vec::new(),
            calls_us: Vec::new(),
            traced_calls_us: Vec::new(),
            attempted: 0,
            wrong: 0,
        }
    }

    fn draw(&mut self) -> Draw {
        let i = self.rounds as usize;
        self.rounds += 1;
        Draw {
            k: self.rng.scalar(),
            msg: self.rng.bytes32(),
            p: self.points[i % POINTS],
            a: i % KEYS,
            b: (i + 3) % KEYS,
        }
    }

    /// One untraced round: the five calls, each timed alone, then the
    /// output checks outside the timed calls.
    pub fn round(&mut self) {
        let d = self.draw();
        let (key, a, b) = (&self.keys[d.a], &self.peers[d.a], &self.peers[d.b]);
        let t0 = Instant::now();
        let sm = self.eng.scalar_mul(black_box(&d.p), black_box(&d.k));
        let t1 = Instant::now();
        let fb = self.eng.fixed_base_mul(black_box(&d.k));
        let t2 = Instant::now();
        let sig = key.sign(black_box(&d.msg));
        let t3 = Instant::now();
        let ok = schnorr::verify(&key.public, black_box(&d.msg), black_box(&sig));
        let t4 = Instant::now();
        let shared = a.agree(black_box(&b.public));
        let t5 = Instant::now();
        let t = [t0, t1, t2, t3, t4, t5];
        for (i, s) in self.samples.iter_mut().enumerate() {
            s.push((t[i + 1] - t[i]).as_nanos() as f64 / 1e3);
        }
        self.round_us.push((t5 - t0).as_nanos() as f64 / 1e3);
        self.calls_us
            .push(((t3 - t2) + (t5 - t4)).as_nanos() as f64 / 1e3);
        self.check(&d, sm, fb, ok, shared);
    }

    /// One traced round: the same five operations, rebuilt from each
    /// layer's public calls where the library exposes them, with a span
    /// around every call, under one root span. Sign and ECDH keep private
    /// key material, so they are one span each. The draw and the output
    /// checks stay outside the root, as they stay outside the untraced
    /// round's timing.
    pub fn traced_round(&mut self, rec: &mut Recorder) {
        let d = self.draw();
        let req = self.rounds;
        let (eng, key) = (&self.eng, &self.keys[d.a]);
        let (a, b) = (&self.peers[d.a], &self.peers[d.b]);
        let mut calls = std::time::Duration::ZERO;
        let (sm, fb, ok, shared) = rec.root("round", req, |rec| {
            let sm = rec.span("op.sm", "harness", req, |r| {
                let (digits, corrected) = r.leaf("curve.decompose", "curve", req, || {
                    let dec = decompose(black_box(&d.k));
                    (recode(&dec), dec.corrected)
                });
                let q = r.leaf("curve.engine", "curve", req, || {
                    let p = black_box(&d.p);
                    scalar_mul_engine(&p.x, &p.y, &Fp2::ONE, eng.two_d(), &digits, corrected).point
                });
                r.leaf("curve.normalize", "curve", req, || {
                    eng.batch_to_affine(std::slice::from_ref(&q))[0]
                })
            });
            let fb = rec.span("op.fixed_base", "harness", req, |r| {
                let q = r.leaf("curve.comb", "curve", req, || {
                    eng.generator_table().mul_extended(black_box(&d.k))
                });
                r.leaf("curve.normalize", "curve", req, || {
                    eng.batch_to_affine(std::slice::from_ref(&q))[0]
                })
            });
            let t = Instant::now();
            let sig = rec.span("op.sign", "harness", req, |r| {
                r.leaf("sig.sign", "sig", req, || key.sign(black_box(&d.msg)))
            });
            calls += t.elapsed();
            let ok = rec.span("op.verify", "harness", req, |r| {
                let commitment =
                    r.leaf("curve.decode", "curve", req, || AffinePoint::decode(&sig.r));
                let h = r.leaf("hash.sha512", "hash", req, || {
                    let mut h = <Sha512 as Digest>::new();
                    h.update(&sig.r);
                    h.update(&key.public.encoded);
                    h.update(black_box(&d.msg));
                    let mut wide = [0u8; 64];
                    wide.copy_from_slice(&h.finalize());
                    Scalar::from_wide_bytes(&wide)
                });
                let lhs = r.leaf("curve.double_scalar", "curve", req, || {
                    double_scalar_mul(
                        &sig.s,
                        &AffinePoint::generator(),
                        &h.neg(),
                        &key.public.point,
                    )
                });
                commitment.is_ok_and(|c| c == lhs)
            });
            let t = Instant::now();
            let shared = rec.span("op.ecdh", "harness", req, |r| {
                r.leaf("sig.ecdh", "sig", req, || a.agree(black_box(&b.public)))
            });
            calls += t.elapsed();
            (sm, fb, ok, shared)
        });
        self.traced_calls_us.push(calls.as_nanos() as f64 / 1e3);
        self.check(&d, sm, fb, ok, shared);
    }

    /// [k]P and [k]G against plain double-and-add, the signature by
    /// verify-after-sign, and ECDH by agreeing from the other side.
    fn check(
        &mut self,
        d: &Draw,
        sm: AffinePoint,
        fb: AffinePoint,
        verified: bool,
        shared: Result<[u8; 64], fourq_sig::dh::AgreeError>,
    ) {
        let (a, b) = (&self.peers[d.a], &self.peers[d.b]);
        let results = [
            sm == d.p.mul_generic(&d.k),
            fb == AffinePoint::generator().mul_generic(&d.k),
            verified,
            verified,
            shared.is_ok() && shared.ok() == b.agree(&a.public).ok(),
        ];
        self.attempted += results.len() as u64;
        self.wrong += results.iter().filter(|ok| !**ok).count() as u64;
    }

    /// Checks the engine against the scalar-multiplication and Schnorr
    /// known-answer vectors.
    pub fn check_kats(&mut self) {
        let (ok, total) = crate::kat::check(&self.eng);
        self.attempted += total;
        self.wrong += total - ok;
    }

    /// Share of rounds slower than 1.3× the fastest quartile of rounds.
    pub fn slow_round_frac(&mut self) -> f64 {
        crate::stats::slow_frac(&mut self.round_us)
    }

    /// End-to-end metrics: host µs per call in the fast phase.
    pub fn end_to_end(&mut self, out: &mut Out) {
        for (name, i) in [
            ("sm_us", 0),
            ("fixed_base_us", 1),
            ("sign_us", 2),
            ("verify_us", 3),
        ] {
            out.put(name, pct(sorted(&mut self.samples[i]), FAST), "us");
        }
        for (op, s) in OPS.iter().zip(self.samples.iter_mut()) {
            out.line(describe(
                &format!("oneshot.{op}"),
                "us",
                s,
                &[FAST, 1_000, 5_000, 9_900],
            ));
        }
    }

    /// Per-layer metrics of a traced run.
    pub fn per_layer(&mut self, spans: &[crate::spans::Span], out: &mut Out) {
        let p50 = |name: &str| median(&mut durations_us(spans, name));
        let (decomp, engine, norm) = (
            p50("curve.decompose"),
            p50("curve.engine"),
            p50("curve.normalize"),
        );
        let (comb, dsm, decode, sha) = (
            p50("curve.comb"),
            p50("curve.double_scalar"),
            p50("curve.decode"),
            p50("hash.sha512"),
        );
        out.put("curve.decompose_us", decomp, "us");
        out.put("curve.engine_us", engine, "us");
        out.put("curve.normalize_us", norm, "us");
        out.put("curve.comb_us", comb, "us");
        out.put("curve.double_scalar_us", dsm, "us");
        out.put("hash.sha512_us", sha, "us");
        // Sign hashes twice (nonce and challenge, one block each at these
        // message sizes) around one comb multiplication and normalisation.
        let sign = median(&mut self.samples[2]);
        let verify = median(&mut self.samples[3]);
        out.put("sig.sign_self_us", sign - 2.0 * sha - comb - norm, "us");
        out.put("sig.verify_self_us", verify - decode - sha - dsm, "us");
        out.put("sig.ecdh_us", p50("sig.ecdh"), "us");
        for (op, s) in OPS.iter().zip(self.samples.iter_mut()) {
            let n = s.len();
            let s = sorted(s);
            out.put(&format!("oneshot.{op}_p50_us"), pct(s, 5_000), "us");
            out.put(&format!("oneshot.{op}_p99_us"), pct(s, 9_900), "us");
            out.put(&format!("oneshot.{op}_n"), n as f64, "count");
        }
    }
}
