//! Differential tests: served responses are bit-identical to one-shot
//! library calls, across executor counts and coalescing windows.
//!
//! The serving stack promises that batching is *observably transparent*:
//! whether a request executes alone (`max_batch = 1`) or lands in the
//! middle of a coalesced flush, and whichever executor runs it, the
//! response bytes are the same. These tests drive a fixed workload of
//! all seven op kinds — including mixed-curve `CurveMul` traffic over
//! Fourℚ, X25519 and P-256 — through real TCP connections under
//! flush-of-one, the work-conserving default and a 500 µs window, and
//! compare against locally computed expectations. The server runs one
//! executor per `FOURQ_THREADS` thread; CI runs the suite at 1 and 4.

use fourq_curve::{params::ORDER, AffinePoint, CurveId, FourQEngine, MultiCurveEngine};
use fourq_fp::Scalar;
use fourq_serve::proto::{Request, Status};
use fourq_serve::tenant::TenantKeys;
use fourq_serve::{Client, ServerConfig};
use fourq_sig::{dh, schnorr};

const ROOT: u64 = 0x4007_DA7E; // ServerConfig::default().tenant_root

/// A deterministic mixed workload touching every op kind, valid and
/// invalid inputs included.
fn workload() -> Vec<Request> {
    let eng = FourQEngine::shared();
    let mut reqs = Vec::new();
    let point = |k: u64| eng.fixed_base_mul(&Scalar::from_u64(k)).encode();
    let kp = schnorr::KeyPair::from_seed(&[3u8; 32]);
    for i in 1u64..=4 {
        reqs.push(Request::ScalarMul {
            scalar: Scalar::from_u64(1000 + i),
            point: point(i),
        });
        reqs.push(Request::FixedBaseMul {
            scalar: Scalar::from_u64(2000 + i),
        });
        reqs.push(Request::SchnorrSign {
            tenant: i % 3,
            msg: format!("sign-{i}").into_bytes(),
        });
        let msg = format!("verify-{i}").into_bytes();
        let sig = kp.sign(&msg);
        let mut sig_r = sig.r;
        if i == 4 {
            // One bad signature, to pin the per-item fallback path.
            sig_r[0] ^= 1;
        }
        reqs.push(Request::SchnorrVerify {
            public: kp.public.encoded,
            sig_r,
            sig_s: sig.s,
            msg,
        });
        reqs.push(Request::EcdsaSign {
            tenant: i % 3,
            msg: format!("ecdsa-{i}").into_bytes(),
        });
        reqs.push(Request::Ecdh {
            tenant: i % 3,
            peer: dh::EphemeralSecret::from_seed(&[i as u8; 32]).public,
        });
        // Mixed-curve traffic: one CurveMul per curve per round, all
        // sharing the window with the Fourℚ ops above.
        let meng = MultiCurveEngine::shared();
        for curve in CurveId::ALL {
            let mut scalar = [0u8; 32];
            scalar[0] = i as u8;
            scalar[8] = curve.byte() + 1;
            reqs.push(Request::CurveMul {
                curve,
                scalar,
                point: meng.generator_encoded(curve),
            });
        }
    }
    // A mixed-order point S + T (T in the 392-torsion): the GLV split
    // must stay exact off the order-N subgroup.
    reqs.push(Request::ScalarMul {
        scalar: Scalar::from_u64(0xfeed_f00d),
        point: mixed_order_point().encode(),
    });
    // An invalid point: decode fails, response must be Failed.
    reqs.push(Request::ScalarMul {
        scalar: Scalar::from_u64(5),
        point: [0xFF; 32],
    });
    // An off-curve P-256 CurveMul point: executes Failed, batch intact.
    reqs.push(Request::CurveMul {
        curve: CurveId::P256,
        scalar: [2u8; 32],
        point: vec![0xFF; 64],
    });
    reqs
}

/// `[7]G + T` for the first decodable `y = 2, 3, …` whose point has a
/// nonzero torsion part `T = [N]R`.
fn mixed_order_point() -> AffinePoint {
    let torsion = (2u8..)
        .filter_map(|y| {
            let mut bytes = [0u8; 32];
            bytes[0] = y;
            AffinePoint::decode(&bytes).ok()
        })
        .map(|r| r.mul_u256_generic(&ORDER))
        .find(|t| !t.is_identity())
        .expect("a curve point with a torsion component");
    AffinePoint::generator()
        .mul_generic(&Scalar::from_u64(7))
        .add(&torsion)
}

/// Runs the workload through a real server and returns `(status,
/// payload)` per request, in request order.
fn serve_workload(cfg: ServerConfig) -> Vec<(Status, Vec<u8>)> {
    let handle = fourq_serve::spawn(cfg).expect("spawn server");
    let reqs = workload();
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (i, req) in reqs.iter().enumerate() {
        client.send_with_id(i as u64 + 1, req).expect("send");
    }
    let mut got: Vec<Option<(Status, Vec<u8>)>> = vec![None; reqs.len()];
    for _ in 0..reqs.len() {
        let resp = client.recv().expect("recv");
        let slot = (resp.id - 1) as usize;
        assert!(got[slot].is_none(), "duplicate response id {}", resp.id);
        got[slot] = Some((resp.status, resp.payload));
    }
    handle.shutdown();
    got.into_iter().map(|o| o.expect("response")).collect()
}

/// One-shot expectations computed directly against the library APIs.
fn expected() -> Vec<(Status, Vec<u8>)> {
    let eng = FourQEngine::shared();
    workload()
        .into_iter()
        .map(|req| match req {
            Request::ScalarMul { scalar, point } => match AffinePoint::decode(&point) {
                Ok(p) => (
                    Status::Ok,
                    p.mul_u256_generic(&scalar.to_u256()).encode().to_vec(),
                ),
                Err(_) => (Status::Failed, Vec::new()),
            },
            Request::FixedBaseMul { scalar } => {
                (Status::Ok, eng.fixed_base_mul(&scalar).encode().to_vec())
            }
            Request::SchnorrSign { tenant, msg } => {
                let keys = TenantKeys::derive(ROOT, tenant);
                let sig = keys.schnorr.sign(&msg);
                let mut payload = sig.r.to_vec();
                payload.extend_from_slice(&sig.s.to_le_bytes());
                (Status::Ok, payload)
            }
            Request::SchnorrVerify {
                public,
                sig_r,
                sig_s,
                msg,
            } => {
                let pk = schnorr::PublicKey {
                    point: AffinePoint::decode(&public).expect("workload pk decodes"),
                    encoded: public,
                };
                let sig = schnorr::Signature { r: sig_r, s: sig_s };
                (Status::Ok, vec![u8::from(schnorr::verify(&pk, &msg, &sig))])
            }
            Request::EcdsaSign { tenant, msg } => {
                let keys = TenantKeys::derive(ROOT, tenant);
                let sig = keys.ecdsa.sign(&msg).expect("ecdsa sign");
                let mut payload = sig.r.to_le_bytes().to_vec();
                payload.extend_from_slice(&sig.s.to_le_bytes());
                (Status::Ok, payload)
            }
            Request::Ecdh { tenant, peer } => {
                let keys = TenantKeys::derive(ROOT, tenant);
                (Status::Ok, keys.dh.agree(&peer).expect("agree").to_vec())
            }
            Request::CurveMul {
                curve,
                scalar,
                point,
            } => match MultiCurveEngine::shared().curve_mul(curve, &scalar, &point) {
                Ok(bytes) => (Status::Ok, bytes),
                Err(_) => (Status::Failed, Vec::new()),
            },
            Request::Stats => unreachable!("workload has no stats probes"),
        })
        .collect()
}

#[test]
fn served_responses_match_one_shot_across_threads_and_windows() {
    let want = expected();
    let flush_of_one = ServerConfig {
        max_batch: 1,
        ..ServerConfig::default()
    };
    let lingering = ServerConfig {
        window_us: 500,
        ..ServerConfig::default()
    };
    let executors = fourq_pool::resolved_threads();
    for cfg in [flush_of_one, ServerConfig::default(), lingering] {
        let got = serve_workload(cfg);
        assert_eq!(
            got, want,
            "served responses diverge at executors={executors} window_us={} max_batch={}",
            cfg.window_us, cfg.max_batch
        );
    }
}

#[test]
fn size_one_workload_matches_one_shot() {
    // A single request on an idle default server flushes alone, at once,
    // and still matches.
    let handle = fourq_serve::spawn(ServerConfig::default()).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let k = Scalar::from_u64(77);
    let resp = client
        .call(&Request::FixedBaseMul { scalar: k })
        .expect("call");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(
        resp.payload,
        FourQEngine::shared().fixed_base_mul(&k).encode().to_vec()
    );
    let stats = handle.stats();
    handle.shutdown();
    assert_eq!((stats.flushes, stats.items, stats.max_flush), (1, 1, 1));
}
