//! Flush execution: one coalesced window → the batch engine → responses.
//!
//! A flush is a mixed bag of requests. Execution groups it by op kind
//! (for signing, by tenant; for multi-curve `CurveMul`, by curve), runs
//! each group through the matching batch API —
//! [`FourQEngine::batch_scalar_mul`],
//! [`FourQEngine::batch_fixed_base_mul`], `sign_batch_with`,
//! `verify_batch_with` — or, for ECDH and `CurveMul`, which have no
//! batch form, item by item, and emits one encoded response frame per
//! request, tagged with the connection token it came from.
//!
//! **Bit-identical to one-shot calls.** Every batch path in the
//! workspace guarantees results identical to its batch-of-1 form at any
//! thread count, so a response never depends on which requests happened
//! to share a window. The one exception is batch verification: the RLC
//! check yields a single verdict for the whole group, so a failing group
//! falls back to per-item [`schnorr::verify`] to produce exactly the
//! verdicts one-shot calls would, and an accepting group short-circuits.
//! Batch accept implies every item accepts only when every key and
//! commitment lies in the order-`N` subgroup. A key or `R` with a torsion
//! component can pass the batch check and fail [`schnorr::verify`], so
//! its served verdict can depend on which requests shared the flush
//! (ROADMAP item 3 plans the fix). The differential suite pins the
//! subgroup case across flush-of-one, the default and a 500 µs window,
//! and across executor counts.

use crate::proto::{encode_response, Request, Response, Status};
use crate::tenant::TenantDirectory;
use fourq_curve::{AffinePoint, CurveId, FourQEngine, MultiCurveEngine};
use fourq_fp::Scalar;
use fourq_sig::schnorr;
use std::collections::HashMap;

/// A queued request: which connection (generation-tagged token) asked,
/// the client's request id, and the decoded body.
#[derive(Clone, Debug)]
pub struct Pending {
    /// Opaque connection token assigned by the reactor.
    pub conn: u64,
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// The decoded request.
    pub req: Request,
}

/// An encoded response frame destined for a connection token.
pub type Outbound = (u64, Vec<u8>);

fn ok(p: &Pending, payload: Vec<u8>) -> Outbound {
    (
        p.conn,
        encode_response(&Response {
            id: p.id,
            status: Status::Ok,
            payload,
        }),
    )
}

fn failed(p: &Pending) -> Outbound {
    (
        p.conn,
        encode_response(&Response {
            id: p.id,
            status: Status::Failed,
            payload: Vec::new(),
        }),
    )
}

/// Executes one flush. Returns exactly one response per request, in
/// request order within each op kind (the reactor matches them back to
/// clients by id, so cross-kind ordering is irrelevant).
///
/// An empty flush is a no-op by contract — the coalescer never emits
/// one, and this function never invokes a batch API with `n = 0`.
pub fn execute_flush(
    eng: &MultiCurveEngine,
    tenants: &TenantDirectory,
    batch: &[Pending],
) -> Vec<Outbound> {
    let mut out = Vec::with_capacity(batch.len());
    if batch.is_empty() {
        return out;
    }

    let mut scalar_mul: Vec<&Pending> = Vec::new();
    let mut fixed_base: Vec<&Pending> = Vec::new();
    let mut schnorr_sign: HashMap<u64, Vec<&Pending>> = HashMap::new();
    let mut schnorr_verify: Vec<&Pending> = Vec::new();
    let mut ecdsa_sign: HashMap<u64, Vec<&Pending>> = HashMap::new();
    let mut ecdh: Vec<&Pending> = Vec::new();
    let mut curve_mul: HashMap<CurveId, Vec<&Pending>> = HashMap::new();
    for p in batch {
        match &p.req {
            Request::ScalarMul { .. } => scalar_mul.push(p),
            Request::FixedBaseMul { .. } => fixed_base.push(p),
            Request::SchnorrSign { tenant, .. } => schnorr_sign.entry(*tenant).or_default().push(p),
            Request::SchnorrVerify { .. } => schnorr_verify.push(p),
            Request::EcdsaSign { tenant, .. } => ecdsa_sign.entry(*tenant).or_default().push(p),
            Request::Ecdh { .. } => ecdh.push(p),
            Request::CurveMul { curve, .. } => curve_mul.entry(*curve).or_default().push(p),
            // Stats is answered inline by the reactor; a queued one (only
            // constructible in tests) gets an empty Ok.
            Request::Stats => out.push(ok(p, Vec::new())),
        }
    }

    let fq = eng.fourq();
    run_scalar_mul(fq, &scalar_mul, &mut out);
    run_fixed_base(fq, &fixed_base, &mut out);
    for (tenant, group) in schnorr_sign {
        run_schnorr_sign(fq, tenants, tenant, &group, &mut out);
    }
    run_schnorr_verify(fq, &schnorr_verify, &mut out);
    for (tenant, group) in ecdsa_sign {
        run_ecdsa_sign(fq, tenants, tenant, &group, &mut out);
    }
    run_ecdh(tenants, &ecdh, &mut out);
    for (curve, group) in curve_mul {
        run_curve_mul(eng, curve, &group, &mut out);
    }
    out
}

fn run_curve_mul(
    eng: &MultiCurveEngine,
    curve: CurveId,
    group: &[&Pending],
    out: &mut Vec<Outbound>,
) {
    // `curve_mul` reports a bad length or an off-curve point per item,
    // and the group runs in order on the executor's thread.
    for p in group {
        let Request::CurveMul { scalar, point, .. } = &p.req else {
            unreachable!("grouped by kind");
        };
        match eng.curve_mul(curve, scalar, point) {
            Ok(bytes) => out.push(ok(p, bytes)),
            Err(_) => out.push(failed(p)),
        }
    }
}

fn run_scalar_mul(eng: &FourQEngine, group: &[&Pending], out: &mut Vec<Outbound>) {
    if group.is_empty() {
        return;
    }
    // Decode first: invalid points answer Failed without entering the
    // batch (the batch kernel requires curve points).
    let mut pairs: Vec<(Scalar, AffinePoint)> = Vec::with_capacity(group.len());
    let mut slots: Vec<Option<usize>> = Vec::with_capacity(group.len());
    for p in group {
        let Request::ScalarMul { scalar, point } = &p.req else {
            unreachable!("grouped by kind");
        };
        match AffinePoint::decode(point) {
            Ok(pt) => {
                slots.push(Some(pairs.len()));
                pairs.push((*scalar, pt));
            }
            Err(_) => slots.push(None),
        }
    }
    let results = if pairs.is_empty() {
        Vec::new()
    } else {
        eng.batch_scalar_mul(&pairs)
    };
    for (p, slot) in group.iter().zip(&slots) {
        match slot {
            Some(i) => out.push(ok(p, results[*i].encode().to_vec())),
            None => out.push(failed(p)),
        }
    }
}

fn run_fixed_base(eng: &FourQEngine, group: &[&Pending], out: &mut Vec<Outbound>) {
    if group.is_empty() {
        return;
    }
    let ks: Vec<Scalar> = group
        .iter()
        .map(|p| {
            let Request::FixedBaseMul { scalar } = &p.req else {
                unreachable!("grouped by kind");
            };
            *scalar
        })
        .collect();
    let results = eng.batch_fixed_base_mul(&ks);
    for (p, r) in group.iter().zip(&results) {
        out.push(ok(p, r.encode().to_vec()));
    }
}

fn run_schnorr_sign(
    eng: &FourQEngine,
    tenants: &TenantDirectory,
    tenant: u64,
    group: &[&Pending],
    out: &mut Vec<Outbound>,
) {
    if group.is_empty() {
        return;
    }
    let keys = tenants.resolve(tenant);
    let msgs: Vec<&[u8]> = group
        .iter()
        .map(|p| {
            let Request::SchnorrSign { msg, .. } = &p.req else {
                unreachable!("grouped by kind");
            };
            msg.as_slice()
        })
        .collect();
    let sigs = keys.schnorr.sign_batch_with(eng, &msgs);
    for (p, sig) in group.iter().zip(&sigs) {
        let mut payload = Vec::with_capacity(64);
        payload.extend_from_slice(&sig.r);
        payload.extend_from_slice(&sig.s.to_le_bytes());
        out.push(ok(p, payload));
    }
}

fn run_schnorr_verify(eng: &FourQEngine, group: &[&Pending], out: &mut Vec<Outbound>) {
    if group.is_empty() {
        return;
    }
    // Rebuild (PublicKey, msg, Signature) triples; an undecodable public
    // key verifies false (never a protocol error — the bytes framed
    // fine, they just name no curve point).
    let mut triples: Vec<(schnorr::PublicKey, &[u8], schnorr::Signature)> = Vec::new();
    let mut slots: Vec<Option<usize>> = Vec::with_capacity(group.len());
    for p in group {
        let Request::SchnorrVerify {
            public,
            sig_r,
            sig_s,
            msg,
        } = &p.req
        else {
            unreachable!("grouped by kind");
        };
        match AffinePoint::decode(public) {
            Ok(point) => {
                slots.push(Some(triples.len()));
                triples.push((
                    schnorr::PublicKey {
                        point,
                        encoded: *public,
                    },
                    msg.as_slice(),
                    schnorr::Signature {
                        r: *sig_r,
                        s: *sig_s,
                    },
                ));
            }
            Err(_) => slots.push(None),
        }
    }
    let items: Vec<(&schnorr::PublicKey, &[u8], &schnorr::Signature)> =
        triples.iter().map(|(pk, m, s)| (pk, *m, s)).collect();
    // RLC batch verdict: on subgroup keys and commitments, accept ⇒ every
    // member verifies individually (soundness error ~2⁻⁶⁴ per the
    // coefficient width). A torsion component breaks that bound: the
    // coefficients and the mod-N folds cancel it only by chance, so such
    // an item can be accepted here and rejected by `schnorr::verify`
    // (ROADMAP item 3). On reject, fall back to per-item verification so
    // each response matches the one-shot API exactly.
    let all_good = !items.is_empty() && schnorr::verify_batch_with(eng, &items);
    for (p, slot) in group.iter().zip(&slots) {
        let verdict = match slot {
            Some(i) => {
                all_good || {
                    let (pk, m, s) = &triples[*i];
                    schnorr::verify(pk, m, s)
                }
            }
            None => false,
        };
        out.push(ok(p, vec![verdict as u8]));
    }
}

fn run_ecdsa_sign(
    eng: &FourQEngine,
    tenants: &TenantDirectory,
    tenant: u64,
    group: &[&Pending],
    out: &mut Vec<Outbound>,
) {
    if group.is_empty() {
        return;
    }
    let keys = tenants.resolve(tenant);
    let msgs: Vec<&[u8]> = group
        .iter()
        .map(|p| {
            let Request::EcdsaSign { msg, .. } = &p.req else {
                unreachable!("grouped by kind");
            };
            msg.as_slice()
        })
        .collect();
    match keys.ecdsa.sign_batch_with(eng, &msgs) {
        Ok(sigs) => {
            for (p, sig) in group.iter().zip(&sigs) {
                let mut payload = Vec::with_capacity(64);
                payload.extend_from_slice(&sig.r.to_le_bytes());
                payload.extend_from_slice(&sig.s.to_le_bytes());
                out.push(ok(p, payload));
            }
        }
        // BadNonce is unreachable in practice; fail the group, not the
        // process.
        Err(_) => {
            for p in group {
                out.push(failed(p));
            }
        }
    }
}

fn run_ecdh(tenants: &TenantDirectory, group: &[&Pending], out: &mut Vec<Outbound>) {
    // No batch form exists for the agreement itself (one variable-base
    // multiplication per peer point): the group runs in order on the
    // executor's thread.
    for p in group {
        let Request::Ecdh { tenant, peer } = &p.req else {
            unreachable!("grouped by kind");
        };
        match tenants.resolve(*tenant).dh.agree(peer) {
            Ok(secret) => out.push(ok(p, secret.to_vec())),
            Err(_) => out.push(failed(p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Status;

    fn eng() -> MultiCurveEngine {
        MultiCurveEngine::shared().with_threads(1)
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let tenants = TenantDirectory::new(0);
        assert!(execute_flush(&eng(), &tenants, &[]).is_empty());
    }

    #[test]
    fn size_one_flush_matches_one_shot() {
        let tenants = TenantDirectory::new(0);
        let k = Scalar::from_u64(1234);
        let p = Pending {
            conn: 1,
            id: 9,
            req: Request::FixedBaseMul { scalar: k },
        };
        let out = execute_flush(&eng(), &tenants, &[p]);
        assert_eq!(out.len(), 1);
        let resp = crate::proto::decode_response(&out[0].1[4..]).unwrap();
        assert_eq!(resp.status, Status::Ok);
        let expect = FourQEngine::shared().fixed_base_mul(&k).encode();
        assert_eq!(resp.payload, expect.to_vec());
    }

    #[test]
    fn invalid_point_fails_without_poisoning_the_batch() {
        let tenants = TenantDirectory::new(0);
        let g = AffinePoint::generator();
        let good = Pending {
            conn: 0,
            id: 1,
            req: Request::ScalarMul {
                scalar: Scalar::from_u64(5),
                point: g.encode(),
            },
        };
        let bad = Pending {
            conn: 0,
            id: 2,
            req: Request::ScalarMul {
                scalar: Scalar::from_u64(5),
                point: [0xee; 32],
            },
        };
        let out = execute_flush(&eng(), &tenants, &[good, bad]);
        let by_id: HashMap<u64, Response> = out
            .iter()
            .map(|(_, b)| {
                let r = crate::proto::decode_response(&b[4..]).unwrap();
                (r.id, r)
            })
            .collect();
        assert_eq!(by_id[&1].status, Status::Ok);
        assert_eq!(
            by_id[&1].payload,
            g.mul(&Scalar::from_u64(5)).encode().to_vec()
        );
        assert_eq!(by_id[&2].status, Status::Failed);
    }

    #[test]
    fn mixed_verify_group_matches_one_shot_verdicts() {
        let tenants = TenantDirectory::new(7);
        let keys = tenants.resolve(3);
        let sig = keys.schnorr.sign(b"good");
        let mk = |id: u64, msg: &[u8], r: [u8; 32], s: Scalar| Pending {
            conn: 0,
            id,
            req: Request::SchnorrVerify {
                public: keys.schnorr.public.encoded,
                sig_r: r,
                sig_s: s,
                msg: msg.to_vec(),
            },
        };
        let batch = [
            mk(1, b"good", sig.r, sig.s),
            mk(2, b"evil", sig.r, sig.s),               // wrong message
            mk(3, b"good", sig.r, sig.s + Scalar::ONE), // tampered s
        ];
        let out = execute_flush(&eng(), &tenants, &batch);
        let verdicts: HashMap<u64, u8> = out
            .iter()
            .map(|(_, b)| {
                let r = crate::proto::decode_response(&b[4..]).unwrap();
                (r.id, r.payload[0])
            })
            .collect();
        assert_eq!(verdicts[&1], 1);
        assert_eq!(verdicts[&2], 0);
        assert_eq!(verdicts[&3], 0);
    }

    #[test]
    fn mixed_curve_flush_matches_one_shot() {
        let tenants = TenantDirectory::new(0);
        let eng = eng();
        let mut batch = Vec::new();
        let mut want = Vec::new();
        for (i, curve) in CurveId::ALL.into_iter().enumerate() {
            let mut scalar = [0u8; 32];
            scalar[0] = i as u8 + 3;
            let point = eng.generator_encoded(curve);
            want.push((
                i as u64 + 1,
                eng.curve_mul(curve, &scalar, &point).expect("one-shot"),
            ));
            batch.push(Pending {
                conn: 0,
                id: i as u64 + 1,
                req: Request::CurveMul {
                    curve,
                    scalar,
                    point,
                },
            });
        }
        // An off-curve P-256 point fails without poisoning the flush.
        batch.push(Pending {
            conn: 0,
            id: 99,
            req: Request::CurveMul {
                curve: CurveId::P256,
                scalar: [1u8; 32],
                point: vec![0xFF; 64],
            },
        });
        let out = execute_flush(&eng, &tenants, &batch);
        let by_id: HashMap<u64, Response> = out
            .iter()
            .map(|(_, b)| {
                let r = crate::proto::decode_response(&b[4..]).unwrap();
                (r.id, r)
            })
            .collect();
        for (id, payload) in want {
            assert_eq!(by_id[&id].status, Status::Ok, "id {id}");
            assert_eq!(by_id[&id].payload, payload, "id {id}");
        }
        assert_eq!(by_id[&99].status, Status::Failed);
    }
}
