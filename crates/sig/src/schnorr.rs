//! A Schnorr-style signature scheme over FourQ (SchnorrQ-flavoured).
//!
//! Signing costs one fixed-base scalar multiplication on the generator's
//! comb. Verification costs one joint double-scalar multiplication
//! `[s]G + [N−h]A`, a single 65-doubling loop over the endomorphism split
//! of both scalars (`A`'s digits read its ψ table once per doubling, `G`'s
//! the engine's pair table once per two), and a compare of its encoding
//! with `R` — the operation mix of the paper's ITS workload (§II-A).

use fourq_curve::{AffinePoint, FourQEngine};
use fourq_fp::{CtSelect, Scalar};
use fourq_hash::{Digest, Sha512};

/// Items per work chunk of the two per-item stages that fan out. A
/// verification prep item decodes `R` (a square root, ~3.4 µs) and
/// hashes the challenge; a signing item encodes `R`, hashes the
/// challenge and forms `s`. A challenge is one SHA-512 block and a
/// bit-serial wide reduction, ~3 µs, so a chunk is 100–200 µs, at or
/// above a thread spawn, and a stage fans out from 64 items.
const PREP_CHUNK: usize = 32;

/// A signature `(R, s)`: the commitment point (compressed) and the response
/// scalar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Encoded commitment `R = [r]G`.
    pub r: [u8; 32],
    /// Response `s = r + h·d (mod N)`.
    pub s: Scalar,
}

/// A public key (the point `A = [d]G`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublicKey {
    /// The public point.
    pub point: AffinePoint,
    /// Its compressed encoding (cached for hashing).
    pub encoded: [u8; 32],
}

/// A key pair derived deterministically from a 32-byte seed.
///
/// Secret-bearing: `Debug` is implemented manually and redacts the key
/// material (rule R4 of the constant-time policy, `DESIGN.md` §8).
// ct: secret
#[derive(Clone)]
pub struct KeyPair {
    /// Secret scalar `d`.
    // ct: secret
    secret: Scalar,
    /// Nonce-derivation key (second half of the seed expansion).
    // ct: secret
    nonce_key: [u8; 32],
    /// The public key.
    pub public: PublicKey,
}

impl core::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("KeyPair")
            .field("secret", &"<redacted>")
            .field("nonce_key", &"<redacted>")
            .field("public", &self.public)
            .finish()
    }
}

impl KeyPair {
    /// Expands a 32-byte seed into a key pair (SHA-512 split into the
    /// secret scalar and the nonce key, as SchnorrQ does).
    pub fn from_seed(seed: &[u8; 32]) -> KeyPair {
        let expanded = Sha512::digest(seed);
        let mut dbytes = [0u8; 64];
        dbytes[..32].copy_from_slice(&expanded[..32]);
        let secret = Scalar::from_wide_bytes(&dbytes);
        let mut nonce_key = [0u8; 32];
        nonce_key.copy_from_slice(&expanded[32..]);
        let point = FourQEngine::shared().fixed_base_mul(&secret);
        KeyPair {
            secret,
            nonce_key,
            public: PublicKey {
                point,
                encoded: point.encode(),
            },
        }
    }

    /// Signs a message (deterministic nonce: `SHA-512(nonce_key ‖ m)`) —
    /// a batch of size 1 on the shared engine.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let mut out = self.sign_batch_with(FourQEngine::shared(), &[msg]);
        // ct: allow(R5) reason="sign_batch_with returns exactly one signature per message"
        out.pop().expect("batch of one")
    }

    /// Signs many messages on `eng`, amortising the commitment
    /// normalisation: all `[r_i]G` run on the generator's cached table
    /// and a single batch inversion converts every commitment to affine
    /// at once.
    ///
    /// Produces bit-identical signatures to per-message [`KeyPair::sign`]
    /// (the nonce derivation is unchanged) at every thread count of `eng`
    /// ([`FourQEngine::with_threads`]). The fixed-base multiplications
    /// and the per-commitment stage (encode, challenge, `s`) fan out one
    /// after the other, each over whole items; nonce derivation runs on
    /// the calling thread.
    // ct: secret(self) — nonces and the secret scalar; messages are public
    pub fn sign_batch_with(&self, eng: &FourQEngine, msgs: &[&[u8]]) -> Vec<Signature> {
        let nonces: Vec<Scalar> = msgs
            .iter()
            .map(|msg| {
                let mut h = <Sha512 as Digest>::new();
                h.update(&self.nonce_key);
                h.update(msg);
                let mut wide = [0u8; 64];
                wide.copy_from_slice(&h.finalize());
                let r = Scalar::from_wide_bytes(&wide);
                // r = 0 is astronomically unlikely; fall back to r = 1 so
                // signing is total. Masked selection: the nonce is secret.
                Scalar::ct_select(&r, &Scalar::ONE, r.ct_is_zero())
            })
            .collect();
        let commitments = eng.batch_fixed_base_mul(&nonces);
        fourq_pool::map_items(&commitments, PREP_CHUNK, eng.threads(), |i, commitment| {
            let renc = commitment.encode();
            let h = challenge(&renc, &self.public.encoded, msgs[i]);
            Signature {
                r: renc,
                s: nonces[i] + h * self.secret,
            }
        })
    }
}

/// The Fiat–Shamir challenge `h = SHA-512(R ‖ A ‖ m) mod N`.
fn challenge(renc: &[u8; 32], aenc: &[u8; 32], msg: &[u8]) -> Scalar {
    let mut h = <Sha512 as Digest>::new();
    h.update(renc);
    h.update(aenc);
    h.update(msg);
    let mut wide = [0u8; 64];
    wide.copy_from_slice(&h.finalize());
    Scalar::from_wide_bytes(&wide)
}

/// Verifies a signature: `[s]G == R + [h]A`.
///
/// Computes `[s]G + [N−h]A` with one [`fourq_curve::double_scalar_mul`]
/// and compares its encoding with `sig.r`. `R` is never decoded:
/// [`AffinePoint::decode`] accepts exactly the encodings that
/// [`AffinePoint::encode`] produces, so the byte compare gives the verdict
/// of decoding `R` and comparing points, without the square root.
///
/// Returns `false` for malformed `R` encodings, wrong messages, or wrong
/// keys — never panics on attacker-controlled input.
pub fn verify(public: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
    let h = challenge(&sig.r, &public.encoded, msg);
    let lhs =
        fourq_curve::double_scalar_mul(&sig.s, &AffinePoint::generator(), &h.neg(), &public.point);
    lhs.encode() == sig.r
}

/// Batch verification of many `(public key, message, signature)` triples
/// on `eng`, with random linear combination — the throughput
/// optimisation an ITS roadside unit facing the paper's "1000 messages
/// per second" load would deploy.
///
/// Checks `[−Σ cᵢ·sᵢ]G + Σ [cᵢ]Rᵢ + Σ [cᵢ·hᵢ]Aᵢ == O` as one
/// `2n + 1`-term multi-scalar multiplication through
/// [`FourQEngine::msm`] (the endomorphism-split loop for small batches,
/// bucketed Pippenger for large ones), for deterministic pseudorandom
/// 64-bit coefficients `cᵢ` derived from the whole batch (so a forger
/// cannot anticipate them).
///
/// Returns `false` if any `R` fails to decode. When every key and
/// commitment lies in the order-`N` subgroup, it also returns `false` if
/// any signature in the batch is invalid, up to a ~2⁻⁶⁴ chance per
/// batch; callers can fall back to per-item [`verify`] to locate
/// offenders. A key or `R` with a torsion component voids that bound: the
/// `cᵢ` and the mod-`N` folds cancel a torsion component only by chance,
/// so even a batch of one can accept a signature that [`verify`] rejects,
/// or reject one it accepts (ROADMAP item 3).
///
/// The per-item preparation (decoding `Rᵢ`, the challenge hash, the RLC
/// coefficient `cᵢ = SHA-512(seed ‖ i)`) fans out over `eng`'s threads
/// from 64 signatures; each coefficient depends only on the batch
/// seed and the item's index, so the verdict and every intermediate
/// scalar are identical at every thread count
/// ([`FourQEngine::with_threads`]).
pub fn verify_batch_with(eng: &FourQEngine, items: &[(&PublicKey, &[u8], &Signature)]) -> bool {
    if items.is_empty() {
        return true;
    }
    // Coefficient seed binds the entire batch.
    let mut seed_hash = <Sha512 as Digest>::new();
    for (pk, msg, sig) in items {
        seed_hash.update(&pk.encoded);
        seed_hash.update(&(msg.len() as u64).to_le_bytes());
        seed_hash.update(msg);
        seed_hash.update(&sig.r);
        seed_hash.update(&sig.s.to_le_bytes());
    }
    let seed = seed_hash.finalize();

    // Per item: (c_i·s_i contribution, the two MSM terms) — or None for a
    // malformed commitment encoding, which fails the whole batch.
    type Prep = Option<(Scalar, (Scalar, AffinePoint), (Scalar, AffinePoint))>;
    let prepped: Vec<Prep> =
        fourq_pool::map_items(items, PREP_CHUNK, eng.threads(), |i, (pk, msg, sig)| {
            let commitment = match AffinePoint::decode(&sig.r) {
                Ok(p) => p,
                Err(_) => return None,
            };
            // c_i = SHA-512(seed ‖ i) truncated to 64 bits, forced nonzero.
            // ct: public — RLC coefficients derive from public batch data
            let mut ch = <Sha512 as Digest>::new();
            ch.update(&seed);
            ch.update(&(i as u64).to_le_bytes());
            let cb = ch.finalize();
            let mut c8 = [0u8; 8];
            c8.copy_from_slice(&cb[..8]);
            let c = Scalar::from_u64(u64::from_le_bytes(c8) | 1);

            let h = challenge(&sig.r, &pk.encoded, msg);
            Some((c * sig.s, (c, commitment), (c * h, pk.point)))
        });

    let mut gen_scalar = Scalar::ZERO;
    let mut terms: Vec<(Scalar, AffinePoint)> = Vec::with_capacity(2 * items.len() + 1);
    for prep in prepped {
        let Some((cs, r_term, a_term)) = prep else {
            return false;
        };
        gen_scalar = gen_scalar + cs;
        terms.push(r_term);
        terms.push(a_term);
    }
    terms.push((gen_scalar.neg(), AffinePoint::generator()));
    eng.msm(&terms).is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(&[42u8; 32]);
        let msg = b"intersection 12 clear";
        let sig = kp.sign(msg);
        assert!(verify(&kp.public, msg, &sig));
    }

    #[test]
    fn deterministic_signing() {
        let kp = KeyPair::from_seed(&[1u8; 32]);
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
        assert_ne!(kp.sign(b"m"), kp.sign(b"m2"));
    }

    #[test]
    fn rejects_wrong_message() {
        let kp = KeyPair::from_seed(&[3u8; 32]);
        let sig = kp.sign(b"green light");
        assert!(!verify(&kp.public, b"red light", &sig));
    }

    #[test]
    fn rejects_wrong_key() {
        let kp1 = KeyPair::from_seed(&[4u8; 32]);
        let kp2 = KeyPair::from_seed(&[5u8; 32]);
        let sig = kp1.sign(b"msg");
        assert!(!verify(&kp2.public, b"msg", &sig));
    }

    #[test]
    fn rejects_tampered_signature() {
        let kp = KeyPair::from_seed(&[6u8; 32]);
        let mut sig = kp.sign(b"msg");
        sig.s = sig.s + Scalar::ONE;
        assert!(!verify(&kp.public, b"msg", &sig));
        let mut sig2 = kp.sign(b"msg");
        sig2.r[0] ^= 0xff;
        assert!(!verify(&kp.public, b"msg", &sig2));
    }

    #[test]
    fn batch_verification_accepts_valid_batch() {
        let kps: Vec<KeyPair> = (0u8..5)
            .map(|i| KeyPair::from_seed(&[i + 10; 32]))
            .collect();
        let msgs: Vec<Vec<u8>> = (0..5).map(|i| format!("msg {i}").into_bytes()).collect();
        let sigs: Vec<Signature> = kps.iter().zip(&msgs).map(|(kp, m)| kp.sign(m)).collect();
        let items: Vec<(&PublicKey, &[u8], &Signature)> = kps
            .iter()
            .zip(&msgs)
            .zip(&sigs)
            .map(|((kp, m), s)| (&kp.public, m.as_slice(), s))
            .collect();
        assert!(verify_batch_with(FourQEngine::shared(), &items));
    }

    #[test]
    fn batch_verification_rejects_one_bad_item() {
        let kps: Vec<KeyPair> = (0u8..4)
            .map(|i| KeyPair::from_seed(&[i + 30; 32]))
            .collect();
        let msgs: Vec<Vec<u8>> = (0..4).map(|i| format!("cam {i}").into_bytes()).collect();
        let mut sigs: Vec<Signature> = kps.iter().zip(&msgs).map(|(kp, m)| kp.sign(m)).collect();
        sigs[2].s = sigs[2].s + Scalar::ONE; // corrupt one
        let items: Vec<(&PublicKey, &[u8], &Signature)> = kps
            .iter()
            .zip(&msgs)
            .zip(&sigs)
            .map(|((kp, m), s)| (&kp.public, m.as_slice(), s))
            .collect();
        assert!(!verify_batch_with(FourQEngine::shared(), &items));
    }

    #[test]
    fn batch_verification_empty_is_true() {
        assert!(verify_batch_with(FourQEngine::shared(), &[]));
    }

    #[test]
    fn batch_verification_of_single_item() {
        // n = 1 exercises the smallest RLC batch: one commitment term,
        // one key term, one generator term.
        let kp = KeyPair::from_seed(&[0x51u8; 32]);
        let msg: &[u8] = b"solo beacon";
        let sig = kp.sign(msg);
        assert!(verify_batch_with(
            FourQEngine::shared(),
            &[(&kp.public, msg, &sig)]
        ));

        let mut forged = sig;
        forged.s = forged.s + Scalar::ONE;
        assert!(!verify_batch_with(
            FourQEngine::shared(),
            &[(&kp.public, msg, &forged)]
        ));
        let mut bad_r = sig;
        bad_r.r = [0xee; 32]; // does not decode
        assert!(!verify_batch_with(
            FourQEngine::shared(),
            &[(&kp.public, msg, &bad_r)]
        ));
    }

    #[test]
    fn sign_batch_matches_one_shot() {
        let kp = KeyPair::from_seed(&[77u8; 32]);
        let msgs: Vec<Vec<u8>> = (0..9).map(|i| format!("lane {i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let batch = kp.sign_batch_with(FourQEngine::shared(), &refs);
        for (m, s) in refs.iter().zip(&batch) {
            assert_eq!(*s, kp.sign(m));
            assert!(verify(&kp.public, m, s));
        }
        assert!(kp.sign_batch_with(FourQEngine::shared(), &[]).is_empty());
    }

    #[test]
    fn batch_of_64_accepts_and_rejects_single_forgery() {
        // The ISSUE acceptance scenario: 64 good signatures pass; flipping
        // exactly one signature (trying every position would be slow, so
        // probe a few spread across the batch) must fail the whole batch.
        let kps: Vec<KeyPair> = (0u8..64).map(|i| KeyPair::from_seed(&[i; 32])).collect();
        let msgs: Vec<Vec<u8>> = (0..64)
            .map(|i| format!("beacon {i}").into_bytes())
            .collect();
        let sigs: Vec<Signature> = kps.iter().zip(&msgs).map(|(kp, m)| kp.sign(m)).collect();
        let items: Vec<(&PublicKey, &[u8], &Signature)> = kps
            .iter()
            .zip(&msgs)
            .zip(&sigs)
            .map(|((kp, m), s)| (&kp.public, m.as_slice(), s))
            .collect();
        assert!(verify_batch_with(FourQEngine::shared(), &items));

        for forged_at in [0usize, 31, 63] {
            let mut bad_sigs = sigs.clone();
            bad_sigs[forged_at].s = bad_sigs[forged_at].s + Scalar::ONE;
            let bad_items: Vec<(&PublicKey, &[u8], &Signature)> = kps
                .iter()
                .zip(&msgs)
                .zip(&bad_sigs)
                .map(|((kp, m), s)| (&kp.public, m.as_slice(), s))
                .collect();
            assert!(
                !verify_batch_with(FourQEngine::shared(), &bad_items),
                "forgery at {forged_at} accepted"
            );
        }
    }

    #[test]
    fn non_canonical_commitment_is_rejected() {
        // With s = h·d the equation [s]G == R + [h]A holds for R = O
        // whatever bytes were hashed. The identity with its sign bit set
        // is a second encoding of O; only the canonical one may verify.
        let d = Scalar::from_u64(0x5ec7_e7d0);
        let point = FourQEngine::shared().fixed_base_mul(&d);
        let public = PublicKey {
            point,
            encoded: point.encode(),
        };
        let msg = b"identity commitment";
        let canonical = AffinePoint::identity().encode();
        let mut signed = canonical;
        signed[31] |= 0x80;
        for (r, valid) in [(signed, false), (canonical, true)] {
            let s = challenge(&r, &public.encoded, msg) * d;
            assert_eq!(verify(&public, msg, &Signature { r, s }), valid);
        }
    }

    #[test]
    fn malformed_r_is_rejected_not_panicking() {
        let kp = KeyPair::from_seed(&[7u8; 32]);
        let sig = Signature {
            r: [0xee; 32],
            s: Scalar::from_u64(1),
        };
        assert!(!verify(&kp.public, b"msg", &sig));
    }
}
