//! The ECDSA workflow of the paper's §II-A, instantiated on FourQ.
//!
//! The generation and verification steps follow the paper's numbered lists
//! exactly. One adaptation is needed because FourQ points live over `F_p²`:
//! step 4's `r = x₁ mod n` reduces the *encoded* 32-byte x-coordinate as a
//! 256-bit integer modulo `N` (a standard adaptation for extension-field
//! curves; documented in `DESIGN.md`).
//!
//! Nonces are derived deterministically (RFC 6979 flavour: HMAC-SHA-256
//! over the secret key and message digest), so no RNG is required.

use fourq_curve::{AffinePoint, FourQEngine};
use fourq_fp::{Scalar, U256};
use fourq_hash::{Hmac, Sha256};

/// An ECDSA signature `(r, s)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    /// `r = enc(x₁) mod N`.
    pub r: Scalar,
    /// `s = k⁻¹(z + r·d) mod N`.
    pub s: Scalar,
}

/// An ECDSA key pair.
///
/// Secret-bearing: `Debug` redacts the scalar (rule R4, `DESIGN.md` §8).
// ct: secret
#[derive(Clone)]
pub struct KeyPair {
    // ct: secret
    secret: Scalar,
    /// The public key `Q_A = [d_A]G`.
    pub public: AffinePoint,
}

impl core::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("KeyPair")
            .field("secret", &"<redacted>")
            .field("public", &self.public)
            .finish()
    }
}

/// Errors that can occur while signing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignError {
    /// The secret key is zero (invalid).
    ZeroKey,
    /// Nonce retry limit exhausted (practically unreachable).
    BadNonce,
}

impl core::fmt::Display for SignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SignError::ZeroKey => write!(f, "secret key is zero"),
            SignError::BadNonce => write!(f, "could not derive a usable nonce"),
        }
    }
}
impl std::error::Error for SignError {}

/// `z`: the leftmost `L_n = 246` bits of `e = SHA-256(m)` (§II-A, step 5 of
/// generation / step 3 of verification).
fn message_scalar(msg: &[u8]) -> Scalar {
    let e = Sha256::digest(msg);
    // Interpret the digest big-endian, take the 246 leftmost bits.
    let mut le = e;
    le.reverse();
    let z = U256::from_le_bytes(&le).shr(256 - 246);
    Scalar::from_u256(z)
}

/// The `r` component: encoded x-coordinate reduced modulo `N`.
fn point_to_r(p: &AffinePoint) -> Scalar {
    Scalar::from_u256(U256::from_le_bytes(&p.x.to_bytes()))
}

impl KeyPair {
    /// Creates a key pair from a secret scalar.
    ///
    /// # Errors
    ///
    /// [`SignError::ZeroKey`] if `secret` is zero.
    pub fn from_secret(secret: Scalar) -> Result<KeyPair, SignError> {
        if secret.is_zero() {
            return Err(SignError::ZeroKey);
        }
        Ok(KeyPair {
            secret,
            public: FourQEngine::shared().fixed_base_mul(&secret),
        })
    }

    /// Derives the deterministic nonce for `(msg, counter)` — RFC 6979
    /// flavour, identical for the one-shot and batch signing paths.
    // ct: secret(self)
    fn nonce(&self, msg: &[u8], counter: u8) -> Scalar {
        let mut key = self.secret.to_le_bytes().to_vec();
        key.push(counter);
        let mac = Hmac::<Sha256>::mac(&key, msg);
        let mut kb = [0u8; 32];
        kb.copy_from_slice(&mac);
        Scalar::from_le_bytes(&kb)
    }

    /// Signs a message following §II-A steps 1–5.
    ///
    /// # Errors
    ///
    /// [`SignError::BadNonce`] if 100 successive derived nonces yield
    /// `r = 0` or `s = 0` (probability ≈ 2⁻²⁴⁶·¹⁰⁰ — unreachable; the
    /// retry loop mirrors the "go back to step 2" arrows of the paper).
    pub fn sign(&self, msg: &[u8]) -> Result<Signature, SignError> {
        let mut out = self.sign_batch_with(FourQEngine::shared(), &[msg])?;
        // ct: allow(R5) reason="sign_batch_with returns exactly one signature per message"
        Ok(out.pop().expect("batch of one"))
    }

    /// Signs many messages on `eng`, batching the per-signature work:
    /// each round runs every pending `[k]G` on the generator's cached
    /// table with one batch normalisation, and every nonce inversion
    /// through [`Scalar::batch_invert`] — one Fermat ladder per round
    /// instead of one per signature.
    ///
    /// Produces bit-identical signatures to per-message [`KeyPair::sign`]
    /// (same nonce derivation, same retry counter sequence per message)
    /// at every thread count of `eng` ([`FourQEngine::with_threads`]).
    /// Only the fixed-base multiplications can fan out; the hashing runs
    /// on the calling thread.
    ///
    /// # Errors
    ///
    /// [`SignError::BadNonce`] if any message exhausts its 100 nonce
    /// retries (probability ≈ 2⁻²⁴⁶ per retry — unreachable).
    // ct: secret(self) — nonces and the secret scalar; messages are public
    pub fn sign_batch_with(
        &self,
        eng: &FourQEngine,
        msgs: &[&[u8]],
    ) -> Result<Vec<Signature>, SignError> {
        let zs: Vec<Scalar> = msgs.iter().map(|m| message_scalar(m)).collect();
        let mut out: Vec<Option<Signature>> = vec![None; msgs.len()];
        let mut pending: Vec<usize> = (0..msgs.len()).collect();
        // The retry loop is variable-time by design (the paper's "go back
        // to step 2" arrows): each retry condition is an `is_zero` check,
        // a sanctioned declassification — a zero hit has probability
        // ≈ 2⁻²⁴⁶, so the observable retry count carries no key material.
        for counter in 0u8..100 {
            if pending.is_empty() {
                break;
            }
            // Step 2: deterministic nonces for every pending message
            // (HMAC-SHA-256 over (msg, counter)).
            let ks: Vec<Scalar> = pending
                .iter()
                .map(|&i| self.nonce(msgs[i], counter))
                .collect();
            // Step 3: (x₁, y₁) = [k]G, one shared normalisation inversion.
            // A zero nonce maps to the identity point, whose r = 0 routes
            // the item into the retry set below, matching the one-shot
            // path's `k.is_zero()` check.
            let points = eng.batch_fixed_base_mul(&ks);
            // Step 5 prep: k⁻¹ for the whole round in one real inversion
            // (zero-safe: a zero nonce yields a zero inverse and retries).
            let kinvs = Scalar::batch_invert(&ks);
            let mut still_pending = Vec::new();
            for (slot, &i) in pending.iter().enumerate() {
                if ks[slot].is_zero() {
                    still_pending.push(i);
                    continue;
                }
                // Step 4: r = x₁ mod n.
                let r = point_to_r(&points[slot]);
                if r.is_zero() {
                    still_pending.push(i);
                    continue;
                }
                // Step 5: s = k⁻¹(z + r·d).
                let s = kinvs[slot] * (zs[i] + r * self.secret);
                if s.is_zero() {
                    still_pending.push(i);
                    continue;
                }
                out[i] = Some(Signature { r, s });
            }
            pending = still_pending;
        }
        if !pending.is_empty() {
            return Err(SignError::BadNonce);
        }
        // ct: allow(R5) reason="every slot was filled or we returned BadNonce above"
        Ok(out.into_iter().map(|s| s.expect("signed")).collect())
    }
}

/// Verifies a signature following §II-A verification steps 1–5.
pub fn verify(public: &AffinePoint, msg: &[u8], sig: &Signature) -> bool {
    // Step 1: r, s ∈ [1, n-1].
    if sig.r.is_zero() || sig.s.is_zero() {
        return false;
    }
    if !public.is_on_curve() || public.is_identity() {
        return false;
    }
    // Step 2: w = s⁻¹.
    let w = sig.s.inv();
    // Step 3: u₁ = zw, u₂ = rw.
    let z = message_scalar(msg);
    let u1 = z * w;
    let u2 = sig.r * w;
    // Step 4: (x₁, y₁) = [u₁]G + [u₂]Q_A (both scalars split four ways,
    // one shared 65-doubling loop).
    let p = fourq_curve::double_scalar_mul(&u1, &AffinePoint::generator(), &u2, public);
    if p.is_identity() {
        return false;
    }
    // Step 5: valid iff r = x₁ mod n.
    point_to_r(&p) == sig.r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(seed: u64) -> KeyPair {
        KeyPair::from_secret(Scalar::from_u64(seed)).unwrap()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = kp(0xabcdef123);
        let sig = kp.sign(b"vehicle 42 position update").unwrap();
        assert!(verify(&kp.public, b"vehicle 42 position update", &sig));
    }

    #[test]
    fn rejects_wrong_message_and_key() {
        let k1 = kp(111);
        let k2 = kp(222);
        let sig = k1.sign(b"a").unwrap();
        assert!(!verify(&k1.public, b"b", &sig));
        assert!(!verify(&k2.public, b"a", &sig));
    }

    #[test]
    fn rejects_zero_components() {
        let k1 = kp(333);
        let sig = k1.sign(b"m").unwrap();
        let bad = Signature {
            r: Scalar::ZERO,
            s: sig.s,
        };
        assert!(!verify(&k1.public, b"m", &bad));
        let bad = Signature {
            r: sig.r,
            s: Scalar::ZERO,
        };
        assert!(!verify(&k1.public, b"m", &bad));
    }

    #[test]
    fn zero_key_rejected() {
        assert_eq!(
            KeyPair::from_secret(Scalar::ZERO).err(),
            Some(SignError::ZeroKey)
        );
    }

    #[test]
    fn sign_batch_matches_one_shot() {
        let k1 = kp(0x5eed);
        let msgs: Vec<Vec<u8>> = (0..7).map(|i| format!("update {i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let batch = k1.sign_batch_with(FourQEngine::shared(), &refs).unwrap();
        for (m, s) in refs.iter().zip(&batch) {
            assert_eq!(*s, k1.sign(m).unwrap());
            assert!(verify(&k1.public, m, s));
        }
        assert!(k1
            .sign_batch_with(FourQEngine::shared(), &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn signature_malleability_of_message_bits() {
        // Messages differing only after hashing must produce different z.
        let k1 = kp(444);
        let s1 = k1.sign(b"msg-1").unwrap();
        let s2 = k1.sign(b"msg-2").unwrap();
        assert_ne!(s1, s2);
    }
}
