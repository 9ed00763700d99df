//! Ephemeral Diffie–Hellman key agreement over FourQ.
//!
//! Vehicles and roadside units in the paper's ITS setting also need
//! session keys (e.g. for encrypted unicast after authentication); this
//! module provides the standard cofactor-clearing ECDH.

use fourq_curve::{AffinePoint, FourQEngine};
use fourq_fp::{CtSelect, Scalar};
use fourq_hash::Sha512;

/// An ECDH key pair.
///
/// Secret-bearing: `Debug` redacts the scalar (rule R4, `DESIGN.md` §8).
// ct: secret
#[derive(Clone)]
pub struct EphemeralSecret {
    // ct: secret
    secret: Scalar,
    /// The public point `[d]G`, compressed.
    pub public: [u8; 32],
}

impl core::fmt::Debug for EphemeralSecret {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EphemeralSecret")
            .field("secret", &"<redacted>")
            .field("public", &self.public)
            .finish()
    }
}

/// Errors during key agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgreeError {
    /// The peer's public key does not decode to a curve point.
    InvalidPeerKey,
    /// The shared point degenerated to the identity (peer key was in the
    /// small cofactor subgroup).
    DegenerateShare,
}

impl core::fmt::Display for AgreeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AgreeError::InvalidPeerKey => write!(f, "peer public key is not a curve point"),
            AgreeError::DegenerateShare => write!(f, "shared secret degenerated to the identity"),
        }
    }
}
impl std::error::Error for AgreeError {}

impl EphemeralSecret {
    /// Derives a key pair from 32 bytes of entropy (caller supplies the
    /// randomness; the scalar is the SHA-512 of the seed reduced mod `N`,
    /// forced nonzero).
    pub fn from_seed(seed: &[u8; 32]) -> EphemeralSecret {
        let mut out =
            Self::batch_from_seeds_with(FourQEngine::shared(), std::slice::from_ref(seed));
        // ct: allow(R5) reason="batch_from_seeds_with returns exactly one pair per seed"
        out.pop().expect("batch of one")
    }

    /// Derives many key pairs at once on `eng` — the server-side
    /// session-setup workload. All `[d_i]G` share the generator's cached
    /// table and one batch normalisation inversion, and only they can fan
    /// out; the hashing runs on the calling thread. Each secret depends
    /// only on its seed, so results match per-seed
    /// [`EphemeralSecret::from_seed`] exactly at every thread count
    /// ([`fourq_curve::FourQEngine::with_threads`]).
    // ct: secret — derived scalars are secret key material
    pub fn batch_from_seeds_with(eng: &FourQEngine, seeds: &[[u8; 32]]) -> Vec<EphemeralSecret> {
        let secrets: Vec<Scalar> = seeds
            .iter()
            .map(|seed| {
                let h = Sha512::digest(seed);
                let mut wide = [0u8; 64];
                wide.copy_from_slice(&h);
                let secret = Scalar::from_wide_bytes(&wide);
                // zero is astronomically unlikely; select, don't branch
                Scalar::ct_select(&secret, &Scalar::ONE, secret.ct_is_zero())
            })
            .collect();
        let publics = eng.batch_fixed_base_mul(&secrets);
        secrets
            .into_iter()
            .zip(&publics)
            .map(|(secret, public)| EphemeralSecret {
                secret,
                public: public.encode(),
            })
            .collect()
    }

    /// Computes the shared secret with a peer's public key: the SHA-512 of
    /// the encoded point `[392·d]P_peer` (cofactor-cleared against
    /// small-subgroup confinement).
    ///
    /// # Errors
    ///
    /// [`AgreeError::InvalidPeerKey`] if the peer key fails to decode,
    /// [`AgreeError::DegenerateShare`] if the result is the identity.
    pub fn agree(&self, peer_public: &[u8; 32]) -> Result<[u8; 64], AgreeError> {
        let peer = AffinePoint::decode(peer_public).map_err(|_| AgreeError::InvalidPeerKey)?;
        // [d]P, then the full cofactor 392 = 8·49 clears every torsion
        // component of a malicious peer key.
        let cleared = peer.mul(&self.secret).clear_cofactor();
        if cleared.is_identity() {
            return Err(AgreeError::DegenerateShare);
        }
        let mut out = [0u8; 64];
        out.copy_from_slice(&Sha512::digest(&cleared.encode()));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_is_symmetric() {
        let a = EphemeralSecret::from_seed(&[1u8; 32]);
        let b = EphemeralSecret::from_seed(&[2u8; 32]);
        let sab = a.agree(&b.public).unwrap();
        let sba = b.agree(&a.public).unwrap();
        assert_eq!(sab, sba);
    }

    #[test]
    fn different_peers_different_keys() {
        let a = EphemeralSecret::from_seed(&[3u8; 32]);
        let b = EphemeralSecret::from_seed(&[4u8; 32]);
        let c = EphemeralSecret::from_seed(&[5u8; 32]);
        assert_ne!(a.agree(&b.public).unwrap(), a.agree(&c.public).unwrap());
    }

    #[test]
    fn batch_keygen_matches_one_shot() {
        let seeds: Vec<[u8; 32]> = (0u8..6).map(|i| [i + 50; 32]).collect();
        let batch = EphemeralSecret::batch_from_seeds_with(FourQEngine::shared(), &seeds);
        for (seed, pair) in seeds.iter().zip(&batch) {
            assert_eq!(pair.public, EphemeralSecret::from_seed(seed).public);
        }
        assert!(EphemeralSecret::batch_from_seeds_with(FourQEngine::shared(), &[]).is_empty());
    }

    #[test]
    fn invalid_peer_key_rejected() {
        let a = EphemeralSecret::from_seed(&[6u8; 32]);
        let garbage = [0xeeu8; 32];
        // Either the decode fails (usual) or the share succeeds for a
        // valid accidental point; accept both but never panic.
        match a.agree(&garbage) {
            Ok(_) | Err(AgreeError::InvalidPeerKey) | Err(AgreeError::DegenerateShare) => {}
        }
    }

    #[test]
    fn identity_peer_degenerates() {
        let a = EphemeralSecret::from_seed(&[7u8; 32]);
        let id = AffinePoint::identity().encode();
        assert_eq!(a.agree(&id), Err(AgreeError::DegenerateShare));
    }
}
