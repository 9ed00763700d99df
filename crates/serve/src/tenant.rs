//! Per-tenant key material, derived deterministically and cached.
//!
//! The serve-many front-end answers signing and key-agreement requests
//! for many tenants from one process. Each tenant's keys are derived
//! from the server's root seed and the tenant id, built on first touch
//! (three fixed-base multiplications on the shared
//! [`FourQEngine`](fourq_curve::FourQEngine)'s generator table) and cached
//! behind an `RwLock` so the steady state is a read-lock lookup. The
//! cache holds at most `MAX_CACHED_TENANTS` entries: a tenant id is any
//! `u64` a client sends, so past the cap keys are derived per request
//! instead of kept.
//!
//! The derivation is public API ([`tenant_seed`], [`TenantKeys::derive`])
//! so clients of the same deployment — and the differential tests — can
//! reconstruct a tenant's *public* keys locally and verify served
//! signatures against one-shot library calls.

use fourq_hash::{Digest, Sha512};
use fourq_sig::{dh, ecdsa, schnorr};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Domain-separation prefix for tenant key derivation.
const TENANT_DOMAIN: &[u8] = b"fourq-serve-tenant/v1";

/// Most tenants a [`TenantDirectory`] caches. A client that keeps sending
/// new ids cannot grow the server past it; derivation is deterministic,
/// so an uncached tenant gets the same keys, only slower.
const MAX_CACHED_TENANTS: usize = 4096;

/// The 32-byte master seed for one tenant: `SHA-512(domain ‖ root ‖ id)`
/// truncated to 32 bytes.
// ct: secret(root)
pub fn tenant_seed(root: u64, tenant: u64) -> [u8; 32] {
    let mut h = <Sha512 as Digest>::new();
    h.update(TENANT_DOMAIN);
    h.update(&root.to_le_bytes());
    h.update(&tenant.to_le_bytes());
    let wide = h.finalize();
    let mut out = [0u8; 32];
    out.copy_from_slice(&wide[..32]);
    out
}

// ct: secret(master)
fn subseed(master: &[u8; 32], label: &[u8]) -> [u8; 32] {
    let mut h = <Sha512 as Digest>::new();
    h.update(master);
    h.update(label);
    let wide = h.finalize();
    let mut out = [0u8; 32];
    out.copy_from_slice(&wide[..32]);
    out
}

/// One tenant's full key set.
// ct: secret
pub struct TenantKeys {
    /// Schnorr signing key pair.
    pub schnorr: schnorr::KeyPair,
    /// ECDSA signing key pair.
    pub ecdsa: ecdsa::KeyPair,
    /// ECDH key pair.
    pub dh: dh::EphemeralSecret,
}

impl TenantKeys {
    /// Derives all three key pairs for `(root, tenant)`.
    pub fn derive(root: u64, tenant: u64) -> TenantKeys {
        let master = tenant_seed(root, tenant);
        let schnorr = schnorr::KeyPair::from_seed(&subseed(&master, b"schnorr"));
        let ecdsa = ecdsa_keypair_from_seed(&subseed(&master, b"ecdsa"));
        let dh = dh::EphemeralSecret::from_seed(&subseed(&master, b"dh"));
        TenantKeys { schnorr, ecdsa, dh }
    }
}

/// ECDSA key pair from a 32-byte seed: scalar = SHA-512(seed) folded mod
/// `N`, forced nonzero (mirrors the other seed-to-scalar derivations).
// ct: secret(seed)
pub fn ecdsa_keypair_from_seed(seed: &[u8; 32]) -> ecdsa::KeyPair {
    use fourq_fp::{CtSelect, Scalar};
    let h = Sha512::digest(seed);
    let mut wide = [0u8; 64];
    wide.copy_from_slice(&h);
    let secret = Scalar::from_wide_bytes(&wide);
    let secret = Scalar::ct_select(&secret, &Scalar::ONE, secret.ct_is_zero());
    ecdsa::KeyPair::from_secret(secret).expect("seed-derived scalar is nonzero")
}

/// The server-side cache: tenant id → derived keys, built on first use.
pub struct TenantDirectory {
    // ct: secret
    root: u64,
    cache: RwLock<HashMap<u64, Arc<TenantKeys>>>,
}

impl TenantDirectory {
    /// A directory deriving from `root`.
    // ct: secret(root)
    pub fn new(root: u64) -> TenantDirectory {
        TenantDirectory {
            root,
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// The derivation root.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Resolves a tenant's keys, deriving and caching on first touch.
    /// Once `MAX_CACHED_TENANTS` are cached, a new tenant's keys are
    /// derived and returned without being kept.
    pub fn resolve(&self, tenant: u64) -> Arc<TenantKeys> {
        if let Some(k) = self.cache.read().expect("tenant cache").get(&tenant) {
            return Arc::clone(k);
        }
        // Derive outside the write lock (three scalar muls), then insert;
        // a racing deriver just produces the same deterministic keys.
        let keys = Arc::new(TenantKeys::derive(self.root, tenant));
        let mut w = self.cache.write().expect("tenant cache");
        if w.len() >= MAX_CACHED_TENANTS {
            return keys;
        }
        Arc::clone(w.entry(tenant).or_insert(keys))
    }

    /// Number of tenants cached (at most `MAX_CACHED_TENANTS`).
    pub fn len(&self) -> usize {
        self.cache.read().expect("tenant cache").len()
    }

    /// Whether no tenant has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_tenant_separated() {
        let a = TenantKeys::derive(1, 7);
        let b = TenantKeys::derive(1, 7);
        let c = TenantKeys::derive(1, 8);
        let d = TenantKeys::derive(2, 7);
        assert_eq!(a.schnorr.public.encoded, b.schnorr.public.encoded);
        assert_eq!(a.dh.public, b.dh.public);
        assert_ne!(a.schnorr.public.encoded, c.schnorr.public.encoded);
        assert_ne!(a.schnorr.public.encoded, d.schnorr.public.encoded);
        assert_ne!(a.ecdsa.public, c.ecdsa.public);
    }

    #[test]
    fn directory_caches() {
        let dir = TenantDirectory::new(42);
        assert!(dir.is_empty());
        let k1 = dir.resolve(5);
        let k2 = dir.resolve(5);
        assert!(Arc::ptr_eq(&k1, &k2));
        assert_eq!(dir.len(), 1);
        dir.resolve(6);
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn cache_is_capped_and_overflow_keys_are_still_derived() {
        let dir = TenantDirectory::new(9);
        // Cached or not, every tenant resolves to its derived keys.
        for id in 0..MAX_CACHED_TENANTS as u64 + 3 {
            let (got, want) = (dir.resolve(id), TenantKeys::derive(9, id));
            assert_eq!(got.schnorr.public.encoded, want.schnorr.public.encoded);
            assert_eq!(got.ecdsa.public, want.ecdsa.public);
            assert_eq!(got.dh.public, want.dh.public);
        }
        assert_eq!(dir.len(), MAX_CACHED_TENANTS);
    }

    #[test]
    fn served_keys_sign_and_verify() {
        let keys = TenantKeys::derive(0, 0);
        let sig = keys.schnorr.sign(b"m");
        assert!(schnorr::verify(&keys.schnorr.public, b"m", &sig));
        let esig = keys.ecdsa.sign(b"m").unwrap();
        assert!(ecdsa::verify(&keys.ecdsa.public, b"m", &esig));
    }
}
