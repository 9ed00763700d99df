//! Digital signatures over the FourQ prime-order subgroup.
//!
//! The DATE 2019 paper motivates its scalar-multiplication accelerator with
//! digital signature workloads for intelligent transportation systems
//! (§I, §II-A). This crate provides the two schemes that workload consists
//! of:
//!
//! * [`schnorr`] — a Schnorr-style scheme in the spirit of SchnorrQ
//!   (deterministic nonces via SHA-512, one scalar multiplication to sign,
//!   one joint double-scalar multiplication to verify);
//! * [`ecdsa`] — the ECDSA workflow exactly as laid out in §II-A of the
//!   paper (steps 1–5 of signature generation and verification), adapted to
//!   FourQ's `F_p²` coordinates by reducing the encoded x-coordinate
//!   modulo the group order.
//!
//! Both are deterministic (RFC 6979-flavoured nonce derivation), so they
//! need no system RNG and are reproducible in tests and benchmarks.
//!
//! # Example
//!
//! ```
//! use fourq_sig::schnorr::{verify, KeyPair};
//!
//! let kp = KeyPair::from_seed(&[7u8; 32]);
//! let sig = kp.sign(b"priority vehicle approaching");
//! assert!(verify(&kp.public, b"priority vehicle approaching", &sig));
//! assert!(!verify(&kp.public, b"tampered message", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dh;
pub mod ecdsa;
pub mod schnorr;
