//! Baselines for the paper's Table II comparison.
//!
//! The DATE 2019 paper compares its FourQ ASIC against NIST P-256 and
//! Curve25519 accelerators on ASIC and FPGA platforms. To reproduce the
//! *shape* of that comparison honestly, this crate implements the
//! baseline **algorithms** for real —
//!
//! * [`p256`] — full NIST P-256: Montgomery field arithmetic, Jacobian
//!   point operations and double-and-add, and the complete-formula ladder
//!   the kernel records;
//! * [`x25519`] — the X25519 Montgomery ladder over `2^255 − 19`;
//!
//! — and carries the **platform figures** reported by the cited papers as
//! data ([`models`]), so the Table II harness can print reported rows next
//! to our simulated FourQ row and derive the paper's headline ratios.
//!
//! Each curve's scalar multiplication is written once, generic over the
//! field handle [`mont::FeLike`]: [`x25519::ladder_program`] and
//! [`p256::scalar_mul_program`]. The host baselines run them on
//! [`mont::MontFe`], and `fourq-trace` records the same functions into the
//! X25519 and P-256 kernels of Table II, as it records Fourℚ's
//! `scalar_mul_engine`. The generic Montgomery-representation field
//! ([`mont::MontField`]) is shared by both curves and is property-tested
//! against the division-based reference in `fourq-fp`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod models;
pub mod mont;
pub mod p256;
pub mod x25519;
