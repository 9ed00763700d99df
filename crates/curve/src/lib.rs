//! The FourQ elliptic curve, as accelerated by the DATE 2019 paper
//! *"FourQ on ASIC: Breaking Speed Records for Elliptic Curve Scalar
//! Multiplication"*.
//!
//! FourQ (Costello–Longa, ASIACRYPT 2015) is the complete twisted Edwards
//! curve
//!
//! ```text
//! E / F_p² :  -x² + y² = 1 + d·x²·y²,      p = 2^127 - 1
//! ```
//!
//! whose prime-order subgroup has the 246-bit order `N` (cofactor 392).
//!
//! This crate implements:
//!
//! * affine and extended-twisted-Edwards point arithmetic
//!   ([`AffinePoint`], [`ExtendedPoint`]), including the precomputed-point
//!   representation `(Y+X, Y−X, 2Z, 2dT)` from step 2 of the paper's
//!   Algorithm 1 ([`CachedPoint`]);
//! * four-dimensional GLV scalar decomposition on FourQ's endomorphisms ψ₇
//!   and ψ₈, and sign-aligned recoding ([`decompose`], [`recode`]), feeding
//!   the 8-entry-table double-and-add kernel — the exact workload scheduled
//!   in the paper's Table I;
//! * one scalar-multiplication engine ([`scalar_mul_engine`]) generic over
//!   the field, so the *same* Algorithm 1 runs on concrete field elements
//!   or on the microinstruction tracer of `fourq-trace` (the paper's Python
//!   trace recording, §III-C); [`EngineSelect`] is the only difference
//!   between the two — masked scans for `Fp2`, recorded multiplexers for
//!   the tracer;
//! * [`FixedBaseTable`], built once per base: every `[k]G` runs an
//!   mLSB-set comb on it (9 doublings and 51 mixed additions, FourQlib's
//!   fixed-base method), and the verifier reads its pair table, 128
//!   entries `[2]T[h] ± T[l]` over the base's ψ table `T`;
//! * [`FourQEngine::msm`], the one multi-scalar multiplication `Σ [kᵢ]Pᵢ`:
//!   below [`PIPPENGER_THRESHOLD`] terms every scalar splits four ways and
//!   all share one 65-doubling loop, each point but `G` reading its ψ
//!   table once per doubling and `G` the pair table once per two (the verifier's
//!   `[a]P + [b]Q`, [`double_scalar_mul`], is its two-term call); from the
//!   threshold up, bucketed Pippenger.
//!
//! # Decomposition note
//!
//! The paper decomposes scalars with FourQ's φ/ψ endomorphisms. This
//! library uses the inseparable endomorphisms ψ₇ and ψ₈ of degree 7p and
//! 8p, derived in-repo by `tools/derive_glv.py`, and rounds against the
//! lattice of the whole group `E(F_p²)` rather than the order-`N` subgroup:
//! `[k]P` is exact on every on-curve point, torsion included, at the cost
//! of 65-bit sub-scalars (65 loop iterations instead of the paper's 64).
//! See `DESIGN.md` §3.
//!
//! # Example
//!
//! ```
//! use fourq_curve::AffinePoint;
//! use fourq_fp::Scalar;
//!
//! let g = AffinePoint::generator();
//! let k = Scalar::from_u64(123456789);
//! let p = g.mul(&k);
//! assert!(p.is_on_curve());
//! // Decomposed multiplication agrees with plain double-and-add:
//! assert_eq!(p, g.mul_generic(&k));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affine;
mod context;
#[cfg(test)]
mod counted;
mod decompose;
mod engine;
mod extended;
mod fixed_base;
mod glv;
mod glv_consts;
mod multi;
mod multicurve;
pub mod params;

pub use affine::{AffinePoint, DecodePointError};
pub use context::FourQEngine;
pub use decompose::{decompose, recode, Decomposition, Recoded, DIGITS};
pub use engine::{normalize, scalar_mul_engine, EngineSelect, MulOutput};
pub use extended::{CachedPoint, ExtendedPoint};
pub use fixed_base::FixedBaseTable;
pub use glv_consts::{LAMBDA7, LAMBDA8};
pub use multi::{double_scalar_mul, PIPPENGER_THRESHOLD};
pub use multicurve::{CurveId, CurveMulError, MultiCurveEngine};
