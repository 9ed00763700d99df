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
//! * four-dimensional scalar decomposition and sign-aligned recoding
//!   ([`decompose`], [`recode`]) feeding the 8-entry-table double-and-add
//!   kernel — the exact workload scheduled in the paper's Table I;
//! * a scalar-multiplication engine generic over [`fourq_fp::Fp2Like`], so
//!   the *same* formulas run on concrete field elements or on the
//!   microinstruction tracer of `fourq-trace` (the paper's Python trace
//!   recording, §III-C).
//!
//! # Decomposition note
//!
//! The paper decomposes scalars with FourQ's φ/ψ endomorphisms. This
//! library uses a radix-2^62 four-way split (`k = a₁ + a₂·2^62 + a₃·2^124 +
//! a₄·2^186`) — functionally identical output, identical inner loop, with
//! the one-time table setup performed by doublings instead of endomorphism
//! evaluations; see `DESIGN.md` §3 for the rationale and the cycle-count
//! accounting used when comparing against the paper.
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
mod decompose;
mod engine;
mod extended;
mod fixed_base;
mod multi;
mod multicurve;
pub mod params;

pub use affine::{AffinePoint, DecodePointError};
pub use context::FourQEngine;
pub use decompose::{decompose, recode, Decomposition, Recoded, DIGITS, LIMB_BITS};
pub use engine::{identity, normalize, scalar_mul_engine, MulOutput};
pub use extended::{CachedPoint, ExtendedPoint};
pub use fixed_base::{generator_table, FixedBaseTable};
pub use multi::{
    batch_normalize, batch_normalize_threaded, double_scalar_mul, msm_pippenger,
    msm_pippenger_threaded, msm_straus, multi_scalar_mul, multi_scalar_mul_threaded,
    window_scalar_mul, PIPPENGER_THRESHOLD,
};
pub use multicurve::{CurveId, CurveMulError, MultiCurveEngine};
