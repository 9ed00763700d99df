//! Field arithmetic for the FourQ curve, as used by the DATE 2019 paper
//! *"FourQ on ASIC: Breaking Speed Records for Elliptic Curve Scalar
//! Multiplication"*.
//!
//! This crate implements, from scratch and without dependencies:
//!
//! * [`Fp`] — the base field `F_p` with the Mersenne prime `p = 2^127 - 1`.
//!   Modular reduction is division-free, mirroring the hardware trick
//!   described in §II-B-2 of the paper: an addition, a subtraction or a
//!   product is one fold, `(v mod 2^127) + ⌊v / 2^127⌋`, into `[0, p]`.
//!   Values stay in `[0, p]` (zero may be stored as `p`) and are made
//!   canonical only where they leave the type: encoding, comparison,
//!   hashing and formatting.
//! * [`Fp2`] — the quadratic extension `F_p² = F_p(i)`, `i² = -1`, with two
//!   multiplier implementations: the schoolbook 4-multiplication version and
//!   the Karatsuba + lazy-reduction version of the paper's Algorithm 2
//!   (3 base-field multiplications). Both are exposed so the benchmark
//!   harness can time the design-choice ablation (`fp2_mul` group).
//! * [`U256`] / [`Scalar`] — 256-bit integer arithmetic and arithmetic
//!   modulo the prime subgroup order `N`, needed by scalar decomposition and
//!   the signature schemes.
//! * [`Fp2Like`] — the field abstraction that lets the curve formulas run
//!   either on concrete values or on the microinstruction tracer of
//!   `fourq-trace` (the Rust counterpart of the paper's Python trace
//!   recording).
//!
//! # Example
//!
//! ```
//! use fourq_fp::{Fp, Fp2};
//!
//! let a = Fp2::new(Fp::from_u64(3), Fp::from_u64(5));
//! let b = a.inv();
//! assert_eq!(a * b, Fp2::one());
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // limb/index arithmetic reads clearer with explicit indices
#![warn(missing_docs)]

mod fp;
mod fp2;
mod scalar;
mod traits;
mod wide;

pub use fp::Fp;
pub use fp2::Fp2;
pub use scalar::{ParseScalarError, Scalar, N as SUBGROUP_ORDER, U256};
pub use traits::{ct_eq_u64, Choice, CtEq, CtNegate, CtSelect, Fp2Like};
pub use wide::Wide;
