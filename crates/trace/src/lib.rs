//! Microinstruction trace recording — the Rust counterpart of the paper's
//! Python-based trace extraction (§III-C, steps 1–2).
//!
//! The paper writes the FourQ scalar multiplication in Python and records
//! the subroutine calls executed, obtaining the sequence of `F_p²`
//! microinstructions to schedule. Here the curve formulas of `fourq-curve`
//! are generic over [`fourq_fp::Fp2Like`]; running them on [`TracedFp2`]
//! records exactly the same artifact — an SSA list of `F_p²` operations
//! with their dependencies — while also carrying concrete values so the
//! recorded program can be functionally cross-checked. The X25519 and
//! P-256 programs of `fourq-baselines` are generic over
//! `fourq_baselines::mont::FeLike` and are recorded the same way, on
//! [`TracedFe`]: both are one handle type, [`Traced`], over one
//! [`Tracer`].
//!
//! # Example
//!
//! ```
//! use fourq_trace::{OpKind, Tracer};
//! use fourq_fp::{Fp2, Fp2Like};
//!
//! let tracer = Tracer::default();
//! let a = tracer.input("a", Fp2::from(3u64));
//! let b = tracer.input("b", Fp2::from(5u64));
//! let c = a.mul(&b).add(&a);
//! tracer.mark_output("c", &c);
//! let trace = tracer.finish();
//! assert_eq!(trace.nodes.len(), 2);
//! assert_eq!(trace.nodes[0].kind, OpKind::Mul);
//! assert_eq!(c.value(), Fp2::from(18u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod programs;
mod tracer;

pub use programs::{
    digit_stream, p256_digit_stream, trace_double_add_iteration, trace_p256_scalar_mul,
    trace_scalar_mul, trace_scalar_mul_for, trace_x25519_ladder, x25519_digit_stream, P256Trace,
    ScalarMulTrace, X25519Trace,
};
pub use tracer::{
    mont_field, DigitStream, Mux, Node, NodeId, OpKind, OpStats, Operand, Selector, Trace,
    TraceError, TraceValue, Traced, TracedFe, TracedFp2, Tracer, Unit, Word,
};
