//! Reproduction of *"FourQ on ASIC: Breaking Speed Records for Elliptic
//! Curve Scalar Multiplication"* (Awano & Ikeda, DATE 2019) — the FourQ
//! cryptography, the automated microinstruction-scheduling design flow,
//! a cycle-accurate model of the fabricated datapath, and the calibrated
//! 65 nm SOTB technology model that regenerates the paper's evaluation.
//!
//! This facade crate re-exports the whole workspace; see the README for
//! the architecture and `DESIGN.md` for the paper-to-module map.
//!
//! ```
//! use fourq::curve::{AffinePoint, CurveId};
//! use fourq::fp::Scalar;
//! use fourq::sched::MachineConfig;
//!
//! // [k]G in software...
//! let k = Scalar::from_u64(20190325);
//! let g = AffinePoint::generator();
//! let p = g.mul(&k);
//!
//! // ...and the same computation on the simulated cryptoprocessor.
//! let kernel = fourq::cpu::shared_kernel(CurveId::FourQ, &MachineConfig::paper())?;
//! assert_eq!(kernel.execute(&g, &k)?, p);
//! # Ok::<(), fourq::cpu::PipelineError>(())
//! ```
#![forbid(unsafe_code)]

pub use fourq_baselines as baselines;
pub use fourq_cpu as cpu;
pub use fourq_curve as curve;
pub use fourq_fp as fp;
pub use fourq_hash as hash;
pub use fourq_sched as sched;
pub use fourq_sig as sig;
pub use fourq_tech as tech;
pub use fourq_trace as trace;
