//! Async serve-many front-end with adaptive batch coalescing.
//!
//! The DATE 2019 paper's cryptoprocessor earns its throughput by keeping
//! a pipelined datapath full of independent scalar multiplications. This
//! crate is the software-system counterpart: a zero-dependency TCP
//! server (plain `std::net`, an in-tree non-blocking reactor, `std`
//! threads) that turns many small independent requests into the large
//! batches the [`FourQEngine`](fourq_curve::FourQEngine) amortised paths
//! want.
//!
//! The pieces, bottom up:
//!
//! * [`proto`] — length-prefixed binary wire protocol: seven batched op
//!   kinds (scalar mul, fixed-base mul, Schnorr sign/verify, ECDSA sign,
//!   ECDH, and the multi-curve `CurveMul` carrying a curve-id byte) plus
//!   an inline `Stats` probe; hard `MAX_FRAME` bound; incremental
//!   [`proto::FrameReader`]. An unknown curve id answers the typed
//!   `UnknownCurve` status and keeps the connection.
//! * [`coalescer`] — the latency/throughput knob: by default
//!   (`window_us = 0`) work-conserving, so an idle executor takes
//!   everything queued, up to `max_batch`, at once and batches form from
//!   what queues while the previous flush runs; a positive `window_us`
//!   lingers that long after the first arrival for a batch to form;
//!   `max_batch = 1` is strict flush-of-one (the honest no-coalesce
//!   baseline); bounded queue with explicit `Busy` rejection.
//! * [`tenant`] — deterministic per-tenant key derivation (domain-
//!   separated SHA-512) cached behind an `RwLock`; the derivation is
//!   public so tests reconstruct public keys independently.
//! * [`exec`] — maps one coalesced flush onto the engine's batch calls
//!   (`batch_scalar_mul`, `sign_batch_with`, RLC `verify_batch_with`
//!   with per-item fallback, …) and runs ECDH and `CurveMul` item by
//!   item; empty flushes are a no-op by construction. One
//!   [`MultiCurveEngine`](fourq_curve::MultiCurveEngine) answers mixed
//!   Fourℚ/X25519/P-256 traffic from a single process.
//! * [`server`] — the reactor: accept/read/frame/write over non-blocking
//!   sockets on one thread, and one executor per
//!   [`fourq_pool::resolved_threads`] draining the coalescer, each
//!   running whole flushes on its own thread, so flushes overlap instead
//!   of fanning out. When idle, the reactor blocks on the executors'
//!   responses, so a finished flush is written at once; sockets are
//!   polled every 100 µs. A connection with more than 64 KiB of unsent
//!   responses is not read until its client reads them.
//! * [`client`] — a small blocking client with pipelining, used by the
//!   `loadgen` binary and the differential tests.
//!
//! Every response is a pure function of its request (deterministic
//! nonces, deterministic tenant keys), so coalescing is observably
//! transparent: the differential suite asserts bit-identical responses
//! across flush-of-one, the default and a 500 µs window, against
//! one-shot library calls, at the executor count `FOURQ_THREADS` sets
//! (CI runs the suite at 1 and 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coalescer;
pub mod exec;
pub mod proto;
pub mod server;
pub mod tenant;

pub use client::Client;
pub use coalescer::{Coalescer, Enqueue};
pub use proto::{OpKind, Request, Response, Status};
pub use server::{spawn, spawn_on, ServerConfig, ServerHandle};
pub use tenant::{TenantDirectory, TenantKeys};
