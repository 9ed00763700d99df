//! The TCP front-end: a non-blocking reactor plus executor workers.
//!
//! Thread layout (all plain `std` threads, no external runtime):
//!
//! ```text
//!            ┌────────────────────────────────────────────────┐
//!  clients ⇄ │ reactor: accept / read / frame / write, polled │
//!            │ non-blocking over std::net                     │
//!            └───────┬─────────────────────────▲──────────────┘
//!                    │ enqueue (bounded)       │ mpsc responses
//!            ┌───────▼──────────┐      ┌───────┴────────────┐
//!            │ Coalescer        │ ───▶ │ executor × T:      │
//!            │ window_us /      │flush │ execute_flush on   │
//!            │ max_batch /      │      │ its own thread     │
//!            │ queue_cap        │      │ (1-thread engine)  │
//!            └──────────────────┘      └────────────────────┘
//! ```
//!
//! The reactor thread owns every socket: it accepts connections, reads
//! and frames request bytes, answers [`OpKind::Stats`](crate::proto::OpKind)
//! probes inline, enqueues work (answering `Busy` on a full queue
//! without blocking), and drains executor responses back onto the right
//! connection. T = [`fourq_pool::resolved_threads`] executors block on
//! the coalescer, each running whole flushes on its own thread, so the
//! server has one level of parallelism: concurrent flushes overlap on
//! the cores, and no flush fans out inside itself. Because every
//! response is a deterministic function of its request alone, the reply
//! a client sees is bit-identical no matter how requests interleave into
//! flushes or which executor runs them — the property the differential
//! suite checks end to end.

use crate::coalescer::{Coalescer, Enqueue};
use crate::exec::{execute_flush, Pending};
use crate::proto::{
    decode_request, encode_response, FrameReader, ProtoError, Request, Response, Status, WireStats,
};
use crate::tenant::TenantDirectory;
use fourq_curve::MultiCurveEngine;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for one server instance; see the crate docs for the
/// model. The executor count is not one of them: it is
/// [`fourq_pool::resolved_threads`] (`FOURQ_THREADS`, else the host's
/// parallelism), one executor per thread.
///
/// The default is work-conserving: `window_us = 0`, so a flush leaves as
/// soon as an executor is free, and batches form from the requests that
/// queue while the running flushes execute.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Coalescing window in microseconds. `0` (the default) flushes
    /// whatever is queued as soon as an executor is free; a positive
    /// window holds the first request that long for others to join it.
    pub window_us: u64,
    /// Maximum requests per flush; `1` executes every request alone.
    pub max_batch: usize,
    /// Bounded queue depth; requests beyond it are rejected `Busy`.
    pub queue_cap: usize,
    /// Root seed for tenant key derivation.
    pub tenant_root: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            window_us: 0,
            max_batch: 256,
            queue_cap: 8192,
            tenant_root: 0x4007_DA7E,
        }
    }
}

/// Idle wait: when a pass makes no progress, the reactor blocks this
/// long on the executors' response channel. A response ends the wait at
/// once; socket reads and accepts are polled at this period, since `std`
/// has no readiness API. Keeps the idle server off the CPU.
const IDLE_POLL: Duration = Duration::from_micros(100);

/// A connection is not read while more than this many response bytes
/// wait unsent, so a client that sends and never reads holds the
/// server's memory for it to about this much (plus one read's answers).
const OUT_CAP: usize = 64 * 1024;

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    /// Generation tag: responses carry `(gen << 32) | slot` so a reply
    /// to a closed connection can never reach a newer one reusing the
    /// slot.
    generation: u32,
    /// Requests enqueued but not yet answered.
    inflight: usize,
    /// Peer closed its write side; drop once drained.
    eof: bool,
}

fn token(slot: usize, generation: u32) -> u64 {
    ((generation as u64) << 32) | slot as u64
}

/// A running server. Dropping the handle **without** calling
/// [`ServerHandle::shutdown`] detaches the threads (they exit when the
/// process does); tests should shut down explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    coalescer: Arc<Coalescer<Pending>>,
    reactor: Option<std::thread::JoinHandle<()>>,
    executors: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live coalescing counters.
    pub fn stats(&self) -> WireStats {
        self.coalescer.stats()
    }

    /// Stops accepting, drains pending flushes, joins all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.coalescer.close();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

/// Spawns a server on `127.0.0.1` (port 0 = ephemeral) with the given
/// config.
///
/// # Errors
///
/// Propagates socket errors from binding the listener.
pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    spawn_on("127.0.0.1:0", cfg)
}

/// [`spawn`] with an explicit bind address.
///
/// # Errors
///
/// Propagates socket errors from binding the listener.
pub fn spawn_on(bind: &str, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(bind)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let engine = Arc::new(MultiCurveEngine::shared().with_threads(1));
    let tenants = Arc::new(TenantDirectory::new(cfg.tenant_root));
    let coalescer = Arc::new(Coalescer::new(cfg.window_us, cfg.max_batch, cfg.queue_cap));
    let stop = Arc::new(AtomicBool::new(false));
    let (resp_tx, resp_rx) = mpsc::channel::<(u64, Vec<u8>)>();

    let executors: Vec<_> = (0..fourq_pool::resolved_threads())
        .map(|w| {
            let coalescer = Arc::clone(&coalescer);
            let engine = Arc::clone(&engine);
            let tenants = Arc::clone(&tenants);
            let tx = resp_tx.clone();
            std::thread::Builder::new()
                .name(format!("fourq-serve-exec-{w}"))
                .spawn(move || {
                    while let Some(batch) = coalescer.next_flush() {
                        for resp in execute_flush(&engine, &tenants, &batch) {
                            if tx.send(resp).is_err() {
                                return; // reactor gone
                            }
                        }
                    }
                })
                .expect("spawn executor")
        })
        .collect();
    drop(resp_tx);

    let reactor = {
        let coalescer = Arc::clone(&coalescer);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("fourq-serve-reactor".into())
            .spawn(move || reactor_loop(listener, coalescer, resp_rx, stop))
            .expect("spawn reactor")
    };

    Ok(ServerHandle {
        addr,
        stop,
        coalescer,
        reactor: Some(reactor),
        executors,
    })
}

fn reactor_loop(
    listener: TcpListener,
    coalescer: Arc<Coalescer<Pending>>,
    resp_rx: mpsc::Receiver<(u64, Vec<u8>)>,
    stop: Arc<AtomicBool>,
) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut generation: u32 = 0;
    let mut buf = [0u8; 4096];

    while !stop.load(Ordering::Relaxed) {
        let mut progressed = false;

        // Accept every waiting connection.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    generation = generation.wrapping_add(1);
                    let conn = Conn {
                        stream,
                        reader: FrameReader::new(),
                        out: Vec::new(),
                        generation,
                        inflight: 0,
                        eof: false,
                    };
                    if let Some(slot) = conns.iter().position(Option::is_none) {
                        conns[slot] = Some(conn);
                    } else {
                        conns.push(Some(conn));
                    }
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Deliver executor responses to their connections.
        while let Ok(resp) = resp_rx.try_recv() {
            progressed = true;
            deliver(&mut conns, resp);
        }

        // Per connection: read bytes, extract frames, dispatch, write.
        for (slot, entry) in conns.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else {
                continue;
            };
            let mut drop_conn = false;

            // Read and dispatch one buffer at a time while at most
            // OUT_CAP bytes wait unsent: a client that does not read its
            // answers stops being read.
            while !conn.eof && conn.out.len() <= OUT_CAP {
                match conn.stream.read(&mut buf) {
                    Ok(0) => conn.eof = true,
                    Ok(n) => {
                        progressed = true;
                        conn.reader.push(&buf[..n]);
                        dispatch_frames(&coalescer, conn, token(slot, conn.generation));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        drop_conn = true;
                        break;
                    }
                }
            }

            // Flush pending output.
            while !conn.out.is_empty() {
                match conn.stream.write(&conn.out) {
                    Ok(0) => {
                        drop_conn = true;
                        break;
                    }
                    Ok(n) => {
                        progressed = true;
                        conn.out.drain(..n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        drop_conn = true;
                        break;
                    }
                }
            }

            if drop_conn || (conn.eof && conn.inflight == 0 && conn.out.is_empty()) {
                *entry = None;
            }
        }

        if !progressed {
            // Wake on the next response, or poll the sockets again after
            // IDLE_POLL. The response is written on the next pass.
            match resp_rx.recv_timeout(IDLE_POLL) {
                Ok(resp) => deliver(&mut conns, resp),
                Err(RecvTimeoutError::Timeout) => {}
                // Every executor has exited (shutdown): nothing can wake
                // the channel any more, so park instead of spinning.
                Err(RecvTimeoutError::Disconnected) => std::thread::sleep(IDLE_POLL),
            }
        }
    }
}

/// Appends one executor response to its connection, if the connection
/// is still the one (same generation) that asked.
fn deliver(conns: &mut [Option<Conn>], (tok, bytes): (u64, Vec<u8>)) {
    let slot = (tok & 0xffff_ffff) as usize;
    let generation = (tok >> 32) as u32;
    if let Some(Some(conn)) = conns.get_mut(slot) {
        if conn.generation == generation {
            conn.out.extend_from_slice(&bytes);
            conn.inflight = conn.inflight.saturating_sub(1);
        }
    }
}

/// Dispatches every complete frame the connection has buffered.
fn dispatch_frames(coalescer: &Coalescer<Pending>, conn: &mut Conn, tok: u64) {
    loop {
        match conn.reader.next_frame() {
            Ok(Some(frame)) => dispatch(coalescer, conn, tok, &frame),
            Ok(None) => return,
            Err(_) => {
                // Framing lost (oversized prefix): answer Malformed if we
                // still can, then drop.
                conn.out.extend_from_slice(&encode_response(&Response {
                    id: 0,
                    status: Status::Malformed,
                    payload: Vec::new(),
                }));
                conn.eof = true;
                return;
            }
        }
    }
}

fn dispatch(coalescer: &Coalescer<Pending>, conn: &mut Conn, tok: u64, frame: &[u8]) {
    let reply_now = |conn: &mut Conn, id: u64, status: Status, payload: Vec<u8>| {
        conn.out.extend_from_slice(&encode_response(&Response {
            id,
            status,
            payload,
        }));
    };
    match decode_request(frame) {
        Ok((id, Request::Stats)) => {
            reply_now(conn, id, Status::Ok, coalescer.stats().encode());
        }
        Ok((id, req)) => match coalescer.enqueue(Pending { conn: tok, id, req }) {
            Enqueue::Accepted => conn.inflight += 1,
            Enqueue::Busy | Enqueue::Closed => {
                reply_now(conn, id, Status::Busy, Vec::new());
            }
        },
        Err(e) => {
            // Framing is intact (the length prefix was valid) — answer a
            // typed error with a best-effort id echo and keep the
            // connection: `UnknownCurve` when a well-formed `CurveMul`
            // named a curve this server lacks, `Malformed` otherwise.
            let id = if frame.len() >= 10 {
                let mut b = [0u8; 8];
                b.copy_from_slice(&frame[2..10]);
                u64::from_le_bytes(b)
            } else {
                0
            };
            let status = if matches!(e, ProtoError::UnknownCurve(_)) {
                Status::UnknownCurve
            } else {
                Status::Malformed
            };
            reply_now(conn, id, status, Vec::new());
        }
    }
}
