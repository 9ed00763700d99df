//! The length-prefixed binary wire protocol.
//!
//! Every message on the wire is a **frame**: a little-endian `u32` length
//! followed by that many payload bytes. The payload of a request frame is
//!
//! ```text
//! [0]      version        (PROTO_VERSION)
//! [1]      op kind        (OpKind as u8)
//! [2..10]  request id     (u64 LE, chosen by the client, echoed back)
//! [10..]   op payload     (fixed layout per kind, see below)
//! ```
//!
//! and a response frame mirrors it with a [`Status`] byte in place of the
//! op kind. Frames are capped at [`MAX_FRAME`] payload bytes; anything
//! longer is rejected before buffering (the reader returns
//! [`ProtoError::Oversized`] and the server closes the connection), so a
//! client cannot make the server allocate unboundedly.
//!
//! All field elements cross the wire in the library's canonical encodings:
//! scalars as 32 little-endian bytes (folded modulo the group order on
//! decode, so every 32-byte string is a valid scalar), points in the
//! 32-byte compressed encoding of [`fourq_curve::AffinePoint::encode`]
//! (validated at execution time, not decode time — a bad point yields a
//! [`Status::Failed`] response, not a protocol error). The multi-curve
//! `CurveMul` op prefixes its payload with a [`CurveId`] wire byte and
//! carries the scalar raw (per-curve interpretation happens at
//! execution); an unknown curve byte is the one *typed* decode error —
//! the server answers [`Status::UnknownCurve`] and keeps the connection.
//!
//! Decoding never panics on attacker-controlled bytes: every length is
//! checked before indexing, and the property suite in
//! `tests/proto_roundtrip.rs` fuzzes truncated, oversized and
//! bit-flipped frames against both decoders.

use fourq_curve::CurveId;
use fourq_fp::Scalar;

/// Protocol version byte; bumped on any wire-incompatible change.
pub const PROTO_VERSION: u8 = 1;

/// Maximum frame payload size in bytes (excluding the 4-byte length
/// prefix). Bounds per-connection buffering; requests carrying messages
/// longer than `MAX_FRAME − 18` bytes cannot be represented.
pub const MAX_FRAME: usize = 4096;

/// Frame header size: version + op/status + request id.
pub const HEADER_LEN: usize = 10;

/// The seven request kinds the server coalesces, plus the out-of-band
/// stats probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpKind {
    /// `[k]P` for a client-supplied point.
    ScalarMul = 1,
    /// `[k]G` through the shared comb table.
    FixedBaseMul = 2,
    /// Schnorr signature under the tenant's key.
    SchnorrSign = 3,
    /// Schnorr verification against a client-supplied key.
    SchnorrVerify = 4,
    /// ECDSA signature under the tenant's key.
    EcdsaSign = 5,
    /// ECDH agreement between the tenant's key and a peer point.
    Ecdh = 6,
    /// Coalescer statistics (answered inline by the reactor, never
    /// queued).
    Stats = 7,
    /// `[k]P` on a named curve (Fourℚ, X25519 or P-256): the first
    /// payload byte is a [`CurveId`] wire byte, followed by 32 scalar
    /// bytes and the curve's [`CurveId::point_len`]-byte point encoding.
    CurveMul = 8,
}

impl OpKind {
    /// All batched op kinds, in wire order (excludes [`OpKind::Stats`]).
    pub const BATCHED: [OpKind; 7] = [
        OpKind::ScalarMul,
        OpKind::FixedBaseMul,
        OpKind::SchnorrSign,
        OpKind::SchnorrVerify,
        OpKind::EcdsaSign,
        OpKind::Ecdh,
        OpKind::CurveMul,
    ];

    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Parses the wire byte.
    pub fn from_u8(b: u8) -> Option<OpKind> {
        match b {
            1 => Some(OpKind::ScalarMul),
            2 => Some(OpKind::FixedBaseMul),
            3 => Some(OpKind::SchnorrSign),
            4 => Some(OpKind::SchnorrVerify),
            5 => Some(OpKind::EcdsaSign),
            6 => Some(OpKind::Ecdh),
            7 => Some(OpKind::Stats),
            8 => Some(OpKind::CurveMul),
            _ => None,
        }
    }

    /// Stable snake_case name used in `BENCH_serve.json`.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::ScalarMul => "scalar_mul",
            OpKind::FixedBaseMul => "fixed_base_mul",
            OpKind::SchnorrSign => "schnorr_sign",
            OpKind::SchnorrVerify => "schnorr_verify",
            OpKind::EcdsaSign => "ecdsa_sign",
            OpKind::Ecdh => "ecdh",
            OpKind::Stats => "stats",
            OpKind::CurveMul => "curve_mul",
        }
    }
}

/// A decoded request body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `[k]P`: scalar plus compressed point.
    ScalarMul {
        /// The scalar `k`.
        scalar: Scalar,
        /// Compressed point `P` (validated at execution).
        point: [u8; 32],
    },
    /// `[k]G`.
    FixedBaseMul {
        /// The scalar `k`.
        scalar: Scalar,
    },
    /// Sign `msg` with the tenant's Schnorr key.
    SchnorrSign {
        /// Tenant whose key signs.
        tenant: u64,
        /// The message.
        msg: Vec<u8>,
    },
    /// Verify a Schnorr signature.
    SchnorrVerify {
        /// Compressed public key.
        public: [u8; 32],
        /// Commitment `R` from the signature.
        sig_r: [u8; 32],
        /// Response scalar `s`.
        sig_s: Scalar,
        /// The message.
        msg: Vec<u8>,
    },
    /// Sign `msg` with the tenant's ECDSA key.
    EcdsaSign {
        /// Tenant whose key signs.
        tenant: u64,
        /// The message.
        msg: Vec<u8>,
    },
    /// ECDH agreement with the tenant's ephemeral key.
    Ecdh {
        /// Tenant whose key participates.
        tenant: u64,
        /// Peer compressed public point.
        peer: [u8; 32],
    },
    /// Coalescer statistics probe.
    Stats,
    /// `[k]P` on a named curve — the multi-curve path answered by
    /// [`MultiCurveEngine`](fourq_curve::MultiCurveEngine).
    CurveMul {
        /// Which curve the scalar and point live on.
        curve: CurveId,
        /// Raw little-endian scalar bytes; interpretation (Fourℚ
        /// group-order fold, RFC 7748 clamp, plain 256-bit integer) is
        /// per curve and happens at execution.
        scalar: [u8; 32],
        /// Point in the curve's [`CurveId::point_len`]-byte wire
        /// encoding (validated at execution).
        point: Vec<u8>,
    },
}

impl Request {
    /// The op kind this request encodes as.
    pub fn kind(&self) -> OpKind {
        match self {
            Request::ScalarMul { .. } => OpKind::ScalarMul,
            Request::FixedBaseMul { .. } => OpKind::FixedBaseMul,
            Request::SchnorrSign { .. } => OpKind::SchnorrSign,
            Request::SchnorrVerify { .. } => OpKind::SchnorrVerify,
            Request::EcdsaSign { .. } => OpKind::EcdsaSign,
            Request::Ecdh { .. } => OpKind::Ecdh,
            Request::Stats => OpKind::Stats,
            Request::CurveMul { .. } => OpKind::CurveMul,
        }
    }
}

/// Response status byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; payload carries the result.
    Ok = 0,
    /// The request queue is full — explicit backpressure. The client may
    /// retry later; the request was **not** enqueued.
    Busy = 1,
    /// The request frame did not decode.
    Malformed = 2,
    /// The operation itself failed (invalid point, degenerate ECDH
    /// share, signing error); payload is empty.
    Failed = 3,
    /// A `CurveMul` request named a curve id this server does not
    /// implement. The frame itself was well-formed (the id echoes back
    /// and the connection stays open) — the curve byte just names
    /// nothing.
    UnknownCurve = 4,
}

impl Status {
    /// Parses the wire byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::Busy),
            2 => Some(Status::Malformed),
            3 => Some(Status::Failed),
            4 => Some(Status::UnknownCurve),
            _ => None,
        }
    }
}

/// A decoded response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Outcome.
    pub status: Status,
    /// Result payload (`Ok`) or empty.
    pub payload: Vec<u8>,
}

/// Wire-protocol decode failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Frame payload shorter than the header, or an op payload shorter
    /// than its fixed layout.
    Truncated,
    /// Declared frame length exceeds [`MAX_FRAME`].
    Oversized,
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown op-kind or status byte.
    BadTag(u8),
    /// A `CurveMul` frame named an unsupported curve id. Distinguished
    /// from [`ProtoError::BadTag`] so the server can answer the typed
    /// [`Status::UnknownCurve`] frame and keep the connection.
    UnknownCurve(u8),
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::Oversized => write!(f, "frame exceeds {MAX_FRAME} bytes"),
            ProtoError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            ProtoError::BadTag(t) => write!(f, "unknown op/status tag {t}"),
            ProtoError::UnknownCurve(c) => write!(f, "unknown curve id {c}"),
        }
    }
}
impl std::error::Error for ProtoError {}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], ProtoError> {
    if buf.len() < n {
        return Err(ProtoError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, ProtoError> {
    let b = take(buf, 8)?;
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    Ok(u64::from_le_bytes(a))
}

fn take_32(buf: &mut &[u8]) -> Result<[u8; 32], ProtoError> {
    let b = take(buf, 32)?;
    let mut a = [0u8; 32];
    a.copy_from_slice(b);
    Ok(a)
}

/// Decodes a request-carried secret scalar: 32 little-endian bytes folded
/// modulo the group order. Client key material (the `k` of `[k]P` and of
/// fixed-base multiplication) enters the server through this one point,
/// so the constant-time lint tracks it from here.
// ct: secret
fn take_scalar(buf: &mut &[u8]) -> Result<Scalar, ProtoError> {
    Ok(Scalar::from_le_bytes(&take_32(buf)?))
}

/// Decodes a multi-curve secret scalar: 32 raw little-endian bytes whose
/// interpretation (Fourℚ group-order fold, RFC 7748 clamp, plain 256-bit
/// integer) is per curve and deferred to execution. X25519 and P-256 key
/// material enters the server through this one point, so the
/// constant-time lint tracks it from here.
// ct: secret
fn take_curve_scalar(buf: &mut &[u8]) -> Result<[u8; 32], ProtoError> {
    take_32(buf)
}

/// Encodes a request into a complete frame (length prefix included).
///
/// # Panics
///
/// Panics if the message pushes the payload over [`MAX_FRAME`] — a caller
/// bug, not a wire condition (the limit is a compile-time documented
/// contract of the protocol).
// ct: secret(req)
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut p = Vec::with_capacity(HEADER_LEN + 96);
    p.push(PROTO_VERSION);
    p.push(req.kind().as_u8());
    p.extend_from_slice(&id.to_le_bytes());
    // ct: allow(R1) reason="dispatch on the public request kind tag; scalar bytes are copied, never branched on"
    match req {
        Request::ScalarMul { scalar, point } => {
            p.extend_from_slice(&scalar.to_le_bytes());
            p.extend_from_slice(point);
        }
        Request::FixedBaseMul { scalar } => p.extend_from_slice(&scalar.to_le_bytes()),
        Request::SchnorrSign { tenant, msg } | Request::EcdsaSign { tenant, msg } => {
            p.extend_from_slice(&tenant.to_le_bytes());
            p.extend_from_slice(msg);
        }
        Request::SchnorrVerify {
            public,
            sig_r,
            sig_s,
            msg,
        } => {
            p.extend_from_slice(public);
            p.extend_from_slice(sig_r);
            p.extend_from_slice(&sig_s.to_le_bytes());
            p.extend_from_slice(msg);
        }
        Request::Ecdh { tenant, peer } => {
            p.extend_from_slice(&tenant.to_le_bytes());
            p.extend_from_slice(peer);
        }
        Request::Stats => {}
        Request::CurveMul {
            curve,
            scalar,
            point,
        } => {
            p.push(curve.byte());
            p.extend_from_slice(scalar);
            p.extend_from_slice(point);
        }
    }
    assert!(p.len() <= MAX_FRAME, "request exceeds MAX_FRAME");
    frame(p)
}

/// Decodes a request frame payload (the bytes after the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtoError> {
    let mut buf = payload;
    let head = take(&mut buf, 2)?;
    if head[0] != PROTO_VERSION {
        return Err(ProtoError::BadVersion(head[0]));
    }
    let kind = OpKind::from_u8(head[1]).ok_or(ProtoError::BadTag(head[1]))?;
    let id = take_u64(&mut buf)?;
    let req = match kind {
        OpKind::ScalarMul => Request::ScalarMul {
            scalar: take_scalar(&mut buf)?,
            point: take_32(&mut buf)?,
        },
        OpKind::FixedBaseMul => Request::FixedBaseMul {
            scalar: take_scalar(&mut buf)?,
        },
        OpKind::SchnorrSign => Request::SchnorrSign {
            tenant: take_u64(&mut buf)?,
            msg: buf.to_vec(),
        },
        OpKind::SchnorrVerify => Request::SchnorrVerify {
            public: take_32(&mut buf)?,
            sig_r: take_32(&mut buf)?,
            // Verification inputs are public by protocol; only the
            // signing/key-agreement scalars above are secret.
            sig_s: Scalar::from_le_bytes(&take_32(&mut buf)?),
            msg: buf.to_vec(),
        },
        OpKind::EcdsaSign => Request::EcdsaSign {
            tenant: take_u64(&mut buf)?,
            msg: buf.to_vec(),
        },
        OpKind::Ecdh => Request::Ecdh {
            tenant: take_u64(&mut buf)?,
            peer: take_32(&mut buf)?,
        },
        OpKind::Stats => Request::Stats,
        OpKind::CurveMul => {
            let b = take(&mut buf, 1)?[0];
            let curve = CurveId::from_byte(b).ok_or(ProtoError::UnknownCurve(b))?;
            Request::CurveMul {
                curve,
                scalar: take_curve_scalar(&mut buf)?,
                point: take(&mut buf, curve.point_len())?.to_vec(),
            }
        }
    };
    // Fixed-layout ops must consume the payload exactly; trailing bytes
    // mean a length mismatch, not extra data to ignore.
    match req {
        Request::SchnorrSign { .. } | Request::SchnorrVerify { .. } | Request::EcdsaSign { .. } => {
        }
        _ if !buf.is_empty() => return Err(ProtoError::Truncated),
        _ => {}
    }
    Ok((id, req))
}

/// Encodes a response into a complete frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut p = Vec::with_capacity(HEADER_LEN + resp.payload.len());
    p.push(PROTO_VERSION);
    p.push(resp.status as u8);
    p.extend_from_slice(&resp.id.to_le_bytes());
    p.extend_from_slice(&resp.payload);
    assert!(p.len() <= MAX_FRAME, "response exceeds MAX_FRAME");
    frame(p)
}

/// Decodes a response frame payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut buf = payload;
    let head = take(&mut buf, 2)?;
    if head[0] != PROTO_VERSION {
        return Err(ProtoError::BadVersion(head[0]));
    }
    let status = Status::from_u8(head[1]).ok_or(ProtoError::BadTag(head[1]))?;
    let id = take_u64(&mut buf)?;
    Ok(Response {
        id,
        status,
        payload: buf.to_vec(),
    })
}

/// Coalescer statistics as carried by a [`OpKind::Stats`] response:
/// four little-endian `u64`s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Number of non-empty flushes executed.
    pub flushes: u64,
    /// Total requests flushed.
    pub items: u64,
    /// Largest single flush.
    pub max_flush: u64,
    /// Requests rejected with [`Status::Busy`].
    pub busy_rejects: u64,
}

impl WireStats {
    /// Serialises for a stats response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        for v in [self.flushes, self.items, self.max_flush, self.busy_rejects] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Parses a stats response payload.
    pub fn decode(payload: &[u8]) -> Result<WireStats, ProtoError> {
        let mut buf = payload;
        let s = WireStats {
            flushes: take_u64(&mut buf)?,
            items: take_u64(&mut buf)?,
            max_flush: take_u64(&mut buf)?,
            busy_rejects: take_u64(&mut buf)?,
        };
        if !buf.is_empty() {
            return Err(ProtoError::Truncated);
        }
        Ok(s)
    }

    /// Mean requests per flush (0 when nothing flushed yet).
    pub fn mean_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.items as f64 / self.flushes as f64
        }
    }
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Incremental frame extraction over a byte stream.
///
/// Feed raw socket bytes with [`FrameReader::push`]; pull complete frame
/// payloads with [`FrameReader::next_frame`]. The reader enforces
/// [`MAX_FRAME`] *before* buffering a frame's body, so a hostile length
/// prefix cannot force a large allocation.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    /// A fresh reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the consumed prefix dominates.
        if self.pos > 0 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame payload, `None` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Oversized`] when the pending length prefix exceeds
    /// [`MAX_FRAME`]; the stream is unrecoverable at that point (framing
    /// is lost) and the caller should drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let mut l4 = [0u8; 4];
        l4.copy_from_slice(&avail[..4]);
        let len = u32::from_le_bytes(l4) as usize;
        if len > MAX_FRAME {
            return Err(ProtoError::Oversized);
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_all_kinds() {
        let reqs = [
            Request::ScalarMul {
                scalar: Scalar::from_u64(7),
                point: [9u8; 32],
            },
            Request::FixedBaseMul {
                scalar: Scalar::from_u64(1 << 40),
            },
            Request::SchnorrSign {
                tenant: 3,
                msg: b"hello".to_vec(),
            },
            Request::SchnorrVerify {
                public: [1u8; 32],
                sig_r: [2u8; 32],
                sig_s: Scalar::from_u64(5),
                msg: Vec::new(),
            },
            Request::EcdsaSign {
                tenant: u64::MAX,
                msg: vec![0u8; 100],
            },
            Request::Ecdh {
                tenant: 0,
                peer: [4u8; 32],
            },
            Request::Stats,
            Request::CurveMul {
                curve: CurveId::FourQ,
                scalar: [6u8; 32],
                point: vec![7u8; 32],
            },
            Request::CurveMul {
                curve: CurveId::X25519,
                scalar: [8u8; 32],
                point: vec![9u8; 32],
            },
            Request::CurveMul {
                curve: CurveId::P256,
                scalar: [10u8; 32],
                point: vec![11u8; 64],
            },
        ];
        for (i, req) in reqs.iter().enumerate() {
            let wire = encode_request(i as u64, req);
            let mut rd = FrameReader::new();
            rd.push(&wire);
            let payload = rd.next_frame().unwrap().expect("complete frame");
            let (id, back) = decode_request(&payload).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&back, req);
            assert_eq!(rd.next_frame().unwrap(), None);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response {
            id: 42,
            status: Status::Ok,
            payload: vec![1, 2, 3],
        };
        let wire = encode_response(&resp);
        let mut rd = FrameReader::new();
        rd.push(&wire);
        let payload = rd.next_frame().unwrap().unwrap();
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn reader_handles_split_and_batched_delivery() {
        let a = encode_request(1, &Request::Stats);
        let b = encode_request(
            2,
            &Request::FixedBaseMul {
                scalar: Scalar::from_u64(9),
            },
        );
        let mut wire = a.clone();
        wire.extend_from_slice(&b);
        // Deliver one byte at a time.
        let mut rd = FrameReader::new();
        let mut got = Vec::new();
        for &byte in &wire {
            rd.push(&[byte]);
            while let Some(f) = rd.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(decode_request(&got[0]).unwrap().0, 1);
        assert_eq!(decode_request(&got[1]).unwrap().0, 2);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut rd = FrameReader::new();
        rd.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(rd.next_frame(), Err(ProtoError::Oversized));
    }

    #[test]
    fn truncated_payloads_rejected() {
        assert_eq!(decode_request(&[]), Err(ProtoError::Truncated));
        let wire = encode_request(
            7,
            &Request::Ecdh {
                tenant: 1,
                peer: [0u8; 32],
            },
        );
        // Strip length prefix, then cut the op payload short.
        let payload = &wire[4..];
        for cut in 0..payload.len() {
            let r = decode_request(&payload[..cut]);
            assert!(r.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn trailing_garbage_on_fixed_layout_rejected() {
        let wire = encode_request(
            1,
            &Request::FixedBaseMul {
                scalar: Scalar::from_u64(2),
            },
        );
        let mut payload = wire[4..].to_vec();
        payload.push(0xaa);
        assert_eq!(decode_request(&payload), Err(ProtoError::Truncated));
    }

    #[test]
    fn unknown_curve_byte_is_a_typed_error() {
        // Hand-build a CurveMul payload naming curve id 9.
        let mut payload = vec![PROTO_VERSION, OpKind::CurveMul.as_u8()];
        payload.extend_from_slice(&77u64.to_le_bytes());
        payload.push(9);
        payload.extend_from_slice(&[0u8; 64]);
        assert_eq!(decode_request(&payload), Err(ProtoError::UnknownCurve(9)));
    }

    #[test]
    fn curve_mul_trailing_garbage_rejected() {
        let wire = encode_request(
            3,
            &Request::CurveMul {
                curve: CurveId::X25519,
                scalar: [1u8; 32],
                point: vec![2u8; 32],
            },
        );
        let mut payload = wire[4..].to_vec();
        payload.push(0x55);
        assert_eq!(decode_request(&payload), Err(ProtoError::Truncated));
    }

    #[test]
    fn wire_stats_roundtrip() {
        let s = WireStats {
            flushes: 10,
            items: 55,
            max_flush: 12,
            busy_rejects: 3,
        };
        assert_eq!(WireStats::decode(&s.encode()), Ok(s));
        assert!((s.mean_flush() - 5.5).abs() < 1e-12);
        assert_eq!(WireStats::default().mean_flush(), 0.0);
        assert!(WireStats::decode(&[0u8; 31]).is_err());
        assert!(WireStats::decode(&[0u8; 33]).is_err());
    }
}
