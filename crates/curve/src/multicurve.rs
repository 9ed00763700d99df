//! Multi-curve scalar-multiplication engine.
//!
//! The paper's Table II compares Fourℚ against *reported* Curve25519 and
//! P-256 numbers measured on different silicon. Promoting the baseline
//! implementations into first-class curves lets one process answer
//! mixed-curve traffic — and lets the bench layer measure all three on
//! the *same* simulated machine. [`CurveId`] is the identity the whole
//! pipeline keys on: the trace layer tags traces with it, the cpu layer
//! keys its kernel cache on it, and the serve layer carries it as a wire
//! byte.

use crate::affine::AffinePoint;
use crate::context::FourQEngine;
use fourq_baselines::p256::{Affine, P256};
use fourq_baselines::x25519::X25519;
use fourq_fp::{Scalar, U256};

/// Identifies one of the supported curves across the trace → sched → cpu
/// → engine → serve pipeline. The discriminant doubles as the wire byte
/// of the serve protocol's `CurveMul` operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum CurveId {
    /// Fourℚ — the paper's curve (twisted Edwards over F_p², p = 2¹²⁷−1).
    FourQ = 0,
    /// Curve25519's X25519 function (Montgomery ladder, p = 2²⁵⁵−19).
    X25519 = 1,
    /// NIST P-256 (short Weierstrass a = −3, complete formulas).
    P256 = 2,
}

impl CurveId {
    /// Every supported curve, in wire-byte order.
    pub const ALL: [CurveId; 3] = [CurveId::FourQ, CurveId::X25519, CurveId::P256];

    /// Parses the wire byte; `None` for unknown curve ids.
    pub fn from_byte(b: u8) -> Option<CurveId> {
        match b {
            0 => Some(CurveId::FourQ),
            1 => Some(CurveId::X25519),
            2 => Some(CurveId::P256),
            _ => None,
        }
    }

    /// The wire byte.
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Human-readable curve name (CLI flags, reports, error messages).
    pub fn name(self) -> &'static str {
        match self {
            CurveId::FourQ => "fourq",
            CurveId::X25519 => "x25519",
            CurveId::P256 => "p256",
        }
    }

    /// Parses a [`CurveId::name`] string (CLI flags).
    pub fn from_name(s: &str) -> Option<CurveId> {
        match s {
            "fourq" => Some(CurveId::FourQ),
            "x25519" => Some(CurveId::X25519),
            "p256" => Some(CurveId::P256),
            _ => None,
        }
    }

    /// Length in bytes of this curve's point encoding on the wire (and of
    /// a `CurveMul` result): 32 for Fourℚ's compressed points and
    /// X25519's u-coordinates, 64 for P-256's `x ‖ y` (little-endian;
    /// all-zero encodes the point at infinity).
    pub fn point_len(self) -> usize {
        match self {
            CurveId::FourQ | CurveId::X25519 => 32,
            CurveId::P256 => 64,
        }
    }
}

impl std::fmt::Display for CurveId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a [`MultiCurveEngine::curve_mul`] request was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CurveMulError {
    /// The point payload has the wrong length for the curve.
    BadPointLen {
        /// Expected [`CurveId::point_len`].
        expected: usize,
        /// Actual payload length.
        got: usize,
    },
    /// The point failed validation (non-canonical Fourℚ encoding, or a
    /// P-256 pair off the curve).
    BadPoint,
}

impl std::fmt::Display for CurveMulError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CurveMulError::BadPointLen { expected, got } => {
                write!(f, "point payload is {got} bytes, curve takes {expected}")
            }
            CurveMulError::BadPoint => f.write_str("point failed validation"),
        }
    }
}

impl std::error::Error for CurveMulError {}

/// A scalar-multiplication context over every supported curve.
///
/// Grown out of [`FourQEngine`]: the Fourℚ side keeps its precomputed
/// generator table and batch-first entry points, while X25519 and P-256 ride
/// along as host-arithmetic contexts so `fourq-serve` can answer
/// mixed-curve traffic from one process. Construction cost beyond
/// [`FourQEngine`] is negligible (two field contexts).
#[derive(Clone, Debug)]
pub struct MultiCurveEngine {
    fourq: FourQEngine,
    x25519: X25519,
    p256: P256,
}

impl MultiCurveEngine {
    /// Builds a fresh engine (precomputes the Fourℚ generator table).
    pub fn new() -> MultiCurveEngine {
        MultiCurveEngine::from_fourq(FourQEngine::new())
    }

    /// Wraps an existing Fourℚ engine (e.g. the process-shared one, or a
    /// thread-pinned copy).
    pub fn from_fourq(fourq: FourQEngine) -> MultiCurveEngine {
        MultiCurveEngine {
            fourq,
            x25519: X25519::new(),
            p256: P256::new(),
        }
    }

    /// The process-wide shared engine, built on first use (shares the
    /// generator table with [`FourQEngine::shared`]).
    pub fn shared() -> &'static MultiCurveEngine {
        static ENGINE: std::sync::OnceLock<MultiCurveEngine> = std::sync::OnceLock::new();
        ENGINE.get_or_init(|| MultiCurveEngine::from_fourq(FourQEngine::shared().clone()))
    }

    /// A copy whose Fourℚ engine is pinned to exactly `n` worker threads.
    pub fn with_threads(&self, n: usize) -> MultiCurveEngine {
        MultiCurveEngine {
            fourq: self.fourq.with_threads(n),
            x25519: self.x25519,
            p256: self.p256,
        }
    }

    /// The Fourℚ engine (tables, batch entry points).
    pub fn fourq(&self) -> &FourQEngine {
        &self.fourq
    }

    /// The X25519 context.
    pub fn x25519(&self) -> &X25519 {
        &self.x25519
    }

    /// The P-256 context.
    pub fn p256(&self) -> &P256 {
        &self.p256
    }

    /// The curve's canonical base point in its wire encoding: the Fourℚ
    /// generator, X25519's `u = 9`, or the P-256 generator. Handy for
    /// clients and benchmarks that need *some* valid point per curve.
    pub fn generator_encoded(&self, curve: CurveId) -> Vec<u8> {
        match curve {
            CurveId::FourQ => AffinePoint::generator().encode().to_vec(),
            CurveId::X25519 => {
                let mut u = vec![0u8; 32];
                u[0] = 9;
                u
            }
            CurveId::P256 => self.p256.generator_affine().to_bytes().to_vec(),
        }
    }

    /// Uniform variable-base scalar multiplication: `[k]P` on `curve`,
    /// bytes in, bytes out.
    ///
    /// Scalar bytes are little-endian and interpreted per curve (Fourℚ
    /// scalar, RFC 7748 clamped X25519 scalar, plain 256-bit P-256
    /// scalar); the point encoding is [`CurveId::point_len`] bytes. The
    /// result uses the same point encoding.
    // ct: secret(scalar)
    pub fn curve_mul(
        &self,
        curve: CurveId,
        scalar: &[u8; 32],
        point: &[u8],
    ) -> Result<Vec<u8>, CurveMulError> {
        if point.len() != curve.point_len() {
            return Err(CurveMulError::BadPointLen {
                expected: curve.point_len(),
                got: point.len(),
            });
        }
        match curve {
            CurveId::FourQ => {
                let mut enc = [0u8; 32];
                enc.copy_from_slice(point);
                let p = AffinePoint::decode(&enc).map_err(|_| CurveMulError::BadPoint)?;
                let k = Scalar::from_le_bytes(scalar);
                Ok(self.fourq.scalar_mul(&p, &k).encode().to_vec())
            }
            CurveId::X25519 => {
                let mut u = [0u8; 32];
                u.copy_from_slice(point);
                Ok(self.x25519.ladder(scalar, &u).to_vec())
            }
            CurveId::P256 => {
                let p = <&[u8; 64]>::try_from(point)
                    .ok()
                    .and_then(Affine::from_bytes)
                    .filter(|p| self.p256.is_on_curve(p))
                    .ok_or(CurveMulError::BadPoint)?;
                let k = U256::from_le_bytes(scalar);
                Ok(self.p256.scalar_mul_complete(&k, &p).to_bytes().to_vec())
            }
        }
    }
}

impl Default for MultiCurveEngine {
    fn default() -> Self {
        MultiCurveEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_roundtrip() {
        for c in CurveId::ALL {
            assert_eq!(CurveId::from_byte(c.byte()), Some(c));
            assert_eq!(CurveId::from_name(c.name()), Some(c));
        }
        assert_eq!(CurveId::from_byte(3), None);
        assert_eq!(CurveId::from_byte(0xff), None);
    }

    #[test]
    fn fourq_mul_matches_engine() {
        let eng = MultiCurveEngine::shared();
        let k = Scalar::from_u64(0x1234_5678);
        let g = AffinePoint::generator();
        let out = eng
            .curve_mul(CurveId::FourQ, &k.to_le_bytes(), &g.encode())
            .unwrap();
        assert_eq!(out, g.mul(&k).encode().to_vec());
    }

    #[test]
    fn x25519_mul_matches_ladder() {
        let eng = MultiCurveEngine::shared();
        let k = [0x55u8; 32];
        let mut base = [0u8; 32];
        base[0] = 9;
        let out = eng.curve_mul(CurveId::X25519, &k, &base).unwrap();
        assert_eq!(out, eng.x25519().ladder(&k, &base).to_vec());
    }

    #[test]
    fn p256_mul_matches_reference_and_validates() {
        let eng = MultiCurveEngine::shared();
        let c = eng.p256();
        let g = c.generator_affine();
        let genc = g.to_bytes().to_vec();
        let k = [7u8; 32];
        let out = eng.curve_mul(CurveId::P256, &k, &genc).unwrap();
        let expect = c.scalar_mul_complete(&U256::from_le_bytes(&k), &g);
        assert_eq!(out, expect.to_bytes());
        // Off-curve point is rejected.
        let mut bad = genc.clone();
        bad[0] ^= 1;
        assert_eq!(
            eng.curve_mul(CurveId::P256, &k, &bad),
            Err(CurveMulError::BadPoint)
        );
        // Infinity in, infinity out.
        let inf = eng.curve_mul(CurveId::P256, &k, &[0u8; 64]).unwrap();
        assert_eq!(inf, vec![0u8; 64]);
    }

    #[test]
    fn wrong_point_len_rejected() {
        let eng = MultiCurveEngine::shared();
        let k = [1u8; 32];
        assert!(matches!(
            eng.curve_mul(CurveId::P256, &k, &[0u8; 32]),
            Err(CurveMulError::BadPointLen {
                expected: 64,
                got: 32
            })
        ));
        assert!(matches!(
            eng.curve_mul(CurveId::X25519, &k, &[0u8; 64]),
            Err(CurveMulError::BadPointLen { .. })
        ));
    }
}
