//! Canned trace programs: the full scalar multiplication of every curve
//! and the Table-I double-and-add loop body.
//!
//! Each program is the code the host computes with, run on traced
//! handles: Fourℚ's is `fourq_curve::scalar_mul_engine`, X25519's and
//! P-256's are `fourq_baselines`' `ladder_program` and
//! `scalar_mul_program`. The functions here only register the inputs and
//! constants, call the program and mark its outputs.
//!
//! Every program is recorded in *uniform* form. The Fourℚ engine's
//! secret-dependent choices (table index, digit sign, parity correction)
//! go through `fourq_curve::EngineSelect` and the baselines' through
//! `FeLike::select`, which the tracer implements as operand multiplexers
//! with the recoded digits as runtime inputs, instead of values baked
//! into the SSA. The resulting program is
//! identical — op for op, operand for operand — for every (base, scalar)
//! pair; only the digit stream and the two base-point inputs change
//! between executions. This is exactly the paper's control-ROM model: one
//! fixed microcode schedule, select lines driven by the recoded scalar.

use crate::tracer::{DigitStream, Trace, Tracer};
use fourq_baselines::p256::{scalar_mul_program, Affine, P256};
use fourq_baselines::x25519::{ladder_program, X25519};
use fourq_curve::{
    decompose, normalize, params, recode, scalar_mul_engine, CurveId, ExtendedPoint, Recoded,
};
use fourq_fp::{Choice, Fp2, Scalar, U256};

/// A recorded scalar multiplication together with its expected result.
#[derive(Clone, Debug)]
pub struct ScalarMulTrace {
    /// The recorded microinstruction program (outputs `x`, `y` are the
    /// affine result).
    pub trace: Trace,
    /// The affine result computed independently, by plain double-and-add
    /// (`AffinePoint::mul_generic`), not by the engine the trace records
    /// (what the simulator's outputs must match).
    pub expected: fourq_curve::AffinePoint,
}

/// Extracts the mux select-line inputs — recoded table indices, sign
/// bits and the parity flag — for a scalar.
///
/// This is the runtime half of a compiled kernel's input; the base
/// point's coordinates are the other half.
// ct: secret(k)
pub fn digit_stream(k: &Scalar) -> DigitStream {
    let d = decompose(k);
    stream_of(&recode(&d), d.corrected)
}

/// The select-line inputs of a recoded scalar and its parity flag.
// ct: secret(r, corrected)
fn stream_of(r: &Recoded, corrected: Choice) -> DigitStream {
    // Host-side kernel-input preparation is offline with respect to the
    // modelled datapath (the digits *are* the select-line program, not a
    // production secret on the simulated chip), so declassifying them
    // into plain bytes here leaks nothing at modelled runtime.
    DigitStream {
        indices: r.indices.to_vec(),
        neg: r.signs.iter().map(|&s| s < 0).collect(),
        corrected: corrected.to_bool_vartime(),
    }
}

/// Records the complete Algorithm-1 scalar multiplication `[k]P` —
/// endomorphism setup, table construction, 65 double-add iterations and the final
/// normalisation — as one uniform microinstruction program, by running
/// `fourq_curve::scalar_mul_engine` and `fourq_curve::normalize` on
/// traced handles.
pub fn trace_scalar_mul(k: &Scalar) -> ScalarMulTrace {
    trace_scalar_mul_for(&fourq_curve::AffinePoint::generator(), k)
}

/// As [`trace_scalar_mul`] but for an arbitrary base point.
///
/// The recorded program does not depend on `point` or `k` — they only
/// provide the representative input values stored alongside the SSA for
/// functional auditing (and the independently computed `expected`
/// result).
///
/// # Panics
///
/// Panics if `point` is the identity or `k` is zero (no program to record —
/// callers special-case these like `AffinePoint::mul` does).
pub fn trace_scalar_mul_for(point: &fourq_curve::AffinePoint, k: &Scalar) -> ScalarMulTrace {
    assert!(
        !k.is_zero() && !point.is_identity(),
        "degenerate scalar multiplication has no datapath program"
    );
    let d = decompose(k);
    let recoded = recode(&d);

    let tracer = Tracer::new(CurveId::FourQ, stream_of(&recoded, d.corrected));
    let x = tracer.input("Px", point.x);
    let y = tracer.input("Py", point.y);
    let one = tracer.constant("const_1", Fp2::ONE);
    let two_d = tracer.constant("const_2d", params::TWO_D);

    let out = scalar_mul_engine(&x, &y, &one, &two_d, &recoded, d.corrected).point;
    let (rx, ry) = normalize(&out);
    tracer.mark_output("x", &rx);
    tracer.mark_output("y", &ry);
    let trace = tracer.finish();

    let expected = point.mul_generic(k);
    debug_assert_eq!(rx.value(), expected.x);
    debug_assert_eq!(ry.value(), expected.y);
    ScalarMulTrace { trace, expected }
}

/// A recorded X25519 ladder together with its expected RFC 7748 output.
#[derive(Clone, Debug)]
pub struct X25519Trace {
    /// The recorded microinstruction program (output `x` is the shared
    /// secret as a plain little-endian integer).
    pub trace: Trace,
    /// The result of the host baseline ladder, the same program on host
    /// integers.
    pub expected: [u8; 32],
}

/// A recorded P-256 scalar multiplication with its expected affine result.
#[derive(Clone, Debug)]
pub struct P256Trace {
    /// The recorded microinstruction program (outputs `x`, `y` are plain
    /// affine coordinates; `(0, 0)` encodes the point at infinity).
    pub trace: Trace,
    /// The result of the host baseline, the same program on host
    /// integers.
    pub expected: Affine,
}

/// Mux select-line inputs for the uniform X25519 ladder:
/// [`X25519::swap_bits`] as sign bits. Position `s < 255` drives the
/// conditional-swap muxes of ladder step `s`, position 255 the final
/// unswap muxes.
// ct: secret(scalar)
pub fn x25519_digit_stream(scalar: &[u8; 32]) -> DigitStream {
    sign_stream(&X25519::swap_bits(scalar))
}

/// Mux select-line inputs for the uniform P-256 ladder:
/// [`P256::select_bits`] as sign bits. Position `s` drives the
/// keep-double/keep-add muxes of iteration `s` and holds bit `255 − s` of
/// the scalar (MSB first).
// ct: secret(k)
pub fn p256_digit_stream(k: &U256) -> DigitStream {
    sign_stream(&P256::select_bits(k))
}

/// One 2-way sign select line per position, as the base-field programs'
/// `FeLike::select` records them.
// ct: secret(bits)
fn sign_stream(bits: &[Choice; 256]) -> DigitStream {
    // Offline kernel-input preparation, declassified like `stream_of`.
    DigitStream {
        indices: Vec::new(),
        neg: bits.iter().map(|c| c.to_bool_vartime()).collect(),
        corrected: false,
    }
}

/// Records the X25519 function `X25519(k, u)` as one uniform
/// microinstruction program on the base-field datapath: [`ladder_program`]
/// — the code [`X25519::ladder`] runs — on traced handles, its
/// conditional swaps recorded as 2-way sign muxes driven by
/// [`x25519_digit_stream`]. The recorded program is identical for every
/// `(scalar, u)` pair.
pub fn trace_x25519_ladder(scalar: &[u8; 32], u: &[u8; 32]) -> X25519Trace {
    let ctx = X25519::new();
    let f = ctx.field();
    let swaps = X25519::swap_bits(scalar);
    let tracer = Tracer::new(CurveId::X25519, sign_stream(&swaps));
    let x1 = tracer.input("U", ctx.enter_u(u));
    let a24 = tracer.constant("a24", ctx.a24());
    let one = tracer.constant("one", f.enter(U256::ONE));
    let zero = tracer.constant("zero", U256::ZERO);
    let rawone = tracer.constant("rawone", U256::ONE);
    let out = ladder_program(f, &x1, &a24, &one, &zero, &rawone, &swaps);
    tracer.mark_output("x", &out);
    let trace = tracer.finish();

    let expected = ctx.ladder(scalar, u);
    debug_assert_eq!(out.value().to_le_bytes(), expected);
    X25519Trace { trace, expected }
}

/// Records the P-256 scalar multiplication `[k]P` as one uniform
/// microinstruction program on the base-field datapath:
/// [`scalar_mul_program`] — the code [`P256::scalar_mul_complete`] runs —
/// on traced handles, bit `255 − s` of the scalar keeping double or add
/// through three 2-way muxes per iteration. `(0, 0)` encodes the point at
/// infinity. The recorded program is identical for every `(k, point)`
/// pair, including the identity (its homogeneous representation
/// `(0 : 1 : 0)` is just a different `Pz` input value).
pub fn trace_p256_scalar_mul(k: &U256, point: &Affine) -> P256Trace {
    let ctx = P256::new();
    let f = &ctx.field;
    let bits = P256::select_bits(k);
    let tracer = Tracer::new(CurveId::P256, sign_stream(&bits));
    let [px, py, pz] = ctx.enter_point(point);
    let base = [
        tracer.input("Px", px),
        tracer.input("Py", py),
        tracer.input("Pz", pz),
    ];
    let b = tracer.constant("b", ctx.b());
    // The accumulator's starting identity gets its own constants: `Rx0`
    // and `Rz0` are both zero, but distinct ids keep the first
    // iteration's op stream congruent with every later one (structural
    // CSE would otherwise merge e.g. `Rx0²` with `Rz0²`).
    let r0 = [
        tracer.constant("Rx0", U256::ZERO),
        tracer.constant("Ry0", f.enter(U256::ONE)),
        tracer.constant("Rz0", U256::ZERO),
    ];
    let rawone = tracer.constant("rawone", U256::ONE);
    let [x, y] = scalar_mul_program(f, &base, &b, &r0, &rawone, &bits);
    tracer.mark_output("x", &x);
    tracer.mark_output("y", &y);
    let trace = tracer.finish();

    let expected = ctx.scalar_mul_complete(k, point);
    debug_assert_eq!(expected.to_bytes()[..32], x.value().to_le_bytes());
    debug_assert_eq!(expected.to_bytes()[32..], y.value().to_le_bytes());
    P256Trace { trace, expected }
}

/// Records one iteration of the main loop — `Q ← [2]Q; Q ← Q + s·T[v]` —
/// exactly the microinstruction block the paper schedules in Table I
/// (15 `F_p²` multiplications and 13 additions/subtractions).
///
/// The inputs are the five extended coordinates of `Q` and the four cached
/// coordinates of the table entry.
pub fn trace_double_add_iteration() -> Trace {
    // Concrete values only seed the recorded constants; any valid point
    // works. Use [3]G and cached [5]G.
    let g = fourq_curve::AffinePoint::generator();
    let q = g.mul(&Scalar::from_u64(3));
    let t = g.mul(&Scalar::from_u64(5));

    let tracer = Tracer::default();
    let qx = tracer.input("Qx", q.x);
    let qy = tracer.input("Qy", q.y);
    let qz = tracer.input("Qz", Fp2::ONE);
    let qta = tracer.input("Qta", q.x);
    let qtb = tracer.input("Qtb", q.y);
    let typx = tracer.input("T_y+x", t.y + t.x);
    let tymx = tracer.input("T_y-x", t.y - t.x);
    let tz2 = tracer.input("T_2z", Fp2::ONE + Fp2::ONE);
    let tt2d = tracer.input("T_2dt", params::TWO_D * t.x * t.y);

    let qpt = ExtendedPoint {
        x: qx,
        y: qy,
        z: qz,
        ta: qta,
        tb: qtb,
    };
    let entry = fourq_curve::CachedPoint {
        y_plus_x: typx,
        y_minus_x: tymx,
        z2: tz2,
        t2d: tt2d,
    };
    let doubled = qpt.double();
    let added = doubled.add_cached(&entry);
    tracer.mark_output("Qx'", &added.x);
    tracer.mark_output("Qy'", &added.y);
    tracer.mark_output("Qz'", &added.z);
    tracer.mark_output("Qta'", &added.ta);
    tracer.mark_output("Qtb'", &added.tb);
    tracer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourq_curve::DIGITS;

    #[test]
    fn loop_iteration_matches_paper_op_mix() {
        let t = trace_double_add_iteration();
        let s = t.stats();
        // Paper §III-C: 15 F_p² multiplications and 13 add/subs per
        // double-and-add iteration. Our doubling is 3M+4S+7A and the cached
        // addition 8M+6A.
        assert_eq!(s.multiplier_ops(), 15, "mul-unit ops: {s}");
        assert_eq!(s.add + s.sub + s.neg + s.conj, 13, "addsub ops: {s}");
        assert!(t.self_check());
    }

    #[test]
    fn full_scalar_mul_trace_is_consistent() {
        let k = Scalar::from_u64(0xfeed_beef_cafe_f00d);
        let sm = trace_scalar_mul(&k);
        assert!(sm.trace.self_check());
        assert!(sm.trace.validate().is_ok());
        // Outputs stored in the trace equal the independent computation.
        let xid = sm.trace.outputs[0].1;
        let yid = sm.trace.outputs[1].1;
        assert_eq!(sm.trace.values[xid].as_fp2(), sm.expected.x);
        assert_eq!(sm.trace.values[yid].as_fp2(), sm.expected.y);
    }

    #[test]
    fn multiplier_fraction_near_paper_profile() {
        // The paper profiles ~57% of arithmetic as F_p² multiplications.
        let k = Scalar::from_u64(0x1234_5678_9abc_def1);
        let sm = trace_scalar_mul(&k);
        let f = sm.trace.stats().multiplier_fraction();
        assert!((0.45..0.65).contains(&f), "multiplier fraction {f}");
    }

    #[test]
    fn program_is_identical_across_scalars_and_bases() {
        // The uniform form's whole point: not just equal sizes — equal
        // programs. Node kinds, operands, mux tables and output ids all
        // match across different scalars and base points.
        let g = fourq_curve::AffinePoint::generator();
        let a = trace_scalar_mul_for(&g, &Scalar::from_u64(1)).trace;
        let other_base = g.mul(&Scalar::from_u64(77));
        let b = trace_scalar_mul_for(&other_base, &Scalar::from_le_bytes(&[0xfb; 32])).trace;
        assert_eq!(a.nodes.len(), b.nodes.len());
        assert_eq!(a.muxes.len(), b.muxes.len());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.runtime_ids, b.runtime_ids);
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.kind, nb.kind);
            assert_eq!(na.a, nb.a);
            assert_eq!(na.b, nb.b);
        }
        for (ma, mb) in a.muxes.iter().zip(&b.muxes) {
            assert_eq!(ma.sel, mb.sel);
            assert_eq!(ma.cands, mb.cands);
        }
    }

    #[test]
    fn digit_stream_covers_every_mux() {
        let k = Scalar::from_u64(42);
        let d = digit_stream(&k);
        assert_eq!(d.indices.len(), DIGITS);
        assert_eq!(d.neg.len(), DIGITS);
        assert!(d.indices.iter().all(|&i| i < 8));
        // The top recoded digit is always positive by construction.
        assert!(!d.neg[DIGITS - 1]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_scalar_has_no_program() {
        let _ = trace_scalar_mul(&Scalar::ZERO);
    }

    fn assert_same_program(a: &Trace, b: &Trace) {
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.nodes.len(), b.nodes.len());
        assert_eq!(a.muxes.len(), b.muxes.len());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.runtime_ids, b.runtime_ids);
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.kind, nb.kind);
            assert_eq!(na.a, nb.a);
            assert_eq!(na.b, nb.b);
        }
        for (ma, mb) in a.muxes.iter().zip(&b.muxes) {
            assert_eq!(ma.sel, mb.sel);
            assert_eq!(ma.cands, mb.cands);
        }
    }

    #[test]
    fn x25519_trace_matches_baseline() {
        let scalar = [0x35u8; 32];
        let mut u = [0u8; 32];
        u[0] = 9;
        let lt = trace_x25519_ladder(&scalar, &u);
        assert_eq!(lt.trace.curve, CurveId::X25519);
        assert!(lt.trace.validate().is_ok());
        assert!(lt.trace.self_check());
        let xid = lt.trace.outputs[0].1;
        assert_eq!(lt.trace.values[xid].as_fe().to_le_bytes(), lt.expected);
        // Against the baseline through an independent path too: the
        // expected value IS the baseline's answer by construction, so
        // check it is a plausible shared secret (nonzero).
        assert_ne!(lt.expected, [0u8; 32]);
    }

    #[test]
    fn x25519_program_is_identical_across_inputs() {
        let mut u9 = [0u8; 32];
        u9[0] = 9;
        let a = trace_x25519_ladder(&[0x01u8; 32], &u9).trace;
        let x = X25519::new();
        let other_u = x.public_key(&[0x77u8; 32]);
        let b = trace_x25519_ladder(&[0xfeu8; 32], &other_u).trace;
        assert_same_program(&a, &b);
        // 255 steps × 4 swap muxes + 2 final muxes, all 2-way.
        assert_eq!(a.muxes.len(), 255 * 4 + 2);
    }

    #[test]
    fn p256_trace_matches_baseline() {
        let ctx = P256::new();
        let k = U256::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721")
            .unwrap();
        let pt = trace_p256_scalar_mul(&k, &ctx.generator_affine());
        assert_eq!(pt.trace.curve, CurveId::P256);
        assert!(pt.trace.validate().is_ok());
        assert!(pt.trace.self_check());
        let xid = pt.trace.outputs[0].1;
        let yid = pt.trace.outputs[1].1;
        let Affine::Point { x, y } = pt.expected else {
            panic!("expected a finite point");
        };
        assert_eq!(pt.trace.values[xid].as_fe(), x);
        assert_eq!(pt.trace.values[yid].as_fe(), y);
        assert!(ctx.is_on_curve(&pt.expected));
    }

    #[test]
    fn p256_program_is_identical_across_inputs_including_infinity() {
        let ctx = P256::new();
        let g = ctx.generator_affine();
        let a = trace_p256_scalar_mul(&U256::from_u64(1), &g).trace;
        let other_base = ctx.scalar_mul_complete(&U256::from_u64(0xabcdef), &g);
        let k = U256::from_hex("7f000000000000000000000000000000000000000000000000000000000000f7")
            .unwrap();
        let b = trace_p256_scalar_mul(&k, &other_base).trace;
        assert_same_program(&a, &b);
        // The identity is just another input assignment, not a different
        // program.
        let c = trace_p256_scalar_mul(&k, &Affine::Infinity).trace;
        assert_same_program(&a, &c);
        assert_eq!(c.outputs.len(), 2);
        let xid = c.outputs[0].1;
        assert_eq!(c.values[xid].as_fe(), U256::ZERO);
        // 256 iterations × 3 keep muxes, all 2-way.
        assert_eq!(a.muxes.len(), 256 * 3);
    }
}
