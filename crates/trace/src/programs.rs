//! Canned trace programs: the full scalar multiplication and the Table-I
//! double-and-add loop body.
//!
//! The scalar multiplication here is `fourq_curve::scalar_mul_engine`
//! itself, run on [`crate::TracedFp2`] handles and recorded in *uniform* form:
//! the engine's secret-dependent choices (table index, digit sign, parity
//! correction) go through `fourq_curve::EngineSelect`, which the tracer
//! implements as operand multiplexers with the recoded digits as runtime
//! inputs, instead of values baked into the SSA. The resulting program is
//! identical — op for op, operand for operand — for every (base, scalar)
//! pair; only the digit stream and the two base-point inputs change
//! between executions. This is exactly the paper's control-ROM model: one
//! fixed microcode schedule, select lines driven by the recoded scalar.

use crate::tracer::{mont_field, DigitStream, Selector, Trace, TracedFe, Tracer};
use fourq_baselines::mont::FeLike;
use fourq_baselines::p256::{add_complete, double_complete, Affine, P256};
use fourq_baselines::x25519::{ladder_step, X25519};
use fourq_curve::{
    decompose, normalize, params, recode, scalar_mul_engine, CurveId, ExtendedPoint, Recoded,
};
use fourq_fp::{Choice, Fp2, Fp2Like, Scalar, U256};

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
/// setup, table construction, 62 double-add iterations and the final
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

    let tracer = Tracer::with_digits(stream_of(&recoded, d.corrected));
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
    /// The result computed independently by the host baseline ladder.
    pub expected: [u8; 32],
}

/// A recorded P-256 scalar multiplication with its expected affine result.
#[derive(Clone, Debug)]
pub struct P256Trace {
    /// The recorded microinstruction program (outputs `x`, `y` are plain
    /// affine coordinates; `(0, 0)` encodes the point at infinity).
    pub trace: Trace,
    /// The result computed independently by the host baseline ladder.
    pub expected: Affine,
}

/// Mux select-line inputs for the uniform X25519 ladder.
///
/// Position `s < 255` drives the conditional-swap muxes of ladder step
/// `t = 254 − s` and holds `swap_prev XOR k_t` (the RFC 7748 running-swap
/// recoding); position 255 drives the final unswap muxes and holds the
/// residual swap flag `k_0`.
// ct: secret(scalar)
pub fn x25519_digit_stream(scalar: &[u8; 32]) -> DigitStream {
    let k = X25519::clamp(scalar);
    let mut neg = Vec::with_capacity(256);
    let mut prev = false;
    for t in (0..255).rev() {
        let kt = k.bit(t);
        // Boolean XOR, not `!=`: same truth table, but lowers to a mask
        // op with no data-dependent comparison on the scalar bits.
        neg.push(prev ^ kt);
        prev = kt;
    }
    neg.push(prev);
    DigitStream {
        indices: Vec::new(),
        neg,
        corrected: false,
    }
}

/// Mux select-line inputs for the uniform P-256 ladder: position `s`
/// drives the keep-double/keep-add muxes of iteration `s` and holds bit
/// `255 − s` of the scalar (MSB first).
// ct: secret(k)
pub fn p256_digit_stream(k: &U256) -> DigitStream {
    DigitStream {
        indices: Vec::new(),
        neg: (0..256).map(|s| k.bit(255 - s)).collect(),
        corrected: false,
    }
}

/// Square-and-multiply exponentiation over traced handles.
///
/// The exponent is *public* (a fixed field constant such as `p − 2`), so
/// branching on its bits shapes the program identically for every
/// execution — unlike the scalar, which only ever drives mux select lines.
fn traced_pow(base: &TracedFe, e: &U256) -> TracedFe {
    let bits = e.bits() as usize;
    assert!(bits > 0, "zero exponent has no program");
    let mut acc = base.clone();
    for i in (0..bits - 1).rev() {
        acc = acc.sqr();
        if e.bit(i) {
            acc = acc.mul(base);
        }
    }
    acc
}

/// Records the X25519 function `X25519(k, u)` as one uniform
/// microinstruction program on the base-field datapath.
///
/// The 255 ladder steps run [`ladder_step`] — the same [`FeLike`] formula
/// the host baseline executes — with the RFC 7748 conditional swaps
/// realised as 2-way sign muxes driven by [`x25519_digit_stream`], the
/// Fermat inversion of `z2` done by square-and-multiply on the public
/// exponent `p − 2`, and a final multiplication by the lifted raw-`1`
/// constant (`rawone`) performing the Montgomery-domain exit on the
/// datapath itself. The recorded program is identical for every
/// `(scalar, u)` pair.
pub fn trace_x25519_ladder(scalar: &[u8; 32], u: &[u8; 32]) -> X25519Trace {
    let ctx = X25519::new();
    let f = mont_field(CurveId::X25519);
    // RFC 7748 masks the top bit of u; both mask and clamp are performed
    // host-side, like the recoding of a Fourℚ scalar.
    let mut ub = *u;
    ub[31] &= 0x7f;
    let x1v = f.enter(U256::from_le_bytes(&ub));

    let tracer = Tracer::for_curve(CurveId::X25519, x25519_digit_stream(scalar));
    let x1 = tracer.input_fe("U", x1v);
    let a24 = tracer.constant_fe("a24", ctx.a24());
    let one = tracer.constant_fe("one", f.enter(U256::ONE));
    let zero = tracer.constant_fe("zero", U256::ZERO);
    let rawone = tracer.constant_fe("rawone", U256::ONE);

    let mut x2 = one.clone();
    let mut z2 = zero;
    let mut x3 = x1.clone();
    let mut z3 = one;
    for s in 0..255 {
        // The running conditional swap: four 2-way muxes sharing one
        // select line. No value is moved — the operand routing changes.
        let x2m = tracer.mux_fe(Selector::SignNeg(s), &[&x2, &x3]);
        let x3m = tracer.mux_fe(Selector::SignNeg(s), &[&x3, &x2]);
        let z2m = tracer.mux_fe(Selector::SignNeg(s), &[&z2, &z3]);
        let z3m = tracer.mux_fe(Selector::SignNeg(s), &[&z3, &z2]);
        let (nx2, nz2, nx3, nz3) = ladder_step(&x1, &a24, &x2m, &z2m, &x3m, &z3m);
        x2 = nx2;
        z2 = nz2;
        x3 = nx3;
        z3 = nz3;
    }
    let x2f = tracer.mux_fe(Selector::SignNeg(255), &[&x2, &x3]);
    let z2f = tracer.mux_fe(Selector::SignNeg(255), &[&z2, &z3]);

    // z2 = 0 (degenerate u) exponentiates to 0, so the output is 0 —
    // matching the baseline without a branch.
    let e = f.p.checked_sub(&U256::from_u64(2)).expect("p > 2");
    let zinv = traced_pow(&z2f, &e);
    let out = x2f.mul(&zinv).mul(&rawone);
    tracer.mark_output_fe("x", &out);
    let trace = tracer.finish();

    let expected = ctx.ladder(scalar, u);
    debug_assert_eq!(out.value().to_le_bytes(), expected);
    X25519Trace { trace, expected }
}

/// Records the P-256 scalar multiplication `[k]P` as one uniform
/// microinstruction program on the base-field datapath.
///
/// Every one of the 256 iterations runs [`double_complete`] *and*
/// [`add_complete`] — the same complete Renes–Costello–Batina formulas the
/// host baseline ([`P256::scalar_mul_complete`]) executes — with bit
/// `255 − s` of the scalar selecting which result is kept via three 2-way
/// muxes. The affine conversion inverts `Z` by square-and-multiply on the
/// public exponent `p − 2` and exits the Montgomery domain through the
/// lifted raw-`1` constant. `(0, 0)` encodes the point at infinity. The
/// recorded program is identical for every `(k, point)` pair, including
/// the identity (its homogeneous representation `(0 : 1 : 0)` is just a
/// different `Pz` input value).
pub fn trace_p256_scalar_mul(k: &U256, point: &Affine) -> P256Trace {
    let ctx = P256::new();
    let f = mont_field(CurveId::P256);
    let (pxv, pyv, pzv) = match point {
        Affine::Infinity => (U256::ZERO, f.enter(U256::ONE), U256::ZERO),
        Affine::Point { x, y } => (f.enter(*x), f.enter(*y), f.enter(U256::ONE)),
    };

    let tracer = Tracer::for_curve(CurveId::P256, p256_digit_stream(k));
    let px = tracer.input_fe("Px", pxv);
    let py = tracer.input_fe("Py", pyv);
    let pz = tracer.input_fe("Pz", pzv);
    let b = tracer.constant_fe("b", ctx.b());
    // The accumulator's starting identity gets its own constants: `Rx0`
    // and `Rz0` are both zero, but distinct ids keep the first
    // iteration's op stream congruent with every later one (structural
    // CSE would otherwise merge e.g. `Rx0²` with `Rz0²`).
    let rx0 = tracer.constant_fe("Rx0", U256::ZERO);
    let ry0 = tracer.constant_fe("Ry0", f.enter(U256::ONE));
    let rz0 = tracer.constant_fe("Rz0", U256::ZERO);
    let rawone = tracer.constant_fe("rawone", U256::ONE);

    let base = [px, py, pz];
    let mut r = [rx0, ry0, rz0];
    for s in 0..256 {
        let d = double_complete(&r, &b);
        let t = add_complete(&d, &base, &b);
        r = [
            tracer.mux_fe(Selector::SignNeg(s), &[&d[0], &t[0]]),
            tracer.mux_fe(Selector::SignNeg(s), &[&d[1], &t[1]]),
            tracer.mux_fe(Selector::SignNeg(s), &[&d[2], &t[2]]),
        ];
    }

    // Z = 0 (result at infinity) exponentiates to 0, giving the (0, 0)
    // encoding without a branch.
    let e = f.p.checked_sub(&U256::from_u64(2)).expect("p > 2");
    let zinv = traced_pow(&r[2], &e);
    let x = r[0].mul(&zinv).mul(&rawone);
    let y = r[1].mul(&zinv).mul(&rawone);
    tracer.mark_output_fe("x", &x);
    tracer.mark_output_fe("y", &y);
    let trace = tracer.finish();

    let expected = ctx.scalar_mul_complete(k, point);
    debug_assert_eq!(
        (x.value(), y.value()),
        match expected {
            Affine::Infinity => (U256::ZERO, U256::ZERO),
            Affine::Point { x, y } => (x, y),
        }
    );
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

    let tracer = Tracer::new();
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

    #[test]
    fn trace_op_counts_match_baseline_estimate() {
        // The hand-maintained Table-II op estimates in `fourq-baselines`
        // are *derived* from the recorded structure; this pins them to
        // the traces so they cannot drift apart.
        let mut u = [0u8; 32];
        u[0] = 9;
        let lt = trace_x25519_ladder(&[0x42u8; 32], &u);
        let s = lt.trace.stats();
        assert_eq!(
            (s.mul + s.sqr) as u64,
            X25519::ladder_field_ops(),
            "X25519 traced mul-unit ops vs estimate"
        );

        let ctx = P256::new();
        let pt = trace_p256_scalar_mul(&U256::from_u64(0xdead_beef), &ctx.generator_affine());
        let s = pt.trace.stats();
        assert_eq!(
            (s.mul + s.sqr) as u64,
            P256::scalar_mul_field_ops(256),
            "P-256 traced mul-unit ops vs estimate"
        );
    }
}
