//! An oracle for the field layer that shares no code with it: every `F_p`
//! result is checked against plain 256-bit integer arithmetic modulo
//! `p = 2^127 − 1` (`U256::widening_mul` and `U256::rem_wide`), and every
//! `F_p²` product and square against the schoolbook multiplier.
//!
//! The inputs are the values at the edges of the Mersenne fold, crossed
//! with each other, zero built by arithmetic (whatever representative the
//! field stores for it), and seeded random pairs. Only values are
//! compared, never stored words.

use fourq_fp::{Fp, Fp2, U256};
use fourq_testkit::TestRng;

const P: u128 = (1u128 << 127) - 1;
const RANDOM_PAIRS: usize = 10_000;

fn p() -> U256 {
    U256::from_u128(P)
}

/// `x mod p` for a 512-bit value.
fn mod_p(wide: &[u64; 8]) -> u128 {
    let r = U256::rem_wide(wide, &p());
    assert!(r.0[2] == 0 && r.0[3] == 0);
    r.0[0] as u128 | (r.0[1] as u128) << 64
}

fn widen(x: U256) -> [u64; 8] {
    let mut w = [0u64; 8];
    w[..4].copy_from_slice(&x.0);
    w
}

fn int(a: Fp) -> U256 {
    U256::from_u128(a.to_u128())
}

fn oracle_add(a: Fp, b: Fp) -> u128 {
    let (s, carry) = int(a).overflowing_add(&int(b));
    assert!(!carry);
    mod_p(&widen(s))
}

fn oracle_sub(a: Fp, b: Fp) -> u128 {
    // a + p − b ≥ 0 for canonical b < p.
    let (s, carry) = int(a).overflowing_add(&p());
    assert!(!carry);
    let d = s.checked_sub(&int(b)).expect("b < p");
    mod_p(&widen(d))
}

fn oracle_mul(a: Fp, b: Fp) -> u128 {
    mod_p(&int(a).widening_mul(&int(b)))
}

/// The edge values of the fold: 0, 1, 2, p−2, p−1, 2^63, 2^64−1, 2^64,
/// 2^126 and 2^126+1, then zero three ways by arithmetic.
#[allow(clippy::eq_op)] // x − x is one of the zeros under test
fn edge_values() -> Vec<Fp> {
    let raw = [
        0,
        1,
        2,
        P - 2,
        P - 1,
        1 << 63,
        u64::MAX as u128,
        1 << 64,
        1 << 126,
        (1 << 126) + 1,
    ];
    let mut out: Vec<Fp> = raw.iter().map(|&v| Fp::from_u128(v)).collect();
    let a = Fp::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
    out.push(a - a);
    out.push(-Fp::ZERO);
    out.push(Fp::ZERO - Fp::ZERO);
    out
}

fn random_fp(rng: &mut TestRng) -> Fp {
    Fp::from_u128(rng.next_u128())
}

fn crossed<T: Copy>(xs: &[T]) -> Vec<(T, T)> {
    xs.iter()
        .flat_map(|&a| xs.iter().map(move |&b| (a, b)))
        .collect()
}

fn check_fp_pair(a: Fp, b: Fp) {
    let ctx = format!("a = {a:?}, b = {b:?}");
    assert_eq!((a + b).to_u128(), oracle_add(a, b), "add: {ctx}");
    assert_eq!((a - b).to_u128(), oracle_sub(a, b), "sub: {ctx}");
    assert_eq!((a * b).to_u128(), oracle_mul(a, b), "mul: {ctx}");
}

fn check_fp_single(a: Fp) {
    let ctx = format!("a = {a:?}");
    assert_eq!((-a).to_u128(), oracle_sub(Fp::ZERO, a), "neg: {ctx}");
    assert_eq!(a.square().to_u128(), oracle_mul(a, a), "square: {ctx}");
    if a.to_u128() != 0 {
        // The inverse is unique, so a·a⁻¹ ≡ 1 under the oracle pins it.
        assert_eq!(oracle_mul(a, a.inv()), 1, "inv: {ctx}");
    }
}

/// `from_u128` and `from_bytes` of a raw word against `v mod p`.
fn check_from_raw(v: u128) {
    let want = mod_p(&widen(U256::from_u128(v)));
    assert_eq!(Fp::from_u128(v).to_u128(), want, "from_u128({v:#x})");
    assert_eq!(
        Fp::from_bytes(&v.to_le_bytes()).to_u128(),
        want,
        "from_bytes({v:#x})"
    );
    assert_eq!(
        Fp::from_bytes(&v.to_le_bytes()).to_bytes(),
        want.to_le_bytes()
    );
}

#[test]
fn fp_matches_integer_oracle_on_edge_values() {
    let edges = edge_values();
    for &a in &edges {
        check_fp_single(a);
    }
    for (a, b) in crossed(&edges) {
        check_fp_pair(a, b);
    }
    for v in [
        0,
        1,
        2,
        P - 2,
        P - 1,
        P,
        P + 1,
        1 << 127,
        u128::MAX - 1,
        u128::MAX,
    ] {
        check_from_raw(v);
    }
}

#[test]
fn fp_matches_integer_oracle_on_random_pairs() {
    let mut rng = TestRng::from_seed(0xf1e1_d0c1);
    for _ in 0..RANDOM_PAIRS {
        let (a, b) = (random_fp(&mut rng), random_fp(&mut rng));
        check_fp_pair(a, b);
        check_fp_single(a);
        check_from_raw(rng.next_u128());
    }
}

/// Every `(re, im)` pair of `xs`.
fn fp2_values(xs: &[Fp]) -> Vec<Fp2> {
    crossed(xs)
        .into_iter()
        .map(|(re, im)| Fp2::new(re, im))
        .collect()
}

fn check_fp2_mul(a: Fp2, b: Fp2) {
    let want = a.mul_schoolbook(&b);
    assert_eq!(a * b, want, "mul: a = {a:?}, b = {b:?}");
    assert_eq!(
        (a * b).to_bytes(),
        want.to_bytes(),
        "mul: a = {a:?}, b = {b:?}"
    );
}

fn check_fp2_square(a: Fp2) {
    let want = a.mul_schoolbook(&a);
    assert_eq!(a.square(), want, "square: a = {a:?}");
    assert_eq!(a.square().to_bytes(), want.to_bytes(), "square: a = {a:?}");
}

#[test]
fn fp2_matches_schoolbook_on_edge_values() {
    // Every coordinate pair of the edge set, so the arithmetic zeros sit
    // in either coordinate, crossed with each other.
    let edges = edge_values();
    let xs = fp2_values(&edges);
    for &a in &xs {
        check_fp2_square(a);
    }
    for (a, b) in crossed(&xs) {
        check_fp2_mul(a, b);
    }
}

#[test]
fn fp2_matches_schoolbook_on_random_pairs() {
    let mut rng = TestRng::from_seed(0xf2e2_d0c2);
    let zero = Fp::ZERO - Fp::ZERO;
    for _ in 0..RANDOM_PAIRS {
        let a = Fp2::new(random_fp(&mut rng), random_fp(&mut rng));
        let b = Fp2::new(random_fp(&mut rng), random_fp(&mut rng));
        check_fp2_mul(a, b);
        check_fp2_square(a);
        // The same values with an arithmetic zero in either coordinate.
        let (a0, b0) = (Fp2::new(zero, a.im), Fp2::new(b.re, zero));
        check_fp2_mul(a0, b0);
        check_fp2_square(a0);
        check_fp2_square(b0);
    }
}
