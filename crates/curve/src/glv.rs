//! FourQ's endomorphisms ψ₇ and ψ₈ — the setup of Algorithm 1 (step 1).
//!
//! Both maps are the `p`-power Frobenius followed by a separable isogeny of
//! degree 7 or 8 back to the curve, so with `w = ȳ²` (bars are `F_p²`
//! conjugates) each coordinate is a low-degree rational function of `w`:
//!
//! * ψ₈, degree `8p`: `y′ = A(w)/B(w)`, `x′ = x̄·ȳ·C(w)/E(w)`, degree 4;
//! * ψ₇, degree `7p`: `y′ = ȳ·A(w)/B(w)`, `x′ = x̄·C(w)/E(w)`, degree 3.
//!
//! They are group endomorphisms of all of `E(F_p²)` and act as `[λ₇]`,
//! `[λ₈]` on the order-`N` subgroup. `tools/derive_glv.py` derives the
//! coefficients into `glv_consts.rs`; the tests below re-check them, and
//! the lattice constants of [`crate::decompose`], without trusting the
//! tool.

use crate::extended::ExtendedPoint;
use fourq_fp::{Fp2, Fp2Like};

/// A map `y′ = ȳ^y_odd·A(w)/B(w)`, `x′ = x̄·ȳ^x_odd·C(w)/E(w)` with
/// `w = ȳ²` and `polys = [A, B, C, E]`, lowest degree first, all padded to
/// degree `L − 1`.
pub struct Endomorphism<const L: usize> {
    /// Whether `y′` carries a factor `ȳ`.
    pub y_odd: bool,
    /// Whether `x′` carries a factor `ȳ` besides `x̄`.
    pub x_odd: bool,
    /// The coefficients of `A`, `B`, `C` and `E`.
    pub polys: [[Fp2; L]; 4],
}

/// A coefficient lifted into the engine's field. Zero and one stay
/// symbolic so that Horner evaluation records no operation for them.
#[derive(Clone)]
enum Coeff<F> {
    Zero,
    One,
    Val(F),
}

impl<F: Fp2Like> Coeff<F> {
    fn times(self, u: &F) -> Coeff<F> {
        match self {
            Coeff::Zero => Coeff::Zero,
            Coeff::One => Coeff::Val(u.clone()),
            Coeff::Val(a) => Coeff::Val(a.mul(u)),
        }
    }

    fn plus(self, rhs: Coeff<F>, one: &F) -> Coeff<F> {
        match (self, rhs) {
            (Coeff::Zero, t) | (t, Coeff::Zero) => t,
            (a, b) => Coeff::Val(a.value(one).add(&b.value(one))),
        }
    }

    fn value(self, one: &F) -> F {
        match self {
            Coeff::Zero => one.sub(one),
            Coeff::One => one.clone(),
            Coeff::Val(a) => a,
        }
    }
}

/// An [`Endomorphism`] with its coefficients lifted into `F`.
pub(crate) struct Lifted<F, const L: usize> {
    y_odd: bool,
    x_odd: bool,
    polys: [[Coeff<F>; L]; 4],
}

impl<const L: usize> Endomorphism<L> {
    /// Lifts the nonzero, non-unit coefficients with `lift` (the engine
    /// passes [`crate::EngineSelect::constant`]; on the tracer, constants
    /// must be registered before the first operation).
    pub(crate) fn lift<F>(&self, lift: impl Fn(Fp2) -> F) -> Lifted<F, L> {
        Lifted {
            y_odd: self.y_odd,
            x_odd: self.x_odd,
            polys: core::array::from_fn(|p| {
                core::array::from_fn(|i| match self.polys[p][i] {
                    c if c.is_zero() => Coeff::Zero,
                    c if c == Fp2::ONE => Coeff::One,
                    c => Coeff::Val(lift(c)),
                })
            }),
        }
    }
}

impl<F: Fp2Like, const L: usize> Lifted<F, L> {
    /// The image of `p` in extended coordinates.
    ///
    /// With `affine` set, `p.z` must be one and is never read, which saves
    /// the homogenising factors: ψ₈ costs 18M + 1S + 14A + 2 conj and ψ₇
    /// 15M + 1S + 12A + 2 conj. From a projective point, ψ₇ costs
    /// 31M + 2S + 12A + 3 conj.
    pub(crate) fn apply(&self, p: &ExtendedPoint<F>, one: &F, affine: bool) -> ExtendedPoint<F> {
        let xb = p.x.conj();
        let yb = p.y.conj();
        let u = yb.sqr();
        // Projective input: w = u/v with v = Z̄², so each polynomial is
        // evaluated homogeneously, Σ cᵢ·uⁱ·v^(L−1−i); vpow[k] holds v^k.
        let zb = (!affine).then(|| p.z.conj());
        let mut vpow: [Option<F>; L] = core::array::from_fn(|_| None);
        if let Some(z) = &zb {
            let v = z.sqr();
            for k in 1..L {
                vpow[k] = Some(match &vpow[k - 1] {
                    Some(prev) => prev.mul(&v),
                    None => v.clone(),
                });
            }
        }
        let [a, b, c, e] = core::array::from_fn(|i| {
            let mut acc = Coeff::Zero;
            for (deg, coeff) in self.polys[i].iter().enumerate().rev() {
                let term = match (coeff.clone(), &vpow[L - 1 - deg]) {
                    (Coeff::One, Some(vk)) => Coeff::Val(vk.clone()),
                    (Coeff::Val(c), Some(vk)) => Coeff::Val(c.mul(vk)),
                    (c, _) => c,
                };
                acc = acc.times(&u).plus(term, one);
            }
            acc.value(one)
        });
        let ny = if self.y_odd { yb.mul(&a) } else { a };
        let nx = if self.x_odd {
            xb.mul(&yb).mul(&c)
        } else {
            xb.mul(&c)
        };
        // Denominators Z̄^y_odd·B and Z̄^(1+x_odd)·E.
        let (dy, dx) = match &zb {
            None => (b, e),
            Some(z) => {
                let dy = if self.y_odd { z.mul(&b) } else { b };
                let dx = match (self.x_odd, &vpow[1]) {
                    (true, Some(v)) => v.mul(&e),
                    _ => z.mul(&e),
                };
                (dy, dx)
            }
        };
        ExtendedPoint {
            x: nx.mul(&dy),
            y: ny.mul(&dx),
            z: dx.mul(&dy),
            ta: nx,
            tb: ny,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::{record, tally, Counted};
    use crate::decompose::{decompose, DIGITS};
    use crate::engine::normalize;
    use crate::glv_consts::{BASIS, BIAS, ELL, LAMBDA7, LAMBDA8, OFFSET, PSI7, PSI8};
    use crate::params::{COFACTOR, ORDER};
    use crate::AffinePoint;
    use fourq_fp::{Scalar, U256};

    /// Deterministic on-curve points, cofactor not cleared.
    fn points(seed: u64, n: usize) -> Vec<AffinePoint> {
        let mut state = seed;
        let mut out = Vec::new();
        while out.len() < n {
            let mut bytes = [0u8; 32];
            for b in bytes.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (state >> 56) as u8;
            }
            bytes[15] &= 0x7f; // canonical real component
            if let Ok(p) = AffinePoint::decode(&bytes) {
                out.push(p);
            }
        }
        out
    }

    fn image<const L: usize>(m: &Endomorphism<L>, p: &AffinePoint, affine: bool) -> AffinePoint {
        let one = Fp2::ONE;
        let lifted = m.lift(|c| c);
        // A projective representative with Z ≠ 1 exercises the homogenised path.
        let z = if affine { one } else { Fp2::from(7u64) };
        let ext = ExtendedPoint {
            x: p.x * z,
            y: p.y * z,
            z,
            ta: p.x * z,
            tb: p.y,
        };
        let (x, y) = normalize(&lifted.apply(&ext, &one, affine));
        AffinePoint { x, y }
    }

    fn psi7(p: &AffinePoint) -> AffinePoint {
        image(&PSI7, p, true)
    }

    fn psi8(p: &AffinePoint) -> AffinePoint {
        image(&PSI8, p, true)
    }

    /// `[x₀]P + [x₁]ψ₇P + [x₂]ψ₈P + [x₃]ψ₇ψ₈P` for signed coefficients.
    fn combine(x: &[i128; 4], p: &AffinePoint) -> AffinePoint {
        let imgs = [*p, psi7(p), psi8(p), psi7(&psi8(p))];
        imgs.iter()
            .zip(x)
            .fold(AffinePoint::identity(), |acc, (q, &c)| {
                let q = if c < 0 { q.neg() } else { *q };
                acc.add(&q.mul_u256_generic(&U256::from_u128(c.unsigned_abs())))
            })
    }

    /// `[M, S, A, conj]` of one map evaluation.
    fn cost<const L: usize>(
        m: &Endomorphism<L>,
        p: &ExtendedPoint<Counted>,
        affine: bool,
    ) -> [usize; 4] {
        let lifted = m.lift(Counted::new);
        let one = Counted::new(Fp2::ONE);
        tally(&record(|| lifted.apply(p, &one, affine)).1)
    }

    #[test]
    fn map_costs_match_the_setup_budget() {
        let g = AffinePoint::generator();
        let c = Counted::new;
        let p = ExtendedPoint::from_affine(&c(g.x), &c(g.y), &c(Fp2::ONE));
        assert_eq!(cost(&PSI8, &p, true), [18, 1, 14, 2], "ψ₈ from affine");
        assert_eq!(cost(&PSI7, &p, true), [15, 1, 12, 2], "ψ₇ from affine");
        assert_eq!(cost(&PSI7, &p, false), [31, 2, 12, 3], "ψ₇ from projective");
    }

    #[test]
    fn maps_are_lambda_on_the_subgroup() {
        for p in points(1, 3) {
            let p = p.clear_cofactor();
            assert_eq!(psi7(&p), p.mul_u256_generic(&LAMBDA7));
            assert_eq!(psi8(&p), p.mul_u256_generic(&LAMBDA8));
            assert_eq!(image(&PSI7, &p, false), psi7(&p), "projective path");
            assert_eq!(image(&PSI8, &p, false), psi8(&p), "projective path");
        }
    }

    #[test]
    fn maps_are_endomorphisms_of_the_whole_group() {
        let pts = points(2, 6);
        for pair in pts.chunks(2) {
            let (p, q) = (pair[0], pair[1]);
            assert!(
                !p.mul_u256_generic(&ORDER).is_identity(),
                "cofactor not cleared"
            );
            for f in [psi7, psi8] {
                assert!(f(&p).is_on_curve());
                assert_eq!(f(&p.add(&q)), f(&p).add(&f(&q)), "additive");
            }
            assert_eq!(image(&PSI7, &p, false), psi7(&p), "projective path");
            assert_eq!(psi7(&psi8(&p)), psi8(&psi7(&p)), "the maps commute");
        }
    }

    #[test]
    fn basis_rows_and_offset_kill_every_point() {
        for p in points(3, 2) {
            for row in BASIS.iter().chain([&OFFSET]) {
                assert!(combine(row, &p).is_identity(), "{row:x?}");
            }
        }
    }

    /// `x` as a scalar mod `N` (signed input).
    fn scalar(x: i128) -> Scalar {
        let s = Scalar::from_u256(U256::from_u128(x.unsigned_abs()));
        if x < 0 {
            -s
        } else {
            s
        }
    }

    #[test]
    fn basis_determinant_is_392_n() {
        // det ≡ 0 (mod N) and det ≡ ±392·N (mod 2^128); with |det| below
        // the Hadamard bound < 2^300 and 2^128·N > 2^373 that pins it.
        let (mut mod_n, mut low) = (Scalar::ZERO, 0u128);
        for (perm, odd) in permutations() {
            let entries = perm.iter().enumerate().map(|(i, &j)| BASIS[i][j]);
            let term_n = entries.clone().fold(Scalar::ONE, |t, v| t * scalar(v));
            let term_low = entries.fold(1u128, |t, v| t.wrapping_mul(v as u128));
            if odd {
                mod_n = mod_n - term_n;
                low = low.wrapping_sub(term_low);
            } else {
                mod_n = mod_n + term_n;
                low = low.wrapping_add(term_low);
            }
        }
        assert!(mod_n.is_zero());
        let n = ORDER.0[0] as u128 | (ORDER.0[1] as u128) << 64;
        let target = n.wrapping_mul(COFACTOR as u128);
        assert!(low == target || low == target.wrapping_neg());
        let hadamard: f64 = BASIS
            .iter()
            .map(|r| r.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt())
            .product();
        assert!(hadamard < 2f64.powi(300));
    }

    /// The 24 permutations of 0..4 with their parity.
    fn permutations() -> Vec<([usize; 4], bool)> {
        (0..256usize)
            .map(|n| [n & 3, (n >> 2) & 3, (n >> 4) & 3, n >> 6])
            .filter(|p| (0..4).all(|v| p.contains(&v)))
            .map(|p| {
                let inversions = (0..4)
                    .flat_map(|i| (i + 1..4).map(move |j| (i, j)))
                    .filter(|&(i, j)| p[i] > p[j])
                    .count();
                (p, inversions % 2 == 1)
            })
            .collect()
    }

    /// `a + b`, or `a − b` when `negate`, on 512-bit two's-complement
    /// words (exact here: every sum this file forms stays below 2^400).
    fn add512(a: [u64; 8], b: [u64; 8], negate: bool) -> [u64; 8] {
        let mut out = [0u64; 8];
        let mut carry = negate as u64;
        for i in 0..8 {
            let b = if negate { !b[i] } else { b[i] };
            let (s, c1) = a[i].overflowing_add(b);
            let (s, c2) = s.overflowing_add(carry);
            out[i] = s;
            carry = (c1 | c2) as u64;
        }
        out
    }

    /// A 512-bit two's-complement word that fits in `i128`.
    fn to_i128(r: [u64; 8]) -> Option<i128> {
        let negative = r[7] >> 63 == 1;
        let mag = if negative { add512([0; 8], r, true) } else { r };
        let v = mag[0] as i128 | (mag[1] as i128) << 64;
        (mag[2..].iter().all(|&l| l == 0) && v >= 0).then_some(if negative { -v } else { v })
    }

    #[test]
    fn rounding_bound_keeps_every_sub_scalar_in_range() {
        // a_j = OFFSET_j − (BIAS·B)_j/2^32 + (k/2^256)·R_j + Σ_i f_i·b_ij with
        // f_i ∈ [0, 1), k/2^256 < 2^-10 and R = 2^256·e₀ − ELL·B. All
        // bounds are in units of 2^-32. R is computed exactly from the
        // full 512-bit products, so an ELL entry that is right only mod
        // 2^256 (say, a negative ℓᵢ stored as its fractional part) fails.
        let limit = 1i128 << (DIGITS - 1);
        for j in 0..4 {
            let mut r = [0u64; 8];
            r[4] = (j == 0) as u64;
            for (ell, row) in ELL.iter().zip(&BASIS) {
                let prod = ell.widening_mul(&U256::from_u128(row[j].unsigned_abs()));
                r = add512(r, prod, row[j] >= 0);
            }
            let r = to_i128(r).expect("R fits in i128");
            assert!(r.unsigned_abs() < 1 << 70, "ELL inverts BASIS: R_{j} = {r}");
            let base = (OFFSET[j] << 32)
                - BASIS
                    .iter()
                    .zip(BIAS)
                    .map(|(row, b)| row[j] * b as i128)
                    .sum::<i128>();
            let neg: i128 = BASIS.iter().map(|row| row[j].min(0)).sum();
            let pos: i128 = BASIS.iter().map(|row| row[j].max(0)).sum();
            let lo = base + (r << 22).min(0) + (neg << 32);
            let hi = base + (r << 22).max(0) + (pos << 32);
            assert!(lo >= 0, "a_{j} can go negative");
            // a₀ needs room for the parity step's +1.
            assert!(
                hi < (limit - (j == 0) as i128) << 32,
                "a_{j} can reach 2^{}",
                DIGITS - 1
            );
        }
    }

    #[test]
    fn decomposition_is_exact_on_mixed_order_points() {
        let p = points(4, 1)[0];
        for k in [1u64, 2, 0xdead_beef] {
            let k = Scalar::from_u64(k);
            let d = decompose(&k);
            let a = d.limbs.map(|l| l as i128);
            let want = p.mul_u256_generic(&k.to_u256());
            let got = combine(&a, &p);
            let got = if d.corrected.to_bool_vartime() {
                got.add(&p.neg())
            } else {
                got
            };
            assert_eq!(got, want);
        }
    }
}
