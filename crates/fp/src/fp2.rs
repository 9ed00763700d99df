//! The quadratic extension field `F_p² = F_p(i)`, `i² = -1`.

use crate::fp::Fp;
use crate::traits::Fp2Like;
use core::fmt;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element `a0 + a1·i` of `F_p²`.
///
/// ```
/// use fourq_fp::{Fp, Fp2};
/// let i = Fp2::new(Fp::ZERO, Fp::ONE);
/// assert_eq!(i * i, -Fp2::one());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp2 {
    /// Real component.
    pub re: Fp,
    /// Imaginary component (coefficient of `i`).
    pub im: Fp,
}

impl Fp2 {
    /// The additive identity.
    pub const ZERO: Fp2 = Fp2 {
        re: Fp::ZERO,
        im: Fp::ZERO,
    };
    /// The multiplicative identity.
    pub const ONE: Fp2 = Fp2 {
        re: Fp::ONE,
        im: Fp::ZERO,
    };

    /// Builds an element from its components.
    #[inline]
    pub const fn new(re: Fp, im: Fp) -> Fp2 {
        Fp2 { re, im }
    }

    /// Returns `0`.
    #[inline]
    pub const fn zero() -> Fp2 {
        Fp2::ZERO
    }

    /// Returns `1`.
    #[inline]
    pub const fn one() -> Fp2 {
        Fp2::ONE
    }

    /// Builds `re + im·i` from two canonical `u128` representatives.
    pub const fn from_u128_pair(re: u128, im: u128) -> Fp2 {
        Fp2 {
            re: Fp::from_u128(re),
            im: Fp::from_u128(im),
        }
    }

    /// Whether the element is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.re.is_zero() && self.im.is_zero()
    }

    /// Complex conjugate `a0 - a1·i` (the `p`-power Frobenius of `F_p²`).
    #[inline]
    pub fn conj(&self) -> Fp2 {
        Fp2::new(self.re, -self.im)
    }

    /// Field norm `a0² + a1² ∈ F_p` (as an `F_p²` element with zero
    /// imaginary part it equals `self · self.conj()`).
    ///
    /// Both squares are summed unreduced in one [`crate::Wide`]
    /// (at most `2p² < 2^255`) and reduced once.
    #[inline]
    pub fn norm(&self) -> Fp {
        self.re
            .widening_square()
            .add(self.im.widening_square())
            .reduce()
    }

    /// Schoolbook multiplication: 4 `F_p` multiplications, eager reduction.
    #[inline]
    pub fn mul_schoolbook(&self, rhs: &Fp2) -> Fp2 {
        let a0b0 = self.re * rhs.re;
        let a1b1 = self.im * rhs.im;
        let a0b1 = self.re * rhs.im;
        let a1b0 = self.im * rhs.re;
        Fp2::new(a0b0 - a1b1, a0b1 + a1b0)
    }

    /// Karatsuba multiplication with lazy reduction — the paper's
    /// Algorithm 2 and the datapath of Fig. 1(b).
    ///
    /// Three full-width base-field products are formed (`t0 = x0·y0`,
    /// `t1 = x1·y1`, `t6 = (x0+x1)(y0+y1)`); the real part is the lazily
    /// reduced `t0 - t1`, the imaginary part the lazily reduced
    /// `t6 - (t0 + t1)`. The sums `x0+x1` and `y0+y1` enter the multiplier
    /// folded into `[0, p]` but not made canonical, so every product stays
    /// below `2^254`; each output is one two-fold [`crate::Wide::reduce`].
    #[inline]
    pub fn mul_karatsuba(&self, rhs: &Fp2) -> Fp2 {
        let t0 = self.re.widening_mul(rhs.re);
        let t1 = self.im.widening_mul(rhs.im);
        let t2 = self.re + self.im;
        let t3 = rhs.re + rhs.im;
        let t6 = t2.widening_mul(t3);
        let t4 = t0.sub_mod_p(t1); // x0y0 - x1y1   (lazy, offset keeps it ≥ 0)
        let t5 = t0.add(t1);
        let t8 = t6.sub_mod_p(t5); // (x0+x1)(y0+y1) - x0y0 - x1y1
        Fp2::new(t4.reduce(), t8.reduce())
    }

    /// Squaring, using the complex-squaring shortcut:
    /// `(a0+a1i)² = (a0+a1)(a0-a1) + 2a0a1·i` — 2 `F_p` multiplications.
    /// `a0+a1`, `a0-a1` and `2a0` are each one fold into `[0, p]`, and each
    /// product is one more.
    #[inline]
    pub fn square(&self) -> Fp2 {
        let t0 = self.re + self.im;
        let t1 = self.re - self.im;
        let t2 = self.re.double();
        Fp2::new(t0 * t1, t2 * self.im)
    }

    /// Doubles the element.
    #[inline]
    pub fn double(&self) -> Fp2 {
        Fp2::new(self.re.double(), self.im.double())
    }

    /// Multiplicative inverse: `conj(x) / norm(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn inv(&self) -> Fp2 {
        // ct: allow(R5) reason="documented domain-error panic; zero has no inverse"
        assert!(!self.is_zero(), "inverse of zero in F_p^2");
        let n_inv = self.norm().inv();
        Fp2::new(self.re * n_inv, -self.im * n_inv)
    }

    /// Montgomery batch inversion: inverts `n` elements with **one** real
    /// field inversion plus `3(n−1)` multiplications — the amortisation
    /// the batch-normalisation pipeline is built on (one `Fp2::inv` costs
    /// ~61 `fp2_mul`, so the per-element cost collapses for large `n`).
    ///
    /// Zero entries are handled without data-dependent branches: each zero
    /// is swapped for `1` in the running product via `ct_select` and its
    /// output slot is masked back to zero, so zeros invert to zero and the
    /// batch never panics.
    pub fn batch_invert(xs: &[Fp2]) -> Vec<Fp2> {
        use crate::traits::{CtEq, CtSelect};
        if xs.is_empty() {
            return Vec::new();
        }
        // Forward: prefix products, each zero masked to one.
        let mut prefix = Vec::with_capacity(xs.len());
        let mut acc = Fp2::ONE;
        for x in xs {
            prefix.push(acc);
            acc *= Fp2::ct_select(x, &Fp2::ONE, x.ct_eq(&Fp2::ZERO));
        }
        // One real inversion of the (nonzero) full product, then backward.
        let mut inv = acc.inv();
        let mut out = vec![Fp2::ZERO; xs.len()];
        for (i, x) in xs.iter().enumerate().rev() {
            let is_zero = x.ct_eq(&Fp2::ZERO);
            let xi_inv = inv * prefix[i];
            inv *= Fp2::ct_select(x, &Fp2::ONE, is_zero);
            out[i] = Fp2::ct_select(&xi_inv, &Fp2::ZERO, is_zero);
        }
        out
    }

    /// Raises to the power `e` (128-bit exponent).
    pub fn pow(&self, e: u128) -> Fp2 {
        if e == 0 {
            return Fp2::ONE;
        }
        let mut acc = Fp2::ONE;
        let bits = 128 - e.leading_zeros();
        for i in (0..bits).rev() {
            acc = acc.square();
            if (e >> i) & 1 == 1 {
                acc *= *self;
            }
        }
        acc
    }

    /// Square root in `F_p²`, if one exists.
    ///
    /// Reduces to two square roots in `F_p` via the norm map: if
    /// `x = a + bi` and `x = (c + di)²` then `c² = (a + √(a²+b²))/2` for one
    /// choice of the sign of the norm root, and `d = b/(2c)`.
    pub fn sqrt(&self) -> Option<Fp2> {
        if self.is_zero() {
            return Some(Fp2::ZERO);
        }
        let n = self.norm();
        let sn = n.sqrt()?;
        let half = Fp::from_u64(2).inv();
        for s in [sn, -sn] {
            let t = (self.re + s) * half;
            if let Some(c) = t.sqrt() {
                if c.is_zero() {
                    // x = -k^2 for k in Fp: root is k·i when b = 0.
                    if self.im.is_zero() {
                        if let Some(k) = (-self.re).sqrt() {
                            let cand = Fp2::new(Fp::ZERO, k);
                            if cand.square() == *self {
                                return Some(cand);
                            }
                        }
                    }
                    continue;
                }
                let d = self.im * (c.double()).inv();
                let cand = Fp2::new(c, d);
                if cand.square() == *self {
                    return Some(cand);
                }
            }
        }
        None
    }

    /// Little-endian 32-byte encoding (`re` then `im`).
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&self.re.to_bytes());
        out[16..].copy_from_slice(&self.im.to_bytes());
        out
    }

    /// Parses the little-endian 32-byte encoding produced by
    /// [`Fp2::to_bytes`], folding each component modulo `p`.
    pub fn from_bytes(bytes: &[u8; 32]) -> Fp2 {
        let mut re = [0u8; 16];
        let mut im = [0u8; 16];
        re.copy_from_slice(&bytes[..16]);
        im.copy_from_slice(&bytes[16..]);
        Fp2::new(Fp::from_bytes(&re), Fp::from_bytes(&im))
    }
}

impl Add for Fp2 {
    type Output = Fp2;
    #[inline]
    fn add(self, rhs: Fp2) -> Fp2 {
        Fp2::new(self.re + rhs.re, self.im + rhs.im)
    }
}
impl AddAssign for Fp2 {
    #[inline]
    fn add_assign(&mut self, rhs: Fp2) {
        *self = *self + rhs;
    }
}
impl Sub for Fp2 {
    type Output = Fp2;
    #[inline]
    fn sub(self, rhs: Fp2) -> Fp2 {
        Fp2::new(self.re - rhs.re, self.im - rhs.im)
    }
}
impl SubAssign for Fp2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Fp2) {
        *self = *self - rhs;
    }
}
/// `*` is the Karatsuba multiplier, the faster of the two in the
/// `fp2_mul` benchmark group; the schoolbook one is the reference the
/// field property tests check it against.
impl Mul for Fp2 {
    type Output = Fp2;
    #[inline]
    fn mul(self, rhs: Fp2) -> Fp2 {
        self.mul_karatsuba(&rhs)
    }
}
impl MulAssign for Fp2 {
    #[inline]
    fn mul_assign(&mut self, rhs: Fp2) {
        *self = *self * rhs;
    }
}
impl Neg for Fp2 {
    type Output = Fp2;
    #[inline]
    fn neg(self) -> Fp2 {
        Fp2::new(-self.re, -self.im)
    }
}

impl fmt::Debug for Fp2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp2({} + {}·i)", self.re, self.im)
    }
}
impl fmt::Display for Fp2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} + {}·i", self.re, self.im)
    }
}

impl From<u64> for Fp2 {
    fn from(v: u64) -> Fp2 {
        Fp2::new(Fp::from_u64(v), Fp::ZERO)
    }
}

impl Fp2Like for Fp2 {
    fn add(&self, rhs: &Self) -> Self {
        *self + *rhs
    }
    fn sub(&self, rhs: &Self) -> Self {
        *self - *rhs
    }
    fn mul(&self, rhs: &Self) -> Self {
        self.mul_karatsuba(rhs)
    }
    fn sqr(&self) -> Self {
        self.square()
    }
    fn neg(&self) -> Self {
        -*self
    }
    fn conj(&self) -> Self {
        Fp2::conj(self)
    }
    fn value(&self) -> Fp2 {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn el(re: u128, im: u128) -> Fp2 {
        Fp2::from_u128_pair(re, im)
    }

    #[test]
    fn i_squared_is_minus_one() {
        let i = el(0, 1);
        assert_eq!(i * i, -Fp2::ONE);
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        let cases = [
            (el(0, 0), el(5, 7)),
            (el(1, 2), el(3, 4)),
            (
                el((1 << 126) + 17, (1 << 125) + 3),
                el(u64::MAX as u128, 1 << 120),
            ),
        ];
        for (a, b) in cases {
            assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
        }
    }

    #[test]
    fn square_matches_mul() {
        let a = el((1 << 126) + 99, (1 << 100) + 3);
        assert_eq!(a.square(), a * a);
    }

    #[test]
    fn inversion() {
        let a = el(12345, 67890);
        assert_eq!(a * a.inv(), Fp2::ONE);
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_inverse_panics() {
        let _ = Fp2::ZERO.inv();
    }

    #[test]
    fn batch_invert_matches_individual() {
        let xs: Vec<Fp2> = (1u128..24).map(|v| el(v * 7919, v * 104729)).collect();
        let invs = Fp2::batch_invert(&xs);
        for (x, i) in xs.iter().zip(&invs) {
            assert_eq!(*i, x.inv());
        }
    }

    #[test]
    fn batch_invert_edge_cases() {
        // empty
        assert!(Fp2::batch_invert(&[]).is_empty());
        // size 1 matches inv()
        let a = el(12345, 67890);
        assert_eq!(Fp2::batch_invert(&[a]), vec![a.inv()]);
        // zeros map to zero without disturbing neighbours
        let b = el(31337, 0);
        let xs = [Fp2::ZERO, a, Fp2::ZERO, b];
        let invs = Fp2::batch_invert(&xs);
        assert_eq!(invs[0], Fp2::ZERO);
        assert_eq!(invs[2], Fp2::ZERO);
        assert_eq!(invs[1], a.inv());
        assert_eq!(invs[3], b.inv());
        // all zeros never panics
        assert!(Fp2::batch_invert(&[Fp2::ZERO; 4])
            .iter()
            .all(|v| *v == Fp2::ZERO));
    }

    #[test]
    fn conj_properties() {
        let a = el(111, 222);
        let b = el(333, 444);
        assert_eq!((a * b).conj(), a.conj() * b.conj());
        let n = a * a.conj();
        assert_eq!(n.im, Fp::ZERO);
        assert_eq!(n.re, a.norm());
    }

    #[test]
    fn sqrt_roundtrip() {
        for seed in 1u64..20 {
            let a = el(seed as u128 * 7919, seed as u128 * 104729);
            let sq = a.square();
            let r = sq.sqrt().expect("squares have roots");
            assert!(r == a || r == -a, "seed {seed}");
        }
    }

    #[test]
    fn sqrt_of_pure_negative_real() {
        // -(k^2) with zero imaginary part: root is k·i.
        let k = Fp::from_u64(42);
        let x = Fp2::new(-(k * k), Fp::ZERO);
        let r = x.sqrt().expect("root exists");
        assert_eq!(r.square(), x);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = el((1 << 126) - 1, 123456789);
        assert_eq!(Fp2::from_bytes(&a.to_bytes()), a);
    }

    #[test]
    fn pow_agrees_with_repeated_mul() {
        let a = el(9, 11);
        let mut acc = Fp2::ONE;
        for _ in 0..13 {
            acc *= a;
        }
        assert_eq!(a.pow(13), acc);
    }
}
