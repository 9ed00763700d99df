//! Extended twisted Edwards coordinates, generic over the field
//! implementation.
//!
//! A point is `(X : Y : Z : Ta : Tb)` with `x = X/Z`, `y = Y/Z` and the
//! auxiliary product `T = Ta·Tb = X·Y/Z`. These are the coordinates used by
//! FourQ and by the paper's datapath; a doubling costs 7 multiplier-unit
//! operations (3M + 4S) and an addition with a precomputed point costs 8M —
//! together the 15 `F_p²` multiplications and 13 additions/subtractions per
//! loop iteration that the paper schedules in Table I. An addition with an
//! affine precomputed point ([`AffineCached`], the fixed-base comb's
//! entries) costs 7M.

use fourq_fp::{Choice, CtNegate, CtSelect, Fp2Like};

/// A projective point in extended twisted Edwards coordinates.
///
/// Generic over [`Fp2Like`]: instantiate with [`fourq_fp::Fp2`] to compute,
/// or with the tracer of `fourq-trace` to record microinstructions.
#[derive(Clone, Debug)]
pub struct ExtendedPoint<F> {
    /// Projective X.
    pub x: F,
    /// Projective Y.
    pub y: F,
    /// Projective Z.
    pub z: F,
    /// First factor of the auxiliary coordinate `T = Ta·Tb`.
    pub ta: F,
    /// Second factor of the auxiliary coordinate.
    pub tb: F,
}

/// A precomputed ("cached") point `(Y+X, Y−X, 2Z, 2dT)`.
///
/// This is exactly the representation of the table entries `T[u]` written
/// in step 2 of the paper's Algorithm 1.
#[derive(Clone, Debug)]
pub struct CachedPoint<F> {
    /// `Y + X`.
    pub y_plus_x: F,
    /// `Y − X`.
    pub y_minus_x: F,
    /// `2Z`.
    pub z2: F,
    /// `2dT`.
    pub t2d: F,
}

/// A precomputed affine point `(y+x, y−x, 2d·x·y)`: a [`CachedPoint`]
/// with `Z = 1`, one coordinate shorter, added by
/// [`ExtendedPoint::add_affine`] with one multiplication less.
#[derive(Clone, Debug)]
pub(crate) struct AffineCached<F> {
    /// `y + x`.
    pub(crate) y_plus_x: F,
    /// `y − x`.
    pub(crate) y_minus_x: F,
    /// `2d·x·y`.
    pub(crate) xy2d: F,
}

impl<F: Fp2Like> ExtendedPoint<F> {
    /// Lifts an affine point `(x, y)` (with `one` the lifted field unit).
    pub fn from_affine(x: &F, y: &F, one: &F) -> Self {
        ExtendedPoint {
            x: x.clone(),
            y: y.clone(),
            z: one.clone(),
            ta: x.clone(),
            tb: y.clone(),
        }
    }

    /// Point doubling: `3M + 4S + 7A` on the two datapath units.
    ///
    /// Derivation (a = −1 twisted Edwards, complete):
    /// `x₃ = 2XY / (Y²−X²)`, `y₃ = (Y²+X²) / (2Z²−Y²+X²)`.
    pub fn double(&self) -> Self {
        let a = self.x.sqr(); // X²
        let b = self.y.sqr(); // Y²
        let c = self.z.sqr(); // Z²
        let c2 = c.dbl(); // 2Z²
        let g = self.x.add(&self.y).sqr().sub(&a).sub(&b); // 2XY
        let d = b.sub(&a); // Y²−X²
        let e = b.add(&a); // Y²+X²
        let f = c2.sub(&d); // 2Z²−(Y²−X²)
        ExtendedPoint {
            x: g.mul(&f),
            y: e.mul(&d),
            z: d.mul(&f),
            ta: g,
            tb: e,
        }
    }

    /// Addition with a precomputed point: `8M + 6A`.
    ///
    /// Complete unified addition (add-2008-hwcd-3 shape for a = −1) using
    /// the cached representation.
    pub fn add_cached(&self, q: &CachedPoint<F>) -> Self {
        let t1 = self.ta.mul(&self.tb); // T₁ = X₁Y₁/Z₁
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = t1.mul(&q.t2d);
        let d = self.z.mul(&q.z2);
        let e = b.sub(&a);
        let h = b.add(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        ExtendedPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            ta: e,
            tb: h,
        }
    }

    /// Addition with an affine precomputed point (mixed addition):
    /// `7M + 7A`. It is [`ExtendedPoint::add_cached`] with `Z₂ = 1`, so
    /// `Z₁·2Z₂` is the addition `2Z₁`.
    pub(crate) fn add_affine(&self, q: &AffineCached<F>) -> Self {
        let t1 = self.ta.mul(&self.tb);
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = t1.mul(&q.xy2d);
        let d = self.z.dbl();
        let e = b.sub(&a);
        let h = b.add(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        ExtendedPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            ta: e,
            tb: h,
        }
    }

    /// Converts to the cached representation; costs 2M + 3A
    /// (`T = Ta·Tb`, then `2dT`).
    pub fn to_cached(&self, two_d: &F) -> CachedPoint<F> {
        let t = self.ta.mul(&self.tb);
        CachedPoint {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z2: self.z.dbl(),
            t2d: t.mul(two_d),
        }
    }

    /// Point negation `(−X, Y, Z, −Ta, Tb)`.
    pub fn neg(&self) -> Self {
        ExtendedPoint {
            x: self.x.neg(),
            y: self.y.clone(),
            z: self.z.clone(),
            ta: self.ta.neg(),
            tb: self.tb.clone(),
        }
    }
}

impl<F: Fp2Like> AffineCached<F> {
    /// Negation: swap `(y+x, y−x)`, negate `2dxy`.
    pub(crate) fn neg(&self) -> Self {
        AffineCached {
            y_plus_x: self.y_minus_x.clone(),
            y_minus_x: self.y_plus_x.clone(),
            xy2d: self.xy2d.neg(),
        }
    }
}

impl<F: Fp2Like> CachedPoint<F> {
    /// Negation of a cached point: swap `(Y+X, Y−X)`, negate `2dT`.
    ///
    /// This is how the engine realises `s_i · T[v_i]` with `s_i = −1` in the
    /// paper's Algorithm 1 (steps 5–9) without any extra table storage.
    pub fn neg(&self) -> Self {
        CachedPoint {
            y_plus_x: self.y_minus_x.clone(),
            y_minus_x: self.y_plus_x.clone(),
            z2: self.z2.clone(),
            t2d: self.t2d.neg(),
        }
    }
}

/// Componentwise masked selection: the software form of the table-entry
/// multiplexer in the paper's datapath. The engine scans every table slot
/// and lets the mask decide which operand survives, so the memory access
/// pattern never depends on the secret index.
impl<F: Fp2Like + CtSelect> CtSelect for CachedPoint<F> {
    fn ct_select(a: &Self, b: &Self, c: Choice) -> Self {
        CachedPoint {
            y_plus_x: F::ct_select(&a.y_plus_x, &b.y_plus_x, c),
            y_minus_x: F::ct_select(&a.y_minus_x, &b.y_minus_x, c),
            z2: F::ct_select(&a.z2, &b.z2, c),
            t2d: F::ct_select(&a.t2d, &b.t2d, c),
        }
    }
}

/// `s·T[v]` with `s = −1` as an always-computed negation and a select.
impl<F: Fp2Like + CtSelect> CtNegate for CachedPoint<F> {
    fn neg_value(&self) -> Self {
        self.neg()
    }
}

impl<F: Fp2Like + CtSelect> CtSelect for AffineCached<F> {
    fn ct_select(a: &Self, b: &Self, c: Choice) -> Self {
        AffineCached {
            y_plus_x: F::ct_select(&a.y_plus_x, &b.y_plus_x, c),
            y_minus_x: F::ct_select(&a.y_minus_x, &b.y_minus_x, c),
            xy2d: F::ct_select(&a.xy2d, &b.xy2d, c),
        }
    }
}

/// Negation as an always-computed value and a select.
impl<F: Fp2Like + CtSelect> CtNegate for AffineCached<F> {
    fn neg_value(&self) -> Self {
        self.neg()
    }
}
