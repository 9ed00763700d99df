//! Per-type random-value generators, the replacement for proptest's
//! `Strategy`/`any::<T>()` machinery.
//!
//! A type implements [`Arbitrary`] by drawing itself from a [`TestRng`];
//! the [`prop_check!`](crate::prop_check) macro calls these to materialise
//! its typed arguments. Implementations exist for the primitive types the
//! old proptest suites used plus the workspace's core domain types:
//! [`Fp`], [`Fp2`], [`U256`], [`Scalar`], and curve points.

use crate::rng::TestRng;
use fourq_curve::AffinePoint;
use fourq_fp::{Fp, Fp2, Scalar, U256};

/// Types that can be generated uniformly (over their natural input
/// domain) from a [`TestRng`].
pub trait Arbitrary {
    /// Draws one value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_bool()
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u16 {
    fn arbitrary(rng: &mut TestRng) -> u16 {
        rng.next_u64() as u16
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u32()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        rng.next_u128()
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

impl<const N: usize> Arbitrary for [u64; N] {
    fn arbitrary(rng: &mut TestRng) -> [u64; N] {
        let mut out = [0u64; N];
        rng.fill_u64(&mut out);
        out
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> [u8; N] {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
}

/// Uniform over the `from_u128` input domain (the reduction to canonical
/// form is part of what the field tests exercise).
impl Arbitrary for Fp {
    fn arbitrary(rng: &mut TestRng) -> Fp {
        Fp::from_u128(rng.next_u128())
    }
}

impl Arbitrary for Fp2 {
    fn arbitrary(rng: &mut TestRng) -> Fp2 {
        Fp2::new(Fp::arbitrary(rng), Fp::arbitrary(rng))
    }
}

/// Uniform over all 256-bit values — deliberately *not* reduced mod the
/// subgroup order, so reduction paths stay covered.
impl Arbitrary for U256 {
    fn arbitrary(rng: &mut TestRng) -> U256 {
        U256(<[u64; 4]>::arbitrary(rng))
    }
}

impl Arbitrary for Scalar {
    fn arbitrary(rng: &mut TestRng) -> Scalar {
        Scalar::from_u256(U256::arbitrary(rng))
    }
}

/// A uniformly distributed point of the prime-order subgroup, produced as
/// `[k]G` for a random scalar on the generator's cached table (fast
/// enough for property-test case counts).
impl Arbitrary for AffinePoint {
    fn arbitrary(rng: &mut TestRng) -> AffinePoint {
        fourq_curve::FourQEngine::shared()
            .generator_table()
            .mul(&Scalar::arbitrary(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_types_are_deterministic_per_seed() {
        let mut a = TestRng::from_seed(99);
        let mut b = TestRng::from_seed(99);
        assert_eq!(Fp::arbitrary(&mut a), Fp::arbitrary(&mut b));
        assert_eq!(Fp2::arbitrary(&mut a), Fp2::arbitrary(&mut b));
        assert_eq!(U256::arbitrary(&mut a), U256::arbitrary(&mut b));
        assert_eq!(Scalar::arbitrary(&mut a), Scalar::arbitrary(&mut b));
    }

    #[test]
    fn arbitrary_point_is_valid_subgroup_element() {
        let mut rng = TestRng::from_seed(5);
        let p = AffinePoint::arbitrary(&mut rng);
        assert!(p.is_on_curve());
        assert!(p.is_in_subgroup());
    }
}
