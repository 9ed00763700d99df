//! Zero built by arithmetic may be stored as `p`, the second representative
//! of zero in `[0, p]`. Every way a value leaves the field must still show
//! canonical zero: `to_u128`, `to_bytes`, `is_zero`, `==`, hashing,
//! constant-time equality and formatting, and `batch_invert`'s zero masking.

use fourq_fp::{CtEq, Fp, Fp2};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Zero reached by subtraction, negation, addition of opposites and a
/// product with a zero factor.
#[allow(clippy::eq_op)] // x − x is the zero under test
fn fp_zeros() -> Vec<Fp> {
    let a = Fp::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
    let b = Fp::from_u128((1 << 126) + 12345);
    vec![
        a - a,
        -Fp::ZERO,
        Fp::ZERO - Fp::ZERO,
        a + (-a),
        (b - b) * Fp::ONE,
        (a - a) * b,
        (a - a).square(),
    ]
}

#[allow(clippy::eq_op)] // x − x is the zero under test
fn fp2_zeros() -> Vec<Fp2> {
    let x = Fp2::new(
        Fp::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677),
        Fp::from_u128((1 << 126) + 12345),
    );
    let mut out = vec![x - x, -Fp2::ZERO, Fp2::ZERO - Fp2::ZERO, x + (-x)];
    for z in fp_zeros() {
        out.push(Fp2::new(z, Fp::ZERO));
        out.push(Fp2::new(Fp::ZERO, z));
        out.push(Fp2::new(z, z));
    }
    out
}

#[test]
fn fp_arithmetic_zero_leaves_as_canonical_zero() {
    for z in fp_zeros() {
        assert_eq!(z.to_u128(), 0, "{z:?}");
        assert_eq!(z.to_bytes(), [0u8; 16], "{z:?}");
        assert!(z.is_zero(), "{z:?}");
        assert_eq!(z, Fp::ZERO);
        assert_eq!(hash_of(&z), hash_of(&Fp::ZERO), "{z:?}");
        assert!(z.ct_eq(&Fp::ZERO).to_bool_vartime(), "{z:?}");
        assert_eq!(
            format!("{z:?} {z} {z:x}"),
            format!("{0:?} {0} {0:x}", Fp::ZERO)
        );
    }
}

#[test]
fn fp2_arithmetic_zero_leaves_as_canonical_zero() {
    for z in fp2_zeros() {
        assert_eq!((z.re.to_u128(), z.im.to_u128()), (0, 0), "{z:?}");
        assert_eq!(z.to_bytes(), [0u8; 32], "{z:?}");
        assert!(z.is_zero(), "{z:?}");
        assert_eq!(z, Fp2::ZERO);
        assert_eq!(hash_of(&z), hash_of(&Fp2::ZERO), "{z:?}");
        assert!(z.ct_eq(&Fp2::ZERO).to_bool_vartime(), "{z:?}");
        assert_eq!(format!("{z:?}"), format!("{:?}", Fp2::ZERO));
    }
}

#[test]
fn batch_invert_maps_arithmetic_zero_to_zero() {
    let a = Fp2::new(Fp::from_u64(12345), Fp::from_u64(67890));
    let b = Fp2::new(Fp::from_u64(31337), Fp::from_u64(2));
    for z in fp2_zeros() {
        let out = Fp2::batch_invert(&[z, a, z, b, z]);
        assert_eq!(out, [Fp2::ZERO, a.inv(), Fp2::ZERO, b.inv(), Fp2::ZERO]);
        assert_eq!(out[0].to_bytes(), [0u8; 32], "{z:?}");
    }
}
