//! The repository's known-answer vectors, read at build time: [k]G for
//! 32 scalars through both the engine and the comb, and 8 Schnorr
//! signatures.

use fourq_bench::harness::json::{self, Value};
use fourq_curve::{AffinePoint, FourQEngine};
use fourq_fp::Scalar;
use fourq_sig::schnorr;
use fourq_testkit::hexutil;

const KAT: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/vectors/fourq_kat.json"
));

/// The entries of one section of the vector file.
fn entries(kats: &Value, section: &str) -> Vec<Value> {
    kats.as_object()
        .and_then(|o| o.get(section))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("KAT section {section} present"))
        .to_vec()
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("KAT field {key} present"))
}

fn bytes32(entry: &Value, key: &str) -> [u8; 32] {
    hexutil::decode_array::<32>(field(entry, key)).expect("KAT field is 32 bytes of hex")
}

/// Runs every vector; returns (passed, total).
pub fn check(eng: &FourQEngine) -> (u64, u64) {
    let kats = json::parse(KAT).expect("KAT file parses");
    let mut results = Vec::new();
    let g = AffinePoint::generator();
    for e in entries(&kats, "scalar_mul") {
        let k = Scalar::from_le_bytes(&bytes32(&e, "k"));
        let want = bytes32(&e, "kG");
        results.push(eng.scalar_mul(&g, &k).encode() == want);
        results.push(eng.fixed_base_mul(&k).encode() == want);
    }
    for e in entries(&kats, "schnorr") {
        let kp = schnorr::KeyPair::from_seed(&bytes32(&e, "seed"));
        let msg = field(&e, "msg").as_bytes();
        let sig = kp.sign(msg);
        results.push(
            kp.public.encoded == bytes32(&e, "public")
                && sig.r == bytes32(&e, "r")
                && sig.s.to_le_bytes() == bytes32(&e, "s")
                && schnorr::verify(&kp.public, msg, &sig),
        );
    }
    let ok = results.iter().filter(|r| **r).count() as u64;
    (ok, results.len() as u64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_vector_passes() {
        let (ok, total) = super::check(fourq_curve::FourQEngine::shared());
        assert_eq!((ok, total), (2 * 32 + 8, 2 * 32 + 8));
    }
}
