//! Seeded input generation. Every input the benchmark hands the program
//! comes from one [`Rng`] stream per section, so a seed fixes the inputs.

use fourq_fp::Scalar;
use fourq_testkit::splitmix64;

/// A splitmix64 stream: small, fast and good enough to draw benchmark
/// inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from the other sections' streams by
    /// `domain` so adding a section never shifts another one's inputs.
    pub fn new(seed: u64, domain: u64) -> Rng {
        let mut r = Rng(seed ^ domain.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    pub fn bytes32(&mut self) -> [u8; 32] {
        let mut b = [0u8; 32];
        for chunk in b.chunks_exact_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        b
    }

    /// A uniformly drawn nonzero scalar (reduced mod N).
    pub fn scalar(&mut self) -> Scalar {
        loop {
            let k = Scalar::from_le_bytes(&self.bytes32());
            if !k.is_zero() {
                return k;
            }
        }
    }
}

/// Section domains for [`Rng::new`].
pub const LIB: u64 = 1;
pub const SERVE: u64 = 2;
pub const ASIC: u64 = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        let draw = |seed| {
            let mut r = Rng::new(seed, LIB);
            (r.bytes32(), r.scalar(), r.next_u64())
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut a = Rng::new(7, LIB);
        let mut b = Rng::new(7, SERVE);
        assert_ne!(a.next_u64(), b.next_u64(), "domains must separate streams");
    }
}
