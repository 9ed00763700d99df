//! Multi-scalar multiplication and batch normalisation.
//!
//! ECDSA verification (paper §II-A, verification step 4) computes
//! `[u₁]G + [u₂]Q`. Doing the two multiplications jointly with the
//! Straus–Shamir trick halves the doubling work; this is the standard
//! optimisation a deployment of the paper's verifier would use.

use crate::affine::AffinePoint;
use crate::engine::identity;
use crate::extended::{CachedPoint, ExtendedPoint};
use crate::params::TWO_D;
use fourq_fp::{Fp2, Scalar, U256};

/// Computes `[a]P + [b]Q` with interleaved (Straus–Shamir) double-and-add:
/// one shared doubling chain and a 3-entry table `{P, Q, P+Q}`.
///
/// ```
/// use fourq_curve::{double_scalar_mul, AffinePoint};
/// use fourq_fp::Scalar;
/// let g = AffinePoint::generator();
/// let q = g.mul(&Scalar::from_u64(99));
/// let r = double_scalar_mul(&Scalar::from_u64(5), &g, &Scalar::from_u64(7), &q);
/// assert_eq!(r, g.mul(&Scalar::from_u64(5 + 7 * 99)));
/// ```
pub fn double_scalar_mul(a: &Scalar, p: &AffinePoint, b: &Scalar, q: &AffinePoint) -> AffinePoint {
    // Verifier-side: u₁/u₂ are derived from the (public) signature and
    // message, so variable-time double-and-add is fine here.
    let av = a.to_u256(); // ct: public — verification inputs are public by protocol
    let bv = b.to_u256(); // ct: public — verification inputs are public by protocol
    let bits = av.bits().max(bv.bits());
    if bits == 0 {
        return AffinePoint::identity();
    }
    // table entries in cached form: [P, Q, P+Q]
    let pe = ExtendedPoint::from_affine(&p.x, &p.y, &Fp2::ONE);
    let qe = ExtendedPoint::from_affine(&q.x, &q.y, &Fp2::ONE);
    let pc = pe.to_cached(&TWO_D);
    let qc = qe.to_cached(&TWO_D);
    let pq = pe.add_cached(&qc).to_cached(&TWO_D);

    let mut acc = identity(&Fp2::ONE);
    for i in (0..bits as usize).rev() {
        acc = acc.double();
        match (av.bit(i), bv.bit(i)) {
            (true, true) => acc = acc.add_cached(&pq),
            (true, false) => acc = acc.add_cached(&pc),
            (false, true) => acc = acc.add_cached(&qc),
            (false, false) => {}
        }
    }
    let (x, y) = crate::engine::normalize(&acc);
    AffinePoint { x, y }
}

/// Computes `Σ [k_i]P_i`, dispatching to the measured-fastest algorithm
/// for the batch size: Straus interleaving below [`PIPPENGER_THRESHOLD`]
/// points, bucketed Pippenger at or above it.
///
/// Used by batch signature verification; all inputs are public protocol
/// values, so both code paths are variable-time by design.
pub fn multi_scalar_mul(pairs: &[(Scalar, AffinePoint)]) -> AffinePoint {
    multi_scalar_mul_threaded(pairs, 1)
}

/// [`multi_scalar_mul`] with an explicit thread budget: the Pippenger
/// path distributes its window partials across up to `threads` workers
/// (see [`msm_pippenger_threaded`]); the Straus path (small batches) is
/// always sequential. Results are bit-identical at every thread count.
pub fn multi_scalar_mul_threaded(pairs: &[(Scalar, AffinePoint)], threads: usize) -> AffinePoint {
    // ct: allow(R1) reason="dispatch on the public batch size, not on scalar values"
    if pairs.len() >= PIPPENGER_THRESHOLD {
        msm_pippenger_threaded(pairs, threads)
    } else {
        msm_straus(pairs)
    }
}

/// Batch size at which [`msm_pippenger`] overtakes [`msm_straus`]: the
/// bucket aggregation is a fixed per-window cost (`~2·2^c` additions),
/// amortized away once enough points share it, while Straus pays an
/// expected `n/2` additions on every one of the 246 doubling steps.
pub const PIPPENGER_THRESHOLD: usize = 8;

/// `Σ [k_i]P_i` with a shared doubling chain (Straus interleaving, 1-bit
/// windows): one 246-step doubling chain total instead of one per point.
/// Cheapest shape for small batches, where Pippenger's per-window bucket
/// aggregation would dominate.
pub fn msm_straus(pairs: &[(Scalar, AffinePoint)]) -> AffinePoint {
    // Batch verification input: scalars are public signature components.
    let scalars: Vec<U256> = pairs.iter().map(|(k, _)| k.to_u256()).collect(); // ct: public — verification inputs
    let bits = scalars.iter().map(|s| s.bits()).max().unwrap_or(0);
    if bits == 0 {
        return AffinePoint::identity();
    }
    let cached: Vec<_> = pairs
        .iter()
        .map(|(_, p)| ExtendedPoint::from_affine(&p.x, &p.y, &Fp2::ONE).to_cached(&TWO_D))
        .collect(); // ct: public — verification points are public by protocol
    let mut acc = identity(&Fp2::ONE);
    for i in (0..bits as usize).rev() {
        acc = acc.double();
        for (s, c) in scalars.iter().zip(&cached) {
            if s.bit(i) {
                acc = acc.add_cached(c);
            }
        }
    }
    let (x, y) = crate::engine::normalize(&acc);
    AffinePoint { x, y }
}

/// Picks the Pippenger window width `c` minimising the estimated addition
/// count `n·⌈246/c⌉ + ⌈246/c⌉·2·2^c` for a batch of `n` points.
fn pippenger_window(n: usize) -> usize {
    match n {
        0..=15 => 4,
        16..=229 => 5,
        230..=799 => 6,
        _ => 7,
    }
}

/// `Σ [k_i]P_i` by the bucket (Pippenger) method.
///
/// The 246-bit scalars are cut into `⌈246/c⌉` windows of `c` bits. For
/// each window every point falls into the bucket of its digit (digit 0
/// skips — scalars shorter than the full width, e.g. 128-bit RLC
/// coefficients, therefore cost nothing in their empty upper windows),
/// and the window sum `Σ d·B_d` is recovered with the running-sum sweep
/// over the buckets. Per point this costs roughly `⌈246/c⌉` additions
/// regardless of batch size, versus `~123` expected additions per point
/// for 1-bit Straus — the crossover is near 8 points.
pub fn msm_pippenger(pairs: &[(Scalar, AffinePoint)]) -> AffinePoint {
    msm_pippenger_threaded(pairs, 1)
}

/// Smallest Pippenger batch worth going parallel: below this, a window
/// partial is so few bucket additions that thread spawn cost dominates
/// (measured crossover; see `DESIGN.md` §10).
const MSM_PAR_MIN_POINTS: usize = 48;

/// Windows per parallel work item. Fixed (thread-count-independent) so
/// the chunk tree — and therefore the reduction order — never changes.
const MSM_WINDOW_CHUNK: usize = 4;

/// The bucket accumulation + running-sum sweep for one `c`-bit window:
/// returns `Σ d·B_d` over this window's digits, in extended coordinates.
fn pippenger_window_sum(
    scalars: &[U256],
    lifted: &[ExtendedPoint<Fp2>],
    cached: &[CachedPoint<Fp2>],
    w: usize,
    c: usize,
) -> ExtendedPoint<Fp2> {
    let n_buckets = (1usize << c) - 1;
    let mut buckets: Vec<Option<ExtendedPoint<Fp2>>> = vec![None; n_buckets];
    for (i, s) in scalars.iter().enumerate() {
        let d = s.extract_bits(w * c, c) as usize;
        if d != 0 {
            buckets[d - 1] = Some(match buckets[d - 1].take() {
                Some(b) => b.add_cached(&cached[i]),
                None => lifted[i].clone(),
            });
        }
    }
    // Running-sum sweep: running = Σ_{e ≥ d} B_e after step d, and
    // Σ_d running_d = Σ d·B_d. Both accumulators stay in extended
    // coordinates; empty buckets only skip the `running` update.
    let mut running = identity(&Fp2::ONE);
    let mut window_sum = identity(&Fp2::ONE);
    let mut any = false;
    for b in buckets.iter().rev() {
        if let Some(b) = b {
            running = running.add_cached(&b.to_cached(&TWO_D));
            any = true;
        }
        if any {
            window_sum = window_sum.add_cached(&running.to_cached(&TWO_D));
        }
    }
    window_sum
}

/// [`msm_pippenger`] with an explicit thread budget.
///
/// Every window's bucket accumulation is independent of every other
/// window's, so the windows are the parallel axis: workers compute
/// window partials over fixed index ranges of `MSM_WINDOW_CHUNK` (4)
/// windows, and the calling thread folds the partials high-to-low through
/// the shared doubling chain (`acc ← [2^c]acc + partial_w`) — a reduction
/// whose order is fixed by the window index, not by thread scheduling.
/// Affine outputs are canonical, so results are bit-identical to the
/// sequential path at every thread count.
pub fn msm_pippenger_threaded(pairs: &[(Scalar, AffinePoint)], threads: usize) -> AffinePoint {
    // Batch verification input: scalars and points are public signature
    // components, so the digit-driven skips below are deliberate.
    let scalars: Vec<U256> = pairs.iter().map(|(k, _)| k.to_u256()).collect(); // ct: public — verification inputs
    let c = pippenger_window(pairs.len()); // ct: public — window width derives from the public batch size
    let windows = 246usize.div_ceil(c);

    // Lift every point once; bucket insertion uses the cached form.
    let lifted: Vec<ExtendedPoint<Fp2>> = pairs
        .iter()
        .map(|(_, p)| ExtendedPoint::from_affine(&p.x, &p.y, &Fp2::ONE))
        .collect(); // ct: public — verification points are public by protocol
    let cached: Vec<_> = lifted.iter().map(|e| e.to_cached(&TWO_D)).collect();

    let window_ids: Vec<usize> = (0..windows).collect();
    let workers = if pairs.len() >= MSM_PAR_MIN_POINTS {
        threads
    } else {
        1
    };
    let partials = fourq_pool::map_items(&window_ids, MSM_WINDOW_CHUNK, workers, |_, &w| {
        pippenger_window_sum(&scalars, &lifted, &cached, w, c)
    });

    // Fold the partials through the shared doubling chain, high window
    // first — the same `acc ← [2^c]acc + Σ d·B_d` recurrence the fused
    // sequential loop performs.
    let mut acc = identity(&Fp2::ONE);
    for partial in partials.iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc = acc.add_cached(&partial.to_cached(&TWO_D));
    }
    let (x, y) = crate::engine::normalize(&acc);
    AffinePoint { x, y }
}

/// Montgomery's batch-inversion trick: normalises many projective points
/// with a single field inversion plus `3(n−1)` multiplications (all the
/// `Z` products run through [`Fp2::batch_invert`]).
///
/// Returns an empty vector for empty input.
///
/// # Panics
///
/// Panics if any point has `Z = 0` (the complete Edwards formulas never
/// produce one).
pub fn batch_normalize(points: &[ExtendedPoint<Fp2>]) -> Vec<AffinePoint> {
    batch_normalize_threaded(points, 1)
}

/// Fixed chunk size of the parallel batch inversion. Per-item work in
/// the forward/backward passes is a handful of `fp2_mul` (~20 ns each),
/// so chunks must be large for a chunk to amortise thread spawn cost;
/// batches at or below one chunk stay on the sequential single-inversion
/// path (measured crossover; see `DESIGN.md` §10).
const INVERT_CHUNK: usize = 1024;

/// [`batch_normalize`] with an explicit thread budget: the Montgomery
/// inversion runs as per-chunk prefix/backward passes
/// ([`Fp2::prefix_products`] / [`Fp2::backward_invert_chunk`]) in
/// parallel, merged at the join by a sequential chunk-product tree in
/// chunk-index order. One real field inversion total, at any thread
/// count, with bit-identical outputs.
pub fn batch_normalize_threaded(points: &[ExtendedPoint<Fp2>], threads: usize) -> Vec<AffinePoint> {
    if points.is_empty() {
        return Vec::new();
    }
    let zs: Vec<Fp2> = points
        .iter()
        .map(|p| {
            // ct: allow(R5) reason="documented panic on Z = 0; inputs are public verifier points"
            assert!(!p.z.is_zero(), "projective Z must be nonzero");
            p.z
        })
        .collect();
    let zinvs = batch_invert_threaded(&zs, threads);
    let pairs_out = fourq_pool::map_chunks(points, INVERT_CHUNK, threads, |j, chunk| {
        let base = j * INVERT_CHUNK;
        chunk
            .iter()
            .enumerate()
            .map(|(i, p)| AffinePoint {
                x: p.x * zinvs[base + i],
                y: p.y * zinvs[base + i],
            })
            .collect::<Vec<AffinePoint>>()
    });
    pairs_out.concat()
}

/// Chunked-parallel [`Fp2::batch_invert`]: forward passes per fixed
/// [`INVERT_CHUNK`]-index range in parallel, sequential merge of the
/// chunk products (leads and tail inverses, one real inversion),
/// backward passes in parallel.
fn batch_invert_threaded(zs: &[Fp2], threads: usize) -> Vec<Fp2> {
    if threads <= 1 || zs.len() <= INVERT_CHUNK {
        return Fp2::batch_invert(zs);
    }
    let parts = fourq_pool::map_chunks(zs, INVERT_CHUNK, threads, |_, chunk| {
        Fp2::prefix_products(chunk)
    });
    // Join: chunk-prefix products ("leads") forward, then one inversion
    // of the total, then chunk-tail inverses backward — both in fixed
    // chunk order.
    let mut leads = Vec::with_capacity(parts.len());
    let mut acc = Fp2::ONE;
    for (_, product) in &parts {
        leads.push(acc);
        acc *= *product;
    }
    let mut tails = vec![Fp2::ZERO; parts.len()];
    let mut inv = acc.inv();
    for (j, (_, product)) in parts.iter().enumerate().rev() {
        tails[j] = inv;
        inv *= *product;
    }
    let outs = fourq_pool::map_chunks(zs, INVERT_CHUNK, threads, |j, chunk| {
        Fp2::backward_invert_chunk(chunk, &parts[j].0, &leads[j], &tails[j])
    });
    outs.concat()
}

/// Computes `[k]P` for an arbitrary (not reduced) 256-bit `k` with a
/// 4-bit fixed window — a second independent scalar-multiplication
/// algorithm used to cross-check the main pipeline in tests.
pub fn window_scalar_mul(k: &U256, p: &AffinePoint) -> AffinePoint {
    let bits = k.bits();
    if bits == 0 || p.is_identity() {
        return AffinePoint::identity();
    }
    // table[j] = [j]P for j in 1..16, cached
    let pe = ExtendedPoint::from_affine(&p.x, &p.y, &Fp2::ONE);
    let pc = pe.to_cached(&TWO_D);
    let mut table = Vec::with_capacity(15);
    table.push(pe.clone()); // [1]P
    for _ in 1..15 {
        // ct: allow(R5) reason="table starts with one entry; last() cannot be None"
        let prev = table.last().expect("non-empty");
        table.push(prev.add_cached(&pc));
    }
    let cached: Vec<_> = table.iter().map(|e| e.to_cached(&TWO_D)).collect();

    let windows = bits.div_ceil(4) as usize;
    let mut acc = identity(&Fp2::ONE);
    for w in (0..windows).rev() {
        for _ in 0..4 {
            acc = acc.double();
        }
        let digit = k.extract_bits(w * 4, 4) as usize;
        if digit != 0 {
            acc = acc.add_cached(&cached[digit - 1]);
        }
    }
    let (x, y) = crate::engine::normalize(&acc);
    AffinePoint { x, y }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_scalar_matches_separate() {
        let g = AffinePoint::generator();
        let q = g.mul(&Scalar::from_u64(31415926));
        for (a, b) in [(1u64, 1u64), (5, 7), (0, 9), (9, 0), (u64::MAX, 2)] {
            let a = Scalar::from_u64(a);
            let b = Scalar::from_u64(b);
            let joint = double_scalar_mul(&a, &g, &b, &q);
            let separate = g.mul(&a).add(&q.mul(&b));
            assert_eq!(joint, separate);
        }
    }

    #[test]
    fn double_scalar_zero_zero() {
        let g = AffinePoint::generator();
        let r = double_scalar_mul(&Scalar::ZERO, &g, &Scalar::ZERO, &g);
        assert!(r.is_identity());
    }

    #[test]
    fn window_mul_matches_pipeline() {
        let g = AffinePoint::generator();
        for v in [1u64, 2, 15, 16, 17, 0xffff_0000_1111_2223] {
            let k = Scalar::from_u64(v);
            assert_eq!(window_scalar_mul(&k.to_u256(), &g), g.mul(&k), "v={v}");
        }
    }

    #[test]
    fn batch_normalize_matches_individual() {
        let g = AffinePoint::generator();
        let pts: Vec<ExtendedPoint<Fp2>> = (1u64..9)
            .map(|i| {
                let p = g.mul(&Scalar::from_u64(i));
                let e = ExtendedPoint::from_affine(&p.x, &p.y, &Fp2::ONE);
                // un-normalise deliberately by doubling (Z ≠ 1)
                e.double()
            })
            .collect();
        let batch = batch_normalize(&pts);
        for (i, b) in batch.iter().enumerate() {
            let expect = g.mul(&Scalar::from_u64(2 * (i as u64 + 1)));
            assert_eq!(*b, expect, "i = {i}");
        }
    }

    #[test]
    fn multi_scalar_mul_matches_sum() {
        let g = AffinePoint::generator();
        let pairs: Vec<(Scalar, AffinePoint)> = (1u64..6)
            .map(|i| (Scalar::from_u64(i * 17 + 3), g.mul(&Scalar::from_u64(i))))
            .collect();
        let msm = multi_scalar_mul(&pairs);
        let mut expect = AffinePoint::identity();
        for (k, p) in &pairs {
            expect = expect.add(&p.mul(k));
        }
        assert_eq!(msm, expect);
    }

    #[test]
    fn pippenger_matches_straus() {
        let g = AffinePoint::generator();
        // Cover sizes straddling the dispatch threshold.
        for n in [1usize, 2, 7, 8, 9, 13] {
            let pairs: Vec<(Scalar, AffinePoint)> = (0..n as u64)
                .map(|i| {
                    (
                        Scalar::from_u64(i * 0x9e37_79b9 + 11),
                        g.mul(&Scalar::from_u64(i + 2)),
                    )
                })
                .collect();
            assert_eq!(msm_pippenger(&pairs), msm_straus(&pairs), "n = {n}");
            assert_eq!(multi_scalar_mul(&pairs), msm_straus(&pairs), "n = {n}");
        }
    }

    #[test]
    fn pippenger_handles_zero_scalars_and_identity_points() {
        let g = AffinePoint::generator();
        let pairs = vec![
            (Scalar::ZERO, g),
            (Scalar::from_u64(5), AffinePoint::identity()),
            (Scalar::from_u64(3), g.double()),
        ];
        assert_eq!(msm_pippenger(&pairs), g.mul(&Scalar::from_u64(6)));
        assert!(msm_pippenger(&[]).is_identity());
    }

    #[test]
    fn pippenger_full_width_scalars() {
        use fourq_fp::U256;
        let g = AffinePoint::generator();
        // N − 1 exercises the top window of every width class.
        let top = Scalar::from_u256(
            U256::from_hex("29CBC14E5E0A72F05397829CBC14E5DFBD004DFE0F79992FB2540EC7768CE6")
                .unwrap(),
        );
        let pairs = vec![(top, g), (Scalar::from_u64(12345), g.double())];
        assert_eq!(msm_pippenger(&pairs), msm_straus(&pairs));
    }

    #[test]
    fn multi_scalar_mul_empty_is_identity() {
        assert!(multi_scalar_mul(&[]).is_identity());
        // all-zero scalars too
        let g = AffinePoint::generator();
        assert!(multi_scalar_mul(&[(Scalar::ZERO, g)]).is_identity());
    }

    #[test]
    fn batch_normalize_empty_and_single() {
        assert!(batch_normalize(&[]).is_empty());
        let g = AffinePoint::generator();
        let e = ExtendedPoint::from_affine(&g.x, &g.y, &Fp2::ONE);
        assert_eq!(batch_normalize(&[e])[0], g);
    }
}
