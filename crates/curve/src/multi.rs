//! Multi-scalar multiplication `Σ [kᵢ]Pᵢ` over public inputs.
//!
//! Signature verification (paper §II-A, ECDSA verification step 4, and
//! Schnorr) computes `[u₁]G + [u₂]Q`; Schnorr batch verification computes
//! a `2n + 1`-term sum. Below [`PIPPENGER_THRESHOLD`] terms, [`split_msm`]
//! splits every scalar four ways with the endomorphisms of Algorithm 1 and
//! runs all the digit streams through one loop of 65 doublings
//! ([`double_scalar_mul`] is its two-term call): every point but `G`
//! adds one entry of its ψ table per doubling, and `G` one entry of its
//! pair table per two doublings. From the threshold up, [`pippenger`]
//! shares one doubling chain and a per-window bucket sweep across all
//! terms. [`msm`] chooses between the two, and both are generic over the
//! field so that the unit tests can count them.

use crate::affine::AffinePoint;
use crate::context::FourQEngine;
use crate::decompose::{decompose, recode, Recoded, DIGITS};
use crate::engine::{identity, psi_table, EngineSelect};
use crate::extended::{CachedPoint, ExtendedPoint};
use crate::fixed_base::{PairTable, BASE_ENTRY};
use crate::params::TWO_D;
use fourq_fp::{Fp2, Fp2Like, Scalar, U256};

/// Computes `[a]P + [b]Q`: the two-term call of the split loop that
/// [`FourQEngine::msm`] runs on small batches. Exact on every point of
/// `E(F_p²)`, torsion included, like [`AffinePoint::mul`].
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
    let table = FourQEngine::shared().generator_table().pairs();
    AffinePoint::from_extended(&split_msm(table, &[(*a, *p), (*b, *q)]))
}

/// Batch size, in terms, from which [`FourQEngine::msm`] runs the bucket
/// (Pippenger) method instead of the split loop. The split loop costs a
/// ψ table and 66 cached additions per term whatever the scalar's length,
/// plus 65 shared doublings; Pippenger's per-window bucket sweep is a
/// fixed cost that only enough terms amortise. Set from interleaved
/// single-thread timings on Schnorr batch verification's `2n + 1`-term
/// shape: from 37 terms the two tie or Pippenger wins (`DESIGN.md` §9).
pub const PIPPENGER_THRESHOLD: usize = 37;

/// `Σ [kᵢ]Pᵢ`, still projective, by [`pippenger`] from
/// [`PIPPENGER_THRESHOLD`] terms and by [`split_msm`] on `table`, `G`'s
/// pair table, below.
pub(crate) fn msm<F: EngineSelect + From<Fp2> + Send + Sync>(
    table: &PairTable<F>,
    pairs: &[(Scalar, AffinePoint)],
    threads: usize,
) -> ExtendedPoint<F> {
    // ct: allow(R1) reason="dispatch on the public batch size, not on scalar values"
    if pairs.len() >= PIPPENGER_THRESHOLD {
        pippenger(pairs, threads)
    } else {
        split_msm(table, pairs)
    }
}

/// `Σ [kᵢ]Pᵢ`, still projective, with the 4-D split of Algorithm 1 on
/// every scalar: [`decompose`] and [`recode`] turn each into 66 signed
/// digits, and one shared loop runs 65 iterations of one doubling, then
/// the parity corrections.
///
/// Every point but `G` gets its 8-entry ψ table, built per call, and adds
/// `s_i·T[v_i]` in every iteration, 66 cached additions. `G`'s digits read
/// `table`, its pair table, two columns at a time ([`pair_digit`]): one
/// mixed addition in every second iteration, 33 in all.
///
/// Inputs are public, so the digits index the tables directly and the
/// parity corrections branch.
pub(crate) fn split_msm<F: EngineSelect + From<Fp2>>(
    table: &PairTable<F>,
    pairs: &[(Scalar, AffinePoint)],
) -> ExtendedPoint<F> {
    let (one, two_d) = (F::from(Fp2::ONE), F::from(TWO_D));
    let generator = AffinePoint::generator();
    // Verifier-side: scalars and points derive from public signatures and
    // messages, so their digits may drive indexing and branches. `None`
    // marks G's stream.
    let streams: Vec<_> = pairs
        .iter()
        .map(|(k, p)| {
            let d = decompose(k); // ct: public — verification inputs are public by protocol
            let psi = (*p != generator).then(|| psi_table(&p.x.into(), &p.y.into(), &one, &two_d));
            (recode(&d), d.corrected.to_bool_vartime(), psi)
        })
        .collect();
    let add_column = |mut acc: ExtendedPoint<F>, i: usize| {
        for (r, _, psi) in &streams {
            match psi {
                Some(t) => {
                    let e = &t[r.indices[i] as usize];
                    acc = if r.signs[i] < 0 {
                        acc.add_cached(&e.neg())
                    } else {
                        acc.add_cached(e)
                    };
                }
                None if i.is_multiple_of(2) => {
                    let (index, negative) = pair_digit(r, i);
                    let e = &table[index];
                    acc = if negative {
                        acc.add_affine(&e.neg())
                    } else {
                        acc.add_affine(e)
                    };
                }
                None => {}
            }
        }
        acc
    };
    let top = DIGITS - 1;
    let mut acc = add_column(identity(&one), top);
    for i in (0..top).rev() {
        acc = add_column(acc.double(), i);
    }
    // A split whose rounded a₁ was even represents k + 1: subtract the
    // point itself, T[0] or G's affine entry.
    for (_, corrected, psi) in &streams {
        if *corrected {
            acc = match psi {
                Some(t) => acc.add_cached(&t[0].neg()),
                None => acc.add_affine(&table[BASE_ENTRY].neg()),
            };
        }
    }
    acc
}

/// `G`'s pair-table read after the doubling of an even column `j`: the
/// index `16·v_(j+1) + 8·[s_(j+1)·s_j = −1] + v_j` of
/// `[2]T[v_(j+1)] ± T[v_j]`, and whether `s_(j+1) = −1` negates it. The
/// entry adds `2·s_(j+1)·T[v_(j+1)] + s_j·T[v_j]`, what columns `j + 1`
/// and `j` of the ψ stream add across the doubling between them.
fn pair_digit(r: &Recoded, j: usize) -> (usize, bool) {
    let flip = usize::from(r.signs[j + 1] * r.signs[j] < 0);
    let index = 16 * usize::from(r.indices[j + 1]) + 8 * flip + usize::from(r.indices[j]);
    (index, r.signs[j + 1] < 0)
}

/// Picks the Pippenger window width `c` minimising the estimated addition
/// count `n·⌈246/c⌉ + ⌈246/c⌉·2·2^c` for a batch of `n` points
/// (`n ≥ PIPPENGER_THRESHOLD`, so never below 5).
fn pippenger_window(n: usize) -> usize {
    match n {
        0..=229 => 5,
        230..=799 => 6,
        _ => 7,
    }
}

/// Windows per parallel work chunk, the window fan-out's only crossover.
/// A window costs up to `n + 2(2^c − 1)` additions (bucket inserts, then
/// the running-sum sweep): 99 at the smallest Pippenger batch (37 points,
/// `c = 5`), so a chunk of 5 is ~500 additions, ~60 µs, about one thread
/// spawn, and more at every larger batch (`DESIGN.md` §10). Every width
/// holds 7 to 10 whole chunks, so every Pippenger batch fans out, and
/// workers claim one window at a time.
const MSM_WINDOW_CHUNK: usize = 5;

/// The bucket accumulation + running-sum sweep for one `c`-bit window:
/// returns `Σ d·B_d` over this window's digits, in extended coordinates.
fn pippenger_window_sum<F: Fp2Like>(
    scalars: &[U256],
    lifted: &[ExtendedPoint<F>],
    cached: &[CachedPoint<F>],
    (one, two_d): (&F, &F),
    w: usize,
    c: usize,
) -> ExtendedPoint<F> {
    let n_buckets = (1usize << c) - 1;
    let mut buckets: Vec<Option<ExtendedPoint<F>>> = vec![None; n_buckets];
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
    let mut running = identity(one);
    let mut window_sum = identity(one);
    let mut any = false;
    for b in buckets.iter().rev() {
        if let Some(b) = b {
            running = running.add_cached(&b.to_cached(two_d));
            any = true;
        }
        if any {
            window_sum = window_sum.add_cached(&running.to_cached(two_d));
        }
    }
    window_sum
}

/// `Σ [kᵢ]Pᵢ`, still projective, by the bucket (Pippenger) method, on up
/// to `threads` workers.
///
/// The 246-bit scalars are cut into `⌈246/c⌉` windows of `c` bits. For
/// each window every point falls into the bucket of its digit (digit 0
/// skips, so short scalars such as 64-bit RLC coefficients cost nothing in
/// their empty upper windows), and the running-sum sweep over the buckets
/// recovers the window sum `Σ d·B_d`.
///
/// Every window's bucket accumulation is independent of every other
/// window's, so the windows are the parallel axis: workers compute one
/// window partial at a time, from two `MSM_WINDOW_CHUNK`s (10 windows) up,
/// and the calling thread folds the partials high-to-low through
/// the shared doubling chain (`acc ← [2^c]acc + partial_w`) — a reduction
/// whose order is fixed by the window index, not by thread scheduling.
/// Affine outputs are canonical, so results are bit-identical at every
/// thread count.
pub(crate) fn pippenger<F: Fp2Like + From<Fp2> + Send + Sync>(
    pairs: &[(Scalar, AffinePoint)],
    threads: usize,
) -> ExtendedPoint<F> {
    let (one, two_d) = (F::from(Fp2::ONE), F::from(TWO_D));
    // Batch verification input: scalars and points are public signature
    // components, so the digit-driven skips below are deliberate.
    let scalars: Vec<U256> = pairs.iter().map(|(k, _)| k.to_u256()).collect(); // ct: public — verification inputs
    let c = pippenger_window(pairs.len()); // ct: public — window width derives from the public batch size
    let windows = 246usize.div_ceil(c);

    // Lift every point once; bucket insertion uses the cached form.
    let lifted: Vec<ExtendedPoint<F>> = pairs
        .iter()
        .map(|(_, p)| ExtendedPoint::from_affine(&p.x.into(), &p.y.into(), &one))
        .collect(); // ct: public — verification points are public by protocol
    let cached: Vec<_> = lifted.iter().map(|e| e.to_cached(&two_d)).collect();

    let window_ids: Vec<usize> = (0..windows).collect();
    let partials = fourq_pool::map_items(&window_ids, MSM_WINDOW_CHUNK, threads, |_, &w| {
        pippenger_window_sum(&scalars, &lifted, &cached, (&one, &two_d), w, c)
    });

    // Fold the partials through the shared doubling chain, high window
    // first — the same `acc ← [2^c]acc + Σ d·B_d` recurrence the fused
    // sequential loop performs.
    let mut acc = identity(&one);
    for partial in partials.iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc = acc.add_cached(&partial.to_cached(&two_d));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::{record, tally, values, Counted};
    use crate::extended::AffineCached;
    use crate::fixed_base::PAIRS;

    /// `Σ [kᵢ]Pᵢ` by double-and-add, the reference.
    fn reference(pairs: &[(Scalar, AffinePoint)]) -> AffinePoint {
        pairs.iter().fold(AffinePoint::identity(), |acc, (k, p)| {
            acc.add(&p.mul_u256_generic(&k.to_u256()))
        })
    }

    /// The split loop on the shared engine's pair table, normalised.
    fn split(pairs: &[(Scalar, AffinePoint)]) -> AffinePoint {
        let table = FourQEngine::shared().generator_table().pairs();
        AffinePoint::from_extended(&split_msm(table, pairs))
    }

    /// Pippenger on one thread, normalised.
    fn bucket(pairs: &[(Scalar, AffinePoint)]) -> AffinePoint {
        AffinePoint::from_extended(&pippenger::<Fp2>(pairs, 1))
    }

    /// `G`'s pair table lifted into the counting field.
    fn counted_pairs() -> PairTable<Counted> {
        let t = FourQEngine::shared().generator_table().pairs();
        core::array::from_fn(|i| AffineCached {
            y_plus_x: t[i].y_plus_x.into(),
            y_minus_x: t[i].y_minus_x.into(),
            xy2d: t[i].xy2d.into(),
        })
    }

    /// Seeded scalars: uniform mod `N`, or 64-bit when `short`.
    fn random_scalars(seed: u64, n: usize, short: bool) -> Vec<Scalar> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        (0..n)
            .map(|_| match short {
                true => Scalar::from_u64(next() | 1),
                false => Scalar::from_u256(U256(core::array::from_fn(|_| next()))),
            })
            .collect()
    }

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
    fn double_scalar_mul_reads_every_pair_entry_under_both_signs() {
        let g = AffinePoint::generator();
        let q = g.mul(&Scalar::from_u64(0x5eed)).add(&g.double());
        let mut read = [[false; 2]; PAIRS];
        let (a, b) = (
            random_scalars(0xa11, 72, false),
            random_scalars(0xb22, 72, true),
        );
        for (a, b) in a.iter().zip(&b) {
            let r = recode(&decompose(a));
            for j in (0..DIGITS - 1).step_by(2) {
                let (index, negative) = pair_digit(&r, j);
                read[index][usize::from(negative)] = true;
            }
            let want = reference(&[(*a, g), (*b, q)]);
            assert_eq!(double_scalar_mul(a, &g, b, &q), want, "a = {a}, b = {b}");
        }
        for (index, signs) in read.iter().enumerate() {
            assert_eq!(signs, &[true; 2], "pair entry {index} under both signs");
        }
    }

    #[test]
    fn g_stream_adds_once_per_two_doublings() {
        // [a]G + [b]A: 65 doublings (3M + 4S) and, in the loop, 66 cached
        // additions for A (8M) and 33 mixed additions for G (7M): 954 mul
        // and 260 sqr against 1251 and 260 on G's ψ table. A's ψ table is
        // counted apart; a parity correction adds 7M for G and 8M for A.
        let g = AffinePoint::generator();
        let a_point = g.mul(&Scalar::from_u64(0xa0a0_a0a0));
        let table = counted_pairs();
        let (one, two_d) = (Counted::from(Fp2::ONE), Counted::from(TWO_D));
        let (_, log) = record(|| psi_table(&a_point.x.into(), &a_point.y.into(), &one, &two_d));
        let [table_mul, table_sqr, ..] = tally(&log);
        let mut parities = [[false; 2]; 2];
        let (xs, ys) = (
            random_scalars(0xc0, 8, false),
            random_scalars(0xc1, 8, false),
        );
        for (a, b) in xs.iter().zip(&ys) {
            let (q, log) = record(|| split_msm(&table, &[(*a, g), (*b, a_point)]));
            assert_eq!(values(&q), reference(&[(*a, g), (*b, a_point)]));
            let [mul, sqr, ..] = tally(&log);
            let fix_g = decompose(a).corrected.to_bool_vartime();
            let fix_a = decompose(b).corrected.to_bool_vartime();
            let corrections = 7 * usize::from(fix_g) + 8 * usize::from(fix_a);
            assert_eq!(
                (mul - table_mul - corrections, sqr - table_sqr),
                (954, 260),
                "a = {a}, b = {b}"
            );
            parities[usize::from(fix_g)][usize::from(fix_a)] = true;
        }
        assert_eq!(parities, [[true; 2]; 2], "every parity pair");
    }

    /// Counted `F_p²` mul + sqr per signature of [`msm`] on
    /// `schnorr::verify_batch_with`'s terms for `n` signatures: a 64-bit
    /// coefficient on each `Rᵢ`, a full-width scalar on each `Aᵢ` and one
    /// on `G`.
    fn batch_verify_cost(table: &PairTable<Counted>, n: usize) -> f64 {
        let g = AffinePoint::generator();
        let step = g.mul(&Scalar::from_u64(0x5151_5151));
        let mut point = step.double();
        let (cs, hs) = (
            random_scalars(n as u64, n, true),
            random_scalars(!n as u64, n, false),
        );
        let mut pairs = Vec::new();
        for (c, h) in cs.iter().zip(&hs) {
            for k in [c, h] {
                pairs.push((*k, point));
                point = point.add(&step);
            }
        }
        pairs.push((random_scalars(0x9, 1, false)[0], g));
        let (_, log) = record(|| msm(table, &pairs, 1));
        let [mul, sqr, ..] = tally(&log);
        (mul + sqr) as f64 / n as f64
    }

    #[test]
    fn coalesced_verify_costs_under_half_a_verify_of_one() {
        // The bar of a served verify flush of 64 against flushes of one,
        // counted instead of timed: a flush of one runs the split loop on
        // 3 terms, one of 64 runs Pippenger on 129.
        let table = counted_pairs();
        let (one, many) = (batch_verify_cost(&table, 1), batch_verify_cost(&table, 64));
        assert!(
            one >= 2.0 * many,
            "per signature: {one} mul/sqr in a batch of 1, {many} in a batch of 64"
        );
    }

    #[test]
    fn both_paths_match_double_and_add() {
        let g = AffinePoint::generator();
        // Small sizes and the two sizes around the dispatch threshold.
        for n in [1, 2, 13, PIPPENGER_THRESHOLD - 1, PIPPENGER_THRESHOLD] {
            let pairs: Vec<(Scalar, AffinePoint)> = (0..n as u64)
                .map(|i| {
                    (
                        Scalar::from_u64(i * 0x9e37_79b9 + 11),
                        g.mul(&Scalar::from_u64(i + 2)),
                    )
                })
                .collect();
            let want = reference(&pairs);
            assert_eq!(split(&pairs), want, "split, n = {n}");
            assert_eq!(bucket(&pairs), want, "Pippenger, n = {n}");
        }
    }

    #[test]
    fn both_paths_handle_zero_scalars_and_identity_points() {
        let g = AffinePoint::generator();
        let pairs = vec![
            (Scalar::ZERO, g),
            (Scalar::from_u64(5), AffinePoint::identity()),
            (Scalar::from_u64(3), g.double()),
        ];
        assert_eq!(split(&pairs), g.mul(&Scalar::from_u64(6)));
        assert_eq!(bucket(&pairs), g.mul(&Scalar::from_u64(6)));
        assert!(split(&[]).is_identity());
        assert!(bucket(&[]).is_identity());
        assert!(split(&[(Scalar::ZERO, g)]).is_identity());
        assert!(bucket(&[(Scalar::ZERO, g)]).is_identity());
    }

    #[test]
    fn both_paths_take_full_width_scalars() {
        let g = AffinePoint::generator();
        // N − 1 exercises the top window of every width class.
        let pairs = vec![(-Scalar::ONE, g), (Scalar::from_u64(12345), g.double())];
        let want = reference(&pairs);
        assert_eq!(split(&pairs), want);
        assert_eq!(bucket(&pairs), want);
    }
}
