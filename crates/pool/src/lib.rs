//! Deterministic data-parallel execution for the batch pipeline.
//!
//! The paper's ASIC gets its throughput from a fixed datapath executing a
//! fixed schedule; the software analogue for *batch* throughput is running
//! independent batch items on every available core. This crate is the
//! workspace's only threading primitive: a scoped, work-stealing-free
//! fork/join helper built entirely on `std::thread::scope`.
//!
//! # Determinism contract
//!
//! Parallel execution must be **bit-identical to sequential execution at
//! every thread count** (enforced by the `diff_check!` suites in
//! `fourq-testkit`). The design choices that make this provable:
//!
//! * **Fixed index ranges.** Work is cut into contiguous chunks whose
//!   boundaries depend only on the item count and the chunk size — never
//!   on the thread count. A chunk is the unit of scheduling; which worker
//!   executes a chunk varies run to run, but *what* each chunk computes
//!   does not.
//! * **Fixed reduction order.** Per-chunk results are joined in chunk
//!   index order on the calling thread; no worker ever combines two
//!   chunks' results.
//! * **No shared mutable state.** Workers communicate results only
//!   through their join handles; the chunk queue is a single atomic
//!   cursor over the fixed chunk list (a chunked deque with pops from one
//!   end and no stealing).
//!
//! Combined with the canonical representations of `fourq-fp` (every field
//! element has exactly one byte encoding), algebraically-equal results are
//! byte-equal, so callers that keep per-index data flows (RLC coefficient
//! streams, nonce counters) get bit-identical outputs for free.
//!
//! # Constant-time policy
//!
//! Worker closures inherit the workspace CT policy (`DESIGN.md` §8):
//! they run the same masked-select kernels as the sequential path, and
//! `fourq-ctlint` lints this crate like any other. Chunk boundaries and
//! thread counts derive only from public batch geometry, never from
//! secret values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard upper bound on the resolved thread count — a safety clamp against
/// pathological `FOURQ_THREADS` values, far above any sensible setting.
pub const MAX_THREADS: usize = 64;

/// Default cap when auto-detecting: more threads than this stop helping
/// the batch shapes this workspace serves (the merge phases are serial).
const AUTO_CAP: usize = 8;

/// Resolves the thread count for batch execution.
///
/// Priority order:
///
/// 1. `FOURQ_THREADS` environment variable, when it parses to an integer
///    `>= 1` (clamped to [`MAX_THREADS`]). Unparseable or zero values are
///    ignored and fall through to auto-detection.
/// 2. [`std::thread::available_parallelism`], capped at 8.
/// 3. `1` when parallelism cannot be queried.
///
/// A result of `1` means every batch path runs strictly sequentially —
/// the graceful fallback for single-core hosts and for pinned tests.
pub fn resolved_threads() -> usize {
    if let Ok(v) = std::env::var("FOURQ_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(AUTO_CAP)
}

/// Applies `f` to fixed contiguous chunks of `items` across up to
/// `threads` worker threads, returning per-chunk results **in chunk
/// order**.
///
/// Chunk `j` covers `items[j*chunk .. min((j+1)*chunk, len)]`; `f`
/// receives the chunk index and the chunk slice. Chunk geometry depends
/// only on `items.len()` and `chunk`, so outputs are independent of the
/// thread count; workers claim chunks from an atomic cursor (no
/// stealing, no reordering of the returned vector).
///
/// Falls back to a plain sequential loop when `threads <= 1` or the batch
/// produces fewer than two chunks — callers pick `chunk` at the measured
/// crossover where a chunk's work amortises thread spawn cost.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread (after all
/// workers have exited the scope).
pub fn map_chunks<T, R, F>(items: &[T], chunk: usize, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let n_chunks = items.len().div_ceil(chunk);
    if threads <= 1 || n_chunks <= 1 {
        return items
            .chunks(chunk)
            .enumerate()
            .map(|(j, c)| f(j, c))
            .collect();
    }
    let workers = threads.min(n_chunks);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                s.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let j = cursor.fetch_add(1, Ordering::Relaxed);
                        if j >= n_chunks {
                            break;
                        }
                        let lo = j * chunk;
                        let hi = ((j + 1) * chunk).min(items.len());
                        done.push((j, f(j, &items[lo..hi])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (j, r) in done {
                        slots[j] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every chunk index was claimed exactly once"))
        .collect()
}

/// Per-item parallel map preserving input order: applies `f` to every
/// item (with its global index) and returns the outputs at the same
/// indices.
///
/// A convenience wrapper over [`map_chunks`]: items are grouped into
/// fixed `chunk`-sized ranges, each worker maps its chunk's items in
/// order, and the per-chunk vectors are concatenated in chunk order —
/// so the result equals `items.iter().enumerate().map(f).collect()`
/// exactly, at any thread count.
pub fn map_items<T, R, F>(items: &[T], chunk: usize, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let per_chunk = map_chunks(items, chunk, threads, |j, c| {
        let base = j * chunk;
        c.iter()
            .enumerate()
            .map(|(i, item)| f(base + i, item))
            .collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for v in per_chunk {
        out.extend(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_preserves_chunk_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 3, 4, 8] {
            let sums = map_chunks(&items, 7, threads, |j, c| {
                (j, c.iter().sum::<u64>(), c.len())
            });
            assert_eq!(sums.len(), 100usize.div_ceil(7));
            for (j, (idx, _, len)) in sums.iter().enumerate() {
                assert_eq!(*idx, j);
                let expect_len = if j == 14 { 2 } else { 7 };
                assert_eq!(*len, expect_len, "chunk {j} at {threads} threads");
            }
            let total: u64 = sums.iter().map(|(_, s, _)| s).sum();
            assert_eq!(total, 99 * 100 / 2);
        }
    }

    #[test]
    fn map_items_equals_sequential_map_at_every_thread_count() {
        let items: Vec<u32> = (0..53).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as u64) * 1000 + x as u64)
            .collect();
        for threads in [1, 2, 3, 4, 8] {
            let got = map_items(&items, 4, threads, |i, &x| (i as u64) * 1000 + x as u64);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_chunks(&empty, 4, 8, |_, c| c.len()).is_empty());
        assert!(map_items(&empty, 4, 8, |_, &x: &u8| x).is_empty());
        assert_eq!(map_chunks(&[1u8], 4, 8, |_, c| c.len()), vec![1]);
        assert_eq!(
            map_items(&[5u8, 6], 1, 8, |i, &x| (i, x)),
            vec![(0, 5), (1, 6)]
        );
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            map_chunks(&items, 4, 4, |j, _| {
                assert!(j != 7, "chunk 7 explodes");
                j
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn resolved_threads_is_at_least_one() {
        // Cannot mutate the environment safely in a test process; just
        // check the invariant of the auto path.
        let n = resolved_threads();
        assert!((1..=MAX_THREADS).contains(&n));
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = map_chunks(&[1u8], 0, 2, |_, c| c.len());
    }
}
