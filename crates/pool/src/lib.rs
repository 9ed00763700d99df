//! Deterministic data-parallel execution for the batch pipeline.
//!
//! The paper's ASIC gets its throughput from a fixed datapath executing a
//! fixed schedule; the software analogue for *batch* throughput is running
//! independent batch items on every available core. This crate is the
//! library's only threading primitive: one scoped, work-stealing-free
//! fork/join helper, [`map_items`], built entirely on
//! `std::thread::scope`. Each stage of a library batch call fans out
//! through it at most once, over whole items, and only when the stage
//! holds at least two chunks, each sized to at least a thread spawn's
//! work.
//!
//! # Determinism contract
//!
//! Parallel execution must be **bit-identical to sequential execution at
//! every thread count** (enforced by the `diff_check!` suites in
//! `fourq-testkit`). The design choices that make this provable:
//!
//! * **Per-item outputs.** `f` sees one item and its index, and its
//!   output lands at that index. Which worker claims an item varies run
//!   to run, but *what* each item computes does not.
//! * **Fixed reduction order.** Outputs come back in item order, so a
//!   caller that reduces them (Pippenger's window fold) does so on the
//!   calling thread in an order fixed by the index.
//! * **No shared mutable state.** Spawned workers hand their outputs
//!   back through their join handles and the calling thread keeps its
//!   own; the one shared word is an atomic cursor over the item indices
//!   (a single queue, no stealing).
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
//! `fourq-ctlint` lints this crate like any other. Worker counts derive
//! only from public batch geometry (the item count, the chunk and the
//! thread budget), never from secret values.

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

/// Per-item parallel map preserving input order: applies `f` to every
/// item (with its global index) across up to `threads` worker threads and
/// returns the outputs at the same indices, so the result equals
/// `items.iter().enumerate().map(f).collect()` at any thread count.
///
/// `chunk` is the fewest items whose work outweighs one thread spawn
/// (60–120 µs on a 2-vCPU host; `DESIGN.md` §10). A call of fewer than
/// two whole chunks, or on one thread, runs every item on the calling
/// thread and spawns nothing: that is the one crossover. A larger call
/// runs on one thread per whole chunk, up to `threads`: the calling
/// thread and the workers it spawns claim items one at a time from an
/// atomic cursor, so the caller starts at once and a worker that starts
/// late takes fewer. Each output lands at its item's index.
///
/// # Panics
///
/// Panics if `chunk` is 0. A panic in any item re-raises on the calling
/// thread once every worker has exited the scope.
pub fn map_items<T, R, F>(items: &[T], chunk: usize, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let workers = threads.min(items.len() / chunk);
    if workers <= 1 {
        // Every one-shot call lands here: no scope, no slot vector.
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break;
            };
            done.push((i, f(i, item)));
        }
        done
    };
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let mut place = |done: Vec<(usize, R)>| {
        for (i, r) in done {
            slots[i] = Some(r);
        }
    };

    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(claim)).collect();
        place(claim());
        for h in spawned {
            match h.join() {
                Ok(done) => place(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn map_items_equals_sequential_map_at_every_thread_count() {
        let items: Vec<u32> = (0..53).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as u64) * 1000 + x as u64)
            .collect();
        for threads in [1, 2, 3, 4, 8] {
            for chunk in [1, 4, 7, 26, 27, 53, 64] {
                let got = map_items(&items, chunk, threads, |i, &x| (i as u64) * 1000 + x as u64);
                assert_eq!(got, expect, "threads = {threads}, chunk = {chunk}");
            }
        }
    }

    /// The thread each item of a `map_items` call ran on. Each item
    /// sleeps 200 µs, long enough that a spawned worker would take some.
    fn threads_of(n: usize, chunk: usize, threads: usize) -> Vec<ThreadId> {
        let items = vec![0u8; n];
        map_items(&items, chunk, threads, |_, _| {
            std::thread::sleep(Duration::from_micros(200));
            std::thread::current().id()
        })
    }

    #[test]
    fn under_two_chunks_run_on_the_calling_thread_and_two_fan_out() {
        let me = std::thread::current().id();
        for n in [1, 32, 63] {
            let ran = threads_of(n, 32, 8);
            assert!(ran.iter().all(|t| *t == me), "{n} items, under two chunks");
        }
        // Two chunks on two threads: the caller and one worker. Each item
        // waits (up to 10 s) until two threads have taken items, so both
        // take some however late the worker starts.
        let seen = Mutex::new(Vec::<ThreadId>::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        let _ = map_items(&[0u8; 64], 32, 2, |_, _| loop {
            let mut seen = seen.lock().unwrap();
            let id = std::thread::current().id();
            if !seen.contains(&id) {
                seen.push(id);
            }
            if seen.len() >= 2 || Instant::now() > deadline {
                break;
            }
            drop(seen);
            std::thread::yield_now();
        });
        let seen = seen.into_inner().unwrap();
        assert!(
            seen.len() == 2 && seen.contains(&me),
            "64 items, two chunks, ran on {} threads",
            seen.len()
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_items(&empty, 4, 8, |_, &x: &u8| x).is_empty());
        assert_eq!(
            map_items(&[5u8, 6], 1, 8, |i, &x| (i, x)),
            vec![(0, 5), (1, 6)]
        );
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            map_items(&items, 4, 4, |i, _| {
                assert!(i != 29, "item 29 explodes");
                i
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
        let _ = map_items(&[1u8], 0, 2, |_, &x| x);
    }
}
