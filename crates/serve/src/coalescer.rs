//! The adaptive batch coalescer — the latency/throughput knob.
//!
//! Arriving requests are held in a bounded queue until an executor takes
//! them as one flush. Handing a whole queue to an executor is what lets
//! the `FourQEngine` batch paths (cached generator table, one
//! normalisation inversion per batch, RLC batch verification) amortise
//! their fixed costs — the software counterpart of the paper's
//! pipelined datapath staying saturated.
//!
//! Semantics of the knobs:
//!
//! * `window_us == 0` — **work-conserving** (the default): an idle
//!   executor takes everything queued, up to `max_batch`, as soon as the
//!   queue is non-empty. Nothing waits while an executor is free, and a
//!   flush holds what arrived while every executor was busy, so flush
//!   size follows load: one request on an idle server, large batches
//!   under a backlog.
//! * `window_us > 0` — **linger**: the first request opens a window; the
//!   flush happens at `first_arrival + window_us`, or immediately once
//!   `max_batch` requests are waiting. This trades a bounded wait for
//!   larger flushes at low load.
//! * `max_batch == 1` — strict flush-of-one: every request executes
//!   alone. Executors take requests in arrival order, but with more than
//!   one executor consecutive requests may run concurrently and finish
//!   out of order. The no-coalesce baseline: a Schnorr-verify flush of
//!   one costs at least 2× per signature what a flush of 64 does,
//!   counted in `F_p²` products by a `fourq-curve` unit test.
//! * `queue_cap` — requests beyond this bound are rejected at enqueue
//!   with an explicit `Busy` signal (the caller answers the client
//!   without blocking); the queue never grows past it.
//!
//! An empty window is never flushed: [`Coalescer::next_flush`] returns
//! only non-empty batches (or `None` at shutdown), so downstream batch
//! ops are never invoked with `n = 0` — see the size-0 regression tests.

use crate::proto::WireStats;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    /// Arrival instant of the oldest queued request (the open window's
    /// start), `None` when the queue is empty.
    window_open: Option<Instant>,
    stats: WireStats,
    closed: bool,
}

/// A bounded, deadline-flushed request queue shared between the reactor
/// (producer) and the executor threads (consumers).
pub struct Coalescer<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    window: Duration,
    max_batch: usize,
    queue_cap: usize,
}

/// Outcome of an enqueue attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enqueue {
    /// Accepted into the current window.
    Accepted,
    /// Rejected: the queue is at capacity (`Busy` backpressure).
    Busy,
    /// Rejected: the coalescer is shut down.
    Closed,
}

impl<T> Coalescer<T> {
    /// Creates a coalescer.
    ///
    /// `max_batch` and `queue_cap` are clamped to at least 1. A zero
    /// `window_us` flushes as soon as a request is queued; `max_batch = 1`
    /// gives flush-of-one.
    pub fn new(window_us: u64, max_batch: usize, queue_cap: usize) -> Coalescer<T> {
        Coalescer {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                window_open: None,
                stats: WireStats::default(),
                closed: false,
            }),
            cv: Condvar::new(),
            window: Duration::from_micros(window_us),
            max_batch: max_batch.max(1),
            queue_cap: queue_cap.max(1),
        }
    }

    /// Attempts to enqueue a request; wakes a waiting executor.
    pub fn enqueue(&self, item: T) -> Enqueue {
        let mut st = self.state.lock().expect("coalescer lock");
        if st.closed {
            return Enqueue::Closed;
        }
        if st.queue.len() >= self.queue_cap {
            st.stats.busy_rejects += 1;
            return Enqueue::Busy;
        }
        if st.queue.is_empty() {
            st.window_open = Some(Instant::now());
        }
        st.queue.push_back(item);
        drop(st);
        self.cv.notify_one();
        Enqueue::Accepted
    }

    /// Blocks until a flush is ready, then drains and returns it: up to
    /// `max_batch` requests, oldest first.
    ///
    /// Returns `None` only after [`Coalescer::close`], once the queue has
    /// fully drained — a returned batch is **never empty**. With
    /// `window_us == 0` a flush is ready as soon as the queue is
    /// non-empty and takes everything queued; otherwise it is ready when
    /// the window expires or `max_batch` requests wait.
    pub fn next_flush(&self) -> Option<Vec<T>> {
        let mut st = self.state.lock().expect("coalescer lock");
        loop {
            if st.queue.is_empty() {
                if st.closed {
                    return None;
                }
                st = self.cv.wait(st).expect("coalescer wait");
                continue;
            }
            if st.queue.len() >= self.max_batch || st.closed {
                return Some(self.drain(&mut st));
            }
            // A zero window has always expired: the flush leaves at once.
            let opened = st.window_open.expect("non-empty queue has a window");
            let elapsed = opened.elapsed();
            if elapsed >= self.window {
                return Some(self.drain(&mut st));
            }
            let (g, _) = self
                .cv
                .wait_timeout(st, self.window - elapsed)
                .expect("coalescer wait");
            st = g;
        }
    }

    fn drain(&self, st: &mut State<T>) -> Vec<T> {
        let n = st.queue.len().min(self.max_batch);
        debug_assert!(n > 0, "empty windows are never flushed");
        let batch: Vec<T> = st.queue.drain(..n).collect();
        // Requests left behind (beyond max_batch) start a fresh window
        // now: they are first in line for the next flush.
        st.window_open = if st.queue.is_empty() {
            None
        } else {
            Some(Instant::now())
        };
        st.stats.flushes += 1;
        st.stats.items += batch.len() as u64;
        st.stats.max_flush = st.stats.max_flush.max(batch.len() as u64);
        if !st.queue.is_empty() {
            // More work is immediately available for another executor.
            self.cv.notify_one();
        }
        batch
    }

    /// Shuts the coalescer down: pending requests still flush, then every
    /// waiting executor receives `None`.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("coalescer lock");
        st.closed = true;
        drop(st);
        self.cv.notify_all();
    }

    /// Snapshot of the counters, as the `Stats` op carries them.
    pub fn stats(&self) -> WireStats {
        self.state.lock().expect("coalescer lock").stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn max_batch_one_flushes_one_at_a_time() {
        let c = Coalescer::new(0, 1, 64);
        for i in 0..5 {
            assert_eq!(c.enqueue(i), Enqueue::Accepted);
        }
        for i in 0..5 {
            assert_eq!(c.next_flush(), Some(vec![i]));
        }
        let s = c.stats();
        assert_eq!((s.flushes, s.items, s.max_flush), (5, 5, 1));
        assert!((s.mean_flush() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_zero_drains_what_is_queued() {
        let c = Coalescer::new(0, 256, 64);
        for i in 0..5 {
            assert_eq!(c.enqueue(i), Enqueue::Accepted);
        }
        assert_eq!(c.next_flush(), Some(vec![0, 1, 2, 3, 4]));

        // Past max_batch the queue leaves in max_batch-sized flushes,
        // each ready at once: no deadline is waited out.
        let c = Coalescer::new(0, 4, 64);
        for i in 0..10 {
            assert_eq!(c.enqueue(i), Enqueue::Accepted);
        }
        assert_eq!(c.next_flush(), Some(vec![0, 1, 2, 3]));
        assert_eq!(c.next_flush(), Some(vec![4, 5, 6, 7]));
        assert_eq!(c.next_flush(), Some(vec![8, 9]));
        let s = c.stats();
        assert_eq!((s.flushes, s.items, s.max_flush), (3, 10, 4));
    }

    #[test]
    fn max_batch_caps_a_flush() {
        let c = Coalescer::new(10_000, 4, 64);
        for i in 0..10 {
            assert_eq!(c.enqueue(i), Enqueue::Accepted);
        }
        assert_eq!(c.next_flush(), Some(vec![0, 1, 2, 3]));
        assert_eq!(c.next_flush(), Some(vec![4, 5, 6, 7]));
        // The remaining two wait out their (fresh) window.
        assert_eq!(c.next_flush(), Some(vec![8, 9]));
        assert_eq!(c.stats().max_flush, 4);
    }

    #[test]
    fn queue_cap_rejects_busy() {
        let c = Coalescer::new(1_000, 256, 3);
        assert_eq!(c.enqueue(0), Enqueue::Accepted);
        assert_eq!(c.enqueue(1), Enqueue::Accepted);
        assert_eq!(c.enqueue(2), Enqueue::Accepted);
        assert_eq!(c.enqueue(3), Enqueue::Busy);
        assert_eq!(c.stats().busy_rejects, 1);
        // Draining frees capacity again.
        assert_eq!(c.next_flush(), Some(vec![0, 1, 2]));
        assert_eq!(c.enqueue(4), Enqueue::Accepted);
    }

    #[test]
    fn close_drains_then_yields_none_never_empty() {
        let c = Coalescer::new(60_000_000, 256, 64);
        c.enqueue(7u32);
        c.close();
        assert_eq!(c.enqueue(8), Enqueue::Closed);
        // The pending item flushes without waiting out the huge window...
        assert_eq!(c.next_flush(), Some(vec![7]));
        // ...and afterwards the coalescer reports shutdown, not an empty
        // batch (the size-0 no-op contract).
        assert_eq!(c.next_flush(), None);
        assert_eq!(c.next_flush(), None);
    }

    #[test]
    fn window_deadline_flushes_partial_batch() {
        let c = Arc::new(Coalescer::new(2_000, 256, 64));
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.next_flush());
        std::thread::sleep(Duration::from_millis(1));
        c.enqueue(1u8);
        c.enqueue(2u8);
        // No further arrivals: the 2 ms deadline must release the batch.
        let batch = h.join().unwrap();
        assert_eq!(batch, Some(vec![1, 2]));
    }

    #[test]
    fn concurrent_producers_and_consumers_preserve_items() {
        let c = Arc::new(Coalescer::new(200, 8, 4096));
        let total: usize = 400;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..total / 4 {
                        while c.enqueue(p * 1000 + i) == Enqueue::Busy {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(batch) = c.next_flush() {
                    assert!(!batch.is_empty());
                    assert!(batch.len() <= 8);
                    seen.extend(batch);
                }
                seen
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        c.close();
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        let mut expect: Vec<usize> = (0..4)
            .flat_map(|p| (0..total / 4).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
        let s = c.stats();
        assert_eq!(s.items as usize, total);
    }
}
