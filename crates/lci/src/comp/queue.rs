//! The completion queue (paper §4.1.4): completion descriptors on
//! [`MpmcRing`], the fabric's bounded lock-free ring (Vyukov's, a stamp
//! per slot), which the device's CQE staging ring also is. A push claims
//! the slot at `tail`, and a pop the slot at `head`, with a CAS on that
//! counter once the slot's stamp says it is free (or written) for this
//! lap; the paper's array claims its ticket with a fetch-and-add instead.
//! Either way throughput is bounded by how fast threads can move the
//! shared `head` and `tail` — the limit paper Fig. 5 measures. The
//! paper's other design, an LCRQ, is left out: an indirect single-CAS
//! LCRQ measured about 3.5× slower than this ring (EXPERIMENTS.md).
//!
//! The slots are a zero-filled anonymous mapping, so creating a queue
//! touches no page whatever its capacity (DESIGN.md §4.7).
//!
//! A push on a full queue *waits* until a consumer pops: completions are
//! never dropped, and LCI sizes the queue (`CAPACITY` slots) so that
//! overflow is a deployment error. A thread that is a queue's only
//! consumer must therefore not fill it: its next push would wait
//! forever.

use crate::types::CompDesc;
use lci_fabric::sync::MpmcRing;

/// Slots of every completion queue.
const CAPACITY: usize = 65536;

/// A concurrent completion queue.
pub struct CompQueue(MpmcRing<CompDesc>);

impl CompQueue {
    /// A queue of `capacity` slots, rounded up to a power of two.
    fn with_capacity(capacity: usize) -> Self {
        Self(MpmcRing::new(capacity))
    }

    /// Enqueues a completion descriptor, waiting while the queue is
    /// full (never loses it).
    #[inline]
    pub fn push(&self, desc: CompDesc) {
        self.0.push(desc)
    }

    /// Dequeues the oldest descriptor, `None` if the queue is empty.
    #[inline]
    pub fn pop(&self) -> Option<CompDesc> {
        self.0.pop()
    }

    /// Number of queued descriptors.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Default for CompQueue {
    fn default() -> Self {
        Self::with_capacity(CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CompKind;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn desc(tag: u32) -> CompDesc {
        CompDesc { tag, kind: CompKind::Am, ..Default::default() }
    }

    /// A push on a full ring neither drops its descriptor nor overwrites
    /// a queued one: it waits until a pop frees the slot it needs, and
    /// the queue stays FIFO. The queue is leaked, so that a ring an
    /// overwrite corrupted fails the assertion instead of hanging in
    /// `Drop`.
    #[test]
    fn a_push_on_a_full_queue_waits_for_a_pop() {
        let q: &'static CompQueue = Box::leak(Box::new(CompQueue::with_capacity(2)));
        q.push(desc(0));
        q.push(desc(1));
        let started = Arc::new(std::sync::Barrier::new(2));
        let pushed = Arc::new(AtomicBool::new(false));
        let pusher = {
            let (started, pushed) = (started.clone(), pushed.clone());
            std::thread::spawn(move || {
                started.wait();
                q.push(desc(2));
                pushed.store(true, Ordering::Release);
            })
        };
        started.wait();
        // The push has begun; while nothing is popped it cannot return.
        for _ in 0..50 {
            std::thread::sleep(std::time::Duration::from_millis(1));
            assert!(!pushed.load(Ordering::Acquire), "a push on a full queue returned");
            assert_eq!(q.len(), 2);
        }
        assert_eq!(q.pop().unwrap().tag, 0);
        pusher.join().unwrap();
        assert!(pushed.load(Ordering::Acquire));
        assert_eq!(q.pop().unwrap().tag, 1);
        assert_eq!(q.pop().unwrap().tag, 2);
        assert!(q.pop().is_none());
    }

    /// The slots are a mapping, which runs no destructor: the queue's
    /// `Drop` has to, for what is still queued.
    #[test]
    fn dropping_a_queue_drops_what_is_queued() {
        use crate::types::DataBuf;
        let pool = lci_fabric::BufPool::new(Default::default());
        let q = CompQueue::with_capacity(8);
        // Past one lap, so the queued slots are not the first ones.
        for i in 0..11 {
            q.push(desc(i));
            assert_eq!(q.pop().unwrap().tag, i);
        }
        for i in 0..3 {
            let data = DataBuf::Pooled(pool.take_len(1024), 1024);
            q.push(CompDesc { data, ..desc(i) });
        }
        assert_eq!(pool.stats().recycled_bytes, 0);
        drop(q);
        assert_eq!(pool.stats().recycled_bytes, 3 * 1024);
    }

    #[test]
    fn len_tracks_occupancy() {
        let q = CompQueue::default();
        assert!(q.is_empty());
        q.push(desc(0));
        q.push(desc(1));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
