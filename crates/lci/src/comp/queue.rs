//! The completion queue (paper §4.1.4).
//!
//! Vyukov's bounded MPMC array: a fixed ring of slots, each with a
//! sequence number that hands it from producer to consumer. A push
//! claims the slot at `tail`, and a pop the slot at `head`, with a CAS
//! on that counter once the slot's number says it is free (or written)
//! for this lap; the paper's array claims its ticket with a
//! fetch-and-add instead. Either way throughput is bounded by how fast
//! threads can move the shared `head` and `tail` — the limit paper
//! Fig. 5 measures. The paper's other design, an LCRQ, is left out: an
//! indirect single-CAS LCRQ measured about 3.5× slower than this ring
//! (EXPERIMENTS.md).
//!
//! The slots are a zero-filled anonymous mapping, so creating a queue
//! touches no page whatever its capacity (DESIGN.md §4.7).
//!
//! A push on a full queue *spins* until a consumer pops: completions are
//! never dropped, and LCI sizes the queue (`CAPACITY` slots) so that
//! overflow is a deployment error. A thread that is a queue's only
//! consumer must therefore not fill it: its next push would spin
//! forever.

use crate::types::CompDesc;
use lci_fabric::shm::os::Mapping;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Slots of every completion queue.
const CAPACITY: usize = 65536;

/// One slot: a sequence number gates writer/reader handoff. The number
/// is kept *relative to the slot's own index* — Vyukov's `seq - index` —
/// so a slot that was never used reads `0` and all-zero memory is a
/// valid empty queue: for the position `pos` that maps to this slot,
/// `lap == pos & !mask` means free for the producer of `pos`, `+ 1`
/// means written, and the consumer leaves the next lap's `pos & !mask`
/// behind.
struct Slot {
    lap: AtomicUsize,
    /// Initialized exactly while `lap` says "written".
    value: UnsafeCell<MaybeUninit<CompDesc>>,
}

/// A concurrent completion queue.
///
/// The slots live in a zero-filled anonymous mapping, not on the heap,
/// so that creating a queue touches no page of them (5.5 MiB of slots).
/// Slots the constructor had to write cost a page fault each or nothing,
/// depending on what the allocator recycled or trimmed since the last
/// queue was dropped, and a program that builds a runtime per iteration
/// runs 30 % faster or slower on that alone (DESIGN.md §4.7). A page is
/// faulted in when a completion first reaches it.
pub struct CompQueue {
    map: Mapping,
    mask: usize,
    head: AtomicUsize,
    tail: AtomicUsize,
}

// SAFETY: slot values are accessed only by the thread holding the
// matching sequence ticket (push/pop protocol below).
unsafe impl Send for CompQueue {}
unsafe impl Sync for CompQueue {}

impl CompQueue {
    /// A queue of `capacity` slots, rounded up to a power of two.
    fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let map = Mapping::anonymous(cap * std::mem::size_of::<Slot>())
            .expect("map the completion queue's slots");
        debug_assert_eq!(map.ptr() as usize % std::mem::align_of::<Slot>(), 0);
        Self { map, mask: cap - 1, head: AtomicUsize::new(0), tail: AtomicUsize::new(0) }
    }

    fn slot(&self, pos: usize) -> &Slot {
        // SAFETY: the mapping holds `mask + 1` slots, is page-aligned
        // and zero-filled, which is a valid `Slot` (an atomic zero and
        // an uninitialized value), and lives as long as `self`.
        unsafe { &*self.map.ptr().cast::<Slot>().add(pos & self.mask) }
    }

    /// Enqueues a completion descriptor, spinning while the queue is
    /// full (never loses it).
    pub fn push(&self, desc: CompDesc) {
        loop {
            let pos = self.tail.load(Ordering::Relaxed);
            let slot = self.slot(pos);
            let free = pos & !self.mask;
            let lap = slot.lap.load(Ordering::Acquire);
            match lap.cmp(&free) {
                std::cmp::Ordering::Equal => {
                    if self
                        .tail
                        .compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        // SAFETY: we own this slot until we bump lap.
                        unsafe {
                            (*slot.value.get()).write(desc);
                        }
                        slot.lap.store(free + 1, Ordering::Release);
                        return;
                    }
                }
                std::cmp::Ordering::Less => {
                    // Queue full: spin until a consumer frees the slot
                    // (completions must not be lost).
                    std::hint::spin_loop();
                }
                std::cmp::Ordering::Greater => { /* stale view; retry */ }
            }
        }
    }

    /// Dequeues a descriptor if one is available.
    pub fn pop(&self) -> Option<CompDesc> {
        loop {
            let pos = self.head.load(Ordering::Relaxed);
            let slot = self.slot(pos);
            let written = (pos & !self.mask) + 1;
            let lap = slot.lap.load(Ordering::Acquire);
            match lap.cmp(&written) {
                std::cmp::Ordering::Equal => {
                    if self
                        .head
                        .compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        // SAFETY: we own this slot until we bump lap,
                        // and "written" says the value is initialized.
                        let v = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.lap.store(written + self.mask, Ordering::Release);
                        return Some(v);
                    }
                }
                std::cmp::Ordering::Less => return None, // empty
                std::cmp::Ordering::Greater => { /* stale view; retry */ }
            }
        }
    }

    /// Approximate number of queued descriptors.
    pub fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Acquire);
        let h = self.head.load(Ordering::Acquire);
        t.saturating_sub(h)
    }

    /// Whether the queue appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for CompQueue {
    fn default() -> Self {
        Self::with_capacity(CAPACITY)
    }
}

impl Drop for CompQueue {
    /// The mapping frees no descriptor: take out what is still queued.
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

impl std::fmt::Debug for CompQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompQueue").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CompKind;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn desc(tag: u32) -> CompDesc {
        CompDesc { tag, kind: CompKind::Am, ..Default::default() }
    }

    #[test]
    fn fifo_single_thread() {
        let q = CompQueue::with_capacity(256);
        assert!(q.pop().is_none());
        for i in 0..100 {
            q.push(desc(i));
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().tag, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn wraparound() {
        let q = CompQueue::with_capacity(8);
        for round in 0..10u32 {
            for i in 0..8 {
                q.push(desc(round * 8 + i));
            }
            for i in 0..8 {
                assert_eq!(q.pop().unwrap().tag, round * 8 + i);
            }
        }
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
    fn mpmc_stress_no_loss() {
        let q = Arc::new(CompQueue::with_capacity(1024));
        let producers: u32 = 3;
        let per: u32 = 5_000;
        let consumed = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.push(desc(p * per + i));
                }
            }));
        }
        for _ in 0..2 {
            let q = q.clone();
            let consumed = consumed.clone();
            let sum = sum.clone();
            let total = (producers * per) as usize;
            handles.push(std::thread::spawn(move || {
                while consumed.load(Ordering::Relaxed) < total {
                    if let Some(d) = q.pop() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(d.tag as usize, Ordering::Relaxed);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = (producers * per) as usize;
        assert_eq!(consumed.load(Ordering::Relaxed), total);
        let expect: usize = (0..producers * per).map(|x| x as usize).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expect);
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
