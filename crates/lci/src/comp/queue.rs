//! The completion-queue object (paper §4.1.4).
//!
//! Three implementations (the paper ships the first two):
//!
//! * [`CqImpl::FaaArray`] — a hand-written fetch-and-add-based fixed-size
//!   array (a bounded MPMC ring with per-slot sequence numbers). Its
//!   throughput is bounded by how fast threads can FAA the shared head
//!   and tail counters — the limit paper Fig. 5 measures.
//! * [`CqImpl::Lcrq`] — a hand-written LCRQ (Morrison & Afek): a linked
//!   list of closable circular rings; see [`crate::comp::lcrq`] for the
//!   indirect-slot adaptation to 64-bit CAS.
//! * [`CqImpl::Segmented`] — an unbounded segmented queue
//!   (`crossbeam::queue::SegQueue`), kept as a well-tested yardstick for
//!   the ablation bench. Lock-free upstream; this tree builds against
//!   `shims/crossbeam`, whose `SegQueue` is a spin-locked `VecDeque`.
//!
//! On a full FAA-array queue, `push` *spins*: LCI sizes completion queues
//! so overflow is a deployment error, and a spin preserves the no-loss
//! contract (completions must never be dropped).

use crate::types::CompDesc;
use crossbeam::queue::SegQueue;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Completion-queue implementation selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqImpl {
    /// Bounded FAA-based array of the given capacity (rounded up to a
    /// power of two).
    FaaArray,
    /// Hand-written LCRQ (linked list of closable circular rings).
    Lcrq,
    /// Unbounded segmented queue (crossbeam yardstick; spin-locked in
    /// this tree's shim, see the module docs).
    Segmented,
}

/// Completion-queue configuration.
#[derive(Clone, Copy, Debug)]
pub struct CqConfig {
    /// Which implementation backs the queue.
    pub imp: CqImpl,
    /// Capacity for the bounded implementation.
    pub capacity: usize,
}

impl Default for CqConfig {
    fn default() -> Self {
        Self { imp: CqImpl::FaaArray, capacity: 65536 }
    }
}

/// One slot of the FAA array: a sequence number gates writer/reader
/// handoff (Vyukov-style bounded MPMC).
struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<Option<CompDesc>>,
}

/// The FAA-based fixed-size array queue.
struct FaaArrayQueue {
    slots: Box<[Slot]>,
    mask: usize,
    head: AtomicUsize,
    tail: AtomicUsize,
}

// SAFETY: slot values are accessed only by the thread holding the
// matching sequence ticket (enqueue/dequeue protocol below).
unsafe impl Send for FaaArrayQueue {}
unsafe impl Sync for FaaArrayQueue {}

impl FaaArrayQueue {
    fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots: Vec<Slot> = (0..cap)
            .map(|i| Slot { seq: AtomicUsize::new(i), value: UnsafeCell::new(None) })
            .collect();
        Self {
            slots: slots.into_boxed_slice(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    fn push(&self, desc: CompDesc) {
        let mut desc = Some(desc);
        loop {
            let pos = self.tail.load(Ordering::Relaxed);
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            match seq.cmp(&pos) {
                std::cmp::Ordering::Equal => {
                    if self
                        .tail
                        .compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        // SAFETY: we own this slot until we bump seq.
                        unsafe {
                            *slot.value.get() = desc.take();
                        }
                        slot.seq.store(pos + 1, Ordering::Release);
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

    fn pop(&self) -> Option<CompDesc> {
        loop {
            let pos = self.head.load(Ordering::Relaxed);
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let expect = pos + 1;
            match seq.cmp(&expect) {
                std::cmp::Ordering::Equal => {
                    if self
                        .head
                        .compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        // SAFETY: we own this slot until we bump seq.
                        let v = unsafe { (*slot.value.get()).take() };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return v;
                    }
                }
                std::cmp::Ordering::Less => return None, // empty
                std::cmp::Ordering::Greater => { /* stale view; retry */ }
            }
        }
    }

    fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Acquire);
        let h = self.head.load(Ordering::Acquire);
        t.saturating_sub(h)
    }
}

enum Inner {
    Faa(FaaArrayQueue),
    Lcrq(crate::comp::lcrq::Lcrq),
    Seg(SegQueue<CompDesc>),
}

/// A concurrent completion queue.
pub struct CompQueue {
    inner: Inner,
}

impl CompQueue {
    /// Creates a queue with `cfg`.
    pub fn new(cfg: CqConfig) -> Self {
        let inner = match cfg.imp {
            CqImpl::FaaArray => Inner::Faa(FaaArrayQueue::new(cfg.capacity)),
            CqImpl::Lcrq => Inner::Lcrq(crate::comp::lcrq::Lcrq::new()),
            CqImpl::Segmented => Inner::Seg(SegQueue::new()),
        };
        Self { inner }
    }

    /// Enqueues a completion descriptor (never loses it).
    pub fn push(&self, desc: CompDesc) {
        match &self.inner {
            Inner::Faa(q) => q.push(desc),
            Inner::Lcrq(q) => q.push(desc),
            Inner::Seg(q) => q.push(desc),
        }
    }

    /// Dequeues a descriptor if one is available.
    pub fn pop(&self) -> Option<CompDesc> {
        match &self.inner {
            Inner::Faa(q) => q.pop(),
            Inner::Lcrq(q) => q.pop(),
            Inner::Seg(q) => q.pop(),
        }
    }

    /// Approximate number of queued descriptors.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Faa(q) => q.len(),
            Inner::Lcrq(q) => q.len(),
            Inner::Seg(q) => q.len(),
        }
    }

    /// Whether the queue appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for CompQueue {
    fn default() -> Self {
        Self::new(CqConfig::default())
    }
}

impl std::fmt::Debug for CompQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let imp = match &self.inner {
            Inner::Faa(_) => "FaaArray",
            Inner::Lcrq(_) => "Lcrq",
            Inner::Seg(_) => "Segmented",
        };
        f.debug_struct("CompQueue").field("imp", &imp).field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CompKind;
    use std::sync::Arc;

    fn desc(tag: u32) -> CompDesc {
        CompDesc { tag, kind: CompKind::Am, ..Default::default() }
    }

    fn cfg(imp: CqImpl) -> CqConfig {
        CqConfig { imp, capacity: 256 }
    }

    #[test]
    fn fifo_single_thread_both_impls() {
        for imp in [CqImpl::FaaArray, CqImpl::Lcrq, CqImpl::Segmented] {
            let q = CompQueue::new(cfg(imp));
            assert!(q.pop().is_none());
            for i in 0..100 {
                q.push(desc(i));
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().tag, i, "{imp:?}");
            }
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn wraparound_faa() {
        let q = CompQueue::new(CqConfig { imp: CqImpl::FaaArray, capacity: 8 });
        for round in 0..10u32 {
            for i in 0..8 {
                q.push(desc(round * 8 + i));
            }
            for i in 0..8 {
                assert_eq!(q.pop().unwrap().tag, round * 8 + i);
            }
        }
    }

    #[test]
    fn mpmc_stress_no_loss() {
        for imp in [CqImpl::FaaArray, CqImpl::Lcrq, CqImpl::Segmented] {
            let q = Arc::new(CompQueue::new(CqConfig { imp, capacity: 1024 }));
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
            assert_eq!(consumed.load(Ordering::Relaxed), total, "{imp:?}");
            let expect: usize = (0..producers * per).map(|x| x as usize).sum();
            assert_eq!(sum.load(Ordering::Relaxed), expect, "{imp:?}");
        }
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
