//! The completion-queue object (paper §4.1.4).
//!
//! The paper's two designs:
//!
//! * [`CqImpl::FaaArray`] — a hand-written fetch-and-add-based fixed-size
//!   array (a bounded MPMC ring with per-slot sequence numbers). Its
//!   throughput is bounded by how fast threads can FAA the shared head
//!   and tail counters — the limit paper Fig. 5 measures. Its slots are
//!   a zero-filled anonymous mapping, so creating one touches no page
//!   whatever the capacity (DESIGN.md §4.7).
//! * [`CqImpl::Lcrq`] — a hand-written LCRQ (Morrison & Afek): a linked
//!   list of closable circular rings; see [`crate::comp::lcrq`] for the
//!   indirect-slot adaptation to 64-bit CAS.
//!
//! crossbeam's segmented queue is not a third: in this tree it is a
//! spin-locked `VecDeque` (`shims/crossbeam`), and it stays only for
//! `lcw`'s GASNet-baseline inbox.
//!
//! On a full FAA-array queue, `push` *spins*: LCI sizes completion queues
//! so overflow is a deployment error, and a spin preserves the no-loss
//! contract (completions must never be dropped).

use crate::types::CompDesc;
use lci_fabric::shm::os::Mapping;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Completion-queue implementation selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqImpl {
    /// Bounded FAA-based array of the given capacity (rounded up to a
    /// power of two).
    FaaArray,
    /// Hand-written LCRQ (linked list of closable circular rings).
    Lcrq,
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
/// handoff (Vyukov-style bounded MPMC). The number is kept *relative to
/// the slot's own index* — Vyukov's `seq - index` — so a slot that was
/// never used reads `0` and all-zero memory is a valid empty queue:
/// for the position `pos` that maps to this slot, `lap == pos & !mask`
/// means free for the producer of `pos`, `+ 1` means written, and the
/// consumer leaves the next lap's `pos & !mask` behind.
struct Slot {
    lap: AtomicUsize,
    /// Initialized exactly while `lap` says "written".
    value: UnsafeCell<MaybeUninit<CompDesc>>,
}

/// The FAA-based fixed-size array queue.
///
/// The slots live in a zero-filled anonymous mapping, not on the heap,
/// so that creating a queue touches no page of them (the default
/// capacity is 5.5 MiB of slots). Slots the constructor had to write
/// cost a page fault each or nothing, depending on what the allocator
/// recycled or trimmed since the last queue was dropped, and a program
/// that builds a runtime per iteration runs 30 % faster or slower on
/// that alone (DESIGN.md §4.7). A page is faulted in when a completion
/// first reaches it.
struct FaaArrayQueue {
    map: Mapping,
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

    fn push(&self, desc: CompDesc) {
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

    fn pop(&self) -> Option<CompDesc> {
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

    fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Acquire);
        let h = self.head.load(Ordering::Acquire);
        t.saturating_sub(h)
    }
}

impl Drop for FaaArrayQueue {
    /// The mapping frees no descriptor: take out what is still queued.
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

enum Inner {
    Faa(FaaArrayQueue),
    Lcrq(crate::comp::lcrq::Lcrq),
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
        };
        Self { inner }
    }

    /// Enqueues a completion descriptor (never loses it).
    pub fn push(&self, desc: CompDesc) {
        match &self.inner {
            Inner::Faa(q) => q.push(desc),
            Inner::Lcrq(q) => q.push(desc),
        }
    }

    /// Dequeues a descriptor if one is available.
    pub fn pop(&self) -> Option<CompDesc> {
        match &self.inner {
            Inner::Faa(q) => q.pop(),
            Inner::Lcrq(q) => q.pop(),
        }
    }

    /// Approximate number of queued descriptors.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Faa(q) => q.len(),
            Inner::Lcrq(q) => q.len(),
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
        for imp in [CqImpl::FaaArray, CqImpl::Lcrq] {
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

    /// The slots are a mapping, which runs no destructor: the queue's
    /// `Drop` has to, for what is still queued.
    #[test]
    fn dropping_a_faa_queue_drops_what_is_queued() {
        use crate::types::DataBuf;
        let pool = lci_fabric::BufPool::new(Default::default());
        let q = CompQueue::new(CqConfig { imp: CqImpl::FaaArray, capacity: 8 });
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
        for imp in [CqImpl::FaaArray, CqImpl::Lcrq] {
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
