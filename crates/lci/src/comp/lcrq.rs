//! A hand-written LCRQ-style lock-free queue (Morrison & Afek, PPoPP'13)
//! — the "state-of-the-art LCRQ" completion-queue implementation the
//! paper names in §4.1.4.
//!
//! The original LCRQ stores values directly in slots updated with
//! double-width CAS (CAS2). Stable Rust has no 128-bit atomics, so this
//! is the standard *indirect* variant: descriptors live in a lock-free
//! slab and slots hold `(cycle, slab index)` packed into one `AtomicU64`
//! updated with single-width CAS — the same ring/cycle algorithm, same
//! FAA-based fast path, same closed-ring + linked-list-of-CRQs overflow
//! behaviour.
//!
//! Layout of a slot word:
//!
//! ```text
//! 63      safe bit (1 = usable; cleared when a dequeuer abandons a
//!         ticket whose slot still holds an older-cycle value, so the
//!         late enqueuer of that ticket cannot strand a value there)
//! 62..32  cycle (ring generation when the slot was last written)
//! 31..0   slab index + 1 (0 = empty)
//! ```
//!
//! A CRQ of capacity N serves enqueue tickets `t` at slot `t % N` on
//! cycle `t / N`. An enqueuer CASes `(safe, cycle(t), 0) -> (safe,
//! cycle(t), idx+1)` — only on safe slots; a dequeuer at ticket `h`
//! consumes `(_, cycle(h), idx+1) -> (_, cycle(h)+1, 0)`, *skips* an
//! empty slot by bumping its cycle, and marks an old-value slot unsafe
//! before abandoning its ticket. No path ever waits on another thread.
//! When an enqueuer fails too often (dequeuers wrapped past it, or
//! unsafe slots accumulated) it *closes* the CRQ (tail bit 63) and
//! appends a fresh CRQ to the list, exactly like LCRQ.

use crate::types::CompDesc;
use lci_fabric::sync::SpinLock;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Slots per constituent ring.
const RING: usize = 1024;
/// Tail bit marking a closed ring.
const CLOSED: u64 = 1 << 63;

/// A lock-free slab handing out `u32` indices for parked descriptors.
///
/// Free indices form a Treiber stack threaded through `next`; the data
/// lives in boxed chunks so descriptors never move.
struct DescSlab {
    chunks: SpinLock<Vec<Box<[SlabEntry]>>>,
    /// Head of the free list (index+1; 0 = empty) in the low 32 bits and
    /// an ABA tag in the high 32 bits.
    free: AtomicU64,
    /// Total entries allocated so far.
    len: AtomicU64,
}

struct SlabEntry {
    value: SpinLock<Option<CompDesc>>,
    next: AtomicU64,
}

const CHUNK: usize = 256;

impl DescSlab {
    fn new() -> Self {
        Self { chunks: SpinLock::new(Vec::new()), free: AtomicU64::new(0), len: AtomicU64::new(0) }
    }

    fn entry(&self, idx: u32) -> *const SlabEntry {
        let chunks = self.chunks.lock();
        &chunks[idx as usize / CHUNK][idx as usize % CHUNK] as *const SlabEntry
    }

    /// Parks a descriptor, returning its index.
    fn put(&self, desc: CompDesc) -> u32 {
        loop {
            let head = self.free.load(Ordering::Acquire);
            let idx_plus_1 = (head & 0xFFFF_FFFF) as u32;
            if idx_plus_1 == 0 {
                // Free list empty: grow by one chunk and retry via the
                // newly freed indices (the grower keeps one for itself).
                let mut chunks = self.chunks.lock();
                // Re-check: another thread may have grown meanwhile.
                if (self.free.load(Ordering::Acquire) & 0xFFFF_FFFF) != 0 {
                    continue;
                }
                let base = (chunks.len() * CHUNK) as u32;
                let chunk: Vec<SlabEntry> = (0..CHUNK)
                    .map(|_| SlabEntry { value: SpinLock::new(None), next: AtomicU64::new(0) })
                    .collect();
                chunks.push(chunk.into_boxed_slice());
                self.len.fetch_add(CHUNK as u64, Ordering::Relaxed);
                // Keep slot `base` for ourselves; free the rest.
                for i in (base + 1)..(base + CHUNK as u32) {
                    self.release_locked(&chunks, i);
                }
                let e = &chunks[base as usize / CHUNK][base as usize % CHUNK];
                *e.value.lock() = Some(desc);
                return base;
            }
            let idx = idx_plus_1 - 1;
            let e = self.entry(idx);
            // SAFETY: entries are never freed while the slab lives.
            let next = unsafe { (*e).next.load(Ordering::Acquire) };
            let tag = head >> 32;
            let new = ((tag + 1) << 32) | (next & 0xFFFF_FFFF);
            if self
                .free
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: we own idx now.
                unsafe {
                    *(*e).value.lock() = Some(desc);
                }
                return idx;
            }
        }
    }

    /// Takes the descriptor at `idx` and recycles the slot.
    fn take(&self, idx: u32) -> CompDesc {
        let e = self.entry(idx);
        // SAFETY: the caller owns idx (it was dequeued from a ring).
        let desc = unsafe { (*e).value.lock().take().expect("slab slot empty") };
        self.release(idx);
        desc
    }

    fn release(&self, idx: u32) {
        let e = self.entry(idx);
        loop {
            let head = self.free.load(Ordering::Acquire);
            // SAFETY: entries are never freed while the slab lives.
            unsafe {
                (*e).next.store(head & 0xFFFF_FFFF, Ordering::Release);
            }
            let tag = head >> 32;
            let new = ((tag + 1) << 32) | (idx as u64 + 1);
            if self
                .free
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Like `release` but with the chunks lock already held (during
    /// growth); the free-list CAS protocol is identical.
    fn release_locked(&self, chunks: &[Box<[SlabEntry]>], idx: u32) {
        let e = &chunks[idx as usize / CHUNK][idx as usize % CHUNK];
        loop {
            let head = self.free.load(Ordering::Acquire);
            e.next.store(head & 0xFFFF_FFFF, Ordering::Release);
            let tag = head >> 32;
            let new = ((tag + 1) << 32) | (idx as u64 + 1);
            if self
                .free
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }
}

/// One circular ring queue (CRQ).
struct Crq {
    slots: Box<[AtomicU64]>,
    head: AtomicU64,
    tail: AtomicU64,
    next: AtomicPtr<Crq>,
}

const SAFE: u64 = 1 << 63;

#[inline]
fn pack(safe: bool, cycle: u64, idx_plus_1: u32) -> u64 {
    (if safe { SAFE } else { 0 }) | ((cycle & 0x7FFF_FFFF) << 32) | idx_plus_1 as u64
}

#[inline]
fn slot_safe(word: u64) -> bool {
    word & SAFE != 0
}

#[inline]
fn slot_cycle(word: u64) -> u64 {
    (word >> 32) & 0x7FFF_FFFF
}

#[inline]
fn slot_idx(word: u64) -> u32 {
    (word & 0xFFFF_FFFF) as u32
}

impl Crq {
    fn new() -> Box<Crq> {
        let slots: Vec<AtomicU64> = (0..RING).map(|_| AtomicU64::new(pack(true, 0, 0))).collect();
        Box::new(Crq {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
        })
    }

    /// Tries to enqueue `idx`; fails when the ring is (or becomes)
    /// closed. Never waits: a lost slot race moves to a fresh ticket.
    fn enqueue(&self, idx: u32) -> bool {
        let mut tries = 0;
        loop {
            let t = self.tail.fetch_add(1, Ordering::AcqRel);
            if t & CLOSED != 0 {
                return false;
            }
            let cycle = t / RING as u64;
            let slot = &self.slots[(t % RING as u64) as usize];
            let cur = slot.load(Ordering::Acquire);
            // Deposit only into a safe, empty slot whose cycle has not
            // passed ours (a dequeuer bumping past means our ticket was
            // skipped).
            if slot_safe(cur)
                && slot_idx(cur) == 0
                && slot_cycle(cur) <= cycle
                && slot
                    .compare_exchange(
                        cur,
                        pack(true, cycle, idx + 1),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
            {
                return true;
            }
            tries += 1;
            if tries > RING || t.wrapping_sub(self.head.load(Ordering::Acquire)) >= RING as u64 {
                // Starving (ring full, wrapped, or unsafe-ridden): close
                // it (LCRQ's CLOSED bit) and let the list grow.
                self.tail.fetch_or(CLOSED, Ordering::AcqRel);
                return false;
            }
        }
    }

    /// Tries to dequeue; `None` means currently empty (not closed-empty).
    /// Never waits on another thread:
    ///
    /// * value present for our cycle → consume it;
    /// * empty slot → bump the cycle (the late enqueuer's CAS will fail
    ///   and it retries with a new ticket) and take a fresh ticket;
    /// * older-cycle value still parked → mark the slot unsafe (so our
    ///   ticket's enqueuer can never strand a value) and take a fresh
    ///   ticket; the old value's own dequeuer consumes it regardless of
    ///   the safe bit.
    fn dequeue(&self) -> Option<u32> {
        loop {
            let h = self.head.load(Ordering::Acquire);
            let t = self.tail.load(Ordering::Acquire) & !CLOSED;
            if h >= t {
                return None;
            }
            if self
                .head
                .compare_exchange_weak(h, h + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            let cycle = h / RING as u64;
            let slot = &self.slots[(h % RING as u64) as usize];
            loop {
                let cur = slot.load(Ordering::Acquire);
                if slot_cycle(cur) == cycle && slot_idx(cur) != 0 {
                    // Consume, preserving the safe bit (an unsafe slot
                    // must stay unsafe: its skipped enqueuer may still
                    // show up).
                    if slot
                        .compare_exchange(
                            cur,
                            pack(slot_safe(cur), cycle + 1, 0),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return Some(slot_idx(cur) - 1);
                    }
                } else if slot_cycle(cur) > cycle {
                    break; // our ticket was skipped; take the next one
                } else if slot_idx(cur) == 0 {
                    // Empty: skip this cycle so the late enqueuer retries
                    // elsewhere.
                    if slot
                        .compare_exchange(
                            cur,
                            pack(slot_safe(cur), cycle + 1, 0),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        break;
                    }
                } else {
                    // Older-cycle value still parked: poison the slot and
                    // abandon the ticket.
                    if slot
                        .compare_exchange(
                            cur,
                            pack(false, slot_cycle(cur), slot_idx(cur)),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        break;
                    }
                }
            }
        }
    }

    /// Whether the ring is closed and fully drained.
    fn closed_and_empty(&self) -> bool {
        let t = self.tail.load(Ordering::Acquire);
        t & CLOSED != 0 && self.head.load(Ordering::Acquire) >= (t & !CLOSED)
    }
}

/// The LCRQ: a Michael-Scott list of CRQs with an indirect descriptor
/// slab.
pub struct Lcrq {
    head: AtomicPtr<Crq>,
    tail: AtomicPtr<Crq>,
    slab: DescSlab,
    /// Exact occupancy (ring tail tickets overshoot on contention, so
    /// ring arithmetic cannot provide this).
    size: AtomicU64,
    /// Retired rings (kept until drop; safe reclamation without hazard
    /// pointers — ring memory is bounded by total overflow events).
    retired: SpinLock<Vec<*mut Crq>>,
}

// SAFETY: all shared state is atomics/locks; descriptors are owned by
// exactly one side at a time per the ring protocol.
unsafe impl Send for Lcrq {}
unsafe impl Sync for Lcrq {}

impl Lcrq {
    /// Creates an empty queue.
    pub fn new() -> Lcrq {
        let first = Box::into_raw(Crq::new());
        Lcrq {
            head: AtomicPtr::new(first),
            tail: AtomicPtr::new(first),
            slab: DescSlab::new(),
            size: AtomicU64::new(0),
            retired: SpinLock::new(Vec::new()),
        }
    }

    /// Enqueues a descriptor (never fails, never blocks on consumers).
    pub fn push(&self, desc: CompDesc) {
        let idx = self.slab.put(desc);
        self.size.fetch_add(1, Ordering::AcqRel);
        loop {
            let tail = self.tail.load(Ordering::Acquire);
            // SAFETY: rings are only retired (not freed) while the queue
            // lives.
            let crq = unsafe { &*tail };
            if crq.enqueue(idx) {
                return;
            }
            // Ring closed: append a new CRQ (or chase an existing next).
            let next = crq.next.load(Ordering::Acquire);
            if next.is_null() {
                let fresh = Box::into_raw(Crq::new());
                // SAFETY: fresh is valid; we only install it once.
                unsafe {
                    (*fresh).enqueue(idx);
                }
                match crq.next.compare_exchange(
                    std::ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        let _ = self.tail.compare_exchange(
                            tail,
                            fresh,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        return;
                    }
                    Err(_) => {
                        // Someone else appended: retire our fresh ring
                        // after pulling the value back out.
                        // SAFETY: we exclusively own `fresh`.
                        unsafe {
                            let _ = (*fresh).dequeue();
                            drop(Box::from_raw(fresh));
                        }
                        let _ = idx; // still parked; retry the loop
                    }
                }
            } else {
                let _ = self.tail.compare_exchange(tail, next, Ordering::AcqRel, Ordering::Acquire);
            }
        }
    }

    /// Dequeues a descriptor if available.
    pub fn pop(&self) -> Option<CompDesc> {
        loop {
            let head = self.head.load(Ordering::Acquire);
            // SAFETY: retired rings outlive the queue.
            let crq = unsafe { &*head };
            if let Some(idx) = crq.dequeue() {
                self.size.fetch_sub(1, Ordering::AcqRel);
                return Some(self.slab.take(idx));
            }
            if !crq.closed_and_empty() {
                return None;
            }
            let next = crq.next.load(Ordering::Acquire);
            if next.is_null() {
                return None;
            }
            if self.head.compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                self.retired.lock().push(head);
            }
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.size.load(Ordering::Acquire) as usize
    }
}

impl Default for Lcrq {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Lcrq {
    fn drop(&mut self) {
        // Drain remaining descriptors so their buffers free.
        while self.pop().is_some() {}
        let mut p = self.head.load(Ordering::Relaxed);
        while !p.is_null() {
            // SAFETY: exclusive access in drop.
            let next = unsafe { (*p).next.load(Ordering::Relaxed) };
            unsafe { drop(Box::from_raw(p)) };
            p = next;
        }
        for r in self.retired.lock().drain(..) {
            // Retired rings were unlinked; free them (they are not part
            // of the head list anymore).
            // SAFETY: exclusive access in drop; each retired pointer was
            // unlinked exactly once.
            unsafe { drop(Box::from_raw(r)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn desc(tag: u32) -> CompDesc {
        CompDesc { tag, ..Default::default() }
    }

    #[test]
    fn fifo_single_thread() {
        let q = Lcrq::new();
        assert!(q.pop().is_none());
        for i in 0..3000 {
            q.push(desc(i));
        }
        for i in 0..3000 {
            assert_eq!(q.pop().unwrap().tag, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_to_next_ring() {
        let q = Lcrq::new();
        // More than one ring's worth without any pops: must chain CRQs.
        let n = (RING * 3) as u32;
        for i in 0..n {
            q.push(desc(i));
        }
        assert_eq!(q.len(), n as usize);
        for i in 0..n {
            assert_eq!(q.pop().unwrap().tag, i, "at {i}");
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop() {
        let q = Lcrq::new();
        let mut next_push = 0u32;
        let mut next_pop = 0u32;
        for round in 0..1000 {
            for _ in 0..(round % 7) + 1 {
                q.push(desc(next_push));
                next_push += 1;
            }
            for _ in 0..(round % 5) + 1 {
                if let Some(d) = q.pop() {
                    assert_eq!(d.tag, next_pop);
                    next_pop += 1;
                }
            }
        }
        while let Some(d) = q.pop() {
            assert_eq!(d.tag, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, next_push);
    }

    #[test]
    fn mpmc_no_loss_no_dup() {
        let q = Arc::new(Lcrq::new());
        let producers: u32 = 3;
        let per: u32 = 4000;
        let total = (producers * per) as usize;
        let seen = Arc::new((0..total).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let done = Arc::new(AtomicUsize::new(0));
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
            let seen = seen.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                while done.load(Ordering::Relaxed) < total {
                    if let Some(d) = q.pop() {
                        seen[d.tag as usize].fetch_add(1, Ordering::Relaxed);
                        done.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::Relaxed), 1, "element {i}");
        }
    }

    #[test]
    fn per_producer_order_preserved() {
        // FIFO per producer: a single producer's elements come out in
        // order even with a racing consumer.
        let q = Arc::new(Lcrq::new());
        let q2 = q.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..20_000u32 {
                q2.push(desc(i));
            }
        });
        let mut last = None;
        let mut got = 0;
        while got < 20_000 {
            if let Some(d) = q.pop() {
                if let Some(l) = last {
                    assert!(d.tag > l, "order violated: {} after {}", d.tag, l);
                }
                last = Some(d.tag);
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
