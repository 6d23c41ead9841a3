//! The one bounded lock-free MPMC ring, under both lock-free queues of
//! the message path: a device's CQE staging ring, which the "NIC"
//! writes without a lock (paper §4.2.3, `dev_shared`), and the
//! completion queue (§4.1.4, `lci::CompQueue`).
//!
//! The algorithm is crossbeam's bounded array queue, which is Dmitry
//! Vyukov's ring with a stamp per slot: a push or a pop is one CAS on
//! its own end's counter plus a release store of the slot's stamp, and
//! `len`, `is_empty` and `is_full` are loads. Two departures from
//! upstream, both where an operation finds its slot not ready. It
//! re-reads the *other* end's counter with a `SeqCst` load where
//! upstream has a `SeqCst` fence and a relaxed load: the load takes the
//! fence's place in the one total order of the `SeqCst` operations (the
//! claims are `SeqCst` CASes), and a poll that finds the ring empty —
//! every poll's last `pop` — pays no `mfence`. And a thread waiting for
//! a claimed slot to be published or released spins, then yields
//! (`Backoff::snooze`), where upstream only spins: the claimant may be a
//! thread this one shares its core with.
//!
//! One addition: [`MpmcRing::drain`], for a caller that is the ring's
//! only popper while it runs (the staging ring's poller, under the CQ
//! lock). It takes the run queued at `head`, restamps each slot, and
//! moves `head` past the run with one store: a poll that hands out 32
//! completions pays one store where 32 pops paid 32 CASes.
//!
//! The ring is a zero-filled anonymous mapping, not heap: its two
//! counters, then its slots. A slot stores its stamp *less its own
//! index*, so all-zero memory is an empty ring and creating one writes
//! nothing, whatever its capacity (a completion queue's 5.5 MiB of slots
//! cost a page fault each, or nothing, by what the allocator had
//! recycled: DESIGN.md §4.7). A page is faulted in when the ring first
//! reaches it.

use crate::shm::os::Mapping;
use crossbeam::utils::Backoff;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One cell of an [`MpmcRing`].
struct Slot<T> {
    /// Whose turn the cell is, in positions ([`MpmcRing::head`] says
    /// what one is) less the cell's index: for position `p` on this
    /// cell, whose lap is `p & !mask`, the lap — empty, for the push
    /// that claims `p`; the lap + 1 — holds that push's value, for the
    /// pop that claims `p`; after which it reads the lap + `cap`, the
    /// lap of the position that maps onto this cell next. A cell never
    /// used reads 0: empty, for the push at its own index.
    stamp: AtomicUsize,
    /// Initialized exactly while `stamp` says "holds".
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bytes of the mapping before its first slot: `head` on the first
/// two cache lines, `tail` on the next two (x86 prefetches lines in
/// pairs), so pushers and poppers do not invalidate each other's counter.
const ENDS: usize = 256;

/// A slot claimed for one push or pop, and the lap of its position;
/// `None` when the ring was full (a push) or empty (a pop).
type Claim<'a, T> = Option<(&'a Slot<T>, usize)>;

/// An attempt that found its slot not ready: another thread claimed it
/// first or is between its claim and its stamp store, or the attempt
/// read a stale end. Look again.
struct Busy;

type Attempt<'a, T> = Result<Claim<'a, T>, Busy>;

/// A bounded lock-free MPMC FIFO ring of `T`s (see the module docs).
pub struct MpmcRing<T> {
    /// `head`, `tail` and `cap` slots, zero-filled when mapped.
    map: Mapping,
    /// `cap - 1`. `cap` is a power of two and at least 2: on one slot
    /// "holds the value pushed at `p`" and "empty, for the push at
    /// `p + 1`" would be the same stamp.
    mask: usize,
    _owns: PhantomData<T>,
}

// SAFETY: the ring owns its `T`s and hands each to exactly one popper,
// possibly on another thread (`T: Send`); it never shares a `&T`. What
// threads share in the mapping — `head`, `tail` and the stamps — is
// atomic, a slot's value is only touched by the one thread its stamp
// admits (see `try_push` and `pop`; `drain`'s caller excludes every
// other popper), and `mask` is not written after `new`.
unsafe impl<T: Send> Send for MpmcRing<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for MpmcRing<T> {}

impl<T> MpmcRing<T> {
    /// A ring of `cap` slots, rounded up to a power of two (at least 2).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        // The mapping is page-aligned, so the slots are `ENDS`-aligned.
        assert!(std::mem::align_of::<Slot<T>>() <= ENDS, "MpmcRing item over-aligned");
        let map = Mapping::anonymous(ENDS + cap * std::mem::size_of::<Slot<T>>())
            .expect("map an MpmcRing");
        Self { map, mask: cap - 1, _owns: PhantomData }
    }

    /// Position of the next pop: the number of pops claimed so far.
    /// `pos & mask` indexes the slots and the rest is the position's lap,
    /// so a slot's stamp tells a position from the same index one lap on.
    fn head(&self) -> &AtomicUsize {
        // SAFETY: the mapping's first word, zero-filled (a valid atomic)
        // and page-aligned; it lives as long as `self`.
        unsafe { &*self.map.ptr().cast::<AtomicUsize>() }
    }

    /// Position of the next push.
    fn tail(&self) -> &AtomicUsize {
        // SAFETY: as for `head`, half-way to the first slot.
        unsafe { &*self.map.ptr().add(ENDS / 2).cast::<AtomicUsize>() }
    }

    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    fn slot(&self, pos: usize) -> &Slot<T> {
        // SAFETY: the mapping holds `mask + 1` slots after `ENDS`,
        // aligned and zero-filled, which is a valid `Slot` (a zero stamp
        // and an uninitialized value), and lives as long as `self`.
        unsafe { &*self.map.ptr().add(ENDS).cast::<Slot<T>>().add(pos & self.mask) }
    }

    /// Pushes `value`, handing it back only if `capacity()` items are
    /// queued.
    #[inline]
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let claim = self.try_claim_push().unwrap_or_else(|Busy| self.settle(Self::try_claim_push));
        let Some((slot, lap)) = claim else { return Err(value) };
        Self::publish(slot, lap, value);
        Ok(())
    }

    /// Pushes `value`, waiting (spinning, then yielding the core) while
    /// the ring is full: nothing is dropped or overwritten. A thread
    /// that is the ring's only consumer must not fill it.
    #[inline]
    pub fn push(&self, value: T) {
        match self.try_claim_push() {
            Ok(Some((slot, lap))) => Self::publish(slot, lap, value),
            _ => self.push_when_room(value),
        }
    }

    /// Writes `value` into `slot`, claimed for a push at lap `lap`, and
    /// hands it to the pop at its position.
    #[inline]
    fn publish(slot: &Slot<T>, lap: usize, value: T) {
        // SAFETY: the stamp said empty (the pop a lap ago is done with
        // the slot) and the claim's CAS made this thread the one push at
        // its position; no pop reads the slot before the stamp below says
        // it holds.
        unsafe { slot.value.get().write(MaybeUninit::new(value)) };
        slot.stamp.store(lap + 1, Ordering::Release);
    }

    /// Pops the oldest item, `None` only if the ring is empty. A push
    /// that has claimed the head position but not yet published its
    /// value is waited for (spinning, then yielding the core): the ring
    /// is not empty, and the items behind it must not overtake.
    ///
    /// Out of line, so the item is copied from its slot straight into
    /// the return slot: inlined into a caller's loop, the copy went
    /// through stack temporaries, split at the item's padding into
    /// overlapping moves that stall store forwarding (+10 ns a CQE on the
    /// staging ring's drain).
    #[inline(never)]
    pub fn pop(&self) -> Option<T> {
        let claim = self.try_claim_pop().unwrap_or_else(|Busy| self.settle(Self::try_claim_pop));
        let (slot, lap) = claim?;
        // SAFETY: the stamp said the push at the slot's position has
        // written the value and released it, and the claim's CAS made
        // this thread the one pop there; no push writes the slot before
        // the stamp below says it is empty for the next lap.
        let value = unsafe { slot.value.get().read().assume_init() };
        slot.stamp.store(lap.wrapping_add(self.capacity()), Ordering::Release);
        Some(value)
    }

    /// Pops up to `max` items, oldest first, handing each to `sink`, and
    /// returns how many: the drain of a caller that is the ring's only
    /// popper while it runs. It takes the run queued at `head`, restamps
    /// each slot it empties for the next lap, and then moves `head` past
    /// them with one store, where `pop` claims each item with a CAS. Like
    /// `pop`, it stops only at a position no push has claimed (a claimed
    /// slot is waited for until its push publishes), so every push that
    /// returned before the drain began is drained, up to `max`.
    ///
    /// Until the store, pushers see the drained slots free and the ring
    /// as long as it was; `len` and `is_full` read the old length. A
    /// `sink` that panics leaves `head` behind the slots it emptied, and
    /// the ring's next pop waits forever.
    ///
    /// # Safety
    /// No other `pop` or `drain` of this ring runs until this returns
    /// (every popper holds one lock, say). Two poppers would both read
    /// the value at `head`.
    pub unsafe fn drain(&self, max: usize, mut sink: impl FnMut(T)) -> usize {
        // Only poppers write `head`, and the caller excludes the others.
        let head = self.head().load(Ordering::Relaxed);
        let mut pos = head;
        while pos.wrapping_sub(head) < max {
            let (slot, lap) = (self.slot(pos), pos & !self.mask);
            if slot.stamp.load(Ordering::Acquire) != lap + 1 {
                // Empty at `pos`, unless a push claimed it and has yet to
                // publish (the `SeqCst` load, as in `try_claim_pop`).
                if self.tail().load(Ordering::SeqCst) == pos {
                    break;
                }
                Self::wait_published(slot, lap);
            }
            // SAFETY: the stamp says the push at `pos` has written the
            // value and released it, and this is the only popper, so
            // nobody else reads it; no push writes the slot before the
            // stamp below says it is empty for the next lap.
            let value = unsafe { slot.value.get().read().assume_init() };
            slot.stamp.store(lap.wrapping_add(self.capacity()), Ordering::Release);
            pos = pos.wrapping_add(1);
            sink(value);
        }
        if pos != head {
            // The one store that replaces each pop's claiming CAS. Not
            // `SeqCst` (a locked `xchg` on x86): a push that reads the new
            // `head` also sees the slots restamped, and one that reads the
            // old `head` finds the ring as full as it was before this
            // drain, which `try_push` reports as full.
            self.head().store(pos, Ordering::Release);
        }
        pos.wrapping_sub(head)
    }

    /// Waits (spinning, then yielding the core) until the push that
    /// claimed `slot` at lap `lap` has published its value.
    #[cold]
    #[inline(never)]
    fn wait_published(slot: &Slot<T>, lap: usize) {
        let backoff = Backoff::new();
        while slot.stamp.load(Ordering::Acquire) != lap + 1 {
            backoff.snooze();
        }
    }

    /// One attempt to claim the slot at `tail` for a push: the slot and
    /// the lap of its position, or `None` if the ring is full.
    #[inline]
    fn try_claim_push(&self) -> Attempt<'_, T> {
        let tail = self.tail().load(Ordering::Relaxed);
        let (slot, lap) = (self.slot(tail), tail & !self.mask);
        let stamp = slot.stamp.load(Ordering::Acquire);
        if stamp == lap {
            // The slot is empty and ours if we claim `tail`.
            let claimed = self.tail().compare_exchange(
                tail,
                tail.wrapping_add(1),
                Ordering::SeqCst,
                Ordering::Relaxed,
            );
            return claimed.map(|_| Some((slot, lap))).map_err(|_| Busy);
        }
        // Full, if the slot still holds last lap's value and no pop has
        // claimed it. Otherwise that pop is about to restamp the slot, or
        // `tail` was stale (others pushed past it).
        let full = stamp.wrapping_add(self.capacity()) == lap + 1
            && self.head().load(Ordering::SeqCst).wrapping_add(self.capacity()) == tail;
        if full {
            Ok(None)
        } else {
            Err(Busy)
        }
    }

    /// One attempt to claim the slot at `head` for a pop: the slot and
    /// the lap of its position, or `None` if the ring is empty.
    #[inline]
    fn try_claim_pop(&self) -> Attempt<'_, T> {
        let head = self.head().load(Ordering::Relaxed);
        let (slot, lap) = (self.slot(head), head & !self.mask);
        let stamp = slot.stamp.load(Ordering::Acquire);
        if stamp == lap + 1 {
            // The slot holds the value pushed at `head`.
            let claimed = self.head().compare_exchange(
                head,
                head.wrapping_add(1),
                Ordering::SeqCst,
                Ordering::Relaxed,
            );
            return claimed.map(|_| Some((slot, lap))).map_err(|_| Busy);
        }
        // Empty, if the slot has not been pushed this lap and no push has
        // claimed it. Otherwise that push is about to publish, or `head`
        // was stale (others popped past it).
        if stamp == lap && self.tail().load(Ordering::SeqCst) == head {
            Ok(None)
        } else {
            Err(Busy)
        }
    }

    /// Repeats `attempt` until it is not [`Busy`], backing off (spinning,
    /// then yielding the core) before each try. Out of line, like
    /// `push_when_room`, so that the attempts inline into their callers
    /// without a wait's spilled registers.
    #[cold]
    #[inline(never)]
    fn settle<'a>(&'a self, attempt: fn(&'a Self) -> Attempt<'a, T>) -> Claim<'a, T> {
        let backoff = Backoff::new();
        loop {
            backoff.snooze();
            if let Ok(claim) = attempt(self) {
                return claim;
            }
        }
    }

    /// [`push`](Self::push) once its first attempt found the ring full
    /// or its slot not ready.
    #[cold]
    #[inline(never)]
    fn push_when_room(&self, mut value: T) {
        let backoff = Backoff::new();
        loop {
            backoff.snooze();
            match self.try_push(value) {
                Ok(()) => return,
                Err(v) => value = v,
            }
        }
    }

    /// Items queued, pushes and pops in flight counted by their claim.
    /// Exact for the moment `head` was read.
    pub fn len(&self) -> usize {
        loop {
            let tail = self.tail().load(Ordering::SeqCst);
            let head = self.head().load(Ordering::SeqCst);
            // `tail` unmoved around the read of `head`: a snapshot.
            if self.tail().load(Ordering::SeqCst) == tail {
                return tail.wrapping_sub(head);
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        let head = self.head().load(Ordering::SeqCst);
        self.tail().load(Ordering::SeqCst) == head
    }

    pub fn is_full(&self) -> bool {
        let tail = self.tail().load(Ordering::SeqCst);
        self.head().load(Ordering::SeqCst).wrapping_add(self.capacity()) == tail
    }
}

impl<T> Drop for MpmcRing<T> {
    /// The mapping runs no destructor: drops what is still queued, each
    /// item once (`&mut self`: no push is in flight, so `pop` never
    /// waits).
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::MpmcRing;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn bounds_and_fifo() {
        let q: MpmcRing<u32> = MpmcRing::new(2);
        assert!(q.is_empty());
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(q.is_full());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        let caps = [0, 1, 2, 3, 5, 256].map(|cap| MpmcRing::<u32>::new(cap).capacity());
        assert_eq!(caps, [2, 2, 2, 4, 8, 256]);
    }

    /// Every requested capacity from 1 to 9 (so: rounded up or not),
    /// random operations checked against a `VecDeque`, in phases that
    /// lean towards pushing and then towards popping so that the ring is
    /// driven full, drained empty and round its slots many times. A
    /// wrong lap or stamp computation shows as a wrong answer or as a
    /// `try_push`/`pop` that never returns.
    #[test]
    fn matches_vecdeque_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for asked in 1..=9usize {
            let q: MpmcRing<u64> = MpmcRing::new(asked);
            let cap = q.capacity();
            let mut model = VecDeque::new();
            let (mut pushed, mut was_full, mut was_empty) = (0u64, 0, 0);
            for step in 0..4000 {
                let push_bias = if (step / 50) % 2 == 0 { 3 } else { 1 };
                let op = next() % 8;
                if op < 2 * push_bias {
                    let res = q.try_push(pushed);
                    if model.len() < cap {
                        assert_eq!(res, Ok(()), "cap {cap}: push refused below capacity");
                        model.push_back(pushed);
                        pushed += 1;
                    } else {
                        assert_eq!(res, Err(pushed), "cap {cap}: push accepted when full");
                        was_full += 1;
                    }
                } else if op < 7 {
                    assert_eq!(q.pop(), model.pop_front(), "cap {cap}: pop");
                    was_empty += usize::from(model.is_empty());
                } else {
                    // A batch of up to one past the capacity, 0 included.
                    let max = next() as usize % (cap + 2);
                    let mut got = Vec::new();
                    // SAFETY: this thread is the ring's only user.
                    let n = unsafe { q.drain(max, |v| got.push(v)) };
                    let want: Vec<u64> = model.drain(..max.min(model.len())).collect();
                    assert_eq!((n, got), (want.len(), want), "cap {cap}: drain of {max}");
                    was_empty += usize::from(model.is_empty());
                }
                assert_eq!(q.len(), model.len(), "cap {cap}: len");
                assert_eq!(q.is_empty(), model.is_empty(), "cap {cap}: is_empty");
                assert_eq!(q.is_full(), model.len() == cap, "cap {cap}: is_full");
            }
            assert!(pushed >= 3 * cap as u64, "cap {cap}: only {pushed} pushes, under 3 laps");
            assert!(was_full > 0 && was_empty > 0, "cap {cap}: never full or never empty");
        }
    }

    /// What `dev_shared::DevShared::poll` relies on: 3 producers push
    /// into a ring of 8 while one consumer drains it in batches of 1 to
    /// 8 under a lock, the way a poller drains the staging ring under
    /// the CQ lock. Every item arrives exactly once and in each
    /// producer's order, and `try_push` refuses only a full ring: at a
    /// refusal the ring held at least `cap` items by the counts the
    /// producers and the consumer publish around their operations.
    #[test]
    fn one_popper_drains_while_three_push() {
        const PRODUCERS: usize = 3;
        const PER_PRODUCER: usize = 30_000;
        let q: MpmcRing<(usize, usize)> = MpmcRing::new(8);
        let cap = q.capacity();
        let popper = std::sync::Mutex::new(Vec::new());
        // Pushes that have returned `Ok`, and items drained by drains
        // that have returned.
        let (pushed, drained) = (AtomicUsize::new(0), AtomicUsize::new(0));
        // Set by a producer that fails, so the consumer stops waiting.
        let failed = AtomicBool::new(false);
        let start = Barrier::new(PRODUCERS + 1);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (q, start, pushed, drained, failed) = (&q, &start, &pushed, &drained, &failed);
                s.spawn(move || {
                    start.wait();
                    let mut i = 0;
                    while i < PER_PRODUCER {
                        let gone = drained.load(Ordering::Acquire);
                        if q.try_push((p, i)).is_ok() {
                            pushed.fetch_add(1, Ordering::Release);
                            i += 1;
                            continue;
                        }
                        // Queued at the refusal: at most every returned
                        // push plus the other producers' claims in
                        // flight, less at least what had been drained
                        // before the attempt.
                        let most = pushed.load(Ordering::Acquire) + PRODUCERS - 1 - gone;
                        if most < cap {
                            failed.store(true, Ordering::Relaxed);
                            panic!("push refused with at most {most} of {cap} queued");
                        }
                        std::thread::yield_now();
                    }
                });
            }
            start.wait();
            let mut batch = 0;
            while drained.load(Ordering::Relaxed) < PRODUCERS * PER_PRODUCER
                && !failed.load(Ordering::Relaxed)
            {
                let mut got = popper.lock().unwrap();
                batch = batch % cap + 1;
                // SAFETY: every drain of `q` runs under `popper`.
                let n = unsafe { q.drain(batch, |item| got.push(item)) };
                assert!(n <= batch);
                drained.fetch_add(n, Ordering::Release);
                drop(got);
                if n == 0 {
                    std::thread::yield_now();
                }
            }
        });
        assert!(q.is_empty() && q.pop().is_none());
        let got = popper.into_inner().unwrap();
        assert_eq!(got.len(), PRODUCERS * PER_PRODUCER, "an item was lost or drained twice");
        let mut next = [0; PRODUCERS];
        for (p, i) in got {
            assert_eq!(i, next[p], "producer {p}: item {i} drained out of order");
            next[p] += 1;
        }
    }

    /// A fresh ring whose slots span four pages, pushed full and popped
    /// empty ten times: the first lap finds every slot as the kernel
    /// mapped it (all zero), the later ones as the previous lap's pops
    /// left it.
    #[test]
    fn ten_laps_through_a_fresh_multi_page_ring() {
        let q: MpmcRing<u64> = MpmcRing::new(1024);
        assert!(q.capacity() * std::mem::size_of::<super::Slot<u64>>() > 3 * 4096);
        for lap in 0..10u64 {
            let first = lap * 1024;
            for v in first..first + 1024 {
                q.try_push(v).unwrap();
            }
            assert!(q.is_full() && q.len() == 1024);
            assert_eq!(q.try_push(u64::MAX), Err(u64::MAX), "lap {lap}");
            for v in first..first + 1024 {
                assert_eq!(q.pop(), Some(v), "lap {lap}");
            }
            assert_eq!(q.pop(), None, "lap {lap}");
        }
    }

    /// 3 producers and 2 consumers on a ring of 8 (far smaller than the
    /// traffic, so every push and pop races a lap wrap and the full and
    /// empty paths): every item arrives exactly once, each consumer sees
    /// each producer's items in the order they were pushed, and `len`
    /// never reads above the capacity.
    #[test]
    fn mpmc_stress() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: usize = 20_000;
        let q: MpmcRing<(usize, usize)> = MpmcRing::new(8);
        let popped = AtomicUsize::new(0);
        let start = Barrier::new(PRODUCERS + CONSUMERS);
        let got: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (q, start) = (&q, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_PRODUCER {
                        while q.try_push((p, i)).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let (q, start, popped) = (&q, &start, &popped);
                    s.spawn(move || {
                        start.wait();
                        let mut got = Vec::new();
                        while popped.load(Ordering::Relaxed) < PRODUCERS * PER_PRODUCER {
                            assert!(q.len() <= q.capacity());
                            match q.pop() {
                                Some(item) => {
                                    popped.fetch_add(1, Ordering::Relaxed);
                                    got.push(item);
                                }
                                None => std::thread::yield_now(),
                            }
                        }
                        got
                    })
                })
                .collect();
            consumers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert!(q.is_empty() && q.pop().is_none());
        let mut seen = vec![vec![false; PER_PRODUCER]; PRODUCERS];
        for consumer in &got {
            let mut last = [None; PRODUCERS];
            for &(p, i) in consumer {
                assert!(last[p] < Some(i), "producer {p}: {i} popped after {:?}", last[p]);
                last[p] = Some(i);
                assert!(!std::mem::replace(&mut seen[p][i], true), "({p}, {i}) popped twice");
            }
        }
        assert!(seen.iter().flatten().all(|&s| s), "an item was lost");
    }

    /// What `dev_shared::DevShared::stage_cqe` orders by: a `None` from
    /// `pop` means every push that had returned before the pop began has
    /// been popped — also while a push that claimed an earlier position
    /// is still writing. One consumer, four producers (more threads than
    /// cores, so some are preempted between their claim and their write)
    /// that count each push once it has returned. The consumer drains
    /// everything before asserting, so a violation fails instead of
    /// leaving the producers waiting on a full ring.
    #[test]
    fn pop_returns_none_only_when_empty() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 200_000;
        let q: MpmcRing<usize> = MpmcRing::new(8);
        let returned = AtomicUsize::new(0);
        let early_nones = std::thread::scope(|s| {
            for _ in 0..PRODUCERS {
                let (q, returned) = (&q, &returned);
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(i);
                        returned.fetch_add(1, Ordering::Release);
                    }
                });
            }
            let (mut popped, mut early_nones) = (0, 0);
            while popped < PRODUCERS * PER_PRODUCER {
                let before = returned.load(Ordering::Acquire);
                match q.pop() {
                    Some(_) => popped += 1,
                    None => early_nones += usize::from(popped < before),
                }
            }
            early_nones
        });
        assert_eq!(early_nones, 0, "pop returned None on a ring holding returned pushes");
    }

    /// The ring moves values, it never drops one it handed out, and it
    /// drops what is still queued exactly once when it goes — also when
    /// the queued stretch wraps round the end of the slots.
    #[test]
    fn drops_what_is_left_exactly_once() {
        struct Counted<'a>(&'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = AtomicUsize::new(0);
        let q = MpmcRing::new(8);
        for _ in 0..6 {
            assert!(q.try_push(Counted(&drops)).is_ok());
        }
        let held: Vec<_> = (0..6).map(|_| q.pop().unwrap()).collect();
        // Positions 6, 7 and, on the next lap, 0, 1, 2.
        for _ in 0..5 {
            assert!(q.try_push(Counted(&drops)).is_ok());
        }
        let seventh = q.pop().unwrap();
        assert_eq!(drops.load(Ordering::Relaxed), 0, "the ring dropped an item it handed out");
        drop(q);
        assert_eq!(drops.load(Ordering::Relaxed), 4, "queued items not dropped once each");
        drop((held, seventh));
        assert_eq!(drops.load(Ordering::Relaxed), 11);
    }
}
