//! Offline stand-in for the `crossbeam` crate.
//!
//! Implements the subset the workspace uses — `queue::{SegQueue,
//! ArrayQueue}`, `deque::{Worker, Stealer, Injector, Steal}`,
//! `utils::Backoff`. `ArrayQueue` is upstream's own lock-free algorithm
//! (it sits on every backend's per-message path); `SegQueue` and
//! `deque::*` are stand-ins on a short-spin mutex, syscall-free in the
//! common (uncontended) case.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Minimal test-and-test-and-set spinlock used by the queue types below.
struct Spin<T> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

unsafe impl<T: Send> Send for Spin<T> {}
unsafe impl<T: Send> Sync for Spin<T> {}

impl<T> Spin<T> {
    fn new(value: T) -> Self {
        Self { locked: AtomicBool::new(false), value: UnsafeCell::new(value) }
    }

    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut spins = 0u32;
        loop {
            if !self.locked.swap(true, Ordering::Acquire) {
                break;
            }
            while self.locked.load(Ordering::Relaxed) {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        // Safety: the `locked` flag gives us exclusive access.
        let out = f(unsafe { &mut *self.value.get() });
        self.locked.store(false, Ordering::Release);
        out
    }
}

pub mod queue {
    use super::utils::Backoff;
    use super::*;

    /// Unbounded MPMC FIFO queue (stand-in for crossbeam's segmented
    /// lock-free queue; here a spinlocked ring).
    pub struct SegQueue<T> {
        inner: Spin<VecDeque<T>>,
    }

    impl<T> SegQueue<T> {
        pub fn new() -> Self {
            Self { inner: Spin::new(VecDeque::new()) }
        }

        pub fn push(&self, value: T) {
            self.inner.with(|q| q.push_back(value));
        }

        pub fn pop(&self) -> Option<T> {
            self.inner.with(|q| q.pop_front())
        }

        pub fn len(&self) -> usize {
            self.inner.with(|q| q.len())
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    /// Keeps the two ends of an [`ArrayQueue`] on cache lines of their
    /// own (two lines: x86 prefetches them in pairs), so pushers and
    /// poppers do not invalidate each other's counter.
    #[repr(align(128))]
    struct CachePadded<T>(T);

    /// One cell of an [`ArrayQueue`].
    struct Slot<T> {
        /// Whose turn the cell is, in positions (`ArrayQueue::head` says
        /// what one is): `p` — empty, for the push that claims position
        /// `p`; `p + 1` — holds that push's value, for the pop that
        /// claims `p`; after which it reads `p + one_lap`, the position
        /// that maps onto this cell a lap later.
        stamp: AtomicUsize,
        value: UnsafeCell<MaybeUninit<T>>,
    }

    /// Bounded MPMC FIFO queue: crossbeam's `ArrayQueue`, which is
    /// Dmitry Vyukov's bounded ring with a stamp per slot. Lock-free —
    /// a `push` or a `pop` is one CAS on its own end's counter plus a
    /// release store of the slot's stamp, and `len`, `is_empty` and
    /// `is_full` are loads. The slots are allocated in `new` and nothing
    /// after it, so push/pop are allocation-free for the queue's whole
    /// lifetime.
    ///
    /// Two departures from upstream, both where an operation finds its
    /// slot not ready. It re-reads the *other* end's counter with a
    /// `SeqCst` load where upstream has a `SeqCst` fence and a relaxed
    /// load: the load takes the fence's place in the one total order of
    /// the `SeqCst` operations (the claims are `SeqCst` CASes), and a
    /// poll that finds the ring empty — every poll's last `pop` — pays
    /// no `mfence`. And a thread waiting for a claimed slot to be
    /// published or released spins, then yields (`Backoff::snooze`),
    /// where upstream only spins: the claimant may be a thread this one
    /// shares its core with.
    pub struct ArrayQueue<T> {
        /// Position of the next pop. A position is `lap | index`: the
        /// low bits (below `one_lap`) index `buffer` and stay below
        /// `cap`, the high bits count laps — so a slot's stamp tells a
        /// position from the same index one lap on, whatever `cap` is.
        head: CachePadded<AtomicUsize>,
        /// Position of the next push.
        tail: CachePadded<AtomicUsize>,
        buffer: Box<[Slot<T>]>,
        /// The smallest power of two above `cap`.
        one_lap: usize,
    }

    // SAFETY: the queue owns its `T`s and hands each to exactly one
    // popper, possibly on another thread (`T: Send`); it never shares a
    // `&T`. `head`, `tail` and the stamps are atomics, and a slot's value
    // is only touched by the one thread its stamp admits (see `push` and
    // `pop`).
    unsafe impl<T: Send> Send for ArrayQueue<T> {}
    // SAFETY: as above.
    unsafe impl<T: Send> Sync for ArrayQueue<T> {}

    impl<T> ArrayQueue<T> {
        /// Creates a queue holding at most `cap` items.
        ///
        /// # Panics
        /// Panics if `cap` is zero (matches crossbeam).
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "ArrayQueue capacity must be non-zero");
            // Lap 0: slot `i` awaits the push at position `i`.
            let buffer = (0..cap)
                .map(|i| Slot {
                    stamp: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect();
            Self {
                head: CachePadded(AtomicUsize::new(0)),
                tail: CachePadded(AtomicUsize::new(0)),
                buffer,
                one_lap: (cap + 1).next_power_of_two(),
            }
        }

        /// The position after `pos`: the next index, or index 0 of the
        /// next lap once `cap` is reached.
        #[inline]
        fn next(&self, pos: usize) -> usize {
            let index = pos & (self.one_lap - 1);
            if index + 1 < self.buffer.len() {
                pos + 1
            } else {
                (pos & !(self.one_lap - 1)).wrapping_add(self.one_lap)
            }
        }

        /// Pushes `value`, handing it back if the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let backoff = Backoff::new();
            let mut tail = self.tail.0.load(Ordering::Relaxed);
            loop {
                let slot = &self.buffer[tail & (self.one_lap - 1)];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == tail {
                    // The slot is empty and ours if we claim `tail`.
                    match self.tail.0.compare_exchange_weak(
                        tail,
                        self.next(tail),
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the stamp said `tail` (the pop a
                            // lap ago is done with the slot) and the CAS
                            // made this thread the one push at `tail`;
                            // no pop reads the slot before the stamp
                            // below says `tail + 1`.
                            unsafe { slot.value.get().write(MaybeUninit::new(value)) };
                            slot.stamp.store(tail + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(t) => {
                            tail = t;
                            backoff.spin();
                        }
                    }
                } else {
                    // Full, if the slot still holds last lap's value and
                    // no pop has claimed it. Otherwise that pop is about
                    // to restamp the slot, or `tail` was stale (others
                    // pushed past it): look again.
                    if stamp.wrapping_add(self.one_lap) == tail + 1
                        && self.head.0.load(Ordering::SeqCst).wrapping_add(self.one_lap) == tail
                    {
                        return Err(value);
                    }
                    backoff.snooze();
                    tail = self.tail.0.load(Ordering::Relaxed);
                }
            }
        }

        /// Pops the oldest item, `None` if the queue is empty. A push
        /// that has claimed the head position but not yet published its
        /// value is waited for (spinning, then yielding the core): the
        /// queue is not empty, and the items behind it must not overtake.
        pub fn pop(&self) -> Option<T> {
            let backoff = Backoff::new();
            let mut head = self.head.0.load(Ordering::Relaxed);
            loop {
                let slot = &self.buffer[head & (self.one_lap - 1)];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == head + 1 {
                    // The slot holds the value pushed at `head`.
                    match self.head.0.compare_exchange_weak(
                        head,
                        self.next(head),
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the stamp said `head + 1` (the push
                            // at `head` has written the value and
                            // released it) and the CAS made this thread
                            // the one pop at `head`; no push writes the
                            // slot before the stamp below says
                            // `head + one_lap`.
                            let value = unsafe { slot.value.get().read().assume_init() };
                            slot.stamp.store(head.wrapping_add(self.one_lap), Ordering::Release);
                            return Some(value);
                        }
                        Err(h) => {
                            head = h;
                            backoff.spin();
                        }
                    }
                } else {
                    // Empty, if the slot has not been pushed this lap and
                    // no push has claimed it. Otherwise that push is
                    // about to publish, or `head` was stale (others
                    // popped past it): look again.
                    if stamp == head && self.tail.0.load(Ordering::SeqCst) == head {
                        return None;
                    }
                    backoff.snooze();
                    head = self.head.0.load(Ordering::Relaxed);
                }
            }
        }

        /// Items queued, pushes and pops in flight counted by their
        /// claim. Exact for the moment `head` was read.
        pub fn len(&self) -> usize {
            loop {
                let tail = self.tail.0.load(Ordering::SeqCst);
                let head = self.head.0.load(Ordering::SeqCst);
                // `tail` unmoved around the read of `head`: a snapshot.
                if self.tail.0.load(Ordering::SeqCst) == tail {
                    let (hix, tix) = (head & (self.one_lap - 1), tail & (self.one_lap - 1));
                    return if hix < tix {
                        tix - hix
                    } else if hix > tix {
                        self.capacity() - hix + tix
                    } else if tail == head {
                        0
                    } else {
                        self.capacity()
                    };
                }
            }
        }

        pub fn capacity(&self) -> usize {
            self.buffer.len()
        }

        pub fn is_empty(&self) -> bool {
            let head = self.head.0.load(Ordering::SeqCst);
            self.tail.0.load(Ordering::SeqCst) == head
        }

        pub fn is_full(&self) -> bool {
            let tail = self.tail.0.load(Ordering::SeqCst);
            self.head.0.load(Ordering::SeqCst).wrapping_add(self.one_lap) == tail
        }
    }

    impl<T> Drop for ArrayQueue<T> {
        /// Drops what is still queued, each item once (`&mut self`: no
        /// push is in flight, so `pop` never waits).
        fn drop(&mut self) {
            while self.pop().is_some() {}
        }
    }
}

pub mod deque {
    use super::*;

    /// Result of a steal attempt.
    pub enum Steal<T> {
        Empty,
        Success(T),
        Retry,
    }

    impl<T> Steal<T> {
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(v) => Some(v),
                _ => None,
            }
        }

        pub fn is_retry(&self) -> bool {
            matches!(self, Steal::Retry)
        }

        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }

        pub fn is_success(&self) -> bool {
            matches!(self, Steal::Success(_))
        }
    }

    /// Owner-side handle of a work-stealing deque.
    pub struct Worker<T> {
        inner: Arc<Spin<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        pub fn new_fifo() -> Self {
            Self { inner: Arc::new(Spin::new(VecDeque::new())) }
        }

        pub fn new_lifo() -> Self {
            Self::new_fifo()
        }

        pub fn push(&self, value: T) {
            self.inner.with(|q| q.push_back(value));
        }

        pub fn pop(&self) -> Option<T> {
            self.inner.with(|q| q.pop_front())
        }

        pub fn is_empty(&self) -> bool {
            self.inner.with(|q| q.is_empty())
        }

        pub fn stealer(&self) -> Stealer<T> {
            Stealer { inner: self.inner.clone() }
        }
    }

    /// Thief-side handle of a work-stealing deque.
    pub struct Stealer<T> {
        inner: Arc<Spin<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Self { inner: self.inner.clone() }
        }
    }

    impl<T> Stealer<T> {
        pub fn steal(&self) -> Steal<T> {
            match self.inner.with(|q| q.pop_front()) {
                Some(v) => Steal::Success(v),
                None => Steal::Empty,
            }
        }
    }

    /// Global FIFO injector queue.
    pub struct Injector<T> {
        inner: Spin<VecDeque<T>>,
    }

    impl<T> Injector<T> {
        pub fn new() -> Self {
            Self { inner: Spin::new(VecDeque::new()) }
        }

        pub fn push(&self, value: T) {
            self.inner.with(|q| q.push_back(value));
        }

        pub fn steal(&self) -> Steal<T> {
            match self.inner.with(|q| q.pop_front()) {
                Some(v) => Steal::Success(v),
                None => Steal::Empty,
            }
        }

        /// Steals a batch into `dest`, returning the first stolen item.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut batch = self.inner.with(|q| {
                let n = (q.len() / 2 + 1).min(32).min(q.len());
                q.drain(..n).collect::<Vec<_>>()
            });
            if batch.is_empty() {
                return Steal::Empty;
            }
            let first = batch.remove(0);
            for item in batch {
                dest.push(item);
            }
            Steal::Success(first)
        }

        pub fn is_empty(&self) -> bool {
            self.inner.with(|q| q.is_empty())
        }
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }
}

pub mod utils {
    use super::*;

    /// Exponential backoff for spin loops.
    pub struct Backoff {
        step: Cell<u32>,
    }

    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    impl Backoff {
        pub fn new() -> Self {
            Self { step: Cell::new(0) }
        }

        pub fn reset(&self) {
            self.step.set(0);
        }

        pub fn spin(&self) {
            for _ in 0..(1u32 << self.step.get().min(SPIN_LIMIT)) {
                std::hint::spin_loop();
            }
            if self.step.get() <= SPIN_LIMIT {
                self.step.set(self.step.get() + 1);
            }
        }

        pub fn snooze(&self) {
            if self.step.get() <= SPIN_LIMIT {
                for _ in 0..(1u32 << self.step.get()) {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
            if self.step.get() <= YIELD_LIMIT {
                self.step.set(self.step.get() + 1);
            }
        }

        pub fn is_completed(&self) -> bool {
            self.step.get() > YIELD_LIMIT
        }
    }

    impl Default for Backoff {
        fn default() -> Self {
            Self::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::deque::{Injector, Worker};
    use super::queue::{ArrayQueue, SegQueue};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn arrayqueue_bounds_and_fifo() {
        let q: ArrayQueue<u32> = ArrayQueue::new(2);
        assert!(q.is_empty());
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(q.is_full());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert_eq!(q.capacity(), 2);
    }

    /// Every capacity from 1 to 9 (so: below, at and above a power of
    /// two), random operations checked against a `VecDeque`, in phases
    /// that lean towards pushing and then towards popping so that the
    /// ring is driven full, drained empty and round its buffer many
    /// times. A wrong lap or stamp computation shows as a wrong answer
    /// or as a `push`/`pop` that never returns.
    #[test]
    fn arrayqueue_matches_vecdeque_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for cap in 1..=9usize {
            let q: ArrayQueue<u64> = ArrayQueue::new(cap);
            let mut model = VecDeque::new();
            let (mut pushed, mut was_full, mut was_empty) = (0u64, 0, 0);
            for step in 0..4000 {
                let push_bias = if (step / 50) % 2 == 0 { 3 } else { 1 };
                if next() % 4 < push_bias {
                    let res = q.push(pushed);
                    if model.len() < cap {
                        assert_eq!(res, Ok(()), "cap {cap}: push refused below capacity");
                        model.push_back(pushed);
                        pushed += 1;
                    } else {
                        assert_eq!(res, Err(pushed), "cap {cap}: push accepted when full");
                        was_full += 1;
                    }
                } else {
                    assert_eq!(q.pop(), model.pop_front(), "cap {cap}: pop");
                    was_empty += usize::from(model.is_empty());
                }
                assert_eq!(q.len(), model.len(), "cap {cap}: len");
                assert_eq!(q.is_empty(), model.is_empty(), "cap {cap}: is_empty");
                assert_eq!(q.is_full(), model.len() == cap, "cap {cap}: is_full");
            }
            assert_eq!(q.capacity(), cap);
            assert!(pushed >= 3 * cap as u64, "cap {cap}: only {pushed} pushes, under 3 laps");
            assert!(was_full > 0 && was_empty > 0, "cap {cap}: never full or never empty");
        }
    }

    /// 3 producers and 2 consumers on a ring of 7 (not a power of two,
    /// far smaller than the traffic, so every push and pop races a lap
    /// wrap and the full and empty paths): every item arrives exactly
    /// once, each consumer sees each producer's items in the order they
    /// were pushed, and `len` never reads above the capacity.
    #[test]
    fn arrayqueue_mpmc_stress() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: usize = 20_000;
        let q: ArrayQueue<(usize, usize)> = ArrayQueue::new(7);
        let popped = AtomicUsize::new(0);
        let start = Barrier::new(PRODUCERS + CONSUMERS);
        let got: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (q, start) = (&q, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_PRODUCER {
                        while q.push((p, i)).is_err() {
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

    /// The ring moves values, it never drops one it handed out, and it
    /// drops what is still queued exactly once when it goes — also when
    /// the queued stretch wraps round the end of the buffer.
    #[test]
    fn arrayqueue_drops_what_is_left_exactly_once() {
        struct Counted<'a>(&'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = AtomicUsize::new(0);
        let q = ArrayQueue::new(7);
        for _ in 0..5 {
            assert!(q.push(Counted(&drops)).is_ok());
        }
        let held: Vec<_> = (0..5).map(|_| q.pop().unwrap()).collect();
        // Positions 5, 6 and, on the next lap, 0, 1, 2.
        for _ in 0..5 {
            assert!(q.push(Counted(&drops)).is_ok());
        }
        let sixth = q.pop().unwrap();
        assert_eq!(drops.load(Ordering::Relaxed), 0, "the ring dropped an item it handed out");
        drop(q);
        assert_eq!(drops.load(Ordering::Relaxed), 4, "queued items not dropped once each");
        drop((held, sixth));
        assert_eq!(drops.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn segqueue_fifo_mpmc() {
        let q = SegQueue::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..1000 {
                        q.push(t * 1000 + i);
                    }
                });
            }
        });
        let mut seen = 0;
        while q.pop().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 4000);
        assert!(q.is_empty());
    }

    #[test]
    fn deque_steal_paths() {
        let local = Worker::new_fifo();
        let inj = Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        let first = inj.steal_batch_and_pop(&local).success().unwrap();
        assert_eq!(first, 0);
        let stealer = local.stealer();
        let mut got = vec![first];
        while let Some(v) = local.pop().or_else(|| stealer.steal().success()) {
            got.push(v);
        }
        while let Some(v) = inj.steal().success() {
            got.push(v);
        }
        got.sort();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }
}
