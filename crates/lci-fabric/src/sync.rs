//! Threading-efficiency primitives shared by the fabric and the LCI
//! runtime: a spinlock with first-class `try_lock`, the *trylock wrapper*
//! of paper §4.2.2, the resizable MPMC array of paper §4.1.1, and the
//! [`Doorbell`] eventcount a poller can park on instead of
//! spin-polling.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A simple test-and-test-and-set spinlock.
///
/// Lower-level network stacks (libibverbs, libfabric) protect their queue
/// structures with spinlocks; we model the same. Unlike `parking_lot`
/// mutexes, a failed `try_lock` here costs a single atomic read-modify-
/// write and never syscalls, matching the behaviour the paper's trylock
/// wrapper (§4.2.2) relies on.
pub struct SpinLock<T: ?Sized> {
    locked: AtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: SpinLock provides mutual exclusion for `data`; it is Sync as
// long as the protected data may be sent across threads.
unsafe impl<T: ?Sized + Send> Sync for SpinLock<T> {}
unsafe impl<T: ?Sized + Send> Send for SpinLock<T> {}

/// RAII guard for [`SpinLock`].
pub struct SpinGuard<'a, T: ?Sized> {
    lock: &'a SpinLock<T>,
}

impl<T> SpinLock<T> {
    /// Creates a new unlocked spinlock.
    pub const fn new(data: T) -> Self {
        Self { locked: AtomicBool::new(false), data: UnsafeCell::new(data) }
    }

    /// Consumes the lock, returning the protected data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> SpinLock<T> {
    /// Attempts to acquire the lock without spinning.
    ///
    /// This is the primitive behind the trylock wrapper: a failure is
    /// reported to the caller (ultimately as an LCI `retry` status)
    /// instead of blocking the thread.
    #[inline]
    pub fn try_lock(&self) -> Option<SpinGuard<'_, T>> {
        // Test first to avoid bouncing the cache line on contention.
        if self.locked.load(Ordering::Relaxed) {
            return None;
        }
        if self.locked.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok() {
            Some(SpinGuard { lock: self })
        } else {
            None
        }
    }

    /// Acquires the lock, spinning until it is available.
    ///
    /// Used to model *blocking* acquisition inside the lower-level network
    /// stack (the behaviour LCI's trylock wrapper exists to avoid).
    /// After a bounded spin the waiter yields: on an oversubscribed host
    /// (this reproduction's single-core CI box) a preempted holder would
    /// otherwise cost every waiter a full scheduler quantum.
    #[inline]
    pub fn lock(&self) -> SpinGuard<'_, T> {
        loop {
            if let Some(g) = self.try_lock() {
                return g;
            }
            let mut spins = 0u32;
            while self.locked.load(Ordering::Relaxed) {
                std::hint::spin_loop();
                spins += 1;
                if spins > 256 {
                    std::thread::yield_now();
                    spins = 0;
                }
            }
        }
    }

    /// Returns whether the lock is currently held (racy; diagnostics only).
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }
}

impl<T: ?Sized> Deref for SpinGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard's existence proves exclusive access.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for SpinGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard's existence proves exclusive access.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for SpinGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

impl<T: Default> Default for SpinLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SpinLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("SpinLock").field("data", &*g).finish(),
            None => f.write_str("SpinLock { <locked> }"),
        }
    }
}

/// The acquisition discipline a lock site uses.
///
/// The paper's ablation (§4.2.2) compares the trylock wrapper against
/// blocking acquisition; this enum lets a device be constructed either
/// way (the MPI/VCI baselines post under `Blocking`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockDiscipline {
    /// Fail fast; the caller receives a retryable error.
    TryLock,
    /// Spin until acquired, like the stock lower-level network stacks.
    Blocking,
}

impl LockDiscipline {
    /// Acquire `lock` according to the discipline. Returns `None` only
    /// under [`LockDiscipline::TryLock`] when the lock is busy.
    #[inline]
    pub fn acquire<'a, T: ?Sized>(self, lock: &'a SpinLock<T>) -> Option<SpinGuard<'a, T>> {
        match self {
            LockDiscipline::TryLock => lock.try_lock(),
            LockDiscipline::Blocking => Some(lock.lock()),
        }
    }
}

/// A resizable multi-producer/multi-consumer array with lock-free reads
/// (paper §4.1.1).
///
/// Writes (appends and in-place stores) take an internal mutex so no
/// update is lost; reads are a pair of atomic loads. Every resize swaps in
/// a doubled array; old arrays are retired but **not freed until the
/// `MpmcArray` itself drops**, so a concurrent reader can never observe
/// freed memory (the postponed-deallocation scheme the paper borrows from
/// hazard-pointer literature).
///
/// `T` must be `Clone` (in practice `Arc<_>` or `Copy` handles): a read
/// returns a clone taken while the slot is guaranteed live.
pub struct MpmcArray<T: Clone> {
    /// Current array block (capacity + slots in one allocation, so readers
    /// always see a pointer whose bound travels with it).
    current: AtomicPtr<ArrayBlock<T>>,
    /// Number of appended elements (may trail concurrent appends).
    len: AtomicUsize,
    /// Serializes writers; also protects `retired`.
    writer: Mutex<Retired<T>>,
}

struct ArrayBlock<T> {
    slots: Box<[Slot<T>]>,
}

struct Retired<T> {
    /// Older array blocks kept alive for concurrent readers.
    arrays: Vec<*mut ArrayBlock<T>>,
}

// SAFETY: Slot values are only written under the writer mutex and read
// via atomic pointer loads; T: Send + Sync via Clone bounds at use sites.
unsafe impl<T: Clone + Send + Sync> Send for MpmcArray<T> {}
unsafe impl<T: Clone + Send + Sync> Sync for MpmcArray<T> {}

struct Slot<T> {
    /// 0 = empty, 1 = being written, 2 = full.
    state: AtomicUsize,
    value: UnsafeCell<Option<T>>,
}

impl<T: Clone> MpmcArray<T> {
    /// Creates an array with the given initial capacity (rounded up to 2).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(2);
        let arr = Self::alloc_block(cap);
        Self {
            current: AtomicPtr::new(arr),
            len: AtomicUsize::new(0),
            writer: Mutex::new(Retired { arrays: Vec::new() }),
        }
    }

    fn alloc_block(cap: usize) -> *mut ArrayBlock<T> {
        let mut v: Vec<Slot<T>> = Vec::with_capacity(cap);
        for _ in 0..cap {
            v.push(Slot { state: AtomicUsize::new(0), value: UnsafeCell::new(None) });
        }
        Box::into_raw(Box::new(ArrayBlock { slots: v.into_boxed_slice() }))
    }

    /// Appends a value, resizing if necessary. Returns the index.
    pub fn push(&self, value: T) -> usize {
        let mut retired = self.writer.lock().expect("MpmcArray writer poisoned");
        let idx = self.len.load(Ordering::Relaxed);
        let block = self.current.load(Ordering::Relaxed);
        // SAFETY: `block` is the live block; only writers (serialized by
        // the mutex we hold) replace it.
        let cap = unsafe { (&*block).slots.len() };
        if idx == cap {
            // Grow: allocate double, copy clones of existing values.
            let new_block = Self::alloc_block(cap * 2);
            for i in 0..idx {
                // SAFETY: slots 0..idx of the old block are fully written
                // (state==2) and we hold the writer lock, so no concurrent
                // writer mutates them.
                unsafe {
                    let old_slot = &(*block).slots[i];
                    if old_slot.state.load(Ordering::Acquire) == 2 {
                        let v = (*old_slot.value.get()).clone();
                        let new_slot = &(*new_block).slots[i];
                        *new_slot.value.get() = v;
                        new_slot.state.store(2, Ordering::Release);
                    }
                }
            }
            retired.arrays.push(block);
            self.current.store(new_block, Ordering::Release);
        }
        let block = self.current.load(Ordering::Relaxed);
        // SAFETY: idx < capacity of the (possibly new) block; we hold the
        // writer lock.
        unsafe {
            let slot = &(*block).slots[idx];
            slot.state.store(1, Ordering::Relaxed);
            *slot.value.get() = Some(value);
            slot.state.store(2, Ordering::Release);
        }
        self.len.store(idx + 1, Ordering::Release);
        idx
    }

    /// Stores a value at an existing index (write; takes the writer lock).
    ///
    /// Panics if `idx` has never been appended.
    pub fn store(&self, idx: usize, value: T) {
        let _retired = self.writer.lock().expect("MpmcArray writer poisoned");
        assert!(idx < self.len.load(Ordering::Relaxed), "MpmcArray::store out of bounds");
        let block = self.current.load(Ordering::Relaxed);
        // SAFETY: idx is in bounds and we hold the writer lock.
        unsafe {
            let slot = &(*block).slots[idx];
            slot.state.store(1, Ordering::Relaxed);
            *slot.value.get() = Some(value);
            slot.state.store(2, Ordering::Release);
        }
    }

    /// Clears the value at an existing index.
    pub fn clear_at(&self, idx: usize) {
        let _retired = self.writer.lock().expect("MpmcArray writer poisoned");
        if idx >= self.len.load(Ordering::Relaxed) {
            return;
        }
        let block = self.current.load(Ordering::Relaxed);
        // SAFETY: idx is in bounds and we hold the writer lock.
        unsafe {
            let slot = &(*block).slots[idx];
            slot.state.store(1, Ordering::Relaxed);
            *slot.value.get() = None;
            slot.state.store(0, Ordering::Release);
        }
    }

    /// Lock-free read of the value at `idx`.
    ///
    /// Returns `None` for out-of-range indices, still-empty slots, or
    /// slots caught mid-write (the caller retries or treats it as absent,
    /// mirroring the C++ implementation).
    #[inline]
    pub fn read(&self, idx: usize) -> Option<T> {
        let block = self.current.load(Ordering::Acquire);
        // SAFETY: blocks are never freed while `self` lives (retired
        // blocks are kept until drop), so the pointer is valid, and its
        // capacity bound travels with the allocation.
        unsafe {
            let slots = &(*block).slots;
            let slot = slots.get(idx)?;
            if slot.state.load(Ordering::Acquire) == 2 {
                (*slot.value.get()).clone()
            } else {
                None
            }
        }
    }

    /// Number of appended elements.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether no element has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all currently-set values.
    pub fn snapshot(&self) -> Vec<T> {
        let n = self.len();
        (0..n).filter_map(|i| self.read(i)).collect()
    }
}

impl<T: Clone> Drop for MpmcArray<T> {
    fn drop(&mut self) {
        let block = self.current.load(Ordering::Relaxed);
        // SAFETY: we have exclusive access in drop; reconstruct the boxes
        // to free current and retired blocks.
        unsafe {
            drop(Box::from_raw(block));
            let retired = self.writer.get_mut().expect("MpmcArray writer poisoned");
            for ptr in retired.arrays.drain(..) {
                drop(Box::from_raw(ptr));
            }
        }
    }
}

impl<T: Clone> Default for MpmcArray<T> {
    fn default() -> Self {
        Self::with_capacity(8)
    }
}

/// An eventcount ("doorbell") that lets a polling thread park until work
/// plausibly exists.
///
/// Every wire rings a device's doorbell whenever a message lands in its
/// RX ring or a local completion is staged; a poller may park on the
/// doorbell when a full poll round found nothing, instead of burning a
/// core (the concern the AMT companion paper raises about burn-a-core
/// progress engines). Nothing in the workspace waits on a device bell
/// today: `lci` leaves who polls, and when to sleep, to the runtime
/// above it (ROADMAP item 5, "fabric bell plane").
///
/// ## Protocol (no lost wakeups)
///
/// The waiter:
/// 1. reads [`Doorbell::epoch`] — call it `seen`;
/// 2. polls for work; if it finds any it never parks;
/// 3. calls [`Doorbell::wait`]`(seen, ..)`, which parks only while the
///    epoch still equals `seen`.
///
/// The ringer publishes the work, bumps the epoch, then looks for
/// registered waiters ([`Doorbell::ring`]: `epoch.fetch_add`, then
/// `waiters.load`); the waiter registers, then looks at the epoch
/// ([`Doorbell::wait`]: `waiters.fetch_add`, then `epoch.load`). Each
/// side writes one word and then reads the other's — the store-buffer
/// shape — and the outcome to forbid is both reads missing: the ringer
/// sees no waiter and skips the notify, the waiter sees the old epoch
/// and parks. All four accesses are `SeqCst`, so they sit in one total
/// order that agrees with each thread's program order, and whichever
/// write comes second in it is followed by a read that sees the first:
/// either the ringer observes the registered waiter and takes the mutex
/// to notify it (the waiter holds the mutex from before it registers
/// until the condvar releases it, so the notify cannot fall between its
/// epoch check and its park), or the waiter's epoch check observes the
/// bump and returns without parking. `Release`/`Acquire` would not do:
/// they order each side's accesses against what the *other* side saw,
/// not the two writes against each other. The work published before the
/// bump is visible to any waiter that observes the bump (the `fetch_add`
/// is also a release, [`Doorbell::epoch`] an acquire). With no waiter a
/// ring is one uncontended read-modify-write and one load.
///
/// The cross-process doorbell
/// ([`ShmSegment::ring_doorbell`](crate::shm::ShmSegment::ring_doorbell),
/// a futex word in place of the mutex and condvar) is the same handshake.
pub struct Doorbell {
    /// Bumped once by every ring, so also the number of rings; waiters
    /// park only while it is unchanged.
    epoch: AtomicU64,
    /// Number of threads registered in [`Doorbell::wait`]. A ringer only
    /// touches the mutex when this is non-zero.
    waiters: AtomicUsize,
    mutex: Mutex<()>,
    cond: Condvar,
}

impl Default for Doorbell {
    fn default() -> Self {
        Self::new()
    }
}

impl Doorbell {
    /// Creates a quiet doorbell. Allocation-free.
    pub const fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Current epoch; pass it to [`Doorbell::wait`] after a failed poll.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Total number of rings so far (stats): every ring bumps the epoch
    /// exactly once.
    #[inline]
    pub fn rings(&self) -> u64 {
        self.epoch()
    }

    /// Rings the doorbell: bumps the epoch and wakes parked waiters.
    #[inline]
    pub fn ring(&self) {
        // Write, then read the other side's word: see the type-level docs.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Taking the mutex serializes with a waiter between its epoch
            // check and its condvar wait, so the notify cannot be lost.
            let _g = self.mutex.lock().expect("Doorbell mutex poisoned");
            self.cond.notify_all();
        }
    }

    /// Parks until the epoch differs from `seen` or `timeout` elapses.
    /// Returns whether the epoch advanced.
    ///
    /// The timeout is a belt-and-braces bound, not part of the
    /// correctness argument: callers re-poll after every return.
    pub fn wait(&self, seen: u64, timeout: Duration) -> bool {
        let mut g = self.mutex.lock().expect("Doorbell mutex poisoned");
        // Write, then read the other side's word: see the type-level docs.
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + timeout;
        let advanced = loop {
            if self.epoch.load(Ordering::SeqCst) != seen {
                break true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                break false;
            }
            let (g2, res) =
                self.cond.wait_timeout(g, deadline - now).expect("Doorbell mutex poisoned");
            g = g2;
            if res.timed_out() {
                break self.epoch.load(Ordering::Acquire) != seen;
            }
        };
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        advanced
    }
}

impl std::fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Doorbell").field("epoch", &self.epoch()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spinlock_basic() {
        let l = SpinLock::new(5usize);
        {
            let mut g = l.lock();
            *g += 1;
        }
        assert_eq!(*l.lock(), 6);
    }

    #[test]
    fn spinlock_trylock_fails_when_held() {
        let l = SpinLock::new(());
        let g = l.try_lock().unwrap();
        assert!(l.try_lock().is_none());
        drop(g);
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn spinlock_contended_counter() {
        let l = Arc::new(SpinLock::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = l.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    *l.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.lock(), 40_000);
    }

    #[test]
    fn lock_discipline_acquire() {
        let l = SpinLock::new(1);
        let g = l.lock();
        assert!(LockDiscipline::TryLock.acquire(&l).is_none());
        drop(g);
        assert!(LockDiscipline::TryLock.acquire(&l).is_some());
        assert!(LockDiscipline::Blocking.acquire(&l).is_some());
    }

    #[test]
    fn mpmc_array_push_read() {
        let a: MpmcArray<usize> = MpmcArray::with_capacity(2);
        for i in 0..100 {
            let idx = a.push(i * 10);
            assert_eq!(idx, i);
        }
        assert_eq!(a.len(), 100);
        for i in 0..100 {
            assert_eq!(a.read(i), Some(i * 10));
        }
        assert_eq!(a.read(100), None);
    }

    #[test]
    fn mpmc_array_store_and_clear() {
        let a: MpmcArray<usize> = MpmcArray::with_capacity(4);
        a.push(1);
        a.push(2);
        a.store(0, 99);
        assert_eq!(a.read(0), Some(99));
        a.clear_at(0);
        assert_eq!(a.read(0), None);
        assert_eq!(a.read(1), Some(2));
    }

    #[test]
    fn mpmc_array_concurrent_push_read() {
        let a: Arc<MpmcArray<usize>> = Arc::new(MpmcArray::with_capacity(2));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let a = a.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        a.push(t * 1000 + i);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let a = a.clone();
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    for _ in 0..20_000 {
                        let n = a.len();
                        if n > 0 && a.read(n / 2).is_some() {
                            seen += 1;
                        }
                    }
                    seen
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(a.len(), 2000);
        let snap = a.snapshot();
        assert_eq!(snap.len(), 2000);
    }

    #[test]
    fn doorbell_ring_before_wait_returns_immediately() {
        let bell = Doorbell::new();
        let seen = bell.epoch();
        bell.ring();
        // The epoch advanced between the snapshot and the wait, so the
        // waiter must not park at all.
        assert!(bell.wait(seen, Duration::from_secs(5)));
        assert_eq!(bell.rings(), 1);
    }

    #[test]
    fn doorbell_wait_times_out_when_quiet() {
        let bell = Doorbell::new();
        let seen = bell.epoch();
        assert!(!bell.wait(seen, Duration::from_millis(10)));
    }

    #[test]
    fn doorbell_wakes_parked_waiter() {
        let bell = Arc::new(Doorbell::new());
        let waiter = {
            let bell = bell.clone();
            std::thread::spawn(move || {
                let seen = bell.epoch();
                bell.wait(seen, Duration::from_secs(10))
            })
        };
        // Give the waiter a moment to park, then ring.
        std::thread::sleep(Duration::from_millis(20));
        bell.ring();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn doorbell_no_lost_wakeup_stress() {
        // Producer rings after each publish; consumer parks between
        // observations. Every published value must be observed promptly
        // (the long per-wait timeout would turn a lost wakeup into a
        // multi-minute run; the outer assert bounds total time).
        const N: u64 = 2000;
        let bell = Arc::new(Doorbell::new());
        let published = Arc::new(AtomicU64::new(0));
        let t0 = std::time::Instant::now();
        let consumer = {
            let bell = bell.clone();
            let published = published.clone();
            std::thread::spawn(move || {
                let mut seen_val = 0u64;
                while seen_val < N {
                    let seen = bell.epoch();
                    let now = published.load(Ordering::Acquire);
                    if now > seen_val {
                        seen_val = now;
                        continue;
                    }
                    bell.wait(seen, Duration::from_secs(10));
                }
            })
        };
        for i in 1..=N {
            published.store(i, Ordering::Release);
            bell.ring();
        }
        consumer.join().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(60), "lost wakeups made the stress crawl");
    }

    /// Two ringers, two waiters: a ring finds `waiters` at 0, 1 or 2 and
    /// must wake every registered waiter, not one. Each wait's timeout
    /// is as long as the whole test may take, so a single lost wakeup —
    /// also the very last one — fails it.
    #[test]
    fn doorbell_no_lost_wakeup_two_ringers_two_waiters() {
        const N: u64 = 2000;
        const LIMIT: Duration = Duration::from_secs(30);
        let bell = Doorbell::new();
        let published = AtomicU64::new(0);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut seen_val = 0u64;
                    while seen_val < 2 * N {
                        let seen = bell.epoch();
                        let now = published.load(Ordering::Acquire);
                        if now > seen_val {
                            seen_val = now;
                            continue;
                        }
                        bell.wait(seen, LIMIT);
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..N {
                        published.fetch_add(1, Ordering::Release);
                        bell.ring();
                    }
                });
            }
        });
        assert!(t0.elapsed() < LIMIT, "a waiter slept through a ring");
    }

    /// `rings()` is the epoch: concurrent rings must each count once.
    #[test]
    fn doorbell_rings_counts_every_ring_from_four_threads() {
        const PER_THREAD: u64 = 10_000;
        let bell = Doorbell::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..PER_THREAD).for_each(|_| bell.ring()));
            }
        });
        assert_eq!(bell.rings(), 4 * PER_THREAD);
    }

    #[test]
    fn mpmc_array_snapshot_skips_cleared() {
        let a: MpmcArray<u8> = MpmcArray::with_capacity(2);
        a.push(1);
        a.push(2);
        a.push(3);
        a.clear_at(1);
        assert_eq!(a.snapshot(), vec![1, 3]);
    }
}
