//! Offline stand-in for the `crossbeam` crate.
//!
//! Implements the subset the workspace uses — `queue::SegQueue`,
//! `deque::{Worker, Stealer, Injector, Steal}`, `utils::Backoff`.
//! `SegQueue` and `deque::*` are stand-ins on a short-spin mutex,
//! syscall-free in the common (uncontended) case. (The bounded
//! lock-free ring on the per-message path is `lci_fabric::sync::MpmcRing`.)

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
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
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            Self::new()
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
    }

    /// Owner-side handle of a work-stealing deque.
    pub struct Worker<T> {
        inner: Arc<Spin<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        pub fn new_fifo() -> Self {
            Self { inner: Arc::new(Spin::new(VecDeque::new())) }
        }

        pub fn push(&self, value: T) {
            self.inner.with(|q| q.push_back(value));
        }

        pub fn pop(&self) -> Option<T> {
            self.inner.with(|q| q.pop_front())
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
    use super::queue::SegQueue;

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
