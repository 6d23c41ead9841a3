//! The synchronizer completion object (paper §4.1.4).
//!
//! Similar to an MPI request but able to accept multiple signals before
//! becoming ready. Implemented exactly as the paper describes: a
//! fixed-size descriptor array protected by two atomic counters — writers
//! claim a slot with one counter, publish with the other; the reader
//! observes readiness when the publish counter reaches the expected
//! count (an acquire load that orders all slot writes before the read).

use crate::types::CompDesc;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A completion object that becomes ready after a fixed number of
/// signals.
pub struct Synchronizer {
    expected: usize,
    /// Writers claim slots here.
    claimed: AtomicUsize,
    /// Writers publish here after writing their slot.
    published: AtomicUsize,
    slots: Box<[UnsafeCell<Option<CompDesc>>]>,
}

// SAFETY: slot i is written exclusively by the thread that claimed i
// (fetch_add on `claimed`), and only read after `published == expected`
// (acquire), which happens-after every release publish.
unsafe impl Send for Synchronizer {}
unsafe impl Sync for Synchronizer {}

impl Synchronizer {
    /// Creates a synchronizer expecting `expected` signals (>= 1).
    pub fn new(expected: usize) -> Self {
        let expected = expected.max(1);
        let slots = (0..expected).map(|_| UnsafeCell::new(None)).collect::<Vec<_>>();
        Self {
            expected,
            claimed: AtomicUsize::new(0),
            published: AtomicUsize::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of signals needed for readiness.
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// Delivers one signal. Panics if signaled more than `expected`
    /// times without a [`reset`](Self::reset) (a use-after-completion
    /// bug in the caller).
    pub fn signal(&self, desc: CompDesc) {
        let idx = self.claimed.fetch_add(1, Ordering::AcqRel);
        assert!(idx < self.expected, "synchronizer signaled more than {} times", self.expected);
        // SAFETY: we exclusively own slot `idx` (claimed above); readers
        // wait for the publish counter.
        unsafe {
            *self.slots[idx].get() = Some(desc);
        }
        self.published.fetch_add(1, Ordering::Release);
    }

    /// Whether all expected signals have arrived.
    pub fn test(&self) -> bool {
        self.published.load(Ordering::Acquire) == self.expected
    }

    /// Waits until ready, invoking `progress` between polls (the caller
    /// decides who progresses the network — paper §3.2.6). Between polls
    /// it spins or yields the core as
    /// [`Runtime::wait_until`](crate::Runtime::wait_until) does; the
    /// whole wait counts as one idle streak.
    pub fn wait_with(&self, progress: impl FnMut()) {
        crate::wait::until(|| self.test(), progress);
    }

    /// Takes the collected descriptors after readiness, resetting the
    /// synchronizer for reuse. Panics if not ready.
    pub fn take(&self) -> Vec<CompDesc> {
        assert!(self.test(), "synchronizer not ready");
        // SAFETY: ready (publish==expected, acquired), so all writers are
        // done and no new writer may claim until reset.
        let out = (0..self.expected)
            .map(|i| unsafe { (*self.slots[i].get()).take().expect("published slot empty") })
            .collect();
        self.claimed.store(0, Ordering::Relaxed);
        self.published.store(0, Ordering::Release);
        out
    }

    /// Resets without reading the descriptors.
    pub fn reset(&self) {
        assert!(self.test(), "resetting a synchronizer that is not ready");
        // SAFETY: as in `take`.
        for i in 0..self.expected {
            unsafe {
                (*self.slots[i].get()).take();
            }
        }
        self.claimed.store(0, Ordering::Relaxed);
        self.published.store(0, Ordering::Release);
    }
}

impl std::fmt::Debug for Synchronizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Synchronizer")
            .field("expected", &self.expected)
            .field("published", &self.published.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CompKind;
    use std::sync::Arc;

    fn desc(tag: u32) -> CompDesc {
        CompDesc { tag, kind: CompKind::Recv, ..Default::default() }
    }

    #[test]
    fn single_signal_ready() {
        let s = Synchronizer::new(1);
        assert!(!s.test());
        s.signal(desc(5));
        assert!(s.test());
        let v = s.take();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].tag, 5);
        assert!(!s.test(), "take resets");
    }

    #[test]
    fn multi_signal_threshold() {
        let s = Synchronizer::new(3);
        s.signal(desc(0));
        s.signal(desc(1));
        assert!(!s.test());
        s.signal(desc(2));
        assert!(s.test());
        let mut tags: Vec<u32> = s.take().into_iter().map(|d| d.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1, 2]);
    }

    #[test]
    fn reuse_after_reset() {
        let s = Synchronizer::new(2);
        s.signal(desc(1));
        s.signal(desc(2));
        s.reset();
        assert!(!s.test());
        s.signal(desc(3));
        s.signal(desc(4));
        assert!(s.test());
    }

    #[test]
    #[should_panic(expected = "more than")]
    fn oversignal_panics() {
        let s = Synchronizer::new(1);
        s.signal(desc(0));
        s.signal(desc(1));
    }

    #[test]
    fn concurrent_signals() {
        let s = Arc::new(Synchronizer::new(8));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let s = s.clone();
                std::thread::spawn(move || s.signal(desc(i)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(s.test());
        let mut tags: Vec<u32> = s.take().into_iter().map(|d| d.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn wait_with_pumps_progress() {
        let s = Arc::new(Synchronizer::new(1));
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            s2.signal(desc(7));
        });
        let mut polls = 0usize;
        s.wait_with(|| polls += 1);
        assert!(s.test());
        t.join().unwrap();
    }
}
