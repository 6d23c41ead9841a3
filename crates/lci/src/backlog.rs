//! The backlog queue (paper §4.1.5): stores communication requests that
//! can neither be submitted right now nor back-propagated to the user —
//! typically control messages the progress engine must send (RTR, FIN
//! writes, signals) when the network send queue is full.
//!
//! Such situations are expected to be rare, so this is a plain queue with
//! a spinlock; an atomic flag saves the progress engine from polling an
//! empty backlog. A request leaves only at a later progress call on its
//! device: the drain pops the oldest, posts it, and puts it back at the
//! front if the wire still refuses.

use crate::types::Rank;
use lci_fabric::sync::SpinLock;
use lci_fabric::{DevId, PoolBuf};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// A postponed request. Payloads are pool-recycled buffers: parking a
/// message never costs a fresh allocation, and shipping it returns the
/// staging storage to the device's buffer pool.
pub(crate) enum Backlogged {
    /// An eager message to (rank, dev): payload + header. `ctx == 0` is a
    /// message the runtime originated (RTS, RTR, signal, coalesced frame;
    /// nothing to complete). Otherwise it is a user-level eager send
    /// whose retry was disallowed at post time: `data` is a copy of the
    /// payload made when it parked, and `ctx` is the in-flight operation
    /// context (buffer + completion).
    Send { target: Rank, target_dev: DevId, data: PoolBuf, imm: u64, ctx: u64 },
    /// A stalled rendezvous send, by its id: the chunk pump hit a full
    /// wire with nothing in flight to re-drive it. The send's `parked`
    /// flag keeps it here at most once, and a parked send cannot finish,
    /// so the id is not reused while this names it.
    Rdv { send_id: u32 },
}

/// The destination of a plain send, or `None` for a stalled rendezvous
/// send.
fn send_dest(item: &Backlogged) -> Option<(Rank, DevId)> {
    match item {
        Backlogged::Send { target, target_dev, .. } => Some((*target, *target_dev)),
        Backlogged::Rdv { .. } => None,
    }
}

/// The backlog queue resource.
pub(crate) struct Backlog {
    queue: SpinLock<VecDeque<Backlogged>>,
    nonempty: AtomicBool,
}

impl Backlog {
    pub fn new() -> Self {
        Self { queue: SpinLock::new(VecDeque::new()), nonempty: AtomicBool::new(false) }
    }

    /// Enqueues a postponed request.
    pub fn push(&self, item: Backlogged) {
        let mut q = self.queue.lock();
        q.push_back(item);
        self.nonempty.store(true, Ordering::Release);
    }

    /// Re-inserts a request the wire refused at the front: it retries
    /// before anything queued behind it, so sends to one destination
    /// keep their order.
    pub fn push_front(&self, item: Backlogged) {
        let mut q = self.queue.lock();
        q.push_front(item);
        self.nonempty.store(true, Ordering::Release);
    }

    /// Dequeues the oldest request, if any. The fast path is a single
    /// atomic load when the backlog is empty.
    pub fn pop(&self) -> Option<Backlogged> {
        if !self.nonempty.load(Ordering::Acquire) {
            return None;
        }
        let mut q = self.queue.lock();
        let item = q.pop_front();
        if q.is_empty() {
            self.nonempty.store(false, Ordering::Release);
        }
        item
    }

    /// Whether a parked send toward `(target, target_dev)` waits here. One
    /// load when the backlog is empty.
    pub fn holds_send_to(&self, target: Rank, target_dev: DevId) -> bool {
        let dest = Some((target, target_dev));
        !self.is_empty() && self.queue.lock().iter().any(|item| send_dest(item) == dest)
    }

    /// Approximate number of postponed requests.
    pub fn len(&self) -> usize {
        if !self.nonempty.load(Ordering::Acquire) {
            return 0;
        }
        self.queue.lock().len()
    }

    /// Whether the backlog appears empty (single atomic load).
    pub fn is_empty(&self) -> bool {
        !self.nonempty.load(Ordering::Acquire)
    }
}

impl Default for Backlog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(imm: u64) -> Backlogged {
        Backlogged::Send { target: 0, target_dev: 0, data: vec![].into(), imm, ctx: 0 }
    }

    fn imm_of(b: &Backlogged) -> u64 {
        match b {
            Backlogged::Send { imm, .. } => *imm,
            Backlogged::Rdv { .. } => u64::MAX,
        }
    }

    #[test]
    fn fifo_order() {
        let b = Backlog::new();
        assert!(b.is_empty());
        b.push(ctrl(1));
        b.push(ctrl(2));
        assert_eq!(b.len(), 2);
        assert_eq!(imm_of(&b.pop().unwrap()), 1);
        assert_eq!(imm_of(&b.pop().unwrap()), 2);
        assert!(b.pop().is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn push_front_retries_first() {
        let b = Backlog::new();
        b.push(ctrl(1));
        let first = b.pop().unwrap();
        b.push(ctrl(2));
        b.push_front(first);
        assert_eq!(imm_of(&b.pop().unwrap()), 1);
        assert_eq!(imm_of(&b.pop().unwrap()), 2);
    }

    #[test]
    fn empty_fast_path() {
        let b = Backlog::new();
        // pop on empty must not take the lock (observable only as: it
        // returns None and is cheap; we just check correctness here).
        for _ in 0..1000 {
            assert!(b.pop().is_none());
        }
    }
}
