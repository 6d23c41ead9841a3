//! Completion objects (paper §3.2.5, §4.1.4).
//!
//! A completion object is signaled with a completion descriptor
//! ([`CompDesc`]) when a posted communication completes locally. LCI
//! defines four built-in types, all atomic-based:
//!
//! * [`Synchronizer`](sync_obj::Synchronizer) — like an MPI request, but
//!   can accept multiple signals before becoming ready;
//! * [`CompQueue`](queue::CompQueue) — a concurrent completion queue
//!   (a bounded MPMC ring of fixed size);
//! * handler — a function invoked inline by the progress engine (for a
//!   two-sided arrival on shm or tcp, inside the wire's drain, with
//!   that source's drain lock held: a handler that waits for another
//!   frame of that source waits forever);
//! * [`Graph`](graph::Graph) — a CUDA-Graph-like partial order of
//!   operations, each started when its predecessors complete.

pub mod graph;
pub mod queue;
pub mod sync_obj;

use crate::types::CompDesc;
use std::sync::Arc;

/// Completion handler function type.
pub type HandlerFn = Box<dyn Fn(CompDesc) + Send + Sync>;

pub(crate) enum CompInner {
    Sync(sync_obj::Synchronizer),
    Queue(queue::CompQueue),
    Handler(HandlerFn),
    GraphNode { graph: Arc<graph::Graph>, node: graph::NodeId },
}

/// A completion-object handle (the paper's `comp_t`). Cheap to clone;
/// the object is freed when the last handle drops.
#[derive(Clone)]
pub struct Comp {
    inner: Arc<CompInner>,
}

impl Comp {
    /// Allocates a synchronizer expecting `expected` signals.
    pub fn alloc_sync(expected: usize) -> Comp {
        Comp { inner: Arc::new(CompInner::Sync(sync_obj::Synchronizer::new(expected))) }
    }

    /// Allocates a completion queue.
    pub fn alloc_cq() -> Comp {
        Comp { inner: Arc::new(CompInner::Queue(queue::CompQueue::default())) }
    }

    /// Allocates a handler completion object.
    pub fn alloc_handler(f: impl Fn(CompDesc) + Send + Sync + 'static) -> Comp {
        Comp { inner: Arc::new(CompInner::Handler(Box::new(f))) }
    }

    /// A handle that signals node `node` of `graph`.
    pub fn graph_node(graph: Arc<graph::Graph>, node: graph::NodeId) -> Comp {
        Comp { inner: Arc::new(CompInner::GraphNode { graph, node }) }
    }

    /// Signals the completion object with a descriptor. Called by the
    /// runtime when an operation completes; also usable directly (e.g.
    /// manually invoking a handler after a `done`-category post).
    pub fn signal(&self, desc: CompDesc) {
        match &*self.inner {
            CompInner::Sync(s) => s.signal(desc),
            CompInner::Queue(q) => q.push(desc),
            CompInner::Handler(f) => f(desc),
            CompInner::GraphNode { graph, node } => graph.signal_node(*node, desc),
        }
    }

    /// Pops a descriptor from a queue completion object.
    ///
    /// Returns `None` both when empty and when the object is not a queue
    /// — use [`Comp::as_queue`] to distinguish.
    #[inline]
    pub fn pop(&self) -> Option<CompDesc> {
        self.as_queue()?.pop()
    }

    /// Handles alive on this object: who holds a post's comp, in tests.
    #[cfg(test)]
    pub(crate) fn handles(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Borrows the synchronizer, if this is one.
    pub fn as_sync(&self) -> Option<&sync_obj::Synchronizer> {
        match &*self.inner {
            CompInner::Sync(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the completion queue, if this is one.
    #[inline]
    pub fn as_queue(&self) -> Option<&queue::CompQueue> {
        match &*self.inner {
            CompInner::Queue(q) => Some(q),
            _ => None,
        }
    }
}

impl std::fmt::Debug for Comp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &*self.inner {
            CompInner::Sync(_) => "Sync",
            CompInner::Queue(_) => "Queue",
            CompInner::Handler(_) => "Handler",
            CompInner::GraphNode { node, .. } => return write!(f, "Comp::GraphNode({node})"),
        };
        write!(f, "Comp::{kind}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CompKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn desc(tag: u32) -> CompDesc {
        CompDesc { tag, kind: CompKind::Send, ..Default::default() }
    }

    #[test]
    fn handler_invoked_on_signal() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let c = Comp::alloc_handler(move |d| {
            assert_eq!(d.tag, 42);
            h.fetch_add(1, Ordering::SeqCst);
        });
        c.signal(desc(42));
        c.signal(desc(42));
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn queue_signal_pop() {
        let c = Comp::alloc_cq();
        assert!(c.pop().is_none());
        c.signal(desc(1));
        c.signal(desc(2));
        assert_eq!(c.pop().unwrap().tag, 1);
        assert_eq!(c.pop().unwrap().tag, 2);
        assert!(c.pop().is_none());
    }

    #[test]
    fn sync_accessor() {
        let c = Comp::alloc_sync(1);
        assert!(c.as_sync().is_some());
        assert!(c.as_queue().is_none());
        c.signal(desc(0));
        assert!(c.as_sync().unwrap().test());
    }
}
