//! The completion graph (paper §3.2.5, §4.1.4).
//!
//! A CUDA-Graph-like completion object: the user declares a set of
//! operations (user functions or communication posts) with a partial
//! execution order. If `u` precedes `v`, then `v` starts only after `u`
//! completes. Every node carries an atomic counter tracking received
//! signals; a node whose predecessors (plus its own trigger) are all
//! signaled fires immediately, and a completed node signals its
//! descendants. The combination of the local partial order and the
//! ordering imposed by communication completion allows intuitive
//! implementations of complex non-blocking collective algorithms
//! (see `lci::coll`, which builds its trees this way).

use crate::types::CompDesc;
use lci_fabric::sync::SpinLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Node identifier within a graph.
pub type NodeId = usize;

/// What a node does when fired.
pub enum NodeOp {
    /// Run a user function to completion (completes synchronously).
    Func(Box<dyn Fn() + Send + Sync>),
    /// Post a communication: the closure receives the node's completion
    /// handle to attach to the operation; the node completes when that
    /// handle is signaled. The closure must ensure the post eventually
    /// succeeds (retry internally if needed).
    Comm(Box<dyn Fn(crate::comp::Comp) + Send + Sync>),
    /// Complete immediately (join/fork points).
    Noop,
}

struct Node {
    op: NodeOp,
    children: Vec<NodeId>,
    /// Signals still needed before firing: one per predecessor.
    waiting: AtomicUsize,
    /// Initial value of `waiting` (for reuse across runs).
    indegree: usize,
    /// The descriptor that completed this node (communication nodes).
    desc: SpinLock<Option<CompDesc>>,
}

/// Builder for a [`Graph`].
#[derive(Default)]
pub struct GraphBuilder {
    nodes: Vec<(NodeOp, Vec<NodeId>, usize)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node; returns its id.
    pub fn add_node(&mut self, op: NodeOp) -> NodeId {
        self.nodes.push((op, Vec::new(), 0));
        self.nodes.len() - 1
    }

    /// Adds a user-function node.
    pub fn add_fn(&mut self, f: impl Fn() + Send + Sync + 'static) -> NodeId {
        self.add_node(NodeOp::Func(Box::new(f)))
    }

    /// Adds a communication node.
    pub fn add_comm(&mut self, post: impl Fn(crate::comp::Comp) + Send + Sync + 'static) -> NodeId {
        self.add_node(NodeOp::Comm(Box::new(post)))
    }

    /// Declares that `u` must complete before `v` starts.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u < self.nodes.len() && v < self.nodes.len(), "edge references unknown node");
        assert_ne!(u, v, "self-edge");
        self.nodes[u].1.push(v);
        self.nodes[v].2 += 1;
    }

    /// Finalizes into an executable graph.
    pub fn build(self) -> Arc<Graph> {
        let total = self.nodes.len();
        let nodes: Vec<Node> = self
            .nodes
            .into_iter()
            .map(|(op, children, indegree)| Node {
                op,
                children,
                waiting: AtomicUsize::new(indegree),
                indegree,
                desc: SpinLock::new(None),
            })
            .collect();
        Arc::new(Graph { nodes, total, completed: AtomicUsize::new(0) })
    }
}

/// An executable completion graph.
pub struct Graph {
    nodes: Vec<Node>,
    total: usize,
    completed: AtomicUsize,
}

impl Graph {
    /// Starts the graph: fires every node with no predecessors. Call once
    /// per run (reusable after [`test`](Self::test) returns true via
    /// [`reset`](Self::reset)).
    pub fn start(self: &Arc<Self>) {
        let roots: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.indegree == 0)
            .map(|(i, _)| i)
            .collect();
        for r in roots {
            self.fire(r);
        }
    }

    /// Whether every node has completed.
    pub fn test(&self) -> bool {
        self.completed.load(Ordering::Acquire) == self.total
    }

    /// Waits until done, invoking `progress` between polls and spinning
    /// or yielding the core between them as
    /// [`Synchronizer::wait_with`](crate::Synchronizer::wait_with) does.
    pub fn wait_with(&self, progress: impl FnMut()) {
        crate::wait::until(|| self.test(), progress);
    }

    /// The completion descriptor of `node`, once completed.
    pub fn node_desc(&self, node: NodeId) -> Option<CompDesc> {
        self.nodes[node].desc.lock().take()
    }

    /// Rearms the graph for another run. Panics if a run is in flight.
    pub fn reset(&self) {
        assert!(self.test(), "resetting a graph that is still running");
        for n in &self.nodes {
            n.waiting.store(n.indegree, Ordering::Relaxed);
            *n.desc.lock() = None;
        }
        self.completed.store(0, Ordering::Release);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Fires a ready node.
    fn fire(self: &Arc<Self>, id: NodeId) {
        match &self.nodes[id].op {
            NodeOp::Func(f) => {
                f();
                self.complete(id);
            }
            NodeOp::Comm(post) => {
                let comp = crate::comp::Comp::graph_node(self.clone(), id);
                post(comp);
                // Completion arrives via signal_node when the operation
                // finishes.
            }
            NodeOp::Noop => self.complete(id),
        }
    }

    /// Signal entry point used by `Comp::graph_node` handles.
    pub(crate) fn signal_node(self: &Arc<Self>, id: NodeId, desc: CompDesc) {
        *self.nodes[id].desc.lock() = Some(desc);
        self.complete(id);
    }

    /// Marks `id` complete and fires newly-ready descendants
    /// iteratively (no recursion: deep chains must not overflow the
    /// stack).
    fn complete(self: &Arc<Self>, id: NodeId) {
        let mut ready: Vec<NodeId> = Vec::new();
        self.completed.fetch_add(1, Ordering::AcqRel);
        for &c in &self.nodes[id].children {
            if self.nodes[c].waiting.fetch_sub(1, Ordering::AcqRel) == 1 {
                ready.push(c);
            }
        }
        while let Some(n) = ready.pop() {
            match &self.nodes[n].op {
                NodeOp::Func(f) => {
                    f();
                    self.completed.fetch_add(1, Ordering::AcqRel);
                    for &c in &self.nodes[n].children {
                        if self.nodes[c].waiting.fetch_sub(1, Ordering::AcqRel) == 1 {
                            ready.push(c);
                        }
                    }
                }
                NodeOp::Noop => {
                    self.completed.fetch_add(1, Ordering::AcqRel);
                    for &c in &self.nodes[n].children {
                        if self.nodes[c].waiting.fetch_sub(1, Ordering::AcqRel) == 1 {
                            ready.push(c);
                        }
                    }
                }
                NodeOp::Comm(post) => {
                    let comp = crate::comp::Comp::graph_node(self.clone(), n);
                    post(comp);
                }
            }
        }
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.total)
            .field("completed", &self.completed.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn linear_chain_runs_in_order() {
        let log = Arc::new(SpinLock::new(Vec::new()));
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| {
                let log = log.clone();
                b.add_fn(move || log.lock().push(i))
            })
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let g = b.build();
        g.start();
        assert!(g.test());
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn diamond_dependencies() {
        let order = Arc::new(SpinLock::new(Vec::new()));
        let mut b = GraphBuilder::new();
        let mk = |name: &'static str, order: &Arc<SpinLock<Vec<&'static str>>>| {
            let order = order.clone();
            move || order.lock().push(name)
        };
        let a = b.add_fn(mk("a", &order));
        let l = b.add_fn(mk("l", &order));
        let r = b.add_fn(mk("r", &order));
        let d = b.add_fn(mk("d", &order));
        b.add_edge(a, l);
        b.add_edge(a, r);
        b.add_edge(l, d);
        b.add_edge(r, d);
        let g = b.build();
        g.start();
        assert!(g.test());
        let o = order.lock();
        assert_eq!(o[0], "a");
        assert_eq!(o[3], "d");
    }

    #[test]
    fn comm_node_waits_for_signal() {
        let mut b = GraphBuilder::new();
        let pending: Arc<SpinLock<Option<crate::comp::Comp>>> = Arc::new(SpinLock::new(None));
        let p2 = pending.clone();
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = flag.clone();
        let c = b.add_comm(move |comp| {
            // Simulate an async post: stash the comp for later signaling.
            *p2.lock() = Some(comp);
        });
        let after = b.add_fn(move || {
            f2.store(1, Ordering::SeqCst);
        });
        b.add_edge(c, after);
        let g = b.build();
        g.start();
        assert!(!g.test());
        assert_eq!(flag.load(Ordering::SeqCst), 0);
        // "Communication" completes now.
        let comp = pending.lock().take().unwrap();
        comp.signal(CompDesc { tag: 7, ..Default::default() });
        assert!(g.test());
        assert_eq!(flag.load(Ordering::SeqCst), 1);
        assert_eq!(g.node_desc(c).unwrap().tag, 7);
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        let mut b = GraphBuilder::new();
        let n = 100_000;
        let ids: Vec<NodeId> = (0..n).map(|_| b.add_node(NodeOp::Noop)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let g = b.build();
        g.start();
        assert!(g.test());
    }

    #[test]
    fn reset_and_rerun() {
        let count = Arc::new(AtomicU64::new(0));
        let mut b = GraphBuilder::new();
        let c2 = count.clone();
        let a = b.add_fn(move || {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        let c3 = count.clone();
        let z = b.add_fn(move || {
            c3.fetch_add(10, Ordering::SeqCst);
        });
        b.add_edge(a, z);
        let g = b.build();
        g.start();
        assert!(g.test());
        g.reset();
        assert!(!g.test());
        g.start();
        assert!(g.test());
        assert_eq!(count.load(Ordering::SeqCst), 22);
    }
}
