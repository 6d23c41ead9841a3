//! Non-blocking collectives composed on the completion graph (paper
//! §3.2.5: "the local partial execution order and the ordering imposed
//! by communication operations allow intuitive implementations of
//! complex nonblocking collective algorithms").
//!
//! Each `i*` collective builds its rank's program order — the exact
//! per-rank sequence of sends/receives its blocking counterpart would
//! execute — as a linear chain of graph nodes, starts the graph, and
//! returns immediately. Receive nodes carry the data: their handler
//! comps write the delivered bytes into the result slot before
//! signalling the node, so successor sends read fully-arrived state.
//! Poll with [`IColl::test`] (progressing the runtime) or block with
//! [`IColl::wait`], which progresses through
//! [`Runtime::wait_until`](crate::Runtime::wait_until).

use super::{
    coll_tag, next_seq, ROUND_A2A, ROUND_A2AV, ROUND_A2AV_CNT, ROUND_AG_BASE, ROUND_BCAST,
    ROUND_REDUCE,
};
use crate::comp::Comp;
use crate::error::{PostResult, Result};
use crate::runtime::Runtime;
use crate::types::{CompDesc, Rank, Tag};
use crate::{Graph, GraphBuilder, NodeId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Handle to an in-flight non-blocking collective: a started completion
/// graph plus the slot its receive handlers fill.
pub struct IColl<T> {
    graph: Arc<Graph>,
    slot: Arc<Mutex<Option<T>>>,
}

impl<T> IColl<T> {
    /// Whether the collective has completed (non-blocking; the runtime
    /// must be progressed by someone for this to advance).
    pub fn test(&self) -> bool {
        self.graph.test()
    }

    /// The underlying completion graph (e.g. to chain further work).
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Progresses `rt` until completion and returns the result.
    pub fn wait(self, rt: &Runtime) -> Result<T> {
        let g = self.graph.clone();
        rt.wait_until(|| g.test())?;
        Ok(self.slot.lock().take().expect("collective result"))
    }
}

/// Posts a send whose completion *is* the node's completion (`done`
/// results never signal, so they are forwarded manually).
fn post_send_node(rt: &Runtime, to: Rank, payload: Vec<u8>, tag: Tag, node: Comp) {
    loop {
        match rt
            .post_send_x(to, payload.clone(), tag, node.clone())
            .allow_coalescing(false)
            .call()
            .expect("graph send post")
        {
            PostResult::Done(_) => {
                node.signal(CompDesc::empty());
                return;
            }
            PostResult::Posted => return,
            PostResult::Retry(_) => {
                let _ = rt.progress();
                std::thread::yield_now();
            }
        }
    }
}

/// Posts a fire-and-forget send (the receive is the ordering carrier).
fn post_send_ff(rt: &Runtime, to: Rank, payload: Vec<u8>, tag: Tag) {
    loop {
        match rt
            .post_send_x(to, payload.clone(), tag, Comp::alloc_handler(|_| {}))
            .allow_coalescing(false)
            .call()
            .expect("graph send post")
        {
            PostResult::Retry(_) => {
                let _ = rt.progress();
                std::thread::yield_now();
            }
            _ => return,
        }
    }
}

/// Posts a receive that runs `on_data` on the delivered bytes and then
/// signals `node` — including for matches completed at post time.
fn post_recv_node(
    rt: &Runtime,
    from: Rank,
    len: usize,
    tag: Tag,
    node: Comp,
    on_data: impl Fn(&[u8]) + Send + Sync + 'static,
) {
    let on_data = Arc::new(on_data);
    let handler = {
        let node = node.clone();
        let on_data = on_data.clone();
        Comp::alloc_handler(move |desc: CompDesc| {
            on_data(desc.data.as_slice());
            node.signal(CompDesc::empty());
        })
    };
    match rt.post_recv(from, vec![0u8; len.max(1)], tag, handler).expect("graph recv post") {
        PostResult::Done(d) => {
            on_data(d.data.as_slice());
            node.signal(CompDesc::empty());
        }
        PostResult::Posted => {}
        PostResult::Retry(_) => unreachable!("recv never retries"),
    }
}

/// Appends `node` to a linear chain.
fn chain(gb: &mut GraphBuilder, prev: &mut Option<NodeId>, node: NodeId) {
    if let Some(p) = *prev {
        gb.add_edge(p, node);
    }
    *prev = Some(node);
}

/// Non-blocking dissemination barrier. Returns the started graph; poll
/// it with [`Graph::test`] while progressing the runtime.
pub fn ibarrier(rt: &Runtime) -> Result<Arc<Graph>> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let seq = next_seq(rt);
    let mut gb = GraphBuilder::new();
    let mut prev: Option<NodeId> = None;
    let mut dist = 1usize;
    let mut round: u32 = 0;
    while dist < n {
        let to = (me + dist) % n;
        let from = (me + n - dist) % n;
        let tag = coll_tag(seq, round);
        // One node per round: the receive is the ordering carrier, the
        // signal to the next rank is a fire-and-forget inject.
        let rt2 = rt.clone();
        let node = gb.add_comm(move |comp| {
            post_send_ff(&rt2, to, vec![round as u8], tag);
            post_recv_node(&rt2, from, 8, tag, comp, |_| {});
        });
        chain(&mut gb, &mut prev, node);
        dist <<= 1;
        round += 1;
    }
    let g = gb.build();
    g.start();
    Ok(g)
}

/// Non-blocking binomial broadcast; the result is the (root's) buffer.
pub fn ibroadcast(rt: &Runtime, root: Rank, buf: Vec<u8>) -> Result<IColl<Vec<u8>>> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let len = buf.len();
    let slot = Arc::new(Mutex::new(Some(buf)));
    let seq = next_seq(rt);
    let tag = coll_tag(seq, ROUND_BCAST);
    let mut gb = GraphBuilder::new();
    let mut prev: Option<NodeId> = None;
    let vr = (me + n - root) % n;
    if vr != 0 {
        let hb = 1usize << (usize::BITS - 1 - vr.leading_zeros());
        let parent = ((vr - hb) + root) % n;
        let rt2 = rt.clone();
        let slot2 = slot.clone();
        let node = gb.add_comm(move |comp| {
            let slot3 = slot2.clone();
            post_recv_node(&rt2, parent, len, tag, comp, move |data| {
                let mut g = slot3.lock();
                let buf = g.as_mut().expect("broadcast slot");
                buf[..data.len()].copy_from_slice(data);
            });
        });
        chain(&mut gb, &mut prev, node);
    }
    let mut m = if vr == 0 { 1 } else { 1usize << (usize::BITS - vr.leading_zeros()) };
    while vr + m < n {
        let child = ((vr + m) + root) % n;
        let rt2 = rt.clone();
        let slot2 = slot.clone();
        let node = gb.add_comm(move |comp| {
            let payload = slot2.lock().as_ref().expect("broadcast slot").clone();
            post_send_node(&rt2, child, payload, tag, comp);
        });
        chain(&mut gb, &mut prev, node);
        m <<= 1;
    }
    let graph = gb.build();
    graph.start();
    Ok(IColl { graph, slot })
}

/// Non-blocking binomial reduction to `root`; resolves to
/// `Some(result)` on the root and `None` elsewhere.
pub fn ireduce_u64(
    rt: &Runtime,
    root: Rank,
    contrib: &[u64],
    op: impl Fn(u64, u64) -> u64 + Copy + Send + Sync + 'static,
) -> Result<IColl<Option<Vec<u64>>>> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let len = contrib.len() * 8;
    let slot: Arc<Mutex<Option<Option<Vec<u64>>>>> =
        Arc::new(Mutex::new(Some(Some(contrib.to_vec()))));
    let seq = next_seq(rt);
    let tag = coll_tag(seq, ROUND_REDUCE);
    let mut gb = GraphBuilder::new();
    let mut prev: Option<NodeId> = None;
    let vr = (me + n - root) % n;
    let mut m = 1usize;
    while m < n {
        if vr & m != 0 {
            let parent = ((vr - m) + root) % n;
            let rt2 = rt.clone();
            let slot2 = slot.clone();
            let node = gb.add_comm(move |comp| {
                let bytes: Vec<u8> = {
                    let g = slot2.lock();
                    let acc = g.as_ref().unwrap().as_ref().expect("reduce slot");
                    acc.iter().flat_map(|v| v.to_le_bytes()).collect()
                };
                post_send_node(&rt2, parent, bytes, tag, comp);
            });
            chain(&mut gb, &mut prev, node);
            break;
        }
        if vr + m < n {
            let child = ((vr + m) + root) % n;
            let rt2 = rt.clone();
            let slot2 = slot.clone();
            let node = gb.add_comm(move |comp| {
                let slot3 = slot2.clone();
                post_recv_node(&rt2, child, len, tag, comp, move |data| {
                    let mut g = slot3.lock();
                    let acc = g.as_mut().unwrap().as_mut().expect("reduce slot");
                    for (i, c) in data.chunks_exact(8).enumerate() {
                        acc[i] = op(acc[i], u64::from_le_bytes(c.try_into().unwrap()));
                    }
                });
            });
            chain(&mut gb, &mut prev, node);
        }
        m <<= 1;
    }
    if vr != 0 {
        // Non-roots resolve to None once their send is accepted.
        let slot2 = slot.clone();
        let node = gb.add_fn(move || {
            *slot2.lock() = Some(None);
        });
        chain(&mut gb, &mut prev, node);
    }
    let graph = gb.build();
    graph.start();
    Ok(IColl { graph, slot })
}

/// Non-blocking forwarding-ring allgather; resolves to the rank-ordered
/// contributions.
pub fn iallgather(rt: &Runtime, mine: &[u8]) -> Result<IColl<Vec<Vec<u8>>>> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let len = mine.len();
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
    out[me] = mine.to_vec();
    let slot = Arc::new(Mutex::new(Some(out)));
    let seq = next_seq(rt);
    let tag = coll_tag(seq, ROUND_AG_BASE);
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let mut gb = GraphBuilder::new();
    let mut prev: Option<NodeId> = None;
    for r in 0..n.saturating_sub(1) {
        let src = (me + n - r) % n; // whose block we forward this round
        let inc = (left + n - r) % n; // whose block arrives this round
        let rt2 = rt.clone();
        let slot2 = slot.clone();
        let node = gb.add_comm(move |comp| {
            let payload = slot2.lock().as_ref().expect("allgather slot")[src].clone();
            post_send_ff(&rt2, right, payload, tag);
            let slot3 = slot2.clone();
            post_recv_node(&rt2, left, len, tag, comp, move |data| {
                slot3.lock().as_mut().expect("allgather slot")[inc] = data.to_vec();
            });
        });
        chain(&mut gb, &mut prev, node);
    }
    let graph = gb.build();
    graph.start();
    Ok(IColl { graph, slot })
}

/// Non-blocking pairwise alltoall; resolves to the rank-ordered blocks
/// received. All blocks must have equal length across ranks.
pub fn ialltoall(rt: &Runtime, send: &[Vec<u8>]) -> Result<IColl<Vec<Vec<u8>>>> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    assert_eq!(send.len(), n, "alltoall needs one block per rank");
    let block = send.first().map_or(0, |b| b.len());
    assert!(send.iter().all(|b| b.len() == block), "alltoall blocks must have equal length");
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
    out[me] = send[me].clone();
    let slot = Arc::new(Mutex::new(Some(out)));
    let seq = next_seq(rt);
    let tag = coll_tag(seq, ROUND_A2A);
    let mut gb = GraphBuilder::new();
    if n > 1 {
        let rt2 = rt.clone();
        let slot2 = slot.clone();
        let blocks: Vec<Vec<u8>> = send.to_vec();
        gb.add_comm(move |comp| {
            // One node: all receives pre-posted (the handler counts
            // them down into the node's single signal), sends
            // fire-and-forget in (me + r) mod n order.
            let remaining = Arc::new(AtomicUsize::new(n - 1));
            for peer in (0..n).filter(|&p| p != me) {
                let slot3 = slot2.clone();
                let remaining = remaining.clone();
                let comp = comp.clone();
                post_recv_node(&rt2, peer, block, tag, Comp::alloc_handler(|_| {}), move |data| {
                    slot3.lock().as_mut().expect("alltoall slot")[peer] = data.to_vec();
                    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        comp.signal(CompDesc::empty());
                    }
                });
            }
            for r in 1..n {
                let peer = (me + r) % n;
                post_send_ff(&rt2, peer, blocks[peer].clone(), tag);
            }
        });
    }
    let graph = gb.build();
    graph.start();
    Ok(IColl { graph, slot })
}

/// Non-blocking uneven-block alltoallv; resolves to the rank-ordered
/// blocks received. Blocks may differ in length per pair and the
/// receive sizes need not be known: the graph chains a **count round**
/// (every pair exchanges its block length, 8 bytes LE) into a **data
/// round** that posts exactly the learned landing sizes — the MoE
/// dispatch shape, overlappable behind compute via [`IColl::test`].
/// Zero-byte pairs post nothing in the data round (counted in
/// `coll_skipped_pairs`); unlike [`alltoallv`](super::alltoallv) there
/// is no chunking — each block is one message (the blocking engine is
/// the bandwidth path, this is the overlap path).
pub fn ialltoallv(rt: &Runtime, send: &[Vec<u8>]) -> Result<IColl<Vec<Vec<u8>>>> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    assert_eq!(send.len(), n, "alltoallv needs one block per rank");
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
    out[me] = send[me].clone();
    let slot = Arc::new(Mutex::new(Some(out)));
    let seq = next_seq(rt);
    let ctag = coll_tag(seq, ROUND_A2AV_CNT);
    let dtag = coll_tag(seq, ROUND_A2AV);
    let mut gb = GraphBuilder::new();
    if n > 1 {
        let counts: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(vec![0usize; n]));

        // Count round: one node, all 8-byte count receives counted down
        // into its signal, count sends fire-and-forget.
        let rt2 = rt.clone();
        let counts2 = counts.clone();
        let lens: Vec<usize> = send.iter().map(Vec::len).collect();
        let cnt_node = gb.add_comm(move |comp| {
            let remaining = Arc::new(AtomicUsize::new(n - 1));
            for peer in (0..n).filter(|&p| p != me) {
                let counts3 = counts2.clone();
                let remaining = remaining.clone();
                let comp = comp.clone();
                post_recv_node(&rt2, peer, 8, ctag, Comp::alloc_handler(|_| {}), move |data| {
                    let c = u64::from_le_bytes(data[..8].try_into().unwrap()) as usize;
                    counts3.lock()[peer] = c;
                    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        comp.signal(CompDesc::empty());
                    }
                });
            }
            for r in 1..n {
                let peer = (me + r) % n;
                post_send_ff(&rt2, peer, (lens[peer] as u64).to_le_bytes().to_vec(), ctag);
            }
        });

        // Data round: posts exactly the learned landing sizes, skips
        // zero pairs both ways. Runs only after every count arrived.
        let rt2 = rt.clone();
        let slot2 = slot.clone();
        let blocks: Vec<Vec<u8>> = send.to_vec();
        let data_node = gb.add_comm(move |comp| {
            let learned = counts.lock().clone();
            let inbound = (0..n).filter(|&p| p != me && learned[p] > 0).count();
            if inbound == 0 {
                comp.signal(CompDesc::empty());
            } else {
                let remaining = Arc::new(AtomicUsize::new(inbound));
                for peer in (0..n).filter(|&p| p != me && learned[p] > 0) {
                    let slot3 = slot2.clone();
                    let remaining = remaining.clone();
                    let comp = comp.clone();
                    post_recv_node(
                        &rt2,
                        peer,
                        learned[peer],
                        dtag,
                        Comp::alloc_handler(|_| {}),
                        move |data| {
                            slot3.lock().as_mut().expect("alltoallv slot")[peer] = data.to_vec();
                            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                comp.signal(CompDesc::empty());
                            }
                        },
                    );
                }
            }
            let mut skipped = 0u64;
            for r in 1..n {
                let peer = (me + r) % n;
                if blocks[peer].is_empty() {
                    skipped += 1;
                } else {
                    post_send_ff(&rt2, peer, blocks[peer].clone(), dtag);
                }
            }
            if skipped > 0 {
                rt2.device().inner.stats.add(|c| &c.coll_skipped_pairs, skipped);
            }
        });
        gb.add_edge(cnt_node, data_node);
    }
    let graph = gb.build();
    graph.start();
    Ok(IColl { graph, slot })
}

/// Non-blocking allreduce (binomial reduce to rank 0 + broadcast) of
/// `u64` lanes; resolves to the reduced vector on every rank.
pub fn iallreduce_u64(
    rt: &Runtime,
    contrib: &[u64],
    op: impl Fn(u64, u64) -> u64 + Copy + Send + Sync + 'static,
) -> Result<IColl<Vec<u64>>> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let len = contrib.len() * 8;
    let slot = Arc::new(Mutex::new(Some(contrib.to_vec())));
    let seq = next_seq(rt);
    let rtag = coll_tag(seq, ROUND_REDUCE);
    let btag = coll_tag(seq, ROUND_BCAST);
    let mut gb = GraphBuilder::new();
    let mut prev: Option<NodeId> = None;
    let vr = me; // root 0
                 // Phase 1: binomial reduce to rank 0 (program order of this rank).
    let mut m = 1usize;
    while m < n {
        if vr & m != 0 {
            let parent = vr - m;
            let rt2 = rt.clone();
            let slot2 = slot.clone();
            let node = gb.add_comm(move |comp| {
                let bytes: Vec<u8> = {
                    let g = slot2.lock();
                    g.as_ref()
                        .expect("allreduce slot")
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect()
                };
                post_send_node(&rt2, parent, bytes, rtag, comp);
            });
            chain(&mut gb, &mut prev, node);
            break;
        }
        if vr + m < n {
            let child = vr + m;
            let rt2 = rt.clone();
            let slot2 = slot.clone();
            let node = gb.add_comm(move |comp| {
                let slot3 = slot2.clone();
                post_recv_node(&rt2, child, len, rtag, comp, move |data| {
                    let mut g = slot3.lock();
                    let acc = g.as_mut().expect("allreduce slot");
                    for (i, c) in data.chunks_exact(8).enumerate() {
                        acc[i] = op(acc[i], u64::from_le_bytes(c.try_into().unwrap()));
                    }
                });
            });
            chain(&mut gb, &mut prev, node);
        }
        m <<= 1;
    }
    // Phase 2: binomial broadcast of the reduced vector from rank 0.
    if vr != 0 {
        let hb = 1usize << (usize::BITS - 1 - vr.leading_zeros());
        let parent = vr - hb;
        let rt2 = rt.clone();
        let slot2 = slot.clone();
        let node = gb.add_comm(move |comp| {
            let slot3 = slot2.clone();
            post_recv_node(&rt2, parent, len, btag, comp, move |data| {
                let mut g = slot3.lock();
                let acc = g.as_mut().expect("allreduce slot");
                for (i, c) in data.chunks_exact(8).enumerate() {
                    acc[i] = u64::from_le_bytes(c.try_into().unwrap());
                }
            });
        });
        chain(&mut gb, &mut prev, node);
    }
    let mut m = if vr == 0 { 1 } else { 1usize << (usize::BITS - vr.leading_zeros()) };
    while vr + m < n {
        let child = vr + m;
        let rt2 = rt.clone();
        let slot2 = slot.clone();
        let node = gb.add_comm(move |comp| {
            let bytes: Vec<u8> = {
                let g = slot2.lock();
                g.as_ref().expect("allreduce slot").iter().flat_map(|v| v.to_le_bytes()).collect()
            };
            post_send_node(&rt2, child, bytes, btag, comp);
        });
        chain(&mut gb, &mut prev, node);
        m <<= 1;
    }
    let graph = gb.build();
    graph.start();
    Ok(IColl { graph, slot })
}
