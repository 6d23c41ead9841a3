//! Naive collectives: the reference implementations the proptests
//! compare the plans against and the baseline rows of the collectives
//! benches — and nothing else: no code path of the library calls them.
//! Same signatures and calling contract as their [`crate::coll`]
//! namesakes, but shapes are not validated (a bad shape panics on a
//! slice bound).
//!
//! These are the pre-pipelining algorithms: allreduce as binomial
//! reduce + broadcast (2·log₂ n latency, ~2× the ring's byte volume on
//! the root's links), whole-buffer clone-per-child broadcast, an
//! `n−1`-round forwarding ring allgather, and an alltoall whose sends
//! each wait for completion before the next is posted. They clone
//! payloads freely — that is the point of the baseline — and block in
//! [`Runtime::wait_until`](crate::Runtime::wait_until) like the
//! blocking collectives do.

use super::ops::ReduceOp;
use super::{coll_tag, next_seq, ROUND_A2A, ROUND_A2AV, ROUND_AG_BASE, ROUND_BCAST, ROUND_REDUCE};
use crate::comp::Comp;
use crate::error::{PostResult, Result};
use crate::runtime::Runtime;
use crate::types::{CompDesc, Rank};
use crate::wait::Streak;

/// Waits for a synchronizer comp, taking its descriptor.
fn wait_sync_take(rt: &Runtime, comp: &Comp) -> Result<CompDesc> {
    let sync = comp.as_sync().expect("synchronizer comp");
    rt.wait_until(|| sync.test())?;
    Ok(sync.take().pop().expect("sync descriptor"))
}

/// Sends `payload` (cloned) and waits for the send to complete before
/// returning — the per-send barrier the pipelined engines avoid.
fn send_wait(rt: &Runtime, peer: Rank, payload: &[u8], tag: crate::types::Tag) -> Result<()> {
    let comp = Comp::alloc_sync(1);
    // The retries are one idle streak (`crate::wait`).
    let mut retries = Streak::default();
    let posted = loop {
        // Coalesced sends complete with the frame still buffered; the
        // blocking baseline needs on-wire completions too (the last rank
        // out of a collective stops progressing), so opt out.
        match rt
            .post_send_x(peer, payload.to_vec(), tag, comp.clone())
            .allow_coalescing(false)
            .call()?
        {
            PostResult::Done(_) => break false,
            PostResult::Posted => break true,
            PostResult::Retry(_) => {
                rt.progress_all()?;
                retries.idle();
            }
        }
    };
    retries.end();
    if !posted {
        return Ok(());
    }
    let sync = comp.as_sync().expect("synchronizer comp");
    rt.wait_until(|| sync.test())
}

/// Posts a fresh-buffer receive and blocks for its delivery.
fn recv_wait(rt: &Runtime, peer: Rank, len: usize, tag: crate::types::Tag) -> Result<CompDesc> {
    let comp = Comp::alloc_sync(1);
    match rt.post_recv(peer, vec![0u8; len.max(1)], tag, comp.clone())? {
        PostResult::Done(d) => Ok(d),
        PostResult::Posted => wait_sync_take(rt, &comp),
        PostResult::Retry(_) => unreachable!("recv never retries"),
    }
}

/// Allreduce as binomial reduce to rank 0 followed by a broadcast.
pub fn allreduce<O: ReduceOp + ?Sized>(rt: &Runtime, buf: &mut [u8], op: &O) -> Result<()> {
    let n = rt.rank_n();
    let vr = rt.rank_me(); // root 0, so virtual rank == rank
    let seq = next_seq(rt);
    let tag = coll_tag(seq, ROUND_REDUCE);
    let mut m = 1usize;
    loop {
        if vr & m != 0 {
            send_wait(rt, vr - m, buf, tag)?;
            break;
        }
        if vr + m < n {
            let desc = recv_wait(rt, vr + m, buf.len(), tag)?;
            op.fold(buf, &desc.data.as_slice()[..buf.len()]);
        }
        m <<= 1;
        if m >= n {
            break;
        }
    }
    broadcast_bytes(rt, 0, buf)
}

/// Binomial-tree broadcast, whole buffer per edge, clone per child.
pub fn broadcast_bytes(rt: &Runtime, root: Rank, buf: &mut [u8]) -> Result<()> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let vr = (me + n - root) % n;
    let seq = next_seq(rt);
    let tag = coll_tag(seq, ROUND_BCAST);
    if vr != 0 {
        let hb = 1usize << (usize::BITS - 1 - vr.leading_zeros());
        let parent = ((vr - hb) + root) % n;
        let desc = recv_wait(rt, parent, buf.len(), tag)?;
        buf.copy_from_slice(&desc.data.as_slice()[..buf.len()]);
    }
    let mut m = if vr == 0 { 1 } else { 1usize << (usize::BITS - vr.leading_zeros()) };
    while vr + m < n {
        let child = ((vr + m) + root) % n;
        send_wait(rt, child, buf, tag)?;
        m <<= 1;
    }
    Ok(())
}

/// Forwarding-ring allgather: `n − 1` rounds, each forwarding one
/// cloned block to the right neighbour.
pub fn allgather_bytes(rt: &Runtime, mine: &[u8], out: &mut [u8]) -> Result<()> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let len = mine.len();
    out[me * len..(me + 1) * len].copy_from_slice(mine);
    let seq = next_seq(rt);
    let tag = coll_tag(seq, ROUND_AG_BASE);
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    for r in 0..n - 1 {
        let src = (me + n - r) % n; // whose block we forward this round
        let payload = out[src * len..(src + 1) * len].to_vec();
        let recv_comp = Comp::alloc_sync(1);
        let posted = rt.post_recv(left, vec![0u8; len.max(1)], tag, recv_comp.clone())?;
        send_wait(rt, right, &payload, tag)?;
        let desc = match posted {
            PostResult::Done(d) => d,
            PostResult::Posted => wait_sync_take(rt, &recv_comp)?,
            PostResult::Retry(_) => unreachable!("recv never retries"),
        };
        let inc = (left + n - r) % n; // whose block just arrived
        out[inc * len..(inc + 1) * len].copy_from_slice(&desc.data.as_slice()[..len]);
    }
    Ok(())
}

/// Pairwise alltoall with serialized sends (each waits before the next
/// posts); receives are still pre-posted so rounds can't deadlock.
pub fn alltoall_bytes(rt: &Runtime, send: &[u8], recv: &mut [u8]) -> Result<()> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let block = send.len() / n;
    recv[me * block..(me + 1) * block].copy_from_slice(&send[me * block..(me + 1) * block]);
    let seq = next_seq(rt);
    let tag = coll_tag(seq, ROUND_A2A);
    let mut pending = Vec::new();
    for peer in (0..n).filter(|&p| p != me) {
        let comp = Comp::alloc_sync(1);
        match rt.post_recv(peer, vec![0u8; block.max(1)], tag, comp.clone())? {
            PostResult::Done(d) => {
                recv[peer * block..(peer + 1) * block].copy_from_slice(&d.data.as_slice()[..block]);
            }
            PostResult::Posted => pending.push((peer, comp)),
            PostResult::Retry(_) => unreachable!("recv never retries"),
        }
    }
    for r in 1..n {
        let peer = (me + r) % n;
        send_wait(rt, peer, &send[peer * block..(peer + 1) * block], tag)?;
    }
    for (peer, comp) in pending {
        let desc = wait_sync_take(rt, &comp)?;
        recv[peer * block..(peer + 1) * block].copy_from_slice(&desc.data.as_slice()[..block]);
    }
    Ok(())
}

/// Dense store-and-forward alltoallv: every pair exchanges a message
/// even when its block is empty (a zero-byte pair still pays a full
/// eager round-trip — the sparse-skipping contrast the pipelined engine
/// measures against), every block is cloned whole (no chunking, so one
/// giant block serializes the rendezvous pump), and sends wait one at a
/// time. Receives are still pre-posted so the rounds can't deadlock.
pub fn alltoallv(
    rt: &Runtime,
    send: &[u8],
    send_counts: &[usize],
    recv: &mut [u8],
    recv_counts: &[usize],
) -> Result<()> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let seq = next_seq(rt);
    let tag = coll_tag(seq, ROUND_A2AV);
    let off = |counts: &[usize], p: usize| -> usize { counts[..p].iter().sum() };
    let (so, ro) = (off(send_counts, me), off(recv_counts, me));
    recv[ro..ro + recv_counts[me]].copy_from_slice(&send[so..so + send_counts[me]]);
    let mut pending = Vec::new();
    for peer in (0..n).filter(|&p| p != me) {
        let len = recv_counts[peer];
        let comp = Comp::alloc_sync(1);
        match rt.post_recv(peer, vec![0u8; len.max(1)], tag, comp.clone())? {
            PostResult::Done(d) => {
                let ro = off(recv_counts, peer);
                recv[ro..ro + len].copy_from_slice(&d.data.as_slice()[..len]);
            }
            PostResult::Posted => pending.push((peer, comp)),
            PostResult::Retry(_) => unreachable!("recv never retries"),
        }
    }
    for r in 1..n {
        let peer = (me + r) % n;
        let so = off(send_counts, peer);
        let block = &send[so..so + send_counts[peer]];
        // An empty pair still ships a 1-byte frame (into the peer's
        // `max(1)` box): the full-message-per-pair cost the sparse
        // engine is measured against.
        send_wait(rt, peer, if block.is_empty() { &[0u8] } else { block }, tag)?;
    }
    for (peer, comp) in pending {
        let desc = wait_sync_take(rt, &comp)?;
        let ro = off(recv_counts, peer);
        recv[ro..ro + recv_counts[peer]]
            .copy_from_slice(&desc.data.as_slice()[..recv_counts[peer]]);
    }
    Ok(())
}
