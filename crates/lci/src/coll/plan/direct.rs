//! The direct schedule: an allreduce whose ranks share one address space
//! (DESIGN.md §4.11 "Direct").
//!
//! Where this rank's device can address every rank's buffer — the sims
//! and in-process shm, where `NetDevice::local_addr` answers for every
//! pair ([`addresses_every_rank`]) — an allreduce needs no piece on the
//! wire: each rank grants its buffer to every peer, and once it holds
//! every peer's grant it reduces its own slice of all the buffers and
//! writes the result back, then signals each peer with a zero-byte put.
//! One pass reads every byte once and writes it once: at `n = 2` a 1 MiB
//! allreduce touches 2 MiB per rank, where the ring's `2(n−1)` rounds
//! of pieces touch 2.5 MiB and signal once per piece.
//!
//! The answer is all or nothing per fabric (every rank of an in-process
//! fabric, none across processes or on tcp), so every rank builds the
//! same schedule; tcp and shm across processes keep the ring.

use super::{block, How, Peer, Plan, Send, Shape};
use crate::coll::lend::Scope;
use crate::coll::ops::ReduceOp;
use crate::coll::{grant, Tags};
use crate::error::{FatalError, Result};
use crate::runtime::Runtime;
use crate::types::Rank;

/// Bytes of a slice one pass reduces at a time: small enough for the
/// accumulator to stay cached while every rank's block streams past it.
const BLOCK: usize = 16 << 10;

/// What one rank of a direct schedule reduces: its slice of every
/// rank's buffer.
#[derive(Clone, Copy, Debug)]
pub(in crate::coll) struct Slice {
    pub(super) me: Rank,
    pub(super) off: usize,
    pub(super) len: usize,
    pub(super) elem: usize,
}

/// Where each rank's slice is in this address space, kept by a
/// `CollState` so a warm call allocates nothing.
#[derive(Default)]
pub(in crate::coll) struct Scratch {
    at: Vec<usize>,
}

/// Whether this rank's device can address every peer's memory, so a
/// reduction over `buf` runs [`direct`]. Asked once per runtime, about a
/// registration of `buf` (the answer is the pair's, the same both ways),
/// and kept; an empty buffer is never direct.
pub(in crate::coll) fn addresses_every_rank(rt: &Runtime, buf: &[u8]) -> Result<bool> {
    if buf.is_empty() {
        return Ok(false);
    }
    if let Some(&yes) = rt.inner.coll_direct.get() {
        return Ok(yes);
    }
    let dev = rt.device();
    let mr = grant::register(dev, buf.as_ptr(), buf.len())?;
    // A peer not attached yet, or gone, is in another process or on
    // tcp: not addressable. The ring then meets the error itself.
    let reaches = |p: Rank| matches!(dev.inner.net.local_addr(p, mr.rkey, 0, mr.len), Ok(Some(_)));
    let yes = (0..rt.rank_n()).filter(|&p| p != rt.rank_me()).all(reaches);
    dev.deregister_memory(&mr)?;
    Ok(*rt.inner.coll_direct.get_or_init(|| yes))
}

/// Direct allreduce of `len` bytes of `elem`-byte lanes.
///
/// Rank `me` owns block `me` of the ring's near-equal partition. At its
/// first step it grants its whole buffer to every peer, as any landing
/// is granted. Once it holds every peer's grant it reduces its slice
/// ([`reduce_slice`]), `BLOCK` bytes at a time: rank 0's bytes are the
/// accumulator, ranks `1..n` are folded into it in rank order
/// (`op.fold(acc, theirs)`) in place, and the result is copied into
/// every other rank's buffer. Only then may its sends go out: one
/// zero-byte put per peer, whose signal says "my slice of your buffer
/// is final". Its receives are the peers' signals, all open up front;
/// it finishes once every one is harvested.
/// Every rank's result is the serial rank-order left fold, bit for bit,
/// whatever the wire and the timing.
///
/// **Who touches which bytes when.** Slice `o` of any buffer is read and
/// written by its owner `o` alone, and nothing else of the call touches
/// it. The owner reads rank `p`'s slice only after `p`'s grant — sent at
/// `p`'s first step, when `p`'s caller has lent the buffer with its
/// contribution in it — and writes it before the signal to `p`, which
/// `p` must harvest before it finishes (the put's immediate follows the
/// writes, and the receive queue's pop acquires them). So every byte of
/// a buffer is written by its slice's owner alone, in its one
/// reduction, inside the interval the buffer is lent.
pub(in crate::coll) fn direct(plan: &mut Plan, w: Shape, len: usize, elem: usize, tags: Tags) {
    let Shape { n, me, .. } = w;
    plan.clear(w, tags);
    let (off, slice) = block(n, len, elem, me);
    plan.direct = Some(Slice { me, off, len: slice, elem });
    let tag = tags.piece(0, 0);
    for to in (1..n).map(|k| (me + k) % n) {
        let how = How::Direct;
        plan.sends.push(Send { to, off: 0, len: 0, tag, how, dst_off: 0, slot: 0 });
        plan.recv(how, to, (0, 0), tag, 0, (0, 0));
    }
    plan.seal(n - 1, 1);
}

/// Reduces slice `s` of every rank's buffer (`direct`'s doc) through the
/// peers' grants in `peers`. Fails, having written nothing, if this
/// device cannot address a peer that granted its buffer.
pub(in crate::coll) fn reduce_slice<O: ReduceOp + ?Sized>(
    rt: &Runtime,
    peers: &[Peer],
    s: Slice,
    scratch: &mut Scratch,
    mem: &Scope<'_>,
    op: &O,
) -> Result<()> {
    if s.len == 0 {
        return Ok(());
    }
    let net = &rt.device().inner.net;
    scratch.at.clear();
    for (r, p) in peers.iter().enumerate() {
        let at = if r == s.me {
            // SAFETY: this rank's own slice, which no peer touches
            // (`direct`'s doc) and no piece of the call lands in.
            unsafe { mem.window(s.off..s.off + s.len) }.as_mut_ptr()
        } else {
            let (rkey, base) = p.grant.expect("every peer's grant is in").land;
            let fail = |why: &dyn std::fmt::Display| {
                FatalError::Net(format!("collective: rank {r} granted a direct reduction: {why}"))
            };
            match net.local_addr(r, rkey, base + s.off, s.len) {
                Ok(Some(at)) => at,
                Ok(None) => return Err(fail(&"this device cannot address its buffer")),
                Err(e) => return Err(fail(&e)),
            }
        };
        scratch.at.push(at as usize);
    }
    let block = (BLOCK / s.elem).max(1) * s.elem;
    for o in (0..s.len).step_by(block) {
        let len = block.min(s.len - o);
        let at = |r: usize| (scratch.at[r] + o) as *mut u8;
        // Every block below is one rank's, inside the slice that
        // `local_addr` (or the scope's window, for this rank's own)
        // bounds-checked against the live registration of the buffer
        // its rank granted for this call; the slice is this rank's alone
        // from that grant to its signal (`direct`'s doc; checked by
        // `tests::model`; DESIGN.md §4.11 "Lending", grants), and no two
        // ranks' blocks overlap. Rank 0's block is the accumulator.
        // SAFETY: as above; nothing else views rank 0's block.
        let acc = unsafe { std::slice::from_raw_parts_mut(at(0), len) };
        for r in 1..peers.len() {
            // SAFETY: as above; rank `r`'s block is not the accumulator.
            op.fold(acc, unsafe { std::slice::from_raw_parts(at(r), len) });
        }
        for r in 1..peers.len() {
            // SAFETY: as above; the accumulator is not rank `r`'s block.
            unsafe { std::ptr::copy_nonoverlapping(acc.as_ptr(), at(r), len) };
        }
    }
    Ok(())
}
