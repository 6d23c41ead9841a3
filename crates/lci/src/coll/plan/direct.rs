//! The direct schedule: a reduction whose ranks share one address space
//! (DESIGN.md §4.11 "Direct").
//!
//! Where this rank's device can address every rank's buffer — the sims
//! and in-process shm, where `NetDevice::local_addr` answers for every
//! pair ([`addresses_every_rank`]) — a reduction needs no piece on the
//! wire: each rank grants its buffer to every peer, and once it holds
//! every peer's grant it reduces its own slice of all the buffers and
//! writes the result back, then signals each peer with a zero-byte put.
//! One pass reads every byte once and writes it once: at `n = 2` a 1 MiB
//! allreduce touches 2 MiB per rank, where the ring's `2(n−1)` rounds
//! of pieces touch 2.5 MiB and signal once per piece.
//!
//! The answer is all or nothing per fabric (every rank of an in-process
//! fabric, none across processes or on tcp), so every rank builds the
//! same schedule; tcp and shm across processes keep the ring and the
//! binomial reduce.

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
    /// `reduce`'s root, whose buffer alone is written; `None` writes
    /// every rank's.
    pub(super) root: Option<Rank>,
}

/// The reduction's memory, kept by a `CollState` so a warm call
/// allocates nothing: where each rank's slice is in this address space,
/// and the accumulator of a `reduce` to a root other than rank 0.
#[derive(Default)]
pub(in crate::coll) struct Scratch {
    acc: Vec<u8>,
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

/// Direct reduction of `len` bytes of `elem`-byte lanes: to every rank
/// (`root: None`, allreduce) or into `root`'s buffer alone (`reduce`).
///
/// Rank `me` owns block `me` of the ring's near-equal partition. At its
/// first step it grants its whole buffer to every peer, as any landing
/// is granted. Once it holds every peer's grant it reduces its slice
/// ([`reduce_slice`]), `BLOCK` bytes at a time: rank 0's bytes are the
/// accumulator, ranks `1..n` are folded into it in rank order
/// (`op.fold(acc, theirs)`), and the result is written into every rank's
/// buffer, or the root's. The accumulator is rank 0's block itself where
/// that buffer is written anyway, else a copy in the scratch (a `reduce`
/// to another root only reads rank 0's buffer). Only then
/// may its sends go out: one zero-byte put per peer, whose signal says
/// "my slice of your buffer is final". Its receives are the peers'
/// signals, all open up front; it finishes once every one is harvested.
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
/// reduction, inside the interval the buffer is lent; a `reduce` only
/// reads the non-root buffers.
pub(in crate::coll) fn direct(
    plan: &mut Plan,
    w: Shape,
    len: usize,
    elem: usize,
    root: Option<Rank>,
    tags: Tags,
) {
    let Shape { n, me, .. } = w;
    plan.clear(w, tags);
    let (off, slice) = block(n, len, elem, me);
    plan.direct = Some(Slice { me, off, len: slice, elem, root });
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
    // The accumulator: rank 0's block where its buffer is written anyway
    // (allreduce, a `reduce` to rank 0), its bytes already there; else
    // the scratch, which they are copied into.
    let in_place = s.root.is_none_or(|root| root == 0);
    if !in_place && scratch.acc.len() < block {
        scratch.acc.resize(block, 0);
    }
    for o in (0..s.len).step_by(block) {
        let len = block.min(s.len - o);
        let at = |r: usize| (scratch.at[r] + o) as *mut u8;
        // Every block below is one rank's, inside the slice that
        // `local_addr` (or the scope's window, for this rank's own)
        // bounds-checked against the live registration of the buffer
        // its rank granted for this call; the slice is this rank's alone
        // from that grant to its signal (`direct`'s doc; checked by
        // `tests::model`; DESIGN.md §4.11 "Lending", grants), and no two
        // ranks' blocks overlap.
        let acc = if in_place {
            // SAFETY: as above; nothing else views rank 0's block.
            unsafe { std::slice::from_raw_parts_mut(at(0), len) }
        } else {
            let acc = &mut scratch.acc[..len];
            // SAFETY: as above; the scratch is this state's own.
            acc.copy_from_slice(unsafe { std::slice::from_raw_parts(at(0), len) });
            acc
        };
        for r in 1..peers.len() {
            // SAFETY: as above; rank `r`'s block is not the accumulator.
            op.fold(acc, unsafe { std::slice::from_raw_parts(at(r), len) });
        }
        for r in (usize::from(in_place)..peers.len()).filter(|&r| s.root.is_none_or(|x| x == r)) {
            // SAFETY: as above; the accumulator is not rank `r`'s block.
            unsafe { std::ptr::copy_nonoverlapping(acc.as_ptr(), at(r), len) };
        }
    }
    Ok(())
}
