//! Pipelined collective engines: chunked ring allreduce, chunk-streamed
//! binomial broadcast, Bruck allgather, bounded-inflight pairwise
//! alltoall.
//!
//! ## Ring allreduce (the tentpole)
//!
//! The buffer is cut into `n` near-equal blocks. Over `2(n−1)` rounds
//! each rank sends one block to its right neighbour and receives one
//! from its left: rounds `0..n−1` fold the arrival into the local block
//! (reduce-scatter — after them rank `b+1 mod n` owns the fully reduced
//! block `b`), rounds `n−1..2(n−1)` land it in place (allgather). Per
//! rank this moves `2(n−1)/n · bytes` each way — bandwidth-optimal.
//!
//! Pipelining happens at chunk granularity *across* rounds: the arrival
//! of round `t`'s chunk `c` is exactly what enables sending round
//! `t+1`'s chunk `c` (it is the same byte range, now carrying one more
//! fold), so a chunk's next hop departs while later chunks of the same
//! round are still in flight. Sends never wait individually; they ride
//! a `coll_max_inflight` window, each posted from the buffer itself.
//!
//! Receives are posted two rounds ahead of the processing frontier.
//! That window is a *performance* lookahead (arrivals usually match a
//! posted landing and skip the unexpected path), not a correctness
//! requirement: ring skew between neighbours is bounded by the
//! send-enablement chain, and anything arriving early is held by the
//! matching engine's unexpected queue (eager copies on match,
//! rendezvous RTS answered on match) and still lands where we posted.
//!
//! Every chunk has a tag of its own ([`Tags`]: round `t`'s chunk `c` is
//! `(seq + c, t)`), so it matches the one receive posted for it in
//! whatever order chunks are sent, arrive or are handled — next-round
//! sends leave in completion order, and a second thread progressing the
//! device may handle arrivals out of order. `user_ctx = round << 32 |
//! chunk` on each posted receive tells the engine which chunk a
//! completion is.
//!
//! ## Who touches which bytes when (DESIGN.md §4.11 "Lending")
//!
//! The buffer is lent ([`Scope`]): sends read it in place, and an
//! allgather-round arrival (`t ≥ n−1`) is written straight into it by
//! whichever thread delivers it. A reduce-scatter arrival lands in a
//! shelf box instead — the fold needs it beside the accumulator. Write
//! `(t, c)` for chunk `c` of the block round `t` receives. The chain the
//! `SAFETY` comments below lean on: the left neighbour sends `(t, c)`
//! only after it processed its own `(t−1, c)`, and so on around the
//! ring, so **`(t, c)` reaches us only after the right neighbour fully
//! received our round `t−n+1` send of that very range, which we posted
//! after processing `(t−n, c)`**. The three ways a range is touched —
//! fold `(t, c)` for `t < n−1`, landing `(t, c)` for `t ≥ n−1`, send in
//! round `t+1` — therefore never overlap in time: a range's send in
//! round `s` is next written by the landing of round `s+n−1`, whose
//! bytes cannot leave the left neighbour before the right one has read
//! ours to the end; its fold in round `t` precedes its send in `t+1`
//! (program order) and follows no touch at all (the earlier one would
//! be round `t−n < 0`); and after its landing in round `t ≥ n−1` the
//! only later touch is the send of round `t+1`, posted once the landing
//! was popped. A landing may be *posted* over a range that is still
//! being sent (`n = 2` posts both rounds up front) or even folded
//! (rendezvous FINs of different rounds can complete out of order, so
//! the two-round lookahead can open round `t+n` early): posting hands
//! over an address and touches nothing — what the chain bounds is when
//! the bytes can arrive.

use super::lend::Scope;
use super::ops::ReduceOp;
use super::{
    coll_tag, drain_sends, next_seq, pop_recv, post_recv_cq, post_recv_lent, post_windowed,
    CollState, Tags, ROUND_A2A, ROUND_AG_BASE, ROUND_BCAST,
};
use crate::error::Result;
use crate::runtime::Runtime;

pub(super) fn allreduce<O: ReduceOp + ?Sized>(
    rt: &Runtime,
    st: &mut CollState,
    mem: &Scope<'_>,
    op: &O,
) -> Result<()> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let elem = op.elem_size();
    let nelems = mem.len() / elem;
    let dev = rt.device().clone();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let rounds = 2 * (n - 1);
    // Chunk granularity: the configured size, aligned down to whole
    // elements so folds never split a lane.
    let chunk = (rt.config().coll_chunk_size / elem).max(1) * elem;

    // Block `b` covers elements `[b·q + min(b, r), +q + (b < r))` —
    // near-equal blocks that also handle `nelems < n` (empty blocks).
    let q = nelems / n;
    let r = nelems % n;
    let block = |b: usize| -> (usize, usize) {
        let start = b * q + b.min(r);
        let len = q + usize::from(b < r);
        (start * elem, len * elem)
    };
    // Round `t`: send block `(me − t) mod n`, receive `(me − t − 1)
    // mod n` (each rank's receive is its send of the next round).
    let send_block = |t: usize| (me + 2 * n - t) % n;
    let recv_block = |t: usize| (me + 2 * n - t - 1) % n;
    let chunks_of = |bytes: usize| bytes.div_ceil(chunk);
    let round_full =
        |st: &CollState, t: usize| st.arrived[t] as usize == chunks_of(block(recv_block(t)).1);

    let total: usize = (0..rounds).map(|t| chunks_of(block(recv_block(t)).1)).sum();
    // Block 0 is never shorter than another, on every rank alike.
    let tags = Tags::reserve(rt, chunks_of(block(0).1));
    st.arrived.clear();
    st.arrived.resize(rounds, 0);

    // Advance the receive window: rounds `[0, posted)` have their
    // landings posted — a shelf box per chunk while arrivals are folded,
    // the chunk's own range of the buffer once they are final; round
    // `t + 2` opens when round `t` fully arrived (zero-chunk rounds
    // cascade straight through).
    let mut posted = 0usize;
    let advance = |rt: &Runtime, st: &mut CollState, posted: &mut usize| -> Result<()> {
        while *posted < rounds {
            if *posted >= 2 && !round_full(st, *posted - 2) {
                break;
            }
            let t = *posted;
            let (boff, blen) = block(recv_block(t));
            for c in 0..chunks_of(blen) {
                let off = boff + c * chunk;
                let clen = chunk.min(boff + blen - off);
                let ctx = ((t as u64) << 32) | c as u64;
                let tag = tags.piece(t as u32, c);
                if t < n - 1 {
                    post_recv_cq(rt, &dev, st, left, clen, tag, ctx)?;
                } else {
                    // SAFETY: posting writes nothing; `(t, c)` is written
                    // on arrival, after our round `t−n+1` send of this
                    // range was read to the end, and nothing of ours
                    // touches the range again before `landed` below
                    // (module doc; DESIGN.md §4.11 "Lending", ring).
                    let landing = unsafe { mem.landing(off..off + clen) };
                    post_recv_lent(rt, &dev, st, left, landing, tag, ctx)?;
                }
            }
            *posted += 1;
        }
        Ok(())
    };
    advance(rt, st, &mut posted)?;

    // Seed the pipeline: round 0 sends the whole owned block, chunk by
    // chunk, under the in-flight window.
    {
        let (boff, blen) = block(send_block(0));
        for c in 0..chunks_of(blen) {
            let off = boff + c * chunk;
            let clen = chunk.min(boff + blen - off);
            // SAFETY: the block round 0 sends is next written by the
            // landing of round `n−1`, which cannot arrive before the
            // right neighbour read this send to the end, and no fold
            // targets it (module doc; DESIGN.md §4.11 "Lending", ring).
            let piece = unsafe { mem.source(off..off + clen) };
            post_windowed(rt, &dev, st, right, &piece, tags.piece(0, c))?;
        }
    }

    let mut processed = 0usize;
    while processed < total {
        let desc = pop_recv(rt, st)?;
        let t = (desc.user_ctx >> 32) as usize;
        let c = (desc.user_ctx & 0xffff_ffff) as usize;
        let (boff, blen) = block(recv_block(t));
        let off = boff + c * chunk;
        let clen = chunk.min(boff + blen - off);
        if t < n - 1 {
            // SAFETY: no send of this range is in flight (the last one
            // was round `t+1−n < 0`), and the landing of round `t+n`, if
            // already posted, is written only behind the send just
            // below (module doc; DESIGN.md §4.11 "Lending", ring).
            let acc = unsafe { mem.window(off..off + clen) };
            op.fold(acc, &desc.data.as_slice()[..clen]);
            st.put_databuf(desc.data);
        } else {
            mem.landed(&desc, clen)?;
        }
        st.arrived[t] += 1;
        processed += 1;
        // This arrival is exactly what enables the same chunk's
        // next-round departure.
        if t + 1 < rounds {
            // SAFETY: the fold or landing of `(t, c)` is complete; the
            // next write to the range is the landing of round `t+n`,
            // behind the right neighbour's full receipt of this send —
            // or never, past the last round (module doc; DESIGN.md §4.11
            // "Lending", ring).
            let piece = unsafe { mem.source(off..off + clen) };
            post_windowed(rt, &dev, st, right, &piece, tags.piece((t + 1) as u32, c))?;
        }
        if round_full(st, t) {
            dev.inner.stats.bump(|cell| &cell.coll_rounds);
            advance(rt, st, &mut posted)?;
        }
    }
    drain_sends(rt, st)
}

/// Chunk-streamed binomial broadcast: each parent→child edge carries
/// the buffer as a stream of `coll_chunk_size` chunks on one tag, and a
/// non-root forwards chunk `c` to all its children as soon as it
/// arrives — the subtree below starts filling before the parent has the
/// full buffer. A non-root's chunk lands in its own range of the buffer
/// and is forwarded from there.
pub(super) fn broadcast(
    rt: &Runtime,
    st: &mut CollState,
    root: usize,
    mem: &Scope<'_>,
) -> Result<()> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let dev = rt.device().clone();
    let chunk = rt.config().coll_chunk_size;
    let total = mem.len();
    let k = total.div_ceil(chunk);
    let tags = Tags::reserve(rt, k);
    let vr = (me + n - root) % n;

    // Binomial-tree children of virtual rank `vr`: `vr + m` for every
    // power of two `m > vr` with `vr + m < n` (at most `log₂ n` of
    // them, so a fixed array avoids allocation).
    let mut children = [0usize; usize::BITS as usize];
    let mut nch = 0;
    // Smallest power of two strictly greater than vr (1 for the root).
    let mut m =
        if vr == 0 { 1usize } else { (1usize << (usize::BITS - 1 - vr.leading_zeros())) << 1 };
    while vr + m < n {
        children[nch] = (vr + m + root) % n;
        nch += 1;
        m <<= 1;
    }

    if vr == 0 {
        for c in 0..k {
            let off = c * chunk;
            let clen = chunk.min(total - off);
            for &ch in &children[..nch] {
                // SAFETY: the root's buffer is only ever read (DESIGN.md
                // §4.11 "Lending", sends).
                let piece = unsafe { mem.source(off..off + clen) };
                post_windowed(rt, &dev, st, ch, &piece, tags.piece(ROUND_BCAST, c))?;
            }
        }
    } else {
        let hb = 1usize << (usize::BITS - 1 - vr.leading_zeros());
        let parent = ((vr - hb) + root) % n;
        // Pre-post every chunk's landing, in place, under the chunk's
        // own tag.
        for c in 0..k {
            let off = c * chunk;
            let clen = chunk.min(total - off);
            // SAFETY: each chunk's range is lent once, written by its
            // one arrival and read only by the forwards below, after
            // `landed` (DESIGN.md §4.11 "Lending", landings).
            let landing = unsafe { mem.landing(off..off + clen) };
            post_recv_lent(rt, &dev, st, parent, landing, tags.piece(ROUND_BCAST, c), c as u64)?;
        }
        for _ in 0..k {
            let desc = pop_recv(rt, st)?;
            let c = desc.user_ctx as usize;
            let off = c * chunk;
            let clen = chunk.min(total - off);
            mem.landed(&desc, clen)?;
            for &ch in &children[..nch] {
                // SAFETY: chunk `c` has landed and nothing writes its
                // range again (DESIGN.md §4.11 "Lending", sends).
                let piece = unsafe { mem.source(off..off + clen) };
                post_windowed(rt, &dev, st, ch, &piece, tags.piece(ROUND_BCAST, c))?;
            }
        }
    }
    dev.inner.stats.bump(|cell| &cell.coll_rounds);
    drain_sends(rt, st)
}

/// Bruck allgather in `⌈log₂ n⌉` rounds: after round `k` every rank
/// holds `2^k` blocks (its own plus the next `2^k − 1` ranks'), kept
/// rotated so each round sends one contiguous prefix; the caller's
/// final in-place rotation restores rank order. `mem` is the output
/// buffer with this rank's `len`-byte block already at its front. A
/// round's send reads the prefix while its arrival lands behind it:
/// round `k` sends `[0, cnt·len)` with `cnt ≤ have`, and every landing
/// of that or a later round starts at or past `have·len`, so nothing in
/// flight is ever written.
pub(super) fn allgather(
    rt: &Runtime,
    st: &mut CollState,
    mem: &Scope<'_>,
    len: usize,
) -> Result<()> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let dev = rt.device().clone();
    let seq = next_seq(rt);
    let mut have = 1usize;
    let mut round = 0u32;
    while have < n {
        let cnt = have.min(n - have);
        let to = (me + n - have) % n;
        let from = (me + have) % n;
        let tag = coll_tag(seq, ROUND_AG_BASE + round);
        // SAFETY: `[have, have + cnt)·len` is past every prefix sent so
        // far and lent to this one receive, popped before the next
        // round (DESIGN.md §4.11 "Lending", landings).
        let landing = unsafe { mem.landing(have * len..(have + cnt) * len) };
        post_recv_lent(rt, &dev, st, from, landing, tag, round as u64)?;
        // SAFETY: the prefix holds our block and blocks that landed in
        // earlier rounds, and no landing reaches below `have·len` again
        // (DESIGN.md §4.11 "Lending", sends).
        let prefix = unsafe { mem.source(0..cnt * len) };
        post_windowed(rt, &dev, st, to, &prefix, tag)?;
        let desc = pop_recv(rt, st)?;
        mem.landed(&desc, cnt * len)?;
        dev.inner.stats.bump(|cell| &cell.coll_rounds);
        have += cnt;
        round += 1;
    }
    drain_sends(rt, st)
}

/// Bounded-inflight pairwise alltoall: all `n − 1` receives are posted
/// up front, each into its sender's block of the receive buffer, then
/// all sends are posted in `(me + r) mod n` order under the in-flight
/// window with no per-send wait — large blocks ride the chunked
/// rendezvous pump concurrently.
pub(super) fn alltoall(
    rt: &Runtime,
    st: &mut CollState,
    mem: &Scope<'_>,
    block: usize,
) -> Result<()> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let dev = rt.device().clone();
    let seq = next_seq(rt);
    let tag = coll_tag(seq, ROUND_A2A);
    for r in 1..n {
        let peer = (me + r) % n;
        // SAFETY: each peer's block of the receive buffer is lent to
        // its one receive and touched by nothing else in this call
        // (DESIGN.md §4.11 "Lending", landings).
        let landing = unsafe { mem.landing(peer * block..(peer + 1) * block) };
        post_recv_lent(rt, &dev, st, peer, landing, tag, peer as u64)?;
    }
    for r in 1..n {
        let peer = (me + r) % n;
        // SAFETY: the send buffer is only ever read (DESIGN.md §4.11
        // "Lending", sends).
        let piece = unsafe { mem.source(peer * block..(peer + 1) * block) };
        post_windowed(rt, &dev, st, peer, &piece, tag)?;
    }
    for _ in 1..n {
        let desc = pop_recv(rt, st)?;
        mem.landed(&desc, block)?;
    }
    dev.inner.stats.bump(|cell| &cell.coll_rounds);
    drain_sends(rt, st)
}
