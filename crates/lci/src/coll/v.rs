//! Pipelined uneven-block alltoallv engine (DESIGN.md §4.13).
//!
//! The dense pairwise alltoall in [`ring`](super::ring) posts one
//! identical block per peer; a vector exchange can't — MoE routing
//! matrices are ragged (every pair its own byte count) and mostly
//! sparse (most pairs zero). This engine turns those irregularities
//! into the optimization surface:
//!
//! * **Sparse pair skipping.** A zero-byte pair posts *nothing*: no
//!   send, no receive, no completion. Each send-side skip bumps
//!   `coll_skipped_pairs` (send-side only, so the global counter sums
//!   to the number of skipped edges, not twice that). The dense
//!   baselines pay a full eager round-trip per empty pair.
//! * **Size-adaptive per-block protocol.** A block is cut into
//!   `coll_chunk_size` pieces; each piece rides the same
//!   [`post_windowed`](super::post_windowed) protocol ladder as every
//!   collective payload — inline descriptor (≤ `SENDBUF_INLINE_CAP`),
//!   eager (≤ `eager_size`) or chunked rendezvous above it, both read
//!   straight out of the caller's send buffer — so one
//!   multi-megabyte hot-expert block pipelines through the rendezvous
//!   chunk pumps while hundreds of small blocks ship in single eager
//!   (or inline) frames with no chunking overhead.
//! * **Skew-aware bounded-inflight scheduling.** All receives are
//!   pre-posted, then sends are issued **largest-block-first** under
//!   the `coll_max_inflight` window: the straggler that bounds the
//!   exchange's critical path departs first and overlaps every smaller
//!   block behind it. Ties (the uniform case) break by rank-rotated
//!   distance `(peer − me − 1) mod n`, the classic alltoall rotation,
//!   so equal-size schedules do not converge on one hot receiver.
//!
//! Every piece of a pair's block has a tag of its own ([`piece_tag`]),
//! so it matches the one receive posted for it whatever order the
//! matching engine sees the pair's arrivals in (a second thread
//! progressing the device can reorder them); `user_ctx = peer << 32 |
//! chunk` on each posted receive tells the engine which piece a
//! completion is. Both sides cut blocks with their *local*
//! `coll_chunk_size`, which is therefore part of the collective
//! contract: it must match across ranks (like invocation order).
//!
//! Every piece lands where it belongs: its receive is posted straight
//! into the piece's own range of the caller's receive buffer
//! (DESIGN.md §4.11 "Lending"), so an arrival is only counted and
//! length-checked, never copied. While sends are issued, arrivals are
//! swallowed opportunistically (a non-blocking CQ pop per posted piece)
//! so the receive queue stays short when the receive side is ahead.

use super::lend::Scope;
use super::{drain_sends, pop_recv, post_recv_lent, post_windowed, CollState, Tags, ROUND_BITS};
use crate::device::Device;
use crate::error::Result;
use crate::runtime::Runtime;
use crate::types::{CompDesc, Tag};

/// Sequence numbers one `alltoallv` reserves. No rank knows the whole
/// count matrix, so the run cannot follow the longest block the way the
/// ring's follows its block length: it is a constant, and with the
/// round field (which this single-stage exchange has no other use for)
/// gives a pair `64 · 512 = 32 768` piece tags — a 2 GiB block at the
/// default chunk size — before they repeat.
const SEQ_SPAN: usize = 64;

/// The tag of piece `c` of any pair's block: the low bits of `c` in the
/// round field, the rest in the sequence run.
fn piece_tag(tags: Tags, c: usize) -> Tag {
    tags.piece((c & ((1 << ROUND_BITS) - 1)) as u32, c >> ROUND_BITS)
}

/// Accounts for one delivered piece, checking that it filled its range.
/// `user_ctx = peer << 32 | chunk`.
fn land(mem: &Scope<'_>, desc: &CompDesc, recv_counts: &[usize], chunk: usize) -> Result<()> {
    let peer = (desc.user_ctx >> 32) as usize;
    let c = (desc.user_ctx & 0xffff_ffff) as usize;
    mem.landed(desc, chunk.min(recv_counts[peer] - c * chunk))
}

pub(super) fn alltoallv(
    rt: &Runtime,
    st: &mut CollState,
    mem: &Scope<'_>,
    send_counts: &[usize],
    recv_counts: &[usize],
) -> Result<()> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    let dev = rt.device().clone();
    let tags = Tags::reserve(rt, SEQ_SPAN);
    let chunk = rt.config().coll_chunk_size;

    // Scratch comes out of the state (so the helpers below can borrow
    // `st` mutably) and goes back at the end; `resize`/`clear` reuse
    // capacity, so the warm path allocates nothing.
    let mut send_offs = std::mem::take(&mut st.v_send_offs);
    let mut recv_offs = std::mem::take(&mut st.v_recv_offs);
    let mut order = std::mem::take(&mut st.v_order);
    send_offs.clear();
    recv_offs.clear();
    let (mut sacc, mut racc) = (0usize, 0usize);
    for p in 0..n {
        send_offs.push(sacc);
        recv_offs.push(racc);
        sacc += send_counts[p];
        racc += recv_counts[p];
    }

    // Pre-post every piece's landing (sparse: zero-byte inbound pairs
    // post nothing). Pre-posting before any send leaves the exchange
    // deadlock-free under any schedule: every in-flight piece has a
    // matched landing waiting.
    let mut expected = 0usize;
    for r in 1..n {
        let peer = (me + r) % n;
        let blen = recv_counts[peer];
        if blen == 0 {
            continue;
        }
        for c in 0..blen.div_ceil(chunk) {
            let off = recv_offs[peer] + c * chunk;
            let clen = chunk.min(blen - c * chunk);
            let ctx = ((peer as u64) << 32) | c as u64;
            // SAFETY: the pieces tile the receive buffer without
            // overlap, each lent to its one receive, and nothing else
            // touches the buffer in this call (DESIGN.md §4.11
            // "Lending", landings).
            let landing = unsafe { mem.landing(off..off + clen) };
            post_recv_lent(rt, &dev, st, peer, landing, piece_tag(tags, c), ctx)?;
            expected += 1;
        }
    }

    // Skew-aware send schedule: largest block first (the straggler
    // bounds the critical path — start it before everything it must
    // overlap), rank-rotated distance as the tie-break so uniform
    // schedules keep the classic `(me + r) mod n` rotation instead of
    // hammering one receiver. `sort_unstable_by_key` allocates nothing.
    order.clear();
    let mut skipped = 0u64;
    for r in 1..n {
        let peer = (me + r) % n;
        if send_counts[peer] == 0 {
            skipped += 1;
        } else {
            order.push(peer);
        }
    }
    order.sort_unstable_by_key(|&p| (usize::MAX - send_counts[p], (p + n - me - 1) % n));
    if skipped > 0 {
        dev.inner.stats.add(|c| &c.coll_skipped_pairs, skipped);
    }

    // Issue the schedule under the in-flight window, swallowing
    // arrivals opportunistically.
    let mut landed = 0usize;
    for &peer in order.iter() {
        let (boff, blen) = (send_offs[peer], send_counts[peer]);
        for c in 0..blen.div_ceil(chunk) {
            let off = boff + c * chunk;
            let clen = chunk.min(boff + blen - off);
            // SAFETY: the send buffer is only ever read (DESIGN.md
            // §4.11 "Lending", sends).
            let piece = unsafe { mem.source(off..off + clen) };
            post_windowed(rt, &dev, st, peer, &piece, piece_tag(tags, c))?;
            while let Some(desc) = st.recv_cq.pop() {
                land(mem, &desc, recv_counts, chunk)?;
                landed += 1;
            }
        }
    }

    // Drain the remaining arrivals, then the send window.
    while landed < expected {
        let desc = pop_recv(rt, st)?;
        land(mem, &desc, recv_counts, chunk)?;
        landed += 1;
    }
    dev.inner.stats.bump(|c| &c.coll_rounds);
    raise_v_bytes(&dev, send_counts);
    st.v_send_offs = send_offs;
    st.v_recv_offs = recv_offs;
    st.v_order = order;
    drain_sends(rt, st)
}

/// Records the call's total contributed payload (self block included)
/// in the `coll_v_bytes_hwm` high-water mark.
pub(super) fn raise_v_bytes(dev: &Device, send_counts: &[usize]) {
    let total: usize = send_counts.iter().sum();
    dev.inner.stats.raise(|c| &c.coll_v_bytes_hwm, total as u64);
}
