//! Performance-grade collective communication (paper §6).
//!
//! The paper's position is that LCI's point-to-point primitives are the
//! building blocks for collectives. Here a collective *is* a composition
//! of them, written down as a value: a rank's program is a `Plan` — the
//! pieces it receives (from whom, into which range, under which tag,
//! landed in place or folded), the pieces it sends, and a gate saying
//! which harvest opens which receive and readies which send — built by
//! one of five pure schedule builders and run by one non-blocking
//! stepper (`plan`; DESIGN.md §4.11):
//!
//! * **Direct reduction** ([`allreduce`]) when every rank's buffer is in
//!   this address space (the sims, in-process shm): each rank reduces
//!   its slice of every rank's buffer and writes it back, one pass, one
//!   grant and one signal per peer.
//! * **Chunk-pipelined ring allreduce** ([`allreduce`]) otherwise, at
//!   every world size: reduce-scatter and allgather phases moving the
//!   bandwidth-optimal `2(n−1)/n · bytes` per rank, each block split
//!   into `coll_chunk_size` chunks whose next hop departs as soon as the
//!   chunk is harvested.
//! * **Bruck allgather** ([`allgather_bytes`]) and a **dissemination
//!   barrier** ([`barrier`]) in `⌈log₂ n⌉` rounds.
//! * **Sparse largest-first alltoallv** ([`alltoallv`], and
//!   [`exchange_counts`], the 8-byte count round of the
//!   receive-side-unknown MoE case): all receives up front, zero-byte
//!   pairs post nothing, blocks cut into pieces.
//!
//! Every collective moves its bytes as pieces of at most
//! `coll_chunk_size` (or the wire's largest write, if smaller). A piece
//! at or under the eager size (`packet.payload_size`) is a two-sided
//! send — inline at or under 24 B. A longer one is a **put** with a
//! remote signal into memory its receiver granted once for the call
//! (`grant`; DESIGN.md §4.11 "Puts"): one small grant per peer and call
//! replaces a rendezvous (RTS, RTR, match, registration) per piece.
//! Sends ride a bounded window (4 in flight per rank) and never wait
//! individually. A collective stages nothing and takes nothing from the
//! device's buffer pool: the caller's slices are **lent** to the runtime
//! while the plan runs (`lend`; DESIGN.md §4.11 "Lending"), so every
//! piece is posted from the caller's buffer and, wherever its bytes are
//! final on arrival, lands at its own offset in it: one copy per byte,
//! the wire's. Only an arrival that must be folded (the ring's
//! reduce-scatter rounds) lands in the state's fold arena
//! ([`CollState`]), a slot per piece. A warm collective loop allocates
//! nothing (`tests/alloc_steady_state.rs`). A call steps its plan
//! under [`Runtime::wait_until`], which progresses every device of
//! the runtime and, between idle sweeps, spins or yields the core as the
//! calling thread has learned pays.
//!
//! **The one way this can end a process.** Argument errors return `Err`
//! before anything is posted. A runtime failure *after* the first lent
//! post — `progress` returning a [`FatalError`], a user
//! [`ReduceOp::fold`] panicking — leaves receives and granted puts
//! naming the caller's memory with nothing to cancel them, so the
//! call prints the failure and **aborts** (MPI's default
//! `MPI_ERRORS_ARE_FATAL`) instead of returning `Err` on one rank while
//! every peer spins. A collective that returns `Err` has lent nothing.
//!
//! ## Tags and ordering
//!
//! Tags with the highest bit set are reserved for collectives. The tag
//! packs a 22-bit per-runtime sequence number and a 9-bit round index
//! (`1 + 22 + 9 = 32`; the last round code, [`ROUND_GRANT`], is the
//! grants', and no piece uses it): collectives must be invoked in the
//! same order on every rank (the usual MPI-style contract), the sequence
//! keeps consecutive collectives apart, and the round keeps a
//! collective's internal stages apart. The sequence wraps at ~4.2 M
//! collectives; a wrapped tag can only collide with a collective that
//! fully completed long ago.
//!
//! **Every piece has a tag of its own.** A call whose rounds carry
//! several pieces per peer (the ring's chunks, `alltoallv`'s pieces)
//! reserves a run of sequence numbers — the same run on every rank,
//! computed from the arguments all ranks share — and piece `c` of a
//! round is tagged `(seq + c, round)` (`Tags`); a schedule with more
//! rounds or pieces than the round field holds folds the excess into
//! its run (`plan::ring`, `plan::alltoallv`). A piece therefore matches
//! the one receive posted for it, whatever order the matching engine
//! sees arrivals in: per-`(rank, tag)` matching is FIFO
//! only while a single thread progresses a device (two threads poll
//! consecutive batches and handle them concurrently), and a receive
//! posted into the caller's buffer must get *its* bytes. `user_ctx` on
//! each posted receive is its index in the plan; a put's signal names
//! its receive by the sender and the tag.

mod grant;
#[doc(hidden)]
pub(crate) mod lend;
pub mod ops;
mod plan;

pub use ops::{MaxF32, MaxU64, ReduceOp, SumF32, SumU64};

use crate::comp::Comp;
use crate::error::{FatalError, Result};
use crate::runtime::Runtime;
use crate::types::{RComp, Tag};
use grant::Arena;
use lend::Scope;
use plan::{Plan, Shape};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Reserved tag-space marker (collectives own the high bit).
pub(crate) const COLL_TAG: Tag = 0x8000_0000;
/// Sequence-number width (bits 9..31 of the tag).
const SEQ_BITS: u32 = 22;
/// Round-index width (bits 0..9 of the tag).
const ROUND_BITS: u32 = 9;
/// Bruck allgather's first round code (its `⌈log₂ n⌉` rounds follow).
pub(crate) const ROUND_AG_BASE: u32 = 0x1C0;
/// The grants' round code (module docs, "Tags and ordering"): the last
/// one. A piece's round is below it.
pub(crate) const ROUND_GRANT: u32 = (1 << ROUND_BITS) - 1;

fn coll_tag(seq: u32, round: u32) -> Tag {
    debug_assert!(round < (1 << ROUND_BITS), "collective round {round} overflows the tag field");
    COLL_TAG | ((seq & ((1 << SEQ_BITS) - 1)) << ROUND_BITS) | (round & ((1 << ROUND_BITS) - 1))
}

/// The tags of one call whose rounds carry several pieces per peer: a
/// run of `span` sequence numbers, so that piece `c` of a round has the
/// tag `(seq + c, round)` to itself (module docs, "Tags and ordering").
/// Past `span` pieces the tags repeat and same-tag pieces fall back on
/// FIFO matching, `span` pieces apart.
#[derive(Clone, Copy)]
struct Tags {
    seq: u32,
    span: usize,
}

impl Tags {
    /// Most sequence numbers one call reserves (an eighth of the space).
    const MAX_SPAN: usize = 1 << (SEQ_BITS - 3);

    /// Reserves `span` sequence numbers. Every rank must pass the same
    /// `span`: it moves the counter the next collective starts from.
    fn reserve(rt: &Runtime, span: usize) -> Tags {
        let span = span.clamp(1, Tags::MAX_SPAN);
        Tags { seq: rt.coll_seq().fetch_add(span as u32, Ordering::Relaxed), span }
    }

    fn piece(self, round: u32, c: usize) -> Tag {
        coll_tag(self.seq.wrapping_add((c % self.span) as u32), round)
    }
}

/// Internal hook: collective sequence counter accessor on Runtime.
impl Runtime {
    pub(crate) fn coll_seq(&self) -> &AtomicU32 {
        &self.inner.coll_seq
    }
}

/// Collective-engine state, lazily created per runtime and reused so the
/// warm path allocates nothing: a completion queue for receives and
/// puts' signals (a mapped ring, alloc-free), registered once as an
/// rcomp, a send handler with an in-flight counter (the pipelining
/// window), the fold arena, the direct reduction's scratch, and the
/// plan's storage.
pub struct CollState {
    /// Receive-completion queue shared by every posted receive and every
    /// put into this state's grants.
    recv_cq: Comp,
    /// `recv_cq` as the rcomp a grant hands out.
    rcomp: RComp,
    /// Chunk sends outstanding (incremented at post, decremented on
    /// completion or immediate `done`).
    inflight: Arc<AtomicU64>,
    /// Handler comp decrementing [`inflight`](Self::inflight).
    send_comp: Comp,
    /// Where every `Fold` piece lands.
    arena: Arena,
    /// What a direct reduction reduces through.
    direct: plan::Scratch,
    /// The blocking collective's plan, rebuilt in place per call.
    plan: Plan,
    /// Count-exchange staging (send side), reused across exchanges.
    cnt_send: Vec<u8>,
    /// Count-exchange staging (recv side), reused across exchanges.
    cnt_recv: Vec<u8>,
    /// The count exchange's block sizes: 8 bytes for every rank.
    cnt_sizes: Vec<usize>,
}

impl CollState {
    fn new(rt: &Runtime) -> CollState {
        let inflight = Arc::new(AtomicU64::new(0));
        let dec = inflight.clone();
        let recv_cq = Comp::alloc_cq();
        CollState {
            rcomp: rt.register_rcomp(recv_cq.clone()),
            recv_cq,
            inflight,
            send_comp: Comp::alloc_handler(move |_| {
                dec.fetch_sub(1, Ordering::AcqRel);
            }),
            arena: Arena::default(),
            direct: plan::Scratch::default(),
            plan: Plan::default(),
            cnt_send: Vec::new(),
            cnt_recv: Vec::new(),
            cnt_sizes: Vec::new(),
        }
    }
}

/// Runs `f` with the runtime's (lazily created) collective state.
/// Collectives on one runtime serialize on this lock.
fn with_state<R>(rt: &Runtime, f: impl FnOnce(&mut CollState) -> Result<R>) -> Result<R> {
    let mut guard = rt.inner.coll.lock();
    let state = guard.get_or_insert_with(|| CollState::new(rt));
    f(state)
}

/// The operator of a plan that folds nothing.
struct NoFold;

impl ReduceOp for NoFold {
    fn elem_size(&self) -> usize {
        1
    }

    fn fold(&self, _acc: &mut [u8], _incoming: &[u8]) {
        unreachable!("a plan without a `Fold` receive folded")
    }
}

/// Builds a plan in the state's storage and steps it to the end with the
/// caller's slices lent: `Ok` means every lent receive landed and the
/// send window drained, `Err` that nothing was lent; otherwise the
/// process ends ([`lend`]).
fn run<O: ReduceOp + ?Sized>(
    rt: &Runtime,
    st: &mut CollState,
    mem: Scope<'_>,
    op: &O,
    build: impl FnOnce(&mut Plan),
) -> Result<()> {
    let mut plan = std::mem::take(&mut st.plan);
    build(&mut plan);
    let mut failed = None;
    let waited = rt.wait_until(|| match plan.step(rt, st, &mem, op) {
        Ok(done) => done,
        Err(e) => {
            failed = Some(e);
            true
        }
    });
    st.plan = plan;
    // The loan ends counted closed after a clean run, hands its error
    // back if nothing was lent, and ends the process otherwise.
    match waited.and_then(|()| failed.map_or(Ok(()), Err)) {
        Ok(()) => {
            let sends = st.inflight.load(Ordering::Acquire);
            assert!(sends == 0, "collective returned with {sends} sends in flight");
            mem.close();
            Ok(())
        }
        Err(e) => Err(mem.fail(e)),
    }
}

// ---------------------------------------------------------------------
// Public collectives
// ---------------------------------------------------------------------

/// Dissemination barrier across all ranks.
///
/// Round `r`: rank `i` signals `(i + 2^r) mod n` and waits for a signal
/// from `(i - 2^r) mod n`; after `⌈log₂ n⌉` rounds every rank has
/// transitively heard from every other.
pub fn barrier(rt: &Runtime) -> Result<()> {
    let w = Shape::of(rt);
    if w.n == 1 {
        return Ok(());
    }
    let mut tokens = [0u8; plan::BARRIER_SCRATCH];
    let build = |p: &mut Plan| plan::barrier(p, w, Tags::reserve(rt, 1));
    with_state(rt, |st| run(rt, st, Scope::in_place(&mut tokens), &NoFold, build))
}

/// In-place allreduce over raw bytes with a byte-generic [`ReduceOp`]:
/// every rank passes an identical-length buffer; on return every rank
/// holds the element-wise reduction. Where this rank's device can
/// address every rank's buffer, the direct schedule: each rank reduces
/// its slice of every buffer and writes it back, in rank order.
/// Otherwise the chunk-pipelined bandwidth-optimal ring, at every world
/// size (the fold orders: [`ReduceOp`]).
pub fn allreduce<O: ReduceOp + ?Sized>(rt: &Runtime, buf: &mut [u8], op: &O) -> Result<()> {
    let elem = lanes("allreduce", buf, op)?;
    let (w, len) = (Shape::of(rt), buf.len());
    if w.n == 1 {
        return Ok(());
    }
    if plan::addresses_every_rank(rt, buf)? {
        let build = |p: &mut Plan| plan::direct(p, w, len, elem, Tags::reserve(rt, 1));
        return with_state(rt, |st| run(rt, st, Scope::in_place(buf), op, build));
    }
    let build = |p: &mut Plan| {
        plan::ring(p, w, len, elem, Tags::reserve(rt, plan::ring_span(w, len, elem)))
    };
    with_state(rt, |st| run(rt, st, Scope::in_place(buf), op, build))
}

/// `op`'s element size, if `buf` is whole elements of it.
fn lanes<O: ReduceOp + ?Sized>(what: &str, buf: &[u8], op: &O) -> Result<usize> {
    let elem = op.elem_size();
    if elem == 0 || !buf.len().is_multiple_of(elem) {
        return Err(FatalError::InvalidArg(format!(
            "{what} buffer length {} is not a multiple of the element size {elem}",
            buf.len()
        )));
    }
    Ok(elem)
}

/// Allgather over flat buffers: every rank contributes `mine`
/// (identical length everywhere); `out` (`n × mine.len()` bytes)
/// receives all contributions in rank order. Bruck's algorithm in
/// `⌈log₂ n⌉` rounds.
pub fn allgather_bytes(rt: &Runtime, mine: &[u8], out: &mut [u8]) -> Result<()> {
    let n = rt.rank_n();
    if out.len() != n * mine.len() {
        return Err(FatalError::InvalidArg(format!(
            "allgather output must be n*len = {} bytes, got {}",
            n * mine.len(),
            out.len()
        )));
    }
    if n == 1 {
        out.copy_from_slice(mine);
        return Ok(());
    }
    let len = mine.len();
    if len == 0 {
        return Ok(());
    }
    out[..len].copy_from_slice(mine);
    let w = Shape::of(rt);
    let build = |p: &mut Plan| plan::allgather(p, w, len, Tags::reserve(rt, w.span(n * len)));
    with_state(rt, |st| run(rt, st, Scope::in_place(out), &NoFold, build))?;
    // Position `j` holds rank `(me + j) mod n`; rotate into rank order.
    out.rotate_right(rt.rank_me() * len);
    Ok(())
}

/// Uneven-block all-to-all personalized exchange (`MPI_Alltoallv`
/// shape): `send` is the concatenation of `n` blocks where block `i`
/// (`send_counts[i]` bytes) goes to rank `i`, and `recv` receives rank
/// `j`'s block for us (`recv_counts[j]` bytes) at the `j`-th recv
/// offset. Counts may differ per pair and per direction; the count
/// vectors must agree pairwise across ranks (rank `a`'s
/// `send_counts[b]` == rank `b`'s `recv_counts[a]` — use
/// [`exchange_counts`] first when the receive side is unknown, the MoE
/// dispatch case).
///
/// Performance engineering (see DESIGN.md §4.13):
/// **zero-byte pairs post nothing** (`coll_skipped_pairs` counts them —
/// MoE routing matrices are mostly sparse), each block rides a
/// **size-adaptive protocol** per `coll_chunk_size` piece (inline /
/// eager / granted put, so one giant hot-expert block pipelines as puts
/// into the receive buffer its receiver granted once, while small
/// blocks stay eager), and sends are issued **largest-block-first with
/// rank-rotated tie-breaking** under the bounded in-flight
/// window, so the straggler block departs first and equal-size blocks
/// do not hotspot one receiver. `coll_chunk_size` and the eager size
/// must match across ranks (they fix the piece split and the protocol
/// both sides compute), like the invocation-order contract itself.
pub fn alltoallv(
    rt: &Runtime,
    send: &[u8],
    send_counts: &[usize],
    recv: &mut [u8],
    recv_counts: &[usize],
) -> Result<()> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    if send_counts.len() != n || recv_counts.len() != n {
        return Err(FatalError::InvalidArg(format!(
            "alltoallv needs one count per rank each way ({n} ranks, {} send counts, {} recv counts)",
            send_counts.len(),
            recv_counts.len()
        )));
    }
    let send_total: usize = send_counts.iter().sum();
    let recv_total: usize = recv_counts.iter().sum();
    if send.len() != send_total || recv.len() != recv_total {
        return Err(FatalError::InvalidArg(format!(
            "alltoallv buffers must match their count sums (send {} vs {send_total}, recv {} vs {recv_total})",
            send.len(),
            recv.len()
        )));
    }
    if send_counts[me] != recv_counts[me] {
        return Err(FatalError::InvalidArg(format!(
            "alltoallv self block disagrees ({} send vs {} recv bytes)",
            send_counts[me], recv_counts[me]
        )));
    }
    // The self block never touches the wire.
    let soff: usize = send_counts[..me].iter().sum();
    let roff: usize = recv_counts[..me].iter().sum();
    recv[roff..roff + recv_counts[me]].copy_from_slice(&send[soff..soff + send_counts[me]]);
    if n == 1 {
        return Ok(());
    }
    count_v(rt, send_counts);
    let build = |p: &mut Plan| {
        let tags = Tags::reserve(rt, plan::V_SPAN);
        plan::alltoallv(p, Shape::of(rt), send_counts, recv_counts, tags)
    };
    with_state(rt, |st| run(rt, st, Scope::new(send, recv), &NoFold, build))
}

/// `alltoallv`'s two counters: the zero-byte pairs it skips (send-side
/// only, so the global sum counts each skipped edge once) and the call's
/// contributed payload, self block included, as a high-water mark.
fn count_v(rt: &Runtime, send_counts: &[usize]) {
    let (me, stats) = (rt.rank_me(), &rt.device().inner.stats);
    let skipped = send_counts.iter().enumerate().filter(|&(p, &c)| p != me && c == 0).count();
    stats.add(|c| &c.coll_skipped_pairs, skipped as u64);
    stats.raise(|c| &c.coll_v_bytes_hwm, send_counts.iter().sum::<usize>() as u64);
}

/// One-round count exchange for the receive-side-unknown `alltoallv`
/// case (MoE dispatch: every rank knows how many bytes it routes *to*
/// each peer, none knows what it will get): the [`alltoallv`] plan with
/// every block 8 bytes — the send-count vector — under one sequence
/// number. Uniform blocks tie on size, so its sends go in `(me + r) mod
/// n` order. On return `recv_counts[j]` is rank `j`'s `send_counts[me]`
/// — exactly the vector to pass as `recv_counts` to [`alltoallv`].
/// Allocation-free once the collective state is warm (the staging and
/// the block sizes ride reusable [`CollState`] scratch).
pub fn exchange_counts(
    rt: &Runtime,
    send_counts: &[usize],
    recv_counts: &mut [usize],
) -> Result<()> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    if send_counts.len() != n || recv_counts.len() != n {
        return Err(FatalError::InvalidArg(format!(
            "count exchange needs one count per rank each way ({n} ranks, {} send, {} recv)",
            send_counts.len(),
            recv_counts.len()
        )));
    }
    if n == 1 {
        recv_counts[0] = send_counts[0];
        return Ok(());
    }
    with_state(rt, |st| {
        // Take the scratch out of the state so the plan can lend it
        // alongside `st`; put it back for the next exchange.
        let mut sb = std::mem::take(&mut st.cnt_send);
        let mut rb = std::mem::take(&mut st.cnt_recv);
        let mut sizes = std::mem::take(&mut st.cnt_sizes);
        sizes.clear();
        sizes.resize(n, 8);
        sb.clear();
        for &c in send_counts {
            sb.extend_from_slice(&(c as u64).to_le_bytes());
        }
        rb.clear();
        rb.resize(n * 8, 0);
        rb[me * 8..(me + 1) * 8].copy_from_slice(&sb[me * 8..(me + 1) * 8]);
        let w = Shape::of(rt);
        let build = |p: &mut Plan| plan::alltoallv(p, w, &sizes, &sizes, Tags::reserve(rt, 1));
        let res = run(rt, st, Scope::new(&sb, &mut rb), &NoFold, build);
        if res.is_ok() {
            for (dst, c) in recv_counts.iter_mut().zip(rb.chunks_exact(8)) {
                *dst = u64::from_le_bytes(c.try_into().unwrap()) as usize;
            }
        }
        (st.cnt_send, st.cnt_recv, st.cnt_sizes) = (sb, rb, sizes);
        res
    })
}
