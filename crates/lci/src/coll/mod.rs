//! Performance-grade collective communication (paper §6).
//!
//! The paper's position is that LCI's point-to-point primitives are the
//! building blocks for collectives; this module builds them for real:
//!
//! * **Chunk-pipelined ring allreduce** ([`allreduce`]): reduce-scatter
//!   and allgather phases moving the bandwidth-optimal `2(n−1)/n ·
//!   bytes` per rank, each block split into [`coll_chunk_size`] chunks whose
//!   sends overlap the folds of earlier chunks under a bounded
//!   [`coll_max_inflight`] window (see [`ring`]).
//! * **Bounded-inflight pairwise alltoall** ([`alltoall_bytes`]): all
//!   receives pre-posted, sends posted without per-send wait barriers,
//!   large blocks riding the chunked rendezvous pump.
//! * **Sparse size-adaptive alltoallv** ([`alltoallv`]): uneven blocks
//!   per pair, zero-byte pairs skipped, size-adaptive per-block
//!   protocol, largest-block-first scheduling (see [`v`];
//!   [`alltoallv_counts`] handles the recv-side-unknown MoE case).
//! * **Bruck allgather** ([`allgather_bytes`]) in `⌈log₂ n⌉` rounds and
//!   a **chunk-pipelined binomial broadcast** ([`broadcast_bytes`]),
//!   both over the caller's slices.
//!
//! A blocking collective stages nothing and takes nothing from the
//! device's buffer pool: the caller's slices are **lent** to the runtime
//! for the length of the call (`lend`; DESIGN.md §4.11 "Lending"), so
//! every piece is posted from the caller's buffer — inline at or under
//! 24 B — and, wherever its bytes are final on arrival (allgather
//! rounds of the ring, broadcast, Bruck, `alltoall*`), lands at its own
//! offset in it: one copy per byte, the wire's. Only an arrival that
//! must sit beside the accumulator to be folded (reduce-scatter rounds,
//! [`reduce_bytes`]) and the barrier's token land in a box from the
//! per-runtime shelf ([`CollState`]). A warm collective loop allocates
//! nothing (enforced by `tests/alloc_steady_state.rs`). Blocking waits
//! go through [`Runtime::wait_until`], which progresses every device of
//! the runtime and yields the core once idle.
//!
//! **The one way this can end a process.** Argument errors return `Err`
//! before anything is posted. A runtime failure *after* the first lent
//! post — `progress` returning a [`FatalError`], a user
//! [`ReduceOp::fold`] panicking — leaves receives, rendezvous and chunk
//! pumps naming the caller's memory with nothing to cancel them, so the
//! call prints the failure and **aborts** (MPI's default
//! `MPI_ERRORS_ARE_FATAL`) instead of returning `Err` on one rank while
//! every peer spins. A collective that returns `Err` has lent nothing.
//!
//! The naive implementations (clone-per-round, serialized sends,
//! allreduce as reduce+broadcast at twice the optimal byte volume) live
//! on in [`naive`] as the reference the proptests compare against and
//! the baseline `benches/collectives.rs` measures.
//!
//! Non-blocking `i*` variants composed on the completion graph live in
//! [`nb`] (re-exported here): [`ibarrier`], [`ibroadcast`],
//! [`ireduce_u64`], [`iallgather`], [`ialltoall`], [`ialltoallv`],
//! [`iallreduce_u64`].
//!
//! ## Tags and ordering
//!
//! Tags with the highest bit set are reserved for collectives. The tag
//! packs a 22-bit per-runtime sequence number and a 9-bit round index
//! (`1 + 22 + 9 = 32`): collectives must be invoked in the same order
//! on every rank (the usual MPI-style contract), the sequence keeps
//! consecutive collectives apart, and the round keeps a collective's
//! internal stages apart. The sequence wraps at ~4.2 M collectives,
//! which is safe because at most one collective per runtime is live at
//! a time (the state lock serializes them) — a wrapped tag can only
//! collide with a collective that fully completed long ago.
//!
//! **Every piece has a tag of its own.** A call whose rounds carry
//! several pieces per peer (the ring's chunks, the broadcast's stream,
//! `alltoallv`'s pieces) reserves a run of sequence numbers — the same
//! run on every rank, computed from the arguments all ranks share — and
//! piece `c` of a round is tagged `(seq + c, round)` (`Tags`). A piece
//! therefore matches the one receive posted for it, whatever order the
//! matching engine sees arrivals in: per-`(rank, tag)` matching is FIFO
//! only while a single thread progresses a device (two threads poll
//! consecutive batches and handle them concurrently), and a receive
//! posted into the caller's buffer must get *its* bytes — until PR 20
//! the k-th posted receive was paired with the k-th sent chunk by
//! order alone, which a second progressing thread could break.
//! `user_ctx` on each posted receive tells the engine which piece a
//! completion is.

#[doc(hidden)]
pub(crate) mod lend;
pub mod naive;
pub mod nb;
pub mod ops;
mod ring;
mod v;

pub use nb::{
    iallgather, iallreduce_u64, ialltoall, ialltoallv, ibarrier, ibroadcast, ireduce_u64, IColl,
};
pub use ops::{FnOpU64, MaxF32, MaxU64, ReduceOp, SumF32, SumU64};

use crate::comp::Comp;
use crate::device::Device;
use crate::error::{FatalError, PostResult, Result};
use crate::runtime::Runtime;
use crate::types::{CompDesc, DataBuf, Direction, Landing, Rank, Tag};
use lend::{Lent, Scope};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Reserved tag-space marker (collectives own the high bit).
pub(crate) const COLL_TAG: Tag = 0x8000_0000;
/// Sequence-number width (bits 9..31 of the tag).
const SEQ_BITS: u32 = 22;
/// Round-index width (bits 0..9 of the tag).
const ROUND_BITS: u32 = 9;
/// Largest rank count the pipelined ring allreduce supports: its
/// `2(n−1)` rounds must fit the tag's round field. Bigger worlds fall
/// back to the naive (binomial) path, whose round codes are O(log n).
pub(crate) const MAX_RING_RANKS: usize = 256;

/// Round codes for single-stage collectives (must fit [`ROUND_BITS`];
/// distinct sequences already separate collectives, so these only
/// separate stages *within* one collective call).
pub(crate) const ROUND_BCAST: u32 = 0x1BC & 0x1FF;
pub(crate) const ROUND_REDUCE: u32 = 0x14D & 0x1FF;
pub(crate) const ROUND_A2A: u32 = 0x1AA & 0x1FF;
pub(crate) const ROUND_A2AV: u32 = 0x1A5 & 0x1FF;
pub(crate) const ROUND_A2AV_CNT: u32 = 0x1A6 & 0x1FF;
pub(crate) const ROUND_AG_BASE: u32 = 0x1C0;

pub(crate) fn coll_tag(seq: u32, round: u32) -> Tag {
    debug_assert!(round < (1 << ROUND_BITS), "collective round {round} overflows the tag field");
    COLL_TAG | ((seq & ((1 << SEQ_BITS) - 1)) << ROUND_BITS) | (round & ((1 << ROUND_BITS) - 1))
}

/// Collective sequence number for `rt` (ranks advance in lockstep; the
/// 22-bit wrap is benign, see the module docs).
pub(crate) fn next_seq(rt: &Runtime) -> u32 {
    rt.coll_seq().fetch_add(1, Ordering::Relaxed)
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

/// How many recycled landing boxes the state keeps across collectives.
const SHELF_CAP: usize = 128;

/// Cached collective-engine state, lazily created per runtime and
/// reused across collectives so the warm path allocates nothing:
/// a reusable completion queue for receives (FAA-array backed,
/// alloc-free push/pop), a shared send-completion handler with an
/// in-flight counter (the pipelining window), and a shelf of
/// chunk-capacity landing boxes recycled between rounds.
pub struct CollState {
    /// Receive-completion queue shared by every posted receive.
    recv_cq: Comp,
    /// Chunk sends outstanding (incremented at post, decremented on
    /// completion or immediate `done`).
    inflight: Arc<AtomicU64>,
    /// Handler comp decrementing [`inflight`](Self::inflight).
    send_comp: Comp,
    /// Recycled landing boxes, all of [`chunk_cap`](Self::chunk_cap)
    /// capacity.
    shelf: Vec<Box<[u8]>>,
    /// Landing-box capacity (`coll_chunk_size` at creation).
    chunk_cap: usize,
    /// Per-round arrival counters, reused across collectives.
    arrived: Vec<u32>,
    /// `alltoallv` send-schedule scratch (peer indices, sorted
    /// largest-block-first), reused so the warm path allocates nothing.
    v_order: Vec<usize>,
    /// `alltoallv` block-offset scratch (send prefix sums), reused.
    v_send_offs: Vec<usize>,
    /// `alltoallv` block-offset scratch (recv prefix sums), reused.
    v_recv_offs: Vec<usize>,
    /// Count-exchange staging (send side), reused across exchanges.
    cnt_send: Vec<u8>,
    /// Count-exchange staging (recv side), reused across exchanges.
    cnt_recv: Vec<u8>,
}

impl CollState {
    fn new(rt: &Runtime) -> CollState {
        let inflight = Arc::new(AtomicU64::new(0));
        let dec = inflight.clone();
        CollState {
            recv_cq: Comp::alloc_cq(),
            inflight,
            send_comp: Comp::alloc_handler(move |_| {
                dec.fetch_sub(1, Ordering::AcqRel);
            }),
            shelf: Vec::new(),
            chunk_cap: rt.config().coll_chunk_size,
            arrived: Vec::new(),
            v_order: Vec::new(),
            v_send_offs: Vec::new(),
            v_recv_offs: Vec::new(),
            cnt_send: Vec::new(),
            cnt_recv: Vec::new(),
        }
    }

    /// A landing box of at least `len` bytes: shelf-recycled when the
    /// chunk capacity suffices, freshly allocated (and dropped by
    /// [`put_databuf`](Self::put_databuf)) otherwise. The oversize arm
    /// has one caller left, [`reduce_bytes`]' child receive, which posts
    /// the whole partial unchunked; everything else that used to reach
    /// it lands in the caller's buffer.
    fn take_box(&mut self, len: usize) -> Box<[u8]> {
        if len <= self.chunk_cap {
            if let Some(b) = self.shelf.pop() {
                return b;
            }
            vec![0u8; self.chunk_cap].into_boxed_slice()
        } else {
            vec![0u8; len].into_boxed_slice()
        }
    }

    /// Recycles a delivered landing box back onto the shelf. Only
    /// chunk-capacity boxes are kept (posted receives always get their
    /// box back as `Owned`/`Partial`: the user-posted-buffer path
    /// copies into it, and rendezvous lands directly in it).
    fn put_databuf(&mut self, data: DataBuf) {
        let b = match data {
            DataBuf::Partial(b, _) | DataBuf::Owned(b) => b,
            _ => return,
        };
        if b.len() == self.chunk_cap && self.shelf.len() < SHELF_CAP {
            self.shelf.push(b);
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

/// Runs `engine` with the caller's slices lent for its duration: `Ok`
/// means every lent receive landed and the send window drained, `Err`
/// that nothing was lent; otherwise the process ends ([`lend`]).
fn lending<'a, R>(
    st: &mut CollState,
    mem: Scope<'a>,
    engine: impl FnOnce(&mut CollState, &Scope<'a>) -> Result<R>,
) -> Result<R> {
    mem.run(|mem| {
        let out = engine(st, mem)?;
        let sends = st.inflight.load(Ordering::Acquire);
        assert!(sends == 0, "collective returned with {sends} sends in flight");
        Ok(out)
    })
}

// ---------------------------------------------------------------------
// Shared posting helpers (pipelined engines and barrier)
// ---------------------------------------------------------------------

/// Posts one collective payload to `peer` under the in-flight window:
/// waits for a window slot, posts the payload from where the caller
/// keeps it, and retries transient backpressure. Never waits for the
/// send itself — completion decrements the window through the state's
/// handler comp, which is also the signal the lending scope waits on.
fn post_windowed(
    rt: &Runtime,
    dev: &Device,
    st: &CollState,
    peer: Rank,
    payload: &Lent,
    tag: Tag,
) -> Result<()> {
    let window = rt.config().coll_max_inflight as u64;
    let inflight = &st.inflight;
    rt.wait_until(|| inflight.load(Ordering::Acquire) < window)?;
    loop {
        // Payloads that fit the inline send variant travel inside the
        // descriptor; everything else is read out of the caller's
        // buffer by whichever protocol the runtime's thresholds pick.
        let staged = payload.send_buf();
        st.inflight.fetch_add(1, Ordering::AcqRel);
        // Collectives batch at chunk granularity themselves, and the
        // drain contract ("window empty" = "bytes on the wire") requires
        // real completions — coalesced sends complete at append time
        // with the frame still buffered, which would let the last rank
        // exit before its final frame ships. Opt out.
        let res = rt
            .post_send_x(peer, staged, tag, st.send_comp.clone())
            .device(dev)
            .allow_coalescing(false)
            .call()?;
        match res {
            PostResult::Posted => break,
            PostResult::Done(_) => {
                // Completed at post time: `done` results never signal
                // the handler, so back the window slot out here.
                settle_done(st, &res);
                break;
            }
            PostResult::Retry(_) => {
                // Nothing was posted and nothing names the payload;
                // back out the window slot, make progress, and repost.
                st.inflight.fetch_sub(1, Ordering::AcqRel);
                rt.progress_all()?;
                std::thread::yield_now();
            }
        }
    }
    let now = st.inflight.load(Ordering::Acquire);
    dev.inner.stats.raise(|c| &c.coll_chunks_inflight_hwm, now);
    dev.inner.stats.add(|c| &c.coll_bytes, payload.len() as u64);
    Ok(())
}

/// Backs out one window slot for a send that completed at post time
/// (`done` results never signal the completion handler).
fn settle_done(st: &CollState, res: &PostResult) {
    if matches!(res, PostResult::Done(_)) {
        st.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Waits until every windowed send has completed.
fn drain_sends(rt: &Runtime, st: &CollState) -> Result<()> {
    let inflight = &st.inflight;
    rt.wait_until(|| inflight.load(Ordering::Acquire) == 0)
}

/// Pops the next receive completion, progressing until one arrives.
fn pop_recv(rt: &Runtime, st: &CollState) -> Result<CompDesc> {
    let mut got = None;
    let cq = &st.recv_cq;
    rt.wait_until(|| {
        got = cq.pop();
        got.is_some()
    })?;
    Ok(got.expect("recv completion"))
}

/// Posts a receive whose completion lands in the state's receive queue;
/// immediate (`done`) matches are forwarded into the queue so the
/// processing loop sees one uniform stream. `ctx` identifies the
/// arrival (round/chunk/peer, collective-specific).
fn post_landing(
    rt: &Runtime,
    dev: &Device,
    st: &CollState,
    from: Rank,
    landing: Landing,
    tag: Tag,
    ctx: u64,
) -> Result<()> {
    let res = rt
        .post_comm_x(Direction::In, from)
        .landing(landing)
        .tag(tag)
        .comp(st.recv_cq.clone())
        .user_ctx(ctx)
        .device(dev)
        .call()?;
    match res {
        PostResult::Done(d) => st.recv_cq.signal(d),
        PostResult::Posted => {}
        PostResult::Retry(_) => unreachable!("recv never retries"),
    }
    Ok(())
}

/// [`post_landing`] into a shelf box: for an arrival the engine must
/// hold beside its accumulator (a fold) or does not keep (the barrier's
/// token).
fn post_recv_cq(
    rt: &Runtime,
    dev: &Device,
    st: &mut CollState,
    from: Rank,
    len: usize,
    tag: Tag,
    ctx: u64,
) -> Result<()> {
    let bx = st.take_box(len);
    post_landing(rt, dev, st, from, Landing::Owned(bx), tag, ctx)
}

/// [`post_landing`] straight into the caller's buffer: for an arrival
/// whose bytes are final. The engine passes the popped completion to
/// [`Scope::landed`], which checks the delivered length against the
/// schedule.
fn post_recv_lent(
    rt: &Runtime,
    dev: &Device,
    st: &CollState,
    from: Rank,
    landing: Lent,
    tag: Tag,
    ctx: u64,
) -> Result<()> {
    post_landing(rt, dev, st, from, Landing::Lent(landing), tag, ctx)
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
    let n = rt.rank_n();
    if n == 1 {
        return Ok(());
    }
    let me = rt.rank_me();
    with_state(rt, |st| {
        let dev = rt.device().clone();
        let seq = next_seq(rt);
        let mut round: u32 = 0;
        let mut dist = 1usize;
        while dist < n {
            let to = (me + dist) % n;
            let from = (me + n - dist) % n;
            let tag = coll_tag(seq, round);
            // Post the receive first so an eager peer matches instantly.
            post_recv_cq(rt, &dev, st, from, 1, tag, 0)?;
            // An eager send: anything but retry is `done` (no signal).
            st.inflight.fetch_add(1, Ordering::AcqRel);
            loop {
                let res = rt
                    .post_send_x(to, &[round as u8][..], tag, st.send_comp.clone())
                    .device(&dev)
                    .allow_coalescing(false)
                    .call()?;
                match res {
                    PostResult::Retry(_) => {
                        rt.progress_all()?;
                        std::thread::yield_now();
                    }
                    _ => {
                        settle_done(st, &res);
                        break;
                    }
                }
            }
            let d = pop_recv(rt, st)?;
            st.put_databuf(d.data);
            dev.inner.stats.bump(|c| &c.coll_rounds);
            dist <<= 1;
            round += 1;
        }
        drain_sends(rt, st)
    })
}

/// In-place allreduce over raw bytes with a byte-generic [`ReduceOp`]:
/// every rank passes an identical-length buffer; on return every rank
/// holds the element-wise reduction. The primary collective — the
/// chunk-pipelined bandwidth-optimal ring, or reduce+broadcast when the
/// world exceeds [`MAX_RING_RANKS`].
pub fn allreduce<O: ReduceOp + ?Sized>(rt: &Runtime, buf: &mut [u8], op: &O) -> Result<()> {
    let elem = op.elem_size();
    if elem == 0 || !buf.len().is_multiple_of(elem) {
        return Err(FatalError::InvalidArg(format!(
            "allreduce buffer length {} is not a multiple of the element size {elem}",
            buf.len()
        )));
    }
    if rt.rank_n() == 1 {
        return Ok(());
    }
    if rt.rank_n() > MAX_RING_RANKS {
        return naive::allreduce(rt, buf, op);
    }
    with_state(rt, |st| {
        lending(st, Scope::in_place(buf), |st, mem| ring::allreduce(rt, st, mem, op))
    })
}

/// Allreduce of `u64` lanes with a closure operator (legacy-shaped
/// convenience over [`allreduce`]; allocates its result vector).
pub fn allreduce_u64(
    rt: &Runtime,
    contrib: &[u64],
    op: impl Fn(u64, u64) -> u64 + Copy,
) -> Result<Vec<u64>> {
    let mut bytes: Vec<u8> = contrib.iter().flat_map(|v| v.to_le_bytes()).collect();
    allreduce(rt, &mut bytes, &FnOpU64(op))?;
    Ok(bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect())
}

/// Binomial-tree broadcast of `buf` from `root` over a mutable slice;
/// chunk-pipelined (children forward chunk `c` as soon as it arrives).
/// Every rank passes a buffer of identical length; non-root buffers are
/// overwritten.
pub fn broadcast_bytes(rt: &Runtime, root: Rank, buf: &mut [u8]) -> Result<()> {
    if rt.rank_n() == 1 || buf.is_empty() {
        return Ok(());
    }
    with_state(rt, |st| {
        lending(st, Scope::in_place(buf), |st, mem| ring::broadcast(rt, st, root, mem))
    })
}

/// Legacy-shaped broadcast over a `Vec` (see [`broadcast_bytes`]).
pub fn broadcast(rt: &Runtime, root: Rank, buf: &mut Vec<u8>) -> Result<()> {
    broadcast_bytes(rt, root, buf.as_mut_slice())
}

/// Binomial-tree reduction of `u64` vectors to `root` with `op`.
/// Returns `Some(result)` on the root, `None` elsewhere.
pub fn reduce_u64(
    rt: &Runtime,
    root: Rank,
    contrib: &[u64],
    op: impl Fn(u64, u64) -> u64 + Copy,
) -> Result<Option<Vec<u64>>> {
    let mut acc: Vec<u8> = contrib.iter().flat_map(|v| v.to_le_bytes()).collect();
    let mine = reduce_bytes(rt, root, &mut acc, &FnOpU64(op))?;
    Ok(mine
        .then(|| acc.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()))
}

/// Binomial-tree byte reduction to `root`, in place: on return the
/// root's `acc` holds the reduction (returns `true` there), other
/// ranks' buffers are unspecified partials (returns `false`).
pub fn reduce_bytes<O: ReduceOp + ?Sized>(
    rt: &Runtime,
    root: Rank,
    acc: &mut [u8],
    op: &O,
) -> Result<bool> {
    let n = rt.rank_n();
    let me = rt.rank_me();
    if n == 1 {
        return Ok(true);
    }
    let vr = (me + n - root) % n;
    let reduce = |st: &mut CollState, mem: &Scope<'_>| {
        let dev = rt.device().clone();
        let seq = next_seq(rt);
        let tag = coll_tag(seq, ROUND_REDUCE);
        let mut m = 1usize;
        loop {
            if vr & m != 0 {
                // Send the partial to the parent and exit.
                let parent = ((vr - m) + root) % n;
                // SAFETY: every fold into `acc` is behind us and no
                // receive is outstanding; the partial is read until the
                // drain below (DESIGN.md §4.11 "Lending", sends).
                let partial = unsafe { mem.source(0..mem.len()) };
                post_windowed(rt, &dev, st, parent, &partial, tag)?;
                dev.inner.stats.bump(|c| &c.coll_rounds);
                drain_sends(rt, st)?;
                return Ok(false);
            }
            if vr + m < n {
                // Receive a child's partial and fold it in.
                let child = ((vr + m) + root) % n;
                post_recv_cq(rt, &dev, st, child, mem.len(), tag, 0)?;
                let desc = pop_recv(rt, st)?;
                // SAFETY: nothing of `acc` is lent before the send to
                // the parent, which ends this loop.
                op.fold(unsafe { mem.window(0..mem.len()) }, desc.data.as_slice());
                st.put_databuf(desc.data);
                dev.inner.stats.bump(|c| &c.coll_rounds);
            }
            m <<= 1;
            if m >= n {
                break;
            }
        }
        drain_sends(rt, st)?;
        Ok(true)
    };
    with_state(rt, |st| lending(st, Scope::in_place(acc), reduce))
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
    with_state(rt, |st| {
        lending(st, Scope::in_place(out), |st, mem| ring::allgather(rt, st, mem, len))
    })?;
    // Position `j` holds rank `(me + j) mod n`; rotate into rank order.
    out.rotate_right(rt.rank_me() * len);
    Ok(())
}

/// Legacy-shaped allgather returning one `Vec` per rank (see
/// [`allgather_bytes`]; all contributions must have equal length).
pub fn allgather(rt: &Runtime, mine: &[u8]) -> Result<Vec<Vec<u8>>> {
    let n = rt.rank_n();
    let len = mine.len();
    let mut flat = vec![0u8; n * len];
    allgather_bytes(rt, mine, &mut flat)?;
    Ok((0..n).map(|r| flat[r * len..(r + 1) * len].to_vec()).collect())
}

/// All-to-all personalized exchange over flat buffers: `send` holds `n`
/// equal blocks (`block = send.len() / n`), block `i` goes to rank `i`;
/// `recv` (same length) receives rank `j`'s block for us at offset
/// `j * block`. All receives are pre-posted, sends ride the bounded
/// in-flight window with no per-send wait (the rendezvous pump chunks
/// large blocks internally).
pub fn alltoall_bytes(rt: &Runtime, send: &[u8], recv: &mut [u8]) -> Result<()> {
    let n = rt.rank_n();
    if !send.len().is_multiple_of(n) || recv.len() != send.len() {
        return Err(FatalError::InvalidArg(format!(
            "alltoall buffers must be n equal blocks each way ({} ranks, {} send, {} recv)",
            n,
            send.len(),
            recv.len()
        )));
    }
    let block = send.len() / n;
    let me = rt.rank_me();
    recv[me * block..(me + 1) * block].copy_from_slice(&send[me * block..(me + 1) * block]);
    if n == 1 {
        return Ok(());
    }
    with_state(rt, |st| {
        lending(st, Scope::new(send, recv), |st, mem| ring::alltoall(rt, st, mem, block))
    })
}

/// Uneven-block all-to-all personalized exchange (`MPI_Alltoallv`
/// shape): `send` is the concatenation of `n` blocks where block `i`
/// (`send_counts[i]` bytes) goes to rank `i`, and `recv` receives rank
/// `j`'s block for us (`recv_counts[j]` bytes) at the `j`-th recv
/// offset. Counts may differ per pair and per direction; the count
/// vectors must agree pairwise across ranks (rank `a`'s
/// `send_counts[b]` == rank `b`'s `recv_counts[a]` — use
/// [`alltoallv_counts`] when the receive side is unknown, the MoE
/// dispatch case).
///
/// Performance engineering (see [`v`] and DESIGN.md §4.13):
/// **zero-byte pairs post nothing** (`coll_skipped_pairs` counts them —
/// MoE routing matrices are mostly sparse), each block rides a
/// **size-adaptive protocol** (inline / pooled eager / chunked
/// rendezvous per `coll_chunk_size` piece, so one giant hot-expert
/// block pipelines through the rendezvous chunk pumps while small
/// blocks stay eager), and sends are issued **largest-block-first with
/// rank-rotated tie-breaking** under the bounded `coll_max_inflight`
/// window, so the straggler block departs first and equal-size blocks
/// do not hotspot one receiver. `coll_chunk_size` must match across
/// ranks (it fixes the chunk split both sides compute), like the
/// invocation-order contract itself.
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
    with_state(rt, |st| {
        lending(st, Scope::new(send, recv), |st, mem| {
            v::alltoallv(rt, st, mem, send_counts, recv_counts)
        })
    })
}

/// One-round count exchange for the receive-side-unknown `alltoallv`
/// case (MoE dispatch: every rank knows how many bytes it routes *to*
/// each peer, none knows what it will get): a dense 8-byte alltoall of
/// the send-count vector. On return `recv_counts[j]` is rank `j`'s
/// `send_counts[me]` — exactly the vector to pass as `recv_counts` to
/// [`alltoallv`]. Allocation-free once the collective state is warm
/// (the staging rides reusable [`CollState`] scratch).
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
        // Take the scratch out of the state so the pairwise engine can
        // borrow it alongside `st`; put it back for the next exchange.
        let mut sb = std::mem::take(&mut st.cnt_send);
        let mut rb = std::mem::take(&mut st.cnt_recv);
        sb.clear();
        for &c in send_counts {
            sb.extend_from_slice(&(c as u64).to_le_bytes());
        }
        rb.clear();
        rb.resize(n * 8, 0);
        rb[me * 8..(me + 1) * 8].copy_from_slice(&sb[me * 8..(me + 1) * 8]);
        let res = lending(st, Scope::new(&sb, &mut rb), |st, mem| ring::alltoall(rt, st, mem, 8));
        if res.is_ok() {
            for (dst, c) in recv_counts.iter_mut().zip(rb.chunks_exact(8)) {
                *dst = u64::from_le_bytes(c.try_into().unwrap()) as usize;
            }
        }
        st.cnt_send = sb;
        st.cnt_recv = rb;
        res
    })
}

/// Allocating convenience over [`exchange_counts`]: returns the learned
/// receive-count vector.
pub fn alltoallv_counts(rt: &Runtime, send_counts: &[usize]) -> Result<Vec<usize>> {
    let mut recv_counts = vec![0usize; rt.rank_n()];
    exchange_counts(rt, send_counts, &mut recv_counts)?;
    Ok(recv_counts)
}

/// Legacy-shaped alltoall over per-rank `Vec` blocks (see
/// [`alltoall_bytes`]; all blocks must have equal length across ranks).
pub fn alltoall(rt: &Runtime, send: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
    let n = rt.rank_n();
    assert_eq!(send.len(), n, "alltoall needs one block per rank");
    let block = send.first().map_or(0, |b| b.len());
    assert!(send.iter().all(|b| b.len() == block), "alltoall blocks must have equal length");
    let mut flat = Vec::with_capacity(n * block);
    for b in send {
        flat.extend_from_slice(b);
    }
    let mut out = vec![0u8; n * block];
    alltoall_bytes(rt, &flat, &mut out)?;
    Ok((0..n).map(|r| out[r * block..(r + 1) * block].to_vec()).collect())
}
