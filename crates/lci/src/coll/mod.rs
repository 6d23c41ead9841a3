//! Performance-grade collective communication (paper §6).
//!
//! The paper's position is that LCI's point-to-point primitives are the
//! building blocks for collectives. Here a collective *is* a composition
//! of them, written down as a value: a rank's program is a `Plan` — the
//! pieces it receives (from whom, into which range, under which tag,
//! landed in place or folded), the pieces it sends, and a gate saying
//! which harvest opens which receive and readies which send — built by
//! one of seven pure schedule builders and run by one non-blocking
//! stepper (`plan`; DESIGN.md §4.11):
//!
//! * **Chunk-pipelined ring allreduce** ([`allreduce`]): reduce-scatter
//!   and allgather phases moving the bandwidth-optimal `2(n−1)/n ·
//!   bytes` per rank, each block split into `coll_chunk_size` chunks
//!   whose next hop departs as soon as the chunk is harvested.
//! * **Chunk-streamed binomial broadcast** ([`broadcast_bytes`]) and
//!   **binomial reduce** ([`reduce_bytes`]) — together also the
//!   allreduce of a world past `MAX_RING_RANKS`.
//! * **Bruck allgather** ([`allgather_bytes`]) and a **dissemination
//!   barrier** ([`barrier`]) in `⌈log₂ n⌉` rounds.
//! * **Pairwise alltoall** ([`alltoall_bytes`]) and the **sparse
//!   largest-first alltoallv** ([`alltoallv`]; [`alltoallv_counts`]
//!   handles the recv-side-unknown MoE case): all receives up front,
//!   zero-byte pairs post nothing, large blocks ride the chunked
//!   rendezvous pump.
//!
//! Sends ride a bounded `coll_max_inflight` window and never wait
//! individually. A collective stages nothing and takes nothing from the
//! device's buffer pool: the caller's slices are **lent** to the runtime
//! while the plan runs (`lend`; DESIGN.md §4.11 "Lending"), so every
//! piece is posted from the caller's buffer — inline at or under 24 B —
//! and, wherever its bytes are final on arrival, lands at its own offset
//! in it: one copy per byte, the wire's. Only an arrival that must be
//! folded (reduce-scatter rounds, [`reduce_bytes`]) lands in a box from
//! the shelf ([`CollState`]). A warm collective loop allocates nothing
//! (`tests/alloc_steady_state.rs`). A blocking call steps its plan under
//! [`Runtime::wait_until`], which progresses every device of the runtime
//! and yields the core once idle.
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
//! **Non-blocking `i*` variants** ([`ibarrier`], [`ibroadcast`],
//! [`ireduce_u64`], [`iallgather`], [`ialltoall`], [`ialltoallv`],
//! [`iallreduce_u64`]; `nb`) are the same plans stepped from a handle:
//! an [`IColl`] owns its buffers and advances only inside its own
//! `test`/`wait` (MPI's weak progress) — poll it in any loop a peer's
//! collective may be waiting on.
//!
//! [`naive`] holds store-and-forward implementations of the same
//! collectives. Nothing in the library calls them: they are the
//! reference the proptests compare the plans against and the baseline
//! `benches/collectives.rs` measures.
//!
//! ## Tags and ordering
//!
//! Tags with the highest bit set are reserved for collectives. The tag
//! packs a 22-bit per-runtime sequence number and a 9-bit round index
//! (`1 + 22 + 9 = 32`): collectives must be invoked in the same order
//! on every rank (the usual MPI-style contract; an `i*` call counts
//! where it is *started*, and reserves every tag it will use there), the
//! sequence keeps consecutive collectives apart, and the round keeps a
//! collective's internal stages apart. The sequence wraps at ~4.2 M
//! collectives; a wrapped tag can only collide with a collective that
//! fully completed long ago.
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
//! posted into the caller's buffer must get *its* bytes. `user_ctx` on
//! each posted receive is its index in the plan.

#[doc(hidden)]
pub(crate) mod lend;
pub mod naive;
pub mod nb;
pub mod ops;
mod plan;

pub use nb::{
    iallgather, iallreduce_u64, ialltoall, ialltoallv, ibarrier, ibroadcast, ireduce_u64, IColl,
};
pub use ops::{FnOpU64, MaxF32, MaxU64, ReduceOp, SumF32, SumU64};

use crate::comp::Comp;
use crate::error::{FatalError, Result};
use crate::runtime::Runtime;
use crate::types::{DataBuf, Rank, Tag};
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
/// Largest rank count the pipelined ring allreduce supports: its
/// `2(n−1)` rounds must fit the tag's round field. Bigger worlds reduce
/// to rank 0 and broadcast, whose round codes are O(log n).
pub(crate) const MAX_RING_RANKS: usize = 256;

/// Round codes for single-stage collectives (must fit [`ROUND_BITS`];
/// distinct sequences already separate collectives, so these only
/// separate stages *within* one collective call).
pub(crate) const ROUND_BCAST: u32 = 0x1BC & 0x1FF;
pub(crate) const ROUND_REDUCE: u32 = 0x14D & 0x1FF;
pub(crate) const ROUND_A2A: u32 = 0x1AA & 0x1FF;
pub(crate) const ROUND_A2AV: u32 = 0x1A5 & 0x1FF;
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

/// Collective-engine state, lazily created per runtime (an `i*` handle
/// has its own) and reused so the warm path allocates nothing: a
/// completion queue for receives (FAA-array backed, alloc-free), a send
/// handler with an in-flight counter (the pipelining window), a shelf of
/// chunk-capacity landing boxes for folds, and the plan's storage.
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
    /// The blocking collective's plan, rebuilt in place per call.
    plan: Plan,
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
            plan: Plan::default(),
            cnt_send: Vec::new(),
            cnt_recv: Vec::new(),
        }
    }

    /// A landing box of at least `len` bytes: shelf-recycled when the
    /// chunk capacity suffices, freshly allocated (and dropped by
    /// [`put_databuf`](Self::put_databuf)) otherwise. Only a
    /// [`reduce_bytes`] child's partial, which arrives unchunked, reaches
    /// the oversize arm.
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
    let res = wait_for(rt, || plan.step(rt, st, &mem, op));
    st.plan = plan;
    finish(st, mem, res)
}

/// [`Runtime::wait_until`] for a step that can fail.
fn wait_for(rt: &Runtime, mut step: impl FnMut() -> Result<bool>) -> Result<()> {
    let mut failed = None;
    rt.wait_until(|| match step() {
        Ok(done) => done,
        Err(e) => {
            failed = Some(e);
            true
        }
    })?;
    failed.map_or(Ok(()), Err)
}

/// Ends a plan's loan: counted closed after a clean run, handed its
/// error back if nothing was lent, the process ended otherwise.
fn finish(st: &CollState, mem: Scope<'_>, res: Result<()>) -> Result<()> {
    match res {
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
/// holds the element-wise reduction. The primary collective — the
/// chunk-pipelined bandwidth-optimal ring, or [`reduce_bytes`] to rank 0
/// and [`broadcast_bytes`] from it when the world exceeds
/// `MAX_RING_RANKS`.
pub fn allreduce<O: ReduceOp + ?Sized>(rt: &Runtime, buf: &mut [u8], op: &O) -> Result<()> {
    let elem = op.elem_size();
    if elem == 0 || !buf.len().is_multiple_of(elem) {
        return Err(FatalError::InvalidArg(format!(
            "allreduce buffer length {} is not a multiple of the element size {elem}",
            buf.len()
        )));
    }
    let (w, len) = (Shape::of(rt), buf.len());
    if w.n == 1 {
        return Ok(());
    }
    if w.n > MAX_RING_RANKS {
        reduce_bytes(rt, 0, buf, op)?;
        return broadcast_bytes(rt, 0, buf);
    }
    let build = |p: &mut Plan| {
        plan::ring(p, w, len, elem, Tags::reserve(rt, plan::ring_span(w, len, elem)))
    };
    with_state(rt, |st| run(rt, st, Scope::in_place(buf), op, build))
}

/// Allreduce of `u64` lanes with a closure operator (legacy-shaped
/// convenience over [`allreduce`]; allocates its result vector).
pub fn allreduce_u64(
    rt: &Runtime,
    contrib: &[u64],
    op: impl Fn(u64, u64) -> u64 + Copy,
) -> Result<Vec<u64>> {
    let mut bytes = bytes_of_u64s(contrib);
    allreduce(rt, &mut bytes, &FnOpU64(op))?;
    Ok(u64s_of_bytes(&bytes))
}

fn bytes_of_u64s(lanes: &[u64]) -> Vec<u8> {
    lanes.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// `flat` cut into consecutive blocks of the given lengths.
fn split(flat: &[u8], lens: impl IntoIterator<Item = usize>) -> Vec<Vec<u8>> {
    let mut rest = flat;
    let cut = |len| {
        let (block, tail) = rest.split_at(len);
        rest = tail;
        block.to_vec()
    };
    lens.into_iter().map(cut).collect()
}

fn u64s_of_bytes(bytes: &[u8]) -> Vec<u64> {
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8-byte lane"))).collect()
}

/// Binomial-tree broadcast of `buf` from `root` over a mutable slice;
/// chunk-pipelined (children forward chunk `c` as soon as it arrives).
/// Every rank passes a buffer of identical length; non-root buffers are
/// overwritten.
pub fn broadcast_bytes(rt: &Runtime, root: Rank, buf: &mut [u8]) -> Result<()> {
    let (w, len) = (Shape::of(rt), buf.len());
    if w.n == 1 || len == 0 {
        return Ok(());
    }
    let build =
        |p: &mut Plan| plan::broadcast(p, w, root, len, Tags::reserve(rt, len.div_ceil(w.chunk)));
    with_state(rt, |st| run(rt, st, Scope::in_place(buf), &NoFold, build))
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
    let mut acc = bytes_of_u64s(contrib);
    let mine = reduce_bytes(rt, root, &mut acc, &FnOpU64(op))?;
    Ok(mine.then(|| u64s_of_bytes(&acc)))
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
    let (w, len) = (Shape::of(rt), acc.len());
    if w.n > 1 {
        let build = |p: &mut Plan| plan::reduce(p, w, root, len, Tags::reserve(rt, 1));
        with_state(rt, |st| run(rt, st, Scope::in_place(acc), op, build))?;
    }
    Ok(w.me == root)
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
    let build = |p: &mut Plan| plan::allgather(p, Shape::of(rt), len, Tags::reserve(rt, 1));
    with_state(rt, |st| run(rt, st, Scope::in_place(out), &NoFold, build))?;
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
    Ok(split(&flat, std::iter::repeat_n(len, n)))
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
    let build = |p: &mut Plan| plan::alltoall(p, Shape::of(rt), block, Tags::reserve(rt, 1));
    with_state(rt, |st| run(rt, st, Scope::new(send, recv), &NoFold, build))
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
/// Performance engineering (see DESIGN.md §4.13):
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
        // Take the scratch out of the state so the plan can lend it
        // alongside `st`; put it back for the next exchange.
        let mut sb = std::mem::take(&mut st.cnt_send);
        let mut rb = std::mem::take(&mut st.cnt_recv);
        sb.clear();
        for &c in send_counts {
            sb.extend_from_slice(&(c as u64).to_le_bytes());
        }
        rb.clear();
        rb.resize(n * 8, 0);
        rb[me * 8..(me + 1) * 8].copy_from_slice(&sb[me * 8..(me + 1) * 8]);
        let build = |p: &mut Plan| plan::alltoall(p, Shape::of(rt), 8, Tags::reserve(rt, 1));
        let res = run(rt, st, Scope::new(&sb, &mut rb), &NoFold, build);
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
    let mut out = vec![0u8; n * block];
    alltoall_bytes(rt, &send.concat(), &mut out)?;
    Ok(split(&out, std::iter::repeat_n(block, n)))
}
