//! The one collective engine: a rank's program is a value ([`Plan`]),
//! seven pure builders write it, and one non-blocking stepper
//! ([`Plan::step`]) runs it (DESIGN.md §4.11).
//!
//! **The plan.** `recvs[i]` is one piece this rank receives: who from,
//! which range of the landing side, under which tag, and how — `Land`
//! posts the range itself as the landing (the bytes are final on
//! arrival), `Fold` posts a shelf box that the harvest folds into the
//! range. `sends[j]` is one piece it sends. Every piece has its own tag
//! (`coll` docs), so a completion's `user_ctx = i` names its receive
//! whatever order the wire delivers in.
//!
//! **The gate** is two numbers per receive. `opens_at`: how many
//! *leading* receives must have been harvested before this one is
//! posted — 0 posts it up front, `k` on receive `k` is a round-by-round
//! algorithm, and the ring's two-round lookahead is the count of
//! receives in rounds `≤ t−2`. `enables`: the contiguous run of `sends`
//! its harvest makes ready; `sends[..seeds]` are ready at the start. A
//! send is posted only once ready, in ready order.
//!
//! **The stepper** never blocks: post every open receive; post ready
//! sends while the [`MAX_INFLIGHT`] window has room and the wire does
//! not say `Retry`; pop the receive queue — fold or length-check, mark,
//! advance the prefix, push what the harvest enables; finished when
//! every receive is harvested, every send posted and the window empty.
//! It is the only place in `coll/` that posts or lends. A blocking
//! collective builds one and steps it under `Runtime::wait_until`
//! (`coll::run`); an `i*` handle takes the same steps from `test`/`wait`
//! (`nb`).
//!
//! The builders are functions of `(n, me, chunk, tags, sizes)` alone, so
//! `tests` runs all `n` ranks' plans against each other with no wire and
//! no threads and checks mechanically the argument each builder's doc
//! makes in prose — what the stepper's three `unsafe` sites cite.

use super::lend::Scope;
use super::ops::ReduceOp;
use super::{CollState, Tags, ROUND_A2A, ROUND_AG_BASE, ROUND_BCAST, ROUND_BITS, ROUND_REDUCE};
use crate::error::{PostResult, Result};
use crate::runtime::Runtime;
use crate::types::{Direction, Landing, Rank, Tag};
use std::cmp::Reverse;
use std::sync::atomic::Ordering;

/// Collective sends outstanding per rank at most: the pipelining window
/// of every plan (the ring allreduce's chunks, the alltoalls' blocks).
const MAX_INFLIGHT: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum How {
    /// Final on arrival: lands in its own range.
    Land,
    /// Lands in a shelf box; the harvest folds it into its range.
    Fold,
}

#[derive(Clone, Copy)]
pub(super) struct Recv {
    from: Rank,
    off: usize,
    len: usize,
    tag: Tag,
    how: How,
    opens_at: usize,
    /// `sends[enables.0..enables.1]` become ready at the harvest.
    enables: (usize, usize),
}

#[derive(Clone, Copy)]
pub(super) struct Send {
    to: Rank,
    off: usize,
    len: usize,
    tag: Tag,
}

/// One rank's program for one collective, and where its run stands.
/// Lives in [`CollState`] between blocking calls, so a warm collective
/// allocates nothing.
#[derive(Default)]
pub(super) struct Plan {
    recvs: Vec<Recv>,
    sends: Vec<Send>,
    /// Rounds that have a receive (what `coll_rounds` counts).
    rounds: u64,
    /// Per receive: harvested.
    done: Vec<bool>,
    /// Send indices in the order they became ready.
    ready: Vec<usize>,
    /// Receives posted, leading receives harvested, receives harvested,
    /// `ready[..sent]` posted.
    opened: usize,
    prefix: usize,
    harvested: usize,
    sent: usize,
}

impl Plan {
    fn clear(&mut self) {
        self.recvs.clear();
        self.sends.clear();
    }

    /// Adds a send of the piece `(off, len)`; its index.
    fn send(&mut self, to: Rank, (off, len): (usize, usize), tag: Tag) -> usize {
        self.sends.push(Send { to, off, len, tag });
        self.sends.len() - 1
    }

    /// Adds a receive of the piece `(off, len)`.
    fn recv(
        &mut self,
        how: How,
        from: Rank,
        (off, len): (usize, usize),
        tag: Tag,
        opens_at: usize,
        enables: (usize, usize),
    ) {
        self.recvs.push(Recv { from, off, len, tag, how, opens_at, enables });
    }

    /// Ends a build: `sends[..seeds]` are ready, nothing has run.
    fn seal(&mut self, seeds: usize, rounds: u64) {
        self.rounds = rounds;
        self.done.clear();
        self.done.resize(self.recvs.len(), false);
        self.ready.clear();
        self.ready.extend(0..seeds);
        (self.opened, self.prefix, self.harvested, self.sent) = (0, 0, 0, 0);
    }

    /// The next receive to post (`opened += 1` once it is), if its gate
    /// is open.
    fn open_recv(&self) -> Option<usize> {
        let next = self.recvs.get(self.opened)?;
        (next.opens_at <= self.prefix).then_some(self.opened)
    }

    /// The next ready send (`sent += 1` once it is posted).
    fn ready_send(&self) -> Option<usize> {
        self.ready.get(self.sent).copied()
    }

    /// Receive `i` was harvested: opens and enables what waited on it.
    fn harvest(&mut self, i: usize) {
        assert!(!std::mem::replace(&mut self.done[i], true), "collective piece {i} arrived twice");
        self.harvested += 1;
        while self.done.get(self.prefix) == Some(&true) {
            self.prefix += 1;
        }
        let (from, to) = self.recvs[i].enables;
        self.ready.extend(from..to);
    }

    /// Every receive harvested and every send posted (the window is the
    /// stepper's to check).
    fn finished(&self) -> bool {
        self.harvested == self.recvs.len() && self.sent == self.sends.len()
    }

    /// One non-blocking step (module docs). `Ok(true)`: finished, and
    /// nothing `mem` lent can be dereferenced again.
    pub(super) fn step<O: ReduceOp + ?Sized>(
        &mut self,
        rt: &Runtime,
        st: &mut CollState,
        mem: &Scope<'_>,
        op: &O,
    ) -> Result<bool> {
        let stats = &rt.device().inner.stats;
        loop {
            while let Some(i) = self.open_recv() {
                self.opened += 1;
                let r = self.recvs[i];
                let landing = match r.how {
                    // SAFETY: posting writes nothing. The range is written
                    // between the peer's post of the matching send and
                    // the pop below, and the builder's schedule keeps
                    // every other touch of it outside that interval (its
                    // doc; checked by `tests::model`; DESIGN.md §4.11
                    // "Lending", landings).
                    How::Land => Landing::Lent(unsafe { mem.landing(r.off..r.off + r.len) }),
                    How::Fold => Landing::Owned(st.take_box(r.len)),
                };
                let res = rt
                    .post_comm_x(Direction::In, r.from)
                    .landing(landing)
                    .tag(r.tag)
                    .comp(st.recv_cq.clone())
                    .user_ctx(i as u64)
                    .call()?;
                // An immediate match joins the queue: one stream below.
                if let PostResult::Done(d) = res {
                    st.recv_cq.signal(d);
                }
            }
            while let Some(j) = self.ready_send() {
                if st.inflight.load(Ordering::Acquire) >= MAX_INFLIGHT {
                    break;
                }
                let s = self.sends[j];
                // SAFETY: a send is ready only once the harvest that
                // completes its bytes is behind us, and the builder's
                // schedule lets nothing write the range before the send
                // has completed (its doc; checked by `tests::model`;
                // DESIGN.md §4.11 "Lending", sends).
                let piece = unsafe { mem.source(s.off..s.off + s.len) };
                st.inflight.fetch_add(1, Ordering::AcqRel);
                // Collectives batch at chunk granularity themselves, and
                // "window empty" must mean "bytes on the wire": a
                // coalesced send completes with its frame still buffered,
                // which would let the last rank out strand it. Opt out.
                let res = rt
                    .post_send_x(s.to, piece.send_buf(), s.tag, st.send_comp.clone())
                    .allow_coalescing(false)
                    .call()?;
                if !matches!(res, PostResult::Posted) {
                    // `Done` never signals the handler and `Retry` posted
                    // nothing: back the window slot out here.
                    st.inflight.fetch_sub(1, Ordering::AcqRel);
                }
                if matches!(res, PostResult::Retry(_)) {
                    break;
                }
                self.sent += 1;
                stats.raise(|c| &c.coll_chunks_inflight_hwm, st.inflight.load(Ordering::Acquire));
                stats.add(|c| &c.coll_bytes, s.len as u64);
            }
            let before = self.harvested;
            while let Some(desc) = st.recv_cq.pop() {
                let i = desc.user_ctx as usize;
                let r = self.recvs[i];
                match r.how {
                    How::Land => mem.landed(&desc, r.len)?,
                    How::Fold => {
                        // SAFETY: the builder's schedule has no send of
                        // this range in flight and no landing over it
                        // whose bytes can arrive (its doc; checked by
                        // `tests::model`; DESIGN.md §4.11 "Lending").
                        let acc = unsafe { mem.window(r.off..r.off + r.len) };
                        op.fold(acc, &desc.data.as_slice()[..r.len]);
                        st.put_databuf(desc.data);
                    }
                }
                self.harvest(i);
            }
            if self.harvested == before {
                break;
            }
        }
        let done = self.finished() && st.inflight.load(Ordering::Acquire) == 0;
        if done {
            stats.add(|c| &c.coll_rounds, self.rounds);
        }
        Ok(done)
    }
}

// ---------------------------------------------------------------------
// The seven schedules
// ---------------------------------------------------------------------

/// What every schedule is a function of besides its sizes and tags: the
/// world's size, this rank, and `coll_chunk_size` — which both sides of
/// a chunked exchange cut by, so it must match across ranks.
#[derive(Clone, Copy)]
pub(super) struct Shape {
    pub n: usize,
    pub me: usize,
    pub chunk: usize,
}

impl Shape {
    pub(super) fn of(rt: &Runtime) -> Shape {
        Shape { n: rt.rank_n(), me: rt.rank_me(), chunk: rt.config().coll_chunk_size }
    }
}

/// `(offset, length)` of each `chunk`-byte piece of `len` bytes at `base`.
fn pieces(base: usize, len: usize, chunk: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len).step_by(chunk).map(move |o| (base + o, chunk.min(len - o)))
}

/// Chunks in the ring's longest block (block 0, on every rank alike):
/// the tag run [`ring`] needs.
pub(super) fn ring_span(w: Shape, len: usize, elem: usize) -> usize {
    ((len / elem).div_ceil(w.n) * elem).div_ceil((w.chunk / elem).max(1) * elem)
}

/// Chunk-pipelined ring allreduce over `len` bytes of `elem`-byte lanes.
///
/// The buffer is cut into `n` near-equal blocks. Over `2(n−1)` rounds
/// each rank sends one block to its right neighbour and receives one
/// from its left: rounds `0..n−1` fold the arrival into the local block
/// (reduce-scatter — after them rank `b+1 mod n` owns the fully reduced
/// block `b`), rounds `n−1..2(n−1)` land it in place (allgather). Per
/// rank this moves `2(n−1)/n · bytes` each way — bandwidth-optimal.
/// Pipelining happens at chunk granularity *across* rounds: the harvest
/// of round `t`'s chunk `c` is exactly what enables sending round
/// `t+1`'s chunk `c` (the same byte range, now carrying one more fold),
/// so a chunk's next hop departs while later chunks of the same round
/// are still in flight; round 0 is the seeds. Round `t` opens when
/// rounds `≤ t−2` are full: a *performance* lookahead (arrivals usually
/// match a posted landing), not a correctness requirement — anything
/// earlier waits in the unexpected queue and still lands where posted.
///
/// **Who touches which bytes when.** Write `(t, c)` for chunk `c` of the
/// block round `t` receives. The left neighbour sends `(t, c)`
/// only after it processed its own `(t−1, c)`, and so on around the
/// ring, so **`(t, c)` reaches us only after the right neighbour fully
/// received our round `t−n+1` send of that very range, which we posted
/// after processing `(t−n, c)`**. The three ways a range is touched —
/// fold `(t, c)` for `t < n−1`, landing `(t, c)` for `t ≥ n−1`, send in
/// round `t+1` — therefore never overlap in time: a range's send in
/// round `s` is next written by the landing of round `s+n−1`, whose
/// bytes cannot leave the left neighbour before the right one has read
/// ours to the end; its fold in round `t` precedes its send in `t+1`
/// (the gate) and follows no touch at all (the earlier one would
/// be round `t−n < 0`); and after its landing in round `t ≥ n−1` the
/// only later touch is the send of round `t+1`, ready once the landing
/// was popped. A landing may be *posted* over a range that is still
/// being sent (`n = 2` posts both rounds up front) or even folded
/// (rendezvous FINs of different rounds can complete out of order, so
/// the two-round lookahead can open round `t+n` early): posting hands
/// over an address and touches nothing — what the chain bounds is when
/// the bytes can arrive.
pub(super) fn ring(plan: &mut Plan, w: Shape, len: usize, elem: usize, tags: Tags) {
    let Shape { n, me, chunk } = w;
    let (left, right, rounds) = ((me + n - 1) % n, (me + 1) % n, 2 * (n - 1));
    // Whole lanes per chunk, so a fold never splits one.
    let chunk = (chunk / elem).max(1) * elem;
    // Block `b` covers elements `[b·q + min(b, r), +q + (b < r))` —
    // near-equal, and empty past `nelems` when `nelems < n`.
    let (q, r) = (len / elem / n, len / elem % n);
    let block = |b: usize| {
        pieces((b * q + b.min(r)) * elem, (q + usize::from(b < r)) * elem, chunk).enumerate()
    };
    plan.clear();
    // Round `t` sends block `(me − t) mod n` and receives `(me − t − 1)
    // mod n`: each receive is the next round's send.
    for (c, piece) in block(me) {
        plan.send(right, piece, tags.piece(0, c));
    }
    let seeds = plan.sends.len();
    // Receives in rounds `≤ t−1` and `≤ t−2`; rounds with any.
    let (mut through_1, mut through_2, mut live) = (0, 0, 0);
    for t in 0..rounds {
        for (c, piece) in block((me + 2 * n - t - 1) % n) {
            let how = if t < n - 1 { How::Fold } else { How::Land };
            let mut enables = (0, 0);
            if t + 1 < rounds {
                let j = plan.send(right, piece, tags.piece(t as u32 + 1, c));
                enables = (j, j + 1);
            }
            plan.recv(how, left, piece, tags.piece(t as u32, c), through_2, enables);
        }
        live += u64::from(plan.recvs.len() > through_1);
        (through_2, through_1) = (through_1, plan.recvs.len());
    }
    plan.seal(seeds, live);
}

/// Chunk-streamed binomial broadcast of `len` bytes from `root`: each
/// parent→child edge carries the buffer as `chunk`-sized pieces, each
/// under its own tag (run: `len.div_ceil(chunk)`), and a non-root's
/// harvest of chunk `c` enables its forward to every child — the
/// subtree below starts filling before the parent has the full buffer.
/// The root's sends are all seeds, and its buffer is only ever read; a
/// non-root's chunk range is lent to one receive, written by that one
/// arrival, and read only by the forwards its harvest enables.
pub(super) fn broadcast(plan: &mut Plan, w: Shape, root: usize, len: usize, tags: Tags) {
    let Shape { n, me, chunk } = w;
    let vr = (me + n - root) % n;
    // The parent clears our highest set bit; the children are `vr + m`
    // for every power of two `m > vr` with `vr + m < n`.
    let top = if vr == 0 { 0 } else { 1usize << vr.ilog2() };
    let children = || {
        let first = (top << 1).max(1);
        (0..usize::BITS).map(move |k| first << k).take_while(move |m| vr + m < n)
    };
    plan.clear();
    for (c, piece) in pieces(0, len, chunk).enumerate() {
        let (tag, first) = (tags.piece(ROUND_BCAST, c), plan.sends.len());
        for m in children() {
            plan.send((vr + m + root) % n, piece, tag);
        }
        if vr != 0 {
            let enables = (first, plan.sends.len());
            plan.recv(How::Land, (vr - top + root) % n, piece, tag, 0, enables);
        }
    }
    plan.seal(if vr == 0 { plan.sends.len() } else { 0 }, 1);
}

/// Bruck allgather of `block`-byte contributions in `⌈log₂ n⌉` rounds:
/// after round `k` every rank holds `2^k` blocks (its own plus the next
/// `2^k − 1` ranks'), kept rotated so each round sends one contiguous
/// prefix; the caller's final rotation restores rank order. The buffer
/// is the output with this rank's block already at its front. Receive
/// `k` opens at `k` and its harvest enables send `k+1`. A round's send
/// reads the prefix while its arrival lands behind it: round `k` sends
/// `[0, cnt·block)` with `cnt ≤ have`, and every landing of that or a
/// later round starts at or past `have·block`, so nothing in flight is
/// ever written.
pub(super) fn allgather(plan: &mut Plan, w: Shape, block: usize, tags: Tags) {
    let Shape { n, me, .. } = w;
    plan.clear();
    let (mut have, mut k) = (1, 0);
    while have < n {
        let cnt = have.min(n - have);
        let tag = tags.piece(ROUND_AG_BASE + k as u32, 0);
        plan.send((me + n - have) % n, (0, cnt * block), tag);
        let enables = if have + cnt < n { (k + 1, k + 2) } else { (0, 0) };
        plan.recv(How::Land, (me + have) % n, (have * block, cnt * block), tag, k, enables);
        have += cnt;
        k += 1;
    }
    plan.seal(1, k as u64);
}

/// Bytes of scratch [`barrier`] runs over: 32 one-byte tokens each way.
pub(super) const BARRIER_SCRATCH: usize = 64;

/// Dissemination barrier: in round `k` rank `i` signals `(i + 2^k) mod
/// n` and hears from `(i − 2^k) mod n`; after `⌈log₂ n⌉` rounds every
/// rank has transitively heard from every other. Receive `k` opens at
/// `k` and enables send `k+1`. The token is one byte of a
/// [`BARRIER_SCRATCH`]-byte scratch: round `k` sends byte `k` (never
/// written) and lands on byte `32 + k` (never read).
pub(super) fn barrier(plan: &mut Plan, w: Shape, tags: Tags) {
    let Shape { n, me, .. } = w;
    plan.clear();
    let mut k = 0;
    while 1 << k < n {
        let (dist, tag) = (1 << k, tags.piece(k as u32, 0));
        plan.send((me + dist) % n, (k, 1), tag);
        let enables = if dist * 2 < n { (k + 1, k + 2) } else { (0, 0) };
        plan.recv(How::Land, (me + n - dist) % n, (BARRIER_SCRATCH / 2 + k, 1), tag, k, enables);
        k += 1;
    }
    plan.seal(1, k as u64);
}

/// Bounded-inflight pairwise alltoall of `block`-byte blocks: all `n −
/// 1` receives open, each into its sender's block of the receive
/// buffer, and all sends seeds in `(me + r) mod n` order — large blocks
/// ride the chunked rendezvous pump concurrently. Sends read one buffer
/// and receives write the other.
pub(super) fn alltoall(plan: &mut Plan, w: Shape, block: usize, tags: Tags) {
    let Shape { n, me, .. } = w;
    plan.clear();
    let tag = tags.piece(ROUND_A2A, 0);
    for peer in (1..n).map(|r| (me + r) % n) {
        plan.send(peer, (peer * block, block), tag);
        plan.recv(How::Land, peer, (peer * block, block), tag, 0, (0, 0));
    }
    plan.seal(n - 1, 1);
}

/// Sequence numbers one `alltoallv` reserves. No rank knows the whole
/// count matrix, so the run cannot follow the longest block the way the
/// ring's does: it is a constant, and with the round field (which this
/// single-stage exchange has no other use for) gives a pair `64 · 512 =
/// 32 768` piece tags — a 2 GiB block at the default chunk size — before
/// they repeat.
pub(super) const V_SPAN: usize = 64;

/// Sparse largest-first `alltoallv` (DESIGN.md §4.13). A zero-byte pair
/// posts *nothing* either way. A block is cut into `chunk` pieces, piece
/// `c` of any pair tagged `(seq + c >> 9, c & 511)`. Every receive is
/// open, straight into the piece's own range of the receive buffer (the
/// pieces tile it without overlap), so the exchange is deadlock-free
/// under any send order; every send is a seed, **largest block first**
/// (the straggler that bounds the critical path departs first and
/// overlaps every smaller block behind it), ties broken by rank-rotated
/// distance `(peer − me − 1) mod n` so uniform schedules keep the classic
/// rotation. Sends read one buffer and receives write the other.
pub(super) fn alltoallv(
    plan: &mut Plan,
    w: Shape,
    send_counts: &[usize],
    recv_counts: &[usize],
    tags: Tags,
) {
    let Shape { n, me, chunk } = w;
    let tag = |c: usize| tags.piece((c & ((1 << ROUND_BITS) - 1)) as u32, c >> ROUND_BITS);
    plan.clear();
    let (mut soff, mut roff) = (0, 0);
    for peer in 0..n {
        if peer != me {
            for (c, piece) in pieces(soff, send_counts[peer], chunk).enumerate() {
                plan.send(peer, piece, tag(c));
            }
            for (c, piece) in pieces(roff, recv_counts[peer], chunk).enumerate() {
                plan.recv(How::Land, peer, piece, tag(c), 0, (0, 0));
            }
        }
        soff += send_counts[peer];
        roff += recv_counts[peer];
    }
    plan.sends
        .sort_unstable_by_key(|s| (Reverse(send_counts[s.to]), (s.to + n - me - 1) % n, s.off));
    plan.seal(plan.sends.len(), 1);
}

/// Binomial reduction of `len` bytes to `root`: the partials of
/// children `vr + 1, vr + 2, vr + 4, …` are folded in one at a time
/// (child `i` opens at `i`, so one box is out at a time; a partial
/// arrives unchunked), and the last fold enables the one send to the
/// parent — a seed on a leaf, absent on the root. Every touch of the
/// accumulator is therefore in program order: fold, fold, …, send.
pub(super) fn reduce(plan: &mut Plan, w: Shape, root: usize, len: usize, tags: Tags) {
    let Shape { n, me, .. } = w;
    plan.clear();
    let (vr, tag) = ((me + n - root) % n, tags.piece(ROUND_REDUCE, 0));
    let mut m = 1;
    while m < n && vr & m == 0 {
        if vr + m < n {
            plan.recv(How::Fold, (vr + m + root) % n, (0, len), tag, plan.recvs.len(), (0, 0));
        }
        m <<= 1;
    }
    if m < n {
        plan.send((vr - m + root) % n, (0, len), tag);
        if let Some(last) = plan.recvs.last_mut() {
            last.enables = (0, 1);
        }
    }
    let (children, parents) = (plan.recvs.len(), plan.sends.len());
    plan.seal(if children == 0 { parents } else { 0 }, (children + parents) as u64);
}

/// The schedule model check: all `n` ranks' plans run against each other
/// under a seeded scheduler that at every point picks any enabled
/// action — open a receive, post a ready send within the window, deliver
/// a posted send to its posted receive, harvest a delivery — and holds
/// DESIGN.md §4.11's last-dereference table over the run: a send's range
/// is READ from its post until its delivery; a `Land` range is WRITE
/// from the moment its peer *posts* the matching send (the bytes can
/// arrive from then on) until its harvest; a `Fold` is a WRITE at its
/// harvest; no WRITE may overlap another live interval of its buffer.
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// `(src, dst, tag)`: what the wire matches a send to its receive by.
    type Key = (usize, usize, Tag);

    /// A live interval of one rank's memory.
    #[derive(Debug)]
    struct Touch {
        /// `(rank, side)`: receives land in side 1; sends read side 0, or
        /// 1 in place.
        mem: (usize, usize),
        range: (usize, usize),
        write: bool,
        key: Key,
    }

    /// Starts a touch, which must not overlap a live one unless both read.
    fn touch(live: &mut Vec<Touch>, mem: (usize, usize), r: (usize, usize), write: bool, key: Key) {
        let t = Touch { mem, range: (r.0, r.0 + r.1), write, key };
        for o in live.iter().filter(|o| o.mem == mem && (write || o.write)) {
            let apart = t.range.1 <= o.range.0 || o.range.1 <= t.range.0;
            assert!(apart, "{t:?} overlaps live {o:?}");
        }
        live.push(t);
    }

    fn untouch(live: &mut Vec<Touch>, key: Key, write: bool) {
        let at = live.iter().position(|t| t.key == key && t.write == write).expect("a live touch");
        live.swap_remove(at);
    }

    /// Runs `plans` (rank `r`'s at index `r`) to completion under `seed`.
    fn run(plans: &mut [Plan], in_place: bool, seed: u64) {
        let n = plans.len();
        let window = 1 + seed as usize % 4;
        // Statically: every send has exactly one receive with its key
        // and length, and every receive a send.
        let mut recv_of: HashMap<Key, usize> = HashMap::new();
        for (dst, p) in plans.iter().enumerate() {
            for (i, r) in p.recvs.iter().enumerate() {
                assert!(recv_of.insert((r.from, dst, r.tag), i).is_none(), "two receives, one key");
            }
        }
        // Per send: its receive's index at the destination.
        let mut sends = 0;
        let mut recv_at: Vec<Vec<usize>> = Vec::new();
        for (src, p) in plans.iter().enumerate() {
            let matched = p.sends.iter().map(|s| {
                let i = *recv_of.get(&(src, s.to, s.tag)).expect("a send without a receive");
                assert_eq!(plans[s.to].recvs[i].len, s.len, "send and receive disagree on length");
                i
            });
            recv_at.push(matched.collect());
            sends += p.sends.len();
        }
        assert_eq!(sends, recv_of.len(), "a receive without a send, or two sends with one key");

        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut posted: Vec<Vec<bool>> = plans.iter().map(|p| vec![false; p.recvs.len()]).collect();
        let mut inflight = vec![0usize; n];
        // Sends `(src, j)` posted and not delivered; receives `(dst, i)`
        // delivered and not harvested.
        let mut flying: Vec<(usize, usize)> = Vec::new();
        let mut arrived: Vec<(usize, usize)> = Vec::new();
        let mut live: Vec<Touch> = Vec::new();
        enum Act {
            Open(usize),
            Post(usize),
            Deliver(usize),
            Harvest(usize),
        }
        let mut acts = Vec::new();
        loop {
            acts.clear();
            for r in 0..n {
                acts.extend(plans[r].open_recv().map(|_| Act::Open(r)));
                acts.extend(
                    plans[r].ready_send().filter(|_| inflight[r] < window).map(|_| Act::Post(r)),
                );
            }
            for (k, &(src, j)) in flying.iter().enumerate() {
                let landing = posted[plans[src].sends[j].to][recv_at[src][j]];
                acts.extend(landing.then_some(Act::Deliver(k)));
            }
            acts.extend((0..arrived.len()).map(Act::Harvest));
            if acts.is_empty() {
                break;
            }
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            match acts.swap_remove(rng as usize % acts.len()) {
                Act::Open(r) => {
                    posted[r][plans[r].open_recv().expect("enabled")] = true;
                    plans[r].opened += 1;
                }
                Act::Post(src) => {
                    let j = plans[src].ready_send().expect("enabled");
                    plans[src].sent += 1;
                    inflight[src] += 1;
                    let s = plans[src].sends[j];
                    let key = (src, s.to, s.tag);
                    assert!(live.iter().all(|t| t.key != key), "{key:?} is live twice");
                    touch(&mut live, (src, usize::from(in_place)), (s.off, s.len), false, key);
                    let r = plans[s.to].recvs[recv_at[src][j]];
                    if r.how == How::Land {
                        touch(&mut live, (s.to, 1), (r.off, r.len), true, key);
                    }
                    flying.push((src, j));
                }
                Act::Deliver(k) => {
                    let (src, j) = flying.swap_remove(k);
                    let s = plans[src].sends[j];
                    untouch(&mut live, (src, s.to, s.tag), false);
                    inflight[src] -= 1;
                    arrived.push((s.to, recv_at[src][j]));
                }
                Act::Harvest(k) => {
                    let (dst, i) = arrived.swap_remove(k);
                    let r = plans[dst].recvs[i];
                    let key = (r.from, dst, r.tag);
                    if r.how == How::Fold {
                        touch(&mut live, (dst, 1), (r.off, r.len), true, key);
                    }
                    untouch(&mut live, key, true);
                    plans[dst].harvest(i);
                }
            }
        }
        for (r, p) in plans.iter().enumerate() {
            assert!(p.finished() && inflight[r] == 0, "rank {r} of {n} is stuck (seed {seed})");
        }
        assert!(live.is_empty() && flying.is_empty());
    }

    /// Builds every rank's plan and runs them.
    fn check(n: usize, in_place: bool, seed: u64, build: impl Fn(&mut Plan, Shape)) {
        let mut plans: Vec<Plan> = (0..n).map(|_| Plan::default()).collect();
        for (me, p) in plans.iter_mut().enumerate() {
            build(p, Shape { n, me, chunk: CHUNK });
        }
        run(&mut plans, in_place, seed);
    }

    const ELEM: usize = 8;
    const CHUNK: usize = 3 * ELEM;

    fn tags(span: usize) -> Tags {
        Tags { seq: 11, span: span.max(1) }
    }

    /// `n ∈ 2..=9` × 200 seeds × byte lengths of 0, 1, `n−1`, chunk ± 1,
    /// 3·chunk + 5 and `n`·(2·chunk + 1) + 1 elements (the last gives
    /// every ring block a short last chunk).
    fn sweep(f: impl Fn(usize, usize, u64)) {
        for n in 2..=9 {
            for seed in 0..200 {
                for elems in [0, 1, n - 1, 2, 4, 3 * 3 + 5, n * (2 * 3 + 1) + 1] {
                    f(n, elems * ELEM, seed);
                }
            }
        }
    }

    #[test]
    fn model_ring() {
        sweep(|n, len, seed| {
            let t = tags(ring_span(Shape { n, me: 0, chunk: CHUNK }, len, ELEM));
            check(n, true, seed, |p, w| ring(p, w, len, ELEM, t));
        });
    }

    #[test]
    fn model_trees_and_bruck() {
        sweep(|n, len, seed| {
            let (root, t) = (seed as usize % n, tags(len.div_ceil(CHUNK)));
            check(n, true, seed, |p, w| broadcast(p, w, root, len, t));
            check(n, true, seed, |p, w| reduce(p, w, root, len, tags(1)));
            check(n, true, seed, |p, w| allgather(p, w, len, tags(1)));
        });
    }

    #[test]
    fn model_barrier_and_exchanges() {
        sweep(|n, len, seed| {
            check(n, false, seed, |p, w| alltoall(p, w, len, tags(1)));
            if len > 0 {
                return;
            }
            check(n, true, seed, |p, w| barrier(p, w, tags(1)));
            // A ragged matrix, about half its pairs empty.
            let mut x = seed | 1;
            let mut count = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 1 & 1) as usize * ((x >> 33) as usize % (3 * CHUNK + 5))
            };
            let m: Vec<Vec<usize>> = (0..n).map(|_| (0..n).map(|_| count()).collect()).collect();
            check(n, false, seed, |p, w| {
                let col: Vec<usize> = m.iter().map(|row| row[w.me]).collect();
                alltoallv(p, w, &m[w.me], &col, tags(V_SPAN))
            });
        });
    }
}
