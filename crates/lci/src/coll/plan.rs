//! The one collective engine: a rank's program is a value ([`Plan`]),
//! five pure builders write it (ring, Bruck allgather, dissemination
//! barrier, sparse `alltoallv`, direct reduction), and one non-blocking
//! stepper ([`Plan::step`]) runs it (DESIGN.md §4.11).
//!
//! **The plan.** `recvs[i]` is one piece this rank receives: who from,
//! which range of the landing side, under which tag, and how — `Land`
//! lands in the range itself (the bytes are final on arrival), `Fold`
//! lands in a slot of the state's fold arena that the harvest folds into
//! the range, `Direct` is a peer's signal that it has reduced its slice
//! of this rank's buffer itself. `sends[j]` is one piece it sends, with
//! where it goes at the peer: landed or folded, its range at `dst_off`
//! from the base the peer grants this rank, and a put fold's arena
//! `slot`. Every piece has its own tag (`coll` docs), so a completion
//! names its receive whatever order the wire delivers in.
//!
//! **Two transports.** A piece at or under the eager size
//! (`packet.payload_size`) is a two-sided send into a posted receive
//! whose `user_ctx` is its index. A longer one is a put with a remote
//! signal into memory the receiver *granted* once for the call (`grant`):
//! at its first step a rank registers its landing side and sends every
//! peer that will put into it one grant, and a put is posted only once
//! its peer's grant has been harvested. Its signal carries the piece's
//! tag, which names the receive. A `Direct` piece is a zero-byte put: the
//! signal alone.
//!
//! **The gate** is two numbers per receive. `opens_at`: how many
//! *leading* receives must have been harvested before this one is
//! posted — 0 posts it up front, `k` on receive `k` is a round-by-round
//! algorithm, and the ring's two-round lookahead is the count of
//! receives in rounds `≤ t−2`. A put's receive posts nothing, but its
//! signal is harvested only once the gate has opened it (an earlier one
//! waits, as an early two-sided arrival waits unexpected). `enables`:
//! the contiguous run of `sends` its harvest makes ready;
//! `sends[..seeds]` are ready at the start. A send is posted only once
//! ready, in ready order.
//!
//! **The stepper** never blocks: post every open receive; post the
//! grants; once every grant is in, reduce this rank's slice of every
//! buffer (a `direct` plan, where every rank's buffer is in this address
//! space; [`Plan::can_reduce`]) before its signals may go; post ready
//! sends while the [`MAX_INFLIGHT`] window has room, the peer's grant is
//! in (for a put) and the wire does not say `Retry`; pop the receive
//! queue — a grant, a put's signal or a two-sided arrival: fold or
//! length-check, mark, advance the prefix, push what the harvest enables;
//! finished when every receive is harvested, every send posted and the
//! window empty. It is the only place in `coll/` that posts or lends. A
//! collective builds one and steps it under `Runtime::wait_until`
//! (`coll::run`).
//!
//! The builders are functions of `(n, me, chunk, eager, tags, sizes)`
//! alone, so `tests` runs all `n` ranks' plans against each other with no
//! wire and no threads and checks mechanically the argument each
//! builder's doc makes in prose — what the stepper's `unsafe` sites
//! cite — and that every put lands on exactly its receive.

use super::grant::{self, Grant, GRANT_LEN};
use super::lend::{Lent, Scope};
use super::ops::ReduceOp;
use super::{CollState, Tags, ROUND_AG_BASE, ROUND_GRANT};
use crate::error::{FatalError, PostResult, Result};
use crate::runtime::Runtime;
use crate::types::{CompDesc, CompKind, Direction, Landing, RComp, Rank, SendBuf, Tag};
use lci_fabric::{MemoryRegion, Rkey};
use std::cmp::Reverse;
use std::sync::atomic::Ordering;

/// Collective sends outstanding per rank at most: the pipelining window
/// of every plan (the ring allreduce's chunks, `alltoallv`'s pieces).
const MAX_INFLIGHT: u64 = 4;

/// `user_ctx` of a grant's receive: this bit and the granting rank.
const GRANT_CTX: u64 = 1 << 63;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum How {
    /// Final on arrival: lands in its own range.
    Land,
    /// Lands in a slot of the fold arena and the harvest folds it into
    /// its range.
    Fold,
    /// A zero-byte put: the sender has reduced its slice of this rank's
    /// buffer ([`direct`]).
    Direct,
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
    /// A `Fold` piece's offset among its peer's put folds or among its
    /// eager folds (`seal`); [`Plan::slot`] places it in the arena.
    slot: usize,
}

#[derive(Clone, Copy)]
pub(super) struct Send {
    to: Rank,
    off: usize,
    len: usize,
    tag: Tag,
    /// Where the piece goes at the peer: landed or folded into the range
    /// at `dst_off` from the landing base the peer grants this rank.
    how: How,
    dst_off: usize,
    /// A put fold's offset in the peer's arena region for this rank:
    /// this rank's put folds to the peer, in send order.
    slot: usize,
}

/// What a plan exchanges with one peer besides pieces.
#[derive(Clone, Copy, Default)]
struct Peer {
    /// Base of the peer's pieces in the landing side: 0 in place, the
    /// receive displacement for `alltoallv`.
    land_base: usize,
    /// The peer's region of the fold arena: its eager folds, then its
    /// put folds.
    arena: usize,
    /// Bytes of the peer's `Fold` receives at or under the eager size,
    /// and over it.
    eager_folds: usize,
    put_folds: usize,
    /// Put fold bytes sent to the peer so far: the next one's `slot`.
    fold_sent: usize,
    /// Put receives from the peer not yet harvested; it is granted the
    /// landing while any are.
    puts_in: usize,
    /// This rank puts to the peer, so it waits for the peer's grant.
    puts_out: bool,
    /// The peer's grant, once harvested.
    grant: Option<Grant>,
}

/// One rank's program for one collective, and where its run stands.
/// Lives in [`CollState`] between calls, so a warm collective allocates
/// nothing.
#[derive(Default)]
pub(super) struct Plan {
    recvs: Vec<Recv>,
    sends: Vec<Send>,
    /// Rounds that have a receive (what `coll_rounds` counts).
    rounds: u64,
    /// Pieces longer than this are puts (`packet.payload_size`).
    eager: usize,
    /// The tag every grant of the call travels under.
    grant_tag: Tag,
    /// Per rank.
    peers: Vec<Peer>,
    /// Per rank: where its grant lands.
    inbox: Vec<[u8; GRANT_LEN]>,
    /// Put receives by [`signal_key`], sorted: what a signal names.
    signals: Vec<(u64, usize)>,
    /// Fold arena bytes the plan needs (`seal`).
    arena_len: usize,
    /// The slice a direct schedule reduces, and whether it has.
    direct: Option<direct::Slice>,
    reduced: bool,
    /// Per receive: harvested.
    done: Vec<bool>,
    /// Per receive: a put whose signal was popped before the gate
    /// opened it.
    early: Vec<bool>,
    /// Send indices in the order they became ready.
    ready: Vec<usize>,
    /// Receives posted, leading receives harvested, receives harvested,
    /// `ready[..sent]` posted, grants harvested.
    opened: usize,
    prefix: usize,
    harvested: usize,
    sent: usize,
    granted: usize,
    /// Grants go out next to ranks `granting..`; `None` before the
    /// first step.
    granting: Option<usize>,
    /// The landing side's registration while grants name it.
    landing_mr: Option<MemoryRegion>,
}

/// What a put's signal is looked up by.
fn signal_key(from: Rank, tag: Tag) -> u64 {
    (from as u64) << 32 | tag as u64
}

/// Whether a piece of `len` bytes sent `how` is a put: a direct signal,
/// or longer than the eager size.
fn is_put(how: How, len: usize, eager: usize) -> bool {
    how == How::Direct || len > eager
}

impl Plan {
    /// Starts a build for shape `w` under `tags`.
    fn clear(&mut self, w: Shape, tags: Tags) {
        self.recvs.clear();
        self.sends.clear();
        (self.eager, self.grant_tag) = (w.eager, tags.piece(ROUND_GRANT, 0));
        self.direct = None;
        self.peers.clear();
        self.peers.resize(w.n, Peer::default());
        self.inbox.resize(w.n, [0; GRANT_LEN]);
    }

    /// Adds a send of the piece `(off, len)` that lands at `dst_off` from
    /// the peer's base for this rank; its index.
    fn send_land(
        &mut self,
        to: Rank,
        (off, len): (usize, usize),
        tag: Tag,
        dst_off: usize,
    ) -> usize {
        self.sends.push(Send { to, off, len, tag, how: How::Land, dst_off, slot: 0 });
        self.sends.len() - 1
    }

    /// Adds a send of the piece `(off, len)` that the peer folds into its
    /// range at `dst_off`; its index. The peer's arena region for this
    /// rank holds its put folds in send order, which is the order the
    /// peer receives them in.
    fn send_fold(
        &mut self,
        to: Rank,
        (off, len): (usize, usize),
        tag: Tag,
        dst_off: usize,
    ) -> usize {
        let (p, put) = (&mut self.peers[to], len > self.eager);
        let slot = if put { p.fold_sent } else { 0 };
        p.fold_sent += if put { len } else { 0 };
        self.sends.push(Send { to, off, len, tag, how: How::Fold, dst_off, slot });
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
        self.recvs.push(Recv { from, off, len, tag, how, opens_at, enables, slot: 0 });
    }

    /// Ends a build: places each `Fold` receive among its peer's eager
    /// or put folds (receive order) and lays out the arena — each peer's
    /// region, in rank order — indexes the put receives by signal, marks
    /// who grants whom; `sends[..seeds]` are ready and nothing has run.
    fn seal(&mut self, seeds: usize, rounds: u64) {
        self.rounds = rounds;
        for r in self.recvs.iter_mut().filter(|r| r.how == How::Fold) {
            let p = &mut self.peers[r.from];
            let folds = if r.len > self.eager { &mut p.put_folds } else { &mut p.eager_folds };
            r.slot = *folds;
            *folds += r.len;
        }
        let mut base = 0;
        for p in &mut self.peers {
            p.arena = base;
            base += p.eager_folds + p.put_folds;
        }
        self.arena_len = base;
        self.signals.clear();
        for (i, r) in self.recvs.iter().enumerate() {
            if is_put(r.how, r.len, self.eager) {
                self.peers[r.from].puts_in += 1;
                self.signals.push((signal_key(r.from, r.tag), i));
            }
        }
        self.signals.sort_unstable();
        for s in self.sends.iter().filter(|s| is_put(s.how, s.len, self.eager)) {
            self.peers[s.to].puts_out = true;
        }
        for flags in [&mut self.done, &mut self.early] {
            flags.clear();
            flags.resize(self.recvs.len(), false);
        }
        self.ready.clear();
        self.ready.extend(0..seeds);
        (self.opened, self.prefix, self.harvested, self.sent, self.granted) = (0, 0, 0, 0, 0);
        self.reduced = false;
        self.granting = None;
    }

    /// The arena slot of a `Fold` receive.
    fn slot(&self, r: &Recv) -> usize {
        let p = &self.peers[r.from];
        p.arena + if r.len > self.eager { p.eager_folds + r.slot } else { r.slot }
    }

    /// The grant this rank sends `peer`.
    fn grant(&self, peer: Rank, land: Rkey, arena: Rkey, rcomp: RComp) -> Grant {
        let p = &self.peers[peer];
        Grant { land: (land, p.land_base), arena: (arena, p.arena + p.eager_folds), rcomp }
    }

    /// `peer`'s grant was harvested.
    fn grant_in(&mut self, peer: Rank, g: Grant) {
        self.peers[peer].grant = Some(g);
        self.granted += 1;
    }

    /// A direct schedule that has not reduced yet and holds the grant of
    /// every peer it signals: every buffer it reads is lent to it.
    fn can_reduce(&self) -> bool {
        let granted = self.peers.iter().all(|p| !p.puts_out || p.grant.is_some());
        self.direct.is_some() && !self.reduced && granted
    }

    /// The next receive to post (`opened += 1` once it is), if its gate
    /// is open.
    fn open_recv(&self) -> Option<usize> {
        let next = self.recvs.get(self.opened)?;
        (next.opens_at <= self.prefix).then_some(self.opened)
    }

    /// The next ready send (`sent += 1` once it is posted); a direct
    /// signal only once this rank has reduced.
    fn ready_send(&self) -> Option<usize> {
        let j = *self.ready.get(self.sent)?;
        (self.sends[j].how != How::Direct || self.reduced).then_some(j)
    }

    /// The put receive a signal from `from` under `tag` names: the first
    /// not yet signalled (tags repeat only past a call's span).
    fn signalled(&self, from: Rank, tag: Tag) -> Option<usize> {
        let key = signal_key(from, tag);
        let at = self.signals.partition_point(|&(k, _)| k < key);
        let same = self.signals[at..].iter().take_while(|&&(k, _)| k == key);
        same.map(|&(_, i)| i).find(|&i| !self.done[i] && !self.early[i])
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
        if self.granting.is_none() {
            self.start(rt, st, mem)?;
        }
        loop {
            let before = self.harvested + self.granted;
            while let Some(i) = self.open_recv() {
                self.opened += 1;
                let r = self.recvs[i];
                if is_put(r.how, r.len, self.eager) {
                    // A put: its landing is granted, nothing to post.
                    if self.early[i] {
                        self.take(i, None, st, mem, op)?;
                    }
                    continue;
                }
                let landing = match r.how {
                    // SAFETY: posting writes nothing. The range is written
                    // between the peer's post of the matching send and
                    // the pop below, and the builder's schedule keeps
                    // every other touch of it outside that interval (its
                    // doc; checked by `tests::model`; DESIGN.md §4.11
                    // "Lending", landings).
                    How::Land => unsafe { mem.landing(r.off..r.off + r.len) },
                    // SAFETY: `seal` gave this receive a slot of its own,
                    // the arena does not move while the plan runs (`fit`
                    // ran at the first step), and the slot is read only
                    // at this receive's harvest.
                    How::Fold => unsafe { mem.scratch(st.arena.at(self.slot(&r)), r.len) },
                    How::Direct => unreachable!("a direct signal is a put"),
                };
                post_recv(rt, st, r.from, landing, r.tag, i as u64)?;
            }
            self.send_grants(rt, st)?;
            if let Some(slice) = self.direct.filter(|_| self.can_reduce()) {
                direct::reduce_slice(rt, &self.peers, slice, &mut st.direct, mem, op)?;
                self.reduced = true;
                stats.add(|c| &c.coll_direct_bytes, slice.len as u64);
            }
            while let Some(j) = self.ready_send() {
                if st.inflight.load(Ordering::Acquire) >= MAX_INFLIGHT {
                    break;
                }
                let s = self.sends[j];
                let grant = match self.peers[s.to].grant {
                    _ if !is_put(s.how, s.len, self.eager) => None,
                    Some(g) => Some(g),
                    None => break,
                };
                // SAFETY: a send is ready only once the harvest that
                // completes its bytes is behind us, and the builder's
                // schedule lets nothing write the range before the send
                // has completed (its doc; checked by `tests::model`;
                // DESIGN.md §4.11 "Lending", sends).
                let piece = unsafe { mem.source(s.off..s.off + s.len) };
                let put = grant.map(|g| (g.target(s.how, s.dst_off, s.slot), g.rcomp));
                if post(rt, st, s.to, piece.send_buf(), s.tag, put)?.is_retry() {
                    break;
                }
                self.sent += 1;
                stats.raise(|c| &c.coll_chunks_inflight_hwm, st.inflight.load(Ordering::Acquire));
                stats.add(|c| &c.coll_bytes, s.len as u64);
            }
            while let Some(desc) = st.recv_cq.pop() {
                if desc.kind == CompKind::RemoteSignal {
                    let Some(i) = self.signalled(desc.rank, desc.tag) else {
                        return Err(FatalError::Net(format!(
                            "collective put from rank {} under tag {:#x} names no piece",
                            desc.rank, desc.tag
                        )));
                    };
                    if i < self.opened {
                        self.take(i, None, st, mem, op)?;
                    } else {
                        self.early[i] = true;
                    }
                } else if desc.user_ctx & GRANT_CTX != 0 {
                    let p = (desc.user_ctx & !GRANT_CTX) as usize;
                    mem.landed(&desc, GRANT_LEN)?;
                    self.grant_in(p, Grant::decode(&self.inbox[p]));
                } else {
                    self.take(desc.user_ctx as usize, Some(&desc), st, mem, op)?;
                }
            }
            if self.harvested + self.granted == before {
                break;
            }
        }
        let done = self.finished() && st.inflight.load(Ordering::Acquire) == 0;
        if done {
            stats.add(|c| &c.coll_rounds, self.rounds);
            if let Some(mr) = self.landing_mr.take() {
                rt.device().deregister_memory(&mr)?;
            }
        }
        Ok(done)
    }

    /// The first step: a receive is posted for each grant this rank
    /// waits for, the landing side is lent for the call to each peer that
    /// will put into it — and registered, once — and the arena fits the
    /// folds.
    fn start(&mut self, rt: &Runtime, st: &mut CollState, mem: &Scope<'_>) -> Result<()> {
        let dev = rt.device();
        for p in 0..self.peers.len() {
            if self.peers[p].puts_out {
                // SAFETY: the inbox is this receive's alone, the plan's
                // vectors do not move while it runs (only builds resize
                // them), and it is read only at the grant's harvest.
                let inbox = unsafe { mem.scratch(self.inbox[p].as_mut_ptr(), GRANT_LEN) };
                post_recv(rt, st, p, inbox, self.grant_tag, GRANT_CTX | p as u64)?;
            }
            if self.peers[p].puts_in > 0 {
                // SAFETY: the peer writes only the ranges its puts name,
                // each between the put's post and its harvest — or, on a
                // direct schedule, reads and writes only its own slice,
                // from this grant to its signal — and the builder's
                // schedule keeps every other touch of such a range outside
                // that interval (its doc; checked by `tests::model`;
                // DESIGN.md §4.11 "Lending", grants).
                let (ptr, len) = unsafe { mem.grant() };
                if self.landing_mr.is_none() {
                    self.landing_mr = Some(grant::register(dev, ptr, len)?);
                }
            }
        }
        st.arena.fit(dev, self.arena_len)?;
        self.granting = Some(0);
        Ok(())
    }

    /// Posts the grants not out yet, until the wire says `Retry`.
    fn send_grants(&mut self, rt: &Runtime, st: &CollState) -> Result<()> {
        let Some(mut p) = self.granting else { return Ok(()) };
        let land = self.landing_mr.map_or(Rkey::default(), |mr| mr.rkey);
        while p < self.peers.len() {
            if self.peers[p].puts_in > 0 {
                let bytes = self.grant(p, land, st.arena.rkey(), st.rcomp).encode();
                if post(rt, st, p, SendBuf::from(&bytes[..]), self.grant_tag, None)?.is_retry() {
                    break;
                }
            }
            p += 1;
        }
        self.granting = Some(p);
        Ok(())
    }

    /// Harvests receive `i`: a two-sided arrival (`got`) is checked and
    /// its landing returned, a put's share of its peer's grant; a `Fold`
    /// piece is folded from its slot; what waited on it opens.
    fn take<O: ReduceOp + ?Sized>(
        &mut self,
        i: usize,
        got: Option<&CompDesc>,
        st: &CollState,
        mem: &Scope<'_>,
        op: &O,
    ) -> Result<()> {
        let r = self.recvs[i];
        match got {
            Some(desc) => mem.landed(desc, r.len)?,
            None => {
                let p = &mut self.peers[r.from];
                p.puts_in -= 1;
                if p.puts_in == 0 {
                    mem.ungrant();
                }
            }
        }
        if r.how == How::Fold {
            // SAFETY: the builder's schedule has no send of this range in
            // flight and no landing over it whose bytes can arrive (its
            // doc; checked by `tests::model`; DESIGN.md §4.11 "Lending").
            let acc = unsafe { mem.window(r.off..r.off + r.len) };
            // SAFETY: the piece signalled, so its slot is written, and no
            // other piece of the call lands there.
            op.fold(acc, unsafe { st.arena.slot(self.slot(&r), r.len) });
        }
        self.harvest(i);
        Ok(())
    }
}

/// Posts one receive into lent memory on the state's queue; an
/// immediate match joins the queue, one stream for the stepper.
fn post_recv(rt: &Runtime, st: &CollState, from: Rank, at: Lent, tag: Tag, ctx: u64) -> Result<()> {
    let res = rt
        .post_comm_x(Direction::In, from)
        .landing(Landing::Lent(at))
        .tag(tag)
        .comp(st.recv_cq.clone())
        .user_ctx(ctx)
        .call()?;
    if let PostResult::Done(d) = res {
        st.recv_cq.signal(d);
    }
    Ok(())
}

/// Posts one send — a grant, or a piece two-sided or, with `put`, into
/// the peer's granted memory with a signal to its queue — counted in the
/// window until it completes (an eager send completes at the post).
fn post(
    rt: &Runtime,
    st: &CollState,
    to: Rank,
    buf: SendBuf,
    tag: Tag,
    put: Option<((Rkey, usize), RComp)>,
) -> Result<PostResult> {
    st.inflight.fetch_add(1, Ordering::AcqRel);
    // Collectives batch at chunk granularity themselves, and "window
    // empty" must mean "bytes on the wire": a coalesced send completes
    // with its frame still buffered, which would let the last rank out
    // strand it. Opt out.
    let mut x = rt.post_send_x(to, buf, tag, st.send_comp.clone()).allow_coalescing(false);
    if let Some(((rkey, off), rcomp)) = put {
        x = x.remote_buf(rkey, off).remote_comp(rcomp);
    }
    let res = x.call()?;
    if !matches!(res, PostResult::Posted) {
        // `Done` never signals the handler and `Retry` posted nothing:
        // back the window slot out here.
        st.inflight.fetch_sub(1, Ordering::AcqRel);
    }
    Ok(res)
}

// ---------------------------------------------------------------------
// The schedules (the direct one in `direct`)
// ---------------------------------------------------------------------

/// What every schedule is a function of besides its sizes and tags: the
/// world's size, this rank, the piece size — `coll_chunk_size`, or the
/// wire's largest write if that is smaller — which both sides of a
/// chunked exchange cut by, and the eager size, above which a piece is a
/// put. The last two must match across ranks.
#[derive(Clone, Copy)]
pub(super) struct Shape {
    pub n: usize,
    pub me: usize,
    pub chunk: usize,
    pub eager: usize,
}

impl Shape {
    pub(super) fn of(rt: &Runtime) -> Shape {
        let cfg = rt.config();
        let chunk = cfg.coll_chunk_size.min(cfg.device.backend.max_write());
        Shape { n: rt.rank_n(), me: rt.rank_me(), chunk, eager: cfg.packet.payload_size }
    }

    /// Pieces in `len` bytes: the tag run of a round that streams them.
    pub(super) fn span(self, len: usize) -> usize {
        len.div_ceil(self.chunk)
    }
}

/// `(offset, length)` of each `chunk`-byte piece of `len` bytes at `base`.
fn pieces(base: usize, len: usize, chunk: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len).step_by(chunk).map(move |o| (base + o, chunk.min(len - o)))
}

/// `(offset, length)` of block `b` of `len` bytes of `elem`-byte lanes
/// cut `n` ways: elements `[b·q + min(b, r), +q + (b < r))` — near-equal,
/// and empty past `nelems` when `nelems < n`.
fn block(n: usize, len: usize, elem: usize, b: usize) -> (usize, usize) {
    let (q, r) = (len / elem / n, len / elem % n);
    ((b * q + b.min(r)) * elem, (q + usize::from(b < r)) * elem)
}

/// Round codes a piece may use: every one below [`ROUND_GRANT`].
const PIECE_ROUNDS: usize = ROUND_GRANT as usize;

/// Chunks in the ring's longest block (block 0, on every rank alike).
fn ring_chunks(w: Shape, len: usize, elem: usize) -> usize {
    ((len / elem).div_ceil(w.n) * elem).div_ceil((w.chunk / elem).max(1) * elem)
}

/// The tag run [`ring`] needs: its longest block's chunks once per lap
/// of [`PIECE_ROUNDS`] rounds (one lap up to 256 ranks).
pub(super) fn ring_span(w: Shape, len: usize, elem: usize) -> usize {
    ring_chunks(w, len, elem) * (2 * (w.n - 1)).div_ceil(PIECE_ROUNDS)
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
/// earlier waits in the unexpected queue (or, a put, in `early`) and
/// still lands where posted.
///
/// **Tags.** Chunk `c` of round `t` is `(seq + ⌊t / 511⌋·k + c, t mod
/// 511)`, `k` the longest block's chunks: past 256 ranks the rounds
/// outnumber the piece round codes, and each later lap of 511 takes the
/// next `k` of the run ([`ring_span`]). No piece uses [`ROUND_GRANT`].
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
/// was popped. A landing may be *posted* — or granted, for the whole
/// call — over a range that is still being sent (`n = 2` posts both
/// rounds up front) or even folded (the two-round lookahead can open
/// round `t+n` early): posting hands over an address and touches
/// nothing — what the chain bounds is when the bytes can arrive. A fold
/// arrives in its own arena slot, so folds never touch each other.
pub(super) fn ring(plan: &mut Plan, w: Shape, len: usize, elem: usize, tags: Tags) {
    let Shape { n, me, chunk, .. } = w;
    let (left, right, rounds) = ((me + n - 1) % n, (me + 1) % n, 2 * (n - 1));
    let lap = ring_chunks(w, len, elem);
    let tag = |t: usize, c| tags.piece((t % PIECE_ROUNDS) as u32, t / PIECE_ROUNDS * lap + c);
    // Whole lanes per chunk, so a fold never splits one.
    let chunk = (chunk / elem).max(1) * elem;
    let block = |b: usize| {
        let (off, len) = block(n, len, elem, b);
        pieces(off, len, chunk).enumerate()
    };
    plan.clear(w, tags);
    // Round `t` sends block `(me − t) mod n` and receives `(me − t − 1)
    // mod n`: each receive is the next round's send, and the right
    // neighbour folds what it receives in rounds `< n−1`.
    let send = |plan: &mut Plan, t: usize, c: usize, piece: (usize, usize)| {
        if t < n - 1 {
            plan.send_fold(right, piece, tag(t, c), piece.0)
        } else {
            plan.send_land(right, piece, tag(t, c), piece.0)
        }
    };
    for (c, piece) in block(me) {
        send(plan, 0, c, piece);
    }
    let seeds = plan.sends.len();
    // Receives in rounds `≤ t−1` and `≤ t−2`; rounds with any.
    let (mut through_1, mut through_2, mut live) = (0, 0, 0);
    for t in 0..rounds {
        for (c, piece) in block((me + 2 * n - t - 1) % n) {
            let how = if t < n - 1 { How::Fold } else { How::Land };
            let mut enables = (0, 0);
            if t + 1 < rounds {
                let j = send(plan, t + 1, c, piece);
                enables = (j, j + 1);
            }
            plan.recv(how, left, piece, tag(t, c), through_2, enables);
        }
        live += u64::from(plan.recvs.len() > through_1);
        (through_2, through_1) = (through_1, plan.recvs.len());
    }
    plan.seal(seeds, live);
}

/// Bruck allgather of `block`-byte contributions in `⌈log₂ n⌉` rounds:
/// after round `k` every rank holds `2^k` blocks (its own plus the next
/// `2^k − 1` ranks'), kept rotated so each round sends one contiguous
/// prefix; the caller's final rotation restores rank order. The buffer
/// is the output with this rank's block already at its front. A round
/// travels as `chunk` pieces under tags `(seq + c, ROUND_AG_BASE + k)`;
/// each receive opens once every earlier one is in, and the last of a
/// round enables the next round's sends. A round's send reads the prefix
/// while its arrival lands behind it: round `k` sends `[0, cnt·block)`
/// with `cnt ≤ have`, and every landing of that or a later round starts
/// at or past `have·block`, so nothing in flight is ever written.
pub(super) fn allgather(plan: &mut Plan, w: Shape, block: usize, tags: Tags) {
    let Shape { n, me, chunk, .. } = w;
    plan.clear(w, tags);
    let (mut have, mut k, mut seeds) = (1, 0, None);
    while have < n {
        let (cnt, at, first) = (have.min(n - have), have * block, plan.sends.len());
        let tag = |c| tags.piece(ROUND_AG_BASE + k, c);
        for (c, piece) in pieces(0, cnt * block, chunk).enumerate() {
            plan.send_land((me + n - have) % n, piece, tag(c), at + piece.0);
        }
        if let Some(last) = plan.recvs.last_mut() {
            last.enables = (first, plan.sends.len());
        }
        seeds.get_or_insert(plan.sends.len());
        for (c, piece) in pieces(at, cnt * block, chunk).enumerate() {
            let opens_at = plan.recvs.len();
            plan.recv(How::Land, (me + have) % n, piece, tag(c), opens_at, (0, 0));
        }
        have += cnt;
        k += 1;
    }
    plan.seal(seeds.unwrap_or(0), k as u64);
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
    plan.clear(w, tags);
    let mut k = 0;
    while 1 << k < n {
        let (dist, tag, at) = (1 << k, tags.piece(k as u32, 0), BARRIER_SCRATCH / 2 + k);
        plan.send_land((me + dist) % n, (k, 1), tag, at);
        let enables = if dist * 2 < n { (k + 1, k + 2) } else { (0, 0) };
        plan.recv(How::Land, (me + n - dist) % n, (at, 1), tag, k, enables);
        k += 1;
    }
    plan.seal(1, k as u64);
}

/// Sequence numbers one `alltoallv` reserves: a constant, as no rank
/// knows the whole count matrix. With the 511 piece round codes a pair
/// has `64 · 511 = 32 704` piece tags — a 2 GiB block at the default
/// chunk size — before they repeat.
pub(super) const V_SPAN: usize = 64;

/// Sparse largest-first `alltoallv` (DESIGN.md §4.13). A zero-byte pair
/// posts *nothing* either way. A block is cut into `chunk` pieces, piece
/// `c` of any pair tagged `(seq + c / 511, c mod 511)` — every round
/// code but [`ROUND_GRANT`]. Every receive is open, straight into the
/// piece's own range of the receive buffer (the pieces tile it without
/// overlap; a peer's base is the receive displacement of its block), so
/// the exchange is deadlock-free under any send order; every send is a
/// seed, **largest block first** (the straggler that bounds the critical
/// path departs first and overlaps every smaller block behind it), ties
/// broken by rank-rotated distance `(peer − me − 1) mod n` so uniform
/// schedules keep the classic rotation. Sends read one buffer and
/// receives write the other.
pub(super) fn alltoallv(
    plan: &mut Plan,
    w: Shape,
    send_counts: &[usize],
    recv_counts: &[usize],
    tags: Tags,
) {
    let Shape { n, me, chunk, .. } = w;
    let tag = |c: usize| tags.piece((c % PIECE_ROUNDS) as u32, c / PIECE_ROUNDS);
    plan.clear(w, tags);
    let (mut soff, mut roff) = (0, 0);
    for peer in 0..n {
        if peer != me {
            for (c, piece) in pieces(soff, send_counts[peer], chunk).enumerate() {
                plan.send_land(peer, piece, tag(c), piece.0 - soff);
            }
            plan.peers[peer].land_base = roff;
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

mod direct;
pub(super) use direct::{addresses_every_rank, direct, Scratch};

/// The schedule model check (its module docs).
#[cfg(test)]
mod tests;
