//! The framed-wire device core (DESIGN.md §4.9): one [`NetDevice`] for
//! every transport that moves [`FrameHeader`] + payload frames between
//! ranks — the shm rings and the tcp streams today.
//!
//! [`FramedDevice`] owns everything about *frames and devices*: the QP
//! posting locks and their discipline, the peer-readiness check, the one
//! place each frame header is built, completion staging and the shared
//! receive queue ([`DevShared`]), the per-rank device registry and
//! pending-read table ([`RankCore`]), and the **single** inbound router
//! ([`FramedDevice::route_frame`]). A transport implements [`Wire`] —
//! only what is about *bytes moving*: peer liveness, a locked sender
//! that accepts frames, a drain that hands inbound frames back, pending
//! counts, counters and a final flush.

use crate::backend::{
    deliver_bytes, deliver_into, DeviceConfig, NetDevice, SendDesc, TdStrategy, TransportStats,
};
use crate::buf_pool::{BufPool, BufPoolStats, PoolBuf};
use crate::fabric::{Fabric, RxEndpoint};
use crate::mem::{MemoryRegion, Rkey};
use crate::reg_cache::{RegCache, RegCacheStats};
use crate::shm::ring::{
    FrameHeader, FLAG_HAS_IMM, KIND_READ_REQ, KIND_READ_RESP, KIND_SEND, KIND_WRITE,
};
use crate::sync::{Doorbell, LockDiscipline, MpmcArray, SpinGuard, SpinLock};
use crate::types::{
    Cqe, CqeKind, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason, WireMsg, WireMsgKind,
    WirePayload,
};
use crossbeam::queue::ArrayQueue;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Capacity of the pending-read table (outstanding `post_read`s per
/// rank). Preallocated so the read path makes no steady-state
/// allocations.
const READ_TABLE_CAP: usize = 1024;

/// The per-target posting locks of one device (paper §4.2.3). The lock
/// itself *is* the modelled resource (the QP spinlock + uUAR doorbell
/// serialization); nothing sits behind it.
pub(crate) struct QpLocks {
    /// One entry per target rank; entries alias the same lock under
    /// `AllQp` and `None`.
    locks: Vec<Arc<SpinLock<()>>>,
    /// Under `TdStrategy::None` the lock is the provider's own, which
    /// LCI cannot trylock-wrap: blocking whatever the device discipline.
    discipline: LockDiscipline,
}

impl QpLocks {
    pub(crate) fn new(td: TdStrategy, discipline: LockDiscipline, nranks: usize) -> QpLocks {
        let (locks, discipline) = match td {
            TdStrategy::PerQp => {
                ((0..nranks).map(|_| Arc::new(SpinLock::new(()))).collect(), discipline)
            }
            TdStrategy::AllQp | TdStrategy::None => {
                let shared = Arc::new(SpinLock::new(()));
                let how =
                    if td == TdStrategy::None { LockDiscipline::Blocking } else { discipline };
                ((0..nranks).map(|_| shared.clone()).collect(), how)
            }
        };
        QpLocks { locks, discipline }
    }

    /// Acquires the QP lock for `target` per the effective discipline.
    #[inline]
    pub(crate) fn lock(&self, target: Rank) -> NetResult<SpinGuard<'_, ()>> {
        let lock = self
            .locks
            .get(target)
            .ok_or_else(|| NetError::fatal(format!("target rank {target} out of range")))?;
        self.discipline.acquire(lock).ok_or(NetError::Retry(RetryReason::LockBusy))
    }
}

/// Completion and receive state of one device (the ibv-like sim and the
/// framed wires). Shared with the rank state so a wire drain running on
/// a *sibling* device's poll can stage `ReadDone` CQEs and ring the
/// doorbell of the posting device.
pub(crate) struct DevShared {
    dev_id: DevId,
    /// CQEs written by the "NIC" (lock-free staging, like DMA'd CQEs).
    /// A fixed ring, as on real hardware: sized at creation, never
    /// allocating on the post path. A full ring bounds the number of
    /// unpolled local completions (send-queue depth) and surfaces as
    /// `Retry(QueueFull)`.
    cq_staging: ArrayQueue<Cqe>,
    /// The polled CQ; its lock models the `ibv_poll_cq` spinlock.
    cq: SpinLock<VecDeque<Cqe>>,
    bell: Arc<Doorbell>,
    /// Wire messages routed to this device that could not be delivered
    /// at drain time (no posted receive, or drained by a sibling).
    rx: Arc<RxEndpoint>,
    srq: SpinLock<VecDeque<RecvBufDesc>>,
    posted_recvs: AtomicUsize,
    discipline: LockDiscipline,
}

impl DevShared {
    pub(crate) fn new(
        dev_id: DevId,
        rx: Arc<RxEndpoint>,
        bell: Arc<Doorbell>,
        cfg: &DeviceConfig,
    ) -> DevShared {
        DevShared {
            dev_id,
            cq_staging: ArrayQueue::new((cfg.rx_capacity * 2).max(256)),
            cq: SpinLock::new(VecDeque::new()),
            bell,
            rx,
            srq: SpinLock::new(VecDeque::new()),
            posted_recvs: AtomicUsize::new(0),
            discipline: cfg.discipline,
        }
    }

    pub(crate) fn bell(&self) -> &Arc<Doorbell> {
        &self.bell
    }

    /// Whether a post must back off because its completion could not be
    /// staged lock-free.
    pub(crate) fn staging_full(&self) -> bool {
        self.cq_staging.is_full()
    }

    /// Wire messages parked in the RX endpoint (racy snapshot).
    pub(crate) fn rx_occupancy(&self) -> usize {
        self.rx.occupancy()
    }

    pub(crate) fn posted_recvs(&self) -> usize {
        self.posted_recvs.load(Ordering::Acquire)
    }

    /// Staging ring first, polled CQ as spillover, never dropped; ring
    /// the bell either way. The spillover moves everything staged so far
    /// into the CQ ahead of `cqe`: one thread's completions (a drain's
    /// `RecvDone`s) are polled in the order it staged them even when the
    /// ring fills halfway through.
    pub(crate) fn stage_cqe(&self, cqe: Cqe) {
        if let Err(cqe) = self.cq_staging.push(cqe) {
            let mut cq = self.cq.lock();
            while let Some(staged) = self.cq_staging.pop() {
                cq.push_back(staged);
            }
            cq.push_back(cqe);
        }
        self.bell.ring();
    }

    /// Appends to the shared receive queue under one lock acquisition
    /// and wakes the progress thread when `wire_pending` or the RX
    /// endpoint says a fresh receive can unpark something (delivery
    /// happens in `poll_cq`).
    pub(crate) fn post_recvs(
        &self,
        descs: &[RecvBufDesc],
        wire_pending: usize,
    ) -> NetResult<usize> {
        let mut srq =
            self.discipline.acquire(&self.srq).ok_or(NetError::Retry(RetryReason::LockBusy))?;
        srq.extend(descs.iter().copied());
        self.posted_recvs.fetch_add(descs.len(), Ordering::AcqRel);
        drop(srq);
        if !descs.is_empty() && (self.rx.occupancy() > 0 || wire_pending > 0) {
            self.bell.ring();
        }
        Ok(descs.len())
    }

    /// Delivers a `KIND_SEND` frame straight from the wire's buffer (a
    /// ring slot, a spill range, a decode buffer) into the next posted
    /// receive and stages its `RecvDone` — the frame never becomes a
    /// [`WireMsg`]. Returns `false`, touching nothing, when the frame
    /// must take the RX endpoint instead: earlier messages still wait
    /// there (they must complete first), no receive is posted (RNR), or
    /// the staging ring is full (it is sized for the posts' local
    /// completions, which must not be refused because a drain filled
    /// it).
    ///
    /// Only this device's own poll may call it, and only while holding
    /// the drain lock of `src`'s channel: then no frame of `src` can
    /// enter the RX endpoint between the check and the delivery, and the
    /// CQE is staged behind every completion this device produced
    /// earlier, for the poll in progress (or, if that loses the CQ lock,
    /// the one that holds it) to pick up.
    fn deliver_send(&self, src: Rank, h: &FrameHeader, payload: &[u8]) -> NetResult<bool> {
        if self.rx.occupancy() > 0 || self.staging_full() {
            return Ok(false);
        }
        let Some(desc) = self.next_recv() else { return Ok(false) };
        self.posted_recvs.fetch_sub(1, Ordering::AcqRel);
        let cqe = deliver_bytes(payload, &desc, src, h.src_dev as DevId, h.imm)?;
        self.stage_cqe(cqe);
        Ok(true)
    }

    /// Takes the oldest posted receive; `None` when there is none or the
    /// SRQ lock is busy under the trylock discipline.
    fn next_recv(&self) -> Option<RecvBufDesc> {
        self.discipline.acquire(&self.srq)?.pop_front()
    }

    /// Matches parked wire messages against posted receives. The
    /// descriptor is taken *before* the wire message is popped so the RX
    /// ring stays strictly FIFO: when no receive is posted (RNR) the
    /// message simply stays on the wire, like an RC transport
    /// retransmitting in order. Popping first and re-queueing at the
    /// back would let later messages overtake — a deadlock source when
    /// the overtaken message is the one the receiver is waiting on.
    fn deliver_inbound(&self, cq: &mut VecDeque<Cqe>, budget: usize) -> NetResult<()> {
        for _ in 0..budget {
            let Some(desc) = self.next_recv() else { break };
            let Some(msg) = self.rx.pop() else {
                // Nothing inbound: hand the receive back, at the front
                // (it is the oldest posted one) unless the SRQ is
                // briefly contended — receive order within an SRQ is
                // not meaningful.
                if let Some(mut srq) = self.discipline.acquire(&self.srq) {
                    srq.push_front(desc);
                } else {
                    self.srq.lock().push_back(desc);
                }
                break;
            };
            self.posted_recvs.fetch_sub(1, Ordering::AcqRel);
            let cqe = deliver_into(&msg, &desc)?;
            cq.push_back(cqe);
        }
        Ok(())
    }

    /// `poll_cq` once the wire (if any) has been drained: collects
    /// staged completions, delivers up to `budget` parked messages and
    /// hands out up to `max` CQEs.
    pub(crate) fn poll(&self, out: &mut Vec<Cqe>, max: usize, budget: usize) -> NetResult<usize> {
        let mut cq =
            self.discipline.acquire(&self.cq).ok_or(NetError::Retry(RetryReason::LockBusy))?;
        while let Some(cqe) = self.cq_staging.pop() {
            cq.push_back(cqe);
        }
        self.deliver_inbound(&mut cq, budget)?;
        let n = max.min(cq.len());
        out.extend(cq.drain(..n));
        Ok(n)
    }

    /// Closes the RX endpoint (parked wire messages are dropped with it;
    /// their payloads were staged copies) and hands back every
    /// undelivered completion and every still-posted receive.
    pub(crate) fn teardown(&self) -> (Vec<Cqe>, Vec<RecvBufDesc>) {
        self.rx.close();
        let mut cqes = Vec::new();
        while let Some(c) = self.cq_staging.pop() {
            cqes.push(c);
        }
        cqes.extend(self.cq.lock().drain(..));
        let descs = self.srq.lock().drain(..).collect();
        self.posted_recvs.store(0, Ordering::Release);
        (cqes, descs)
    }
}

struct PendingRead {
    desc: RecvBufDesc,
    dev: DevId,
}

/// Fixed-capacity slab of pending reads with an intrusive free list:
/// no allocations after construction.
struct ReadTable {
    slots: Vec<Option<PendingRead>>,
    free: Vec<u32>,
}

impl ReadTable {
    fn new() -> ReadTable {
        ReadTable {
            slots: (0..READ_TABLE_CAP).map(|_| None).collect(),
            free: (0..READ_TABLE_CAP as u32).rev().collect(),
        }
    }

    fn alloc(&mut self, pr: PendingRead) -> Option<u32> {
        let id = self.free.pop()?;
        self.slots[id as usize] = Some(pr);
        Some(id)
    }

    fn take(&mut self, id: u32) -> Option<PendingRead> {
        let pr = self.slots.get_mut(id as usize)?.take()?;
        self.free.push(id);
        Some(pr)
    }

    /// Removes and returns the landing buffer of every pending read
    /// posted by `dev` (teardown path; not steady state).
    fn drain_dev(&mut self, dev: DevId) -> Vec<RecvBufDesc> {
        let mut out = Vec::new();
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|p| p.dev == dev) {
                out.push(slot.take().expect("checked Some").desc);
                self.free.push(id as u32);
            }
        }
        out
    }
}

/// What the framed devices of one rank share, whatever the wire; each
/// wire's rank state embeds one.
pub(crate) struct RankCore {
    /// Local devices on this rank (append-only registry), used to ring
    /// doorbells and to route `ReadDone` completions.
    devs: MpmcArray<Arc<DevShared>>,
    /// Outstanding `post_read`s awaiting a `READ_RESP` frame.
    reads: SpinLock<ReadTable>,
    /// Times the wire's bridge thread woke this rank's doorbells on
    /// behalf of another process.
    cross_wakes: AtomicU64,
}

impl RankCore {
    pub(crate) fn new() -> RankCore {
        RankCore {
            devs: MpmcArray::with_capacity(4),
            reads: SpinLock::new(ReadTable::new()),
            cross_wakes: AtomicU64::new(0),
        }
    }

    fn dev_by_id(&self, dev: DevId) -> Option<Arc<DevShared>> {
        (0..self.devs.len()).filter_map(|i| self.devs.read(i)).find(|d| d.dev_id == dev)
    }

    /// Rings the doorbell of every framed device on this rank.
    pub(crate) fn ring_all_bells(&self) {
        for i in 0..self.devs.len() {
            if let Some(d) = self.devs.read(i) {
                d.bell.ring();
            }
        }
    }

    /// A wake that crossed a process boundary (futex or socket
    /// readiness), fanned out by the wire's bridge thread.
    pub(crate) fn bridge_wake(&self) {
        self.cross_wakes.fetch_add(1, Ordering::Relaxed);
        self.ring_all_bells();
    }
}

/// What a wire knows about the rank a post targets.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Peer {
    /// Hosted by this process: its device and registration tables are
    /// the fabric's own, so a post checks them itself.
    Local,
    /// Another process, attached and alive: its tables are unknowable
    /// here, the drain over there checks.
    Remote,
    /// Another process that has not attached yet.
    Absent,
    /// Exited or died.
    Gone,
}

/// An inbound frame's payload as the wire holds it.
pub(crate) enum InPayload<'a> {
    /// Bytes still in the wire's own storage (a ring slot, a spill
    /// range): staged only if the frame must become a [`WireMsg`].
    Borrowed(&'a [u8]),
    /// A pooled buffer the wire decoded the payload into: a routed send
    /// takes the buffer over, and gives it back if the frame parks.
    Pooled(&'a mut PoolBuf),
}

impl InPayload<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            InPayload::Borrowed(b) => b,
            InPayload::Pooled(b) => b,
        }
    }

    /// The payload of the [`WireMsg`] the frame becomes: a pooled copy of
    /// borrowed bytes, or the decoded buffer itself.
    fn stage(&mut self, pool: &BufPool) -> WirePayload {
        match self {
            InPayload::Borrowed(b) => pool.stage(b),
            InPayload::Pooled(b) => {
                WirePayload::Heap(std::mem::replace(*b, PoolBuf::detached(Vec::new())))
            }
        }
    }

    /// Undoes [`stage`](Self::stage) for a frame that parks: the
    /// wire keeps the decoded buffer, so a later attempt stages nothing.
    fn restore(&mut self, staged: WirePayload) {
        if let (InPayload::Pooled(b), WirePayload::Heap(buf)) = (self, staged) {
            **b = buf;
        }
    }
}

/// Outcome of routing one inbound frame.
pub(crate) enum Routed {
    /// Frame fully applied; the wire releases it.
    Done,
    /// Frame cannot be applied yet (RX full, device absent, response
    /// path busy): the wire leaves it at its head — strict FIFO, like
    /// RNR. The reason is what a self-target post reports as `Retry`.
    Parked(RetryReason),
}

/// What a transport provides under [`FramedDevice`]: bytes moving, and
/// nothing about devices, completions or frame kinds (DESIGN.md §4.9
/// has the per-wire table and the recipe for adding one).
pub(crate) trait Wire: Send + Sync + Sized + 'static {
    /// Transport name, for fatal messages.
    const NAME: &'static str;
    /// Whether a frame for this rank itself travels the wire like any
    /// other. Without a self channel the core applies such a frame
    /// through its router directly.
    const SELF_CHANNEL: bool;
    /// A locked sender toward one peer; frames sent through it leave in
    /// order.
    type Tx<'a>
    where
        Self: 'a;

    /// Attaches `rank`'s side of the wire. `pool` is the device's
    /// staging pool, for wires that encode or decode through buffers.
    fn open(fabric: &Fabric, rank: Rank, pool: &BufPool) -> Self;

    /// The rank-level state shared by every device on this wire.
    fn core(&self) -> &RankCore;

    /// Liveness and locality of `target` (in range).
    fn peer(&self, target: Rank) -> Peer;

    /// Locks the sender toward `target` per `how`; a busy lock under
    /// try-lock is `Retry(LockBusy)`.
    fn lock_tx(&self, target: Rank, how: LockDiscipline) -> NetResult<Self::Tx<'_>>;

    /// Hands one frame to the wire. `Retry(RxFull)` when it has no room
    /// right now; fatal when the frame can never fit or the peer is
    /// gone.
    fn send(&self, tx: &mut Self::Tx<'_>, h: &FrameHeader, payload: &[u8]) -> NetResult<()>;

    /// Wakes `target`'s consumer after sends, with the sender unlocked.
    fn kick(&self, _target: Rank) {}

    /// Moves the wire forward and offers up to `budget` inbound frames
    /// per peer to `sink`, oldest first. A frame `sink` reports `Parked`
    /// stays at the wire's head and ends that peer's turn. A peer whose
    /// channel is busy under a sibling device's drain is skipped
    /// (try-lock), so pollers never wait for each other.
    fn drain(
        &self,
        budget: usize,
        sink: impl FnMut(Rank, &FrameHeader, InPayload<'_>) -> NetResult<Routed>,
    ) -> NetResult<()>;

    /// Inbound work that needs another poll, not a doorbell ring, to
    /// advance (racy snapshot).
    fn inbound_pending(&self) -> usize;

    /// Frames accepted by `send` but not yet on their way.
    fn outbound_pending(&self) -> usize {
        0
    }

    /// The wire's own counters.
    fn stats(&self) -> TransportStats;

    /// Best-effort push of everything `send` accepted (teardown).
    fn flush(&self) {}
}

/// Where a frame toward one target goes.
enum Route<'a, W: Wire> {
    /// This rank, on a wire without a self channel: through the router.
    Local,
    /// The wire's sender, plus the QP lock when a post opened it.
    Wire { tx: W::Tx<'a>, _qp: Option<SpinGuard<'a, ()>> },
}

/// The `NetDevice` of every framed wire: ibv-style lock structure (per-QP
/// posting locks, lock-free CQE staging, SRQ + CQ spinlocks, trylock
/// wrapper discipline) over a [`Wire`].
pub(crate) struct FramedDevice<W: Wire> {
    fabric: Arc<Fabric>,
    wire: W,
    rank: Rank,
    dev_id: DevId,
    cfg: DeviceConfig,
    qps: QpLocks,
    shared: Arc<DevShared>,
    reg_cache: RegCache,
    buf_pool: BufPool,
}

impl<W: Wire> FramedDevice<W> {
    /// Creates the device. Called by
    /// [`NetContext::create_device`](crate::backend::NetContext::create_device).
    pub(crate) fn new(
        fabric: Arc<Fabric>,
        rank: Rank,
        dev_id: DevId,
        rx: Arc<RxEndpoint>,
        bell: Arc<Doorbell>,
        cfg: DeviceConfig,
    ) -> Self {
        let buf_pool = BufPool::new(cfg.buf_pool);
        let wire = W::open(&fabric, rank, &buf_pool);
        let shared = Arc::new(DevShared::new(dev_id, rx, bell, &cfg));
        wire.core().devs.push(shared.clone());
        Self {
            qps: QpLocks::new(cfg.td_strategy, cfg.discipline, fabric.nranks()),
            fabric,
            wire,
            rank,
            dev_id,
            cfg,
            shared,
            reg_cache: RegCache::new(cfg.reg_cache),
            buf_pool,
        }
    }

    /// Peer-readiness check with the same surface as the sims: a target
    /// device this process can see must exist (`Retry(PeerNotReady)`
    /// otherwise); in another process the device table is unknowable, so
    /// only the wire's liveness counts — not attached yet retries, a
    /// cleanly-exited or dead peer is a fatal target.
    fn ready(&self, target: Rank, target_dev: DevId) -> NetResult<Peer> {
        if target >= self.fabric.nranks() {
            return Err(NetError::fatal(format!("target rank {target} out of range")));
        }
        let peer = self.wire.peer(target);
        match peer {
            Peer::Local => {
                self.fabric.endpoint(target, target_dev)?;
            }
            Peer::Remote => {}
            Peer::Absent => return Err(NetError::Retry(RetryReason::PeerNotReady)),
            Peer::Gone => {
                return Err(NetError::fatal(format!("{} peer rank {target} has exited", W::NAME)))
            }
        }
        Ok(peer)
    }

    /// The fields every frame this device builds has in common.
    fn header(&self, kind: u8, dst_dev: u32) -> FrameHeader {
        FrameHeader { kind, src_dev: self.dev_id as u32, dst_dev, ..FrameHeader::default() }
    }

    /// Opens the way toward `target`. A post takes the QP lock and the
    /// wire's sender per the device's discipline; the router's response
    /// to a read request runs inside a poll and shares the sender with
    /// local posters, so it only ever try-locks and takes no QP lock.
    ///
    /// `route_to`, `put` and `post_frame` are forced inline: left as a
    /// chain of calls handing `NetResult`s back, they cost a post 5-10 ns
    /// on shm and 10-15 ns on tcp (measured; a plain hint is declined).
    #[inline(always)]
    fn route_to(&self, target: Rank, post: bool) -> NetResult<Route<'_, W>> {
        if target == self.rank && !W::SELF_CHANNEL {
            return Ok(Route::Local);
        }
        let (qp, how) = if post {
            (Some(self.qps.lock(target)?), self.qps.discipline)
        } else {
            (None, LockDiscipline::TryLock)
        };
        Ok(Route::Wire { tx: self.wire.lock_tx(target, how)?, _qp: qp })
    }

    /// Moves one frame along `route`. On the local route a frame the
    /// router parks is refused with the reason it parked for, before the
    /// caller stages any completion.
    #[inline(always)]
    fn put(&self, route: &mut Route<'_, W>, h: &FrameHeader, payload: &[u8]) -> NetResult<()> {
        match route {
            Route::Wire { tx, .. } => self.wire.send(tx, h, payload),
            Route::Local => {
                match self.route_frame(self.rank, h, InPayload::Borrowed(payload), false)? {
                    Routed::Done => Ok(()),
                    Routed::Parked(why) => Err(NetError::Retry(why)),
                }
            }
        }
    }

    /// Posts a single frame and wakes the target.
    #[inline(always)]
    fn post_frame(&self, target: Rank, h: &FrameHeader, payload: &[u8]) -> NetResult<()> {
        let mut route = self.route_to(target, true)?;
        self.put(&mut route, h, payload)?;
        drop(route);
        self.wire.kick(target);
        Ok(())
    }

    /// Applies one frame on the consuming side — the only place frame
    /// kinds are told apart. `in_drain` says the frame comes from this
    /// device's own poll, under the wire's drain lock for `src`.
    ///
    /// Rkeys are validated here, in the process that owns the
    /// registration table — the producer cannot see it across a process
    /// boundary.
    fn route_frame(
        &self,
        src: Rank,
        h: &FrameHeader,
        mut payload: InPayload<'_>,
        in_drain: bool,
    ) -> NetResult<Routed> {
        match h.kind {
            KIND_SEND => {
                // Ours, nothing queued ahead of it and a receive posted:
                // wire buffer → posted buffer, no restaging. Anything
                // else (a sibling's frame, RNR) goes through the RX
                // endpoint.
                if in_drain
                    && h.dst_dev as DevId == self.dev_id
                    && self.shared.deliver_send(src, h, payload.bytes())?
                {
                    return Ok(Routed::Done);
                }
                self.push_msg(src, h, WireMsgKind::Send, Some(&mut payload))
            }
            KIND_WRITE => {
                let data = payload.bytes();
                let base =
                    self.fabric.mem().validate(Rkey(h.a as u32), h.b as usize, data.len())?;
                // SAFETY: `validate` bounds-checked against a live local
                // registration; the payload is contiguous wire bytes.
                unsafe {
                    std::ptr::copy_nonoverlapping(data.as_ptr(), base as *mut u8, data.len());
                }
                if h.flags & FLAG_HAS_IMM == 0 {
                    return Ok(Routed::Done);
                }
                // If the notification parks, the copy above is simply
                // redone with it: it is idempotent, and the target must
                // not read before the notification arrives.
                self.push_msg(src, h, WireMsgKind::WriteImm, None)
            }
            KIND_READ_REQ => {
                let len = h.imm as usize;
                let base = self.fabric.mem().validate(Rkey(h.a as u32), h.b as usize, len)?;
                // SAFETY: validated registered bytes, alive for the
                // duration of the registration.
                let data = unsafe { std::slice::from_raw_parts(base as *const u8, len) };
                let resp = FrameHeader { c: h.c, ..self.header(KIND_READ_RESP, h.src_dev) };
                let mut route = match self.route_to(src, false) {
                    Ok(route) => route,
                    Err(NetError::Retry(why)) => return Ok(Routed::Parked(why)),
                    Err(e) => return Err(e),
                };
                match self.put(&mut route, &resp, data) {
                    Ok(()) => {
                        drop(route);
                        self.wire.kick(src);
                        Ok(Routed::Done)
                    }
                    Err(NetError::Retry(why)) => Ok(Routed::Parked(why)),
                    // Requester died: nobody is waiting for the bytes.
                    Err(_) if self.wire.peer(src) == Peer::Gone => Ok(Routed::Done),
                    Err(e) => Err(e),
                }
            }
            KIND_READ_RESP => {
                let core = self.wire.core();
                let Some(PendingRead { desc, dev }) = core.reads.lock().take(h.c as u32) else {
                    return Err(NetError::fatal(format!(
                        "unknown {} read response id {}",
                        W::NAME,
                        h.c
                    )));
                };
                let data = payload.bytes();
                let n = data.len().min(desc.len);
                // SAFETY: the descriptor contract keeps `ptr..len` valid
                // until the ReadDone completion we are about to stage.
                unsafe {
                    std::ptr::copy_nonoverlapping(data.as_ptr(), desc.ptr, n);
                }
                if let Some(d) = core.dev_by_id(dev) {
                    let mut cqe = Cqe::local(CqeKind::ReadDone, desc.ctx);
                    cqe.len = n;
                    d.stage_cqe(cqe);
                }
                Ok(Routed::Done)
            }
            k => Err(NetError::fatal(format!("unknown {} frame kind {k}", W::NAME))),
        }
    }

    /// Queues frame `h` from `src` as a wire message on the RX endpoint
    /// of the local device it names, with `payload` as its bytes when
    /// given. A device not created yet or a full endpoint parks the
    /// frame; a closed one (device torn down) drops it, as teardown
    /// drops parked wire messages.
    fn push_msg(
        &self,
        src: Rank,
        h: &FrameHeader,
        kind: WireMsgKind,
        mut payload: Option<&mut InPayload<'_>>,
    ) -> NetResult<Routed> {
        let ep = match self.fabric.endpoint(self.rank, h.dst_dev as DevId) {
            Ok(ep) => ep,
            Err(NetError::Retry(why)) => return Ok(Routed::Parked(why)),
            Err(e) => return Err(e),
        };
        // Checked before staging so a frame waiting at a full endpoint
        // is not copied once per poll.
        if ep.is_full() {
            return Ok(Routed::Parked(RetryReason::RxFull));
        }
        let payload_bytes = match payload.as_mut() {
            Some(p) => p.stage(&self.buf_pool),
            None => WirePayload::None,
        };
        let msg = WireMsg {
            src_rank: src,
            src_dev: h.src_dev as DevId,
            imm: h.imm,
            kind,
            payload: payload_bytes,
        };
        match ep.try_push(msg) {
            Ok(()) => Ok(Routed::Done),
            Err((NetError::Retry(why), msg)) => {
                if let Some(p) = payload {
                    p.restore(msg.payload);
                }
                Ok(Routed::Parked(why))
            }
            Err((NetError::Fatal(_), _)) => Ok(Routed::Done),
        }
    }
}

impl<W: Wire> NetDevice for FramedDevice<W> {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn dev_id(&self) -> DevId {
        self.dev_id
    }

    fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    fn post_send(
        &self,
        target: Rank,
        target_dev: DevId,
        data: &[u8],
        imm: u64,
        ctx: u64,
    ) -> NetResult<()> {
        // Not a one-message batch: the batch's slice walk and partial-
        // progress bookkeeping cost ~9 ns a message here (measured).
        self.ready(target, target_dev)?;
        if self.shared.staging_full() {
            return Err(NetError::Retry(RetryReason::QueueFull));
        }
        let h = FrameHeader { imm, ..self.header(KIND_SEND, target_dev as u32) };
        self.post_frame(target, &h, data)?;
        self.shared.stage_cqe(Cqe::local(CqeKind::SendDone, ctx));
        Ok(())
    }

    fn post_send_batch(
        &self,
        target: Rank,
        target_dev: DevId,
        msgs: &[SendDesc<'_>],
    ) -> NetResult<usize> {
        self.ready(target, target_dev)?;
        if self.shared.staging_full() {
            return Err(NetError::Retry(RetryReason::QueueFull));
        }
        // One QP + sender lock acquisition covers the whole batch.
        let mut route = self.route_to(target, true)?;
        let mut posted = 0;
        for m in msgs {
            let h = FrameHeader { imm: m.imm, ..self.header(KIND_SEND, target_dev as u32) };
            match self.put(&mut route, &h, m.data) {
                Ok(()) => posted += 1,
                Err(e) if posted == 0 => return Err(e),
                Err(_) => break, // wire full mid-batch: partial progress
            }
        }
        drop(route);
        self.wire.kick(target);
        for m in &msgs[..posted] {
            self.shared.stage_cqe(Cqe::local(CqeKind::SendDone, m.ctx));
        }
        Ok(posted)
    }

    fn post_recv(&self, desc: RecvBufDesc) -> NetResult<()> {
        self.post_recv_batch(&[desc]).map(|_| ())
    }

    fn post_recv_batch(&self, descs: &[RecvBufDesc]) -> NetResult<usize> {
        self.shared.post_recvs(descs, self.wire.inbound_pending())
    }

    fn poll_cq(&self, out: &mut Vec<Cqe>, max: usize) -> NetResult<usize> {
        let budget = max.max(self.cfg.cq_drain_batch);
        // Drain the wire *before* the poll takes our CQ lock: the router
        // stages CQEs (RecvDone, ReadDone) onto this very device, and
        // `stage_cqe`'s overflow path locks the polled CQ.
        self.wire.drain(budget, |src, h, payload| self.route_frame(src, h, payload, true))?;
        self.shared.poll(out, max, budget)
    }

    fn post_write(
        &self,
        target: Rank,
        target_dev: DevId,
        data: &[u8],
        rkey: Rkey,
        offset: usize,
        imm: Option<u64>,
        ctx: u64,
    ) -> NetResult<()> {
        if self.ready(target, target_dev)? == Peer::Local {
            // In-process the registration table is shared: validate at
            // post time, same fatal surface as the sims. Cross-process
            // the rkey belongs to the target's table; the drain there
            // validates.
            self.fabric.mem().validate(rkey, offset, data.len())?;
        }
        let h = FrameHeader {
            flags: if imm.is_some() { FLAG_HAS_IMM } else { 0 },
            imm: imm.unwrap_or(0),
            a: rkey.0 as u64,
            b: offset as u64,
            ..self.header(KIND_WRITE, target_dev as u32)
        };
        self.post_frame(target, &h, data)?;
        self.shared.stage_cqe(Cqe::local(CqeKind::WriteDone, ctx));
        Ok(())
    }

    fn post_read(
        &self,
        target: Rank,
        local: RecvBufDesc,
        rkey: Rkey,
        offset: usize,
    ) -> NetResult<()> {
        if self.ready(target, self.dev_id)? == Peer::Local {
            self.fabric.mem().validate(rkey, offset, local.len)?;
        }
        let reads = &self.wire.core().reads;
        let req_id = reads
            .lock()
            .alloc(PendingRead { desc: local, dev: self.dev_id })
            .ok_or(NetError::Retry(RetryReason::QueueFull))?;
        let h = FrameHeader {
            imm: local.len as u64,
            a: rkey.0 as u64,
            b: offset as u64,
            c: req_id as u64,
            ..self.header(KIND_READ_REQ, 0)
        };
        self.post_frame(target, &h, &[]).inspect_err(|_| {
            // Back the pending slot out; the descriptor was never
            // exposed to a peer.
            reads.lock().take(req_id);
        })
    }

    fn register(&self, ptr: *const u8, len: usize) -> NetResult<MemoryRegion> {
        Ok(self.reg_cache.register(self.fabric.mem(), self.rank, ptr, len))
    }

    fn deregister(&self, mr: &MemoryRegion) -> NetResult<()> {
        self.reg_cache.release(self.fabric.mem(), mr);
        Ok(())
    }

    fn reg_cache_stats(&self) -> RegCacheStats {
        self.reg_cache.stats()
    }

    fn buf_pool(&self) -> Option<BufPool> {
        Some(self.buf_pool.clone())
    }

    fn buf_pool_stats(&self) -> BufPoolStats {
        self.buf_pool.stats()
    }

    fn posted_recvs(&self) -> usize {
        self.shared.posted_recvs()
    }

    fn doorbell(&self) -> Option<Arc<Doorbell>> {
        Some(self.shared.bell().clone())
    }

    fn inbound_pending(&self) -> usize {
        // Undrained wire frames count too: a parked progress engine
        // must not sleep while frames wait for a route or a flush.
        self.shared.rx_occupancy() + self.wire.inbound_pending()
    }

    fn outbound_pending(&self) -> usize {
        self.wire.outbound_pending()
    }

    fn transport_stats(&self) -> TransportStats {
        TransportStats {
            doorbell_cross_proc_wakes: self.wire.core().cross_wakes.load(Ordering::Relaxed),
            ..self.wire.stats()
        }
    }

    fn teardown(&self) -> (Vec<Cqe>, Vec<RecvBufDesc>) {
        // Peers should see our final frames before the wire closes with
        // this process.
        self.wire.flush();
        let (cqes, mut descs) = self.shared.teardown();
        // Reads this device posted that will never complete hand their
        // landing buffers back too.
        descs.extend(self.wire.core().reads.lock().drain_dev(self.dev_id));
        (cqes, descs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread's completions come out of `poll` in the order it staged
    /// them, also when the staging ring fills partway and the rest spill
    /// into the polled CQ.
    #[test]
    fn staged_completions_keep_order_across_overflow() {
        let cfg = DeviceConfig::shm();
        let shared =
            DevShared::new(0, Arc::new(RxEndpoint::new(4)), Arc::new(Doorbell::new()), &cfg);
        let mut staged = 0;
        while !shared.staging_full() {
            shared.stage_cqe(Cqe::local(CqeKind::SendDone, staged));
            staged += 1;
        }
        let total = staged + 40;
        let mut out = Vec::new();
        for round in 0..2 {
            // Round 0 finds the ring full and spills; the poll empties
            // it, so round 1 stages behind what the CQ still holds.
            for ctx in staged..staged + 20 {
                shared.stage_cqe(Cqe::local(CqeKind::SendDone, ctx));
            }
            staged += 20;
            if round == 0 {
                shared.poll(&mut out, 7, 0).unwrap();
            }
        }
        while out.len() < total as usize {
            assert!(shared.poll(&mut out, 64, 0).unwrap() > 0, "completions lost");
        }
        assert!(out.iter().map(|c| c.ctx).eq(0..total));
    }
}
