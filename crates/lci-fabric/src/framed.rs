//! The device core (DESIGN.md §4.9): the one [`NetDevice`] of this crate.
//! A backend is a [`Wire`] under it — the in-memory endpoints of the two
//! simulated providers, the shm rings, the tcp streams — plus a lock
//! layout ([`QpLocks`]).
//!
//! [`FramedDevice`] owns everything about *frames and devices*: the
//! posting locks and their discipline, the peer-readiness check, the one
//! place each frame header is built, the posts — including the one-sided
//! ones that never become a frame because the poster can address the
//! target's memory ([`Wire::LOCAL_DIRECT`]) — and, in [`router`], the
//! per-rank pending-read table ([`RankCore`]) and the **single** inbound
//! router (`route_frame`). Completion staging and the shared receive
//! queue are [`DevShared`], registered in the fabric, where every
//! delivery into the device finds them. A transport implements
//! [`Wire`] — only what is about *bytes moving*: peer liveness, a locked
//! sender that accepts frames, a drain that hands inbound frames back,
//! pending counts, counters and a final flush.

use crate::backend::{DeviceConfig, NetDevice, SendDesc, TransportStats};
use crate::dev_shared::{DevShared, QpLocks, CQ_DRAIN_BATCH};
use crate::fabric::Fabric;
use crate::mem::{MemoryRegion, Rkey};
use crate::reg_cache::{self, RegCache, RegCacheStats};
use crate::shm::ring::{FrameHeader, FLAG_HAS_IMM, KIND_READ_REQ, KIND_SEND, KIND_WRITE};
use crate::sync::{Doorbell, LockDiscipline, SpinGuard};
use crate::types::{Cqe, CqeKind, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod router;
pub(crate) use router::{RankCore, Routed};

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
    /// Whether a [`Peer::Local`] target's registered memory is this
    /// poster's to address: a write or read toward it then moves the
    /// bytes once, source to destination, under no lock, and only a
    /// write's immediate becomes a frame. A property of the wire, not a
    /// setting — a wire that says no carries every one-sided payload in
    /// frames, [`Peer::Remote`] targets always do.
    const LOCAL_DIRECT: bool;
    /// A locked sender toward one peer; frames sent through it leave in
    /// order.
    type Tx<'a>
    where
        Self: 'a;

    /// Attaches `rank`'s side of the wire.
    fn open(fabric: &Arc<Fabric>, rank: Rank) -> Self;

    /// The rank-level state shared by every device on this wire.
    fn core(&self) -> &RankCore;

    /// Liveness and locality of `target` (in range).
    fn peer(&self, target: Rank) -> Peer;

    /// Locks the sender toward `target` per `how`; a busy lock under
    /// try-lock is `Retry(LockBusy)`.
    fn lock_tx(&self, target: Rank, how: LockDiscipline) -> NetResult<Self::Tx<'_>>;

    /// Hands one frame to the wire. `Retry` when it cannot take it right
    /// now (no room; on a wire that lands at the post, the target's
    /// refusal); fatal when the frame can never fit or the peer is gone.
    fn send(&self, tx: &mut Self::Tx<'_>, h: &FrameHeader, payload: &[u8]) -> NetResult<()>;

    /// Moves the wire forward and offers up to `budget` inbound frames
    /// per peer to `sink`, oldest first, each payload lent as a slice of
    /// the wire's own storage (a ring slot, a spill range, a reassembly
    /// slab). A frame `sink` reports `Parked` stays at the wire's head
    /// and ends that peer's turn. A peer whose
    /// channel is busy under a sibling device's drain is skipped
    /// (try-lock), so pollers never wait for each other.
    fn drain(
        &self,
        budget: usize,
        sink: impl FnMut(Rank, &FrameHeader, &[u8]) -> NetResult<Routed>,
    ) -> NetResult<()>;

    /// Inbound work that needs another poll to advance (racy
    /// snapshot).
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

/// The `NetDevice` of every backend: lock-free CQE staging and SRQ + CQ
/// spinlocks ([`DevShared`]) behind the posting locks of the backend's
/// layout ([`QpLocks`]), under the trylock wrapper discipline, over a
/// [`Wire`].
pub(crate) struct FramedDevice<W: Wire> {
    fabric: Arc<Fabric>,
    wire: W,
    rank: Rank,
    dev_id: DevId,
    cfg: DeviceConfig,
    /// Visible to the crate for the layout test beside [`QpLocks`], which
    /// holds a posting lock against real posts and polls.
    pub(crate) qps: QpLocks,
    /// Visible to the crate for the capacity test beside [`DevShared`].
    pub(crate) shared: Arc<DevShared>,
    reg_cache: RegCache,
    /// Payload bytes of the writes and reads this device accepted, by
    /// the way they went: copied straight to or from the peer's
    /// registered memory, or carried in frames.
    rma_direct_bytes: AtomicU64,
    rma_framed_bytes: AtomicU64,
}

impl<W: Wire> FramedDevice<W> {
    /// Creates the device over the state `fabric` registered for it.
    /// Called by
    /// [`NetContext::create_device`](crate::backend::NetContext::create_device).
    pub(crate) fn new(
        fabric: Arc<Fabric>,
        rank: Rank,
        shared: Arc<DevShared>,
        cfg: DeviceConfig,
    ) -> Self {
        let wire = W::open(&fabric, rank);
        Self {
            qps: QpLocks::new(&cfg, fabric.nranks()),
            fabric,
            wire,
            rank,
            dev_id: shared.dev_id(),
            cfg,
            shared,
            reg_cache: RegCache::new(reg_cache::MAX_ENTRIES, reg_cache::MAX_BYTES),
            rma_direct_bytes: AtomicU64::new(0),
            rma_framed_bytes: AtomicU64::new(0),
        }
    }

    /// Peer-readiness check, the one rule for every post: the target rank
    /// must be in range and alive, and `addressee` — the device a frame of
    /// this post is addressed to, if it has one (a send, a write's
    /// immediate; a read or a plain write lands in registered memory and
    /// names no device) — must exist where this process can see it
    /// (`Retry(PeerNotReady)` otherwise). In another process the device
    /// table is unknowable, so only the wire's liveness counts — not
    /// attached yet retries, a cleanly-exited or dead peer is a fatal
    /// target.
    ///
    /// The device table is only counted: fetching the endpoint to learn
    /// that it exists would be a refcount round trip per post, on a cache
    /// line every poster toward that device shares.
    fn ready(&self, target: Rank, addressee: Option<DevId>) -> NetResult<Peer> {
        if target >= self.fabric.nranks() {
            return Err(NetError::fatal(format!("target rank {target} out of range")));
        }
        let peer = self.wire.peer(target);
        match peer {
            Peer::Local => {
                if addressee.is_some_and(|dev| dev >= self.fabric.device_count(target)) {
                    return Err(NetError::Retry(RetryReason::PeerNotReady));
                }
            }
            Peer::Remote => {}
            Peer::Absent => return Err(NetError::Retry(RetryReason::PeerNotReady)),
            Peer::Gone => {
                return Err(NetError::fatal(format!("{} peer rank {target} has exited", W::NAME)))
            }
        }
        Ok(peer)
    }

    /// Checks a one-sided access where the post can: in-process the
    /// registration table is shared, so a bad rkey is fatal at post time;
    /// across processes the rkey belongs to the target's table and the
    /// drain there validates. Returns the address of the access when
    /// this post is to copy the bytes itself ([`Wire::LOCAL_DIRECT`]).
    fn addressable(
        &self,
        peer: Peer,
        rkey: Rkey,
        offset: usize,
        len: usize,
    ) -> NetResult<Option<usize>> {
        if peer != Peer::Local {
            return Ok(None);
        }
        let base = self.fabric.mem().validate(rkey, offset, len)?;
        Ok(W::LOCAL_DIRECT.then_some(base))
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
            (Some(self.qps.lock(target)?), self.cfg.discipline)
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
            Route::Local => match self.route_frame(self.rank, h, payload)? {
                Routed::Done => Ok(()),
                Routed::Parked(why) => Err(NetError::Retry(why)),
            },
        }
    }

    /// Posts a single frame.
    #[inline(always)]
    fn post_frame(&self, target: Rank, h: &FrameHeader, payload: &[u8]) -> NetResult<()> {
        let mut route = self.route_to(target, true)?;
        self.put(&mut route, h, payload)
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

    fn post_inject(&self, target: Rank, target_dev: DevId, data: &[u8], imm: u64) -> NetResult<()> {
        // Not a one-message batch: the batch's slice walk and partial-
        // progress bookkeeping cost ~9 ns a message here (measured).
        self.ready(target, Some(target_dev))?;
        let h = FrameHeader { imm, ..self.header(KIND_SEND, target_dev as u32) };
        self.post_frame(target, &h, data)
    }

    fn post_send(
        &self,
        target: Rank,
        target_dev: DevId,
        data: &[u8],
        imm: u64,
        ctx: u64,
    ) -> NetResult<()> {
        if self.shared.staging_full() {
            return Err(NetError::Retry(RetryReason::QueueFull));
        }
        self.post_inject(target, target_dev, data, imm)?;
        self.shared.stage_cqe(Cqe::local(CqeKind::SendDone, ctx));
        Ok(())
    }

    fn post_send_batch(
        &self,
        target: Rank,
        target_dev: DevId,
        msgs: &[SendDesc<'_>],
    ) -> NetResult<usize> {
        self.ready(target, Some(target_dev))?;
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
        for m in &msgs[..posted] {
            self.shared.stage_cqe(Cqe::local(CqeKind::SendDone, m.ctx));
        }
        Ok(posted)
    }

    fn post_recv(&self, desc: RecvBufDesc) -> NetResult<()> {
        self.post_recv_batch(&[desc]).map(|_| ())
    }

    fn post_recv_batch(&self, descs: &[RecvBufDesc]) -> NetResult<usize> {
        let _ep = self.qps.lock_endpoint()?;
        self.shared.post_recvs(descs);
        Ok(descs.len())
    }

    fn poll_cq(&self, out: &mut Vec<Cqe>, max: usize) -> NetResult<usize> {
        let _ep = self.qps.lock_endpoint()?;
        // The drain is bounded so one poll cannot monopolize the locks
        // it holds, and runs *before* the poll takes our CQ lock: the
        // router stages CQEs (RecvDone, ReadDone) onto this very device,
        // and `stage_cqe`'s overflow path locks the polled CQ.
        let budget = max.max(CQ_DRAIN_BATCH);
        self.wire.drain(budget, |src, h, payload| self.route_frame(src, h, payload))?;
        self.shared.poll(out, max)
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
        let peer = self.ready(target, imm.map(|_| target_dev))?;
        let direct = self.addressable(peer, rkey, offset, data.len())?;
        let (framed, moved): (&[u8], _) = match direct {
            Some(base) => {
                // SAFETY: `validate` bounds-checked the access against a
                // live registration in this address space, whose contract
                // makes the region externally-shared bytes; `data` is a
                // live borrow, so it is not part of such a region.
                unsafe {
                    std::ptr::copy_nonoverlapping(data.as_ptr(), base as *mut u8, data.len());
                }
                (&[], &self.rma_direct_bytes)
            }
            None => (data, &self.rma_framed_bytes),
        };
        // The bytes of a direct write are in place: only an immediate
        // still travels, as a header-only frame behind this device's
        // earlier frames to the target, and the router applies it like
        // any write (zero bytes to copy, then the notification). If the
        // wire refuses it the whole post retries with no completion
        // staged; redoing the copy is idempotent, and the target must not
        // read before the notification arrives.
        if direct.is_none() || imm.is_some() {
            let h = FrameHeader {
                flags: if imm.is_some() { FLAG_HAS_IMM } else { 0 },
                imm: imm.unwrap_or(0),
                a: rkey.0 as u64,
                b: offset as u64,
                ..self.header(KIND_WRITE, target_dev as u32)
            };
            self.post_frame(target, &h, framed)?;
        }
        moved.fetch_add(data.len() as u64, Ordering::Relaxed);
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
        let peer = self.ready(target, None)?;
        if let Some(base) = self.addressable(peer, rkey, offset, local.len)? {
            // SAFETY: validated registered bytes in this address space;
            // the descriptor contract keeps `ptr..len` valid and
            // unaliased until the ReadDone staged below.
            unsafe {
                std::ptr::copy_nonoverlapping(base as *const u8, local.ptr, local.len);
            }
            self.rma_direct_bytes.fetch_add(local.len as u64, Ordering::Relaxed);
            let mut cqe = Cqe::local(CqeKind::ReadDone, local.ctx);
            cqe.len = local.len;
            self.shared.stage_cqe(cqe);
            return Ok(());
        }
        let core = self.wire.core();
        let req_id =
            core.alloc_read(local, self.dev_id).ok_or(NetError::Retry(RetryReason::QueueFull))?;
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
            core.cancel_read(req_id);
        })?;
        self.rma_framed_bytes.fetch_add(local.len as u64, Ordering::Relaxed);
        Ok(())
    }

    fn register(&self, ptr: *const u8, len: usize) -> NetResult<MemoryRegion> {
        // No posting lock, on either layout: ibv registration acquires
        // none (paper §4.2.3), and the per-domain cache mutex of an ofi
        // provider (§4.2.4) is the registration cache's own. That mutex
        // and, on a miss, the table's internal append lock are taken
        // blockingly whatever the discipline: a registration that found
        // a lock busy could not be back-propagated as a retry.
        Ok(self.reg_cache.register(self.fabric.mem(), self.rank, ptr, len))
    }

    fn deregister(&self, mr: &MemoryRegion) -> NetResult<()> {
        self.reg_cache.release(self.fabric.mem(), mr);
        Ok(())
    }

    fn reg_cache_stats(&self) -> RegCacheStats {
        self.reg_cache.stats()
    }

    fn posted_recvs(&self) -> usize {
        self.shared.posted_recvs()
    }

    fn doorbell(&self) -> Option<Arc<Doorbell>> {
        Some(self.shared.bell().clone())
    }

    fn inbound_pending(&self) -> usize {
        self.wire.inbound_pending()
    }

    fn outbound_pending(&self) -> usize {
        self.wire.outbound_pending()
    }

    fn transport_stats(&self) -> TransportStats {
        TransportStats {
            rma_direct_bytes: self.rma_direct_bytes.load(Ordering::Relaxed),
            rma_framed_bytes: self.rma_framed_bytes.load(Ordering::Relaxed),
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
        descs.extend(self.wire.core().drain_reads(self.dev_id));
        (cqes, descs)
    }
}
