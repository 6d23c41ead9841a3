//! The shm `NetDevice`: same lock structure as the ibv-like backend
//! (per-QP posting locks, lock-free CQE staging, SRQ + CQ spinlocks,
//! trylock wrapper discipline), but the wire is a real shared-memory
//! channel other *processes* can produce into.
//!
//! Posting encodes a frame into the outbound rank-pair channel under
//! the QP lock (which doubles as the ring's single-producer guarantee,
//! together with the rank-level producer lock shared by sibling
//! devices). Polling first **drains** inbound channels: a send frame for
//! the polling device lands straight in its next pre-posted receive
//! ([`DevShared::deliver_send`]), any other send is routed by `dst_dev`
//! into the right local device's RX endpoint, and RMA frames are applied
//! to registered memory. The poll then consumes the RX endpoint against
//! pre-posted receives exactly like the simulated backends, so the
//! desc-first FIFO/RNR discipline is preserved unchanged.

use super::ring::{
    FrameHeader, ProduceError, FLAG_HAS_IMM, KIND_READ_REQ, KIND_READ_RESP, KIND_SEND, KIND_WRITE,
};
use super::segment::{PEER_ABSENT, PEER_ATTACHED};
use super::{PendingRead, ShmFabric, ShmRankState};
use crate::backend::{DeviceConfig, NetDevice, SendDesc, TdStrategy, TransportStats};
use crate::buf_pool::{BufPool, BufPoolStats};
use crate::fabric::{Fabric, RxEndpoint};
use crate::framed::DevShared;
use crate::mem::{MemoryRegion, Rkey};
use crate::reg_cache::{RegCache, RegCacheStats};
use crate::sync::{Doorbell, LockDiscipline, SpinLock};
use crate::types::{
    Cqe, CqeKind, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason, WireMsg, WireMsgKind,
    WirePayload,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Bookkeeping behind a QP lock, as in the ibv backend.
#[derive(Default)]
struct QpState {
    posted: u64,
}

/// Outcome of routing one inbound frame.
enum Routed {
    /// Frame fully applied; release its slot.
    Done,
    /// Frame cannot be applied yet (RX full, device absent, response
    /// ring full): leave it in place — strict FIFO, like RNR.
    Parked,
}

/// The shared-memory device.
pub struct ShmDevice {
    fabric: Arc<Fabric>,
    shm: Arc<ShmFabric>,
    state: Arc<ShmRankState>,
    rank: Rank,
    dev_id: DevId,
    cfg: DeviceConfig,
    qps: Vec<Arc<SpinLock<QpState>>>,
    qp_discipline: LockDiscipline,
    shared: Arc<DevShared>,
    reg_cache: RegCache,
    buf_pool: BufPool,
}

impl ShmDevice {
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
        let shm = fabric.shm_fabric().clone();
        let state = shm.state(rank);
        let nranks = fabric.nranks();
        let (qps, qp_discipline) = match cfg.td_strategy {
            TdStrategy::PerQp => (
                (0..nranks).map(|_| Arc::new(SpinLock::new(QpState::default()))).collect(),
                cfg.discipline,
            ),
            TdStrategy::AllQp => {
                let shared = Arc::new(SpinLock::new(QpState::default()));
                ((0..nranks).map(|_| shared.clone()).collect(), cfg.discipline)
            }
            TdStrategy::None => {
                let shared = Arc::new(SpinLock::new(QpState::default()));
                ((0..nranks).map(|_| shared.clone()).collect(), LockDiscipline::Blocking)
            }
        };
        let shared = Arc::new(DevShared::new(dev_id, rx, bell, &cfg));
        state.register_dev(shared.clone());
        Self {
            fabric,
            shm,
            state,
            rank,
            dev_id,
            cfg,
            qps,
            qp_discipline,
            shared,
            reg_cache: RegCache::new(cfg.reg_cache),
            buf_pool: BufPool::new(cfg.buf_pool),
        }
    }

    fn map_produce(e: ProduceError) -> NetError {
        match e {
            ProduceError::RingFull | ProduceError::SpillFull => {
                NetError::Retry(RetryReason::RxFull)
            }
            ProduceError::TooLarge => {
                NetError::fatal("payload exceeds the shm frame limit (spill region / 2)")
            }
        }
    }

    /// Peer-readiness check with the same surface as the sims: absent
    /// peer → `Retry(PeerNotReady)`. In multi-process mode the remote
    /// device table is unknowable, so liveness comes from the segment's
    /// peer table; a cleanly-exited or dead peer is a fatal target.
    fn ready(&self, target: Rank, target_dev: DevId) -> NetResult<()> {
        if self.shm.multiproc && target != self.rank {
            if target >= self.fabric.nranks() {
                return Err(NetError::fatal(format!("target rank {target} out of range")));
            }
            match self.shm.seg.peer(target).state.load(Ordering::Acquire) {
                PEER_ATTACHED => Ok(()),
                PEER_ABSENT => Err(NetError::Retry(RetryReason::PeerNotReady)),
                _ => Err(NetError::fatal(format!("shm peer rank {target} has exited"))),
            }
        } else {
            self.fabric.endpoint(target, target_dev).map(|_| ())
        }
    }

    /// Acquires the QP lock for `target` per the effective discipline.
    #[inline]
    fn lock_qp(&self, target: Rank) -> NetResult<crate::sync::SpinGuard<'_, QpState>> {
        let lock = self
            .qps
            .get(target)
            .ok_or_else(|| NetError::fatal(format!("target rank {target} out of range")))?;
        self.qp_discipline.acquire(lock).ok_or(NetError::Retry(RetryReason::LockBusy))
    }

    /// Acquires the rank-level producer lock for the outbound channel.
    #[inline]
    fn lock_prod(&self, target: Rank) -> NetResult<crate::sync::SpinGuard<'_, ()>> {
        self.qp_discipline
            .acquire(self.state.prod_lock(target))
            .ok_or(NetError::Retry(RetryReason::LockBusy))
    }

    /// Wakes the consuming rank: in-process (or self) by ringing its
    /// device doorbells directly, cross-process via the segment futex
    /// (the peer's bridge thread fans it out).
    fn notify(&self, target: Rank) {
        if let Some(st) = self.shm.local_state(target) {
            st.ring_all_bells();
        } else {
            self.shm.seg.ring_doorbell(target);
        }
    }

    /// Routes every inbound channel's queued frames, bounded per
    /// channel by `budget`. Channels busy under a sibling device's
    /// drain are skipped (try-lock), keeping pollers contention-free.
    fn drain_channels(&self, budget: usize) -> NetResult<()> {
        for src in 0..self.fabric.nranks() {
            let Some(_guard) = self.state.drain_lock(src).try_lock() else { continue };
            let chan = self.state.inbound(src);
            let mut done = 0;
            while done < budget {
                let Some(frame) = chan.peek() else { break };
                match self.route_frame(src, &frame)? {
                    Routed::Done => {
                        chan.release(&frame);
                        done += 1;
                    }
                    Routed::Parked => break,
                }
            }
        }
        Ok(())
    }

    /// Applies one frame on the consuming side. Rkeys are validated
    /// here, in the process that owns the registration table — the
    /// producer cannot see it across a process boundary.
    fn route_frame(&self, src: Rank, frame: &super::ring::Frame<'_>) -> NetResult<Routed> {
        let h = &frame.header;
        match h.kind {
            KIND_SEND => {
                // Ours, nothing queued ahead of it and a receive posted:
                // ring slot → posted buffer, no restaging. Anything else
                // (a sibling's frame, RNR) goes through the RX endpoint.
                if h.dst_dev as DevId == self.dev_id
                    && self.shared.deliver_send(src, h, frame.payload())?
                {
                    return Ok(Routed::Done);
                }
                let ep = match self.fabric.endpoint(self.rank, h.dst_dev as DevId) {
                    Ok(ep) => ep,
                    // Target device not created yet: park, strict FIFO.
                    Err(NetError::Retry(_)) => return Ok(Routed::Parked),
                    Err(e) => return Err(e),
                };
                let msg = WireMsg {
                    src_rank: src,
                    src_dev: h.src_dev as DevId,
                    imm: h.imm,
                    kind: WireMsgKind::Send,
                    payload: self.buf_pool.stage(frame.payload()),
                };
                match ep.push(msg) {
                    Ok(()) => Ok(Routed::Done),
                    Err(NetError::Retry(_)) => Ok(Routed::Parked),
                    // Endpoint closed (device torn down): drop the
                    // frame, as teardown drops parked wire messages.
                    Err(NetError::Fatal(_)) => Ok(Routed::Done),
                }
            }
            KIND_WRITE => {
                let len = frame.payload_len;
                let base = self.fabric.mem().validate(Rkey(h.a as u32), h.b as usize, len)?;
                // SAFETY: `validate` bounds-checked against a live local
                // registration; frame payload is contiguous ring bytes.
                unsafe {
                    std::ptr::copy_nonoverlapping(frame.payload().as_ptr(), base as *mut u8, len);
                }
                if h.flags & FLAG_HAS_IMM != 0 {
                    let ep = match self.fabric.endpoint(self.rank, h.dst_dev as DevId) {
                        Ok(ep) => ep,
                        // The copy above is idempotent: park and redo.
                        Err(NetError::Retry(_)) => return Ok(Routed::Parked),
                        Err(e) => return Err(e),
                    };
                    let msg = WireMsg {
                        src_rank: src,
                        src_dev: h.src_dev as DevId,
                        imm: h.imm,
                        kind: WireMsgKind::WriteImm,
                        payload: WirePayload::None,
                    };
                    match ep.push(msg) {
                        Ok(()) => {}
                        Err(NetError::Retry(_)) => return Ok(Routed::Parked),
                        Err(NetError::Fatal(_)) => {}
                    }
                }
                Ok(Routed::Done)
            }
            KIND_READ_REQ => {
                let len = h.imm as usize;
                let base = self.fabric.mem().validate(Rkey(h.a as u32), h.b as usize, len)?;
                // Respond on our outbound channel to the requester; the
                // producer lock is shared with local posters.
                let Some(_pg) = self.state.prod_lock(src).try_lock() else {
                    return Ok(Routed::Parked);
                };
                let resp = FrameHeader {
                    kind: KIND_READ_RESP,
                    flags: 0,
                    imm: 0,
                    src_dev: self.dev_id as u32,
                    dst_dev: h.src_dev,
                    a: 0,
                    b: 0,
                    c: h.c,
                };
                // SAFETY: validated registered bytes, alive for the
                // duration of the registration.
                let payload = unsafe { std::slice::from_raw_parts(base as *const u8, len) };
                match self.state.outbound(src).produce(&resp, &[payload]) {
                    Ok(()) => {
                        self.notify(src);
                        Ok(Routed::Done)
                    }
                    Err(ProduceError::TooLarge) => Err(Self::map_produce(ProduceError::TooLarge)),
                    Err(_) => Ok(Routed::Parked),
                }
            }
            KIND_READ_RESP => {
                let pending = self.state.reads().lock().take(h.c as u32);
                let Some(PendingRead { desc, dev }) = pending else {
                    return Err(NetError::fatal(format!("unknown shm read response id {}", h.c)));
                };
                let n = frame.payload_len.min(desc.len);
                // SAFETY: the descriptor contract keeps `ptr..len` valid
                // until the ReadDone completion we are about to stage.
                unsafe {
                    std::ptr::copy_nonoverlapping(frame.payload().as_ptr(), desc.ptr, n);
                }
                if let Some(d) = self.state.dev_by_id(dev) {
                    let mut cqe = Cqe::local(CqeKind::ReadDone, desc.ctx);
                    cqe.len = n;
                    d.stage_cqe(cqe);
                }
                Ok(Routed::Done)
            }
            k => Err(NetError::fatal(format!("unknown shm frame kind {k}"))),
        }
    }
}

impl NetDevice for ShmDevice {
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
        self.ready(target, target_dev)?;
        if self.shared.staging_full() {
            return Err(NetError::Retry(RetryReason::QueueFull));
        }
        let mut qp = self.lock_qp(target)?;
        let prod = self.lock_prod(target)?;
        let h = FrameHeader {
            kind: KIND_SEND,
            flags: 0,
            imm,
            src_dev: self.dev_id as u32,
            dst_dev: target_dev as u32,
            a: 0,
            b: 0,
            c: 0,
        };
        self.state.outbound(target).produce(&h, &[data]).map_err(Self::map_produce)?;
        qp.posted += 1;
        drop(prod);
        drop(qp);
        self.notify(target);
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
        // One QP + producer lock acquisition covers the whole batch.
        let mut qp = self.lock_qp(target)?;
        let prod = self.lock_prod(target)?;
        let chan = self.state.outbound(target);
        let mut posted = 0;
        for m in msgs {
            let h = FrameHeader {
                kind: KIND_SEND,
                flags: 0,
                imm: m.imm,
                src_dev: self.dev_id as u32,
                dst_dev: target_dev as u32,
                a: 0,
                b: 0,
                c: 0,
            };
            match chan.produce(&h, &[m.data]) {
                Ok(()) => posted += 1,
                Err(ProduceError::TooLarge) => {
                    return Err(Self::map_produce(ProduceError::TooLarge))
                }
                Err(e) if posted == 0 => return Err(Self::map_produce(e)),
                Err(_) => break, // ring full mid-batch: partial progress
            }
        }
        qp.posted += posted as u64;
        drop(prod);
        drop(qp);
        self.notify(target);
        for m in &msgs[..posted] {
            self.shared.stage_cqe(Cqe::local(CqeKind::SendDone, m.ctx));
        }
        Ok(posted)
    }

    fn post_recv(&self, desc: RecvBufDesc) -> NetResult<()> {
        self.post_recv_batch(&[desc]).map(|_| ())
    }

    fn post_recv_batch(&self, descs: &[RecvBufDesc]) -> NetResult<usize> {
        let n = self.shared.post_recvs(descs)?;
        if n > 0 && (self.shared.rx_occupancy() > 0 || self.state.inbound_occupancy() > 0) {
            self.shared.bell().ring();
        }
        Ok(n)
    }

    fn poll_cq(&self, out: &mut Vec<Cqe>, max: usize) -> NetResult<usize> {
        let budget = max.max(self.cfg.cq_drain_batch);
        // Drain the shared channels *before* the poll takes our CQ lock:
        // the router stages CQEs (RecvDone, ReadDone) onto this very
        // device, and `stage_cqe`'s overflow path locks the polled CQ.
        self.drain_channels(budget)?;
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
        self.ready(target, target_dev)?;
        if !self.shm.multiproc {
            // In-process the registration table is shared: validate at
            // post time, same fatal surface as the sims. Cross-process
            // the rkey belongs to the target's table; the drain there
            // validates.
            self.fabric.mem().validate(rkey, offset, data.len())?;
        }
        let mut qp = self.lock_qp(target)?;
        let prod = self.lock_prod(target)?;
        let h = FrameHeader {
            kind: KIND_WRITE,
            flags: if imm.is_some() { FLAG_HAS_IMM } else { 0 },
            imm: imm.unwrap_or(0),
            src_dev: self.dev_id as u32,
            dst_dev: target_dev as u32,
            a: rkey.0 as u64,
            b: offset as u64,
            c: 0,
        };
        self.state.outbound(target).produce(&h, &[data]).map_err(Self::map_produce)?;
        qp.posted += 1;
        drop(prod);
        drop(qp);
        self.notify(target);
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
        self.ready(target, self.dev_id)?;
        if !self.shm.multiproc {
            self.fabric.mem().validate(rkey, offset, local.len)?;
        }
        let len = local.len;
        let req_id = self
            .state
            .reads()
            .lock()
            .alloc(PendingRead { desc: local, dev: self.dev_id })
            .ok_or(NetError::Retry(RetryReason::QueueFull))?;
        let res = (|| {
            let mut qp = self.lock_qp(target)?;
            let prod = self.lock_prod(target)?;
            let h = FrameHeader {
                kind: KIND_READ_REQ,
                flags: 0,
                imm: len as u64,
                src_dev: self.dev_id as u32,
                dst_dev: 0,
                a: rkey.0 as u64,
                b: offset as u64,
                c: req_id as u64,
            };
            self.state.outbound(target).produce(&h, &[]).map_err(Self::map_produce)?;
            qp.posted += 1;
            drop(prod);
            drop(qp);
            Ok(())
        })();
        match res {
            Ok(()) => {
                self.notify(target);
                Ok(())
            }
            Err(e) => {
                // Back the pending slot out; the descriptor was never
                // exposed to a peer.
                self.state.reads().lock().take(req_id);
                Err(e)
            }
        }
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
        // Undrained channel frames count too: a parked progress engine
        // must not sleep while frames wait in the shared rings.
        self.shared.rx_occupancy() + self.state.inbound_occupancy()
    }

    fn transport_stats(&self) -> TransportStats {
        TransportStats {
            shm_ring_hwm: self.state.ring_occ_hwm(),
            doorbell_cross_proc_wakes: self.state.cross_proc_wakes(),
            ..TransportStats::default()
        }
    }

    fn teardown(&self) -> (Vec<Cqe>, Vec<RecvBufDesc>) {
        let (cqes, mut descs) = self.shared.teardown();
        // Reads this device posted that will never complete hand their
        // landing buffers back too.
        descs.extend(self.state.reads().lock().drain_dev(self.dev_id).into_iter().map(|p| p.desc));
        (cqes, descs)
    }
}
