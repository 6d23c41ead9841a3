//! The tcp `NetDevice`: ibv-style lock structure on the posting side
//! (per-QP posting locks, lock-free CQE staging, SRQ + CQ spinlocks,
//! trylock wrapper discipline), with a real socket mesh as the wire.
//!
//! Posting encodes the frame into one contiguous pooled buffer and
//! *enqueues* it on the per-peer send queue under the QP lock —
//! completing locally, like a NIC accepting a WQE. The progress path
//! ([`poll_cq`](TcpDevice::poll_cq)) then drains each queue into as few
//! `writev` calls as the socket accepts (each queued frame is one
//! iovec; no flatten copy), bulk-reads inbound bytes into the stream
//! decoder, and routes reassembled frames by `dst_dev` through the same
//! desc-first FIFO/RNR discipline as the shm drain.

use super::stream::{self, MAX_FRAME_PAYLOAD};
use super::{Conn, ConnIo, InFrame, TcpFabric, TcpRankState};
use crate::backend::{DeviceConfig, NetDevice, SendDesc, TdStrategy, TransportStats};
use crate::buf_pool::{BufPool, BufPoolStats};
use crate::fabric::{Fabric, RxEndpoint};
use crate::framed::DevShared;
use crate::mem::{MemoryRegion, Rkey};
use crate::reg_cache::{RegCache, RegCacheStats};
use crate::shm::ring::{
    FrameHeader, FLAG_HAS_IMM, KIND_READ_REQ, KIND_READ_RESP, KIND_SEND, KIND_WRITE,
};
use crate::shm::PendingRead;
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

/// Outcome of routing one inbound frame (same discipline as shm).
enum Routed {
    Done,
    /// Not applicable yet: the frame goes back to the inbox front.
    Parked(InFrame),
}

/// The TCP device.
pub struct TcpDevice {
    fabric: Arc<Fabric>,
    tcp: Arc<TcpFabric>,
    state: Arc<TcpRankState>,
    rank: Rank,
    dev_id: DevId,
    cfg: DeviceConfig,
    qps: Vec<Arc<SpinLock<QpState>>>,
    qp_discipline: LockDiscipline,
    shared: Arc<DevShared>,
    reg_cache: RegCache,
    buf_pool: BufPool,
    /// The writev-batching knob: `false` is the one-write-per-frame
    /// ablation.
    batched: bool,
}

impl TcpDevice {
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
        let tcp = fabric.tcp_fabric().clone();
        let state = tcp.state(rank);
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
        // The bridge's backstop flush follows the same gather/no-gather
        // mode as this rank's devices (ablation runs set it uniformly).
        state.set_batched_hint(cfg.tcp_batch);
        Self {
            fabric,
            tcp,
            state,
            rank,
            dev_id,
            cfg,
            qps,
            qp_discipline,
            shared,
            reg_cache: RegCache::new(cfg.reg_cache),
            buf_pool: BufPool::new(cfg.buf_pool),
            batched: cfg.tcp_batch,
        }
    }

    fn too_large() -> NetError {
        NetError::fatal("payload exceeds the tcp frame limit")
    }

    /// Peer-readiness check. The mesh is fully connected at attach, so
    /// cross-process the only failure is a dead peer; in-process (and
    /// self) the target device table is local and checked directly.
    fn ready(&self, target: Rank, target_dev: DevId) -> NetResult<()> {
        if target >= self.fabric.nranks() {
            return Err(NetError::fatal(format!("target rank {target} out of range")));
        }
        if self.state.peer_dead(target) {
            return Err(NetError::fatal(format!("tcp peer rank {target} has exited")));
        }
        if self.tcp.multiproc && target != self.rank {
            Ok(())
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

    /// The mesh connection toward `target` (never `self.rank`).
    fn conn(&self, target: Rank) -> NetResult<&Arc<Conn>> {
        self.state
            .conn(target)
            .ok_or_else(|| NetError::fatal(format!("no tcp connection to rank {target}")))
    }

    /// Encodes and enqueues one frame toward `target` under the QP +
    /// send-queue locks; the socket flush happens on the progress path.
    fn enqueue_frame(&self, target: Rank, h: &FrameHeader, segs: &[&[u8]]) -> NetResult<()> {
        let conn = self.conn(target)?;
        let frame = stream::encode_frame(&self.buf_pool, h, segs).ok_or_else(Self::too_large)?;
        let mut qp = self.lock_qp(target)?;
        let mut sg =
            self.qp_discipline.acquire(&conn.send).ok_or(NetError::Retry(RetryReason::LockBusy))?;
        conn.enqueue_locked(&mut sg, frame)?;
        qp.posted += 1;
        Ok(())
    }

    /// Flushes send queues and drains inbound sockets for every
    /// connection of this rank, routing up to `budget` frames per
    /// connection. Connections busy under a sibling device's progress
    /// pass are skipped (try-lock), keeping pollers contention-free.
    fn progress_conns(&self, budget: usize) -> NetResult<()> {
        for peer in 0..self.fabric.nranks() {
            let Some(conn) = self.state.conn(peer) else { continue };
            if conn.is_dead() {
                self.state.mark_peer_dead(peer);
                continue;
            }
            if let Some(mut sg) = conn.send.try_lock() {
                if conn.flush_locked(&mut sg, self.batched, &self.state) == ConnIo::Dead {
                    self.state.mark_peer_dead(peer);
                    continue;
                }
            }
            let Some(mut rg) = conn.recv.try_lock() else { continue };
            if conn.fill_and_decode(&mut rg, &self.buf_pool) == ConnIo::Dead {
                self.state.mark_peer_dead(peer);
                continue;
            }
            let mut done = 0;
            while done < budget {
                let Some(frame) = rg.inbox.pop_front() else { break };
                match self.route_frame(peer, frame)? {
                    Routed::Done => done += 1,
                    Routed::Parked(frame) => {
                        rg.inbox.push_front(frame);
                        break;
                    }
                }
            }
            conn.recv_pending.store(
                rg.inbox.len()
                    + usize::from(rg.dec.pending_bytes() >= crate::shm::ring::HEADER_LEN),
                Ordering::Release,
            );
        }
        Ok(())
    }

    /// Applies one reassembled frame on the consuming side. Identical
    /// routing to the shm drain; rkeys are validated here, in the
    /// process that owns the registration table.
    fn route_frame(&self, src: Rank, frame: InFrame) -> NetResult<Routed> {
        let h = frame.header;
        match h.kind {
            KIND_SEND => {
                let ep = match self.fabric.endpoint(self.rank, h.dst_dev as DevId) {
                    Ok(ep) => ep,
                    // Target device not created yet: park, strict FIFO.
                    Err(NetError::Retry(_)) => return Ok(Routed::Parked(frame)),
                    Err(e) => return Err(e),
                };
                // The decoder already staged the payload in a pooled
                // buffer: the wire message takes that buffer over.
                let msg = WireMsg {
                    src_rank: src,
                    src_dev: h.src_dev as DevId,
                    imm: h.imm,
                    kind: WireMsgKind::Send,
                    payload: WirePayload::Heap(frame.payload),
                };
                match ep.try_push(msg) {
                    Ok(()) => Ok(Routed::Done),
                    Err((NetError::Retry(_), msg)) => {
                        let WirePayload::Heap(payload) = msg.payload else {
                            unreachable!("built as Heap above")
                        };
                        Ok(Routed::Parked(InFrame { header: h, payload }))
                    }
                    // Endpoint closed (device torn down): drop the
                    // frame, as teardown drops parked wire messages.
                    Err((NetError::Fatal(_), _)) => Ok(Routed::Done),
                }
            }
            KIND_WRITE => {
                let len = frame.payload.len();
                let base = self.fabric.mem().validate(Rkey(h.a as u32), h.b as usize, len)?;
                // SAFETY: `validate` bounds-checked against a live local
                // registration; the payload is contiguous decoder bytes.
                unsafe {
                    std::ptr::copy_nonoverlapping(frame.payload.as_ptr(), base as *mut u8, len);
                }
                if h.flags & FLAG_HAS_IMM != 0 {
                    let ep = match self.fabric.endpoint(self.rank, h.dst_dev as DevId) {
                        Ok(ep) => ep,
                        // The copy above is idempotent: park and redo.
                        Err(NetError::Retry(_)) => return Ok(Routed::Parked(frame)),
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
                        Err(NetError::Retry(_)) => return Ok(Routed::Parked(frame)),
                        Err(NetError::Fatal(_)) => {}
                    }
                }
                Ok(Routed::Done)
            }
            KIND_READ_REQ => {
                let len = h.imm as usize;
                let base = self.fabric.mem().validate(Rkey(h.a as u32), h.b as usize, len)?;
                // Respond on the same connection; its send queue is
                // shared with local posters, so try-lock only.
                let conn = self.conn(src)?;
                let Some(mut sg) = conn.send.try_lock() else {
                    return Ok(Routed::Parked(frame));
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
                let resp_payload = unsafe { std::slice::from_raw_parts(base as *const u8, len) };
                let resp_frame = stream::encode_frame(&self.buf_pool, &resp, &[resp_payload])
                    .ok_or_else(Self::too_large)?;
                match conn.enqueue_locked(&mut sg, resp_frame) {
                    Ok(()) => Ok(Routed::Done),
                    Err(NetError::Retry(_)) => Ok(Routed::Parked(frame)),
                    // Requester died: nobody is waiting for the bytes.
                    Err(NetError::Fatal(_)) => Ok(Routed::Done),
                }
            }
            KIND_READ_RESP => {
                let pending = self.state.reads().lock().take(h.c as u32);
                let Some(PendingRead { desc, dev }) = pending else {
                    return Err(NetError::fatal(format!("unknown tcp read response id {}", h.c)));
                };
                let n = frame.payload.len().min(desc.len);
                // SAFETY: the descriptor contract keeps `ptr..len` valid
                // until the ReadDone completion we are about to stage.
                unsafe {
                    std::ptr::copy_nonoverlapping(frame.payload.as_ptr(), desc.ptr, n);
                }
                if let Some(d) = self.state.dev_by_id(dev) {
                    let mut cqe = Cqe::local(CqeKind::ReadDone, desc.ctx);
                    cqe.len = n;
                    d.stage_cqe(cqe);
                }
                Ok(Routed::Done)
            }
            k => Err(NetError::fatal(format!("unknown tcp frame kind {k}"))),
        }
    }
}

impl NetDevice for TcpDevice {
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
        if target == self.rank {
            // Self-sends skip the socket: push straight onto the local
            // endpoint (a Retry surfaces before any completion stages).
            let ep = self.fabric.endpoint(target, target_dev)?;
            ep.push(WireMsg {
                src_rank: self.rank,
                src_dev: self.dev_id,
                imm,
                kind: WireMsgKind::Send,
                payload: self.buf_pool.stage(data),
            })?;
            self.shared.stage_cqe(Cqe::local(CqeKind::SendDone, ctx));
            return Ok(());
        }
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
        self.enqueue_frame(target, &h, &[data])?;
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
        if target == self.rank {
            let mut posted = 0;
            for m in msgs {
                match self.post_send(target, target_dev, m.data, m.imm, m.ctx) {
                    Ok(()) => posted += 1,
                    Err(e) if posted == 0 => return Err(e),
                    Err(_) => break,
                }
            }
            return Ok(posted);
        }
        let conn = self.conn(target)?;
        // One QP + send-queue lock acquisition covers the whole batch.
        let mut qp = self.lock_qp(target)?;
        let mut sg =
            self.qp_discipline.acquire(&conn.send).ok_or(NetError::Retry(RetryReason::LockBusy))?;
        let mut posted = 0;
        for m in msgs {
            if m.data.len() > MAX_FRAME_PAYLOAD {
                return Err(Self::too_large());
            }
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
            let frame =
                stream::encode_frame(&self.buf_pool, &h, &[m.data]).ok_or_else(Self::too_large)?;
            match conn.enqueue_locked(&mut sg, frame) {
                Ok(()) => posted += 1,
                Err(e) if posted == 0 => return Err(e),
                Err(_) => break, // queue full mid-batch: partial progress
            }
        }
        qp.posted += posted as u64;
        drop(sg);
        drop(qp);
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
        if n > 0 && (self.shared.rx_occupancy() > 0 || self.state.conn_pending() > 0) {
            self.shared.bell().ring();
        }
        Ok(n)
    }

    fn poll_cq(&self, out: &mut Vec<Cqe>, max: usize) -> NetResult<usize> {
        let budget = max.max(self.cfg.cq_drain_batch);
        // Progress the sockets *before* the poll takes our CQ lock:
        // routing may stage CQEs (ReadDone) onto this very device, and
        // `stage_cqe`'s overflow path locks the polled CQ.
        self.progress_conns(budget)?;
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
        if !self.tcp.multiproc {
            // In-process the registration table is shared: validate at
            // post time, same fatal surface as the sims. Cross-process
            // the rkey belongs to the target's table; the drain there
            // validates.
            self.fabric.mem().validate(rkey, offset, data.len())?;
        }
        if target == self.rank {
            let base = self.fabric.mem().validate(rkey, offset, data.len())?;
            // SAFETY: bounds-checked against a live local registration.
            unsafe {
                std::ptr::copy_nonoverlapping(data.as_ptr(), base as *mut u8, data.len());
            }
            if let Some(imm) = imm {
                let ep = self.fabric.endpoint(target, target_dev)?;
                ep.push(WireMsg {
                    src_rank: self.rank,
                    src_dev: self.dev_id,
                    imm,
                    kind: WireMsgKind::WriteImm,
                    payload: WirePayload::None,
                })?;
            }
            self.shared.stage_cqe(Cqe::local(CqeKind::WriteDone, ctx));
            return Ok(());
        }
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
        self.enqueue_frame(target, &h, &[data])?;
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
        if !self.tcp.multiproc {
            self.fabric.mem().validate(rkey, offset, local.len)?;
        }
        if target == self.rank {
            let base = self.fabric.mem().validate(rkey, offset, local.len)?;
            // SAFETY: validated registered source; the descriptor
            // contract keeps the destination valid until ReadDone.
            unsafe {
                std::ptr::copy_nonoverlapping(base as *const u8, local.ptr, local.len);
            }
            let mut cqe = Cqe::local(CqeKind::ReadDone, local.ctx);
            cqe.len = local.len;
            self.shared.stage_cqe(cqe);
            return Ok(());
        }
        let len = local.len;
        let req_id = self
            .state
            .reads()
            .lock()
            .alloc(PendingRead { desc: local, dev: self.dev_id })
            .ok_or(NetError::Retry(RetryReason::QueueFull))?;
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
        match self.enqueue_frame(target, &h, &[]) {
            Ok(()) => Ok(()),
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
        // Undrained socket/queue work counts too: a parked progress
        // engine must not sleep while frames wait for a flush or route.
        self.shared.rx_occupancy() + self.state.conn_pending()
    }

    fn outbound_pending(&self) -> usize {
        self.state.outbound_pending()
    }

    fn transport_stats(&self) -> TransportStats {
        TransportStats {
            shm_ring_hwm: 0,
            doorbell_cross_proc_wakes: self.state.cross_proc_wakes(),
            tcp_writev_calls: self.state.writev_calls.load(Ordering::Relaxed),
            tcp_writev_frames: self.state.writev_frames.load(Ordering::Relaxed),
        }
    }

    fn teardown(&self) -> (Vec<Cqe>, Vec<RecvBufDesc>) {
        // Best-effort flush so peers see our final frames before the
        // sockets close with this process.
        for peer in 0..self.fabric.nranks() {
            if let Some(conn) = self.state.conn(peer) {
                let mut sg = conn.send.lock();
                let _ = conn.flush_locked(&mut sg, self.batched, &self.state);
            }
        }
        let (cqes, mut descs) = self.shared.teardown();
        // Reads this device posted that will never complete hand their
        // landing buffers back too.
        descs.extend(self.state.reads().lock().drain_dev(self.dev_id).into_iter().map(|p| p.desc));
        (cqes, descs)
    }
}
