//! The ibv-like backend (paper §4.2.3).
//!
//! Mirrors the libibverbs/mlx5 lock structure the paper analyses:
//!
//! * every **queue pair** (one per target rank) has its own posting lock
//!   (standing in for the QP spinlock + uUAR lock);
//! * the **completion queue** has its own lock, taken by `ibv_poll_cq`
//!   (pollers contend with each other, *not* with posters — the NIC
//!   writes CQEs by DMA, modelled as a lock-free staging queue);
//! * the **shared receive queue** has its own lock;
//! * memory (de)registration takes no backend locks beyond the
//!   registration table's internal append lock (the paper notes ibv
//!   registration acquires no locks). The device-level
//!   [registration cache](crate::reg_cache) sits in front with its
//!   mutex — a deliberate trade: one short cache mutex hold replaces a
//!   registration-table append per message.
//!
//! The `ibv_td_strategy` attribute controls QP lock sharing:
//! `per_qp` gives every QP its own trylock-wrapped lock; `all_qp` shares
//! one trylock-wrapped lock across all QPs; `none` shares one lock that is
//! always acquired *blockingly* (the provider's own lock, which LCI cannot
//! wrap).
//!
//! With `per_qp`, a worker thread posting a send and a progress thread
//! polling the CQ touch disjoint locks — the contention-free guarantee the
//! paper highlights for AMT-style runtimes.

use crate::backend::{DeviceConfig, NetDevice, SendDesc};
use crate::buf_pool::{BufPool, BufPoolStats};
use crate::dev_shared::{DevShared, QpLocks};
use crate::fabric::{Fabric, RxEndpoint};
use crate::mem::{MemoryRegion, Rkey};
use crate::reg_cache::{RegCache, RegCacheStats};
use crate::sync::Doorbell;
use crate::types::{
    Cqe, CqeKind, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason, WireMsg, WireMsgKind,
    WirePayload,
};
use std::sync::Arc;

/// The ibv-like device: the lock structure above over the fabric's
/// in-memory wire (a post pushes straight onto the target's RX
/// endpoint). Completion staging, the SRQ and the polled CQ are the
/// `dev_shared::DevShared` the framed wires use too.
pub struct IbvDevice {
    fabric: Arc<Fabric>,
    rank: Rank,
    dev_id: DevId,
    cfg: DeviceConfig,
    /// One posting lock per target rank, shared per the thread-domain
    /// strategy.
    qps: QpLocks,
    /// The "NIC" side: staged CQEs, polled CQ, SRQ and the doorbell
    /// rung whenever a completion is written, so a parked progress
    /// thread wakes to reap it.
    shared: DevShared,
    /// Registration cache (per device, like a provider's domain cache).
    reg_cache: RegCache,
    /// Recycled staging-buffer pool feeding `WirePayload::Heap`.
    buf_pool: BufPool,
}

impl IbvDevice {
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
        Self {
            qps: QpLocks::new(cfg.td_strategy, cfg.discipline, fabric.nranks()),
            shared: DevShared::new(dev_id, rx, bell, &cfg),
            fabric,
            rank,
            dev_id,
            cfg,
            reg_cache: RegCache::new(cfg.reg_cache),
            buf_pool: BufPool::new(cfg.buf_pool),
        }
    }
}

impl NetDevice for IbvDevice {
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
        let ep = self.fabric.endpoint(target, target_dev)?;
        if self.shared.staging_full() {
            return Err(NetError::Retry(RetryReason::QueueFull));
        }
        let qp = self.qps.lock(target)?;
        ep.push(WireMsg {
            src_rank: self.rank,
            src_dev: self.dev_id,
            imm,
            kind: WireMsgKind::Send,
            payload: self.buf_pool.stage(data),
        })?;
        drop(qp);
        // The NIC reports the send completion; the send buffer was staged.
        self.shared.stage_cqe(Cqe::local(CqeKind::SendDone, ctx));
        Ok(())
    }

    fn post_send_batch(
        &self,
        target: Rank,
        target_dev: DevId,
        msgs: &[SendDesc<'_>],
    ) -> NetResult<usize> {
        let ep = self.fabric.endpoint(target, target_dev)?;
        if self.shared.staging_full() {
            return Err(NetError::Retry(RetryReason::QueueFull));
        }
        // One QP lock acquisition (doorbell) covers the whole batch.
        let qp = self.qps.lock(target)?;
        let mut posted = 0;
        for m in msgs {
            let res = ep.push(WireMsg {
                src_rank: self.rank,
                src_dev: self.dev_id,
                imm: m.imm,
                kind: WireMsgKind::Send,
                payload: self.buf_pool.stage(m.data),
            });
            match res {
                Ok(()) => posted += 1,
                Err(e) if posted == 0 => return Err(e),
                Err(_) => break, // ring full mid-batch: partial progress
            }
        }
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
        // One SRQ lock acquisition covers the whole batch; the queue is
        // unbounded, so once the lock is held every buffer posts. The
        // wire is the RX endpoint itself: nothing waits outside it.
        self.shared.post_recvs(descs, 0)
    }

    fn poll_cq(&self, out: &mut Vec<Cqe>, max: usize) -> NetResult<usize> {
        // Inbound delivery is bounded so one poll cannot starve.
        self.shared.poll(out, max, max.max(self.cfg.cq_drain_batch))
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
        let base = self.fabric.mem().validate(rkey, offset, data.len())?;
        let qp = self.qps.lock(target)?;
        // SAFETY: `validate` bounds-checked the access against a live
        // registration; the registration contract makes the region
        // externally-shared bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), base as *mut u8, data.len());
        }
        if let Some(imm) = imm {
            let ep = self.fabric.endpoint(target, target_dev)?;
            // If the notify cannot be queued the whole op retries; the
            // data copy is idempotent and the target must not read before
            // the notification arrives.
            ep.push(WireMsg {
                src_rank: self.rank,
                src_dev: self.dev_id,
                imm,
                kind: WireMsgKind::WriteImm,
                payload: WirePayload::None,
            })?;
        }
        drop(qp);
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
        let base = self.fabric.mem().validate(rkey, offset, local.len)?;
        let qp = self.qps.lock(target)?;
        // SAFETY: bounds validated; local buffer validity is the
        // RecvBufDesc contract.
        unsafe {
            std::ptr::copy_nonoverlapping(base as *const u8, local.ptr, local.len);
        }
        drop(qp);
        let mut cqe = Cqe::local(CqeKind::ReadDone, local.ctx);
        cqe.len = local.len;
        self.shared.stage_cqe(cqe);
        Ok(())
    }

    fn register(&self, ptr: *const u8, len: usize) -> NetResult<MemoryRegion> {
        // ibv memory registration acquires no backend locks (paper
        // §4.2.3): the cache's mutex and, on a miss, the table's
        // internal append lock are the only ones.
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
        self.shared.rx_occupancy()
    }

    fn teardown(&self) -> (Vec<Cqe>, Vec<RecvBufDesc>) {
        self.shared.teardown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NetContext;
    use std::sync::atomic::Ordering;

    fn pair(cfg: DeviceConfig) -> (Arc<dyn NetDevice>, Arc<dyn NetDevice>) {
        let fabric = Fabric::new(2);
        let d0 = NetContext::new(fabric.clone(), 0).create_device(cfg);
        let d1 = NetContext::new(fabric, 1).create_device(cfg);
        (d0, d1)
    }

    fn post_packet_recv(dev: &Arc<dyn NetDevice>, buf: &mut [u8], ctx: u64) {
        // SAFETY: test keeps buf alive and unaliased until completion.
        let desc = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), ctx) };
        dev.post_recv(desc).unwrap();
    }

    #[test]
    fn send_recv_roundtrip() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        let mut rbuf = vec![0u8; 64];
        post_packet_recv(&d1, &mut rbuf, 42);
        d0.post_send(1, 0, &[1, 2, 3], 0xAB, 7).unwrap();

        let mut cqes = Vec::new();
        d0.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].kind, CqeKind::SendDone);
        assert_eq!(cqes[0].ctx, 7);

        cqes.clear();
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].kind, CqeKind::RecvDone);
        assert_eq!(cqes[0].ctx, 42);
        assert_eq!(cqes[0].imm, 0xAB);
        assert_eq!(cqes[0].len, 3);
        assert_eq!(cqes[0].src_rank, 0);
        assert_eq!(&rbuf[..3], &[1, 2, 3]);
    }

    #[test]
    fn batched_post_roundtrip_and_partial_progress() {
        let fabric = Fabric::new(2);
        let cfg = DeviceConfig::ibv().with_rx_capacity(2);
        let d0 = NetContext::new(fabric.clone(), 0).create_device(cfg);
        let d1 = NetContext::new(fabric, 1).create_device(cfg);
        let bufs: Vec<[u8; 1]> = (0..4u8).map(|i| [i]).collect();
        let msgs: Vec<SendDesc> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| SendDesc { data: b, imm: i as u64, ctx: i as u64 })
            .collect();
        assert_eq!(d0.post_send_batch(1, 0, &msgs).unwrap(), 2);
        let mut rbufs: Vec<Vec<u8>> = (0..2).map(|_| vec![0u8; 8]).collect();
        for (i, b) in rbufs.iter_mut().enumerate() {
            post_packet_recv(&d1, b, i as u64);
        }
        let mut cqes = Vec::new();
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 2);
        assert_eq!(cqes[0].imm, 0);
        assert_eq!(cqes[1].imm, 1);
        // Ring drained: the tail posts now.
        assert_eq!(d0.post_send_batch(1, 0, &msgs[2..]).unwrap(), 2);
    }

    #[test]
    fn batched_recv_posts_all_under_one_lock() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        let mut rbufs: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 8]).collect();
        let descs: Vec<RecvBufDesc> = rbufs
            .iter_mut()
            .enumerate()
            // SAFETY: test keeps bufs alive and unaliased until delivery.
            .map(|(i, b)| unsafe { RecvBufDesc::new(b.as_mut_ptr(), b.len(), i as u64) })
            .collect();
        assert_eq!(d1.post_recv_batch(&descs).unwrap(), 4);
        assert_eq!(d1.posted_recvs(), 4);
        for i in 0..4u8 {
            d0.post_send(1, 0, &[i], i as u64, 0).unwrap();
        }
        let mut cqes = Vec::new();
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 4);
        // Receives are consumed in posting order.
        for (i, c) in cqes.iter().enumerate() {
            assert_eq!(c.ctx, i as u64);
            assert_eq!(rbufs[i][0], i as u8);
        }
        assert_eq!(d1.posted_recvs(), 0);
    }

    #[test]
    fn rnr_message_waits_for_recv() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        d0.post_send(1, 0, b"hello", 0, 0).unwrap();
        let mut cqes = Vec::new();
        // No receive posted: nothing delivered, message parked.
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert!(cqes.is_empty());
        let mut rbuf = vec![0u8; 64];
        post_packet_recv(&d1, &mut rbuf, 1);
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 1);
        assert_eq!(&rbuf[..5], b"hello");
    }

    #[test]
    fn rdma_write_with_imm() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        let target = [0u8; 128];
        let mr = d1.register(target.as_ptr(), target.len()).unwrap();
        let mut notif = vec![0u8; 8];
        post_packet_recv(&d1, &mut notif, 9);

        d0.post_write(1, 0, &[5u8; 16], mr.rkey, 32, Some(0x77), 3).unwrap();

        let mut cqes = Vec::new();
        d0.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes[0].kind, CqeKind::WriteDone);
        assert_eq!(cqes[0].ctx, 3);

        cqes.clear();
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes[0].kind, CqeKind::WriteImmRecv);
        assert_eq!(cqes[0].imm, 0x77);
        assert_eq!(&target[32..48], &[5u8; 16]);
    }

    #[test]
    fn rdma_read() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        let src: Vec<u8> = (0..64).collect();
        let mr = d1.register(src.as_ptr(), src.len()).unwrap();

        let mut dst = vec![0u8; 16];
        let desc = unsafe { RecvBufDesc::new(dst.as_mut_ptr(), dst.len(), 11) };
        d0.post_read(1, desc, mr.rkey, 8).unwrap();

        let mut cqes = Vec::new();
        d0.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes[0].kind, CqeKind::ReadDone);
        assert_eq!(cqes[0].ctx, 11);
        assert_eq!(cqes[0].len, 16);
        assert_eq!(&dst[..], &src[8..24]);
    }

    #[test]
    fn rdma_write_out_of_bounds_is_fatal() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        let target = [0u8; 8];
        let mr = d1.register(target.as_ptr(), target.len()).unwrap();
        let err = d0.post_write(1, 0, &[0u8; 16], mr.rkey, 0, None, 0).unwrap_err();
        assert!(matches!(err, NetError::Fatal(_)));
    }

    #[test]
    fn trylock_poll_reports_busy() {
        let fabric = Fabric::new(1);
        let ctx = NetContext::new(fabric, 0);
        let cfg = DeviceConfig::ibv();
        let dev = ctx.create_device(cfg);
        // Simulate a concurrent poller by grabbing the CQ lock through a
        // second handle on another thread and holding it.
        let dev2 = dev.clone();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let t = std::thread::spawn(move || {
            // Busy-poll in a tight loop to hold the lock often.
            let mut out = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                let _ = dev2.poll_cq(&mut out, 1);
                out.clear();
            }
        });
        // At least sometimes we should see LockBusy from our side.
        let mut saw_busy = false;
        let mut out = Vec::new();
        for _ in 0..200_000 {
            match dev.poll_cq(&mut out, 1) {
                Err(NetError::Retry(RetryReason::LockBusy)) => {
                    saw_busy = true;
                    break;
                }
                _ => out.clear(),
            }
        }
        stop.store(true, Ordering::Relaxed);
        t.join().unwrap();
        // On a single-core box the interleaving may never collide, so we
        // do not assert saw_busy; we only assert no deadlock/panic.
        let _ = saw_busy;
    }

    #[test]
    fn dedicated_devices_do_not_share_qps() {
        let fabric = Fabric::new(2);
        let c0 = NetContext::new(fabric.clone(), 0);
        let a = c0.create_device(DeviceConfig::ibv());
        let b = c0.create_device(DeviceConfig::ibv());
        assert_eq!(a.dev_id(), 0);
        assert_eq!(b.dev_id(), 1);
        // Target device 1 on rank 1 does not exist yet -> PeerNotReady.
        assert!(matches!(
            b.post_send(1, 1, &[1], 0, 0),
            Err(NetError::Retry(RetryReason::PeerNotReady))
        ));
    }
}
