//! What one device owns whatever carries its bytes: the posting locks in
//! the backend's layout ([`QpLocks`] — the one place the paper's two
//! providers differ) and the completion and receive state
//! ([`DevShared`]). The device core ([`crate::framed`]) sits on them.

use crate::backend::{deliver_bytes, deliver_into, BackendKind, DeviceConfig, TdStrategy};
use crate::fabric::RxEndpoint;
use crate::shm::ring::FrameHeader;
use crate::sync::{Doorbell, LockDiscipline, SpinGuard, SpinLock};
use crate::types::{Cqe, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason};
use crossbeam::queue::ArrayQueue;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The posting locks of one device, in the layout of the provider it
/// stands for. The lock itself *is* the modelled resource (the QP
/// spinlock + uUAR doorbell serialization, the endpoint spinlock);
/// nothing sits behind it. Holding the lock toward one target, this is
/// who else waits (the unit test below states the same table):
///
/// | layout | post to another target | `post_recv` | `poll_cq` |
/// |---|---|---|---|
/// | ibv `PerQp` | proceeds | proceeds | proceeds |
/// | ibv `AllQp` | excluded | proceeds | proceeds |
/// | ibv `None` | excluded, always blocking | proceeds | proceeds |
/// | ofi, whatever `TdStrategy` | excluded | excluded | excluded |
///
/// **ibv** (paper §4.2.3, the libibverbs/mlx5 structure; shm and tcp
/// post under it too): every queue pair — one per target rank — has its
/// own posting lock, the completion queue has its own lock, taken by
/// `ibv_poll_cq`, and so has the shared receive queue (both in
/// [`DevShared`]). Pollers contend with each other, *not* with posters:
/// the NIC writes CQEs by DMA, modelled as the lock-free staging ring.
/// The `ibv_td_strategy` attribute ([`TdStrategy`]) controls QP lock
/// sharing: `PerQp` gives every QP its own trylock-wrapped lock, `AllQp`
/// shares one trylock-wrapped lock across all QPs, `None` shares one
/// lock that is always acquired *blockingly*. With `PerQp`, a worker
/// thread posting a send and a progress thread polling the CQ touch
/// disjoint locks — the contention-free guarantee the paper highlights
/// for AMT-style runtimes.
///
/// **ofi** (paper §4.2.4, the libfabric cxi/verbs provider structure):
/// **one spinlock per endpoint** guards `post_send`, `post_recv` *and*
/// `poll_cq`, so a worker thread posting and a progress thread polling
/// the same device always contend — which is why a batch is the whole
/// point there: the lock is paid once for N messages or N receives
/// instead of N times, and that directly shortens the critical section
/// other threads wait on. LCI wraps the endpoint lock in a single
/// trylock; baselines use blocking acquisition
/// ([`LockDiscipline::Blocking`]), which is how stock MPI implementations
/// drive libfabric. The layout is all §4.2.4 adds, so it is all
/// `BackendKind::Ofi` selects: the lock is taken around the same CQ, SRQ
/// and staging structures the ibv layout uses, whose own (then
/// uncontended) locks are still taken — the measured price of one device
/// body (DESIGN.md §1).
pub(crate) struct QpLocks {
    /// One entry per target rank; entries alias the same lock under
    /// `AllQp`, `None` and the ofi layout.
    locks: Vec<Arc<SpinLock<()>>>,
    /// Under `TdStrategy::None` the lock is the provider's own, which
    /// LCI cannot trylock-wrap: blocking whatever the device discipline.
    discipline: LockDiscipline,
    /// The ofi layout: the one lock every entry of `locks` aliases also
    /// covers receive posts and polls.
    endpoint: Option<Arc<SpinLock<()>>>,
}

impl QpLocks {
    /// The layout `cfg.backend` calls for. The thread-domain strategy is
    /// an ibv attribute: an ofi endpoint has one lock and nothing to
    /// choose.
    pub(crate) fn new(cfg: &DeviceConfig, nranks: usize) -> QpLocks {
        let (td, ofi) = (cfg.td_strategy, cfg.backend == BackendKind::Ofi);
        let fresh = || Arc::new(SpinLock::new(()));
        let one = (ofi || td != TdStrategy::PerQp).then(fresh);
        let blocking = td == TdStrategy::None && !ofi;
        QpLocks {
            locks: (0..nranks).map(|_| one.clone().unwrap_or_else(fresh)).collect(),
            discipline: if blocking { LockDiscipline::Blocking } else { cfg.discipline },
            endpoint: one.filter(|_| ofi),
        }
    }

    /// The effective discipline: what a post that takes further locks
    /// along its way (the wire's sender) acquires them with.
    pub(crate) fn discipline(&self) -> LockDiscipline {
        self.discipline
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

    /// What `post_recv*` and `poll_cq` take before anything else: the
    /// endpoint lock under the ofi layout, per the device's discipline;
    /// nothing under the ibv layouts, where the SRQ and the CQ have
    /// locks of their own.
    #[inline]
    pub(crate) fn lock_endpoint(&self) -> NetResult<Option<SpinGuard<'_, ()>>> {
        let Some(lock) = &self.endpoint else { return Ok(None) };
        self.discipline.acquire(lock).map(Some).ok_or(NetError::Retry(RetryReason::LockBusy))
    }
}

/// How many inbound wire messages one `poll_cq` may convert to
/// completions while it holds the CQ/endpoint lock: enough to amortize
/// the acquisition, few enough that no poll monopolizes the lock.
pub(crate) const CQ_DRAIN_BATCH: usize = 64;

/// Completion and receive state of one device. Shared with the rank
/// state so a wire drain running on a *sibling* device's poll can stage
/// `ReadDone` CQEs on the posting device.
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
    /// What [`NetDevice::doorbell`](crate::backend::NetDevice::doorbell)
    /// hands out. Nothing in this crate rings it: progress is whoever
    /// polls.
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
        // Room for two drain batches, so neither deque grows on a warm
        // path: every inbound completion consumed a posted receive, and
        // the owner restocks those only as it handles completions. The
        // nominal bound — staging ring plus RX window, 576 KiB a device
        // by default — is a tenth of a small runtime's heap for slots a
        // warm device never reaches. An owner that keeps more receives
        // posted grows the SRQ once, while it stocks them.
        let warm = 2 * CQ_DRAIN_BATCH;
        DevShared {
            dev_id,
            cq_staging: ArrayQueue::new((cfg.rx_capacity * 2).max(256)),
            cq: SpinLock::new(VecDeque::with_capacity(warm)),
            bell,
            rx,
            srq: SpinLock::new(VecDeque::with_capacity(warm)),
            posted_recvs: AtomicUsize::new(0),
            discipline: cfg.discipline,
        }
    }

    pub(crate) fn dev_id(&self) -> DevId {
        self.dev_id
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

    /// Staging ring first, polled CQ as spillover, never dropped. The
    /// spillover moves everything staged so far into the CQ ahead of
    /// `cqe`: one thread's completions (a drain's
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
    }

    /// Appends to the shared receive queue under one lock acquisition
    /// (delivery happens in `poll_cq`).
    pub(crate) fn post_recvs(&self, descs: &[RecvBufDesc]) -> NetResult<usize> {
        let mut srq =
            self.discipline.acquire(&self.srq).ok_or(NetError::Retry(RetryReason::LockBusy))?;
        srq.extend(descs.iter().copied());
        self.posted_recvs.fetch_add(descs.len(), Ordering::AcqRel);
        Ok(descs.len())
    }

    /// Delivers a `KIND_SEND` frame straight from the wire's buffer (a
    /// ring slot, a spill range, a decode buffer) into the next posted
    /// receive and stages its `RecvDone` — the frame never becomes a
    /// `WireMsg`. Returns `false`, touching nothing, when the frame
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
    pub(crate) fn deliver_send(
        &self,
        src: Rank,
        h: &FrameHeader,
        payload: &[u8],
    ) -> NetResult<bool> {
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
    ///
    /// The messages are counted first, so an empty poll costs no SRQ
    /// round trip and no receive is ever taken in vain: only this poll,
    /// under the CQ lock its caller holds, pops the endpoint, so what it
    /// counted is still there when the receive has been taken. Messages
    /// pushed meanwhile wait for the next poll.
    fn deliver_inbound(&self, cq: &mut VecDeque<Cqe>, budget: usize) -> NetResult<()> {
        for _ in 0..budget.min(self.rx.occupancy()) {
            let Some(desc) = self.next_recv() else { break };
            let msg = self.rx.pop().expect("only the poll holding the CQ lock pops the endpoint");
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NetDevice;
    use crate::fabric::Fabric;
    use crate::framed::FramedDevice;
    use crate::sim::SimWire;
    use crate::types::CqeKind;

    /// Device 0 of rank 0 on a two-rank fabric whose rank 1 has a device
    /// to post to, built as `NetContext::create_device` builds it.
    fn device(cfg: DeviceConfig) -> FramedDevice<SimWire> {
        let fabric = Fabric::new(2);
        fabric.add_device(1, Arc::new(RxEndpoint::new(8)));
        let rx = Arc::new(RxEndpoint::new(cfg.rx_capacity));
        let dev_id = fabric.add_device(0, rx.clone());
        FramedDevice::new(fabric, 0, dev_id, rx, Arc::new(Doorbell::new()), cfg)
    }

    /// The table in [`QpLocks`]' documentation, on real devices: with the
    /// posting lock toward rank 0 held (a post in flight on another
    /// thread), what a post toward rank 1, a receive post and a poll find
    /// under the trylock discipline — and that all of them proceed once
    /// it is released. Under `TdStrategy::None` the other post is not
    /// tried: the lock is the provider's own, acquired blockingly
    /// whatever the device asked for, so it would wait here for ever.
    #[test]
    fn a_held_posting_lock_excludes_what_its_layout_says() {
        let layouts = [
            // (device, other post excluded, post_recv and poll_cq excluded)
            (DeviceConfig::ibv().with_td_strategy(TdStrategy::PerQp), Some(false), false),
            (DeviceConfig::ibv().with_td_strategy(TdStrategy::AllQp), Some(true), false),
            (DeviceConfig::shm().with_td_strategy(TdStrategy::AllQp), Some(true), false),
            (DeviceConfig::ibv().with_td_strategy(TdStrategy::None), None, false),
            (DeviceConfig::ofi(), Some(true), true),
            // The endpoint lock is LCI's to wrap: `None` does not reach it.
            (DeviceConfig::ofi().with_td_strategy(TdStrategy::None), Some(true), true),
        ];
        let busy = NetError::Retry(RetryReason::LockBusy);
        for (cfg, post_excluded, endpoint_excluded) in layouts {
            let dev = device(cfg.with_discipline(LockDiscipline::TryLock));
            let mut buf = [0u8; 8];
            // SAFETY: nothing is ever sent to this device; `buf` outlives it.
            let recv = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), 0) };
            let mut out = Vec::new();
            let excluded = |res: NetResult<()>, what: &str| match res {
                Ok(()) => false,
                Err(e) if e == busy => true,
                Err(e) => panic!("{what} under {cfg:?}: {e:?}"),
            };

            let held = dev.qps.lock(0).unwrap();
            match post_excluded {
                Some(want) => {
                    assert_eq!(excluded(dev.post_send(1, 0, &[1], 0, 0), "post"), want, "{cfg:?}")
                }
                None => {
                    assert_eq!(dev.qps.discipline(), LockDiscipline::Blocking);
                    assert!(Arc::ptr_eq(&dev.qps.locks[0], &dev.qps.locks[1]));
                }
            }
            assert_eq!(excluded(dev.post_recv(recv), "post_recv"), endpoint_excluded, "{cfg:?}");
            let polled = dev.poll_cq(&mut out, 8).map(drop);
            assert_eq!(excluded(polled, "poll_cq"), endpoint_excluded, "{cfg:?}");
            drop(held);

            dev.post_send(1, 0, &[1], 0, 0).unwrap();
            dev.post_recv(recv).unwrap();
            dev.poll_cq(&mut out, 8).unwrap();
            let sends = 1 + usize::from(post_excluded == Some(false));
            assert_eq!(out.len(), sends, "SendDones under {cfg:?}");
            assert_eq!(dev.posted_recvs(), 1 + usize::from(!endpoint_excluded), "{cfg:?}");
        }
    }

    /// ROADMAP item 0's two sites, as counts instead of a red-count: over
    /// 10 000 messages a device sends itself in bursts — 2 KiB each, so
    /// the wire stages every one through the pool — the polled CQ, the
    /// SRQ and every shelf of the pool keep the capacity they were built
    /// with. One thread drives everything, so the occupancies repeat.
    #[test]
    fn warm_traffic_grows_neither_deque_nor_any_shelf() {
        const BURST: usize = 32;
        let dev = device(DeviceConfig::ibv());
        let capacities = || {
            let (cq, srq) = (dev.shared.cq.lock().capacity(), dev.shared.srq.lock().capacity());
            (cq, srq, dev.buf_pool().shelf_capacities())
        };
        let built = capacities();
        assert!(built.0 >= 2 * BURST && built.2.iter().all(|&c| c > 0), "{built:?}");
        let mut bufs = vec![[0u8; 2048]; BURST];
        let (payload, mut out, mut got) = ([7u8; 2048], Vec::new(), 0);
        for round in 0..10_000 / BURST + 1 {
            for (slot, buf) in bufs.iter_mut().enumerate() {
                // SAFETY: `bufs` outlives the device's last poll.
                let recv = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), slot as u64) };
                dev.post_recv(recv).unwrap();
            }
            for i in 0..BURST {
                // Every other message is signaled: SendDones and
                // RecvDones meet in the CQ.
                match i % 2 {
                    0 => dev.post_inject(0, 0, &payload, round as u64).unwrap(),
                    _ => dev.post_send(0, 0, &payload, round as u64, 1).unwrap(),
                }
            }
            while got < (round + 1) * BURST {
                out.clear();
                dev.poll_cq(&mut out, 8).unwrap();
                got += out.iter().filter(|c| c.kind == CqeKind::RecvDone).count();
            }
        }
        assert!(dev.buf_pool_stats().recycled_bytes > 0, "nothing went through a shelf");
        assert_eq!(capacities(), built);
    }

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
