//! What one device owns whatever carries its bytes: the posting locks in
//! the backend's layout ([`QpLocks`] — the one place the paper's two
//! providers differ) and the completion and receive state
//! ([`DevShared`]). The device core ([`crate::framed`]) sits on them.

use crate::backend::{deliver_bytes, deliver_into, BackendKind, DeviceConfig, TdStrategy};
use crate::buf_pool::BufPool;
use crate::fabric::RxEndpoint;
use crate::shm::ring::FrameHeader;
use crate::sync::{Doorbell, LockDiscipline, SpinGuard, SpinLock};
use crate::types::{
    Cqe, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason, WireMsg, WireMsgKind,
};
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

/// Completion and receive state of one device, held by the fabric's
/// registry so whoever delivers into the device reaches it: a poster on
/// the in-memory wire, any drain of its rank, a sibling's `ReadDone`.
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
    /// Staged frames that could not be delivered on arrival.
    rx: RxEndpoint,
    /// Its lock is a leaf, taken blockingly by deliveries and restocks;
    /// only a poll's batch of parked frames try-locks it.
    srq: SpinLock<VecDeque<RecvBufDesc>>,
    posted_recvs: AtomicUsize,
    discipline: LockDiscipline,
}

impl DevShared {
    pub(crate) fn new(dev_id: DevId, cfg: &DeviceConfig) -> DevShared {
        // Room for two drain batches, so neither deque grows on a warm
        // path: every inbound completion consumed a posted receive, and
        // the owner restocks those only as it handles completions. The
        // nominal bound — staging ring plus RX endpoint, 56 KiB a device
        // by default — holds slots a warm device never reaches. An owner
        // that keeps more receives posted grows the SRQ once, while it
        // stocks them.
        let warm = 2 * CQ_DRAIN_BATCH;
        DevShared {
            dev_id,
            cq_staging: ArrayQueue::new((cfg.rx_capacity * 2).max(256)),
            cq: SpinLock::new(VecDeque::with_capacity(warm)),
            bell: Arc::new(Doorbell::new()),
            rx: RxEndpoint::new(cfg.rx_capacity),
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

    /// Whether the device was torn down (its RX endpoint refuses frames).
    pub(crate) fn is_closed(&self) -> bool {
        self.rx.is_closed()
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
            self.collect_staged(&mut cq);
            cq.push_back(cqe);
        }
    }

    /// Moves every staged completion into the polled CQ, oldest first.
    fn collect_staged(&self, cq: &mut VecDeque<Cqe>) {
        while let Some(cqe) = self.cq_staging.pop() {
            cq.push_back(cqe);
        }
    }

    /// Appends to the shared receive queue under one blocking SRQ
    /// acquisition: a restock that bounced off deliveries would let the
    /// SRQ run dry exactly while they are dense.
    pub(crate) fn post_recvs(&self, descs: &[RecvBufDesc]) {
        self.srq.lock().extend(descs.iter().copied());
        self.posted_recvs.fetch_add(descs.len(), Ordering::AcqRel);
    }

    /// Lands frame `h` from `src` — a send, or a write's immediate — on
    /// this device: the NIC's half of every two-sided delivery, whatever
    /// wire carried it. The payload goes straight from where the caller
    /// holds it into the oldest posted receive, its completion staged.
    /// Only a frame that finds earlier frames waiting, no receive posted
    /// or the staging ring full (it is sized for the posts' own
    /// completions) waits on the RX endpoint, staged through `pool`, for
    /// this device's poll: `Retry(RxFull)` if that is full, fatal if
    /// closed.
    ///
    /// The caller holds `src`'s order toward this device — a drain its
    /// channel's drain lock, a post its QP lock — so no frame of `src`
    /// enters the endpoint between the check and the delivery, and any
    /// that entered earlier has been popped (`deliver_inbound` keeps the
    /// completions in order).
    ///
    /// The SRQ lock is taken blockingly whatever the discipline: a miss
    /// would make a delivery a staged copy at random. It is a leaf, held
    /// through the copy, so a teardown that has taken the receives back
    /// has no delivery still writing into one.
    pub(crate) fn land(
        &self,
        src: Rank,
        h: &FrameHeader,
        kind: WireMsgKind,
        payload: &[u8],
        pool: &BufPool,
    ) -> NetResult<()> {
        if self.rx.occupancy() == 0 && !self.staging_full() {
            let mut srq = self.srq.lock();
            if let Some(desc) = srq.pop_front() {
                self.posted_recvs.fetch_sub(1, Ordering::AcqRel);
                let cqe = deliver_bytes(kind, payload, &desc, src, h.src_dev as DevId, h.imm);
                drop(srq);
                self.stage_cqe(cqe?);
                return Ok(());
            }
        }
        // Checked before staging so a frame waiting at a full endpoint
        // is not copied once per attempt.
        if self.rx.is_full() {
            return Err(NetError::Retry(RetryReason::RxFull));
        }
        self.rx.push(WireMsg {
            src_rank: src,
            src_dev: h.src_dev as DevId,
            imm: h.imm,
            kind,
            payload: pool.stage(payload),
        })
    }

    /// Matches parked wire messages against posted receives, oldest
    /// first on both sides. A descriptor is taken *before* its wire
    /// message is popped so the RX ring stays strictly FIFO: when no
    /// receive is posted (RNR) the message simply stays on the wire, like
    /// an RC transport retransmitting in order. Popping first and
    /// re-queueing at the back would let later messages overtake — a
    /// deadlock source when the overtaken message is the one the
    /// receiver is waiting on.
    ///
    /// The messages are counted first, so an empty poll costs no SRQ
    /// round trip and no receive is ever taken in vain: only this poll,
    /// under the CQ lock its caller holds, pops the endpoint, so what it
    /// counted is still there when the receives have been taken.
    /// Messages pushed meanwhile wait for the next poll. The batch is
    /// known before the SRQ is touched, so the SRQ lock is taken once for
    /// it and `posted_recvs` settled with one subtraction of what was
    /// consumed — also when a delivery fails partway.
    ///
    /// Each popped message's completion goes behind what is staged by
    /// then: a frame of its source landed before it was pushed staged its
    /// completion first, possibly after this poll collected the ring.
    fn deliver_inbound(&self, cq: &mut VecDeque<Cqe>, budget: usize) -> NetResult<()> {
        let parked = budget.min(self.rx.occupancy());
        if parked == 0 {
            return Ok(());
        }
        let Some(mut srq) = self.discipline.acquire(&self.srq) else { return Ok(()) };
        let batch = parked.min(srq.len());
        let (mut taken, mut res) = (0, Ok(()));
        while taken < batch && res.is_ok() {
            let desc = srq.pop_front().expect("counted under the SRQ lock");
            let msg = self.rx.pop().expect("only the poll holding the CQ lock pops the endpoint");
            taken += 1;
            self.collect_staged(cq);
            res = deliver_into(&msg, &desc).map(|cqe| cq.push_back(cqe));
        }
        drop(srq);
        if taken > 0 {
            self.posted_recvs.fetch_sub(taken, Ordering::AcqRel);
        }
        res
    }

    /// `poll_cq` once the wire (if any) has been drained: collects
    /// staged completions, delivers up to `budget` parked messages and
    /// hands out up to `max` CQEs.
    pub(crate) fn poll(&self, out: &mut Vec<Cqe>, max: usize, budget: usize) -> NetResult<usize> {
        let mut cq =
            self.discipline.acquire(&self.cq).ok_or(NetError::Retry(RetryReason::LockBusy))?;
        self.collect_staged(&mut cq);
        self.deliver_inbound(&mut cq, budget)?;
        let n = max.min(cq.len());
        out.extend(cq.drain(..n));
        Ok(n)
    }

    /// Closes the RX endpoint (parked messages are dropped with it) and
    /// hands back every still-posted receive — first, so no delivery is
    /// still writing into one — and every undelivered completion. A
    /// delivery racing the teardown may stage a completion nobody polls.
    pub(crate) fn teardown(&self) -> (Vec<Cqe>, Vec<RecvBufDesc>) {
        self.rx.close();
        let descs = self.srq.lock().drain(..).collect();
        self.posted_recvs.store(0, Ordering::Release);
        let mut cq = self.cq.lock();
        self.collect_staged(&mut cq);
        (cq.drain(..).collect(), descs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NetDevice;
    use crate::fabric::Fabric;
    use crate::framed::FramedDevice;
    use crate::sim::SimWire;
    use crate::types::{CqeKind, WirePayload};

    /// Device 0 of rank 0 on a two-rank fabric whose rank 1 has a device
    /// to post to, built as `NetContext::create_device` builds it.
    fn device(cfg: DeviceConfig) -> FramedDevice<SimWire> {
        let fabric = Fabric::new(2);
        fabric.add_device(1, &cfg.with_rx_capacity(8));
        let shared = fabric.add_device(0, &cfg);
        FramedDevice::new(fabric, 0, shared, cfg)
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

    /// Warm traffic, as counts instead of a red-count: over 10 000
    /// messages a device sends itself in bursts of 2 KiB, half of each
    /// burst finding its receive posted and the other half no receive —
    /// so those wait on the RX endpoint, staged through the pool — the
    /// polled CQ, the SRQ and every shelf of the pool keep the capacity
    /// they were built with. One thread drives everything, so the
    /// occupancies repeat.
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
        let post = |bufs: &mut [[u8; 2048]], first: usize| {
            for (slot, buf) in bufs.iter_mut().enumerate() {
                // SAFETY: `bufs` outlives the device's last poll.
                let recv =
                    unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), (first + slot) as u64) };
                dev.post_recv(recv).unwrap();
            }
        };
        for round in 0..10_000 / BURST + 1 {
            let (early, late) = bufs.split_at_mut(BURST / 2);
            post(early, 0);
            for i in 0..BURST {
                // Every other message is signaled: SendDones and
                // RecvDones meet in the CQ.
                match i % 2 {
                    0 => dev.post_inject(0, 0, &payload, round as u64).unwrap(),
                    _ => dev.post_send(0, 0, &payload, round as u64, 1).unwrap(),
                }
            }
            assert_eq!(dev.inbound_pending(), BURST / 2, "the unreceived half parks");
            post(late, BURST / 2);
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
        let shared = DevShared::new(0, &DeviceConfig::shm());
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

    /// A bare `DevShared` over an endpoint holding `parked` 8-byte sends,
    /// message `i` carrying immediate `i`, and receive buffers of `lens`
    /// bytes posted in order, descriptor `i` carrying context `i`.
    fn parked(parked: u64, lens: &[usize]) -> (DevShared, Vec<Vec<u8>>) {
        let cfg = DeviceConfig::ibv().with_discipline(LockDiscipline::TryLock);
        let shared = DevShared::new(0, &cfg.with_rx_capacity(64));
        for imm in 0..parked {
            let payload = WirePayload::from_slice(&imm.to_le_bytes());
            let msg = WireMsg { src_rank: 1, src_dev: 0, imm, kind: WireMsgKind::Send, payload };
            shared.rx.push(msg).unwrap();
        }
        let mut bufs: Vec<Vec<u8>> = lens.iter().map(|&n| vec![0xEE; n]).collect();
        let descs: Vec<RecvBufDesc> = (bufs.iter_mut().enumerate())
            // SAFETY: the buffers are returned to, and outlive, every poll.
            .map(|(i, b)| unsafe { RecvBufDesc::new(b.as_mut_ptr(), b.len(), i as u64) })
            .collect();
        shared.post_recvs(&descs);
        (shared, bufs)
    }

    /// The batch's lock is the SRQ's: a poll that finds it held under the
    /// trylock discipline delivers nothing, leaves every message on the
    /// wire and every receive posted, and the next poll delivers them.
    #[test]
    fn deliver_inbound_bounces_off_a_held_srq() {
        let (shared, _bufs) = parked(3, &[8; 3]);
        let mut out = Vec::new();
        let held = shared.srq.lock();
        assert_eq!(shared.poll(&mut out, 64, 64).unwrap(), 0);
        assert_eq!((shared.rx_occupancy(), shared.posted_recvs()), (3, 3));
        drop(held);
        assert_eq!(shared.poll(&mut out, 64, 64).unwrap(), 3);
        assert_eq!((shared.rx_occupancy(), shared.posted_recvs()), (0, 0));
    }

    /// Fewer receives than parked messages: one poll delivers exactly as
    /// many as are posted, oldest message into oldest receive; the rest
    /// stay on the wire in order, and the posted count ends at zero.
    #[test]
    fn deliver_inbound_delivers_what_is_posted_oldest_first() {
        let (shared, bufs) = parked(5, &[8; 2]);
        let mut out = Vec::new();
        assert_eq!(shared.poll(&mut out, 64, 64).unwrap(), 2);
        assert_eq!(shared.posted_recvs(), 0);
        for (i, cqe) in out.iter().enumerate() {
            assert_eq!(
                (cqe.kind, cqe.ctx, cqe.imm, cqe.len),
                (CqeKind::RecvDone, i as u64, i as u64, 8)
            );
            assert_eq!(bufs[i], (i as u64).to_le_bytes());
        }
        assert_eq!(shared.rx_occupancy(), 3);
        let left: Vec<u64> = std::iter::from_fn(|| shared.rx.pop()).map(|m| m.imm).collect();
        assert_eq!(left, [2, 3, 4]);
    }

    /// A delivery that fails partway — the second receive is too small —
    /// takes the descriptors it consumed off the posted count and no
    /// more; the delivery before it is kept, and the untouched receive
    /// serves the next poll.
    #[test]
    fn deliver_inbound_error_counts_only_what_it_consumed() {
        let (shared, bufs) = parked(3, &[8, 4, 8]);
        let mut out = Vec::new();
        assert!(matches!(shared.poll(&mut out, 64, 64), Err(NetError::Fatal(_))));
        assert_eq!(shared.posted_recvs(), 1, "two descriptors consumed");
        assert_eq!(shared.srq.lock().len(), 1);
        assert_eq!(shared.rx_occupancy(), 1);
        assert_eq!(shared.poll(&mut out, 64, 64).unwrap(), 2);
        assert_eq!(out.iter().map(|c| (c.ctx, c.imm)).collect::<Vec<_>>(), [(0, 0), (2, 2)]);
        assert_eq!(bufs[2], 2u64.to_le_bytes());
        assert_eq!(shared.posted_recvs(), 0);
    }

    /// Per-source order across the two ways in: a frame lands in the one
    /// posted receive, the next from the same source finds none and
    /// parks. A batch whose poll collected the staging ring before the
    /// first completion was staged — here, the batch run on its own —
    /// still hands the two out in send order.
    #[test]
    fn deliver_inbound_puts_an_earlier_arrival_first() {
        let (shared, _bufs) = parked(0, &[8]);
        let pool = BufPool::new(Default::default());
        for imm in 0..2 {
            let h = FrameHeader { imm, ..FrameHeader::default() };
            shared.land(1, &h, WireMsgKind::Send, &imm.to_le_bytes(), &pool).unwrap();
        }
        assert_eq!((shared.rx_occupancy(), shared.posted_recvs()), (1, 0));
        let mut late = [0u8; 8];
        // SAFETY: `late` outlives the delivery below.
        shared.post_recvs(&[unsafe { RecvBufDesc::new(late.as_mut_ptr(), 8, 1) }]);
        let mut cq = VecDeque::new();
        shared.deliver_inbound(&mut cq, CQ_DRAIN_BATCH).unwrap();
        assert_eq!(cq.iter().map(|c| (c.ctx, c.imm)).collect::<Vec<_>>(), [(0, 0), (1, 1)]);
        assert_eq!(late, 1u64.to_le_bytes());
    }
}
