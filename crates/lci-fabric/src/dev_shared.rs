//! What one device owns whatever carries its bytes: the posting locks in
//! the backend's layout ([`QpLocks`] — the one place the paper's two
//! providers differ) and the completion and receive state
//! ([`DevShared`]). The device core ([`crate::framed`]) sits on them.

use crate::backend::{deliver_bytes, BackendKind, DeviceConfig};
use crate::shm::ring::FrameHeader;
use crate::sync::{Doorbell, LockDiscipline, MpmcRing, SpinGuard, SpinLock};
use crate::types::{Cqe, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason, WireMsgKind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// The posting locks of one device, in the layout of the provider it
/// stands for. The lock itself *is* the modelled resource (the QP
/// spinlock + uUAR doorbell serialization, the endpoint spinlock);
/// nothing sits behind it. Holding the lock toward one target, this is
/// who else waits (the unit test below states the same table):
///
/// | layout | post to another target | `post_recv` | `poll_cq` |
/// |---|---|---|---|
/// | ibv | proceeds | proceeds | proceeds |
/// | ofi | excluded | excluded | excluded |
///
/// **ibv** (paper §4.2.3, the libibverbs/mlx5 structure; shm and tcp
/// post under it too): every queue pair — one per target rank — has its
/// own posting lock, the completion queue has its own lock, taken by
/// `ibv_poll_cq`, and so has the shared receive queue (both in
/// [`DevShared`]). Pollers contend with each other, *not* with posters:
/// the NIC writes CQEs by DMA, modelled as the lock-free staging ring.
/// Every QP's lock is its own and trylock-wrapped (the paper's
/// per-QP thread domains), so a worker thread posting a send and a
/// progress thread polling the CQ touch disjoint locks — the
/// contention-free guarantee the paper highlights for AMT-style
/// runtimes.
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
    /// One entry per target rank; entries alias the same lock under the
    /// ofi layout.
    locks: Vec<Arc<SpinLock<()>>>,
    discipline: LockDiscipline,
    /// The ofi layout: the one lock every entry of `locks` aliases also
    /// covers receive posts and polls.
    endpoint: Option<Arc<SpinLock<()>>>,
}

impl QpLocks {
    /// The layout `cfg.backend` calls for.
    pub(crate) fn new(cfg: &DeviceConfig, nranks: usize) -> QpLocks {
        let fresh = || Arc::new(SpinLock::new(()));
        let endpoint = (cfg.backend == BackendKind::Ofi).then(fresh);
        QpLocks {
            locks: (0..nranks).map(|_| endpoint.clone().unwrap_or_else(fresh)).collect(),
            discipline: cfg.discipline,
            endpoint,
        }
    }

    /// Acquires the QP lock for `target` per the device's discipline.
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
    /// nothing under the ibv layout, where the SRQ and the CQ have locks
    /// of their own.
    #[inline]
    pub(crate) fn lock_endpoint(&self) -> NetResult<Option<SpinGuard<'_, ()>>> {
        let Some(lock) = &self.endpoint else { return Ok(None) };
        self.discipline.acquire(lock).map(Some).ok_or(NetError::Retry(RetryReason::LockBusy))
    }
}

/// How many inbound frames one `poll_cq` lets its wire's drain offer per
/// peer: enough to amortize the drain's locks, few enough that no poll
/// monopolizes them.
pub(crate) const CQ_DRAIN_BATCH: usize = 64;

/// Slots of a device's completion staging ring.
const CQ_STAGING: usize = 512;

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
    cq_staging: MpmcRing<Cqe>,
    /// The polled CQ; its lock models the `ibv_poll_cq` spinlock.
    cq: SpinLock<VecDeque<Cqe>>,
    /// What [`NetDevice::doorbell`](crate::backend::NetDevice::doorbell)
    /// hands out. Nothing in this crate rings it: progress is whoever
    /// polls.
    bell: Arc<Doorbell>,
    /// Set by the teardown: a frame landing from then on is refused for
    /// good.
    closed: AtomicBool,
    /// Its lock is a leaf, taken blockingly by every delivery and
    /// restock.
    srq: SpinLock<VecDeque<RecvBufDesc>>,
    /// The SRQ's length, stored under its lock by whoever changes it:
    /// a load outside the lock reads it without taking the lock.
    posted_recvs: AtomicUsize,
    discipline: LockDiscipline,
}

impl DevShared {
    pub(crate) fn new(dev_id: DevId, cfg: &DeviceConfig) -> DevShared {
        // Room for two drain batches, so neither deque grows on a warm
        // path: every inbound completion consumed a posted receive, and
        // the owner restocks those only as it handles completions. The
        // staging ring's nominal bound holds slots a warm device never
        // reaches. An owner that keeps more receives posted grows the
        // SRQ once, while it stocks them.
        let warm = 2 * CQ_DRAIN_BATCH;
        DevShared {
            dev_id,
            cq_staging: MpmcRing::new(CQ_STAGING),
            cq: SpinLock::new(VecDeque::with_capacity(warm)),
            bell: Arc::new(Doorbell::new()),
            closed: AtomicBool::new(false),
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

    /// Whether the device was torn down.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Whether a post must back off because its completion could not be
    /// staged lock-free.
    pub(crate) fn staging_full(&self) -> bool {
        self.cq_staging.is_full()
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
        if let Err(cqe) = self.cq_staging.try_push(cqe) {
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
        let mut srq = self.srq.lock();
        srq.extend(descs.iter().copied());
        self.posted_recvs.store(srq.len(), Ordering::Release);
    }

    /// Lands frame `h` from `src` — a send, or a write's immediate — on
    /// this device: the NIC's half of every two-sided delivery, whatever
    /// wire carried it. Either the payload goes straight from where the
    /// caller holds it into the oldest posted receive and its completion
    /// is staged, or the frame is refused and stays with the caller: no
    /// receive posted is `Retry(RxFull)` (the transport's
    /// receiver-not-ready), a full staging ring `Retry(QueueFull)`, a
    /// torn-down device fatal. A refused post stays with its poster, a
    /// refused drained frame at the head of its wire.
    ///
    /// The caller holds `src`'s order toward this device — a drain its
    /// channel's drain lock, a post its QP lock — and nothing waits
    /// here, so a source's frames land in the order it offers them.
    ///
    /// The SRQ lock is taken blockingly whatever the discipline: a miss
    /// would refuse a frame at random. It is a leaf, held through the
    /// copy, so a teardown that has taken the receives back has no
    /// delivery still writing into one.
    pub(crate) fn land(
        &self,
        src: Rank,
        h: &FrameHeader,
        kind: WireMsgKind,
        payload: &[u8],
    ) -> NetResult<()> {
        if self.staging_full() {
            return Err(NetError::Retry(RetryReason::QueueFull));
        }
        let mut srq = self.srq.lock();
        let Some(desc) = srq.pop_front() else {
            drop(srq);
            return Err(match self.is_closed() {
                true => NetError::fatal("target device closed"),
                false => NetError::Retry(RetryReason::RxFull),
            });
        };
        self.posted_recvs.store(srq.len(), Ordering::Release);
        let cqe = deliver_bytes(kind, payload, &desc, src, h.src_dev as DevId, h.imm);
        drop(srq);
        self.stage_cqe(cqe?);
        Ok(())
    }

    /// `poll_cq` once the wire (if any) has been drained: collects
    /// staged completions and hands out up to `max` CQEs.
    pub(crate) fn poll(&self, out: &mut Vec<Cqe>, max: usize) -> NetResult<usize> {
        let mut cq =
            self.discipline.acquire(&self.cq).ok_or(NetError::Retry(RetryReason::LockBusy))?;
        self.collect_staged(&mut cq);
        let n = max.min(cq.len());
        out.extend(cq.drain(..n));
        Ok(n)
    }

    /// Closes the device and hands back every still-posted receive —
    /// first, so no delivery is still writing into one — and every
    /// undelivered completion. A delivery racing the teardown may stage
    /// a completion nobody polls.
    pub(crate) fn teardown(&self) -> (Vec<Cqe>, Vec<RecvBufDesc>) {
        self.closed.store(true, Ordering::Release);
        let descs = {
            let mut srq = self.srq.lock();
            self.posted_recvs.store(0, Ordering::Release);
            srq.drain(..).collect()
        };
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
    use crate::types::CqeKind;

    /// Device 0 of rank 0 on a two-rank fabric, built as
    /// `NetContext::create_device` builds it, and the state of rank 1's
    /// device, for the posts to land in.
    fn device(cfg: DeviceConfig) -> (FramedDevice<SimWire>, Arc<DevShared>) {
        let fabric = Fabric::new(2);
        let peer = fabric.add_device(1, &cfg);
        let shared = fabric.add_device(0, &cfg);
        (FramedDevice::new(fabric, 0, shared, cfg), peer)
    }

    /// The table in [`QpLocks`]' documentation, on real devices: with the
    /// posting lock toward rank 0 held (a post in flight on another
    /// thread), what a post toward rank 1, a receive post and a poll find
    /// under the trylock discipline — and that all of them proceed once
    /// it is released. Rank 1 posts its receives first, so a post that
    /// gets through lands.
    #[test]
    fn a_held_posting_lock_excludes_what_its_layout_says() {
        let layouts = [
            // (device, other post excluded, post_recv and poll_cq excluded)
            (DeviceConfig::ibv(), false, false),
            (DeviceConfig::shm(), false, false),
            (DeviceConfig::ofi(), true, true),
        ];
        let busy = NetError::Retry(RetryReason::LockBusy);
        for (cfg, post_excluded, endpoint_excluded) in layouts {
            let (dev, peer) = device(cfg.with_discipline(LockDiscipline::TryLock));
            let mut peer_bufs = [[0u8; 8]; 2];
            // SAFETY: `peer_bufs` outlives both devices.
            let peer_recvs =
                peer_bufs.each_mut().map(|b| unsafe { RecvBufDesc::new(b.as_mut_ptr(), 8, 0) });
            peer.post_recvs(&peer_recvs);
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
            let post = dev.post_send(1, 0, &[1], 0, 0);
            assert_eq!(excluded(post, "post"), post_excluded, "{cfg:?}");
            assert_eq!(excluded(dev.post_recv(recv), "post_recv"), endpoint_excluded, "{cfg:?}");
            let polled = dev.poll_cq(&mut out, 8).map(drop);
            assert_eq!(excluded(polled, "poll_cq"), endpoint_excluded, "{cfg:?}");
            drop(held);

            dev.post_send(1, 0, &[1], 0, 0).unwrap();
            dev.post_recv(recv).unwrap();
            dev.poll_cq(&mut out, 8).unwrap();
            let sends = 1 + usize::from(!post_excluded);
            assert_eq!(out.len(), sends, "SendDones under {cfg:?}");
            assert_eq!(peer.posted_recvs(), 2 - sends, "{cfg:?}");
            assert_eq!(dev.posted_recvs(), 1 + usize::from(!endpoint_excluded), "{cfg:?}");
        }
    }

    /// Warm traffic, as counts instead of a red-count: over 10 000
    /// messages a device sends itself in bursts of 2 KiB, half of each
    /// burst finding its receive posted and the other half refused
    /// (no receive posted) and posted again once the receives are — the
    /// polled CQ and the SRQ keep the capacity they were built with. One
    /// thread drives everything, so the occupancies repeat.
    #[test]
    fn warm_traffic_grows_neither_deque() {
        const BURST: usize = 32;
        let (dev, _peer) = device(DeviceConfig::ibv());
        let capacities = || (dev.shared.cq.lock().capacity(), dev.shared.srq.lock().capacity());
        let built = capacities();
        assert!(built.0 >= 2 * BURST && built.1 >= 2 * BURST, "{built:?}");
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
        // Every other message is signaled: SendDones and RecvDones meet
        // in the CQ.
        let send = |i: usize, round: usize| match i % 2 {
            0 => dev.post_inject(0, 0, &payload, round as u64),
            _ => dev.post_send(0, 0, &payload, round as u64, 1),
        };
        let rnr = NetError::Retry(RetryReason::RxFull);
        for round in 0..10_000 / BURST + 1 {
            let (early, late) = bufs.split_at_mut(BURST / 2);
            post(early, 0);
            for i in 0..BURST {
                let sent = send(i, round);
                assert_eq!(sent.err(), (i >= BURST / 2).then(|| rnr.clone()), "message {i}");
            }
            assert_eq!(dev.inbound_pending(), 0, "a refused message is nowhere");
            post(late, BURST / 2);
            for i in BURST / 2..BURST {
                send(i, round).unwrap();
            }
            while got < (round + 1) * BURST {
                out.clear();
                dev.poll_cq(&mut out, 8).unwrap();
                got += out.iter().filter(|c| c.kind == CqeKind::RecvDone).count();
            }
        }
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
                shared.poll(&mut out, 7).unwrap();
            }
        }
        while out.len() < total as usize {
            assert!(shared.poll(&mut out, 64).unwrap() > 0, "completions lost");
        }
        assert!(out.iter().map(|c| c.ctx).eq(0..total));
    }

    /// `land` delivers or refuses, and a refusal leaves nothing behind:
    /// with no receive posted a frame is `Retry(RxFull)`; with receives
    /// posted but the staging ring full it is `Retry(QueueFull)` and the
    /// receive stays posted, untouched; offered again once there is
    /// room, it lands in the oldest receive, in offer order. Once the
    /// device is torn down a frame is fatal.
    #[test]
    fn land_delivers_or_refuses_and_a_refusal_leaves_nothing() {
        let shared = DevShared::new(0, &DeviceConfig::ibv());
        let frame = |imm: u64| FrameHeader { imm, src_dev: 2, ..FrameHeader::default() };
        let land = |imm: u64| shared.land(1, &frame(imm), WireMsgKind::Send, &imm.to_le_bytes());
        let mut out = Vec::new();
        assert_eq!(land(0), Err(NetError::Retry(RetryReason::RxFull)));
        assert_eq!((shared.poll(&mut out, 64).unwrap(), shared.posted_recvs()), (0, 0));

        let mut bufs = [[0xEEu8; 8]; 2];
        // SAFETY: `bufs` outlives every landing below.
        let descs = [0, 1].map(|i| unsafe { RecvBufDesc::new(bufs[i].as_mut_ptr(), 8, i as u64) });
        shared.post_recvs(&descs);
        let mut filler = 0;
        while !shared.staging_full() {
            shared.stage_cqe(Cqe::local(CqeKind::SendDone, filler));
            filler += 1;
        }
        assert_eq!(land(0), Err(NetError::Retry(RetryReason::QueueFull)));
        assert_eq!((shared.posted_recvs(), bufs[0]), (2, [0xEE; 8]), "a refusal took a receive");
        out.clear();
        while shared.poll(&mut out, 64).unwrap() > 0 {}
        assert_eq!(out.len() as u64, filler);

        for imm in 0..2 {
            land(imm).unwrap();
        }
        out.clear();
        shared.poll(&mut out, 64).unwrap();
        let got: Vec<_> =
            out.iter().map(|c| (c.kind, c.ctx, c.imm, c.len, c.src_rank, c.src_dev)).collect();
        let want = |i: u64| (CqeKind::RecvDone, i, i, 8, 1, 2);
        assert_eq!(got, [want(0), want(1)]);
        assert_eq!(bufs, [0u64.to_le_bytes(), 1u64.to_le_bytes()]);

        assert_eq!(shared.teardown().1.len(), 0);
        assert!(matches!(land(2), Err(NetError::Fatal(_))), "a torn-down device took a frame");
    }

    /// `posted_recvs` is exact: two threads land frames while a third
    /// restocks the receives the completions free and polls. Under the
    /// SRQ lock the count always equals the SRQ's length, a lander never
    /// reads more receives than there are, and at the end every frame
    /// was delivered once, intact, into a receive that was posted and
    /// not yet used. The first thread to see a failure stops the others,
    /// so a failure cannot turn into a hang.
    #[test]
    fn land_racing_a_restock_keeps_posted_recvs_exact() {
        const PER_LANDER: u64 = 20_000;
        const BUFS: usize = 48;
        let shared = DevShared::new(0, &DeviceConfig::ibv());
        let stop = AtomicBool::new(false);
        let fail = |msg: String| {
            stop.store(true, Ordering::Relaxed);
            msg
        };
        let mut bufs = vec![[0u8; 8]; BUFS];
        let base = bufs.as_mut_ptr() as usize;
        // SAFETY: `bufs` outlives every landing (the threads are joined
        // first); a buffer is posted again only after its completion was
        // polled and read, so a landing and a read never overlap.
        let desc = |i: usize| unsafe {
            RecvBufDesc::new((base as *mut [u8; 8]).add(i).cast(), 8, i as u64)
        };
        let read = |i: usize| unsafe { ((base as *const [u8; 8]).add(i)).read() };
        let frame = |imm: u64| FrameHeader { imm, ..FrameHeader::default() };
        let land = |lander: u64| {
            for seq in 0..PER_LANDER {
                let imm = (lander << 32) | seq;
                while let Err(e) =
                    shared.land(1, &frame(imm), WireMsgKind::Send, &imm.to_le_bytes())
                {
                    let posted = shared.posted_recvs();
                    if !matches!(e, NetError::Retry(_)) || posted > BUFS {
                        return Err(fail(format!("{e:?} with posted_recvs {posted}")));
                    }
                    if stop.load(Ordering::Relaxed) {
                        return Ok(());
                    }
                    std::hint::spin_loop();
                }
            }
            Ok(())
        };
        let restock = || {
            let (mut seen, mut out) = (Vec::new(), Vec::new());
            let mut free: Vec<usize> = (0..BUFS).collect();
            while seen.len() < 2 * PER_LANDER as usize && !stop.load(Ordering::Relaxed) {
                let batch: Vec<_> = free.drain(..free.len().min(8)).map(desc).collect();
                shared.post_recvs(&batch);
                let (posted, queued) = {
                    let srq = shared.srq.lock();
                    (shared.posted_recvs(), srq.len())
                };
                if posted != queued {
                    return Err(fail(format!("posted_recvs {posted}, SRQ {queued}")));
                }
                out.clear();
                shared.poll(&mut out, 16).unwrap();
                for c in &out {
                    let i = c.ctx as usize;
                    if read(i) != c.imm.to_le_bytes() || free.contains(&i) {
                        return Err(fail(format!("receive {i} completed twice or damaged")));
                    }
                    free.push(i);
                    seen.push(c.imm);
                }
            }
            Ok((seen, free.len()))
        };
        let (landed, restocked) = std::thread::scope(|s| {
            let landers = [0, 1].map(|l| s.spawn(move || land(l)));
            let restocked = restock();
            (landers.map(|h| h.join().unwrap()), restocked)
        });
        landed.into_iter().collect::<Result<(), _>>().unwrap();
        let (mut seen, free) = restocked.unwrap();
        assert_eq!(shared.posted_recvs(), shared.srq.lock().len());
        assert_eq!(shared.posted_recvs(), BUFS - free, "a receive went missing");
        seen.sort_unstable();
        let want: Vec<u64> =
            (0..2).flat_map(|l| (0..PER_LANDER).map(move |q| (l << 32) | q)).collect();
        assert_eq!(seen, want, "a frame was lost or delivered twice");
    }
}
