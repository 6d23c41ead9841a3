//! What one device owns whatever carries its bytes: the per-target
//! posting locks ([`QpLocks`]) and the completion and receive state
//! ([`DevShared`]). The ibv-like sim ([`crate::sim_ibv`]) and the framed
//! device core ([`crate::framed`]) both sit on them.

use crate::backend::{deliver_bytes, deliver_into, DeviceConfig, TdStrategy};
use crate::fabric::RxEndpoint;
use crate::shm::ring::FrameHeader;
use crate::sync::{Doorbell, LockDiscipline, SpinGuard, SpinLock};
use crate::types::{Cqe, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason};
use crossbeam::queue::ArrayQueue;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CqeKind;

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
