//! Sender-side message coalescing.
//!
//! Small eager messages bound for the same `(target rank, target
//! device)` are appended to a per-destination aggregation buffer instead
//! of being posted individually. A buffer ships as one
//! [`MsgType::Coalesced`](crate::proto::MsgType) frame when either
//! threshold is met (bytes or sub-message count), when a non-coalesced
//! message to the same destination must not overtake it, or when the
//! progress engine finds it idle. The receive side unpacks the frame and
//! feeds each sub-message — which carries its own full wire header —
//! through the normal matching/AM delivery paths, so matching semantics
//! and per-destination ordering are preserved. The sub-payloads are
//! delivered as refcounted [`PacketView`](crate::PacketView)s into the
//! shared landing packet — no per-sub-message allocation or copy on the
//! demux path.
//!
//! This amortizes the dominant per-message costs of the paper's analysis
//! (§4.2): the endpoint/QP posting lock, the RX-ring slot, and the
//! packet+CQE on the receive side are paid once per frame instead of
//! once per message. The effect is largest on the `ofi` backend
//! (`DeviceConfig::ofi`), whose single endpoint lock serializes every post
//! against every poll.

use crate::proto::{coalesce_pack, COALESCE_SUB_OVERHEAD};
use crate::types::Rank;
use lci_fabric::sync::SpinLock;
use lci_fabric::{BufPool, DevId, PoolBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Coalescing configuration (a [`RuntimeConfig`](crate::RuntimeConfig)
/// field).
#[derive(Clone, Copy, Debug)]
pub struct CoalesceConfig {
    /// Master switch; when off, every send posts individually (the seed
    /// behaviour) and the other fields are ignored.
    pub enabled: bool,
    /// Flush a destination once its frame holds this many payload+header
    /// bytes. Must not exceed the packet payload size (frames are
    /// delivered into pre-posted packets).
    pub max_bytes: usize,
    /// Flush a destination once its frame holds this many sub-messages.
    pub max_msgs: usize,
    /// Only messages up to this size are coalesced; larger eager sends
    /// post individually.
    pub max_sub_size: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        Self { enabled: false, max_bytes: 8192, max_msgs: 64, max_sub_size: 1024 }
    }
}

impl CoalesceConfig {
    /// An enabled configuration flushing at `max_bytes`.
    pub fn enabled_with_bytes(max_bytes: usize) -> Self {
        Self { enabled: true, max_bytes, ..Self::default() }
    }
}

/// A full frame taken out of the coalescer, ready to post. The frame
/// buffer is pool-recycled: dropping it after the post returns the
/// storage for the destination's next frame.
pub(crate) struct Frame {
    pub target: Rank,
    pub target_dev: DevId,
    pub data: PoolBuf,
    /// Sub-messages in the frame (carried in the frame header's aux
    /// field for receive-side validation).
    pub count: usize,
}

/// One destination's open frame.
struct Slot {
    dev: DevId,
    data: PoolBuf,
    count: usize,
    /// Epoch of the last append (for idle detection).
    epoch: u64,
}

/// Per-device aggregation state: one slot list per target rank (the
/// inner list is keyed by target device and is almost always length 1).
pub(crate) struct Coalescer {
    cfg: CoalesceConfig,
    slots: Vec<SpinLock<Vec<Slot>>>,
    /// Recycled storage for frame buffers (the owning device's pool).
    pool: BufPool,
    /// Total buffered sub-messages — the progress/quiesce fast path.
    pending: AtomicUsize,
    /// Bumped by each idle sweep; slots untouched for a full epoch flush.
    epoch: AtomicU64,
}

impl Coalescer {
    pub fn new(cfg: CoalesceConfig, nranks: usize, pool: BufPool) -> Self {
        Self {
            cfg,
            slots: (0..nranks).map(|_| SpinLock::new(Vec::new())).collect(),
            pool,
            pending: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Whether a message of `size` bytes takes the coalescing path.
    pub fn eligible(&self, size: usize) -> bool {
        self.cfg.enabled
            && size <= self.cfg.max_sub_size
            && size + COALESCE_SUB_OVERHEAD <= self.cfg.max_bytes
    }

    /// Buffered sub-messages not yet on the wire.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Appends one sub-message for `(target, dev)`, handing any frame
    /// that became due to `post`: the previous frame when this append
    /// would have overflowed `max_bytes`, and/or the current frame when
    /// it reached a threshold (almost always 0 or 1 frames).
    ///
    /// `post` runs while the destination's slot lock is held: frames for
    /// one destination reach the wire in creation order even when
    /// several threads append concurrently (per-destination frame FIFO,
    /// which the flush-before-non-coalescable ordering rule relies on).
    pub fn append_with<E>(
        &self,
        target: Rank,
        dev: DevId,
        sub_imm: u64,
        payload: &[u8],
        mut post: impl FnMut(Frame) -> Result<(), E>,
    ) -> Result<(), E> {
        let epoch = self.epoch.load(Ordering::Relaxed);
        let mut slots = self.slots[target].lock();
        let slot = match slots.iter_mut().find(|s| s.dev == dev) {
            Some(s) => s,
            None => {
                slots.push(Slot {
                    dev,
                    data: self.pool.take_empty(self.cfg.max_bytes),
                    count: 0,
                    epoch,
                });
                slots.last_mut().unwrap()
            }
        };
        if !slot.data.is_empty()
            && slot.data.len() + COALESCE_SUB_OVERHEAD + payload.len() > self.cfg.max_bytes
        {
            let frame = self.take_slot(target, slot);
            post(frame)?;
        }
        coalesce_pack(slot.data.vec_mut(), sub_imm, payload);
        slot.count += 1;
        slot.epoch = epoch;
        self.pending.fetch_add(1, Ordering::AcqRel);
        if slot.count >= self.cfg.max_msgs || slot.data.len() >= self.cfg.max_bytes {
            let frame = self.take_slot(target, slot);
            post(frame)?;
        }
        Ok(())
    }

    /// Flushes the open frame for `(target, dev)`, if any — the ordering
    /// flush before a non-coalesced message to the same destination.
    /// `post` runs under the slot lock (see [`Self::append_with`]).
    pub fn take_with<E>(
        &self,
        target: Rank,
        dev: DevId,
        mut post: impl FnMut(Frame) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.pending.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let mut slots = self.slots[target].lock();
        if let Some(slot) = slots.iter_mut().find(|s| s.dev == dev && !s.data.is_empty()) {
            let frame = self.take_slot(target, slot);
            post(frame)?;
        }
        Ok(())
    }

    /// Flushes every frame untouched since the previous sweep (called
    /// from the progress engine). A destination being actively appended
    /// to survives one sweep; quiescent ones flush with a latency of at
    /// most two progress calls. `post` runs under the owning slot lock.
    pub fn take_idle_with<E>(&self, mut post: impl FnMut(Frame) -> Result<(), E>) -> Result<(), E> {
        if self.pending.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let now = self.epoch.fetch_add(1, Ordering::Relaxed);
        for (target, slots) in self.slots.iter().enumerate() {
            let mut slots = slots.lock();
            for slot in slots.iter_mut() {
                if !slot.data.is_empty() && slot.epoch < now {
                    let frame = self.take_slot(target, slot);
                    post(frame)?;
                }
            }
        }
        Ok(())
    }

    /// Flushes every open frame (explicit flush). `post` runs under the
    /// owning slot lock.
    pub fn take_all_with<E>(&self, mut post: impl FnMut(Frame) -> Result<(), E>) -> Result<(), E> {
        if self.pending.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        for (target, slots) in self.slots.iter().enumerate() {
            let mut slots = slots.lock();
            for slot in slots.iter_mut() {
                if !slot.data.is_empty() {
                    let frame = self.take_slot(target, slot);
                    post(frame)?;
                }
            }
        }
        Ok(())
    }

    fn take_slot(&self, target: Rank, slot: &mut Slot) -> Frame {
        // Restock the slot from the pool: in the steady state the frame
        // just posted (and dropped) is the buffer handed back here.
        let frame = Frame {
            target,
            target_dev: slot.dev,
            data: std::mem::replace(&mut slot.data, self.pool.take_empty(self.cfg.max_bytes)),
            count: slot.count,
        };
        self.pending.fetch_sub(slot.count, Ordering::AcqRel);
        slot.count = 0;
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::coalesce_unpack;

    fn cfg(max_bytes: usize, max_msgs: usize) -> CoalesceConfig {
        CoalesceConfig { enabled: true, max_bytes, max_msgs, max_sub_size: 256 }
    }

    fn mk(cfg: CoalesceConfig, nranks: usize) -> Coalescer {
        Coalescer::new(cfg, nranks, BufPool::new(lci_fabric::BufPoolConfig::default()))
    }

    /// Test driver: collect flushed frames instead of posting them.
    fn append(c: &Coalescer, target: Rank, dev: DevId, imm: u64, payload: &[u8]) -> Vec<Frame> {
        let mut out = Vec::new();
        c.append_with::<()>(target, dev, imm, payload, |f| {
            out.push(f);
            Ok(())
        })
        .unwrap();
        out
    }

    fn take(c: &Coalescer, target: Rank, dev: DevId) -> Option<Frame> {
        let mut out = None;
        c.take_with::<()>(target, dev, |f| {
            out = Some(f);
            Ok(())
        })
        .unwrap();
        out
    }

    fn take_idle(c: &Coalescer) -> Vec<Frame> {
        let mut out = Vec::new();
        c.take_idle_with::<()>(|f| {
            out.push(f);
            Ok(())
        })
        .unwrap();
        out
    }

    fn take_all(c: &Coalescer) -> Vec<Frame> {
        let mut out = Vec::new();
        c.take_all_with::<()>(|f| {
            out.push(f);
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn count_threshold_flushes() {
        let c = mk(cfg(1 << 20, 3), 2);
        assert!(append(&c, 1, 0, 10, b"a").is_empty());
        assert!(append(&c, 1, 0, 11, b"b").is_empty());
        assert_eq!(c.pending(), 2);
        let frames = append(&c, 1, 0, 12, b"c");
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].count, 3);
        assert_eq!(c.pending(), 0);
        let subs = coalesce_unpack(&frames[0].data).unwrap();
        assert_eq!(subs, vec![(10, b"a".as_slice()), (11, b"b".as_slice()), (12, b"c".as_slice())]);
    }

    #[test]
    fn byte_threshold_flushes_before_overflow() {
        // max_bytes 64: two 20-byte subs fit (2 * 32 = 64 >= threshold →
        // flush after second); a third would overflow first.
        let c = mk(cfg(64, 1000), 1);
        assert!(append(&c, 0, 0, 1, &[0u8; 20]).is_empty());
        let frames = append(&c, 0, 0, 2, &[1u8; 20]);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].data.len() <= 64);
        assert_eq!(frames[0].count, 2);
    }

    #[test]
    fn per_destination_isolation_and_take() {
        let c = mk(cfg(1 << 20, 1000), 3);
        append(&c, 1, 0, 1, b"x");
        append(&c, 2, 0, 2, b"y");
        append(&c, 2, 1, 3, b"z");
        assert_eq!(c.pending(), 3);
        assert!(take(&c, 0, 0).is_none());
        let f = take(&c, 2, 1).unwrap();
        assert_eq!((f.target, f.target_dev, f.count), (2, 1, 1));
        assert_eq!(c.pending(), 2);
        assert_eq!(take_all(&c).len(), 2);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn idle_sweep_gives_one_epoch_grace() {
        let c = mk(cfg(1 << 20, 1000), 1);
        append(&c, 0, 0, 1, b"x");
        // First sweep: appended during the current epoch — survives.
        assert!(take_idle(&c).is_empty());
        // Second sweep: untouched for a full epoch — flushes.
        let frames = take_idle(&c);
        assert_eq!(frames.len(), 1);
        assert_eq!(c.pending(), 0);
        assert!(take_idle(&c).is_empty());
    }

    #[test]
    fn eligibility() {
        let c = mk(cfg(64, 8), 1);
        assert!(c.eligible(0));
        assert!(c.eligible(52)); // 52 + 12 == 64
        assert!(!c.eligible(53)); // would exceed max_bytes alone
        assert!(!c.eligible(257)); // over max_sub_size
        let off = mk(CoalesceConfig::default(), 1);
        assert!(!off.enabled());
        assert!(!off.eligible(1));
    }
}
