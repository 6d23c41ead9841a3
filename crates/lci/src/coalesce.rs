//! Sender-side message coalescing.
//!
//! Small eager messages bound for the same `(target rank, target
//! device)` are appended to a per-destination aggregation buffer instead
//! of being posted individually. A buffer ships as one
//! [`MsgType::Coalesced`](crate::proto::MsgType) frame when the next
//! record would not fit `max_bytes`, when a non-coalesced message to the
//! same destination must not overtake it, or when the progress engine
//! finds it idle. The receive side walks the frame in place and feeds
//! each sub-message — which carries its own full wire header — through
//! the normal matching/AM delivery paths, so matching semantics and
//! per-destination ordering are preserved. The sub-payloads are
//! delivered as [`PacketView`](crate::PacketView)s into the shared
//! landing packet, whose count is set once per frame — no
//! per-sub-message allocation, copy or refcount on the demux path.
//!
//! This amortizes the dominant per-message costs of the paper's analysis
//! (§4.2): the endpoint/QP posting lock, the wire slot, and the
//! packet+CQE on the receive side are paid once per frame instead of
//! once per message. An append itself takes the destination's slot lock
//! and copies the record, and no shared counter: the open-frame count
//! and the device's `coalesced_msgs` move once per frame. The effect is
//! largest on the `ofi` backend (`DeviceConfig::ofi`), whose single
//! endpoint lock serializes every post against every poll.

use crate::proto::{coalesce_pack, COALESCE_SUB_OVERHEAD};
use crate::types::Rank;
use lci_fabric::sync::SpinLock;
use lci_fabric::{BufPool, DevId, PoolBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Coalescing configuration (a [`RuntimeConfig`](crate::RuntimeConfig)
/// field).
///
/// A frame ships when the next record would take it past `max_bytes`
/// (so it fills its packet: 292 16-byte messages in 8 KiB), when a
/// message to the same destination must not overtake it, when the
/// progress engine finds it idle, or on an explicit flush. Every record
/// costs its payload plus a 12-byte record header, and the frame's
/// record count travels in the 24-bit aux field of its header, so
/// `max_bytes / 12` must stay below 2^24.
#[derive(Clone, Copy, Debug)]
pub struct CoalesceConfig {
    /// Master switch; when off, every send posts individually (the seed
    /// behaviour) and the other fields are ignored.
    pub enabled: bool,
    /// The most payload+header bytes a frame holds. Must not exceed the
    /// packet payload size (frames are delivered into pre-posted
    /// packets).
    pub max_bytes: usize,
}

/// Only messages up to this size are coalesced; larger eager sends post
/// individually.
const MAX_SUB_SIZE: usize = 1024;

impl Default for CoalesceConfig {
    fn default() -> Self {
        Self { enabled: false, max_bytes: 8192 }
    }
}

impl CoalesceConfig {
    /// An enabled configuration flushing at `max_bytes`.
    pub fn enabled_with_bytes(max_bytes: usize) -> Self {
        Self { enabled: true, max_bytes }
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
    /// Slots holding at least one record — the flush paths' fast path.
    /// It moves when a frame opens or ships, never per append.
    open: AtomicUsize,
    /// Bumped by each idle sweep; slots untouched for a full epoch flush.
    epoch: AtomicU64,
}

impl Coalescer {
    pub fn new(cfg: CoalesceConfig, nranks: usize, pool: BufPool) -> Self {
        Self {
            cfg,
            slots: (0..nranks).map(|_| SpinLock::new(Vec::new())).collect(),
            pool,
            open: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Whether a message of `size` bytes takes the coalescing path.
    pub fn eligible(&self, size: usize) -> bool {
        self.cfg.enabled
            && size <= MAX_SUB_SIZE
            && size + COALESCE_SUB_OVERHEAD <= self.cfg.max_bytes
    }

    /// Buffered sub-messages not yet on the wire, summed over the slots
    /// under their locks (quiesce and diagnostics; nothing on the data
    /// path reads it).
    pub fn pending(&self) -> usize {
        if self.open.load(Ordering::Acquire) == 0 {
            return 0;
        }
        self.slots.iter().map(|s| s.lock().iter().map(|s| s.count).sum::<usize>()).sum()
    }

    /// Appends one sub-message for `(target, dev)`, first handing the
    /// open frame to `post` when this record would take it past
    /// `max_bytes` (0 or 1 frames).
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
        if slot.count > 0
            && slot.data.len() + COALESCE_SUB_OVERHEAD + payload.len() > self.cfg.max_bytes
        {
            let frame = self.take_slot(target, slot);
            post(frame)?;
        }
        if slot.count == 0 {
            self.open.fetch_add(1, Ordering::AcqRel);
        }
        coalesce_pack(slot.data.vec_mut(), sub_imm, payload);
        slot.count += 1;
        slot.epoch = epoch;
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
        if self.open.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let mut slots = self.slots[target].lock();
        if let Some(slot) = slots.iter_mut().find(|s| s.dev == dev && s.count > 0) {
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
        if self.open.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let now = self.epoch.fetch_add(1, Ordering::Relaxed);
        for (target, slots) in self.slots.iter().enumerate() {
            let mut slots = slots.lock();
            for slot in slots.iter_mut() {
                if slot.count > 0 && slot.epoch < now {
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
        if self.open.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        for (target, slots) in self.slots.iter().enumerate() {
            let mut slots = slots.lock();
            for slot in slots.iter_mut() {
                if slot.count > 0 {
                    let frame = self.take_slot(target, slot);
                    post(frame)?;
                }
            }
        }
        Ok(())
    }

    /// Ships `slot`'s open frame: the slot is empty, and no longer
    /// counted as open, when this returns.
    fn take_slot(&self, target: Rank, slot: &mut Slot) -> Frame {
        // Restock the slot from the pool: in the steady state the frame
        // just posted (and dropped) is the buffer handed back here.
        let frame = Frame {
            target,
            target_dev: slot.dev,
            data: std::mem::replace(&mut slot.data, self.pool.take_empty(self.cfg.max_bytes)),
            count: std::mem::take(&mut slot.count),
        };
        self.open.fetch_sub(1, Ordering::AcqRel);
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::coalesce_records;

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

    /// A frame fills up to `max_bytes` exactly and ships only when the
    /// next record would not fit; there is no cap on its record count.
    #[test]
    fn frame_ships_when_the_next_record_would_not_fit() {
        // Four 1-byte records are 4 * 13 = 52 bytes: the frame is full.
        let c = mk(CoalesceConfig::enabled_with_bytes(52), 2);
        for (imm, p) in [(10, b"a"), (11, b"b"), (12, b"c"), (13, b"d")] {
            assert!(append(&c, 1, 0, imm, p).is_empty(), "shipped before it was full");
        }
        assert_eq!(c.pending(), 4);
        let frames = append(&c, 1, 0, 14, b"e");
        assert_eq!(frames.len(), 1);
        assert_eq!((frames[0].count, frames[0].data.len()), (4, 52));
        assert_eq!(c.pending(), 1, "the fifth record opened the next frame");
        let frame = &frames[0].data;
        let subs: Vec<_> = coalesce_records(frame).map(|r| r.unwrap()).collect();
        let got: Vec<_> = subs.into_iter().map(|(imm, r)| (imm, &frame[r])).collect();
        let want: [(u64, &[u8]); 4] = [(10, b"a"), (11, b"b"), (12, b"c"), (13, b"d")];
        assert_eq!(got, want);
    }

    #[test]
    fn byte_threshold_flushes_before_overflow() {
        // max_bytes 64: two 20-byte subs fill it (2 * 32 = 64) and stay
        // open; an empty third record would overflow, so it ships them.
        let c = mk(CoalesceConfig::enabled_with_bytes(64), 1);
        assert!(append(&c, 0, 0, 1, &[0u8; 20]).is_empty());
        assert!(append(&c, 0, 0, 2, &[1u8; 20]).is_empty());
        let frames = append(&c, 0, 0, 3, &[]);
        assert_eq!(frames.len(), 1);
        assert_eq!((frames[0].count, frames[0].data.len()), (2, 64));
    }

    /// `pending` is exact: the records buffered in every slot, whatever
    /// shipped them — an overflow, an ordering take, an idle sweep or an
    /// explicit flush.
    #[test]
    fn pending_counts_every_buffered_record() {
        let c = mk(CoalesceConfig::enabled_with_bytes(3 * 13), 3);
        assert_eq!(c.pending(), 0);
        for i in 0..7 {
            append(&c, 1, 0, i, b"x");
        }
        // Two full frames shipped on overflow; one record is buffered.
        assert_eq!(c.pending(), 1);
        append(&c, 2, 0, 0, b"y");
        append(&c, 2, 1, 0, b"z");
        append(&c, 2, 1, 1, b"z");
        assert_eq!(c.pending(), 4);
        assert_eq!(take(&c, 2, 1).map(|f| f.count), Some(2));
        assert_eq!(c.pending(), 2);
        assert!(take_idle(&c).is_empty(), "appended this epoch");
        assert_eq!(take_idle(&c).len(), 2);
        assert_eq!(c.pending(), 0);
        append(&c, 0, 0, 0, b"w");
        assert_eq!(c.pending(), 1);
        assert_eq!(take_all(&c).len(), 1);
        assert_eq!(c.pending(), 0);
        assert_eq!(c.open.load(Ordering::Relaxed), 0, "a shipped frame still counted open");
    }

    #[test]
    fn per_destination_isolation_and_take() {
        let c = mk(CoalesceConfig::enabled_with_bytes(1 << 20), 3);
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
        let c = mk(CoalesceConfig::enabled_with_bytes(1 << 20), 1);
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
        let c = mk(CoalesceConfig::enabled_with_bytes(64), 1);
        assert!(c.eligible(0));
        assert!(c.eligible(52)); // 52 + 12 == 64
        assert!(!c.eligible(53)); // would exceed max_bytes alone
        let big = mk(CoalesceConfig::enabled_with_bytes(8192), 1);
        assert!(big.eligible(MAX_SUB_SIZE));
        assert!(!big.eligible(MAX_SUB_SIZE + 1)); // fits the frame, but too big to coalesce
        let off = mk(CoalesceConfig::default(), 1);
        assert!(!off.enabled());
        assert!(!off.eligible(1));
    }
}
