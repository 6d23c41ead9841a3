//! The shared-memory wire format: a fixed-capacity SPSC slot ring per
//! directed `(rank, dev) → (rank, dev)` channel plus a per-channel spill
//! region for frames larger than a slot's inline capacity.
//!
//! Everything here operates over raw memory handed in by the caller
//! (a shared segment in production, a plain heap buffer in tests), so
//! the codec and ring protocol are proptestable without any OS setup.
//!
//! ## Frame layout (64-byte header, cache-line aligned slots)
//!
//! ```text
//! off  field          notes
//!  0   kind     u8    KIND_SEND / KIND_WRITE_IMM / KIND_WRITE / ...
//!  1   flags    u8    bit0 = payload lives in the spill region
//!  4   len      u32   payload length in bytes
//!  8   imm      u64   user immediate
//! 16   src_dev  u32   originating device on the source rank
//! 20   dst_dev  u32   target device on the destination rank
//! 24   a        u64   op-specific (rkey)
//! 32   b        u64   op-specific (remote offset)
//! 40   c        u64   op-specific (request id)
//! 48   spill    u64   free-running spill offset (valid iff spilled)
//! 64   payload        inline payload when it fits in the slot
//! ```
//!
//! ## Ring protocol
//!
//! `head`/`tail` are free-running u64 counters (slot = `idx % slots`),
//! the classic Lamport SPSC: the producer publishes a slot with a
//! Release store of `head`, the consumer observes it with an Acquire
//! load, and releases the slot back with a Release store of `tail`.
//! Producer-side and consumer-side serialization (there may be several
//! threads on either end) is the caller's job — the device wraps
//! `produce` in a per-channel spin lock and `peek`/`release` run under
//! the progress engine's try-lock discipline.
//!
//! ## Spill reclamation
//!
//! The spill region is a byte ring with free-running `spill_head` /
//! `spill_tail`. An oversize payload is placed contiguously: if it
//! would straddle the wrap point the producer pads `spill_head` to the
//! boundary first, so `spill` in the frame header always points at
//! contiguous bytes. Spilled frames leave the ring strictly FIFO, so
//! the consumer reclaims by storing `spill_tail = spill + len`.
//!
//! A drained region starts again at its front: when the consumer has
//! released every spilled byte, the producer pads to the boundary too,
//! so a burst of spilled frames reuses the same few cache lines instead
//! of sweeping the whole region. The producer remembers its last pad in
//! two words only it writes, `spill_pad` (where the pad starts) and
//! `spill_floor` (where it ends). Until the consumer's tail reaches the
//! pad, the pad lies between live bytes and the head and counts as
//! occupied; from then on, everything below the floor is free. The
//! occupied bytes are `[max(spill_tail, spill_floor), spill_head)` once
//! `spill_tail >= spill_pad`, and `[spill_tail, spill_head)` before.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Frame header length; also the inline-payload offset within a slot.
pub const HEADER_LEN: usize = 64;

/// Eager two-sided message (becomes a `WireMsgKind::Send`).
pub const KIND_SEND: u8 = 1;
/// RDMA write: payload lands in the target's registered memory; with
/// [`FLAG_HAS_IMM`] it also raises a `WriteImm` notification.
pub const KIND_WRITE: u8 = 3;
/// RDMA read request: `a`/`b` name the remote region, `c` the request,
/// `imm` the length to read.
pub const KIND_READ_REQ: u8 = 4;
/// RDMA read response: payload for pending request `c`.
pub const KIND_READ_RESP: u8 = 5;

/// Flag bit: payload is in the spill region, not inline.
pub const FLAG_SPILLED: u8 = 1;
/// Flag bit: a `KIND_WRITE` frame carries a write-with-immediate.
pub const FLAG_HAS_IMM: u8 = 2;

/// Decoded (or to-be-encoded) frame header. `payload_len`, the
/// [`FLAG_SPILLED`] bit, and the spill offset are managed by the ring
/// itself; callers set the remaining flag bits (e.g. [`FLAG_HAS_IMM`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameHeader {
    pub kind: u8,
    pub flags: u8,
    pub imm: u64,
    pub src_dev: u32,
    pub dst_dev: u32,
    /// Op-specific word (rkey for Write/Read).
    pub a: u64,
    /// Op-specific word (remote offset for Write/Read).
    pub b: u64,
    /// Op-specific word (request id for Read).
    pub c: u64,
}

/// Why a `produce` could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProduceError {
    /// All slots are in flight; retryable once the consumer drains.
    RingFull,
    /// The spill region cannot hold the payload right now; retryable.
    SpillFull,
    /// The payload can never fit (larger than half the spill region);
    /// retrying would deadlock, so this is fatal.
    TooLarge,
}

/// Channel geometry. `ring_slots` ≥ 1 and `slot_size` > `HEADER_LEN`;
/// neither needs to be a power of two (indices are free-running).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChanGeometry {
    pub ring_slots: u64,
    pub slot_size: usize,
    pub spill_cap: u64,
}

impl ChanGeometry {
    /// Inline payload capacity of one slot.
    pub fn inline_cap(&self) -> usize {
        self.slot_size - HEADER_LEN
    }

    /// Bytes one directed channel occupies: header + slots + spill.
    pub fn channel_bytes(&self) -> usize {
        CHAN_HDR_LEN + self.ring_slots as usize * self.slot_size + self.spill_cap as usize
    }
}

/// Per-channel control block, first `CHAN_HDR_LEN` bytes of the channel.
#[repr(C, align(128))]
pub struct ChanHdr {
    /// Producer cursor (free-running slot count).
    pub head: AtomicU64,
    /// Consumer cursor (free-running slot count).
    pub tail: AtomicU64,
    /// Producer cursor into the spill byte ring.
    pub spill_head: AtomicU64,
    /// Consumer cursor into the spill byte ring.
    pub spill_tail: AtomicU64,
    /// High-water mark of ring occupancy (slots), for DeviceStats.
    /// Producer-only, like the two words below.
    pub occ_hwm: AtomicU64,
    /// Where the producer's last spill pad starts.
    pub spill_pad: AtomicU64,
    /// Where the producer's last spill pad ends: the offset of the
    /// payload placed after it.
    pub spill_floor: AtomicU64,
}

/// Size reserved for [`ChanHdr`] at the front of a channel.
pub const CHAN_HDR_LEN: usize = 128;

const _: () = assert!(std::mem::size_of::<ChanHdr>() <= CHAN_HDR_LEN);

/// One directed SPSC channel over caller-provided memory.
///
/// Cloneable view: holds raw pointers into memory owned elsewhere (the
/// segment mapping). The caller guarantees the memory outlives every
/// `Channel` and that producers/consumers are serialized per side.
#[derive(Clone, Copy)]
pub struct Channel {
    hdr: *const ChanHdr,
    slots: *mut u8,
    spill: *mut u8,
    geo: ChanGeometry,
}

// SAFETY: the channel is a view over shared memory; the SPSC protocol
// (plus caller-side serialization) coordinates all concurrent access.
unsafe impl Send for Channel {}
unsafe impl Sync for Channel {}

/// A decoded frame still resident in the ring. Payload bytes stay valid
/// until [`Channel::release`]; copy them out first.
pub struct Frame<'a> {
    pub header: FrameHeader,
    pub payload_len: usize,
    payload: *const u8,
    spilled: bool,
    spill_off: u64,
    tail: u64,
    _ring: PhantomData<&'a Channel>,
}

impl Frame<'_> {
    /// Borrow the payload bytes (inline slot bytes or spill bytes).
    pub fn payload(&self) -> &[u8] {
        // SAFETY: `peek` computed a contiguous in-bounds range and the
        // slot is not recycled until `release`.
        unsafe { std::slice::from_raw_parts(self.payload, self.payload_len) }
    }
}

impl Channel {
    /// Attaches a channel view to `base` (a `channel_bytes()`-sized,
    /// 128-byte-aligned region: ChanHdr, then slots, then spill).
    ///
    /// # Safety
    /// `base` must be valid for `geo.channel_bytes()` bytes, outlive the
    /// returned view, and be zero-initialized the first time (the
    /// all-zero `ChanHdr` is the empty channel).
    pub unsafe fn attach(base: *mut u8, geo: ChanGeometry) -> Channel {
        debug_assert!(geo.ring_slots >= 1);
        debug_assert!(geo.slot_size > HEADER_LEN);
        debug_assert_eq!(base as usize % std::mem::align_of::<ChanHdr>(), 0);
        let slots = unsafe { base.add(CHAN_HDR_LEN) };
        let spill = unsafe { slots.add(geo.ring_slots as usize * geo.slot_size) };
        Channel { hdr: base.cast(), slots, spill, geo }
    }

    fn hdr(&self) -> &ChanHdr {
        // SAFETY: guaranteed valid by the `attach` contract.
        unsafe { &*self.hdr }
    }

    /// Channel geometry.
    pub fn geometry(&self) -> ChanGeometry {
        self.geo
    }

    /// Frames currently queued (producer and consumer views may lag).
    pub fn occupancy(&self) -> usize {
        let h = self.hdr().head.load(Ordering::Acquire);
        let t = self.hdr().tail.load(Ordering::Acquire);
        (h - t) as usize
    }

    /// High-water mark of ring occupancy since creation.
    pub fn occupancy_hwm(&self) -> u64 {
        self.hdr().occ_hwm.load(Ordering::Relaxed)
    }

    /// Encodes one frame (header + gathered payload segments) into the
    /// ring. The caller must serialize producers on this channel.
    pub fn produce(&self, h: &FrameHeader, segs: &[&[u8]]) -> Result<(), ProduceError> {
        self.produce_placed(h, segs, place_spill)
    }

    /// [`produce`](Self::produce), with the spill placement rule passed
    /// in so the ring's tests can run broken rules through it.
    #[inline(always)]
    fn produce_placed(
        &self,
        h: &FrameHeader,
        segs: &[&[u8]],
        place: impl FnOnce(SpillCursors, u64, u64) -> Result<u64, ProduceError>,
    ) -> Result<(), ProduceError> {
        let hdr = self.hdr();
        let payload_len: usize = segs.iter().map(|s| s.len()).sum();
        let head = hdr.head.load(Ordering::Relaxed);
        let tail = hdr.tail.load(Ordering::Acquire);
        if head - tail >= self.geo.ring_slots {
            return Err(ProduceError::RingFull);
        }
        let slot =
            unsafe { self.slots.add((head % self.geo.ring_slots) as usize * self.geo.slot_size) };

        let (flags, spill_off) = if payload_len <= self.geo.inline_cap() {
            let mut dst = unsafe { slot.add(HEADER_LEN) };
            for seg in segs {
                unsafe {
                    std::ptr::copy_nonoverlapping(seg.as_ptr(), dst, seg.len());
                    dst = dst.add(seg.len());
                }
            }
            (h.flags & !FLAG_SPILLED, 0u64)
        } else {
            let len = payload_len as u64;
            let cap = self.geo.spill_cap;
            if cap == 0 || len > cap / 2 {
                return Err(ProduceError::TooLarge);
            }
            let cursors = SpillCursors {
                head: hdr.spill_head.load(Ordering::Relaxed),
                tail: hdr.spill_tail.load(Ordering::Acquire),
                pad: hdr.spill_pad.load(Ordering::Relaxed),
                floor: hdr.spill_floor.load(Ordering::Relaxed),
            };
            let off = place(cursors, len, cap)?;
            let mut dst = unsafe { self.spill.add((off % cap) as usize) };
            for seg in segs {
                unsafe {
                    std::ptr::copy_nonoverlapping(seg.as_ptr(), dst, seg.len());
                    dst = dst.add(seg.len());
                }
            }
            if off != cursors.head {
                hdr.spill_pad.store(cursors.head, Ordering::Relaxed);
                hdr.spill_floor.store(off, Ordering::Relaxed);
            }
            hdr.spill_head.store(off + len, Ordering::Release);
            (h.flags | FLAG_SPILLED, off)
        };

        // SAFETY: the slot is ours until the Release store of head.
        unsafe {
            encode_header(
                std::slice::from_raw_parts_mut(slot, HEADER_LEN),
                &FrameHeader { flags, ..*h },
                payload_len as u32,
                spill_off,
            );
        }
        hdr.head.store(head + 1, Ordering::Release);
        // Producers are serialized, so the mark needs no read-modify-write.
        let occ = head + 1 - tail;
        if occ > hdr.occ_hwm.load(Ordering::Relaxed) {
            hdr.occ_hwm.store(occ, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Decodes the oldest queued frame without consuming it. The caller
    /// must serialize consumers on this channel and call [`release`]
    /// (after copying the payload out) to free the slot.
    ///
    /// [`release`]: Channel::release
    pub fn peek(&self) -> Option<Frame<'_>> {
        let hdr = self.hdr();
        let tail = hdr.tail.load(Ordering::Relaxed);
        let head = hdr.head.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot =
            unsafe { self.slots.add((tail % self.geo.ring_slots) as usize * self.geo.slot_size) };
        // SAFETY: slot published by the producer's Release store of head.
        let raw = unsafe { std::slice::from_raw_parts(slot as *const u8, HEADER_LEN) };
        let (header, payload_len, spill_off) = decode_header(raw);
        let spilled = header.flags & FLAG_SPILLED != 0;
        let payload = if spilled {
            unsafe { self.spill.add((spill_off % self.geo.spill_cap) as usize) as *const u8 }
        } else {
            unsafe { slot.add(HEADER_LEN) as *const u8 }
        };
        Some(Frame {
            header,
            payload_len: payload_len as usize,
            payload,
            spilled,
            spill_off,
            tail,
            _ring: PhantomData,
        })
    }

    /// Returns a peeked frame's slot (and spill bytes) to the producer.
    pub fn release(&self, f: &Frame<'_>) {
        let hdr = self.hdr();
        if f.spilled {
            // FIFO among spilled frames: everything before this frame's
            // payload end — including any pad the producer inserted
            // before it — is now reclaimable.
            hdr.spill_tail.store(f.spill_off + f.payload_len as u64, Ordering::Release);
        }
        hdr.tail.store(f.tail + 1, Ordering::Release);
    }
}

/// The spill cursors a producer reads: its own three and the
/// consumer's `spill_tail`.
#[derive(Clone, Copy)]
struct SpillCursors {
    head: u64,
    tail: u64,
    pad: u64,
    floor: u64,
}

/// Where a spilled payload of `len` bytes goes (`0 < len <= cap / 2`),
/// as a free-running offset, or `SpillFull`. It goes at the head, unless
/// it would straddle the end of the region or nothing spilled is live:
/// then the head pads to the next boundary and the payload starts at the
/// region's front (module docs, "Spill reclamation").
fn place_spill(c: SpillCursors, len: u64, cap: u64) -> Result<u64, ProduceError> {
    let pos = c.head % cap;
    let drained = c.tail == c.head;
    let off = if pos != 0 && (drained || pos + len > cap) { c.head + (cap - pos) } else { c.head };
    let (pad, floor) = if off != c.head { (c.head, off) } else { (c.pad, c.floor) };
    // The oldest occupied byte: the consumer's tail, or the floor once
    // the tail has reached the last pad.
    let start = if c.tail >= pad { c.tail.max(floor) } else { c.tail };
    if off + len - start > cap {
        return Err(ProduceError::SpillFull);
    }
    Ok(off)
}

/// Encodes a frame header into `buf` (≥ `HEADER_LEN` bytes).
pub fn encode_header(buf: &mut [u8], h: &FrameHeader, payload_len: u32, spill: u64) {
    buf[0] = h.kind;
    buf[1] = h.flags;
    buf[2] = 0;
    buf[3] = 0;
    buf[4..8].copy_from_slice(&payload_len.to_le_bytes());
    buf[8..16].copy_from_slice(&h.imm.to_le_bytes());
    buf[16..20].copy_from_slice(&h.src_dev.to_le_bytes());
    buf[20..24].copy_from_slice(&h.dst_dev.to_le_bytes());
    buf[24..32].copy_from_slice(&h.a.to_le_bytes());
    buf[32..40].copy_from_slice(&h.b.to_le_bytes());
    buf[40..48].copy_from_slice(&h.c.to_le_bytes());
    buf[48..56].copy_from_slice(&spill.to_le_bytes());
    buf[56..64].fill(0);
}

/// Decodes a frame header: `(header, payload_len, spill_off)`.
pub fn decode_header(buf: &[u8]) -> (FrameHeader, u32, u64) {
    let u32_at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
    let h = FrameHeader {
        kind: buf[0],
        flags: buf[1],
        imm: u64_at(8),
        src_dev: u32_at(16),
        dst_dev: u32_at(20),
        a: u64_at(24),
        b: u64_at(32),
        c: u64_at(40),
    };
    (h, u32_at(4), u64_at(48))
}

/// Test support: a heap-backed channel. Not part of the transport; kept
/// public (hidden) so integration tests and proptests can exercise the
/// codec without a segment.
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// A heap-backed channel for tests: owns the memory a [`Channel`]
    /// views.
    pub struct OwnedChannel {
        mem: Box<[u8]>,
        chan: Channel,
    }

    impl OwnedChannel {
        pub fn new(geo: ChanGeometry) -> OwnedChannel {
            // Over-allocate so the ChanHdr can be placed 128-aligned.
            let bytes = geo.channel_bytes() + 128;
            let mut mem = vec![0u8; bytes].into_boxed_slice();
            let base = mem.as_mut_ptr();
            let aligned = unsafe { base.add(base.align_offset(128)) };
            let chan = unsafe { Channel::attach(aligned, geo) };
            OwnedChannel { mem, chan }
        }

        pub fn chan(&self) -> &Channel {
            let _ = &self.mem;
            &self.chan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::OwnedChannel;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    fn geo(slots: u64, slot_size: usize, spill: u64) -> ChanGeometry {
        ChanGeometry { ring_slots: slots, slot_size, spill_cap: spill }
    }

    fn hdr(kind: u8, imm: u64) -> FrameHeader {
        FrameHeader { kind, flags: 0, imm, src_dev: 1, dst_dev: 2, a: 3, b: 4, c: 5 }
    }

    fn consume_one(chan: &Channel) -> (FrameHeader, Vec<u8>) {
        let f = chan.peek().expect("frame queued");
        let out = (f.header, f.payload().to_vec());
        chan.release(&f);
        out
    }

    #[test]
    fn header_round_trip() {
        let mut buf = [0u8; HEADER_LEN];
        let h = FrameHeader {
            kind: KIND_READ_RESP,
            flags: FLAG_SPILLED | FLAG_HAS_IMM,
            imm: 0xDEAD_BEEF_1234_5678,
            src_dev: 7,
            dst_dev: 9,
            a: u64::MAX,
            b: 42,
            c: 0x0102_0304_0506_0708,
        };
        encode_header(&mut buf, &h, 12345, 999);
        let (h2, len, spill) = decode_header(&buf);
        assert_eq!(h2, h);
        assert_eq!((len, spill), (12345, 999));
    }

    #[test]
    fn inline_round_trip_and_fifo() {
        let oc = OwnedChannel::new(geo(4, 128, 0));
        let c = oc.chan();
        for i in 0..3u8 {
            let payload = vec![i; 32];
            c.produce(&hdr(KIND_SEND, i as u64), &[&payload]).unwrap();
        }
        assert_eq!(c.occupancy(), 3);
        for i in 0..3u8 {
            let (h, p) = consume_one(c);
            assert_eq!(h.imm, i as u64);
            assert_eq!(p, vec![i; 32]);
        }
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn ring_full_then_wrap() {
        let oc = OwnedChannel::new(geo(2, 128, 0));
        let c = oc.chan();
        c.produce(&hdr(KIND_SEND, 0), &[b"a"]).unwrap();
        c.produce(&hdr(KIND_SEND, 1), &[b"b"]).unwrap();
        assert_eq!(c.produce(&hdr(KIND_SEND, 2), &[b"c"]), Err(ProduceError::RingFull));
        assert_eq!(consume_one(c).1, b"a");
        // Freed slot is reusable: indices wrap around the 2-slot ring.
        c.produce(&hdr(KIND_SEND, 2), &[b"c"]).unwrap();
        assert_eq!(consume_one(c).1, b"b");
        assert_eq!(consume_one(c).1, b"c");
    }

    #[test]
    fn capacity_one_ring() {
        let oc = OwnedChannel::new(geo(1, 96, 0));
        let c = oc.chan();
        for i in 0..10u8 {
            c.produce(&hdr(KIND_SEND, i as u64), &[&[i; 8]]).unwrap();
            assert_eq!(c.produce(&hdr(KIND_SEND, 99), &[b"x"]), Err(ProduceError::RingFull));
            let (h, p) = consume_one(c);
            assert_eq!(h.imm, i as u64);
            assert_eq!(p, vec![i; 8]);
        }
        assert_eq!(c.occupancy_hwm(), 1);
    }

    #[test]
    fn gather_segments_concatenate() {
        let oc = OwnedChannel::new(geo(2, 256, 0));
        let c = oc.chan();
        c.produce(&hdr(KIND_SEND, 0), &[b"ab", b"", b"cde", b"f"]).unwrap();
        assert_eq!(consume_one(c).1, b"abcdef");
    }

    #[test]
    fn spill_round_trip_and_reclaim() {
        let g = geo(8, 96, 800);
        let oc = OwnedChannel::new(g);
        let c = oc.chan();
        let big = (0..300u32).map(|i| i as u8).collect::<Vec<_>>();
        // 300 B > 32 B inline cap → spilled. Two frames use 600 of the
        // 800-byte region; a third would pad to the wrap point (200 B)
        // and need 300 more — 1100 > 800, so it must wait.
        c.produce(&hdr(KIND_SEND, 0), &[&big]).unwrap();
        c.produce(&hdr(KIND_SEND, 1), &[&big]).unwrap();
        assert_eq!(c.produce(&hdr(KIND_SEND, 2), &[&big]), Err(ProduceError::SpillFull));
        assert_eq!(consume_one(c).1, big);
        // Reclaimed: now there is room again, and the third payload
        // wraps (pad inserted at offset 600 → 800, payload at 0).
        c.produce(&hdr(KIND_SEND, 2), &[&big]).unwrap();
        assert_eq!(consume_one(c).1, big);
        assert_eq!(consume_one(c).1, big);
    }

    #[test]
    fn spill_too_large_is_fatal() {
        let oc = OwnedChannel::new(geo(2, 96, 256));
        let c = oc.chan();
        let big = vec![7u8; 129]; // > cap/2
        assert_eq!(c.produce(&hdr(KIND_SEND, 0), &[&big]), Err(ProduceError::TooLarge));
        // And with no spill region at all, anything over inline is fatal.
        let oc2 = OwnedChannel::new(geo(2, 96, 0));
        assert_eq!(
            oc2.chan().produce(&hdr(KIND_SEND, 0), &[&[0u8; 64]]),
            Err(ProduceError::TooLarge)
        );
    }

    #[test]
    fn mixed_inline_and_spilled_interleave() {
        let g = geo(16, 96, 4096);
        let oc = OwnedChannel::new(g);
        let c = oc.chan();
        let mut expect = Vec::new();
        for i in 0..12u8 {
            let len = if i % 3 == 0 { 500 } else { 8 };
            let payload = vec![i; len];
            c.produce(&hdr(KIND_SEND, i as u64), &[&payload]).unwrap();
            expect.push(payload);
        }
        for e in expect {
            assert_eq!(consume_one(c).1, e);
        }
        assert!(c.occupancy_hwm() >= 12);
    }

    /// A spilled-size payload of frame `seq`: bytes derived from both
    /// numbers, so one written over another's shows.
    fn pattern(seq: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| (seq as usize * 131 + i * 7) as u8).collect()
    }

    /// What a model of the ring knows of a queued frame: its number, its
    /// length and, if spilled, its free-running spill offset.
    struct Queued {
        seq: u64,
        len: usize,
        spill: Option<u64>,
    }

    /// The ring as a list of queued frames, with the placement rule the
    /// module docs state, checked against live bytes instead of cursors:
    /// a spilled payload goes at the head, or at the front of the region
    /// when it would straddle the end or nothing spilled is live; it fits
    /// if it overlaps no live payload.
    struct Model {
        geo: ChanGeometry,
        queued: VecDeque<Queued>,
        spill_head: u64,
    }

    impl Model {
        /// The outcome `produce` must have for `len` bytes: the spill
        /// offset (`None` inline) or the error.
        fn expect(&self, len: usize) -> Result<Option<u64>, ProduceError> {
            let cap = self.geo.spill_cap;
            if self.queued.len() as u64 == self.geo.ring_slots {
                return Err(ProduceError::RingFull);
            }
            if len <= self.geo.inline_cap() {
                return Ok(None);
            }
            let len = len as u64;
            if len > cap / 2 {
                return Err(ProduceError::TooLarge);
            }
            let live: Vec<(u64, u64)> =
                self.queued.iter().filter_map(|q| Some((q.spill? % cap, q.len as u64))).collect();
            let pos = self.spill_head % cap;
            let front = pos != 0 && (live.is_empty() || pos + len > cap);
            let off = if front { self.spill_head + cap - pos } else { self.spill_head };
            let p = off % cap;
            match live.iter().all(|&(q, l)| q + l <= p || p + len <= q) {
                true => Ok(Some(off)),
                false => Err(ProduceError::SpillFull),
            }
        }
    }

    /// A payload length for the next frame: inline, anywhere in the
    /// spilled range, exactly half the region, or one that reaches or
    /// straddles the end of the region from where its head is now.
    fn next_len(rng: &mut StdRng, geo: ChanGeometry, spill_head: u64) -> usize {
        let (inline, half) = (geo.inline_cap(), (geo.spill_cap / 2) as usize);
        let to_end = (geo.spill_cap - spill_head % geo.spill_cap) as usize;
        let spilled = |len: usize| len.clamp(inline + 1, half);
        match rng.gen_range(0..6) {
            0 => rng.gen_range(0..=inline),
            1 => half,
            2 => spilled(to_end),
            3 => spilled(to_end + rng.gen_range(1..64)),
            _ => rng.gen_range(inline + 1..=half),
        }
    }

    /// Runs `steps` seeded random produces, peeks and releases (and the
    /// occasional full drain) through `place`, against the model. Every
    /// produce must have the model's outcome, every peeked frame must be
    /// the next in order, intact, at the model's offset.
    fn run_model(
        seed: u64,
        geo: ChanGeometry,
        steps: usize,
        place: fn(SpillCursors, u64, u64) -> Result<u64, ProduceError>,
    ) -> Result<(), String> {
        let oc = OwnedChannel::new(geo);
        let c = oc.chan();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Model { geo, queued: VecDeque::new(), spill_head: 0 };
        let mut seq = 0u64;
        let consume = |m: &mut Model| -> Result<(), String> {
            let (f, want) = match (c.peek(), m.queued.pop_front()) {
                (Some(f), Some(want)) => (f, want),
                (None, None) => return Ok(()),
                (f, _) => {
                    return Err(format!("peeked a frame: {}, model has one: no", f.is_some()))
                }
            };
            let at = f.spilled.then_some(f.spill_off);
            if (f.header.imm, at) != (want.seq, want.spill) {
                return Err(format!(
                    "frame {} at {at:?}, model: {} at {:?}",
                    f.header.imm, want.seq, want.spill
                ));
            }
            if f.payload() != pattern(want.seq, want.len) {
                return Err(format!("frame {} was overwritten", want.seq));
            }
            c.release(&f);
            Ok(())
        };
        for step in 0..steps {
            match rng.gen_range(0..20) {
                0..=10 => {
                    let len = next_len(&mut rng, geo, m.spill_head);
                    let want = m.expect(len);
                    let got = c.produce_placed(&hdr(KIND_SEND, seq), &[&pattern(seq, len)], place);
                    if got != want.map(drop) {
                        return Err(format!("step {step}: {len} B gave {got:?}, model: {want:?}"));
                    }
                    if let Ok(spill) = want {
                        m.queued.push_back(Queued { seq, len, spill });
                        if let Some(off) = spill {
                            m.spill_head = off + len as u64;
                        }
                        seq += 1;
                    }
                }
                11..=18 => {
                    for _ in 0..rng.gen_range(1..4) {
                        consume(&mut m).map_err(|e| format!("step {step}: {e}"))?;
                    }
                }
                _ => {
                    while !m.queued.is_empty() {
                        consume(&mut m).map_err(|e| format!("step {step}: {e}"))?;
                    }
                }
            }
        }
        Ok(())
    }

    const MODEL_GEOMETRIES: [ChanGeometry; 3] = [
        ChanGeometry { ring_slots: 8, slot_size: 96, spill_cap: 1024 },
        ChanGeometry { ring_slots: 5, slot_size: 128, spill_cap: 999 },
        ChanGeometry { ring_slots: 64, slot_size: 80, spill_cap: 600 },
    ];

    /// Whether any of the seeded runs of `place` diverges from the model.
    fn first_divergence(
        place: fn(SpillCursors, u64, u64) -> Result<u64, ProduceError>,
    ) -> Option<String> {
        MODEL_GEOMETRIES
            .iter()
            .find_map(|&geo| (0..64).find_map(|seed| run_model(seed, geo, 2000, place).err()))
    }

    /// The spill ring against its model: over seeded random traffic in
    /// three geometries no payload is damaged, `SpillFull` comes only
    /// when the payload cannot go where the rule puts it without
    /// overlapping a live one, and after a full drain the next spilled
    /// payload sits at offset 0.
    #[test]
    fn spill_ring_matches_its_model() {
        assert_eq!(first_divergence(place_spill), None);
    }

    /// The model check catches broken placement rules: the rule before
    /// the rewind (a drained region is not started again), a floor that
    /// is never consulted, a pad just inserted counted as occupied (the
    /// rewind refused by its own pad), and a floor trusted before the
    /// consumer has reached the pad (live bytes overwritten).
    #[test]
    fn spill_model_catches_broken_rules() {
        // Where the rule puts a payload, and whether it fits above `start`.
        fn rewound(c: SpillCursors, len: u64, cap: u64) -> u64 {
            let pos = c.head % cap;
            let front = pos != 0 && (c.tail == c.head || pos + len > cap);
            if front {
                c.head + (cap - pos)
            } else {
                c.head
            }
        }
        fn room(off: u64, len: u64, start: u64, cap: u64) -> Result<u64, ProduceError> {
            (off + len - start <= cap).then_some(off).ok_or(ProduceError::SpillFull)
        }
        fn no_rewind(c: SpillCursors, len: u64, cap: u64) -> Result<u64, ProduceError> {
            let pos = c.head % cap;
            room(if pos + len > cap { c.head + (cap - pos) } else { c.head }, len, c.tail, cap)
        }
        fn floor_ignored(c: SpillCursors, len: u64, cap: u64) -> Result<u64, ProduceError> {
            room(rewound(c, len, cap), len, c.tail, cap)
        }
        fn pad_counted(c: SpillCursors, len: u64, cap: u64) -> Result<u64, ProduceError> {
            let start = if c.tail >= c.pad { c.tail.max(c.floor) } else { c.tail };
            room(rewound(c, len, cap), len, start, cap)
        }
        fn floor_trusted(c: SpillCursors, len: u64, cap: u64) -> Result<u64, ProduceError> {
            let off = rewound(c, len, cap);
            let floor = if off != c.head { off } else { c.floor };
            room(off, len, c.tail.max(floor), cap)
        }
        for (name, plant) in [
            ("no rewind", no_rewind as fn(_, _, _) -> _),
            ("floor ignored", floor_ignored),
            ("pad counted", pad_counted),
            ("floor trusted", floor_trusted),
        ] {
            assert!(first_divergence(plant).is_some(), "the model missed: {name}");
        }
    }

    /// One producer and one consumer thread over a small ring, inline and
    /// spilled frames mixed. The producer sends in bursts and, after
    /// half of them, waits until the consumer has drained the ring, so
    /// the next spilled payload rewinds to the front of the region while
    /// the consumer is still polling.
    #[test]
    fn spsc_across_threads() {
        let oc = std::sync::Arc::new(OwnedChannel::new(geo(4, 128, 2048)));
        let oc2 = oc.clone();
        let n = 5_000u64;
        let producer = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(7);
            let mut sent = 0u64;
            while sent < n {
                let burst = rng.gen_range(1..12);
                let mut in_burst = 0;
                while in_burst < burst && sent < n {
                    let len = (sent % 200) as usize; // mixes inline + spill
                    match oc2.chan().produce(&hdr(KIND_SEND, sent), &[&pattern(sent, len)]) {
                        Ok(()) => (sent, in_burst) = (sent + 1, in_burst + 1),
                        Err(ProduceError::RingFull) | Err(ProduceError::SpillFull) => {
                            std::thread::yield_now()
                        }
                        Err(e) => panic!("{e:?}"),
                    }
                }
                if rng.gen_bool(0.5) {
                    while oc2.chan().occupancy() > 0 {
                        std::thread::yield_now();
                    }
                }
            }
        });
        let mut seen = 0u64;
        while seen < n {
            match oc.chan().peek() {
                Some(f) => {
                    assert_eq!(f.header.imm, seen);
                    assert_eq!(f.payload(), &pattern(seen, (seen % 200) as usize)[..]);
                    oc.chan().release(&f);
                    seen += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
    }
}
