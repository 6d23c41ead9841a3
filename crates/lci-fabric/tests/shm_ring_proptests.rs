//! Property tests for the shm frame codec and ring: arbitrary
//! header/payload/iovec frames round-trip through `produce`/`peek`/
//! `release`, including wrap-around at the ring boundary, spill-region
//! wrap, and capacity-1 rings. The same codec carries the coalesce
//! path's frames, so this doubles as its conformance surface. The last
//! case drives two shm devices over one such ring through random
//! interleavings of sends, receive posts and polls.

use lci_fabric::shm::ring::test_support::OwnedChannel;
use lci_fabric::shm::ring::{
    decode_header, encode_header, ChanGeometry, FrameHeader, ProduceError, FLAG_HAS_IMM,
    HEADER_LEN, KIND_READ_REQ, KIND_READ_RESP, KIND_SEND, KIND_WRITE,
};
use lci_fabric::{CqeKind, DeviceConfig, Fabric, NetContext, NetDevice, RecvBufDesc};
use proptest::prelude::*;
use std::sync::Arc;

/// Receive side of one device in the two-device interleaving case.
struct Sink {
    dev: Arc<dyn NetDevice>,
    /// Posted buffers, indexed by the descriptor's `ctx`.
    bufs: Vec<Box<[u8]>>,
    /// Sequence number the next `RecvDone` must carry.
    next: u64,
}

/// What message `seq` to device `dst` carries: a length that falls on
/// either side of the ring slot's inline capacity, and bytes derived
/// from both numbers.
fn interleave_payload(dst: usize, seq: u64) -> Vec<u8> {
    let len = (seq as usize * 37 + dst * 11) % 700;
    (0..len).map(|i| (seq as usize * 7 + dst * 3 + i) as u8).collect()
}

impl Sink {
    fn post_recv(&mut self) {
        let mut buf = vec![0u8; 700].into_boxed_slice();
        // SAFETY: the box lives in `self.bufs` until the sink drops,
        // after every poll; nothing else touches it while posted.
        let desc = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), self.bufs.len() as u64) };
        self.bufs.push(buf);
        self.dev.post_recv(desc).unwrap();
    }

    /// Polls once; every delivery must be the next in sequence for this
    /// device, intact, into a buffer that was posted and not yet used.
    fn poll(&mut self, dst: usize) {
        let mut cqes = Vec::new();
        self.dev.poll_cq(&mut cqes, 16).unwrap();
        for c in cqes.iter().filter(|c| c.kind == CqeKind::RecvDone) {
            assert_eq!(c.imm, self.next, "dev {dst}: delivered out of send order");
            let buf = std::mem::take(&mut self.bufs[c.ctx as usize]);
            assert!(!buf.is_empty(), "dev {dst}: receive {} completed twice", c.ctx);
            assert_eq!(buf[..c.len], interleave_payload(dst, c.imm)[..], "dev {dst}: damaged");
            self.next += 1;
        }
    }
}

fn arb_header(seed: (u8, u8, u64, u32, u32, u64, u64, u64)) -> FrameHeader {
    let (kind_sel, flags, imm, src_dev, dst_dev, a, b, c) = seed;
    let kind = [KIND_SEND, KIND_WRITE, KIND_READ_REQ, KIND_READ_RESP][kind_sel as usize % 4];
    // FLAG_SPILLED is codec-owned; FLAG_HAS_IMM and spare bits pass through.
    FrameHeader { kind, flags: flags & FLAG_HAS_IMM, imm, src_dev, dst_dev, a, b, c }
}

proptest! {
    /// Header encode/decode is the identity for arbitrary field values.
    #[test]
    fn header_codec_roundtrip(
        seed in (any::<u8>(), any::<u8>(), any::<u64>(), any::<u32>(), any::<u32>(),
                 any::<u64>(), any::<u64>(), any::<u64>()),
        len in any::<u32>(),
        spill in any::<u64>(),
    ) {
        let h = arb_header(seed);
        let mut buf = [0u8; HEADER_LEN];
        encode_header(&mut buf, &h, len, spill);
        let (h2, len2, spill2) = decode_header(&buf);
        prop_assert_eq!(h2, h);
        prop_assert_eq!(len2, len);
        prop_assert_eq!(spill2, spill);
    }

    /// Frames round-trip through the ring in FIFO order for arbitrary
    /// iovec payloads, across ring sizes down to one slot. The frame
    /// count (up to 64) exceeds every ring capacity used, so the slot
    /// indices and the spill byte-ring wrap several times.
    #[test]
    fn ring_roundtrip_with_wraparound(
        slots in 1u64..5,
        slot_size in proptest::sample::select(vec![96usize, 128, 256]),
        frames in proptest::collection::vec(
            (
                (any::<u8>(), any::<u8>(), any::<u64>(), any::<u32>(), any::<u32>(),
                 any::<u64>(), any::<u64>(), any::<u64>()),
                proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..300), 0..4),
            ),
            1..64,
        ),
    ) {
        let geo = ChanGeometry { ring_slots: slots, slot_size, spill_cap: 2048 };
        let oc = OwnedChannel::new(geo);
        let c = oc.chan();
        let mut queued: std::collections::VecDeque<(FrameHeader, Vec<u8>)> =
            std::collections::VecDeque::new();
        for (seed, segs) in &frames {
            let h = arb_header(*seed);
            let seg_refs: Vec<&[u8]> = segs.iter().map(|s| s.as_slice()).collect();
            let flat: Vec<u8> = segs.concat();
            loop {
                match c.produce(&h, &seg_refs) {
                    Ok(()) => {
                        queued.push_back((h, flat));
                        break;
                    }
                    Err(ProduceError::RingFull) | Err(ProduceError::SpillFull) => {
                        // Drain one queued frame to make room, checking it.
                        let (eh, ep) = queued.pop_front().expect("full ring implies queued frames");
                        let f = c.peek().expect("occupied ring must peek");
                        prop_assert_eq!(f.header.kind, eh.kind);
                        prop_assert_eq!(f.header.imm, eh.imm);
                        prop_assert_eq!(f.payload(), &ep[..]);
                        c.release(&f);
                    }
                    Err(ProduceError::TooLarge) => {
                        // Possible only when every seg hit max length on a
                        // tiny spill; skip this frame.
                        break;
                    }
                }
            }
        }
        // Drain the tail; everything comes out in order and intact,
        // with codec-owned FLAG_SPILLED masked off.
        while let Some((eh, ep)) = queued.pop_front() {
            let f = c.peek().expect("queued frame present");
            let got = FrameHeader {
                flags: f.header.flags & FLAG_HAS_IMM,
                ..f.header
            };
            prop_assert_eq!(got, eh);
            prop_assert_eq!(f.payload_len, ep.len());
            prop_assert_eq!(f.payload(), &ep[..]);
            c.release(&f);
        }
        prop_assert!(c.peek().is_none());
        prop_assert_eq!(c.occupancy(), 0);
    }

    /// A capacity-1 ring with spill alternates strictly: one in, one out.
    #[test]
    fn capacity_one_ring_alternates(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..700), 1..32),
    ) {
        let geo = ChanGeometry { ring_slots: 1, slot_size: 128, spill_cap: 2048 };
        let oc = OwnedChannel::new(geo);
        let c = oc.chan();
        for (i, p) in payloads.iter().enumerate() {
            let h = FrameHeader { kind: KIND_SEND, imm: i as u64, ..Default::default() };
            c.produce(&h, &[p]).unwrap();
            prop_assert_eq!(
                c.produce(&h, &[&[0u8; 4]]),
                Err(ProduceError::RingFull)
            );
            let f = c.peek().expect("one frame queued");
            prop_assert_eq!(f.header.imm, i as u64);
            prop_assert_eq!(f.payload(), &p[..]);
            c.release(&f);
        }
        prop_assert_eq!(c.occupancy_hwm(), 1);
    }

    /// Two devices on the receiving rank share the one channel from the
    /// sender. Device 0 is kept supplied with receives and polls often,
    /// so it drains the channel for both: its own frames land straight
    /// in posted buffers when nothing is queued ahead of them, device
    /// 1's go through that device's 4-slot RX endpoint. Device 1 is
    /// starved: once its endpoint is full its next frame parks at the
    /// head of the ring, in front of device 0's. Under any interleaving
    /// nothing is lost or duplicated, each device sees its messages in
    /// send order, and everything parked is delivered once device 1
    /// gets receives.
    #[test]
    fn two_devices_share_a_channel_under_rnr(
        ops in proptest::collection::vec(0u8..16, 1..400),
    ) {
        let fabric = Fabric::new(2);
        let cfg = DeviceConfig::shm().with_rx_capacity(4);
        let tx = NetContext::new(fabric.clone(), 0).create_device(cfg);
        let rank1 = NetContext::new(fabric, 1);
        let mut sinks: Vec<Sink> = (0..2)
            .map(|_| Sink { dev: rank1.create_device(cfg), bufs: Vec::new(), next: 0 })
            .collect();
        let mut sent = [0u64; 2];
        let mut tx_cqes = Vec::new();
        for op in ops {
            match op {
                0..=7 => {
                    // One send in four goes to the starved device.
                    let dst = (op >= 6) as usize;
                    let data = interleave_payload(dst, sent[dst]);
                    // A full ring refuses the post; the message is then
                    // simply not part of this run.
                    if tx.post_send(1, dst, &data, sent[dst], 0).is_ok() {
                        sent[dst] += 1;
                    }
                    tx_cqes.clear();
                    tx.poll_cq(&mut tx_cqes, 16).unwrap();
                }
                8..=10 => sinks[0].post_recv(),
                11..=13 => sinks[0].poll(0),
                14 => sinks[1].poll(1),
                _ => sinks[1].post_recv(),
            }
        }
        // Replenish both devices; everything sent must now arrive.
        for _ in 0..1000 {
            if sinks[0].next == sent[0] && sinks[1].next == sent[1] {
                break;
            }
            for (dst, sink) in sinks.iter_mut().enumerate() {
                sink.post_recv();
                sink.poll(dst);
            }
        }
        prop_assert_eq!([sinks[0].next, sinks[1].next], sent);
    }

    /// The receiving device's completion staging ring (256 entries) is
    /// nearly or exactly full of its own unpolled `SendDone`s when a
    /// burst for it is drained: the `RecvDone`s that no longer fit must
    /// not overtake the ones that did.
    #[test]
    fn direct_delivery_keeps_order_when_staging_fills(
        unpolled in 230usize..=256,
        burst in 1u64..=40,
    ) {
        let fabric = Fabric::new(2);
        let cfg = DeviceConfig::shm().with_rx_capacity(4);
        let peer = NetContext::new(fabric.clone(), 0).create_device(cfg);
        let mut sink = Sink {
            dev: NetContext::new(fabric, 1).create_device(cfg),
            bufs: Vec::new(),
            next: 0,
        };
        // Local completions pile up on the sink's device: it posts and
        // never polls, the peer consumes so the ring keeps accepting.
        let mut peer_sink = Sink { dev: peer.clone(), bufs: Vec::new(), next: 0 };
        for i in 0..unpolled {
            peer_sink.post_recv();
            sink.dev.post_send(0, 0, &interleave_payload(0, i as u64), i as u64, 0).unwrap();
            peer_sink.poll(0);
        }
        prop_assert_eq!(peer_sink.next, unpolled as u64);
        for seq in 0..burst {
            peer.post_send(1, 0, &interleave_payload(0, seq), seq, 0).unwrap();
            sink.post_recv();
        }
        for _ in 0..1000 {
            if sink.next == burst {
                break;
            }
            sink.poll(0);
        }
        prop_assert_eq!(sink.next, burst);
    }
}
