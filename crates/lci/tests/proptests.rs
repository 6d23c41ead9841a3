//! Property-based tests for LCI's core invariants: matching-engine
//! conservation, completion-queue FIFO/no-loss, header codecs, packet
//! pool accounting, synchronizer thresholds, and message-integrity
//! through the full runtime.

use lci::proto::{Header, MsgType, RtrPayload, RtsPayload};
use lci::{
    Comp, CompDesc, CompQueue, CqConfig, CqImpl, MatchKind, MatchingConfig, MatchingEngine,
    MatchingPolicy, PacketPool, PacketPoolConfig, PostResult, Runtime, RuntimeConfig,
};
use lci_fabric::Fabric;
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = MatchingPolicy> {
    prop_oneof![
        Just(MatchingPolicy::RankTag),
        Just(MatchingPolicy::RankOnly),
        Just(MatchingPolicy::TagOnly),
        Just(MatchingPolicy::None),
    ]
}

fn arb_msgtype() -> impl Strategy<Value = MsgType> {
    prop_oneof![
        Just(MsgType::Eager),
        Just(MsgType::EagerAm),
        Just(MsgType::RtsSr),
        Just(MsgType::RtsAm),
        Just(MsgType::Rtr),
        Just(MsgType::Fin),
        Just(MsgType::PutSignal),
        Just(MsgType::GetSignal),
    ]
}

proptest! {
    /// Header encode/decode is the identity on all valid field values.
    #[test]
    fn header_roundtrip(ty in arb_msgtype(), policy in arb_policy(), tag in any::<u32>(), aux in 0u32..(1 << 24)) {
        let h = Header::new(ty, policy, tag, aux);
        prop_assert_eq!(Header::decode(h.encode()).unwrap(), h);
    }

    /// Coalesced-frame codec: pack/unpack is the identity on any record
    /// sequence, and truncation mid-record is always rejected. A cut at
    /// a record boundary parses as the record prefix — the frame
    /// header's `aux` sub-count catches those at the device layer.
    #[test]
    fn coalesce_frame_roundtrip_and_truncation(
        subs in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200)),
            1..12,
        ),
        cut_frac in 0.0f64..1.0,
    ) {
        use lci::proto::{coalesce_pack, coalesce_unpack};
        let mut frame = Vec::new();
        let mut boundaries = Vec::new();
        for (imm, payload) in &subs {
            coalesce_pack(&mut frame, *imm, payload);
            boundaries.push(frame.len());
        }
        let got = coalesce_unpack(&frame).unwrap();
        prop_assert_eq!(got.len(), subs.len());
        for ((imm, payload), (got_imm, got_payload)) in subs.iter().zip(&got) {
            prop_assert_eq!(imm, got_imm);
            prop_assert_eq!(&payload[..], *got_payload);
        }
        let cut = (frame.len() as f64 * cut_frac) as usize;
        match boundaries.iter().position(|&b| b == cut) {
            Some(i) => {
                prop_assert_eq!(coalesce_unpack(&frame[..cut]).unwrap().len(), i + 1);
            }
            None => prop_assert!(coalesce_unpack(&frame[..cut]).is_err()),
        }
    }

    /// RTS/RTR payload codecs round-trip.
    #[test]
    fn rendezvous_payload_roundtrip(send_id in any::<u32>(), size in any::<u64>(), recv_id in any::<u32>(), rkey in any::<u32>()) {
        let rts = RtsPayload { send_id, size };
        prop_assert_eq!(RtsPayload::decode(&rts.encode()).unwrap(), rts);
        let rtr = RtrPayload { send_id, recv_id, rkey };
        prop_assert_eq!(RtrPayload::decode(&rtr.encode()).unwrap(), rtr);
    }

    /// Matching keys: same (rank, tag, policy) always collide; the
    /// fields a policy ignores never affect its key.
    #[test]
    fn matching_key_laws(rank in 0usize..1 << 20, tag in any::<u32>(), rank2 in 0usize..1 << 20, tag2 in any::<u32>()) {
        use lci::matching::make_key;
        prop_assert_eq!(
            make_key(rank, tag, MatchingPolicy::RankOnly),
            make_key(rank, tag2, MatchingPolicy::RankOnly)
        );
        prop_assert_eq!(
            make_key(rank, tag, MatchingPolicy::TagOnly),
            make_key(rank2, tag, MatchingPolicy::TagOnly)
        );
        prop_assert_eq!(
            make_key(rank, tag, MatchingPolicy::None),
            make_key(rank2, tag2, MatchingPolicy::None)
        );
        // Distinct policies never collide.
        prop_assert_ne!(
            make_key(rank, tag, MatchingPolicy::RankTag),
            make_key(rank, tag, MatchingPolicy::RankOnly)
        );
    }

    /// Matching engine conservation: every insert either stores or
    /// removes exactly one complementary entry; FIFO per key.
    #[test]
    fn matching_engine_conservation(ops in proptest::collection::vec((0u64..8, any::<bool>()), 1..300)) {
        let engine: MatchingEngine<usize> = MatchingEngine::with_config(MatchingConfig { buckets: 4 });
        // Model: per key, a signed queue (positive: sends, negative: recvs).
        let mut model: std::collections::HashMap<u64, std::collections::VecDeque<(usize, MatchKind)>> =
            Default::default();
        for (i, (key, is_send)) in ops.into_iter().enumerate() {
            let kind = if is_send { MatchKind::Send } else { MatchKind::Recv };
            let got = engine.insert(key, i, kind);
            let q = model.entry(key).or_default();
            match q.front() {
                Some(&(head, hk)) if hk == kind.opposite() => {
                    let (matched, mine) = got.expect("model expects a match");
                    prop_assert_eq!(matched, head);
                    prop_assert_eq!(mine, i);
                    q.pop_front();
                }
                _ => {
                    prop_assert!(got.is_none());
                    q.push_back((i, kind));
                }
            }
        }
        let model_len: usize = model.values().map(|q| q.len()).sum();
        prop_assert_eq!(engine.len(), model_len);
    }

    /// Completion queues are FIFO for a single producer/consumer, for
    /// both implementations.
    #[test]
    fn comp_queue_fifo(tags in proptest::collection::vec(any::<u32>(), 1..200), lcrq in any::<bool>()) {
        let imp = if lcrq { CqImpl::Lcrq } else { CqImpl::FaaArray };
        let q = CompQueue::new(CqConfig { imp, capacity: 256 });
        for &t in &tags {
            q.push(CompDesc { tag: t, ..Default::default() });
        }
        for &t in &tags {
            prop_assert_eq!(q.pop().unwrap().tag, t);
        }
        prop_assert!(q.pop().is_none());
    }

    /// Packet pool: outstanding accounting is exact across arbitrary
    /// get/put interleavings, and capacity is never exceeded.
    #[test]
    fn packet_pool_accounting(ops in proptest::collection::vec(any::<bool>(), 1..200), count in 1usize..32) {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 32, count }).unwrap();
        let mut held = Vec::new();
        for get in ops {
            if get {
                match pool.get() {
                    Some(p) => held.push(p),
                    None => prop_assert_eq!(held.len(), count, "get fails only when exhausted"),
                }
            } else if let Some(p) = held.pop() {
                drop(p);
            }
            prop_assert_eq!(pool.outstanding(), held.len());
        }
    }

    /// Synchronizer: ready exactly at the expected count, and take()
    /// returns every signaled descriptor.
    #[test]
    fn synchronizer_threshold(expected in 1usize..32) {
        let c = Comp::alloc_sync(expected);
        let s = c.as_sync().unwrap();
        for i in 0..expected {
            prop_assert_eq!(s.test(), false, "not ready at {}/{}", i, expected);
            c.signal(CompDesc { tag: i as u32, ..Default::default() });
        }
        prop_assert!(s.test());
        let mut tags: Vec<u32> = s.take().into_iter().map(|d| d.tag).collect();
        tags.sort_unstable();
        prop_assert_eq!(tags, (0..expected as u32).collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// End-to-end integrity: arbitrary message sizes (covering inject,
    /// bcopy, and rendezvous) and tags arrive intact, whatever the
    /// protocol path.
    #[test]
    fn runtime_sendrecv_integrity(
        sizes in proptest::collection::vec(1usize..20_000, 1..5),
        tag0 in 0u32..1000,
    ) {
        let fabric = Fabric::new(2);
        let f2 = fabric.clone();
        let sizes2 = sizes.clone();
        let peer = std::thread::spawn(move || {
            let rt = Runtime::new(f2, 1, RuntimeConfig::small()).unwrap();
            for (i, &size) in sizes2.iter().enumerate() {
                let comp = Comp::alloc_sync(1);
                let res = rt
                    .post_recv(0, vec![0u8; size.max(64)], tag0 + i as u32, comp.clone())
                    .unwrap();
                let desc = match res {
                    PostResult::Done(d) => d,
                    PostResult::Posted => {
                        let s = comp.as_sync().unwrap();
                        while !s.test() {
                            rt.progress().unwrap();
                        }
                        s.take().pop().unwrap()
                    }
                    PostResult::Retry(_) => unreachable!(),
                };
                assert_eq!(desc.data.len(), size);
                let expect = (i as u8).wrapping_mul(31);
                assert!(desc.as_slice().iter().all(|&b| b == expect));
            }
        });
        let rt = Runtime::new(fabric, 0, RuntimeConfig::small()).unwrap();
        for (i, &size) in sizes.iter().enumerate() {
            let fill = (i as u8).wrapping_mul(31);
            let comp = Comp::alloc_sync(1);
            loop {
                match rt.post_send(1, vec![fill; size], tag0 + i as u32, comp.clone()).unwrap() {
                    PostResult::Retry(_) => {
                        rt.progress().unwrap();
                    }
                    PostResult::Done(_) => break,
                    PostResult::Posted => {
                        comp.as_sync().unwrap().wait_with(|| {
                            rt.progress().unwrap();
                        });
                        break;
                    }
                }
            }
        }
        peer.join().unwrap();
    }
}
