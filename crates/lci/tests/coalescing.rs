//! Sender-side coalescing correctness: a multithreaded streaming
//! workload must observe *identical* matching order and completion
//! counts whether coalescing is on or off (the feature is transparent),
//! and the per-message `.allow_coalescing(false)` opt-out must force
//! individual posts.

use lci::{CoalesceConfig, Comp, PostResult, Runtime, RuntimeConfig, StatsSnapshot};
use lci_fabric::Fabric;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const THREADS: usize = 4;
const MSGS: usize = 200;

/// Posts one receive and waits for it. With `drive` the waiting thread
/// turns the progress engine itself; without it the thread only yields,
/// relying on a dedicated progress thread. Matching order is only
/// well-defined when a single thread drains the CQ — concurrent
/// `progress()` callers may interleave poll batches (the runtime, like
/// LCI, does not order matching across progress threads).
fn recv_one(rt: &Runtime, rank: usize, size: usize, tag: u32, drive: bool) -> lci::CompDesc {
    let comp = Comp::alloc_sync(1);
    match rt.post_recv(rank, vec![0u8; size], tag, comp.clone()).unwrap() {
        PostResult::Done(desc) => desc,
        PostResult::Posted => {
            let sync = comp.as_sync().unwrap();
            while !sync.test() {
                if drive {
                    rt.progress().unwrap();
                } else {
                    std::thread::yield_now();
                }
            }
            sync.take().pop().unwrap()
        }
        PostResult::Retry(_) => unreachable!(),
    }
}

/// Streams `MSGS` 8-byte messages per sender thread (tag = thread id)
/// from rank 0 to rank 1. Returns the per-tag payload sequences the
/// receiver observed, the sender-side completion count, and the sender
/// device's stats.
fn run(cfg: RuntimeConfig) -> (Vec<Vec<u64>>, usize, StatsSnapshot) {
    let fabric = Fabric::new(2);
    let receiver_done = Arc::new(AtomicBool::new(false));

    let f2 = fabric.clone();
    let cfg2 = cfg.clone();
    let done2 = receiver_done.clone();
    let receiver = std::thread::spawn(move || {
        let rt = Runtime::new(f2, 1, cfg2).unwrap();
        rt.oob_barrier();
        // Exactly one thread drains the CQ: per-tag matching order is
        // only defined when progress is single-threaded (see recv_one).
        let recvs_done = Arc::new(AtomicBool::new(false));
        let progress = {
            let rt = rt.clone();
            let done = recvs_done.clone();
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    rt.progress().unwrap();
                }
            })
        };
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let rt = rt.clone();
                std::thread::spawn(move || {
                    let mut seqs = Vec::with_capacity(MSGS);
                    for _ in 0..MSGS {
                        let desc = recv_one(&rt, 0, 64, t as u32, false);
                        assert_eq!(desc.rank, 0);
                        assert_eq!(desc.data.len(), 8);
                        seqs.push(u64::from_le_bytes(desc.as_slice().try_into().unwrap()));
                    }
                    seqs
                })
            })
            .collect();
        let seqs: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        recvs_done.store(true, Ordering::Release);
        progress.join().unwrap();
        done2.store(true, Ordering::Release);
        seqs
    });

    let rt = Runtime::new(fabric, 0, cfg).unwrap();
    rt.oob_barrier();
    let completed = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let rt = rt.clone();
            let completed = completed.clone();
            std::thread::spawn(move || {
                for seq in 0..MSGS as u64 {
                    let comp = Comp::alloc_sync(1);
                    loop {
                        let buf = seq.to_le_bytes().to_vec();
                        match rt.post_send(1, buf, t as u32, comp.clone()).unwrap() {
                            PostResult::Done(_) => break,
                            PostResult::Posted => {
                                comp.as_sync().unwrap().wait_with(|| {
                                    rt.progress().unwrap();
                                });
                                break;
                            }
                            PostResult::Retry(_) => {
                                rt.progress().unwrap();
                            }
                        }
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Keep the progress engine turning so the idle auto-flush drains any
    // sub-messages still buffered when the sender threads finished.
    while !receiver_done.load(Ordering::Acquire) {
        rt.progress().unwrap();
    }
    let stats = rt.device().stats();
    (receiver.join().unwrap(), completed.load(Ordering::Relaxed), stats)
}

#[test]
fn matching_order_and_counts_identical_on_vs_off() {
    let off = run(RuntimeConfig::small());
    let mut on_cfg = RuntimeConfig::small();
    on_cfg.coalesce = CoalesceConfig::enabled_with_bytes(2048);
    let on = run(on_cfg);

    let expect: Vec<u64> = (0..MSGS as u64).collect();
    for t in 0..THREADS {
        assert_eq!(off.0[t], expect, "uncoalesced: tag {t} out of order");
        assert_eq!(on.0[t], expect, "coalesced: tag {t} out of order");
    }
    assert_eq!(off.1, THREADS * MSGS);
    assert_eq!(on.1, THREADS * MSGS);
    // The coalesced run actually exercised the new path; the baseline
    // never did.
    assert_eq!(off.2.coalesced_msgs, 0);
    assert!(on.2.coalesced_msgs > 0, "coalescing enabled but never used");
    assert!(on.2.coalesce_flushes > 0);
    assert!(
        on.2.coalesce_flushes < on.2.coalesced_msgs,
        "frames should carry more than one sub-message on average"
    );
}

/// The same on-vs-off equivalence, carried by the shared-memory
/// transport (in-process mode): the coalesce path's frames must survive
/// the ring codec byte-for-byte and in order.
#[test]
fn matching_order_identical_on_shm_transport() {
    let off = run(RuntimeConfig::small().with_device(lci_fabric::DeviceConfig::shm()));
    let mut on_cfg = RuntimeConfig::small().with_device(lci_fabric::DeviceConfig::shm());
    on_cfg.coalesce = CoalesceConfig::enabled_with_bytes(2048);
    let on = run(on_cfg);

    let expect: Vec<u64> = (0..MSGS as u64).collect();
    for t in 0..THREADS {
        assert_eq!(off.0[t], expect, "shm uncoalesced: tag {t} out of order");
        assert_eq!(on.0[t], expect, "shm coalesced: tag {t} out of order");
    }
    assert_eq!(off.1, THREADS * MSGS);
    assert_eq!(on.1, THREADS * MSGS);
    assert!(on.2.coalesced_msgs > 0, "coalescing enabled but never used");
    // The traffic really crossed the shm rings.
    assert!(off.2.shm_ring_hwm > 0, "shm transport unused by the workload");
}

#[test]
fn per_message_opt_out_bypasses_coalescing() {
    let mut cfg = RuntimeConfig::small();
    cfg.coalesce = CoalesceConfig::enabled_with_bytes(2048);
    let fabric = Fabric::new(2);
    let f2 = fabric.clone();
    let cfg2 = cfg.clone();
    let receiver = std::thread::spawn(move || {
        let rt = Runtime::new(f2, 1, cfg2).unwrap();
        rt.oob_barrier();
        for i in 0..20u64 {
            let desc = recv_one(&rt, 0, 64, 3, true);
            assert_eq!(u64::from_le_bytes(desc.as_slice().try_into().unwrap()), i);
        }
    });
    let rt = Runtime::new(fabric, 0, cfg).unwrap();
    rt.oob_barrier();
    for i in 0..20u64 {
        let comp = Comp::alloc_sync(1);
        loop {
            let ret = rt
                .post_send_x(1, i.to_le_bytes().to_vec(), 3, comp.clone())
                .allow_coalescing(false)
                .call()
                .unwrap();
            match ret {
                PostResult::Done(_) => break,
                PostResult::Posted => {
                    comp.as_sync().unwrap().wait_with(|| {
                        rt.progress().unwrap();
                    });
                    break;
                }
                PostResult::Retry(_) => {
                    rt.progress().unwrap();
                }
            }
        }
    }
    receiver.join().unwrap();
    let stats = rt.device().stats();
    assert_eq!(stats.coalesced_msgs, 0, "opted-out messages must post individually");
}

/// A frame fills its packet: 16-byte active messages cost 28 bytes each
/// in a frame, so an 8 KiB frame carries 292 of them and ships when the
/// 293rd would not fit. 2 920 messages then a flush are exactly 10 full
/// frames, and every message arrives.
#[test]
fn a_frame_fills_its_packet() {
    const MSGS: usize = 2920;
    let cfg = RuntimeConfig {
        coalesce: CoalesceConfig::enabled_with_bytes(8192),
        ..RuntimeConfig::default()
    };
    let fabric = Fabric::new(2);
    let rt0 = Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap();
    let rt1 = Runtime::new(fabric, 1, cfg).unwrap();
    let cq = Comp::alloc_cq();
    let rcomp = rt1.register_rcomp(cq.clone());
    for i in 0..MSGS as u128 {
        let payload = i.to_le_bytes();
        let post = rt0.post_comm_x(lci::Direction::Out, 1).send_buf(&payload[..]);
        assert!(post.remote_comp(rcomp).call().unwrap().is_done());
    }
    assert_eq!(rt0.device().coalesce_pending(), 292, "the last full frame waits for a flush");
    rt0.device().flush_coalesced().unwrap();
    assert_eq!(rt0.device().coalesce_pending(), 0);
    let mut got = 0u128;
    while got < MSGS as u128 {
        rt0.progress().unwrap();
        rt1.progress().unwrap();
        while let Some(d) = cq.pop() {
            assert_eq!(d.as_slice(), &got.to_le_bytes(), "reordered or corrupt");
            got += 1;
        }
    }
    let s = rt0.device().stats();
    assert_eq!((s.coalesced_msgs, s.coalesce_flushes), (MSGS as u64, 10));
    assert_eq!(s.coalesced_msgs / s.coalesce_flushes, 292);
    assert_eq!(rt1.device().stats().zero_copy_deliveries, MSGS as u64);
}

/// A frame's record count rides the header's 24-bit aux field, so a
/// `max_bytes` that could hold 2^24 empty records is refused.
#[test]
fn max_bytes_past_the_aux_width_is_invalid() {
    let too_big = 12 << 24;
    // Packets as large, so only the aux check can refuse it (none is
    // allocated: the config is checked first).
    let mut cfg = RuntimeConfig {
        packet: lci::PacketPoolConfig { payload_size: too_big, count: 1 },
        coalesce: CoalesceConfig::enabled_with_bytes(too_big),
        ..RuntimeConfig::default()
    };
    match Runtime::new(Fabric::new(1), 0, cfg.clone()) {
        Err(lci::FatalError::InvalidArg(m)) => assert!(m.contains("aux"), "{m}"),
        other => panic!("max_bytes {too_big} accepted: {:?}", other.map(|_| ())),
    }
    cfg.packet.payload_size = 8192;
    cfg.coalesce.max_bytes = 8192;
    assert!(Runtime::new(Fabric::new(1), 0, cfg).is_ok(), "a packet-sized frame is fine");
}
