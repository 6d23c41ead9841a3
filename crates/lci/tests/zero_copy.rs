//! Zero-copy receive-path correctness: the view-based coalesced demux
//! must be byte-identical to a copying unpack (property-tested at the
//! frame level; end-to-end through the runtime every sub-message must
//! arrive as a view with no delivery copy), and refcounted packet views
//! must return their slot to the pool exactly once, even when views are
//! cloned and dropped across threads.

use lci::proto::{coalesce_pack, coalesce_unpack, coalesce_unpack_ranges};
use lci::{
    CoalesceConfig, Comp, DataBuf, PacketPool, PacketPoolConfig, PostResult, Runtime,
    RuntimeConfig, StatsSnapshot,
};
use lci_fabric::Fabric;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const THREADS: usize = 4;
const MSGS: usize = 200;

proptest! {
    /// Demuxing a packed frame through refcounted views yields exactly
    /// the bytes the copying unpack produces, for any record sequence —
    /// and dropping the last view returns the packet slot.
    #[test]
    fn view_demux_byte_identical_to_copying(
        subs in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200)),
            1..12,
        ),
    ) {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 4096, count: 4 }).unwrap();
        let mut frame = Vec::new();
        for (imm, payload) in &subs {
            coalesce_pack(&mut frame, *imm, payload);
        }
        let mut packet = pool.get().unwrap();
        packet.fill(&frame);

        let wire = &packet.as_slice()[..packet.len()];
        let copied: Vec<(u64, Vec<u8>)> =
            coalesce_unpack(wire).unwrap().into_iter().map(|(imm, s)| (imm, s.to_vec())).collect();
        let ranges = coalesce_unpack_ranges(wire).unwrap();
        let shared = packet.into_shared();

        prop_assert_eq!(ranges.len(), copied.len());
        let views: Vec<_> = ranges
            .into_iter()
            .map(|(imm, r)| (imm, shared.view(r.start, r.end - r.start)))
            .collect();
        drop(shared);
        prop_assert_eq!(pool.outstanding(), 1, "views must keep the slot alive");
        for ((imm_v, view), (imm_c, bytes)) in views.iter().zip(&copied) {
            prop_assert_eq!(imm_v, imm_c);
            prop_assert_eq!(view.as_slice(), &bytes[..]);
        }
        drop(views);
        prop_assert_eq!(pool.outstanding(), 0, "last view must release the slot");
    }
}

/// Views cloned and dropped concurrently across threads never corrupt
/// the payload and release the slot exactly once: after every round the
/// pool reports zero outstanding packets.
#[test]
fn shared_views_refcount_stress() {
    let pool = PacketPool::new(PacketPoolConfig { payload_size: 4096, count: 8 }).unwrap();
    for round in 0..50usize {
        let mut packet = pool.get().unwrap();
        let data: Vec<u8> = (0..1024).map(|i| (i + round) as u8).collect();
        packet.fill(&data);
        let shared = packet.into_shared();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let view = shared.view(t * 256, 256);
                let expect: Vec<u8> = data[t * 256..(t + 1) * 256].to_vec();
                std::thread::spawn(move || {
                    let mut clones = Vec::new();
                    for _ in 0..100 {
                        clones.push(view.clone());
                    }
                    for c in &clones {
                        assert_eq!(c.as_slice(), &expect[..]);
                    }
                })
            })
            .collect();
        drop(shared);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.outstanding(), 0, "round {round}: slot leaked or double-freed");
    }
}

/// The payload each sender thread streams: tagged with the thread id and
/// sequence number so reordering or corruption is visible.
fn payload(t: usize, seq: u64) -> Vec<u8> {
    let mut p = seq.to_le_bytes().to_vec();
    p.extend(std::iter::repeat_n(t as u8 ^ 0x5a, 24));
    p
}

/// Streams `MSGS` active messages per thread (rcomp = thread id) from
/// rank 0 to rank 1 over `device` with coalescing on, asserting every
/// sub-message arrives as a packet view; returns the payload sequences
/// each receiver CQ observed and the receiver device's stats.
fn run_am_on(device: lci_fabric::DeviceConfig) -> (Vec<Vec<Vec<u8>>>, StatsSnapshot) {
    let mut cfg = RuntimeConfig::small().with_device(device);
    cfg.coalesce = CoalesceConfig::enabled_with_bytes(2048);
    let fabric = Fabric::new(2);
    let receiver_done = Arc::new(AtomicBool::new(false));

    let f2 = fabric.clone();
    let cfg2 = cfg.clone();
    let done2 = receiver_done.clone();
    let receiver = std::thread::spawn(move || {
        let rt = Runtime::new(f2, 1, cfg2).unwrap();
        let cqs: Vec<Comp> = (0..THREADS).map(|_| Comp::alloc_cq()).collect();
        for cq in &cqs {
            rt.register_rcomp(cq.clone());
        }
        rt.oob_barrier();
        let mut out = vec![Vec::new(); THREADS];
        let mut got = 0;
        while got < THREADS * MSGS {
            rt.progress().unwrap();
            for (t, cq) in cqs.iter().enumerate() {
                while let Some(desc) = cq.pop() {
                    assert_eq!(desc.rank, 0);
                    assert!(matches!(desc.data, DataBuf::View(_)), "sub-message was copied");
                    out[t].push(desc.as_slice().to_vec());
                    got += 1;
                }
            }
        }
        let stats = rt.device().stats();
        done2.store(true, Ordering::Release);
        (out, stats)
    });

    let rt = Runtime::new(fabric, 0, cfg).unwrap();
    rt.oob_barrier();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let rt = rt.clone();
            std::thread::spawn(move || {
                for seq in 0..MSGS as u64 {
                    let comp = Comp::alloc_sync(1);
                    loop {
                        match rt.post_am(1, payload(t, seq), comp.clone(), t as u32).unwrap() {
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
    let (out, stats) = receiver.join().unwrap();
    (out, stats)
}

/// End-to-end: the view demux delivers every payload intact and in
/// order, the receiver's stats show no delivery copied, and receives
/// were restocked in batches.
#[test]
fn am_payloads_arrive_as_views() {
    let (out, stats) = run_am_on(lci_fabric::DeviceConfig::ibv());
    for (t, got) in out.iter().enumerate() {
        let expect: Vec<Vec<u8>> = (0..MSGS as u64).map(|seq| payload(t, seq)).collect();
        assert_eq!(*got, expect, "rcomp {t} corrupted or reordered");
    }
    let total = (THREADS * MSGS) as u64;
    assert_eq!(stats.zero_copy_deliveries, total, "every AM should deliver zero-copy");
    assert_eq!(stats.copied_deliveries, 0);
    assert!(stats.replenish_batches > 0, "receives never restocked in batch");
    assert!(
        stats.replenish_posted >= stats.replenish_batches,
        "batches must post at least one receive each"
    );
}

/// The zero-copy delivery path over the shared-memory transport: frames
/// crossing the ring still demux into refcounted views without copies,
/// byte-identical to the simulated wire.
#[test]
fn am_payloads_zero_copy_over_shm() {
    let (out, stats) = run_am_on(lci_fabric::DeviceConfig::shm());
    for (t, got) in out.iter().enumerate().take(THREADS) {
        let expect: Vec<Vec<u8>> = (0..MSGS as u64).map(|seq| payload(t, seq)).collect();
        assert_eq!(*got, expect, "shm zero-copy: rcomp {t} corrupted or reordered");
    }
    let total = (THREADS * MSGS) as u64;
    assert_eq!(stats.zero_copy_deliveries, total, "every AM should deliver zero-copy");
    assert_eq!(stats.copied_deliveries, 0);
    assert!(stats.shm_ring_hwm > 0, "shm transport unused by the workload");
}
