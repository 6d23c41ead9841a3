//! Zero-copy receive-path correctness end to end: through the runtime
//! every coalesced sub-message must arrive as a packet view with no
//! delivery copy, and the receive path's counters are exact. (The view
//! demux itself, and the views' shared count, are unit-tested in
//! `packet_pool/tests.rs`.)

use lci::{CoalesceConfig, Comp, DataBuf, PostResult, Runtime, RuntimeConfig, StatsSnapshot};
use lci_fabric::Fabric;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const THREADS: usize = 4;
const MSGS: usize = 200;

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

/// Progresses both ranks once and pops everything rank 1's two queues
/// hold, checking each payload against `body`; returns how many it
/// popped. The descriptors drop here, so their packets go back.
fn turn(rts: &[Runtime; 2], cqs: &[Comp; 2]) -> usize {
    progress(rts);
    let mut popped = 0;
    for cq in cqs {
        while let Some(d) = cq.pop() {
            assert_eq!(d.as_slice(), body(d.tag, d.as_slice().len()), "tag {}", d.tag);
            popped += 1;
        }
    }
    popped
}

fn progress(rts: &[Runtime; 2]) {
    for rt in rts {
        rt.progress().unwrap();
    }
}

/// The bytes of a message on `tag` of `len` bytes.
fn body(tag: u32, len: usize) -> Vec<u8> {
    (0..len).map(|i| (tag as usize * 31 + i) as u8).collect()
}

/// The receive path's counters over one fixed mix, one thread driving
/// both ranks so every count repeats: standalone tagged sends whose
/// receives were posted first and ones that arrive before them,
/// standalone active messages, and then the same three coalesced.
/// `completions` counts every CQE handled — one per standalone message
/// and one per coalesced frame at the receiver, none at the sender —
/// `matched`, `copied_deliveries` and `zero_copy_deliveries` hold the
/// values they had while every arrival was reclaimed as a packet, and
/// once everything is popped and dropped every packet out of either
/// pool is a posted receive: no slot leaked.
#[test]
fn delivery_counters_hold_across_a_mixed_stream() {
    const N: usize = 24;
    for device in [lci_fabric::DeviceConfig::ibv(), lci_fabric::DeviceConfig::shm()] {
        let mut cfg = RuntimeConfig::small().with_device(device);
        cfg.coalesce = CoalesceConfig::enabled_with_bytes(2048);
        let fabric = Fabric::new(2);
        let rts = [
            Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap(),
            Runtime::new(fabric, 1, cfg).unwrap(),
        ];
        let cqs = [Comp::alloc_cq(), Comp::alloc_cq()];
        let rcomp = rts[1].register_rcomp(cqs[1].clone());
        let scq = Comp::alloc_cq();
        let (mut got, mut want) = (0, 0);
        let recv = |tag: u32| {
            let posted = rts[1].post_recv(0, vec![0u8; 1024], tag, cqs[0].clone()).unwrap();
            match posted {
                PostResult::Done(d) => {
                    assert_eq!(d.as_slice(), body(tag, d.as_slice().len()));
                    1
                }
                _ => 0,
            }
        };
        let send = |tag: u32, len: usize, am: bool, coalesce: bool| loop {
            let post = match am {
                true => rts[0].post_am_x(1, body(tag, len), scq.clone(), rcomp).tag(tag),
                false => rts[0].post_send_x(1, body(tag, len), tag, scq.clone()),
            };
            match post.allow_coalescing(coalesce).call().unwrap() {
                PostResult::Done(_) => break,
                PostResult::Posted => panic!("an eager send was parked"),
                PostResult::Retry(_) => progress(&rts),
            }
        };
        // At least a few turns, so what is on its way is handled even
        // when nothing more is expected.
        let settle = |got: &mut usize, want: usize| {
            for i in 0..10_000 {
                if i >= 8 && *got == want && rts[0].device().coalesce_pending() == 0 {
                    break;
                }
                *got += turn(&rts, &cqs);
            }
            assert_eq!(*got, want, "{device:?}: deliveries missing");
        };

        // Standalone: expected, unexpected (each receive done at its
        // post), active messages.
        (0..N).for_each(|_| assert_eq!(recv(1), 0, "no send yet"));
        (0..N).for_each(|_| send(1, 1000, false, false));
        want += N;
        settle(&mut got, want);
        (0..N).for_each(|_| send(2, 1000, false, false));
        settle(&mut got, want);
        got += (0..N).map(|_| recv(2)).sum::<usize>();
        want += N;
        (0..N).for_each(|_| send(3, 200, true, false));
        want += N;
        settle(&mut got, want);
        // Coalesced: half the receives posted first, then the same
        // three kinds of traffic in 64-byte records.
        (0..N / 2).for_each(|_| assert_eq!(recv(4), 0, "no send yet"));
        (0..N).for_each(|_| send(4, 64, false, true));
        (0..N).for_each(|_| send(5, 64, true, true));
        rts[0].device().flush_coalesced().unwrap();
        want += N / 2 + N;
        settle(&mut got, want);
        got += (0..N / 2).map(|_| recv(4)).sum::<usize>();
        want += N / 2;
        settle(&mut got, want);

        let [s0, s1] = [0, 1].map(|r| rts[r].device().stats());
        assert!(s0.coalesce_flushes > 0, "{device:?}: nothing coalesced");
        assert_eq!(s0.completions, 0, "{device:?}: the sender handled a CQE");
        assert_eq!(s1.completions, 3 * N as u64 + s0.coalesce_flushes, "{device:?}");
        let deliveries = (s1.matched, s1.copied_deliveries, s1.zero_copy_deliveries);
        let (n, half) = (N as u64, N as u64 / 2);
        assert_eq!(
            deliveries,
            (n + half, 3 * n, 2 * n),
            "{device:?}: (matched, copied, zero-copy)"
        );
        for (rt, s) in rts.iter().zip([s0, s1]) {
            let posted = s.replenish_posted - s.completions;
            assert_eq!(rt.packet_pool().outstanding() as u64, posted, "{device:?}: a slot leaked");
        }
    }
}

/// What a `progress` call tallies on its stack and adds once as it
/// returns, over more than one poll's batch (64) of each kind: tagged
/// sends whose receives were posted first, ones that arrive before them
/// (counted at the receive's post), and active messages to a queue and
/// to a handler that calls `progress` itself. On ibv, shm and tcp each
/// counter equals its message count: a nested call neither loses its
/// counts nor has them counted again by the call it runs in.
#[test]
fn tallied_counters_equal_the_message_counts() {
    const N: usize = 100;
    let devices = [
        lci_fabric::DeviceConfig::ibv(),
        lci_fabric::DeviceConfig::shm(),
        lci_fabric::DeviceConfig::tcp(),
    ];
    for device in devices {
        let cfg = RuntimeConfig::small().with_device(device);
        let fabric = Fabric::new(2);
        let rts = [
            Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap(),
            Runtime::new(fabric, 1, cfg).unwrap(),
        ];
        let cqs = [Comp::alloc_cq(), Comp::alloc_cq()];
        let to_cq = rts[1].register_rcomp(cqs[1].clone());
        // The handler reaches its runtime through a slot emptied at the
        // end, so the runtime does not hold itself alive.
        let (nested, handled) =
            (Arc::new(Mutex::new(None::<Runtime>)), Arc::new(AtomicUsize::new(0)));
        let (slot, count) = (nested.clone(), handled.clone());
        let to_handler = rts[1].register_rcomp(Comp::alloc_handler(move |d| {
            assert_eq!(d.as_slice(), body(d.tag, 8));
            count.fetch_add(1, Ordering::SeqCst);
            let rt = slot.lock().unwrap().clone();
            rt.expect("the runtime is set").progress().unwrap();
        }));
        *nested.lock().unwrap() = Some(rts[1].clone());
        let scq = Comp::alloc_cq();
        let send = |tag: u32, rcomp: Option<u32>| loop {
            let post = match rcomp {
                Some(rc) => rts[0].post_am_x(1, body(tag, 8), scq.clone(), rc).tag(tag),
                None => rts[0].post_send_x(1, body(tag, 8), tag, scq.clone()),
            };
            match post.call().unwrap() {
                PostResult::Done(_) => break,
                PostResult::Posted => panic!("an eager send was parked"),
                PostResult::Retry(_) => progress(&rts),
            }
        };
        let completions = || rts[1].device().stats().completions as usize;
        let settle = |done: &dyn Fn() -> bool| {
            let mut turns = 0;
            while !done() {
                turns += 1;
                assert!(turns < 100_000, "{device:?}: deliveries missing");
                progress(&rts);
            }
        };
        let popped = AtomicUsize::new(0);
        let pop_all = || {
            for cq in &cqs {
                while let Some(d) = cq.pop() {
                    assert_eq!(d.as_slice(), body(d.tag, 8), "tag {}", d.tag);
                    popped.fetch_add(1, Ordering::SeqCst);
                }
            }
            popped.load(Ordering::SeqCst)
        };

        for _ in 0..N {
            let posted = rts[1].post_recv(0, vec![0u8; 8], 1, cqs[0].clone()).unwrap();
            assert!(matches!(posted, PostResult::Posted), "no send yet");
        }
        (0..N).for_each(|_| send(1, None));
        settle(&|| pop_all() == N);
        (0..N).for_each(|_| send(2, None));
        settle(&|| completions() == 2 * N);
        for _ in 0..N {
            let posted = rts[1].post_recv(0, vec![0u8; 8], 2, cqs[0].clone()).unwrap();
            let PostResult::Done(d) = posted else { panic!("{device:?}: not arrived first") };
            assert_eq!(d.as_slice(), body(2, 8));
        }
        (0..N).for_each(|_| send(3, Some(to_cq)));
        settle(&|| pop_all() == 2 * N);
        (0..N).for_each(|_| send(4, Some(to_handler)));
        settle(&|| handled.load(Ordering::SeqCst) == N);
        *nested.lock().unwrap() = None;

        let [s0, s1] = [0, 1].map(|r| rts[r].device().stats());
        let n = N as u64;
        let counts = (s1.completions, s1.matched, s1.copied_deliveries, s1.zero_copy_deliveries);
        assert_eq!(
            counts,
            (4 * n, n, 2 * n, 2 * n),
            "{device:?}: (completions, matched, copied, zero-copy)"
        );
        assert_eq!((s0.completions, s1.early_inbound), (0, 0), "{device:?}");
    }
}
