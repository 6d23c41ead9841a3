//! Zero-copy receive-path correctness end to end: through the runtime
//! every coalesced sub-message must arrive as a packet view with no
//! delivery copy, and the receive path's counters are exact. (The view
//! demux itself, and the views' shared count, are unit-tested in
//! `packet_pool/tests.rs`.)

use lci::{
    CoalesceConfig, Comp, CompKind, DataBuf, PostResult, Runtime, RuntimeConfig, StatsSnapshot,
};
use lci_fabric::{BackendKind, Fabric};
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
/// `matched`, `copied_deliveries` and `zero_copy_deliveries` are the
/// same on every wire. `completions` counts the CQEs handled: none at
/// the sender; at the receiver on sim-ibv one per standalone message
/// and per coalesced frame, and on shm none — it takes every frame from
/// the wire inside the poll. Once
/// everything is popped and dropped every packet out of either pool is
/// a posted receive: no slot leaked.
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
        let landed = 3 * N as u64 + s0.coalesce_flushes;
        let cqes = if device.backend == BackendKind::Ibv { landed } else { 0 };
        assert_eq!(s1.completions, cqes, "{device:?}");
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
/// delivery counter equals its message count: a nested call neither
/// loses its counts nor has them counted again by the call it runs in.
/// `completions` counts CQEs, which shm and tcp make for none of them:
/// they take every frame from the wire.
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
        // Arrivals parked as unexpected, each in a packet: what the
        // receiver's pool has out beyond its posted receives (every CQE
        // it handles consumed one).
        let parked = || {
            let s = rts[1].device().stats();
            let posted = (s.replenish_posted - s.completions) as usize;
            rts[1].packet_pool().outstanding() - posted
        };
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
        settle(&|| parked() == N);
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
        let counts = (s1.matched, s1.copied_deliveries, s1.zero_copy_deliveries);
        assert_eq!(counts, (n, 2 * n, 2 * n), "{device:?}: (matched, copied, zero-copy)");
        let cqes = if device.backend == BackendKind::Ibv { 4 * n } else { 0 };
        assert_eq!(s1.completions, cqes, "{device:?}: CQEs handled");
        assert_eq!((s0.completions, s1.early_inbound), (0, 0), "{device:?}");
    }
}

/// The bytes of an active message in the mixed stream below: its
/// sequence number, then filler.
fn am_body(seq: u64, len: usize) -> Vec<u8> {
    let mut b = seq.to_le_bytes().to_vec();
    b.extend((8..len).map(|i| (seq as usize * 7 + i) as u8));
    b
}

/// Every kind of two-sided frame `lci` takes from a shm or tcp drain,
/// in one stream from rank 0 to rank 1 that one thread drives: 8 B and
/// 2 KiB active messages, 8 B ones coalesced into frames, an AM to an
/// rcomp registered later, AMs to a handler that replies from inside
/// the drain, a 512 KiB rendezvous (RTS and RTR) and a get with signal.
/// Each arrives intact; the AMs to one queue arrive in send order, an
/// 8 B one inline in its descriptor, a 2 KiB one in a packet and a
/// coalesced one as a view. The receiver handles no `RecvDone`: its one
/// CQE is the rendezvous FIN, a write's immediate. Once everything is
/// dropped every packet out of its pool is a posted receive again.
#[test]
fn every_claimed_kind_arrives_intact_and_in_order() {
    const ROUNDS: u64 = 8;
    const BIG: usize = 512 << 10;
    for device in drained_wires() {
        let mut cfg = RuntimeConfig::small().with_device(device);
        cfg.coalesce = CoalesceConfig::enabled_with_bytes(2048);
        let fabric = Fabric::new(2);
        let rts = [0, 1].map(|r| Runtime::new(fabric.clone(), r, cfg.clone()).unwrap());
        let (am_cq, sig_cq, late_cq, reply_cq) =
            (Comp::alloc_cq(), Comp::alloc_cq(), Comp::alloc_cq(), Comp::alloc_cq());
        let reply_to = rts[0].register_rcomp(reply_cq.clone());
        let to_queue = rts[1].register_rcomp(am_cq.clone());
        let to_sig = rts[1].register_rcomp(sig_cq.clone());
        // The handler reaches its runtime through a slot emptied at the
        // end, so the runtime does not hold itself alive.
        let nested = Arc::new(Mutex::new(None::<Runtime>));
        let slot = nested.clone();
        let to_handler = rts[1].register_rcomp(Comp::alloc_handler(move |d| {
            let rt = slot.lock().unwrap().clone().expect("the runtime is set");
            let reply = rt.post_am_x(0, d.as_slice(), Comp::alloc_cq(), reply_to);
            let posted = reply.allow_coalescing(false).no_retry().call().unwrap();
            assert!(!posted.is_retry(), "a no_retry reply asked to retry");
        }));
        *nested.lock().unwrap() = Some(rts[1].clone());
        let to_late = to_handler + 1;
        let window = vec![0u8; 4096];
        let mr = rts[1].register_memory(&window).unwrap();
        let scq = Comp::alloc_cq();
        let am = |seq: u64, len: usize, rcomp: u32, coalesce: bool| loop {
            let post = rts[0].post_am_x(1, am_body(seq, len), scq.clone(), rcomp);
            match post.allow_coalescing(coalesce).call().unwrap() {
                PostResult::Done(_) => break,
                PostResult::Posted => panic!("an eager AM was parked"),
                PostResult::Retry(_) => progress(&rts),
            }
        };

        let (big_cq, get_cq) = (Comp::alloc_cq(), Comp::alloc_cq());
        let posted = rts[1].post_recv(0, vec![0u8; BIG], 5, big_cq.clone()).unwrap();
        assert!(posted.is_posted());
        let mut seq = 0;
        for round in 0..ROUNDS {
            for (len, coalesce) in [(8, false), (2048, false), (8, true), (8, true)] {
                am(seq, len, to_queue, coalesce);
                seq += 1;
            }
            am(1000 + round, 16, to_handler, false);
            if round == 2 {
                am(2000, 8, to_late, false);
                am(2001, 2048, to_late, false);
                let big = rts[0].post_send(1, body(5, BIG), 5, scq.clone()).unwrap();
                assert!(big.is_posted(), "{device:?}: the rendezvous did not post");
            }
        }
        rts[0].device().flush_coalesced().unwrap();

        let (mut got, mut replies, mut big) = (Vec::new(), 0, None);
        for _ in 0..100_000 {
            if got.len() == seq as usize && replies == ROUNDS && big.is_some() {
                break;
            }
            progress(&rts);
            got.extend(std::iter::from_fn(|| am_cq.pop()));
            replies += std::iter::from_fn(|| reply_cq.pop()).count() as u64;
            big = big.or_else(|| big_cq.pop());
        }
        assert_eq!(got.len(), seq as usize, "{device:?}: active messages missing");
        for (i, d) in got.iter().enumerate() {
            let len = d.as_slice().len();
            assert_eq!(d.as_slice(), am_body(i as u64, len), "{device:?}: AM {i} reordered");
            let inline = matches!(d.data, DataBuf::SendBuf(lci::SendBuf::Inline(..)));
            let how = match i % 4 {
                0 => inline,
                1 => matches!(d.data, DataBuf::Packet(..)),
                _ => matches!(d.data, DataBuf::View(_)),
            };
            assert!(how, "{device:?}: AM {i} arrived as {:?}", d.data);
        }
        assert_eq!(replies, ROUNDS, "{device:?}: handler replies missing");
        let big = big.expect("the rendezvous completed");
        assert_eq!(big.as_slice(), body(5, BIG), "{device:?}: rendezvous payload");
        assert_eq!(rts[1].device().stats().early_inbound, 2, "{device:?}: AMs to the late rcomp");
        drop(got);

        // The get's signal follows once the FIN is long handled: a
        // frame behind a staged FIN lands behind it (the order rule).
        let get = rts[0].post_get_x(1, vec![0u8; 256], mr.rkey, 64, get_cq.clone());
        assert!(get.remote_comp(to_sig).tag(11).call().unwrap().is_posted());
        rts[1].register_rcomp(late_cq.clone());
        let (mut late, mut get, mut sig) = (Vec::new(), None, None);
        for _ in 0..100_000 {
            progress(&rts);
            late.extend(std::iter::from_fn(|| late_cq.pop()));
            get = get.or_else(|| get_cq.pop());
            sig = sig.or_else(|| sig_cq.pop());
            if late.len() == 2 && get.is_some() && sig.is_some() {
                break;
            }
        }
        assert_eq!(get.expect("the get completed").as_slice(), &window[64..320]);
        assert_eq!(sig.expect("the get signalled").kind, CompKind::RemoteSignal);
        let late: Vec<_> = late.into_iter().map(|d| d.as_slice().to_vec()).collect();
        assert_eq!(late, [am_body(2000, 8), am_body(2001, 2048)], "{device:?}: late AMs");
        *nested.lock().unwrap() = None;

        let s1 = rts[1].device().stats();
        assert_eq!(s1.completions, 1, "{device:?}: a CQE other than the FIN");
        let posted = (s1.replenish_posted - s1.completions) as usize;
        assert_eq!(rts[1].packet_pool().outstanding(), posted, "{device:?}: a slot leaked");
    }
}

/// Receives the receiver keeps posted in the order tests below, and
/// the size of each rank's packet pool when it is dry.
const PREPOST: usize = 160;

/// Two ranks over `device`, one thread driving them: rank 0 receives
/// and rank 1 is the source whose order is checked. Rank 0's sends to
/// itself stand for a second source drained ahead of rank 1: on shm
/// its own channel comes first, on tcp they land at the post. A `dry`
/// pool holds only the receives its device keeps posted, so a tagged
/// send that arrives before its receive finds no packet to be parked
/// in: it lands in a posted receive and its completion is staged.
fn order_pair(device: lci_fabric::DeviceConfig, dry: bool) -> [Runtime; 2] {
    let mut cfg = RuntimeConfig { prepost: PREPOST, ..RuntimeConfig::small() }.with_device(device);
    if dry {
        cfg.packet.count = PREPOST;
    }
    let fabric = Fabric::new(2);
    [0, 1].map(|r| Runtime::new(fabric.clone(), r, cfg.clone()).unwrap())
}

/// A message on the order tests' tag: its sequence number, then filler.
fn seq_body(seq: u32, len: usize) -> Vec<u8> {
    let mut b = seq.to_le_bytes().to_vec();
    b.resize(len, 0xA5);
    b
}

/// Sends `body` from `from` to rank 0 on `tag`, progressing both ranks
/// while the wire refuses it. Rank 1 then progresses once: a tcp post
/// only appends, the bytes leave at the poster's next poll. Rank 0 does
/// not, so nothing reaches its receive path before the test says.
fn send_to_0(rts: &[Runtime; 2], from: usize, tag: u32, body: Vec<u8>) {
    let scq = Comp::alloc_cq();
    while rts[from].post_send(0, body.clone(), tag, scq.clone()).unwrap().is_retry() {
        progress(rts);
    }
    if from == 1 {
        rts[1].progress().unwrap();
    }
}

/// Fills rank 0's poll batch (`PROGRESS_BATCH`, 64) with sends to
/// itself on another tag, then, on tcp, gives loopback a moment to
/// carry what rank 1 sent: a frame still in the socket at rank 0's next
/// drain is simply one that arrives later, so the case goes untested
/// but not red.
fn stage_a_batch_ahead(rts: &[Runtime; 2]) {
    for i in 0..64 {
        send_to_0(rts, 0, 99, seq_body(i, 8));
    }
    std::thread::sleep(std::time::Duration::from_millis(20));
}

/// Posts `n` receives for rank 1's messages on tag 7 at rank 0, with
/// user contexts `first..first + n`; none may match at its post.
fn post_ordered_recvs(rts: &[Runtime; 2], cq: &Comp, first: u64, n: u64, len: usize) {
    for ctx in first..first + n {
        let posted = rts[0].post_recv_x(1, vec![0u8; len], 7, cq.clone()).user_ctx(ctx).call();
        assert!(posted.unwrap().is_posted(), "receive {ctx} matched at its post");
    }
}

/// Progresses both ranks until `n` receives complete on `cq`, and
/// asserts that receive `i` got rank 1's message `i`: a `(source, tag)`
/// matches its receives in send order.
fn assert_send_order(rts: &[Runtime; 2], cq: &Comp, n: usize, what: &str) {
    let mut got = Vec::new();
    for _ in 0..100_000 {
        if got.len() == n {
            break;
        }
        progress(rts);
        got.extend(std::iter::from_fn(|| cq.pop()));
    }
    assert_eq!(got.len(), n, "{what}: receives missing");
    for d in &got {
        let seq = u32::from_le_bytes(d.as_slice()[..4].try_into().unwrap());
        assert_eq!((d.rank, seq as u64), (1, d.user_ctx), "{what}: matched out of send order");
    }
}

/// The wires whose drains `lci` takes tagged sends from.
fn drained_wires() -> [lci_fabric::DeviceConfig; 2] {
    [lci_fabric::DeviceConfig::shm(), lci_fabric::DeviceConfig::tcp()]
}

/// A send that reached its receiver before its receive was posted, and
/// was landed there with its completion still staged behind a full
/// poll batch, keeps its place ahead of a send that arrives once the
/// receive is posted and could be taken from the wire at once: the
/// later one lands behind it.
#[test]
fn a_send_staged_before_its_receive_keeps_its_place() {
    for device in drained_wires() {
        let rts = order_pair(device, true);
        let cq = Comp::alloc_cq();
        send_to_0(&rts, 1, 7, seq_body(0, 8));
        stage_a_batch_ahead(&rts);
        rts[0].progress().unwrap();
        assert_eq!(rts[0].device().stats().completions, 64, "{device:?}: one poll batch");
        post_ordered_recvs(&rts, &cq, 0, 2, 8);
        send_to_0(&rts, 1, 7, seq_body(1, 8));
        assert_send_order(&rts, &cq, 2, &format!("{device:?}"));
    }
}

/// A rendezvous RTS behind a send the dry pool made land, in one turn
/// of its source's drain, lands too and stays staged behind a full
/// poll batch; an eager send on the RTS's tag that arrives next lands
/// behind it instead of being taken from the wire and matching first.
#[test]
fn an_eager_send_behind_a_staged_rts_matches_second() {
    const BIG: usize = 3 << 12;
    for device in drained_wires() {
        let rts = order_pair(device, true);
        let cq = Comp::alloc_cq();
        post_ordered_recvs(&rts, &cq, 0, 2, BIG);
        send_to_0(&rts, 1, 8, seq_body(0, 8));
        send_to_0(&rts, 1, 7, seq_body(0, BIG));
        stage_a_batch_ahead(&rts);
        rts[0].progress().unwrap();
        assert_eq!(rts[0].device().stats().completions, 64, "{device:?}: one poll batch");
        send_to_0(&rts, 1, 7, seq_body(1, 8));
        assert_send_order(&rts, &cq, 2, &format!("{device:?}"));
    }
}

/// Active messages past the inline size that find the dry pool empty
/// are declined and land, behind a full poll batch, in posted receives;
/// once receives on the batch's tag give packets back, later AMs from
/// the same source could be taken from the wire, but land behind the
/// staged ones: the queue gets them in send order.
#[test]
fn an_am_declined_for_a_dry_pool_keeps_its_place() {
    const EARLY: u64 = 40;
    const LATE: u64 = 10;
    for device in drained_wires() {
        let rts = order_pair(device, true);
        let cq = Comp::alloc_cq();
        let rcomp = rts[0].register_rcomp(cq.clone());
        let am = |seq: u64| {
            let scq = Comp::alloc_cq();
            while rts[1].post_am(0, am_body(seq, 64), scq.clone(), rcomp).unwrap().is_retry() {
                progress(&rts);
            }
            rts[1].progress().unwrap();
        };
        (0..EARLY).for_each(am);
        stage_a_batch_ahead(&rts);
        rts[0].progress().unwrap();
        assert_eq!(rts[0].device().stats().completions, 64, "{device:?}: one poll batch");
        for _ in 0..64 {
            let posted = rts[0].post_recv(0, vec![0u8; 8], 99, Comp::alloc_cq()).unwrap();
            assert!(matches!(posted, PostResult::Done(_)), "{device:?}: a batch frame missing");
        }
        (EARLY..EARLY + LATE).for_each(am);
        let mut got = Vec::new();
        for _ in 0..100_000 {
            if got.len() == (EARLY + LATE) as usize {
                break;
            }
            progress(&rts);
            got.extend(std::iter::from_fn(|| cq.pop()).map(|d| d.as_slice().to_vec()));
        }
        let want: Vec<_> = (0..EARLY + LATE).map(|seq| am_body(seq, 64)).collect();
        assert_eq!(got, want, "{device:?}: AMs missing or out of send order");
    }
}

/// More frames than one poll takes from two sources: rank 1's arrive
/// before their receives are posted and stay staged across polls; its
/// later sends, whose receives are posted by then, land behind them.
#[test]
fn frames_staged_across_polls_keep_source_order() {
    const EARLY: u32 = 40;
    const LATE: u32 = 10;
    for device in drained_wires() {
        let rts = order_pair(device, true);
        let cq = Comp::alloc_cq();
        for i in 0..EARLY {
            send_to_0(&rts, 1, 7, seq_body(i, 8));
        }
        stage_a_batch_ahead(&rts);
        rts[0].progress().unwrap();
        assert_eq!(rts[0].device().stats().completions, 64, "{device:?}: one poll batch");
        post_ordered_recvs(&rts, &cq, 0, (EARLY + LATE) as u64, 8);
        for i in EARLY..EARLY + LATE {
            send_to_0(&rts, 1, 7, seq_body(i, 8));
        }
        assert_send_order(&rts, &cq, (EARLY + LATE) as usize, &format!("{device:?}"));
    }
}
