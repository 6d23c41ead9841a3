//! Failure-injection tests: drive the runtime through the paths that
//! only appear under resource exhaustion — few posted receives (RxFull
//! retries, receiver-not-ready), tiny packet pools (NoPacket), the backlog
//! queue (`no_retry` posts), and lock-contention retries — and verify
//! that no message is ever lost or duplicated.

use lci::{Comp, CompKind, PostResult, RetryReason, Runtime, RuntimeConfig};
use lci_fabric::sync::LockDiscipline;
use lci_fabric::{DeviceConfig, Fabric};

/// A runtime config starved of every resource.
fn starved() -> RuntimeConfig {
    RuntimeConfig {
        device: DeviceConfig::ibv(),
        packet: lci::PacketPoolConfig { payload_size: 256, count: 8 },
        prepost: 4,
        matching: lci::MatchingConfig { buckets: 4 },
        ..RuntimeConfig::default()
    }
}

#[test]
fn rx_full_surfaces_retry_and_recovers() {
    let fabric = Fabric::new(2);
    let f2 = fabric.clone();
    let n_msgs = 64u32;
    let peer = std::thread::spawn(move || {
        let rt = Runtime::new(f2.clone(), 1, starved()).unwrap();
        f2.oob_barrier();
        // Receive everything, slowly.
        let cq = Comp::alloc_cq();
        let rcomp = rt.register_rcomp(cq.clone());
        assert_eq!(rcomp, 0);
        f2.oob_barrier();
        let mut got = vec![false; n_msgs as usize];
        let mut n = 0;
        while n < n_msgs {
            rt.progress().unwrap();
            if let Some(d) = cq.pop() {
                let idx = d.tag as usize;
                assert!(!got[idx], "duplicate delivery of {idx}");
                got[idx] = true;
                n += 1;
            }
        }
        f2.oob_barrier();
    });

    let rt = Runtime::new(fabric.clone(), 0, starved()).unwrap();
    fabric.oob_barrier();
    let _ = rt.register_rcomp(Comp::alloc_cq());
    fabric.oob_barrier();
    let noop = Comp::alloc_handler(|_| {});
    let mut retries = 0usize;
    for i in 0..n_msgs {
        while let PostResult::Retry(reason) =
            rt.post_am_x(1, [7u8; 32].as_slice(), noop.clone(), 0).tag(i).call().unwrap()
        {
            retries += 1;
            assert!(matches!(
                reason,
                RetryReason::RxFull | RetryReason::LockBusy | RetryReason::NoPacket
            ));
            rt.progress().unwrap();
            std::thread::yield_now();
        }
    }
    // With 4 posted receives and 64 messages, backpressure must appear.
    assert!(retries > 0, "tiny ring should force retries");
    fabric.oob_barrier();
    peer.join().unwrap();
}

/// With retry disallowed nothing bounces: what the wire refuses parks in
/// the backlog as one kind of entry, whether the runtime originated it
/// (the RTS of every fourth message, which is too large for eager) or
/// the user did (the eager sends in between). The receiver stays away
/// from the wire during the blast, so exactly its four posted receives
/// are taken directly — three eager sends, `Done` at the post and never
/// signaled, and one RTS — and the rest drain from the backlog, one
/// post each, in post order. `Done`s plus popped completions are the
/// posts, each `user_ctx` once.
#[test]
fn no_retry_mode_parks_in_backlog() {
    // The receiver's `prepost` receives.
    const TAKEN: u64 = 4;
    let fabric = Fabric::new(2);
    let f2 = fabric.clone();
    let n_msgs = 32u64;
    let size_of = |i: u64| if i % 4 == 3 { 1000 } else { 32 };
    let peer = std::thread::spawn(move || {
        let rt = Runtime::new(f2.clone(), 1, starved()).unwrap();
        f2.oob_barrier();
        // Every receive is posted up front, on one tag: the i-th posted
        // must get the i-th message sent (per-destination FIFO).
        let cq = Comp::alloc_cq();
        for i in 0..n_msgs {
            let res = rt.post_recv_x(0, vec![0u8; 1024], 5, cq.clone()).user_ctx(i).call();
            assert!(res.unwrap().is_posted());
        }
        f2.oob_barrier(); // sender blasts now
        f2.oob_barrier(); // blast over
        let mut got = 0;
        while got < n_msgs {
            rt.progress().unwrap();
            while let Some(d) = cq.pop() {
                let i = d.user_ctx;
                assert_eq!(d.as_slice(), &vec![i as u8; size_of(i)][..], "receive {i}");
                got += 1;
            }
        }
        f2.oob_barrier();
    });

    let rt = Runtime::new(fabric.clone(), 0, starved()).unwrap();
    fabric.oob_barrier();
    fabric.oob_barrier();
    // Blast with retry disallowed: everything must be accepted
    // (posted), overflowing into the backlog, and eventually delivered
    // by progress.
    let cq = Comp::alloc_cq();
    let mut seen = vec![0u32; n_msgs as usize];
    for i in 0..n_msgs {
        let res = rt
            .post_send_x(1, vec![i as u8; size_of(i)], 5, cq.clone())
            .user_ctx(i)
            .no_retry()
            .call()
            .unwrap();
        // Until PR 21 every one of these was `Posted`: an eager send the
        // wire took still waited for its `SendDone`. Now only what parks
        // (and a rendezvous) is; a send the wire took is `Done`.
        match res {
            PostResult::Done(d) => {
                assert!(i < TAKEN && i % 4 != 3, "message {i} was done at the post");
                assert_eq!((d.kind, d.user_ctx), (CompKind::Send, i));
                assert_eq!(d.as_slice(), &vec![i as u8; size_of(i)][..], "the buffer posted");
                seen[i as usize] += 1;
            }
            PostResult::Posted => {
                assert!(i >= TAKEN || i % 4 == 3, "message {i} was not done at the post")
            }
            PostResult::Retry(r) => panic!("no_retry must not surface retry ({r:?})"),
        }
    }
    let parked = rt.device().stats().backlogged;
    assert_eq!(parked, n_msgs - TAKEN, "everything past the receives parks");
    assert_eq!(rt.device().backlog_len() as u64, parked);
    fabric.oob_barrier();
    // Drain everything: every user completion arrives exactly once.
    while seen.iter().sum::<u32>() < n_msgs as u32 {
        rt.progress().unwrap();
        while let Some(d) = cq.pop() {
            assert_eq!(d.kind, CompKind::Send);
            seen[d.user_ctx as usize] += 1;
        }
    }
    fabric.oob_barrier();
    rt.progress().unwrap();
    assert!(cq.pop().is_none());
    assert_eq!(seen, vec![1; n_msgs as usize]);
    assert_eq!(rt.device().backlog_len(), 0);
    peer.join().unwrap();
}

#[test]
fn packet_pool_exhaustion_blocks_prepost_not_correctness() {
    // Pool of 8 packets, prepost target 4: heavy traffic forces the
    // progress engine to run with a starved SRQ (the sender's posts are
    // refused, receiver-not-ready, and retried).
    let fabric = Fabric::new(2);
    let f2 = fabric.clone();
    let rounds = 40u32;
    let peer = std::thread::spawn(move || {
        let rt = Runtime::new(f2.clone(), 1, starved()).unwrap();
        f2.oob_barrier();
        let cq = Comp::alloc_cq();
        let _ = rt.register_rcomp(cq.clone());
        f2.oob_barrier();
        let mut n = 0;
        let mut held = Vec::new();
        while n < rounds {
            rt.progress().unwrap();
            if let Some(d) = cq.pop() {
                // Hold some packet-backed payloads hostage to starve the
                // pool further, then release them in bursts.
                held.push(d);
                n += 1;
                if held.len() >= 6 {
                    held.clear();
                }
            }
        }
        f2.oob_barrier();
    });

    let rt = Runtime::new(fabric.clone(), 0, starved()).unwrap();
    fabric.oob_barrier();
    let _ = rt.register_rcomp(Comp::alloc_cq());
    fabric.oob_barrier();
    let noop = Comp::alloc_handler(|_| {});
    for i in 0..rounds {
        while let PostResult::Retry(_) =
            rt.post_am_x(1, [1u8; 100].as_slice(), noop.clone(), 0).tag(i).call().unwrap()
        {
            rt.progress().unwrap();
            std::thread::yield_now();
        }
    }
    fabric.oob_barrier();
    peer.join().unwrap();
}

/// Zero-copy messages against four posted receives: five rendezvous
/// sends posted `no_retry` while the receiver stays away from the wire
/// land four RTSs, and the fifth parks in the backlog; the RTRs and FINs
/// then meet the same starved receive queues on the way back. Every
/// transfer completes, byte-exact, and the rendezvous state drains.
#[test]
fn rendezvous_under_starvation() {
    const N: u32 = 5;
    let fabric = Fabric::new(2);
    let f2 = fabric.clone();
    let peer = std::thread::spawn(move || {
        let rt = Runtime::new(f2.clone(), 1, starved()).unwrap();
        let comps: Vec<Comp> = (0..N).map(|_| Comp::alloc_sync(1)).collect();
        for (i, comp) in comps.iter().enumerate() {
            let res = rt.post_recv(0, vec![0u8; 8192], i as u32, comp.clone()).unwrap();
            assert!(res.is_posted());
        }
        f2.oob_barrier(); // sender posts now
        f2.oob_barrier(); // every RTS the wire took has landed
        for (i, comp) in comps.iter().enumerate() {
            let s = comp.as_sync().unwrap();
            while !s.test() {
                rt.progress().unwrap();
            }
            let desc = s.take().pop().unwrap();
            assert_eq!(desc.kind, CompKind::Recv);
            assert_eq!(desc.data.len(), 4000);
            assert!(desc.as_slice().iter().all(|&b| b == i as u8));
        }
        f2.oob_barrier();
    });

    let rt = Runtime::new(fabric.clone(), 0, starved()).unwrap();
    fabric.oob_barrier();
    let comps: Vec<Comp> = (0..N).map(|_| Comp::alloc_sync(1)).collect();
    for (i, comp) in comps.iter().enumerate() {
        // 4000 B > the packet payload size (256): always rendezvous.
        let send = rt.post_send_x(1, vec![i as u8; 4000], i as u32, comp.clone()).no_retry();
        assert!(send.call().unwrap().is_posted(), "rendezvous is never done immediately");
    }
    assert_eq!(rt.device().stats().backlogged, 1, "the fifth RTS found no receive");
    fabric.oob_barrier();
    for comp in &comps {
        comp.as_sync().unwrap().wait_with(|| {
            rt.progress().unwrap();
        });
    }
    let (sends, recvs) = rt.device().pending_rendezvous();
    assert_eq!((sends, recvs), (0, 0), "rendezvous state must drain");
    fabric.oob_barrier();
    peer.join().unwrap();
}

#[test]
fn blocking_discipline_also_correct() {
    // The trylock wrapper is an optimization; with blocking locks the
    // runtime must still be correct (ablation parity).
    let cfg = RuntimeConfig {
        device: DeviceConfig::ibv().with_discipline(LockDiscipline::Blocking),
        ..RuntimeConfig::small()
    };
    let fabric = Fabric::new(2);
    let f2 = fabric.clone();
    let cfg2 = cfg.clone();
    let peer = std::thread::spawn(move || {
        let rt = Runtime::new(f2.clone(), 1, cfg2).unwrap();
        f2.oob_barrier();
        let cq = Comp::alloc_cq();
        rt.post_recv(0, vec![0u8; 1024], 9, cq.clone()).unwrap();
        loop {
            rt.progress().unwrap();
            if let Some(d) = cq.pop() {
                assert_eq!(d.as_slice(), &[3u8; 777][..]);
                break;
            }
        }
        f2.oob_barrier();
    });
    let rt = Runtime::new(fabric.clone(), 0, cfg).unwrap();
    fabric.oob_barrier();
    let comp = Comp::alloc_sync(1);
    loop {
        match rt.post_send(1, vec![3u8; 777], 9, comp.clone()).unwrap() {
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
    fabric.oob_barrier();
    peer.join().unwrap();
}

#[test]
fn many_devices_per_rank() {
    // Resource replication at scale: 8 devices per rank, round-robin
    // traffic over all of them. The packet pool must cover every
    // device's pre-posted receives (9 devices x 32 prepost here), or the
    // starved devices never deliver — sizing the pool to the device
    // count is the application's responsibility, as with real LCI.
    let cfg = RuntimeConfig {
        packet: lci::PacketPoolConfig { payload_size: 4096, count: 1024 },
        ..RuntimeConfig::small()
    };
    let fabric = Fabric::new(2);
    let f2 = fabric.clone();
    let ndev = 8;
    let cfg2 = cfg.clone();
    let peer = std::thread::spawn(move || {
        let rt = Runtime::new(f2.clone(), 1, cfg2).unwrap();
        let devs: Vec<_> = (0..ndev).map(|_| rt.alloc_device().unwrap()).collect();
        let cq = Comp::alloc_cq();
        let _ = rt.register_rcomp(cq.clone());
        f2.oob_barrier();
        let mut n = 0;
        while n < ndev {
            for d in &devs {
                d.progress().unwrap();
            }
            while let Some(d) = cq.pop() {
                assert_eq!(d.data.len(), 24);
                n += 1;
            }
        }
        f2.oob_barrier();
    });
    let rt = Runtime::new(fabric.clone(), 0, cfg).unwrap();
    let devs: Vec<_> = (0..ndev).map(|_| rt.alloc_device().unwrap()).collect();
    let _ = rt.register_rcomp(Comp::alloc_cq());
    fabric.oob_barrier();
    let noop = Comp::alloc_handler(|_| {});
    for (i, d) in devs.iter().enumerate() {
        while let PostResult::Retry(_) =
            rt.post_am_x(1, vec![i as u8; 24], noop.clone(), 0).device(d).call().unwrap()
        {
            d.progress().unwrap();
        }
    }
    for d in &devs {
        d.progress().unwrap();
    }
    fabric.oob_barrier();
    peer.join().unwrap();
}

/// The bytes message `i` of the inline regression carries: 1..=24 of
/// them, so every `SendBuf::Inline` length is covered.
fn inline_pattern(i: u32) -> Vec<u8> {
    (0..1 + i % 24).map(|j| (i * 31 + j) as u8).collect()
}

/// A `SendBuf::Inline` payload lives inside the enum, so it moves with
/// the buffer: into the `Done` descriptor when the wire takes the send,
/// into an operation context when a `no_retry` send parks. Blasted
/// `no_retry` at a receiver that stays away from the wire, the first
/// sends are taken (sim: the receiver's posted receives; shm: the 256
/// slots of the ring — an eager send does not touch the completion
/// staging ring) and the rest park. Both paths must ship the bytes the user passed and hand the
/// same inline buffer back, at the post or with the completion.
fn inline_payloads_survive_posting_and_parking(device: DeviceConfig) {
    const N: u32 = 300;
    let cfg = RuntimeConfig { device, ..RuntimeConfig::small() };
    let fabric = Fabric::new(2);
    let rt0 = Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap();
    let rt1 = Runtime::new(fabric, 1, cfg).unwrap();
    let (scq, rcq) = (Comp::alloc_cq(), Comp::alloc_cq());
    for i in 0..N {
        assert!(matches!(
            rt1.post_recv(0, vec![0u8; 32], i, rcq.clone()).unwrap(),
            PostResult::Posted
        ));
    }
    let came_back = |d: lci::CompDesc| match d.data {
        lci::DataBuf::SendBuf(lci::SendBuf::Inline(bytes, len)) => {
            assert_eq!(&bytes[..len as usize], inline_pattern(d.tag));
        }
        other => panic!("message {} came back as {other:?}", d.tag),
    };
    let (mut sent, mut received) = (0, 0);
    for i in 0..N {
        let res = rt0
            .post_send_x(1, inline_pattern(i).as_slice(), i, scq.clone())
            .no_retry()
            .call()
            .unwrap();
        match res {
            PostResult::Done(d) => {
                assert_eq!(d.tag, i);
                came_back(d);
                sent += 1;
            }
            PostResult::Posted => {}
            PostResult::Retry(r) => panic!("message {i}: no_retry surfaced {r:?}"),
        }
    }
    let parked = rt0.device().backlog_len();
    assert_eq!(parked as u32, N - sent, "what was not done at the post parked");
    assert!(parked > 0 && sent > 0, "{parked} of {N} parked: one path went untested");

    while sent < N || received < N {
        rt0.progress().unwrap();
        rt1.progress().unwrap();
        while let Some(d) = rcq.pop() {
            assert_eq!(d.as_slice(), inline_pattern(d.tag), "message {} arrived damaged", d.tag);
            received += 1;
        }
        while let Some(d) = scq.pop() {
            came_back(d);
            sent += 1;
        }
    }
    assert_eq!(rt0.device().backlog_len(), 0);
    rt0.progress().unwrap();
    assert!(scq.pop().is_none(), "a send that was done at the post was signaled as well");
}

#[test]
fn inline_payloads_survive_posting_and_parking_sim() {
    inline_payloads_survive_posting_and_parking(DeviceConfig::ibv());
}

#[test]
fn inline_payloads_survive_posting_and_parking_shm() {
    inline_payloads_survive_posting_and_parking(DeviceConfig::shm());
}
