//! Cross-rank integration tests for the LCI runtime: every protocol path
//! (inject / buffer-copy / zero-copy rendezvous), every paradigm of paper
//! Table 1, completion objects, matching policies, and multithreaded use.

use lci::coll;
use lci::{
    Comp, CompKind, DeviceConfig, Direction, Fabric, MatchingPolicy, PostResult, Runtime,
    RuntimeConfig, SumU64,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Runs `f(rank, runtime)` on `n` rank-threads over one fabric.
fn with_ranks(n: usize, cfg: RuntimeConfig, f: impl Fn(usize, Runtime) + Send + Sync + 'static) {
    let fabric = Fabric::new(n);
    let f = Arc::new(f);
    let handles: Vec<_> = (0..n)
        .map(|r| {
            let fabric = fabric.clone();
            let cfg = cfg.clone();
            let f = f.clone();
            std::thread::Builder::new()
                .name(format!("rank{r}"))
                .spawn(move || {
                    let rt = Runtime::new(fabric, r, cfg).unwrap();
                    rt.oob_barrier(); // all devices exist before traffic
                    f(r, rt);
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

fn send_until_accepted(rt: &Runtime, rank: usize, data: Vec<u8>, tag: u32, comp: Comp) -> bool {
    // Returns true if the completion object will be signaled.
    loop {
        match rt.post_send(rank, data.clone(), tag, comp.clone()).unwrap() {
            PostResult::Done(_) => return false,
            PostResult::Posted => return true,
            PostResult::Retry(_) => {
                rt.progress().unwrap();
            }
        }
    }
}

fn recv_one(rt: &Runtime, rank: usize, size: usize, tag: u32) -> lci::CompDesc {
    let comp = Comp::alloc_sync(1);
    match rt.post_recv(rank, vec![0u8; size], tag, comp.clone()).unwrap() {
        PostResult::Done(desc) => desc,
        PostResult::Posted => {
            let sync = comp.as_sync().unwrap();
            while !sync.test() {
                rt.progress().unwrap();
            }
            sync.take().pop().unwrap()
        }
        PostResult::Retry(_) => unreachable!(),
    }
}

#[test]
fn sendrecv_all_protocol_sizes() {
    // 8 B (inject), 1 KiB (bcopy), 64 KiB (rendezvous zero-copy).
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        for (i, size) in [8usize, 1024, 65536].into_iter().enumerate() {
            let tag = 100 + i as u32;
            let pattern = (i as u8).wrapping_add(7);
            if rank == 0 {
                let comp = Comp::alloc_sync(1);
                let signaled = send_until_accepted(&rt, 1, vec![pattern; size], tag, comp.clone());
                if signaled {
                    comp.as_sync().unwrap().wait_with(|| {
                        rt.progress().unwrap();
                    });
                }
            } else {
                let desc = recv_one(&rt, 0, size, tag);
                assert_eq!(desc.rank, 0);
                assert_eq!(desc.tag, tag);
                assert_eq!(desc.kind, CompKind::Recv);
                assert_eq!(desc.data.len(), size);
                assert!(desc.as_slice().iter().all(|&b| b == pattern));
            }
            rt.oob_barrier();
        }
    });
}

#[test]
fn recv_posted_before_and_after_send() {
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        if rank == 0 {
            // Unexpected path: send first, receiver posts later.
            let c = Comp::alloc_sync(1);
            if send_until_accepted(&rt, 1, vec![1u8; 300], 1, c.clone()) {
                c.as_sync().unwrap().wait_with(|| {
                    rt.progress().unwrap();
                });
            }
            rt.oob_barrier();
            // Expected path: receiver already posted (barrier ordered it).
            rt.oob_barrier();
            let c = Comp::alloc_sync(1);
            if send_until_accepted(&rt, 1, vec![2u8; 300], 2, c.clone()) {
                c.as_sync().unwrap().wait_with(|| {
                    rt.progress().unwrap();
                });
            }
        } else {
            rt.oob_barrier(); // let the unexpected send land first
                              // Drain it into the matching engine.
            for _ in 0..50 {
                rt.progress().unwrap();
            }
            let desc = recv_one(&rt, 0, 512, 1);
            assert_eq!(desc.as_slice(), &vec![1u8; 300][..]);

            let comp = Comp::alloc_sync(1);
            let res = rt.post_recv(0, vec![0u8; 512], 2, comp.clone()).unwrap();
            assert!(res.is_posted(), "no send yet, must be posted");
            rt.oob_barrier();
            let sync = comp.as_sync().unwrap();
            while !sync.test() {
                rt.progress().unwrap();
            }
            let desc = sync.take().pop().unwrap();
            assert_eq!(desc.as_slice(), &vec![2u8; 300][..]);
        }
    });
}

#[test]
fn active_messages_eager_and_rendezvous() {
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        // Symmetric registration: every rank registers one CQ.
        let rcq = Comp::alloc_cq();
        let rcomp = rt.register_rcomp(rcq.clone());
        rt.oob_barrier();

        if rank == 0 {
            for size in [16usize, 2000, 50_000] {
                let scomp = Comp::alloc_sync(1);
                let mut pending = false;
                loop {
                    match rt.post_am(1, vec![0xAB; size], scomp.clone(), rcomp).unwrap() {
                        PostResult::Done(_) => break,
                        PostResult::Posted => {
                            pending = true;
                            break;
                        }
                        PostResult::Retry(_) => {
                            rt.progress().unwrap();
                        }
                    }
                }
                if pending {
                    scomp.as_sync().unwrap().wait_with(|| {
                        rt.progress().unwrap();
                    });
                }
            }
            rt.oob_barrier();
        } else {
            let mut got = Vec::new();
            while got.len() < 3 {
                rt.progress().unwrap();
                if let Some(desc) = rcq.pop() {
                    assert_eq!(desc.kind, CompKind::Am);
                    assert_eq!(desc.rank, 0);
                    assert!(desc.as_slice().iter().all(|&b| b == 0xAB));
                    got.push(desc.data.len());
                }
            }
            got.sort_unstable();
            assert_eq!(got, vec![16, 2000, 50_000]);
            rt.oob_barrier();
        }
    });
}

#[test]
fn rma_put_get_with_signals() {
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        // Rank 1 exposes a 4 KiB window; rkeys are exchanged via the
        // fabric's out-of-band allgather (PMI stand-in).
        let window = vec![0u8; 4096];
        let mr = rt.register_memory(&window).unwrap();
        let all = rt.fabric().oob_allgather(rank, mr.rkey.0.to_le_bytes().to_vec());
        let rkey1 = lci::Rkey(u32::from_le_bytes(all[1][..4].try_into().unwrap()));

        let sig_cq = Comp::alloc_cq();
        let sig_rcomp = rt.register_rcomp(sig_cq.clone());
        assert_eq!(sig_rcomp, 0, "first registration on each rank");
        rt.oob_barrier();

        if rank == 0 {
            // Put with signal into rank 1's window at offset 128.
            let comp = Comp::alloc_sync(1);
            let res = rt
                .post_put_x(1, vec![0x5A; 256], rkey1, 128, comp.clone())
                .remote_comp(sig_rcomp)
                .tag(9)
                .call()
                .unwrap();
            assert!(res.is_posted());
            comp.as_sync().unwrap().wait_with(|| {
                rt.progress().unwrap();
            });
            rt.oob_barrier(); // target observed the signal
                              // Get with signal from rank 1's window.
            let comp = Comp::alloc_sync(1);
            let res = rt
                .post_get_x(1, vec![0u8; 256], rkey1, 128, comp.clone())
                .remote_comp(sig_rcomp)
                .tag(11)
                .call()
                .unwrap();
            assert!(res.is_posted());
            let sync = comp.as_sync().unwrap();
            while !sync.test() {
                rt.progress().unwrap();
            }
            let desc = sync.take().pop().unwrap();
            assert_eq!(desc.kind, CompKind::Get);
            assert_eq!(desc.as_slice(), &vec![0x5A; 256][..]);
            rt.oob_barrier();
        } else {
            // Wait for the put signal.
            let desc = loop {
                rt.progress().unwrap();
                if let Some(d) = sig_cq.pop() {
                    break d;
                }
            };
            assert_eq!(desc.kind, CompKind::RemoteSignal);
            assert_eq!(desc.rank, 0);
            assert_eq!(desc.tag, 9);
            assert_eq!(&window[128..384], &vec![0x5A; 256][..]);
            rt.oob_barrier();
            // Wait for the get signal.
            let desc = loop {
                rt.progress().unwrap();
                if let Some(d) = sig_cq.pop() {
                    break d;
                }
            };
            assert_eq!(desc.kind, CompKind::RemoteSignal);
            assert_eq!(desc.tag, 11);
            rt.oob_barrier();
        }
        drop(window);
    });
}

#[test]
fn matching_policies_wildcards() {
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        if rank == 0 {
            // Sender must know the receiver matches with a wildcard
            // (restricted wildcard semantics, §3.3.2).
            let c = Comp::alloc_sync(1);
            let posted = loop {
                match rt
                    .post_send_x(1, vec![3u8; 200], 77, c.clone())
                    .matching_policy(MatchingPolicy::RankOnly)
                    .call()
                    .unwrap()
                {
                    PostResult::Done(_) => break false,
                    PostResult::Posted => break true,
                    PostResult::Retry(_) => {
                        rt.progress().unwrap();
                    }
                }
            };
            if posted {
                c.as_sync().unwrap().wait_with(|| {
                    rt.progress().unwrap();
                });
            }
            rt.oob_barrier();
        } else {
            // Tag is a wildcard: receive with a different tag value.
            let comp = Comp::alloc_sync(1);
            let res = rt
                .post_recv_x(0, vec![0u8; 512], 99999, comp.clone())
                .matching_policy(MatchingPolicy::RankOnly)
                .call()
                .unwrap();
            let desc = match res {
                PostResult::Done(d) => d,
                PostResult::Posted => {
                    let sync = comp.as_sync().unwrap();
                    while !sync.test() {
                        rt.progress().unwrap();
                    }
                    sync.take().pop().unwrap()
                }
                PostResult::Retry(_) => unreachable!(),
            };
            assert_eq!(desc.tag, 77, "delivered tag is the sender's");
            assert_eq!(desc.data.len(), 200);
            rt.oob_barrier();
        }
    });
}

#[test]
fn table1_invalid_combination_rejected() {
    let fabric = Fabric::new(1);
    let rt = Runtime::new(fabric, 0, RuntimeConfig::small()).unwrap();
    let err = rt
        .post_comm_x(Direction::In, 0)
        .recv_buf(vec![0u8; 8])
        .comp(Comp::alloc_sync(1))
        .remote_comp(3)
        .call()
        .unwrap_err();
    assert!(matches!(err, lci::FatalError::InvalidArg(_)));
}

#[test]
fn handler_completion_from_progress() {
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let handler = Comp::alloc_handler(move |desc| {
            assert_eq!(desc.kind, CompKind::Am);
            h.fetch_add(desc.data.len(), Ordering::SeqCst);
        });
        let rcomp = rt.register_rcomp(handler);
        rt.oob_barrier();
        if rank == 0 {
            let scomp = Comp::alloc_cq();
            for _ in 0..10 {
                while let PostResult::Retry(_) =
                    rt.post_am(1, vec![1u8; 100], scomp.clone(), rcomp).unwrap()
                {
                    rt.progress().unwrap();
                }
            }
            rt.oob_barrier();
            rt.oob_barrier();
        } else {
            rt.oob_barrier();
            while hits.load(Ordering::SeqCst) < 1000 {
                rt.progress().unwrap();
            }
            assert_eq!(hits.load(Ordering::SeqCst), 1000);
            rt.oob_barrier();
        }
    });
}

#[test]
fn multithreaded_shared_runtime() {
    // Two ranks; each runs 4 worker threads sharing the runtime (shared
    // resource mode): every worker ping-pongs with its peer worker by tag.
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        let nthreads = 4;
        let iters = 50;
        let workers: Vec<_> = (0..nthreads)
            .map(|t| {
                let rt = rt.clone();
                std::thread::spawn(move || {
                    let peer = 1 - rank;
                    for i in 0..iters {
                        let tag = (t * 1000 + i) as u32;
                        if rank == 0 {
                            let c = Comp::alloc_sync(1);
                            if send_until_accepted(&rt, peer, vec![t as u8; 128], tag, c.clone()) {
                                c.as_sync().unwrap().wait_with(|| {
                                    rt.progress().unwrap();
                                });
                            }
                            let desc = recv_one(&rt, peer, 256, tag);
                            assert_eq!(desc.as_slice(), &vec![t as u8; 128][..]);
                        } else {
                            let desc = recv_one(&rt, peer, 256, tag);
                            assert_eq!(desc.as_slice(), &vec![t as u8; 128][..]);
                            let c = Comp::alloc_sync(1);
                            if send_until_accepted(&rt, peer, vec![t as u8; 128], tag, c.clone()) {
                                c.as_sync().unwrap().wait_with(|| {
                                    rt.progress().unwrap();
                                });
                            }
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    });
}

#[test]
fn multithreaded_dedicated_devices() {
    // Each worker thread gets its own device (dedicated resource mode);
    // devices are allocated on the main rank thread in deterministic
    // order so indices pair up across ranks.
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        let nthreads = 3;
        let devices: Vec<_> = (0..nthreads).map(|_| rt.alloc_device().unwrap()).collect();
        rt.oob_barrier(); // both ranks created all devices
        let workers: Vec<_> = devices
            .into_iter()
            .enumerate()
            .map(|(t, dev)| {
                let rt = rt.clone();
                std::thread::spawn(move || {
                    let peer = 1 - rank;
                    for i in 0..30u32 {
                        let tag = (t as u32) << 8 | i;
                        if rank == 0 {
                            let c = Comp::alloc_sync(1);
                            let posted = loop {
                                match rt
                                    .post_send_x(peer, vec![i as u8; 96], tag, c.clone())
                                    .device(&dev)
                                    .call()
                                    .unwrap()
                                {
                                    PostResult::Done(_) => break false,
                                    PostResult::Posted => break true,
                                    PostResult::Retry(_) => {
                                        dev.progress().unwrap();
                                    }
                                }
                            };
                            if posted {
                                c.as_sync().unwrap().wait_with(|| {
                                    dev.progress().unwrap();
                                });
                            }
                        } else {
                            let comp = Comp::alloc_sync(1);
                            let res = rt
                                .post_recv_x(peer, vec![0u8; 128], tag, comp.clone())
                                .device(&dev)
                                .call()
                                .unwrap();
                            let desc = match res {
                                PostResult::Done(d) => d,
                                PostResult::Posted => {
                                    let sync = comp.as_sync().unwrap();
                                    while !sync.test() {
                                        dev.progress().unwrap();
                                    }
                                    sync.take().pop().unwrap()
                                }
                                PostResult::Retry(_) => unreachable!(),
                            };
                            assert_eq!(desc.as_slice(), &vec![i as u8; 96][..]);
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    });
}

#[test]
fn collectives_barrier_and_allreduce() {
    with_ranks(4, RuntimeConfig::small(), |rank, rt| {
        // Barrier: no rank may pass until all arrive (checked via flag).
        coll::barrier(&rt).unwrap();

        // Allreduce (sum, then max) over u64 lanes.
        let lanes = |v: [u64; 2]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        let mut buf = lanes([rank as u64 + 1, 10 * (rank as u64 + 1)]);
        coll::allreduce(&rt, &mut buf, &SumU64).unwrap();
        assert_eq!(buf, lanes([1 + 2 + 3 + 4, 10 + 20 + 30 + 40]));
        let mut buf = lanes([rank as u64, 7]);
        coll::allreduce(&rt, &mut buf, &coll::MaxU64).unwrap();
        assert_eq!(buf, lanes([3, 7]));
    });
}

#[test]
fn collectives_allgather_and_alltoallv() {
    with_ranks(3, RuntimeConfig::small(), |rank, rt| {
        // Allgather of equal blocks, in rank order.
        let mine = vec![rank as u8 + 1; 16];
        let mut all = vec![0u8; 3 * 16];
        coll::allgather_bytes(&rt, &mine, &mut all).unwrap();
        for (r, blk) in all.chunks_exact(16).enumerate() {
            assert_eq!(blk, &[r as u8 + 1; 16], "rank {rank} slot {r}");
        }

        // All-to-all personalized blocks: to rank i send [me*10 + i; 8].
        let send: Vec<u8> = (0..3).flat_map(|i| [(rank * 10 + i) as u8; 8]).collect();
        let mut recvd = vec![0u8; 3 * 8];
        coll::alltoallv(&rt, &send, &[8; 3], &mut recvd, &[8; 3]).unwrap();
        for (src, blk) in recvd.chunks_exact(8).enumerate() {
            assert_eq!(blk, &[(src * 10 + rank) as u8; 8], "from {src}");
        }
    });
}

#[test]
fn device_attrs_and_stats() {
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        let attr = rt.device().attr();
        assert_eq!(attr.dev_id, 0);
        assert_eq!(attr.prepost_target, rt.config().prepost);

        let before = rt.device().stats();
        if rank == 0 {
            // An eager send is done at the post: no completion to wait
            // for, so the sender needs no progress call (until PR 21 it
            // progressed until its `SendDone` signaled the sync).
            let c = Comp::alloc_sync(1);
            assert!(!send_until_accepted(&rt, 1, vec![1u8; 256], 70, c.clone()));
            assert!(!c.as_sync().unwrap().test(), "done at the post and signaled as well");
        } else {
            let desc = recv_one(&rt, 0, 512, 70);
            assert_eq!(desc.data.len(), 256);
        }
        let after = rt.device().stats();
        let delta = after.since(&before);
        assert!(delta.posts >= 1, "at least one post counted");
        if rank == 1 {
            assert!(delta.progress_calls >= 1, "progress counted");
        }
        rt.oob_barrier();
    });
}

#[test]
fn iovec_send() {
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        if rank == 0 {
            let segs: Vec<Box<[u8]>> =
                vec![vec![1u8; 100].into(), vec![2u8; 50].into(), vec![3u8; 25].into()];
            let c = Comp::alloc_sync(1);
            let posted = loop {
                match rt.post_send(1, segs.clone(), 5, c.clone()).unwrap() {
                    PostResult::Done(_) => break false,
                    PostResult::Posted => break true,
                    PostResult::Retry(_) => {
                        rt.progress().unwrap();
                    }
                }
            };
            if posted {
                c.as_sync().unwrap().wait_with(|| {
                    rt.progress().unwrap();
                });
            }
        } else {
            let desc = recv_one(&rt, 0, 512, 5);
            let d = desc.as_slice();
            assert_eq!(d.len(), 175);
            assert!(d[..100].iter().all(|&b| b == 1));
            assert!(d[100..150].iter().all(|&b| b == 2));
            assert!(d[150..].iter().all(|&b| b == 3));
        }
        rt.oob_barrier();
    });
}

#[test]
fn user_ctx_roundtrip() {
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        if rank == 0 {
            let c = Comp::alloc_sync(1);
            let res =
                rt.post_send_x(1, vec![9u8; 500], 3, c.clone()).user_ctx(0xCAFE).call().unwrap();
            if res.is_posted() {
                let sync = c.as_sync().unwrap();
                while !sync.test() {
                    rt.progress().unwrap();
                }
                let desc = sync.take().pop().unwrap();
                assert_eq!(desc.user_ctx, 0xCAFE);
            }
        } else {
            let comp = Comp::alloc_sync(1);
            let res =
                rt.post_recv_x(0, vec![0u8; 512], 3, comp.clone()).user_ctx(0xBEEF).call().unwrap();
            let desc = match res {
                PostResult::Done(d) => d,
                PostResult::Posted => {
                    let sync = comp.as_sync().unwrap();
                    while !sync.test() {
                        rt.progress().unwrap();
                    }
                    sync.take().pop().unwrap()
                }
                PostResult::Retry(_) => unreachable!(),
            };
            assert_eq!(desc.user_ctx, 0xBEEF);
        }
        rt.oob_barrier();
    });
}

#[test]
fn completion_graph_drives_communication() {
    // A two-node graph on rank 0: send A, then (after A completes) send
    // B; rank 1 receives both and checks it saw A's payload before B's.
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        if rank == 0 {
            let mut gb = lci::GraphBuilder::new();
            let rt_a = rt.clone();
            let a = gb.add_comm(move |comp| loop {
                match rt_a.post_send(1, vec![0xA1; 700], 21, comp.clone()).unwrap() {
                    PostResult::Done(d) => {
                        comp.signal(d);
                        break;
                    }
                    PostResult::Posted => break,
                    PostResult::Retry(_) => {
                        rt_a.progress().unwrap();
                    }
                }
            });
            let rt_b = rt.clone();
            let b = gb.add_comm(move |comp| loop {
                match rt_b.post_send(1, vec![0xB2; 700], 22, comp.clone()).unwrap() {
                    PostResult::Done(d) => {
                        comp.signal(d);
                        break;
                    }
                    PostResult::Posted => break,
                    PostResult::Retry(_) => {
                        rt_b.progress().unwrap();
                    }
                }
            });
            gb.add_edge(a, b);
            let g = gb.build();
            g.start();
            g.wait_with(|| {
                rt.progress().unwrap();
            });
        } else {
            let d1 = recv_one(&rt, 0, 1024, 21);
            assert!(d1.as_slice().iter().all(|&x| x == 0xA1));
            let d2 = recv_one(&rt, 0, 1024, 22);
            assert!(d2.as_slice().iter().all(|&x| x == 0xB2));
        }
        rt.oob_barrier();
    });
}

#[test]
fn explicit_packet_send() {
    // §3.3.1: assemble the message directly in a packet to skip the
    // staging copy.
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        if rank == 0 {
            let mut pkt = rt.packet_pool().get().unwrap();
            pkt.fill(b"packet-assembled payload");
            let c = Comp::alloc_sync(1);
            let posted = loop {
                match rt.post_send(1, pkt, 8, c.clone()) {
                    Ok(PostResult::Done(_)) => break false,
                    Ok(PostResult::Posted) => break true,
                    Ok(PostResult::Retry(_)) => {
                        rt.progress().unwrap();
                        // Retried consumed packet: refill a new one.
                        let mut p2 = rt.packet_pool().get().unwrap();
                        p2.fill(b"packet-assembled payload");
                        pkt = p2;
                    }
                    Err(e) => panic!("{e}"),
                }
            };
            if posted {
                c.as_sync().unwrap().wait_with(|| {
                    rt.progress().unwrap();
                });
            }
        } else {
            let desc = recv_one(&rt, 0, 64, 8);
            assert_eq!(desc.as_slice(), b"packet-assembled payload");
        }
        rt.oob_barrier();
    });
}

/// Arrivals addressed to an rcomp the target has not registered yet are
/// parked (`early_inbound`), kept in arrival order across retries while
/// their rcomp is still missing, and delivered exactly once when the
/// registration lands — by the same path a first-attempt delivery takes.
/// Both ranks run on this thread, so every step is deterministic.
#[test]
fn early_inbound_parks_until_the_rcomp_registers() {
    let fabric = Fabric::new(2);
    let src = Runtime::new(fabric.clone(), 0, RuntimeConfig::small()).unwrap();
    let dst = Runtime::new(fabric, 1, RuntimeConfig::small()).unwrap();
    let window = vec![0u8; 64];
    let mr = dst.register_memory(&window).unwrap();
    let progress_until = |what: &str, done: &mut dyn FnMut() -> bool| {
        for _ in 0..10_000 {
            src.progress().unwrap();
            dst.progress().unwrap();
            if done() {
                return;
            }
        }
        panic!("no progress towards: {what}");
    };

    // An eager AM and a rendezvous AM to rcomp 0, a put-with-signal to
    // rcomp 1; the target has registered neither.
    let local = Comp::alloc_cq();
    let eager: Vec<u8> = (0..100u8).collect();
    let large: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
    assert!(!src.post_am_x(1, eager.clone(), local.clone(), 0).tag(1).call().unwrap().is_retry());
    assert!(src.post_am_x(1, large.clone(), local.clone(), 0).tag(2).call().unwrap().is_posted());
    let put = src.post_put_x(1, vec![0x5A; 64], mr.rkey, 0, local.clone()).remote_comp(1).tag(3);
    assert!(put.call().unwrap().is_posted());
    progress_until("three parked arrivals", &mut || dst.device().stats().early_inbound == 3);
    for _ in 0..10 {
        src.progress().unwrap();
        dst.progress().unwrap();
    }
    let s = dst.device().stats();
    assert_eq!((s.early_inbound, s.zero_copy_deliveries), (3, 0), "parked once, not delivered");
    assert_eq!(src.device().pending_rendezvous().0, 1, "no RTR before the rcomp exists");
    assert_eq!(dst.device().pending_rendezvous().1, 0);

    // rcomp 0 registers: both AMs deliver, the signal stays parked.
    let am_cq = Comp::alloc_cq();
    assert_eq!(dst.register_rcomp(am_cq.clone()), 0);
    let mut ams = Vec::new();
    progress_until("both AMs", &mut || {
        ams.extend(am_cq.pop());
        ams.len() == 2
    });
    assert!(ams.iter().all(|d| d.kind == CompKind::Am && d.rank == 0));
    assert_eq!((ams[0].tag, ams[0].as_slice()), (1, &eager[..]));
    assert_eq!((ams[1].tag, ams[1].as_slice()), (2, &large[..]));

    // rcomp 1 registers: the signal delivers.
    let sig_cq = Comp::alloc_cq();
    assert_eq!(dst.register_rcomp(sig_cq.clone()), 1);
    let mut sig = None;
    progress_until("the put's signal", &mut || {
        sig = sig_cq.pop();
        sig.is_some()
    });
    let sig = sig.unwrap();
    assert_eq!((sig.kind, sig.rank, sig.tag), (CompKind::RemoteSignal, 0, 3));
    assert_eq!(window, vec![0x5A; 64]);

    // Once each, and nothing was parked twice.
    for _ in 0..10 {
        src.progress().unwrap();
        dst.progress().unwrap();
    }
    assert!(am_cq.pop().is_none() && sig_cq.pop().is_none());
    assert_eq!(dst.device().stats().early_inbound, 3);
    assert_eq!(src.device().pending_rendezvous(), (0, 0));
    assert_eq!(dst.device().pending_rendezvous(), (0, 0));
}

/// A put or a get without remote completion lands in registered memory
/// and names no device at the target, so it must not wait for one: rank
/// 0 posts both from an `alloc_device()`d second device — whose index
/// `lci` passes on as the default target device — toward a rank that has
/// only device 0, on every backend. Both ranks run on this thread.
#[test]
fn put_and_get_from_a_second_device_reach_a_one_device_rank() {
    let backends =
        [DeviceConfig::ibv(), DeviceConfig::ofi(), DeviceConfig::shm(), DeviceConfig::tcp()];
    for backend in backends {
        let fabric = Fabric::new(2);
        let cfg = RuntimeConfig::small().with_device(backend);
        let src = Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap();
        let dst = Runtime::new(fabric, 1, cfg).unwrap();
        let second = src.alloc_device().unwrap();
        let window: Vec<u8> = (0..=255).collect();
        let mr = dst.register_memory(&window).unwrap();
        let done = Comp::alloc_cq();
        let progress_all = || {
            src.progress_x().device(&second).call().unwrap();
            src.progress().unwrap();
            dst.progress().unwrap();
        };
        // A post the device refuses comes back as `Retry`: give it a
        // bounded number of tries, then wait for its completion.
        let complete = |what: &str, post: &dyn Fn() -> PostResult| {
            for _ in 0..1000 {
                match post() {
                    PostResult::Done(desc) => return desc,
                    PostResult::Retry(_) => progress_all(),
                    PostResult::Posted => {
                        // By the clock, not by iterations: socket bytes
                        // land when the kernel says so, which a loaded
                        // two-core box delays.
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(20);
                        while std::time::Instant::now() < deadline {
                            progress_all();
                            if let Some(desc) = done.pop() {
                                return desc;
                            }
                        }
                        panic!("{what} on {:?} never completed", backend.backend);
                    }
                }
            }
            panic!("{what} on {:?} was refused 1000 times", backend.backend);
        };

        let put = complete("put", &|| {
            let post = src.post_put_x(1, vec![0x5A; 64], mr.rkey, 32, done.clone());
            post.device(&second).call().unwrap()
        });
        assert_eq!(put.kind, CompKind::Put);
        assert_eq!(&window[32..96], &[0x5A; 64]);
        let get = complete("get", &|| {
            let post = src.post_get_x(1, vec![0u8; 64], mr.rkey, 64, done.clone());
            post.device(&second).call().unwrap()
        });
        assert_eq!(get.kind, CompKind::Get);
        let expect: Vec<u8> = [vec![0x5A; 32], (96..128).collect()].concat();
        assert_eq!(get.as_slice(), &expect[..]);
    }
}

/// Every eager send is done at the post: on every backend, for every
/// size class up to the packet payload size and every shape a send buffer has
/// (owned, inline, iovec), `post_send` returns `Done` carrying the very
/// buffer that was posted — same storage, not a copy — the bytes arrive,
/// and neither the completion object nor the sender's progress ever
/// hears of the send. Both ranks run on this thread.
#[test]
fn eager_sends_are_done_at_the_post_with_the_buffer_posted() {
    use lci::{DataBuf, SendBuf};
    /// Where the buffer's out-of-line storage lives, and its bytes.
    fn storage(buf: &SendBuf) -> (Vec<*const u8>, Vec<u8>) {
        match buf {
            SendBuf::Inline(bytes, len) => (vec![], bytes[..*len as usize].to_vec()),
            SendBuf::Owned(b) => (vec![b.as_ptr()], b.to_vec()),
            SendBuf::Iovec(segs) => (segs.iter().map(|s| s.as_ptr()).collect(), segs.concat()),
            other => panic!("not a shape this test posts: {other:?}"),
        }
    }
    let backends =
        [DeviceConfig::ibv(), DeviceConfig::ofi(), DeviceConfig::shm(), DeviceConfig::tcp()];
    for backend in backends {
        let fabric = Fabric::new(2);
        let cfg = RuntimeConfig::small().with_device(backend);
        let src = Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap();
        let dst = Runtime::new(fabric, 1, cfg).unwrap();
        let eager = src.config().packet.payload_size;
        let (scq, rcq) = (Comp::alloc_cq(), Comp::alloc_cq());
        // Each power of two with its neighbours: both sides of the
        // inline cap, the wire's inline limit and every pool class.
        let mut sizes: Vec<usize> = (0..usize::BITS)
            .map(|k| 1usize << k)
            .take_while(|&s| s <= eager)
            .flat_map(|s| [s - 1, s, s + 1])
            .chain([eager])
            .filter(|s| (1..=eager).contains(s))
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        let mut tag = 0;
        for size in sizes {
            let bytes: Vec<u8> = (0..size).map(|i| (i * 7 + size) as u8).collect();
            let shapes: [&dyn Fn() -> SendBuf; 3] = [
                &|| bytes.clone().into(),
                &|| bytes.as_slice().into(), // inline up to 24 B
                &|| {
                    let (a, b) = bytes.split_at(size / 3);
                    vec![Box::from(a), Box::from(&b[..b.len() / 2]), Box::from(&b[b.len() / 2..])]
                        .into()
                },
            ];
            for make in shapes {
                tag += 1;
                let what = format!("{size} B, tag {tag}, on {:?}", backend.backend);
                let posted = dst.post_recv(0, vec![0u8; size], tag, rcq.clone()).unwrap();
                assert!(matches!(posted, PostResult::Posted), "{what}");
                let (desc, posted) = loop {
                    let buf = make();
                    let posted = storage(&buf);
                    match src.post_send(1, buf, tag, scq.clone()).unwrap() {
                        PostResult::Done(desc) => break (desc, posted),
                        PostResult::Posted => panic!("{what}: an eager send was only posted"),
                        // A wire without room, say; the buffer is gone
                        // with a retry, so build it again.
                        PostResult::Retry(_) => drop(dst.progress().unwrap()),
                    }
                };
                assert_eq!((desc.kind, desc.rank, desc.tag), (CompKind::Send, 1, tag), "{what}");
                let DataBuf::SendBuf(back) = desc.data else { panic!("{what}: no buffer back") };
                assert_eq!(storage(&back), posted, "{what}: not the buffer that was posted");
                assert_eq!(posted.1, bytes, "{what}");
                let arrived = loop {
                    src.progress().unwrap(); // tcp ships its queue here
                    dst.progress().unwrap();
                    if let Some(d) = rcq.pop() {
                        break d;
                    }
                };
                assert_eq!((arrived.tag, arrived.as_slice()), (tag, &bytes[..]), "{what}");
            }
        }
        for _ in 0..10 {
            src.progress().unwrap();
        }
        assert!(scq.pop().is_none(), "{:?}: a send done at the post was signaled", backend.backend);
        let stats = src.device().stats();
        assert_eq!((stats.completions, stats.backlogged), (0, 0), "{:?}", backend.backend);
    }
}

/// `wait_until` progresses *every* device of the runtime, not just the
/// default one: both sides of this exchange live on a second
/// `alloc_device()` device — the send's completion is a CQE on rank 0's
/// device 1 and the message arrives at rank 1's device 1 — so a wait
/// that only polled device 0 would never return. The send is
/// rendezvous-sized: an eager one is done at the post since PR 21 and
/// would leave rank 0 nothing to wait for on device 1.
#[test]
fn wait_until_progresses_a_second_device() {
    const LEN: usize = 64 << 10;
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        assert!(LEN > rt.config().packet.payload_size);
        let second = rt.alloc_device().unwrap();
        rt.oob_barrier(); // both ranks have device 1
        let comp = Comp::alloc_sync(1);
        let sync = comp.as_sync().unwrap();
        if rank == 0 {
            // The RTR and the chunks' `WriteDone`s all arrive on device 1.
            let post = rt.post_send_x(1, vec![7u8; LEN], 11, comp.clone()).device(&second);
            assert!(matches!(post.call().unwrap(), PostResult::Posted));
            rt.wait_until(|| sync.test()).unwrap();
        } else {
            // Nothing has polled device 1 yet, so the RTS cannot have
            // been delivered to the matching engine.
            let post = rt.post_recv_x(0, vec![0u8; LEN], 11, comp.clone()).device(&second);
            assert!(matches!(post.call().unwrap(), PostResult::Posted));
            rt.wait_until(|| sync.test()).unwrap();
            assert_eq!(sync.take().pop().unwrap().as_slice(), &[7u8; LEN][..]);
        }
        assert!(second.stats().progress_calls > 0, "wait_until never polled device 1");
        rt.oob_barrier();
    });
}
