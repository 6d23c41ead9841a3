use super::*;
use crate::proto::{coalesce_pack, coalesce_records};
use crate::{Fabric, Runtime, RuntimeConfig};
use proptest::prelude::*;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Barrier};

#[test]
fn get_put_roundtrip() {
    let pool = PacketPool::new(PacketPoolConfig { payload_size: 128, count: 8 }).unwrap();
    let mut p = pool.get().unwrap();
    p.fill(b"hello");
    assert_eq!(&p.as_slice()[..5], b"hello");
    assert_eq!(p.len(), 5);
    assert_eq!(pool.outstanding(), 1);
    drop(p);
    assert_eq!(pool.outstanding(), 0);
}

#[test]
fn exhaustion_returns_none() {
    let pool = PacketPool::new(PacketPoolConfig { payload_size: 64, count: 4 }).unwrap();
    let held: Vec<Packet> = (0..4).map(|_| pool.get().unwrap()).collect();
    assert!(pool.get().is_none());
    drop(held);
    assert!(pool.get().is_some());
}

/// Indices checked out in a batch count as outstanding until each is
/// reclaimed or put back; a batch larger than the home stripe steals.
#[test]
fn index_checkout_reclaim_and_put_back() {
    let pool =
        PacketPool::with_stripes(PacketPoolConfig { payload_size: 64, count: 8 }, 2).unwrap();
    let mut idxs = Vec::new();
    pool.get_idxs(3, &mut idxs);
    assert_eq!(idxs.len(), 3);
    assert_eq!(pool.outstanding(), 3);
    // SAFETY: checked out above, reclaimed once.
    let mut p = unsafe { pool.reclaim(idxs[0], 0) };
    assert_eq!(p.as_mut_slice().as_ptr(), pool.packet_ptr(idxs[0]).cast_const());
    drop(p);
    assert_eq!(pool.outstanding(), 2);
    pool.put_idxs(&idxs[1..]);
    assert_eq!(pool.outstanding(), 0);
    // From the other stripe: everything sits on this thread's, so the
    // batch is steals and what they moved home, until the pool is dry.
    let me = topology::current_core();
    let pool2 = pool.clone();
    let got = std::thread::spawn(move || {
        topology::bind_current_thread(me + 1);
        let mut idxs = Vec::new();
        pool2.get_idxs(16, &mut idxs);
        pool2.put_idxs(&idxs);
        idxs.len()
    });
    assert_eq!(got.join().unwrap(), 8, "a batch on an empty stripe steals");
    assert_eq!(pool.outstanding(), 0);
}

#[test]
fn stealing_across_threads() {
    // Two explicit stripes so the test exercises the cross-core
    // steal path even on a single-core host: the pool is seeded on
    // this thread's home stripe, and a thread bound to the *other*
    // logical core must steal to make progress.
    let pool =
        PacketPool::with_stripes(PacketPoolConfig { payload_size: 32, count: 64 }, 2).unwrap();
    let my_core = topology::current_core();
    let pool2 = pool.clone();
    let t = std::thread::spawn(move || {
        topology::bind_current_thread(my_core + 1);
        let mut got = Vec::new();
        for _ in 0..16 {
            if let Some(p) = pool2.get() {
                got.push(p);
            }
        }
        got.len()
    });
    let stolen = t.join().unwrap();
    assert!(stolen > 0, "remote core should steal packets");
    drop(pool);
}

#[test]
fn concurrent_get_put_stress() {
    let pool = PacketPool::new(PacketPoolConfig { payload_size: 32, count: 128 }).unwrap();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut ok = 0usize;
                for _ in 0..5_000 {
                    if let Some(p) = pool.get() {
                        ok += 1;
                        drop(p);
                    }
                }
                ok
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
    assert_eq!(pool.outstanding(), 0);
}

/// A frame's views carry the count set up front: the slot stays out
/// while any view or the frame handle lives, views never handed out
/// are given back with the handle, and nothing is released twice.
#[test]
fn frame_views_release_slot_once() {
    let pool = PacketPool::new(PacketPoolConfig { payload_size: 64, count: 2 }).unwrap();
    let mut p = pool.get().unwrap();
    p.fill(b"abcdefgh");
    let frame = p.into_views(3);
    let (v1, v2) = (frame.view(0, 4), frame.view(4, 4));
    drop(frame);
    assert_eq!(pool.outstanding(), 1, "views keep the slot checked out");
    let v3 = v2.clone();
    assert_eq!((v1.as_slice(), v2.as_slice()), (&b"abcd"[..], &b"efgh"[..]));
    drop((v1, v2));
    assert_eq!(pool.outstanding(), 1, "a clone holds its own reference");
    assert_eq!(v3.as_slice(), b"efgh");
    drop(v3);
    assert_eq!(pool.outstanding(), 0);
    let frame = pool.get().unwrap().into_views(2);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _views = (frame.view(0, 0), frame.view(0, 0), frame.view(0, 0));
    }));
    assert!(r.is_err(), "a view past the count must panic");
    drop(frame);
    assert_eq!(pool.outstanding(), 0);
}

/// The views of one frame dropped on four threads in random order:
/// the slot goes back to the pool exactly once, after the last one,
/// and no view reads a reused slot. A scribbler keeps taking packets
/// and overwriting them, so a slot handed back early shows as a
/// corrupt view, and one handed back twice as a pool that is not
/// back to its baseline (or as two owners of one slot).
#[test]
fn frame_views_dropped_across_threads() {
    const VIEWS: usize = 64;
    const SIZE: usize = 16;
    let pool = PacketPool::new(PacketPoolConfig { payload_size: VIEWS * SIZE, count: 4 }).unwrap();
    let baseline = pool.outstanding();
    let stop = Arc::new(AtomicUsize::new(0));
    let scribbler = {
        let (pool, stop) = (pool.clone(), stop.clone());
        std::thread::spawn(move || {
            while stop.load(Ordering::Relaxed) == 0 {
                if let Some(mut p) = pool.get() {
                    p.fill(&[0xFF; VIEWS * SIZE]);
                }
            }
        })
    };
    let byte = |round: usize, view: usize| ((round * 7 + view) % 251) as u8;
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng as usize
    };
    for round in 0..200 {
        let mut p = loop {
            if let Some(p) = pool.get() {
                break p;
            }
        };
        let bytes: Vec<u8> = (0..VIEWS * SIZE).map(|i| byte(round, i / SIZE)).collect();
        p.fill(&bytes);
        let frame = p.into_views(VIEWS as u32);
        let mut views: Vec<_> = (0..VIEWS).map(|i| (i, frame.view(i * SIZE, SIZE))).collect();
        drop(frame);
        for i in (1..VIEWS).rev() {
            views.swap(i, next() % (i + 1));
        }
        let mut bins: Vec<Vec<_>> = (0..4).map(|_| Vec::new()).collect();
        for v in views {
            bins[next() % 4].push(v);
        }
        std::thread::scope(|s| {
            for bin in bins {
                s.spawn(move || {
                    for (i, view) in bin {
                        std::thread::yield_now();
                        assert!(
                            view.as_slice().iter().all(|&b| b == byte(round, i)),
                            "round {round}: view {i} read a reused slot"
                        );
                    }
                });
            }
        });
    }
    stop.store(1, Ordering::Relaxed);
    scribbler.join().unwrap();
    assert_eq!(pool.outstanding(), baseline, "a frame's slot leaked or was freed twice");
}

/// Packets and a coalesced frame's views outlive their `Runtime`, and
/// are dropped on four threads in random order while a scribbler keeps
/// taking the pool's free packets and overwriting them. In odd rounds
/// the scribbler's handle is the pool's last: it goes mid-race, so the
/// close races the slots coming back. In even rounds this thread keeps
/// a handle until every slot is back, and the pool must be whole. Each
/// slot comes back exactly once (a slot back early shows as a view
/// reading the scribbler's bytes, one back twice as a pool that is not
/// whole or freed before its last slot), the state is freed exactly
/// once, and never while a packet or view still reads it (a freed
/// chunk reads as its poison, 0xEE, or faults).
#[test]
fn packets_and_views_outlive_their_runtime() {
    const VIEWS: usize = 32;
    const SIZE: usize = 16;
    const PACKETS: usize = 4;
    let byte = |round: usize, item: usize| ((round * 7 + item) % 251) as u8;
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng as usize
    };
    // A packet or a view, held beside the item number its bytes encode.
    enum Held {
        Packet(Packet),
        View(PacketView),
    }
    for round in 0..40 {
        let rt = Runtime::new(Fabric::new(1), 0, RuntimeConfig::small()).unwrap();
        let pool = rt.packet_pool().clone();
        let kept = (round % 2 == 0).then(|| pool.clone());
        let freed = pool.shared().freed.clone();
        let mut held: Vec<(usize, Held)> = (0..PACKETS)
            .map(|i| {
                let mut p = pool.get().unwrap();
                p.fill(&[byte(round, VIEWS + i); SIZE]);
                (VIEWS + i, Held::Packet(p))
            })
            .collect();
        let mut p = pool.get().unwrap();
        let bytes: Vec<u8> = (0..VIEWS * SIZE).map(|i| byte(round, i / SIZE)).collect();
        p.fill(&bytes);
        let frame = p.into_views(VIEWS as u32);
        held.extend((0..VIEWS).map(|i| (i, Held::View(frame.view(i * SIZE, SIZE)))));
        drop((frame, rt));
        for i in (1..held.len()).rev() {
            held.swap(i, next() % (i + 1));
        }
        let mut bins: Vec<Vec<_>> = (0..4).map(|_| Vec::new()).collect();
        for h in held {
            bins[next() % 4].push(h);
        }
        let start = Barrier::new(5);
        std::thread::scope(|s| {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for _ in 0..200 {
                    if let Some(mut p) = pool.get() {
                        p.fill(&[0xFF; VIEWS * SIZE]);
                    }
                }
                drop(pool);
            });
            for bin in bins {
                s.spawn(move || {
                    start.wait();
                    for (i, h) in bin {
                        std::thread::yield_now();
                        let ok = match &h {
                            Held::Packet(p) => p.as_slice()[..p.len()] == [byte(round, i); SIZE],
                            Held::View(v) => v.as_slice() == [byte(round, i); SIZE],
                        };
                        assert!(ok, "round {round}: item {i} read a reused or freed slot");
                    }
                });
            }
        });
        if let Some(kept) = kept {
            assert_eq!(kept.outstanding(), 0, "round {round}: a slot leaked or came back twice");
            assert_eq!(freed.load(Ordering::SeqCst), 0, "round {round}: freed under a handle");
        }
        assert_eq!(freed.load(Ordering::SeqCst), 1, "round {round}: freed twice or never");
    }
}

#[test]
fn view_bounds_checked() {
    let pool = PacketPool::new(PacketPoolConfig { payload_size: 16, count: 1 }).unwrap();
    let mut p = pool.get().unwrap();
    p.fill(&[7u8; 8]);
    let frame = p.into_views(2);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| frame.view(4, 8)));
    assert!(r.is_err(), "view past payload length must panic");
    let v = frame.view(8, 0);
    assert!(v.is_empty());
}

/// Views cloned and dropped concurrently across threads never corrupt
/// the payload and release the slot exactly once: after every round the
/// pool reports zero outstanding packets.
#[test]
fn frame_views_cloned_across_threads() {
    let pool = PacketPool::new(PacketPoolConfig { payload_size: 4096, count: 8 }).unwrap();
    for round in 0..50usize {
        let mut packet = pool.get().unwrap();
        let data: Vec<u8> = (0..1024).map(|i| (i + round) as u8).collect();
        packet.fill(&data);
        let frame = packet.into_views(4);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let view = frame.view(t * 256, 256);
                let expect: Vec<u8> = data[t * 256..(t + 1) * 256].to_vec();
                std::thread::spawn(move || {
                    let clones: Vec<_> = (0..100).map(|_| view.clone()).collect();
                    for c in &clones {
                        assert_eq!(c.as_slice(), &expect[..]);
                    }
                })
            })
            .collect();
        drop(frame);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.outstanding(), 0, "round {round}: slot leaked or double-freed");
    }
}

proptest! {
    /// Demuxing a packed frame through its views yields exactly the
    /// bytes the copying unpack produces, for any record sequence —
    /// and dropping the last view returns the packet slot.
    #[test]
    fn view_demux_byte_identical_to_copying(
        subs in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200)),
            1..12,
        ),
    ) {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 4096, count: 4 }).unwrap();
        let mut bytes = Vec::new();
        for (imm, payload) in &subs {
            coalesce_pack(&mut bytes, *imm, payload);
        }
        let mut packet = pool.get().unwrap();
        packet.fill(&bytes);

        let wire = &packet.as_slice()[..packet.len()];
        let ranges: Vec<_> = coalesce_records(wire).map(|r| r.unwrap()).collect();
        let copied: Vec<(u64, Vec<u8>)> =
            ranges.iter().map(|(imm, r)| (*imm, wire[r.clone()].to_vec())).collect();
        let frame = packet.into_views(ranges.len() as u32);

        prop_assert_eq!(ranges.len(), copied.len());
        let views: Vec<_> = ranges
            .into_iter()
            .map(|(imm, r)| (imm, frame.view(r.start, r.end - r.start)))
            .collect();
        drop(frame);
        prop_assert_eq!(pool.outstanding(), 1, "views must keep the slot alive");
        for ((imm_v, view), (imm_c, bytes)) in views.iter().zip(&copied) {
            prop_assert_eq!(imm_v, imm_c);
            prop_assert_eq!(view.as_slice(), &bytes[..]);
        }
        drop(views);
        prop_assert_eq!(pool.outstanding(), 0, "last view must release the slot");
    }
}

#[test]
fn local_get_succeeds_while_lock_contended() {
    // Satellite regression: a busy local lock must not make `get`
    // fail (or steal) when local packets exist. With a single
    // packet that only ever lives on this thread's deque, `get`
    // must succeed on every iteration even while another thread
    // hammers every deque lock via `outstanding()`.
    let pool = PacketPool::new(PacketPoolConfig { payload_size: 32, count: 1 }).unwrap();
    let stop = Arc::new(AtomicUsize::new(0));
    let pool2 = pool.clone();
    let stop2 = stop.clone();
    let t = std::thread::spawn(move || {
        while stop2.load(Ordering::Relaxed) == 0 {
            let _ = pool2.outstanding();
        }
    });
    for _ in 0..20_000 {
        let p = pool.get().expect("local packet present; lock-busy must retry, not fail");
        drop(p);
    }
    stop.store(1, Ordering::Relaxed);
    t.join().unwrap();
    assert_eq!(pool.outstanding(), 0);
}

#[test]
fn packet_capacity_asserts() {
    let pool = PacketPool::new(PacketPoolConfig { payload_size: 8, count: 1 }).unwrap();
    let mut p = pool.get().unwrap();
    p.fill(&[0u8; 8]);
    assert_eq!(p.len(), 8);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        p.fill(&[0u8; 9]);
    }));
    assert!(r.is_err());
}
