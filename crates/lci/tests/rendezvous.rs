//! Large-message pipeline tests (DESIGN.md §4.6): chunk-boundary edge
//! cases on the sims and shm, gathered iovec sends equal to contiguous
//! ones across chunk boundaries, multithreaded rendezvous over the
//! sharded send table, a send done at the pump that posts its last
//! chunk, and registration-cache steady-state behaviour. Chunks are
//! 64 KiB; the schedule's small shapes — every chunk count up to 5
//! under up to three refusals — are the model check in `device/rdv.rs`.

use lci::{Comp, CompKind, Fabric, PostResult, Runtime, RuntimeConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// The rendezvous chunk size.
const CHUNK: usize = 64 << 10;

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
                    rt.oob_barrier();
                    f(r, rt);
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Sends `buf` (any `Into<SendBuf>`) to `rank` with `tag`, blocking on
/// completion; returns the descriptor (with the buffer handed back).
fn send_blocking(
    rt: &Runtime,
    rank: usize,
    buf: impl Into<lci::SendBuf> + Clone,
    tag: u32,
) -> lci::CompDesc {
    let comp = Comp::alloc_sync(1);
    loop {
        match rt.post_send(rank, buf.clone(), tag, comp.clone()).unwrap() {
            PostResult::Done(d) => return d,
            PostResult::Posted => {
                let sync = comp.as_sync().unwrap();
                while !sync.test() {
                    rt.progress().unwrap();
                }
                return sync.take().pop().unwrap();
            }
            PostResult::Retry(_) => {
                rt.progress().unwrap();
            }
        }
    }
}

/// Receives one message of at most `size` bytes from `rank` with `tag`.
fn recv_blocking(rt: &Runtime, rank: usize, size: usize, tag: u32) -> lci::CompDesc {
    let comp = Comp::alloc_sync(1);
    match rt.post_recv(rank, vec![0u8; size], tag, comp.clone()).unwrap() {
        PostResult::Done(d) => d,
        PostResult::Posted => {
            let sync = comp.as_sync().unwrap();
            while !sync.test() {
                rt.progress().unwrap();
            }
            sync.take().pop().unwrap()
        }
        PostResult::Retry(_) => unreachable!("recv never retries"),
    }
}

/// A deterministic non-constant payload so chunk reordering or
/// misplacement cannot cancel out.
fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
}

/// Sends `sizes` rank 0 → rank 1 under `cfg`, one at a time, checking
/// every byte and that the sender wrote exactly one chunk per started
/// 64 KiB.
fn send_sizes(cfg: RuntimeConfig, sizes: Vec<usize>) {
    with_ranks(2, cfg, move |rank, rt| {
        let max = *sizes.iter().max().unwrap();
        for (i, &size) in sizes.iter().enumerate() {
            let tag = i as u32;
            if rank == 0 {
                let d = send_blocking(&rt, 1, pattern(size, i as u8), tag);
                assert_eq!(d.kind, CompKind::Send);
            } else {
                let d = recv_blocking(&rt, 0, max + 64, tag);
                assert_eq!(d.data.len(), size);
                assert_eq!(d.as_slice(), &pattern(size, i as u8)[..]);
            }
            rt.oob_barrier();
        }
        if rank == 0 {
            let chunks: usize = sizes.iter().map(|s| s.div_ceil(CHUNK)).sum();
            assert_eq!(rt.device().stats().rdv_chunks_posted, chunks as u64);
        } else if rt.config().device.backend == lci::BackendKind::Shm {
            assert!(rt.device().stats().shm_ring_hwm > 0, "shm transport unused");
        }
    });
}

/// Sizes straddling chunk boundaries arrive intact: exactly k chunks,
/// k chunks ± 1 byte (a short last chunk, a 1-byte last chunk carrying
/// the FIN), and payloads of one chunk or less (one write). Every size is
/// past the 4 KiB eager threshold of `small()`.
#[test]
fn chunk_boundary_sizes() {
    let sizes =
        vec![8 * CHUNK, 8 * CHUNK - 1, 8 * CHUNK + 1, 5 * CHUNK, 4 * CHUNK + 1, CHUNK, 5000];
    send_sizes(RuntimeConfig::small(), sizes);
}

/// The chunk-boundary suite over the shared-memory transport: in one
/// process each chunk is copied straight into the registered landing,
/// and the FIN frame still arrives strictly after every chunk.
#[test]
fn chunk_boundary_sizes_over_shm() {
    let sizes = vec![8 * CHUNK, 8 * CHUNK - 1, 8 * CHUNK + 1, 4 * CHUNK, 5000];
    send_sizes(RuntimeConfig::small().with_device(lci_fabric::DeviceConfig::shm()), sizes);
}

/// A payload no larger than one chunk is one write per transfer.
#[test]
fn one_chunk_payload_is_one_write() {
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        let n = 4u32;
        if rank == 0 {
            for i in 0..n {
                send_blocking(&rt, 1, pattern(CHUNK, i as u8), i);
            }
            let s = rt.device().stats();
            assert_eq!(s.rdv_chunks_posted, n as u64, "one write per transfer");
        } else {
            for i in 0..n {
                let d = recv_blocking(&rt, 0, CHUNK + 64, i);
                assert_eq!(d.as_slice(), &pattern(CHUNK, i as u8)[..]);
            }
        }
        rt.oob_barrier();
    });
}

/// Many threads per rank drive concurrent rendezvous transfers through
/// the sharded send/receive tables; every payload arrives intact and
/// every chunk is counted once. A transfer's pumps, run by whichever
/// threads progress, serialize on the send table's shard lock.
#[test]
fn multithreaded_rendezvous_stress() {
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        let nthreads = 4usize;
        let iters = 12u32;
        let size = 3 * CHUNK + 1;
        let workers: Vec<_> = (0..nthreads)
            .map(|t| {
                let rt = rt.clone();
                std::thread::spawn(move || {
                    let peer = 1 - rank;
                    for i in 0..iters {
                        let tag = (t as u32) << 16 | i;
                        let seed = (t as u8).wrapping_mul(17).wrapping_add(i as u8);
                        if rank == 0 {
                            send_blocking(&rt, peer, pattern(size, seed), tag);
                        } else {
                            let d = recv_blocking(&rt, peer, size + 64, tag);
                            assert_eq!(d.as_slice(), &pattern(size, seed)[..]);
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        if rank == 0 {
            let s = rt.device().stats();
            let transfers = (nthreads as u64) * iters as u64;
            assert_eq!(s.rendezvous - s.rendezvous_retried, transfers);
            // Three full chunks and a 1-byte one per transfer.
            assert_eq!(s.rdv_chunks_posted, transfers * 4);
        }
        // Drain any in-flight FIN/ACK traffic before teardown.
        rt.oob_barrier();
        for _ in 0..50 {
            rt.progress().unwrap();
        }
        rt.oob_barrier();
    });
}

/// A wire has consumed a write's source when `post_write` returns, so a
/// rendezvous send is done at the pump that posts its last chunk: one
/// thread drives two ranks over sim-ibv, and the single sender progress
/// that handles the RTR posts all 8 chunks of 512 KiB, signals the
/// send and leaves no send pending — before the receiver has seen a
/// byte of it.
#[test]
fn a_send_is_done_when_the_wire_takes_its_last_chunk() {
    const SIZE: usize = 8 * CHUNK;
    let fabric = Fabric::new(2);
    let rt0 = Runtime::new(fabric.clone(), 0, RuntimeConfig::ibv()).unwrap();
    let rt1 = Runtime::new(fabric, 1, RuntimeConfig::ibv()).unwrap();
    let (scomp, rcomp) = (Comp::alloc_sync(1), Comp::alloc_sync(1));
    assert!(rt1.post_recv(0, vec![0u8; SIZE], 7, rcomp.clone()).unwrap().is_posted());
    assert!(rt0.post_send(1, pattern(SIZE, 3), 7, scomp.clone()).unwrap().is_posted());
    rt1.progress().unwrap(); // the RTS: matched, answered with the RTR
    let before = rt0.device().stats().rdv_chunks_posted;
    rt0.progress().unwrap(); // the RTR
    assert_eq!(rt0.device().stats().rdv_chunks_posted - before, 8);
    let sync = scomp.as_sync().unwrap();
    assert!(sync.test(), "the send is signalled by the pump that posted its last chunk");
    assert_eq!(rt0.device().pending_rendezvous().0, 0);
    assert_eq!(sync.take().pop().unwrap().kind, CompKind::Send);

    let sync = rcomp.as_sync().unwrap();
    for _ in 0..100 {
        if sync.test() {
            break;
        }
        rt1.progress().unwrap();
    }
    assert_eq!(sync.take().pop().expect("the FIN delivered").as_slice(), &pattern(SIZE, 3)[..]);
    assert_eq!(rt1.device().pending_rendezvous(), (0, 0));
}

/// Steady-state registration-cache behaviour: a receive buffer reused
/// across transfers registers once and hits thereafter (>90% hit rate).
#[test]
fn reg_cache_steady_state_hit_rate() {
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        let iters = 50u32;
        let size = 16_384usize;
        if rank == 0 {
            for i in 0..iters {
                send_blocking(&rt, 1, pattern(size, i as u8), i);
            }
        } else {
            // Recycle the delivered buffer into the next post so the
            // (ptr, len) registration key repeats.
            let mut buf = vec![0u8; size];
            for i in 0..iters {
                let comp = Comp::alloc_sync(1);
                let res = rt.post_recv(0, buf, i, comp.clone()).unwrap();
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
                assert_eq!(desc.as_slice(), &pattern(size, i as u8)[..]);
                buf = desc.data.into_vec();
                assert_eq!(buf.len(), size);
            }
            let s = rt.device().stats();
            assert_eq!(s.reg_cache_hits + s.reg_cache_misses, iters as u64);
            assert!(
                s.reg_cache_hit_rate() > 0.9,
                "steady-state hit rate {:.2} (hits {} misses {})",
                s.reg_cache_hit_rate(),
                s.reg_cache_hits,
                s.reg_cache_misses
            );
        }
        rt.oob_barrier();
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Equivalence: an iovec payload, its segment boundaries anywhere
    /// against the chunk boundaries, arrives byte-identical to the same
    /// bytes sent contiguously — each chunk is gathered from whichever
    /// segments it spans.
    #[test]
    fn iovec_equals_contiguous_across_chunk_boundaries(
        segs in proptest::collection::vec((any::<u8>(), 0usize..2 * CHUNK), 1..4),
    ) {
        // Past the 4 KiB eager threshold, so rendezvous triggers.
        let mut segs = segs;
        segs.push((0xEE, 6000));
        let expected: Vec<u8> = segs
            .iter()
            .flat_map(|&(seed, len)| pattern(len, seed))
            .collect();
        let total = expected.len();
        with_ranks(2, RuntimeConfig::small(), move |rank, rt| {
            if rank == 0 {
                let bufs: Vec<Box<[u8]>> = segs
                    .iter()
                    .map(|&(seed, len)| pattern(len, seed).into_boxed_slice())
                    .collect();
                send_blocking(&rt, 1, bufs, 1);
                send_blocking(&rt, 1, expected.clone(), 2);
            } else {
                let iovec = recv_blocking(&rt, 0, total + 64, 1);
                let contiguous = recv_blocking(&rt, 0, total + 64, 2);
                assert_eq!(iovec.as_slice(), &expected[..]);
                assert_eq!(iovec.as_slice(), contiguous.as_slice());
            }
            rt.oob_barrier();
        });
    }
}
