//! Integration and property tests for the chunk-pipelined collectives
//! (`lci::coll`): ring allreduce, binomial broadcast/reduce, Bruck
//! allgather, bounded-inflight alltoall, their non-blocking `i*`
//! variants, and the equivalence of the pipelined engines with the
//! store-and-forward `coll::naive` reference on awkward shapes
//! (non-power-of-two rank counts, zero-length blocks, block sizes
//! straddling chunk boundaries).

use lci::prelude::*;
use lci::{coll, MaxF32, RuntimeConfig, SumF32, SumU64};
use proptest::prelude::*;
use std::sync::Arc;

fn with_ranks(n: usize, cfg: RuntimeConfig, f: impl Fn(usize, Runtime) + Send + Sync + 'static) {
    with_ranks_ret(n, cfg, f);
}

/// Spawns one runtime per rank and returns each rank's callback result
/// in rank order.
fn with_ranks_ret<T: Send + 'static>(
    n: usize,
    cfg: RuntimeConfig,
    f: impl Fn(usize, Runtime) -> T + Send + Sync + 'static,
) -> Vec<T> {
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
                    f(r, rt)
                })
                .unwrap()
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// A config that forces many small chunks through the ring so the
/// pipeline (not just the algorithm) is exercised.
fn tiny_chunk_cfg(chunk: usize) -> RuntimeConfig {
    RuntimeConfig { coll_chunk_size: chunk, ..RuntimeConfig::small() }
}

#[test]
fn ring_allreduce_multi_chunk_nonpow2() {
    // 5 ranks (non-power-of-two), 999 u64s (not divisible by 5), 64-byte
    // chunks: blocks of 199/200 elements split across ~25 chunks each.
    let n = 5;
    with_ranks(n, tiny_chunk_cfg(64), move |rank, rt| {
        let mut vals: Vec<u64> = (0..999).map(|i| (rank as u64) << 32 | i).collect();
        let mut bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        coll::allreduce(&rt, &mut bytes, &SumU64).unwrap();
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let got = u64::from_le_bytes(chunk.try_into().unwrap());
            let want: u64 = (0..n as u64).map(|r| r << 32 | i as u64).sum();
            assert_eq!(got, want, "element {i}");
        }
        // The engine's new counters moved: rounds were counted and
        // bytes were sent. (`coll_chunks_inflight_hwm` only counts
        // sends still outstanding after posting — tiny eager chunks
        // complete at post time, so it is asserted in the
        // rendezvous-sized test below instead.)
        let stats = rt.device().stats();
        assert!(stats.coll_rounds >= 2 * (n as u64 - 1), "rounds {}", stats.coll_rounds);
        assert!(stats.coll_bytes > 0);
        vals.clear();
    });
}

#[test]
fn ring_allreduce_rendezvous_chunks_pipeline() {
    // Chunks over the 4 KiB eager threshold ride rendezvous, so sends
    // stay genuinely in flight and the window high-water mark must show
    // the pipeline held at least one chunk outstanding.
    with_ranks(3, tiny_chunk_cfg(8 << 10), |rank, rt| {
        let elems = 24 << 10; // 192 KiB -> 64 KiB blocks -> 8 chunks each
        let mut bytes = vec![0u8; elems * 8];
        for (i, c) in bytes.chunks_exact_mut(8).enumerate() {
            c.copy_from_slice(&((rank * 1000 + i) as u64).to_le_bytes());
        }
        coll::allreduce(&rt, &mut bytes, &SumU64).unwrap();
        for (i, c) in bytes.chunks_exact(8).enumerate() {
            let want: u64 = (0..3).map(|r| (r * 1000 + i) as u64).sum();
            assert_eq!(u64::from_le_bytes(c.try_into().unwrap()), want, "element {i}");
        }
        let stats = rt.device().stats();
        assert!(stats.coll_chunks_inflight_hwm >= 1, "hwm {}", stats.coll_chunks_inflight_hwm);
    });
}

#[test]
fn allreduce_f32_ops() {
    with_ranks(4, RuntimeConfig::small(), |rank, rt| {
        let mine = [rank as f32 + 0.5, -(rank as f32)];
        let mut bytes: Vec<u8> = mine.iter().flat_map(|v| v.to_le_bytes()).collect();
        coll::allreduce(&rt, &mut bytes, &MaxF32).unwrap();
        let got: Vec<f32> =
            bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(got, vec![3.5, 0.0]);

        let mut bytes: Vec<u8> = mine.iter().flat_map(|v| v.to_le_bytes()).collect();
        coll::allreduce(&rt, &mut bytes, &SumF32).unwrap();
        let got: Vec<f32> =
            bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(got, vec![0.5 + 1.5 + 2.5 + 3.5, -(0.0 + 1.0 + 2.0 + 3.0)]);
    });
}

#[test]
fn broadcast_multi_chunk_streams() {
    // 40 KiB from rank 1 through 512-byte chunks: the root streams ~80
    // chunks to each child while children forward on arrival.
    with_ranks(3, tiny_chunk_cfg(512), |rank, rt| {
        let want: Vec<u8> = (0..40 << 10).map(|i| (i % 251) as u8).collect();
        let mut buf = if rank == 1 { want.clone() } else { vec![0u8; 40 << 10] };
        coll::broadcast_bytes(&rt, 1, &mut buf).unwrap();
        assert_eq!(buf, want);
    });
}

#[test]
fn reduce_only_root_gets_result() {
    with_ranks(4, RuntimeConfig::small(), |rank, rt| {
        let contrib = vec![rank as u64 + 1, 10 * (rank as u64 + 1)];
        let res = coll::reduce_u64(&rt, 2, &contrib, |a, b| a + b).unwrap();
        if rank == 2 {
            assert_eq!(res.unwrap(), vec![10, 100]);
        } else {
            assert!(res.is_none());
        }
    });
}

#[test]
fn allgather_zero_length_blocks() {
    with_ranks(3, RuntimeConfig::small(), |_rank, rt| {
        let mut out = vec![];
        coll::allgather_bytes(&rt, &[], &mut out).unwrap();
        assert!(out.is_empty());

        let all = coll::allgather(&rt, &[]).unwrap();
        assert_eq!(all, vec![Vec::<u8>::new(); 3]);
    });
}

#[test]
fn alltoall_rendezvous_blocks() {
    // Blocks over the small config's 4 KiB eager threshold ride the
    // rendezvous chunk pump; all receives are pre-posted.
    with_ranks(3, RuntimeConfig::small(), |rank, rt| {
        let block = 12 << 10;
        let send: Vec<u8> = (0..3 * block).map(|i| (rank * 64 + i / block) as u8).collect();
        let mut recv = vec![0u8; 3 * block];
        coll::alltoall_bytes(&rt, &send, &mut recv).unwrap();
        for src in 0..3 {
            assert!(
                recv[src * block..(src + 1) * block].iter().all(|&b| b == (src * 64 + rank) as u8),
                "rank {rank} block from {src}"
            );
        }
    });
}

#[test]
fn nonblocking_variants_roundtrip() {
    with_ranks(3, RuntimeConfig::small(), |rank, rt| {
        // ibroadcast
        let buf = if rank == 0 { b"graphcast".to_vec() } else { vec![0u8; 9] };
        let op = coll::ibroadcast(&rt, 0, buf).unwrap();
        assert_eq!(op.wait(&rt).unwrap(), b"graphcast");

        // ireduce (sum to rank 2)
        let op = coll::ireduce_u64(&rt, 2, &[rank as u64, 1], |a, b| a + b).unwrap();
        let res = op.wait(&rt).unwrap();
        if rank == 2 {
            assert_eq!(res.unwrap(), vec![3, 3]);
        } else {
            assert!(res.is_none());
        }

        // iallreduce (max)
        let op = coll::iallreduce_u64(&rt, &[rank as u64 * 7], u64::max).unwrap();
        assert_eq!(op.wait(&rt).unwrap(), vec![14]);

        // iallgather
        let op = coll::iallgather(&rt, &[rank as u8; 4]).unwrap();
        let all = op.wait(&rt).unwrap();
        for (r, blk) in all.iter().enumerate() {
            assert_eq!(blk, &vec![r as u8; 4]);
        }

        // ialltoall
        let send: Vec<Vec<u8>> = (0..3).map(|i| vec![(rank * 10 + i) as u8; 6]).collect();
        let op = coll::ialltoall(&rt, &send).unwrap();
        let recvd = op.wait(&rt).unwrap();
        for (src, blk) in recvd.iter().enumerate() {
            assert_eq!(blk, &vec![(src * 10 + rank) as u8; 6], "from {src}");
        }

        // ibarrier
        coll::ibarrier(&rt).unwrap().wait(&rt).unwrap();
    });
}

#[test]
fn nonblocking_variants_on_a_world_of_one() {
    // No plan is built (as the blocking calls post nothing): the handle
    // resolves from what the call copied in.
    with_ranks(1, RuntimeConfig::small(), |_, rt| {
        assert_eq!(coll::ibroadcast(&rt, 0, vec![7; 3]).unwrap().wait(&rt).unwrap(), vec![7; 3]);
        assert_eq!(coll::iallreduce_u64(&rt, &[5], u64::max).unwrap().wait(&rt).unwrap(), vec![5]);
        let blocks = coll::ialltoallv(&rt, &[vec![1, 2]]).unwrap().wait(&rt).unwrap();
        assert_eq!(blocks, vec![vec![1, 2]]);
        coll::ibarrier(&rt).unwrap().wait(&rt).unwrap();
    });
}

#[test]
fn nonblocking_overlaps_with_sends() {
    // Start an iallgather, run unrelated tagged traffic to completion,
    // then harvest the collective: the graph must make progress in the
    // background rather than monopolize the runtime.
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        let op = coll::iallgather(&rt, &[rank as u8 + 40; 8]).unwrap();

        let peer = 1 - rank;
        let comp = Comp::alloc_sync(1);
        rt.post_send(peer, vec![rank as u8; 32], 7, comp.clone()).unwrap();
        let rcomp = Comp::alloc_sync(1);
        let posted = rt.post_recv(peer, vec![0u8; 32], 7, rcomp.clone()).unwrap();
        if matches!(posted, PostResult::Posted) {
            rt.wait_until(|| rcomp.as_sync().unwrap().test()).unwrap();
        }

        let all = op.wait(&rt).unwrap();
        assert_eq!(all, vec![vec![40u8; 8], vec![41u8; 8]]);
    });
}

// ---------------------------------------------------------------------
// alltoallv
// ---------------------------------------------------------------------

/// Deterministic per-pair fill byte (identifies source, destination,
/// and position, so any misrouted or misordered piece is caught).
fn vpat(src: usize, dst: usize, i: usize) -> u8 {
    (src.wrapping_mul(37) ^ dst.wrapping_mul(11) ^ i) as u8
}

/// Runs one alltoallv over the routing matrix `counts[src][dst]` on
/// every rank, checks each rank's receive buffer against the reference
/// permutation, and returns each rank's `(skipped_pairs, v_bytes_hwm)`.
fn run_v_matrix(cfg: RuntimeConfig, counts: Vec<Vec<usize>>) -> Vec<(u64, u64)> {
    let n = counts.len();
    let counts = Arc::new(counts);
    with_ranks_ret(n, cfg, move |rank, rt| {
        let send_counts = counts[rank].clone();
        let recv_counts: Vec<usize> = (0..n).map(|src| counts[src][rank]).collect();
        let send: Vec<u8> =
            (0..n).flat_map(|dst| (0..send_counts[dst]).map(move |i| vpat(rank, dst, i))).collect();
        let mut recv = vec![0u8; recv_counts.iter().sum()];
        coll::alltoallv(&rt, &send, &send_counts, &mut recv, &recv_counts).unwrap();
        let want: Vec<u8> =
            (0..n).flat_map(|src| (0..recv_counts[src]).map(move |i| vpat(src, rank, i))).collect();
        assert_eq!(recv, want, "rank {rank} receive permutation");
        let stats = rt.device().stats();
        // The store-and-forward reference computes the same permutation.
        recv.fill(0);
        coll::naive::alltoallv(&rt, &send, &send_counts, &mut recv, &recv_counts).unwrap();
        assert_eq!(recv, want, "rank {rank} receive permutation (naive)");
        (stats.coll_skipped_pairs, stats.coll_v_bytes_hwm)
    })
}

#[test]
fn alltoallv_sparse_skewed_counts_and_stats() {
    // 4 ranks, 64-byte chunks: a skewed sparse matrix mixing an empty
    // row, zero pairs, inline-sized blocks, one eager block, and one
    // multi-chunk giant block. The engine must skip the zero pairs
    // (counter evidence) and record the per-call payload high-water.
    let counts = vec![
        vec![5, 0, 300, 0], // rank 0: skips 1 and 3
        vec![0, 7, 0, 16],  // rank 1: skips 0 and 2
        vec![9, 0, 0, 130], // rank 2: skips 1 (and its empty diagonal)
        vec![0, 0, 0, 0],   // rank 3: sends nothing at all
    ];
    let totals: Vec<u64> = counts.iter().map(|row| row.iter().sum::<usize>() as u64).collect();
    let stats = run_v_matrix(tiny_chunk_cfg(64), counts);
    for (rank, &(skipped, hwm)) in stats.iter().enumerate() {
        let want_skipped = [2u64, 2, 1, 3][rank];
        assert_eq!(skipped, want_skipped, "rank {rank} skipped pairs");
        assert_eq!(hwm, totals[rank], "rank {rank} v-bytes high-water");
    }
}

#[test]
fn alltoallv_over_shm_device() {
    // The same engine across the in-process shm rings (eager + the
    // shm rendezvous chunk path for the large block).
    let cfg = tiny_chunk_cfg(1 << 10).with_device(lci_fabric::DeviceConfig::shm());
    run_v_matrix(
        cfg,
        vec![vec![0, 3000, 1, 0], vec![40, 40, 40, 40], vec![0, 0, 0, 0], vec![7000, 0, 2, 9]],
    );
}

#[test]
fn alltoallv_counts_learns_recv_side() {
    // The MoE-dispatch case: every rank knows only where it routes
    // bytes *to*; the count exchange must learn the transpose, and the
    // learned vector must drive a correct alltoallv.
    let n = 4;
    with_ranks(n, RuntimeConfig::small(), move |rank, rt| {
        let send_counts: Vec<usize> = (0..n).map(|dst| (rank * 7 + dst * 3) % 5 * 10).collect();
        let recv_counts = coll::alltoallv_counts(&rt, &send_counts).unwrap();
        for (src, &c) in recv_counts.iter().enumerate() {
            assert_eq!(c, (src * 7 + rank * 3) % 5 * 10, "rank {rank} learned count from {src}");
        }
        let send: Vec<u8> =
            (0..n).flat_map(|dst| (0..send_counts[dst]).map(move |i| vpat(rank, dst, i))).collect();
        let mut recv = vec![0u8; recv_counts.iter().sum()];
        coll::alltoallv(&rt, &send, &send_counts, &mut recv, &recv_counts).unwrap();
        let want: Vec<u8> =
            (0..n).flat_map(|src| (0..recv_counts[src]).map(move |i| vpat(src, rank, i))).collect();
        assert_eq!(recv, want, "rank {rank}");
    });
}

#[test]
fn alltoallv_rejects_bad_shapes() {
    // Every call must be invalid on *every* rank: a rank whose shapes
    // happen to be valid would start an exchange with a peer that
    // already bailed out, and hang.
    with_ranks(2, RuntimeConfig::small(), |rank, rt| {
        let mut recv = vec![0u8; 2];
        // Wrong count-vector length.
        assert!(coll::alltoallv(&rt, &[0; 2], &[1, 1, 1], &mut recv, &[1, 1]).is_err());
        // Buffer shorter than its count sum.
        assert!(coll::alltoallv(&rt, &[0; 1], &[1, 1], &mut recv, &[1, 1]).is_err());
        // Self block disagrees between the two vectors (this rank's own).
        let mut send_counts = [1, 1];
        send_counts[rank] = 2;
        assert!(coll::alltoallv(&rt, &[0; 3], &send_counts, &mut recv, &[1, 1]).is_err());
    });
}

#[test]
fn ialltoallv_nonblocking_with_unknown_counts() {
    // The handle learns the landing sizes itself (count round, then the
    // data round over them); zero pairs resolve to empty blocks. Once
    // with every block one eager piece, once with the big block cut into
    // rendezvous-sized chunks and a short eager tail.
    let n = 3;
    for (cfg, big) in [(RuntimeConfig::small(), 4200), (tiny_chunk_cfg(8 << 10), 20_000)] {
        with_ranks(n, cfg, move |rank, rt| {
            let send: Vec<Vec<u8>> = (0..n)
                .map(|dst| {
                    let len = [0usize, 5, big][(rank + dst) % 3];
                    (0..len).map(|i| vpat(rank, dst, i)).collect()
                })
                .collect();
            let op = coll::ialltoallv(&rt, &send).unwrap();
            let recvd = op.wait(&rt).unwrap();
            for (src, blk) in recvd.iter().enumerate() {
                let len = [0usize, 5, big][(src + rank) % 3];
                let want: Vec<u8> = (0..len).map(|i| vpat(src, rank, i)).collect();
                assert_eq!(blk, &want, "rank {rank} block from {src}");
            }
        });
    }
}

/// Handles have a state of their own, so they and a blocking collective
/// may be in flight together: two `ialltoallv`s are started, an
/// `allreduce` runs to completion with neither stepped, and the handles
/// are waited in reverse — every rank in the same order, which is all
/// the contract asks. Alone, and with a sibling thread per rank
/// delivering into the handles' buffers and pumping from them.
#[test]
fn handles_and_a_blocking_collective_interleave() {
    let n = 3;
    for sibling in [false, true] {
        with_ranks(n, tiny_chunk_cfg(8 << 10), move |rank, rt| {
            let len =
                |src: usize, dst: usize, salt: usize| [0, 700, 20_000][(src + dst + salt) % 3];
            let blocks = |salt: usize| -> Vec<Vec<u8>> {
                let block = |dst| (0..len(rank, dst, salt)).map(move |i| vpat(rank + salt, dst, i));
                (0..n).map(|dst| block(dst).collect()).collect()
            };
            with_sibling_progress(&rt, sibling, || {
                let first = coll::ialltoallv(&rt, &blocks(0)).unwrap();
                let second = coll::ialltoallv(&rt, &blocks(1)).unwrap();
                let mut sum: Vec<u8> =
                    (0..3000u64).flat_map(|i| (i << rank).to_le_bytes()).collect();
                coll::allreduce(&rt, &mut sum, &SumU64).unwrap();
                for (i, lane) in sum.chunks_exact(8).enumerate() {
                    assert_eq!(u64::from_le_bytes(lane.try_into().unwrap()), 7 * i as u64);
                }
                for (salt, handle) in [(1, second), (0, first)] {
                    for (src, blk) in handle.wait(&rt).unwrap().iter().enumerate() {
                        let want: Vec<u8> =
                            (0..len(src, rank, salt)).map(|i| vpat(src + salt, rank, i)).collect();
                        assert_eq!(blk, &want, "rank {rank}, handle {salt}, block from {src}");
                    }
                }
            });
        });
    }
}

/// Dropping an unfinished handle waits it out: its buffers are lent and
/// its peers count on its sends. The root of a 40 KiB rendezvous-chunked
/// broadcast always drops its handle right after the call, with a
/// sibling thread pumping from the buffer; the other ranks drop theirs
/// too, or keep them and must still get every byte. The allgather behind
/// it finds the tag sequence where every rank left it.
#[test]
fn dropped_handle_completes() {
    for keep in [false, true] {
        with_ranks(3, tiny_chunk_cfg(8 << 10), move |rank, rt| {
            let want: Vec<u8> = (0..40 << 10).map(|i| (i % 241) as u8).collect();
            with_sibling_progress(&rt, true, || {
                let buf = if rank == 1 { want.clone() } else { vec![0u8; 40 << 10] };
                let handle = coll::ibroadcast(&rt, 1, buf).unwrap();
                if keep && rank != 1 {
                    assert!(handle.wait(&rt).unwrap() == want, "rank {rank}");
                } else {
                    drop(handle);
                }
                let all = coll::allgather(&rt, &[rank as u8; 4]).unwrap();
                assert_eq!(all, vec![vec![0u8; 4], vec![1; 4], vec![2; 4]]);
            });
        });
    }
}

/// Deterministic adversarial routing matrices for the equivalence
/// proptest: `shape` selects the family, `chunk` anchors the ragged
/// sizes at chunk-boundary straddles.
fn adversarial_matrix(shape: usize, n: usize, chunk: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut m = vec![vec![0usize; n]; n];
    match shape {
        // All blocks empty (the exchange must still terminate).
        0 => {}
        // One giant multi-chunk block, everything else empty.
        1 => m[seed as usize % n][(seed as usize + 1) % n] = 4 * chunk + 3,
        // All-to-one skew: every rank routes only to one hot rank.
        2 => {
            let hot = seed as usize % n;
            for (src, row) in m.iter_mut().enumerate() {
                row[hot] = chunk * src + src + 1;
            }
        }
        // Ragged chunk straddles: every pair k*chunk + {-1, 0, +1}.
        3 => {
            for (src, row) in m.iter_mut().enumerate() {
                for (dst, c) in row.iter_mut().enumerate() {
                    let k = 1 + (src + dst) % 3;
                    *c = (k * chunk + (src * n + dst) % 3) - 1;
                }
            }
        }
        // Sparse pseudo-random: ~half the pairs zero, sizes spanning
        // inline, eager, and chunked.
        _ => {
            let mut x = seed | 1;
            for row in m.iter_mut() {
                for c in row.iter_mut() {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    *c = if x & 2 == 0 { 0 } else { (x >> 33) as usize % (3 * chunk) };
                }
            }
            // Diagonal must agree with itself, which it trivially does.
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..Default::default() })]

    /// The pipelined alltoallv engine matches the reference permutation
    /// (and the `coll::naive` store-and-forward exchange matches it too,
    /// on the same runtime — see `run_v_matrix`) across adversarial
    /// shapes — all-empty, one giant block, all-to-one skew, ragged chunk
    /// straddles, sparse random — on the sim transport, with the shm
    /// device covering a sample of shapes.
    #[test]
    fn alltoallv_matches_reference(
        n in 2usize..5,
        shape in 0usize..5,
        chunk_u64s in 1usize..5,
        seed in 0u64..1u64 << 32,
    ) {
        let chunk = chunk_u64s * 8;
        let m = adversarial_matrix(shape, n, chunk, seed);
        run_v_matrix(tiny_chunk_cfg(chunk), m.clone());
        if seed % 3 == 0 {
            run_v_matrix(
                tiny_chunk_cfg(chunk).with_device(lci_fabric::DeviceConfig::shm()),
                m,
            );
        }
    }
}

/// Runs one fixed scenario (allreduce + allgather + alltoall, and
/// reduce + broadcast against the allreduce) across
/// `n` ranks, once through the pipelined engines and once through the
/// `coll::naive` reference on the same runtimes, asserting on every
/// rank that the two agree.
fn run_scenario(n: usize, cfg: RuntimeConfig, elems: usize, block: usize) {
    with_ranks(n, cfg, move |rank, rt| {
        // Allreduce: position-tagged contributions, sum.
        let vals: Vec<u64> = (0..elems).map(|i| (rank as u64 + 1) * (i as u64 + 1)).collect();
        let contrib: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        // Allgather: per-rank fill pattern.
        let mine: Vec<u8> = (0..block).map(|i| (rank * 31 + i) as u8).collect();
        // Alltoall: (src, dst)-tagged blocks.
        let send: Vec<u8> =
            (0..block * n).map(|i| (rank * 17 + (i / block.max(1)) * 5 + i) as u8).collect();

        let [pipelined, naive] = [false, true].map(|naive| {
            let mut ar = contrib.clone();
            let mut ag = vec![0u8; block * n];
            let mut a2a = vec![0u8; block * n];
            // Reduce to rank 0 then broadcast: what `allreduce` runs past
            // `MAX_RING_RANKS`.
            let mut rb = contrib.clone();
            if naive {
                coll::naive::allreduce(&rt, &mut ar, &SumU64).unwrap();
                coll::naive::allgather_bytes(&rt, &mine, &mut ag).unwrap();
                coll::naive::alltoall_bytes(&rt, &send, &mut a2a).unwrap();
                rb.copy_from_slice(&ar);
            } else {
                coll::allreduce(&rt, &mut ar, &SumU64).unwrap();
                coll::allgather_bytes(&rt, &mine, &mut ag).unwrap();
                coll::alltoall_bytes(&rt, &send, &mut a2a).unwrap();
                coll::reduce_bytes(&rt, 0, &mut rb, &SumU64).unwrap();
                coll::broadcast_bytes(&rt, 0, &mut rb).unwrap();
            }
            [ar, ag, a2a, rb]
        });
        assert_eq!(pipelined, naive, "rank {rank}");
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..Default::default() })]

    /// The pipelined engines and the `coll::naive` reference compute the
    /// same results on awkward shapes: non-power-of-two rank counts,
    /// zero-length payloads, and block sizes straddling multiples of
    /// the chunk size (k*chunk - 1, k*chunk, k*chunk + 1).
    #[test]
    fn pipelined_matches_naive(
        n in 2usize..6,
        chunk_elems in 1usize..5,
        k in 0usize..4,
        off in 0i64..3,
    ) {
        let chunk = chunk_elems * 8;
        let elems = ((k * chunk_elems) as i64 + off - 1).max(0) as usize;
        let block = elems * 8;
        run_scenario(n, tiny_chunk_cfg(chunk), elems, block);
    }
}

// ---------------------------------------------------------------------
// Lending (DESIGN.md §4.11): pieces leave from the caller's buffer and
// land in it
// ---------------------------------------------------------------------

/// Runs `f` with, when `sibling`, a second thread of this rank spinning
/// `progress_all()` for the duration, so deliveries into lent memory and
/// the chunk pumps reading it run on a thread other than the caller's.
fn with_sibling_progress<T>(rt: &Runtime, sibling: bool, f: impl FnOnce() -> T) -> T {
    if !sibling {
        return f();
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                rt.progress_all().unwrap();
                std::thread::yield_now();
            }
        });
        let out = f();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        out
    })
}

/// The three engines whose pieces are both sent from and landed in one
/// buffer — ring allreduce (a range sent in round `t` is landed on in
/// round `t+n−1`), Bruck allgather (the prefix is sent while the round's
/// arrival lands behind it) and the streamed broadcast (a chunk is
/// forwarded from where it landed) — against the `coll::naive`
/// reference on the same runtimes.
fn run_lent_scenario(
    n: usize,
    cfg: RuntimeConfig,
    elems: usize,
    block: usize,
    bcast: usize,
    sibling: bool,
) {
    with_ranks(n, cfg, move |rank, rt| {
        let contrib: Vec<u8> =
            (0..elems).flat_map(|i| ((rank as u64 + 3) * (i as u64 + 1)).to_le_bytes()).collect();
        let mine: Vec<u8> = (0..block).map(|i| (rank * 29 + i) as u8).collect();
        let root = n - 1;
        let seed: Vec<u8> = (0..bcast).map(|i| (i % 253) as u8 ^ 0x5A).collect();

        let [lent, naive] = [false, true].map(|naive| {
            let mut ar = contrib.clone();
            let mut ag = vec![0u8; block * n];
            let mut bc = if rank == root { seed.clone() } else { vec![0u8; bcast] };
            if naive {
                coll::naive::allreduce(&rt, &mut ar, &SumU64).unwrap();
                coll::naive::allgather_bytes(&rt, &mine, &mut ag).unwrap();
                coll::naive::broadcast_bytes(&rt, root, &mut bc).unwrap();
            } else {
                with_sibling_progress(&rt, sibling, || {
                    coll::allreduce(&rt, &mut ar, &SumU64).unwrap();
                    coll::allgather_bytes(&rt, &mine, &mut ag).unwrap();
                    coll::broadcast_bytes(&rt, root, &mut bc).unwrap();
                });
            }
            [ar, ag, bc]
        });
        assert_eq!(lent, naive, "rank {rank} of {n}, sibling progress {sibling}");
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    /// Lending soundness on the shapes where one range is both read by
    /// a send and written by a landing within a call: `n ∈ {2, 3, 5}`,
    /// a chunk smaller than a ring block and not dividing it (a short
    /// last chunk per block), fewer elements than ranks (empty blocks);
    /// pieces under `eager_size` (an eager copy into a lent landing,
    /// inline at 24 B) and over it (a rendezvous written into one, by
    /// the sender's thread on the sims); each case alone and with a
    /// sibling thread per rank delivering and pumping.
    #[test]
    fn lent_pieces_match_naive(
        n in prop::sample::select(vec![2usize, 3, 5]),
        chunk_elems in prop::sample::select(vec![3usize, 5, 7, 513, 600]),
        shape in 0usize..3,
    ) {
        let chunk = chunk_elems * 8;
        let elems = match shape {
            // Fewer elements than ranks: some ring blocks are empty.
            0 => n - 1,
            // Blocks of 2·chunk + 1 or + 2 elements: a short last chunk.
            1 => n * (2 * chunk_elems + 1) + 1,
            // Blocks straddling 1.5 chunks, unequal across ranks.
            _ => n * (chunk_elems + chunk_elems / 2) + n - 1,
        };
        // Bruck blocks and the broadcast on the same side of
        // `eager_size` (4 KiB in the small config) as the chunk.
        let block = chunk + 11;
        let bcast = 3 * chunk + 5;
        for sibling in [false, true] {
            run_lent_scenario(n, tiny_chunk_cfg(chunk), elems, block, bcast, sibling);
        }
    }
}

/// The count ISSUE 20 named beforehand: warm blocking collectives take
/// nothing from the device's buffer pool, and the wire moves exactly the
/// bytes it moved when every chunk was staged first. Two ranks, default
/// config, `allreduce(1 MiB)` + `alltoallv(128 KiB each way)`: per rank
/// and iteration sixteen 64 KiB ring chunks and two 64 KiB pieces, all
/// rendezvous — 18 staged copies an iteration before lending, none now.
/// An `ialltoallv` of the same block rides along: the handle lends its
/// own buffers, so its two pieces take nothing either.
#[test]
fn blocking_collectives_take_nothing_from_the_pool() {
    use lci_fabric::DeviceConfig;
    const MIB: usize = 1 << 20;
    const V: usize = 128 << 10;
    const WIRE: u64 = 4 * (MIB + 2 * V) as u64;
    let wires = [
        ("ibv", DeviceConfig::ibv()),
        ("ofi", DeviceConfig::ofi()),
        ("shm", DeviceConfig::shm()),
        ("tcp", DeviceConfig::tcp()),
    ];
    for (wire, device) in wires {
        let cfg = RuntimeConfig::default().with_device(device);
        let ledger = with_ranks_ret(2, cfg, move |rank, rt| {
            let peer = 1 - rank;
            let contrib: Vec<u8> = (0..MIB / 8)
                .flat_map(|i| ((rank as u64 + 1) * (i as u64 + 1)).to_le_bytes())
                .collect();
            let mut counts = [0usize; 2];
            counts[peer] = V;
            let send: Vec<u8> = (0..V).map(|i| vpat(rank, peer, i)).collect();
            let mut blocks = vec![Vec::new(), Vec::new()];
            blocks[peer] = send.clone();
            let mut ar = contrib.clone();
            let mut recv = vec![0u8; V];
            let mut base = rt.device().stats();
            for i in 0..8 + 4 {
                if i == 8 {
                    base = rt.device().stats();
                }
                ar.copy_from_slice(&contrib);
                coll::allreduce(&rt, &mut ar, &SumU64).unwrap();
                coll::alltoallv(&rt, &send, &counts, &mut recv, &counts).unwrap();
                let got = coll::ialltoallv(&rt, &blocks).unwrap().wait(&rt).unwrap();
                assert!(got[peer] == recv, "{wire} rank {rank}: ialltoallv differs from alltoallv");
            }
            let d = rt.device().stats().since(&base);

            let mut ar_ref = contrib.clone();
            let mut recv_ref = vec![0u8; V];
            coll::naive::allreduce(&rt, &mut ar_ref, &SumU64).unwrap();
            coll::naive::alltoallv(&rt, &send, &counts, &mut recv_ref, &counts).unwrap();
            assert!(ar == ar_ref, "{wire} rank {rank}: allreduce differs from coll::naive");
            assert!(recv == recv_ref, "{wire} rank {rank}: alltoallv differs from coll::naive");
            (d.buf_pool_hits + d.buf_pool_misses, d.rma_direct_bytes, d.rma_framed_bytes)
        });
        for (rank, (takes, direct, framed)) in ledger.into_iter().enumerate() {
            if wire == "tcp" {
                // The codec's staging is the wire's own; recorded, not
                // asserted.
                println!("tcp rank {rank}: {takes} pool takes in 4 warm iterations");
                assert_eq!((direct, framed), (0, WIRE), "tcp rank {rank}");
            } else {
                assert_eq!(takes, 0, "{wire} rank {rank}: pool takes in 4 warm iterations");
                assert_eq!((direct, framed), (WIRE, 0), "{wire} rank {rank}");
            }
        }
    }
}

/// Lending's one behaviour change (DESIGN.md §4.11 "Lending"): a failure
/// after the first lent post cannot return — a posted receive or a chunk
/// pump may still name the caller's buffer — so it ends the process. A
/// `ReduceOp::fold` that panics mid-allreduce (the seed chunks are lent
/// by then) is the in-process case: the child must die by `abort`, with
/// the scope's message, not unwind out of `allreduce` on one rank while
/// the other spins.
#[cfg(unix)]
#[test]
fn fold_panic_mid_allreduce_aborts_the_process() {
    use std::os::unix::process::ExitStatusExt;
    const NAME: &str = "fold_panic_mid_allreduce_aborts_the_process";
    const CHILD: &str = "LCI_TEST_FOLD_PANIC_CHILD";
    struct Refuses;
    impl lci::ReduceOp for Refuses {
        fn elem_size(&self) -> usize {
            8
        }
        fn fold(&self, _acc: &mut [u8], _incoming: &[u8]) {
            panic!("this fold refuses");
        }
    }
    if std::env::var_os(CHILD).is_some() {
        with_ranks(2, RuntimeConfig::small(), |rank, rt| {
            let mut buf = vec![1u8; 64 << 10];
            let res = if rank == 0 {
                coll::allreduce(&rt, &mut buf, &Refuses)
            } else {
                coll::allreduce(&rt, &mut buf, &SumU64)
            };
            // Rank 1 may get here (its own call can finish); rank 0 must not.
            assert!(rank == 1, "allreduce returned {res:?} past a panicking fold");
            loop {
                rt.progress_all().unwrap();
                std::thread::yield_now();
            }
        });
        unreachable!("the process outlived its abort");
    }
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args(lci_fabric::bootstrap::test_child_args(NAME))
        .env(CHILD, "1")
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.signal(),
        Some(6),
        "child did not die by SIGABRT: {:?}\n{err}",
        out.status
    );
    assert!(err.contains("this fold refuses"), "the panic itself was not reported:\n{err}");
    assert!(err.contains("lci::coll: a panic unwound through a blocking collective"), "{err}");
    assert!(err.contains("lci::coll: aborting"), "{err}");
}
