//! Ablations of the design choices DESIGN.md calls out (paper §4):
//!
//! 1. **Trylock wrapper vs blocking locks** (§4.2.2) — multithreaded
//!    message rate with the wrapper on vs off;
//! 2. **ibv thread-domain strategy** (§4.2.3) — per_qp / all_qp / none;
//! 3. **Completion-queue implementation** (§4.1.4) — FAA fixed array vs
//!    LCRQ-class segmented queue, multithreaded push/pop throughput;
//! 4. **Matching-engine bucket count** (§4.1.3) — load factor vs insert
//!    throughput (the small-array fast path needs low load);
//! 5. **Aggregation buffer size** (§5.3) — the paper notes larger
//!    buffers narrow the LCI/GASNet gap but worsen load balance;
//! 6. **Sender-side coalescing** (§4.2.4 lock amortization) — one-way
//!    streaming message rate with coalescing off vs a threshold sweep,
//!    on both simulated backends;
//! 7. **Coalesced demux in isolation** (7b) — per-sub-message copy-out
//!    vs the refcounted view handout the runtime uses, single-threaded.
//!    Sections 7, 8, 9 and 10 measured knobs and progress modes that
//!    no longer exist; their numbers are in EXPERIMENTS.md.

use bench::{env_usize, iters, print_header, print_row, quick, thread_sweep};
use kmer::{run_rank, KmerConfig, ReadSetConfig};
use lci::{CompDesc, CompQueue, CqConfig, CqImpl, MatchKind, MatchingConfig, MatchingEngine};
use lci_fabric::sync::LockDiscipline;
use lci_fabric::{Fabric, TdStrategy};
use lcw::{BackendKind, Platform, ResourceMode, WorldConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let iters = iters();
    let threads = *thread_sweep().last().unwrap_or(&2);

    // ------------------------------------------------------------------
    // 1+2. Lock discipline and thread-domain strategy: message rate with
    // a custom LCI runtime per variant (shared device: the contended
    // case the wrapper exists for).
    // ------------------------------------------------------------------
    print_header(
        "Ablation: trylock wrapper & td strategy (shared device msgrate)",
        &["variant", "threads", "Mmsg/s"],
    );
    for (name, discipline, td) in [
        ("trylock+per_qp (LCI default)", LockDiscipline::TryLock, TdStrategy::PerQp),
        ("trylock+all_qp", LockDiscipline::TryLock, TdStrategy::AllQp),
        ("blocking (stock stack)", LockDiscipline::Blocking, TdStrategy::None),
    ] {
        let rate = msgrate_lci_variant(discipline, td, threads, iters);
        print_row(&[name.into(), threads.to_string(), format!("{rate:.4}")]);
    }

    // ------------------------------------------------------------------
    // 3. Completion-queue implementations.
    // ------------------------------------------------------------------
    let per = if quick() { 20_000 } else { env_usize("BENCH_RESOURCE_OPS", 100_000) };
    print_header("Ablation: completion queue impls (push/pop pairs)", &["impl", "threads", "Mops"]);
    for t in thread_sweep() {
        for (name, imp) in [
            ("faa_array", CqImpl::FaaArray),
            ("lcrq", CqImpl::Lcrq),
            ("segmented(yardstick)", CqImpl::Segmented),
        ] {
            let q = CompQueue::new(CqConfig { imp, capacity: 8192 });
            let mops = stress(t, per, |_, _| {
                q.push(CompDesc::empty());
                while q.pop().is_none() {
                    std::thread::yield_now();
                }
            });
            print_row(&[name.into(), t.to_string(), format!("{mops:.2}")]);
        }
    }

    // ------------------------------------------------------------------
    // 4. Matching-engine bucket count (load factor).
    // ------------------------------------------------------------------
    print_header(
        "Ablation: matching engine bucket count (insert pairs)",
        &["buckets", "threads", "Mops"],
    );
    for buckets in [16usize, 256, 4096] {
        let me: MatchingEngine<u64> = MatchingEngine::with_config(MatchingConfig { buckets });
        let mops = stress(threads, per, |tid, i| {
            let key = ((tid as u64) << 32) | (i as u64 & 4095);
            if me.insert(key, i as u64, MatchKind::Send).is_none() {
                let _ = me.insert(key, i as u64, MatchKind::Recv);
            }
        });
        print_row(&[buckets.to_string(), threads.to_string(), format!("{mops:.2}")]);
    }

    // ------------------------------------------------------------------
    // 5. Aggregation buffer size in the k-mer pipeline.
    // ------------------------------------------------------------------
    print_header("Ablation: k-mer aggregation buffer size", &["agg_bytes", "time_s"]);
    let scale = if quick() { 1 } else { 2 };
    let reads = ReadSetConfig {
        genome_len: 10_000 * scale,
        n_reads: 1_000 * scale,
        read_len: 100,
        error_rate: 0.01,
        seed: 42,
    };
    for agg in [1024usize, 8192, 32768] {
        let cfg = KmerConfig {
            reads,
            k: 31,
            nthreads: 2,
            agg_size: agg,
            world: WorldConfig::new(
                BackendKind::Lci,
                Platform::Expanse,
                ResourceMode::Dedicated(2),
            ),
            expected_distinct: reads.genome_len * 2,
            max_count: 64,
        };
        let fabric = Fabric::new(2);
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let fabric = fabric.clone();
                std::thread::spawn(move || run_rank(fabric, r, cfg))
            })
            .collect();
        let t = handles
            .into_iter()
            .map(|h| h.join().unwrap().count_time.as_secs_f64())
            .fold(0.0, f64::max);
        print_row(&[agg.to_string(), format!("{t:.3}")]);
    }

    // ------------------------------------------------------------------
    // 6. Sender-side coalescing. The request-reply loop of ablation 1
    // would hide coalescing entirely (every message waits for its
    // reply), so this section streams one-way: the metric is the rate at
    // which small messages cross the fabric, which is where amortizing
    // the posting lock pays off — most visibly on the ofi-like backend
    // whose single endpoint lock serializes posting against polling.
    // ------------------------------------------------------------------
    let ct = if quick() { 2 } else { threads.max(4) };
    // Streaming is far cheaper per message than the request-reply loops
    // above; use more iterations so startup and tail-flush costs are
    // amortized out of the rate.
    let citers = if quick() { iters } else { iters.saturating_mul(10) };
    print_header(
        "Ablation: sender-side coalescing (one-way streaming msgrate)",
        &["backend", "coalesce", "threads", "Mmsg/s"],
    );
    for (bname, mkdev) in [
        ("ibv-sim", lci::DeviceConfig::ibv as fn() -> lci::DeviceConfig),
        ("ofi-sim", lci::DeviceConfig::ofi as fn() -> lci::DeviceConfig),
    ] {
        for (cname, coalesce) in [
            ("off", lci::CoalesceConfig::default()),
            ("2KiB", lci::CoalesceConfig::enabled_with_bytes(2048)),
            ("8KiB", lci::CoalesceConfig::enabled_with_bytes(8192)),
            ("32KiB", lci::CoalesceConfig::enabled_with_bytes(32768)),
        ] {
            let rate = msgrate_streaming(mkdev, coalesce, 8, ct, citers);
            print_row(&[bname.into(), cname.into(), ct.to_string(), format!("{rate:.4}")]);
        }
    }

    // ------------------------------------------------------------------
    // 7b. The demux path in isolation: per-sub-message copy-out vs the
    // refcounted view handout the runtime delivers with, single-threaded
    // so nothing else of the per-message cost dilutes the difference.
    // ------------------------------------------------------------------
    print_header(
        "Ablation: coalesced demux in isolation (single thread)",
        &["payload", "mode", "Mmsg/s"],
    );
    let dtotal = if quick() { 100_000 } else { 2_000_000 };
    for payload in [8usize, 512, 1024, 4096] {
        for zc in [false, true] {
            let rate = demux_microbench(payload, zc, dtotal);
            print_row(&[
                payload.to_string(),
                (if zc { "view" } else { "copy" }).into(),
                format!("{rate:.2}"),
            ]);
        }
    }
}

/// Demux-path microbenchmark: repeatedly lands one pre-packed coalesced
/// frame in a pool packet and delivers every sub-message either by
/// copying it out or as a refcounted view (what the runtime does).
/// Returns sub-messages per second in millions.
fn demux_microbench(payload: usize, zero_copy: bool, total: usize) -> f64 {
    use lci::proto::{coalesce_pack, coalesce_unpack_ranges, Header, MsgType};
    use lci::{MatchingPolicy, PacketPool, PacketPoolConfig};
    use std::hint::black_box;

    let pool = PacketPool::new(PacketPoolConfig { payload_size: 32768, count: 8 }).unwrap();
    let imm = Header::new(MsgType::EagerAm, MatchingPolicy::RankTag, 0, 0).encode();
    let mut frame = Vec::new();
    let mut n = 0usize;
    while frame.len() + 12 + payload <= 16384 {
        coalesce_pack(&mut frame, imm, &vec![0u8; payload]);
        n += 1;
    }
    let reps = total / n;

    let t0 = Instant::now();
    for _ in 0..reps {
        let mut packet = pool.get().unwrap();
        packet.fill(&frame);
        let subs = coalesce_unpack_ranges(&packet.as_slice()[..packet.len()]).unwrap();
        if zero_copy {
            let shared = packet.into_shared();
            for (sub_imm, r) in subs {
                black_box(Header::decode(sub_imm).unwrap());
                let view = shared.view(r.start, r.end - r.start);
                black_box(view.as_slice());
            }
        } else {
            for (sub_imm, r) in subs {
                black_box(Header::decode(sub_imm).unwrap());
                let owned: Box<[u8]> = packet.as_slice()[r].into();
                black_box(&owned);
            }
        }
    }
    (reps * n) as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// One-way streaming message rate: `nthreads` sender threads on rank 0
/// stream `payload`-byte active messages to rank 1, which counts them
/// through a handler completion. Returns Mmsg/s as observed by the
/// receiver.
fn msgrate_streaming(
    mkdev: fn() -> lci::DeviceConfig,
    coalesce: lci::CoalesceConfig,
    payload: usize,
    nthreads: usize,
    iters: usize,
) -> f64 {
    use lci::{Comp, PostResult, Runtime, RuntimeConfig};
    let fabric = Fabric::new(2);
    let elapsed = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let total = (nthreads * iters) as u64;

    // Packets sized for the largest threshold in the sweep, identical
    // across variants so only the coalescing knob differs.
    let cfg = move || RuntimeConfig {
        device: mkdev(),
        packet: lci::PacketPoolConfig { payload_size: 32768, count: 256 },
        coalesce,
        ..RuntimeConfig::small()
    };

    let recv_fabric = fabric.clone();
    let recv_elapsed = elapsed.clone();
    let recv_done = done.clone();
    let receiver = std::thread::spawn(move || {
        let rt = Runtime::new(recv_fabric.clone(), 1, cfg()).unwrap();
        let received = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let r2 = received.clone();
        let rcomp = rt.register_rcomp(Comp::alloc_handler(move |_| {
            r2.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(rcomp, 0);
        recv_fabric.oob_barrier();
        let t0 = Instant::now();
        while received.load(Ordering::Acquire) < total {
            rt.progress().unwrap();
        }
        recv_elapsed.store(t0.elapsed().as_nanos() as u64, Ordering::Release);
        recv_done.store(true, Ordering::Release);
    });

    let rt = Runtime::new(fabric.clone(), 0, cfg()).unwrap();
    fabric.oob_barrier();
    std::thread::scope(|scope| {
        for t in 0..nthreads {
            let rt = rt.clone();
            scope.spawn(move || {
                let noop = Comp::alloc_handler(|_| {});
                let buf = vec![0u8; payload];
                for _ in 0..iters {
                    while let PostResult::Retry(_) =
                        rt.post_am_x(1, &buf[..], noop.clone(), 0).tag(t as u32).call().unwrap()
                    {
                        let _ = rt.progress();
                    }
                }
            });
        }
    });
    // Flush the tail of every coalescing buffer, then keep the progress
    // engine turning (backlog drain, send completions) until the
    // receiver has counted everything.
    rt.device().flush_coalesced().unwrap();
    while !done.load(Ordering::Acquire) {
        rt.progress().unwrap();
    }
    receiver.join().unwrap();
    total as f64 / (elapsed.load(Ordering::Acquire) as f64 / 1e9) / 1e6
}

/// Thread-stress helper: op-pairs per second (Mops).
fn stress(nthreads: usize, per: usize, op: impl Fn(usize, usize) + Send + Sync) -> f64 {
    let op = Arc::new(op);
    let go = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..nthreads {
            let op = op.clone();
            let go = go.clone();
            scope.spawn(move || {
                while !go.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                for i in 0..per {
                    op(t, i);
                }
            });
        }
        go.store(true, Ordering::Release);
    });
    (nthreads * per) as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Message rate with an LCI runtime whose device uses the given lock
/// discipline and thread-domain strategy, all threads sharing it.
fn msgrate_lci_variant(
    discipline: LockDiscipline,
    td: TdStrategy,
    nthreads: usize,
    iters: usize,
) -> f64 {
    use lci::{Comp, PostResult, Runtime, RuntimeConfig};
    let fabric = Fabric::new(2);
    let elapsed = Arc::new(std::sync::atomic::AtomicU64::new(0));

    let mk = |rank: usize, fabric: Arc<Fabric>, elapsed: Arc<std::sync::atomic::AtomicU64>| {
        std::thread::spawn(move || {
            let cfg = RuntimeConfig {
                device: lci::DeviceConfig::ibv().with_discipline(discipline).with_td_strategy(td),
                ..RuntimeConfig::small()
            };
            let rt = Runtime::new(fabric.clone(), rank, cfg).unwrap();
            let cq = Comp::alloc_cq();
            let rcomp = rt.register_rcomp(cq.clone());
            assert_eq!(rcomp, 0);
            fabric.oob_barrier();
            let t0 = Instant::now();
            let total = (nthreads * iters) as u64;
            let served = Arc::new(std::sync::atomic::AtomicU64::new(0));
            std::thread::scope(|scope| {
                for t in 0..nthreads {
                    let rt = rt.clone();
                    let cq = cq.clone();
                    let served = served.clone();
                    scope.spawn(move || {
                        let noop = Comp::alloc_handler(|_| {});
                        if rank == 0 {
                            for _ in 0..iters {
                                while let PostResult::Retry(_) = rt
                                    .post_am_x(1, [0u8; 8].as_slice(), noop.clone(), 0)
                                    .tag(t as u32)
                                    .call()
                                    .unwrap()
                                {
                                    let _ = rt.progress();
                                }
                                loop {
                                    let _ = rt.progress();
                                    if cq.pop().is_some() {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        } else {
                            while served.load(Ordering::Acquire) < total {
                                let _ = rt.progress();
                                while let Some(m) = cq.pop() {
                                    while let PostResult::Retry(_) = rt
                                        .post_am_x(0, [0u8; 8].as_slice(), noop.clone(), 0)
                                        .tag(m.tag)
                                        .call()
                                        .unwrap()
                                    {
                                        let _ = rt.progress();
                                    }
                                    served.fetch_add(1, Ordering::AcqRel);
                                }
                                std::thread::yield_now();
                            }
                        }
                    });
                }
            });
            let dt = t0.elapsed();
            fabric.oob_barrier();
            if rank == 0 {
                elapsed.store(dt.as_nanos() as u64, Ordering::Release);
            }
        })
    };
    let h0 = mk(0, fabric.clone(), elapsed.clone());
    let h1 = mk(1, fabric, elapsed.clone());
    h0.join().unwrap();
    h1.join().unwrap();
    (nthreads * iters) as f64 / (elapsed.load(Ordering::Acquire) as f64 / 1e9) / 1e6
}
