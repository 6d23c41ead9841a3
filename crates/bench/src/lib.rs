//! Shared machinery for the figure/table harnesses (paper §5).
//!
//! Every `benches/figN_*.rs` binary reproduces one paper figure or
//! table: same workload, same parameter sweeps (scaled to this
//! machine), same row/series layout. Environment knobs:
//!
//! * `BENCH_MAX_THREADS` — caps the thread/pair sweeps (default 4; the
//!   paper sweeps to 128 on 128-core nodes);
//! * `BENCH_ITERS` — per-thread iterations (default 2000; paper: 100k);
//! * `BENCH_QUICK=1` — minimal sweep for smoke-testing the harness.
//!
//! The metric conventions follow the paper: message rate in million
//! messages per second (unidirectional), bandwidth in MiB/s
//! (unidirectional), resource throughput in million operations per
//! second.

use lci_fabric::Fabric;
use lcw::{BackendKind, Endpoint, Platform, ResourceMode, World, WorldConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads a `usize` environment knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Whether quick (smoke) mode is on.
pub fn quick() -> bool {
    std::env::var("BENCH_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// The thread-count sweep (paper: 1..128; here capped for one box).
pub fn thread_sweep() -> Vec<usize> {
    if quick() {
        return vec![1, 2];
    }
    let max = env_usize("BENCH_MAX_THREADS", 4);
    let mut v = vec![];
    let mut t = 1;
    while t <= max {
        v.push(t);
        t *= 2;
    }
    v
}

/// Per-thread iteration count.
pub fn iters() -> usize {
    if quick() {
        200
    } else {
        env_usize("BENCH_ITERS", 2000)
    }
}

/// Prints a table header.
pub fn print_header(title: &str, cols: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", cols.join("\t"));
}

/// Prints one table row.
pub fn print_row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Pretty backend names matching the paper's legends.
pub fn lib_name(b: BackendKind) -> &'static str {
    match b {
        BackendKind::Lci => "lci",
        BackendKind::Mpi => "mpi",
        BackendKind::Vci => "mpix",
        BackendKind::Gasnet => "gasnet",
    }
}

/// Pretty platform names.
pub fn platform_name(p: Platform) -> &'static str {
    match p {
        Platform::Expanse => "expanse(ibv-sim)",
        Platform::Delta => "delta(ofi-sim)",
        Platform::ShmHost => "shm",
        Platform::TcpHost => "tcp",
    }
}

/// The platform axis of the sweeps: both simulated platforms by
/// default, or exactly the transport named by `--transport`/
/// `LCI_TRANSPORT` when one is given (so
/// `cargo bench --bench fig3_msgrate_thread -- --transport shm`
/// regenerates one figure on the real wire).
pub fn platform_sweep() -> Vec<Platform> {
    match Platform::selected() {
        Some(p) => vec![p],
        None => vec![Platform::Expanse, Platform::Delta],
    }
}

/// Ping tag namespace: pings carry the thread id, pongs carry
/// `PONG_BASE + thread id`.
const PONG_BASE: u32 = 1 << 20;

/// Homes worker `t` on the logical core map (`t mod cores`). A real
/// launcher pins worker OS threads to cores; the harness mirrors that
/// on [`lci::topology`]'s logical map so per-core resource layouts see
/// the same worker→core picture the paper's pinned runs do. No-op for
/// the baseline backends and on a one-core map.
fn pin_worker(cfg: &WorldConfig, t: usize) {
    let cores = lci::topology::ncores();
    if cfg.backend == BackendKind::Lci && cores > 1 {
        lci::topology::bind_current_thread(t % cores);
    }
}

/// Progresses `ep` until nothing it posted still needs its progress,
/// before the worker leaves for a closing barrier. A send the wire did
/// not finish at its post (every tcp post, a parked one on any wire)
/// leaves only at a later progress call on its rank, so a worker whose
/// last post is the message its peer waits for would otherwise strand
/// it, and both ranks would wait forever.
fn settle(ep: &mut Endpoint) {
    ep.quiesce(Duration::from_secs(60)).expect("a worker's sends never left");
}

/// Runs the paper's message-rate microbenchmark in thread-based mode:
/// one process ("node") per rank, `nthreads` workers per rank, each
/// ping-ponging 8-byte active messages with its peer. Returns the
/// unidirectional rate in Mmsg/s.
///
/// Shared resources may deliver a pong to any thread, so credits are
/// accounted per thread id through shared counters (the scheme the LCW
/// microbenchmarks use).
pub fn msgrate_thread_based(
    backend: BackendKind,
    platform: Platform,
    mode: ResourceMode,
    nthreads: usize,
    iters: usize,
    msg_size: usize,
) -> f64 {
    let cfg = WorldConfig::new(backend, platform, mode);
    let fabric = Fabric::new(2);
    let total = (nthreads * iters) as u64;
    let elapsed = Arc::new(AtomicU64::new(0));

    let mk_rank = |rank: usize, fabric: Arc<Fabric>, elapsed: Arc<AtomicU64>| {
        std::thread::spawn(move || {
            let world = Arc::new(World::new(fabric.clone(), rank, cfg));
            // credits[t]: pongs received for thread t (rank 0);
            // pings seen for thread t (rank 1 forwards immediately).
            let credits: Arc<Vec<AtomicU64>> =
                Arc::new((0..nthreads).map(|_| AtomicU64::new(0)).collect());
            let served = Arc::new(AtomicU64::new(0));
            fabric.oob_barrier();
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for t in 0..nthreads {
                    let world = world.clone();
                    let credits = credits.clone();
                    let served = served.clone();
                    scope.spawn(move || {
                        pin_worker(&cfg, t);
                        let mut ep = world.endpoint(t);
                        let payload = vec![0u8; msg_size];
                        if rank == 0 {
                            let mut got = 0u64;
                            for _ in 0..iters {
                                while !ep.send_am(1, &payload, t as u32) {
                                    ep.progress();
                                }
                                // Wait for one more credit for thread t.
                                got += 1;
                                while credits[t].load(Ordering::Acquire) < got {
                                    ep.progress();
                                    while let Some(m) = ep.poll_msg() {
                                        let tid = (m.tag - PONG_BASE) as usize;
                                        credits[tid].fetch_add(1, Ordering::AcqRel);
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        } else {
                            // Serve pings until the global quota is met.
                            while served.load(Ordering::Acquire) < total {
                                ep.progress();
                                while let Some(m) = ep.poll_msg() {
                                    let tid = m.tag;
                                    while !ep.send_am(0, &m.data, PONG_BASE + tid) {
                                        ep.progress();
                                    }
                                    served.fetch_add(1, Ordering::AcqRel);
                                }
                                std::thread::yield_now();
                            }
                        }
                        settle(&mut ep);
                    });
                }
            });
            let dt = t0.elapsed();
            fabric.oob_barrier();
            if rank == 0 {
                elapsed.store(dt.as_nanos() as u64, Ordering::Release);
            }
            drop(world);
        })
    };

    let h0 = mk_rank(0, fabric.clone(), elapsed.clone());
    let h1 = mk_rank(1, fabric, elapsed.clone());
    h0.join().unwrap();
    h1.join().unwrap();
    let ns = elapsed.load(Ordering::Acquire) as f64;
    // Unidirectional: count pings only.
    total as f64 / (ns / 1e9) / 1e6
}

/// Process-based mode (paper Fig. 2): `pairs` ranks per "node", one
/// thread per rank, rank i pairs with rank pairs+i. Returns Mmsg/s.
pub fn msgrate_process_based(
    backend: BackendKind,
    platform: Platform,
    pairs: usize,
    iters: usize,
) -> f64 {
    let nranks = pairs * 2;
    let fabric = Fabric::new(nranks);
    let cfg = WorldConfig::new(backend, platform, ResourceMode::Shared);
    let elapsed: Arc<Vec<AtomicU64>> = Arc::new((0..pairs).map(|_| AtomicU64::new(0)).collect());

    let handles: Vec<_> = (0..nranks)
        .map(|rank| {
            let fabric = fabric.clone();
            let elapsed = elapsed.clone();
            std::thread::spawn(move || {
                let world = World::new(fabric.clone(), rank, cfg);
                let mut ep = world.endpoint(0);
                let payload = vec![0u8; 8];
                fabric.oob_barrier();
                let t0 = Instant::now();
                if rank < pairs {
                    let peer = pairs + rank;
                    for _ in 0..iters {
                        while !ep.send_am(peer, &payload, 0) {
                            ep.progress();
                        }
                        loop {
                            ep.progress();
                            if ep.poll_msg().is_some() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                    elapsed[rank].store(t0.elapsed().as_nanos() as u64, Ordering::Release);
                } else {
                    let peer = rank - pairs;
                    for _ in 0..iters {
                        loop {
                            ep.progress();
                            if ep.poll_msg().is_some() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                        while !ep.send_am(peer, &payload, 0) {
                            ep.progress();
                        }
                    }
                }
                settle(&mut ep);
                fabric.oob_barrier();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Aggregate unidirectional rate: sum of per-pair rates.
    let total_rate: f64 = (0..pairs)
        .map(|i| {
            let ns = elapsed[i].load(Ordering::Acquire) as f64;
            iters as f64 / (ns / 1e9)
        })
        .sum();
    total_rate / 1e6
}

/// Bandwidth microbenchmark (paper Fig. 4): `nthreads` per rank,
/// windowed unidirectional send-receive streams of `size`-byte
/// messages. Returns MiB/s aggregated over threads.
pub fn bandwidth_thread_based(
    backend: BackendKind,
    platform: Platform,
    mode: ResourceMode,
    nthreads: usize,
    size: usize,
    iters: usize,
) -> f64 {
    const WINDOW: usize = 8;
    let cfg = WorldConfig::new(backend, platform, mode);
    let fabric = Fabric::new(2);
    let elapsed = Arc::new(AtomicU64::new(0));

    let mk_rank = |rank: usize, fabric: Arc<Fabric>, elapsed: Arc<AtomicU64>| {
        std::thread::spawn(move || {
            let world = Arc::new(World::new(fabric.clone(), rank, cfg));
            fabric.oob_barrier();
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for t in 0..nthreads {
                    let world = world.clone();
                    scope.spawn(move || {
                        pin_worker(&cfg, t);
                        let mut ep = world.endpoint(t);
                        let payload = vec![(t & 0xFF) as u8; size];
                        if rank == 0 {
                            for _ in 0..iters {
                                // Fill a window of sends, then wait for
                                // the 1-byte credit.
                                for w in 0..WINDOW {
                                    let tag = (t * WINDOW + w) as u32;
                                    while !ep.send(1, &payload, tag) {
                                        ep.progress();
                                    }
                                }
                                let tok = ep.post_recv(1, 0xF000 + t as u32, 8);
                                loop {
                                    ep.progress();
                                    if ep.test_recv(&tok).is_some() {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        } else {
                            for _ in 0..iters {
                                let toks: Vec<_> = (0..WINDOW)
                                    .map(|w| {
                                        let tag = (t * WINDOW + w) as u32;
                                        ep.post_recv(0, tag, size.max(8))
                                    })
                                    .collect();
                                for tok in &toks {
                                    loop {
                                        ep.progress();
                                        if ep.test_recv(tok).is_some() {
                                            break;
                                        }
                                        std::thread::yield_now();
                                    }
                                }
                                while !ep.send(0, &[1u8; 1], 0xF000 + t as u32) {
                                    ep.progress();
                                }
                            }
                        }
                        settle(&mut ep);
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
    let h0 = mk_rank(0, fabric.clone(), elapsed.clone());
    let h1 = mk_rank(1, fabric, elapsed.clone());
    h0.join().unwrap();
    h1.join().unwrap();
    let ns = elapsed.load(Ordering::Acquire) as f64;
    let bytes = (nthreads * iters * WINDOW * size) as f64;
    bytes / (ns / 1e9) / (1024.0 * 1024.0)
}
