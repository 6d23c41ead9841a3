//! Sparse size-adaptive `alltoallv` vs the padded dense `alltoall`
//! baseline and the `coll::naive` store-and-forward reference — the MoE
//! token-routing exchange shape (skewed, ragged, mostly-sparse routing
//! matrices) that motivated the vector collective.
//!
//! The routing matrix is a token model: every rank routes `TOKENS`
//! fixed-size tokens to destination "experts" drawn from a Zipf
//! distribution over ranks (`skew` = the Zipf exponent; 0.0 is the
//! dense uniform control). Skewed settings also model top-k batch
//! sparsity: each source activates only `n/2` Zipf-drawn experts, so
//! the cold pairs are exactly zero bytes — the shape where a dense
//! exchange pays for blocks that do not exist. Three algorithms run the
//! *same* matrix:
//!
//! * `sparse`   — [`lcw::World::alltoallv`]: zero pairs post nothing,
//!   per-block inline/eager/chunked protocol, largest-block-first
//!   scheduling under the in-flight window.
//! * `padded`   — the pre-existing dense [`alltoall_bytes`] with every
//!   block padded to the global max block (what callers did before the
//!   vector exchange existed).
//! * `naive`    — the store-and-forward `lci::coll::naive::alltoallv`
//!   (dense, whole-block clones, one send in flight).
//!
//! Goodput charges every algorithm the **true** payload bytes (the
//! matrix sum), so padded's padding is pure overhead and the
//! sparse/padded ratio equals the wall-time ratio. `p99_us` is the 99th
//! percentile single-exchange latency on rank 0. `skipped` sums the
//! `coll_skipped_pairs` deltas across ranks (sparse-path evidence);
//! `hwm_KiB` is the max per-call payload high-water mark
//! (`coll_v_bytes_hwm`).
//!
//! Transports: thread-per-rank sim-ibv/sim-ofi, plus real multi-process
//! shm and tcp via self-re-execution (`LCI_TRANSPORT` pins one wire,
//! like `shm_scale`).
//!
//! Env knobs: `BENCH_QUICK=1`, `BENCH_A2AV_RANKS`, `BENCH_A2AV_SKEWS`
//! (tenths, e.g. `0,12,20`), `BENCH_A2AV_TOKENS`, `BENCH_A2AV_TOKBYTES`,
//! `BENCH_A2AV_ITERS`, `BENCH_A2AV_CHUNK`.
//!
//! Honest caveat (also in EXPERIMENTS.md): on one host all "wires" are
//! memcpy or loopback, so the sparse win shows up as bytes *not
//! copied*, not as network bandwidth saved; absolute MiB/s says nothing
//! about a cluster.

use bench::env_usize;
use lcw::{BackendKind, Platform, ResourceMode, World, WorldConfig};
use std::ffi::OsString;
use std::sync::Arc;
use std::time::{Duration, Instant};

const JOB_ENV: &str = "BENCH_A2AV_JOB";
const JOB_TIMEOUT: Duration = Duration::from_secs(300);

fn main() {
    match World::from_env(cfg(Platform::ShmHost)).expect("attach") {
        Some(world) => child(world),
        None => parent(),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    Sparse,
    Padded,
    Naive,
}

impl Algo {
    fn name(self) -> &'static str {
        match self {
            Algo::Sparse => "sparse",
            Algo::Padded => "padded",
            Algo::Naive => "naive",
        }
    }
    fn parse(s: &str) -> Algo {
        match s {
            "sparse" => Algo::Sparse,
            "padded" => Algo::Padded,
            "naive" => Algo::Naive,
            other => panic!("unknown alltoallv algo {other:?}"),
        }
    }
}

fn ranks() -> Vec<usize> {
    if let Ok(v) = std::env::var("BENCH_A2AV_RANKS") {
        return v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
    }
    if bench::quick() {
        vec![4]
    } else {
        vec![4, 8]
    }
}

/// Zipf exponents in tenths (integers survive the env round-trip).
fn skews_x10() -> Vec<usize> {
    if let Ok(v) = std::env::var("BENCH_A2AV_SKEWS") {
        return v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
    }
    if bench::quick() {
        vec![0, 20]
    } else {
        vec![0, 12, 20]
    }
}

fn tokens() -> usize {
    env_usize("BENCH_A2AV_TOKENS", if bench::quick() { 256 } else { 1024 })
}

fn token_bytes() -> usize {
    env_usize("BENCH_A2AV_TOKBYTES", if bench::quick() { 256 } else { 512 })
}

fn iters() -> usize {
    env_usize("BENCH_A2AV_ITERS", if bench::quick() { 10 } else { 40 })
}

fn chunk() -> usize {
    env_usize("BENCH_A2AV_CHUNK", 32 << 10)
}

fn cfg(platform: Platform) -> WorldConfig {
    WorldConfig::new(BackendKind::Lci, platform, ResourceMode::Shared).with_coll_chunk_size(chunk())
}

/// The wire axis (mirrors `shm_scale`): both real transports unless
/// `LCI_TRANSPORT` pins one.
fn wire_sweep() -> Vec<&'static str> {
    match std::env::var(lci_fabric::bootstrap::ENV_TRANSPORT).ok().as_deref() {
        Some("tcp") => vec!["tcp"],
        Some(_) => vec!["shm"],
        None => vec!["shm", "tcp"],
    }
}

fn my_wire() -> &'static str {
    match std::env::var(lci_fabric::bootstrap::ENV_TRANSPORT).ok().as_deref() {
        Some("tcp") => "tcp",
        _ => "shm",
    }
}

/// One draw from the per-src LCG stream, as a uniform in [0, 1).
fn lcg_uniform(x: &mut u64) -> f64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (*x >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic Zipf token routing with top-k batch sparsity: rank
/// `src` first activates `k = n/2` experts drawn (without replacement)
/// from weights `(e+1)^-s` over expert (rank) index `e` — real MoE
/// gating activates a handful of experts per batch, so a source's row
/// touches only its active set and every other pair is *exactly* zero.
/// Its `tokens` tokens are then Zipf-split across the active set. The
/// global expert order is shared, so high skew makes expert 0 the hot
/// rank (everyone's active set includes it) while cold pairs vanish.
/// Skew 0.0 is the dense uniform control: all experts active, no zero
/// pairs, nothing for the sparse path to skip. Every rank computes the
/// identical matrix.
fn routing_matrix(n: usize, skew_x10: usize) -> Vec<Vec<usize>> {
    let s = skew_x10 as f64 / 10.0;
    let weights: Vec<f64> = (0..n).map(|e| 1.0 / ((e + 1) as f64).powf(s)).collect();
    let tb = token_bytes();
    let mut m = vec![vec![0usize; n]; n];
    for (src, row) in m.iter_mut().enumerate() {
        // Per-src LCG stream (deterministic; rand shim is minimal).
        let mut x: u64 = (src as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let active: Vec<usize> = if skew_x10 == 0 {
            (0..n).collect()
        } else {
            let k = (n / 2).max(2).min(n);
            let mut pool: Vec<usize> = (0..n).collect();
            let mut set = Vec::with_capacity(k);
            for _ in 0..k {
                let total: f64 = pool.iter().map(|&e| weights[e]).sum();
                let mut u = lcg_uniform(&mut x) * total;
                let mut pick = pool.len() - 1;
                for (i, &e) in pool.iter().enumerate() {
                    if u < weights[e] {
                        pick = i;
                        break;
                    }
                    u -= weights[e];
                }
                set.push(pool.swap_remove(pick));
            }
            set
        };
        let total: f64 = active.iter().map(|&e| weights[e]).sum();
        for _ in 0..tokens() {
            let mut u = lcg_uniform(&mut x) * total;
            let mut dst = *active.last().expect("active set nonempty");
            for &e in &active {
                if u < weights[e] {
                    dst = e;
                    break;
                }
                u -= weights[e];
            }
            row[dst] += tb;
        }
    }
    m
}

/// One rank's timed loop. Returns (total ns, p99 ns, skipped-pairs
/// delta, v-bytes high-water) for this rank.
fn bench_loop(world: &World, algo: Algo, m: &[Vec<usize>], iters: usize) -> (u64, u64, u64, u64) {
    let rt = world.lci_runtime().expect("lci backend");
    let n = world.size();
    let rank = world.rank();
    let send_counts = m[rank].clone();
    let recv_counts: Vec<usize> = (0..n).map(|src| m[src][rank]).collect();
    let max_block = m.iter().flat_map(|row| row.iter().copied()).max().unwrap_or(0);

    // Buffers are built once and reused: the loop measures the
    // exchange, not allocation (the sparse warm loop allocates nothing
    // anyway — enforced by the lci alloc audit).
    let send = vec![0x5Au8; send_counts.iter().sum()];
    let mut recv = vec![0u8; recv_counts.iter().sum()];
    let padded_send = vec![0x5Au8; n * max_block];
    let mut padded_recv = vec![0u8; n * max_block];
    let mut lat = vec![0u64; iters];

    let once = |recv: &mut [u8], padded_recv: &mut [u8]| match algo {
        Algo::Sparse => {
            world.alltoallv(&send, &send_counts, recv, &recv_counts).expect("alltoallv")
        }
        Algo::Naive => lci::coll::naive::alltoallv(rt, &send, &send_counts, recv, &recv_counts)
            .expect("naive alltoallv"),
        Algo::Padded => world.alltoall_bytes(&padded_send, padded_recv).expect("padded alltoall"),
    };

    world.fabric().oob_barrier();
    once(&mut recv, &mut padded_recv); // warm pools, shelves, match tables
    world.barrier().expect("warmup barrier");
    let before = rt.device().stats();
    let t0 = Instant::now();
    for slot in lat.iter_mut() {
        let it0 = Instant::now();
        once(&mut recv, &mut padded_recv);
        *slot = it0.elapsed().as_nanos() as u64;
    }
    world.barrier().expect("closing barrier");
    let ns = t0.elapsed().as_nanos() as u64;
    let stats = rt.device().stats().since(&before);
    lat.sort_unstable();
    let p99 = lat[(lat.len() * 99).div_ceil(100).saturating_sub(1)];
    (ns, p99, stats.coll_skipped_pairs, stats.coll_v_bytes_hwm)
}

/// Aggregates rank results into the printed row: goodput charges the
/// true matrix bytes regardless of algorithm, p99 is rank 0's.
fn print_result(
    tname: &str,
    nranks: usize,
    skew_x10: usize,
    algo: Algo,
    m: &[Vec<usize>],
    results: &[(u64, u64, u64, u64)],
    iters: usize,
) {
    let true_bytes: usize = m.iter().map(|row| row.iter().sum::<usize>()).sum();
    let ns = results[0].0;
    let p99_us = results[0].1 as f64 / 1e3;
    let skipped: u64 = results.iter().map(|r| r.2).sum();
    let hwm = results.iter().map(|r| r.3).max().unwrap_or(0);
    let mibs = (true_bytes * iters) as f64 / (ns as f64 / 1e9) / (1 << 20) as f64;
    bench::print_row(&[
        tname.to_string(),
        nranks.to_string(),
        format!("{:.1}", skew_x10 as f64 / 10.0),
        algo.name().to_string(),
        format!("{mibs:.1}"),
        format!("{p99_us:.1}"),
        skipped.to_string(),
        (hwm >> 10).to_string(),
    ]);
}

/// Thread-per-rank over an in-process sim transport.
fn run_threaded(platform: Platform, nranks: usize, skew_x10: usize, algo: Algo) {
    let iters = iters();
    let m = Arc::new(routing_matrix(nranks, skew_x10));
    let fabric = lci_fabric::Fabric::new(nranks);
    let handles: Vec<_> = (0..nranks)
        .map(|r| {
            let fabric = fabric.clone();
            let wcfg = cfg(platform);
            let m = m.clone();
            std::thread::Builder::new()
                .name(format!("a2av-r{r}"))
                .spawn(move || {
                    let world = World::new(fabric, r, wcfg);
                    bench_loop(&world, algo, &m, iters)
                })
                .expect("spawn rank")
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let tname = if platform == Platform::Expanse { "sim-ibv" } else { "sim-ofi" };
    print_result(tname, nranks, skew_x10, algo, &m, &results, iters);
}

/// Real multi-process run: re-executes this binary as the worker ranks.
fn run_wire(nranks: usize, skew_x10: usize, algo: Algo) {
    std::env::set_var(JOB_ENV, format!("{skew_x10}:{}", algo.name()));
    let args: Vec<OsString> = Vec::new();
    let report = World::spawn_local(nranks, &args, JOB_TIMEOUT).expect("spawn wire ranks");
    assert!(
        report.all_ok(),
        "alltoallv {} skew {skew_x10} at {nranks} procs: exits {:?}",
        algo.name(),
        report.exit_codes
    );
    std::env::remove_var(JOB_ENV);
}

fn parent() {
    println!("# alltoallv: sparse size-adaptive vector exchange vs padded dense / coll::naive");
    println!(
        "# token model: {} tokens x {} B per rank, Zipf(skew) gates; skewed rows \
         activate n/2 experts per src (top-k batch sparsity); \
         goodput charges true matrix bytes for every algo; x{} iters",
        tokens(),
        token_bytes(),
        iters()
    );
    bench::print_header(
        "alltoallv",
        &["transport", "ranks", "skew", "algo", "MiB/s", "p99_us", "skipped", "hwm_KiB"],
    );
    let wires = wire_sweep();
    for nranks in ranks() {
        for &skew in &skews_x10() {
            for algo in [Algo::Sparse, Algo::Padded, Algo::Naive] {
                for platform in [Platform::Expanse, Platform::Delta] {
                    run_threaded(platform, nranks, skew, algo);
                }
            }
            for &wire in &wires {
                std::env::set_var(lci_fabric::bootstrap::ENV_TRANSPORT, wire);
                for algo in [Algo::Sparse, Algo::Padded, Algo::Naive] {
                    run_wire(nranks, skew, algo);
                }
            }
        }
    }
}

/// Worker-rank side of a wire job: run the loop, allgather the per-rank
/// metrics over the OOB channel, rank 0 prints the row.
fn child(world: World) {
    let job = std::env::var(JOB_ENV).expect("child without a job");
    let (skew, algo) = job.split_once(':').expect("job format");
    let skew_x10: usize = skew.parse().expect("job skew");
    let algo = Algo::parse(algo);
    let world = Arc::new(world);
    let iters = iters();
    let m = routing_matrix(world.size(), skew_x10);
    let mine = bench_loop(&world, algo, &m, iters);
    let mut packed = Vec::with_capacity(32);
    for v in [mine.0, mine.1, mine.2, mine.3] {
        packed.extend_from_slice(&v.to_le_bytes());
    }
    let all = world.fabric().oob_allgather(world.rank(), packed);
    if world.rank() == 0 {
        let results: Vec<(u64, u64, u64, u64)> = all
            .iter()
            .map(|b| {
                let f = |i: usize| u64::from_le_bytes(b[i * 8..(i + 1) * 8].try_into().unwrap());
                (f(0), f(1), f(2), f(3))
            })
            .collect();
        print_result(my_wire(), world.size(), skew_x10, algo, &m, &results, iters);
    }
    world.fabric().oob_barrier();
}
