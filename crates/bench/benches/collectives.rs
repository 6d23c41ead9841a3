//! Chunk-pipelined collectives vs the `lci::coll::naive` baselines.
//!
//! Sweeps message size × rank count × transport for the two
//! bandwidth-bound collectives rebuilt in this series: ring allreduce
//! (reduce-scatter + allgather, 2(n-1)/n bytes per rank) and
//! bounded-inflight pairwise alltoall. The `naive` rows re-run the same
//! shapes on the same world through `lci::coll::naive` — the
//! store-and-forward reference implementations (whole-buffer clones,
//! one send in flight, per-send completion barriers) the pipelined
//! engines are judged against.
//!
//! Transports: the in-process `sim-ibv` (Expanse) and `sim-ofi`
//! (Delta) NIC models thread-per-rank, plus the real multi-process
//! shared-memory transport (`shm`) via self-re-execution (same
//! rendezvous as `shm_scale`).
//!
//! Metrics: goodput in MiB/s (application payload bytes per rank per
//! second — `size` for allreduce, `size × nranks` for alltoall) and
//! `hwm`, the `coll_chunks_inflight_hwm` device counter proving that
//! the pipeline really keeps >1 chunk outstanding (naive rows pin it
//! at ≤1 by construction).
//!
//! Env knobs: `BENCH_QUICK=1`, `BENCH_COLL_SIZES` (comma list of
//! bytes), `BENCH_COLL_RANKS` (comma list), `BENCH_COLL_ITERS`.
//!
//! Honest caveat (also in EXPERIMENTS.md): on a single host the
//! "network" is memcpy through shared memory, so the ring's byte-volume
//! advantage shows up as reduced copying and pipelining overlap, not
//! wire-level bandwidth; absolute MiB/s says nothing about a cluster.

use bench::env_usize;
use lcw::{BackendKind, Platform, ResourceMode, World, WorldConfig};
use std::ffi::OsString;
use std::sync::Arc;
use std::time::{Duration, Instant};

const JOB_ENV: &str = "BENCH_COLL_JOB";
const JOB_TIMEOUT: Duration = Duration::from_secs(300);

fn main() {
    match World::from_env(cfg(Platform::ShmHost)).expect("attach") {
        Some(world) => child(world),
        None => parent(),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Allreduce,
    Alltoall,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Allreduce => "allreduce",
            Op::Alltoall => "alltoall",
        }
    }
    /// Application payload bytes a rank contributes per operation.
    fn payload(self, size: usize, nranks: usize) -> usize {
        match self {
            Op::Allreduce => size,
            Op::Alltoall => size * nranks,
        }
    }
}

fn sizes() -> Vec<usize> {
    if let Ok(v) = std::env::var("BENCH_COLL_SIZES") {
        return v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
    }
    if bench::quick() {
        vec![4 << 10, 256 << 10]
    } else {
        vec![4 << 10, 64 << 10, 256 << 10, 1 << 20]
    }
}

fn ranks() -> Vec<usize> {
    if let Ok(v) = std::env::var("BENCH_COLL_RANKS") {
        return v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
    }
    if bench::quick() {
        vec![4]
    } else {
        vec![4, 8]
    }
}

fn iters_for(size: usize) -> usize {
    let base = env_usize("BENCH_COLL_ITERS", if bench::quick() { 5 } else { 30 });
    (base * (64 << 10) / size.max(64 << 10)).max(5)
}

fn cfg(platform: Platform) -> WorldConfig {
    WorldConfig::new(BackendKind::Lci, platform, ResourceMode::Shared)
}

fn parent() {
    println!("# collectives: chunk-pipelined ring/pairwise vs the coll::naive baselines");
    println!("# goodput = payload bytes per rank / wall time; hwm = coll_chunks_inflight_hwm");
    for op in [Op::Allreduce, Op::Alltoall] {
        bench::print_header(
            &format!("coll {}", op.name()),
            &["transport", "ranks", "size_B", "algo", "MiB/s", "hwm"],
        );
        for nranks in ranks() {
            for &size in &sizes() {
                for (tname, platform) in
                    [("sim-ibv", Platform::Expanse), ("sim-ofi", Platform::Delta)]
                {
                    for naive in [false, true] {
                        let (mibs, hwm) = run_threaded(platform, nranks, size, op, naive);
                        print_result(tname, nranks, size, naive, mibs, hwm);
                    }
                }
                for naive in [false, true] {
                    run_shm(nranks, size, op, naive);
                }
            }
        }
    }
}

/// Thread-per-rank over an in-process sim transport: every rank thread
/// owns a `World` on the shared fabric and loops the collective; rank 0
/// reports its own wall time (a trailing barrier closes the timing
/// region on all ranks).
fn run_threaded(platform: Platform, nranks: usize, size: usize, op: Op, naive: bool) -> (f64, u64) {
    let iters = iters_for(size);
    let fabric = lci_fabric::Fabric::new(nranks);
    let handles: Vec<_> = (0..nranks)
        .map(|r| {
            let fabric = fabric.clone();
            let wcfg = cfg(platform);
            std::thread::Builder::new()
                .name(format!("coll-r{r}"))
                .spawn(move || {
                    let world = World::new(fabric, r, wcfg);
                    bench_loop(&world, size, op, naive, iters)
                })
                .expect("spawn rank")
        })
        .collect();
    let results: Vec<(u64, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    summarize(results, size, op, nranks, iters)
}

/// One rank's timed loop; returns (elapsed ns, inflight high-water mark).
fn bench_loop(world: &World, size: usize, op: Op, naive: bool, iters: usize) -> (u64, u64) {
    let rt = world.lci_runtime().expect("lci backend");
    let nranks = world.size();
    world.fabric().oob_barrier();
    // Warm-up: touch the staging shelf, pools, and match tables.
    run_op(rt, size, op, naive, nranks);
    world.barrier().expect("warmup barrier");
    let before = rt.device().stats();
    let t0 = Instant::now();
    for _ in 0..iters {
        run_op(rt, size, op, naive, nranks);
    }
    world.barrier().expect("closing barrier");
    let ns = t0.elapsed().as_nanos() as u64;
    let stats = rt.device().stats().since(&before);
    (ns, stats.coll_chunks_inflight_hwm)
}

fn run_op(rt: &lci::Runtime, size: usize, op: Op, naive: bool, nranks: usize) {
    use lci::coll;
    match op {
        Op::Allreduce => {
            let mut buf = vec![1u8; size];
            if naive {
                coll::naive::allreduce(rt, &mut buf, &lci::SumU64)
            } else {
                coll::allreduce(rt, &mut buf, &lci::SumU64)
            }
            .expect("allreduce");
        }
        Op::Alltoall => {
            let send = vec![2u8; size * nranks];
            let mut recv = vec![0u8; size * nranks];
            if naive {
                coll::naive::alltoall_bytes(rt, &send, &mut recv)
            } else {
                coll::alltoall_bytes(rt, &send, &mut recv)
            }
            .expect("alltoall");
        }
    }
}

fn summarize(
    results: Vec<(u64, u64)>,
    size: usize,
    op: Op,
    nranks: usize,
    iters: usize,
) -> (f64, u64) {
    let ns = results[0].0;
    let hwm = results.iter().map(|r| r.1).max().unwrap_or(0);
    let bytes = (op.payload(size, nranks) * iters) as f64;
    (bytes / (ns as f64 / 1e9) / (1 << 20) as f64, hwm)
}

fn print_result(tname: &str, nranks: usize, size: usize, naive: bool, mibs: f64, hwm: u64) {
    bench::print_row(&[
        tname.to_string(),
        nranks.to_string(),
        size.to_string(),
        if naive { "naive" } else { "pipelined" }.to_string(),
        format!("{mibs:.1}"),
        hwm.to_string(),
    ]);
}

/// Real multi-process run over the shm transport: re-executes this
/// binary as the worker ranks (parameters ride the environment, which
/// the children inherit).
fn run_shm(nranks: usize, size: usize, op: Op, naive: bool) {
    std::env::set_var(JOB_ENV, format!("{}:{size}", op.name()));
    if naive {
        std::env::set_var("BENCH_COLL_NAIVE", "1");
    } else {
        std::env::remove_var("BENCH_COLL_NAIVE");
    }
    let args: Vec<OsString> = Vec::new();
    let report = World::spawn_local(nranks, &args, JOB_TIMEOUT).expect("spawn shm ranks");
    assert!(
        report.all_ok(),
        "shm {} size {size} naive={naive}: exits {:?}",
        op.name(),
        report.exit_codes
    );
    std::env::remove_var(JOB_ENV);
    std::env::remove_var("BENCH_COLL_NAIVE");
}

/// Worker-rank side of the shm job: run the loop and let rank 0 print
/// the row (the parent's stdout is inherited).
fn child(world: World) {
    let job = std::env::var(JOB_ENV).expect("child without a job");
    let (opname, size) = job.split_once(':').expect("job format");
    let op = match opname {
        "allreduce" => Op::Allreduce,
        "alltoall" => Op::Alltoall,
        other => panic!("unknown coll job {other:?}"),
    };
    let size: usize = size.parse().expect("job size");
    let naive = std::env::var("BENCH_COLL_NAIVE").is_ok();
    let world = Arc::new(world);
    let iters = iters_for(size);
    let (ns, my_hwm) = bench_loop(&world, size, op, naive, iters);
    // Collect the high-water mark over ranks through the OOB channel.
    let all = world.fabric().oob_allgather(world.rank(), my_hwm.to_le_bytes().to_vec());
    if world.rank() == 0 {
        let hwm =
            all.iter().map(|b| u64::from_le_bytes(b[..8].try_into().unwrap())).max().unwrap_or(0);
        let bytes = (op.payload(size, world.size()) * iters) as f64;
        let mibs = bytes / (ns as f64 / 1e9) / (1 << 20) as f64;
        print_result("shm", world.size(), size, naive, mibs, hwm);
    }
    world.fabric().oob_barrier();
}
