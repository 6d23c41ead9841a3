//! Thread-per-core scale matrix: the 8→128-thread sweep (paper §5
//! scale, Fig 3/Fig 5 shape) with placement-counter evidence.
//!
//! Sweeps `BENCH_MATRIX_THREADS` (default `8,16,32,64,128`; quick mode
//! `2,4`) worker threads per rank over every transport — both simulated
//! platforms and shm — measuring message rate (8 B ping-pong) and
//! bandwidth (64 KiB windowed streams) in shared-resource mode, where
//! all workers funnel through one device and the per-core pool stripes
//! carry the contention. Each cell runs twice: `lci` with the default
//! thread-per-core placement, and `lci-nopl` with a one-core
//! [`lci::Placement`] — the core-oblivious single-stripe baseline.
//!
//! Counter columns (LCI stats deltas over the timed section, rank 0):
//! `local%` — owner-local buffer-pool hit rate
//! (`buf_pool_local_hits / (local_hits + steals)`); `steals` —
//! cross-core shelf steals; `contended` — matching-engine bucket-lock
//! try-lock failures; `useful%` — useful-poll rate.
//!
//! Per-thread iterations shrink as the thread axis grows
//! (`max(50, BENCH_ITERS / threads)`) so the total message count stays
//! roughly flat across the matrix.

use bench::{
    bandwidth_thread_based_stats, env_usize, iters, matrix_thread_sweep,
    msgrate_thread_based_stats, platform_name, platform_sweep, print_header, print_row,
};
use lcw::{BackendKind, Platform, ResourceMode, WorldConfig};

const BW_SIZE: usize = 64 << 10;

fn counter_cells(stats: &Option<lci::StatsSnapshot>) -> [String; 4] {
    match stats {
        Some(s) => {
            let looked = s.buf_pool_local_hits + s.buf_pool_steals;
            let local = if looked == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", 100.0 * s.buf_pool_local_hits as f64 / looked as f64)
            };
            [
                local,
                s.buf_pool_steals.to_string(),
                s.matching_contended.to_string(),
                format!("{:.1}", 100.0 * s.useful_poll_rate()),
            ]
        }
        None => ["-".into(), "-".into(), "-".into(), "-".into()],
    }
}

/// The two placement variants per cell. `lci` forces the core map to
/// the thread count — emulating a `t`-core node with one pinned worker
/// per core, the paper's configuration — so the per-core layout is
/// exercised for real even on a small host. `lci-nopl` is the
/// core-oblivious single-stripe layout.
fn variants(threads: usize) -> [(&'static str, lci::Placement); 2] {
    [
        ("lci", lci::Placement::default().with_cores(threads)),
        ("lci-nopl", lci::Placement::default().with_cores(1)),
    ]
}

fn matrix_platforms() -> Vec<Platform> {
    match Platform::selected() {
        Some(p) => vec![p],
        // The two sims plus the in-process real transports (shm rings,
        // tcp loopback sockets); the multi-process matrix lives in
        // `shm_scale`.
        None => {
            let mut v = platform_sweep();
            v.push(Platform::ShmHost);
            v.push(Platform::TcpHost);
            v
        }
    }
}

fn main() {
    let sweep = matrix_thread_sweep();
    let base_iters = iters();
    let ncores = lci::topology::ncores();
    println!("# Scale matrix: thread sweep with thread-per-core placement counters");
    println!("# paper: up to 128 threads on 128-core nodes; here: {sweep:?} threads");
    println!(
        "# host: {ncores} core(s); runs above {ncores} threads are oversubscribed \
         (threads timeslice, rates are not hardware-parallel)"
    );
    println!("# per-thread iters: max(50, {base_iters}/threads); bw window 8 x {BW_SIZE} B");

    let cols = ["threads", "lib", "Mmsg/s", "local%", "steals", "contended", "useful%"];
    let bw_cols = ["threads", "lib", "MiB/s", "local%", "steals", "contended", "useful%"];

    for platform in matrix_platforms() {
        // 8 B inject-path message rate (the Fig 3 workload at matrix
        // scale). Inline payloads skip the buffer pool, so the pool
        // columns stay dark here; the bandwidth section lights them up.
        print_header(&format!("Matrix msgrate {}", platform_name(platform)), &cols);
        for &t in &sweep {
            let it = (base_iters / t).max(env_usize("BENCH_MATRIX_MIN_ITERS", 50));
            for (label, placement) in variants(t) {
                let cfg = WorldConfig::new(BackendKind::Lci, platform, ResourceMode::Shared)
                    .with_placement(placement);
                let (rate, stats) = msgrate_thread_based_stats(cfg, t, it, 8);
                let c = counter_cells(&stats);
                print_row(&[
                    t.to_string(),
                    label.to_string(),
                    format!("{rate:.4}"),
                    c[0].clone(),
                    c[1].clone(),
                    c[2].clone(),
                    c[3].clone(),
                ]);
            }
        }

        print_header(&format!("Matrix bandwidth {}", platform_name(platform)), &bw_cols);
        for &t in &sweep {
            let it = (base_iters / (t * 8)).max(env_usize("BENCH_MATRIX_MIN_ITERS", 50) / 8).max(4);
            for (label, placement) in variants(t) {
                let cfg = WorldConfig::new(BackendKind::Lci, platform, ResourceMode::Shared)
                    .with_placement(placement);
                let (bw, stats) = bandwidth_thread_based_stats(cfg, t, BW_SIZE, it);
                let c = counter_cells(&stats);
                print_row(&[
                    t.to_string(),
                    label.to_string(),
                    format!("{bw:.1}"),
                    c[0].clone(),
                    c[1].clone(),
                    c[2].clone(),
                    c[3].clone(),
                ]);
            }
        }
    }
}
