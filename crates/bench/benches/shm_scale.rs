//! Multi-process scaling over the real transports ("sim → wire"):
//! message rate and bandwidth at 2/4/8 *real OS processes* on the shm
//! segment **and** the tcp loopback mesh — the same workload on both
//! wires, so the shm-vs-tcp rows in EXPERIMENTS.md come from one run.
//!
//! The harness re-executes itself as the worker ranks (env rendezvous,
//! see `lci_fabric::bootstrap`). Ranks pair up as in Fig. 2: rank `i`
//! of the first half talks to rank `pairs + i`; each sender times its
//! own loop, the per-rank times are allgathered through the rendezvous,
//! and rank 0 prints the aggregated row.
//!
//! The third job is a windowed 4-process tcp stream, reporting message
//! rate plus the `writev` gather-fill counters (frames per syscall).
//!
//! Env knobs: `BENCH_SHM_RANKS` (comma list, default `2,4,8`),
//! `BENCH_ITERS`, `BENCH_BW_ITERS`, `BENCH_QUICK=1`, `LCI_TRANSPORT`
//! (pin the wire axis to `shm` or `tcp`).

use bench::env_usize;
use lcw::{BackendKind, Endpoint, Platform, ResourceMode, World, WorldConfig};
use std::ffi::OsString;
use std::time::{Duration, Instant};

const JOB_ENV: &str = "BENCH_SHM_JOB";
const JOB_TIMEOUT: Duration = Duration::from_secs(300);
const BW_SIZE: usize = 64 << 10;
const BW_WINDOW: usize = 8;

fn main() {
    let cfg = WorldConfig::new(BackendKind::Lci, Platform::ShmHost, ResourceMode::Shared);
    match World::from_env(cfg).expect("attach") {
        Some(world) => child(world),
        None => parent(),
    }
}

/// The wire axis: both real transports, or just the one `LCI_TRANSPORT`
/// pins (the env var doubles as the launcher's rendezvous selector).
fn wire_sweep() -> Vec<&'static str> {
    match std::env::var(lci_fabric::bootstrap::ENV_TRANSPORT).ok().as_deref() {
        Some("tcp") => vec!["tcp"],
        Some(_) => vec!["shm"],
        None => vec!["shm", "tcp"],
    }
}

/// The wire this child landed on (the launcher exports the selector to
/// tcp children; absence means the shm segment).
fn my_wire() -> &'static str {
    match std::env::var(lci_fabric::bootstrap::ENV_TRANSPORT).ok().as_deref() {
        Some("tcp") => "tcp",
        _ => "shm",
    }
}

fn rank_sweep() -> Vec<usize> {
    if bench::quick() {
        return vec![2];
    }
    std::env::var("BENCH_SHM_RANKS")
        .unwrap_or_else(|_| "2,4,8".into())
        .split(',')
        .filter_map(|v| v.trim().parse().ok())
        .filter(|&n: &usize| n >= 2 && n % 2 == 0)
        .collect()
}

fn parent() {
    let iters = bench::iters();
    let bw_iters = if bench::quick() { 5 } else { env_usize("BENCH_BW_ITERS", 40) };
    println!("# shm_scale: real multi-process shared-memory transport");
    println!(
        "# pairs = processes/2; msgrate: 8 B ping-pong x{iters}; \
         bandwidth: {BW_SIZE} B send-receive, window={BW_WINDOW}, x{bw_iters}"
    );
    let args: Vec<OsString> = Vec::new();
    let wires = wire_sweep();
    for job in ["msgrate", "bandwidth"] {
        let metric = if job == "msgrate" { "Mmsg/s" } else { "MiB/s" };
        bench::print_header(
            &format!("shm_scale {job}"),
            &["procs", "pairs", "wire", "lib", metric],
        );
        for &wire in &wires {
            for nranks in rank_sweep() {
                std::env::set_var(lci_fabric::bootstrap::ENV_TRANSPORT, wire);
                std::env::set_var(JOB_ENV, job); // children inherit our env
                let report = World::spawn_local(nranks, &args, JOB_TIMEOUT).expect("spawn");
                assert!(
                    report.all_ok(),
                    "{job} on {wire} at {nranks} procs: exits {:?}",
                    report.exit_codes
                );
            }
        }
    }
    // The syscall shape of a 4-process tcp stream: how many frames each
    // `writev` gathers when posts outrun the progress path.
    if wires.contains(&"tcp") {
        let stream_iters =
            if bench::quick() { 2_000 } else { env_usize("BENCH_STREAM_ITERS", 50_000) };
        println!("# tcp stream: one-way 8 B stream x{stream_iters}/pair, window={STREAM_WINDOW}");
        bench::print_header(
            "shm_scale tcp_stream",
            &["procs", "pairs", "Mmsg/s", "writevs", "frames", "avg_fill"],
        );
        std::env::set_var(lci_fabric::bootstrap::ENV_TRANSPORT, "tcp");
        std::env::set_var(JOB_ENV, "stream");
        let report = World::spawn_local(4, &args, JOB_TIMEOUT).expect("spawn");
        assert!(report.all_ok(), "stream: exits {:?}", report.exit_codes);
    }
    std::env::remove_var(JOB_ENV);
    std::env::remove_var(lci_fabric::bootstrap::ENV_TRANSPORT);
}

fn child(world: World) {
    let job = std::env::var(JOB_ENV).expect("child without a job");
    match job.as_str() {
        "msgrate" => msgrate(world),
        "bandwidth" => bandwidth(world),
        "stream" => stream(world),
        other => panic!("unknown shm_scale job {other:?}"),
    }
}

/// Pings cross from the first half of the ranks to the second and pong
/// straight back; the aggregate unidirectional rate is the sum of the
/// per-pair rates (same accounting as Fig. 2).
fn msgrate(world: World) {
    let iters = bench::iters();
    let pairs = world.size() / 2;
    let rank = world.rank();
    let mut ep = world.endpoint(0);
    let payload = [0u8; 8];
    world.fabric().oob_barrier();
    let t0 = Instant::now();
    if rank < pairs {
        let peer = pairs + rank;
        for _ in 0..iters {
            while !ep.send_am(peer, &payload, 0) {
                ep.progress();
            }
            recv_one(&mut ep);
        }
    } else {
        let peer = rank - pairs;
        for _ in 0..iters {
            recv_one(&mut ep);
            while !ep.send_am(peer, &payload, 0) {
                ep.progress();
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    report(&world, &mut ep, ns, |per_pair_ns| {
        let rate: f64 = per_pair_ns.iter().map(|&ns| iters as f64 / (ns as f64 / 1e9)).sum();
        format!("{:.4}", rate / 1e6)
    });
}

/// Windowed unidirectional send-receive streams per pair, 64 KiB
/// messages (the rendezvous path: every chunk spills through the
/// segment), credit-gated like the Fig. 4 workload.
fn bandwidth(world: World) {
    let iters = if bench::quick() { 5 } else { env_usize("BENCH_BW_ITERS", 40) };
    let pairs = world.size() / 2;
    let rank = world.rank();
    let mut ep = world.endpoint(0);
    world.fabric().oob_barrier();
    let t0 = Instant::now();
    if rank < pairs {
        let peer = pairs + rank;
        let payload = vec![0x6Bu8; BW_SIZE];
        for _ in 0..iters {
            for w in 0..BW_WINDOW {
                while !ep.send(peer, &payload, w as u32) {
                    ep.progress();
                }
            }
            let tok = ep.post_recv(peer, 0xF000, 8);
            while ep.test_recv(&tok).is_none() {
                ep.progress();
                std::thread::yield_now();
            }
        }
    } else {
        let peer = rank - pairs;
        for _ in 0..iters {
            let toks: Vec<_> =
                (0..BW_WINDOW).map(|w| ep.post_recv(peer, w as u32, BW_SIZE)).collect();
            for tok in &toks {
                while ep.test_recv(tok).is_none() {
                    ep.progress();
                    std::thread::yield_now();
                }
            }
            while !ep.send(peer, &[1u8], 0xF000) {
                ep.progress();
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let bytes_per_pair = (iters * BW_WINDOW * BW_SIZE) as f64;
    report(&world, &mut ep, ns, |per_pair_ns| {
        let bw: f64 = per_pair_ns
            .iter()
            .map(|&ns| bytes_per_pair / (ns as f64 / 1e9) / (1024.0 * 1024.0))
            .sum();
        format!("{bw:.1}")
    });
}

const STREAM_WINDOW: usize = 256;

/// One-way windowed small-message stream (the syscall-amortization
/// workload): senders burst `STREAM_WINDOW` messages — so frames pile
/// up in the per-peer send queue between progress calls — then wait for
/// one credit ack. Reports the aggregate rate plus this rank's `writev`
/// counters.
fn stream(world: World) {
    let iters = if bench::quick() { 2_000 } else { env_usize("BENCH_STREAM_ITERS", 50_000) };
    let pairs = world.size() / 2;
    let rank = world.rank();
    let mut ep = world.endpoint(0);
    let payload = [0u8; 8];
    world.fabric().oob_barrier();
    let t0 = Instant::now();
    if rank < pairs {
        let peer = pairs + rank;
        let mut sent = 0usize;
        while sent < iters {
            let burst = STREAM_WINDOW.min(iters - sent);
            for _ in 0..burst {
                while !ep.send_am(peer, &payload, 3) {
                    ep.progress();
                }
            }
            sent += burst;
            recv_one(&mut ep); // credit ack
        }
    } else {
        let peer = rank - pairs;
        let mut got = 0usize;
        while got < iters {
            recv_one(&mut ep);
            got += 1;
            if got.is_multiple_of(STREAM_WINDOW) || got == iters {
                while !ep.send_am(peer, &[1], 4) {
                    ep.progress();
                }
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    // Drain (flushing any still-queued frames) *before* blocking in the
    // OOB collective: an unflushed final ack would strand the peer.
    ep.quiesce(Duration::from_secs(30)).expect("drain");
    let stats = ep.lci_device().expect("lci").stats();
    let all = world.fabric().oob_allgather(world.rank(), ns.to_le_bytes().to_vec());
    if world.rank() == 0 {
        let per_pair: Vec<u64> =
            all[..pairs].iter().map(|b| u64::from_le_bytes(b[..8].try_into().unwrap())).collect();
        let rate: f64 = per_pair.iter().map(|&ns| iters as f64 / (ns as f64 / 1e9)).sum();
        bench::print_row(&[
            world.size().to_string(),
            pairs.to_string(),
            format!("{:.4}", rate / 1e6),
            stats.tcp_writev_calls.to_string(),
            stats.tcp_writev_frames.to_string(),
            format!("{:.2}", stats.avg_writev_fill()),
        ]);
    }
    world.fabric().oob_barrier();
}

fn recv_one(ep: &mut Endpoint) {
    loop {
        ep.progress();
        if ep.poll_msg().is_some() {
            return;
        }
        // Processes share cores on this box: hand the timeslice to the
        // peer instead of burning it polling an empty ring.
        std::thread::yield_now();
    }
}

/// Allgathers the per-rank elapsed times and has rank 0 print the row
/// from the *senders'* clocks; every rank then drains cleanly.
fn report(world: &World, ep: &mut Endpoint, my_ns: u64, row: impl Fn(&[u64]) -> String) {
    // Drain before blocking in the OOB collective: over tcp the final
    // message of the timed loop may still sit in a send queue that only
    // progress calls flush, and the peer cannot finish without it.
    ep.quiesce(Duration::from_secs(30)).expect("drain");
    let all = world.fabric().oob_allgather(world.rank(), my_ns.to_le_bytes().to_vec());
    if world.rank() == 0 {
        let pairs = world.size() / 2;
        let per_pair: Vec<u64> =
            all[..pairs].iter().map(|b| u64::from_le_bytes(b[..8].try_into().unwrap())).collect();
        bench::print_row(&[
            world.size().to_string(),
            pairs.to_string(),
            my_wire().to_string(),
            "lci".to_string(),
            row(&per_pair),
        ]);
    }
    world.fabric().oob_barrier();
}
