//! `kmer_sim`: the k-mer counting mini-app on 2 ranks x 1 worker over
//! the memcpy wire, every thread on the child's one core. An operation is one solve (`kmer::run_rank` on both
//! ranks); its time is the app's own `count_time`. Communication is a
//! minority of a solve, so this workload dilutes gains on purpose.

use crate::report::{Report, Timing};
use crate::stats;
use crate::sys;
use crate::trace::{Name, Probe, Recorder};
use kmer::{run_rank, serial_reference, KmerConfig, KmerResult, ReadSetConfig};
use lci_fabric::Fabric;
use lcw::{BackendKind, Platform, ResourceMode, WorldConfig};
use std::time::{Duration, Instant};

const NRANKS: usize = 2;
/// Solves whose times form one p50 sample.
const LAT_BLOCK: usize = 4;

/// About 6 ms per solve on the reference box, both ranks on the
/// child's one core. A solve cannot be cut into slices, so it has to be
/// short itself for some of a run's solves to be undisturbed: side by
/// side over eight seeds, solves four times this size spread 10 %
/// where these spread 4 %.
fn config(seed: u64) -> KmerConfig {
    KmerConfig {
        reads: ReadSetConfig {
            genome_len: 1_750,
            n_reads: 125,
            read_len: 100,
            error_rate: 0.01,
            seed,
        },
        k: 31,
        nthreads: 1,
        world: WorldConfig::new(BackendKind::Lci, Platform::Expanse, ResourceMode::Dedicated(1)),
        expected_distinct: 5_000,
        ..Default::default()
    }
}

/// `(k-mers a rank must send to the other, all k-mers)`: the routing of
/// `kmer::driver` replayed by the driver.
fn routing(cfg: &KmerConfig) -> (u64, u64) {
    let reads = kmer::generate_reads(&cfg.reads);
    let (mut remote, mut total) = (0u64, 0u64);
    for (idx, read) in reads.iter().enumerate() {
        let producer = idx % NRANKS;
        kmer::canonical_kmers(read, cfg.k, |code| {
            total += 1;
            let home = (kmer::kmer::kmer_hash(code) >> 32) as usize % NRANKS;
            remote += (home != producer) as u64;
        });
    }
    (remote, total)
}

/// The distributed histogram must equal the serial one wherever order
/// cannot matter. The count-1 bucket holds Bloom false positives, whose
/// membership depends on insert order (as `kmer`'s own tests note): a
/// few dozen k-mers here, so it only has to be of the same size.
fn agrees(dist: &KmerResult, serial: &KmerResult) -> bool {
    let (d1, s1) = (dist.histogram[1] as i64, serial.histogram[1] as i64);
    dist.histogram[2..] == serial.histogram[2..] && (d1 - s1).abs() <= 16 + s1 / 2
}

struct Solve {
    count_ms: f64,
    cpu_ms: f64,
    allocs: u64,
    ok: bool,
}

fn solve(cfg: KmerConfig, serial: &KmerResult) -> Result<Solve, String> {
    let (a0, c0) = (sys::alloc_calls(), sys::process_cpu_ns());
    let fabric = Fabric::new(NRANKS);
    let peer = {
        let fabric = fabric.clone();
        std::thread::spawn(move || run_rank(fabric, 1, cfg))
    };
    let r0 = run_rank(fabric, 0, cfg);
    let r1 = peer.join().map_err(|_| "rank 1 panicked".to_string())?;
    let count = r0.count_time.max(r1.count_time);
    Ok(Solve {
        count_ms: count.as_secs_f64() * 1e3,
        cpu_ms: (sys::process_cpu_ns() - c0) as f64 / 1e6,
        allocs: sys::alloc_calls() - a0,
        ok: r0.histogram == r1.histogram && r0.distinct > 0 && agrees(&r0, serial),
    })
}

/// Runs one child, born at `born`, for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool, born: Instant, rep: &mut Report) {
    let cfg = config(seed);
    let t = Instant::now();
    let serial = serial_reference(&cfg, NRANKS);
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;
    let (remote, total) = routing(&cfg);

    let mut rec = Recorder::new();
    let (mut count_ms, mut cpu_ms, mut allocs) = (Vec::new(), Vec::new(), 0u64);
    let budget = Duration::from_secs_f64(seconds * if trace { 0.9 } else { 0.95 });
    let start = Instant::now();
    // The first solve warms the allocator and page cache; it is checked
    // but not timed, and ends what `setup_s` times.
    let mut warm = true;
    while warm || count_ms.len() < LAT_BLOCK || start.elapsed() < budget {
        rep.attempted += 1;
        rec.op(rep.attempted);
        rec.enter(Name::Solve);
        let s = solve(cfg, &serial);
        rec.exit();
        let s = match s {
            Ok(s) => s,
            Err(e) => return rep.abort(e),
        };
        if !s.ok {
            rep.failed += 1;
            rep.errors.push(format!(
                "solve {}: histogram differs from the serial reference",
                rep.attempted
            ));
        }
        if std::mem::take(&mut warm) {
            rep.metric("setup_s", born.elapsed().as_secs_f64());
        } else {
            count_ms.push(s.count_ms);
            cpu_ms.push(s.cpu_ms);
            allocs += s.allocs;
        }
    }
    let solves = count_ms.len() as f64;
    let best_ms = stats::best(&count_ms);
    let blocks: Vec<f64> =
        count_ms.chunks_exact(LAT_BLOCK).map(|b| stats::median(&mut b.to_vec()) * 1e3).collect();
    if trace {
        rep.metric("kmer.posts_per_kmer", remote as f64 / total as f64);
        rep.metric("kmer.serial_ms", serial_ms);
        rep.metric("solve_ms", best_ms);
        rep.metric("allocs_per_op", allocs as f64 / solves);
        // One span per solve and nothing inside it: the driver sees no
        // call boundary below `run_rank`.
        rep.metric("trace.overhead_frac", 0.0);
        rep.metric("trace.self_gap_frac", rec.worst_self_gap());
        rep.trace = Some(rec.to_json());
    } else {
        rep.metric("op_rate", 1e3 / best_ms);
        // Each remote k-mer crosses the wire once per pass, 16 B each.
        let bytes = (remote * 2 * 16) as f64;
        rep.metric("goodput_mibps", bytes / (best_ms / 1e3) / (1 << 20) as f64);
        rep.metric("lat_p50_us", stats::best(&blocks));
        rep.metric("cpu_us_per_op", stats::best(&cpu_ms) * 1e3);
        rep.timing(Timing::new("solve_count_ms", "wall", count_ms));
        rep.timing(Timing::new("solve_process_ms", "process-cpu", cpu_ms));
        rep.timing(Timing::new("block_p50_solve_us", "wall", blocks));
    }
    rep.info("solves_per_latency_block", LAT_BLOCK);
    rep.info("kmers_per_solve", total);
    rep.info("remote_kmers_per_solve", remote);
}
