//! `coll_shm`: one rank thread per rank, blocking `lcw::World`
//! collectives. A step is one MoE layer plus gradient sync: a seeded
//! Zipf gate decides how many tokens go to each rank, then
//! `exchange_counts`, `alltoallv` dispatch, `alltoallv` combine and a
//! 1 MiB `allreduce(SumU64)`. The rank threads take turns on the
//! child's one core (a blocked collective yields), and slices are timed
//! from rank 0 on the wall clock and on the process's CPU clock.

use crate::gen::{self, Rng, Zipf};
use crate::report::{Report, Timing};
use crate::stats;
use crate::sys;
use crate::trace::{Name, NoTrace, Probe, Recorder};
use lci::StatsSnapshot;
use lci_fabric::Fabric;
use lcw::{BackendKind, Platform, ResourceMode, World, WorldConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKENS: usize = 4096;
const TOKEN_BYTES: usize = 64;
const EXPERTS_PER_RANK: usize = 8;
const ZIPF_SKEW: f64 = 1.2;
/// Experts one rank's batch activates in one step.
const ACTIVE_EXPERTS: usize = 4;
const ALLREDUCE_BYTES: usize = 1 << 20;
/// Every slice runs the same five seeded steps, so slices do equal work.
const STEPS_PER_SLICE: usize = 5;
/// Steps whose latencies form one p50 sample.
const LAT_BLOCK: usize = 50;
/// One rank's part in one scheduled step.
struct StepIn {
    send: Vec<u8>,
    send_counts: Vec<usize>,
    /// What dispatch must deliver here: the other ranks' blocks, by source.
    expect: Vec<u8>,
    expect_counts: Vec<usize>,
}

struct RankIn {
    steps: Vec<StepIn>,
    allreduce_init: Vec<u8>,
    /// Element-wise sum of every rank's initial allreduce buffer.
    allreduce_sum: Arc<Vec<u64>>,
}

/// Everything `--seed` decides, for every rank, built before any timing.
fn inputs(nranks: usize, seed: u64) -> Vec<RankIn> {
    let mut rng = Rng::new(seed);
    let gate = Zipf::new(nranks * EXPERTS_PER_RANK, ZIPF_SKEW, &mut rng);
    let mut ranks: Vec<Vec<StepIn>> = (0..nranks).map(|_| Vec::new()).collect();
    for step in 0..STEPS_PER_SLICE {
        let mut sends = Vec::new();
        for rank in 0..nranks {
            // Top-k activation: a batch touches a few experts, the hot
            // ones more often, and spreads its tokens over them. A rank
            // owning none of them is a cold pair the exchange skips. No
            // rank may own more than half of them (the load-balancing
            // rule of MoE training), which on two ranks fixes the remote
            // share of the traffic, so that the seed shapes the matrix
            // without deciding how much work a step is.
            let mut active: Vec<usize> = Vec::new();
            while active.len() < ACTIVE_EXPERTS {
                let e = gate.pick(&mut rng);
                let owner = |x: &usize| x / EXPERTS_PER_RANK;
                let same = active.iter().filter(|a| owner(a) == owner(&e)).count();
                if !active.contains(&e) && same < ACTIVE_EXPERTS / 2 {
                    active.push(e);
                }
            }
            let mut counts = vec![0usize; nranks];
            for _ in 0..TOKENS {
                counts[active[rng.below(ACTIVE_EXPERTS)] / EXPERTS_PER_RANK] += TOKEN_BYTES;
            }
            let mut send = vec![0u8; TOKENS * TOKEN_BYTES];
            gen::fill_pattern(&mut send, seed, (step * nranks + rank) as u64 + 1);
            sends.push((send, counts));
        }
        for rank in 0..nranks {
            let mut expect = Vec::new();
            let mut expect_counts = Vec::new();
            for (send, counts) in &sends {
                let off: usize = counts[..rank].iter().sum();
                expect.extend_from_slice(&send[off..off + counts[rank]]);
                expect_counts.push(counts[rank]);
            }
            let (send, send_counts) = (sends[rank].0.clone(), sends[rank].1.clone());
            ranks[rank].push(StepIn { send, send_counts, expect, expect_counts });
        }
    }
    let elems = ALLREDUCE_BYTES / 8;
    let init = |rank: usize, i: usize| gen::mix(seed, (rank as u64) << 32 | i as u64);
    let sum: Arc<Vec<u64>> = Arc::new(
        (0..elems).map(|i| (0..nranks).fold(0u64, |acc, r| acc.wrapping_add(init(r, i)))).collect(),
    );
    ranks
        .into_iter()
        .enumerate()
        .map(|(rank, steps)| RankIn {
            steps,
            allreduce_init: (0..elems).flat_map(|i| init(rank, i).to_le_bytes()).collect(),
            allreduce_sum: sum.clone(),
        })
        .collect()
}

/// Payload bytes one step moves: the token matrix out and back, and
/// every rank's allreduce vector.
fn bytes_per_step(ranks: &[RankIn]) -> f64 {
    let matrix: usize = ranks
        .iter()
        .flat_map(|r| r.steps.iter())
        .map(|s| s.send_counts.iter().sum::<usize>())
        .sum();
    (2 * matrix) as f64 / STEPS_PER_SLICE as f64 + (ranks.len() * ALLREDUCE_BYTES) as f64
}

/// How long each phase runs. The warm-up is fixed work, because it is
/// part of what `setup_s` times.
#[derive(Clone, Copy)]
struct Plan {
    warm_slices: usize,
    plain: Duration,
    traced: Option<Duration>,
    min_slices: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warm,
    Plain,
    Traced,
    Done,
}

#[derive(Default)]
struct RankOut {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// `Device::stats()` delta over the untraced slices.
    stats: StatsSnapshot,
    plain_steps: u64,
    /// When the warm-up ended.
    warm_done: Option<Instant>,
    // Rank 0 only.
    wall_us_per_step: Vec<f64>,
    cpu_us_per_step: Vec<f64>,
    traced_us_per_step: Vec<f64>,
    step_us: Vec<f64>,
    allocs: u64,
    rec: Option<Recorder>,
}

fn connect(fabric: Arc<Fabric>, rank: usize) -> Result<World, String> {
    let cfg = WorldConfig::new(BackendKind::Lci, Platform::ShmHost, ResourceMode::Shared);
    let world = World::new(fabric, rank, cfg);
    world.barrier().map_err(|e| e.to_string())?;
    Ok(world)
}

struct Rank<'a> {
    world: &'a World,
    inp: &'a RankIn,
    recv_counts: Vec<usize>,
    recv: Vec<u8>,
    back: Vec<u8>,
    allreduce: Vec<u8>,
    /// Allreduces since the last reset: element `i` now holds
    /// `sum[i] * n^(k-1)`.
    k: u32,
    out: RankOut,
}

impl Rank<'_> {
    fn fail(&mut self, what: String) {
        self.out.failed += 1;
        if self.out.errors.len() < 5 {
            self.out.errors.push(what);
        }
    }

    fn step(&mut self, idx: usize, probe: &mut impl Probe, full: bool) -> Result<(), String> {
        let s = &self.inp.steps[idx];
        let err = |e: lci::FatalError| e.to_string();
        self.out.attempted += 1;
        probe.op(self.out.attempted);
        probe.enter(Name::Step);
        probe.enter(Name::ExchangeCounts);
        let r = self.world.exchange_counts(&s.send_counts, &mut self.recv_counts);
        probe.exit();
        r.map_err(err)?;
        let inbound: usize = self.recv_counts.iter().sum();
        if inbound > self.recv.len() {
            probe.exit();
            return Err(format!("count exchange announced {inbound} bytes"));
        }
        probe.enter(Name::A2avDispatch);
        let r = self.world.alltoallv(
            &s.send,
            &s.send_counts,
            &mut self.recv[..inbound],
            &self.recv_counts,
        );
        probe.exit();
        r.map_err(err)?;
        probe.enter(Name::A2avCombine);
        let r = self.world.alltoallv(
            &self.recv[..inbound],
            &self.recv_counts,
            &mut self.back,
            &s.send_counts,
        );
        probe.exit();
        r.map_err(err)?;
        probe.enter(Name::Allreduce);
        let r = self.world.allreduce(&mut self.allreduce, &lci::SumU64);
        probe.exit();
        probe.exit();
        r.map_err(err)?;
        self.k += 1;
        self.check(idx, inbound, full);
        Ok(())
    }

    /// Compares the step's outputs with the reference: all of them when
    /// `full`, else the counts and the edges of each buffer.
    fn check(&mut self, idx: usize, inbound: usize, full: bool) {
        let s = &self.inp.steps[idx];
        let n = self.world.size() as u64;
        let scale = n.wrapping_pow(self.k - 1);
        let elem = |buf: &[u8], i: usize| {
            u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
        };
        let elems = ALLREDUCE_BYTES / 8;
        let edge = |a: &[u8], b: &[u8]| {
            let e = a.len().min(8);
            a.len() == b.len() && a[..e] == b[..e] && a[a.len() - e..] == b[b.len() - e..]
        };
        let mut bad = Vec::new();
        if self.recv_counts != s.expect_counts {
            bad.push("exchange_counts");
        }
        let (got, back) = (&self.recv[..inbound], &self.back[..]);
        if if full { got != &s.expect[..] } else { !edge(got, &s.expect) } {
            bad.push("alltoallv dispatch");
        }
        if if full { back != &s.send[..] } else { !edge(back, &s.send) } {
            bad.push("alltoallv combine");
        }
        let probe_at = self.out.attempted as usize % elems;
        let ok =
            |i: usize| elem(&self.allreduce, i) == self.inp.allreduce_sum[i].wrapping_mul(scale);
        if if full { !(0..elems).all(ok) } else { !ok(probe_at) } {
            bad.push("allreduce");
        }
        for what in bad {
            self.fail(format!("step {}: {what} differs from the reference", self.out.attempted));
        }
    }

    /// Restores the allreduce vector, outside the slice's timing: summed
    /// in place it doubles every step and would reach all zeros, which
    /// any reference matches.
    fn reset(&mut self) {
        self.allreduce.copy_from_slice(&self.inp.allreduce_init);
        self.k = 0;
    }

    fn slice(
        &mut self,
        probe: &mut impl Probe,
        full: bool,
        lat: Option<&mut Vec<f64>>,
    ) -> Result<(), String> {
        let mut lat = lat;
        for idx in 0..STEPS_PER_SLICE {
            let t = Instant::now();
            self.step(idx, probe, full)?;
            if let Some(l) = lat.as_deref_mut() {
                l.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        Ok(())
    }

    /// Rank 0 announces whether the next slice starts a new phase; the
    /// 8-byte allreduce doubles as the per-slice rendezvous.
    fn agree(&self, advance: bool) -> Result<bool, String> {
        let mut flag = (advance as u64).to_le_bytes();
        self.world.allreduce(&mut flag, &lci::SumU64).map_err(|e| e.to_string())?;
        Ok(u64::from_le_bytes(flag) > 0)
    }
}

fn next(phase: Phase, plan: &Plan) -> Phase {
    match phase {
        Phase::Warm => Phase::Plain,
        Phase::Plain if plan.traced.is_some() => Phase::Traced,
        _ => Phase::Done,
    }
}

fn rank_main(world: &World, inp: &RankIn, plan: Plan) -> RankOut {
    let rank0 = world.rank() == 0;
    let mut r = Rank {
        world,
        inp,
        recv_counts: vec![0; world.size()],
        recv: vec![0u8; world.size() * TOKENS * TOKEN_BYTES],
        back: vec![0u8; TOKENS * TOKEN_BYTES],
        allreduce: inp.allreduce_init.clone(),
        k: 0,
        out: RankOut::default(),
    };
    let stats = |w: &World| w.lci_runtime().expect("lci backend").device().stats();
    let mut rec = Recorder::new();
    let mut phase = Phase::Warm;
    let mut phase_start = Instant::now();
    let mut slices = 0usize;
    let mut before = stats(world);
    // Room for every sample of a 60 s run, so the timed slices never
    // grow a vector.
    let mut lat = Vec::with_capacity(1 << 18);
    r.out.wall_us_per_step.reserve(1 << 16);
    r.out.cpu_us_per_step.reserve(1 << 16);
    r.out.traced_us_per_step.reserve(1 << 16);
    let steps = STEPS_PER_SLICE as f64;
    let result = (|| -> Result<(), String> {
        while phase != Phase::Done {
            r.reset();
            let (a0, c0, t0) = (sys::alloc_calls(), sys::process_cpu_ns(), Instant::now());
            match phase {
                Phase::Warm => r.slice(&mut NoTrace, true, None)?,
                Phase::Plain => r.slice(&mut NoTrace, false, rank0.then_some(&mut lat))?,
                _ if rank0 => r.slice(&mut rec, false, None)?,
                _ => r.slice(&mut NoTrace, false, None)?,
            }
            let us = t0.elapsed().as_nanos() as f64 / 1e3 / steps;
            let cpu_us = (sys::process_cpu_ns() - c0) as f64 / 1e3 / steps;
            slices += 1;
            match phase {
                Phase::Plain => {
                    r.out.wall_us_per_step.push(us);
                    r.out.cpu_us_per_step.push(cpu_us);
                    r.out.allocs += sys::alloc_calls() - a0;
                    r.out.plain_steps += STEPS_PER_SLICE as u64;
                }
                Phase::Traced => r.out.traced_us_per_step.push(us),
                _ => {}
            }
            let (min, budget) = match phase {
                Phase::Warm => (plan.warm_slices, Duration::ZERO),
                Phase::Plain => (plan.min_slices, plan.plain),
                _ => (plan.min_slices, plan.traced.unwrap_or_default()),
            };
            let advance = rank0 && slices >= min && phase_start.elapsed() >= budget;
            if r.agree(advance)? {
                match phase {
                    Phase::Warm => r.out.warm_done = Some(Instant::now()),
                    Phase::Plain => r.out.stats = stats(world).since(&before),
                    _ => {}
                }
                phase = next(phase, &plan);
                phase_start = Instant::now();
                slices = 0;
                before = stats(world);
            }
        }
        // The last step once more against the full reference.
        let inbound = r.recv_counts.iter().sum();
        r.check(STEPS_PER_SLICE - 1, inbound, true);
        Ok(())
    })();
    if let Err(e) = result {
        r.fail(e);
    }
    for block in lat.chunks_exact(LAT_BLOCK) {
        r.out.step_us.push(stats::median(&mut block.to_vec()));
    }
    r.out.rec = rank0.then_some(rec);
    r.out
}

/// Connects one world per rank, rank 0 on the caller's thread and one
/// thread for each other rank, and runs every rank through `plan`.
fn run_ranks(ranks: &[RankIn], plan: Plan) -> Result<Vec<RankOut>, String> {
    let fabric = Fabric::new(ranks.len());
    std::thread::scope(|sc| {
        let peers: Vec<_> = (1..ranks.len())
            .map(|rank| {
                let fabric = fabric.clone();
                let inp = &ranks[rank];
                sc.spawn(move || connect(fabric, rank).map(|w| rank_main(&w, inp, plan)))
            })
            .collect();
        let world = connect(fabric.clone(), 0)?;
        let mut outs = vec![rank_main(&world, &ranks[0], plan)];
        for p in peers {
            outs.push(p.join().map_err(|_| "a rank thread panicked".to_string())??);
        }
        Ok(outs)
    })
}

const WARM_SLICES: usize = 4;

/// Runs one child, born at `born`, for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool, born: Instant, rep: &mut Report) {
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    let ranks = inputs(2, seed);
    let warm_slices = WARM_SLICES;
    let plan = if trace {
        Plan { warm_slices, plain: secs(0.45), traced: Some(secs(0.45)), min_slices: 20 }
    } else {
        Plan { warm_slices, plain: secs(0.95), traced: None, min_slices: 20 }
    };
    let mut outs = match run_ranks(&ranks, plan) {
        Ok(r) => r,
        Err(e) => return rep.abort(e),
    };
    if let Some(t) = outs[0].warm_done {
        rep.metric("setup_s", (t - born).as_secs_f64());
    }
    let steps = outs[0].plain_steps as f64;
    for o in &mut outs {
        rep.failed += o.failed;
        rep.errors.append(&mut o.errors);
    }
    let o = &outs[0];
    rep.attempted += o.attempted;
    let best_us = stats::best(&o.wall_us_per_step);
    if trace {
        let rec = o.rec.as_ref().expect("rank 0 records");
        let sum =
            |f: fn(&StatsSnapshot) -> u64| outs.iter().map(|o| f(&o.stats)).sum::<u64>() as f64;
        rep.metric("coll.exchange_counts_us", rec.call_ns(Name::ExchangeCounts) / 1e3);
        rep.metric("coll.a2av_dispatch_us", rec.call_ns(Name::A2avDispatch) / 1e3);
        rep.metric("coll.a2av_combine_us", rec.call_ns(Name::A2avCombine) / 1e3);
        rep.metric("coll.allreduce_1m_us", rec.call_ns(Name::Allreduce) / 1e3);
        rep.metric("coll.rounds_per_step", sum(|s| s.coll_rounds) / steps);
        rep.metric("coll.bytes_per_step", sum(|s| s.coll_bytes) / steps);
        rep.metric("coll.skipped_pairs_per_step", sum(|s| s.coll_skipped_pairs) / steps);
        let hwm = outs.iter().map(|o| o.stats.coll_chunks_inflight_hwm).max().unwrap_or(0);
        rep.metric("coll.chunks_inflight_hwm", hwm as f64);
        rep.metric("progress.calls_per_msg", sum(|s| s.progress_calls) / steps);
        rep.metric(
            "progress.useful_frac",
            sum(|s| s.progress_useful) / sum(|s| s.progress_calls).max(1.0),
        );
        rep.metric("post.retry_frac", sum(|s| s.retries) / sum(|s| s.retries + s.posts).max(1.0));
        rep.metric("backlog.pushed_per_msg", sum(|s| s.backlogged) / steps);
        rep.metric("proto.rdv_chunks_per_msg", sum(|s| s.rdv_chunks_posted) / steps);
        rep.metric("proto.copied_deliveries_per_msg", sum(|s| s.copied_deliveries) / steps);
        // Both ranks report the one pool and cache they share in-process
        // only if the backend shares them; rank 0's view is enough.
        rep.metric("buf_pool.hit_frac", o.stats.buf_pool_hit_rate());
        rep.metric("buf_pool.steals_per_msg", o.stats.buf_pool_steals as f64 / steps);
        rep.metric("reg_cache.hit_frac", o.stats.reg_cache_hit_rate());
        rep.metric(
            "shm.ring_hwm",
            outs.iter().map(|o| o.stats.shm_ring_hwm).max().unwrap_or(0) as f64,
        );
        rep.metric("trace.overhead_frac", stats::best(&o.traced_us_per_step) / best_us - 1.0);
        rep.metric("trace.self_gap_frac", rec.worst_self_gap());
        rep.metric("step_us", best_us);
        rep.metric("allocs_per_op", o.allocs as f64 / steps);
        rep.trace = Some(rec.to_json());
    } else {
        rep.metric("op_rate", 1e6 / best_us);
        rep.metric("goodput_mibps", bytes_per_step(&ranks) / best_us * 1e6 / (1 << 20) as f64);
        rep.metric("lat_p50_us", stats::best(&o.step_us));
        rep.metric("cpu_us_per_op", stats::best(&o.cpu_us_per_step));
        rep.timing(Timing::new("slice_wall_us_per_step", "wall", o.wall_us_per_step.clone()));
        rep.timing(Timing::new(
            "slice_process_us_per_step",
            "process-cpu",
            o.cpu_us_per_step.clone(),
        ));
        rep.timing(Timing::new("block_p50_step_us", "wall", o.step_us.clone()));
    }
    rep.info("steps_per_slice", STEPS_PER_SLICE);
    rep.info("steps_per_latency_block", LAT_BLOCK);
    rep.info("bytes_per_step", bytes_per_step(&ranks));
}

/// The counts-only 4-rank pass of the traced run: the same step on a
/// schedule two cores cannot time (`coll.4r.*`).
pub fn four_rank_counts(seed: u64, rep: &mut Report) {
    let ranks = inputs(4, seed);
    let plan = Plan { warm_slices: 1, plain: Duration::ZERO, traced: None, min_slices: 2 };
    let outs = match run_ranks(&ranks, plan) {
        Ok(outs) => outs,
        Err(e) => return rep.abort(format!("4-rank pass: {e}")),
    };
    let steps = outs[0].plain_steps as f64;
    let sum = |f: fn(&StatsSnapshot) -> u64| outs.iter().map(|o| f(&o.stats)).sum::<u64>() as f64;
    rep.metric("coll.4r.rounds_per_step", sum(|s| s.coll_rounds) / steps);
    rep.metric("coll.4r.bytes_per_step", sum(|s| s.coll_bytes) / steps);
    rep.metric("coll.4r.skipped_pairs_per_step", sum(|s| s.coll_skipped_pairs) / steps);
    rep.metric("coll.4r.posts_per_step", sum(|s| s.posts) / steps);
    for o in outs {
        rep.attempted += o.attempted;
        rep.failed += o.failed;
        rep.errors.extend(o.errors);
    }
}
