//! The point-to-point workloads, driven in lockstep: one thread owns
//! both ranks' runtimes and alternates post, sender progress, receiver
//! progress and completion pop. The interleaving is deterministic, each
//! call is separately timeable, and the thread CPU clock does not
//! charge the time a noisy neighbour steals.

use crate::gen::{self, Rng};
use crate::report::{Report, Timing};
use crate::stats::best;
use crate::sys;
use crate::trace::{Name, NoTrace, Probe, Recorder};
use lci::{
    Comp, CompDesc, DataBuf, PostResult, RComp, Runtime, RuntimeConfig, SendBuf, StatsSnapshot,
};
use lci_fabric::{DeviceConfig, Fabric};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Am8Sim,
    Am8Tcp,
    Tag2kExp,
    Tag2kUnexp,
    Rdv512k,
}

/// Fixed work per slice, so a slice means the same on every commit.
struct Shape {
    size: usize,
    window: usize,
    msgs_per_slice: usize,
    lat_samples_per_slice: usize,
}

impl Kind {
    pub fn from_name(workload: &str) -> Option<Kind> {
        Some(match workload {
            "am8_sim" => Kind::Am8Sim,
            "am8_tcp" => Kind::Am8Tcp,
            "tag2k_exp_shm" => Kind::Tag2kExp,
            "tag2k_unexp_shm" => Kind::Tag2kUnexp,
            "rdv512k_shm" => Kind::Rdv512k,
            _ => return None,
        })
    }

    fn shape(self) -> Shape {
        match self {
            Kind::Am8Sim | Kind::Am8Tcp => {
                Shape { size: 8, window: 32, msgs_per_slice: 4096, lat_samples_per_slice: 2000 }
            }
            Kind::Tag2kExp | Kind::Tag2kUnexp => {
                Shape { size: 2048, window: 32, msgs_per_slice: 2048, lat_samples_per_slice: 2000 }
            }
            Kind::Rdv512k => {
                Shape { size: 512 << 10, window: 4, msgs_per_slice: 32, lat_samples_per_slice: 50 }
            }
        }
    }

    fn device(self) -> DeviceConfig {
        match self {
            Kind::Am8Sim => DeviceConfig::ibv(),
            Kind::Am8Tcp => DeviceConfig::tcp(),
            _ => DeviceConfig::shm(),
        }
    }

    fn is_am(self) -> bool {
        matches!(self, Kind::Am8Sim | Kind::Am8Tcp)
    }
}

/// Bytes of a tagged message that identify it: sequence number, buffer
/// slot, check word. The rest is the slot's seeded body.
const HEADER: usize = 24;

/// What `--seed` decides: the tag of each window position and the body
/// of each buffer slot. Built once per child, outside every timing.
struct Inputs {
    seed: u64,
    tags: Vec<u32>,
    bodies: Vec<Box<[u8]>>,
}

impl Inputs {
    fn new(kind: Kind, seed: u64) -> Inputs {
        let shape = kind.shape();
        let mut rng = Rng::new(seed);
        // Distinct tags in a seeded order: which matching bucket each
        // window position lands in changes with the seed.
        let base = (rng.next_u64() >> 40) as u32;
        let mut tags: Vec<u32> = (0..shape.window as u32).map(|i| base + 7 * i).collect();
        rng.shuffle(&mut tags);
        let bodies = if kind.is_am() {
            Vec::new()
        } else {
            (0..shape.window as u64)
                .map(|slot| {
                    let mut b = vec![0u8; shape.size].into_boxed_slice();
                    gen::fill_pattern(&mut b, seed, slot);
                    b[8..16].copy_from_slice(&slot.to_le_bytes());
                    b
                })
                .collect()
        };
        Inputs { seed, tags, bodies }
    }
}

fn word(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// A stalled drain loop gives up after this long without a completion,
/// so a lost message is a counted failure and not a hang.
const STALL: Duration = Duration::from_secs(3);

struct P2p<'a> {
    kind: Kind,
    shape: Shape,
    inp: &'a Inputs,
    rt0: Runtime,
    rt1: Runtime,
    rcq: Comp,
    scq: Comp,
    rcomp: RComp,
    sbufs: Vec<Box<[u8]>>,
    rbufs: Vec<Box<[u8]>>,
    seq: u64,
    attempted: u64,
    delivered: u64,
    retries: u64,
    /// `post_recv` calls of the unexpected workload, and how many found
    /// their message already parked.
    late_recvs: u64,
    late_recvs_done: u64,
    failed: u64,
    errors: Vec<String>,
}

impl<'a> P2p<'a> {
    /// Fabric, both runtimes and one delivered message.
    fn connect(kind: Kind, inp: &'a Inputs) -> Result<P2p<'a>, String> {
        let fabric = Fabric::new(2);
        let cfg = RuntimeConfig::default().with_device(kind.device());
        let rt0 = Runtime::new(fabric.clone(), 0, cfg.clone()).map_err(|e| e.to_string())?;
        let rt1 = Runtime::new(fabric, 1, cfg).map_err(|e| e.to_string())?;
        let rcq = Comp::alloc_cq();
        let scq = Comp::alloc_cq();
        // Same registration order on both ranks, so the handles agree.
        rt0.register_rcomp(scq.clone());
        let rcomp = rt1.register_rcomp(rcq.clone());
        let shape = kind.shape();
        let mut p = P2p {
            kind,
            inp,
            rt0,
            rt1,
            rcq,
            scq,
            rcomp,
            sbufs: inp.bodies.clone(),
            rbufs: (0..inp.bodies.len()).map(|_| vec![0u8; shape.size].into()).collect(),
            shape,
            seq: 0,
            attempted: 0,
            delivered: 0,
            retries: 0,
            late_recvs: 0,
            late_recvs_done: 0,
            failed: 0,
            errors: Vec::new(),
        };
        p.one_message(&mut NoTrace, true)?;
        Ok(p)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn stats(&self) -> (StatsSnapshot, StatsSnapshot) {
        (self.rt0.device().stats(), self.rt1.device().stats())
    }

    // -- posting ------------------------------------------------------

    fn post_am(&mut self, probe: &mut impl Probe, seq: u64) -> Result<(), String> {
        // Low half: sequence number; high half: its check word.
        let payload = (seq as u32 as u64 | gen::mix(self.inp.seed, seq) << 32).to_le_bytes();
        loop {
            probe.enter(Name::PostAm);
            let r = self.rt0.post_am(1, &payload[..], self.scq.clone(), self.rcomp);
            probe.exit();
            match r.map_err(|e| e.to_string())? {
                PostResult::Retry(_) => {
                    self.retries += 1;
                    self.progress_both(probe)?;
                }
                // An 8-byte message is injected: done at return, the
                // source completion is never signalled.
                PostResult::Done(_) | PostResult::Posted => return Ok(()),
            }
        }
    }

    /// Posts one tagged send; returns whether a source completion will
    /// arrive on `scq`.
    fn post_send(&mut self, probe: &mut impl Probe, seq: u64, tag: u32) -> Result<bool, String> {
        let mut buf = match self.sbufs.pop() {
            Some(b) => b,
            None => return Err("send buffers exhausted".into()),
        };
        loop {
            let slot = word(&buf, 8);
            buf[0..8].copy_from_slice(&seq.to_le_bytes());
            let check = gen::mix(self.inp.seed, seq ^ slot.rotate_left(40));
            buf[16..24].copy_from_slice(&check.to_le_bytes());
            probe.enter(Name::PostSend);
            let r = self.rt0.post_send(1, buf, tag, self.scq.clone());
            probe.exit();
            match r.map_err(|e| e.to_string())? {
                PostResult::Posted => return Ok(true),
                PostResult::Done(d) => {
                    self.recover_send(d);
                    return Ok(false);
                }
                PostResult::Retry(_) => {
                    // The library kept the buffer; rebuild the slot's.
                    self.retries += 1;
                    self.progress_both(probe)?;
                    buf = self.inp.bodies[slot as usize].clone();
                }
            }
        }
    }

    /// Posts one receive. `Done` hands the message over at once (it was
    /// parked as unexpected); returns whether one is still to come.
    fn post_recv(
        &mut self,
        probe: &mut impl Probe,
        tag: u32,
        base: u64,
        seen: &mut u64,
        full: bool,
    ) -> Result<bool, String> {
        let buf = match self.rbufs.pop() {
            Some(b) => b,
            None => return Err("receive buffers exhausted".into()),
        };
        probe.enter(Name::PostRecv);
        let r = self.rt1.post_recv(0, buf, tag, self.rcq.clone());
        probe.exit();
        match r.map_err(|e| e.to_string())? {
            PostResult::Posted => Ok(true),
            PostResult::Done(d) => {
                self.on_recv(d, base, seen, full);
                Ok(false)
            }
            PostResult::Retry(r) => Err(format!("post_recv asked to retry: {r:?}")),
        }
    }

    // -- completions --------------------------------------------------

    fn recover_send(&mut self, d: CompDesc) {
        match d.data {
            DataBuf::SendBuf(SendBuf::Owned(b)) => self.sbufs.push(b),
            other => self.fail(format!("send completion without its buffer: {other:?}")),
        }
    }

    /// Checks one delivered message and takes its buffer back.
    fn on_recv(&mut self, d: CompDesc, base: u64, seen: &mut u64, full: bool) {
        let data = d.data.as_slice();
        let seq = if self.kind.is_am() {
            if data.len() != 8 {
                return self.fail(format!("am of {} bytes", data.len()));
            }
            let w = word(data, 0);
            // Only the low half of the sequence number travels.
            let seq = base + (w as u32).wrapping_sub(base as u32) as u64;
            if w >> 32 != gen::mix(self.inp.seed, seq) << 32 >> 32 {
                return self.fail(format!("am payload {w:#x} fails its check"));
            }
            seq
        } else {
            if data.len() != self.shape.size {
                return self.fail(format!("length {} != {}", data.len(), self.shape.size));
            }
            let (seq, slot) = (word(data, 0), word(data, 8));
            if word(data, 16) != gen::mix(self.inp.seed, seq ^ slot.rotate_left(40)) {
                return self.fail(format!("message {seq} fails its check word"));
            }
            let idx = seq.wrapping_sub(base) as usize;
            if idx < self.shape.window && d.tag != self.inp.tags[idx] {
                return self.fail(format!("message {seq} arrived under tag {}", d.tag));
            }
            if full
                && (slot as usize >= self.inp.bodies.len()
                    || data[HEADER..] != self.inp.bodies[slot as usize][HEADER..])
            {
                return self.fail(format!("message {seq} body differs from slot {slot}"));
            }
            seq
        };
        let idx = seq.wrapping_sub(base);
        if idx >= self.shape.window as u64 || *seen & (1 << idx) != 0 {
            return self.fail(format!("message {seq} outside window at {base} or duplicated"));
        }
        *seen |= 1 << idx;
        self.delivered += 1;
        if !self.kind.is_am() {
            match d.data {
                DataBuf::Partial(b, _) | DataBuf::Owned(b) => self.rbufs.push(b),
                other => self.fail(format!("receive completion without its buffer: {other:?}")),
            }
        }
    }

    // -- progress -----------------------------------------------------

    fn progress_both(&mut self, probe: &mut impl Probe) -> Result<bool, String> {
        probe.enter(Name::TxProgress);
        let tx = self.rt0.progress();
        probe.exit();
        probe.enter(Name::RxProgress);
        let rx = self.rt1.progress();
        probe.exit();
        Ok(tx.map_err(|e| e.to_string())? | rx.map_err(|e| e.to_string())?)
    }

    /// Progresses both ranks until `recvs` deliveries and `sends` source
    /// completions have been popped.
    fn drain(
        &mut self,
        probe: &mut impl Probe,
        mut recvs: usize,
        mut sends: usize,
        base: u64,
        seen: &mut u64,
        full: bool,
    ) -> Result<(), String> {
        let mut idle = 0u32;
        let mut since = None;
        while recvs > 0 || sends > 0 {
            self.progress_both(probe)?;
            let before = recvs + sends;
            while recvs > 0 {
                probe.enter(Name::CompPop);
                let d = self.rcq.pop();
                probe.exit();
                let Some(d) = d else { break };
                self.on_recv(d, base, seen, full);
                recvs -= 1;
            }
            while sends > 0 {
                probe.enter(Name::CompPop);
                let d = self.scq.pop();
                probe.exit();
                let Some(d) = d else { break };
                self.recover_send(d);
                sends -= 1;
            }
            if recvs + sends < before {
                idle = 0;
                since = None;
                continue;
            }
            idle += 1;
            if idle.is_multiple_of(4096) {
                let t = *since.get_or_insert_with(Instant::now);
                if t.elapsed() > STALL {
                    self.failed += (recvs + sends) as u64;
                    return Err(format!(
                        "stalled with {recvs} deliveries and {sends} send completions missing"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Lets every posted message reach rank 1 and park there.
    fn settle(&mut self, probe: &mut impl Probe) -> Result<(), String> {
        while self.progress_both(probe)? {}
        Ok(())
    }

    // -- traffic ------------------------------------------------------

    /// One window of messages, all in flight together.
    fn window(&mut self, probe: &mut impl Probe, full: bool) -> Result<(), String> {
        let w = self.shape.window;
        let base = self.seq;
        self.seq += w as u64;
        self.attempted += w as u64;
        let mut seen = 0u64;
        probe.op(base);
        if self.kind.is_am() {
            for i in 0..w {
                self.post_am(probe, base + i as u64)?;
            }
            return self.drain(probe, w, 0, base, &mut seen, full);
        }
        let (mut recvs, mut sends) = (0, 0);
        if self.kind != Kind::Tag2kUnexp {
            for i in 0..w {
                recvs += self.post_recv(probe, self.inp.tags[i], base, &mut seen, full)? as usize;
            }
        }
        for i in 0..w {
            sends += self.post_send(probe, base + i as u64, self.inp.tags[i])? as usize;
        }
        if self.kind == Kind::Tag2kUnexp {
            self.settle(probe)?;
            for i in 0..w {
                let pending = self.post_recv(probe, self.inp.tags[i], base, &mut seen, full)?;
                self.late_recvs += 1;
                self.late_recvs_done += !pending as u64;
                recvs += pending as usize;
            }
        }
        self.drain(probe, recvs, sends, base, &mut seen, full)
    }

    /// One message alone on the wire; returns post to remote completion
    /// in ns (wall clock: a sample is too short for the CPU clock).
    fn one_message(&mut self, probe: &mut impl Probe, full: bool) -> Result<u64, String> {
        let base = self.seq;
        self.seq += 1;
        self.attempted += 1;
        let mut seen = 0u64;
        probe.op(base);
        let tag = self.inp.tags[0];
        if self.kind.is_am() {
            let t = Instant::now();
            self.post_am(probe, base)?;
            self.drain(probe, 1, 0, base, &mut seen, full)?;
            return Ok(t.elapsed().as_nanos() as u64);
        }
        let mut recvs = 0;
        if self.kind != Kind::Tag2kUnexp {
            recvs += self.post_recv(probe, tag, base, &mut seen, full)? as usize;
        }
        let t = Instant::now();
        let sends = self.post_send(probe, base, tag)? as usize;
        if self.kind == Kind::Tag2kUnexp {
            self.settle(probe)?;
            recvs += self.post_recv(probe, tag, base, &mut seen, full)? as usize;
        }
        self.drain(probe, recvs, 0, base, &mut seen, full)?;
        let ns = t.elapsed().as_nanos() as u64;
        self.drain(probe, 0, sends, base, &mut seen, full)?;
        Ok(ns)
    }

    fn slice(&mut self, probe: &mut impl Probe, full: bool) -> Result<(), String> {
        probe.enter(Name::Slice);
        let mut r = Ok(());
        for _ in 0..self.shape.msgs_per_slice / self.shape.window {
            r = self.window(probe, full);
            if r.is_err() {
                break;
            }
        }
        probe.exit();
        r
    }
}

/// Per-slice measurements of the windowed phase.
#[derive(Default)]
struct Slices {
    thread_ns_per_msg: Vec<f64>,
    process_ns_per_msg: Vec<f64>,
    allocs: u64,
    msgs: u64,
}

fn run_slices(
    p: &mut P2p,
    probe: &mut impl Probe,
    budget: Duration,
    min_slices: usize,
) -> Result<Slices, String> {
    let mut out = Slices::default();
    let n = p.shape.msgs_per_slice as f64;
    let start = Instant::now();
    while out.thread_ns_per_msg.len() < min_slices || start.elapsed() < budget {
        let (a0, c0, t0) = (sys::alloc_calls(), sys::process_cpu_ns(), sys::thread_cpu_ns());
        p.slice(probe, false)?;
        let (t1, c1, a1) = (sys::thread_cpu_ns(), sys::process_cpu_ns(), sys::alloc_calls());
        out.thread_ns_per_msg.push((t1 - t0) as f64 / n);
        out.process_ns_per_msg.push((c1 - c0) as f64 / n);
        out.allocs += a1 - a0;
        out.msgs += p.shape.msgs_per_slice as u64;
    }
    Ok(out)
}

/// Per-slice p50 and p99 of the window-1 phase, and the share of
/// samples over 1 ms.
#[derive(Default)]
struct Latency {
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    samples: u64,
    stalls: u64,
}

fn run_latency(p: &mut P2p, budget: Duration, min_slices: usize) -> Result<Latency, String> {
    let mut out = Latency::default();
    let mut ns = vec![0f64; p.shape.lat_samples_per_slice];
    let start = Instant::now();
    while out.p50_us.len() < min_slices || start.elapsed() < budget {
        for s in ns.iter_mut() {
            *s = p.one_message(&mut NoTrace, false)? as f64;
        }
        out.samples += ns.len() as u64;
        out.stalls += ns.iter().filter(|&&s| s > 1e6).count() as u64;
        crate::stats::sort(&mut ns);
        out.p50_us.push(crate::stats::quantile(&ns, 0.5) / 1e3);
        out.p99_us.push(crate::stats::quantile(&ns, 0.99) / 1e3);
    }
    Ok(out)
}

/// Slices of the warm-up, which checks every byte of every message. Fixed
/// work, because the warm-up is part of what `setup_s` times.
const WARM_SLICES: usize = 20;

/// Runs one child of a point-to-point workload, born at `born`, for
/// `seconds`.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, born: Instant, rep: &mut Report) {
    let inp = Inputs::new(kind, seed);
    let mut p = match P2p::connect(kind, &inp) {
        Ok(p) => p,
        Err(e) => return rep.abort(format!("setup: {e}")),
    };
    let result = measure(&mut p, seconds, trace, born, rep);
    rep.attempted += p.attempted;
    rep.failed += p.failed;
    rep.errors.append(&mut p.errors);
    if let Err(e) = result {
        rep.abort(e);
    }
}

fn measure(
    p: &mut P2p,
    seconds: f64,
    trace: bool,
    born: Instant,
    rep: &mut Report,
) -> Result<(), String> {
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    let size = p.shape.size as f64;
    let (s0, s1) = p.stats();

    for _ in 0..WARM_SLICES {
        p.slice(&mut NoTrace, true)?;
    }
    rep.metric("setup_s", born.elapsed().as_secs_f64());

    let share = if trace { 0.3 } else { 0.55 };
    let (io0, w0) = (sys::io_syscalls(), p.stats());
    let plain = run_slices(p, &mut NoTrace, secs(share), 20)?;
    let (io1, w1) = (sys::io_syscalls(), p.stats());
    let best_ns = best(&plain.thread_ns_per_msg);

    if trace {
        let mut rec = Recorder::new();
        let traced = run_slices(p, &mut rec, secs(0.3), 20)?;
        let lat = run_latency(p, secs(0.3), 5)?;
        per_layer(p, rep, &plain, &traced, &rec, &lat, (io1 - io0, &w0, &w1));
        rep.trace = Some(rec.to_json());
    } else {
        let lat = run_latency(p, secs(0.4), 20)?;
        rep.metric("op_rate", 1e9 / best_ns);
        rep.metric("goodput_mibps", size * 1e9 / best_ns / (1 << 20) as f64);
        rep.metric("lat_p50_us", best(&lat.p50_us));
        rep.metric("cpu_us_per_op", best(&plain.process_ns_per_msg) / 1e3);
        rep.timing(Timing::new("slice_thread_ns_per_msg", "thread-cpu", plain.thread_ns_per_msg));
        rep.timing(Timing::new(
            "slice_process_ns_per_msg",
            "process-cpu",
            plain.process_ns_per_msg,
        ));
        rep.timing(Timing::new("lat_slice_p50_us", "wall", lat.p50_us));
    }

    // Reconcile what the driver counted with what the library counted.
    let (e0, e1) = p.stats();
    let (d0, d1) = (e0.since(&s0), e1.since(&s1));
    let sent = p.attempted - 1; // the first message predates `s0`
    if p.delivered != p.attempted {
        p.fail(format!("{} messages sent, {} delivered", p.attempted, p.delivered));
    }
    let library = match p.kind {
        Kind::Am8Sim | Kind::Am8Tcp => d1.zero_copy_deliveries + d1.copied_deliveries,
        Kind::Tag2kExp => d1.matched,
        Kind::Tag2kUnexp => d1.copied_deliveries,
        Kind::Rdv512k => d0.rendezvous - d0.rendezvous_retried,
    };
    if library != sent || d0.posts < sent {
        p.fail(format!(
            "driver sent {sent} messages, library counted {library} ({} posts)",
            d0.posts
        ));
    }
    if p.kind == Kind::Tag2kUnexp && p.late_recvs_done * 10 < p.late_recvs * 9 {
        p.fail(format!(
            "only {} of {} receives found their message parked: not the unexpected path",
            p.late_recvs_done, p.late_recvs
        ));
    }
    rep.info("retries", p.retries);
    rep.info("msgs_per_slice", p.shape.msgs_per_slice);
    rep.info("lat_samples_per_slice", p.shape.lat_samples_per_slice);
    rep.info("window", p.shape.window);
    Ok(())
}

/// The per-layer metrics a point-to-point workload can observe from
/// outside the library: span times from the traced slices, counts from
/// `Device::stats()` deltas over the untraced ones.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    p: &P2p,
    rep: &mut Report,
    plain: &Slices,
    traced: &Slices,
    rec: &Recorder,
    lat: &Latency,
    (syscalls, w0, w1): (u64, &(StatsSnapshot, StatsSnapshot), &(StatsSnapshot, StatsSnapshot)),
) {
    let msgs = plain.msgs as f64;
    let per_slice = p.shape.msgs_per_slice as u64;
    let (d0, d1) = (w1.0.since(&w0.0), w1.1.since(&w0.1));
    let both = |f: fn(&StatsSnapshot) -> u64| (f(&d0) + f(&d1)) as f64;
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let best_ns = best(&plain.thread_ns_per_msg);

    rep.metric("post.am_ns", rec.call_ns(Name::PostAm));
    rep.metric("post.send_ns", rec.call_ns(Name::PostSend));
    rep.metric("post.recv_ns", rec.call_ns(Name::PostRecv));
    rep.metric("post.retry_frac", frac(both(|s| s.retries), both(|s| s.retries + s.posts)));
    rep.metric("progress.tx_ns_per_msg", rec.ns_per(Name::TxProgress, per_slice));
    rep.metric("progress.rx_ns_per_msg", rec.ns_per(Name::RxProgress, per_slice));
    rep.metric("progress.calls_per_msg", both(|s| s.progress_calls) / msgs);
    rep.metric(
        "progress.useful_frac",
        frac(both(|s| s.progress_useful), both(|s| s.progress_calls)),
    );
    rep.metric("comp.pop_ns", rec.call_ns(Name::CompPop));
    rep.metric("backlog.pushed_per_msg", both(|s| s.backlogged) / msgs);
    rep.metric("proto.rdv_chunks_per_msg", both(|s| s.rdv_chunks_posted) / msgs);
    rep.metric("proto.copied_deliveries_per_msg", both(|s| s.copied_deliveries) / msgs);
    // The two ranks' devices share nothing, so their pool and cache
    // counters add.
    rep.metric(
        "buf_pool.hit_frac",
        frac(both(|s| s.buf_pool_hits), both(|s| s.buf_pool_hits + s.buf_pool_misses)),
    );
    rep.metric("buf_pool.steals_per_msg", both(|s| s.buf_pool_steals) / msgs);
    rep.metric(
        "reg_cache.hit_frac",
        frac(both(|s| s.reg_cache_hits), both(|s| s.reg_cache_hits + s.reg_cache_misses)),
    );
    rep.metric("shm.ring_hwm", w1.0.shm_ring_hwm.max(w1.1.shm_ring_hwm) as f64);
    rep.metric(
        "tcp.writev_fill",
        frac(both(|s| s.tcp_writev_frames), both(|s| s.tcp_writev_calls)),
    );
    if p.kind == Kind::Am8Tcp {
        rep.metric("tcp.syscalls_per_msg", syscalls as f64 / msgs);
        rep.metric("tcp.lat_p99_us", best(&lat.p99_us));
        rep.metric("tcp.lat_stall_frac", frac(lat.stalls as f64, lat.samples as f64));
    }
    rep.metric("trace.overhead_frac", best(&traced.thread_ns_per_msg) / best_ns - 1.0);
    rep.metric("trace.self_gap_frac", rec.worst_self_gap());
    rep.metric("msg_rate_mps", 1e3 / best_ns);
    rep.metric("lat_p99_us", best(&lat.p99_us));
    rep.metric("allocs_per_op", plain.allocs as f64 / msgs);
    rep.ns_per_msg = Some(best_ns);
}

/// `coalesce.msgs_per_flush`, measured on a driver-side replica of
/// `kmer`'s message class: `kmer::run_rank` owns its `World`, so its
/// device counters cannot be read from outside. Same 16-byte active
/// messages, same 8 KiB flush threshold, progress at the app's cadence
/// (every four reads of about 35 remote k-mers).
pub fn coalesce_probe(rep: &mut Report) {
    const MSGS: usize = 1 << 15;
    const POSTS_PER_PROGRESS: usize = 140;
    let run = || -> Result<f64, String> {
        let fabric = Fabric::new(2);
        let cfg = RuntimeConfig {
            coalesce: lci::CoalesceConfig::enabled_with_bytes(8192),
            ..RuntimeConfig::default()
        };
        let rt0 = Runtime::new(fabric.clone(), 0, cfg.clone()).map_err(|e| e.to_string())?;
        let rt1 = Runtime::new(fabric, 1, cfg).map_err(|e| e.to_string())?;
        let (rcq, scq) = (Comp::alloc_cq(), Comp::alloc_cq());
        rt0.register_rcomp(scq.clone());
        let rcomp = rt1.register_rcomp(rcq.clone());
        let before = rt0.device().stats();
        let (mut sent, mut got) = (0usize, 0usize);
        let start = Instant::now();
        while got < MSGS {
            for _ in 0..POSTS_PER_PROGRESS.min(MSGS - sent) {
                let payload = (sent as u128).to_le_bytes();
                let r =
                    rt0.post_am(1, &payload[..], scq.clone(), rcomp).map_err(|e| e.to_string())?;
                sent += !r.is_retry() as usize;
            }
            if sent == MSGS {
                rt0.device().flush_coalesced().map_err(|e| e.to_string())?;
            }
            rt0.progress().map_err(|e| e.to_string())?;
            rt1.progress().map_err(|e| e.to_string())?;
            while let Some(d) = rcq.pop() {
                got += (d.data.len() == 16) as usize;
            }
            if start.elapsed() > STALL {
                return Err(format!("coalescing probe stalled at {got} of {MSGS} messages"));
            }
        }
        Ok(rt0.device().stats().since(&before).avg_coalesce_fill())
    };
    match run() {
        Ok(fill) => rep.metric("coalesce.msgs_per_flush", fill),
        Err(e) => rep.abort(e),
    }
}
