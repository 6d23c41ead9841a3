//! The `layers` pass of the traced run: each layer's public function
//! called alone on one thread, best-slice thread-CPU ns per call. These
//! are the numbers a one-layer optimisation moves first; the in-situ
//! spans say how much of that reaches a workload.

use crate::report::Report;
use crate::sys;
use lci::{Comp, CompDesc, MatchKind, MatchingEngine, Runtime, RuntimeConfig};
use lci_fabric::{BufPool, Cqe, CqeKind, DeviceConfig, Fabric, NetContext, NetDevice, RecvBufDesc};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `slice` (which makes `calls` calls) until `budget` is spent, at
/// least twenty times, and returns the best slice's ns per call.
fn best_ns(budget: Duration, calls: u64, mut slice: impl FnMut()) -> f64 {
    let start = Instant::now();
    let (mut best, mut slices) = (f64::INFINITY, 0);
    slice(); // warm
    while slices < 20 || start.elapsed() < budget {
        let t0 = sys::thread_cpu_ns();
        slice();
        best = best.min((sys::thread_cpu_ns() - t0) as f64 / calls as f64);
        slices += 1;
    }
    best
}

/// Two raw devices on one fabric, driven like the lockstep workloads
/// but below `lci`: `post_send`, `post_recv_batch` and both `poll_cq`.
struct Wire {
    d0: Arc<dyn NetDevice>,
    d1: Arc<dyn NetDevice>,
    /// Landing buffers posted to `d1`; a completion's `ctx` is its index.
    landing: Vec<Box<[u8]>>,
    cqes: Vec<Cqe>,
    repost: Vec<RecvBufDesc>,
}

const BATCH: usize = 32;

impl Wire {
    fn new(cfg: DeviceConfig, size: usize) -> Result<Wire, String> {
        let fabric = Fabric::new(2);
        let d0 = NetContext::new(fabric.clone(), 0).create_device(cfg);
        let d1 = NetContext::new(fabric, 1).create_device(cfg);
        let mut w = Wire {
            d0,
            d1,
            landing: (0..2 * BATCH).map(|_| vec![0u8; size.max(64)].into()).collect(),
            cqes: Vec::with_capacity(4 * BATCH),
            repost: Vec::with_capacity(2 * BATCH),
        };
        for i in 0..w.landing.len() {
            w.queue_repost(i);
        }
        w.restock()?;
        Ok(w)
    }

    fn queue_repost(&mut self, i: usize) {
        let b = &mut self.landing[i];
        // SAFETY: the buffer lives as long as `self`, whose `Drop` tears
        // both devices down first, and the driver never touches it while
        // it is posted.
        self.repost.push(unsafe { RecvBufDesc::new(b.as_mut_ptr(), b.len(), i as u64) });
    }

    fn restock(&mut self) -> Result<(), String> {
        let mut done = 0;
        while done < self.repost.len() {
            match self.d1.post_recv_batch(&self.repost[done..]) {
                Ok(n) => done += n,
                Err(e) if e.is_retry() => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        self.repost.clear();
        Ok(())
    }

    /// Polls both devices once; returns `(send-side, receive-side)`
    /// completions seen and queues the landed buffers for reposting.
    fn poll(&mut self) -> Result<(usize, usize), String> {
        let (mut tx, mut rx) = (0, 0);
        for rank in 0..2 {
            let dev = if rank == 0 { &self.d0 } else { &self.d1 };
            self.cqes.clear();
            match dev.poll_cq(&mut self.cqes, 2 * BATCH) {
                Ok(_) => {}
                Err(e) if e.is_retry() => continue,
                Err(e) => return Err(e.to_string()),
            }
            for i in 0..self.cqes.len() {
                match self.cqes[i].kind {
                    CqeKind::SendDone | CqeKind::WriteDone => tx += 1,
                    CqeKind::RecvDone | CqeKind::WriteImmRecv => {
                        rx += 1;
                        self.queue_repost(self.cqes[i].ctx as usize);
                    }
                    CqeKind::ReadDone => {}
                }
            }
        }
        Ok((tx, rx))
    }

    /// Sends one batch of `data` and waits for both ends' completions.
    fn send_batch(&mut self, data: &[u8]) -> Result<(), String> {
        let (mut tx, mut rx) = (0, 0);
        for i in 0..BATCH {
            loop {
                match self.d0.post_send(1, 0, data, i as u64, i as u64) {
                    Ok(()) => break,
                    Err(e) if e.is_retry() => {
                        let (t, r) = self.poll()?;
                        tx += t;
                        rx += r;
                    }
                    Err(e) => return Err(e.to_string()),
                }
            }
        }
        self.finish(tx, rx, BATCH, BATCH)
    }

    /// Writes `chunks` chunks into `d1`'s registered region, the last
    /// with an immediate so that its arrival is observable.
    fn write(&mut self, data: &[u8], rkey: lci_fabric::Rkey, chunks: usize) -> Result<(), String> {
        let (mut tx, mut rx) = (0, 0);
        for i in 0..chunks {
            let imm = (i + 1 == chunks).then_some(7);
            loop {
                match self.d0.post_write(1, 0, data, rkey, i * data.len(), imm, i as u64) {
                    Ok(()) => break,
                    Err(e) if e.is_retry() => {
                        let (t, r) = self.poll()?;
                        tx += t;
                        rx += r;
                    }
                    Err(e) => return Err(e.to_string()),
                }
            }
        }
        self.finish(tx, rx, chunks, 1)
    }

    fn finish(
        &mut self,
        mut tx: usize,
        mut rx: usize,
        want_tx: usize,
        want_rx: usize,
    ) -> Result<(), String> {
        let start = Instant::now();
        while tx < want_tx || rx < want_rx {
            let (t, r) = self.poll()?;
            tx += t;
            rx += r;
            if t + r == 0 && start.elapsed() > Duration::from_secs(3) {
                return Err(format!(
                    "raw wire stalled at {tx}/{want_tx} sent, {rx}/{want_rx} landed"
                ));
            }
        }
        self.restock()
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        // Hand the posted buffers back before `landing` is freed.
        self.d1.teardown();
        self.d0.teardown();
    }
}

fn wire_send_ns(cfg: DeviceConfig, size: usize, budget: Duration) -> Result<f64, String> {
    let mut w = Wire::new(cfg, size)?;
    let data = vec![0xA5u8; size];
    let mut err = None;
    let ns = best_ns(budget, (4 * BATCH) as u64, || {
        for _ in 0..4 {
            if let Err(e) = w.send_batch(&data) {
                err.get_or_insert(e);
            }
        }
    });
    err.map_or(Ok(ns), Err)
}

/// 512 KiB as the rendezvous pump moves it: eight 64 KiB writes.
fn wire_write_mibps(cfg: DeviceConfig, budget: Duration) -> Result<f64, String> {
    const CHUNK: usize = 64 << 10;
    const CHUNKS: usize = 8;
    let mut w = Wire::new(cfg, 64)?;
    let mut target = vec![0u8; CHUNK * CHUNKS];
    let mr = w.d1.register(target.as_mut_ptr(), target.len()).map_err(|e| e.to_string())?;
    let data = vec![0x5Au8; CHUNK];
    let mut err = None;
    let ns = best_ns(budget, 1, || {
        if let Err(e) = w.write(&data, mr.rkey, CHUNKS) {
            err.get_or_insert(e);
        }
    });
    if black_box(&target)[CHUNK * CHUNKS - 1] != 0x5A {
        err.get_or_insert("the written region does not hold the data".into());
    }
    drop(w);
    err.map_or(Ok((CHUNK * CHUNKS) as f64 / (1 << 20) as f64 / (ns / 1e9)), Err)
}

/// Runs every isolated layer benchmark within about `seconds`.
pub fn run(seconds: f64, rep: &mut Report) {
    const LAYERS: f64 = 17.0;
    let b = Duration::from_secs_f64(seconds / LAYERS);
    const N: u64 = 1024;

    let engine: MatchingEngine<u64> = MatchingEngine::new();
    let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 8;
    rep.metric(
        "matching.insert_hit_ns",
        best_ns(b, 2 * N, || {
            for i in 0..N {
                black_box(engine.insert(key(i), i, MatchKind::Recv));
                black_box(engine.insert(key(i), i, MatchKind::Send));
            }
        }),
    );
    rep.metric(
        "matching.insert_unexp64_ns",
        best_ns(b, 2 * N, || {
            for base in (0..N).step_by(64) {
                for i in base..base + 64 {
                    black_box(engine.insert(key(i), i, MatchKind::Send));
                }
                for i in base..base + 64 {
                    black_box(engine.insert(key(i), i, MatchKind::Recv));
                }
            }
        }),
    );
    if !engine.is_empty() {
        rep.abort("matching engine kept entries after every insert was matched".into());
    }

    let rt = match Runtime::new(Fabric::new(1), 0, RuntimeConfig::default()) {
        Ok(rt) => rt,
        Err(e) => return rep.abort(format!("layers: {e}")),
    };
    rep.metric(
        "packet_pool.get_put_ns",
        best_ns(b, N, || {
            for _ in 0..N {
                black_box(rt.packet_pool().get());
            }
        }),
    );
    drop(rt);

    let pool = BufPool::new(DeviceConfig::shm().buf_pool);
    for (name, len) in [("buf_pool.take_2k_ns", 2048), ("buf_pool.take_512k_ns", 512 << 10)] {
        rep.metric(
            name,
            best_ns(b, N, || {
                for _ in 0..N {
                    black_box(pool.take_empty(len));
                }
            }),
        );
    }

    let cq = Comp::alloc_cq();
    rep.metric(
        "comp.cq_push_pop_ns",
        best_ns(b, N, || {
            for _ in 0..N {
                cq.signal(CompDesc::default());
                black_box(cq.pop());
            }
        }),
    );
    let sync = Comp::alloc_sync(1);
    let s = sync.as_sync().expect("a synchronizer");
    rep.metric(
        "comp.sync_signal_ns",
        best_ns(b, N, || {
            for _ in 0..N {
                sync.signal(CompDesc::default());
                s.reset();
            }
        }),
    );
    let handler = Comp::alloc_handler(|d| {
        black_box(d);
    });
    rep.metric(
        "comp.handler_signal_ns",
        best_ns(b, N, || {
            for _ in 0..N {
                handler.signal(CompDesc::default());
            }
        }),
    );

    let dev = NetContext::new(Fabric::new(1), 0).create_device(DeviceConfig::ibv());
    if let Some(bell) = dev.doorbell() {
        rep.metric(
            "sync.doorbell_ring_ns",
            best_ns(b, N, || {
                for _ in 0..N {
                    bell.ring();
                }
            }),
        );
    }
    // One region registered over and over hits; 4096 distinct regions
    // cycled through a 128-entry cache always miss and evict.
    let region = vec![0u8; 4096 * 64 + 4096];
    let mut reg = |name: &str, stride: usize| {
        let mut err = None;
        let ns = best_ns(b, N, || {
            for i in 0..N as usize {
                // SAFETY of the pointer: inside `region`; registration
                // only records the address.
                match dev.register(region[(i * stride) % (4096 * 64)..].as_ptr(), 4096) {
                    Ok(mr) => drop(dev.deregister(&mr)),
                    Err(e) => drop(err.get_or_insert(e.to_string())),
                }
            }
        });
        match err {
            None => rep.metric(name, ns),
            Some(e) => rep.abort(format!("{name}: {e}")),
        }
    };
    reg("reg_cache.register_hit_ns", 0);
    reg("reg_cache.register_miss_ns", 64);
    dev.teardown();

    let wires = [
        ("netdev.sim_ibv.send8_ns", DeviceConfig::ibv(), 8),
        ("netdev.shm.send8_ns", DeviceConfig::shm(), 8),
        ("netdev.shm.send2k_ns", DeviceConfig::shm(), 2048),
        ("netdev.tcp.send8_ns", DeviceConfig::tcp(), 8),
        ("netdev.tcp.send2k_ns", DeviceConfig::tcp(), 2048),
    ];
    for (name, cfg, size) in wires {
        match wire_send_ns(cfg, size, b) {
            Ok(ns) => rep.metric(name, ns),
            Err(e) => rep.abort(format!("{name}: {e}")),
        }
    }
    match wire_write_mibps(DeviceConfig::shm(), b) {
        Ok(v) => rep.metric("netdev.shm.write512k_mibps", v),
        Err(e) => rep.abort(format!("netdev.shm.write512k_mibps: {e}")),
    }
}
