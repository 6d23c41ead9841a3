//! Paper Figure 5: maximum throughput of individual LCI resources over
//! thread counts.
//!
//! Threads hammer one shared instance of each resource with the method
//! pairs used on the communication critical path:
//!
//! * completion queue — push/pop pairs (paper: ~18 Mops at 128 threads,
//!   bounded by the shared head and tail counters);
//! * matching engine — insert pairs (a send insert matched by a recv
//!   insert; paper: ~260 Mops);
//! * packet pool — get/put pairs (thread-local deques; paper: ~800
//!   Mops, the best scaler).
//!
//! The paper's conclusion to reproduce: packet pool ≻ matching engine ≻
//! completion queue, with the CQ the only resource worth replicating
//! per thread.
//!
//! A closing section exercises the large-message pipeline (DESIGN.md
//! §4.6) on both simulated backends and reports its counters: chunk
//! posts, the in-flight high-water mark, and the registration-cache
//! hit/miss/eviction totals.

use bench::{env_usize, print_header, print_row, quick, thread_sweep};
use lci::{
    Comp, CompDesc, CompQueue, MatchKind, MatchingEngine, PacketPool, PacketPoolConfig, PostResult,
    Runtime, RuntimeConfig,
};
use lci_fabric::Fabric;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Runs `per_thread` op-pairs on every thread; returns Mops (op pairs/s).
fn measure(nthreads: usize, per_thread: usize, op: impl Fn(usize, usize) + Send + Sync) -> f64 {
    let op = Arc::new(op);
    let start = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..nthreads {
            let op = op.clone();
            let start = start.clone();
            scope.spawn(move || {
                while !start.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                for i in 0..per_thread {
                    op(t, i);
                }
            });
        }
        start.store(true, Ordering::Release);
    });
    let dt = t0.elapsed();
    (nthreads * per_thread) as f64 / dt.as_secs_f64() / 1e6
}

fn main() {
    let per = if quick() { 10_000 } else { env_usize("BENCH_RESOURCE_OPS", 100_000) };
    let sweep = thread_sweep();
    println!("# Fig 5: individual resource throughput (shared instance)");
    println!(
        "# paper: 100k op-pairs/thread, 1-128 threads; here: {per} op-pairs, {sweep:?} threads"
    );

    print_header("Fig5 resource throughput", &["threads", "resource", "Mops"]);
    for &t in &sweep {
        // Completion queue (the bounded MPMC ring).
        let cq = CompQueue::default();
        let mops = measure(t, per, |_, _| {
            cq.push(CompDesc::empty());
            while cq.pop().is_none() {
                std::hint::spin_loop();
            }
        });
        print_row(&[t.to_string(), "comp_queue".into(), format!("{mops:.2}")]);

        // Matching engine: alternating send/recv inserts with per-thread
        // keys (the common no-contention case the hashtable optimizes).
        let me: MatchingEngine<u64> = MatchingEngine::new();
        let mops = measure(t, per, |tid, i| {
            let key = ((tid as u64) << 32) | (i as u64 & 1023);
            if me.insert(key, i as u64, MatchKind::Send).is_none() {
                let _ = me.insert(key, i as u64, MatchKind::Recv);
            }
        });
        print_row(&[t.to_string(), "matching_engine".into(), format!("{mops:.2}")]);

        // Packet pool: get/put pairs (tail locality).
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 64, count: t * 64 }).unwrap();
        let mops = measure(t, per, |_, _| {
            if let Some(p) = pool.get() {
                drop(p);
            }
        });
        print_row(&[t.to_string(), "packet_pool".into(), format!("{mops:.2}")]);

        // Doorbell: ring/observe pairs on one shared bell (the fabric's
        // device-bell eventcount). Rings with no waiter are the common
        // case — an uncontended fetch-add plus a load.
        let bell = Arc::new(lci_fabric::sync::Doorbell::new());
        let mops = measure(t, per, |_, _| {
            bell.ring();
            let _ = bell.epoch();
        });
        print_row(&[t.to_string(), "doorbell".into(), format!("{mops:.2}")]);
    }

    // Large-message pipeline counters: stream rendezvous transfers
    // (contiguous and gathered iovec) and report what the pipeline and
    // the registration cache did.
    print_header(
        "Rendezvous pipeline counters (sender | receiver)",
        &[
            "backend",
            "transfers",
            "chunks",
            "rdv_retried",
            "reg_hits",
            "reg_miss",
            "reg_evict",
            "hit_rate",
        ],
    );
    let transfers = if quick() { 16 } else { 64 };
    for (name, cfg) in
        [("ibv-sim", RuntimeConfig::ibv as fn() -> RuntimeConfig), ("ofi-sim", RuntimeConfig::ofi)]
    {
        let (s, r) = rendezvous_counters(cfg, transfers);
        print_row(&[
            name.into(),
            transfers.to_string(),
            s.rdv_chunks_posted.to_string(),
            s.rendezvous_retried.to_string(),
            r.reg_cache_hits.to_string(),
            r.reg_cache_misses.to_string(),
            r.reg_cache_evictions.to_string(),
            format!("{:.2}", r.reg_cache_hit_rate()),
        ]);
    }
}

/// Streams `transfers` 256 KiB rendezvous messages (alternating
/// contiguous and 4-segment iovec payloads) rank 0 → rank 1 with the
/// receive buffer recycled; returns (sender stats, receiver stats).
fn rendezvous_counters(
    mkcfg: fn() -> RuntimeConfig,
    transfers: usize,
) -> (lci::StatsSnapshot, lci::StatsSnapshot) {
    // 16 chunks of 64 KiB: more chunks than the in-flight window, so
    // completions re-drive the pump.
    const SIZE: usize = 1 << 20;
    let fabric = Fabric::new(2);
    let f2 = fabric.clone();
    let receiver = std::thread::spawn(move || {
        let rt = Runtime::new(f2, 1, mkcfg()).unwrap();
        rt.oob_barrier();
        let mut buf = vec![0u8; SIZE];
        for i in 0..transfers {
            let comp = Comp::alloc_sync(1);
            let desc = match rt.post_recv(0, buf, i as u32, comp.clone()).unwrap() {
                PostResult::Done(d) => d,
                PostResult::Posted => {
                    let sync = comp.as_sync().unwrap();
                    while !sync.test() {
                        rt.progress().unwrap();
                    }
                    sync.take().pop().unwrap()
                }
                PostResult::Retry(_) => unreachable!("recv never retries"),
            };
            buf = desc.data.into_vec();
        }
        let stats = rt.device().stats();
        rt.oob_barrier();
        stats
    });
    let rt = Runtime::new(fabric, 0, mkcfg()).unwrap();
    rt.oob_barrier();
    for i in 0..transfers {
        let comp = Comp::alloc_sync(1);
        let posted = loop {
            let res = if i % 2 == 0 {
                rt.post_send(1, vec![i as u8; SIZE], i as u32, comp.clone()).unwrap()
            } else {
                let segs: Vec<Box<[u8]>> =
                    (0..4).map(|s| vec![s as u8; SIZE / 4].into_boxed_slice()).collect();
                rt.post_send(1, segs, i as u32, comp.clone()).unwrap()
            };
            match res {
                PostResult::Done(_) => break false,
                PostResult::Posted => break true,
                PostResult::Retry(_) => {
                    rt.progress().unwrap();
                }
            }
        };
        if posted {
            comp.as_sync().unwrap().wait_with(|| {
                rt.progress().unwrap();
            });
        }
    }
    let stats = rt.device().stats();
    rt.oob_barrier();
    (stats, receiver.join().unwrap())
}
