//! Waits whose peer needs the waiter's core (DESIGN.md §4.8): every
//! thread here is pinned to CPU 0, so a waiter that spins holds off the
//! very thread it waits for until the scheduler preempts it. A blocking
//! wait must learn to hand the core over instead.
//!
//! Each test is skipped where the host refuses the pinning. The tests
//! take turns (`serial`): two of them on CPU 0 at once would hand each
//! other the core.

use lci::{Comp, CompDesc, Fabric, GraphBuilder, Runtime, RuntimeConfig, Synchronizer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to CPU 0; false where the host refuses.
fn pin_to_cpu0() -> bool {
    let mut mask = [0u64; 16];
    mask[0] = 1;
    // SAFETY: the mask is 128 readable bytes, the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, 128, mask.as_ptr()) == 0 }
}

static SERIAL: Mutex<()> = Mutex::new(());

/// Takes this file's turn and pins the test thread; `None` (skip) where
/// the host refuses the pinning.
fn one_cpu() -> Option<MutexGuard<'static, ()>> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    if pin_to_cpu0() {
        Some(guard)
    } else {
        eprintln!("skipped: sched_setaffinity to CPU 0 refused");
        None
    }
}

/// Progress calls a rank makes per warm 1 MiB `allreduce(SumU64)` with
/// both rank threads on CPU 0, averaged over the two ranks; and how many
/// of them did something.
fn progress_calls_per_allreduce(cfg: fn() -> RuntimeConfig) -> (f64, f64) {
    const WARMUP: usize = 10;
    const ITERS: usize = 50;
    const RANKS: usize = 2;
    let fabric = Fabric::new(RANKS);
    let ranks: Vec<_> = (0..RANKS)
        .map(|rank| {
            let fabric = fabric.clone();
            std::thread::spawn(move || {
                assert!(pin_to_cpu0(), "CPU 0 refused to a rank thread");
                let rt = Runtime::new(fabric, rank, cfg()).unwrap();
                let mut buf = vec![1u8; 1 << 20];
                for _ in 0..WARMUP {
                    lci::coll::allreduce(&rt, &mut buf, &lci::SumU64).unwrap();
                }
                let before = rt.device().stats();
                for _ in 0..ITERS {
                    lci::coll::allreduce(&rt, &mut buf, &lci::SumU64).unwrap();
                }
                let d = rt.device().stats().since(&before);
                rt.oob_barrier();
                (d.progress_calls, d.progress_useful)
            })
        })
        .collect();
    let (calls, useful) = ranks
        .into_iter()
        .map(|r| r.join().unwrap())
        .fold((0, 0), |(c, u), (dc, du)| (c + dc, u + du));
    let allreduces = (RANKS * ITERS) as f64;
    (calls as f64 / allreduces, useful as f64 / allreduces)
}

/// Two ranks on one core: each sweep a waiter makes while its peer
/// holds the data it waits for is wasted, so the waits stop spinning.
/// A fixed 64-sweep spin made 300.5 progress calls an allreduce here, on
/// both wires, 12.5 of them useful.
fn allreduce_on_one_core(cfg: fn() -> RuntimeConfig, wire: &str) {
    let Some(_g) = one_cpu() else { return };
    let (calls, useful) = progress_calls_per_allreduce(cfg);
    eprintln!("{wire}: {calls} progress calls per allreduce, {useful} useful");
    assert!(calls <= 100.0, "{wire}: {calls} progress calls per allreduce ({useful} useful)");
}

#[test]
fn one_core_allreduce_stops_spinning_ibv() {
    allreduce_on_one_core(RuntimeConfig::ibv, "ibv");
}

#[test]
fn one_core_allreduce_stops_spinning_shm() {
    allreduce_on_one_core(RuntimeConfig::shm, "shm");
}

/// The most polls a one-CPU wait may make: a fresh thread spins 64 idle
/// sweeps, and after that each yield hands the core to the signaller.
const MAX_POLLS: u64 = 128;

/// Runs `wait` (which counts its polls through the closure it is given)
/// on CPU 0 while a second thread there calls `signal` once the wait has
/// polled: the signaller can only run when the waiter gives the core up.
/// Returns the waiter's poll count.
fn polls_until_signalled(
    wait: impl FnOnce(&mut dyn FnMut()),
    signal: impl FnOnce() + Send + 'static,
) -> u64 {
    let waiting = Arc::new(AtomicBool::new(false));
    let signaller = {
        let waiting = waiting.clone();
        std::thread::spawn(move || {
            assert!(pin_to_cpu0(), "CPU 0 refused to the signaller");
            while !waiting.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            signal();
        })
    };
    let mut polls = 0u64;
    wait(&mut || {
        waiting.store(true, Ordering::Release);
        polls += 1;
    });
    signaller.join().unwrap();
    polls
}

#[test]
fn a_one_cpu_synchronizer_wait_yields_to_its_signaller() {
    let Some(_g) = one_cpu() else { return };
    let sync = Arc::new(Synchronizer::new(1));
    let signalled = sync.clone();
    let polls = polls_until_signalled(
        |poll| sync.wait_with(poll),
        move || signalled.signal(CompDesc::default()),
    );
    assert!(sync.test());
    assert!(polls <= MAX_POLLS, "the wait polled {polls} times before its signaller ran");
}

#[test]
fn a_one_cpu_graph_wait_yields_to_its_signaller() {
    let Some(_g) = one_cpu() else { return };
    let posted: Arc<Mutex<Option<Comp>>> = Arc::default();
    let mut b = GraphBuilder::new();
    let stash = posted.clone();
    b.add_comm(move |comp| *stash.lock().unwrap() = Some(comp));
    let graph = b.build();
    graph.start();
    let comp = posted.lock().unwrap().take().expect("the comm node posted");
    let polls = polls_until_signalled(
        |poll| graph.wait_with(poll),
        move || comp.signal(CompDesc::default()),
    );
    assert!(graph.test());
    assert!(polls <= MAX_POLLS, "the wait polled {polls} times before its signaller ran");
}
