//! Cross-core buffer-pool behaviour: buffers taken on one core and
//! freed on another must come home (remote-free-to-owner), shelves must
//! converge instead of leaking, and concurrent cross-core traffic must
//! never double-deliver one buffer's storage.

use lci_fabric::buf_pool::{BufPool, BufPoolConfig};
use lci_fabric::topology;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn pool(stripes: usize, max_per_class: usize) -> BufPool {
    BufPool::new(BufPoolConfig { max_per_class, stripes })
}

/// Producer-consumer pipeline: each producer core takes and fills a
/// buffer, ships it to a consumer bound to a *different* core, and the
/// consumer drops it (cross-core free) before acking. Origin-return
/// means the buffer lands back on the producer's own stripe, so every
/// take after warmup is an owner-local hit — exactly, not
/// probabilistically: each producer's shelf holds at most one buffer,
/// which surplus-only stealing refuses to take.
#[test]
fn cross_core_pipeline_is_owner_local() {
    const PRODUCERS: usize = 4;
    const ITERS: usize = 500;
    let pool = pool(PRODUCERS * 2, 64);
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, lci_fabric::PoolBuf)>(PRODUCERS);
    let acks: Vec<_> = (0..PRODUCERS).map(|_| std::sync::mpsc::sync_channel::<()>(1)).collect();
    let (ack_tx, ack_rx): (Vec<_>, Vec<_>) = acks.into_iter().unzip();

    std::thread::scope(|s| {
        for (p, ack) in ack_rx.into_iter().enumerate() {
            let tx = tx.clone();
            let pool = pool.clone();
            s.spawn(move || {
                topology::bind_current_thread(p);
                for i in 0..ITERS {
                    let mut b = pool.take_len(256);
                    b[0] = (p * 31 + i) as u8;
                    tx.send((p, b)).unwrap();
                    // Wait until the consumer has freed our buffer, so
                    // the next take finds it home on our own stripe.
                    ack.recv().unwrap();
                }
            });
        }
        drop(tx);
        s.spawn(move || {
            // The consumer lives on a core no producer owns. In-flight
            // is one per producer, so per-producer arrival order is the
            // send order and the expected stamp is reconstructible.
            topology::bind_current_thread(PRODUCERS);
            let mut counts = [0usize; PRODUCERS];
            for (p, buf) in rx {
                assert_eq!(buf[0], (p * 31 + counts[p]) as u8, "payload survived the core hop");
                counts[p] += 1;
                drop(buf); // cross-core free: must return to its origin
                ack_tx[p].send(()).unwrap();
            }
        });
    });

    let s = pool.stats();
    assert_eq!(
        s.hits + s.misses,
        (PRODUCERS * ITERS) as u64,
        "every take is accounted exactly once"
    );
    // One warmup miss per producer allocates its working set; every
    // take after that is an owner-local hit, and nobody ever steals.
    assert_eq!(s.misses, PRODUCERS as u64, "exactly one warmup miss per producer");
    assert_eq!(s.steals, 0, "singleton shelves are never stolen");
    assert_eq!(s.local_hits, (PRODUCERS * (ITERS - 1)) as u64, "steady state is fully owner-local");
}

/// Concurrent takers on every stripe against one remote freeing thread:
/// storage handed out twice simultaneously would tear the fill pattern.
#[test]
fn no_double_delivery_under_contention() {
    const CORES: usize = 4;
    const ITERS: usize = 300;
    let pool = pool(CORES, 16);
    let live = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for c in 0..CORES {
            let pool = pool.clone();
            let live = live.clone();
            s.spawn(move || {
                topology::bind_current_thread(c);
                for i in 0..ITERS {
                    let mut b = pool.take_len(512);
                    // Claim the storage exclusively and check nobody
                    // else writes it while we hold it.
                    let stamp = ((c * ITERS + i) & 0xFF) as u8;
                    b.iter_mut().for_each(|x| *x = stamp);
                    live.fetch_add(1, Ordering::AcqRel);
                    std::thread::yield_now();
                    assert!(b.iter().all(|&x| x == stamp), "no concurrent writer on our buffer");
                    live.fetch_sub(1, Ordering::AcqRel);
                }
            });
        }
    });
    assert_eq!(live.load(Ordering::Acquire), 0);
    let s = pool.stats();
    assert_eq!(s.hits + s.misses, (CORES * ITERS) as u64);
}

proptest! {
    /// Arbitrary interleavings of take-on-core-A / free-on-core-B keep
    /// the pool's books exact: every take is accounted as exactly one
    /// hit or miss, buffers come back with the requested length, and
    /// the payload written under one take is never clobbered while
    /// held. `bind_current_thread` is rebindable, so one thread can
    /// deterministically replay any cross-core schedule.
    #[test]
    fn cross_core_interleavings_keep_books(
        ops in proptest::collection::vec((0usize..4, 0usize..4, 64usize..2048), 1..120),
    ) {
        let pool = pool(4, 8);
        // Buffers parked per core model arbitrary hold times.
        let mut parked: Vec<Vec<(u8, lci_fabric::PoolBuf)>> = (0..4).map(|_| Vec::new()).collect();
        let mut takes = 0u64;
        for (i, &(take_core, free_core, len)) in ops.iter().enumerate() {
            topology::bind_current_thread(take_core);
            let stamp = (i & 0xFF) as u8;
            let mut b = pool.take_len(len);
            prop_assert_eq!(b.len(), len);
            b.iter_mut().for_each(|x| *x = stamp);
            takes += 1;
            parked[take_core].push((stamp, b));
            if let Some((stamp, b)) = parked[free_core].pop() {
                topology::bind_current_thread(free_core);
                prop_assert!(b.iter().all(|&x| x == stamp), "no aliasing while parked");
                drop(b);
            }
        }
        // Drain the rest, freeing everything from one core: all
        // storage converges onto live shelves, none is lost.
        topology::bind_current_thread(3);
        for shelf in parked.iter_mut() {
            for (stamp, b) in shelf.drain(..) {
                prop_assert!(b.iter().all(|&x| x == stamp), "no aliasing at drain");
            }
        }
        let s = pool.stats();
        prop_assert_eq!(s.hits + s.misses, takes);
    }
}
