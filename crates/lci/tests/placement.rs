//! Thread-per-core layout (DESIGN.md §4.10): core-keyed `home_device`
//! routing, and the per-core stats cells folding into one coherent
//! snapshot. Every per-core structure has one stripe per detected core
//! (`topology::ncores`, overridable with `LCI_CORES`); each test here
//! runs on a fixed core count, in a child with `LCI_CORES` set when the
//! host has another (`common::on_cores`).

mod common;

use common::on_cores;
use lci::{Comp, Fabric, PostResult, Runtime, RuntimeConfig};
use std::sync::Arc;

fn two_ranks(cfg: RuntimeConfig) -> (Runtime, Runtime) {
    let fabric = Fabric::new(2);
    let rt0 = Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap();
    let rt1 = Runtime::new(fabric, 1, cfg).unwrap();
    (rt0, rt1)
}

/// With one device, `home_device` is the default device regardless of
/// the calling core; with several, callers spread over the device list
/// keyed by their core, and every core maps to *some* live device.
#[test]
fn home_device_routes_by_core_and_falls_back() {
    on_cores(4, "home_device_routes_by_core_and_falls_back", home_device_routes_by_core);
}

/// On a one-core map every caller gets the default device, however many
/// devices exist.
#[test]
fn home_device_is_the_default_device_on_one_core() {
    on_cores(1, "home_device_is_the_default_device_on_one_core", || {
        let rt = Runtime::new(Fabric::new(1), 0, RuntimeConfig::small()).unwrap();
        let _extra = rt.alloc_device().unwrap();
        lci::topology::bind_current_thread(3);
        assert_eq!(rt.home_device().dev_id(), rt.device().dev_id());
    });
}

fn home_device_routes_by_core() {
    let rt = Runtime::new(Fabric::new(1), 0, RuntimeConfig::small()).unwrap();
    assert_eq!(rt.home_device().dev_id(), rt.device().dev_id());

    let extra: Vec<_> = (0..3).map(|_| rt.alloc_device().unwrap()).collect();
    let mut ids: Vec<_> =
        std::iter::once(rt.device().dev_id()).chain(extra.iter().map(|d| d.dev_id())).collect();
    ids.sort_unstable();
    // Each bound core resolves to one of the allocated devices, and
    // the mapping covers more than just device 0 (workers fan out).
    let rt = Arc::new(rt);
    let homes: Vec<_> = (0..4)
        .map(|core| {
            let rt = rt.clone();
            std::thread::spawn(move || {
                lci::topology::bind_current_thread(core);
                rt.home_device().dev_id()
            })
            .join()
            .unwrap()
        })
        .collect();
    for h in &homes {
        assert!(ids.contains(h), "home device {h:?} is not an allocated device");
    }
    let distinct: std::collections::HashSet<_> = homes.iter().collect();
    assert!(distinct.len() > 1, "4 cores over 4 devices all routed to one device: {homes:?}");
}

/// Striped stats cells must fold into one coherent snapshot: a known
/// eager workload on a 4-core layout reports exactly its own
/// post/match counts, no pool traffic, and an uncontended
/// matching engine (single-threaded harness ⇒ the contended counter
/// stays zero while still being wired up).
#[test]
fn striped_stats_fold_into_one_snapshot() {
    on_cores(4, "striped_stats_fold_into_one_snapshot", striped_stats_fold);
}

fn striped_stats_fold() {
    const ITERS: usize = 64;
    let (rt0, rt1) = two_ranks(RuntimeConfig::small());
    assert_eq!(rt0.packet_pool().stripes(), 4);
    assert_eq!(rt0.device().buf_pool().stripes(), 4);
    let base = rt0.device().stats();
    for i in 0..ITERS {
        let tag = 7 + (i % 3) as u32;
        let recv = Comp::alloc_sync(1);
        match rt1.post_recv(0, vec![0u8; 512], tag, recv.clone()).unwrap() {
            PostResult::Posted => {}
            other => panic!("recv did not post: {other:?}"),
        }
        let send = Comp::alloc_sync(1);
        let mut send_pending =
            match rt0.post_send(1, vec![i as u8; 512], tag, send.clone()).unwrap() {
                PostResult::Done(_) => false,
                PostResult::Posted => true,
                PostResult::Retry(r) => panic!("send retried under a quiet harness: {r:?}"),
            };
        let recv_sync = recv.as_sync().unwrap();
        while send_pending || !recv_sync.test() {
            rt0.progress().unwrap();
            rt1.progress().unwrap();
            if send_pending && send.as_sync().unwrap().test() {
                send_pending = false;
            }
        }
    }
    let d = rt0.device().stats().since(&base);
    assert_eq!(d.posts, ITERS as u64, "every post lands in exactly one stripe cell");
    // 512 B rides the buffer-copy path: `lci` posts from the send
    // buffer and the sim wire copies it straight into the receiver's
    // posted packet, so no message takes a pooled buffer.
    assert_eq!(d.buf_pool_hits + d.buf_pool_misses, 0);
    assert_eq!(d.buf_pool_steals, 0, "single-core traffic never steals");
    let dr = rt1.device().stats();
    assert_eq!(dr.matched, ITERS as u64, "receiver matched every message exactly once");
    assert_eq!(dr.matching_contended, 0, "uncontended harness must not report contention");
}
