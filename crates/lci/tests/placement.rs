//! Thread-per-core placement policy (DESIGN.md §4.10): config
//! validation, the `Placement` arithmetic the striped structures are
//! laid out with, core-keyed `home_device` routing, and the per-core
//! stats cells folding into one coherent snapshot.

use lci::{Comp, Fabric, Placement, PostResult, Runtime, RuntimeConfig};
use std::sync::Arc;

fn two_ranks(cfg: RuntimeConfig) -> (Runtime, Runtime) {
    let fabric = Fabric::new(2);
    let rt0 = Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap();
    let rt1 = Runtime::new(fabric, 1, cfg).unwrap();
    (rt0, rt1)
}

#[test]
fn placement_math_resolves_cores_and_stripes() {
    // A one-core placement is the single-stripe core-oblivious layout.
    let one = Placement::default().with_cores(1);
    assert_eq!(one.effective_cores(), 1);
    assert_eq!(one.stripes(), 1);
    // An explicit width wins over detection; stripes round up to a
    // power of two so index masking works.
    assert_eq!(Placement::default().with_cores(3).effective_cores(), 3);
    assert_eq!(Placement::default().with_cores(3).stripes(), 4);
    assert_eq!(Placement::default().with_cores(8).stripes(), 8);
    // Default detects the host map — at least one core, and the stripe
    // count covers it.
    let auto = Placement::default();
    assert!(auto.effective_cores() >= 1);
    assert!(auto.stripes() >= auto.effective_cores());
}

#[test]
fn placement_cores_zero_is_rejected() {
    let cfg = RuntimeConfig::small().with_placement(Placement::default().with_cores(0));
    let err = Runtime::new(Fabric::new(1), 0, cfg).unwrap_err();
    assert!(err.to_string().contains("placement.cores"), "unexpected error: {err}");
}

#[test]
fn placement_cores_over_max_is_rejected() {
    let cfg = RuntimeConfig::small()
        .with_placement(Placement::default().with_cores(lci::topology::MAX_CORES + 1));
    let err = Runtime::new(Fabric::new(1), 0, cfg).unwrap_err();
    assert!(err.to_string().contains("placement.cores"), "unexpected error: {err}");
}

/// With one device, `home_device` is the default device regardless of
/// the calling core; with several, callers spread over the device list
/// keyed by their core, and every core maps to *some* live device.
#[test]
fn home_device_routes_by_core_and_falls_back() {
    let cfg = RuntimeConfig::small().with_placement(Placement::default().with_cores(4));
    let fabric = Fabric::new(1);
    let rt = Runtime::new(fabric, 0, cfg).unwrap();
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

    // One-core placement: always the default device.
    let cfg = RuntimeConfig::small().with_placement(Placement::default().with_cores(1));
    let rt = Runtime::new(Fabric::new(1), 0, cfg).unwrap();
    let _extra = rt.alloc_device().unwrap();
    assert_eq!(rt.home_device().dev_id(), rt.device().dev_id());
}

/// Striped stats cells must fold into one coherent snapshot: a known
/// eager workload under a 4-core placement reports exactly its own
/// post/match counts, owner-local pool traffic, and an uncontended
/// matching engine (single-threaded harness ⇒ the contended counter
/// stays zero while still being wired up).
#[test]
fn striped_stats_fold_into_one_snapshot() {
    const ITERS: usize = 64;
    let cfg = RuntimeConfig::small().with_placement(Placement::default().with_cores(4));
    let (rt0, rt1) = two_ranks(cfg);
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
    // buffer, the one pooled buffer per message is the sim wire's own
    // staging, and the single-threaded loop stays on its home shelf.
    assert_eq!(d.buf_pool_hits + d.buf_pool_misses, ITERS as u64);
    assert_eq!(d.buf_pool_steals, 0, "single-core traffic never steals");
    let dr = rt1.device().stats();
    assert_eq!(dr.matched, ITERS as u64, "receiver matched every message exactly once");
    assert_eq!(dr.matching_contended, 0, "uncontended harness must not report contention");
}
