//! The figure harnesses run to their end on the in-process tcp wire.
//!
//! A tcp post only appends to the stream; the bytes leave at a later
//! progress call on the poster's rank. A harness worker whose last post
//! is the message its peer still waits for, and which then goes straight
//! into the closing out-of-band barrier, strands that message and hangs
//! both ranks. Each case runs a small sweep of one harness under a
//! watchdog, so such a hang fails the test instead of stalling the suite.

use bench::{bandwidth_thread_based, msgrate_process_based, msgrate_thread_based};
use lcw::{BackendKind, Platform, ResourceMode};
use std::sync::mpsc;
use std::time::Duration;

const TCP: Platform = Platform::TcpHost;

/// Runs `f` on its own thread and fails if it has not returned within
/// 60 s (the hung threads are left behind; the test binary exits anyway).
fn finishes(what: &str, f: impl FnOnce() -> f64 + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(v) => assert!(v > 0.0, "{what}: reported {v}"),
        Err(_) => panic!("{what} did not finish on tcp: a last send was stranded"),
    }
}

#[test]
fn thread_based_msgrate_finishes_on_tcp() {
    for (backend, mode) in [
        (BackendKind::Lci, ResourceMode::Dedicated(2)),
        (BackendKind::Vci, ResourceMode::Dedicated(2)),
        (BackendKind::Lci, ResourceMode::Shared),
        (BackendKind::Mpi, ResourceMode::Shared),
        (BackendKind::Gasnet, ResourceMode::Shared),
    ] {
        finishes(&format!("fig3 {backend:?} {mode:?}"), move || {
            msgrate_thread_based(backend, TCP, mode, 2, 50, 8)
        });
    }
}

#[test]
fn process_based_msgrate_finishes_on_tcp() {
    for backend in [BackendKind::Lci, BackendKind::Mpi, BackendKind::Gasnet] {
        finishes(&format!("fig2 {backend:?}"), move || msgrate_process_based(backend, TCP, 2, 50));
    }
}

#[test]
fn bandwidth_finishes_on_tcp() {
    // 64 KiB takes the rendezvous path, 1 KiB the eager one.
    for (backend, mode) in [
        (BackendKind::Lci, ResourceMode::Dedicated(2)),
        (BackendKind::Vci, ResourceMode::Dedicated(2)),
        (BackendKind::Lci, ResourceMode::Shared),
        (BackendKind::Mpi, ResourceMode::Shared),
    ] {
        for size in [1 << 10, 64 << 10] {
            finishes(&format!("fig4 {backend:?} {mode:?} {size} B"), move || {
                bandwidth_thread_based(backend, TCP, mode, 2, size, 4)
            });
        }
    }
}
