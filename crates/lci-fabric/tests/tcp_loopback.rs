//! What only the tcp wire can be asked: two ranks in one process,
//! connected by real kernel sockets (the in-process mesh the fabric
//! builds lazily), so frames cross `writev`/`readv` and the stream codec
//! without needing a multi-process launch. The device contract itself
//! (completions, ordering, parking, teardown) is `wire_conformance.rs`,
//! which runs the same cases over shm and tcp.
//!
//! The headline test is syscall amortization: a burst of sends queued
//! between two polls must leave in far fewer `writev` calls than frames,
//! read off the `tcp_writev_frames / tcp_writev_calls` gather fill.
#![cfg(unix)]

mod common;

use common::{pair, poll_until, post_packet_recv};
use lci_fabric::types::CqeKind;
use lci_fabric::DeviceConfig;

#[test]
fn a_send_to_a_peer_crosses_the_socket() {
    let (d0, d1) = pair(DeviceConfig::tcp());
    let mut rbuf = vec![0u8; 64];
    post_packet_recv(&d1, &mut rbuf, 42);
    d0.post_send(1, 0, &[1, 2, 3], 0xAB, 7).unwrap();
    let _ = poll_until(&d0, 1);
    let cqes = poll_until(&d1, 1);
    assert_eq!(cqes[0].kind, CqeKind::RecvDone);
    assert_eq!(&rbuf[..3], &[1, 2, 3]);

    let ts = d0.transport_stats();
    assert!(ts.tcp_writev_calls > 0, "nothing crossed the socket");
}

#[test]
fn self_send_skips_the_socket() {
    let (d0, _d1) = pair(DeviceConfig::tcp());
    let mut rbuf = vec![0u8; 16];
    post_packet_recv(&d0, &mut rbuf, 5);
    d0.post_send(0, 0, b"self", 1, 2).unwrap();
    let cqes = poll_until(&d0, 2);
    assert!(cqes.iter().any(|c| c.kind == CqeKind::SendDone));
    assert!(cqes.iter().any(|c| c.kind == CqeKind::RecvDone));
    assert_eq!(&rbuf[..4], b"self");
    assert_eq!(d0.transport_stats().tcp_writev_calls, 0, "self-sends must not hit the kernel");
}

/// Syscall amortization, counter edition: a 256-send burst posted
/// without polling (so the per-peer queue fills exactly as it does
/// between an engine's polls) ships every frame exactly once and
/// gathers at least two frames per productive `writev`. (The wall-clock
/// side was measured against a one-write-per-frame path at PR 9 — 2.6x
/// msgrate on a 4-process stream, EXPERIMENTS.md — which was then
/// removed.)
#[test]
fn writev_batching_fill_ablation() {
    const BURST: usize = 256;
    let (d0, d1) = pair(DeviceConfig::tcp());
    let mut rbufs: Vec<Vec<u8>> = (0..BURST).map(|_| vec![0u8; 64]).collect();
    for (i, b) in rbufs.iter_mut().enumerate() {
        post_packet_recv(&d1, b, i as u64);
    }
    for i in 0..BURST {
        d0.post_send(1, 0, &[i as u8; 32], i as u64, i as u64).unwrap();
    }
    let _ = poll_until(&d0, BURST); // SendDones + flush
    let cqes = poll_until(&d1, BURST);
    assert_eq!(cqes.len(), BURST);
    let ts = d0.transport_stats();
    assert_eq!(ts.tcp_writev_frames, BURST as u64, "every frame ships exactly once");
    let fill = ts.tcp_writev_frames as f64 / ts.tcp_writev_calls as f64;
    assert!(
        fill >= 2.0,
        "gather fill {fill:.2} ({} frames / {} writevs) below the 2x amortization floor",
        ts.tcp_writev_frames,
        ts.tcp_writev_calls
    );
}
