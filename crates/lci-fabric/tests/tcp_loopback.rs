//! In-process loopback tests for the tcp backend: two ranks in one
//! process, connected by real kernel sockets (the in-process mesh the
//! fabric builds lazily), so frames cross `writev`/`readv` and the
//! stream codec without needing a multi-process launch.
//!
//! The headline test is the syscall-amortization ablation: the same
//! burst of sends with vectored write batching on vs off, compared by
//! the `tcp_writev_frames / tcp_writev_calls` gather fill — batching
//! must ship many frames per syscall, the ablation exactly one.
#![cfg(unix)]

use lci_fabric::backend::{NetContext, NetDevice};
use lci_fabric::types::{CqeKind, RecvBufDesc};
use lci_fabric::{Cqe, DeviceConfig, Fabric};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pair(cfg: DeviceConfig) -> (Arc<dyn NetDevice>, Arc<dyn NetDevice>) {
    let fabric = Fabric::new(2);
    let d0 = NetContext::new(fabric.clone(), 0).create_device(cfg);
    let d1 = NetContext::new(fabric, 1).create_device(cfg);
    (d0, d1)
}

/// Polls `dev` until `want` completions arrive (sockets are async even
/// on loopback: the peer's bytes land when the kernel says so).
fn poll_until(dev: &Arc<dyn NetDevice>, want: usize) -> Vec<Cqe> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut cqes = Vec::new();
    while cqes.len() < want {
        dev.poll_cq(&mut cqes, 64).unwrap();
        assert!(Instant::now() < deadline, "timed out at {}/{want} completions", cqes.len());
        std::thread::yield_now();
    }
    cqes
}

fn post_packet_recv(dev: &Arc<dyn NetDevice>, buf: &mut [u8], ctx: u64) {
    // SAFETY: test keeps buf alive and unaliased until completion.
    let desc = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), ctx) };
    dev.post_recv(desc).unwrap();
}

#[test]
fn send_recv_roundtrip_over_sockets() {
    let (d0, d1) = pair(DeviceConfig::tcp());
    let mut rbuf = vec![0u8; 64];
    post_packet_recv(&d1, &mut rbuf, 42);
    d0.post_send(1, 0, &[1, 2, 3], 0xAB, 7).unwrap();

    let cqes = poll_until(&d0, 1);
    assert_eq!(cqes[0].kind, CqeKind::SendDone);
    assert_eq!(cqes[0].ctx, 7);

    let cqes = poll_until(&d1, 1);
    assert_eq!(cqes[0].kind, CqeKind::RecvDone);
    assert_eq!(cqes[0].ctx, 42);
    assert_eq!(cqes[0].imm, 0xAB);
    assert_eq!(cqes[0].len, 3);
    assert_eq!(cqes[0].src_rank, 0);
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

#[test]
fn rdma_write_with_imm_over_sockets() {
    let (d0, d1) = pair(DeviceConfig::tcp());
    let target = [0u8; 128];
    let mr = d1.register(target.as_ptr(), target.len()).unwrap();
    let mut notif = vec![0u8; 8];
    post_packet_recv(&d1, &mut notif, 9);

    d0.post_write(1, 0, &[5u8; 16], mr.rkey, 32, Some(0x77), 3).unwrap();

    let cqes = poll_until(&d0, 1);
    assert_eq!(cqes[0].kind, CqeKind::WriteDone);
    assert_eq!(cqes[0].ctx, 3);

    let cqes = poll_until(&d1, 1);
    assert_eq!(cqes[0].kind, CqeKind::WriteImmRecv);
    assert_eq!(cqes[0].imm, 0x77);
    assert_eq!(&target[32..48], &[5u8; 16]);
}

#[test]
fn rdma_read_over_sockets() {
    let (d0, d1) = pair(DeviceConfig::tcp());
    let src: Vec<u8> = (0..64).collect();
    let mr = d1.register(src.as_ptr(), src.len()).unwrap();

    let mut dst = vec![0u8; 16];
    // SAFETY: dst outlives the read completion below.
    let desc = unsafe { RecvBufDesc::new(dst.as_mut_ptr(), dst.len(), 11) };
    d0.post_read(1, desc, mr.rkey, 8).unwrap();

    // The READ_REQ/READ_RESP exchange needs the responder polling too.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut cqes = Vec::new();
    let mut other = Vec::new();
    while cqes.is_empty() {
        d0.poll_cq(&mut cqes, 16).unwrap();
        d1.poll_cq(&mut other, 16).unwrap();
        assert!(Instant::now() < deadline, "read never completed");
    }
    assert_eq!(cqes[0].kind, CqeKind::ReadDone);
    assert_eq!(cqes[0].ctx, 11);
    assert_eq!(cqes[0].len, 16);
    assert_eq!(&dst[..], &src[8..24]);
}

/// Runs one 256-send burst (posted without polling, so the per-peer
/// queue fills) and returns `(writev_calls, writev_frames)` after
/// everything delivered.
fn burst_counters(batch: bool) -> (u64, u64) {
    const BURST: usize = 256;
    let (d0, d1) = pair(DeviceConfig::tcp().with_tcp_batch(batch));
    let mut rbufs: Vec<Vec<u8>> = (0..BURST).map(|_| vec![0u8; 64]).collect();
    for (i, b) in rbufs.iter_mut().enumerate() {
        post_packet_recv(&d1, b, i as u64);
    }
    // Queue the whole burst before any progress call: frames accumulate
    // in the send queue exactly as they do between an engine's polls.
    for i in 0..BURST {
        d0.post_send(1, 0, &[i as u8; 32], i as u64, i as u64).unwrap();
    }
    let _ = poll_until(&d0, BURST); // SendDones + flush
    let cqes = poll_until(&d1, BURST);
    assert_eq!(cqes.len(), BURST);
    let ts = d0.transport_stats();
    assert_eq!(ts.tcp_writev_frames, BURST as u64, "every frame ships exactly once");
    (ts.tcp_writev_calls, ts.tcp_writev_frames)
}

/// The tentpole ablation, counter edition: batching gathers many frames
/// per productive syscall; the one-write-per-frame ablation pins the
/// fill at exactly 1.0. (The wall-clock side of this — ≥2x message rate
/// on a 4-process stream — is measured by the `shm_scale` bench and
/// checked in CI.)
#[test]
fn writev_batching_fill_ablation() {
    let (calls_b, frames_b) = burst_counters(true);
    let (calls_u, frames_u) = burst_counters(false);
    assert_eq!(calls_u, frames_u, "unbatched mode must write one frame per syscall");
    let fill = frames_b as f64 / calls_b as f64;
    assert!(
        fill >= 2.0,
        "batched gather fill {fill:.2} ({frames_b} frames / {calls_b} writevs) \
         below the 2x amortization floor"
    );
    assert!(calls_b < calls_u, "batching must issue fewer syscalls ({calls_b} vs {calls_u})");
}

/// Teardown with queued-but-unflushed frames must not wedge: the
/// best-effort flush pushes them out so the peer still sees the bytes.
#[test]
fn teardown_flushes_pending_frames() {
    let (d0, d1) = pair(DeviceConfig::tcp());
    let mut rbuf = vec![0u8; 64];
    post_packet_recv(&d1, &mut rbuf, 1);
    d0.post_send(1, 0, b"bye", 0, 0).unwrap();
    let (cqes, _) = d0.teardown();
    assert!(cqes.iter().any(|c| c.kind == CqeKind::SendDone));
    let cqes = poll_until(&d1, 1);
    assert_eq!(cqes[0].kind, CqeKind::RecvDone);
    assert_eq!(&rbuf[..3], b"bye");
}

/// A routed send takes over the pooled buffer its frame was decoded
/// into; a frame that finds the RX ring full goes back to the inbox
/// front with that buffer. Eight frames against a 2-slot ring and no
/// posted receive: the receiver stages each payload exactly once however
/// often it re-routes the parked ones, and they come out in send order.
#[test]
fn rx_full_parks_frames_without_restaging() {
    const N: usize = 8;
    let (d0, d1) = pair(DeviceConfig::tcp().with_rx_capacity(2));
    let payload = |i: usize| vec![i as u8 + 1; 200];
    for i in 0..N {
        d0.post_send(1, 0, &payload(i), i as u64, 0).unwrap();
    }
    let _ = poll_until(&d0, N); // SendDones + flush
    let takes = |d: &Arc<dyn NetDevice>| d.buf_pool_stats().hits + d.buf_pool_stats().misses;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut none = Vec::new();
    while takes(&d1) < N as u64 {
        d1.poll_cq(&mut none, 16).unwrap();
        assert!(Instant::now() < deadline, "only {} of {N} frames decoded", takes(&d1));
        std::thread::yield_now();
    }
    for _ in 0..16 {
        d1.poll_cq(&mut none, 16).unwrap();
    }
    assert!(none.is_empty(), "nothing can complete without a posted receive");
    assert_eq!(takes(&d1), N as u64, "a re-routed frame was staged again");

    let mut rbufs: Vec<Vec<u8>> = (0..N).map(|_| vec![0u8; 256]).collect();
    for (i, b) in rbufs.iter_mut().enumerate() {
        post_packet_recv(&d1, b, i as u64);
    }
    let cqes = poll_until(&d1, N);
    for (i, c) in cqes.iter().enumerate() {
        assert_eq!((c.kind, c.ctx, c.imm), (CqeKind::RecvDone, i as u64, i as u64));
        assert_eq!(&rbufs[i][..c.len], &payload(i)[..]);
    }
}
