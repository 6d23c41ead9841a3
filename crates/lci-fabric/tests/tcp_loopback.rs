//! What only the tcp wire can be asked: two ranks in one process,
//! connected by real kernel sockets (the in-process mesh the fabric
//! builds lazily), so frames cross `writev`/`readv` and the stream codec
//! without needing a multi-process launch. The device contract itself
//! (completions, ordering, parking, teardown) is `wire_conformance.rs`,
//! which runs the same cases over shm and tcp.
//!
//! The headline test is syscall amortization: a burst of sends queued
//! between two polls must leave in far fewer `writev` calls than frames,
//! read off the `tcp_writev_frames / tcp_writev_calls` gather fill. The
//! rest hold the wire's two promises about who moves it: whoever polls
//! does (two pollers of one rank race for its sockets and lose
//! nothing), and a poster that stops polling is backstopped by the
//! rank's timer thread. What needs the wire's insides (a shrunk
//! `SO_SNDBUF`, buffer capacities, the bridge's own teardown) is in
//! `src/tcp/tests.rs`.
#![cfg(unix)]

mod common;

use common::{pair, poll_until, post_packet_recv, Sink, DEADLINE};
use lci_fabric::backend::NetContext;
use lci_fabric::types::{CqeKind, NetError, RetryReason};
use lci_fabric::{DeviceConfig, Fabric};
use std::time::{Duration, Instant};

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

/// The byte bound of a connection's stream buffer: 64 KiB frames posted
/// at a peer that reads nothing are taken until socket buffers and
/// stream buffer are full, then refused with `Retry(RxFull)` — and a
/// refused frame leaves nothing of itself queued. Once the peer reads,
/// everything accepted arrives in order, each frame shipped once.
#[test]
fn a_full_stream_buffer_refuses_with_rx_full_and_queues_nothing_of_the_refused_frame() {
    const LEN: usize = 64 << 10;
    let (d0, d1) = pair(DeviceConfig::tcp());
    let post = |i: u64| d0.post_inject(1, 0, &vec![i as u8; LEN], i);
    let full = NetError::Retry(RetryReason::RxFull);
    let mut posted = 0u64;
    loop {
        match post(posted) {
            Ok(()) => posted += 1,
            // The backstop looked at the connection just then.
            Err(NetError::Retry(RetryReason::LockBusy)) => {}
            Err(e) => break assert_eq!(e, full),
        }
        assert!(posted < 4096, "8 MiB of queue and a loopback socket took 256 MiB");
    }
    let queued = d0.outbound_pending();
    assert!(queued >= (8 << 20) / (LEN + 64), "refused at {queued} queued frames");
    for _ in 0..4 {
        match post(posted) {
            Err(NetError::Retry(RetryReason::LockBusy)) => {}
            other => assert_eq!(other, Err(full.clone())),
        }
        assert_eq!(d0.outbound_pending(), queued, "a refused frame left something queued");
    }

    let mut sink = Sink::new(&d1, LEN, |i| vec![i as u8; LEN]);
    let (mut none, deadline) = (Vec::new(), Instant::now() + DEADLINE);
    while sink.next < posted {
        d0.poll_cq(&mut none, 8).unwrap();
        sink.drain();
        assert!(Instant::now() < deadline, "stuck at {}/{posted} frames", sink.next);
    }
    assert!(none.is_empty(), "an inject completed something");
    // The last write may have been the backstop's, counted after the
    // bytes could be read.
    while d0.outbound_pending() > 0 {
        std::thread::yield_now();
    }
    assert_eq!(d0.transport_stats().tcp_writev_frames, posted);
}

/// A rank that posts and never polls again still has its frames
/// delivered: the rank's timer thread flushes a stream nobody has
/// written for a whole nap. Its naps bound the delay to a few tens of
/// milliseconds (20 ms idle, 1 ms once it has seen the frame); the best
/// of three posts must make 50 ms, so that one descheduling of this test
/// does not fail it.
#[test]
fn a_poster_that_never_polls_again_is_flushed_by_the_backstop() {
    let (d0, d1) = pair(DeviceConfig::tcp());
    let mut sink = Sink::new(&d1, 64, |i| vec![i as u8; 40]);
    let mut best = Duration::MAX;
    for i in 0..3u64 {
        // `LockBusy`: the backstop is still inside its last flush.
        while let Err(e) = d0.post_inject(1, 0, &[i as u8; 40], i) {
            assert_eq!(e, NetError::Retry(RetryReason::LockBusy));
        }
        let posted = Instant::now();
        while sink.next <= i {
            sink.drain();
            assert!(posted.elapsed() < DEADLINE, "message {i} was never flushed");
            std::thread::yield_now();
        }
        best = best.min(posted.elapsed());
    }
    assert!(best < Duration::from_millis(50), "the backstop took {best:?} at best");
    // The bytes can be read before the writer has counted them.
    while d0.outbound_pending() > 0 {
        std::thread::yield_now();
    }
    assert_eq!(d0.transport_stats().tcp_writev_frames, 3);
}

/// The same with a socket that blocks: 12 MiB posted by a rank that
/// never polls, toward a peer that starts reading late. Nobody on the
/// posting rank asks its sockets whether the blocked one drained — its
/// drains would have — so the backstop asks before it flushes, and
/// every frame arrives, in order.
#[test]
fn a_blocked_stream_whose_poster_stopped_polling_still_drains() {
    const LEN: usize = 64 << 10;
    let (d0, d1) = pair(DeviceConfig::tcp());
    let mut posted = 0u64;
    let deadline = Instant::now() + DEADLINE;
    while posted < 192 {
        match d0.post_inject(1, 0, &vec![posted as u8; LEN], posted) {
            Ok(()) => posted += 1,
            // Full or under the backstop's flush: it makes room only once
            // the peer reads, so stop at what went in.
            Err(NetError::Retry(RetryReason::LockBusy)) => {}
            Err(NetError::Retry(RetryReason::RxFull)) => break,
            Err(e) => panic!("{e:?}"),
        }
        assert!(Instant::now() < deadline);
    }
    assert!(posted >= 128, "only {posted} frames fit");
    let mut sink = Sink::new(&d1, LEN, |i| vec![i as u8; LEN]);
    while sink.next < posted {
        sink.drain();
        assert!(Instant::now() < deadline, "stuck at {}/{posted} frames", sink.next);
        std::thread::yield_now();
    }
    while d0.outbound_pending() > 0 {
        std::thread::yield_now();
    }
    assert_eq!(d0.transport_stats().tcp_writev_frames, posted);
}

/// Whoever polls asks the sockets, so two pollers of one rank race for
/// them: each of rank 1's two devices is polled by a thread of its own
/// while rank 0 streams 100 000 eight-byte frames at them in seeded
/// bursts. Either poller may get the readiness edge, read the socket
/// (clearing `readable` first — the race the clear-then-read order is
/// for) and route the other's frames. Nothing is lost, duplicated or
/// reordered per destination, and nothing is left behind.
#[test]
fn two_pollers_of_one_rank_lose_and_reorder_nothing() {
    const FRAMES: u64 = 100_000;
    const SEED: u64 = 0x22_C0FFEE;
    let fabric = Fabric::new(2);
    let d0 = NetContext::new(fabric.clone(), 0).create_device(DeviceConfig::tcp());
    let ctx1 = NetContext::new(fabric, 1);
    let targets =
        [ctx1.create_device(DeviceConfig::tcp()), ctx1.create_device(DeviceConfig::tcp())];
    // xorshift64: which device a frame is for and how long a burst runs
    // before the sender polls (flushes).
    let mut rng = SEED;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let plan: Vec<(usize, bool)> =
        (0..FRAMES).map(|_| ((next() % 2) as usize, next() % 48 == 0)).collect();
    let want = [0, 1].map(|d| plan.iter().filter(|p| p.0 == d).count() as u64);

    std::thread::scope(|s| {
        for (dev, want) in targets.iter().zip(want) {
            s.spawn(move || {
                let mut sink = Sink::new(dev, 64, |i| vec![i as u8; 8]);
                let deadline = Instant::now() + 3 * DEADLINE;
                while sink.next < want {
                    sink.drain();
                    assert!(Instant::now() < deadline, "seed {SEED:#x}: {}/{want}", sink.next);
                }
                for _ in 0..8 {
                    sink.drain();
                }
                assert_eq!(sink.next, want, "seed {SEED:#x}: a frame too many");
            });
        }
        let mut seq = [0u64; 2];
        let mut none = Vec::new();
        let deadline = Instant::now() + 3 * DEADLINE;
        for &(dev, flush) in &plan {
            // The payload is what `Sink` expects: the low byte of the
            // per-destination sequence number the immediate carries.
            while let Err(e) = d0.post_inject(1, dev, &[seq[dev] as u8; 8], seq[dev]) {
                assert!(e.is_retry(), "seed {SEED:#x}: {e:?}");
                assert!(Instant::now() < deadline, "seed {SEED:#x}: refused for ever at {seq:?}");
                d0.poll_cq(&mut none, 8).unwrap();
            }
            seq[dev] += 1;
            if flush {
                d0.poll_cq(&mut none, 8).unwrap();
            }
        }
        while d0.outbound_pending() > 0 {
            d0.poll_cq(&mut none, 8).unwrap();
            assert!(Instant::now() < deadline, "seed {SEED:#x}: the sender never drained");
        }
    });
    assert_eq!(d0.transport_stats().tcp_writev_frames, FRAMES);
    assert_eq!(targets[0].inbound_pending() + targets[1].inbound_pending(), 0);
}
