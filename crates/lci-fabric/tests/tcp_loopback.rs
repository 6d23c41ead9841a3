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
//! rest hold the wire's promise about who moves it: whoever polls
//! does, and nobody else (two pollers of one rank race for its sockets
//! and lose nothing; a frame whose poster stops polling waits for its
//! rank's next poll). What needs the wire's insides (a shrunk
//! `SO_SNDBUF`, buffer capacities) is in `src/tcp/tests.rs`.
#![cfg(unix)]

mod common;

use common::{pair, poll_until, post_packet_recv, Sink, DEADLINE};
use lci_fabric::backend::{NetContext, NetDevice};
use lci_fabric::types::{CqeKind, NetError, RetryReason};
use lci_fabric::{DeviceConfig, Fabric};
use std::sync::Arc;
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
            Err(e) => break assert_eq!(e, full),
        }
        assert!(posted < 4096, "8 MiB of queue and a loopback socket took 256 MiB");
    }
    let queued = d0.outbound_pending();
    assert!(queued >= (8 << 20) / (LEN + 64), "refused at {queued} queued frames");
    for _ in 0..4 {
        assert_eq!(post(posted), Err(full.clone()));
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
    // Only this thread writes: the frames are counted before rank 1 can
    // have read their last byte.
    assert_eq!(d0.outbound_pending(), 0);
    assert_eq!(d0.transport_stats().tcp_writev_frames, posted);
}

/// Rank 1 polls for `quiet` without rank 0 polling: nothing more may
/// arrive, and rank 0's queue stays as it was.
fn nothing_arrives_while_rank_0_is_silent(
    sink: &mut Sink,
    d0: &Arc<dyn NetDevice>,
    quiet: Duration,
) {
    let (got, queued) = (sink.next, d0.outbound_pending());
    assert!(queued > 0, "nothing is queued on rank 0");
    let until = Instant::now() + quiet;
    while Instant::now() < until {
        sink.drain();
        assert_eq!(sink.next, got, "a frame left rank 0 while it was not polling");
        assert_eq!(d0.outbound_pending(), queued);
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A send the wire did not finish at its post leaves at a later poll of
/// its own rank, and nothing else moves it. Rank 0 posts a frame and
/// does not poll for 100 ms: the frame stays counted in
/// `outbound_pending`, and rank 1, polling all along, receives nothing.
/// Rank 0's next poll ships it. The same holds for a stream that hit
/// `EAGAIN`: 64 KiB frames posted until the stream refuses, rank 1
/// drains what the socket took, and the rest waits for rank 0's next
/// poll, which writes more.
#[test]
fn a_queued_frame_leaves_only_at_its_ranks_next_poll() {
    const LEN: usize = 64 << 10;
    const QUIET: Duration = Duration::from_millis(100);
    let body = |i: u64| vec![i as u8; if i == 0 { 40 } else { LEN }];
    let (d0, d1) = pair(DeviceConfig::tcp());
    let mut sink = Sink::new(&d1, LEN, body);
    let mut none = Vec::new();

    d0.post_inject(1, 0, &body(0), 0).unwrap();
    nothing_arrives_while_rank_0_is_silent(&mut sink, &d0, QUIET);
    d0.poll_cq(&mut none, 8).unwrap();
    assert_eq!(d0.outbound_pending(), 0, "one poll did not ship a 40 B frame");
    let deadline = Instant::now() + DEADLINE;
    while sink.next < 1 {
        sink.drain();
        assert!(Instant::now() < deadline, "the shipped frame never arrived");
    }

    let mut posted = 1u64;
    loop {
        match d0.post_inject(1, 0, &body(posted), posted) {
            Ok(()) => posted += 1,
            Err(e) => break assert_eq!(e, NetError::Retry(RetryReason::RxFull)),
        }
        assert!(posted < 4096, "8 MiB of queue and a loopback socket took 256 MiB");
    }
    // Rank 1 reads what the socket holds; rank 0's stream keeps the rest.
    let mut last = (sink.next, Instant::now());
    while last.1.elapsed() < QUIET {
        sink.drain();
        if sink.next != last.0 {
            last = (sink.next, Instant::now());
        }
        assert!(Instant::now() < deadline, "rank 1 never stopped receiving");
    }
    assert!(sink.next < posted, "the socket took all {posted} frames");
    nothing_arrives_while_rank_0_is_silent(&mut sink, &d0, QUIET);
    let (got, calls) = (sink.next, d0.transport_stats().tcp_writev_calls);
    d0.poll_cq(&mut none, 8).unwrap();
    assert!(d0.transport_stats().tcp_writev_calls > calls, "the poll wrote nothing");
    while sink.next == got {
        sink.drain();
        assert!(Instant::now() < deadline, "what the poll wrote never arrived");
    }
    sink.drain_until(posted, &d0);
    assert!(none.is_empty(), "an inject completed something");
    assert_eq!(d0.outbound_pending(), 0);
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
