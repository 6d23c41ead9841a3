//! What only the inside of the tcp wire can be asked: a socket whose
//! send buffer was shrunk, the capacities of the stream buffer and the
//! slab, and who drops a rank's state last. What the device contract
//! can see is `tests/tcp_loopback.rs`.

use super::*;
use crate::backend::{DeviceConfig, NetContext, NetDevice};
use crate::fabric::Fabric;
use crate::shm::ring::KIND_SEND;
use crate::types::{CqeKind, RecvBufDesc};
use std::sync::mpsc;
use std::time::Instant;

/// One tcp device on each of two ranks, with the fabric they share.
fn pair() -> (Arc<Fabric>, Arc<dyn NetDevice>, Arc<dyn NetDevice>) {
    let fabric = Fabric::new(2);
    let d0 = NetContext::new(fabric.clone(), 0).create_device(DeviceConfig::tcp());
    let d1 = NetContext::new(fabric.clone(), 1).create_device(DeviceConfig::tcp());
    (fabric, d0, d1)
}

fn post_recv(dev: &Arc<dyn NetDevice>, buf: &mut [u8], ctx: u64) {
    // SAFETY: every caller keeps `buf` alive and untouched until its
    // completion has been polled.
    dev.post_recv(unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), ctx) }).unwrap();
}

/// Partial writes: with the socket's send buffer shrunk to the kernel's
/// minimum and a receiver that starts polling late, sixteen 64 KiB
/// frames leave in many torn writes. Every byte arrives, in order, and
/// every frame is counted shipped exactly once.
#[cfg(target_os = "linux")]
#[test]
fn torn_writes_deliver_every_byte_in_order_and_count_every_frame_once() {
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const N: usize = 16;
    const LEN: usize = 64 << 10;
    let (fabric, d0, d1) = pair();
    let st0 = fabric.tcp_fabric().state(0);
    let tiny = 1i32; // the kernel rounds up to its minimum
                     // SAFETY: a live socket fd, an `int` option and its size.
    assert_eq!(unsafe { setsockopt(st0.conn(1).unwrap().fd, SOL_SOCKET, SO_SNDBUF, &tiny, 4) }, 0);

    let body = |i: usize| -> Vec<u8> { (0..LEN).map(|b| (b * 31 + i * 7) as u8).collect() };
    let mut landing: Vec<Vec<u8>> = (0..N).map(|_| vec![0u8; LEN]).collect();
    for (i, b) in landing.iter_mut().enumerate() {
        post_recv(&d1, b, i as u64);
    }
    for i in 0..N {
        d0.post_inject(1, 0, &body(i), i as u64).unwrap();
    }
    // The receiver polls late: the sender's first flushes find a socket
    // that takes a few KiB and then blocks.
    let mut none = Vec::new();
    for _ in 0..8 {
        d0.poll_cq(&mut none, 8).unwrap();
    }
    assert!(d0.outbound_pending() > 0, "1 MiB went through a minimal send buffer at once");
    let (mut got, deadline) = (Vec::new(), Instant::now() + Duration::from_secs(30));
    while got.len() < N {
        d0.poll_cq(&mut none, 8).unwrap();
        d1.poll_cq(&mut got, 64).unwrap();
        assert!(Instant::now() < deadline, "stuck at {}/{N} frames", got.len());
    }
    for (i, c) in got.iter().enumerate() {
        assert_eq!((c.kind, c.ctx, c.imm, c.len), (CqeKind::RecvDone, i as u64, i as u64, LEN));
        assert!(landing[i] == body(i), "frame {i} arrived with other bytes");
    }
    // The last write may have been the backstop's, counted after the
    // bytes could be read.
    while d0.outbound_pending() > 0 {
        std::thread::yield_now();
    }
    let ts = d0.transport_stats();
    assert_eq!(ts.tcp_writev_frames, N as u64);
    assert!(ts.tcp_writev_calls > N as u64, "{} writes: nothing was torn", ts.tcp_writev_calls);
}

/// Warm traffic stays inside what the connection was built with: after
/// window-32 exchanges in both directions the stream buffers and the
/// slabs have the capacity they had at set-up, and neither device's
/// pool has been asked for anything — a tcp frame is built in the
/// stream buffer and lent from the slab.
#[test]
fn a_warm_exchange_keeps_every_capacity_and_takes_nothing_from_the_pool() {
    const WINDOW: usize = 32;
    let (fabric, d0, d1) = pair();
    let (st0, st1) = (fabric.tcp_fabric().state(0), fabric.tcp_fabric().state(1));
    let capacities = || {
        let of = |st: &TcpRankState, peer| {
            let c = st.conn(peer).unwrap();
            (c.send.lock().stream.capacity(), c.recv.lock().capacity())
        };
        (of(&st0, 1), of(&st1, 0))
    };
    let built = capacities();
    assert_eq!(built.0 .0, STREAM_RESERVE);
    let pools = || (d0.buf_pool_stats(), d1.buf_pool_stats());
    let untouched = pools();

    let mut landing = vec![[0u8; 64]; 2 * WINDOW];
    let mut cqes = Vec::new();
    for round in 0..64u64 {
        let (src, dst) = if round % 2 == 0 { (&d0, &d1) } else { (&d1, &d0) };
        for (slot, b) in landing.iter_mut().enumerate().take(WINDOW) {
            post_recv(dst, b, slot as u64);
        }
        for i in 0..WINDOW as u64 {
            src.post_inject(dst.rank(), 0, &(round * 100 + i).to_le_bytes(), i).unwrap();
        }
        cqes.clear();
        let deadline = Instant::now() + Duration::from_secs(20);
        while cqes.len() < WINDOW {
            src.poll_cq(&mut cqes, 64).unwrap();
            dst.poll_cq(&mut cqes, 64).unwrap();
            assert!(Instant::now() < deadline, "round {round} stuck at {}", cqes.len());
        }
        assert!(cqes.iter().map(|c| c.imm).eq(0..WINDOW as u64), "round {round} out of order");
    }
    assert_eq!(capacities(), built);
    assert_eq!(pools(), untouched);
    let frames = d0.transport_stats().tcp_writev_frames + d1.transport_stats().tcp_writev_frames;
    assert_eq!(frames, 64 * WINDOW as u64);
}

/// The bridge holds the rank's state over each sweep, so its reference
/// can be the last one: `Drop` then runs on the bridge thread, which
/// must not try to join itself (the "failed to join thread" panic at
/// teardown). A stand-in thread takes the bridge's place — its handle is
/// the one the state holds — sweeps with a frame queued, and drops the
/// last reference from there.
#[test]
fn the_last_reference_dropped_inside_a_sweep_does_not_join_its_own_thread() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (_theirs, _) = listener.accept().unwrap();
    let state = TcpRankState::new(0, vec![None, Some(ours)]);
    let conn = state.conn(1).unwrap();
    let h = FrameHeader { kind: KIND_SEND, ..FrameHeader::default() };
    conn.append_locked(&mut conn.send.lock(), &state, &h, b"queued").unwrap();
    let real = state.bridge.lock().unwrap().take().expect("the bridge was spawned");

    let weak = Arc::downgrade(&state);
    let (held_tx, held_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let stand_in = std::thread::spawn(move || {
        let st = weak.upgrade().expect("the test still holds the state");
        held_tx.send(()).unwrap();
        go_rx.recv().unwrap();
        st.backstop_flush(); // first sighting
        st.backstop_flush(); // stale: flushed
        assert_eq!(st.outbound_pending(), 0, "the backstop did not flush");
        drop(st); // the last reference
        done_tx.send(()).unwrap();
    });
    held_rx.recv().unwrap();
    *state.bridge.lock().unwrap() = Some(stand_in);
    drop(state);
    go_tx.send(()).unwrap();
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the thread that dropped the last reference panicked joining itself");
    // The real bridge finds the state gone at its next look.
    real.thread().unpark();
    real.join().expect("the bridge left cleanly");
}
