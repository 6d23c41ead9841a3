//! What only the inside of the tcp wire can be asked: a socket whose
//! send buffer was shrunk, and the capacities of the stream buffer and
//! the slab. What the device contract can see is
//! `tests/tcp_loopback.rs`.

use super::*;
use crate::backend::{DeviceConfig, NetContext, NetDevice};
use crate::fabric::Fabric;
use crate::types::{CqeKind, RecvBufDesc};
use std::time::{Duration, Instant};

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
    // Only this thread writes: the frames are counted before rank 1 can
    // have read their last byte.
    assert_eq!(d0.outbound_pending(), 0);
    let ts = d0.transport_stats();
    assert_eq!(ts.tcp_writev_frames, N as u64);
    assert!(ts.tcp_writev_calls > N as u64, "{} writes: nothing was torn", ts.tcp_writev_calls);
}

/// Warm traffic stays inside what the connection was built with: after
/// window-32 exchanges in both directions the stream buffers and the
/// slabs have the capacity they had at set-up — a tcp frame is built in
/// the stream buffer and lent from the slab.
#[test]
fn a_warm_exchange_keeps_every_capacity() {
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
    let frames = d0.transport_stats().tcp_writev_frames + d1.transport_stats().tcp_writev_frames;
    assert_eq!(frames, 64 * WINDOW as u64);
}

/// A peer's last frame and its hang-up can reach the socket before this
/// rank first asks epoll, and then one edge reports both. The drain
/// reads the frame, and must still find the EOF behind it: a few
/// bounded drains deliver the frame and mark the peer dead. (Were a
/// short read to clear `readable` for good, the EOF would wait for an
/// edge that never comes, and a rank waiting to learn of the death
/// would wait forever.) The order is forced, not raced: `poll(2)`,
/// which consumes no edge, first sees the hang-up on rank 0's socket.
#[cfg(target_os = "linux")]
#[test]
fn a_last_frame_and_its_hang_up_in_one_edge_mark_the_peer_dead() {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, n: u64, timeout_ms: i32) -> i32;
    }
    const POLLRDHUP: i16 = 0x2000;
    let (fabric, d0, d1) = pair();
    let (st0, st1) = (fabric.tcp_fabric().state(0), fabric.tcp_fabric().state(1));
    let mut landing = [0u8; 64];
    post_recv(&d0, &mut landing, 7);
    d1.post_inject(0, 0, b"last words", 3).unwrap();
    let mut none = Vec::new();
    d1.poll_cq(&mut none, 8).unwrap();
    assert_eq!(d1.outbound_pending(), 0, "the frame did not leave at the poll");
    st1.conn(0).unwrap()._stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut pfd = PollFd { fd: st0.conn(1).unwrap().fd, events: POLLRDHUP, revents: 0 };
    // SAFETY: one valid `pollfd` for the duration of the call.
    assert_eq!(unsafe { poll(&mut pfd, 1, 10_000) }, 1, "the hang-up never reached rank 0");

    let mut got = Vec::new();
    for _ in 0..8 {
        d0.poll_cq(&mut got, 8).unwrap();
    }
    assert_eq!(got.iter().map(|c| (c.ctx, c.imm, c.len)).collect::<Vec<_>>(), [(7, 3, 10)]);
    assert_eq!(&landing[..10], b"last words");
    assert!(st0.peer_dead(1), "8 drains read the last frame but not the hang-up behind it");
}
