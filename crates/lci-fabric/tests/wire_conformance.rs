//! The device contract every backend must keep, run over all four
//! presets: the same `NetDevice` calls, the same completions, whether
//! the bytes go through the in-memory wire of the two simulated
//! providers (`ibv`, `ofi` — one wire, two lock layouts), the shm rings
//! or loopback sockets. One core (`framed::FramedDevice`) serves them
//! all, so a case that passes on one preset and fails on another points
//! at that preset's `impl Wire` or its lock layout.
//!
//! It also holds the two ways a one-sided operation travels to the same
//! observable behaviour: the in-memory wire and in-process shm copy a
//! write or read straight to or from the peer's registered memory and
//! frame only a write's immediate (`Wire::LOCAL_DIRECT`), in-process tcp
//! frames every byte.
//!
//! Every case runs on every preset, but for five that say why not where
//! they are: one needs a wire that holds frames in front of the target
//! device (`buffers_on_its_own`), one needs a read that is framed
//! (`frames_local_rma`), and the last three need another process — a
//! device table the sender cannot see, memory in another address space,
//! a peer that exits — so they
//! re-execute this test binary as two worker processes (like `lcw`'s
//! `shm_smoke`) — over shm by default, over the tcp mesh with
//! `LCI_TRANSPORT=tcp`; the simulated providers live in one process
//! only. Every other case runs two ranks inside this process (four
//! where several senders meet at one device).
#![cfg(unix)]

mod common;

use common::{pair, poll_until, post_packet_recv, Sink, DEADLINE};
use lci_fabric::backend::{NetContext, NetDevice};
use lci_fabric::bootstrap::{self, test_child_args, Launch};
use lci_fabric::sync::LockDiscipline;
use lci_fabric::types::{CqeKind, NetError, NetResult, RecvBufDesc, RetryReason};
use lci_fabric::{BackendKind, DeviceConfig, Fabric, RegCacheStats, Rkey};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn wires() -> [DeviceConfig; 4] {
    [DeviceConfig::ibv(), DeviceConfig::ofi(), DeviceConfig::shm(), DeviceConfig::tcp()]
}

/// Sends `fill` from `dev` to device 0 of the other rank, immediates
/// counting up from 0, until the path there is full; returns how many
/// went out. Polling `dev` reaps SendDones and flushes what the wire
/// will still take: refused again after that, five times over, means
/// full. On the in-memory wire the path is the target's posted
/// receives, so the caller posts some first.
fn fill_until_refused(dev: &Arc<dyn NetDevice>, fill: &[u8]) -> u64 {
    fill_until_refused_by(dev, |imm| dev.post_send(1 - dev.rank(), 0, fill, imm, 0))
}

fn fill_until_refused_by(dev: &Arc<dyn NetDevice>, post: impl Fn(u64) -> NetResult<()>) -> u64 {
    let mut scratch = Vec::new();
    let (mut sent, mut refused) = (0u64, 0);
    while refused < 5 {
        match post(sent) {
            Ok(()) => (sent, refused) = (sent + 1, 0),
            Err(NetError::Retry(_)) => {
                refused += 1;
                scratch.clear();
                dev.poll_cq(&mut scratch, 64).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("filler send failed: {e:?}"),
        }
    }
    assert!(sent > 0);
    sent
}

/// Whether a write or read between two ranks of one process crosses
/// `cfg`'s wire in frames (tcp) or is copied in place at post time (the
/// in-memory wire, shm).
fn frames_local_rma(cfg: &DeviceConfig) -> bool {
    cfg.backend == BackendKind::Tcp
}

/// Whether `cfg`'s wire holds frames of its own (ring slots, socket
/// buffers) in front of the target device. The in-memory wire does not —
/// the post lands a frame in a posted receive — so there a target with
/// no receive posted refuses the post itself instead of parking a frame.
fn buffers_on_its_own(cfg: &DeviceConfig) -> bool {
    matches!(cfg.backend, BackendKind::Shm | BackendKind::Tcp)
}

#[test]
fn send_recv_roundtrip() {
    for cfg in wires() {
        let (d0, d1) = pair(cfg);
        let mut rbuf = vec![0u8; 64];
        post_packet_recv(&d1, &mut rbuf, 42);
        d0.post_send(1, 0, &[1, 2, 3], 0xAB, 7).unwrap();

        let cqes = poll_until(&d0, 1);
        assert_eq!((cqes[0].kind, cqes[0].ctx), (CqeKind::SendDone, 7));

        let cqes = poll_until(&d1, 1);
        assert_eq!(cqes[0].kind, CqeKind::RecvDone);
        assert_eq!((cqes[0].ctx, cqes[0].imm, cqes[0].len), (42, 0xAB, 3));
        assert_eq!((cqes[0].src_rank, cqes[0].src_dev), (0, 0));
        assert_eq!(&rbuf[..3], &[1, 2, 3]);
    }
}

/// Sends, a write-with-imm and a read whose target is the posting rank
/// itself, whether the wire has a channel to itself (shm) or the core
/// routes them in place (tcp).
#[test]
fn self_target_send_write_and_read() {
    for cfg in wires() {
        let (d0, _d1) = pair(cfg);
        let mut rbuf = vec![0u8; 16];
        post_packet_recv(&d0, &mut rbuf, 5);
        d0.post_send(0, 0, b"self", 1, 2).unwrap();
        let cqes = poll_until(&d0, 2);
        assert!(cqes.iter().any(|c| c.kind == CqeKind::SendDone && c.ctx == 2));
        assert!(cqes.iter().any(|c| c.kind == CqeKind::RecvDone && c.ctx == 5 && c.imm == 1));
        assert_eq!(&rbuf[..4], b"self");

        let region = [0u8; 64];
        let mr = d0.register(region.as_ptr(), region.len()).unwrap();
        let mut notif = vec![0u8; 8];
        post_packet_recv(&d0, &mut notif, 6);
        d0.post_write(0, 0, &[9u8; 8], mr.rkey, 16, Some(0x55), 3).unwrap();
        let cqes = poll_until(&d0, 2);
        assert!(cqes.iter().any(|c| c.kind == CqeKind::WriteDone && c.ctx == 3));
        assert!(cqes.iter().any(|c| c.kind == CqeKind::WriteImmRecv && c.imm == 0x55));
        assert_eq!(&region[16..24], &[9u8; 8]);

        let mut dst = vec![0u8; 8];
        // SAFETY: dst outlives the read completion below.
        let desc = unsafe { RecvBufDesc::new(dst.as_mut_ptr(), dst.len(), 12) };
        d0.post_read(0, desc, mr.rkey, 16).unwrap();
        let cqes = poll_until(&d0, 1);
        assert_eq!((cqes[0].kind, cqes[0].ctx, cqes[0].len), (CqeKind::ReadDone, 12, 8));
        assert_eq!(dst, [9u8; 8]);
    }
}

/// A self-target send that finds no receive posted is refused before any
/// completion is staged where the post lands it (the in-memory wire, and
/// tcp, which routes a self-target in place), and goes through once a
/// receive is posted. On a wire with a self channel (shm) it waits there
/// instead; either way no `RecvDone` appears until a receive is posted.
#[test]
fn self_send_with_no_receive_posted_retries_without_a_completion() {
    for cfg in wires() {
        let (d0, _d1) = pair(cfg);
        let mut cqes = Vec::new();
        let first = d0.post_send(0, 0, &[1u8; 40], 0, 0);
        let refused = first.is_err();
        assert!(matches!(first, Ok(()) | Err(NetError::Retry(RetryReason::RxFull))), "{first:?}");
        assert_eq!(refused, cfg.backend != BackendKind::Shm, "{cfg:?}");
        for _ in 0..8 {
            d0.poll_cq(&mut cqes, 8).unwrap();
        }
        assert_eq!(cqes.len(), usize::from(!refused));
        assert!(cqes.iter().all(|c| c.kind == CqeKind::SendDone));

        let mut bufs = [vec![0u8; 64], vec![0u8; 64]];
        for (i, b) in bufs.iter_mut().enumerate() {
            post_packet_recv(&d0, b, i as u64);
        }
        if refused {
            d0.post_send(0, 0, &[1u8; 40], 0, 0).unwrap();
        }
        d0.post_send(0, 0, &[2u8; 40], 1, 1).unwrap();
        while cqes.len() < 4 {
            cqes.extend(poll_until(&d0, 1));
        }
        let recvs: Vec<_> = cqes.iter().filter(|c| c.kind == CqeKind::RecvDone).collect();
        assert_eq!(recvs.iter().map(|c| (c.ctx, c.imm)).collect::<Vec<_>>(), [(0, 0), (1, 1)]);
        assert_eq!((bufs[0][0], bufs[1][0]), (1, 2));
    }
}

#[test]
fn rdma_write_with_imm() {
    for cfg in wires() {
        let (d0, d1) = pair(cfg);
        let target = [0u8; 128];
        let mr = d1.register(target.as_ptr(), target.len()).unwrap();
        let mut notif = vec![0u8; 8];
        post_packet_recv(&d1, &mut notif, 9);

        d0.post_write(1, 0, &[5u8; 16], mr.rkey, 32, Some(0x77), 3).unwrap();

        let cqes = poll_until(&d0, 1);
        assert_eq!((cqes[0].kind, cqes[0].ctx), (CqeKind::WriteDone, 3));

        let cqes = poll_until(&d1, 1);
        assert_eq!((cqes[0].kind, cqes[0].imm), (CqeKind::WriteImmRecv, 0x77));
        assert_eq!(&target[32..48], &[5u8; 16]);

        // In-process the rkey is checked at post time.
        let err = d0.post_write(1, 0, &[0u8; 16], mr.rkey, 120, None, 0).unwrap_err();
        assert!(matches!(err, NetError::Fatal(_)));
    }
}

/// A wire has consumed a write's source when `post_write` returns: the
/// source is overwritten at once, and the target still lands the bytes
/// that were posted, for a write without an immediate and for one with.
#[test]
fn a_write_source_is_free_when_the_post_returns() {
    const LEN: usize = 64 << 10;
    let posted = |i: usize| -> Vec<u8> { (0..LEN).map(|j| (j * 7 + i) as u8).collect() };
    for cfg in wires() {
        let (d0, d1) = pair(cfg);
        let region = vec![0u8; 2 * LEN];
        let mr = d1.register(region.as_ptr(), region.len()).unwrap();
        let mut notif = vec![0u8; 8];
        post_packet_recv(&d1, &mut notif, 9);
        let mut src = vec![0u8; LEN];
        for (i, imm) in [None, Some(0x5A)].into_iter().enumerate() {
            src.copy_from_slice(&posted(i));
            d0.post_write(1, 0, &src, mr.rkey, i * LEN, imm, 20 + i as u64).unwrap();
            src.fill(0xEE);
        }

        // The write with the immediate lands behind the one without.
        let deadline = Instant::now() + DEADLINE;
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        while theirs.is_empty() {
            d0.poll_cq(&mut mine, 16).unwrap();
            d1.poll_cq(&mut theirs, 16).unwrap();
            assert!(Instant::now() < deadline, "the write never landed");
        }
        assert_eq!((theirs[0].kind, theirs[0].imm), (CqeKind::WriteImmRecv, 0x5A));
        for i in 0..2 {
            assert!(region[i * LEN..(i + 1) * LEN] == posted(i)[..], "{cfg:?}: write {i}");
        }
    }
}

#[test]
fn rdma_read() {
    for cfg in wires() {
        let (d0, d1) = pair(cfg);
        let src: Vec<u8> = (0..64).collect();
        let mr = d1.register(src.as_ptr(), src.len()).unwrap();

        let mut dst = vec![0u8; 16];
        // SAFETY: dst outlives the read completion below.
        let desc = unsafe { RecvBufDesc::new(dst.as_mut_ptr(), dst.len(), 11) };
        d0.post_read(1, desc, mr.rkey, 8).unwrap();

        // Where the read is framed, the READ_REQ/READ_RESP exchange needs
        // the responder polling too.
        let deadline = Instant::now() + DEADLINE;
        let mut cqes = Vec::new();
        let mut other = Vec::new();
        while cqes.is_empty() {
            d0.poll_cq(&mut cqes, 16).unwrap();
            d1.poll_cq(&mut other, 16).unwrap();
            assert!(Instant::now() < deadline, "read never completed");
        }
        assert_eq!((cqes[0].kind, cqes[0].ctx, cqes[0].len), (CqeKind::ReadDone, 11, 16));
        assert_eq!(&dst[..], &src[8..24]);
        assert!(other.is_empty(), "the responder sees no completion for a read");
    }
}

/// Teardown with frames the peer has not consumed yet must not wedge or
/// lose them: the posting side hands back its `SendDone`, its read and
/// its posted receives, and the peer still sees the bytes. A read is
/// only still *pending* at teardown where it is framed, and hands its
/// landing buffer back; toward memory the poster can address it
/// completed at post, so its `ReadDone` is among the completions.
#[test]
fn teardown_with_queued_frames() {
    for cfg in wires() {
        let (d0, d1) = pair(cfg);
        let mut rbuf = vec![0u8; 64];
        post_packet_recv(&d1, &mut rbuf, 1);
        d0.post_send(1, 0, b"bye", 0, 0).unwrap();

        let region = [0u8; 32];
        let mr = d1.register(region.as_ptr(), region.len()).unwrap();
        let mut dst = vec![0u8; 8];
        // SAFETY: dst outlives the device it is posted on.
        let read = unsafe { RecvBufDesc::new(dst.as_mut_ptr(), dst.len(), 77) };
        d0.post_read(1, read, mr.rkey, 0).unwrap();
        let mut own = vec![0u8; 8];
        post_packet_recv(&d0, &mut own, 78);

        let (cqes, descs) = d0.teardown();
        assert!(cqes.iter().any(|c| c.kind == CqeKind::SendDone));
        let read_pending = frames_local_rma(&cfg);
        let read_done = cqes.iter().any(|c| c.kind == CqeKind::ReadDone && c.ctx == 77);
        assert_eq!(read_done, !read_pending);
        let mut handed_back: Vec<u64> = descs.iter().map(|d| d.ctx).collect();
        handed_back.sort_unstable();
        assert_eq!(handed_back, if read_pending { vec![77, 78] } else { vec![78] });

        let cqes = poll_until(&d1, 1);
        assert_eq!(cqes[0].kind, CqeKind::RecvDone);
        assert_eq!(&rbuf[..3], b"bye");
    }
}

/// A frame that finds no receive posted waits at the head of its wire and
/// is never copied anywhere else, however often it is re-routed: on both
/// buffering wires eight frames and no posted receive complete nothing —
/// each wire lends the router its own storage (shm a ring slot, tcp a
/// slice of its reassembly slab) and the router lands a frame in a
/// posted receive or leaves it there — and once receives are posted the
/// messages come out in send order.
///
/// Only a wire that buffers on its own has a frame to park: on the
/// in-memory wire the first send is refused at the post
/// (`rnr_message_waits_for_its_receive` holds that side).
#[test]
fn rx_full_parks_frames_without_restaging_and_in_send_order() {
    const N: usize = 8;
    for cfg in wires().into_iter().filter(buffers_on_its_own) {
        let (d0, d1) = pair(cfg);
        let payload = |i: usize| vec![i as u8 + 1; 200];
        for i in 0..N {
            d0.post_send(1, 0, &payload(i), i as u64, 0).unwrap();
        }
        let _ = poll_until(&d0, N); // SendDones + flush
        let deadline = Instant::now() + DEADLINE;
        let mut none = Vec::new();
        while d1.inbound_pending() == 0 {
            d1.poll_cq(&mut none, 16).unwrap();
            assert!(Instant::now() < deadline, "no frame arrived");
            std::thread::yield_now();
        }
        for _ in 0..16 {
            d1.poll_cq(&mut none, 16).unwrap();
        }
        assert!(none.is_empty(), "nothing can complete without a posted receive");
        assert!(d1.inbound_pending() > 0, "the parked frames must keep a progress thread awake");

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
}

/// `post_read` whose response finds the way back to the requester busy:
/// the responder first fills its outbound path toward the requester
/// until the wire refuses more (the requester is not polling), so when
/// the read request arrives the 256 KiB response has no room and the
/// request parks at the head of the responder's inbound wire. Once the
/// requester drains, the read completes — exactly once, with the right
/// bytes — and every filler message arrives, in order.
///
/// Only a framed read has a response that can park, so this runs on the
/// wires that frame a read between in-process ranks.
#[test]
fn read_response_parks_behind_a_busy_return_path() {
    const FILL: usize = 64 << 10;
    const READ: usize = 256 << 10;
    for cfg in wires().into_iter().filter(frames_local_rma) {
        let (d0, d1) = pair(cfg);
        let fill = vec![0xF1u8; FILL];
        let sent = fill_until_refused(&d1, &fill);

        let src: Vec<u8> = (0..READ).map(|i| (i as u32).wrapping_mul(2654435761) as u8).collect();
        let mr = d1.register(src.as_ptr(), src.len()).unwrap();
        let mut dst = vec![0u8; READ];
        // SAFETY: dst outlives the read completion below.
        let desc = unsafe { RecvBufDesc::new(dst.as_mut_ptr(), dst.len(), 11) };
        d0.post_read(1, desc, mr.rkey, 0).unwrap();

        // One poll ships the request (a tcp post only appends it); then
        // the requester goes silent and the responder polls against a
        // full path.
        let mut cq0 = Vec::new();
        d0.poll_cq(&mut cq0, 64).unwrap();
        assert!(cq0.is_empty(), "the requester completed something early");
        let mut cq1 = Vec::new();
        for _ in 0..50 {
            d1.poll_cq(&mut cq1, 64).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(cq1.iter().all(|c| c.kind == CqeKind::SendDone));

        let mut rbuf = vec![0u8; FILL];
        post_packet_recv(&d0, &mut rbuf, 0);
        let (mut reads, mut next, mut settle) = (0, 0u64, 0);
        let deadline = Instant::now() + DEADLINE;
        // Keep polling a while after everything arrived: a duplicated
        // completion would show up then.
        while settle < 64 {
            d0.poll_cq(&mut cq0, 64).unwrap();
            for c in cq0.drain(..) {
                match c.kind {
                    CqeKind::ReadDone => {
                        assert_eq!((c.ctx, c.len), (11, READ));
                        reads += 1;
                    }
                    CqeKind::RecvDone => {
                        assert_eq!((c.imm, c.len), (next, FILL), "filler out of order");
                        assert!(rbuf.iter().all(|&b| b == 0xF1));
                        next += 1;
                        if next < sent {
                            rbuf.fill(0);
                            post_packet_recv(&d0, &mut rbuf, 0);
                        }
                    }
                    k => panic!("unexpected completion {k:?} on the requester"),
                }
            }
            cq1.clear();
            d1.poll_cq(&mut cq1, 64).unwrap();
            if reads >= 1 && next == sent {
                settle += 1;
            }
            assert!(Instant::now() < deadline, "stuck at {reads} reads, {next}/{sent} fillers");
        }
        assert_eq!(reads, 1, "the read must complete exactly once");
        assert_eq!(dst, src);
    }
}

/// A transfer shaped like a rendezvous — plain chunk writes, the last
/// one carrying the immediate — posted behind `K` sends: the target
/// polls the sends first, in order, then the notification, and finds
/// every chunk in place when it does. Where the poster addresses the
/// target's memory the chunks cost no frame at all (one header-only
/// frame for the whole transfer); where it does not, every byte is
/// framed. The counters say which, exactly.
#[test]
fn write_with_imm_arrives_behind_earlier_sends_with_its_bytes_in_place() {
    const K: usize = 5;
    const CHUNKS: usize = 8;
    const CHUNK: usize = 16 << 10;
    for cfg in wires() {
        let (d0, d1) = pair(cfg);
        let region = vec![0u8; CHUNKS * CHUNK];
        let mr = d1.register(region.as_ptr(), region.len()).unwrap();
        let mut rbufs: Vec<Vec<u8>> = (0..=K).map(|_| vec![0u8; 64]).collect();
        for (i, b) in rbufs.iter_mut().enumerate() {
            post_packet_recv(&d1, b, i as u64);
        }
        for i in 0..K {
            d0.post_send(1, 0, &[i as u8; 32], i as u64, 0).unwrap();
        }
        let chunk = |i: usize| vec![0xC0 + i as u8; CHUNK];
        for i in 0..CHUNKS {
            let imm = (i == CHUNKS - 1).then_some(0xF1);
            d0.post_write(1, 0, &chunk(i), mr.rkey, i * CHUNK, imm, 100 + i as u64).unwrap();
        }
        let total = (CHUNKS * CHUNK) as u64;
        let ts = d0.transport_stats();
        if frames_local_rma(&cfg) {
            assert_eq!((ts.rma_direct_bytes, ts.rma_framed_bytes), (0, total));
        } else {
            assert_eq!((ts.rma_direct_bytes, ts.rma_framed_bytes), (total, 0));
            // The in-memory wire has delivered the sends and the
            // notification into their receives at the post; on shm they
            // are frames in the ring until the target polls.
            let framed = if buffers_on_its_own(&cfg) { K + 1 } else { 0 };
            assert_eq!(d1.inbound_pending(), framed, "a chunk without an immediate cost a frame");
        }

        let cqes = poll_until(&d0, K + CHUNKS);
        let writes: Vec<u64> =
            cqes.iter().filter(|c| c.kind == CqeKind::WriteDone).map(|c| c.ctx).collect();
        assert_eq!(writes, (100..100 + CHUNKS as u64).collect::<Vec<_>>());

        let cqes = poll_until(&d1, K + 1);
        for (i, c) in cqes[..K].iter().enumerate() {
            assert_eq!((c.kind, c.ctx, c.imm), (CqeKind::RecvDone, i as u64, i as u64));
        }
        assert_eq!(
            (cqes[K].kind, cqes[K].ctx, cqes[K].imm),
            (CqeKind::WriteImmRecv, K as u64, 0xF1)
        );
        for i in 0..CHUNKS {
            assert_eq!(&region[i * CHUNK..(i + 1) * CHUNK], &chunk(i)[..], "chunk {i}");
        }
    }
}

/// A write-with-immediate whose notification the wire refuses (the path
/// to the target is full of sends it is not consuming) is `Retry`: no
/// `WriteDone` is staged and the target learns nothing. Once the target
/// drains, the same post succeeds and both completions arrive, once.
#[test]
fn refused_write_notification_retries_without_a_completion() {
    const FILL: usize = 64;
    for cfg in wires() {
        let (d0, d1) = pair(cfg);
        // The target consumes the fillers through a small set of
        // receives it re-posts as they complete.
        let mut rbufs: Vec<Vec<u8>> = (0..32).map(|_| vec![0u8; FILL]).collect();
        for (i, b) in rbufs.iter_mut().enumerate() {
            post_packet_recv(&d1, b, i as u64);
        }
        let fill = [0xF1u8; FILL];
        let sent = fill_until_refused(&d0, &fill);
        let region = [0u8; 64];
        let mr = d1.register(region.as_ptr(), region.len()).unwrap();
        let err = d0.post_write(1, 0, &[7u8; 16], mr.rkey, 8, Some(0xAB), 3).unwrap_err();
        assert!(matches!(err, NetError::Retry(_)), "expected a retry, got {err:?}");
        let mut cq0 = Vec::new();
        for _ in 0..8 {
            d0.poll_cq(&mut cq0, 64).unwrap();
        }
        assert!(cq0.iter().all(|c| c.kind == CqeKind::SendDone), "a refused write completed");
        let ts = d0.transport_stats();
        assert_eq!(ts.rma_direct_bytes + ts.rma_framed_bytes, 0, "a refused write was counted");

        let (mut got, mut cq1) = (0u64, Vec::new());
        let deadline = Instant::now() + DEADLINE;
        while got < sent {
            d0.poll_cq(&mut cq0, 64).unwrap(); // tcp flushes its queue here
            d1.poll_cq(&mut cq1, 64).unwrap();
            for c in cq1.drain(..) {
                assert_eq!((c.kind, c.imm, c.len), (CqeKind::RecvDone, got, FILL));
                got += 1;
                post_packet_recv(&d1, &mut rbufs[c.ctx as usize], c.ctx);
            }
            assert!(Instant::now() < deadline, "stuck at {got}/{sent} fillers");
        }

        cq0.clear();
        d0.post_write(1, 0, &[7u8; 16], mr.rkey, 8, Some(0xAB), 3).unwrap();
        let done = poll_until(&d0, 1);
        assert_eq!((done[0].kind, done[0].ctx), (CqeKind::WriteDone, 3));
        let note = poll_until(&d1, 1);
        assert_eq!((note[0].kind, note[0].imm), (CqeKind::WriteImmRecv, 0xAB));
        assert_eq!(&region[8..24], &[7u8; 16]);
        for _ in 0..8 {
            d0.poll_cq(&mut cq0, 64).unwrap();
            d1.poll_cq(&mut cq1, 64).unwrap();
        }
        assert!(cq0.is_empty() && cq1.is_empty(), "a completion was delivered twice");
    }
}

/// In one process the registration table is the poster's own: a write or
/// a read naming a deregistered, unknown or overrun region is fatal at
/// the post, on every wire, and leaves no completion behind.
#[test]
fn bad_rkey_is_fatal_at_post() {
    for cfg in wires() {
        let fabric = Fabric::new(2);
        let d0 = NetContext::new(fabric.clone(), 0).create_device(cfg);
        let _d1 = NetContext::new(fabric.clone(), 1).create_device(cfg);
        let region = [0u8; 64];
        // Straight in the fabric's table: a device's registration cache
        // would keep the region alive past `deregister`.
        let live = fabric.mem().register(1, region.as_ptr(), region.len());
        let dead = fabric.mem().register(1, region.as_ptr(), region.len());
        fabric.mem().deregister(&dead);
        let mut dst = vec![0u8; 32];
        for (rkey, offset) in [(dead.rkey, 0), (Rkey(9999), 0), (live.rkey, 48)] {
            let err = d0.post_write(1, 0, &[1u8; 32], rkey, offset, Some(1), 0).unwrap_err();
            assert!(matches!(err, NetError::Fatal(_)), "write to {rkey:?}+{offset}: {err:?}");
            // SAFETY: dst outlives the (refused) read.
            let desc = unsafe { RecvBufDesc::new(dst.as_mut_ptr(), dst.len(), 0) };
            let err = d0.post_read(1, desc, rkey, offset).unwrap_err();
            assert!(matches!(err, NetError::Fatal(_)), "read from {rkey:?}+{offset}: {err:?}");
        }
        let mut cqes = Vec::new();
        d0.poll_cq(&mut cqes, 16).unwrap();
        assert!(cqes.is_empty());
        assert_eq!(region, [0u8; 64]);
        assert_eq!(d0.teardown().1.len(), 0, "a refused read left its landing buffer pending");
    }
}

/// `post_recv_batch` posts every buffer under one call, receives are
/// consumed in posting order, and `posted_recvs()` counts them down.
#[test]
fn recv_batch_posts_all_and_is_consumed_in_posting_order() {
    const N: usize = 4;
    for cfg in wires() {
        let (d0, d1) = pair(cfg);
        let mut rbufs: Vec<Vec<u8>> = (0..N).map(|_| vec![0u8; 8]).collect();
        let descs: Vec<RecvBufDesc> = rbufs
            .iter_mut()
            .enumerate()
            // SAFETY: rbufs outlives every completion polled below.
            .map(|(i, b)| unsafe { RecvBufDesc::new(b.as_mut_ptr(), b.len(), i as u64) })
            .collect();
        assert_eq!(d1.post_recv_batch(&descs).unwrap(), N);
        assert_eq!(d1.posted_recvs(), N);
        for i in 0..N as u8 {
            d0.post_send(1, 0, &[i], i as u64, 0).unwrap();
        }
        let _ = poll_until(&d0, N); // SendDones + flush
        let cqes = poll_until(&d1, N);
        for (i, c) in cqes.iter().enumerate() {
            assert_eq!((c.kind, c.ctx, c.imm), (CqeKind::RecvDone, i as u64, i as u64));
            assert_eq!(rbufs[i][0], i as u8);
        }
        assert_eq!(d1.posted_recvs(), 0);
    }
}

/// Receiver not ready: a message that finds no posted receive is refused
/// at the post where the post lands it, and waits on the wire where the
/// wire buffers — counted by `inbound_pending()`, completing nothing
/// however often the target polls. Either way it is delivered once a
/// receive is posted (on the in-memory wire, posted again).
#[test]
fn rnr_message_waits_for_its_receive() {
    for cfg in wires() {
        let (d0, d1) = pair(cfg);
        let mut cqes = Vec::new();
        let buffered = buffers_on_its_own(&cfg);
        if buffered {
            d0.post_send(1, 0, b"hello", 3, 0).unwrap();
            let _ = poll_until(&d0, 1); // SendDone + flush
            let deadline = Instant::now() + DEADLINE;
            while d1.inbound_pending() == 0 {
                d1.poll_cq(&mut cqes, 8).unwrap();
                assert!(Instant::now() < deadline, "the message never arrived");
                std::thread::yield_now();
            }
        } else {
            let err = d0.post_send(1, 0, b"hello", 3, 0).unwrap_err();
            assert_eq!(err, NetError::Retry(RetryReason::RxFull), "{cfg:?}");
        }
        for _ in 0..8 {
            d1.poll_cq(&mut cqes, 8).unwrap();
            d0.poll_cq(&mut cqes, 8).unwrap();
        }
        assert!(cqes.is_empty(), "delivered or completed without a posted receive");
        assert_eq!(d1.inbound_pending() > 0, buffered, "a parked message keeps a poller awake");

        let mut rbuf = vec![0u8; 64];
        post_packet_recv(&d1, &mut rbuf, 1);
        if !buffered {
            d0.post_send(1, 0, b"hello", 3, 0).unwrap();
        }
        let cqes = poll_until(&d1, 1);
        assert_eq!((cqes[0].kind, cqes[0].ctx, cqes[0].imm), (CqeKind::RecvDone, 1, 3));
        assert_eq!(&rbuf[..5], b"hello");
    }
}

/// Several senders to one device: three threads, each with the device of
/// a rank of its own, send numbered 8 B messages to rank 0's device as
/// fast as it takes them, while its owner posts receives and polls —
/// with a write-with-immediate as every 16th message, and far fewer
/// receives than messages, so on the in-memory wire a sender's messages
/// go both ways: into a posted receive at the post, concurrently with
/// the owner's polls, or refused when none is posted. Nothing is lost or duplicated and each source's messages
/// arrive in the order it sent them (the per-source FIFO of the `Wire`
/// contract; across sources there is no order to keep). A refused post
/// says `RxFull`, or `QueueFull` once its own unpolled `SendDone`s fill
/// the staging ring — every lock is acquired blockingly here, so nothing
/// else can refuse — and leaves no completion: a sender polls exactly
/// one `SendDone` or `WriteDone` per message, in order.
#[test]
fn several_senders_to_one_device_arrive_complete_and_in_source_order() {
    const SENDERS: usize = 3;
    const PER_SENDER: u64 = 2000;
    const RECVS: usize = 16;
    let is_write = |i: u64| i % 16 == 15;
    for cfg in wires() {
        let cfg = cfg.with_discipline(LockDiscipline::Blocking);
        let fabric = Fabric::new(SENDERS + 1);
        let target = NetContext::new(fabric.clone(), 0).create_device(cfg);
        let region = [0u8; 8 * (SENDERS + 1)];
        let rkey = target.register(region.as_ptr(), region.len()).unwrap().rkey;
        let senders: Vec<_> =
            (1..=SENDERS).map(|r| NetContext::new(fabric.clone(), r).create_device(cfg)).collect();
        let start = Barrier::new(SENDERS + 1);
        let deadline = Instant::now() + 3 * DEADLINE;
        std::thread::scope(|s| {
            for dev in &senders {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let mut done = Vec::new();
                    let slot = 8 * dev.rank();
                    for i in 0..PER_SENDER {
                        let data = i.to_le_bytes();
                        let post = || match is_write(i) {
                            true => dev.post_write(0, 0, &data, rkey, slot, Some(i), i),
                            false => dev.post_send(0, 0, &data, i, i),
                        };
                        while let Err(e) = post() {
                            let full = [RetryReason::RxFull, RetryReason::QueueFull];
                            assert!(full.map(NetError::Retry).contains(&e), "{cfg:?}: {e:?}");
                            assert!(Instant::now() < deadline, "{cfg:?}: message {i} never posted");
                            dev.poll_cq(&mut done, 64).unwrap(); // flush what the wire holds
                            std::thread::yield_now();
                        }
                    }
                    while (done.len() as u64) < PER_SENDER {
                        dev.poll_cq(&mut done, 64).unwrap();
                        assert!(Instant::now() < deadline, "{cfg:?}: {} completions", done.len());
                    }
                    let kind = |i| if is_write(i) { CqeKind::WriteDone } else { CqeKind::SendDone };
                    let want = (0..PER_SENDER).map(|i| (kind(i), i));
                    assert!(done.iter().map(|c| (c.kind, c.ctx)).eq(want), "{cfg:?}");
                });
            }

            start.wait();
            let mut bufs = [[0u8; 8]; RECVS];
            for (slot, buf) in bufs.iter_mut().enumerate() {
                post_packet_recv(&target, buf, slot as u64);
            }
            let mut next = [0u64; SENDERS + 1];
            let mut cqes = Vec::new();
            while next[1..].iter().sum::<u64>() < SENDERS as u64 * PER_SENDER {
                cqes.clear();
                target.poll_cq(&mut cqes, 64).unwrap();
                for c in &cqes {
                    let slot = c.ctx as usize;
                    let n = match c.kind {
                        CqeKind::RecvDone => {
                            assert_eq!(c.len, 8, "{cfg:?}");
                            u64::from_le_bytes(bufs[slot])
                        }
                        CqeKind::WriteImmRecv => {
                            assert!(is_write(c.imm), "{cfg:?}: a send came as a write");
                            c.imm
                        }
                        k => panic!("{cfg:?}: unexpected {k:?} at the target"),
                    };
                    assert_eq!((n, c.imm), (next[c.src_rank], n), "{cfg:?}: from {}", c.src_rank);
                    next[c.src_rank] += 1;
                    post_packet_recv(&target, &mut bufs[slot], slot as u64);
                }
                assert!(Instant::now() < deadline, "{cfg:?}: stuck at {next:?}");
                std::thread::yield_now();
            }
            assert_eq!(next, [0, PER_SENDER, PER_SENDER, PER_SENDER], "{cfg:?}");
        });
        let mut extra = Vec::new();
        for _ in 0..8 {
            target.poll_cq(&mut extra, 64).unwrap();
        }
        assert!(extra.is_empty() && target.inbound_pending() == 0, "{cfg:?}: a message too many");
    }
}

/// A target *device index* is checked where a frame is addressed to it
/// and nowhere else. Rank 0 has two devices, rank 1 one. A send and a
/// write-with-immediate naming a device rank 1 has not created are
/// `Retry(PeerNotReady)` and leave no completion; a plain write naming
/// such a device and a read posted from rank 0's second device (whose
/// index rank 1 lacks) land in registered memory, name no device, and
/// complete with the right bytes. Once rank 1 creates the device, the
/// send goes through to it.
#[test]
fn a_device_index_is_checked_only_where_a_frame_is_addressed_to_it() {
    for cfg in wires() {
        let fabric = Fabric::new(2);
        let c0 = NetContext::new(fabric.clone(), 0);
        let c1 = NetContext::new(fabric, 1);
        let (_a, b, d1) = (c0.create_device(cfg), c0.create_device(cfg), c1.create_device(cfg));
        assert_eq!((b.dev_id(), d1.dev_id()), (1, 0));
        let not_ready = NetError::Retry(RetryReason::PeerNotReady);
        let region: Vec<u8> = (0..64).collect();
        let mr = d1.register(region.as_ptr(), region.len()).unwrap();

        assert_eq!(b.post_send(1, 1, &[1], 0, 0).unwrap_err(), not_ready);
        let err = b.post_write(1, 5, &[9u8; 8], mr.rkey, 0, Some(7), 0).unwrap_err();
        assert_eq!(err, not_ready);
        let mut cqes = Vec::new();
        b.poll_cq(&mut cqes, 8).unwrap();
        assert!(cqes.is_empty(), "a refused post left a completion");
        assert_eq!(region[..8], [0, 1, 2, 3, 4, 5, 6, 7], "a refused write moved bytes");

        b.post_write(1, 5, &[9u8; 8], mr.rkey, 8, None, 21).unwrap();
        let mut dst = vec![0u8; 16];
        // SAFETY: dst outlives the read completion below.
        let desc = unsafe { RecvBufDesc::new(dst.as_mut_ptr(), dst.len(), 22) };
        b.post_read(1, desc, mr.rkey, 32).unwrap();
        // Where they are framed, the target's poll applies them.
        let (mut other, deadline) = (Vec::new(), Instant::now() + DEADLINE);
        while cqes.len() < 2 || region[8..16] != [9u8; 8] {
            b.poll_cq(&mut cqes, 8).unwrap();
            d1.poll_cq(&mut other, 8).unwrap();
            assert!(Instant::now() < deadline, "one-sided posts stuck at {cqes:?}");
        }
        assert_eq!((cqes[0].kind, cqes[0].ctx), (CqeKind::WriteDone, 21));
        assert_eq!((cqes[1].kind, cqes[1].ctx, cqes[1].len), (CqeKind::ReadDone, 22, 16));
        assert_eq!(&dst[..], &region[32..48]);
        assert!(other.is_empty(), "a one-sided post without an immediate completed at the target");

        let d1b = c1.create_device(cfg);
        assert_eq!(d1b.dev_id(), 1);
        let mut rbuf = vec![0u8; 8];
        post_packet_recv(&d1b, &mut rbuf, 4);
        b.post_send(1, 1, &[1], 6, 0).unwrap();
        let _ = poll_until(&b, 1); // SendDone + flush
                                   // The wire is the rank's: on shm and tcp either device's poll may
                                   // be the one that drains it.
        let mut got = Vec::new();
        while got.is_empty() {
            d1.poll_cq(&mut other, 8).unwrap();
            d1b.poll_cq(&mut got, 8).unwrap();
            assert!(Instant::now() < deadline, "the send never reached the new device");
        }
        assert!(other.is_empty(), "delivered to the wrong device");
        assert_eq!((got[0].kind, got[0].ctx, got[0].imm), (CqeKind::RecvDone, 4, 6));
        assert_eq!((got[0].src_rank, got[0].src_dev), (0, 1));
        assert_eq!(rbuf[0], 1);
    }
}

/// Registration goes through the device's cache: registering the same
/// buffer again is a hit on the same registration, and a release keeps
/// it alive for the next one.
#[test]
fn repeat_registration_hits_the_cache() {
    for cfg in wires() {
        let (d0, _d1) = pair(cfg);
        let buf = vec![0u8; 256];
        let a = d0.register(buf.as_ptr(), buf.len()).unwrap();
        let b = d0.register(buf.as_ptr(), buf.len()).unwrap();
        assert_eq!(a.rkey, b.rkey, "the cache returns the same registration");
        d0.deregister(&a).unwrap();
        d0.deregister(&b).unwrap();
        let c = d0.register(buf.as_ptr(), buf.len()).unwrap();
        assert_eq!(a.rkey, c.rkey, "deregister releases: the cached registration is reused");
        assert_eq!(d0.reg_cache_stats(), RegCacheStats { hits: 2, misses: 1, evictions: 0 });
    }
}

/// `local_addr` answers for every pair of ranks of one process what a
/// write between them does: the address to copy to on the wires that
/// copy in place (the in-memory wire, shm), none on tcp — the same both
/// ways, so a rank may ask it about its own memory on its peer's behalf
/// — and it checks the access like a post.
#[test]
fn local_addr_answers_alike_both_ways_for_every_pair() {
    const N: usize = 3;
    for cfg in wires() {
        let fabric = Fabric::new(N);
        let devs: Vec<_> =
            (0..N).map(|r| NetContext::new(fabric.clone(), r).create_device(cfg)).collect();
        let bufs: Vec<Vec<u8>> = (0..N).map(|_| vec![0u8; 64]).collect();
        let mrs: Vec<_> = (0..N).map(|r| devs[r].register(bufs[r].as_ptr(), 64).unwrap()).collect();
        let at = |a: usize, b: usize| devs[a].local_addr(b, mrs[b].rkey, 16, 32).unwrap();
        for a in 0..N {
            for (b, buf) in bufs.iter().enumerate() {
                let want = (!frames_local_rma(&cfg)).then(|| buf[16..].as_ptr().cast_mut());
                let (there, back) = (at(a, b), at(b, a));
                assert_eq!(there, want, "{:?}: rank {a} toward rank {b}", cfg.backend);
                assert_eq!(there.is_some(), back.is_some(), "{:?}: {a} <-> {b}", cfg.backend);
            }
        }
        let beyond = devs[0].local_addr(1, mrs[1].rkey, 48, 32);
        assert!(matches!(beyond, Err(NetError::Fatal(_))), "{:?}: {beyond:?}", cfg.backend);
    }
}

/// The payload copy of a direct write holds no lock: under the try-lock
/// discipline two threads writing disjoint ranges of one peer's region
/// (no immediate, so no frame either) never see `LockBusy`, on either
/// lock layout. A framed write takes the QP lock and the wire's sender,
/// so this is a statement about the wires that address the peer's
/// memory.
#[test]
fn direct_writes_to_one_peer_never_find_a_lock_busy() {
    for cfg in wires().into_iter().filter(|cfg| !frames_local_rma(cfg)) {
        direct_writes_never_find_a_lock_busy(cfg.with_discipline(LockDiscipline::TryLock));
    }
}

fn direct_writes_never_find_a_lock_busy(cfg: DeviceConfig) {
    const WRITES: usize = 2000;
    const LEN: usize = 4096;
    let (d0, d1) = pair(cfg);
    let region = vec![0u8; 2 * LEN];
    let mr = d1.register(region.as_ptr(), region.len()).unwrap();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2usize {
            let (d0, start) = (&d0, &start);
            s.spawn(move || {
                let data = vec![t as u8 + 1; LEN];
                let mut cqes = Vec::new();
                start.wait();
                for i in 0..WRITES {
                    let res = d0.post_write(1, 0, &data, mr.rkey, t * LEN, None, i as u64);
                    assert!(
                        !matches!(res, Err(NetError::Retry(RetryReason::LockBusy))),
                        "write {i} of thread {t} found a lock busy"
                    );
                    res.unwrap();
                    // Reaping may lose the CQ try-lock to the sibling;
                    // that is the poll's lock, not the write's.
                    let _ = d0.poll_cq(&mut cqes, 64);
                }
            });
        }
    });
    let ts = d0.transport_stats();
    assert_eq!((ts.rma_direct_bytes, ts.rma_framed_bytes), ((2 * WRITES * LEN) as u64, 0));
    assert_eq!(d1.inbound_pending(), 0, "a write without an immediate became a frame");
    assert!(region[..LEN].iter().all(|&b| b == 1) && region[LEN..].iter().all(|&b| b == 2));
}

/// The bytes message `i` of the inject cases carries: lengths on both
/// sides of every wire's inline limit.
/// `poll_cq_claiming`: on a wire that buffers, a send the claim takes
/// consumes no receive and stages nothing, and the claim sees its
/// source, immediate and bytes; one it declines lands as under
/// `poll_cq`; and while a completion of the device waits staged, a send
/// is not offered at all, so it cannot overtake it. The in-memory wire
/// lands every send at the post and offers nothing.
#[test]
fn a_claimed_send_consumes_no_receive_and_a_staged_one_blocks_claims() {
    for cfg in wires() {
        let (d0, d1) = pair(cfg);
        let mut bufs = [[0u8; 8]; 4];
        for (i, b) in bufs.iter_mut().enumerate() {
            post_packet_recv(&d1, b, i as u64);
        }
        let mut claimed = Vec::new();
        let mut cqes = Vec::new();
        // Polls `d1` with at most `max` completions per poll, `take`
        // deciding each offer, until `done`; `d0` polls along (tcp
        // writes its stream out there).
        let mut poll =
            |max: usize, take: bool, done: &dyn Fn(&[u64], &[lci_fabric::Cqe]) -> bool| {
                let deadline = Instant::now() + DEADLINE;
                while !done(&claimed, &cqes) {
                    d0.poll_cq(&mut Vec::new(), 64).unwrap();
                    let mut claim = |src, src_dev, imm: u64, payload: &[u8]| {
                        assert_eq!((src, src_dev, payload), (0, 0, &imm.to_le_bytes()[..]));
                        if take {
                            claimed.push(imm);
                        }
                        take
                    };
                    d1.poll_cq_claiming(&mut cqes, max, &mut claim).unwrap();
                    assert!(Instant::now() < deadline, "{cfg:?}: {claimed:?} {cqes:?}");
                }
            };
        let buffers = buffers_on_its_own(&cfg);
        let send = |imm: u64| d0.post_inject(1, 0, &imm.to_le_bytes(), imm).unwrap();

        send(0);
        poll(64, true, &|claimed, cqes| claimed.len() + cqes.len() == 1);
        assert_eq!(d1.posted_recvs(), if buffers { 4 } else { 3 }, "{cfg:?}");
        send(1);
        poll(64, false, &|claimed, cqes| claimed.len() + cqes.len() == 2);
        // A declined send lands in the oldest receive; with no
        // completion polled, the next send finds it staged.
        send(2);
        let left = |n: usize| if buffers { n + 1 } else { n };
        poll(0, false, &|_, _| d1.posted_recvs() == left(1));
        send(3);
        poll(0, true, &|_, _| d1.posted_recvs() == left(0));
        poll(64, true, &|claimed, cqes| claimed.len() + cqes.len() == 4);
        let landed: Vec<_> = cqes.iter().map(|c| (c.kind, c.imm)).collect();
        let want: Vec<u64> = if buffers { vec![1, 2, 3] } else { vec![0, 1, 2, 3] };
        assert_eq!(claimed, if buffers { vec![0] } else { vec![] }, "{cfg:?}");
        assert!(landed.iter().copied().eq(want.iter().map(|&i| (CqeKind::RecvDone, i))), "{cfg:?}");
    }
}

fn numbered(i: u64) -> Vec<u8> {
    vec![i as u8 ^ 0x5A; 1 + (i as usize * 37) % 900]
}

/// `post_inject` is a send without a completion: the bytes and the
/// immediate arrive, nothing ever shows up on the sender's CQ, and
/// interleaved with `post_send`s toward the same target everything
/// leaves in post order — the `SendDone`s of the signaled ones are the
/// only completions, in their order. Each half fits the receiver's 32
/// posted receives, which is what the in-memory wire takes at the post.
#[test]
fn inject_delivers_in_post_order_with_sends_and_completes_nothing() {
    const N: u64 = 64;
    for cfg in wires() {
        let (d0, d1) = pair(cfg);
        let mut sink = Sink::new(&d1, 1024, numbered);
        for i in 0..N / 2 {
            d0.post_inject(1, 0, &numbered(i), i).unwrap();
        }
        let polled = sink.drain_until(N / 2, &d0);
        assert!(polled.is_empty(), "{cfg:?}: an inject completed: {polled:?}");

        let signaled = |i: u64| i.is_multiple_of(3);
        for i in N / 2..N {
            match signaled(i) {
                true => d0.post_send(1, 0, &numbered(i), i, i).unwrap(),
                false => d0.post_inject(1, 0, &numbered(i), i).unwrap(),
            }
        }
        let mut polled = sink.drain_until(N, &d0);
        for _ in 0..8 {
            d0.poll_cq(&mut polled, 64).unwrap();
        }
        let want = (N / 2..N).filter(|&i| signaled(i)).map(|i| (CqeKind::SendDone, i));
        assert!(polled.iter().map(|c| (c.kind, c.ctx)).eq(want), "{cfg:?}: {polled:?}");
    }
}

/// An inject needs no slot on the completion staging ring. Signaled
/// sends nobody polls for fill that ring — `Retry(QueueFull)` at its
/// capacity — and injects are still accepted behind them, refused only
/// by the wire while the receiver catches up. The ring's `SendDone`s are
/// all the sender ever polls.
#[test]
fn inject_is_accepted_with_the_staging_ring_full() {
    const INJECTS: u64 = 300;
    for cfg in wires() {
        let (d0, d1) = pair(cfg.with_discipline(LockDiscipline::Blocking));
        let mut sink = Sink::new(&d1, 1024, numbered);
        let mut sent = 0u64;
        loop {
            match d0.post_send(1, 0, &numbered(sent), sent, sent) {
                Ok(()) => sent += 1,
                Err(NetError::Retry(RetryReason::QueueFull)) => break,
                Err(NetError::Retry(RetryReason::RxFull)) => sink.drain(),
                Err(e) => panic!("{cfg:?}: send {sent}: {e:?}"),
            }
            assert!(sent < 100_000, "{cfg:?}: the staging ring never filled");
        }
        let staged = sent;
        while sent < staged + INJECTS {
            match d0.post_inject(1, 0, &numbered(sent), sent) {
                Ok(()) => sent += 1,
                Err(NetError::Retry(RetryReason::RxFull)) => sink.drain(),
                Err(e) => panic!("{cfg:?}: inject {sent} behind a full staging ring: {e:?}"),
            }
        }
        let mut polled = sink.drain_until(sent, &d0);
        for _ in 0..8 {
            d0.poll_cq(&mut polled, 64).unwrap();
        }
        let want = (0..staged).map(|i| (CqeKind::SendDone, i));
        assert!(
            polled.iter().map(|c| (c.kind, c.ctx)).eq(want),
            "{cfg:?}: {} polled",
            polled.len()
        );
    }
}

/// A full wire — on the in-memory wire, a target out of posted receives —
/// refuses an inject with `Retry(RxFull)` and sends nothing: once the
/// receiver drains, exactly the accepted messages arrive, in order, and
/// the refused one goes through when posted again. A target rank that
/// does not exist is fatal, as for `post_send`.
#[test]
fn inject_on_a_full_wire_retries_with_nothing_sent() {
    for cfg in wires() {
        let (d0, d1) = pair(cfg.with_discipline(LockDiscipline::Blocking));
        let mut sink = Sink::new(&d1, 1024, numbered);
        let sent = fill_until_refused_by(&d0, |i| d0.post_inject(1, 0, &numbered(i), i));
        let err = d0.post_inject(1, 0, &numbered(sent), sent).unwrap_err();
        assert_eq!(err, NetError::Retry(RetryReason::RxFull), "{cfg:?}");

        let polled = sink.drain_until(sent, &d0);
        for _ in 0..8 {
            sink.drain();
        }
        assert_eq!((sink.next, d1.inbound_pending()), (sent, 0), "{cfg:?}: a refused inject left");
        d0.post_inject(1, 0, &numbered(sent), sent).unwrap();
        let polled_after = sink.drain_until(sent + 1, &d0);
        assert!(polled.is_empty() && polled_after.is_empty(), "{cfg:?}: an inject completed");

        let err = d0.post_inject(2, 0, &[1], 0).unwrap_err();
        assert!(matches!(err, NetError::Fatal(_)), "{cfg:?}: rank out of range: {err:?}");
    }
}

fn post_send_retrying(dev: &Arc<dyn NetDevice>, dst_dev: usize, data: &[u8], imm: u64) {
    let deadline = Instant::now() + DEADLINE;
    let mut scratch = Vec::new();
    loop {
        match dev.post_send(1 - dev.rank(), dst_dev, data, imm, 0) {
            Ok(()) => return,
            Err(NetError::Retry(_)) => drop(dev.poll_cq(&mut scratch, 16)),
            Err(e) => panic!("send failed: {e:?}"),
        }
        assert!(Instant::now() < deadline, "send never accepted");
    }
}

/// Frames addressed to a device their target rank creates only later:
/// across processes the sender cannot see the target's device table, so
/// the frames travel and wait at the head of the target's inbound wire —
/// together with a later frame for a device that does exist (strict
/// FIFO) — and all are delivered, in order, once the device exists.
#[test]
fn frames_for_a_device_created_later_wait_in_order() {
    const NAME: &str = "frames_for_a_device_created_later_wait_in_order";
    let ctx = match bootstrap::launch(2, &test_child_args(NAME), Duration::from_secs(60))
        .expect("launch")
    {
        Launch::Child(ctx) => ctx,
        Launch::Parent(report) => {
            assert!(report.all_ok(), "child exit codes: {:?}", report.exit_codes);
            return;
        }
    };
    let cfg =
        if ctx.fabric.tcp_rank().is_some() { DeviceConfig::tcp() } else { DeviceConfig::shm() };
    let net = NetContext::new(ctx.fabric.clone(), ctx.rank);
    let dev0 = net.create_device(cfg);
    if ctx.rank == 0 {
        for i in 0..3u8 {
            post_send_retrying(&dev0, 1, &[i + 1; 100], i as u64);
        }
        post_send_retrying(&dev0, 0, b"behind", 100);
        // Keep polling (tcp flushes there) until rank 1 has seen it all.
        let mut ack = vec![0u8; 8];
        post_packet_recv(&dev0, &mut ack, 0);
        let cqes = poll_until(&dev0, 5);
        assert_eq!(cqes.iter().filter(|c| c.kind == CqeKind::SendDone).count(), 4);
        assert!(cqes.iter().any(|c| c.kind == CqeKind::RecvDone && c.imm == 0xAC));
    } else {
        let mut behind = vec![0u8; 128];
        post_packet_recv(&dev0, &mut behind, 7);
        let mut cqes = Vec::new();
        let quiet = Instant::now() + Duration::from_millis(300);
        while Instant::now() < quiet {
            dev0.poll_cq(&mut cqes, 16).unwrap();
            assert!(cqes.is_empty(), "a frame overtook the ones parked for device 1");
            std::thread::sleep(Duration::from_millis(1));
        }
        let dev1 = net.create_device(cfg);
        assert_eq!(dev1.dev_id(), 1);
        let mut bufs: Vec<Vec<u8>> = (0..3).map(|_| vec![0u8; 128]).collect();
        for (i, b) in bufs.iter_mut().enumerate() {
            post_packet_recv(&dev1, b, i as u64);
        }
        let mut late = Vec::new();
        let deadline = Instant::now() + DEADLINE;
        while late.len() < 3 || cqes.is_empty() {
            dev0.poll_cq(&mut cqes, 16).unwrap();
            dev1.poll_cq(&mut late, 16).unwrap();
            assert!(Instant::now() < deadline, "parked frames never delivered");
        }
        for (i, c) in late.iter().enumerate() {
            assert_eq!((c.kind, c.ctx, c.imm, c.len), (CqeKind::RecvDone, i as u64, i as u64, 100));
            assert_eq!((c.src_rank, c.src_dev), (0, 0));
            assert!(bufs[i][..100].iter().all(|&b| b == i as u8 + 1));
        }
        assert_eq!((cqes[0].kind, cqes[0].ctx, cqes[0].imm), (CqeKind::RecvDone, 7, 100));
        assert_eq!(&behind[..6], b"behind");
        post_send_retrying(&dev0, 0, b"ack", 0xAC);
        while dev0.outbound_pending() > 0 {
            dev0.poll_cq(&mut cqes, 16).unwrap();
        }
    }
    // Neither side leaves (closing its end of the wire) before both are
    // done.
    ctx.fabric.oob_barrier();
}

/// Toward a rank in another process `local_addr` says no on every wire:
/// its memory is not in this address space, so a write there is framed.
/// Toward this rank itself, shm still copies in place and tcp frames.
#[test]
fn local_addr_answers_no_toward_another_process() {
    const NAME: &str = "local_addr_answers_no_toward_another_process";
    let ctx = match bootstrap::launch(2, &test_child_args(NAME), Duration::from_secs(60))
        .expect("launch")
    {
        Launch::Child(ctx) => ctx,
        Launch::Parent(report) => {
            assert!(report.all_ok(), "child exit codes: {:?}", report.exit_codes);
            return;
        }
    };
    let tcp = ctx.fabric.tcp_rank().is_some();
    let cfg = if tcp { DeviceConfig::tcp() } else { DeviceConfig::shm() };
    let dev = NetContext::new(ctx.fabric.clone(), ctx.rank).create_device(cfg);
    let buf = [0u8; 64];
    let mr = dev.register(buf.as_ptr(), buf.len()).unwrap();
    ctx.fabric.oob_barrier();
    let (me, peer) = (ctx.rank, 1 - ctx.rank);
    assert_eq!(dev.local_addr(peer, mr.rkey, 0, 64).unwrap(), None, "rank {me} toward {peer}");
    let own = dev.local_addr(me, mr.rkey, 0, 64).unwrap();
    assert_eq!(own, (!tcp).then(|| buf.as_ptr().cast_mut()), "rank {me} toward itself");
    ctx.fabric.oob_barrier();
}

/// A peer that has exited is a fatal target for an inject, as it is for
/// a send, and neither leaves a completion. Rank 1 exits right after
/// the startup barrier; rank 0 keeps injecting and polling — what the
/// wire accepts before it knows is lost with the peer; shm learns from
/// the peer table, tcp by reading the socket — until the post is fatal.
#[test]
fn inject_toward_an_exited_peer_is_fatal() {
    const NAME: &str = "inject_toward_an_exited_peer_is_fatal";
    let ctx = match bootstrap::launch(2, &test_child_args(NAME), Duration::from_secs(60))
        .expect("launch")
    {
        Launch::Child(ctx) => ctx,
        Launch::Parent(report) => {
            assert_eq!(report.exit_codes, vec![0, 7], "expected rank 0 ok, rank 1 exited");
            return;
        }
    };
    let cfg =
        if ctx.fabric.tcp_rank().is_some() { DeviceConfig::tcp() } else { DeviceConfig::shm() };
    let dev = NetContext::new(ctx.fabric.clone(), ctx.rank).create_device(cfg);
    ctx.fabric.oob_barrier();
    if ctx.rank == 1 {
        std::process::exit(7);
    }
    let (mut cqes, deadline) = (Vec::new(), Instant::now() + DEADLINE);
    loop {
        match dev.post_inject(1, 0, b"late", 1) {
            Err(NetError::Fatal(_)) => break,
            Ok(()) | Err(NetError::Retry(_)) => {}
        }
        dev.poll_cq(&mut cqes, 16).unwrap();
        assert!(Instant::now() < deadline, "injects toward the exited rank 1 never turned fatal");
        std::thread::yield_now();
    }
    let err = dev.post_send(1, 0, b"late", 1, 9).unwrap_err();
    assert!(matches!(err, NetError::Fatal(_)), "send toward the exited peer: {err:?}");
    dev.poll_cq(&mut cqes, 16).unwrap();
    assert!(cqes.is_empty(), "a refused post completed: {cqes:?}");
}
