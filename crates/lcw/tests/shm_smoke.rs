//! Multi-process smoke tests over the real transports: each test
//! re-executes this test binary as the worker ranks (via
//! `bootstrap::launch`-style env rendezvous), so the traffic crosses
//! real OS process boundaries — separate address spaces, the segment's
//! rings (or the tcp socket mesh) as the only wire.
//!
//! The parent (the test as `cargo test` runs it) forks the children and
//! asserts their exit codes; a child re-runs exactly this test function,
//! finds `LCI_SHM_PATH` (or `LCI_TCP_ROOT`) in its environment, and
//! becomes a rank. The whole suite is transport-agnostic: it runs over
//! shm by default and over the tcp mesh with `LCI_TRANSPORT=tcp` — the
//! launcher picks the rendezvous, and `World::from_env` follows it.
#![cfg(unix)]

use lci_fabric::bootstrap::test_child_args;
use lcw::{BackendKind, Platform, QuiesceError, ResourceMode, World, WorldConfig};
use std::time::Duration;

const JOB_TIMEOUT: Duration = Duration::from_secs(120);
const QUIESCE: Duration = Duration::from_secs(30);

fn shm_cfg() -> WorldConfig {
    WorldConfig::new(BackendKind::Lci, Platform::ShmHost, ResourceMode::Shared)
}

/// Parent side: fork `nranks` children re-running `test_name` and check
/// they all exited 0. Child side: return the attached world.
fn launch(nranks: usize, test_name: &str, cfg: WorldConfig) -> Option<World> {
    match World::from_env(cfg).expect("attach") {
        Some(w) => Some(w),
        None => {
            let report = World::spawn_local(nranks, &test_child_args(test_name), JOB_TIMEOUT)
                .expect("spawn");
            assert!(report.all_ok(), "child exit codes: {:?}", report.exit_codes);
            None
        }
    }
}

fn recv_msg(ep: &mut lcw::Endpoint) -> lcw::Msg {
    loop {
        ep.progress();
        if let Some(m) = ep.poll_msg() {
            return m;
        }
    }
}

/// Two processes bounce tagged active messages; payloads checked both
/// directions, both ranks drain cleanly.
#[test]
fn multiproc_am_pingpong() {
    let Some(w) = launch(2, "multiproc_am_pingpong", shm_cfg()) else { return };
    let mut ep = w.endpoint(0);
    const ROUNDS: u64 = 50;
    if w.rank() == 0 {
        for i in 0..ROUNDS {
            let ball = [i as u8; 32];
            while !ep.send_am(1, &ball, i as u32) {
                ep.progress();
            }
            let echo = recv_msg(&mut ep);
            assert_eq!(echo.src, 1);
            assert_eq!(echo.tag, i as u32 + 1000);
            assert_eq!(echo.data[..], ball);
        }
    } else {
        for i in 0..ROUNDS {
            let m = recv_msg(&mut ep);
            assert_eq!(m.src, 0);
            assert_eq!(m.tag, i as u32);
            assert_eq!(m.data[..], [i as u8; 32]);
            while !ep.send_am(0, &m.data, m.tag + 1000) {
                ep.progress();
            }
        }
    }
    ep.quiesce(QUIESCE).expect("drain");
    let stats = ep.lci_device().expect("lci").stats();
    assert!(
        stats.shm_ring_hwm > 0 || stats.tcp_writev_frames > 0,
        "traffic never crossed the inter-process wire"
    );
}

/// A coalesced small-message stream between processes: frames carrying
/// many sub-messages survive the ring codec in order.
#[test]
fn multiproc_coalesced_stream() {
    let cfg = shm_cfg().with_coalescing(2048);
    let Some(w) = launch(2, "multiproc_coalesced_stream", cfg) else { return };
    let mut ep = w.endpoint(0);
    const MSGS: u64 = 500;
    if w.rank() == 0 {
        for seq in 0..MSGS {
            while !ep.send_am(1, &seq.to_le_bytes(), 7) {
                ep.progress();
            }
        }
        ep.flush();
        // Wait for the receiver's ack so the stream is known-delivered
        // before this process exits.
        let ack = recv_msg(&mut ep);
        assert_eq!(ack.tag, 8);
        ep.quiesce(QUIESCE).expect("drain");
        let stats = ep.lci_device().expect("lci").stats();
        assert!(stats.coalesced_msgs > 0, "coalescing enabled but never used");
    } else {
        for seq in 0..MSGS {
            let m = recv_msg(&mut ep);
            assert_eq!(m.tag, 7);
            assert_eq!(u64::from_le_bytes(m.data[..].try_into().unwrap()), seq, "stream reordered");
        }
        while !ep.send_am(0, &[1], 8) {
            ep.progress();
        }
        ep.quiesce(QUIESCE).expect("drain");
    }
}

/// A 256 KiB rendezvous transfer between processes: the chunked write
/// pipeline rides the segment's spill region end to end.
#[test]
fn multiproc_rendezvous_256k() {
    let Some(w) = launch(2, "multiproc_rendezvous_256k", shm_cfg()) else { return };
    let mut ep = w.endpoint(0);
    const LEN: usize = 256 << 10;
    let pattern: Vec<u8> = (0..LEN).map(|i| (i as u32).wrapping_mul(2654435761) as u8).collect();
    if w.rank() == 0 {
        while !ep.send(1, &pattern, 9) {
            ep.progress();
        }
        ep.quiesce(QUIESCE).expect("drain");
    } else {
        let tok = ep.post_recv(0, 9, LEN);
        let m = loop {
            ep.progress();
            if let Some(m) = ep.test_recv(&tok) {
                break m;
            }
        };
        assert_eq!(m.data.len(), LEN);
        assert_eq!(m.data[..], pattern[..], "rendezvous payload corrupted crossing processes");
        ep.quiesce(QUIESCE).expect("drain");
    }
}

/// What crosses a process boundary is framed; what stays inside one is
/// not (DESIGN.md §4.9). A 1 MiB rendezvous, a put and a get from rank 0
/// to rank 1: rank 0 cannot address rank 1's memory, so every payload
/// byte is counted `rma_framed_bytes` and none `rma_direct_bytes` — the
/// framed write/read path in-process shm no longer walks is walked here.
/// Then a put rank 0 aims at itself: over shm its own registered memory
/// is addressable and the bytes are copied once, counted direct; over
/// tcp (`LCI_TRANSPORT=tcp`) nothing ever is.
#[test]
fn multiproc_rma_is_framed_across_processes_and_direct_to_self() {
    const NAME: &str = "multiproc_rma_is_framed_across_processes_and_direct_to_self";
    const LEN: usize = 1 << 20;
    const RMA: usize = 24 << 10;
    const OFF: usize = 512;
    let Some(w) = launch(2, NAME, shm_cfg()) else { return };
    let over_tcp = w.fabric().tcp_rank().is_some();
    let mut ep = w.endpoint(0);
    let rt = w.lci_runtime().expect("lci").clone();
    let dev = ep.lci_device().expect("lci").clone();
    let pattern = |salt: u32, len: usize| -> Vec<u8> {
        (0..len).map(|i| (i as u32 ^ salt).wrapping_mul(2654435761) as u8).collect()
    };
    // Posts one RMA operation and drives it to its local completion.
    let run = |ep: &mut lcw::Endpoint, post: &dyn Fn(lci::Comp) -> lci::PostResult| {
        let done = lci::Comp::alloc_sync(1);
        while !post(done.clone()).is_posted() {
            ep.progress();
        }
        let sync = done.as_sync().expect("sync comp");
        while !sync.test() {
            ep.progress();
        }
        sync.take().pop().expect("one completion")
    };
    if w.rank() == 0 {
        while !ep.send(1, &pattern(1, LEN), 9) {
            ep.progress();
        }
        let m = recv_msg(&mut ep);
        assert_eq!(m.tag, 20);
        let rkey = lci::Rkey(u32::from_le_bytes(m.data[..4].try_into().unwrap()));
        run(&mut ep, &|c| {
            rt.post_put_x(1, pattern(2, RMA), rkey, OFF, c).device(&dev).call().expect("put")
        });
        // The put's frame is ahead of this message on the same wire.
        while !ep.send_am(1, &[0], 21) {
            ep.progress();
        }
        let got = run(&mut ep, &|c| {
            rt.post_get_x(1, vec![0u8; RMA], rkey, OFF, c).device(&dev).call().expect("get")
        });
        assert_eq!(got.as_slice(), &pattern(2, RMA)[..], "get returned other bytes than were put");
        ep.quiesce(QUIESCE).expect("drain");
        let remote = dev.stats();
        assert_eq!(remote.rma_direct_bytes, 0, "a remote process's memory is not addressable");
        assert_eq!(remote.rma_framed_bytes, (LEN + 2 * RMA) as u64);

        let own = vec![0u8; 2 * RMA];
        let mr = dev.register_memory(&own).expect("register");
        run(&mut ep, &|c| {
            rt.post_put_x(0, pattern(3, RMA), mr.rkey, OFF, c).device(&dev).call().expect("put")
        });
        assert_eq!(&own[OFF..OFF + RMA], &pattern(3, RMA)[..]);
        let to_self = dev.stats().since(&remote);
        let want = if over_tcp { (0, RMA as u64) } else { (RMA as u64, 0) };
        assert_eq!((to_self.rma_direct_bytes, to_self.rma_framed_bytes), want);
        while !ep.send_am(1, &[0], 22) {
            ep.progress();
        }
    } else {
        let tok = ep.post_recv(0, 9, LEN);
        let m = loop {
            ep.progress();
            if let Some(m) = ep.test_recv(&tok) {
                break m;
            }
        };
        assert_eq!(
            m.data[..],
            pattern(1, LEN)[..],
            "rendezvous payload corrupted crossing processes"
        );
        let window = vec![0u8; 2 * RMA];
        let mr = dev.register_memory(&window).expect("register");
        while !ep.send_am(0, &mr.rkey.0.to_le_bytes(), 20) {
            ep.progress();
        }
        assert_eq!(recv_msg(&mut ep).tag, 21);
        assert_eq!(&window[OFF..OFF + RMA], &pattern(2, RMA)[..], "put landed other bytes");
        assert!(window[..OFF].iter().chain(&window[OFF + RMA..]).all(|&b| b == 0));
        // The window stays registered until rank 0 has read it back.
        assert_eq!(recv_msg(&mut ep).tag, 22);
        let s = dev.stats();
        assert_eq!((s.rma_direct_bytes, s.rma_framed_bytes), (0, 0), "the target posts no RMA");
    }
    ep.quiesce(QUIESCE).expect("drain");
}

/// A peer that dies mid-handshake must surface as an error, not a hang:
/// rank 1 exits abruptly (skipping all destructors, exit code 7) while
/// rank 0 has a rendezvous send in flight to it; rank 0's `quiesce`
/// returns `PeerDead`/`Timeout` instead of spinning forever, and the
/// launcher reports rank 1's real exit code.
/// Three processes run the full blocking collective surface through
/// the World wrappers: barrier, chunk-pipelined ring allreduce (blocks
/// split across multiple rendezvous chunks), Bruck allgather, an
/// alltoallv of equal blocks, and the sparse size-adaptive alltoallv
/// with its count exchange — every byte crossing the segment between
/// real address spaces.
#[test]
fn multiproc_collectives() {
    let cfg = shm_cfg().with_coll_chunk_size(16 << 10);
    let Some(w) = launch(3, "multiproc_collectives", cfg) else { return };
    let n = w.size();
    let rank = w.rank();

    w.barrier().expect("barrier");

    // Allreduce: 64 Ki u64s -> ~170 KiB blocks, several chunks each.
    let elems = 64 << 10;
    let mut bytes = vec![0u8; elems * 8];
    for (i, c) in bytes.chunks_exact_mut(8).enumerate() {
        c.copy_from_slice(&((rank * 7 + i) as u64).to_le_bytes());
    }
    w.allreduce(&mut bytes, &lci::SumU64).expect("allreduce");
    for (i, c) in bytes.chunks_exact(8).enumerate() {
        let want: u64 = (0..n).map(|r| (r * 7 + i) as u64).sum();
        assert_eq!(u64::from_le_bytes(c.try_into().unwrap()), want, "element {i}");
    }

    // Allgather: distinct per-rank fill.
    let mine = vec![rank as u8 + 1; 4096];
    let mut all = vec![0u8; 4096 * n];
    w.allgather_bytes(&mine, &mut all).expect("allgather");
    for r in 0..n {
        assert!(all[r * 4096..(r + 1) * 4096].iter().all(|&b| b == r as u8 + 1), "slot {r}");
    }

    // Alltoallv of equal blocks: put-sized (src, dst)-tagged blocks.
    let block = 32 << 10;
    let send: Vec<u8> = (0..n * block).map(|i| (rank * 8 + i / block) as u8).collect();
    let mut recv = vec![0u8; n * block];
    let blocks = vec![block; n];
    w.alltoallv(&send, &blocks, &mut recv, &blocks).expect("uniform alltoallv");
    for src in 0..n {
        assert!(
            recv[src * block..(src + 1) * block].iter().all(|&b| b == (src * 8 + rank) as u8),
            "block from {src}"
        );
    }

    // Alltoallv: a skewed sparse matrix — zero pairs skipped, an
    // inline-sized block, an eager block, and a multi-chunk block — with
    // the receive side learned through the count exchange (the MoE
    // dispatch shape). counts[src][dst], diagonal self-copied locally.
    let counts = [[64usize, 0, 40 << 10], [16, 8, 0], [0, 24 << 10, 5]];
    let send_counts = counts[rank].to_vec();
    let mut recv_counts = vec![0; n];
    w.exchange_counts(&send_counts, &mut recv_counts).expect("count exchange");
    for (src, &c) in recv_counts.iter().enumerate() {
        assert_eq!(c, counts[src][rank], "learned count from {src}");
    }
    let vsend: Vec<u8> = (0..n)
        .flat_map(|dst| (0..send_counts[dst]).map(move |i| (rank * 41 + dst * 13 + i) as u8))
        .collect();
    let mut vrecv = vec![0u8; recv_counts.iter().sum()];
    w.alltoallv(&vsend, &send_counts, &mut vrecv, &recv_counts).expect("alltoallv");
    let mut off = 0;
    for (src, &c) in recv_counts.iter().enumerate() {
        for i in 0..c {
            assert_eq!(vrecv[off + i], (src * 41 + rank * 13 + i) as u8, "byte {i} from {src}");
        }
        off += c;
    }
    let skipped = w.lci_runtime().expect("lci").device().stats().coll_skipped_pairs;
    let want_skipped = [1u64, 1, 1][rank];
    assert_eq!(skipped, want_skipped, "sparse pairs must post nothing");

    w.barrier().expect("closing barrier");
}

/// Lending's one behaviour change, across processes (DESIGN.md §4.11
/// "Lending"): a collective whose runtime fails after its first lent
/// post ends the process instead of returning `Err`. Rank 1 exits right
/// after the startup barrier; rank 0 waits until the wire knows, then
/// runs `doomed`: it posts its lent receives, its first send toward the
/// gone peer is fatal, and a posted receive still names its buffer — so
/// it must die by the scope's abort with that `FatalError` on stderr,
/// not return, not panic, and not spin until the launcher's watchdog.
/// Three levels, because the launcher reports exit codes only and lets
/// its children inherit stderr: the test runs itself once more as the
/// launcher, with stderr captured.
fn collective_after_peer_exit_aborts(name: &str, doomed: fn(&World) -> String) {
    const LAUNCHER: &str = "LCI_TEST_ABORT_LAUNCHER";
    if let Some(w) = World::from_env(shm_cfg()).expect("attach") {
        w.barrier().expect("startup barrier");
        let rt = w.lci_runtime().expect("lci");
        if w.rank() == 1 {
            // A send is done when the wire has copied it, and tcp writes
            // its copy out at the next poll: the barrier can return —
            // its own receive matched at the post — with the signal to
            // rank 0 still unwritten, and `exit` runs no teardown to
            // flush it. Rank 0 must get out of its barrier to get to its
            // collective.
            while rt.device().outbound_pending() > 0 {
                rt.progress_all().expect("progress");
            }
            std::process::exit(7);
        }
        // The tcp mesh learns of a death by reading the socket.
        while w.fabric().dead_peer().is_none() {
            rt.progress_all().expect("progress");
            std::thread::yield_now();
        }
        eprintln!("the collective returned {} with its peer gone", doomed(&w));
        std::process::exit(3);
    }
    if std::env::var_os(LAUNCHER).is_some() {
        let started = std::time::Instant::now();
        let report = World::spawn_local(2, &test_child_args(name), JOB_TIMEOUT).expect("spawn");
        // -1: killed by a signal. The launcher's watchdog reports its
        // SIGKILL the same way, but only after JOB_TIMEOUT.
        assert_eq!(report.exit_codes, vec![-1, 7], "expected rank 0 aborted, rank 1 exited");
        assert!(started.elapsed() < JOB_TIMEOUT / 2, "rank 0 hung until the watchdog killed it");
        return;
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(test_child_args(name))
        .env(LAUNCHER, "1")
        .output()
        .expect("run the launcher");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "launcher: {:?}\n{err}", out.status);
    assert!(err.contains("peer rank 1 has exited"), "the fatal error was not reported:\n{err}");
    assert!(err.contains("lci::coll: aborting"), "rank 0 did not die by the scope's abort:\n{err}");
    assert!(!err.contains("the collective returned"), "it returned with memory lent:\n{err}");
    assert!(!err.contains("panicked"), "rank 0 panicked on its way down:\n{err}");
}

#[test]
fn multiproc_collective_after_peer_exit_aborts() {
    collective_after_peer_exit_aborts("multiproc_collective_after_peer_exit_aborts", |w| {
        format!("{:?}", w.allreduce(&mut vec![1u8; 1 << 20], &lci::SumU64))
    });
}

#[test]
fn multiproc_abrupt_peer_exit() {
    match World::from_env(shm_cfg()).expect("attach") {
        None => {
            let report =
                World::spawn_local(2, &test_child_args("multiproc_abrupt_peer_exit"), JOB_TIMEOUT)
                    .expect("spawn");
            assert_eq!(report.exit_codes, vec![0, 7], "expected rank 0 ok, rank 1 abrupt");
        }
        Some(w) => {
            if w.rank() == 1 {
                // Wait for the go-signal so rank 0's send is in flight
                // first, then die without detaching: no destructors, no
                // goodbye.
                let mut ep = w.endpoint(0);
                let m = recv_msg(&mut ep);
                assert_eq!(m.tag, 99);
                std::process::exit(7);
            }
            let mut ep = w.endpoint(0);
            // A rendezvous-sized send needs the peer to answer the RTS;
            // it never will. Post it, then tell the peer to die.
            let doomed = vec![0xEEu8; 256 << 10];
            while !ep.send(1, &doomed, 11) {
                ep.progress();
            }
            while !ep.send_am(1, &[0], 99) {
                ep.progress();
            }
            match ep.quiesce(QUIESCE) {
                Err(QuiesceError::PeerDead(r)) => assert_eq!(r, 1),
                Err(QuiesceError::Timeout) => {} // acceptable: error, not a hang
                Ok(()) => panic!("quiesce claimed clean drain with a dead peer"),
            }
        }
    }
}
