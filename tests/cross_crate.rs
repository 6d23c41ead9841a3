//! Workspace-level integration tests spanning crates: library
//! composition on one fabric, wrapper-level equivalence across backends,
//! and application pipelines end to end.

use lci::{coll, Comp, PostResult, Runtime, RuntimeConfig};
use lci_baselines::{MpiComm, MpiConfig};
use lci_fabric::Fabric;
use lcw::{BackendKind, Platform, ResourceMode, World, WorldConfig};
use std::time::Duration;

/// Tier-1 smoke: one message through each protocol (inline, eager,
/// rendezvous), one collective and one quiesce on every in-process
/// backend — the two simulated NICs and both framed wires — so the root
/// package's tests touch every layer of the stack.
#[test]
fn every_backend_carries_every_protocol() {
    // 8 B rides inline in the wire slot, 2 KiB is an eager packet, and
    // 64 KiB is past the 8 KiB eager size: rendezvous. The last one is
    // more than shm or tcp frames in one write, so it arrives only if
    // the rendezvous is chunked.
    const SIZES: [usize; 4] = [8, 2048, 64 << 10, (1 << 20) + 4096];
    let pattern = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 31 + len) as u8).collect() };
    for platform in [Platform::Expanse, Platform::Delta, Platform::ShmHost, Platform::TcpHost] {
        let cfg = WorldConfig::new(BackendKind::Lci, platform, ResourceMode::Shared);
        let fabric = Fabric::new(2);
        let ranks: Vec<_> = (0..2)
            .map(|rank| {
                let fabric = fabric.clone();
                std::thread::spawn(move || {
                    let world = World::new(fabric, rank, cfg);
                    let mut ep = world.endpoint(0);
                    if rank == 0 {
                        for (tag, len) in SIZES.into_iter().enumerate() {
                            while !ep.send(1, &pattern(len), tag as u32) {
                                ep.progress();
                            }
                        }
                    } else {
                        let tokens: Vec<_> = SIZES
                            .into_iter()
                            .enumerate()
                            .map(|(tag, len)| ep.post_recv(0, tag as u32, len))
                            .collect();
                        for (token, len) in tokens.iter().zip(SIZES) {
                            let msg = loop {
                                ep.progress();
                                if let Some(m) = ep.test_recv(token) {
                                    break m;
                                }
                            };
                            assert_eq!(msg.data, pattern(len), "{platform:?}: {len} B payload");
                        }
                    }
                    ep.quiesce(Duration::from_secs(30)).expect("drain");
                    let mut sum = (rank as u64 + 1).to_le_bytes();
                    world.allreduce(&mut sum, &lci::SumU64).unwrap();
                    assert_eq!(u64::from_le_bytes(sum), 3, "{platform:?}: allreduce");
                    ep.quiesce(Duration::from_secs(30)).expect("drain after the collective");
                })
            })
            .collect();
        for r in ranks {
            r.join().unwrap();
        }
    }
}

/// The paper's §3.2.2 composition story: multiple runtimes/libraries can
/// coexist without interfering. Here LCI and the MPI baseline share one
/// fabric on the same ranks (each creates its own devices).
#[test]
fn lci_and_mpi_coexist_on_one_fabric() {
    let fabric = Fabric::new(2);
    let f2 = fabric.clone();
    let peer = std::thread::spawn(move || {
        // Creation order matters for device-index symmetry: LCI runtime
        // first (device 0), MPI channel second (device 1) on both ranks.
        let rt = Runtime::new(f2.clone(), 1, RuntimeConfig::small()).unwrap();
        let mpi = MpiComm::init(f2.clone(), 1, MpiConfig::default());
        f2.oob_barrier();
        // Serve both libraries.
        let cq = Comp::alloc_cq();
        rt.post_recv(0, vec![0u8; 64], 5, cq.clone()).unwrap();
        let lci_msg = loop {
            rt.progress().unwrap();
            if let Some(d) = cq.pop() {
                break d;
            }
        };
        assert_eq!(lci_msg.as_slice(), b"via lci");
        let st = mpi.recv(0, 6, 64);
        assert_eq!(st.data, b"via mpi".to_vec());
        f2.oob_barrier();
    });

    let rt = Runtime::new(fabric.clone(), 0, RuntimeConfig::small()).unwrap();
    let mpi = MpiComm::init(fabric.clone(), 0, MpiConfig::default());
    fabric.oob_barrier();
    let sc = Comp::alloc_sync(1);
    loop {
        match rt.post_send(1, b"via lci".as_slice(), 5, sc.clone()).unwrap() {
            PostResult::Retry(_) => {
                rt.progress().unwrap();
            }
            PostResult::Done(_) => break,
            PostResult::Posted => {
                sc.as_sync().unwrap().wait_with(|| {
                    rt.progress().unwrap();
                });
                break;
            }
        }
    }
    mpi.send(1, b"via mpi".to_vec(), 6);
    // Keep progressing MPI until the peer drains (its request needs our
    // rendezvous participation only for large messages; eager here).
    fabric.oob_barrier();
    peer.join().unwrap();
}

/// All four LCW backends deliver the same AM traffic (one workload, four
/// libraries — the uniformity LCW exists to provide).
#[test]
fn lcw_backends_equivalent_traffic() {
    for backend in [BackendKind::Lci, BackendKind::Mpi, BackendKind::Vci, BackendKind::Gasnet] {
        let mode = match backend {
            BackendKind::Lci | BackendKind::Vci => ResourceMode::Dedicated(2),
            _ => ResourceMode::Shared,
        };
        let cfg = WorldConfig::new(backend, Platform::Expanse, mode);
        let fabric = Fabric::new(2);
        let f2 = fabric.clone();
        let n_msgs = 40;
        let recv = std::thread::spawn(move || {
            let w = World::new(f2, 1, cfg);
            let mut eps: Vec<_> = (0..2).map(|t| w.endpoint(t)).collect();
            let mut sum = 0u64;
            let mut got = 0;
            while got < n_msgs {
                for ep in eps.iter_mut() {
                    ep.progress();
                    while let Some(m) = ep.poll_msg() {
                        sum += m.data[0] as u64;
                        got += 1;
                    }
                }
            }
            sum
        });
        let w = World::new(fabric, 0, cfg);
        let mut eps: Vec<_> = (0..2).map(|t| w.endpoint(t)).collect();
        for i in 0..n_msgs {
            let t = i % 2;
            while !eps[t].send_am(1, &[i as u8; 32], i as u32) {
                eps[t].progress();
            }
        }
        // Pump until the receiver saw everything.
        let expect: u64 = (0..n_msgs as u64).sum();
        loop {
            for ep in eps.iter_mut() {
                ep.progress();
            }
            if recv.is_finished() {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(recv.join().unwrap(), expect, "backend {backend:?}");
    }
}

/// Collectives compose with point-to-point traffic in flight.
#[test]
fn collectives_with_background_traffic() {
    let nranks = 3;
    let fabric = Fabric::new(nranks);
    let handles: Vec<_> = (0..nranks)
        .map(|rank| {
            let fabric = fabric.clone();
            std::thread::spawn(move || {
                let rt = Runtime::new(fabric.clone(), rank, RuntimeConfig::small()).unwrap();
                fabric.oob_barrier();
                // Every rank sends one message to every other rank, then
                // everyone reduces the number of messages they received.
                let cq = Comp::alloc_cq();
                for peer in (0..nranks).filter(|&p| p != rank) {
                    rt.post_recv(peer, vec![0u8; 32], 1, cq.clone()).unwrap();
                }
                let noop = Comp::alloc_handler(|_| {});
                for peer in (0..nranks).filter(|&p| p != rank) {
                    while let PostResult::Retry(_) =
                        rt.post_send(peer, vec![1u8; 16], 1, noop.clone()).unwrap()
                    {
                        rt.progress().unwrap();
                    }
                }
                let mut got = 0u64;
                while got < (nranks - 1) as u64 {
                    rt.progress().unwrap();
                    if cq.pop().is_some() {
                        got += 1;
                    }
                }
                let total = coll::allreduce_u64(&rt, &[got], |a, b| a + b).unwrap();
                assert_eq!(total, vec![(nranks * (nranks - 1)) as u64]);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// End-to-end: the k-mer pipeline and octo-mini run back to back on the
/// same process (separate fabrics), exercising every layer of the stack.
#[test]
fn applications_end_to_end() {
    // k-mer.
    let kcfg = kmer::KmerConfig {
        reads: kmer::ReadSetConfig {
            genome_len: 2_000,
            n_reads: 200,
            read_len: 60,
            error_rate: 0.01,
            seed: 3,
        },
        k: 17,
        nthreads: 2,
        agg_size: 512,
        world: WorldConfig::new(BackendKind::Lci, Platform::Delta, ResourceMode::Dedicated(2)),
        expected_distinct: 10_000,
        max_count: 16,
    };
    let serial = kmer::serial_reference(&kcfg, 2);
    let fabric = Fabric::new(2);
    let handles: Vec<_> = (0..2)
        .map(|r| {
            let fabric = fabric.clone();
            std::thread::spawn(move || kmer::run_rank(fabric, r, kcfg))
        })
        .collect();
    for h in handles {
        let res = h.join().unwrap();
        // count>=2 buckets are order-independent and must match exactly;
        // the count-1 bucket is Bloom false-positive noise (see kmer
        // driver docs).
        assert_eq!(res.histogram[2..], serial.histogram[2..]);
    }

    // octo-mini (on the ofi-sim platform for variety).
    let ocfg = amt::OctoConfig {
        n_particles: 300,
        steps: 2,
        nthreads: 2,
        chunk: 64,
        world: WorldConfig::new(BackendKind::Lci, Platform::Delta, ResourceMode::Dedicated(2)),
        ..amt::OctoConfig::default()
    };
    let fabric = Fabric::new(2);
    let handles: Vec<_> = (0..2)
        .map(|r| {
            let fabric = fabric.clone();
            std::thread::spawn(move || amt::run_octo_rank(fabric, r, ocfg))
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap().final_local_particles).sum();
    assert_eq!(total, 300);
}
