//! Quickstart: two ranks exchange messages with every completion style.
//!
//! Run with: `cargo run --release --example quickstart`
//! (`--transport {sim-ibv,sim-ofi,shm}` or LCI_TRANSPORT selects the
//! wire; the ibv-like sim is the default.)

use lci::{coll, Comp, PostResult, Runtime};
use lci_fabric::Fabric;

/// The runtime configuration, honoring the transport selector.
fn config() -> lci::RuntimeConfig {
    let platform = lcw::Platform::from_args_or_env(lcw::Platform::Expanse);
    lci::RuntimeConfig::default().with_device(platform.device_config())
}

fn main() {
    // The fabric: a simulated interconnect, or shared-memory rings.
    let fabric = Fabric::new(2);
    let f1 = fabric.clone();
    let peer = std::thread::spawn(move || rank1(f1));
    rank0(fabric);
    peer.join().unwrap();
    println!("quickstart: OK");
}

fn rank0(fabric: std::sync::Arc<Fabric>) {
    let rt = Runtime::new(fabric, 0, config()).unwrap();
    println!("rank {}/{} up", rt.rank_me(), rt.rank_n());

    // 1. Two-sided send with a synchronizer completion. Retry covers
    // transient shortages (including the peer still bootstrapping).
    let scomp = Comp::alloc_sync(1);
    let ret = loop {
        match rt.post_send(1, b"hello via send-recv".as_slice(), 1, scomp.clone()).unwrap() {
            PostResult::Retry(_) => {
                rt.progress().unwrap();
            }
            other => break other,
        }
    };
    match ret {
        PostResult::Done(_) => println!("rank0: send completed at the post (eager)"),
        PostResult::Posted => {
            scomp.as_sync().unwrap().wait_with(|| {
                rt.progress().unwrap();
            });
            println!("rank0: send completed asynchronously");
        }
        PostResult::Retry(_) => unreachable!(),
    }

    // 2. Large zero-copy send (rendezvous protocol kicks in).
    let big = vec![7u8; 100_000];
    let scomp = Comp::alloc_sync(1);
    loop {
        match rt.post_send(1, big.clone(), 2, scomp.clone()).unwrap() {
            PostResult::Retry(_) => {
                rt.progress().unwrap();
            }
            PostResult::Posted => break,
            PostResult::Done(_) => break,
        }
    }
    scomp.as_sync().unwrap().wait_with(|| {
        rt.progress().unwrap();
    });
    println!("rank0: 100 KB rendezvous send complete");

    coll::barrier(&rt).unwrap();
}

fn rank1(fabric: std::sync::Arc<Fabric>) {
    let rt = Runtime::new(fabric, 1, config()).unwrap();

    // Completion queue for the receives.
    let cq = Comp::alloc_cq();
    rt.post_recv(0, vec![0u8; 64], 1, cq.clone()).unwrap();
    rt.post_recv(0, vec![0u8; 128 * 1024], 2, cq.clone()).unwrap();

    let mut got = 0;
    while got < 2 {
        rt.progress().unwrap();
        if let Some(desc) = cq.pop() {
            println!(
                "rank1: received tag={} {} bytes from rank {}",
                desc.tag,
                desc.data.len(),
                desc.rank
            );
            got += 1;
        }
    }
    coll::barrier(&rt).unwrap();
}
