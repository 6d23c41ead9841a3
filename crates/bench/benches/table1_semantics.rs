//! Paper Table 1: how the generic `post_comm` expresses every common
//! point-to-point paradigm by combining direction, remote buffer, and
//! remote completion — including the one invalid combination.
//!
//! This harness *executes* each combination end-to-end on a two-rank
//! fabric and prints the observed validity/behaviour table.

use lci::{coll, Comp, CompKind, Direction, Fabric, PostResult, Runtime, RuntimeConfig};
use std::sync::Arc;

fn main() {
    println!("# Table 1: post_comm paradigm matrix (executed end-to-end)");
    println!("direction\tremote_buf\tremote_comp\tvalidity\toperation\tobserved");

    let fabric = Fabric::new(2);
    let f2 = fabric.clone();
    let peer = std::thread::spawn(move || peer_rank(f2));
    let rt = Runtime::new(fabric, 0, RuntimeConfig::small()).unwrap();
    rt.oob_barrier();

    // Shared window on rank 1 for the RMA rows; rkey exchanged OOB.
    let window = vec![0u8; 1024];
    let mr = rt.register_memory(&window).unwrap();
    let all = rt.fabric().oob_allgather(0, mr.rkey.0.to_le_bytes().to_vec());
    let rkey1 = lci::Rkey(u32::from_le_bytes(all[1][..4].try_into().unwrap()));
    let sig = rt.register_rcomp(Comp::alloc_cq()); // rcomp 0 everywhere
    assert_eq!(sig, 0);
    rt.oob_barrier();

    let row = |dir, rbuf, rcomp, validity, op: &str, observed: &str| {
        println!("{dir}\t{rbuf}\t{rcomp}\t{validity}\t{op}\t{observed}");
    };

    // OUT / none / none -> send.
    let c = Comp::alloc_sync(1);
    let r = rt.post_send(1, vec![1u8; 256], 1, c.clone()).unwrap();
    wait(&rt, &c, &r);
    row("OUT", "none", "none", "yes", "send", "delivered");

    // OUT / none / specified -> active message.
    let c = Comp::alloc_sync(1);
    let r = rt.post_am(1, vec![2u8; 256], c.clone(), 0).unwrap();
    wait(&rt, &c, &r);
    row("OUT", "none", "specified", "yes", "active message", "delivered");

    // OUT / specified / none -> RMA put.
    let c = Comp::alloc_sync(1);
    let r = rt.post_put(1, vec![3u8; 64], rkey1, 0, c.clone()).unwrap();
    wait(&rt, &c, &r);
    row("OUT", "specified", "none", "yes", "RMA put", "written");

    // OUT / specified / specified -> put with signal.
    let c = Comp::alloc_sync(1);
    let r = rt
        .post_put_x(1, vec![4u8; 64], rkey1, 64, c.clone())
        .remote_comp(0)
        .tag(44)
        .call()
        .unwrap();
    wait(&rt, &c, &r);
    row("OUT", "specified", "specified", "yes", "RMA put w. signal", "written+signaled");

    // IN / none / none -> receive (peer sends us one message).
    rt.oob_barrier(); // peer: send now
    let c = Comp::alloc_sync(1);
    let r = rt.post_recv(1, vec![0u8; 512], 7, c.clone()).unwrap();
    wait(&rt, &c, &r);
    row("IN", "none", "none", "yes", "receive", "delivered");

    // IN / none / specified -> invalid.
    let err = rt
        .post_comm_x(Direction::In, 1)
        .recv_buf(vec![0u8; 8])
        .comp(Comp::alloc_sync(1))
        .remote_comp(0)
        .call();
    row(
        "IN",
        "none",
        "specified",
        "NO",
        "-",
        if err.is_err() { "rejected (InvalidArg)" } else { "unexpectedly accepted" },
    );

    // IN / specified / none -> RMA get.
    let c = Comp::alloc_sync(1);
    let r = rt.post_get(1, vec![0u8; 64], rkey1, 0, c.clone()).unwrap();
    wait(&rt, &c, &r);
    row("IN", "specified", "none", "yes", "RMA get", "read");

    // IN / specified / specified -> get with signal (extension: the
    // paper's interconnects lack RDMA-read-with-notify; ours does not).
    let c = Comp::alloc_sync(1);
    let r =
        rt.post_get_x(1, vec![0u8; 64], rkey1, 0, c.clone()).remote_comp(0).tag(55).call().unwrap();
    wait(&rt, &c, &r);
    row("IN", "specified", "specified", "yes", "RMA get w. signal", "read+signaled");

    coll::barrier(&rt).unwrap();
    drop(window);
    peer.join().unwrap();
}

fn wait(rt: &Runtime, c: &Comp, r: &PostResult) {
    if r.is_posted() {
        let sync = c.as_sync().unwrap();
        while !sync.test() {
            rt.progress().unwrap();
        }
        sync.reset();
    }
}

fn peer_rank(fabric: Arc<Fabric>) {
    let rt = Runtime::new(fabric, 1, RuntimeConfig::small()).unwrap();
    rt.oob_barrier();
    let window = vec![0u8; 1024];
    let mr = rt.register_memory(&window).unwrap();
    let _ = rt.fabric().oob_allgather(1, mr.rkey.0.to_le_bytes().to_vec());
    let sig_cq = Comp::alloc_cq();
    rt.register_rcomp(sig_cq.clone());
    rt.oob_barrier();

    // Serve: one recv (for the send row), one AM, the put/get signals,
    // and send one message for rank 0's receive row.
    let recv = Comp::alloc_sync(1);
    rt.post_recv(0, vec![0u8; 512], 1, recv.clone()).unwrap();

    let mut am_seen = false;
    let mut signals = 0;
    loop {
        rt.progress().unwrap();
        if let Some(d) = sig_cq.pop() {
            match d.kind {
                CompKind::Am => am_seen = true,
                CompKind::RemoteSignal => signals += 1,
                _ => {}
            }
        }
        if recv.as_sync().unwrap().test() && am_seen && signals >= 1 {
            break;
        }
    }
    rt.oob_barrier(); // rank 0 posts its receive row
    let c = Comp::alloc_sync(1);
    let r = rt.post_send(0, vec![7u8; 128], 7, c.clone()).unwrap();
    if r.is_posted() {
        let sync = c.as_sync().unwrap();
        while !sync.test() {
            rt.progress().unwrap();
        }
    }
    // Keep progressing until the final barrier (serves the get-signal).
    coll::barrier(&rt).unwrap();
    drop(window);
}
