//! Helpers shared by the device-level integration tests.

use lci_fabric::backend::{NetContext, NetDevice};
use lci_fabric::types::RecvBufDesc;
use lci_fabric::{Cqe, DeviceConfig, Fabric};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const DEADLINE: Duration = Duration::from_secs(20);

/// One device on each of two ranks of a fresh in-process fabric.
pub fn pair(cfg: DeviceConfig) -> (Arc<dyn NetDevice>, Arc<dyn NetDevice>) {
    let fabric = Fabric::new(2);
    let d0 = NetContext::new(fabric.clone(), 0).create_device(cfg);
    let d1 = NetContext::new(fabric, 1).create_device(cfg);
    (d0, d1)
}

/// Polls `dev` until `want` completions arrive (a wire may be
/// asynchronous even in one process: socket bytes land when the kernel
/// says so).
pub fn poll_until(dev: &Arc<dyn NetDevice>, want: usize) -> Vec<Cqe> {
    let deadline = Instant::now() + DEADLINE;
    let mut cqes = Vec::new();
    while cqes.len() < want {
        dev.poll_cq(&mut cqes, 64).unwrap();
        assert!(Instant::now() < deadline, "timed out at {}/{want} completions", cqes.len());
        std::thread::yield_now();
    }
    cqes
}

pub fn post_packet_recv(dev: &Arc<dyn NetDevice>, buf: &mut [u8], ctx: u64) {
    // SAFETY: the test keeps buf alive and unaliased until completion.
    let desc = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), ctx) };
    dev.post_recv(desc).unwrap();
}
