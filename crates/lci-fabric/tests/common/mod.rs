//! Helpers shared by the device-level integration tests.

use lci_fabric::backend::{NetContext, NetDevice};
use lci_fabric::types::{CqeKind, RecvBufDesc};
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

/// A receiving end that keeps up: a few receives of `len` bytes it
/// re-posts as they complete, checking that message `i` (its immediate)
/// is the `i`-th to arrive and carries `expected(i)`.
// Each test binary uses the parts it needs.
#[allow(dead_code)]
pub struct Sink<'a> {
    dev: &'a Arc<dyn NetDevice>,
    bufs: Vec<Vec<u8>>,
    expected: fn(u64) -> Vec<u8>,
    /// Messages arrived so far.
    pub next: u64,
    cqes: Vec<Cqe>,
}

#[allow(dead_code)]
impl<'a> Sink<'a> {
    pub fn new(dev: &'a Arc<dyn NetDevice>, len: usize, expected: fn(u64) -> Vec<u8>) -> Self {
        let mut bufs: Vec<Vec<u8>> = (0..32).map(|_| vec![0u8; len]).collect();
        for (i, b) in bufs.iter_mut().enumerate() {
            post_packet_recv(dev, b, i as u64);
        }
        Sink { dev, bufs, expected, next: 0, cqes: Vec::new() }
    }

    /// One poll's worth.
    pub fn drain(&mut self) {
        self.dev.poll_cq(&mut self.cqes, 64).unwrap();
        for c in self.cqes.drain(..) {
            assert_eq!((c.kind, c.imm), (CqeKind::RecvDone, self.next), "out of post order");
            let slot = c.ctx as usize;
            assert!(
                self.bufs[slot][..c.len] == (self.expected)(self.next)[..],
                "message {}",
                c.imm
            );
            self.next += 1;
            post_packet_recv(self.dev, &mut self.bufs[slot], c.ctx);
        }
    }

    /// Drains until `n` messages have arrived, `sender` polling along
    /// (tcp writes its stream out there); returns what the sender polled.
    pub fn drain_until(&mut self, n: u64, sender: &Arc<dyn NetDevice>) -> Vec<Cqe> {
        let (mut polled, deadline) = (Vec::new(), Instant::now() + DEADLINE);
        while self.next < n {
            sender.poll_cq(&mut polled, 64).unwrap();
            self.drain();
            assert!(Instant::now() < deadline, "stuck at {}/{n} messages", self.next);
        }
        polled
    }
}
