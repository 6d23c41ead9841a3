//! The parcelport: the AMT runtime's network layer (HPX terminology).
//!
//! A *parcel* is (destination rank, action id, payload). Incoming
//! parcels spawn their registered action as a *task* on the scheduler —
//! unlike AM handlers, actions are unrestricted (they may communicate,
//! block on futures, spawn work), which is the RPC-vs-AM distinction of
//! paper §3.2.
//!
//! The port keeps one LCW endpoint per pool worker (dedicated-resource
//! mode maps each onto an LCI device / MPICH VCI); the pool's idle hook
//! drives progress on the worker's own endpoint, the all-worker
//! progress setup.

use crate::sched::Pool;
use lcw::{Endpoint, World};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An action: invoked with (source rank, payload).
pub type Action = Arc<dyn Fn(usize, Vec<u8>) + Send + Sync>;

/// The parcelport.
pub struct Parcelport {
    endpoints: Vec<Mutex<Endpoint>>,
    actions: lci_fabric::sync::MpmcArray<Action>,
    pool: Arc<Pool>,
    rank: usize,
    nranks: usize,
    /// Parcels sent/received (diagnostics & quiescence accounting).
    sent: AtomicU64,
    delivered: AtomicU64,
}

impl Parcelport {
    /// Creates the port over `world`, one endpoint per pool worker.
    /// Actions must be registered (in identical order on every rank)
    /// before any parcel traffic.
    pub fn new(world: &World, pool: Arc<Pool>) -> Arc<Parcelport> {
        let n = pool.nthreads();
        let endpoints = (0..n).map(|t| Mutex::new(world.endpoint(t))).collect();
        Arc::new(Parcelport {
            endpoints,
            actions: lci_fabric::sync::MpmcArray::with_capacity(8),
            pool,
            rank: world.rank(),
            nranks: world.size(),
            sent: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
        })
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Registers an action; returns its id.
    pub fn register_action(&self, f: impl Fn(usize, Vec<u8>) + Send + Sync + 'static) -> u32 {
        self.actions.push(Arc::new(f)) as u32
    }

    /// Installs this port as the pool's idle hook. Call once after all
    /// actions are registered.
    pub fn attach(self: &Arc<Self>) {
        let port = self.clone();
        self.pool.set_idle_hook(move |worker| port.progress_worker(worker));
    }

    /// Sends a parcel. Retries internally (progressing the sender's own
    /// endpoint) until the payload is accepted.
    pub fn send(&self, dest: usize, action: u32, payload: &[u8]) {
        let idx = crate::sched::Pool::current_worker().unwrap_or(0) % self.endpoints.len();
        let mut ep = self.endpoints[idx].lock();
        while !ep.send_am(dest, payload, action) {
            ep.progress();
            drop(ep);
            // Let this worker serve inbound parcels while blocked.
            self.progress_worker(idx);
            ep = self.endpoints[idx].lock();
        }
        self.sent.fetch_add(1, Ordering::AcqRel);
    }

    /// Progress entry point (idle hook): polls the worker's endpoint and
    /// spawns actions for delivered parcels.
    pub fn progress_worker(&self, worker: usize) -> bool {
        let idx = if worker == usize::MAX { 0 } else { worker % self.endpoints.len() };
        let Some(mut ep) = self.endpoints[idx].try_lock() else {
            return false;
        };
        let mut did = ep.progress();
        // Bounded drain so one poll cannot monopolize the worker.
        for _ in 0..16 {
            let Some(msg) = ep.poll_msg() else { break };
            did = true;
            let action = self.actions.read(msg.tag as usize).expect("unregistered parcel action");
            let src = msg.src;
            // An action owns its parcel past this poll: copy it out of
            // the delivered buffer, which goes back to the library now.
            let data = msg.data.into_vec();
            self.delivered.fetch_add(1, Ordering::AcqRel);
            self.pool.spawn(move || action(src, data));
        }
        did
    }

    /// Parcels sent by this rank.
    pub fn sent_count(&self) -> u64 {
        self.sent.load(Ordering::Acquire)
    }

    /// Parcels delivered to this rank.
    pub fn delivered_count(&self) -> u64 {
        self.delivered.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lci_fabric::Fabric;
    use lcw::{BackendKind, Platform, ResourceMode, WorldConfig};
    use std::sync::atomic::AtomicU64 as A64;

    fn two_rank_port_test(backend: BackendKind, mode: ResourceMode) {
        let fabric = Fabric::new(2);
        let cfg = WorldConfig::new(backend, Platform::Expanse, mode);
        let f2 = fabric.clone();
        let t = std::thread::spawn(move || {
            let pool = Arc::new(Pool::new(2));
            let world = World::new(f2.clone(), 1, cfg);
            let port = Parcelport::new(&world, pool.clone());
            let got = Arc::new(A64::new(0));
            let g = got.clone();
            let port2 = port.clone();
            port.register_action(move |src, data| {
                // Actions may communicate: echo back.
                assert_eq!(src, 0);
                g.fetch_add(data.len() as u64, Ordering::SeqCst);
                port2.send(0, 0, &data);
            });
            port.attach();
            f2.oob_barrier();
            while got.load(Ordering::SeqCst) < 10 * 64 {
                pool.help_progress();
                std::thread::yield_now();
            }
            f2.oob_barrier();
        });
        let pool = Arc::new(Pool::new(2));
        let world = World::new(fabric.clone(), 0, cfg);
        let port = Parcelport::new(&world, pool.clone());
        let echoed = Arc::new(A64::new(0));
        let e = echoed.clone();
        port.register_action(move |src, data| {
            assert_eq!(src, 1);
            e.fetch_add(data.len() as u64, Ordering::SeqCst);
        });
        port.attach();
        fabric.oob_barrier();
        for _ in 0..10 {
            port.send(1, 0, &[7u8; 64]);
        }
        while echoed.load(Ordering::SeqCst) < 10 * 64 {
            pool.help_progress();
            std::thread::yield_now();
        }
        fabric.oob_barrier();
        t.join().unwrap();
    }

    #[test]
    fn parcel_echo_lci_dedicated() {
        two_rank_port_test(BackendKind::Lci, ResourceMode::Dedicated(2));
    }

    #[test]
    fn parcel_echo_mpi_shared() {
        two_rank_port_test(BackendKind::Mpi, ResourceMode::Shared);
    }

    #[test]
    fn parcel_echo_vci() {
        two_rank_port_test(BackendKind::Vci, ResourceMode::Dedicated(2));
    }
}
