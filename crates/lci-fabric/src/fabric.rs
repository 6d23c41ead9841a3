//! The fabric: the device registry (where a frame finds the posted
//! receives of the device it names) and out-of-band bootstrap (the PMI
//! stand-in).

use crate::backend::DeviceConfig;
use crate::dev_shared::DevShared;
use crate::mem::RegistrationTable;
use crate::shm::{ShmFabric, ShmSegment};
use crate::sync::MpmcArray;
use crate::types::{DevId, NetError, NetResult, Rank, RetryReason};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Out-of-band bootstrap state: a tiny PMI. Real LCI bootstraps through
/// PMI1/PMI2/PMIx/MPI; our ranks share an address space, so a barrier and
/// an allgather suffice.
struct Oob {
    mutex: Mutex<OobInner>,
    cond: Condvar,
}

struct OobInner {
    barrier_count: usize,
    barrier_gen: usize,
    gather: Vec<Option<Vec<u8>>>,
}

/// The simulated interconnect: connects `nranks` ranks, owns the device
/// registry and the memory registration table.
pub struct Fabric {
    nranks: usize,
    /// Per-rank device registry: `(rank, dev_id) -> DevShared`, the
    /// completion and receive state whoever delivers into a device
    /// reaches it by. MPMC arrays (paper §4.1.1): appended at device
    /// creation, read lock-free on every delivery.
    devices: Vec<MpmcArray<Arc<DevShared>>>,
    mem: RegistrationTable,
    oob: Oob,
    /// Shared-memory transport state, created lazily the first time an
    /// `shm` device is built (in-process mode) or eagerly by the
    /// multi-process bootstrap ([`Fabric::attached`]).
    shm: OnceLock<Arc<ShmFabric>>,
    /// TCP transport state, created lazily the first time a `tcp`
    /// device is built (in-process loopback mesh) or eagerly by the
    /// multi-process bootstrap (`Fabric::attached_tcp`).
    #[cfg(unix)]
    tcp: OnceLock<Arc<crate::tcp::TcpFabric>>,
}

impl Fabric {
    /// Creates a fabric connecting `nranks` ranks.
    pub fn new(nranks: usize) -> Arc<Self> {
        assert!(nranks >= 1, "fabric needs at least one rank");
        Arc::new(Self {
            nranks,
            devices: (0..nranks).map(|_| MpmcArray::with_capacity(4)).collect(),
            mem: RegistrationTable::new(),
            oob: Oob {
                mutex: Mutex::new(OobInner {
                    barrier_count: 0,
                    barrier_gen: 0,
                    gather: vec![None; nranks],
                }),
                cond: Condvar::new(),
            },
            shm: OnceLock::new(),
            #[cfg(unix)]
            tcp: OnceLock::new(),
        })
    }

    /// Creates a fabric attached to an existing multi-process shared
    /// segment: this process hosts only `my_rank`; the other ranks are
    /// other OS processes. OOB collectives go through the segment.
    pub fn attached(seg: Arc<ShmSegment>, my_rank: Rank) -> Arc<Self> {
        let nranks = seg.nranks();
        assert!(my_rank < nranks, "rank {my_rank} out of range");
        let f = Self::new(nranks);
        f.shm
            .set(Arc::new(ShmFabric::attached(seg, my_rank)))
            .ok()
            .expect("fresh fabric cannot already have shm state");
        f
    }

    /// The shared-memory transport state, creating an in-process
    /// anonymous segment on first use (so any test or bench switches to
    /// the shm transport with a `DeviceConfig` alone).
    pub(crate) fn shm_fabric(&self) -> &Arc<ShmFabric> {
        self.shm.get_or_init(|| {
            Arc::new(
                ShmFabric::in_process(self.nranks)
                    .expect("failed to create in-process shm segment"),
            )
        })
    }

    /// First shm peer known to be dead or cleanly exited, if any
    /// (multi-process mode only).
    pub fn shm_dead_peer(&self) -> Option<Rank> {
        self.shm.get().and_then(|s| s.dead_peer())
    }

    /// Creates a fabric attached to a multi-process TCP mesh: this
    /// process hosts only `my_rank`; `conns` holds one established mesh
    /// socket per peer. OOB collectives go through the root service.
    #[cfg(unix)]
    pub(crate) fn attached_tcp(
        conns: Vec<Option<std::net::TcpStream>>,
        my_rank: Rank,
        nranks: usize,
        oob: crate::tcp::oob::OobClient,
    ) -> Arc<Self> {
        assert!(my_rank < nranks, "rank {my_rank} out of range");
        let f = Self::new(nranks);
        f.tcp
            .set(Arc::new(crate::tcp::TcpFabric::attached(conns, my_rank, nranks, oob)))
            .ok()
            .expect("fresh fabric cannot already have tcp state");
        f
    }

    /// The TCP transport state, creating an in-process loopback mesh on
    /// first use (so any test or bench switches to the tcp transport
    /// with a `DeviceConfig` alone).
    #[cfg(unix)]
    pub(crate) fn tcp_fabric(&self) -> &Arc<crate::tcp::TcpFabric> {
        self.tcp.get_or_init(|| {
            Arc::new(
                crate::tcp::TcpFabric::in_process(self.nranks)
                    .expect("failed to create in-process tcp loopback mesh"),
            )
        })
    }

    /// This process's rank when attached to a multi-process TCP mesh.
    pub fn tcp_rank(&self) -> Option<Rank> {
        #[cfg(unix)]
        {
            self.tcp.get().filter(|t| t.multiproc).map(|t| t.my_rank)
        }
        #[cfg(not(unix))]
        {
            None
        }
    }

    /// First tcp peer known to be dead or cleanly exited, if any
    /// (multi-process mode only).
    pub fn tcp_dead_peer(&self) -> Option<Rank> {
        #[cfg(unix)]
        {
            self.tcp.get().and_then(|t| t.dead_peer())
        }
        #[cfg(not(unix))]
        {
            None
        }
    }

    /// First peer known dead on any attached multi-process transport.
    pub fn dead_peer(&self) -> Option<Rank> {
        self.shm_dead_peer().or_else(|| self.tcp_dead_peer())
    }

    /// Number of ranks the fabric connects.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The global memory registration table.
    pub fn mem(&self) -> &RegistrationTable {
        &self.mem
    }

    /// Registers a new device for `rank`, its state built with the
    /// [`DevId`] the append hands out.
    pub(crate) fn add_device(&self, rank: Rank, cfg: &DeviceConfig) -> Arc<DevShared> {
        assert!(rank < self.nranks, "rank {rank} out of range");
        let registry = &self.devices[rank];
        let id = registry.push_with(|id| Arc::new(DevShared::new(id, cfg)));
        registry.get(id).expect("appended above").clone()
    }

    /// Looks up a device to deliver into: a lock-free borrow, so a
    /// delivery takes no refcount on state every sender toward that
    /// device shares.
    pub(crate) fn device(&self, rank: Rank, dev: DevId) -> NetResult<&DevShared> {
        if rank >= self.nranks {
            return Err(NetError::fatal(format!("rank {rank} out of range")));
        }
        let shared = self.devices[rank].get(dev);
        shared.map(|d| &**d).ok_or(NetError::Retry(RetryReason::PeerNotReady))
    }

    /// Number of devices currently created on `rank`.
    pub fn device_count(&self, rank: Rank) -> usize {
        self.devices[rank].len()
    }

    /// Out-of-band barrier across all ranks (bootstrap only; do not use on
    /// the data path).
    pub fn oob_barrier(&self) {
        if let Some(shm) = self.shm.get() {
            if shm.multiproc {
                shm.seg.barrier();
                return;
            }
        }
        #[cfg(unix)]
        if let Some(tcp) = self.tcp.get() {
            if tcp.multiproc {
                tcp.oob
                    .as_ref()
                    .expect("multiproc tcp fabric has an oob client")
                    .barrier()
                    .expect("tcp oob barrier failed (a peer rank died)");
                return;
            }
        }
        let mut g = self.oob.mutex.lock().expect("oob poisoned");
        let gen = g.barrier_gen;
        g.barrier_count += 1;
        if g.barrier_count == self.nranks {
            g.barrier_count = 0;
            g.barrier_gen += 1;
            self.oob.cond.notify_all();
        } else {
            while g.barrier_gen == gen {
                g = self.oob.cond.wait(g).expect("oob poisoned");
            }
        }
    }

    /// Out-of-band allgather: every rank contributes `data`; all ranks
    /// receive everyone's contribution, rank-ordered. Bootstrap only.
    ///
    /// Built from three barriers (write / read / reset) so consecutive
    /// rounds can never interleave.
    pub fn oob_allgather(&self, rank: Rank, data: Vec<u8>) -> Vec<Vec<u8>> {
        if let Some(shm) = self.shm.get() {
            if shm.multiproc {
                return shm.seg.allgather(rank, &data);
            }
        }
        #[cfg(unix)]
        if let Some(tcp) = self.tcp.get() {
            if tcp.multiproc {
                return tcp
                    .oob
                    .as_ref()
                    .expect("multiproc tcp fabric has an oob client")
                    .allgather(&data)
                    .expect("tcp oob allgather failed (a peer rank died)");
            }
        }
        {
            let mut g = self.oob.mutex.lock().expect("oob poisoned");
            g.gather[rank] = Some(data);
        }
        self.oob_barrier(); // every slot written
        let result: Vec<Vec<u8>> = {
            let g = self.oob.mutex.lock().expect("oob poisoned");
            g.gather.iter().map(|o| o.clone().expect("allgather slot missing")).collect()
        };
        self.oob_barrier(); // every rank has read
        if rank == 0 {
            let mut g = self.oob.mutex.lock().expect("oob poisoned");
            for slot in g.gather.iter_mut() {
                *slot = None;
            }
        }
        self.oob_barrier(); // reset visible before any next-round write
        result
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric").field("nranks", &self.nranks).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fabric_device_registry() {
        let f = Fabric::new(2);
        let dev = f.add_device(1, &DeviceConfig::ibv());
        assert_eq!(dev.dev_id(), 0);
        assert_eq!(f.add_device(1, &DeviceConfig::ibv()).dev_id(), 1);
        assert!(std::ptr::eq(f.device(1, 0).unwrap(), &*dev));
        assert!(matches!(f.device(1, 5), Err(NetError::Retry(RetryReason::PeerNotReady))));
        assert!(f.device(7, 0).is_err());
        assert_eq!((f.device_count(0), f.device_count(1)), (0, 2));
    }

    #[test]
    fn oob_barrier_synchronizes() {
        let f = Fabric::new(4);
        let flag = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let f = f.clone();
                let flag = flag.clone();
                std::thread::spawn(move || {
                    flag.fetch_add(1, Ordering::SeqCst);
                    f.oob_barrier();
                    assert_eq!(flag.load(Ordering::SeqCst), 4);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn oob_allgather_collects_all() {
        let f = Fabric::new(3);
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let f = f.clone();
                std::thread::spawn(move || {
                    let out = f.oob_allgather(r, vec![r as u8; r + 1]);
                    assert_eq!(out.len(), 3);
                    for (i, v) in out.iter().enumerate() {
                        assert_eq!(v, &vec![i as u8; i + 1]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn oob_allgather_two_rounds() {
        let f = Fabric::new(2);
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let f = f.clone();
                std::thread::spawn(move || {
                    for round in 0..2u8 {
                        let out = f.oob_allgather(r, vec![round * 10 + r as u8]);
                        assert_eq!(out, vec![vec![round * 10], vec![round * 10 + 1]]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
