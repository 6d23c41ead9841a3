//! The shared-memory backend (DESIGN.md §4.9): real inter-process
//! transport behind the same [`NetDevice`](crate::backend::NetDevice)
//! trait as the simulated backends.
//!
//! Traffic travels through one directed SPSC [`ring`] channel per rank
//! pair inside a [`segment`] mapped by every participating process.
//! Frames carry `(src_dev, dst_dev)` so any number of devices per rank
//! share the rank-pair channel; the consuming rank routes each frame at
//! drain time — into the draining device's next posted receive, or to
//! the right device's RX endpoint — preserving the strict FIFO / RNR
//! discipline of the simulated wire.
//!
//! Two modes share all of this code:
//!
//! * **in-process** — `Fabric::new(n)` lazily creates an anonymous
//!   segment the first time a `shm` device is built, so every existing
//!   test and bench can switch transports with a `DeviceConfig` alone;
//! * **multi-process** — [`crate::bootstrap`] attaches each process to
//!   a named segment; a per-process bridge thread converts the
//!   segment's futex doorbell into local [`Doorbell`] rings so parked
//!   progress engines wake across process boundaries without spinning.

pub mod os;
pub mod ring;
pub mod segment;

pub(crate) mod device;

pub use device::ShmDevice;
pub use segment::{geometry_from_env, ShmSegment, ALLGATHER_MAX};

use crate::framed::DevShared;
use crate::sync::SpinLock;
use crate::types::{DevId, RecvBufDesc};
use ring::Channel;
use segment::PEER_EXITED;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// Capacity of the pending-read table (outstanding `post_read`s per
/// rank). Preallocated so the read path makes no steady-state
/// allocations.
const READ_TABLE_CAP: usize = 1024;

/// Fabric-level shared-memory state: the segment plus per-local-rank
/// runtime state, created lazily per rank.
pub(crate) struct ShmFabric {
    pub(crate) seg: Arc<ShmSegment>,
    states: Vec<OnceLock<Arc<ShmRankState>>>,
    /// True when ranks live in different processes (bootstrap attach).
    pub(crate) multiproc: bool,
    /// This process's rank; only meaningful when `multiproc`.
    pub(crate) my_rank: usize,
}

impl ShmFabric {
    /// In-process mode: anonymous segment, every rank local.
    pub(crate) fn in_process(nranks: usize) -> std::io::Result<ShmFabric> {
        let seg = Arc::new(ShmSegment::create_anonymous(nranks, geometry_from_env())?);
        for r in 0..nranks {
            seg.attach(r);
        }
        Ok(ShmFabric {
            seg,
            states: (0..nranks).map(|_| OnceLock::new()).collect(),
            multiproc: false,
            my_rank: 0,
        })
    }

    /// Multi-process mode: this process owns exactly `my_rank` of an
    /// externally created-and-attached segment.
    pub(crate) fn attached(seg: Arc<ShmSegment>, my_rank: usize) -> ShmFabric {
        let nranks = seg.nranks();
        ShmFabric {
            seg,
            states: (0..nranks).map(|_| OnceLock::new()).collect(),
            multiproc: true,
            my_rank,
        }
    }

    /// The runtime state for a rank hosted by this process, created on
    /// first use.
    pub(crate) fn state(&self, rank: usize) -> Arc<ShmRankState> {
        debug_assert!(!self.multiproc || rank == self.my_rank);
        self.states[rank]
            .get_or_init(|| ShmRankState::new(self.seg.clone(), rank, self.multiproc))
            .clone()
    }

    /// The state for `rank` if that rank lives in this process and has
    /// been initialized (a device exists). Used by producers to ring
    /// in-process doorbells directly.
    pub(crate) fn local_state(&self, rank: usize) -> Option<Arc<ShmRankState>> {
        if self.multiproc && rank != self.my_rank {
            return None;
        }
        self.states[rank].get().cloned()
    }

    /// First peer known to be dead (multi-process mode), if any.
    pub(crate) fn dead_peer(&self) -> Option<usize> {
        if self.multiproc {
            self.seg.dead_peer()
        } else {
            None
        }
    }
}

impl Drop for ShmFabric {
    fn drop(&mut self) {
        if self.multiproc {
            // Clean detach: quiesced peers see EXITED, not DIED.
            self.seg.set_peer_state(self.my_rank, PEER_EXITED);
        }
    }
}

/// Per-(process, rank) runtime state for the shm transport.
pub(crate) struct ShmRankState {
    pub(crate) rank: usize,
    pub(crate) seg: Arc<ShmSegment>,
    /// Outbound channels, indexed by destination rank (`rank → dst`).
    outbound: Vec<Channel>,
    /// Inbound channels, indexed by source rank (`src → rank`).
    inbound: Vec<Channel>,
    /// Serializes producers per outbound channel (several devices or
    /// threads on this rank share one rank-pair ring).
    prod_locks: Vec<SpinLock<()>>,
    /// Serializes consumers per inbound channel across this rank's
    /// devices; acquired with try-lock only, so progress engines never
    /// block each other here.
    drain_locks: Vec<SpinLock<()>>,
    /// Local shm devices on this rank (append-only registry), used to
    /// ring doorbells and to route `ReadDone` completions.
    devs: crate::sync::MpmcArray<Arc<DevShared>>,
    /// Outstanding `post_read`s awaiting a `READ_RESP` frame.
    reads: SpinLock<ReadTable>,
    /// Times the futex bridge woke and fanned out to local doorbells.
    cross_wakes: AtomicU64,
    bridge_shutdown: Arc<AtomicBool>,
    bridge: Mutex<Option<std::thread::JoinHandle<()>>>,
}

pub(crate) struct PendingRead {
    pub(crate) desc: RecvBufDesc,
    pub(crate) dev: DevId,
}

/// Fixed-capacity slab of pending reads with an intrusive free list:
/// no allocations after construction.
pub(crate) struct ReadTable {
    slots: Vec<Option<PendingRead>>,
    free: Vec<u32>,
}

impl ReadTable {
    pub(crate) fn new() -> ReadTable {
        ReadTable {
            slots: (0..READ_TABLE_CAP).map(|_| None).collect(),
            free: (0..READ_TABLE_CAP as u32).rev().collect(),
        }
    }

    pub(crate) fn alloc(&mut self, pr: PendingRead) -> Option<u32> {
        let id = self.free.pop()?;
        self.slots[id as usize] = Some(pr);
        Some(id)
    }

    pub(crate) fn take(&mut self, id: u32) -> Option<PendingRead> {
        let pr = self.slots.get_mut(id as usize)?.take()?;
        self.free.push(id);
        Some(pr)
    }

    /// Removes and returns every pending read posted by `dev` (teardown
    /// path; not steady state).
    pub(crate) fn drain_dev(&mut self, dev: DevId) -> Vec<PendingRead> {
        let mut out = Vec::new();
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|p| p.dev == dev) {
                out.push(slot.take().expect("checked Some"));
                self.free.push(id as u32);
            }
        }
        out
    }
}

impl ShmRankState {
    fn new(seg: Arc<ShmSegment>, rank: usize, multiproc: bool) -> Arc<ShmRankState> {
        let nranks = seg.nranks();
        let shutdown = Arc::new(AtomicBool::new(false));
        Arc::new_cyclic(|weak: &Weak<ShmRankState>| {
            let bridge = if multiproc {
                Some(spawn_bridge(seg.clone(), rank, shutdown.clone(), weak.clone()))
            } else {
                None
            };
            ShmRankState {
                rank,
                outbound: (0..nranks).map(|d| seg.channel(rank, d)).collect(),
                inbound: (0..nranks).map(|s| seg.channel(s, rank)).collect(),
                prod_locks: (0..nranks).map(|_| SpinLock::new(())).collect(),
                drain_locks: (0..nranks).map(|_| SpinLock::new(())).collect(),
                devs: crate::sync::MpmcArray::with_capacity(4),
                reads: SpinLock::new(ReadTable::new()),
                cross_wakes: AtomicU64::new(0),
                bridge_shutdown: shutdown,
                bridge: Mutex::new(bridge),
                seg,
            }
        })
    }

    pub(crate) fn register_dev(&self, dev: Arc<DevShared>) {
        self.devs.push(dev);
    }

    pub(crate) fn outbound(&self, dst: usize) -> &Channel {
        &self.outbound[dst]
    }

    pub(crate) fn inbound(&self, src: usize) -> &Channel {
        &self.inbound[src]
    }

    pub(crate) fn prod_lock(&self, dst: usize) -> &SpinLock<()> {
        &self.prod_locks[dst]
    }

    pub(crate) fn drain_lock(&self, src: usize) -> &SpinLock<()> {
        &self.drain_locks[src]
    }

    pub(crate) fn reads(&self) -> &SpinLock<ReadTable> {
        &self.reads
    }

    pub(crate) fn dev_by_id(&self, dev: DevId) -> Option<Arc<DevShared>> {
        (0..self.devs.len()).filter_map(|i| self.devs.read(i)).find(|d| d.dev_id() == dev)
    }

    /// Rings every local shm device doorbell on this rank.
    pub(crate) fn ring_all_bells(&self) {
        for i in 0..self.devs.len() {
            if let Some(d) = self.devs.read(i) {
                d.bell().ring();
            }
        }
    }

    /// Total frames queued toward this rank across all inbound channels.
    pub(crate) fn inbound_occupancy(&self) -> usize {
        self.inbound.iter().map(|c| c.occupancy()).sum()
    }

    /// Highest ring-occupancy high-water mark over every channel that
    /// touches this rank (inbound and outbound).
    pub(crate) fn ring_occ_hwm(&self) -> u64 {
        self.inbound
            .iter()
            .chain(self.outbound.iter())
            .map(|c| c.occupancy_hwm())
            .max()
            .unwrap_or(0)
    }

    pub(crate) fn cross_proc_wakes(&self) -> u64 {
        self.cross_wakes.load(Ordering::Relaxed)
    }
}

impl Drop for ShmRankState {
    fn drop(&mut self) {
        self.bridge_shutdown.store(true, Ordering::Release);
        if let Some(h) = self.bridge.lock().expect("bridge handle poisoned").take() {
            // Unpark the bridge so it observes the shutdown flag.
            self.seg.ring_doorbell(self.rank);
            let _ = h.join();
        }
    }
}

/// The cross-process doorbell bridge: parks on this rank's futex word
/// in the segment and fans each wake out to the local [`Doorbell`]s of
/// every shm device on the rank — the piece that lets a `Dedicated`
/// progress engine sleep while a *remote process* produces frames.
///
/// [`Doorbell`]: crate::sync::Doorbell
fn spawn_bridge(
    seg: Arc<ShmSegment>,
    rank: usize,
    shutdown: Arc<AtomicBool>,
    state: Weak<ShmRankState>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("lci-shm-bridge{rank}"))
        .spawn(move || {
            let mut seen = seg.doorbell_seq(rank);
            loop {
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                let cur = seg.doorbell_wait(rank, seen, Duration::from_millis(100));
                if cur == seen {
                    continue;
                }
                seen = cur;
                let Some(st) = state.upgrade() else { break };
                st.cross_wakes.fetch_add(1, Ordering::Relaxed);
                st.ring_all_bells();
            }
        })
        .expect("failed to spawn shm doorbell bridge")
}
