//! The shared-memory backend (DESIGN.md §4.9): real inter-process
//! transport behind the same [`NetDevice`](crate::backend::NetDevice)
//! trait as the simulated backends.
//!
//! Traffic travels through one directed SPSC [`ring`] channel per rank
//! pair inside a [`segment`] mapped by every participating process.
//! Frames carry `(src_dev, dst_dev)` so any number of devices per rank
//! share the rank-pair channel; the framed device core
//! (`crate::framed`, over this module's `device::ShmWire`) routes
//! each frame at drain time into the posted receive of the device it
//! names; a frame that finds none stays at the head of its channel —
//! strict FIFO, RC's receiver-not-ready.
//!
//! Two modes share all of this code:
//!
//! * **in-process** — `Fabric::new(n)` lazily creates an anonymous
//!   segment the first time a `shm` device is built, so every existing
//!   test and bench can switch transports with a `DeviceConfig` alone;
//! * **multi-process** — [`crate::bootstrap`] attaches each process to
//!   a named segment.
//!
//! Either way a frame is found by the consuming rank's next poll: a
//! producer wakes nobody and the transport runs no thread.

pub mod os;
pub mod ring;
pub mod segment;

pub(crate) mod device;

pub use segment::{ShmSegment, ALLGATHER_MAX};

use crate::framed::RankCore;
use crate::sync::SpinLock;
use ring::Channel;
use segment::{GEOMETRY, PEER_EXITED};
use std::sync::{Arc, OnceLock};

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
        let seg = Arc::new(ShmSegment::create_anonymous(nranks, GEOMETRY)?);
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
            .get_or_init(|| Arc::new(ShmRankState::new(self.seg.clone(), rank)))
            .clone()
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
    /// Keeps the mapping the channels point into alive.
    _seg: Arc<ShmSegment>,
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
    /// The device registry and pending reads the framed core keeps per
    /// rank.
    pub(crate) core: RankCore,
}

impl ShmRankState {
    fn new(seg: Arc<ShmSegment>, rank: usize) -> ShmRankState {
        let nranks = seg.nranks();
        ShmRankState {
            rank,
            outbound: (0..nranks).map(|d| seg.channel(rank, d)).collect(),
            inbound: (0..nranks).map(|s| seg.channel(s, rank)).collect(),
            prod_locks: (0..nranks).map(|_| SpinLock::new(())).collect(),
            drain_locks: (0..nranks).map(|_| SpinLock::new(())).collect(),
            core: RankCore::default(),
            _seg: seg,
        }
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
}
