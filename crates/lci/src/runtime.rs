//! The runtime object (paper §3.2.2).
//!
//! LCI has no global initialization: the user (de)allocates *runtime
//! objects* wrapping default configurations and communication resources.
//! Multiple runtimes can coexist (library composition) without
//! interfering: each has its own devices, packet pool, matching engine
//! and registered-completion table.
//!
//! Deviation from the C++ API: the paper's `g_runtime` global default is
//! omitted because this reproduction runs many ranks inside one process
//! (DESIGN.md); a global per-process runtime would alias ranks.

use crate::coalesce::CoalesceConfig;
use crate::comp::Comp;
use crate::device::{Device, DeviceInner, MatchEntry};
use crate::error::{FatalError, Result};
use crate::matching::{MatchingConfig, MatchingEngine};
use crate::packet_pool::{PacketPool, PacketPoolConfig};
use crate::proto::COALESCE_SUB_OVERHEAD;
use crate::types::{RComp, Rank};
use crate::wait::Streak;
use lci_fabric::sync::MpmcArray;
use lci_fabric::topology;
use lci_fabric::{DeviceConfig, Fabric, NetContext};
use std::sync::{Arc, Weak};

/// Runtime configuration: the attributes a runtime is allocated with.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Fabric device configuration (backend, lock discipline, staging
    /// pool).
    pub device: DeviceConfig,
    /// Packet pool sizing. Messages up to `packet.payload_size` are
    /// eager: the wire copies them out inside the post, which returns
    /// `Done`, and they land in packets. Larger ones use zero-copy
    /// rendezvous.
    pub packet: PacketPoolConfig,
    /// Pre-posted receive target per device. The receives are restocked
    /// when their count falls to half of it (hysteresis), back to the
    /// target with one batched posting call.
    pub prepost: usize,
    /// Matching-engine configuration.
    pub matching: MatchingConfig,
    /// Sender-side small-message coalescing (off by default; see
    /// [`CoalesceConfig`]).
    pub coalesce: CoalesceConfig,
    /// Piece size collectives cut each block into (the pipelined ring
    /// allreduce's chunks). Must be nonzero; a value above the wire's
    /// largest write ([`lci_fabric::BackendKind::max_write`]) cuts at
    /// that instead.
    pub coll_chunk_size: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            device: DeviceConfig::default(),
            packet: PacketPoolConfig::default(),
            prepost: 64,
            matching: MatchingConfig::default(),
            coalesce: CoalesceConfig::default(),
            coll_chunk_size: 64 << 10,
        }
    }
}

impl RuntimeConfig {
    /// Preset for the ibv-like backend (fine-grained locks; plays SDSC
    /// Expanse in the benchmarks).
    pub fn ibv() -> Self {
        Self { device: DeviceConfig::ibv(), ..Self::default() }
    }

    /// Preset for the ofi-like backend (endpoint lock; plays NCSA Delta).
    pub fn ofi() -> Self {
        Self { device: DeviceConfig::ofi(), ..Self::default() }
    }

    /// Preset for the shared-memory backend (real cross-process-capable
    /// rings; ibv-style lock layout).
    pub fn shm() -> Self {
        Self { device: DeviceConfig::shm(), ..Self::default() }
    }

    /// Replaces the device configuration, keeping everything else.
    pub fn with_device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self
    }

    /// Sets the collective pipelining chunk size (see
    /// [`coll_chunk_size`](Self::coll_chunk_size)).
    pub fn with_coll_chunk_size(mut self, bytes: usize) -> Self {
        self.coll_chunk_size = bytes;
        self
    }

    /// Scales pool/prepost sizes down, for tests and high-rank-count
    /// benchmarks inside one process.
    pub fn small() -> Self {
        Self {
            packet: PacketPoolConfig { payload_size: 4096, count: 256 },
            prepost: 32,
            matching: MatchingConfig { buckets: 512 },
            ..Self::default()
        }
    }
}

pub(crate) struct RuntimeInner {
    pub fabric: Arc<Fabric>,
    pub rank: Rank,
    pub config: RuntimeConfig,
    pub netctx: NetContext,
    pub pool: PacketPool,
    pub matching: Arc<MatchingEngine<MatchEntry>>,
    pub rcomp: MpmcArray<Comp>,
    /// Collective sequence counter (see `crate::coll`).
    pub coll_seq: std::sync::atomic::AtomicU32,
    /// Cached collective-engine state (lazily initialised by
    /// [`crate::coll`]): reusable completion objects, the fold arena,
    /// and bookkeeping scratch, so warm collectives allocate nothing.
    /// Collectives on one runtime serialize on this lock — the usual
    /// "all ranks call collectives in the same order" contract already
    /// implies one collective at a time per rank.
    pub coll: parking_lot::Mutex<Option<crate::coll::CollState>>,
    /// Whether this runtime's device addresses every rank's memory, so
    /// reductions run the direct schedule; asked at the first one.
    pub coll_direct: std::sync::OnceLock<bool>,
    /// Every device allocated on this runtime, in creation order. Weak:
    /// `DeviceInner` holds `rt: Arc<RuntimeInner>`, so a strong registry
    /// would cycle and leak. [`Runtime::progress_all`] walks this.
    pub devices: MpmcArray<Weak<DeviceInner>>,
}

/// A runtime handle (cheap to clone). Dropping the last handle releases
/// the runtime's resources.
#[derive(Clone)]
pub struct Runtime {
    pub(crate) inner: Arc<RuntimeInner>,
    default_dev: Device,
}

impl Runtime {
    /// Allocates a runtime for `rank` on `fabric` with `config`, creating
    /// the default device (device 0 when this is the rank's first
    /// runtime).
    pub fn new(fabric: Arc<Fabric>, rank: Rank, config: RuntimeConfig) -> Result<Runtime> {
        if config.coalesce.enabled {
            if config.coalesce.max_bytes > config.packet.payload_size {
                return Err(FatalError::InvalidArg(
                    "coalesce.max_bytes must not exceed packet payload size".into(),
                ));
            }
            // A frame's record count rides the header's 24-bit aux
            // field, and a frame of empty records holds the most.
            if config.coalesce.max_bytes / COALESCE_SUB_OVERHEAD >= (1 << 24) {
                return Err(FatalError::InvalidArg(
                    "coalesce.max_bytes / 12 must be below 2^24 (frame header aux)".into(),
                ));
            }
        }
        if config.coll_chunk_size == 0 {
            return Err(FatalError::InvalidArg("coll_chunk_size must be nonzero".into()));
        }
        if rank >= fabric.nranks() {
            return Err(FatalError::InvalidArg(format!(
                "rank {rank} out of range for fabric of {}",
                fabric.nranks()
            )));
        }
        let netctx = NetContext::new(fabric.clone(), rank);
        let pool = PacketPool::new(config.packet)?;
        let inner = Arc::new(RuntimeInner {
            fabric,
            rank,
            netctx,
            pool,
            matching: Arc::new(MatchingEngine::with_config(config.matching)),
            rcomp: MpmcArray::with_capacity(16),
            coll_seq: std::sync::atomic::AtomicU32::new(0),
            coll: parking_lot::Mutex::new(None),
            coll_direct: std::sync::OnceLock::new(),
            devices: MpmcArray::with_capacity(4),
            config,
        });
        let default_dev = Device::create(inner.clone())?;
        Ok(Runtime { inner, default_dev })
    }

    /// Allocates a runtime with the default configuration.
    pub fn with_defaults(fabric: Arc<Fabric>, rank: Rank) -> Result<Runtime> {
        Self::new(fabric, rank, RuntimeConfig::default())
    }

    /// This rank (the paper's `get_rank_me`).
    pub fn rank_me(&self) -> Rank {
        self.inner.rank
    }

    /// Total ranks (the paper's `get_rank_n`).
    pub fn rank_n(&self) -> usize {
        self.inner.fabric.nranks()
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.inner.config
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.inner.fabric
    }

    /// The default device.
    #[inline]
    pub fn device(&self) -> &Device {
        &self.default_dev
    }

    /// Allocates an additional device (paper `alloc_device`); threads
    /// operating on different devices do not interfere.
    pub fn alloc_device(&self) -> Result<Device> {
        Device::create(self.inner.clone())
    }

    /// The calling thread's core-local device: with a core map wider
    /// than one and several devices allocated, workers on different
    /// cores spread over the device list (`core % ndevices`) instead of
    /// all funnelling through device 0. Falls back to the default device
    /// when the core map is one core wide, only one device exists, or
    /// the core-mapped device has been dropped.
    pub fn home_device(&self) -> Device {
        let n = self.inner.devices.len();
        if n > 1 && topology::ncores() > 1 {
            let idx = topology::current_core() % n;
            if let Some(inner) = self.inner.devices.get(idx).and_then(Weak::upgrade) {
                return Device { inner };
            }
        }
        self.default_dev.clone()
    }

    /// The runtime's packet pool.
    pub fn packet_pool(&self) -> &PacketPool {
        &self.inner.pool
    }

    /// Registers a completion object into a remote completion handle
    /// (paper `register_rcomp`). All ranks must register their completion
    /// objects in the same order so handles agree, or exchange handles
    /// out of band. A delivery that another thread's `progress` polls
    /// in before this returns is parked on its device and retried on the
    /// next progress call (`early_inbound` counts them).
    pub fn register_rcomp(&self, comp: Comp) -> RComp {
        self.inner.rcomp.push(comp) as RComp
    }

    /// Makes progress on the default device (paper `progress`). Returns
    /// whether any work was performed.
    #[inline]
    pub fn progress(&self) -> Result<bool> {
        self.default_dev.progress()
    }

    /// Makes progress on *every* device allocated on this runtime
    /// ([`alloc_device`](Self::alloc_device) included), in creation
    /// order. Returns whether any device performed work.
    pub fn progress_all(&self) -> Result<bool> {
        let mut did = false;
        let n = self.inner.devices.len();
        for i in 0..n {
            if let Some(inner) = self.inner.devices.get(i).and_then(Weak::upgrade) {
                did |= Device { inner }.progress()?;
            }
        }
        Ok(did)
    }

    /// Waits for `f` to hold — the blocking helper the collectives,
    /// tests and simple clients block through.
    /// Sweeps progress on every device of this runtime
    /// ([`progress_all`](Self::progress_all)) between tests.
    ///
    /// A run of idle sweeps (a *streak*, ended by a useful sweep or by
    /// `f` holding) spins up to the calling thread's learned budget and
    /// then yields the core on every further idle sweep. The thread
    /// learns from each streak: one that ended before its first yield
    /// doubles the budget (up to 64 sweeps), one that yielded halves it,
    /// and every 16th streak spins the full 64 to find out whether
    /// spinning pays again. A waiter whose peer needs its core (rank
    /// threads sharing one, as in this reproduction) so stops spinning
    /// within a few streaks, and one whose peer has a core of its own
    /// keeps spinning (DESIGN.md §4.8).
    pub fn wait_until(&self, mut f: impl FnMut() -> bool) -> Result<()> {
        let mut streak = Streak::default();
        while !f() {
            if self.progress_all()? {
                streak.end();
            } else {
                streak.idle();
            }
        }
        streak.end();
        Ok(())
    }

    /// Barrier across all ranks, implemented over the out-of-band
    /// bootstrap channel (setup/teardown only; use
    /// [`crate::coll::barrier`] on the data path).
    pub fn oob_barrier(&self) {
        self.inner.fabric.oob_barrier();
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("rank", &self.inner.rank)
            .field("nranks", &self.inner.fabric.nranks())
            .finish()
    }
}
