//! The per-rank wrapper state: building each library's resources,
//! multi-process bootstrap, the `lci::coll` forwarders, and handing out
//! per-thread [`Endpoint`]s.

use crate::config::{BackendKind, Platform, ResourceMode, WorldConfig};
use crate::endpoint::{AmPool, Endpoint, EpInner, Msg};
use crossbeam::queue::SegQueue;
use lci::Comp;
use lci_baselines::channel::ChannelConfig;
use lci_baselines::{Gasnet, GasnetConfig, MpiComm, MpiConfig, VciComm};
use lci_fabric::sync::LockDiscipline;
use lci_fabric::{Fabric, Rank};
use std::collections::VecDeque;
use std::sync::Arc;

/// Eager threshold and packet/staging size, for every library.
const EAGER_SIZE: usize = 8192;
/// LCI packets per rank (at least 96 per dedicated thread).
const POOL_PACKETS: usize = 512;
/// LCI matching-engine buckets.
const MATCHING_BUCKETS: usize = 1024;

enum WorldInner {
    Lci { rt: lci::Runtime, devices: Vec<lci::Device>, am_cqs: Vec<Comp> },
    Mpi { comm: MpiComm, am_recvs: AmPool },
    Vci { comm: VciComm, am_recvs: Vec<AmPool> },
    Gasnet { g: Arc<Gasnet>, inbox: Arc<SegQueue<Msg>> },
}

/// Per-rank wrapper state. Create on the rank's main thread, then hand
/// one [`Endpoint`] to each benchmark thread.
pub struct World {
    inner: WorldInner,
    cfg: WorldConfig,
    fabric: Arc<Fabric>,
    rank: Rank,
    nranks: usize,
}

impl World {
    /// Initializes the wrapper for `rank` over `fabric`.
    ///
    /// In dedicated mode all per-thread resources are created here, in
    /// deterministic order, so device/VCI indices pair up across ranks.
    pub fn new(fabric: Arc<Fabric>, rank: Rank, cfg: WorldConfig) -> World {
        let fab = fabric.clone();
        let nranks = fabric.nranks();
        let nthreads = match cfg.mode {
            ResourceMode::Shared => 1,
            ResourceMode::Dedicated(n) => n,
        };
        let inner = match cfg.backend {
            BackendKind::Lci => {
                // Frames land in packets: cap the coalescing threshold
                // at the packet payload size.
                let mut coalesce = cfg.coalesce;
                coalesce.max_bytes = coalesce.max_bytes.min(EAGER_SIZE);
                let rt_cfg = lci::RuntimeConfig {
                    device: cfg.platform.device_config(),
                    packet: lci::PacketPoolConfig {
                        payload_size: EAGER_SIZE,
                        count: POOL_PACKETS.max(nthreads * 96),
                    },
                    prepost: 64,
                    matching: lci::MatchingConfig { buckets: MATCHING_BUCKETS },
                    coalesce,
                    coll_chunk_size: cfg.coll_chunk_size,
                };
                let rt = lci::Runtime::new(fabric, rank, rt_cfg).expect("lci runtime");
                // One AM completion queue per thread (the paper's message
                // rate bench uses one CQ per thread); rcomp indices are
                // the thread ids, registered in the same order everywhere.
                let am_cqs: Vec<Comp> = (0..nthreads).map(|_| Comp::alloc_cq()).collect();
                for cq in &am_cqs {
                    rt.register_rcomp(cq.clone());
                }
                let devices = match cfg.mode {
                    ResourceMode::Shared => Vec::new(),
                    ResourceMode::Dedicated(n) => {
                        (0..n).map(|_| rt.alloc_device().expect("device")).collect()
                    }
                };
                WorldInner::Lci { rt, devices, am_cqs }
            }
            BackendKind::Mpi => {
                let mut mcfg = MpiConfig::ibv();
                mcfg.channel.device =
                    cfg.platform.device_config().with_discipline(LockDiscipline::Blocking);
                mcfg.channel.eager_size = EAGER_SIZE;
                WorldInner::Mpi {
                    comm: MpiComm::init(fabric, rank, mcfg),
                    am_recvs: Arc::new(parking_lot::Mutex::new(VecDeque::new())),
                }
            }
            BackendKind::Vci => {
                let dev = cfg.platform.device_config().with_discipline(LockDiscipline::Blocking);
                let ccfg = ChannelConfig { device: dev, eager_size: EAGER_SIZE, prepost: 64 };
                WorldInner::Vci {
                    comm: VciComm::init(fabric, rank, nthreads, ccfg),
                    am_recvs: (0..nthreads)
                        .map(|_| Arc::new(parking_lot::Mutex::new(VecDeque::new())))
                        .collect(),
                }
            }
            BackendKind::Gasnet => {
                let gcfg = GasnetConfig {
                    device: cfg.platform.device_config().with_discipline(LockDiscipline::TryLock),
                    max_medium: EAGER_SIZE,
                    prepost: 64,
                };
                let g = Gasnet::init(fabric, rank, gcfg);
                let inbox: Arc<SegQueue<Msg>> = Arc::new(SegQueue::new());
                let sink = inbox.clone();
                g.register_handler(move |src, tag, payload| {
                    sink.push(Msg { src, tag, data: lci::DataBuf::Owned(payload.into()) });
                });
                WorldInner::Gasnet { g, inbox }
            }
        };
        World { inner, cfg, fabric: fab, rank, nranks }
    }

    /// Attaches to a spawner-provided shared-memory segment when the
    /// rendezvous environment (`LCI_SHM_PATH`/`LCI_RANK`) is present and
    /// builds the worker's world over it; `Ok(None)` when this process
    /// was started directly (run the launcher side instead).
    ///
    /// The platform is forced to the transport the rendezvous selected
    /// ([`Platform::ShmHost`] or [`Platform::TcpHost`]) — an attached
    /// fabric's peers live in other processes, which only the real
    /// transports can reach — and only the LCI backend is supported
    /// (the baseline sims are in-process by construction).
    pub fn from_env(mut cfg: WorldConfig) -> std::io::Result<Option<World>> {
        let Some(ctx) = lci_fabric::bootstrap::from_env()? else { return Ok(None) };
        if cfg.backend != BackendKind::Lci {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "multi-process worlds require the LCI backend",
            ));
        }
        cfg.platform =
            if ctx.fabric.tcp_rank().is_some() { Platform::TcpHost } else { Platform::ShmHost };
        Ok(Some(World::new(ctx.fabric, ctx.rank, cfg)))
    }

    /// Launcher side of a multi-process job: forks `nranks` copies of
    /// the current binary (passing `child_args`) over a fresh named
    /// segment and waits for them. The children find the segment via
    /// [`World::from_env`]. See [`lci_fabric::bootstrap::spawn_local`].
    pub fn spawn_local(
        nranks: usize,
        child_args: &[std::ffi::OsString],
        timeout: std::time::Duration,
    ) -> std::io::Result<lci_fabric::bootstrap::ParentReport> {
        lci_fabric::bootstrap::spawn_local(nranks, child_args, timeout)
    }

    /// The fabric backing this world.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// This rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.nranks
    }

    /// Whether the backend supports the send-receive primitives
    /// (GASNet-sim does not, as in the paper).
    pub fn supports_sendrecv(&self) -> bool {
        !matches!(self.inner, WorldInner::Gasnet { .. })
    }

    /// The backing LCI runtime, when this world runs the LCI backend —
    /// the handle the `lci::coll` collectives (and anything else beyond
    /// the wrapper surface) operate on.
    pub fn lci_runtime(&self) -> Option<&lci::Runtime> {
        match &self.inner {
            WorldInner::Lci { rt, .. } => Some(rt),
            _ => None,
        }
    }

    fn coll_rt(&self) -> lci::Result<&lci::Runtime> {
        self.lci_runtime().ok_or_else(|| {
            lci::FatalError::InvalidArg("collectives require the LCI backend".into())
        })
    }

    /// Data-path barrier across all ranks (LCI backend only; see
    /// [`lci::coll::barrier`]).
    pub fn barrier(&self) -> lci::Result<()> {
        lci::coll::barrier(self.coll_rt()?)
    }

    /// In-place byte allreduce (LCI backend only; see
    /// [`lci::coll::allreduce`]).
    pub fn allreduce<O: lci::ReduceOp + ?Sized>(&self, buf: &mut [u8], op: &O) -> lci::Result<()> {
        lci::coll::allreduce(self.coll_rt()?, buf, op)
    }

    /// Flat-buffer allgather (LCI backend only; see
    /// [`lci::coll::allgather_bytes`]).
    pub fn allgather_bytes(&self, mine: &[u8], out: &mut [u8]) -> lci::Result<()> {
        lci::coll::allgather_bytes(self.coll_rt()?, mine, out)
    }

    /// Uneven-block alltoallv over flat buffers with per-peer count
    /// vectors (LCI backend only; see [`lci::coll::alltoallv`] for the
    /// sparse-skipping, size-adaptive, skew-scheduled engine).
    pub fn alltoallv(
        &self,
        send: &[u8],
        send_counts: &[usize],
        recv: &mut [u8],
        recv_counts: &[usize],
    ) -> lci::Result<()> {
        lci::coll::alltoallv(self.coll_rt()?, send, send_counts, recv, recv_counts)
    }

    /// One-round count exchange for the recv-side-unknown alltoallv
    /// case, writing the receive-count vector matching `send_counts`
    /// into a caller-owned one (LCI backend only; allocation-free when
    /// warm; see [`lci::coll::exchange_counts`]).
    pub fn exchange_counts(
        &self,
        send_counts: &[usize],
        recv_counts: &mut [usize],
    ) -> lci::Result<()> {
        lci::coll::exchange_counts(self.coll_rt()?, send_counts, recv_counts)
    }

    /// Takes the per-thread endpoint `tid`. In dedicated mode `tid`
    /// selects the thread's device/VCI; in shared mode all endpoints
    /// reference the same resources. Call once per thread.
    pub fn endpoint(&self, tid: usize) -> Endpoint {
        let inner = match &self.inner {
            WorldInner::Lci { rt, devices, am_cqs } => {
                // Shared mode routes through the caller's home device
                // (the default device unless extra devices exist);
                // dedicated mode keeps the explicit tid → device map.
                let device = match self.cfg.mode {
                    ResourceMode::Shared => rt.home_device(),
                    ResourceMode::Dedicated(_) => devices[tid].clone(),
                };
                EpInner::Lci {
                    rt: rt.clone(),
                    device,
                    am_cq: am_cqs[tid % am_cqs.len()].clone(),
                    rcomp: (tid % am_cqs.len()) as u32,
                }
            }
            WorldInner::Mpi { comm, am_recvs } => {
                EpInner::Mpi { comm: comm.clone(), am_recvs: am_recvs.clone() }
            }
            WorldInner::Vci { comm, am_recvs } => EpInner::Vci {
                comm: comm.clone(),
                vci: tid,
                am_recvs: am_recvs[tid % am_recvs.len()].clone(),
            },
            WorldInner::Gasnet { g, inbox } => {
                EpInner::Gasnet { g: g.clone(), inbox: inbox.clone() }
            }
        };
        Endpoint { inner, fabric: self.fabric.clone(), nranks: self.nranks, rank: self.rank }
    }
}
