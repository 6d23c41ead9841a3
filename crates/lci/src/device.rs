//! Devices and the progress engine (paper §3.2.3, §3.2.6, §4.4).
//!
//! A device encapsulates a complete set of low-level network resources;
//! threads operating on different devices never interfere. This module
//! also hosts the runtime's data path: the generic posting operation
//! behind `post_comm` and the explicit progress function that drives the
//! backlog queue, polls the network, reacts to completions (matching,
//! rendezvous, signaling) and replenishes pre-posted receives — steps
//! (1)-(11) of the paper's Figure 1.

use crate::backlog::{Backlog, Backlogged};
use crate::coalesce::{Coalescer, Frame};
use crate::comp::Comp;
use crate::ctx_pool::CtxPool;
use crate::error::{FatalError, PostResult, Result};
use crate::matching::MatchKind;
use crate::packet_pool::Packet;
use crate::proto::{coalesce_unpack_ranges, Header, MsgType, RtrPayload, RtsPayload};
use crate::runtime::RuntimeInner;
use crate::stats::DeviceStats;
use crate::types::{
    CompDesc, CompKind, DataBuf, Direction, MatchingPolicy, RComp, Rank, SendBuf, Tag,
    SENDBUF_INLINE_CAP,
};
use crate::util::ShardedSlab;
use lci_fabric::sync::{Doorbell, SpinLock};
use lci_fabric::{
    BufPool, Cqe, CqeKind, DevId, MemoryRegion, NetDevice, NetError, PoolBuf, RecvBufDesc, Rkey,
    SendDesc,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Longest run of backlogged sends submitted as one fabric batch.
const BACKLOG_BATCH: usize = 32;

/// Completed [`RdvActive`] shells kept per device for reuse.
const RDV_REUSE_CAP: usize = 32;

/// Entries stored in the matching engine.
pub(crate) enum MatchEntry {
    /// An unexpected eager message. The payload is parked without
    /// copying whenever possible: a whole packet for standalone
    /// arrivals, a refcounted [`crate::PacketView`] for sub-messages of
    /// a coalesced frame.
    UnexpEager { src: Rank, tag: Tag, data: DataBuf },
    /// An unexpected rendezvous RTS.
    UnexpRts { src: Rank, src_dev: DevId, tag: Tag, send_id: u32, size: usize },
    /// A posted receive.
    Recv(RecvEntry),
}

/// A posted receive waiting in the matching engine.
pub(crate) struct RecvEntry {
    pub buf: Box<[u8]>,
    pub comp: Comp,
    pub user_ctx: u64,
    /// The device whose resources serve this receive's rendezvous reply.
    pub device: Device,
}

/// A pending zero-copy send (RTS issued, waiting for RTR). Non-contiguous
/// payloads are *not* flattened here: the chunk pump gathers them
/// per-chunk into a scratch ring once the transfer goes active.
struct RdvSend {
    buf: SendBuf,
    comp: Option<Comp>,
    tag: Tag,
    user_ctx: u64,
}

/// An active pipelined rendezvous send: RTR received, chunks being
/// written (DESIGN.md §4.6). All continuation state lives here — per
/// transfer, behind its own lock — so the chunk-completion hot path
/// acquires no table locks.
pub(crate) struct RdvActive {
    target: Rank,
    target_dev: DevId,
    rkey: Rkey,
    /// FIN immediate; rides the last chunk's write.
    fin_imm: u64,
    total: usize,
    chunk: usize,
    nchunks: usize,
    max_inflight: usize,
    tag: Tag,
    user_ctx: u64,
    /// Chunks posted but not yet completed.
    inflight: AtomicUsize,
    pump: SpinLock<RdvPump>,
}

/// Cursor and buffers of one transfer's chunk pump.
struct RdvPump {
    buf: Option<SendBuf>,
    comp: Option<Comp>,
    /// Next byte offset to post.
    next: usize,
    /// Chunks whose completion has been handled.
    done: usize,
    /// Iovec gather cursor: segment index, offset within segment.
    seg: usize,
    seg_off: usize,
    /// Reusable gather ring for non-contiguous payloads, one slot per
    /// inflight window position; empty for contiguous payloads.
    scratch: Vec<ScratchSlot>,
}

/// One gather buffer of the scratch ring.
#[derive(Default)]
struct ScratchSlot {
    /// Pool-recycled gather buffer; survives transfer recycling, so
    /// repeated iovec rendezvous reuses the same storage.
    buf: Option<PoolBuf>,
    /// Owned by an in-flight chunk write; reusable after its CQE.
    busy: bool,
}

#[cfg(test)]
impl RdvActive {
    /// A dummy transfer for backlog unit tests.
    pub(crate) fn test_stub() -> Self {
        RdvActive {
            target: 0,
            target_dev: 0,
            rkey: Rkey(0),
            fin_imm: 0,
            total: 0,
            chunk: 1,
            nchunks: 0,
            max_inflight: 1,
            tag: 0,
            user_ctx: 0,
            inflight: AtomicUsize::new(0),
            pump: SpinLock::new(RdvPump {
                buf: None,
                comp: None,
                next: 0,
                done: 0,
                seg: 0,
                seg_off: 0,
                scratch: Vec::new(),
            }),
        }
    }
}

/// Copies `out.len()` bytes out of `segs` starting at the (`seg`,
/// `seg_off`) cursor, advancing the cursor.
fn gather_iovec(segs: &[Box<[u8]>], seg: &mut usize, seg_off: &mut usize, out: &mut [u8]) {
    let mut filled = 0;
    while filled < out.len() {
        let s = &segs[*seg];
        let avail = s.len() - *seg_off;
        if avail == 0 {
            *seg += 1;
            *seg_off = 0;
            continue;
        }
        let take = avail.min(out.len() - filled);
        out[filled..filled + take].copy_from_slice(&s[*seg_off..*seg_off + take]);
        filled += take;
        *seg_off += take;
    }
}

/// Landing buffer of a rendezvous receive: the user's posted buffer
/// (two-sided) or a pool-recycled bounce buffer (unexpected AM
/// rendezvous, where the runtime must provide the storage itself).
enum RdvBuf {
    Owned(Box<[u8]>),
    Pooled(PoolBuf),
}

impl RdvBuf {
    fn as_ptr(&self) -> *const u8 {
        match self {
            RdvBuf::Owned(b) => b.as_ptr(),
            RdvBuf::Pooled(b) => b.as_ptr(),
        }
    }

    fn len(&self) -> usize {
        match self {
            RdvBuf::Owned(b) => b.len(),
            RdvBuf::Pooled(b) => b.len(),
        }
    }

    /// Converts into the completion-descriptor payload carrying the
    /// first `len` delivered bytes.
    fn into_databuf(self, len: usize) -> DataBuf {
        match self {
            RdvBuf::Owned(b) => DataBuf::Partial(b, len),
            RdvBuf::Pooled(b) => DataBuf::Pooled(b, len),
        }
    }
}

/// A pending zero-copy receive (RTR issued, waiting for FIN).
struct RdvRecv {
    buf: RdvBuf,
    mr: MemoryRegion,
    comp: Comp,
    user_ctx: u64,
    src: Rank,
    tag: Tag,
    size: usize,
    is_am: bool,
}

/// Per-operation context; what travels through the fabric's completion
/// context field is its generation-tagged [`CtxPool`] id.
enum OpCtx {
    EagerSend {
        comp: Option<Comp>,
        buf: SendBuf,
        rank: Rank,
        tag: Tag,
        user_ctx: u64,
    },
    RdvChunk {
        active: Arc<RdvActive>,
        /// Scratch-ring slot this chunk's gather copy occupies (iovec
        /// payloads only); freed when the chunk completes.
        slot: Option<usize>,
    },
    Put {
        comp: Option<Comp>,
        buf: SendBuf,
        rank: Rank,
        tag: Tag,
        user_ctx: u64,
    },
    Get {
        comp: Option<Comp>,
        buf: Box<[u8]>,
        rank: Rank,
        tag: Tag,
        user_ctx: u64,
        signal: Option<(DevId, RComp)>,
    },
}

/// Reusable buffers of one device's receive-replenish path: the packet
/// batch pulled from the pool and the descriptor array handed to
/// `post_recv_batch`. Persisted across refills so the steady state
/// allocates neither.
#[derive(Default)]
struct ReplenishScratch {
    packets: Vec<Packet>,
    descs: Vec<RecvBufDesc>,
}

pub(crate) struct DeviceInner {
    pub rt: Arc<RuntimeInner>,
    pub net: Arc<dyn NetDevice>,
    backlog: Backlog,
    coalescer: Coalescer,
    rdv_sends: ShardedSlab<RdvSend>,
    rdv_recvs: ShardedSlab<RdvRecv>,
    /// Transfers past RTR (chunks in flight): no longer in `rdv_sends`
    /// but not yet complete. Keeps `pending_rendezvous` (and lcw
    /// quiescence) truthful.
    rdv_active: AtomicUsize,
    /// Recycled staging-buffer pool shared with the fabric device (iovec
    /// gathers, parked sends, coalesced frames, rendezvous scratch,
    /// bounce buffers).
    buf_pool: BufPool,
    /// Pooled per-operation contexts (replaces a Box per post).
    ctx_pool: CtxPool<OpCtx>,
    /// Reusable CQE array for `progress` polls.
    cqe_scratch: SpinLock<Vec<Cqe>>,
    /// Reusable batch buffers for `replenish_recvs`.
    replenish_scratch: SpinLock<ReplenishScratch>,
    /// Completed rendezvous-transfer shells awaiting reuse (bounded by
    /// [`RDV_REUSE_CAP`]).
    rdv_reuse: SpinLock<Vec<Arc<RdvActive>>>,
    /// This device's doorbell (cached from the fabric device): rung on
    /// wire delivery, local completion staging, and worker-side backlog
    /// parking, it wakes the parked progress thread that owns this
    /// device (see [`crate::progress`]).
    bell: Option<Arc<Doorbell>>,
    /// Whether a dedicated progress thread currently polls this device
    /// (it is awake, not parked). Hybrid-mode workers skip stealing
    /// progress while this is set.
    dedicated_active: AtomicBool,
    /// Inbound deliveries whose target rcomp was not registered yet,
    /// parked for retry on later progress calls. The rcomp table is
    /// append-only, so a failed lookup always means "not yet" — a race
    /// an auto-spawned progress engine makes real (it can poll a wire
    /// message in before the application finishes registering handlers).
    pending_inbound: SpinLock<Vec<PendingInbound>>,
    /// Per-core operation counters; `pub(crate)` so the collectives
    /// layer can attribute its rounds/bytes/inflight marks to the
    /// device that carried them.
    pub(crate) stats: DeviceStats,
}

/// An inbound delivery parked until its rcomp is registered (see
/// [`DeviceInner::pending_inbound`]).
enum PendingInbound {
    /// An eager active message.
    EagerAm { rcomp: u32, src: Rank, tag: Tag, data: DataBuf },
    /// An AM-rendezvous RTS (the RTR is sent once the rcomp exists).
    RtsAm { rcomp: u32, src: Rank, src_dev: DevId, tag: Tag, send_id: u32, size: usize },
    /// A remote completion signal.
    RemoteSignal { rcomp: u32, src: Rank, tag: Tag },
}

impl PendingInbound {
    fn rcomp(&self) -> u32 {
        match self {
            PendingInbound::EagerAm { rcomp, .. }
            | PendingInbound::RtsAm { rcomp, .. }
            | PendingInbound::RemoteSignal { rcomp, .. } => *rcomp,
        }
    }
}

impl DeviceInner {
    /// Encodes a per-operation context for the fabric's 64-bit ctx
    /// field: a generation-tagged pool id.
    fn ctx_encode(&self, op: OpCtx) -> u64 {
        self.ctx_pool.insert(op)
    }

    /// Decodes (and consumes) a context produced by [`Self::ctx_encode`].
    /// A context that fails the generation check — a stale or double
    /// decode, the pooled analogue of a use-after-free — is reported as
    /// a fatal error instead of corrupting another operation.
    fn ctx_decode(&self, ctx: u64) -> Result<OpCtx> {
        self.ctx_pool
            .remove(ctx)
            .ok_or_else(|| FatalError::Net(format!("stale or double-decoded op ctx {ctx:#x}")))
    }

    /// Copies a send payload into one contiguous recycled buffer. Only
    /// a multi-segment iovec needs it (the fabric posts contiguous
    /// bytes); every other buffer posts from where it is ([`PostSrc`]).
    fn stage_payload(&self, buf: &SendBuf) -> PoolBuf {
        match buf.as_contiguous() {
            Some(data) => self.buf_pool.stage_copy(data),
            None => {
                let SendBuf::Iovec(segs) = buf else {
                    unreachable!("non-contiguous SendBuf is Iovec")
                };
                let mut out = self.buf_pool.take_empty(buf.len());
                for seg in segs.iter() {
                    out.vec_mut().extend_from_slice(seg);
                }
                out
            }
        }
    }
}

/// The bytes of a send buffer at an address that stays put while the
/// [`SendBuf`] itself moves into its [`OpCtx`] slot, so the fabric can
/// post straight from the buffer the operation owns until its
/// completion — no restaging copy.
enum PostSrc {
    /// `SendBuf::Inline` bytes live inside the enum and move with it:
    /// the ≤ 24 B are copied to the poster's stack.
    Stack([u8; SENDBUF_INLINE_CAP], u8),
    /// Heap, packet or pool storage the `SendBuf` only points at.
    Stable(*const u8, usize),
    /// A multi-segment iovec, gathered (the one staging copy left).
    Gathered(PoolBuf),
}

impl PostSrc {
    fn of(dev: &DeviceInner, buf: &SendBuf) -> PostSrc {
        match (buf, buf.as_contiguous()) {
            (SendBuf::Inline(bytes, len), _) => PostSrc::Stack(*bytes, *len),
            (_, Some(data)) => PostSrc::Stable(data.as_ptr(), data.len()),
            (_, None) => PostSrc::Gathered(dev.stage_payload(buf)),
        }
    }

    /// # Safety
    /// The `SendBuf` this was taken from must still be alive and
    /// unmodified: it may have moved (into an `OpCtx` the fabric has not
    /// completed), but not been handed back to the user or dropped.
    unsafe fn bytes(&self) -> &[u8] {
        match self {
            PostSrc::Stack(bytes, len) => &bytes[..*len as usize],
            // SAFETY: per the contract above, the pointee outlives `self`.
            PostSrc::Stable(ptr, len) => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            PostSrc::Gathered(buf) => buf,
        }
    }
}

/// A communication device handle (cheap to clone, `Send + Sync`).
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

/// Queryable device attributes (paper §3.2.3).
#[derive(Clone, Copy, Debug)]
pub struct DeviceAttr {
    /// Fabric-wide device index on its rank.
    pub dev_id: DevId,
    /// Simulated provider backing the device.
    pub backend: lci_fabric::BackendKind,
    /// Thread-domain strategy (the `ibv_td_strategy` attribute, §4.2.3).
    pub td_strategy: lci_fabric::TdStrategy,
    /// Inbound flow-control window.
    pub rx_capacity: usize,
    /// Pre-posted receive target.
    pub prepost_target: usize,
}

/// Arguments of the generic communication-posting operation
/// (assembled by the builders in [`crate::post`]).
pub(crate) struct CommArgs {
    pub direction: Direction,
    pub rank: Rank,
    pub send_buf: Option<SendBuf>,
    pub recv_buf: Option<Box<[u8]>>,
    pub tag: Tag,
    pub comp: Option<Comp>,
    pub remote_buf: Option<(Rkey, usize)>,
    pub remote_comp: Option<RComp>,
    pub policy: MatchingPolicy,
    pub target_dev: Option<DevId>,
    pub user_ctx: u64,
    pub allow_retry: bool,
    pub allow_coalescing: bool,
}

impl Device {
    pub(crate) fn create(rt: Arc<RuntimeInner>) -> Result<Device> {
        let dev_cfg = rt.config.device;
        let net = rt.netctx.create_device(dev_cfg);
        // Share the fabric device's pool so the whole data path recycles
        // through one set of shelves.
        let buf_pool = net.buf_pool().unwrap_or_else(|| BufPool::new(dev_cfg.buf_pool));
        let coalescer = Coalescer::new(rt.config.coalesce, rt.fabric.nranks(), buf_pool.clone());
        let shards = rt.config.rdv_shards;
        let batch = rt.config.progress_batch;
        let stat_stripes = rt.config.placement.stripes();
        let bell = net.doorbell();
        let dev = Device {
            inner: Arc::new(DeviceInner {
                rt,
                net,
                backlog: Backlog::new(),
                coalescer,
                rdv_sends: ShardedSlab::new(shards),
                rdv_recvs: ShardedSlab::new(shards),
                rdv_active: AtomicUsize::new(0),
                buf_pool,
                ctx_pool: CtxPool::new(shards),
                cqe_scratch: SpinLock::new(Vec::with_capacity(batch)),
                replenish_scratch: SpinLock::new(ReplenishScratch::default()),
                rdv_reuse: SpinLock::new(Vec::new()),
                bell,
                dedicated_active: AtomicBool::new(false),
                pending_inbound: SpinLock::new(Vec::new()),
                stats: DeviceStats::with_stripes(stat_stripes),
            }),
        };
        // Register in the runtime's device registry (weak: DeviceInner
        // holds the runtime strongly) and wake any parked progress
        // threads so the new device's owner subscribes to its doorbell.
        dev.inner.rt.devices.push(Arc::downgrade(&dev.inner));
        dev.inner.rt.progress.ring_all();
        // Stock the shared receive queue so peers can start immediately.
        dev.replenish_recvs()?;
        Ok(dev)
    }

    /// The owning rank.
    pub fn rank(&self) -> Rank {
        self.inner.rt.rank
    }

    /// This device's fabric-wide index on its rank.
    pub fn dev_id(&self) -> DevId {
        self.inner.net.dev_id()
    }

    /// Queries the device's attributes (paper §3.2.3: resources have
    /// queryable attribute lists).
    pub fn attr(&self) -> DeviceAttr {
        let cfg = self.inner.net.config();
        DeviceAttr {
            dev_id: self.inner.net.dev_id(),
            backend: cfg.backend,
            td_strategy: cfg.td_strategy,
            rx_capacity: cfg.rx_capacity,
            prepost_target: self.inner.rt.config.prepost,
        }
    }

    /// The device's recycled staging-buffer pool (shared with the
    /// fabric device) — for per-stripe diagnostics and placement tests.
    pub fn buf_pool(&self) -> &BufPool {
        &self.inner.buf_pool
    }

    /// Snapshot of this device's operation counters, with the fabric
    /// registration-cache and buffer-pool counters overlaid.
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        let mut s = self.inner.stats.snapshot();
        let rc = self.inner.net.reg_cache_stats();
        s.reg_cache_hits = rc.hits;
        s.reg_cache_misses = rc.misses;
        s.reg_cache_evictions = rc.evictions;
        let bp = self.inner.buf_pool.stats();
        s.buf_pool_hits = bp.hits;
        s.buf_pool_local_hits = bp.local_hits;
        s.buf_pool_steals = bp.steals;
        s.buf_pool_misses = bp.misses;
        s.buf_pool_recycled_bytes = bp.recycled_bytes;
        s.matching_contended = self.inner.rt.matching.contended();
        s.doorbell_rings = self.inner.bell.as_ref().map_or(0, |b| b.rings());
        let ts = self.inner.net.transport_stats();
        s.shm_ring_hwm = ts.shm_ring_hwm;
        s.doorbell_cross_proc_wakes = ts.doorbell_cross_proc_wakes;
        s.tcp_writev_calls = ts.tcp_writev_calls;
        s.tcp_writev_frames = ts.tcp_writev_frames;
        s
    }

    /// Registers memory for remote access (paper §3.3.1: mandatory for
    /// remote buffers, optional for local ones).
    pub fn register_memory(&self, buf: &[u8]) -> Result<MemoryRegion> {
        self.inner.net.register(buf.as_ptr(), buf.len()).map_err(net_fatal)
    }

    /// Deregisters a memory region.
    ///
    /// With the registration cache enabled (the default), deregistration
    /// is **deferred**: the registration stays cached (and the rkey stays
    /// valid for remote access) until the cache evicts it, so a remote
    /// Put/Get racing with deregistration does not fault. Build the
    /// device with
    /// [`with_reg_cache(false)`](lci_fabric::DeviceConfig::with_reg_cache)
    /// for strict deregister-now semantics.
    pub fn deregister_memory(&self, mr: &MemoryRegion) -> Result<()> {
        self.inner.net.deregister(mr).map_err(net_fatal)
    }

    // ------------------------------------------------------------------
    // Posting (paper Figure 1, steps 1-2)
    // ------------------------------------------------------------------

    /// The generic communication-posting operation (`post_comm`).
    pub(crate) fn post_comm(&self, args: CommArgs) -> Result<PostResult> {
        let res = self.post_comm_inner(args);
        if let Ok(r) = &res {
            if r.is_retry() {
                self.inner.stats.bump(|c| &c.retries);
            } else {
                self.inner.stats.bump(|c| &c.posts);
            }
        }
        res
    }

    fn post_comm_inner(&self, args: CommArgs) -> Result<PostResult> {
        match (args.direction, args.remote_buf.is_some(), args.remote_comp.is_some()) {
            (Direction::Out, false, false) => self.post_send_impl(args, None),
            (Direction::Out, false, true) => {
                let rcomp = args.remote_comp.unwrap();
                self.post_send_impl(args, Some(rcomp))
            }
            (Direction::Out, true, _) => self.post_put_impl(args),
            (Direction::In, false, false) => self.post_recv_impl(args),
            (Direction::In, false, true) => Err(FatalError::InvalidArg(
                "a receive with a remote completion is invalid (paper Table 1)".into(),
            )),
            (Direction::In, true, _) => self.post_get_impl(args),
        }
    }

    /// Send / active message (eager or rendezvous by size).
    fn post_send_impl(&self, args: CommArgs, rcomp: Option<RComp>) -> Result<PostResult> {
        let cfg = &self.inner.rt.config;
        let buf = args
            .send_buf
            .ok_or_else(|| FatalError::InvalidArg("send requires a local buffer".into()))?;
        let size = buf.len();
        let target_dev = args.target_dev.unwrap_or_else(|| self.dev_id());

        let coal = &self.inner.coalescer;
        let coalescable = coal.enabled()
            && args.allow_coalescing
            && size <= cfg.eager_size
            && coal.eligible(size);
        if coal.enabled() && !coalescable {
            // A non-coalesced message must not overtake sub-messages
            // already buffered for this destination (FIFO per
            // destination, which per-(rank, tag) matching order relies
            // on): flush the destination first.
            coal.take_with(args.rank, target_dev, |frame| self.post_frame(frame))?;
        }

        if size > cfg.eager_size {
            return self.post_rendezvous(
                args.rank,
                target_dev,
                buf,
                args.tag,
                args.comp,
                args.policy,
                args.user_ctx,
                rcomp,
                args.allow_retry,
            );
        }

        let (ty, aux) = match rcomp {
            Some(rc) => (MsgType::EagerAm, rc),
            None => (MsgType::Eager, 0),
        };
        let imm = Header::new(ty, args.policy, args.tag, aux).encode();

        if coalescable {
            // Coalescing path: absorb the message into the destination's
            // aggregation buffer. Like inject, the operation is done at
            // return and the completion object is *not* signaled.
            // Contiguous buffers append without the flatten staging copy.
            match buf.as_contiguous() {
                Some(data) => {
                    coal.append_with(args.rank, target_dev, imm, data, |frame| {
                        self.post_frame(frame)
                    })?;
                }
                None => {
                    let data = self.inner.stage_payload(&buf);
                    coal.append_with(args.rank, target_dev, imm, &data, |frame| {
                        self.post_frame(frame)
                    })?;
                }
            }
            self.inner.stats.bump(|c| &c.coalesced_msgs);
            return Ok(PostResult::Done(CompDesc {
                rank: args.rank,
                tag: args.tag,
                data: DataBuf::SendBuf(buf),
                user_ctx: args.user_ctx,
                kind: if rcomp.is_some() { CompKind::Am } else { CompKind::Send },
            }));
        }

        if size <= cfg.inject_size {
            // Inject protocol: completes immediately; the completion
            // object is *not* signaled (paper §3.2.5 "done"). Contiguous
            // buffers post without the flatten staging copy.
            let res = match buf.as_contiguous() {
                Some(data) => self.inner.net.post_send(args.rank, target_dev, data, imm, 0),
                None => {
                    let data = self.inner.stage_payload(&buf);
                    self.inner.net.post_send(args.rank, target_dev, &data, imm, 0)
                }
            };
            match res {
                Ok(()) => {
                    return Ok(PostResult::Done(CompDesc {
                        rank: args.rank,
                        tag: args.tag,
                        data: DataBuf::SendBuf(buf),
                        user_ctx: args.user_ctx,
                        kind: if rcomp.is_some() { CompKind::Am } else { CompKind::Send },
                    }));
                }
                Err(NetError::Retry(r)) if args.allow_retry => {
                    return Ok(PostResult::Retry(r.into()));
                }
                Err(NetError::Retry(_)) => {
                    // Retry disallowed: degrade to the posted path below,
                    // which parks the request in the backlog and signals
                    // the completion object when it eventually ships.
                }
                Err(NetError::Fatal(m)) => return Err(FatalError::Net(m)),
            }
        }

        // Buffer-copy protocol: the fabric copies out of the send buffer
        // itself, which the operation context owns until `SendDone` (the
        // buffer-valid-until-CQE half of `NetDevice::post_send`'s
        // contract); it comes back with the completion.
        let src = PostSrc::of(&self.inner, &buf);
        let ctx = self.inner.ctx_encode(OpCtx::EagerSend {
            comp: args.comp.clone(),
            buf,
            rank: args.rank,
            tag: args.tag,
            user_ctx: args.user_ctx,
        });
        // SAFETY: the buffer `src` points into sits in the context just
        // encoded, and nothing decodes that context before the fabric
        // either rejects the post (handled below, `src` last used at the
        // park) or completes it (after copying the bytes out).
        let data = unsafe { src.bytes() };
        match self.inner.net.post_send(args.rank, target_dev, data, imm, ctx) {
            Ok(()) => Ok(PostResult::Posted),
            Err(e) => {
                match e {
                    NetError::Retry(r) if args.allow_retry => {
                        // Back out: reclaim the context and hand the
                        // buffer back through the retry descriptor path
                        // (caller resubmits with the same buffer). The
                        // fabric rejected the post, so the context was
                        // never handed over.
                        let _op = self.inner.ctx_decode(ctx)?;
                        Ok(PostResult::Retry(r.into()))
                    }
                    NetError::Retry(_) => {
                        // Retry disallowed: park a staged copy of the
                        // payload in the backlog (the one case that still
                        // pays it); the in-flight context (with the
                        // original buffer and completion) is posted when
                        // the wire frees up (paper §4.4).
                        // SAFETY: as above; the context is still encoded.
                        let data = self.inner.buf_pool.stage_copy(unsafe { src.bytes() });
                        self.push_backlog(Backlogged::UserSend {
                            target: args.rank,
                            target_dev,
                            data,
                            imm,
                            ctx,
                        });
                        Ok(PostResult::Posted)
                    }
                    NetError::Fatal(m) => {
                        // Rejected post: the context was never handed over.
                        let _op = self.inner.ctx_decode(ctx)?;
                        Err(FatalError::Net(m))
                    }
                }
            }
        }
    }

    /// Zero-copy rendezvous: allocate a send id, ship the RTS.
    #[allow(clippy::too_many_arguments)]
    fn post_rendezvous(
        &self,
        rank: Rank,
        target_dev: DevId,
        buf: SendBuf,
        tag: Tag,
        comp: Option<Comp>,
        policy: MatchingPolicy,
        user_ctx: u64,
        rcomp: Option<RComp>,
        allow_retry: bool,
    ) -> Result<PostResult> {
        let size = buf.len() as u64;
        self.inner.stats.bump(|c| &c.rendezvous);
        let send_id = self.inner.rdv_sends.insert(RdvSend { buf, comp, tag, user_ctx });
        let (ty, aux) = match rcomp {
            Some(rc) => (MsgType::RtsAm, rc),
            None => (MsgType::RtsSr, 0),
        };
        let imm = Header::new(ty, policy, tag, aux).encode();
        let payload = RtsPayload { send_id, size }.encode();
        match self.inner.net.post_send(rank, target_dev, &payload, imm, 0) {
            Ok(()) => Ok(PostResult::Posted),
            Err(NetError::Retry(r)) => {
                if allow_retry {
                    // Back the rendezvous out entirely; the user
                    // resubmits. The `rendezvous` bump above counts the
                    // attempt; `rendezvous_retried` keeps the stats
                    // reconcilable (started = rendezvous - retried).
                    self.inner.rdv_sends.remove(send_id);
                    self.inner.stats.bump(|c| &c.rendezvous_retried);
                    Ok(PostResult::Retry(r.into()))
                } else {
                    self.push_backlog(Backlogged::Ctrl {
                        target: rank,
                        target_dev,
                        payload: self.inner.buf_pool.stage_copy(&payload),
                        imm,
                    });
                    Ok(PostResult::Posted)
                }
            }
            Err(NetError::Fatal(m)) => {
                self.inner.rdv_sends.remove(send_id);
                Err(FatalError::Net(m))
            }
        }
    }

    /// RMA put (direct write, optional remote signal).
    fn post_put_impl(&self, args: CommArgs) -> Result<PostResult> {
        let buf = args
            .send_buf
            .ok_or_else(|| FatalError::InvalidArg("put requires a local buffer".into()))?;
        let (rkey, offset) = args.remote_buf.unwrap();
        let target_dev = args.target_dev.unwrap_or_else(|| self.dev_id());
        let imm = args
            .remote_comp
            .map(|rc| Header::new(MsgType::PutSignal, args.policy, args.tag, rc).encode());
        let src = PostSrc::of(&self.inner, &buf);
        let ctx = self.inner.ctx_encode(OpCtx::Put {
            comp: args.comp,
            buf,
            rank: args.rank,
            tag: args.tag,
            user_ctx: args.user_ctx,
        });
        // SAFETY: the buffer sits in the context just encoded, which is
        // decoded only below (rejected post) or at `WriteDone`.
        let data = unsafe { src.bytes() };
        match self.inner.net.post_write(args.rank, target_dev, data, rkey, offset, imm, ctx) {
            Ok(()) => Ok(PostResult::Posted),
            Err(e) => {
                // Rejected post: the context was never handed over.
                let _op = self.inner.ctx_decode(ctx)?;
                match e {
                    NetError::Retry(r) => Ok(PostResult::Retry(r.into())),
                    NetError::Fatal(m) => Err(FatalError::Net(m)),
                }
            }
        }
    }

    /// RMA get (direct read, optional remote signal — the extension the
    /// paper leaves unimplemented; see `proto` module docs).
    fn post_get_impl(&self, args: CommArgs) -> Result<PostResult> {
        let buf = args
            .recv_buf
            .ok_or_else(|| FatalError::InvalidArg("get requires a local buffer".into()))?;
        let (rkey, offset) = args.remote_buf.unwrap();
        let target_dev = args.target_dev.unwrap_or_else(|| self.dev_id());
        let signal = args.remote_comp.map(|rc| (target_dev, rc));
        let len = buf.len();
        let ptr = buf.as_ptr() as *mut u8;
        let ctx = self.inner.ctx_encode(OpCtx::Get {
            comp: args.comp,
            buf,
            rank: args.rank,
            tag: args.tag,
            user_ctx: args.user_ctx,
            signal,
        });
        // SAFETY: the buffer lives in the OpCtx until the ReadDone
        // completion, satisfying the descriptor contract.
        let desc = unsafe { RecvBufDesc::new(ptr, len, ctx) };
        match self.inner.net.post_read(args.rank, desc, rkey, offset) {
            Ok(()) => Ok(PostResult::Posted),
            Err(e) => {
                // Rejected post: the context was never handed over.
                let _op = self.inner.ctx_decode(ctx)?;
                match e {
                    NetError::Retry(r) => Ok(PostResult::Retry(r.into())),
                    NetError::Fatal(m) => Err(FatalError::Net(m)),
                }
            }
        }
    }

    /// Receive: insert into the matching engine; deliver immediately on an
    /// unexpected match.
    fn post_recv_impl(&self, args: CommArgs) -> Result<PostResult> {
        let buf = args
            .recv_buf
            .ok_or_else(|| FatalError::InvalidArg("recv requires a local buffer".into()))?;
        let comp = args
            .comp
            .ok_or_else(|| FatalError::InvalidArg("recv requires a completion object".into()))?;
        let engine = &self.inner.rt.matching;
        let key = engine.key_for(args.rank, args.tag, args.policy);
        let entry = MatchEntry::Recv(RecvEntry {
            buf,
            comp,
            user_ctx: args.user_ctx,
            device: self.clone(),
        });
        match engine.insert(key, entry, MatchKind::Recv) {
            None => Ok(PostResult::Posted),
            Some((unexpected, mine)) => {
                let MatchEntry::Recv(recv) = mine else { unreachable!() };
                match unexpected {
                    MatchEntry::UnexpEager { src, tag, data } => {
                        // Deliver synchronously: the operation is done and
                        // the completion object will not be signaled.
                        let (_comp, desc) = self.finish_matched_recv(recv, src, tag, data)?;
                        Ok(PostResult::Done(desc))
                    }
                    MatchEntry::UnexpRts { src, src_dev, tag, send_id, size } => {
                        self.start_rtr(
                            src,
                            src_dev,
                            tag,
                            send_id,
                            size,
                            RdvBuf::Owned(recv.buf),
                            recv.comp,
                            recv.user_ctx,
                            false,
                        )?;
                        Ok(PostResult::Posted)
                    }
                    MatchEntry::Recv(_) => unreachable!("recv matched recv"),
                }
            }
        }
    }

    /// Copies an unexpected eager payload into a matched receive's
    /// buffer and builds the completion descriptor. This is the one copy
    /// the zero-copy receive path keeps: the user posted their own
    /// buffer, so the data must land there.
    fn finish_matched_recv(
        &self,
        recv: RecvEntry,
        src: Rank,
        tag: Tag,
        data: DataBuf,
    ) -> Result<(Comp, CompDesc)> {
        let mut buf = recv.buf;
        let payload = data.as_slice();
        if payload.len() > buf.len() {
            return Err(FatalError::InvalidArg(format!(
                "receive buffer too small: {} < {}",
                buf.len(),
                payload.len()
            )));
        }
        buf[..payload.len()].copy_from_slice(payload);
        self.inner.stats.bump(|c| &c.copied_deliveries);
        let len = payload.len();
        Ok((
            recv.comp,
            CompDesc {
                rank: src,
                tag,
                data: DataBuf::Partial(buf, len),
                user_ctx: recv.user_ctx,
                kind: CompKind::Recv,
            },
        ))
    }

    // ------------------------------------------------------------------
    // Rendezvous plumbing (paper Figure 1, steps 8 & 10)
    // ------------------------------------------------------------------

    /// Target side: register the buffer, record the pending receive, and
    /// answer RTR.
    #[allow(clippy::too_many_arguments)]
    fn start_rtr(
        &self,
        src: Rank,
        src_dev: DevId,
        tag: Tag,
        send_id: u32,
        size: usize,
        buf: RdvBuf,
        comp: Comp,
        user_ctx: u64,
        is_am: bool,
    ) -> Result<()> {
        if size > buf.len() {
            return Err(FatalError::InvalidArg(format!(
                "receive buffer too small for rendezvous: {} < {size}",
                buf.len()
            )));
        }
        let mr = self.inner.net.register(buf.as_ptr(), size).map_err(net_fatal)?;
        let recv_id =
            self.inner.rdv_recvs.insert(RdvRecv { buf, mr, comp, user_ctx, src, tag, size, is_am });
        let payload = RtrPayload { send_id, recv_id, rkey: mr.rkey.0 }.encode();
        let imm = Header::new(MsgType::Rtr, MatchingPolicy::RankTag, tag, 0).encode();
        match self.inner.net.post_send(src, src_dev, &payload, imm, 0) {
            Ok(()) => Ok(()),
            Err(NetError::Retry(_)) => {
                // The progress engine cannot bounce this to the user:
                // park it in the backlog (paper §4.1.5).
                self.push_backlog(Backlogged::Ctrl {
                    target: src,
                    target_dev: src_dev,
                    payload: self.inner.buf_pool.stage_copy(&payload),
                    imm,
                });
                Ok(())
            }
            Err(NetError::Fatal(m)) => Err(FatalError::Net(m)),
        }
    }

    /// Source side: RTR arrived. Move the pending send out of the table
    /// (one table-lock acquisition for the whole transfer) into an
    /// [`RdvActive`] and start writing chunks.
    fn start_rdv_active(&self, target: Rank, target_dev: DevId, rtr: RtrPayload) -> Result<()> {
        // Increment before the table remove so `pending_rendezvous`
        // never transiently undercounts.
        self.inner.rdv_active.fetch_add(1, Ordering::Relaxed);
        let Some(entry) = self.inner.rdv_sends.remove(rtr.send_id) else {
            self.inner.rdv_active.fetch_sub(1, Ordering::Relaxed);
            return Err(FatalError::Net(format!("RTR for unknown send id {}", rtr.send_id)));
        };
        let cfg = &self.inner.rt.config;
        let total = entry.buf.len();
        let chunk = cfg.rdv_chunk_size.min(total);
        let nchunks = total.div_ceil(chunk);
        let max_inflight = cfg.rdv_max_inflight.min(nchunks).max(1);
        let contiguous = entry.buf.as_contiguous().is_some();
        let fin_imm = Header::new(MsgType::Fin, MatchingPolicy::RankTag, 0, rtr.recv_id).encode();
        let recycled = self.inner.rdv_reuse.lock().pop();
        let active = match recycled {
            Some(mut arc) => {
                // Reuse a finished transfer's shell (Arc + pump lock +
                // scratch ring) instead of allocating a new one.
                let a = Arc::get_mut(&mut arc)
                    .expect("recycled transfer shells have a unique reference");
                a.target = target;
                a.target_dev = target_dev;
                a.rkey = Rkey(rtr.rkey);
                a.fin_imm = fin_imm;
                a.total = total;
                a.chunk = chunk;
                a.nchunks = nchunks;
                a.max_inflight = max_inflight;
                a.tag = entry.tag;
                a.user_ctx = entry.user_ctx;
                a.inflight.store(0, Ordering::Relaxed);
                {
                    let mut p = a.pump.lock();
                    p.buf = Some(entry.buf);
                    p.comp = entry.comp;
                    p.next = 0;
                    p.done = 0;
                    p.seg = 0;
                    p.seg_off = 0;
                    if contiguous {
                        p.scratch.clear();
                    } else {
                        // Keep surviving slots' pooled gather buffers;
                        // their size is re-checked against the new chunk
                        // size on first use.
                        p.scratch.resize_with(max_inflight, ScratchSlot::default);
                        debug_assert!(p.scratch.iter().all(|s| !s.busy));
                    }
                }
                arc
            }
            None => Arc::new(RdvActive {
                target,
                target_dev,
                rkey: Rkey(rtr.rkey),
                fin_imm,
                total,
                chunk,
                nchunks,
                max_inflight,
                tag: entry.tag,
                user_ctx: entry.user_ctx,
                inflight: AtomicUsize::new(0),
                pump: SpinLock::new(RdvPump {
                    buf: Some(entry.buf),
                    comp: entry.comp,
                    next: 0,
                    done: 0,
                    seg: 0,
                    seg_off: 0,
                    scratch: if contiguous {
                        Vec::new()
                    } else {
                        (0..max_inflight).map(|_| ScratchSlot::default()).collect()
                    },
                }),
            }),
        };
        if self.pump_rdv(&active)? {
            self.push_backlog(Backlogged::RdvPump { active });
        }
        Ok(())
    }

    /// Drives one transfer's chunk window: posts chunks until the payload
    /// is fully posted, the inflight window fills, or the wire pushes
    /// back. Serialized per transfer by the pump lock; acquires no table
    /// locks (the chunk-continuation hot path). Returns whether the
    /// transfer stalled (wire full with nothing in flight to re-drive
    /// it) — the caller must then park it in the backlog. (A completion
    /// racing with the park may pump and even park a duplicate; the pump
    /// is idempotent, so a stale backlog entry is a no-op.)
    fn pump_rdv(&self, active: &Arc<RdvActive>) -> Result<bool> {
        let mut st = active.pump.lock();
        while st.next < active.total
            && active.inflight.load(Ordering::Relaxed) < active.max_inflight
        {
            let off = st.next;
            let len = active.chunk.min(active.total - off);
            let last = off + len == active.total;
            // FIN rides the last chunk; posting order is serialized by
            // the pump lock, so it reaches the wire after every earlier
            // chunk.
            let imm = last.then_some(active.fin_imm);
            // Split borrows: the gather path reads `buf` while filling a
            // scratch slot.
            let RdvPump { buf, scratch, seg, seg_off, .. } = &mut *st;
            let buf_ref = buf.as_ref().expect("active transfer keeps its buffer");
            let (mut nseg, mut nseg_off) = (*seg, *seg_off);
            let (data, slot_idx): (&[u8], Option<usize>) = match buf_ref.as_contiguous() {
                Some(contig) => (&contig[off..off + len], None),
                None => {
                    let SendBuf::Iovec(segs) = buf_ref else {
                        unreachable!("non-contiguous SendBuf is Iovec")
                    };
                    // inflight < max_inflight guarantees a free slot:
                    // each busy slot is owned by one in-flight chunk, and
                    // the completion handler frees the slot before
                    // decrementing inflight, both under this pump lock.
                    let idx = scratch.iter().position(|s| !s.busy).expect("free scratch slot");
                    let slot = &mut scratch[idx];
                    // A recycled transfer shell may carry slots sized for
                    // a previous (smaller) chunk size: re-check.
                    if slot.buf.as_ref().is_some_and(|b| b.len() >= active.chunk) {
                        self.inner.stats.bump(|c| &c.rdv_scratch_reuses);
                    } else {
                        slot.buf = Some(self.inner.buf_pool.take_len(active.chunk));
                    }
                    let out = slot.buf.as_mut().expect("slot allocated");
                    gather_iovec(segs, &mut nseg, &mut nseg_off, &mut out[..len]);
                    slot.busy = true;
                    (&out[..len], Some(idx))
                }
            };
            let ctx =
                self.inner.ctx_encode(OpCtx::RdvChunk { active: active.clone(), slot: slot_idx });
            match self.inner.net.post_write(
                active.target,
                active.target_dev,
                data,
                active.rkey,
                off,
                imm,
                ctx,
            ) {
                Ok(()) => {
                    st.next = off + len;
                    st.seg = nseg;
                    st.seg_off = nseg_off;
                    let now = active.inflight.fetch_add(1, Ordering::Relaxed) + 1;
                    self.inner.stats.bump(|c| &c.rdv_chunks_posted);
                    self.inner.stats.raise(|c| &c.rdv_inflight_hwm, now as u64);
                }
                Err(NetError::Retry(_)) => {
                    // Rejected post: the context was never handed over.
                    self.inner.ctx_decode(ctx)?;
                    if let Some(idx) = slot_idx {
                        st.scratch[idx].busy = false;
                    }
                    // With chunks in flight, their completions re-drive
                    // the transfer; otherwise report the stall so the
                    // caller parks it for the progress loop.
                    return Ok(active.inflight.load(Ordering::Relaxed) == 0);
                }
                Err(NetError::Fatal(m)) => {
                    // Rejected post: the context was never handed over.
                    self.inner.ctx_decode(ctx)?;
                    return Err(FatalError::Net(m));
                }
            }
        }
        Ok(false)
    }

    // ------------------------------------------------------------------
    // Progress (paper Figure 1, steps 3-8)
    // ------------------------------------------------------------------

    /// Makes progress on this device: drains the backlog, polls the
    /// network, reacts to completions, and replenishes pre-posted
    /// receives. Returns whether any work was done.
    pub fn progress(&self) -> Result<bool> {
        self.inner.stats.bump(|c| &c.progress_calls);
        let mut did = false;
        did |= self.drain_backlog()?;
        did |= self.retry_pending_inbound()?;
        if self.inner.coalescer.enabled() {
            did |= self.flush_idle_coalesced()?;
        }
        let batch = self.inner.rt.config.progress_batch;
        // Reusable CQE scratch: the try-lock winner polls into the
        // persistent buffer. A concurrent loser falls back to an empty
        // local vector — which never allocates, because its poll bounces
        // off the CQ trylock (held by the winner) before anything is
        // pushed.
        let mut local: Vec<Cqe> = Vec::new();
        let mut guard = self.inner.cqe_scratch.try_lock();
        let cqes: &mut Vec<Cqe> = match guard.as_mut() {
            Some(g) => {
                g.clear();
                g
            }
            None => &mut local,
        };
        match self.inner.net.poll_cq(cqes, batch) {
            Ok(n) => {
                did |= n > 0;
                for cqe in cqes.drain(..) {
                    self.handle_cqe(cqe)?;
                }
            }
            Err(NetError::Retry(_)) => {
                // Another thread holds the poll lock: it is making
                // progress on our behalf (trylock wrapper, §4.2.2).
                return Ok(did);
            }
            Err(NetError::Fatal(m)) => return Err(FatalError::Net(m)),
        }
        self.replenish_recvs()?;
        if did {
            self.inner.stats.bump(|c| &c.progress_useful);
        }
        Ok(did)
    }

    /// Worker-side progress entry point: defers to the runtime's
    /// progress mode before really polling.
    ///
    /// * `Workers` (or no engine running) — polls like
    ///   [`progress`](Self::progress), counting a `worker_polls` stat.
    /// * `Dedicated` with the engine running — a no-op (`Ok(false)`):
    ///   the dedicated threads own all polling.
    /// * `Hybrid` with the engine running — steals a poll only while
    ///   this device's dedicated thread is parked.
    ///
    /// Useful worker polls ring the runtime's completion bell while an
    /// engine runs, so threads parked in `Runtime::wait_until` observe
    /// completions delivered by a stealing worker, not just by the
    /// engine.
    pub fn worker_progress(&self) -> Result<bool> {
        use crate::progress::ProgressMode;
        let engine_active = self.inner.rt.progress.engine_active();
        match self.inner.rt.config.progress_mode {
            ProgressMode::Dedicated(_) if engine_active => return Ok(false),
            ProgressMode::Hybrid(_)
                if engine_active && self.inner.dedicated_active.load(Ordering::Relaxed) =>
            {
                return Ok(false)
            }
            _ => {}
        }
        self.inner.stats.bump(|c| &c.worker_polls);
        let did = self.progress()?;
        if did && engine_active {
            self.inner.rt.comp_bell.ring();
        }
        Ok(did)
    }

    /// Marks whether this device's dedicated progress thread is awake
    /// (progress-engine bookkeeping).
    pub(crate) fn set_dedicated_active(&self, active: bool) {
        self.inner.dedicated_active.store(active, Ordering::Release);
    }

    /// Counts a progress-thread park against this device.
    pub(crate) fn note_progress_park(&self) {
        self.inner.stats.bump(|c| &c.progress_parks);
    }

    /// Whether this device holds deferred work that needs more progress
    /// calls but will never ring a doorbell: backlogged sends, buffered
    /// coalesced sub-messages, inbound wire messages parked by RNR, or
    /// deliveries waiting on an rcomp registration.
    /// A progress thread must not park while any of these are pending.
    pub(crate) fn has_deferred_work(&self) -> bool {
        !self.inner.backlog.is_empty()
            || self.inner.coalescer.pending() > 0
            || self.inner.net.inbound_pending() > 0
            || !self.inner.pending_inbound.lock().is_empty()
    }

    /// Parks a request in the backlog, counting it. Rings the device
    /// doorbell: in dedicated-progress modes the worker that parked this
    /// work never polls, so the (possibly parked) progress thread that
    /// owns the device must be told the backlog is non-empty.
    fn push_backlog(&self, item: Backlogged) {
        self.inner.stats.bump(|c| &c.backlogged);
        self.inner.backlog.push(item);
        if let Some(bell) = &self.inner.bell {
            bell.ring();
        }
    }

    /// Ships one coalesced frame; a full wire parks it in the backlog
    /// (like any control message the runtime itself must send). A frame
    /// also parks when the backlog is non-empty: an earlier frame may be
    /// waiting there, and frames for one destination must reach the wire
    /// in creation order (the backlog drains FIFO).
    fn post_frame(&self, frame: Frame) -> Result<()> {
        self.inner.stats.bump(|c| &c.coalesce_flushes);
        let Frame { target, target_dev, data, count } = frame;
        let imm = Header::new(MsgType::Coalesced, MatchingPolicy::None, 0, count as u32).encode();
        if !self.inner.backlog.is_empty() {
            self.push_backlog(Backlogged::Ctrl { target, target_dev, payload: data, imm });
            return Ok(());
        }
        match self.inner.net.post_send(target, target_dev, &data, imm, 0) {
            Ok(()) => Ok(()),
            Err(NetError::Retry(_)) => {
                self.push_backlog(Backlogged::Ctrl { target, target_dev, payload: data, imm });
                Ok(())
            }
            Err(NetError::Fatal(m)) => Err(FatalError::Net(m)),
        }
    }

    /// Ships every destination's buffer that sat idle for a full
    /// progress epoch (buffers being actively appended to are left to
    /// fill). Returns whether anything shipped.
    fn flush_idle_coalesced(&self) -> Result<bool> {
        let mut did = false;
        self.inner.coalescer.take_idle_with(|frame| {
            did = true;
            self.post_frame(frame)
        })?;
        Ok(did)
    }

    /// Ships every open coalescing buffer now (explicit flush — e.g.
    /// before a termination barrier). Returns whether anything shipped.
    pub fn flush_coalesced(&self) -> Result<bool> {
        let mut did = false;
        self.inner.coalescer.take_all_with(|frame| {
            did = true;
            self.post_frame(frame)
        })?;
        Ok(did)
    }

    /// Sub-messages buffered for coalescing but not yet on the wire.
    /// They need further [`progress`](Device::progress) calls (or an
    /// explicit [`flush_coalesced`](Device::flush_coalesced)) to ship.
    pub fn coalesce_pending(&self) -> usize {
        self.inner.coalescer.pending()
    }

    /// Retries postponed requests (paper Figure 1, step 3). Consecutive
    /// plain sends to one `(target, target_dev)` submit as a single
    /// batched post, amortizing the fabric's posting lock over the run.
    fn drain_backlog(&self) -> Result<bool> {
        if self.inner.backlog.is_empty() {
            return Ok(false);
        }
        let mut did = false;
        // Pumps that stalled this drain are held aside and re-parked
        // after the loop: unrelated entries queued behind them still get
        // attempted this round (the wire may accept sends to other
        // targets), and the drain cannot spin re-popping them.
        let mut stalled_pumps: Vec<Arc<RdvActive>> = Vec::new();
        loop {
            let mut run = self.inner.backlog.pop_run(BACKLOG_BATCH);
            match run.len() {
                0 => break,
                1 => match run.pop().unwrap() {
                    Backlogged::Ctrl { target, target_dev, payload, imm } => {
                        match self.inner.net.post_send(target, target_dev, &payload, imm, 0) {
                            Ok(()) => did = true,
                            Err(NetError::Retry(_)) => {
                                self.inner.backlog.push_front(Backlogged::Ctrl {
                                    target,
                                    target_dev,
                                    payload,
                                    imm,
                                });
                                break;
                            }
                            Err(NetError::Fatal(m)) => return Err(FatalError::Net(m)),
                        }
                    }
                    Backlogged::RdvPump { active } => {
                        if self.pump_rdv(&active)? {
                            stalled_pumps.push(active);
                        } else {
                            did = true;
                        }
                    }
                    Backlogged::UserSend { target, target_dev, data, imm, ctx } => {
                        match self.inner.net.post_send(target, target_dev, &data, imm, ctx) {
                            Ok(()) => did = true,
                            Err(NetError::Retry(_)) => {
                                self.inner.backlog.push_front(Backlogged::UserSend {
                                    target,
                                    target_dev,
                                    data,
                                    imm,
                                    ctx,
                                });
                                break;
                            }
                            Err(NetError::Fatal(m)) => return Err(FatalError::Net(m)),
                        }
                    }
                },
                _ => {
                    // A run of plain sends to one destination (pop_run
                    // guarantees the shape): one batched submission.
                    let (target, target_dev) = match &run[0] {
                        Backlogged::Ctrl { target, target_dev, .. }
                        | Backlogged::UserSend { target, target_dev, .. } => (*target, *target_dev),
                        Backlogged::RdvPump { .. } => unreachable!("rdv pump in run"),
                    };
                    let descs: Vec<SendDesc<'_>> = run
                        .iter()
                        .map(|item| match item {
                            Backlogged::Ctrl { payload, imm, .. } => {
                                SendDesc { data: payload.as_ref(), imm: *imm, ctx: 0 }
                            }
                            Backlogged::UserSend { data, imm, ctx, .. } => {
                                SendDesc { data: data.as_ref(), imm: *imm, ctx: *ctx }
                            }
                            Backlogged::RdvPump { .. } => unreachable!("rdv pump in run"),
                        })
                        .collect();
                    match self.inner.net.post_send_batch(target, target_dev, &descs) {
                        Ok(posted) => {
                            drop(descs);
                            did |= posted > 0;
                            self.inner.stats.bump(|c| &c.batch_posts);
                            self.inner.stats.add(|c| &c.batch_posted_msgs, posted as u64);
                            if posted < run.len() {
                                // Partial progress: the wire filled
                                // mid-batch. Re-park the unposted tail
                                // in order and stop.
                                self.inner.backlog.push_front_run(run.drain(posted..));
                                break;
                            }
                        }
                        Err(NetError::Retry(_)) => {
                            drop(descs);
                            self.inner.backlog.push_front_run(run.into_iter());
                            break;
                        }
                        Err(NetError::Fatal(m)) => return Err(FatalError::Net(m)),
                    }
                }
            }
        }
        for active in stalled_pumps {
            self.push_backlog(Backlogged::RdvPump { active });
        }
        Ok(did)
    }

    /// Keeps the shared receive queue stocked (paper Figure 1, step 7).
    ///
    /// Low-watermark hysteresis: while the posted count sits above the
    /// watermark this is one relaxed atomic read and no lock traffic.
    /// Once it falls to the watermark, one [`NetDevice::post_recv_batch`]
    /// call refills back to the prepost target under a single SRQ/
    /// endpoint-lock acquisition — instead of the old per-packet
    /// `post_recv` top-up on every progress call.
    fn replenish_recvs(&self) -> Result<()> {
        let cfg = &self.inner.rt.config;
        let target = cfg.prepost;
        let posted = self.inner.net.posted_recvs();
        if posted > target / 2 || posted >= target {
            return Ok(());
        }
        // Persistent refill scratch: a busy lock means another thread is
        // already refilling this device — skip, it has us covered.
        let Some(mut scratch) = self.inner.replenish_scratch.try_lock() else {
            return Ok(());
        };
        let ReplenishScratch { packets, descs } = &mut *scratch;
        packets.clear();
        descs.clear();
        for _ in 0..target - posted {
            let Some(packet) = self.inner.rt.pool.get() else { break };
            packets.push(packet);
        }
        if packets.is_empty() {
            return Ok(());
        }
        // SAFETY: each packet's slot stays checked out (leaked below)
        // until the receive completion reclaims it.
        descs.extend(
            packets
                .iter()
                .map(|p| unsafe { RecvBufDesc::new(p.raw_ptr(), p.capacity(), p.index() as u64) }),
        );
        match self.inner.net.post_recv_batch(descs) {
            Ok(n) => {
                self.inner.stats.bump(|c| &c.replenish_batches);
                self.inner.stats.add(|c| &c.replenish_posted, n as u64);
                for p in packets.drain(..n) {
                    p.leak();
                }
                // The unposted tail (if any) drops back to the pool.
                packets.clear();
                Ok(())
            }
            // Lock busy: every packet drops back; retry next progress.
            Err(NetError::Retry(_)) => {
                packets.clear();
                Ok(())
            }
            Err(NetError::Fatal(m)) => Err(FatalError::Net(m)),
        }
    }

    /// Reacts to one completion (paper Figure 1, steps 4-8).
    fn handle_cqe(&self, cqe: Cqe) -> Result<()> {
        self.inner.stats.bump(|c| &c.completions);
        match cqe.kind {
            CqeKind::SendDone | CqeKind::WriteDone | CqeKind::ReadDone => {
                if cqe.ctx == 0 {
                    return Ok(()); // inject / control message
                }
                let op = self.inner.ctx_decode(cqe.ctx)?;
                self.handle_local_completion(op)
            }
            CqeKind::RecvDone => {
                // SAFETY: receive contexts are leaked packet indices.
                let packet = unsafe { self.inner.rt.pool.reclaim(cqe.ctx as u32, cqe.len) };
                self.handle_incoming(cqe, packet)
            }
            CqeKind::WriteImmRecv => {
                // A pre-posted receive was consumed without data.
                // SAFETY: receive contexts are leaked packet indices.
                let packet = unsafe { self.inner.rt.pool.reclaim(cqe.ctx as u32, 0) };
                drop(packet); // immediately recycled
                let hdr = Header::decode(cqe.imm)?;
                match hdr.ty {
                    MsgType::Fin => self.handle_fin(hdr.aux),
                    MsgType::PutSignal => self.signal_rcomp(hdr.aux, cqe.src_rank, hdr.tag),
                    other => Err(FatalError::Net(format!("unexpected write-imm type {other:?}"))),
                }
            }
        }
    }

    /// A local (source-side) completion.
    fn handle_local_completion(&self, op: OpCtx) -> Result<()> {
        match op {
            OpCtx::EagerSend { comp, buf, rank, tag, user_ctx } => {
                if let Some(comp) = comp {
                    comp.signal(CompDesc {
                        rank,
                        tag,
                        data: DataBuf::SendBuf(buf),
                        user_ctx,
                        kind: CompKind::Send,
                    });
                }
                Ok(())
            }
            OpCtx::RdvChunk { active, slot } => {
                let finished = {
                    let mut st = active.pump.lock();
                    if let Some(idx) = slot {
                        st.scratch[idx].busy = false;
                    }
                    // The window-slot release must happen inside the pump
                    // critical section, after the scratch slot is freed: a
                    // concurrent pump checks `inflight < max_inflight`
                    // under this lock and relies on every freed window
                    // slot having already released its scratch slot.
                    active.inflight.fetch_sub(1, Ordering::Relaxed);
                    st.done += 1;
                    if st.done == active.nchunks {
                        Some((st.buf.take().expect("buffer present"), st.comp.take()))
                    } else {
                        None
                    }
                };
                match finished {
                    Some((buf, comp)) => {
                        if let Some(comp) = comp {
                            comp.signal(CompDesc {
                                rank: active.target,
                                tag: active.tag,
                                data: DataBuf::SendBuf(buf),
                                user_ctx: active.user_ctx,
                                kind: CompKind::Send,
                            });
                        }
                        self.inner.rdv_active.fetch_sub(1, Ordering::Relaxed);
                        // Recycle the transfer shell (Arc + lock + scratch
                        // ring) — but only when ours is the last reference:
                        // a stale backlog pump clone may still point here,
                        // and reusing the shell under it would corrupt an
                        // unrelated transfer.
                        if Arc::strong_count(&active) == 1 {
                            let mut reuse = self.inner.rdv_reuse.lock();
                            if reuse.len() < RDV_REUSE_CAP {
                                reuse.push(active);
                            }
                        }
                        Ok(())
                    }
                    None => {
                        // Launch the next chunk(s) of this transfer.
                        if self.pump_rdv(&active)? {
                            self.push_backlog(Backlogged::RdvPump { active });
                        }
                        Ok(())
                    }
                }
            }
            OpCtx::Put { comp, buf, rank, tag, user_ctx } => {
                if let Some(comp) = comp {
                    comp.signal(CompDesc {
                        rank,
                        tag,
                        data: DataBuf::SendBuf(buf),
                        user_ctx,
                        kind: CompKind::Put,
                    });
                }
                Ok(())
            }
            OpCtx::Get { comp, buf, rank, tag, user_ctx, signal } => {
                if let Some((target_dev, rcomp)) = signal {
                    // Get-with-signal: notify the target that its data was
                    // read (extension; see proto docs).
                    let imm = Header::new(MsgType::GetSignal, MatchingPolicy::RankTag, tag, rcomp)
                        .encode();
                    match self.inner.net.post_send(rank, target_dev, &[], imm, 0) {
                        Ok(()) => {}
                        Err(NetError::Retry(_)) => self.push_backlog(Backlogged::Ctrl {
                            target: rank,
                            target_dev,
                            payload: PoolBuf::detached(Vec::new()),
                            imm,
                        }),
                        Err(NetError::Fatal(m)) => return Err(FatalError::Net(m)),
                    }
                }
                if let Some(comp) = comp {
                    comp.signal(CompDesc {
                        rank,
                        tag,
                        data: DataBuf::Owned(buf),
                        user_ctx,
                        kind: CompKind::Get,
                    });
                }
                Ok(())
            }
        }
    }

    /// An incoming message delivered into `packet` (paper Figure 1,
    /// steps 5-6).
    fn handle_incoming(&self, cqe: Cqe, packet: Packet) -> Result<()> {
        let hdr = Header::decode(cqe.imm)?;
        match hdr.ty {
            MsgType::Eager | MsgType::EagerAm => {
                let len = cqe.len;
                self.deliver_eager(cqe.src_rank, hdr, DataBuf::Packet(packet, len))
            }
            MsgType::RtsSr => {
                let rts = RtsPayload::decode(&packet.as_slice()[..cqe.len])?;
                drop(packet);
                let engine = &self.inner.rt.matching;
                let key = engine.key_for(cqe.src_rank, hdr.tag, hdr.policy);
                let entry = MatchEntry::UnexpRts {
                    src: cqe.src_rank,
                    src_dev: cqe.src_dev,
                    tag: hdr.tag,
                    send_id: rts.send_id,
                    size: rts.size as usize,
                };
                if let Some((matched, _mine)) = engine.insert(key, entry, MatchKind::Send) {
                    let MatchEntry::Recv(recv) = matched else {
                        return Err(FatalError::Net("RTS matched non-recv".into()));
                    };
                    recv.device.clone().start_rtr(
                        cqe.src_rank,
                        cqe.src_dev,
                        hdr.tag,
                        rts.send_id,
                        rts.size as usize,
                        RdvBuf::Owned(recv.buf),
                        recv.comp,
                        recv.user_ctx,
                        false,
                    )?;
                }
                Ok(())
            }
            MsgType::RtsAm => {
                let rts = RtsPayload::decode(&packet.as_slice()[..cqe.len])?;
                drop(packet);
                let Some(comp) = self.inner.rt.rcomp.read(hdr.aux as usize) else {
                    self.park_early_inbound(PendingInbound::RtsAm {
                        rcomp: hdr.aux,
                        src: cqe.src_rank,
                        src_dev: cqe.src_dev,
                        tag: hdr.tag,
                        send_id: rts.send_id,
                        size: rts.size as usize,
                    });
                    return Ok(());
                };
                // The runtime provides the landing storage for an
                // unexpected AM rendezvous: a pool-recycled bounce buffer.
                let buf = self.inner.buf_pool.take_len(rts.size as usize);
                self.start_rtr(
                    cqe.src_rank,
                    cqe.src_dev,
                    hdr.tag,
                    rts.send_id,
                    rts.size as usize,
                    RdvBuf::Pooled(buf),
                    comp,
                    0,
                    true,
                )
            }
            MsgType::Rtr => {
                let rtr = RtrPayload::decode(&packet.as_slice()[..cqe.len])?;
                drop(packet);
                self.start_rdv_active(cqe.src_rank, cqe.src_dev, rtr)
            }
            MsgType::GetSignal => {
                drop(packet);
                self.signal_rcomp(hdr.aux, cqe.src_rank, hdr.tag)
            }
            MsgType::Coalesced => {
                let subs = coalesce_unpack_ranges(&packet.as_slice()[..cqe.len])?;
                if hdr.aux as usize != subs.len() {
                    return Err(FatalError::Net(format!(
                        "coalesced frame count mismatch: header {} vs {}",
                        hdr.aux,
                        subs.len()
                    )));
                }
                // Zero-copy demux: the frame packet becomes a shared
                // refcounted buffer and every sub-message is handed out
                // as a view into it; the slot returns to the pool when
                // the last view drops.
                let shared = packet.into_shared();
                for (sub_imm, r) in subs {
                    let view = shared.view(r.start, r.end - r.start);
                    let hdr = Header::decode(sub_imm)?;
                    self.deliver_eager(cqe.src_rank, hdr, DataBuf::View(view))?;
                }
                Ok(())
            }
            MsgType::Fin | MsgType::PutSignal => {
                Err(FatalError::Net(format!("{:?} must arrive as write-immediate", hdr.ty)))
            }
        }
    }

    /// Delivers one eager payload — a standalone arrival (packet-backed)
    /// or one sub-message of a coalesced frame (view-backed) — through the
    /// matching engine (two-sided) or rcomp signaling (active message). The
    /// payload is parked as-is on a miss; no copy happens until (unless)
    /// a user-posted receive buffer consumes it.
    fn deliver_eager(&self, src: Rank, hdr: Header, data: DataBuf) -> Result<()> {
        match hdr.ty {
            MsgType::Eager => {
                let engine = &self.inner.rt.matching;
                let key = engine.key_for(src, hdr.tag, hdr.policy);
                let entry = MatchEntry::UnexpEager { src, tag: hdr.tag, data };
                if let Some((matched, mine)) = engine.insert(key, entry, MatchKind::Send) {
                    self.inner.stats.bump(|c| &c.matched);
                    let MatchEntry::Recv(recv) = matched else {
                        return Err(FatalError::Net("eager matched non-recv".into()));
                    };
                    let MatchEntry::UnexpEager { src, tag, data } = mine else { unreachable!() };
                    let (comp, desc) = self.finish_matched_recv(recv, src, tag, data)?;
                    comp.signal(desc);
                }
                Ok(())
            }
            MsgType::EagerAm => {
                match self.inner.rt.rcomp.read(hdr.aux as usize) {
                    Some(comp) => self.deliver_eager_am(&comp, src, hdr.tag, data),
                    None => self.park_early_inbound(PendingInbound::EagerAm {
                        rcomp: hdr.aux,
                        src,
                        tag: hdr.tag,
                        data,
                    }),
                }
                Ok(())
            }
            other => Err(FatalError::Net(format!("invalid eager payload type {other:?}"))),
        }
    }

    /// Target side of the rendezvous FIN: deliver the buffer.
    fn handle_fin(&self, recv_id: u32) -> Result<()> {
        let entry = self
            .inner
            .rdv_recvs
            .remove(recv_id)
            .ok_or_else(|| FatalError::Net(format!("FIN for unknown recv id {recv_id}")))?;
        self.inner.net.deregister(&entry.mr).map_err(net_fatal)?;
        entry.comp.signal(CompDesc {
            rank: entry.src,
            tag: entry.tag,
            data: entry.buf.into_databuf(entry.size),
            user_ctx: entry.user_ctx,
            kind: if entry.is_am { CompKind::Am } else { CompKind::Recv },
        });
        Ok(())
    }

    /// Signals a registered remote-completion object.
    fn signal_rcomp(&self, rcomp: u32, src: Rank, tag: Tag) -> Result<()> {
        match self.inner.rt.rcomp.read(rcomp as usize) {
            Some(comp) => comp.signal(CompDesc {
                rank: src,
                tag,
                data: DataBuf::Empty,
                user_ctx: 0,
                kind: CompKind::RemoteSignal,
            }),
            None => self.park_early_inbound(PendingInbound::RemoteSignal { rcomp, src, tag }),
        }
        Ok(())
    }

    /// Delivers an eager active message (packet- or view-backed, so
    /// zero-copy) to its registered completion object.
    fn deliver_eager_am(&self, comp: &Comp, src: Rank, tag: Tag, data: DataBuf) {
        self.inner.stats.bump(|c| &c.zero_copy_deliveries);
        comp.signal(CompDesc { rank: src, tag, data, user_ctx: 0, kind: CompKind::Am });
    }

    /// Parks an inbound delivery whose rcomp is not registered yet;
    /// retried on every progress call until the registration lands (see
    /// [`PendingInbound`]).
    fn park_early_inbound(&self, p: PendingInbound) {
        self.inner.stats.bump(|c| &c.early_inbound);
        self.inner.pending_inbound.lock().push(p);
    }

    /// Retries parked early-inbound deliveries whose rcomp may have
    /// been registered since. Still-unregistered entries are re-parked
    /// in arrival order. Returns whether anything was delivered.
    fn retry_pending_inbound(&self) -> Result<bool> {
        let pending = {
            let mut guard = self.inner.pending_inbound.lock();
            if guard.is_empty() {
                return Ok(false);
            }
            std::mem::take(&mut *guard)
        };
        let mut kept = Vec::new();
        let mut did = false;
        for p in pending {
            let Some(comp) = self.inner.rt.rcomp.read(p.rcomp() as usize) else {
                kept.push(p);
                continue;
            };
            did = true;
            match p {
                PendingInbound::EagerAm { src, tag, data, .. } => {
                    self.deliver_eager_am(&comp, src, tag, data);
                }
                PendingInbound::RtsAm { src, src_dev, tag, send_id, size, .. } => {
                    let buf = self.inner.buf_pool.take_len(size);
                    self.start_rtr(
                        src,
                        src_dev,
                        tag,
                        send_id,
                        size,
                        RdvBuf::Pooled(buf),
                        comp,
                        0,
                        true,
                    )?;
                }
                PendingInbound::RemoteSignal { src, tag, .. } => {
                    comp.signal(CompDesc {
                        rank: src,
                        tag,
                        data: DataBuf::Empty,
                        user_ctx: 0,
                        kind: CompKind::RemoteSignal,
                    });
                }
            }
        }
        if !kept.is_empty() {
            let mut guard = self.inner.pending_inbound.lock();
            // Entries parked while we held the taken batch arrived
            // after `kept`: splice them behind to keep arrival order.
            kept.append(&mut guard);
            *guard = kept;
        }
        Ok(did)
    }

    /// Backlog depth (diagnostics).
    pub fn backlog_len(&self) -> usize {
        self.inner.backlog.len()
    }

    /// Posted-but-unshipped wire work (diagnostics): frames a
    /// deferred-flush transport (tcp) has accepted but not yet written
    /// to a socket. They only move on progress calls, so quiescence
    /// loops must keep polling until this drains — a rank that blocks
    /// elsewhere (an out-of-band collective, say) with frames queued
    /// strands every peer waiting on those bytes.
    pub fn outbound_pending(&self) -> usize {
        self.inner.net.outbound_pending()
    }

    /// Pending rendezvous operations (diagnostics): sends awaiting RTR
    /// or mid-transfer, and receives awaiting FIN. Advisory: each table
    /// shard is sampled in turn, so the totals are a consistent
    /// per-shard snapshot, not an atomic cross-shard view — suitable for
    /// quiescence polling, not for exact accounting while transfers are
    /// being posted concurrently.
    pub fn pending_rendezvous(&self) -> (usize, usize) {
        let sends = self.inner.rdv_sends.len() + self.inner.rdv_active.load(Ordering::Relaxed);
        (sends, self.inner.rdv_recvs.len())
    }
}

impl Drop for DeviceInner {
    fn drop(&mut self) {
        // Reclaim everything still checked out to the fabric so packet
        // and context memory is returned: undelivered completions carry
        // either a packet index (receive side) or an encoded OpCtx
        // (local side); still-posted receives carry packet indices.
        let (cqes, descs) = self.net.teardown();
        for cqe in cqes {
            match cqe.kind {
                CqeKind::RecvDone | CqeKind::WriteImmRecv => {
                    // SAFETY: receive contexts are leaked packet indices.
                    drop(unsafe { self.rt.pool.reclaim(cqe.ctx as u32, 0) });
                }
                CqeKind::SendDone | CqeKind::WriteDone | CqeKind::ReadDone => {
                    if cqe.ctx != 0 {
                        let _ = self.ctx_decode(cqe.ctx);
                    }
                }
            }
        }
        for d in descs {
            // SAFETY: posted receives are leaked packet indices.
            drop(unsafe { self.rt.pool.reclaim(d.ctx as u32, 0) });
        }
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("rank", &self.rank())
            .field("dev_id", &self.dev_id())
            .finish()
    }
}

fn net_fatal(e: NetError) -> FatalError {
    match e {
        NetError::Fatal(m) => FatalError::Net(m),
        NetError::Retry(r) => FatalError::Net(format!("unexpected retry: {r:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, Runtime, RuntimeConfig};

    /// What `inline_payloads_survive_posting_and_parking_*` cannot see
    /// (the stale stack bytes of a pointer taken before the move stay
    /// readable): an inline payload is posted from `PostSrc`'s own copy,
    /// never from an address inside the `SendBuf` that is about to move;
    /// out-of-line storage is posted from where it is.
    #[test]
    fn post_src_survives_the_send_buf_moving() {
        let rt = Runtime::new(Fabric::new(1), 0, RuntimeConfig::small()).unwrap();
        let dev = &rt.device().inner;
        let inside = |buf: &SendBuf, p: *const u8| {
            let base = buf as *const SendBuf as usize;
            (base..base + std::mem::size_of::<SendBuf>()).contains(&(p as usize))
        };

        let inline = SendBuf::from(&b"twenty-four inline bytes"[..]);
        assert!(matches!(inline, SendBuf::Inline(..)));
        let src = PostSrc::of(dev, &inline);
        // SAFETY: `inline` is alive here and in its box below.
        assert!(!inside(&inline, unsafe { src.bytes() }.as_ptr()), "posts from inside the enum");
        let moved = Box::new(inline);
        assert_eq!(unsafe { src.bytes() }, moved.as_contiguous().unwrap());

        let owned = SendBuf::from(vec![7u8; 100]);
        let at = owned.as_contiguous().unwrap().as_ptr();
        let src = PostSrc::of(dev, &owned);
        let moved = Box::new(owned);
        // SAFETY: `owned` lives on in its box.
        assert_eq!(unsafe { src.bytes() }.as_ptr(), at, "restaged a contiguous buffer");
        assert_eq!(unsafe { src.bytes() }, moved.as_contiguous().unwrap());
    }
}
