//! Devices and the progress function (paper §3.2.3, §3.2.6, §4.4).
//!
//! A device encapsulates a complete set of low-level network resources;
//! threads operating on different devices never interfere. This module
//! is the dispatcher of the runtime's data path: `post_comm` routes each
//! operation to its protocol, and the explicit progress function drives
//! the backlog queue, polls the network, routes completions to the
//! protocol that owns them and replenishes pre-posted receives — steps
//! (1)-(11) of the paper's Figure 1. The protocols themselves are
//! further `impl Device` blocks, one file each: `eager` (eager and
//! coalesced sends, receives, rcomp delivery), `rdv` (rendezvous) and
//! `rma` (put/get).

mod eager;
mod rdv;
mod rma;

pub(crate) use rdv::RdvActive;

use crate::backlog::{send_dest, Backlog, Backlogged};
use crate::coalesce::Coalescer;
use crate::comp::Comp;
use crate::ctx_pool::CtxPool;
use crate::error::{FatalError, PostResult, Result};
use crate::packet_pool::Packet;
use crate::proto::{Header, MsgType, RtrPayload};
use crate::runtime::RuntimeInner;
use crate::stats::DeviceStats;
use crate::types::{
    CompDesc, CompKind, DataBuf, Direction, Landing, MatchingPolicy, RComp, Rank, SendBuf, Tag,
};
use eager::PendingInbound;
use lci_fabric::sync::SpinLock;
use lci_fabric::{
    BufPool, Cqe, CqeKind, DevId, MemoryRegion, NetDevice, NetError, RecvBufDesc, Rkey, SendDesc,
};
use std::sync::Arc;

/// Longest run of backlogged sends submitted as one fabric batch.
const BACKLOG_BATCH: usize = 32;

/// Completions one progress call handles at most.
const PROGRESS_BATCH: usize = 64;

/// Stripes of a device's operation tables: the pending-rendezvous slabs
/// and the op-context pool are each sharded over this many independently
/// locked parts.
const TABLE_SHARDS: usize = 8;

/// Entries stored in the matching engine.
pub(crate) enum MatchEntry {
    /// An unexpected eager message. The payload is parked without
    /// copying whenever possible: a whole packet for standalone
    /// arrivals, a refcounted [`crate::PacketView`] for sub-messages of
    /// a coalesced frame.
    UnexpEager { src: Rank, tag: Tag, data: DataBuf },
    /// An unexpected rendezvous RTS.
    UnexpRts(rdv::Rts),
    /// A posted receive.
    Recv(RecvEntry),
}

/// A posted receive waiting in the matching engine.
pub(crate) struct RecvEntry {
    pub buf: Landing,
    pub comp: Comp,
    pub user_ctx: u64,
    /// The device whose resources serve this receive's rendezvous reply.
    pub device: Device,
}

/// Per-operation context; what travels through the fabric's completion
/// context field is its generation-tagged [`CtxPool`] id.
enum OpCtx {
    /// A put, or an eager `no_retry` send the wire refused (parked in the
    /// backlog; every other eager send is done at the post): the buffer
    /// comes back with a completion of `kind`.
    Send {
        comp: Option<Comp>,
        buf: SendBuf,
        rank: Rank,
        tag: Tag,
        user_ctx: u64,
        kind: CompKind,
    },
    RdvChunk {
        active: Arc<RdvActive>,
        /// Scratch-ring slot this chunk's gather copy occupies (iovec
        /// payloads only); freed when the chunk completes.
        slot: Option<usize>,
    },
    Get(rma::GetOp),
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
    rdv: rdv::RdvState,
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
    /// Inbound deliveries whose target rcomp was not registered yet,
    /// keyed by that rcomp and parked for retry on later progress calls.
    /// The rcomp table is append-only, so a failed lookup always means
    /// "not yet": one thread's `progress` may poll a wire message in
    /// while another is still inside `register_rcomp`.
    pending_inbound: SpinLock<Vec<(u32, PendingInbound)>>,
    /// Per-core operation counters; `pub(crate)` so the collectives
    /// layer can attribute its rounds/bytes/inflight marks to the
    /// device that carried them.
    pub(crate) stats: DeviceStats,
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
    pub recv_buf: Option<Landing>,
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
        let buf_pool = net.buf_pool();
        let coalescer = Coalescer::new(rt.config.coalesce, rt.fabric.nranks(), buf_pool.clone());
        let stat_stripes = rt.config.placement.stripes();
        let dev = Device {
            inner: Arc::new(DeviceInner {
                rt,
                net,
                backlog: Backlog::new(),
                coalescer,
                rdv: rdv::RdvState::new(TABLE_SHARDS),
                buf_pool,
                ctx_pool: CtxPool::new(TABLE_SHARDS),
                cqe_scratch: SpinLock::new(Vec::with_capacity(PROGRESS_BATCH)),
                replenish_scratch: SpinLock::new(ReplenishScratch::default()),
                pending_inbound: SpinLock::new(Vec::new()),
                stats: DeviceStats::with_stripes(stat_stripes),
            }),
        };
        // Register in the runtime's device registry (weak: DeviceInner
        // holds the runtime strongly).
        dev.inner.rt.devices.push(Arc::downgrade(&dev.inner));
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
        let ts = self.inner.net.transport_stats();
        s.shm_ring_hwm = ts.shm_ring_hwm;
        s.tcp_writev_calls = ts.tcp_writev_calls;
        s.tcp_writev_frames = ts.tcp_writev_frames;
        s.rma_direct_bytes = ts.rma_direct_bytes;
        s.rma_framed_bytes = ts.rma_framed_bytes;
        s
    }

    /// Registers memory for remote access (paper §3.3.1: mandatory for
    /// remote buffers, optional for local ones).
    pub fn register_memory(&self, buf: &[u8]) -> Result<MemoryRegion> {
        self.inner.net.register(buf.as_ptr(), buf.len()).map_err(net_fatal)
    }

    /// Deregisters a memory region.
    ///
    /// Deregistration is **deferred**: the registration stays in the
    /// device's registration cache (and the rkey stays valid for remote
    /// access) until the cache evicts it, so a remote Put/Get racing
    /// with deregistration does not fault.
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
            (Direction::Out, false, _) => self.post_send_impl(args),
            (Direction::Out, true, _) => self.post_put_impl(args),
            (Direction::In, false, false) => self.post_recv_impl(args),
            (Direction::In, false, true) => Err(FatalError::InvalidArg(
                "a receive with a remote completion is invalid (paper Table 1)".into(),
            )),
            (Direction::In, true, _) => self.post_get_impl(args),
        }
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
        match self.inner.net.poll_cq(cqes, PROGRESS_BATCH) {
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

    /// Parks a request in the backlog, counting it.
    fn push_backlog(&self, item: Backlogged) {
        self.inner.stats.bump(|c| &c.backlogged);
        self.inner.backlog.push(item);
    }

    /// Posts a message the runtime itself originates: no completion to
    /// signal, so it is injected. `progress` cannot bounce a full
    /// wire to the user: a copy staged in a pooled buffer parks in the
    /// backlog instead (paper §4.1.5).
    fn send_ctrl(&self, target: Rank, target_dev: DevId, bytes: &[u8], imm: u64) -> Result<()> {
        match self.inner.net.post_inject(target, target_dev, bytes, imm) {
            Ok(()) => Ok(()),
            Err(NetError::Retry(_)) => {
                let data = self.inner.buf_pool.stage_copy(bytes);
                self.push_backlog(Backlogged::Send { target, target_dev, data, imm, ctx: 0 });
                Ok(())
            }
            Err(NetError::Fatal(m)) => Err(FatalError::Net(m)),
        }
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
                    Backlogged::Send { target, target_dev, data, imm, ctx } => {
                        match self.inner.net.post_send(target, target_dev, &data, imm, ctx) {
                            Ok(()) => did = true,
                            Err(NetError::Retry(_)) => {
                                self.inner.backlog.push_front(Backlogged::Send {
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
                    Backlogged::Rdv { active } => {
                        if self.pump_rdv(&active)? {
                            stalled_pumps.push(active);
                        } else {
                            did = true;
                        }
                    }
                },
                _ => {
                    // A run of plain sends to one destination (pop_run
                    // guarantees the shape): one batched submission.
                    let (target, target_dev) = send_dest(&run[0]).expect("rdv pump in run");
                    let descs: Vec<SendDesc<'_>> = run
                        .iter()
                        .map(|item| match item {
                            Backlogged::Send { data, imm, ctx, .. } => {
                                SendDesc { data: data.as_ref(), imm: *imm, ctx: *ctx }
                            }
                            Backlogged::Rdv { .. } => unreachable!("rdv pump in run"),
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
            self.push_backlog(Backlogged::Rdv { active });
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
                    return Ok(()); // a control message or frame that left the backlog
                }
                // A local (source-side) completion.
                match self.inner.ctx_decode(cqe.ctx)? {
                    OpCtx::Send { comp, buf, rank, tag, user_ctx, kind } => {
                        if let Some(comp) = comp {
                            let data = DataBuf::SendBuf(buf);
                            comp.signal(CompDesc { rank, tag, data, user_ctx, kind });
                        }
                        Ok(())
                    }
                    OpCtx::RdvChunk { active, slot } => self.rdv_chunk_done(active, slot),
                    OpCtx::Get(op) => self.get_done(op),
                }
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
                    MsgType::PutSignal => {
                        let p = PendingInbound::RemoteSignal { src: cqe.src_rank, tag: hdr.tag };
                        self.deliver_rcomp(hdr.aux, p)
                    }
                    other => Err(FatalError::Net(format!("unexpected write-imm type {other:?}"))),
                }
            }
        }
    }

    /// An incoming message delivered into `packet` (paper Figure 1,
    /// steps 5-6).
    fn handle_incoming(&self, cqe: Cqe, packet: Packet) -> Result<()> {
        let hdr = Header::decode(cqe.imm)?;
        let payload = &packet.as_slice()[..cqe.len];
        match hdr.ty {
            MsgType::Eager | MsgType::EagerAm => {
                let len = cqe.len;
                self.deliver_eager(cqe.src_rank, hdr, DataBuf::Packet(packet, len))
            }
            MsgType::RtsSr | MsgType::RtsAm => {
                let rts = rdv::Rts::decode(&cqe, hdr.tag, payload)?;
                drop(packet);
                self.handle_rts(hdr, rts)
            }
            MsgType::Rtr => {
                let rtr = RtrPayload::decode(payload)?;
                drop(packet);
                self.start_rdv_active(cqe.src_rank, cqe.src_dev, rtr)
            }
            MsgType::GetSignal => {
                drop(packet);
                let p = PendingInbound::RemoteSignal { src: cqe.src_rank, tag: hdr.tag };
                self.deliver_rcomp(hdr.aux, p)
            }
            MsgType::Coalesced => self.deliver_coalesced(cqe.src_rank, hdr.aux, packet, cqe.len),
            MsgType::Fin | MsgType::PutSignal => {
                Err(FatalError::Net(format!("{:?} must arrive as write-immediate", hdr.ty)))
            }
        }
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
