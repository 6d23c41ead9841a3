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

use crate::backlog::{Backlog, Backlogged};
use crate::coalesce::Coalescer;
use crate::comp::Comp;
use crate::error::{FatalError, PostResult, Result};
use crate::packet_pool::Packet;
use crate::proto::{Header, MsgType, RtrPayload};
use crate::runtime::RuntimeInner;
use crate::stats::{DeviceStats, Tally};
use crate::types::{
    CompDesc, CompKind, DataBuf, Direction, Landing, MatchingPolicy, RComp, Rank, SendBuf, Tag,
    SENDBUF_INLINE_CAP,
};
use crate::util::{ctx_pack, ctx_unpack, ShardedSlab};
use eager::PendingInbound;
use lci_fabric::sync::SpinLock;
use lci_fabric::{
    BufPool, Cqe, CqeKind, DevId, MemoryRegion, NetDevice, NetError, NetResult, RecvBufDesc,
    RetryReason, Rkey,
};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Completions one progress call handles at most.
const PROGRESS_BATCH: usize = 64;

/// Stripes of a device's in-flight tables (op contexts, rendezvous sends
/// and receives): each is sharded over this many independently locked
/// parts.
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
/// context field is its generation-tagged `ops` key ([`ctx_pack`]).
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
    Get(rma::GetOp),
}

/// Reusable buffers of one device's receive-replenish path: the packet
/// indices checked out of the pool and the descriptor array handed to
/// `post_recv_batch`. Persisted across refills so the steady state
/// allocates neither.
#[derive(Default)]
struct ReplenishScratch {
    idxs: Vec<u32>,
    descs: Vec<RecvBufDesc>,
}

pub(crate) struct DeviceInner {
    pub rt: Arc<RuntimeInner>,
    pub net: Arc<dyn NetDevice>,
    backlog: Backlog,
    coalescer: Coalescer,
    /// Rendezvous sends, each from its RTS to the wire's acceptance of
    /// its last chunk; an entry's shard lock is that transfer's lock.
    rdv_sends: ShardedSlab<rdv::RdvSend>,
    /// Rendezvous receives, each from its RTR to its FIN.
    rdv_recvs: ShardedSlab<rdv::RdvRecv>,
    /// Recycled staging-buffer pool (iovec gathers, rendezvous chunks'
    /// included, parked sends, coalesced frames, bounce buffers); no
    /// fabric code takes from it.
    buf_pool: BufPool,
    /// Per-operation contexts, from post to local completion.
    ops: ShardedSlab<OpCtx>,
    /// Reusable CQE array for `progress` polls.
    cqe_scratch: SpinLock<Vec<Cqe>>,
    /// Rendezvous sends a backlog drain found still stalled, held aside
    /// until it ends. Its lock is the drain's: one thread drains at a
    /// time, so parked sends to one destination leave in their order.
    backlog_stalled: SpinLock<Vec<u32>>,
    /// Reusable batch buffers for `replenish_recvs`.
    replenish_scratch: SpinLock<ReplenishScratch>,
    /// Inbound deliveries whose target rcomp was not registered yet,
    /// keyed by that rcomp and parked for retry on later progress calls.
    /// The rcomp table is append-only, so a failed lookup always means
    /// "not yet": one thread's `progress` may poll a wire message in
    /// while another is still inside `register_rcomp`.
    pending_inbound: SpinLock<Vec<(u32, PendingInbound)>>,
    /// Whether `pending_inbound` holds anything; written under its lock,
    /// so an idle progress call learns "empty" from one load.
    pending_nonempty: AtomicBool,
    /// Per-core operation counters; `pub(crate)` so the collectives
    /// layer can attribute its rounds/bytes/inflight marks to the
    /// device that carried them.
    pub(crate) stats: DeviceStats,
}

impl DeviceInner {
    /// Encodes a per-operation context for the fabric's 64-bit ctx
    /// field: its `ops` id and generation.
    fn ctx_encode(&self, op: OpCtx) -> u64 {
        ctx_pack(self.ops.insert(op))
    }

    /// Decodes (and consumes) a context produced by [`Self::ctx_encode`].
    /// A context that fails the generation check — a stale or double
    /// decode, the pooled analogue of a use-after-free — is reported as
    /// a fatal error instead of corrupting another operation.
    fn ctx_decode(&self, ctx: u64) -> Result<OpCtx> {
        let (id, gen) = ctx_unpack(ctx);
        self.ops
            .take(id, gen)
            .ok_or_else(|| FatalError::Net(format!("stale or double-decoded op ctx {ctx:#x}")))
    }

    /// Injects a two-sided message toward `(target, target_dev)`: every
    /// one `lci` sends, but for the backlog drain's. While a parked send
    /// toward the same target waits in the backlog the message is
    /// refused as a full wire refuses it, so it retries or parks behind
    /// that send and cannot overtake it: per-source order, which
    /// per-`(rank, tag)` matching rests on, is kept by the sender. A
    /// stalled rendezvous pump does not hold it back (its RTS has left).
    /// With the backlog empty the check is one load.
    fn inject(&self, target: Rank, target_dev: DevId, data: &[u8], imm: u64) -> NetResult<()> {
        if self.backlog.holds_send_to(target, target_dev) {
            return Err(NetError::Retry(RetryReason::RxFull));
        }
        self.net.post_inject(target, target_dev, data, imm)
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
        let net = rt.netctx.create_device(rt.config.device);
        Device::create_on(rt, net)
    }

    /// [`create`](Self::create) over a given fabric device.
    fn create_on(rt: Arc<RuntimeInner>, net: Arc<dyn NetDevice>) -> Result<Device> {
        let buf_pool = BufPool::new(rt.config.device.buf_pool);
        let coalescer = Coalescer::new(rt.config.coalesce, rt.fabric.nranks(), buf_pool.clone());
        let dev = Device {
            inner: Arc::new(DeviceInner {
                rt,
                net,
                backlog: Backlog::new(),
                coalescer,
                rdv_sends: ShardedSlab::new(TABLE_SHARDS),
                rdv_recvs: ShardedSlab::new(TABLE_SHARDS),
                buf_pool,
                ops: ShardedSlab::new(TABLE_SHARDS),
                cqe_scratch: SpinLock::new(Vec::with_capacity(PROGRESS_BATCH)),
                backlog_stalled: SpinLock::new(Vec::new()),
                replenish_scratch: SpinLock::new(ReplenishScratch::default()),
                pending_inbound: SpinLock::new(Vec::new()),
                pending_nonempty: AtomicBool::new(false),
                stats: DeviceStats::default(),
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
            prepost_target: self.inner.rt.config.prepost,
        }
    }

    /// The device's recycled staging-buffer pool — for per-stripe
    /// diagnostics and tests.
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

    /// The generic communication-posting operation (`post_comm`). The
    /// caller keeps the record: each protocol takes out of it only what
    /// it consumes, and what is left drops with the caller's builder.
    pub(crate) fn post_comm(&self, args: &mut CommArgs) -> Result<PostResult> {
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

    #[inline]
    fn post_comm_inner(&self, args: &mut CommArgs) -> Result<PostResult> {
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
        let mut tally = Tally::default();
        let res = self.progress_tallied(&mut tally);
        self.inner.stats.add_tally(&tally);
        res
    }

    /// [`progress`](Self::progress), counting its completions and
    /// deliveries in `tally`.
    fn progress_tallied(&self, tally: &mut Tally) -> Result<bool> {
        self.inner.stats.bump(|c| &c.progress_calls);
        let mut did = false;
        did |= self.drain_backlog()?;
        did |= self.retry_pending_inbound(tally)?;
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
        // A two-sided frame a buffering wire holds is taken inside the
        // drain (`claim`); a write's immediate, a frame the claim
        // declines and everything on the sims come back as CQEs.
        let (mut claimed, mut failed) = (false, None);
        let mut claim = |src, src_dev, imm, payload: &[u8]| {
            if failed.is_some() {
                return false;
            }
            let took = self.claim(src, src_dev, imm, payload, tally).unwrap_or_else(|e| {
                failed = Some(e);
                true
            });
            claimed |= took;
            took
        };
        let polled = self.inner.net.poll_cq_claiming(cqes, PROGRESS_BATCH, &mut claim);
        if let Some(e) = failed {
            return Err(e);
        }
        did |= claimed;
        match polled {
            Ok(n) => {
                did |= n > 0;
                tally.completions += n as u64;
                for cqe in cqes.drain(..) {
                    self.handle_cqe(cqe, tally)?;
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
        match self.inner.inject(target, target_dev, bytes, imm) {
            Ok(()) => Ok(()),
            Err(NetError::Retry(_)) => {
                let data = self.inner.buf_pool.stage_copy(bytes);
                self.push_backlog(Backlogged::Send { target, target_dev, data, imm, ctx: 0 });
                Ok(())
            }
            Err(NetError::Fatal(m)) => Err(FatalError::Net(m)),
        }
    }

    /// Retries postponed requests (paper Figure 1, step 3), oldest
    /// first and one post each, until the wire refuses one.
    fn drain_backlog(&self) -> Result<bool> {
        if self.inner.backlog.is_empty() {
            return Ok(false);
        }
        // A busy lock means another thread is draining this backlog:
        // skip, it has us covered.
        let Some(mut stalled) = self.inner.backlog_stalled.try_lock() else {
            return Ok(false);
        };
        let mut did = false;
        // Transfers that stalled this drain are held aside and re-parked
        // after the loop: unrelated entries queued behind them still get
        // attempted this round (the wire may accept sends to other
        // targets), and the drain cannot spin re-popping them.
        while let Some(item) = self.inner.backlog.pop() {
            match item {
                Backlogged::Send { target, target_dev, data, imm, ctx } => {
                    match self.inner.net.post_send(target, target_dev, &data, imm, ctx) {
                        Ok(()) => did = true,
                        Err(NetError::Retry(_)) => {
                            let item = Backlogged::Send { target, target_dev, data, imm, ctx };
                            self.inner.backlog.push_front(item);
                            break;
                        }
                        Err(NetError::Fatal(m)) => return Err(FatalError::Net(m)),
                    }
                }
                Backlogged::Rdv { send_id } => {
                    if self.pump_rdv(send_id)? {
                        stalled.push(send_id);
                    } else {
                        did = true;
                    }
                }
            }
        }
        for send_id in stalled.drain(..) {
            self.push_backlog(Backlogged::Rdv { send_id });
        }
        Ok(did)
    }

    /// Keeps the shared receive queue stocked (paper Figure 1, step 7).
    ///
    /// Low-watermark hysteresis: while the posted count sits above the
    /// watermark this is one relaxed atomic read and no lock traffic.
    /// Once it falls to the watermark, the refill is checked out of the
    /// packet pool as bare indices under one stripe lock and posted with
    /// one [`NetDevice::post_recv_batch`] call under a single SRQ/
    /// endpoint-lock acquisition; whatever the device did not take goes
    /// back to the pool under one lock.
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
        let ReplenishScratch { idxs, descs } = &mut *scratch;
        let pool = &self.inner.rt.pool;
        idxs.clear();
        descs.clear();
        pool.get_idxs(target - posted, idxs);
        if idxs.is_empty() {
            return Ok(());
        }
        // SAFETY: each index stays checked out of the pool until the
        // receive completion reclaims it, or it goes back below unposted.
        descs.extend(idxs.iter().map(|&i| unsafe {
            RecvBufDesc::new(pool.packet_ptr(i), pool.payload_size(), i as u64)
        }));
        let res = self.inner.net.post_recv_batch(descs);
        // The unposted tail — all of it when the lock was busy or the
        // device failed — goes back to the pool.
        pool.put_idxs(&idxs[*res.as_ref().unwrap_or(&0)..]);
        match res {
            Ok(n) => {
                self.inner.stats.bump(|c| &c.replenish_batches);
                self.inner.stats.add(|c| &c.replenish_posted, n as u64);
                Ok(())
            }
            // Lock busy: retry next progress.
            Err(NetError::Retry(_)) => Ok(()),
            Err(NetError::Fatal(m)) => Err(FatalError::Net(m)),
        }
    }

    /// Reacts to one completion (paper Figure 1, steps 4-8).
    fn handle_cqe(&self, cqe: Cqe, tally: &mut Tally) -> Result<()> {
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
                    OpCtx::Get(op) => self.get_done(op),
                }
            }
            CqeKind::RecvDone => self.handle_incoming(cqe, tally),
            CqeKind::WriteImmRecv => {
                // A pre-posted receive was consumed without data.
                self.inner.rt.pool.put_idxs(&[cqe.ctx as u32]);
                let hdr = Header::decode(cqe.imm)?;
                match hdr.ty {
                    MsgType::Fin => self.handle_fin(hdr.aux),
                    MsgType::PutSignal => {
                        let p = PendingInbound::RemoteSignal { src: cqe.src_rank, tag: hdr.tag };
                        self.deliver_rcomp(hdr.aux, p, tally)
                    }
                    other => Err(FatalError::Net(format!("unexpected write-imm type {other:?}"))),
                }
            }
        }
    }

    /// An incoming message in the receive slot `cqe.ctx` (paper Figure 1,
    /// steps 5-6), read where the wire wrote it. The slot becomes a
    /// `Packet` only if its bytes outlive the handling — a coalesced
    /// frame, an active message, a send that parks as unexpected — and
    /// goes straight back to the pool otherwise.
    fn handle_incoming(&self, cqe: Cqe, tally: &mut Tally) -> Result<()> {
        let pool = &self.inner.rt.pool;
        let idx = cqe.ctx as u32;
        // SAFETY: receive contexts are leaked packet indices; the wire
        // wrote `cqe.len` bytes into the slot, which stays checked out
        // until it is kept as a packet or put back below.
        let payload = unsafe { std::slice::from_raw_parts(pool.packet_ptr(idx), cqe.len) };
        let mut kept = false;
        let keep = || {
            kept = true;
            // SAFETY: as above, and a kept slot is not put back.
            Some(unsafe { pool.reclaim(idx, cqe.len) })
        };
        // The slot becomes a packet for free, so no active message is
        // copied out of it into its descriptor (copying 8 B out measured
        // 5.5 % slower on `am8_sim`, on a 2-core box).
        let (src, src_dev) = (cqe.src_rank, cqe.src_dev);
        let res = self.deliver_incoming(src, src_dev, cqe.imm, payload, 0, keep, tally);
        if !kept {
            pool.put_idxs(&[idx]);
        }
        res.map(drop)
    }

    /// Takes a two-sided frame straight from the wire, inside the poll
    /// that drains it (`NetDevice::poll_cq_claiming`), and delivers it as
    /// a landed one is delivered: an active message of at most
    /// [`SENDBUF_INLINE_CAP`] bytes is copied into its descriptor, any
    /// other payload that outlives the call into a packet of the
    /// runtime's pool. Returns whether it took the frame; one that finds
    /// no packet free is declined and lands in a posted receive as the
    /// wire's own delivery.
    fn claim(
        &self,
        src: Rank,
        src_dev: DevId,
        imm: u64,
        payload: &[u8],
        tally: &mut Tally,
    ) -> Result<bool> {
        let pool = &self.inner.rt.pool;
        let keep = || {
            if payload.len() > pool.payload_size() {
                return None;
            }
            let mut packet = pool.get()?;
            packet.fill(payload);
            Some(packet)
        };
        self.deliver_incoming(src, src_dev, imm, payload, SENDBUF_INLINE_CAP, keep, tally)
    }

    /// Routes an incoming two-sided message by its header, claimed or
    /// landed alike. An active message of at most `inline_cap` bytes
    /// rides in its completion descriptor, copied there once. `keep`
    /// makes a packet holding the payload, for any other that outlives
    /// this call; when it makes none (a claim with no packet free)
    /// nothing is delivered and the call returns `false`.
    #[allow(clippy::too_many_arguments)]
    fn deliver_incoming(
        &self,
        src: Rank,
        src_dev: DevId,
        imm: u64,
        payload: &[u8],
        inline_cap: usize,
        keep: impl FnOnce() -> Option<Packet>,
        tally: &mut Tally,
    ) -> Result<bool> {
        let hdr = Header::decode(imm)?;
        let len = payload.len();
        match hdr.ty {
            MsgType::Eager => {
                let park = || keep().map(|p| DataBuf::Packet(p, len));
                return self.match_eager(src, hdr, payload, park, tally);
            }
            MsgType::EagerAm => {
                // Its one copy, out of the wire, as a slot's was.
                let data = if len <= inline_cap {
                    DataBuf::SendBuf(SendBuf::from(payload))
                } else {
                    let Some(p) = keep() else { return Ok(false) };
                    DataBuf::Packet(p, len)
                };
                let p = PendingInbound::EagerAm { src, tag: hdr.tag, data };
                self.deliver_rcomp(hdr.aux, p, tally)?;
            }
            MsgType::RtsSr | MsgType::RtsAm => {
                let rts = rdv::Rts::decode(src, src_dev, hdr.tag, payload)?;
                self.handle_rts(hdr, rts, tally)?;
            }
            MsgType::Rtr => self.start_pumping(src, src_dev, RtrPayload::decode(payload)?)?,
            MsgType::GetSignal => {
                let p = PendingInbound::RemoteSignal { src, tag: hdr.tag };
                self.deliver_rcomp(hdr.aux, p, tally)?;
            }
            MsgType::Coalesced => {
                let Some(p) = keep() else { return Ok(false) };
                self.deliver_coalesced(src, hdr.aux, p, len, tally)?;
            }
            MsgType::Fin | MsgType::PutSignal => {
                return Err(FatalError::Net(format!("{:?} must arrive as write-immediate", hdr.ty)))
            }
        }
        Ok(true)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, Runtime, RuntimeConfig};
    use lci_fabric::{DeviceConfig, RegCacheStats, TransportStats};
    use std::sync::atomic::Ordering;

    /// An ofi device whose receive posts take, before the device's own
    /// endpoint lock, one the test holds: under the trylock wrapper a
    /// held endpoint lock refuses `post_recv_batch` with `LockBusy`, as
    /// here. (The device's own lock is private to the fabric crate.)
    /// While `refuse_writes` is set, every `post_write` is refused as a
    /// full receiver would refuse it.
    struct HeldEndpoint {
        net: Arc<dyn NetDevice>,
        endpoint: SpinLock<()>,
        refuse_writes: AtomicBool,
    }

    impl HeldEndpoint {
        fn over(rt: &Runtime) -> Arc<HeldEndpoint> {
            Arc::new(HeldEndpoint {
                net: rt.inner.netctx.create_device(rt.config().device),
                endpoint: SpinLock::new(()),
                refuse_writes: AtomicBool::new(false),
            })
        }
    }

    impl NetDevice for HeldEndpoint {
        fn post_recv_batch(&self, descs: &[RecvBufDesc]) -> NetResult<usize> {
            let _ep = self.endpoint.try_lock().ok_or(NetError::Retry(RetryReason::LockBusy))?;
            self.net.post_recv_batch(descs)
        }
        fn post_recv(&self, desc: RecvBufDesc) -> NetResult<()> {
            self.post_recv_batch(&[desc]).map(drop)
        }
        fn rank(&self) -> Rank {
            self.net.rank()
        }
        fn dev_id(&self) -> DevId {
            self.net.dev_id()
        }
        fn config(&self) -> &DeviceConfig {
            self.net.config()
        }
        fn post_inject(&self, target: Rank, dev: DevId, data: &[u8], imm: u64) -> NetResult<()> {
            self.net.post_inject(target, dev, data, imm)
        }
        fn post_send(&self, t: Rank, d: DevId, data: &[u8], imm: u64, ctx: u64) -> NetResult<()> {
            self.net.post_send(t, d, data, imm, ctx)
        }
        fn poll_cq(&self, out: &mut Vec<Cqe>, max: usize) -> NetResult<usize> {
            self.net.poll_cq(out, max)
        }
        #[allow(clippy::too_many_arguments)]
        fn post_write(
            &self,
            target: Rank,
            dev: DevId,
            data: &[u8],
            rkey: Rkey,
            offset: usize,
            imm: Option<u64>,
            ctx: u64,
        ) -> NetResult<()> {
            if self.refuse_writes.load(Ordering::Relaxed) {
                return Err(NetError::Retry(RetryReason::RxFull));
            }
            self.net.post_write(target, dev, data, rkey, offset, imm, ctx)
        }
        fn post_read(&self, t: Rank, local: RecvBufDesc, rkey: Rkey, off: usize) -> NetResult<()> {
            self.net.post_read(t, local, rkey, off)
        }
        fn register(&self, ptr: *const u8, len: usize) -> NetResult<MemoryRegion> {
            self.net.register(ptr, len)
        }
        fn deregister(&self, mr: &MemoryRegion) -> NetResult<()> {
            self.net.deregister(mr)
        }
        fn reg_cache_stats(&self) -> RegCacheStats {
            self.net.reg_cache_stats()
        }
        fn posted_recvs(&self) -> usize {
            self.net.posted_recvs()
        }
        fn doorbell(&self) -> Option<Arc<lci_fabric::Doorbell>> {
            self.net.doorbell()
        }
        fn inbound_pending(&self) -> usize {
            self.net.inbound_pending()
        }
        fn outbound_pending(&self) -> usize {
            self.net.outbound_pending()
        }
        fn transport_stats(&self) -> TransportStats {
            self.net.transport_stats()
        }
        fn teardown(&self) -> (Vec<Cqe>, Vec<RecvBufDesc>) {
            self.net.teardown()
        }
    }

    /// The refill checks packets out as bare indices and hands back what
    /// the device does not take: a refill refused by a held endpoint lock
    /// — the one `Device::create` makes, and a retry — leaves the pool's
    /// outstanding count where it was, and once the lock is free one
    /// progress call stocks the device, every packet out of the pool
    /// being a posted receive.
    #[test]
    fn a_refused_refill_hands_every_packet_back() {
        let rt = Runtime::new(Fabric::new(1), 0, RuntimeConfig::ofi()).unwrap();
        let pool = rt.packet_pool();
        let held = HeldEndpoint::over(&rt);
        let before = pool.outstanding();
        assert_eq!(before, rt.device().inner.net.posted_recvs());

        let lock = held.endpoint.lock();
        let dev = Device::create_on(rt.inner.clone(), held.clone()).unwrap();
        assert_eq!((dev.inner.net.posted_recvs(), pool.outstanding()), (0, before));
        dev.replenish_recvs().unwrap();
        assert_eq!((dev.inner.net.posted_recvs(), pool.outstanding()), (0, before));
        assert_eq!(dev.stats().replenish_batches, 0);

        drop(lock);
        dev.progress().unwrap();
        let posted = dev.inner.net.posted_recvs();
        assert_eq!(posted, rt.config().prepost);
        assert_eq!(pool.outstanding(), before + posted);
    }

    /// No send overtakes a parked one toward the same target: one thread
    /// drives both ranks, and the target keeps two receives posted. Two
    /// sends land in them; a third, `no_retry`, is refused and parks.
    /// The target restocks, so a fourth would find a receive — but the
    /// backlog holds the third, so the fourth is refused too, and the
    /// four receives on one tag complete in send order.
    #[test]
    fn a_send_never_overtakes_a_parked_one() {
        const TAG: Tag = 7;
        let cfg = RuntimeConfig { prepost: 2, ..RuntimeConfig::small() };
        let fabric = Fabric::new(2);
        let rt0 = Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap();
        let rt1 = Runtime::new(fabric, 1, cfg).unwrap();
        let (scq, rcq) = (Comp::alloc_cq(), Comp::alloc_cq());
        for i in 0..4 {
            let posted = rt1.post_recv_x(0, vec![0u8; 8], TAG, rcq.clone()).user_ctx(i).call();
            assert!(posted.unwrap().is_posted());
        }
        let send = |i: u8, retry: bool| {
            let post = rt0.post_send_x(1, vec![i; 8], TAG, scq.clone());
            if retry { post.call() } else { post.no_retry().call() }.unwrap()
        };
        assert!(matches!(send(0, true), PostResult::Done(_)));
        assert!(matches!(send(1, true), PostResult::Done(_)));
        assert!(send(2, false).is_posted(), "the third send finds no receive and parks");
        assert_eq!(rt0.device().backlog_len(), 1);
        rt1.progress().unwrap();
        assert_eq!(rt1.device().inner.net.posted_recvs(), 2, "the target restocked");
        let mut fourth_done = !send(3, true).is_retry();
        let accepted_behind_the_third = fourth_done;

        let mut got = Vec::new();
        for _ in 0..1000 {
            rt0.progress().unwrap();
            fourth_done = fourth_done || !send(3, true).is_retry();
            rt1.progress().unwrap();
            got.extend(std::iter::from_fn(|| rcq.pop()));
            if got.len() == 4 && fourth_done {
                break;
            }
        }
        let got: Vec<(u64, u8)> = got.iter().map(|d| (d.user_ctx, d.as_slice()[0])).collect();
        assert_eq!(got, [(0, 0), (1, 1), (2, 2), (3, 3)], "receives out of send order");
        assert!(!accepted_behind_the_third, "the fourth send was not refused");
    }

    /// A rendezvous whose chunk writes the wire refuses, with none in
    /// flight, parks — once: however often progress retries it, it is
    /// one backlog entry and one pending send. Once the wire takes
    /// writes again the same transfer resumes, lands byte-exact and
    /// leaves both tables empty.
    #[test]
    fn a_stalled_rendezvous_parks_once_and_resumes() {
        let rt = Runtime::new(Fabric::new(1), 0, RuntimeConfig::ofi()).unwrap();
        let held = HeldEndpoint::over(&rt);
        let dev = Device::create_on(rt.inner.clone(), held.clone()).unwrap();
        let payload: Vec<u8> = (0..3 * (64 << 10) + 1).map(|i| (i % 251) as u8).collect();
        let (send, recv) = (Comp::alloc_cq(), Comp::alloc_cq());
        held.refuse_writes.store(true, Ordering::Relaxed);
        let landing = vec![0u8; payload.len()];
        let posted = rt.post_recv_x(0, landing, 7, recv.clone()).device(&dev).call();
        assert!(posted.unwrap().is_posted());
        let posted = rt.post_send_x(0, payload.clone(), 7, send.clone()).device(&dev);
        assert!(posted.target_device(dev.dev_id()).call().unwrap().is_posted());
        for _ in 0..100 {
            dev.progress().unwrap();
        }
        assert_eq!(dev.backlog_len(), 1, "parked once");
        assert_eq!(dev.pending_rendezvous().0, 1);
        assert_eq!(dev.stats().rdv_chunks_posted, 0);

        held.refuse_writes.store(false, Ordering::Relaxed);
        let (mut sent, mut got) = (None, None);
        for _ in 0..1000 {
            dev.progress().unwrap();
            sent = sent.or_else(|| send.pop());
            got = got.or_else(|| recv.pop());
            if sent.is_some() && got.is_some() {
                break;
            }
        }
        assert_eq!(sent.expect("the send completed").kind, CompKind::Send);
        assert_eq!(got.expect("the receive completed").as_slice(), &payload[..]);
        assert_eq!(dev.pending_rendezvous(), (0, 0));
        assert_eq!((dev.backlog_len(), dev.stats().rdv_chunks_posted), (0, 4));
    }
}
