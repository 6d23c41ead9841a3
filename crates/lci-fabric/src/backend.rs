//! The network backend layer (paper §4.2.1).
//!
//! LCI isolates network backends from its core runtime with a small
//! wrapper operating on two resources: a *network context* (global
//! resources, one per runtime) and *network devices* (critical-path
//! resources, any number per context). All critical-path operations —
//! posting sends/recvs/writes/reads, polling completions, registering
//! memory — go through a device. The backend is **not** required to do tag
//! matching or handle unexpected messages: the LCI progress engine keeps
//! enough receives pre-posted.

use crate::buf_pool::{BufPool, BufPoolConfig, BufPoolStats};
use crate::fabric::{Fabric, RxEndpoint, DEFAULT_RX_CAPACITY};
use crate::framed::FramedDevice;
use crate::mem::{MemoryRegion, Rkey};
use crate::reg_cache::{RegCacheConfig, RegCacheStats};
use crate::shm::device::ShmWire;
use crate::sim::SimWire;
use crate::sync::{Doorbell, LockDiscipline};
use crate::types::{Cqe, CqeKind, DevId, NetResult, Rank, RecvBufDesc, WireMsg, WireMsgKind};
use std::sync::Arc;

/// Which backend a device uses: a wire under the one device core
/// (DESIGN.md §4.9) plus the layout of its posting locks.
///
/// `Ibv` and `Ofi` are the two simulated providers. They share the
/// in-memory wire — a post pushes straight onto the target device's RX
/// endpoint — and differ only in lock placement, mirroring the paper's
/// libibverbs (§4.2.3) vs libfabric (§4.2.4) analysis. In the
/// benchmarks, `Ibv` plays the role of SDSC Expanse (InfiniBand) and
/// `Ofi` the role of NCSA Delta (Slingshot-11). `Shm` and `Tcp` are real
/// wires under the ibv layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Fine-grained locks: per-QP, per-CQ, per-SRQ spinlocks with
    /// configurable thread-domain strategies.
    Ibv,
    /// Coarse endpoint lock: one spinlock serializes send posts, receive
    /// posts and polls (it wraps the same CQ and SRQ the other backends
    /// use); registration goes through a mutex-protected cache.
    Ofi,
    /// Real shared-memory transport (DESIGN.md §4.9): frames travel
    /// through per-rank-pair SPSC rings in a memory segment other OS
    /// processes can map, with ibv-style lock granularity on the
    /// posting side.
    Shm,
    /// Real TCP transport (DESIGN.md §4.12): a full socket mesh with a
    /// per-peer stream buffer written out by whoever polls, who also
    /// asks epoll which sockets are ready, with ibv-style lock
    /// granularity on the posting side. Unix only.
    Tcp,
}

impl BackendKind {
    /// Largest payload one write (or send) on this backend can carry —
    /// what the upper stack must chunk a rendezvous transfer below. The
    /// largest pooled size class everywhere (a bigger staging buffer
    /// would not recycle, and it is the shm wire's frame limit with the
    /// default spill region); tcp fits the frame header into that class
    /// as well, so it carries one header less.
    pub const fn max_write(self) -> usize {
        match self {
            BackendKind::Tcp => crate::buf_pool::MAX_CLASS - crate::shm::ring::HEADER_LEN,
            _ => crate::buf_pool::MAX_CLASS,
        }
    }
}

#[cfg(unix)]
const _: () = assert!(BackendKind::Tcp.max_write() == crate::tcp::stream::MAX_FRAME_PAYLOAD);

/// How queue pairs share posting locks under the ibv lock layout — the
/// `ibv_td_strategy` device attribute of paper §4.2.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TdStrategy {
    /// One thread domain (lock) per queue pair: threads posting to
    /// different targets never interfere. The default.
    PerQp,
    /// A single thread domain for all queue pairs of the device;
    /// recommended when each thread owns a dedicated device.
    AllQp,
    /// No thread domains: the provider falls back to one *blocking* lock
    /// shared by all queue pairs (LCI cannot trylock-wrap a lock it does
    /// not control).
    None,
}

/// Device creation parameters.
#[derive(Clone, Copy, Debug)]
pub struct DeviceConfig {
    /// Provider selection.
    pub backend: BackendKind,
    /// Thread-domain strategy. An attribute of the ibv lock layout, which
    /// `ibv`, `shm` and `tcp` devices post under; an `ofi` device has one
    /// endpoint lock and ignores it.
    pub td_strategy: TdStrategy,
    /// Lock acquisition discipline for wrapped locks: LCI uses
    /// [`LockDiscipline::TryLock`] (the §4.2.2 trylock wrapper); stock
    /// library behaviour is [`LockDiscipline::Blocking`].
    pub discipline: LockDiscipline,
    /// RX ring capacity (inbound flow-control window).
    pub rx_capacity: usize,
    /// Memory-registration cache bounds (see [`crate::reg_cache`]).
    pub reg_cache: RegCacheConfig,
    /// Recycled staging-buffer pool (see [`crate::buf_pool`]). Feeds the
    /// backends' wire staging (`WirePayload::Heap`, tcp frames) and the
    /// LCI layer's remaining staging copies.
    pub buf_pool: BufPoolConfig,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            backend: BackendKind::Ibv,
            td_strategy: TdStrategy::PerQp,
            discipline: LockDiscipline::TryLock,
            rx_capacity: DEFAULT_RX_CAPACITY,
            reg_cache: RegCacheConfig::default(),
            buf_pool: BufPoolConfig::default(),
        }
    }
}

impl DeviceConfig {
    /// Config preset for the ibv-like backend (Expanse stand-in).
    pub fn ibv() -> Self {
        Self::default()
    }

    /// Config preset for the ofi-like backend (Delta stand-in).
    pub fn ofi() -> Self {
        Self { backend: BackendKind::Ofi, ..Self::default() }
    }

    /// Config preset for the shared-memory backend (same lock layout as
    /// `ibv`; the wire is a real cross-process segment).
    pub fn shm() -> Self {
        Self { backend: BackendKind::Shm, ..Self::default() }
    }

    /// Config preset for the tcp backend (same lock layout as `ibv`;
    /// the wire is a real socket mesh).
    pub fn tcp() -> Self {
        Self { backend: BackendKind::Tcp, ..Self::default() }
    }

    /// Sets the lock discipline.
    pub fn with_discipline(mut self, d: LockDiscipline) -> Self {
        self.discipline = d;
        self
    }

    /// Sets the thread-domain strategy.
    pub fn with_td_strategy(mut self, s: TdStrategy) -> Self {
        self.td_strategy = s;
        self
    }

    /// Sets the RX ring capacity.
    pub fn with_rx_capacity(mut self, c: usize) -> Self {
        self.rx_capacity = c;
        self
    }
}

/// Transport-level counters; a backend leaves those that are not about
/// its wire at zero (the in-memory wire of `ibv` and `ofi` has none of
/// its own). Snapshotted into the LCI stats overlay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// High-water mark of per-channel ring occupancy (frames) over every
    /// shm channel touching this device's rank. Monotone.
    pub shm_ring_hwm: u64,
    /// `writev` syscalls issued by the tcp backend that made progress.
    /// Monotone; zero on other backends.
    pub tcp_writev_calls: u64,
    /// Frames fully shipped by those `writev` calls. The ratio
    /// `tcp_writev_frames / tcp_writev_calls` is the average gather
    /// fill — the syscall-amortization factor.
    pub tcp_writev_frames: u64,
    /// Payload bytes of the writes and reads this device accepted that
    /// it copied straight to or from the target's registered memory (a
    /// target the poster can address: DESIGN.md §4.9). Monotone; counted
    /// once per accepted post, so a transfer's delta repeats exactly.
    pub rma_direct_bytes: u64,
    /// Payload bytes of the accepted writes and reads that crossed the
    /// wire in frames instead. Monotone.
    pub rma_framed_bytes: u64,
}

/// One send in a [`NetDevice::post_send_batch`] call.
#[derive(Clone, Copy, Debug)]
pub struct SendDesc<'a> {
    /// Payload bytes (staged by the backend, like `post_send`).
    pub data: &'a [u8],
    /// Immediate word delivered with the message.
    pub imm: u64,
    /// Opaque context echoed in the `SendDone` completion.
    pub ctx: u64,
}

/// A network device: the critical-path resource. Two threads operating on
/// different devices never interfere (paper §4.2.1); interference *within*
/// a device depends on the backend's lock granularity.
pub trait NetDevice: Send + Sync {
    /// The owning rank.
    fn rank(&self) -> Rank;
    /// This device's index on its rank.
    fn dev_id(&self) -> DevId;
    /// The configuration the device was created with.
    fn config(&self) -> &DeviceConfig;

    /// Posts a two-sided send toward `(target, target_dev)` that is
    /// finished when the call returns — libfabric's `fi_inject`, an
    /// unsignaled inline verbs send. The wire has consumed `data` before
    /// `Ok(())`: the caller may reuse or free the buffer at once, on every
    /// backend. Nothing is staged on the completion ring, so no
    /// `SendDone` follows and a full staging ring refuses nothing
    /// (`Retry(QueueFull)` cannot happen); the wire's own bound still
    /// does (`Retry(RxFull)`, nothing sent), as do a busy posting lock
    /// (`Retry(LockBusy)`) and a peer that is not there yet
    /// (`Retry(PeerNotReady)`); a peer that is gone is fatal. It takes
    /// the QP lock and the sender [`post_send`](Self::post_send) takes,
    /// so injects and sends toward one target leave in post order.
    ///
    /// This is what `lci` posts every eager message and every control
    /// message with: the operation is `Done` at the post.
    fn post_inject(&self, target: Rank, target_dev: DevId, data: &[u8], imm: u64) -> NetResult<()>;

    /// [`post_inject`](Self::post_inject) plus a completion: exactly one
    /// `SendDone` carrying `ctx` is staged per accepted call (`ctx == 0`
    /// included), which needs room on the completion staging ring
    /// (`Retry(QueueFull)` until the poster polls). The payload is
    /// consumed inside the call here too, but a caller written against a
    /// signaled send keeps the buffer until it has polled the `SendDone`.
    /// `lci` uses it only for a parked `no_retry` send leaving the
    /// backlog, whose user completion rides the `SendDone`.
    fn post_send(
        &self,
        target: Rank,
        target_dev: DevId,
        data: &[u8],
        imm: u64,
        ctx: u64,
    ) -> NetResult<()>;

    /// Posts up to `msgs.len()` two-sided sends toward `(target,
    /// target_dev)` under **one** posting-lock acquisition, amortizing
    /// the per-message lock round-trip that dominates small-message
    /// overhead on coarse-lock providers (paper §4.2.4).
    ///
    /// Returns the number of messages actually posted, in order:
    /// partial progress, not all-or-nothing. If the target ring fills
    /// (or the peer is not ready) after `n > 0` messages, `Ok(n)` is
    /// returned and the caller retries the tail later. An error is
    /// returned only when *nothing* was posted.
    fn post_send_batch(
        &self,
        target: Rank,
        target_dev: DevId,
        msgs: &[SendDesc<'_>],
    ) -> NetResult<usize>;

    /// Pre-posts a receive buffer to the shared receive queue.
    fn post_recv(&self, desc: RecvBufDesc) -> NetResult<()>;

    /// Pre-posts up to `descs.len()` receive buffers under **one**
    /// SRQ/endpoint-lock acquisition — the receive-side mirror of
    /// [`NetDevice::post_send_batch`], used by the LCI progress engine
    /// to restock the shared receive queue in bulk.
    ///
    /// Returns the number of buffers actually posted, in order: partial
    /// progress, not all-or-nothing. An error is returned only when
    /// *nothing* was posted; the caller keeps ownership of the unposted
    /// tail.
    fn post_recv_batch(&self, descs: &[RecvBufDesc]) -> NetResult<usize>;

    /// Polls for up to `max` completions, appending them to `out`.
    /// Returns the number of completions delivered. Under the trylock
    /// discipline a busy lower-level lock surfaces as
    /// `Err(Retry(LockBusy))`.
    fn poll_cq(&self, out: &mut Vec<Cqe>, max: usize) -> NetResult<usize>;

    /// RDMA-writes `data` into the remote registered region `rkey` at
    /// `offset`. With `imm`, additionally consumes a pre-posted receive at
    /// `(target, target_dev)` to deliver a `WriteImmRecv` completion.
    #[allow(clippy::too_many_arguments)]
    fn post_write(
        &self,
        target: Rank,
        target_dev: DevId,
        data: &[u8],
        rkey: Rkey,
        offset: usize,
        imm: Option<u64>,
        ctx: u64,
    ) -> NetResult<()>;

    /// RDMA-reads from the remote registered region `rkey` at `offset`
    /// into `local` (length = `local.len`). Completes with a `ReadDone`
    /// carrying `local.ctx`.
    fn post_read(
        &self,
        target: Rank,
        local: RecvBufDesc,
        rkey: Rkey,
        offset: usize,
    ) -> NetResult<()>;

    /// Registers local memory for remote access. Goes through the
    /// device's registration cache (see [`crate::reg_cache`]), so repeat
    /// registrations of the same buffer are hits.
    fn register(&self, ptr: *const u8, len: usize) -> NetResult<MemoryRegion>;

    /// Deregisters a region: a cached *release*, the registration stays
    /// alive for reuse until evicted.
    fn deregister(&self, mr: &MemoryRegion) -> NetResult<()>;

    /// Registration-cache counters for this device.
    fn reg_cache_stats(&self) -> RegCacheStats;

    /// The device's recycled staging-buffer pool. The LCI layer stages
    /// its own per-operation copies (iovec gathers, parked sends,
    /// coalesced frames, rendezvous scratch, bounce buffers) through it
    /// so the whole data path shares one recycling domain.
    fn buf_pool(&self) -> BufPool;

    /// Buffer-pool counters.
    fn buf_pool_stats(&self) -> BufPoolStats;

    /// Number of currently pre-posted receives (used by the LCI progress
    /// engine to decide when to replenish).
    fn posted_recvs(&self) -> usize;

    /// The device's doorbell. Every backend has one and none rings it:
    /// progress is whoever polls, so nothing waits on it either. What
    /// is left of the fabric bell plane (ROADMAP item 5(a)).
    fn doorbell(&self) -> Option<Arc<Doorbell>>;

    /// Number of inbound wire messages waiting in the device's RX ring
    /// or on its wire (racy snapshot). A message can sit there without
    /// a matching pre-posted receive (RNR); only further polls move it.
    fn inbound_pending(&self) -> usize;

    /// Outbound work accepted by a post call but not yet on the wire
    /// (deferred-flush transports: the tcp stream buffers). Quiescence
    /// checks poll this — a send that completed locally may still need
    /// progress calls before the peer can observe it. Zero for
    /// transports that ship at post time.
    fn outbound_pending(&self) -> usize;

    /// Transport-level counters (ring occupancy HWM, tcp gather fill,
    /// one-sided bytes by the way they went).
    fn transport_stats(&self) -> TransportStats;

    /// Tears the device down: closes its RX endpoint (subsequent sends
    /// to it fail fatally), and hands back every undelivered completion
    /// and every still-posted receive buffer so the owner can reclaim
    /// the contexts (buffers, packets) they reference.
    fn teardown(&self) -> (Vec<Cqe>, Vec<RecvBufDesc>);
}

/// Per-rank handle onto the fabric; creates devices.
#[derive(Clone)]
pub struct NetContext {
    fabric: Arc<Fabric>,
    rank: Rank,
}

impl NetContext {
    /// Opens the context for `rank` on `fabric`.
    pub fn new(fabric: Arc<Fabric>, rank: Rank) -> Self {
        assert!(rank < fabric.nranks(), "rank {rank} out of range");
        Self { fabric, rank }
    }

    /// This context's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Total ranks on the fabric.
    pub fn nranks(&self) -> usize {
        self.fabric.nranks()
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Creates a device with the given configuration.
    pub fn create_device(&self, cfg: DeviceConfig) -> Arc<dyn NetDevice> {
        let bell = Arc::new(Doorbell::new());
        let rx = Arc::new(RxEndpoint::new(cfg.rx_capacity));
        let dev_id = self.fabric.add_device(self.rank, rx.clone());
        let fabric = self.fabric.clone();
        // One device core; the backend picks the wire under it here and
        // the lock layout in `QpLocks::new`.
        match cfg.backend {
            BackendKind::Ibv | BackendKind::Ofi => {
                Arc::new(FramedDevice::<SimWire>::new(fabric, self.rank, dev_id, rx, bell, cfg))
            }
            BackendKind::Shm => {
                Arc::new(FramedDevice::<ShmWire>::new(fabric, self.rank, dev_id, rx, bell, cfg))
            }
            #[cfg(unix)]
            BackendKind::Tcp => Arc::new(FramedDevice::<crate::tcp::device::TcpWire>::new(
                fabric, self.rank, dev_id, rx, bell, cfg,
            )),
            #[cfg(not(unix))]
            BackendKind::Tcp => panic!("the tcp backend requires a unix platform"),
        }
    }
}

/// Copies payload bytes into a pre-posted receive buffer and builds the
/// `RecvDone` CQE (stands in for NIC DMA + CQE write). A wire drain calls
/// it on bytes still in a ring slot; everything else reaches it through
/// [`deliver_into`].
pub(crate) fn deliver_bytes(
    data: &[u8],
    desc: &RecvBufDesc,
    src_rank: Rank,
    src_dev: DevId,
    imm: u64,
) -> NetResult<Cqe> {
    if data.len() > desc.len {
        return Err(crate::types::NetError::fatal(format!(
            "receive buffer too small: {} < {}",
            desc.len,
            data.len()
        )));
    }
    // SAFETY: the RecvBufDesc contract guarantees the region is valid
    // for writes and unaliased while posted.
    unsafe {
        std::ptr::copy_nonoverlapping(data.as_ptr(), desc.ptr, data.len());
    }
    Ok(Cqe { kind: CqeKind::RecvDone, ctx: desc.ctx, imm, len: data.len(), src_rank, src_dev })
}

/// Delivers a wire message into a pre-posted receive buffer and builds
/// the corresponding CQE.
pub(crate) fn deliver_into(msg: &WireMsg, desc: &RecvBufDesc) -> NetResult<Cqe> {
    match msg.kind {
        WireMsgKind::Send => {
            deliver_bytes(msg.payload.as_slice(), desc, msg.src_rank, msg.src_dev, msg.imm)
        }
        WireMsgKind::WriteImm => Ok(Cqe {
            kind: CqeKind::WriteImmRecv,
            ctx: desc.ctx,
            imm: msg.imm,
            len: 0,
            src_rank: msg.src_rank,
            src_dev: msg.src_dev,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::WirePayload;

    #[test]
    fn deliver_into_copies_payload() {
        let mut buf = vec![0u8; 32];
        // SAFETY: buf outlives the descriptor use.
        let desc = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), 7) };
        let msg = WireMsg {
            src_rank: 3,
            src_dev: 1,
            imm: 99,
            kind: WireMsgKind::Send,
            payload: WirePayload::from_slice(&[1, 2, 3, 4]),
        };
        let cqe = deliver_into(&msg, &desc).unwrap();
        assert_eq!(cqe.kind, CqeKind::RecvDone);
        assert_eq!(cqe.ctx, 7);
        assert_eq!(cqe.imm, 99);
        assert_eq!(cqe.len, 4);
        assert_eq!(cqe.src_rank, 3);
        assert_eq!(&buf[..4], &[1, 2, 3, 4]);
    }

    #[test]
    fn deliver_into_rejects_overflow() {
        let mut buf = vec![0u8; 2];
        let desc = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), 0) };
        let msg = WireMsg {
            src_rank: 0,
            src_dev: 0,
            imm: 0,
            kind: WireMsgKind::Send,
            payload: WirePayload::from_slice(&[1, 2, 3]),
        };
        assert!(deliver_into(&msg, &desc).is_err());
    }

    #[test]
    fn deliver_write_imm_no_copy() {
        let mut buf = vec![9u8; 4];
        let desc = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), 5) };
        let msg = WireMsg {
            src_rank: 1,
            src_dev: 0,
            imm: 0xDEAD,
            kind: WireMsgKind::WriteImm,
            payload: WirePayload::None,
        };
        let cqe = deliver_into(&msg, &desc).unwrap();
        assert_eq!(cqe.kind, CqeKind::WriteImmRecv);
        assert_eq!(cqe.imm, 0xDEAD);
        assert_eq!(cqe.len, 0);
        assert_eq!(buf, vec![9u8; 4]); // untouched
    }
}
