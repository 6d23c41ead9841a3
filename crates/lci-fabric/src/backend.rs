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

use crate::buf_pool::BufPoolConfig;
use crate::fabric::Fabric;
use crate::framed::FramedDevice;
use crate::mem::{MemoryRegion, Rkey};
use crate::reg_cache::RegCacheStats;
use crate::shm::device::ShmWire;
use crate::sim::SimWire;
use crate::sync::{Doorbell, LockDiscipline};
use crate::types::{Cqe, CqeKind, DevId, NetResult, Rank, RecvBufDesc, WireMsgKind};
use std::sync::Arc;

/// Which backend a device uses: a wire under the one device core
/// (DESIGN.md §4.9) plus the layout of its posting locks.
///
/// `Ibv` and `Ofi` are the two simulated providers. They share the
/// in-memory wire — a post delivers straight into the target device's
/// posted receive — and differ only in lock placement, mirroring the paper's
/// libibverbs (§4.2.3) vs libfabric (§4.2.4) analysis. In the
/// benchmarks, `Ibv` plays the role of SDSC Expanse (InfiniBand) and
/// `Ofi` the role of NCSA Delta (Slingshot-11). `Shm` and `Tcp` are real
/// wires under the ibv layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Fine-grained locks: per-QP, per-CQ, per-SRQ spinlocks (one
    /// thread domain per queue pair).
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

/// Device creation parameters.
#[derive(Clone, Copy, Debug)]
pub struct DeviceConfig {
    /// Provider selection.
    pub backend: BackendKind,
    /// Lock acquisition discipline for wrapped locks: LCI uses
    /// [`LockDiscipline::TryLock`] (the §4.2.2 trylock wrapper); stock
    /// library behaviour is [`LockDiscipline::Blocking`].
    pub discipline: LockDiscipline,
    /// Recycled staging-buffer pool (see [`crate::buf_pool`]), which the
    /// LCI layer builds per device for its staging copies; no wire
    /// takes from it.
    pub buf_pool: BufPoolConfig,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            backend: BackendKind::Ibv,
            discipline: LockDiscipline::TryLock,
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

/// What [`NetDevice::poll_cq_claiming`] offers an inbound send to:
/// `(source rank, source device, imm, payload)`, answering whether it
/// took the frame.
pub type Claim<'a> = dyn FnMut(Rank, DevId, u64, &[u8]) -> bool + 'a;

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
    /// backend. Nothing is staged on the poster's completion ring, so no
    /// `SendDone` follows and a full ring there refuses nothing. What
    /// refuses, with nothing sent: a full wire, or — on the in-memory
    /// wire, which lands the frame at the post — a target with no
    /// receive posted (`Retry(RxFull)`) or a full staging ring
    /// (`Retry(QueueFull)`); a busy posting lock (`Retry(LockBusy)`);
    /// a peer that is not there yet (`Retry(PeerNotReady)`). A peer
    /// that is gone is fatal. It takes
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

    /// Pre-posts a receive buffer to the shared receive queue.
    fn post_recv(&self, desc: RecvBufDesc) -> NetResult<()>;

    /// Pre-posts up to `descs.len()` receive buffers under **one**
    /// SRQ/endpoint-lock acquisition (paper §4.2.4), used by the LCI
    /// progress engine to restock the shared receive queue in bulk.
    ///
    /// Returns the number of buffers actually posted, in order: partial
    /// progress, not all-or-nothing. An error is returned only when
    /// *nothing* was posted; the caller keeps ownership of the unposted
    /// tail.
    fn post_recv_batch(&self, descs: &[RecvBufDesc]) -> NetResult<usize>;

    /// Polls for up to `max` completions, appending them to `out`.
    /// Returns the number of completions delivered. Under the trylock
    /// discipline a busy lower-level lock surfaces as
    /// `Err(Retry(LockBusy))`. On a wire that buffers (shm, tcp) the
    /// poll first drains it: a frame is applied where the wire holds it,
    /// a send or a write's immediate landing in a posted receive with
    /// its completion staged (DESIGN.md §4.9).
    fn poll_cq(&self, out: &mut Vec<Cqe>, max: usize) -> NetResult<usize>;

    /// [`poll_cq`](Self::poll_cq) whose drain first offers `claim` each
    /// inbound send addressed to this device, as `(source rank, source
    /// device, imm, payload)`, the payload lent from the wire's own
    /// storage (a ring slot, a spill range, a reassembly slab) for the
    /// call only. A frame `claim` takes (`true`) is released from the
    /// wire as delivered: it consumes no posted receive and stages no
    /// completion. One it declines lands as under `poll_cq`.
    ///
    /// A frame is offered only while nothing staged on this device can
    /// be older than it from its source: a source's frames reach the
    /// caller in the order it sent them, claimed or polled, as long as
    /// one thread polls the device. `claim` runs inside the drain, with
    /// that source's drain lock held. What it calls may post, to that
    /// source too (an answer to a control message, a handler's reply),
    /// and may poll again, which skips that source; it must not wait for
    /// another poll of this rank. A caller that takes every kind it is
    /// offered (`lci` does, until its packet pool runs dry) leaves to the
    /// posted receives only what it declines, writes' immediates and, on
    /// a wire without a self channel, a rank's frames to itself. Wires
    /// that land at the post (the in-memory sims) offer nothing; the
    /// default offers nothing either.
    fn poll_cq_claiming(
        &self,
        out: &mut Vec<Cqe>,
        max: usize,
        _claim: &mut Claim<'_>,
    ) -> NetResult<usize> {
        self.poll_cq(out, max)
    }

    /// RDMA-writes `data` into the remote registered region `rkey` at
    /// `offset`. With `imm`, additionally consumes a pre-posted receive at
    /// `(target, target_dev)` to deliver a `WriteImmRecv` completion. As
    /// with [`post_inject`](Self::post_inject), the wire has consumed
    /// `data` before `Ok(())`: the caller may reuse or free the buffer at
    /// once, on every backend. One `WriteDone` carrying `ctx` is still
    /// staged per accepted call (`ctx == 0` included).
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

    /// Where the `len` bytes at `offset` of `target`'s registration
    /// `rkey` are in this address space, if a write this device posted
    /// there would copy them itself instead of framing them: `Some` on
    /// the in-memory wire and toward a rank of this process on shm,
    /// `None` on tcp and toward another process. The answer is a
    /// property of the pair, the same both ways, so a rank may ask it
    /// about its own registration to learn what a peer's posts toward
    /// it will do. Checks the access like a post would: a bad rkey or
    /// range toward an addressable rank is fatal, a gone peer too.
    ///
    /// A caller that writes through the address instead of posting owns
    /// the write's ordering: the bytes must be in place before whatever
    /// tells the target they are (a write's immediate, posted after).
    fn local_addr(
        &self,
        _target: Rank,
        _rkey: Rkey,
        _offset: usize,
        _len: usize,
    ) -> NetResult<Option<*mut u8>> {
        Ok(None)
    }

    /// Registers local memory for remote access. Goes through the
    /// device's registration cache (see [`crate::reg_cache`]), so repeat
    /// registrations of the same buffer are hits.
    fn register(&self, ptr: *const u8, len: usize) -> NetResult<MemoryRegion>;

    /// Deregisters a region: a cached *release*, the registration stays
    /// alive for reuse until evicted.
    fn deregister(&self, mr: &MemoryRegion) -> NetResult<()>;

    /// Registration-cache counters for this device.
    fn reg_cache_stats(&self) -> RegCacheStats;

    /// Number of currently pre-posted receives (used by the LCI progress
    /// engine to decide when to replenish).
    fn posted_recvs(&self) -> usize;

    /// The device's doorbell. Every backend has one and none rings it:
    /// progress is whoever polls, so nothing waits on it either. What
    /// is left of the fabric bell plane (ROADMAP item 5(a)).
    fn doorbell(&self) -> Option<Arc<Doorbell>>;

    /// Number of inbound frames waiting on the device's wire (racy
    /// snapshot; always zero on the in-memory wire, which refuses a
    /// frame it cannot land). A frame can wait there for a pre-posted
    /// receive (RNR); only further polls move it.
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

    /// Tears the device down: closes it (subsequent sends to it fail
    /// fatally), and hands back every undelivered completion
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
        let shared = self.fabric.add_device(self.rank, &cfg);
        let (fabric, rank) = (self.fabric.clone(), self.rank);
        // One device core; the backend picks the wire under it here and
        // the lock layout in `QpLocks::new`.
        match cfg.backend {
            BackendKind::Ibv | BackendKind::Ofi => {
                Arc::new(FramedDevice::<SimWire>::new(fabric, rank, shared, cfg))
            }
            BackendKind::Shm => Arc::new(FramedDevice::<ShmWire>::new(fabric, rank, shared, cfg)),
            #[cfg(unix)]
            BackendKind::Tcp => Arc::new(FramedDevice::<crate::tcp::device::TcpWire>::new(
                fabric, rank, shared, cfg,
            )),
            #[cfg(not(unix))]
            BackendKind::Tcp => panic!("the tcp backend requires a unix platform"),
        }
    }
}

/// Delivers a frame of `kind` into a pre-posted receive buffer and builds
/// its CQE (stands in for NIC DMA + CQE write): a send's bytes are copied
/// in for a `RecvDone`, a write's immediate consumes the buffer untouched
/// for a `WriteImmRecv`. [`DevShared::land`](crate::dev_shared::DevShared::land)
/// calls it on bytes still where the wire put them.
pub(crate) fn deliver_bytes(
    kind: WireMsgKind,
    data: &[u8],
    desc: &RecvBufDesc,
    src_rank: Rank,
    src_dev: DevId,
    imm: u64,
) -> NetResult<Cqe> {
    if kind == WireMsgKind::WriteImm {
        let cqe =
            Cqe { kind: CqeKind::WriteImmRecv, ctx: desc.ctx, imm, len: 0, src_rank, src_dev };
        return Ok(cqe);
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deliver_bytes_copies_payload() {
        let mut buf = vec![0u8; 32];
        // SAFETY: buf outlives the descriptor use.
        let desc = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), 7) };
        let cqe = deliver_bytes(WireMsgKind::Send, &[1, 2, 3, 4], &desc, 3, 1, 99).unwrap();
        assert_eq!(cqe.kind, CqeKind::RecvDone);
        assert_eq!(cqe.ctx, 7);
        assert_eq!(cqe.imm, 99);
        assert_eq!(cqe.len, 4);
        assert_eq!((cqe.src_rank, cqe.src_dev), (3, 1));
        assert_eq!(&buf[..4], &[1, 2, 3, 4]);
    }

    #[test]
    fn deliver_bytes_rejects_overflow() {
        let mut buf = vec![0u8; 2];
        let desc = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), 0) };
        assert!(deliver_bytes(WireMsgKind::Send, &[1, 2, 3], &desc, 0, 0, 0).is_err());
    }

    #[test]
    fn deliver_write_imm_no_copy() {
        let mut buf = vec![9u8; 4];
        let desc = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), 5) };
        let cqe = deliver_bytes(WireMsgKind::WriteImm, &[], &desc, 1, 0, 0xDEAD).unwrap();
        assert_eq!(cqe.kind, CqeKind::WriteImmRecv);
        assert_eq!(cqe.imm, 0xDEAD);
        assert_eq!(cqe.len, 0);
        assert_eq!(buf, vec![9u8; 4]); // untouched
    }
}
