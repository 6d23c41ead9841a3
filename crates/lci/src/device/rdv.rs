//! The zero-copy rendezvous protocol (paper §4.3, Figure 1 steps 8 & 10;
//! DESIGN.md §4.6): RTS → RTR → pipelined chunk writes, FIN riding the
//! last chunk. "Zero-copy" is this layer's half: nothing is staged here,
//! each chunk is posted from the user's buffer toward the registered
//! landing buffer. What the `post_write` below it costs is the wire's:
//! one copy and no frame where the sender can address the target's
//! memory (the sims, in-process shm), a frame copied in and out across
//! processes and on tcp (DESIGN.md §4.9). Everything a transfer
//! remembers between those steps — the pending tables, the chunk
//! schedule, the recycled transfer shells — lives here; the rest of the
//! device sees an [`Rts`], an opaque [`RdvActive`] handle and
//! [`RdvState`].

use super::{net_fatal, CommArgs, Device, MatchEntry, OpCtx, PendingInbound, RecvEntry};
use crate::backlog::Backlogged;
use crate::coll::lend::Lent;
use crate::comp::Comp;
use crate::error::{FatalError, PostResult, Result};
use crate::matching::MatchKind;
use crate::proto::{Header, MsgType, RtrPayload, RtsPayload};
use crate::types::{CompDesc, CompKind, DataBuf, Landing, MatchingPolicy, Rank, SendBuf, Tag};
use crate::util::ShardedSlab;
use lci_fabric::sync::SpinLock;
use lci_fabric::{Cqe, DevId, MemoryRegion, NetError, PoolBuf, Rkey};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Completed [`RdvActive`] shells kept per device for reuse.
const RDV_REUSE_CAP: usize = 32;

/// A received ready-to-send: who wants to send what. Waits in the
/// matching engine (two-sided) or the early-inbound list (active message
/// whose rcomp is not registered yet) until a landing buffer exists.
pub(crate) struct Rts {
    src: Rank,
    src_dev: DevId,
    tag: Tag,
    send_id: u32,
    size: usize,
}

impl Rts {
    pub(super) fn decode(cqe: &Cqe, tag: Tag, payload: &[u8]) -> Result<Rts> {
        let p = RtsPayload::decode(payload)?;
        Ok(Rts {
            src: cqe.src_rank,
            src_dev: cqe.src_dev,
            tag,
            send_id: p.send_id,
            size: p.size as usize,
        })
    }
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

/// What one active transfer never changes after RTR: the destination and
/// the chunk schedule.
#[derive(Clone, Copy, Default)]
struct RdvPlan {
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
}

/// An active pipelined rendezvous send: RTR received, chunks being
/// written (DESIGN.md §4.6). All continuation state lives here — per
/// transfer, behind its own lock — so the chunk-completion hot path
/// acquires no table locks. The default is an idle shell, which
/// [`Device::start_rdv_active`] fills in.
#[derive(Default)]
pub(crate) struct RdvActive {
    plan: RdvPlan,
    /// Chunks posted but not yet completed.
    inflight: AtomicUsize,
    pump: SpinLock<RdvPump>,
}

/// Cursor and buffers of one transfer's chunk pump.
#[derive(Default)]
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

impl RdvPump {
    /// Points the pump at the start of a new payload, for a new or a
    /// recycled shell alike.
    fn reset(&mut self, buf: SendBuf, comp: Option<Comp>, max_inflight: usize) {
        let slots = if buf.as_contiguous().is_some() { 0 } else { max_inflight };
        // Surviving slots keep their pooled gather buffers; their size is
        // re-checked against the new chunk size on first use.
        self.scratch.resize_with(slots, ScratchSlot::default);
        debug_assert!(self.scratch.iter().all(|s| !s.busy));
        self.buf = Some(buf);
        self.comp = comp;
        self.next = 0;
        self.done = 0;
        self.seg = 0;
        self.seg_off = 0;
    }
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

/// Landing buffer of a rendezvous receive: the user's posted buffer or
/// memory a blocking collective lent (two-sided), or a pool-recycled
/// bounce buffer (unexpected AM rendezvous, where the runtime must
/// provide the storage itself).
enum RdvBuf {
    Owned(Box<[u8]>),
    Pooled(PoolBuf),
    Lent(Lent),
}

impl RdvBuf {
    /// Address and length of the landing, for registration. No
    /// reference is formed: on a wire that writes directly the sender's
    /// thread is about to.
    fn span(&self) -> (*const u8, usize) {
        match self {
            RdvBuf::Owned(b) => (b.as_ptr(), b.len()),
            RdvBuf::Pooled(b) => (b.as_ptr(), b.len()),
            RdvBuf::Lent(l) => (l.as_ptr(), l.len()),
        }
    }

    /// Converts into the completion-descriptor payload carrying the
    /// first `len` delivered bytes.
    fn into_databuf(self, len: usize) -> DataBuf {
        match self {
            RdvBuf::Owned(b) => DataBuf::Partial(b, len),
            RdvBuf::Pooled(b) => DataBuf::Pooled(b, len),
            RdvBuf::Lent(_) => DataBuf::Lent(len),
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

/// One device's rendezvous state.
pub(super) struct RdvState {
    sends: ShardedSlab<RdvSend>,
    recvs: ShardedSlab<RdvRecv>,
    /// Transfers past RTR (chunks in flight): no longer in `sends` but
    /// not yet complete. Keeps `pending_rendezvous` (and lcw quiescence)
    /// truthful.
    active: AtomicUsize,
    /// Completed transfer shells awaiting reuse (bounded by
    /// [`RDV_REUSE_CAP`]).
    reuse: SpinLock<Vec<Arc<RdvActive>>>,
}

impl RdvState {
    pub(super) fn new(shards: usize) -> Self {
        RdvState {
            sends: ShardedSlab::new(shards),
            recvs: ShardedSlab::new(shards),
            active: AtomicUsize::new(0),
            reuse: SpinLock::new(Vec::new()),
        }
    }
}

impl Device {
    /// Source side: allocate a send id, ship the RTS.
    pub(super) fn post_rendezvous(
        &self,
        args: CommArgs,
        buf: SendBuf,
        target_dev: DevId,
    ) -> Result<PostResult> {
        let rdv = &self.inner.rdv;
        let size = buf.len() as u64;
        self.inner.stats.bump(|c| &c.rendezvous);
        let send_id = rdv.sends.insert(RdvSend {
            buf,
            comp: args.comp,
            tag: args.tag,
            user_ctx: args.user_ctx,
        });
        let (ty, aux) = match args.remote_comp {
            Some(rc) => (MsgType::RtsAm, rc),
            None => (MsgType::RtsSr, 0),
        };
        let imm = Header::new(ty, args.policy, args.tag, aux).encode();
        let payload = RtsPayload { send_id, size }.encode();
        if !args.allow_retry {
            return match self.send_ctrl(args.rank, target_dev, &payload, imm) {
                Ok(()) => Ok(PostResult::Posted),
                Err(e) => {
                    rdv.sends.remove(send_id);
                    Err(e)
                }
            };
        }
        match self.inner.net.post_send(args.rank, target_dev, &payload, imm, 0) {
            Ok(()) => Ok(PostResult::Posted),
            Err(NetError::Retry(r)) => {
                // Back the rendezvous out entirely; the user resubmits.
                // The `rendezvous` bump above counts the attempt;
                // `rendezvous_retried` keeps the stats reconcilable
                // (started = rendezvous - retried).
                rdv.sends.remove(send_id);
                self.inner.stats.bump(|c| &c.rendezvous_retried);
                Ok(PostResult::Retry(r.into()))
            }
            Err(NetError::Fatal(m)) => {
                rdv.sends.remove(send_id);
                Err(FatalError::Net(m))
            }
        }
    }

    /// An RTS arrived: a two-sided one goes through the matching engine,
    /// an active-message one to its rcomp.
    pub(super) fn handle_rts(&self, hdr: Header, rts: Rts) -> Result<()> {
        if hdr.ty == MsgType::RtsAm {
            return self.deliver_rcomp(hdr.aux, PendingInbound::RtsAm(rts));
        }
        let engine = &self.inner.rt.matching;
        let key = engine.key_for(rts.src, rts.tag, hdr.policy);
        match engine.insert(key, MatchEntry::UnexpRts(rts), MatchKind::Send) {
            None => Ok(()),
            Some((MatchEntry::Recv(recv), MatchEntry::UnexpRts(rts))) => {
                Device::rtr_for_recv(rts, recv)
            }
            Some(_) => Err(FatalError::Net("RTS matched non-recv".into())),
        }
    }

    /// Answers an RTS into the posted receive it matched, on the device
    /// that receive was posted on.
    pub(super) fn rtr_for_recv(rts: Rts, recv: RecvEntry) -> Result<()> {
        let RecvEntry { buf, comp, user_ctx, device } = recv;
        let buf = match buf {
            Landing::Owned(b) => RdvBuf::Owned(b),
            Landing::Lent(l) => RdvBuf::Lent(l),
        };
        device.start_rtr(rts, buf, comp, user_ctx, false)
    }

    /// Answers an active-message RTS. The runtime provides the landing
    /// storage for an unexpected AM rendezvous: a pool-recycled bounce
    /// buffer.
    pub(super) fn rtr_for_am(&self, rts: Rts, comp: Comp) -> Result<()> {
        let buf = self.inner.buf_pool.take_len(rts.size);
        self.start_rtr(rts, RdvBuf::Pooled(buf), comp, 0, true)
    }

    /// Target side: register the buffer, record the pending receive, and
    /// answer RTR.
    fn start_rtr(
        &self,
        rts: Rts,
        buf: RdvBuf,
        comp: Comp,
        user_ctx: u64,
        is_am: bool,
    ) -> Result<()> {
        let Rts { src, src_dev, tag, send_id, size } = rts;
        let (landing, cap) = buf.span();
        if size > cap {
            return Err(FatalError::InvalidArg(format!(
                "receive buffer too small for rendezvous: {cap} < {size}"
            )));
        }
        let mr = self.inner.net.register(landing, size).map_err(net_fatal)?;
        let recv_id =
            self.inner.rdv.recvs.insert(RdvRecv { buf, mr, comp, user_ctx, src, tag, size, is_am });
        let payload = RtrPayload { send_id, recv_id, rkey: mr.rkey.0 }.encode();
        let imm = Header::new(MsgType::Rtr, MatchingPolicy::RankTag, tag, 0).encode();
        self.send_ctrl(src, src_dev, &payload, imm)
    }

    /// Source side: RTR arrived. Move the pending send out of the table
    /// (one table-lock acquisition for the whole transfer) into an
    /// [`RdvActive`] and start writing chunks.
    pub(super) fn start_rdv_active(
        &self,
        target: Rank,
        target_dev: DevId,
        rtr: RtrPayload,
    ) -> Result<()> {
        let rdv = &self.inner.rdv;
        // Increment before the table remove so `pending_rendezvous`
        // never transiently undercounts.
        rdv.active.fetch_add(1, Ordering::Relaxed);
        let Some(entry) = rdv.sends.remove(rtr.send_id) else {
            rdv.active.fetch_sub(1, Ordering::Relaxed);
            return Err(FatalError::Net(format!("RTR for unknown send id {}", rtr.send_id)));
        };
        let cfg = &self.inner.rt.config;
        let total = entry.buf.len();
        let chunk = cfg.rdv_chunk_size.min(total);
        let nchunks = total.div_ceil(chunk);
        let max_inflight = cfg.rdv_max_inflight.min(nchunks).max(1);
        // Reuse a finished transfer's shell (Arc + pump lock + scratch
        // ring) instead of allocating a new one.
        let mut active = rdv.reuse.lock().pop().unwrap_or_default();
        let a = Arc::get_mut(&mut active).expect("idle transfer shells have a unique reference");
        a.plan = RdvPlan {
            target,
            target_dev,
            rkey: Rkey(rtr.rkey),
            fin_imm: Header::new(MsgType::Fin, MatchingPolicy::RankTag, 0, rtr.recv_id).encode(),
            total,
            chunk,
            nchunks,
            max_inflight,
            tag: entry.tag,
            user_ctx: entry.user_ctx,
        };
        a.inflight.store(0, Ordering::Relaxed);
        a.pump.lock().reset(entry.buf, entry.comp, max_inflight);
        self.pump_or_park(active)
    }

    /// Pumps a transfer and parks it in the backlog if it stalled.
    fn pump_or_park(&self, active: Arc<RdvActive>) -> Result<()> {
        if self.pump_rdv(&active)? {
            self.push_backlog(Backlogged::Rdv { active });
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
    pub(super) fn pump_rdv(&self, active: &Arc<RdvActive>) -> Result<bool> {
        let plan = &active.plan;
        let mut st = active.pump.lock();
        while st.next < plan.total && active.inflight.load(Ordering::Relaxed) < plan.max_inflight {
            let off = st.next;
            let len = plan.chunk.min(plan.total - off);
            let last = off + len == plan.total;
            // FIN rides the last chunk; posting order is serialized by
            // the pump lock, so it reaches the wire after every earlier
            // chunk.
            let imm = last.then_some(plan.fin_imm);
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
                    if slot.buf.as_ref().is_some_and(|b| b.len() >= plan.chunk) {
                        self.inner.stats.bump(|c| &c.rdv_scratch_reuses);
                    } else {
                        slot.buf = Some(self.inner.buf_pool.take_len(plan.chunk));
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
                plan.target,
                plan.target_dev,
                data,
                plan.rkey,
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

    /// Source side: one chunk write completed. Launches the next
    /// chunk(s), or — after the last one — signals the send's completion
    /// and retires the transfer.
    pub(super) fn rdv_chunk_done(&self, active: Arc<RdvActive>, slot: Option<usize>) -> Result<()> {
        let finished = {
            let mut st = active.pump.lock();
            if let Some(idx) = slot {
                st.scratch[idx].busy = false;
            }
            // The window-slot release must happen inside the pump
            // critical section, after the scratch slot is freed: a
            // concurrent pump checks `inflight < max_inflight` under this
            // lock and relies on every freed window slot having already
            // released its scratch slot.
            active.inflight.fetch_sub(1, Ordering::Relaxed);
            st.done += 1;
            (st.done == active.plan.nchunks)
                .then(|| (st.buf.take().expect("buffer present"), st.comp.take()))
        };
        let Some((buf, comp)) = finished else {
            return self.pump_or_park(active);
        };
        if let Some(comp) = comp {
            comp.signal(CompDesc {
                rank: active.plan.target,
                tag: active.plan.tag,
                data: DataBuf::SendBuf(buf),
                user_ctx: active.plan.user_ctx,
                kind: CompKind::Send,
            });
        }
        self.inner.rdv.active.fetch_sub(1, Ordering::Relaxed);
        // Recycle the transfer shell (Arc + lock + scratch ring) — but
        // only when ours is the last reference: a stale backlog pump
        // clone may still point here, and reusing the shell under it
        // would corrupt an unrelated transfer.
        if Arc::strong_count(&active) == 1 {
            let mut reuse = self.inner.rdv.reuse.lock();
            if reuse.len() < RDV_REUSE_CAP {
                reuse.push(active);
            }
        }
        Ok(())
    }

    /// Target side of the rendezvous FIN: deliver the buffer.
    pub(super) fn handle_fin(&self, recv_id: u32) -> Result<()> {
        let entry = self
            .inner
            .rdv
            .recvs
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

    /// Pending rendezvous operations (diagnostics): sends awaiting RTR
    /// or mid-transfer, and receives awaiting FIN. Advisory: each table
    /// shard is sampled in turn, so the totals are a consistent
    /// per-shard snapshot, not an atomic cross-shard view — suitable for
    /// quiescence polling, not for exact accounting while transfers are
    /// being posted concurrently.
    pub fn pending_rendezvous(&self) -> (usize, usize) {
        let rdv = &self.inner.rdv;
        (rdv.sends.len() + rdv.active.load(Ordering::Relaxed), rdv.recvs.len())
    }
}
