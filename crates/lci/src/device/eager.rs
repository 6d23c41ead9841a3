//! The eager protocols (paper §4.3): eager sends — inject and buffer-copy
//! are one here, done at the post — and coalesced sends on the source
//! side; on the target side the receive post, the matching-engine
//! delivery of eager payloads and the delivery of anything addressed to
//! a remote completion handle, including the parking of arrivals that
//! beat their handle's registration.

use super::rdv::Rts;
use super::{CommArgs, Device, DeviceInner, MatchEntry, OpCtx, RecvEntry};
use crate::backlog::Backlogged;
use crate::coalesce::Frame;
use crate::comp::Comp;
use crate::error::{FatalError, PostResult, Result};
use crate::matching::MatchKind;
use crate::packet_pool::Packet;
use crate::proto::{coalesce_unpack_ranges, Header, MsgType};
use crate::types::{CompDesc, CompKind, DataBuf, Landing, MatchingPolicy, Rank, SendBuf, Tag};
use lci_fabric::{NetError, PoolBuf};
use std::ops::Range;
use std::sync::atomic::Ordering;

/// A delivery addressed to a remote completion handle. Parked (see
/// [`DeviceInner::pending_inbound`]) while the handle is not registered.
pub(super) enum PendingInbound {
    /// An eager active message.
    EagerAm { src: Rank, tag: Tag, data: DataBuf },
    /// An AM-rendezvous RTS (the RTR is sent once the rcomp exists).
    RtsAm(Rts),
    /// A remote completion signal.
    RemoteSignal { src: Rank, tag: Tag },
}

impl DeviceInner {
    /// Gathers bytes `range` of a multi-segment iovec — the one send
    /// buffer that is not contiguous already (the fabric posts contiguous
    /// bytes) — into a recycled buffer; every other buffer posts from
    /// where it is.
    pub(super) fn stage_payload(&self, buf: &SendBuf, range: Range<usize>) -> PoolBuf {
        let SendBuf::Iovec(segs) = buf else { unreachable!("non-contiguous SendBuf is Iovec") };
        let mut out = self.buf_pool.take_empty(range.len());
        let mut skip = range.start;
        for seg in segs.iter() {
            let from = skip.min(seg.len());
            skip -= from;
            let take = (seg.len() - from).min(range.len() - out.len());
            out.vec_mut().extend_from_slice(&seg[from..from + take]);
        }
        out
    }

    /// Runs `f` on bytes `range` of the payload as one slice, gathering
    /// an iovec's first. Every caller is done with the bytes when `f`
    /// returns (the wire or the coalescing buffer has copied them), so
    /// contiguous buffers skip the staging copy and a gathered one goes
    /// back to the pool.
    #[inline(always)]
    pub(super) fn with_bytes<R>(
        &self,
        buf: &SendBuf,
        range: Range<usize>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        match buf.as_contiguous() {
            Some(data) => f(&data[range]),
            None => f(&self.stage_payload(buf, range)),
        }
    }
}

impl Device {
    /// Send / active message (eager or rendezvous by size).
    pub(super) fn post_send_impl(&self, mut args: CommArgs) -> Result<PostResult> {
        let cfg = &self.inner.rt.config;
        let buf = args
            .send_buf
            .take()
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
            return self.post_rendezvous(args, buf, target_dev);
        }

        let (ty, aux, kind) = match args.remote_comp {
            Some(rc) => (MsgType::EagerAm, rc, CompKind::Am),
            None => (MsgType::Eager, 0, CompKind::Send),
        };
        let imm = Header::new(ty, args.policy, args.tag, aux).encode();
        // An eager send finishes at return: the operation is done, the
        // buffer rides the descriptor and the completion object is *not*
        // signaled (paper §3.2.5 "done").
        let done = |buf| {
            Ok(PostResult::Done(CompDesc {
                rank: args.rank,
                tag: args.tag,
                data: DataBuf::SendBuf(buf),
                user_ctx: args.user_ctx,
                kind,
            }))
        };

        if coalescable {
            // Coalescing path: absorb the message into the destination's
            // aggregation buffer.
            self.inner.with_bytes(&buf, 0..size, |data| {
                coal.append_with(args.rank, target_dev, imm, data, |frame| self.post_frame(frame))
            })?;
            self.inner.stats.bump(|c| &c.coalesced_msgs);
            return done(buf);
        }

        // Inject and buffer-copy are one protocol here: every wire reads
        // an eager source for the last time inside the post (DESIGN.md
        // §4.11 "Lending"), so nothing is left to wait for.
        let res = self.inner.with_bytes(&buf, 0..size, |data| {
            self.inner.net.post_inject(args.rank, target_dev, data, imm)
        });
        match res {
            Ok(()) => done(buf),
            Err(NetError::Retry(r)) if args.allow_retry => Ok(PostResult::Retry(r.into())),
            Err(NetError::Retry(_)) => {
                // Retry disallowed: park a staged copy of the payload in
                // the backlog (the one eager send that is `Posted`); the
                // context, with the original buffer and completion,
                // travels with it and is signaled by the `SendDone` of
                // the drain's post (paper §4.4).
                let data = match buf.as_contiguous() {
                    Some(bytes) => self.inner.buf_pool.stage_copy(bytes),
                    None => self.inner.stage_payload(&buf, 0..size),
                };
                let ctx = self.inner.ctx_encode(OpCtx::Send {
                    comp: args.comp,
                    buf,
                    rank: args.rank,
                    tag: args.tag,
                    user_ctx: args.user_ctx,
                    kind,
                });
                self.push_backlog(Backlogged::Send {
                    target: args.rank,
                    target_dev,
                    data,
                    imm,
                    ctx,
                });
                Ok(PostResult::Posted)
            }
            Err(NetError::Fatal(m)) => Err(FatalError::Net(m)),
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
        if self.inner.backlog.is_empty() {
            match self.inner.net.post_inject(target, target_dev, &data, imm) {
                Ok(()) => return Ok(()),
                Err(NetError::Retry(_)) => {}
                Err(NetError::Fatal(m)) => return Err(FatalError::Net(m)),
            }
        }
        // The frame already is a pooled buffer: it parks as it is.
        self.push_backlog(Backlogged::Send { target, target_dev, data, imm, ctx: 0 });
        Ok(())
    }

    /// Ships every destination's buffer that sat idle for a full
    /// progress epoch (buffers being actively appended to are left to
    /// fill). Returns whether anything shipped.
    pub(super) fn flush_idle_coalesced(&self) -> Result<bool> {
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

    /// Receive: insert into the matching engine; deliver immediately on an
    /// unexpected match.
    pub(super) fn post_recv_impl(&self, args: CommArgs) -> Result<PostResult> {
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
                    MatchEntry::UnexpRts(rts) => {
                        Device::rtr_for_recv(rts, recv)?;
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
        let payload = data.as_slice();
        let len = payload.len();
        if len > recv.buf.len() {
            return Err(FatalError::InvalidArg(format!(
                "receive buffer too small: {} < {len}",
                recv.buf.len()
            )));
        }
        let data = match recv.buf {
            Landing::Owned(mut buf) => {
                buf[..len].copy_from_slice(payload);
                DataBuf::Partial(buf, len)
            }
            Landing::Lent(lent) => {
                lent.fill(payload);
                DataBuf::Lent(len)
            }
        };
        self.inner.stats.bump(|c| &c.copied_deliveries);
        Ok((
            recv.comp,
            CompDesc { rank: src, tag, data, user_ctx: recv.user_ctx, kind: CompKind::Recv },
        ))
    }

    /// Delivers one eager payload — a standalone arrival (packet-backed)
    /// or one sub-message of a coalesced frame (view-backed) — through the
    /// matching engine (two-sided) or rcomp signaling (active message). The
    /// payload is parked as-is on a miss; no copy happens until (unless)
    /// a user-posted receive buffer consumes it.
    pub(super) fn deliver_eager(&self, src: Rank, hdr: Header, data: DataBuf) -> Result<()> {
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
                self.deliver_rcomp(hdr.aux, PendingInbound::EagerAm { src, tag: hdr.tag, data })
            }
            other => Err(FatalError::Net(format!("invalid eager payload type {other:?}"))),
        }
    }

    /// Demultiplexes a coalesced frame. Zero-copy: the frame packet
    /// becomes a shared refcounted buffer and every sub-message is handed
    /// out as a view into it; the slot returns to the pool when the last
    /// view drops.
    pub(super) fn deliver_coalesced(
        &self,
        src: Rank,
        count: u32,
        packet: Packet,
        len: usize,
    ) -> Result<()> {
        let subs = coalesce_unpack_ranges(&packet.as_slice()[..len])?;
        if count as usize != subs.len() {
            return Err(FatalError::Net(format!(
                "coalesced frame count mismatch: header {count} vs {}",
                subs.len()
            )));
        }
        let shared = packet.into_shared();
        for (sub_imm, r) in subs {
            let view = shared.view(r.start, r.end - r.start);
            self.deliver_eager(src, Header::decode(sub_imm)?, DataBuf::View(view))?;
        }
        Ok(())
    }

    /// Delivers `p` to the completion object registered as `rcomp`, or
    /// hands it back when none is registered yet. The one place that
    /// knows what each kind of rcomp-addressed arrival turns into, for
    /// first attempts and retries alike. Inlined so that a caller's known
    /// kind of arrival keeps only its own arm.
    #[inline(always)]
    fn try_deliver_rcomp(&self, rcomp: u32, p: PendingInbound) -> Result<Option<PendingInbound>> {
        // Borrowed: the table is append-only, so the entry outlives this
        // delivery without a refcount of its own.
        let Some(comp) = self.inner.rt.rcomp.get(rcomp as usize) else {
            return Ok(Some(p));
        };
        match p {
            PendingInbound::EagerAm { src, tag, data } => {
                // Packet- or view-backed, so zero-copy.
                self.inner.stats.bump(|c| &c.zero_copy_deliveries);
                comp.signal(CompDesc { rank: src, tag, data, user_ctx: 0, kind: CompKind::Am });
            }
            PendingInbound::RtsAm(rts) => self.rtr_for_am(rts, comp.clone())?,
            PendingInbound::RemoteSignal { src, tag } => comp.signal(CompDesc {
                rank: src,
                tag,
                data: DataBuf::Empty,
                user_ctx: 0,
                kind: CompKind::RemoteSignal,
            }),
        }
        Ok(None)
    }

    /// Delivers an arrival addressed to `rcomp`. One whose rcomp is not
    /// registered yet is parked and retried on every progress call until
    /// the registration lands.
    #[inline(always)]
    pub(super) fn deliver_rcomp(&self, rcomp: u32, p: PendingInbound) -> Result<()> {
        if let Some(p) = self.try_deliver_rcomp(rcomp, p)? {
            self.inner.stats.bump(|c| &c.early_inbound);
            let mut pending = self.inner.pending_inbound.lock();
            pending.push((rcomp, p));
            self.inner.pending_nonempty.store(true, Ordering::Release);
        }
        Ok(())
    }

    /// Retries parked early-inbound deliveries whose rcomp may have
    /// been registered since. Still-unregistered entries are re-parked
    /// in arrival order. Returns whether anything was delivered. With
    /// nothing parked — nearly every call — this is one load, no lock.
    pub(super) fn retry_pending_inbound(&self) -> Result<bool> {
        if !self.inner.pending_nonempty.load(Ordering::Acquire) {
            return Ok(false);
        }
        let pending = {
            let mut guard = self.inner.pending_inbound.lock();
            self.inner.pending_nonempty.store(false, Ordering::Release);
            std::mem::take(&mut *guard)
        };
        let parked = pending.len();
        let mut kept = Vec::new();
        for (rcomp, p) in pending {
            if let Some(p) = self.try_deliver_rcomp(rcomp, p)? {
                kept.push((rcomp, p));
            }
        }
        let did = kept.len() < parked;
        if !kept.is_empty() {
            let mut guard = self.inner.pending_inbound.lock();
            // Entries parked while we held the taken batch arrived
            // after `kept`: splice them behind to keep arrival order.
            kept.append(&mut guard);
            *guard = kept;
            self.inner.pending_nonempty.store(true, Ordering::Release);
        }
        Ok(did)
    }
}
