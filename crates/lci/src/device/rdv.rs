//! The zero-copy rendezvous protocol (paper §4.3, Figure 1 steps 8 & 10;
//! DESIGN.md §4.6): RTS → RTR → pipelined chunk writes, FIN riding the
//! last chunk. "Zero-copy" is this layer's half: each chunk is posted
//! from the user's buffer toward the registered landing buffer, and only
//! an iovec chunk is gathered first. What the `post_write` below it
//! costs is the wire's: one copy and no frame where the sender can
//! address the target's memory (the sims, in-process shm), a frame
//! copied in and out across processes and on tcp (DESIGN.md §4.9).
//!
//! A send is one [`RdvSend`] in the device's `rdv_sends` table for its
//! whole life, and the table's shard lock is its lock: the RTR, every
//! chunk completion and the backlog drain each take it once. Which
//! bytes go next is the pure [`Chunks`] schedule; the pump only asks it
//! and does what it answers. A receive is one [`RdvRecv`] in `rdv_recvs`
//! from RTR to FIN.

use super::{net_fatal, CommArgs, Device, MatchEntry, OpCtx, PendingInbound, RecvEntry};
use crate::backlog::Backlogged;
use crate::comp::Comp;
use crate::error::{FatalError, PostResult, Result};
use crate::matching::MatchKind;
use crate::proto::{Header, MsgType, RtrPayload, RtsPayload};
use crate::types::{CompDesc, CompKind, DataBuf, MatchingPolicy, Rank, SendBuf, Tag};
use lci_fabric::{BackendKind, Cqe, DevId, MemoryRegion, NetError, Rkey};

/// Bytes per chunk write; a payload no larger goes as one write.
const RDV_CHUNK: usize = 64 << 10;

/// Chunk writes one transfer keeps in flight.
const RDV_WINDOW: usize = 4;

// Every wire carries a chunk in one write (tcp, which fits a frame
// header into the largest pooled size class, carries the least).
const _: () = assert!(RDV_CHUNK <= BackendKind::Tcp.max_write());

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

/// One rendezvous send, from its RTS to its last chunk's completion.
///
/// | state | event | next |
/// |---|---|---|
/// | `RtsSent` | RTR | `Pumping` (then the first pump) |
/// | `Pumping` | pump, chunk done | whatever [`Chunks::step`] answers |
/// | `Pumping` | `Finish` answered | removed from the table |
pub(super) enum RdvSend {
    /// RTS sent, waiting for the RTR. A non-contiguous payload stays as
    /// it is: each chunk is gathered when it posts.
    RtsSent { buf: SendBuf, comp: Option<Comp>, tag: Tag, user_ctx: u64 },
    /// RTR received: chunks are being written into the landing `rkey`
    /// names.
    Pumping {
        buf: SendBuf,
        comp: Option<Comp>,
        tag: Tag,
        user_ctx: u64,
        target: Rank,
        target_dev: DevId,
        rkey: Rkey,
        /// FIN immediate; rides the last chunk's write.
        fin_imm: u64,
        chunks: Chunks,
        /// In the backlog: set by a park, cleared by the drain's pump, so
        /// a transfer is queued there at most once. A parked transfer
        /// has nothing in flight and cannot finish, so its backlog entry
        /// never names a reused id.
        parked: bool,
    },
}

/// The chunk schedule of one transfer: which bytes post next, how many
/// writes are in flight, when the transfer parks and when it is done.
/// Pure — no device, no lock, no I/O — so the model check below runs it
/// under every event order.
#[derive(Clone, Copy, Debug)]
pub(super) struct Chunks {
    total: usize,
    chunk: usize,
    window: usize,
    /// First byte not yet posted.
    next: usize,
    /// Chunks posted whose write has not completed.
    inflight: usize,
    /// Chunks whose write has completed.
    done: usize,
}

/// What happened to a transfer.
#[derive(Clone, Copy)]
enum ChunkEvent {
    /// It may post: the RTR arrived, or the drain took it out of the
    /// backlog.
    Pump,
    /// The wire took the write the last `Post` asked for.
    Accepted,
    /// The wire refused it; nothing was posted.
    Refused,
    /// One posted chunk's write completed.
    ChunkDone,
}

/// What the pump does next.
enum ChunkAction {
    /// Write bytes `off..off + len`, with the FIN when `fin`; answer
    /// `Accepted` or `Refused`.
    Post { off: usize, len: usize, fin: bool },
    /// Nothing until a completion arrives.
    Idle,
    /// Refused with nothing in flight, so no completion will re-drive
    /// it: park it in the backlog.
    Park,
    /// Every chunk has completed: the send is done.
    Finish,
}

impl Chunks {
    fn new(total: usize, chunk: usize, window: usize) -> Chunks {
        Chunks { total, chunk, window, next: 0, inflight: 0, done: 0 }
    }

    fn step(&mut self, ev: ChunkEvent) -> ChunkAction {
        match ev {
            ChunkEvent::Pump => {}
            ChunkEvent::Accepted => {
                self.next += self.chunk.min(self.total - self.next);
                self.inflight += 1;
            }
            ChunkEvent::Refused if self.inflight == 0 => return ChunkAction::Park,
            // A completion still to come re-drives the transfer.
            ChunkEvent::Refused => return ChunkAction::Idle,
            ChunkEvent::ChunkDone => {
                self.inflight -= 1;
                self.done += 1;
                if self.done == self.total.div_ceil(self.chunk) {
                    return ChunkAction::Finish;
                }
            }
        }
        if self.next == self.total || self.inflight == self.window {
            return ChunkAction::Idle;
        }
        // FIN rides the last chunk, which posts after every other one.
        let len = self.chunk.min(self.total - self.next);
        ChunkAction::Post { off: self.next, len, fin: self.next + len == self.total }
    }
}

/// A pending zero-copy receive (RTR issued, waiting for FIN), holding
/// what it will deliver: the landing as its completion payload.
pub(super) struct RdvRecv {
    data: DataBuf,
    mr: MemoryRegion,
    comp: Comp,
    user_ctx: u64,
    src: Rank,
    tag: Tag,
}

impl Device {
    /// Source side: allocate a send id, ship the RTS.
    pub(super) fn post_rendezvous(
        &self,
        args: CommArgs,
        buf: SendBuf,
        target_dev: DevId,
    ) -> Result<PostResult> {
        let sends = &self.inner.rdv_sends;
        let size = buf.len() as u64;
        self.inner.stats.bump(|c| &c.rendezvous);
        let send_id = sends.insert(RdvSend::RtsSent {
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
                    sends.remove(send_id);
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
                sends.remove(send_id);
                self.inner.stats.bump(|c| &c.rendezvous_retried);
                Ok(PostResult::Retry(r.into()))
            }
            Err(NetError::Fatal(m)) => {
                sends.remove(send_id);
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
        if rts.size > buf.len() {
            return Err(FatalError::InvalidArg(format!(
                "receive buffer too small for rendezvous: {} < {}",
                buf.len(),
                rts.size
            )));
        }
        let landing = buf.as_ptr();
        let data = buf.into_databuf(rts.size);
        device.start_rtr(rts, landing, data, comp, user_ctx)
    }

    /// Answers an active-message RTS. The runtime provides the landing
    /// storage for an unexpected AM rendezvous: a pool-recycled bounce
    /// buffer.
    pub(super) fn rtr_for_am(&self, rts: Rts, comp: Comp) -> Result<()> {
        let buf = self.inner.buf_pool.take_len(rts.size);
        let landing = buf.as_ptr();
        let data = DataBuf::Pooled(buf, rts.size);
        self.start_rtr(rts, landing, data, comp, 0)
    }

    /// Target side: register the RTS's bytes at `landing`, record the
    /// pending receive with the `data` its completion will deliver, and
    /// answer RTR.
    fn start_rtr(
        &self,
        rts: Rts,
        landing: *const u8,
        data: DataBuf,
        comp: Comp,
        user_ctx: u64,
    ) -> Result<()> {
        let Rts { src, src_dev, tag, send_id, size } = rts;
        let mr = self.inner.net.register(landing, size).map_err(net_fatal)?;
        let recv_id = self.inner.rdv_recvs.insert(RdvRecv { data, mr, comp, user_ctx, src, tag });
        let payload = RtrPayload { send_id, recv_id, rkey: mr.rkey.0 }.encode();
        let imm = Header::new(MsgType::Rtr, MatchingPolicy::RankTag, tag, 0).encode();
        self.send_ctrl(src, src_dev, &payload, imm)
    }

    /// Source side: the RTR arrived. The send turns `Pumping` in its
    /// table slot and writes its first window of chunks.
    pub(super) fn start_pumping(
        &self,
        target: Rank,
        target_dev: DevId,
        rtr: RtrPayload,
    ) -> Result<()> {
        let fin_imm = Header::new(MsgType::Fin, MatchingPolicy::RankTag, 0, rtr.recv_id).encode();
        let started = self.inner.rdv_sends.with(rtr.send_id, |send| match send.take() {
            Some(RdvSend::RtsSent { buf, comp, tag, user_ctx }) => {
                *send = Some(RdvSend::Pumping {
                    chunks: Chunks::new(buf.len(), RDV_CHUNK, RDV_WINDOW),
                    buf,
                    comp,
                    tag,
                    user_ctx,
                    target,
                    target_dev,
                    rkey: Rkey(rtr.rkey),
                    fin_imm,
                    parked: false,
                });
                true
            }
            other => {
                *send = other;
                false
            }
        });
        if started != Some(true) {
            return Err(FatalError::Net(format!("RTR for unknown send id {}", rtr.send_id)));
        }
        self.pump_or_park(rtr.send_id, ChunkEvent::Pump)
    }

    /// Source side: one chunk write completed.
    pub(super) fn rdv_chunk_done(&self, send_id: u32) -> Result<()> {
        self.pump_or_park(send_id, ChunkEvent::ChunkDone)
    }

    /// The backlog drain's turn at a parked send; `true` if it parked
    /// again (the drain re-queues it once its own pass is over).
    pub(super) fn resume_rdv(&self, send_id: u32) -> Result<bool> {
        self.pump_rdv(send_id, ChunkEvent::Pump)
    }

    fn pump_or_park(&self, send_id: u32, ev: ChunkEvent) -> Result<()> {
        if self.pump_rdv(send_id, ev)? {
            self.push_backlog(Backlogged::Rdv { send_id });
        }
        Ok(())
    }

    /// Feeds `ev` to send `send_id`'s schedule and carries out what it
    /// answers, under the send's lock (its `rdv_sends` shard): posts
    /// chunks until the window fills or the wire refuses, and takes a
    /// finished send out of the table, signalling its completion once the
    /// lock is released. Returns whether the send parked, which the
    /// caller answers by queueing it in the backlog.
    fn pump_rdv(&self, send_id: u32, ev: ChunkEvent) -> Result<bool> {
        let mut finished = None;
        let parked = self.inner.rdv_sends.with(send_id, |send| {
            let Some(RdvSend::Pumping {
                buf,
                target,
                target_dev,
                rkey,
                fin_imm,
                chunks,
                parked,
                ..
            }) = send
            else {
                return Err(FatalError::Net(format!("rendezvous send {send_id} is not pumping")));
            };
            if matches!(ev, ChunkEvent::Pump) {
                *parked = false;
            }
            let mut act = chunks.step(ev);
            loop {
                act = match act {
                    ChunkAction::Post { off, len, fin } => {
                        let ctx = self.inner.ctx_encode(OpCtx::RdvChunk { send_id });
                        let imm = fin.then_some(*fin_imm);
                        // An iovec chunk is gathered into a pooled buffer
                        // that goes back when the post returns: a wire is
                        // done with a write's source by then.
                        let res = self.inner.with_bytes(buf, off..off + len, |data| {
                            self.inner.net.post_write(
                                *target,
                                *target_dev,
                                data,
                                *rkey,
                                off,
                                imm,
                                ctx,
                            )
                        });
                        if self.posted_or_back_out(res, ctx)?.is_retry() {
                            chunks.step(ChunkEvent::Refused)
                        } else {
                            let act = chunks.step(ChunkEvent::Accepted);
                            self.inner.stats.bump(|c| &c.rdv_chunks_posted);
                            self.inner.stats.raise(|c| &c.rdv_inflight_hwm, chunks.inflight as u64);
                            act
                        }
                    }
                    ChunkAction::Idle => return Ok(false),
                    ChunkAction::Park => return Ok(!std::mem::replace(parked, true)),
                    ChunkAction::Finish => {
                        finished = send.take();
                        return Ok(false);
                    }
                };
            }
        });
        let parked = parked.unwrap_or_else(|| {
            Err(FatalError::Net(format!("unknown rendezvous send id {send_id}")))
        })?;
        if let Some(RdvSend::Pumping { buf, comp: Some(comp), tag, user_ctx, target, .. }) =
            finished
        {
            let data = DataBuf::SendBuf(buf);
            comp.signal(CompDesc { rank: target, tag, data, user_ctx, kind: CompKind::Send });
        }
        Ok(parked)
    }

    /// Target side of the rendezvous FIN: deliver the buffer.
    pub(super) fn handle_fin(&self, recv_id: u32) -> Result<()> {
        let entry = self
            .inner
            .rdv_recvs
            .remove(recv_id)
            .ok_or_else(|| FatalError::Net(format!("FIN for unknown recv id {recv_id}")))?;
        self.inner.net.deregister(&entry.mr).map_err(net_fatal)?;
        // Only an active message lands in a pooled bounce buffer.
        let kind = match entry.data {
            DataBuf::Pooled(..) => CompKind::Am,
            _ => CompKind::Recv,
        };
        entry.comp.signal(CompDesc {
            rank: entry.src,
            tag: entry.tag,
            data: entry.data,
            user_ctx: entry.user_ctx,
            kind,
        });
        Ok(())
    }

    /// Pending rendezvous operations (diagnostics): sends from RTS to
    /// their last chunk's completion, and receives awaiting FIN.
    /// Advisory: each table shard is sampled in turn, so the totals are
    /// a consistent per-shard snapshot, not an atomic cross-shard view —
    /// suitable for quiescence polling, not for exact accounting while
    /// transfers are being posted concurrently.
    pub fn pending_rendezvous(&self) -> (usize, usize) {
        (self.inner.rdv_sends.len(), self.inner.rdv_recvs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// One transfer between two ranks as the model check sees it: the
    /// sender's schedule, the wire between the ranks and the receiver's
    /// landing.
    #[derive(Clone)]
    struct Model {
        chunks: Chunks,
        /// A `Post` the wire has not answered yet. The pump holds the
        /// transfer's lock until it has, so nothing else happens first.
        asked: Option<(usize, usize, bool)>,
        /// Refusals the wire may still make.
        refusals: usize,
        /// End of the bytes posted so far.
        posted: usize,
        /// Posted writes in flight to the receiver, in posting order.
        channel: VecDeque<(usize, usize, bool)>,
        /// Write completions the sender has not handled yet.
        completions: usize,
        /// Times each byte of the landing was written.
        landed: Vec<u8>,
        parked: bool,
        finished: bool,
        received: bool,
    }

    impl Model {
        fn obey(&mut self, act: ChunkAction) {
            match act {
                ChunkAction::Post { off, len, fin } => self.asked = Some((off, len, fin)),
                ChunkAction::Idle => {}
                ChunkAction::Park => {
                    assert!(!self.parked, "parked twice");
                    self.parked = true;
                }
                ChunkAction::Finish => {
                    assert!(!self.finished, "(iv) finished twice");
                    assert_eq!(self.completions, 0, "(iv) finished before every chunk completed");
                    assert_eq!(self.posted, self.landed.len(), "(iv) finished before posting all");
                    self.finished = true;
                }
            }
        }

        fn then(&self, change: impl FnOnce(&mut Model)) -> Model {
            let mut next = self.clone();
            change(&mut next);
            next
        }
    }

    /// Walks every event order from `m`, checking the properties at each
    /// step; returns the number of complete executions.
    fn explore(m: Model) -> usize {
        if let Some((off, len, fin)) = m.asked {
            let accepted = m.then(|a| {
                a.asked = None;
                assert!(len > 0, "(i) an empty chunk");
                assert_eq!(off, a.posted, "(i) a byte posted twice, or skipped");
                a.posted += len;
                a.channel.push_back((off, len, fin));
                a.completions += 1;
                assert!(a.completions <= a.chunks.window, "(ii) {} in flight", a.completions);
                let act = a.chunks.step(ChunkEvent::Accepted);
                a.obey(act);
            });
            let mut runs = explore(accepted);
            if m.refusals > 0 {
                runs += explore(m.then(|r| {
                    r.asked = None;
                    r.refusals -= 1;
                    let act = r.chunks.step(ChunkEvent::Refused);
                    r.obey(act);
                }));
            }
            return runs;
        }
        let mut runs = 0;
        if let Some(&(off, len, fin)) = m.channel.front() {
            runs += explore(m.then(|l| {
                l.channel.pop_front();
                l.landed[off..off + len].iter_mut().for_each(|b| *b += 1);
                if fin {
                    assert!(l.landed.iter().all(|&b| b == 1), "(iii) FIN before every byte landed");
                    assert!(!l.received, "(iii) a second FIN");
                    l.received = true;
                }
            }));
        }
        if m.completions > 0 {
            runs += explore(m.then(|c| {
                c.completions -= 1;
                let act = c.chunks.step(ChunkEvent::ChunkDone);
                c.obey(act);
            }));
        }
        if m.parked {
            runs += explore(m.then(|d| {
                d.parked = false;
                let act = d.chunks.step(ChunkEvent::Pump);
                d.obey(act);
            }));
        }
        if runs == 0 {
            assert!(m.finished && m.received, "(v) stuck: {:?}", m.chunks);
            return 1;
        }
        runs
    }

    /// Every event order of one transfer of 1–3 chunks (a full and a
    /// short last chunk), under windows 1–3 and up to two refused posts:
    /// (i) each byte is posted once, at increasing offsets; (ii) no more
    /// than the window is ever in flight; (iii) at the FIN, every byte
    /// has landed; (iv) the send finishes once, after every chunk
    /// completed; (v) every execution finishes — a refusal with nothing
    /// in flight parks rather than strands the transfer.
    #[test]
    fn every_event_order_delivers_every_byte_once() {
        const CHUNK: usize = 3;
        let mut runs = 0;
        for nchunks in 1..=3 {
            for total in [nchunks * CHUNK - 1, nchunks * CHUNK] {
                for window in 1..=3 {
                    let mut m = Model {
                        chunks: Chunks::new(total, CHUNK, window),
                        asked: None,
                        refusals: 2,
                        posted: 0,
                        channel: VecDeque::new(),
                        completions: 0,
                        landed: vec![0; total],
                        parked: false,
                        finished: false,
                        received: false,
                    };
                    let act = m.chunks.step(ChunkEvent::Pump);
                    m.obey(act);
                    runs += explore(m);
                }
            }
        }
        assert!(runs > 1000, "only {runs} executions explored");
    }
}
