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
//! whole life, and the table's shard lock is its lock: the RTR and the
//! backlog drain each take it once. A wire has consumed a write's
//! source when `post_write` returns, so a chunk the wire took needs no
//! completion: the send is done when the wire takes its FIN-bearing
//! last chunk. Which bytes go next is the pure [`Chunks`] schedule; the
//! pump only asks it and does what it answers. A receive is one
//! [`RdvRecv`] in `rdv_recvs` from RTR to FIN.

use super::{net_fatal, CommArgs, Device, MatchEntry, PendingInbound, RecvEntry};
use crate::backlog::Backlogged;
use crate::comp::Comp;
use crate::error::{FatalError, PostResult, Result};
use crate::matching::MatchKind;
use crate::proto::{Header, MsgType, RtrPayload, RtsPayload};
use crate::stats::Tally;
use crate::types::{CompDesc, CompKind, DataBuf, MatchingPolicy, Rank, SendBuf, Tag};
use lci_fabric::{BackendKind, DevId, MemoryRegion, NetError, Rkey};

/// Bytes per chunk write; a payload no larger goes as one write.
const RDV_CHUNK: usize = 64 << 10;

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
    pub(super) fn decode(src: Rank, src_dev: DevId, tag: Tag, payload: &[u8]) -> Result<Rts> {
        let p = RtsPayload::decode(payload)?;
        Ok(Rts { src, src_dev, tag, send_id: p.send_id, size: p.size as usize })
    }
}

/// One rendezvous send, from its RTS to the wire's acceptance of its
/// last chunk.
///
/// | state | event | next |
/// |---|---|---|
/// | `RtsSent` | RTR | `Pumping` (then the first pump) |
/// | `Pumping` | pump (RTR, backlog drain) | whatever [`Chunks::step`] answers |
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
    },
}

/// The chunk schedule of one transfer: which bytes post next, when the
/// transfer parks and when it is done. Pure — no device, no lock, no
/// I/O — so the model check below runs it under every event order.
#[derive(Clone, Copy, Debug)]
pub(super) struct Chunks {
    total: usize,
    chunk: usize,
    /// First byte not yet posted.
    next: usize,
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
}

/// What the pump does next.
enum ChunkAction {
    /// Write bytes `off..off + len`, with the FIN when `fin`; answer
    /// `Accepted` or `Refused`.
    Post { off: usize, len: usize, fin: bool },
    /// Refused, and nothing else will pump it: park it in the backlog.
    Park,
    /// The wire took the last chunk: the send is done.
    Finish,
}

impl Chunks {
    fn new(total: usize, chunk: usize) -> Chunks {
        Chunks { total, chunk, next: 0 }
    }

    fn step(&mut self, ev: ChunkEvent) -> ChunkAction {
        match ev {
            ChunkEvent::Pump => {}
            ChunkEvent::Accepted => {
                self.next += self.chunk.min(self.total - self.next);
                if self.next == self.total {
                    return ChunkAction::Finish;
                }
            }
            ChunkEvent::Refused => return ChunkAction::Park,
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
        args: &mut CommArgs,
        buf: SendBuf,
        target_dev: DevId,
    ) -> Result<PostResult> {
        let sends = &self.inner.rdv_sends;
        let size = buf.len() as u64;
        self.inner.stats.bump(|c| &c.rendezvous);
        let (send_id, _) = sends.insert(RdvSend::RtsSent {
            buf,
            comp: args.comp.take(),
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
        match self.inner.inject(args.rank, target_dev, &payload, imm) {
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
    pub(super) fn handle_rts(&self, hdr: Header, rts: Rts, tally: &mut Tally) -> Result<()> {
        if hdr.ty == MsgType::RtsAm {
            return self.deliver_rcomp(hdr.aux, PendingInbound::RtsAm(rts), tally);
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
        let (recv_id, _) =
            self.inner.rdv_recvs.insert(RdvRecv { data, mr, comp, user_ctx, src, tag });
        let payload = RtrPayload { send_id, recv_id, rkey: mr.rkey.0 }.encode();
        let imm = Header::new(MsgType::Rtr, MatchingPolicy::RankTag, tag, 0).encode();
        self.send_ctrl(src, src_dev, &payload, imm)
    }

    /// Source side: the RTR arrived. The send turns `Pumping` in its
    /// table slot and writes its chunks until the wire refuses one.
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
                    chunks: Chunks::new(buf.len(), RDV_CHUNK),
                    buf,
                    comp,
                    tag,
                    user_ctx,
                    target,
                    target_dev,
                    rkey: Rkey(rtr.rkey),
                    fin_imm,
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
        if self.pump_rdv(rtr.send_id)? {
            self.push_backlog(Backlogged::Rdv { send_id: rtr.send_id });
        }
        Ok(())
    }

    /// Pumps send `send_id` under its lock (its `rdv_sends` shard):
    /// posts chunks until the wire refuses one or takes the last, and
    /// takes a finished send out of the table, signalling its completion
    /// once the lock is released. Returns whether the send parked, which
    /// the caller answers by queueing it in the backlog (the drain once
    /// its own pass is over). Only the RTR and the drain pump a send, so
    /// a parked one is queued once.
    pub(super) fn pump_rdv(&self, send_id: u32) -> Result<bool> {
        let mut finished = None;
        let parked = self.inner.rdv_sends.with(send_id, |send| {
            let Some(RdvSend::Pumping { buf, target, target_dev, rkey, fin_imm, chunks, .. }) =
                send
            else {
                return Err(FatalError::Net(format!("rendezvous send {send_id} is not pumping")));
            };
            let mut act = chunks.step(ChunkEvent::Pump);
            loop {
                act = match act {
                    ChunkAction::Post { off, len, fin } => {
                        let imm = fin.then_some(*fin_imm);
                        // An iovec chunk is gathered into a pooled buffer
                        // that goes back when the post returns: a wire has
                        // consumed a write's source by then, so the chunk
                        // posts with no context and its completion is
                        // dropped.
                        let res = self.inner.with_bytes(buf, off..off + len, |data| {
                            self.inner.net.post_write(
                                *target,
                                *target_dev,
                                data,
                                *rkey,
                                off,
                                imm,
                                0,
                            )
                        });
                        match res {
                            Ok(()) => {
                                self.inner.stats.bump(|c| &c.rdv_chunks_posted);
                                chunks.step(ChunkEvent::Accepted)
                            }
                            Err(NetError::Retry(_)) => chunks.step(ChunkEvent::Refused),
                            Err(NetError::Fatal(m)) => return Err(FatalError::Net(m)),
                        }
                    }
                    ChunkAction::Park => return Ok(true),
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
    /// the wire's acceptance of their last chunk, and receives awaiting
    /// FIN.
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
        /// The wire refused a post of the pump still running: nothing
        /// on the receiver's side has moved since, so the pump must end.
        refused: bool,
        /// End of the bytes posted so far.
        posted: usize,
        /// Whether the last chunk the wire took carried the FIN.
        fin_taken: bool,
        /// Posted writes in flight to the receiver, in posting order.
        channel: VecDeque<(usize, usize, bool)>,
        /// Times each byte of the landing was written.
        landed: Vec<u8>,
        parked: bool,
        finished: bool,
        received: bool,
    }

    impl Model {
        fn obey(&mut self, act: ChunkAction) {
            match act {
                ChunkAction::Post { off, len, fin } => {
                    assert!(!self.refused, "(v) posted again after a refusal, not parked");
                    self.asked = Some((off, len, fin));
                }
                ChunkAction::Park => {
                    assert!(!self.parked, "parked twice");
                    self.parked = true;
                    self.refused = false;
                }
                ChunkAction::Finish => {
                    assert!(!self.finished, "(iv) finished twice");
                    assert!(self.fin_taken, "(iv) finished before the wire took the FIN chunk");
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
                assert!(!a.fin_taken, "(iv) a chunk posted after the FIN");
                a.posted += len;
                a.fin_taken = fin;
                a.channel.push_back((off, len, fin));
                let act = a.chunks.step(ChunkEvent::Accepted);
                a.obey(act);
                assert_eq!(a.finished, fin, "(iv) the FIN chunk's acceptance did not finish");
            });
            let mut runs = explore(accepted);
            if m.refusals > 0 {
                runs += explore(m.then(|r| {
                    r.asked = None;
                    r.refusals -= 1;
                    r.refused = true;
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

    /// Every event order of one transfer of 1–5 chunks (a full and a
    /// short last chunk) with up to three refused posts: (i) each byte
    /// is posted once, at increasing offsets; (iii) at the FIN, every
    /// byte has landed; (iv) the send finishes once, at the acceptance of
    /// the FIN chunk, which posts last; (v) every execution finishes — a
    /// refusal parks, ending the pump, rather than strands the transfer
    /// or spins on a wire that cannot move while the pump runs.
    #[test]
    fn every_event_order_delivers_every_byte_once() {
        const CHUNK: usize = 3;
        let mut runs = 0;
        for nchunks in 1..=5 {
            for total in [nchunks * CHUNK - 1, nchunks * CHUNK] {
                let mut m = Model {
                    chunks: Chunks::new(total, CHUNK),
                    asked: None,
                    refusals: 3,
                    refused: false,
                    posted: 0,
                    fin_taken: false,
                    channel: VecDeque::new(),
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
        assert!(runs > 1000, "only {runs} executions explored");
    }
}
