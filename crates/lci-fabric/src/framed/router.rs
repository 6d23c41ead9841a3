//! The consuming side of the framed device core: what the devices of one
//! rank share ([`RankCore`], the pending-read table) and the **single**
//! inbound router ([`FramedDevice::route_frame`]) — the only place frame
//! kinds are told apart.

use super::{FramedDevice, Peer, Wire};
use crate::mem::Rkey;
use crate::shm::ring::{
    FrameHeader, FLAG_HAS_IMM, KIND_READ_REQ, KIND_READ_RESP, KIND_SEND, KIND_WRITE,
};
use crate::sync::SpinLock;
use crate::types::{
    Cqe, CqeKind, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason, WireMsgKind,
};

/// Capacity of the pending-read table (outstanding `post_read`s per
/// rank). Allocated whole by the rank's first framed read, so the read
/// path makes no steady-state allocations and a rank whose reads are all
/// copied in place ([`Wire::LOCAL_DIRECT`]) never pays for it.
const READ_TABLE_CAP: usize = 1024;

struct PendingRead {
    desc: RecvBufDesc,
    dev: DevId,
}

/// Fixed-capacity slab of pending reads with an intrusive free list:
/// no allocations after the first `alloc`.
#[derive(Default)]
struct ReadTable {
    slots: Vec<Option<PendingRead>>,
    free: Vec<u32>,
}

impl ReadTable {
    fn alloc(&mut self, pr: PendingRead) -> Option<u32> {
        if self.slots.is_empty() {
            self.slots = (0..READ_TABLE_CAP).map(|_| None).collect();
            self.free = (0..READ_TABLE_CAP as u32).rev().collect();
        }
        let id = self.free.pop()?;
        self.slots[id as usize] = Some(pr);
        Some(id)
    }

    fn take(&mut self, id: u32) -> Option<PendingRead> {
        let pr = self.slots.get_mut(id as usize)?.take()?;
        self.free.push(id);
        Some(pr)
    }

    /// Removes and returns the landing buffer of every pending read
    /// posted by `dev` (teardown path; not steady state).
    fn drain_dev(&mut self, dev: DevId) -> Vec<RecvBufDesc> {
        let mut out = Vec::new();
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|p| p.dev == dev) {
                out.push(slot.take().expect("checked Some").desc);
                self.free.push(id as u32);
            }
        }
        out
    }
}

/// What the framed devices of one rank share, whatever the wire; each
/// wire's rank state embeds one.
#[derive(Default)]
pub(crate) struct RankCore {
    /// Outstanding `post_read`s awaiting a `READ_RESP` frame.
    reads: SpinLock<ReadTable>,
}

impl RankCore {
    /// Parks `desc` until the `READ_RESP` naming the returned id arrives;
    /// `None` when the table is full.
    pub(super) fn alloc_read(&self, desc: RecvBufDesc, dev: DevId) -> Option<u32> {
        self.reads.lock().alloc(PendingRead { desc, dev })
    }

    /// Backs out a read whose request never left.
    pub(super) fn cancel_read(&self, id: u32) {
        self.reads.lock().take(id);
    }

    /// Hands back the landing buffer of every pending read `dev` posted
    /// (teardown).
    pub(super) fn drain_reads(&self, dev: DevId) -> Vec<RecvBufDesc> {
        self.reads.lock().drain_dev(dev)
    }
}

/// Outcome of routing one inbound frame.
pub(crate) enum Routed {
    /// Frame fully applied; the wire releases it.
    Done,
    /// Frame cannot be applied yet (no receive posted, staging ring full,
    /// device absent, response path busy): the wire leaves it at its
    /// head — strict FIFO, like RC's receiver-not-ready. The reason is
    /// what a self-target post reports as `Retry`.
    Parked(RetryReason),
}

impl<W: Wire> FramedDevice<W> {
    /// Applies one frame on the consuming side — the only place frame
    /// kinds are told apart. The caller holds `src`'s order: a drain
    /// holding the wire's drain lock for `src`, or a post toward this
    /// rank on a wire without a self channel, holding its QP lock.
    ///
    /// Rkeys are validated here, in the process that owns the
    /// registration table — the producer cannot see it across a process
    /// boundary.
    pub(super) fn route_frame(
        &self,
        src: Rank,
        h: &FrameHeader,
        payload: &[u8],
    ) -> NetResult<Routed> {
        match h.kind {
            KIND_SEND => self.land(src, h, WireMsgKind::Send, payload),
            KIND_WRITE => {
                let data = payload;
                let base =
                    self.fabric.mem().validate(Rkey(h.a as u32), h.b as usize, data.len())?;
                // SAFETY: `validate` bounds-checked against a live local
                // registration; the payload is contiguous wire bytes.
                unsafe {
                    std::ptr::copy_nonoverlapping(data.as_ptr(), base as *mut u8, data.len());
                }
                if h.flags & FLAG_HAS_IMM == 0 {
                    return Ok(Routed::Done);
                }
                // If the notification parks, the copy above is simply
                // redone with it: it is idempotent, and the target must
                // not read before the notification arrives.
                self.land(src, h, WireMsgKind::WriteImm, &[])
            }
            KIND_READ_REQ => {
                let len = h.imm as usize;
                let base = self.fabric.mem().validate(Rkey(h.a as u32), h.b as usize, len)?;
                // SAFETY: validated registered bytes, alive for the
                // duration of the registration.
                let data = unsafe { std::slice::from_raw_parts(base as *const u8, len) };
                let resp = FrameHeader { c: h.c, ..self.header(KIND_READ_RESP, h.src_dev) };
                let mut route = match self.route_to(src, false) {
                    Ok(route) => route,
                    Err(NetError::Retry(why)) => return Ok(Routed::Parked(why)),
                    Err(e) => return Err(e),
                };
                match self.put(&mut route, &resp, data) {
                    Ok(()) => Ok(Routed::Done),
                    Err(NetError::Retry(why)) => Ok(Routed::Parked(why)),
                    // Requester died: nobody is waiting for the bytes.
                    Err(_) if self.wire.peer(src) == Peer::Gone => Ok(Routed::Done),
                    Err(e) => Err(e),
                }
            }
            KIND_READ_RESP => {
                let core = self.wire.core();
                let Some(PendingRead { desc, dev }) = core.reads.lock().take(h.c as u32) else {
                    return Err(NetError::fatal(format!(
                        "unknown {} read response id {}",
                        W::NAME,
                        h.c
                    )));
                };
                let data = payload;
                let n = data.len().min(desc.len);
                // SAFETY: the descriptor contract keeps `ptr..len` valid
                // until the ReadDone completion we are about to stage.
                unsafe {
                    std::ptr::copy_nonoverlapping(data.as_ptr(), desc.ptr, n);
                }
                if let Ok(d) = self.fabric.device(self.rank, dev) {
                    let mut cqe = Cqe::local(CqeKind::ReadDone, desc.ctx);
                    cqe.len = n;
                    d.stage_cqe(cqe);
                }
                Ok(Routed::Done)
            }
            k => Err(NetError::fatal(format!("unknown {} frame kind {k}", W::NAME))),
        }
    }

    /// Lands frame `h` from `src` on the device of this rank it names,
    /// this one or a sibling, into its posted receive. A device not
    /// created yet or one that refuses the frame parks it; a closed one
    /// (device torn down) drops it.
    fn land(
        &self,
        src: Rank,
        h: &FrameHeader,
        kind: WireMsgKind,
        payload: &[u8],
    ) -> NetResult<Routed> {
        let dev = match self.fabric.device(self.rank, h.dst_dev as DevId) {
            Ok(dev) => dev,
            Err(NetError::Retry(why)) => return Ok(Routed::Parked(why)),
            Err(e) => return Err(e),
        };
        match dev.land(src, h, kind, payload) {
            Ok(()) => Ok(Routed::Done),
            Err(NetError::Retry(why)) => Ok(Routed::Parked(why)),
            Err(_) if dev.is_closed() => Ok(Routed::Done),
            Err(e) => Err(e),
        }
    }
}
