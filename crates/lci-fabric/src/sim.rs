//! The in-memory [`Wire`] under the two simulated providers (`ibv`,
//! `ofi`): the target device's [`RxEndpoint`](crate::fabric::RxEndpoint)
//! *is* the wire.
//!
//! Sending turns the frame into the [`WireMsg`] the consuming side would
//! have made of it and pushes that straight onto the endpoint of the
//! device the frame names, payload staged through the sending device's
//! pool (the NIC reading the send buffer). There is nothing to drain:
//! the core's poll pops its own endpoint. Every rank is in this process,
//! so writes and reads never reach the wire at all — the core copies them
//! in place ([`Wire::LOCAL_DIRECT`]) and only a write's immediate comes
//! through here, as the header-only frame it is on every wire.
//!
//! What tells the two providers apart is not here: it is which lock
//! covers what (`dev_shared::QpLocks`).

use crate::backend::TransportStats;
use crate::buf_pool::BufPool;
use crate::fabric::Fabric;
use crate::framed::{Peer, RankCore, Routed, Wire};
use crate::shm::ring::{FrameHeader, FLAG_HAS_IMM, KIND_SEND, KIND_WRITE};
use crate::sync::LockDiscipline;
use crate::types::{DevId, NetError, NetResult, Rank, WireMsg, WireMsgKind};
use std::sync::Arc;

/// One device's way onto every endpoint of the fabric.
pub(crate) struct SimWire {
    fabric: Arc<Fabric>,
    rank: Rank,
    /// Stages `WirePayload::Heap` copies of outbound sends.
    pool: BufPool,
    /// Endpoints are per device, so nothing is shared between siblings:
    /// a registry of this one device, and a read table that is never
    /// allocated because no read is ever framed.
    core: RankCore,
}

impl Wire for SimWire {
    const NAME: &'static str = "sim";
    /// A rank's own endpoint takes pushes like any other.
    const SELF_CHANNEL: bool = true;
    /// Every rank registers into the table and the address space the
    /// poster runs in.
    const LOCAL_DIRECT: bool = true;
    /// The endpoint is multi-producer: there is no sender to lock, only
    /// a target to remember.
    type Tx<'a> = Rank;

    fn open(fabric: &Arc<Fabric>, rank: Rank, pool: &BufPool) -> Self {
        SimWire { fabric: fabric.clone(), rank, pool: pool.clone(), core: RankCore::new() }
    }

    fn core(&self) -> &RankCore {
        &self.core
    }

    fn peer(&self, _target: Rank) -> Peer {
        Peer::Local
    }

    fn lock_tx(&self, target: Rank, _how: LockDiscipline) -> NetResult<Rank> {
        Ok(target)
    }

    /// A full endpoint is `Retry(RxFull)`, a device not created yet
    /// `Retry(PeerNotReady)`, a torn-down one fatal.
    ///
    /// Forced inline like the core's `put` that calls it: left as a call
    /// it cost an 8 B message on the raw device 15-30 ns (measured).
    #[inline(always)]
    fn send(&self, target: &mut Rank, h: &FrameHeader, payload: &[u8]) -> NetResult<()> {
        let kind = match h.kind {
            KIND_SEND => WireMsgKind::Send,
            KIND_WRITE if h.flags & FLAG_HAS_IMM != 0 && payload.is_empty() => {
                WireMsgKind::WriteImm
            }
            k => {
                return Err(NetError::fatal(format!(
                    "sim wire asked to carry frame kind {k} ({} payload bytes): \
                     one-sided bytes are copied in place",
                    payload.len()
                )))
            }
        };
        // Built in the call, payload staged in place: the message is
        // ~100 bytes, and each intermediate binding is a copy of it.
        self.fabric.endpoint(*target, h.dst_dev as DevId)?.push(WireMsg {
            src_rank: self.rank,
            src_dev: h.src_dev as DevId,
            imm: h.imm,
            kind,
            payload: self.pool.stage(payload),
        })
    }

    fn drain(
        &self,
        _budget: usize,
        _sink: impl FnMut(Rank, &FrameHeader, &[u8]) -> NetResult<Routed>,
    ) -> NetResult<()> {
        Ok(())
    }

    /// What waits, waits in the endpoint, which the core counts itself.
    fn inbound_pending(&self) -> usize {
        0
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}
