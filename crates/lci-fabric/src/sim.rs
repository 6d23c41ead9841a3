//! The in-memory [`Wire`] under the two simulated providers (`ibv`,
//! `ofi`): no wire at all — the poster plays the NIC.
//!
//! Sending lands the frame on the device it names the way every wire's
//! drain lands one ([`DevShared::land`](crate::dev_shared::DevShared::land)):
//! the payload is copied straight from the send buffer into that device's
//! oldest posted receive and the completion staged there, under the QP
//! lock that keeps this poster's frames in order. A frame that finds no
//! receive posted is refused at the post, as an RC transport answers
//! receiver-not-ready: it stays with its poster, who retries it or parks
//! it in the backlog (paper §4.1.5). Nothing waits here, so there is
//! nothing to drain. Every rank is in this process, so writes and reads
//! never reach the wire at all — the core copies them in place
//! ([`Wire::LOCAL_DIRECT`]) and only a write's immediate comes through
//! here, as the header-only frame it is on every wire.
//!
//! What tells the two providers apart is not here: it is which lock
//! covers what (`dev_shared::QpLocks`).

use crate::backend::TransportStats;
use crate::fabric::Fabric;
use crate::framed::{Peer, RankCore, Routed, Wire};
use crate::shm::ring::{FrameHeader, FLAG_HAS_IMM, KIND_SEND, KIND_WRITE};
use crate::sync::LockDiscipline;
use crate::types::{DevId, NetError, NetResult, Rank, WireMsgKind};
use std::sync::Arc;

/// One device's way into every device of the fabric.
pub(crate) struct SimWire {
    fabric: Arc<Fabric>,
    rank: Rank,
    /// Nothing is shared between siblings: a read table that is never
    /// allocated because no read is ever framed.
    core: RankCore,
}

impl Wire for SimWire {
    const NAME: &'static str = "sim";
    /// A rank's own devices are landed on like any other.
    const SELF_CHANNEL: bool = true;
    /// Every rank registers into the table and the address space the
    /// poster runs in.
    const LOCAL_DIRECT: bool = true;
    /// Deliveries take the target's own locks: there is no sender to
    /// lock, only a target to remember.
    type Tx<'a> = Rank;

    fn open(fabric: &Arc<Fabric>, rank: Rank) -> Self {
        SimWire { fabric: fabric.clone(), rank, core: RankCore::default() }
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

    /// A target with no receive posted is `Retry(RxFull)`, one whose
    /// staging ring is full `Retry(QueueFull)`, a device not created yet
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
        let dev = self.fabric.device(*target, h.dst_dev as DevId)?;
        dev.land(self.rank, h, kind, payload)
    }

    fn drain(
        &self,
        _budget: usize,
        _sink: impl FnMut(Rank, &FrameHeader, &[u8]) -> NetResult<Routed>,
    ) -> NetResult<()> {
        Ok(())
    }

    /// Nothing waits on this wire.
    fn inbound_pending(&self) -> usize {
        0
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}
