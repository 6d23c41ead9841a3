//! The shm [`Wire`]: a real shared-memory channel other *processes* can
//! produce into, under the framed device core ([`crate::framed`]).
//!
//! Sending encodes a frame into the outbound rank-pair ring under the
//! rank-level producer lock (sibling devices share the ring; together
//! with the core's QP lock it is the ring's single-producer guarantee);
//! the consuming rank finds it at its next poll. Draining peeks each inbound ring
//! under its try-locked drain lock and lends every frame to the core's
//! router as a slice of the ring slot or spill range; a frame the router
//! parks is simply not released.

use super::ring::{Channel, FrameHeader, ProduceError};
use super::segment::{PEER_ABSENT, PEER_ATTACHED};
use super::{ShmFabric, ShmRankState};
use crate::backend::TransportStats;
use crate::buf_pool::BufPool;
use crate::fabric::Fabric;
use crate::framed::{Peer, RankCore, Routed, Wire};
use crate::sync::{LockDiscipline, SpinGuard};
use crate::types::{NetError, NetResult, Rank, RetryReason};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One rank's end of the segment's channels.
pub(crate) struct ShmWire {
    shm: Arc<ShmFabric>,
    state: Arc<ShmRankState>,
}

impl Wire for ShmWire {
    const NAME: &'static str = "shm";
    /// The segment holds a `rank → rank` ring like any other pair's.
    const SELF_CHANNEL: bool = true;
    /// Every `Peer::Local` rank — all of an in-process fabric, this rank
    /// itself in a multi-process one — registers into the table and the
    /// address space the poster runs in.
    const LOCAL_DIRECT: bool = true;
    type Tx<'a> = (SpinGuard<'a, ()>, &'a Channel);

    fn open(fabric: &Arc<Fabric>, rank: Rank, _pool: &BufPool) -> Self {
        let shm = fabric.shm_fabric().clone();
        let state = shm.state(rank);
        ShmWire { shm, state }
    }

    fn core(&self) -> &RankCore {
        &self.state.core
    }

    /// In multi-process mode liveness comes from the segment's peer
    /// table.
    fn peer(&self, target: Rank) -> Peer {
        if !self.shm.multiproc || target == self.state.rank {
            return Peer::Local;
        }
        match self.shm.seg.peer(target).state.load(Ordering::Acquire) {
            PEER_ATTACHED => Peer::Remote,
            PEER_ABSENT => Peer::Absent,
            _ => Peer::Gone,
        }
    }

    fn lock_tx(&self, target: Rank, how: LockDiscipline) -> NetResult<Self::Tx<'_>> {
        let guard = how
            .acquire(self.state.prod_lock(target))
            .ok_or(NetError::Retry(RetryReason::LockBusy))?;
        Ok((guard, self.state.outbound(target)))
    }

    fn send(&self, tx: &mut Self::Tx<'_>, h: &FrameHeader, payload: &[u8]) -> NetResult<()> {
        tx.1.produce(h, &[payload]).map_err(|e| match e {
            ProduceError::RingFull | ProduceError::SpillFull => {
                NetError::Retry(RetryReason::RxFull)
            }
            ProduceError::TooLarge => {
                NetError::fatal("payload exceeds the shm frame limit (spill region / 2)")
            }
        })
    }

    fn drain(
        &self,
        budget: usize,
        mut sink: impl FnMut(Rank, &FrameHeader, &[u8]) -> NetResult<Routed>,
    ) -> NetResult<()> {
        for src in 0..self.shm.seg.nranks() {
            let Some(_guard) = self.state.drain_lock(src).try_lock() else { continue };
            let chan = self.state.inbound(src);
            for _ in 0..budget {
                let Some(frame) = chan.peek() else { break };
                match sink(src, &frame.header, frame.payload())? {
                    Routed::Done => chan.release(&frame),
                    Routed::Parked(_) => break,
                }
            }
        }
        Ok(())
    }

    fn inbound_pending(&self) -> usize {
        self.state.inbound_occupancy()
    }

    fn stats(&self) -> TransportStats {
        TransportStats { shm_ring_hwm: self.state.ring_occ_hwm(), ..TransportStats::default() }
    }
}
