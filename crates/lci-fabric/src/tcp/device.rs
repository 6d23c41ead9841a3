//! The tcp [`Wire`]: a real socket mesh under the framed device core
//! ([`crate::framed`]).
//!
//! Sending encodes the frame into one contiguous pooled buffer and
//! *enqueues* it on the per-peer send queue — the post completes
//! locally, like a NIC accepting a WQE. The drain (the progress path)
//! then flushes each queue into as few `writev` calls as the socket
//! accepts (each queued frame is one iovec; no flatten copy), bulk-reads
//! inbound bytes into the stream decoder, and lends each reassembled
//! frame, in its pooled decode buffer, to the core's router; a frame the
//! router parks stays at the inbox front with that buffer.

use super::stream;
use super::{Conn, ConnIo, InFrame, SendState, TcpRankState};
use crate::backend::TransportStats;
use crate::buf_pool::BufPool;
use crate::fabric::Fabric;
use crate::framed::{InPayload, Peer, RankCore, Routed, Wire};
use crate::shm::ring::{FrameHeader, HEADER_LEN};
use crate::sync::{LockDiscipline, SpinGuard};
use crate::types::{NetError, NetResult, Rank, RetryReason};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One rank's end of the mesh, seen through one device's staging pool.
pub(crate) struct TcpWire {
    state: Arc<TcpRankState>,
    rank: Rank,
    /// Ranks live in different processes (bootstrap attach).
    multiproc: bool,
    /// Outbound frames are encoded into, and inbound payloads decoded
    /// into, the device's recycled buffers.
    pool: BufPool,
}

impl Wire for TcpWire {
    const NAME: &'static str = "tcp";
    /// No socket to oneself: the core routes self-targets directly.
    const SELF_CHANNEL: bool = false;
    /// The in-process mesh exists to exercise the socket path: every
    /// one-sided payload rides it, as it must between hosts.
    const LOCAL_DIRECT: bool = false;
    type Tx<'a> = (SpinGuard<'a, SendState>, &'a Conn);

    fn open(fabric: &Arc<Fabric>, rank: Rank, pool: &BufPool) -> Self {
        let tcp = fabric.tcp_fabric();
        TcpWire { state: tcp.state(rank), rank, multiproc: tcp.multiproc, pool: pool.clone() }
    }

    fn core(&self) -> &RankCore {
        &self.state.core
    }

    /// The mesh is fully connected at attach, so cross-process the only
    /// failure is a dead peer.
    fn peer(&self, target: Rank) -> Peer {
        if self.state.peer_dead(target) {
            Peer::Gone
        } else if self.multiproc && target != self.rank {
            Peer::Remote
        } else {
            Peer::Local
        }
    }

    fn lock_tx(&self, target: Rank, how: LockDiscipline) -> NetResult<Self::Tx<'_>> {
        let conn = self
            .state
            .conn(target)
            .ok_or_else(|| NetError::fatal(format!("no tcp connection to rank {target}")))?;
        let guard = how.acquire(&conn.send).ok_or(NetError::Retry(RetryReason::LockBusy))?;
        Ok((guard, conn))
    }

    /// The socket flush happens on the progress path.
    fn send(&self, tx: &mut Self::Tx<'_>, h: &FrameHeader, payload: &[u8]) -> NetResult<()> {
        let frame = stream::encode_frame(&self.pool, h, &[payload])
            .ok_or_else(|| NetError::fatal("payload exceeds the tcp frame limit"))?;
        tx.1.enqueue_locked(&mut tx.0, frame)
    }

    /// Flushes send queues and drains inbound sockets for every
    /// connection of this rank.
    fn drain(
        &self,
        budget: usize,
        mut sink: impl FnMut(Rank, &FrameHeader, InPayload<'_>) -> NetResult<Routed>,
    ) -> NetResult<()> {
        for (peer, conn) in self.state.conns() {
            if !conn.is_dead() {
                if let Some(mut sg) = conn.send.try_lock() {
                    if conn.flush_locked(&mut sg, &self.state) == ConnIo::Dead {
                        self.state.mark_peer_dead(peer);
                    }
                }
            }
            let Some(mut rg) = conn.recv.try_lock() else { continue };
            if !conn.is_dead() && conn.fill_and_decode(&mut rg, &self.pool) == ConnIo::Dead {
                self.state.mark_peer_dead(peer);
            }
            // A dead peer's inbox is still routed: what it sent before it
            // went away (its last messages, then a clean exit) arrived.
            for _ in 0..budget {
                let Some(InFrame { header, payload }) = rg.inbox.front_mut() else { break };
                match sink(peer, header, InPayload::Pooled(payload))? {
                    Routed::Done => drop(rg.inbox.pop_front()),
                    Routed::Parked(_) => break,
                }
            }
            conn.recv_pending.store(
                rg.inbox.len() + usize::from(rg.dec.pending_bytes() >= HEADER_LEN),
                Ordering::Release,
            );
        }
        Ok(())
    }

    fn inbound_pending(&self) -> usize {
        self.state.conn_pending()
    }

    fn outbound_pending(&self) -> usize {
        self.state.outbound_pending()
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            tcp_writev_calls: self.state.writev_calls.load(Ordering::Relaxed),
            tcp_writev_frames: self.state.writev_frames.load(Ordering::Relaxed),
            ..TransportStats::default()
        }
    }

    fn flush(&self) {
        for (_, conn) in self.state.conns() {
            let _ = conn.flush_locked(&mut conn.send.lock(), &self.state);
        }
    }
}
