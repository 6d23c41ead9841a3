//! The tcp [`Wire`]: a real socket mesh under the framed device core
//! ([`crate::framed`]).
//!
//! Sending *appends* the frame to the per-peer stream buffer — the post
//! completes locally, like a NIC accepting a WQE. The drain (the
//! progress path) asks the rank's sockets what changed (one
//! `epoll_wait(…, 0)`; whoever polls sets the readiness flags), then per
//! connection writes the stream out in as few `writev` calls as the
//! socket accepts, bulk-reads inbound bytes into the reassembly slab and
//! lends each complete frame to the core's router as a slice of that
//! slab, as shm lends a ring slot; a frame the router parks is simply
//! not consumed.

use super::{Conn, ConnIo, SendState, TcpRankState, READ_BUDGET};
use crate::backend::TransportStats;
use crate::buf_pool::BufPool;
use crate::fabric::Fabric;
use crate::framed::{Peer, RankCore, Routed, Wire};
use crate::shm::ring::{FrameHeader, HEADER_LEN};
use crate::sync::{LockDiscipline, SpinGuard};
use crate::types::{NetError, NetResult, Rank, RetryReason};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One rank's end of the mesh.
pub(crate) struct TcpWire {
    state: Arc<TcpRankState>,
    rank: Rank,
    /// Ranks live in different processes (bootstrap attach).
    multiproc: bool,
}

impl Wire for TcpWire {
    const NAME: &'static str = "tcp";
    /// No socket to oneself: the core routes self-targets directly.
    const SELF_CHANNEL: bool = false;
    /// The in-process mesh exists to exercise the socket path: every
    /// one-sided payload rides it, as it must between hosts.
    const LOCAL_DIRECT: bool = false;
    type Tx<'a> = (SpinGuard<'a, SendState>, &'a Conn);

    /// Frames are built in the stream buffer and lent from the slab:
    /// nothing of this wire goes through the device's pool.
    fn open(fabric: &Arc<Fabric>, rank: Rank, _pool: &BufPool) -> Self {
        let tcp = fabric.tcp_fabric();
        TcpWire { state: tcp.state(rank), rank, multiproc: tcp.multiproc }
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

    /// The socket write happens on the progress path.
    fn send(&self, tx: &mut Self::Tx<'_>, h: &FrameHeader, payload: &[u8]) -> NetResult<()> {
        tx.1.append_locked(&mut tx.0, &self.state, h, payload)
    }

    /// Asks the sockets, then per connection flushes the stream and
    /// routes what has arrived, reading more while the router keeps up.
    fn drain(
        &self,
        budget: usize,
        mut sink: impl FnMut(Rank, &FrameHeader, &[u8]) -> NetResult<Routed>,
    ) -> NetResult<()> {
        self.state.poll_readiness();
        for (peer, conn) in self.state.conns() {
            if !conn.is_dead() {
                if let Some(mut sg) = conn.send.try_lock() {
                    if conn.flush_locked(&mut sg, &self.state) == ConnIo::Dead {
                        self.state.mark_peer_dead(peer);
                    }
                }
            }
            let Some(mut dec) = conn.recv.try_lock() else { continue };
            let (mut frames, mut bytes) = (budget, READ_BUDGET);
            let routed = loop {
                match dec.peek() {
                    // What a dead peer sent before it went away (its last
                    // messages, then a clean exit) arrived: still routed.
                    Ok(Some(_)) if frames == 0 => break Ok(()),
                    Ok(Some((h, payload))) => match sink(peer, &h, payload) {
                        Ok(Routed::Done) => {
                            dec.consume();
                            frames -= 1;
                        }
                        Ok(Routed::Parked(_)) => break Ok(()),
                        Err(e) => break Err(e),
                    },
                    Ok(None) if conn.is_dead() => break Ok(()),
                    Ok(None) => match conn.read_once(&mut dec, &mut bytes) {
                        Ok(true) => {}
                        Ok(false) => break Ok(()),
                        Err(()) => self.state.mark_peer_dead(peer),
                    },
                    // Corrupt stream: unrecoverable, treat as peer loss.
                    Err(_) => {
                        self.state.mark_peer_dead(peer);
                        break Ok(());
                    }
                }
            };
            conn.recv_pending.store(dec.pending_bytes() >= HEADER_LEN, Ordering::Release);
            routed?;
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
