//! The TCP backend (DESIGN.md §4.12): remote-rank transport behind the
//! same [`NetDevice`](crate::backend::NetDevice) trait as the sims and
//! the shm rings.
//!
//! Topology is a full connection mesh: one non-blocking `TCP_NODELAY`
//! socket per unordered rank pair, shared bidirectionally. Frames reuse
//! the shm 64-byte header followed by the payload on the byte stream
//! ([`stream`]); the device above the sockets is the framed core both
//! real wires share (`crate::framed`), so devices, RNR discipline,
//! and the zero-copy demux above ride unchanged.
//!
//! The perf core is syscall amortization, and nothing is staged twice.
//! A post *appends* its frame — header, then payload, the one copy — to
//! the connection's stream buffer and completes immediately; the
//! progress path writes whatever the buffer holds as a single iovec.
//! Receives bulk-read into the decoder's reassembly slab, and the drain
//! lends each frame to the router as a slice of that slab, exactly as
//! shm lends a ring slot; a frame the router parks stays at the slab's
//! head, and a slab full behind it is not read into (TCP flow control
//! is the backpressure).
//!
//! **Whoever polls asks the sockets.** Each rank owns an edge-triggered
//! epoll instance over its mesh sockets, and every drain begins with
//! one `epoll_wait(…, 0)` that turns edges into flags: `EPOLLIN` sets a
//! connection's `readable`, `EPOLLOUT` clears its `write_blocked`.
//! Several devices of a rank may drain at once; an edge goes to one of
//! them and the flags are atomics. The other halves belong to whoever
//! holds the connection's lock: a read clears `readable` *before* it
//! reads (see `Conn::read_once`), a write that hits `EAGAIN` sets
//! `write_blocked` and probes once more (see `Conn::flush_locked`).
//! One helper thread per rank remains, a timer with one job: the
//! backstop flush of a stream whose poster stopped polling
//! (`TcpRankState::backstop_flush`). It is on no message's path.
//!
//! Two modes, like shm: **in-process** (lazy loopback mesh, so any test
//! or bench switches with a `DeviceConfig` alone) and **multi-process**
//! ([`crate::bootstrap`] exchanges listener addresses through a root
//! service and dials the mesh). Peer death is an `ECONNRESET`/EOF on
//! the pair socket and surfaces exactly like a died shm peer.

#![cfg(unix)]

pub mod stream;
pub mod sys;

pub(crate) mod device;
pub(crate) mod oob;

#[cfg(test)]
mod tests;

use crate::framed::RankCore;
use crate::shm::ring::{FrameHeader, HEADER_LEN};
use crate::sync::SpinLock;
use crate::types::{NetError, NetResult, RetryReason};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

use stream::FrameDecoder;

/// Per-peer send bounds: frames or bytes queued beyond these surface as
/// `Retry(RxFull)`, engaging the same backlog machinery as a full ring.
const SENDQ_FRAMES: usize = 4096;
const SENDQ_BYTES: usize = 8 << 20;

/// Capacity a connection's stream buffer is built with and returns to
/// whenever a flush empties it — what the two queues it replaced held
/// empty (4096 pooled-buffer handles out, 1024 decoded frames in). Warm
/// traffic stays inside it and allocates nothing; a burst beyond it
/// first goes to the socket, grows the buffer only if the socket will
/// not take it, and gives the growth back once it has drained.
const STREAM_RESERVE: usize = 288 << 10;

/// Socket-read budget per connection per poll cycle.
const READ_BUDGET: usize = 256 << 10;

/// The backstop's naps: short while frames sit unflushed, so an
/// abandoned stream leaves within two of them; the long one bounds how
/// late it notices the first such frame.
const NAP_QUEUED: Duration = Duration::from_millis(1);
const NAP_IDLE: Duration = Duration::from_millis(20);

/// Outcome of one connection-level I/O pass.
#[derive(PartialEq, Eq)]
pub(crate) enum ConnIo {
    Ok,
    /// The peer is gone (EOF / ECONNRESET / EPIPE); the caller marks
    /// the rank dead.
    Dead,
}

/// Outbound frames of one connection: one byte stream, written from
/// `head_off`.
pub(crate) struct SendState {
    /// Encoded frames back to back, in the order they were accepted.
    stream: Vec<u8>,
    /// Bytes of `stream` the socket has taken (partial writes).
    head_off: usize,
    /// Frames appended since `stream` was last empty.
    frames: usize,
}

/// One mesh socket (this rank ↔ one peer) plus its buffers and
/// readiness flags.
pub(crate) struct Conn {
    peer: usize,
    /// Keeps the fd alive; all I/O goes through raw `writev`/`readv`.
    _stream: TcpStream,
    fd: i32,
    send: SpinLock<SendState>,
    recv: SpinLock<FrameDecoder>,
    /// Socket may have inbound bytes. Set by an `EPOLLIN` edge (any
    /// drain's `epoll_wait`), cleared by the recv-lock holder before it
    /// reads. Always true on non-evented platforms.
    readable: AtomicBool,
    /// A write hit `EAGAIN`; cleared by an `EPOLLOUT` edge. While set,
    /// flushing this connection is pointless.
    write_blocked: AtomicBool,
    dead: AtomicBool,
    /// Frames currently queued for send (lock-free mirror of
    /// `SendState::frames` for `outbound_pending`).
    send_backlog: AtomicUsize,
    /// Backstop bookkeeping: set when the bridge samples a non-empty
    /// stream, cleared by any successful write. A stream still stale at
    /// the *next* sweep has a poster that stopped polling, and the
    /// bridge flushes it — posts complete locally, so without this a
    /// rank that blocks after its last post (an OOB collective, a
    /// worker join) would strand the frames forever.
    flush_stale: AtomicBool,
    /// Whether the slab holds at least a header's worth of unrouted
    /// bytes (lock-free mirror for `inbound_pending`).
    recv_pending: AtomicBool,
}

impl Conn {
    fn new(peer: usize, stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let fd = stream.as_raw_fd();
        Ok(Conn {
            peer,
            _stream: stream,
            fd,
            send: SpinLock::new(SendState {
                stream: Vec::with_capacity(STREAM_RESERVE),
                head_off: 0,
                frames: 0,
            }),
            recv: SpinLock::new(FrameDecoder::new()),
            readable: AtomicBool::new(true),
            write_blocked: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            send_backlog: AtomicUsize::new(0),
            flush_stale: AtomicBool::new(false),
            recv_pending: AtomicBool::new(false),
        })
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn gone(&self) -> NetError {
        NetError::fatal(format!("tcp peer rank {} has exited", self.peer))
    }

    /// Appends one frame to the stream. The caller holds the send lock.
    fn append_locked(
        &self,
        g: &mut SendState,
        state: &TcpRankState,
        h: &FrameHeader,
        payload: &[u8],
    ) -> NetResult<()> {
        if self.is_dead() {
            return Err(self.gone());
        }
        let need = HEADER_LEN + payload.len();
        if g.frames >= SENDQ_FRAMES || g.stream.len() - g.head_off + need > SENDQ_BYTES {
            return Err(NetError::Retry(RetryReason::RxFull));
        }
        if g.stream.len() + need > g.stream.capacity() {
            // Out of room: what is queued goes to the socket now rather
            // than into a bigger buffer, and what the socket has taken
            // makes room. Only a socket that will not take it — real
            // backpressure — leaves the append below to grow the buffer.
            if self.flush_locked(g, state) == ConnIo::Dead {
                state.mark_peer_dead(self.peer);
                return Err(self.gone());
            }
            g.stream.drain(..g.head_off);
            g.head_off = 0;
        }
        stream::encode_frame(&mut g.stream, h, payload)
            .map_err(|_| NetError::fatal("payload exceeds the tcp frame limit"))?;
        g.frames += 1;
        self.send_backlog.store(g.frames, Ordering::Release);
        Ok(())
    }

    /// Writes the stream out in as few `writev` calls as the socket
    /// accepts. Counters land in `state`. The caller holds the send
    /// lock.
    fn flush_locked(&self, g: &mut SendState, state: &TcpRankState) -> ConnIo {
        loop {
            if self.is_dead() {
                return ConnIo::Dead;
            }
            if g.frames == 0 || self.write_blocked.load(Ordering::Acquire) {
                return ConnIo::Ok;
            }
            match self.write_once(g, state) {
                Ok(true) => continue,
                Ok(false) => {
                    // EAGAIN. Set the parked-is-safe flag, then probe once
                    // more: an EPOLLOUT edge a sibling's `epoll_wait`
                    // consumed between the failed write and the store
                    // would otherwise be lost forever.
                    if !sys::EVENTED {
                        return ConnIo::Ok;
                    }
                    self.write_blocked.store(true, Ordering::SeqCst);
                    match self.write_once(g, state) {
                        Ok(true) => {
                            self.write_blocked.store(false, Ordering::Release);
                            continue;
                        }
                        Ok(false) => return ConnIo::Ok,
                        Err(()) => return ConnIo::Dead,
                    }
                }
                Err(()) => return ConnIo::Dead,
            }
        }
    }

    /// One write attempt of everything from `head_off`, as one iovec.
    /// `Ok(true)` = progress, `Ok(false)` = `EAGAIN`, `Err` = peer gone.
    /// The write that carries the stream's last byte counts its frames
    /// and hands the buffer's growth back.
    fn write_once(&self, g: &mut SendState, state: &TcpRankState) -> Result<bool, ()> {
        match sys::writev(self.fd, &[sys::IoVec::from_slice(&g.stream[g.head_off..])]) {
            Ok(n) => {
                g.head_off += n;
                state.writev_calls.fetch_add(1, Ordering::Relaxed);
                self.flush_stale.store(false, Ordering::Release);
                if g.head_off == g.stream.len() {
                    state.writev_frames.fetch_add(g.frames as u64, Ordering::Relaxed);
                    (g.head_off, g.frames) = (0, 0);
                    g.stream.clear();
                    g.stream.shrink_to(STREAM_RESERVE);
                    self.send_backlog.store(0, Ordering::Release);
                }
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(false),
            Err(_) => Err(()),
        }
    }

    /// One *clear-then-read* attempt into the slab, at most `budget`
    /// bytes. `Ok(true)` = bytes arrived, `Ok(false)` = nothing to do
    /// (not readable, `EAGAIN`, no budget, or a slab full behind a
    /// frame the router parked), `Err` = EOF or error (peer gone). The
    /// caller holds the recv lock, so it is the only one clearing
    /// `readable`.
    ///
    /// The flag is cleared *before* the read and set again only by a
    /// read that filled everything it was offered (more may be
    /// waiting). Bytes that were in the socket before the clear are
    /// read by this very call; bytes that arrive after it raise a new
    /// edge, which sets the flag again behind the clear — so a short
    /// read or `EAGAIN` can leave it cleared without a second probe,
    /// and nothing is stranded. The clear is `SeqCst` so that no
    /// platform lets it drift past the kernel's look at the socket.
    fn read_once(&self, dec: &mut FrameDecoder, budget: &mut usize) -> Result<bool, ()> {
        if sys::EVENTED && !self.readable.load(Ordering::Acquire) {
            return Ok(false);
        }
        let space = dec.fill_space();
        let cap = space.len().min(*budget);
        if cap == 0 {
            return Ok(false);
        }
        if sys::EVENTED {
            self.readable.store(false, Ordering::SeqCst);
        }
        match sys::readv(self.fd, &mut [sys::IoVec::from_mut_slice(&mut space[..cap])]) {
            Ok(0) => Err(()),
            Ok(n) => {
                dec.advance_filled(n);
                *budget -= n;
                if n == cap {
                    self.readable.store(true, Ordering::Release);
                }
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(false),
            Err(_) => Err(()),
        }
    }

    /// Work hint for `inbound_pending`: anything that needs another
    /// poll to make progress.
    fn pending_hint(&self) -> usize {
        let mut n = usize::from(self.recv_pending.load(Ordering::Acquire));
        if self.readable.load(Ordering::Acquire) && !self.is_dead() {
            n += 1;
        }
        if self.send_backlog.load(Ordering::Acquire) > 0
            && !self.write_blocked.load(Ordering::Acquire)
        {
            n += 1;
        }
        n
    }
}

/// Fabric-level TCP state: the mesh sockets plus per-local-rank runtime
/// state, created lazily per rank (mirrors [`crate::shm::ShmFabric`]).
pub(crate) struct TcpFabric {
    nranks: usize,
    pub(crate) multiproc: bool,
    pub(crate) my_rank: usize,
    states: Vec<OnceLock<Arc<TcpRankState>>>,
    /// Pre-established sockets for ranks hosted in this process, taken
    /// when the rank's state is first built. `pending[rank][peer]`.
    pending: Mutex<Vec<Vec<Option<TcpStream>>>>,
    /// Root-service OOB channel (multi-process mode only).
    pub(crate) oob: Option<oob::OobClient>,
}

impl TcpFabric {
    /// In-process mode: a loopback socket pair per rank pair, built
    /// eagerly so single-process tests and benches measure the real
    /// socket stack.
    // Symmetric `pending[i][j]`/`pending[j][i]` writes: index loops are
    // the clear form here.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn in_process(nranks: usize) -> std::io::Result<TcpFabric> {
        let mut pending: Vec<Vec<Option<TcpStream>>> =
            (0..nranks).map(|_| (0..nranks).map(|_| None).collect()).collect();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        for i in 0..nranks {
            for j in i + 1..nranks {
                let a = TcpStream::connect(addr)?;
                let (b, _) = listener.accept()?;
                pending[i][j] = Some(a);
                pending[j][i] = Some(b);
            }
        }
        Ok(TcpFabric {
            nranks,
            multiproc: false,
            my_rank: 0,
            states: (0..nranks).map(|_| OnceLock::new()).collect(),
            pending: Mutex::new(pending),
            oob: None,
        })
    }

    /// Multi-process mode: this process owns exactly `my_rank`; `conns`
    /// holds the established mesh socket per peer (None at `my_rank`).
    pub(crate) fn attached(
        conns: Vec<Option<TcpStream>>,
        my_rank: usize,
        nranks: usize,
        oob: oob::OobClient,
    ) -> TcpFabric {
        let mut pending: Vec<Vec<Option<TcpStream>>> =
            (0..nranks).map(|_| (0..nranks).map(|_| None).collect()).collect();
        pending[my_rank] = conns;
        TcpFabric {
            nranks,
            multiproc: true,
            my_rank,
            states: (0..nranks).map(|_| OnceLock::new()).collect(),
            pending: Mutex::new(pending),
            oob: Some(oob),
        }
    }

    /// The runtime state for a rank hosted by this process, created on
    /// first use (when its first tcp device is built).
    pub(crate) fn state(&self, rank: usize) -> Arc<TcpRankState> {
        debug_assert!(!self.multiproc || rank == self.my_rank);
        self.states[rank]
            .get_or_init(|| {
                let conns = std::mem::take(&mut self.pending.lock().expect("pending")[rank]);
                TcpRankState::new(rank, conns)
            })
            .clone()
    }

    /// First peer known dead on any locally hosted rank (multi-process
    /// mode only: in-process "peers" share this process's fate).
    pub(crate) fn dead_peer(&self) -> Option<usize> {
        if !self.multiproc {
            return None;
        }
        let st = self.states[self.my_rank].get()?;
        (0..self.nranks).find(|&r| st.peer_dead(r))
    }
}

/// Per-(process, rank) runtime state for the tcp transport.
pub(crate) struct TcpRankState {
    conns: Vec<Option<Conn>>,
    /// Edge-triggered readiness of every mesh socket, tagged by peer.
    /// Asked by every drain ([`poll_readiness`](Self::poll_readiness)).
    epoll: sys::Epoll,
    /// The device registry and pending reads the framed core keeps per
    /// rank.
    pub(crate) core: RankCore,
    /// `writev` syscalls that made progress / frames fully shipped.
    pub(crate) writev_calls: AtomicU64,
    pub(crate) writev_frames: AtomicU64,
    bridge: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TcpRankState {
    fn new(rank: usize, raw: Vec<Option<TcpStream>>) -> Arc<TcpRankState> {
        let epoll = sys::Epoll::new().expect("epoll_create1");
        let conns = raw.into_iter().enumerate().map(|(peer, s)| {
            let c = Conn::new(peer, s?).expect("tcp conn setup (nodelay/nonblock)");
            epoll.add(c.fd, peer as u64).expect("epoll_ctl add");
            Some(c)
        });
        let state = Arc::new(TcpRankState {
            conns: conns.collect(),
            epoll,
            core: RankCore::default(),
            writev_calls: AtomicU64::new(0),
            writev_frames: AtomicU64::new(0),
            bridge: Mutex::new(None),
        });
        let bridge = spawn_bridge(rank, Arc::downgrade(&state));
        *state.bridge.lock().expect("bridge handle poisoned") = Some(bridge);
        state
    }

    pub(crate) fn conn(&self, peer: usize) -> Option<&Conn> {
        self.conns.get(peer).and_then(|c| c.as_ref())
    }

    /// Every mesh connection of this rank, with its peer.
    pub(crate) fn conns(&self) -> impl Iterator<Item = (usize, &Conn)> {
        self.conns.iter().enumerate().filter_map(|(peer, c)| Some((peer, c.as_ref()?)))
    }

    /// Whether `peer` was observed gone on its mesh socket.
    pub(crate) fn peer_dead(&self, peer: usize) -> bool {
        self.conn(peer).is_some_and(Conn::is_dead)
    }

    /// Marks `peer` gone; posts toward it and polls observe the flag.
    /// Idempotent.
    pub(crate) fn mark_peer_dead(&self, peer: usize) {
        if let Some(c) = self.conn(peer) {
            c.dead.store(true, Ordering::Release);
        }
    }

    /// One `epoll_wait(…, 0)`: turns the readiness edges that fired
    /// since the last call into the connections' flags. Callers race
    /// freely; each edge is reported to exactly one of them.
    pub(crate) fn poll_readiness(&self) {
        // An error other than EINTR cannot happen on a live epoll fd;
        // if it did, the flags would simply stop moving.
        let _ = self.epoll.wait(0, |peer, readable, writable| {
            let Some(c) = self.conn(peer as usize) else { return };
            if readable {
                c.readable.store(true, Ordering::Release);
            }
            if writable {
                c.write_blocked.store(false, Ordering::Release);
            }
        });
    }

    /// Work queued on this rank's connections that needs polling to
    /// advance.
    pub(crate) fn conn_pending(&self) -> usize {
        self.conns().map(|(_, c)| c.pending_hint()).sum()
    }

    /// Frames accepted by `post_send`/`post_write` but not yet flushed
    /// to a socket. Sends complete locally at post time (like a NIC
    /// accepting a WQE), so quiescence checks must count this: a rank
    /// that stops polling with frames still queued strands its peers.
    pub(crate) fn outbound_pending(&self) -> usize {
        self.conns().map(|(_, c)| c.send_backlog.load(Ordering::Acquire)).sum()
    }

    /// The flush backstop, run by the bridge. Marks every non-empty
    /// stream stale; a stream *already* stale from the previous sweep
    /// has sat a full nap with no write — its poster stopped polling —
    /// so it is flushed here, after asking the sockets as that poster's
    /// drain would have (nobody else will learn that a blocked one
    /// drained). The one-nap grace keeps the fast path intact: an
    /// actively polled stream drains (and clears the mark) long before
    /// two sweeps pass, so batching still happens in `poll_cq` where
    /// frames accumulate between polls.
    fn backstop_flush(&self) {
        let mut asked = false;
        for (peer, c) in self.conns() {
            if c.is_dead() || c.send_backlog.load(Ordering::Acquire) == 0 {
                continue;
            }
            if !c.flush_stale.swap(true, Ordering::AcqRel) {
                continue; // first sighting: give the poster one nap
            }
            if !std::mem::replace(&mut asked, true) {
                self.poll_readiness();
            }
            let Some(mut sg) = c.send.try_lock() else { continue };
            if c.flush_locked(&mut sg, self) == ConnIo::Dead {
                drop(sg);
                self.mark_peer_dead(peer);
            }
        }
    }
}

impl Drop for TcpRankState {
    fn drop(&mut self) {
        let Some(bridge) = self.bridge.get_mut().ok().and_then(Option::take) else { return };
        // It finds the state gone as soon as it looks; wake it so that
        // it looks now, not at the end of its nap.
        bridge.thread().unpark();
        // The last reference may be the bridge's own, held over a
        // sweep: a thread cannot join itself, and need not.
        if bridge.thread().id() != std::thread::current().id() {
            let _ = bridge.join();
        }
    }
}

/// The bridge: a timer whose one job is the backstop flush. It holds
/// the state only over a sweep, so it never keeps a rank alive, and it
/// leaves when the state is gone — unparked by the state's `Drop`.
fn spawn_bridge(rank: usize, state: Weak<TcpRankState>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("lci-tcp-epoll{rank}"))
        .spawn(move || {
            while let Some(st) = state.upgrade() {
                st.backstop_flush();
                let nap = if st.outbound_pending() > 0 { NAP_QUEUED } else { NAP_IDLE };
                drop(st);
                std::thread::park_timeout(nap);
            }
        })
        .expect("failed to spawn the tcp backstop bridge")
}
