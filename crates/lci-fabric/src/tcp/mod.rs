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
//! The perf core is syscall amortization: posts *enqueue* an encoded
//! frame (one pooled contiguous buffer) on a per-peer send queue and
//! complete immediately; the progress path drains a whole queue into a
//! single `writev`, gathering one iovec per frame — no flatten copy.
//! Receives bulk-read into the decoder's reassembly slab. An
//! edge-triggered epoll instance per rank feeds a bridge thread that
//! re-arms each connection's `readable` / `write_blocked` flags, runs
//! the backstop flush of stale send queues, and converts socket
//! readiness into [`Doorbell`](crate::sync::Doorbell) rings — the
//! cross-host mirror of the shm futex bridge. Nothing in the workspace
//! waits on those device bells today (ROADMAP item 5, "fabric bell
//! plane"); the flags and the flush are what the bridge is kept for.
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

use crate::buf_pool::BufPool;
use crate::framed::RankCore;
use crate::shm::ring::FrameHeader;
use crate::sync::SpinLock;
use crate::types::{NetError, NetResult, RetryReason};
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::buf_pool::PoolBuf;
use stream::FrameDecoder;

/// Per-peer send-queue bounds: frames queued beyond these surface as
/// `Retry(RxFull)`, engaging the same backlog machinery as a full ring.
const SENDQ_FRAMES: usize = 4096;
const SENDQ_BYTES: usize = 8 << 20;

/// Decoded-but-unrouted inbound frames buffered per connection. A full
/// inbox pauses socket reads (TCP flow control backpressures the peer)
/// until routing unparks.
const INBOX_CAP: usize = 1024;

/// Socket-read budget per connection per poll cycle.
const READ_BUDGET: usize = 256 << 10;

/// Outcome of one connection-level I/O pass.
#[derive(PartialEq, Eq)]
pub(crate) enum ConnIo {
    Ok,
    /// The peer is gone (EOF / ECONNRESET / EPIPE) or the stream is
    /// corrupt; the caller marks the rank dead and wakes engines.
    Dead,
}

pub(crate) struct SendState {
    q: VecDeque<PoolBuf>,
    /// Bytes of the front frame already written (partial `writev`).
    head_off: usize,
    bytes: usize,
}

/// One reassembled inbound frame: the payload sits in a pooled buffer
/// that a routed send hands on to its wire message.
pub(crate) struct InFrame {
    pub(crate) header: FrameHeader,
    pub(crate) payload: PoolBuf,
}

struct RecvState {
    dec: FrameDecoder,
    inbox: VecDeque<InFrame>,
}

/// One mesh socket (this rank ↔ one peer) plus its queues and
/// readiness flags.
pub(crate) struct Conn {
    peer: usize,
    /// Keeps the fd alive; all I/O goes through raw `writev`/`readv`.
    _stream: TcpStream,
    fd: i32,
    send: SpinLock<SendState>,
    recv: SpinLock<RecvState>,
    /// Socket may have inbound bytes. Set by the bridge on EPOLLIN
    /// edges, cleared only when a read returns `EAGAIN` (with a re-read
    /// to close the edge race). Always true on non-evented platforms.
    readable: AtomicBool,
    /// A write hit `EAGAIN`; cleared by the bridge on EPOLLOUT edges.
    /// While set, flushing this connection is pointless — the edge
    /// clears it.
    write_blocked: AtomicBool,
    dead: AtomicBool,
    /// Frames currently queued for send (lock-free mirror of `q.len()`
    /// for `inbound_pending`).
    send_backlog: AtomicUsize,
    /// Bridge backstop bookkeeping: set when the bridge samples a
    /// non-empty send queue, cleared by any successful write. A queue
    /// still stale at the *next* sweep has a poster that stopped
    /// polling, and the bridge flushes it — posts complete locally, so
    /// without this a rank that blocks after its last post (an OOB
    /// collective, a worker join) would strand the frames forever.
    flush_stale: AtomicBool,
    /// Inbox occupancy + partial-frame hint (lock-free mirror for
    /// `inbound_pending`).
    recv_pending: AtomicUsize,
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
                q: VecDeque::with_capacity(SENDQ_FRAMES),
                head_off: 0,
                bytes: 0,
            }),
            recv: SpinLock::new(RecvState {
                dec: FrameDecoder::new(),
                inbox: VecDeque::with_capacity(INBOX_CAP),
            }),
            readable: AtomicBool::new(true),
            write_blocked: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            send_backlog: AtomicUsize::new(0),
            flush_stale: AtomicBool::new(false),
            recv_pending: AtomicUsize::new(0),
        })
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Queues one encoded frame. The caller holds the send lock.
    fn enqueue_locked(&self, g: &mut SendState, frame: PoolBuf) -> NetResult<()> {
        if self.is_dead() {
            return Err(NetError::fatal(format!("tcp peer rank {} has exited", self.peer)));
        }
        if g.q.len() >= SENDQ_FRAMES || g.bytes + frame.len() > SENDQ_BYTES {
            return Err(NetError::Retry(RetryReason::RxFull));
        }
        g.bytes += frame.len();
        g.q.push_back(frame);
        self.send_backlog.store(g.q.len(), Ordering::Release);
        Ok(())
    }

    /// Pops fully-written frames after a `writev` of `n` bytes; returns
    /// how many frames completed.
    fn advance_sent(&self, g: &mut SendState, mut n: usize) -> u64 {
        let mut done = 0;
        while n > 0 {
            let remaining = g.q.front().expect("wrote bytes of a frame").len() - g.head_off;
            if n >= remaining {
                let f = g.q.pop_front().expect("front exists");
                g.bytes -= f.len();
                g.head_off = 0;
                n -= remaining;
                done += 1;
            } else {
                g.head_off += n;
                n = 0;
            }
        }
        self.send_backlog.store(g.q.len(), Ordering::Release);
        self.flush_stale.store(false, Ordering::Release);
        done
    }

    /// Drains the send queue into as few `writev` calls as the socket
    /// accepts. Counters land in `state`. The caller holds the send
    /// lock.
    fn flush_locked(&self, g: &mut SendState, state: &TcpRankState) -> ConnIo {
        loop {
            if self.is_dead() {
                return ConnIo::Dead;
            }
            if g.q.is_empty() {
                return ConnIo::Ok;
            }
            if self.write_blocked.load(Ordering::Acquire) {
                return ConnIo::Ok;
            }
            match self.writev_once(g, state) {
                Ok(true) => continue,
                Ok(false) => {
                    // EAGAIN. Set the parked-is-safe flag, then probe once
                    // more: an EPOLLOUT edge between the failed write and
                    // the store would otherwise be lost forever.
                    if !sys::EVENTED {
                        return ConnIo::Ok;
                    }
                    self.write_blocked.store(true, Ordering::Release);
                    match self.writev_once(g, state) {
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

    /// One gather-write attempt. `Ok(true)` = progress, `Ok(false)` =
    /// `EAGAIN`, `Err` = peer gone.
    fn writev_once(&self, g: &mut SendState, state: &TcpRankState) -> Result<bool, ()> {
        let mut iovs = [sys::IoVec { base: std::ptr::null_mut(), len: 0 }; sys::MAX_IOV];
        let take = g.q.len().min(sys::MAX_IOV);
        for (i, f) in g.q.iter().take(take).enumerate() {
            let s: &[u8] = if i == 0 { &f[g.head_off..] } else { f };
            iovs[i] = sys::IoVec::from_slice(s);
        }
        match sys::writev(self.fd, &iovs[..take]) {
            Ok(n) => {
                let done = self.advance_sent(g, n);
                state.writev_calls.fetch_add(1, Ordering::Relaxed);
                state.writev_frames.fetch_add(done, Ordering::Relaxed);
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(false),
            Err(_) => Err(()),
        }
    }

    /// Reads the socket into the reassembly buffer and decodes complete
    /// frames into the inbox, staging payloads through `pool`. The
    /// caller holds the recv lock.
    fn fill_and_decode(&self, g: &mut RecvState, pool: &BufPool) -> ConnIo {
        let mut budget = READ_BUDGET;
        let status = loop {
            // Decode what is buffered before reading more.
            let mut corrupt = false;
            loop {
                if g.inbox.len() >= INBOX_CAP {
                    break;
                }
                match g.dec.decode_next() {
                    Ok(Some(f)) => {
                        let payload = pool.stage_copy(f.payload);
                        let header = f.header;
                        g.inbox.push_back(InFrame { header, payload });
                    }
                    Ok(None) => break,
                    // Corrupt stream: unrecoverable, treat as peer loss.
                    Err(_) => {
                        corrupt = true;
                        break;
                    }
                }
            }
            if corrupt {
                break ConnIo::Dead;
            }
            if g.inbox.len() >= INBOX_CAP || budget == 0 || self.is_dead() {
                break ConnIo::Ok;
            }
            if sys::EVENTED && !self.readable.load(Ordering::Acquire) {
                break ConnIo::Ok;
            }
            match self.read_once(g, &mut budget) {
                Ok(true) => continue,
                Ok(false) => {
                    if !sys::EVENTED {
                        break ConnIo::Ok;
                    }
                    // EAGAIN: clear the flag, then probe once more so an
                    // edge that fired between the failed read and the
                    // store cannot strand buffered bytes.
                    self.readable.store(false, Ordering::Release);
                    match self.read_once(g, &mut budget) {
                        Ok(true) => {
                            self.readable.store(true, Ordering::Release);
                            continue;
                        }
                        Ok(false) => break ConnIo::Ok,
                        Err(()) => break ConnIo::Dead,
                    }
                }
                Err(()) => break ConnIo::Dead,
            }
        };
        self.recv_pending.store(
            g.inbox.len() + usize::from(g.dec.pending_bytes() >= crate::shm::ring::HEADER_LEN),
            Ordering::Release,
        );
        status
    }

    /// One scatter-read attempt. `Ok(true)` = progress, `Ok(false)` =
    /// `EAGAIN`, `Err` = EOF or error (peer gone).
    fn read_once(&self, g: &mut RecvState, budget: &mut usize) -> Result<bool, ()> {
        let space = g.dec.fill_space();
        let cap = space.len().min(*budget);
        let mut iovs = [sys::IoVec::from_mut_slice(&mut space[..cap])];
        match sys::readv(self.fd, &mut iovs) {
            Ok(0) => Err(()),
            Ok(n) => {
                g.dec.advance_filled(n);
                *budget = budget.saturating_sub(n);
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(false),
            Err(_) => Err(()),
        }
    }

    /// Work hint for `inbound_pending`: anything that needs another
    /// poll rather than a doorbell ring to make progress.
    fn pending_hint(&self) -> usize {
        let mut n = self.recv_pending.load(Ordering::Acquire);
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
                TcpRankState::new(rank, self.nranks, conns)
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
    conns: Vec<Option<Arc<Conn>>>,
    /// The device registry, pending reads and wake count the framed
    /// core keeps per rank.
    pub(crate) core: RankCore,
    /// Peers observed gone on the mesh sockets.
    dead: Vec<AtomicBool>,
    /// `writev` syscalls that made progress / frames fully shipped.
    pub(crate) writev_calls: AtomicU64,
    pub(crate) writev_frames: AtomicU64,
    bridge_shutdown: Arc<AtomicBool>,
    bridge: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TcpRankState {
    fn new(rank: usize, nranks: usize, raw: Vec<Option<TcpStream>>) -> Arc<TcpRankState> {
        let mut conns: Vec<Option<Arc<Conn>>> = (0..nranks).map(|_| None).collect();
        for (peer, s) in raw.into_iter().enumerate() {
            if let Some(s) = s {
                conns[peer] =
                    Some(Arc::new(Conn::new(peer, s).expect("tcp conn setup (nodelay/nonblock)")));
            }
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        Arc::new_cyclic(|weak: &Weak<TcpRankState>| {
            let bridge = spawn_bridge(rank, &conns, shutdown.clone(), weak.clone());
            TcpRankState {
                conns,
                core: RankCore::new(),
                dead: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
                writev_calls: AtomicU64::new(0),
                writev_frames: AtomicU64::new(0),
                bridge_shutdown: shutdown,
                bridge: Mutex::new(bridge),
            }
        })
    }

    pub(crate) fn conn(&self, peer: usize) -> Option<&Arc<Conn>> {
        self.conns.get(peer).and_then(|c| c.as_ref())
    }

    /// Every mesh connection of this rank, with its peer.
    pub(crate) fn conns(&self) -> impl Iterator<Item = (usize, &Arc<Conn>)> {
        self.conns.iter().enumerate().filter_map(|(peer, c)| Some((peer, c.as_ref()?)))
    }

    pub(crate) fn peer_dead(&self, peer: usize) -> bool {
        self.dead.get(peer).map(|d| d.load(Ordering::Acquire)).unwrap_or(false)
    }

    /// Marks `peer` gone and wakes every engine so in-flight waits
    /// observe the death instead of parking forever. Idempotent.
    pub(crate) fn mark_peer_dead(&self, peer: usize) {
        if let Some(c) = self.conn(peer) {
            c.dead.store(true, Ordering::Release);
        }
        if !self.dead[peer].swap(true, Ordering::AcqRel) {
            self.core.ring_all_bells();
        }
    }

    /// Work queued on this rank's connections that needs polling (not a
    /// doorbell) to advance.
    pub(crate) fn conn_pending(&self) -> usize {
        self.conns.iter().flatten().map(|c| c.pending_hint()).sum()
    }

    /// Frames accepted by `post_send`/`post_write` but not yet flushed
    /// to a socket. Sends complete locally at post time (like a NIC
    /// accepting a WQE), so quiescence checks must count this: a rank
    /// that stops polling with frames still queued strands its peers.
    pub(crate) fn outbound_pending(&self) -> usize {
        self.conns.iter().flatten().map(|c| c.send_backlog.load(Ordering::Acquire)).sum()
    }

    /// Bridge-side flush backstop. Marks every non-empty send queue
    /// stale; a queue *already* stale from the previous sweep has sat
    /// a full bridge interval with no write — its poster stopped
    /// polling — so the bridge flushes it here. The one-interval grace
    /// keeps the fast path intact: an actively polled queue drains (and
    /// clears the mark) long before two sweeps pass, so batching still
    /// happens in `poll_cq` where frames accumulate between polls.
    /// Returns whether any queue was flushed.
    fn backstop_flush(&self) -> bool {
        let mut flushed = false;
        for (peer, c) in self.conns() {
            if c.is_dead() || c.send_backlog.load(Ordering::Acquire) == 0 {
                continue;
            }
            if !c.flush_stale.swap(true, Ordering::AcqRel) {
                continue; // first sighting: give the poster one interval
            }
            let Some(mut sg) = c.send.try_lock() else { continue };
            if c.flush_locked(&mut sg, self) == ConnIo::Dead {
                drop(sg);
                self.mark_peer_dead(peer);
            } else {
                flushed = true;
            }
        }
        flushed
    }
}

impl Drop for TcpRankState {
    fn drop(&mut self) {
        self.bridge_shutdown.store(true, Ordering::Release);
        if let Some(h) = self.bridge.lock().expect("bridge handle poisoned").take() {
            let _ = h.join();
        }
    }
}

/// The socket-readiness bridge: parks in `epoll_wait` over every mesh
/// socket of this rank, turns readiness edges into the connections'
/// `readable` / `write_blocked` flags and local
/// [`Doorbell`](crate::sync::Doorbell) rings (the tcp counterpart of
/// the shm futex bridge; no listener today, see the module docs), and
/// flushes send queues a rank stopped progressing on. On platforms
/// without epoll it degrades to a timed tick that re-arms the readable
/// flags.
fn spawn_bridge(
    rank: usize,
    conns: &[Option<Arc<Conn>>],
    shutdown: Arc<AtomicBool>,
    state: Weak<TcpRankState>,
) -> Option<std::thread::JoinHandle<()>> {
    #[cfg(target_os = "linux")]
    {
        let ep = sys::Epoll::new().expect("epoll_create1");
        let flat: Vec<Arc<Conn>> = conns.iter().flatten().cloned().collect();
        for c in &flat {
            ep.add(c.fd, c.peer as u64).expect("epoll_ctl add");
        }
        let handle = std::thread::Builder::new()
            .name(format!("lci-tcp-epoll{rank}"))
            .spawn(move || {
                // The state is built with `Arc::new_cyclic`, so the Weak
                // cannot upgrade until construction returns; only after
                // the first success does `None` mean "state dropped".
                while state.upgrade().is_none() {
                    if shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::yield_now();
                }
                loop {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    // Short wait while frames sit unflushed so the backstop
                    // (below) reaches an abandoned queue within ~2 ms; the
                    // long tick otherwise.
                    let timeout = match state.upgrade() {
                        Some(st) if st.outbound_pending() > 0 => 1,
                        Some(_) => 100,
                        None => break,
                    };
                    let mut woke = false;
                    let r = ep.wait(timeout, |tag, readable, writable| {
                        let Some(c) = flat.iter().find(|c| c.peer as u64 == tag) else { return };
                        if readable {
                            c.readable.store(true, Ordering::Release);
                            woke = true;
                        }
                        if writable && c.write_blocked.swap(false, Ordering::AcqRel) {
                            woke = true;
                        }
                    });
                    if r.is_err() {
                        break;
                    }
                    let Some(st) = state.upgrade() else { break };
                    woke |= st.backstop_flush();
                    if woke {
                        st.core.bridge_wake();
                    }
                }
            })
            .expect("failed to spawn tcp epoll bridge");
        Some(handle)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let flat: Vec<Arc<Conn>> = conns.iter().flatten().cloned().collect();
        let handle = std::thread::Builder::new()
            .name(format!("lci-tcp-tick{rank}"))
            .spawn(move || {
                // See the epoll bridge: the cyclic Weak upgrades only
                // after construction finishes.
                while state.upgrade().is_none() {
                    if shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::yield_now();
                }
                loop {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    for c in &flat {
                        c.readable.store(true, Ordering::Release);
                    }
                    let Some(st) = state.upgrade() else { break };
                    st.backstop_flush();
                    st.core.bridge_wake();
                }
            })
            .expect("failed to spawn tcp tick bridge");
        Some(handle)
    }
}
