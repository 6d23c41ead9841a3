//! The per-thread endpoint: active messages, send-receive, progress,
//! and quiescence over whichever library backs the world.

use crossbeam::queue::SegQueue;
use lci::{Comp, CompKind, PostResult};
use lci_baselines::{Gasnet, MpiComm, VciComm, ANY_SOURCE, ANY_TAG};
use lci_fabric::{Fabric, Rank};
use std::collections::VecDeque;
use std::sync::Arc;

/// A received message.
#[derive(Debug)]
pub struct Msg {
    /// Source rank.
    pub src: Rank,
    /// Message tag.
    pub tag: u32,
    /// Payload.
    pub data: Vec<u8>,
}

/// A pending receive handle.
pub enum RecvToken {
    /// LCI synchronizer.
    Lci(Comp),
    /// Baseline channel request.
    Chan(lci_baselines::Request),
}

/// Why [`Endpoint::quiesce`] gave up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuiesceError {
    /// A peer process exited or died mid-conversation (shared-memory
    /// transport only; the sims cannot lose a rank).
    PeerDead(Rank),
    /// The endpoint still had in-flight work when the timeout expired.
    Timeout,
}

impl std::fmt::Display for QuiesceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuiesceError::PeerDead(r) => write!(f, "peer rank {r} exited or died"),
            QuiesceError::Timeout => write!(f, "quiesce timed out with work in flight"),
        }
    }
}

impl std::error::Error for QuiesceError {}

/// How many pre-posted AM receives the MPI/VCI endpoints keep.
const MPI_AM_PREPOST: usize = 32;

/// The pre-posted ANY/ANY receive pool for MPI-style AM emulation.
///
/// Shared across every endpoint of a channel: with in-order wildcard
/// matching, an arrival may complete *any* posted request, so a
/// per-thread pool would strand messages in the queue of a thread that
/// stopped polling (the shared-resource hazard the paper's §5.2
/// microbenchmarks exercise).
pub(crate) type AmPool = Arc<parking_lot::Mutex<VecDeque<lci_baselines::Request>>>;

pub(crate) enum EpInner {
    Lci { rt: lci::Runtime, device: lci::Device, am_cq: Comp, rcomp: u32, noop: Comp },
    Mpi { comm: MpiComm, am_recvs: AmPool },
    Vci { comm: VciComm, vci: usize, am_recvs: AmPool },
    Gasnet { g: Arc<Gasnet>, inbox: Arc<SegQueue<Msg>> },
}

/// A per-thread communication endpoint.
pub struct Endpoint {
    pub(crate) inner: EpInner,
    pub(crate) fabric: Arc<Fabric>,
    pub(crate) nranks: usize,
    pub(crate) rank: Rank,
}

impl Endpoint {
    /// This rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.nranks
    }

    /// Non-blocking active message. Returns `false` when the library
    /// asks the caller to retry (temporary resource shortage).
    pub fn send_am(&mut self, dst: Rank, data: &[u8], tag: u32) -> bool {
        match &mut self.inner {
            EpInner::Lci { rt, device, rcomp, noop, .. } => {
                match rt
                    .post_am_x(dst, data, noop.clone(), *rcomp)
                    .tag(tag)
                    .device(device)
                    .call()
                    .expect("lci am")
                {
                    PostResult::Done(_) | PostResult::Posted => true,
                    PostResult::Retry(_) => false,
                }
            }
            EpInner::Mpi { comm, .. } => {
                // MPI AMs: plain isend; the receiver's pre-posted irecvs
                // play the AM buffer pool (paper §5.2).
                let r = comm.isend(dst, data.to_vec(), tag);
                let _ = r; // completes when staged; nothing to track
                true
            }
            EpInner::Vci { comm, vci, .. } => {
                let r = comm.isend(*vci, dst, data.to_vec(), tag);
                let _ = r;
                true
            }
            EpInner::Gasnet { g, .. } => g.am_try_request_medium(dst, 0, tag, data),
        }
    }

    /// Polls for a delivered active message.
    pub fn poll_msg(&mut self) -> Option<Msg> {
        match &mut self.inner {
            EpInner::Lci { am_cq, .. } => {
                let desc = am_cq.pop()?;
                debug_assert_eq!(desc.kind, CompKind::Am);
                Some(Msg { src: desc.rank, tag: desc.tag, data: desc.data.into_vec() })
            }
            EpInner::Mpi { comm, am_recvs } => {
                let mut pool = am_recvs.lock();
                Self::fill_am_recvs(&mut pool, |s, t, m| comm.irecv(s, t, m));
                let front = pool.front()?;
                if front.is_done() {
                    let req = pool.pop_front().unwrap();
                    let st = req.take_status().expect("status");
                    Some(Msg { src: st.src, tag: st.tag, data: st.data })
                } else {
                    None
                }
            }
            EpInner::Vci { comm, vci, am_recvs } => {
                let v = *vci;
                let mut pool = am_recvs.lock();
                Self::fill_am_recvs(&mut pool, |s, t, m| comm.irecv(v, s, t, m));
                let front = pool.front()?;
                if front.is_done() {
                    let req = pool.pop_front().unwrap();
                    let st = req.take_status().expect("status");
                    Some(Msg { src: st.src, tag: st.tag, data: st.data })
                } else {
                    None
                }
            }
            EpInner::Gasnet { inbox, .. } => inbox.pop(),
        }
    }

    fn fill_am_recvs(
        q: &mut VecDeque<lci_baselines::Request>,
        mut post: impl FnMut(Rank, u32, usize) -> lci_baselines::Request,
    ) {
        while q.len() < MPI_AM_PREPOST {
            q.push_back(post(ANY_SOURCE, ANY_TAG, 65536));
        }
    }

    /// Non-blocking two-sided send. `false` = retry.
    pub fn send(&mut self, dst: Rank, data: &[u8], tag: u32) -> bool {
        match &mut self.inner {
            EpInner::Lci { rt, device, noop, .. } => {
                match rt
                    .post_send_x(dst, data, tag, noop.clone())
                    .device(device)
                    .call()
                    .expect("lci send")
                {
                    PostResult::Done(_) | PostResult::Posted => true,
                    PostResult::Retry(_) => false,
                }
            }
            EpInner::Mpi { comm, .. } => {
                comm.isend(dst, data.to_vec(), tag);
                true
            }
            EpInner::Vci { comm, vci, .. } => {
                comm.isend(*vci, dst, data.to_vec(), tag);
                true
            }
            EpInner::Gasnet { .. } => panic!("GASNet LCW does not support send-receive"),
        }
    }

    /// Posts a two-sided receive; pair with
    /// [`test_recv`](Endpoint::test_recv).
    pub fn post_recv(&mut self, src: Rank, tag: u32, max_size: usize) -> RecvToken {
        match &mut self.inner {
            EpInner::Lci { rt, device, .. } => {
                let comp = Comp::alloc_sync(1);
                match rt
                    .post_recv_x(src, vec![0u8; max_size], tag, comp.clone())
                    .device(device)
                    .call()
                    .expect("lci recv")
                {
                    PostResult::Done(desc) => {
                        // Deliver through the synchronizer for uniformity.
                        comp.signal(desc);
                        RecvToken::Lci(comp)
                    }
                    PostResult::Posted => RecvToken::Lci(comp),
                    PostResult::Retry(_) => unreachable!("lci recv never retries"),
                }
            }
            EpInner::Mpi { comm, .. } => RecvToken::Chan(comm.irecv(src, tag, max_size)),
            EpInner::Vci { comm, vci, .. } => RecvToken::Chan(comm.irecv(*vci, src, tag, max_size)),
            EpInner::Gasnet { .. } => panic!("GASNet LCW does not support send-receive"),
        }
    }

    /// Tests a pending receive; returns the message when complete.
    pub fn test_recv(&mut self, token: &RecvToken) -> Option<Msg> {
        match token {
            RecvToken::Lci(comp) => {
                let sync = comp.as_sync().expect("sync token");
                if sync.test() {
                    let desc = sync.take().pop().expect("desc");
                    Some(Msg { src: desc.rank, tag: desc.tag, data: desc.data.into_vec() })
                } else {
                    None
                }
            }
            RecvToken::Chan(req) => {
                if req.is_done() {
                    let st = req.take_status().expect("status");
                    Some(Msg { src: st.src, tag: st.tag, data: st.data })
                } else {
                    None
                }
            }
        }
    }

    /// Whether this endpoint has no in-flight work that still needs its
    /// progress (pending rendezvous handshakes, backlogged sends).
    ///
    /// A worker that stops calling [`progress`](Endpoint::progress)
    /// before `quiesced()` holds can strand a zero-copy transfer: the
    /// destination counts the message only after the FIN, which needs
    /// the *source* to serve the RTR.
    pub fn quiesced(&self) -> bool {
        match &self.inner {
            EpInner::Lci { device, .. } => {
                let (s, r) = device.pending_rendezvous();
                s == 0
                    && r == 0
                    && device.backlog_len() == 0
                    && device.coalesce_pending() == 0
                    && device.outbound_pending() == 0
            }
            EpInner::Mpi { comm, .. } => comm.pending() == 0,
            EpInner::Vci { comm, vci, .. } => comm.pending(*vci) == 0,
            EpInner::Gasnet { .. } => true, // medium AMs complete at post
        }
    }

    /// Drives progress until [`quiesced`](Endpoint::quiesced) holds,
    /// giving up when the deadline expires or — on the shm and tcp
    /// transports — when a peer process is observed dead. A survivor of
    /// an abrupt peer exit gets `Err(PeerDead(rank))` here instead of
    /// spinning forever on a handshake the peer will never answer.
    pub fn quiesce(&mut self, timeout: std::time::Duration) -> Result<(), QuiesceError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.quiesced() {
                return Ok(());
            }
            if let Some(r) = self.fabric.dead_peer() {
                return Err(QuiesceError::PeerDead(r));
            }
            if std::time::Instant::now() >= deadline {
                return Err(QuiesceError::Timeout);
            }
            self.progress();
            std::thread::yield_now();
        }
    }

    /// Ships any messages buffered by sender-side coalescing now (the
    /// LCI backend; a no-op elsewhere). Call before exchanging sent
    /// counts or entering a termination barrier.
    pub fn flush(&mut self) {
        if let EpInner::Lci { device, .. } = &self.inner {
            device.flush_coalesced().expect("lci flush");
        }
    }

    /// The LCI device backing this endpoint (for stats/diagnostics);
    /// `None` on the baseline backends.
    pub fn lci_device(&self) -> Option<&lci::Device> {
        match &self.inner {
            EpInner::Lci { device, .. } => Some(device),
            _ => None,
        }
    }

    /// Makes communication progress on this endpoint's resources.
    pub fn progress(&mut self) -> bool {
        match &mut self.inner {
            EpInner::Lci { device, .. } => device.progress().expect("lci progress"),
            EpInner::Mpi { comm, .. } => comm.progress(),
            EpInner::Vci { comm, vci, .. } => comm.progress(*vci),
            EpInner::Gasnet { g, .. } => g.poll(),
        }
    }
}
