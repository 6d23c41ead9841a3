//! The coarse-locked two-sided channel shared by [`crate::mpi_sim`] (one
//! channel per process) and [`crate::vci`] (N channels per process).
//!
//! Design goals mirror a classic `MPI_THREAD_MULTIPLE` implementation:
//!
//! * **one mutex** protects the entire matching and progress state —
//!   every isend/irecv/test acquires it (the serialization the
//!   multithreaded-MPI literature fights);
//! * **in-order matching with wildcards**: posted receives and unexpected
//!   messages live in FIFO queues scanned linearly, because `ANY_SOURCE`
//!   / `ANY_TAG` forbid the hashtable shortcut LCI uses (paper §3.3.2);
//! * **progress as a side effect**: there is no user-visible progress
//!   call in MPI; `test`/`wait` drive the engine (`progress` is public
//!   here so wrappers can pump it explicitly too);
//! * the fabric device is created with **blocking lock acquisition**,
//!   like stock MPI implementations driving verbs/libfabric.

use crate::proto::{self, BType};
use lci_fabric::sync::{LockDiscipline, SpinLock};
use lci_fabric::{
    Cqe, CqeKind, DevId, DeviceConfig, Fabric, MemoryRegion, NetContext, NetDevice, NetError, Rank,
    RecvBufDesc, Rkey,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Wildcard source.
pub const ANY_SOURCE: usize = usize::MAX;
/// Wildcard tag.
pub const ANY_TAG: u32 = u32::MAX;

/// Completion record of a finished operation.
#[derive(Debug, Default)]
pub struct MpiStatus {
    /// Peer rank (source for receives).
    pub src: Rank,
    /// Message tag.
    pub tag: u32,
    /// Delivered data (receives only).
    pub data: Vec<u8>,
}

struct ReqInner {
    done: AtomicBool,
    status: SpinLock<Option<MpiStatus>>,
}

/// A nonblocking-operation handle (MPI request analog).
#[derive(Clone)]
pub struct Request {
    inner: Arc<ReqInner>,
}

impl Request {
    fn new() -> Self {
        Self {
            inner: Arc::new(ReqInner { done: AtomicBool::new(false), status: SpinLock::new(None) }),
        }
    }

    fn complete(&self, status: MpiStatus) {
        *self.inner.status.lock() = Some(status);
        self.inner.done.store(true, Ordering::Release);
    }

    /// Whether the operation has completed (does not progress).
    pub fn is_done(&self) -> bool {
        self.inner.done.load(Ordering::Acquire)
    }

    /// Takes the completion status after `is_done`.
    pub fn take_status(&self) -> Option<MpiStatus> {
        if !self.is_done() {
            return None;
        }
        self.inner.status.lock().take()
    }
}

/// Channel configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Fabric backend/lock configuration. Baselines default to blocking
    /// acquisition (stock library behaviour).
    pub device: DeviceConfig,
    /// Eager/rendezvous threshold and pre-posted buffer size.
    pub eager_size: usize,
    /// Pre-posted receive target.
    pub prepost: usize,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self {
            device: DeviceConfig::ibv().with_discipline(LockDiscipline::Blocking),
            eager_size: 8192,
            prepost: 64,
        }
    }
}

struct PostedRecv {
    src: Option<Rank>,
    tag: Option<u32>,
    max_size: usize,
    req: Request,
}

enum UnexpData {
    Eager(Vec<u8>),
    Rts { src_dev: DevId, send_id: u32, size: usize },
}

struct Unexp {
    src: Rank,
    tag: u32,
    data: UnexpData,
}

struct RdvSend {
    data: Vec<u8>,
    req: Request,
}

struct RdvRecv {
    buf: Box<[u8]>,
    mr: MemoryRegion,
    req: Request,
    src: Rank,
    tag: u32,
    size: usize,
}

struct PendingSend {
    dest: Rank,
    dest_dev: DevId,
    data: Vec<u8>,
    imm: u64,
    req: Option<Request>,
}

/// Simple id-reuse slab (duplicated from `lci` on purpose: baselines are
/// independent libraries).
struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Self { entries: Vec::new(), free: Vec::new() }
    }
    fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }
    fn insert(&mut self, v: T) -> u32 {
        if let Some(id) = self.free.pop() {
            self.entries[id as usize] = Some(v);
            id
        } else {
            self.entries.push(Some(v));
            (self.entries.len() - 1) as u32
        }
    }
    fn remove(&mut self, id: u32) -> Option<T> {
        let v = self.entries.get_mut(id as usize)?.take();
        if v.is_some() {
            self.free.push(id);
        }
        v
    }
    fn get(&self, id: u32) -> Option<&T> {
        self.entries.get(id as usize)?.as_ref()
    }
}

struct ChState {
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<Unexp>,
    /// Pre-posted staging buffers, addressed by slab id in the CQE ctx.
    staging: Slab<Box<[u8]>>,
    nposted: usize,
    pending_sends: VecDeque<PendingSend>,
    rdv_sends: Slab<RdvSend>,
    rdv_recvs: Slab<RdvRecv>,
}

/// One coarse-locked communication channel.
pub struct Channel {
    net: Arc<dyn NetDevice>,
    state: Mutex<ChState>,
    cfg: ChannelConfig,
    rank: Rank,
}

impl Channel {
    /// Creates a channel (one fabric device) for `rank`.
    pub fn new(fabric: Arc<Fabric>, rank: Rank, cfg: ChannelConfig) -> Self {
        let ctx = NetContext::new(fabric, rank);
        let net = ctx.create_device(cfg.device);
        let ch = Self {
            net,
            state: Mutex::new(ChState {
                posted: VecDeque::new(),
                unexpected: VecDeque::new(),
                staging: Slab::new(),
                nposted: 0,
                pending_sends: VecDeque::new(),
                rdv_sends: Slab::new(),
                rdv_recvs: Slab::new(),
            }),
            cfg,
            rank,
        };
        ch.with_lock(|c, st| c.replenish(st));
        ch
    }

    /// The channel's device index on its rank (for symmetric addressing).
    pub fn dev_id(&self) -> DevId {
        self.net.dev_id()
    }

    /// This channel's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    fn with_lock<R>(&self, f: impl FnOnce(&Self, &mut ChState) -> R) -> R {
        let mut st = self.state.lock();
        f(self, &mut st)
    }

    fn replenish(&self, st: &mut ChState) {
        while st.nposted < self.cfg.prepost {
            let buf = vec![0u8; self.cfg.eager_size].into_boxed_slice();
            let ptr = buf.as_ptr() as *mut u8;
            let len = buf.len();
            let id = st.staging.insert(buf);
            // SAFETY: the buffer lives in the staging slab (stable heap
            // address) until its completion reclaims it.
            let desc = unsafe { RecvBufDesc::new(ptr, len, id as u64) };
            match self.net.post_recv(desc) {
                Ok(()) => st.nposted += 1,
                Err(_) => {
                    st.staging.remove(id);
                    break;
                }
            }
        }
    }

    /// Nonblocking send. The returned request completes when the source
    /// buffer is reusable (eager: immediately after staging; rendezvous:
    /// after the remote write finishes).
    pub fn isend(&self, dest: Rank, dest_dev: DevId, data: Vec<u8>, tag: u32) -> Request {
        let req = Request::new();
        self.with_lock(|c, st| {
            if data.len() > c.cfg.eager_size {
                // Rendezvous.
                let send_id = st.rdv_sends.insert(RdvSend { data, req: req.clone() });
                let imm = proto::encode(BType::Rts, tag, 0);
                let payload = proto::encode_rts(
                    send_id,
                    st.rdv_sends.get(send_id).unwrap().data.len() as u64,
                );
                c.post_or_queue(st, dest, dest_dev, payload.to_vec(), imm, None);
            } else {
                let imm = proto::encode(BType::Eager, tag, 0);
                c.post_or_queue(st, dest, dest_dev, data, imm, Some(req.clone()));
            }
        });
        req
    }

    /// Attempts an eager/control post; queues it when the wire pushes
    /// back. `req` (if any) completes as soon as the payload is staged.
    fn post_or_queue(
        &self,
        st: &mut ChState,
        dest: Rank,
        dest_dev: DevId,
        data: Vec<u8>,
        imm: u64,
        req: Option<Request>,
    ) {
        match self.net.post_inject(dest, dest_dev, &data, imm) {
            Ok(()) => {
                if let Some(r) = req {
                    r.complete(MpiStatus { src: dest, tag: 0, data: Vec::new() });
                }
            }
            Err(NetError::Retry(_)) => {
                st.pending_sends.push_back(PendingSend { dest, dest_dev, data, imm, req });
            }
            Err(NetError::Fatal(m)) => panic!("baseline fatal network error: {m}"),
        }
    }

    /// Nonblocking receive. `src`/`tag` accept [`ANY_SOURCE`]/[`ANY_TAG`].
    /// The delivered data is returned in the request's status.
    pub fn irecv(&self, src: Rank, tag: u32, max_size: usize) -> Request {
        let req = Request::new();
        let want_src = if src == ANY_SOURCE { None } else { Some(src) };
        let want_tag = if tag == ANY_TAG { None } else { Some(tag) };
        self.with_lock(|c, st| {
            // In-order scan of the unexpected queue (wildcards force the
            // linear pass).
            let pos = st.unexpected.iter().position(|u| {
                want_src.is_none_or(|s| s == u.src) && want_tag.is_none_or(|t| t == u.tag)
            });
            if let Some(pos) = pos {
                let u = st.unexpected.remove(pos).unwrap();
                match u.data {
                    UnexpData::Eager(data) => {
                        req.complete(MpiStatus { src: u.src, tag: u.tag, data });
                    }
                    UnexpData::Rts { src_dev, send_id, size } => {
                        c.start_rtr(st, u.src, src_dev, u.tag, send_id, size, req.clone());
                    }
                }
            } else {
                st.posted.push_back(PostedRecv {
                    src: want_src,
                    tag: want_tag,
                    max_size,
                    req: req.clone(),
                });
            }
        });
        req
    }

    /// Target side of the rendezvous: register, reply RTR.
    #[allow(clippy::too_many_arguments)]
    fn start_rtr(
        &self,
        st: &mut ChState,
        src: Rank,
        src_dev: DevId,
        tag: u32,
        send_id: u32,
        size: usize,
        req: Request,
    ) {
        let buf = vec![0u8; size].into_boxed_slice();
        let mr = self.net.register(buf.as_ptr(), size).expect("register");
        let recv_id = st.rdv_recvs.insert(RdvRecv { buf, mr, req, src, tag, size });
        let imm = proto::encode(BType::Rtr, tag, 0);
        let payload = proto::encode_rtr(send_id, recv_id, mr.rkey.0);
        self.post_or_queue(st, src, src_dev, payload.to_vec(), imm, None);
    }

    /// Makes progress: drains pending sends and handles completions.
    /// Returns whether any work was done.
    pub fn progress(&self) -> bool {
        let mut cqes: Vec<Cqe> = Vec::with_capacity(64);
        let mut did = false;
        self.with_lock(|c, st| {
            // Retry queued sends first.
            while let Some(p) = st.pending_sends.pop_front() {
                match c.net.post_inject(p.dest, p.dest_dev, &p.data, p.imm) {
                    Ok(()) => {
                        did = true;
                        if let Some(r) = p.req {
                            r.complete(MpiStatus { src: p.dest, tag: 0, data: Vec::new() });
                        }
                    }
                    Err(NetError::Retry(_)) => {
                        st.pending_sends.push_front(p);
                        break;
                    }
                    Err(NetError::Fatal(m)) => panic!("baseline fatal: {m}"),
                }
            }
            match c.net.poll_cq(&mut cqes, 64) {
                Ok(n) => did |= n > 0,
                Err(NetError::Retry(_)) => {}
                Err(NetError::Fatal(m)) => panic!("baseline fatal: {m}"),
            }
            for cqe in cqes.drain(..) {
                c.handle_cqe(st, cqe);
            }
            c.replenish(st);
        });
        did
    }

    fn handle_cqe(&self, st: &mut ChState, cqe: Cqe) {
        match cqe.kind {
            CqeKind::WriteDone => {
                // Rendezvous data write finished: source request done.
                let send_id = (cqe.ctx - 1) as u32;
                if let Some(s) = st.rdv_sends.remove(send_id) {
                    s.req.complete(MpiStatus { src: 0, tag: 0, data: Vec::new() });
                }
            }
            CqeKind::SendDone | CqeKind::ReadDone => {
                unreachable!("baselines inject their sends and do not read")
            }
            CqeKind::RecvDone => {
                let buf = st.staging.remove(cqe.ctx as u32).expect("staging buffer");
                st.nposted -= 1;
                let (ty, tag, _aux) = proto::decode(cqe.imm).expect("baseline header");
                match ty {
                    BType::Eager => {
                        let data = buf[..cqe.len].to_vec();
                        self.match_or_store(
                            st,
                            cqe.src_rank,
                            cqe.src_dev,
                            tag,
                            UnexpData::Eager(data),
                        );
                    }
                    BType::Rts => {
                        let (send_id, size) = proto::decode_rts(&buf[..cqe.len]).expect("rts");
                        self.match_or_store(
                            st,
                            cqe.src_rank,
                            cqe.src_dev,
                            tag,
                            UnexpData::Rts { src_dev: cqe.src_dev, send_id, size: size as usize },
                        );
                    }
                    BType::Rtr => {
                        let (send_id, recv_id, rkey) =
                            proto::decode_rtr(&buf[..cqe.len]).expect("rtr");
                        let imm = proto::encode(BType::Fin, 0, recv_id);
                        let data_ptr = st.rdv_sends.get(send_id).expect("rdv send");
                        // Write with FIN; ctx = send_id+1 (nonzero).
                        let res = self.net.post_write(
                            cqe.src_rank,
                            cqe.src_dev,
                            &data_ptr.data,
                            Rkey(rkey),
                            0,
                            Some(imm),
                            send_id as u64 + 1,
                        );
                        if let Err(NetError::Retry(_)) = res {
                            // Extremely rare: requeue the RTR as pending
                            // by re-injecting it into our own unexpected
                            // path via pending_sends is not possible —
                            // spin until accepted (stock MPI blocks too).
                            loop {
                                match self.net.post_write(
                                    cqe.src_rank,
                                    cqe.src_dev,
                                    &data_ptr.data,
                                    Rkey(rkey),
                                    0,
                                    Some(imm),
                                    send_id as u64 + 1,
                                ) {
                                    Ok(()) => break,
                                    Err(NetError::Retry(_)) => std::hint::spin_loop(),
                                    Err(NetError::Fatal(m)) => panic!("baseline fatal: {m}"),
                                }
                            }
                        } else if let Err(NetError::Fatal(m)) = res {
                            panic!("baseline fatal: {m}");
                        }
                    }
                    BType::Am | BType::Fin => panic!("unexpected {ty:?} on channel"),
                }
            }
            CqeKind::WriteImmRecv => {
                // FIN: the rendezvous receive is complete.
                let buf = st.staging.remove(cqe.ctx as u32).expect("staging buffer");
                st.nposted -= 1;
                drop(buf);
                let (ty, _tag, recv_id) = proto::decode(cqe.imm).expect("fin header");
                assert_eq!(ty, BType::Fin);
                let r = st.rdv_recvs.remove(recv_id).expect("rdv recv");
                let _ = self.net.deregister(&r.mr);
                let mut data = r.buf.into_vec();
                data.truncate(r.size);
                r.req.complete(MpiStatus { src: r.src, tag: r.tag, data });
            }
        }
    }

    /// Matches an incoming message against the posted-receive queue
    /// (in-order, wildcard-aware) or stores it as unexpected.
    fn match_or_store(
        &self,
        st: &mut ChState,
        src: Rank,
        _src_dev: DevId,
        tag: u32,
        data: UnexpData,
    ) {
        let pos = st
            .posted
            .iter()
            .position(|p| p.src.is_none_or(|s| s == src) && p.tag.is_none_or(|t| t == tag));
        match pos {
            Some(pos) => {
                let p = st.posted.remove(pos).unwrap();
                match data {
                    UnexpData::Eager(d) => {
                        assert!(d.len() <= p.max_size, "message exceeds posted receive size");
                        p.req.complete(MpiStatus { src, tag, data: d });
                    }
                    UnexpData::Rts { src_dev, send_id, size } => {
                        assert!(size <= p.max_size, "message exceeds posted receive size");
                        self.start_rtr(st, src, src_dev, tag, send_id, size, p.req);
                    }
                }
            }
            None => st.unexpected.push_back(Unexp { src, tag, data }),
        }
    }

    /// Number of operations still needing this channel's progress:
    /// queued sends plus in-flight rendezvous (both sides). A sender must
    /// keep progressing until this drains — a rendezvous needs the
    /// source to serve the RTR even after the destination counted all
    /// its arrivals.
    pub fn pending(&self) -> usize {
        let st = self.state.lock();
        st.pending_sends.len() + st.rdv_sends.len() + st.rdv_recvs.len()
    }

    /// Tests a request, progressing the channel (MPI semantics: progress
    /// happens inside test).
    pub fn test(&self, req: &Request) -> bool {
        if req.is_done() {
            return true;
        }
        self.progress();
        req.is_done()
    }

    /// Blocks until the request completes, returning its status.
    pub fn wait(&self, req: &Request) -> MpiStatus {
        while !req.is_done() {
            self.progress();
            std::hint::spin_loop();
        }
        req.take_status().expect("request status")
    }
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel")
            .field("rank", &self.rank)
            .field("dev_id", &self.net.dev_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(cfg: ChannelConfig) -> (Arc<Channel>, Arc<Channel>) {
        let fabric = Fabric::new(2);
        let a = Arc::new(Channel::new(fabric.clone(), 0, cfg));
        let b = Arc::new(Channel::new(fabric, 1, cfg));
        (a, b)
    }

    #[test]
    fn eager_send_recv() {
        let (a, b) = pair(ChannelConfig::default());
        let r = b.irecv(0, 5, 1024);
        let s = a.isend(1, 0, vec![7u8; 100], 5);
        assert!(a.wait(&s).data.is_empty());
        let st = b.wait(&r);
        assert_eq!(st.src, 0);
        assert_eq!(st.tag, 5);
        assert_eq!(st.data, vec![7u8; 100]);
    }

    #[test]
    fn rendezvous_large_message() {
        let (a, b) = pair(ChannelConfig::default());
        let big = (0..100_000u32).map(|x| x as u8).collect::<Vec<u8>>();
        let r = b.irecv(ANY_SOURCE, ANY_TAG, 200_000);
        let s = a.isend(1, 0, big.clone(), 42);
        // Both sides must progress for the rendezvous to complete.
        loop {
            a.progress();
            b.progress();
            if s.is_done() && r.is_done() {
                break;
            }
        }
        let st = r.take_status().unwrap();
        assert_eq!(st.tag, 42);
        assert_eq!(st.data, big);
    }

    #[test]
    fn wildcard_any_source_any_tag_in_order() {
        let (a, b) = pair(ChannelConfig::default());
        let s1 = a.isend(1, 0, vec![1], 10);
        let s2 = a.isend(1, 0, vec![2], 20);
        a.wait(&s1);
        a.wait(&s2);
        // Let both arrive unexpected.
        for _ in 0..100 {
            b.progress();
        }
        // ANY matching must deliver in arrival order.
        let r1 = b.irecv(ANY_SOURCE, ANY_TAG, 64);
        let st1 = b.wait(&r1);
        assert_eq!(st1.data, vec![1]);
        let r2 = b.irecv(ANY_SOURCE, ANY_TAG, 64);
        let st2 = b.wait(&r2);
        assert_eq!(st2.data, vec![2]);
    }

    #[test]
    fn tag_specific_skips_nonmatching() {
        let (a, b) = pair(ChannelConfig::default());
        let s1 = a.isend(1, 0, vec![1], 10);
        let s2 = a.isend(1, 0, vec![2], 20);
        a.wait(&s1);
        a.wait(&s2);
        for _ in 0..100 {
            b.progress();
        }
        let r20 = b.irecv(0, 20, 64);
        assert_eq!(b.wait(&r20).data, vec![2]);
        let r10 = b.irecv(0, 10, 64);
        assert_eq!(b.wait(&r10).data, vec![1]);
    }

    #[test]
    fn posted_before_arrival() {
        let (a, b) = pair(ChannelConfig::default());
        let r = b.irecv(0, 9, 64);
        assert!(!r.is_done());
        let s = a.isend(1, 0, vec![5u8; 32], 9);
        a.wait(&s);
        let st = b.wait(&r);
        assert_eq!(st.data, vec![5u8; 32]);
    }

    #[test]
    fn multithreaded_big_lock_correctness() {
        let (a, b) = pair(ChannelConfig::default());
        let nthreads = 4;
        let per = 100;
        let senders: Vec<_> = (0..nthreads)
            .map(|t| {
                let a = a.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        let tag = (t * 1000 + i) as u32;
                        let s = a.isend(1, 0, vec![t as u8; 64], tag);
                        a.wait(&s);
                    }
                })
            })
            .collect();
        let receivers: Vec<_> = (0..nthreads)
            .map(|t| {
                let b = b.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        let tag = (t * 1000 + i) as u32;
                        let r = b.irecv(0, tag, 256);
                        let st = b.wait(&r);
                        assert_eq!(st.data, vec![t as u8; 64]);
                    }
                })
            })
            .collect();
        for h in senders.into_iter().chain(receivers) {
            h.join().unwrap();
        }
    }
}
