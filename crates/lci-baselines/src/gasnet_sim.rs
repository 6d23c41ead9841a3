//! GASNet-EX stand-in: one-sided active messages over a shared endpoint.
//!
//! Models the properties the paper leans on:
//!
//! * `am_request_medium`-style API: the call returns once the source
//!   buffer is reusable (the payload is staged);
//! * handlers run *inside* the poll path (`gex_AMPoll`), so they must be
//!   short and must not block — the restriction that distinguishes AMs
//!   from RPCs (paper §3.2);
//! * a single shared endpoint per process: GASNet-EX has no
//!   dedicated-resource mode (absent from the paper's Fig. 3a/3c), and
//!   all-worker polling funnels every thread through the shared device —
//!   harmless on the ibv-like backend (fine-grained CQ lock), ruinous on
//!   the ofi-like backend (endpoint lock), reproducing the Delta
//!   pathology of §5.3;
//! * internally the shared path is competently engineered (trylock
//!   discipline, bounded drains), matching GASNet-EX's good
//!   shared-resource numbers in Fig. 3b/3d.

use lci_fabric::sync::{LockDiscipline, MpmcArray, SpinLock};
use lci_fabric::{
    Cqe, CqeKind, DevId, DeviceConfig, Fabric, NetContext, NetDevice, NetError, Rank, RecvBufDesc,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An AM handler: receives (source rank, arg, payload).
pub type AmHandler = Box<dyn Fn(Rank, u32, &[u8]) + Send + Sync>;

/// GASNet-sim configuration.
#[derive(Clone, Copy, Debug)]
pub struct GasnetConfig {
    /// Fabric backend. The endpoint is shared; LCI-style replication is
    /// intentionally not offered.
    pub device: DeviceConfig,
    /// Maximum medium-AM payload (also the staging buffer size).
    pub max_medium: usize,
    /// Pre-posted receive target.
    pub prepost: usize,
}

impl Default for GasnetConfig {
    fn default() -> Self {
        Self {
            device: DeviceConfig::ibv().with_discipline(LockDiscipline::TryLock),
            max_medium: 8192,
            prepost: 64,
        }
    }
}

impl GasnetConfig {
    /// Expanse stand-in.
    pub fn ibv() -> Self {
        Self::default()
    }

    /// Delta stand-in.
    pub fn ofi() -> Self {
        Self {
            device: DeviceConfig::ofi().with_discipline(LockDiscipline::TryLock),
            ..Self::default()
        }
    }
}

struct Staging {
    bufs: Vec<Option<Box<[u8]>>>,
    free: Vec<u32>,
    nposted: usize,
}

/// A queued outbound AM awaiting send-queue space:
/// (target, device, payload, imm).
type PendingAm = (Rank, DevId, Vec<u8>, u64);

/// The GASNet-like endpoint.
pub struct Gasnet {
    net: Arc<dyn NetDevice>,
    handlers: MpmcArray<Arc<AmHandler>>,
    staging: SpinLock<Staging>,
    pending: SpinLock<VecDeque<PendingAm>>,
    polls: AtomicUsize,
    rank: Rank,
    nranks: usize,
    cfg: GasnetConfig,
}

impl Gasnet {
    /// Attaches the endpoint for `rank` ("gex_Client_Init + attach").
    pub fn init(fabric: Arc<Fabric>, rank: Rank, cfg: GasnetConfig) -> Arc<Self> {
        let nranks = fabric.nranks();
        let ctx = NetContext::new(fabric, rank);
        let net = ctx.create_device(cfg.device);
        let g = Arc::new(Self {
            net,
            handlers: MpmcArray::with_capacity(8),
            staging: SpinLock::new(Staging { bufs: Vec::new(), free: Vec::new(), nposted: 0 }),
            pending: SpinLock::new(VecDeque::new()),
            polls: AtomicUsize::new(0),
            rank,
            nranks,
            cfg,
        });
        g.replenish();
        g
    }

    /// This process's rank ("gex_TM_QueryRank").
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.nranks
    }

    /// Registers an AM handler at attach time; returns its index. All
    /// ranks must register handlers in the same order.
    pub fn register_handler(&self, f: impl Fn(Rank, u32, &[u8]) + Send + Sync + 'static) -> u32 {
        self.handlers.push(Arc::new(Box::new(f))) as u32
    }

    /// Sends a medium active message ("gex_AM_RequestMedium"): blocks (by
    /// internal retry) until the payload is staged, i.e. the source
    /// buffer is reusable on return.
    pub fn am_request_medium(&self, dest: Rank, handler: u32, arg: u32, payload: &[u8]) {
        assert!(payload.len() <= self.cfg.max_medium, "medium AM payload too large");
        let imm = crate::proto::encode(crate::proto::BType::Am, arg, handler);
        loop {
            match self.net.post_inject(dest, self.net.dev_id(), payload, imm) {
                Ok(()) => return,
                Err(NetError::Retry(_)) => {
                    // GASNet blocks inside the request until resources
                    // free up, polling to avoid deadlock.
                    self.poll();
                }
                Err(NetError::Fatal(m)) => panic!("gasnet fatal: {m}"),
            }
        }
    }

    /// Variant that gives up instead of blocking (used by the LCW
    /// wrapper which wants nonblocking semantics).
    pub fn am_try_request_medium(
        &self,
        dest: Rank,
        handler: u32,
        arg: u32,
        payload: &[u8],
    ) -> bool {
        if payload.len() > self.cfg.max_medium {
            return false;
        }
        let imm = crate::proto::encode(crate::proto::BType::Am, arg, handler);
        match self.net.post_inject(dest, self.net.dev_id(), payload, imm) {
            Ok(()) => true,
            Err(NetError::Retry(_)) => false,
            Err(NetError::Fatal(m)) => panic!("gasnet fatal: {m}"),
        }
    }

    /// Polls the shared endpoint ("gex_AMPoll"): drains completions and
    /// runs handlers inline. Returns whether anything was processed.
    pub fn poll(&self) -> bool {
        self.polls.fetch_add(1, Ordering::Relaxed);
        let mut cqes: Vec<Cqe> = Vec::with_capacity(32);
        match self.net.poll_cq(&mut cqes, 32) {
            Ok(0) => {
                self.replenish();
                return false;
            }
            Ok(_) => {}
            Err(NetError::Retry(_)) => return false, // endpoint busy
            Err(NetError::Fatal(m)) => panic!("gasnet fatal: {m}"),
        }
        for cqe in &cqes {
            match cqe.kind {
                CqeKind::RecvDone => {
                    let (ty, arg, hidx) = crate::proto::decode(cqe.imm).expect("gasnet header");
                    assert_eq!(ty, crate::proto::BType::Am, "gasnet only speaks AM");
                    let handler =
                        self.handlers.read(hidx as usize).expect("unregistered AM handler");
                    // Reclaim the staging buffer, run the handler inline
                    // (AM semantics), then recycle.
                    let buf = {
                        let mut st = self.staging.lock();
                        st.nposted -= 1;
                        st.bufs[cqe.ctx as usize].take().expect("staging buf")
                    };
                    handler(cqe.src_rank, arg, &buf[..cqe.len]);
                    let mut st = self.staging.lock();
                    st.bufs[cqe.ctx as usize] = Some(buf);
                    st.free.push(cqe.ctx as u32);
                }
                other => panic!("gasnet unexpected completion {other:?}"),
            }
        }
        self.replenish();
        true
    }

    /// Number of `poll` invocations (diagnostics for the benches).
    pub fn poll_count(&self) -> usize {
        self.polls.load(Ordering::Relaxed)
    }

    fn replenish(&self) {
        let mut st = self.staging.lock();
        while st.nposted < self.cfg.prepost {
            let id = match st.free.pop() {
                Some(id) => id,
                None => {
                    st.bufs.push(Some(vec![0u8; self.cfg.max_medium].into_boxed_slice()));
                    (st.bufs.len() - 1) as u32
                }
            };
            let buf = st.bufs[id as usize].as_ref().expect("free staging buf");
            let ptr = buf.as_ptr() as *mut u8;
            let len = buf.len();
            // SAFETY: the buffer stays in `bufs` (stable Box address)
            // until the matching RecvDone removes it.
            let desc = unsafe { RecvBufDesc::new(ptr, len, id as u64) };
            match self.net.post_recv(desc) {
                Ok(()) => st.nposted += 1,
                Err(_) => {
                    st.free.push(id);
                    break;
                }
            }
        }
        let _ = &self.pending; // reserved for future large-AM support
    }
}

impl std::fmt::Debug for Gasnet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gasnet").field("rank", &self.rank).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn am_roundtrip() {
        let fabric = Fabric::new(2);
        let f2 = fabric.clone();
        let t = std::thread::spawn(move || {
            let g = Gasnet::init(f2, 1, GasnetConfig::default());
            let sum = Arc::new(AtomicU64::new(0));
            let s2 = sum.clone();
            g.register_handler(move |src, arg, payload| {
                assert_eq!(src, 0);
                s2.fetch_add(arg as u64 + payload.len() as u64, Ordering::SeqCst);
            });
            while sum.load(Ordering::SeqCst) < 3 * (5 + 10) {
                g.poll();
            }
        });
        let g = Gasnet::init(fabric, 0, GasnetConfig::default());
        g.register_handler(|_, _, _| {});
        for _ in 0..3 {
            g.am_request_medium(1, 0, 5, &[1u8; 10]);
        }
        t.join().unwrap();
    }

    #[test]
    fn handlers_run_inside_poll() {
        let fabric = Fabric::new(1);
        let g = Gasnet::init(fabric, 0, GasnetConfig::default());
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        g.register_handler(move |_, _, _| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        // Self-send: handler must only run during poll.
        g.am_request_medium(0, 0, 0, b"x");
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        while hits.load(Ordering::SeqCst) == 0 {
            g.poll();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn try_request_nonblocking() {
        let fabric = Fabric::new(1);
        let g = Gasnet::init(fabric, 0, GasnetConfig::default());
        g.register_handler(|_, _, _| {});
        assert!(g.am_try_request_medium(0, 0, 0, &[0u8; 16]));
        assert!(!g.am_try_request_medium(0, 0, 0, &vec![0u8; 100_000]));
    }
}
