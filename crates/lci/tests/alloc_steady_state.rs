//! Steady-state allocation audit (DESIGN.md §4.7): a counting global
//! allocator wraps `System` and the tests assert that the data path
//! performs **zero** heap allocations per operation once warmed up —
//! pooled op contexts, recycled staging buffers, persistent progress
//! scratch, rendezvous transfers that live in their table slot, and the
//! packet pool together mean the steady state never touches malloc (the
//! paper's §4.1.2 design goal, extended from packets to the whole path).
//!
//! The harness drives both ranks of a 2-rank fabric from one thread, so
//! the counter observes exactly the operations under test. User buffers
//! are recovered from completion descriptors and reposted, as a
//! steady-state application would.
//!
//! Only **audited threads** are counted: the thread holding the
//! [`serial`] guard (the `Pair` driver) and the collective rank threads,
//! which opt in with [`audit_this_thread`]. libtest spawning or tearing
//! down a sibling test's thread on another core allocates too, and
//! would otherwise land in whichever audit's window is open. `lci`
//! spawns no thread of its own (DESIGN.md §4.8), so every allocator
//! call on the data path is made by a thread counted here.
//!
//! A red audit **names its allocator**: while a thread is inside a
//! measured window ([`trace_window`]) the first allocation it makes has
//! its backtrace captured — with the thread's audit flag cleared, so
//! the capture's own allocations count nowhere — and every failing
//! assertion prints what was captured ([`first_allocs`]). A green run
//! captures nothing and pays one thread-local read per allocation.

mod common;

use common::on_cores;
use lci::{
    Comp, CompDesc, DataBuf, Direction, Fabric, PostResult, Runtime, RuntimeConfig, SendBuf,
};
use lci_fabric::sync::MpmcRing;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Counts every allocation call (alloc, alloc_zeroed, realloc) an
/// audited thread passes through the global allocator. Frees are not
/// counted: the audit is about acquiring memory on the critical path.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count. Const-initialised and
    /// destructor-free, so reading it inside the allocator neither
    /// allocates nor registers a TLS destructor.
    static AUDITED: Cell<bool> = const { Cell::new(false) };
    /// Whether this thread's next counted allocation gets its backtrace
    /// captured: set while the thread is inside a measured window,
    /// cleared by the capture (one trace per thread per window).
    static TRACE_NEXT: Cell<bool> = const { Cell::new(false) };
}

/// Backtraces of the first in-window allocation of each audited thread
/// since the current audit took [`SERIAL`].
static FIRST_ALLOCS: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn count_call(size: usize) {
    if !AUDITED.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    if TRACE_NEXT.try_with(|t| t.replace(false)).unwrap_or(false) {
        // Capturing and symbolizing allocates: step out of the audit.
        AUDITED.set(false);
        let thread = std::thread::current();
        let trace = format!(
            "{size}-byte allocation on thread {:?}:\n{}",
            thread.name().unwrap_or("<unnamed>"),
            std::backtrace::Backtrace::force_capture()
        );
        FIRST_ALLOCS.lock().unwrap_or_else(PoisonError::into_inner).push(trace);
        AUDITED.set(true);
    }
}

/// Runs `f` as this thread's share of a measured window: the first
/// allocation it makes inside is traced.
fn trace_window<R>(f: impl FnOnce() -> R) -> R {
    TRACE_NEXT.set(true);
    let out = f();
    TRACE_NEXT.set(false);
    out
}

/// What a failing audit prints after its count: who allocated first, on
/// each thread that did.
fn first_allocs() -> String {
    AUDITED.set(false);
    let traces = FIRST_ALLOCS.lock().unwrap_or_else(PoisonError::into_inner).join("\n");
    format!("\nfirst in-window allocation per thread:\n{traces}")
}

/// Opts the calling thread into the count for the rest of its life.
fn audit_this_thread() {
    AUDITED.set(true);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// The counter is process-global, so tests must not overlap; the test
/// runner uses one thread per test by default. Locking never allocates.
static SERIAL: Mutex<()> = Mutex::new(());

/// Holds [`SERIAL`] and keeps the holding thread audited; dropping it
/// stops the count first, so the thread's own teardown (libtest
/// reporting the result) stays out of the next audit's window.
struct Audit {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for Audit {
    fn drop(&mut self) {
        AUDITED.set(false);
    }
}

/// Takes [`SERIAL`] and starts counting the calling thread. A sibling
/// audit that failed while holding the mutex poisoned it, but the `()`
/// inside has no state to corrupt: recover the guard, so each red audit
/// reports its own assertion instead of a `PoisonError`.
fn serial() -> Audit {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    FIRST_ALLOCS.lock().unwrap_or_else(PoisonError::into_inner).clear();
    audit_this_thread();
    Audit { _serial }
}

/// Two single-threaded ranks over one fabric plus fixed-capacity
/// completion collectors (handler comps push into bounded queues —
/// no allocation on the completion path).
struct Pair {
    rt0: Runtime,
    rt1: Runtime,
    send_done: Arc<MpmcRing<CompDesc>>,
    recv_done: Arc<MpmcRing<CompDesc>>,
    send_comp: Comp,
    recv_comp: Comp,
}

impl Pair {
    fn new_cfg(cfg: RuntimeConfig) -> Pair {
        let fabric = Fabric::new(2);
        let rt0 = Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap();
        let rt1 = Runtime::new(fabric, 1, cfg).unwrap();
        let send_done: Arc<MpmcRing<CompDesc>> = Arc::new(MpmcRing::new(8));
        let recv_done: Arc<MpmcRing<CompDesc>> = Arc::new(MpmcRing::new(8));
        let send_comp = {
            let q = send_done.clone();
            Comp::alloc_handler(move |d| {
                let _ = q.try_push(d);
            })
        };
        let recv_comp = {
            let q = recv_done.clone();
            Comp::alloc_handler(move |d| {
                let _ = q.try_push(d);
            })
        };
        Pair { rt0, rt1, send_done, recv_done, send_comp, recv_comp }
    }

    /// One transfer: rank 1 posts the receive, rank 0 sends, both ranks
    /// progress until both sides complete. Returns (send, recv)
    /// descriptors so the caller can recover and repost the buffers.
    fn xfer(&self, payload: SendBuf, landing: Box<[u8]>, tag: u32) -> (CompDesc, CompDesc) {
        match self.rt1.post_recv(0, landing, tag, self.recv_comp.clone()).unwrap() {
            PostResult::Posted => {}
            other => panic!("recv did not post: {other:?}"),
        }
        let mut sent = match self.rt0.post_send(1, payload, tag, self.send_comp.clone()).unwrap() {
            PostResult::Done(d) => Some(d),
            PostResult::Posted => None,
            PostResult::Retry(r) => panic!("send retried under a quiet harness: {r:?}"),
        };
        let mut received: Option<CompDesc> = None;
        while sent.is_none() || received.is_none() {
            self.rt0.progress().unwrap();
            self.rt1.progress().unwrap();
            if sent.is_none() {
                sent = self.send_done.pop();
            }
            if received.is_none() {
                received = self.recv_done.pop();
            }
        }
        (sent.unwrap(), received.unwrap())
    }
}

/// Recovers the send buffer handed back by a send completion.
fn recover_send(d: CompDesc) -> SendBuf {
    match d.data {
        DataBuf::SendBuf(s) => s,
        other => panic!("send completion did not return the buffer: {other:?}"),
    }
}

/// Recovers the posted landing buffer from a receive completion.
fn recover_recv(d: CompDesc) -> Box<[u8]> {
    match d.data {
        DataBuf::Partial(b, _) => b,
        DataBuf::Owned(b) => b,
        other => panic!("recv completion did not return the landing buffer: {other:?}"),
    }
}

/// Runs `warmup + iters` ping transfers of `size` bytes, recycling the
/// user buffers across iterations, and returns the number of allocator
/// calls made during the measured `iters`.
fn steady_state_allocs(size: usize, warmup: usize, iters: usize) -> u64 {
    steady_state_allocs_cfg(RuntimeConfig::small(), size, warmup, iters)
}

fn steady_state_allocs_cfg(cfg: RuntimeConfig, size: usize, warmup: usize, iters: usize) -> u64 {
    steady_state_allocs_of(cfg, vec![0xA5u8; size].into(), warmup, iters)
}

/// [`steady_state_allocs_cfg`] with a given payload, which each
/// transfer hands back for the next.
fn steady_state_allocs_of(
    cfg: RuntimeConfig,
    mut payload: SendBuf,
    warmup: usize,
    iters: usize,
) -> u64 {
    let pair = Pair::new_cfg(cfg);
    let mut landing: Box<[u8]> = vec![0u8; payload.len()].into();
    for _ in 0..warmup {
        let (s, r) = pair.xfer(payload, landing, 5);
        payload = recover_send(s);
        landing = recover_recv(r);
    }
    let before = alloc_calls();
    trace_window(|| {
        for _ in 0..iters {
            let (s, r) = pair.xfer(payload, landing, 5);
            payload = recover_send(s);
            landing = recover_recv(r);
        }
    });
    alloc_calls() - before
}

/// 8-byte messages: the whole path — inline send buffer, packet-pool
/// delivery, handler completion — is allocation-free at steady state.
#[test]
fn inject_steady_state_is_allocation_free() {
    let _g = serial();
    let allocs = steady_state_allocs(8, 64, 256);
    assert_eq!(
        allocs,
        0,
        "8-byte inject loop made {allocs} allocator calls after warmup{}",
        first_allocs()
    );
}

/// Eager messages past the wire's inline limit: the post copies each one
/// straight into a packet the receiver keeps posted — zero allocator
/// calls per operation once warm.
#[test]
fn eager_steady_state_is_allocation_free() {
    let _g = serial();
    let allocs = steady_state_allocs(512, 64, 256);
    assert_eq!(
        allocs,
        0,
        "512-byte eager loop made {allocs} allocator calls after warmup{}",
        first_allocs()
    );
}

/// Repeated same-size rendezvous transfers: registration-cache hits,
/// chunks posted with no context and a transfer that lives in its table
/// slot make the large-message pipeline allocation-free at steady state.
#[test]
fn rendezvous_steady_state_is_allocation_free() {
    let _g = serial();
    let allocs = steady_state_allocs(256 << 10, 16, 32);
    assert_eq!(
        allocs,
        0,
        "256 KiB rendezvous loop made {allocs} allocator calls after warmup{}",
        first_allocs()
    );
}

/// A gathered rendezvous: a 4-segment 256 KiB payload whose segment
/// boundaries fall inside chunks. Each chunk is gathered into a pooled
/// buffer that goes back to its shelf when the chunk's post returns, so
/// once the shelf is warm no transfer calls the allocator.
#[test]
fn iovec_rendezvous_steady_state_is_allocation_free() {
    let _g = serial();
    let segs: Vec<Box<[u8]>> =
        [63, 65, 66, 62].iter().map(|&k| vec![0x5Au8; k << 10].into_boxed_slice()).collect();
    let allocs = steady_state_allocs_of(RuntimeConfig::small(), segs.into(), 16, 32);
    assert_eq!(
        allocs,
        0,
        "4-segment 256 KiB rendezvous loop made {allocs} allocator calls after warmup{}",
        first_allocs()
    );
}

/// The shared-memory transport keeps the same guarantee: ring frames
/// are encoded in place, inbound payloads land straight in pre-posted
/// packets, and spill space comes from the segment — the eager loop
/// never calls the allocator once warm.
#[test]
fn shm_eager_steady_state_is_allocation_free() {
    let _g = serial();
    let cfg = RuntimeConfig::small().with_device(lci_fabric::DeviceConfig::shm());
    let allocs = steady_state_allocs_cfg(cfg, 512, 64, 256);
    assert_eq!(
        allocs,
        0,
        "shm 512-byte eager loop made {allocs} allocator calls after warmup{}",
        first_allocs()
    );
}

/// And so does tcp: a frame is appended to the connection's stream
/// buffer, whose capacity was reserved when the mesh was built, written
/// from there, read into the reassembly slab and lent from it — no
/// pooled buffer, no queue node, no allocator call once warm.
#[test]
fn tcp_eager_steady_state_is_allocation_free() {
    let _g = serial();
    let cfg = RuntimeConfig::small().with_device(lci_fabric::DeviceConfig::tcp());
    let allocs = steady_state_allocs_cfg(cfg, 512, 64, 256);
    assert_eq!(
        allocs,
        0,
        "tcp 512-byte eager loop made {allocs} allocator calls after warmup{}",
        first_allocs()
    );
}

/// Rendezvous over shm: in one process every 64 KiB chunk is copied
/// straight into the registered landing buffer and only RTS, RTR and the
/// header-only FIN frame cross the ring, encoded in place — still zero
/// allocator calls per transfer.
#[test]
fn shm_rendezvous_steady_state_is_allocation_free() {
    let _g = serial();
    let cfg = RuntimeConfig::small().with_device(lci_fabric::DeviceConfig::shm());
    let allocs = steady_state_allocs_cfg(cfg, 256 << 10, 16, 32);
    assert_eq!(
        allocs,
        0,
        "shm 256 KiB rendezvous loop made {allocs} allocator calls after warmup{}",
        first_allocs()
    );
}

/// Rendezvous over in-process tcp, where every chunk is a frame: the
/// pump that handles the RTR appends all 8 chunks of 512 KiB to the
/// stream buffer at once (a chunk the stream refuses parks the
/// transfer), and the stream takes that burst with no allocator call.
#[test]
fn tcp_rendezvous_steady_state_is_allocation_free() {
    let _g = serial();
    let cfg = RuntimeConfig::small().with_device(lci_fabric::DeviceConfig::tcp());
    let allocs = steady_state_allocs_cfg(cfg, 512 << 10, 16, 32);
    assert_eq!(
        allocs,
        0,
        "tcp 512 KiB rendezvous loop made {allocs} allocator calls after warmup{}",
        first_allocs()
    );
}

/// Warm 2 KiB expected transfers on `device`: pool takes
/// (`buf_pool_hits + buf_pool_misses`, both ranks), `copied_deliveries`,
/// and the sender's and the receiver's `completions` (fabric CQEs their
/// progress handled) per message.
fn eager_2k_copy_ledger(device: lci_fabric::DeviceConfig) -> (u64, u64, u64, u64) {
    const ITERS: u64 = 128;
    let pair = Pair::new_cfg(RuntimeConfig::small().with_device(device));
    let mut payload: SendBuf = vec![0x3Cu8; 2048].into();
    let mut landing: Box<[u8]> = vec![0u8; 2048].into();
    let stats = |p: &Pair| (p.rt0.device().stats(), p.rt1.device().stats());
    let mut base = stats(&pair);
    for i in 0..16 + ITERS {
        if i == 16 {
            base = stats(&pair);
        }
        let (s, r) = pair.xfer(payload, landing, 9);
        assert!(r.as_slice().iter().all(|&b| b == 0x3C), "payload corrupted in flight");
        payload = recover_send(s);
        landing = recover_recv(r);
    }
    let (e0, e1) = stats(&pair);
    let (d0, d1) = (e0.since(&base.0), e1.since(&base.1));
    let takes = d0.buf_pool_hits + d0.buf_pool_misses + d1.buf_pool_hits + d1.buf_pool_misses;
    assert_eq!(takes % ITERS, 0, "{takes} pool takes do not divide over {ITERS} messages");
    assert_eq!(d0.copied_deliveries, 0);
    assert_eq!(d1.copied_deliveries % ITERS, 0);
    assert_eq!(d0.completions % ITERS, 0);
    assert_eq!(d1.completions % ITERS, 0);
    let per = |n: u64| n / ITERS;
    (per(takes), per(d1.copied_deliveries), per(d0.completions), per(d1.completions))
}

/// The eager copy ledger (DESIGN.md §4.7 table), from counters that
/// repeat exactly. On shm and tcp an expected 2 KiB message is copied
/// user buffer → wire → user buffer: the receiver's drain lends the
/// frame where the wire holds it (the ring, the stream's reassembly
/// slab) and `lci` copies it into the posted receive inside the poll,
/// so the receiver handles no completion at all. On sim-ibv there is no
/// wire in between: the post copies the send buffer into a posted
/// packet, whose `RecvDone` the receiver handles, and the packet is
/// copied into the user's buffer. Nothing is restaged, so the message
/// takes no pooled buffer on either rank, on any wire. Exactly one
/// delivery copy is counted (into the posted buffer), and the sender
/// handles no completion: the send was done at the post, so no
/// `SendDone` is staged, polled or decoded.
#[test]
fn eager_copy_ledger_is_one_stage_per_wire() {
    // Its own counters are per device, but its allocations would land in
    // a concurrent audit's window.
    let _g = serial();
    assert_eq!(eager_2k_copy_ledger(lci_fabric::DeviceConfig::shm()), (0, 1, 0, 0));
    assert_eq!(eager_2k_copy_ledger(lci_fabric::DeviceConfig::tcp()), (0, 1, 0, 0));
    assert_eq!(eager_2k_copy_ledger(lci_fabric::DeviceConfig::ibv()), (0, 1, 0, 1));
}

/// Warm 512 KiB rendezvous transfers on `device`: the sender's
/// `(rma_direct_bytes, rma_framed_bytes)` per transfer, and the most
/// frames any shm ring ever held at once (`shm_ring_hwm`).
fn rendezvous_512k_copy_ledger(device: lci_fabric::DeviceConfig) -> (u64, u64, u64) {
    const ITERS: u64 = 16;
    const SIZE: usize = 512 << 10;
    let pair = Pair::new_cfg(RuntimeConfig::small().with_device(device));
    let mut payload: SendBuf = vec![0x6Du8; SIZE].into();
    let mut landing: Box<[u8]> = vec![0u8; SIZE].into();
    let mut base = pair.rt0.device().stats();
    for i in 0..4 + ITERS {
        if i == 4 {
            base = pair.rt0.device().stats();
        }
        let (s, r) = pair.xfer(payload, landing, 11);
        assert!(r.as_slice().iter().all(|&b| b == 0x6D), "payload corrupted in flight");
        payload = recover_send(s);
        landing = recover_recv(r);
    }
    let end = pair.rt0.device().stats();
    let d = end.since(&base);
    assert_eq!(d.rendezvous, ITERS);
    assert_eq!(d.rdv_chunks_posted % ITERS, 0);
    assert!(d.rdv_chunks_posted / ITERS > 1, "512 KiB went out as a single chunk");
    assert_eq!(pair.rt1.device().stats().rma_direct_bytes, 0, "the receiver writes nothing");
    assert_eq!(pair.rt1.device().stats().rma_framed_bytes, 0, "the receiver writes nothing");
    (d.rma_direct_bytes / ITERS, d.rma_framed_bytes / ITERS, end.shm_ring_hwm)
}

/// The rendezvous copy ledger (DESIGN.md §4.6), from counters that
/// repeat exactly: on in-process shm the sender addresses the landing
/// buffer itself, so all 512 KiB are copied once, none are framed, and
/// no ring ever holds more than one frame — RTS, RTR and the header-only
/// FIN each find it empty, where a framed chunk stream queues a window
/// of chunks. In-process tcp cannot address its peer: every byte is
/// framed (and copied into and out of the frame).
#[test]
fn rendezvous_copy_ledger() {
    let _g = serial();
    const SIZE: u64 = 512 << 10;
    assert_eq!(rendezvous_512k_copy_ledger(lci_fabric::DeviceConfig::shm()), (SIZE, 0, 1));
    assert_eq!(rendezvous_512k_copy_ledger(lci_fabric::DeviceConfig::tcp()), (0, SIZE, 0));
}

/// Warm windows of 32 8-byte active messages on `device`, driven from
/// one thread: the receiver's per-message ledger — CQEs it handled,
/// receives it consumed of those it keeps posted, deliveries that came
/// in a pool packet or view, and its zero-copy and copied deliveries —
/// and the allocator calls the measured windows made.
fn am_8b_window(device: lci_fabric::DeviceConfig) -> ((u64, u64, u64, u64, u64), u64) {
    const WINDOW: u64 = 32;
    const ROUNDS: u64 = 16;
    let fabric = Fabric::new(2);
    let cfg = RuntimeConfig::small().with_device(device);
    let rt0 = Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap();
    let rt1 = Runtime::new(fabric, 1, cfg).unwrap();
    let got: Arc<MpmcRing<CompDesc>> = Arc::new(MpmcRing::new(WINDOW as usize));
    let rcomp = {
        let q = got.clone();
        rt1.register_rcomp(Comp::alloc_handler(move |d| {
            let _ = q.try_push(d);
        }))
    };
    let scomp = Comp::alloc_cq();
    // One window; returns how many of its deliveries held a pool slot.
    let round = || {
        let mut pooled = 0;
        for i in 0..WINDOW {
            while !rt0.post_am(1, &i.to_le_bytes()[..], scomp.clone(), rcomp).unwrap().is_done() {
                rt0.progress().unwrap();
                rt1.progress().unwrap();
            }
        }
        let mut seen = 0;
        while seen < WINDOW {
            rt0.progress().unwrap();
            rt1.progress().unwrap();
            while let Some(d) = got.pop() {
                assert_eq!(d.as_slice(), seen.to_le_bytes(), "reordered or corrupt");
                pooled += u64::from(matches!(d.data, DataBuf::Packet(..) | DataBuf::View(_)));
                seen += 1;
            }
        }
        pooled
    };
    for _ in 0..4 {
        round();
    }
    let (base, posted) = (rt1.device().stats(), rt1.packet_pool().outstanding() as u64);
    let before = alloc_calls();
    let pooled: u64 = trace_window(|| (0..ROUNDS).map(|_| round()).sum());
    let allocs = alloc_calls() - before;
    let d = rt1.device().stats().since(&base);
    let consumed = posted + d.replenish_posted - rt1.packet_pool().outstanding() as u64;
    let n = WINDOW * ROUNDS;
    for count in [d.completions, consumed, pooled, d.zero_copy_deliveries, d.copied_deliveries] {
        assert_eq!(count % n, 0, "{device:?}: {count} does not divide over {n} messages");
    }
    let per = |count: u64| count / n;
    let ledger = (per(d.completions), per(consumed), per(pooled));
    ((ledger.0, ledger.1, ledger.2, per(d.zero_copy_deliveries), per(d.copied_deliveries)), allocs)
}

/// The active-message ledger (DESIGN.md §4.9 "Claims"), from counters
/// that repeat exactly. On shm and tcp a warm 8 B AM is taken from the
/// wire inside the receiver's poll and carried in its completion
/// descriptor: no CQE, no posted receive consumed, no pool packet, and
/// one copy, counted as a zero-copy delivery. On sim-ibv it lands at
/// the post in a posted receive whose `RecvDone` the receiver handles,
/// and that slot is delivered as the packet: one copy there too.
#[test]
fn am_ledger_takes_an_8b_message_from_the_wire() {
    let _g = serial();
    assert_eq!(am_8b_window(lci_fabric::DeviceConfig::shm()).0, (0, 0, 0, 1, 0));
    assert_eq!(am_8b_window(lci_fabric::DeviceConfig::tcp()).0, (0, 0, 0, 1, 0));
    assert_eq!(am_8b_window(lci_fabric::DeviceConfig::ibv()).0, (1, 1, 1, 1, 0));
}

/// And a warm window of them makes no allocator call on any wire.
#[test]
fn warm_8b_am_window_is_allocation_free() {
    let _g = serial();
    let devices = [
        lci_fabric::DeviceConfig::shm(),
        lci_fabric::DeviceConfig::tcp(),
        lci_fabric::DeviceConfig::ibv(),
    ];
    for device in devices {
        let allocs = am_8b_window(device).1;
        assert_eq!(
            allocs,
            0,
            "{device:?}: warm 8 B AM windows made {allocs} allocator calls{}",
            first_allocs()
        );
    }
}

/// Runs a placed audit: on a 4-core layout (`common::on_cores`, a child
/// with `LCI_CORES=4` on a host with another count), where the buffer
/// pool, packet pool and stats all carry 4 stripes, a ping loop of
/// `size`-byte transfers makes no allocator call once warm.
fn placed_audit(name: &str, size: usize, warmup: usize, iters: usize) {
    on_cores(4, name, || {
        let _g = serial();
        let rt = Runtime::new(Fabric::new(1), 0, RuntimeConfig::small()).unwrap();
        assert_eq!((rt.packet_pool().stripes(), rt.device().buf_pool().stripes()), (4, 4));
        drop(rt);
        let cfg = RuntimeConfig::small().with_device(lci_fabric::DeviceConfig::ibv());
        let allocs = steady_state_allocs_cfg(cfg, size, warmup, iters);
        assert_eq!(
            allocs,
            0,
            "placed {size}-byte loop made {allocs} allocator calls after warmup{}",
            first_allocs()
        );
    });
}

/// Per-core striping must not reintroduce allocation: on 4 stripes the
/// single-threaded harness stays owner-local on its home stripe and the
/// inject loop still makes zero allocator calls once warm.
#[test]
fn placed_inject_steady_state_is_allocation_free() {
    placed_audit("placed_inject_steady_state_is_allocation_free", 8, 64, 256);
}

/// Eager messages on 4 stripes: packets come from the home stripe and
/// return to their origin stripe — the striped fast path is as
/// allocation-free as the single-stripe one.
#[test]
fn placed_eager_steady_state_is_allocation_free() {
    placed_audit("placed_eager_steady_state_is_allocation_free", 512, 64, 256);
}

/// Rendezvous on 4 stripes: striped op-context and packet pools plus the
/// registration cache keep the large-message pipeline at zero allocator
/// calls per transfer.
#[test]
fn placed_rendezvous_steady_state_is_allocation_free() {
    placed_audit("placed_rendezvous_steady_state_is_allocation_free", 256 << 10, 16, 32);
}

/// A packet steal — a `get` on a core whose stripe is empty while
/// another core's is not, as when receives are restocked on one core
/// with packets freed on another — moves the victim's half straight
/// onto the thief's deque. Once that deque has held such a half, a
/// steal makes no allocator call.
#[test]
fn warm_packet_steal_is_allocation_free() {
    let _g = serial();
    let home = lci::topology::current_core();
    let pool =
        lci::PacketPool::with_stripes(lci::PacketPoolConfig { payload_size: 64, count: 64 }, 2)
            .unwrap();
    // Every packet starts on the creator's stripe.
    let (owner, thief) = (home % 2, (home % 2) ^ 1);
    let mut held = Vec::with_capacity(64);
    // Warm-up: one steal grows the thief's deque to half the pool; hand
    // every packet back to the owner.
    lci::topology::bind_current_thread(thief);
    while let Some(p) = pool.get() {
        held.push(p);
    }
    lci::topology::bind_current_thread(owner);
    held.clear();
    lci::topology::bind_current_thread(thief);
    let before = alloc_calls();
    let stolen = trace_window(|| pool.get());
    let allocs = alloc_calls() - before;
    lci::topology::bind_current_thread(home);
    assert!(stolen.is_some(), "the thief found nothing to steal");
    assert_eq!(allocs, 0, "a warm packet steal made {allocs} allocator calls{}", first_allocs());
}

/// 16-byte active messages through the coalescer on sim-ibv, warm: the
/// append packs into a recycled frame buffer, the frame's packet is
/// counted once for all its views and walked in place, and dropping a
/// popped view gives back a count, not an allocation. So a round of
/// posts, a flush, progress on both ranks and popping and dropping every
/// delivery makes no allocator call: an `Arc` per frame, or a `Vec`
/// the demux grows, would show here.
#[test]
fn warm_coalesced_am_is_allocation_free() {
    // Two full 8 KiB frames of 292 and a tail the flush ships.
    const MSGS: usize = 2 * 292 + 17;
    let _g = serial();
    let cfg = RuntimeConfig {
        coalesce: lci::CoalesceConfig::enabled_with_bytes(8192),
        ..RuntimeConfig::default().with_device(lci_fabric::DeviceConfig::ibv())
    };
    let fabric = Fabric::new(2);
    let rt0 = Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap();
    let rt1 = Runtime::new(fabric, 1, cfg).unwrap();
    let got: Arc<MpmcRing<CompDesc>> = Arc::new(MpmcRing::new(MSGS));
    let rcomp = {
        let q = got.clone();
        rt1.register_rcomp(Comp::alloc_handler(move |d| {
            let _ = q.try_push(d);
        }))
    };
    let round = || {
        for i in 0..MSGS as u128 {
            let payload = i.to_le_bytes();
            let post = rt0.post_comm_x(Direction::Out, 1).send_buf(&payload[..]);
            let r = post.remote_comp(rcomp).call().unwrap();
            assert!(r.is_done(), "a coalesced AM did not finish at the post: {r:?}");
        }
        rt0.device().flush_coalesced().unwrap();
        let mut seen = 0;
        while seen < MSGS {
            rt0.progress().unwrap();
            rt1.progress().unwrap();
            while let Some(d) = got.pop() {
                assert!(matches!(d.data, DataBuf::View(_)), "sub-message was not a view");
                assert_eq!(d.as_slice(), &(seen as u128).to_le_bytes(), "reordered or corrupt");
                seen += 1;
            }
        }
    };
    for _ in 0..8 {
        round();
    }
    let fill = rt0.device().stats();
    let before = alloc_calls();
    trace_window(|| {
        for _ in 0..16 {
            round();
        }
    });
    let allocs = alloc_calls() - before;
    let d = rt0.device().stats().since(&fill);
    assert_eq!(
        allocs,
        0,
        "warm coalesced AM rounds made {allocs} allocator calls in {} frames{}",
        d.coalesce_flushes,
        first_allocs()
    );
    assert_eq!((d.coalesced_msgs, d.coalesce_flushes), (16 * MSGS as u64, 16 * 3));
}

/// `no_retry` sends the target refuses, parked and drained warm: the
/// drain posts one parked send at a time, and everything a parked send
/// holds (its staged copy, its context, its deque slot) is recycled. So
/// once a few bursts have warmed those, parking a burst and draining it
/// — the receiver's four posted receives refusing the rest, which goes
/// back to the front — makes no allocator call. A burst outnumbers
/// those receives, and a send refused for want of one parks everything
/// behind it.
#[test]
fn warm_backlog_drain_is_allocation_free() {
    const PREPOST: usize = 4;
    const BURST: usize = 12;
    let _g = serial();
    let device = lci_fabric::DeviceConfig::ibv();
    let cfg = RuntimeConfig { prepost: PREPOST, ..RuntimeConfig::small().with_device(device) };
    let pair = Pair::new_cfg(cfg);
    let mut payloads: Vec<SendBuf> = (0..BURST).map(|_| vec![0x4Bu8; 512].into()).collect();
    let mut landings: Vec<Box<[u8]>> = (0..BURST).map(|_| vec![0u8; 512].into()).collect();
    let mut burst = || {
        for landing in landings.drain(..) {
            let posted = pair.rt1.post_recv(0, landing, 3, pair.recv_comp.clone()).unwrap();
            assert!(posted.is_posted(), "recv did not post: {posted:?}");
        }
        let mut parked = 0;
        for _ in 0..BURST {
            let payload = payloads.pop().expect("a payload per send");
            let send = pair.rt0.post_send_x(1, payload, 3, pair.send_comp.clone()).no_retry();
            match send.call().unwrap() {
                PostResult::Done(d) => payloads.push(recover_send(d)),
                PostResult::Posted => parked += 1,
                PostResult::Retry(r) => panic!("no_retry surfaced {r:?}"),
            }
        }
        assert_eq!(pair.rt0.device().backlog_len(), parked);
        while payloads.len() < BURST || landings.len() < BURST {
            pair.rt0.progress().unwrap();
            pair.rt1.progress().unwrap();
            while let Some(d) = pair.send_done.pop() {
                payloads.push(recover_send(d));
            }
            while let Some(d) = pair.recv_done.pop() {
                assert!(d.as_slice().iter().all(|&b| b == 0x4B), "payload corrupted in flight");
                landings.push(recover_recv(d));
            }
        }
        assert_eq!(pair.rt0.device().backlog_len(), 0);
        parked
    };
    for _ in 0..8 {
        assert!(burst() > 1, "a burst parked one send or none");
    }
    let before = alloc_calls();
    trace_window(|| {
        for _ in 0..32 {
            burst();
        }
    });
    let allocs = alloc_calls() - before;
    assert_eq!(allocs, 0, "warm backlog drains made {allocs} allocator calls{}", first_allocs());
}

/// Allocator calls, summed over every rank, across 32 warm iterations
/// of a blocking collective loop (after 8 warm-up iterations).
/// Blocking collectives need all ranks live simultaneously, so this
/// runs one audited thread per rank, each driving the closure
/// `make_iter(rank)` builds for it. Rank threads rendezvous with the
/// measuring main thread on a `Barrier`: its `wait` is futex-based and
/// allocation-free once the warmup crossing has happened.
///
/// Each rank also asserts a count no scheduler moves: its device takes
/// nothing from the buffer pool in the window. Every piece lands in a
/// receive the runtime keeps posted, so no wire stages a copy; a staged
/// copy per chunk is what would let a shelf run dry and allocate.
fn collective_steady_state_allocs<I: FnMut(&Runtime)>(
    nranks: usize,
    make_iter: impl Fn(usize) -> I + Clone + Send + 'static,
) -> u64 {
    collective_steady_state_allocs_on(nranks, chunk_cfg(4096), make_iter)
}

/// The small config with pieces of `chunk` bytes (its eager size is
/// 4 KiB: longer pieces are puts).
fn chunk_cfg(chunk: usize) -> RuntimeConfig {
    RuntimeConfig { coll_chunk_size: chunk, ..RuntimeConfig::small() }
}

/// [`collective_steady_state_allocs`] under `cfg`.
fn collective_steady_state_allocs_on<I: FnMut(&Runtime)>(
    nranks: usize,
    cfg: RuntimeConfig,
    make_iter: impl Fn(usize) -> I + Clone + Send + 'static,
) -> u64 {
    const WARMUP: usize = 8;
    const ITERS: usize = 32;
    let fabric = Fabric::new(nranks);
    let gate = Arc::new(std::sync::Barrier::new(nranks + 1));
    let threads: Vec<_> = (0..nranks)
        .map(|rank| {
            let (fabric, gate, make_iter) = (fabric.clone(), gate.clone(), make_iter.clone());
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                audit_this_thread();
                let rt = Runtime::new(fabric, rank, cfg).unwrap();
                let mut iter = make_iter(rank);
                for _ in 0..WARMUP {
                    iter(&rt);
                }
                let base = rt.device().stats();
                gate.wait(); // measurement window opens
                trace_window(|| {
                    for _ in 0..ITERS {
                        iter(&rt);
                    }
                });
                gate.wait(); // window closes
                gate.wait(); // counter read; teardown may allocate freely now
                let d = rt.device().stats().since(&base);
                let takes = d.buf_pool_hits + d.buf_pool_misses;
                assert_eq!(takes, 0, "rank {rank} took {takes} pooled buffers in the window");
            })
        })
        .collect();
    gate.wait();
    let before = alloc_calls();
    gate.wait();
    let allocs = alloc_calls() - before;
    gate.wait();
    for t in threads {
        t.join().unwrap();
    }
    allocs
}

/// Warm allreduce, both schedules. On the sim wire the direct one: once
/// the plan's tables and the registration cache are warm, a grant and a
/// signal per peer and the reduction of this rank's slice in place make
/// zero allocator calls. On tcp the chunk-pipelined ring: once the fold
/// arena (reduce-scatter arrivals), op-context slabs and round
/// bookkeeping are warm, 2(n−1) rounds of windowed sends posted from the
/// buffer, pre-posted receives, folds and in-place landings, 8 chunks
/// per block, make none either, on either rank.
#[test]
fn collective_allreduce_steady_state_is_allocation_free() {
    let _g = serial();
    // 64 KiB payload -> 32 KiB ring blocks -> eight 4 KiB chunks per
    // round, so the bounded-inflight window actually pipelines.
    const ELEMS: usize = 8 << 10;
    let tcp = chunk_cfg(4096).with_device(lci_fabric::DeviceConfig::tcp());
    for (schedule, cfg) in [("direct", chunk_cfg(4096)), ("ring", tcp)] {
        let allocs = collective_steady_state_allocs_on(2, cfg, |_rank| {
            let mut buf = vec![1u8; ELEMS * 8];
            move |rt: &Runtime| {
                lci::coll::allreduce(rt, &mut buf, &lci::SumU64).unwrap();
                // A tcp post is only appended to the stream: write it out
                // before this rank blocks on the gate its peer may need
                // those bytes to reach.
                while rt.device().outbound_pending() > 0 {
                    rt.progress_all().unwrap();
                }
            }
        });
        assert_eq!(
            allocs,
            0,
            "warm {schedule} allreduce loop made {allocs} allocator calls on two ranks{}",
            first_allocs()
        );
    }
}

/// Warm sparse alltoallv — the MoE dispatch/combine inner loop: a count
/// exchange (recv side unknown) followed by the skew-scheduled vector
/// exchange with a zero pair, inline-sized blocks, an eager block, and
/// a multi-chunk block. Once the count-staging scratch and offset/order
/// scratch are warm, the whole counts+data iteration makes zero
/// allocator calls on any rank. Three
/// ranks so the sparse skip path (zero-byte pair) really runs.
#[test]
fn collective_alltoallv_steady_state_is_allocation_free() {
    let _g = serial();
    // counts[src][dst]: a skewed sparse matrix exercising every block
    // protocol (inline 16/24/8, eager 3000, chunked 5000 at 4 KiB
    // chunks) plus two zero pairs.
    const COUNTS: [[usize; 3]; 3] = [[16, 0, 5000], [24, 8, 0], [0, 3000, 64]];
    let allocs = collective_steady_state_allocs(3, |rank| {
        let send_counts = COUNTS[rank].to_vec();
        let send = vec![0x5Au8; send_counts.iter().sum()];
        let mut recv_counts = vec![0usize; 3];
        let mut recv = vec![0u8; (0..3).map(|src| COUNTS[src][rank]).sum()];
        move |rt: &Runtime| {
            lci::coll::exchange_counts(rt, &send_counts, &mut recv_counts).unwrap();
            lci::coll::alltoallv(rt, &send, &send_counts, &mut recv, &recv_counts).unwrap();
        }
    });
    assert_eq!(
        allocs,
        0,
        "warm alltoallv counts+data loop made {allocs} allocator calls on three ranks{}",
        first_allocs()
    );
}

/// Warm collectives whose pieces are puts (16 KiB chunks over the 4 KiB
/// eager size): an allreduce of 128 KiB (the direct schedule's grant
/// and signal are puts' machinery too) and an alltoallv with a
/// multi-piece block. Once the plan's grant and signal tables and the
/// registration cache are warm, a call's grants, puts and signals make
/// zero allocator calls.
#[test]
fn collective_puts_steady_state_is_allocation_free() {
    let _g = serial();
    const COUNTS: [[usize; 2]; 2] = [[16, 40_000], [20_000, 8]];
    let allocs = collective_steady_state_allocs_on(2, chunk_cfg(16 << 10), |rank| {
        let mut buf = vec![1u8; 128 << 10];
        let send_counts = COUNTS[rank].to_vec();
        let recv_counts: Vec<usize> = (0..2).map(|src| COUNTS[src][rank]).collect();
        let send = vec![0x5Au8; send_counts.iter().sum()];
        let mut recv = vec![0u8; recv_counts.iter().sum()];
        move |rt: &Runtime| {
            lci::coll::allreduce(rt, &mut buf, &lci::SumU64).unwrap();
            lci::coll::alltoallv(rt, &send, &send_counts, &mut recv, &recv_counts).unwrap();
        }
    });
    assert_eq!(
        allocs,
        0,
        "warm put-sized allreduce + alltoallv loop made {allocs} allocator calls on two ranks{}",
        first_allocs()
    );
}

/// Warm alltoallv of equal blocks over `coll_chunk_size` (100 KiB
/// against the scaffold's 4 KiB): each block is cut into chunk-sized
/// pieces that land in the caller's receive buffer, so there is no
/// per-block landing to allocate.
#[test]
fn collective_alltoallv_oversize_blocks_steady_state_is_allocation_free() {
    let _g = serial();
    const BLOCK: usize = 100 << 10;
    let allocs = collective_steady_state_allocs(2, |rank| {
        let send = vec![rank as u8 + 1; 2 * BLOCK];
        let mut recv = vec![0u8; 2 * BLOCK];
        move |rt: &Runtime| {
            lci::coll::alltoallv(rt, &send, &[BLOCK; 2], &mut recv, &[BLOCK; 2]).unwrap()
        }
    });
    assert_eq!(
        allocs,
        0,
        "warm 100 KiB-block alltoallv loop made {allocs} allocator calls on two ranks{}",
        first_allocs()
    );
}

/// Warm dissemination barrier: every round is a 1-byte inline send and
/// a receive into the barrier's scratch completed through the state's
/// receive queue, so no round touches the allocator or posts anything larger
/// than a byte. Three ranks so the barrier runs two rounds.
#[test]
fn collective_barrier_steady_state_is_allocation_free() {
    let _g = serial();
    let allocs =
        collective_steady_state_allocs(3, |_rank| |rt: &Runtime| lci::coll::barrier(rt).unwrap());
    assert_eq!(
        allocs,
        0,
        "warm barrier loop made {allocs} allocator calls on three ranks{}",
        first_allocs()
    );
}

/// The harness counts what it claims to count: an audited thread's
/// allocations move the counter, an unaudited thread's do not (a zero
/// from a counter that never moves would prove nothing).
#[test]
fn counter_sees_audited_threads_only() {
    let _g = serial();
    // This thread sits in `join` while each spawned one measures itself.
    let one_alloc = |audited: bool| {
        std::thread::spawn(move || {
            if audited {
                audit_this_thread();
            }
            let before = alloc_calls();
            drop(std::hint::black_box(vec![0u8; 4096]));
            alloc_calls() - before
        })
        .join()
        .unwrap()
    };
    assert_eq!(one_alloc(false), 0, "an unaudited thread's allocation was counted");
    assert_eq!(one_alloc(true), 1, "an audited thread's allocation was not counted");
}
