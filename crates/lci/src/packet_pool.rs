//! The packet pool (paper §4.1.2): efficient allocation (`get`) and
//! deallocation (`put`) of fixed-sized pre-registered buffers ("packets").
//!
//! Implemented as a collection of **per-core** double-ended queues
//! (§4.1.1, laid out over the [`topology`](lci_fabric::topology) core
//! map). Every thread puts/gets packets at the *tail* of its home
//! core's deque; when that deque is empty the thread steals half of the
//! packets of a randomly selected victim core from the *head* end —
//! tail for locality, head for stealing, exactly the paper's layout.
//! Thread safety comes from a per-stripe leaf spinlock: in the
//! thread-per-core regime the owner is the only visitor, so the
//! steady-state get/put path never bounces a shared head pointer
//! between cores. Threads sharing a core (oversubscription) share a
//! stripe — they contend on the leaf lock but stay core-local.
//!
//! `get` is non-blocking: when the first stealing attempt round fails it
//! returns `None`, which the posting path surfaces as the `retry`
//! status with reason `NoPacket`.
//!
//! A packet shared read-only ([`PacketView`]) is counted in the pool's
//! own per-slot reference count, not in a separate allocation: a
//! coalesced frame's packet has its count set once, to the number of
//! sub-message views the demux hands out.

use crate::error::{FatalError, Result};
use lci_fabric::sync::{MpmcArray, SpinLock};
use lci_fabric::topology::{self, CachePadded};
use std::cell::Cell;
use std::collections::VecDeque;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Packets per allocation chunk.
const CHUNK_PACKETS: usize = 64;

/// One raw memory chunk holding `CHUNK_PACKETS` packets.
struct Chunk {
    base: *mut u8,
    layout: std::alloc::Layout,
}

// SAFETY: the chunk's memory is only accessed through packets, each of
// which has exclusive ownership of its slot.
unsafe impl Send for Chunk {}
unsafe impl Sync for Chunk {}

impl Drop for Chunk {
    fn drop(&mut self) {
        // SAFETY: allocated with this layout in `PoolShared::add_chunk`.
        unsafe { std::alloc::dealloc(self.base, self.layout) }
    }
}

struct PoolShared {
    payload_size: usize,
    capacity: usize,
    /// Chunk base addresses for lock-free idx->ptr translation.
    chunk_bases: MpmcArray<usize>,
    /// Chunk owners (kept for deallocation).
    chunks: SpinLock<Vec<Chunk>>,
    /// Per-core packet deques, padded so neighbouring stripes never
    /// share a cache line; fixed at construction, indexed by
    /// `current_core() & mask`.
    stripes: Box<[CachePadded<SpinLock<VecDeque<u32>>>]>,
    /// `stripes.len() - 1`; stripe counts are powers of two.
    mask: usize,
    /// Per-slot reference counts of shared packets, indexed like the
    /// slots; meaningful only while a slot is checked out and shared.
    refs: Box<[AtomicU32]>,
}

impl PoolShared {
    fn packet_ptr(&self, idx: u32) -> *mut u8 {
        let chunk = idx as usize / CHUNK_PACKETS;
        let slot = idx as usize % CHUNK_PACKETS;
        let base = *self.chunk_bases.get(chunk).expect("packet chunk missing");
        (base + slot * self.payload_size) as *mut u8
    }

    /// The calling core's home deque.
    #[inline]
    fn home(&self) -> &SpinLock<VecDeque<u32>> {
        &self.stripes[topology::current_core() & self.mask].0
    }
}

/// A fixed-size pre-registered buffer from a [`PacketPool`].
///
/// Dropping a packet returns it to the pool (to the dropping thread's
/// deque). Explicit assembly in packets (§3.3.1) saves the staging copy
/// of the buffer-copy protocol.
pub struct Packet {
    shared: Arc<PoolShared>,
    idx: u32,
    len: usize,
}

impl Packet {
    /// Packet capacity in bytes (the pool's payload size, not its
    /// packet count).
    #[allow(clippy::misnamed_getters)]
    pub fn capacity(&self) -> usize {
        self.shared.payload_size
    }

    /// Current logical payload length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the logical payload length (after assembling data in place).
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= self.capacity(), "packet payload exceeds capacity");
        self.len = len;
    }

    /// Read access to the full packet buffer.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: this packet exclusively owns its slot while checked out.
        unsafe { std::slice::from_raw_parts(self.shared.packet_ptr(self.idx), self.capacity()) }
    }

    /// Write access to the full packet buffer.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: exclusive ownership (we hold &mut self of the sole
        // Packet for this slot).
        unsafe { std::slice::from_raw_parts_mut(self.shared.packet_ptr(self.idx), self.capacity()) }
    }

    /// Copies `data` into the packet and sets the payload length.
    pub fn fill(&mut self, data: &[u8]) {
        let cap = self.capacity();
        assert!(data.len() <= cap, "payload {} exceeds packet capacity {}", data.len(), cap);
        self.as_mut_slice()[..data.len()].copy_from_slice(data);
        self.len = data.len();
    }

    /// Freezes this packet for a demux that hands out exactly `n` views
    /// ([`FrameViews::view`]): the slot's count is set once, to `n` plus
    /// one for the returned handle, and no view takes a count of its own.
    ///
    /// # Panics
    /// Panics if the count would not fit.
    pub(crate) fn into_views(self, n: u32) -> FrameViews {
        let refs = n.checked_add(1).expect("view count overflow");
        let len = self.len;
        FrameViews { slot: SlotRef::share(self, refs), len, left: Cell::new(n) }
    }
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Packet")
            .field("idx", &self.idx)
            .field("len", &self.len)
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl Drop for Packet {
    fn drop(&mut self) {
        PacketPool::put_idx(&self.shared, self.idx);
    }
}

/// One counted reference to a shared packet slot: the pool and the
/// slot's index. Whoever holds it owns one of the slot's references
/// ([`FrameViews`] owns several). Together the references own the pool
/// reference the [`Packet`] held; the last one to go returns the slot,
/// then that pool reference.
#[derive(Clone, Copy)]
struct SlotRef {
    pool: NonNull<PoolShared>,
    idx: u32,
}

// SAFETY: `PoolShared` is `Send + Sync`, and a shared slot's bytes are
// only read until its last reference goes.
unsafe impl Send for SlotRef {}
unsafe impl Sync for SlotRef {}

impl SlotRef {
    /// Shares `packet`'s slot with its count set to `refs`: one store,
    /// since nobody else can see the slot yet.
    fn share(packet: Packet, refs: u32) -> SlotRef {
        let me = std::mem::ManuallyDrop::new(packet);
        // SAFETY: `me`'s Drop is suppressed, so the pool reference moves
        // out exactly once; the slot's references own it from here.
        let pool = unsafe { std::ptr::read(&me.shared) };
        pool.refs[me.idx as usize].store(refs, Ordering::Relaxed);
        let pool = NonNull::new(Arc::into_raw(pool).cast_mut()).expect("Arc pointer is non-null");
        SlotRef { pool, idx: me.idx }
    }

    fn pool(&self) -> &PoolShared {
        // SAFETY: the pool reference lives until the slot's last
        // reference goes, and the caller holds one.
        unsafe { self.pool.as_ref() }
    }

    /// The first `len` bytes of the slot, offset by `off`.
    fn bytes(&self, off: usize, len: usize) -> &[u8] {
        // SAFETY: the caller holds a reference and bounds-checked
        // `off + len` against the payload; nobody writes a shared slot.
        unsafe { std::slice::from_raw_parts(self.pool().packet_ptr(self.idx).add(off), len) }
    }

    /// Takes one more reference (a clone).
    fn acquire(&self) {
        let old = self.pool().refs[self.idx as usize].fetch_add(1, Ordering::Relaxed);
        // As `Arc` does: a count this high is a leak of clones, and
        // wrapping it would free a slot that is still read.
        if old > u32::MAX / 2 {
            std::process::abort();
        }
    }

    /// Gives up `n` references. The last one returns the slot to the
    /// dropping thread's stripe — exactly once — then the pool
    /// reference.
    ///
    /// # Safety
    /// The caller owns `n` of the slot's references and does not read
    /// the slot through this `SlotRef` afterwards.
    unsafe fn release(self, n: u32) {
        let pool = self.pool();
        if pool.refs[self.idx as usize].fetch_sub(n, Ordering::Release) != n {
            return;
        }
        // Every other holder's reads happen before the slot is reused.
        fence(Ordering::Acquire);
        PacketPool::put_idx(pool, self.idx);
        // SAFETY: made by `Arc::into_raw` in `share`; this is the last
        // reference, so it is turned back exactly once.
        drop(unsafe { Arc::from_raw(self.pool.as_ptr()) });
    }
}

fn check_view(off: usize, len: usize, payload: usize) {
    assert!(
        off.checked_add(len).is_some_and(|end| end <= payload),
        "view {off}+{len} out of bounds for packet payload of {payload}"
    );
}

/// A zero-copy read-only slice of a shared packet. Holds one of the
/// slot's references: the slot cannot be reused while any view is alive.
/// A coalesced frame's views are counted once for the whole frame, when
/// it is demultiplexed; cloning a view takes one more reference.
pub struct PacketView {
    slot: SlotRef,
    off: usize,
    len: usize,
}

impl PacketView {
    /// View length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read access to the viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.slot.bytes(self.off, self.len)
    }
}

impl Clone for PacketView {
    fn clone(&self) -> Self {
        self.slot.acquire();
        PacketView { slot: self.slot, off: self.off, len: self.len }
    }
}

impl Drop for PacketView {
    fn drop(&mut self) {
        // SAFETY: this view owns one reference and is gone after this.
        unsafe { self.slot.release(1) }
    }
}

impl std::fmt::Debug for PacketView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketView")
            .field("idx", &self.slot.idx)
            .field("off", &self.off)
            .field("len", &self.len)
            .finish()
    }
}

/// A packet frozen for a demux that knows how many views it will hand
/// out ([`Packet::into_views`]). Each [`view`](Self::view) passes on one
/// of the references counted up front, so carving takes no atomic
/// operation; the handle's own reference, and any view it never handed
/// out, are given up when it drops.
pub(crate) struct FrameViews {
    slot: SlotRef,
    len: usize,
    /// Views still to hand out.
    left: Cell<u32>,
}

impl FrameViews {
    /// The frozen payload.
    pub(crate) fn as_slice(&self) -> &[u8] {
        self.slot.bytes(0, self.len)
    }

    /// Hands out the next view, `len` bytes at `off`.
    ///
    /// # Panics
    /// Panics past the counted number of views or out of bounds.
    pub(crate) fn view(&self, off: usize, len: usize) -> PacketView {
        let left = self.left.get();
        assert!(left > 0, "more views than the frame was counted for");
        check_view(off, len, self.len);
        self.left.set(left - 1);
        PacketView { slot: self.slot, off, len }
    }
}

impl Drop for FrameViews {
    fn drop(&mut self) {
        // SAFETY: the handle's own reference plus the views it never
        // handed out; it is gone after this.
        unsafe { self.slot.release(self.left.get() + 1) }
    }
}

/// Pool configuration.
#[derive(Clone, Copy, Debug)]
pub struct PacketPoolConfig {
    /// Bytes per packet (also the eager-protocol threshold upstream).
    pub payload_size: usize,
    /// Total number of packets.
    pub count: usize,
}

impl Default for PacketPoolConfig {
    fn default() -> Self {
        Self { payload_size: 8192, count: 1024 }
    }
}

/// The packet pool resource.
#[derive(Clone)]
pub struct PacketPool {
    shared: Arc<PoolShared>,
}

impl PacketPool {
    /// Creates a pool with one stripe per detected core. All packets
    /// initially live on the creating thread's home stripe.
    pub fn new(cfg: PacketPoolConfig) -> Result<Self> {
        Self::with_stripes(cfg, 0)
    }

    /// Creates a pool with an explicit stripe count (`0` = one per
    /// detected core; rounded up to a power of two). Tests pass one to
    /// exercise several stripes on a small host.
    pub fn with_stripes(cfg: PacketPoolConfig, stripes: usize) -> Result<Self> {
        if cfg.payload_size == 0 || cfg.count == 0 {
            return Err(FatalError::InvalidArg("packet pool needs size and count > 0".into()));
        }
        let nstripes = topology::stripe_count(stripes);
        let shared = Arc::new(PoolShared {
            payload_size: cfg.payload_size,
            capacity: cfg.count,
            chunk_bases: MpmcArray::with_capacity(16),
            chunks: SpinLock::new(Vec::new()),
            stripes: (0..nstripes).map(|_| CachePadded(SpinLock::new(VecDeque::new()))).collect(),
            mask: nstripes - 1,
            refs: (0..cfg.count).map(|_| AtomicU32::new(0)).collect(),
        });
        // Allocate chunks.
        let nchunks = cfg.count.div_ceil(CHUNK_PACKETS);
        {
            let mut chunks = shared.chunks.lock();
            for _ in 0..nchunks {
                let layout =
                    std::alloc::Layout::from_size_align(CHUNK_PACKETS * cfg.payload_size, 64)
                        .map_err(|e| FatalError::InvalidArg(e.to_string()))?;
                // SAFETY: layout has non-zero size.
                let base = unsafe { std::alloc::alloc(layout) };
                if base.is_null() {
                    return Err(FatalError::Net("packet chunk allocation failed".into()));
                }
                shared.chunk_bases.push(base as usize);
                chunks.push(Chunk { base, layout });
            }
        }
        // Seed the creator's home stripe with every packet.
        {
            let mut q = shared.home().lock();
            for i in 0..cfg.count as u32 {
                q.push_back(i);
            }
        }
        Ok(Self { shared })
    }

    /// Pool configuration: packet payload size.
    pub fn payload_size(&self) -> usize {
        self.shared.payload_size
    }

    /// Total number of packets.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Packets currently checked out (to users or to the fabric as
    /// pre-posted receives). Diagnostics: takes every stripe lock.
    pub fn outstanding(&self) -> usize {
        let pooled: usize = self.shared.stripes.iter().map(|d| d.0.lock().len()).sum();
        self.shared.capacity - pooled
    }

    /// Number of per-core stripes the pool was laid out with.
    pub fn stripes(&self) -> usize {
        self.shared.stripes.len()
    }

    /// Non-blocking packet acquisition. Returns `None` when the home
    /// stripe is empty and one stealing round finds nothing — the caller
    /// maps this to the `retry`/`NoPacket` status.
    pub fn get(&self) -> Option<Packet> {
        // Fast path: home-stripe tail pop (cache locality with recent
        // puts). Distinguish "locked" from "empty": when a thief holds
        // our lock the deque may still have local packets, so retry
        // with a blocking lock before paying for a steal round of our
        // own. Same-core siblings (oversubscription) land here too.
        let home = self.shared.home();
        let fast = match home.try_lock() {
            Some(mut q) => q.pop_back(),
            None => home.lock().pop_back(),
        };
        let idx = fast.or_else(|| self.steal())?;
        Some(Packet { shared: self.shared.clone(), idx, len: 0 })
    }

    /// Checks up to `n` packets out as bare indices, appended to `out`:
    /// the home stripe's tail under one lock, then a steal whenever it
    /// runs dry (which moves half a victim's deque home). No `Packet` is
    /// made, so the batch costs no refcount on the pool. Every index
    /// comes back through [`reclaim`](Self::reclaim) or
    /// [`put_idxs`](Self::put_idxs).
    pub(crate) fn get_idxs(&self, n: usize, out: &mut Vec<u32>) {
        let home = self.shared.home();
        let want = out.len() + n;
        loop {
            {
                let mut q = home.lock();
                let take = (want - out.len()).min(q.len());
                let from = q.len() - take;
                out.extend(q.drain(from..));
            }
            if out.len() == want {
                return;
            }
            match self.steal() {
                Some(idx) => out.push(idx),
                None => return,
            }
        }
    }

    /// Returns checked-out indices to the current core's stripe under
    /// one lock.
    pub(crate) fn put_idxs(&self, idxs: &[u32]) {
        if !idxs.is_empty() {
            self.shared.home().lock().extend(idxs);
        }
    }

    /// Base address of the checked-out packet `idx` (posting it as a
    /// receive buffer).
    pub(crate) fn packet_ptr(&self, idx: u32) -> *mut u8 {
        self.shared.packet_ptr(idx)
    }

    /// One steal round: visits victim stripes starting at a
    /// pseudo-random position and takes half of the first non-empty
    /// deque from its *head*, returning one packet index and moving the
    /// rest onto the home stripe.
    fn steal(&self) -> Option<u32> {
        let home = self.shared.home();
        let nstripes = self.shared.stripes.len();
        let me = topology::current_core() & self.shared.mask;
        let start = rand_seed() % nstripes;
        for k in 0..nstripes {
            let v = (start + k) % nstripes;
            if v == me {
                continue;
            }
            let Some(mut vq) = self.shared.stripes[v].0.try_lock() else { continue };
            let take = vq.len().div_ceil(2);
            let Some(first) = vq.pop_front() else { continue };
            // The rest of the half moves from the victim's head straight
            // onto our tail. Both locks are try-locks — nobody waits for
            // one while holding another — so with ours busy we leave with
            // the one packet.
            if let Some(mut q) = home.try_lock() {
                q.extend(vq.drain(..take - 1));
            }
            return Some(first);
        }
        None
    }

    /// Returns a packet index to the current core's stripe (a
    /// cross-core free re-homes the packet to the freeing core).
    #[inline]
    fn put_idx(shared: &PoolShared, idx: u32) {
        shared.home().lock().push_back(idx);
    }

    /// Reconstructs a packet from an index checked out of this pool as a
    /// bare index (a pre-posted receive, returned in a fabric
    /// completion).
    ///
    /// # Safety
    /// `idx` must be checked out of this pool as a bare index and must
    /// not be reclaimed twice.
    pub unsafe fn reclaim(&self, idx: u32, len: usize) -> Packet {
        Packet { shared: self.shared.clone(), idx, len }
    }
}

impl std::fmt::Debug for PacketPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketPool")
            .field("payload_size", &self.shared.payload_size)
            .field("capacity", &self.shared.capacity)
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

/// Seed source for per-thread victim-selection RNGs.
static NEXT_SEED: AtomicU64 = AtomicU64::new(1);

/// Cheap per-thread xorshift for victim selection (no rand dependency on
/// the critical path). Seeded once per thread from a global counter run
/// through a splitmix64 finalizer so consecutive thread seeds are
/// decorrelated.
fn rand_seed() -> usize {
    use std::cell::Cell;
    thread_local! {
        static SEED: Cell<u64> = const { Cell::new(0) };
    }
    SEED.with(|s| {
        let mut x = s.get();
        if x == 0 {
            let mut z =
                NEXT_SEED.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x = (z ^ (z >> 31)) | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x as usize
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{coalesce_pack, coalesce_records};
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn get_put_roundtrip() {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 128, count: 8 }).unwrap();
        let mut p = pool.get().unwrap();
        p.fill(b"hello");
        assert_eq!(&p.as_slice()[..5], b"hello");
        assert_eq!(p.len(), 5);
        assert_eq!(pool.outstanding(), 1);
        drop(p);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 64, count: 4 }).unwrap();
        let held: Vec<Packet> = (0..4).map(|_| pool.get().unwrap()).collect();
        assert!(pool.get().is_none());
        drop(held);
        assert!(pool.get().is_some());
    }

    /// Indices checked out in a batch count as outstanding until each is
    /// reclaimed or put back; a batch larger than the home stripe steals.
    #[test]
    fn index_checkout_reclaim_and_put_back() {
        let pool =
            PacketPool::with_stripes(PacketPoolConfig { payload_size: 64, count: 8 }, 2).unwrap();
        let mut idxs = Vec::new();
        pool.get_idxs(3, &mut idxs);
        assert_eq!(idxs.len(), 3);
        assert_eq!(pool.outstanding(), 3);
        // SAFETY: checked out above, reclaimed once.
        let mut p = unsafe { pool.reclaim(idxs[0], 0) };
        assert_eq!(p.as_mut_slice().as_ptr(), pool.packet_ptr(idxs[0]).cast_const());
        drop(p);
        assert_eq!(pool.outstanding(), 2);
        pool.put_idxs(&idxs[1..]);
        assert_eq!(pool.outstanding(), 0);
        // From the other stripe: everything sits on this thread's, so the
        // batch is steals and what they moved home, until the pool is dry.
        let me = topology::current_core();
        let pool2 = pool.clone();
        let got = std::thread::spawn(move || {
            topology::bind_current_thread(me + 1);
            let mut idxs = Vec::new();
            pool2.get_idxs(16, &mut idxs);
            pool2.put_idxs(&idxs);
            idxs.len()
        });
        assert_eq!(got.join().unwrap(), 8, "a batch on an empty stripe steals");
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn stealing_across_threads() {
        // Two explicit stripes so the test exercises the cross-core
        // steal path even on a single-core host: the pool is seeded on
        // this thread's home stripe, and a thread bound to the *other*
        // logical core must steal to make progress.
        let pool =
            PacketPool::with_stripes(PacketPoolConfig { payload_size: 32, count: 64 }, 2).unwrap();
        let my_core = topology::current_core();
        let pool2 = pool.clone();
        let t = std::thread::spawn(move || {
            topology::bind_current_thread(my_core + 1);
            let mut got = Vec::new();
            for _ in 0..16 {
                if let Some(p) = pool2.get() {
                    got.push(p);
                }
            }
            got.len()
        });
        let stolen = t.join().unwrap();
        assert!(stolen > 0, "remote core should steal packets");
        drop(pool);
    }

    #[test]
    fn concurrent_get_put_stress() {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 32, count: 128 }).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    let mut ok = 0usize;
                    for _ in 0..5_000 {
                        if let Some(p) = pool.get() {
                            ok += 1;
                            drop(p);
                        }
                    }
                    ok
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(pool.outstanding(), 0);
    }

    /// A frame's views carry the count set up front: the slot stays out
    /// while any view or the frame handle lives, views never handed out
    /// are given back with the handle, and nothing is released twice.
    #[test]
    fn frame_views_release_slot_once() {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 64, count: 2 }).unwrap();
        let mut p = pool.get().unwrap();
        p.fill(b"abcdefgh");
        let frame = p.into_views(3);
        let (v1, v2) = (frame.view(0, 4), frame.view(4, 4));
        drop(frame);
        assert_eq!(pool.outstanding(), 1, "views keep the slot checked out");
        let v3 = v2.clone();
        assert_eq!((v1.as_slice(), v2.as_slice()), (&b"abcd"[..], &b"efgh"[..]));
        drop((v1, v2));
        assert_eq!(pool.outstanding(), 1, "a clone holds its own reference");
        assert_eq!(v3.as_slice(), b"efgh");
        drop(v3);
        assert_eq!(pool.outstanding(), 0);
        let frame = pool.get().unwrap().into_views(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _views = (frame.view(0, 0), frame.view(0, 0), frame.view(0, 0));
        }));
        assert!(r.is_err(), "a view past the count must panic");
        drop(frame);
        assert_eq!(pool.outstanding(), 0);
    }

    /// The views of one frame dropped on four threads in random order:
    /// the slot goes back to the pool exactly once, after the last one,
    /// and no view reads a reused slot. A scribbler keeps taking packets
    /// and overwriting them, so a slot handed back early shows as a
    /// corrupt view, and one handed back twice as a pool that is not
    /// back to its baseline (or as two owners of one slot).
    #[test]
    fn frame_views_dropped_across_threads() {
        const VIEWS: usize = 64;
        const SIZE: usize = 16;
        let pool =
            PacketPool::new(PacketPoolConfig { payload_size: VIEWS * SIZE, count: 4 }).unwrap();
        let baseline = pool.outstanding();
        let stop = Arc::new(AtomicUsize::new(0));
        let scribbler = {
            let (pool, stop) = (pool.clone(), stop.clone());
            std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    if let Some(mut p) = pool.get() {
                        p.fill(&[0xFF; VIEWS * SIZE]);
                    }
                }
            })
        };
        let byte = |round: usize, view: usize| ((round * 7 + view) % 251) as u8;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng as usize
        };
        for round in 0..200 {
            let mut p = loop {
                if let Some(p) = pool.get() {
                    break p;
                }
            };
            let bytes: Vec<u8> = (0..VIEWS * SIZE).map(|i| byte(round, i / SIZE)).collect();
            p.fill(&bytes);
            let frame = p.into_views(VIEWS as u32);
            let mut views: Vec<_> = (0..VIEWS).map(|i| (i, frame.view(i * SIZE, SIZE))).collect();
            drop(frame);
            for i in (1..VIEWS).rev() {
                views.swap(i, next() % (i + 1));
            }
            let mut bins: Vec<Vec<_>> = (0..4).map(|_| Vec::new()).collect();
            for v in views {
                bins[next() % 4].push(v);
            }
            std::thread::scope(|s| {
                for bin in bins {
                    s.spawn(move || {
                        for (i, view) in bin {
                            std::thread::yield_now();
                            assert!(
                                view.as_slice().iter().all(|&b| b == byte(round, i)),
                                "round {round}: view {i} read a reused slot"
                            );
                        }
                    });
                }
            });
        }
        stop.store(1, Ordering::Relaxed);
        scribbler.join().unwrap();
        assert_eq!(pool.outstanding(), baseline, "a frame's slot leaked or was freed twice");
    }

    #[test]
    fn view_bounds_checked() {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 16, count: 1 }).unwrap();
        let mut p = pool.get().unwrap();
        p.fill(&[7u8; 8]);
        let frame = p.into_views(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| frame.view(4, 8)));
        assert!(r.is_err(), "view past payload length must panic");
        let v = frame.view(8, 0);
        assert!(v.is_empty());
    }

    /// Views cloned and dropped concurrently across threads never corrupt
    /// the payload and release the slot exactly once: after every round the
    /// pool reports zero outstanding packets.
    #[test]
    fn frame_views_cloned_across_threads() {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 4096, count: 8 }).unwrap();
        for round in 0..50usize {
            let mut packet = pool.get().unwrap();
            let data: Vec<u8> = (0..1024).map(|i| (i + round) as u8).collect();
            packet.fill(&data);
            let frame = packet.into_views(4);
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let view = frame.view(t * 256, 256);
                    let expect: Vec<u8> = data[t * 256..(t + 1) * 256].to_vec();
                    std::thread::spawn(move || {
                        let clones: Vec<_> = (0..100).map(|_| view.clone()).collect();
                        for c in &clones {
                            assert_eq!(c.as_slice(), &expect[..]);
                        }
                    })
                })
                .collect();
            drop(frame);
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(pool.outstanding(), 0, "round {round}: slot leaked or double-freed");
        }
    }

    proptest! {
        /// Demuxing a packed frame through its views yields exactly the
        /// bytes the copying unpack produces, for any record sequence —
        /// and dropping the last view returns the packet slot.
        #[test]
        fn view_demux_byte_identical_to_copying(
            subs in proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200)),
                1..12,
            ),
        ) {
            let pool = PacketPool::new(PacketPoolConfig { payload_size: 4096, count: 4 }).unwrap();
            let mut bytes = Vec::new();
            for (imm, payload) in &subs {
                coalesce_pack(&mut bytes, *imm, payload);
            }
            let mut packet = pool.get().unwrap();
            packet.fill(&bytes);

            let wire = &packet.as_slice()[..packet.len()];
            let ranges: Vec<_> = coalesce_records(wire).map(|r| r.unwrap()).collect();
            let copied: Vec<(u64, Vec<u8>)> =
                ranges.iter().map(|(imm, r)| (*imm, wire[r.clone()].to_vec())).collect();
            let frame = packet.into_views(ranges.len() as u32);

            prop_assert_eq!(ranges.len(), copied.len());
            let views: Vec<_> = ranges
                .into_iter()
                .map(|(imm, r)| (imm, frame.view(r.start, r.end - r.start)))
                .collect();
            drop(frame);
            prop_assert_eq!(pool.outstanding(), 1, "views must keep the slot alive");
            for ((imm_v, view), (imm_c, bytes)) in views.iter().zip(&copied) {
                prop_assert_eq!(imm_v, imm_c);
                prop_assert_eq!(view.as_slice(), &bytes[..]);
            }
            drop(views);
            prop_assert_eq!(pool.outstanding(), 0, "last view must release the slot");
        }
    }

    #[test]
    fn local_get_succeeds_while_lock_contended() {
        // Satellite regression: a busy local lock must not make `get`
        // fail (or steal) when local packets exist. With a single
        // packet that only ever lives on this thread's deque, `get`
        // must succeed on every iteration even while another thread
        // hammers every deque lock via `outstanding()`.
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 32, count: 1 }).unwrap();
        let stop = Arc::new(AtomicUsize::new(0));
        let pool2 = pool.clone();
        let stop2 = stop.clone();
        let t = std::thread::spawn(move || {
            while stop2.load(Ordering::Relaxed) == 0 {
                let _ = pool2.outstanding();
            }
        });
        for _ in 0..20_000 {
            let p = pool.get().expect("local packet present; lock-busy must retry, not fail");
            drop(p);
        }
        stop.store(1, Ordering::Relaxed);
        t.join().unwrap();
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn packet_capacity_asserts() {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 8, count: 1 }).unwrap();
        let mut p = pool.get().unwrap();
        p.fill(&[0u8; 8]);
        assert_eq!(p.len(), 8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.fill(&[0u8; 9]);
        }));
        assert!(r.is_err());
    }
}
