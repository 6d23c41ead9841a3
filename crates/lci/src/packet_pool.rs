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

use crate::error::{FatalError, Result};
use lci_fabric::sync::{MpmcArray, SpinLock};
use lci_fabric::topology::{self, CachePadded};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
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
}

impl PoolShared {
    fn packet_ptr(&self, idx: u32) -> *mut u8 {
        let chunk = idx as usize / CHUNK_PACKETS;
        let slot = idx as usize % CHUNK_PACKETS;
        let base = self.chunk_bases.read(chunk).expect("packet chunk missing");
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

    /// Raw base pointer (for posting as a receive buffer).
    pub fn raw_ptr(&self) -> *mut u8 {
        self.shared.packet_ptr(self.idx)
    }

    /// The packet's pool index, used as a completion context when the
    /// packet's memory is checked out to the fabric.
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// Releases ownership without returning the packet to the pool; pair
    /// with [`PacketPool::reclaim`]. Used when the packet's memory is
    /// handed to the fabric as a pre-posted receive buffer.
    pub fn leak(self) -> u32 {
        let idx = self.idx;
        let mut me = std::mem::ManuallyDrop::new(self);
        // SAFETY: `me` is never used again and its Drop is suppressed;
        // dropping the Arc here keeps the pool's refcount balanced
        // (reclaim clones a fresh handle).
        unsafe {
            std::ptr::drop_in_place(&mut me.shared);
        }
        idx
    }

    /// Converts this packet into a refcounted [`SharedPacket`] so many
    /// read-only views can alias it; the slot returns to the pool when
    /// the last view (and the `SharedPacket` itself) drops.
    pub fn into_shared(self) -> SharedPacket {
        let me = std::mem::ManuallyDrop::new(self);
        // SAFETY: `me`'s Drop is suppressed and the fields are moved out
        // exactly once; `SharedInner`'s Drop takes over slot ownership.
        let shared = unsafe { std::ptr::read(&me.shared) };
        SharedPacket { inner: Arc::new(SharedInner { shared, idx: me.idx, len: me.len }) }
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

/// Shared ownership of one checked-out packet slot. Created by
/// [`Packet::into_shared`]; dropped when the `SharedPacket` and every
/// [`PacketView`] carved from it are gone, at which point the slot
/// returns to the dropping thread's deque — exactly once.
struct SharedInner {
    shared: Arc<PoolShared>,
    idx: u32,
    len: usize,
}

impl Drop for SharedInner {
    fn drop(&mut self) {
        PacketPool::put_idx(&self.shared, self.idx);
    }
}

/// A refcounted, read-only packet. One received packet (e.g. a coalesced
/// frame) can back many sub-message [`PacketView`]s without copying; the
/// underlying slot is released when the last handle drops.
#[derive(Clone)]
pub struct SharedPacket {
    inner: Arc<SharedInner>,
}

impl SharedPacket {
    /// Logical payload length (as received).
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Read access to the payload.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the slot stays checked out (and unaliased by writers)
        // while any handle to this `SharedInner` is alive.
        unsafe {
            std::slice::from_raw_parts(self.inner.shared.packet_ptr(self.inner.idx), self.inner.len)
        }
    }

    /// Carves a zero-copy sub-slice view out of this packet.
    ///
    /// # Panics
    /// Panics if `off + len` exceeds the payload length.
    pub fn view(&self, off: usize, len: usize) -> PacketView {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.inner.len),
            "view {off}+{len} out of bounds for packet payload of {}",
            self.inner.len
        );
        PacketView { inner: self.inner.clone(), off, len }
    }
}

impl std::fmt::Debug for SharedPacket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPacket")
            .field("idx", &self.inner.idx)
            .field("len", &self.inner.len)
            .field("refs", &Arc::strong_count(&self.inner))
            .finish()
    }
}

/// A zero-copy read-only slice of a [`SharedPacket`]. Holds a strong
/// reference: the packet slot cannot be reused while any view is alive.
#[derive(Clone)]
pub struct PacketView {
    inner: Arc<SharedInner>,
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
        // SAFETY: bounds checked at construction; slot stays checked out
        // while this view is alive.
        unsafe {
            std::slice::from_raw_parts(
                self.inner.shared.packet_ptr(self.inner.idx).add(self.off),
                self.len,
            )
        }
    }
}

impl std::fmt::Debug for PacketView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketView")
            .field("idx", &self.inner.idx)
            .field("off", &self.off)
            .field("len", &self.len)
            .finish()
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
    /// detected core; rounded up to a power of two). Placement-aware
    /// callers pass their core-map width so the pool and the other
    /// per-core structures shard identically.
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
        if let Some(idx) = fast {
            return Some(Packet { shared: self.shared.clone(), idx, len: 0 });
        }
        // Steal: visit victim stripes starting at a pseudo-random
        // position, taking half of the first non-empty deque from its
        // *head*.
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
            return Some(Packet { shared: self.shared.clone(), idx: first, len: 0 });
        }
        None
    }

    /// Returns a packet index to the current core's stripe (a
    /// cross-core free re-homes the packet to the freeing core).
    #[inline]
    fn put_idx(shared: &Arc<PoolShared>, idx: u32) {
        shared.home().lock().push_back(idx);
    }

    /// Reconstructs a packet from an index previously obtained with
    /// [`Packet::leak`] (e.g. returned in a fabric completion).
    ///
    /// # Safety
    /// `idx` must come from a `leak` on this pool and must not be
    /// reclaimed twice.
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

    #[test]
    fn leak_and_reclaim() {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 64, count: 2 }).unwrap();
        let mut p = pool.get().unwrap();
        p.fill(&[1, 2, 3]);
        let idx = p.leak();
        assert_eq!(pool.outstanding(), 1);
        // SAFETY: idx came from leak, reclaimed once.
        let p2 = unsafe { pool.reclaim(idx, 3) };
        assert_eq!(&p2.as_slice()[..3], &[1, 2, 3]);
        drop(p2);
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

    #[test]
    fn shared_views_release_slot_once() {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 64, count: 2 }).unwrap();
        let mut p = pool.get().unwrap();
        p.fill(b"abcdefgh");
        let shared = p.into_shared();
        assert_eq!(pool.outstanding(), 1);
        let v1 = shared.view(0, 4);
        let v2 = shared.view(4, 4);
        drop(shared);
        assert_eq!(pool.outstanding(), 1, "views keep the slot checked out");
        assert_eq!(v1.as_slice(), b"abcd");
        assert_eq!(v2.as_slice(), b"efgh");
        drop(v1);
        assert_eq!(pool.outstanding(), 1);
        drop(v2);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn view_bounds_checked() {
        let pool = PacketPool::new(PacketPoolConfig { payload_size: 16, count: 1 }).unwrap();
        let mut p = pool.get().unwrap();
        p.fill(&[7u8; 8]);
        let shared = p.into_shared();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shared.view(4, 8)));
        assert!(r.is_err(), "view past payload length must panic");
        let v = shared.view(8, 0);
        assert!(v.is_empty());
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
