//! Size-classed recycled byte-buffer pool.
//!
//! The paper's packet pool (§4.1.2) exists so the critical path never
//! touches malloc; this module extends the same discipline to every
//! *staging* buffer the fabric and the LCI runtime allocate per
//! operation: `WirePayload::Heap` send staging, coalesced-frame
//! aggregation buffers, rendezvous gather-scratch slots, and the
//! unexpected-rendezvous bounce buffer. Buffers are recycled through
//! power-of-two size-class shelves guarded by leaf spinlocks (never
//! held while another lock is taken, so cross-device returns — a
//! receiver dropping a sender-staged payload — cannot deadlock).
//!
//! Shelves are laid out **per core** ([`topology`](crate::topology)):
//! each logical core owns a stripe of size-class shelves plus its own
//! counters, so the steady-state take/put fast path touches only
//! owner-local cache lines — no shared head pointer bounces between
//! cores. Every buffer remembers the stripe it was taken on and
//! returns **to that origin stripe** on drop (the slab-allocator
//! remote-free-to-owner discipline): a producer whose buffers are
//! consumed and freed on other cores keeps finding its storage on its
//! own shelf, so the steady-state take path stays owner-local instead
//! of stealing every round trip. A take that still finds its home
//! stripe empty scans the other stripes (steal) before falling back to
//! the allocator, so shelves converge instead of leaking when threads
//! migrate or ownership genuinely moves.
//!
//! A [`PoolBuf`] carries an `Arc` back to its owning pool and returns
//! its storage on drop; [`PoolBuf::detached`] wraps a plain vector with
//! no recycling for oversize payloads.
//! Local-hit/steal/miss/recycled-byte counters surface through
//! [`BufPoolStats`] and the LCI `DeviceStats` overlay.

use crate::sync::SpinLock;
use crate::topology;
use crate::types::{WirePayload, INLINE_MAX};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Smallest recycled size class, in bytes.
pub const MIN_CLASS: usize = 128;
/// Largest recycled size class, in bytes; bigger buffers are not pooled.
pub const MAX_CLASS: usize = 1 << 20;
/// Number of power-of-two shelves between [`MIN_CLASS`] and [`MAX_CLASS`].
const NCLASSES: usize = (MAX_CLASS / MIN_CLASS).trailing_zeros() as usize + 1;

/// Capacity of the size class with index `idx`.
#[inline]
fn class_size(idx: usize) -> usize {
    MIN_CLASS << idx
}

/// Index of the smallest class holding `len` bytes; `None` when `len`
/// exceeds [`MAX_CLASS`].
#[inline]
fn class_of(len: usize) -> Option<usize> {
    if len > MAX_CLASS {
        return None;
    }
    let c = len.next_power_of_two().max(MIN_CLASS);
    Some((c / MIN_CLASS).trailing_zeros() as usize)
}

/// Buffer-pool configuration (a [`DeviceConfig`](crate::DeviceConfig)
/// field).
#[derive(Clone, Copy, Debug)]
pub struct BufPoolConfig {
    /// Maximum buffers kept per size class **per core stripe**; returns
    /// past this bound are dropped (freed) instead of shelved.
    pub max_per_class: usize,
    /// Number of per-core stripes; `0` (the default) means one stripe
    /// per detected core ([`topology::ncores`]), rounded to a power of
    /// two.
    pub stripes: usize,
}

impl Default for BufPoolConfig {
    fn default() -> Self {
        Self { max_per_class: 64, stripes: 0 }
    }
}

/// Point-in-time pool counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufPoolStats {
    /// Requests satisfied from a shelf (`local_hits + steals`).
    pub hits: u64,
    /// Requests satisfied from the calling core's own stripe.
    pub local_hits: u64,
    /// Requests satisfied by stealing from another core's stripe.
    pub steals: u64,
    /// Requests that had to allocate (cold shelves or oversize).
    pub misses: u64,
    /// Bytes of capacity returned to shelves for reuse.
    pub recycled_bytes: u64,
}

/// One core's shelves plus its counters, padded so neighbouring
/// stripes never share a cache line.
#[repr(align(128))]
struct Stripe {
    shelves: [SpinLock<Vec<Vec<u8>>>; NCLASSES],
    local_hits: AtomicU64,
    steals: AtomicU64,
    misses: AtomicU64,
    recycled_bytes: AtomicU64,
}

impl Stripe {
    /// Shelves with room for `max_per_class` buffers each, so a return
    /// never grows one.
    fn new(max_per_class: usize) -> Self {
        Self {
            shelves: std::array::from_fn(|_| SpinLock::new(Vec::with_capacity(max_per_class))),
            local_hits: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled_bytes: AtomicU64::new(0),
        }
    }
}

struct PoolShared {
    stripes: Box<[Stripe]>,
    /// `stripes.len() - 1`; stripe counts are powers of two.
    mask: usize,
    max_per_class: usize,
}

impl PoolShared {
    /// The calling core's home stripe.
    #[inline]
    fn home(&self) -> &Stripe {
        &self.stripes[topology::current_core() & self.mask]
    }

    /// Returns `vec`'s storage to its `origin` stripe — the stripe it
    /// was taken on — or frees it when the shelf is full or the
    /// capacity shrank below the class size. Cross-core frees are the
    /// slow path: they take the origin's shelf lock once, and the
    /// owner's next take finds the storage locally.
    fn put(&self, class: usize, origin: usize, mut vec: Vec<u8>) {
        if vec.capacity() < class_size(class) {
            return;
        }
        let stripe = &self.stripes[origin & self.mask];
        let mut shelf = stripe.shelves[class].lock();
        if shelf.len() < self.max_per_class {
            vec.clear();
            shelf.push(vec);
            drop(shelf);
            stripe.recycled_bytes.fetch_add(class_size(class) as u64, Ordering::Relaxed);
        }
    }

    /// Pops a recycled buffer: owner-local fast path first, then a
    /// try-lock steal sweep over the other stripes, else `None`.
    fn take(&self, class: usize) -> Option<Vec<u8>> {
        let me = topology::current_core() & self.mask;
        let stripe = &self.stripes[me];
        if let Some(v) = stripe.shelves[class].lock().pop() {
            stripe.local_hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        // Slow path: steal a sibling stripe's *surplus* (shelf len ≥ 2).
        // `try_lock` only — a stripe busy serving its owner is skipped,
        // not waited on. Taking a victim's last buffer is refused: with
        // supply exactly matching demand that only moves the hole around
        // the ring (the victim's next owner-local take misses and steals
        // in turn, forever). Missing here instead allocates once, and
        // the new storage homes on this stripe — resident sets grow
        // until every core's steady-state working set is owner-local.
        for off in 1..self.stripes.len() {
            let victim = &self.stripes[(me + off) & self.mask];
            if let Some(mut shelf) = victim.shelves[class].try_lock() {
                if shelf.len() >= 2 {
                    let v = shelf.pop().expect("len >= 2");
                    drop(shelf);
                    stripe.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(v);
                }
            }
        }
        None
    }
}

/// A size-classed recycled byte-buffer pool. Cheap to clone (a shared
/// handle); all clones feed the same shelves.
#[derive(Clone)]
pub struct BufPool {
    shared: Arc<PoolShared>,
}

impl BufPool {
    /// Creates a pool with `cfg`.
    pub fn new(cfg: BufPoolConfig) -> Self {
        let nstripes = topology::stripe_count(cfg.stripes);
        let max_per_class = cfg.max_per_class.max(1);
        Self {
            shared: Arc::new(PoolShared {
                stripes: (0..nstripes).map(|_| Stripe::new(max_per_class)).collect(),
                mask: nstripes - 1,
                max_per_class,
            }),
        }
    }

    /// Capacity of every shelf, for the test that none ever changes
    /// after construction.
    #[cfg(test)]
    pub(crate) fn shelf_capacities(&self) -> Vec<usize> {
        let shelves = self.shared.stripes.iter().flat_map(|s| s.shelves.iter());
        shelves.map(|shelf| shelf.lock().capacity()).collect()
    }

    /// Number of per-core stripes the pool was laid out with.
    pub fn stripes(&self) -> usize {
        self.shared.stripes.len()
    }

    /// An empty buffer with capacity for at least `len` bytes.
    pub fn take_empty(&self, len: usize) -> PoolBuf {
        let Some(class) = class_of(len) else {
            self.shared.home().misses.fetch_add(1, Ordering::Relaxed);
            return PoolBuf::detached(Vec::with_capacity(len));
        };
        let origin = topology::current_core() & self.shared.mask;
        let vec = match self.shared.take(class) {
            Some(v) => v,
            None => {
                self.shared.home().misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(class_size(class))
            }
        };
        PoolBuf { vec, class, origin, pool: Some(self.shared.clone()) }
    }

    /// A zero-filled buffer of exactly `len` bytes.
    pub fn take_len(&self, len: usize) -> PoolBuf {
        let mut b = self.take_empty(len);
        b.vec.resize(len, 0);
        b
    }

    /// A recycled copy of `src`.
    pub fn stage_copy(&self, src: &[u8]) -> PoolBuf {
        let mut b = self.take_empty(src.len());
        b.vec.extend_from_slice(src);
        b
    }

    /// Stages `src` as a wire payload: empty → `None`, small → `Inline`,
    /// larger → a recycled `Heap` buffer.
    pub fn stage(&self, src: &[u8]) -> WirePayload {
        if src.is_empty() {
            WirePayload::None
        } else if src.len() <= INLINE_MAX {
            let mut data = [0u8; INLINE_MAX];
            data[..src.len()].copy_from_slice(src);
            WirePayload::Inline { data, len: src.len() as u8 }
        } else {
            WirePayload::Heap(self.stage_copy(src))
        }
    }

    /// One stripe's counters (`None` past the stripe count) — the
    /// per-core view behind [`stats`](Self::stats), for diagnostics and
    /// placement tests.
    pub fn stripe_stats(&self, idx: usize) -> Option<BufPoolStats> {
        let stripe = self.shared.stripes.get(idx)?;
        let local_hits = stripe.local_hits.load(Ordering::Relaxed);
        let steals = stripe.steals.load(Ordering::Relaxed);
        Some(BufPoolStats {
            hits: local_hits + steals,
            local_hits,
            steals,
            misses: stripe.misses.load(Ordering::Relaxed),
            recycled_bytes: stripe.recycled_bytes.load(Ordering::Relaxed),
        })
    }

    /// Current counters, folded across stripes.
    pub fn stats(&self) -> BufPoolStats {
        let mut s = BufPoolStats::default();
        for stripe in self.shared.stripes.iter() {
            s.local_hits += stripe.local_hits.load(Ordering::Relaxed);
            s.steals += stripe.steals.load(Ordering::Relaxed);
            s.misses += stripe.misses.load(Ordering::Relaxed);
            s.recycled_bytes += stripe.recycled_bytes.load(Ordering::Relaxed);
        }
        s.hits = s.local_hits + s.steals;
        s
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool").field("stats", &self.stats()).finish()
    }
}

/// A byte buffer that returns its storage to its owning [`BufPool`] on
/// drop. Derefs to `[u8]`; grow through [`vec_mut`](Self::vec_mut).
pub struct PoolBuf {
    vec: Vec<u8>,
    /// Size-class index; unused when `pool` is `None`.
    class: usize,
    /// Stripe the storage was taken on; drops return it there, whatever
    /// core they happen on.
    origin: usize,
    pool: Option<Arc<PoolShared>>,
}

impl PoolBuf {
    /// Wraps a plain vector with no recycling (dropped storage is freed).
    pub fn detached(vec: Vec<u8>) -> Self {
        Self { vec, class: 0, origin: 0, pool: None }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Mutable access to the backing vector (append, resize, clear).
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.vec
    }

    /// Steals the backing vector, opting its storage out of recycling.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.vec)
    }
}

impl std::ops::Deref for PoolBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl std::ops::DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for PoolBuf {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl From<Vec<u8>> for PoolBuf {
    fn from(vec: Vec<u8>) -> Self {
        PoolBuf::detached(vec)
    }
}

impl Clone for PoolBuf {
    /// Deep copy, detached from any pool (clones are rare and cold).
    fn clone(&self) -> Self {
        PoolBuf::detached(self.vec.clone())
    }
}

impl std::fmt::Debug for PoolBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolBuf")
            .field("len", &self.vec.len())
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(self.class, self.origin, std::mem::take(&mut self.vec));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_math() {
        assert_eq!(class_of(0), Some(0));
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(128), Some(0));
        assert_eq!(class_of(129), Some(1));
        assert_eq!(class_of(256), Some(1));
        assert_eq!(class_of(MAX_CLASS), Some(NCLASSES - 1));
        assert_eq!(class_of(MAX_CLASS + 1), None);
        for idx in 0..NCLASSES {
            assert_eq!(class_of(class_size(idx)), Some(idx));
        }
    }

    #[test]
    fn recycle_round_trip() {
        let pool = BufPool::new(BufPoolConfig::default());
        let b = pool.stage_copy(&[7u8; 300]);
        assert_eq!(&b[..], &[7u8; 300]);
        let cap = b.vec.capacity();
        drop(b); // returns the 512-class buffer
        let b2 = pool.take_empty(400);
        assert_eq!(b2.vec.capacity(), cap, "same-class storage is reused");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!((s.local_hits, s.steals), (1, 0), "same-thread reuse is owner-local");
        assert_eq!(s.recycled_bytes, 512);
    }

    #[test]
    fn take_len_zero_fills_recycled_storage() {
        let pool = BufPool::new(BufPoolConfig::default());
        let mut b = pool.take_len(200);
        b.copy_from_slice(&[0xAB; 200]);
        drop(b);
        let b2 = pool.take_len(200);
        assert_eq!(&b2[..], &[0u8; 200], "recycled buffer is re-zeroed");
    }

    #[test]
    fn oversize_is_detached() {
        let pool = BufPool::new(BufPoolConfig::default());
        let big = pool.take_empty(MAX_CLASS + 1);
        assert!(big.pool.is_none());
        drop(big);
        assert_eq!(pool.stats().recycled_bytes, 0);
    }

    #[test]
    fn shelf_bound_is_respected() {
        let pool = BufPool::new(BufPoolConfig { max_per_class: 2, stripes: 1 });
        let bufs: Vec<_> = (0..4).map(|_| pool.take_len(128)).collect();
        drop(bufs);
        // Only two returns were shelved.
        assert_eq!(pool.stats().recycled_bytes, 2 * 128);
        let _a = pool.take_len(128);
        let _b = pool.take_len(128);
        let _c = pool.take_len(128);
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn into_vec_opts_out_of_recycling() {
        let pool = BufPool::new(BufPoolConfig::default());
        let b = pool.stage_copy(&[3u8; 200]);
        let v = b.into_vec();
        assert_eq!(v.len(), 200);
        assert_eq!(pool.stats().recycled_bytes, 0);
    }

    #[test]
    fn stage_picks_inline_and_heap() {
        let pool = BufPool::new(BufPoolConfig::default());
        assert!(matches!(pool.stage(&[]), WirePayload::None));
        assert!(matches!(pool.stage(&[0u8; 64]), WirePayload::Inline { .. }));
        assert!(matches!(pool.stage(&[0u8; 65]), WirePayload::Heap(_)));
    }

    #[test]
    fn cross_core_free_returns_to_origin() {
        // Alloc on core 0, free on core 1: the storage comes home to
        // core 0's stripe, so core 0's next take is an owner-local hit
        // (the remote-free-to-owner discipline).
        let pool = BufPool::new(BufPoolConfig { max_per_class: 8, stripes: 2 });
        let (b, cap) = std::thread::scope(|s| {
            s.spawn(|| {
                topology::bind_current_thread(0);
                let b = pool.take_len(256);
                let cap = b.vec.capacity();
                (b, cap)
            })
            .join()
            .unwrap()
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                topology::bind_current_thread(1);
                drop(b);
            });
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                topology::bind_current_thread(0);
                let b2 = pool.take_empty(256);
                assert_eq!(b2.vec.capacity(), cap, "cross-core free came home to the origin shelf");
            });
        });
        let st = pool.stats();
        assert_eq!((st.local_hits, st.steals, st.misses), (1, 0, 1));
    }

    #[test]
    fn orphaned_surplus_is_stolen() {
        // Surplus storage shelved on core 1 (taken and freed there) is
        // found by core 0's steal sweep once core 0's own shelf is dry;
        // the victim's last buffer is left alone (stealing it would
        // just move the hole to core 1).
        let pool = BufPool::new(BufPoolConfig { max_per_class: 8, stripes: 2 });
        std::thread::scope(|s| {
            s.spawn(|| {
                topology::bind_current_thread(1);
                let a = pool.take_len(256);
                let b = pool.take_len(256);
                drop((a, b)); // core 1's shelf now holds two buffers
            });
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                topology::bind_current_thread(0);
                let _stolen = pool.take_empty(256); // surplus: stolen
                let _alloced = pool.take_empty(256); // last buffer: refused
            });
        });
        let st = pool.stats();
        assert_eq!((st.local_hits, st.steals, st.misses), (0, 1, 3));
    }

    #[test]
    fn concurrent_take_put() {
        let pool = BufPool::new(BufPoolConfig::default());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..1000usize {
                        let mut b = pool.take_len(64 + (i % 512));
                        b[0] = i as u8;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 4000);
        assert!(s.hits > 0);
    }
}
