//! An LRU memory-registration cache shared by both simulated backends.
//!
//! Registration is the hidden cost of the zero-copy rendezvous protocol:
//! every receive-side buffer must be registered before the RTR can ship
//! and deregistered after the FIN. Real communication stacks amortize
//! this with a registration cache (libfabric's MR cache, UCX's rcache,
//! and the chunked-pipeline stacks cited in PAPERS.md); this module is
//! that layer for the simulated fabric.
//!
//! Semantics:
//!
//! * [`RegCache::register`] returns a cached [`MemoryRegion`] when
//!   `(base, len)` was registered before (a **hit** — no registration
//!   table traffic), otherwise performs the real registration and caches
//!   it (a **miss**).
//! * [`RegCache::release`] is the cached `deregister`: it drops one
//!   reference but keeps the entry alive in the cache so the next
//!   `register` of the same buffer hits.
//! * Entries are only truly deregistered on **eviction**, when the cache
//!   exceeds its entry-count or byte bound. Entries still referenced by
//!   an in-flight operation are never evicted.
//!
//! The cache is guarded by a blocking mutex — the "domain mutex" of the
//! paper's libfabric analysis (§4.2.4): a registration failure cannot be
//! back-propagated as an LCI `retry`, so the lock is not trylock-wrapped.
//! The well-known hazard of real registration caches applies here too
//! (and is accepted, as real stacks accept it): after `release`, a freed
//! buffer whose address is recycled by the allocator for a same-sized
//! allocation will hit the cached registration.
//!
//! The cache sits under `NetDevice::register`/`deregister`, so the
//! deferred-deregistration semantics apply to **every** registration —
//! the internal rendezvous receives *and* the user-facing RMA path: an
//! explicitly deregistered rkey keeps validating remote Put/Get until
//! the entry is evicted.

use crate::mem::{MemoryRegion, RegistrationTable};
use crate::types::Rank;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cached registrations a device keeps at most (released entries beyond
/// this are evicted LRU-first).
pub(crate) const MAX_ENTRIES: usize = 128;
/// Total bytes a device's cached registrations cover at most.
pub(crate) const MAX_BYTES: usize = 64 << 20;

/// Hit/miss/eviction counters, readable through
/// [`NetDevice::reg_cache_stats`](crate::backend::NetDevice::reg_cache_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegCacheStats {
    /// Registrations served from the cache.
    pub hits: u64,
    /// Registrations that went to the registration table.
    pub misses: u64,
    /// Cached registrations truly deregistered to respect the bounds.
    pub evictions: u64,
}

struct Entry {
    mr: MemoryRegion,
    /// Outstanding `register` minus `release` calls; entries with
    /// references are pinned (never evicted).
    refs: usize,
    /// LRU clock stamp of the last `register` touching this entry.
    stamp: u64,
}

struct Inner {
    map: HashMap<(usize, usize), Entry>,
    bytes: usize,
    clock: u64,
}

/// The cache. One per device (the per-domain cache of a real provider).
pub struct RegCache {
    max_entries: usize,
    max_bytes: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl RegCache {
    /// Creates an empty cache with these bounds (a device's are
    /// [`MAX_ENTRIES`] and [`MAX_BYTES`]).
    pub(crate) fn new(max_entries: usize, max_bytes: usize) -> Self {
        Self {
            max_entries,
            max_bytes,
            inner: Mutex::new(Inner { map: HashMap::new(), bytes: 0, clock: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Registers `[ptr, ptr+len)` through the cache (see module docs).
    pub fn register(
        &self,
        table: &RegistrationTable,
        rank: Rank,
        ptr: *const u8,
        len: usize,
    ) -> MemoryRegion {
        let key = (ptr as usize, len);
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(e) = inner.map.get_mut(&key) {
            e.refs += 1;
            e.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return e.mr;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mr = table.register(rank, ptr, len);
        inner.bytes += len;
        inner.map.insert(key, Entry { mr, refs: 1, stamp });
        self.evict_over_bounds(&mut inner, table);
        mr
    }

    /// Releases one reference on a cached registration. The entry stays
    /// cached (the next `register` hits); an `mr` the cache does not own
    /// is deregistered directly.
    pub fn release(&self, table: &RegistrationTable, mr: &MemoryRegion) {
        let mut inner = self.inner.lock();
        match inner.map.get_mut(&(mr.base, mr.len)) {
            Some(e) if e.mr.rkey == mr.rkey => {
                e.refs = e.refs.saturating_sub(1);
            }
            _ => table.deregister(mr),
        }
    }

    /// Evicts released LRU entries until the bounds hold (pinned entries
    /// may keep the cache transiently over its bounds).
    fn evict_over_bounds(&self, inner: &mut Inner, table: &RegistrationTable) {
        while inner.map.len() > self.max_entries || inner.bytes > self.max_bytes {
            let victim = inner
                .map
                .iter()
                .filter(|(_, e)| e.refs == 0)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            let e = inner.map.remove(&key).expect("victim present");
            inner.bytes -= e.mr.len;
            table.deregister(&e.mr);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> RegCacheStats {
        RegCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of cached registrations (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache holds no registrations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(max_entries: usize, max_bytes: usize) -> RegCache {
        RegCache::new(max_entries, max_bytes)
    }

    #[test]
    fn hit_after_release() {
        let t = RegistrationTable::new();
        let c = cache(8, 1 << 20);
        let buf = vec![0u8; 256];
        let a = c.register(&t, 0, buf.as_ptr(), buf.len());
        c.release(&t, &a);
        let b = c.register(&t, 0, buf.as_ptr(), buf.len());
        assert_eq!(a.rkey, b.rkey, "released entry stays cached");
        assert_eq!(c.stats(), RegCacheStats { hits: 1, misses: 1, evictions: 0 });
        // The registration stayed alive across the release.
        assert!(t.validate(a.rkey, 0, 256).is_ok());
    }

    #[test]
    fn distinct_keys_miss() {
        let t = RegistrationTable::new();
        let c = cache(8, 1 << 20);
        let buf = vec![0u8; 256];
        let a = c.register(&t, 0, buf.as_ptr(), 256);
        let b = c.register(&t, 0, buf.as_ptr(), 128);
        assert_ne!(a.rkey, b.rkey, "different lengths are different entries");
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn entry_bound_evicts_lru() {
        let t = RegistrationTable::new();
        let c = cache(2, 1 << 20);
        let bufs: Vec<Vec<u8>> = (0..3).map(|_| vec![0u8; 64]).collect();
        let mrs: Vec<_> = bufs
            .iter()
            .map(|b| {
                let mr = c.register(&t, 0, b.as_ptr(), b.len());
                c.release(&t, &mr);
                mr
            })
            .collect();
        // Third insert evicted the oldest released entry (the first).
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(t.validate(mrs[0].rkey, 0, 1).is_err(), "evicted entry is dead");
        assert!(t.validate(mrs[2].rkey, 0, 1).is_ok());
    }

    #[test]
    fn pinned_entries_survive_bounds() {
        let t = RegistrationTable::new();
        let c = cache(1, 1 << 20);
        let a_buf = [0u8; 64];
        let b_buf = [0u8; 64];
        let a = c.register(&t, 0, a_buf.as_ptr(), 64);
        let _b = c.register(&t, 0, b_buf.as_ptr(), 64);
        // `a` is still referenced: over-bound but not evictable.
        assert_eq!(c.stats().evictions, 0);
        assert!(t.validate(a.rkey, 0, 1).is_ok());
        c.release(&t, &a);
        // A later insert can now evict the released ones.
        let c_buf = [0u8; 64];
        let _ = c.register(&t, 0, c_buf.as_ptr(), 64);
        assert!(c.stats().evictions >= 1);
    }

    #[test]
    fn byte_bound_evicts() {
        let t = RegistrationTable::new();
        let c = cache(64, 100);
        let a_buf = [0u8; 80];
        let b_buf = [0u8; 80];
        let a = c.register(&t, 0, a_buf.as_ptr(), 80);
        c.release(&t, &a);
        let _b = c.register(&t, 0, b_buf.as_ptr(), 80);
        assert_eq!(c.stats().evictions, 1, "160 B over a 100 B bound evicts the released entry");
    }

    #[test]
    fn foreign_mr_release_deregisters() {
        let t = RegistrationTable::new();
        let c = cache(8, 1 << 20);
        let buf = [0u8; 64];
        let mr = t.register(0, buf.as_ptr(), 64);
        c.release(&t, &mr);
        assert!(t.validate(mr.rkey, 0, 1).is_err());
    }
}
