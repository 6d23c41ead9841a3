//! The matching engine (paper §4.1.3): matches incoming sends with
//! user-posted receives on the target side.
//!
//! Two methods matter: `make_key` builds a matching key from the source
//! rank, the tag, and the matching policy; `insert` inserts a key/value
//! of a type (send or receive) and either stores it (returning `None`) or
//! returns a matched value of the complementary type.
//!
//! The default implementation is a hashtable where each bucket is a list
//! of queues, protected by a per-bucket spinlock. With the bucket count
//! (default 65536 in the paper; configurable here, default 4096 to fit
//! many simulated ranks in one process) far above the thread count,
//! contention is rare. The paper's small-structure optimization is kept:
//! buckets hold up to three queues inline and queues hold up to two
//! entries inline before spilling to heap structures, so a low-load-factor
//! insertion touches a single cache line chain.
//!
//! LCI adopts out-of-order delivery and *restricted* wildcard matching
//! (§3.3.2): wildcards are expressed by the [`MatchingPolicy`] both sides
//! agree on, which selects how the key is formed, keeping the hashtable
//! approach valid (no linear scans, unlike MPI's `ANY_SOURCE`/`ANY_TAG`).

use crate::types::{MatchingPolicy, Rank, Tag};
use lci_fabric::sync::SpinLock;
use lci_fabric::topology::StripedU64;
use std::collections::VecDeque;
use std::convert::Infallible;

/// Whether an entry is a send (unexpected message) or a receive (posted
/// receive descriptor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchKind {
    /// An arrived send waiting for its receive.
    Send,
    /// A posted receive waiting for its send.
    Recv,
}

impl MatchKind {
    /// The complementary kind.
    pub fn opposite(self) -> Self {
        match self {
            MatchKind::Send => MatchKind::Recv,
            MatchKind::Recv => MatchKind::Send,
        }
    }
}

/// Builds the default matching key for `(rank, tag)` under `policy`.
///
/// Policy bits are folded into the key so different policies occupy
/// disjoint key spaces (a rank-only send can never accidentally collide
/// with a rank+tag send).
pub fn make_key(rank: Rank, tag: Tag, policy: MatchingPolicy) -> u64 {
    let p = (policy.encode() as u64) << 62;
    match policy {
        MatchingPolicy::RankTag => p | ((rank as u64 & 0x3FFF_FFFF) << 32) | tag as u64,
        MatchingPolicy::RankOnly => p | ((rank as u64 & 0x3FFF_FFFF) << 32),
        MatchingPolicy::TagOnly => p | tag as u64,
        MatchingPolicy::None => p,
    }
}

/// Recycled overflow deques the engine keeps (see
/// [`MatchingEngine`]'s `spares`): collectives burst many same-key
/// entries on fresh tags, so the spilled `VecDeque` would otherwise be
/// allocated and dropped once per burst.
const SPARES_CAP: usize = 32;
/// Largest capacity (entries) a deque may have and still be recycled —
/// bounds the freelist's worst-case footprint.
const SPARE_MAX_ELEMS: usize = 512;

/// The engine-wide freelist of emptied overflow deques.
type Spares<T> = SpinLock<Vec<Box<VecDeque<T>>>>;

/// A same-key FIFO of entries, two inline slots before heap spill.
struct EntryQueue<T> {
    key: u64,
    kind: MatchKind,
    a: Option<T>,
    b: Option<T>,
    // Boxed so the empty-overflow queue costs one pointer inline.
    #[allow(clippy::box_collection)]
    overflow: Option<Box<VecDeque<T>>>,
}

impl<T> EntryQueue<T> {
    fn new(key: u64, kind: MatchKind, first: T) -> Self {
        Self { key, kind, a: Some(first), b: None, overflow: None }
    }

    fn push(&mut self, v: T, spares: &Spares<T>) {
        if self.a.is_none()
            && self.overflow.as_ref().is_none_or(|o| o.is_empty())
            && self.b.is_none()
        {
            self.a = Some(v);
        } else if self.b.is_none() && self.overflow.as_ref().is_none_or(|o| o.is_empty()) {
            self.b = Some(v);
        } else {
            // Spill: reuse a recycled deque (warm capacity included)
            // before asking the allocator for a fresh one.
            let of = match &mut self.overflow {
                Some(of) => of,
                slot @ None => slot.insert(spares.lock().pop().unwrap_or_default()),
            };
            of.push_back(v);
        }
    }

    /// Hands the (empty) overflow deque back to the freelist; called
    /// when this queue is removed from its bucket.
    fn reclaim_overflow(mut self, spares: &Spares<T>) {
        if let Some(mut of) = self.overflow.take() {
            if of.capacity() <= SPARE_MAX_ELEMS {
                of.clear();
                let mut s = spares.lock();
                if s.len() < SPARES_CAP {
                    s.push(of);
                }
            }
        }
    }

    fn pop(&mut self) -> Option<T> {
        // FIFO invariant: a is the front, then b, then overflow; b is
        // only occupied while a is.
        let v = self.a.take()?;
        self.a = self.b.take();
        if let Some(of) = self.overflow.as_mut() {
            self.b = of.pop_front();
        }
        Some(v)
    }

    fn is_empty(&self) -> bool {
        self.a.is_none() && self.b.is_none() && self.overflow.as_ref().is_none_or(|o| o.is_empty())
    }

    fn len(&self) -> usize {
        self.a.is_some() as usize
            + self.b.is_some() as usize
            + self.overflow.as_ref().map_or(0, |o| o.len())
    }
}

/// A bucket: up to three queues inline, spilling to a heap vector.
struct Bucket<T> {
    q: [Option<EntryQueue<T>>; 3],
    // Boxed so the common spill-free bucket stays one pointer wide.
    #[allow(clippy::box_collection)]
    overflow: Option<Box<Vec<EntryQueue<T>>>>,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Self { q: [None, None, None], overflow: None }
    }
}

impl<T> Bucket<T> {
    fn find_mut(&mut self, key: u64) -> Option<&mut EntryQueue<T>> {
        for slot in self.q.iter_mut() {
            if let Some(q) = slot {
                if q.key == key {
                    return slot.as_mut();
                }
            }
        }
        self.overflow.as_mut()?.iter_mut().find(|q| q.key == key)
    }

    fn remove_if_empty(&mut self, key: u64, spares: &Spares<T>) {
        for slot in self.q.iter_mut() {
            if slot.as_ref().is_some_and(|q| q.key == key && q.is_empty()) {
                slot.take().expect("checked above").reclaim_overflow(spares);
                return;
            }
        }
        if let Some(of) = self.overflow.as_mut() {
            if let Some(pos) = of.iter().position(|q| q.key == key && q.is_empty()) {
                // Queue order within a bucket only matters per key, so
                // the swap removal is safe.
                of.swap_remove(pos).reclaim_overflow(spares);
            }
        }
    }

    fn insert_queue(&mut self, q: EntryQueue<T>) {
        for slot in self.q.iter_mut() {
            if slot.is_none() {
                *slot = Some(q);
                return;
            }
        }
        self.overflow.get_or_insert_with(Default::default).push(q);
    }

    fn total_entries(&self) -> usize {
        self.q.iter().flatten().map(|q| q.len()).sum::<usize>()
            + self.overflow.as_ref().map_or(0, |of| of.iter().map(|q| q.len()).sum())
    }
}

/// Matching-engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct MatchingConfig {
    /// Number of hash buckets (power of two). The paper defaults to
    /// 65536; this reproduction defaults to 4096 because it instantiates
    /// one engine per simulated rank inside a single process.
    pub buckets: usize,
}

impl Default for MatchingConfig {
    fn default() -> Self {
        Self { buckets: 4096 }
    }
}

/// The matching engine. Generic over the stored descriptor type so the
/// resource microbenchmark (paper Fig. 5) can drive it directly.
pub struct MatchingEngine<T> {
    buckets: Box<[SpinLock<Bucket<T>>]>,
    mask: u64,
    /// Recycled overflow deques: a same-key burst past the two inline
    /// slots spills to a `VecDeque`, and bursts arrive on fresh keys
    /// (collective tags carry a sequence number), so without recycling
    /// every burst would allocate the deque anew. Only touched on the
    /// spill path — point-to-point inserts never look at it.
    spares: Spares<T>,
    /// Bucket-lock acquisitions that found the lock busy — the
    /// contention signal the scale matrix uses to attribute msgrate
    /// cliffs to matching pressure (tune `MatchingConfig::buckets`).
    contended: StripedU64,
}

impl<T> MatchingEngine<T> {
    /// Creates an engine with the default configuration.
    pub fn new() -> Self {
        Self::with_config(MatchingConfig::default())
    }

    /// Creates an engine with `cfg`.
    pub fn with_config(cfg: MatchingConfig) -> Self {
        let n = cfg.buckets.next_power_of_two().max(2);
        let buckets: Vec<SpinLock<Bucket<T>>> =
            (0..n).map(|_| SpinLock::new(Bucket::default())).collect();
        Self {
            buckets: buckets.into_boxed_slice(),
            mask: (n - 1) as u64,
            spares: SpinLock::new(Vec::new()),
            contended: StripedU64::new(0),
        }
    }

    /// Derives the matching key for `(rank, tag)` under `policy`.
    pub fn key_for(&self, rank: Rank, tag: Tag, policy: MatchingPolicy) -> u64 {
        make_key(rank, tag, policy)
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> &SpinLock<Bucket<T>> {
        // Fibonacci hashing spreads sequential tags/ranks across buckets.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.buckets[(h & self.mask) as usize]
    }

    /// Inserts `(key, value)` of `kind`. If an entry of the complementary
    /// kind with the same key exists, removes and returns it together
    /// with the caller's value (which is then *not* stored); otherwise
    /// stores the value and returns `None`.
    pub fn insert(&self, key: u64, value: T, kind: MatchKind) -> Option<(T, T)> {
        let mut value = Some(value);
        let Ok(matched) =
            self.insert_with(key, kind, || Ok::<_, Infallible>(value.take().expect("stored once")));
        Some((matched?, value.expect("a match stores nothing")))
    }

    /// [`insert`](Self::insert) for a value that is built only if it is
    /// stored: returns the matched entry of the complementary kind, or
    /// stores what `make` builds (called under the bucket lock) and
    /// returns `None`. A `make` that fails leaves the engine as it was
    /// and its error is returned.
    pub fn insert_with<E>(
        &self,
        key: u64,
        kind: MatchKind,
        make: impl FnOnce() -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        let lock = self.bucket_of(key);
        // Try-lock first so bucket contention is *observable*: a busy
        // lock bumps the per-core contended counter before falling back
        // to the blocking acquire (§4.2.2 trylock discipline).
        let mut bucket = match lock.try_lock() {
            Some(b) => b,
            None => {
                self.contended.bump();
                lock.lock()
            }
        };
        match bucket.find_mut(key) {
            Some(q) if q.kind == kind.opposite() => {
                if let Some(matched) = q.pop() {
                    if q.is_empty() {
                        bucket.remove_if_empty(key, &self.spares);
                    }
                    return Ok(Some(matched));
                }
                // Complementary queue exists but is empty (transient;
                // normally removed) — repurpose it.
                let value = make()?;
                q.kind = kind;
                q.push(value, &self.spares);
            }
            Some(q) => q.push(make()?, &self.spares),
            None => bucket.insert_queue(EntryQueue::new(key, kind, make()?)),
        }
        Ok(None)
    }

    /// Total stored entries, by walking every bucket under its lock:
    /// exact at quiescence, for diagnostics and tests, not for a data
    /// path.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.lock().total_entries()).sum()
    }

    /// Bucket-lock acquisitions that found the lock busy since
    /// construction (surfaced as `matching_contended` in
    /// [`StatsSnapshot`](crate::stats::StatsSnapshot)).
    pub fn contended(&self) -> u64 {
        self.contended.sum()
    }

    /// Whether the engine holds no entries: a walk like
    /// [`len`](Self::len)'s that stops at the first stored entry.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.lock().total_entries() == 0)
    }
}

impl<T> Default for MatchingEngine<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn send_then_recv_matches() {
        let m: MatchingEngine<u32> = MatchingEngine::new();
        assert!(m.insert(7, 100, MatchKind::Send).is_none());
        assert_eq!(m.insert(7, 200, MatchKind::Recv), Some((100, 200)));
        assert!(m.is_empty());
    }

    #[test]
    fn recv_then_send_matches() {
        let m: MatchingEngine<u32> = MatchingEngine::new();
        assert!(m.insert(9, 1, MatchKind::Recv).is_none());
        assert_eq!(m.insert(9, 2, MatchKind::Send), Some((1, 2)));
    }

    /// A builder that fails stores nothing — on a fresh key, behind
    /// stored entries of its own kind, on a key a match just emptied —
    /// and a match never calls it.
    #[test]
    fn a_failed_build_stores_nothing() {
        let m: MatchingEngine<u32> = MatchingEngine::new();
        let fail = || Err::<u32, &str>("no room");
        assert_eq!(m.insert_with(1, MatchKind::Send, fail), Err("no room"));
        assert!(m.is_empty());
        assert!(m.insert(1, 10, MatchKind::Send).is_none());
        assert_eq!(m.insert_with(1, MatchKind::Send, fail), Err("no room"));
        assert_eq!(m.insert_with(1, MatchKind::Recv, fail), Ok(Some(10)));
        assert_eq!(m.insert_with(1, MatchKind::Recv, fail), Err("no room"));
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 20, MatchKind::Recv), None);
        assert_eq!(m.insert(1, 30, MatchKind::Send), Some((20, 30)));
    }

    #[test]
    fn different_keys_do_not_match() {
        let m: MatchingEngine<u32> = MatchingEngine::new();
        assert!(m.insert(1, 10, MatchKind::Send).is_none());
        assert!(m.insert(2, 20, MatchKind::Recv).is_none());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn fifo_order_within_key() {
        let m: MatchingEngine<u32> = MatchingEngine::new();
        for i in 0..5 {
            assert!(m.insert(3, i, MatchKind::Send).is_none());
        }
        for i in 0..5 {
            assert_eq!(m.insert(3, 99, MatchKind::Recv), Some((i, 99)));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn overflow_past_inline_slots() {
        let m: MatchingEngine<usize> = MatchingEngine::with_config(MatchingConfig { buckets: 2 });
        // Many keys in few buckets exercises bucket overflow; many values
        // per key exercises queue overflow.
        for key in 0..32u64 {
            for v in 0..8usize {
                assert!(m.insert(key, key as usize * 100 + v, MatchKind::Send).is_none());
            }
        }
        assert_eq!(m.len(), 32 * 8);
        for key in 0..32u64 {
            for v in 0..8usize {
                assert_eq!(
                    m.insert(key, 0, MatchKind::Recv),
                    Some((key as usize * 100 + v, 0)),
                    "key {key} v {v}"
                );
            }
        }
        assert!(m.is_empty());
    }

    #[test]
    fn make_key_policies_disjoint() {
        let k1 = make_key(1, 2, MatchingPolicy::RankTag);
        let k2 = make_key(1, 2, MatchingPolicy::RankOnly);
        let k3 = make_key(1, 2, MatchingPolicy::TagOnly);
        let k4 = make_key(1, 2, MatchingPolicy::None);
        let keys = [k1, k2, k3, k4];
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(keys[i], keys[j]);
            }
        }
        // Rank-only ignores tag; tag-only ignores rank.
        assert_eq!(
            make_key(1, 5, MatchingPolicy::RankOnly),
            make_key(1, 9, MatchingPolicy::RankOnly)
        );
        assert_eq!(
            make_key(3, 5, MatchingPolicy::TagOnly),
            make_key(8, 5, MatchingPolicy::TagOnly)
        );
    }

    #[test]
    fn concurrent_matching_conserves_entries() {
        let m: Arc<MatchingEngine<usize>> = Arc::new(MatchingEngine::new());
        let nthreads = 4;
        let per = 2_000;
        let matched: Arc<std::sync::atomic::AtomicUsize> = Default::default();
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                let m = m.clone();
                let matched = matched.clone();
                std::thread::spawn(move || {
                    let kind = if t % 2 == 0 { MatchKind::Send } else { MatchKind::Recv };
                    for i in 0..per {
                        let key = (i % 64) as u64;
                        if m.insert(key, t * per + i, kind).is_some() {
                            matched.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let matched = matched.load(std::sync::atomic::Ordering::Relaxed);
        let total = nthreads * per;
        // Every insert either stored or matched exactly one stored entry.
        assert_eq!(m.len() + 2 * matched, total);
    }

    proptest! {
        /// Matching keys: same (rank, tag, policy) always collide; the
        /// fields a policy ignores never affect its key.
        #[test]
        fn matching_key_laws(rank in 0usize..1 << 20, tag in any::<u32>(), rank2 in 0usize..1 << 20, tag2 in any::<u32>()) {
            prop_assert_eq!(
                make_key(rank, tag, MatchingPolicy::RankOnly),
                make_key(rank, tag2, MatchingPolicy::RankOnly)
            );
            prop_assert_eq!(
                make_key(rank, tag, MatchingPolicy::TagOnly),
                make_key(rank2, tag, MatchingPolicy::TagOnly)
            );
            prop_assert_eq!(
                make_key(rank, tag, MatchingPolicy::None),
                make_key(rank2, tag2, MatchingPolicy::None)
            );
            // Distinct policies never collide.
            prop_assert_ne!(
                make_key(rank, tag, MatchingPolicy::RankTag),
                make_key(rank, tag, MatchingPolicy::RankOnly)
            );
        }
    }
}
