//! Small internal utilities.

use lci_fabric::sync::SpinLock;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A slab of pending-operation descriptors with id reuse. Ids stay small
/// (free-list reuse) so they fit in the 24-bit aux field of the wire
/// header (rendezvous FIN addressing).
pub(crate) struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Self { entries: Vec::new(), free: Vec::new(), len: 0 }
    }

    /// Inserts a value, returning its id.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if let Some(id) = self.free.pop() {
            self.entries[id as usize] = Some(value);
            id
        } else {
            self.entries.push(Some(value));
            (self.entries.len() - 1) as u32
        }
    }

    /// Runs `f` on the occupied slot of `id` (`None` for an unknown id).
    /// `f` may replace the entry, or remove it by taking it out of the
    /// slot.
    pub fn with<R>(&mut self, id: u32, f: impl FnOnce(&mut Option<T>) -> R) -> Option<R> {
        let slot = self.entries.get_mut(id as usize).filter(|s| s.is_some())?;
        let out = f(slot);
        if slot.is_none() {
            self.free.push(id);
            self.len -= 1;
        }
        Some(out)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }
}

/// A sharded, internally locked slab: `N` independent `SpinLock<Slab>`
/// stripes with round-robin id allocation, so concurrent inserts and
/// removals mostly touch different locks (shard = `id % N`, inner id =
/// `id / N`). Free-list reuse inside each stripe keeps combined ids
/// small enough for the 24-bit wire-header aux field.
pub(crate) struct ShardedSlab<T> {
    shards: Box<[SpinLock<Slab<T>>]>,
    next: AtomicUsize,
}

impl<T> ShardedSlab<T> {
    pub fn new(nshards: usize) -> Self {
        let n = nshards.max(1);
        Self {
            shards: (0..n).map(|_| SpinLock::new(Slab::new())).collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Inserts a value into the next shard (round-robin), returning its
    /// combined id.
    ///
    /// Combined ids ride in the 24-bit aux field of the wire header, so
    /// the slab addresses at most `2^24 / nshards` concurrently live
    /// entries per shard; an insert past that bound would alias ids on
    /// the wire and is a debug-time panic.
    pub fn insert(&self, value: T) -> u32 {
        let n = self.shards.len() as u32;
        let shard = (self.next.fetch_add(1, Ordering::Relaxed) as u32) % n;
        let inner = self.shards[shard as usize].lock().insert(value);
        let id = inner * n + shard;
        debug_assert!(
            id < (1 << 24),
            "sharded-slab id {id} overflows the 24-bit wire aux field ({n} shards)"
        );
        id
    }

    /// Removes and returns the value with combined id `id`.
    pub fn remove(&self, id: u32) -> Option<T> {
        self.with(id, Option::take).flatten()
    }

    /// Runs `f` on the slot of combined id `id` under its shard's lock,
    /// which makes that lock the entry's own for the call (see
    /// [`Slab::with`]; `None` for an unknown id). `f` may remove the
    /// entry by taking it out of the slot.
    pub fn with<R>(&self, id: u32, f: impl FnOnce(&mut Option<T>) -> R) -> Option<R> {
        let n = self.shards.len() as u32;
        self.shards[(id % n) as usize].lock().with(id / n, f)
    }

    /// Total live entries, summed shard by shard. Advisory: each shard is
    /// locked in turn, so the sum is a consistent per-shard snapshot but
    /// not an atomic view across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_reuse() {
        let mut s: Slab<&str> = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
        assert_eq!(s.with(a, Option::take), Some(Some("a")));
        assert_eq!(s.with(a, Option::take), None, "double remove is None");
        let c = s.insert("c");
        assert_eq!(c, a, "freed id is reused");
        assert_eq!(s.with(c, |v| *v), Some(Some("c")));
        assert_eq!(s.with(b, |v| *v), Some(Some("b")));
    }

    #[test]
    fn with_updates_and_removes() {
        let mut s: Slab<u32> = Slab::new();
        let id = s.insert(1);
        s.with(id, |v| *v = Some(9));
        assert_eq!(s.with(id, |v| *v), Some(Some(9)));
        assert_eq!(s.with(id, |v| v.take()), Some(Some(9)), "taking the value removes it");
        assert_eq!(s.len(), 0);
        assert_eq!(s.with(id, |_| ()), None, "a removed id is unknown");
        assert_eq!(s.insert(2), id, "and free for reuse");
    }

    #[test]
    fn unknown_ids() {
        let mut s: Slab<u8> = Slab::new();
        assert!(s.with(3, |_| ()).is_none());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn sharded_round_trip() {
        let s: ShardedSlab<u32> = ShardedSlab::new(4);
        let ids: Vec<u32> = (0..32).map(|v| s.insert(v)).collect();
        assert_eq!(s.len(), 32);
        // Round-robin allocation spreads consecutive inserts over shards.
        assert_ne!(ids[0] % 4, ids[1] % 4);
        for (v, id) in ids.iter().enumerate() {
            assert_eq!(s.remove(*id), Some(v as u32));
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.remove(ids[0]), None, "double remove is None");
    }

    #[test]
    fn sharded_ids_stay_small() {
        let s: ShardedSlab<usize> = ShardedSlab::new(8);
        // Churn: ids must be reused via per-shard free lists.
        let mut max_id = 0;
        for round in 0..100 {
            let ids: Vec<u32> = (0..16).map(|v| s.insert(round * 16 + v)).collect();
            max_id = max_id.max(*ids.iter().max().unwrap());
            for id in ids {
                s.remove(id).unwrap();
            }
        }
        assert!(max_id < 16 * 8, "ids are reused, not monotonically grown: {max_id}");
    }

    #[test]
    fn sharded_concurrent_churn() {
        let s = std::sync::Arc::new(ShardedSlab::<u64>::new(4));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        let v = (t as u64) << 32 | i;
                        let id = s.insert(v);
                        assert_eq!(s.remove(id), Some(v));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.len(), 0);
    }
}
