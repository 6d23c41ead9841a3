//! Small internal utilities.

use lci_fabric::sync::SpinLock;
use lci_fabric::topology;

/// One slot of a [`Slab`]: its value, and a generation bumped every time
/// the slot is vacated.
struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// A slab of pending-operation descriptors with id reuse. Ids stay small
/// (free-list reuse) so they fit in the 24-bit aux field of the wire
/// header (rendezvous FIN addressing).
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Self { slots: Vec::new(), free: Vec::new(), len: 0 }
    }

    /// Inserts a value, returning its id and the slot's generation.
    pub fn insert(&mut self, value: T) -> (u32, u32) {
        self.len += 1;
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(Slot { gen: 0, val: None });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[id as usize];
        debug_assert!(slot.val.is_none(), "free list handed out an occupied slot");
        slot.val = Some(value);
        (id, slot.gen)
    }

    /// Runs `f` on the occupied slot of `id` (`None` for an unknown id).
    /// `f` may replace the entry, or remove it by taking it out of the
    /// slot; removing bumps the slot's generation.
    pub fn with<R>(&mut self, id: u32, f: impl FnOnce(&mut Option<T>) -> R) -> Option<R> {
        let slot = self.slots.get_mut(id as usize).filter(|s| s.val.is_some())?;
        let out = f(&mut slot.val);
        if slot.val.is_none() {
            slot.gen = slot.gen.wrapping_add(1);
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
/// stripes, so concurrent inserts and removals mostly touch different
/// locks (shard = `id % N`, inner id = `id / N`). An insert goes to the
/// poster's core's shard ([`topology::current_core`]): in the
/// thread-per-core regime each core inserts into its own stripe, and a
/// removal on another core returns the slot to its home stripe.
/// Free-list reuse inside each stripe keeps combined ids small enough
/// for the 24-bit wire-header aux field.
///
/// Every device keeps what it has in flight here: its operation
/// contexts (generation-checked, through [`ctx_pack`]/[`ctx_unpack`])
/// and its rendezvous sends and receives (by id).
pub(crate) struct ShardedSlab<T> {
    shards: Box<[SpinLock<Slab<T>>]>,
}

impl<T> ShardedSlab<T> {
    pub fn new(nshards: usize) -> Self {
        let n = nshards.max(1);
        Self { shards: (0..n).map(|_| SpinLock::new(Slab::new())).collect() }
    }

    /// Inserts a value into the calling core's shard, returning its
    /// combined id and the slot's generation.
    ///
    /// Combined ids ride in the 24-bit aux field of the wire header, so
    /// the slab addresses at most `2^24 / nshards` concurrently live
    /// entries per shard; an insert past that bound would alias ids on
    /// the wire and is a debug-time panic.
    pub fn insert(&self, value: T) -> (u32, u32) {
        let n = self.shards.len() as u32;
        let shard = (topology::current_core() % n as usize) as u32;
        let (inner, gen) = self.shards[shard as usize].lock().insert(value);
        let id = inner * n + shard;
        debug_assert!(
            id < (1 << 24),
            "sharded-slab id {id} overflows the 24-bit wire aux field ({n} shards)"
        );
        (id, gen)
    }

    /// Removes and returns the value with combined id `id`.
    pub fn remove(&self, id: u32) -> Option<T> {
        self.with(id, Option::take).flatten()
    }

    /// Removes and returns the value with combined id `id` if its slot
    /// is still at generation `gen`: `None` for a stale or repeated
    /// removal, which would otherwise take the slot's next occupant.
    pub fn take(&self, id: u32, gen: u32) -> Option<T> {
        let n = self.shards.len() as u32;
        let mut shard = self.shards[(id % n) as usize].lock();
        if shard.slots.get((id / n) as usize)?.gen != gen {
            return None;
        }
        shard.with(id / n, Option::take).flatten()
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

/// Packs a [`ShardedSlab`] key into the fabric's 64-bit completion
/// context: `(gen << 32) | (id << 1) | 1`. The low bit keeps every
/// context nonzero (zero is the control-message sentinel).
pub(crate) fn ctx_pack((id, gen): (u32, u32)) -> u64 {
    ((gen as u64) << 32) | ((id as u64) << 1) | 1
}

/// The `(id, gen)` key [`ctx_pack`] packed into `ctx`.
pub(crate) fn ctx_unpack(ctx: u64) -> (u32, u32) {
    debug_assert_eq!(ctx & 1, 1, "not a packed op ctx");
    (((ctx & 0xFFFF_FFFF) >> 1) as u32, (ctx >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn insert_remove_reuse() {
        let mut s: Slab<&str> = Slab::new();
        let (a, _) = s.insert("a");
        let (b, _) = s.insert("b");
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
        assert_eq!(s.with(a, Option::take), Some(Some("a")));
        assert_eq!(s.with(a, Option::take), None, "double remove is None");
        let (c, gen) = s.insert("c");
        assert_eq!(c, a, "freed id is reused");
        assert_eq!(gen, 1, "under the next generation");
        assert_eq!(s.with(c, |v| *v), Some(Some("c")));
        assert_eq!(s.with(b, |v| *v), Some(Some("b")));
    }

    #[test]
    fn with_updates_and_removes() {
        let mut s: Slab<u32> = Slab::new();
        let (id, _) = s.insert(1);
        s.with(id, |v| *v = Some(9));
        assert_eq!(s.with(id, |v| *v), Some(Some(9)));
        assert_eq!(s.with(id, |v| v.take()), Some(Some(9)), "taking the value removes it");
        assert_eq!(s.len(), 0);
        assert_eq!(s.with(id, |_| ()), None, "a removed id is unknown");
        assert_eq!(s.insert(2).0, id, "and free for reuse");
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
        let ids: Vec<u32> = (0..32).map(|v| s.insert(v).0).collect();
        assert_eq!(s.len(), 32);
        // One thread inserts into its own core's shard.
        assert!(ids.iter().all(|id| id % 4 == ids[0] % 4));
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
            let ids: Vec<u32> = (0..16).map(|v| s.insert(round * 16 + v).0).collect();
            max_id = max_id.max(*ids.iter().max().unwrap());
            for id in ids {
                s.remove(id).unwrap();
            }
        }
        assert!(max_id < 16 * 8, "ids are reused, not monotonically grown: {max_id}");
    }

    #[test]
    fn sharded_concurrent_churn() {
        let s = Arc::new(ShardedSlab::<u64>::new(4));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        let v = (t as u64) << 32 | i;
                        let (id, _) = s.insert(v);
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

    /// An operation context as a device issues and consumes one.
    fn put<T>(s: &ShardedSlab<T>, v: T) -> u64 {
        ctx_pack(s.insert(v))
    }

    fn take<T>(s: &ShardedSlab<T>, ctx: u64) -> Option<T> {
        let (id, gen) = ctx_unpack(ctx);
        s.take(id, gen)
    }

    #[test]
    fn double_decode_is_detected() {
        let s: ShardedSlab<u32> = ShardedSlab::new(2);
        let ctx = put(&s, 7);
        assert_eq!(ctx & 1, 1, "a packed ctx is never the zero sentinel");
        assert_eq!(take(&s, ctx), Some(7));
        assert_eq!(take(&s, ctx), None, "second decode of one ctx must fail");
        // The slot is recycled under a new generation; the stale ctx
        // still cannot steal the new occupant.
        let ctx2 = put(&s, 8);
        assert_eq!(take(&s, ctx), None);
        assert_eq!(take(&s, ctx2), Some(8));
    }

    #[test]
    fn slots_are_recycled() {
        let s: ShardedSlab<usize> = ShardedSlab::new(1);
        let warm: Vec<u64> = (0..8).map(|i| put(&s, i)).collect();
        for (i, c) in warm.into_iter().enumerate() {
            assert_eq!(take(&s, c), Some(i));
        }
        let grown = s.shards[0].lock().slots.len();
        for round in 0..100usize {
            let c = put(&s, round);
            assert_eq!(take(&s, c), Some(round));
        }
        assert_eq!(s.shards[0].lock().slots.len(), grown, "steady state must not grow the slab");
    }

    /// Multi-threaded post/complete stress: concurrent inserts and
    /// removes never collide on a generation tag — every thread gets its
    /// own values back and every context decodes exactly once.
    #[test]
    fn concurrent_stress_no_generation_collisions() {
        let s: Arc<ShardedSlab<(usize, usize)>> = Arc::new(ShardedSlab::new(8));
        let nthreads = 4;
        let per = 5_000;
        let window = 16;
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut inflight: Vec<(u64, usize)> = Vec::new();
                    for i in 0..per {
                        inflight.push((put(&s, (t, i)), i));
                        if inflight.len() >= window {
                            // Complete out of order (front of the window).
                            let (ctx, i) = inflight.remove(0);
                            assert_eq!(take(&s, ctx), Some((t, i)), "wrong value for ctx");
                            // A second decode must always miss.
                            assert_eq!(take(&s, ctx), None);
                        }
                    }
                    for (ctx, i) in inflight {
                        assert_eq!(take(&s, ctx), Some((t, i)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 0);
    }

    proptest! {
        /// Interleaved get/put never hands out an in-flight slot: under
        /// any interleaving of inserts and removes, live contexts stay
        /// distinct and decode to exactly their own value.
        #[test]
        fn interleaved_ops_never_alias(ops in proptest::collection::vec(0u8..4, 1..200)) {
            let s: ShardedSlab<u64> = ShardedSlab::new(3);
            let mut live: Vec<(u64, u64)> = Vec::new();
            let mut retired: Vec<u64> = Vec::new();
            let mut seq = 0u64;
            for op in ops {
                match op {
                    // Insert a fresh value.
                    0 | 1 => {
                        let ctx = put(&s, seq);
                        prop_assert!(live.iter().all(|(c, _)| *c != ctx),
                            "slab issued a ctx already in flight");
                        live.push((ctx, seq));
                        seq += 1;
                    }
                    // Remove the oldest live entry.
                    2 => {
                        if !live.is_empty() {
                            let (ctx, v) = live.remove(0);
                            prop_assert_eq!(take(&s, ctx), Some(v));
                            retired.push(ctx);
                        }
                    }
                    // Replay a retired ctx: must never resolve.
                    _ => {
                        if let Some(ctx) = retired.last() {
                            prop_assert_eq!(take(&s, *ctx), None);
                        }
                    }
                }
            }
            for (ctx, v) in live {
                prop_assert_eq!(take(&s, ctx), Some(v));
            }
        }
    }
}
