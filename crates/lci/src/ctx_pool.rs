//! Generation-tagged pooled operation contexts (DESIGN.md §4.7).
//!
//! Every posted operation travels through the fabric's 64-bit completion
//! context. The seed implementation boxed an `OpCtx` per post and
//! reconstituted it from the raw pointer at completion — one
//! malloc/free round trip per message on the hottest path. This pool
//! replaces that with a sharded slab: slots are recycled through a
//! per-shard free list, so the steady state touches no allocator at all.
//!
//! Encoding: `ctx = (generation << 32) | (slot_id << 1) | 1`. The low
//! tag bit keeps every id nonzero (a zero context is the control-message
//! sentinel). The generation is bumped every time a slot is vacated, so a
//! stale or double decode of an old context misses the generation check
//! and is reported instead of silently handing back the wrong operation
//! (the pooled analogue of a use-after-free).

use lci_fabric::sync::SpinLock;
use lci_fabric::topology;

/// One slot of a shard: the stored value plus its current generation.
struct CtxSlot<T> {
    gen: u32,
    val: Option<T>,
}

/// A shard: a slab of slots with an embedded free list.
struct CtxShard<T> {
    slots: Vec<CtxSlot<T>>,
    free: Vec<u32>,
}

/// Sharded generation-tagged slab pool for operation contexts.
///
/// Shard selection is keyed by the poster's logical core
/// ([`topology::current_core`]): in the thread-per-core regime each
/// core inserts into its own shard, so posting neither bounces a
/// round-robin cursor between cores nor contends on a shared shard
/// lock. Completion decodes the shard from the context id, so a
/// cross-core completion returns the slot to its home shard.
pub(crate) struct CtxPool<T> {
    shards: Box<[SpinLock<CtxShard<T>>]>,
}

impl<T> CtxPool<T> {
    pub fn new(shards: usize) -> Self {
        let n = shards.clamp(1, 256);
        Self {
            shards: (0..n)
                .map(|_| SpinLock::new(CtxShard { slots: Vec::new(), free: Vec::new() }))
                .collect(),
        }
    }

    /// Stores `val` and returns its encoded context (always odd, so
    /// never the zero control-message sentinel).
    pub fn insert(&self, val: T) -> u64 {
        let nshards = self.shards.len();
        let shard_idx = topology::current_core() % nshards;
        let mut shard = self.shards[shard_idx].lock();
        let slot_idx = match shard.free.pop() {
            Some(i) => i as usize,
            None => {
                shard.slots.push(CtxSlot { gen: 0, val: None });
                shard.slots.len() - 1
            }
        };
        let slot = &mut shard.slots[slot_idx];
        debug_assert!(slot.val.is_none(), "free list handed out an occupied slot");
        slot.val = Some(val);
        let id = (slot_idx * nshards + shard_idx) as u64;
        debug_assert!(id < (1 << 31), "ctx pool id overflow");
        ((slot.gen as u64) << 32) | (id << 1) | 1
    }

    /// Takes the value stored under `ctx` out of the pool. Returns
    /// `None` when the context is stale (already decoded, or never
    /// issued) — the poisoned-generation detection.
    pub fn remove(&self, ctx: u64) -> Option<T> {
        debug_assert_eq!(ctx & 1, 1, "not a pooled context");
        let gen = (ctx >> 32) as u32;
        let id = ((ctx & 0xFFFF_FFFF) >> 1) as usize;
        let nshards = self.shards.len();
        let (slot_idx, shard_idx) = (id / nshards, id % nshards);
        let mut shard = self.shards[shard_idx].lock();
        let slot = shard.slots.get_mut(slot_idx)?;
        if slot.gen != gen {
            return None;
        }
        let val = slot.val.take()?;
        // Vacating bumps the generation: any copy of this ctx value still
        // in flight can never decode again.
        slot.gen = slot.gen.wrapping_add(1);
        shard.free.push(slot_idx as u32);
        Some(val)
    }

    /// Contexts currently checked out (diagnostics/tests).
    #[cfg(test)]
    pub fn in_flight(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.slots.len() - s.free.len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn insert_remove_roundtrip() {
        let pool: CtxPool<String> = CtxPool::new(4);
        let a = pool.insert("a".into());
        let b = pool.insert("b".into());
        assert_ne!(a, b);
        assert_eq!(a & 1, 1);
        assert_eq!(pool.in_flight(), 2);
        assert_eq!(pool.remove(b).as_deref(), Some("b"));
        assert_eq!(pool.remove(a).as_deref(), Some("a"));
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn double_decode_is_detected() {
        let pool: CtxPool<u32> = CtxPool::new(2);
        let ctx = pool.insert(7);
        assert_eq!(pool.remove(ctx), Some(7));
        assert_eq!(pool.remove(ctx), None, "second decode of one ctx must fail");
        // The slot is recycled under a new generation; the stale ctx
        // still cannot steal the new occupant.
        let ctx2 = pool.insert(8);
        assert_eq!(pool.remove(ctx), None);
        assert_eq!(pool.remove(ctx2), Some(8));
    }

    #[test]
    fn slots_are_recycled() {
        let pool: CtxPool<usize> = CtxPool::new(1);
        let warm: Vec<u64> = (0..8).map(|i| pool.insert(i)).collect();
        for (i, c) in warm.into_iter().enumerate() {
            assert_eq!(pool.remove(c), Some(i));
        }
        let grown = pool.shards[0].lock().slots.len();
        for round in 0..100usize {
            let c = pool.insert(round);
            assert_eq!(pool.remove(c), Some(round));
        }
        assert_eq!(pool.shards[0].lock().slots.len(), grown, "steady state must not grow the slab");
    }

    /// Multi-threaded post/complete stress: concurrent inserts and
    /// removes never collide on a generation tag — every thread gets its
    /// own values back and every context decodes exactly once.
    #[test]
    fn concurrent_stress_no_generation_collisions() {
        let pool: Arc<CtxPool<(usize, usize)>> = Arc::new(CtxPool::new(8));
        let nthreads = 4;
        let per = 5_000;
        let window = 16;
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    let mut inflight: Vec<(u64, usize)> = Vec::new();
                    for i in 0..per {
                        inflight.push((pool.insert((t, i)), i));
                        if inflight.len() >= window {
                            // Complete out of order (front of the window).
                            let (ctx, i) = inflight.remove(0);
                            assert_eq!(pool.remove(ctx), Some((t, i)), "wrong value for ctx");
                            // A second decode must always miss.
                            assert_eq!(pool.remove(ctx), None);
                        }
                    }
                    for (ctx, i) in inflight {
                        assert_eq!(pool.remove(ctx), Some((t, i)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.in_flight(), 0);
    }

    proptest! {
        /// Interleaved get/put never hands out an in-flight slot: under
        /// any interleaving of inserts and removes, live contexts stay
        /// distinct and decode to exactly their own value.
        #[test]
        fn interleaved_ops_never_alias(ops in proptest::collection::vec(0u8..4, 1..200)) {
            let pool: CtxPool<u64> = CtxPool::new(3);
            let mut live: Vec<(u64, u64)> = Vec::new();
            let mut retired: Vec<u64> = Vec::new();
            let mut seq = 0u64;
            for op in ops {
                match op {
                    // Insert a fresh value.
                    0 | 1 => {
                        let ctx = pool.insert(seq);
                        prop_assert!(live.iter().all(|(c, _)| *c != ctx),
                            "pool issued a ctx already in flight");
                        live.push((ctx, seq));
                        seq += 1;
                    }
                    // Remove the oldest live entry.
                    2 => {
                        if !live.is_empty() {
                            let (ctx, v) = live.remove(0);
                            prop_assert_eq!(pool.remove(ctx), Some(v));
                            retired.push(ctx);
                        }
                    }
                    // Replay a retired ctx: must never resolve.
                    _ => {
                        if let Some(ctx) = retired.last() {
                            prop_assert_eq!(pool.remove(*ctx), None);
                        }
                    }
                }
            }
            for (ctx, v) in live {
                prop_assert_eq!(pool.remove(ctx), Some(v));
            }
        }
    }
}
