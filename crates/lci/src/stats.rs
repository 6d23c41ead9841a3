//! Per-device operation counters, striped per core.
//!
//! Production communication runtimes expose counters for tuning; these
//! back the spine's per-layer rows and the tests' exact ledgers, and
//! give applications the visibility the paper's "explicit control"
//! philosophy implies.
//!
//! Counters live in **per-core cells** ([`StatsCell`]) laid out over
//! the [`topology`](lci_fabric::topology) core map: a bump touches only
//! the calling core's cache line, so the hot path shares no counter
//! line between cores (the scale matrix showed shared relaxed atomics
//! bouncing at high thread counts). [`DeviceStats::snapshot`] folds the
//! cells.
//!
//! ## Snapshot consistency
//!
//! A snapshot taken while other threads call `progress` cannot be a true
//! point-in-time cut across independent relaxed counters, but it is
//! made *tear-proof for the derived rates*: the fold reads every cell's
//! `progress_useful` before any cell's `progress_calls` (the bump order
//! is calls-then-useful, so reading in the reverse order can only
//! under-count useful relative to calls), and
//! [`StatsSnapshot::useful_poll_rate`] clamps at 1.0.
//! [`StatsSnapshot::since`] uses saturating subtraction so an interval
//! against a live earlier snapshot can never underflow.

use lci_fabric::topology;
use std::sync::atomic::{AtomicU64, Ordering};

/// One core's counter cell. Padded to its own (double) cache line so
/// neighbouring cores never write-share. Field meanings are documented
/// on [`StatsSnapshot`].
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    pub(crate) posts: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) progress_calls: AtomicU64,
    pub(crate) progress_useful: AtomicU64,
    pub(crate) completions: AtomicU64,
    pub(crate) matched: AtomicU64,
    pub(crate) rendezvous: AtomicU64,
    pub(crate) backlogged: AtomicU64,
    pub(crate) coalesced_msgs: AtomicU64,
    pub(crate) coalesce_flushes: AtomicU64,
    pub(crate) batch_posts: AtomicU64,
    pub(crate) batch_posted_msgs: AtomicU64,
    pub(crate) zero_copy_deliveries: AtomicU64,
    pub(crate) copied_deliveries: AtomicU64,
    pub(crate) replenish_batches: AtomicU64,
    pub(crate) replenish_posted: AtomicU64,
    pub(crate) rendezvous_retried: AtomicU64,
    pub(crate) rdv_chunks_posted: AtomicU64,
    pub(crate) rdv_inflight_hwm: AtomicU64,
    pub(crate) rdv_scratch_reuses: AtomicU64,
    pub(crate) early_inbound: AtomicU64,
    pub(crate) coll_rounds: AtomicU64,
    pub(crate) coll_bytes: AtomicU64,
    pub(crate) coll_chunks_inflight_hwm: AtomicU64,
    pub(crate) coll_skipped_pairs: AtomicU64,
    pub(crate) coll_v_bytes_hwm: AtomicU64,
}

/// Monotonic counters for one device, striped per core and folded at
/// snapshot time.
#[derive(Debug)]
pub struct DeviceStats {
    cells: Box<[StatsCell]>,
    /// `cells.len() - 1`; cell counts are powers of two.
    mask: usize,
}

impl Default for DeviceStats {
    fn default() -> Self {
        Self::with_stripes(0)
    }
}

/// Projects one counter out of a cell; plain fn pointers keep the
/// accessors monomorphic and inline-friendly.
pub(crate) type CellField = fn(&StatsCell) -> &AtomicU64;

impl DeviceStats {
    /// Stats with `stripes` per-core cells (`0` = one per detected
    /// core, rounded to a power of two).
    pub fn with_stripes(stripes: usize) -> Self {
        let n = topology::stripe_count(stripes);
        Self { cells: (0..n).map(|_| StatsCell::default()).collect(), mask: n - 1 }
    }

    /// The calling core's cell.
    #[inline]
    fn cell(&self) -> &StatsCell {
        &self.cells[topology::current_core() & self.mask]
    }

    /// Increments `field` in the calling core's cell.
    #[inline]
    pub(crate) fn bump(&self, field: CellField) {
        field(self.cell()).fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to `field` in the calling core's cell.
    #[inline]
    pub(crate) fn add(&self, field: CellField, n: u64) {
        field(self.cell()).fetch_add(n, Ordering::Relaxed);
    }

    /// Raises `field` in the calling core's cell to at least `v`
    /// (per-cell maxima; the fold takes the max across cells).
    #[inline]
    pub(crate) fn raise(&self, field: CellField, v: u64) {
        field(self.cell()).fetch_max(v, Ordering::Relaxed);
    }

    /// Number of per-core cells.
    pub fn stripes(&self) -> usize {
        self.cells.len()
    }

    fn fold(&self, field: CellField) -> u64 {
        self.cells.iter().map(|c| field(c).load(Ordering::Relaxed)).sum()
    }

    fn fold_max(&self, field: CellField) -> u64 {
        self.cells.iter().map(|c| field(c).load(Ordering::Relaxed)).max().unwrap_or(0)
    }

    /// Folds all cells into a snapshot. See the module docs for the
    /// tear-proofing order of the progress counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        // `progress_useful` first, across every cell, *then*
        // `progress_calls`: bumps go calls-then-useful, so this read
        // order guarantees useful <= calls in the folded result even
        // while other threads are inside `progress`.
        let progress_useful = self.fold(|c| &c.progress_useful);
        let progress_calls = self.fold(|c| &c.progress_calls);
        StatsSnapshot {
            posts: self.fold(|c| &c.posts),
            retries: self.fold(|c| &c.retries),
            progress_calls,
            progress_useful: progress_useful.min(progress_calls),
            completions: self.fold(|c| &c.completions),
            matched: self.fold(|c| &c.matched),
            rendezvous: self.fold(|c| &c.rendezvous),
            backlogged: self.fold(|c| &c.backlogged),
            coalesced_msgs: self.fold(|c| &c.coalesced_msgs),
            coalesce_flushes: self.fold(|c| &c.coalesce_flushes),
            batch_posts: self.fold(|c| &c.batch_posts),
            batch_posted_msgs: self.fold(|c| &c.batch_posted_msgs),
            zero_copy_deliveries: self.fold(|c| &c.zero_copy_deliveries),
            copied_deliveries: self.fold(|c| &c.copied_deliveries),
            replenish_batches: self.fold(|c| &c.replenish_batches),
            replenish_posted: self.fold(|c| &c.replenish_posted),
            rendezvous_retried: self.fold(|c| &c.rendezvous_retried),
            rdv_chunks_posted: self.fold(|c| &c.rdv_chunks_posted),
            rdv_inflight_hwm: self.fold_max(|c| &c.rdv_inflight_hwm),
            rdv_scratch_reuses: self.fold(|c| &c.rdv_scratch_reuses),
            early_inbound: self.fold(|c| &c.early_inbound),
            coll_rounds: self.fold(|c| &c.coll_rounds),
            coll_bytes: self.fold(|c| &c.coll_bytes),
            coll_chunks_inflight_hwm: self.fold_max(|c| &c.coll_chunks_inflight_hwm),
            coll_skipped_pairs: self.fold(|c| &c.coll_skipped_pairs),
            coll_v_bytes_hwm: self.fold_max(|c| &c.coll_v_bytes_hwm),
            reg_cache_hits: 0,
            reg_cache_misses: 0,
            reg_cache_evictions: 0,
            buf_pool_hits: 0,
            buf_pool_local_hits: 0,
            buf_pool_steals: 0,
            buf_pool_misses: 0,
            buf_pool_recycled_bytes: 0,
            matching_contended: 0,
            shm_ring_hwm: 0,
            tcp_writev_calls: 0,
            tcp_writev_frames: 0,
            rma_direct_bytes: 0,
            rma_framed_bytes: 0,
        }
    }
}

/// A point-in-time snapshot of [`DeviceStats`] (cells folded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Communication posting operations accepted (posted or done).
    pub posts: u64,
    /// Posting operations that returned `retry`.
    pub retries: u64,
    /// Progress invocations.
    pub progress_calls: u64,
    /// Progress invocations that found work (folded so that
    /// `progress_useful <= progress_calls` always holds, even for
    /// snapshots taken while other threads are inside `progress`).
    pub progress_useful: u64,
    /// Completions handled (CQEs).
    pub completions: u64,
    /// Messages delivered through the matching engine (eager receives).
    pub matched: u64,
    /// Rendezvous transfers started (RTS sent or received+matched).
    pub rendezvous: u64,
    /// Requests parked in the backlog queue.
    pub backlogged: u64,
    /// Small sends absorbed into coalescing buffers.
    pub coalesced_msgs: u64,
    /// Coalesced frames shipped (threshold, ordering, or idle flushes).
    pub coalesce_flushes: u64,
    /// Batched backlog submissions (one posting-lock acquisition each).
    pub batch_posts: u64,
    /// Messages posted through batched submissions.
    pub batch_posted_msgs: u64,
    /// Eager payloads delivered zero-copy (packet- or view-backed).
    pub zero_copy_deliveries: u64,
    /// Eager payloads delivered through a copy (into a posted user
    /// buffer).
    pub copied_deliveries: u64,
    /// Batched SRQ restocks (one SRQ/endpoint-lock acquisition each).
    pub replenish_batches: u64,
    /// Receive buffers posted through batched restocks.
    pub replenish_posted: u64,
    /// Rendezvous posts that backed out with `retry` (RTS could not be
    /// sent). `rendezvous - rendezvous_retried` is the number of
    /// transfers actually started.
    pub rendezvous_retried: u64,
    /// RDMA-write chunks posted by the rendezvous pipeline.
    pub rdv_chunks_posted: u64,
    /// High-water mark of in-flight chunks across all transfers of this
    /// device (max across cells, not a delta counter; see
    /// [`StatsSnapshot::since`]).
    pub rdv_inflight_hwm: u64,
    /// Scratch-ring slots reused (gather copies that did not allocate).
    pub rdv_scratch_reuses: u64,
    /// Inbound deliveries that arrived before their target rcomp was
    /// registered and were parked for retry (one thread's `progress`
    /// racing another's `register_rcomp`).
    pub early_inbound: u64,
    /// Collective communication rounds executed through this device
    /// (ring/dissemination/binomial steps; one bump per peer exchange a
    /// rank takes part in).
    pub coll_rounds: u64,
    /// Payload bytes moved by collectives through this device (sends
    /// only, so cross-rank sums count each byte once).
    pub coll_bytes: u64,
    /// High-water mark of concurrently in-flight collective chunks
    /// (pipelined ring-allreduce chunk sends + bounded-inflight alltoall
    /// block sends; max across cells, not a delta counter — see
    /// [`StatsSnapshot::since`]). Values above 1 demonstrate real
    /// chunk-level overlap.
    pub coll_chunks_inflight_hwm: u64,
    /// Zero-byte `alltoallv` peer pairs that posted nothing on the wire
    /// (send-side skips; the dense `alltoall` and the `coll::naive`
    /// store-and-forward `alltoallv` both pay a full message per empty
    /// pair instead). MoE routing matrices are mostly sparse, so this
    /// counter is the direct evidence the vector exchange exploited it.
    pub coll_skipped_pairs: u64,
    /// High-water mark of total payload bytes one `alltoallv` call
    /// contributed (sum of its send-count vector, self block included;
    /// max across cells, not a delta counter — see
    /// [`StatsSnapshot::since`]). Sizes the largest vector exchange the
    /// device has carried.
    pub coll_v_bytes_hwm: u64,
    /// Registration-cache hits on the device's fabric cache (overlaid by
    /// [`Device::stats`](crate::device::Device::stats), not tracked in
    /// [`DeviceStats`]).
    pub reg_cache_hits: u64,
    /// Registration-cache misses (see [`Self::reg_cache_hits`]).
    pub reg_cache_misses: u64,
    /// Registration-cache evictions (see [`Self::reg_cache_hits`]).
    pub reg_cache_evictions: u64,
    /// Buffer-pool requests served from a shelf, no allocation
    /// (`buf_pool_local_hits + buf_pool_steals`; overlaid by
    /// [`Device::stats`](crate::device::Device::stats) from the shared
    /// fabric pool, not tracked in [`DeviceStats`]).
    pub buf_pool_hits: u64,
    /// Buffer-pool requests served from the calling core's own stripe —
    /// the owner-local fast path (see [`Self::buf_pool_hits`]).
    pub buf_pool_local_hits: u64,
    /// Buffer-pool requests served by stealing from another core's
    /// stripe (see [`Self::buf_pool_hits`]).
    pub buf_pool_steals: u64,
    /// Buffer-pool requests that allocated (see [`Self::buf_pool_hits`]).
    pub buf_pool_misses: u64,
    /// Bytes of buffer capacity recycled through pool shelves (see
    /// [`Self::buf_pool_hits`]).
    pub buf_pool_recycled_bytes: u64,
    /// Matching-engine bucket-lock acquisitions that found the lock
    /// busy (overlaid by [`Device::stats`](crate::device::Device::stats)
    /// from the runtime's shared matching engine — every device of one
    /// runtime reports the same engine-wide value).
    pub matching_contended: u64,
    /// High-water mark of shared-memory ring occupancy (frames) over
    /// every shm channel touching this device's rank (overlaid by
    /// [`Device::stats`](crate::device::Device::stats) from the
    /// transport; zero on simulated backends).
    pub shm_ring_hwm: u64,
    /// `writev` syscalls that made progress on this rank's tcp mesh
    /// (overlaid by [`Device::stats`](crate::device::Device::stats);
    /// zero on non-tcp transports).
    pub tcp_writev_calls: u64,
    /// Frames fully shipped by those `writev` calls; the ratio
    /// `tcp_writev_frames / tcp_writev_calls` (see
    /// [`Self::avg_writev_fill`]) is the average gather fill — the
    /// syscall-amortization figure of merit for the batching ablation.
    pub tcp_writev_frames: u64,
    /// Payload bytes of this device's accepted RDMA writes and reads
    /// (rendezvous chunks, put, get) that it copied straight to or from
    /// the target's registered memory — the single-copy path toward a
    /// peer it can address (overlaid by
    /// [`Device::stats`](crate::device::Device::stats) from the
    /// transport; zero on simulated backends).
    pub rma_direct_bytes: u64,
    /// Payload bytes of the accepted writes and reads that crossed the
    /// wire in frames instead (same overlay).
    pub rma_framed_bytes: u64,
}

impl StatsSnapshot {
    /// Difference against an earlier snapshot (for per-phase
    /// accounting). Saturating: counters racing with concurrent
    /// `progress` callers can never drive an interval negative.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            posts: self.posts.saturating_sub(earlier.posts),
            retries: self.retries.saturating_sub(earlier.retries),
            progress_calls: self.progress_calls.saturating_sub(earlier.progress_calls),
            progress_useful: self.progress_useful.saturating_sub(earlier.progress_useful),
            completions: self.completions.saturating_sub(earlier.completions),
            matched: self.matched.saturating_sub(earlier.matched),
            rendezvous: self.rendezvous.saturating_sub(earlier.rendezvous),
            backlogged: self.backlogged.saturating_sub(earlier.backlogged),
            coalesced_msgs: self.coalesced_msgs.saturating_sub(earlier.coalesced_msgs),
            coalesce_flushes: self.coalesce_flushes.saturating_sub(earlier.coalesce_flushes),
            batch_posts: self.batch_posts.saturating_sub(earlier.batch_posts),
            batch_posted_msgs: self.batch_posted_msgs.saturating_sub(earlier.batch_posted_msgs),
            zero_copy_deliveries: self
                .zero_copy_deliveries
                .saturating_sub(earlier.zero_copy_deliveries),
            copied_deliveries: self.copied_deliveries.saturating_sub(earlier.copied_deliveries),
            replenish_batches: self.replenish_batches.saturating_sub(earlier.replenish_batches),
            replenish_posted: self.replenish_posted.saturating_sub(earlier.replenish_posted),
            rendezvous_retried: self.rendezvous_retried.saturating_sub(earlier.rendezvous_retried),
            rdv_chunks_posted: self.rdv_chunks_posted.saturating_sub(earlier.rdv_chunks_posted),
            // A high-water mark, not a flow counter: the later value is
            // the mark over the whole interval.
            rdv_inflight_hwm: self.rdv_inflight_hwm,
            rdv_scratch_reuses: self.rdv_scratch_reuses.saturating_sub(earlier.rdv_scratch_reuses),
            early_inbound: self.early_inbound.saturating_sub(earlier.early_inbound),
            coll_rounds: self.coll_rounds.saturating_sub(earlier.coll_rounds),
            coll_bytes: self.coll_bytes.saturating_sub(earlier.coll_bytes),
            // High-water mark: the later value covers the interval.
            coll_chunks_inflight_hwm: self.coll_chunks_inflight_hwm,
            coll_skipped_pairs: self.coll_skipped_pairs.saturating_sub(earlier.coll_skipped_pairs),
            // High-water mark: the later value covers the interval.
            coll_v_bytes_hwm: self.coll_v_bytes_hwm,
            reg_cache_hits: self.reg_cache_hits.saturating_sub(earlier.reg_cache_hits),
            reg_cache_misses: self.reg_cache_misses.saturating_sub(earlier.reg_cache_misses),
            reg_cache_evictions: self
                .reg_cache_evictions
                .saturating_sub(earlier.reg_cache_evictions),
            buf_pool_hits: self.buf_pool_hits.saturating_sub(earlier.buf_pool_hits),
            buf_pool_local_hits: self
                .buf_pool_local_hits
                .saturating_sub(earlier.buf_pool_local_hits),
            buf_pool_steals: self.buf_pool_steals.saturating_sub(earlier.buf_pool_steals),
            buf_pool_misses: self.buf_pool_misses.saturating_sub(earlier.buf_pool_misses),
            buf_pool_recycled_bytes: self
                .buf_pool_recycled_bytes
                .saturating_sub(earlier.buf_pool_recycled_bytes),
            matching_contended: self.matching_contended.saturating_sub(earlier.matching_contended),
            // High-water mark: the later value covers the interval.
            shm_ring_hwm: self.shm_ring_hwm,
            tcp_writev_calls: self.tcp_writev_calls.saturating_sub(earlier.tcp_writev_calls),
            tcp_writev_frames: self.tcp_writev_frames.saturating_sub(earlier.tcp_writev_frames),
            rma_direct_bytes: self.rma_direct_bytes.saturating_sub(earlier.rma_direct_bytes),
            rma_framed_bytes: self.rma_framed_bytes.saturating_sub(earlier.rma_framed_bytes),
        }
    }

    /// Average frames shipped per productive `writev` — the vectored
    /// write batching fill factor (1.0 with batching disabled; greater
    /// when the send queue amortizes syscalls). Zero when the tcp
    /// transport was not in use.
    pub fn avg_writev_fill(&self) -> f64 {
        if self.tcp_writev_calls == 0 {
            0.0
        } else {
            self.tcp_writev_frames as f64 / self.tcp_writev_calls as f64
        }
    }

    /// Fraction of progress polls that found work. Low when many
    /// threads poll one device (most polls are wasted lock traffic,
    /// paper §5.3). Clamped to `[0, 1]` — the fold order plus this clamp
    /// is what makes live snapshots tear-proof.
    pub fn useful_poll_rate(&self) -> f64 {
        if self.progress_calls == 0 {
            0.0
        } else {
            (self.progress_useful as f64 / self.progress_calls as f64).min(1.0)
        }
    }

    /// Fraction of posting attempts that had to retry.
    pub fn retry_rate(&self) -> f64 {
        let attempts = self.posts + self.retries;
        if attempts == 0 {
            0.0
        } else {
            self.retries as f64 / attempts as f64
        }
    }

    /// Average sub-messages per coalesced frame (0 when no frame shipped).
    pub fn avg_coalesce_fill(&self) -> f64 {
        if self.coalesce_flushes == 0 {
            0.0
        } else {
            self.coalesced_msgs as f64 / self.coalesce_flushes as f64
        }
    }

    /// Average messages per batched backlog submission (0 when none ran).
    pub fn avg_batch_fill(&self) -> f64 {
        if self.batch_posts == 0 {
            0.0
        } else {
            self.batch_posted_msgs as f64 / self.batch_posts as f64
        }
    }

    /// Average receive buffers per batched SRQ restock (0 when none ran).
    pub fn avg_replenish_fill(&self) -> f64 {
        if self.replenish_batches == 0 {
            0.0
        } else {
            self.replenish_posted as f64 / self.replenish_batches as f64
        }
    }

    /// Registration-cache hit rate (0 when no registrations happened).
    pub fn reg_cache_hit_rate(&self) -> f64 {
        let total = self.reg_cache_hits + self.reg_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.reg_cache_hits as f64 / total as f64
        }
    }

    /// Buffer-pool hit rate (0 when no buffers were requested).
    pub fn buf_pool_hit_rate(&self) -> f64 {
        let total = self.buf_pool_hits + self.buf_pool_misses;
        if total == 0 {
            0.0
        } else {
            self.buf_pool_hits as f64 / total as f64
        }
    }

    /// Owner-local share of buffer-pool shelf hits (0 when no hit
    /// happened) — the thread-per-core placement quality metric: near
    /// 1.0 when every core recycles through its own stripe.
    pub fn buf_pool_local_rate(&self) -> f64 {
        let total = self.buf_pool_local_hits + self.buf_pool_steals;
        if total == 0 {
            0.0
        } else {
            self.buf_pool_local_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_since() {
        let s = DeviceStats::default();
        s.bump(|c| &c.posts);
        s.bump(|c| &c.posts);
        s.bump(|c| &c.retries);
        let a = s.snapshot();
        assert_eq!(a.posts, 2);
        assert_eq!(a.retries, 1);
        s.bump(|c| &c.posts);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.posts, 1);
        assert_eq!(d.retries, 0);
    }

    #[test]
    fn retry_rate() {
        let snap = StatsSnapshot { posts: 3, retries: 1, ..Default::default() };
        assert!((snap.retry_rate() - 0.25).abs() < 1e-12);
        assert_eq!(StatsSnapshot::default().retry_rate(), 0.0);
    }

    #[test]
    fn cells_fold_across_cores() {
        let s = DeviceStats::with_stripes(4);
        assert_eq!(s.stripes(), 4);
        std::thread::scope(|sc| {
            for core in 0..4 {
                let s = &s;
                sc.spawn(move || {
                    lci_fabric::topology::bind_current_thread(core);
                    for _ in 0..10 {
                        s.bump(|c| &c.posts);
                    }
                    s.raise(|c| &c.rdv_inflight_hwm, core as u64 + 1);
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.posts, 40, "cells fold by summing");
        assert_eq!(snap.rdv_inflight_hwm, 4, "high-water marks fold by max");
    }

    #[test]
    fn useful_poll_rate_cannot_tear() {
        // Even a hand-built torn snapshot (useful > calls) clamps.
        let torn = StatsSnapshot { progress_calls: 10, progress_useful: 12, ..Default::default() };
        assert_eq!(torn.useful_poll_rate(), 1.0);
        // And the fold itself clamps: bump useful without calls on one
        // cell (emulating a read racing a calls-then-useful writer).
        let s = DeviceStats::with_stripes(2);
        s.bump(|c| &c.progress_useful);
        let snap = s.snapshot();
        assert!(snap.progress_useful <= snap.progress_calls);
        assert!(snap.useful_poll_rate() <= 1.0);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let a = StatsSnapshot { posts: 5, ..Default::default() };
        let b = StatsSnapshot { posts: 3, ..Default::default() };
        assert_eq!(b.since(&a).posts, 0, "live-race interval must not underflow");
    }
}
