//! Thread→core topology map for thread-per-core resource placement.
//!
//! The paper's scaling results assume one worker thread per core, with
//! each thread's hot-path resources (packet pool, staging shelves,
//! context slab, stats counters) living on that core so steady-state
//! operation never bounces a shared cache line between cores. This
//! module provides the *logical* core map those structures key off:
//!
//! * [`ncores`] — detected core count: the `LCI_CORES` environment
//!   override wins, then a sysfs parse of
//!   `/sys/devices/system/cpu/online` (Linux), then
//!   `std::thread::available_parallelism`, clamped to at least 1.
//! * [`current_core`] — the calling thread's logical core id, assigned
//!   round-robin over `0..ncores()` the first time a thread asks, or
//!   set explicitly with [`bind_current_thread`].
//!
//! Logical, not physical: the crate has no libc dependency, so OS
//! affinity (`sched_setaffinity`) is delegated to the launcher (taskset
//! / srun / the shm multi-process launcher). When more threads exist
//! than cores — the oversubscribed regime the scale matrix labels
//! honestly — several threads share a logical core and therefore a
//! stripe; they contend on a per-stripe leaf lock but never migrate
//! lines between *different* cores, which is the property the
//! per-core layout exists to protect.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Upper bound on the detected core count; a parse gone wrong must not
/// make every pool allocate thousands of stripes.
pub const MAX_CORES: usize = 1024;

/// Parses a Linux cpulist (`"0-3,8,10-11"`) and returns the number of
/// cpus it names. Returns `None` on empty or malformed input.
pub fn parse_cpu_list(s: &str) -> Option<usize> {
    let mut count = 0usize;
    for part in s.trim().split(',') {
        let part = part.trim();
        if part.is_empty() {
            return None;
        }
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo.trim().parse().ok()?;
                let hi: usize = hi.trim().parse().ok()?;
                if hi < lo {
                    return None;
                }
                count += hi - lo + 1;
            }
            None => {
                let _: usize = part.parse().ok()?;
                count += 1;
            }
        }
    }
    if count == 0 {
        None
    } else {
        Some(count)
    }
}

fn detect_ncores() -> usize {
    if let Ok(v) = std::env::var("LCI_CORES") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_CORES);
            }
        }
    }
    if let Ok(list) = std::fs::read_to_string("/sys/devices/system/cpu/online") {
        if let Some(n) = parse_cpu_list(&list) {
            return n.clamp(1, MAX_CORES);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, MAX_CORES)
}

/// Number of logical cores the process lays resources out over.
/// Cached after the first call; override with `LCI_CORES`.
pub fn ncores() -> usize {
    static NCORES: OnceLock<usize> = OnceLock::new();
    *NCORES.get_or_init(detect_ncores)
}

/// Round-robin cursor handing fresh threads a home core.
static NEXT_CORE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's logical core; `usize::MAX` = not yet assigned.
    static HOME_CORE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's logical core id.
///
/// Assigned round-robin over `0..ncores()` on first use, so the first
/// `ncores()` threads land on distinct cores — the thread-per-core
/// regime — and later threads share (oversubscription). Stable for the
/// life of the thread unless rebound with [`bind_current_thread`].
#[inline]
pub fn current_core() -> usize {
    HOME_CORE.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            return v;
        }
        let assigned = NEXT_CORE.fetch_add(1, Ordering::Relaxed) % ncores();
        c.set(assigned);
        assigned
    })
}

/// Explicitly binds the calling thread to logical core `core`.
///
/// Used by launchers that pin one worker per core and by tests that
/// need to emulate cross-core traffic on a small host. Rebinding
/// is allowed; ids at or above [`ncores`] are accepted (stripe lookups
/// reduce modulo their stripe count).
pub fn bind_current_thread(core: usize) {
    HOME_CORE.with(|c| c.set(core));
}

/// Rounds a requested stripe count to the power of two the striped
/// structures index with (`core & mask`), clamped to `1..=MAX_CORES`.
/// `0` means "one stripe per detected core".
pub fn stripe_count(requested: usize) -> usize {
    let n = if requested == 0 { ncores() } else { requested };
    n.clamp(1, MAX_CORES).next_power_of_two()
}

/// A value padded out to (double) cache-line granularity so adjacent
/// stripes never share a line — the whole point of striping.
#[repr(align(128))]
#[derive(Default, Debug)]
pub struct CachePadded<T>(pub T);

/// A per-core striped counter: updates hit the calling core's cell
/// (no cross-core line bouncing); reads fold all cells.
///
/// Cells wrap individually — a decrement on a different core than the
/// matching increment may drive one cell "negative" (wrapped) — but
/// [`sum`](Self::sum) folds with wrapping adds, so the total is exact
/// whenever the true value is non-negative.
#[derive(Debug)]
pub struct StripedU64 {
    cells: Box<[CachePadded<AtomicU64>]>,
    mask: usize,
}

impl StripedU64 {
    /// A counter with `stripes` cells (`0` = one per detected core).
    pub fn new(stripes: usize) -> Self {
        let n = stripe_count(stripes);
        Self { cells: (0..n).map(|_| CachePadded::default()).collect(), mask: n - 1 }
    }

    #[inline]
    fn cell(&self) -> &AtomicU64 {
        &self.cells[current_core() & self.mask].0
    }

    /// Adds `n` to the calling core's cell.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell().fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the calling core's cell.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Subtracts `n` (per-cell wrapping; the folded sum stays exact).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.cell().fetch_sub(n, Ordering::Relaxed);
    }

    /// Folds all cells into the counter's current value.
    pub fn sum(&self) -> u64 {
        self.cells.iter().fold(0u64, |acc, c| acc.wrapping_add(c.0.load(Ordering::Relaxed)))
    }

    /// Number of cells.
    pub fn stripes(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_list_parsing() {
        assert_eq!(parse_cpu_list("0"), Some(1));
        assert_eq!(parse_cpu_list("0-3"), Some(4));
        assert_eq!(parse_cpu_list("0-3,8"), Some(5));
        assert_eq!(parse_cpu_list("0-1,4-7,9\n"), Some(7));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("a-b"), None);
        assert_eq!(parse_cpu_list("0,,2"), None);
    }

    #[test]
    fn core_ids_are_stable_and_bounded() {
        let a = current_core();
        assert_eq!(a, current_core(), "home core is sticky");
        assert!(a < ncores());
        let handles: Vec<_> =
            (0..4).map(|_| std::thread::spawn(|| (current_core(), current_core()))).collect();
        for h in handles {
            let (x, y) = h.join().unwrap();
            assert_eq!(x, y);
            assert!(x < ncores());
        }
    }

    #[test]
    fn bind_overrides_assignment() {
        std::thread::spawn(|| {
            bind_current_thread(7);
            assert_eq!(current_core(), 7);
            bind_current_thread(2);
            assert_eq!(current_core(), 2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn stripe_count_rounds_to_pow2() {
        assert_eq!(stripe_count(1), 1);
        assert_eq!(stripe_count(3), 4);
        assert_eq!(stripe_count(8), 8);
        assert_eq!(stripe_count(0), ncores().next_power_of_two());
        assert_eq!(stripe_count(usize::MAX), MAX_CORES);
    }

    #[test]
    fn striped_counter_folds_across_cores() {
        let c = StripedU64::new(4);
        std::thread::scope(|s| {
            for core in 0..8 {
                let c = &c;
                s.spawn(move || {
                    bind_current_thread(core);
                    for _ in 0..100 {
                        c.bump();
                    }
                });
            }
        });
        assert_eq!(c.sum(), 800);
        // Cross-core decrement wraps one cell; the fold stays exact.
        std::thread::scope(|s| {
            let c = &c;
            s.spawn(move || {
                bind_current_thread(3);
                c.sub(800);
            });
        });
        assert_eq!(c.sum(), 0);
    }
}
