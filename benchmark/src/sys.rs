//! What the benchmark reads from the operating system: CPU clocks,
//! `/proc` counters, and its own counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ns(clk: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec; both clock ids exist
    // on every Linux the repository's shm backend already requires.
    let rc = unsafe { clock_gettime(clk, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clk}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread. Time the thread spent
/// preempted or stolen by the hypervisor is not charged, which is what
/// makes single-thread slices repeatable on a shared VM.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by every thread of the process, so work moved to a
/// bridge or progress thread still shows.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Counts allocator calls (alloc, alloc_zeroed, realloc) of the whole
/// process, and the high-water mark of live bytes in large allocations.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Only allocations this large count towards the heap peak: pools,
/// buffers and tables decide it, and `kmer` makes one small allocation
/// per message, which two more contended atomics each would slow.
const TRACKED_BYTES: usize = 1024;

fn grew(bytes: usize) {
    if bytes >= TRACKED_BYTES {
        let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if bytes >= TRACKED_BYTES {
        LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: defers every operation to `System` unchanged; the counters
// are relaxed statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        shrank(layout.size());
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes in allocations of 1 KiB or more,
/// in MiB. A count of requested bytes: unlike the resident set it does
/// not depend on which malloc arena a thread happened to get.
pub fn peak_heap_mib() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Read plus write system calls issued by this process so far.
pub fn io_syscalls() -> u64 {
    proc_field("/proc/self/io", "syscr:").unwrap_or(0)
        + proc_field("/proc/self/io", "syscw:").unwrap_or(0)
}

/// `(steal, total)` jiffies of the whole machine since boot.
pub fn cpu_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// Confines the calling thread, and every thread it spawns from now
/// on, to one core. Every child is measured this way, for three reasons.
///
/// Two busy cores of this VM slow each other, or are slowed by what the
/// host runs beside each, for minutes at a time: the same loop took
/// 275 us or 436 us a pass with both cores busy, 253 us alone. Two rank
/// threads that take turns on one core are a deployment that exists
/// (oversubscribed ranks; `wait_until` yields) and has one state.
///
/// Every tcp message wakes a sleeping bridge thread; woken on the
/// sender's own core that costs a context switch, woken on the other
/// core it costs an inter-processor interrupt, which a VM makes
/// expensive. Where the scheduler wakes it flips for minutes at a time:
/// 8 us or 22 us per round trip on the reference box, 930 or 1450 ns per
/// message.
///
/// And a child that stays where it is put can be dealt a core: the
/// parent deals its children over the cores, so that the best child
/// does not depend on what the host runs beside one of them.
pub fn pin_to_core(core: usize) {
    let mut one = [0u64; 16];
    let core = core % 1024;
    one[core / 64] = 1 << (core % 64);
    // SAFETY: the mask is 128 readable bytes, the size passed; pid 0
    // names the calling thread. Failure leaves the affinity as it was,
    // which only loses the steadiness.
    unsafe { sched_setaffinity(0, 128, one.as_ptr()) };
}
