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
//!
//! A packet shared read-only ([`PacketView`]) is counted in the pool's
//! own per-slot reference count, not in a separate allocation: a
//! coalesced frame's packet has its count set once, to the number of
//! sub-message views the demux hands out.
//!
//! ## Lifetime
//!
//! Only [`PacketPool`] handles own the pool's state; a [`Packet`], a
//! [`PacketView`] and a frame's views hold a plain pointer to it, so
//! checking a packet out or in takes no refcount. The state outlives
//! every packet all the same: the last handle's drop closes the pool —
//! it marks it closed and counts, under each stripe lock, the slots
//! still out — and from then on a slot coming back is counted off
//! instead of pooled. Whichever of the two brings the count of slots
//! still out to 0, the close or the last slot back, frees the state.
//! A slot checked out as a bare index and never returned keeps the
//! state alive.

use crate::error::{FatalError, Result};
use lci_fabric::sync::{MpmcArray, SpinLock};
use lci_fabric::topology::{self, CachePadded};
use std::cell::Cell;
use std::collections::VecDeque;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

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
        // A read through a packet that outlived its pool shows as this
        // pattern (or a fault) in a test, not as the bytes it expects.
        #[cfg(test)]
        // SAFETY: `layout.size()` bytes at `base`, owned by this chunk.
        unsafe {
            std::ptr::write_bytes(self.base, 0xEE, self.layout.size())
        };
        // SAFETY: allocated with this layout in `PacketPool::with_stripes`.
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
    /// Per-slot reference counts of shared packets, indexed like the
    /// slots; meaningful only while a slot is checked out and shared.
    refs: Box<[AtomicU32]>,
    /// [`PacketPool`] handles alive.
    handles: AtomicUsize,
    /// Set when the last handle goes; read under a stripe lock by every
    /// slot coming back, which from then on is counted off `out`
    /// instead of pooled.
    closed: AtomicBool,
    /// Once closed: the slots the close counted out, less those back
    /// since it was set. A slot may come back before the close adds its
    /// count, so the sum wraps below 0 meanwhile; whoever brings it to
    /// exactly 0 frees the state.
    out: AtomicUsize,
    /// Times this state was freed.
    #[cfg(test)]
    freed: std::sync::Arc<AtomicUsize>,
}

impl PoolShared {
    fn packet_ptr(&self, idx: u32) -> *mut u8 {
        let chunk = idx as usize / CHUNK_PACKETS;
        let slot = idx as usize % CHUNK_PACKETS;
        let base = *self.chunk_bases.get(chunk).expect("packet chunk missing");
        (base + slot * self.payload_size) as *mut u8
    }

    /// The calling core's home deque.
    #[inline]
    fn home(&self) -> &SpinLock<VecDeque<u32>> {
        &self.stripes[topology::current_core() & self.mask].0
    }

    /// Returns slot `idx` to the current core's stripe (a cross-core
    /// free re-homes the slot to the freeing core); once the pool is
    /// closed, counts it back instead, the last one freeing the state.
    ///
    /// # Safety
    /// `pool` is live and `idx` is checked out of it, by the caller,
    /// which neither reads the slot nor uses `pool` afterwards.
    #[inline]
    unsafe fn put_idx(pool: NonNull<PoolShared>, idx: u32) {
        // SAFETY: live, by the caller's contract.
        let shared = unsafe { pool.as_ref() };
        {
            let mut q = shared.home().lock();
            // Ordered by the stripe lock: a close that has counted this
            // stripe set `closed` before it took the lock.
            if !shared.closed.load(Ordering::Relaxed) {
                q.push_back(idx);
                return;
            }
        }
        if shared.out.fetch_sub(1, Ordering::AcqRel) == 1 {
            // SAFETY: the close counted this slot out and every other
            // slot is back: nothing else refers to the state.
            unsafe { PoolShared::free(pool) };
        }
    }

    /// The last handle is gone, so no slot is checked out again: counts
    /// the slots still out and frees the state if every one is back.
    ///
    /// # Safety
    /// `pool` is live and the caller dropped its last handle.
    unsafe fn close(pool: NonNull<PoolShared>) {
        // SAFETY: live, by the caller's contract.
        let shared = unsafe { pool.as_ref() };
        shared.closed.store(true, Ordering::Relaxed);
        let pooled: usize = shared.stripes.iter().map(|s| s.0.lock().len()).sum();
        let out = shared.capacity - pooled;
        if shared.out.fetch_add(out, Ordering::AcqRel).wrapping_add(out) == 0 {
            // SAFETY: no handle is left and every slot is back.
            unsafe { PoolShared::free(pool) };
        }
    }

    /// # Safety
    /// `pool` came from `Box::leak` in `with_stripes`, and nothing
    /// refers to it any more.
    unsafe fn free(pool: NonNull<PoolShared>) {
        // SAFETY: by the caller's contract.
        let shared = unsafe { Box::from_raw(pool.as_ptr()) };
        #[cfg(test)]
        shared.freed.fetch_add(1, Ordering::SeqCst);
        drop(shared);
    }
}

/// A fixed-size pre-registered buffer from a [`PacketPool`].
///
/// Dropping a packet returns it to the pool (to the dropping thread's
/// deque). Explicit assembly in packets (§3.3.1) saves the staging copy
/// of the buffer-copy protocol. A packet may outlive every handle of
/// its pool (see the module docs, "Lifetime").
pub struct Packet {
    /// Live while the packet holds its slot.
    shared: NonNull<PoolShared>,
    idx: u32,
    len: usize,
}

// SAFETY: the pool state is `Send + Sync` and outlives the packet, and
// the packet owns its slot's bytes: `&self` only reads them.
unsafe impl Send for Packet {}
unsafe impl Sync for Packet {}

impl Packet {
    fn pool(&self) -> &PoolShared {
        // SAFETY: the pool outlives every slot checked out of it.
        unsafe { self.shared.as_ref() }
    }

    /// Packet capacity in bytes (the pool's payload size, not its
    /// packet count).
    #[allow(clippy::misnamed_getters)]
    pub fn capacity(&self) -> usize {
        self.pool().payload_size
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
        unsafe { std::slice::from_raw_parts(self.pool().packet_ptr(self.idx), self.capacity()) }
    }

    /// Write access to the full packet buffer.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: exclusive ownership (we hold &mut self of the sole
        // Packet for this slot).
        unsafe { std::slice::from_raw_parts_mut(self.pool().packet_ptr(self.idx), self.capacity()) }
    }

    /// Copies `data` into the packet and sets the payload length.
    pub fn fill(&mut self, data: &[u8]) {
        let cap = self.capacity();
        assert!(data.len() <= cap, "payload {} exceeds packet capacity {}", data.len(), cap);
        self.as_mut_slice()[..data.len()].copy_from_slice(data);
        self.len = data.len();
    }

    /// Freezes this packet for a demux that hands out exactly `n` views
    /// ([`FrameViews::view`]): the slot's count is set once, to `n` plus
    /// one for the returned handle, and no view takes a count of its own.
    ///
    /// # Panics
    /// Panics if the count would not fit.
    pub(crate) fn into_views(self, n: u32) -> FrameViews {
        let refs = n.checked_add(1).expect("view count overflow");
        let len = self.len;
        FrameViews { slot: SlotRef::share(self, refs), len, left: Cell::new(n) }
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
        // SAFETY: the packet holds its slot until here, and is gone after.
        unsafe { PoolShared::put_idx(self.shared, self.idx) }
    }
}

/// One counted reference to a shared packet slot: the pool and the
/// slot's index. Whoever holds it owns one of the slot's references
/// ([`FrameViews`] owns several); together they hold the slot the
/// [`Packet`] held, and the last one to go returns it.
#[derive(Clone, Copy)]
struct SlotRef {
    pool: NonNull<PoolShared>,
    idx: u32,
}

// SAFETY: `PoolShared` is `Send + Sync`, and a shared slot's bytes are
// only read until its last reference goes.
unsafe impl Send for SlotRef {}
unsafe impl Sync for SlotRef {}

impl SlotRef {
    /// Shares `packet`'s slot with its count set to `refs`: one store,
    /// since nobody else can see the slot yet.
    fn share(packet: Packet, refs: u32) -> SlotRef {
        // The slot's references hold it from here, not the packet.
        let me = std::mem::ManuallyDrop::new(packet);
        me.pool().refs[me.idx as usize].store(refs, Ordering::Relaxed);
        SlotRef { pool: me.shared, idx: me.idx }
    }

    fn pool(&self) -> &PoolShared {
        // SAFETY: the pool outlives every slot checked out of it, and
        // the slot is out until its last reference goes; the caller
        // holds one.
        unsafe { self.pool.as_ref() }
    }

    /// The first `len` bytes of the slot, offset by `off`.
    fn bytes(&self, off: usize, len: usize) -> &[u8] {
        // SAFETY: the caller holds a reference and bounds-checked
        // `off + len` against the payload; nobody writes a shared slot.
        unsafe { std::slice::from_raw_parts(self.pool().packet_ptr(self.idx).add(off), len) }
    }

    /// Takes one more reference (a clone).
    fn acquire(&self) {
        let old = self.pool().refs[self.idx as usize].fetch_add(1, Ordering::Relaxed);
        // As `Arc` does: a count this high is a leak of clones, and
        // wrapping it would free a slot that is still read.
        if old > u32::MAX / 2 {
            std::process::abort();
        }
    }

    /// Gives up `n` references. The last one returns the slot to the
    /// dropping thread's stripe, exactly once.
    ///
    /// # Safety
    /// The caller owns `n` of the slot's references and does not read
    /// the slot through this `SlotRef` afterwards.
    unsafe fn release(self, n: u32) {
        let pool = self.pool();
        if pool.refs[self.idx as usize].fetch_sub(n, Ordering::Release) != n {
            return;
        }
        // Every other holder's reads happen before the slot is reused.
        fence(Ordering::Acquire);
        // SAFETY: this was the slot's last reference.
        unsafe { PoolShared::put_idx(self.pool, self.idx) }
    }
}

fn check_view(off: usize, len: usize, payload: usize) {
    assert!(
        off.checked_add(len).is_some_and(|end| end <= payload),
        "view {off}+{len} out of bounds for packet payload of {payload}"
    );
}

/// A zero-copy read-only slice of a shared packet. Holds one of the
/// slot's references: the slot cannot be reused while any view is alive.
/// A coalesced frame's views are counted once for the whole frame, when
/// it is demultiplexed; cloning a view takes one more reference.
pub struct PacketView {
    slot: SlotRef,
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
        self.slot.bytes(self.off, self.len)
    }
}

impl Clone for PacketView {
    fn clone(&self) -> Self {
        self.slot.acquire();
        PacketView { slot: self.slot, off: self.off, len: self.len }
    }
}

impl Drop for PacketView {
    fn drop(&mut self) {
        // SAFETY: this view owns one reference and is gone after this.
        unsafe { self.slot.release(1) }
    }
}

impl std::fmt::Debug for PacketView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketView")
            .field("idx", &self.slot.idx)
            .field("off", &self.off)
            .field("len", &self.len)
            .finish()
    }
}

/// A packet frozen for a demux that knows how many views it will hand
/// out ([`Packet::into_views`]). Each [`view`](Self::view) passes on one
/// of the references counted up front, so carving takes no atomic
/// operation; the handle's own reference, and any view it never handed
/// out, are given up when it drops.
pub(crate) struct FrameViews {
    slot: SlotRef,
    len: usize,
    /// Views still to hand out.
    left: Cell<u32>,
}

impl FrameViews {
    /// The frozen payload.
    pub(crate) fn as_slice(&self) -> &[u8] {
        self.slot.bytes(0, self.len)
    }

    /// Hands out the next view, `len` bytes at `off`.
    ///
    /// # Panics
    /// Panics past the counted number of views or out of bounds.
    pub(crate) fn view(&self, off: usize, len: usize) -> PacketView {
        let left = self.left.get();
        assert!(left > 0, "more views than the frame was counted for");
        check_view(off, len, self.len);
        self.left.set(left - 1);
        PacketView { slot: self.slot, off, len }
    }
}

impl Drop for FrameViews {
    fn drop(&mut self) {
        // SAFETY: the handle's own reference plus the views it never
        // handed out; it is gone after this.
        unsafe { self.slot.release(self.left.get() + 1) }
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

/// The packet pool resource. A handle owns the pool's state with the
/// other handles; the last one to go closes the pool (see the module
/// docs, "Lifetime").
pub struct PacketPool {
    shared: NonNull<PoolShared>,
}

// SAFETY: the state is `Send + Sync`, and a handle keeps it alive.
unsafe impl Send for PacketPool {}
unsafe impl Sync for PacketPool {}

impl Clone for PacketPool {
    fn clone(&self) -> Self {
        // As `Arc` does: a new handle is made from a live one, so the
        // count is above 0 and needs no ordering.
        let old = self.shared().handles.fetch_add(1, Ordering::Relaxed);
        if old > usize::MAX / 2 {
            std::process::abort();
        }
        PacketPool { shared: self.shared }
    }
}

impl Drop for PacketPool {
    fn drop(&mut self) {
        if self.shared().handles.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Every other handle's use happens before the close.
        fence(Ordering::Acquire);
        // SAFETY: the state is live (this handle held it), and this was
        // its last handle.
        unsafe { PoolShared::close(self.shared) }
    }
}

impl PacketPool {
    /// Creates a pool with one stripe per detected core. All packets
    /// initially live on the creating thread's home stripe.
    pub fn new(cfg: PacketPoolConfig) -> Result<Self> {
        Self::with_stripes(cfg, 0)
    }

    /// Creates a pool with an explicit stripe count (`0` = one per
    /// detected core; rounded up to a power of two). Tests pass one to
    /// exercise several stripes on a small host.
    pub fn with_stripes(cfg: PacketPoolConfig, stripes: usize) -> Result<Self> {
        if cfg.payload_size == 0 || cfg.count == 0 {
            return Err(FatalError::InvalidArg("packet pool needs size and count > 0".into()));
        }
        let nstripes = topology::stripe_count(stripes);
        let shared = PoolShared {
            payload_size: cfg.payload_size,
            capacity: cfg.count,
            chunk_bases: MpmcArray::with_capacity(16),
            chunks: SpinLock::new(Vec::new()),
            stripes: (0..nstripes).map(|_| CachePadded(SpinLock::new(VecDeque::new()))).collect(),
            mask: nstripes - 1,
            refs: (0..cfg.count).map(|_| AtomicU32::new(0)).collect(),
            handles: AtomicUsize::new(1),
            closed: AtomicBool::new(false),
            out: AtomicUsize::new(0),
            #[cfg(test)]
            freed: Default::default(),
        };
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
        shared.home().lock().extend(0..cfg.count as u32);
        Ok(Self { shared: NonNull::from(Box::leak(Box::new(shared))) })
    }

    fn shared(&self) -> &PoolShared {
        // SAFETY: a handle keeps the state alive.
        unsafe { self.shared.as_ref() }
    }

    /// Pool configuration: packet payload size.
    pub fn payload_size(&self) -> usize {
        self.shared().payload_size
    }

    /// Total number of packets.
    pub fn capacity(&self) -> usize {
        self.shared().capacity
    }

    /// Packets currently checked out (to users or to the fabric as
    /// pre-posted receives). Diagnostics: takes every stripe lock.
    pub fn outstanding(&self) -> usize {
        let pooled: usize = self.shared().stripes.iter().map(|d| d.0.lock().len()).sum();
        self.shared().capacity - pooled
    }

    /// Number of per-core stripes the pool was laid out with.
    pub fn stripes(&self) -> usize {
        self.shared().stripes.len()
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
        let home = self.shared().home();
        let fast = match home.try_lock() {
            Some(mut q) => q.pop_back(),
            None => home.lock().pop_back(),
        };
        let idx = fast.or_else(|| self.steal())?;
        Some(Packet { shared: self.shared, idx, len: 0 })
    }

    /// Checks up to `n` packets out as bare indices, appended to `out`:
    /// the home stripe's tail under one lock, then a steal whenever it
    /// runs dry (which moves half a victim's deque home). No `Packet` is
    /// made. Every index comes back through [`reclaim`](Self::reclaim) or
    /// [`put_idxs`](Self::put_idxs).
    pub(crate) fn get_idxs(&self, n: usize, out: &mut Vec<u32>) {
        let home = self.shared().home();
        let want = out.len() + n;
        loop {
            {
                let mut q = home.lock();
                let take = (want - out.len()).min(q.len());
                let from = q.len() - take;
                out.extend(q.drain(from..));
            }
            if out.len() == want {
                return;
            }
            match self.steal() {
                Some(idx) => out.push(idx),
                None => return,
            }
        }
    }

    /// Returns checked-out indices to the current core's stripe under
    /// one lock.
    pub(crate) fn put_idxs(&self, idxs: &[u32]) {
        if !idxs.is_empty() {
            self.shared().home().lock().extend(idxs);
        }
    }

    /// Base address of the checked-out packet `idx` (posting it as a
    /// receive buffer).
    pub(crate) fn packet_ptr(&self, idx: u32) -> *mut u8 {
        self.shared().packet_ptr(idx)
    }

    /// One steal round: visits victim stripes starting at a
    /// pseudo-random position and takes half of the first non-empty
    /// deque from its *head*, returning one packet index and moving the
    /// rest onto the home stripe.
    fn steal(&self) -> Option<u32> {
        let home = self.shared().home();
        let nstripes = self.shared().stripes.len();
        let me = topology::current_core() & self.shared().mask;
        let start = rand_seed() % nstripes;
        for k in 0..nstripes {
            let v = (start + k) % nstripes;
            if v == me {
                continue;
            }
            let Some(mut vq) = self.shared().stripes[v].0.try_lock() else { continue };
            let take = vq.len().div_ceil(2);
            let Some(first) = vq.pop_front() else { continue };
            // The rest of the half moves from the victim's head straight
            // onto our tail. Both locks are try-locks — nobody waits for
            // one while holding another — so with ours busy we leave with
            // the one packet.
            if let Some(mut q) = home.try_lock() {
                q.extend(vq.drain(..take - 1));
            }
            return Some(first);
        }
        None
    }

    /// Reconstructs a packet from an index checked out of this pool as a
    /// bare index (a pre-posted receive, returned in a fabric
    /// completion).
    ///
    /// # Safety
    /// `idx` must be checked out of this pool as a bare index and must
    /// not be reclaimed twice.
    pub unsafe fn reclaim(&self, idx: u32, len: usize) -> Packet {
        Packet { shared: self.shared, idx, len }
    }
}

impl std::fmt::Debug for PacketPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketPool")
            .field("payload_size", &self.shared().payload_size)
            .field("capacity", &self.shared().capacity)
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
mod tests;
