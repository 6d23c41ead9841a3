//! The shared segment: one mapping holding everything two (or more)
//! processes need to exchange traffic — a header page with the geometry
//! and bootstrap barrier, a peer table (pid, liveness, doorbell futex),
//! an out-of-band allgather area, and the `nranks × nranks` directed
//! channel array.
//!
//! ## Layout
//!
//! ```text
//! [0, 4096)              SegHeader  (magic, geometry, attach/oob barrier)
//! [4096, +64*nranks)     PeerSlot[nranks]
//! [ag_base, +4160*n)     allgather slots: u64 len + 4096 data each
//! [chan_base, ...)       Channel[src*nranks + dst], page-aligned stride
//! ```
//!
//! The creator writes the geometry words and then the magic with a
//! Release store; attachers spin on the magic with Acquire loads before
//! reading anything else. All cross-process blocking goes through the
//! futex words in the header / peer slots (see [`super::os`]).

use super::os::{self, Mapping};
use super::ring::{ChanGeometry, Channel};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SHM_MAGIC: u64 = 0x4C43_4953_484D_5631; // "LCISHMV1"
const HEADER_BYTES: usize = 4096;
const PEER_BYTES: usize = 64;
/// Maximum per-rank payload of an out-of-band allgather.
pub const ALLGATHER_MAX: usize = 4096;
const AG_SLOT_BYTES: usize = 64 + ALLGATHER_MAX;

/// Peer has never attached.
pub const PEER_ABSENT: u32 = 0;
/// Peer attached and (as far as we know) alive.
pub const PEER_ATTACHED: u32 = 1;
/// Peer detached cleanly (fabric dropped).
pub const PEER_EXITED: u32 = 2;
/// Peer's process died without detaching.
pub const PEER_DIED: u32 = 3;

/// Header page at offset 0 of the segment.
#[repr(C)]
struct SegHeader {
    magic: AtomicU64,
    nranks: AtomicU64,
    ring_slots: AtomicU64,
    slot_size: AtomicU64,
    spill_cap: AtomicU64,
    /// Ranks that have completed `attach`.
    attach_count: AtomicU64,
    /// Futex word bumped on every attach.
    attach_seq: AtomicU32,
    /// Out-of-band barrier generation (futex word).
    barrier_seq: AtomicU32,
    /// Ranks arrived at the current barrier generation.
    barrier_count: AtomicU32,
}

/// Per-rank slot: identity, liveness, and the cross-process doorbell.
#[repr(C, align(64))]
pub struct PeerSlot {
    pub pid: AtomicU64,
    /// One of `PEER_*`.
    pub state: AtomicU32,
    /// Doorbell futex word: bumped by remote producers after enqueueing
    /// frames for this rank.
    pub futex_seq: AtomicU32,
    /// Number of threads parked (or about to park) on `futex_seq`.
    pub waiters: AtomicU32,
}

const _: () = assert!(std::mem::size_of::<SegHeader>() <= HEADER_BYTES);
const _: () = assert!(std::mem::size_of::<PeerSlot>() <= PEER_BYTES);

/// Segment-level geometry knobs, env-overridable:
/// `LCI_SHM_SLOTS`, `LCI_SHM_SLOT_SIZE`, `LCI_SHM_SPILL`.
pub fn geometry_from_env() -> ChanGeometry {
    let env_u64 = |k: &str, default: u64| {
        std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    ChanGeometry {
        ring_slots: env_u64("LCI_SHM_SLOTS", 256).max(1),
        slot_size: (env_u64("LCI_SHM_SLOT_SIZE", 256).max(128) as usize) & !63,
        spill_cap: env_u64("LCI_SHM_SPILL", 2 << 20),
    }
}

/// A created or attached shared segment.
pub struct ShmSegment {
    map: Mapping,
    nranks: usize,
    geo: ChanGeometry,
    ag_base: usize,
    chan_base: usize,
    chan_stride: usize,
    /// Backing file (multi-process mode); unlinked by rank 0 after the
    /// attach barrier, kept here for failure-path cleanup.
    path: Option<PathBuf>,
}

fn align_up(x: usize, a: usize) -> usize {
    (x + a - 1) & !(a - 1)
}

struct Layout {
    ag_base: usize,
    chan_base: usize,
    chan_stride: usize,
    total: usize,
}

fn layout(nranks: usize, geo: ChanGeometry) -> Layout {
    let ag_base = HEADER_BYTES + nranks * PEER_BYTES;
    let chan_base = align_up(ag_base + nranks * AG_SLOT_BYTES, 4096);
    let chan_stride = align_up(geo.channel_bytes(), 4096);
    Layout { ag_base, chan_base, chan_stride, total: chan_base + nranks * nranks * chan_stride }
}

impl ShmSegment {
    /// Creates an anonymous (fork-shared, not named) segment for
    /// in-process use or pre-fork spawning.
    pub fn create_anonymous(nranks: usize, geo: ChanGeometry) -> std::io::Result<ShmSegment> {
        let l = layout(nranks, geo);
        let map = Mapping::anonymous(l.total)?;
        let seg = ShmSegment {
            map,
            nranks,
            geo,
            ag_base: l.ag_base,
            chan_base: l.chan_base,
            chan_stride: l.chan_stride,
            path: None,
        };
        seg.init_header();
        Ok(seg)
    }

    /// Creates a named segment backed by `path` (typically under
    /// `/dev/shm`). The file is fully sized and initialized before this
    /// returns, so children spawned afterwards can attach immediately.
    #[cfg(unix)]
    pub fn create_file(
        path: &Path,
        nranks: usize,
        geo: ChanGeometry,
    ) -> std::io::Result<ShmSegment> {
        let l = layout(nranks, geo);
        let file =
            std::fs::OpenOptions::new().read(true).write(true).create_new(true).open(path)?;
        file.set_len(l.total as u64)?;
        let map = Mapping::file(&file, l.total)?;
        let seg = ShmSegment {
            map,
            nranks,
            geo,
            ag_base: l.ag_base,
            chan_base: l.chan_base,
            chan_stride: l.chan_stride,
            path: Some(path.to_path_buf()),
        };
        seg.init_header();
        Ok(seg)
    }

    /// Attaches to a segment created by [`create_file`], waiting up to
    /// `timeout` for the file to exist and its magic to be published.
    ///
    /// [`create_file`]: ShmSegment::create_file
    #[cfg(unix)]
    pub fn attach_file(path: &Path, timeout: Duration) -> std::io::Result<ShmSegment> {
        let deadline = Instant::now() + timeout;
        let file = loop {
            match std::fs::OpenOptions::new().read(true).write(true).open(path) {
                Ok(f) if f.metadata()?.len() as usize >= HEADER_BYTES => break f,
                Ok(_) | Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "shm segment never fully created",
                    ))
                }
                Err(e) => return Err(e),
            }
        };
        // Peek the header page for the geometry, then map the full size.
        let peek = Mapping::file(&file, HEADER_BYTES)?;
        let hdr = unsafe { &*(peek.ptr() as *const SegHeader) };
        while hdr.magic.load(Ordering::Acquire) != SHM_MAGIC {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "shm segment magic never published",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let nranks = hdr.nranks.load(Ordering::Acquire) as usize;
        let geo = ChanGeometry {
            ring_slots: hdr.ring_slots.load(Ordering::Acquire),
            slot_size: hdr.slot_size.load(Ordering::Acquire) as usize,
            spill_cap: hdr.spill_cap.load(Ordering::Acquire),
        };
        drop(peek);
        let l = layout(nranks, geo);
        let map = Mapping::file(&file, l.total)?;
        Ok(ShmSegment {
            map,
            nranks,
            geo,
            ag_base: l.ag_base,
            chan_base: l.chan_base,
            chan_stride: l.chan_stride,
            path: Some(path.to_path_buf()),
        })
    }

    fn init_header(&self) {
        let h = self.header();
        h.nranks.store(self.nranks as u64, Ordering::Relaxed);
        h.ring_slots.store(self.geo.ring_slots, Ordering::Relaxed);
        h.slot_size.store(self.geo.slot_size as u64, Ordering::Relaxed);
        h.spill_cap.store(self.geo.spill_cap, Ordering::Relaxed);
        h.magic.store(SHM_MAGIC, Ordering::Release);
    }

    fn header(&self) -> &SegHeader {
        // SAFETY: offset 0 of a mapping at least HEADER_BYTES long.
        unsafe { &*(self.map.ptr() as *const SegHeader) }
    }

    /// Number of ranks the segment was sized for.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Channel geometry.
    pub fn geometry(&self) -> ChanGeometry {
        self.geo
    }

    /// The per-rank peer slot.
    pub fn peer(&self, rank: usize) -> &PeerSlot {
        assert!(rank < self.nranks);
        // SAFETY: in-bounds, 64-aligned slot of the live mapping.
        unsafe { &*(self.map.ptr().add(HEADER_BYTES + rank * PEER_BYTES) as *const PeerSlot) }
    }

    /// The directed channel `src → dst`.
    pub fn channel(&self, src: usize, dst: usize) -> Channel {
        assert!(src < self.nranks && dst < self.nranks);
        let off = self.chan_base + (src * self.nranks + dst) * self.chan_stride;
        // SAFETY: in-bounds, page-aligned, zero-initialized region that
        // lives as long as the mapping.
        unsafe { Channel::attach(self.map.ptr().add(off), self.geo) }
    }

    /// Marks `rank` attached (records its pid) and bumps the attach
    /// barrier.
    pub fn attach(&self, rank: usize) {
        let p = self.peer(rank);
        p.pid.store(os::pid(), Ordering::Release);
        p.state.store(PEER_ATTACHED, Ordering::Release);
        let h = self.header();
        h.attach_count.fetch_add(1, Ordering::AcqRel);
        h.attach_seq.fetch_add(1, Ordering::Release);
        os::futex_wake(&h.attach_seq, u32::MAX);
    }

    /// Blocks until all ranks have attached.
    pub fn attach_barrier(&self, timeout: Duration) -> std::io::Result<()> {
        let h = self.header();
        let deadline = Instant::now() + timeout;
        loop {
            if h.attach_count.load(Ordering::Acquire) >= self.nranks as u64 {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "shm attach barrier: {}/{} ranks after {timeout:?}",
                        h.attach_count.load(Ordering::Acquire),
                        self.nranks
                    ),
                ));
            }
            let seen = h.attach_seq.load(Ordering::Acquire);
            if h.attach_count.load(Ordering::Acquire) >= self.nranks as u64 {
                return Ok(());
            }
            os::futex_wait(&h.attach_seq, seen, Duration::from_millis(50));
        }
    }

    /// Transitions `rank` from `PEER_ATTACHED` to `state` (exited/died).
    /// Doorbells the peer table so barrier waiters re-examine liveness.
    pub fn set_peer_state(&self, rank: usize, state: u32) {
        let p = self.peer(rank);
        let _ = p.state.compare_exchange(PEER_ATTACHED, state, Ordering::AcqRel, Ordering::Acquire);
        let h = self.header();
        h.barrier_seq.fetch_add(0, Ordering::AcqRel); // fence-like touch
        os::futex_wake(&h.barrier_seq, u32::MAX);
        self.ring_doorbell(rank);
    }

    /// First peer that is known dead (marked died, or attached with a
    /// dead pid), if any.
    pub fn dead_peer(&self) -> Option<usize> {
        (0..self.nranks).find(|&r| {
            let p = self.peer(r);
            match p.state.load(Ordering::Acquire) {
                PEER_DIED => true,
                PEER_ATTACHED => !os::process_alive(p.pid.load(Ordering::Acquire)),
                _ => false,
            }
        })
    }

    /// Cross-process out-of-band barrier over all ranks.
    ///
    /// # Panics
    /// Panics if a peer dies while the barrier is incomplete — there is
    /// no way to make progress, matching the blocking contract of the
    /// in-process barrier.
    pub fn barrier(&self) {
        let h = self.header();
        let gen = h.barrier_seq.load(Ordering::Acquire);
        if h.barrier_count.fetch_add(1, Ordering::AcqRel) + 1 == self.nranks as u32 {
            h.barrier_count.store(0, Ordering::Release);
            h.barrier_seq.fetch_add(1, Ordering::Release);
            os::futex_wake(&h.barrier_seq, u32::MAX);
            return;
        }
        let mut checks = 0u32;
        while h.barrier_seq.load(Ordering::Acquire) == gen {
            os::futex_wait(&h.barrier_seq, gen, Duration::from_millis(20));
            checks += 1;
            if checks.is_multiple_of(8) {
                if let Some(r) = self.dead_peer() {
                    panic!("shm oob barrier: peer rank {r} died");
                }
            }
        }
    }

    /// Cross-process allgather: every rank contributes `data`
    /// (≤ [`ALLGATHER_MAX`] bytes); returns all contributions in rank
    /// order. Collective — all ranks must call it.
    pub fn allgather(&self, rank: usize, data: &[u8]) -> Vec<Vec<u8>> {
        assert!(data.len() <= ALLGATHER_MAX, "allgather payload too large");
        let slot = self.map.ptr().wrapping_add(self.ag_base + rank * AG_SLOT_BYTES);
        // SAFETY: in-bounds slot owned by this rank between barriers.
        unsafe {
            (slot as *mut u64).write_unaligned(data.len() as u64);
            std::ptr::copy_nonoverlapping(data.as_ptr(), slot.add(64), data.len());
        }
        self.barrier();
        let out = (0..self.nranks)
            .map(|r| {
                let s = self.map.ptr().wrapping_add(self.ag_base + r * AG_SLOT_BYTES);
                // SAFETY: peers finished writing before the barrier.
                unsafe {
                    let len = (s as *const u64).read_unaligned() as usize;
                    std::slice::from_raw_parts(s.add(64), len.min(ALLGATHER_MAX)).to_vec()
                }
            })
            .collect();
        // Nobody may overwrite a slot until everyone has read.
        self.barrier();
        out
    }

    /// Rings `rank`'s cross-process doorbell: bumps its futex word and
    /// wakes whoever is parked in [`doorbell_wait`](Self::doorbell_wait)
    /// on it. Returns whether a waiter was (probably) woken. No data
    /// path rings it — a frame is found by the consumer's next poll —
    /// only a peer's state change does
    /// ([`set_peer_state`](Self::set_peer_state)).
    ///
    /// With [`doorbell_wait`](Self::doorbell_wait) this is the handshake
    /// of [`crate::sync::Doorbell`] (its protocol section says why all
    /// four accesses are `SeqCst`), the futex's compare-and-park standing
    /// in for the mutex and condvar.
    pub fn ring_doorbell(&self, rank: usize) -> bool {
        let p = self.peer(rank);
        p.futex_seq.fetch_add(1, Ordering::SeqCst);
        if p.waiters.load(Ordering::SeqCst) > 0 {
            os::futex_wake(&p.futex_seq, u32::MAX);
            true
        } else {
            false
        }
    }

    /// Parks on `rank`'s doorbell futex until its sequence moves past
    /// `seen` or `timeout` elapses. Returns the current sequence.
    pub fn doorbell_wait(&self, rank: usize, seen: u32, timeout: Duration) -> u32 {
        let p = self.peer(rank);
        p.waiters.fetch_add(1, Ordering::SeqCst);
        if p.futex_seq.load(Ordering::SeqCst) == seen {
            os::futex_wait(&p.futex_seq, seen, timeout);
        }
        p.waiters.fetch_sub(1, Ordering::AcqRel);
        p.futex_seq.load(Ordering::Acquire)
    }

    /// Current doorbell sequence for `rank`.
    pub fn doorbell_seq(&self, rank: usize) -> u32 {
        self.peer(rank).futex_seq.load(Ordering::Acquire)
    }

    /// Removes the backing file (multi-process mode). Safe to call once
    /// every rank has attached: the mapping stays valid until unmapped.
    pub fn unlink(&self) {
        if let Some(p) = &self.path {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm::ring::{FrameHeader, KIND_SEND};

    fn geo() -> ChanGeometry {
        ChanGeometry { ring_slots: 8, slot_size: 128, spill_cap: 4096 }
    }

    #[test]
    fn anonymous_segment_channels_are_independent() {
        let seg = ShmSegment::create_anonymous(3, geo()).unwrap();
        let h = FrameHeader { kind: KIND_SEND, ..Default::default() };
        seg.channel(0, 1).produce(&h, &[b"to-1"]).unwrap();
        seg.channel(0, 2).produce(&h, &[b"to-2"]).unwrap();
        assert_eq!(seg.channel(0, 1).occupancy(), 1);
        assert_eq!(seg.channel(0, 2).occupancy(), 1);
        assert_eq!(seg.channel(1, 0).occupancy(), 0);
        let c = seg.channel(0, 2);
        let f = c.peek().unwrap();
        assert_eq!(f.payload(), b"to-2");
        c.release(&f);
    }

    #[test]
    fn attach_and_liveness() {
        let seg = ShmSegment::create_anonymous(2, geo()).unwrap();
        assert_eq!(seg.peer(1).state.load(Ordering::Acquire), PEER_ABSENT);
        seg.attach(0);
        seg.attach(1);
        seg.attach_barrier(Duration::from_secs(1)).unwrap();
        assert!(seg.dead_peer().is_none());
        seg.set_peer_state(1, PEER_DIED);
        assert_eq!(seg.dead_peer(), Some(1));
        // Idempotent: a second transition attempt does not regress.
        seg.set_peer_state(1, PEER_EXITED);
        assert_eq!(seg.peer(1).state.load(Ordering::Acquire), PEER_DIED);
    }

    #[test]
    fn doorbell_seq_and_wait() {
        let seg = ShmSegment::create_anonymous(2, geo()).unwrap();
        let s0 = seg.doorbell_seq(1);
        seg.ring_doorbell(1);
        assert_eq!(seg.doorbell_seq(1), s0 + 1);
        // Already-moved sequence: wait returns immediately.
        let cur = seg.doorbell_wait(1, s0, Duration::from_secs(5));
        assert_eq!(cur, s0 + 1);
    }

    #[test]
    fn barrier_and_allgather_across_threads() {
        let seg = std::sync::Arc::new(ShmSegment::create_anonymous(3, geo()).unwrap());
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let seg = seg.clone();
                std::thread::spawn(move || {
                    seg.attach(r);
                    seg.attach_barrier(Duration::from_secs(5)).unwrap();
                    for round in 0..5u8 {
                        let mine = vec![r as u8 + round; (r + 1) * 3];
                        let all = seg.allgather(r, &mine);
                        for (pr, blob) in all.iter().enumerate() {
                            assert_eq!(blob, &vec![pr as u8 + round; (pr + 1) * 3]);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[cfg(unix)]
    #[test]
    fn file_segment_create_attach_round_trip() {
        let path = std::env::temp_dir().join(format!("lci-shm-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let seg = ShmSegment::create_file(&path, 2, geo()).unwrap();
        let att = ShmSegment::attach_file(&path, Duration::from_secs(2)).unwrap();
        assert_eq!(att.nranks(), 2);
        assert_eq!(att.geometry(), geo());
        // Frames written through one mapping are visible via the other.
        let h = FrameHeader { kind: KIND_SEND, imm: 7, ..Default::default() };
        seg.channel(0, 1).produce(&h, &[b"cross"]).unwrap();
        let c = att.channel(0, 1);
        let f = c.peek().unwrap();
        assert_eq!((f.header.imm, f.payload()), (7, &b"cross"[..]));
        c.release(&f);
        assert_eq!(seg.channel(0, 1).occupancy(), 0);
        seg.unlink();
        assert!(!path.exists());
    }
}
