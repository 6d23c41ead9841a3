//! Memory registration (paper §3.3.1).
//!
//! LCI follows the common practice of low-level communication libraries:
//! memory registration is optional for local buffers but mandatory for
//! remote buffers. The fabric keeps a global registration table; RDMA
//! operations validate their target against it before copying, exactly
//! like an RDMA NIC validates an `rkey` before DMA.
//!
//! The table is the MPMC array of paper §4.1.1 in its natural habitat:
//! appended rarely (registration), read on every RDMA operation
//! (lock-free).

use crate::sync::MpmcArray;
use crate::types::{NetError, NetResult, Rank};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Remote key addressing a registered region (index into the table).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Rkey(pub u32);

/// One registered region.
#[derive(Debug)]
pub struct Registration {
    /// Owning rank (RDMA access is validated against it for diagnostics;
    /// the fabric is a flat address space like a real rkey space).
    pub rank: Rank,
    /// Base address.
    pub base: usize,
    /// Region length in bytes.
    pub len: usize,
    /// Cleared on deregistration; RDMA against a dead region is fatal.
    alive: AtomicBool,
}

/// A local handle for a registration; deregister through
/// [`RegistrationTable::deregister`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryRegion {
    /// The remote key other ranks use to address this region.
    pub rkey: Rkey,
    /// Base address (local convenience).
    pub base: usize,
    /// Length in bytes.
    pub len: usize,
}

/// The fabric-global registration table.
pub struct RegistrationTable {
    entries: MpmcArray<Arc<Registration>>,
}

impl RegistrationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self { entries: MpmcArray::with_capacity(64) }
    }

    /// Registers `[ptr, ptr+len)` for remote access on behalf of `rank`.
    ///
    /// # Safety contract (documented, not compiler-enforced)
    /// As with real RDMA, the caller promises the region stays allocated
    /// until deregistered, and accepts that remote peers may read/write it
    /// at any time in that window. Rust aliasing is respected by treating
    /// the region as externally-shared bytes (all fabric accesses go
    /// through raw pointers, never references).
    pub fn register(&self, rank: Rank, ptr: *const u8, len: usize) -> MemoryRegion {
        let reg =
            Arc::new(Registration { rank, base: ptr as usize, len, alive: AtomicBool::new(true) });
        let idx = self.entries.push(reg);
        MemoryRegion { rkey: Rkey(idx as u32), base: ptr as usize, len }
    }

    /// Deregisters a region. Later RDMA referencing its rkey fails.
    pub fn deregister(&self, mr: &MemoryRegion) {
        if let Some(reg) = self.entries.read(mr.rkey.0 as usize) {
            reg.alive.store(false, Ordering::Release);
        }
    }

    /// Validates an RDMA access of `len` bytes at `offset` within the
    /// region named by `rkey`, returning the absolute base address of the
    /// access.
    pub fn validate(&self, rkey: Rkey, offset: usize, len: usize) -> NetResult<usize> {
        let reg = self
            .entries
            .read(rkey.0 as usize)
            .ok_or_else(|| NetError::fatal(format!("unknown rkey {rkey:?}")))?;
        if !reg.alive.load(Ordering::Acquire) {
            return Err(NetError::fatal(format!("rkey {rkey:?} is deregistered")));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| NetError::fatal("RDMA access length overflow"))?;
        if end > reg.len {
            return Err(NetError::fatal(format!(
                "RDMA access out of bounds: offset {offset} + len {len} > region len {}",
                reg.len
            )));
        }
        Ok(reg.base + offset)
    }

    /// Number of registrations ever made (dead entries included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for RegistrationTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_validate_roundtrip() {
        let t = RegistrationTable::new();
        let buf = vec![0u8; 4096];
        let mr = t.register(0, buf.as_ptr(), buf.len());
        let addr = t.validate(mr.rkey, 100, 200).unwrap();
        assert_eq!(addr, buf.as_ptr() as usize + 100);
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let t = RegistrationTable::new();
        let buf = [0u8; 128];
        let mr = t.register(0, buf.as_ptr(), buf.len());
        assert!(t.validate(mr.rkey, 100, 100).is_err());
        assert!(t.validate(mr.rkey, 0, 129).is_err());
        assert!(t.validate(mr.rkey, 0, 128).is_ok());
    }

    #[test]
    fn validate_rejects_unknown_and_dead_rkey() {
        let t = RegistrationTable::new();
        assert!(t.validate(Rkey(42), 0, 1).is_err());
        let buf = [0u8; 64];
        let mr = t.register(1, buf.as_ptr(), buf.len());
        t.deregister(&mr);
        assert!(t.validate(mr.rkey, 0, 1).is_err());
    }

    #[test]
    fn many_registrations_resize() {
        let t = RegistrationTable::new();
        let bufs: Vec<Vec<u8>> = (0..300).map(|_| vec![0u8; 16]).collect();
        let mrs: Vec<_> = bufs.iter().map(|b| t.register(0, b.as_ptr(), b.len())).collect();
        for (b, mr) in bufs.iter().zip(&mrs) {
            assert_eq!(t.validate(mr.rkey, 0, 16).unwrap(), b.as_ptr() as usize);
        }
    }
}
