//! Granted puts: how a collective piece longer than the eager size
//! travels (DESIGN.md §4.11 "Puts").
//!
//! At the start of a call a rank registers its landing side and sends
//! each peer that will write a large piece into it one [`Grant`]: the
//! landing's rkey and the peer's base in it, the fold [`Arena`]'s rkey
//! and the peer's base in that, and the rcomp of the plan's receive
//! queue. The peer then posts every such piece as a put with a remote
//! signal to the destination its plan computed, and the receiver
//! harvests the piece from the signal, which carries the piece's own
//! tag. One two-sided message per peer and call, instead of an RTS, an
//! RTR, a match and a registration per piece. A direct reduction
//! (`plan::direct`) grants the same way, and its peers address the
//! landing themselves.

use super::plan::How;
use crate::device::Device;
use crate::error::{FatalError, Result};
use crate::types::RComp;
use lci_fabric::{MemoryRegion, Rkey};

/// Bytes of a grant on the wire: one inline eager send.
pub(super) const GRANT_LEN: usize = 24;

/// Widest arena base a grant carries (the rcomp takes the other 24 bits
/// of its word).
const ARENA_BASE_BITS: u32 = 40;

/// What a rank hands one peer that puts into it, once per call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct Grant {
    /// The landing's registration, and this peer's base in it: 0 in
    /// place, the receive displacement for `alltoallv`.
    pub land: (Rkey, usize),
    /// The fold arena's registration, and this peer's region in it.
    pub arena: (Rkey, usize),
    /// The receive queue the puts signal.
    pub rcomp: RComp,
}

impl Grant {
    pub fn encode(&self) -> [u8; GRANT_LEN] {
        let (base, rcomp, land) = (self.arena.1 as u64, self.rcomp as u64, self.land.1 as u64);
        assert!(base < 1 << ARENA_BASE_BITS && rcomp < 1 << 24, "grant field overflow");
        let mut out = [0u8; GRANT_LEN];
        out[0..4].copy_from_slice(&self.land.0 .0.to_le_bytes());
        out[4..8].copy_from_slice(&self.arena.0 .0.to_le_bytes());
        out[8..16].copy_from_slice(&land.to_le_bytes());
        out[16..24].copy_from_slice(&(rcomp | base << 24).to_le_bytes());
        out
    }

    pub fn decode(b: &[u8; GRANT_LEN]) -> Grant {
        let word = |r: std::ops::Range<usize>| {
            let mut w = [0u8; 8];
            w[..r.len()].copy_from_slice(&b[r]);
            u64::from_le_bytes(w)
        };
        let last = word(16..24);
        Grant {
            land: (Rkey(word(0..4) as u32), word(8..16) as usize),
            arena: (Rkey(word(4..8) as u32), (last >> 24) as usize),
            rcomp: (last & 0xFF_FFFF) as RComp,
        }
    }

    /// Where a put of `how` writes: a fold's arena `slot` from the arena
    /// base, otherwise `dst_off` from the landing base.
    pub fn target(&self, how: How, dst_off: usize, slot: usize) -> (Rkey, usize) {
        match how {
            How::Fold => (self.arena.0, self.arena.1 + slot),
            _ => (self.land.0, self.land.1 + dst_off),
        }
    }
}

/// Where every `Fold` piece of a call lands, each in a slot of its own
/// (`plan::Plan::slot`), so its fold reads the incoming bytes from here.
/// Owned by
/// a `CollState`, it grows to the largest call's arena bytes, is
/// registered when it grows and stays registered. Only raw pointers
/// reach its bytes while a plan runs: a peer's put writes a slot on the
/// peer's thread.
#[derive(Default)]
pub(super) struct Arena {
    buf: Vec<u8>,
    mr: Option<MemoryRegion>,
}

impl Arena {
    /// Grows to at least `len` bytes. Called at a plan's first step,
    /// before anything is lent, so no grant names the old buffer.
    pub fn fit(&mut self, dev: &Device, len: usize) -> Result<()> {
        if len <= self.buf.len() {
            return Ok(());
        }
        if let Some(mr) = self.mr.take() {
            dev.deregister_memory(&mr)?;
        }
        self.buf = vec![0; len];
        self.mr = Some(register(dev, self.buf.as_ptr(), len)?);
        Ok(())
    }

    pub fn rkey(&self) -> Rkey {
        self.mr.map_or(Rkey::default(), |mr| mr.rkey)
    }

    /// The address of the slot at `off`.
    pub fn at(&mut self, off: usize) -> *mut u8 {
        assert!(off <= self.buf.len(), "fold slot outside the arena");
        // SAFETY: in bounds, checked above.
        unsafe { self.buf.as_mut_ptr().add(off) }
    }

    /// The bytes of a harvested slot.
    ///
    /// # Safety
    /// Whatever wrote the slot (a put, an eager copy) must have
    /// signalled, and nothing may write it while the slice lives.
    pub unsafe fn slot(&self, off: usize, len: usize) -> &[u8] {
        assert!(off + len <= self.buf.len(), "fold slot outside the arena");
        // SAFETY: in bounds; written before the signal the caller popped.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr().add(off), len) }
    }
}

/// Registers `len` bytes at `ptr` on `dev` (through its cache, so the
/// same landing next call is a hit).
pub(super) fn register(dev: &Device, ptr: *const u8, len: usize) -> Result<MemoryRegion> {
    dev.inner.net.register(ptr, len).map_err(|e| FatalError::Net(format!("collective: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_grant_round_trips() {
        let g = Grant {
            land: (Rkey(0xDEAD_BEEF), (1 << 62) + 3),
            arena: (Rkey(7), (1 << 39) + 5),
            rcomp: 0xAB_CDEF,
        };
        assert_eq!(Grant::decode(&g.encode()), g);
        assert_eq!(g.target(How::Land, 10, 20), (Rkey(0xDEAD_BEEF), (1 << 62) + 13));
        assert_eq!(g.target(How::Direct, 0, 20), (Rkey(0xDEAD_BEEF), (1 << 62) + 3));
        assert_eq!(g.target(How::Fold, 10, 20), (Rkey(7), (1 << 39) + 25));
    }
}
