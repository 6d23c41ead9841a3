//! Granted puts: how a collective piece longer than the eager size
//! travels (DESIGN.md §4.11 "Puts").
//!
//! At the start of a call a rank registers its landing side and sends
//! each peer that will write a large piece into it one [`Grant`]: the
//! landing's rkey and the peer's base in it, the fold [`Arena`]'s rkey
//! and the peer's base in that, whether the peer folds in place, and
//! the rcomp of the plan's receive queue. The peer then posts every such
//! piece as a put with a remote signal to the destination its plan
//! computed, and the receiver harvests the piece from the signal, which
//! carries the piece's own tag. One two-sided message per peer and
//! call, instead of an RTS, an RTR, a match and a registration per
//! piece.
//!
//! **Folding in place.** When the peer can address the landing — the
//! sims and in-process shm, where `NetDevice::local_addr` says so — and
//! no other fold of the plan overlaps the peer's folds (`plan::Plan::seal`),
//! the grant says `in_place`: the peer folds each of its `Fold` pieces
//! straight into the receiver's accumulator (`op.fold(theirs, mine)`, the
//! receiver's bytes as the accumulator, as the harvest would have) and
//! posts a zero-byte put that carries only the signal. The piece is
//! moved once, not copied into the arena and read back, and the
//! harvest folds nothing. A sender whose device cannot address a peer
//! that granted in place fails before it writes anything.

use super::lend::Lent;
use super::ops::ReduceOp;
use super::plan::How;
use crate::device::Device;
use crate::error::{FatalError, Result};
use crate::runtime::Runtime;
use crate::types::{RComp, Rank};
use lci_fabric::{MemoryRegion, Rkey};

/// Bytes of a grant on the wire: one inline eager send.
pub(super) const GRANT_LEN: usize = 24;

/// Widest arena base a grant carries (the rcomp takes the other 24 bits
/// of its word).
const ARENA_BASE_BITS: u32 = 40;

/// The landing base's top bit carries `in_place` (no landing is 2^63
/// bytes long).
const IN_PLACE: u64 = 1 << 63;

/// What a rank hands one peer that puts into it, once per call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct Grant {
    /// The landing's registration, and this peer's base in it: 0 in
    /// place, the receive displacement for `alltoall(v)`.
    pub land: (Rkey, usize),
    /// The fold arena's registration, and this peer's region in it.
    pub arena: (Rkey, usize),
    /// The receive queue the puts signal.
    pub rcomp: RComp,
    /// The peer folds its `Fold` pieces into the landing itself and
    /// signals them with zero-byte puts (module docs).
    pub in_place: bool,
}

impl Grant {
    pub fn encode(&self) -> [u8; GRANT_LEN] {
        let (base, rcomp, land) = (self.arena.1 as u64, self.rcomp as u64, self.land.1 as u64);
        assert!(base < 1 << ARENA_BASE_BITS && rcomp < 1 << 24, "grant field overflow");
        assert!(land & IN_PLACE == 0, "grant field overflow");
        let mut out = [0u8; GRANT_LEN];
        out[0..4].copy_from_slice(&self.land.0 .0.to_le_bytes());
        out[4..8].copy_from_slice(&self.arena.0 .0.to_le_bytes());
        let in_place = if self.in_place { IN_PLACE } else { 0 };
        out[8..16].copy_from_slice(&(land | in_place).to_le_bytes());
        out[16..24].copy_from_slice(&(rcomp | base << 24).to_le_bytes());
        out
    }

    pub fn decode(b: &[u8; GRANT_LEN]) -> Grant {
        let word = |r: std::ops::Range<usize>| {
            let mut w = [0u8; 8];
            w[..r.len()].copy_from_slice(&b[r]);
            u64::from_le_bytes(w)
        };
        let (land, last) = (word(8..16), word(16..24));
        Grant {
            land: (Rkey(word(0..4) as u32), (land & !IN_PLACE) as usize),
            arena: (Rkey(word(4..8) as u32), (last >> 24) as usize),
            rcomp: (last & 0xFF_FFFF) as RComp,
            in_place: land & IN_PLACE != 0,
        }
    }

    /// Where a put of `how` writes: `dst_off` from the landing base, or
    /// a fold's arena `slot` from the arena base. A fold in place
    /// writes its accumulator, `dst_off` from the landing base, before
    /// its zero-byte put signals there.
    pub fn target(&self, how: How, dst_off: usize, slot: usize) -> (Rkey, usize) {
        match how {
            How::Fold if !self.in_place => (self.arena.0, self.arena.1 + slot),
            _ => (self.land.0, self.land.1 + dst_off),
        }
    }
}

/// Folds `piece` into the range `dst_off` from the landing base `g`
/// grants, in `to`'s memory, through the address this rank's device
/// gives for it — or fails, writing nothing, if it gives none: the peer
/// granted in place believing this rank could address it, and a silent
/// fallback would land bytes its plan never posted for.
pub(super) fn fold_in_place<O: ReduceOp + ?Sized>(
    rt: &Runtime,
    to: Rank,
    g: Grant,
    dst_off: usize,
    piece: &Lent,
    op: &O,
) -> Result<()> {
    let len = piece.len();
    let (rkey, off) = (g.land.0, g.land.1 + dst_off);
    let fail = |why: &dyn std::fmt::Display| {
        FatalError::Net(format!("collective: rank {to} granted a fold in place: {why}"))
    };
    let at = rt.device().inner.net.local_addr(to, rkey, off, len).map_err(|e| fail(&e))?;
    let Some(at) = at else {
        return Err(fail(&"this device cannot address that rank's memory"));
    };
    // SAFETY: `local_addr` bounds-checked the range against the peer's
    // live registration of its landing side, in this address space. The
    // peer granted it to this rank's put folds, and its plan keeps every
    // other touch of the range outside the interval from this post to
    // the harvest of the signal posted next (`plan::ring`'s doc; checked
    // by `tests::model`; DESIGN.md §4.11 "Lending", grants). The piece
    // is this rank's own memory, never the peer's.
    let acc = unsafe { std::slice::from_raw_parts_mut(at, len) };
    op.fold(acc, piece.as_slice());
    Ok(())
}

/// Where every `Fold` piece of a call that is not folded in place lands,
/// each in a slot of its own (`plan::Plan::slot`): the eager pieces and
/// the puts of a peer that cannot fold in place, so their fold reads
/// the incoming bytes from here. Owned by
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
    use crate::{RuntimeConfig, SumU64};
    use lci_fabric::{DeviceConfig, Fabric};

    #[test]
    fn a_grant_round_trips() {
        let g = Grant {
            land: (Rkey(0xDEAD_BEEF), (1 << 44) + 3),
            arena: (Rkey(7), (1 << 39) + 5),
            rcomp: 0xAB_CDEF,
            in_place: false,
        };
        assert_eq!(Grant::decode(&g.encode()), g);
        assert_eq!(g.target(How::Land, 10, 20), (Rkey(0xDEAD_BEEF), (1 << 44) + 13));
        assert_eq!(g.target(How::Fold, 10, 20), (Rkey(7), (1 << 39) + 25));
        // In place, a fold names its accumulator in the landing; the
        // flag rides the landing base's top bit and leaves the base whole.
        let g = Grant { in_place: true, land: (Rkey(3), (1 << 62) + 1), ..g };
        assert_eq!(Grant::decode(&g.encode()), g);
        assert_eq!(g.target(How::Fold, 10, 20), (Rkey(3), (1 << 62) + 11));
        assert_eq!(g.target(How::Land, 10, 20), (Rkey(3), (1 << 62) + 11));
    }

    /// A grant that says in place, held by a rank whose device cannot
    /// address the granting one (tcp frames every byte), fails the fold
    /// with `FatalError::Net` before anything is written: no fallback.
    #[test]
    fn folding_in_place_where_the_device_cannot_address_fails_before_writing() {
        let cfg = RuntimeConfig::default().with_device(DeviceConfig::tcp());
        let fabric = Fabric::new(2);
        let rt0 = Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap();
        let rt1 = Runtime::new(fabric, 1, cfg).unwrap();
        let acc = [7u8; 64];
        let mr = register(rt1.device(), acc.as_ptr(), acc.len()).unwrap();
        let g = Grant { land: (mr.rkey, 0), arena: (Rkey(0), 0), rcomp: 0, in_place: true };
        let mine = [1u8; 16];
        // SAFETY: `mine` outlives the lent range, which is only read.
        let piece = unsafe { Lent::new(mine.as_ptr().cast_mut(), mine.len()) };
        let err = fold_in_place(&rt0, 1, g, 8, &piece, &SumU64).unwrap_err();
        assert!(matches!(err, FatalError::Net(_)), "{err:?}");
        assert!(acc.iter().all(|&b| b == 7), "the fold wrote before it failed");
    }
}
