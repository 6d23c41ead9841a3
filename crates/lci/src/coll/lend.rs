//! Lending: a collective hands the runtime the caller's own memory for
//! as long as its plan runs, so a chunk leaves from the caller's buffer
//! and lands in it (DESIGN.md §4.11 "Lending" holds the
//! last-dereference table this file's `SAFETY` comments cite).
//!
//! Two pieces. [`Lent`] is the address the runtime carries — as
//! [`SendBuf::Lent`](crate::SendBuf) on the send side, as the landing
//! of a posted receive on the other — and nothing outside `coll/` can
//! make one. [`Scope`] is the only thing inside `coll/` that does: one
//! per plan, borrowed from the caller's slices (or laid over the
//! buffers an `i*` handle owns), and it does not end while anything it
//! lent can still be dereferenced:
//!
//! * a **clean exit** is the stepper's own finish line — every lent
//!   receive popped (each is signalled after the last byte was written:
//!   the eager copy happens before `signal`, FIN travels behind the last
//!   chunk on every wire) and the send window drained (each send
//!   completes after its last byte was read: eager at the post,
//!   rendezvous at the last `WriteDone`). Both are counted on
//!   the way out ([`Scope::close`], `coll::finish`) and a miscount
//!   panics rather than trust the stepper;
//! * an **unclean exit** — the runtime failed after the first lend
//!   (`progress` returned a `FatalError`, a user `ReduceOp::fold`
//!   panicked) — cannot be waited out: a posted receive, a pending
//!   rendezvous or a running chunk pump may still name the caller's
//!   memory and nothing cancels them (ROADMAP item 2). The scope prints
//!   the failure and **aborts the process** — MPI's default
//!   `MPI_ERRORS_ARE_FATAL`. A collective that returns `Err` has lent
//!   nothing.

use crate::error::{FatalError, Result};
use crate::types::{CompDesc, DataBuf, SendBuf, SENDBUF_INLINE_CAP};
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;

/// A range of the caller's memory, lent to the runtime by a blocking
/// collective. Holds no lifetime: the [`Scope`] that made it outlives
/// every dereference, or the process does not.
#[derive(Debug)]
pub struct Lent {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: a `Lent` is an address and a length. What is behind the
// address is the business of whoever called `Lent::new`, whose contract
// is stated for every thread at once: any thread's `progress` may pump
// from a lent source or deliver into a lent landing, and the lender
// promises that nothing else touches the range until that operation has
// signalled — a signal the lender receives through a completion object
// (release on `signal`, acquire on the pop or the window load), which
// orders those accesses before its own next one.
unsafe impl Send for Lent {}
// SAFETY: as above; `&Lent` offers only what `Lent` does.
unsafe impl Sync for Lent {}

impl Lent {
    /// # Safety
    /// `ptr..ptr + len` must stay allocated until the operation this
    /// value is posted with has signalled its completion, and until
    /// then: posted as a send source, nothing may write the range;
    /// posted as a landing, `ptr` must be valid for writes and nothing
    /// else may read or write the range.
    pub(super) unsafe fn new(ptr: *mut u8, len: usize) -> Lent {
        Lent { ptr, len }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The send buffer that posts this range: inline at or under
    /// [`SENDBUF_INLINE_CAP`] like any borrowed payload, lent above it.
    /// Callable again after a `Retry`, which hands the previous one
    /// back with nothing posted.
    pub(super) fn send_buf(&self) -> SendBuf {
        if self.len <= SENDBUF_INLINE_CAP {
            self.as_slice().into()
        } else {
            SendBuf::Lent(Lent { ..*self })
        }
    }

    /// Where a rendezvous registers this landing.
    pub(crate) fn as_ptr(&self) -> *const u8 {
        self.ptr
    }

    /// The bytes of a send source.
    pub(crate) fn as_slice(&self) -> &[u8] {
        // SAFETY: `new`'s caller keeps the range allocated and unwritten
        // while the send that carries `self` is incomplete, and `self`
        // does not outlive that send's completion descriptor.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Copies an eager payload into this landing.
    pub(crate) fn fill(&self, payload: &[u8]) {
        assert!(payload.len() <= self.len, "eager payload overruns its lent landing");
        // SAFETY: `new`'s caller made the range writable and ours alone
        // until the receive signals, which happens after this returns;
        // `payload` is a packet or a pooled buffer, never caller memory.
        unsafe { std::ptr::copy_nonoverlapping(payload.as_ptr(), self.ptr, payload.len()) }
    }
}

/// One plan's loan of its caller's slices.
///
/// Built from the borrows themselves, so the caller cannot touch the
/// memory while the scope lives; inside, every access — the runtime's
/// through [`Lent`]s, the engine's own through [`window`](Self::window)
/// — derives from the one pointer taken here.
pub(super) struct Scope<'a> {
    /// What sends read: the caller's send buffer, or `dst` again for an
    /// in-place collective.
    src: (*mut u8, usize),
    /// What receives land in and folds update.
    dst: (*mut u8, usize),
    /// Lent receives posted and not yet [`landed`](Self::landed).
    landings: Cell<usize>,
    /// Set by the first lend: from then on only a clean exit returns.
    armed: Cell<bool>,
    _caller: PhantomData<(&'a [u8], &'a mut [u8])>,
}

// SAFETY: the pointers stand for the `&'a [u8]` and `&'a mut [u8]` the
// scope was built from (or for buffers its owner moves along with it),
// both `Send`; the counters are plain cells that move with it.
unsafe impl Send for Scope<'_> {}

impl<'a> Scope<'a> {
    /// Sends and receives both address `buf` (allreduce, broadcast,
    /// allgather, reduce).
    pub(super) fn in_place(buf: &'a mut [u8]) -> Scope<'a> {
        let span = (buf.as_mut_ptr(), buf.len());
        Scope::over(span, span)
    }

    /// Sends read `src`, receives land in `dst` (alltoall, alltoallv).
    pub(super) fn new(src: &'a [u8], dst: &'a mut [u8]) -> Scope<'a> {
        // Never written through: `source` is the only reader of `src`.
        Scope::over((src.as_ptr().cast_mut(), src.len()), (dst.as_mut_ptr(), dst.len()))
    }

    /// A scope over buffers an `i*` handle owns instead of borrows
    /// (`src: None` = in place over `dst`).
    ///
    /// # Safety
    /// Until the scope has ended, both allocations must stay where they
    /// are and be touched through the scope alone.
    pub(super) unsafe fn over_owned(src: Option<&[u8]>, dst: &mut [u8]) -> Scope<'static> {
        let dst = (dst.as_mut_ptr(), dst.len());
        Scope::over(src.map_or(dst, |s| (s.as_ptr().cast_mut(), s.len())), dst)
    }

    fn over(src: (*mut u8, usize), dst: (*mut u8, usize)) -> Scope<'a> {
        let (landings, armed) = (Cell::new(0), Cell::new(false));
        Scope { src, dst, landings, armed, _caller: PhantomData }
    }

    fn lend(&self, (base, len): (*mut u8, usize), range: Range<usize>) -> Lent {
        assert!(range.start <= range.end && range.end <= len, "lent range outside the slice");
        self.armed.set(true);
        // SAFETY: in bounds of a slice borrowed for `'a`, so allocated
        // while `self` lives; `self` ends cleanly only after every lent
        // operation signalled (`close`) and otherwise ends the process
        // (`Drop`). Who else touches the range meanwhile is the caller's
        // half (`source`, `landing`).
        unsafe { Lent::new(base.add(range.start), range.len()) }
    }

    /// Lends `range` of the send side, to be posted as a send source
    /// and nothing else. The runtime reads it from the post until the
    /// send's completion (DESIGN.md §4.11 "Lending", sends).
    ///
    /// # Safety
    /// In that interval nothing may write the range: no
    /// [`window`](Self::window) over it may be alive, and the bytes of
    /// any [`landing`](Self::landing) posted over it must be unable to
    /// arrive.
    pub(super) unsafe fn source(&self, range: Range<usize>) -> Lent {
        self.lend(self.src, range)
    }

    /// Lends `range` of the landing side to one posted receive; pair
    /// with [`landed`](Self::landed) when its completion is popped.
    /// Posting touches nothing: the runtime writes the range between the
    /// arrival of the matching send and the completion (DESIGN.md §4.11
    /// "Lending", landings).
    ///
    /// # Safety
    /// From the moment the peer can post that send until `landed`,
    /// nothing else may read or write the range: no
    /// [`source`](Self::source) over it may be in flight, no
    /// [`window`](Self::window) alive, and no other landing's bytes on
    /// their way.
    pub(super) unsafe fn landing(&self, range: Range<usize>) -> Lent {
        self.landings.set(self.landings.get() + 1);
        self.lend(self.dst, range)
    }

    /// The engine's own view of `range` of the landing side (a fold's
    /// accumulator). Lends nothing, so it does not arm the scope.
    ///
    /// # Safety
    /// While the slice is alive the runtime must have no reason to touch
    /// the range (no `source` over it in flight, no `landing` whose
    /// bytes can arrive) and no other window may overlap it.
    #[allow(clippy::mut_from_ref)]
    pub(super) unsafe fn window(&self, range: Range<usize>) -> &mut [u8] {
        assert!(range.start <= range.end && range.end <= self.dst.1, "window outside the slice");
        // SAFETY: in bounds of the `&'a mut` slice this scope was built
        // from; exclusive per the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.dst.0.add(range.start), range.len()) }
    }

    /// Accounts for one popped lent receive and checks that the
    /// schedule's `want` bytes are what was delivered (ranks that cut
    /// their blocks differently would otherwise leave a tail unwritten).
    pub(super) fn landed(&self, desc: &CompDesc, want: usize) -> Result<()> {
        match desc.data {
            DataBuf::Lent(got) if got == want => {
                self.landings.set(self.landings.get() - 1);
                Ok(())
            }
            _ => Err(FatalError::Net(format!(
                "collective piece {:#x} from rank {} delivered {} bytes into a lent landing of {want}",
                desc.user_ctx,
                desc.rank,
                desc.data.len()
            ))),
        }
    }

    /// The clean exit: every landing landed, checked here; the caller
    /// has checked that the send window drained.
    pub(super) fn close(self) {
        let landings = self.landings.get();
        assert!(landings == 0, "collective returned with {landings} lent receives posted");
        self.armed.set(false);
    }

    /// The failed exit: hands `e` back if nothing was lent, and does
    /// not return otherwise.
    pub(super) fn fail(self, e: FatalError) -> FatalError {
        if self.armed.get() {
            abort_lent(&e)
        }
        e
    }
}

/// The unclean exit: says why and ends the process.
fn abort_lent(why: &dyn std::fmt::Display) -> ! {
    eprintln!("lci::coll: {why}");
    eprintln!(
        "lci::coll: aborting: the caller's memory is lent to operations that did not \
         complete and cannot be cancelled (DESIGN.md 4.11, Lending)"
    );
    std::process::abort()
}

impl Drop for Scope<'_> {
    /// Reached armed only by a panic unwinding through the engine (a
    /// user `ReduceOp::fold`, a failed count on the way out).
    fn drop(&mut self) {
        if self.armed.get() {
            abort_lent(&"a panic unwound through a blocking collective");
        }
    }
}
