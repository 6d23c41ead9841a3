//! Lending: a collective hands the runtime the caller's own memory for
//! as long as its plan runs, so a piece leaves from the caller's buffer
//! and lands in it (DESIGN.md §4.11 "Lending" holds the
//! last-dereference table this file's `SAFETY` comments cite).
//!
//! Two pieces. [`Lent`] is the address the runtime carries — as
//! [`SendBuf::Lent`](crate::SendBuf) on the send side, as the landing
//! of a posted receive on the other — and nothing outside `coll/` can
//! make one. [`Scope`] is the only thing inside `coll/` that does: one
//! per plan, borrowed from the caller's slices, and it does not end
//! while anything it lent can still be dereferenced. It lends three
//! ways: a range to one posted receive (a *landing*, or a *scratch*
//! landing in the engine's own memory), a range to one send, and the
//! whole landing side to one peer's puts for the call (a *grant*).
//!
//! * a **clean exit** is the stepper's own finish line — every lent
//!   receive popped (each is signalled after the last byte was written:
//!   the eager copy happens before `signal`), every grant returned (each
//!   put's signal travels behind its bytes on every wire, and the grant
//!   returns with the peer's last signal) and the send window drained
//!   (each send completes after its last byte was read: an eager send
//!   and a put read their source at the post). All three are counted on
//!   the way out ([`Scope::close`], `coll::finish`) and a miscount
//!   panics rather than trust the stepper;
//! * an **unclean exit** — the runtime failed after the first lend
//!   (`progress` returned a `FatalError`, a user `ReduceOp::fold`
//!   panicked) — cannot be waited out: a posted receive or a granted
//!   landing may still be written into the caller's memory and nothing
//!   cancels it (ROADMAP item 2). The scope prints the failure and
//!   **aborts the process** — MPI's default `MPI_ERRORS_ARE_FATAL`. A
//!   collective that returns `Err` has lent nothing.

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
    /// Grants made and not yet returned ([`ungrant`](Self::ungrant)).
    grants: Cell<usize>,
    /// Set by the first lend: from then on only a clean exit returns.
    armed: Cell<bool>,
    _caller: PhantomData<(&'a [u8], &'a mut [u8])>,
}

impl<'a> Scope<'a> {
    /// Sends and receives both address `buf` (allreduce, allgather,
    /// barrier).
    pub(super) fn in_place(buf: &'a mut [u8]) -> Scope<'a> {
        let span = (buf.as_mut_ptr(), buf.len());
        Scope::over(span, span)
    }

    /// Sends read `src`, receives land in `dst` (alltoallv).
    pub(super) fn new(src: &'a [u8], dst: &'a mut [u8]) -> Scope<'a> {
        // Never written through: `source` is the only reader of `src`.
        Scope::over((src.as_ptr().cast_mut(), src.len()), (dst.as_mut_ptr(), dst.len()))
    }

    fn over(src: (*mut u8, usize), dst: (*mut u8, usize)) -> Scope<'a> {
        let (landings, grants, armed) = (Cell::new(0), Cell::new(0), Cell::new(false));
        Scope { src, dst, landings, grants, armed, _caller: PhantomData }
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

    /// Lends `len` bytes of the engine's own memory at `at` — a fold
    /// slot of the arena, a grant's inbox — to one posted receive,
    /// counted like a [`landing`](Self::landing).
    ///
    /// # Safety
    /// The bytes must stay allocated until the scope has ended, and from
    /// the post until `landed` nothing else may read or write them.
    pub(super) unsafe fn scratch(&self, at: *mut u8, len: usize) -> Lent {
        self.landings.set(self.landings.get() + 1);
        self.armed.set(true);
        // SAFETY: the caller's contract is `Lent::new`'s.
        unsafe { Lent::new(at, len) }
    }

    /// Grants the whole landing side to one peer's puts for the rest of
    /// the call; pair with [`ungrant`](Self::ungrant) when the peer's
    /// last put has been harvested. Returns the span to register: the
    /// peer writes it through the registration, not through a `Lent`
    /// (DESIGN.md §4.11 "Lending", grants).
    ///
    /// # Safety
    /// Each range the peer's puts name is written between the put's post
    /// and the harvest of its signal; in that interval nothing else may
    /// read or write it, exactly as for a [`landing`](Self::landing).
    pub(super) unsafe fn grant(&self) -> (*const u8, usize) {
        self.grants.set(self.grants.get() + 1);
        self.armed.set(true);
        (self.dst.0, self.dst.1)
    }

    /// A peer's last put was harvested: its grant is returned.
    pub(super) fn ungrant(&self) {
        self.grants.set(self.grants.get() - 1);
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

    /// The clean exit: every landing landed and every grant returned,
    /// checked here; the caller has checked that the send window drained.
    pub(super) fn close(self) {
        let landings = self.landings.get();
        assert!(landings == 0, "collective returned with {landings} lent receives posted");
        let grants = self.grants.get();
        assert!(grants == 0, "collective returned with {grants} grants out");
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
