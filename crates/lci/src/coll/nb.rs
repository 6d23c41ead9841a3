//! Non-blocking collectives: the blocking collectives' plans, stepped
//! from a handle instead of under a wait.
//!
//! An `i*` call copies its arguments into buffers the returned
//! [`IColl`] owns, reserves every tag it will use (call order is
//! collective order, as for the blocking calls), builds the plan its
//! blocking namesake would and takes the first step. The handle lends
//! its own buffers the way a blocking call lends its caller's, so an
//! `i*` is chunked, pipelined, windowed and pool-free like the rest of
//! `coll`, and fails the same way: `Err` if nothing was lent, the
//! process ended otherwise (DESIGN.md §4.11 "The abort rule").
//!
//! **Weak progress.** A handle advances only inside its own
//! [`test`](IColl::test) or [`wait`](IColl::wait), and its peers finish
//! only as fast as it does: poll it in any loop a peer's collective may
//! be waiting on. Dropping an unfinished handle waits for it.

use super::lend::Scope;
use super::plan::{self, Plan, Shape};
use super::{
    bytes_of_u64s, count_v, finish, split, u64s_of_bytes, wait_for, CollState, FnOpU64, NoFold,
    ReduceOp, Tags, MAX_RING_RANKS,
};
use crate::error::{FatalError, Result};
use crate::runtime::Runtime;
use crate::types::Rank;

type Then<T> = Box<dyn FnOnce(&mut IColl<T>) + Send>;

/// Handle to an in-flight non-blocking collective resolving to `T`.
pub struct IColl<T> {
    rt: Runtime,
    /// A state of its own (receive queue, send window, shelf): handles
    /// and a blocking collective may be in flight together.
    st: CollState,
    plan: Plan,
    /// What sends read, unless the collective runs in place over `dst`.
    src: Option<Vec<u8>>,
    /// What receives land in, and what `T` is made from.
    dst: Vec<u8>,
    /// The loan of `src` and `dst` while the plan runs.
    scope: Option<Scope<'static>>,
    op: Box<dyn ReduceOp + Send>,
    /// A second plan to start when the first has finished.
    then: Option<Then<T>>,
    resolve: Option<Box<dyn FnOnce(Vec<u8>) -> T + Send>>,
    failed: Option<FatalError>,
}

impl<T> IColl<T> {
    /// Lends `src` and `dst` to the plan `build` writes and takes its
    /// first step.
    fn start(
        rt: &Runtime,
        src: Option<Vec<u8>>,
        dst: Vec<u8>,
        op: impl ReduceOp + Send + 'static,
        build: impl FnOnce(&mut Plan),
        then: Option<Then<T>>,
        resolve: impl FnOnce(Vec<u8>) -> T + Send + 'static,
    ) -> Result<IColl<T>> {
        let mut h = IColl {
            rt: rt.clone(),
            st: CollState::new(rt),
            plan: Plan::default(),
            src,
            dst,
            scope: None,
            op: Box::new(op),
            then,
            resolve: Some(Box::new(resolve)),
            failed: None,
        };
        h.lend(build);
        h.test()?;
        Ok(h)
    }

    /// Builds the plan to run over `src`/`dst` (none on a world of one,
    /// like the blocking calls) and lends them to it.
    fn lend(&mut self, build: impl FnOnce(&mut Plan)) {
        if self.rt.rank_n() > 1 {
            build(&mut self.plan);
        }
        // SAFETY: the vectors are private to the handle, which reads,
        // replaces or frees them only with `scope` gone again — `test`
        // ends it before `then` or `wait` look, `drop` waits for that —
        // and moving the handle does not move their heap buffers.
        self.scope = Some(unsafe { Scope::over_owned(self.src.as_deref(), &mut self.dst) });
    }

    /// Takes one step; `Ok(true)` once the collective has completed.
    pub fn test(&mut self) -> Result<bool> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        while let Some(scope) = &self.scope {
            let res = self.plan.step(&self.rt, &mut self.st, scope, &*self.op);
            if matches!(res, Ok(false)) {
                return Ok(false);
            }
            let scope = self.scope.take().expect("borrowed above");
            finish(&self.st, scope, res.map(drop))
                .inspect_err(|e| self.failed = Some(e.clone()))?;
            if let Some(then) = self.then.take() {
                then(self);
            }
        }
        Ok(true)
    }

    /// Steps to the end, progressing `rt` in between.
    fn drive(&mut self, rt: &Runtime) -> Result<()> {
        match (wait_for(rt, || self.test()), self.scope.take()) {
            // `progress` itself failed, with the buffers lent.
            (Err(e), Some(scope)) => Err(scope.fail(e)),
            (res, _) => res,
        }
    }

    /// Steps until completion, progressing `rt` (the runtime the
    /// collective was started on) in between, and returns the result.
    pub fn wait(mut self, rt: &Runtime) -> Result<T> {
        self.drive(rt)?;
        let resolve = self.resolve.take().expect("a handle resolves once");
        Ok(resolve(std::mem::take(&mut self.dst)))
    }
}

impl<T> Drop for IColl<T> {
    /// An unfinished handle's buffers are lent and its peers count on
    /// its sends: wait it out. A panic unwinding past it is the scope's
    /// to answer (it aborts).
    fn drop(&mut self) {
        if self.scope.is_some() && !std::thread::panicking() {
            let _ = self.drive(&self.rt.clone());
        }
    }
}

/// Non-blocking dissemination barrier.
pub fn ibarrier(rt: &Runtime) -> Result<IColl<()>> {
    let build = |p: &mut Plan| plan::barrier(p, Shape::of(rt), Tags::reserve(rt, 1));
    IColl::start(rt, None, vec![0; plan::BARRIER_SCRATCH], NoFold, build, None, |_| ())
}

/// The broadcast of `len` bytes from `root`, its tags reserved now.
fn bcast(rt: &Runtime, root: Rank, len: usize) -> impl FnOnce(&mut Plan) + Send + 'static {
    let w = Shape::of(rt);
    let tags = Tags::reserve(rt, len.div_ceil(w.chunk));
    move |p| plan::broadcast(p, w, root, len, tags)
}

/// Non-blocking chunk-streamed binomial broadcast; resolves to the
/// buffer, which every rank passes at the root's length.
pub fn ibroadcast(rt: &Runtime, root: Rank, buf: Vec<u8>) -> Result<IColl<Vec<u8>>> {
    let build = bcast(rt, root, buf.len());
    IColl::start(rt, None, buf, NoFold, build, None, |buf| buf)
}

/// Non-blocking binomial reduction to `root`; resolves to
/// `Some(result)` on the root and `None` elsewhere.
pub fn ireduce_u64(
    rt: &Runtime,
    root: Rank,
    contrib: &[u64],
    op: impl Fn(u64, u64) -> u64 + Copy + Send + Sync + 'static,
) -> Result<IColl<Option<Vec<u64>>>> {
    let (w, len) = (Shape::of(rt), contrib.len() * 8);
    let build = |p: &mut Plan| plan::reduce(p, w, root, len, Tags::reserve(rt, 1));
    let resolve = move |acc: Vec<u8>| (w.me == root).then(|| u64s_of_bytes(&acc));
    IColl::start(rt, None, bytes_of_u64s(contrib), FnOpU64(op), build, None, resolve)
}

/// Non-blocking allreduce of `u64` lanes — the chunk-pipelined ring, or
/// reduce to rank 0 then broadcast past `MAX_RING_RANKS`; resolves to
/// the reduced vector on every rank.
pub fn iallreduce_u64(
    rt: &Runtime,
    contrib: &[u64],
    op: impl Fn(u64, u64) -> u64 + Copy + Send + Sync + 'static,
) -> Result<IColl<Vec<u64>>> {
    let (w, len) = (Shape::of(rt), contrib.len() * 8);
    let (acc, op, resolve) =
        (bytes_of_u64s(contrib), FnOpU64(op), |acc: Vec<u8>| u64s_of_bytes(&acc));
    if w.n > MAX_RING_RANKS {
        let reduce = |p: &mut Plan| plan::reduce(p, w, 0, len, Tags::reserve(rt, 1));
        let build = bcast(rt, 0, len);
        let then: Then<_> = Box::new(move |h| h.lend(build));
        return IColl::start(rt, None, acc, op, reduce, Some(then), resolve);
    }
    let build =
        |p: &mut Plan| plan::ring(p, w, len, 8, Tags::reserve(rt, plan::ring_span(w, len, 8)));
    IColl::start(rt, None, acc, op, build, None, resolve)
}

/// Non-blocking Bruck allgather; resolves to the rank-ordered
/// contributions (equal length on every rank).
pub fn iallgather(rt: &Runtime, mine: &[u8]) -> Result<IColl<Vec<Vec<u8>>>> {
    let (w, len) = (Shape::of(rt), mine.len());
    let mut out = vec![0u8; w.n * len];
    out[..len].copy_from_slice(mine);
    let build = |p: &mut Plan| plan::allgather(p, w, len, Tags::reserve(rt, 1));
    let resolve = move |mut out: Vec<u8>| {
        // Position `j` holds rank `(me + j) mod n`.
        out.rotate_right(w.me * len);
        split(&out, std::iter::repeat_n(len, w.n))
    };
    IColl::start(rt, None, out, NoFold, build, None, resolve)
}

/// Non-blocking pairwise alltoall; resolves to the rank-ordered blocks
/// received. All blocks must have equal length across ranks.
pub fn ialltoall(rt: &Runtime, send: &[Vec<u8>]) -> Result<IColl<Vec<Vec<u8>>>> {
    let w @ Shape { n, me, .. } = Shape::of(rt);
    assert_eq!(send.len(), n, "alltoall needs one block per rank");
    let block = send[me].len();
    assert!(send.iter().all(|b| b.len() == block), "alltoall blocks must have equal length");
    let mut out = vec![0u8; n * block];
    out[me * block..][..block].copy_from_slice(&send[me]);
    let build = |p: &mut Plan| plan::alltoall(p, w, block, Tags::reserve(rt, 1));
    let resolve = move |out: Vec<u8>| split(&out, std::iter::repeat_n(block, n));
    IColl::start(rt, Some(send.concat()), out, NoFold, build, None, resolve)
}

/// Non-blocking uneven-block alltoallv; resolves to the rank-ordered
/// blocks received. Blocks may differ in length per pair and the
/// receive sizes need not be known: a **count round** (the 8-byte
/// alltoall [`exchange_counts`](super::exchange_counts) runs) is
/// followed by the chunked sparse [`alltoallv`](super::alltoallv) plan
/// over the learned sizes — the MoE dispatch shape, overlappable behind
/// compute via [`IColl::test`]. Both rounds' tags are reserved here.
pub fn ialltoallv(rt: &Runtime, send: &[Vec<u8>]) -> Result<IColl<Vec<Vec<u8>>>> {
    let w @ Shape { n, me, .. } = Shape::of(rt);
    assert_eq!(send.len(), n, "alltoallv needs one block per rank");
    let send_counts: Vec<usize> = send.iter().map(Vec::len).collect();
    let counts: Vec<u8> = send_counts.iter().flat_map(|&c| (c as u64).to_le_bytes()).collect();
    let mut learned = vec![0u8; n * 8];
    learned[me * 8..][..8].copy_from_slice(&counts[me * 8..][..8]);
    let (flat, tags) = (send.concat(), Tags::reserve(rt, plan::V_SPAN));
    let data_round: Then<_> = Box::new(move |h| {
        let recv_counts: Vec<usize> = u64s_of_bytes(&h.dst).iter().map(|&c| c as usize).collect();
        count_v(&h.rt, &send_counts);
        let (soff, roff): (usize, usize) =
            (send_counts[..me].iter().sum(), recv_counts[..me].iter().sum());
        let mut out = vec![0u8; recv_counts.iter().sum()];
        // The self block never touches the wire.
        out[roff..][..recv_counts[me]].copy_from_slice(&flat[soff..][..send_counts[me]]);
        (h.src, h.dst) = (Some(flat), out);
        h.lend(|p| plan::alltoallv(p, w, &send_counts, &recv_counts, tags));
        h.resolve = Some(Box::new(move |out| split(&out, recv_counts)));
    });
    let count_round = |p: &mut Plan| plan::alltoall(p, w, 8, Tags::reserve(rt, 1));
    let unresolved = |_| unreachable!("the data round resolves the handle");
    IColl::start(rt, Some(counts), learned, NoFold, count_round, Some(data_round), unresolved)
}
