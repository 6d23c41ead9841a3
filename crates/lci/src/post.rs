//! Communication posting: the generic `post_comm` operation and the five
//! derived operations (paper §3.2.4, Table 1), with the *Objectified
//! Flexible Function* (OFF) idiom of §3.1.
//!
//! The C++ OFF variant is a functor whose setters can be chained in any
//! order before the final `()` call. The Rust rendering is a builder with
//! the same shape; `call()` plays the role of `operator()`:
//!
//! ```
//! # use lci_fabric::Fabric;
//! # use lci::{Runtime, Comp, MatchingPolicy};
//! # let fabric = Fabric::new(1);
//! # let rt = Runtime::with_defaults(fabric, 0).unwrap();
//! # let comp = Comp::alloc_cq();
//! let ret = rt
//!     .post_send_x(0, vec![1, 2, 3], 5, comp)
//!     .matching_policy(MatchingPolicy::RankOnly)
//!     .call()
//!     .unwrap();
//! ```
//!
//! Table 1 mapping (direction × remote buffer × remote completion):
//!
//! | Direction | Remote buffer | Remote completion | Operation |
//! |-----------|---------------|-------------------|-----------|
//! | OUT | none | none | send |
//! | OUT | none | specified | active message |
//! | OUT | specified | none | RMA put |
//! | OUT | specified | specified | RMA put w. signal |
//! | IN  | none | none | receive |
//! | IN  | none | specified | **invalid** |
//! | IN  | specified | none | RMA get |
//! | IN  | specified | specified | RMA get w. signal |
//!
//! # Cost model
//!
//! The C++ OFF functor costs nothing because it inlines; so does this
//! builder. Every setter, `call` and every derived `post_*`/`post_*_x`
//! is `#[inline]`, so a caller in another crate assembles the post's
//! record ([`CommArgs`], 136 bytes) in its own frame, once. `call`
//! hands [`Device::post_comm`] one `&mut CommArgs`; `post_comm`
//! dispatches to the protocol, and each protocol takes out of the record
//! only what it consumes (the buffer, the comp, the landing). What is
//! left drops with the builder. A derived operation converts its buffer
//! before it starts the builder: a conversion that can unwind in the
//! middle of the chain splits the record across two stack slots and
//! costs a copy. When the record moved by value instead, `objdump -d`
//! of the release spine showed out-of-line `memcpy`s of the record or
//! the builder in `call`, `post_comm`, the `comp` and `landing` setters
//! and `post_am_x`: two per send, three per AM, four per receive. It now
//! shows none on those paths.

use crate::comp::Comp;
use crate::device::{CommArgs, Device};
use crate::error::{PostResult, Result};
use crate::runtime::Runtime;
use crate::types::{Direction, Landing, MatchingPolicy, RComp, Rank, SendBuf, Tag};
use lci_fabric::{DevId, Rkey};

/// The OFF builder for the generic communication-posting operation.
///
/// Construct through [`Runtime::post_comm_x`] or one of the derived
/// `post_*_x` methods, chain optional arguments in any order, and finish
/// with [`call`](CommBuilder::call).
///
/// The builder borrows its device: assembling and posting an operation
/// takes no refcount on it.
#[must_use = "a builder does nothing until .call()"]
pub struct CommBuilder<'a> {
    device: &'a Device,
    args: CommArgs,
}

impl<'a> CommBuilder<'a> {
    #[inline]
    pub(crate) fn new(device: &'a Device, direction: Direction, rank: Rank) -> Self {
        Self {
            device,
            args: CommArgs {
                direction,
                rank,
                send_buf: None,
                recv_buf: None,
                tag: 0,
                comp: None,
                remote_buf: None,
                remote_comp: None,
                policy: MatchingPolicy::RankTag,
                target_dev: None,
                user_ctx: 0,
                allow_retry: true,
                allow_coalescing: true,
            },
        }
    }

    /// Uses `device` instead of the runtime default (the
    /// `.device(device)` optional argument of Listing 1).
    #[inline]
    pub fn device(mut self, device: &'a Device) -> Self {
        self.device = device;
        self
    }

    /// Sets the message tag.
    #[inline]
    pub fn tag(mut self, tag: Tag) -> Self {
        self.args.tag = tag;
        self
    }

    /// Sets the local completion object.
    #[inline]
    pub fn comp(mut self, comp: Comp) -> Self {
        self.args.comp = Some(comp);
        self
    }

    /// Sets the local source buffer (OUT direction).
    #[inline]
    pub fn send_buf(mut self, buf: impl Into<SendBuf>) -> Self {
        self.args.send_buf = Some(buf.into());
        self
    }

    /// Sets the local destination buffer (IN direction).
    #[inline]
    pub fn recv_buf(self, buf: impl Into<Box<[u8]>>) -> Self {
        self.landing(Landing::Owned(buf.into()))
    }

    /// Sets where the receive lands (IN direction): what
    /// [`recv_buf`](Self::recv_buf) wraps, and how `lci::coll` posts a
    /// receive into lent memory.
    #[inline]
    pub(crate) fn landing(mut self, landing: Landing) -> Self {
        self.args.recv_buf = Some(landing);
        self
    }

    /// Sets the remote buffer (turns a send into a put, a receive into a
    /// get — Table 1).
    #[inline]
    pub fn remote_buf(mut self, rkey: Rkey, offset: usize) -> Self {
        self.args.remote_buf = Some((rkey, offset));
        self
    }

    /// Sets the remote completion handle (turns a send into an active
    /// message, a put/get into its signalled variant — Table 1).
    #[inline]
    pub fn remote_comp(mut self, rcomp: RComp) -> Self {
        self.args.remote_comp = Some(rcomp);
        self
    }

    /// Sets the matching policy (the `.matching_policy(...)` optional
    /// argument of Listing 1).
    #[inline]
    pub fn matching_policy(mut self, policy: MatchingPolicy) -> Self {
        self.args.policy = policy;
        self
    }

    /// Addresses a specific device index on the target rank (defaults to
    /// the sending device's own index — the symmetric-allocation
    /// convention of DESIGN.md).
    #[inline]
    pub fn target_device(mut self, dev: DevId) -> Self {
        self.args.target_dev = Some(dev);
        self
    }

    /// Attaches an opaque user context returned in the completion
    /// descriptor.
    #[inline]
    pub fn user_ctx(mut self, ctx: u64) -> Self {
        self.args.user_ctx = ctx;
        self
    }

    /// Disallows the `retry` return value: on temporary resource
    /// exhaustion the request is parked in the backlog queue instead
    /// (paper §4.4), and the operation reports `posted`.
    #[inline]
    pub fn no_retry(mut self) -> Self {
        self.args.allow_retry = false;
        self
    }

    /// Opts this message in or out of sender-side coalescing (default:
    /// in). Only effective when the runtime enables coalescing
    /// ([`RuntimeConfig::coalesce`](crate::RuntimeConfig)); opting out
    /// forces an individual post and first flushes any sub-messages
    /// already buffered for the destination, preserving order.
    #[inline]
    pub fn allow_coalescing(mut self, allow: bool) -> Self {
        self.args.allow_coalescing = allow;
        self
    }

    /// Executes the post (the OFF `operator()`).
    #[inline]
    pub fn call(mut self) -> Result<PostResult> {
        self.device.post_comm(&mut self.args)
    }
}

/// OFF builder for the explicit progress function (paper §3.2.6 /
/// Listing 2 line 70: `lci::progress_x().device(device)()`).
#[must_use = "a builder does nothing until .call()"]
pub struct ProgressBuilder<'a> {
    device: &'a Device,
}

impl<'a> ProgressBuilder<'a> {
    /// Progresses `device` instead of the runtime default.
    pub fn device(mut self, device: &'a Device) -> Self {
        self.device = device;
        self
    }

    /// Executes one progress pass (the OFF `operator()`); returns
    /// whether any work was performed.
    pub fn call(self) -> Result<bool> {
        self.device.progress()
    }
}

impl Runtime {
    /// OFF variant of [`progress`](Runtime::progress).
    pub fn progress_x(&self) -> ProgressBuilder<'_> {
        ProgressBuilder { device: self.device() }
    }

    /// The generic posting operation in OFF form (paper §3.2.4).
    #[inline]
    pub fn post_comm_x(&self, direction: Direction, rank: Rank) -> CommBuilder<'_> {
        CommBuilder::new(self.device(), direction, rank)
    }

    /// Two-sided send (derived operation). `comp` is signaled on local
    /// completion unless the result is `done`.
    #[inline]
    pub fn post_send(
        &self,
        rank: Rank,
        buf: impl Into<SendBuf>,
        tag: Tag,
        comp: Comp,
    ) -> Result<PostResult> {
        self.post_send_x(rank, buf, tag, comp).call()
    }

    /// OFF variant of [`post_send`](Runtime::post_send).
    #[inline]
    pub fn post_send_x(
        &self,
        rank: Rank,
        buf: impl Into<SendBuf>,
        tag: Tag,
        comp: Comp,
    ) -> CommBuilder<'_> {
        let buf = buf.into();
        self.post_comm_x(Direction::Out, rank).send_buf(buf).tag(tag).comp(comp)
    }

    /// Two-sided receive into `buf` (derived operation).
    #[inline]
    pub fn post_recv(
        &self,
        rank: Rank,
        buf: impl Into<Box<[u8]>>,
        tag: Tag,
        comp: Comp,
    ) -> Result<PostResult> {
        self.post_recv_x(rank, buf, tag, comp).call()
    }

    /// OFF variant of [`post_recv`](Runtime::post_recv).
    #[inline]
    pub fn post_recv_x(
        &self,
        rank: Rank,
        buf: impl Into<Box<[u8]>>,
        tag: Tag,
        comp: Comp,
    ) -> CommBuilder<'_> {
        let buf = buf.into();
        self.post_comm_x(Direction::In, rank).recv_buf(buf).tag(tag).comp(comp)
    }

    /// Active message (derived operation): `scomp` is the source-side
    /// completion, `rcomp` the handle the target registered.
    #[inline]
    pub fn post_am(
        &self,
        rank: Rank,
        buf: impl Into<SendBuf>,
        scomp: Comp,
        rcomp: RComp,
    ) -> Result<PostResult> {
        self.post_am_x(rank, buf, scomp, rcomp).call()
    }

    /// OFF variant of [`post_am`](Runtime::post_am).
    #[inline]
    pub fn post_am_x(
        &self,
        rank: Rank,
        buf: impl Into<SendBuf>,
        scomp: Comp,
        rcomp: RComp,
    ) -> CommBuilder<'_> {
        let buf = buf.into();
        self.post_comm_x(Direction::Out, rank).send_buf(buf).comp(scomp).remote_comp(rcomp)
    }

    /// RMA put into the remote registered region (derived operation).
    #[inline]
    pub fn post_put(
        &self,
        rank: Rank,
        buf: impl Into<SendBuf>,
        rkey: Rkey,
        offset: usize,
        comp: Comp,
    ) -> Result<PostResult> {
        self.post_put_x(rank, buf, rkey, offset, comp).call()
    }

    /// OFF variant of [`post_put`](Runtime::post_put). Chain
    /// [`remote_comp`](CommBuilder::remote_comp) for put-with-signal.
    #[inline]
    pub fn post_put_x(
        &self,
        rank: Rank,
        buf: impl Into<SendBuf>,
        rkey: Rkey,
        offset: usize,
        comp: Comp,
    ) -> CommBuilder<'_> {
        let buf = buf.into();
        self.post_comm_x(Direction::Out, rank).send_buf(buf).remote_buf(rkey, offset).comp(comp)
    }

    /// RMA get from the remote registered region into `buf` (derived
    /// operation).
    #[inline]
    pub fn post_get(
        &self,
        rank: Rank,
        buf: impl Into<Box<[u8]>>,
        rkey: Rkey,
        offset: usize,
        comp: Comp,
    ) -> Result<PostResult> {
        self.post_get_x(rank, buf, rkey, offset, comp).call()
    }

    /// OFF variant of [`post_get`](Runtime::post_get). Chain
    /// [`remote_comp`](CommBuilder::remote_comp) for get-with-signal
    /// (supported by this reproduction's fabric; see `proto` docs).
    #[inline]
    pub fn post_get_x(
        &self,
        rank: Rank,
        buf: impl Into<Box<[u8]>>,
        rkey: Rkey,
        offset: usize,
        comp: Comp,
    ) -> CommBuilder<'_> {
        let buf = buf.into();
        self.post_comm_x(Direction::In, rank).recv_buf(buf).remote_buf(rkey, offset).comp(comp)
    }

    /// Registers memory on the default device (paper §3.3.1).
    pub fn register_memory(&self, buf: &[u8]) -> Result<lci_fabric::MemoryRegion> {
        self.device().register_memory(buf)
    }

    /// Deregisters a memory region. Deferred when the registration cache
    /// is enabled — see [`Device::deregister_memory`](crate::Device::deregister_memory).
    pub fn deregister_memory(&self, mr: &lci_fabric::MemoryRegion) -> Result<()> {
        self.device().deregister_memory(mr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompDesc, DataBuf, Fabric, FatalError, RuntimeConfig};

    const TAG: Tag = 9;

    /// Posts `b` as [`CommBuilder::call`] does, but hands back what the
    /// protocol left in the record instead of dropping it.
    fn post(b: CommBuilder<'_>) -> (Result<PostResult>, CommArgs) {
        let CommBuilder { device, mut args } = b;
        (device.post_comm(&mut args), args)
    }

    /// Two ranks on one simulated fabric, driven by the test's thread.
    fn pair() -> (Runtime, Runtime) {
        let fabric = Fabric::new(2);
        let cfg = RuntimeConfig { prepost: 2, ..RuntimeConfig::small() };
        (
            Runtime::new(fabric.clone(), 0, cfg.clone()).unwrap(),
            Runtime::new(fabric, 1, cfg).unwrap(),
        )
    }

    /// A pool packet holding `fill`: a send buffer whose every hand-back
    /// the pool's outstanding count sees.
    fn packet(rt: &Runtime, fill: u8) -> crate::Packet {
        let mut p = rt.packet_pool().get().unwrap();
        p.fill(&[fill; 8]);
        p
    }

    /// Progresses both ranks until `comp` yields one descriptor, then
    /// checks it yields no second.
    fn one_completion(rts: &(Runtime, Runtime), comp: &Comp) -> CompDesc {
        for _ in 0..10_000 {
            rts.0.progress().unwrap();
            rts.1.progress().unwrap();
            if let Some(desc) = comp.pop() {
                rts.0.progress().unwrap();
                rts.1.progress().unwrap();
                assert!(comp.pop().is_none(), "a second completion for one post");
                return desc;
            }
        }
        panic!("the post never completed");
    }

    /// `post_comm` borrows the caller's record, and each protocol takes
    /// out of it only what it keeps: a comp a protocol stores is gone from
    /// the record (no second handle rides the caller's frame), a comp it
    /// has no use for is still there, and once the operation is over and
    /// the record dropped the comp's handle count is back where it was.
    /// Each send buffer comes back exactly once — in the `Done`
    /// descriptor or the completion — or is dropped: a packet's pool count
    /// returns to its value before the post, never below it.
    #[test]
    fn a_post_takes_only_what_it_keeps() {
        let rts = pair();
        let (rt0, rt1) = (&rts.0, &rts.1);
        let comp = Comp::alloc_cq();
        let base = comp.handles();
        let pool = rt0.packet_pool();
        let out = pool.outstanding();

        // An eager send is `Done`: the packet comes back in the
        // descriptor, and the comp, never signalled, stays in the record.
        let (res, left) = post(rt0.post_send_x(1, packet(rt0, 1), TAG, comp.clone()));
        let Ok(PostResult::Done(desc)) = res else { panic!("an eager send is done") };
        assert!(left.send_buf.is_none() && left.comp.is_some());
        assert!(matches!(desc.data, DataBuf::SendBuf(SendBuf::Packet(_))));
        assert_eq!(pool.outstanding(), out + 1);
        drop((desc, left));
        assert_eq!((comp.handles(), pool.outstanding()), (base, out));
        rt1.progress().unwrap();
        let got = Comp::alloc_cq();
        assert!(matches!(
            rt1.post_recv(0, vec![0u8; 8], TAG, got.clone()),
            Ok(PostResult::Done(_))
        ));

        // A receive is `Posted`: the matching engine holds the comp and
        // the landing; the eager send that matches it signals it.
        let (res, left) = post(rt1.post_recv_x(0, vec![0u8; 8], TAG, comp.clone()));
        assert!(res.unwrap().is_posted());
        assert!(left.comp.is_none() && left.recv_buf.is_none());
        drop(left);
        assert_eq!(comp.handles(), base + 1);
        assert!(matches!(
            rt0.post_send(1, vec![2u8; 8], TAG, Comp::alloc_cq()),
            Ok(PostResult::Done(_))
        ));
        assert_eq!(one_completion(&rts, &comp).as_slice(), &[2u8; 8]);
        assert_eq!(comp.handles(), base);

        // A receive that meets its unexpected send is `Done` at the post:
        // it took the comp, and the descriptor is all that is left.
        assert!(matches!(
            rt0.post_send(1, vec![3u8; 8], TAG, Comp::alloc_cq()),
            Ok(PostResult::Done(_))
        ));
        rt1.progress().unwrap();
        let (res, left) = post(rt1.post_recv_x(0, vec![0u8; 8], TAG, comp.clone()));
        let Ok(PostResult::Done(desc)) = res else { panic!("an unexpected match is done") };
        assert_eq!(desc.as_slice(), &[3u8; 8]);
        assert!(left.comp.is_none() && left.recv_buf.is_none());
        assert_eq!(comp.handles(), base, "the matched receive dropped it");
        drop((desc, left));

        // Rank 1 keeps two receives posted: a third eager send finds none
        // and is `Retry`. Its packet is dropped, back in the pool once.
        for i in 0..2 {
            assert!(matches!(
                rt0.post_send(1, packet(rt0, i), TAG + 1, Comp::alloc_cq()),
                Ok(PostResult::Done(_))
            ));
        }
        let (res, left) = post(rt0.post_send_x(1, packet(rt0, 4), TAG + 1, comp.clone()));
        assert!(res.unwrap().is_retry());
        assert!(left.send_buf.is_none() && left.comp.is_some());
        drop(left);
        assert_eq!((comp.handles(), pool.outstanding()), (base, out));

        // Refused with no retry allowed, the same send parks in the
        // backlog, `Posted`: its context holds the comp and the packet
        // until the drain's post completes, and hands the packet back.
        let (res, left) =
            post(rt0.post_send_x(1, packet(rt0, 5), TAG + 1, comp.clone()).no_retry());
        assert!(res.unwrap().is_posted());
        assert!(left.send_buf.is_none() && left.comp.is_none());
        drop(left);
        assert_eq!(comp.handles(), base + 1);
        let desc = one_completion(&rts, &comp);
        assert!(matches!(desc.data, DataBuf::SendBuf(SendBuf::Packet(_))));
        drop(desc);
        assert_eq!((comp.handles(), pool.outstanding()), (base, out));
        for _ in 0..3 {
            assert!(!rt1.post_recv(0, vec![0u8; 8], TAG + 1, got.clone()).unwrap().is_retry());
        }

        // An invalid receive is an error, and whatever it named is freed
        // with the record or dropped: a receive with no comp, and one
        // with a remote completion (paper Table 1).
        let (res, left) = post(rt1.post_comm_x(Direction::In, 0).recv_buf(vec![0u8; 8]).tag(TAG));
        assert!(matches!(res, Err(FatalError::InvalidArg(_))));
        assert!(left.recv_buf.is_none(), "the landing was taken before the check");
        let invalid = rt1.post_recv_x(0, vec![0u8; 8], TAG, comp.clone()).remote_comp(1);
        let (res, left) = post(invalid);
        assert!(matches!(res, Err(FatalError::InvalidArg(_))));
        assert!(left.comp.is_some() && left.recv_buf.is_some());
        drop(left);
        assert_eq!(comp.handles(), base);

        // A rendezvous send is `Posted`: its table entry holds the comp
        // and the buffer, and the completion hands the buffer back.
        let big = vec![6u8; rt0.config().packet.payload_size + 1];
        let at = big.as_ptr();
        let (res, left) = post(rt0.post_send_x(1, big, TAG + 2, comp.clone()));
        assert!(res.unwrap().is_posted());
        assert!(left.send_buf.is_none() && left.comp.is_none());
        drop(left);
        assert_eq!(comp.handles(), base + 1);
        let landing = vec![0u8; rt0.config().packet.payload_size + 1];
        assert!(rt1.post_recv(0, landing, TAG + 2, got.clone()).unwrap().is_posted());
        let desc = one_completion(&rts, &comp);
        assert_eq!((desc.kind, desc.as_slice().as_ptr()), (crate::CompKind::Send, at));
        drop(desc);
        assert_eq!(comp.handles(), base);

        // A put is `Posted`: its context holds the comp and the buffer
        // until the write completes, and the completion hands it back.
        let window = vec![0u8; 64];
        let mr = rt1.register_memory(&window).unwrap();
        let src = vec![7u8; 64];
        let at = src.as_ptr();
        let (res, left) = post(rt0.post_put_x(1, src, mr.rkey, 0, comp.clone()));
        assert!(res.unwrap().is_posted());
        assert!(left.send_buf.is_none() && left.comp.is_none());
        drop(left);
        assert_eq!(comp.handles(), base + 1);
        let desc = one_completion(&rts, &comp);
        assert_eq!((desc.kind, desc.as_slice().as_ptr()), (crate::CompKind::Put, at));
        drop(desc);
        assert_eq!((comp.handles(), pool.outstanding()), (base, out));
    }
}
