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
    pub fn device(mut self, device: &'a Device) -> Self {
        self.device = device;
        self
    }

    /// Sets the message tag.
    pub fn tag(mut self, tag: Tag) -> Self {
        self.args.tag = tag;
        self
    }

    /// Sets the local completion object.
    pub fn comp(mut self, comp: Comp) -> Self {
        self.args.comp = Some(comp);
        self
    }

    /// Sets the local source buffer (OUT direction).
    pub fn send_buf(mut self, buf: impl Into<SendBuf>) -> Self {
        self.args.send_buf = Some(buf.into());
        self
    }

    /// Sets the local destination buffer (IN direction).
    pub fn recv_buf(self, buf: impl Into<Box<[u8]>>) -> Self {
        self.landing(Landing::Owned(buf.into()))
    }

    /// Sets where the receive lands (IN direction): what
    /// [`recv_buf`](Self::recv_buf) wraps, and how `lci::coll` posts a
    /// receive into lent memory.
    pub(crate) fn landing(mut self, landing: Landing) -> Self {
        self.args.recv_buf = Some(landing);
        self
    }

    /// Sets the remote buffer (turns a send into a put, a receive into a
    /// get — Table 1).
    pub fn remote_buf(mut self, rkey: Rkey, offset: usize) -> Self {
        self.args.remote_buf = Some((rkey, offset));
        self
    }

    /// Sets the remote completion handle (turns a send into an active
    /// message, a put/get into its signalled variant — Table 1).
    pub fn remote_comp(mut self, rcomp: RComp) -> Self {
        self.args.remote_comp = Some(rcomp);
        self
    }

    /// Sets the matching policy (the `.matching_policy(...)` optional
    /// argument of Listing 1).
    pub fn matching_policy(mut self, policy: MatchingPolicy) -> Self {
        self.args.policy = policy;
        self
    }

    /// Addresses a specific device index on the target rank (defaults to
    /// the sending device's own index — the symmetric-allocation
    /// convention of DESIGN.md).
    pub fn target_device(mut self, dev: DevId) -> Self {
        self.args.target_dev = Some(dev);
        self
    }

    /// Attaches an opaque user context returned in the completion
    /// descriptor.
    pub fn user_ctx(mut self, ctx: u64) -> Self {
        self.args.user_ctx = ctx;
        self
    }

    /// Disallows the `retry` return value: on temporary resource
    /// exhaustion the request is parked in the backlog queue instead
    /// (paper §4.4), and the operation reports `posted`.
    pub fn no_retry(mut self) -> Self {
        self.args.allow_retry = false;
        self
    }

    /// Opts this message in or out of sender-side coalescing (default:
    /// in). Only effective when the runtime enables coalescing
    /// ([`RuntimeConfig::coalesce`](crate::RuntimeConfig)); opting out
    /// forces an individual post and first flushes any sub-messages
    /// already buffered for the destination, preserving order.
    pub fn allow_coalescing(mut self, allow: bool) -> Self {
        self.args.allow_coalescing = allow;
        self
    }

    /// Executes the post (the OFF `operator()`).
    pub fn call(self) -> Result<PostResult> {
        self.device.post_comm(self.args)
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
    pub fn post_comm_x(&self, direction: Direction, rank: Rank) -> CommBuilder<'_> {
        CommBuilder::new(self.device(), direction, rank)
    }

    /// Two-sided send (derived operation). `comp` is signaled on local
    /// completion unless the result is `done`.
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
    pub fn post_send_x(
        &self,
        rank: Rank,
        buf: impl Into<SendBuf>,
        tag: Tag,
        comp: Comp,
    ) -> CommBuilder<'_> {
        self.post_comm_x(Direction::Out, rank).send_buf(buf).tag(tag).comp(comp)
    }

    /// Two-sided receive into `buf` (derived operation).
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
    pub fn post_recv_x(
        &self,
        rank: Rank,
        buf: impl Into<Box<[u8]>>,
        tag: Tag,
        comp: Comp,
    ) -> CommBuilder<'_> {
        self.post_comm_x(Direction::In, rank).recv_buf(buf).tag(tag).comp(comp)
    }

    /// Active message (derived operation): `scomp` is the source-side
    /// completion, `rcomp` the handle the target registered.
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
    pub fn post_am_x(
        &self,
        rank: Rank,
        buf: impl Into<SendBuf>,
        scomp: Comp,
        rcomp: RComp,
    ) -> CommBuilder<'_> {
        self.post_comm_x(Direction::Out, rank).send_buf(buf).comp(scomp).remote_comp(rcomp)
    }

    /// RMA put into the remote registered region (derived operation).
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
    pub fn post_put_x(
        &self,
        rank: Rank,
        buf: impl Into<SendBuf>,
        rkey: Rkey,
        offset: usize,
        comp: Comp,
    ) -> CommBuilder<'_> {
        self.post_comm_x(Direction::Out, rank).send_buf(buf).remote_buf(rkey, offset).comp(comp)
    }

    /// RMA get from the remote registered region into `buf` (derived
    /// operation).
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
    pub fn post_get_x(
        &self,
        rank: Rank,
        buf: impl Into<Box<[u8]>>,
        rkey: Rkey,
        offset: usize,
        comp: Comp,
    ) -> CommBuilder<'_> {
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
