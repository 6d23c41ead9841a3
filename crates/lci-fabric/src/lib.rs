//! # lci-fabric — an in-process simulated RDMA fabric
//!
//! This crate is the *network substrate* for the Rust reproduction of
//! "LCI: a Lightweight Communication Interface for Efficient Asynchronous
//! Multithreaded Communication" (SC 2025).
//!
//! The paper evaluates LCI on InfiniBand (through libibverbs) and
//! Slingshot-11 (through libfabric). Neither the hardware nor mature Rust
//! bindings are available here, so this crate provides a faithful
//! *behavioural* substitute: an in-process fabric connecting N ranks, and
//! one device core ([`NetDevice`] has a single implementor) under which a
//! backend is a wire plus a lock layout. Two simulated providers share
//! the in-memory wire and expose exactly the lock granularities the paper
//! analyses in §4.2:
//!
//! * [`DeviceConfig::ibv`] — mirrors the libibverbs/mlx5 analysis
//!   (§4.2.3): every queue pair, completion queue and shared receive
//!   queue carries its own spinlock; *thread-domain* strategies
//!   (`per_qp`, `all_qp`, `none`) control how queue pairs share their
//!   posting locks.
//! * [`DeviceConfig::ofi`] — mirrors the libfabric cxi/verbs provider
//!   analysis (§4.2.4): a single endpoint spinlock serializes
//!   `post_send`, `post_recv` and `poll_cq`, and memory registration goes
//!   through a mutex-protected registration cache.
//!
//! [`DeviceConfig::shm`] and [`DeviceConfig::tcp`] put a real wire (a
//! shared-memory segment, a socket mesh) under the same core and the ibv
//! layout.
//!
//! Data movement is performed with real `memcpy`s (inline for tiny
//! messages, heap-staged for eager messages, direct registered-memory
//! copies for RDMA), so per-message software overhead and bandwidth
//! saturation behave like a real memory-limited NIC path. Propagation
//! delay is not modelled; the paper's metrics (message rate, bandwidth)
//! are overhead-dominated, not latency-dominated.
//!
//! ## Model
//!
//! * A [`Fabric`] connects `nranks` ranks. Ranks live in the same process
//!   (threads), which is the substitution documented in DESIGN.md: all
//!   paper comparisons are *relative* between libraries running on the
//!   identical fabric.
//! * Each rank opens a [`NetContext`] and creates one or more network
//!   devices ([`NetDevice`]). A device owns an RX ring (the "wire" into
//!   it), a completion queue, a shared receive queue of pre-posted
//!   buffers, and per-target queue pairs.
//! * `post_send` stages the payload and pushes it onto the *target*
//!   device's RX ring; the copy into the pre-posted receive buffer happens
//!   on the target side during `poll_cq` (standing in for NIC DMA).
//! * `post_write`/`post_read` copy directly between local memory and
//!   remote *registered* memory (see [`mem`]), optionally consuming a
//!   pre-posted receive at the target to deliver an immediate-data
//!   notification — exactly like `IBV_WR_RDMA_WRITE_WITH_IMM`.
//! * Backpressure: the RX ring is bounded; a full ring surfaces as
//!   [`RetryReason::RxFull`], which the LCI layer translates into its
//!   `retry` status. A message whose target has no pre-posted receive
//!   stays in the ring until the target replenishes its queue
//!   (receiver-not-ready, RNR, behaviour).

pub mod backend;
pub mod bootstrap;
pub mod buf_pool;
mod dev_shared;
pub mod fabric;
mod framed;
pub mod mem;
pub mod reg_cache;
pub mod shm;
mod sim;
pub mod sync;
pub mod tcp;
pub mod topology;
pub mod types;

pub use backend::{
    BackendKind, DeviceConfig, NetContext, NetDevice, SendDesc, TdStrategy, TransportStats,
};
pub use buf_pool::{BufPool, BufPoolConfig, BufPoolStats, PoolBuf};
pub use fabric::Fabric;
pub use mem::{MemoryRegion, Rkey};
pub use reg_cache::{RegCache, RegCacheConfig, RegCacheStats};
pub use sync::Doorbell;
pub use types::{Cqe, CqeKind, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason};
