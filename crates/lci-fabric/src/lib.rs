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
//!   queue carries its own spinlock, one thread domain per queue pair,
//!   so posts to different targets never share a lock.
//! * [`DeviceConfig::ofi`] — mirrors the libfabric cxi/verbs provider
//!   analysis (§4.2.4): a single endpoint spinlock serializes
//!   `post_send`, `post_recv` and `poll_cq`, and memory registration goes
//!   through a mutex-protected registration cache.
//!
//! [`DeviceConfig::shm`] and [`DeviceConfig::tcp`] put a real wire (a
//! shared-memory segment, a socket mesh) under the same core and the ibv
//! layout.
//!
//! Data movement is performed with real `memcpy`s (into pre-posted
//! receives for messages, direct registered-memory copies for RDMA), so
//! per-message software overhead and bandwidth saturation behave like a
//! real memory-limited NIC path. Propagation delay is not modelled; the
//! paper's metrics (message rate, bandwidth) are overhead-dominated, not
//! latency-dominated.
//!
//! ## Model
//!
//! * A [`Fabric`] connects `nranks` ranks. Ranks live in the same process
//!   (threads), which is the substitution documented in DESIGN.md: all
//!   paper comparisons are *relative* between libraries running on the
//!   identical fabric.
//! * Each rank opens a [`NetContext`] and creates one or more network
//!   devices ([`NetDevice`]). A device owns a completion queue, a shared
//!   receive queue of pre-posted buffers, and per-target queue pairs.
//! * `post_send` copies the payload straight into the *target* device's
//!   oldest pre-posted receive buffer and stages its completion there
//!   (standing in for NIC DMA). A message that finds no receive posted
//!   is refused, with nothing sent.
//! * `post_write`/`post_read` copy directly between local memory and
//!   remote *registered* memory (see [`mem`]), optionally consuming a
//!   pre-posted receive at the target to deliver an immediate-data
//!   notification — exactly like `IBV_WR_RDMA_WRITE_WITH_IMM`.
//! * Backpressure: a target with no pre-posted receive, or a full wire
//!   toward it, surfaces as [`RetryReason::RxFull`] (an RC transport's
//!   receiver-not-ready, RNR), which the LCI layer translates into its
//!   `retry` status or retries from its backlog. On a wire with buffers
//!   of its own (shm rings, tcp streams) a frame that finds no receive
//!   waits at the head of its channel until the target replenishes its
//!   queue.

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

pub use backend::{BackendKind, DeviceConfig, NetContext, NetDevice, TransportStats};
pub use buf_pool::{BufPool, BufPoolConfig, BufPoolStats, PoolBuf};
pub use fabric::Fabric;
pub use mem::{MemoryRegion, Rkey};
pub use reg_cache::RegCacheStats;
pub use sync::Doorbell;
pub use types::{Cqe, CqeKind, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason};
