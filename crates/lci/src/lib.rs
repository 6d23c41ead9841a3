//! # LCI — a Lightweight Communication Interface (Rust reproduction)
//!
//! A from-scratch Rust implementation of the communication library
//! presented in *"LCI: a Lightweight Communication Interface for
//! Efficient Asynchronous Multithreaded Communication"* (SC 2025).
//!
//! LCI provides a concise interface supporting all common point-to-point
//! primitives — send/receive, active messages, RMA put/get (with or
//! without notification) — and diverse completion mechanisms
//! (synchronizers, completion queues, handlers, completion graphs), on
//! top of a threading-efficient runtime built from atomic data
//! structures, fine-grained non-blocking locks, and low-level network
//! insight.
//!
//! This reproduction runs on [`lci_fabric`], an in-process simulated RDMA
//! fabric whose two backends mirror the lock granularity of libibverbs
//! and libfabric (see DESIGN.md for the substitution argument).
//!
//! ## Quick start
//!
//! ```
//! use lci_fabric::Fabric;
//! use lci::{Comp, PostResult, Runtime};
//!
//! // Two ranks in one process (threads).
//! let fabric = Fabric::new(2);
//! let f2 = fabric.clone();
//! let peer = std::thread::spawn(move || {
//!     let rt = Runtime::with_defaults(f2, 1).unwrap();
//!     let cq = Comp::alloc_cq();
//!     rt.post_recv(0, vec![0u8; 64], 7, cq.clone()).unwrap();
//!     loop {
//!         rt.progress().unwrap();
//!         if let Some(desc) = cq.pop() {
//!             assert_eq!(desc.as_slice(), b"hello from rank 0");
//!             break;
//!         }
//!     }
//! });
//!
//! let rt = Runtime::with_defaults(fabric, 0).unwrap();
//! let scomp = Comp::alloc_sync(1);
//! // Retry covers transient shortages — including the peer's device
//! // still bootstrapping.
//! let ret = loop {
//!     match rt.post_send(1, b"hello from rank 0".as_slice(), 7, scomp.clone()).unwrap() {
//!         PostResult::Retry(_) => rt.progress().map(|_| ()).unwrap(),
//!         other => break other,
//!     }
//! };
//! if ret.is_posted() {
//!     scomp.as_sync().unwrap().wait_with(|| {
//!         rt.progress().unwrap();
//!     });
//! }
//! peer.join().unwrap();
//! ```
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1 OFF idiom | [`post`] |
//! | §3.2.2 runtime | [`runtime`] |
//! | §3.2.3 resources | [`device`], [`packet_pool`], [`matching`] |
//! | §3.2.4 posting, Table 1 | [`post`] |
//! | §3.2.5 statuses & completion | [`error`], [`comp`] |
//! | §3.2.6 progress, Figure 1 | [`device`] (dispatcher: post routing, progress loop, backlog drain) |
//! | §3.3.2 matching semantics | [`matching`] |
//! | §4.1.1 MPMC array | [`lci_fabric::sync`] (re-exported) |
//! | §4.1.2 packet pool | [`packet_pool`] |
//! | §4.1.3 matching engine | [`matching`] |
//! | §4.1.4 completion objects | [`comp`] |
//! | §4.1.5 backlog queue | `backlog` (internal) |
//! | §4.2 network backends | [`lci_fabric`] |
//! | §4.3 protocols | [`proto`] (wire format); `device::eager`, `device::rdv`, `device::rma` (one internal module per protocol) |
//! | §6 collectives | [`coll`] (chunk-pipelined) |

mod backlog;
pub mod coalesce;
pub mod coll;
pub mod comp;
mod ctx_pool;
pub mod device;
pub mod error;
pub mod matching;
pub mod packet_pool;
pub mod post;
pub mod proto;
pub mod runtime;
pub mod stats;
pub mod types;
mod util;

pub use coalesce::CoalesceConfig;
pub use coll::{FnOpU64, IColl, MaxF32, MaxU64, ReduceOp, SumF32, SumU64};
pub use comp::graph::{Graph, GraphBuilder, NodeId, NodeOp};
pub use comp::queue::{CompQueue, CqConfig, CqImpl};
pub use comp::sync_obj::Synchronizer;
pub use comp::Comp;
pub use device::{Device, DeviceAttr};
pub use error::{FatalError, PostResult, Result, RetryReason};
pub use matching::{MatchKind, MatchingConfig, MatchingEngine};
pub use packet_pool::{Packet, PacketPool, PacketPoolConfig, PacketView, SharedPacket};
pub use post::CommBuilder;
pub use runtime::{Placement, Runtime, RuntimeConfig};
pub use stats::{DeviceStats, StatsSnapshot};
pub use types::{
    CompDesc, CompKind, DataBuf, Direction, MatchingPolicy, RComp, Rank, SendBuf, Tag,
};

// Re-export the fabric handle types users need for setup.
pub use lci_fabric::topology;
pub use lci_fabric::{
    BackendKind, BufPool, BufPoolConfig, BufPoolStats, DeviceConfig, Fabric, MemoryRegion, PoolBuf,
    Rkey, TdStrategy,
};

/// Commonly used items.
pub mod prelude {
    pub use crate::comp::Comp;
    pub use crate::device::Device;
    pub use crate::error::{PostResult, Result};
    pub use crate::runtime::{Runtime, RuntimeConfig};
    pub use crate::types::{CompDesc, CompKind, Direction, MatchingPolicy};
    pub use lci_fabric::Fabric;
}
