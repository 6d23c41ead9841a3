//! Common identifier, descriptor, and error types for the fabric layer.

/// A process-like endpoint of the fabric. The paper runs one OS process
/// per rank; this reproduction runs ranks as threads of one process (see
/// DESIGN.md), so a `Rank` is just an index into the fabric.
pub type Rank = usize;

/// Index of a network device within a rank. Devices are created in the
/// same order on every rank in all our workloads, so `(rank, DevId)`
/// addresses a unique queue-pair peer, like a connected RC queue pair.
pub type DevId = usize;

/// Why an operation could not be carried out *right now*.
///
/// The LCI runtime maps these to its user-visible `retry` status category
/// (paper §3.2.5); baselines typically spin instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryReason {
    /// The target is not ready to receive: no receive is posted at the
    /// target device, or the wire toward it is full (receiver-not-ready
    /// backpressure, which the poster retries).
    RxFull,
    /// A trylock-wrapped lower-level lock was busy (paper §4.2.2).
    LockBusy,
    /// The local packet/buffer pool had nothing to hand out.
    NoPacket,
    /// Too many operations outstanding (send-queue depth exhausted).
    QueueFull,
    /// The target device does not exist (yet); resources may still be
    /// bootstrapping.
    PeerNotReady,
}

impl std::fmt::Display for RetryReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RetryReason::RxFull => "target not ready to receive",
            RetryReason::LockBusy => "lower-level lock busy",
            RetryReason::NoPacket => "no packet available",
            RetryReason::QueueFull => "send queue full",
            RetryReason::PeerNotReady => "peer device not ready",
        };
        f.write_str(s)
    }
}

/// Fabric-layer errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The operation should be resubmitted later.
    Retry(RetryReason),
    /// The operation failed permanently (bad rank, bad rkey, out-of-bounds
    /// RDMA, device closed, ...).
    Fatal(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Retry(r) => write!(f, "retry: {r}"),
            NetError::Fatal(m) => write!(f, "fatal network error: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Result alias for fabric operations.
pub type NetResult<T> = Result<T, NetError>;

impl NetError {
    /// Convenience constructor for fatal errors.
    pub fn fatal(msg: impl Into<String>) -> Self {
        NetError::Fatal(msg.into())
    }

    /// Whether this error is retryable.
    pub fn is_retry(&self) -> bool {
        matches!(self, NetError::Retry(_))
    }
}

/// What a frame landing in a target device's posted receive is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireMsgKind {
    /// A two-sided send; consumes a pre-posted receive at the target.
    Send,
    /// RDMA-write-with-immediate notification; consumes a pre-posted
    /// receive at the target but carries no payload (data was written
    /// directly into registered memory).
    WriteImm,
}

/// Completion-queue entry kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeKind {
    /// A `post_send` finished; the send buffer may be reused.
    SendDone,
    /// A pre-posted receive was filled by an incoming send.
    RecvDone,
    /// An RDMA write finished locally.
    WriteDone,
    /// An RDMA read finished locally; the local buffer is filled.
    ReadDone,
    /// A pre-posted receive was consumed by an incoming
    /// RDMA-write-with-immediate (carries `imm`, zero-length data).
    WriteImmRecv,
}

/// A completion-queue entry returned by `poll_cq`.
#[derive(Clone, Debug)]
pub struct Cqe {
    /// What completed.
    pub kind: CqeKind,
    /// Opaque user context supplied at post time (for local completions)
    /// or at receive-post time (for receive completions).
    pub ctx: u64,
    /// Immediate data (receive-side entries).
    pub imm: u64,
    /// Number of bytes delivered (receive-side entries).
    pub len: usize,
    /// Source rank (receive-side entries).
    pub src_rank: Rank,
    /// Source device (receive-side entries).
    pub src_dev: DevId,
}

impl Cqe {
    /// Builds a local (send/write/read) completion.
    pub fn local(kind: CqeKind, ctx: u64) -> Self {
        Cqe { kind, ctx, imm: 0, len: 0, src_rank: usize::MAX, src_dev: usize::MAX }
    }
}

/// Descriptor of a pre-posted receive buffer handed to the device.
///
/// The memory is owned by the upper layer (an LCI packet, a baseline's
/// staging buffer, ...) and must stay valid until the matching `RecvDone`
/// completion is polled — the same contract as `ibv_post_srq_recv`.
#[derive(Clone, Copy, Debug)]
pub struct RecvBufDesc {
    /// Base address of the writable region.
    pub ptr: *mut u8,
    /// Capacity in bytes.
    pub len: usize,
    /// Opaque context returned in the completion.
    pub ctx: u64,
}

// SAFETY: the descriptor is an address + promise; the upper layer
// guarantees the pointed-to region outlives the posted receive and is not
// accessed concurrently while posted (documented contract, as in verbs).
unsafe impl Send for RecvBufDesc {}

impl RecvBufDesc {
    /// Creates a descriptor for a raw region.
    ///
    /// # Safety
    /// `ptr..ptr+len` must be valid for writes until the receive
    /// completion for this descriptor is polled, and must not be read or
    /// written by the application in that window.
    pub unsafe fn new(ptr: *mut u8, len: usize, ctx: u64) -> Self {
        RecvBufDesc { ptr, len, ctx }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neterror_display_and_retry() {
        let e = NetError::Retry(RetryReason::RxFull);
        assert!(e.is_retry());
        assert!(e.to_string().contains("not ready to receive"));
        let f = NetError::fatal("boom");
        assert!(!f.is_retry());
        assert!(f.to_string().contains("boom"));
    }
}
