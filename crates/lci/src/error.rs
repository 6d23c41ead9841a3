//! Operation return values (paper §3.2.5).
//!
//! An LCI communication posting operation returns a status in one of four
//! categories:
//!
//! * **done** — completed immediately; the completion object will *not*
//!   be signaled, and the returned descriptor carries valid information;
//! * **posted** — accepted; the completion object will be signaled later;
//! * **retry** — temporary resource unavailability; resubmit (the extra
//!   category that lets clients do something useful — poll other queues,
//!   aggregate — instead of blocking);
//! * **fatal error** — reported through `Result::Err`, the Rust analog of
//!   the paper's C++ exceptions.

use crate::types::CompDesc;

/// Why an operation must be resubmitted (the `retry` category's error
/// codes, telling the client *which* resource was unavailable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryReason {
    /// A lower-level network lock was busy (trylock wrapper, §4.2.2).
    LockBusy,
    /// The target is not ready to receive: no receive posted there, or
    /// the wire toward it full (flow control).
    RxFull,
    /// The packet pool could not supply a packet.
    NoPacket,
    /// The backlog queue is full (when retries are disallowed).
    BacklogFull,
    /// The peer's device is not created yet.
    PeerNotReady,
    /// A completion queue with bounded capacity was full.
    CqFull,
}

impl From<lci_fabric::RetryReason> for RetryReason {
    fn from(r: lci_fabric::RetryReason) -> Self {
        match r {
            lci_fabric::RetryReason::RxFull => RetryReason::RxFull,
            lci_fabric::RetryReason::LockBusy => RetryReason::LockBusy,
            lci_fabric::RetryReason::NoPacket => RetryReason::NoPacket,
            lci_fabric::RetryReason::QueueFull => RetryReason::RxFull,
            lci_fabric::RetryReason::PeerNotReady => RetryReason::PeerNotReady,
        }
    }
}

/// Fatal errors (the paper reports these via C++ exceptions).
#[derive(Clone, Debug)]
pub enum FatalError {
    /// The fabric reported an unrecoverable error.
    Net(String),
    /// Invalid arguments (e.g. the invalid Table-1 combination:
    /// direction IN + no remote buffer + remote completion).
    InvalidArg(String),
    /// The requested feature is not supported by this build/backend.
    NotSupported(String),
}

impl std::fmt::Display for FatalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FatalError::Net(m) => write!(f, "network error: {m}"),
            FatalError::InvalidArg(m) => write!(f, "invalid argument: {m}"),
            FatalError::NotSupported(m) => write!(f, "not supported: {m}"),
        }
    }
}

impl std::error::Error for FatalError {}

/// Result alias for LCI operations.
pub type Result<T> = std::result::Result<T, FatalError>;

/// The status of a posting operation (paper §3.2.5).
#[derive(Debug)]
pub enum PostResult {
    /// Completed immediately; the descriptor is valid and the completion
    /// object will not be signaled.
    Done(CompDesc),
    /// Accepted; completion will be signaled through the completion
    /// object.
    Posted,
    /// Temporarily out of resources; resubmit later.
    Retry(RetryReason),
}

impl PostResult {
    /// Whether the operation completed immediately.
    pub fn is_done(&self) -> bool {
        matches!(self, PostResult::Done(_))
    }

    /// Whether the operation was posted for asynchronous completion.
    pub fn is_posted(&self) -> bool {
        matches!(self, PostResult::Posted)
    }

    /// Whether the operation must be resubmitted.
    pub fn is_retry(&self) -> bool {
        matches!(self, PostResult::Retry(_))
    }

    /// Extracts the completion descriptor of a `Done` result.
    pub fn into_done(self) -> Option<CompDesc> {
        match self {
            PostResult::Done(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postresult_categories() {
        assert!(PostResult::Posted.is_posted());
        assert!(PostResult::Retry(RetryReason::NoPacket).is_retry());
        assert!(PostResult::Done(CompDesc::empty()).is_done());
        assert!(!PostResult::Posted.is_done());
        assert!(PostResult::Posted.into_done().is_none());
    }

    #[test]
    fn retry_reason_from_fabric() {
        assert_eq!(RetryReason::from(lci_fabric::RetryReason::LockBusy), RetryReason::LockBusy);
        assert_eq!(RetryReason::from(lci_fabric::RetryReason::RxFull), RetryReason::RxFull);
    }
}
