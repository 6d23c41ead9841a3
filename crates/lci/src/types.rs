//! Core value types of the LCI interface.

use crate::coll::lend::Lent;
use crate::packet_pool::{Packet, PacketView};

/// Process index (see DESIGN.md: ranks are threads of one process in this
/// reproduction).
pub type Rank = usize;

/// Message tag. LCI matches by `(matching engine, source rank, tag)` by
/// default (§3.3.2).
pub type Tag = u32;

/// Remote completion handle: a small integer the *target* rank registered
/// with [`Runtime::register_rcomp`](crate::runtime::Runtime::register_rcomp)
/// and the source passes when posting active messages or signalled RMA.
pub type RComp = u32;

/// Matching policy (§3.3.2): how the matching key is formed from
/// `(rank, tag)`. The sender and receiver of a message must use the same
/// policy — the paper's "restricted wildcard" semantics, where a sender
/// must know its message will be matched by a wildcard receive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MatchingPolicy {
    /// Match on both source rank and tag (default).
    #[default]
    RankTag,
    /// Match on source rank only (tag wildcard).
    RankOnly,
    /// Match on tag only (source wildcard).
    TagOnly,
    /// Match on nothing (any send matches any receive on the engine).
    None,
}

impl MatchingPolicy {
    /// Compact 2-bit encoding carried in the wire header.
    pub fn encode(self) -> u8 {
        match self {
            MatchingPolicy::RankTag => 0,
            MatchingPolicy::RankOnly => 1,
            MatchingPolicy::TagOnly => 2,
            MatchingPolicy::None => 3,
        }
    }

    /// Inverse of [`encode`](Self::encode).
    pub fn decode(v: u8) -> Self {
        match v & 0b11 {
            0 => MatchingPolicy::RankTag,
            1 => MatchingPolicy::RankOnly,
            2 => MatchingPolicy::TagOnly,
            _ => MatchingPolicy::None,
        }
    }
}

/// Direction of a generic [`post_comm`](crate::post::CommBuilder)
/// operation (paper Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Data flows out of the local buffer (send / am / put).
    Out,
    /// Data flows into the local buffer (recv / get).
    In,
}

/// Payload handed to a send-like operation.
///
/// The Rust port replaces the paper's raw `void*` + completion-frees-it
/// convention with owned buffers: the buffer travels with the operation
/// and comes back in the completion descriptor, where the user can reuse
/// or drop it.
/// Payloads at most this long borrowed as `&[u8]` are stored inline in
/// the [`SendBuf`] itself — no heap allocation on the small-send fast
/// path.
pub const SENDBUF_INLINE_CAP: usize = 24;

#[derive(Debug)]
pub enum SendBuf {
    /// A small payload stored inline (no allocation).
    Inline([u8; SENDBUF_INLINE_CAP], u8),
    /// An owned heap buffer (zero-copy for rendezvous-size messages).
    Owned(Box<[u8]>),
    /// An explicitly-assembled packet (§3.3.1): saves the staging copy of
    /// the buffer-copy protocol.
    Packet(Packet),
    /// A list of owned buffers transmitted as one message (§3.3.1,
    /// "transmitting a list of source and target buffers").
    Iovec(Vec<Box<[u8]>>),
    /// A pool-recycled staging buffer: its storage returns to the
    /// buffer pool when the completion descriptor carrying it back is
    /// dropped, so steady-state senders (collectives staging per-round
    /// payloads) allocate nothing.
    Pooled(lci_fabric::PoolBuf),
    /// The caller's own memory, lent by a blocking collective for the
    /// length of its call (DESIGN.md §4.11 "Lending"). Only
    /// `lci::coll` can make one.
    #[doc(hidden)]
    Lent(Lent),
}

impl SendBuf {
    /// Total payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            SendBuf::Inline(_, len) => *len as usize,
            SendBuf::Owned(b) => b.len(),
            SendBuf::Packet(p) => p.len(),
            SendBuf::Iovec(v) => v.iter().map(|b| b.len()).sum(),
            SendBuf::Pooled(b) => b.len(),
            SendBuf::Lent(l) => l.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A contiguous view when one exists without copying.
    pub fn as_contiguous(&self) -> Option<&[u8]> {
        match self {
            SendBuf::Inline(b, len) => Some(&b[..*len as usize]),
            SendBuf::Owned(b) => Some(b),
            // Only the filled prefix of a packet is message payload.
            SendBuf::Packet(p) => Some(&p.as_slice()[..p.len()]),
            SendBuf::Iovec(v) if v.len() == 1 => Some(&v[0]),
            SendBuf::Iovec(_) => None,
            SendBuf::Pooled(b) => Some(b),
            SendBuf::Lent(l) => Some(l.as_slice()),
        }
    }

    /// Flattens to contiguous bytes, copying only if an iovec has
    /// multiple segments.
    pub fn flatten(&self) -> Vec<u8> {
        match self.as_contiguous() {
            Some(s) => s.to_vec(),
            None => match self {
                SendBuf::Iovec(v) => {
                    let mut out = Vec::with_capacity(self.len());
                    for seg in v {
                        out.extend_from_slice(seg);
                    }
                    out
                }
                _ => unreachable!(),
            },
        }
    }
}

impl From<Vec<u8>> for SendBuf {
    fn from(v: Vec<u8>) -> Self {
        SendBuf::Owned(v.into_boxed_slice())
    }
}

impl From<Box<[u8]>> for SendBuf {
    fn from(b: Box<[u8]>) -> Self {
        SendBuf::Owned(b)
    }
}

impl From<&[u8]> for SendBuf {
    fn from(s: &[u8]) -> Self {
        if s.len() <= SENDBUF_INLINE_CAP {
            let mut buf = [0u8; SENDBUF_INLINE_CAP];
            buf[..s.len()].copy_from_slice(s);
            SendBuf::Inline(buf, s.len() as u8)
        } else {
            SendBuf::Owned(s.into())
        }
    }
}

impl From<Packet> for SendBuf {
    fn from(p: Packet) -> Self {
        SendBuf::Packet(p)
    }
}

impl From<Vec<Box<[u8]>>> for SendBuf {
    fn from(v: Vec<Box<[u8]>>) -> Self {
        SendBuf::Iovec(v)
    }
}

impl From<lci_fabric::PoolBuf> for SendBuf {
    fn from(b: lci_fabric::PoolBuf) -> Self {
        SendBuf::Pooled(b)
    }
}

/// Data delivered by a completed operation.
#[derive(Debug, Default)]
pub enum DataBuf {
    /// No data (e.g. a put-with-signal notification).
    #[default]
    Empty,
    /// An owned heap buffer.
    Owned(Box<[u8]>),
    /// Data delivered in an LCI packet (§3.3.1); returning the packet to
    /// the pool happens automatically when this is dropped.
    Packet(Packet, usize),
    /// A zero-copy view of a shared packet (one coalesced frame backs
    /// many sub-message views); the packet slot returns to the pool when
    /// the last view drops.
    View(PacketView),
    /// An owned buffer of which only the first `len` bytes are message
    /// data (zero-copy receives into a larger posted buffer).
    Partial(Box<[u8]>, usize),
    /// A pool-recycled buffer of which only the first `len` bytes are
    /// message data (unexpected AM rendezvous bounce buffers); its
    /// storage returns to the buffer pool when this is dropped.
    Pooled(lci_fabric::PoolBuf, usize),
    /// The send buffer coming back to its owner on a send completion.
    SendBuf(SendBuf),
    /// A receive that landed in memory a blocking collective lent
    /// (DESIGN.md §4.11 "Lending"): the delivered length and nothing to
    /// free. The bytes are at the lender's address, not here —
    /// `as_slice` is empty.
    #[doc(hidden)]
    Lent(usize),
}

/// Where a posted receive lands: the buffer the user handed over with
/// the post, or caller memory lent by a blocking collective.
pub(crate) enum Landing {
    Owned(Box<[u8]>),
    Lent(Lent),
}

impl Landing {
    pub(crate) fn len(&self) -> usize {
        match self {
            Landing::Owned(b) => b.len(),
            Landing::Lent(l) => l.len(),
        }
    }
}

impl DataBuf {
    /// Byte view of the delivered data.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            DataBuf::Empty => &[],
            DataBuf::Owned(b) => b,
            DataBuf::Packet(p, len) => &p.as_slice()[..*len],
            DataBuf::View(v) => v.as_slice(),
            DataBuf::Partial(b, len) => &b[..*len],
            DataBuf::Pooled(b, len) => &b[..*len],
            DataBuf::SendBuf(s) => s.as_contiguous().unwrap_or(&[]),
            DataBuf::Lent(_) => &[],
        }
    }

    /// Length of the delivered data.
    pub fn len(&self) -> usize {
        match self {
            DataBuf::Empty => 0,
            DataBuf::Owned(b) => b.len(),
            DataBuf::Packet(_, len) => *len,
            DataBuf::View(v) => v.len(),
            DataBuf::Partial(_, len) => *len,
            DataBuf::Pooled(_, len) => *len,
            DataBuf::SendBuf(s) => s.len(),
            DataBuf::Lent(len) => *len,
        }
    }

    /// Whether there is no data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the data out into a `Vec` (packets return to the pool).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            DataBuf::Empty => Vec::new(),
            DataBuf::Owned(b) => b.into_vec(),
            DataBuf::Packet(p, len) => p.as_slice()[..len].to_vec(),
            DataBuf::View(v) => v.as_slice().to_vec(),
            DataBuf::Partial(b, len) => {
                let mut v = b.into_vec();
                v.truncate(len);
                v
            }
            DataBuf::Pooled(b, len) => b[..len].to_vec(),
            DataBuf::SendBuf(s) => s.flatten(),
            DataBuf::Lent(_) => Vec::new(),
        }
    }
}

/// What kind of operation a completion descriptor reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CompKind {
    /// Unspecified (empty descriptors).
    #[default]
    Unknown,
    /// A send completed locally.
    Send,
    /// A receive matched and delivered.
    Recv,
    /// An active message arrived.
    Am,
    /// An RMA put completed locally.
    Put,
    /// An RMA get completed locally.
    Get,
    /// A remote-signal notification arrived (put/get with signal).
    RemoteSignal,
    /// A completion-graph node finished.
    GraphNode,
}

/// The completion descriptor (the paper's `status_t`): delivered to a
/// completion object when an operation completes, or returned directly
/// for `done`-category operations.
#[derive(Debug, Default)]
pub struct CompDesc {
    /// The peer rank (source for receives, target for sends).
    pub rank: Rank,
    /// The message tag.
    pub tag: Tag,
    /// Delivered data (receives/AMs) or the returned send buffer.
    pub data: DataBuf,
    /// Opaque user context attached at post time.
    pub user_ctx: u64,
    /// What completed.
    pub kind: CompKind,
}

impl CompDesc {
    /// An empty descriptor (for `done` results with nothing to report).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Convenience: borrow the delivered bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.data.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_policy_roundtrip() {
        for p in [
            MatchingPolicy::RankTag,
            MatchingPolicy::RankOnly,
            MatchingPolicy::TagOnly,
            MatchingPolicy::None,
        ] {
            assert_eq!(MatchingPolicy::decode(p.encode()), p);
        }
    }

    #[test]
    fn sendbuf_conversions_and_len() {
        let s: SendBuf = vec![1u8, 2, 3].into();
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_contiguous().unwrap(), &[1, 2, 3]);

        let small: SendBuf = [7u8; 8].as_slice().into();
        assert!(matches!(small, SendBuf::Inline(..)), "small slices must not allocate");
        assert_eq!(small.len(), 8);
        assert_eq!(small.as_contiguous().unwrap(), &[7u8; 8]);

        let big: SendBuf = [7u8; SENDBUF_INLINE_CAP + 1].as_slice().into();
        assert!(matches!(big, SendBuf::Owned(_)));
        assert_eq!(big.len(), SENDBUF_INLINE_CAP + 1);

        let iov: SendBuf =
            vec![vec![1u8].into_boxed_slice(), vec![2u8, 3].into_boxed_slice()].into();
        assert_eq!(iov.len(), 3);
        assert!(iov.as_contiguous().is_none());
        assert_eq!(iov.flatten(), vec![1, 2, 3]);
    }

    #[test]
    fn databuf_owned_roundtrip() {
        let d = DataBuf::Owned(vec![9u8; 4].into_boxed_slice());
        assert_eq!(d.len(), 4);
        assert_eq!(d.as_slice(), &[9u8; 4]);
        assert_eq!(d.into_vec(), vec![9u8; 4]);
    }

    #[test]
    fn compdesc_empty() {
        let d = CompDesc::empty();
        assert_eq!(d.kind, CompKind::Unknown);
        assert!(d.data.is_empty());
    }
}
