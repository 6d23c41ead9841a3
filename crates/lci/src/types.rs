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
            SendBuf::Inline(inline_bytes(s), s.len() as u8)
        } else {
            SendBuf::Owned(s.into())
        }
    }
}

/// `s`, at most [`SENDBUF_INLINE_CAP`] bytes long, at the front of an
/// inline buffer and zeros after it, built from three little-endian
/// words read with fixed-size loads: nothing is zero-filled first and
/// no variable-length copy is called (small sends spent 2-3.5 % of
/// their time in the two).
#[inline]
fn inline_bytes(s: &[u8]) -> [u8; SENDBUF_INLINE_CAP] {
    let (whole, rest) = s.as_chunks::<8>();
    let mut words = whole.iter().map(|w| u64::from_le_bytes(*w)).chain([short_word(rest)]);
    let words: [u64; 3] = std::array::from_fn(|_| words.next().unwrap_or(0));
    std::array::from_fn(|i| words[i / 8].to_le_bytes()[i % 8])
}

/// Fewer than 8 bytes as a little-endian word, zeros above them, from
/// two overlapping loads of the first and the last 4 (or 2) bytes.
#[inline]
fn short_word(s: &[u8]) -> u64 {
    let n = s.len();
    if let (Some(lo), Some(hi)) = (s.first_chunk::<4>(), s.last_chunk::<4>()) {
        u64::from(u32::from_le_bytes(*lo)) | u64::from(u32::from_le_bytes(*hi)) << (8 * (n - 4))
    } else if let (Some(lo), Some(hi)) = (s.first_chunk::<2>(), s.last_chunk::<2>()) {
        u64::from(u16::from_le_bytes(*lo)) | u64::from(u16::from_le_bytes(*hi)) << (8 * (n - 2))
    } else {
        s.first().map_or(0, |&b| u64::from(b))
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
    /// The send buffer coming back to its owner on a send completion;
    /// and, on shm and tcp, a standalone (not coalesced) active message
    /// of at most [`SENDBUF_INLINE_CAP`] bytes, which the drain takes
    /// from the wire and copies into the descriptor as
    /// `SendBuf(SendBuf::Inline(..))`, with no packet to give back. One
    /// that landed in a receive slot (declined, or on the sims) arrives
    /// as [`DataBuf::Packet`].
    SendBuf(SendBuf),
    /// A receive that landed in memory a blocking collective lent
    /// (DESIGN.md §4.11 "Lending"): the delivered length and nothing to
    /// free. The bytes are at the lender's address, not here —
    /// `as_slice` is empty.
    #[doc(hidden)]
    Lent(usize),
}

/// The delivered bytes, wherever they live ([`DataBuf::as_slice`]): a
/// delivery can be read in place, with no copy into a `Vec`.
impl std::ops::Deref for DataBuf {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
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

    /// Address of the landing, for registration. No reference is
    /// formed: on a wire that writes directly the sender's thread is
    /// about to.
    pub(crate) fn as_ptr(&self) -> *const u8 {
        match self {
            Landing::Owned(b) => b.as_ptr(),
            Landing::Lent(l) => l.as_ptr(),
        }
    }

    /// The completion payload carrying the first `len` bytes landed
    /// here. A `Box` keeps its address when it moves, so a pointer taken
    /// with [`as_ptr`](Self::as_ptr) stays the landing's.
    pub(crate) fn into_databuf(self, len: usize) -> DataBuf {
        match self {
            Landing::Owned(b) => DataBuf::Partial(b, len),
            Landing::Lent(_) => DataBuf::Lent(len),
        }
    }
}

impl DataBuf {
    /// Byte view of the delivered data.
    #[inline]
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
    #[inline]
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

        // Every inline length, each byte distinct: the front holds `s`.
        for n in 0..=SENDBUF_INLINE_CAP {
            let src: Vec<u8> = (1..=n as u8).collect();
            let buf = SendBuf::from(src.as_slice());
            assert!(matches!(buf, SendBuf::Inline(..)), "{n} bytes");
            assert_eq!(buf.as_contiguous().unwrap(), &src[..], "{n} bytes");
        }

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
        assert_eq!(&d[1..], &[9u8; 3], "derefs to the delivered bytes");
        assert_eq!(d.into_vec(), vec![9u8; 4]);
    }

    #[test]
    fn compdesc_empty() {
        let d = CompDesc::empty();
        assert_eq!(d.kind, CompKind::Unknown);
        assert!(d.data.is_empty());
    }
}
