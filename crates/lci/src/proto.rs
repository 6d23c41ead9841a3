//! Communication protocols (paper §4.3) and wire-header encoding.
//!
//! For send-receive and active-message operations, LCI chooses between
//! protocols by message size. The paper has three; its first two are one
//! here, because every wire of this fabric is done with an eager source
//! when the post returns:
//!
//! * **eager** (the paper's *inject* and *buffer-copy*) — the fabric
//!   copies the payload out of the send buffer inside the post (tiny
//!   ones ride inline in the wire slot) and delivers it into a
//!   pre-posted packet; the operation is `done` at the post;
//! * **zero-copy (zcopy)** — a rendezvous: the source sends an RTS
//!   (ready-to-send), the target registers its buffer and answers RTR
//!   (ready-to-receive) carrying an rkey, and the source RDMA-writes the
//!   payload with an immediate FIN that completes the target side.
//!
//! Put/get translate directly to the low-level RDMA operations. The
//! original paper does not implement *get with signal* because its
//! interconnects lack RDMA-read-with-notification; this reproduction's
//! fabric can express it (an explicit notification message after the
//! read), so the operation is supported — a documented extension.
//!
//! ## Header layout (64-bit immediate)
//!
//! ```text
//! 63..60  message type (MsgType)
//! 59..58  matching policy (2 bits)
//! 57..56  reserved
//! 55..24  tag (32 bits)
//! 23..0   aux: rcomp (AM / signals) or rendezvous id (FIN)
//! ```

use crate::error::{FatalError, Result};
use crate::types::{MatchingPolicy, Tag};

/// Wire message types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgType {
    /// Eager two-sided send (matched by the matching engine).
    Eager = 1,
    /// Eager active message (aux = rcomp).
    EagerAm = 2,
    /// Rendezvous ready-to-send for send-recv (payload: RtsPayload).
    RtsSr = 3,
    /// Rendezvous ready-to-send for active messages (aux = rcomp).
    RtsAm = 4,
    /// Rendezvous ready-to-receive (payload: RtrPayload).
    Rtr = 5,
    /// Rendezvous finish, delivered as RDMA-write immediate
    /// (aux = rendezvous receive id).
    Fin = 6,
    /// Put-with-signal notification, delivered as RDMA-write immediate
    /// (aux = rcomp).
    PutSignal = 7,
    /// Get-with-signal notification, delivered as an eager control
    /// message after the read completes (aux = rcomp).
    GetSignal = 8,
    /// A coalesced frame: several small eager messages (sends or AMs)
    /// packed into one wire message (aux = sub-message count). The
    /// payload is a sequence of [`coalesce_pack`] records.
    Coalesced = 9,
}

impl MsgType {
    fn from_bits(v: u64) -> Result<MsgType> {
        Ok(match v {
            1 => MsgType::Eager,
            2 => MsgType::EagerAm,
            3 => MsgType::RtsSr,
            4 => MsgType::RtsAm,
            5 => MsgType::Rtr,
            6 => MsgType::Fin,
            7 => MsgType::PutSignal,
            8 => MsgType::GetSignal,
            9 => MsgType::Coalesced,
            other => {
                return Err(FatalError::Net(format!("corrupt wire header type {other}")));
            }
        })
    }
}

/// Decoded wire header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Message type.
    pub ty: MsgType,
    /// Matching policy the sender used (eager / RTS messages).
    pub policy: MatchingPolicy,
    /// Message tag.
    pub tag: Tag,
    /// Auxiliary 24-bit field (rcomp or rendezvous id).
    pub aux: u32,
}

impl Header {
    /// Builds a header.
    pub fn new(ty: MsgType, policy: MatchingPolicy, tag: Tag, aux: u32) -> Self {
        debug_assert!(aux < (1 << 24), "aux field overflow");
        Self { ty, policy, tag, aux }
    }

    /// Encodes to the 64-bit immediate.
    pub fn encode(self) -> u64 {
        ((self.ty as u64) << 60)
            | ((self.policy.encode() as u64) << 58)
            | ((self.tag as u64) << 24)
            | (self.aux as u64 & 0xFF_FFFF)
    }

    /// Decodes from the 64-bit immediate.
    pub fn decode(imm: u64) -> Result<Self> {
        Ok(Self {
            ty: MsgType::from_bits((imm >> 60) & 0xF)?,
            policy: MatchingPolicy::decode(((imm >> 58) & 0b11) as u8),
            tag: ((imm >> 24) & 0xFFFF_FFFF) as Tag,
            aux: (imm & 0xFF_FFFF) as u32,
        })
    }
}

/// RTS control payload: identifies the pending send and its size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtsPayload {
    /// Sender-side rendezvous id.
    pub send_id: u32,
    /// Full message size in bytes.
    pub size: u64,
}

impl RtsPayload {
    /// Serialized size.
    pub const BYTES: usize = 12;

    /// Serializes to bytes.
    pub fn encode(self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        out[..4].copy_from_slice(&self.send_id.to_le_bytes());
        out[4..].copy_from_slice(&self.size.to_le_bytes());
        out
    }

    /// Deserializes from bytes.
    pub fn decode(b: &[u8]) -> Result<Self> {
        if b.len() < Self::BYTES {
            return Err(FatalError::Net("short RTS payload".into()));
        }
        Ok(Self {
            send_id: u32::from_le_bytes(b[..4].try_into().unwrap()),
            size: u64::from_le_bytes(b[4..12].try_into().unwrap()),
        })
    }
}

/// RTR control payload: tells the source where to write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtrPayload {
    /// Sender-side rendezvous id (echoed from the RTS).
    pub send_id: u32,
    /// Receiver-side rendezvous id (returned in the FIN immediate).
    pub recv_id: u32,
    /// Remote key of the registered target buffer.
    pub rkey: u32,
}

impl RtrPayload {
    /// Serialized size.
    pub const BYTES: usize = 12;

    /// Serializes to bytes.
    pub fn encode(self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        out[..4].copy_from_slice(&self.send_id.to_le_bytes());
        out[4..8].copy_from_slice(&self.recv_id.to_le_bytes());
        out[8..].copy_from_slice(&self.rkey.to_le_bytes());
        out
    }

    /// Deserializes from bytes.
    pub fn decode(b: &[u8]) -> Result<Self> {
        if b.len() < Self::BYTES {
            return Err(FatalError::Net("short RTR payload".into()));
        }
        Ok(Self {
            send_id: u32::from_le_bytes(b[..4].try_into().unwrap()),
            recv_id: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            rkey: u32::from_le_bytes(b[8..12].try_into().unwrap()),
        })
    }
}

/// Per-sub-message overhead of the coalesced frame format: the
/// sub-message's own 64-bit wire header plus a 32-bit length prefix.
pub const COALESCE_SUB_OVERHEAD: usize = 12;

/// Appends one sub-message record to a coalesced frame:
/// `[sub_imm: u64 LE][len: u32 LE][payload]`. Each sub-message carries
/// the full wire header (type, matching policy, tag, aux) it would have
/// carried as a standalone eager message.
pub fn coalesce_pack(frame: &mut Vec<u8>, sub_imm: u64, payload: &[u8]) {
    frame.reserve(COALESCE_SUB_OVERHEAD + payload.len());
    frame.extend_from_slice(&sub_imm.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
}

/// Splits a coalesced frame into `(sub_imm, payload range)` records
/// without borrowing the payload bytes — the zero-copy demux path uses
/// the ranges to carve [`crate::PacketView`]s out of the backing packet.
/// Validation is identical to [`coalesce_unpack`]: truncated records,
/// trailing garbage and empty frames are rejected.
pub fn coalesce_unpack_ranges(frame: &[u8]) -> Result<Vec<(u64, std::ops::Range<usize>)>> {
    if frame.is_empty() {
        return Err(FatalError::Net("empty coalesced frame".into()));
    }
    let mut subs = Vec::new();
    let mut at = 0usize;
    while at < frame.len() {
        if frame.len() - at < COALESCE_SUB_OVERHEAD {
            return Err(FatalError::Net("truncated coalesced sub-header".into()));
        }
        let sub_imm = u64::from_le_bytes(frame[at..at + 8].try_into().unwrap());
        let len = u32::from_le_bytes(frame[at + 8..at + 12].try_into().unwrap()) as usize;
        at += COALESCE_SUB_OVERHEAD;
        if frame.len() - at < len {
            return Err(FatalError::Net(format!(
                "truncated coalesced payload: {} < {len}",
                frame.len() - at
            )));
        }
        subs.push((sub_imm, at..at + len));
        at += len;
    }
    Ok(subs)
}

/// Splits a coalesced frame back into `(sub_imm, payload)` records.
/// Rejects truncated records and trailing garbage; an empty frame is
/// rejected too (the sender never ships one).
pub fn coalesce_unpack(frame: &[u8]) -> Result<Vec<(u64, &[u8])>> {
    Ok(coalesce_unpack_ranges(frame)?
        .into_iter()
        .map(|(sub_imm, r)| (sub_imm, &frame[r]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_all_types() {
        for ty in [
            MsgType::Eager,
            MsgType::EagerAm,
            MsgType::RtsSr,
            MsgType::RtsAm,
            MsgType::Rtr,
            MsgType::Fin,
            MsgType::PutSignal,
            MsgType::GetSignal,
            MsgType::Coalesced,
        ] {
            let h = Header::new(ty, MatchingPolicy::TagOnly, 0xDEAD_BEEF, 0x12_3456);
            let d = Header::decode(h.encode()).unwrap();
            assert_eq!(h, d);
        }
    }

    #[test]
    fn header_extreme_values() {
        let h = Header::new(MsgType::Eager, MatchingPolicy::None, u32::MAX, (1 << 24) - 1);
        let d = Header::decode(h.encode()).unwrap();
        assert_eq!(d.tag, u32::MAX);
        assert_eq!(d.aux, (1 << 24) - 1);
        assert_eq!(d.policy, MatchingPolicy::None);
    }

    #[test]
    fn header_rejects_corrupt_type() {
        assert!(Header::decode(0).is_err());
        assert!(Header::decode(0xF << 60).is_err());
    }

    #[test]
    fn coalesce_roundtrip_and_truncation() {
        let mut frame = Vec::new();
        coalesce_pack(&mut frame, 111, b"hello");
        coalesce_pack(&mut frame, 222, b"");
        coalesce_pack(&mut frame, 333, &[7u8; 100]);
        let subs = coalesce_unpack(&frame).unwrap();
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[0], (111, b"hello".as_slice()));
        assert_eq!(subs[1], (222, b"".as_slice()));
        assert_eq!(subs[2], (333, [7u8; 100].as_slice()));

        assert!(coalesce_unpack(&[]).is_err());
        // Cut inside the last record's payload and inside its header.
        assert!(coalesce_unpack(&frame[..frame.len() - 1]).is_err());
        assert!(coalesce_unpack(&frame[..frame.len() - 105]).is_err());

        // The range-based splitter agrees with the borrowing one.
        let ranges = coalesce_unpack_ranges(&frame).unwrap();
        assert_eq!(ranges.len(), subs.len());
        for ((imm_a, payload), (imm_b, r)) in subs.iter().zip(&ranges) {
            assert_eq!(imm_a, imm_b);
            assert_eq!(*payload, &frame[r.clone()]);
        }
        assert!(coalesce_unpack_ranges(&[]).is_err());
        assert!(coalesce_unpack_ranges(&frame[..frame.len() - 1]).is_err());
    }

    #[test]
    fn rts_rtr_roundtrip() {
        let rts = RtsPayload { send_id: 7, size: 1 << 40 };
        assert_eq!(RtsPayload::decode(&rts.encode()).unwrap(), rts);
        let rtr = RtrPayload { send_id: 7, recv_id: 9, rkey: 1234 };
        assert_eq!(RtrPayload::decode(&rtr.encode()).unwrap(), rtr);
        assert!(RtsPayload::decode(&[0u8; 4]).is_err());
        assert!(RtrPayload::decode(&[0u8; 4]).is_err());
    }
}
