//! The TCP stream codec: the shm frame format on a byte stream.
//!
//! A frame on the wire is the 64-byte [`shm::ring`] header followed by
//! the payload; the `spill` word is always zero (streams have no spill
//! region — the length field alone delimits frames). Unlike the shm
//! rings, where frames arrive whole by construction, a TCP stream
//! fragments arbitrarily: a header can straddle two reads, a payload
//! can arrive one byte at a time, a write can be torn anywhere.
//! [`FrameDecoder`] reassembles against all of that — it buffers
//! unconsumed bytes across reads and shows a frame only when header and
//! payload are both complete.
//!
//! [`shm::ring`]: crate::shm::ring

use crate::buf_pool::MAX_CLASS;
use crate::shm::ring::{
    decode_header, encode_header, FrameHeader, HEADER_LEN, KIND_READ_REQ, KIND_READ_RESP,
    KIND_SEND, KIND_WRITE,
};

/// Largest payload one TCP frame carries: a frame that must become a
/// wire message is staged whole into one pooled buffer, so it has to fit
/// the largest class. The upper stack chunks rendezvous transfers far
/// below this.
pub const MAX_FRAME_PAYLOAD: usize = MAX_CLASS - HEADER_LEN;

/// Initial (and steady-state) reassembly slab size.
const DECODER_INIT_CAP: usize = 64 << 10;

/// A corrupt or unsupported byte stream. Unlike ring frames — which are
/// trusted shared memory — stream bytes cross a socket, so the decoder
/// validates before believing a length field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// Unknown frame kind: the stream is corrupt or desynchronized.
    BadKind(u8),
    /// Length field exceeds [`MAX_FRAME_PAYLOAD`]: corrupt stream.
    Oversize(usize),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::BadKind(k) => write!(f, "tcp stream: unknown frame kind {k}"),
            StreamError::Oversize(n) => write!(f, "tcp stream: frame payload {n} exceeds limit"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Appends one frame (header, then payload) to `out` — the one copy a
/// payload makes on its way to the socket. `Oversize` when the payload
/// can never fit a frame (mirrors `ProduceError::TooLarge`); `out` is
/// untouched then.
pub fn encode_frame(out: &mut Vec<u8>, h: &FrameHeader, payload: &[u8]) -> Result<(), StreamError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(StreamError::Oversize(payload.len()));
    }
    let at = out.len();
    out.reserve(HEADER_LEN + payload.len());
    out.resize(at + HEADER_LEN, 0);
    encode_header(&mut out[at..], h, payload.len() as u32, 0);
    out.extend_from_slice(payload);
    Ok(())
}

/// Incremental frame reassembler over an arbitrarily fragmented byte
/// stream.
///
/// The slab is a flat `Vec` with a consume cursor: bytes land at
/// `filled` (either via [`push`](Self::push) or by reading straight
/// into [`fill_space`](Self::fill_space)), the frame at `pos` is lent
/// by [`peek`](Self::peek) and released by [`consume`](Self::consume),
/// and the unconsumed tail is compacted to the front before each
/// refill. A full slab whose head frame is complete takes no more bytes
/// until that frame is consumed (the socket's flow control is the
/// backpressure); storage grows only when a single frame outsizes the
/// slab, then stays — no steady-state allocation.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes `[pos, filled)` are received and not yet consumed.
    pos: usize,
    filled: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder { buf: vec![0; DECODER_INIT_CAP], pos: 0, filled: 0 }
    }

    /// Bytes received but not yet consumed.
    pub fn pending_bytes(&self) -> usize {
        self.filled - self.pos
    }

    /// Size of the slab (test observability: it must not grow under
    /// frames that fit it).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Validates the header at the cursor and returns it with the whole
    /// frame's length; `Ok(None)` until 64 bytes of it are in.
    fn head(&self) -> Result<Option<(FrameHeader, usize)>, StreamError> {
        if self.pending_bytes() < HEADER_LEN {
            return Ok(None);
        }
        let (header, len, _spill) = decode_header(&self.buf[self.pos..self.pos + HEADER_LEN]);
        let len = len as usize;
        if !matches!(header.kind, KIND_SEND | KIND_WRITE | KIND_READ_REQ | KIND_READ_RESP) {
            return Err(StreamError::BadKind(header.kind));
        }
        if len > MAX_FRAME_PAYLOAD {
            return Err(StreamError::Oversize(len));
        }
        Ok(Some((header, HEADER_LEN + len)))
    }

    /// The oldest unconsumed frame, if it has fully arrived, lent as a
    /// slice of the slab. Changes nothing: the same frame comes back
    /// until [`consume`](Self::consume) releases it, however many bytes
    /// arrive behind it. `Ok(None)` means "need more bytes".
    pub fn peek(&self) -> Result<Option<(FrameHeader, &[u8])>, StreamError> {
        Ok(self
            .head()?
            .filter(|&(_, frame)| frame <= self.pending_bytes())
            .map(|(h, frame)| (h, &self.buf[self.pos + HEADER_LEN..self.pos + frame])))
    }

    /// Releases the frame [`peek`](Self::peek) showed: the cursor moves
    /// past exactly that one frame.
    pub fn consume(&mut self) {
        let len = decode_header(&self.buf[self.pos..self.pos + HEADER_LEN]).1 as usize;
        assert!(HEADER_LEN + len <= self.pending_bytes(), "consume without a peeked frame");
        self.pos += HEADER_LEN + len;
    }

    /// Compacts and returns the writable tail for a socket read; call
    /// [`advance_filled`](Self::advance_filled) with the byte count
    /// actually read. Empty when the slab is full behind a complete (or
    /// corrupt) head frame — consume it first; a partial frame that has
    /// filled the slab grows it.
    pub fn fill_space(&mut self) -> &mut [u8] {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
        }
        let full = self.filled == self.buf.len();
        if full && matches!(self.head(), Ok(Some((_, frame))) if frame > self.filled) {
            let new_len = (self.buf.len() * 2).min(HEADER_LEN + MAX_FRAME_PAYLOAD);
            self.buf.resize(new_len, 0);
        }
        &mut self.buf[self.filled..]
    }

    /// Marks `n` bytes of [`fill_space`](Self::fill_space) as received.
    pub fn advance_filled(&mut self, n: usize) {
        debug_assert!(self.filled + n <= self.buf.len());
        self.filled += n;
    }

    /// Copies in as much of `bytes` as the slab takes and returns how
    /// much that was (test/bench convenience; the device reads the
    /// socket directly into [`fill_space`](Self::fill_space)).
    pub fn push(&mut self, bytes: &[u8]) -> usize {
        let mut taken = 0;
        while taken < bytes.len() {
            let space = self.fill_space();
            let n = space.len().min(bytes.len() - taken);
            if n == 0 {
                break;
            }
            space[..n].copy_from_slice(&bytes[taken..taken + n]);
            self.advance_filled(n);
            taken += n;
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(kind: u8, imm: u64) -> FrameHeader {
        FrameHeader { kind, flags: 0, imm, src_dev: 1, dst_dev: 2, a: 3, b: 4, c: 5 }
    }

    fn encoded(h: &FrameHeader, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, h, payload).unwrap();
        out
    }

    #[test]
    fn roundtrip_whole_frames() {
        let mut dec = FrameDecoder::new();
        let mut stream = Vec::new();
        for i in 0..4u64 {
            encode_frame(&mut stream, &hdr(KIND_SEND, i), &vec![i as u8; 10 * i as usize]).unwrap();
        }
        assert_eq!(dec.push(&stream), stream.len());
        for i in 0..4u64 {
            let (h, payload) = dec.peek().unwrap().expect("frame");
            assert_eq!(h.imm, i);
            assert_eq!(payload, vec![i as u8; 10 * i as usize].as_slice());
            dec.consume();
        }
        assert!(dec.peek().unwrap().is_none());
    }

    #[test]
    fn survives_byte_at_a_time() {
        let f = encoded(&hdr(KIND_WRITE, 9), b"abcdef");
        let mut dec = FrameDecoder::new();
        for (i, b) in f.iter().enumerate() {
            dec.push(std::slice::from_ref(b));
            if i + 1 < f.len() {
                assert!(dec.peek().unwrap().is_none(), "frame appeared early at byte {i}");
            }
        }
        let (h, payload) = dec.peek().unwrap().expect("frame");
        assert_eq!((h.imm, payload), (9, &b"abcdef"[..]));
    }

    #[test]
    fn rejects_bad_kind_and_oversize() {
        let mut raw = vec![0u8; HEADER_LEN];
        encode_header(&mut raw, &hdr(77, 0), 0, 0);
        let mut dec = FrameDecoder::new();
        dec.push(&raw);
        assert_eq!(dec.peek().unwrap_err(), StreamError::BadKind(77));

        let mut raw = vec![0u8; HEADER_LEN];
        encode_header(&mut raw, &hdr(KIND_SEND, 0), (MAX_FRAME_PAYLOAD + 1) as u32, 0);
        let mut dec = FrameDecoder::new();
        dec.push(&raw);
        assert!(matches!(dec.peek(), Err(StreamError::Oversize(_))));
    }

    #[test]
    fn grows_for_oversized_frame_only() {
        let big = vec![7u8; 200 << 10]; // larger than the 64 KiB slab
        let f = encoded(&hdr(KIND_READ_RESP, 1), &big);
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.push(&f), f.len());
        let (_, payload) = dec.peek().unwrap().expect("frame");
        assert!(payload.len() == big.len() && payload.iter().all(|&b| b == 7));
    }

    #[test]
    fn encode_rejects_over_limit() {
        let mut out = vec![1, 2, 3];
        let too_big = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        assert!(encode_frame(&mut out, &hdr(KIND_SEND, 0), &too_big).is_err());
        assert_eq!(out, [1, 2, 3]);
    }
}
