//! Property tests for the TCP stream codec: arbitrary frame sequences
//! survive arbitrary fragmentation. A TCP stream has no record
//! boundaries — a write on one side can be torn anywhere, and reads on
//! the other side deliver whatever the kernel has — so the decoder must
//! reassemble identical frames from *any* chunking of the byte stream,
//! including one-byte-at-a-time delivery and chunks that straddle a
//! header/payload boundary.
//!
//! The decoder *lends* frames (`peek`) and releases them one at a time
//! (`consume`), because the wire's drain routes a frame in place and a
//! frame the router parks must still be there, byte for byte, at the
//! next poll — whatever has arrived behind it meanwhile.

use lci_fabric::shm::ring::{
    FrameHeader, FLAG_HAS_IMM, HEADER_LEN, KIND_READ_REQ, KIND_READ_RESP, KIND_SEND, KIND_WRITE,
};
use lci_fabric::tcp::stream::{encode_frame, FrameDecoder, StreamError, MAX_FRAME_PAYLOAD};
use proptest::prelude::*;

type HeaderSeed = (u8, u8, u64, u32, u32, u64, u64, u64);

fn header_seed() -> impl Strategy<Value = HeaderSeed> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
}

fn arb_header(seed: HeaderSeed) -> FrameHeader {
    let (kind_sel, flags, imm, src_dev, dst_dev, a, b, c) = seed;
    let kind = [KIND_SEND, KIND_WRITE, KIND_READ_REQ, KIND_READ_RESP][kind_sel as usize % 4];
    FrameHeader { kind, flags: flags & FLAG_HAS_IMM, imm, src_dev, dst_dev, a, b, c }
}

/// Deterministic payload bytes so corruption shows as a value mismatch,
/// not just a length mismatch.
fn payload_bytes(len: usize, salt: u64) -> Vec<u8> {
    (0..len).map(|i| (i as u64).wrapping_mul(2654435761).wrapping_add(salt) as u8).collect()
}

/// The frames `seeds` describe, as the send side appends them to its
/// stream buffer, and what the receiver must make of them.
fn encode_all(seeds: &[(HeaderSeed, usize)]) -> (Vec<u8>, Vec<(FrameHeader, Vec<u8>)>) {
    let mut stream = Vec::new();
    let mut expect = Vec::new();
    for (seed, len) in seeds {
        let h = arb_header(*seed);
        let body = payload_bytes(*len, seed.2);
        encode_frame(&mut stream, &h, &body).expect("fits");
        expect.push((h, body));
    }
    (stream, expect)
}

/// Takes every complete frame off the decoder's head.
fn take_frames(dec: &mut FrameDecoder, out: &mut Vec<(FrameHeader, Vec<u8>)>) {
    while let Some((h, payload)) = dec.peek().expect("valid stream") {
        out.push((h, payload.to_vec()));
        dec.consume();
    }
}

/// Splits `stream` into chunks whose sizes cycle through `cuts`
/// (1-based), modelling adversarial kernel delivery.
fn feed_in_chunks(
    dec: &mut FrameDecoder,
    stream: &[u8],
    cuts: &[usize],
) -> Vec<(FrameHeader, Vec<u8>)> {
    let mut out = Vec::new();
    let mut off = 0;
    let mut i = 0;
    while off < stream.len() {
        let take = cuts[i % cuts.len()].clamp(1, stream.len() - off);
        i += 1;
        assert_eq!(dec.push(&stream[off..off + take]), take, "a drained slab refused bytes");
        off += take;
        take_frames(dec, &mut out);
    }
    out
}

proptest! {
    /// Any frame sequence, fed through any fragmentation pattern, comes
    /// out intact and in order.
    #[test]
    fn frames_survive_arbitrary_fragmentation(
        seeds in prop::collection::vec((header_seed(), 0usize..2000), 1..8),
        cuts in prop::collection::vec(1usize..4096, 1..6),
    ) {
        let (stream, expect) = encode_all(&seeds);
        let mut dec = FrameDecoder::new();
        let got = feed_in_chunks(&mut dec, &stream, &cuts);
        prop_assert_eq!(got, expect);
        prop_assert_eq!(dec.pending_bytes(), 0);
    }

    /// Byte-at-a-time delivery — the worst legal fragmentation — still
    /// reassembles exactly.
    #[test]
    fn single_byte_delivery(seed in header_seed(), len in 0usize..300) {
        let (stream, expect) = encode_all(&[(seed, len)]);
        let mut dec = FrameDecoder::new();
        prop_assert_eq!(feed_in_chunks(&mut dec, &stream, &[1]), expect);
    }

    /// A frame larger than the reassembly slab's initial capacity forces
    /// a grow mid-frame; the bytes still come out exact.
    #[test]
    fn oversized_frames_grow_the_buffer(
        len in (64usize << 10)..MAX_FRAME_PAYLOAD,
        cut in 1usize..65536,
    ) {
        let h = FrameHeader { kind: KIND_SEND, ..FrameHeader::default() };
        let body = payload_bytes(len, 7);
        let mut stream = Vec::new();
        encode_frame(&mut stream, &h, &body).expect("fits");
        let mut dec = FrameDecoder::new();
        let got = feed_in_chunks(&mut dec, &stream, &[cut]);
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(&got[0].1, &body);
    }

    /// A parked frame: `peek` is idempotent. The head frame peeks
    /// byte-identical any number of times, across further pushes — each
    /// of which compacts the slab under it once an earlier frame has
    /// been consumed — and `consume` then advances past exactly that
    /// frame: everything behind it comes out intact and in order.
    #[test]
    fn a_parked_frame_peeks_identical_until_consumed(
        seeds in prop::collection::vec((header_seed(), 0usize..2000), 2..8),
        parked in 0usize..8,
        cuts in prop::collection::vec(1usize..4096, 1..6),
    ) {
        let (stream, expect) = encode_all(&seeds);
        let parked = parked % seeds.len();
        let parked_end: usize =
            expect[..=parked].iter().map(|(_, body)| HEADER_LEN + body.len()).sum();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        // Up to and including the parked frame, consuming all before it.
        dec.push(&stream[..parked_end]);
        for _ in 0..parked {
            let (h, payload) = dec.peek().expect("valid").expect("complete");
            got.push((h, payload.to_vec()));
            dec.consume();
        }
        // The rest arrives in fragments while the head stays parked.
        let (mut off, mut i) = (parked_end, 0);
        loop {
            for _ in 0..3 {
                let (h, payload) = dec.peek().expect("valid").expect("the parked frame is gone");
                prop_assert_eq!((&h, payload), (&expect[parked].0, &expect[parked].1[..]));
            }
            if off == stream.len() {
                break;
            }
            let take = cuts[i % cuts.len()].clamp(1, stream.len() - off);
            i += 1;
            prop_assert_eq!(dec.push(&stream[off..off + take]), take);
            off += take;
        }
        let before = dec.pending_bytes();
        dec.consume();
        prop_assert_eq!(before - dec.pending_bytes(), HEADER_LEN + expect[parked].1.len());
        got.push(expect[parked].clone());
        take_frames(&mut dec, &mut got);
        prop_assert_eq!(got, expect);
        prop_assert_eq!(dec.pending_bytes(), 0);
    }

    /// A corrupt kind byte surfaces as `BadKind` no matter where the
    /// stream was fragmented before it.
    #[test]
    fn corrupt_kind_is_detected(
        bad_kind in 6u8..=255,
        prefix_len in 0usize..200,
        cut in 1usize..128,
    ) {
        // One good frame, then a corrupt header.
        let good = FrameHeader { kind: KIND_WRITE, ..FrameHeader::default() };
        let mut stream = Vec::new();
        encode_frame(&mut stream, &good, &payload_bytes(prefix_len, 3)).expect("fits");
        let corrupt = FrameHeader { kind: bad_kind, ..FrameHeader::default() };
        encode_frame(&mut stream, &corrupt, &[]).expect("fits");

        let mut dec = FrameDecoder::new();
        let mut off = 0;
        let mut decoded = 0usize;
        let mut err = None;
        'outer: while off < stream.len() {
            let take = cut.clamp(1, stream.len() - off);
            dec.push(&stream[off..off + take]);
            off += take;
            loop {
                match dec.peek() {
                    Ok(Some(_)) => {
                        decoded += 1;
                        dec.consume();
                    }
                    Ok(None) => break,
                    Err(e) => { err = Some(e); break 'outer; }
                }
            }
        }
        prop_assert_eq!(decoded, 1, "the good frame decodes first");
        prop_assert_eq!(err, Some(StreamError::BadKind(bad_kind)));
    }
}

/// Backpressure: a slab that is full behind a complete head frame takes
/// no more bytes and does not grow — the socket keeps them until the
/// router has taken the frame. Consuming it makes room again.
#[test]
fn a_full_slab_behind_a_complete_head_frame_neither_grows_nor_accepts_bytes() {
    let h = FrameHeader { kind: KIND_SEND, ..FrameHeader::default() };
    let mut stream = Vec::new();
    let mut bodies = Vec::new();
    for i in 0..200u64 {
        bodies.push(payload_bytes(1000, i));
        encode_frame(&mut stream, &h, &bodies[i as usize]).expect("fits");
    }
    let mut dec = FrameDecoder::new();
    let cap = dec.capacity();
    assert!(stream.len() > 2 * cap, "the test needs more bytes than the slab holds");
    let taken = dec.push(&stream);
    assert_eq!((taken, dec.pending_bytes(), dec.capacity()), (cap, cap, cap));
    for _ in 0..3 {
        assert_eq!(dec.push(&stream[taken..]), 0, "a full slab accepted bytes");
        assert_eq!(dec.capacity(), cap, "a full slab grew behind a frame that fits it");
        assert_eq!(dec.peek().unwrap().expect("head").1, &bodies[0][..]);
    }
    // One frame consumed: exactly its room comes back.
    dec.consume();
    assert_eq!(dec.push(&stream[taken..]), HEADER_LEN + 1000);
    let mut got = Vec::new();
    let mut off = taken + HEADER_LEN + 1000;
    loop {
        take_frames(&mut dec, &mut got);
        if off == stream.len() {
            break;
        }
        off += dec.push(&stream[off..]);
    }
    assert_eq!(dec.capacity(), cap);
    assert_eq!(got.len(), bodies.len() - 1);
    assert!(got.iter().zip(&bodies[1..]).all(|((_, g), b)| g == b));
}

/// An oversize length field is rejected before any allocation of that
/// size happens (a malicious peer must not drive reassembly growth).
#[test]
fn oversize_length_is_detected() {
    let mut raw = vec![0u8; HEADER_LEN];
    // Hand-roll a header claiming a payload beyond the frame limit.
    let h = FrameHeader { kind: KIND_SEND, ..FrameHeader::default() };
    lci_fabric::shm::ring::encode_header(&mut raw, &h, (MAX_FRAME_PAYLOAD + 1) as u32, 0);
    let mut dec = FrameDecoder::new();
    dec.push(&raw);
    assert_eq!(dec.peek().unwrap_err(), StreamError::Oversize(MAX_FRAME_PAYLOAD + 1));
}
