//! Property tests for the incremental stream decoder behind the epoll
//! reactor: a valid frame sequence, however the kernel fragments it
//! across `read(2)` calls, must decode to exactly the frames that were
//! sent — same frames, same order, nothing duplicated or dropped. This
//! is the invariant the edge-triggered drain loop leans on: it commits
//! whatever byte count each read returns and trusts the decoder to
//! reassemble frame boundaries.

use proptest::prelude::*;
use snb_net::frame::{self, Frame, FrameDecoder, FrameEvent, FrameKind};

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (0..3u8, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..96)).prop_map(
        |(kind, corr_id, payload)| {
            let kind = match kind {
                0 => FrameKind::Request,
                1 => FrameKind::Response,
                _ => FrameKind::Error,
            };
            Frame { kind, corr_id, payload }
        },
    )
}

/// Split `bytes` into chunks at the given fractional cut points and
/// feed them to the decoder one at a time, draining complete frames
/// after every chunk (exactly what the reactor's read loop does).
fn decode_chunked(bytes: &[u8], cuts: &[usize]) -> Vec<Frame> {
    let mut cut_points: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
    cut_points.sort_unstable();
    cut_points.dedup();
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    let mut prev = 0;
    for cut in cut_points.into_iter().chain(std::iter::once(bytes.len())) {
        decoder.push_bytes(&bytes[prev..cut]);
        prev = cut;
        while let Some(f) = decoder.next_frame().expect("valid stream must decode") {
            out.push(f);
        }
    }
    assert_eq!(decoder.buffered(), 0, "no bytes may linger after the last frame");
    out
}

proptest! {
    #[test]
    fn arbitrary_fragmentation_reassembles_identically(
        frames in proptest::collection::vec(frame_strategy(), 1..12),
        cuts in proptest::collection::vec(any::<usize>(), 0..24)
    ) {
        // One contiguous byte stream carrying all frames back to back —
        // the shape a pipelining client produces.
        let mut stream = Vec::new();
        for f in &frames {
            frame::encode_frame_into(&mut stream, f.kind, f.corr_id, &f.payload);
        }
        // However the stream is fragmented — byte-at-a-time, mid-header,
        // mid-payload, several frames per chunk — the decoded sequence
        // is identical.
        let got = decode_chunked(&stream, &cuts);
        prop_assert_eq!(got, frames);
    }

    #[test]
    fn byte_at_a_time_reassembles_identically(
        frames in proptest::collection::vec(frame_strategy(), 1..4)
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            frame::encode_frame_into(&mut stream, f.kind, f.corr_id, &f.payload);
        }
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            decoder.push_bytes(std::slice::from_ref(b));
            while let Some(f) = decoder.next_frame().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn unknown_kind_frames_are_skipped_not_fatal(
        frames in proptest::collection::vec(frame_strategy(), 1..8),
        bad_tags in proptest::collection::vec(5..255u8, 1..4),
        positions in proptest::collection::vec(any::<usize>(), 1..4),
        cuts in proptest::collection::vec(any::<usize>(), 0..16)
    ) {
        // Interleave well-formed frames with frames whose kind tag the
        // decoder does not know (tag >= 5, valid header + checksum).
        // The event stream must surface each unknown frame exactly once
        // — with its tag and corr_id — and decode every known frame
        // around it, under arbitrary fragmentation.
        let mut expected = Vec::new();
        let mut stream = Vec::new();
        let mut bad_iter = bad_tags.iter().zip(&positions).peekable();
        for (i, f) in frames.iter().enumerate() {
            if let Some(&(&tag, &pos)) = bad_iter.peek() {
                if pos % frames.len() == i {
                    bad_iter.next();
                    let corr_id = 1000 + i as u64;
                    let mut raw = frame::encode_frame(&Frame {
                        kind: FrameKind::Request,
                        corr_id,
                        payload: vec![7; i % 5],
                    });
                    raw[5] = tag; // kind byte; payload/checksum untouched
                    stream.extend_from_slice(&raw);
                    expected.push(FrameEvent::UnknownKind { tag, corr_id });
                }
            }
            frame::encode_frame_into(&mut stream, f.kind, f.corr_id, &f.payload);
            expected.push(FrameEvent::Frame(f.clone()));
        }

        let mut cut_points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        cut_points.sort_unstable();
        cut_points.dedup();
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut prev = 0;
        for cut in cut_points.into_iter().chain(std::iter::once(stream.len())) {
            decoder.push_bytes(&stream[prev..cut]);
            prev = cut;
            while let Some(ev) = decoder.next_event().expect("stream stays syncable") {
                got.push(ev);
            }
        }
        prop_assert_eq!(got, expected);
        prop_assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..8)
    ) {
        // Garbage input may error (and the reactor then kills the
        // connection), but must never panic or loop forever.
        let mut decoder = FrameDecoder::new();
        'outer: for chunk in &chunks {
            decoder.push_bytes(chunk);
            loop {
                match decoder.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => break 'outer,
                }
            }
        }
    }
}
