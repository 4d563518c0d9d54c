//! Property tests for the netplane frame + wire codec.
//!
//! Frames are torn at every byte boundary, prefixed with garbage, and
//! truncated at every length; in all cases decoding must either produce
//! the original frames or a structured [`FrameError`] — never a panic,
//! never a silently wrong frame.

use congest::netplane::{kind, read_frame, write_frame, Frame, FrameError, Wire, MAGIC};
use congest::Metrics;
use std::io::{self, Read};

/// A deterministic xorshift stream for payload fuzzing (no external RNG
/// in integration tests).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() & 0xFF) as u8).collect()
    }
}

fn encode(frames: &[Frame]) -> Vec<u8> {
    let mut buf = Vec::new();
    for f in frames {
        write_frame(&mut buf, f.kind, &f.payload).unwrap();
    }
    buf
}

fn sample_frames() -> Vec<Frame> {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut frames = vec![
        Frame {
            kind: kind::HELLO,
            payload: Vec::new(),
        },
        Frame {
            kind: kind::ROUND,
            payload: vec![0xC6; 3], // payload bytes that look like magic
        },
    ];
    for (k, len) in [
        (kind::ASSIGN, 1usize),
        (kind::JOIN, 17),
        (kind::REJOIN, 64),
        (kind::REDUCE, 255),
        (kind::STATS, 1024),
        (kind::RESULT, 4000),
    ] {
        frames.push(Frame {
            kind: k,
            payload: rng.bytes(len),
        });
    }
    frames
}

/// Every frame round-trips through the blocking reader.
#[test]
fn blocking_reader_roundtrips_every_kind() {
    let frames = sample_frames();
    let bytes = encode(&frames);
    let mut cursor = &bytes[..];
    for f in &frames {
        assert_eq!(&read_frame(&mut cursor).unwrap(), f);
    }
    assert_eq!(read_frame(&mut cursor), Err(FrameError::Closed));
}

/// Reads frames until the stream closes cleanly.
fn read_all(r: &mut impl Read) -> Vec<Frame> {
    let mut got = Vec::new();
    loop {
        match read_frame(r) {
            Ok(f) => got.push(f),
            Err(FrameError::Closed) => return got,
            Err(e) => panic!("unexpected {e:?}"),
        }
    }
}

/// The blocking reader produces identical frames no matter where the
/// byte stream is split: every single split point of the whole stream.
#[test]
fn blocking_reader_survives_all_torn_reads() {
    let frames = sample_frames();
    let bytes = encode(&frames);
    for split in 0..=bytes.len() {
        let mut torn = (&bytes[..split]).chain(&bytes[split..]);
        assert_eq!(read_all(&mut torn), frames, "split at byte {split}");
    }
}

/// A reader that hands out one byte per `read` call.
struct Dribble<'a>(&'a [u8]);

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.0.len()).min(1);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// Byte-at-a-time reads (the most extreme tearing) also work.
#[test]
fn blocking_reader_survives_byte_dribble() {
    let frames = sample_frames();
    let bytes = encode(&frames);
    assert_eq!(read_all(&mut Dribble(&bytes)), frames);
}

/// A stream that does not start with the magic byte fails structurally,
/// identifying the offending byte.
#[test]
fn garbage_prefix_is_rejected_not_panicked() {
    for garbage in [0u8, 1, 0x55, MAGIC.wrapping_add(1), 0xFF] {
        let mut bytes = vec![garbage];
        bytes.extend_from_slice(&encode(&sample_frames()[..1]));
        let mut cursor = &bytes[..];
        assert_eq!(read_frame(&mut cursor), Err(FrameError::BadMagic(garbage)));
    }
}

/// Mid-stream corruption (valid frame, then garbage) is caught at the
/// next frame boundary.
#[test]
fn corruption_after_valid_frame_is_caught() {
    let frames = sample_frames();
    let mut bytes = encode(&frames[..1]);
    bytes.push(0x00); // not MAGIC
    bytes.extend_from_slice(&encode(&frames[1..2]));

    let mut cursor = &bytes[..];
    assert_eq!(read_frame(&mut cursor).as_ref(), Ok(&frames[0]));
    assert_eq!(read_frame(&mut cursor), Err(FrameError::BadMagic(0x00)));
}

/// A length prefix above the cap is rejected before any allocation.
#[test]
fn oversized_length_prefix_is_rejected() {
    let len = congest::netplane::MAX_FRAME_LEN + 1;
    let mut bytes = vec![MAGIC, kind::ROUND];
    bytes.extend_from_slice(&len.to_le_bytes());

    let expected = FrameError::TooLarge {
        len,
        max: congest::netplane::MAX_FRAME_LEN,
    };
    let mut cursor = &bytes[..];
    assert_eq!(read_frame(&mut cursor), Err(expected));
}

/// Truncating the stream at every byte gives `UnexpectedEof` (mid-frame)
/// or `Closed` (clean boundary) — never a wrong frame.
#[test]
fn every_truncation_is_structured() {
    let frames = sample_frames();
    let bytes = encode(&frames);
    let boundaries: Vec<usize> = {
        let mut acc = vec![0usize];
        for f in &frames {
            acc.push(acc.last().unwrap() + 6 + f.payload.len());
        }
        acc
    };
    for cut in 0..bytes.len() {
        let mut cursor = &bytes[..cut];
        loop {
            match read_frame(&mut cursor) {
                Ok(f) => assert!(frames.contains(&f), "cut {cut} invented a frame"),
                Err(FrameError::Closed) => {
                    assert!(boundaries.contains(&cut), "cut {cut} mid-frame gave Closed");
                    break;
                }
                Err(FrameError::UnexpectedEof) => {
                    assert!(!boundaries.contains(&cut), "cut {cut} at boundary gave Eof");
                    break;
                }
                Err(e) => panic!("cut {cut}: unexpected {e:?}"),
            }
        }
    }
}

/// Wire values embedded in frames round-trip end to end, and truncated
/// payloads fail with structured `WireError`s (exercised through the
/// public codec exactly as the runtime uses it).
#[test]
fn wire_payloads_roundtrip_and_reject_truncation() {
    let metrics = Metrics {
        rounds: 41,
        messages: 123_456,
        total_bits: 7_890_123,
        max_message_bits: 96,
        ..Metrics::default()
    };
    let payload = (7u64, metrics.clone()).to_wire();
    let mut bytes = Vec::new();
    write_frame(&mut bytes, kind::STATS, &payload).unwrap();

    let frame = read_frame(&mut &bytes[..]).unwrap();
    let (epoch, back) = <(u64, Metrics)>::from_wire(&frame.payload).unwrap();
    assert_eq!(epoch, 7);
    assert_eq!(back, metrics);

    for cut in 0..payload.len() {
        assert!(
            <(u64, Metrics)>::from_wire(&payload[..cut]).is_err(),
            "truncation at {cut} decoded"
        );
    }
    let mut padded = payload.clone();
    padded.push(0);
    assert!(
        <(u64, Metrics)>::from_wire(&padded).is_err(),
        "trailing byte accepted"
    );
}
