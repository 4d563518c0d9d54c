//! Length-prefixed frames: the unit of transmission between shard
//! processes.
//!
//! # Wire format
//!
//! ```text
//! ┌────────┬────────┬──────────────┬─────────────────┐
//! │ magic  │ kind   │ len (u32 LE) │ payload (len B) │
//! │ 1 byte │ 1 byte │ 4 bytes      │                 │
//! └────────┴────────┴──────────────┴─────────────────┘
//! ```
//!
//! The magic byte (`0xC6`) lets a receiver reject a stream that is not a
//! netplane peer (or that desynchronized) with a structured
//! [`FrameError::BadMagic`] instead of misinterpreting garbage as a
//! length. The length is capped at [`MAX_FRAME_LEN`]; a prefix above the
//! cap is [`FrameError::TooLarge`] — corrupt input can never trigger a
//! multi-gigabyte allocation.

use std::fmt;
use std::io::{self, Read, Write};

/// First byte of every frame.
pub const MAGIC: u8 = 0xC6;

/// Upper bound on a frame payload (64 MiB). Far above any real round
/// batch; exists so a corrupt length prefix fails structurally instead of
/// attempting a huge allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Frame kinds. A `u8` namespace shared by membership and the round loop.
pub mod kind {
    /// Shard → coordinator: "my mesh listener is on this port".
    pub const HELLO: u8 = 1;
    /// Coordinator → shard: shard index, world size, peer table.
    pub const ASSIGN: u8 = 2;
    /// Dialing shard → accepting shard: "I am shard `from`".
    pub const JOIN: u8 = 3;
    /// Restarted shard → surviving shard: "I am shard `from` (a
    /// [`Join`](crate::netplane::Join) payload), restarted from scratch;
    /// replay everything you sent me".
    pub const REJOIN: u8 = 4;
    /// One communication round's batch + control flags (peer ↔ peer).
    pub const ROUND: u8 = 5;
    /// One collective contribution: a row sync (peer ↔ peer).
    pub const REDUCE: u8 = 6;
    /// End-of-phase stats exchange (peer ↔ peer).
    pub const STATS: u8 = 7;
    /// Shard → coordinator: final colors + metrics.
    pub const RESULT: u8 = 8;
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Discriminator from [`kind`].
    pub kind: u8,
    /// Opaque payload; interpreted by the layer owning `kind` via
    /// [`Wire`](super::Wire).
    pub payload: Vec<u8>,
}

/// A structured framing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream closed cleanly at a frame boundary.
    Closed,
    /// The stream closed mid-frame.
    UnexpectedEof,
    /// The first byte of a frame was not [`MAGIC`].
    BadMagic(u8),
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    TooLarge {
        /// The claimed payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// An underlying I/O error (message only, for comparability).
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "peer closed the stream"),
            FrameError::UnexpectedEof => write!(f, "stream closed mid-frame"),
            FrameError::BadMagic(b) => {
                write!(f, "bad frame magic {b:#04x} (expected {MAGIC:#04x})")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e.to_string())
    }
}

/// Writes one frame. The caller flushes (the round loop batches all
/// per-peer frames of a communication round into one flush — the round
/// barrier *is* the flush point).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — outbound frames are
/// engine-constructed, so an oversized one is a bug, not wire input.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).expect("payload length fits u32");
    assert!(len <= MAX_FRAME_LEN, "outbound frame exceeds MAX_FRAME_LEN");
    w.write_all(&[MAGIC, kind])?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Writes only the first `keep` bytes of what [`write_frame`] would emit
/// — a *torn* frame. The chaos plane uses this to model a sender dying
/// mid-`write_all`: the receiver must surface a structured
/// [`FrameError::UnexpectedEof`] (or [`FrameError::BadMagic`] on the next
/// read, if the tear lands between frames), never a decoded partial
/// payload.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] (same contract as
/// [`write_frame`]).
pub fn write_torn_frame(
    w: &mut impl Write,
    kind: u8,
    payload: &[u8],
    keep: usize,
) -> io::Result<()> {
    let mut full = Vec::with_capacity(6 + payload.len());
    write_frame(&mut full, kind, payload)?;
    let keep = keep.min(full.len());
    w.write_all(&full[..keep])
}

/// Reads exactly one frame, blocking.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF at a frame boundary; the other
/// variants on malformed or truncated input.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; 6];
    // Distinguish clean close (0 bytes) from mid-frame close by reading
    // the first byte separately.
    match r.read(&mut header[..1]) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e) => return Err(e.into()),
    }
    read_exact_or_eof(r, &mut header[1..])?;
    let len = parse_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    read_exact_or_eof(r, &mut payload)?;
    Ok(Frame {
        kind: header[1],
        payload,
    })
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::UnexpectedEof
        } else {
            e.into()
        }
    })
}

/// Validates a 6-byte header: magic and length cap.
fn parse_header(header: &[u8; 6]) -> Result<u32, FrameError> {
    if header[0] != MAGIC {
        return Err(FrameError::BadMagic(header[0]));
    }
    let len = u32::from_le_bytes(header[2..6].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind::ROUND, b"hello").unwrap();
        write_frame(&mut buf, kind::STATS, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        let f1 = read_frame(&mut cursor).unwrap();
        assert_eq!(
            (f1.kind, f1.payload.as_slice()),
            (kind::ROUND, &b"hello"[..])
        );
        let f2 = read_frame(&mut cursor).unwrap();
        assert_eq!((f2.kind, f2.payload.as_slice()), (kind::STATS, &b""[..]));
        assert_eq!(read_frame(&mut cursor), Err(FrameError::Closed));
    }

    #[test]
    fn blocking_reader_rejects_garbage_and_truncation() {
        let mut cursor = io::Cursor::new(vec![0x00u8, 1, 2, 3, 4, 5]);
        assert_eq!(read_frame(&mut cursor), Err(FrameError::BadMagic(0x00)));
        // Truncated mid-header.
        let mut cursor = io::Cursor::new(vec![MAGIC, kind::ROUND, 9]);
        assert_eq!(read_frame(&mut cursor), Err(FrameError::UnexpectedEof));
        // Truncated mid-payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, kind::ROUND, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor), Err(FrameError::UnexpectedEof));
        // Oversized length prefix.
        let mut buf = vec![MAGIC, kind::ROUND];
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn torn_frame_truncates_at_the_requested_byte() {
        let mut full = Vec::new();
        write_frame(&mut full, kind::ROUND, b"abcdef").unwrap();
        // Tear mid-payload: a blocking reader sees a structured EOF.
        let mut torn = Vec::new();
        write_torn_frame(&mut torn, kind::ROUND, b"abcdef", 9).unwrap();
        assert_eq!(torn, full[..9]);
        let mut cursor = io::Cursor::new(torn);
        assert_eq!(read_frame(&mut cursor), Err(FrameError::UnexpectedEof));
        // `keep` past the end is the whole frame.
        let mut whole = Vec::new();
        write_torn_frame(&mut whole, kind::ROUND, b"abcdef", 999).unwrap();
        assert_eq!(whole, full);
    }

    /// A reader that hands out one byte per `read` call, the most torn a
    /// socket can deliver.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn blocking_reader_handles_one_byte_reads() {
        let mut stream = Vec::new();
        write_frame(&mut stream, kind::ROUND, b"abc").unwrap();
        write_frame(&mut stream, kind::REDUCE, &[1, 2, 3, 4, 5, 6, 7]).unwrap();
        let mut r = Dribble(&stream);
        let f1 = read_frame(&mut r).unwrap();
        assert_eq!((f1.kind, f1.payload.as_slice()), (kind::ROUND, &b"abc"[..]));
        let f2 = read_frame(&mut r).unwrap();
        assert_eq!(f2.kind, kind::REDUCE);
        assert_eq!(f2.payload, [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(read_frame(&mut r), Err(FrameError::Closed));
    }

    #[test]
    fn error_display() {
        assert!(FrameError::BadMagic(7).to_string().contains("0x07"));
        assert!(FrameError::TooLarge { len: 9, max: 1 }
            .to_string()
            .contains('9'));
        assert!(FrameError::Closed.to_string().contains("closed"));
        let io_err: FrameError = io::Error::other("boom").into();
        assert!(io_err.to_string().contains("boom"));
    }
}
