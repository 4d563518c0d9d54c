//! Property tests for rejoin-with-replay.
//!
//! The recovery contract: a rejoiner restarted from scratch gets
//! **exactly** every frame a retaining link sent, in original order,
//! and a link that does not retain replays nothing. A frame torn
//! mid-replay (the survivor dying while replaying) must surface as a
//! structured [`FrameError`], never as a decoded partial payload.

use congest::netplane::{kind, read_frame, write_frame, write_torn_frame, FrameError, Link, Wire};
use std::io::Write as _;
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::thread;

/// A connected localhost socket pair.
fn pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let port = listener.local_addr().unwrap().port();
    let dial = thread::spawn(move || TcpStream::connect((Ipv4Addr::LOCALHOST, port)).unwrap());
    let (near, _) = listener.accept().unwrap();
    (near, dial.join().unwrap())
}

/// Drives one scenario: send frames `1..=total` on a link that does or
/// does not `retain`, then resume a fresh connection. Returns the
/// replayed values.
fn replay_after(total: u64, retain: bool) -> Vec<u64> {
    let (near, _far) = pair();
    let mut link = Link::new(7, near, retain).unwrap();
    for sync in 1..=total {
        link.send(kind::ROUND, &sync.to_wire()).unwrap();
    }
    link.flush().unwrap();
    let (fresh_near, fresh_far) = pair();
    link.resume(fresh_near).unwrap();
    // Close the write side so the reader sees a clean end after the
    // replayed frames.
    drop(link);
    let mut far = fresh_far;
    let mut got = Vec::new();
    loop {
        match read_frame(&mut far) {
            Ok(frame) => {
                assert_eq!(frame.kind, kind::ROUND);
                got.push(u64::from_wire(&frame.payload).unwrap());
            }
            Err(FrameError::Closed) => break,
            Err(e) => panic!("replay stream must end cleanly, got {e}"),
        }
    }
    got
}

/// For every history length up to 200 frames, a retaining link replays
/// exactly `1..=total` and a non-retaining one replays nothing.
#[test]
fn retaining_links_replay_their_whole_history() {
    for total in 0u64..=200 {
        let want: Vec<u64> = (1..=total).collect();
        assert_eq!(replay_after(total, true), want, "total={total}");
        assert_eq!(
            replay_after(total, false),
            Vec::<u64>::new(),
            "total={total}"
        );
    }
}

/// A survivor dying mid-replay tears a frame on the wire; the rejoiner's
/// decoder must surface a structured mid-frame EOF, never a partial
/// payload decoded as data.
#[test]
fn torn_frame_mid_replay_is_a_structured_error() {
    // Replay three frames; tear the middle one at every possible byte
    // boundary (header and payload).
    let payloads: Vec<Vec<u8>> = (1u64..=3).map(|s| s.to_wire()).collect();
    let frame_len = 6 + payloads[1].len();
    for tear_at in 0..frame_len {
        let (mut near, far) = pair();
        let reader = thread::spawn(move || {
            let mut far = far;
            let mut got = Vec::new();
            let err = loop {
                match read_frame(&mut far) {
                    Ok(frame) => got.push(u64::from_wire(&frame.payload).unwrap()),
                    Err(e) => break e,
                }
            };
            (got, err)
        });
        write_frame(&mut near, kind::ROUND, &payloads[0]).unwrap();
        write_torn_frame(&mut near, kind::ROUND, &payloads[1], tear_at).unwrap();
        near.flush().unwrap();
        drop(near); // the survivor is gone mid-replay
        let (got, err) = reader.join().unwrap();
        assert_eq!(got, vec![1], "tear_at={tear_at}");
        if tear_at == 0 {
            // Torn before any byte: a clean close at a frame boundary.
            assert_eq!(err, FrameError::Closed, "tear_at={tear_at}");
        } else {
            assert_eq!(err, FrameError::UnexpectedEof, "tear_at={tear_at}");
        }
    }
}
