//! The wire `Vec` decoder reserves no more memory than its input holds.
//!
//! `MAX_FRAME_LEN` promises that corrupt input cannot trigger a huge
//! allocation. A sequence's element count is checked against the bytes
//! left, but one byte of input may claim an element of any in-memory
//! size, so reserving the claimed count up front could request
//! `count × size_of::<T>()` bytes before the first element fails to
//! decode.
//!
//! This test binary installs its own global allocator that records the
//! largest single request, and holds this one test only, so no other
//! test's allocations land in the record.

use congest::netplane::{Reader, Wire, WireError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Recording;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; recording a size touches no
// allocated memory.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Recording = Recording;

const BIG: usize = 64 << 10;

/// A 64 KiB element whose encoding is its bytes.
#[derive(Debug, PartialEq)]
struct Big([u8; BIG]);

impl Wire for Big {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = [0u8; BIG];
        out.copy_from_slice(r.bytes(BIG)?);
        Ok(Big(out))
    }
}

#[test]
fn vec_decoder_reserves_at_most_its_input() {
    // 4,096 claimed elements over 4,096 bytes passes the count check,
    // then the first element runs out of input.
    let mut input = 4096u32.to_wire();
    input.resize(4 + 4096, 0);
    LARGEST.store(0, Ordering::Relaxed);
    let err = Vec::<Big>::from_wire(&input).unwrap_err();
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(matches!(err, WireError::Truncated { .. }), "{err}");
    assert!(
        largest <= input.len(),
        "a failed decode of {} bytes requested {largest} bytes",
        input.len()
    );

    // A valid vector still decodes.
    let valid = vec![Big([7; BIG]), Big([9; BIG])];
    let back = Vec::<Big>::from_wire(&valid.to_wire()).unwrap();
    assert!(back == valid);
}
