//! Heap-allocation counting for the benchmark harness.
//!
//! [`CountingAllocator`] wraps the system allocator and counts every
//! `alloc`/`realloc` call (frees are not counted: the metric of interest
//! is how often the hot path *requests* memory). The `harness` binary
//! always installs it as its global allocator; the counters are a pair of
//! relaxed atomics, a cost the model-metric gate can afford because wall
//! time is measured by `perfbench`, not here.
//!
//! The `allocs_per_round` measurement of the bench registry is computed
//! from [`snapshot`] deltas around a simulation run, and only when
//! [`counting`] confirms the allocator is installed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts allocation requests.
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Whether a [`CountingAllocator`] is this process's global allocator:
/// probes with one fresh allocation and watches the counter move.
#[must_use]
pub fn counting() -> bool {
    let before = snapshot().0;
    drop(std::hint::black_box(Vec::<u8>::with_capacity(1)));
    snapshot().0 > before
}

/// Current `(allocation calls, bytes requested)` totals. Zero forever
/// unless the counting allocator is installed.
#[must_use]
pub fn snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_monotone_and_idle_without_the_allocator() {
        let (a, b) = snapshot();
        let _v: Vec<u64> = (0..64).collect();
        let (a2, b2) = snapshot();
        assert!(a2 >= a && b2 >= b);
        // The test binary runs on the system allocator.
        assert!(!counting());
    }
}
