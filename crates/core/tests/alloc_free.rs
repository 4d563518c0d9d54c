//! The allocation-free round invariant, extended to the **similarity
//! exchange** (the congest-side twin, `crates/congest/tests/alloc_free.rs`,
//! covers the engines with a synthetic pump protocol; this binary covers
//! the real protocol whose memory behavior PR 5 rebuilt).
//!
//! With the streaming fold, a steady-state second-stage round performs no
//! heap allocation: arriving batches extend the pre-grown staged tag
//! buffer, the frontier merge sorts in place and bumps the fixed `k × k`
//! counter matrix, and the pump reads the node's own set through a cursor
//! into an inline [`IdBatch`] (whose capacity is clamped to the inline
//! cap — the clamp is load-bearing: an unclamped capacity would spill
//! `SmallIds` to the heap on every message in degenerate configurations).
//!
//! Each integration-test file is its own binary, so the counting global
//! allocator here cannot interfere with other suites.

use congest::{Inbox, NodeCtx, NodeRng, Outbox, Protocol, SimConfig, Status};
use d2core::rand::similarity::{ExactSimilarity, SimMsg, SimilarityState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

static WARM_SNAPSHOT: AtomicU64 = AtomicU64::new(0);
static LATE_SNAPSHOT: AtomicU64 = AtomicU64::new(0);

/// Delegating wrapper: runs the production [`ExactSimilarity`] protocol
/// unchanged, snapshotting the allocation counter (from node 0, at the
/// top of the round body) inside the second-stage steady state.
struct Snapshotting {
    inner: ExactSimilarity,
    warm_round: u64,
    late_round: u64,
}

impl Protocol for Snapshotting {
    type State = SimilarityState;
    type Msg = SimMsg;

    fn init(&self, ctx: &NodeCtx, rng: &mut NodeRng) -> SimilarityState {
        self.inner.init(ctx, rng)
    }

    fn sync_period(&self) -> u64 {
        self.inner.sync_period()
    }

    fn round(
        &self,
        st: &mut SimilarityState,
        ctx: &NodeCtx,
        rng: &mut NodeRng,
        inbox: &Inbox<SimMsg>,
        out: &mut Outbox<SimMsg>,
    ) -> Status {
        if ctx.index == 0 {
            if ctx.round == self.warm_round {
                WARM_SNAPSHOT.store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            if ctx.round == self.late_round {
                LATE_SNAPSHOT.store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        self.inner.round(st, ctx, rng, inbox, out)
    }
}

/// One test function for both engines: the snapshot statics are shared,
/// so the engine runs must not interleave with other allocating tests.
///
/// `random_regular(400, 10)` keeps every node in the pipelined second
/// stage for ~20 rounds (d2 sets of ~110 ids at ~6 ids per message), so
/// rounds 12 and 19 sit deep inside the steady state: batches arriving,
/// frontier merges closing runs, counters bumping — and zero heap
/// traffic between the two snapshots on either engine.
#[test]
fn similarity_steady_state_rounds_do_not_allocate() {
    let g = graphs::gen::random_regular(400, 10, 3);
    let cfg = SimConfig::seeded(5);
    let proto = Snapshotting {
        inner: ExactSimilarity::new(cfg.bandwidth_bits(g.n())),
        warm_round: 12,
        late_round: 19,
    };
    let res = congest::run(&g, &proto, &cfg).expect("sequential run");
    assert!(
        res.metrics.rounds > 21,
        "workload too short to contain the measurement window: {} rounds",
        res.metrics.rounds
    );
    let warm = WARM_SNAPSHOT.load(Ordering::Relaxed);
    let late = LATE_SNAPSHOT.load(Ordering::Relaxed);
    assert!(warm > 0, "snapshots must have been taken");
    assert_eq!(
        late,
        warm,
        "steady-state similarity rounds allocated {} times (sequential engine)",
        late - warm
    );

    // Parallel engine: cross-shard cells grow over the first syncs, so
    // the warm snapshot moves a little later into the window.
    let proto = Snapshotting {
        inner: ExactSimilarity::new(cfg.bandwidth_bits(g.n())),
        warm_round: 14,
        late_round: 19,
    };
    let par_cfg = cfg.clone().with_runtime(congest::RuntimeMode::Parallel(3));
    let res = congest::run(&g, &proto, &par_cfg).expect("parallel run");
    assert!(res.metrics.rounds > 21);
    let warm = WARM_SNAPSHOT.load(Ordering::Relaxed);
    let late = LATE_SNAPSHOT.load(Ordering::Relaxed);
    assert_eq!(
        late,
        warm,
        "steady-state similarity rounds allocated {} times (parallel engine)",
        late - warm
    );
}
