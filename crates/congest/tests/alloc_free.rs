//! Lock-down for the allocation-free round invariant (see
//! `congest::message` module docs): once the first rounds have warmed the
//! pooled delivery buffers, a steady-state communication round must not
//! touch the heap — payloads are inline [`SmallIds`], inboxes/outboxes
//! and the parallel transport cells recycle their vectors, and the inbox
//! sort is in-place.
//!
//! This test binary installs its own counting global allocator and runs a
//! list-pipelining protocol (the shape of every hot phase in the paper
//! pipelines) on both engines, snapshotting the allocation counter from
//! inside the protocol after warmup and near the end of the run.

use congest::{
    Inbox, Message, NodeCtx, NodeRng, Outbox, Port, Protocol, SimConfig, SmallIds, Status, Wake,
};
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

type Batch = SmallIds<u64, 8>;

#[derive(Debug, Clone)]
enum PumpMsg {
    Batch(Batch),
}

impl Message for PumpMsg {
    fn bits(&self) -> u64 {
        let PumpMsg::Batch(ids) = self;
        8 + ids
            .iter()
            .map(|&x| congest::BitCost::uint(x).max(1))
            .sum::<u64>()
    }
}

/// Every node broadcasts an inline batch every round and folds whatever
/// arrives — the steady-state skeleton of the pipelined list exchanges.
/// With `park`, every node parks to the last round on every step, and
/// the arrivals wake it each round anyway — the shape of a reduction
/// phase's non-maximal nodes.
struct Pump {
    rounds: u64,
    warm_round: u64,
    park: bool,
}

struct PumpState {
    acc: u64,
}

impl Protocol for Pump {
    type State = PumpState;
    type Msg = PumpMsg;

    fn init(&self, _ctx: &NodeCtx, _rng: &mut NodeRng) -> PumpState {
        PumpState { acc: 0 }
    }

    fn round(
        &self,
        st: &mut PumpState,
        ctx: &NodeCtx,
        _rng: &mut NodeRng,
        inbox: &Inbox<PumpMsg>,
        out: &mut Outbox<PumpMsg>,
    ) -> Status {
        for (_, PumpMsg::Batch(ids)) in inbox.iter() {
            st.acc = st.acc.wrapping_add(ids.iter().sum::<u64>());
        }
        // Snapshot from node 0 only: after warmup, and on the last round.
        if ctx.index == 0 {
            if ctx.round == self.warm_round {
                WARM_SNAPSHOT.store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            if ctx.round == self.rounds - 1 {
                LATE_SNAPSHOT.store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        if ctx.round + 1 >= self.rounds {
            return Status::Done;
        }
        let batch = Batch::from_slice(&[ctx.ident, ctx.round, st.acc & 0xFF, 7]);
        assert!(batch.is_inline(), "test batch must stay inline");
        for p in 0..ctx.degree() as Port {
            out.send(p, PumpMsg::Batch(batch.clone()));
        }
        Status::Running
    }

    fn next_wake(&self, _st: &PumpState, _ctx: &NodeCtx, _status: Status) -> Wake {
        if self.park {
            Wake::At(self.rounds - 1)
        } else {
            Wake::Next
        }
    }
}

/// One test function for both engines: the snapshot statics are shared,
/// so the engine runs must not interleave (and a single test keeps other
/// test threads from allocating inside the measurement window).
#[test]
fn steady_state_rounds_do_not_allocate() {
    let g = graphs::gen::random_regular(256, 8, 3);
    let proto = Pump {
        rounds: 200,
        warm_round: 10,
        park: false,
    };
    let res = congest::run(&g, &proto, &SimConfig::seeded(5)).expect("run");
    assert_eq!(res.metrics.rounds, 200);
    let warm = WARM_SNAPSHOT.load(Ordering::Relaxed);
    let late = LATE_SNAPSHOT.load(Ordering::Relaxed);
    assert!(warm > 0, "snapshots must have been taken");
    assert_eq!(
        late,
        warm,
        "steady-state rounds allocated {} times on the sequential engine",
        late - warm
    );

    // Parallel engine, generous warmup: the cross-shard cells and
    // private batch buffers grow over the first syncs.
    let proto = Pump {
        rounds: 200,
        warm_round: 30,
        park: false,
    };
    let par_cfg = SimConfig::seeded(5).with_runtime(congest::RuntimeMode::Parallel(3));
    let res = congest::run(&g, &proto, &par_cfg).expect("run");
    assert_eq!(res.metrics.rounds, 200);
    let warm = WARM_SNAPSHOT.load(Ordering::Relaxed);
    let late = LATE_SNAPSHOT.load(Ordering::Relaxed);
    assert_eq!(
        late,
        warm,
        "steady-state rounds allocated {} times on the parallel engine",
        late - warm
    );

    // Re-parking to the pending `Wake::At` target on every arrival wake
    // must not grow the wake queue.
    let proto = Pump {
        rounds: 200,
        warm_round: 10,
        park: true,
    };
    let res = congest::run(&g, &proto, &SimConfig::seeded(5)).expect("run");
    assert_eq!(res.metrics.rounds, 200);
    let warm = WARM_SNAPSHOT.load(Ordering::Relaxed);
    let late = LATE_SNAPSHOT.load(Ordering::Relaxed);
    assert_eq!(
        late,
        warm,
        "re-parked steady-state rounds allocated {} times on the sequential engine",
        late - warm
    );
}
