//! The one round loop: a generic engine core shared by every runtime.
//!
//! The CONGEST model is a single abstraction — synchronous rounds,
//! bounded-bandwidth edges — and this module implements it exactly once.
//! [`drive`] owns everything the runtimes used to triplicate: active-set
//! scheduling (the wake frontier, `Wake::At` heap, sticky termination
//! votes with the crash-probe latch), fault-plane send/delivery fates,
//! sync-period batching, strict-bandwidth abort ordering, metrics
//! accounting, and structured [`SimError`] construction. What *varies*
//! between runtimes — how a shard's staged messages and votes reach the
//! other shards — is abstracted behind the [`Transport`] trait.
//!
//! # The `Transport` contract
//!
//! A transport connects one shard (a contiguous node range
//! `[start, start + local_n)`) to its peers through three operations:
//!
//! * [`Transport::stage`] — queue one message for a node another shard
//!   owns. Called only between barriers; a single-shard transport is
//!   never asked to stage anything.
//! * [`Transport::exchange`] — the **one synchronization point per
//!   communication round**. The transport must (a) make this shard's
//!   staged messages and [`RoundFlags`] visible to every peer, (b)
//!   deliver every inbound `(dest, port, msg)` through the provided
//!   callback, and (c) return the [`RoundFlags`] merged over **all**
//!   shards (AND of `all_done`, sums of `running`/`proj_running`,
//!   min-by-node `violation`). Every shard must observe the identical
//!   merged value — the core derives termination, strict-bandwidth
//!   aborts, and the crash-probe latch from it, and shards must take
//!   those transitions in lockstep.
//! * [`Transport::watchdog`] — called once, only on the round-limit
//!   path: globalize the diagnostics (sum of live nodes, max of
//!   last-progress rounds) for [`SimError::RoundLimitExceeded`].
//!
//! Everything else — which nodes step, what they send, how faults bite,
//! what the metrics say — is the core's business and therefore identical
//! across runtimes by construction. The differential harnesses
//! (`tests/runtime_equivalence.rs`, `tests/net_equivalence.rs`,
//! `tests/fault_equivalence.rs`) hold the three transports bit-identical
//! on every observable.
//!
//! # Why the merged flags are enough
//!
//! * **Termination.** Stepping all: unanimity is the AND over shards of
//!   the local ANDs (crashed nodes are skipped — they vote `Done`
//!   implicitly). Parking: the run ends when the summed count of
//!   non-crashed sticky-`Running` votes hits zero — exactly when the
//!   always-step reference would see unanimity (the parking contract on
//!   [`Protocol::next_wake`] makes sticky votes exact at such rounds).
//! * **Crash-probe latch.** When a scheduled crash removes the last
//!   sticky-`Running` vote, parked votes may go stale, so the engine
//!   must fall back to stepping everyone. Each shard publishes a
//!   one-round-ahead *projection* of its running count under the
//!   plane's statically-known crash/recovery events; a zero merged
//!   projection latches every shard back to the classic schedule on the
//!   same round.
//! * **Strict bandwidth.** Each shard reports its first violation in
//!   node order as `(node, bits)`; min-by-node across shards is the
//!   message the sequential sweep (which steps in index order) would
//!   have aborted on. The abort happens *after* the exchange, so every
//!   shard leaves the barrier protocol cleanly at the same round.

use super::barrier::SpinBarrier;
use super::{node_rng, SimError};
use crate::faults::{Fate, FaultPlane};
use crate::{
    Inbox, Message, Metrics, NetTables, NodeCtx, NodeRng, Outbox, Port, Protocol, SimConfig,
    Status, Wake,
};
use graphs::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The control word exchanged at every communication-round barrier.
///
/// Merging is associative and commutative, so transports may combine
/// contributions in any order: `all_done` by AND, `running` and
/// `proj_running` by sum, `violation` by minimum node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoundFlags {
    /// AND of this shard's termination votes this round (crashed nodes
    /// excepted — they vote `Done` implicitly).
    pub all_done: bool,
    /// Non-crashed local nodes whose sticky communication-round vote is
    /// still [`Status::Running`].
    pub running: u64,
    /// Projection of `running` for the next round under the fault
    /// plane's scheduled crash/recovery events (0 when irrelevant).
    pub proj_running: u64,
    /// First strict-bandwidth violation this round in local node order,
    /// as `(node index, message bits)`; `None` outside strict mode.
    pub violation: Option<(u32, u64)>,
}

impl RoundFlags {
    /// Folds another shard's contribution into this one.
    pub(crate) fn absorb(&mut self, other: &RoundFlags) {
        self.all_done &= other.all_done;
        self.running += other.running;
        self.proj_running += other.proj_running;
        self.violation = match (self.violation, other.violation) {
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
            (a, b) => a.or(b),
        };
    }
}

/// A runtime's side of the round loop: how staged messages and round
/// flags travel between shards. See the [module docs](self) for the full
/// contract.
pub(crate) trait Transport<M> {
    /// Queues one message for a node owned by another shard
    /// (`dest` is a global node index, `port` the arrival port).
    fn stage(&mut self, dest: u32, port: Port, msg: M);

    /// The communication-round barrier: publish `local` and the staged
    /// batches, deliver every inbound message through `deliver`, and
    /// return the flags merged over all shards (identical everywhere).
    fn exchange(&mut self, local: RoundFlags, deliver: &mut dyn FnMut(u32, Port, M)) -> RoundFlags;

    /// Globalizes the round-limit diagnostics: returns
    /// `(sum of live, max of last_progress)` over all shards. Called at
    /// most once, after the last round, and only when no shard
    /// terminated or aborted — so every shard calls it together.
    fn watchdog(&mut self, live: u64, last_progress: u64) -> (u64, u64);
}

/// The trivial transport of a single shard that owns every node: nothing
/// crosses a boundary, the barrier is a no-op, the local flags are the
/// global flags. [`SequentialRuntime`](super::SequentialRuntime) is the
/// core plus this.
pub(crate) struct LocalTransport;

impl<M> Transport<M> for LocalTransport {
    fn stage(&mut self, dest: u32, _port: Port, _msg: M) {
        unreachable!("single-shard transport asked to stage a message for node {dest}");
    }
    fn exchange(
        &mut self,
        local: RoundFlags,
        _deliver: &mut dyn FnMut(u32, Port, M),
    ) -> RoundFlags {
        local
    }
    fn watchdog(&mut self, live: u64, last_progress: u64) -> (u64, u64) {
        (live, last_progress)
    }
}

/// One shard's slice of the deterministic world, indexed so that local
/// node `i` is global node `start + i`. The caller builds (and keeps) the
/// slices — runtimes that must return full-length state vectors
/// (sequential, netplane) pass sub-slices of them.
pub(crate) struct ShardWorld<'a, P: Protocol> {
    /// Global index of local node 0.
    pub start: usize,
    /// Contexts of the owned nodes (global `index`/`ident` preserved).
    pub ctxs: &'a mut [NodeCtx],
    /// States of the owned nodes.
    pub states: &'a mut [P::State],
    /// RNG streams of the owned nodes.
    pub rngs: &'a mut [NodeRng],
    /// The run's fault schedule, if any — a pure function of
    /// `(config, salt, n)`, so every shard holds the identical trace.
    pub plane: Option<&'a FaultPlane>,
}

/// Derives the per-node `(rng, state)` world for the contexts of one
/// shard, where `ctxs[i]` is global node `start + i`. RNG streams depend
/// only on `(seed, global index)`, so shards of any partition build the
/// same world rows.
pub(crate) fn init_nodes<P: Protocol>(
    protocol: &P,
    config: &SimConfig,
    ctxs: &[NodeCtx],
    start: usize,
) -> (Vec<NodeRng>, Vec<P::State>) {
    let mut rngs: Vec<NodeRng> = (0..ctxs.len())
        .map(|i| node_rng(config.rng_seed(), (start + i) as u32))
        .collect();
    let states = ctxs
        .iter()
        .zip(rngs.iter_mut())
        .map(|(c, r)| protocol.init(c, r))
        .collect();
    (rngs, states)
}

/// The aggregated per-communication-round bandwidth budget: a protocol
/// declaring [`Protocol::sync_period`] `p` may pack `p` rounds' worth of
/// per-edge bandwidth into each communication-round message.
pub(crate) fn round_budget(config: &SimConfig, n: usize, period: u64) -> u64 {
    config.bandwidth_bits(n).saturating_mul(period)
}

/// How one round's step set is traversed under active-set scheduling.
enum Sweep {
    /// Step every local node (always-step reference, or a latched probe).
    All,
    /// Step the sorted sparse frontier.
    Sparse,
    /// Scan all local indices against the frontier membership flags —
    /// preserves index order without sorting when the frontier is a
    /// large fraction of the shard.
    Dense,
}

/// Marks local node `i` as scheduled for round `t`, deduplicating via the
/// stamp array (`stamp[i] == t` ⇔ already queued for `t`).
#[inline]
fn wake(stamp: &mut [u64], queue: &mut Vec<u32>, i: usize, t: u64) {
    if stamp[i] != t {
        stamp[i] = t;
        queue.push(i as u32);
    }
}

/// Runs `protocol` on this shard's slice of `graph` to global
/// termination, synchronizing through `transport` once per communication
/// round. Returns the shard's **local** metrics (`rounds` set to the
/// global count, `bandwidth_bits` to the budget); the caller merges
/// across shards. Errors are constructed from globally-merged flags, so
/// every shard returns the identical [`SimError`].
///
/// The caller must handle `n == 0` itself (an empty graph has no round 0
/// to terminate at) and must pass a non-empty graph here.
///
/// # Panics
///
/// Panics if the protocol stages a message in a round its declared
/// [`Protocol::sync_period`] marks silent — a protocol bug, like a
/// duplicate send on a port.
#[allow(clippy::too_many_lines)]
pub(crate) fn drive<P: Protocol, T: Transport<P::Msg>>(
    graph: &Graph,
    protocol: &P,
    config: &SimConfig,
    net: &NetTables,
    world: ShardWorld<'_, P>,
    transport: &mut T,
) -> Result<Metrics, SimError> {
    let n = graph.n();
    let ShardWorld {
        start,
        ctxs,
        states,
        rngs,
        plane,
    } = world;
    let local_n = ctxs.len();
    let local = start..start + local_n;
    let period = protocol.sync_period().max(1);
    let budget = round_budget(config, n, period);
    let mut metrics = Metrics {
        bandwidth_bits: budget,
        ..Metrics::default()
    };

    // A duplicating plane can deliver two copies per port in one round;
    // size inboxes for it so the steady state stays allocation-free.
    let dups = config
        .faults
        .as_ref()
        .is_some_and(|f| f.dup_per_million > 0);
    let mut cur: Vec<Inbox<P::Msg>> = (0..local_n)
        .map(|i| {
            Inbox::with_capacity(Inbox::<P::Msg>::round_capacity(
                graph.degree((start + i) as u32),
                dups,
            ))
        })
        .collect();
    let mut next: Vec<Inbox<P::Msg>> = (0..local_n)
        .map(|i| {
            Inbox::with_capacity(Inbox::<P::Msg>::round_capacity(
                graph.degree((start + i) as u32),
                dups,
            ))
        })
        .collect();
    let mut out: Outbox<P::Msg> = Outbox::new(0);

    let has_crashes = plane.is_some_and(FaultPlane::has_crashes);
    // One rule for every transport: `Scheduling::effective` gates the
    // frontier identically on all shards, and all later transitions (the
    // probe latch) are driven by the merged flags, so shards always
    // agree on the mode.
    let mut active = config.scheduling.effective(has_crashes, period);

    // Sticky votes: each local node's latest communication-round vote.
    // While a node is parked its sticky vote stands in for it (the
    // parking contract on `Protocol::next_wake` makes that exact), so a
    // zero global sum of `running` counts is exactly the round where the
    // always-step reference would see unanimity.
    let mut sticky: Vec<Status> = vec![Status::Running; local_n];
    let mut running: u64 = local_n as u64;
    let mut last_progress: u64 = 0;

    // Frontier machinery over local indices (untouched when `!active`):
    // `frontier` holds this round's wakes, `next_frontier` the next
    // round's, `stamp` deduplicates insertions, and the crash/recovery
    // event lists feed the plane's edges into the running count and the
    // wake queue. `heap_round[i]` is node i's pending `Wake::At` target
    // (`u64::MAX` for none), and every pending target has an entry in
    // `heap`. A node that re-parks to its pending target pushes nothing,
    // so a node parking to the same round on every wake holds one entry,
    // however often arrivals wake it. Only `Next`, `Message`, or a target
    // ≤ the next round cancel the pending target. A popped entry wakes
    // its node only if its target is still pending, and that wake clears
    // it: a cancelled or replaced entry wakes nobody, and one re-requested
    // after a cancel wakes the node once.
    let mut frontier: Vec<u32> = Vec::new();
    let mut next_frontier: Vec<u32> = Vec::new();
    let mut stamp: Vec<u64> = Vec::new();
    let mut in_cur: Vec<bool> = Vec::new();
    let mut heap: BinaryHeap<(Reverse<u64>, u32)> = BinaryHeap::new();
    let mut heap_round: Vec<u64> = Vec::new();
    let mut crash_events: Vec<(u64, u32)> = Vec::new();
    let mut recovery_events: Vec<(u64, u32)> = Vec::new();
    let (mut ci, mut ri) = (0usize, 0usize);
    if active {
        frontier = (0..local_n as u32).collect(); // round 0 wakes everyone
        next_frontier = Vec::with_capacity(local_n);
        stamp = vec![0; local_n];
        in_cur = vec![false; local_n];
        heap_round = vec![u64::MAX; local_n];
        if let Some(p) = plane {
            for i in 0..local_n {
                if let Some((s, e)) = p.crash_window(start + i) {
                    crash_events.push((s, i as u32));
                    if e != u64::MAX {
                        recovery_events.push((e, i as u32));
                    }
                }
            }
            crash_events.sort_unstable();
            recovery_events.sort_unstable();
        }
    }

    let mut terminated = false;
    for round in 0..config.max_rounds {
        // Communication rounds carry messages and termination votes; the
        // `period - 1` rounds in between are declared-silent local
        // computation (see `Protocol::sync_period`).
        let comm = round.is_multiple_of(period);
        if active {
            // Assemble this round's frontier: last round's wakes are
            // already in `frontier`; add matured `Wake::At` requests and
            // fault-plane crash/recovery edges.
            while let Some(&(Reverse(t), i)) = heap.peek() {
                if t > round {
                    break;
                }
                heap.pop();
                if t == round && heap_round[i as usize] == t {
                    heap_round[i as usize] = u64::MAX;
                    wake(&mut stamp, &mut frontier, i as usize, round);
                }
            }
            while ci < crash_events.len() && crash_events[ci].0 == round {
                let i = crash_events[ci].1 as usize;
                ci += 1;
                if sticky[i] == Status::Running {
                    running -= 1;
                }
            }
            while ri < recovery_events.len() && recovery_events[ri].0 == round {
                let i = recovery_events[ri].1 as usize;
                ri += 1;
                if sticky[i] == Status::Running {
                    running += 1;
                }
                wake(&mut stamp, &mut frontier, i, round);
            }
        }
        let stepping_all = !active;
        let mut all_done = true;
        let mut progressed = false;
        let mut violation: Option<(u32, u64)> = None;

        let sweep = if stepping_all {
            Sweep::All
        } else if frontier.len() * 4 >= local_n {
            for &i in &frontier {
                in_cur[i as usize] = true;
            }
            Sweep::Dense
        } else {
            frontier.sort_unstable();
            Sweep::Sparse
        };
        let count = match sweep {
            Sweep::All | Sweep::Dense => local_n,
            Sweep::Sparse => frontier.len(),
        };
        for s in 0..count {
            let i = match sweep {
                Sweep::All => s,
                Sweep::Sparse => frontier[s] as usize,
                Sweep::Dense => {
                    if !in_cur[s] {
                        continue;
                    }
                    in_cur[s] = false;
                    s
                }
            };
            let v = start + i;
            if let Some(p) = plane {
                if p.is_crashed(v, round) {
                    // Crashed node: not stepped, sends nothing, votes
                    // Done implicitly (see `faults` module docs). Its
                    // crashed node-rounds are counted analytically at
                    // termination.
                    continue;
                }
            }
            ctxs[i].round = round;
            cur[i].finalize();
            out.reset(graph.degree(v as u32));
            metrics.stepped_nodes += 1;
            let status = protocol.round(&mut states[i], &ctxs[i], &mut rngs[i], &cur[i], &mut out);
            cur[i].clear();
            all_done &= status == Status::Done;
            if comm && status != sticky[i] {
                match status {
                    Status::Done => running -= 1,
                    Status::Running => running += 1,
                }
                sticky[i] = status;
                progressed = true;
            }
            if active {
                match protocol.next_wake(&states[i], &ctxs[i], status) {
                    // Re-parking to the pending target keeps its entry.
                    Wake::At(t) if t > round + 1 => {
                        if heap_round[i] != t {
                            heap_round[i] = t;
                            heap.push((Reverse(t), i as u32));
                        }
                    }
                    Wake::Next | Wake::At(_) => {
                        heap_round[i] = u64::MAX;
                        wake(&mut stamp, &mut next_frontier, i, round + 1);
                    }
                    Wake::Message => heap_round[i] = u64::MAX,
                }
            }
            assert!(
                comm || out.is_empty(),
                "protocol declared sync_period {period} but node {v} sent in silent round {round}"
            );
            for (port, msg) in out.drain() {
                progressed = true;
                let bits = msg.bits();
                metrics.record_message(bits, budget);
                if config.strict_bandwidth && bits > budget && violation.is_none() {
                    // First violation in local node order; the exchange
                    // min-merges across shards to the globally first.
                    violation = Some((v as u32, bits));
                }
                let copies = match plane.map_or(Fate::Deliver, |p| p.fate(round, v as u32, port)) {
                    Fate::Drop => {
                        metrics.faults_dropped += 1;
                        0
                    }
                    Fate::Deliver => 1,
                    Fate::Duplicate => {
                        metrics.faults_duplicated += 1;
                        2
                    }
                };
                if copies == 0 {
                    continue;
                }
                let dest = graph.neighbors(v as u32)[port as usize] as usize;
                // Delivery lands at round + 1; a receiver crashed then
                // loses the message (and any duplicate of it). Charged
                // at the sender — the plane is shared knowledge.
                if plane.is_some_and(|p| p.is_crashed(dest, round + 1)) {
                    metrics.crash_drops += 1;
                    continue;
                }
                let arrival = net.reverse_ports_of(v as u32)[port as usize];
                if local.contains(&dest) {
                    let li = dest - start;
                    if copies == 2 {
                        next[li].push(arrival, msg.clone());
                    }
                    next[li].push(arrival, msg);
                    if active {
                        // Message arrivals always wake their destination.
                        wake(&mut stamp, &mut next_frontier, li, round + 1);
                    }
                } else {
                    if copies == 2 {
                        transport.stage(dest as u32, arrival, msg.clone());
                    }
                    transport.stage(dest as u32, arrival, msg);
                }
            }
        }
        if progressed {
            last_progress = round;
        }
        metrics.rounds = round + 1;

        if !comm {
            // Silent round: no messages in flight anywhere, so just
            // rotate buffers locally and move on — no staging, no
            // exchange. Stepped nodes cleared their inboxes at their
            // step and parked ones hold empty inboxes, so the swap alone
            // readies both buffers.
            std::mem::swap(&mut cur, &mut next);
            if active {
                std::mem::swap(&mut frontier, &mut next_frontier);
                next_frontier.clear();
            }
            continue;
        }

        // Project this shard's running count at round + 1 by peeking the
        // event cursors without advancing them — the top of round + 1
        // will consume the same events for real. A zero *merged*
        // projection is the only way every shard can latch the crash
        // probe before stepping round + 1. (`active` under crashes
        // forces period == 1, so every round passes here.)
        let mut proj = 0;
        if !stepping_all && has_crashes {
            proj = running;
            let mut cj = ci;
            while cj < crash_events.len() && crash_events[cj].0 == round + 1 {
                let i = crash_events[cj].1 as usize;
                cj += 1;
                if sticky[i] == Status::Running {
                    proj -= 1;
                }
            }
            let mut rj = ri;
            while rj < recovery_events.len() && recovery_events[rj].0 == round + 1 {
                let i = recovery_events[rj].1 as usize;
                rj += 1;
                if sticky[i] == Status::Running {
                    proj += 1;
                }
            }
        }

        // The barrier: publish, deliver inbound (arrivals wake their
        // destinations — this is where peer shards' wake lists merge
        // into the local frontier), and merge the flags.
        let merged = transport.exchange(
            RoundFlags {
                all_done,
                running,
                proj_running: proj,
                violation,
            },
            &mut |dest, port, msg| {
                let li = dest as usize - start;
                next[li].push(port, msg);
                if active {
                    wake(&mut stamp, &mut next_frontier, li, round + 1);
                }
            },
        );
        std::mem::swap(&mut cur, &mut next);
        if active {
            std::mem::swap(&mut frontier, &mut next_frontier);
            next_frontier.clear();
        }
        if let Some((_, bits)) = merged.violation {
            // Globally-first violating message: lowest node index across
            // shards this round — the message a single index-ordered
            // sweep would have aborted at. Post-exchange, so every shard
            // leaves the barrier protocol cleanly with this same error.
            return Err(SimError::Bandwidth {
                round,
                bits,
                limit: budget,
            });
        }
        if if stepping_all {
            merged.all_done
        } else {
            // Zero sticky-Running votes globally ⇔ the always-step
            // reference would see unanimity.
            merged.running == 0
        } {
            terminated = true;
            break;
        }
        // A zero projected running count for round + 1 can only come
        // from crash events there: a crash is about to remove the last
        // Running vote, after which a parked node's sticky vote may
        // disagree with what it would vote in any given round (the
        // contract only pins votes at rounds where unanimity is
        // otherwise possible). Latch a probe — step every node every
        // round with the classic unanimity check, permanently — in
        // lockstep across shards.
        if !stepping_all && has_crashes && merged.proj_running == 0 {
            active = false;
        }
    }
    if terminated {
        // Crashed node-rounds, analytically: the engine never scans
        // crashed nodes, so count each local crash window's overlap with
        // the rounds actually executed (every shard broke at the same
        // round, so `metrics.rounds` is the global count here).
        if let Some(p) = plane {
            let r = metrics.rounds;
            for i in 0..local_n {
                if let Some((s, e)) = p.crash_window(start + i) {
                    metrics.crashed_rounds += e.min(r) - s.min(r);
                }
            }
        }
        return Ok(metrics);
    }
    // Live nodes: still voting Running per their latest (sticky)
    // communication-round vote, excluding nodes the plane had crashed
    // when the limit hit — crashed nodes vote Done implicitly and must
    // not be reported as live work.
    let last = config.max_rounds.saturating_sub(1);
    let live = (0..local_n)
        .filter(|&i| {
            sticky[i] == Status::Running && !plane.is_some_and(|p| p.is_crashed(start + i, last))
        })
        .count() as u64;
    let (live_nodes, last_progress_round) = transport.watchdog(live, last_progress);
    Err(SimError::RoundLimitExceeded {
        limit: config.max_rounds,
        phase: config.phase_label.clone(),
        live_nodes,
        last_progress_round,
    })
}

/// Shared flag slots of the in-process parallel transport, rotated over
/// three sync epochs with the same discipline as the mailbox parities:
/// written in phase A (before the barrier), read in phase B (after), and
/// reset by shard 0 two syncs later — the earliest point at which the
/// barrier ordering proves no reader or writer can still touch the slot.
/// (An unrotated slot would let a shard observe a value published one
/// sync in the future and break early, deserting its peers at the next
/// barrier.)
pub(crate) struct SharedFlags {
    /// AND of `all_done`: initialized `true`, cleared by any shard whose
    /// local AND is false.
    done: [AtomicBool; 3],
    /// Sum of sticky-Running counts.
    running: [AtomicU64; 3],
    /// Sum of next-round running projections.
    proj: [AtomicU64; 3],
    /// Min-by-node strict-bandwidth violation. A mutex, not an atomic:
    /// touched only in strict mode, where violations abort the run.
    violation: [Mutex<Option<(u32, u64)>>; 3],
    /// Round-limit diagnostics, written once per shard on that path.
    live_total: AtomicU64,
    progress_max: AtomicU64,
}

impl SharedFlags {
    pub(crate) fn new() -> Self {
        SharedFlags {
            done: [
                AtomicBool::new(true),
                AtomicBool::new(true),
                AtomicBool::new(true),
            ],
            running: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            proj: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            violation: [Mutex::new(None), Mutex::new(None), Mutex::new(None)],
            live_total: AtomicU64::new(0),
            progress_max: AtomicU64::new(0),
        }
    }
}

/// One staged cross-shard message: destination node index, arrival port,
/// payload.
type Staged<M> = (u32, Port, M);

/// One direction of one shard pair: two parity buffers, each with the
/// epoch stamp of its most recent non-empty publish.
///
/// The stamp is per *parity buffer*, not per cell: a consumer's phase B
/// of sync `k` runs concurrently with the producer's phase A of sync
/// `k + 1`, so a shared stamp could be overwritten (to `k + 2`) before
/// the consumer compares it against `k + 1` — silently skipping a full
/// batch.
pub(crate) struct MailCell<M> {
    bufs: [Mutex<Vec<Staged<M>>>; 2],
    epochs: [AtomicU64; 2],
}

impl<M> MailCell<M> {
    pub(crate) fn new() -> Self {
        MailCell {
            bufs: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
            epochs: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

/// The in-process parallel transport: one worker thread per shard,
/// parity-double-buffered mailbox cells for the batches, a spin barrier
/// as the sync point, and epoch-rotated [`SharedFlags`] for the control
/// word (see `parallel.rs` for the single-barrier protocol argument).
pub(crate) struct MailboxTransport<'a, M> {
    shard: usize,
    threads: usize,
    chunk: usize,
    strict: bool,
    /// Completed synchronizations; drives the cell parity and slot
    /// rotation. Equals the round number while `sync_period == 1`.
    sync: u64,
    /// Private outgoing batch per destination shard, reused (and
    /// capacity-recycled via the publish swap) every sync.
    out_bufs: Vec<Vec<Staged<M>>>,
    mailboxes: &'a [Vec<MailCell<M>>],
    barrier: &'a SpinBarrier,
    flags: &'a SharedFlags,
}

impl<'a, M> MailboxTransport<'a, M> {
    pub(crate) fn new(
        shard: usize,
        threads: usize,
        chunk: usize,
        strict: bool,
        mailboxes: &'a [Vec<MailCell<M>>],
        barrier: &'a SpinBarrier,
        flags: &'a SharedFlags,
    ) -> Self {
        MailboxTransport {
            shard,
            threads,
            chunk,
            strict,
            sync: 0,
            out_bufs: (0..threads).map(|_| Vec::new()).collect(),
            mailboxes,
            barrier,
            flags,
        }
    }
}

impl<M> Transport<M> for MailboxTransport<'_, M> {
    fn stage(&mut self, dest: u32, port: Port, msg: M) {
        let ds = (dest as usize / self.chunk).min(self.threads - 1);
        debug_assert_ne!(ds, self.shard, "local delivery routed through stage");
        self.out_bufs[ds].push((dest, port, msg));
    }

    fn exchange(&mut self, local: RoundFlags, deliver: &mut dyn FnMut(u32, Port, M)) -> RoundFlags {
        let parity = (self.sync % 2) as usize;
        let slot = (self.sync % 3) as usize;
        // ---- Phase A: publish this sync's batches — swap each non-empty
        // private buffer into its parity cell (taking back the buffer
        // drained two syncs ago) and stamp the cell's epoch so consumers
        // can skip empty cells with one atomic load — then the flags.
        for (ds, buf) in self.out_bufs.iter_mut().enumerate() {
            if ds != self.shard && !buf.is_empty() {
                let cell = &self.mailboxes[self.shard][ds];
                {
                    let mut cell_buf = cell.bufs[parity].lock().expect("no poisoned lock");
                    debug_assert!(cell_buf.is_empty(), "cell drained two syncs ago");
                    std::mem::swap(&mut *cell_buf, buf);
                }
                cell.epochs[parity].store(self.sync + 1, Ordering::SeqCst);
            }
        }
        if !local.all_done {
            self.flags.done[slot].store(false, Ordering::SeqCst);
        }
        self.flags.running[slot].fetch_add(local.running, Ordering::SeqCst);
        self.flags.proj[slot].fetch_add(local.proj_running, Ordering::SeqCst);
        if let Some(v) = local.violation {
            let mut g = self.flags.violation[slot].lock().expect("no poisoned lock");
            if g.is_none_or(|cur| v.0 < cur.0) {
                *g = Some(v);
            }
        }

        self.barrier.wait();

        // ---- Phase B: drain the inbound column, read the merged flags.
        for row in self.mailboxes {
            let cell = &row[self.shard];
            if cell.epochs[parity].load(Ordering::SeqCst) == self.sync + 1 {
                let mut cell_buf = cell.bufs[parity].lock().expect("no poisoned lock");
                for (dest, port, msg) in cell_buf.drain(..) {
                    deliver(dest, port, msg);
                }
            }
        }
        let merged = RoundFlags {
            all_done: self.flags.done[slot].load(Ordering::SeqCst),
            running: self.flags.running[slot].load(Ordering::SeqCst),
            proj_running: self.flags.proj[slot].load(Ordering::SeqCst),
            violation: if self.strict {
                *self.flags.violation[slot].lock().expect("no poisoned lock")
            } else {
                None
            },
        };
        if self.shard == 0 {
            // Reset the slots for sync + 2: their last readers finished
            // in phase B of sync - 1, which happens-before this phase B;
            // their next writers start in phase A of sync + 2, which
            // happens-after (see `parallel.rs`).
            let reset = ((self.sync + 2) % 3) as usize;
            self.flags.done[reset].store(true, Ordering::SeqCst);
            self.flags.running[reset].store(0, Ordering::SeqCst);
            self.flags.proj[reset].store(0, Ordering::SeqCst);
            if self.strict {
                *self.flags.violation[reset]
                    .lock()
                    .expect("no poisoned lock") = None;
            }
        }
        self.sync += 1;
        merged
    }

    fn watchdog(&mut self, live: u64, last_progress: u64) -> (u64, u64) {
        // Every shard reaches the round limit together (no shard saw a
        // terminate/abort flag — those are merged, hence unanimous), so
        // one extra barrier separates all contributions from all reads.
        self.flags.live_total.fetch_add(live, Ordering::SeqCst);
        self.flags
            .progress_max
            .fetch_max(last_progress, Ordering::SeqCst);
        self.barrier.wait();
        (
            self.flags.live_total.load(Ordering::SeqCst),
            self.flags.progress_max.load(Ordering::SeqCst),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_flags_merge_is_and_sum_min() {
        let mut a = RoundFlags {
            all_done: true,
            running: 3,
            proj_running: 1,
            violation: Some((7, 100)),
        };
        a.absorb(&RoundFlags {
            all_done: false,
            running: 2,
            proj_running: 0,
            violation: Some((4, 200)),
        });
        assert_eq!(
            a,
            RoundFlags {
                all_done: false,
                running: 5,
                proj_running: 1,
                violation: Some((4, 200)),
            }
        );
        // None never displaces a violation; ties keep the first.
        a.absorb(&RoundFlags {
            all_done: true,
            running: 0,
            proj_running: 0,
            violation: None,
        });
        assert_eq!(a.violation, Some((4, 200)));
        a.absorb(&RoundFlags {
            all_done: true,
            running: 0,
            proj_running: 0,
            violation: Some((4, 999)),
        });
        assert_eq!(a.violation, Some((4, 200)));
    }
}
