//! The one round loop: a generic engine core shared by every runtime.
//!
//! The CONGEST model is a single abstraction — synchronous rounds,
//! bounded-bandwidth edges — and this module implements it exactly once.
//! [`run_range`] owns everything the runtimes used to triplicate:
//! active-set scheduling (the wake frontier, `Wake::At` heap, sticky
//! termination votes), the drop plane, sync-period batching, metrics
//! accounting, and structured [`SimError`] construction. Its network is
//! a [`NetTables`] alone — every message goes where its port's route row
//! says — and it takes no graph. It builds the RNG streams and initial
//! states of the one node range it steps, and nothing else: every
//! engine's world is the union of its shards' ranges. What *varies*
//! between runtimes — how a shard's staged messages and votes reach the
//! other shards — is abstracted behind the [`Transport`] trait.
//!
//! # The `Transport` contract
//!
//! A transport connects one shard (the contiguous node range
//! [`super::shard_range`] assigns it) to its peers through two
//! operations:
//!
//! * [`Transport::stage`] — queue one message for a node another shard
//!   owns. Called only between barriers; a single-shard transport is
//!   never asked to stage anything.
//! * [`Transport::exchange`] — the **one synchronization point per
//!   communication round**. The transport must (a) make this shard's
//!   staged messages and [`RoundFlags`] visible to every peer, (b)
//!   deliver every inbound `(dest, port, msg)` through the provided
//!   callback, and (c) return the [`RoundFlags`] merged over **all**
//!   shards with [`RoundFlags::absorb`]. Every shard must observe the
//!   identical merged value — the core derives termination and the
//!   round-limit diagnostics from it, and shards must take those
//!   transitions in lockstep.
//!
//! Everything else — which nodes step, what they send, which messages
//! the drop plane loses, what the metrics say — is the core's business
//! and therefore identical across runtimes by construction. The
//! differential harnesses (`tests/runtime_equivalence.rs`,
//! `tests/net_equivalence.rs`, `tests/fault_equivalence.rs`) hold the
//! three transports bit-identical on every observable.
//!
//! # Why the merged flags are enough
//!
//! * **Termination.** One rule for both schedules: the run ends at the
//!   first communication round where the summed count of sticky-`Running`
//!   votes is zero. Stepping all, each node's sticky vote *is* this
//!   round's vote, so a zero count is unanimity. Parking, the parking
//!   contract on [`Protocol::next_wake`] makes sticky votes exact at such
//!   rounds.
//! * **Round limit.** [`SimError::RoundLimitExceeded`] reports the last
//!   merged `running` sum as its live nodes (`n` before the first
//!   exchange) and the last round whose merged `progressed` was set as
//!   its progress watermark. Both are exact: votes change and messages
//!   leave only in communication rounds, and every communication round
//!   ends in an exchange.
//!
//! An over-budget message is counted in [`Metrics`], never fatal, so no
//! other way to end a run exists.

use super::barrier::SpinBarrier;
use super::{node_rng, shard_of, RunResult, SimError};
use crate::faults::FaultPlane;
use crate::{
    Inbox, Message, Metrics, NetTables, NodeRng, Outbox, Port, Protocol, Scheduling, SimConfig,
    Status, Wake,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The control word exchanged at every communication-round barrier.
///
/// Merging is associative and commutative, so transports may combine
/// contributions in any order: `running` by sum, `progressed` by or. The
/// default is the merge identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RoundFlags {
    /// Local nodes whose sticky communication-round vote is still
    /// [`Status::Running`]; the run ends when the merged sum is 0.
    pub running: u64,
    /// Whether some local node changed its vote or sent a message this
    /// round.
    pub progressed: bool,
}

impl RoundFlags {
    /// Folds another shard's contribution into this one.
    pub(crate) fn absorb(&mut self, other: &RoundFlags) {
        self.running += other.running;
        self.progressed |= other.progressed;
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
}

/// The trivial transport of a single shard that owns every node: nothing
/// crosses a boundary, the barrier is a no-op, the local flags are the
/// global flags. The sequential engine is the core plus this.
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
}

/// How one round's step set is traversed under active-set scheduling.
enum Sweep {
    /// Step every local node (the always-step reference).
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

/// Builds the RNG streams and initial states of the nodes in `range`
/// and runs them to global termination, synchronizing through
/// `transport` once per communication round. Returns the states of
/// `range` alone (`states[i]` is global node `range.start + i`) and the
/// shard's **local** metrics (`rounds` set to the global count,
/// `bandwidth_bits` to the budget); the caller merges across shards. The
/// sequential engine passes `0..n`; each parallel worker and each
/// netplane shard passes its own slice ([`super::shard_range`]).
///
/// The tables are the whole network the loop reads: each message goes
/// where its port's route row says ([`NetTables::routes_of`]), inboxes
/// are sized by the rows, and `n` is the tables' row count. RNG streams
/// depend only on the seed and each node's network index (which
/// [`NetTables::induced`] tables keep), and contexts are views of `net`,
/// so shards of any partition build the same rows. The run's drop plane
/// is a pure function of `(config, salt)`, so every shard holds the
/// identical trace. Errors are constructed from globally-merged flags,
/// so every shard returns the identical [`SimError`]. An empty network
/// has no round 0 to terminate at: it returns zero-round metrics at once.
///
/// # Panics
///
/// Panics if the protocol stages a message in a round its declared
/// [`Protocol::sync_period`] marks silent — a protocol bug, like a
/// duplicate send on a port.
#[allow(clippy::too_many_lines)]
pub(crate) fn run_range<P: Protocol, T: Transport<P::Msg>>(
    protocol: &P,
    config: &SimConfig,
    net: &NetTables,
    range: Range<usize>,
    transport: &mut T,
) -> Result<RunResult<P::State>, SimError> {
    let n = net.rows();
    let start = range.start;
    let local_n = range.len();
    let mut rngs: Vec<NodeRng> = range
        .clone()
        .map(|v| node_rng(config.rng_seed(), net.global_index(v as u32)))
        .collect();
    let mut states: Vec<P::State> = range
        .clone()
        .zip(rngs.iter_mut())
        .map(|(v, rng)| protocol.init(&net.ctx(v as u32, 0), rng))
        .collect();
    let period = protocol.sync_period().max(1);
    // A protocol declaring `sync_period` `p` may pack `p` rounds' worth
    // of per-edge bandwidth into each communication-round message. The
    // budget is the network's, also where `net` simulates a part of it.
    let budget = config
        .bandwidth_bits(net.network_n())
        .saturating_mul(period);
    let mut metrics = Metrics {
        bandwidth_bits: budget,
        ..Metrics::default()
    };
    if n == 0 {
        return Ok(RunResult { states, metrics });
    }
    let plane = config
        .faults
        .as_ref()
        .map(|f| FaultPlane::new(f, config.rng_salt));

    // At most one delivery per port per round: degree-sized inboxes keep
    // the steady state allocation-free.
    let inboxes = || -> Vec<Inbox<P::Msg>> {
        (0..local_n)
            .map(|i| Inbox::with_capacity(net.routes_of((start + i) as u32).len()))
            .collect()
    };
    let mut cur = inboxes();
    let mut next = inboxes();
    let mut out: Outbox<P::Msg> = Outbox::new(0);

    // The schedule is fixed for the whole run, identically on every shard.
    let active = config.scheduling == Scheduling::ActiveSet;

    // Sticky votes: each local node's latest communication-round vote.
    // While a node is parked its sticky vote stands in for it (the
    // parking contract on `Protocol::next_wake` makes that exact). So a
    // zero global sum of `running` counts is exactly the round where
    // every node votes `Done`, under either schedule.
    let mut sticky: Vec<Status> = vec![Status::Running; local_n];
    let mut running: u64 = local_n as u64;
    // Round-limit diagnostics, read from each merged word.
    let mut live_nodes = n as u64;
    let mut last_progress_round = 0;

    // Frontier machinery over local indices (untouched when `!active`):
    // `frontier` holds this round's wakes, `next_frontier` the next
    // round's, and `stamp` deduplicates insertions. `heap_round[i]` is
    // node i's pending `Wake::At` target (`u64::MAX` for none), and every
    // pending target has an entry in `heap`. A node that re-parks to its pending target pushes nothing,
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
    if active {
        frontier = (0..local_n as u32).collect(); // round 0 wakes everyone
        next_frontier = Vec::with_capacity(local_n);
        stamp = vec![0; local_n];
        in_cur = vec![false; local_n];
        heap_round = vec![u64::MAX; local_n];
    }

    for round in 0..config.max_rounds {
        // Communication rounds carry messages and termination votes; the
        // `period - 1` rounds in between are declared-silent local
        // computation (see `Protocol::sync_period`).
        let comm = round.is_multiple_of(period);
        if active {
            // Assemble this round's frontier: last round's wakes are
            // already in `frontier`; add matured `Wake::At` requests.
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
        }
        let mut progressed = false;

        let sweep = if !active {
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
            let ctx = net.ctx(v as u32, round);
            cur[i].finalize();
            out.reset(ctx.degree());
            metrics.stepped_nodes += 1;
            let status = protocol.round(&mut states[i], &ctx, &mut rngs[i], &cur[i], &mut out);
            cur[i].clear();
            if comm && status != sticky[i] {
                match status {
                    Status::Done => running -= 1,
                    Status::Running => running += 1,
                }
                sticky[i] = status;
                progressed = true;
            }
            if active {
                match protocol.next_wake(&states[i], &ctx, status) {
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
            let routes = net.routes_of(v as u32);
            for (port, msg) in out.drain() {
                progressed = true;
                metrics.record_message(msg.bits(), budget);
                if plane
                    .as_ref()
                    .is_some_and(|p| p.drops(round, v as u32, port))
                {
                    metrics.faults_dropped += 1;
                    continue;
                }
                let (dest, arrival) = routes[port as usize];
                let dest = dest as usize;
                if range.contains(&dest) {
                    let li = dest - start;
                    next[li].push(arrival, msg);
                    if active {
                        // Message arrivals always wake their destination.
                        wake(&mut stamp, &mut next_frontier, li, round + 1);
                    }
                } else {
                    transport.stage(dest as u32, arrival, msg);
                }
            }
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

        // The barrier: publish, deliver inbound (arrivals wake their
        // destinations — this is where peer shards' wake lists merge
        // into the local frontier), and merge the flags.
        let flags = RoundFlags {
            running,
            progressed,
        };
        let merged = transport.exchange(flags, &mut |dest, port, msg| {
            let li = dest as usize - start;
            next[li].push(port, msg);
            if active {
                wake(&mut stamp, &mut next_frontier, li, round + 1);
            }
        });
        std::mem::swap(&mut cur, &mut next);
        if active {
            std::mem::swap(&mut frontier, &mut next_frontier);
            next_frontier.clear();
        }
        if merged.running == 0 {
            return Ok(RunResult { states, metrics });
        }
        live_nodes = merged.running;
        if merged.progressed {
            last_progress_round = round;
        }
    }
    Err(SimError::RoundLimitExceeded {
        limit: config.max_rounds,
        phase: config.phase_label.clone(),
        live_nodes,
        last_progress_round,
    })
}

/// Shared flag slots of the in-process parallel transport, rotated over
/// three sync epochs with the same discipline as the mailbox parities:
/// every shard absorbs its flags into the slot in phase A (before the
/// barrier) and reads the merged value in phase B (after), and shard 0
/// resets the slot to the merge identity two syncs later — the earliest
/// point at which the barrier ordering proves no reader or writer can
/// still touch the slot. (An unrotated slot would let a shard observe a
/// value published one sync in the future and break early, deserting its
/// peers at the next barrier.)
#[derive(Default)]
pub(crate) struct SharedFlags {
    /// The [`RoundFlags`] merged so far for each slot.
    merged: [Mutex<RoundFlags>; 3],
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
    /// Node count: with `threads`, fixes which shard owns a destination.
    n: usize,
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
        n: usize,
        mailboxes: &'a [Vec<MailCell<M>>],
        barrier: &'a SpinBarrier,
        flags: &'a SharedFlags,
    ) -> Self {
        MailboxTransport {
            shard,
            threads,
            n,
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
        let ds = shard_of(self.n, self.threads, dest as usize);
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
        self.flags.merged[slot]
            .lock()
            .expect("no poisoned lock")
            .absorb(&local);

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
        let merged = *self.flags.merged[slot].lock().expect("no poisoned lock");
        if self.shard == 0 {
            // Reset the slot for sync + 2: its last readers finished in
            // phase B of sync - 1, which happens-before this phase B; its
            // next writers start in phase A of sync + 2, which
            // happens-after (see `parallel.rs`).
            let reset = ((self.sync + 2) % 3) as usize;
            *self.flags.merged[reset].lock().expect("no poisoned lock") = RoundFlags::default();
        }
        self.sync += 1;
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_flags_merge_is_sum_or() {
        let mut a = RoundFlags {
            running: 3,
            progressed: false,
        };
        a.absorb(&RoundFlags {
            running: 2,
            progressed: true,
        });
        assert_eq!(
            a,
            RoundFlags {
                running: 5,
                progressed: true,
            }
        );
        // The default is the identity, and a set flag stays set.
        let before = a;
        a.absorb(&RoundFlags::default());
        assert_eq!(a, before);
        let mut quiet = RoundFlags::default();
        quiet.absorb(&RoundFlags {
            running: 1,
            progressed: false,
        });
        assert!(!quiet.progressed);
    }
}
