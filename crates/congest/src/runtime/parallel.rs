//! Single-barrier batched-transport parallel engine, selected by
//! [`RuntimeMode::Parallel`](crate::RuntimeMode::Parallel).
//!
//! Nodes are sharded over worker threads by [`super::shard_range`]; each
//! worker runs the shared round-loop core (see the [module docs](super))
//! over its shard through the in-process mailbox transport
//! (`engine::MailboxTransport`) this module's docs specify. A worker
//! builds the RNG streams and initial states of its own shard alone and
//! returns its final states and local metrics through its join handle;
//! the engine concatenates the states in shard order and merges the
//! metrics. Within a round, each worker steps its own nodes; messages
//! crossing shard boundaries are accumulated in
//! per-(source-shard → destination-shard) batch buffers exchanged
//! wholesale at a round barrier — zero per-message channel sends or
//! allocations on the cross-shard path.
//!
//! # The single-barrier protocol
//!
//! Each communication round has two phases: **A** (step nodes, stage
//! outgoing batches, count termination votes) and **B** (drain inbound
//! batches, rotate inboxes, evaluate termination). One barrier separates
//! A from B; there is **no second barrier** between B and the next round's
//! A. The earlier two-barrier design needed the second one so that a fast
//! shard's next publish could not overwrite a batch a slow shard was still
//! draining. That hand-off is now race-free by construction:
//!
//! * **Parity-double-buffered cells.** The mailbox cell for
//!   `(src, dst)` is an array of two buffers indexed by `sync % 2`, where
//!   `sync` counts barriers so far. Phase A of sync `k` writes parity
//!   `k % 2`; phase B of sync `k` drains the same parity. The next write
//!   to that parity happens in phase A of sync `k + 2`. The barrier of
//!   sync `k + 1` sits between — and a shard only reaches it after
//!   finishing its phase B of sync `k` — so every drain strictly precedes
//!   the next overwrite. (Phase B of sync `k` runs concurrently with other
//!   shards' phase A of sync `k + 1`, which touches the *other* parity.)
//! * **Epoch stamps.** Each parity buffer carries an atomic epoch; a
//!   producer publishing a non-empty batch at sync `k` stamps it `k + 1`.
//!   Consumers skip the (uncontended, but not free) cell lock entirely
//!   unless the stamp matches the current sync — the swap handshake
//!   reduced to one atomic load per cell on the empty path. The stamp
//!   lives beside its buffer (not per cell) because phase B of sync `k`
//!   overlaps phase A of sync `k + 1`.
//! * **Epoch-rotated flag slots.** The core's per-round control word
//!   (`RoundFlags`: sticky-running sum, progress bit) lives in three
//!   slots indexed by `sync % 3`: each shard absorbs its flags into the
//!   slot in phase A, reads the merged value in phase B, and shard 0
//!   resets the slot to the merge identity two syncs later — the
//!   earliest point at which the barrier ordering proves no reader or
//!   writer can still touch the slot. (A single, unrotated slot would let
//!   a shard observe a value published one sync in the future and break
//!   early — deserting its peers at the next barrier.)
//!
//! The barrier itself is a sense-reversing spin barrier
//! ([`super::barrier::SpinBarrier`]): worker counts are small and rounds
//! are short, so spinning beats the mutex/condvar handshake of
//! `std::sync::Barrier` by an order of magnitude on light rounds. A panic
//! in any worker (protocol bug) poisons the barrier so the remaining
//! workers panic too instead of deadlocking.
//!
//! # Round batching
//!
//! Protocols declaring a [`Protocol::sync_period`] of `p` communicate only
//! every `p`-th round; the engine then runs the `p - 1` silent rounds
//! between communication rounds entirely locally — no publish, no barrier,
//! no drain — and synchronizes once per `p` simulator rounds.
//!
//! # Active-set scheduling
//!
//! Under the default active-set schedule (see the [module docs](super))
//! each shard keeps a wake frontier over its *local* indices; wakes for
//! nodes in other shards ride in the same epoch-stamped mail cells as the
//! messages that cause them (a drained delivery wakes its destination for
//! the next round in phase B), so parking adds no synchronization beyond
//! the existing barrier. The sticky-vote termination rule rides in the
//! same epoch-rotated `RoundFlags` slots (a zero merged `running` sum is
//! exactly the reference's unanimity).
//!
//! # Determinism
//!
//! Per-node RNG streams depend only on `(seed, index)`, at most one
//! message arrives per port per round (the `Outbox` enforces the CONGEST
//! discipline), and inboxes are sorted by port before delivery, so the
//! observable behavior is bit-identical to the sequential engine
//! ([`RuntimeMode::Sequential`](crate::RuntimeMode::Sequential))
//! regardless of thread interleaving or batch arrival order (asserted by
//! the differential harness and the transport property tests).

use super::barrier::SpinBarrier;
use super::engine::{self, MailCell, MailboxTransport, SharedFlags};
use super::{shard_range, RunResult, SimError};
use crate::{Metrics, NetTables, Protocol, SimConfig};

/// Runs `protocol` on `threads` worker threads (0 = available
/// parallelism), each building and stepping one contiguous shard of the
/// nodes ([`shard_range`]) and handing back that shard's states and local
/// metrics through its join handle.
pub(super) fn execute<P: Protocol>(
    threads: usize,
    protocol: &P,
    config: &SimConfig,
    net: &NetTables,
) -> Result<RunResult<P::State>, SimError> {
    let n = net.rows();
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, usize::from)
    } else {
        threads
    };
    let t = threads.min(n).max(1);

    // The t×t transport matrix: `mailboxes[src][dst]` carries batches
    // from shard `src` to shard `dst`, parity-double-buffered per sync
    // (see the module docs). The same allocations shuttle back and
    // forth for the whole run.
    let mailboxes: Vec<Vec<MailCell<P::Msg>>> = (0..t)
        .map(|_| (0..t).map(|_| MailCell::new()).collect())
        .collect();
    let barrier = SpinBarrier::new(t);
    let flags = SharedFlags::default();

    let results: Vec<Result<RunResult<P::State>, SimError>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..t)
            .map(|shard| {
                let (mailboxes, barrier, flags) = (&mailboxes, &barrier, &flags);
                scope.spawn(move || {
                    // Poison the barrier if this worker unwinds (protocol
                    // bug) so peers panic instead of spinning forever.
                    let _poison = barrier.poison_guard();
                    let mut transport =
                        MailboxTransport::new(shard, t, n, mailboxes, barrier, flags);
                    let range = shard_range(n, t, shard);
                    engine::run_range(protocol, config, net, range, &mut transport)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    // Every shard derives termination and the round-limit error from the
    // same merged flags: either all succeed or all return one error.
    if let Some(err) = results.iter().find_map(|r| r.as_ref().err()) {
        assert!(
            results.iter().all(|r| r.as_ref().err() == Some(err)),
            "shards disagree on the outcome"
        );
        return Err(err.clone());
    }
    let mut states = Vec::with_capacity(n);
    let mut metrics = Metrics::default();
    for (shard, result) in results.into_iter().enumerate() {
        let RunResult {
            states: mine,
            metrics: mut local,
        } = result?;
        // Only shard 0 reports the round count (identical everywhere).
        if shard != 0 {
            local.rounds = 0;
        }
        metrics.absorb(&local);
        states.extend(mine);
    }
    Ok(RunResult { states, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, Inbox, Message, NodeCtx, NodeRng, Outbox, Port, RuntimeMode, Status};
    use graphs::gen;
    use rand::Rng;

    /// `config` on the parallel engine with `threads` workers.
    fn parallel(config: &SimConfig, threads: usize) -> SimConfig {
        config.clone().with_runtime(RuntimeMode::Parallel(threads))
    }

    /// Randomized gossip: each node repeatedly sends a random value to a
    /// random neighbor and tracks the sum of everything it received.
    /// Exercises RNG determinism and cross-shard delivery.
    struct Gossip {
        rounds: u64,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct GossipState {
        sum: u64,
    }

    impl Protocol for Gossip {
        type State = GossipState;
        type Msg = u64;
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) -> GossipState {
            GossipState { sum: 0 }
        }
        fn round(
            &self,
            st: &mut GossipState,
            ctx: &NodeCtx,
            rng: &mut NodeRng,
            inbox: &Inbox<u64>,
            out: &mut Outbox<u64>,
        ) -> Status {
            for &(p, x) in inbox {
                st.sum = st.sum.wrapping_add(x.wrapping_mul(u64::from(p) + 1));
            }
            if ctx.round < self.rounds && ctx.degree() > 0 {
                let port = rng.gen_range(0..ctx.degree()) as Port;
                out.send(port, rng.gen_range(0..1000));
                Status::Running
            } else if ctx.round < self.rounds {
                Status::Running
            } else {
                Status::Done
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_random_graph() {
        let g = gen::gnp_capped(150, 0.08, 10, 77);
        let cfg = SimConfig::seeded(123);
        let p = Gossip { rounds: 25 };
        let seq = run(&g, &p, &cfg).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = run(&g, &p, &parallel(&cfg, threads)).unwrap();
            assert_eq!(
                seq.states.iter().map(|s| s.sum).collect::<Vec<_>>(),
                par.states.iter().map(|s| s.sum).collect::<Vec<_>>(),
                "mismatch with {threads} threads"
            );
            assert_eq!(seq.metrics.rounds, par.metrics.rounds);
            assert_eq!(seq.metrics.messages, par.metrics.messages);
            assert_eq!(seq.metrics.total_bits, par.metrics.total_bits);
        }
    }

    #[test]
    fn parallel_round_limit() {
        struct Forever;
        impl Protocol for Forever {
            type State = ();
            type Msg = ();
            fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
            fn round(
                &self,
                _: &mut (),
                _: &NodeCtx,
                _: &mut NodeRng,
                _: &Inbox<()>,
                _: &mut Outbox<()>,
            ) -> Status {
                Status::Running
            }
        }
        let g = gen::cycle(12);
        let cfg = SimConfig::default()
            .with_max_rounds(5)
            .with_phase_label("forever");
        let err = run(&g, &Forever, &parallel(&cfg, 3)).unwrap_err();
        // The structured round-limit diagnostics must match the
        // sequential engine's bit for bit.
        let seq_err = run(&g, &Forever, &cfg).unwrap_err();
        assert_eq!(
            err,
            SimError::RoundLimitExceeded {
                limit: 5,
                phase: "forever".into(),
                live_nodes: 12,
                last_progress_round: 0,
            }
        );
        assert_eq!(err, seq_err);
    }

    #[test]
    fn fault_plane_trace_is_engine_independent() {
        use crate::faults::FaultConfig;
        let g = gen::gnp_capped(150, 0.08, 10, 77);
        let p = Gossip { rounds: 25 };
        for faults in [
            FaultConfig::seeded(7).with_drops(80_000),
            FaultConfig::seeded(9).with_drops(30_000),
        ] {
            let cfg = SimConfig::seeded(123).with_faults(faults);
            let seq = run(&g, &p, &cfg).unwrap();
            assert!(
                seq.metrics.faults_dropped > 0,
                "fault plane must actually fire for the test to mean anything"
            );
            for threads in [1, 2, 3, 8] {
                let par = run(&g, &p, &parallel(&cfg, threads)).unwrap();
                assert_eq!(
                    seq.states.iter().map(|s| s.sum).collect::<Vec<_>>(),
                    par.states.iter().map(|s| s.sum).collect::<Vec<_>>(),
                    "fault trace diverged with {threads} threads"
                );
                assert_eq!(seq.metrics, par.metrics, "metrics diverged at {threads}");
            }
        }
    }

    #[test]
    fn faults_disabled_is_bit_identical_to_no_fault_field() {
        // `faults: None` must leave the engine byte-for-byte on its
        // fault-free path — the PR5 benchmarks depend on it.
        let g = gen::gnp_capped(80, 0.1, 8, 3);
        let p = Gossip { rounds: 15 };
        let base = SimConfig::seeded(9);
        let with_field = base.clone().without_faults();
        let a = run(&g, &p, &base).unwrap();
        let b = run(&g, &p, &with_field).unwrap();
        assert_eq!(
            a.states.iter().map(|s| s.sum).collect::<Vec<_>>(),
            b.states.iter().map(|s| s.sum).collect::<Vec<_>>()
        );
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.faults_dropped, 0);
    }

    #[test]
    fn drops_shrink_delivery() {
        use crate::faults::FaultConfig;
        /// Counts every message that arrives, making delivered
        /// (post-fault) traffic observable.
        struct CountArrivals;
        impl Protocol for CountArrivals {
            type State = u64;
            type Msg = u32;
            fn init(&self, _: &NodeCtx, _: &mut NodeRng) -> u64 {
                0
            }
            fn round(
                &self,
                st: &mut u64,
                ctx: &NodeCtx,
                _: &mut NodeRng,
                inbox: &Inbox<u32>,
                out: &mut Outbox<u32>,
            ) -> Status {
                *st += inbox.len() as u64;
                if ctx.round < 30 {
                    out.broadcast(1);
                    Status::Running
                } else {
                    Status::Done
                }
            }
        }
        let g = gen::cycle(40);
        let clean = run(&g, &CountArrivals, &SimConfig::seeded(4)).unwrap();
        let dropped = run(
            &g,
            &CountArrivals,
            &SimConfig::seeded(4).with_faults(FaultConfig::seeded(1).with_drops(200_000)),
        )
        .unwrap();
        let arrivals = |r: &RunResult<u64>| r.states.iter().sum::<u64>();
        // Send-side accounting is fate-independent…
        assert_eq!(clean.metrics.messages, dropped.metrics.messages);
        // …but delivery reflects the drops exactly.
        assert_eq!(
            arrivals(&dropped),
            arrivals(&clean) - dropped.metrics.faults_dropped
        );
        assert!(dropped.metrics.faults_dropped > 0);
    }

    #[test]
    fn parallel_empty_graph() {
        let g = gen::empty(0);
        let res = run(
            &g,
            &Gossip { rounds: 3 },
            &parallel(&SimConfig::default(), 4),
        )
        .unwrap();
        assert!(res.states.is_empty());
    }

    #[test]
    fn more_threads_than_nodes() {
        let g = gen::path(3);
        let p = Gossip { rounds: 5 };
        let cfg = SimConfig::seeded(5);
        let seq = run(&g, &p, &cfg).unwrap();
        let par = run(&g, &p, &parallel(&cfg, 64)).unwrap();
        assert_eq!(
            seq.states.iter().map(|s| s.sum).collect::<Vec<_>>(),
            par.states.iter().map(|s| s.sum).collect::<Vec<_>>()
        );
    }

    #[test]
    fn over_budget_counts_in_parallel_match_sequential() {
        /// Every node sends one oversized message whose size encodes its
        /// index, so a shard that lost or double-counted one would show
        /// in the bit totals: the run continues, and every engine counts
        /// the same violations.
        struct Fat;
        #[derive(Debug, Clone)]
        struct Huge(u64);
        impl Message for Huge {
            fn bits(&self) -> u64 {
                (1 << 20) + self.0
            }
        }
        impl Protocol for Fat {
            type State = ();
            type Msg = Huge;
            fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
            fn round(
                &self,
                _: &mut (),
                ctx: &NodeCtx,
                _: &mut NodeRng,
                _: &Inbox<Huge>,
                out: &mut Outbox<Huge>,
            ) -> Status {
                if ctx.round == 0 {
                    out.broadcast(Huge(u64::from(ctx.index)));
                    Status::Running
                } else {
                    Status::Done
                }
            }
        }
        let g = gen::cycle(9);
        let cfg = SimConfig::default();
        let seq = run(&g, &Fat, &cfg).unwrap().metrics;
        // Each of the 9 nodes sends on both of its ports.
        assert_eq!(seq.bandwidth_violations, 18);
        assert_eq!(seq.max_message_bits, (1 << 20) + 8);
        assert_eq!(seq.rounds, 2);
        for threads in [2usize, 3, 5] {
            let par_cfg = parallel(&cfg, threads);
            for _ in 0..3 {
                let par = run(&g, &Fat, &par_cfg).unwrap().metrics;
                assert_eq!(par, seq, "metrics diverged with {threads} threads");
            }
        }
    }

    #[test]
    fn worker_panic_poisons_instead_of_deadlocking() {
        /// Panics at round 2 on exactly one node; without barrier
        /// poisoning the other shards would spin forever.
        struct Bomb;
        impl Protocol for Bomb {
            type State = ();
            type Msg = u64;
            fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
            fn round(
                &self,
                _: &mut (),
                ctx: &NodeCtx,
                _: &mut NodeRng,
                _: &Inbox<u64>,
                out: &mut Outbox<u64>,
            ) -> Status {
                assert!(
                    !(ctx.round == 2 && ctx.index == 7),
                    "deliberate protocol bug"
                );
                out.broadcast(1);
                Status::Running
            }
        }
        let g = gen::cycle(12);
        let caught = std::panic::catch_unwind(|| {
            let _ = run(
                &g,
                &Bomb,
                &parallel(&SimConfig::default().with_max_rounds(10), 4),
            );
        });
        assert!(caught.is_err(), "panic must propagate, not deadlock");

        // Same bomb with workers oversubscribed (more threads than cores),
        // which zeroes the barrier's spin budget and forces every waiter
        // onto the condvar park path — the poison wakeup must reach parked
        // shards too. (The spin path is covered above whenever the box has
        // ≥ 4 cores, and deterministically by the barrier unit tests.)
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (2 * cores + 2).min(48);
        let g = gen::cycle(4 * threads);
        let caught = std::panic::catch_unwind(|| {
            let _ = run(
                &g,
                &Bomb,
                &parallel(&SimConfig::default().with_max_rounds(10), threads),
            );
        });
        assert!(caught.is_err(), "park-path panic must propagate");
    }
}
