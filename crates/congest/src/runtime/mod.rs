//! Execution engines for [`Protocol`]s.
//!
//! # One round loop, three transports
//!
//! The round loop exists exactly once, in the private `engine` module:
//! a generic core that owns node stepping, active-set scheduling,
//! the drop plane, sync-period batching, metrics accounting, and
//! [`SimError`] construction. What an engine contributes is a
//! `Transport` — how one shard's staged messages and per-round control
//! flags reach the other shards:
//!
//! * [`RuntimeMode::Sequential`] — the trivial transport: one shard owns
//!   every node, the barrier is a no-op, local flags are global. This is
//!   the deterministic reference every other transport is validated
//!   against.
//! * [`RuntimeMode::Parallel`] — nodes sharded over worker threads; the
//!   transport is a parity-double-buffered mailbox matrix plus a
//!   **single spin barrier per communication round** (see `parallel.rs`
//!   for the handshake protocol).
//! * [`crate::netplane`] — shards in separate OS processes; the
//!   transport is length-prefixed frames over sockets with retention,
//!   rejoin, and fault injection (see `netplane/runtime.rs`).
//!
//! The `Transport` contract (documented in full on the trait) is small:
//! *stage* a message for a remote node, and *exchange* at the
//! communication round barrier — publish staged batches plus this
//! shard's `RoundFlags` (sticky-running sum, progress bit), deliver
//! inbound messages, and return the flags merged identically on every
//! shard. Because termination and the round-limit diagnostics are both
//! functions of the merged flags, every shard takes every transition in
//! lockstep, and adding a transport can never fork the semantics. An
//! over-budget message is counted in [`Metrics`], never fatal.
//!
//! All engines are bit-identical for the same seed: per-node RNG streams
//! depend only on `(seed, index)` and inboxes are sorted by port before
//! delivery, regardless of thread or process interleaving. The
//! differential harnesses (`tests/runtime_equivalence.rs`,
//! `tests/net_equivalence.rs`) assert this equivalence over full
//! coloring pipelines.
//!
//! # Active-set scheduling
//!
//! By default ([`Scheduling::ActiveSet`](crate::Scheduling)) the engines
//! step only the **live frontier** each round instead of all `n` nodes. A
//! node is stepped in round `r` exactly when it is *woken* for `r`, which
//! happens iff
//!
//! 1. a message addressed to it arrives in round `r` (deliveries always
//!    wake their destination — staged at `r − 1`, stamped for `r`);
//! 2. its own [`Protocol::next_wake`] asked for it: [`Wake::Next`](crate::Wake::Next) after
//!    its round-`r − 1` step, or a matured [`Wake::At(r)`](crate::Wake)
//!    request.
//!
//! Round 0 wakes every node. Per round the frontier is traversed by a
//! `Sweep`: index-ordered flag scan when dense (≥ `n/4`), sorted sparse
//! list otherwise — either way nodes step in index order, so the
//! sequential observables are unchanged. Sharded transports keep one
//! frontier per shard over shard-local indices; wakes for remote nodes
//! ride inside the same message batches the transport already exchanges
//! (a delivery always wakes its destination), so no extra barrier is
//! paid.
//!
//! **Termination** has one rule under both schedules: the run ends at
//! the first communication round where no node's *sticky vote* — its
//! latest communication-round vote — is `Running`. Stepping every node,
//! the sticky vote is the vote of that very round. Parked, it stands in
//! for the node (the parking contract on [`Protocol::next_wake`] makes
//! this exact — see its docs).
//!
//! [`Scheduling::AlwaysStep`](crate::Scheduling) forces the classic
//! every-node schedule ([`Protocol::next_wake`] is never called); the
//! differential harnesses hold active-set runs bit-identical to it with
//! only [`Metrics::stepped_nodes`](crate::Metrics) allowed to shrink.
//!
//! # Engine selection
//!
//! [`SimConfig::runtime`] picks the engine for every in-process run —
//! [`run`] and [`run_with`] are the only entry points:
//!
//! * [`RuntimeMode::Sequential`] / [`RuntimeMode::Parallel`] — explicit.
//! * [`RuntimeMode::Auto`] — adaptive: the parallel engine only pays for
//!   itself when each round carries enough work to amortize the barrier,
//!   so `Auto` estimates per-round work as `n + 2m` (nodes stepped plus an
//!   upper bound on messages handled) and picks sequential below
//!   [`AUTO_WORK_THRESHOLD`](crate::AUTO_WORK_THRESHOLD). The threshold is
//!   calibrated from `BENCH_PR2.json`; its doc comment records how to
//!   re-derive it.
//!
//! # Round batching
//!
//! Protocols that communicate only every `p`-th round can declare it via
//! [`Protocol::sync_period`]; the core then evaluates termination (and
//! the transport synchronizes) only at those communication rounds,
//! cutting barrier traffic by `p×` while remaining bit-identical.
//!
//! # Per-network tables and shard-local worlds
//!
//! The simulated network is a [`NetTables`], built once per
//! `(graph, config)`: what a node knows a priori (its identifier, its
//! neighbors' identifiers by port) and, per port, the route a message
//! takes (destination index, arrival port). A node's
//! [`NodeCtx`](crate::NodeCtx) is a view of its row built for each `init`
//! and each step, and the engines route, size inboxes and count nodes
//! from the same rows, so no engine takes a graph. Multi-phase drivers
//! build the tables once and pass them to [`run_with`]; [`run`] builds
//! them from a graph on the fly.
//!
//! Everything else is shard-local: every engine runs the shared core on
//! the node ranges [`shard_range`] assigns, and each shard builds the RNG
//! streams and initial states of its own range and returns only those
//! states. The sequential engine is the one shard `0..n`; the parallel
//! engine concatenates its workers' states in shard order; a netplane
//! shard hands its own rows to
//! [`NetPlane::sync_rows`](crate::netplane::NetPlane::sync_rows).

mod barrier;
pub(crate) mod engine;
mod parallel;
mod sequential;

use crate::{Metrics, NetTables, NodeRng, Protocol, RuntimeMode, SimConfig};
use graphs::Graph;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::ops::Range;

/// Result of a completed run: final per-node states plus metrics.
#[derive(Debug)]
pub struct RunResult<S> {
    /// Final protocol state of each node the run stepped, in index
    /// order: all `n` from [`run`] and [`run_with`], the shard's own
    /// range from [`NetPlane::execute_with`](crate::netplane::NetPlane::execute_with).
    pub states: Vec<S>,
    /// Aggregated measurements.
    pub metrics: Metrics,
}

/// Errors aborting a simulation. Running out of rounds is the only one:
/// an over-budget message is counted in
/// [`Metrics::bandwidth_violations`](crate::Metrics), never fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The protocol did not terminate within `max_rounds`.
    ///
    /// The diagnostic fields turn a bare livelock cutoff into an actionable
    /// report for stalled large-scale runs: which pipeline phase hung,
    /// how many nodes were still working, and whether the run was making
    /// progress at all when the axe fell. "Progress" means some node
    /// changed its termination vote or some message was sent that round;
    /// a `last_progress_round` far below the limit is a livelock (e.g.
    /// fault-induced deadlock), one near the limit means the cutoff is
    /// simply too tight. All engines report bit-identical diagnostics.
    RoundLimitExceeded {
        /// The configured limit that was hit.
        limit: u64,
        /// Label of the pipeline phase that stalled
        /// ([`SimConfig::phase_label`](crate::SimConfig::phase_label);
        /// empty if the caller set none).
        phase: String,
        /// Nodes still voting [`Status::Running`](crate::Status) when the
        /// limit was hit.
        live_nodes: u64,
        /// Last round in which any node changed status or sent a message
        /// (0 if the run never progressed).
        last_progress_round: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RoundLimitExceeded {
                limit,
                phase,
                live_nodes,
                last_progress_round,
            } => {
                let phase = if phase.is_empty() { "unnamed" } else { phase };
                write!(
                    f,
                    "protocol did not terminate within {limit} rounds \
                     (phase `{phase}`, {live_nodes} nodes still running, \
                     last progress at round {last_progress_round})"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Runs `protocol` on `graph` to unanimous [`Status::Done`](crate::Status)
/// on the engine `config.runtime` selects, building the graph's
/// [`NetTables`] on the fly.
///
/// # Errors
///
/// Returns [`SimError::RoundLimitExceeded`] when the protocol does not
/// terminate within `config.max_rounds`.
///
/// # Panics
///
/// Panics if the protocol stages a message in a round its declared
/// [`Protocol::sync_period`] marks silent — a protocol bug, like a
/// duplicate send on a port.
pub fn run<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    config: &SimConfig,
) -> Result<RunResult<P::State>, SimError> {
    run_with(protocol, config, &NetTables::build(graph, config))
}

/// Runs `protocol` on the network `net` describes — a whole graph's
/// [`NetTables::build`] tables or a part's [`NetTables::induced`] ones —
/// resolving [`RuntimeMode::Auto`] against the tables. This is the entry
/// point multi-phase drivers use: the tables are built once per driver
/// and shared across all phases. The tables are the whole network, so no
/// graph is passed beside them.
///
/// # Errors
///
/// Returns [`SimError::RoundLimitExceeded`] when the protocol does not
/// terminate within `config.max_rounds`.
///
/// # Panics
///
/// Panics on the protocol bugs [`run`] rejects.
pub fn run_with<P: Protocol>(
    protocol: &P,
    config: &SimConfig,
    net: &NetTables,
) -> Result<RunResult<P::State>, SimError> {
    match config.runtime.resolve(net) {
        RuntimeMode::Parallel(t) => parallel::execute(t, protocol, config, net),
        _ => sequential::execute(protocol, config, net),
    }
}

/// The node range shard `shard` of `n_shards` owns on an `n`-node graph:
/// contiguous `⌈n/k⌉`-sized chunks, the last one ragged (trailing shards
/// may be empty). The one ownership rule of both sharded transports, the
/// parallel mailbox and the netplane.
#[must_use]
pub fn shard_range(n: usize, n_shards: usize, shard: usize) -> Range<usize> {
    let chunk = n.div_ceil(n_shards.max(1));
    let lo = (shard * chunk).min(n);
    lo..(lo + chunk).min(n)
}

/// Which shard of `n_shards` owns node `v` under [`shard_range`].
pub(crate) fn shard_of(n: usize, n_shards: usize, v: usize) -> usize {
    v / n.div_ceil(n_shards.max(1))
}

/// Derives the private RNG stream of node `index` for run seed `seed`.
pub(crate) fn node_rng(seed: u64, index: u32) -> NodeRng {
    // SplitMix64 mixing decorrelates adjacent node indices.
    let z = seed ^ (u64::from(index).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ChaCha8Rng::seed_from_u64(crate::faults::mix64(z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Inbox, NodeCtx, Outbox, Status};
    use graphs::gen;
    use std::thread::ThreadId;

    #[test]
    fn contexts_have_unique_idents_and_correct_ports() {
        let g = gen::cycle(6);
        let net = NetTables::build(&g, &SimConfig::default());
        let mut ids: Vec<u64> = (0..6).map(|v| net.ctx(v, 0).ident).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6, "identifiers must be unique");
        for v in 0..6 {
            let c = net.ctx(v, 0);
            assert_eq!(c.degree(), 2);
            for (p, &nid) in c.neighbor_idents().iter().enumerate() {
                let u = g.neighbors(v)[p];
                assert_eq!(net.ctx(u, 0).ident, nid);
            }
        }
    }

    #[test]
    fn shard_ranges_partition() {
        for (n, k) in [(10, 2), (10, 3), (7, 4), (1, 4), (100, 1)] {
            let mut covered = 0;
            for s in 0..k {
                let range = shard_range(n, k, s);
                assert_eq!(range.start, covered);
                covered = range.end;
                for v in range {
                    assert_eq!(shard_of(n, k, v), s);
                }
            }
            assert_eq!(covered, n);
        }
    }

    /// Records the thread that initialised each node.
    struct InitThread;

    impl Protocol for InitThread {
        type State = ThreadId;
        type Msg = ();
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) -> ThreadId {
            std::thread::current().id()
        }
        fn round(
            &self,
            _: &mut ThreadId,
            _: &NodeCtx,
            _: &mut NodeRng,
            _: &Inbox<()>,
            _: &mut Outbox<()>,
        ) -> Status {
            Status::Done
        }
    }

    #[test]
    fn run_and_run_with_honour_the_runtime_mode() {
        let g = gen::cycle(64);
        let me = std::thread::current().id();
        for runtime in [RuntimeMode::Sequential, RuntimeMode::Parallel(2)] {
            let cfg = SimConfig::seeded(1).with_runtime(runtime);
            let net = NetTables::build(&g, &cfg);
            for res in [
                run(&g, &InitThread, &cfg).unwrap(),
                run_with(&InitThread, &cfg, &net).unwrap(),
            ] {
                let off_thread = res.states.iter().filter(|&&id| id != me).count();
                match runtime {
                    RuntimeMode::Sequential => assert_eq!(off_thread, 0, "{runtime:?}"),
                    _ => assert!(off_thread > 0, "{runtime:?}: every node on the caller"),
                }
            }
        }
    }

    #[test]
    fn reverse_ports_roundtrip() {
        let g = gen::gnp_capped(40, 0.2, 8, 1);
        let net = NetTables::build(&g, &SimConfig::default());
        for u in 0..g.n() as u32 {
            for (p, &(v, back)) in net.routes_of(u).iter().enumerate() {
                assert_eq!(v, g.neighbors(u)[p]);
                assert_eq!(g.neighbors(v)[back as usize], u);
                assert_eq!(net.routes_of(v)[back as usize], (u, p as u32));
            }
        }
    }

    #[test]
    fn node_rng_streams_differ() {
        use rand::RngCore;
        let a = node_rng(1, 0).next_u64();
        let b = node_rng(1, 1).next_u64();
        let a2 = node_rng(1, 0).next_u64();
        assert_ne!(a, b);
        assert_eq!(a, a2, "same (seed, index) must reproduce");
    }

    #[test]
    fn sim_error_display() {
        let e = SimError::RoundLimitExceeded {
            limit: 5,
            phase: "loc-iter(q=9)".into(),
            live_nodes: 3,
            last_progress_round: 2,
        };
        let text = e.to_string();
        assert!(text.contains('5'));
        assert!(text.contains("loc-iter(q=9)"), "{text}");
        assert!(text.contains("3 nodes"), "{text}");
        assert!(text.contains("round 2"), "{text}");
        let unnamed = SimError::RoundLimitExceeded {
            limit: 1,
            phase: String::new(),
            live_nodes: 0,
            last_progress_round: 0,
        };
        assert!(unnamed.to_string().contains("unnamed"));
    }
}
