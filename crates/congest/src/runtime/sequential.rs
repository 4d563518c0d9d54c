//! Deterministic single-threaded runtime.
//!
//! The round loop itself lives in [`super::engine`]; this runtime is the
//! [`engine::LocalTransport`] instantiation — one shard owning every
//! node, no barriers, no staging. It exists as a named type because it
//! is the *reference*: every other transport is differentially tested
//! against it.

use super::engine::{self, LocalTransport, ShardWorld};
use super::{RunResult, SimError};
use crate::faults::FaultPlane;
use crate::{Metrics, NetTables, Protocol, SimConfig};
use graphs::Graph;
use std::sync::Arc;

/// Single-threaded engine: woken nodes are stepped in index order each
/// round (see the [module docs](crate::runtime) for the active-set
/// scheduling contract; [`Scheduling::AlwaysStep`](crate::Scheduling)
/// forces the classic every-node schedule).
///
/// This is the reference implementation; the parallel and netplane
/// runtimes are validated against it. All three share the round loop in
/// [`crate::runtime`]'s private `engine` module, so a protocol behaves
/// bit-identically on each — what this runtime pins down is the
/// *transport-free* observable behavior the others must reproduce.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialRuntime;

impl SequentialRuntime {
    /// Runs `protocol` to unanimous [`Status::Done`](crate::Status),
    /// building the network tables on the fly.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimitExceeded`] if the protocol does not
    /// terminate, or [`SimError::Bandwidth`] in strict mode.
    pub fn execute<P: Protocol>(
        &self,
        graph: &Graph,
        protocol: &P,
        config: &SimConfig,
    ) -> Result<RunResult<P::State>, SimError> {
        self.execute_with(graph, protocol, config, &NetTables::build(graph, config))
    }

    /// [`SequentialRuntime::execute`] with prebuilt [`NetTables`] — the
    /// allocation-light path multi-phase drivers use.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimitExceeded`] if the protocol does not
    /// terminate, or [`SimError::Bandwidth`] in strict mode.
    ///
    /// # Panics
    ///
    /// Panics if `net` was not built for `graph` (node or edge count
    /// mismatch — proceeding would mis-route messages and return silently
    /// wrong results), or if the protocol stages a message in a round its
    /// declared [`Protocol::sync_period`] marks silent — a protocol bug,
    /// like a duplicate send on a port.
    pub fn execute_with<P: Protocol>(
        &self,
        graph: &Graph,
        protocol: &P,
        config: &SimConfig,
        net: &Arc<NetTables>,
    ) -> Result<RunResult<P::State>, SimError> {
        assert!(net.matches(graph), "NetTables built for a different graph");
        let n = graph.n();
        let period = protocol.sync_period().max(1);
        let mut ctxs = net.contexts();
        let (mut rngs, mut states) = engine::init_nodes(protocol, config, &ctxs, 0);
        if n == 0 {
            return Ok(RunResult {
                states,
                metrics: Metrics {
                    bandwidth_bits: engine::round_budget(config, n, period),
                    ..Metrics::default()
                },
            });
        }
        let plane = config
            .faults
            .as_ref()
            .map(|f| FaultPlane::new(f, config.rng_salt, n));
        let metrics = engine::drive(
            graph,
            protocol,
            config,
            net,
            ShardWorld {
                start: 0,
                ctxs: &mut ctxs,
                states: &mut states,
                rngs: &mut rngs,
                plane: plane.as_ref(),
            },
            &mut LocalTransport,
        )?;
        Ok(RunResult { states, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Inbox, Message, NodeCtx, NodeRng, Outbox, Scheduling, Status, Wake};
    use graphs::gen;

    /// Flood the maximum identifier: classic O(diameter) protocol.
    struct MaxFlood;

    #[derive(Debug, Clone)]
    struct FloodState {
        best: u64,
        changed: bool,
    }

    impl Protocol for MaxFlood {
        type State = FloodState;
        type Msg = u64;
        fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> FloodState {
            FloodState {
                best: ctx.ident,
                changed: true,
            }
        }
        fn round(
            &self,
            st: &mut FloodState,
            _ctx: &NodeCtx,
            _rng: &mut NodeRng,
            inbox: &Inbox<u64>,
            out: &mut Outbox<u64>,
        ) -> Status {
            for &(_, id) in inbox {
                if id > st.best {
                    st.best = id;
                    st.changed = true;
                }
            }
            if st.changed {
                st.changed = false;
                out.broadcast(st.best);
                Status::Running
            } else {
                Status::Done
            }
        }
    }

    #[test]
    fn flood_converges_to_global_max_on_path() {
        let g = gen::path(16);
        // Sequential ids put the max identifier at an endpoint, so it must
        // travel the full diameter (permuted ids could place it centrally).
        let cfg = SimConfig {
            ids: crate::IdAssignment::Sequential,
            ..SimConfig::default()
        };
        let res = SequentialRuntime.execute(&g, &MaxFlood, &cfg).unwrap();
        assert!(res.states.iter().all(|s| s.best == 15));
        // The max must travel the diameter; rounds is Θ(n) on a path.
        assert!(res.metrics.rounds >= 15, "rounds = {}", res.metrics.rounds);
        assert!(res.metrics.is_congest_compliant());
    }

    #[test]
    fn round_limit_is_enforced() {
        /// A protocol that never terminates.
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
        let g = gen::path(3);
        let err = SequentialRuntime
            .execute(
                &g,
                &Forever,
                &SimConfig::default()
                    .with_max_rounds(10)
                    .with_phase_label("forever"),
            )
            .unwrap_err();
        // Forever never sends and never changes its vote after round 0:
        // all 3 nodes live, no progress ever.
        assert_eq!(
            err,
            SimError::RoundLimitExceeded {
                limit: 10,
                phase: "forever".into(),
                live_nodes: 3,
                last_progress_round: 0,
            }
        );
    }

    #[test]
    fn strict_bandwidth_aborts() {
        /// Sends one absurdly large message.
        struct Fat;
        #[derive(Debug, Clone)]
        struct Huge;
        impl Message for Huge {
            fn bits(&self) -> u64 {
                1 << 20
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
                    out.broadcast(Huge);
                    Status::Running
                } else {
                    Status::Done
                }
            }
        }
        let g = gen::path(3);
        let err = SequentialRuntime
            .execute(&g, &Fat, &SimConfig::default().strict())
            .unwrap_err();
        match err {
            SimError::Bandwidth { bits, .. } => assert_eq!(bits, 1 << 20),
            other => panic!("expected bandwidth error, got {other:?}"),
        }
        // Non-strict mode records instead of aborting.
        let res = SequentialRuntime
            .execute(&g, &Fat, &SimConfig::default())
            .unwrap();
        assert_eq!(res.metrics.bandwidth_violations, 4); // 2 inner edges × 2 endpoints... path(3) has 2 edges = 4 directed
        assert!(!res.metrics.is_congest_compliant());
    }

    #[test]
    fn empty_graph_terminates_immediately() {
        let g = gen::empty(0);
        let res = SequentialRuntime
            .execute(&g, &MaxFlood, &SimConfig::default())
            .unwrap();
        assert_eq!(res.metrics.rounds, 0);
        assert!(res.states.is_empty());
    }

    #[test]
    fn isolated_nodes_run_and_finish() {
        let g = gen::empty(5);
        let res = SequentialRuntime
            .execute(&g, &MaxFlood, &SimConfig::default())
            .unwrap();
        // Every node keeps its own ident (no one to talk to).
        let mut bests: Vec<u64> = res.states.iter().map(|s| s.best).collect();
        bests.sort_unstable();
        assert_eq!(bests, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn message_metrics_counted() {
        let g = gen::cycle(4);
        let res = SequentialRuntime
            .execute(&g, &MaxFlood, &SimConfig::default())
            .unwrap();
        assert!(res.metrics.messages > 0);
        assert!(res.metrics.total_bits >= res.metrics.messages);
        assert!(res.metrics.max_message_bits <= 3); // idents 0..3 fit in ≤2 bits, +min 1
    }

    /// A k-periodic protocol: pulse a counter to all neighbors at
    /// communication rounds, accumulate locally in between.
    struct Pulse {
        period: u64,
        pulses: u64,
    }

    impl Protocol for Pulse {
        type State = u64;
        type Msg = u64;
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) -> u64 {
            0
        }
        fn round(
            &self,
            st: &mut u64,
            ctx: &NodeCtx,
            _: &mut NodeRng,
            inbox: &Inbox<u64>,
            out: &mut Outbox<u64>,
        ) -> Status {
            for &(p, x) in inbox {
                *st = st.wrapping_add(x ^ u64::from(p));
            }
            let pulse = ctx.round / self.period;
            if ctx.round.is_multiple_of(self.period) && pulse < self.pulses {
                out.broadcast(ctx.ident + pulse);
                Status::Running
            } else if pulse < self.pulses {
                Status::Running
            } else {
                Status::Done
            }
        }
        fn sync_period(&self) -> u64 {
            self.period
        }
    }

    #[test]
    fn periodic_protocol_terminates_at_comm_round() {
        let g = gen::cycle(8);
        let p = Pulse {
            period: 3,
            pulses: 4,
        };
        let res = SequentialRuntime
            .execute(&g, &p, &SimConfig::seeded(2))
            .unwrap();
        // Done votes only count at rounds ≡ 0 (mod 3): the first unanimous
        // one is round 12 (pulse index 4), so 13 rounds execute.
        assert_eq!(res.metrics.rounds, 13);
        // 4 pulses × 8 nodes × degree 2.
        assert_eq!(res.metrics.messages, 64);
    }

    /// Parking exercise: the hub parks to round 2 and pings; the leaves —
    /// parked on `Message` — wake only for the ping.
    struct WakeOnPing;

    impl Protocol for WakeOnPing {
        type State = ();
        type Msg = u32;
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
        fn round(
            &self,
            _: &mut (),
            ctx: &NodeCtx,
            _: &mut NodeRng,
            inbox: &Inbox<u32>,
            out: &mut Outbox<u32>,
        ) -> Status {
            if ctx.degree() > 1 {
                // Hub: ping everyone at round 2, then done.
                if ctx.round == 2 {
                    out.broadcast(7);
                }
                if ctx.round >= 2 {
                    Status::Done
                } else {
                    Status::Running
                }
            } else if inbox.is_empty() {
                Status::Running
            } else {
                Status::Done
            }
        }
        fn next_wake(&self, _: &(), ctx: &NodeCtx, status: Status) -> Wake {
            if status == Status::Done {
                Wake::Message
            } else if ctx.degree() > 1 {
                Wake::At(2)
            } else {
                Wake::Message
            }
        }
    }

    #[test]
    fn parking_steps_only_the_frontier() {
        let g = gen::star(4); // hub + 4 leaves
        let active = SequentialRuntime
            .execute(&g, &WakeOnPing, &SimConfig::default())
            .unwrap();
        let reference = SequentialRuntime
            .execute(
                &g,
                &WakeOnPing,
                &SimConfig {
                    scheduling: Scheduling::AlwaysStep,
                    ..SimConfig::default()
                },
            )
            .unwrap();
        // Identical observables: terminate at round 3 (leaves' Done lands
        // one round after the ping), one ping per leaf.
        assert_eq!(active.metrics.rounds, 4);
        assert_eq!(reference.metrics.rounds, 4);
        assert_eq!(active.metrics.messages, 4);
        assert_eq!(reference.metrics.messages, 4);
        // Reference steps all 5 nodes all 4 rounds; active steps round 0
        // (everyone), round 2 (hub wake), round 3 (the pinged leaves).
        assert_eq!(reference.metrics.stepped_nodes, 20);
        assert_eq!(active.metrics.stepped_nodes, 10);
    }

    /// Re-parking exercise on disjoint edges `(2k, 2k + 1)`: pinger `2k`
    /// pings its sleeper at the rounds in `PINGS[k]`, sleeper `2k + 1`
    /// parks as `sleep(k, pings seen)` says, and everyone votes `Done`
    /// from round `REPARK_END` on.
    struct Repark;

    const REPARK_END: u64 = 10;
    /// Ping rounds per pair (arrivals land one round later).
    const PINGS: [&[u64]; 4] = [&[3], &[3, 5], &[3, 5], &[3]];
    /// A sleeper's park request after `pings` arrivals, per pair:
    /// 0 re-parks to the same target when woken early; 1 re-parks to a
    /// different target and back; 2 cancels with `Message`, then
    /// re-parks to the original target; 3 cancels for good (it votes
    /// `Done` once pinged).
    fn sleep(pair: usize, pings: u64) -> Wake {
        match (pair, pings) {
            (1, 1) => Wake::At(8),
            (2, 1) | (3, 1) => Wake::Message,
            _ => Wake::At(REPARK_END),
        }
    }

    impl Protocol for Repark {
        type State = u64; // pings received
        type Msg = ();
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) -> u64 {
            0
        }
        fn round(
            &self,
            pings: &mut u64,
            ctx: &NodeCtx,
            _: &mut NodeRng,
            inbox: &Inbox<()>,
            out: &mut Outbox<()>,
        ) -> Status {
            let pair = ctx.index as usize / 2;
            *pings += inbox.len() as u64;
            if ctx.index.is_multiple_of(2) && PINGS[pair].contains(&ctx.round) {
                out.send(0, ());
            }
            if ctx.round >= REPARK_END || (pair == 3 && *pings > 0) {
                Status::Done
            } else {
                Status::Running
            }
        }
        fn next_wake(&self, pings: &u64, ctx: &NodeCtx, status: Status) -> Wake {
            let pair = ctx.index as usize / 2;
            if status == Status::Done {
                Wake::Message
            } else if ctx.index.is_multiple_of(2) {
                let next = PINGS[pair].iter().find(|&&r| r > ctx.round);
                Wake::At(next.copied().unwrap_or(REPARK_END))
            } else {
                sleep(pair, *pings)
            }
        }
    }

    #[test]
    fn reparking_wakes_exactly_once_per_pending_target() {
        let g = Graph::from_edges(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]).unwrap();
        let active = SequentialRuntime
            .execute(&g, &Repark, &SimConfig::default())
            .unwrap();
        let reference = SequentialRuntime
            .execute(
                &g,
                &Repark,
                &SimConfig {
                    scheduling: Scheduling::AlwaysStep,
                    ..SimConfig::default()
                },
            )
            .unwrap();
        // Hand-counted steps per node. Pingers step at round 0, at each
        // ping, and at the end. Sleepers, by pair:
        // 0: rounds 0, 4 (early arrival, re-parks to 10), 10;
        // 1: 0, 4 (parks to 8), 6 (back to 10), 10 — never 8;
        // 2: 0, 4 (`Message` cancels 10), 6 (re-parks to 10), 10 — once;
        // 3: 0, 4 (`Done`, `Message`) — the cancelled 10 wakes nobody.
        let steps = [3, 3, 4, 4, 4, 4, 3, 2];
        assert_eq!(active.metrics.stepped_nodes, steps.iter().sum::<u64>());
        assert_eq!(reference.metrics.rounds, REPARK_END + 1);
        assert_eq!(reference.metrics.stepped_nodes, 8 * (REPARK_END + 1));
        // Every other observable equals the always-step run.
        assert_eq!(active.states, reference.states);
        assert_eq!(active.states, [0, 1, 0, 2, 0, 2, 0, 1]);
        assert_eq!(
            Metrics {
                stepped_nodes: 0,
                ..active.metrics
            },
            Metrics {
                stepped_nodes: 0,
                ..reference.metrics
            }
        );
    }

    #[test]
    fn round_limit_live_nodes_excludes_crashed() {
        /// A protocol that never terminates (and never sends).
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
        let n = 40;
        let g = gen::path(n);
        let fc = crate::FaultConfig::seeded(5).with_crashes(400_000, 6, u64::MAX);
        let cfg = SimConfig::default()
            .with_faults(fc.clone())
            .with_max_rounds(10);
        // Nodes the plane has down when the limit hits vote Done implicitly
        // and must not be reported as live work.
        let plane = FaultPlane::new(&fc, cfg.rng_salt, n);
        let crashed = (0..n).filter(|&v| plane.is_crashed(v, 9)).count();
        assert!(crashed > 0, "plane must crash someone for this test");
        let err = SequentialRuntime.execute(&g, &Forever, &cfg).unwrap_err();
        let expect = SimError::RoundLimitExceeded {
            limit: 10,
            phase: String::new(),
            live_nodes: (n - crashed) as u64,
            last_progress_round: 0,
        };
        assert_eq!(err, expect);
        // Engine-identical diagnostic.
        let perr = crate::runtime::ParallelRuntime::new(4)
            .execute(&g, &Forever, &cfg)
            .unwrap_err();
        assert_eq!(perr, expect);
    }

    #[test]
    #[should_panic(expected = "silent round")]
    fn silent_round_send_is_rejected() {
        /// Claims period 2 but sends every round.
        struct Liar;
        impl Protocol for Liar {
            type State = ();
            type Msg = u64;
            fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
            fn round(
                &self,
                _: &mut (),
                _: &NodeCtx,
                _: &mut NodeRng,
                _: &Inbox<u64>,
                out: &mut Outbox<u64>,
            ) -> Status {
                out.broadcast(1);
                Status::Running
            }
            fn sync_period(&self) -> u64 {
                2
            }
        }
        let g = gen::cycle(4);
        let _ = SequentialRuntime.execute(&g, &Liar, &SimConfig::default().with_max_rounds(10));
    }
}
