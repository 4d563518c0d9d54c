//! Deterministic single-threaded engine, selected by
//! [`RuntimeMode::Sequential`](crate::RuntimeMode::Sequential).
//!
//! The round loop itself lives in [`super::engine`]; this engine is the
//! [`engine::LocalTransport`] instantiation — one shard owning every
//! node, no barriers, no staging, woken nodes stepped in index order
//! each round. It is the *reference*: every other transport is
//! differentially tested against it.

use super::engine::{self, LocalTransport};
use super::{RunResult, SimError};
use crate::{NetTables, Protocol, SimConfig};

/// Runs `protocol` over every node of `net` on the calling thread: the
/// one shard `0..n`.
pub(super) fn execute<P: Protocol>(
    protocol: &P,
    config: &SimConfig,
    net: &NetTables,
) -> Result<RunResult<P::State>, SimError> {
    engine::run_range(protocol, config, net, 0..net.rows(), &mut LocalTransport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, Inbox, Message, Metrics, NodeCtx, NodeRng, Outbox, Scheduling, Status, Wake};
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
        let cfg = SimConfig::default();
        let res = run(&g, &MaxFlood, &cfg).unwrap();
        assert!(res.states.iter().all(|s| s.best == 15));
        // The max must travel from its node to the farther endpoint of
        // the path, so rounds grow with that distance.
        let idents = NetTables::build(&g, &cfg).idents().to_vec();
        let at = idents.iter().position(|&id| id == 15).unwrap() as u64;
        let far = at.max(15 - at);
        assert!(
            res.metrics.rounds > far,
            "rounds = {}, max identifier {far} hops from an endpoint",
            res.metrics.rounds
        );
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
        let err = run(
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
    fn over_budget_messages_are_counted() {
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
        // path(3) has 2 edges, so 4 directed sends, each over budget;
        // the run carries on and votes Done in round 1.
        let g = gen::path(3);
        let res = run(&g, &Fat, &SimConfig::default()).unwrap();
        assert!(!res.metrics.is_congest_compliant());
        assert_eq!(
            res.metrics,
            Metrics {
                rounds: 2,
                messages: 4,
                total_bits: 4 << 20,
                max_message_bits: 1 << 20,
                bandwidth_bits: 64,
                bandwidth_violations: 4,
                faults_dropped: 0,
                stepped_nodes: 6,
            }
        );
    }

    #[test]
    fn empty_graph_terminates_immediately() {
        let g = gen::empty(0);
        let res = run(&g, &MaxFlood, &SimConfig::default()).unwrap();
        assert_eq!(res.metrics.rounds, 0);
        assert!(res.states.is_empty());
    }

    #[test]
    fn isolated_nodes_run_and_finish() {
        let g = gen::empty(5);
        let res = run(&g, &MaxFlood, &SimConfig::default()).unwrap();
        // Every node keeps its own ident (no one to talk to).
        let mut bests: Vec<u64> = res.states.iter().map(|s| s.best).collect();
        bests.sort_unstable();
        assert_eq!(bests, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn message_metrics_counted() {
        let g = gen::cycle(4);
        let res = run(&g, &MaxFlood, &SimConfig::default()).unwrap();
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
        let res = run(&g, &p, &SimConfig::seeded(2)).unwrap();
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
        let active = run(&g, &WakeOnPing, &SimConfig::default()).unwrap();
        let reference = run(
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
        let g = graphs::Graph::from_edges(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]).unwrap();
        let active = run(&g, &Repark, &SimConfig::default()).unwrap();
        let reference = run(
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
        let _ = run(&g, &Liar, &SimConfig::default().with_max_rounds(10));
    }
}
