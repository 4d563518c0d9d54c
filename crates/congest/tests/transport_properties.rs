//! Property tests for the epoch-counter batch transport of the
//! single-barrier parallel runtime.
//!
//! The property: for every graph shape, shard count, message volume, and
//! seed, the full delivery trace each node observes — `(round, port,
//! payload)` for every message, in delivery order — is **exactly** the
//! trace the sequential inbox produces. That simultaneously rules out lost
//! deliveries (a missing trace entry), duplicated deliveries (an extra
//! entry), misrouted deliveries (wrong node or port), and reordering
//! (inboxes are sorted by port; rounds are tagged).

use congest::{Inbox, NodeCtx, NodeRng, Outbox, Port, Protocol, RuntimeMode, SimConfig, Status};
use graphs::{gen, Graph};
use rand::Rng;

/// Records every delivery it observes; sends on a random subset of ports
/// each round, with `density` controlling the volume (0 = silent network,
/// 100 = every port every round).
struct Recorder {
    rounds: u64,
    density: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Trace {
    log: Vec<(u64, Port, u64)>,
}

impl Protocol for Recorder {
    type State = Trace;
    type Msg = u64;
    fn init(&self, _: &NodeCtx, _: &mut NodeRng) -> Trace {
        Trace { log: Vec::new() }
    }
    fn round(
        &self,
        st: &mut Trace,
        ctx: &NodeCtx,
        rng: &mut NodeRng,
        inbox: &Inbox<u64>,
        out: &mut Outbox<u64>,
    ) -> Status {
        for &(p, x) in inbox {
            st.log.push((ctx.round, p, x));
        }
        if ctx.round < self.rounds {
            for p in 0..ctx.degree() as Port {
                if rng.gen_range(0..100u32) < self.density {
                    out.send(p, rng.gen::<u64>() >> 8);
                }
            }
            Status::Running
        } else {
            Status::Done
        }
    }
}

fn shapes(seed: u64) -> Vec<(String, Graph)> {
    vec![
        ("gnp-capped".into(), gen::gnp_capped(110, 0.06, 8, seed)),
        ("cycle".into(), gen::cycle(33)),
        ("star".into(), gen::star(16)),
        (
            "disconnected".into(),
            gen::disjoint_union(&[
                gen::gnp_capped(30, 0.1, 5, seed),
                gen::cycle(11),
                gen::empty(4),
            ]),
        ),
        ("clique-ring".into(), gen::clique_ring(3, 5)),
    ]
}

/// The headline property: randomized shard counts × message volumes ×
/// shapes, full-trace equality against the sequential inbox.
#[test]
fn no_lost_duplicated_or_reordered_deliveries() {
    for seed in [1u64, 42] {
        for (name, g) in shapes(seed) {
            for density in [0u32, 30, 100] {
                let proto = Recorder {
                    rounds: 18,
                    density,
                };
                let cfg = SimConfig::seeded(seed ^ u64::from(density));
                let seq = congest::run(&g, &proto, &cfg).expect("sequential");
                for threads in [1usize, 2, 3, 5, 8, 13] {
                    let par_cfg = cfg.clone().with_runtime(RuntimeMode::Parallel(threads));
                    let par = congest::run(&g, &proto, &par_cfg).expect("parallel");
                    assert_eq!(
                        seq.states, par.states,
                        "{name}: trace diverged (density {density}, {threads} threads)"
                    );
                    assert_eq!(
                        seq.metrics, par.metrics,
                        "{name}: metrics diverged (density {density}, {threads} threads)"
                    );
                }
            }
        }
    }
}

/// A `sync_period = p` protocol: bursts on every port at communication
/// rounds, digests in silence in between. Delivery traces and metrics must
/// be engine-independent for every period and shard count.
struct PhasedBurst {
    period: u64,
    bursts: u64,
}

impl Protocol for PhasedBurst {
    type State = Trace;
    type Msg = u64;
    fn init(&self, _: &NodeCtx, _: &mut NodeRng) -> Trace {
        Trace { log: Vec::new() }
    }
    fn round(
        &self,
        st: &mut Trace,
        ctx: &NodeCtx,
        rng: &mut NodeRng,
        inbox: &Inbox<u64>,
        out: &mut Outbox<u64>,
    ) -> Status {
        for &(p, x) in inbox {
            st.log.push((ctx.round, p, x));
        }
        let burst = ctx.round / self.period;
        if ctx.round.is_multiple_of(self.period) && burst < self.bursts {
            for p in 0..ctx.degree() as Port {
                out.send(p, rng.gen::<u64>() >> 8);
            }
        }
        if burst < self.bursts {
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
fn round_batched_protocols_equivalent_across_engines() {
    for (name, g) in shapes(7) {
        for period in [2u64, 3, 5] {
            let proto = PhasedBurst { period, bursts: 5 };
            let cfg = SimConfig::seeded(period * 31);
            let seq = congest::run(&g, &proto, &cfg).expect("sequential");
            // Done votes are evaluated at communication rounds only: the
            // first unanimous one is round `bursts * period`.
            assert_eq!(seq.metrics.rounds, 5 * period + 1, "{name}");
            for threads in [2usize, 4, 8] {
                let par_cfg = cfg.clone().with_runtime(RuntimeMode::Parallel(threads));
                let par = congest::run(&g, &proto, &par_cfg).expect("parallel");
                assert_eq!(
                    seq.states, par.states,
                    "{name}: trace diverged (period {period}, {threads} threads)"
                );
                assert_eq!(seq.metrics, par.metrics, "{name}: metrics diverged");
            }
        }
    }
}

/// Messages delivered at a communication round must also arrive when the
/// *receiving* round is silent (sends at round `kp` arrive at `kp + 1`,
/// which the schedule marks silent) — the engine may skip the barrier in
/// silent rounds but never the local inbox rotation.
#[test]
fn silent_rounds_still_receive_prior_messages() {
    let g = gen::cycle(12);
    let proto = PhasedBurst {
        period: 4,
        bursts: 3,
    };
    let cfg = SimConfig::seeded(3);
    let res = congest::run(&g, &proto, &cfg).expect("run");
    for (v, st) in res.states.iter().enumerate() {
        let rounds: Vec<u64> = st.log.iter().map(|&(r, _, _)| r).collect();
        // Bursts at rounds 0, 4, 8 arrive at 1, 5, 9 — all silent rounds.
        assert_eq!(rounds, vec![1, 1, 5, 5, 9, 9], "node {v}: {rounds:?}");
    }
}

/// The silence contract is enforced on the parallel engine too, and the
/// violation panic propagates instead of deadlocking the other shards.
#[test]
fn parallel_silent_round_send_panics_cleanly() {
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
            3
        }
    }
    let g = gen::cycle(9);
    let caught = std::panic::catch_unwind(|| {
        let _ = congest::run(
            &g,
            &Liar,
            &SimConfig::default()
                .with_max_rounds(9)
                .with_runtime(RuntimeMode::Parallel(3)),
        );
    });
    assert!(caught.is_err(), "silent-round send must panic, not hang");
}

/// Volume stress: a dense all-ports burst for many rounds across shard
/// counts that do not divide the node count, so shard boundaries land in
/// the middle of neighborhoods.
#[test]
fn dense_volume_with_ragged_shards() {
    let g = gen::gnp_capped(97, 0.15, 11, 5);
    let proto = Recorder {
        rounds: 30,
        density: 100,
    };
    let cfg = SimConfig::seeded(11);
    let seq = congest::run(&g, &proto, &cfg).expect("sequential");
    assert!(seq.metrics.messages > 10_000, "stress must be dense");
    for threads in [3usize, 7, 10] {
        let par_cfg = cfg.clone().with_runtime(RuntimeMode::Parallel(threads));
        let par = congest::run(&g, &proto, &par_cfg).expect("parallel");
        assert_eq!(seq.states, par.states, "{threads} threads");
    }
}

/// `run_with` + `RuntimeMode` dispatch: the same prebuilt tables serve
/// sequential, parallel, and auto runs with identical results.
#[test]
fn run_with_dispatches_identically_over_shared_tables() {
    let g = gen::gnp_capped(80, 0.08, 6, 2);
    let proto = Recorder {
        rounds: 12,
        density: 40,
    };
    let base = SimConfig::seeded(21);
    let net = congest::NetTables::build(&g, &base);
    let seq = congest::run_with(&proto, &base, &net).expect("seq");
    for runtime in [
        RuntimeMode::Parallel(2),
        RuntimeMode::Parallel(5),
        RuntimeMode::Auto(4),
    ] {
        let cfg = base.clone().with_runtime(runtime);
        let res = congest::run_with(&proto, &cfg, &net).expect("run");
        assert_eq!(seq.states, res.states, "{runtime:?}");
        assert_eq!(seq.metrics, res.metrics, "{runtime:?}");
    }
}
