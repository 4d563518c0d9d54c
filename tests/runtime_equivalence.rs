//! The differential runtime harness (grown out of the `exp/e12/*`
//! runtime-equivalence experiment): the sequential reference, the
//! single-barrier parallel runtime at several shard counts, and the
//! auto-selecting mode must be **observationally
//! identical** — bit-identical final colorings, rounds, message counts and
//! bit totals, and identical error values — across a seeded sweep of graph
//! families and both full coloring pipelines (deterministic Theorem 1.2
//! and randomized Theorem 1.1).
//!
//! Thread counts default to {2, 4, 8}; the `D2_THREADS` environment
//! variable pins a single count so CI can matrix the suite over
//! `--threads {1, 4}` without recompiling.

use congest::RuntimeMode;
use d2color::prelude::*;
use graphs::D2View;

/// Parallel shard counts under differential test. `D2_THREADS=t` replaces
/// the default sweep with `{t}` (the CI matrix sets 1 and 4).
fn thread_counts() -> Vec<usize> {
    match std::env::var("D2_THREADS") {
        Ok(s) => vec![s.parse().expect("D2_THREADS must be a thread count")],
        Err(_) => vec![2, 4, 8],
    }
}

/// One seeded round of the family sweep: uncapped G(n,p), capped G(n,p),
/// cycle, star, and a disconnected union of heterogeneous components
/// (including isolated nodes — the termination-detection stress case).
fn families(seed: u64) -> Vec<(String, Graph)> {
    vec![
        ("gnp".into(), graphs::gen::gnp(44, 0.09, seed)),
        (
            "gnp-capped".into(),
            graphs::gen::gnp_capped(130, 0.05, 7, seed),
        ),
        ("cycle".into(), graphs::gen::cycle(48 + seed as usize)),
        ("star".into(), graphs::gen::star(21)),
        (
            "disconnected".into(),
            graphs::gen::disjoint_union(&[
                graphs::gen::gnp_capped(36, 0.09, 5, seed + 1),
                graphs::gen::cycle(15),
                graphs::gen::star(7),
                graphs::gen::empty(5),
            ]),
        ),
    ]
}

fn assert_identical(
    name: &str,
    runtime: &str,
    reference: &ColoringOutcome,
    candidate: &ColoringOutcome,
) {
    assert_eq!(
        reference.colors, candidate.colors,
        "{name}/{runtime}: colorings diverged"
    );
    assert_eq!(
        reference.metrics.rounds, candidate.metrics.rounds,
        "{name}/{runtime}: rounds diverged"
    );
    assert_eq!(
        reference.metrics.messages, candidate.metrics.messages,
        "{name}/{runtime}: message counts diverged"
    );
    assert_eq!(
        reference.metrics.total_bits, candidate.metrics.total_bits,
        "{name}/{runtime}: bit totals diverged"
    );
}

/// The headline sweep: every runtime × family × seed × pipeline cell is
/// bit-identical to the sequential reference.
#[test]
fn differential_sweep_det_and_rand_pipelines() {
    let params = Params::practical();
    for seed in [3u64, 17] {
        for (name, g) in families(seed) {
            let view = D2View::build(&g);
            let seq_cfg = SimConfig::seeded(seed);
            let det_seq = d2core::det::small::run(&g, &params, &seq_cfg).expect("det seq");
            let rand_seq = d2core::rand::driver::improved(&g, &params, &seq_cfg).expect("rand seq");
            assert!(
                graphs::verify::is_valid_d2_coloring_with(&view, &det_seq.colors),
                "{name}: det reference invalid"
            );
            assert!(
                graphs::verify::is_valid_d2_coloring_with(&view, &rand_seq.colors),
                "{name}: rand reference invalid"
            );
            for t in thread_counts() {
                let cfg = SimConfig::seeded(seed).with_runtime(RuntimeMode::Parallel(t));
                let det_par = d2core::det::small::run(&g, &params, &cfg).expect("det par");
                assert_identical(&name, &format!("parallel-{t}/det"), &det_seq, &det_par);
                let rand_par = d2core::rand::driver::improved(&g, &params, &cfg).expect("rand par");
                assert_identical(&name, &format!("parallel-{t}/rand"), &rand_seq, &rand_par);
            }
            let auto_cfg = SimConfig::seeded(seed).with_runtime(RuntimeMode::Auto(4));
            let det_auto = d2core::det::small::run(&g, &params, &auto_cfg).expect("det auto");
            assert_identical(&name, "auto/det", &det_seq, &det_auto);
            let rand_auto =
                d2core::rand::driver::improved(&g, &params, &auto_cfg).expect("rand auto");
            assert_identical(&name, "auto/rand", &rand_seq, &rand_auto);
        }
    }
}

/// Active-set scheduling against the always-step reference: for every
/// family × pipeline cell, parking must change *nothing observable* —
/// same colorings, same rounds/messages/bits/drop counts — while
/// `stepped_nodes` (the one metric the refactor exists to shrink) may
/// only go down. Sequential and parallel active-set runs are both held
/// against the sequential always-step reference.
///
/// The families finish in the initial trials, so one more input leaves
/// live nodes for the Reduce cascade: one trial cycle per `ln n` on a
/// random-regular graph dense enough (degree 20 on 60 nodes) for its
/// similarity graphs to carry Reduce's queries. Its parked nodes are the
/// ones the reference steps through whole sub-rounds.
#[test]
fn active_set_matches_always_step_reference() {
    use congest::Scheduling;
    let stressed = Params {
        c0_initial_rounds: 1.0,
        ..Params::practical()
    };
    let mut inputs: Vec<(String, Graph, Params)> = families(13)
        .into_iter()
        .map(|(name, g)| (name, g, Params::practical()))
        .collect();
    let rr20 = graphs::gen::random_regular(60, 20, 13);
    inputs.push(("rr20-c0=1".into(), rr20, stressed));
    let mut reduced = false;
    for (name, g, params) in &inputs {
        let ref_cfg = SimConfig::seeded(13).with_scheduling(Scheduling::AlwaysStep);
        let act_cfg = SimConfig::seeded(13);
        let det_ref = d2core::det::small::run(g, params, &ref_cfg).expect("det ref");
        let rand_ref = d2core::rand::driver::improved(g, params, &ref_cfg).expect("rand ref");
        reduced |= rand_ref
            .phases
            .iter()
            .any(|p| p.name.starts_with("reduce("));
        let mut cells = vec![
            (
                "det/seq",
                det_ref.clone(),
                d2core::det::small::run(g, params, &act_cfg).expect("det act"),
            ),
            (
                "rand/seq",
                rand_ref.clone(),
                d2core::rand::driver::improved(g, params, &act_cfg).expect("rand act"),
            ),
        ];
        for t in thread_counts() {
            let cfg = act_cfg.clone().with_runtime(RuntimeMode::Parallel(t));
            cells.push((
                "det/par",
                det_ref.clone(),
                d2core::det::small::run(g, params, &cfg).expect("det act par"),
            ));
            cells.push((
                "rand/par",
                rand_ref.clone(),
                d2core::rand::driver::improved(g, params, &cfg).expect("rand act par"),
            ));
        }
        for (label, reference, active) in &cells {
            assert_eq!(
                reference.colors, active.colors,
                "{name}/{label}: active-set changed the coloring"
            );
            assert!(
                active.metrics.stepped_nodes <= reference.metrics.stepped_nodes,
                "{name}/{label}: active-set stepped more nodes ({} > {})",
                active.metrics.stepped_nodes,
                reference.metrics.stepped_nodes
            );
            // Every other observable must be bit-identical.
            let mut a = active.metrics.clone();
            let mut r = reference.metrics.clone();
            a.stepped_nodes = 0;
            r.stepped_nodes = 0;
            assert_eq!(
                r, a,
                "{name}/{label}: metrics diverged beyond stepped_nodes"
            );
        }
    }
    assert!(reduced, "no input reached a reduce phase");
}

/// A network large enough for auto mode to resolve to the *parallel*
/// engine on a multicore host (the sweep above only exercises auto's
/// sequential resolution — those graphs are small). The policy decision is
/// asserted against an explicit core count; the engine auto would dispatch
/// to is then differentially checked at that size, and `run` under
/// auto must match the reference on whatever this host resolves to.
#[test]
fn auto_mode_parallel_resolution_is_bit_identical() {
    let g = graphs::gen::random_regular(2600, 6, 5);
    let net = congest::NetTables::build(&g, &SimConfig::seeded(8));
    assert_eq!(
        RuntimeMode::Auto(4).resolve_for(&net, 8),
        RuntimeMode::Parallel(4),
        "workload must be heavy enough to trigger the parallel engine"
    );
    assert_eq!(
        RuntimeMode::Auto(4).resolve_for(&net, 1),
        RuntimeMode::Sequential,
        "a single-core host must stay sequential"
    );
    let proto = d2core::rand::trials::RandomTrials::new(37, 12);
    let seq = congest::run(&g, &proto, &SimConfig::seeded(8)).expect("seq");
    let par_cfg = SimConfig::seeded(8).with_runtime(RuntimeMode::Parallel(4));
    let par = congest::run(&g, &proto, &par_cfg).expect("par");
    let auto = congest::run(
        &g,
        &proto,
        &SimConfig::seeded(8).with_runtime(RuntimeMode::Auto(4)),
    )
    .expect("auto");
    let a: Vec<u32> = seq.states.iter().map(|s| s.trial.color()).collect();
    for (label, res) in [("parallel-4", &par), ("auto", &auto)] {
        let b: Vec<u32> = res.states.iter().map(|s| s.trial.color()).collect();
        assert_eq!(a, b, "{label} diverged");
        assert_eq!(&seq.metrics, &res.metrics, "{label} metrics diverged");
    }
}

/// Over-budget messages are counted, never fatal: every runtime and
/// thread count runs to the same termination round with the same
/// violation count and the same bit totals as the sequential runtime.
/// Violations are staggered across rounds and nodes, so a shard that
/// dropped or double-counted one would show.
#[test]
fn over_budget_messages_are_counted_identically() {
    use congest::{Inbox, Message, NodeCtx, NodeRng, Outbox, Protocol, Status};

    /// Node `v` sends one oversized message in round `(v * 7) % 5 + 1`,
    /// with the size encoding `(round, node)` so each violation is
    /// visible in the bit totals, not just its existence.
    struct Staggered;
    #[derive(Debug, Clone)]
    struct Huge(u64);
    impl Message for Huge {
        fn bits(&self) -> u64 {
            (1 << 20) + self.0
        }
    }
    impl Protocol for Staggered {
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
            let fire = (u64::from(ctx.index) * 7) % 5 + 1;
            if ctx.round == fire {
                out.broadcast(Huge(ctx.round * 1000 + u64::from(ctx.index)));
            }
            if ctx.round < 8 {
                Status::Running
            } else {
                Status::Done
            }
        }
    }

    for (name, g) in families(9) {
        if g.m() == 0 {
            continue;
        }
        let cfg = SimConfig::seeded(9);
        let seq = congest::run(&g, &Staggered, &cfg).expect(&name).metrics;
        // Every node broadcasts once, and every message is over budget.
        assert!(seq.bandwidth_violations > 0, "{name}: nothing over budget");
        assert_eq!(seq.bandwidth_violations, 2 * g.m() as u64, "{name}");
        assert_eq!(seq.messages, seq.bandwidth_violations, "{name}");
        assert_eq!(seq.rounds, 9, "{name}: the run stopped early");
        for t in thread_counts() {
            let par_cfg = cfg.clone().with_runtime(RuntimeMode::Parallel(t));
            for repeat in 0..3 {
                let par = congest::run(&g, &Staggered, &par_cfg).expect(&name);
                assert_eq!(
                    par.metrics, seq,
                    "{name}: metrics diverged with {t} threads (repeat {repeat})"
                );
            }
        }
        let auto = congest::run(
            &g,
            &Staggered,
            &cfg.clone().with_runtime(RuntimeMode::Auto(4)),
        )
        .expect(&name);
        assert_eq!(auto.metrics, seq, "{name}: auto mode metrics diverged");
    }
}

#[test]
fn random_trials_equivalent_across_runtimes() {
    let g = graphs::gen::gnp_capped(180, 0.05, 7, 1);
    let proto = d2core::rand::trials::RandomTrials::new(50, 15);
    let cfg = SimConfig::seeded(5);
    let seq = congest::run(&g, &proto, &cfg).expect("sequential");
    for threads in [2, 5, 16] {
        let par_cfg = cfg.clone().with_runtime(RuntimeMode::Parallel(threads));
        let par = congest::run(&g, &proto, &par_cfg).expect("parallel");
        let a: Vec<u32> = seq.states.iter().map(|s| s.trial.color()).collect();
        let b: Vec<u32> = par.states.iter().map(|s| s.trial.color()).collect();
        assert_eq!(a, b, "divergence with {threads} threads");
        assert_eq!(seq.metrics, par.metrics);
    }
}

#[test]
fn full_deterministic_pipeline_equivalent_via_driver() {
    let g = graphs::gen::grid(10, 10);
    let params = Params::practical();
    let cfg = SimConfig::seeded(6);
    let seq = d2core::det::small::run(&g, &params, &cfg).expect("seq");
    // The driver runs sequentially; rebuild with a parallel driver.
    let scope = d2core::det::Scope::full_d2(&g);
    let mut driver = d2core::Driver::new(&g, cfg.with_runtime(RuntimeMode::Parallel(4)));
    let colors = d2core::det::small::pipeline(&mut driver, &scope).expect("par pipeline");
    let par = driver.finish(colors);
    assert_eq!(seq.colors, par.colors);
    assert_eq!(seq.metrics.messages, par.metrics.messages);
    assert_eq!(seq.metrics.rounds, par.metrics.rounds);
}

#[test]
fn similarity_construction_equivalent() {
    let g = graphs::gen::clique_ring(3, 7);
    let cfg = SimConfig::seeded(7);
    let proto = d2core::rand::similarity::ExactSimilarity::new(cfg.bandwidth_bits(g.n()));
    let seq = congest::run(&g, &proto, &cfg).expect("seq");
    let par_cfg = cfg.clone().with_runtime(RuntimeMode::Parallel(3));
    let par = congest::run(&g, &proto, &par_cfg).expect("par");
    for (a, b) in seq.states.iter().zip(&par.states) {
        assert_eq!(a.knowledge, b.knowledge);
    }
}

/// The similarity exchange's knowledge must be invariant under the
/// `sync_period` declaration: batching `p` rounds of list traffic into
/// one synchronization reschedules the same content, so every node's
/// pairwise H/Ĥ flags (and both engines) must agree with the classic
/// `p = 1` schedule — while the message count strictly drops.
#[test]
fn similarity_knowledge_is_sync_period_invariant() {
    let g = graphs::gen::clique_ring(3, 7);
    let cfg = SimConfig::seeded(7);
    let budget = cfg.bandwidth_bits(g.n());
    let reference = congest::run(
        &g,
        &d2core::rand::similarity::ExactSimilarity::new(budget),
        &cfg,
    )
    .expect("p=1");
    for p in [2u64, 3, 4, 8] {
        let proto = d2core::rand::similarity::ExactSimilarity::new(budget).with_period(p);
        let seq = congest::run(&g, &proto, &cfg).expect("seq");
        for t in thread_counts() {
            let par_cfg = cfg.clone().with_runtime(RuntimeMode::Parallel(t));
            let par = congest::run(&g, &proto, &par_cfg).expect("par");
            assert_eq!(seq.metrics, par.metrics, "p={p} t={t} metrics diverge");
            for (a, b) in seq.states.iter().zip(&par.states) {
                assert_eq!(a.knowledge, b.knowledge, "p={p} t={t}");
            }
        }
        for (a, b) in seq.states.iter().zip(&reference.states) {
            assert_eq!(a.knowledge, b.knowledge, "p={p} changed the knowledge");
        }
        assert!(
            seq.metrics.messages < reference.metrics.messages,
            "p={p} should move fewer, bigger messages: {} vs {}",
            seq.metrics.messages,
            reference.metrics.messages
        );
    }
}

/// Full randomized pipeline under several `list_sync_period` values, with
/// a stressed warmup so every phase actually runs: each period must be
/// bit-identical across engines and produce a valid coloring.
#[test]
fn rand_pipeline_sync_period_equivalent_across_engines() {
    let g = graphs::gen::gnp_capped(140, 0.08, 6, 11);
    let view = D2View::build(&g);
    for period in [1u64, 2, 4, 7] {
        let params = Params {
            c0_initial_rounds: 1.0,
            list_sync_period: period,
            ..Params::practical()
        };
        let seq_cfg = SimConfig::seeded(23);
        let seq = d2core::rand::driver::improved(&g, &params, &seq_cfg).expect("seq");
        assert!(
            graphs::verify::is_valid_d2_coloring_with(&view, &seq.colors),
            "period {period}: invalid coloring"
        );
        for t in thread_counts() {
            let cfg = seq_cfg.clone().with_runtime(RuntimeMode::Parallel(t));
            let par = d2core::rand::driver::improved(&g, &params, &cfg).expect("par");
            assert_eq!(seq.colors, par.colors, "period {period} t={t}");
            assert_eq!(seq.metrics, par.metrics, "period {period} t={t}");
        }
    }
}
