//! The fault-plane differential harness: with a seeded [`FaultConfig`]
//! attached, the sequential reference, the parallel runtime at several
//! shard counts, and the auto-selecting mode must still be
//! **observationally identical** — the same `(graph seed, fault seed)`
//! pair yields bit-identical colorings, metrics (including the drop
//! count), and structured errors on every engine.
//!
//! * Full det/rand pipelines run under message *drops* — both survive
//!   them by design (conservative trial verdicts, saturating reduce
//!   counts).
//! * Round-limit exhaustion checks the diagnostics (phase, live nodes,
//!   last progress) are engine-independent, also when the shards
//!   disagree on them.
//! * Parked nodes end the run on the round the oracle predicts, under
//!   both schedules and with round batching.
//! * The repair-after-churn pipeline is differentially checked end to
//!   end: same damage set, same repaired coloring, same metrics.

use congest::{FaultConfig, RuntimeMode};
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

fn assert_identical(label: &str, reference: &ColoringOutcome, candidate: &ColoringOutcome) {
    assert_eq!(
        reference.colors, candidate.colors,
        "{label}: colorings diverged"
    );
    assert_eq!(
        reference.metrics, candidate.metrics,
        "{label}: metrics diverged"
    );
}

/// Drop-rate sweep over both full pipelines: every engine produces the
/// same coloring and the same fault accounting. (Validity is *not*
/// asserted here: individual trials fail conservatively under loss, but
/// the palette-learning phases can adopt stale knowledge at heavy drop
/// rates — the contract under faults is determinism, and the repair
/// pipeline is the recovery path for correctness.)
#[test]
fn pipelines_under_message_drops_are_engine_identical() {
    let params = Params::practical();
    for seed in [3u64, 17] {
        for (name, g) in [
            ("gnp-capped", graphs::gen::gnp_capped(130, 0.05, 7, seed)),
            ("cycle", graphs::gen::cycle(48 + seed as usize)),
        ] {
            for drop_ppm in [1_000u32, 50_000] {
                let faults = FaultConfig::seeded(11).with_drops(drop_ppm);
                let seq_cfg = SimConfig::seeded(seed).with_faults(faults.clone());
                let det_seq = d2core::det::small::run(&g, &params, &seq_cfg).expect("det seq");
                let rand_seq =
                    d2core::rand::driver::improved(&g, &params, &seq_cfg).expect("rand seq");
                assert!(
                    det_seq.metrics.faults_dropped > 0,
                    "{name}/{drop_ppm}ppm: the fault plane never fired"
                );
                assert_eq!(
                    rand_seq.colors.len(),
                    g.n(),
                    "{name}/{drop_ppm}ppm: rand pipeline must still terminate with a full \
                     color vector"
                );
                for t in thread_counts() {
                    let cfg = seq_cfg.clone().with_runtime(RuntimeMode::Parallel(t));
                    let det_par = d2core::det::small::run(&g, &params, &cfg).expect("det par");
                    assert_identical(
                        &format!("{name}/{drop_ppm}ppm/det/t{t}"),
                        &det_seq,
                        &det_par,
                    );
                    let rand_par =
                        d2core::rand::driver::improved(&g, &params, &cfg).expect("rand par");
                    assert_identical(
                        &format!("{name}/{drop_ppm}ppm/rand/t{t}"),
                        &rand_seq,
                        &rand_par,
                    );
                }
                let auto_cfg = seq_cfg.clone().with_runtime(RuntimeMode::Auto(4));
                let det_auto = d2core::det::small::run(&g, &params, &auto_cfg).expect("det auto");
                assert_identical(
                    &format!("{name}/{drop_ppm}ppm/det/auto"),
                    &det_seq,
                    &det_auto,
                );
                let rand_auto =
                    d2core::rand::driver::improved(&g, &params, &auto_cfg).expect("rand auto");
                assert_identical(
                    &format!("{name}/{drop_ppm}ppm/rand/auto"),
                    &rand_seq,
                    &rand_auto,
                );
            }
        }
    }
}

/// Diagnostics under round-limit exhaustion: a protocol that goes silent
/// after round 0 stalls, and the structured error — phase label,
/// live-node count, last progress round — is bit-identical on every
/// engine. A second protocol stalls with shards that disagree on both
/// diagnostics, so the merge across shards is what is checked.
#[test]
fn round_limit_diagnostics_are_engine_identical() {
    use congest::{Inbox, NodeCtx, NodeRng, Outbox, Protocol, Status};

    /// Broadcasts once in round 0, then idles forever.
    struct GoesQuiet;
    impl Protocol for GoesQuiet {
        type State = ();
        type Msg = u32;
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
        fn round(
            &self,
            _: &mut (),
            ctx: &NodeCtx,
            _: &mut NodeRng,
            _: &Inbox<u32>,
            out: &mut Outbox<u32>,
        ) -> Status {
            if ctx.round == 0 {
                out.broadcast(7);
            }
            Status::Running
        }
    }

    let g = graphs::gen::gnp_capped(64, 0.08, 5, 2);
    let cfg = SimConfig::seeded(2)
        .with_max_rounds(40)
        .with_phase_label("stall");
    let seq_err = congest::run(&g, &GoesQuiet, &cfg).unwrap_err();
    assert_eq!(
        seq_err,
        SimError::RoundLimitExceeded {
            limit: 40,
            phase: "stall".into(),
            live_nodes: g.n() as u64,
            last_progress_round: 0,
        }
    );
    for t in thread_counts() {
        let par_cfg = cfg.clone().with_runtime(RuntimeMode::Parallel(t));
        let err = congest::run(&g, &GoesQuiet, &par_cfg).unwrap_err();
        assert_eq!(err, seq_err, "t{t}: round-limit diagnostics diverged");
    }
    let auto_err = congest::run(
        &g,
        &GoesQuiet,
        &cfg.clone().with_runtime(RuntimeMode::Auto(4)),
    )
    .unwrap_err();
    assert_eq!(auto_err, seq_err, "auto: round-limit diagnostics diverged");

    /// Node `v` broadcasts once, at round `3·(v mod 5)`; even nodes vote
    /// `Done` and odd ones `Running`. On `path(9)` the last sender is
    /// node 4 at round 12, and each shard of a split sees only its own
    /// senders' rounds.
    struct Watermark;
    impl Protocol for Watermark {
        type State = ();
        type Msg = u32;
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
        fn round(
            &self,
            _: &mut (),
            ctx: &NodeCtx,
            _: &mut NodeRng,
            _: &Inbox<u32>,
            out: &mut Outbox<u32>,
        ) -> Status {
            if ctx.round == 3 * u64::from(ctx.index % 5) {
                out.broadcast(7);
            }
            if ctx.index.is_multiple_of(2) {
                Status::Done
            } else {
                Status::Running
            }
        }
        fn sync_period(&self) -> u64 {
            3
        }
    }

    let g = graphs::gen::path(9);
    let cfg = SimConfig::seeded(2).with_max_rounds(40);
    let seq_err = congest::run(&g, &Watermark, &cfg).unwrap_err();
    assert_eq!(
        seq_err,
        SimError::RoundLimitExceeded {
            limit: 40,
            phase: String::new(),
            live_nodes: 4,
            last_progress_round: 12,
        }
    );
    let runtimes = thread_counts()
        .into_iter()
        .map(RuntimeMode::Parallel)
        .chain([RuntimeMode::Auto(4)]);
    for runtime in runtimes {
        let err = congest::run(&g, &Watermark, &cfg.clone().with_runtime(runtime)).unwrap_err();
        assert_eq!(err, seq_err, "{runtime:?}: merged diagnostics diverged");
    }
}

/// An attached-but-inert fault plane (all rates zero) must be bit-exact
/// with a config that never mentions faults, and `without_faults` must
/// fully strip an active plane — on both pipelines.
#[test]
fn disabled_fault_plane_matches_no_fault_config() {
    let g = graphs::gen::gnp_capped(130, 0.05, 7, 3);
    let params = Params::practical();
    let plain = SimConfig::seeded(3);
    let inert = SimConfig::seeded(3).with_faults(FaultConfig::seeded(99));
    let stripped = SimConfig::seeded(3)
        .with_faults(FaultConfig::seeded(99).with_drops(250_000))
        .without_faults();
    let det_ref = d2core::det::small::run(&g, &params, &plain).expect("det plain");
    let rand_ref = d2core::rand::driver::improved(&g, &params, &plain).expect("rand plain");
    for (label, cfg) in [("inert", &inert), ("stripped", &stripped)] {
        let det = d2core::det::small::run(&g, &params, cfg).expect("det");
        assert_identical(&format!("{label}/det"), &det_ref, &det);
        assert_eq!(det.metrics.faults_dropped, 0, "{label}: plane fired");
        let rand = d2core::rand::driver::improved(&g, &params, cfg).expect("rand");
        assert_identical(&format!("{label}/rand"), &rand_ref, &rand);
    }
}

/// End-to-end churn → damage detection → local repair, differentially
/// across engines: the same edge batch yields the same damage set, the
/// same repaired (and valid) coloring, and the same repair traffic.
#[test]
fn repair_after_churn_is_engine_identical() {
    let g = graphs::gen::gnp_capped(200, 0.03, 6, 11);
    let params = Params::practical();
    let colors = d2core::det::small::run(&g, &params, &SimConfig::seeded(11))
        .expect("base coloring")
        .colors;

    let mut batch = graphs::EdgeBatch::new();
    for k in 0..8u32 {
        batch.insert(k * 11, k * 17 + 53);
    }
    batch.delete(0, 1).delete(3, 4);
    let churned = graphs::apply_batch(&g, &batch).expect("churn");
    assert!(!churned.touched.is_empty(), "batch must change the graph");
    let view = D2View::build(&churned.graph);

    let seq_cfg = SimConfig::seeded(31);
    let seq = d2core::repair(&churned.graph, &view, &colors, &churned.touched, &seq_cfg)
        .expect("seq repair");
    assert!(
        graphs::verify::is_valid_d2_coloring_with(&view, &seq.colors),
        "sequential repair left conflicts"
    );
    for t in thread_counts() {
        let cfg = seq_cfg.clone().with_runtime(RuntimeMode::Parallel(t));
        let par = d2core::repair(&churned.graph, &view, &colors, &churned.touched, &cfg)
            .expect("par repair");
        assert_eq!(seq.damaged, par.damaged, "t{t}: damage sets diverged");
        assert_eq!(seq.colors, par.colors, "t{t}: repaired colorings diverged");
        assert_eq!(seq.metrics, par.metrics, "t{t}: repair metrics diverged");
        assert_eq!(seq.palette_drift(), par.palette_drift(), "t{t}: drift");
    }
    let auto_cfg = seq_cfg.clone().with_runtime(RuntimeMode::Auto(4));
    let auto = d2core::repair(&churned.graph, &view, &colors, &churned.touched, &auto_cfg)
        .expect("auto repair");
    assert_eq!(seq.colors, auto.colors, "auto: repaired colorings diverged");
    assert_eq!(seq.metrics, auto.metrics, "auto: repair metrics diverged");
}

/// Churn + repair with an *active* drop plane riding on the config, at
/// parallel shard counts 2 and 4. The conflicts are injected directly
/// (same-colored nodes wired together), so damage is guaranteed; repair
/// strips the plane — it *is* the recovery path — and every engine must
/// find the same damage set and produce the same valid repaired coloring
/// with no message dropped.
#[test]
fn churn_repair_under_drop_plane_is_engine_identical() {
    let g = graphs::gen::gnp_capped(160, 0.04, 6, 19);
    let params = Params::practical();
    let colors = d2core::det::small::run(&g, &params, &SimConfig::seeded(19))
        .expect("base coloring")
        .colors;

    // Wire together up to four same-colored pairs currently beyond
    // distance 2: each inserted edge is a guaranteed new conflict.
    let mut batch = graphs::EdgeBatch::new();
    let mut found = 0u32;
    'outer: for u in 0..g.n() as u32 {
        for v in (u + 1)..g.n() as u32 {
            if colors[u as usize] == colors[v as usize] && !g.are_d2_neighbors(u, v) {
                batch.insert(u, v);
                found += 1;
                if found == 4 {
                    break 'outer;
                }
            }
        }
    }
    assert!(found > 0, "some color must repeat outside distance 2");
    let churned = graphs::apply_batch(&g, &batch).expect("churn");
    let view = D2View::build(&churned.graph);

    let drop_cfg = SimConfig::seeded(41).with_faults(FaultConfig::seeded(8).with_drops(120_000));
    let seq = d2core::repair(&churned.graph, &view, &colors, &churned.touched, &drop_cfg)
        .expect("seq repair");
    assert!(seq.damaged >= 2, "injected conflicts must be detected");
    assert!(
        graphs::verify::is_valid_d2_coloring_with(&view, &seq.colors),
        "sequential repair left conflicts"
    );
    assert_eq!(seq.metrics.faults_dropped, 0, "repair must strip the plane");
    for t in [2, 4] {
        let cfg = drop_cfg.clone().with_runtime(RuntimeMode::Parallel(t));
        let par = d2core::repair(&churned.graph, &view, &colors, &churned.touched, &cfg)
            .expect("par repair");
        assert_eq!(seq.damaged, par.damaged, "t{t}: damage sets diverged");
        assert_eq!(seq.colors, par.colors, "t{t}: repaired colorings diverged");
        assert_eq!(seq.metrics, par.metrics, "t{t}: repair metrics diverged");
        assert!(
            graphs::verify::is_valid_d2_coloring_with(&view, &par.colors),
            "t{t}: parallel repair left conflicts"
        );
    }
}

/// Repair runs on the *post-fault* recovery path: even when the config
/// carries an aggressive fault plane, `repair` strips it, so the outcome
/// matches a fault-free config bit for bit.
#[test]
fn repair_is_fault_free_even_with_a_plane_attached() {
    let g = graphs::gen::gnp_capped(120, 0.05, 6, 7);
    let params = Params::practical();
    let colors = d2core::det::small::run(&g, &params, &SimConfig::seeded(7))
        .expect("base coloring")
        .colors;
    let mut batch = graphs::EdgeBatch::new();
    batch.insert(2, 90).insert(5, 77).insert(14, 101);
    let churned = graphs::apply_batch(&g, &batch).expect("churn");
    let view = D2View::build(&churned.graph);

    let clean_cfg = SimConfig::seeded(13);
    let noisy_cfg = SimConfig::seeded(13).with_faults(FaultConfig::seeded(1).with_drops(200_000));
    let clean = d2core::repair(&churned.graph, &view, &colors, &churned.touched, &clean_cfg)
        .expect("clean repair");
    let noisy = d2core::repair(&churned.graph, &view, &colors, &churned.touched, &noisy_cfg)
        .expect("noisy repair");
    assert_eq!(clean.colors, noisy.colors);
    assert_eq!(clean.metrics, noisy.metrics);
    assert_eq!(noisy.metrics.faults_dropped, 0);
}

/// Termination oracle for parked nodes: node `v` votes `Running` until
/// round `t_v = 7v mod 29`, then `Done`, and never sends. With
/// `sync_period` 1 or 3, on every engine and under both schedules, a run
/// must end one round after the first communication round at or after
/// the latest deadline, 28.
#[test]
fn parked_termination_matches_the_oracle() {
    use congest::{Inbox, NodeCtx, NodeRng, Outbox, Protocol, Scheduling, Status, Wake};

    /// Period `.0`; under `ActiveSet` a node parks until the first
    /// communication round at or after its deadline.
    struct Countdown(u64);
    fn deadline(v: usize) -> u64 {
        (7 * v as u64) % 29
    }
    impl Protocol for Countdown {
        type State = ();
        type Msg = ();
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
        fn round(
            &self,
            _: &mut (),
            ctx: &NodeCtx,
            _: &mut NodeRng,
            _: &Inbox<()>,
            _: &mut Outbox<()>,
        ) -> Status {
            if ctx.round < deadline(ctx.index as usize) {
                Status::Running
            } else {
                Status::Done
            }
        }
        fn next_wake(&self, _: &(), ctx: &NodeCtx, status: Status) -> Wake {
            match status {
                Status::Running => Wake::At(deadline(ctx.index as usize).next_multiple_of(self.0)),
                Status::Done => Wake::Message,
            }
        }
        fn sync_period(&self) -> u64 {
            self.0
        }
    }

    let g = graphs::gen::cycle(60);
    for period in [1u64, 3] {
        let rounds = 28u64.next_multiple_of(period) + 1;
        let runtimes = std::iter::once(RuntimeMode::Sequential)
            .chain(thread_counts().into_iter().map(RuntimeMode::Parallel));
        for runtime in runtimes {
            for scheduling in [Scheduling::AlwaysStep, Scheduling::ActiveSet] {
                let cfg = SimConfig::seeded(6)
                    .with_runtime(runtime)
                    .with_scheduling(scheduling);
                let label = format!("p{period}/{runtime:?}/{scheduling:?}");
                let res = congest::run(&g, &Countdown(period), &cfg).expect(&label);
                assert_eq!(res.metrics.rounds, rounds, "{label}: rounds");
            }
        }
    }
}
