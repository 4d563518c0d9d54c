//! Chaos recovery: a shard dies mid-phase, the run still finishes
//! bit-identical.
//!
//! Each cell runs a pipeline across 4 OS processes under a seeded chaos
//! schedule ([`congest::netplane::chaos`]) that aborts one shard at an
//! early round barrier — for some seeds with a torn frame half-written
//! on the wire. The supervisor ([`run_supervised`]) must observe the
//! death, respawn the victim with `--rejoin`, and the replacement must
//! replay the survivors' retained history and finish the run with
//! colorings and metrics bit-identical to the sequential reference.
//! The kill is part of the assertion: a schedule that never fires, or a
//! supervisor that never respawns, fails the test.

use congest::netplane::chaos::kill_plan;
use d2color::netharness::{
    run_sequential, run_supervised, NetAlgo, NetGraph, NetSpec, RunProfile, ShardCommand,
};

const K: u32 = 4;

fn shard_cmd() -> ShardCommand {
    ShardCommand {
        program: env!("CARGO_BIN_EXE_net_shard").into(),
        prefix_args: Vec::new(),
    }
}

fn check_chaos(spec: NetSpec, chaos_seed: u64) {
    check_chaos_profile(spec, chaos_seed, &RunProfile::default());
}

fn check_chaos_profile(spec: NetSpec, chaos_seed: u64, profile: &RunProfile) {
    let seq = run_sequential(&spec, profile);
    // An adversarial drop plane may legitimately leave conflicts; the
    // contract there is purely differential. Clean profiles must verify.
    if profile.drops.is_none() {
        let g = spec.build_graph();
        assert!(
            graphs::verify::is_valid_d2_coloring(&g, &seq.colors),
            "sequential reference invalid for {}",
            spec.label()
        );
    }
    let (net, report) = run_supervised(&spec, K, &shard_cmd(), chaos_seed, profile);
    let plan = kill_plan(chaos_seed, K);
    assert!(
        report.respawned,
        "seed {chaos_seed}: the kill never fired, no recovery exercised ({})",
        spec.label()
    );
    assert_eq!(report.killed_shard, plan.victim);
    assert_eq!(report.kill_sync, plan.sync);
    assert_eq!(
        net.colors,
        seq.colors,
        "colors diverge after losing shard {} at sync {} ({})",
        plan.victim,
        plan.sync,
        spec.label()
    );
    assert_eq!(
        net.metrics,
        seq.metrics,
        "metrics diverge after recovery ({})",
        spec.label()
    );
}

#[test]
fn det_small_survives_a_mid_phase_shard_kill() {
    check_chaos(
        NetSpec {
            algo: NetAlgo::DetSmall,
            family: NetGraph::GnpCapped,
            n: 120,
            degree: 5,
            graph_seed: 1,
            run_seed: 38,
        },
        29,
    );
}

#[test]
fn rand_improved_survives_a_mid_phase_shard_kill() {
    check_chaos(
        NetSpec {
            algo: NetAlgo::RandImproved,
            family: NetGraph::RandomRegular,
            n: 96,
            degree: 6,
            graph_seed: 7,
            run_seed: 224,
        },
        29,
    );
}

/// Every survivability layer at once: a chaos kill/respawn while the
/// engine runs active-set scheduling *and* a simulated drop-fault
/// plane. The rejoined replacement rebuilds the same frontier and
/// charges the same seeded fates, so the agreed outcome — coloring,
/// fault counters, stepped-node total — still matches the sequential
/// reference bit-for-bit.
#[test]
fn chaos_kill_survives_active_set_with_drop_faults() {
    let spec = NetSpec {
        algo: NetAlgo::DetSmall,
        family: NetGraph::GnpCapped,
        n: 120,
        degree: 5,
        graph_seed: 1,
        run_seed: 38,
    };
    let profile = RunProfile::active_set().with_drops(25_000, 13);
    let seq = run_sequential(&spec, &profile);
    assert!(
        seq.metrics.faults_dropped > 0,
        "drop plane never fired — the cell proves nothing"
    );
    let always = run_sequential(&spec, &RunProfile::default().with_drops(25_000, 13));
    assert!(
        seq.metrics.stepped_nodes < always.metrics.stepped_nodes,
        "frontier never parked a node under faults"
    );
    check_chaos_profile(spec, 29, &profile);
}

#[test]
fn recovery_handles_a_torn_frame_kill() {
    // Find a seed whose schedule kills *mid-frame* (a torn ROUND frame
    // is left on the wire), to force the survivors' decoders through the
    // structured-EOF path during recovery.
    let seed = (0..64)
        .find(|&s| kill_plan(s, K).mid_frame)
        .expect("some small seed kills mid-frame");
    check_chaos(
        NetSpec {
            algo: NetAlgo::DetSmall,
            family: NetGraph::RandomRegular,
            n: 96,
            degree: 4,
            graph_seed: 3,
            run_seed: 100,
        },
        seed,
    );
}
