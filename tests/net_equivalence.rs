//! Multi-process equivalence: the netplane serves the same coloring.
//!
//! For every `(algorithm, graph family, seed)` cell, runs the pipeline
//! once sequentially and once sharded across 2 and 4 OS processes on
//! localhost (real TCP, the production `net_shard` binary), and asserts
//! the colorings, rounds, messages, and bit totals are identical. This
//! is the netplane's contract test: the socket transport must be
//! unobservable in every model-level number.

use d2color::netharness::{
    run_distributed, run_sequential, NetAlgo, NetGraph, NetSpec, RunProfile, ShardCommand,
};
use std::net::TcpListener;
use std::process::Command;

fn shard_cmd() -> ShardCommand {
    ShardCommand {
        program: env!("CARGO_BIN_EXE_net_shard").into(),
        prefix_args: Vec::new(),
    }
}

fn check_spec(spec: NetSpec) {
    check_profile(spec, &RunProfile::default());
}

fn check_profile(spec: NetSpec, profile: &RunProfile) {
    let seq = run_sequential(&spec, profile);
    // Under an adversarial drop plane the algorithm may legitimately
    // terminate with conflicts (lost announcements); the contract there
    // is purely differential. Clean profiles must verify.
    if profile.drops.is_none() {
        let g = spec.build_graph();
        assert!(
            graphs::verify::is_valid_d2_coloring(&g, &seq.colors),
            "sequential reference invalid for {}",
            spec.label()
        );
    }
    for k in [2u32, 4] {
        let net = run_distributed(&spec, k, &shard_cmd(), profile);
        assert_eq!(
            net.colors,
            seq.colors,
            "colors diverge at k={k} for {}",
            spec.label()
        );
        assert_eq!(
            net.metrics.rounds,
            seq.metrics.rounds,
            "rounds diverge at k={k} for {}",
            spec.label()
        );
        assert_eq!(
            net.metrics.messages,
            seq.metrics.messages,
            "messages diverge at k={k} for {}",
            spec.label()
        );
        assert_eq!(
            net.metrics.total_bits,
            seq.metrics.total_bits,
            "bit totals diverge at k={k} for {}",
            spec.label()
        );
        assert_eq!(
            net.metrics,
            seq.metrics,
            "full metrics diverge at k={k} for {}",
            spec.label()
        );
    }
}

fn spec(algo: NetAlgo, family: NetGraph, n: usize, degree: usize, seed: u64) -> NetSpec {
    NetSpec {
        algo,
        family,
        n,
        degree,
        graph_seed: seed,
        run_seed: seed.wrapping_mul(31).wrapping_add(7),
    }
}

#[test]
fn det_small_gnp_matches_over_sockets() {
    for seed in [1u64, 2] {
        check_spec(spec(NetAlgo::DetSmall, NetGraph::GnpCapped, 120, 5, seed));
    }
}

#[test]
fn det_small_regular_matches_over_sockets() {
    for seed in [3u64, 4] {
        check_spec(spec(
            NetAlgo::DetSmall,
            NetGraph::RandomRegular,
            96,
            4,
            seed,
        ));
    }
}

#[test]
fn rand_improved_gnp_matches_over_sockets() {
    for seed in [5u64, 6] {
        check_spec(spec(
            NetAlgo::RandImproved,
            NetGraph::GnpCapped,
            150,
            6,
            seed,
        ));
    }
}

#[test]
fn rand_improved_regular_matches_over_sockets() {
    for seed in [7u64, 8] {
        check_spec(spec(
            NetAlgo::RandImproved,
            NetGraph::RandomRegular,
            120,
            6,
            seed,
        ));
    }
}

/// Active-set scheduling over sockets: the sharded run under
/// `--sched active` must be bit-identical to the *active-set*
/// sequential reference — and that reference must produce the same
/// coloring as the always-step one while stepping strictly fewer
/// nodes. `stepped_nodes` is the only metric allowed to move.
#[test]
fn active_set_profile_matches_over_sockets() {
    let spec = spec(NetAlgo::DetSmall, NetGraph::GnpCapped, 120, 5, 1);
    let active = RunProfile::active_set();
    let always = run_sequential(&spec, &RunProfile::default());
    let seq = run_sequential(&spec, &active);
    assert_eq!(seq.colors, always.colors, "scheduling changed the coloring");
    assert_eq!(seq.metrics.rounds, always.metrics.rounds);
    assert_eq!(seq.metrics.messages, always.metrics.messages);
    assert_eq!(seq.metrics.total_bits, always.metrics.total_bits);
    assert!(
        seq.metrics.stepped_nodes < always.metrics.stepped_nodes,
        "frontier never parked a node ({} vs {})",
        seq.metrics.stepped_nodes,
        always.metrics.stepped_nodes
    );
    check_profile(spec, &active);
}

/// Simulated drop faults over sockets: the seeded fault plane is a pure
/// function of `(config, salt, n)`, so every shard charges the same
/// fates and the outcome they agree on — including the fault counters —
/// matches the sequential reference bit-for-bit.
#[test]
fn drop_fault_profile_matches_over_sockets() {
    let spec = spec(NetAlgo::DetSmall, NetGraph::RandomRegular, 96, 4, 3);
    let profile = RunProfile::default().with_drops(25_000, 11);
    let seq = run_sequential(&spec, &profile);
    assert!(
        seq.metrics.faults_dropped > 0,
        "drop plane never fired — the cell proves nothing"
    );
    check_profile(spec, &profile);
}

/// The combined cell the PR's acceptance criterion names: active-set
/// scheduling *and* a drop-fault plane, across processes, bit-identical
/// to the sequential engine.
#[test]
fn active_set_with_drop_faults_matches_over_sockets() {
    let spec = spec(NetAlgo::DetSmall, NetGraph::GnpCapped, 120, 5, 2);
    let profile = RunProfile::active_set().with_drops(25_000, 7);
    let seq = run_sequential(&spec, &profile);
    assert!(seq.metrics.faults_dropped > 0, "drop plane never fired");
    check_profile(spec, &profile);
}

/// A shard that cannot reach its coordinator reports the structured dial
/// failure and exits 1 instead of panicking.
#[test]
fn unreachable_coordinator_exits_one_without_a_panic() {
    // A port that was free a moment ago: nothing listens there now.
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap()
        .port();
    let out = Command::new(env!("CARGO_BIN_EXE_net_shard"))
        .arg(format!("127.0.0.1:{port}"))
        .args(["det-small", "gnp", "10", "2", "1", "1"])
        .output()
        .expect("spawn net_shard");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("dial to 127.0.0.1"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
