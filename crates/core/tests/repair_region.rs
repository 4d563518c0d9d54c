//! Region repair against the whole-network run it replaces.
//!
//! [`d2core::repair`] simulates only the damaged nodes and their
//! neighbors, on induced tables that keep each node's network identity.
//! The reference below is the same phase run through [`Driver::new`] on
//! every node of the network. Over several graph families, seeds and
//! multi-batch churn traces the two must agree on everything but the
//! stepped-node count, which the region may only lower: colors, rounds,
//! messages, bits, the per-edge budget and its violations, the damage
//! count and the palette fields — also when the input coloring leaves a
//! node uncolored far from the churn.

use congest::{Metrics, Scheduling, SimConfig};
use d2core::rand::trials::RandomTrials;
use d2core::{find_damage, repair, Driver, RepairOutcome, UNCOLORED};
use graphs::{apply_batch, gen, verify, D2View, EdgeBatch, Graph, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The repair phase on every node of `graph`: each node starts from its
/// color and its neighbors' colors by port, damaged ones masked.
fn whole_network_repair(
    graph: &Graph,
    d2: &D2View,
    colors: &[u32],
    touched: &[NodeId],
    config: &SimConfig,
) -> RepairOutcome {
    let damaged = find_damage(graph, d2, colors, touched);
    let palette_before = verify::palette_size(colors);
    let palette = (palette_before as u32).max(d2.max_d2_degree() as u32 + 1);
    if damaged.is_empty() {
        return RepairOutcome {
            colors: colors.to_vec(),
            damaged: 0,
            palette,
            palette_before,
            palette_after: palette_before,
            metrics: Metrics::default(),
        };
    }
    let masked = |v: NodeId| {
        if damaged.binary_search(&v).is_ok() {
            UNCOLORED
        } else {
            colors[v as usize]
        }
    };
    let init = (0..graph.n() as NodeId)
        .map(|v| {
            (
                masked(v),
                graph.neighbors(v).iter().map(|&u| masked(u)).collect(),
            )
        })
        .collect();
    let mut driver = Driver::new(graph, config.clone().without_faults());
    let proto = RandomTrials::to_completion(palette)
        .resuming(init)
        .locally_free();
    let repaired = driver
        .run_phase("repair", &proto, |s| s.trial.color())
        .expect("whole-network repair");
    RepairOutcome {
        palette_after: verify::palette_size(&repaired),
        colors: repaired,
        damaged: damaged.len(),
        palette,
        palette_before,
        metrics: driver.metrics().clone(),
    }
}

/// Centralized greedy distance-2 coloring in index order.
fn greedy(view: &D2View) -> Vec<u32> {
    let mut colors = vec![UNCOLORED; view.n()];
    for v in 0..view.n() {
        let taken: Vec<u32> = view
            .d2_neighbors(v as NodeId)
            .iter()
            .map(|&u| colors[u as usize])
            .collect();
        colors[v] = (0..).find(|c| !taken.contains(c)).expect("a free color");
    }
    colors
}

/// The damage count and the palette fields.
fn damage(o: &RepairOutcome) -> [usize; 4] {
    [
        o.damaged,
        o.palette as usize,
        o.palette_before,
        o.palette_after,
    ]
}

/// Repairs one batch both ways, asserts they agree, and returns the
/// churned graph, the region repair's outcome and the reference's.
fn check_batch(
    g: &Graph,
    colors: &[u32],
    batch: &EdgeBatch,
    cfg: &SimConfig,
    what: &str,
) -> (Graph, RepairOutcome, RepairOutcome) {
    let churned = apply_batch(g, batch).expect("valid batch");
    let view = D2View::build(&churned.graph);
    let got = repair(&churned.graph, &view, colors, &churned.touched, cfg).expect("repair");
    let want = whole_network_repair(&churned.graph, &view, colors, &churned.touched, cfg);
    assert_eq!(got.colors, want.colors, "{what}: colors");
    assert_eq!(damage(&got), damage(&want), "{what}: damage and palette");
    let (a, b) = (&got.metrics, &want.metrics);
    assert_eq!(
        (a.rounds, a.messages, a.total_bits, a.max_message_bits),
        (b.rounds, b.messages, b.total_bits, b.max_message_bits),
        "{what}: model metrics"
    );
    assert_eq!(
        (a.bandwidth_bits, a.bandwidth_violations, a.faults_dropped),
        (b.bandwidth_bits, b.bandwidth_violations, b.faults_dropped),
        "{what}: budget"
    );
    assert!(
        a.stepped_nodes <= b.stepped_nodes,
        "{what}: region stepped {} nodes, the network {}",
        a.stepped_nodes,
        b.stepped_nodes
    );
    assert!(
        verify::is_valid_d2_coloring_with(&view, &got.colors),
        "{what}: invalid"
    );
    (churned.graph, got, want)
}

/// A random batch: deletes of existing edges, inserts of random pairs,
/// and one insert joining two same-colored nodes, so the batch damages.
fn random_batch(g: &Graph, colors: &[u32], rng: &mut ChaCha8Rng) -> EdgeBatch {
    let n = g.n() as NodeId;
    let mut b = EdgeBatch::new();
    for _ in 0..6 {
        let u = rng.gen_range(0..n);
        if let Some(&v) = g.neighbors(u).first() {
            b.delete(u, v);
        }
        let v = rng.gen_range(0..n);
        if u != v {
            b.insert(u, v);
        }
    }
    let u = rng.gen_range(0..n);
    if let Some(v) = (0..n).find(|&v| v != u && colors[v as usize] == colors[u as usize]) {
        b.insert(u, v);
    }
    b
}

/// A seeded graph family.
type Family = fn(u64) -> Graph;

#[test]
fn region_repair_matches_the_whole_network_run() {
    let families: [(&str, Family); 3] = [
        ("gnp", |s| gen::gnp_capped(600, 0.012, 8, s)),
        ("regular", |s| gen::random_regular(600, 6, s)),
        ("unit-disk", |s| gen::unit_disk(600, 0.06, s)),
    ];
    let mut damaged = 0;
    for (name, family) in families {
        for seed in [1u64, 2, 3] {
            let mut g = family(seed);
            let mut colors = greedy(&D2View::build(&g));
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for batch in 0..4 {
                let scheduling = if batch % 2 == 0 {
                    Scheduling::ActiveSet
                } else {
                    Scheduling::AlwaysStep
                };
                let cfg = SimConfig::seeded(seed * 10 + batch).with_scheduling(scheduling);
                let b = random_batch(&g, &colors, &mut rng);
                if batch == 0 {
                    // A node the input left uncolored, wherever it is,
                    // gets colored in the whole-network run.
                    colors[rng.gen_range(0..g.n())] = UNCOLORED;
                }
                let what = format!("{name} seed {seed} batch {batch}");
                let out;
                (g, out, _) = check_batch(&g, &colors, &b, &cfg, &what);
                damaged += out.damaged;
                colors = out.colors;
            }
        }
    }
    assert!(damaged >= 36, "every batch should damage: {damaged} nodes");
}

#[test]
fn an_isolated_damaged_node_is_its_own_region() {
    let g = gen::gnp_capped(400, 0.015, 6, 7);
    let mut colors = greedy(&D2View::build(&g));
    // An uncolored node that loses every edge is damaged and isolated.
    let x = (0..g.n() as NodeId)
        .find(|&v| g.degree(v) >= 2)
        .expect("a node with edges");
    colors[x as usize] = UNCOLORED;
    let mut b = EdgeBatch::new();
    for &u in g.neighbors(x) {
        b.delete(x, u);
    }
    let (g2, out, _) = check_batch(&g, &colors, &b, &SimConfig::seeded(8), "isolated");
    assert_eq!(g2.degree(x), 0);
    assert_eq!(out.damaged, 1);
    assert_ne!(out.colors[x as usize], UNCOLORED);
    // It adopts at round 2, announces at round 3, and is done at 5.
    assert_eq!((out.metrics.rounds, out.metrics.messages), (6, 0));
}

#[test]
fn a_region_of_every_node_steps_as_the_network_does() {
    // A star with an uncolored hub: a batch touching two leaves damages
    // the hub, whose neighbors are every other node.
    let g = gen::star(6);
    let mut colors = greedy(&D2View::build(&g));
    colors[0] = UNCOLORED;
    let mut b = EdgeBatch::new();
    b.insert(1, 2);
    let (_, got, want) = check_batch(&g, &colors, &b, &SimConfig::seeded(4), "every node");
    assert_eq!(got.damaged, 1);
    assert_eq!(
        got.metrics, want.metrics,
        "identical tables, identical runs"
    );
}
