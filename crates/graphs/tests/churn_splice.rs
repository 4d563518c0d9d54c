//! The spliced `apply_batch` against a from-scratch build.
//!
//! `apply_batch` copies untouched CSR rows and merges each touched row
//! with its inserts and deletes. On random batches — with no-op inserts
//! and deletes, duplicate events in both orientations, an edge deleted
//! and re-inserted in one batch, and a node that loses every edge — the
//! result must equal `GraphBuilder::from_edge_stream` over the expected
//! edge set, and `touched`, `inserted` and `deleted` must equal what that
//! set's difference from the old one says.

use graphs::{apply_batch, gen, EdgeBatch, Graph, GraphBuilder, NodeId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

type Edge = (NodeId, NodeId);

fn norm(u: NodeId, v: NodeId) -> Edge {
    (u.min(v), u.max(v))
}

/// A random batch over `g`, and the edge set it should leave: deletes
/// apply first, then inserts.
fn random_batch(g: &Graph, rng: &mut ChaCha8Rng) -> (EdgeBatch, BTreeSet<Edge>) {
    let n = g.n() as NodeId;
    let mut deletes: Vec<Edge> = Vec::new();
    let mut inserts: Vec<Edge> = Vec::new();
    let existing: Vec<Edge> = g.edges().collect();
    let pair = |rng: &mut ChaCha8Rng| loop {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            return (u, v);
        }
    };
    for _ in 0..rng.gen_range(1..12) {
        match rng.gen_range(0..6) {
            // An effective delete, in either orientation.
            0 if !existing.is_empty() => {
                let (u, v) = existing[rng.gen_range(0..existing.len())];
                deletes.push(if rng.gen_bool(0.5) { (u, v) } else { (v, u) });
            }
            // A random pair: mostly absent, so a no-op delete.
            1 => deletes.push(pair(rng)),
            // A random insert: mostly effective.
            2 => inserts.push(pair(rng)),
            // An insert of a present edge: a no-op.
            3 if !existing.is_empty() => inserts.push(existing[rng.gen_range(0..existing.len())]),
            // One edge deleted and re-inserted: present afterwards.
            4 if !existing.is_empty() => {
                let (u, v) = existing[rng.gen_range(0..existing.len())];
                deletes.push((u, v));
                inserts.push((v, u));
            }
            // A duplicate of an earlier event, reversed.
            _ => {
                if let Some(&(u, v)) = inserts.last() {
                    inserts.push((v, u));
                }
                if let Some(&(u, v)) = deletes.first() {
                    deletes.push((v, u));
                }
            }
        }
    }
    // Now and then a node loses every edge.
    if rng.gen_bool(0.3) {
        let x = rng.gen_range(0..n);
        deletes.extend(g.neighbors(x).iter().map(|&u| (x, u)));
    }
    let mut expected: BTreeSet<Edge> = existing.into_iter().collect();
    let mut b = EdgeBatch::new();
    for &(u, v) in &deletes {
        b.delete(u, v);
        expected.remove(&norm(u, v));
    }
    for &(u, v) in &inserts {
        b.insert(u, v);
        expected.insert(norm(u, v));
    }
    (b, expected)
}

#[test]
fn splice_matches_a_from_scratch_build() {
    let graphs = [
        gen::gnp_capped(120, 0.05, 7, 1),
        gen::random_regular(90, 4, 2),
        gen::star(12),
        gen::path(30),
        gen::empty(10),
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(25);
    for base in graphs {
        let mut g = base;
        for round in 0..40 {
            let before: BTreeSet<Edge> = g.edges().collect();
            let (batch, expected) = random_batch(&g, &mut rng);
            let r = apply_batch(&g, &batch).expect("valid batch");
            let want = GraphBuilder::from_edge_stream(g.n(), expected.iter().copied())
                .expect("valid edges");
            assert_eq!(r.graph, want, "round {round}: spliced graph");
            assert_eq!(r.graph.max_degree(), want.max_degree());
            let added: Vec<&Edge> = expected.difference(&before).collect();
            let removed: Vec<&Edge> = before.difference(&expected).collect();
            assert_eq!((r.inserted, r.deleted), (added.len(), removed.len()));
            let touched: BTreeSet<NodeId> = added
                .iter()
                .chain(&removed)
                .flat_map(|&&(u, v)| [u, v])
                .collect();
            assert_eq!(r.touched, touched.into_iter().collect::<Vec<_>>());
            g = r.graph;
        }
    }
}

#[test]
fn a_node_can_lose_every_edge_and_regain_one() {
    let g = gen::star(5);
    let mut b = EdgeBatch::new();
    for leaf in 1..=5 {
        b.delete(0, leaf);
    }
    let r = apply_batch(&g, &b).expect("valid batch");
    assert_eq!((r.graph.m(), r.graph.max_degree(), r.deleted), (0, 0, 5));
    assert_eq!(r.touched, vec![0, 1, 2, 3, 4, 5]);
    let mut b = EdgeBatch::new();
    b.insert(3, 0);
    let r = apply_batch(&r.graph, &b).expect("valid batch");
    assert_eq!(r.graph.neighbors(0), &[3]);
    assert_eq!(r.graph.neighbors(3), &[0]);
}
