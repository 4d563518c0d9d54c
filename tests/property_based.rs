//! Property-based tests over random graph shapes: the paper's invariants
//! must hold on *arbitrary* inputs, not just curated workloads.
//!
//! Hand-rolled case generation (the build environment cannot fetch
//! `proptest`): each property sweeps a deterministic grid of
//! `gnp_capped(n, p, cap, seed)` parameters, so failures reproduce exactly.

use d2color::prelude::*;
use graphs::D2View;

/// Deterministic grid of random-graph cases; `cases` controls how many.
fn graph_cases(cases: u64) -> impl Iterator<Item = Graph> {
    (0..cases).map(|i| {
        let n = 4 + ((i * 17) % 56) as usize; // 4..60
        let p = f64::from(1 + (i as u32 * 7) % 19) / 100.0; // 0.01..0.20
        let cap = 3 + (i % 5) as usize; // 3..8
        graphs::gen::gnp_capped(n, p, cap, 1000 + i)
    })
}

/// Theorem 1.2 on arbitrary graphs: valid, within ∆²+1, CONGEST-compliant.
#[test]
fn det_small_always_valid() {
    for (i, g) in graph_cases(24).enumerate() {
        let out = d2core::det::small::run(&g, &Params::practical(), &SimConfig::seeded(i as u64))
            .expect("run");
        let view = D2View::build(&g);
        assert!(
            graphs::verify::is_valid_d2_coloring_with(&view, &out.colors),
            "case {i}: invalid coloring on {g:?}"
        );
        let d = g.max_degree();
        assert!(
            out.palette_bound() <= (d * d).min(g.n() - 1) + 1,
            "case {i}"
        );
        assert!(out.metrics.is_congest_compliant(), "case {i}");
    }
}

/// Theorem 1.1 on arbitrary graphs.
#[test]
fn rand_improved_always_valid() {
    for (i, g) in graph_cases(12).enumerate() {
        let out =
            d2core::rand::driver::improved(&g, &Params::practical(), &SimConfig::seeded(i as u64))
                .expect("run");
        let view = D2View::build(&g);
        assert!(
            graphs::verify::is_valid_d2_coloring_with(&view, &out.colors),
            "case {i}: invalid coloring on {g:?}"
        );
        let d = g.max_degree();
        assert!(
            out.palette_bound() <= (d * d).min(g.n() - 1) + 1,
            "case {i}"
        );
    }
}

/// The centralized square graph agrees with the distributed conflict
/// semantics: any coloring valid per the verifier is a proper coloring of
/// G², whose edges are read pair by pair.
#[test]
fn square_graph_consistency() {
    for (i, g) in graph_cases(12).enumerate() {
        let (colors, _) = graphs::square::greedy_square_coloring(&g);
        let view = D2View::build(&g);
        assert!(
            graphs::verify::is_valid_d2_coloring_with(&view, &colors),
            "case {i}"
        );
        for u in 0..g.n() as NodeId {
            for v in (u + 1..g.n() as NodeId).filter(|&v| g.are_d2_neighbors(u, v)) {
                assert_ne!(
                    colors[u as usize], colors[v as usize],
                    "case {i}: edge ({u},{v})"
                );
            }
        }
    }
}

/// Randomized splitting satisfies Definition 3.1 with a safe λ at every
/// degree scale (threshold keeps low-degree vertices exempt).
#[test]
fn randomized_split_definition() {
    for (i, g) in graph_cases(12).enumerate() {
        let mut driver = d2core::Driver::new(&g, SimConfig::seeded(i as u64));
        let sides = driver
            .run_phase("split", &d2core::det::splitting::RandomizedSplit, |s| s)
            .expect("split");
        let result = d2core::det::splitting::SplitResult {
            sides,
            lambda: 0.95,
            threshold: 12,
        };
        assert!(result.satisfies_definition(&g, &vec![0; g.n()]), "case {i}");
    }
}

/// The precomputed [`D2View`] agrees with G² read pair by pair from
/// `Graph::are_d2_neighbors`, which shares no code with the view's row
/// builder: rows, `max_d2_degree` and `common_d2` on every node pair,
/// across random capped-G(n,p), cycle, star, and disconnected graphs.
#[test]
fn d2view_agrees_with_naive_oracle() {
    let mut shapes: Vec<(String, Graph)> = graph_cases(16)
        .enumerate()
        .map(|(i, g)| (format!("gnp-case-{i}"), g))
        .collect();
    shapes.push(("cycle".into(), graphs::gen::cycle(17)));
    shapes.push(("star".into(), graphs::gen::star(9)));
    shapes.push((
        "disconnected".into(),
        Graph::from_edges(12, &[(0, 1), (1, 2), (4, 5), (7, 8), (8, 9), (9, 7)]).unwrap(),
    ));
    shapes.push(("isolated".into(), graphs::gen::empty(6)));
    for (name, g) in &shapes {
        let n = g.n() as NodeId;
        let naive: Vec<Vec<NodeId>> = (0..n)
            .map(|v| (0..n).filter(|&u| g.are_d2_neighbors(v, u)).collect())
            .collect();
        let view = D2View::build(g);
        assert_eq!(view.n(), g.n(), "{name}");
        for v in 0..n {
            let row = &naive[v as usize];
            assert_eq!(view.d2_neighbors(v), row.as_slice(), "{name}: row {v}");
            for u in 0..n {
                let common = row.iter().filter(|w| naive[u as usize].contains(w));
                assert_eq!(
                    view.common_d2(v, u),
                    common.count(),
                    "{name}: common ({v},{u})"
                );
            }
        }
        assert_eq!(
            view.max_d2_degree(),
            naive.iter().map(Vec::len).max().unwrap_or(0),
            "{name}"
        );
    }
}

/// The D2View-backed verifier agrees with a naive double-loop check.
#[test]
fn verifier_matches_naive_check() {
    for (i, g) in graph_cases(12).enumerate() {
        let view = D2View::build(&g);
        // A valid coloring and a deliberately broken variant of it.
        let (colors, _) = graphs::square::greedy_square_coloring(&g);
        assert!(
            graphs::verify::is_valid_d2_coloring_with(&view, &colors),
            "case {i}"
        );
        if g.n() >= 2 && g.m() >= 1 {
            let (u, v) = g.edges().next().expect("has an edge");
            let mut broken = colors.clone();
            broken[v as usize] = broken[u as usize];
            assert!(
                !graphs::verify::is_valid_d2_coloring_with(&view, &broken),
                "case {i}: clash not caught"
            );
            let viol = graphs::verify::first_d2_violation(&g, &broken).expect("violation");
            assert_eq!(broken[viol.u as usize], broken[viol.v as usize]);
        }
    }
}
