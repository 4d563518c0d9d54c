//! 2-hop local repair of a distance-2 coloring after graph churn.
//!
//! When edges are inserted into an already-colored network, the coloring
//! can break — but only *locally*: a pair of nodes newly at distance ≤ 2
//! with equal colors must use an inserted edge on its connecting path, so
//! both conflict endpoints lie within **one hop of a touched endpoint**
//! of the churn batch ([`graphs::churn`]). Deleted edges never create
//! conflicts (they only shrink distance-2 neighborhoods).
//!
//! The repair pipeline exploits that locality:
//!
//! 1. [`find_damage`] scans only the 1-hop ball around the touched
//!    endpoints, checking each candidate's distance-2 neighborhood (via a
//!    prebuilt [`D2View`]) for color collisions — both endpoints of every
//!    collision are marked damaged.
//! 2. [`repair`] strips the damaged nodes to [`UNCOLORED`] and runs
//!    to-completion [`RandomTrials`] resumed from the surviving colors,
//!    with [`RandomTrials::locally_free`]: the verified trial handshake
//!    where each live node samples uniformly from its *locally free*
//!    colors (palette colors unused by itself and its immediate
//!    neighbors) instead of the whole palette. Colored nodes keep their
//!    colors and never try — they only answer verdicts — so message
//!    traffic stays confined to the damaged region and its direct
//!    neighbors rather than re-flooding the network, which is what makes
//!    repair an order of magnitude cheaper than recoloring from scratch
//!    (the bench registry's rule `repair <= fresh/10 at >= 0.9% churn` on
//!    `scale/det-small/rr8-1e5/churn`).
//!
//! # Only the region is simulated
//!
//! The nodes that try are the damaged ones and any node the input left
//! uncolored; call them `L`. [`repair`] simulates the region
//! `R = L ∪ N(L)` alone: it runs its one phase with [`congest::run_with`]
//! on the [`NetTables::induced`] tables of `R`, whose ports are the
//! edges inside `R` and in which every node keeps its network
//! identifier, `n`, `∆`, RNG stream and per-edge budget, under the config
//! a pipeline driver gives its first phase (salt 0, label `"repair"`). A
//! region node's neighbor-color table holds its in-region neighbors'
//! colors by port, followed by its out-of-region neighbors' colors: its
//! verdicts and its locally free colors read them, and no port updates
//! them (none of those neighbors ever announces).
//!
//! This is bit-exact with simulating every node. There, only nodes of
//! `L` try, and all their neighbors lie in `R`; verdicts go back on the
//! ports the tries came in on, and only adopters (nodes of `L`)
//! announce. So a node outside `R` neither sends nor receives. It is
//! colored, so it votes `Done` from round 2, the first resolve round, on —
//! before round 5, the earliest a node of `L` can terminate (it adopts
//! at round 2 at the soonest, announces at round 3 and votes `Done` at
//! round 5). Colors, rounds, messages, bits, the budget and its
//! violations are therefore the whole-network run's; only the stepped
//! nodes fall, from every node to the region's. (A round-limit error
//! counts live nodes in the region.)
//!
//! The repair palette is `max(palette before, max d2-degree + 1)`: the
//! second term guarantees every damaged node always has a color free in
//! its entire distance-2 neighborhood, so the trials terminate; the first
//! keeps the palette stable (zero drift) whenever the old palette is
//! already large enough. Repair itself runs fault-free — it *is* the
//! recovery path — so any fault plane on the config is stripped.

use crate::common::UNCOLORED;
use crate::rand::trials::RandomTrials;
use congest::{Metrics, NetTables, RunResult, SimConfig, SimError};
use graphs::{verify, D2View, Graph, NodeId};

/// Nodes whose color conflicts with a distance-2 neighbor, restricted to
/// the 1-hop ball around `touched` (the endpoints a churn batch actually
/// changed — see [`graphs::churn::ChurnResult::touched`]).
///
/// `graph` and `d2` must describe the **post-churn** topology. Both
/// endpoints of every detected conflict are returned (sorted, deduped),
/// even when only one of them lies inside the candidate ball.
///
/// # Panics
///
/// Panics if `colors` is not one entry per node of `graph`.
#[must_use]
pub fn find_damage(graph: &Graph, d2: &D2View, colors: &[u32], touched: &[NodeId]) -> Vec<NodeId> {
    assert_eq!(colors.len(), graph.n(), "one color per node");
    // Candidate set: touched nodes plus their immediate neighbors. Any
    // new conflict pair has an endpoint here (module docs), and scanning
    // a candidate's d2 neighborhood finds the conflict from either side.
    let mut candidates: Vec<NodeId> = Vec::with_capacity(touched.len() * 4);
    for &u in touched {
        candidates.push(u);
        candidates.extend_from_slice(graph.neighbors(u));
    }
    candidates.sort_unstable();
    candidates.dedup();

    let mut damaged: Vec<NodeId> = Vec::new();
    for &a in &candidates {
        let ca = colors[a as usize];
        if ca == UNCOLORED {
            damaged.push(a);
            continue;
        }
        for &b in d2.d2_neighbors(a) {
            if colors[b as usize] == ca {
                damaged.push(a);
                damaged.push(b);
            }
        }
    }
    damaged.sort_unstable();
    damaged.dedup();
    damaged
}

/// Result of one [`repair`] call.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired coloring (complete and conflict-free on the post-churn
    /// graph).
    pub colors: Vec<u32>,
    /// Number of nodes that were stripped and recolored.
    pub damaged: usize,
    /// Palette the repair trials drew from.
    pub palette: u32,
    /// Palette size (`max color + 1`) before the churn batch.
    pub palette_before: usize,
    /// Palette size after repair.
    pub palette_after: usize,
    /// Metrics of the repair phase alone (zero if nothing was damaged).
    pub metrics: Metrics,
}

impl RepairOutcome {
    /// How many colors the repair added beyond the pre-churn palette
    /// (0 when the old palette absorbed the damage).
    #[must_use]
    pub fn palette_drift(&self) -> usize {
        self.palette_after.saturating_sub(self.palette_before)
    }
}

/// Detects and repairs all coloring damage after a churn batch.
///
/// `graph` and `d2` describe the post-churn topology, `colors` is the
/// pre-churn coloring, and `touched` is the changed-endpoint set from
/// [`graphs::churn::apply_batch`]. When anything is damaged, every node
/// the input left uncolored is colored too. Simulates only the nodes
/// that try and their neighbors, and runs fault-free regardless of
/// `config.faults` (see the module docs).
///
/// # Errors
///
/// Propagates [`SimError`] from the repair trials (round-limit
/// exhaustion under a hostile `config.max_rounds`).
///
/// # Panics
///
/// Panics if `colors` is not one entry per node of `graph`.
pub fn repair(
    graph: &Graph,
    d2: &D2View,
    colors: &[u32],
    touched: &[NodeId],
    config: &SimConfig,
) -> Result<RepairOutcome, SimError> {
    let damaged = find_damage(graph, d2, colors, touched);
    let palette_before = verify::palette_size(colors);
    let palette = (palette_before as u32).max(d2.max_d2_degree() as u32 + 1);
    if damaged.is_empty() {
        return Ok(RepairOutcome {
            colors: colors.to_vec(),
            damaged: 0,
            palette,
            palette_before,
            palette_after: palette_before,
            metrics: Metrics::default(),
        });
    }
    // The nodes that try: the damaged ones and any the input left
    // uncolored. The region is them and their neighbors (module docs).
    let mut live = damaged.clone();
    live.extend((0..graph.n() as NodeId).filter(|&v| colors[v as usize] == UNCOLORED));
    live.sort_unstable();
    live.dedup();
    let mut region = live.clone();
    for &v in &live {
        region.extend_from_slice(graph.neighbors(v));
    }
    region.sort_unstable();
    region.dedup();
    // Each node's position in the region (`u32::MAX` outside it), which
    // the tables read too, and the colors the region starts from, with the
    // nodes that try masked.
    let mut index = vec![u32::MAX; graph.n()];
    for (i, &v) in region.iter().enumerate() {
        index[v as usize] = i as u32;
    }
    let mut start: Vec<u32> = region.iter().map(|&v| colors[v as usize]).collect();
    for &v in &live {
        start[index[v as usize] as usize] = UNCOLORED;
    }
    // In-region neighbors by port, then the rest, none of which tries.
    let init: Vec<(u32, Vec<u32>)> = region
        .iter()
        .zip(&start)
        .map(|(&v, &own)| {
            let nbrs = graph.neighbors(v);
            let mut known = Vec::with_capacity(nbrs.len());
            let at = nbrs.iter().map(|&u| index[u as usize]);
            known.extend(at.filter(|&i| i != u32::MAX).map(|i| start[i as usize]));
            let outside = nbrs.iter().filter(|&&u| index[u as usize] == u32::MAX);
            known.extend(outside.map(|&u| colors[u as usize]));
            (own, known)
        })
        .collect();

    // One phase, configured as a pipeline driver configures its first:
    // salt 0, labelled for round-limit diagnostics.
    let config = config
        .clone()
        .without_faults()
        .with_salt(0)
        .with_phase_label("repair");
    let net = NetTables::induced(graph, &config, &region, &index);
    let proto = RandomTrials::to_completion(palette)
        .resuming(init)
        .locally_free();
    let RunResult { states, metrics } = congest::run_with(&proto, &config, &net)?;
    let mut repaired = colors.to_vec();
    for (&v, s) in region.iter().zip(states) {
        repaired[v as usize] = s.trial.color();
    }
    let palette_after = verify::palette_size(&repaired);
    Ok(RepairOutcome {
        colors: repaired,
        damaged: damaged.len(),
        palette,
        palette_before,
        palette_after,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{apply_batch, gen, EdgeBatch};

    /// A valid d2 coloring for tests: run the random baseline.
    fn colored(g: &Graph, seed: u64) -> Vec<u32> {
        let d = g.max_degree();
        let proto = crate::rand::trials::RandomTrials::to_completion((2 * d * d + 1) as u32);
        let res = congest::run(g, &proto, &SimConfig::seeded(seed)).unwrap();
        crate::rand::trials::colors(&res.states)
    }

    #[test]
    fn no_damage_no_work() {
        let g = gen::gnp_capped(60, 0.08, 6, 1);
        let colors = colored(&g, 2);
        let d2 = D2View::build(&g);
        // Deleting edges can never damage a coloring.
        let mut b = EdgeBatch::new();
        let victims: Vec<_> = g.edges().take(10).collect();
        for &(u, v) in &victims {
            b.delete(u, v);
        }
        let r = apply_batch(&g, &b).unwrap();
        let d2_new = D2View::build(&r.graph);
        let out = repair(
            &r.graph,
            &d2_new,
            &colors,
            &r.touched,
            &SimConfig::seeded(3),
        )
        .unwrap();
        assert_eq!(out.damaged, 0);
        assert_eq!(out.metrics.messages, 0);
        assert_eq!(out.colors, colors);
        assert_eq!(out.palette_drift(), 0);
        // Unused: d2 of the original graph, kept to mirror the real flow.
        let _ = d2;
    }

    #[test]
    fn inserted_conflict_is_found_and_fixed_locally() {
        let g = gen::gnp_capped(80, 0.06, 6, 5);
        let colors = colored(&g, 7);
        // Find two same-colored nodes currently beyond distance 2 and wire
        // them together.
        let mut pair = None;
        'outer: for u in 0..g.n() as NodeId {
            for v in (u + 1)..g.n() as NodeId {
                if colors[u as usize] == colors[v as usize] && !g.are_d2_neighbors(u, v) {
                    pair = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = pair.expect("some color repeats outside distance 2");
        let mut b = EdgeBatch::new();
        b.insert(u, v);
        let r = apply_batch(&g, &b).unwrap();
        assert_eq!(r.touched, {
            let mut t = vec![u, v];
            t.sort_unstable();
            t
        });
        let d2_new = D2View::build(&r.graph);
        assert!(verify::first_d2_violation_with(&d2_new, &colors).is_some());
        let out = repair(
            &r.graph,
            &d2_new,
            &colors,
            &r.touched,
            &SimConfig::seeded(9),
        )
        .unwrap();
        assert!(out.damaged >= 2, "both conflict endpoints recolored");
        assert!(verify::is_valid_d2_coloring_with(&d2_new, &out.colors));
        // Untouched nodes keep their colors.
        let changed: Vec<_> = (0..g.n()).filter(|&i| out.colors[i] != colors[i]).collect();
        assert!(
            changed.len() <= out.damaged,
            "only damaged nodes may change color"
        );
    }

    #[test]
    fn find_damage_flags_both_endpoints() {
        // Path 0-1-2-3 colored so that inserting {0,3} makes 0 and 3
        // distance-2 conflicted via nothing — directly adjacent.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let d2 = D2View::build(&g);
        let colors = vec![0, 1, 2, 0];
        let damaged = find_damage(&g, &d2, &colors, &[0, 3]);
        assert_eq!(damaged, vec![0, 3]);
    }

    #[test]
    fn repair_traffic_is_confined_to_the_damaged_region() {
        // Large sparse graph, one injected conflict: repair messages must
        // be far below what a fresh full recoloring would send.
        let g = gen::gnp_capped(400, 0.02, 6, 11);
        let colors = colored(&g, 13);
        let fresh = {
            let d = g.max_degree();
            let proto = crate::rand::trials::RandomTrials::to_completion((2 * d * d + 1) as u32);
            congest::run(&g, &proto, &SimConfig::seeded(13))
                .unwrap()
                .metrics
                .messages
        };
        let mut pair = None;
        'outer: for u in 0..g.n() as NodeId {
            for v in (u + 1)..g.n() as NodeId {
                if colors[u as usize] == colors[v as usize] && !g.are_d2_neighbors(u, v) {
                    pair = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = pair.expect("repeated color exists");
        let mut b = EdgeBatch::new();
        b.insert(u, v);
        let r = apply_batch(&g, &b).unwrap();
        let d2_new = D2View::build(&r.graph);
        let out = repair(
            &r.graph,
            &d2_new,
            &colors,
            &r.touched,
            &SimConfig::seeded(17),
        )
        .unwrap();
        assert!(verify::is_valid_d2_coloring_with(&d2_new, &out.colors));
        assert!(
            out.metrics.messages * 10 <= fresh,
            "repair sent {} messages, fresh run sent {fresh}",
            out.metrics.messages
        );
    }
}
