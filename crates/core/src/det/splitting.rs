//! λ-local refinement splitting (Definition 3.1, Theorem 3.2) and the
//! recursive degree splitting of Lemma 3.3.
//!
//! **Randomized** ([`RandomizedSplit`]): every node flips a fair coin and
//! announces it — the paper's zero-round algorithm (plus the announcement
//! round). W.h.p. every vertex with `deg_i(v) ≥ 12 log n / λ²` sees at
//! most `(1+λ)·deg_i(v)/2` neighbors of each side in each part `V_i`.
//!
//! **Derandomized** ([`DerandSplit`]): the method of conditional
//! expectation over a network decomposition of `G²`. Clusters of the same
//! decomposition color are at `G`-distance `> 2`, so their coin choices
//! touch disjoint constraint sets and are fixed in parallel; within a
//! cluster, coins are fixed one node at a time in identifier order. Each
//! fixing is a 3-round exchange: the fixer announces its turn, its
//! neighbors return the two conditional values of their [pessimistic
//! estimators](decomp::estimator), and the fixer broadcasts the `argmin`
//! side. The estimator sum is non-increasing, so when it starts below 1
//! every binding constraint is satisfied *with certainty* — a valid
//! λ-splitting, deterministically.
//!
//! Substitutions vs. the paper: exact conditional expectations → MGF
//! pessimistic estimators; per-bit seed fixing with k-wise independence →
//! per-coin fixing (the guarantee `Σ_v F_v = 0` is identical);
//! decomposition black box \[28\] → [`decomp::oracle`] with its round cost
//! charged analytically.

use crate::{Driver, Params};
use congest::netplane::{Reader, Wire, WireError};
use congest::{
    BitCost, Inbox, Message, NodeCtx, NodeRng, Outbox, Port, Protocol, SimError, Status,
};
use decomp::estimator::TailEstimator;
use graphs::Graph;
use rand::Rng;

/// Red/blue side assigned to each node by a splitting round.
pub type Side = bool;

/// Outcome of one splitting level.
#[derive(Debug, Clone)]
pub struct SplitResult {
    /// The side each node chose.
    pub sides: Vec<Side>,
    /// λ used.
    pub lambda: f64,
    /// Constraint threshold: only `deg_i(v) ≥ threshold` was required to
    /// balance.
    pub threshold: usize,
}

impl SplitResult {
    /// Checks Definition 3.1 against the graph and part assignment:
    /// every vertex with `deg_i(v) ≥ threshold` has at most
    /// `(1+λ)·deg_i(v)/2` neighbors of each side in `V_i`.
    #[must_use]
    pub fn satisfies_definition(&self, g: &Graph, part: &[u32]) -> bool {
        for v in 0..g.n() as u32 {
            use std::collections::HashMap;
            let mut per_part: HashMap<u32, (usize, usize)> = HashMap::new();
            for &u in g.neighbors(v) {
                let e = per_part.entry(part[u as usize]).or_insert((0, 0));
                e.0 += 1;
                if self.sides[u as usize] {
                    e.1 += 1;
                }
            }
            for (&_i, &(d, red)) in &per_part {
                if d >= self.threshold {
                    let cap = (1.0 + self.lambda) * d as f64 / 2.0;
                    if red as f64 > cap || (d - red) as f64 > cap {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// The zero-round randomized splitting (plus one announcement round).
#[derive(Debug)]
pub struct RandomizedSplit;

impl Protocol for RandomizedSplit {
    type State = Side;
    type Msg = ();

    fn init(&self, _ctx: &NodeCtx, rng: &mut NodeRng) -> Side {
        rng.gen::<bool>()
    }

    fn round(
        &self,
        _st: &mut Side,
        _ctx: &NodeCtx,
        _rng: &mut NodeRng,
        _inbox: &Inbox<()>,
        _out: &mut Outbox<()>,
    ) -> Status {
        // The coin itself is zero-round; the side announcement to
        // neighbors is folded into the next phase's inputs by the driver
        // (1 logical round, charged by the driver).
        Status::Done
    }
}

/// Messages of the derandomized splitting.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitMsg {
    /// "It is my turn to fix my coin next round."
    Turn,
    /// Conditional estimator values `(if red, if blue)` from a neighbor of
    /// the fixing node. Transmitted as two fixed-point values in practice;
    /// charged 48 bits.
    Cond(f64, f64),
    /// The fixer's decision.
    Side(bool),
}

impl Message for SplitMsg {
    fn bits(&self) -> u64 {
        match self {
            SplitMsg::Turn => BitCost::tag(3),
            SplitMsg::Cond(_, _) => BitCost::tag(3) + 48,
            SplitMsg::Side(_) => BitCost::tag(3) + 1,
        }
    }
}

impl Wire for SplitMsg {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            SplitMsg::Turn => buf.push(0),
            SplitMsg::Cond(red, blue) => {
                buf.push(1);
                red.put(buf);
                blue.put(buf);
            }
            SplitMsg::Side(side) => {
                buf.push(2);
                side.put(buf);
            }
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::take(r)? {
            0 => SplitMsg::Turn,
            1 => SplitMsg::Cond(f64::take(r)?, f64::take(r)?),
            2 => SplitMsg::Side(bool::take(r)?),
            tag => {
                return Err(WireError::BadTag {
                    what: "SplitMsg",
                    tag,
                })
            }
        })
    }
}

/// Per-node state of the derandomized splitting.
#[derive(Debug, Clone)]
pub struct DerandState {
    /// Final side (meaningful once fixed).
    pub side: Side,
    fixed: bool,
    /// One estimator per part with ≥ 2 neighbors of that part:
    /// `(part, estimator, fixed_count, red_count)`. Constraints below the
    /// guarantee threshold are still *tracked* — greedy balancing helps
    /// them too — but only `deg_i(v) ≥ threshold` carries the Def. 3.1
    /// guarantee.
    trackers: Vec<(u32, TailEstimator, u64, u64)>,
}

/// The derandomized splitting protocol (Theorem 3.2).
#[derive(Debug)]
pub struct DerandSplit {
    nbr_parts: Vec<Vec<u32>>,
    /// Round at which each node fixes its coin (3-round slots; `round =
    /// 3·slot`), precomputed from the decomposition: same-color clusters
    /// in parallel, ident order within a cluster.
    fix_slot: Vec<u64>,
    total_slots: u64,
    lambda: f64,
    threshold: usize,
}

impl DerandSplit {
    /// The guarantee threshold this instance was built with (Def. 3.1 binds
    /// only for `deg_i(v) ≥ threshold`).
    #[must_use]
    pub fn guarantee_threshold(&self) -> usize {
        self.threshold
    }
}

impl DerandSplit {
    /// Builds the protocol from a `G²` decomposition and the current
    /// partition.
    #[must_use]
    pub fn new(
        g: &Graph,
        decomposition: &decomp::Decomposition,
        idents: &[u64],
        part: Vec<u32>,
        lambda: f64,
        threshold: usize,
    ) -> Self {
        let nbr_parts: Vec<Vec<u32>> = (0..g.n() as u32)
            .map(|v| g.neighbors(v).iter().map(|&u| part[u as usize]).collect())
            .collect();
        // Schedule: iterate decomposition colors; all clusters of a color
        // run concurrently; members of a cluster go in ident order.
        let members = decomposition.members();
        let mut fix_slot = vec![0u64; g.n()];
        let mut offset = 0u64;
        for color in 0..decomposition.num_colors {
            let mut longest = 0u64;
            for (cid, m) in members.iter().enumerate() {
                if decomposition.cluster_color[cid] != color {
                    continue;
                }
                let mut order: Vec<_> = m.clone();
                order.sort_by_key(|&v| idents[v as usize]);
                for (rank, &v) in order.iter().enumerate() {
                    fix_slot[v as usize] = offset + rank as u64;
                }
                longest = longest.max(order.len() as u64);
            }
            offset += longest;
        }
        let _ = part;
        DerandSplit {
            nbr_parts,
            fix_slot,
            total_slots: offset,
            lambda,
            threshold,
        }
    }

    /// Total rounds the protocol occupies (3 per slot).
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        3 * self.total_slots + 1
    }
}

impl Protocol for DerandSplit {
    type State = DerandState;
    type Msg = SplitMsg;

    fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> DerandState {
        let v = ctx.index as usize;
        // One tracker per part with ≥ threshold neighbors of that part.
        let mut counts: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for &p in &self.nbr_parts[v] {
            *counts.entry(p).or_insert(0) += 1;
        }
        let mut trackers: Vec<(u32, TailEstimator, u64, u64)> = counts
            .into_iter()
            .filter(|&(_, d)| d >= 2)
            .map(|(p, d)| (p, TailEstimator::new(d, self.lambda), 0, 0))
            .collect();
        trackers.sort_by_key(|t| t.0);
        DerandState {
            side: false,
            fixed: false,
            trackers,
        }
    }

    fn round(
        &self,
        st: &mut DerandState,
        ctx: &NodeCtx,
        _rng: &mut NodeRng,
        inbox: &Inbox<SplitMsg>,
        out: &mut Outbox<SplitMsg>,
    ) -> Status {
        let v = ctx.index as usize;
        let slot = ctx.round / 3;
        // Side announcements are sent in sub-round 2 and arrive in the
        // next slot's sub-round 0: fold them in whenever they appear.
        for &(p, ref m) in inbox.iter() {
            if let SplitMsg::Side(s) = *m {
                let fixer_part = self.nbr_parts[v][p as usize];
                for t in &mut st.trackers {
                    if t.0 == fixer_part {
                        t.2 += 1;
                        if s {
                            t.3 += 1;
                        }
                    }
                }
            }
        }
        match ctx.round % 3 {
            0 => {
                // Fixers announce their turn.
                if !st.fixed && self.fix_slot[v] == slot && slot < self.total_slots {
                    for p in 0..ctx.degree() as Port {
                        out.send(p, SplitMsg::Turn);
                    }
                }
            }
            1 => {
                // Neighbors of the fixer report conditional estimator values
                // for the fixer's part.
                for &(p, ref m) in inbox.iter() {
                    if let SplitMsg::Turn = m {
                        let fixer_part = self.nbr_parts[v][p as usize];
                        let (mut if_red, mut if_blue) = (0.0, 0.0);
                        for &(tp, est, fixed, red) in &st.trackers {
                            if tp == fixer_part {
                                if_red += est.both(fixed + 1, red + 1);
                                if_blue += est.both(fixed + 1, red);
                            }
                        }
                        out.send(p, SplitMsg::Cond(if_red, if_blue));
                    }
                }
            }
            _ => {
                // The fixer decides; everyone folds in announced sides.
                if !st.fixed && self.fix_slot[v] == slot && slot < self.total_slots {
                    let (mut red_sum, mut blue_sum) = (0.0, 0.0);
                    for (_, m) in inbox.iter() {
                        if let SplitMsg::Cond(r, b) = *m {
                            red_sum += r;
                            blue_sum += b;
                        }
                    }
                    st.side = red_sum < blue_sum;
                    st.fixed = true;
                    for p in 0..ctx.degree() as Port {
                        out.send(p, SplitMsg::Side(st.side));
                    }
                }
            }
        }
        if ctx.round + 1 >= self.total_rounds() {
            Status::Done
        } else {
            Status::Running
        }
    }
}

/// Outcome of the recursive splitting (Lemma 3.3).
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// Part id of each node (`0 .. 2^h`).
    pub part: Vec<u32>,
    /// Number of levels performed.
    pub levels: u32,
    /// The per-part degree bound `∆_h` the recursion targets for
    /// constrained vertices: `((1+λ)/2)^h · ∆`.
    pub delta_h: usize,
    /// λ used at every level.
    pub lambda: f64,
    /// Guarantee threshold used at every level.
    pub threshold: usize,
    /// Analytically charged rounds for decomposition black boxes.
    pub charged_rounds: u64,
}

/// How the coins of each splitting level are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitMode {
    /// Fair coins (the w.h.p. randomized algorithm).
    Randomized,
    /// Method of conditional expectation (deterministic, Theorem 3.2).
    Deterministic,
}

/// Lemma 3.3: recursively split `G` into `2^h` parts such that every
/// vertex has at most `∆_h ≈ (1+ε)·2^{−h}·∆` neighbors in each part.
///
/// `force_levels` overrides the paper's choice of `h` (which only exceeds
/// 0 once `∆ ≫ ε⁻² log³ n`; experiments at laptop scale force a level
/// count to exercise the machinery — `harness exp7` forces 1–3 levels).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn recursive_split(
    driver: &mut Driver<'_>,
    params: &Params,
    epsilon: f64,
    mode: SplitMode,
    force_levels: Option<u32>,
) -> Result<PartitionOutcome, SimError> {
    let g = driver.graph();
    let n = g.n();
    let delta = g.max_degree();
    let ln_n = (n.max(2) as f64).ln();
    let log_delta = (delta.max(2) as f64).log2();
    let lambda = (epsilon / (10.0 * log_delta))
        .max(params.lambda_floor)
        .min(0.9);
    let threshold =
        ((params.split_threshold_coeff * ln_n / (lambda * lambda)).ceil() as usize).max(2);
    let stop = (params.split_stop_coeff * epsilon.powi(-2) * ln_n.powi(3)).max(1.0);

    // h = smallest integer with ((1+λ)/2)^h · ∆ ≤ stop.
    let h = force_levels.unwrap_or_else(|| {
        let mut h = 0u32;
        let mut bound = delta as f64;
        while bound > stop && h < 30 {
            bound *= (1.0 + lambda) / 2.0;
            h += 1;
        }
        h
    });
    let bound = delta as f64 * ((1.0 + lambda) / 2.0).powi(h as i32);

    let mut part = vec![0u32; n];
    let mut charged = 0u64;
    if h == 0 {
        return Ok(PartitionOutcome {
            part,
            levels: 0,
            delta_h: delta,
            lambda,
            threshold,
            charged_rounds: 0,
        });
    }

    let idents = driver.idents().to_vec();
    for level in 0..h {
        let sides: Vec<Side> = match mode {
            SplitMode::Randomized => driver.run_phase(
                format!("rand-split(level={level})"),
                &RandomizedSplit,
                |s| s,
            )?,
            SplitMode::Deterministic => {
                let decomposition = decomp::oracle::decompose_power(g, 2, None);
                charged += decomp::oracle::charged_rounds(n, 2);
                let proto =
                    DerandSplit::new(g, &decomposition, &idents, part.clone(), lambda, threshold);
                driver.run_phase(format!("derand-split(level={level})"), &proto, |s| s.side)?
            }
        };
        for v in 0..n {
            part[v] = part[v] * 2 + u32::from(sides[v]);
        }
    }
    let delta_h = (bound.ceil() as usize).max(1);
    Ok(PartitionOutcome {
        part,
        levels: h,
        delta_h,
        lambda,
        threshold,
        charged_rounds: charged,
    })
}

/// Centralized check of the Lemma 3.3 postcondition: max neighbors of any
/// node in any part.
#[must_use]
pub fn max_part_degree(g: &Graph, part: &[u32]) -> usize {
    let mut worst = 0;
    for v in 0..g.n() as u32 {
        let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for &u in g.neighbors(v) {
            *counts.entry(part[u as usize]).or_insert(0) += 1;
        }
        worst = worst.max(counts.values().copied().max().unwrap_or(0));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::SimConfig;
    use graphs::gen;

    /// Run one derandomized splitting level directly and check Def. 3.1.
    #[test]
    fn derand_split_satisfies_definition() {
        let g = gen::random_regular(120, 16, 3);
        let cfg = SimConfig::seeded(5);
        let idents = congest::NetTables::build(&g, &cfg).idents().to_vec();
        let decomposition = decomp::oracle::decompose_power(&g, 2, None);
        let part = vec![0u32; g.n()];
        let lambda = 0.45;
        let threshold = 8;
        let proto = DerandSplit::new(&g, &decomposition, &idents, part.clone(), lambda, threshold);
        let res = congest::run(&g, &proto, &cfg).unwrap();
        let result = SplitResult {
            sides: res.states.iter().map(|s| s.side).collect(),
            lambda,
            threshold,
        };
        assert!(
            result.satisfies_definition(&g, &part),
            "derandomized splitting violated Def. 3.1"
        );
        assert!(res.metrics.is_congest_compliant());
        // Deterministic: a second run is identical.
        let res2 = congest::run(&g, &proto, &cfg).unwrap();
        assert_eq!(
            res.states.iter().map(|s| s.side).collect::<Vec<_>>(),
            res2.states.iter().map(|s| s.side).collect::<Vec<_>>()
        );
    }

    #[test]
    fn derand_split_balances_tight_instance() {
        // A clique: every node has n-1 same-part neighbors; the estimator
        // argument must keep both sides below (1+λ)(n-1)/2.
        let g = gen::clique(40);
        let cfg = SimConfig::seeded(9);
        let idents = congest::NetTables::build(&g, &cfg).idents().to_vec();
        let d = decomp::oracle::decompose_power(&g, 2, None);
        let part = vec![0u32; g.n()];
        let proto = DerandSplit::new(&g, &d, &idents, part.clone(), 0.5, 10);
        let res = congest::run(&g, &proto, &cfg).unwrap();
        let result = SplitResult {
            sides: res.states.iter().map(|s| s.side).collect(),
            lambda: 0.5,
            threshold: 10,
        };
        assert!(result.satisfies_definition(&g, &part));
    }

    #[test]
    fn randomized_split_mostly_balances() {
        let g = gen::random_regular(200, 20, 7);
        let mut driver = Driver::new(&g, SimConfig::seeded(3));
        let sides = driver.run_phase("split", &RandomizedSplit, |s| s).unwrap();
        let result = SplitResult {
            sides,
            lambda: 0.8,
            threshold: 10,
        };
        assert!(result.satisfies_definition(&g, &vec![0; g.n()]));
    }

    #[test]
    fn recursive_split_reduces_part_degrees() {
        let g = gen::random_regular(200, 40, 1);
        for mode in [SplitMode::Deterministic, SplitMode::Randomized] {
            let mut driver = Driver::new(&g, SimConfig::seeded(2));
            let params = Params::practical();
            let out = recursive_split(&mut driver, &params, 1.0, mode, Some(2)).unwrap();
            assert_eq!(out.levels, 2);
            assert!(out.part.iter().all(|&p| p < 4));
            let got = max_part_degree(&g, &out.part);
            // Guaranteed bound for constrained vertices, plus threshold
            // slack for the rest (Def. 3.1 only binds above the threshold).
            let bound = out.delta_h + out.threshold;
            assert!(
                got <= bound,
                "{mode:?}: part degree {got} > delta_h + threshold = {} + {}",
                out.delta_h,
                out.threshold
            );
            // The split genuinely reduced degrees.
            assert!(got < g.max_degree(), "{mode:?}: no reduction: {got}");
        }
    }

    #[test]
    fn split_result_definition_check_works() {
        let g = gen::path(3);
        // Node 1 has both neighbors red: with threshold 2, λ=0 this fails.
        let bad = SplitResult {
            sides: vec![true, false, true],
            lambda: 0.0,
            threshold: 2,
        };
        assert!(!bad.satisfies_definition(&g, &[0, 0, 0]));
        let good = SplitResult {
            sides: vec![true, false, false],
            lambda: 0.0,
            threshold: 2,
        };
        assert!(good.satisfies_definition(&g, &[0, 0, 0]));
    }
}
