//! Iterative color reduction on the conflict graph (Theorem B.2).
//!
//! Given a proper conflict-coloring with `k_in` colors, reduce to the
//! greedy bound `∆_c + 1` colors in `O(∆ + (k_in − ∆_c))` rounds: first
//! every node learns the multiset of colors in its conflict neighborhood
//! (one pipelined [`GatherCore`] pass), then in each 2-round phase every
//! node whose color is `≥ ∆_c + 1` **and** strictly the largest in its
//! conflict neighborhood recolors to a free color `< ∆_c + 1` and
//! broadcasts the update two hops.
//!
//! The paper's congestion argument (proof of Theorem B.2) carries over
//! directly: two eligible nodes in the same part are never conflict
//! neighbors (their colors would have to be equal), so a relay node
//! forwards at most one update per part per phase, and the part filtering
//! sends different parts' updates to disjoint ports — one message per edge
//! per round.
//!
//! Updates are applied with the same multiplicity as the initial gather
//! (once per 2-path, plus once if adjacent), so the counts stay coherent
//! without any deduplication.

use super::{gather::DetMsg, Dist, GatherCore, Scope};
use congest::{Inbox, NodeCtx, NodeRng, Outbox, Port, Protocol, Status, Wake};

/// The color-reduction protocol.
#[derive(Debug)]
pub struct ReduceColors<'s> {
    scope: &'s Scope,
    init_colors: Vec<u32>,
    /// Input palette size.
    pub k_in: u64,
    /// Output palette size (`∆_c + 1`).
    pub target: u64,
    budget: u64,
}

impl<'s> ReduceColors<'s> {
    /// Builds the protocol; `init_colors` must be proper on the conflict
    /// graph with values `< k_in`.
    #[must_use]
    pub fn new(scope: &'s Scope, init_colors: Vec<u32>, k_in: u64, budget: u64) -> Self {
        let target = scope.delta_c as u64 + 1;
        ReduceColors {
            scope,
            init_colors,
            k_in,
            target,
            budget,
        }
    }

    /// Number of recoloring phases (0 when the input is already small).
    #[must_use]
    pub fn phases(&self) -> u64 {
        self.k_in.saturating_sub(self.target)
    }

    fn gather_rounds(&self, delta: usize) -> u64 {
        GatherCore::rounds(
            self.scope.dist,
            delta,
            graphs::ceil_log2(self.k_in.max(2)),
            self.budget,
        )
    }
}

/// Per-node state.
#[derive(Debug, Clone)]
pub struct ReduceState {
    /// Current color.
    pub color: u32,
    counts: Vec<u32>,
    gather: Option<GatherCore>,
    /// Ports already given a `Fwd` this round. Theorem B.2's congestion
    /// argument guarantees one update per port per round on reliable
    /// links, but under message loss two same-part neighbors can both
    /// think they hold the locally largest color and recolor in the same
    /// phase — the relay then owes the shared port two forwards. Keeping
    /// only the first preserves CONGEST compliance; fault-free runs never
    /// hit the guard.
    fwd_sent: Vec<bool>,
}

impl ReduceState {
    fn bump(&mut self, old: u32, new: u32) {
        // A gather or Fwd message lost to fault injection leaves the table
        // undercounted, so a later decrement can hit zero; saturate rather
        // than underflow. Fault-free runs always decrement a positive
        // count, so this changes nothing on the reliable path.
        let c = &mut self.counts[old as usize];
        *c = c.saturating_sub(1);
        self.counts[new as usize] += 1;
    }
}

impl Protocol for ReduceColors<'_> {
    type State = ReduceState;
    type Msg = DetMsg;

    fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> ReduceState {
        ReduceState {
            color: self.init_colors[ctx.index as usize],
            counts: vec![0; self.k_in as usize],
            gather: None,
            fwd_sent: vec![false; ctx.degree()],
        }
    }

    fn round(
        &self,
        st: &mut ReduceState,
        ctx: &NodeCtx,
        _rng: &mut NodeRng,
        inbox: &Inbox<DetMsg>,
        out: &mut Outbox<DetMsg>,
    ) -> Status {
        if self.phases() == 0 {
            return Status::Done;
        }
        let v = ctx.index as usize;
        let active = self.scope.is_active(v);
        let my_part = self.scope.part[v];
        let g_rounds = self.gather_rounds(ctx.max_degree);
        let received = inbox.as_slice();

        if ctx.round < g_rounds {
            if st.gather.is_none() {
                st.gather = Some(GatherCore::new(
                    ctx.degree(),
                    self.scope.dist,
                    ctx.max_degree,
                    graphs::ceil_log2(self.k_in.max(2)),
                    self.budget,
                ));
            }
            let gather = st.gather.as_mut().expect("set above");
            let my_color = if active { Some(st.color) } else { None };
            let complete = gather.step(
                my_color,
                my_part,
                self.scope.nbr_parts.row(v),
                received,
                |p, m| {
                    out.send(p, m);
                },
            );
            if complete {
                for &c in &gather.collected {
                    st.counts[c as usize] += 1;
                }
                st.gather = None;
            }
            return Status::Running;
        }

        let t = ctx.round - g_rounds;
        let phase = t / 2;
        if t.is_multiple_of(2) {
            // Fold forwarded updates from the previous phase, then decide.
            for (_, m) in received {
                if let DetMsg::Fwd { old, new } = *m {
                    st.bump(old, new);
                }
            }
            if active && u64::from(st.color) >= self.target {
                let local_max = st
                    .counts
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|&(_, &cnt)| cnt > 0)
                    .map_or(0, |(c, _)| c as u32);
                if st.color > local_max {
                    let free = (0..self.target as u32)
                        .find(|&c| st.counts[c as usize] == 0)
                        .expect("≤ ∆_c conflict colors, palette has ∆_c + 1 slots");
                    let old = st.color;
                    st.color = free;
                    for p in 0..ctx.degree() as Port {
                        out.send(p, DetMsg::Recolor { old, new: free });
                    }
                }
            }
        } else {
            // Apply direct updates; forward one hop with part filtering.
            st.fwd_sent.fill(false);
            for &(p, ref m) in received {
                if let DetMsg::Recolor { old, new } = *m {
                    let sender_part = self.scope.nbr_parts.row(v)[p as usize];
                    if sender_part == my_part {
                        st.bump(old, new);
                    }
                    if self.scope.dist == Dist::Two {
                        for q in 0..ctx.degree() as Port {
                            if q != p
                                && self.scope.nbr_parts.row(v)[q as usize] == sender_part
                                && !st.fwd_sent[q as usize]
                            {
                                st.fwd_sent[q as usize] = true;
                                out.send(q, DetMsg::Fwd { old, new });
                            }
                        }
                    }
                }
            }
        }
        if phase >= self.phases() {
            Status::Done
        } else {
            Status::Running
        }
    }

    fn next_wake(&self, _st: &ReduceState, ctx: &NodeCtx, status: Status) -> Wake {
        if status == Status::Done {
            return Wake::Message;
        }
        let g_rounds = self.gather_rounds(ctx.max_degree);
        if ctx.round < g_rounds {
            // The pipelined gather needs every node every round.
            return Wake::Next;
        }
        if !(ctx.round - g_rounds).is_multiple_of(2) {
            // Apply/forward sub-round: folded updates may have changed the
            // count table, so the next decide sub-round must re-evaluate.
            return Wake::Next;
        }
        // Decide sub-round, still `Running`: the recolor decision is a pure
        // function of the count table, which changes only on arrivals (and
        // arrivals always wake — both the direct `Recolor` at odd rounds
        // and the relayed `Fwd` at even rounds). Park to the terminal
        // round `gather + 2·phases`, where every node first votes `Done`.
        // This is what turns the one-straggler tail of a reduction from
        // `O(n)` stepped nodes per round into `O(straggler neighborhood)`.
        Wake::At(g_rounds + 2 * self.phases())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::SimConfig;
    use graphs::verify;

    fn run_reduce(g: &graphs::Graph, init: Vec<u32>, k_in: u64) -> (Vec<u32>, congest::Metrics) {
        let scope = Scope::full_d2(g);
        let cfg = SimConfig::seeded(11);
        let budget = cfg.bandwidth_bits(g.n());
        let proto = ReduceColors::new(&scope, init, k_in, budget);
        let res = congest::run(g, &proto, &cfg).unwrap();
        (res.states.iter().map(|s| s.color).collect(), res.metrics)
    }

    #[test]
    fn reduces_unique_colors_to_greedy_bound() {
        let g = graphs::gen::gnp_capped(60, 0.08, 4, 5);
        let init: Vec<u32> = (0..g.n() as u32).collect();
        let (colors, metrics) = run_reduce(&g, init, g.n() as u64);
        assert!(verify::is_valid_d2_coloring(&g, &colors));
        let d = g.max_degree();
        let bound = d * d + 1;
        assert!(
            verify::palette_size(&colors) <= bound,
            "palette {} > ∆²+1 = {bound}",
            verify::palette_size(&colors)
        );
        assert!(metrics.is_congest_compliant());
    }

    #[test]
    fn noop_when_already_small() {
        let g = graphs::gen::path(5);
        // Proper d2-coloring with 3 colors: target is ∆²+1 = 5.
        let init = vec![0, 1, 2, 0, 1];
        let (colors, metrics) = run_reduce(&g, init.clone(), 3);
        assert_eq!(colors, init);
        assert_eq!(metrics.rounds, 1);
    }

    #[test]
    fn star_square_is_clique_and_keeps_distinct_colors() {
        let g = graphs::gen::star(6);
        // ∆ = 6 → target 37; give wasteful colors 40.. and watch them drop.
        let init: Vec<u32> = (0..g.n() as u32).map(|v| 40 + v).collect();
        let (colors, _) = run_reduce(&g, init, 47);
        assert!(verify::is_valid_d2_coloring(&g, &colors));
        assert!(verify::palette_size(&colors) <= 37);
        // All 7 nodes are mutually d2-adjacent: colors must be distinct.
        assert_eq!(verify::num_colors(&colors), 7);
    }

    #[test]
    fn cycle_reduction() {
        let g = graphs::gen::cycle(30);
        let init: Vec<u32> = (0..30).collect();
        let (colors, _) = run_reduce(&g, init, 30);
        assert!(verify::is_valid_d2_coloring(&g, &colors));
        assert!(verify::palette_size(&colors) <= 5); // ∆² + 1 = 5
    }
}
