//! `FinishColoring` (§2.6, Lemma 2.14).
//!
//! Once live nodes know their exact remaining palette (from
//! `LearnPalette`), the end-game is the classic randomized coloring loop:
//! each cycle a live node is quiet or tries a uniformly random color from
//! its remaining palette with probability ½ each; trials go through the
//! verified handshake; adoptions are broadcast and **forwarded one hop**
//! so all d2-neighbors prune their palettes. With at most half the palette
//! contested in expectation, each trial succeeds with constant
//! probability: `O(log n)` cycles w.h.p.
//!
//! Simplification: the paper's `Busy` back-pressure signal is omitted —
//! forwarding backlogs are bounded by the `O(log n)` live d2-neighbors of
//! the precondition, and a node trying against a stale palette merely
//! wastes the cycle (the handshake rejects it); validity is never at
//! risk.

use crate::common::trial::next_resolve;
#[cfg(test)]
use crate::UNCOLORED;
use crate::{TrialCore, TrialMsg};
use congest::wire_enum;
use congest::{BitCost, Inbox, Message, NodeCtx, NodeRng, Outbox, Port, Protocol, Status, Wake};
use rand::prelude::*;

/// Messages: the trial handshake plus one-hop adoption forwarding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FinMsg {
    /// Trial handshake message.
    Trial(TrialMsg),
    /// A neighbor-of-the-sender adopted this color (2-hop palette prune).
    Fwd(u32),
}

impl Message for FinMsg {
    fn bits(&self) -> u64 {
        match self {
            FinMsg::Trial(t) => 1 + t.bits(),
            FinMsg::Fwd(c) => 1 + BitCost::uint(u64::from(*c)),
        }
    }
}

wire_enum!(FinMsg {
    0 => Trial(t),
    1 => Fwd(c),
});

/// The `FinishColoring` protocol.
#[derive(Debug)]
pub struct FinishColoring {
    /// Palette size (`∆_c + 1`), for sanity checks only.
    pub palette: u32,
    knowledge: Vec<(u32, Vec<u32>)>,
    free: Vec<Vec<u32>>,
}

impl FinishColoring {
    /// Builds from carried knowledge and per-node free palettes
    /// (`LearnPalette` output; empty for colored nodes).
    #[must_use]
    pub fn new(palette: u32, knowledge: Vec<(u32, Vec<u32>)>, free: Vec<Vec<u32>>) -> Self {
        FinishColoring {
            palette,
            knowledge,
            free,
        }
    }
}

/// Per-node state.
#[derive(Debug, Clone)]
pub struct FinState {
    /// Trial machinery.
    pub trial: TrialCore,
    /// Remaining palette (exact, pruned as adoptions arrive).
    pub free: Vec<u32>,
    fwd_queue: Vec<u32>,
    /// Cycles in which this node tried a color.
    pub tries: u32,
}

impl FinState {
    fn prune(&mut self, c: u32) {
        if let Ok(i) = self.free.binary_search(&c) {
            self.free.remove(i);
        }
    }
}

impl Protocol for FinishColoring {
    type State = FinState;
    type Msg = FinMsg;

    fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> FinState {
        let (color, nbr) = self.knowledge[ctx.index as usize].clone();
        let mut free = self.free[ctx.index as usize].clone();
        free.sort_unstable();
        free.dedup();
        FinState {
            trial: TrialCore::resume(color, nbr),
            free,
            fwd_queue: Vec::new(),
            tries: 0,
        }
    }

    fn round(
        &self,
        st: &mut FinState,
        ctx: &NodeCtx,
        rng: &mut NodeRng,
        inbox: &Inbox<FinMsg>,
        out: &mut Outbox<FinMsg>,
    ) -> Status {
        let degree = ctx.degree();
        let mut tries: Vec<(Port, TrialMsg)> = Vec::new();
        let mut verdicts: Vec<(Port, TrialMsg)> = Vec::new();
        for (p, m) in inbox.iter() {
            match m {
                FinMsg::Trial(TrialMsg::Announce(c)) => {
                    st.trial.note_announce(*p, *c);
                    st.prune(*c);
                    st.fwd_queue.push(*c);
                }
                FinMsg::Trial(t @ TrialMsg::Try(_)) => tries.push((*p, t.clone())),
                FinMsg::Trial(t @ TrialMsg::Verdict(_)) => verdicts.push((*p, t.clone())),
                FinMsg::Fwd(c) => st.prune(*c),
            }
        }
        match ctx.round % 3 {
            0 => {
                let try_color = if st.trial.is_live() && !st.free.is_empty() && rng.gen_bool(0.5) {
                    Some(st.free[rng.gen_range(0..st.free.len())])
                } else {
                    None
                };
                if try_color.is_some() {
                    st.tries += 1;
                }
                st.trial
                    .begin_cycle(degree, try_color, |p, m| out.send(p, FinMsg::Trial(m)));
            }
            1 => {
                st.trial
                    .verdict_round(&tries, |p, m| out.send(p, FinMsg::Trial(m)));
            }
            _ => {
                let _ = st.trial.resolve(degree, &verdicts);
                // Drain one forwarded adoption per cycle (resolve round is
                // otherwise silent).
                if let Some(c) = st.fwd_queue.pop() {
                    for p in 0..degree as Port {
                        out.send(p, FinMsg::Fwd(c));
                    }
                }
            }
        }
        if ctx.round % 3 == 2
            && !st.trial.is_live()
            && !st.trial.has_pending_announce()
            && st.fwd_queue.is_empty()
            && ctx.round >= 3
        {
            Status::Done
        } else {
            Status::Running
        }
    }

    fn next_wake(&self, st: &FinState, ctx: &NodeCtx, status: Status) -> Wake {
        if status == Status::Done {
            return Wake::Message;
        }
        if st.trial.is_live() || st.trial.has_pending_announce() || !st.fwd_queue.is_empty() {
            return Wake::Next;
        }
        // Settled with nothing queued: coin flips are gated on liveness, so
        // empty-inbox steps touch neither the RNG nor any state. Park to
        // the next round a `Done` vote is possible (resolve sub-round, but
        // never before round 5 — the `round >= 3` gate above means every
        // node votes `Running` through round 4).
        Wake::At(next_resolve(ctx.round).max(5))
    }
}

/// Colors only.
#[must_use]
pub fn colors(states: &[FinState]) -> Vec<u32> {
    states.iter().map(|s| s.trial.color()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::SimConfig;
    use graphs::{gen, verify};

    /// Build exact free palettes centrally (standing in for LearnPalette)
    /// and check FinishColoring completes quickly and validly.
    fn run_finish(g: &graphs::Graph, pre_colors: Vec<u32>, seed: u64) -> (Vec<u32>, u64) {
        let d = g.max_degree();
        let view = graphs::D2View::build(g);
        let palette = ((d * d).min(g.n().saturating_sub(1)) + 1) as u32;
        let knowledge: Vec<(u32, Vec<u32>)> = (0..g.n() as u32)
            .map(|v| {
                let nbr = g
                    .neighbors(v)
                    .iter()
                    .map(|&u| pre_colors[u as usize])
                    .collect();
                (pre_colors[v as usize], nbr)
            })
            .collect();
        let free: Vec<Vec<u32>> = (0..g.n() as u32)
            .map(|v| {
                if pre_colors[v as usize] != UNCOLORED {
                    return Vec::new();
                }
                (0..palette)
                    .filter(|&c| {
                        view.d2_neighbors(v)
                            .iter()
                            .all(|&u| pre_colors[u as usize] != c)
                    })
                    .collect()
            })
            .collect();
        let proto = FinishColoring::new(palette, knowledge, free);
        let res =
            congest::run(g, &proto, &SimConfig::seeded(seed).with_max_rounds(500_000)).unwrap();
        (colors(&res.states), res.metrics.rounds)
    }

    #[test]
    fn finishes_from_scratch_on_small_graphs() {
        for (g, seed) in [
            (gen::star(9), 1u64),
            (gen::grid(6, 6), 2),
            (gen::clique(10), 3),
            (gen::gnp_capped(100, 0.08, 5, 4), 4),
        ] {
            let pre = vec![UNCOLORED; g.n()];
            let (cols, _rounds) = run_finish(&g, pre, seed);
            assert!(verify::is_valid_d2_coloring(&g, &cols), "invalid on {g:?}");
        }
    }

    #[test]
    fn respects_existing_colors() {
        let g = gen::path(7);
        // Pre-color odd nodes with a valid partial d2-coloring.
        let mut pre = vec![UNCOLORED; 7];
        pre[1] = 0;
        pre[3] = 1;
        pre[5] = 2;
        let (cols, _) = run_finish(&g, pre.clone(), 5);
        assert!(verify::is_valid_d2_coloring(&g, &cols));
        for v in [1usize, 3, 5] {
            assert_eq!(cols[v], pre[v], "pre-colored node {v} changed");
        }
    }

    /// Lemma 2.14 shape: rounds grow ≈ logarithmically in n on bounded-∆
    /// graphs (compare two sizes, expect far-sublinear growth).
    #[test]
    fn rounds_scale_gently() {
        let small = gen::torus(5, 5);
        let large = gen::torus(15, 15);
        let (ca, ra) = run_finish(&small, vec![UNCOLORED; small.n()], 6);
        let (cb, rb) = run_finish(&large, vec![UNCOLORED; large.n()], 6);
        assert!(verify::is_valid_d2_coloring(&small, &ca));
        assert!(verify::is_valid_d2_coloring(&large, &cb));
        assert!(
            rb < ra * 6,
            "rounds should grow ≈ log n: {ra} (n=25) vs {rb} (n=225)"
        );
    }
}
