//! Uniform random color trials (Step 2 of `d2-Color`, §2.2).
//!
//! Each cycle, every live node picks a uniform random color from the whole
//! palette and tries it through the verified handshake. With palette
//! `∆²+1` this seeds the slack that `Reduce` exploits (Prop. 2.5 / Obs. 1);
//! with palette `(1+ε)∆²` and `run_to_completion`, it *is* the simple
//! oversampled algorithm of §2.1 that finishes in `O(log_{1/ε} n)` cycles
//! — [`crate::baseline::oversampled`]. With
//! [`RandomTrials::locally_free`], a live node draws only from the colors
//! its immediate neighborhood leaves free: that is the churn repair of
//! [`mod@crate::repair`].

use crate::common::trial::next_resolve;
use crate::{TrialCore, TrialMsg};
use congest::{Inbox, NodeCtx, NodeRng, Outbox, Protocol, Status, Wake};
use rand::Rng;

/// The random-trials protocol: a fixed cycle budget
/// ([`RandomTrials::new`]) or until every node is colored
/// ([`RandomTrials::to_completion`]), optionally resumed from earlier
/// colors ([`RandomTrials::resuming`]) and drawing from locally free
/// colors ([`RandomTrials::locally_free`]).
#[derive(Debug)]
pub struct RandomTrials {
    /// Palette size (colors `0..palette`).
    pub palette: u32,
    /// Number of trial cycles to run (ignored if `run_to_completion`).
    pub cycles: u64,
    /// Keep cycling until every node is colored.
    pub run_to_completion: bool,
    /// Per-node starting colors (`None` = all live). Used when resuming
    /// after earlier phases.
    pub init: Option<Vec<(u32, Vec<u32>)>>,
    /// Draw from the palette colors not used by the node itself or any
    /// immediate neighbor, instead of from the whole palette.
    pub locally_free: bool,
}

impl RandomTrials {
    /// Fresh run: everyone live, fixed cycle budget.
    #[must_use]
    pub fn new(palette: u32, cycles: u64) -> Self {
        RandomTrials {
            palette,
            cycles,
            run_to_completion: false,
            init: None,
            locally_free: false,
        }
    }

    /// Baseline mode: run until all nodes are colored.
    #[must_use]
    pub fn to_completion(palette: u32) -> Self {
        RandomTrials {
            palette,
            cycles: u64::MAX,
            run_to_completion: true,
            init: None,
            locally_free: false,
        }
    }

    /// Resumes from colors carried out of a previous phase.
    #[must_use]
    pub fn resuming(mut self, knowledge: Vec<(u32, Vec<u32>)>) -> Self {
        self.init = Some(knowledge);
        self
    }

    /// Draws each try from the node's locally free colors, which
    /// concentrates the trials on colors that can actually stick. The
    /// palette must be at least the maximum distance-2 degree plus one:
    /// with fewer colors a node may see no free color (a panic) or the
    /// trials may never terminate.
    #[must_use]
    pub fn locally_free(mut self) -> Self {
        self.locally_free = true;
        self
    }
}

/// Per-node state: the trial core plus this cycle's bookkeeping.
#[derive(Debug, Clone)]
pub struct TrialsState {
    /// The trial machinery (holds color + neighbor colors).
    pub trial: TrialCore,
}

impl Protocol for RandomTrials {
    type State = TrialsState;
    type Msg = TrialMsg;

    fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> TrialsState {
        let trial = match &self.init {
            Some(k) => {
                let (c, nbr) = k[ctx.index as usize].clone();
                TrialCore::resume(c, nbr)
            }
            None => TrialCore::new(ctx.degree()),
        };
        TrialsState { trial }
    }

    fn round(
        &self,
        st: &mut TrialsState,
        ctx: &NodeCtx,
        rng: &mut NodeRng,
        inbox: &Inbox<TrialMsg>,
        out: &mut Outbox<TrialMsg>,
    ) -> Status {
        let cycle = ctx.round / 3;
        let received = inbox.as_slice();
        match ctx.round % 3 {
            0 => {
                let in_budget = self.run_to_completion || cycle < self.cycles;
                let try_color = if !st.trial.is_live() || !in_budget {
                    None
                } else if self.locally_free {
                    let free = st.trial.locally_free_colors(self.palette);
                    assert!(
                        !free.is_empty(),
                        "repair palette too small: node {} sees no free color",
                        ctx.index
                    );
                    Some(free[rng.gen_range(0..free.len())])
                } else {
                    Some(rng.gen_range(0..self.palette))
                };
                st.trial
                    .begin_cycle(ctx.degree(), try_color, |p, m| out.send(p, m));
            }
            1 => st.trial.verdict_round(received, |p, m| out.send(p, m)),
            _ => {
                let _ = st.trial.resolve(ctx.degree(), received);
            }
        }
        // A node may stop only at the resolve sub-round, colored (or out of
        // budget), with no announcement pending — otherwise neighbor color
        // tables would go stale and later verdicts could miss conflicts.
        let flushed = !st.trial.has_pending_announce();
        if ctx.round % 3 == 2 && flushed {
            if self.run_to_completion {
                if !st.trial.is_live() {
                    return Status::Done;
                }
            } else if cycle >= self.cycles {
                return Status::Done;
            }
        }
        Status::Running
    }

    fn next_wake(&self, st: &TrialsState, ctx: &NodeCtx, status: Status) -> Wake {
        if status == Status::Done {
            // Settled and flushed: only a neighbor's Try can oblige this
            // node to act (verdict duty), and arrivals always wake.
            return Wake::Message;
        }
        if st.trial.has_pending_announce() {
            // The adoption announcement goes out at the next sub-round 0.
            return Wake::Next;
        }
        let trying = st.trial.is_live() && (self.run_to_completion || ctx.round / 3 < self.cycles);
        if trying {
            return Wake::Next;
        }
        // Not trying and nothing pending: the node's empty-inbox steps are
        // no-ops (no RNG draw, no sends). Its sticky vote is `Running`,
        // so park only up to the earliest round unanimity is possible —
        // the next resolve sub-round in to-completion mode, the first
        // past-budget resolve round `3 * cycles + 2` in budget mode —
        // where it will vote `Done`.
        let target = if self.run_to_completion {
            next_resolve(ctx.round)
        } else {
            next_resolve(ctx.round).max(3 * self.cycles + 2)
        };
        Wake::At(target)
    }
}

/// Fraction of nodes still live, from final states (driver helper).
#[must_use]
pub fn live_fraction(states: &[TrialsState]) -> f64 {
    if states.is_empty() {
        return 0.0;
    }
    states.iter().filter(|s| s.trial.is_live()).count() as f64 / states.len() as f64
}

/// Extracts `(color, neighbor colors)` knowledge for the next phase.
#[must_use]
pub fn knowledge(states: &[TrialsState]) -> Vec<(u32, Vec<u32>)> {
    states
        .iter()
        .map(|s| (s.trial.color(), s.trial.nbr_colors().to_vec()))
        .collect()
}

/// Colors only (with [`crate::UNCOLORED`] for live nodes).
#[must_use]
pub fn colors(states: &[TrialsState]) -> Vec<u32> {
    states.iter().map(|s| s.trial.color()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UNCOLORED;
    use congest::SimConfig;
    use graphs::{gen, verify};

    #[test]
    fn oversampled_palette_colors_everything() {
        let g = gen::gnp_capped(150, 0.06, 6, 2);
        let d = g.max_degree();
        let palette = (2 * d * d + 1) as u32; // ε = 1
        let proto = RandomTrials::to_completion(palette);
        let res = congest::run(&g, &proto, &SimConfig::seeded(3)).unwrap();
        let cols = colors(&res.states);
        assert!(verify::is_valid_d2_coloring(&g, &cols));
        assert!(verify::palette_size(&cols) <= palette as usize);
        assert!(res.metrics.is_congest_compliant());
    }

    #[test]
    fn tight_palette_with_budget_makes_progress_and_stays_valid() {
        let g = gen::gnp_capped(120, 0.08, 5, 7);
        let d = g.max_degree();
        let palette = (d * d + 1) as u32;
        let proto = RandomTrials::new(palette, 20);
        let res = congest::run(&g, &proto, &SimConfig::seeded(1)).unwrap();
        let cols = colors(&res.states);
        // Partial colorings must be conflict-free even with UNCOLORED nodes.
        assert!(verify::first_d2_violation(&g, &cols).is_none());
        assert!(live_fraction(&res.states) < 0.5, "most nodes should color");
    }

    #[test]
    fn resume_preserves_colors() {
        let g = gen::path(6);
        let proto = RandomTrials::new(4, 10);
        let res = congest::run(&g, &proto, &SimConfig::seeded(5)).unwrap();
        let k = knowledge(&res.states);
        let proto2 = RandomTrials::new(4, 5).resuming(k.clone());
        let res2 = congest::run(&g, &proto2, &SimConfig::seeded(6)).unwrap();
        for (v, s) in res2.states.iter().enumerate() {
            if k[v].0 != UNCOLORED {
                assert_eq!(s.trial.color(), k[v].0, "colored nodes must not change");
            }
        }
    }

    #[test]
    fn clique_eventually_all_distinct() {
        let g = gen::clique(8);
        let proto = RandomTrials::to_completion(16);
        let res = congest::run(&g, &proto, &SimConfig::seeded(9)).unwrap();
        let cols = colors(&res.states);
        assert!(verify::is_valid_d2_coloring(&g, &cols));
        assert_eq!(verify::num_colors(&cols), 8);
    }
}
