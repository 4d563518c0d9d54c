//! Locally-iterative coloring via degree-≤1 polynomials (Theorem B.4).
//!
//! Input: a proper conflict-coloring `ψ` with `ψ(v) < q²` for a globally
//! known prime `q > 4∆_c` (Bertrand gives `q < 8∆_c`). Each node reads its
//! input color as the degree-≤1 polynomial `p_v(x) = a + b·x` over `F_q`
//! (`a = ψ/q`, `b = ψ mod q`) and, in phase `i`, tries the candidate color
//! `p_v(i)` through the trial handshake.
//!
//! Lemma B.3: each conflict neighbor blocks at most 2 phases (distinct
//! degree-≤1 polynomials agree on ≤ 1 point; a permanent color is a
//! constant polynomial, also agreeing on ≤ 1 point), so at most `2∆_c`
//! phases are blocked and `q > 4∆_c` phases suffice to color everyone with
//! colors in `[q] = O(∆_c)`.
//!
//! The trial handshake resolves distance-2 conflicts *at the common
//! neighbor* with no relaying at all — each phase costs a constant number
//! of rounds, the key to the `O(∆²)` total of Theorem 1.2.

use super::{Scope, NO_PART};
use crate::common::next_prime;
use crate::{TrialCore, TrialMsg, UNCOLORED};
use congest::{Inbox, NodeCtx, NodeRng, Outbox, Protocol, Status, Wake};

/// Chooses the phase count / output palette: the smallest prime `q` with
/// `q > 4∆_c` and `q² ≥ k_in`.
#[must_use]
pub fn choose_q(k_in: u64, delta_c: u64) -> u64 {
    let root = (k_in as f64).sqrt().ceil() as u64;
    let mut q = next_prime((4 * delta_c.max(1)).max(root.saturating_sub(1)));
    while q * q < k_in {
        q = next_prime(q);
    }
    q
}

/// The locally-iterative protocol.
#[derive(Debug)]
pub struct LocIter<'s> {
    scope: &'s Scope,
    /// Input coloring `ψ` (proper on the conflict graph, values < `q²`).
    psi: Vec<u32>,
    /// Prime field size = number of scheduled phases = output palette.
    pub q: u64,
}

impl<'s> LocIter<'s> {
    /// Builds the protocol. `psi` must be a proper conflict-coloring with
    /// values `< choose_q(k_in, ∆_c)²`.
    #[must_use]
    pub fn new(scope: &'s Scope, psi: Vec<u32>, k_in: u64) -> Self {
        let q = choose_q(k_in, scope.delta_c as u64);
        LocIter { scope, psi, q }
    }

    fn candidate(&self, psi: u32, phase: u64) -> u32 {
        let q = self.q;
        let a = u64::from(psi) / q;
        let b = u64::from(psi) % q;
        ((a + b * (phase % q)) % q) as u32
    }
}

/// Per-node state.
#[derive(Debug, Clone)]
pub struct LocIterState {
    /// The trial machinery (tracks the permanent color).
    pub trial: TrialCore,
    psi: u32,
}

impl LocIterState {
    /// Permanent color (`UNCOLORED` if the node is inactive).
    #[must_use]
    pub fn color(&self) -> u32 {
        self.trial.color()
    }
}

impl Protocol for LocIter<'_> {
    type State = LocIterState;
    type Msg = TrialMsg;

    fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> LocIterState {
        let v = ctx.index as usize;
        // Uniform scopes compress the per-node part table away (empty =
        // "all neighbors in my part"; see `TrialCore::scoped`).
        let parts = if self.scope.uniform {
            Vec::new()
        } else {
            self.scope.nbr_parts.row(v).to_vec()
        };
        let mut trial = TrialCore::scoped(
            self.scope.part[v],
            parts,
            UNCOLORED,
            vec![UNCOLORED; ctx.degree()],
        );
        if self.scope.dist == super::Dist::One {
            trial = trial.distance_one();
        }
        LocIterState {
            trial,
            psi: self.psi[v],
        }
    }

    fn round(
        &self,
        st: &mut LocIterState,
        ctx: &NodeCtx,
        _rng: &mut NodeRng,
        inbox: &Inbox<TrialMsg>,
        out: &mut Outbox<TrialMsg>,
    ) -> Status {
        let v = ctx.index as usize;
        let active = self.scope.part[v] != NO_PART;
        let phase = ctx.round / 3;
        let received = inbox.as_slice();
        match ctx.round % 3 {
            0 => {
                let try_color = if active && st.trial.is_live() {
                    Some(self.candidate(st.psi, phase))
                } else {
                    None
                };
                st.trial
                    .begin_cycle(ctx.degree(), try_color, |p, m| out.send(p, m));
            }
            1 => {
                st.trial.verdict_round(received, |p, m| out.send(p, m));
            }
            _ => {
                let _ = st.trial.resolve(ctx.degree(), received);
            }
        }
        // Done once colored (or inactive) and the announcement flushed:
        // one full cycle after the q scheduled phases have elapsed.
        let flushed = phase > self.q + 1;
        let settled = !active || !st.trial.is_live();
        if settled && flushed {
            Status::Done
        } else {
            Status::Running
        }
    }

    fn next_wake(&self, st: &LocIterState, ctx: &NodeCtx, status: Status) -> Wake {
        if status == Status::Done {
            return Wake::Message;
        }
        if st.trial.has_pending_announce() {
            return Wake::Next;
        }
        let active = self.scope.part[ctx.index as usize] != NO_PART;
        if active && st.trial.is_live() {
            return Wake::Next;
        }
        // Settled with the announcement flushed: an empty-inbox step is a
        // no-op (`begin_cycle(None)` sends nothing, verdicts/resolves only
        // react to arrivals), and no node's Done vote exists before the
        // flush deadline `phase > q + 1`, so the run cannot terminate
        // before round `3(q + 2)`. Park until the first vote of that
        // phase; live neighbors' trial messages wake the node for its
        // verdict-giver duties in between.
        Wake::At(3 * (self.q + 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::Dist;
    use congest::SimConfig;

    #[test]
    fn q_choice_satisfies_both_constraints() {
        let q = choose_q(1000, 5);
        assert!(q > 20 && q * q >= 1000);
        let q2 = choose_q(1_000_000, 2);
        assert!(q2 * q2 >= 1_000_000);
        assert!(choose_q(4, 1) >= 5);
    }

    #[test]
    fn candidates_follow_polynomial() {
        let g = graphs::gen::path(2);
        let scope = Scope::full_d2(&g);
        let li = LocIter::new(&scope, vec![0, 1], 4);
        let q = li.q;
        // psi = a*q + b.
        let psi = (2 * q + 3) as u32;
        assert_eq!(u64::from(li.candidate(psi, 0)), 2);
        assert_eq!(u64::from(li.candidate(psi, 1)), (2 + 3) % q);
    }

    /// End-to-end: seed with unique colors (trivially proper), run, verify.
    #[test]
    fn loc_iter_produces_valid_d2_coloring() {
        let g = graphs::gen::gnp_capped(80, 0.07, 4, 9);
        let scope = Scope::full_d2(&g);
        let psi: Vec<u32> = (0..g.n() as u32).collect();
        let proto = LocIter::new(&scope, psi, g.n() as u64);
        let q = proto.q;
        let res = congest::run(&g, &proto, &SimConfig::seeded(2)).unwrap();
        let colors: Vec<u32> = res.states.iter().map(|s| s.color()).collect();
        assert!(graphs::verify::is_valid_d2_coloring(&g, &colors));
        assert!(colors.iter().all(|&c| u64::from(c) < q), "palette [q]");
        // Rounds: 3 rounds per phase, q + O(1) phases.
        assert!(
            res.metrics.rounds <= 3 * (q + 3),
            "rounds = {}",
            res.metrics.rounds
        );
        assert!(res.metrics.is_congest_compliant());
    }

    /// The hardest dense case: a star's square is a clique.
    #[test]
    fn loc_iter_on_star() {
        let g = graphs::gen::star(12);
        let scope = Scope::full_d2(&g);
        let psi: Vec<u32> = (0..g.n() as u32).collect();
        let proto = LocIter::new(&scope, psi, g.n() as u64);
        let res = congest::run(&g, &proto, &SimConfig::seeded(4)).unwrap();
        let colors: Vec<u32> = res.states.iter().map(|s| s.color()).collect();
        assert!(graphs::verify::is_valid_d2_coloring(&g, &colors));
    }

    /// Part-scoped distance-1: two interleaved parts on a cycle may reuse
    /// colors across parts.
    #[test]
    fn loc_iter_part_scoped() {
        let g = graphs::gen::cycle(12);
        let part: Vec<u32> = (0..12).map(|i| (i % 3 == 0) as u32).collect();
        let scope = Scope::new(&g, part.clone(), Dist::One, 2);
        let psi: Vec<u32> = (0..12).collect();
        let proto = LocIter::new(&scope, psi, 12);
        let res = congest::run(&g, &proto, &SimConfig::seeded(5)).unwrap();
        let colors: Vec<u32> = res.states.iter().map(|s| s.color()).collect();
        // Adjacent same-part nodes must differ.
        for (u, v) in g.edges() {
            if part[u as usize] == part[v as usize] {
                assert_ne!(colors[u as usize], colors[v as usize]);
            }
        }
        assert!(colors.iter().all(|&c| c != UNCOLORED));
    }
}
