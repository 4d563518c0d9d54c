//! Baselines the paper argues against (the bench registry's `exp/e6/*`
//! cells).
//!
//! * [`oversampled`] — the simple algorithm sketched in §2.1: with a
//!   `(1+ε)∆²` palette, "try a uniform random color" alone succeeds in
//!   `O(log_{1/ε} n)` trial cycles. Shows what the extra `ε∆²` colors buy,
//!   and what `∆²+1` costs.
//! * [`naive_relay`] — simulating the classic `(deg+1)`-list algorithm on
//!   `G²` by brute-force relaying: every node tracks the *exact* colors in
//!   its 2-neighborhood, paying `Θ(∆)` relay rounds per simulated `G²`
//!   round — the `Ω(∆)` overhead the introduction rules out.

use crate::rand::trials::RandomTrials;
use crate::{ColoringOutcome, Driver, TrialCore, TrialMsg};
use congest::wire_enum;
use congest::{
    BitCost, Inbox, Message, NodeCtx, NodeRng, Outbox, Port, Protocol, SimConfig, SimError, Status,
};
use graphs::Graph;
use rand::Rng;

/// §2.1's oversampled-palette algorithm: palette `⌈(1+ε)∆²⌉ + 1`, uniform
/// random trials to completion.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn oversampled(g: &Graph, epsilon: f64, cfg: &SimConfig) -> Result<ColoringOutcome, SimError> {
    let d = g.max_degree();
    let palette = (((1.0 + epsilon) * (d * d) as f64).ceil() as u32).max(1) + 1;
    let mut driver = Driver::new(g, cfg.clone());
    let colors = driver.run_phase(
        format!("oversampled(palette={palette})"),
        &RandomTrials::to_completion(palette),
        |s| s.trial.color(),
    )?;
    Ok(driver.finish(colors))
}

/// Messages of the naive-relay baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayMsg {
    /// Embedded trial handshake.
    Trial(TrialMsg),
    /// Forwarded adoption (2-hop propagation of a neighbor's new color).
    Fwd(u32),
}

impl Message for RelayMsg {
    fn bits(&self) -> u64 {
        match self {
            RelayMsg::Trial(t) => 1 + t.bits(),
            RelayMsg::Fwd(c) => 1 + BitCost::uint(u64::from(*c)),
        }
    }
}

wire_enum!(RelayMsg {
    0 => Trial(t),
    1 => Fwd(c),
});

/// The naive-relay baseline protocol: each super-round is one simulated
/// `G²` round (a trial from the exactly known free palette) followed by a
/// `Θ(∆)` relay window propagating adoptions two hops.
#[derive(Debug)]
pub struct NaiveRelay {
    /// Palette size (`∆² + 1`).
    pub palette: u32,
    window: u64,
}

impl NaiveRelay {
    /// Builds the baseline for graph parameters.
    #[must_use]
    pub fn new(g: &Graph) -> Self {
        let d = g.max_degree();
        let dc = (d * d).min(g.n().saturating_sub(1));
        NaiveRelay {
            palette: dc as u32 + 1,
            // Unbundled relaying: one forwarded adoption per edge per
            // round, up to ∆ adopting neighbors — the Ω(∆) overhead.
            window: d as u64,
        }
    }

    fn super_round_len(&self) -> u64 {
        3 + self.window
    }
}

/// Per-node state of the naive-relay baseline.
#[derive(Debug, Clone)]
pub struct RelayState {
    trial: TrialCore,
    /// Exact multiset of colors within distance ≤ 2 (multiplicity = number
    /// of paths, kept consistent by the forwarding discipline).
    used: Vec<u32>,
    /// Colors adopted by immediate neighbors this super-round, to forward.
    queue: Vec<u32>,
}

impl RelayState {
    /// The node's color.
    #[must_use]
    pub fn color(&self) -> u32 {
        self.trial.color()
    }
}

impl Protocol for NaiveRelay {
    type State = RelayState;
    type Msg = RelayMsg;

    fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> RelayState {
        RelayState {
            trial: TrialCore::new(ctx.degree()),
            used: vec![0; self.palette as usize],
            queue: Vec::new(),
        }
    }

    fn round(
        &self,
        st: &mut RelayState,
        ctx: &NodeCtx,
        rng: &mut NodeRng,
        inbox: &Inbox<RelayMsg>,
        out: &mut Outbox<RelayMsg>,
    ) -> Status {
        let len = self.super_round_len();
        let sub = ctx.round % len;
        let trial_msgs: Vec<(Port, TrialMsg)> = inbox
            .iter()
            .filter_map(|(p, m)| match m {
                RelayMsg::Trial(t) => Some((*p, t.clone())),
                RelayMsg::Fwd(_) => None,
            })
            .collect();
        // Fold in forwarded adoptions any round they arrive.
        for (_, m) in inbox.iter() {
            if let RelayMsg::Fwd(c) = m {
                st.used[*c as usize] += 1;
            }
        }
        match sub {
            0 => {
                let try_color = if st.trial.is_live() {
                    // Free colors always exist: ≤ ∆_c distinct d2 colors.
                    let free: Vec<u32> = (0..self.palette)
                        .filter(|&c| st.used[c as usize] == 0)
                        .collect();
                    (!free.is_empty()).then(|| free[rng.gen_range(0..free.len())])
                } else {
                    None
                };
                st.trial.begin_cycle(ctx.degree(), try_color, |p, m| {
                    out.send(p, RelayMsg::Trial(m))
                });
            }
            1 => {
                // Record direct adoptions (announcements) for counting and
                // forwarding, then answer tries.
                for (_, m) in &trial_msgs {
                    if let TrialMsg::Announce(c) = *m {
                        st.used[c as usize] += 1;
                        st.queue.push(c);
                    }
                }
                st.trial
                    .verdict_round(&trial_msgs, |p, m| out.send(p, RelayMsg::Trial(m)));
            }
            2 => {
                let _ = st.trial.resolve(ctx.degree(), &trial_msgs);
            }
            _ => {
                // Relay window: forward one queued adoption to all ports.
                if let Some(c) = st.queue.pop() {
                    for p in 0..ctx.degree() as Port {
                        out.send(p, RelayMsg::Fwd(c));
                    }
                }
            }
        }
        // Terminate at a super-round boundary with everything flushed.
        let boundary = sub == len - 1;
        if boundary
            && !st.trial.is_live()
            && !st.trial.has_pending_announce()
            && st.queue.is_empty()
            && ctx.round >= len
        {
            Status::Done
        } else {
            Status::Running
        }
    }
}

/// Runs the naive-relay baseline to completion.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn naive_relay(g: &Graph, cfg: &SimConfig) -> Result<ColoringOutcome, SimError> {
    let proto = NaiveRelay::new(g);
    let mut driver = Driver::new(g, cfg.clone());
    let colors = driver.run_phase("naive-relay", &proto, |s| s.color())?;
    Ok(driver.finish(colors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{gen, verify};

    #[test]
    fn oversampled_is_valid_and_fast() {
        let g = gen::gnp_capped(120, 0.07, 5, 1);
        let out = oversampled(&g, 1.0, &SimConfig::seeded(2)).unwrap();
        assert!(verify::is_valid_d2_coloring(&g, &out.colors));
        let d = g.max_degree();
        assert!(out.palette_bound() <= 2 * d * d + 2);
    }

    #[test]
    fn naive_relay_is_valid_but_pays_delta() {
        let g = gen::gnp_capped(90, 0.1, 6, 4);
        let out = naive_relay(&g, &SimConfig::seeded(3)).unwrap();
        assert!(verify::is_valid_d2_coloring(&g, &out.colors));
        let d = g.max_degree();
        assert!(out.palette_bound() <= (d * d).min(g.n() - 1) + 1);
        // Each super-round costs ≥ ∆ rounds.
        assert!(out.rounds() >= d as u64 * 3);
    }

    #[test]
    fn naive_relay_on_star_and_clique() {
        for g in [gen::star(8), gen::clique(9)] {
            let out = naive_relay(&g, &SimConfig::seeded(5)).unwrap();
            assert!(verify::is_valid_d2_coloring(&g, &out.colors));
            assert_eq!(verify::num_colors(&out.colors), g.n());
        }
    }
}
