//! Random `H`-neighbor selection (Lemma 2.3).
//!
//! Each node `u` needs a multiset `R_u` of `ρ` uniformly random
//! `H`-neighbors *with routes*: `u` never learns the sampled nodes' names,
//! only which port leads toward each of them — the relays remember the
//! rest. Per the paper's XOR scheme (Lemma 2.3, repeated ρ times): in
//! each slot every node broadcasts fresh random strings `r_w` and `b_w`;
//! a common neighbor computes `b_u ⊕ r_w` for every `H`-neighbor `w` of
//! `u` among *its* ports and forwards the minimum; `u` takes the global
//! minimum over ports (and over its own immediate `H`-neighbors). The
//! argmin of i.i.d. fresh uniform strings is a uniform `H`-neighbor —
//! strings must be fresh per slot (a fixed `r_w` re-used across slots
//! biases the argmin toward whichever string sits in the sparse part of
//! the realized binary trie). Forwarding only partial minima subsumes the
//! paper's zero-prefix filter (which existed to thin forwarded
//! candidates) without changing the distribution.
//!
//! Slots are scheduled on alternating rounds (`b_u` broadcasts on odd
//! rounds, partial-minimum replies on even rounds) so the two message
//! kinds never contend for an edge: `2ρ + 2` rounds total, matching
//! Lemma 2.3's `O(|R_u| + log n)`.
//!
//! **Demand gating**: the paper has every node broadcast fresh strings in
//! every slot, but a string is ever *consumed* only along `H`-similar
//! pairs — on workloads with no similarity structure (sparse random
//! graphs, where no two nodes share 2/3 of their d2-neighborhoods) the
//! entire `Θ(ρ·m)` broadcast volume is dead traffic, and it dominated the
//! whole randomized pipeline's wall clock at `n = 10⁵`. The window
//! therefore opens with one **demand round** (round 0, previously idle):
//! each prospective relay `x` sends a 1-bit [`SampMsg::Demand`] on port
//! `y` iff `x` knows a similar pair involving `y` — exactly the condition
//! under which `x` will later read `y`'s strings. A node then broadcasts
//! slot strings iff it was demanded or it has an immediate `H`-neighbor
//! (the direct-candidate case, which it knows locally). Every string that
//! is ever read is still broadcast, so the resolved sample distribution
//! is untouched; the dead broadcasts simply never happen.

use super::similarity::SimilarityKnowledge;
use congest::wire_enum;
use congest::{BitCost, Message, NodeCtx, NodeRng, Port};
use rand::Rng;
use std::collections::HashMap;

/// Sampling-phase messages (embedded into the host protocol's enum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampMsg {
    /// Fresh per-slot strings: `r` (my sampled-side string) and `b` (my
    /// sampler-side mask). Strings are `2⌈log₂ n⌉` bits; costs are charged
    /// from the actual values.
    Slot {
        /// Slot index.
        slot: u32,
        /// The sampled-side string `r_w`.
        r: u64,
        /// The sampler-side mask `b_u`.
        b: u64,
    },
    /// A relay's partial minimum for `(slot, b_u)`.
    MinReply {
        /// Slot index.
        slot: u32,
        /// `min_w (b_u ⊕ r_w)` over the relay's eligible `w`.
        value: u64,
    },
    /// Demand round (round 0): "I hold a similar pair involving you, so I
    /// will read your slot strings — broadcast them."
    Demand,
}

impl Message for SampMsg {
    fn bits(&self) -> u64 {
        let tag = BitCost::tag(3);
        match self {
            SampMsg::Slot { r, b, .. } => tag + 8 + BitCost::uint(*r) + BitCost::uint(*b),
            SampMsg::MinReply { value, .. } => tag + 8 + BitCost::uint(*value),
            SampMsg::Demand => tag,
        }
    }
}

wire_enum!(SampMsg {
    0 => Slot { slot, r, b },
    1 => MinReply { slot, value },
    2 => Demand,
});

/// Where a resolved sample slot leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRoute {
    /// The sampled `H`-neighbor is 2 hops away, via this port.
    Via(Port),
    /// The sampled `H`-neighbor is the immediate neighbor on this port.
    Direct(Port),
    /// No `H`-neighbor was reachable.
    Unreachable,
}

/// A relay's stored next-hop for `(requester port, slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayTarget {
    /// Forward to this port.
    Port(Port),
    /// The relay itself is the sampled node.
    SelfNode,
}

/// Embeddable sampler state for one node.
#[derive(Debug, Clone)]
pub struct SamplerCore {
    rho: u32,
    string_mask: u64,
    my_r: u64,
    my_b: u64,
    r_values: Vec<u64>,
    b_values: Vec<u64>,
    /// Running best per slot: `(value, route)`.
    best: Vec<(u64, SlotRoute)>,
    /// As relay: `(requester port, slot) → target`.
    route: HashMap<(Port, u32), RelayTarget>,
    next_slot: usize,
    /// Whether this node relays for at least one similar pair (set in the
    /// demand round; gates the `O(∆²)` relay scan per slot).
    has_pairs: bool,
    /// Whether this node has an immediate `H`-neighbor (direct-candidate
    /// sampling; known locally).
    direct_need: bool,
    /// Whether any neighbor demanded this node's strings.
    demanded: bool,
}

impl SamplerCore {
    /// Total rounds the sampling window occupies for `rho` slots.
    #[must_use]
    pub fn rounds(rho: u32) -> u64 {
        2 * u64::from(rho) + 2
    }

    /// Fresh sampler for `rho` slots at a node of the given degree.
    /// `rng` is the node's private stream; strings are `2⌈log₂ n⌉` bits
    /// wide (ties broken by port order; collisions vanish w.h.p.).
    #[must_use]
    pub fn new(rho: u32, degree: usize, rng: &mut NodeRng) -> Self {
        let _ = rng;
        SamplerCore {
            rho,
            string_mask: 0, // set on first round from ctx
            my_r: 0,
            my_b: 0,
            r_values: vec![0; degree],
            b_values: vec![0; degree],
            best: vec![(u64::MAX, SlotRoute::Unreachable); rho as usize],
            route: HashMap::new(),
            next_slot: 0,
            has_pairs: false,
            direct_need: false,
            demanded: false,
        }
    }

    /// Runs one sampling round (`t` local to the window, `0..rounds(ρ)`).
    /// `stage` receives outgoing messages.
    pub fn round<F: FnMut(Port, SampMsg)>(
        &mut self,
        t: u64,
        ctx: &NodeCtx,
        rng: &mut NodeRng,
        sim: &SimilarityKnowledge,
        received: &[(Port, SampMsg)],
        mut stage: F,
    ) {
        let degree = ctx.degree();
        self.string_mask = (1u64 << (2 * graphs::id_bits(ctx.n)).min(63)) - 1;
        // Fold arrivals first.
        let mut slot_arrived: Option<u32> = None;
        for &(p, ref m) in received {
            match *m {
                SampMsg::Slot { slot, r, b } => {
                    self.r_values[p as usize] = r;
                    self.b_values[p as usize] = b;
                    slot_arrived = Some(slot);
                }
                SampMsg::MinReply { slot, value } => {
                    let s = slot as usize;
                    if value < self.best[s].0 {
                        self.best[s] = (value, SlotRoute::Via(p));
                    }
                }
                SampMsg::Demand => self.demanded = true,
            }
        }
        // Demand round: announce to each port whether I hold a similar
        // pair involving it (see the module docs — this is exactly the
        // condition under which I will read its strings as a relay), and
        // note my own direct-candidate need.
        if t == 0 {
            self.direct_need = sim.h_degree_immediate() > 0;
            for y in 0..degree {
                // The similarity rows are bit matrices: "some similar pair
                // involves port y" is one set-bit probe of row y (the
                // diagonal is always false, so z ≠ y is implicit).
                if sim.h_ports(y as Port).next().is_some() {
                    self.has_pairs = true;
                    stage(y as Port, SampMsg::Demand);
                }
            }
            return;
        }
        // Relay duty: once a slot's strings are in, compute each
        // requester's partial minimum over my eligible ports (and myself).
        // Skipped entirely when this node relays for no similar pair — the
        // scan is O(∆²) per slot and would find nothing.
        if let Some(slot) = slot_arrived.filter(|_| self.has_pairs || self.direct_need) {
            for u in 0..degree {
                let b = self.b_values[u];
                let mut best_val = u64::MAX;
                let mut target = None;
                // Walk the set bits of u's similarity row (ascending, so
                // the strict-minimum winner is identical to the old full
                // port probe; the diagonal is always false).
                for w in sim.h_ports(u as Port) {
                    let val = b ^ self.r_values[w as usize];
                    if val < best_val {
                        best_val = val;
                        target = Some(RelayTarget::Port(w));
                    }
                }
                if sim.h_with_self(u as Port) {
                    let val = b ^ self.my_r;
                    if val < best_val {
                        best_val = val;
                        target = Some(RelayTarget::SelfNode);
                    }
                }
                if let Some(tg) = target {
                    self.route.insert((u as Port, slot), tg);
                    stage(
                        u as Port,
                        SampMsg::MinReply {
                            slot,
                            value: best_val,
                        },
                    );
                }
            }
            // Sampler duty: direct candidates from my immediate H-neighbors.
            let s = slot as usize;
            for w in 0..degree {
                if sim.h_with_self(w as Port) {
                    let val = self.my_b ^ self.r_values[w];
                    if val < self.best[s].0 {
                        self.best[s] = (val, SlotRoute::Direct(w as Port));
                    }
                }
            }
        }
        // Broadcast fresh strings for the next slot (odd rounds) — but
        // only when someone will read them: a neighbor demanded them in
        // round 0, or this node samples its immediate `H`-neighbors
        // directly (whose strings it reads from `r_values`, symmetrically
        // gated by *their* `direct_need`).
        if (self.demanded || self.direct_need) && t % 2 == 1 && t < 2 * u64::from(self.rho) {
            let slot = ((t - 1) / 2) as u32;
            self.my_r = rng.gen::<u64>() & self.string_mask;
            self.my_b = rng.gen::<u64>() & self.string_mask;
            for p in 0..degree as Port {
                stage(
                    p,
                    SampMsg::Slot {
                        slot,
                        r: self.my_r,
                        b: self.my_b,
                    },
                );
            }
        }
    }

    /// The resolved route for `slot` (valid once the window has passed).
    #[must_use]
    pub fn slot_route(&self, slot: u32) -> SlotRoute {
        self.best
            .get(slot as usize)
            .map_or(SlotRoute::Unreachable, |&(_, r)| r)
    }

    /// Consumes the next unused slot, returning `(slot, route)`.
    pub fn take_slot(&mut self) -> Option<(u32, SlotRoute)> {
        while self.next_slot < self.best.len() {
            let s = self.next_slot as u32;
            self.next_slot += 1;
            match self.slot_route(s) {
                SlotRoute::Unreachable => continue,
                r => return Some((s, r)),
            }
        }
        None
    }

    /// Relay lookup for a forwarded query.
    #[must_use]
    pub fn relay_target(&self, from: Port, slot: u32) -> Option<RelayTarget> {
        self.route.get(&(from, slot)).copied()
    }

    /// Number of slots that resolved to a reachable `H`-neighbor.
    #[must_use]
    pub fn resolved_slots(&self) -> usize {
        self.best
            .iter()
            .filter(|(_, r)| !matches!(r, SlotRoute::Unreachable))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::similarity::ExactSimilarity;
    use congest::{Inbox, Outbox, Protocol, SimConfig, Status};

    /// Standalone protocol wrapper for testing: first builds exact
    /// similarity knowledge centrally, then runs the sampling window.
    struct SamplerHarness {
        rho: u32,
        sim: Vec<SimilarityKnowledge>,
    }

    struct HarnessState {
        sampler: SamplerCore,
    }

    impl Protocol for SamplerHarness {
        type State = HarnessState;
        type Msg = SampMsg;

        fn init(&self, ctx: &congest::NodeCtx, rng: &mut congest::NodeRng) -> HarnessState {
            HarnessState {
                sampler: SamplerCore::new(self.rho, ctx.degree(), rng),
            }
        }

        fn round(
            &self,
            st: &mut HarnessState,
            ctx: &congest::NodeCtx,
            rng: &mut congest::NodeRng,
            inbox: &Inbox<SampMsg>,
            out: &mut Outbox<SampMsg>,
        ) -> Status {
            st.sampler.round(
                ctx.round,
                ctx,
                rng,
                &self.sim[ctx.index as usize],
                inbox.as_slice(),
                |p, m| out.send(p, m),
            );
            if ctx.round + 1 >= SamplerCore::rounds(self.rho) {
                Status::Done
            } else {
                Status::Running
            }
        }
    }

    fn exact_sim(g: &graphs::Graph, cfg: &SimConfig) -> Vec<SimilarityKnowledge> {
        let proto = ExactSimilarity::new(cfg.bandwidth_bits(g.n()));
        congest::run(g, &proto, cfg)
            .unwrap()
            .states
            .into_iter()
            .map(|s| s.knowledge)
            .collect()
    }

    /// On a star, the square is a clique: every node has H-neighbors and
    /// every slot must resolve.
    #[test]
    fn all_slots_resolve_on_star() {
        let g = graphs::gen::star(7);
        let cfg = SimConfig::seeded(3);
        let sim = exact_sim(&g, &cfg);
        let proto = SamplerHarness { rho: 20, sim };
        let res = congest::run(&g, &proto, &cfg).unwrap();
        for st in &res.states {
            assert_eq!(st.sampler.resolved_slots(), 20);
        }
        assert_eq!(res.metrics.rounds, SamplerCore::rounds(20));
        assert!(res.metrics.is_congest_compliant());
    }

    /// Samples on a clique are near-uniform over the n−1 H-neighbors:
    /// resolve each route to a concrete node and chi-square-ish check.
    #[test]
    fn samples_are_near_uniform_on_clique() {
        let g = graphs::gen::clique(9);
        let cfg = SimConfig::seeded(11);
        let sim = exact_sim(&g, &cfg);
        let rho = 400;
        let proto = SamplerHarness { rho, sim };
        let res = congest::run(&g, &proto, &cfg).unwrap();
        // Node 0's samples, resolved to neighbor indices.
        let st = &res.states[0];
        let mut counts = vec![0u32; g.n()];
        for s in 0..rho {
            match st.sampler.slot_route(s) {
                SlotRoute::Direct(p) => {
                    counts[g.neighbors(0)[p as usize] as usize] += 1;
                }
                SlotRoute::Via(p) => {
                    // Peek the relay's table (test-side only).
                    let relay = g.neighbors(0)[p as usize];
                    let back = g.neighbors(relay).binary_search(&0).unwrap() as Port;
                    match res.states[relay as usize].sampler.relay_target(back, s) {
                        Some(RelayTarget::Port(q)) => {
                            counts[g.neighbors(relay)[q as usize] as usize] += 1;
                        }
                        Some(RelayTarget::SelfNode) => counts[relay as usize] += 1,
                        None => panic!("via-route without relay entry"),
                    }
                }
                SlotRoute::Unreachable => panic!("clique slot unresolved"),
            }
        }
        assert_eq!(counts[0], 0, "never samples itself");
        let expected = f64::from(rho) / 8.0;
        for (v, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (f64::from(c) - expected).abs() < 5.0 * expected.sqrt() + 5.0,
                "node {v} sampled {c} times, expected ≈ {expected}"
            );
        }
    }

    /// A path has no H-neighbors under the 2/3 threshold (tiny overlaps):
    /// slots stay unreachable, nothing crashes.
    #[test]
    fn unreachable_slots_on_sparse_graph() {
        let g = graphs::gen::path(8);
        let cfg = SimConfig::seeded(2);
        let sim = exact_sim(&g, &cfg);
        let proto = SamplerHarness { rho: 5, sim };
        let res = congest::run(&g, &proto, &cfg).unwrap();
        let mut st0 = res.states.into_iter().next().unwrap();
        // take_slot skips unreachable slots gracefully.
        let _ = st0.sampler.take_slot();
    }
}
