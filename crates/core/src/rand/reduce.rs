//! `Reduce(φ, τ)` and the `Reduce-Phase` query protocol (§2.2, §2.5).
//!
//! Colored nodes "help" live nodes find colors — *Coloring With a Little
//! Help From My Friends*. One `Reduce-Phase` is a fixed 15-round pipeline;
//! the roles and steps map to the paper's 6-step description as follows
//! (sub-round = round within the phase):
//!
//! | sub | role | paper step | action |
//! |-----|------|-----------|--------|
//! | 0 | `v` (active live) | 1 | broadcast `StartQuery` |
//! | 1 | `u'` (relay) | 1 | pick one `v`; forward `Query{v}` to each `Ĥ(v)`-port w.p. `1/(q·φ)` |
//! | 2 | `u` (helper) | 2+3 | keep one query; broadcast `Probe{v, ĉ}` (ĉ random ≠ own color) |
//! | 3 | all | 2+3 | answer probes: 2-path count bit + "ĉ used among `u`'s `H`-neighbors" bit |
//! | 4 | `u` | 2,3,4 | if single 2-path: propose ĉ (if free) back toward `v`; forward the query along the next sampled `R_u` slot |
//! | 5 | `u'`, `u''` | 4 | relay proposal to `v`; route `ForwardQuery` to the sampled `w` |
//! | 6 | `w` | 5 | keep one; broadcast `CheckD2{v}` |
//! | 7 | all | 5 | answer adjacency checks |
//! | 8 | `w` | 5 | if `v` is *not* a d2-neighbor and `w` is colored: send `ColorOffer{c(w)}` back |
//! | 9–11 | relays | 5 | offer travels `w → u'' → u → u' → v` |
//! | 12–14 | `v` | 6 | pick one proposed color uniformly; verified trial handshake |
//!
//! Queries are culled exactly as the paper prescribes: every node keeps
//! one query per step and drops the rest; drops only cost progress, never
//! validity (adoption is always a verified trial). The phase is preceded
//! by the `R_u` sampling window of Lemma 2.3 ([`SamplerCore`]).

use super::sampling::{RelayTarget, SampMsg, SamplerCore, SlotRoute};
use super::similarity::SimilarityKnowledge;
use crate::{Params, TrialCore, TrialMsg, UNCOLORED};
use congest::netplane::{Reader, Wire, WireError};
use congest::{BitCost, Inbox, Message, NodeCtx, NodeRng, Outbox, Port, Protocol, Status, Wake};
use rand::prelude::*;

/// Messages of the `Reduce` protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ReduceMsg {
    /// Sampling sub-protocol message.
    Samp(SampMsg),
    /// Step 1: a live node opens a phase.
    StartQuery,
    /// Step 1: relayed query carrying the live node's identifier.
    Query {
        /// Identifier of the querying live node.
        v: u64,
    },
    /// Steps 2+3 combined probe: 2-path verification + color check.
    Probe {
        /// The querying node (for adjacency counting).
        v: u64,
        /// Candidate color `ĉ`.
        color: u32,
    },
    /// Probe answer.
    ProbeAck {
        /// "I am adjacent to `v`."
        adj_v: bool,
        /// "`ĉ` is used by one of my neighbors that is `H`-adjacent to
        /// you (or by me, if I am)."
        color_used: bool,
    },
    /// Step 4: query forwarded toward the sampled `R_u` entry.
    ForwardQuery {
        /// The querying node.
        v: u64,
        /// Sampling slot (the relay's routing key).
        slot: u32,
    },
    /// Step 4→5: last hop of the forwarded query.
    RelayQuery {
        /// The querying node.
        v: u64,
    },
    /// Step 5: `w` checks whether `v` is a d2-neighbor.
    CheckD2 {
        /// The querying node.
        v: u64,
    },
    /// Adjacency answer for `CheckD2`.
    AdjAck(bool),
    /// Step 3 proposal traveling back toward `v`.
    Proposal(u32),
    /// Step 5 color offer traveling back toward `v`.
    ColorOffer(u32),
    /// Step 6 trial handshake.
    Trial(TrialMsg),
    /// Two messages sharing one edge in one round (total size budgeted).
    Both(Box<ReduceMsg>, Box<ReduceMsg>),
}

impl Message for ReduceMsg {
    fn bits(&self) -> u64 {
        let tag = BitCost::tag(13);
        match self {
            ReduceMsg::Samp(s) => tag + s.bits(),
            ReduceMsg::StartQuery => tag,
            ReduceMsg::Query { v } | ReduceMsg::RelayQuery { v } | ReduceMsg::CheckD2 { v } => {
                tag + BitCost::uint(*v)
            }
            ReduceMsg::Probe { v, color } => {
                tag + BitCost::uint(*v) + BitCost::uint(u64::from(*color))
            }
            ReduceMsg::ProbeAck { .. } => tag + 2,
            ReduceMsg::ForwardQuery { v, slot } => {
                tag + BitCost::uint(*v) + BitCost::uint(u64::from(*slot))
            }
            ReduceMsg::AdjAck(_) => tag + 1,
            ReduceMsg::Proposal(c) | ReduceMsg::ColorOffer(c) => tag + BitCost::uint(u64::from(*c)),
            ReduceMsg::Trial(t) => tag + t.bits(),
            ReduceMsg::Both(a, b) => a.bits() + b.bits(),
        }
    }
}

impl Wire for ReduceMsg {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            ReduceMsg::Samp(s) => {
                buf.push(0);
                s.put(buf);
            }
            ReduceMsg::StartQuery => buf.push(1),
            ReduceMsg::Query { v } => {
                buf.push(2);
                v.put(buf);
            }
            ReduceMsg::Probe { v, color } => {
                buf.push(3);
                v.put(buf);
                color.put(buf);
            }
            ReduceMsg::ProbeAck { adj_v, color_used } => {
                buf.push(4);
                adj_v.put(buf);
                color_used.put(buf);
            }
            ReduceMsg::ForwardQuery { v, slot } => {
                buf.push(5);
                v.put(buf);
                slot.put(buf);
            }
            ReduceMsg::RelayQuery { v } => {
                buf.push(6);
                v.put(buf);
            }
            ReduceMsg::CheckD2 { v } => {
                buf.push(7);
                v.put(buf);
            }
            ReduceMsg::AdjAck(yes) => {
                buf.push(8);
                yes.put(buf);
            }
            ReduceMsg::Proposal(c) => {
                buf.push(9);
                c.put(buf);
            }
            ReduceMsg::ColorOffer(c) => {
                buf.push(10);
                c.put(buf);
            }
            ReduceMsg::Trial(t) => {
                buf.push(11);
                t.put(buf);
            }
            ReduceMsg::Both(a, b) => {
                buf.push(12);
                a.put(buf);
                b.put(buf);
            }
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::take(r)? {
            0 => ReduceMsg::Samp(SampMsg::take(r)?),
            1 => ReduceMsg::StartQuery,
            2 => ReduceMsg::Query { v: u64::take(r)? },
            3 => ReduceMsg::Probe {
                v: u64::take(r)?,
                color: u32::take(r)?,
            },
            4 => ReduceMsg::ProbeAck {
                adj_v: bool::take(r)?,
                color_used: bool::take(r)?,
            },
            5 => ReduceMsg::ForwardQuery {
                v: u64::take(r)?,
                slot: u32::take(r)?,
            },
            6 => ReduceMsg::RelayQuery { v: u64::take(r)? },
            7 => ReduceMsg::CheckD2 { v: u64::take(r)? },
            8 => ReduceMsg::AdjAck(bool::take(r)?),
            9 => ReduceMsg::Proposal(u32::take(r)?),
            10 => ReduceMsg::ColorOffer(u32::take(r)?),
            11 => ReduceMsg::Trial(TrialMsg::take(r)?),
            12 => ReduceMsg::Both(Box::new(ReduceMsg::take(r)?), Box::new(ReduceMsg::take(r)?)),
            tag => {
                return Err(WireError::BadTag {
                    what: "ReduceMsg",
                    tag,
                })
            }
        })
    }
}

/// Per-phase role bookkeeping (cleared at sub-round 0).
#[derive(Debug, Clone, Default)]
struct Flow {
    /// As `u'`: the chosen querier's port.
    uprime_v: Option<Port>,
    /// As `u`: `(v_ident, back port, candidate color)`.
    u: Option<(u64, Port, u32)>,
    /// As `u`: probe tallies `(adjacent count, color used)`.
    u_adj_count: u32,
    u_color_used: bool,
    /// As `u`: pending direct forward `(v, w port)` to fire at sub 5.
    u_direct: Option<(u64, Port)>,
    /// As `u''`: back port for the offer return.
    u2_back: Option<Port>,
    /// As `u''` resolving to self: act as `w` at sub 6.
    self_query: Option<(u64, Port)>,
    /// As `w`: `(v_ident, from port, adjacent so far)`.
    w: Option<(u64, Port, bool)>,
    /// As `u`: offer awaiting relay at sub 10.
    u_offer: Option<u32>,
    /// As `v`: colors proposed this phase.
    proposals: Vec<u32>,
}

impl Flow {
    /// Clears the phase bookkeeping in place, keeping the proposal
    /// buffer's capacity (a fresh `Flow::default()` per phase would
    /// re-allocate it every time a proposal arrives).
    fn reset(&mut self) {
        self.uprime_v = None;
        self.u = None;
        self.u_adj_count = 0;
        self.u_color_used = false;
        self.u_direct = None;
        self.u2_back = None;
        self.self_query = None;
        self.w = None;
        self.u_offer = None;
        self.proposals.clear();
    }

    /// Whether no role bookkeeping is pending (the adj-count/color-used
    /// tallies only matter while `u` is set).
    fn is_empty(&self) -> bool {
        self.uprime_v.is_none()
            && self.u.is_none()
            && self.u_direct.is_none()
            && self.u2_back.is_none()
            && self.self_query.is_none()
            && self.w.is_none()
            && self.u_offer.is_none()
            && self.proposals.is_empty()
    }
}

/// Uniform choice from an iterator by reservoir sampling — the
/// allocation-free replacement for `collect::<Vec<_>>().choose(rng)` on
/// the per-round candidate sets.
fn choose_iter<T, I: Iterator<Item = T>>(rng: &mut NodeRng, iter: I) -> Option<T> {
    let mut chosen = None;
    for (i, item) in iter.enumerate() {
        // Draw from the exclusive range 0..i+1 (not `0..=i`: the range
        // type changes the sampling path and the recorded benchmark
        // trajectories are pinned to this exact draw sequence).
        #[allow(clippy::range_plus_one)]
        if rng.gen_range(0..i + 1) == 0 {
            chosen = Some(item);
        }
    }
    chosen
}

/// The `Reduce(φ, τ)` protocol.
#[derive(Debug)]
pub struct Reduce {
    /// Leeway precondition `φ`.
    pub phi: f64,
    /// Leeway postcondition target `τ`.
    pub tau: f64,
    /// Number of phases `ρ = c₃ (φ/τ)² log n` (capped).
    pub rho: u32,
    /// Palette size (`∆² + 1`).
    pub palette: u32,
    act_p: f64,
    query_p: f64,
    knowledge: Vec<(u32, Vec<u32>)>,
    sim: std::sync::Arc<Vec<SimilarityKnowledge>>,
}

/// Per-node state.
#[derive(Debug, Clone)]
pub struct ReduceState {
    /// Trial machinery (color + neighbor colors).
    pub trial: TrialCore,
    sampler: SamplerCore,
    flow: Flow,
    active: bool,
    /// Number of phases in which this node received ≥ 1 proposal.
    pub phases_with_proposals: u32,
    /// Number of trials attempted.
    pub trials: u32,
    /// Reusable per-round scratch (unpacked inbox, trial sub-slices,
    /// sampler sub-slice, staged intents) — allocated once at `init`.
    inbox_buf: Vec<(Port, ReduceMsg)>,
    tries_buf: Vec<(Port, TrialMsg)>,
    verdicts_buf: Vec<(Port, TrialMsg)>,
    samp_buf: Vec<(Port, SampMsg)>,
    intents: Intents,
}

impl Reduce {
    /// Phase period in rounds.
    pub const PERIOD: u64 = 15;

    /// Builds `Reduce(φ, τ)` from phase inputs. The similarity
    /// knowledge is `Arc`-shared: the driver's cascade runs several
    /// `Reduce` phases over the same (immutable) similarity graphs, and
    /// at `n = 10⁵⁺` cloning the per-node knowledge per phase was pure
    /// allocator traffic.
    #[must_use]
    pub fn new(
        params: &Params,
        n: usize,
        palette: u32,
        phi: f64,
        tau: f64,
        knowledge: Vec<(u32, Vec<u32>)>,
        sim: std::sync::Arc<Vec<SimilarityKnowledge>>,
    ) -> Self {
        let rho = u32::try_from(params.rho(phi, tau, n)).unwrap_or(u32::MAX);
        let act_p = (tau / (params.act_denom * phi)).clamp(0.0, 1.0);
        let query_p = (1.0 / (params.query_denom * phi)).clamp(0.0, 1.0);
        Reduce {
            phi,
            tau,
            rho,
            palette,
            act_p,
            query_p,
            knowledge,
            sim,
        }
    }

    /// Total rounds: sampling window + `ρ` phases + announce flush.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        SamplerCore::rounds(self.rho) + u64::from(self.rho) * Self::PERIOD + 2
    }
}

/// Splits an inbox into `buf`, unpacking `Both` pairs. The buffer lives in
/// the node state and is reused every round, so a steady-state round costs
/// no allocation (`Both` sub-messages never nest, so their clones are
/// heap-free).
fn unpack_into(inbox: &Inbox<ReduceMsg>, buf: &mut Vec<(Port, ReduceMsg)>) {
    buf.clear();
    for (p, m) in inbox.iter() {
        match m {
            ReduceMsg::Both(a, b) => {
                buf.push((*p, (**a).clone()));
                buf.push((*p, (**b).clone()));
            }
            other => buf.push((*p, other.clone())),
        }
    }
}

/// Intent buffer: collects per-port sends, merging up to two into `Both`
/// and randomly dropping beyond that (the paper's culling discipline).
/// One per node, allocated at `init` and recycled every round.
#[derive(Debug, Clone)]
struct Intents {
    by_port: Vec<Vec<ReduceMsg>>,
}

impl Intents {
    fn new(degree: usize) -> Self {
        Intents {
            by_port: vec![Vec::new(); degree],
        }
    }

    fn stage(&mut self, port: Port, msg: ReduceMsg) {
        self.by_port[port as usize].push(msg);
    }

    fn flush(&mut self, rng: &mut NodeRng, out: &mut Outbox<ReduceMsg>) {
        for (p, msgs) in self.by_port.iter_mut().enumerate() {
            match msgs.len() {
                0 => {}
                1 => out.send(p as Port, msgs.pop().expect("len 1")),
                _ => {
                    msgs.shuffle(rng);
                    let a = msgs.pop().expect("len ≥ 2");
                    let b = msgs.pop().expect("len ≥ 2");
                    out.send(p as Port, ReduceMsg::Both(Box::new(a), Box::new(b)));
                }
            }
            msgs.clear();
        }
    }
}

impl Protocol for Reduce {
    type State = ReduceState;
    type Msg = ReduceMsg;

    fn init(&self, ctx: &NodeCtx, rng: &mut NodeRng) -> ReduceState {
        let (color, nbr) = self.knowledge[ctx.index as usize].clone();
        ReduceState {
            trial: TrialCore::resume(color, nbr),
            sampler: SamplerCore::new(self.rho, ctx.degree(), rng),
            flow: Flow::default(),
            active: false,
            phases_with_proposals: 0,
            trials: 0,
            inbox_buf: Vec::new(),
            tries_buf: Vec::new(),
            verdicts_buf: Vec::new(),
            samp_buf: Vec::new(),
            intents: Intents::new(ctx.degree()),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn round(
        &self,
        st: &mut ReduceState,
        ctx: &NodeCtx,
        rng: &mut NodeRng,
        inbox: &Inbox<ReduceMsg>,
        out: &mut Outbox<ReduceMsg>,
    ) -> Status {
        let v_idx = ctx.index as usize;
        let sim = &self.sim[v_idx];
        let degree = ctx.degree();
        let samp_window = SamplerCore::rounds(self.rho);
        // Settled fast path: a colored node with an empty inbox, nothing
        // pending, and the sampling window behind it has no role to play
        // this round — every helper/relay duty is triggered by arrivals.
        // Vacuous phases (no live nodes anywhere near) then cost a few
        // comparisons per node instead of the full sub-round machinery,
        // and the node's RNG stream is untouched (the full path draws no
        // coins for settled nodes either).
        if inbox.is_empty()
            && ctx.round >= samp_window
            && !st.trial.is_live()
            && !st.trial.has_pending_announce()
            && st.flow.is_empty()
        {
            let phases_end = samp_window + u64::from(self.rho) * Self::PERIOD;
            return if ctx.round > phases_end {
                Status::Done
            } else {
                Status::Running
            };
        }
        unpack_into(inbox, &mut st.inbox_buf);
        // Trial announcements fold in whenever they arrive.
        st.tries_buf.clear();
        st.verdicts_buf.clear();
        for (p, m) in &st.inbox_buf {
            if let ReduceMsg::Trial(t) = m {
                match t {
                    TrialMsg::Announce(c) => st.trial.note_announce(*p, *c),
                    TrialMsg::Try(_) => st.tries_buf.push((*p, t.clone())),
                    TrialMsg::Verdict(_) => st.verdicts_buf.push((*p, t.clone())),
                }
            }
        }

        let samp_rounds = SamplerCore::rounds(self.rho);
        if ctx.round < samp_rounds {
            st.samp_buf.clear();
            for (p, m) in &st.inbox_buf {
                if let ReduceMsg::Samp(s) = m {
                    st.samp_buf.push((*p, s.clone()));
                }
            }
            st.sampler
                .round(ctx.round, ctx, rng, sim, &st.samp_buf, |p, m| {
                    out.send(p, ReduceMsg::Samp(m));
                });
            return Status::Running;
        }

        let t = ctx.round - samp_rounds;
        let phase = t / Self::PERIOD;
        if phase >= u64::from(self.rho) {
            // Tail: flush the last adoption announcement, then stop.
            let tail = t - u64::from(self.rho) * Self::PERIOD;
            if tail == 0 {
                st.trial
                    .begin_cycle(degree, None, |p, m| out.send(p, ReduceMsg::Trial(m)));
                return Status::Running;
            }
            return Status::Done;
        }

        match t % Self::PERIOD {
            0 => {
                st.flow.reset();
                st.active = st.trial.is_live() && rng.gen_bool(self.act_p);
                if st.active {
                    for p in 0..degree as Port {
                        st.intents.stage(p, ReduceMsg::StartQuery);
                    }
                }
            }
            1 => {
                // u': adopt one querier, spray coin-gated queries to
                // Ĥ-similar ports.
                let starter = choose_iter(
                    rng,
                    st.inbox_buf
                        .iter()
                        .filter(|(_, m)| matches!(m, ReduceMsg::StartQuery))
                        .map(|&(p, _)| p),
                );
                if let Some(vp) = starter {
                    st.flow.uprime_v = Some(vp);
                    let vid = ctx.neighbor_idents()[vp as usize];
                    for q in 0..degree as Port {
                        if q != vp && sim.hhat_between_ports(vp, q) && rng.gen_bool(self.query_p) {
                            st.intents.stage(q, ReduceMsg::Query { v: vid });
                        }
                    }
                }
            }
            2 => {
                let query = choose_iter(
                    rng,
                    st.inbox_buf.iter().filter_map(|(p, m)| match m {
                        ReduceMsg::Query { v } => Some((*p, *v)),
                        _ => None,
                    }),
                );
                if let Some((back, vid)) = query {
                    // ĉ random, different from own color.
                    let my = st.trial.color();
                    let cand = loop {
                        let c = rng.gen_range(0..self.palette);
                        if c != my {
                            break c;
                        }
                    };
                    st.flow.u = Some((vid, back, cand));
                    for p in 0..degree as Port {
                        st.intents.stage(
                            p,
                            ReduceMsg::Probe {
                                v: vid,
                                color: cand,
                            },
                        );
                    }
                }
            }
            3 => {
                // Answer every probe (one per port at most).
                for (p, m) in &st.inbox_buf {
                    if let ReduceMsg::Probe { v, color } = m {
                        let adj_v = ctx.neighbor_idents().contains(v);
                        let mut used = sim.h_with_self(*p) && st.trial.color() == *color;
                        for q in 0..degree {
                            if q != *p as usize
                                && sim.h_between_ports(*p, q as Port)
                                && st.trial.nbr_colors()[q] == *color
                            {
                                used = true;
                            }
                        }
                        st.intents.stage(
                            *p,
                            ReduceMsg::ProbeAck {
                                adj_v,
                                color_used: used,
                            },
                        );
                    }
                }
            }
            4 => {
                for (_, m) in &st.inbox_buf {
                    if let ReduceMsg::ProbeAck { adj_v, color_used } = m {
                        st.flow.u_adj_count += u32::from(*adj_v);
                        st.flow.u_color_used |= color_used;
                    }
                }
                if let Some((vid, back, cand)) = st.flow.u {
                    if st.flow.u_adj_count == 1 {
                        if !st.flow.u_color_used {
                            st.intents.stage(back, ReduceMsg::Proposal(cand));
                        }
                        match st.sampler.take_slot() {
                            Some((slot, SlotRoute::Via(p))) => {
                                st.intents
                                    .stage(p, ReduceMsg::ForwardQuery { v: vid, slot });
                            }
                            Some((_, SlotRoute::Direct(p))) => {
                                st.flow.u_direct = Some((vid, p));
                            }
                            _ => {}
                        }
                    } else {
                        // Multiple (or zero) 2-paths: drop (paper step 2).
                        st.flow.u = None;
                    }
                }
            }
            5 => {
                // u' relays one proposal toward its querier.
                if let Some(vp) = st.flow.uprime_v {
                    let prop = choose_iter(
                        rng,
                        st.inbox_buf.iter().filter_map(|(_, m)| match m {
                            ReduceMsg::Proposal(c) => Some(*c),
                            _ => None,
                        }),
                    );
                    if let Some(c) = prop {
                        st.intents.stage(vp, ReduceMsg::Proposal(c));
                    }
                }
                // u'' routes one forwarded query to its recorded target.
                let fwd = choose_iter(
                    rng,
                    st.inbox_buf.iter().filter_map(|(p, m)| match m {
                        ReduceMsg::ForwardQuery { v, slot } => Some((*p, *v, *slot)),
                        _ => None,
                    }),
                );
                if let Some((from, vid, slot)) = fwd {
                    match st.sampler.relay_target(from, slot) {
                        Some(RelayTarget::Port(w)) => {
                            st.flow.u2_back = Some(from);
                            st.intents.stage(w, ReduceMsg::RelayQuery { v: vid });
                        }
                        Some(RelayTarget::SelfNode) => {
                            st.flow.self_query = Some((vid, from));
                        }
                        None => {}
                    }
                }
                // u fires a pending direct forward.
                if let Some((vid, wp)) = st.flow.u_direct.take() {
                    st.intents.stage(wp, ReduceMsg::RelayQuery { v: vid });
                }
            }
            6 => {
                let self_query = st.flow.self_query.take();
                let relayed = choose_iter(
                    rng,
                    st.inbox_buf
                        .iter()
                        .filter_map(|(p, m)| match m {
                            ReduceMsg::RelayQuery { v } => Some((*v, *p)),
                            _ => None,
                        })
                        .chain(self_query),
                );
                if let Some((vid, from)) = relayed {
                    let adj = ctx.neighbor_idents().contains(&vid) || ctx.ident == vid;
                    st.flow.w = Some((vid, from, adj));
                    for p in 0..degree as Port {
                        st.intents.stage(p, ReduceMsg::CheckD2 { v: vid });
                    }
                }
                // v buffers step-3 proposals arriving now.
                for (_, m) in &st.inbox_buf {
                    if let ReduceMsg::Proposal(c) = m {
                        st.flow.proposals.push(*c);
                    }
                }
            }
            7 => {
                for (p, m) in &st.inbox_buf {
                    if let ReduceMsg::CheckD2 { v } = m {
                        st.intents
                            .stage(*p, ReduceMsg::AdjAck(ctx.neighbor_idents().contains(v)));
                    }
                }
            }
            8 => {
                if let Some((_, from, mut adj)) = st.flow.w.take() {
                    for (_, m) in &st.inbox_buf {
                        if let ReduceMsg::AdjAck(a) = m {
                            adj |= a;
                        }
                    }
                    if !adj && !st.trial.is_live() {
                        st.intents
                            .stage(from, ReduceMsg::ColorOffer(st.trial.color()));
                    }
                }
            }
            9 => {
                // u'' relays the offer back; direct-case u holds it.
                for (_, m) in &st.inbox_buf {
                    if let ReduceMsg::ColorOffer(c) = m {
                        if let Some(back) = st.flow.u2_back {
                            st.intents.stage(back, ReduceMsg::ColorOffer(*c));
                        } else {
                            st.flow.u_offer = Some(*c);
                        }
                    }
                }
            }
            10 => {
                for (_, m) in &st.inbox_buf {
                    if let ReduceMsg::ColorOffer(c) = m {
                        st.flow.u_offer = Some(*c);
                    }
                }
                if let (Some(c), Some((_, back, _))) = (st.flow.u_offer.take(), st.flow.u) {
                    st.intents.stage(back, ReduceMsg::ColorOffer(c));
                }
            }
            11 => {
                if let Some(vp) = st.flow.uprime_v {
                    let offer = choose_iter(
                        rng,
                        st.inbox_buf.iter().filter_map(|(_, m)| match m {
                            ReduceMsg::ColorOffer(c) => Some(*c),
                            _ => None,
                        }),
                    );
                    if let Some(c) = offer {
                        st.intents.stage(vp, ReduceMsg::ColorOffer(c));
                    }
                }
            }
            12 => {
                for (_, m) in &st.inbox_buf {
                    if let ReduceMsg::ColorOffer(c) = m {
                        st.flow.proposals.push(*c);
                    }
                }
                let try_color = if st.active && st.trial.is_live() {
                    let picked = st.flow.proposals.choose(rng).copied();
                    if !st.flow.proposals.is_empty() {
                        st.phases_with_proposals += 1;
                    }
                    picked
                } else {
                    None
                };
                if try_color.is_some() {
                    st.trials += 1;
                }
                let intents = &mut st.intents;
                st.trial.begin_cycle(degree, try_color, |p, m| {
                    intents.stage(p, ReduceMsg::Trial(m))
                });
            }
            13 => {
                let intents = &mut st.intents;
                st.trial
                    .verdict_round(&st.tries_buf, |p, m| intents.stage(p, ReduceMsg::Trial(m)));
            }
            _ => {
                let _ = st.trial.resolve(degree, &st.verdicts_buf);
            }
        }
        st.intents.flush(rng, out);
        Status::Running
    }

    fn next_wake(&self, st: &ReduceState, ctx: &NodeCtx, status: Status) -> Wake {
        if status == Status::Done {
            return Wake::Message;
        }
        let samp_window = SamplerCore::rounds(self.rho);
        // Park exactly the settled fast-path set (minus the empty-inbox
        // condition, which parking subsumes): for those nodes an unwoken
        // round and a stepped round are literally the same no-op. Every
        // helper/relay duty is message-triggered, and the first possible
        // `Done` vote — everyone's — is the round after the tail flush.
        if ctx.round >= samp_window
            && !st.trial.is_live()
            && !st.trial.has_pending_announce()
            && st.flow.is_empty()
        {
            let phases_end = samp_window + u64::from(self.rho) * Self::PERIOD;
            return Wake::At(phases_end + 1);
        }
        Wake::Next
    }
}

/// Colors only.
#[must_use]
pub fn colors(states: &[ReduceState]) -> Vec<u32> {
    states.iter().map(|s| s.trial.color()).collect()
}

/// Number of live nodes remaining.
#[must_use]
pub fn live_count(states: &[ReduceState]) -> usize {
    states
        .iter()
        .filter(|s| s.trial.color() == UNCOLORED)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::similarity::ExactSimilarity;
    use crate::rand::trials::{self, RandomTrials};
    use congest::SimConfig;
    use graphs::{gen, verify};

    type Setup = (
        Vec<(u32, Vec<u32>)>,
        std::sync::Arc<Vec<SimilarityKnowledge>>,
    );

    fn setup(g: &graphs::Graph, cfg: &SimConfig, warmup_cycles: u64) -> Setup {
        let d = g.max_degree();
        let palette = ((d * d).min(g.n() - 1) + 1) as u32;
        let warm = RandomTrials::new(palette, warmup_cycles);
        let wstates = congest::run(g, &warm, cfg).unwrap().states;
        let sim_proto = ExactSimilarity::new(cfg.bandwidth_bits(g.n()));
        let sim = congest::run(g, &sim_proto, cfg)
            .unwrap()
            .states
            .into_iter()
            .map(|s| s.knowledge)
            .collect();
        (trials::knowledge(&wstates), std::sync::Arc::new(sim))
    }

    /// The dense showcase: a star's square is a clique, similarity graphs
    /// are complete, and Reduce must color the stragglers the initial
    /// phase left behind.
    #[test]
    fn reduce_makes_progress_on_dense_graph() {
        let g = gen::star(14);
        let cfg = SimConfig::seeded(7);
        let d = g.max_degree();
        let palette = ((d * d).min(g.n() - 1) + 1) as u32;
        let (knowledge_in, sim) = setup(&g, &cfg, 2);
        let live_before = knowledge_in.iter().filter(|(c, _)| *c == UNCOLORED).count();
        let mut params = Params::practical();
        params.rho_cap = 60;
        let phi = g.n() as f64; // generous leeway bound for the test
        let proto = Reduce::new(&params, g.n(), palette, phi, phi / 2.0, knowledge_in, sim);
        let res = congest::run(&g, &proto, &cfg.clone().with_max_rounds(200_000)).unwrap();
        let cols = colors(&res.states);
        assert!(
            verify::first_d2_violation(&g, &cols).is_none(),
            "validity is unconditional"
        );
        let live_after = live_count(&res.states);
        assert!(
            live_after <= live_before,
            "reduce must not lose colored nodes: {live_before} -> {live_after}"
        );
        assert_eq!(res.metrics.rounds, proto.total_rounds());
        assert!(res.metrics.is_congest_compliant());
    }

    /// Helpers propose colors: on a clique-of-cliques, phases with
    /// proposals should be observed for live nodes.
    #[test]
    fn proposals_flow_on_clique_ring() {
        let g = gen::clique_ring(3, 8);
        let cfg = SimConfig::seeded(21);
        let (knowledge_in, sim) = setup(&g, &cfg, 1);
        let mut params = Params::practical();
        params.rho_cap = 40;
        params.act_denom = 1.0; // always active, for signal
        params.query_denom = 0.25;
        let d = g.max_degree();
        let palette = ((d * d).min(g.n() - 1) + 1) as u32;
        let phi = 8.0;
        let proto = Reduce::new(&params, g.n(), palette, phi, 4.0, knowledge_in, sim);
        let res = congest::run(&g, &proto, &cfg.clone().with_max_rounds(200_000)).unwrap();
        let total_proposal_phases: u32 = res.states.iter().map(|s| s.phases_with_proposals).sum();
        let cols = colors(&res.states);
        assert!(verify::first_d2_violation(&g, &cols).is_none());
        // At least some proposals must have flowed somewhere.
        assert!(
            total_proposal_phases > 0,
            "no proposals delivered in {} phases",
            proto.rho
        );
    }

    /// Validity is preserved even with aggressive probabilities and a
    /// graph where similarity filters drop almost everything.
    #[test]
    fn reduce_never_breaks_validity_on_sparse_graph() {
        let g = gen::grid(6, 6);
        let cfg = SimConfig::seeded(3);
        let (knowledge_in, sim) = setup(&g, &cfg, 3);
        let mut params = Params::practical();
        params.rho_cap = 20;
        let d = g.max_degree();
        let palette = ((d * d).min(g.n() - 1) + 1) as u32;
        let proto = Reduce::new(&params, g.n(), palette, 10.0, 5.0, knowledge_in, sim);
        let res = congest::run(&g, &proto, &cfg.clone().with_max_rounds(100_000)).unwrap();
        let cols = colors(&res.states);
        assert!(verify::first_d2_violation(&g, &cols).is_none());
    }
}
