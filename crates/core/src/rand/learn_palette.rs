//! `LearnPalette` (§2.6): live nodes learn their exact remaining palette.
//!
//! A single live node cannot gather the `∆²` colors of its d2-neighborhood
//! through `O(log n)`-bit pipes; instead the *complement* is assembled
//! cooperatively:
//!
//! 1. every node learns the identifiers of its **live** d2-neighbors by a
//!    one-hop announce + relayed lists (paper step 2);
//! 2. each live `v` appoints a **handler** per color block `Bᵢ`
//!    (`Z = ∆` blocks) among its `H`-neighbors (steps 3–4); handlers
//!    *inform* a spray of random d2-neighbors that they handle `(v, i)`;
//! 3. every **colored** node gossips its color along random 2-paths, once
//!    per live d2-neighbor; a gossip copy landing on an informed node is
//!    relayed to the handler (step 5, meet-in-the-middle);
//! 4. handlers report the colors *missing* from their block
//!    (`T_vⁱ = Bᵢ \ Cᵢ`, step 6);
//! 5. `v` cross-checks the union `T_v` with its immediate neighbors, who
//!    filter out every color actually used at distance ≤ 2 from `v`
//!    (step 7) — making the final `T'_v` **exactly** the free palette,
//!    regardless of how much gossip was dropped. Gossip quality only
//!    determines `|T_v|`, i.e. speed (Lemma 2.15: `O(log n)` w.h.p.).
//!
//! Substitution: handlers are chosen round-robin among `v`'s *immediate*
//! `H`-neighbors instead of uniformly random 2-hop `H`-neighbors — for
//! solid nodes almost all neighbors are `H`-neighbors (Lemma 2.6),
//! assignment/report routing collapses to one hop, and the exactness
//! guarantee is untouched (it rests on step 7 alone).

use super::similarity::{id_batch_capacity, IdBatch, SimilarityKnowledge};
use crate::{Params, UNCOLORED};
use congest::wire_enum;
use congest::{
    BitCost, Inbox, Message, NodeCtx, NodeRng, Outbox, Port, Protocol, SmallIds, Status, Wake,
};
use rand::prelude::*;
use std::collections::HashMap;

/// Inline-first color batch for reports, queries, and replies.
pub type ColorBatch = SmallIds<u32, 32>;

/// Messages of `LearnPalette`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpMsg {
    /// "I am live" (round 0).
    Live,
    /// Batch of live-neighbor identifiers (relay of step 2).
    LiveList(IdBatch),
    /// Live-list transmission complete.
    LiveEnd,
    /// "You handle block `i` of my palette."
    Assign {
        /// Block index.
        i: u32,
    },
    /// Handler spray, first hop.
    Inform {
        /// The live node.
        v: u64,
        /// Block index.
        i: u32,
    },
    /// Handler spray, second hop.
    Inform2 {
        /// The live node.
        v: u64,
        /// Block index.
        i: u32,
    },
    /// Color gossip, first hop.
    Gossip {
        /// The live node this gossip is for.
        v: u64,
        /// The sender's color.
        color: u32,
    },
    /// Color gossip, second hop.
    Gossip2 {
        /// The live node this gossip is for.
        v: u64,
        /// The sender's color.
        color: u32,
    },
    /// Gossip captured by an informed node, en route to the handler.
    ToHandler {
        /// The live node.
        v: u64,
        /// Block index.
        i: u32,
        /// The gossiped color.
        color: u32,
    },
    /// Final hop to the handler.
    ToHandler2 {
        /// The live node.
        v: u64,
        /// Block index.
        i: u32,
        /// The gossiped color.
        color: u32,
    },
    /// Handler's report: colors of block `i` it did **not** hear.
    Report {
        /// Block index.
        i: u32,
        /// Missing colors (batch).
        missing: ColorBatch,
    },
    /// Report for block `i` complete.
    ReportEnd {
        /// Block index.
        i: u32,
    },
    /// Step 7: batch of candidate-missing colors.
    TQuery(ColorBatch),
    /// Step 7: candidate transmission complete.
    TQueryEnd,
    /// Step 7: which of the candidates the replier sees in use.
    TReply(ColorBatch),
    /// Step 7: reply complete.
    TReplyEnd,
}

impl Message for LpMsg {
    fn bits(&self) -> u64 {
        let tag = BitCost::tag(15);
        match self {
            LpMsg::Live | LpMsg::LiveEnd | LpMsg::TQueryEnd | LpMsg::TReplyEnd => tag,
            LpMsg::LiveList(ids) => tag + 8 + ids.iter().map(|&x| BitCost::uint(x)).sum::<u64>(),
            LpMsg::Assign { i } | LpMsg::ReportEnd { i } => tag + BitCost::uint(u64::from(*i)),
            LpMsg::Inform { v, i } | LpMsg::Inform2 { v, i } => {
                tag + BitCost::uint(*v) + BitCost::uint(u64::from(*i))
            }
            LpMsg::Gossip { v, color } | LpMsg::Gossip2 { v, color } => {
                tag + BitCost::uint(*v) + BitCost::uint(u64::from(*color))
            }
            LpMsg::ToHandler { v, i, color } | LpMsg::ToHandler2 { v, i, color } => {
                tag + BitCost::uint(*v)
                    + BitCost::uint(u64::from(*i))
                    + BitCost::uint(u64::from(*color))
            }
            LpMsg::Report { i, missing } => {
                tag + BitCost::uint(u64::from(*i))
                    + 8
                    + missing
                        .iter()
                        .map(|&c| BitCost::uint(u64::from(c)))
                        .sum::<u64>()
            }
            LpMsg::TQuery(cs) | LpMsg::TReply(cs) => {
                tag + 8 + cs.iter().map(|&c| BitCost::uint(u64::from(c))).sum::<u64>()
            }
        }
    }
}

wire_enum!(LpMsg {
    0 => Live,
    1 => LiveList(ids),
    2 => LiveEnd,
    3 => Assign { i },
    4 => Inform { v, i },
    5 => Inform2 { v, i },
    6 => Gossip { v, color },
    7 => Gossip2 { v, color },
    8 => ToHandler { v, i, color },
    9 => ToHandler2 { v, i, color },
    10 => Report { i, missing },
    11 => ReportEnd { i },
    12 => TQuery(cs),
    13 => TQueryEnd,
    14 => TReply(cs),
    15 => TReplyEnd,
});

/// The `LearnPalette` protocol.
#[derive(Debug)]
pub struct LearnPalette {
    /// Palette size (`∆_c + 1`).
    pub palette: u32,
    /// Number of color blocks `Z`.
    pub z_blocks: u32,
    knowledge: Vec<(u32, Vec<u32>)>,
    sim: std::sync::Arc<Vec<SimilarityKnowledge>>,
    w_live: u64,
    w_assign: u64,
    w_inform: u64,
    w_gossip: u64,
    batch: usize,
    period: u64,
}

impl LearnPalette {
    /// Builds the protocol from the pipeline knowledge and similarity
    /// graphs.
    #[must_use]
    pub fn new(
        params: &Params,
        g: &graphs::Graph,
        palette: u32,
        budget: u64,
        knowledge: Vec<(u32, Vec<u32>)>,
        sim: std::sync::Arc<Vec<SimilarityKnowledge>>,
    ) -> Self {
        let n = g.n().max(2);
        let delta = g.max_degree().max(1);
        let ln_n = (n as f64).ln();
        let period = params.list_sync_period.max(1);
        let z_blocks = ((delta as f64 * params.learn_blocks_per_delta).ceil() as u32).max(1);
        // Windows are measured in *communication* rounds (`sync_period`
        // slots); the batch capacity reflects the aggregated per-message
        // budget `p·B`, so the list phases keep the same simulator-round
        // footprint while moving p x fewer messages.
        let batch = id_batch_capacity(budget.saturating_mul(period), n);
        let w_live = (delta as u64).div_ceil(batch as u64) + 3;
        let w_assign = u64::from(z_blocks) + 1;
        let w_inform =
            ((params.learn_fanout_coeff * (delta as f64 * ln_n).sqrt()).ceil() as u64).max(2) + 2;
        let w_gossip = ((params.learn_gossip_coeff * ln_n * (1.0 + (ln_n / delta as f64).sqrt()))
            .ceil() as u64)
            .max(4)
            + 4;
        LearnPalette {
            palette,
            z_blocks,
            knowledge,
            sim,
            w_live,
            w_assign,
            w_inform,
            w_gossip,
            batch,
            period,
        }
    }

    fn block_of(&self, color: u32) -> u32 {
        let size = self.palette.div_ceil(self.z_blocks).max(1);
        (color / size).min(self.z_blocks - 1)
    }

    fn block_colors(&self, i: u32) -> std::ops::Range<u32> {
        let size = self.palette.div_ceil(self.z_blocks).max(1);
        let lo = (i * size).min(self.palette);
        let hi = ((i + 1) * size).min(self.palette);
        lo..hi
    }
}

/// Step-7 progress of the node's own candidate pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    NotStarted,
    SendingBatches,
    SendingEnd,
    AwaitingReplies,
    Complete,
}

/// Per-node state.
#[derive(Debug, Clone)]
pub struct LpState {
    /// Own color (unchanged by this protocol).
    pub color: u32,
    nbr_colors: Vec<u32>,
    /// Live d2-neighbor identifiers (learned in step 2).
    pub live_d2: Vec<u64>,
    /// As live node: the exact free palette (valid at protocol end).
    pub free_palette: Vec<u32>,
    /// As live node: |T_v| — the candidate set size of Lemma 2.15.
    pub t_v_size: usize,
    // step 2 plumbing
    live_send: Vec<u64>,
    live_sent_end: bool,
    // handler side
    handled: HashMap<(u64, u32), (Port, Vec<u32>)>,
    informs_to_spray: Vec<(u64, u32)>,
    inform_ptr: HashMap<(u64, u32), Port>,
    // gossip relays
    gossip_queue: Vec<(u64, u32)>,
    relay1: Vec<(u64, u32)>,
    relay2: Vec<(u64, u32)>,
    capture_queue: Vec<(Port, LpMsg)>,
    // reports
    report_queue: Vec<(Port, u32, Vec<u32>, bool)>,
    reports_seen: u32,
    t_candidates: Vec<u32>,
    // step 7 — own pass
    pass: Pass,
    t7_send: Vec<u32>,
    t7_reply_end: Vec<bool>,
    t7_used: Vec<u32>,
    // step 7 — serving others
    t7_reply_queues: Vec<Vec<u32>>,
    t7_pending_end: Vec<bool>,
    my_handler_port: Vec<Port>,
    /// Per-round used-port scratch, recycled across rounds.
    used: Vec<bool>,
}

impl Protocol for LearnPalette {
    type State = LpState;
    type Msg = LpMsg;

    fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> LpState {
        let (color, nbr_colors) = self.knowledge[ctx.index as usize].clone();
        let degree = ctx.degree();
        LpState {
            color,
            nbr_colors,
            live_d2: Vec::new(),
            free_palette: Vec::new(),
            t_v_size: 0,
            live_send: Vec::new(),
            live_sent_end: false,
            handled: HashMap::new(),
            informs_to_spray: Vec::new(),
            inform_ptr: HashMap::new(),
            gossip_queue: Vec::new(),
            relay1: Vec::new(),
            relay2: Vec::new(),
            capture_queue: Vec::new(),
            report_queue: Vec::new(),
            reports_seen: 0,
            t_candidates: Vec::new(),
            pass: Pass::NotStarted,
            t7_send: Vec::new(),
            t7_reply_end: vec![false; degree],
            t7_used: Vec::new(),
            t7_reply_queues: vec![Vec::new(); degree],
            t7_pending_end: vec![false; degree],
            my_handler_port: Vec::new(),
            used: Vec::new(),
        }
    }

    fn sync_period(&self) -> u64 {
        self.period
    }

    #[allow(clippy::too_many_lines)]
    fn round(
        &self,
        st: &mut LpState,
        ctx: &NodeCtx,
        rng: &mut NodeRng,
        inbox: &Inbox<LpMsg>,
        out: &mut Outbox<LpMsg>,
    ) -> Status {
        let degree = ctx.degree();
        let live = st.color == UNCOLORED;
        let sim = &self.sim[ctx.index as usize];
        let b_live = self.w_live;
        let b_assign = b_live + self.w_assign;
        let b_inform = b_assign + self.w_inform;
        let b_gossip = b_inform + self.w_gossip;

        // ---- Fold arrivals (every round: messages sent at a
        // communication round land on the following, possibly silent,
        // round).
        for (p, m) in inbox.iter() {
            let p = *p;
            match m {
                LpMsg::Live => {
                    let id = ctx.neighbor_idents()[p as usize];
                    st.live_d2.push(id);
                    st.live_send.push(id);
                }
                LpMsg::LiveList(ids) => st.live_d2.extend_from_slice(ids.as_slice()),
                LpMsg::LiveEnd => {}
                LpMsg::Assign { i } => {
                    let vid = ctx.neighbor_idents()[p as usize];
                    st.handled.insert((vid, *i), (p, Vec::new()));
                    st.informs_to_spray.push((vid, *i));
                }
                LpMsg::Inform { v, i } => st.relay1.push((*v, *i)),
                LpMsg::Inform2 { v, i } => {
                    st.inform_ptr.insert((*v, *i), p);
                }
                LpMsg::Gossip { v, color } => st.relay2.push((*v, *color)),
                LpMsg::Gossip2 { v, color } => {
                    let i = self.block_of(*color);
                    if let Some(&ptr) = st.inform_ptr.get(&(*v, i)) {
                        st.capture_queue.push((
                            ptr,
                            LpMsg::ToHandler {
                                v: *v,
                                i,
                                color: *color,
                            },
                        ));
                    } else if let Some(entry) = st.handled.get_mut(&(*v, i)) {
                        entry.1.push(*color);
                    }
                }
                LpMsg::ToHandler { v, i, color } => {
                    if let Some(entry) = st.handled.get_mut(&(*v, *i)) {
                        entry.1.push(*color);
                    } else if let Some(&ptr) = st.inform_ptr.get(&(*v, *i)) {
                        st.capture_queue.push((
                            ptr,
                            LpMsg::ToHandler2 {
                                v: *v,
                                i: *i,
                                color: *color,
                            },
                        ));
                    }
                }
                LpMsg::ToHandler2 { v, i, color } => {
                    if let Some(entry) = st.handled.get_mut(&(*v, *i)) {
                        entry.1.push(*color);
                    }
                }
                LpMsg::Report { missing, .. } => {
                    st.t_candidates.extend_from_slice(missing.as_slice());
                }
                LpMsg::ReportEnd { .. } => st.reports_seen += 1,
                LpMsg::TQuery(cs) => {
                    let used: Vec<u32> = cs
                        .iter()
                        .copied()
                        .filter(|&c| c == st.color || st.nbr_colors.contains(&c))
                        .collect();
                    st.t7_reply_queues[p as usize].extend(used);
                }
                LpMsg::TQueryEnd => st.t7_pending_end[p as usize] = true,
                LpMsg::TReply(cs) => st.t7_used.extend_from_slice(cs.as_slice()),
                LpMsg::TReplyEnd => st.t7_reply_end[p as usize] = true,
            }
        }

        // Silent rounds end here: all sending (and the window clock)
        // advances on communication rounds only.
        if !ctx.round.is_multiple_of(self.period) {
            return Status::Running;
        }
        let r = ctx.round / self.period;
        // ======== Step 2: live announcements and relayed lists.
        if r == 0 {
            if live {
                for p in 0..degree as Port {
                    out.send(p, LpMsg::Live);
                }
            }
            return Status::Running;
        }
        if r < b_live {
            if r >= 2 && !st.live_sent_end {
                if st.live_send.is_empty() {
                    for p in 0..degree as Port {
                        out.send(p, LpMsg::LiveEnd);
                    }
                    st.live_sent_end = true;
                } else {
                    let take = self.batch.min(st.live_send.len());
                    let batch = IdBatch::from_slice(&st.live_send[..take]);
                    st.live_send.drain(..take);
                    // Clone for all ports but the last; the final send
                    // moves the batch (inline clones are memcpys).
                    for p in 0..degree.saturating_sub(1) as Port {
                        out.send(p, LpMsg::LiveList(batch.clone()));
                    }
                    if degree > 0 {
                        out.send(degree as Port - 1, LpMsg::LiveList(batch));
                    }
                }
            }
            return Status::Running;
        }
        if r == b_live {
            st.live_d2.sort_unstable();
            st.live_d2.dedup();
            if let Ok(i) = st.live_d2.binary_search(&ctx.ident) {
                st.live_d2.remove(i);
            }
            if live && degree > 0 {
                let h_ports: Vec<Port> = (0..degree as Port)
                    .filter(|&p| sim.h_with_self(p))
                    .collect();
                let pool: Vec<Port> = if h_ports.is_empty() {
                    (0..degree as Port).collect()
                } else {
                    h_ports
                };
                st.my_handler_port = (0..self.z_blocks)
                    .map(|i| pool[i as usize % pool.len()])
                    .collect();
            }
            if !live {
                let copies = 3usize;
                for &vid in &st.live_d2.clone() {
                    for _ in 0..copies {
                        st.gossip_queue.push((vid, st.color));
                    }
                }
            }
            return Status::Running;
        }
        // ======== Steps 3–4: handler assignment, inform spray.
        if r < b_assign {
            let i = (r - b_live - 1) as u32;
            if live && i < self.z_blocks && degree > 0 {
                out.send(st.my_handler_port[i as usize], LpMsg::Assign { i });
            }
            return Status::Running;
        }
        if r < b_inform {
            st.used.clear();
            st.used.resize(degree, false);
            for (vid, i) in std::mem::take(&mut st.relay1) {
                if degree > 0 {
                    let p = rng.gen_range(0..degree);
                    if !st.used[p] {
                        st.used[p] = true;
                        out.send(p as Port, LpMsg::Inform2 { v: vid, i });
                    }
                }
            }
            if !st.informs_to_spray.is_empty() && degree > 0 {
                for k in 0..degree {
                    let (vid, i) = st.informs_to_spray[k % st.informs_to_spray.len()];
                    let p = rng.gen_range(0..degree);
                    if !st.used[p] {
                        st.used[p] = true;
                        out.send(p as Port, LpMsg::Inform { v: vid, i });
                    }
                }
            }
            return Status::Running;
        }
        // ======== Step 5: gossip window.
        if r < b_gossip {
            st.used.clear();
            st.used.resize(degree, false);
            let captures = std::mem::take(&mut st.capture_queue);
            for (ptr, msg) in captures {
                if st.used[ptr as usize] {
                    st.capture_queue.push((ptr, msg));
                } else {
                    st.used[ptr as usize] = true;
                    out.send(ptr, msg);
                }
            }
            for (vid, color) in std::mem::take(&mut st.relay2) {
                if degree > 0 {
                    let p = rng.gen_range(0..degree);
                    if !st.used[p] {
                        st.used[p] = true;
                        out.send(p as Port, LpMsg::Gossip2 { v: vid, color });
                    }
                }
            }
            while !st.gossip_queue.is_empty() && degree > 0 {
                let p = rng.gen_range(0..degree);
                if st.used[p] {
                    break;
                }
                let (vid, color) = st.gossip_queue.pop().expect("nonempty");
                st.used[p] = true;
                out.send(p as Port, LpMsg::Gossip { v: vid, color });
            }
            return Status::Running;
        }
        // ======== Step 6 + 7: reports, then the exactness pass.
        if r == b_gossip {
            // Build the report queue once.
            let handled = std::mem::take(&mut st.handled);
            for ((_vid, i), (port, mut heard)) in handled {
                heard.sort_unstable();
                heard.dedup();
                let missing: Vec<u32> = self
                    .block_colors(i)
                    .filter(|c| heard.binary_search(c).is_err())
                    .collect();
                st.report_queue.push((port, i, missing, false));
            }
            st.report_queue.sort_by_key(|&(p, i, _, _)| (p, i));
        }
        st.used.clear();
        st.used.resize(degree, false);
        // Leftover capture relays drain here too (late arrivals).
        let captures = std::mem::take(&mut st.capture_queue);
        for (ptr, msg) in captures {
            if st.used[ptr as usize] {
                st.capture_queue.push((ptr, msg));
            } else {
                st.used[ptr as usize] = true;
                out.send(ptr, msg);
            }
        }
        // Reports: one batch per port per round, End after the last batch.
        // Entries stay in place; each send drains a batch-sized chunk off
        // the front of its `missing` list (no per-round re-allocation).
        let mut idx = 0;
        while idx < st.report_queue.len() {
            let entry = &mut st.report_queue[idx];
            let (port, i) = (entry.0, entry.1);
            if st.used[port as usize] {
                idx += 1;
                continue;
            }
            st.used[port as usize] = true;
            if entry.3 {
                out.send(port, LpMsg::ReportEnd { i });
                st.report_queue.remove(idx);
                continue;
            }
            let take = self.batch.min(entry.2.len());
            let chunk = ColorBatch::from_slice(&entry.2[..take]);
            entry.2.drain(..take);
            if entry.2.is_empty() {
                entry.3 = true;
            }
            out.send(port, LpMsg::Report { i, missing: chunk });
            idx += 1;
        }

        // Own step-7 pass.
        let reports_expected = if live && degree > 0 { self.z_blocks } else { 0 };
        if st.pass == Pass::NotStarted && st.reports_seen >= reports_expected {
            if live {
                let mut t = std::mem::take(&mut st.t_candidates);
                if degree == 0 {
                    // No neighbors at all: everything is free.
                    t = (0..self.palette).collect();
                }
                t.sort_unstable();
                t.dedup();
                t.retain(|&c| c != st.color && !st.nbr_colors.contains(&c));
                st.t_v_size = t.len();
                st.t7_send = t.clone();
                st.t_candidates = t;
            }
            st.pass = Pass::SendingBatches;
        }
        if st.pass == Pass::SendingBatches && (0..degree).all(|p| !st.used[p]) {
            if st.t7_send.is_empty() {
                st.pass = Pass::SendingEnd;
            } else {
                let take = self.batch.min(st.t7_send.len());
                let batch = ColorBatch::from_slice(&st.t7_send[..take]);
                st.t7_send.drain(..take);
                for p in 0..degree as Port {
                    st.used[p as usize] = true;
                    out.send(p, LpMsg::TQuery(batch.clone()));
                }
            }
        }
        if st.pass == Pass::SendingEnd && (0..degree).all(|p| !st.used[p]) {
            for p in 0..degree as Port {
                st.used[p as usize] = true;
                out.send(p, LpMsg::TQueryEnd);
            }
            st.pass = Pass::AwaitingReplies;
        }
        // Serve other nodes' passes.
        #[allow(clippy::needless_range_loop)] // `p` indexes three parallel per-port arrays
        for p in 0..degree {
            if st.used[p] {
                continue;
            }
            if !st.t7_reply_queues[p].is_empty() {
                let take = self.batch.min(st.t7_reply_queues[p].len());
                let batch = ColorBatch::from_slice(&st.t7_reply_queues[p][..take]);
                st.t7_reply_queues[p].drain(..take);
                st.used[p] = true;
                out.send(p as Port, LpMsg::TReply(batch));
            } else if st.t7_pending_end[p] {
                st.used[p] = true;
                out.send(p as Port, LpMsg::TReplyEnd);
                st.t7_pending_end[p] = false;
            }
        }
        // Completion.
        if st.pass == Pass::AwaitingReplies && (0..degree).all(|p| st.t7_reply_end[p]) {
            if live {
                let mut used_colors = std::mem::take(&mut st.t7_used);
                used_colors.sort_unstable();
                used_colors.dedup();
                st.free_palette = st
                    .t_candidates
                    .iter()
                    .copied()
                    .filter(|c| used_colors.binary_search(c).is_err())
                    .collect();
            }
            st.pass = Pass::Complete;
        }
        let all_served =
            (0..degree).all(|p| st.t7_reply_queues[p].is_empty() && !st.t7_pending_end[p]);
        if st.pass == Pass::Complete
            && all_served
            && st.report_queue.is_empty()
            && st.capture_queue.is_empty()
        {
            Status::Done
        } else {
            Status::Running
        }
    }

    fn next_wake(&self, _st: &LpState, _ctx: &NodeCtx, status: Status) -> Wake {
        // A `Done` node has finished its own pass and drained every relay
        // queue; all remaining duties (list relay, step-7 replies, gossip)
        // begin with an arrival, and the `Done` vote is stable under
        // empty-inbox steps. Anything short of `Done` keeps local work
        // (window schedules, queue draining) that is not message-driven.
        if status == Status::Done {
            Wake::Message
        } else {
            Wake::Next
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::similarity::ExactSimilarity;
    use crate::rand::trials::{self, RandomTrials};
    use congest::SimConfig;
    use graphs::gen;

    fn run_lp(g: &graphs::Graph, warmup: u64, seed: u64) -> (Vec<LpState>, congest::Metrics, u32) {
        let cfg = SimConfig::seeded(seed);
        let d = g.max_degree();
        let palette = ((d * d).min(g.n().saturating_sub(1)) + 1) as u32;
        let warm = RandomTrials::new(palette, warmup);
        let wstates = congest::run(g, &warm, &cfg).unwrap().states;
        let sim_proto = ExactSimilarity::new(cfg.bandwidth_bits(g.n()));
        let sim = std::sync::Arc::new(
            congest::run(g, &sim_proto, &cfg)
                .unwrap()
                .states
                .into_iter()
                .map(|s| s.knowledge)
                .collect(),
        );
        let lp = LearnPalette::new(
            &Params::practical(),
            g,
            palette,
            cfg.bandwidth_bits(g.n()),
            trials::knowledge(&wstates),
            sim,
        );
        let res = congest::run(g, &lp, &cfg.clone().with_max_rounds(100_000)).unwrap();
        (res.states, res.metrics, palette)
    }

    /// The headline property: for every live node, `free_palette` is
    /// **exactly** the set of colors unused within distance 2.
    #[test]
    fn learned_palette_is_exact() {
        for (g, seed) in [
            (gen::star(10), 1u64),
            (gen::clique_ring(3, 7), 2),
            (gen::gnp_capped(80, 0.1, 6, 3), 3),
        ] {
            let view = graphs::D2View::build(&g);
            let (states, metrics, palette) = run_lp(&g, 2, seed);
            let colors: Vec<u32> = states.iter().map(|s| s.color).collect();
            for v in 0..g.n() as u32 {
                if colors[v as usize] != UNCOLORED {
                    continue;
                }
                let truly_free: Vec<u32> = (0..palette)
                    .filter(|&c| {
                        view.d2_neighbors(v)
                            .iter()
                            .all(|&u| colors[u as usize] != c)
                    })
                    .collect();
                assert_eq!(
                    states[v as usize].free_palette, truly_free,
                    "node {v}: learned palette differs from ground truth"
                );
            }
            assert!(metrics.is_congest_compliant());
        }
    }

    /// Live-neighbor discovery (step 2) must be exact.
    #[test]
    fn live_d2_lists_are_exact() {
        let g = gen::grid(5, 5);
        let view = graphs::D2View::build(&g);
        let cfg = SimConfig::seeded(9);
        let (states, _, _) = run_lp(&g, 1, 9);
        let idents = congest::NetTables::build(&g, &cfg).idents().to_vec();
        let colors: Vec<u32> = states.iter().map(|s| s.color).collect();
        for v in 0..g.n() as u32 {
            let mut expect: Vec<u64> = view
                .d2_neighbors(v)
                .iter()
                .copied()
                .filter(|&u| colors[u as usize] == UNCOLORED)
                .map(|u| idents[u as usize])
                .collect();
            expect.sort_unstable();
            assert_eq!(states[v as usize].live_d2, expect, "node {v} live list");
        }
    }

    /// With everyone colored, the protocol still terminates cleanly.
    #[test]
    fn no_live_nodes_terminates() {
        let g = gen::path(6);
        let (states, _, _) = run_lp(&g, 60, 4);
        assert!(states.iter().all(|s| s.color != UNCOLORED));
    }

    /// `LpMsg` list payloads are bits- and contents-identical across the
    /// inline/spilled representations, straddling the cap.
    #[test]
    fn lp_list_payload_bits_are_representation_invariant() {
        use congest::{BitCost, Message, SmallIds};
        for len in [0usize, 1, 31, 32, 33, 40] {
            let colors: Vec<u32> = (0..len as u32).map(|i| i * 13 + 1).collect();
            let inline_or_not = LpMsg::TQuery(ColorBatch::from_slice(&colors));
            let spilled = LpMsg::TQuery(SmallIds::Spilled(colors.clone()));
            assert_eq!(inline_or_not, spilled);
            let expected = BitCost::tag(15)
                + 8
                + colors
                    .iter()
                    .map(|&c| BitCost::uint(u64::from(c)))
                    .sum::<u64>();
            assert_eq!(inline_or_not.bits(), expected, "len {len}");
            assert_eq!(spilled.bits(), expected, "spilled len {len}");

            let ids: Vec<u64> = (0..len as u64).map(|i| i * 7 + 3).collect();
            let a = LpMsg::LiveList(IdBatch::from_slice(&ids));
            let b = LpMsg::LiveList(SmallIds::Spilled(ids.clone()));
            assert_eq!(a, b);
            assert_eq!(a.bits(), b.bits(), "LiveList len {len}");
        }
    }

    /// At the practical sync period 4 and n ≤ 128, `(p·B − 16) / ⌈log₂ n⌉`
    /// exceeds the inline cap (34 at n = 100): the live-list batch is
    /// clamped to it, so a relay never spills to the heap.
    #[test]
    fn live_list_batch_stays_inline_at_small_n() {
        let params = Params::practical();
        assert_eq!(params.list_sync_period, 4);
        for n in [2, 16, 100, 128] {
            let budget = SimConfig::seeded(1).bandwidth_bits(n);
            let sim = std::sync::Arc::new(Vec::new());
            let lp = LearnPalette::new(&params, &gen::path(n), 4, budget, Vec::new(), sim);
            let cap = crate::rand::similarity::ID_BATCH_INLINE_CAP;
            assert_eq!(lp.batch, cap, "n = {n}");
        }
    }

    /// Isolated live node: the whole palette is free.
    #[test]
    fn isolated_node_gets_full_palette() {
        let g = gen::empty(3);
        let (states, _, palette) = run_lp(&g, 0, 5);
        for s in &states {
            if s.color == UNCOLORED {
                assert_eq!(s.free_palette.len(), palette as usize);
            }
        }
    }
}
