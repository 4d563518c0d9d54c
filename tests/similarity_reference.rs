//! The buffered similarity fold, kept alive as the bit-identity
//! reference for the streaming fold (the same pattern PR 3 used for the
//! O(n²) Bernoulli sampler): this file re-implements the pre-streaming
//! `SimilarityState` — every port's second-stage list accumulated whole
//! in `second_lists`, flags computed by a terminal pass over the buffered
//! ids (one-word-bitmask sort-and-scan for `degree + 1 ≤ 64`, pairwise
//! sorted merges above) — and pins the production streaming fold to it:
//! per-node [`SimilarityKnowledge`] and the full run metrics (rounds,
//! messages, bit totals) must be **bit-identical** across
//! gnp / random_regular / cycle / degree-65+ families × exact + sampled
//! constructions × sync periods {1, 4} × both engines.
//!
//! The degree-65+ families (`clique(66)`, `star(70)`) are the regression
//! net for the old `compute_flags` fallback: the buffered fold silently
//! dropped to `O(deg²·∆²)` pairwise merges when `degree + 1 > 64`
//! (one-word bitmask exhausted), while the streaming counter tags
//! sources by index and has no such ceiling — the two paths must still
//! agree flag for flag.

use congest::{Inbox, NodeCtx, NodeRng, Outbox, Port, Protocol, SimConfig, Status};
use d2core::rand::similarity::{
    ExactSimilarity, IdBatch, SampledSimilarity, SimMsg, SimilarityKnowledge,
};
use rand::Rng;

// ---------------------------------------------------------------------
// The buffered reference, verbatim from the pre-streaming module (only
// the flag sink changed: `SimilarityKnowledge` is a bit matrix now, so
// the terminal pass writes through `set_pair`).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    First,
    Second,
    Finished,
}

#[derive(Debug, Clone)]
struct BufferedState {
    knowledge: SimilarityKnowledge,
    in_sample: bool,
    set_size: usize,
    stage: Stage,
    send_queue: Vec<u64>,
    sent_end: bool,
    first_lists: Vec<Vec<u64>>,
    first_done: Vec<bool>,
    second_lists: Vec<Vec<u64>>,
    second_done: Vec<bool>,
    my_first: Vec<u64>,
    my_second: Vec<u64>,
}

impl BufferedState {
    fn new(degree: usize) -> Self {
        BufferedState {
            knowledge: SimilarityKnowledge::empty(degree),
            in_sample: false,
            set_size: 0,
            stage: Stage::First,
            send_queue: Vec::new(),
            sent_end: false,
            first_lists: vec![Vec::new(); degree],
            first_done: vec![false; degree],
            second_lists: vec![Vec::new(); degree],
            second_done: vec![false; degree],
            my_first: Vec::new(),
            my_second: Vec::new(),
        }
    }

    fn fold_inbox(&mut self, inbox: &Inbox<SimMsg>) {
        for &(p, ref m) in inbox.iter() {
            let p = p as usize;
            match m {
                SimMsg::InS => {}
                SimMsg::Batch(ids) => {
                    if self.first_done[p] {
                        self.second_lists[p].extend_from_slice(ids.as_slice());
                    } else {
                        self.first_lists[p].extend_from_slice(ids.as_slice());
                    }
                }
                SimMsg::End => {
                    if self.first_done[p] {
                        self.second_done[p] = true;
                    } else {
                        self.first_done[p] = true;
                    }
                }
            }
        }
    }

    fn pump<F: FnMut(Port, SimMsg)>(&mut self, degree: usize, per_batch: usize, send: &mut F) {
        if self.sent_end {
            return;
        }
        if self.send_queue.is_empty() {
            for p in 0..degree as Port {
                send(p, SimMsg::End);
            }
            self.sent_end = true;
            return;
        }
        let take = per_batch.min(self.send_queue.len());
        let batch = IdBatch::from_slice(&self.send_queue[..take]);
        self.send_queue.drain(..take);
        for p in 0..degree.saturating_sub(1) as Port {
            send(p, SimMsg::Batch(batch.clone()));
        }
        if degree > 0 {
            send(degree as Port - 1, SimMsg::Batch(batch));
        }
    }

    /// The buffered terminal pass: one-word-bitmask sort-and-scan while
    /// `degree + 1 ≤ 64`, pairwise sorted merges above (the fallback the
    /// streaming counter exists to retire).
    fn compute_flags(&mut self, degree: usize, h_thresh: f64, hhat_thresh: f64) {
        let k = degree + 1;
        let mut counts = vec![0u32; k * k];
        if k <= 64 {
            let total: usize =
                self.second_lists.iter().map(Vec::len).sum::<usize>() + self.my_second.len();
            let mut tagged: Vec<(u64, u64)> = Vec::with_capacity(total);
            for (i, set) in self.second_lists.iter().enumerate() {
                tagged.extend(set.iter().map(|&id| (id, 1u64 << i)));
            }
            tagged.extend(self.my_second.iter().map(|&id| (id, 1u64 << degree)));
            tagged.sort_unstable_by_key(|&(id, _)| id);
            let mut i = 0;
            while i < tagged.len() {
                let id = tagged[i].0;
                let mut mask = 0u64;
                while i < tagged.len() && tagged[i].0 == id {
                    mask |= tagged[i].1;
                    i += 1;
                }
                let mut a_bits = mask;
                while a_bits != 0 {
                    let a = a_bits.trailing_zeros() as usize;
                    a_bits &= a_bits - 1;
                    let mut b_bits = a_bits;
                    while b_bits != 0 {
                        let b = b_bits.trailing_zeros() as usize;
                        b_bits &= b_bits - 1;
                        counts[a * k + b] += 1;
                    }
                }
            }
        } else {
            let mut sets: Vec<&[u64]> = self.second_lists.iter().map(Vec::as_slice).collect();
            sets.push(&self.my_second);
            for a in 0..k {
                for b in (a + 1)..k {
                    counts[a * k + b] = intersection_size(sets[a], sets[b]) as u32;
                }
            }
        }
        for a in 0..k {
            for b in (a + 1)..k {
                let common = f64::from(counts[a * k + b]);
                self.knowledge
                    .set_pair(a, b, common >= h_thresh, common >= hhat_thresh);
            }
        }
    }
}

fn sorted_dedup(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

fn intersection_size(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Mirrors the production capacity (including the inline-cap clamp, so
/// the reference moves the exact same batches).
fn id_batch_capacity(budget: u64, n: usize) -> usize {
    let cap = ((budget.saturating_sub(16)) / graphs::id_bits(n).max(1)).max(1) as usize;
    cap.min(32)
}

struct BufferedExact {
    budget: u64,
    period: u64,
}

impl Protocol for BufferedExact {
    type State = BufferedState;
    type Msg = SimMsg;

    fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> BufferedState {
        let mut st = BufferedState::new(ctx.degree());
        st.my_first = sorted_dedup(
            ctx.neighbor_idents()
                .iter()
                .copied()
                .chain([ctx.ident])
                .collect(),
        );
        st.send_queue = st.my_first.clone();
        st
    }

    fn sync_period(&self) -> u64 {
        self.period
    }

    fn round(
        &self,
        st: &mut BufferedState,
        ctx: &NodeCtx,
        _rng: &mut NodeRng,
        inbox: &Inbox<SimMsg>,
        out: &mut Outbox<SimMsg>,
    ) -> Status {
        let degree = ctx.degree();
        let per_batch = id_batch_capacity(self.budget.saturating_mul(self.period), ctx.n);
        st.fold_inbox(inbox);
        if !ctx.round.is_multiple_of(self.period) {
            return if st.stage == Stage::Finished {
                Status::Done
            } else {
                Status::Running
            };
        }
        match st.stage {
            Stage::First => {
                st.pump(degree, per_batch, &mut |p, m| out.send(p, m));
                if st.sent_end && st.first_done.iter().all(|&d| d) {
                    let mut d2: Vec<u64> = st.first_lists.iter().flatten().copied().collect();
                    d2.extend(st.my_first.iter().copied());
                    let mut d2 = sorted_dedup(d2);
                    if let Ok(i) = d2.binary_search(&ctx.ident) {
                        d2.remove(i);
                    }
                    st.set_size = d2.len();
                    st.my_second = d2.clone();
                    st.send_queue = d2;
                    st.sent_end = false;
                    st.stage = Stage::Second;
                }
                Status::Running
            }
            Stage::Second => {
                st.pump(degree, per_batch, &mut |p, m| out.send(p, m));
                if st.sent_end && st.second_done.iter().all(|&d| d) {
                    for p in 0..degree {
                        st.second_lists[p] = sorted_dedup(std::mem::take(&mut st.second_lists[p]));
                    }
                    let dsq = (ctx.delta_sq().min(ctx.n.saturating_sub(1)) as f64).max(1.0);
                    st.compute_flags(degree, 2.0 / 3.0 * dsq, 5.0 / 6.0 * dsq);
                    st.stage = Stage::Finished;
                    return Status::Done;
                }
                Status::Running
            }
            Stage::Finished => Status::Done,
        }
    }
}

struct BufferedSampled {
    p: f64,
    expected_hits: f64,
    budget: u64,
    period: u64,
}

impl Protocol for BufferedSampled {
    type State = BufferedState;
    type Msg = SimMsg;

    fn init(&self, ctx: &NodeCtx, rng: &mut NodeRng) -> BufferedState {
        let mut st = BufferedState::new(ctx.degree());
        st.in_sample = rng.gen_bool(self.p.clamp(0.0, 1.0));
        st
    }

    fn sync_period(&self) -> u64 {
        self.period
    }

    fn round(
        &self,
        st: &mut BufferedState,
        ctx: &NodeCtx,
        _rng: &mut NodeRng,
        inbox: &Inbox<SimMsg>,
        out: &mut Outbox<SimMsg>,
    ) -> Status {
        let degree = ctx.degree();
        let per_batch = id_batch_capacity(self.budget.saturating_mul(self.period), ctx.n);
        if ctx.round == 0 {
            if st.in_sample {
                for p in 0..degree as Port {
                    out.send(p, SimMsg::InS);
                }
            }
            return Status::Running;
        }
        if ctx.round == 1 {
            let mut list: Vec<u64> = inbox
                .iter()
                .filter(|(_, m)| matches!(m, SimMsg::InS))
                .map(|&(p, _)| ctx.neighbor_idents()[p as usize])
                .collect();
            if st.in_sample {
                list.push(ctx.ident);
            }
            st.my_first = sorted_dedup(list);
            st.send_queue = st.my_first.clone();
        }
        st.fold_inbox(inbox);
        if !ctx.round.is_multiple_of(self.period) {
            return if st.stage == Stage::Finished {
                Status::Done
            } else {
                Status::Running
            };
        }
        match st.stage {
            Stage::First => {
                st.pump(degree, per_batch, &mut |p, m| out.send(p, m));
                if st.sent_end && st.first_done.iter().all(|&d| d) {
                    let sv: Vec<u64> = st.first_lists.iter().flatten().copied().collect();
                    let mut sv = sorted_dedup(sv);
                    if let Ok(i) = sv.binary_search(&ctx.ident) {
                        sv.remove(i);
                    }
                    st.set_size = sv.len();
                    st.my_second = sv.clone();
                    st.send_queue = sv;
                    st.sent_end = false;
                    st.stage = Stage::Second;
                }
                Status::Running
            }
            Stage::Second => {
                st.pump(degree, per_batch, &mut |p, m| out.send(p, m));
                if st.sent_end && st.second_done.iter().all(|&d| d) {
                    for p in 0..degree {
                        st.second_lists[p] = sorted_dedup(std::mem::take(&mut st.second_lists[p]));
                    }
                    let m = self.expected_hits;
                    st.compute_flags(degree, 5.0 / 6.0 * m, 11.0 / 12.0 * m);
                    st.stage = Stage::Finished;
                    return Status::Done;
                }
                Status::Running
            }
            Stage::Finished => Status::Done,
        }
    }
}

// ---------------------------------------------------------------------
// The differential sweep.
// ---------------------------------------------------------------------

/// The family sweep: the three ISSUE families plus the two degree-65+
/// regressions for the buffered fallback path.
fn families(seed: u64) -> Vec<(String, graphs::Graph)> {
    vec![
        ("gnp".into(), graphs::gen::gnp(44, 0.09, seed)),
        (
            "random_regular".into(),
            graphs::gen::random_regular(48, 8, seed),
        ),
        ("cycle".into(), graphs::gen::cycle(30)),
        ("clique66".into(), graphs::gen::clique(66)),
        ("star70".into(), graphs::gen::star(70)),
    ]
}

fn assert_states_identical(
    label: &str,
    streaming: &[d2core::rand::similarity::SimilarityState],
    buffered: &[BufferedState],
) {
    assert_eq!(streaming.len(), buffered.len(), "{label}: node counts");
    for (v, (s, b)) in streaming.iter().zip(buffered).enumerate() {
        assert_eq!(
            s.knowledge, b.knowledge,
            "{label}: node {v} knowledge diverged from the buffered fold"
        );
        assert_eq!(s.set_size, b.set_size, "{label}: node {v} set_size");
        assert_eq!(s.in_sample, b.in_sample, "{label}: node {v} in_sample");
    }
}

/// Exact construction: streaming vs buffered, every family × period ×
/// engine cell bit-identical in knowledge and metrics.
#[test]
fn streaming_exact_matches_buffered_reference() {
    for seed in [3u64, 19] {
        for (name, g) in families(seed) {
            let cfg = SimConfig::seeded(seed);
            let budget = cfg.bandwidth_bits(g.n());
            for period in [1u64, 4] {
                let label = format!("{name}/seed{seed}/p{period}");
                let stream_proto = ExactSimilarity::new(budget).with_period(period);
                let buf_proto = BufferedExact { budget, period };
                let s_seq = congest::run(&g, &stream_proto, &cfg).expect("streaming seq");
                let b_seq = congest::run(&g, &buf_proto, &cfg).expect("buffered seq");
                assert_eq!(
                    s_seq.metrics, b_seq.metrics,
                    "{label}: metrics diverged (the fold must be receiver-side only)"
                );
                assert_states_identical(&label, &s_seq.states, &b_seq.states);
                let par_cfg = cfg.clone().with_runtime(congest::RuntimeMode::Parallel(3));
                let s_par = congest::run(&g, &stream_proto, &par_cfg).expect("par");
                assert_eq!(s_seq.metrics, s_par.metrics, "{label}: engine metrics");
                assert_states_identical(&format!("{label}/par"), &s_par.states, &b_seq.states);
            }
        }
    }
}

/// Sampled construction: identical rng consumption, so the sample sets —
/// and everything downstream — must agree stream-vs-buffer too.
#[test]
fn streaming_sampled_matches_buffered_reference() {
    for seed in [5u64, 23] {
        for (name, g) in families(seed) {
            let cfg = SimConfig::seeded(seed);
            let budget = cfg.bandwidth_bits(g.n());
            let d = g.max_degree();
            let dc = (d * d).min(g.n().saturating_sub(1)).max(1);
            let p = 0.5;
            for period in [1u64, 4] {
                let label = format!("sampled/{name}/seed{seed}/p{period}");
                let stream_proto = SampledSimilarity::new(p, dc, budget).with_period(period);
                let buf_proto = BufferedSampled {
                    p,
                    expected_hits: p * dc as f64,
                    budget,
                    period,
                };
                let s_seq = congest::run(&g, &stream_proto, &cfg).expect("streaming seq");
                let b_seq = congest::run(&g, &buf_proto, &cfg).expect("buffered seq");
                assert_eq!(s_seq.metrics, b_seq.metrics, "{label}: metrics diverged");
                assert_states_identical(&label, &s_seq.states, &b_seq.states);
                let par_cfg = cfg.clone().with_runtime(congest::RuntimeMode::Parallel(3));
                let s_par = congest::run(&g, &stream_proto, &par_cfg).expect("par");
                assert_eq!(s_seq.metrics, s_par.metrics, "{label}: engine metrics");
                assert_states_identical(&format!("{label}/par"), &s_par.states, &b_seq.states);
            }
        }
    }
}

/// Focused degree-65+ regression (the ISSUE's `compute_flags` fallback
/// bug): on a 70-leaf star the center's `k = 71` pair indices exceeded
/// the one-word bitmask, so the buffered fold used pairwise merges —
/// streaming flags must equal that fallback exactly, and the center must
/// actually have similar pairs (its leaves share all of `N²`).
#[test]
fn degree_above_64_flags_equal_fallback_and_are_nontrivial() {
    let g = graphs::gen::star(70);
    let cfg = SimConfig::seeded(11);
    let budget = cfg.bandwidth_bits(g.n());
    let s = congest::run(&g, &ExactSimilarity::new(budget), &cfg).expect("streaming");
    let b = congest::run(&g, &BufferedExact { budget, period: 1 }, &cfg).expect("buffered");
    assert_eq!(s.metrics, b.metrics);
    assert_states_identical("star70", &s.states, &b.states);
    let center = (0..g.n() as u32)
        .find(|&v| g.neighbors(v).len() == 70)
        .expect("center");
    let know = &s.states[center as usize].knowledge;
    let mut similar_pairs = 0usize;
    for a in 0..70u32 {
        for bp in (a + 1)..70 {
            if know.h_between_ports(a, bp) {
                similar_pairs += 1;
            }
        }
    }
    assert!(
        similar_pairs > 0,
        "star leaves share their whole d2-neighborhood; the center must see similar pairs"
    );
}
