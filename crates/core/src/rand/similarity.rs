//! Similarity graphs `H = H_{2/3}` and `Ĥ = H_{5/6}` (§2.3, Theorem 2.2).
//!
//! Two d2-neighbors are `H_{1−1/k}`-adjacent when they share "almost all"
//! d2-neighbors. The knowledge model matches the paper exactly: a node
//! does **not** learn its own 2-hop `H`-neighbors by name; instead every
//! node `w` learns, for each pair among `{w} ∪ N(w)`, whether that pair is
//! `H`-adjacent (and `Ĥ`-adjacent) — enough for intermediate nodes to
//! route `Reduce` queries along 2-paths.
//!
//! Two constructions:
//!
//! * [`ExactSimilarity`] — for `∆² = O(log n)`: nodes exchange full
//!   d2-neighborhoods by pipelining and threshold exact common counts.
//! * [`SampledSimilarity`] — each node joins a sample `S` with probability
//!   `p = c₁₀ log n / ∆²`; `S`-memberships are flooded one hop, `S_v` sets
//!   are exchanged, and `|S_u ∩ S_v|` is thresholded at
//!   `(1 − 1/(2k)) · p∆²`. Theorem 2.2 (tested against exact counts):
//!   w.h.p. `H`-adjacent pairs share `≥ (1−1/k)∆²` d2-neighbors and
//!   non-adjacent pairs share `< (1 − 1/(4k))∆²`.
//!
//! # Streaming memory model
//!
//! The exchange is a two-stage pipelined list protocol, and the second
//! stage (the d2-list / `S_v` exchange) is the memory hot spot of the
//! whole randomized pipeline: every port streams a `Θ(∆²)`-id list, so a
//! node that buffered all of them — as this module did before the
//! streaming fold — held `Θ(∆³)` identifiers (`∆ = 16`, `n = 10⁵`:
//! ~32 KiB per node, gigabytes per run). Nothing downstream ever reads
//! those lists; only the **pairwise intersection counts** matter.
//!
//! Arriving [`SimMsg::Batch`] ids therefore fold *streamingly* into a
//! pair counter: each source (one per port, plus the node's own set)
//! is a strictly increasing id stream, so an id can be counted — its
//! "run" closed, bumping the `k × k` common-count matrix for every source
//! pair containing it — as soon as every unfinished stream has advanced
//! past it. Per sync period the counter sorts the newly staged
//! `(id, source)` tags, merges every run at or below that frontier, and
//! keeps only the (small, in lockstep usually empty) unmergeable tail.
//! Computing the flags is then a finalization over `O(∆²)` counters
//! instead of a pass over `O(∆³)` buffered ids.
//!
//! What is still buffered, and for how long:
//!
//! * `first_lists` — the stage-1 lists (`Θ(∆)` ids per port), needed in
//!   full to form the node's own second-stage set; freed at the stage
//!   transition.
//! * `my_second` — the node's own `Θ(∆²)`-id set, retained while it
//!   pumps out (a cursor walks it; there is no send-queue copy).
//! * `counts` — the `(∆+1)²` `u32` matrix, the only stage-2 state that
//!   survives until finalization.
//! * `staged` — the unmerged tail of tagged ids, `O(∆ · batch)` while
//!   neighbors advance in lockstep (they do: every stream moves
//!   `batch` ids per sync), degrading gracefully toward the old
//!   buffered footprint only if a neighbor stalls a whole stage.
//!
//! Peak bytes per node: `≈ 8·∆² (my_second) + 4·(∆+1)² (counts) +
//! 8·∆·batch (staged)` — `Θ(∆²)` with small constants, versus the
//! buffered fold's `8·∆³`. The message schedule is untouched: the fold is
//! receiver-side bookkeeping only, so rounds and message counts are
//! bit-identical to the buffered reference (pinned by
//! `tests/similarity_reference.rs`, which keeps the buffered fold alive
//! in the test tree).

use congest::netplane::{Reader, Wire, WireError};
use congest::{
    BitCost, Inbox, Message, NodeCtx, NodeRng, Outbox, Port, Protocol, SmallIds, Status,
};
use rand::Rng;

/// The [`IdBatch`] inline capacity: batches at or under this length live
/// in the message itself, never on the heap.
pub const ID_BATCH_INLINE_CAP: usize = 32;

/// Inline-first identifier batch: the per-message capacity is
/// `⌊(p·B − 16) / ⌈log₂ n⌉⌋` identifiers for sync period `p` and budget
/// `B = max(8⌈log₂ n⌉, 64)` — at most 31 for every benchmark scale at
/// `p ≤ 4`, and the capacity computation clamps degenerate configurations
/// (tiny id widths under a large aggregated budget) to the inline cap,
/// so the pipelined exchange never allocates per message.
pub type IdBatch = SmallIds<u64, ID_BATCH_INLINE_CAP>;

/// Pairwise similarity flags at one node, over the `k = degree + 1`
/// indices `{0..degree} ∪ {self}`: indices `0..degree` are ports, index
/// `degree` is the node itself.
///
/// Stored as two row-major bit matrices (`⌈k/64⌉` words per row), which
/// keeps a node's knowledge at `Θ(∆²)` *bits* — it is cloned per
/// `Reduce` phase and held for the whole cascade, so the representation
/// matters at `n = 10⁵⁺`. The diagonal is always false.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimilarityKnowledge {
    k: usize,
    words: usize,
    h: Vec<u64>,
    hhat: Vec<u64>,
}

impl SimilarityKnowledge {
    /// All-false knowledge for a node of the given degree.
    #[must_use]
    pub fn empty(degree: usize) -> Self {
        let k = degree + 1;
        let words = k.div_ceil(64);
        SimilarityKnowledge {
            k,
            words,
            h: vec![0; k * words],
            hhat: vec![0; k * words],
        }
    }

    #[inline]
    fn get(&self, m: &[u64], a: usize, b: usize) -> bool {
        m[a * self.words + b / 64] & (1 << (b % 64)) != 0
    }

    #[inline]
    fn assign(words: usize, m: &mut [u64], a: usize, b: usize, val: bool) {
        let (w, bit) = (a * words + b / 64, 1u64 << (b % 64));
        if val {
            m[w] |= bit;
        } else {
            m[w] &= !bit;
        }
    }

    /// Sets the symmetric `H` / `Ĥ` flags for the pair `(a, b)`
    /// (`a ≠ b`; indices as in the struct docs).
    pub fn set_pair(&mut self, a: usize, b: usize, h: bool, hhat: bool) {
        debug_assert!(a != b && a < self.k && b < self.k);
        for (m, val) in [(&mut self.h, h), (&mut self.hhat, hhat)] {
            Self::assign(self.words, m, a, b, val);
            Self::assign(self.words, m, b, a, val);
        }
    }

    /// Whether the neighbors on ports `a` and `b` are `H`-adjacent.
    #[must_use]
    pub fn h_between_ports(&self, a: Port, b: Port) -> bool {
        self.get(&self.h, a as usize, b as usize)
    }

    /// Whether this node and its port-`a` neighbor are `H`-adjacent.
    #[must_use]
    pub fn h_with_self(&self, a: Port) -> bool {
        self.get(&self.h, self.k - 1, a as usize)
    }

    /// Whether the neighbors on ports `a` and `b` are `Ĥ`-adjacent.
    #[must_use]
    pub fn hhat_between_ports(&self, a: Port, b: Port) -> bool {
        self.get(&self.hhat, a as usize, b as usize)
    }

    /// Whether this node and its port-`a` neighbor are `Ĥ`-adjacent.
    #[must_use]
    pub fn hhat_with_self(&self, a: Port) -> bool {
        self.get(&self.hhat, self.k - 1, a as usize)
    }

    /// Number of this node's immediate neighbors that are `H`-neighbors.
    #[must_use]
    pub fn h_degree_immediate(&self) -> usize {
        let me = self.k - 1;
        self.h[me * self.words..(me + 1) * self.words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Iterates, in increasing order, the **ports** `b` whose pair with
    /// index `a` is `H`-adjacent (the self index is skipped) — the relay
    /// scan of the Lemma 2.3 sampling window walks these rows every slot,
    /// so it reads set bits instead of probing all `∆` ports.
    pub fn h_ports(&self, a: Port) -> impl Iterator<Item = Port> + '_ {
        let row = &self.h[a as usize * self.words..(a as usize + 1) * self.words];
        let degree = self.k - 1;
        row.iter().enumerate().flat_map(move |(wi, &w)| {
            std::iter::from_fn({
                let mut bits = w;
                move || {
                    while bits != 0 {
                        let b = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if b < degree {
                            return Some(b as Port);
                        }
                    }
                    None
                }
            })
        })
    }
}

/// Messages shared by both similarity constructions.
///
/// The size spread between `Batch` (inline payload) and the unit
/// variants is deliberate: the inline array is what makes the hot path
/// allocation-free, and a boxed batch would reintroduce the per-message
/// heap traffic this type exists to remove.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimMsg {
    /// "I am in the sample `S`."
    InS,
    /// Batch of identifiers from the sender's current list.
    Batch(IdBatch),
    /// The sender's current list is fully transmitted.
    End,
}

impl Message for SimMsg {
    fn bits(&self) -> u64 {
        let tag = BitCost::tag(3);
        match self {
            SimMsg::InS | SimMsg::End => tag,
            SimMsg::Batch(ids) => {
                tag + 8 + ids.iter().map(|&x| BitCost::uint(x).max(1)).sum::<u64>()
            }
        }
    }
}

impl Wire for SimMsg {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            SimMsg::InS => buf.push(0),
            SimMsg::Batch(ids) => {
                buf.push(1);
                ids.put(buf);
            }
            SimMsg::End => buf.push(2),
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::take(r)? {
            0 => SimMsg::InS,
            1 => SimMsg::Batch(IdBatch::take(r)?),
            2 => SimMsg::End,
            tag => {
                return Err(WireError::BadTag {
                    what: "SimMsg",
                    tag,
                })
            }
        })
    }
}

/// Crossed between shards when the similarity phase returns its rows
/// ([`Driver::run_phase`](crate::Driver::run_phase)); the flag words are
/// shipped verbatim and re-validated against `k` on decode.
impl Wire for SimilarityKnowledge {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.k as u64).put(buf);
        self.h.put(buf);
        self.hhat.put(buf);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let k = usize::try_from(u64::take(r)?).unwrap_or(usize::MAX);
        let words = k.div_ceil(64);
        let h = Vec::<u64>::take(r)?;
        let hhat = Vec::<u64>::take(r)?;
        let expect = k.checked_mul(words);
        if expect != Some(h.len()) || expect != Some(hhat.len()) {
            return Err(WireError::BadLength {
                claimed: k,
                available: h.len().min(hhat.len()),
            });
        }
        Ok(SimilarityKnowledge { k, words, h, hhat })
    }
}

/// Internal per-node phases of the exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Sending the first list (neighbor IDs / `S ∩ N[u]`).
    First,
    /// Sending the second list (d2 set / `S_v`).
    Second,
    /// Everything exchanged; flags computed.
    Finished,
}

/// Streaming pairwise-intersection counter over `k` strictly increasing
/// id streams: one per port, plus the node's own set at index `k − 1`.
///
/// Remote ids are staged as packed `(id << src_bits) | source` tags; once
/// every unfinished stream has advanced past an id (the *frontier*), all
/// of that id's tags are adjacent in the sorted stage and its source set
/// bumps `counts[a·k + b]` for every pair `a < b` it contains. The node's
/// own set — fully known from the stage transition — is never staged: a
/// cursor merge-joins it against the runs, so `staged` holds only the
/// in-flight tail of the remote streams. The sort-and-scan shape is the
/// same one that replaced the `O(deg²·∆²)` pairwise merges in PR 4 — but
/// run incrementally, so no remote stream is ever buffered whole, and
/// with *source indices* instead of a one-word bitmask, so it has no
/// 64-source ceiling (degrees above 63 keep the fast path; the buffered
/// reference's fallback covers them only in the test tree).
#[derive(Debug, Clone)]
struct PairCounter {
    k: usize,
    src_bits: u32,
    /// `k × k` common counts; only the `a < b` triangle is maintained.
    counts: Vec<u32>,
    /// Packed `(id << src_bits) | source` tags not yet counted;
    /// `sorted_len` of them (the unmerged tail of the previous pass) are
    /// already in order.
    staged: Tags,
    sorted_len: usize,
    /// Highest id received per remote source (valid where `seen`).
    hi: Vec<u64>,
    seen: Vec<bool>,
    done: Vec<bool>,
    /// Cursor into the self stream (provided by the caller at merge
    /// time; the counter never owns a copy).
    self_cur: usize,
    /// Whether the self stream is available yet — before the node's own
    /// stage transition nothing may merge (its members are unknown).
    self_ready: bool,
    /// Scratch: the (distinct, increasing) sources of the current run.
    run_srcs: Vec<u32>,
    dirty: bool,
}

/// The staged-tag store: identifiers are node ids `< n` (the simulator
/// assigns a permutation of `0..n`), so `id_bits(n) + src_bits ≤ 32` at
/// every benchmark scale and tags pack into `u32` — half the bytes of
/// the buffer that dominates the exchange's steady-state footprint. A
/// tag that would not fit migrates the store to `u64` words once
/// (reachable only at `n` in the tens of millions).
#[derive(Debug, Clone)]
enum Tags {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Tags {
    fn len(&self) -> usize {
        match self {
            Tags::Narrow(v) => v.len(),
            Tags::Wide(v) => v.len(),
        }
    }

    fn reserve_total(&mut self, target: usize) {
        let (len, cap) = match self {
            Tags::Narrow(v) => (v.len(), v.capacity()),
            Tags::Wide(v) => (v.len(), v.capacity()),
        };
        if cap < target {
            match self {
                Tags::Narrow(v) => v.reserve_exact(target - len),
                Tags::Wide(v) => v.reserve_exact(target - len),
            }
        }
    }

    /// Appends pre-packed tags, migrating to wide words when `largest`
    /// (the batch's maximal tag, since streams ascend) does not fit.
    fn extend_packed(&mut self, tags: impl Iterator<Item = u64> + Clone, largest: u64) {
        match self {
            Tags::Narrow(v) if largest <= u64::from(u32::MAX) => {
                v.extend(tags.map(|t| t as u32));
            }
            Tags::Narrow(v) => {
                let mut wide: Vec<u64> = Vec::with_capacity(v.capacity().max(v.len() + 16));
                wide.extend(v.iter().map(|&t| u64::from(t)));
                wide.extend(tags);
                *self = Tags::Wide(wide);
            }
            Tags::Wide(v) => v.extend(tags),
        }
    }
}

/// One packed staged tag: `(id << src_bits) | source` in a `u32` or
/// `u64` word. Ordering by the raw word is ordering by id first.
trait TagWord: Copy + Ord {
    fn id(self, src_bits: u32) -> u64;
    fn src(self, src_bits: u32) -> u32;
}

impl TagWord for u32 {
    fn id(self, src_bits: u32) -> u64 {
        u64::from(self >> src_bits)
    }
    fn src(self, src_bits: u32) -> u32 {
        self & ((1 << src_bits) - 1)
    }
}

impl TagWord for u64 {
    fn id(self, src_bits: u32) -> u64 {
        self >> src_bits
    }
    fn src(self, src_bits: u32) -> u32 {
        (self & ((1 << src_bits) - 1)) as u32
    }
}

/// The frontier merge over one staged-tag store: sorts the appended tail
/// (the leftover prefix stays sorted between passes), closes every run
/// at or below `frontier` — merge-joining the self stream through its
/// cursor — and compacts the leftover tail to the front. Free function
/// so both tag widths share the exact same logic.
#[allow(clippy::too_many_arguments)]
fn merge_tags<T: TagWord>(
    staged: &mut Vec<T>,
    sorted_len: usize,
    counts: &mut [u32],
    run_srcs: &mut Vec<u32>,
    self_cur: &mut usize,
    self_stream: &[u64],
    frontier: u64,
    k: usize,
    src_bits: u32,
) {
    if sorted_len < staged.len() {
        staged.sort_unstable();
    }
    let cut = staged.partition_point(|&e| e.id(src_bits) <= frontier);
    let self_src = (k - 1) as u32;
    let mut i = 0;
    while i < cut {
        let id = staged[i].id(src_bits);
        run_srcs.clear();
        while i < cut && staged[i].id(src_bits) == id {
            run_srcs.push(staged[i].src(src_bits));
            i += 1;
        }
        // Merge-join the self stream: its ids below the run close as
        // singletons (nothing to count), an equal id joins the run.
        while *self_cur < self_stream.len() && self_stream[*self_cur] < id {
            *self_cur += 1;
        }
        if *self_cur < self_stream.len() && self_stream[*self_cur] == id {
            run_srcs.push(self_src);
            *self_cur += 1;
        }
        // Streams are strictly increasing, so the run's sources are
        // distinct and ascending; count every pair (a < b).
        for (x, &a) in run_srcs.iter().enumerate() {
            for &b in &run_srcs[x + 1..] {
                counts[a as usize * k + b as usize] += 1;
            }
        }
    }
    // Self ids at or below the frontier without a staged partner can
    // never gain one: close them as singletons too.
    while *self_cur < self_stream.len() && self_stream[*self_cur] <= frontier {
        *self_cur += 1;
    }
    staged.copy_within(cut.., 0);
    staged.truncate(staged.len() - cut);
}

impl PairCounter {
    fn new(degree: usize) -> Self {
        let k = degree + 1;
        let src_bits = (u64::BITS - (k.saturating_sub(1) as u64).leading_zeros()).max(1);
        PairCounter {
            k,
            src_bits,
            counts: vec![0; k * k],
            staged: Tags::Narrow(Vec::new()),
            sorted_len: 0,
            hi: vec![0; k],
            seen: vec![false; k],
            done: vec![false; k],
            self_cur: 0,
            self_ready: false,
            run_srcs: Vec::with_capacity(k),
            dirty: false,
        }
    }

    /// Folds the next batch of remote stream `src`. Ids must continue the
    /// stream strictly increasingly (the senders pump sorted-deduplicated
    /// lists, so this holds by construction).
    fn push_source(&mut self, src: usize, ids: &[u64]) {
        debug_assert!(src < self.k - 1, "the self stream is never staged");
        debug_assert!(!self.done[src], "batch after End from source {src}");
        let Some(&last) = ids.last() else { return };
        debug_assert!(
            !self.seen[src] || ids[0] > self.hi[src],
            "source {src} stream is not strictly increasing"
        );
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(
            last < 1u64 << (64 - self.src_bits),
            "id overflows the tag packing"
        );
        let src_tag = src as u64;
        let bits = self.src_bits;
        self.staged.extend_packed(
            ids.iter().map(move |&id| (id << bits) | src_tag),
            (last << bits) | src_tag,
        );
        self.hi[src] = last;
        self.seen[src] = true;
        self.dirty = true;
    }

    /// Marks remote stream `src` complete.
    fn finish_source(&mut self, src: usize) {
        self.done[src] = true;
        self.dirty = true;
    }

    /// Declares the self stream available (whole, sorted) and pre-grows
    /// the stage to its steady-state high-water mark — one sync period of
    /// remote arrivals in flight on top of one period's unmerged tail
    /// plus the end-game spread between stream lengths — so the pipelined
    /// rounds that follow stay allocation-free.
    fn set_self_ready(&mut self, degree: usize, per_batch: usize) {
        self.self_ready = true;
        self.dirty = true;
        self.staged.reserve_total(degree * (per_batch * 2 + 8));
    }

    /// Whether every remote stream (sources `0..k−1`) has finished.
    fn remote_sources_done(&self) -> bool {
        self.done[..self.k - 1].iter().all(|&d| d)
    }

    /// Merges every staged id at or below the safe frontier — the
    /// smallest last-received id over unfinished remote streams; ids
    /// beyond it could still gain members. No-op until something changed.
    fn drain_ready(&mut self, self_stream: &[u64]) {
        if !self.dirty || !self.self_ready {
            return;
        }
        self.dirty = false;
        let mut frontier = u64::MAX;
        for s in 0..self.k - 1 {
            if !self.done[s] {
                if !self.seen[s] {
                    return; // a silent stream bounds nothing yet
                }
                frontier = frontier.min(self.hi[s]);
            }
        }
        self.merge_upto(frontier, self_stream);
    }

    fn merge_upto(&mut self, frontier: u64, self_stream: &[u64]) {
        match &mut self.staged {
            Tags::Narrow(v) => merge_tags(
                v,
                self.sorted_len,
                &mut self.counts,
                &mut self.run_srcs,
                &mut self.self_cur,
                self_stream,
                frontier,
                self.k,
                self.src_bits,
            ),
            Tags::Wide(v) => merge_tags(
                v,
                self.sorted_len,
                &mut self.counts,
                &mut self.run_srcs,
                &mut self.self_cur,
                self_stream,
                frontier,
                self.k,
                self.src_bits,
            ),
        }
        self.sorted_len = self.staged.len();
    }

    /// Finalization: merges the remaining tail (every stream must be
    /// done) and thresholds the counters into pair flags.
    fn finalize_into(
        &mut self,
        knowledge: &mut SimilarityKnowledge,
        self_stream: &[u64],
        h: f64,
        hhat: f64,
    ) {
        debug_assert!(
            self.self_ready && self.remote_sources_done(),
            "finalize before every End"
        );
        self.merge_upto(u64::MAX, self_stream);
        debug_assert!(self.staged.len() == 0);
        for a in 0..self.k {
            for b in (a + 1)..self.k {
                let common = f64::from(self.counts[a * self.k + b]);
                knowledge.set_pair(a, b, common >= h, common >= hhat);
            }
        }
    }
}

/// Per-node state shared by both constructions.
#[derive(Debug, Clone)]
pub struct SimilarityState {
    /// The computed pair flags (valid once finished).
    pub knowledge: SimilarityKnowledge,
    /// Whether this node joined the sample (sampled variant only).
    pub in_sample: bool,
    /// `|S_v|` (sampled) or `|N²(v)|` (exact) — the set whose pipelining
    /// dominates the round count; reported by experiments.
    pub set_size: usize,
    stage: Stage,
    /// Cursor into the list currently being pumped (`my_first`, then
    /// `my_second`) — there is no send-queue copy of either list.
    sent: usize,
    sent_end: bool,
    first_lists: Vec<Vec<u64>>,
    first_done: Vec<bool>,
    counter: PairCounter,
    my_first: Vec<u64>,
    my_second: Vec<u64>,
}

impl SimilarityState {
    fn new(degree: usize) -> Self {
        SimilarityState {
            knowledge: SimilarityKnowledge::empty(degree),
            in_sample: false,
            set_size: 0,
            stage: Stage::First,
            sent: 0,
            sent_end: false,
            first_lists: vec![Vec::new(); degree],
            first_done: vec![false; degree],
            counter: PairCounter::new(degree),
            my_first: Vec::new(),
            my_second: Vec::new(),
        }
    }

    /// Folds arrivals: stage-1 batches buffer (the node's own second set
    /// is their union), stage-2 batches stream into the pair counter.
    fn fold_inbox(&mut self, inbox: &Inbox<SimMsg>) {
        for &(p, ref m) in inbox.iter() {
            let p = p as usize;
            match m {
                SimMsg::InS => {}
                SimMsg::Batch(ids) => {
                    if self.first_done[p] {
                        self.counter.push_source(p, ids.as_slice());
                    } else {
                        self.first_lists[p].extend_from_slice(ids.as_slice());
                    }
                }
                SimMsg::End => {
                    if self.first_done[p] {
                        self.counter.finish_source(p);
                    } else {
                        self.first_done[p] = true;
                    }
                }
            }
        }
        self.counter.drain_ready(&self.my_second);
    }

    /// Enters the second stage with the given (sorted, deduplicated) own
    /// set: it becomes both the counter's self stream (merge-joined in
    /// place, never staged) and the next pump payload. The stage-1
    /// buffers (`first_lists`, `my_first`) are dead weight from here on
    /// and are freed, and the set is shrunk to fit — it lives for the
    /// whole stage at every node simultaneously, so its capacity slack
    /// is a process-wide cost.
    fn begin_second(&mut self, degree: usize, per_batch: usize, mut set: Vec<u64>) {
        set.shrink_to_fit();
        self.set_size = set.len();
        self.my_second = set;
        self.counter.set_self_ready(degree, per_batch);
        self.first_lists = Vec::new();
        self.my_first = Vec::new();
        self.sent = 0;
        self.sent_end = false;
        self.stage = Stage::Second;
    }

    /// Pipelines the current list through its cursor in batches; emits
    /// `End` once drained.
    fn pump<F: FnMut(Port, SimMsg)>(&mut self, degree: usize, per_batch: usize, send: &mut F) {
        if self.sent_end {
            return;
        }
        let list = match self.stage {
            Stage::First => &self.my_first,
            Stage::Second => &self.my_second,
            Stage::Finished => return,
        };
        if self.sent >= list.len() {
            for p in 0..degree as Port {
                send(p, SimMsg::End);
            }
            self.sent_end = true;
            return;
        }
        let take = per_batch.min(list.len() - self.sent);
        // Build the batch straight from the cursor: always inline (no
        // heap) since the capacity is clamped to the inline cap; cloning
        // an inline batch is a memcpy.
        let batch = IdBatch::from_slice(&list[self.sent..self.sent + take]);
        debug_assert!(batch.is_inline(), "clamped batch capacity must stay inline");
        self.sent += take;
        // Clone for all ports but the last; the final send moves the batch.
        for p in 0..degree.saturating_sub(1) as Port {
            send(p, SimMsg::Batch(batch.clone()));
        }
        if degree > 0 {
            send(degree as Port - 1, SimMsg::Batch(batch));
        }
    }

    /// Thresholds the streamed pairwise intersection counts — a
    /// finalization over the `k × k` counters, not a data pass.
    fn compute_flags(&mut self, h_thresh: f64, hhat_thresh: f64) {
        self.counter
            .finalize_into(&mut self.knowledge, &self.my_second, h_thresh, hhat_thresh);
    }
}

fn sorted_dedup(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Per-message id capacity under `budget` bits, clamped to the
/// [`IdBatch`] inline cap: a larger value would silently spill
/// `SmallIds` to the heap and break the zero-allocation round invariant
/// (reachable with tiny `⌈log₂ n⌉` under an aggregated `p·B` budget).
fn id_batch_capacity(budget: u64, n: usize) -> usize {
    let cap = ((budget.saturating_sub(16)) / graphs::id_bits(n).max(1)).max(1) as usize;
    cap.min(ID_BATCH_INLINE_CAP)
}

/// Exact construction: exchange full d2-neighborhoods (used when
/// `∆² = O(log n)`, as the paper prescribes, and as the ground truth in
/// Theorem 2.2 tests).
#[derive(Debug)]
pub struct ExactSimilarity {
    /// `H` threshold as a fraction of `∆²` (paper: 2/3).
    pub h_frac: f64,
    /// `Ĥ` threshold as a fraction of `∆²` (paper: 5/6).
    pub hhat_frac: f64,
    budget: u64,
    period: u64,
}

impl ExactSimilarity {
    /// Standard thresholds (2/3, 5/6) with the given bandwidth budget and
    /// the classic every-round schedule.
    #[must_use]
    pub fn new(budget: u64) -> Self {
        ExactSimilarity {
            h_frac: 2.0 / 3.0,
            hhat_frac: 5.0 / 6.0,
            budget,
            period: 1,
        }
    }

    /// Declares a [`Protocol::sync_period`] of `p`: the pipelined list
    /// exchange packs `p` rounds of identifiers per message and the
    /// engines synchronize once per `p` rounds. `p = 1` is the classic
    /// schedule; any value is bit-identical across engines.
    #[must_use]
    pub fn with_period(mut self, p: u64) -> Self {
        self.period = p.max(1);
        self
    }
}

impl Protocol for ExactSimilarity {
    type State = SimilarityState;
    type Msg = SimMsg;

    fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> SimilarityState {
        let mut st = SimilarityState::new(ctx.degree());
        st.my_first = sorted_dedup(
            ctx.neighbor_idents()
                .iter()
                .copied()
                .chain([ctx.ident])
                .collect(),
        );
        st
    }

    fn sync_period(&self) -> u64 {
        self.period
    }

    fn round(
        &self,
        st: &mut SimilarityState,
        ctx: &NodeCtx,
        _rng: &mut NodeRng,
        inbox: &Inbox<SimMsg>,
        out: &mut Outbox<SimMsg>,
    ) -> Status {
        let degree = ctx.degree();
        let per_batch = id_batch_capacity(self.budget.saturating_mul(self.period), ctx.n);
        // Arrivals land one round after a communication round (a silent
        // round under p > 1), so folding happens every round; sending and
        // stage transitions only at communication rounds.
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
                    let total: usize =
                        st.first_lists.iter().map(Vec::len).sum::<usize>() + st.my_first.len();
                    let mut d2: Vec<u64> = Vec::with_capacity(total);
                    for list in &st.first_lists {
                        d2.extend_from_slice(list);
                    }
                    d2.extend_from_slice(&st.my_first);
                    let mut d2 = sorted_dedup(d2);
                    if let Ok(i) = d2.binary_search(&ctx.ident) {
                        d2.remove(i);
                    }
                    st.begin_second(degree, per_batch, d2);
                }
                Status::Running
            }
            Stage::Second => {
                st.pump(degree, per_batch, &mut |p, m| out.send(p, m));
                if st.sent_end && st.counter.remote_sources_done() {
                    // Normalize by the effective d2-degree bound: on small
                    // dense graphs n−1 < ∆² and the paper's ∆²-relative
                    // thresholds would mark nothing similar.
                    let dsq = (ctx.delta_sq().min(ctx.n.saturating_sub(1)) as f64).max(1.0);
                    st.compute_flags(self.h_frac * dsq, self.hhat_frac * dsq);
                    st.stage = Stage::Finished;
                    return Status::Done;
                }
                Status::Running
            }
            Stage::Finished => Status::Done,
        }
    }
}

/// Sampled construction (`p = c₁₀ log n / ∆²`), §2.3.
#[derive(Debug)]
pub struct SampledSimilarity {
    /// Sampling probability.
    pub p: f64,
    /// Expected sample hits per d2-neighborhood: `p · ∆²`.
    pub expected_hits: f64,
    budget: u64,
    period: u64,
}

impl SampledSimilarity {
    /// Builds with sampling probability `p` for a graph with the given
    /// `∆²`, on the classic every-round schedule.
    #[must_use]
    pub fn new(p: f64, delta_sq: usize, budget: u64) -> Self {
        SampledSimilarity {
            p,
            expected_hits: p * delta_sq as f64,
            budget,
            period: 1,
        }
    }

    /// Declares a [`Protocol::sync_period`] of `p` (see
    /// [`ExactSimilarity::with_period`]).
    #[must_use]
    pub fn with_period(mut self, p: u64) -> Self {
        self.period = p.max(1);
        self
    }
}

impl Protocol for SampledSimilarity {
    type State = SimilarityState;
    type Msg = SimMsg;

    fn init(&self, ctx: &NodeCtx, rng: &mut NodeRng) -> SimilarityState {
        let mut st = SimilarityState::new(ctx.degree());
        st.in_sample = rng.gen_bool(self.p.clamp(0.0, 1.0));
        st
    }

    fn sync_period(&self) -> u64 {
        self.period
    }

    fn round(
        &self,
        st: &mut SimilarityState,
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
            // First list: S ∩ N[v] — sampled neighbors heard just now,
            // plus myself if sampled. Local computation, so it runs at
            // round 1 even when that round is silent under p > 1.
            let mut list: Vec<u64> = inbox
                .iter()
                .filter(|(_, m)| matches!(m, SimMsg::InS))
                .map(|&(p, _)| ctx.neighbor_idents()[p as usize])
                .collect();
            if st.in_sample {
                list.push(ctx.ident);
            }
            st.my_first = sorted_dedup(list);
            st.sent = 0;
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
                    let total: usize = st.first_lists.iter().map(Vec::len).sum();
                    let mut sv: Vec<u64> = Vec::with_capacity(total);
                    for list in &st.first_lists {
                        sv.extend_from_slice(list);
                    }
                    let mut sv = sorted_dedup(sv);
                    if let Ok(i) = sv.binary_search(&ctx.ident) {
                        sv.remove(i);
                    }
                    st.begin_second(degree, per_batch, sv);
                }
                Status::Running
            }
            Stage::Second => {
                st.pump(degree, per_batch, &mut |p, m| out.send(p, m));
                if st.sent_end && st.counter.remote_sources_done() {
                    let m = self.expected_hits;
                    st.compute_flags(5.0 / 6.0 * m, 11.0 / 12.0 * m);
                    st.stage = Stage::Finished;
                    return Status::Done;
                }
                Status::Running
            }
            Stage::Finished => Status::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::SimConfig;
    use graphs::gen;

    fn exact_knowledge(g: &graphs::Graph, cfg: &SimConfig) -> Vec<SimilarityState> {
        let proto = ExactSimilarity::new(cfg.bandwidth_bits(g.n()));
        congest::run(g, &proto, cfg).unwrap().states
    }

    /// On a clique, everyone shares all d2-neighbors: H = Ĥ = G².
    #[test]
    fn clique_is_fully_similar() {
        let g = gen::clique(8);
        let states = exact_knowledge(&g, &SimConfig::seeded(1));
        for st in &states {
            for a in 0..7u32 {
                assert!(st.knowledge.h_with_self(a));
                assert!(st.knowledge.hhat_with_self(a));
            }
            assert_eq!(st.knowledge.h_degree_immediate(), 7);
        }
    }

    /// Exact flags must match centralized common-d2-neighbor counts
    /// (queried through the allocation-free [`graphs::D2View`] oracle).
    #[test]
    fn exact_flags_match_centralized_counts() {
        let g = gen::gnp_capped(40, 0.15, 5, 8);
        let view = graphs::D2View::build(&g);
        let cfg = SimConfig::seeded(2);
        let states = exact_knowledge(&g, &cfg);
        let dsq = (g.max_degree() * g.max_degree()).min(g.n() - 1);
        for w in 0..g.n() as u32 {
            let st = &states[w as usize];
            let nbrs = g.neighbors(w);
            for (ai, &a) in nbrs.iter().enumerate() {
                let common = view.common_d2(w, a);
                let expect_h = common as f64 >= 2.0 / 3.0 * dsq as f64;
                assert_eq!(
                    st.knowledge.h_with_self(ai as Port),
                    expect_h,
                    "pair ({w},{a}): common={common}"
                );
                for (bi, &b) in nbrs.iter().enumerate().skip(ai + 1) {
                    let common = view.common_d2(a, b);
                    let expect = common as f64 >= 2.0 / 3.0 * dsq as f64;
                    assert_eq!(
                        st.knowledge.h_between_ports(ai as Port, bi as Port),
                        expect,
                        "pair ({a},{b}) at {w}: common={common}"
                    );
                }
            }
        }
    }

    /// Degrees above 63 take the same streaming path (the counter tags
    /// sources by index, not by one-word bitmask): a 70-leaf star's
    /// center has k = 71 pair indices, and its flags must still match
    /// the centralized oracle exactly.
    #[test]
    fn high_degree_streaming_matches_centralized_counts() {
        let g = gen::star(70);
        let view = graphs::D2View::build(&g);
        let states = exact_knowledge(&g, &SimConfig::seeded(4));
        let dsq = (g.max_degree() * g.max_degree()).min(g.n() - 1);
        let center = (0..g.n() as u32)
            .find(|&v| g.neighbors(v).len() == 70)
            .expect("star center");
        let st = &states[center as usize];
        let nbrs = g.neighbors(center);
        for (ai, &a) in nbrs.iter().enumerate() {
            for (bi, &b) in nbrs.iter().enumerate().skip(ai + 1) {
                let expect = view.common_d2(a, b) as f64 >= 2.0 / 3.0 * dsq as f64;
                assert_eq!(
                    st.knowledge.h_between_ports(ai as Port, bi as Port),
                    expect,
                    "pair ({a},{b}) at center"
                );
            }
        }
    }

    /// Theorem 2.2: sampled flags agree with exact counts outside the
    /// uncertainty band.
    #[test]
    fn sampled_flags_respect_theorem_2_2() {
        let g = gen::clique_ring(3, 9);
        let view = graphs::D2View::build(&g);
        let cfg = SimConfig::seeded(5);
        let dsq = (g.max_degree() * g.max_degree()).min(g.n() - 1);
        // p = 1 makes the sampled counts exact: the theorem's
        // separation must then hold deterministically.
        let proto = SampledSimilarity::new(1.0, dsq, cfg.bandwidth_bits(g.n()));
        let res = congest::run(&g, &proto, &cfg).unwrap();
        for w in 0..g.n() as u32 {
            let st = &res.states[w as usize];
            let nbrs = g.neighbors(w);
            for (ai, &a) in nbrs.iter().enumerate() {
                let common = view.common_d2(w, a) as f64;
                if common >= 0.95 * dsq as f64 {
                    assert!(
                        st.knowledge.h_with_self(ai as Port),
                        "clearly-similar pair ({w},{a}) missing from H"
                    );
                }
                if common < 0.55 * dsq as f64 {
                    assert!(
                        !st.knowledge.h_with_self(ai as Port),
                        "clearly-dissimilar pair ({w},{a}) wrongly in H"
                    );
                }
            }
        }
        assert!(res.metrics.is_congest_compliant());
    }

    /// Property test: across randomized lengths straddling the inline
    /// cap, the `SimMsg::Batch` payload is bits-identical and
    /// round-trip-identical whatever its representation — and matches the
    /// old `Vec<u64>` payload's accounting (tag + 8-bit length + binary
    /// id lengths).
    #[test]
    fn batch_bits_and_roundtrip_are_representation_invariant() {
        use congest::SmallIds;
        use rand::prelude::*;
        let mut r = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for _ in 0..200 {
            let len = r.gen_range(0..48); // the inline cap is 32
            let ids: Vec<u64> = (0..len).map(|_| r.gen_range(0..1u64 << 40)).collect();
            let inline_or_not = IdBatch::from_slice(&ids);
            let spilled: IdBatch = SmallIds::Spilled(ids.clone());
            assert_eq!(inline_or_not, spilled, "round-trip mismatch at len {len}");
            assert_eq!(inline_or_not.as_slice(), ids.as_slice());
            assert_eq!(inline_or_not.is_inline(), len <= 32);
            let a = SimMsg::Batch(inline_or_not).bits();
            let b = SimMsg::Batch(spilled).bits();
            let legacy = congest::BitCost::tag(3)
                + 8
                + ids
                    .iter()
                    .map(|&x| congest::BitCost::uint(x).max(1))
                    .sum::<u64>();
            assert_eq!(a, b, "bits depend on representation at len {len}");
            assert_eq!(a, legacy, "bits diverged from the Vec-payload formula");
        }
    }

    /// The per-message capacity is clamped to the inline cap: a
    /// degenerate budget (huge aggregated `p·B`, tiny id width) must not
    /// spill `SmallIds` to the heap.
    #[test]
    fn id_batch_capacity_never_exceeds_inline_cap() {
        // n = 100 → 7-bit ids; p·B = 4 · 64 = 256 → unclamped 34 > 32.
        assert_eq!(id_batch_capacity(256, 100), ID_BATCH_INLINE_CAP);
        // Degenerate extreme: 2-node graphs have 1-bit ids.
        assert_eq!(id_batch_capacity(1 << 20, 2), ID_BATCH_INLINE_CAP);
        // Realistic scales stay under the cap untouched.
        assert_eq!(id_batch_capacity(160, 100_000), (160 - 16) / 17);
        assert!(id_batch_capacity(0, 2) >= 1, "capacity has a floor of 1");
    }

    /// The streaming counter must count exactly like a centralized
    /// intersection pass, whatever the interleaving: feed random sorted
    /// streams in randomized chunk sizes and compare against direct counts.
    #[test]
    fn pair_counter_matches_direct_intersections() {
        use rand::prelude::*;
        let mut r = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for trial in 0..30 {
            let k = r.gen_range(1..9usize);
            let sets: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let len = r.gen_range(0..40);
                    sorted_dedup((0..len).map(|_| r.gen_range(0..60u64)).collect())
                })
                .collect();
            let mut pc = PairCounter::new(k - 1);
            let mut cursors = vec![0usize; k];
            let self_set = sets[k - 1].clone();
            // The self stream arrives whole, like begin_second declares it
            // — at a random point, so merges both before and after its
            // availability are exercised.
            let mut self_declared = false;
            let mut open: Vec<usize> = (0..k - 1).collect();
            while !open.is_empty() {
                if !self_declared && r.gen_bool(0.3) {
                    pc.set_self_ready(k - 1, 7);
                    self_declared = true;
                }
                let pick = open[r.gen_range(0..open.len())];
                let rest = sets[pick].len() - cursors[pick];
                if rest == 0 {
                    pc.finish_source(pick);
                    open.retain(|&s| s != pick);
                } else {
                    let take = r.gen_range(1..=rest.min(7));
                    pc.push_source(pick, &sets[pick][cursors[pick]..cursors[pick] + take]);
                    cursors[pick] += take;
                }
                pc.drain_ready(&self_set);
            }
            if !self_declared {
                pc.set_self_ready(k - 1, 7);
            }
            let mut know = SimilarityKnowledge::empty(k - 1);
            // Threshold at 2.5: flags encode "count >= 2.5" per pair.
            pc.finalize_into(&mut know, &self_set, 2.5, 4.5);
            for a in 0..k {
                for b in (a + 1)..k {
                    let direct = sets[a]
                        .iter()
                        .filter(|x| sets[b].binary_search(x).is_ok())
                        .count();
                    let (ap, bp) = (a.min(b), a.max(b));
                    let got_h = if bp == k - 1 {
                        know.h_with_self(ap as Port)
                    } else {
                        know.h_between_ports(ap as Port, bp as Port)
                    };
                    assert_eq!(
                        got_h,
                        direct as f64 >= 2.5,
                        "trial {trial}: pair ({a},{b}) direct={direct}"
                    );
                }
            }
        }
    }

    /// Both constructions terminate on degenerate inputs.
    #[test]
    fn degenerate_graphs() {
        for g in [gen::empty(4), gen::path(2)] {
            let cfg = SimConfig::seeded(3);
            let a = exact_knowledge(&g, &cfg);
            assert_eq!(a.len(), g.n());
            let proto = SampledSimilarity::new(0.5, 4, cfg.bandwidth_bits(g.n()));
            let b = congest::run(&g, &proto, &cfg).unwrap();
            assert_eq!(b.states.len(), g.n());
        }
    }
}
