//! Precomputed distance-2 neighborhood oracle in CSR form.
//!
//! # The oracle/distributed boundary
//!
//! The entire point of Halldórsson–Kuhn–Maus (PODC 2020) is that a CONGEST
//! node **cannot** afford to materialize its distance-2 neighborhood: it is
//! `∆²` identifiers behind `O(log n)`-bit pipes. The *distributed
//! algorithms* in this repository therefore never see `G²` or any
//! [`D2View`] — they only exchange messages through the simulator.
//!
//! The *centralized* side is a different story. The verifier, churn's
//! damage detection, the greedy reference coloring and the test suites
//! all read distance-2 neighborhoods, often in loops over every node (or
//! every pair, for the similarity ground truth), and [`D2View`] is where
//! they read them. One `O(Σ_v deg²(v))` construction, after which every
//! query is allocation-free:
//!
//! * [`D2View::d2_neighbors`] — a borrowed sorted slice,
//! * [`D2View::common_d2`] — a linear merge over two rows.
//!
//! The rows are stored in CSR segments: one offsets array and one flat,
//! sorted `NodeId` array (the layout of [`Graph`] itself) per contiguous
//! range of rows. [`D2View::build`] cuts the rows into ranges of about
//! equal work and builds each on a scoped thread into a segment of its
//! own; a graph too small to pay for a thread is one segment, built on
//! the calling thread. A row's segment is found by a binary search over
//! the segments' first rows, of which there are at most
//! [`std::thread::available_parallelism`]. The rows are the same however
//! they were split.
//!
//! Build the view **once per graph** (the harness, drivers, and test
//! helpers do) and pass it to every consumer. [`Graph::are_d2_neighbors`]
//! answers one pair without a view.

use crate::{Graph, NodeId};
use std::ops::Range;

/// Fewest gathered entries per worker in [`D2View::build`]: a graph whose
/// rows gather fewer than twice this many is built on the calling thread
/// alone.
///
/// Measured on a 2-vCPU host, 400 interleaved one- and two-worker builds
/// of each of 13 random-regular graphs (`d` = 4, 8, 16), medians: two
/// workers took 1.58× and 1.27× the one-worker time at 4,608 and 9,216
/// gathered entries (starting a thread costs about 40 µs, some 2,000
/// entries' work), 0.92–0.93× near 18,000, and 0.57–0.85× from 34,752
/// on. The cut sits where the measured gain was at least 15%. To
/// re-derive it, time `build_split(g, 1)` against `build_split(g, 2)`
/// over a size sweep the same way.
const MIN_WORKER_GATHER: usize = 1 << 14;

/// Precomputed distance-2 neighborhoods of every node, in CSR form.
///
/// Row `v` is the sorted set of nodes at distance 1 or 2 from `v`,
/// excluding `v` itself — exactly the adjacency of `v` in `G²`.
#[derive(Debug, Clone)]
pub struct D2View {
    /// One segment per row range of the build, in row order.
    segments: Vec<Segment>,
    max_d2_degree: usize,
}

/// The rows of one range of [`D2View::build`]: row `first + i` is
/// `flat[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
struct Segment {
    first: usize,
    offsets: Vec<usize>,
    flat: Vec<NodeId>,
}

impl D2View {
    /// Builds the view in `O(Σ_v deg²(v))` work: row `v` is gathered
    /// (each neighbor and its row), then sorted and deduplicated.
    ///
    /// **Row split.** The rows are cut into `k` contiguous ranges of about
    /// equal gathered work (`deg(v)·(deg(v) + 1)` charged to row `v`;
    /// these sum to the entries all rows gather), built at once under
    /// [`std::thread::scope`], the last range on the calling thread. `k`
    /// is [`std::thread::available_parallelism`], capped so that each
    /// worker gathers at least 16,384 entries (`MIN_WORKER_GATHER`,
    /// measured on a 2-vCPU host: two workers lost below about 18,000
    /// gathered entries and won by 15% or more from about 35,000). A
    /// graph whose rows gather fewer than 32,768 entries is therefore
    /// built with `k` = 1 and starts no thread. The rows are the same for
    /// every `k`.
    ///
    /// **Segments.** Each range appends its rows straight into its own
    /// segment. Its buffer is reserved once, before the first row, to the
    /// entries its rows gather (`deg(v) + Σ_{u ∈ N(v)} deg(u)` for row
    /// `v`) times the share of gathered entries that rows keep, plus a
    /// sixteenth. Rows keep from nearly all they gather (locally
    /// tree-like graphs) down to about one in `∆` (unions of cliques), so
    /// that share is measured on at most 64 evenly spaced rows. A range
    /// whose rows keep a larger share than the sample grows its buffer as
    /// a `Vec` grows, and a buffer that ends more than an eighth above its
    /// rows (they kept a smaller share, or it grew) is shrunk to fit, so
    /// no segment holds more than an eighth above its rows. Nothing is
    /// filled before the rows are written.
    #[must_use]
    pub fn build(g: &Graph) -> Self {
        let gathered: usize = (0..g.n() as NodeId).map(|v| row_work(g, v)).sum();
        let workers = match gathered / MIN_WORKER_GATHER {
            0 | 1 => 1,
            cap => std::thread::available_parallelism().map_or(1, |p| p.get().min(cap)),
        };
        D2View::build_split(g, workers)
    }

    /// [`D2View::build`] on `workers` row ranges, whatever the graph's
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0.
    pub(crate) fn build_split(g: &Graph, workers: usize) -> Self {
        let (ranges, kept_share) = plan(g, workers);
        let mut ranges = ranges.into_iter();
        let rows = ranges.next_back().expect("a view needs a worker");
        let (segments, longest): (Vec<Segment>, Vec<usize>) = std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .map(|rows| s.spawn(move || Segment::build(g, rows, kept_share)))
                .collect();
            let last = Segment::build(g, rows, kept_share);
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .chain(std::iter::once(last))
                .unzip()
        });
        D2View {
            segments,
            max_d2_degree: longest.into_iter().max().unwrap_or(0),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.segments
            .last()
            .map_or(0, |s| s.first + s.offsets.len() - 1)
    }

    /// Sorted distance-≤2 neighborhood of `v`, excluding `v` itself.
    /// Zero-allocation borrowed slice.
    #[must_use]
    pub fn d2_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        let s = &self.segments[self.segments.partition_point(|s| s.first <= v) - 1];
        &s.flat[s.offsets[v - s.first]..s.offsets[v - s.first + 1]]
    }

    /// Maximum degree of `G²` (0 for the empty graph).
    #[must_use]
    pub fn max_d2_degree(&self) -> usize {
        self.max_d2_degree
    }

    /// Number of common *distance-2* neighbors of `u` and `v` — the
    /// quantity thresholded by the similarity graphs `H_{1-1/k}` (§2.3).
    /// A single merge over the two CSR rows; no allocation.
    #[must_use]
    pub fn common_d2(&self, u: NodeId, v: NodeId) -> usize {
        let (a, b) = (self.d2_neighbors(u), self.d2_neighbors(v));
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
}

impl Segment {
    /// Builds `rows` into a segment whose buffer is reserved for
    /// `kept_share` of the entries they gather, plus a sixteenth, and
    /// shrunk to fit if it ends more than an eighth above them; also
    /// returns its longest row.
    fn build(g: &Graph, rows: Range<usize>, kept_share: f64) -> (Self, usize) {
        let gathered: usize = rows.clone().map(|v| row_gather(g, v as NodeId)).sum();
        let estimate = (gathered as f64 * kept_share) as usize;
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0);
        let mut flat = Vec::with_capacity(estimate + estimate / 16);
        let mut longest = 0;
        for v in rows.clone() {
            longest = longest.max(g.d2_row_append(v as NodeId, &mut flat));
            offsets.push(flat.len());
        }
        if flat.capacity() > flat.len() + flat.len() / 8 {
            flat.shrink_to_fit();
        }
        let segment = Segment {
            first: rows.start,
            offsets,
            flat,
        };
        (segment, longest)
    }
}

/// Entries row `v`'s range is charged for in the cuts:
/// `deg(v)·(deg(v) + 1)`, whose sum over all rows is what the rows
/// gather.
fn row_work(g: &Graph, v: NodeId) -> usize {
    g.degree(v) * (g.degree(v) + 1)
}

/// Entries row `v` gathers before its sort and dedup: each neighbor and
/// that neighbor's row.
fn row_gather(g: &Graph, v: NodeId) -> usize {
    g.degree(v) + g.neighbors(v).iter().map(|&u| g.degree(u)).sum::<usize>()
}

/// The rows of each of the `workers` ranges of [`D2View::build`], cut at
/// about equal charged work, and the share of the entries they gather
/// that rows keep, measured on at most 64 evenly spaced rows.
///
/// # Panics
///
/// Panics if `workers` is 0.
fn plan(g: &Graph, workers: usize) -> (Vec<Range<usize>>, f64) {
    assert!(workers > 0, "a view needs a worker");
    let n = g.n();
    let mut row = Vec::new();
    let (mut sample_gathered, mut sample_kept) = (0usize, 0usize);
    for v in (0..n as NodeId).step_by(n / 64 + 1) {
        sample_gathered += row_gather(g, v);
        sample_kept += g.d2_row_append(v, &mut row);
        row.clear();
    }
    let kept_share = sample_kept as f64 / sample_gathered.max(1) as f64;

    // Range `i` is rows `cuts[i]..cuts[i + 1]`: it starts at the first
    // row before which the rows are charged `i / workers` of the work.
    let charged: usize = (0..n as NodeId).map(|v| row_work(g, v)).sum();
    let mut cuts = Vec::with_capacity(workers + 1);
    let mut before = 0usize;
    for v in 0..n {
        while cuts.len() < workers && before * workers >= charged * cuts.len() {
            cuts.push(v);
        }
        before += row_work(g, v as NodeId);
    }
    cuts.resize(workers + 1, n);
    let ranges = cuts.windows(2).map(|w| w[0]..w[1]).collect();
    (ranges, kept_share)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Every row of `G²`, read pair by pair from
    /// [`Graph::are_d2_neighbors`] (an edge test and a merge of two
    /// neighbor lists), which shares no code with the view's row builder.
    fn reference_rows(g: &Graph) -> Vec<Vec<NodeId>> {
        let n = g.n() as NodeId;
        (0..n)
            .map(|v| (0..n).filter(|&u| g.are_d2_neighbors(v, u)).collect())
            .collect()
    }

    /// Builds `g` on 1, 2, 3, 4 and 7 workers and checks each build's
    /// rows, `n` and `max_d2_degree` against the reference, and that its
    /// segments' buffers hold at most an eighth more than their rows.
    fn check_split_builds(g: &Graph) {
        let want = reference_rows(g);
        let longest = want.iter().map(Vec::len).max().unwrap_or(0);
        for k in [1, 2, 3, 4, 7] {
            let view = D2View::build_split(g, k);
            assert_eq!(view.n(), g.n(), "{k} workers");
            for (v, row) in want.iter().enumerate() {
                let got = view.d2_neighbors(v as NodeId);
                assert_eq!(got, row.as_slice(), "row {v}, {k} workers");
            }
            assert_eq!(view.max_d2_degree(), longest, "{k} workers");
            let len: usize = view.segments.iter().map(|s| s.flat.len()).sum();
            let cap: usize = view.segments.iter().map(|s| s.flat.capacity()).sum();
            assert!(
                cap <= len + len / 8,
                "{k} workers: len {len}, capacity {cap}"
            );
        }
    }

    #[test]
    fn split_builds_match_the_reference() {
        // Rows of 40 disjoint K_12 gather 12·13 entries and keep 11; rows
        // of a random 8-regular graph keep nearly all of their 72. The
        // star's hub carries nearly all of the charged work, and its
        // leaves gather nearly all of the entries. The short path has
        // fewer rows than most worker counts. On half cliques, half
        // random-regular, in either order, the sampled share is right for
        // the whole graph but not for either half: with two or more
        // workers, the range of the random-regular rows outgrows its
        // buffer and the range of the cliques keeps far less than it
        // reserved, so both are shrunk to fit.
        let disconnected =
            Graph::from_edges(12, &[(0, 1), (1, 2), (4, 5), (7, 8), (8, 9), (9, 7)]).unwrap();
        let cliques = gen::disjoint_union(&vec![gen::clique(12); 125]);
        let regular = gen::random_regular(1500, 8, 5);
        for g in [
            gen::empty(0),
            gen::empty(5),
            gen::path(3),
            gen::path(7),
            gen::star(6),
            gen::star(300),
            gen::cycle(9),
            gen::clique(6),
            disconnected,
            gen::gnp_capped(60, 0.1, 6, 3),
            gen::disjoint_union(&vec![gen::clique(12); 40]),
            gen::random_regular(3000, 8, 5),
            gen::disjoint_union(&[cliques.clone(), regular.clone()]),
            gen::disjoint_union(&[regular, cliques]),
        ] {
            check_split_builds(&g);
        }
    }

    #[test]
    fn rows_of_small_shapes() {
        // The square of a path adds the edges that skip one node.
        let view = D2View::build(&gen::path(5));
        assert_eq!(view.d2_neighbors(0), &[1, 2]);
        assert_eq!(view.d2_neighbors(1), &[0, 2, 3]);
        assert_eq!(view.d2_neighbors(2), &[0, 1, 3, 4]);
        let entries: usize = (0..5).map(|v| view.d2_neighbors(v).len()).sum();
        assert_eq!(entries, 2 * (4 + 3));
        // Components stay apart.
        let g = Graph::from_edges(6, &[(0, 1), (3, 4), (4, 5)]).unwrap();
        let view = D2View::build(&g);
        assert_eq!(view.d2_neighbors(1), &[0]);
        assert_eq!(view.d2_neighbors(3), &[4, 5]);
        assert_eq!(view.d2_neighbors(2), &[] as &[NodeId]);
        // The square of a star is a clique.
        let view = D2View::build(&gen::star(6));
        assert_eq!(view.d2_neighbors(3), &[0, 1, 2, 4, 5, 6]);
        let entries: usize = (0..7).map(|v| view.d2_neighbors(v).len()).sum();
        assert_eq!(entries, 7 * 6);
        assert_eq!(view.max_d2_degree(), 6);
    }

    #[test]
    fn max_d2_degree_is_at_most_delta_squared() {
        let g = gen::gnp_capped(120, 0.1, 8, 11);
        let d = g.max_degree();
        assert!(D2View::build(&g).max_d2_degree() <= d * d);
    }

    #[test]
    fn common_d2_counts_shared_reference_entries() {
        let g = gen::gnp_capped(40, 0.15, 5, 8);
        let want = reference_rows(&g);
        let view = D2View::build(&g);
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                let shared = want[u as usize]
                    .iter()
                    .filter(|w| want[v as usize].contains(w))
                    .count();
                assert_eq!(view.common_d2(u, v), shared, "pair ({u},{v})");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let view = D2View::build(&gen::empty(0));
        assert_eq!(view.n(), 0);
        assert_eq!(view.max_d2_degree(), 0);
    }
}
