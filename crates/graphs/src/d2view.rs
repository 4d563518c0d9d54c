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
//! The *centralized* side is a different story. The verifier, the square
//! graph, and the test suites all consult distance-2 neighborhoods
//! constantly — and the naive [`Graph::d2_neighbors`] allocates, sorts,
//! and dedups a fresh `Vec` on every call. Sitting under near-quadratic
//! loops (similarity ground truth), that is an allocation storm on the hot
//! path of every experiment.
//!
//! [`D2View`] fixes this with a one-shot `O(Σ_v deg²(v))` construction:
//! one offsets array plus one flat, sorted `NodeId` array (the same CSR
//! layout as [`Graph`] itself). After construction every query is
//! allocation-free:
//!
//! * [`D2View::d2_neighbors`] — a borrowed sorted slice,
//! * [`D2View::d2_degree`] — two array reads,
//! * [`D2View::common_d2`] — a linear merge over two CSR rows,
//! * [`D2View::are_d2_neighbors`] — a binary search.
//!
//! The construction spreads over the machine's cores: [`D2View::build`]
//! cuts the rows into contiguous ranges of about equal work, builds each
//! on a scoped thread into its own region of the one flat buffer, and
//! closes the gaps between the regions in place. A graph too small to pay
//! for a thread is built on the calling thread; the view is the same
//! either way, and only one copy of it is ever alive.
//!
//! Build the view **once per experiment** (the harness, drivers, and test
//! helpers do) and pass it to every consumer. For memory-constrained
//! one-off queries where a full view is not warranted, use the
//! scratch-buffer fallback [`Graph::d2_neighbors_into`] instead.

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct D2View {
    offsets: Vec<usize>,
    flat: Vec<NodeId>,
    max_d2_degree: usize,
}

/// What one row range of [`D2View::build`] leaves: the entries it wrote
/// at the head of its region of the buffer, the rows that did not fit
/// there, and its longest row.
struct Part {
    written: usize,
    spill: Vec<NodeId>,
    max_d2: usize,
}

impl D2View {
    /// Builds the view in `O(Σ_v deg²(v))` work: row `v` is gathered
    /// (each neighbor and its row), then sorted and deduplicated, as
    /// [`Graph::d2_neighbors_into`] builds one row.
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
    /// built with `k` = 1 and starts no thread. The view is the same for
    /// every `k`.
    ///
    /// **One buffer.** The rows live in one buffer, sized once to the
    /// view's estimated length plus a sixteenth. Rows gather
    /// `Σ_u deg(u)·(deg(u) + 1)` entries in all and keep from nearly all
    /// of them (locally tree-like graphs) down to about one in `∆`
    /// (unions of cliques), so the share they keep is measured on at most
    /// 64 evenly spaced rows. Each range copies its rows, as it builds
    /// them, into its own region of the buffer, sized in proportion to
    /// the range's gathered work; a range whose rows outgrow its region
    /// keeps them from there on in an overflow `Vec` of its own. Then the
    /// regions are closed up in place and the overflows spliced in. No
    /// second copy of the view is alive at any point, and the buffer
    /// grows only when the whole view outgrows the estimate.
    #[must_use]
    pub fn build(g: &Graph) -> Self {
        let gathered: usize = (0..g.n() as NodeId).map(|v| row_work(g, v)).sum();
        let workers = match gathered / MIN_WORKER_GATHER {
            0 | 1 => 1,
            cap => std::thread::available_parallelism().map_or(1, |p| p.get().min(cap)),
        };
        D2View::build_split(g, workers).0
    }

    /// [`D2View::build`] on `workers` row ranges, whatever the graph's
    /// size; also returns how many entries the ranges kept in overflow
    /// `Vec`s.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0.
    pub(crate) fn build_split(g: &Graph, workers: usize) -> (Self, usize) {
        assert!(workers > 0, "a view needs a worker");
        let n = g.n();
        let gathered: usize = (0..n as NodeId).map(|v| row_work(g, v)).sum();
        let mut row = Vec::new();
        let (mut sample_gathered, mut sample_kept) = (0usize, 0usize);
        for v in (0..n as NodeId).step_by(n / 64 + 1) {
            sample_gathered +=
                g.degree(v) + g.neighbors(v).iter().map(|&u| g.degree(u)).sum::<usize>();
            sample_kept += g.d2_row_append(v, &mut row);
            row.clear();
        }
        let estimate =
            (gathered as f64 * sample_kept as f64 / sample_gathered.max(1) as f64) as usize;
        // A sixteenth of slack keeps sampling noise from spilling rows
        // past the regions and growing the buffer.
        let mut flat: Vec<NodeId> = vec![0; estimate + estimate / 16];

        // Range `i` is rows `cuts[i].0..cuts[i + 1].0`, and the rows
        // before it gather `cuts[i].1` entries; its region of `flat`
        // starts at the same share of the buffer, `starts[i]`.
        let mut cuts = Vec::with_capacity(workers + 1);
        let mut before = 0usize;
        for v in 0..n {
            while cuts.len() < workers && before * workers >= gathered * cuts.len() {
                cuts.push((v, before));
            }
            before += row_work(g, v as NodeId);
        }
        cuts.resize(workers + 1, (n, gathered));
        let starts: Vec<usize> = cuts
            .iter()
            .map(|&(_, b)| (flat.len() as u128 * b as u128 / gathered.max(1) as u128) as usize)
            .collect();

        let mut offsets = vec![0usize; n + 1];
        let parts: Vec<Part> = std::thread::scope(|s| {
            let (mut region, mut ends) = (&mut flat[..], &mut offsets[1..]);
            let mut handles = Vec::with_capacity(workers - 1);
            for i in 0..workers - 1 {
                let rows = cuts[i].0..cuts[i + 1].0;
                let (r, rest) = std::mem::take(&mut region).split_at_mut(starts[i + 1] - starts[i]);
                let (e, rest_ends) = std::mem::take(&mut ends).split_at_mut(rows.len());
                (region, ends) = (rest, rest_ends);
                handles.push(s.spawn(move || fill_rows(g, rows, r, e)));
            }
            let last = fill_rows(g, cuts[workers - 1].0..n, region, ends);
            let mut parts: Vec<Part> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect();
            parts.push(last);
            parts
        });

        // Range `i` ends up at `dest[i]..dest[i + 1]`: its region's head,
        // then its overflow. Ranges that move right go first, from the
        // last, then the rest from the first, so no copy lands on rows
        // not yet moved.
        let mut dest = vec![0usize; workers + 1];
        for (i, p) in parts.iter().enumerate() {
            dest[i + 1] = dest[i] + p.written + p.spill.len();
        }
        let total = dest[workers];
        if total > flat.len() {
            flat.reserve_exact(total - flat.len());
            flat.resize(total, 0);
        }
        let right = (0..workers).rev().filter(|&i| dest[i] > starts[i]);
        for i in right.chain((0..workers).filter(|&i| dest[i] <= starts[i])) {
            let p = &parts[i];
            flat.copy_within(starts[i]..starts[i] + p.written, dest[i]);
            flat[dest[i] + p.written..dest[i + 1]].copy_from_slice(&p.spill);
        }
        flat.truncate(total);
        for (i, w) in cuts.windows(2).enumerate() {
            for end in &mut offsets[w[0].0 + 1..=w[1].0] {
                *end += dest[i];
            }
        }
        let view = D2View {
            offsets,
            flat,
            max_d2_degree: parts.iter().map(|p| p.max_d2).max().unwrap_or(0),
        };
        (view, parts.iter().map(|p| p.spill.len()).sum())
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sorted distance-≤2 neighborhood of `v`, excluding `v` itself.
    /// Zero-allocation borrowed slice.
    #[must_use]
    pub fn d2_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.flat[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v` in `G²`.
    #[must_use]
    pub fn d2_degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum degree of `G²` (0 for the empty graph).
    #[must_use]
    pub fn max_d2_degree(&self) -> usize {
        self.max_d2_degree
    }

    /// Whether `u` and `v` are distinct nodes at distance ≤ 2.
    #[must_use]
    pub fn are_d2_neighbors(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.d2_neighbors(u).binary_search(&v).is_ok()
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

    /// Materializes `G²` as a [`Graph`]: the view's rows *are* the square
    /// graph's CSR adjacency, so this is a plain copy — no builder, no
    /// per-edge work.
    #[must_use]
    pub fn to_square(&self) -> Graph {
        Graph::from_csr_parts(self.offsets.clone(), self.flat.clone())
    }
}

/// Entries row `v`'s range is charged for: `deg(v)·(deg(v) + 1)`, whose
/// sum over all rows is what the rows gather.
fn row_work(g: &Graph, v: NodeId) -> usize {
    g.degree(v) * (g.degree(v) + 1)
}

/// Builds `rows` into `region`, writing each row's end, counted from the
/// range's first entry, to `ends`. Rows go to the head of the region
/// until one does not fit; that row and every later one stay in the
/// overflow `Vec`, which doubles as the scratch row.
fn fill_rows(g: &Graph, rows: Range<usize>, region: &mut [NodeId], ends: &mut [usize]) -> Part {
    let mut spill = Vec::new();
    let (mut written, mut max_d2) = (0, 0);
    for (v, end) in rows.zip(ends) {
        let len = g.d2_row_append(v as NodeId, &mut spill);
        max_d2 = max_d2.max(len);
        if spill.len() == len && written + len <= region.len() {
            region[written..written + len].copy_from_slice(&spill);
            written += len;
            spill.clear();
        }
        *end = written + spill.len();
    }
    Part {
        written,
        spill,
        max_d2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn assert_matches_naive(g: &Graph) {
        let view = D2View::build(g);
        assert_eq!(view.n(), g.n());
        for v in 0..g.n() as NodeId {
            let naive = g.d2_neighbors(v);
            assert_eq!(view.d2_neighbors(v), naive.as_slice(), "row {v}");
            assert_eq!(view.d2_degree(v), naive.len());
            for u in 0..g.n() as NodeId {
                assert_eq!(
                    view.are_d2_neighbors(v, u),
                    g.are_d2_neighbors(v, u),
                    "adjacency ({v},{u})"
                );
            }
        }
        assert_eq!(
            view.max_d2_degree(),
            (0..g.n() as NodeId)
                .map(|v| g.d2_neighbors(v).len())
                .max()
                .unwrap_or(0)
        );
    }

    #[test]
    fn agrees_with_naive_on_shapes() {
        assert_matches_naive(&gen::path(7));
        assert_matches_naive(&gen::star(6));
        assert_matches_naive(&gen::cycle(9));
        assert_matches_naive(&gen::clique(6));
        assert_matches_naive(&gen::empty(5));
        assert_matches_naive(&gen::gnp_capped(60, 0.1, 6, 3));
    }

    #[test]
    fn common_d2_matches_naive_counts() {
        let g = gen::gnp_capped(40, 0.15, 5, 8);
        let view = D2View::build(&g);
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                assert_eq!(
                    view.common_d2(u, v),
                    g.common_d2_neighbors(u, v),
                    "pair ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn to_square_is_the_square_graph() {
        let g = gen::path(5);
        let sq = D2View::build(&g).to_square();
        assert!(sq.has_edge(0, 2));
        assert!(sq.has_edge(1, 3));
        assert!(!sq.has_edge(0, 3));
        assert_eq!(sq.m(), 4 + 3);
        // Round trip through the view of a disconnected graph too.
        let g = Graph::from_edges(6, &[(0, 1), (3, 4), (4, 5)]).unwrap();
        let sq = D2View::build(&g).to_square();
        assert!(sq.has_edge(3, 5));
        assert!(!sq.has_edge(1, 3));
    }

    /// Builds `g` on 1, 2, 3, 4 and 7 workers and checks every build
    /// against the one-worker build and that one against the naive rows;
    /// returns the entries each build kept in overflow `Vec`s.
    fn split_builds_agree(g: &Graph) -> Vec<usize> {
        let (one, _) = D2View::build_split(g, 1);
        for v in 0..g.n() as NodeId {
            assert_eq!(one.d2_neighbors(v), g.d2_neighbors(v).as_slice(), "row {v}");
        }
        [1, 2, 3, 4, 7]
            .map(|k| {
                let (view, spilled) = D2View::build_split(g, k);
                assert_eq!(view.offsets, one.offsets, "offsets, {k} workers");
                assert_eq!(view.flat, one.flat, "rows, {k} workers");
                assert_eq!(view.max_d2_degree, one.max_d2_degree, "{k} workers");
                let (len, cap) = (view.flat.len(), view.flat.capacity());
                assert!(
                    cap <= len + len / 8,
                    "{k} workers: len {len}, capacity {cap}"
                );
                spilled
            })
            .to_vec()
    }

    #[test]
    fn split_builds_are_the_one_worker_build() {
        // Rows of 40 disjoint K_12 gather 12·13 entries and keep 11; rows
        // of a random 8-regular graph keep nearly all of their 72. The
        // star's hub carries nearly all of the work, and the path has
        // fewer rows than most worker counts.
        for g in [
            gen::empty(0),
            gen::empty(5),
            gen::path(3),
            gen::star(300),
            gen::disjoint_union(&vec![gen::clique(12); 40]),
            gen::random_regular(3000, 8, 5),
        ] {
            split_builds_agree(&g);
        }
    }

    #[test]
    fn split_builds_splice_what_overflows_their_regions() {
        // Half cliques, half random-regular: the sampled share is right
        // for the whole graph but not for either half, so the regions of
        // the random-regular rows are too small. With those rows first,
        // the clique rows' range moves right to make room for them.
        let cliques = gen::disjoint_union(&vec![gen::clique(12); 125]);
        let regular = gen::random_regular(1500, 8, 5);
        for parts in [[&cliques, &regular], [&regular, &cliques]] {
            let g = gen::disjoint_union(&parts.map(Graph::clone));
            let spilled = split_builds_agree(&g);
            assert!(spilled[1..].iter().all(|&s| s > 0), "spilled {spilled:?}");
        }
    }

    #[test]
    fn empty_graph() {
        let view = D2View::build(&gen::empty(0));
        assert_eq!(view.n(), 0);
        assert_eq!(view.max_d2_degree(), 0);
    }
}
