//! Compact CSR (compressed sparse row) undirected graph.

use std::fmt;

/// Index of a node inside a [`Graph`] (`0..n`).
///
/// Distinct from the node's CONGEST *identifier*: indices are a simulator
/// convenience, identifiers are the `O(log n)`-bit names the distributed
/// algorithms are allowed to see. The simulator assigns identifiers
/// separately (see the `congest` crate).
pub type NodeId = u32;

/// Errors from [`GraphBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    EndpointOutOfRange { u: NodeId, v: NodeId, n: usize },
    /// A self-loop `{u, u}` was added; CONGEST networks are simple graphs.
    SelfLoop { u: NodeId },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { u, v, n } => {
                write!(f, "edge ({u}, {v}) has an endpoint outside 0..{n}")
            }
            GraphError::SelfLoop { u } => write!(f, "self-loop at node {u}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable simple undirected graph in CSR form.
///
/// Neighbor lists are sorted and duplicate-free; this is the canonical
/// network topology handed to the CONGEST simulator.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
    /// Cached `∆`, computed once at build time. `max_degree()` sits inside
    /// per-node loops all over the codebase (sparsity, palette sizing), so
    /// it must not be an `O(n)` scan per call.
    max_degree: usize,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

impl Graph {
    /// Builds a graph from an explicit edge list. Convenience wrapper around
    /// [`GraphBuilder`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range or an edge is a
    /// self-loop.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of `v`.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum degree `∆` of the graph (0 for the empty graph). Cached at
    /// build time; `O(1)`.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Assembles a graph directly from CSR parts: `offsets` of length
    /// `n + 1` and sorted, duplicate-free adjacency rows in `flat`.
    ///
    /// Crate-internal: used by [`GraphBuilder::build`] and
    /// [`apply_batch`](crate::apply_batch), which both guarantee the
    /// invariants (sorted rows, symmetric adjacency, no self-loops).
    pub(crate) fn from_csr_parts(offsets: Vec<usize>, flat: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().expect("nonempty"), flat.len());
        let max_degree = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        Graph {
            offsets,
            adj: flat,
            max_degree,
        }
    }

    /// Sorted slice of neighbors of `v`.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Whether `{u, v}` is an edge. `O(log degree)`.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Appends the sorted distance-≤2 neighborhood of `v` (excluding `v`)
    /// to `out`, leaving its earlier entries alone: each neighbor and its
    /// row are gathered at the tail, then sorted and deduplicated in
    /// place. The row builder of [`D2View::build`](crate::D2View::build);
    /// returns the row's length.
    pub(crate) fn d2_row_append(&self, v: NodeId, out: &mut Vec<NodeId>) -> usize {
        let start = out.len();
        for &u in self.neighbors(v) {
            out.push(u);
            out.extend_from_slice(self.neighbors(u));
        }
        let row = &mut out[start..];
        row.sort_unstable();
        let mut len = 0;
        for i in 0..row.len() {
            let x = row[i];
            if x != v && (len == 0 || row[len - 1] != x) {
                row[len] = x;
                len += 1;
            }
        }
        out.truncate(start + len);
        len
    }

    /// Whether `u` and `v` are at distance ≤ 2 (and distinct): an edge
    /// test, then a merge of the two neighbor lists. It shares no code with
    /// the rows of a [`D2View`](crate::D2View), which the tests check
    /// against it.
    #[must_use]
    pub fn are_d2_neighbors(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        if self.has_edge(u, v) {
            return true;
        }
        // Merge-intersect the sorted neighbor lists.
        let (a, b) = (self.neighbors(u), self.neighbors(v));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Whether the graph is connected (true for `n ≤ 1`).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.n() <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n()];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &u in self.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.n()
    }
}

/// Incremental builder for [`Graph`]. Duplicate edges are deduplicated.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    /// Normalized `(min, max)` endpoint pairs, kept so
    /// [`GraphBuilder::contains_edge`] is `O(1)` instead of a scan over the
    /// edge list (generators call it inside sampling loops).
    seen: std::collections::HashSet<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// New builder for a graph on `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Records the undirected edge `{u, v}`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.edges.push((u, v));
        self.seen.insert((u.min(v), u.max(v)));
        self
    }

    /// Whether the edge `{u, v}` was already recorded. `O(1)` expected
    /// (hash lookup on the normalized endpoint pair).
    #[must_use]
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.seen.contains(&(u.min(v), u.max(v)))
    }

    /// Finalizes into an immutable CSR [`Graph`].
    ///
    /// Two passes over the edge list — count degrees, then scatter into one
    /// flat array — followed by an in-place per-row sort/dedup compaction.
    /// No intermediate `Vec<Vec<NodeId>>` (the old path allocated one `Vec`
    /// per node, a per-build allocation spike on large graphs).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] on out-of-range endpoints or self-loops.
    pub fn build(&self) -> Result<Graph, GraphError> {
        csr_from_edge_list(self.n, &self.edges)
    }

    /// Builds a CSR [`Graph`] straight from an edge stream, bypassing the
    /// incremental builder entirely: no per-edge hash-set bookkeeping (the
    /// builder maintains one so [`GraphBuilder::contains_edge`] is `O(1)`)
    /// and no `Vec<Vec>` staging — just one flat `O(m)` edge buffer feeding
    /// the counting-pass CSR construction. Duplicate edges (in either
    /// orientation) are deduplicated during row compaction.
    ///
    /// This is the bulk-ingest path the `O(n + m)` generators use: for a
    /// ten-million-edge stream it does two linear passes plus a per-row
    /// sort, with peak memory bounded by the edge buffer + the CSR arrays.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] on out-of-range endpoints or self-loops.
    pub fn from_edge_stream<I>(n: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let edges: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        csr_from_edge_list(n, &edges)
    }
}

/// Shared CSR construction: validate, count degrees, scatter, per-row
/// sort/dedup compaction. `O(n + m log ∆)` time, `O(n + m)` space.
fn csr_from_edge_list(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
    for &(u, v) in edges {
        if u as usize >= n || v as usize >= n {
            return Err(GraphError::EndpointOutOfRange { u, v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { u });
        }
    }
    // Pass 1: degree counts (duplicates included; deduped below).
    let mut counts = vec![0usize; n];
    for &(u, v) in edges {
        counts[u as usize] += 1;
        counts[v as usize] += 1;
    }
    // Exclusive prefix sums = provisional row offsets.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &c in &counts {
        acc += c;
        offsets.push(acc);
    }
    // Pass 2: scatter both endpoint directions via per-row cursors.
    let mut flat = vec![0 as NodeId; acc];
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    for &(u, v) in edges {
        flat[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
        flat[cursor[v as usize]] = u;
        cursor[v as usize] += 1;
    }
    // Sort each row, dedup by compacting the flat array in place.
    let mut write = 0usize;
    let mut final_offsets = Vec::with_capacity(n + 1);
    final_offsets.push(0usize);
    for v in 0..n {
        let (start, end) = (offsets[v], offsets[v + 1]);
        flat[start..end].sort_unstable();
        let mut prev: Option<NodeId> = None;
        for i in start..end {
            let x = flat[i];
            if prev != Some(x) {
                flat[write] = x;
                write += 1;
                prev = Some(x);
            }
        }
        final_offsets.push(write);
    }
    flat.truncate(write);
    Ok(Graph::from_csr_parts(final_offsets, flat))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn duplicate_edges_are_deduped() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Graph::from_edges(3, &[(1, 1)]).unwrap_err(),
            GraphError::SelfLoop { u: 1 }
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Graph::from_edges(3, &[(0, 7)]).unwrap_err();
        assert_eq!(err, GraphError::EndpointOutOfRange { u: 0, v: 7, n: 3 });
    }

    #[test]
    fn error_display_is_informative() {
        let err = Graph::from_edges(3, &[(0, 7)]).unwrap_err();
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn d2_neighborhood_of_path() {
        let g = path4();
        let view = crate::D2View::build(&g);
        assert_eq!(view.d2_neighbors(0), &[1, 2]);
        assert_eq!(view.d2_neighbors(1), &[0, 2, 3]);
        assert!(g.are_d2_neighbors(0, 2));
        assert!(!g.are_d2_neighbors(0, 3));
        assert!(!g.are_d2_neighbors(2, 2));
    }

    #[test]
    fn common_neighbor_counts() {
        // Two 2-paths between 0 and 3: via 1 and via 2.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(crate::D2View::build(&g).common_d2(0, 3), 2); // 1 and 2
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = path4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn contains_edge_is_symmetric() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(2, 1);
        assert!(b.contains_edge(1, 2));
        assert!(b.contains_edge(2, 1));
        assert!(!b.contains_edge(0, 1));
    }

    #[test]
    fn counting_pass_build_matches_expected_csr() {
        // Unsorted insertion order, duplicates in both orientations.
        let g = Graph::from_edges(5, &[(3, 1), (0, 3), (1, 3), (4, 0), (0, 4), (2, 0), (1, 0)])
            .unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[0, 1]);
        assert_eq!(g.neighbors(4), &[0]);
        assert_eq!(g.m(), 5);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn from_edge_stream_matches_builder_with_duplicates() {
        let edges = [(3, 1), (0, 3), (1, 3), (4, 0), (0, 4), (2, 0), (1, 0)];
        let via_builder = Graph::from_edges(5, &edges).unwrap();
        let via_stream = GraphBuilder::from_edge_stream(5, edges).unwrap();
        assert_eq!(via_builder, via_stream);
        assert_eq!(via_stream.m(), 5);
    }

    #[test]
    fn from_edge_stream_rejects_bad_edges() {
        assert_eq!(
            GraphBuilder::from_edge_stream(3, [(1, 1)]).unwrap_err(),
            GraphError::SelfLoop { u: 1 }
        );
        assert_eq!(
            GraphBuilder::from_edge_stream(3, [(0, 7)]).unwrap_err(),
            GraphError::EndpointOutOfRange { u: 0, v: 7, n: 3 }
        );
    }

    #[test]
    fn connectivity() {
        assert!(path4().is_connected());
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(empty.is_connected());
        assert_eq!(empty.max_degree(), 0);
    }
}
