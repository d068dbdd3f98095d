//! Immutable compressed-sparse-row (CSR) weighted graph.
//!
//! The graph is stored as a flat adjacency structure: `offsets[v]..offsets[v+1]`
//! indexes into `targets`/`weights`. Graphs produced by [`crate::GraphBuilder`]
//! are symmetric (every undirected edge appears as two directed arcs with the
//! same weight) and have their adjacency lists sorted by target vertex, which
//! enables `O(log deg)` edge lookups via binary search.

/// Vertex identifier. 32 bits comfortably covers the scaled-down analogues
/// this suite works with (the paper's full-scale graphs would need 64).
pub type Vertex = u32;

/// Edge weight: the paper's distance function maps edges to positive
/// integers, `d(u, v) ∈ Z+ \ {0}`.
pub type Weight = u64;

/// Path distance (sum of edge weights).
pub type Distance = u64;

/// Sentinel "unreached" distance.
pub const INF: Distance = u64::MAX;

/// An immutable weighted graph in CSR form.
///
/// Invariants (established by [`crate::GraphBuilder`]):
/// - `offsets.len() == num_vertices + 1`, monotonically non-decreasing;
/// - `targets.len() == weights.len() == offsets[num_vertices]`;
/// - each adjacency list is sorted by target and free of duplicates
///   and self-loops;
/// - all weights are `>= 1`;
/// - the arc set is symmetric with matching weights.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<Vertex>,
    weights: Vec<Weight>,
}

impl CsrGraph {
    /// Assembles a CSR graph from raw parts. Callers outside the builder
    /// should prefer [`crate::GraphBuilder`]; this performs only cheap
    /// structural checks (lengths and offset monotonicity) and panics on
    /// violation.
    pub fn from_raw_parts(offsets: Vec<u64>, targets: Vec<Vertex>, weights: Vec<Weight>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(
            targets.len(),
            weights.len(),
            "targets and weights must be parallel arrays"
        );
        assert_eq!(
            *offsets.last().unwrap() as usize,
            targets.len(),
            "last offset must equal arc count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        CsrGraph {
            offsets,
            targets,
            weights,
        }
    }

    /// An empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed arcs (twice the undirected edge count for the
    /// symmetric graphs this suite uses — the paper reports `2|E|`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges, assuming the arc set is symmetric.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_arcs() / 2
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The adjacency range of `v` in the flat arrays.
    #[inline]
    fn range(&self, v: Vertex) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Neighbor vertices of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        &self.targets[self.range(v)]
    }

    /// Weights parallel to [`Self::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: Vertex) -> &[Weight] {
        &self.weights[self.range(v)]
    }

    /// Iterator over `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn edges(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Weight)> + '_ {
        let r = self.range(v);
        self.targets[r.clone()]
            .iter()
            .copied()
            .zip(self.weights[r].iter().copied())
    }

    /// Iterator over all vertices.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> {
        0..self.num_vertices() as Vertex
    }

    /// Iterator over every directed arc `(u, v, w)`.
    pub fn arcs(&self) -> impl Iterator<Item = (Vertex, Vertex, Weight)> + '_ {
        self.vertices()
            .flat_map(move |u| self.edges(u).map(move |(v, w)| (u, v, w)))
    }

    /// Iterator over each undirected edge once, as `(u, v, w)` with `u < v`.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (Vertex, Vertex, Weight)> + '_ {
        self.arcs().filter(|&(u, v, _)| u < v)
    }

    /// Weight of arc `(u, v)` if present: the lightest one, if a
    /// multigraph built with [`CsrGraph::from_raw_parts`] has several.
    /// `O(log deg(u))` plus the parallel arcs.
    pub fn edge_weight(&self, u: Vertex, v: Vertex) -> Option<Weight> {
        let nbrs = self.neighbors(u);
        let first = nbrs.partition_point(|&x| x < v);
        let parallel = nbrs[first..].iter().take_while(|&&x| x == v).count();
        self.neighbor_weights(u)[first..first + parallel]
            .iter()
            .copied()
            .min()
    }

    /// Whether arc `(u, v)` exists. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Sum of all undirected edge weights.
    pub fn total_weight(&self) -> u128 {
        // Each undirected edge appears as two arcs with equal weight.
        self.weights.iter().map(|&w| w as u128).sum::<u128>() / 2
    }

    /// Maximum out-degree over all vertices.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// Smallest and largest edge weight, or `None` for an edgeless graph.
    pub fn weight_range(&self) -> Option<(Weight, Weight)> {
        if self.weights.is_empty() {
            return None;
        }
        let mut lo = Weight::MAX;
        let mut hi = 0;
        for &w in &self.weights {
            lo = lo.min(w);
            hi = hi.max(w);
        }
        Some((lo, hi))
    }

    /// Approximate in-memory footprint in bytes (the Fig 8 "graph" series).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<Vertex>()
            + self.weights.len() * std::mem::size_of::<Weight>()
    }

    /// Verifies the symmetric-graph invariants in `O(m log d)`; used by
    /// tests and the binary loader. Returns a description of the first
    /// violation found.
    pub fn validate_symmetric(&self) -> Result<(), String> {
        for u in self.vertices() {
            let nbrs = self.neighbors(u);
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency of {u} not strictly sorted"));
            }
            for (v, w) in self.edges(u) {
                if v as usize >= self.num_vertices() {
                    return Err(format!("arc ({u},{v}) out of range"));
                }
                if v == u {
                    return Err(format!("self loop at {u}"));
                }
                if w == 0 {
                    return Err(format!("zero weight on ({u},{v})"));
                }
                match self.edge_weight(v, u) {
                    Some(rw) if rw == w => {}
                    Some(rw) => return Err(format!("asymmetric weight on ({u},{v}): {w} vs {rw}")),
                    None => return Err(format!("missing reverse arc ({v},{u})")),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 7);
        b.add_edge(0, 2, 9);
        b.build()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn neighbors_sorted() {
        let g = triangle();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 0), Some(5));
        assert_eq!(g.edge_weight(2, 1), Some(7));
        assert_eq!(g.edge_weight(0, 0), None);
    }

    #[test]
    fn total_weight_counts_each_edge_once() {
        let g = triangle();
        assert_eq!(g.total_weight(), 5 + 7 + 9);
    }

    #[test]
    fn degrees() {
        let g = triangle();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.weight_range(), None);
        assert!(g.validate_symmetric().is_ok());
    }

    #[test]
    fn undirected_edges_iterates_once_per_edge() {
        let g = triangle();
        let edges: Vec<_> = g.undirected_edges().collect();
        assert_eq!(edges, vec![(0, 1, 5), (0, 2, 9), (1, 2, 7)]);
    }

    #[test]
    fn validate_detects_good_graph() {
        assert!(triangle().validate_symmetric().is_ok());
    }

    #[test]
    fn weight_range() {
        let g = triangle();
        assert_eq!(g.weight_range(), Some((5, 9)));
    }

    #[test]
    #[should_panic]
    fn from_raw_parts_rejects_bad_offsets() {
        CsrGraph::from_raw_parts(vec![0, 2, 1], vec![1], vec![1]);
    }

    #[test]
    fn memory_bytes_positive() {
        assert!(triangle().memory_bytes() > 0);
    }
}
