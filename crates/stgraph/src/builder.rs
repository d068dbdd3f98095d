//! Edge-list ingestion and CSR assembly.
//!
//! The builder accepts an arbitrary multiset of weighted edges, then
//! symmetrizes (emitting both arcs of every undirected edge), drops
//! self-loops, deduplicates parallel edges keeping the minimum weight
//! (the natural choice when smaller weight means stronger relationship),
//! and produces a [`CsrGraph`] whose adjacency lists are sorted.

use crate::csr::{CsrGraph, Vertex, Weight};

/// Accumulates weighted edges and assembles a symmetric [`CsrGraph`].
///
/// ```
/// use stgraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 4);
/// b.add_edge(1, 2, 2);
/// b.add_edge(1, 0, 9); // parallel edge: the minimum weight wins
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.edge_weight(0, 1), Some(4));
/// assert_eq!(g.edge_weight(1, 0), Some(4)); // symmetric
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(Vertex, Vertex, Weight)>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= Vertex::MAX as usize, "vertex count exceeds id space");
        GraphBuilder {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates room for `m` undirected edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Adds an undirected edge `{u, v}` with weight `w >= 1`. Self-loops are
    /// silently dropped (the Steiner problem never uses them). Panics on
    /// out-of-range endpoints or a zero weight.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex, w: Weight) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u},{v}) out of range for {} vertices",
            self.num_vertices
        );
        assert!(w >= 1, "edge weights must be positive integers");
        if u == v {
            return;
        }
        self.edges.push((u, v, w));
    }

    /// Adds every edge in `it`.
    pub fn extend_edges<I: IntoIterator<Item = (Vertex, Vertex, Weight)>>(&mut self, it: I) {
        for (u, v, w) in it {
            self.add_edge(u, v, w);
        }
    }

    /// Assembles the CSR graph: symmetrize, sort, dedup (min weight wins).
    pub fn build(self) -> CsrGraph {
        let n = self.num_vertices;
        // Emit both arcs.
        let mut arcs = Vec::with_capacity(self.edges.len() * 2);
        for (u, v, w) in self.edges {
            arcs.push((u, v, w));
            arcs.push((v, u, w));
        }
        // Sort by (src, dst, weight) so dedup keeps the minimum weight.
        arcs.sort_unstable();
        arcs.dedup_by(|next, prev| next.0 == prev.0 && next.1 == prev.1);

        let mut offsets = vec![0u64; n + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = Vec::with_capacity(arcs.len());
        let mut weights = Vec::with_capacity(arcs.len());
        for (_, v, w) in arcs {
            targets.push(v);
            weights.push(w);
        }
        CsrGraph::from_raw_parts(offsets, targets, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetrizes() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 3);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(3));
        assert_eq!(g.edge_weight(1, 0), Some(3));
    }

    #[test]
    fn drops_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 3);
        b.add_edge(0, 1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn dedup_keeps_min_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 9);
        b.add_edge(1, 0, 4);
        b.add_edge(0, 1, 6);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(4));
        assert_eq!(g.edge_weight(1, 0), Some(4));
    }

    #[test]
    fn extend_edges_works() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1, 1), (1, 2, 2), (2, 3, 3)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1);
    }

    #[test]
    fn built_graph_is_valid() {
        let mut b = GraphBuilder::new(5);
        b.extend_edges([(0, 1, 1), (1, 2, 2), (3, 4, 3), (0, 4, 8), (2, 3, 1)]);
        let g = b.build();
        assert!(g.validate_symmetric().is_ok());
    }

    #[test]
    fn isolated_vertices_allowed() {
        let mut b = GraphBuilder::new(10);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(5), 0);
    }
}
