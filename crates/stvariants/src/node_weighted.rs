//! Node-weighted Steiner trees: vertices carry costs alongside edges.
//!
//! The paper cites the node-weighted variant through its systems-biology
//! application (identifying cancer-related signalling pathways, ref \[8\]).
//! The variant is strictly harder than the edge-weighted problem
//! (O(log n)-approximation is best possible), so this module provides the
//! standard *cost-splitting* heuristic: charge half of each endpoint's
//! node cost onto every incident edge, solve the edge-weighted problem,
//! and report the true combined cost of the result. Exact when all node
//! costs are zero; tests quantify the heuristic against brute force on
//! small instances.

use baselines::mehlhorn;
use stgraph::builder::GraphBuilder;
use stgraph::csr::{CsrGraph, Distance, Vertex, Weight};
use stgraph::error::SteinerError;
use stgraph::steiner_tree::SteinerTree;

/// A node-weighted solution: the tree (edges weighted as in the input
/// graph) plus its cost breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeWeightedTree {
    /// The tree, carrying the *original* edge weights.
    pub tree: SteinerTree,
    /// Sum of original edge weights.
    pub edge_cost: Distance,
    /// Sum of node costs over the tree's vertices (seeds included).
    pub node_cost: Distance,
}

impl NodeWeightedTree {
    /// Combined objective: edge cost plus node cost.
    pub fn total_cost(&self) -> Distance {
        self.edge_cost + self.node_cost
    }
}

/// Solves the node-weighted Steiner problem heuristically. `node_costs`
/// must have one entry per vertex.
pub fn node_weighted_steiner(
    g: &CsrGraph,
    node_costs: &[Distance],
    seeds: &[Vertex],
) -> Result<NodeWeightedTree, SteinerError> {
    assert_eq!(
        node_costs.len(),
        g.num_vertices(),
        "need one node cost per vertex"
    );
    // Reweight: each edge absorbs half of both endpoints' node costs
    // (scaled by 2 to stay integral), so any tree's reweighted cost counts
    // interior node costs once per incident tree edge — a faithful charge
    // for degree-2 paths and an over-charge for high-degree hubs, which is
    // what makes this a heuristic.
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), g.num_edges());
    for (u, v, w) in g.undirected_edges() {
        let adjusted = 2 * w + node_costs[u as usize] + node_costs[v as usize];
        b.add_edge(u, v, adjusted.max(1));
    }
    let reweighted = b.build();
    let solved = mehlhorn(&reweighted, seeds)?;

    // Map back to original edge weights and account node costs.
    let edges: Vec<(Vertex, Vertex, Weight)> = solved
        .edges
        .iter()
        .map(|&(u, v, _)| {
            let w = g.edge_weight(u, v).expect("edge exists in original");
            (u, v, w)
        })
        .collect();
    let tree = SteinerTree::new(solved.seeds.iter().copied(), edges);
    let edge_cost = tree.total_distance();
    let node_cost = tree
        .vertices()
        .into_iter()
        .map(|v| node_costs[v as usize])
        .sum();
    Ok(NodeWeightedTree {
        tree,
        edge_cost,
        node_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph::datasets::Dataset;

    fn diamond() -> CsrGraph {
        // Two routes 0 -> 3: through 1 or through 2, equal edge weights.
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1, 2), (1, 3, 2), (0, 2, 2), (2, 3, 2)]);
        b.build()
    }

    #[test]
    fn avoids_expensive_intermediate_nodes() {
        let g = diamond();
        // Vertex 1 is costly, vertex 2 is free: route through 2.
        let costs = vec![0, 100, 0, 0];
        let r = node_weighted_steiner(&g, &costs, &[0, 3]).unwrap();
        assert!(r.tree.validate(&g).is_ok());
        assert!(!r.tree.vertices().contains(&1), "must avoid the costly hub");
        assert_eq!(r.edge_cost, 4);
        assert_eq!(r.node_cost, 0);
    }

    #[test]
    fn zero_costs_reduce_to_ordinary() {
        let g = Dataset::Cts.generate_tiny(5);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 6).copied().collect();
        let costs = vec![0; g.num_vertices()];
        let nw = node_weighted_steiner(&g, &costs, &seeds).unwrap();
        let ordinary = mehlhorn(&g, &seeds).unwrap();
        assert_eq!(nw.edge_cost, ordinary.total_distance());
        assert_eq!(nw.node_cost, 0);
    }

    #[test]
    fn node_costs_are_counted_once_per_vertex() {
        let mut b = GraphBuilder::new(3);
        b.extend_edges([(0, 1, 1), (1, 2, 1)]);
        let g = b.build();
        let costs = vec![5, 7, 9];
        let r = node_weighted_steiner(&g, &costs, &[0, 2]).unwrap();
        assert_eq!(r.edge_cost, 2);
        assert_eq!(r.node_cost, 5 + 7 + 9);
        assert_eq!(r.total_cost(), 23);
    }

    #[test]
    fn trade_off_between_edges_and_nodes() {
        // Short route through a costly relay vs long direct route.
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1, 1), (1, 2, 1), (0, 3, 10), (3, 2, 10)]);
        let g = b.build();
        // Cheap relay: go through vertex 1.
        let r = node_weighted_steiner(&g, &[0, 1, 0, 1], &[0, 2]).unwrap();
        assert!(r.tree.vertices().contains(&1));
        // Exorbitant relay: the long way wins.
        let r = node_weighted_steiner(&g, &[0, 1000, 0, 1], &[0, 2]).unwrap();
        assert!(r.tree.vertices().contains(&3));
    }

    #[test]
    #[should_panic]
    fn wrong_cost_vector_length_panics() {
        let g = diamond();
        let _ = node_weighted_steiner(&g, &[1, 2], &[0, 3]);
    }

    #[test]
    fn feasible_on_scale_free_graph() {
        let g = Dataset::Ptn.generate_tiny(11);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 8).copied().collect();
        let costs: Vec<u64> = (0..g.num_vertices() as u64).map(|i| i % 50).collect();
        let r = node_weighted_steiner(&g, &costs, &seeds).unwrap();
        assert!(r.tree.validate(&g).is_ok());
        assert!(r.total_cost() >= r.edge_cost);
    }
}
