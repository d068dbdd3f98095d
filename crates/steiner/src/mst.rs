//! Sequential MST of the distance graph `G_1'` (Alg 3, Step 3).
//!
//! `G_1'` has at most `binom(|S|, 2)` edges — tiny next to the data graph —
//! so, following the paper (and Bader et al.'s small-problem cutoff), it is
//! solved sequentially with Prim's algorithm and replicated on every rank:
//! each rank computes the identical MST locally instead of shipping it.

use crate::distance_graph::{MinEdge, PairKey};
use stgraph::mst::{prim, AuxEdge};

/// Computes the MST of the distance graph. Returns the indices (into
/// `edges`) of the chosen distance-graph edges. Deterministic: ties break
/// on the same `(weight, si, ti)` ordering on every rank. On a distance
/// graph that does not span the seeds it is a spanning forest, with fewer
/// than `num_seeds - 1` edges.
pub fn mst_of_distance_graph(num_seeds: usize, edges: &[(PairKey, MinEdge)]) -> Vec<usize> {
    let aux: Vec<AuxEdge> = edges
        .iter()
        .map(|&((si, ti), e)| (si, ti, e.total))
        .collect();
    prim(num_seeds, &aux)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(total: u64) -> MinEdge {
        MinEdge {
            total,
            a: 0,
            b: 1,
            weight: 1,
        }
    }

    #[test]
    fn picks_cheapest_spanning_edges() {
        let edges = vec![
            ((0u32, 1u32), edge(5)),
            ((1, 2), edge(2)),
            ((0, 2), edge(4)),
        ];
        let chosen = mst_of_distance_graph(3, &edges);
        let mut totals: Vec<u64> = chosen.iter().map(|&i| edges[i].1.total).collect();
        totals.sort_unstable();
        assert_eq!(totals, vec![2, 4]);
    }

    #[test]
    fn detects_disconnection() {
        let edges = vec![((0u32, 1u32), edge(5))];
        let chosen = mst_of_distance_graph(3, &edges);
        assert_eq!(chosen, vec![0], "a forest: seed 2 stays unjoined");
    }

    #[test]
    fn single_pair() {
        let edges = vec![((0u32, 1u32), edge(7))];
        let chosen = mst_of_distance_graph(2, &edges);
        assert_eq!(chosen, vec![0]);
    }
}
