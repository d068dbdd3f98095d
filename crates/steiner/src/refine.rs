//! Optional post-processing: KMB steps 4–5 (MST of the output subgraph and
//! Steiner-leaf pruning).
//!
//! The paper's distributed algorithm (Alg 2) stops at the union of the
//! expanded paths, which is already a valid Steiner tree (each Voronoi
//! cell contributes a subtree of its shortest-path tree, and the |S|-1
//! active bridges connect cells acyclically per the MST topology). The
//! full KMB/Mehlhorn pipelines additionally re-MST that subgraph and prune
//! non-seed leaves, which can only shave weight. This module makes the
//! refinement available as a solver option so the trade-off is measurable
//! (see the quality ablation in the bench crate).

use std::collections::HashMap;
use stgraph::csr::{Vertex, Weight};
use stgraph::mst::{kruskal, AuxEdge};
use stgraph::steiner_tree::SteinerTree;

/// Re-MSTs the tree's edge set (a no-op on an already-minimal tree, but
/// cheap insurance against duplicate path segments) and prunes non-seed
/// leaves. Returns the refined tree.
pub fn refine(tree: &SteinerTree) -> SteinerTree {
    let mut ids: HashMap<Vertex, u32> = HashMap::new();
    let mut rev: Vec<Vertex> = Vec::new();
    let id_of = |v: Vertex, ids: &mut HashMap<Vertex, u32>, rev: &mut Vec<Vertex>| {
        *ids.entry(v).or_insert_with(|| {
            rev.push(v);
            (rev.len() - 1) as u32
        })
    };
    let aux: Vec<AuxEdge> = tree
        .edges
        .iter()
        .map(|&(u, v, w)| {
            (
                id_of(u, &mut ids, &mut rev),
                id_of(v, &mut ids, &mut rev),
                w,
            )
        })
        .collect();
    let chosen = kruskal(rev.len(), &aux);
    let mut edges: Vec<(Vertex, Vertex, Weight)> = chosen.iter().map(|&i| tree.edges[i]).collect();

    let seed_set: std::collections::HashSet<Vertex> = tree.seeds.iter().copied().collect();
    loop {
        let mut degree: HashMap<Vertex, u32> = HashMap::new();
        for &(u, v, _) in &edges {
            *degree.entry(u).or_default() += 1;
            *degree.entry(v).or_default() += 1;
        }
        let before = edges.len();
        edges.retain(|&(u, v, _)| {
            let u_leaf = degree[&u] == 1 && !seed_set.contains(&u);
            let v_leaf = degree[&v] == 1 && !seed_set.contains(&v);
            !(u_leaf || v_leaf)
        });
        if edges.len() == before {
            break;
        }
    }
    SteinerTree::new(tree.seeds.iter().copied(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refine_drops_steiner_leaf_chains() {
        let t = SteinerTree::new(
            [0, 2],
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)], // 3,4 dangle
        );
        let r = refine(&t);
        assert_eq!(r.edges, vec![(0, 1, 1), (1, 2, 1)]);
    }

    #[test]
    fn refine_keeps_minimal_tree_unchanged() {
        let t = SteinerTree::new([0, 2], [(0, 1, 1), (1, 2, 1)]);
        assert_eq!(refine(&t), t);
    }
}
