//! The Takahashi–Matsuyama algorithm (1980) — the paper's reference \[13\],
//! the original shortest-path-heuristic 2-approximation with bound
//! `2(1 - 1/|S|)`.
//!
//! Grow the tree from one terminal; repeatedly attach the terminal nearest
//! to the *current tree* via a shortest path. Each round is one
//! multi-source Dijkstra from every tree vertex, so the whole algorithm is
//! `O(|S| (V + E) log V)` — more work than Mehlhorn but often better
//! solution quality in practice (it re-uses already-built tree segments).

use crate::common::{check_seeds, SteinerError};
use crate::mehlhorn::first_disconnected_pair;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use stgraph::csr::{CsrGraph, Distance, Vertex, Weight, INF};
use stgraph::steiner_tree::SteinerTree;

/// Runs Takahashi–Matsuyama starting from the smallest seed id.
pub fn takahashi(g: &CsrGraph, seeds: &[Vertex]) -> Result<SteinerTree, SteinerError> {
    let seeds = check_seeds(g, seeds)?;
    if seeds.len() == 1 {
        return Ok(SteinerTree::new(seeds, []));
    }
    let n = g.num_vertices();
    let mut in_tree = vec![false; n];
    in_tree[seeds[0] as usize] = true;
    let mut edges: Vec<(Vertex, Vertex, Weight)> = Vec::new();
    let mut remaining: Vec<Vertex> = seeds[1..].to_vec();

    // Reused scratch arrays for the per-round Dijkstra.
    let mut dist: Vec<Distance> = vec![INF; n];
    let mut pred: Vec<Option<Vertex>> = vec![None; n];

    while !remaining.is_empty() {
        // Multi-source Dijkstra from all current tree vertices.
        dist.fill(INF);
        pred.fill(None);
        let mut heap: BinaryHeap<Reverse<(Distance, Vertex)>> = BinaryHeap::new();
        for v in 0..n as Vertex {
            if in_tree[v as usize] {
                dist[v as usize] = 0;
                heap.push(Reverse((0, v)));
            }
        }
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (v, w) in g.edges(u) {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    pred[v as usize] = Some(u);
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        // Nearest unconnected terminal; ties to the smaller id.
        let (idx, &next) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| (dist[t as usize], t))
            .expect("remaining non-empty");
        if dist[next as usize] == INF {
            return Err(first_disconnected_pair(g, &seeds));
        }
        remaining.swap_remove(idx);
        // Graft the shortest path onto the tree.
        let mut cur = next;
        while let Some(p) = pred[cur as usize] {
            if in_tree[cur as usize] {
                break;
            }
            in_tree[cur as usize] = true;
            let w = g.edge_weight(p, cur).expect("path edge exists");
            edges.push((p, cur, w));
            cur = p;
        }
    }
    Ok(SteinerTree::new(seeds, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::dreyfus_wagner;
    use stgraph::builder::GraphBuilder;
    use stgraph::datasets::Dataset;

    #[test]
    fn two_seeds_is_shortest_path() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10)]);
        let g = b.build();
        let t = takahashi(&g, &[0, 3]).unwrap();
        assert_eq!(t.total_distance(), 3);
        assert!(t.validate(&g).is_ok());
    }

    #[test]
    fn hub_star_within_bound() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([
            (0, 1, 4),
            (1, 2, 4),
            (0, 2, 4),
            (0, 3, 2),
            (1, 3, 2),
            (2, 3, 2),
        ]);
        let g = b.build();
        let t = takahashi(&g, &[0, 1, 2]).unwrap();
        // Shortest-path ties resolve to the direct edges here, so TM pays
        // the full 8 — exactly the 2(1 - 1/3) * 6 bound, not the optimum.
        assert!(t.validate(&g).is_ok());
        assert!(t.total_distance() <= 8);
    }

    #[test]
    fn within_bound_on_random_instances() {
        for seed in 0..6u64 {
            let g = Dataset::Cts.generate_tiny(seed);
            let cc = stgraph::traversal::connected_components(&g);
            let verts = cc.largest_component_vertices();
            let seeds: Vec<u32> = verts.iter().step_by(verts.len() / 6).copied().collect();
            let t = takahashi(&g, &seeds).unwrap();
            assert!(t.validate(&g).is_ok());
            let opt = dreyfus_wagner(&g, &seeds).unwrap().total_distance();
            let bound = 2.0 * (1.0 - 1.0 / seeds.len() as f64) * opt as f64;
            assert!(
                t.total_distance() as f64 <= bound + 1e-9,
                "instance {seed}: {} > {bound}",
                t.total_distance()
            );
        }
    }

    #[test]
    fn disconnected_error() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1, 1), (2, 3, 1)]);
        let g = b.build();
        assert!(matches!(
            takahashi(&g, &[0, 2]),
            Err(SteinerError::SeedsDisconnected(_, _))
        ));
    }

    #[test]
    fn single_seed() {
        let g = Dataset::Cts.generate_tiny(1);
        assert_eq!(takahashi(&g, &[9]).unwrap().num_edges(), 0);
    }
}
