//! Tree edges carry weights derived from the Voronoi labels,
//! `dist(child) - dist(pred)`, not a weight stored with each label. These
//! tests solve the graphs where that derivation could go wrong: a
//! multigraph whose parallel edges differ in weight, and a graph whose
//! weights sit just under the `WeightOverflow` bound, on every rank count
//! and queue discipline, with and without delegates.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use steiner::{solve, QueueKind, SolverConfig};
use stgraph::csr::{Vertex, Weight, INF};
use stgraph::{CsrGraph, GraphBuilder, SteinerTree};

/// A connected multigraph on `n` vertices: a random spanning tree plus
/// random chords, and on about a third of the edges one or two parallel
/// copies of another weight. Parallel arcs keep a shuffled order, so the
/// lightest copy is not always the first.
fn multigraph(n: usize, seed: u64) -> CsrGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges: Vec<(Vertex, Vertex, Weight)> = Vec::new();
    for v in 1..n as Vertex {
        edges.push((rng.gen_range(0..v), v, rng.gen_range(1..20)));
    }
    for _ in 0..n {
        let (u, v) = (rng.gen_range(0..n as Vertex), rng.gen_range(0..n as Vertex));
        if u != v {
            edges.push((u, v, rng.gen_range(1..20)));
        }
    }
    for i in 0..edges.len() {
        if rng.gen_range(0..3) == 0 {
            let (u, v, _) = edges[i];
            for _ in 0..rng.gen_range(1..3) {
                edges.push((u, v, rng.gen_range(1..20)));
            }
        }
    }
    let mut arcs: Vec<(Vertex, Vertex, Weight)> = edges
        .iter()
        .flat_map(|&(u, v, w)| [(u, v, w), (v, u, w)])
        .collect();
    arcs.shuffle(&mut rng);
    // Stable: parallel arcs keep their shuffled weight order.
    arcs.sort_by_key(|&(u, v, _)| (u, v));
    let mut offsets = vec![0u64; n + 1];
    for &(u, _, _) in &arcs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let (targets, weights) = arcs.iter().map(|&(_, v, w)| (v, w)).unzip();
    CsrGraph::from_raw_parts(offsets, targets, weights)
}

/// A connected graph on `n` vertices whose weights lie within 1000 of the
/// largest the solver accepts: `(2n - 1) * max_weight < INF`.
fn heavy_graph(n: usize, seed: u64) -> CsrGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let top = (INF - 1) / (2 * n as u64 - 1);
    let mut b = GraphBuilder::new(n);
    b.add_edge(0, 1, top);
    for v in 2..n as Vertex {
        b.add_edge(rng.gen_range(0..v), v, top - rng.gen_range(0..1000));
    }
    for _ in 0..n {
        let (u, v) = (rng.gen_range(0..n as Vertex), rng.gen_range(0..n as Vertex));
        if u != v {
            b.add_edge(u, v, top - rng.gen_range(0..1000));
        }
    }
    b.build()
}

/// The lightest of the `(u, v)` arcs of `g`, read off the adjacency.
fn lightest(g: &CsrGraph, u: Vertex, v: Vertex) -> Option<Weight> {
    g.edges(u).filter(|&(x, _)| x == v).map(|(_, w)| w).min()
}

/// Solves `g` for `seeds` on ranks {1, 2, 4} × {priority, fifo,
/// adversarial} × {no delegates, delegates above degree 4} and checks
/// that every tree validates, carries the lightest weight on each edge,
/// and equals every other.
fn check_derived_weights(name: &str, g: &CsrGraph, seeds: &[Vertex]) {
    let mut reference: Option<SteinerTree> = None;
    for p in [1, 2, 4] {
        for queue in [
            QueueKind::Priority,
            QueueKind::Fifo,
            QueueKind::Adversarial { seed: 5 },
        ] {
            for delegate_threshold in [None, Some(4)] {
                let cfg = SolverConfig {
                    num_ranks: p,
                    queue,
                    delegate_threshold,
                    ..SolverConfig::default()
                };
                let at = format!("{name}, {p} ranks, {queue:?}, delegates {delegate_threshold:?}");
                let tree = solve(g, seeds, &cfg)
                    .unwrap_or_else(|e| panic!("{at}: {e}"))
                    .tree;
                tree.validate(g).unwrap_or_else(|e| panic!("{at}: {e}"));
                for &(u, v, w) in &tree.edges {
                    assert_eq!(Some(w), lightest(g, u, v), "{at}: edge ({u}, {v})");
                }
                match &reference {
                    None => reference = Some(tree),
                    Some(first) => assert!(tree == *first, "{at}: tree differs"),
                }
            }
        }
    }
}

#[test]
fn parallel_edges_give_the_lightest_weight() {
    for seed in [1, 2, 3] {
        let g = multigraph(60, seed);
        let parallel = (0..60)
            .flat_map(|u| g.neighbors(u).windows(2))
            .filter(|pair| pair[0] == pair[1])
            .count();
        assert!(parallel > 10, "seed {seed}: {parallel} parallel arcs");
        let seeds: Vec<Vertex> = (0..60).step_by(7).collect();
        check_derived_weights(&format!("multigraph {seed}"), &g, &seeds);
    }
}

#[test]
fn weights_just_under_the_overflow_bound_derive_exactly() {
    for seed in [1, 2] {
        let g = heavy_graph(40, seed);
        let seeds: Vec<Vertex> = (0..40).step_by(6).collect();
        check_derived_weights(&format!("heavy {seed}"), &g, &seeds);
    }
}
