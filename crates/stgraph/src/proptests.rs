//! Property-based tests over the graph substrate.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Vertex, Weight};
use crate::partition::{partition_graph, BlockPartition};
use crate::traversal::connected_components;
use proptest::prelude::*;

/// Strategy: an arbitrary small weighted edge list over `n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec(
            (0..n as Vertex, 0..n as Vertex, 1..1000u64 as Weight),
            0..max_m,
        )
        .prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
    })
}

proptest! {
    #[test]
    fn built_graphs_satisfy_invariants(g in arb_graph(40, 200)) {
        prop_assert!(g.validate_symmetric().is_ok());
    }

    #[test]
    fn arc_count_is_twice_edge_count(g in arb_graph(40, 200)) {
        prop_assert_eq!(g.num_arcs(), 2 * g.num_edges());
    }

    #[test]
    fn block_partition_covers_all_vertices(n in 1usize..200, p in 1usize..17) {
        let part = BlockPartition::new(n, p);
        let mut seen = vec![false; n];
        for rank in 0..p {
            for v in part.range(rank) {
                prop_assert!(!seen[v as usize], "vertex {} owned twice", v);
                seen[v as usize] = true;
                prop_assert_eq!(part.owner(v), rank);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn block_partition_is_balanced(n in 1usize..500, p in 1usize..17) {
        let part = BlockPartition::new(n, p);
        let sizes: Vec<usize> = (0..p).map(|r| part.range(r).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "unbalanced: {:?}", sizes);
    }

    #[test]
    fn partitioned_arcs_cover_graph(
        g in arb_graph(30, 120),
        p in 1usize..7,
        thresh in proptest::option::of(1usize..12),
    ) {
        let pg = partition_graph(&g, p, thresh);
        let mut local: Vec<_> = pg.ranks.iter()
            .flat_map(|r| r.stored_arcs())
            .collect();
        local.sort_unstable();
        let mut global: Vec<_> = g.arcs().collect();
        global.sort_unstable();
        prop_assert_eq!(local, global);
    }

    #[test]
    fn components_partition_vertices(g in arb_graph(40, 100)) {
        let cc = connected_components(&g);
        prop_assert_eq!(cc.label.len(), g.num_vertices());
        prop_assert_eq!(cc.sizes.iter().sum::<usize>(), g.num_vertices());
        // Every edge stays within one component.
        for (u, v, _) in g.undirected_edges() {
            prop_assert!(cc.same_component(u, v));
        }
    }

    #[test]
    fn edge_list_io_roundtrips(g in arb_graph(30, 100)) {
        let mut buf = Vec::new();
        crate::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = crate::io::read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(g.num_vertices(), g2.num_vertices());
        prop_assert_eq!(
            g.undirected_edges().collect::<Vec<_>>(),
            g2.undirected_edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn binary_io_roundtrips(g in arb_graph(30, 100)) {
        let mut buf = Vec::new();
        crate::io::write_binary(&g, &mut buf).unwrap();
        let g2 = crate::io::read_binary(&buf[..]).unwrap();
        prop_assert_eq!(
            g.undirected_edges().collect::<Vec<_>>(),
            g2.undirected_edges().collect::<Vec<_>>()
        );
    }
}
