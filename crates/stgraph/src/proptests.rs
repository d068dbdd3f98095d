//! Property-based tests over the graph substrate.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Vertex, Weight};
use crate::generators::{
    barabasi_albert, erdos_renyi, grid2d, rmat, star, weighted_from_edges, RmatParams,
};
use crate::partition::{evaluates, partition_graph, BlockPartition, Ghost, LocalId};
use crate::traversal::connected_components;
use crate::weights::WeightRange;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// Strategy: a graph from one of the generator families (Erdős–Rényi,
/// Barabási–Albert, R-MAT, star, grid) with random weights.
fn arb_family_graph() -> impl Strategy<Value = CsrGraph> {
    (0..5usize, 2..7u32, 0..u64::MAX).prop_map(|(family, scale, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 1usize << scale;
        let edges = match family {
            0 => erdos_renyi(n, 2 * n, &mut rng),
            1 => barabasi_albert(n, 2, &mut rng),
            2 => rmat(scale, 4 * n, RmatParams::graph500(), &mut rng),
            3 => star(n),
            _ => grid2d(n / 4, 4),
        };
        weighted_from_edges(n, edges, WeightRange::new(1, 30), &mut rng)
    })
}

/// Strategy: up to 200 vertex costs, about a quarter of them zero.
fn arb_costs() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0..4u32, 1..1000u64).prop_map(|(zero, c)| if zero == 0 { 0 } else { c }),
        0..200,
    )
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

    /// The cut over any costs, zeros included: `p` contiguous blocks
    /// covering `0..n`, `owner` agreeing with `range`, and no block
    /// costing more than `total / p` plus the largest single cost.
    #[test]
    fn cost_cut_is_contiguous_and_balanced(costs in arb_costs(), p in 1usize..17) {
        let n = costs.len();
        let total: u128 = costs.iter().map(|&c| c as u128).sum();
        let part = BlockPartition::cut(n, p, total, |v| costs[v as usize] as u128);
        let cuts = part.cuts();
        prop_assert_eq!(cuts.len(), p + 1);
        prop_assert_eq!((cuts[0], cuts[p]), (0, n as Vertex));
        prop_assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "not contiguous: {:?}", cuts);
        let largest = costs.iter().copied().max().unwrap_or(0) as u128;
        for rank in 0..p {
            let range = part.range(rank);
            for v in range.clone() {
                prop_assert_eq!(part.owner(v), rank);
            }
            let cost: u128 = range.map(|v| costs[v as usize] as u128).sum();
            prop_assert!(
                cost * p as u128 <= total + p as u128 * largest,
                "rank {} costs {} of {} (largest {}): {:?}", rank, cost, total, largest, cuts
            );
        }
    }

    /// `partition_graph` cuts by the mixed cost: `deg(v) + d` per vertex
    /// with arcs, `d` per delegate and 0 per isolated vertex, with `d`
    /// the mean degree of the live vertices (scaled by their count). An
    /// edgeless graph gets the unit-cost cut. Every rank owns its block.
    #[test]
    fn partition_cuts_by_degree_plus_mean_degree(
        g in arb_graph(40, 120),
        p in 1usize..9,
        thresh in proptest::option::of(1usize..8),
    ) {
        let n = g.num_vertices();
        let arcs = g.num_arcs() as u128;
        let live = g.vertices().filter(|&v| g.degree(v) > 0).count() as u128;
        let costs: Vec<u128> = g.vertices().map(|v| {
            let deg = g.degree(v);
            if thresh.is_some_and(|t| deg >= t) {
                arcs
            } else if deg > 0 {
                deg as u128 * live + arcs
            } else {
                0
            }
        }).collect();
        let total: u128 = costs.iter().sum();
        let expect = if total == 0 {
            BlockPartition::new(n, p)
        } else {
            BlockPartition::cut(n, p, total, |v| costs[v as usize])
        };
        let pg = partition_graph(&g, p, thresh);
        prop_assert_eq!(&pg.partition, &expect);
        for (rank, rg) in pg.ranks.iter().enumerate() {
            prop_assert_eq!(rg.owned.clone(), expect.range(rank));
        }
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

    /// The min-edge scan's layout: every stored adjacency holds the arcs
    /// `evaluates` accepts first, the stored arcs are the graph's, and the
    /// evaluated prefixes cover each undirected edge exactly once across
    /// ranks.
    #[test]
    fn stored_adjacency_puts_evaluated_arcs_first(g in arb_family_graph()) {
        let mut global: Vec<_> = g.arcs().collect();
        global.sort_unstable();
        let mut edges: Vec<_> = global.iter().copied().filter(|&(u, v, _)| u < v).collect();
        edges.sort_unstable();
        for p in [1usize, 2, 4] {
            for threshold in [None, Some(4)] {
                let pg = partition_graph(&g, p, threshold);
                let mut stored: Vec<_> = pg.ranks.iter().flat_map(|r| r.stored_arcs()).collect();
                stored.sort_unstable();
                prop_assert_eq!(&stored, &global, "p={} threshold={:?}", p, threshold);
                let mut evaluated = Vec::new();
                for rg in &pg.ranks {
                    let owned = (0..rg.num_owned()).map(|i| {
                        let (targets, weights) = rg.owned_arcs(i);
                        let arcs: Vec<_> = targets.iter().copied().zip(weights.iter().copied()).collect();
                        (i, arcs)
                    });
                    let delegated = (0..rg.delegates.len())
                        .map(|k| (rg.num_owned() + k, rg.delegate_arcs(k).to_vec()));
                    for (i, arcs) in owned.chain(delegated) {
                        let u = rg.global_id(i as LocalId);
                        let arcs: Vec<_> = arcs.iter().map(|&(v, w)| (rg.global_id(v), w)).collect();
                        let prefix = rg.num_evaluated(i);
                        prop_assert!(
                            arcs[..prefix].iter().all(|&(v, _)| evaluates(&g, &pg.partition, u, v))
                                && arcs[prefix..].iter().all(|&(v, _)| !evaluates(&g, &pg.partition, u, v)),
                            "source {} at p={} threshold={:?}: prefix {} is not the evaluated arcs",
                            u, p, threshold, prefix
                        );
                        evaluated.extend(arcs[..prefix].iter().map(|&(v, w)| (u.min(v), u.max(v), w)));
                    }
                }
                evaluated.sort_unstable();
                prop_assert_eq!(&evaluated, &edges, "p={} threshold={:?}", p, threshold);
            }
        }
    }
    /// The per-rank renumbering: every stored arc maps back to the graph's
    /// arcs; owned, replica and ghost ids are dense and disjoint; each
    /// ghost's recorded owner owns it; and peer q's mirror list for rank r
    /// is r's ghosts owned by q, in r's ghost order.
    #[test]
    fn local_ids_renumber_every_rank(g in arb_family_graph()) {
        let mut global: Vec<_> = g.arcs().collect();
        global.sort_unstable();
        for p in [1usize, 2, 3, 4] {
            for threshold in [None, Some(4)] {
                let ctx = format!("p={p} threshold={threshold:?}");
                let pg = partition_graph(&g, p, threshold);
                let mut stored: Vec<_> = pg.ranks.iter().flat_map(|r| r.stored_arcs()).collect();
                stored.sort_unstable();
                prop_assert_eq!(&stored, &global, "{}", &ctx);
                for rg in &pg.ranks {
                    let (owned, held) = (rg.num_owned(), rg.num_held());
                    let ids = held + rg.ghosts().len();
                    // Each id names one vertex and each vertex one id, but
                    // for an owned delegate's unused owned slot.
                    let globals: Vec<Vertex> = (0..ids as LocalId).map(|i| rg.global_id(i)).collect();
                    let owned_delegates = rg.delegates.iter().filter(|&&d| rg.owns(d)).count();
                    let mut distinct = globals.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    prop_assert_eq!(distinct.len(), ids - owned_delegates, "{}: ids not disjoint", &ctx);
                    prop_assert!(globals[..owned].iter().copied().eq(rg.owned.clone()), "{}", &ctx);
                    prop_assert_eq!(&globals[owned..held], &rg.delegates[..], "{}", &ctx);
                    // Every stored target is a live id, never the unused
                    // owned slot of an owned delegate.
                    let targets = (0..owned)
                        .flat_map(|i| rg.owned_arcs(i).0.to_vec())
                        .chain((0..rg.delegates.len()).flat_map(|k| rg.delegate_arcs(k).iter().map(|&(t, _)| t).collect::<Vec<_>>()));
                    let mut named = vec![false; ids];
                    for t in targets {
                        prop_assert!((t as usize) < ids, "{}: target {} out of range", &ctx, t);
                        prop_assert!(
                            (t as usize) >= owned || !rg.delegates.contains(&globals[t as usize]),
                            "{}: arc names an owned delegate's owned slot", &ctx
                        );
                        named[t as usize] = true;
                    }
                    prop_assert!(named[held..].iter().all(|&n| n), "{}: a ghost no arc names", &ctx);
                    // Ghosts: owned by their recorded owner, elsewhere,
                    // grouped by owner in rank order.
                    for &Ghost { global, owner } in rg.ghosts() {
                        prop_assert_eq!(pg.partition.owner(global), owner as usize, "{}", &ctx);
                        prop_assert!(owner as usize != rg.rank, "{}", &ctx);
                        prop_assert!(!rg.delegates.contains(&global), "{}", &ctx);
                    }
                    prop_assert!(rg.ghosts().windows(2).all(|w| w[0].owner <= w[1].owner), "{}", &ctx);
                    // Mirrors: peer q's list for this rank is this rank's
                    // ghosts owned by q, in this rank's order.
                    for (q, peer) in pg.ranks.iter().enumerate() {
                        let want: Vec<Vertex> = rg.ghosts().iter()
                            .filter(|gh| gh.owner as usize == q)
                            .map(|gh| gh.global)
                            .collect();
                        let mirrors = peer.mirrors(rg.rank);
                        prop_assert!(mirrors.iter().all(|&m| (m as usize) < peer.num_owned()), "{}", &ctx);
                        let got: Vec<Vertex> = mirrors.iter().map(|&m| peer.global_id(m)).collect();
                        prop_assert_eq!(got, want, "{}: mirrors of rank {} for rank {}", &ctx, q, rg.rank);
                    }
                }
            }
        }
    }
}
