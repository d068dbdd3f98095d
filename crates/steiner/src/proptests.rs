//! Property-based tests of the distributed solver against the sequential
//! references and the theoretical bound.

use crate::boruvka::distributed_mst;
use crate::distance_graph::{keyed, spanning_forest, Cand, MinEdge, PairKey};
use crate::{solve, QueueKind, SolverConfig};
use baselines::exact::dreyfus_wagner;
use baselines::mehlhorn::mehlhorn;
use baselines::shortest_path::voronoi_cells;
use proptest::prelude::*;
use stgraph::builder::GraphBuilder;
use stgraph::csr::{CsrGraph, Vertex};
use stgraph::partition::partition_graph;
use struntime::World;

/// Strategy: a connected weighted graph (random spanning tree plus extra
/// edges) with a seed subset — same shape as the baselines' proptests.
fn arb_connected_instance(
    max_n: usize,
    max_extra: usize,
    max_seeds: usize,
) -> impl Strategy<Value = (CsrGraph, Vec<Vertex>)> {
    (3..max_n).prop_flat_map(move |n| {
        let tree_weights = proptest::collection::vec(1..50u64, n - 1);
        let tree_parents: Vec<_> = (1..n).map(|v| 0..v).collect();
        let extras =
            proptest::collection::vec((0..n as Vertex, 0..n as Vertex, 1..50u64), 0..max_extra);
        let num_seeds = 2..max_seeds.min(n);
        (tree_weights, tree_parents, extras, num_seeds).prop_flat_map(move |(tw, tp, extras, k)| {
            let mut b = GraphBuilder::new(n);
            for (v, (&w, &p)) in tw.iter().zip(tp.iter()).enumerate() {
                b.add_edge((v + 1) as Vertex, p as Vertex, w);
            }
            for (u, v, w) in extras {
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            let g = b.build();
            proptest::collection::hash_set(0..n as Vertex, k).prop_map(move |seeds| {
                let mut seeds: Vec<Vertex> = seeds.into_iter().collect();
                seeds.sort_unstable();
                (g.clone(), seeds)
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash-stop recovery is deterministic: a seeded rank death in every
    /// phase the default mode runs, at ranks {2, 4} and under
    /// fifo/priority queues, restores from the last complete phase
    /// checkpoint and recovers a tree
    /// bit-identical to the undisturbed solve — with exactly one injected
    /// crash and one restore. The no-restore mutant (`max_restores: 0`) of
    /// the same plan must instead surface the structured unrecoverable
    /// error, never a wrong tree or a hang.
    #[test]
    fn crash_recovery_is_bit_identical_across_phases(
        (g, seeds) in arb_connected_instance(12, 14, 4),
    ) {
        use crate::FaultPlan;
        for p in [2usize, 4] {
            for queue in [QueueKind::Fifo, QueueKind::Priority] {
                let base = SolverConfig { num_ranks: p, queue, ..SolverConfig::default() };
                let reference = solve(&g, &seeds, &base).unwrap();
                for phase in base.mst_mode.phases() {
                    let plan = FaultPlan::from_spec(&format!(
                        "crash_rank=1,crash_at_sync=1,crash_phase={},seed=19",
                        phase.index()
                    )).unwrap();
                    let r = solve(&g, &seeds, &SolverConfig {
                        faults: Some(plan),
                        ..base
                    }).unwrap();
                    prop_assert_eq!(&r.tree, &reference.tree,
                        "recovered tree differs at p={} queue={:?} crash in {}",
                        p, queue, phase.name());
                    prop_assert_eq!(r.recovery.crashes_injected, 1,
                        "no crash fired at p={} queue={:?} phase {}", p, queue, phase.name());
                    prop_assert_eq!(r.recovery.restores, 1,
                        "expected one restore at p={} queue={:?} phase {}", p, queue, phase.name());
                }
                let plan = FaultPlan::from_spec("crash_rank=1,crash_at_sync=1,seed=19").unwrap();
                let mutant = solve(&g, &seeds, &SolverConfig {
                    faults: Some(plan),
                    max_restores: 0,
                    ..base
                });
                prop_assert!(
                    matches!(mutant, Err(stgraph::error::SteinerError::Unrecoverable { .. })),
                    "no-restore mutant at p={} queue={:?} returned {:?}",
                    p, queue, mutant.map(|r| r.tree.total_distance()));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The distributed Borůvka pipeline (`--mst dist`) is pinned
    /// bit-identical to the replicated Prim path across rank counts
    /// {1, 2, 4} × fifo/priority queues, fault-free and under
    /// message faults and a seeded crash-stop — the (total, si, ti)
    /// tie-breaking and the reliability/recovery machinery must never
    /// let the two pipelines disagree on a tree.
    #[test]
    fn dist_mst_is_bit_identical_to_replicated(
        (g, seeds) in arb_connected_instance(12, 14, 5),
    ) {
        use crate::{FaultPlan, MstMode};
        let fault_plans = [
            None,
            Some(FaultPlan::from_spec("drop=0.15,dup=0.1,seed=23").unwrap()),
            Some(FaultPlan::from_spec(
                "crash_rank=1,crash_at_sync=1,crash_phase=2,seed=31",
            ).unwrap()),
        ];
        for p in [1usize, 2, 4] {
            for queue in [QueueKind::Fifo, QueueKind::Priority] {
                let reference = solve(&g, &seeds, &SolverConfig {
                    num_ranks: p, queue, mst_mode: MstMode::Replicated, ..SolverConfig::default()
                }).unwrap();
                for plan in fault_plans {
                    let r = solve(&g, &seeds, &SolverConfig {
                        num_ranks: p,
                        queue,
                        mst_mode: MstMode::Dist,
                        faults: plan,
                        ..SolverConfig::default()
                    }).unwrap();
                    prop_assert_eq!(&r.tree, &reference.tree,
                        "dist tree differs at p={} queue={:?} faults={:?}",
                        p, queue, plan.map(|pl| pl.to_spec()));
                    let stats = r.boruvka.expect("dist solve reports rounds");
                    prop_assert_eq!(stats.components.last(), Some(&1),
                        "rounds did not converge at p={} queue={:?}", p, queue);
                }
            }
        }
    }
}

/// Kruskal after a full sort: the reference [`spanning_forest`] must
/// equal.
///
/// [`spanning_forest`]: crate::distance_graph::spanning_forest
fn sorted_kruskal(num_seeds: usize, cands: &[Cand]) -> Vec<Cand> {
    let mut sorted = cands.to_vec();
    sorted.sort_unstable();
    let mut dsu = stgraph::dsu::Dsu::new(num_seeds);
    sorted.into_iter().filter(|c| dsu.union(c.1, c.2)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The per-rank spanning forest filter is exact. Over random
    /// candidate lists, with repeated pairs and ties on `total`, and long
    /// enough that Filter-Kruskal splits: it equals sort-then-Kruskal,
    /// keeps at most |S| - 1 edges, gives the same forest when applied
    /// chunk by chunk, and distributed Borůvka over the
    /// per-rank forests returns the same chosen set and the same round
    /// counters as over the unfiltered lists, at ranks {1, 2, 4}.
    #[test]
    fn spanning_forest_filter_is_exact(
        k in 2usize..40,
        raw in proptest::collection::vec(
            (0u32..40, 0u32..40, 1u64..24, 0u32..500, 0u32..500, 1u64..6),
            0..3000,
        ),
    ) {
        let cands: Vec<Cand> = raw
            .into_iter()
            .map(|(x, y, total, a, b, w)| (x % k as u32, y % k as u32, total, a, b, w))
            .filter(|&(x, y, ..)| x != y)
            .map(|(x, y, total, a, b, w)| (total, x.min(y), x.max(y), a, b, w))
            .collect();
        let forest = spanning_forest(k, &mut cands.clone());
        prop_assert_eq!(&forest, &sorted_kruskal(k, &cands));
        prop_assert!(forest.len() < k);
        // Shrinking to a forest as candidates arrive changes nothing.
        let mut folded: Vec<Cand> = Vec::new();
        for chunk in cands.chunks(400) {
            folded.extend_from_slice(chunk);
            folded = spanning_forest(k, &mut folded);
        }
        prop_assert_eq!(&folded, &forest);
        for p in [1usize, 2, 4] {
            let lists: Vec<Vec<Cand>> = (0..p)
                .map(|r| cands.iter().copied().skip(r).step_by(p).collect())
                .collect();
            let unfiltered: Vec<Vec<(PairKey, MinEdge)>> = lists
                .iter()
                .map(|l| l.iter().copied().map(keyed).collect())
                .collect();
            let forests: Vec<Vec<(PairKey, MinEdge)>> = lists
                .iter()
                .map(|l| {
                    let forest = spanning_forest(k, &mut l.clone());
                    forest.into_iter().map(keyed).collect()
                })
                .collect();
            let run = |per_rank: &[Vec<(PairKey, MinEdge)>]| {
                World::run(p, |comm| distributed_mst(comm, &per_rank[comm.rank()], k)).results
            };
            let (full, filtered) = (run(&unfiltered), run(&forests));
            for rank in 0..p {
                prop_assert_eq!(&filtered[rank], &full[0], "p={} rank {}", p, rank);
                prop_assert_eq!(&full[rank], &full[0], "p={} rank {}", p, rank);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The distributed solve is a valid tree within the 2(1-1/|S|) bound.
    #[test]
    fn distributed_respects_bound(
        (g, seeds) in arb_connected_instance(14, 20, 6),
        p in 1usize..5,
        queue in prop_oneof![Just(QueueKind::Fifo), Just(QueueKind::Priority)],
    ) {
        let cfg = SolverConfig { num_ranks: p, queue, ..SolverConfig::default() };
        let report = solve(&g, &seeds, &cfg).unwrap();
        prop_assert!(report.tree.validate(&g).is_ok(), "{:?}", report.tree.validate(&g));
        let opt = dreyfus_wagner(&g, &seeds).unwrap().total_distance();
        let bound = 2.0 * (1.0 - 1.0 / seeds.len() as f64) * opt as f64 + 1e-9;
        prop_assert!(report.tree.total_distance() as f64 <= bound,
            "distributed {} > bound {bound} (opt {opt})", report.tree.total_distance());
    }

    /// Rank count, queue discipline, and delegation never change the tree:
    /// the (dist, src, pred) fixpoint is deterministic.
    #[test]
    fn solver_is_configuration_invariant(
        (g, seeds) in arb_connected_instance(16, 20, 5),
        thresh in proptest::option::of(2usize..8),
    ) {
        let reference = solve(&g, &seeds, &SolverConfig {
            num_ranks: 1, ..SolverConfig::default()
        }).unwrap();
        for p in [2usize, 3, 4] {
            for queue in [QueueKind::Fifo, QueueKind::Priority] {
                let cfg = SolverConfig {
                    num_ranks: p,
                    queue,
                    delegate_threshold: thresh,
                    ..SolverConfig::default()
                };
                let r = solve(&g, &seeds, &cfg).unwrap();
                prop_assert_eq!(&r.tree, &reference.tree,
                    "differs at p={} queue={:?} thresh={:?}", p, queue, thresh);
            }
        }
    }

    /// Satellite of the adversarial-queue seed fix: every queue discipline
    /// — including adversarial reordering with an arbitrary seed — yields
    /// the same Steiner tree at every rank count. Before the seed-mixing
    /// fix, adjacent adversarial seeds collapsed to near-identical
    /// schedules, so this family of schedules was barely explored.
    #[test]
    fn queue_disciplines_agree_across_rank_counts(
        (g, seeds) in arb_connected_instance(14, 16, 5),
        chaos_seed in 0..u64::MAX,
    ) {
        let reference = solve(&g, &seeds, &SolverConfig {
            num_ranks: 1, ..SolverConfig::default()
        }).unwrap();
        for p in [1usize, 2, 4] {
            for queue in [
                QueueKind::Fifo,
                QueueKind::Priority,
                QueueKind::Adversarial { seed: chaos_seed },
            ] {
                let cfg = SolverConfig { num_ranks: p, queue, ..SolverConfig::default() };
                let r = solve(&g, &seeds, &cfg).unwrap();
                prop_assert_eq!(&r.tree, &reference.tree,
                    "differs at p={} queue={:?}", p, queue);
            }
        }
    }

    /// Observation never perturbs the result: with tracing (lineage
    /// events and counter samples) and metrics on, the tree and the
    /// deterministic derived outputs (distance-graph size, fault
    /// counters) are bit-identical to the unobserved run at every rank
    /// count and queue discipline. Per-rank visit counts stay out of the
    /// comparison — they are schedule-dependent between any two runs of
    /// the asynchronous runtime, observed or not (the same reason
    /// bench-guard carries generous visit tolerances).
    #[test]
    fn observed_and_unobserved_solves_are_bit_identical(
        (g, seeds) in arb_connected_instance(14, 16, 5),
        chaos_seed in 0..u64::MAX,
    ) {
        use crate::{MetricsConfig, TraceConfig};
        use struntime::TraceEventKind;
        for p in [1usize, 2, 4] {
            for queue in [
                QueueKind::Fifo,
                QueueKind::Priority,
                QueueKind::Adversarial { seed: chaos_seed },
            ] {
                let base = SolverConfig { num_ranks: p, queue, ..SolverConfig::default() };
                let off = solve(&g, &seeds, &base).unwrap();
                let on = solve(&g, &seeds, &SolverConfig {
                    trace: TraceConfig::ring(),
                    metrics: MetricsConfig::On,
                    ..base
                }).unwrap();
                prop_assert_eq!(&on.tree, &off.tree,
                    "tree differs at p={} queue={:?}", p, queue);
                prop_assert_eq!(on.distance_graph_edges, off.distance_graph_edges,
                    "distance graph differs at p={} queue={:?}", p, queue);
                prop_assert_eq!(on.fault_stats.injected(), off.fault_stats.injected());
                prop_assert!(off.trace.is_empty());
                let counters = on.trace.ranks.iter()
                    .flat_map(|r| &r.events)
                    .filter(|e| e.kind == TraceEventKind::Counter)
                    .count();
                prop_assert!(counters > 0,
                    "no counter events at p={} queue={:?}", p, queue);
            }
        }
    }

    /// With refinement on, the distributed tree's distance matches the
    /// sequential Mehlhorn implementation (both are MST-of-G_1' expansions
    /// with the same finalization and tie-breaking data).
    #[test]
    fn refined_matches_sequential_mehlhorn(
        (g, seeds) in arb_connected_instance(14, 16, 6),
    ) {
        let cfg = SolverConfig { num_ranks: 3, refine: true, ..SolverConfig::default() };
        let dist_tree = solve(&g, &seeds, &cfg).unwrap().tree;
        let seq_tree = mehlhorn(&g, &seeds).unwrap();
        // Tie-breaking of equal-total bridges can differ between the two
        // pipelines, but MST weight equality pins total distance closely.
        let (a, b) = (dist_tree.total_distance() as f64, seq_tree.total_distance() as f64);
        prop_assert!((a - b).abs() / a.max(b).max(1.0) < 0.15,
            "distributed(refined) {a} vs mehlhorn {b}");
    }

    /// The distributed Voronoi state equals the sequential multi-source
    /// Dijkstra on distances (the labels' dist component).
    #[test]
    fn distributed_voronoi_matches_sequential(
        (g, seeds) in arb_connected_instance(16, 20, 5),
        p in 1usize..5,
    ) {
        use crate::state::{ScratchArena, VertexStates, NO_VERTEX};
        let pg = partition_graph(&g, p, None);
        let seeds_ref = &seeds;
        let pg_ref = &pg;
        let out = World::run(p, |comm| {
            let chan = comm.open_channels::<Vec<crate::messages::VoronoiMsg>>("voronoi");
            let rg = &pg_ref.ranks[comm.rank()];
            let mut st = VertexStates::new(rg);
            let mut scratch = ScratchArena::new();
            crate::voronoi::run(
                comm, &chan, pg_ref, &mut st, seeds_ref,
                struntime::traversal::TraversalOptions::new(QueueKind::Priority),
                &mut scratch,
            );
            st.owned_labels().collect::<Vec<_>>()
        });
        let vr = voronoi_cells(&g, &seeds);
        for labels in &out.results {
            for &(v, l) in labels {
                prop_assert_eq!(
                    l.dist,
                    vr.dist[v as usize],
                    "distance mismatch at {}", v
                );
                if l.src != NO_VERTEX {
                    prop_assert_eq!(Some(l.src), vr.src[v as usize], "src mismatch at {}", v);
                }
            }
        }
    }
}
