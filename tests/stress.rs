//! Scale/stress tests — ignored by default; run with
//! `cargo test --release --test stress -- --ignored`.
//!
//! These exercise the suite at its largest analogue scale (the paper's
//! smallest cluster configurations) and under many repeated solves on
//! resident ranks.

use steiner::{solve, SolverConfig};
use stgraph::datasets::Dataset;

#[test]
#[ignore = "multi-second full-scale run; use --ignored in release mode"]
fn full_scale_wdc_with_sixteen_ranks() {
    let g = Dataset::Wdc.generate(1);
    let cc = stgraph::traversal::connected_components(&g);
    let cap = cc.sizes[cc.largest() as usize] / 2;
    let seeds = seeds::select(&g, 1000.min(cap), seeds::Strategy::BfsLevel, 1);
    let cfg = SolverConfig {
        num_ranks: 16,
        delegate_threshold: Some(64),
        ..SolverConfig::default()
    };
    let report = solve(&g, &seeds, &cfg).expect("seeds connected");
    report.tree.validate(&g).expect("valid tree at scale");
    assert!(report.simulated_speedup() > 4.0, "load balance at 16 ranks");
}

#[test]
#[ignore = "multi-second full-scale run; use --ignored in release mode"]
fn ten_thousand_seeds_on_largest_analogue() {
    // The paper's headline: Steiner trees with 10K seeds. On the WDC
    // analogue (2^15 vertices) the full 10K fits inside the LCC.
    let g = Dataset::Wdc.generate(2);
    let cc = stgraph::traversal::connected_components(&g);
    let cap = cc.sizes[cc.largest() as usize] / 2;
    let k = 10_000.min(cap);
    let seeds = seeds::select(&g, k, seeds::Strategy::BfsLevel, 2);
    let cfg = SolverConfig {
        num_ranks: 8,
        ..SolverConfig::default()
    };
    let t = std::time::Instant::now();
    let report = solve(&g, &seeds, &cfg).expect("seeds connected");
    let elapsed = t.elapsed();
    report.tree.validate(&g).expect("valid tree");
    assert!(report.tree.num_edges() >= k - 1);
    // "under one minute" at cluster scale; our analogue is far smaller, so
    // hold it to the same wall-clock budget on one core.
    assert!(elapsed.as_secs() < 60, "took {elapsed:?}");
}

#[test]
#[ignore = "many repeated solves on resident ranks"]
fn persistent_world_sustains_repeated_solves() {
    use std::sync::Arc;
    use stgraph::partition::partition_graph;
    use struntime::PersistentWorld;
    let g = Dataset::Ptn.generate(4);
    let cc = stgraph::traversal::connected_components(&g);
    let verts = cc.largest_component_vertices();
    let world = PersistentWorld::new(4);
    let pg = Arc::new(partition_graph(&g, 4, None));
    let cfg = SolverConfig {
        num_ranks: 4,
        ..SolverConfig::default()
    };
    let mut last = None;
    for round in 0..50usize {
        let seeds: Vec<u32> = verts
            .iter()
            .skip(round % 7)
            .step_by(verts.len() / 50)
            .copied()
            .collect();
        let r = steiner::solve_on(&world, &pg, &seeds, &cfg).expect("connected");
        r.tree.validate(&g).expect("valid");
        last = Some(r);
    }
    assert!(last.is_some());
}
