//! Criterion micro-benchmarks of the distance-graph phases: the sequential
//! cross-cell reduction kernels and the two MST pipelines (the replicated
//! dense `Allreduce(MIN)` plus Prim vs the distributed Borůvka rounds).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use steiner::{solve_partitioned, MstMode, SolverConfig};
use stgraph::datasets::Dataset;
use stgraph::partition::partition_graph;

fn bench_mst_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_graph_mst");
    let g = Dataset::Lvj.generate_tiny(11);
    let seeds = seeds::select(&g, 64, seeds::Strategy::BfsLevel, 1);
    let pg = partition_graph(&g, 2, None);
    for (name, mst_mode) in [("replicated", MstMode::Replicated), ("dist", MstMode::Dist)] {
        let cfg = SolverConfig {
            num_ranks: 2,
            mst_mode,
            ..SolverConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| solve_partitioned(&pg, &seeds, cfg).expect("connected"));
        });
    }
    group.finish();
}

fn bench_cross_edge_reduction(c: &mut Criterion) {
    use baselines::common::{cross_edges, min_cross_edges};
    use baselines::shortest_path::voronoi_cells;
    let g = Dataset::Ptn.generate_tiny(13);
    let seeds = seeds::select(&g, 48, seeds::Strategy::BfsLevel, 2);
    let vr = voronoi_cells(&g, &seeds);
    c.bench_function("cross_edges_enumerate", |b| {
        b.iter(|| std::hint::black_box(cross_edges(&g, &vr)));
    });
    let all = cross_edges(&g, &vr);
    c.bench_function("cross_edges_min_reduce", |b| {
        b.iter(|| std::hint::black_box(min_cross_edges(&all)));
    });
}

criterion_group!(benches, bench_mst_modes, bench_cross_edge_reduction);
criterion_main!(benches);
