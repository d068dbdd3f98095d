//! Criterion micro-benchmarks of the distributed Voronoi kernel: queue
//! discipline (FIFO vs priority), rank counts, and vertex delegation —
//! the ablations DESIGN.md calls out for the paper's §IV design choices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use steiner::{solve_partitioned, QueueKind, SolverConfig};
use stgraph::datasets::Dataset;
use stgraph::partition::partition_graph;

fn pick_seeds(g: &stgraph::CsrGraph, k: usize) -> Vec<u32> {
    seeds::select(g, k, seeds::Strategy::BfsLevel, 1)
}

fn bench_queue_disciplines(c: &mut Criterion) {
    let mut group = c.benchmark_group("voronoi_queue");
    for dataset in [Dataset::Lvj, Dataset::Ptn] {
        let g = dataset.generate_tiny(3);
        let seeds = pick_seeds(&g, 32);
        let pg = partition_graph(&g, 2, None);
        for queue in [QueueKind::Fifo, QueueKind::Priority] {
            let cfg = SolverConfig {
                num_ranks: 2,
                queue,
                ..SolverConfig::default()
            };
            group.bench_with_input(
                BenchmarkId::new(queue.name(), dataset.name()),
                &cfg,
                |b, cfg| {
                    b.iter(|| solve_partitioned(&pg, &seeds, cfg).expect("connected"));
                },
            );
        }
    }
    group.finish();
}

fn bench_rank_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("voronoi_ranks");
    let g = Dataset::Lvj.generate_tiny(5);
    let seeds = pick_seeds(&g, 32);
    for p in [1usize, 2, 4] {
        let pg = partition_graph(&g, p, None);
        let cfg = SolverConfig {
            num_ranks: p,
            ..SolverConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(p), &cfg, |b, cfg| {
            b.iter(|| solve_partitioned(&pg, &seeds, cfg).expect("connected"));
        });
    }
    group.finish();
}

fn bench_delegates(c: &mut Criterion) {
    let mut group = c.benchmark_group("voronoi_delegates");
    let g = Dataset::Wdc.generate_tiny(7); // most skewed degree distribution
    let seeds = pick_seeds(&g, 32);
    for (name, thresh) in [("off", None), ("deg>=64", Some(64)), ("deg>=16", Some(16))] {
        let pg = partition_graph(&g, 4, thresh);
        let cfg = SolverConfig {
            num_ranks: 4,
            delegate_threshold: thresh,
            ..SolverConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| solve_partitioned(&pg, &seeds, cfg).expect("connected"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_queue_disciplines,
    bench_rank_counts,
    bench_delegates
);
criterion_main!(benches);
