//! Fig 7: influence of the edge-weight distribution on runtime, FIFO vs
//! priority queues.
//!
//! The paper reweights the LVJ graph with ranges \[1,100\] up to \[1,100K\]
//! (fixed 1K seeds, one machine) and finds: (a) weight range affects
//! Voronoi convergence, (b) FIFO runtime is far more variable across
//! ranges (stddev 13.5s vs 0.91s), i.e. the priority queue makes the
//! solver *insensitive* to the weight distribution. Shapes to check:
//! priority beats FIFO everywhere and its column varies much less.
//!
//! Run: `cargo run -p bench --release --bin fig7_weight_dist [--quick]`

use bench::{
    banner, fmt_count, fmt_dur, load_dataset, pick_seeds, quick_mode, BenchReport, Table,
    EXPERIMENT_SEED,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use steiner::{solve_partitioned, QueueKind, SolverConfig};
use stgraph::datasets::Dataset;
use stgraph::json::Json;
use stgraph::partition::partition_graph;
use stgraph::weights::{reweight, reweight_with, WeightDistribution, WeightRange};

fn main() {
    banner(
        "Fig 7 — edge-weight distribution vs runtime (FIFO vs priority)",
        "LVJ analogue topology, reweighted per range; fixed |S|",
    );
    let (ranks, k) = if quick_mode() { (2, 50) } else { (4, 1000) };
    let ranges: &[(u64, u64)] = &[(1, 100), (1, 1000), (1, 10_000), (1, 100_000)];

    let base = load_dataset(Dataset::Lvj);
    let seeds = pick_seeds(&base, k);

    let mut table = Table::new([
        "weight range",
        "fifo time",
        "fifo msgs",
        "priority time",
        "priority msgs",
        "speedup",
    ]);
    let mut bench_report = BenchReport::new("fig7_weight_dist");
    let mut fifo_times = Vec::new();
    let mut prio_times = Vec::new();
    for &(lo, hi) in ranges {
        let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED ^ hi);
        let g = reweight(&base, WeightRange::new(lo, hi), &mut rng);
        let pg = partition_graph(&g, ranks, None);
        let mut row: Vec<String> = vec![format!("[{lo}, {hi}]")];
        let mut times = [0.0f64; 2];
        for (i, queue) in [QueueKind::Fifo, QueueKind::Priority]
            .into_iter()
            .enumerate()
        {
            let cfg = SolverConfig {
                num_ranks: ranks,
                queue,
                ..SolverConfig::default()
            };
            let report = solve_partitioned(&pg, &seeds, &cfg).expect("seeds connected");
            bench_report.add_solve(
                format!("range_{lo}_{hi}_{}", queue.name()),
                Json::obj()
                    .with("weight_lo", lo)
                    .with("weight_hi", hi)
                    .with("queue", queue.name())
                    .with("num_seeds", seeds.len())
                    .with("ranks", ranks),
                &report,
            );
            times[i] = report.time_to_solution().as_secs_f64();
            row.push(fmt_dur(report.time_to_solution()));
            row.push(fmt_count(
                report
                    .message_counts
                    .get("voronoi")
                    .map(|s| s.total_msgs())
                    .unwrap_or(0),
            ));
        }
        row.push(format!("{:.2}x", times[0] / times[1]));
        table.row(row);
        fifo_times.push(times[0]);
        prio_times.push(times[1]);
    }
    table.print();
    println!();
    let stddev = |xs: &[f64]| {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
    };
    println!(
        "runtime stddev across ranges: fifo {:.1}ms, priority {:.1}ms ({:.1}x more variable)",
        stddev(&fifo_times) * 1e3,
        stddev(&prio_times) * 1e3,
        stddev(&fifo_times) / stddev(&prio_times).max(1e-9),
    );
    println!();
    println!("Paper shape: [1,100] converges fastest; FIFO stddev 13.5s is 14.7x");
    println!("priority's 0.91s — the priority queue desensitizes the solver to the");
    println!("weight distribution.");

    // Extension beyond the paper: distribution *shape* at a fixed range.
    println!();
    println!("--- extension: distribution shapes at range [1, 5000] ---");
    let r = WeightRange::new(1, 5000);
    let shapes = [
        WeightDistribution::Uniform(r),
        WeightDistribution::LogUniform(r),
        WeightDistribution::Bimodal {
            low: WeightRange::new(1, 50),
            high: WeightRange::new(2500, 5000),
            weak_fraction: 0.2,
        },
    ];
    let mut shape_table = Table::new([
        "distribution",
        "fifo time",
        "fifo msgs",
        "priority time",
        "priority msgs",
    ]);
    for dist in shapes {
        let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED ^ 0xD15);
        let g = reweight_with(&base, dist, &mut rng);
        let pg = partition_graph(&g, ranks, None);
        let mut row: Vec<String> = vec![dist.name().to_string()];
        for queue in [QueueKind::Fifo, QueueKind::Priority] {
            let cfg = SolverConfig {
                num_ranks: ranks,
                queue,
                ..SolverConfig::default()
            };
            let report = solve_partitioned(&pg, &seeds, &cfg).expect("seeds connected");
            bench_report.add_solve(
                format!("dist_{}_{}", dist.name(), queue.name()),
                Json::obj()
                    .with("distribution", dist.name())
                    .with("queue", queue.name())
                    .with("num_seeds", seeds.len())
                    .with("ranks", ranks),
                &report,
            );
            row.push(fmt_dur(report.time_to_solution()));
            row.push(fmt_count(
                report
                    .message_counts
                    .get("voronoi")
                    .map(|s| s.total_msgs())
                    .unwrap_or(0),
            ));
        }
        shape_table.row(row);
    }
    shape_table.print();
    println!();
    println!("(log-uniform behaves like a narrow range — most edges are cheap —");
    println!("while bimodal stresses FIFO hardest: cheap detours around weak ties");
    println!("keep correcting earlier relaxations)");
    bench_report.finish();
}
