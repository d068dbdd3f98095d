//! Fig 8: cluster-wide peak memory — graph vs algorithm state — under the
//! two distance-graph pipelines.
//!
//! The paper reports peak memory split into the in-memory graph and the
//! algorithm states (vertex states, communication buffers, messages); the
//! jump at |S| = 10K comes from the `binom(|S|, 2)`-element distance-graph
//! buffer. Shapes to check: state memory grows superlinearly with |S|
//! under the replicated dense reduction (`--mst replicated`), while the
//! Borůvka pipeline (`--mst dist`, the default) never materializes that
//! buffer and reduces one slot per live component instead.
//!
//! Run: `cargo run -p bench --release --bin fig8_memory [--quick]`

use bench::{banner, fmt_bytes, fmt_dur, load_dataset, pick_seeds, quick_mode, BenchReport, Table};
use steiner::{solve_partitioned, MstMode, SolverConfig};
use stgraph::datasets::Dataset;
use stgraph::json::Json;
use stgraph::partition::partition_graph;

fn main() {
    banner(
        "Fig 8 — peak memory: graph vs algorithm states; dense vs Borůvka",
        "datasets: LVJ, CLW, WDC analogues; small vs large |S|; dense/boruvka",
    );
    let (ranks, small_s, large_s) = if quick_mode() {
        (2, 20, 100)
    } else {
        (4, 250, 1000)
    };

    let mut table = Table::new([
        "graph",
        "|S|",
        "reduction",
        "graph bytes",
        "state bytes",
        "total",
        "time",
    ]);
    let mut bench_report = BenchReport::new("fig8_memory");
    for dataset in [Dataset::Lvj, Dataset::Clw, Dataset::Wdc] {
        let g = load_dataset(dataset);
        let pg = partition_graph(&g, ranks, None);
        for &k in &[small_s, large_s] {
            let seeds = pick_seeds(&g, k);
            for (label, mst_mode) in [("dense", MstMode::Replicated), ("boruvka", MstMode::Dist)] {
                let cfg = SolverConfig {
                    num_ranks: ranks,
                    mst_mode,
                    ..SolverConfig::default()
                };
                let report = solve_partitioned(&pg, &seeds, &cfg).expect("seeds connected");
                bench_report.add_solve(
                    format!("{}_s{}_{}", dataset.name(), seeds.len(), label),
                    Json::obj()
                        .with("graph", dataset.name())
                        .with("num_seeds", seeds.len())
                        .with("reduction", label)
                        .with("ranks", ranks),
                    &report,
                );
                table.row([
                    dataset.name().to_string(),
                    seeds.len().to_string(),
                    label.to_string(),
                    fmt_bytes(report.graph_bytes),
                    fmt_bytes(report.state_peak_bytes),
                    fmt_bytes(report.graph_bytes + report.state_peak_bytes),
                    fmt_dur(report.time_to_solution()),
                ]);
            }
        }
    }
    table.print();
    println!();
    println!("Paper shape: small graphs are dominated by state memory (LVJ 10K");
    println!("seeds used 35.9x the memory of 1K); the dense distance-graph buffer");
    println!("drives the blowup. Borůvka never builds it: at the larger |S| its state");
    println!("column drops the binom(|S|,2) pair buffer (and rank 0's slot clone) for");
    println!("one slot per live component; at small |S| the buffer is a few KiB and the");
    println!("two rows differ only by schedule-dependent queue peaks.");
    bench_report.finish();
}
