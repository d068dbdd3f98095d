//! End-to-end checks of the causal-lineage and metrics layer (ISSUE 3):
//! observability must be a pure sidecar — enabling it changes nothing
//! about the computation — and the artifacts it produces (causality DAG,
//! latency quantiles, schema-v2 reports) must be consistent with the
//! solve they describe.

use steiner::{solve, MetricsConfig, SolverConfig, TraceConfig};
use stgraph::json::Json;
use stgraph::GraphBuilder;
use struntime::{run_traversal, QueueKind, World, WorldConfig};

/// A connected graph big enough that every rank owns work in a 4-rank
/// partition.
fn sample_graph() -> stgraph::CsrGraph {
    let n = 48u32;
    let mut b = GraphBuilder::new(n as usize);
    for v in 0..n - 1 {
        b.add_edge(v, v + 1, 2 + (v % 5) as u64);
    }
    for v in (0..n - 7).step_by(3) {
        b.add_edge(v, v + 7, 3);
    }
    b.build()
}

const SEEDS: [u32; 4] = [0, 13, 29, 47];

/// The acceptance bar for the whole lineage/metrics layer: enabling
/// observability must not reorder, duplicate, or drop a single message.
/// Asynchronous *relaxation* workloads re-visit vertices depending on
/// arrival timing (two dark solves already differ in rank_work), so the
/// bit-identical check runs on a deterministic forwarding workload where
/// every visit pushes an exact, timing-independent message set — there,
/// message counts and visit counts must match to the last unit between a
/// dark world and a fully observed one.
#[test]
fn observability_does_not_perturb_a_deterministic_traversal() {
    let p = 4;
    let run = |config: WorldConfig| {
        World::run_config(p, config, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("fixed_walk");
            // Every rank seeds one token that makes 3 full laps.
            let init = vec![comm.rank() as u32 * 1000];
            run_traversal(
                comm,
                &chan,
                QueueKind::Fifo,
                |&v| v as u64,
                init,
                |v, pusher| {
                    if v % 1000 < 3 * p as u32 {
                        pusher.push((pusher.rank() + 1) % p, v + 1);
                    }
                },
            )
        })
    };
    let dark = run(WorldConfig::default());
    let observed = run(WorldConfig {
        trace: struntime::TraceConfig::ring(),
        metrics: struntime::MetricsConfig::On,
        ..WorldConfig::default()
    });

    let dark_visits: Vec<u64> = dark.results.iter().map(|s| s.processed).collect();
    let obs_visits: Vec<u64> = observed.results.iter().map(|s| s.processed).collect();
    assert_eq!(dark_visits, obs_visits);
    let dark_counts = dark.merged_counters();
    let obs_counts = observed.merged_counters();
    assert_eq!(
        dark_counts.keys().collect::<Vec<_>>(),
        obs_counts.keys().collect::<Vec<_>>()
    );
    for (phase, d) in &dark_counts {
        let o = &obs_counts[phase];
        // remote_batches is excluded: how many messages share a flush
        // depends on thread scheduling and differs even between two
        // dark runs. The message/byte totals are the invariant.
        assert_eq!(
            (d.remote_msgs, d.local_msgs, d.remote_bytes),
            (o.remote_msgs, o.local_msgs, o.remote_bytes),
            "phase {phase} counters diverged under observability"
        );
    }
    // And only the observed run carried observability data.
    assert!(dark.trace.is_empty());
    assert!(dark.metrics.is_empty());
    assert!(!observed.trace.is_empty());
    assert!(!observed.metrics.is_empty());
}

/// At the solve level the *tree* is the deterministic output: a fully
/// observed solve must produce the same tree as a dark one.
#[test]
fn observability_does_not_perturb_the_solve_tree() {
    let g = sample_graph();
    let dark = solve(
        &g,
        &SEEDS,
        &SolverConfig {
            num_ranks: 4,
            ..SolverConfig::default()
        },
    )
    .unwrap();
    let observed = solve(
        &g,
        &SEEDS,
        &SolverConfig {
            num_ranks: 4,
            trace: TraceConfig::ring(),
            metrics: MetricsConfig::On,
            ..SolverConfig::default()
        },
    )
    .unwrap();
    assert_eq!(dark.tree, observed.tree);
}

/// The causality DAG reconstructed from a solve's trace must verify
/// (acyclic, covering) and its critical path must be a chain: more than
/// one dependent visit, no longer than the total visit count.
#[test]
fn solve_trace_yields_verified_causality_dag() {
    let g = sample_graph();
    let report = solve(
        &g,
        &SEEDS,
        &SolverConfig {
            num_ranks: 4,
            trace: TraceConfig::ring(),
            ..SolverConfig::default()
        },
    )
    .unwrap();
    let analysis = stanalyze::analyze(&stanalyze::model_from_dump(&report.trace));
    analysis.verify().expect("solve trace must verify");
    assert!(analysis.acyclic);
    assert!(analysis.total_visits > 0);
    // Voronoi relaxations chain across vertices: the path is a real
    // dependency chain, not a single root.
    assert!(analysis.critical_path.visits > 1);
    assert!(analysis.critical_path.visits <= analysis.total_visits);
    // The same numbers surface in the schema-v2 run report.
    let run = report.run_report();
    let cp = run
        .critical_path
        .expect("traced run report has critical path");
    assert_eq!(cp.visits, analysis.critical_path.visits);
    assert_eq!(cp.total_visits, analysis.total_visits);
    assert!(cp.acyclic);
}

/// On one rank every relaxation is a local push, so most of Voronoi's
/// messages end in a stale-filter drop at queue admission rather than a
/// visit. Those drops must still close their lineage: the trace of a
/// 1-rank priority solve verifies, and its drop count is the report's.
#[test]
fn one_rank_priority_trace_closes_every_spawn() {
    let g = sample_graph();
    let report = solve(
        &g,
        &SEEDS,
        &SolverConfig {
            num_ranks: 1,
            queue: QueueKind::Priority,
            trace: TraceConfig::ring(),
            ..SolverConfig::default()
        },
    )
    .unwrap();
    let analysis = stanalyze::analyze(&stanalyze::model_from_dump(&report.trace));
    analysis.verify().expect("1-rank solve trace must verify");
    assert!(analysis.stale_drops > 0);
    assert_eq!(analysis.stale_drops, report.stale_drops.iter().sum::<u64>());
}

/// Quantiles computed from the metrics histograms must describe the
/// solve: every traversal phase that processed visitors has
/// visit-service samples, and the JSON twin carries ordered quantiles.
#[test]
fn metrics_quantiles_describe_the_solve() {
    let g = sample_graph();
    let report = solve(
        &g,
        &SEEDS,
        &SolverConfig {
            num_ranks: 2,
            metrics: MetricsConfig::On,
            ..SolverConfig::default()
        },
    )
    .unwrap();
    let total_work: u64 = report.rank_work.iter().sum();
    let agg = report.metrics.aggregate();
    let visits_metered: u64 = agg
        .values()
        .map(|p| p.hist(steiner::MetricKind::VisitServiceUs).count())
        .sum();
    assert_eq!(
        visits_metered, total_work,
        "every processed visitor must be metered exactly once"
    );
    let quantiles = report.metrics.quantiles_json();
    for (phase, snap) in &agg {
        let service = snap.hist(steiner::MetricKind::VisitServiceUs);
        if service.count() == 0 {
            continue;
        }
        let entry = quantiles
            .get(phase)
            .and_then(|p| p.get("visit_service_us"))
            .unwrap_or_else(|| panic!("phase {phase} missing from quantiles"));
        let p50 = entry.get("p50").and_then(|v| v.as_u64()).unwrap();
        let p99 = entry.get("p99").and_then(|v| v.as_u64()).unwrap();
        assert!(p50 <= p99, "phase {phase}: p50 {p50} > p99 {p99}");
        assert_eq!(
            entry.get("count").and_then(|v| v.as_u64()),
            Some(service.count())
        );
    }
}

/// A fully observed solve must embed into a bench report that passes the
/// same validation `xtask check-reports` applies in CI (schema v4 with
/// populated observability fields), and survive a JSON round-trip.
#[test]
fn observed_solve_round_trips_through_bench_validation() {
    let g = sample_graph();
    let report = solve(
        &g,
        &SEEDS,
        &SolverConfig {
            num_ranks: 2,
            trace: TraceConfig::ring(),
            metrics: MetricsConfig::On,
            ..SolverConfig::default()
        },
    )
    .unwrap();
    let mut bench_report = bench::BenchReport::new("lineage_metrics_test");
    bench_report.add_solve("observed_s4_p2", Json::obj().with("ranks", 2u64), &report);
    let doc = bench_report.to_json();
    assert_eq!(bench::report::validate(&doc), Ok(1));
    let reparsed = stgraph::json::parse(&doc.to_pretty()).unwrap();
    assert_eq!(bench::report::validate(&reparsed), Ok(1));
    let run = reparsed.get("entries").and_then(|e| e.as_arr()).unwrap()[0]
        .get("run")
        .unwrap();
    assert_eq!(
        run.get("schema_version").and_then(|v| v.as_u64()),
        Some(steiner::report::SCHEMA_VERSION)
    );
    assert!(!run.get("critical_path").unwrap().is_null());
    assert!(!run.get("latency_quantiles").unwrap().is_null());
}

/// The exported Chrome trace of a solve carries the lineage flow events
/// and rebuilds into the same DAG as the in-process dump.
#[test]
fn chrome_export_preserves_lineage() {
    let g = sample_graph();
    let report = solve(
        &g,
        &SEEDS,
        &SolverConfig {
            num_ranks: 2,
            trace: TraceConfig::ring(),
            ..SolverConfig::default()
        },
    )
    .unwrap();
    let direct = stanalyze::analyze(&stanalyze::model_from_dump(&report.trace));
    let doc = stgraph::json::parse(&report.trace.to_chrome_trace()).unwrap();
    let rebuilt = stanalyze::model_from_chrome(&doc).unwrap();
    let via_chrome = stanalyze::analyze(&rebuilt);
    via_chrome.verify().expect("chrome round trip verifies");
    assert_eq!(via_chrome.total_visits, direct.total_visits);
    assert_eq!(via_chrome.total_spawns, direct.total_spawns);
    assert_eq!(via_chrome.critical_path.visits, direct.critical_path.visits);
    // The exporter surfaces per-rank drop counts in the header.
    let dropped = doc
        .get("struntime")
        .and_then(|s| s.get("dropped"))
        .and_then(|d| d.as_arr())
        .expect("struntime.dropped header");
    assert_eq!(dropped.len(), 2);
}
