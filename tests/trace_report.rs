//! End-to-end checks of the observability layer: event traces recorded by
//! a multi-rank solve, their Chrome-trace rendering, and the
//! machine-readable run/bench reports.

use steiner::{solve, Phase, QueueKind, SolverConfig, TraceConfig};
use stgraph::json::Json;
use stgraph::GraphBuilder;
use struntime::TraceEventKind;

/// A connected graph big enough that every rank owns work in a 4-rank
/// partition, with enough structure for several Voronoi cells.
fn sample_graph() -> stgraph::CsrGraph {
    let n = 48u32;
    let mut b = GraphBuilder::new(n as usize);
    for v in 0..n - 1 {
        b.add_edge(v, v + 1, 2 + (v % 5) as u64);
    }
    // Chords create alternative routes so relaxation actually corrects.
    for v in (0..n - 7).step_by(3) {
        b.add_edge(v, v + 7, 3);
    }
    b.build()
}

const SEEDS: [u32; 4] = [0, 13, 29, 47];

#[test]
fn tracing_is_off_by_default() {
    let g = sample_graph();
    let cfg = SolverConfig {
        num_ranks: 4,
        ..SolverConfig::default()
    };
    assert_eq!(cfg.trace, TraceConfig::Off);
    let report = solve(&g, &SEEDS, &cfg).unwrap();
    assert!(report.trace.is_empty());
    assert_eq!(report.trace.num_events(), 0);
}

#[test]
fn four_rank_solve_records_all_phases_on_every_rank() {
    let g = sample_graph();
    let cfg = SolverConfig {
        num_ranks: 4,
        trace: TraceConfig::ring(),
        ..SolverConfig::default()
    };
    let report = solve(&g, &SEEDS, &cfg).unwrap();
    let dump = &report.trace;
    assert_eq!(dump.ranks.len(), 4);
    for rt in &dump.ranks {
        assert_eq!(rt.dropped, 0, "rank {} overflowed its ring", rt.rank);
        for phase in Phase::ALL {
            let begins = rt
                .events
                .iter()
                .filter(|e| e.name == phase.name() && e.kind == TraceEventKind::SpanBegin)
                .count();
            let ends = rt
                .events
                .iter()
                .filter(|e| e.name == phase.name() && e.kind == TraceEventKind::SpanEnd)
                .count();
            // One span per phase the MST mode runs, none for the others.
            let spans = usize::from(cfg.mst_mode.phases().contains(&phase));
            assert_eq!(
                (begins, ends),
                (spans, spans),
                "rank {} phase {}",
                rt.rank,
                phase.name()
            );
        }
        // The traversal instrumentation fires inside the phase spans.
        assert!(
            rt.events.iter().any(|e| e.name == "queue_depth"),
            "rank {} sampled no queue depths",
            rt.rank
        );
    }
    // The tracing run must still produce the same tree as an untraced one.
    let untraced = solve(
        &g,
        &SEEDS,
        &SolverConfig {
            num_ranks: 4,
            ..SolverConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.tree, untraced.tree);
}

#[test]
fn chrome_trace_has_one_lane_per_rank_with_paired_phase_spans() {
    let g = sample_graph();
    let cfg = SolverConfig {
        num_ranks: 4,
        queue: QueueKind::Priority,
        trace: TraceConfig::ring(),
        ..SolverConfig::default()
    };
    let report = solve(&g, &SEEDS, &cfg).unwrap();
    let text = report.trace.to_chrome_trace();
    let doc = stgraph::json::parse(&text).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");

    // One thread_name metadata record per rank, tids 0..=3.
    let mut lanes: Vec<u64> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .filter_map(|e| e.get("tid").and_then(|t| t.as_u64()))
        .collect();
    lanes.sort_unstable();
    assert_eq!(lanes, vec![0, 1, 2, 3]);

    // Every lane carries a balanced B/E pair for each phase the MST mode
    // runs (and no span for the others), with begin before end in stream
    // order (ts ties are possible at µs
    // resolution, but ordering within a lane is chronological). Lineage
    // flow events ("s"/"f") share the phase name — only the span pair
    // is pinned here; the flow events are covered by lineage_metrics.
    for tid in 0..4u64 {
        for phase in Phase::ALL {
            let phs: Vec<&str> = events
                .iter()
                .filter(|e| {
                    e.get("tid").and_then(|t| t.as_u64()) == Some(tid)
                        && e.get("name").and_then(|n| n.as_str()) == Some(phase.name())
                })
                .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
                .filter(|ph| matches!(*ph, "B" | "E"))
                .collect();
            let expect = if cfg.mst_mode.phases().contains(&phase) {
                vec!["B", "E"]
            } else {
                vec![]
            };
            assert_eq!(phs, expect, "tid {tid} phase {}", phase.name());
        }
    }

    // Instants are thread-scoped and carry the numeric payload.
    let instant = events
        .iter()
        .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
        .expect("at least one instant event");
    assert_eq!(instant.get("s").and_then(|s| s.as_str()), Some("t"));
    assert!(instant
        .get("args")
        .and_then(|a| a.get("v"))
        .and_then(|v| v.as_u64())
        .is_some());
}

#[test]
fn run_report_json_round_trips_and_matches_solve() {
    let g = sample_graph();
    let cfg = SolverConfig {
        num_ranks: 3,
        ..SolverConfig::default()
    };
    let report = solve(&g, &SEEDS, &cfg).unwrap();
    let run = report.run_report();
    assert_eq!(run.config.num_ranks, 3);
    assert_eq!(run.tree_num_edges, report.tree.num_edges());
    assert_eq!(run.rank_work.len(), 3);
    let doc = run.to_json();
    let reparsed = stgraph::json::parse(&doc.to_pretty()).unwrap();
    assert_eq!(reparsed, doc);
}

#[test]
fn bench_report_envelope_validates_and_catches_corruption() {
    let g = sample_graph();
    let cfg = SolverConfig {
        num_ranks: 2,
        ..SolverConfig::default()
    };
    let report = solve(&g, &SEEDS, &cfg).unwrap();
    let mut bench_report = bench::BenchReport::new("trace_report_test");
    bench_report.add_solve(
        "sample_s4_p2",
        Json::obj().with("num_seeds", 4u64).with("ranks", 2u64),
        &report,
    );
    bench_report.add_metrics(
        "aux",
        Json::obj(),
        Json::obj().with("events", report.trace.num_events()),
    );
    let doc = bench_report.to_json();
    assert_eq!(bench::report::validate(&doc), Ok(2));

    // A document that drops a required RunReport key must be rejected.
    let mut text = doc.to_pretty();
    text = text.replace("\"total_time_us\"", "\"renamed_key\"");
    let corrupted = stgraph::json::parse(&text).unwrap();
    assert!(bench::report::validate(&corrupted).is_err());
}
