//! Cross-run performance diff over machine-readable reports.
//!
//! Compares two run documents — either bare `RunReport`s (from
//! `steiner-cli solve --report`) or whole `BENCH_*.json` envelopes (solve
//! entries matched by label) — and flags *regressions*: metrics where B
//! is worse than A beyond what the metric's class allows. Two envelopes
//! that both carry no solve entries (harnesses that time baselines only)
//! have nothing to compare and are skipped; one such envelope against a
//! solve-carrying one is an error.
//!
//! Three metric classes ([`Class`]):
//!
//! * **time** (`phase_times_us.*`, `total_time_us`) — wall-clock, noisy
//!   on shared hosts: relative slack [`TIME_REL`] with an absolute floor
//!   of [`TIME_ABS_US`] so microsecond-scale phases never trip the gate.
//!   Skipped entirely under `--counters-only` (what CI uses).
//! * **exact** — counters that repeat exactly on one instance, whatever
//!   the thread schedule: every counter of a one-rank row (its schedule
//!   is deterministic), the halo (`local_min_edge`) and trace
//!   (`tree_edge`) message and byte counts, `distance_graph_edges`, the
//!   Borůvka round counters, `sync_points` and the tree weight. Any
//!   change, in either direction, fails: it means the solver did
//!   different work, so the baseline must be regenerated on purpose.
//! * **schedule** — multi-rank Voronoi visits, stale drops, pruned
//!   relaxations and remote bytes, and state peak bytes. They move with
//!   the interleaving of the rank threads (the same binary reads FRS at
//!   two ranks as 1,225 or 1,884 visits), so they are reported with
//!   their drift and never fail the diff.

use std::collections::BTreeMap;
use stgraph::json::Json;

/// Relative slack for wall-clock metrics (B may be up to 1.5× A).
pub const TIME_REL: f64 = 0.5;
/// Absolute wall-clock floor: phases under a millisecond are all noise.
pub const TIME_ABS_US: u64 = 1000;

/// Phases whose message counts are a function of the instance alone:
/// the halo exchange sends one entry per ghost of each rank, and the
/// trace walk one message per traced vertex.
const DETERMINISTIC_PHASES: [&str; 2] = ["local_min_edge", "tree_edge"];

/// Outcome of one diff: every comparison line plus the regression count.
pub struct Diff {
    /// Human-readable per-metric lines, regressions prefixed `REGRESSION`.
    pub lines: Vec<String>,
    /// Number of metrics where B fell outside A's class bound.
    pub regressions: usize,
}

/// How a metric is compared (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// Wall clock: gated within [`TIME_REL`] / [`TIME_ABS_US`].
    Time,
    /// Schedule-independent counter: gated exactly.
    Exact,
    /// Schedule-dependent counter: reported, never gated.
    Schedule,
}

/// Extracts the labelled runs a document carries: a BENCH envelope
/// yields one run per `"solve"` entry (keyed by its label, possibly
/// none), a bare RunReport yields a single `"run"` entry.
fn runs_of(doc: &Json) -> Result<Vec<(String, Json)>, String> {
    if let Some(entries) = doc.get("entries").and_then(|v| v.as_arr()) {
        let mut runs = Vec::new();
        for entry in entries {
            if entry.get("kind").and_then(|v| v.as_str()) != Some("solve") {
                continue;
            }
            let label = entry
                .get("label")
                .and_then(|v| v.as_str())
                .ok_or("solve entry missing label")?
                .to_string();
            let run = entry.get("run").ok_or("solve entry missing run")?;
            runs.push((label, run.clone()));
        }
        Ok(runs)
    } else if doc.get("phase_times_us").is_some() {
        Ok(vec![("run".to_string(), doc.clone())])
    } else {
        Err("not a RunReport (no phase_times_us) or bench envelope (no entries)".to_string())
    }
}

/// Flattens one run report into named, classed metrics. Missing
/// sections are skipped, not errors — the diff only compares what both
/// sides have.
fn metrics_of(run: &Json) -> BTreeMap<String, (u64, Class)> {
    let mut out = BTreeMap::new();
    let one_rank = run
        .get("config")
        .and_then(|c| c.get("num_ranks"))
        .and_then(|v| v.as_u64())
        == Some(1);
    // One rank runs one deterministic schedule, so all its counters are
    // exact.
    let by_schedule = if one_rank {
        Class::Exact
    } else {
        Class::Schedule
    };
    let mut put = |name: String, value: Option<u64>, class: Class| {
        if let Some(value) = value {
            out.insert(name, (value, class));
        }
    };
    if let Some(phases) = run.get("phase_times_us").and_then(|v| v.as_obj()) {
        for (phase, us) in phases {
            put(format!("time/{phase}_us"), us.as_u64(), Class::Time);
        }
    }
    put(
        "time/total_us".to_string(),
        run.get("total_time_us").and_then(|v| v.as_u64()),
        Class::Time,
    );
    put(
        "visits/total".to_string(),
        run.get("rank_work")
            .and_then(|v| v.as_arr())
            .map(|work| work.iter().filter_map(|w| w.as_u64()).sum()),
        by_schedule,
    );
    for (key, name) in [
        ("stale_drops", "visits/stale_drops"),
        ("pruned_at_push", "visits/pruned_at_push"),
    ] {
        let total = run.get(key).and_then(|s| s.get("total"));
        put(
            name.to_string(),
            total.and_then(|v| v.as_u64()),
            by_schedule,
        );
    }
    if let Some(counts) = run.get("message_counts").and_then(|v| v.as_obj()) {
        for (phase, c) in counts {
            let class = if DETERMINISTIC_PHASES.contains(&phase.as_str()) {
                Class::Exact
            } else {
                by_schedule
            };
            for (key, kind) in [("remote_msgs", "msgs"), ("remote_bytes", "bytes")] {
                put(
                    format!("{kind}/{phase}_remote"),
                    c.get(key).and_then(|v| v.as_u64()),
                    class,
                );
            }
        }
    }
    put(
        "memory/state_peak_bytes".to_string(),
        run.get("state_peak_bytes").and_then(|v| v.as_u64()),
        by_schedule,
    );
    if let Some(phases) = run.get("peak_memory").and_then(|v| v.as_obj()) {
        for (phase, watermarks) in phases {
            put(
                format!("memory/{phase}_peak_bytes"),
                watermarks.get("total_bytes").and_then(|v| v.as_u64()),
                by_schedule,
            );
        }
    }
    put(
        "distance_graph/edges".to_string(),
        run.get("distance_graph_edges").and_then(|v| v.as_u64()),
        Class::Exact,
    );
    put(
        "tree/total_distance".to_string(),
        run.get("tree")
            .and_then(|t| t.get("total_distance"))
            .and_then(|v| v.as_u64()),
        Class::Exact,
    );
    if let Some(sync) = run.get("sync_points") {
        for key in ["barriers", "collectives"] {
            put(
                format!("sync_points/{key}"),
                sync.get(key).and_then(|v| v.as_u64()),
                Class::Exact,
            );
        }
    }
    // Borůvka round counters — present (non-null) only for `--mst
    // dist` runs, so replicated-vs-replicated diffs skip them.
    if let Some(bv) = run.get("boruvka").filter(|v| !v.is_null()) {
        put(
            "boruvka/rounds".to_string(),
            bv.get("rounds").and_then(|v| v.as_u64()),
            Class::Exact,
        );
        put(
            "boruvka/edges_reduced".to_string(),
            bv.get("edges_reduced")
                .and_then(|v| v.as_arr())
                .map(|reduced| reduced.iter().filter_map(|n| n.as_u64()).sum()),
            Class::Exact,
        );
    }
    out
}

/// Diffs document B against baseline A. Labels present on only one side
/// are noted; metrics present on only one side are skipped. With
/// `counters_only`, wall-clock metrics are excluded.
pub fn diff(a: &Json, b: &Json, counters_only: bool) -> Result<Diff, String> {
    let a_runs = runs_of(a).map_err(|e| format!("baseline: {e}"))?;
    let b_runs = runs_of(b).map_err(|e| format!("candidate: {e}"))?;
    if a_runs.is_empty() != b_runs.is_empty() {
        let side = if a_runs.is_empty() {
            "baseline"
        } else {
            "candidate"
        };
        return Err(format!("{side}: bench envelope has no solve entries"));
    }
    if a_runs.is_empty() {
        return Ok(Diff {
            lines: vec!["skipped: neither envelope has solve entries".to_string()],
            regressions: 0,
        });
    }
    let mut lines = Vec::new();
    let mut regressions = 0usize;
    for (label, a_run) in &a_runs {
        let Some((_, b_run)) = b_runs.iter().find(|(l, _)| l == label) else {
            lines.push(format!("note {label}: missing from candidate report"));
            continue;
        };
        let b_metrics = metrics_of(b_run);
        for (name, (av, class)) in metrics_of(a_run) {
            if counters_only && class == Class::Time {
                continue;
            }
            let Some(&(bv, _)) = b_metrics.get(&name) else {
                continue;
            };
            let verdict = match class {
                Class::Time => {
                    let slack = (av as f64 * TIME_REL).max(TIME_ABS_US as f64);
                    (bv as f64 > av as f64 + slack).then(|| format!("tol +{slack:.0}"))
                }
                Class::Exact => (bv != av).then(|| "exact counter".to_string()),
                Class::Schedule => {
                    lines.push(format!(
                        "info {label} {name}: {av} -> {bv} (schedule-dependent, not gated)"
                    ));
                    continue;
                }
            };
            match verdict {
                Some(why) => {
                    regressions += 1;
                    lines.push(format!("REGRESSION {label} {name}: {av} -> {bv} ({why})"));
                }
                None => lines.push(format!("ok {label} {name}: {av} -> {bv}")),
            }
        }
    }
    for (label, _) in &b_runs {
        if !a_runs.iter().any(|(l, _)| l == label) {
            lines.push(format!("note {label}: not in baseline report"));
        }
    }
    Ok(Diff { lines, regressions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(voronoi_us: u64) -> Json {
        Json::obj()
            .with("schema_version", 5u64)
            .with("config", Json::obj().with("num_ranks", 2u64))
            .with(
                "phase_times_us",
                Json::obj()
                    .with("voronoi", voronoi_us)
                    .with("mst", 2_000u64),
            )
            .with("total_time_us", voronoi_us + 2_000)
            .with(
                "rank_work",
                Json::Arr(vec![Json::from(500u64), Json::from(480u64)]),
            )
            .with(
                "message_counts",
                Json::obj().with("voronoi", Json::obj().with("remote_bytes", 40_960u64)),
            )
            .with("state_peak_bytes", 1_000_000u64)
            .with("stale_drops", Json::obj().with("total", 12u64))
            .with(
                "peak_memory",
                Json::obj().with("voronoi", Json::obj().with("total_bytes", 900_000u64)),
            )
    }

    #[test]
    fn identical_inputs_stay_quiet() {
        let a = sample_run(10_000);
        let d = diff(&a, &a, false).unwrap();
        assert_eq!(d.regressions, 0, "{:?}", d.lines);
        assert!(d
            .lines
            .iter()
            .all(|l| l.starts_with("ok ") || l.starts_with("info ")));
    }

    #[test]
    fn doubled_phase_time_is_flagged() {
        let a = sample_run(10_000);
        let b = sample_run(20_000);
        let d = diff(&a, &b, false).unwrap();
        assert!(
            d.lines
                .iter()
                .any(|l| l.starts_with("REGRESSION") && l.contains("time/voronoi_us")),
            "{:?}",
            d.lines
        );
        // With --counters-only the same pair is quiet: only wall clock moved.
        let d = diff(&a, &b, true).unwrap();
        assert_eq!(d.regressions, 0, "{:?}", d.lines);
    }

    #[test]
    fn exact_counter_changes_fail_counters_only_in_either_direction() {
        let one_rank = |peak: u64| {
            let mut run = sample_run(10_000);
            run.insert("config", Json::obj().with("num_ranks", 1u64));
            run.insert("state_peak_bytes", peak);
            run
        };
        for peak in [2_000_000u64, 999_999] {
            let d = diff(&one_rank(1_000_000), &one_rank(peak), true).unwrap();
            assert_eq!(d.regressions, 1, "{:?}", d.lines);
            assert!(d
                .lines
                .iter()
                .any(|l| l.starts_with("REGRESSION") && l.contains("memory/state_peak_bytes")));
        }
        let mut b = sample_run(10_000);
        b.insert("tree", Json::obj().with("total_distance", 41u64));
        let mut a = sample_run(10_000);
        a.insert("tree", Json::obj().with("total_distance", 40u64));
        assert_eq!(diff(&a, &b, true).unwrap().regressions, 1);
    }

    #[test]
    fn schedule_dependent_counters_are_reported_not_gated() {
        let a = sample_run(10_000);
        let mut b = sample_run(10_000);
        b.insert("state_peak_bytes", 2_000_000u64);
        b.insert(
            "rank_work",
            Json::Arr(vec![Json::from(900u64), Json::from(880u64)]),
        );
        let d = diff(&a, &b, true).unwrap();
        assert_eq!(d.regressions, 0, "{:?}", d.lines);
        for name in [
            "memory/state_peak_bytes",
            "visits/total",
            "bytes/voronoi_remote",
        ] {
            assert!(
                d.lines
                    .iter()
                    .any(|l| l.starts_with("info ") && l.contains(name)),
                "{name}: {:?}",
                d.lines
            );
        }
    }

    /// The split itself: every exact-class counter of a solve repeats
    /// bit for bit under perturbed thread schedules, at one rank and at
    /// several, under both MST pipelines.
    #[test]
    fn exact_counters_repeat_under_perturbed_schedules() {
        use std::sync::Arc;
        use steiner::{MstMode, PersistentWorld, SolverConfig};
        let g = stgraph::datasets::Dataset::Frs.generate_tiny(3);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<u32> = verts.iter().step_by(verts.len() / 12).copied().collect();
        for p in [1usize, 2, 4] {
            let pg = Arc::new(stgraph::partition::partition_graph(&g, p, None));
            for mst_mode in [MstMode::Dist, MstMode::Replicated] {
                let config = SolverConfig {
                    num_ranks: p,
                    mst_mode,
                    ..SolverConfig::default()
                };
                let exact: Vec<BTreeMap<String, u64>> = (0..6u64)
                    .map(|seed| {
                        let world = PersistentWorld::new_with_config(
                            p,
                            struntime::WorldConfig {
                                perturb_seed: Some(seed),
                                ..struntime::WorldConfig::default()
                            },
                        );
                        let report = steiner::solve_on(&world, &pg, &seeds, &config).unwrap();
                        metrics_of(&report.run_report().to_json())
                            .into_iter()
                            .filter(|(_, (_, class))| *class == Class::Exact)
                            .map(|(name, (value, _))| (name, value))
                            .collect()
                    })
                    .collect();
                assert!(exact[0].contains_key("sync_points/barriers"));
                assert!(exact[0].contains_key("msgs/tree_edge_remote") || p == 1);
                assert_eq!(exact[0].contains_key("visits/total"), p == 1);
                for (seed, counters) in exact.iter().enumerate() {
                    assert_eq!(counters, &exact[0], "p={p} {mst_mode:?} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn sub_threshold_drift_is_noise() {
        let a = sample_run(10_000);
        let b = sample_run(12_000); // within 1.5x
        let d = diff(&a, &b, false).unwrap();
        assert_eq!(d.regressions, 0, "{:?}", d.lines);
    }

    #[test]
    fn bench_envelopes_match_by_label() {
        let envelope = |run: Json| {
            Json::obj().with("bench", "t").with(
                "entries",
                Json::Arr(vec![
                    Json::obj()
                        .with("label", "p4")
                        .with("kind", "solve")
                        .with("run", run),
                    Json::obj().with("label", "m").with("kind", "metrics"),
                ]),
            )
        };
        let d = diff(
            &envelope(sample_run(10_000)),
            &envelope(sample_run(30_000)),
            false,
        )
        .unwrap();
        assert!(d.regressions >= 1);
        assert!(
            d.lines.iter().any(|l| l.contains("p4 time/")),
            "{:?}",
            d.lines
        );
    }

    fn solve_less_envelope() -> Json {
        Json::obj().with("bench", "t").with(
            "entries",
            Json::Arr(vec![Json::obj().with("label", "m").with("kind", "metrics")]),
        )
    }

    #[test]
    fn envelopes_without_solves_on_both_sides_are_skipped() {
        let d = diff(&solve_less_envelope(), &solve_less_envelope(), true).unwrap();
        assert_eq!(d.regressions, 0);
        assert_eq!(d.lines, ["skipped: neither envelope has solve entries"]);
    }

    #[test]
    fn an_envelope_without_solves_against_one_with_solves_is_an_error() {
        let with_solve = Json::obj().with("bench", "t").with(
            "entries",
            Json::Arr(vec![Json::obj()
                .with("label", "p4")
                .with("kind", "solve")
                .with("run", sample_run(10_000))]),
        );
        let e = diff(&solve_less_envelope(), &with_solve, true)
            .err()
            .unwrap();
        assert_eq!(e, "baseline: bench envelope has no solve entries");
        let e = diff(&with_solve, &solve_less_envelope(), true)
            .err()
            .unwrap();
        assert_eq!(e, "candidate: bench envelope has no solve entries");
        let run = sample_run(10_000);
        assert!(diff(&run, &solve_less_envelope(), true).is_err());
        assert!(diff(&with_solve, &with_solve, true).is_ok());
    }

    #[test]
    fn non_report_inputs_are_errors() {
        assert!(diff(&Json::obj(), &Json::obj(), false).is_err());
    }

    #[test]
    fn boruvka_round_counters_are_compared_when_present() {
        let with_rounds = |rounds: u64, reduced: Vec<u64>| {
            let mut run = sample_run(10_000);
            run.insert(
                "boruvka",
                Json::obj().with("rounds", rounds).with(
                    "edges_reduced",
                    Json::Arr(reduced.into_iter().map(Json::from).collect()),
                ),
            );
            run
        };
        // An extra round (and the extra slots it reduces) past the
        // counter floor is a regression; null-vs-null diffs stay silent.
        let a = with_rounds(3, vec![200, 100, 50]);
        let b = with_rounds(4, vec![200, 100, 50, 180]);
        let d = diff(&a, &b, true).unwrap();
        assert!(
            d.lines
                .iter()
                .any(|l| l.starts_with("REGRESSION") && l.contains("boruvka/edges_reduced")),
            "{:?}",
            d.lines
        );
        let quiet = diff(&sample_run(10_000), &sample_run(10_000), true).unwrap();
        assert!(
            quiet.lines.iter().all(|l| !l.contains("boruvka/")),
            "replicated runs must not emit boruvka metrics: {:?}",
            quiet.lines
        );
    }
}
