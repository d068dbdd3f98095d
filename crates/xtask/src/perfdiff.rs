//! Cross-run performance diff over machine-readable reports.
//!
//! Compares two run documents — either bare `RunReport`s (schema v5, from
//! `steiner-cli solve --report`) or whole `BENCH_*.json` envelopes (solve
//! entries matched by label) — and flags *regressions*: metrics where B
//! is worse than A beyond a noise threshold. Improvements and in-noise
//! drift are reported but never fail the diff, so the tool can gate CI
//! without chasing scheduler jitter. Two envelopes that both carry no
//! solve entries (harnesses that time baselines only) have nothing to
//! compare and are skipped; one such envelope against a solve-carrying
//! one is an error.
//!
//! Two metric classes with different thresholds:
//!
//! * **time** (`phase_times_us.*`, `total_time_us`) — wall-clock, noisy
//!   on shared hosts: relative slack [`TIME_REL`] with an absolute floor
//!   of [`TIME_ABS_US`] so microsecond-scale phases never trip the gate.
//!   Skipped entirely under `--counters-only` (what CI uses).
//! * **counter** (visits, remote bytes, peak memory, stale drops) —
//!   schedule-dependent but machine-independent: relative slack
//!   [`COUNTER_REL`] with a small absolute floor [`COUNTER_ABS`].

use std::collections::BTreeMap;
use stgraph::json::Json;

/// Relative slack for wall-clock metrics (B may be up to 1.5× A).
pub const TIME_REL: f64 = 0.5;
/// Absolute wall-clock floor: phases under a millisecond are all noise.
pub const TIME_ABS_US: u64 = 1000;
/// Relative slack for deterministic-ish counters.
pub const COUNTER_REL: f64 = 0.25;
/// Absolute counter floor, so tiny runs don't flag ±a few visits.
pub const COUNTER_ABS: u64 = 64;

/// Outcome of one diff: every comparison line plus the regression count.
pub struct Diff {
    /// Human-readable per-metric lines, regressions prefixed `REGRESSION`.
    pub lines: Vec<String>,
    /// Number of metrics where B exceeded A's noise envelope.
    pub regressions: usize,
}

/// One comparable metric extracted from a run report.
#[derive(Clone, Copy)]
struct Metric {
    value: u64,
    is_time: bool,
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

/// Flattens one run report into named metrics. Missing sections are
/// skipped, not errors — the diff only compares what both sides have.
fn metrics_of(run: &Json) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    let mut time = |name: String, value: u64| {
        out.insert(
            name,
            Metric {
                value,
                is_time: true,
            },
        );
    };
    if let Some(phases) = run.get("phase_times_us").and_then(|v| v.as_obj()) {
        for (phase, us) in phases {
            if let Some(us) = us.as_u64() {
                time(format!("time/{phase}_us"), us);
            }
        }
    }
    if let Some(total) = run.get("total_time_us").and_then(|v| v.as_u64()) {
        time("time/total_us".to_string(), total);
    }

    let mut counter = |name: String, value: u64| {
        out.insert(
            name,
            Metric {
                value,
                is_time: false,
            },
        );
    };
    if let Some(work) = run.get("rank_work").and_then(|v| v.as_arr()) {
        counter(
            "visits/total".to_string(),
            work.iter().filter_map(|w| w.as_u64()).sum(),
        );
    }
    if let Some(counts) = run.get("message_counts").and_then(|v| v.as_obj()) {
        for (phase, c) in counts {
            if let Some(bytes) = c.get("remote_bytes").and_then(|v| v.as_u64()) {
                counter(format!("bytes/{phase}_remote"), bytes);
            }
        }
    }
    if let Some(peak) = run.get("state_peak_bytes").and_then(|v| v.as_u64()) {
        counter("memory/state_peak_bytes".to_string(), peak);
    }
    if let Some(phases) = run.get("peak_memory").and_then(|v| v.as_obj()) {
        for (phase, watermarks) in phases {
            if let Some(total) = watermarks.get("total_bytes").and_then(|v| v.as_u64()) {
                counter(format!("memory/{phase}_peak_bytes"), total);
            }
        }
    }
    if let Some(stale) = run
        .get("stale_drops")
        .and_then(|s| s.get("total"))
        .and_then(|v| v.as_u64())
    {
        counter("visits/stale_drops".to_string(), stale);
    }
    // v7 Borůvka round counters — present (non-null) only for `--mst
    // dist` runs, so replicated-vs-replicated diffs skip them.
    if let Some(bv) = run.get("boruvka").filter(|v| !v.is_null()) {
        if let Some(rounds) = bv.get("rounds").and_then(|v| v.as_u64()) {
            counter("boruvka/rounds".to_string(), rounds);
        }
        if let Some(reduced) = bv.get("edges_reduced").and_then(|v| v.as_arr()) {
            counter(
                "boruvka/edges_reduced".to_string(),
                reduced.iter().filter_map(|n| n.as_u64()).sum(),
            );
        }
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
        let a_metrics = metrics_of(a_run);
        let b_metrics = metrics_of(b_run);
        for (name, am) in &a_metrics {
            if counters_only && am.is_time {
                continue;
            }
            let Some(bm) = b_metrics.get(name) else {
                continue;
            };
            let slack = if am.is_time {
                (am.value as f64 * TIME_REL).max(TIME_ABS_US as f64)
            } else {
                (am.value as f64 * COUNTER_REL).max(COUNTER_ABS as f64)
            };
            if bm.value as f64 > am.value as f64 + slack {
                regressions += 1;
                lines.push(format!(
                    "REGRESSION {label} {name}: {} -> {} (tol +{slack:.0})",
                    am.value, bm.value
                ));
            } else {
                lines.push(format!("ok {label} {name}: {} -> {}", am.value, bm.value));
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
        assert!(d.lines.iter().all(|l| l.starts_with("ok ")));
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
    fn counter_regression_survives_counters_only() {
        let a = sample_run(10_000);
        let mut b = sample_run(10_000);
        b.insert("state_peak_bytes", 2_000_000u64);
        let d = diff(&a, &b, true).unwrap();
        assert_eq!(d.regressions, 1, "{:?}", d.lines);
        assert!(d
            .lines
            .iter()
            .any(|l| l.contains("memory/state_peak_bytes")));
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
