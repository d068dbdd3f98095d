//! Workspace automation entry point.
//!
//! ```text
//! cargo run -p xtask -- lint [root] [--update-baseline]
//! cargo run -p xtask -- check-reports [dir] [--stlint-only]
//! cargo run -p xtask -- analyze <file.json>
//! cargo run -p xtask -- perf-diff <A.json> <B.json> [--counters-only]
//! cargo run -p xtask -- chaos
//! cargo run -p xtask -- bench-guard [dir] [--update-baseline]
//! ```
//!
//! `lint` runs the `stlint` analyzer over every non-vendored `.rs` file
//! (default root: the workspace directory, found relative to this
//! crate's manifest): determinism, protocol safety (collective lockstep,
//! send-after-quiescence, charge coverage, SeqCst quiescence, no raw
//! threads, batched Vec sends), label uniqueness, unsafe hygiene, unwind
//! boundaries and lock ordering. Findings are gated by the checked-in
//! `stlint.baseline` file — baselined findings are reported as
//! grandfathered but do not fail the build; anything new does. Every run
//! rewrites `stlint.json` (a versioned machine-readable report) at the
//! workspace root. `--update-baseline` rewrites the baseline from the
//! current findings instead of failing. Exit code 0 means clean; 1 means
//! findings were printed; 2 means usage or I/O error.
//!
//! `check-reports` parses every `BENCH_*.json` in the given directory
//! (default: `bench_results/` under the workspace root) and validates it
//! against the envelope schema in `bench::report`; any `FLIGHT_*.json`
//! flight-recorder dumps alongside them are validated against
//! `steiner::report::validate_flight`. It also validates the
//! workspace-root `stlint.json` against [`stlint_report`]'s schema when
//! present. With `--stlint-only` the bench envelopes are skipped and the
//! stlint report becomes mandatory (CI's lint job runs this form — it has
//! no experiment outputs). Exit code 0 means all reports are
//! schema-valid; 1 means violations (or no reports at all); 2 means
//! usage or I/O error.
//!
//! `analyze` reads a Chrome-trace export (from `steiner-cli solve
//! --trace`) or a flight-recorder dump (the same format, written when a
//! traced solve fails under `FLIGHT_RECORDER_DIR`). It prints the
//! `stanalyze` critical-path / load-imbalance readout and the ASCII phase
//! Gantt with per-rank utilization. A trace must verify (acyclic, every
//! spawn visited) with a non-empty critical path. A flight dump records a
//! world that died mid-phase, so it must only validate and be acyclic:
//! its coverage gaps are reported as warnings. Exit code 0 means the
//! analysis verified; 1 means a verification failure; 2 means usage or
//! I/O error.
//!
//! `perf-diff` compares two run documents (bare `RunReport`s or whole
//! `BENCH_*.json` envelopes, solve entries matched by label) and flags
//! per-phase time / visit / byte / memory regressions beyond the noise
//! thresholds in [`perfdiff`]. `--counters-only` skips the wall-clock
//! metrics — the form CI runs against the checked-in `bench_results/`
//! baseline, where timings come from different hosts. Two envelopes
//! without solve entries (baseline-only harnesses) are skipped with a
//! note; one against an envelope with solves is an error. Exit code 0
//! means no regressions (or skipped); 1 means at least one; 2 means usage
//! or I/O error.
//!
//! `chaos` runs a quick fault sweep: it solves a small deterministic
//! graph under seeded drop/dup/delay/stall plans across queue
//! disciplines and rank counts, asserting every faulted solve recovers a
//! tree bit-identical to the fault-free baseline and actually exercised
//! the fault path (nonzero injection counters). The fresh-world
//! message-fault solves run traced, with counter samples, while the
//! baselines run untraced, so the sweep doubles as the proof that
//! observation never perturbs the result. Both sweeps run each
//! combination under `--mst replicated` and `--mst dist`, comparing
//! every tree against a fault-free baseline
//! pinned to `--mst replicated` — so the matrix also pins the distributed
//! Borůvka pipeline bit-identical to the replicated Prim path. A second
//! sweep injects seeded crash-stop rank deaths
//! (visit- and sync-triggered, across phases) at ranks {2, 4} per queue
//! discipline and asserts the supervisor restored from a phase
//! checkpoint and the recovered tree is bit-identical (for dist solves,
//! with the Borůvka round counters intact after the restore). Every plan
//! also reruns through `solve_on` on one resident world per (queue,
//! ranks), which must match the same baseline and keep serving solves
//! after the crashed jobs. A final smoke checks an expired `deadline`
//! surfaces as the structured `DeadlineExceeded` error on a fresh and on
//! a resident world. Exit code 0 means every combination
//! matched; 1 means a divergence or a plan that injected nothing; 2
//! means usage error.
//!
//! `bench-guard` compares the freshly generated
//! `BENCH_fig3_strong_scaling.json` in the given directory (default:
//! `bench_results/`) against the checked-in
//! `fig3_guard_baseline.json`. Per scale point it pins the deterministic
//! counters exactly: every point's sync points
//! (barriers and collective calls), `--mst dist` points' Borůvka round
//! count, and one-rank points' visits and stale drops plus pruned
//! relaxations (one rank runs a deterministic schedule; pruning at push
//! may move relaxations from one counter to the other, never change
//! their sum). Multi-rank visits, stale drops and pruned relaxations move
//! with the thread schedule (FRS at two ranks reads 1,225 or 1,884 visits
//! on one binary), so they are reported, with a note when they leave the
//! baseline's recorded tolerances, and never fail the guard. So is the
//! voronoi phase's share of total time: a wall-clock share of a ~1 ms
//! quick solve left the baseline's ±0.25 in one of five runs of an
//! unchanged binary. A baseline entry without `pruned` predates the
//! counter and counts as 0.
//! `--update-baseline` rewrites the baseline from the current report.
//! Exit code 0 means every point within tolerance; 1 means drift or a
//! scale point missing from the fresh report; 2 means usage or I/O
//! error.

mod perfdiff;
mod stlint_report;

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/xtask -> workspace root; CARGO_MANIFEST_DIR is set both
    // under `cargo run` and `cargo test`.
    let manifest = env!("CARGO_MANIFEST_DIR");
    PathBuf::from(manifest)
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let update_baseline = args.iter().any(|a| a == "--update-baseline");
            let root = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with("--"))
                .map(PathBuf::from)
                .unwrap_or_else(workspace_root);
            lint_cmd(&root, update_baseline)
        }
        Some("check-reports") => {
            let stlint_only = args.iter().any(|a| a == "--stlint-only");
            let dir = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with("--"))
                .map(PathBuf::from)
                .unwrap_or_else(|| workspace_root().join("bench_results"));
            check_reports(&dir, stlint_only)
        }
        Some("analyze") => match args.get(1) {
            Some(path) => analyze_trace(std::path::Path::new(path)),
            None => {
                eprintln!("xtask analyze: missing trace file argument");
                ExitCode::from(2)
            }
        },
        Some("perf-diff") => {
            let counters_only = args.iter().any(|a| a == "--counters-only");
            let mut paths = args.iter().skip(1).filter(|a| !a.starts_with("--"));
            match (paths.next(), paths.next()) {
                (Some(a), Some(b)) => perf_diff(
                    std::path::Path::new(a),
                    std::path::Path::new(b),
                    counters_only,
                ),
                _ => {
                    eprintln!("xtask perf-diff: need a baseline and a candidate report");
                    ExitCode::from(2)
                }
            }
        }
        Some("chaos") => chaos(),
        Some("bench-guard") => {
            let update = args.iter().any(|a| a == "--update-baseline");
            let dir = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with("--"))
                .map(PathBuf::from)
                .unwrap_or_else(|| workspace_root().join("bench_results"));
            bench_guard(&dir, update)
        }
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- lint [root] [--update-baseline] | \
                 check-reports [dir] [--stlint-only] | analyze <file.json> | \
                 perf-diff <A.json> <B.json> [--counters-only] | chaos | \
                 bench-guard [dir] [--update-baseline]"
            );
            ExitCode::from(2)
        }
    }
}

/// Directories never descended into when collecting sources.
const SKIP_DIRS: &[&str] = &["vendored", "target", ".git"];

/// Collects `(workspace-relative path, contents)` for every `.rs` file
/// under `root`, skipping vendored shims and build products. Paths are
/// sorted so findings are deterministic.
fn collect_sources(root: &std::path::Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push((rel, std::fs::read_to_string(&path)?));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The lint driver: the stlint analyzer, with baseline gating and the
/// `stlint.json` report.
fn lint_cmd(root: &std::path::Path, update_baseline: bool) -> ExitCode {
    let files = match collect_sources(root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!(
                "xtask lint: failed to read sources under {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    let analysis = stlint::analyze(&files);
    let baseline_path = root.join("stlint.baseline");
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => stlint::Baseline::parse(&text),
        Err(_) => stlint::Baseline::default(),
    };

    if update_baseline {
        let rendered = stlint::Baseline::render(&analysis.findings);
        if let Err(e) = std::fs::write(&baseline_path, rendered) {
            eprintln!("xtask lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "xtask lint: baseline rewritten with {} finding(s) at {}",
            analysis.findings.len(),
            baseline_path.display()
        );
    }
    let baseline = if update_baseline {
        stlint::Baseline::parse(&std::fs::read_to_string(&baseline_path).unwrap_or_default())
    } else {
        baseline
    };

    // The machine-readable report is rewritten on every run so CI can
    // upload it as an artifact even when the pass fails.
    let report = stlint::render_json(&analysis, &baseline);
    let report_path = root.join("stlint.json");
    if let Err(e) = std::fs::write(&report_path, report) {
        eprintln!("xtask lint: cannot write {}: {e}", report_path.display());
        return ExitCode::from(2);
    }

    let (new, grandfathered): (Vec<_>, Vec<_>) = analysis
        .findings
        .iter()
        .partition(|f| !baseline.contains(f));

    for f in &new {
        eprintln!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        if !f.snippet.is_empty() {
            eprintln!("    {}", f.snippet);
        }
    }
    if new.is_empty() {
        println!(
            "xtask lint: {} files clean ({} rules, {} grandfathered, \
             {} suppression(s), {} unsafe site(s) inventoried)",
            files.len(),
            stlint::RULE_CATALOG.len(),
            grandfathered.len(),
            analysis.suppressions.len(),
            analysis.unsafe_inventory.len(),
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask lint: {} finding(s) ({} grandfathered not counted)",
            new.len(),
            grandfathered.len()
        );
        ExitCode::FAILURE
    }
}

/// Quick fault sweep: every seeded plan × queue discipline × rank count,
/// on a fresh world per solve and on one resident world per (queue,
/// ranks), must recover a tree bit-identical to the fault-free baseline.
fn chaos() -> ExitCode {
    use std::sync::Arc;
    use stgraph::builder::GraphBuilder;
    use stgraph::csr::Vertex;
    use stgraph::error::SteinerError;
    use stgraph::partition::partition_graph;

    // Deterministic ring + chords: enough cross-rank traffic to exercise
    // retransmission at every rank count, small enough to sweep quickly.
    let n: u32 = 96;
    let mut b = GraphBuilder::new(n as usize);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n, 2 + (i % 5) as u64);
        if i % 7 == 0 {
            b.add_edge(i, (i + n / 3) % n, 9);
        }
    }
    let g = b.build();
    let seeds: Vec<Vertex> = (0..n).step_by((n / 6) as usize).collect();

    let plans = [
        "drop=0.2,seed=11",
        "dup=0.2,seed=12",
        "delay=0.2,delay_us=200,seed=13",
        "drop=0.1,dup=0.1,delay=0.1,stall=0.05,seed=14",
    ];
    // Seeded crash-stop rank deaths, one in each phase an MST mode runs
    // (visit-triggered in voronoi, sync-triggered in the others, on
    // alternating ranks), run at ranks {2, 4}.
    let crash_plan = |phase: steiner::Phase| match phase.index() {
        0 => "crash_rank=1,crash_after_visits=3,crash_phase=0,seed=7".to_string(),
        i => format!(
            "crash_rank={},crash_at_sync=2,crash_phase={i},seed={}",
            (i + 1) % 2,
            2 * i + 5
        ),
    };
    let queues = [
        ("fifo", steiner::QueueKind::Fifo),
        ("priority", steiner::QueueKind::Priority),
        ("adversarial", steiner::QueueKind::Adversarial { seed: 7 }),
    ];
    // Both MST pipelines run against the same replicated fault-free
    // baseline, so the sweep also pins `--mst dist` bit-identical to the
    // replicated Prim path under every fault plan.
    let modes = [
        ("replicated", steiner::MstMode::Replicated),
        ("dist", steiner::MstMode::Dist),
    ];

    let mut failures = 0usize;
    let mut combos = 0usize;
    for (qname, queue) in queues {
        for p in [1usize, 2, 4] {
            // Pinned explicitly: the default pipeline is dist, and a dist
            // baseline would compare Borůvka against itself.
            let base_cfg = steiner::SolverConfig {
                num_ranks: p,
                queue,
                mst_mode: steiner::MstMode::Replicated,
                ..steiner::SolverConfig::default()
            };
            let baseline = match steiner::solve(&g, &seeds, &base_cfg) {
                Ok(r) => r.tree,
                Err(e) => {
                    eprintln!("  FAIL {qname} p={p} baseline: {e}");
                    failures += 1;
                    continue;
                }
            };
            // One resident world serves every resident solve of this
            // (queue, ranks) cell, crashed jobs included.
            let world = steiner::PersistentWorld::new(p);
            let pg = Arc::new(partition_graph(&g, p, None));
            for resident in [false, true] {
                let engine = if resident { "resident" } else { "batch" };
                for (mname, mst_mode) in modes {
                    let crash = mst_mode.phases().iter().filter(|_| p > 1);
                    let specs = plans.iter().map(|s| (s.to_string(), false));
                    let specs = specs.chain(crash.map(|&ph| (crash_plan(ph), true)));
                    for (spec, crashes) in specs {
                        let spec = spec.as_str();
                        combos += 1;
                        let plan = match steiner::FaultPlan::from_spec(spec) {
                            Ok(plan) => plan,
                            Err(e) => {
                                eprintln!("xtask chaos: bad plan {spec:?}: {e}");
                                return ExitCode::from(2);
                            }
                        };
                        // Tracing on for the batch message-fault runs: the
                        // tree-equality check then also proves that
                        // tracing never perturbs the solve. A resident
                        // world's tracing is fixed (off) at build time.
                        let sampled = !resident && !crashes;
                        let cfg = steiner::SolverConfig {
                            mst_mode,
                            faults: Some(plan),
                            trace: if sampled {
                                steiner::TraceConfig::ring()
                            } else {
                                steiner::TraceConfig::Off
                            },
                            ..base_cfg
                        };
                        let solved = if resident {
                            steiner::solve_on(&world, &pg, &seeds, &cfg)
                        } else {
                            steiner::solve(&g, &seeds, &cfg)
                        };
                        let verdict = solved
                            .map_err(|e| format!("solve failed: {e}"))
                            .and_then(|r| chaos_verdict(&r, &baseline, crashes, sampled));
                        match verdict {
                            Ok(line) => {
                                println!("  ok {engine} {qname} p={p} mst={mname} {spec}: {line}")
                            }
                            Err(why) => {
                                eprintln!(
                                    "  FAIL {engine} {qname} p={p} mst={mname} {spec}: {why}"
                                );
                                failures += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    // Deadline smoke: an already-expired budget must surface as the
    // structured error, not a hang or a panic — on a fresh world and on
    // a resident one, which must then still serve the next solve.
    let deadline_cfg = steiner::SolverConfig {
        num_ranks: 2,
        deadline: Some(std::time::Duration::ZERO),
        ..steiner::SolverConfig::default()
    };
    let world = steiner::PersistentWorld::new(2);
    let pg = Arc::new(partition_graph(&g, 2, None));
    for resident in [false, true] {
        combos += 1;
        let engine = if resident { "resident" } else { "batch" };
        let solved = if resident {
            steiner::solve_on(&world, &pg, &seeds, &deadline_cfg)
        } else {
            steiner::solve(&g, &seeds, &deadline_cfg)
        };
        let after = steiner::SolverConfig {
            deadline: None,
            ..deadline_cfg
        };
        match solved {
            Err(SteinerError::DeadlineExceeded { .. }) if resident => {
                match steiner::solve_on(&world, &pg, &seeds, &after) {
                    Ok(_) => println!(
                        "  ok {engine} deadline=0: structured DeadlineExceeded, world still serves"
                    ),
                    Err(e) => {
                        eprintln!("  FAIL {engine} deadline=0: next solve failed: {e}");
                        failures += 1;
                    }
                }
            }
            Err(SteinerError::DeadlineExceeded { .. }) => {
                println!("  ok {engine} deadline=0: structured DeadlineExceeded");
            }
            Ok(_) => {
                eprintln!("  FAIL {engine} deadline=0: solve completed despite an expired budget");
                failures += 1;
            }
            Err(e) => {
                eprintln!("  FAIL {engine} deadline=0: expected DeadlineExceeded, got: {e}");
                failures += 1;
            }
        }
    }

    if failures == 0 {
        println!("xtask chaos: {combos} faulted solves bit-identical to fault-free baselines");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask chaos: {failures} failing combination(s)");
        ExitCode::FAILURE
    }
}

/// Judges one faulted chaos solve against the fault-free `baseline`
/// tree: `Ok` carries the summary line, `Err` the reason it fails.
/// `crashes` marks a crash-stop plan, which must have crashed a rank and
/// restored from a checkpoint; a message-fault plan must have injected
/// faults (at more than one rank) and, when `sampled`, recorded counter
/// events in its trace.
fn chaos_verdict(
    r: &steiner::SolveReport,
    baseline: &stgraph::SteinerTree,
    crashes: bool,
    sampled: bool,
) -> Result<String, String> {
    if r.tree != *baseline {
        return Err(format!(
            "tree diverged (distance {} vs fault-free {})",
            r.tree.total_distance(),
            baseline.total_distance()
        ));
    }
    if r.config.mst_mode == steiner::MstMode::Dist && r.boruvka.is_none() {
        return Err("dist solve reported no Borůvka rounds".into());
    }
    let rec = &r.recovery;
    let stats = &r.fault_stats;
    if crashes {
        if rec.crashes_injected == 0 {
            return Err("plan injected no crash (crash path not exercised)".into());
        }
        if rec.restores == 0 {
            return Err("crashed but never restored from a checkpoint".into());
        }
        return Ok(format!(
            "tree identical after {} crash(es), {} restore(s), {} phase(s) replayed \
             ({} checkpoints)",
            rec.crashes_injected, rec.restores, rec.replayed_phases, rec.checkpoints_taken,
        ));
    }
    if r.config.num_ranks > 1 && stats.injected() == 0 {
        return Err("plan injected nothing (fault path not exercised)".into());
    }
    let mut events = r.trace.ranks.iter().flat_map(|rt| &rt.events);
    if sampled && !events.any(|e| e.kind == struntime::TraceEventKind::Counter) {
        return Err("trace recorded no counter events".into());
    }
    Ok(format!(
        "tree identical ({} drops, {} dups, {} delays, {} retransmits, {} dedups)",
        stats.drops, stats.dups, stats.delays, stats.retransmits, stats.dedup_discards,
    ))
}

/// One fig3 scale point's guarded quantities, extracted from a `"solve"`
/// entry of `BENCH_fig3_strong_scaling.json`.
struct GuardPoint {
    label: String,
    /// `config.num_ranks`: one-rank points are deterministic.
    ranks: u64,
    /// Voronoi phase time as a fraction of total time-to-solution.
    voronoi_share: f64,
    /// Visitors processed across all ranks (sum of `rank_work`).
    visits: u64,
    /// Stale relaxations dropped unvisited (`stale_drops.total`).
    stale: u64,
    /// Relaxations pruned before they were pushed (`pruned_at_push.total`).
    pruned: u64,
    /// Borůvka rounds for `--mst dist` points (v7 `boruvka.rounds`,
    /// `None` for replicated points). Deterministic — the slot-min and
    /// pointer-jumping make the round count a pure function of the
    /// instance — so the guard holds it exact, not within a tolerance.
    boruvka_rounds: Option<u64>,
    /// Rank barriers and collective calls (v10 `sync_points`), the same
    /// on every rank and on every schedule.
    sync_points: (u64, u64),
}

fn guard_points(doc: &stgraph::json::Json) -> Result<Vec<GuardPoint>, String> {
    let entries = doc
        .get("entries")
        .and_then(|v| v.as_arr())
        .ok_or("entries must be an array")?;
    let mut points = Vec::new();
    for entry in entries {
        if entry.get("kind").and_then(|v| v.as_str()) != Some("solve") {
            continue;
        }
        let label = entry
            .get("label")
            .and_then(|v| v.as_str())
            .ok_or("entry missing label")?
            .to_string();
        let run = entry.get("run").ok_or("solve entry missing run")?;
        let voronoi_us = run
            .get("phase_times_us")
            .and_then(|p| p.get("voronoi"))
            .and_then(|v| v.as_u64())
            .ok_or("missing phase_times_us.voronoi")?;
        let total_us = run
            .get("total_time_us")
            .and_then(|v| v.as_u64())
            .filter(|&t| t > 0)
            .ok_or("missing or zero total_time_us")?;
        let visits = run
            .get("rank_work")
            .and_then(|v| v.as_arr())
            .map(|a| a.iter().filter_map(|w| w.as_u64()).sum::<u64>())
            .ok_or("missing rank_work")?;
        let total = |key: &str| {
            run.get(key)
                .and_then(|s| s.get("total"))
                .and_then(|v| v.as_u64())
                .ok_or(format!("missing {key}.total"))
        };
        let ranks = run
            .get("config")
            .and_then(|c| c.get("num_ranks"))
            .and_then(|v| v.as_u64())
            .ok_or("missing config.num_ranks")?;
        let boruvka_rounds = run
            .get("boruvka")
            .filter(|v| !v.is_null())
            .and_then(|b| b.get("rounds"))
            .and_then(|v| v.as_u64());
        let sync = |key: &str| {
            run.get("sync_points")
                .and_then(|s| s.get(key))
                .and_then(|v| v.as_u64())
                .ok_or(format!("missing sync_points.{key}"))
        };
        points.push(GuardPoint {
            label,
            ranks,
            voronoi_share: voronoi_us as f64 / total_us as f64,
            visits,
            stale: total("stale_drops")?,
            pruned: total("pruned_at_push")?,
            boruvka_rounds,
            sync_points: (sync("barriers")?, sync("collectives")?),
        });
    }
    if points.is_empty() {
        return Err("no solve entries in report".to_string());
    }
    Ok(points)
}

/// Default drift bounds written into a fresh baseline. Phase shares move
/// with host timing, and multi-rank visit and stale counts with the
/// thread schedule: their bounds only decide when the guard prints a
/// drift note.
const GUARD_SHARE_ABS: f64 = 0.25;
const GUARD_VISITS_REL: f64 = 0.25;
const GUARD_STALE_REL: f64 = 0.5;
const GUARD_STALE_ABS: u64 = 500;

fn bench_guard(dir: &std::path::Path, update_baseline: bool) -> ExitCode {
    use stgraph::json::Json;
    let report_path = dir.join("BENCH_fig3_strong_scaling.json");
    let baseline_path = dir.join("fig3_guard_baseline.json");
    let fresh = match std::fs::read_to_string(&report_path)
        .map_err(|e| e.to_string())
        .and_then(|text| stgraph::json::parse(&text).map_err(|e| e.to_string()))
        .and_then(|doc| guard_points(&doc))
    {
        Ok(points) => points,
        Err(e) => {
            eprintln!(
                "xtask bench-guard: cannot load {}: {e} (run ./run_experiments.sh --quick first)",
                report_path.display()
            );
            return ExitCode::from(2);
        }
    };

    if update_baseline {
        let entries: Vec<Json> = fresh
            .iter()
            .map(|p| {
                let mut entry = Json::obj()
                    .with("label", p.label.as_str())
                    .with("voronoi_share", p.voronoi_share)
                    .with("visits", p.visits)
                    .with("stale", p.stale)
                    .with("pruned", p.pruned);
                if let Some(rounds) = p.boruvka_rounds {
                    entry.insert("boruvka_rounds", rounds);
                }
                entry.insert("sync_barriers", p.sync_points.0);
                entry.insert("sync_collectives", p.sync_points.1);
                entry
            })
            .collect();
        let doc = Json::obj()
            .with("schema_version", 1u64)
            .with("bench", "fig3_strong_scaling")
            .with(
                "tolerance",
                Json::obj()
                    .with("voronoi_share_abs", GUARD_SHARE_ABS)
                    .with("visits_rel", GUARD_VISITS_REL)
                    .with("stale_rel", GUARD_STALE_REL)
                    .with("stale_abs", GUARD_STALE_ABS),
            )
            .with("entries", Json::Arr(entries));
        if let Err(e) = std::fs::write(&baseline_path, doc.to_pretty()) {
            eprintln!(
                "xtask bench-guard: cannot write {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "xtask bench-guard: baseline rewritten with {} scale point(s) at {}",
            fresh.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| stgraph::json::parse(&text).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!(
                "xtask bench-guard: cannot load {}: {e} \
                 (run `cargo run -p xtask -- bench-guard --update-baseline` to create it)",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let tol = |key: &str, default: f64| {
        baseline
            .get("tolerance")
            .and_then(|t| t.get(key))
            .and_then(|v| v.as_f64())
            .unwrap_or(default)
    };
    let share_abs = tol("voronoi_share_abs", GUARD_SHARE_ABS);
    let visits_rel = tol("visits_rel", GUARD_VISITS_REL);
    let stale_rel = tol("stale_rel", GUARD_STALE_REL);
    let stale_abs = tol("stale_abs", GUARD_STALE_ABS as f64) as u64;
    let base_entries = match baseline.get("entries").and_then(|v| v.as_arr()) {
        Some(entries) if !entries.is_empty() => entries,
        _ => {
            eprintln!(
                "xtask bench-guard: {} has no entries",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    for base in base_entries {
        let (Some(label), Some(b_share), Some(b_visits), Some(b_stale)) = (
            base.get("label").and_then(|v| v.as_str()),
            base.get("voronoi_share").and_then(|v| v.as_f64()),
            base.get("visits").and_then(|v| v.as_u64()),
            base.get("stale").and_then(|v| v.as_u64()),
        ) else {
            eprintln!("xtask bench-guard: malformed baseline entry: {base:?}");
            return ExitCode::from(2);
        };
        let b_pruned = base.get("pruned").and_then(|v| v.as_u64()).unwrap_or(0);
        let Some(now) = fresh.iter().find(|p| p.label == label) else {
            eprintln!("  FAIL {label}: scale point missing from fresh report");
            failures += 1;
            continue;
        };
        let mut bad = Vec::new();
        // A wall-clock share of a ~1 ms solve: reported, never gated.
        if (now.voronoi_share - b_share).abs() > share_abs {
            println!(
                "  note {label}: voronoi share {:.2} drifted from {:.2} \
                 (tol ±{share_abs:.2}; wall clock, not gated)",
                now.voronoi_share, b_share
            );
        }
        if now.ranks > 1 {
            // Schedule-dependent: reported, never gated.
            for (what, got, want, rel, abs) in [
                ("visits", now.visits, b_visits, visits_rel, 1),
                ("stale drops", now.stale, b_stale, stale_rel, stale_abs),
                (
                    "pruned relaxations",
                    now.pruned,
                    b_pruned,
                    stale_rel,
                    stale_abs,
                ),
            ] {
                let slack = (want as f64 * rel).max(abs as f64);
                if (got as f64 - want as f64).abs() > slack {
                    println!(
                        "  note {label}: {what} {got} drifted from {want} \
                         (tol ±{slack:.0}; schedule-dependent, not gated)"
                    );
                }
            }
        } else {
            if now.visits != b_visits {
                bad.push(format!(
                    "visits {} changed from {b_visits} (one rank, tol 0)",
                    now.visits
                ));
            }
            if now.stale + now.pruned != b_stale + b_pruned {
                bad.push(format!(
                    "stale + pruned {} changed from {} (one rank, tol 0)",
                    now.stale + now.pruned,
                    b_stale + b_pruned
                ));
            }
        }
        // Borůvka round counts are deterministic per instance, so any
        // change at all means the tie-breaking or hooking logic moved.
        let b_rounds = base.get("boruvka_rounds").and_then(|v| v.as_u64());
        if b_rounds.is_some() && now.boruvka_rounds != b_rounds {
            bad.push(format!(
                "boruvka rounds {:?} changed from {:?} (deterministic, tol 0)",
                now.boruvka_rounds, b_rounds
            ));
        }
        let b_sync = (
            base.get("sync_barriers").and_then(|v| v.as_u64()),
            base.get("sync_collectives").and_then(|v| v.as_u64()),
        );
        if b_sync != (Some(now.sync_points.0), Some(now.sync_points.1)) {
            bad.push(format!(
                "sync points (barriers, collectives) {:?} changed from {b_sync:?} \
                 (deterministic, tol 0)",
                now.sync_points
            ));
        }
        if bad.is_empty() {
            println!(
                "  ok {label}: voronoi share {:.2}, {} visits, {} stale drops, {} pruned, \
                 {} barriers, {} collectives",
                now.voronoi_share,
                now.visits,
                now.stale,
                now.pruned,
                now.sync_points.0,
                now.sync_points.1
            );
        } else {
            for b in bad {
                eprintln!("  FAIL {label}: {b}");
            }
            failures += 1;
        }
    }
    let new_points = fresh
        .iter()
        .filter(|p| {
            !base_entries
                .iter()
                .any(|b| b.get("label").and_then(|v| v.as_str()) == Some(p.label.as_str()))
        })
        .count();
    if new_points > 0 {
        println!(
            "xtask bench-guard: note: {new_points} scale point(s) not in baseline \
             (rerun with --update-baseline to track them)"
        );
    }
    if failures == 0 {
        println!(
            "xtask bench-guard: {} scale point(s) within tolerance",
            base_entries.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask bench-guard: {failures} scale point(s) drifted");
        ExitCode::FAILURE
    }
}

fn analyze_trace(path: &std::path::Path) -> ExitCode {
    let doc = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| stgraph::json::parse(&text).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("xtask analyze: cannot load {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let flight = doc.get("struntime").and_then(|s| s.get("flight"));
    if flight.is_some() {
        if let Err(e) = steiner::report::validate_flight(&doc) {
            eprintln!("xtask analyze: FAIL: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let model = match stanalyze::model_from_chrome(&doc) {
        Ok(model) => model,
        Err(e) => {
            eprintln!("xtask analyze: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let analysis = stanalyze::analyze(&model);
    print!("{}", analysis.render_text());
    let phases = steiner::Phase::ALL.map(|p| p.name());
    match stanalyze::gantt(&model, &phases) {
        Ok(text) => print!("{text}"),
        Err(e) => println!("no phase Gantt: {e}"),
    }
    if let Some(flight) = flight {
        // A dead world stops mid-traversal, so spawned messages may never
        // have been visited: coverage gaps are expected, a cycle is not.
        let reason = flight.get("reason").and_then(|v| v.as_str()).unwrap_or("?");
        if !analysis.acyclic {
            eprintln!("xtask analyze: FAIL: flight dump's causality graph has a cycle");
            return ExitCode::FAILURE;
        }
        println!(
            "xtask analyze: ok (flight recorder, reason: {reason}, {} visits)",
            analysis.total_visits
        );
        return ExitCode::SUCCESS;
    }
    if let Err(e) = analysis.verify() {
        eprintln!("xtask analyze: FAIL: {e}");
        return ExitCode::FAILURE;
    }
    // CI smoke contract: a traced solve must yield a usable DAG, not an
    // empty or lineage-free trace.
    if analysis.critical_path.visits == 0 {
        eprintln!("xtask analyze: FAIL: empty critical path (no lineage events in trace?)");
        return ExitCode::FAILURE;
    }
    println!(
        "xtask analyze: ok ({} visits, critical path {})",
        analysis.total_visits, analysis.critical_path.visits
    );
    ExitCode::SUCCESS
}

/// Loads baseline and candidate documents and prints their perf diff;
/// exit code 1 iff at least one metric regressed beyond its threshold.
fn perf_diff(a_path: &std::path::Path, b_path: &std::path::Path, counters_only: bool) -> ExitCode {
    let load = |path: &std::path::Path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| stgraph::json::parse(&text).map_err(|e| e.to_string()))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) => {
            eprintln!("xtask perf-diff: cannot load {}: {e}", a_path.display());
            return ExitCode::from(2);
        }
        (_, Err(e)) => {
            eprintln!("xtask perf-diff: cannot load {}: {e}", b_path.display());
            return ExitCode::from(2);
        }
    };
    match perfdiff::diff(&a, &b, counters_only) {
        Ok(d) => {
            for line in &d.lines {
                if line.starts_with("REGRESSION") {
                    eprintln!("  {line}");
                } else {
                    println!("  {line}");
                }
            }
            if d.regressions == 0 {
                println!(
                    "xtask perf-diff: no regressions ({} metric(s) compared{})",
                    d.lines.len(),
                    if counters_only { ", counters only" } else { "" }
                );
                ExitCode::SUCCESS
            } else {
                eprintln!("xtask perf-diff: {} regression(s)", d.regressions);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask perf-diff: {e}");
            ExitCode::from(2)
        }
    }
}

/// Validates machine-readable reports. With `stlint_only`, skips the
/// bench envelopes (CI's lint job has no experiment outputs) and requires
/// the stlint report to exist; otherwise BENCH_*.json under `dir` are
/// mandatory and stlint.json is validated opportunistically.
fn check_reports(dir: &std::path::Path, stlint_only: bool) -> ExitCode {
    let mut failures = 0usize;
    let mut checked = 0usize;
    if !stlint_only {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("xtask check-reports: cannot read {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        paths.sort();
        if paths.is_empty() {
            eprintln!(
                "xtask check-reports: no BENCH_*.json under {} (run ./run_experiments.sh first)",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
        for path in &paths {
            let outcome = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| stgraph::json::parse(&text).map_err(|e| e.to_string()))
                .and_then(|doc| bench::report::validate(&doc));
            match outcome {
                Ok(n) => println!("  ok {} ({n} entries)", path.display()),
                Err(e) => {
                    eprintln!("  FAIL {}: {e}", path.display());
                    failures += 1;
                }
            }
        }
        checked += paths.len();
        // Flight-recorder dumps share the directory when a chaos run was
        // kill-switched with FLIGHT_RECORDER_DIR set; validate any present
        // so CI artifacts are known-parseable before upload.
        let mut flights: Vec<PathBuf> = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("FLIGHT_") && n.ends_with(".json"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        flights.sort();
        for path in &flights {
            let outcome = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| stgraph::json::parse(&text).map_err(|e| e.to_string()))
                .and_then(|doc| steiner::report::validate_flight(&doc));
            match outcome {
                Ok(n) => println!("  ok {} (flight dump, {n} rank(s))", path.display()),
                Err(e) => {
                    eprintln!("  FAIL {}: {e}", path.display());
                    failures += 1;
                }
            }
        }
        checked += flights.len();
    }
    // The static-analysis report shares the machine-readable contract:
    // validate the workspace-root stlint.json whenever it exists.
    let stlint_path = workspace_root().join("stlint.json");
    if !stlint_path.exists() && stlint_only {
        eprintln!(
            "xtask check-reports: {} not found (run `cargo run -p xtask -- lint` first)",
            stlint_path.display()
        );
        return ExitCode::FAILURE;
    }
    if stlint_path.exists() {
        let outcome = std::fs::read_to_string(&stlint_path)
            .map_err(|e| e.to_string())
            .and_then(|text| stgraph::json::parse(&text).map_err(|e| e.to_string()))
            .and_then(|doc| stlint_report::validate(&doc));
        checked += 1;
        match outcome {
            Ok(c) => println!(
                "  ok {} ({} finding(s), {} new, {} suppression(s), {} unsafe site(s))",
                stlint_path.display(),
                c.findings,
                c.new_findings,
                c.suppressions,
                c.unsafe_sites
            ),
            Err(e) => {
                eprintln!("  FAIL {}: {e}", stlint_path.display());
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("xtask check-reports: {checked} report(s) schema-valid");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask check-reports: {failures} invalid report(s)");
        ExitCode::FAILURE
    }
}
