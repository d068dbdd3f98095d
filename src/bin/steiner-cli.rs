//! `steiner-cli` — command-line front end to the suite.
//!
//! ```text
//! steiner-cli generate --dataset LVJ --out graph.bin [--tiny] [--seed N]
//! steiner-cli stats    --graph graph.bin
//! steiner-cli solve    --graph graph.bin (--seeds 1,2,3 | --select K[:STRATEGY])
//!                      [--ranks P] [--queue fifo|priority]
//!                      [--mst dist|replicated]
//!                      [--refine] [--improve ROUNDS] [--dot out.dot]
//!                      [--faults drop=0.1,dup=0.05,seed=7]
//!                      [--crash crash_rank=1,crash_at_sync=3,seed=7]
//!                      [--deadline MS] [--no-recover]
//!                      [--trace trace.json] [--report report.json] [--analyze]
//! steiner-cli compare  --graph graph.bin --select K[:STRATEGY]
//! steiner-cli repl     --graph graph.bin [--select K[:STRATEGY]]
//!                      [--ranks P] [--queue KIND] [--mst MODE] [--faults SPEC]
//!                      [--trace trace.json] [--report report.json]
//! ```
//!
//! Strategies: bfs-level (default), uniform-random, eccentric, proximate.

use baselines::{kmb, mehlhorn, takahashi, www};
use seeds::Strategy;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use steiner::{
    solve, solve_partitioned, FaultPlan, MetricsConfig, MstMode, QueueKind, SolveReport,
    SolverConfig, TraceConfig,
};
use stgraph::csr::{CsrGraph, Vertex};
use stgraph::datasets::Dataset;
use stgraph::error::SteinerError;
use stgraph::partition::{partition_graph, PartitionedGraph};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  steiner-cli generate --dataset NAME --out FILE [--tiny] [--seed N]
  steiner-cli stats    --graph FILE
  steiner-cli solve    --graph FILE (--seeds A,B,C | --select K[:STRATEGY])
                       [--ranks P] [--queue fifo|priority]
                       [--mst dist|replicated]
                       [--refine] [--improve ROUNDS] [--dot FILE] [--out TREE_FILE]
                       [--faults SPEC] [--crash SPEC] [--deadline MS] [--no-recover]
                       [--trace FILE] [--report FILE] [--analyze]

--queue picks the visitor-queue discipline: `priority` (default) settles
in near-Dijkstra order from a ring of distance buckets whose width comes
from the graph (max edge weight / max degree), and drops stale
relaxations; `fifo` is the unordered baseline.

--mst picks the distance-graph MST pipeline: `dist` (default) runs
distributed Borůvka rounds inside global_min_edge that reduce one
lightest-outgoing-edge slot per live component and merge via pointer
jumping, so the binom(K,2) edge buffer never materializes and the mst
and edge_pruning phases do not run (their times read 0); `replicated`
is the paper's Alg 3 Steps 3-5 — it allreduces the full pair buffer,
runs Prim on every rank, then prunes. Both choose the bit-identical
tree.

--trace writes a Chrome-trace/Perfetto JSON timeline of the solve (one
lane per simulated rank, with counter tracks for queue depth and bytes,
visits, stale drops and memory); --report writes the machine-readable
RunReport (schema v12, with each rank's phase times and the part of
each it spent waiting, latency quantiles from the runtime's
histograms, the fault/retransmit counters, per-rank stale-relaxation drop
and pruned-at-push counts, the crash-recovery counters, the Borůvka round
counters under --mst dist, and — when tracing — per-phase peak-memory
watermarks); --analyze turns on tracing and prints the causality-DAG
readout (critical path, load imbalance) after the solve. Tracing never
changes the tree. On a failed traced solve, set FLIGHT_RECORDER_DIR=DIR
to get the trace dumped as a FLIGHT_*.json flight-recorder file for
`xtask analyze`.
--faults injects deterministic message faults, e.g.
`drop=0.1,dup=0.05,delay=0.1,delay_us=200,stall=0.05,seed=7` (probs in
[0, 0.5]); the runtime's reliability protocol recovers and the tree is
bit-identical to a fault-free solve.
--crash injects a deterministic crash-stop rank death, e.g.
`crash_rank=1,crash_at_sync=3,seed=7` or
`crash_after_visits=100,crash_phase=0`; the supervisor restores the
survivors from the last complete phase checkpoint and the recovered
tree is bit-identical to an undisturbed solve. --no-recover allows no
restore (a crash then fails the solve as unrecoverable);
--deadline bounds the solve's wall-clock time in milliseconds —
on expiry the ranks are cooperatively aborted and the solve returns a
structured deadline-exceeded error (plus a flight dump when
FLIGHT_RECORDER_DIR is set and the solve is traced).
  steiner-cli compare  --graph FILE --select K[:STRATEGY]
  steiner-cli repl     --graph FILE [--select K[:STRATEGY]] [--ranks P]
                       [--queue KIND] [--mst MODE] [--faults SPEC]
                       [--trace FILE] [--report FILE]

repl commands: add V | remove V | seeds | tree | solve | dot FILE | help | quit
(the repl partitions the graph once; `tree`, `dot` and `solve` each run the
distributed solver on the current seeds with the repl's flags, and `solve`
also writes the --trace/--report artifacts of batch solve)

datasets: WDC CLW UKW FRS LVJ PTN MCO CTS
strategies: bfs-level uniform-random eccentric proximate";

/// Splits `args` into a flag map; boolean flags map to an empty string.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        let boolean = matches!(name, "tiny" | "refine" | "analyze" | "no-recover");
        if boolean {
            flags.insert(name.to_string(), String::new());
            i += 1;
        } else {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), v.clone());
            i += 2;
        }
    }
    Ok(flags)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "stats" => cmd_stats(&flags),
        "solve" => cmd_solve(&flags),
        "compare" => cmd_compare(&flags),
        "repl" => cmd_repl(&flags),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn dataset_by_name(name: &str) -> Result<Dataset, String> {
    Dataset::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset {name:?}"))
}

fn strategy_by_name(name: &str) -> Result<Strategy, String> {
    Strategy::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| format!("unknown strategy {name:?}"))
}

fn load_graph(flags: &HashMap<String, String>) -> Result<CsrGraph, String> {
    let path = flags.get("graph").ok_or("--graph is required")?;
    stgraph::io::load_binary(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))
}

fn seeds_from_flags(g: &CsrGraph, flags: &HashMap<String, String>) -> Result<Vec<Vertex>, String> {
    if let Some(list) = flags.get("seeds") {
        return list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<Vertex>()
                    .map_err(|_| format!("bad seed {t:?}"))
            })
            .collect();
    }
    if let Some(spec) = flags.get("select") {
        let (k_str, strat_str) = match spec.split_once(':') {
            Some((k, s)) => (k, s),
            None => (spec.as_str(), "bfs-level"),
        };
        let k: usize = k_str
            .parse()
            .map_err(|_| format!("bad seed count {k_str:?}"))?;
        let strategy = strategy_by_name(strat_str)?;
        let rng_seed = flag_num(flags, "seed", 1)?;
        return Ok(seeds::select(g, k, strategy, rng_seed));
    }
    Err("need --seeds or --select".into())
}

fn flag_num(flags: &HashMap<String, String>, name: &str, default: u64) -> Result<u64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{name} value {v:?}")),
    }
}

/// Parses `--faults SPEC` into a plan (`None` when the flag is absent),
/// then merges `--crash SPEC` on top: the crash spec's trigger and
/// filter keys override the base plan's, so message faults and a seeded
/// crash compose (`--faults drop=0.1,seed=7 --crash crash_at_sync=3`).
fn fault_plan(flags: &HashMap<String, String>) -> Result<Option<FaultPlan>, String> {
    let mut plan = match flags.get("faults") {
        None => None,
        Some(spec) => Some(
            FaultPlan::from_spec(spec).map_err(|e| format!("bad --faults value {spec:?}: {e}"))?,
        ),
    };
    if let Some(spec) = flags.get("crash") {
        let crash =
            FaultPlan::from_spec(spec).map_err(|e| format!("bad --crash value {spec:?}: {e}"))?;
        if !crash.crash_armed() {
            return Err(format!(
                "--crash value {spec:?} arms no crash trigger \
                 (want crash=P, crash_at_sync=N, or crash_after_visits=N)"
            ));
        }
        let mut base = plan.unwrap_or_default();
        base.crash_p = crash.crash_p;
        base.crash_rank = crash.crash_rank;
        base.crash_at_sync = crash.crash_at_sync;
        base.crash_after_visits = crash.crash_after_visits;
        base.crash_phase = crash.crash_phase;
        base.crash_limit = crash.crash_limit;
        if !flags.contains_key("faults") {
            base.seed = crash.seed;
        }
        plan = Some(base);
    }
    Ok(plan)
}

/// Parses `--deadline MS` into a wall-clock budget for the solve.
fn deadline(flags: &HashMap<String, String>) -> Result<Option<std::time::Duration>, String> {
    match flags.get("deadline") {
        None => Ok(None),
        Some(v) => {
            let ms: u64 = v
                .parse()
                .map_err(|_| format!("bad --deadline value {v:?} (want milliseconds)"))?;
            Ok(Some(std::time::Duration::from_millis(ms)))
        }
    }
}

fn rank_count(flags: &HashMap<String, String>) -> Result<usize, String> {
    let ranks = flag_num(flags, "ranks", 4)?;
    if ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    Ok(ranks as usize)
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = dataset_by_name(flags.get("dataset").ok_or("--dataset is required")?)?;
    let out = flags.get("out").ok_or("--out is required")?;
    let seed = flag_num(flags, "seed", 1)?;
    let g = if flags.contains_key("tiny") {
        dataset.generate_tiny(seed)
    } else {
        dataset.generate(seed)
    };
    stgraph::io::save_binary(&g, Path::new(out)).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} analogue: {} vertices, {} edges -> {out}",
        dataset.name(),
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let g = load_graph(flags)?;
    let s = stgraph::stats::GraphStats::of(&g);
    let cc = stgraph::traversal::connected_components(&g);
    println!("vertices      {}", s.num_vertices);
    println!("arcs (2|E|)   {}", s.num_arcs);
    println!("max degree    {}", s.max_degree);
    println!("avg degree    {:.2}", s.avg_degree);
    println!("weight range  [{}, {}]", s.weight_range.0, s.weight_range.1);
    println!("memory        {} bytes", s.memory_bytes);
    println!("components    {}", cc.num_components);
    println!("largest comp  {} vertices", cc.sizes[cc.largest() as usize]);
    Ok(())
}

/// Observability settings shared by batch solve and the repl: tracing
/// when the user asked for a timeline or an analysis, metrics when a
/// machine-readable report (which embeds latency quantiles) was
/// requested.
fn observability_config(flags: &HashMap<String, String>) -> (TraceConfig, MetricsConfig) {
    let trace = if flags.contains_key("trace") || flags.contains_key("analyze") {
        TraceConfig::ring()
    } else {
        TraceConfig::Off
    };
    let metrics = if flags.contains_key("report") {
        MetricsConfig::On
    } else {
        MetricsConfig::Off
    };
    (trace, metrics)
}

/// Writes the `--trace`/`--report` artifacts and prints the `--analyze`
/// readout for one solve — the shared back half of `solve` and the
/// repl's `solve` command.
fn write_solve_artifacts(
    report: &SolveReport,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    if let Some(path) = flags.get("trace") {
        std::fs::write(path, report.trace.to_chrome_trace())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path} (open in Perfetto / chrome://tracing)");
    }
    if let Some(path) = flags.get("report") {
        std::fs::write(path, report.run_report().to_json().to_pretty())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if flags.contains_key("analyze") {
        let analysis = stanalyze::analyze(&stanalyze::model_from_dump(&report.trace));
        print!("{}", analysis.render_text());
        analysis.verify()?;
    }
    Ok(())
}

/// Parses `--queue` into a discipline.
fn queue_kind(flags: &HashMap<String, String>) -> Result<QueueKind, String> {
    match flags.get("queue").map(String::as_str) {
        None | Some("priority") => Ok(QueueKind::Priority),
        Some("fifo") => Ok(QueueKind::Fifo),
        Some(other) => Err(format!("unknown queue {other:?}")),
    }
}

/// Checkpoint restores the supervisor may attempt: none under
/// `--no-recover`, so an injected crash fails the solve.
fn restore_budget(flags: &HashMap<String, String>) -> usize {
    if flags.contains_key("no-recover") {
        0
    } else {
        SolverConfig::default().max_restores
    }
}

/// Parses `--mst` into the MST pipeline choice.
fn mst_mode(flags: &HashMap<String, String>) -> Result<MstMode, String> {
    match flags.get("mst").map(String::as_str) {
        None | Some("dist") => Ok(MstMode::Dist),
        Some("replicated") => Ok(MstMode::Replicated),
        Some(other) => Err(format!(
            "unknown mst mode {other:?} (want `replicated` or `dist`)"
        )),
    }
}

/// The distributed solver's config from the flags batch solve and the
/// repl share (batch solve adds `--refine`).
fn solver_config(flags: &HashMap<String, String>) -> Result<SolverConfig, String> {
    let (trace, metrics) = observability_config(flags);
    Ok(SolverConfig {
        num_ranks: rank_count(flags)?,
        queue: queue_kind(flags)?,
        mst_mode: mst_mode(flags)?,
        trace,
        metrics,
        faults: fault_plan(flags)?,
        deadline: deadline(flags)?,
        max_restores: restore_budget(flags),
        ..SolverConfig::default()
    })
}

fn cmd_solve(flags: &HashMap<String, String>) -> Result<(), String> {
    let g = load_graph(flags)?;
    let seeds = seeds_from_flags(&g, flags)?;
    let config = SolverConfig {
        refine: flags.contains_key("refine"),
        ..solver_config(flags)?
    };
    let t = Instant::now();
    let report = solve(&g, &seeds, &config).map_err(|e| e.to_string())?;
    let wall = t.elapsed();
    let mut tree = report.tree.clone();

    let improve_rounds = flag_num(flags, "improve", 0)? as usize;
    if improve_rounds > 0 {
        let improved = baselines::key_path_improve(&g, &tree, improve_rounds);
        println!(
            "key-path improvement: {} exchanges saved {}",
            improved.exchanges, improved.saved
        );
        tree = improved.tree;
    }

    println!("seeds          {}", seeds.len());
    println!("tree edges     {}", tree.num_edges());
    println!("total distance {}", tree.total_distance());
    println!("steiner verts  {}", tree.steiner_vertices().len());
    println!("wall time      {wall:?}");
    println!(
        "phase breakdown (max across {} ranks; wait per rank):",
        config.num_ranks
    );
    for (phase, time) in report.phase_times.iter() {
        let waits: Vec<String> = (report.rank_phase_wait.iter())
            .map(|w| format!("{:.3}", w[phase].as_secs_f64() * 1e3))
            .collect();
        println!(
            "  {:<16} {:<14} wait ms [{}]",
            phase.name(),
            format!("{time:?}"),
            waits.join(" ")
        );
    }
    if let Some(stats) = &report.boruvka {
        println!(
            "boruvka        {} round(s), {} edge(s) reduced, components {:?}",
            stats.rounds,
            stats.edges_reduced_total(),
            stats.components
        );
    }
    if config.faults.is_some_and(|pl| pl.is_active()) {
        let fs = report.fault_stats;
        println!(
            "faults injected  {} drops, {} dups, {} delays, {} stalls",
            fs.drops, fs.dups, fs.delays, fs.stalls
        );
        println!(
            "faults recovered {} retransmits, {} dedup discards, {} acks",
            fs.retransmits, fs.dedup_discards, fs.acks
        );
    }
    if report.recovery.crashes_injected > 0 || report.recovery.restores > 0 {
        let rc = report.recovery;
        println!(
            "recovery         {} crash(es), {} restore(s), {} phase(s) replayed \
             ({} checkpoints, {} bytes peak)",
            rc.crashes_injected,
            rc.restores,
            rc.replayed_phases,
            rc.checkpoints_taken,
            rc.checkpoint_bytes
        );
    }
    write_solve_artifacts(&report, flags)?;
    if let Some(dot) = flags.get("dot") {
        std::fs::write(dot, tree.to_dot()).map_err(|e| format!("writing {dot}: {e}"))?;
        println!("wrote {dot}");
    }
    if let Some(out) = flags.get("out") {
        std::fs::write(out, tree.to_text()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    tree.validate(&g)
        .map_err(|e| format!("internal: invalid tree: {e}"))?;
    Ok(())
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let g = load_graph(flags)?;
    let seeds = seeds_from_flags(&g, flags)?;
    println!(
        "{:<22} {:>12} {:>10} {:>12}",
        "algorithm", "distance", "edges", "time"
    );
    let run = |name: &str, f: &dyn Fn() -> Result<stgraph::SteinerTree, String>| {
        let t = Instant::now();
        match f() {
            Ok(tree) => println!(
                "{name:<22} {:>12} {:>10} {:>12?}",
                tree.total_distance(),
                tree.num_edges(),
                t.elapsed()
            ),
            Err(e) => println!("{name:<22} failed: {e}"),
        }
    };
    run("takahashi", &|| {
        takahashi(&g, &seeds).map_err(|e| e.to_string())
    });
    run("kmb", &|| kmb(&g, &seeds).map_err(|e| e.to_string()));
    run("www", &|| www(&g, &seeds).map_err(|e| e.to_string()));
    run("mehlhorn", &|| {
        mehlhorn(&g, &seeds).map_err(|e| e.to_string())
    });
    let cfg = SolverConfig {
        num_ranks: rank_count(flags)?,
        ..SolverConfig::default()
    };
    run("distributed", &|| {
        solve(&g, &seeds, &cfg)
            .map(|r| r.tree)
            .map_err(|e| e.to_string())
    });
    run("distributed+refine", &|| {
        solve(
            &g,
            &seeds,
            &SolverConfig {
                refine: true,
                ..cfg
            },
        )
        .map(|r| r.tree)
        .map_err(|e| e.to_string())
    });
    if seeds.len() <= 10 {
        run("exact (dreyfus-wagner)", &|| {
            baselines::dreyfus_wagner(&g, &seeds).map_err(|e| e.to_string())
        });
    } else {
        match baselines::steiner_lower_bound(&g, &seeds) {
            Ok(lb) => println!("{:<22} {lb:>12} (certified lower bound)", "optimum >="),
            Err(e) => println!("lower bound failed: {e}"),
        }
    }
    Ok(())
}

/// Solves the REPL's current seed set on its once-partitioned graph: the
/// one path behind `tree`, `dot` and `solve`. Returns the report and the
/// solve's wall time.
fn repl_solve(
    pg: &PartitionedGraph,
    seeds: &BTreeSet<Vertex>,
    config: &SolverConfig,
) -> Result<(SolveReport, Duration), String> {
    let seeds: Vec<Vertex> = seeds.iter().copied().collect();
    let t = Instant::now();
    let report = solve_partitioned(pg, &seeds, config).map_err(|e| e.to_string())?;
    Ok((report, t.elapsed()))
}

/// Rejects a seed outside the graph's vertex range at edit time.
fn check_seed(g: &CsrGraph, v: Vertex) -> Result<Vertex, String> {
    if (v as usize) < g.num_vertices() {
        Ok(v)
    } else {
        Err(SteinerError::SeedOutOfRange(v).to_string())
    }
}

fn cmd_repl(flags: &HashMap<String, String>) -> Result<(), String> {
    let g = load_graph(flags)?;
    let mut seeds = BTreeSet::new();
    if flags.contains_key("seeds") || flags.contains_key("select") {
        for v in seeds_from_flags(&g, flags)? {
            seeds.insert(check_seed(&g, v)?);
        }
    }
    let config = solver_config(flags)?;
    let pg = partition_graph(&g, config.num_ranks, config.delegate_threshold);
    println!(
        "interactive session: {} vertices, {} edges, {} seeds; type `help`",
        g.num_vertices(),
        g.num_edges(),
        seeds.len()
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        use std::io::BufRead;
        if stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            break; // EOF
        }
        let mut it = line.split_whitespace();
        let Some(cmd) = it.next() else { continue };
        let outcome = match cmd {
            "quit" | "exit" => break,
            "help" => {
                println!("commands: add V | remove V | seeds | tree | solve | dot FILE | quit");
                Ok(())
            }
            "seeds" => {
                println!("{:?}", seeds.iter().collect::<Vec<_>>());
                Ok(())
            }
            "add" | "remove" => match it.next().and_then(|t| t.parse::<Vertex>().ok()) {
                None => Err(format!("{cmd} needs a vertex id")),
                Some(v) if cmd == "add" => check_seed(&g, v).map(|v| {
                    seeds.insert(v);
                    println!("add {v}: {} seeds", seeds.len());
                }),
                Some(v) => {
                    seeds.remove(&v);
                    println!("remove {v}: {} seeds", seeds.len());
                    Ok(())
                }
            },
            "tree" => repl_solve(&pg, &seeds, &config).map(|(report, elapsed)| {
                let m = report.tree.metrics();
                println!(
                    "tree: distance {} | {} edges | {} steiner vertices | \
                     diameter {} | built in {elapsed:?}",
                    m.total_distance, m.num_edges, m.steiner_vertices, m.weighted_diameter,
                );
            }),
            "solve" => repl_solve(&pg, &seeds, &config).and_then(|(report, elapsed)| {
                println!(
                    "distributed solve: distance {} | {} edges | {} ranks | {elapsed:?}",
                    report.tree.total_distance(),
                    report.tree.num_edges(),
                    config.num_ranks,
                );
                write_solve_artifacts(&report, flags)
            }),
            "dot" => match it.next() {
                None => Err("dot needs a file path".into()),
                Some(path) => repl_solve(&pg, &seeds, &config)
                    .and_then(|(report, _)| {
                        std::fs::write(path, report.tree.to_dot()).map_err(|e| e.to_string())
                    })
                    .map(|()| println!("wrote {path}")),
            },
            other => Err(format!("unknown command {other:?} (try `help`)")),
        };
        if let Err(e) = outcome {
            println!("error: {e}");
        }
    }
    Ok(())
}
