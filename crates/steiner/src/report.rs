//! Machine-readable run reports with a stable JSON schema.
//!
//! A [`RunReport`] condenses one [`crate::SolveReport`] into the numbers
//! the paper's evaluation plots (Figs 3–8): per-phase wall-clock,
//! per-phase message counters, memory peaks, the simulated-speedup work
//! metric, tree quality, and a fingerprint of the configuration that
//! produced it. [`RunReport::to_json`] renders it with
//! [`stgraph::json`]; every bench binary writes one report file
//! (`BENCH_<name>.json`) per run so the perf trajectory is diffable
//! across commits.
//!
//! ## Schema stability
//!
//! The JSON layout is a compatibility contract, validated by
//! `cargo run -p xtask -- check-reports` in CI:
//!
//! - [`SCHEMA_VERSION`] is bumped on any breaking change (key removal or
//!   meaning change); adding keys is non-breaking.
//! - Keys are emitted in a fixed order (insertion-ordered objects), so
//!   byte-level diffs of two reports line up.
//! - Durations are integer microseconds (`*_us`), sizes integer bytes.

use crate::phases::{Phase, PhaseTimes};
use crate::{SolveReport, SolverConfig};
use stgraph::json::Json;
use struntime::{QueueKind, TraceDump, TraceEventKind};

/// Version of the report JSON layout; see the module docs for the
/// stability rules.
///
/// **v1 → v2**: adds `imbalance_ratio` (always a number),
/// `critical_path` and `latency_quantiles` (objects when the solve ran
/// with tracing/metrics enabled, `null` otherwise). No v1 key was
/// removed or renamed; v2 is a strict superset. The bump is still
/// breaking for consumers because v1 readers would silently miss the
/// observability fields newer tooling keys on.
///
/// **v2 → v3**: adds the `faults` object (injection and
/// reliability-protocol counters: `drops`, `dups`, `delays`, `stalls`,
/// `retransmits`, `dedup_discards`, `acks`, and a solve-level `retries`
/// counter since removed in v8 — all-zero for a fault-free run) and
/// `config.faults` (the fault-plan spec string, or `"off"`). Again a strict superset of the previous version, and again
/// breaking: v2 readers comparing reports across runs would silently
/// treat a faulted run as comparable to a fault-free one.
///
/// **v3 → v4**: adds the `stale_drops` object (`total` plus `per_rank`,
/// counting Voronoi relaxations the ordered queue disciplines dropped
/// unvisited at pop time) and the `"bucketed:DELTA"` form of
/// `config.queue` (no longer emitted: the bucket width is now derived
/// from the graph, not configured). Strict superset once more, and breaking for the same
/// reason: v3 readers comparing visit counts across disciplines would
/// silently miss that part of the work was filtered, not performed.
///
/// **v4 → v5**: adds `timeseries` (a per-rank columnar gauge time
/// series from a sampler of its own, since removed in v11, `null` when
/// the solve ran without it) and `peak_memory` (per-phase peak-memory
/// watermarks attributing the high-water mark to queue vs arena vs
/// reliability buffers, `null` likewise). Strict superset, and breaking for the
/// usual reason: v4 readers diffing memory across runs would silently
/// miss that the peaks are now attributable per phase.
///
/// **v5 → v6**: adds the `recovery` object (`crashes_injected`,
/// `checkpoints_taken`, `checkpoint_bytes`, `restores`,
/// `replayed_phases`, `aborted_ranks` — all-zero for an undisturbed
/// solve; see [`crate::recovery`]). Strict superset, and breaking for
/// the usual reason: v5 readers comparing phase times or work counters
/// across runs would silently treat a crashed-and-replayed solve as
/// comparable to an undisturbed one.
///
/// **v6 → v7**: adds `config.mst_mode` (`"replicated"` or `"dist"`) and
/// the `boruvka` object (`rounds`, `edges_reduced` per round,
/// `components` remaining per round — `null` for replicated solves; see
/// [`crate::boruvka`]). Strict superset, and breaking for the usual
/// reason: v6 readers diffing `global_min_edge`/`mst` phase times or
/// collective bytes across runs would silently compare the dense
/// `Allreduce(MIN)` pipeline against the Borůvka rounds as if they were
/// the same work.
///
/// **v7 → v8**: removes `config.reduce_mode` (the sparse and chunked
/// reductions are gone: `config.mst_mode` alone now names the pipeline,
/// `"replicated"` being the one-shot dense reduce) and `faults.retries`
/// (the solve-level retry loop is gone), and the default `mst_mode`
/// becomes `"dist"`. Breaking by definition — two keys were removed.
///
/// **v8 → v9**: adds the `pruned_at_push` object (`total` plus
/// `per_rank`, counting Voronoi relaxations the ordered disciplines
/// resolved by a label comparison before they were pushed). These used
/// to be queued and dropped at admission, so part of what v8 counted in
/// `stale_drops` moved here. `stale_drops` keeps its meaning (relaxations
/// that reached a queue and were dropped unvisited), but a v8 reader
/// comparing it across versions would silently see the filtered work
/// vanish.
///
/// **v9 → v10**: adds the `sync_points` object (`barriers`, every rank
/// barrier a rank crossed including those inside collectives and
/// traversal fences, and `collectives`, its collective calls). Ranks
/// cross them in lockstep, so the counts are deterministic. Strict
/// superset, and breaking for the usual reason: a v9 reader comparing
/// small-solve times across runs would silently miss how many sync
/// points each solve paid for.
///
/// **v10 → v11**: removes `timeseries`: the runtime has one event ring,
/// the trace, and its counter events replace the gauge sampler. The four
/// `peak_memory` keys stay and now come from the trace's counters inside
/// each phase span, so `peak_memory` is an object exactly when the solve
/// was traced (it was `null` for a traced solve before). Breaking by
/// definition — a key was removed.
///
/// **v11 → v12**: adds `rank_phase_times_us` and `rank_phase_wait_us`,
/// one `{phase: microseconds}` object per rank: each rank's own phase
/// times, and the part of each it spent blocked in barriers (collectives
/// included) or in a traversal's idle set. A rank's busy time in a phase
/// is the difference. Strict superset, and breaking for the usual
/// reason: a v11 reader would read `phase_times_us`, the maximum over
/// ranks, as work when it can be one rank waiting for another.
///
/// **v12 → v13**: adds the `admission_drops` and `pop_drops` objects
/// (`total` plus `per_rank`), which split `stale_drops`: Voronoi
/// relaxations dropped as they arrived from another rank, and queued
/// vertex entries dropped at pop because their label had been expanded
/// already. `stale_drops` stays their sum. Strict superset, and breaking
/// for the usual reason: a v12 reader would read a move between the two
/// halves as no change at all.
pub const SCHEMA_VERSION: u64 = 13;

/// The configuration a solve ran with, reduced to plain strings and
/// numbers for the report.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigFingerprint {
    /// Simulated rank count.
    pub num_ranks: usize,
    /// Queue discipline (`"fifo"`, `"priority"`, `"adversarial:SEED"`).
    pub queue: String,
    /// Delegate degree threshold, if delegation was on.
    pub delegate_threshold: Option<usize>,
    /// MST pipeline (`"dist"` Borůvka or `"replicated"` dense reduce plus
    /// Prim; v7).
    pub mst_mode: String,
    /// Whether KMB steps 4–5 refinement ran.
    pub refine: bool,
    /// Visitors per aggregated network batch: the runtime's fixed
    /// [`struntime::traversal::DEFAULT_BATCH_SIZE`].
    pub batch_size: usize,
    /// Fault-plan spec (`"drop=0.1,seed=7"` style, see
    /// [`struntime::faults::FaultPlan::from_spec`]), or `"off"`.
    pub faults: String,
}

impl ConfigFingerprint {
    /// Derives the fingerprint from a solver configuration.
    pub fn of(config: &SolverConfig) -> ConfigFingerprint {
        let queue = match config.queue {
            QueueKind::Fifo => "fifo".to_string(),
            QueueKind::Priority => "priority".to_string(),
            QueueKind::Adversarial { seed } => format!("adversarial:{seed}"),
        };
        let mst_mode = match config.mst_mode {
            crate::MstMode::Replicated => "replicated".to_string(),
            crate::MstMode::Dist => "dist".to_string(),
        };
        let faults = match config.faults.filter(|pl| pl.is_active()) {
            Some(plan) => plan.to_spec(),
            None => "off".to_string(),
        };
        ConfigFingerprint {
            num_ranks: config.num_ranks,
            queue,
            delegate_threshold: config.delegate_threshold,
            mst_mode,
            refine: config.refine,
            batch_size: struntime::traversal::DEFAULT_BATCH_SIZE,
            faults,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("num_ranks", self.num_ranks)
            .with("queue", self.queue.as_str())
            .with("delegate_threshold", self.delegate_threshold)
            .with("mst_mode", self.mst_mode.as_str())
            .with("refine", self.refine)
            .with("batch_size", self.batch_size)
            .with("faults", self.faults.as_str())
    }
}

/// One phase's counters in the report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Messages that crossed a (simulated) network hop.
    pub remote_msgs: u64,
    /// Messages delivered within their own rank.
    pub local_msgs: u64,
    /// Bytes that crossed the network.
    pub remote_bytes: u64,
    /// Aggregated network batches shipped.
    pub remote_batches: u64,
}

/// Headline numbers of the causality-DAG analysis (see `stanalyze`),
/// present when the solve ran with tracing enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CriticalPathSummary {
    /// Dependent visits on the longest lineage chain.
    pub visits: u64,
    /// Wall-clock span of that chain, microseconds.
    pub span_us: u64,
    /// Total visits in the trace (the chain's denominator).
    pub total_visits: u64,
    /// Whether the causality graph verified acyclic.
    pub acyclic: bool,
}

impl CriticalPathSummary {
    fn to_json(self) -> Json {
        Json::obj()
            .with("visits", self.visits)
            .with("span_us", self.span_us)
            .with("total_visits", self.total_visits)
            .with("acyclic", self.acyclic)
    }
}

/// The unified machine-readable summary of one solve.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Fingerprint of the configuration the solve ran with.
    pub config: ConfigFingerprint,
    /// `(phase name, microseconds)` in execution order — barrier-bound
    /// max across ranks, like [`SolveReport::phase_times`].
    pub phase_times_us: Vec<(&'static str, u64)>,
    /// Per rank, its own phase times in microseconds, in the order of
    /// `phase_times_us` (v12).
    pub rank_phase_times_us: Vec<Vec<u64>>,
    /// Per rank, the part of each phase it spent blocked, microseconds
    /// (v12; [`SolveReport::rank_phase_wait`]).
    pub rank_phase_wait_us: Vec<Vec<u64>>,
    /// Sum of phase maxima, microseconds (the time-to-solution metric).
    pub total_time_us: u64,
    /// Cluster-wide per-phase message counters, keyed by phase label.
    pub message_counts: Vec<(&'static str, PhaseCounters)>,
    /// Bytes of the partitioned graph across all ranks (Fig 8 "graph").
    pub graph_bytes: usize,
    /// Peak algorithm-state bytes across all ranks (Fig 8 "states").
    pub state_peak_bytes: usize,
    /// Edges in the reduced distance graph `G_1'` (chosen bridges under
    /// `mst_mode = "dist"`, see [`SolveReport::distance_graph_edges`]).
    pub distance_graph_edges: usize,
    /// Visitors processed per rank (the work metric behind speedup).
    pub rank_work: Vec<u64>,
    /// Voronoi relaxations per rank that never became visits, dropped by
    /// the priority discipline's stale filter at queue admission or at pop
    /// (v4; all-zero under FIFO/adversarial queues).
    pub stale_drops: Vec<u64>,
    /// The admission half of `stale_drops` (v13).
    pub admission_drops: Vec<u64>,
    /// The pop half of `stale_drops` (v13).
    pub pop_drops: Vec<u64>,
    /// Voronoi relaxations per rank the priority discipline pruned before
    /// they were pushed (v9; all-zero under FIFO/adversarial queues).
    pub pruned_at_push: Vec<u64>,
    /// Barriers and collective calls per rank (v10; the same on every
    /// rank).
    pub sync_points: struntime::SyncPoints,
    /// Work-based simulated speedup (Fig 3's scaling metric).
    pub simulated_speedup: f64,
    /// Most-loaded rank's work divided by the mean — 1.0 is perfectly
    /// balanced, `num_ranks` is one rank doing everything.
    pub imbalance_ratio: f64,
    /// Causality-DAG headline numbers; `None` when the solve ran
    /// without tracing.
    pub critical_path: Option<CriticalPathSummary>,
    /// `{phase: {metric: {p50, p90, p99, count}}}` quantiles from the
    /// latency histograms; `None` when the solve ran without metrics.
    pub latency_quantiles: Option<Json>,
    /// Fault-injection and reliability-protocol counters; all-zero for a
    /// fault-free run (the v3 schema always emits the object).
    pub fault_stats: struntime::FaultSnapshot,
    /// Per-phase peak-memory watermarks with attribution, from the
    /// trace's counters (`null` when the solve ran untraced; v5, from the
    /// trace since v11).
    pub peak_memory: Option<Json>,
    /// Crash-recovery counters (v6; all-zero for an undisturbed solve).
    pub recovery: crate::RecoveryStats,
    /// Borůvka round counters (v7; `None` for replicated solves, which
    /// render as `null`).
    pub boruvka: Option<crate::BoruvkaStats>,
    /// Number of seed (terminal) vertices in the tree.
    pub tree_num_seeds: usize,
    /// Number of edges in the tree.
    pub tree_num_edges: usize,
    /// Total tree weight `D(G_S)`.
    pub tree_total_distance: u64,
}

impl RunReport {
    /// Renders the report to JSON (see the module docs for the schema
    /// stability rules). Top-level keys: `schema_version`, `config`,
    /// `phase_times_us`, `rank_phase_times_us`, `rank_phase_wait_us`,
    /// `total_time_us`, `message_counts`,
    /// `graph_bytes`, `state_peak_bytes`, `distance_graph_edges`,
    /// `rank_work`, `stale_drops`, `admission_drops`, `pop_drops`,
    /// `pruned_at_push`, `sync_points`,
    /// `simulated_speedup`, `imbalance_ratio`, `critical_path`,
    /// `latency_quantiles`, `faults`, `peak_memory`,
    /// `recovery`, `boruvka`, `tree`.
    pub fn to_json(&self) -> Json {
        let mut phase_times = Json::obj();
        for &(name, us) in &self.phase_times_us {
            phase_times.insert(name, us);
        }
        // One `{phase: us}` object per rank, keyed like `phase_times_us`.
        let per_rank_phases = |ranks: &[Vec<u64>]| {
            let phase_obj = |times: &Vec<u64>| {
                let mut obj = Json::obj();
                for (&(name, _), &us) in self.phase_times_us.iter().zip(times) {
                    obj.insert(name, us);
                }
                obj
            };
            Json::Arr(ranks.iter().map(phase_obj).collect())
        };
        let mut counts = Json::obj();
        for &(name, c) in &self.message_counts {
            counts.insert(
                name,
                Json::obj()
                    .with("remote_msgs", c.remote_msgs)
                    .with("local_msgs", c.local_msgs)
                    .with("remote_bytes", c.remote_bytes)
                    .with("remote_batches", c.remote_batches),
            );
        }
        Json::obj()
            .with("schema_version", SCHEMA_VERSION)
            .with("config", self.config.to_json())
            .with("phase_times_us", phase_times)
            .with(
                "rank_phase_times_us",
                per_rank_phases(&self.rank_phase_times_us),
            )
            .with(
                "rank_phase_wait_us",
                per_rank_phases(&self.rank_phase_wait_us),
            )
            .with("total_time_us", self.total_time_us)
            .with("message_counts", counts)
            .with("graph_bytes", self.graph_bytes)
            .with("state_peak_bytes", self.state_peak_bytes)
            .with("distance_graph_edges", self.distance_graph_edges)
            .with(
                "rank_work",
                Json::Arr(self.rank_work.iter().map(|&w| Json::from(w)).collect()),
            )
            .with("stale_drops", per_rank_json(&self.stale_drops))
            .with("admission_drops", per_rank_json(&self.admission_drops))
            .with("pop_drops", per_rank_json(&self.pop_drops))
            .with("pruned_at_push", per_rank_json(&self.pruned_at_push))
            .with(
                "sync_points",
                Json::obj()
                    .with("barriers", self.sync_points.barriers)
                    .with("collectives", self.sync_points.collectives),
            )
            .with("simulated_speedup", self.simulated_speedup)
            .with("imbalance_ratio", self.imbalance_ratio)
            .with(
                "critical_path",
                self.critical_path.map(CriticalPathSummary::to_json),
            )
            .with(
                "latency_quantiles",
                self.latency_quantiles.clone().unwrap_or(Json::Null),
            )
            .with(
                "faults",
                Json::obj()
                    .with("drops", self.fault_stats.drops)
                    .with("dups", self.fault_stats.dups)
                    .with("delays", self.fault_stats.delays)
                    .with("stalls", self.fault_stats.stalls)
                    .with("retransmits", self.fault_stats.retransmits)
                    .with("dedup_discards", self.fault_stats.dedup_discards)
                    .with("acks", self.fault_stats.acks),
            )
            .with(
                "peak_memory",
                self.peak_memory.clone().unwrap_or(Json::Null),
            )
            .with(
                "recovery",
                Json::obj()
                    .with("crashes_injected", self.recovery.crashes_injected)
                    .with("checkpoints_taken", self.recovery.checkpoints_taken)
                    .with("checkpoint_bytes", self.recovery.checkpoint_bytes)
                    .with("restores", self.recovery.restores)
                    .with("replayed_phases", self.recovery.replayed_phases)
                    .with("aborted_ranks", self.recovery.aborted_ranks),
            )
            .with(
                "boruvka",
                match &self.boruvka {
                    None => Json::Null,
                    Some(b) => Json::obj()
                        .with("rounds", b.rounds)
                        .with(
                            "edges_reduced",
                            Json::Arr(b.edges_reduced.iter().map(|&n| Json::from(n)).collect()),
                        )
                        .with(
                            "components",
                            Json::Arr(b.components.iter().map(|&n| Json::from(n)).collect()),
                        ),
                },
            )
            .with(
                "tree",
                Json::obj()
                    .with("num_seeds", self.tree_num_seeds)
                    .with("num_edges", self.tree_num_edges)
                    .with("total_distance", self.tree_total_distance),
            )
    }
}

/// A per-rank counter as `{"total": sum, "per_rank": [...]}`.
fn per_rank_json(per_rank: &[u64]) -> Json {
    Json::obj()
        .with("total", per_rank.iter().sum::<u64>())
        .with(
            "per_rank",
            Json::Arr(per_rank.iter().map(|&d| Json::from(d)).collect()),
        )
}

/// The counters behind each `peak_memory` key, in key order.
const PEAK_COUNTERS: [(&str, &str); 4] = [
    ("queue_bytes", "queue_bytes"),
    ("arena_bytes", "arena_bytes"),
    ("reliability_bytes", "reliability_bytes"),
    ("total_bytes", "mem_total_bytes"),
];

/// Renders the per-phase peak-memory watermarks from a trace: one object
/// per phase span (keyed by phase name), attributing the peak to
/// `queue_bytes` (visitor queue), `arena_bytes` (scratch arena),
/// `reliability_bytes` (unacked retransmission buffers) and the rank's
/// tracked `total_bytes`. A phase's peak is the maximum over ranks of
/// each counter's samples inside the rank's span of that phase, plus the
/// value the counter held when the span opened (a counter holds its value
/// until the next sample).
pub fn peak_memory_json(trace: &TraceDump) -> Json {
    let mut peaks: Vec<(&'static str, [u64; 4])> = Vec::new();
    for rt in &trace.ranks {
        let mut held = [0u64; 4];
        let mut open: Option<usize> = None;
        for ev in &rt.events {
            match ev.kind {
                TraceEventKind::SpanBegin if Phase::ALL.iter().any(|p| p.name() == ev.name) => {
                    let i = match peaks.iter().position(|(name, _)| *name == ev.name) {
                        Some(i) => i,
                        None => {
                            peaks.push((ev.name, [0; 4]));
                            peaks.len() - 1
                        }
                    };
                    for (peak, v) in peaks[i].1.iter_mut().zip(held) {
                        *peak = (*peak).max(v);
                    }
                    open = Some(i);
                }
                TraceEventKind::SpanEnd if open.is_some_and(|i| peaks[i].0 == ev.name) => {
                    open = None;
                }
                TraceEventKind::Counter => {
                    if let Some(k) = PEAK_COUNTERS.iter().position(|c| c.1 == ev.name) {
                        held[k] = ev.arg;
                        if let Some(i) = open {
                            peaks[i].1[k] = peaks[i].1[k].max(ev.arg);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let mut out = Json::obj();
    for (phase, values) in peaks {
        let mut entry = Json::obj();
        for ((key, _), v) in PEAK_COUNTERS.iter().zip(values) {
            entry.insert(key, v);
        }
        out.insert(phase, entry);
    }
    out
}

impl SolveReport {
    /// Condenses this solve into its machine-readable [`RunReport`].
    ///
    /// When the solve ran with tracing, the causality DAG is analyzed
    /// here (via `stanalyze`) to fill `critical_path`; with metrics,
    /// histogram quantiles fill `latency_quantiles`. Both are `None`
    /// otherwise — the v2 schema keeps the keys, as `null`.
    pub fn run_report(&self) -> RunReport {
        let phase_times_us: Vec<(&'static str, u64)> = Phase::ALL
            .iter()
            .map(|&p| (p.name(), self.phase_times[p].as_micros() as u64))
            .collect();
        let per_rank_us = |ranks: &[PhaseTimes]| -> Vec<Vec<u64>> {
            (ranks.iter())
                .map(|t| Phase::ALL.map(|p| t[p].as_micros() as u64).to_vec())
                .collect()
        };
        let message_counts: Vec<(&'static str, PhaseCounters)> = self
            .message_counts
            .iter()
            .map(|(&name, snap)| {
                (
                    name,
                    PhaseCounters {
                        remote_msgs: snap.remote_msgs,
                        local_msgs: snap.local_msgs,
                        remote_bytes: snap.remote_bytes,
                        remote_batches: snap.remote_batches,
                    },
                )
            })
            .collect();
        let critical_path = if self.trace.is_empty() {
            None
        } else {
            let analysis = stanalyze::analyze(&stanalyze::model_from_dump(&self.trace));
            Some(CriticalPathSummary {
                visits: analysis.critical_path.visits,
                span_us: analysis.critical_path.span_us,
                total_visits: analysis.total_visits,
                acyclic: analysis.acyclic,
            })
        };
        let latency_quantiles = if self.metrics.is_empty() {
            None
        } else {
            Some(self.metrics.quantiles_json())
        };
        let peak_memory = (!self.trace.is_empty()).then(|| peak_memory_json(&self.trace));
        let total_work: u64 = self.rank_work.iter().sum();
        let max_work = self.rank_work.iter().copied().max().unwrap_or(0);
        let imbalance_ratio = if total_work == 0 || self.rank_work.is_empty() {
            1.0
        } else {
            max_work as f64 * self.rank_work.len() as f64 / total_work as f64
        };
        RunReport {
            config: ConfigFingerprint::of(&self.config),
            phase_times_us,
            rank_phase_times_us: per_rank_us(&self.rank_phase_times),
            rank_phase_wait_us: per_rank_us(&self.rank_phase_wait),
            total_time_us: self.time_to_solution().as_micros() as u64,
            message_counts,
            graph_bytes: self.graph_bytes,
            state_peak_bytes: self.state_peak_bytes,
            distance_graph_edges: self.distance_graph_edges,
            rank_work: self.rank_work.clone(),
            stale_drops: self.stale_drops.clone(),
            admission_drops: self.admission_drops.clone(),
            pop_drops: self.pop_drops.clone(),
            pruned_at_push: self.pruned_at_push.clone(),
            sync_points: self.sync_points,
            simulated_speedup: self.simulated_speedup(),
            imbalance_ratio,
            critical_path,
            latency_quantiles,
            fault_stats: self.fault_stats,
            peak_memory,
            recovery: self.recovery,
            boruvka: self.boruvka.clone(),
            tree_num_seeds: self.tree.seeds.len(),
            tree_num_edges: self.tree.num_edges(),
            tree_total_distance: self.tree.total_distance(),
        }
    }
}

/// Validates one `RunReport` JSON document against the current schema.
/// This is the single definition of the current contract — the bench
/// envelope validator and `xtask check-reports` both call it — kept
/// next to the writer ([`RunReport::to_json`]) so the two cannot drift.
/// Historical versions are rejected with a pointer to [`SCHEMA_VERSION`]'s
/// version history.
pub fn validate_run(run: &Json) -> Result<(), String> {
    match run.get("schema_version").and_then(|v| v.as_u64()) {
        Some(v) if v == SCHEMA_VERSION => {}
        Some(found) if (1..SCHEMA_VERSION).contains(&found) => {
            return Err(format!(
                "schema_version {found} report found; this build reads v{SCHEMA_VERSION} \
                 — regenerate the report with current binaries (version history, \
                 including when the faults, stale_drops, peak_memory, recovery, \
                 boruvka, pruned_at_push, sync_points, per-rank phase and drop-split \
                 sections were added and timeseries removed: report::SCHEMA_VERSION docs)"
            ));
        }
        _ => {
            return Err(format!("schema_version must be {SCHEMA_VERSION}"));
        }
    }
    let config = run.get("config").ok_or("missing config")?;
    config
        .get("num_ranks")
        .and_then(|v| v.as_u64())
        .filter(|&p| p >= 1)
        .ok_or("config.num_ranks must be a positive integer")?;
    config
        .get("queue")
        .and_then(|v| v.as_str())
        .ok_or("config.queue must be a string")?;
    config
        .get("mst_mode")
        .and_then(|v| v.as_str())
        .ok_or("config.mst_mode must be a string (\"replicated\" or \"dist\")")?;
    let phases = run.get("phase_times_us").ok_or("missing phase_times_us")?;
    for p in Phase::ALL {
        phases
            .get(p.name())
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("phase_times_us.{} must be integer microseconds", p.name()))?;
    }
    for key in ["rank_phase_times_us", "rank_phase_wait_us"] {
        let ranks = run
            .get(key)
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("{key} must be an array"))?;
        for (r, times) in ranks.iter().enumerate() {
            for p in Phase::ALL {
                times
                    .get(p.name())
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| {
                        format!("{key}[{r}].{} must be integer microseconds", p.name())
                    })?;
            }
        }
    }
    run.get("total_time_us")
        .and_then(|v| v.as_u64())
        .ok_or("total_time_us must be integer microseconds")?;
    run.get("message_counts")
        .and_then(|v| v.as_obj())
        .ok_or("message_counts must be an object")?;
    for key in ["graph_bytes", "state_peak_bytes", "distance_graph_edges"] {
        run.get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("{key} must be an integer"))?;
    }
    let work = run
        .get("rank_work")
        .and_then(|v| v.as_arr())
        .ok_or("rank_work must be an array")?;
    if work.iter().any(|w| w.as_u64().is_none()) {
        return Err("rank_work elements must be integers".to_string());
    }
    for key in [
        "stale_drops",
        "admission_drops",
        "pop_drops",
        "pruned_at_push",
    ] {
        let counter = run.get(key).ok_or_else(|| format!("missing {key}"))?;
        counter
            .get("total")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("{key}.total must be an integer"))?;
        let per_rank = counter
            .get("per_rank")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("{key}.per_rank must be an array"))?;
        if per_rank.iter().any(|w| w.as_u64().is_none()) {
            return Err(format!("{key}.per_rank elements must be integers"));
        }
    }
    let sync_points = run.get("sync_points").ok_or("missing sync_points")?;
    for key in ["barriers", "collectives"] {
        sync_points
            .get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("sync_points.{key} must be an integer"))?;
    }
    run.get("simulated_speedup")
        .and_then(|v| v.as_f64())
        .ok_or("simulated_speedup must be a number")?;
    run.get("imbalance_ratio")
        .and_then(|v| v.as_f64())
        .filter(|&r| r >= 1.0)
        .ok_or("imbalance_ratio must be a number >= 1.0")?;
    let cp = run.get("critical_path").ok_or("missing critical_path")?;
    if !cp.is_null() {
        for key in ["visits", "span_us", "total_visits"] {
            cp.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("critical_path.{key} must be an integer"))?;
        }
        cp.get("acyclic")
            .and_then(|v| v.as_bool())
            .ok_or("critical_path.acyclic must be a bool")?;
    }
    let lq = run
        .get("latency_quantiles")
        .ok_or("missing latency_quantiles")?;
    if !lq.is_null() && lq.as_obj().is_none() {
        return Err("latency_quantiles must be null or an object".to_string());
    }
    let faults = run.get("faults").ok_or("missing faults")?;
    for key in [
        "drops",
        "dups",
        "delays",
        "stalls",
        "retransmits",
        "dedup_discards",
        "acks",
    ] {
        faults
            .get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("faults.{key} must be an integer"))?;
    }
    config
        .get("faults")
        .and_then(|v| v.as_str())
        .ok_or("config.faults must be a string (a fault-plan spec or \"off\")")?;
    let pm = run.get("peak_memory").ok_or("missing peak_memory")?;
    if !pm.is_null() {
        let phases = pm.as_obj().ok_or("peak_memory must be null or an object")?;
        for (phase, peaks) in phases {
            for (key, _) in PEAK_COUNTERS {
                peaks
                    .get(key)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("peak_memory.{phase}.{key} must be an integer"))?;
            }
        }
    }
    let recovery = run.get("recovery").ok_or("missing recovery")?;
    for key in [
        "crashes_injected",
        "checkpoints_taken",
        "checkpoint_bytes",
        "restores",
        "replayed_phases",
        "aborted_ranks",
    ] {
        recovery
            .get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("recovery.{key} must be an integer"))?;
    }
    let boruvka = run.get("boruvka").ok_or("missing boruvka")?;
    if !boruvka.is_null() {
        boruvka
            .get("rounds")
            .and_then(|v| v.as_u64())
            .ok_or("boruvka.rounds must be an integer")?;
        for key in ["edges_reduced", "components"] {
            let col = boruvka
                .get(key)
                .and_then(|v| v.as_arr())
                .ok_or_else(|| format!("boruvka.{key} must be an array"))?;
            if col.iter().any(|n| n.as_u64().is_none()) {
                return Err(format!("boruvka.{key} elements must be integers"));
            }
        }
    }
    let tree = run.get("tree").ok_or("missing tree")?;
    for key in ["num_seeds", "num_edges", "total_distance"] {
        tree.get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("tree.{key} must be an integer"))?;
    }
    Ok(())
}

/// Validates a flight-recorder dump (`FLIGHT_<reason>_<n>.json`, written
/// by [`struntime::write_flight_dump`] when a solve panics, fails a
/// phase, trips the audit ledger or runs out of time): a Chrome trace
/// whose `struntime` object carries `flight = {reason, schema}` and one
/// `dropped` count per rank. Returns the number of ranks on success.
pub fn validate_flight(doc: &Json) -> Result<usize, String> {
    let meta = doc.get("struntime").ok_or("missing struntime object")?;
    let flight = meta.get("flight").ok_or("missing struntime.flight")?;
    let want = struntime::trace::FLIGHT_SCHEMA_VERSION;
    if flight.get("schema").and_then(|v| v.as_u64()) != Some(want) {
        return Err(format!("struntime.flight.schema must be {want}"));
    }
    flight
        .get("reason")
        .and_then(|v| v.as_str())
        .filter(|s| !s.is_empty())
        .ok_or("struntime.flight.reason must be a non-empty string")?;
    let dropped = meta
        .get("dropped")
        .and_then(|v| v.as_arr())
        .filter(|d| d.iter().all(|n| n.as_u64().is_some()))
        .ok_or("struntime.dropped must be an array of integers")?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("traceEvents must be an array")?;
    for (i, ev) in events.iter().enumerate() {
        ev.get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("traceEvents[{i}].ph must be a string"))?;
        let tid = ev
            .get("tid")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("traceEvents[{i}].tid must be an integer"))?;
        if tid as usize >= dropped.len().max(1) {
            return Err(format!(
                "traceEvents[{i}] is on rank {tid} of {}",
                dropped.len()
            ));
        }
    }
    Ok(dropped.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, MstMode, QueueKind};
    use stgraph::builder::GraphBuilder;
    use stgraph::csr::Vertex;

    fn sample_report() -> SolveReport {
        let mut b = GraphBuilder::new(8);
        for i in 0..7 {
            b.add_edge(i as Vertex, (i + 1) as Vertex, 2);
        }
        let g = b.build();
        let cfg = SolverConfig {
            num_ranks: 2,
            queue: QueueKind::Adversarial { seed: 99 },
            mst_mode: crate::MstMode::Replicated,
            ..SolverConfig::default()
        };
        solve(&g, &[0, 7], &cfg).unwrap()
    }

    #[test]
    fn fingerprint_encodes_config() {
        let fp = sample_report().run_report().config;
        assert_eq!(fp.num_ranks, 2);
        assert_eq!(fp.queue, "adversarial:99");
        assert_eq!(fp.mst_mode, "replicated");
        assert!(!fp.refine);
    }

    #[test]
    fn run_report_json_has_stable_shape() {
        let doc = sample_report().run_report().to_json();
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_u64()),
            Some(SCHEMA_VERSION)
        );
        let phases = doc.get("phase_times_us").expect("phase times");
        for p in Phase::ALL {
            assert!(
                phases.get(p.name()).and_then(|v| v.as_u64()).is_some(),
                "missing phase {}",
                p.name()
            );
        }
        let tree = doc.get("tree").expect("tree object");
        assert_eq!(tree.get("num_seeds").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(tree.get("num_edges").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(
            tree.get("total_distance").and_then(|v| v.as_u64()),
            Some(14)
        );
        assert_eq!(
            doc.get("rank_work")
                .and_then(|v| v.as_arr())
                .map(|a| a.len()),
            Some(2)
        );
        // Per rank and phase: a time, and a wait that is part of it.
        let per_rank = |key: &str| doc.get(key).and_then(|v| v.as_arr()).expect(key);
        let (times, waits) = (
            per_rank("rank_phase_times_us"),
            per_rank("rank_phase_wait_us"),
        );
        assert_eq!((times.len(), waits.len()), (2, 2));
        for (t, w) in times.iter().zip(waits) {
            for p in Phase::ALL {
                let us = |obj: &Json| obj.get(p.name()).and_then(|v| v.as_u64()).unwrap();
                assert!(
                    us(w) <= us(t),
                    "{}: wait {} > time {}",
                    p.name(),
                    us(w),
                    us(t)
                );
            }
        }
        assert!(doc
            .get("simulated_speedup")
            .and_then(|v| v.as_f64())
            .is_some());
        // Round-trips through the parser.
        let text = doc.to_pretty();
        assert_eq!(stgraph::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn v2_observability_fields_null_without_trace_or_metrics() {
        let report = sample_report().run_report();
        assert!(report.critical_path.is_none());
        assert!(report.latency_quantiles.is_none());
        assert!(report.imbalance_ratio >= 1.0);
        let doc = report.to_json();
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_u64()),
            Some(SCHEMA_VERSION)
        );
        assert!(doc.get("critical_path").expect("key present").is_null());
        assert!(doc.get("latency_quantiles").expect("key present").is_null());
        assert!(doc
            .get("imbalance_ratio")
            .and_then(|v| v.as_f64())
            .is_some());
    }

    #[test]
    fn v3_faults_object_zero_and_config_off_without_injection() {
        let report = sample_report().run_report();
        assert_eq!(report.config.faults, "off");
        assert_eq!(report.fault_stats, struntime::FaultSnapshot::default());
        let doc = report.to_json();
        let faults = doc.get("faults").expect("v3 emits the faults object");
        for key in [
            "drops",
            "dups",
            "delays",
            "stalls",
            "retransmits",
            "dedup_discards",
            "acks",
        ] {
            assert_eq!(
                faults.get(key).and_then(|v| v.as_u64()),
                Some(0),
                "fault counter {key} nonzero in a fault-free run"
            );
        }
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("faults"))
                .and_then(|v| v.as_str()),
            Some("off")
        );
    }

    #[test]
    fn v3_faults_object_counts_injection() {
        let mut b = GraphBuilder::new(8);
        for i in 0..7 {
            b.add_edge(i as Vertex, (i + 1) as Vertex, 2);
        }
        let g = b.build();
        let plan = struntime::FaultPlan::from_spec("drop=0.2,dup=0.1,seed=7").unwrap();
        let cfg = SolverConfig {
            num_ranks: 2,
            faults: Some(plan),
            ..SolverConfig::default()
        };
        let report = solve(&g, &[0, 7], &cfg).unwrap().run_report();
        assert_eq!(report.config.faults, plan.to_spec());
        assert!(
            report.fault_stats.injected() > 0,
            "an active plan over remote traffic should inject something"
        );
        let doc = report.to_json();
        let drops = doc
            .get("faults")
            .and_then(|f| f.get("drops"))
            .and_then(|v| v.as_u64())
            .unwrap();
        assert_eq!(drops, report.fault_stats.drops);
    }

    #[test]
    fn v2_observability_fields_populated_with_trace_and_metrics() {
        let mut b = GraphBuilder::new(8);
        for i in 0..7 {
            b.add_edge(i as Vertex, (i + 1) as Vertex, 2);
        }
        let g = b.build();
        let cfg = SolverConfig {
            num_ranks: 2,
            trace: struntime::TraceConfig::ring(),
            metrics: struntime::MetricsConfig::On,
            ..SolverConfig::default()
        };
        let report = solve(&g, &[0, 7], &cfg).unwrap().run_report();
        let cp = report
            .critical_path
            .expect("traced solve has critical path");
        assert!(cp.acyclic);
        assert!(cp.visits > 0);
        assert!(cp.visits <= cp.total_visits);
        let lq = report.latency_quantiles.clone().expect("metrics quantiles");
        // At least the voronoi traversal recorded visit-service samples.
        assert!(lq
            .get("voronoi")
            .and_then(|p| p.get("visit_service_us"))
            .and_then(|m| m.get("count"))
            .and_then(|c| c.as_u64())
            .is_some_and(|c| c > 0));
        // The JSON twin round-trips.
        let doc = report.to_json();
        let text = doc.to_pretty();
        assert_eq!(stgraph::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn v4_stale_drops_object_and_priority_fingerprint() {
        let mut b = GraphBuilder::new(8);
        for i in 0..7 {
            b.add_edge(i as Vertex, (i + 1) as Vertex, 2);
        }
        let g = b.build();
        let cfg = SolverConfig {
            num_ranks: 2,
            queue: QueueKind::Priority,
            ..SolverConfig::default()
        };
        let report = solve(&g, &[0, 7], &cfg).unwrap().run_report();
        assert_eq!(report.config.queue, "priority");
        assert_eq!(report.stale_drops.len(), 2);
        let doc = report.to_json();
        let sd = doc.get("stale_drops").expect("v4 emits stale_drops");
        assert_eq!(
            sd.get("total").and_then(|v| v.as_u64()),
            Some(report.stale_drops.iter().sum::<u64>())
        );
        assert_eq!(
            sd.get("per_rank").and_then(|v| v.as_arr()).map(|a| a.len()),
            Some(2)
        );
    }

    /// The trace's `stale_drops` counter and the report's `stale_drops`
    /// count the same drops (admission and pop alike): each rank's last
    /// sample carries its final value.
    #[test]
    fn trace_stale_drop_counter_matches_run_report() {
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(5);
        let seeds: Vec<Vertex> = (0..g.num_vertices() as Vertex).step_by(37).collect();
        let cfg = SolverConfig {
            num_ranks: 2,
            queue: QueueKind::Priority,
            trace: crate::TraceConfig::ring(),
            ..SolverConfig::default()
        };
        let solved = solve(&g, &seeds, &cfg).unwrap();
        assert_eq!(solved.trace.total_dropped(), 0);
        let per_rank: Vec<u64> = solved
            .trace
            .ranks
            .iter()
            .map(|r| {
                r.events
                    .iter()
                    .rev()
                    .find(|e| e.kind == TraceEventKind::Counter && e.name == "stale_drops")
                    .map(|e| e.arg)
                    .expect("boundary samples recorded")
            })
            .collect();
        let report = solved.run_report();
        assert!(per_rank.iter().sum::<u64>() > 0);
        assert_eq!(per_rank, report.stale_drops);
    }

    #[test]
    fn peak_memory_null_without_trace() {
        let report = sample_report().run_report();
        assert!(report.peak_memory.is_none());
        let doc = report.to_json();
        assert!(doc.get("timeseries").is_none());
        assert!(doc.get("peak_memory").expect("key present").is_null());
        assert!(validate_run(&doc).is_ok());
    }

    /// Every phase a mode runs has a watermark, and no other phase has.
    #[test]
    fn traced_report_has_peak_memory_for_every_phase() {
        let mut b = GraphBuilder::new(12);
        for i in 0..11 {
            b.add_edge(i as Vertex, (i + 1) as Vertex, 2);
        }
        let g = b.build();
        for mst_mode in [MstMode::Replicated, MstMode::Dist] {
            let cfg = SolverConfig {
                num_ranks: 2,
                mst_mode,
                trace: crate::TraceConfig::ring(),
                ..SolverConfig::default()
            };
            let solved = solve(&g, &[0, 11], &cfg).unwrap();
            assert_eq!(solved.trace.total_dropped(), 0);
            let doc = solved.run_report().to_json();
            validate_run(&doc).expect("traced report validates");
            let pm = doc.get("peak_memory").unwrap();
            for phase in Phase::ALL {
                let Some(peaks) = pm.get(phase.name()) else {
                    assert!(
                        !mst_mode.phases().contains(&phase),
                        "{mst_mode:?}: no {} watermark",
                        phase.name()
                    );
                    continue;
                };
                assert!(mst_mode.phases().contains(&phase), "{}", phase.name());
                for (key, _) in PEAK_COUNTERS {
                    assert!(peaks.get(key).and_then(|v| v.as_u64()).is_some(), "{key}");
                }
            }
            let voronoi = |key: &str| {
                pm.get("voronoi")
                    .and_then(|p| p.get(key))
                    .and_then(|v| v.as_u64())
            };
            assert!(voronoi("total_bytes") > Some(0));
            assert!(voronoi("arena_bytes") > Some(0));
            // Round-trips through the parser and still validates.
            let reparsed = stgraph::json::parse(&doc.to_pretty()).unwrap();
            assert!(validate_run(&reparsed).is_ok());
        }
    }

    /// A counter holds its value until the next sample, so a phase whose
    /// span holds no sample of a counter still reports the value carried
    /// in; samples outside any phase span count for none.
    #[test]
    fn peak_memory_carries_counter_values_into_phase_spans() {
        use struntime::trace::{RankTrace, TraceEvent};
        let ev = |kind, name, arg| TraceEvent {
            name,
            kind,
            ts_us: 0,
            arg,
            arg2: 0,
        };
        let (begin, end, counter) = (
            TraceEventKind::SpanBegin,
            TraceEventKind::SpanEnd,
            TraceEventKind::Counter,
        );
        let trace = TraceDump {
            ranks: vec![RankTrace {
                rank: 0,
                dropped: 0,
                events: vec![
                    ev(counter, "reliability_bytes", 40),
                    ev(begin, "voronoi", 0),
                    ev(counter, "queue_bytes", 100),
                    ev(counter, "queue_bytes", 300),
                    ev(counter, "queue_bytes", 0),
                    ev(end, "voronoi", 0),
                    ev(counter, "arena_bytes", 9),
                    ev(begin, "tree_edge", 0),
                    ev(counter, "queue_bytes", 200),
                    ev(end, "tree_edge", 0),
                ],
            }],
        };
        let pm = peak_memory_json(&trace);
        let get = |phase: &str, key: &str| {
            pm.get(phase)
                .and_then(|p| p.get(key))
                .and_then(|v| v.as_u64())
        };
        assert_eq!(get("voronoi", "queue_bytes"), Some(300));
        assert_eq!(get("voronoi", "reliability_bytes"), Some(40));
        assert_eq!(get("voronoi", "arena_bytes"), Some(0));
        assert_eq!(get("tree_edge", "queue_bytes"), Some(200));
        assert_eq!(get("tree_edge", "arena_bytes"), Some(9));
        assert_eq!(get("tree_edge", "reliability_bytes"), Some(40));
    }

    #[test]
    fn historical_run_reports_rejected_with_regeneration_note() {
        for version in 1..SCHEMA_VERSION {
            let mut doc = sample_report().run_report().to_json();
            doc.insert("schema_version", version);
            let err = validate_run(&doc).unwrap_err();
            assert!(err.contains(&format!("schema_version {version}")), "{err}");
            assert!(err.contains(&format!("reads v{SCHEMA_VERSION}")), "{err}");
            assert!(err.contains("regenerate"), "{err}");
        }
    }

    #[test]
    fn v6_recovery_section_emitted_and_required() {
        let doc = sample_report().run_report().to_json();
        let recovery = doc.get("recovery").expect("recovery object present");
        for key in [
            "crashes_injected",
            "checkpoints_taken",
            "checkpoint_bytes",
            "restores",
            "replayed_phases",
            "aborted_ranks",
        ] {
            assert_eq!(
                recovery.get(key).and_then(|v| v.as_u64()),
                Some(0),
                "undisturbed solve must report recovery.{key} = 0"
            );
        }
        assert!(validate_run(&doc).is_ok());
        // A report missing the section (or with a non-integer counter) is
        // rejected — the section is mandatory even when all-zero.
        let mut missing = sample_report().run_report().to_json();
        if let Json::Obj(pairs) = &mut missing {
            pairs.retain(|(k, _)| k != "recovery");
        }
        let err = validate_run(&missing).unwrap_err();
        assert!(err.contains("recovery"), "{err}");
        let mut bad = sample_report().run_report().to_json();
        bad.insert("recovery", Json::from("nope"));
        let err = validate_run(&bad).unwrap_err();
        assert!(err.contains("recovery"), "{err}");
    }

    #[test]
    fn v8_drops_reduce_mode_and_retries() {
        let doc = sample_report().run_report().to_json();
        assert!(doc.get("config").unwrap().get("reduce_mode").is_none());
        assert!(doc.get("faults").unwrap().get("retries").is_none());
        assert!(validate_run(&doc).is_ok());
    }

    #[test]
    fn v9_pruned_at_push_object_emitted_and_required() {
        let mut b = GraphBuilder::new(8);
        for i in 0..7 {
            b.add_edge(i as Vertex, (i + 1) as Vertex, 2);
        }
        let g = b.build();
        let cfg = SolverConfig {
            num_ranks: 2,
            queue: QueueKind::Priority,
            ..SolverConfig::default()
        };
        let report = solve(&g, &[0, 7], &cfg).unwrap().run_report();
        assert_eq!(report.pruned_at_push.len(), 2);
        // Every path vertex relaxes the arc back to its predecessor, a
        // candidate its admitted label already beats.
        assert!(report.pruned_at_push.iter().sum::<u64>() > 0);
        let doc = report.to_json();
        let pruned = doc.get("pruned_at_push").expect("v9 emits pruned_at_push");
        assert_eq!(
            pruned.get("total").and_then(|v| v.as_u64()),
            Some(report.pruned_at_push.iter().sum::<u64>())
        );
        assert!(validate_run(&doc).is_ok());
        let mut missing = doc.clone();
        if let Json::Obj(pairs) = &mut missing {
            pairs.retain(|(k, _)| k != "pruned_at_push");
        }
        let err = validate_run(&missing).unwrap_err();
        assert!(err.contains("pruned_at_push"), "{err}");
        // The full-delivery disciplines never prune.
        let adversarial = sample_report().run_report();
        assert_eq!(adversarial.pruned_at_push, vec![0, 0]);
    }

    /// v13 splits `stale_drops` into its admission and pop halves, per
    /// rank; a two-rank priority solve drops at both points.
    #[test]
    fn v13_drop_split_sums_to_stale_drops_and_is_required() {
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(5);
        let seeds: Vec<Vertex> = (0..g.num_vertices() as Vertex).step_by(37).collect();
        let cfg = SolverConfig {
            num_ranks: 2,
            queue: QueueKind::Priority,
            ..SolverConfig::default()
        };
        let report = solve(&g, &seeds, &cfg).unwrap().run_report();
        let sums: Vec<u64> = (report.admission_drops.iter())
            .zip(&report.pop_drops)
            .map(|(a, p)| a + p)
            .collect();
        assert_eq!(sums, report.stale_drops);
        assert!(report.admission_drops.iter().sum::<u64>() > 0);
        assert!(report.pop_drops.iter().sum::<u64>() > 0);
        let doc = report.to_json();
        assert!(validate_run(&doc).is_ok());
        for key in ["admission_drops", "pop_drops"] {
            let total = doc.get(key).and_then(|d| d.get("total"));
            let sum = match key {
                "admission_drops" => report.admission_drops.iter().sum::<u64>(),
                _ => report.pop_drops.iter().sum::<u64>(),
            };
            assert_eq!(total.and_then(|v| v.as_u64()), Some(sum), "{key}");
            let mut missing = doc.clone();
            if let Json::Obj(pairs) = &mut missing {
                pairs.retain(|(k, _)| k != key);
            }
            let err = validate_run(&missing).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }

    #[test]
    fn v10_sync_points_emitted_and_required() {
        let report = sample_report().run_report();
        // Two channel groups (two barriers each), the Voronoi and
        // tree-edge traversals (three fences each), the halo exchange and
        // the dense reduce: every rank barrier is counted.
        assert!(
            report.sync_points.collectives >= 2,
            "{:?}",
            report.sync_points
        );
        assert!(
            report.sync_points.barriers >= 10 + 2 * report.sync_points.collectives,
            "{:?}",
            report.sync_points
        );
        assert_eq!(sample_report().sync_points, report.sync_points);
        let doc = report.to_json();
        let sync = doc.get("sync_points").expect("v10 emits sync_points");
        assert_eq!(
            sync.get("barriers").and_then(|v| v.as_u64()),
            Some(report.sync_points.barriers)
        );
        assert!(validate_run(&doc).is_ok());
        let mut missing = doc.clone();
        if let Json::Obj(pairs) = &mut missing {
            pairs.retain(|(k, _)| k != "sync_points");
        }
        let err = validate_run(&missing).unwrap_err();
        assert!(err.contains("sync_points"), "{err}");
    }

    #[test]
    fn v7_boruvka_null_for_replicated_solves() {
        let report = sample_report().run_report();
        assert!(report.boruvka.is_none());
        let doc = report.to_json();
        assert!(doc.get("boruvka").expect("key present").is_null());
        assert!(validate_run(&doc).is_ok());
        // The section is mandatory: a report missing the key is rejected.
        let mut missing = sample_report().run_report().to_json();
        if let Json::Obj(pairs) = &mut missing {
            pairs.retain(|(k, _)| k != "boruvka");
        }
        let err = validate_run(&missing).unwrap_err();
        assert!(err.contains("boruvka"), "{err}");
    }

    #[test]
    fn v7_boruvka_section_populated_for_dist_solves_and_validates() {
        let mut b = GraphBuilder::new(10);
        for i in 0..9 {
            b.add_edge(i as Vertex, (i + 1) as Vertex, 2);
        }
        let g = b.build();
        let cfg = SolverConfig {
            num_ranks: 2,
            mst_mode: crate::MstMode::Dist,
            ..SolverConfig::default()
        };
        let report = solve(&g, &[0, 4, 9], &cfg).unwrap().run_report();
        assert_eq!(report.config.mst_mode, "dist");
        let stats = report.boruvka.as_ref().expect("dist solve records rounds");
        assert!(stats.rounds > 0);
        assert_eq!(stats.edges_reduced.len(), stats.rounds as usize);
        assert_eq!(stats.components.len(), stats.rounds as usize);
        let doc = report.to_json();
        validate_run(&doc).expect("v7 dist report validates");
        let bv = doc.get("boruvka").unwrap();
        assert_eq!(
            bv.get("rounds").and_then(|v| v.as_u64()),
            Some(stats.rounds)
        );
        assert_eq!(
            bv.get("components")
                .and_then(|v| v.as_arr())
                .and_then(|a| a.last().cloned())
                .and_then(|v| v.as_u64()),
            Some(1),
            "a connected solve ends at one component"
        );
        // Round-trips through the parser and still validates.
        let reparsed = stgraph::json::parse(&doc.to_pretty()).unwrap();
        assert!(validate_run(&reparsed).is_ok());
    }

    #[test]
    fn flight_dump_validates() {
        let mut b = GraphBuilder::new(8);
        for i in 0..7 {
            b.add_edge(i as Vertex, (i + 1) as Vertex, 2);
        }
        let g = b.build();
        let cfg = SolverConfig {
            num_ranks: 2,
            trace: crate::TraceConfig::ring(),
            ..SolverConfig::default()
        };
        let solved = solve(&g, &[0, 7], &cfg).unwrap();
        let doc = solved.trace.flight_json("unit_test");
        assert_eq!(validate_flight(&doc), Ok(2));
        let reparsed = stgraph::json::parse(&doc.to_string()).unwrap();
        assert_eq!(validate_flight(&reparsed), Ok(2));
        // A plain trace and a run report are not flight dumps.
        let plain = stgraph::json::parse(&solved.trace.to_chrome_trace()).unwrap();
        assert!(validate_flight(&plain).is_err());
        assert!(validate_flight(&solved.run_report().to_json()).is_err());
        // Nor is a dump with an empty reason.
        let empty = solved.trace.flight_json("");
        assert!(validate_flight(&empty).is_err());
    }

    #[test]
    fn message_counts_carry_voronoi_traffic() {
        let report = sample_report().run_report();
        let voronoi = report
            .message_counts
            .iter()
            .find(|(n, _)| *n == "voronoi")
            .expect("voronoi phase counted");
        assert!(voronoi.1.remote_msgs + voronoi.1.local_msgs > 0);
    }
}
