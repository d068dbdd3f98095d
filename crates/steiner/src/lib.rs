#![warn(missing_docs)]

//! # steiner — distributed 2-approximation Steiner minimal trees
//!
//! The paper's primary contribution: a parallel Steiner tree algorithm
//! based on Voronoi-cell computation (Mehlhorn's formulation of KMB) with a
//! distributed, asynchronous, vertex- and edge-centric implementation.
//! This crate runs that algorithm on the simulated message-passing runtime
//! (`struntime`) over a partitioned graph (`stgraph::partition`):
//!
//! 1. **Voronoi cells** ([`voronoi`]) — asynchronous Bellman-Ford from all
//!    seeds at once, with optional priority message queues (Alg 4);
//! 2. **Local min-distance edges** ([`distance_graph`]) — edge-centric scan
//!    for the cheapest cross-cell bridges (Alg 5);
//! 3. **Global reduction** — by default distributed Borůvka rounds
//!    ([`boruvka`]) that all-reduce one slot per live component; with
//!    [`MstMode::Replicated`], the paper's one-shot dense `Allreduce(MIN)`
//!    over the `binom(|S|, 2)` distance-graph buffer;
//! 4. **MST** of the small distance graph `G_1'` — sequential Prim
//!    ([`mst`]) replicated on every rank;
//! 5. **Edge pruning** — keep only bridges chosen by the MST;
//! 6. **Tree edges** ([`tree_edges`]) — trace predecessor chains back to
//!    the seeds (Alg 6).
//!
//! Steps 4 and 5 run under [`MstMode::Replicated`] only: the default
//! Borůvka rounds of step 3 already choose the MST bridges, so a dist
//! solve runs steps 1, 2, 3 and 6 ([`MstMode::phases`]).
//!
//! The approximation bound `D(G_S)/D_min <= 2(1 - 1/l)` is inherited from
//! KMB via Mehlhorn's proof that every MST of `G_1'` is an MST of the
//! complete seed distance graph.
//!
//! stcheck: allow-file(wallclock): the `Instant::now()` reads here bracket
//! whole phases to fill `RunReport::times` — measurement only, never
//! branched on, so they cannot perturb the solve.
//!
//! ```
//! use stgraph::{datasets::Dataset, SteinerTree};
//! use steiner::{solve, SolverConfig};
//!
//! let graph = Dataset::Cts.generate_tiny(42);
//! let seeds = seeds::select(&graph, 8, seeds::Strategy::BfsLevel, 7);
//! let report = solve(&graph, &seeds, &SolverConfig::default()).unwrap();
//! assert!(report.tree.validate(&graph).is_ok());
//! ```

pub mod boruvka;
pub mod distance_graph;
pub mod messages;
pub mod mst;
pub mod phases;
pub mod recovery;
pub mod refine;
pub mod report;
pub mod state;
pub mod tree_edges;
pub mod voronoi;

pub use boruvka::BoruvkaStats;
pub use phases::{Phase, PhaseTimes};
pub use recovery::{CheckpointStore, RecoveryStats};
pub use report::{ConfigFingerprint, RunReport};
pub use struntime::{
    FaultPlan, FaultSnapshot, MetricKind, MetricsConfig, MetricsDump, PersistentWorld, QueueKind,
    SyncPoints, TraceConfig, TraceDump,
};

use distance_graph::PairKey;
use recovery::Progress;
use state::VertexStates;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stgraph::csr::{CsrGraph, Vertex, Weight, INF};
use stgraph::dsu::Dsu;
use stgraph::error::SteinerError;
use stgraph::partition::{partition_graph, PartitionedGraph};
use stgraph::steiner_tree::SteinerTree;
use struntime::{Comm, FailureReason, PhaseSnapshot, RunOutput, World, WorldConfig, WorldFailure};

/// How the `global_min_edge` + `mst` phases compute the MST of `G_1'`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MstMode {
    /// The paper's Alg 3 Step 3: one dense `Allreduce(MIN)` over the
    /// `binom(|S|, 2)` pair buffer replicates the full distance graph on
    /// every rank, then each rank runs Prim sequentially.
    Replicated,
    /// Distributed Borůvka ([`boruvka`], the default): each round
    /// all-reduces one lightest-outgoing-edge slot per live component
    /// (`O(#components)`, shrinking geometrically) and merges via pointer
    /// jumping — the `binom(|S|, 2)` buffer never materializes. The
    /// chosen tree is bit-identical to [`MstMode::Replicated`].
    Dist,
}

impl MstMode {
    /// The Alg 3 steps this mode runs, in order: all six under
    /// [`MstMode::Replicated`]; under [`MstMode::Dist`] the Borůvka rounds
    /// of [`Phase::GlobalMinEdge`] already pick the MST bridges, so
    /// [`Phase::Mst`] and [`Phase::EdgePruning`] do not run (their times
    /// read zero). Checkpoint level `k` means the first `k` phases of this
    /// list are done.
    pub fn phases(self) -> &'static [Phase] {
        match self {
            MstMode::Replicated => &Phase::ALL,
            MstMode::Dist => &[
                Phase::Voronoi,
                Phase::LocalMinEdge,
                Phase::GlobalMinEdge,
                Phase::TreeEdge,
            ],
        }
    }
}

/// Configuration of one distributed solve.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Number of simulated ranks (MPI processes). Default 4.
    pub num_ranks: usize,
    /// Message-queue discipline for the Voronoi phase. Default priority
    /// (the paper's optimization, with a bucket width derived from the
    /// graph: [`voronoi::bucket_width`]); use FIFO to reproduce the
    /// baseline.
    pub queue: QueueKind,
    /// Degree threshold above which a vertex becomes a replicated delegate
    /// (HavoqGT vertex-cut). `None` disables delegation.
    pub delegate_threshold: Option<usize>,
    /// How the MST of the distance graph is found: distributed Borůvka
    /// rounds inside `global_min_edge` (the default, see [`boruvka`]), or
    /// the paper's replicated dense reduction plus Prim and pruning
    /// (`--mst replicated`, Alg 3 Steps 3–5). Both produce bit-identical
    /// trees; [`MstMode::phases`] lists the phases each runs.
    pub mst_mode: MstMode,
    /// Apply the optional KMB steps 4–5 refinement to the output tree.
    pub refine: bool,
    /// Event-trace recording for the solve's world (off by default; see
    /// [`struntime::trace`]). When enabled, [`SolveReport::trace`] holds
    /// the per-rank event dump, renderable with
    /// [`TraceDump::to_chrome_trace`], and a failed solve leaves it as a
    /// flight dump when `FLIGHT_RECORDER_DIR` is set.
    pub trace: TraceConfig,
    /// Latency-histogram recording for the solve's world (off by
    /// default; see [`struntime::metrics`]). When enabled,
    /// [`SolveReport::metrics`] holds per-rank × per-phase histograms of
    /// message latency, queue residency, batch size, and visit service
    /// time.
    pub metrics: MetricsConfig,
    /// Deterministic fault injection for the solve's world (off by
    /// default; see [`struntime::faults`]). With an active plan the
    /// runtime's reliability protocol keeps the solve's output
    /// bit-identical to a fault-free run; injection and recovery counters
    /// land in [`SolveReport::fault_stats`].
    pub faults: Option<FaultPlan>,
    /// Wall-clock deadline for the whole solve. When it expires, the
    /// ranks abort cooperatively at their next sync points and the solve
    /// returns [`SteinerError::DeadlineExceeded`]; with tracing on and
    /// `FLIGHT_RECORDER_DIR` set, a flight dump preserves the partial
    /// progress record. `None` (the default) means no deadline.
    pub deadline: Option<Duration>,
    /// Restarts from a phase checkpoint the supervisor may perform before
    /// giving up with [`SteinerError::Unrecoverable`]. Default 2. While it
    /// is above 0, per-rank state is snapshotted at every phase barrier so
    /// an injected crash-stop can be recovered by replaying from the last
    /// completed phase (see [`recovery`]); snapshots are only taken when
    /// the fault plan can crash a rank, so fault-free solves pay nothing.
    pub max_restores: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            num_ranks: 4,
            queue: QueueKind::Priority,
            delegate_threshold: None,
            mst_mode: MstMode::Dist,
            refine: false,
            trace: TraceConfig::Off,
            metrics: MetricsConfig::Off,
            faults: None,
            deadline: None,
            max_restores: 2,
        }
    }
}

/// Everything a solve produces: the tree plus the observability data the
/// paper's evaluation charts are built from.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The 2-approximate Steiner tree.
    pub tree: SteinerTree,
    /// Per-phase wall-clock, max across ranks (barrier-bound).
    pub phase_times: PhaseTimes,
    /// Per-rank phase times.
    pub rank_phase_times: Vec<PhaseTimes>,
    /// Per rank, the part of each phase's time the rank spent blocked: in
    /// barriers from arrival to release (collectives included) and in a
    /// traversal's idle set ([`struntime::Comm::wait_time`]). A phase's
    /// busy time is its time minus its wait. A phase that ends without a
    /// sync (`local_min_edge`) leaves its early ranks' wait to the next
    /// phase's first collective.
    pub rank_phase_wait: Vec<PhaseTimes>,
    /// Cluster-wide message counts per phase (Fig 6's metric).
    pub message_counts: BTreeMap<&'static str, PhaseSnapshot>,
    /// Bytes of the partitioned graph across all ranks (Fig 8 "graph").
    pub graph_bytes: usize,
    /// Peak algorithm-state bytes across all ranks (Fig 8 "states").
    pub state_peak_bytes: usize,
    /// Number of edges in the reduced distance graph `G_1'` under
    /// [`MstMode::Replicated`]; under [`MstMode::Dist`] the graph is never
    /// assembled, so this counts the chosen bridges (`|S| - 1` for a
    /// connected solve).
    pub distance_graph_edges: usize,
    /// Visitors processed per rank, summed over the traversals (Voronoi
    /// and tree edges; the local min-edge exchange runs none) — the
    /// simulation's work metric.
    pub rank_work: Vec<u64>,
    /// Per-rank Voronoi relaxations that never became visits: the sum of
    /// `admission_drops` and `pop_drops` (the priority discipline's
    /// decrease-key emulation; all-zero under FIFO/adversarial queues).
    pub stale_drops: Vec<u64>,
    /// Per-rank inbound Voronoi relaxations dropped at queue admission:
    /// not below the target's label when they arrived.
    pub admission_drops: Vec<u64>,
    /// Per-rank queued Voronoi entries dropped at pop: their vertex's
    /// label had been expanded already.
    pub pop_drops: Vec<u64>,
    /// Per-rank Voronoi relaxations the priority discipline resolved by a
    /// label comparison before they were pushed, so they never became
    /// messages (see [`voronoi`], "Stale-relaxation filtering"; all-zero
    /// under FIFO/adversarial queues).
    pub pruned_at_push: Vec<u64>,
    /// The configuration the solve ran with (the [`RunReport`]'s config
    /// fingerprint is derived from it).
    pub config: SolverConfig,
    /// Per-rank event traces (empty unless [`SolverConfig::trace`] was
    /// enabled). Render with [`TraceDump::to_chrome_trace`].
    pub trace: TraceDump,
    /// Per-rank × per-phase latency histograms (empty unless
    /// [`SolverConfig::metrics`] was enabled).
    pub metrics: MetricsDump,
    /// Fault-injection and reliability-protocol counters (drops, dups,
    /// delays, stalls, retransmits, dedup discards, acks).
    /// All-zero when [`SolverConfig::faults`] is off.
    pub fault_stats: FaultSnapshot,
    /// Crash-recovery counters: injected crashes, checkpoints taken and
    /// their bytes, restores, replayed phases, cooperative aborts.
    /// All-zero for an undisturbed solve.
    pub recovery: RecoveryStats,
    /// Per-round distributed-MST counters (rounds, slots reduced,
    /// components remaining) when the solve ran with
    /// [`MstMode::Dist`]; `None` for the replicated path, and after a
    /// restore from a checkpoint taken past the Borůvka rounds the
    /// counters come back from the checkpoint itself.
    pub boruvka: Option<BoruvkaStats>,
    /// Barriers and collectives each rank crossed. Ranks cross them in
    /// lockstep, so every rank's count is the same and a deterministic
    /// function of the instance and configuration. A restored solve
    /// counts its last attempt only.
    pub sync_points: SyncPoints,
}

impl SolveReport {
    /// Total wall-clock (sum of barrier-bound phase maxima) — the paper's
    /// time-to-solution metric.
    pub fn time_to_solution(&self) -> std::time::Duration {
        self.phase_times.total()
    }

    /// Work-based simulated speedup: total visitors processed divided by
    /// the most-loaded rank's share. On a simulated cluster (many ranks
    /// multiplexed over few physical cores) wall-clock cannot exhibit
    /// strong scaling, but the critical-path work per rank can — this is
    /// the Fig 3 scaling metric, equal to ideal speedup under perfect load
    /// balance and degraded by skew exactly as a real cluster would be.
    pub fn simulated_speedup(&self) -> f64 {
        let total: u64 = self.rank_work.iter().sum();
        let max = self.rank_work.iter().copied().max().unwrap_or(0);
        if max == 0 {
            1.0
        } else {
            total as f64 / max as f64
        }
    }
}

fn check_seeds(g: &CsrGraph, seeds: &[Vertex]) -> Result<Vec<Vertex>, SteinerError> {
    check_seeds_against(g.num_vertices(), seeds)
}

/// Validates and deduplicates a seed set against a vertex count. Duplicate
/// seeds would otherwise corrupt the seed-index map (spurious
/// `SeedsDisconnected`), so every solve entry point funnels through here.
/// A Steiner tree needs a nontrivial terminal set, so fewer than two
/// distinct seeds is a structured error — previously a single seed took a
/// silent trivial path and zero seeds could reach an arithmetic underflow
/// panic in the dense reduction.
fn check_seeds_against(num_vertices: usize, seeds: &[Vertex]) -> Result<Vec<Vertex>, SteinerError> {
    if seeds.is_empty() {
        return Err(SteinerError::NoSeeds);
    }
    for &s in seeds {
        if s as usize >= num_vertices {
            return Err(SteinerError::SeedOutOfRange(s));
        }
    }
    let mut out = seeds.to_vec();
    out.sort_unstable();
    out.dedup();
    if out.len() < 2 {
        return Err(SteinerError::TooFewSeeds { got: out.len() });
    }
    Ok(out)
}

/// Rejects a graph whose distances could wrap. A label is a simple
/// path's length, at most `(n - 1) * max_weight`, and the connecting
/// paths of the distance graph add one edge and a second label, so every
/// sum the solver forms is at most `(2n - 1) * max_weight`. That bound
/// must stay below `INF`, which marks an unreached vertex.
pub(crate) fn check_weights(num_vertices: usize, max_weight: Weight) -> Result<(), SteinerError> {
    let longest = (2 * num_vertices as u64)
        .saturating_sub(1)
        .checked_mul(max_weight);
    if longest.is_some_and(|d| d < INF) {
        Ok(())
    } else {
        Err(SteinerError::WeightOverflow {
            max_weight,
            num_vertices,
        })
    }
}

/// What one rank hands the supervisor: its share of the tree edges and
/// its progress record, or the seed pair that shows the seeds are not
/// connected.
struct RankOutcome {
    edges: Vec<(Vertex, Vertex, Weight)>,
    progress: Progress,
    disconnected: Option<(Vertex, Vertex)>,
}

/// Runs the distributed solver end to end. Spawns `config.num_ranks`
/// simulated ranks, partitions `g` across them, executes Alg 3, and
/// returns the tree with full per-phase observability.
pub fn solve(
    g: &CsrGraph,
    seeds: &[Vertex],
    config: &SolverConfig,
) -> Result<SolveReport, SteinerError> {
    let seeds = check_seeds(g, seeds)?;
    let pg = partition_graph(g, config.num_ranks, config.delegate_threshold);
    solve_partitioned(&pg, &seeds, config)
}

/// Like [`solve`], but on an already-partitioned graph — lets experiment
/// harnesses partition once and solve many times.
pub fn solve_partitioned(
    pg: &PartitionedGraph,
    seeds: &[Vertex],
    config: &SolverConfig,
) -> Result<SolveReport, SteinerError> {
    let seeds = check_seeds_against(pg.partition.num_vertices(), seeds)?;
    check_weights(pg.partition.num_vertices(), pg.max_weight)?;
    let p = pg.ranks.len();
    assert_eq!(p, config.num_ranks, "partition/config rank mismatch");
    supervise(pg, &seeds, config, |faults, recovery| {
        let world_config = WorldConfig {
            trace: config.trace,
            metrics: config.metrics,
            faults,
            deadline: config.deadline,
            ..WorldConfig::default()
        };
        World::try_run_config(p, world_config, |comm: &mut Comm| {
            rank_main(comm, pg, &seeds, config, recovery.as_ref())
        })
    })
}

/// Like [`solve_partitioned`], but runs each solve as one supervised job
/// on resident rank threads — the entry point for interactive workloads
/// that issue many solves against one loaded graph. `world.num_ranks()`
/// must equal `config.num_ranks`.
///
/// Per job, as in [`solve_partitioned`]: [`SolverConfig::deadline`] and
/// [`SolverConfig::faults`], crash-stop recovery included; a failed job
/// leaves the world usable. Per world: trace and metrics are fixed when
/// the world is built and accumulate across jobs (drain them with
/// [`PersistentWorld::finish_trace`] and
/// [`PersistentWorld::finish_metrics`]), so the report's `trace` and
/// `metrics` are empty, and a config that differs from the world's in
/// either is rejected with
/// [`SteinerError::ResidentConfigMismatch`].
pub fn solve_on(
    world: &PersistentWorld,
    pg: &Arc<PartitionedGraph>,
    seeds: &[Vertex],
    config: &SolverConfig,
) -> Result<SolveReport, SteinerError> {
    let p = pg.ranks.len();
    assert_eq!(p, config.num_ranks, "partition/config rank mismatch");
    assert_eq!(p, world.num_ranks(), "world/config rank mismatch");
    let wc = world.config();
    let differs = [
        ("trace", config.trace != wc.trace),
        ("metrics", config.metrics != wc.metrics),
    ];
    if let Some(&(field, _)) = differs.iter().find(|d| d.1) {
        return Err(SteinerError::ResidentConfigMismatch { field });
    }
    let seeds = Arc::new(check_seeds_against(pg.partition.num_vertices(), seeds)?);
    check_weights(pg.partition.num_vertices(), pg.max_weight)?;
    supervise(pg, &seeds, config, |faults, recovery| {
        let (pg, seeds, config) = (Arc::clone(pg), Arc::clone(&seeds), *config);
        world.try_execute(faults, config.deadline, move |comm: &mut Comm| {
            rank_main(comm, &pg, &seeds, &config, recovery.as_ref())
        })
    })
}

/// Checkpoint store plus the number of phases a resumed attempt skips
/// (`None` on the first attempt).
type Resume = (Arc<CheckpointStore>, Option<usize>);

/// The crash-stop supervisor both entry points share. It runs `attempt`
/// until one completes, passing each the fault plan and — when recovery
/// is armed — the checkpoint store and resume point. A tripped deadline
/// becomes [`SteinerError::DeadlineExceeded`], an injected crash a
/// restore from the last complete checkpoint, and a real panic is
/// re-raised.
fn supervise(
    pg: &PartitionedGraph,
    seeds: &[Vertex],
    config: &SolverConfig,
    mut attempt: impl FnMut(
        Option<FaultPlan>,
        Option<Resume>,
    ) -> Result<RunOutput<RankOutcome>, WorldFailure>,
) -> Result<SolveReport, SteinerError> {
    // Checkpoints are only taken when a restore could consume them —
    // recovery enabled and a plan that can actually crash-stop a rank —
    // so fault-free solves skip the snapshot work.
    let recovery_armed =
        config.max_restores > 0 && config.faults.is_some_and(|pl| pl.crash_armed());
    let store = Arc::new(CheckpointStore::new(pg.ranks.len()));
    let mut recovery = RecoveryStats::default();
    let mut resume: Option<usize> = None;
    let mut plan = config.faults;
    let out = loop {
        let run = attempt(plan, recovery_armed.then(|| (Arc::clone(&store), resume)));
        recovery.checkpoints_taken = store.taken();
        recovery.checkpoint_bytes = recovery.checkpoint_bytes.max(store.resident_bytes() as u64);
        let failure = match run {
            Ok(out) => break out,
            Err(failure) => failure,
        };
        recovery.aborted_ranks += failure.aborted_ranks as u64;
        recovery.crashes_injected += failure.injected_crashes() as u64;
        if failure.deadline_exceeded {
            // The runtime already wrote the flight dump; that is the
            // partial-progress record for this solve.
            return Err(SteinerError::DeadlineExceeded {
                deadline_ms: config.deadline.map_or(0, |d| d.as_millis() as u64),
            });
        }
        if failure
            .failures
            .iter()
            .any(|f| f.reason != FailureReason::InjectedCrash)
        {
            // A genuine bug (assertion, lockstep violation): restoring
            // would deterministically replay it, so re-raise the original
            // payload — the legacy panic propagation contract callers and
            // tests rely on.
            std::panic::resume_unwind(failure.into_panic_payload());
        }
        let restore_from = if recovery.restores < config.max_restores as u64 {
            store.latest_complete()
        } else {
            None
        };
        let Some(completed) = restore_from else {
            return Err(SteinerError::Unrecoverable {
                restores: recovery.restores,
            });
        };
        recovery.restores += 1;
        recovery.replayed_phases += (config.mst_mode.phases().len() - completed) as u64;
        resume = Some(completed);
        // Replay with the crash trigger disarmed; the message-level
        // perturbations keep running, so the replayed phases still have to
        // reach the fault-free tree through the reliability layer.
        plan = plan.map(|pl| pl.disarm_crash());
    };
    assemble_report(pg, seeds.to_vec(), config, out, recovery)
}

fn assemble_report(
    pg: &PartitionedGraph,
    seeds: Vec<Vertex>,
    config: &SolverConfig,
    out: RunOutput<RankOutcome>,
    recovery: RecoveryStats,
) -> Result<SolveReport, SteinerError> {
    // Flight recorder: a failed solve dumps its trace (when
    // `FLIGHT_RECORDER_DIR` is set and tracing was on) so the last
    // events and counter samples survive for post-mortem analysis.
    if !out.audit_violations.is_empty() {
        struntime::write_flight_dump_env(&out.trace, "audit_failure");
    }
    // Every rank finds the same pair: the forest it is read from is
    // replicated.
    if let Some((s, t)) = out.results.iter().find_map(|r| r.disconnected) {
        struntime::write_flight_dump_env(&out.trace, "phase_failure");
        return Err(SteinerError::SeedsDisconnected(s, t));
    }

    let p = pg.ranks.len();
    let mut all_edges = Vec::new();
    let mut phase_times = PhaseTimes::default();
    let mut rank_phase_times = Vec::with_capacity(p);
    let mut rank_phase_wait = Vec::with_capacity(p);
    let mut rank_work = Vec::with_capacity(p);
    let mut stale_drops = Vec::with_capacity(p);
    let mut admission_drops = Vec::with_capacity(p);
    let mut pop_drops = Vec::with_capacity(p);
    let mut pruned_at_push = Vec::with_capacity(p);
    let mut dg_edges = 0;
    for r in &out.results {
        all_edges.extend_from_slice(&r.edges);
        let Progress {
            times, wait, work, ..
        } = r.progress;
        phase_times = phase_times.max(&times);
        rank_phase_times.push(times);
        rank_phase_wait.push(wait);
        rank_work.push(work.processed);
        stale_drops.push(work.admission_dropped + work.pop_dropped);
        admission_drops.push(work.admission_dropped);
        pop_drops.push(work.pop_dropped);
        pruned_at_push.push(work.pruned_at_push);
        dg_edges = dg_edges.max(r.progress.dg_len);
    }
    // The Borůvka counters are replicated (every rank's rounds are
    // driven by identical allreduce results), so rank 0's copy
    // represents the solve.
    let boruvka = out.results.first().and_then(|r| r.progress.boruvka.clone());
    let mut tree = SteinerTree::new(seeds, all_edges);
    if config.refine {
        tree = refine::refine(&tree);
    }
    let message_counts = out.merged_counters();
    let state_peak_bytes = out.total_peak_memory();
    let sync_points = out.reports[0].sync_points;
    debug_assert!(
        out.reports.iter().all(|r| r.sync_points == sync_points),
        "ranks crossed different sync points"
    );
    Ok(SolveReport {
        tree,
        phase_times,
        rank_phase_times,
        rank_phase_wait,
        message_counts,
        graph_bytes: pg.ranks.iter().map(|r| r.memory_bytes()).sum(),
        state_peak_bytes,
        distance_graph_edges: dg_edges,
        rank_work,
        stale_drops,
        admission_drops,
        pop_drops,
        pruned_at_push,
        config: *config,
        trace: out.trace,
        metrics: out.metrics,
        fault_stats: out.fault_stats,
        recovery,
        boruvka,
        sync_points,
    })
}

/// The pair a [`SteinerError::SeedsDisconnected`] names when the MST
/// `forest` (seed-index pairs) does not span the seeds: `seeds[0]` and
/// the first seed the forest does not join to it. `None` when it spans.
fn disconnected_pair(
    seeds: &[Vertex],
    forest: impl IntoIterator<Item = PairKey>,
) -> Option<(Vertex, Vertex)> {
    let mut dsu = Dsu::new(seeds.len());
    for (si, ti) in forest {
        dsu.union(si, ti);
    }
    (1..seeds.len())
        .find(|&i| !dsu.same(0, i as u32))
        .map(|i| (seeds[0], seeds[i]))
}

fn rank_main(
    comm: &mut Comm,
    pg: &PartitionedGraph,
    seeds: &[Vertex],
    config: &SolverConfig,
    recovery: Option<&Resume>,
) -> RankOutcome {
    let (queue, mst_mode) = (config.queue, config.mst_mode);
    let rg = &pg.ranks[comm.rank()];

    // Channel groups for the two asynchronous phases, opened up front in
    // identical order on every rank (also on a resumed run, so the channel
    // id space is identical to a fresh one).
    let chan_voronoi = comm.open_channels::<Vec<messages::VoronoiMsg>>(Phase::Voronoi.name());
    let chan_trace = comm.open_channels::<Vec<messages::TraceMsg>>(Phase::TreeEdge.name());

    let mut states = VertexStates::new(rg);
    comm.memory().record("vertex_state", states.memory_bytes());
    // The ghost table and mirror lists; the Voronoi phase adds its ghost
    // labels to the same label while it runs.
    comm.memory().record("ghosts", rg.ghost_bytes());
    // Per-rank visitor scratch: allocated once here, reused by the phase
    // kernels so the hot path's steady state allocates nothing.
    let mut scratch = state::ScratchArena::new();

    let (store, resume) = match recovery {
        Some((store, resume)) => (Some(&**store), *resume),
        None => (None, None),
    };
    // Phases of the mode's list already completed by a previous (crashed)
    // attempt; every rank gets the same value from the supervisor, so the
    // skipped barriers and collectives stay in lockstep.
    let completed = resume.unwrap_or(0);
    let mut progress = match (store, resume) {
        (Some(store), Some(c)) => {
            let blob = store
                .get(c, comm.rank())
                .expect("supervisor restores only complete checkpoint levels");
            Progress::decode_checkpoint(&blob, &mut states)
                .expect("checkpoint taken under the same partitioning decodes")
        }
        _ => Progress::default(),
    };
    if let (Some(store), None) = (store, resume) {
        // Checkpoint 0: the initial state, so a crash inside the very
        // first phase is still recoverable.
        progress.save(comm, store, 0, &states);
    }

    let phases = mst_mode.phases();
    let mut edges = Vec::new();
    // The seed pair that proves the seeds disconnected, once the MST
    // forest is known; the solve stops there. A resumed run past that
    // point already passed this check in the crashed attempt (a
    // disconnected solve completes without crashing and never restores).
    let mut disconnected = None;
    for (k, &phase) in phases.iter().enumerate().skip(completed) {
        let t = Instant::now();
        let waited = comm.wait_time();
        let span = comm.trace_span(phase.name());
        comm.set_phase(phase.name(), phase.index() as u64);
        match phase {
            // Step 1: Voronoi cells (Alg 4).
            Phase::Voronoi => {
                comm.trace_counter("vertex_state_bytes", states.memory_bytes() as u64);
                let stats = voronoi::run(
                    comm,
                    &chan_voronoi,
                    pg,
                    &mut states,
                    seeds,
                    struntime::traversal::TraversalOptions::new(queue),
                    &mut scratch,
                );
                comm.trace_counter("arena_bytes", scratch.memory_bytes() as u64);
                progress.work.processed += stats.processed;
                progress.work.admission_dropped += stats.admission_dropped;
                progress.work.pop_dropped += stats.pop_dropped;
                progress.work.pruned_at_push += stats.pruned_at_push;
            }
            // Step 2: local min-distance cross-cell edges (Alg 5, local
            // part): one halo exchange of the ghosts' cells, then a local
            // scan, no traversal. Under `MstMode::Dist` each rank keeps
            // only its candidates' spanning forest.
            Phase::LocalMinEdge => {
                let local = distance_graph::local_min_edges(comm, pg, &states, seeds, mst_mode);
                progress.local = Some(local);
            }
            // Step 3: global reduction (Alg 5, collective part) — or, in
            // `MstMode::Dist`, the Borůvka rounds ([`boruvka`]) that
            // reduce one slot per live component and merge via pointer
            // jumping, producing the MST bridges directly.
            Phase::GlobalMinEdge => {
                let local = progress
                    .local
                    .take()
                    .expect("local min edges computed or restored");
                match mst_mode {
                    MstMode::Replicated => {
                        let dg = distance_graph::global_min_edges(comm, &local, seeds.len());
                        progress.dg_len = dg.len();
                        progress.dg = Some(dg);
                    }
                    MstMode::Dist => {
                        let (keyed, stats) = boruvka::distributed_mst(comm, &local, seeds.len());
                        disconnected = disconnected_pair(seeds, keyed.iter().map(|&(key, _)| key));
                        progress.dg_len = keyed.len();
                        progress.bridges = Some(keyed.into_iter().map(|(_, e)| e).collect());
                        progress.boruvka = Some(stats);
                    }
                }
                comm.trace_counter("distance_graph_edges", progress.dg_len as u64);
            }
            // Step 4: MST of G_1' — sequential Prim replicated per rank.
            Phase::Mst => {
                let dg = progress
                    .dg
                    .as_deref()
                    .expect("distance graph computed or restored");
                let chosen = mst::mst_of_distance_graph(seeds.len(), dg);
                disconnected = disconnected_pair(seeds, chosen.iter().map(|&i| dg[i].0));
                progress.chosen = Some(chosen);
                comm.barrier();
            }
            // Step 5: global edge pruning — keep only MST bridges.
            Phase::EdgePruning => {
                let dg = progress
                    .dg
                    .take()
                    .expect("distance graph live through pruning");
                let chosen = progress
                    .chosen
                    .take()
                    .expect("mst choices live through pruning");
                progress.bridges = Some(tree_edges::active_bridges(&dg, &chosen));
                comm.barrier();
            }
            // Step 6: Steiner tree edges by predecessor tracing (Alg 6).
            Phase::TreeEdge => {
                let bridges = progress
                    .bridges
                    .take()
                    .expect("bridges computed or restored");
                let (tree, stats) =
                    tree_edges::run(comm, &chan_trace, &pg.partition, &mut states, &bridges);
                edges = tree;
                progress.work.processed += stats.processed;
            }
        }
        drop(span);
        progress.times[phase] = t.elapsed();
        progress.wait[phase] = comm.wait_time() - waited;
        if disconnected.is_some() {
            break;
        }
        // No checkpoint after the last phase: no replay could resume there.
        if let Some(store) = store.filter(|_| k + 1 < phases.len()) {
            progress.save(comm, store, k + 1, &states);
        }
    }
    RankOutcome {
        edges,
        progress,
        disconnected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph::builder::GraphBuilder;
    use stgraph::json::Json;

    fn path_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as Vertex, (i + 1) as Vertex, (i % 3 + 1) as Weight);
        }
        b.build()
    }

    fn config(p: usize) -> SolverConfig {
        SolverConfig {
            num_ranks: p,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn two_seeds_on_path() {
        let g = path_graph(10);
        let report = solve(&g, &[0, 9], &config(3)).unwrap();
        assert!(report.tree.validate(&g).is_ok());
        // The whole path: weights cycle 1,2,3.
        let expect: u64 = (0..9).map(|i| (i % 3 + 1) as u64).sum();
        assert_eq!(report.tree.total_distance(), expect);
        assert_eq!(report.tree.num_edges(), 9);
    }

    #[test]
    fn single_seed_is_error() {
        // Regression: a single seed used to take a silent trivial path;
        // it is now a structured error on every entry point.
        let g = path_graph(5);
        assert_eq!(
            solve(&g, &[2], &config(2)).unwrap_err(),
            SteinerError::TooFewSeeds { got: 1 }
        );
    }

    #[test]
    fn duplicate_single_seed_is_error() {
        // Duplicates collapse during dedup, so [2, 2, 2] is one seed.
        let g = path_graph(5);
        assert_eq!(
            solve(&g, &[2, 2, 2], &config(2)).unwrap_err(),
            SteinerError::TooFewSeeds { got: 1 }
        );
    }

    #[test]
    fn two_seeds_smallest_nontrivial_instance() {
        // Regression companion: |S| = 2 is the smallest valid input and
        // must produce the shortest path, not an error.
        let g = path_graph(3);
        let report = solve(&g, &[0, 2], &config(2)).unwrap();
        assert_eq!(report.tree.num_edges(), 2);
        assert!(report.tree.validate(&g).is_ok());
    }

    #[test]
    fn duplicate_seeds_deduplicated() {
        let g = path_graph(6);
        let report = solve(&g, &[0, 5, 0, 5], &config(2)).unwrap();
        assert_eq!(report.tree.seeds, vec![0, 5]);
    }

    #[test]
    fn no_seeds_is_error() {
        let g = path_graph(4);
        assert_eq!(
            solve(&g, &[], &config(2)).unwrap_err(),
            SteinerError::NoSeeds
        );
    }

    #[test]
    fn out_of_range_seed_is_error() {
        let g = path_graph(4);
        assert_eq!(
            solve(&g, &[0, 7], &config(2)).unwrap_err(),
            SteinerError::SeedOutOfRange(7)
        );
    }

    #[test]
    fn disconnected_seeds_is_error() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1, 1), (2, 3, 1)]);
        let g = b.build();
        assert!(matches!(
            solve(&g, &[0, 3], &config(2)),
            Err(SteinerError::SeedsDisconnected(_, _))
        ));
    }

    /// The error names a pair that really is disconnected: with
    /// components {0, 5} and {1, 2, 3, 4}, seeds 0 and 5 are joined by an
    /// edge, and seed 2 is the one cut off from seed 0.
    #[test]
    fn disconnected_seeds_error_names_a_disconnected_pair() {
        let mut b = GraphBuilder::new(6);
        b.extend_edges([(0, 5, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        let g = b.build();
        for mst_mode in [MstMode::Replicated, MstMode::Dist] {
            let cfg = SolverConfig {
                mst_mode,
                ..config(2)
            };
            let err = solve(&g, &[0, 2, 5], &cfg).unwrap_err();
            assert_eq!(err, SteinerError::SeedsDisconnected(0, 2), "{mst_mode:?}");
            assert_eq!(
                err.to_string(),
                "seeds 0 and 2 are not connected in the graph"
            );
        }
    }

    /// Cuts with empty or lopsided blocks: 3, 5 and 8 ranks on every tiny
    /// dataset, a star whose hub holds every arc, more ranks than live
    /// vertices, and an edgeless graph. Each solve returns the one-rank
    /// tree, or the one-rank structured error.
    #[test]
    fn degenerate_cuts_solve_like_one_rank() {
        let check = |g: &CsrGraph, seeds: &[Vertex], ranks: &[usize], what: &str| {
            let one = solve(g, seeds, &config(1)).map(|r| r.tree);
            for &p in ranks {
                let pg = Arc::new(partition_graph(g, p, None));
                let world = PersistentWorld::new(p);
                let outcomes = [
                    solve(g, seeds, &config(p)),
                    solve_on(&world, &pg, seeds, &config(p)),
                ];
                for outcome in outcomes {
                    assert_eq!(outcome.map(|r| r.tree), one, "{what}, {p} ranks");
                }
            }
        };
        for ds in stgraph::datasets::Dataset::ALL {
            let g = ds.generate_tiny(5);
            let cc = stgraph::traversal::connected_components(&g);
            let verts = cc.largest_component_vertices();
            let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 6).copied().collect();
            check(&g, &seeds, &[3, 5, 8], ds.name());
        }
        let mut star = GraphBuilder::new(9);
        star.extend_edges((1..9).map(|leaf| (0, leaf, leaf as Weight)));
        check(&star.build(), &[1, 5, 8], &[2, 3, 5, 8], "star");
        let mut sparse = GraphBuilder::new(10);
        sparse.extend_edges([(4, 5, 1), (5, 6, 2)]);
        check(&sparse.build(), &[4, 6], &[3, 5, 8], "three live vertices");
        let edgeless = GraphBuilder::new(6).build();
        assert_eq!(
            solve(&edgeless, &[0, 3], &config(1)).unwrap_err(),
            SteinerError::SeedsDisconnected(0, 3)
        );
        check(&edgeless, &[0, 3], &[2, 5, 8], "edgeless");
    }

    /// Two seeds joined by a light path 0–3–2 (weight 12) and a heavy
    /// one 0–1–2 whose two edges weigh `heavy`.
    fn heavy_square(heavy: Weight) -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1, heavy), (1, 2, heavy), (2, 3, 5), (0, 3, 7)]);
        b.build()
    }

    /// With edges of 2^63, an unchecked `label.dist + w` wraps at vertex
    /// 2 and seed 0 captures seed 2's cell, which reports the connected
    /// seeds as `SeedsDisconnected(0, 2)`. Every entry point rejects such
    /// a graph up front; one just inside the bound
    /// `(2n - 1) * max_weight < INF` (n = 4) still solves.
    #[test]
    fn weights_that_could_wrap_a_distance_are_rejected() {
        let inside = INF / 7;
        for (heavy, ok) in [(1 << 63, false), (inside + 1, false), (inside, true)] {
            let g = heavy_square(heavy);
            let expect = SteinerError::WeightOverflow {
                max_weight: heavy,
                num_vertices: 4,
            };
            for p in [1, 2] {
                let pg = Arc::new(partition_graph(&g, p, None));
                let world = PersistentWorld::new(p);
                let outcomes = [
                    solve(&g, &[0, 2], &config(p)),
                    solve_partitioned(&pg, &[0, 2], &config(p)),
                    solve_on(&world, &pg, &[0, 2], &config(p)),
                ];
                for (entry, outcome) in outcomes.into_iter().enumerate() {
                    match outcome {
                        Ok(r) if ok => assert_eq!(r.tree.total_distance(), 12),
                        Err(e) if !ok => assert_eq!(e, expect, "entry {entry}"),
                        other => panic!("weight {heavy}, {p} ranks, entry {entry}: {other:?}"),
                    }
                }
            }
        }
    }

    /// Serializes the tests that set the process-global
    /// `FLIGHT_RECORDER_DIR`, so one test's dump cannot land in another's
    /// directory or find the variable unset.
    static FLIGHT_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `f` with `FLIGHT_RECORDER_DIR` pointing at a fresh directory
    /// and returns its result with the flight dumps it left there, as
    /// `(file name, document)` pairs.
    fn with_flight_dir<R>(name: &str, f: impl FnOnce() -> R) -> (R, Vec<(String, Json)>) {
        let _guard = FLIGHT_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var(struntime::trace::FLIGHT_RECORDER_DIR_ENV, &dir);
        let out = f();
        std::env::remove_var(struntime::trace::FLIGHT_RECORDER_DIR_ENV);
        let mut dumps: Vec<(String, Json)> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok().map(|n| (n, e.path())))
            .filter(|(n, _)| n.starts_with("FLIGHT_") && n.ends_with(".json"))
            .map(|(n, path)| {
                let doc = stgraph::json::parse(&std::fs::read_to_string(path).unwrap());
                (n, doc.unwrap())
            })
            .collect();
        dumps.sort_by(|a, b| a.0.cmp(&b.0));
        std::fs::remove_dir_all(&dir).ok();
        (out, dumps)
    }

    #[test]
    fn failed_solve_dumps_flight_recorder() {
        // Disconnected seeds under an active fault plan, traced, with
        // FLIGHT_RECORDER_DIR pointed at a scratch dir: the solve fails,
        // and the trace must land on disk as a schema-valid flight dump
        // (what CI uploads on chaos failures).
        let mut b = GraphBuilder::new(6);
        b.extend_edges([(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)]);
        let g = b.build();
        let cfg = SolverConfig {
            trace: TraceConfig::ring(),
            faults: Some(FaultPlan::from_spec("drop=0.2,seed=5").unwrap()),
            ..config(2)
        };
        let (outcome, dumps) = with_flight_dir("flight_test", || solve(&g, &[0, 5], &cfg));
        assert!(matches!(
            outcome,
            Err(SteinerError::SeedsDisconnected(_, _))
        ));
        // A failed solve is not retried, so it leaves exactly one
        // schema-valid dump.
        assert_eq!(dumps.len(), 1, "expected one flight dump: {dumps:?}");
        let (name, doc) = &dumps[0];
        assert!(name.starts_with("FLIGHT_phase_failure"), "{name}");
        assert_eq!(report::validate_flight(doc), Ok(2));
        let flight = doc.get("struntime").and_then(|s| s.get("flight"));
        assert_eq!(
            flight
                .and_then(|f| f.get("reason"))
                .and_then(|v| v.as_str()),
            Some("phase_failure")
        );
    }

    #[test]
    fn crash_mid_voronoi_recovers_bit_identical() {
        // The issue's acceptance scenario: a seeded crash mid-`voronoi`
        // on rank 1 of 4 must recover from the last phase checkpoint and
        // produce a tree bit-identical to the fault-free run, with at
        // least one restore on the books.
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(43);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 6).copied().collect();
        let clean = solve(&g, &seeds, &config(4)).unwrap();

        let cfg = SolverConfig {
            faults: Some(
                FaultPlan::from_spec("crash_rank=1,crash_after_visits=3,crash_phase=0,seed=7")
                    .unwrap(),
            ),
            ..config(4)
        };
        let crashed = solve(&g, &seeds, &cfg).unwrap();
        assert_eq!(
            crashed.tree, clean.tree,
            "recovered tree must be bit-identical"
        );
        assert_eq!(crashed.recovery.crashes_injected, 1);
        assert!(crashed.recovery.restores >= 1, "{:?}", crashed.recovery);
        assert!(
            crashed.recovery.checkpoints_taken >= 4,
            "{:?}",
            crashed.recovery
        );
        assert!(crashed.recovery.checkpoint_bytes > 0);
        assert!(crashed.recovery.replayed_phases >= 1);
    }

    #[test]
    fn crash_at_every_phase_recovers_bit_identical() {
        // One crash per phase the default mode runs (via the phase
        // filter), each recovered from that phase's entry checkpoint.
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(47);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 5).copied().collect();
        let clean = solve(&g, &seeds, &config(3)).unwrap();
        let phases = config(3).mst_mode.phases();
        for (k, phase) in phases.iter().enumerate() {
            let spec = format!(
                "crash_rank=1,crash_at_sync=2,crash_phase={},seed=19",
                phase.index()
            );
            let cfg = SolverConfig {
                faults: Some(FaultPlan::from_spec(&spec).unwrap()),
                ..config(3)
            };
            let r = solve(&g, &seeds, &cfg).unwrap();
            assert_eq!(r.tree, clean.tree, "phase {}", phase.name());
            assert_eq!(r.recovery.crashes_injected, 1, "phase {}", phase.name());
            assert_eq!(r.recovery.restores, 1, "phase {}", phase.name());
            // Restored from the phase's entry checkpoint or an earlier one
            // (a survivor may unwind at a sync point after the phase's
            // last barrier, before it writes that level), so the replay
            // covers the crashed phase and every later one of the list.
            let replayed = r.recovery.replayed_phases as usize;
            assert!(
                (phases.len() - k..=phases.len()).contains(&replayed),
                "phase {}: replayed {replayed}",
                phase.name()
            );
        }
    }

    /// A crash at the first sync point of `global_min_edge` restores from
    /// that phase's entry checkpoint in every case: a survivor still
    /// collecting the local min-edge halo exchange finishes it and writes
    /// its checkpoint before it unwinds, so the replay never repeats
    /// `local_min_edge`.
    #[test]
    fn crash_at_the_first_global_sync_replays_from_its_entry() {
        for seed in [47, 48, 49] {
            let g = stgraph::datasets::Dataset::Cts.generate_tiny(seed);
            let cc = stgraph::traversal::connected_components(&g);
            let verts = cc.largest_component_vertices();
            let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 7).copied().collect();
            for p in [2, 3, 4] {
                for mst_mode in [MstMode::Dist, MstMode::Replicated] {
                    let clean_cfg = SolverConfig {
                        mst_mode,
                        ..config(p)
                    };
                    let clean = solve(&g, &seeds, &clean_cfg).unwrap();
                    for crash_rank in 0..p {
                        let spec = format!(
                            "crash_rank={crash_rank},crash_at_sync=1,crash_phase={},seed=5",
                            Phase::GlobalMinEdge.index()
                        );
                        let cfg = SolverConfig {
                            faults: Some(FaultPlan::from_spec(&spec).unwrap()),
                            ..clean_cfg
                        };
                        let r = solve(&g, &seeds, &cfg).unwrap();
                        let at = format!("seed {seed}, {p} ranks, {mst_mode:?}, rank {crash_rank}");
                        assert_eq!(r.tree, clean.tree, "{at}");
                        assert_eq!(r.recovery.restores, 1, "{at}");
                        assert_eq!(
                            r.recovery.replayed_phases as usize,
                            mst_mode.phases().len() - 2,
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn crash_without_restores_is_unrecoverable() {
        // The no-restore mutant: with no restore budget the supervisor
        // must report the failure as unrecoverable instead of silently
        // restarting from scratch.
        let g = path_graph(12);
        let cfg = SolverConfig {
            faults: Some(FaultPlan::from_spec("crash_rank=0,crash_at_sync=3,seed=3").unwrap()),
            max_restores: 0,
            ..config(2)
        };
        assert_eq!(
            solve(&g, &[0, 11], &cfg).unwrap_err(),
            SteinerError::Unrecoverable { restores: 0 }
        );
    }

    #[test]
    fn deadline_exceeded_is_structured_and_dumps_flight() {
        // An unmeetable deadline trips the cooperative abort: every rank
        // terminates (no hang), the error is structured, and the flight
        // recorder preserves the partial progress record — for a batch
        // solve and for a job on a traced resident world, which must
        // then still serve.
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(53);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 6).copied().collect();
        let cfg = SolverConfig {
            deadline: Some(Duration::ZERO),
            trace: TraceConfig::ring(),
            ..config(3)
        };
        let world = PersistentWorld::new_with_config(
            3,
            WorldConfig {
                trace: cfg.trace,
                ..WorldConfig::default()
            },
        );
        let pg = Arc::new(partition_graph(&g, 3, None));
        for resident in [false, true] {
            let (outcome, dumps) = with_flight_dir("deadline_test", || {
                if resident {
                    solve_on(&world, &pg, &seeds, &cfg)
                } else {
                    solve(&g, &seeds, &cfg)
                }
            });
            assert_eq!(
                outcome.unwrap_err(),
                SteinerError::DeadlineExceeded { deadline_ms: 0 }
            );
            assert_eq!(dumps.len(), 1, "resident {resident}: {dumps:?}");
            let (name, doc) = &dumps[0];
            assert!(name.starts_with("FLIGHT_deadline"), "{name}");
            assert_eq!(report::validate_flight(doc), Ok(3));
        }
        let served = SolverConfig {
            deadline: None,
            ..cfg
        };
        assert!(solve_on(&world, &pg, &seeds, &served).is_ok());
    }

    #[test]
    fn star_finds_hub() {
        // Seeds on the triangle; hub 3 gives the optimum (total 6).
        let mut b = GraphBuilder::new(4);
        b.extend_edges([
            (0, 1, 4),
            (1, 2, 4),
            (0, 2, 4),
            (0, 3, 2),
            (1, 3, 2),
            (2, 3, 2),
        ]);
        let g = b.build();
        let report = solve(&g, &[0, 1, 2], &config(2)).unwrap();
        assert!(report.tree.validate(&g).is_ok());
        // 2-approx bound: <= 2 * (1 - 1/3) * 6 = 8.
        assert!(report.tree.total_distance() <= 8);
    }

    #[test]
    fn rank_count_does_not_change_tree() {
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(13);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 7).copied().collect();
        let reference = solve(&g, &seeds, &config(1)).unwrap();
        for p in [2, 3, 5, 8] {
            let r = solve(&g, &seeds, &config(p)).unwrap();
            assert_eq!(
                r.tree, reference.tree,
                "tree differs at {p} ranks (deterministic fixpoint violated)"
            );
        }
    }

    #[test]
    fn queue_kind_does_not_change_tree() {
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(17);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 6).copied().collect();
        let fifo = solve(
            &g,
            &seeds,
            &SolverConfig {
                num_ranks: 3,
                queue: QueueKind::Fifo,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        let prio = solve(
            &g,
            &seeds,
            &SolverConfig {
                num_ranks: 3,
                queue: QueueKind::Priority,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        assert_eq!(fifo.tree, prio.tree);
    }

    #[test]
    fn delegates_do_not_change_tree() {
        let g = stgraph::datasets::Dataset::Lvj.generate_tiny(23);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 6).copied().collect();
        let plain = solve(&g, &seeds, &config(4)).unwrap();
        let delegated = solve(
            &g,
            &seeds,
            &SolverConfig {
                num_ranks: 4,
                delegate_threshold: Some(16),
                ..SolverConfig::default()
            },
        )
        .unwrap();
        assert_eq!(plain.tree, delegated.tree);
    }

    #[test]
    fn default_config_runs_dist_boruvka() {
        let g = path_graph(8);
        let r = solve(&g, &[0, 3, 7], &SolverConfig::default()).unwrap();
        assert!(r.boruvka.is_some(), "the default pipeline is Borůvka");
        assert_eq!(r.run_report().config.mst_mode, "dist");
    }

    #[test]
    fn dist_mst_matches_replicated_prim() {
        // The tentpole's determinism contract: the Borůvka pipeline must
        // choose a tree bit-identical to the replicated Prim path, at
        // every rank count, and it must report its round counters.
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(53);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 7).copied().collect();
        let reference = solve(
            &g,
            &seeds,
            &SolverConfig {
                mst_mode: MstMode::Replicated,
                ..config(1)
            },
        )
        .unwrap();
        assert!(reference.boruvka.is_none(), "replicated reports no rounds");
        for p in [1, 2, 4] {
            let cfg = SolverConfig {
                mst_mode: MstMode::Dist,
                ..config(p)
            };
            let dist = solve(&g, &seeds, &cfg).unwrap();
            assert_eq!(dist.tree, reference.tree, "p={p}");
            let stats = dist.boruvka.expect("dist solve reports rounds");
            assert!(stats.rounds >= 1, "p={p}");
            assert_eq!(stats.components.last(), Some(&1), "p={p}: converged");
            assert_eq!(stats.edges_reduced.len(), stats.rounds as usize);
            // Geometric shrinkage: each round's slot vector is no larger
            // than the previous round's live-component count.
            for w in stats.components.windows(2) {
                assert!(w[1] <= w[0], "components must shrink: {:?}", stats);
            }
        }
    }

    #[test]
    fn dist_mst_crash_at_every_phase_recovers_bit_identical() {
        // Crash-stop coverage for the dist phase list: a crash in any
        // phase of a dist-mode solve must restore (bridges and round
        // counters included) and still match the replicated tree.
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(59);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 5).copied().collect();
        let clean = solve(
            &g,
            &seeds,
            &SolverConfig {
                mst_mode: MstMode::Replicated,
                ..config(3)
            },
        )
        .unwrap();
        for phase in MstMode::Dist.phases() {
            let spec = format!(
                "crash_rank=1,crash_at_sync=2,crash_phase={},seed=23",
                phase.index()
            );
            let cfg = SolverConfig {
                mst_mode: MstMode::Dist,
                faults: Some(FaultPlan::from_spec(&spec).unwrap()),
                ..config(3)
            };
            let r = solve(&g, &seeds, &cfg).unwrap();
            assert_eq!(r.tree, clean.tree, "phase {}", phase.name());
            assert_eq!(r.recovery.crashes_injected, 1, "phase {}", phase.name());
            assert_eq!(r.recovery.restores, 1, "phase {}", phase.name());
            let stats = r.boruvka.expect("round counters survive recovery");
            assert_eq!(stats.components.last(), Some(&1), "phase {}", phase.name());
        }
    }

    /// Dist runs only its four phases: the same tree and collectives as
    /// replicated, the two barrier-only phases' barriers gone, and zero
    /// time charged to the phases it skips.
    #[test]
    fn dist_skips_the_mst_and_pruning_phases() {
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(61);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 6).copied().collect();
        for p in [1, 3] {
            let run = |mst_mode| {
                let cfg = SolverConfig {
                    mst_mode,
                    ..config(p)
                };
                solve(&g, &seeds, &cfg).unwrap()
            };
            let (replicated, dist) = (run(MstMode::Replicated), run(MstMode::Dist));
            assert_eq!(dist.tree, replicated.tree, "p={p}");
            let (d, r) = (dist.sync_points, replicated.sync_points);
            assert_eq!(d.collectives, r.collectives, "p={p}");
            assert_eq!(d.barriers + 2, r.barriers, "p={p}");
            for skipped in [Phase::Mst, Phase::EdgePruning] {
                assert!(!MstMode::Dist.phases().contains(&skipped));
                assert_eq!(dist.phase_times[skipped], Duration::ZERO, "p={p}");
                assert!(!dist.message_counts.contains_key(skipped.name()));
            }
        }
        assert_eq!(MstMode::Replicated.phases(), &Phase::ALL);
    }

    #[test]
    fn refinement_never_increases_distance() {
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(31);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 8).copied().collect();
        let plain = solve(&g, &seeds, &config(2)).unwrap();
        let refined = solve(
            &g,
            &seeds,
            &SolverConfig {
                num_ranks: 2,
                refine: true,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        assert!(refined.tree.total_distance() <= plain.tree.total_distance());
        assert!(refined.tree.validate(&g).is_ok());
    }

    #[test]
    fn adversarial_scheduling_does_not_change_tree() {
        // Chaos test: random message processing order (simulated network
        // reordering) must not change the deterministic fixpoint.
        let g = stgraph::datasets::Dataset::Lvj.generate_tiny(41);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 8).copied().collect();
        let reference = solve(&g, &seeds, &config(3)).unwrap();
        for chaos_seed in [1u64, 42, 4096] {
            let r = solve(
                &g,
                &seeds,
                &SolverConfig {
                    num_ranks: 3,
                    queue: QueueKind::Adversarial { seed: chaos_seed },
                    ..SolverConfig::default()
                },
            )
            .unwrap();
            assert_eq!(r.tree, reference.tree, "chaos seed {chaos_seed}");
        }
    }

    #[test]
    fn report_contains_observability_data() {
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(37);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 5).copied().collect();
        let r = solve(&g, &seeds, &config(3)).unwrap();
        assert!(r.graph_bytes > 0);
        assert!(r.state_peak_bytes > 0);
        assert!(r.distance_graph_edges >= seeds.len() - 1);
        assert!(r.message_counts.contains_key("voronoi"));
        assert!(r.message_counts["voronoi"].total_msgs() > 0);
        assert_eq!(r.rank_phase_times.len(), 3);
    }
}

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod persistent_tests {
    use super::*;

    #[test]
    fn solve_on_matches_batch_solve() {
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(19);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 6).copied().collect();
        let cfg = SolverConfig {
            num_ranks: 3,
            ..SolverConfig::default()
        };
        let batch = solve(&g, &seeds, &cfg).unwrap();

        let world = PersistentWorld::new(3);
        let pg = Arc::new(partition_graph(&g, 3, None));
        // Several solves against the same resident world.
        for _ in 0..3 {
            let r = solve_on(&world, &pg, &seeds, &cfg).unwrap();
            assert_eq!(r.tree, batch.tree);
            assert!(r.message_counts["voronoi"].total_msgs() > 0);
        }
    }

    #[test]
    fn solve_on_different_seed_sets_back_to_back() {
        let g = stgraph::datasets::Dataset::Mco.generate_tiny(23);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let cfg = SolverConfig {
            num_ranks: 2,
            ..SolverConfig::default()
        };
        let world = PersistentWorld::new(2);
        let pg = Arc::new(partition_graph(&g, 2, None));
        for step in [13usize, 29, 47] {
            let seeds: Vec<Vertex> = verts.iter().step_by(step).copied().collect();
            let r = solve_on(&world, &pg, &seeds, &cfg).unwrap();
            assert!(r.tree.validate(&g).is_ok());
            let batch = solve(&g, &seeds, &cfg).unwrap();
            assert_eq!(r.tree, batch.tree, "step {step}");
        }
    }

    /// A 2-rank resident world over the Cts tiny graph, six seeds, and
    /// the batch tree to compare against.
    fn resident_fixture() -> (
        PersistentWorld,
        Arc<PartitionedGraph>,
        Vec<Vertex>,
        SolverConfig,
        SteinerTree,
    ) {
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(43);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 6).copied().collect();
        let cfg = SolverConfig {
            num_ranks: 2,
            ..SolverConfig::default()
        };
        let batch = solve(&g, &seeds, &cfg).unwrap().tree;
        let pg = Arc::new(partition_graph(&g, 2, None));
        (PersistentWorld::new(2), pg, seeds, cfg, batch)
    }

    #[test]
    fn solve_on_honours_a_zero_deadline() {
        let (world, pg, seeds, cfg, batch) = resident_fixture();
        let expired = SolverConfig {
            deadline: Some(Duration::ZERO),
            ..cfg
        };
        assert!(matches!(
            solve_on(&world, &pg, &seeds, &expired),
            Err(SteinerError::DeadlineExceeded { .. })
        ));
        assert_eq!(solve_on(&world, &pg, &seeds, &cfg).unwrap().tree, batch);
    }

    #[test]
    fn solve_on_recovers_a_crash_on_resident_ranks() {
        let (world, pg, seeds, cfg, batch) = resident_fixture();
        let crashing = SolverConfig {
            faults: Some(
                FaultPlan::from_spec("crash_rank=1,crash_after_visits=3,crash_phase=0,seed=7")
                    .unwrap(),
            ),
            ..cfg
        };
        let crashed = solve_on(&world, &pg, &seeds, &crashing).unwrap();
        assert_eq!(crashed.tree, batch, "recovered tree must match solve");
        assert_eq!(crashed.recovery.crashes_injected, 1);
        assert!(crashed.recovery.restores >= 1, "{:?}", crashed.recovery);
        let next = solve_on(&world, &pg, &seeds, &cfg).unwrap();
        assert_eq!(next.tree, batch, "the world must stay usable");
        assert_eq!(next.recovery, RecoveryStats::default());
    }

    #[test]
    fn solve_on_rejects_observability_the_world_lacks() {
        let (world, pg, seeds, cfg, _) = resident_fixture();
        let mismatches = [
            (
                "trace",
                SolverConfig {
                    trace: TraceConfig::ring(),
                    ..cfg
                },
            ),
            (
                "metrics",
                SolverConfig {
                    metrics: MetricsConfig::On,
                    ..cfg
                },
            ),
        ];
        for (field, bad) in mismatches {
            assert_eq!(
                solve_on(&world, &pg, &seeds, &bad).unwrap_err(),
                SteinerError::ResidentConfigMismatch { field }
            );
        }
    }
}

#[cfg(test)]
mod seed_validation_tests {
    use super::*;
    use stgraph::partition::partition_graph;

    #[test]
    fn solve_partitioned_dedups_and_range_checks() {
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(61);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let pg = partition_graph(&g, 2, None);
        let cfg = SolverConfig {
            num_ranks: 2,
            ..SolverConfig::default()
        };
        // Duplicate seeds previously corrupted the seed-index map and
        // produced a spurious SeedsDisconnected.
        let dup = vec![verts[0], verts[5], verts[0], verts[5], verts[9]];
        let r = solve_partitioned(&pg, &dup, &cfg).unwrap();
        assert_eq!(r.tree.seeds, vec![verts[0], verts[5], verts[9]]);
        assert!(r.tree.validate(&g).is_ok());
        // Out-of-range seeds are rejected, not panicked on.
        assert!(matches!(
            solve_partitioned(&pg, &[verts[0], 1_000_000], &cfg),
            Err(SteinerError::SeedOutOfRange(1_000_000))
        ));
    }

    /// Solves `g` on `p` ranks in both MST modes and checks each tree
    /// against the one-rank tree; returns the `p`-rank partition.
    fn assert_rank_count_keeps_tree(g: &CsrGraph, seeds: &[Vertex], p: usize) -> PartitionedGraph {
        let pg = partition_graph(g, p, None);
        for mst_mode in [MstMode::Dist, MstMode::Replicated] {
            let cfg = |num_ranks| SolverConfig {
                num_ranks,
                mst_mode,
                ..SolverConfig::default()
            };
            let one = solve_partitioned(&partition_graph(g, 1, None), seeds, &cfg(1)).unwrap();
            let many = solve_partitioned(&pg, seeds, &cfg(p)).unwrap();
            assert_eq!(many.tree, one.tree, "p={p} {mst_mode:?}");
            // Every rank runs the same sync points, halo exchange included.
            assert_eq!(many.sync_points, one.sync_points, "p={p} {mst_mode:?}");
        }
        pg
    }

    /// Ranks that own no vertex have nothing to mirror and no ghosts, and
    /// still join the one halo exchange.
    #[test]
    fn halo_exchange_with_more_ranks_than_vertices() {
        let mut b = stgraph::builder::GraphBuilder::new(5);
        for (u, v, w) in [
            (0, 1, 2),
            (1, 2, 1),
            (2, 3, 4),
            (3, 4, 1),
            (0, 4, 9),
            (1, 3, 3),
        ] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        for p in [1, 2, 4, 8] {
            let pg = assert_rank_count_keeps_tree(&g, &[0, 2, 4], p);
            if p == 8 {
                let idle = &pg.ranks[7];
                assert_eq!(idle.num_owned(), 0);
                assert!(idle.ghosts().is_empty());
                assert!((0..p).all(|q| idle.mirrors(q).is_empty()));
            }
        }
    }

    /// A seedless component spread over every rank: its ghosts stay
    /// unreached (no cell) through the halo exchange and the scan.
    #[test]
    fn halo_exchange_with_unreached_ghosts() {
        let n = 32;
        let mut b = stgraph::builder::GraphBuilder::new(n);
        // Even vertices form the seeded path, odd ones a seedless path.
        for v in 0..n as Vertex - 2 {
            b.add_edge(v, v + 2, Weight::from(v % 5 + 1));
        }
        b.add_edge(4, 20, 7);
        let g = b.build();
        for p in [1, 2, 4, 8] {
            let pg = assert_rank_count_keeps_tree(&g, &[0, 12, 30], p);
            let unreached_ghosts = pg
                .ranks
                .iter()
                .flat_map(|rg| rg.ghosts())
                .filter(|gh| gh.global % 2 == 1)
                .count();
            assert_eq!(unreached_ghosts > 0, p > 1, "p={p}");
        }
    }
}
