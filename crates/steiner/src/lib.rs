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
//! 4. **MST** of the small distance graph `G_1'` — already chosen by the
//!    Borůvka rounds, or sequential Prim ([`mst`]) replicated on every
//!    rank;
//! 5. **Edge pruning** — keep only bridges chosen by the MST;
//! 6. **Tree edges** ([`tree_edges`]) — trace predecessor chains back to
//!    the seeds (Alg 6).
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
pub mod interactive;
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
    FaultPlan, FaultSnapshot, Gauge, MetricKind, MetricsConfig, MetricsDump, PersistentWorld,
    QueueKind, TelemetryConfig, TelemetryDump, TraceConfig, TraceDump,
};

use distance_graph::{MinEdge, PairKey};
use state::VertexStates;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stgraph::csr::{CsrGraph, Vertex, Weight};
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

/// Configuration of one distributed solve.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Number of simulated ranks (MPI processes). Default 4.
    pub num_ranks: usize,
    /// Message-queue discipline for the Voronoi phase. Default priority
    /// (the paper's optimization; use FIFO to reproduce the baseline, or
    /// `Bucketed` for the delta-stepping bucket array — [`auto_delta`]
    /// gives the mean-edge-weight bucket width).
    pub queue: QueueKind,
    /// Degree threshold above which a vertex becomes a replicated delegate
    /// (HavoqGT vertex-cut). `None` disables delegation.
    pub delegate_threshold: Option<usize>,
    /// MST execution mode for the `global_min_edge` + `mst` phases:
    /// distributed Borůvka rounds (the default, see [`boruvka`]) or the
    /// paper's replicated dense reduction plus Prim (`--mst replicated`,
    /// Alg 3 Step 3). Both produce bit-identical trees.
    pub mst_mode: MstMode,
    /// Apply the optional KMB steps 4–5 refinement to the output tree.
    pub refine: bool,
    /// Visitors per aggregated network batch in the asynchronous phases
    /// (HavoqGT-style message aggregation; `1` disables it).
    pub batch_size: usize,
    /// Event-trace recording for the solve's world (off by default; see
    /// [`struntime::trace`]). When enabled, [`SolveReport::trace`] holds
    /// the per-rank event dump, renderable with
    /// [`TraceDump::to_chrome_trace`].
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
    /// Gauge time-series sampling for the solve's world (off by default;
    /// see [`struntime::telemetry`]). Sampling is keyed to executed
    /// visits, never wall clock, so enabling it leaves the tree and every
    /// counter bit-identical; the dump lands in [`SolveReport::telemetry`]
    /// and doubles as the flight recorder's payload on failure.
    pub telemetry: TelemetryConfig,
    /// Wall-clock deadline for the whole solve. When it expires, the
    /// ranks abort cooperatively at their next sync points and the solve
    /// returns [`SteinerError::DeadlineExceeded`]; with telemetry on and
    /// `FLIGHT_RECORDER_DIR` set, a flight dump preserves the partial
    /// progress record. `None` (the default) means no deadline.
    pub deadline: Option<Duration>,
    /// Snapshot per-rank state at every phase barrier so an injected
    /// crash-stop can be recovered by replaying from the last completed
    /// phase (see [`recovery`]). Snapshots are only actually taken when
    /// the fault plan is capable of crashing a rank, so fault-free solves
    /// pay nothing. Default true.
    pub checkpoints: bool,
    /// Restarts from a phase checkpoint the supervisor may perform before
    /// giving up with [`SteinerError::Unrecoverable`]. Default 2.
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
            batch_size: struntime::traversal::DEFAULT_BATCH_SIZE,
            trace: TraceConfig::Off,
            metrics: MetricsConfig::Off,
            faults: None,
            telemetry: TelemetryConfig::Off,
            deadline: None,
            checkpoints: true,
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
    /// Visitors processed per rank, summed over the asynchronous phases —
    /// the simulation's work metric.
    pub rank_work: Vec<u64>,
    /// Per-rank Voronoi relaxations that never became visits: dropped by
    /// the stale filter at queue admission or at pop (the ordered
    /// disciplines' decrease-key emulation; all-zero under
    /// FIFO/adversarial queues).
    pub stale_drops: Vec<u64>,
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
    /// Per-rank gauge time series (empty unless
    /// [`SolverConfig::telemetry`] was enabled). Feeds the
    /// [`RunReport`]'s `timeseries` section and per-phase peak-memory
    /// watermarks.
    pub telemetry: TelemetryDump,
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

struct RankOutcome {
    edges: Vec<(Vertex, Vertex, Weight)>,
    times: PhaseTimes,
    connected: bool,
    distance_graph_edges: usize,
    visitors_processed: u64,
    stale_dropped: u64,
    boruvka: Option<BoruvkaStats>,
}

/// The `bucketed:auto` delta heuristic: the graph's mean edge weight
/// (rounded down, at least 1) — the same choice as the sequential
/// delta-stepping baseline's `default_delta`, so the distributed bucketed
/// discipline and the sequential kernel bucket distances identically.
pub fn auto_delta(g: &CsrGraph) -> u64 {
    if g.num_arcs() == 0 {
        return 1;
    }
    let sum: u128 = g
        .vertices()
        .flat_map(|v| g.neighbor_weights(v))
        .map(|&w| w as u128)
        .sum();
    ((sum / g.num_arcs() as u128) as u64).max(1)
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
    let p = pg.ranks.len();
    assert_eq!(p, config.num_ranks, "partition/config rank mismatch");
    supervise(pg, &seeds, config, |faults, recovery| {
        let world_config = WorldConfig {
            trace: config.trace,
            metrics: config.metrics,
            faults,
            telemetry: config.telemetry,
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
/// leaves the world usable. Per world: trace, metrics and telemetry are
/// fixed when the world is built and accumulate across jobs (drain them
/// with [`PersistentWorld::finish_trace`] and its siblings), so the
/// report's `trace`, `metrics` and `telemetry` are empty, and a config
/// that differs from the world's in any of them is rejected with
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
        ("telemetry", config.telemetry != wc.telemetry),
    ];
    if let Some(&(field, _)) = differs.iter().find(|d| d.1) {
        return Err(SteinerError::ResidentConfigMismatch { field });
    }
    let seeds = Arc::new(check_seeds_against(pg.partition.num_vertices(), seeds)?);
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
    let recovery_armed = config.checkpoints
        && config.max_restores > 0
        && config.faults.is_some_and(|pl| pl.crash_armed());
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
        recovery.replayed_phases += (Phase::ALL.len() - completed) as u64;
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
    // Flight recorder: a failed solve dumps its telemetry ring (when
    // `FLIGHT_RECORDER_DIR` is set and telemetry was on) so the last
    // sampled gauge states survive for post-mortem analysis.
    if !out.audit_violations.is_empty() {
        struntime::write_flight_dump_env(&out.telemetry, "audit_failure");
    }
    let connected = out.results.iter().all(|r| r.connected);
    if !connected {
        struntime::write_flight_dump_env(&out.telemetry, "phase_failure");
        // Identify a concrete pair for the error message.
        return Err(first_disconnected_pair_of(pg, &seeds));
    }

    let p = pg.ranks.len();
    let mut all_edges = Vec::new();
    let mut phase_times = PhaseTimes::default();
    let mut rank_phase_times = Vec::with_capacity(p);
    let mut rank_work = Vec::with_capacity(p);
    let mut stale_drops = Vec::with_capacity(p);
    let mut dg_edges = 0;
    for r in &out.results {
        all_edges.extend_from_slice(&r.edges);
        phase_times = phase_times.max(&r.times);
        rank_phase_times.push(r.times);
        rank_work.push(r.visitors_processed);
        stale_drops.push(r.stale_dropped);
        dg_edges = dg_edges.max(r.distance_graph_edges);
    }
    // The Borůvka counters are replicated (every rank's rounds are
    // driven by identical allreduce results), so rank 0's copy
    // represents the solve.
    let boruvka = out.results.first().and_then(|r| r.boruvka.clone());
    let mut tree = SteinerTree::new(seeds, all_edges);
    if config.refine {
        tree = refine::refine(&tree);
    }
    let message_counts = out.merged_counters();
    let state_peak_bytes = out.total_peak_memory();
    Ok(SolveReport {
        tree,
        phase_times,
        rank_phase_times,
        message_counts,
        graph_bytes: pg.ranks.iter().map(|r| r.memory_bytes()).sum(),
        state_peak_bytes,
        distance_graph_edges: dg_edges,
        rank_work,
        stale_drops,
        config: *config,
        trace: out.trace,
        metrics: out.metrics,
        fault_stats: out.fault_stats,
        telemetry: out.telemetry,
        recovery,
        boruvka,
    })
}

fn first_disconnected_pair_of(_pg: &PartitionedGraph, seeds: &[Vertex]) -> SteinerError {
    // Rebuild reachability cheaply from rank 0's perspective is not
    // possible without the full graph; report the canonical first/last
    // pair. Callers needing the precise pair can use the sequential
    // baselines' diagnostics.
    SteinerError::SeedsDisconnected(seeds[0], *seeds.last().expect("non-empty"))
}

/// Serializes this rank's snapshot for the `completed`-phases boundary
/// into `store`, charging the blob to the rank's `"checkpoint"` memory
/// label. Called in straight-line code right after a phase's closing sync
/// point, so when a crash in phase `k+1` aborts the world, every rank has
/// already written (or will write before its next sync point) the level-k
/// snapshot — the store's level `k` is always restorable.
#[allow(clippy::too_many_arguments)]
fn put_checkpoint(
    comm: &Comm,
    store: &CheckpointStore,
    completed: usize,
    states: &VertexStates,
    times: &PhaseTimes,
    processed: u64,
    stale_dropped: u64,
    local: Option<&[(PairKey, MinEdge)]>,
    dg: Option<&[(PairKey, MinEdge)]>,
    chosen: Option<&[usize]>,
    dg_len: usize,
    bridges: Option<&[MinEdge]>,
    boruvka: Option<&BoruvkaStats>,
) {
    let blob = recovery::RankCheckpoint::encode(
        states,
        times,
        processed,
        stale_dropped,
        local,
        dg,
        chosen,
        dg_len,
        bridges,
        boruvka,
    );
    let new_len = blob.len();
    let old_len = store.put(completed, comm.rank(), blob);
    comm.memory().record("checkpoint", new_len);
    if old_len > 0 {
        comm.memory().release("checkpoint", old_len);
    }
}

fn rank_main(
    comm: &mut Comm,
    pg: &PartitionedGraph,
    seeds: &[Vertex],
    config: &SolverConfig,
    recovery: Option<&Resume>,
) -> RankOutcome {
    let (queue, mst_mode, batch_size) = (config.queue, config.mst_mode, config.batch_size);
    let rg = &pg.ranks[comm.rank()];
    let partition = &pg.partition;

    // Channel groups for the three asynchronous phases, opened up front in
    // identical order on every rank (also on a resumed run, so the channel
    // id space is identical to a fresh one).
    let chan_voronoi = comm.open_channels::<Vec<messages::VoronoiMsg>>(Phase::Voronoi.name());
    let chan_probe = comm.open_channels::<Vec<messages::ProbeMsg>>(Phase::LocalMinEdge.name());
    let chan_trace = comm.open_channels::<Vec<messages::TraceMsg>>(Phase::TreeEdge.name());

    let mut states = VertexStates::new(rg);
    comm.memory().record("vertex_state", states.memory_bytes());
    // Per-rank visitor scratch: allocated once here, reused by the phase
    // kernels so the hot path's steady state allocates nothing.
    let mut scratch = state::ScratchArena::new();

    let (store, resume) = match recovery {
        Some((store, resume)) => (Some(&**store), *resume),
        None => (None, None),
    };
    // Phases already completed by a previous (crashed) attempt; every
    // rank gets the same value from the supervisor, so the skipped
    // barriers and collectives stay in lockstep.
    let completed = resume.unwrap_or(0);

    let mut times = PhaseTimes::default();
    let mut processed = 0u64;
    let mut stale_dropped = 0u64;
    let mut local: Option<Vec<(PairKey, MinEdge)>> = None;
    let mut dg: Option<Vec<(PairKey, MinEdge)>> = None;
    let mut chosen: Option<Vec<usize>> = None;
    let mut dg_len = 0usize;
    let mut bridges: Option<Vec<MinEdge>> = None;
    let mut boruvka_stats: Option<BoruvkaStats> = None;

    if let Some(c) = resume {
        let store = store.expect("resume implies a checkpoint store");
        let blob = store
            .get(c, comm.rank())
            .expect("supervisor restores only complete checkpoint levels");
        let ck = recovery::RankCheckpoint::decode(&blob, &mut states)
            .expect("checkpoint taken under the same partitioning decodes");
        times = ck.times();
        processed = ck.processed;
        stale_dropped = ck.stale_dropped;
        local = ck.local;
        dg_len = ck.dg_len;
        dg = ck.dg;
        chosen = ck.chosen;
        bridges = ck.bridges;
        boruvka_stats = ck.boruvka;
    } else if let Some(store) = store {
        // Checkpoint 0: the initial state, so a crash inside the very
        // first phase is still recoverable.
        put_checkpoint(
            comm,
            store,
            0,
            &states,
            &times,
            processed,
            stale_dropped,
            None,
            None,
            None,
            0,
            None,
            None,
        );
    }

    // Step 1: Voronoi cells (Alg 4).
    if completed <= Phase::Voronoi.index() {
        let t = Instant::now();
        let span = comm.trace_span(Phase::Voronoi.name());
        comm.set_phase(Phase::Voronoi.name(), Phase::Voronoi.index() as u64);
        comm.telemetry_gauge("vertex_state_bytes", states.memory_bytes() as u64);
        let voronoi_stats = voronoi::run(
            comm,
            &chan_voronoi,
            rg,
            partition,
            &mut states,
            seeds,
            struntime::traversal::TraversalOptions { queue, batch_size },
            &mut scratch,
        );
        comm.telemetry_set(Gauge::ArenaBytes, scratch.memory_bytes() as u64);
        drop(span);
        times[Phase::Voronoi] = t.elapsed();
        processed += voronoi_stats.processed;
        stale_dropped += voronoi_stats.stale_dropped;
        if let Some(store) = store {
            put_checkpoint(
                comm,
                store,
                1,
                &states,
                &times,
                processed,
                stale_dropped,
                None,
                None,
                None,
                0,
                None,
                None,
            );
        }
    }

    // Step 2: local min-distance cross-cell edges (Alg 5, async part).
    if completed <= Phase::LocalMinEdge.index() {
        let t = Instant::now();
        let span = comm.trace_span(Phase::LocalMinEdge.name());
        comm.set_phase(
            Phase::LocalMinEdge.name(),
            Phase::LocalMinEdge.index() as u64,
        );
        let (l, probe_stats) =
            distance_graph::local_min_edges(comm, &chan_probe, rg, partition, &states, seeds);
        drop(span);
        times[Phase::LocalMinEdge] = t.elapsed();
        processed += probe_stats.processed;
        if let Some(store) = store {
            put_checkpoint(
                comm,
                store,
                2,
                &states,
                &times,
                processed,
                stale_dropped,
                Some(&l),
                None,
                None,
                0,
                None,
                None,
            );
        }
        local = Some(l);
    }

    // Step 3: global reduction (Alg 5, collective part) — or, in
    // `MstMode::Dist`, the fused Borůvka rounds ([`boruvka`]) that
    // reduce one slot per live component and merge via pointer jumping,
    // producing the chosen bridges directly. The dist checkpoint at
    // this level therefore stores bridges (plus the round counters)
    // instead of the distance graph.
    if completed <= Phase::GlobalMinEdge.index() {
        let t = Instant::now();
        let span = comm.trace_span(Phase::GlobalMinEdge.name());
        comm.set_phase(
            Phase::GlobalMinEdge.name(),
            Phase::GlobalMinEdge.index() as u64,
        );
        let l = local.take().expect("local min edges computed or restored");
        match mst_mode {
            MstMode::Replicated => {
                let d = distance_graph::global_min_edges(comm, &l, seeds.len());
                comm.telemetry_gauge("distance_graph_edges", d.len() as u64);
                drop(span);
                times[Phase::GlobalMinEdge] = t.elapsed();
                dg_len = d.len();
                if let Some(store) = store {
                    put_checkpoint(
                        comm,
                        store,
                        3,
                        &states,
                        &times,
                        processed,
                        stale_dropped,
                        None,
                        Some(&d),
                        None,
                        dg_len,
                        None,
                        None,
                    );
                }
                dg = Some(d);
            }
            MstMode::Dist => {
                let (keyed, stats) = boruvka::distributed_mst(comm, &l, seeds.len());
                comm.telemetry_gauge("distance_graph_edges", keyed.len() as u64);
                drop(span);
                times[Phase::GlobalMinEdge] = t.elapsed();
                dg_len = keyed.len();
                let b: Vec<MinEdge> = keyed.into_iter().map(|(_, e)| e).collect();
                if let Some(store) = store {
                    put_checkpoint(
                        comm,
                        store,
                        3,
                        &states,
                        &times,
                        processed,
                        stale_dropped,
                        None,
                        None,
                        None,
                        dg_len,
                        Some(&b),
                        Some(&stats),
                    );
                }
                boruvka_stats = Some(stats);
                bridges = Some(b);
            }
        }
    }

    // Step 4: MST of G_1' — sequential Prim replicated per rank; in
    // dist mode the merging already happened inside the Borůvka rounds,
    // so the phase reduces to its barrier, keeping the sync-point
    // structure and checkpoint levels identical across modes (every
    // rank shares `mst_mode` from the replicated config, so both arms
    // stay in lockstep).
    if completed <= Phase::Mst.index() {
        let t = Instant::now();
        let span = comm.trace_span(Phase::Mst.name());
        comm.set_phase(Phase::Mst.name(), Phase::Mst.index() as u64);
        let ch = match mst_mode {
            MstMode::Replicated => Some(mst::mst_of_distance_graph(
                seeds.len(),
                dg.as_deref().expect("distance graph computed or restored"),
            )),
            MstMode::Dist => None,
        };
        comm.barrier();
        drop(span);
        times[Phase::Mst] = t.elapsed();
        if let Some(store) = store {
            put_checkpoint(
                comm,
                store,
                4,
                &states,
                &times,
                processed,
                stale_dropped,
                None,
                dg.as_deref(),
                ch.as_deref(),
                dg_len,
                bridges.as_deref(),
                boruvka_stats.as_ref(),
            );
        }
        chosen = ch;
    }

    // A resumed run past the MST phase already passed this check in the
    // crashed attempt (a disconnected solve completes without crashing
    // and never restores), so absent artifacts mean spanning held. In
    // dist mode the Borůvka loop is its own spanning witness: exactly
    // `|S| - 1` chosen bridges iff the distance graph spans all seeds.
    let spans = match mst_mode {
        MstMode::Replicated => chosen
            .as_deref()
            .is_none_or(|ch| mst::spans_all_seeds(seeds.len(), ch)),
        MstMode::Dist => bridges
            .as_deref()
            .is_none_or(|b| b.len() + 1 == seeds.len()),
    };
    if !spans {
        return RankOutcome {
            edges: Vec::new(),
            times,
            connected: false,
            distance_graph_edges: dg_len,
            visitors_processed: processed,
            stale_dropped,
            boruvka: boruvka_stats,
        };
    }

    // Step 5: global edge pruning — keep only MST bridges. The Borůvka
    // winners already are exactly the MST bridges, so in dist mode this
    // phase, too, reduces to its barrier and checkpoint.
    if completed <= Phase::EdgePruning.index() {
        let t = Instant::now();
        let span = comm.trace_span(Phase::EdgePruning.name());
        comm.set_phase(Phase::EdgePruning.name(), Phase::EdgePruning.index() as u64);
        if mst_mode == MstMode::Replicated {
            bridges = Some(tree_edges::active_bridges(
                dg.as_deref().expect("distance graph live through pruning"),
                chosen.as_deref().expect("mst choices live through pruning"),
            ));
        }
        comm.barrier();
        drop(span);
        times[Phase::EdgePruning] = t.elapsed();
        if let Some(store) = store {
            // The distance graph and MST choices are consumed; only the
            // bridges (edge count, round counters) survive.
            put_checkpoint(
                comm,
                store,
                5,
                &states,
                &times,
                processed,
                stale_dropped,
                None,
                None,
                None,
                dg_len,
                bridges.as_deref(),
                boruvka_stats.as_ref(),
            );
        }
    }

    // Step 6: Steiner tree edges by predecessor tracing (Alg 6).
    let t = Instant::now();
    let span = comm.trace_span(Phase::TreeEdge.name());
    comm.set_phase(Phase::TreeEdge.name(), Phase::TreeEdge.index() as u64);
    let (edges, trace_stats) = tree_edges::run(
        comm,
        &chan_trace,
        partition,
        &mut states,
        bridges.as_deref().expect("bridges computed or restored"),
    );
    drop(span);
    times[Phase::TreeEdge] = t.elapsed();
    processed += trace_stats.processed;

    RankOutcome {
        edges,
        times,
        connected: true,
        distance_graph_edges: dg_len,
        visitors_processed: processed,
        stale_dropped,
        boruvka: boruvka_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph::builder::GraphBuilder;

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

    #[test]
    fn failed_solve_dumps_flight_recorder() {
        // Disconnected seeds under an active fault plan, with telemetry
        // on and FLIGHT_RECORDER_DIR pointed at a scratch dir: the solve
        // fails, and the telemetry ring must land on disk as a
        // schema-valid flight dump (what CI uploads on chaos failures).
        let mut b = GraphBuilder::new(6);
        b.extend_edges([(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)]);
        let g = b.build();
        let dir = std::env::temp_dir().join(format!("flight_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var(struntime::telemetry::FLIGHT_RECORDER_DIR_ENV, &dir);
        let cfg = SolverConfig {
            telemetry: TelemetryConfig::Ring {
                sample_every: 1,
                monitor: false,
            },
            faults: Some(FaultPlan::from_spec("drop=0.2,seed=5").unwrap()),
            ..config(2)
        };
        let outcome = solve(&g, &[0, 5], &cfg);
        std::env::remove_var(struntime::telemetry::FLIGHT_RECORDER_DIR_ENV);
        assert!(matches!(
            outcome,
            Err(SteinerError::SeedsDisconnected(_, _))
        ));
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("FLIGHT_phase_failure") && n.ends_with(".json"))
            })
            .collect();
        // A failed solve is not retried, so it leaves exactly one
        // schema-valid dump.
        assert_eq!(dumps.len(), 1, "expected one flight dump in {dir:?}");
        let doc = stgraph::json::parse(&std::fs::read_to_string(&dumps[0]).unwrap()).unwrap();
        assert_eq!(report::validate_flight(&doc), Ok(2));
        assert_eq!(
            doc.get("reason").and_then(|v| v.as_str()),
            Some("phase_failure")
        );
        std::fs::remove_dir_all(&dir).ok();
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
        // One crash per solver phase (via the phase filter), each
        // recovered from that phase's entry checkpoint.
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(47);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 5).copied().collect();
        let clean = solve(&g, &seeds, &config(3)).unwrap();
        for phase in Phase::ALL {
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
        }
    }

    #[test]
    fn crash_without_checkpoints_is_unrecoverable() {
        // The no-checkpoint mutant: with snapshots disabled the
        // supervisor must report the failure as unrecoverable instead of
        // silently restarting from scratch.
        let g = path_graph(12);
        let cfg = SolverConfig {
            faults: Some(FaultPlan::from_spec("crash_rank=0,crash_at_sync=3,seed=3").unwrap()),
            checkpoints: false,
            ..config(2)
        };
        assert_eq!(
            solve(&g, &[0, 11], &cfg).unwrap_err(),
            SteinerError::Unrecoverable { restores: 0 }
        );
        // Same with an exhausted restore budget.
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
        // recorder preserves the partial progress record.
        let g = stgraph::datasets::Dataset::Cts.generate_tiny(53);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 6).copied().collect();
        let dir = std::env::temp_dir().join(format!("deadline_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var(struntime::telemetry::FLIGHT_RECORDER_DIR_ENV, &dir);
        let cfg = SolverConfig {
            deadline: Some(Duration::ZERO),
            telemetry: TelemetryConfig::Ring {
                sample_every: 1,
                monitor: false,
            },
            ..config(3)
        };
        let outcome = solve(&g, &seeds, &cfg);
        std::env::remove_var(struntime::telemetry::FLIGHT_RECORDER_DIR_ENV);
        assert_eq!(
            outcome.unwrap_err(),
            SteinerError::DeadlineExceeded { deadline_ms: 0 }
        );
        let dump = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("FLIGHT_deadline") && n.ends_with(".json"))
            });
        assert!(dump.is_some(), "no deadline flight dump in {dir:?}");
        let doc = stgraph::json::parse(&std::fs::read_to_string(dump.unwrap()).unwrap()).unwrap();
        assert_eq!(report::validate_flight(&doc), Ok(3));
        std::fs::remove_dir_all(&dir).ok();
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
        // Crash-stop coverage for the new phase structure: a crash in
        // any phase of a dist-mode solve must restore (bridges and round
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
        for phase in Phase::ALL {
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
            (
                "telemetry",
                SolverConfig {
                    telemetry: TelemetryConfig::ring(),
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
mod batching_tests {
    use super::*;

    #[test]
    fn batch_size_does_not_change_tree_or_message_counts() {
        let g = stgraph::datasets::Dataset::Lvj.generate_tiny(47);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 9).copied().collect();
        let mut reference: Option<SolveReport> = None;
        for batch_size in [1usize, 4, 64, 4096] {
            let cfg = SolverConfig {
                num_ranks: 4,
                batch_size,
                ..SolverConfig::default()
            };
            let r = solve(&g, &seeds, &cfg).unwrap();
            if let Some(ref base) = reference {
                // The deterministic fixpoint absorbs the timing changes
                // batching introduces; visitor counts may shift (batching
                // reorders deliveries, changing wasted relaxations) but
                // the output cannot.
                assert_eq!(r.tree, base.tree, "batch {batch_size}");
            } else {
                reference = Some(r);
            }
        }
    }

    #[test]
    fn aggregation_reduces_batch_count() {
        let g = stgraph::datasets::Dataset::Lvj.generate_tiny(53);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 9).copied().collect();
        let batches = |batch_size: usize| {
            let cfg = SolverConfig {
                num_ranks: 4,
                batch_size,
                ..SolverConfig::default()
            };
            let r = solve(&g, &seeds, &cfg).unwrap();
            r.message_counts["voronoi"].remote_batches
        };
        let unbatched = batches(1);
        let batched = batches(64);
        assert!(
            batched < unbatched,
            "aggregation should cut batches: {batched} vs {unbatched}"
        );
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
}
