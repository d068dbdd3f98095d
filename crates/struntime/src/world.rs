//! The world machinery every rank thread runs, scoped ([`World`]) or
//! resident ([`crate::PersistentWorld`]): per-world setup, per-job setup,
//! the `catch_unwind` rank body and the supervisor. `World::run*` stays
//! scoped because its callers pass borrowing closures; a resident thread
//! can only run `'static` jobs.

use crate::counters::RankCounters;
use crate::failure::{self, CooperativeAbort, WorldFailure};
use crate::faults::{self, FaultInjector, FaultPlan};
use crate::memory::MemoryTracker;
use crate::metrics::{self, RankMetrics};
use crate::perturb::SchedulePerturber;
use crate::shared::Shared;
use crate::trace::{self, TraceBuffer};
use crate::{Comm, RankReport, RunOutput, WorldConfig};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A caught rank panic.
pub(crate) type Payload = Box<dyn Any + Send>;

/// Per-world state: built once, shared by every job the world runs.
pub(crate) struct WorldSetup {
    epoch: Instant,
    perturbers: Vec<Option<Arc<SchedulePerturber>>>,
    pub(crate) trace: Option<Vec<Arc<TraceBuffer>>>,
    pub(crate) metrics: Option<Vec<Arc<RankMetrics>>>,
}

impl WorldSetup {
    pub(crate) fn new(p: usize, config: &WorldConfig) -> Self {
        assert!(p >= 1, "need at least one rank");
        failure::install_quiet_abort_hook();
        // The world's clock origin for trace/metrics timestamps;
        // observability-only, never read back into solver control flow.
        // stcheck: allow(wallclock): timestamp origin, measurement only.
        let epoch = Instant::now();
        WorldSetup {
            epoch,
            perturbers: (0..p)
                .map(|rank| {
                    config
                        .perturb_seed
                        .map(|seed| Arc::new(SchedulePerturber::new(seed, rank)))
                })
                .collect(),
            trace: trace::make_buffers(p, config.trace, epoch),
            metrics: metrics::make_registries(p, config.metrics),
        }
    }

    pub(crate) fn num_ranks(&self) -> usize {
        self.perturbers.len()
    }
}

/// Per-job state: fresh for every job the world runs.
pub(crate) struct JobSetup {
    shared: Arc<Shared>,
    counters: Vec<Arc<RankCounters>>,
    memory: Vec<Arc<MemoryTracker>>,
    injectors: Option<Vec<Arc<FaultInjector>>>,
}

impl JobSetup {
    pub(crate) fn new(
        world: &WorldSetup,
        faults: Option<FaultPlan>,
        deadline: Option<Duration>,
    ) -> Self {
        let p = world.num_ranks();
        // Cooperative cancellation is inherently wall-clock; the deadline
        // never influences what a completed solve computes.
        // stcheck: allow(wallclock): arming the cooperative deadline.
        let deadline = deadline.map(|d| Instant::now() + d);
        let shared = Arc::new(Shared::new(p, world.epoch, deadline));
        JobSetup {
            counters: (0..p).map(|_| Arc::new(RankCounters::default())).collect(),
            memory: (0..p).map(|_| Arc::new(MemoryTracker::default())).collect(),
            injectors: faults::make_injectors(p, faults, &shared.faults),
            shared,
        }
    }

    /// Runs `f` as `rank` of this job. A panic is caught and classified
    /// here, on the dying rank's own thread, so the abort epoch it raises
    /// unblocks the survivors before this thread reports.
    pub(crate) fn run_rank<T>(
        &self,
        world: &WorldSetup,
        rank: usize,
        f: impl FnOnce(&mut Comm) -> T,
    ) -> Result<T, Payload> {
        let mut comm = Comm {
            rank,
            shared: Arc::clone(&self.shared),
            counters: Arc::clone(&self.counters[rank]),
            memory: Arc::clone(&self.memory[rank]),
            tag_counter: 0,
            perturb: world.perturbers[rank].clone(),
            trace: world.trace.as_ref().map(|b| Arc::clone(&b[rank])),
            metrics: world.metrics.as_ref().map(|m| Arc::clone(&m[rank])),
            faults: self.injectors.as_ref().map(|i| Arc::clone(&i[rank])),
            traversal_totals: [AtomicU64::new(0), AtomicU64::new(0)],
            lineage_seq: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
        };
        // stlint: catch-unwind-justify — rank isolation: a dying rank must
        // raise the abort epoch right here, before its thread reports, so
        // survivors unblock from barriers and collectives instead of
        // deadlocking the world; the payload is classified into a
        // RankFailure and surfaced by the supervisor.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
        if let Err(payload) = &result {
            self.shared.record_panic_payload(rank, payload.as_ref());
        }
        result
    }

    /// The supervisor: turns the per-rank results (in rank order) into a
    /// [`RunOutput`], or into a [`WorldFailure`] plus a flight dump.
    /// `drain` moves the world's traces and metrics into the output; a
    /// resident world's observers accumulate across jobs, so its flight
    /// dump reads the trace rings without resetting them.
    pub(crate) fn supervise<T>(
        &self,
        world: &WorldSetup,
        joined: Vec<Result<T, Payload>>,
        drain: bool,
    ) -> Result<RunOutput<T>, WorldFailure> {
        let shared = &self.shared;
        if joined.iter().any(Result::is_err) {
            // The abort epoch lets every rank report even after a
            // mid-phase crash, so the rings are quiescent for the dump.
            let deadline_exceeded = shared.deadline_exceeded.load(Ordering::SeqCst);
            let reason = if deadline_exceeded {
                "deadline"
            } else {
                "panic"
            };
            trace::write_flight_dump_env(&trace::drain_buffers(&world.trace, drain), reason);
            return Err(WorldFailure {
                failures: std::mem::take(&mut *shared.failures.lock()),
                aborted_ranks: shared.aborted_ranks.load(Ordering::SeqCst),
                deadline_exceeded,
                primary: joined
                    .into_iter()
                    .filter_map(Result::err)
                    .find(|p| !p.is::<CooperativeAbort>()),
            });
        }
        let reports = self
            .counters
            .iter()
            .zip(&self.memory)
            .map(|(counters, memory)| RankReport {
                counters: counters.snapshot(),
                peak_memory_bytes: memory.peak_total(),
                peak_memory_by_label: memory.peaks(),
                sync_points: counters.sync_points(),
            })
            .collect();
        let w = drain.then_some(world);
        Ok(RunOutput {
            results: joined.into_iter().flatten().collect(),
            reports,
            audit_violations: shared.audit.take_violations(),
            perturb_traces: world
                .perturbers
                .iter()
                .map(|p| p.as_ref().map(|p| p.trace()).unwrap_or_default())
                .collect(),
            trace: w
                .map(|w| trace::drain_buffers(&w.trace, true))
                .unwrap_or_default(),
            metrics: w
                .map(|w| metrics::drain_registries(&w.metrics))
                .unwrap_or_default(),
            fault_stats: shared.faults.snapshot(),
        })
    }
}

/// The simulated cluster.
pub struct World;

impl World {
    /// Spawns `p` ranks, runs `f` on each with its [`Comm`], and joins them.
    /// Panics in any rank propagate after all ranks are joined.
    pub fn run<T, F>(p: usize, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        Self::run_config(p, WorldConfig::default(), f)
    }

    /// [`World::run`] with explicit [`WorldConfig`] (schedule
    /// perturbation). Rank panics propagate — recovery supervisors should
    /// use [`World::try_run_config`] instead.
    pub fn run_config<T, F>(p: usize, config: WorldConfig, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        match Self::try_run_config(p, config, f) {
            Ok(out) => out,
            Err(wf) => std::panic::resume_unwind(wf.into_panic_payload()),
        }
    }

    /// [`World::run_config`] that survives rank death: every rank closure
    /// runs under `catch_unwind`; a dying rank raises the world's abort
    /// epoch so survivors unblock from barriers, collectives, and channel
    /// waits at their next sync point, every rank joins promptly, the
    /// trace rings are drained for a flight-recorder dump, and the
    /// run surfaces a structured [`WorldFailure`] instead of a panic.
    pub fn try_run_config<T, F>(
        p: usize,
        config: WorldConfig,
        f: F,
    ) -> Result<RunOutput<T>, WorldFailure>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let world = WorldSetup::new(p, &config);
        let job = JobSetup::new(&world, config.faults, config.deadline);
        let joined = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..p)
                .map(|rank| {
                    let (world, job, f) = (&world, &job, &f);
                    scope.spawn(move || job.run_rank(world, rank, f))
                })
                .collect();
            // Join every rank before reporting: the abort epoch
            // guarantees the stragglers arrive, and a full join means the
            // trace rings are quiescent and safe to drain.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(Err))
                .collect::<Vec<Result<T, Payload>>>()
        });
        job.supervise(&world, joined, true)
    }
}
