#![warn(missing_docs)]

//! # struntime — a simulated distributed message-passing runtime
//!
//! The paper's implementation runs on MPI + HavoqGT across up to 8K
//! processes. This crate reproduces that execution model on a single
//! machine: a [`World`] spawns one OS thread per *rank*; ranks own disjoint
//! graph partitions (see `stgraph::partition`), exchange typed visitor
//! messages through [`channels::ChannelGroup`]s, synchronize with MPI-style
//! [collectives](Comm::allreduce), and run HavoqGT-style asynchronous
//! vertex-centric traversals via [`traversal::run_traversal`] with either a
//! FIFO or a priority local message queue ([`queue::QueueKind`]).
//!
//! Everything the paper measures about its runtime — per-phase message
//! counts (Fig 6), queue-discipline effects (Fig 5), collective buffer
//! memory (Fig 8) — is observable here through [`counters`] and [`memory`].
//!
//! ```
//! use struntime::{World, QueueKind, run_traversal};
//!
//! // Four ranks pass a hop counter around a ring until it reaches 4.
//! let out = World::run(4, |comm| {
//!     let chan = comm.open_channels::<Vec<u32>>("ring");
//!     let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
//!     let mut seen = 0u32;
//!     run_traversal(comm, &chan, QueueKind::Fifo, |_| 0, init, |hops, pusher| {
//!         seen += 1;
//!         if hops < 4 {
//!             pusher.push((pusher.rank() + 1) % 4, hops + 1);
//!         }
//!     });
//!     seen
//! });
//! assert_eq!(out.results.iter().sum::<u32>(), 5);
//! ```

pub mod audit;
pub mod channels;
mod collective;
pub mod counters;
pub mod failure;
pub mod faults;
pub mod memory;
pub mod metrics;
pub mod persistent;
pub mod perturb;
pub mod queue;
pub mod shared;
pub mod trace;
pub mod traversal;
pub mod wire;
mod world;

pub use audit::AuditViolation;
pub use channels::ChannelGroup;
pub use counters::{merge_snapshots, PhaseSnapshot, SyncPoints};
pub use failure::{
    panic_message, CooperativeAbort, FailureReason, InjectedCrash, RankFailure, WorldFailure,
};
pub use faults::{FaultPlan, FaultSnapshot, FaultStats};
pub use metrics::{HistogramSnapshot, MetricKind, MetricsConfig, MetricsDump};
pub use persistent::PersistentWorld;
pub use perturb::{stress_schedules, PerturbAction, SchedulePerturber, SyncPoint, TraceEntry};
pub use queue::QueueKind;
pub use trace::{
    write_flight_dump, write_flight_dump_env, TraceConfig, TraceDump, TraceEvent, TraceEventKind,
    TraceSpan,
};
#[cfg(feature = "check")]
pub use traversal::run_traversal_mutant_premature;
pub use traversal::{
    queue_entry_bytes, run_traversal, run_traversal_config, run_traversal_filtered, Pusher,
    TraversalOptions, TraversalStats,
};
pub use wire::{DeepBytes, Wire};
pub use world::World;

use channels::GroupCtx;
use counters::RankCounters;
use faults::FaultInjector;
use memory::MemoryTracker;
use metrics::{PhaseMetrics, RankMetrics};
use shared::{ChannelSlot, Shared};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use trace::TraceBuffer;

/// A rank's handle to the world: identity, channels, collectives, counters.
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
    counters: Arc<RankCounters>,
    memory: Arc<MemoryTracker>,
    tag_counter: u64,
    perturb: Option<Arc<SchedulePerturber>>,
    trace: Option<Arc<TraceBuffer>>,
    metrics: Option<Arc<RankMetrics>>,
    faults: Option<Arc<FaultInjector>>,
    /// Visits and stale drops of this job's finished traversals, so the
    /// trace's `visits` and `stale_drops` counters run across the job.
    /// Updated only when tracing.
    traversal_totals: [AtomicU64; 2],
    /// Monotone per-rank lineage sequence; world-unique ids are
    /// `rank << 40 | seq` with seq starting at 1 (0 = "no message").
    /// The packing survives a round-trip through JSON's f64 numbers for
    /// up to 2^13 ranks x 2^40 messages (< 2^53).
    lineage_seq: AtomicU64,
    /// Nanoseconds this rank has spent blocked (see [`Comm::wait_time`]).
    wait_ns: AtomicU64,
}

impl Comm {
    /// This rank's id, in `0..num_ranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn num_ranks(&self) -> usize {
        self.shared.num_ranks
    }

    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Blocks until every rank reaches the barrier — or until the world's
    /// abort epoch is raised, in which case this rank unwinds with a
    /// [`CooperativeAbort`] instead of waiting for a dead peer.
    pub fn barrier(&self) {
        self.pause(SyncPoint::Barrier);
        self.counters.count_barrier();
        match self.shared.barrier.wait(&self.shared.abort) {
            Some(waited) => self.add_wait(waited),
            None => self.shared.poll_abort(self.rank),
        }
    }

    /// Time this rank has spent blocked since it started: in barriers,
    /// from its arrival to the release (collectives included, since they
    /// synchronize through barriers), and in traversals' idle set, from
    /// joining it to leaving it or to termination. It only grows, so a
    /// caller charges a span of work with the difference of two reads.
    /// Measured on every run at one clock read per barrier and per idle
    /// spell; it never feeds control flow.
    pub fn wait_time(&self) -> Duration {
        Duration::from_nanos(self.wait_ns.load(Ordering::Relaxed))
    }

    /// Adds `waited` to [`Comm::wait_time`].
    pub(crate) fn add_wait(&self, waited: Duration) {
        self.wait_ns
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
    }

    /// This rank's schedule perturber, when the world runs under
    /// [`World::run_config`] with a perturbation seed.
    pub fn perturber(&self) -> Option<&Arc<SchedulePerturber>> {
        self.perturb.as_ref()
    }

    /// The runtime's sync-point chokepoint: polls the abort epoch and
    /// deadline (unwinding cooperatively when either tripped), consumes
    /// one perturbation decision at `point` (no-op when the world is
    /// unperturbed), then gives the fault injector — when one is
    /// installed — a chance to stall this rank transiently or crash-stop
    /// it. The abort poll reads only atomics and never consumes a
    /// perturber decision, so arming it leaves schedules bit-identical.
    pub(crate) fn pause(&self, point: SyncPoint) {
        self.shared.poll_abort(self.rank);
        self.pause_past_last_barrier(point);
    }

    /// [`Comm::pause`] without the abort poll, for a collective's steps
    /// that run after its last barrier. Every peer has then reached the
    /// barrier, so no step waits on a dead one, and a rank finishes the
    /// collective and the straight-line code after it (a phase checkpoint
    /// write) before it unwinds at its next sync point. The perturbation
    /// and fault hooks still run, so `crash_at_sync` ordinals do not
    /// change.
    pub(crate) fn pause_past_last_barrier(&self, point: SyncPoint) {
        if let Some(p) = &self.perturb {
            p.pause(point);
        }
        if let Some(f) = &self.faults {
            f.maybe_stall(point);
            f.maybe_crash(point);
        }
    }

    /// Marks a solver phase transition in one call: updates this rank's
    /// failure-classification label and the crash injector's phase
    /// filter, and takes a boundary sample of the trace counters, so every
    /// phase span holds one even when the phase executes few visits.
    pub fn set_phase(&self, name: &'static str, index: u64) {
        self.shared.set_phase_label(self.rank, name);
        if let Some(f) = &self.faults {
            f.set_phase(index as usize);
        }
        self.trace_sample(0, 0, [0, 0]);
    }

    /// Per-visit crash-trigger hook; the traversal drain loop calls this
    /// after every executed visit (see
    /// [`faults::FaultPlan::crash_after_visits`]).
    pub(crate) fn fault_visit_tick(&self) {
        if let Some(f) = &self.faults {
            f.visit_tick();
        }
    }

    /// This rank's message counters.
    pub fn counters(&self) -> &RankCounters {
        &self.counters
    }

    /// This rank's memory ledger.
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    /// Opens a trace span named `name`; the span ends when the returned
    /// guard drops. A no-op guard when the world runs with
    /// [`TraceConfig::Off`] — the guard owns its buffer handle, so it can
    /// be held across calls that borrow this `Comm`.
    pub fn trace_span(&self, name: &'static str) -> TraceSpan {
        TraceSpan::begin(self.trace.as_ref(), name)
    }

    /// Records an instant event with a numeric payload (queue depth,
    /// batch size, …). A null check when tracing is off.
    pub fn trace_instant(&self, name: &'static str, arg: u64) {
        if let Some(buf) = &self.trace {
            buf.record(TraceEventKind::Instant, name, arg);
        }
    }

    /// Records a counter sample: `name` holds `v` until its next sample.
    /// Labels are static and unique across the workspace (the
    /// `trace-label-dup` lint enforces it). A null check when tracing is
    /// off.
    pub fn trace_counter(&self, name: &'static str, v: u64) {
        if let Some(buf) = &self.trace {
            buf.record(TraceEventKind::Counter, name, v);
        }
    }

    /// Samples the runtime's counters into the trace: the running
    /// traversal's queue depth and bytes (0 between traversals), this
    /// job's visits and stale drops, and the memory ledger's total.
    /// `running` holds the running traversal's own visits and stale drops
    /// so far. A null check when tracing is off.
    pub(crate) fn trace_sample(&self, queue_len: usize, queue_bytes: usize, running: [u64; 2]) {
        let Some(buf) = &self.trace else { return };
        let totals = &self.traversal_totals;
        buf.record_counters(&[
            ("queue_depth", queue_len as u64),
            ("queue_bytes", queue_bytes as u64),
            ("visits", totals[0].load(Ordering::Relaxed) + running[0]),
            (
                "stale_drops",
                totals[1].load(Ordering::Relaxed) + running[1],
            ),
            ("mem_total_bytes", self.memory.current_total() as u64),
        ]);
    }

    /// Adds a finished traversal's visits and stale drops to the job's
    /// totals and takes its closing sample, with the queue freed. A null
    /// check when tracing is off.
    pub(crate) fn trace_traversal_end(&self, done: [u64; 2]) {
        if self.trace.is_some() {
            for (total, n) in self.traversal_totals.iter().zip(done) {
                total.fetch_add(n, Ordering::Relaxed);
            }
            self.trace_sample(0, 0, [0, 0]);
        }
    }

    /// Records a raw event without constructing a guard (hot-path hooks
    /// like idle-transition edges in the traversal loop).
    pub(crate) fn trace_event(&self, kind: TraceEventKind, name: &'static str, arg: u64) {
        if let Some(buf) = &self.trace {
            buf.record(kind, name, arg);
        }
    }

    /// Records a two-payload event (lineage spawns carry child + parent).
    pub(crate) fn trace_event2(
        &self,
        kind: TraceEventKind,
        name: &'static str,
        arg: u64,
        arg2: u64,
    ) {
        if let Some(buf) = &self.trace {
            buf.record2(kind, name, arg, arg2);
        }
    }

    /// Whether any observability layer (tracing or metrics) is active —
    /// the gate the traversal uses before reading clocks or assigning
    /// lineage ids.
    pub(crate) fn observing(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Microseconds since the world's shared epoch.
    pub(crate) fn now_us(&self) -> u64 {
        self.shared.epoch.elapsed().as_micros() as u64
    }

    /// The next world-unique lineage id for a message this rank creates.
    pub(crate) fn next_lineage_id(&self) -> u64 {
        let seq = self.lineage_seq.fetch_add(1, Ordering::Relaxed) + 1;
        ((self.rank as u64) << 40) | seq
    }

    /// This phase's histogram set, when the world records metrics.
    pub(crate) fn metrics_phase(&self, phase: &'static str) -> Option<Arc<PhaseMetrics>> {
        self.metrics.as_ref().map(|m| m.phase(phase))
    }

    /// Collectively opens a typed all-to-all channel group. Every rank must
    /// call this in the same program order (tags are assigned from a local
    /// counter that advances identically on all ranks). Messages sent
    /// through the group are counted under `phase`.
    ///
    /// Lockstep is audited: if any rank registered this tag with a
    /// different visitor type or phase label — i.e. the ranks' programs
    /// diverged in their channel-open sequences — the call panics with a
    /// diagnostic naming the tag, both phase labels, and the expected vs.
    /// found visitor types.
    pub fn open_channels<V: Send + Clone + 'static>(
        &mut self,
        phase: &'static str,
    ) -> ChannelGroup<V> {
        let tag = self.tag_counter;
        self.tag_counter += 1;
        let p = self.num_ranks();
        let my_type = std::any::type_name::<V>();
        let (sender, receiver) = crossbeam::channel::unbounded::<channels::WireMsg<V>>();
        {
            let mut reg = self.shared.channel_registry.lock();
            let slots = reg
                .entry(tag)
                .or_insert_with(|| (0..p).map(|_| None).collect());
            slots[self.rank] = Some(ChannelSlot {
                sender: Box::new(sender),
                type_name: my_type,
                phase,
            });
        }
        self.barrier();
        let senders = {
            let reg = self.shared.channel_registry.lock();
            reg[&tag]
                .iter()
                .enumerate()
                .map(|(r, slot)| {
                    let slot = match slot {
                        Some(s) => s,
                        None => panic!(
                            "channel lockstep violation: tag {tag}, phase \"{phase}\": \
                             rank {r} registered no endpoint before the barrier \
                             (ranks must call open_channels in identical program order)"
                        ),
                    };
                    if slot.phase != phase {
                        panic!(
                            "channel lockstep violation: tag {tag}: rank {me} opened \
                             phase \"{phase}\" but rank {r} opened phase \"{other}\" \
                             (ranks must call open_channels in identical program order)",
                            me = self.rank,
                            other = slot.phase,
                        );
                    }
                    match slot
                        .sender
                        .downcast_ref::<crossbeam::channel::Sender<channels::WireMsg<V>>>()
                    {
                        Some(s) => s.clone(),
                        None => panic!(
                            "channel type mismatch: tag {tag}, phase \"{phase}\": \
                             rank {me} expects visitor type `{my_type}` but rank {r} \
                             registered `{found}`",
                            me = self.rank,
                            found = slot.type_name,
                        ),
                    }
                })
                .collect::<Vec<_>>()
        };
        self.barrier();
        if self.rank == 0 {
            self.shared.channel_registry.lock().remove(&tag);
        }
        let ctx = GroupCtx {
            shared: Arc::clone(&self.shared),
            perturb: self.perturb.clone(),
            faults: self.faults.clone(),
            trace: self.trace.clone(),
            phase,
        };
        ChannelGroup::new(
            self.rank,
            senders,
            receiver,
            self.counters.phase(phase),
            ctx,
        )
    }
}

/// Per-rank observability data returned alongside the rank results.
#[derive(Clone, Debug)]
pub struct RankReport {
    /// Per-phase message counters.
    pub counters: BTreeMap<&'static str, PhaseSnapshot>,
    /// Peak algorithm-state bytes, total.
    pub peak_memory_bytes: usize,
    /// Peak algorithm-state bytes per label.
    pub peak_memory_by_label: BTreeMap<&'static str, usize>,
    /// Barriers and collectives the rank crossed.
    pub sync_points: SyncPoints,
}

/// Everything a [`World::run`] produces.
#[derive(Clone, Debug)]
pub struct RunOutput<T> {
    /// Each rank closure's return value, indexed by rank.
    pub results: Vec<T>,
    /// Each rank's counters and memory peaks, indexed by rank.
    pub reports: Vec<RankReport>,
    /// Protocol-audit violations recorded during the run. Always empty
    /// unless the crate was built with the `check` feature (see
    /// [`audit`]).
    pub audit_violations: Vec<AuditViolation>,
    /// Per-rank perturbation traces (first [`perturb::TRACE_CAP`]
    /// decisions); empty vectors when the world ran unperturbed.
    pub perturb_traces: Vec<Vec<TraceEntry>>,
    /// Event traces drained from every rank at teardown. Empty unless the
    /// world ran with [`TraceConfig::Ring`].
    pub trace: TraceDump,
    /// Latency histograms drained from every rank at teardown. Empty
    /// unless the world ran with [`MetricsConfig::On`].
    pub metrics: MetricsDump,
    /// Fault-injection and reliability-protocol counters summed over all
    /// ranks; all-zero when the world ran without a [`FaultPlan`].
    pub fault_stats: FaultSnapshot,
}

impl<T> RunOutput<T> {
    /// The drained event trace, ready for
    /// [`TraceDump::to_chrome_trace`]. (The `World` handle itself is
    /// consumed by `run`, so the trace travels with the output.)
    pub fn finish_trace(&self) -> TraceDump {
        self.trace.clone()
    }

    /// The drained latency metrics, ready for
    /// [`MetricsDump::quantiles_json`].
    pub fn finish_metrics(&self) -> MetricsDump {
        self.metrics.clone()
    }

    /// Cluster-wide per-phase message counts (sum over ranks).
    pub fn merged_counters(&self) -> BTreeMap<&'static str, PhaseSnapshot> {
        let snaps: Vec<_> = self.reports.iter().map(|r| r.counters.clone()).collect();
        merge_snapshots(&snaps)
    }

    /// Cluster-wide peak algorithm-state bytes (sum of per-rank peaks —
    /// Fig 8 reports cluster-wide peaks the same way).
    pub fn total_peak_memory(&self) -> usize {
        self.reports.iter().map(|r| r.peak_memory_bytes).sum()
    }
}

/// Configuration for [`World::run_config`] and
/// [`PersistentWorld::new_with_config`] (where `faults` and `deadline`
/// apply afresh to every job).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldConfig {
    /// When set, every rank runs with a [`SchedulePerturber`] derived from
    /// this seed: sync points across the runtime yield or spin according
    /// to a deterministic per-rank ChaCha stream, widening the explored
    /// schedule space. Same seed ⇒ same decision streams (see
    /// [`perturb`]).
    pub perturb_seed: Option<u64>,
    /// Event-trace recording (off by default; see [`trace`]).
    pub trace: TraceConfig,
    /// Latency-histogram recording (off by default; see [`metrics`]).
    pub metrics: MetricsConfig,
    /// Deterministic fault injection (off by default; see [`faults`]).
    /// When set *and* [`FaultPlan::is_active`], every rank gets a
    /// [`faults::FaultInjector`] seeded from the plan, and the channel
    /// layer runs its reliability protocol (see [`channels`]).
    pub faults: Option<FaultPlan>,
    /// Cooperative world deadline (off by default). When set, every sync
    /// point polls the deadline; the first rank to observe expiry records
    /// a [`FailureReason::DeadlineExceeded`] primary failure and the
    /// abort epoch unwinds everyone else, so [`World::try_run_config`]
    /// returns a [`WorldFailure`] with `deadline_exceeded` set instead of
    /// hanging. Resolution is "the next sync point", not preemption.
    pub deadline: Option<std::time::Duration>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| comm.rank());
        assert_eq!(out.results, vec![0]);
    }

    #[test]
    fn ranks_are_distinct() {
        let out = World::run(4, |comm| comm.rank());
        let mut ranks = out.results.clone();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn barrier_synchronizes() {
        let counter = AtomicUsize::new(0);
        World::run(4, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must see all four increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn point_to_point_messages() {
        let out = World::run(3, |comm| {
            let chan = comm.open_channels::<usize>("p2p");
            // Each rank sends its id to the next rank.
            chan.send((comm.rank() + 1) % 3, comm.rank());
            comm.barrier();
            let got = chan.try_recv().expect("message waiting after barrier");
            (got + 1) % 3 == comm.rank()
        });
        assert!(out.results.iter().all(|&ok| ok));
    }

    #[test]
    fn allreduce_min_agrees_with_sequential() {
        let out = World::run(4, |comm| {
            let mut data = vec![
                (comm.rank() as u64 + 3) % 4,
                10 - comm.rank() as u64,
                comm.rank() as u64,
            ];
            comm.allreduce_min(&mut data);
            data
        });
        for r in &out.results {
            assert_eq!(r, &vec![0, 7, 0]);
        }
    }

    #[test]
    fn allreduce_sum() {
        let out = World::run(5, |comm| {
            let mut data = vec![1u64, comm.rank() as u64];
            comm.allreduce_sum(&mut data);
            data
        });
        for r in &out.results {
            assert_eq!(r, &vec![5, 10]);
        }
    }

    #[test]
    fn broadcast_distributes_roots_value() {
        let out = World::run(4, |comm| {
            let v = if comm.rank() == 2 {
                Some(vec![9u64, 8, 7])
            } else {
                None
            };
            comm.broadcast(2, v)
        });
        for r in &out.results {
            assert_eq!(r, &vec![9, 8, 7]);
        }
    }

    #[test]
    fn consecutive_collectives_do_not_interfere() {
        let out = World::run(3, |comm| {
            let mut a = vec![comm.rank() as u64];
            comm.allreduce_sum(&mut a);
            let mut b = vec![comm.rank() as u64 + 10];
            comm.allreduce_min(&mut b);
            (a[0], b[0])
        });
        for &(s, m) in &out.results {
            assert_eq!((s, m), (3, 10));
        }
    }

    #[test]
    fn traversal_token_ring_terminates() {
        let p = 4;
        let out = World::run(p, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("ring");
            let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
            let mut seen = 0u32;
            run_traversal(
                comm,
                &chan,
                QueueKind::Fifo,
                |_| 0,
                init,
                |hops, pusher| {
                    seen += 1;
                    if (hops as usize) < 2 * p {
                        pusher.push((pusher.rank() + 1) % p, hops + 1);
                    }
                },
            );
            seen
        });
        assert_eq!(out.results.iter().sum::<u32>(), 2 * p as u32 + 1);
    }

    #[test]
    fn traversal_with_no_work_terminates() {
        let out = World::run(4, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("empty");
            let stats = run_traversal(comm, &chan, QueueKind::Priority, |_| 0, [], |_, _| {});
            stats.processed
        });
        assert_eq!(out.results.iter().sum::<u64>(), 0);
    }

    #[test]
    fn traversal_flood_reaches_every_rank() {
        let p = 5usize;
        let out = World::run(p, |comm| {
            let chan = comm.open_channels::<Vec<u8>>("flood");
            let init = if comm.rank() == 0 { vec![0u8] } else { vec![] };
            let mut processed = 0u64;
            run_traversal(
                comm,
                &chan,
                QueueKind::Fifo,
                |_| 0,
                init,
                |gen, pusher| {
                    processed += 1;
                    if gen == 0 {
                        for d in 0..p {
                            pusher.push(d, 1u8);
                        }
                    }
                },
            );
            processed
        });
        // Rank 0's seed plus one flood message per rank.
        assert_eq!(out.results.iter().sum::<u64>(), 1 + p as u64);
        assert!(out.results.iter().all(|&c| c >= 1));
    }

    #[test]
    fn back_to_back_traversals() {
        let out = World::run(3, |comm| {
            let chan1 = comm.open_channels::<Vec<u32>>("first");
            let chan2 = comm.open_channels::<Vec<u32>>("second");
            let mut count = 0u32;
            let init = if comm.rank() == 0 { vec![5u32] } else { vec![] };
            run_traversal(
                comm,
                &chan1,
                QueueKind::Fifo,
                |_| 0,
                init,
                |v, pusher| {
                    count += v;
                    if v > 1 {
                        pusher.push((pusher.rank() + 1) % 3, v - 1);
                    }
                },
            );
            let init = if comm.rank() == 2 { vec![3u32] } else { vec![] };
            run_traversal(
                comm,
                &chan2,
                QueueKind::Priority,
                |&v| v as u64,
                init,
                |v, pusher| {
                    count += v * 10;
                    if v > 1 {
                        pusher.push((pusher.rank() + 1) % 3, v - 1);
                    }
                },
            );
            count
        });
        // First: 5+4+3+2+1 = 15. Second: (3+2+1)*10 = 60.
        let total: u32 = out.results.iter().sum();
        assert_eq!(total, 75);
    }

    #[test]
    fn counters_attribute_phases() {
        let out = World::run(2, |comm| {
            let chan = comm.open_channels::<u32>("phase_a");
            chan.send(1 - comm.rank(), 1);
            comm.barrier();
            while chan.try_recv().is_some() {}
        });
        let merged = out.merged_counters();
        assert_eq!(merged["phase_a"].remote_msgs, 2);
    }

    #[test]
    fn memory_reports_propagate() {
        let out = World::run(2, |comm| {
            comm.memory().record("state", 1000 * (comm.rank() + 1));
        });
        assert_eq!(out.total_peak_memory(), 1000 + 2000);
        assert_eq!(out.reports[1].peak_memory_by_label["state"], 2000);
    }

    #[test]
    fn priority_traversal_processes_in_order_single_rank() {
        let out = World::run(1, |comm| {
            let chan = comm.open_channels::<Vec<u64>>("prio");
            let mut order = Vec::new();
            run_traversal(
                comm,
                &chan,
                QueueKind::Priority,
                |&v| v,
                vec![5u64, 1, 3, 2, 4],
                |v, _| order.push(v),
            );
            order
        });
        assert_eq!(out.results[0], vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn tracing_off_by_default_yields_empty_dump() {
        let out = World::run(3, |comm| {
            let _span = comm.trace_span("phase");
            comm.trace_instant("sample", 7);
            comm.rank()
        });
        assert!(out.trace.is_empty());
        assert!(out.finish_trace().ranks.is_empty());
    }

    #[test]
    fn world_trace_captures_per_rank_events() {
        let config = WorldConfig {
            trace: trace::TraceConfig::ring(),
            ..WorldConfig::default()
        };
        let out = World::run_config(4, config, |comm| {
            let _span = comm.trace_span("work");
            comm.trace_instant("sample", comm.rank() as u64);
        });
        assert_eq!(out.trace.ranks.len(), 4);
        for (rank, rt) in out.trace.ranks.iter().enumerate() {
            assert_eq!(rt.rank, rank);
            assert_eq!(rt.dropped, 0);
            let kinds: Vec<_> = rt.events.iter().map(|e| (e.kind, e.name)).collect();
            assert_eq!(
                kinds,
                vec![
                    (TraceEventKind::SpanBegin, "work"),
                    (TraceEventKind::Instant, "sample"),
                    (TraceEventKind::SpanEnd, "work"),
                ]
            );
            assert_eq!(rt.events[1].arg, rank as u64);
        }
        let text = out.finish_trace().to_chrome_trace();
        assert!(text.contains("\"traceEvents\""));
    }

    #[test]
    fn traversal_trace_has_paired_idle_spans() {
        let config = WorldConfig {
            trace: trace::TraceConfig::ring(),
            ..WorldConfig::default()
        };
        let p = 3;
        let out = World::run_config(p, config, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("ring");
            let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
            run_traversal(
                comm,
                &chan,
                QueueKind::Fifo,
                |_| 0,
                init,
                |hops, pusher| {
                    if (hops as usize) < 2 * p {
                        pusher.push((pusher.rank() + 1) % p, hops + 1);
                    }
                },
            );
        });
        for rt in &out.trace.ranks {
            let mut depth: i64 = 0;
            let mut idle_depth: i64 = 0;
            for ev in &rt.events {
                let d = match ev.kind {
                    TraceEventKind::SpanBegin => 1,
                    TraceEventKind::SpanEnd => -1,
                    _ => 0,
                };
                depth += d;
                if ev.name == "idle" {
                    idle_depth += d;
                    assert!((0..=1).contains(&idle_depth), "idle spans must not nest");
                }
                assert!(depth >= 0, "span end without begin");
            }
            assert_eq!(depth, 0, "rank {}: unbalanced spans", rt.rank);
            assert_eq!(idle_depth, 0, "rank {}: idle span left open", rt.rank);
            assert!(
                rt.events.iter().any(|e| e.name == "traversal"),
                "rank {}: traversal span missing",
                rt.rank
            );
        }
        // Some rank shipped a batch, so the flush instant must appear.
        assert!(out
            .trace
            .ranks
            .iter()
            .any(|rt| rt.events.iter().any(|e| e.name == "batch_flush")));
    }

    #[test]
    fn allreduce_slot_clone_is_charged_to_rank_0() {
        let out = World::run(3, |comm| {
            let mut data = vec![comm.rank() as u64; 1000];
            comm.allreduce_min(&mut data);
        });
        // Rank 0 temporarily holds the shared-slot clone of the whole
        // buffer: 1000 u64s = 8000 bytes. Other ranks never allocate it.
        assert_eq!(out.reports[0].peak_memory_by_label["collective_slot"], 8000);
        assert!(!out.reports[1]
            .peak_memory_by_label
            .contains_key("collective_slot"));
        assert!(!out.reports[2]
            .peak_memory_by_label
            .contains_key("collective_slot"));
        // Every rank still records its own reduction buffer.
        assert_eq!(
            out.reports[1].peak_memory_by_label["collective_buffer"],
            8000
        );
    }

    #[test]
    fn broadcast_slot_is_charged_to_root() {
        let out = World::run(3, |comm| {
            let v = if comm.rank() == 1 {
                Some([0u8; 256])
            } else {
                None
            };
            comm.broadcast(1, v);
        });
        assert_eq!(out.reports[1].peak_memory_by_label["collective_slot"], 256);
        assert!(!out.reports[0]
            .peak_memory_by_label
            .contains_key("collective_slot"));
    }

    #[test]
    fn lineage_spawns_cover_visits_with_unique_ids() {
        let p = 3;
        let config = WorldConfig {
            trace: trace::TraceConfig::ring(),
            metrics: MetricsConfig::On,
            ..WorldConfig::default()
        };
        let out = World::run_config(p, config, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("ring");
            let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
            run_traversal(
                comm,
                &chan,
                QueueKind::Fifo,
                |_| 0,
                init,
                |hops, pusher| {
                    if (hops as usize) < 3 * p {
                        pusher.push((pusher.rank() + 1) % p, hops + 1);
                    }
                },
            )
        });
        let mut spawns: Vec<(u64, u64)> = Vec::new(); // (id, parent)
        let mut visits: Vec<u64> = Vec::new();
        for rt in &out.trace.ranks {
            for ev in &rt.events {
                match ev.kind {
                    TraceEventKind::Spawn => spawns.push((ev.arg, ev.arg2)),
                    TraceEventKind::Visit => visits.push(ev.arg),
                    _ => {}
                }
            }
        }
        let total_processed: u64 = out.results.iter().map(|s| s.processed).sum();
        assert_eq!(visits.len() as u64, total_processed);
        assert_eq!(spawns.len(), visits.len(), "every message spawned once");
        let mut ids: Vec<u64> = spawns.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), spawns.len(), "lineage ids are unique");
        let spawned: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert!(visits.iter().all(|id| spawned.contains(id)));
        assert!(visits.iter().all(|&id| id != 0));
        // Exactly one root: rank 0's seed.
        assert_eq!(spawns.iter().filter(|&&(_, p)| p == 0).count(), 1);
        // Non-root parents must themselves be spawned messages.
        assert!(spawns
            .iter()
            .filter(|&&(_, p)| p != 0)
            .all(|&(_, p)| spawned.contains(&p)));
    }

    #[test]
    fn metrics_capture_traversal_signals() {
        let p = 2;
        let config = WorldConfig {
            metrics: MetricsConfig::On,
            ..WorldConfig::default()
        };
        let out = World::run_config(p, config, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("ping");
            let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
            run_traversal(
                comm,
                &chan,
                QueueKind::Fifo,
                |_| 0,
                init,
                |hops, pusher| {
                    if hops < 10 {
                        pusher.push((pusher.rank() + 1) % p, hops + 1);
                    }
                },
            )
        });
        assert!(!out.metrics.is_empty());
        let agg = out.finish_metrics().aggregate();
        let ping = &agg["ping"];
        let total_processed: u64 = out.results.iter().map(|s| s.processed).sum();
        assert_eq!(
            ping.hist(MetricKind::VisitServiceUs).count(),
            total_processed
        );
        assert_eq!(
            ping.hist(MetricKind::QueueResidencyUs).count(),
            total_processed
        );
        // Ten one-visitor batches crossed the wire (hops 1..=10 alternate
        // ranks), each recorded once as a batch and once as a latency.
        assert_eq!(ping.hist(MetricKind::BatchSize).count(), 10);
        assert_eq!(ping.hist(MetricKind::MsgLatencyUs).count(), 10);
        assert_eq!(ping.hist(MetricKind::BatchSize).quantile(1.0), 1);
    }

    #[test]
    fn metrics_off_dump_is_empty_and_counters_match_on() {
        let run = |metrics: MetricsConfig| {
            let config = WorldConfig {
                metrics,
                ..WorldConfig::default()
            };
            World::run_config(2, config, |comm| {
                let chan = comm.open_channels::<Vec<u32>>("cmp");
                let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
                run_traversal(
                    comm,
                    &chan,
                    QueueKind::Priority,
                    |&v| v as u64,
                    init,
                    |hops, pusher| {
                        if hops < 6 {
                            pusher.push((pusher.rank() + 1) % 2, hops + 1);
                        }
                    },
                )
            })
        };
        let off = run(MetricsConfig::Off);
        let on = run(MetricsConfig::On);
        assert!(off.metrics.is_empty());
        assert!(!on.metrics.is_empty());
        let off_counts = off.merged_counters();
        let on_counts = on.merged_counters();
        assert_eq!(off_counts["cmp"].remote_msgs, on_counts["cmp"].remote_msgs);
        assert_eq!(off_counts["cmp"].local_msgs, on_counts["cmp"].local_msgs);
        assert_eq!(
            off.results.iter().map(|s| s.processed).sum::<u64>(),
            on.results.iter().map(|s| s.processed).sum::<u64>()
        );
    }

    #[test]
    fn traversal_stats_track_processing() {
        let out = World::run(2, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("stats");
            let init = if comm.rank() == 0 {
                vec![1u32, 2, 3]
            } else {
                vec![]
            };
            run_traversal(comm, &chan, QueueKind::Fifo, |_| 0, init, |_, _| {})
        });
        let total: u64 = out.results.iter().map(|s| s.processed).sum();
        assert_eq!(total, 3);
        assert!(out.results[0].peak_queue_len >= 2);
    }

    #[test]
    fn peak_queue_len_counts_init_seeding() {
        let out = World::run(1, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("seed_peak");
            run_traversal(
                comm,
                &chan,
                QueueKind::Fifo,
                |_| 0,
                (0..10u32).collect::<Vec<_>>(),
                |_, _| {},
            )
        });
        // All ten seeds are queued before the first visit; the old
        // after-a-visit-only sample reported 9.
        assert_eq!(out.results[0].peak_queue_len, 10);
        assert!(out.results[0].peak_queue_bytes > 0);
    }

    #[test]
    fn peak_queue_len_counts_inbound_batch_drain() {
        let out = World::run(2, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("drain_peak");
            let options = TraversalOptions {
                queue: QueueKind::Fifo,
                batch_size: 8,
            };
            let init: Vec<u32> = if comm.rank() == 0 {
                (0..8).collect()
            } else {
                vec![]
            };
            run_traversal_config(
                comm,
                &chan,
                options,
                |_| 0,
                init,
                |v, pusher| {
                    // Rank 0 forwards each seed to rank 1; with batch_size 8
                    // they ship as one batch that lands on rank 1's queue in
                    // full before any visit there.
                    if pusher.rank() == 0 {
                        pusher.push(1, v + 100);
                    }
                },
            )
        });
        // The drain-time sample sees all 8; the old after-a-visit sample
        // could only ever see 7.
        assert_eq!(out.results[1].peak_queue_len, 8);
    }

    #[test]
    fn traced_world_samples_counters_inside_phase_spans() {
        let config = WorldConfig {
            trace: TraceConfig::ring(),
            ..WorldConfig::default()
        };
        let out = World::run_config(2, config, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("counter_world");
            let span = comm.trace_span("work");
            comm.set_phase("work", 7);
            let init: Vec<u32> = if comm.rank() == 0 {
                (0..16).collect()
            } else {
                vec![]
            };
            let stats = run_traversal(
                comm,
                &chan,
                QueueKind::Fifo,
                |_| 0,
                init,
                |v, pusher| {
                    if v < 100 {
                        pusher.push((v as usize + 1) % 2, v + 100);
                    }
                },
            );
            comm.trace_counter("finished", 1);
            drop(span);
            stats.processed
        });
        for (rt, &processed) in out.trace.ranks.iter().zip(&out.results) {
            let counter = |name: &str| {
                rt.events
                    .iter()
                    .rev()
                    .find(|e| e.kind == TraceEventKind::Counter && e.name == name)
                    .map(|e| e.arg)
            };
            assert_eq!(counter("visits"), Some(processed), "rank {}", rt.rank);
            assert_eq!(counter("queue_depth"), Some(0), "rank {}", rt.rank);
            assert_eq!(counter("finished"), Some(1), "rank {}", rt.rank);
            // The boundary sample lands inside the phase span.
            let begin = rt
                .events
                .iter()
                .position(|e| e.kind == TraceEventKind::SpanBegin && e.name == "work")
                .expect("span begins");
            assert_eq!(rt.events[begin + 1].kind, TraceEventKind::Counter);
        }
    }

    #[test]
    fn untraced_world_records_no_counters() {
        let out = World::run(2, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("counter_off");
            comm.set_phase("work", 1);
            comm.trace_counter("finished", 1);
            let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
            run_traversal(comm, &chan, QueueKind::Fifo, |_| 0, init, |_, _| {})
        });
        assert!(out.trace.is_empty());
    }

    /// Satellite-1 regression: a mid-phase panic with peers parked on a
    /// barrier the dead rank will never reach used to deadlock the world,
    /// so the post-join flight dump never fired. With the abort epoch,
    /// every rank joins and a `FLIGHT_panic_*.json` lands on disk.
    #[test]
    fn mid_phase_panic_aborts_world_and_dumps_flight() {
        let dir = std::env::temp_dir().join(format!("flight_abort_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var(trace::FLIGHT_RECORDER_DIR_ENV, &dir);
        let config = WorldConfig {
            trace: TraceConfig::ring(),
            ..WorldConfig::default()
        };
        let err = World::try_run_config(4, config, |comm| {
            comm.set_phase("voronoi", 0);
            if comm.rank() == 1 {
                panic!("boom in voronoi");
            }
            // Survivors head for a rendezvous the dead rank never reaches.
            comm.barrier();
        })
        .expect_err("a dead rank must fail the world");
        std::env::remove_var(trace::FLIGHT_RECORDER_DIR_ENV);
        assert_eq!(err.failures.len(), 1, "{err}");
        assert_eq!(err.failures[0].rank, 1);
        assert_eq!(err.failures[0].phase, "voronoi");
        assert!(
            matches!(&err.failures[0].reason, FailureReason::Panic(m) if m.contains("boom")),
            "{err}"
        );
        assert_eq!(err.aborted_ranks, 3, "all three survivors must unwind");
        let dumped = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("FLIGHT_panic_") && n.ends_with(".json"))
            });
        assert!(dumped, "no FLIGHT_panic_*.json in {dir:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_trips_cooperative_abort() {
        let config = WorldConfig {
            deadline: Some(std::time::Duration::from_millis(50)),
            ..WorldConfig::default()
        };
        let err = World::try_run_config(2, config, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("spin");
            // A ring that never terminates: every visit re-arms the token.
            let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
            run_traversal(
                comm,
                &chan,
                QueueKind::Fifo,
                |_| 0,
                init,
                |v, pusher| {
                    pusher.push((pusher.rank() + 1) % 2, v.wrapping_add(1));
                },
            );
        })
        .expect_err("unbounded traversal must trip the deadline");
        assert!(err.deadline_exceeded, "{err}");
        assert_eq!(err.failures.len(), 1, "{err}");
        assert_eq!(err.failures[0].reason, FailureReason::DeadlineExceeded);
    }

    #[test]
    fn injected_crash_stop_is_classified_and_survivors_abort() {
        let plan = FaultPlan::from_spec("crash_rank=1,crash_at_sync=4,seed=11").unwrap();
        let config = WorldConfig {
            faults: Some(plan),
            ..WorldConfig::default()
        };
        let err = World::try_run_config(3, config, |comm| {
            comm.set_phase("spin", 0);
            for _ in 0..64 {
                comm.barrier();
            }
        })
        .expect_err("armed crash plan must kill rank 1");
        assert_eq!(err.injected_crashes(), 1, "{err}");
        assert_eq!(err.failures.len(), 1, "{err}");
        assert_eq!(err.failures[0].rank, 1);
        assert_eq!(err.failures[0].phase, "spin");
        assert!(err
            .primary
            .as_ref()
            .is_some_and(|p| p.is::<InjectedCrash>()));
    }

    /// Regression: a crashed rank drops its receivers while unwinding,
    /// before its supervisor raises the abort epoch. A survivor whose send
    /// lands in that window used to panic as a bug, which the solver then
    /// re-raised instead of restoring; it must unwind cooperatively.
    #[test]
    fn send_to_an_unwinding_peer_aborts_cooperatively() {
        let dropped = AtomicBool::new(false);
        let err = World::try_run_config(2, WorldConfig::default(), |comm| {
            let chan = comm.open_channels::<u32>("race");
            if comm.rank() == 1 {
                drop(chan);
                dropped.store(true, Ordering::SeqCst);
                // Give rank 0 time to send into the closed receiver first.
                std::thread::sleep(std::time::Duration::from_millis(20));
                std::panic::panic_any(InjectedCrash { rank: 1 });
            }
            while !dropped.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            chan.send(1, 7);
        })
        .expect_err("the crash must fail the world");
        assert_eq!(err.failures.len(), 1, "{err}");
        assert_eq!(err.failures[0].reason, FailureReason::InjectedCrash);
        assert_eq!(err.aborted_ranks, 1, "{err}");
    }

    #[test]
    #[should_panic(expected = "legacy boom")]
    fn run_config_reraises_the_primary_panic() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                panic!("legacy boom");
            }
            comm.barrier();
        });
    }
}

#[cfg(test)]
mod proptests;
