//! A persistent world: rank threads that outlive individual computations.
//!
//! [`crate::World::run`] spawns and joins one thread per rank for every
//! call — fine for batch solves, wasteful for the interactive loop the
//! paper motivates (many small solves against one resident graph, like an
//! MPI job that stays allocated between queries). [`PersistentWorld`]
//! keeps the rank threads alive and ships each job to them; the job runs
//! through the same setup and supervisor as a one-shot world.

use crate::faults::FaultPlan;
use crate::metrics::{self, MetricsDump};
use crate::trace::{self, TraceDump};
use crate::world::{JobSetup, WorldSetup};
use crate::{Comm, RunOutput, WorldConfig, WorldFailure};
use crossbeam::channel::{unbounded, Sender};
use std::sync::Arc;
use std::time::Duration;

/// One job's work for one resident rank.
type Task = Box<dyn FnOnce(&WorldSetup) + Send>;

/// A world whose rank threads persist across computations.
pub struct PersistentWorld {
    config: WorldConfig,
    world: Arc<WorldSetup>,
    job_senders: Vec<Sender<Task>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl PersistentWorld {
    /// Spawns `p` resident rank threads.
    pub fn new(p: usize) -> Self {
        Self::new_with_config(p, WorldConfig::default())
    }

    /// [`PersistentWorld::new`] with explicit [`WorldConfig`]. The
    /// perturbation seed, trace and metrics are per world and
    /// continue across jobs; `faults` and `deadline` apply afresh to every
    /// [`PersistentWorld::execute`].
    pub fn new_with_config(p: usize, config: WorldConfig) -> Self {
        let world = Arc::new(WorldSetup::new(p, &config));
        let (job_senders, handles) = (0..p)
            .map(|_| {
                let (tx, rx) = unbounded::<Task>();
                let world = Arc::clone(&world);
                let handle = std::thread::spawn(move || {
                    while let Ok(task) = rx.recv() {
                        task(&world);
                    }
                });
                (tx, handle)
            })
            .unzip();
        PersistentWorld {
            config,
            world,
            job_senders,
            handles,
        }
    }

    /// Number of resident ranks.
    pub fn num_ranks(&self) -> usize {
        self.world.num_ranks()
    }

    /// The configuration the world was built with.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Drains every rank's event trace accumulated since the last drain
    /// (or since construction). Unlike [`crate::World::run_config`], a
    /// persistent world's traces span jobs; call this between jobs to
    /// slice them. Lineage ids restart with every job, so analyse one
    /// job's slice at a time. Empty unless the world was built with
    /// [`crate::trace::TraceConfig::Ring`].
    ///
    /// Safe to call between `execute`s: rank threads are parked in their
    /// job-channel `recv` then, and the results-channel handshake of the
    /// previous job established the happens-before edge to their buffer
    /// writes.
    pub fn finish_trace(&self) -> TraceDump {
        trace::drain_buffers(&self.world.trace, true)
    }

    /// Snapshots every rank's latency histograms accumulated since
    /// construction (histograms are cumulative, not sliced per drain).
    /// Empty unless the world was built with
    /// [`crate::metrics::MetricsConfig::On`]. Same between-jobs calling
    /// contract as [`PersistentWorld::finish_trace`].
    pub fn finish_metrics(&self) -> MetricsDump {
        metrics::drain_registries(&self.world.metrics)
    }

    /// Runs `f` on every rank under the world's own `faults` and
    /// `deadline`, exactly like [`crate::World::run_config`]: rank panics
    /// propagate. Jobs are serialized: one `execute` completes before the
    /// next begins.
    pub fn execute<T, F>(&self, f: F) -> RunOutput<T>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> T + Send + Sync + 'static,
    {
        match self.try_execute(self.config.faults, self.config.deadline, f) {
            Ok(out) => out,
            Err(wf) => std::panic::resume_unwind(wf.into_panic_payload()),
        }
    }

    /// Runs `f` on every rank as one supervised job, like
    /// [`crate::World::try_run_config`], with `faults` injected and
    /// `deadline` armed from now. A rank death fails only this job: the
    /// world runs the next one on fresh state. The output's `trace`,
    /// and `metrics` stay empty; they accumulate on the world.
    pub fn try_execute<T, F>(
        &self,
        faults: Option<FaultPlan>,
        deadline: Option<Duration>,
        f: F,
    ) -> Result<RunOutput<T>, WorldFailure>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let job = Arc::new(JobSetup::new(&self.world, faults, deadline));
        let (results_tx, results_rx) = std::sync::mpsc::channel();
        for (rank, sender) in self.job_senders.iter().enumerate() {
            let (f, job, results) = (Arc::clone(&f), Arc::clone(&job), results_tx.clone());
            let task: Task = Box::new(move |world| {
                // The coordinator outlives the job; a send failure means it
                // gave up, which only happens on panic there.
                let _ = results.send((rank, job.run_rank(world, rank, &*f)));
            });
            if sender.send(task).is_err() {
                unreachable!("resident rank {rank} exited while the world is alive");
            }
        }
        drop(results_tx);
        // Every rank catches its own panic and reports, so this collects
        // one result per rank.
        let mut joined: Vec<_> = results_rx.iter().collect();
        assert_eq!(joined.len(), self.num_ranks(), "a resident rank died");
        joined.sort_unstable_by_key(|&(rank, _)| rank);
        let joined = joined.into_iter().map(|(_, out)| out).collect();
        job.supervise(&self.world, joined, false)
    }
}

impl Drop for PersistentWorld {
    fn drop(&mut self) {
        // Closing the job channels ends each thread's recv loop.
        self.job_senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_traversal, FailureReason, QueueKind};
    use std::time::Duration;

    /// Runs `job` against `world` on a helper thread and waits a bounded
    /// time for it, so a hung resident world fails the test instead of
    /// hanging the suite.
    fn within_timeout<R: Send + 'static>(
        world: &Arc<PersistentWorld>,
        job: impl FnOnce(&PersistentWorld) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        let world = Arc::clone(world);
        std::thread::spawn(move || {
            let _ = tx.send(job(&world));
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(r) => r,
            Err(e) => panic!("resident job did not finish: {e}"),
        }
    }

    /// One message from each of two ranks to the other on phase `"p"`.
    fn exchange(comm: &mut Comm) -> usize {
        let chan = comm.open_channels::<u8>("p");
        chan.send(1 - comm.rank(), 1);
        comm.barrier();
        while chan.try_recv().is_some() {}
        comm.rank()
    }

    /// The job after a failed one must run on fresh state.
    fn next_job_is_clean(world: &PersistentWorld) {
        let out = world.execute(exchange);
        assert_eq!(out.results, vec![0, 1]);
        assert_eq!(
            out.merged_counters()["p"].remote_msgs,
            2,
            "counters must be fresh after a failed job"
        );
        assert!(out.fault_stats.injected() == 0 && out.audit_violations.is_empty());
    }

    #[test]
    fn rank_panic_fails_the_job_and_the_world_runs_on() {
        let world = Arc::new(PersistentWorld::new(2));
        let err = within_timeout(&world, |w| {
            w.try_execute(None, None, |comm| {
                exchange(comm);
                comm.set_phase("voronoi", 0);
                if comm.rank() == 1 {
                    panic!("resident boom");
                }
                // The survivor heads for a barrier the dead rank never reaches.
                comm.barrier();
            })
        })
        .expect_err("a rank panic must fail the job");
        assert_eq!(err.failures.len(), 1, "{err}");
        assert_eq!((err.failures[0].rank, err.aborted_ranks), (1, 1), "{err}");
        assert!(
            matches!(&err.failures[0].reason, FailureReason::Panic(m) if m.contains("resident boom")),
            "{err}"
        );
        within_timeout(&world, next_job_is_clean);
    }

    #[test]
    fn injected_crash_is_classified_and_the_world_runs_on() {
        let world = Arc::new(PersistentWorld::new(2));
        let plan = FaultPlan::from_spec("crash_rank=1,crash_at_sync=4,seed=11").unwrap();
        let err = within_timeout(&world, move |w| {
            w.try_execute(Some(plan), None, |comm| {
                exchange(comm);
                for _ in 0..64 {
                    comm.barrier();
                }
            })
        })
        .expect_err("an armed crash plan must fail the job");
        assert_eq!(err.failures.len(), 1, "{err}");
        assert_eq!(err.failures[0].reason, FailureReason::InjectedCrash);
        assert_eq!(err.injected_crashes(), 1);
        within_timeout(&world, next_job_is_clean);
    }

    #[test]
    fn zero_deadline_fails_the_job_and_the_world_runs_on() {
        let world = Arc::new(PersistentWorld::new(2));
        let err = within_timeout(&world, |w| {
            w.try_execute(None, Some(Duration::ZERO), exchange)
        })
        .expect_err("an expired deadline must fail the job");
        assert!(err.deadline_exceeded, "{err}");
        assert_eq!(err.failures[0].reason, FailureReason::DeadlineExceeded);
        within_timeout(&world, next_job_is_clean);
    }

    #[test]
    #[should_panic(expected = "legacy resident boom")]
    fn execute_reraises_the_primary_panic() {
        PersistentWorld::new(2).execute(|comm| {
            if comm.rank() == 0 {
                panic!("legacy resident boom");
            }
            comm.barrier();
        });
    }

    #[test]
    fn executes_multiple_jobs() {
        let world = PersistentWorld::new(3);
        for round in 0..5u64 {
            let out = world.execute(move |comm| comm.rank() as u64 * 10 + round);
            assert_eq!(
                out.results,
                vec![round, 10 + round, 20 + round],
                "round {round}"
            );
        }
    }

    #[test]
    fn traversals_work_on_persistent_ranks() {
        let world = PersistentWorld::new(4);
        for _ in 0..3 {
            let out = world.execute(|comm| {
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
                        if hops < 8 {
                            pusher.push((pusher.rank() + 1) % 4, hops + 1);
                        }
                    },
                );
                seen
            });
            assert_eq!(out.results.iter().sum::<u32>(), 9);
        }
    }

    #[test]
    fn counters_are_fresh_per_job() {
        let world = PersistentWorld::new(2);
        let run = || {
            world.execute(|comm| {
                let chan = comm.open_channels::<u8>("p");
                chan.send(1 - comm.rank(), 1);
                comm.barrier();
                while chan.try_recv().is_some() {}
            })
        };
        let first = run();
        let second = run();
        assert_eq!(first.merged_counters()["p"].remote_msgs, 2);
        assert_eq!(
            second.merged_counters()["p"].remote_msgs,
            2,
            "counters must not accumulate across jobs"
        );
    }

    #[test]
    fn collectives_work_across_jobs() {
        let world = PersistentWorld::new(3);
        for _ in 0..3 {
            let out = world.execute(|comm| {
                let mut v = vec![comm.rank() as u64 + 1];
                comm.allreduce_sum(&mut v);
                v[0]
            });
            assert_eq!(out.results, vec![6, 6, 6]);
        }
    }

    #[test]
    fn traces_accumulate_until_drained() {
        let config = WorldConfig {
            trace: crate::trace::TraceConfig::ring(),
            ..WorldConfig::default()
        };
        let world = PersistentWorld::new_with_config(2, config);
        world.execute(|comm| comm.trace_instant("job", 1));
        world.execute(|comm| comm.trace_instant("job", 2));
        let dump = world.finish_trace();
        assert_eq!(dump.ranks.len(), 2);
        for rt in &dump.ranks {
            let args: Vec<_> = rt.events.iter().map(|e| e.arg).collect();
            assert_eq!(args, vec![1, 2], "both jobs' events in one trace");
        }
        // Drained: the next slice starts empty.
        assert!(world.finish_trace().is_empty());
    }

    #[test]
    fn drop_joins_cleanly() {
        let world = PersistentWorld::new(2);
        world.execute(|comm| comm.rank());
        drop(world); // must not hang or panic
    }
}
