//! State shared by all ranks of one job (built fresh for every job a
//! world runs): the channel registry, the barrier, the collective
//! exchange slot, the quiescence detector, the protocol-audit ledger,
//! and the crash-stop abort epoch.

use crate::audit::AuditState;
use crate::failure::{panic_message, CooperativeAbort, FailureReason, InjectedCrash, RankFailure};
use crate::faults::FaultStats;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One rank's registered channel endpoint plus the metadata needed to
/// produce structured lockstep diagnostics (which phase label and visitor
/// type each rank opened the tag with).
pub struct ChannelSlot {
    /// The boxed `crossbeam::channel::Sender<WireMsg<V>>`.
    pub sender: Box<dyn Any + Send>,
    /// `std::any::type_name` of the visitor type `V` the rank opened with.
    pub type_name: &'static str,
    /// Phase label the rank opened with.
    pub phase: &'static str,
}

/// One registered endpoint slot per rank, keyed by channel tag.
pub type ChannelSlots = Vec<Option<ChannelSlot>>;

/// The collective exchange value plus metadata for structured type
/// diagnostics when ranks call mismatched collectives.
pub struct CollectiveSlot {
    /// The boxed accumulator / broadcast value.
    pub value: Box<dyn Any + Send>,
    /// `std::any::type_name` of the seeded value's element/value type.
    pub type_name: &'static str,
    /// Which collective seeded the slot (`"allreduce"` / `"broadcast"`).
    pub op: &'static str,
    /// Rank whose turn it is to fold into the slot next. Non-root ranks
    /// fold strictly in rank order (1, 2, ...), so non-commutative /
    /// non-associative combiners produce schedule-independent results.
    pub turn: usize,
}

/// Global termination-detection state for one asynchronous traversal.
///
/// `sent` counts remote visitors injected into channels, `received` counts
/// remote visitors drained from channels, and `idle` counts ranks whose
/// local queue and inbound channel are both empty. The traversal is over
/// when all ranks are idle and `sent == received` observed stably (see
/// [`crate::traversal`] for the double-read protocol and its argument).
#[derive(Debug, Default)]
pub struct Quiescence {
    /// Remote visitors pushed into channels.
    pub sent: AtomicU64,
    /// Remote visitors drained from channels.
    pub received: AtomicU64,
    /// Ranks currently idle.
    pub idle: AtomicUsize,
    /// Set once by the detecting rank; all ranks exit on observing it.
    pub done: AtomicBool,
}

impl Quiescence {
    /// Resets for a fresh traversal. Callers must fence with barriers so no
    /// rank is still inside the previous traversal.
    pub fn reset(&self) {
        self.sent.store(0, Ordering::SeqCst);
        self.received.store(0, Ordering::SeqCst);
        self.idle.store(0, Ordering::SeqCst);
        self.done.store(false, Ordering::SeqCst);
    }
}

/// How long a barrier waiter spins before it parks: about one condvar
/// park/wake round trip, which measured 6.9–7.6 µs per barrier on a 2-vCPU
/// VM. This is the classic spin-then-block bound: a waiter released
/// within it never pays the round trip, and one released later has
/// wasted at most one round trip of spinning.
const SPIN_LIMIT: Duration = Duration::from_micros(10);

/// Spins between two reads of the clock while a waiter spins.
const SPINS_PER_CLOCK_READ: u32 = 16;

/// The hardware threads this process may run on, read once: the call
/// reads cgroup files, and every job builds a barrier.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// A cyclic rank barrier that can be broken by the world's abort epoch.
///
/// `std::sync::Barrier` has no escape hatch: a waiter whose peer died
/// blocks forever. Here arrival is an atomic counter and release is a
/// bump of an atomic generation word; a waiter whose generation did not
/// advance knows its release was an abort, not a full rendezvous.
///
/// **Spin, then park.** A waiter first spins on the generation for up to
/// `SPIN_LIMIT` (10 µs), checking the abort epoch on every spin, then parks
/// on a condvar that [`Shared::record_failure`] can wake. Spinning is
/// only worth it when every rank has a core to spin on: a barrier for
/// more ranks than [`std::thread::available_parallelism`] (say 8 ranks
/// on 2 vCPUs) parks at once, since a spinner would only delay the late
/// rank it waits for.
///
/// **No missed wakeup.** The releaser notifies only when the `sleepers`
/// count is non-zero, so a parking waiter must never miss a release. Every
/// access to `generation` and `sleepers` is `SeqCst`, so they fall in one
/// total order. A waiter takes the lock, increments `sleepers`, then
/// re-reads the generation before it waits, and holds the lock until the
/// condvar releases it. The releaser bumps the generation, then reads
/// `sleepers`. If the waiter's increment comes first in the order, the
/// releaser reads a non-zero count and notifies under the lock, which it
/// cannot take until the waiter is inside `wait`. Otherwise the
/// releaser's read precedes the increment, so its bump does too, and the
/// waiter's re-read sees the new generation and never waits. The abort
/// path needs no count: [`AbortableBarrier::wake_all`] always notifies
/// under the lock, after the abort flag is raised.
pub struct AbortableBarrier {
    count: usize,
    /// How long a waiter spins before it parks ([`SPIN_LIMIT`] when
    /// `count` ranks fit the cores, zero otherwise).
    spin_limit: Duration,
    /// Ranks arrived in the current generation.
    arrived: AtomicUsize,
    /// Completed rendezvous, wrapping.
    generation: AtomicU64,
    /// Waiters parked (or about to park) on `cvar`.
    sleepers: AtomicUsize,
    // std's pair, not the vendored parking_lot shim: the shim carries no
    // Condvar, and the barrier needs a real one for the abort wakeup.
    lock: std::sync::Mutex<()>,
    cvar: std::sync::Condvar,
}

impl AbortableBarrier {
    /// Barrier for `count` ranks, spinning before it parks when `count`
    /// ranks fit the available cores.
    pub fn new(count: usize) -> Self {
        let spin_limit = if count <= available_cores() {
            SPIN_LIMIT
        } else {
            Duration::ZERO
        };
        Self::with_spin_limit(count, spin_limit)
    }

    fn with_spin_limit(count: usize, spin_limit: Duration) -> Self {
        AbortableBarrier {
            count,
            spin_limit,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: std::sync::Mutex::new(()),
            cvar: std::sync::Condvar::new(),
        }
    }

    /// Blocks until all `count` ranks arrive, returning how long this
    /// rank waited from its arrival to the release (zero for the last to
    /// arrive, which reads no clock), or until `abort` is observed raised
    /// (returns `None`, leaving the rendezvous incomplete — the world is
    /// going down and no rank will reuse it).
    pub fn wait(&self, abort: &AtomicBool) -> Option<Duration> {
        if abort.load(Ordering::SeqCst) {
            return None;
        }
        // Read before arriving: the generation cannot advance until this
        // rank has arrived, so `gen` is the one this arrival belongs to.
        let gen = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.count {
            // Reset before the bump: a released rank may arrive at the
            // next barrier as soon as it sees the new generation.
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.fetch_add(1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _guard = self.lock();
                self.cvar.notify_all();
            }
            return Some(Duration::ZERO);
        }
        // The clock bounds the spin and measures the wait; it never feeds
        // a result.
        // stcheck: allow(wallclock): spin bound and wait measurement only.
        let start = Instant::now();
        if !self.spin_limit.is_zero() {
            while start.elapsed() < self.spin_limit {
                for _ in 0..SPINS_PER_CLOCK_READ {
                    if self.generation.load(Ordering::SeqCst) != gen {
                        return Some(start.elapsed());
                    }
                    if abort.load(Ordering::SeqCst) {
                        return None;
                    }
                    std::hint::spin_loop();
                }
            }
        }
        let mut guard = self.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let released = loop {
            if self.generation.load(Ordering::SeqCst) != gen {
                break true;
            }
            if abort.load(Ordering::SeqCst) {
                break false;
            }
            guard = self.cvar.wait(guard).unwrap_or_else(|e| e.into_inner());
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        released.then(|| start.elapsed())
    }

    /// Poison-tolerant lock: the barrier is the abort path's wake
    /// chokepoint, so a rank that panicked elsewhere must never leave
    /// survivors unable to park or be woken. The lock guards no data.
    fn lock(&self) -> std::sync::MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wakes every parked waiter (abort path). Takes the lock so a waiter
    /// between its abort check and its `wait` cannot miss the signal.
    pub fn wake_all(&self) {
        let _guard = self.lock();
        self.cvar.notify_all();
    }
}

/// Everything the ranks of one job share.
pub struct Shared {
    /// Number of ranks.
    pub num_ranks: usize,
    /// Cyclic barrier across all ranks, breakable by the abort epoch.
    pub barrier: AbortableBarrier,
    /// Channel-endpoint registry used by `Comm::open_channels`: maps a tag
    /// to one registered endpoint slot per rank.
    pub channel_registry: Mutex<HashMap<u64, ChannelSlots>>,
    /// Exchange slot for collectives (reduction accumulator / broadcast
    /// value), guarded by the collective call protocol in
    /// `crate::collective`.
    pub collective_slot: Mutex<Option<CollectiveSlot>>,
    /// Termination detector for asynchronous traversals.
    pub quiescence: Quiescence,
    /// Protocol-audit ledger (records nothing unless the crate is built
    /// with the `check` feature — see [`crate::audit`]).
    pub audit: Arc<AuditState>,
    /// Fault-injection and reliability-protocol counters, summed across
    /// ranks. Always allocated (nine atomics); all-zero when the world
    /// runs without a [`crate::faults::FaultPlan`].
    pub faults: Arc<FaultStats>,
    /// The world's clock origin. Trace timestamps, lineage send times,
    /// and metrics latencies are all microseconds since this instant, so
    /// observability data from different ranks lines up on one axis.
    pub epoch: Instant,
    /// The job-level abort epoch: raised once by the first recorded
    /// failure; every sync point polls it and unwinds cooperatively.
    pub abort: AtomicBool,
    /// Primary rank failures, in recording order (see
    /// [`Shared::record_failure`]). Cooperative aborts are counted, not
    /// recorded here.
    pub failures: Mutex<Vec<RankFailure>>,
    /// Ranks that unwound with a [`CooperativeAbort`] payload.
    pub aborted_ranks: AtomicUsize,
    /// Set when a rank observed the job deadline expire.
    pub deadline_exceeded: AtomicBool,
    /// The job's absolute deadline, when one is configured.
    deadline: Option<Instant>,
    /// Per-rank current phase label (see [`crate::Comm::set_phase`]),
    /// read when classifying that rank's failure.
    phase_labels: Vec<Mutex<&'static str>>,
}

impl Shared {
    /// Shared state for `p` ranks whose clock origin is `epoch`, with an
    /// optional absolute `deadline`.
    pub fn new(p: usize, epoch: Instant, deadline: Option<Instant>) -> Self {
        Shared {
            num_ranks: p,
            barrier: AbortableBarrier::new(p),
            channel_registry: Mutex::new(HashMap::new()),
            collective_slot: Mutex::new(None),
            quiescence: Quiescence::default(),
            audit: Arc::new(AuditState::new()),
            faults: Arc::new(FaultStats::default()),
            epoch,
            abort: AtomicBool::new(false),
            failures: Mutex::new(Vec::new()),
            aborted_ranks: AtomicUsize::new(0),
            deadline_exceeded: AtomicBool::new(false),
            deadline,
            phase_labels: (0..p).map(|_| Mutex::new("startup")).collect(),
        }
    }

    /// Updates `rank`'s current phase label (failure classification and
    /// the crash injector's phase filter key off it).
    pub fn set_phase_label(&self, rank: usize, label: &'static str) {
        *self.phase_labels[rank].lock() = label;
    }

    /// The phase label `rank` last entered.
    pub fn phase_label(&self, rank: usize) -> &'static str {
        *self.phase_labels[rank].lock()
    }

    /// Records a primary failure for `rank`, raises the abort epoch, and
    /// wakes every barrier waiter so survivors can unwind.
    pub fn record_failure(&self, rank: usize, reason: FailureReason) {
        self.failures.lock().push(RankFailure {
            rank,
            phase: self.phase_label(rank).to_string(),
            reason,
        });
        self.abort.store(true, Ordering::SeqCst);
        self.barrier.wake_all();
    }

    /// Classifies a caught panic payload: cooperative aborts are counted,
    /// injected crashes and real panics are recorded as primary failures
    /// (raising the abort epoch). Returns whether the payload was a
    /// cooperative abort (i.e. secondary).
    pub fn record_panic_payload(&self, rank: usize, payload: &(dyn Any + Send)) -> bool {
        if payload.is::<CooperativeAbort>() {
            self.aborted_ranks.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        let reason = if payload.is::<InjectedCrash>() {
            FailureReason::InjectedCrash
        } else {
            FailureReason::Panic(panic_message(payload))
        };
        self.record_failure(rank, reason);
        false
    }

    /// The cooperative abort/deadline poll, called from every sync point
    /// (`Comm::pause`, channel pauses, collective fold spins, barrier
    /// entry). Unwinds with a [`CooperativeAbort`] payload when the abort
    /// epoch is raised, and trips the epoch itself when the job's
    /// deadline has expired. Reads no clock on a deadline-free job.
    #[inline]
    pub fn poll_abort(&self, rank: usize) {
        if self.abort.load(Ordering::Relaxed) {
            std::panic::panic_any(CooperativeAbort { rank });
        }
        // Cooperative cancellation is inherently wall-clock: the deadline
        // only decides *when* the solve gives up, never what a completed
        // solve computes.
        // stcheck: allow(wallclock): deadline check, cancellation only.
        if self.deadline.is_some_and(|at| Instant::now() >= at) {
            if !self.deadline_exceeded.swap(true, Ordering::SeqCst) {
                // First observer records the primary failure; the abort
                // epoch it raises unwinds everyone else.
                self.record_failure(rank, FailureReason::DeadlineExceeded);
            }
            std::panic::panic_any(CooperativeAbort { rank });
        }
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("num_ranks", &self.num_ranks)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spin limit no test outlasts: waiters under it never park.
    const SPIN_FOREVER: Duration = Duration::from_secs(3600);

    /// Runs `f(rank)` on `p` threads and returns the results in rank
    /// order, failing the test instead of hanging the suite when the
    /// threads do not all finish within 60 s.
    fn on_threads<T, F>(p: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let (f, tx) = (Arc::clone(&f), tx.clone());
                std::thread::spawn(move || tx.send((rank, f(rank))).unwrap())
            })
            .collect();
        let mut out: Vec<(usize, T)> = (0..p)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(60))
                    .expect("barrier waiters hung")
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        out.sort_unstable_by_key(|&(rank, _)| rank);
        out.into_iter().map(|(_, t)| t).collect()
    }

    /// Waits until `cond` holds; the waiters under test run meanwhile.
    fn until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn barrier_rendezvous_holds_at_more_ranks_than_cores() {
        const P: usize = 8;
        const ROUNDS: usize = 300;
        // Park at once, as `new` does with more ranks than cores, and
        // spin then park, as it does when the ranks fit.
        for limit in [Duration::ZERO, SPIN_LIMIT] {
            let barrier = Arc::new(AbortableBarrier::with_spin_limit(P, limit));
            let entered = Arc::new(AtomicUsize::new(0));
            let (b, e) = (Arc::clone(&barrier), Arc::clone(&entered));
            let released = on_threads(P, move |_| {
                let abort = AtomicBool::new(false);
                (1..=ROUNDS).all(|round| {
                    e.fetch_add(1, Ordering::SeqCst);
                    let ok = b.wait(&abort).is_some();
                    // Nobody leaves round `round` before all P entered it.
                    ok && e.load(Ordering::SeqCst) >= round * P
                })
            });
            assert!(released.into_iter().all(|ok| ok), "limit {limit:?}");
            assert_eq!(barrier.generation.load(Ordering::SeqCst), ROUNDS as u64);
            assert_eq!(barrier.sleepers.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn abort_releases_spinning_waiters_without_a_wakeup() {
        const P: usize = 8;
        let barrier = Arc::new(AbortableBarrier::with_spin_limit(P, SPIN_FOREVER));
        let abort = Arc::new(AtomicBool::new(false));
        let (b, a) = (Arc::clone(&barrier), Arc::clone(&abort));
        let raiser = std::thread::spawn(move || {
            // Every waiter but the missing rank has arrived and spins.
            until(|| b.arrived.load(Ordering::SeqCst) == P - 1);
            a.store(true, Ordering::SeqCst);
        });
        let (b, a) = (Arc::clone(&barrier), Arc::clone(&abort));
        let released = on_threads(P - 1, move |_| b.wait(&a));
        raiser.join().unwrap();
        assert!(
            released.iter().all(Option::is_none),
            "abort must report abort"
        );
        assert_eq!(barrier.sleepers.load(Ordering::SeqCst), 0, "none parked");
    }

    #[test]
    fn abort_wakes_parked_waiters() {
        const P: usize = 8;
        let barrier = Arc::new(AbortableBarrier::with_spin_limit(P, Duration::ZERO));
        let abort = Arc::new(AtomicBool::new(false));
        let (b, a) = (Arc::clone(&barrier), Arc::clone(&abort));
        let raiser = std::thread::spawn(move || {
            until(|| b.sleepers.load(Ordering::SeqCst) == P - 1);
            a.store(true, Ordering::SeqCst);
            b.wake_all();
        });
        let (b, a) = (Arc::clone(&barrier), Arc::clone(&abort));
        let released = on_threads(P - 1, move |_| b.wait(&a));
        raiser.join().unwrap();
        assert!(
            released.iter().all(Option::is_none),
            "abort must report abort"
        );
    }

    #[test]
    fn a_peer_dying_at_the_barrier_unwinds_the_others() {
        // Two ranks spin on a host with two or more cores; eight park.
        for p in [2usize, 8] {
            let err = crate::World::try_run_config(p, crate::WorldConfig::default(), |comm| {
                if comm.rank() == p - 1 {
                    let barrier = &comm.shared().barrier;
                    until(|| barrier.arrived.load(Ordering::SeqCst) == p - 1);
                    panic!("dies while its peers wait");
                }
                comm.barrier();
            })
            .expect_err("a dead rank must fail the world");
            assert_eq!(err.failures.len(), 1, "{err}");
            assert_eq!(err.failures[0].rank, p - 1);
            assert_eq!(err.aborted_ranks, p - 1, "p={p}: survivors unwind");
        }
    }

    #[test]
    fn generation_wraps() {
        for limit in [Duration::ZERO, SPIN_LIMIT] {
            let barrier = Arc::new(AbortableBarrier::with_spin_limit(3, limit));
            barrier.generation.store(u64::MAX - 1, Ordering::SeqCst);
            let b = Arc::clone(&barrier);
            let released = on_threads(3, move |_| {
                let abort = AtomicBool::new(false);
                (0..5).all(|_| b.wait(&abort).is_some())
            });
            assert!(released.into_iter().all(|ok| ok), "limit {limit:?}");
            assert_eq!(barrier.generation.load(Ordering::SeqCst), 3);
        }
    }

    /// The last rank to arrive waits zero; an earlier one waits at least
    /// as long as the last one kept it waiting, whether it parked at once
    /// or spun first. The late rank holds back until the early one is
    /// parked, so the early one's clock is running.
    #[test]
    fn wait_measures_arrival_to_release() {
        for limit in [Duration::ZERO, SPIN_LIMIT] {
            let barrier = Arc::new(AbortableBarrier::with_spin_limit(2, limit));
            let b = Arc::clone(&barrier);
            let waits = on_threads(2, move |i| {
                let abort = AtomicBool::new(false);
                if i == 1 {
                    until(|| b.sleepers.load(Ordering::SeqCst) == 1);
                    std::thread::sleep(Duration::from_millis(20));
                }
                b.wait(&abort).expect("released")
            });
            assert_eq!(waits[1], Duration::ZERO, "limit {limit:?}");
            assert!(
                waits[0] >= Duration::from_millis(20),
                "limit {limit:?}: {waits:?}"
            );
        }
    }

    #[test]
    fn no_wakeup_is_missed_under_perturbed_schedules() {
        // A missed wakeup parks a rank forever; `on_threads` turns that
        // into a failure. The perturber's yields and spins at barrier
        // entry vary which ranks spin, park or release.
        on_threads(1, |_| {
            for p in [2usize, 3, 8] {
                for (_, out) in crate::stress_schedules(p, 0..48u64, |comm| {
                    for _ in 0..100 {
                        comm.barrier();
                    }
                }) {
                    assert_eq!(out.results.len(), p);
                }
            }
        });
    }

    #[test]
    fn abort_already_raised_skips_the_wait() {
        let barrier = AbortableBarrier::new(4);
        let abort = AtomicBool::new(true);
        assert_eq!(barrier.wait(&abort), None);
    }

    #[test]
    fn record_failure_raises_abort_and_keeps_phase() {
        let shared = Shared::new(2, Instant::now(), None);
        shared.set_phase_label(1, "voronoi");
        shared.record_failure(1, FailureReason::Panic("boom".into()));
        assert!(shared.abort.load(Ordering::SeqCst));
        let failures = shared.failures.lock();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].rank, 1);
        assert_eq!(failures[0].phase, "voronoi");
    }

    #[test]
    fn cooperative_payloads_are_counted_not_recorded() {
        let shared = Shared::new(2, Instant::now(), None);
        let payload: Box<dyn Any + Send> = Box::new(CooperativeAbort { rank: 0 });
        assert!(shared.record_panic_payload(0, payload.as_ref()));
        assert!(!shared.abort.load(Ordering::SeqCst));
        assert_eq!(shared.aborted_ranks.load(Ordering::SeqCst), 1);
        assert!(shared.failures.lock().is_empty());
    }
}
