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
use std::sync::Arc;
use std::time::Instant;

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

struct BarrierState {
    arrived: usize,
    generation: u64,
}

/// A cyclic rank barrier that can be broken by the world's abort epoch.
///
/// `std::sync::Barrier` has no escape hatch: a waiter whose peer died
/// blocks forever. This barrier parks waiters on a condvar keyed by a
/// generation counter, so [`Shared::record_failure`] can wake everyone;
/// a woken waiter whose generation did not advance knows the release was
/// an abort, not a full rendezvous.
pub struct AbortableBarrier {
    count: usize,
    // std's pair, not the vendored parking_lot shim: the shim carries no
    // Condvar, and the barrier needs a real one for the abort wakeup.
    state: std::sync::Mutex<BarrierState>,
    cvar: std::sync::Condvar,
}

impl AbortableBarrier {
    /// Barrier for `count` ranks.
    pub fn new(count: usize) -> Self {
        AbortableBarrier {
            count,
            state: std::sync::Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            cvar: std::sync::Condvar::new(),
        }
    }

    /// Blocks until all `count` ranks arrive (returns `true`) or `abort`
    /// is observed raised (returns `false`, leaving the rendezvous
    /// incomplete — the world is going down and no rank will reuse it).
    pub fn wait(&self, abort: &AtomicBool) -> bool {
        // Poison-tolerant locking throughout: the barrier is the abort
        // path's wake chokepoint, so a rank that panicked elsewhere must
        // never render survivors unable to park or be woken. The guarded
        // state (two counters) cannot be left torn by an unwind.
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if abort.load(Ordering::SeqCst) {
            return false;
        }
        st.arrived += 1;
        if st.arrived == self.count {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cvar.notify_all();
            return true;
        }
        let gen = st.generation;
        while st.generation == gen && !abort.load(Ordering::SeqCst) {
            st = self.cvar.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.generation != gen
    }

    /// Wakes every parked waiter (abort path). Takes the lock so a waiter
    /// between its abort check and its `wait` cannot miss the signal.
    pub fn wake_all(&self) {
        let _st = self.state.lock().unwrap_or_else(|e| e.into_inner());
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
    /// [`crate::collective`].
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
    use std::time::Duration;

    #[test]
    fn abortable_barrier_releases_full_rendezvous() {
        let barrier = Arc::new(AbortableBarrier::new(3));
        let abort = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let b = Arc::clone(&barrier);
            let a = Arc::clone(&abort);
            handles.push(std::thread::spawn(move || b.wait(&a)));
        }
        for h in handles {
            assert!(h.join().unwrap(), "full rendezvous must report normal");
        }
    }

    #[test]
    fn abortable_barrier_unblocks_on_abort() {
        let barrier = Arc::new(AbortableBarrier::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let waiter = {
            let b = Arc::clone(&barrier);
            let a = Arc::clone(&abort);
            std::thread::spawn(move || b.wait(&a))
        };
        // Give the waiter time to park, then abort instead of arriving.
        std::thread::sleep(Duration::from_millis(20));
        abort.store(true, Ordering::SeqCst);
        barrier.wake_all();
        assert!(!waiter.join().unwrap(), "abort release must report abort");
    }

    #[test]
    fn abort_already_raised_skips_the_wait() {
        let barrier = AbortableBarrier::new(4);
        let abort = AtomicBool::new(true);
        assert!(!barrier.wait(&abort));
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
