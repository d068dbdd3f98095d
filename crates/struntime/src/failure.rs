//! Structured rank failures and the cooperative abort protocol.
//!
//! A crash-stop fault — an injected crash from [`crate::faults`], a real
//! panic in rank code, or a tripped world deadline — must not strand the
//! surviving ranks on a barrier or collective that the dead rank will
//! never reach. The protocol:
//!
//! 1. The dying rank's panic is caught by the per-rank `catch_unwind`
//!    body that every job runs through — on the scoped threads of
//!    [`crate::World::try_run_config`] and on the resident threads of a
//!    [`crate::PersistentWorld`] alike — classified into a
//!    [`RankFailure`], and recorded on the job's shared state, which
//!    raises the **abort epoch** (a per-job flag) and wakes every barrier
//!    waiter.
//! 2. Surviving ranks observe the epoch at their next sync point — every
//!    `Comm::pause` / channel pause / collective spin / barrier
//!    wait polls it — and unwind with a [`CooperativeAbort`] payload.
//! 3. All ranks therefore report promptly; the supervisor reads the
//!    trace rings for a flight-recorder dump and either surfaces a
//!    [`WorldFailure`] (structured, for a recovery supervisor) or
//!    re-raises the primary panic (legacy `World::run` and
//!    `PersistentWorld::execute` behaviour). A resident world then runs
//!    its next job on fresh shared state.
//!
//! The panic payloads [`InjectedCrash`] and [`CooperativeAbort`] are
//! control flow, not errors: a process-wide panic-hook filter keeps them
//! off stderr so a chaos run with dozens of cooperative unwinds stays
//! readable.

use std::any::Any;

/// Panic payload of a fault-injected crash-stop (see
/// [`crate::faults::FaultPlan`]). Raised by the injector at a sync point
/// or visit tick; classified as an injected failure by the supervisor.
#[derive(Clone, Copy, Debug)]
pub struct InjectedCrash {
    /// The rank the injector killed.
    pub rank: usize,
}

/// Panic payload of a survivor unwinding in response to the abort epoch
/// (or to the world deadline it tripped itself). Secondary by definition:
/// never recorded as a primary failure.
#[derive(Clone, Copy, Debug)]
pub struct CooperativeAbort {
    /// The unwinding rank.
    pub rank: usize,
}

/// Why a rank failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureReason {
    /// Rank code panicked; carries the extracted panic message.
    Panic(String),
    /// The fault injector crash-stopped the rank deterministically.
    InjectedCrash,
    /// The rank observed the world deadline expire and tripped the abort.
    DeadlineExceeded,
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::Panic(msg) => write!(f, "panic: {msg}"),
            FailureReason::InjectedCrash => write!(f, "injected crash-stop"),
            FailureReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// One rank's primary failure, classified from its panic payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankFailure {
    /// The failed rank.
    pub rank: usize,
    /// The phase label the rank was in (see [`crate::Comm::set_phase`]);
    /// `"startup"` when it never entered a phase.
    pub phase: String,
    /// Why it failed.
    pub reason: FailureReason,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} failed in phase \"{}\": {}",
            self.rank, self.phase, self.reason
        )
    }
}

/// Everything the supervisor knows about a failed run
/// ([`crate::World::try_run_config`], [`crate::PersistentWorld::try_execute`]).
#[derive(Debug)]
pub struct WorldFailure {
    /// Primary failures (injected crashes, real panics, the deadline
    /// tripper), in recording order. Never contains cooperative aborts.
    pub failures: Vec<RankFailure>,
    /// Ranks that unwound cooperatively after the abort epoch was raised.
    pub aborted_ranks: usize,
    /// Whether the world deadline expired (at least one failure is then
    /// [`FailureReason::DeadlineExceeded`]).
    pub deadline_exceeded: bool,
    /// The primary panic payload, preserved so legacy callers can
    /// re-raise it with the original message intact.
    pub primary: Option<Box<dyn Any + Send>>,
}

impl WorldFailure {
    /// Injected crash-stops among the primary failures.
    pub fn injected_crashes(&self) -> usize {
        self.failures
            .iter()
            .filter(|f| f.reason == FailureReason::InjectedCrash)
            .count()
    }

    /// The primary panic payload for re-raising, or a synthesized one
    /// describing the failures when no payload was preserved.
    pub fn into_panic_payload(self) -> Box<dyn Any + Send> {
        match self.primary {
            Some(p) => p,
            None => Box::new(format!(
                "world aborted without a primary payload: {:?}",
                self.failures
            )),
        }
    }
}

impl std::fmt::Display for WorldFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "world failed ({} primary, {} aborted{})",
            self.failures.len(),
            self.aborted_ranks,
            if self.deadline_exceeded {
                ", deadline exceeded"
            } else {
                ""
            }
        )?;
        for fail in &self.failures {
            write!(f, "; {fail}")?;
        }
        Ok(())
    }
}

/// Extracts a human-readable message from an arbitrary panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Installs (once per process) a panic-hook filter that suppresses the
/// cooperative-teardown payloads — [`CooperativeAbort`] and
/// [`InjectedCrash`] are control flow, and a chaos run would otherwise
/// print one backtrace per surviving rank. All other panics reach the
/// previously installed hook untouched.
pub(crate) fn install_quiet_abort_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<CooperativeAbort>() || payload.is::<InjectedCrash>() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_extracts_both_string_kinds() {
        let s: Box<dyn Any + Send> = Box::new("static msg");
        assert_eq!(panic_message(s.as_ref()), "static msg");
        let s: Box<dyn Any + Send> = Box::new(String::from("owned msg"));
        assert_eq!(panic_message(s.as_ref()), "owned msg");
        let s: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }

    #[test]
    fn world_failure_counts_injected_crashes() {
        let wf = WorldFailure {
            failures: vec![
                RankFailure {
                    rank: 1,
                    phase: "voronoi".into(),
                    reason: FailureReason::InjectedCrash,
                },
                RankFailure {
                    rank: 2,
                    phase: "mst".into(),
                    reason: FailureReason::Panic("boom".into()),
                },
            ],
            aborted_ranks: 2,
            deadline_exceeded: false,
            primary: None,
        };
        assert_eq!(wf.injected_crashes(), 1);
        let text = wf.to_string();
        assert!(text.contains("rank 1"), "{text}");
        assert!(text.contains("injected crash-stop"), "{text}");
    }

    #[test]
    fn display_marks_deadline() {
        let wf = WorldFailure {
            failures: vec![RankFailure {
                rank: 0,
                phase: "voronoi".into(),
                reason: FailureReason::DeadlineExceeded,
            }],
            aborted_ranks: 3,
            deadline_exceeded: true,
            primary: None,
        };
        assert!(wf.to_string().contains("deadline exceeded"));
    }
}
