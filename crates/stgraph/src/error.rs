//! Errors shared by every Steiner tree solver in the suite.

use crate::csr::{Vertex, Weight};

/// Why a Steiner tree could not be computed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SteinerError {
    /// Fewer than one seed was supplied.
    NoSeeds,
    /// Fewer than two distinct seeds were supplied to a solver that
    /// needs a nontrivial terminal set.
    TooFewSeeds {
        /// Number of distinct seeds after deduplication.
        got: usize,
    },
    /// Two seeds are in different connected components.
    SeedsDisconnected(Vertex, Vertex),
    /// A seed id is outside the graph's vertex range.
    SeedOutOfRange(Vertex),
    /// The exact solver's state space `2^|S| * |V|` exceeds its budget.
    ExactTooLarge {
        /// Number of DP states the instance would need.
        states: u128,
    },
    /// The solve's wall-clock deadline expired before the tree was
    /// assembled; the ranks were cooperatively aborted and a flight dump
    /// holds the partial progress record.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// A rank crashed and the supervisor could not restore: either no
    /// complete phase checkpoint existed (checkpointing disabled, or the
    /// crash predates the first barrier) or the restore budget ran out.
    Unrecoverable {
        /// Restores performed before giving up.
        restores: u64,
    },
    /// The graph's heaviest edge is too heavy for distance arithmetic: a
    /// connecting path `d(s, u) + w(u, v) + d(v, t)` can reach
    /// `(2n - 1) * max_weight`, which must stay below `INF`.
    WeightOverflow {
        /// Heaviest edge weight of the graph.
        max_weight: Weight,
        /// Vertex count of the graph.
        num_vertices: usize,
    },
    /// A solve on a resident world asked for a world-level observability
    /// setting (`trace` or `metrics`) other than the one the
    /// world was built with.
    ResidentConfigMismatch {
        /// The solver-config field that differs from the world's.
        field: &'static str,
    },
}

impl std::fmt::Display for SteinerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteinerError::NoSeeds => write!(f, "no seed vertices supplied"),
            SteinerError::TooFewSeeds { got } => {
                write!(f, "need at least 2 distinct seed vertices, got {got}")
            }
            SteinerError::SeedsDisconnected(s, t) => {
                write!(f, "seeds {s} and {t} are not connected in the graph")
            }
            SteinerError::SeedOutOfRange(s) => write!(f, "seed {s} out of vertex range"),
            SteinerError::ExactTooLarge { states } => write!(
                f,
                "exact Dreyfus-Wagner needs {states} DP states, over budget"
            ),
            SteinerError::DeadlineExceeded { deadline_ms } => {
                write!(f, "solve deadline of {deadline_ms} ms exceeded")
            }
            SteinerError::Unrecoverable { restores } => write!(
                f,
                "rank failure unrecoverable after {restores} restore(s): \
                 no usable phase checkpoint"
            ),
            SteinerError::WeightOverflow {
                max_weight,
                num_vertices,
            } => write!(
                f,
                "edge weight {max_weight} can overflow a path distance on \
                 {num_vertices} vertices: (2n - 1) * max weight must stay below {}",
                crate::csr::INF
            ),
            SteinerError::ResidentConfigMismatch { field } => write!(
                f,
                "solver config's `{field}` differs from the resident world's; \
                 build the world with the same `{field}` setting"
            ),
        }
    }
}

impl std::error::Error for SteinerError {}
