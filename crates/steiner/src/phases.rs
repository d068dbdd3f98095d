//! Phase identification and per-phase wall-clock accounting.
//!
//! The paper's Figs 3–6 break total runtime (and message counts) into the
//! computation steps of Alg 3; [`Phase`] enumerates those steps and
//! [`PhaseTimes`] records a duration per step.

use std::ops::{Index, IndexMut};
use std::time::Duration;

/// The six computation steps of the distributed algorithm (Alg 3).
/// [`crate::MstMode::phases`] lists the ones each MST mode runs: all six
/// under `replicated`, and under `dist` every step but [`Phase::Mst`] and
/// [`Phase::EdgePruning`], whose work the Borůvka rounds of
/// [`Phase::GlobalMinEdge`] already do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Asynchronous Voronoi cell computation (Alg 4).
    Voronoi,
    /// Local min-distance cross-cell edge identification (Alg 5).
    LocalMinEdge,
    /// Global min-distance edge reduction — the collective (Alg 5).
    GlobalMinEdge,
    /// Sequential MST of the distance graph `G_1'`.
    Mst,
    /// Global edge pruning against the MST (Alg 5).
    EdgePruning,
    /// Steiner tree edge identification by predecessor tracing (Alg 6).
    TreeEdge,
}

impl Phase {
    /// All phases in execution order.
    pub const ALL: [Phase; 6] = [
        Phase::Voronoi,
        Phase::LocalMinEdge,
        Phase::GlobalMinEdge,
        Phase::Mst,
        Phase::EdgePruning,
        Phase::TreeEdge,
    ];

    /// Label used in counters and experiment output (matches the phase
    /// names in the paper's chart legends).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Voronoi => "voronoi",
            Phase::LocalMinEdge => "local_min_edge",
            Phase::GlobalMinEdge => "global_min_edge",
            Phase::Mst => "mst",
            Phase::EdgePruning => "edge_pruning",
            Phase::TreeEdge => "tree_edge",
        }
    }

    /// Position in [`Phase::ALL`] — the stable numeric id the crash
    /// injector's phase filter (`crash_phase`) uses in both MST modes.
    pub fn index(&self) -> usize {
        Phase::ALL.iter().position(|p| p == self).expect("in ALL")
    }
}

/// Wall-clock duration per phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    times: [Duration; 6],
}

struntime::wire_struct!(PhaseTimes { times });

impl PhaseTimes {
    /// Sum of all phase durations.
    pub fn total(&self) -> Duration {
        self.times.iter().sum()
    }

    /// Element-wise maximum — used to combine per-rank times into the
    /// barrier-bound cluster view.
    pub fn max(&self, other: &PhaseTimes) -> PhaseTimes {
        let mut out = *self;
        for (a, b) in out.times.iter_mut().zip(other.times.iter()) {
            *a = (*a).max(*b);
        }
        out
    }

    /// Iterates `(phase, duration)` in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, Duration)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self[p]))
    }
}

impl Index<Phase> for PhaseTimes {
    type Output = Duration;
    fn index(&self, p: Phase) -> &Duration {
        &self.times[p.index()]
    }
}

impl IndexMut<Phase> for PhaseTimes {
    fn index_mut(&mut self, p: Phase) -> &mut Duration {
        &mut self.times[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique_and_ordered() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 6);
        assert_eq!(names[0], "voronoi");
        assert_eq!(names[5], "tree_edge");
    }

    #[test]
    fn index_and_total() {
        let mut t = PhaseTimes::default();
        t[Phase::Voronoi] = Duration::from_millis(5);
        t[Phase::Mst] = Duration::from_millis(2);
        assert_eq!(t.total(), Duration::from_millis(7));
        assert_eq!(t[Phase::Voronoi], Duration::from_millis(5));
    }

    #[test]
    fn max_is_elementwise() {
        let mut a = PhaseTimes::default();
        let mut b = PhaseTimes::default();
        a[Phase::Voronoi] = Duration::from_millis(5);
        b[Phase::Voronoi] = Duration::from_millis(3);
        b[Phase::Mst] = Duration::from_millis(9);
        let m = a.max(&b);
        assert_eq!(m[Phase::Voronoi], Duration::from_millis(5));
        assert_eq!(m[Phase::Mst], Duration::from_millis(9));
    }
}
