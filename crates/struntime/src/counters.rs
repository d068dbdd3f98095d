//! Per-rank, per-phase message and byte counters, and the rank's sync
//! point count.
//!
//! The paper's Fig 6 reports "the actual number of messages communicated,
//! grouped by computation phases". Every [`crate::channels::ChannelGroup`]
//! is opened under a phase label; sends through it are attributed to that
//! label automatically.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts for one phase on one rank.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Visitors sent to a remote rank's queue.
    pub remote_msgs: AtomicU64,
    /// Visitors pushed into the local queue (no network traversal).
    pub local_msgs: AtomicU64,
    /// Payload bytes shipped remotely.
    pub remote_bytes: AtomicU64,
    /// Aggregated network batches shipped (see traversal aggregation).
    pub remote_batches: AtomicU64,
}

/// Plain-data snapshot of [`PhaseStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Visitors sent to a remote rank's queue.
    pub remote_msgs: u64,
    /// Visitors pushed into the local queue.
    pub local_msgs: u64,
    /// Payload bytes shipped remotely.
    pub remote_bytes: u64,
    /// Aggregated network batches shipped.
    pub remote_batches: u64,
}

impl PhaseSnapshot {
    /// Total visitor count, local + remote.
    pub fn total_msgs(&self) -> u64 {
        self.remote_msgs + self.local_msgs
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &PhaseSnapshot) {
        self.remote_msgs += other.remote_msgs;
        self.local_msgs += other.local_msgs;
        self.remote_bytes += other.remote_bytes;
        self.remote_batches += other.remote_batches;
    }
}

/// The sync points one rank crossed. Every rank crosses the same ones
/// in the same order (barriers and collectives are lockstep), so the
/// counts are a deterministic function of the program, not the schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncPoints {
    /// Rank barriers ([`crate::Comm::barrier`]), the ones inside
    /// collectives and traversal fences included.
    pub barriers: u64,
    /// Collective calls (all-reduce, all-to-all, broadcast).
    pub collectives: u64,
}

/// All phase counters of one rank.
#[derive(Debug, Default)]
pub struct RankCounters {
    phases: Mutex<BTreeMap<&'static str, Arc<PhaseStats>>>,
    barriers: AtomicU64,
    collectives: AtomicU64,
}

impl RankCounters {
    /// The stats cell for `phase`, creating it on first use.
    pub fn phase(&self, phase: &'static str) -> Arc<PhaseStats> {
        Arc::clone(self.phases.lock().entry(phase).or_default())
    }

    /// Counts one barrier crossing.
    pub(crate) fn count_barrier(&self) {
        self.barriers.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one collective call.
    pub(crate) fn count_collective(&self) {
        self.collectives.fetch_add(1, Ordering::Relaxed);
    }

    /// The sync points crossed so far.
    pub fn sync_points(&self) -> SyncPoints {
        SyncPoints {
            barriers: self.barriers.load(Ordering::Relaxed),
            collectives: self.collectives.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of every phase seen so far.
    pub fn snapshot(&self) -> BTreeMap<&'static str, PhaseSnapshot> {
        self.phases
            .lock()
            .iter()
            .map(|(&name, s)| {
                (
                    name,
                    PhaseSnapshot {
                        remote_msgs: s.remote_msgs.load(Ordering::Relaxed),
                        local_msgs: s.local_msgs.load(Ordering::Relaxed),
                        remote_bytes: s.remote_bytes.load(Ordering::Relaxed),
                        remote_batches: s.remote_batches.load(Ordering::Relaxed),
                    },
                )
            })
            .collect()
    }
}

/// Sums per-rank snapshots into a cluster-wide per-phase view.
pub fn merge_snapshots(
    snaps: &[BTreeMap<&'static str, PhaseSnapshot>],
) -> BTreeMap<&'static str, PhaseSnapshot> {
    let mut out: BTreeMap<&'static str, PhaseSnapshot> = BTreeMap::new();
    for snap in snaps {
        for (&name, s) in snap {
            out.entry(name).or_default().merge(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_created_on_demand() {
        let c = RankCounters::default();
        c.phase("voronoi")
            .remote_msgs
            .fetch_add(3, Ordering::Relaxed);
        c.phase("voronoi")
            .local_msgs
            .fetch_add(2, Ordering::Relaxed);
        let snap = c.snapshot();
        assert_eq!(snap["voronoi"].remote_msgs, 3);
        assert_eq!(snap["voronoi"].total_msgs(), 5);
    }

    #[test]
    fn every_rank_counts_each_barrier_and_collective() {
        let out = crate::World::run(3, |comm| {
            comm.barrier();
            let mut x = [1u64];
            comm.allreduce_sum(&mut x);
            comm.broadcast(0, (comm.rank() == 0).then_some(7u32));
            let mut recv = Vec::new();
            comm.alltoallv("x", &vec![vec![1u32]; 3], &mut recv);
        });
        for r in &out.reports {
            // One plain barrier, then four, three and two inside the
            // all-reduce, the broadcast and the all-to-all.
            let want = SyncPoints {
                barriers: 10,
                collectives: 3,
            };
            assert_eq!(r.sync_points, want);
        }
    }

    #[test]
    fn merge_sums_across_ranks() {
        let a = RankCounters::default();
        a.phase("x").remote_msgs.fetch_add(1, Ordering::Relaxed);
        let b = RankCounters::default();
        b.phase("x").remote_msgs.fetch_add(2, Ordering::Relaxed);
        b.phase("y").local_msgs.fetch_add(7, Ordering::Relaxed);
        let merged = merge_snapshots(&[a.snapshot(), b.snapshot()]);
        assert_eq!(merged["x"].remote_msgs, 3);
        assert_eq!(merged["y"].local_msgs, 7);
    }
}
