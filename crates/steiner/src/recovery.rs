//! Crash-stop recovery: phase checkpoints and restore bookkeeping.
//!
//! The solver is BSP-shaped — each MST mode runs a fixed list of phases
//! ([`crate::MstMode::phases`]: six under `replicated`, four under
//! `dist`), each ending at a global sync point — so the natural recovery
//! unit is the phase. At every phase boundary each rank serializes its
//! vertex state and its `Progress` record through the wire codec into
//! an in-memory [`CheckpointStore`] (standing in for the burst buffers /
//! node-local NVMe a real deployment would use). When the fault injector
//! crash-stops a rank, the supervisor in [`crate::solve_partitioned`]
//! restarts the world from the newest phase boundary for which **every**
//! rank has a snapshot, with the plan's crash triggers disarmed; the
//! deterministic fixpoint guarantees the replayed solve produces a tree
//! bit-identical to a fault-free run.
//!
//! Checkpoint indices count *completed phases of the mode's list*:
//! checkpoint `0` is the initial state (taken before the Voronoi phase
//! starts, so a crash in the very first phase is still recoverable), and
//! checkpoint `k` is taken right after the closing sync point of the
//! list's `k`-th phase. The store is keyed by `(completed, rank)`; a
//! checkpoint level is restorable only once all ranks have written it.
//! The BSP structure guarantees that for every level below the crashed
//! phase (checkpoint writes are straight-line code after a barrier, and
//! survivors only unwind at a sync point), and usually for the crashed
//! phase's entry level too (see `Progress::save`).

use crate::boruvka::BoruvkaStats;
use crate::distance_graph::{MinEdge, PairKey};
use crate::phases::{Phase, PhaseTimes};
use crate::state::VertexStates;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use struntime::{Comm, Wire};

/// In-memory checkpoint storage shared by all ranks of a solve, keyed by
/// `(completed phases, rank)`. Byte-accounted so the recovery overhead
/// shows up in reports; ranks additionally charge their blobs to the
/// `"checkpoint"` memory label for the Fig 8-style peak series.
pub struct CheckpointStore {
    num_ranks: usize,
    slots: Mutex<BTreeMap<(usize, usize), Vec<u8>>>,
    bytes: AtomicUsize,
    taken: AtomicU64,
}

impl CheckpointStore {
    /// An empty store for a `num_ranks`-rank world.
    pub fn new(num_ranks: usize) -> CheckpointStore {
        CheckpointStore {
            num_ranks,
            slots: Mutex::new(BTreeMap::new()),
            bytes: AtomicUsize::new(0),
            taken: AtomicU64::new(0),
        }
    }

    /// Stores `rank`'s snapshot for the `completed`-phases boundary,
    /// replacing any previous one; returns the replaced blob's size in
    /// bytes (0 if none) so the caller can settle its memory accounting.
    pub fn put(&self, completed: usize, rank: usize, blob: Vec<u8>) -> usize {
        let new_len = blob.len();
        let old_len = self
            .slots
            .lock()
            .expect("checkpoint store poisoned")
            .insert((completed, rank), blob)
            .map_or(0, |old| old.len());
        self.bytes.fetch_add(new_len, Ordering::Relaxed);
        self.bytes.fetch_sub(old_len, Ordering::Relaxed);
        self.taken.fetch_add(1, Ordering::Relaxed);
        old_len
    }

    /// The snapshot `rank` wrote at the `completed`-phases boundary.
    pub fn get(&self, completed: usize, rank: usize) -> Option<Vec<u8>> {
        self.slots
            .lock()
            .expect("checkpoint store poisoned")
            .get(&(completed, rank))
            .cloned()
    }

    /// The newest phase boundary for which every rank has a snapshot —
    /// the restore point. `None` when no boundary is complete (nothing to
    /// restore from).
    pub fn latest_complete(&self) -> Option<usize> {
        let slots = self.slots.lock().expect("checkpoint store poisoned");
        (0..=Phase::ALL.len())
            .filter(|&c| (0..self.num_ranks).all(|r| slots.contains_key(&(c, r))))
            .max()
    }

    /// Bytes currently resident across all snapshots.
    pub fn resident_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Snapshots written over the store's lifetime (including overwrites).
    pub fn taken(&self) -> u64 {
        self.taken.load(Ordering::Relaxed)
    }
}

/// Supervisor-side recovery counters for one solve, surfaced in
/// [`crate::SolveReport::recovery`] and the RunReport's v6 `recovery`
/// section.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Injected crash-stops observed across all attempts.
    pub crashes_injected: u64,
    /// Checkpoints written (including per-attempt overwrites).
    pub checkpoints_taken: u64,
    /// Peak bytes resident in the checkpoint store.
    pub checkpoint_bytes: u64,
    /// Restarts from a phase checkpoint.
    pub restores: u64,
    /// Phases re-executed across all restores (counting the partially
    /// completed phase the crash interrupted).
    pub replayed_phases: u64,
    /// Survivor ranks that unwound cooperatively after an abort epoch.
    pub aborted_ranks: u64,
}

/// One rank's work counters, summed over the phases it has run; the
/// report's `rank_work`, `admission_drops`, `pop_drops`, `stale_drops`
/// and `pruned_at_push` come from them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Visitors processed.
    pub processed: u64,
    /// Inbound Voronoi relaxations dropped at queue admission.
    pub admission_dropped: u64,
    /// Queued Voronoi entries dropped at pop.
    pub pop_dropped: u64,
    /// Voronoi relaxations pruned before they were pushed.
    pub pruned_at_push: u64,
}

struntime::wire_struct!(Work {
    processed,
    admission_dropped,
    pop_dropped,
    pruned_at_push
});

/// One rank's progress through its mode's phase list: the phase times and
/// work counters so far, plus whichever phase artifacts later phases (and
/// the final report) still need. `rank_main` updates it phase by phase,
/// and a phase consumes the artifacts it reads, so the record holds only
/// live state. Its wire encoding, after the vertex state, is the rank's
/// checkpoint: everything else — channel queues, scratch arenas,
/// reliability-protocol buffers — is deliberately *not* checkpointed, as
/// at a phase boundary the channels are drained and the protocol
/// quiescent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Progress {
    /// Per-phase elapsed times so far.
    pub times: PhaseTimes,
    /// The part of each phase's time spent blocked
    /// ([`struntime::Comm::wait_time`]).
    pub wait: PhaseTimes,
    /// Work counters so far.
    pub work: Work,
    /// Local min cross-cell edges: per-pair minima in `MstMode::Replicated`,
    /// the rank's spanning forest in `MstMode::Dist` (from
    /// `local_min_edge` until the global reduction consumes them).
    pub local: Option<Vec<(PairKey, MinEdge)>>,
    /// Reduced distance graph (replicated mode, from `global_min_edge`
    /// until pruning consumes it).
    pub dg: Option<Vec<(PairKey, MinEdge)>>,
    /// MST parent edge choices (replicated mode, from `mst` until pruning
    /// consumes them).
    pub chosen: Option<Vec<usize>>,
    /// Distance-graph edges (replicated) or chosen bridges (dist) — kept
    /// after the artifacts themselves are consumed so the report's edge
    /// count survives a late restore.
    pub dg_len: usize,
    /// MST-chosen bridges: produced by `edge_pruning` in replicated mode
    /// and directly by the Borůvka rounds of `global_min_edge` in dist
    /// mode; consumed by `tree_edge`.
    pub bridges: Option<Vec<MinEdge>>,
    /// Borůvka round counters (dist mode only, from `global_min_edge` on,
    /// so a late restore still reports the rounds that actually ran).
    pub boruvka: Option<BoruvkaStats>,
}

struntime::wire_struct!(Progress {
    times,
    wait,
    work,
    local,
    dg,
    chosen,
    dg_len,
    bridges,
    boruvka
});

impl Progress {
    /// The checkpoint blob: `states`, then this record.
    pub(crate) fn encode_checkpoint(&self, states: &VertexStates) -> Vec<u8> {
        let mut out = Vec::new();
        states.encode_checkpoint(&mut out);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a checkpoint blob, restoring the vertex-state arrays in
    /// place. `None` on shape mismatch, truncation or trailing bytes —
    /// the caller treats that as unrecoverable rather than resuming from
    /// garbage.
    pub(crate) fn decode_checkpoint(blob: &[u8], states: &mut VertexStates) -> Option<Progress> {
        let mut pos = 0;
        states.restore_checkpoint(blob, &mut pos)?;
        let progress = Progress::decode_from(blob, &mut pos)?;
        (pos == blob.len()).then_some(progress)
    }

    /// Writes this rank's level-`completed` checkpoint to `store` and
    /// charges the blob to the rank's `"checkpoint"` memory label. Called
    /// in straight-line code right after a phase's closing sync point, so
    /// when a crash in the next phase aborts the world, every rank has
    /// usually written this level already. A survivor still inside the
    /// phase's last collective (an `alltoallv` collects after its final
    /// barrier) unwinds before writing it, and the supervisor then
    /// restores the level below, which is complete.
    pub(crate) fn save(
        &self,
        comm: &Comm,
        store: &CheckpointStore,
        completed: usize,
        states: &VertexStates,
    ) {
        let blob = self.encode_checkpoint(states);
        let new_len = blob.len();
        let old_len = store.put(completed, comm.rank(), blob);
        comm.memory().record("checkpoint", new_len);
        if old_len > 0 {
            comm.memory().release("checkpoint", old_len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph::builder::GraphBuilder;
    use stgraph::partition::partition_graph;

    fn states() -> VertexStates {
        let mut b = GraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.build();
        VertexStates::new(&partition_graph(&g, 2, None).ranks[0])
    }

    #[test]
    fn store_tracks_bytes_and_completeness() {
        let store = CheckpointStore::new(2);
        assert_eq!(store.latest_complete(), None);
        assert_eq!(store.put(0, 0, vec![1; 10]), 0);
        assert_eq!(store.latest_complete(), None, "rank 1 missing");
        assert_eq!(store.put(0, 1, vec![2; 20]), 0);
        assert_eq!(store.latest_complete(), Some(0));
        assert_eq!(store.resident_bytes(), 30);

        store.put(1, 0, vec![3; 5]);
        assert_eq!(
            store.latest_complete(),
            Some(0),
            "an incomplete newer level never wins"
        );
        store.put(1, 1, vec![4; 5]);
        assert_eq!(store.latest_complete(), Some(1));

        // Overwrites settle the byte accounting and report the old size.
        assert_eq!(store.put(0, 0, vec![9; 4]), 10);
        assert_eq!(store.resident_bytes(), 34);
        assert_eq!(store.taken(), 5);
    }

    #[test]
    fn rank_checkpoint_round_trips_every_artifact() {
        let mut st = states();
        st.init_seeds(&[0, 2]);
        let edge = |total, a, b| MinEdge {
            total,
            a,
            b,
            weight: 2,
        };
        let mut progress = Progress {
            work: Work {
                processed: 42,
                admission_dropped: 3,
                pop_dropped: 7,
                pruned_at_push: 5,
            },
            local: Some(vec![((0, 1), edge(7, 1, 2))]),
            dg: Some(vec![((0, 1), edge(7, 1, 2)), ((1, 2), edge(8, 3, 4))]),
            chosen: Some(vec![3, 1, 4]),
            dg_len: 11,
            bridges: Some(vec![edge(9, 0, 5)]),
            boruvka: Some(BoruvkaStats {
                rounds: 2,
                edges_reduced: vec![4, 2],
                components: vec![2, 1],
            }),
            ..Progress::default()
        };
        progress.times[Phase::Voronoi] = std::time::Duration::new(1, 234_567);
        let blob = progress.encode_checkpoint(&st);
        let mut fresh = states();
        let back = Progress::decode_checkpoint(&blob, &mut fresh).expect("round trip");
        assert_eq!(fresh.label(0), st.label(0));
        assert_eq!(back, progress, "every artifact, times to the nanosecond");

        // Absent artifacts stay absent.
        let empty = Progress::default();
        let blob_empty = empty.encode_checkpoint(&st);
        let mut fresh = states();
        assert_eq!(
            Progress::decode_checkpoint(&blob_empty, &mut fresh),
            Some(empty)
        );

        // Truncated or padded blobs are rejected, not half-applied.
        let mut fresh = states();
        assert!(Progress::decode_checkpoint(&blob[..blob.len() - 1], &mut fresh).is_none());
        let mut padded = blob.clone();
        padded.push(0);
        assert!(Progress::decode_checkpoint(&padded, &mut fresh).is_none());
    }
}
