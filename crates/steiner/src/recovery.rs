//! Crash-stop recovery: phase checkpoints and restore bookkeeping.
//!
//! The solver is BSP-shaped — six phases, each ending at a global sync
//! point — so the natural recovery unit is the phase. At every phase
//! boundary each rank serializes its recoverable state through the wire
//! codec into an in-memory [`CheckpointStore`] (standing in for the burst
//! buffers / node-local NVMe a real deployment would use). When the fault
//! injector crash-stops a rank, the supervisor in
//! [`crate::solve_partitioned`] restarts the world from the newest phase
//! boundary for which **every** rank has a snapshot, with the plan's crash
//! triggers disarmed; the deterministic fixpoint guarantees the replayed
//! solve produces a tree bit-identical to a fault-free run.
//!
//! Checkpoint indices count *completed phases*: checkpoint `0` is the
//! initial state (taken before the Voronoi phase starts, so a crash in the
//! very first phase is still recoverable), checkpoint `k` is taken right
//! after phase `k-1`'s closing barrier. The store is keyed by
//! `(completed, rank)`; a checkpoint level is restorable only once all
//! ranks have written it, which the BSP structure guarantees for every
//! level at or below the crashed phase (checkpoint writes are straight-line
//! code after a barrier, and survivors only unwind at their *next* sync
//! point).

use crate::distance_graph::{MinEdge, PairKey};
use crate::phases::{Phase, PhaseTimes};
use crate::state::VertexStates;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use struntime::Wire;

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
/// report's `rank_work`, `stale_drops` and `pruned_at_push` come from them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Visitors processed.
    pub processed: u64,
    /// Voronoi relaxations the queue's stale filter dropped.
    pub stale_dropped: u64,
    /// Voronoi relaxations pruned before they were pushed.
    pub pruned_at_push: u64,
}

/// One rank's serialized snapshot at a phase boundary: the vertex state
/// plus whichever phase artifacts later phases (and the final report)
/// still need. Everything else — channel queues, scratch arenas,
/// reliability-protocol buffers — is deliberately *not* checkpointed: at a
/// phase boundary the channels are drained and the protocol quiescent, so
/// the vertex state and artifacts are the entire live state.
#[derive(Default)]
pub(crate) struct RankCheckpoint {
    /// Per-phase elapsed times so far, in microseconds.
    pub times_us: [u64; Phase::ALL.len()],
    /// Work counters so far.
    pub work: Work,
    /// Local min cross-cell edges: per-pair minima in `MstMode::Replicated`,
    /// the rank's spanning forest in `MstMode::Dist` (present at the
    /// post-`local_min_edge` boundary only; consumed by the global
    /// reduction).
    pub local: Option<Vec<(PairKey, MinEdge)>>,
    /// Reduced distance graph (present after `global_min_edge` through
    /// `mst`).
    pub dg: Option<Vec<(PairKey, MinEdge)>>,
    /// MST parent edge choices (present after `mst`).
    pub chosen: Option<Vec<usize>>,
    /// `dg.len()` — kept after `dg` itself is dropped so the report's
    /// edge count survives a late restore.
    pub dg_len: usize,
    /// MST-chosen bridges (present after `edge_pruning`; in
    /// `MstMode::Dist`, already present after `global_min_edge` since
    /// the Borůvka rounds produce them directly).
    pub bridges: Option<Vec<MinEdge>>,
    /// Borůvka round counters (dist mode only; present from the
    /// post-`global_min_edge` boundary onward so a late restore still
    /// reports the rounds that actually ran).
    pub boruvka: Option<crate::boruvka::BoruvkaStats>,
}

fn encode_min_edge(e: &MinEdge, out: &mut Vec<u8>) {
    e.total.encode_into(out);
    e.a.encode_into(out);
    e.b.encode_into(out);
    e.weight.encode_into(out);
}

fn decode_min_edge(buf: &[u8], pos: &mut usize) -> Option<MinEdge> {
    Some(MinEdge {
        total: Wire::decode_from(buf, pos)?,
        a: Wire::decode_from(buf, pos)?,
        b: Wire::decode_from(buf, pos)?,
        weight: Wire::decode_from(buf, pos)?,
    })
}

fn encode_keyed_edges(edges: Option<&[(PairKey, MinEdge)]>, out: &mut Vec<u8>) {
    match edges {
        None => false.encode_into(out),
        Some(edges) => {
            true.encode_into(out);
            (edges.len() as u64).encode_into(out);
            for ((i, j), e) in edges {
                i.encode_into(out);
                j.encode_into(out);
                encode_min_edge(e, out);
            }
        }
    }
}

fn decode_keyed_edges(buf: &[u8], pos: &mut usize) -> Option<Option<Vec<(PairKey, MinEdge)>>> {
    if !bool::decode_from(buf, pos)? {
        return Some(None);
    }
    let len = u64::decode_from(buf, pos)? as usize;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let i = u32::decode_from(buf, pos)?;
        let j = u32::decode_from(buf, pos)?;
        out.push(((i, j), decode_min_edge(buf, pos)?));
    }
    Some(Some(out))
}

impl RankCheckpoint {
    /// Builds the snapshot blob for `states` plus the given artifacts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn encode(
        states: &VertexStates,
        times: &PhaseTimes,
        work: Work,
        local: Option<&[(PairKey, MinEdge)]>,
        dg: Option<&[(PairKey, MinEdge)]>,
        chosen: Option<&[usize]>,
        dg_len: usize,
        bridges: Option<&[MinEdge]>,
        boruvka: Option<&crate::boruvka::BoruvkaStats>,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        states.encode_checkpoint(&mut out);
        for phase in Phase::ALL {
            (times[phase].as_micros() as u64).encode_into(&mut out);
        }
        work.processed.encode_into(&mut out);
        work.stale_dropped.encode_into(&mut out);
        work.pruned_at_push.encode_into(&mut out);
        encode_keyed_edges(local, &mut out);
        encode_keyed_edges(dg, &mut out);
        match chosen {
            None => false.encode_into(&mut out),
            Some(chosen) => {
                true.encode_into(&mut out);
                (chosen.len() as u64).encode_into(&mut out);
                for &c in chosen {
                    c.encode_into(&mut out);
                }
            }
        }
        dg_len.encode_into(&mut out);
        match bridges {
            None => false.encode_into(&mut out),
            Some(bridges) => {
                true.encode_into(&mut out);
                (bridges.len() as u64).encode_into(&mut out);
                for e in bridges {
                    encode_min_edge(e, &mut out);
                }
            }
        }
        match boruvka {
            None => false.encode_into(&mut out),
            Some(b) => {
                true.encode_into(&mut out);
                b.rounds.encode_into(&mut out);
                (b.edges_reduced.len() as u64).encode_into(&mut out);
                for &n in &b.edges_reduced {
                    n.encode_into(&mut out);
                }
                (b.components.len() as u64).encode_into(&mut out);
                for &n in &b.components {
                    n.encode_into(&mut out);
                }
            }
        }
        out
    }

    /// Decodes a snapshot, restoring the vertex-state arrays in place.
    /// `None` on shape mismatch or truncation — the supervisor treats
    /// that as unrecoverable rather than resuming from garbage.
    pub(crate) fn decode(blob: &[u8], states: &mut VertexStates) -> Option<RankCheckpoint> {
        let mut pos = 0;
        states.restore_checkpoint(blob, &mut pos)?;
        let mut ck = RankCheckpoint::default();
        for t in &mut ck.times_us {
            *t = u64::decode_from(blob, &mut pos)?;
        }
        ck.work = Work {
            processed: u64::decode_from(blob, &mut pos)?,
            stale_dropped: u64::decode_from(blob, &mut pos)?,
            pruned_at_push: u64::decode_from(blob, &mut pos)?,
        };
        ck.local = decode_keyed_edges(blob, &mut pos)?;
        ck.dg = decode_keyed_edges(blob, &mut pos)?;
        ck.chosen = if bool::decode_from(blob, &mut pos)? {
            let len = u64::decode_from(blob, &mut pos)? as usize;
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(usize::decode_from(blob, &mut pos)?);
            }
            Some(v)
        } else {
            None
        };
        ck.dg_len = usize::decode_from(blob, &mut pos)?;
        ck.bridges = if bool::decode_from(blob, &mut pos)? {
            let len = u64::decode_from(blob, &mut pos)? as usize;
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(decode_min_edge(blob, &mut pos)?);
            }
            Some(v)
        } else {
            None
        };
        ck.boruvka = if bool::decode_from(blob, &mut pos)? {
            let rounds = u64::decode_from(blob, &mut pos)?;
            let mut edges_reduced = Vec::new();
            for _ in 0..u64::decode_from(blob, &mut pos)? {
                edges_reduced.push(u64::decode_from(blob, &mut pos)?);
            }
            let mut components = Vec::new();
            for _ in 0..u64::decode_from(blob, &mut pos)? {
                components.push(u64::decode_from(blob, &mut pos)?);
            }
            Some(crate::boruvka::BoruvkaStats {
                rounds,
                edges_reduced,
                components,
            })
        } else {
            None
        };
        if pos == blob.len() {
            Some(ck)
        } else {
            None
        }
    }

    /// The restored phase times as a [`PhaseTimes`].
    pub(crate) fn times(&self) -> PhaseTimes {
        let mut times = PhaseTimes::default();
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            times[phase] = Duration::from_micros(self.times_us[i]);
        }
        times
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
        let mut times = PhaseTimes::default();
        times[Phase::Voronoi] = Duration::from_micros(1234);
        let local = vec![(
            (0u32, 1u32),
            MinEdge {
                total: 7,
                a: 1,
                b: 2,
                weight: 3,
            },
        )];
        let bridges = vec![MinEdge {
            total: 9,
            a: 0,
            b: 5,
            weight: 2,
        }];
        let boruvka = crate::boruvka::BoruvkaStats {
            rounds: 2,
            edges_reduced: vec![4, 2],
            components: vec![2, 1],
        };
        let work = Work {
            processed: 42,
            stale_dropped: 7,
            pruned_at_push: 5,
        };
        let blob = RankCheckpoint::encode(
            &st,
            &times,
            work,
            Some(&local),
            None,
            Some(&[3, 1, 4]),
            11,
            Some(&bridges),
            Some(&boruvka),
        );
        let mut fresh = states();
        let ck = RankCheckpoint::decode(&blob, &mut fresh).expect("round trip");
        assert_eq!(fresh.label(0), st.label(0));
        assert_eq!(ck.times()[Phase::Voronoi], Duration::from_micros(1234));
        assert_eq!(ck.work, work);
        assert_eq!(ck.local.as_deref(), Some(&local[..]));
        assert!(ck.dg.is_none());
        assert_eq!(ck.chosen.as_deref(), Some(&[3usize, 1, 4][..]));
        assert_eq!(ck.dg_len, 11);
        assert_eq!(ck.bridges.as_deref(), Some(&bridges[..]));
        assert_eq!(ck.boruvka.as_ref(), Some(&boruvka));

        // Truncated blobs are rejected, not half-applied.
        let mut fresh = states();
        assert!(RankCheckpoint::decode(&blob[..blob.len() - 1], &mut fresh).is_none());
    }
}
