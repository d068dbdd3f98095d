//! Per-rank distributed vertex state for the Steiner algorithm.
//!
//! Every vertex `v` carries the Alg 3 states `src(v)` (nearest seed),
//! `d_1(src(v), v)` (distance to it), `pred(v)` (predecessor on the
//! shortest path), the predecessor edge's weight (so tree edges can be
//! emitted without a remote adjacency lookup), and a `traced` flag used by
//! the tree-edge phase. State for owned non-delegate vertices lives only on
//! the owner rank; delegate (hub) vertex state is *replicated* on every
//! rank and kept consistent by controller broadcasts, mirroring HavoqGT's
//! delegate mechanism.
//!
//! A vertex label is the triple `(dist, src, pred)` ordered
//! lexicographically; relaxation accepts strictly smaller labels only, so
//! the asynchronous computation converges to a unique fixpoint regardless
//! of message timing — this is what makes the distributed solver's output
//! deterministic and bit-comparable to the sequential reference.

use crate::messages::VoronoiMsg;
use stgraph::csr::{Distance, Vertex, Weight, INF};
use stgraph::partition::RankGraph;
use struntime::Wire;

/// Sentinel for "no vertex" in `src`/`pred` slots.
pub const NO_VERTEX: Vertex = Vertex::MAX;

/// A relaxation label: distance, seed, predecessor — compared
/// lexicographically (smaller wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Label {
    /// Distance from the seed.
    pub dist: Distance,
    /// The seed (`src`) this label descends from.
    pub src: Vertex,
    /// Predecessor vertex on the path (`NO_VERTEX` for seeds).
    pub pred: Vertex,
}

impl Label {
    /// The "unreached" label — worse than every real label.
    pub const UNSET: Label = Label {
        dist: INF,
        src: NO_VERTEX,
        pred: NO_VERTEX,
    };

    /// The label of seed `s` itself.
    pub fn seed(s: Vertex) -> Label {
        Label {
            dist: 0,
            src: s,
            pred: NO_VERTEX,
        }
    }
}

impl Wire for Label {
    fn encoded_len(&self) -> usize {
        8 + 4 + 4
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.dist.encode_into(out);
        self.src.encode_into(out);
        self.pred.encode_into(out);
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(Label {
            dist: Distance::decode_from(buf, pos)?,
            src: Vertex::decode_from(buf, pos)?,
            pred: Vertex::decode_from(buf, pos)?,
        })
    }
}

struct StateArrays {
    dist: Vec<Distance>,
    src: Vec<Vertex>,
    pred: Vec<Vertex>,
    pred_weight: Vec<Weight>,
    traced: Vec<bool>,
}

impl StateArrays {
    fn new(len: usize) -> Self {
        StateArrays {
            dist: vec![INF; len],
            src: vec![NO_VERTEX; len],
            pred: vec![NO_VERTEX; len],
            pred_weight: vec![0; len],
            traced: vec![false; len],
        }
    }

    fn bytes(len: usize) -> usize {
        len * (std::mem::size_of::<Distance>()
            + 3 * std::mem::size_of::<Vertex>()
            + std::mem::size_of::<Weight>()
            + 1)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.dist.len() as u64).encode_into(out);
        for i in 0..self.dist.len() {
            self.dist[i].encode_into(out);
            self.src[i].encode_into(out);
            self.pred[i].encode_into(out);
            self.pred_weight[i].encode_into(out);
            self.traced[i].encode_into(out);
        }
    }

    /// Overwrites these arrays from a snapshot; `None` if the snapshot was
    /// taken for a different vertex count (partitioning changed) or is
    /// truncated.
    fn decode_over(&mut self, buf: &[u8], pos: &mut usize) -> Option<()> {
        let len = u64::decode_from(buf, pos)? as usize;
        if len != self.dist.len() {
            return None;
        }
        for i in 0..len {
            self.dist[i] = Distance::decode_from(buf, pos)?;
            self.src[i] = Vertex::decode_from(buf, pos)?;
            self.pred[i] = Vertex::decode_from(buf, pos)?;
            self.pred_weight[i] = Weight::decode_from(buf, pos)?;
            self.traced[i] = bool::decode_from(buf, pos)?;
        }
        Some(())
    }
}

/// Which storage a vertex's state lives in on this rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    Owned(usize),
    Delegate(usize),
}

/// All Steiner vertex state held by one rank.
pub struct VertexStates {
    owned_start: Vertex,
    owned_len: usize,
    delegates: std::sync::Arc<Vec<Vertex>>,
    owned: StateArrays,
    replicas: StateArrays,
}

impl VertexStates {
    /// Allocates state for the rank's owned vertices plus replicas of every
    /// delegate.
    pub fn new(rg: &RankGraph) -> Self {
        let owned_len = rg.num_owned();
        VertexStates {
            owned_start: rg.owned.start,
            owned_len,
            delegates: std::sync::Arc::clone(&rg.delegates),
            owned: StateArrays::new(owned_len),
            replicas: StateArrays::new(rg.delegates.len()),
        }
    }

    /// Approximate bytes of algorithm state held (the Fig 8 "state" series
    /// contribution of the vertex arrays).
    pub fn memory_bytes(&self) -> usize {
        StateArrays::bytes(self.owned_len) + StateArrays::bytes(self.delegates.len())
    }

    /// Whether `v` is a delegate vertex (state replicated everywhere).
    pub fn is_delegate(&self, v: Vertex) -> bool {
        self.delegates.binary_search(&v).is_ok()
    }

    /// Whether this rank holds state for `v` (owned or replica).
    pub fn holds(&self, v: Vertex) -> bool {
        self.find(v).is_some()
    }

    /// Where `v`'s state lives on this rank, with one delegate lookup.
    fn find(&self, v: Vertex) -> Option<Slot> {
        if let Ok(i) = self.delegates.binary_search(&v) {
            return Some(Slot::Delegate(i));
        }
        let i = v.wrapping_sub(self.owned_start) as usize;
        (v >= self.owned_start && i < self.owned_len).then_some(Slot::Owned(i))
    }

    fn slot(&self, v: Vertex) -> Slot {
        self.find(v)
            .unwrap_or_else(|| panic!("rank holds no state for vertex {v}"))
    }

    /// Number of state slots this rank holds: the range of
    /// [`VertexStates::held_index`].
    pub fn num_held(&self) -> usize {
        self.owned_len + self.delegates.len()
    }

    /// Dense index of `v`'s state on this rank — owned slots first, then
    /// delegate replicas — or `None` if the rank holds no state for `v`.
    /// Resolves the slot once, so a caller that needs several reads of
    /// the same vertex pays one delegate lookup.
    pub fn held_index(&self, v: Vertex) -> Option<usize> {
        self.find(v).map(|s| match s {
            Slot::Owned(i) => i,
            Slot::Delegate(i) => self.owned_len + i,
        })
    }

    /// The current label at dense index `i` (see
    /// [`VertexStates::held_index`]).
    pub fn label_at(&self, i: usize) -> Label {
        if i < self.owned_len {
            self.label_in(Slot::Owned(i))
        } else {
            self.label_in(Slot::Delegate(i - self.owned_len))
        }
    }

    /// The current distance at dense index `i` (see
    /// [`VertexStates::held_index`]).
    pub(crate) fn dist_at(&self, i: usize) -> Distance {
        if i < self.owned_len {
            self.owned.dist[i]
        } else {
            self.replicas.dist[i - self.owned_len]
        }
    }

    fn arrays(&self, s: Slot) -> (&StateArrays, usize) {
        match s {
            Slot::Owned(i) => (&self.owned, i),
            Slot::Delegate(i) => (&self.replicas, i),
        }
    }

    fn arrays_mut(&mut self, s: Slot) -> (&mut StateArrays, usize) {
        match s {
            Slot::Owned(i) => (&mut self.owned, i),
            Slot::Delegate(i) => (&mut self.replicas, i),
        }
    }

    /// The current label of `v`.
    pub fn label(&self, v: Vertex) -> Label {
        self.label_in(self.slot(v))
    }

    fn label_in(&self, s: Slot) -> Label {
        let (a, i) = self.arrays(s);
        Label {
            dist: a.dist[i],
            src: a.src[i],
            pred: a.pred[i],
        }
    }

    /// Weight of the predecessor edge recorded with `v`'s label.
    pub fn pred_weight(&self, v: Vertex) -> Weight {
        let (a, i) = self.arrays(self.slot(v));
        a.pred_weight[i]
    }

    /// Applies `label` to `v` if it is strictly smaller than the current
    /// one; records `pred_weight` alongside. Returns whether it improved.
    pub fn try_improve(&mut self, v: Vertex, label: Label, pred_weight: Weight) -> bool {
        let (a, i) = self.arrays_mut(self.slot(v));
        let current = Label {
            dist: a.dist[i],
            src: a.src[i],
            pred: a.pred[i],
        };
        if label < current {
            a.dist[i] = label.dist;
            a.src[i] = label.src;
            a.pred[i] = label.pred;
            a.pred_weight[i] = pred_weight;
            true
        } else {
            false
        }
    }

    /// Initializes seed labels: owned seeds and *all* delegate seeds (every
    /// rank can do the latter without communication since the seed list is
    /// globally known).
    pub fn init_seeds(&mut self, seeds: &[Vertex]) {
        for &s in seeds {
            if let Some(slot) = self.find(s) {
                let (a, i) = self.arrays_mut(slot);
                a.dist[i] = 0;
                a.src[i] = s;
                a.pred[i] = NO_VERTEX;
                a.pred_weight[i] = 0;
            }
        }
    }

    /// Marks `v` traced by the tree-edge phase; returns `false` if it was
    /// already traced (the visitor should stop).
    pub fn mark_traced(&mut self, v: Vertex) -> bool {
        let (a, i) = self.arrays_mut(self.slot(v));
        if a.traced[i] {
            false
        } else {
            a.traced[i] = true;
            true
        }
    }

    /// Appends a snapshot of all vertex state (owned arrays plus delegate
    /// replicas) to `out` via the wire codec, for the crash-recovery phase
    /// checkpoints. The delegate list and ownership range are derived from
    /// the partition and are not serialized.
    pub fn encode_checkpoint(&self, out: &mut Vec<u8>) {
        self.owned.encode_into(out);
        self.replicas.encode_into(out);
    }

    /// Restores a snapshot taken by [`VertexStates::encode_checkpoint`]
    /// over states freshly created for the same rank graph; `None` if the
    /// array shapes do not line up or the buffer is truncated.
    pub fn restore_checkpoint(&mut self, buf: &[u8], pos: &mut usize) -> Option<()> {
        self.owned.decode_over(buf, pos)?;
        self.replicas.decode_over(buf, pos)
    }

    /// Iterates the owned (non-delegate) vertices and their labels.
    pub fn owned_labels(&self) -> impl Iterator<Item = (Vertex, Label)> + '_ {
        (0..self.owned_len).filter_map(move |i| {
            let v = self.owned_start + i as Vertex;
            if self.is_delegate(v) {
                None
            } else {
                Some((
                    v,
                    Label {
                        dist: self.owned.dist[i],
                        src: self.owned.src[i],
                        pred: self.owned.pred[i],
                    },
                ))
            }
        })
    }
}

/// Reusable per-rank visitor scratch buffers, allocated once per rank and
/// reused across phases so the Voronoi hot path's steady state allocates
/// nothing:
///
/// - `init` — the bootstrap message list the asynchronous phase seeds its
///   local queue from,
/// - `admitted` — the asynchronous phase's best label admitted to the
///   visitor queue so far, per held vertex (indexed by
///   [`VertexStates::held_index`]; the admission side of its stale
///   filter).
///
/// Buffers are cleared (capacity retained) each time they are handed out,
/// so a fault-injection retry of the whole solve reuses the previous
/// attempt's allocations.
#[derive(Default)]
pub struct ScratchArena {
    init: Vec<VoronoiMsg>,
    admitted: Vec<Label>,
}

impl ScratchArena {
    /// An empty arena (no buffers allocated until first use).
    pub fn new() -> ScratchArena {
        ScratchArena::default()
    }

    /// The asynchronous Voronoi phase's buffers, split-borrowed: the
    /// bootstrap message buffer (cleared, capacity retained) and the
    /// admitted-label array, reset to `states`' current labels.
    pub fn voronoi_buffers(
        &mut self,
        states: &VertexStates,
    ) -> (&mut Vec<VoronoiMsg>, &mut Vec<Label>) {
        self.init.clear();
        self.admitted.clear();
        self.admitted
            .extend((0..states.num_held()).map(|i| states.label_at(i)));
        (&mut self.init, &mut self.admitted)
    }

    /// Approximate bytes held across all scratch buffers (capacity, since
    /// retained capacity is what the arena's reuse is about).
    pub fn memory_bytes(&self) -> usize {
        self.init.capacity() * std::mem::size_of::<VoronoiMsg>()
            + self.admitted.capacity() * std::mem::size_of::<Label>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph::builder::GraphBuilder;
    use stgraph::partition::partition_graph;

    fn make_states(delegate: bool) -> VertexStates {
        let mut b = GraphBuilder::new(8);
        for i in 0..7u32 {
            b.add_edge(i, i + 1, 1);
        }
        b.add_edge(0, 7, 1);
        for v in 2..7u32 {
            b.add_edge(0, v, 2);
        }
        let g = b.build();
        let threshold = if delegate { Some(5) } else { None };
        let pg = partition_graph(&g, 2, threshold);
        VertexStates::new(&pg.ranks[0])
    }

    #[test]
    fn label_ordering_is_lexicographic() {
        let a = Label {
            dist: 1,
            src: 9,
            pred: 9,
        };
        let b = Label {
            dist: 2,
            src: 0,
            pred: 0,
        };
        assert!(a < b);
        let c = Label {
            dist: 1,
            src: 3,
            pred: 9,
        };
        assert!(c < a);
        assert!(Label::seed(0) < Label::UNSET);
    }

    #[test]
    fn try_improve_applies_only_smaller() {
        let mut st = make_states(false);
        let l1 = Label {
            dist: 5,
            src: 2,
            pred: 3,
        };
        assert!(st.try_improve(1, l1, 7));
        assert_eq!(st.label(1), l1);
        assert_eq!(st.pred_weight(1), 7);
        // Equal label does not improve.
        assert!(!st.try_improve(1, l1, 7));
        // Worse distance rejected.
        assert!(!st.try_improve(
            1,
            Label {
                dist: 6,
                src: 0,
                pred: 0
            },
            1
        ));
        // Same distance, smaller src accepted.
        assert!(st.try_improve(
            1,
            Label {
                dist: 5,
                src: 1,
                pred: 9
            },
            2
        ));
    }

    #[test]
    fn init_seeds_sets_zero_labels() {
        let mut st = make_states(false);
        st.init_seeds(&[1, 3, 6]); // rank 0 owns 0..4
        assert_eq!(st.label(1), Label::seed(1));
        assert_eq!(st.label(3), Label::seed(3));
        assert_eq!(st.label(0), Label::UNSET);
    }

    #[test]
    fn delegate_state_is_held_by_all_ranks() {
        let st = make_states(true);
        // Vertex 0 has degree 7 -> delegate; rank 0 holds it via replica.
        assert!(st.is_delegate(0));
        assert!(st.holds(0));
        // Remote non-delegate not held.
        assert!(!st.holds(7));
    }

    #[test]
    fn held_index_is_dense_over_owned_then_replicas() {
        let mut st = make_states(true);
        st.init_seeds(&[0, 2]);
        // Rank 0 owns 0..4; vertex 0 is a delegate, so its state is the
        // replica slot after the owned ones.
        assert_eq!(st.held_index(2), Some(2));
        assert_eq!(st.held_index(0), Some(4));
        assert_eq!(st.held_index(7), None);
        assert_eq!(st.num_held(), 5);
        for v in [0, 2, 3] {
            assert_eq!(st.label_at(st.held_index(v).unwrap()), st.label(v));
        }
    }

    #[test]
    fn mark_traced_once() {
        let mut st = make_states(false);
        assert!(st.mark_traced(2));
        assert!(!st.mark_traced(2));
    }

    #[test]
    #[should_panic]
    fn accessing_remote_state_panics() {
        let st = make_states(false);
        st.label(7);
    }

    #[test]
    fn checkpoint_snapshot_round_trips() {
        let mut st = make_states(true);
        st.init_seeds(&[1, 3]);
        st.try_improve(
            2,
            Label {
                dist: 4,
                src: 1,
                pred: 1,
            },
            4,
        );
        st.mark_traced(2);
        let mut blob = Vec::new();
        st.encode_checkpoint(&mut blob);

        let mut fresh = make_states(true);
        let mut pos = 0;
        fresh
            .restore_checkpoint(&blob, &mut pos)
            .expect("snapshot restores over same-shape states");
        assert_eq!(pos, blob.len(), "restore consumes the whole snapshot");
        assert_eq!(fresh.label(2), st.label(2));
        assert_eq!(fresh.pred_weight(2), st.pred_weight(2));
        assert_eq!(fresh.label(1), Label::seed(1));
        assert!(!fresh.mark_traced(2), "traced flags survive the snapshot");

        // A snapshot for a different shape is rejected, not misapplied.
        let mut other = {
            let mut b = GraphBuilder::new(4);
            b.add_edge(0, 1, 1);
            b.add_edge(1, 2, 1);
            b.add_edge(2, 3, 1);
            let g = b.build();
            let pg = partition_graph(&g, 2, None);
            VertexStates::new(&pg.ranks[0])
        };
        let mut pos = 0;
        assert!(other.restore_checkpoint(&blob, &mut pos).is_none());
    }

    #[test]
    fn scratch_arena_clears_but_retains_capacity() {
        let mut st = make_states(true);
        let mut a = ScratchArena::new();
        a.voronoi_buffers(&st)
            .0
            .extend([VoronoiMsg::Start(1), VoronoiMsg::Start(2)]);
        st.init_seeds(&[1]);
        let (init, admitted) = a.voronoi_buffers(&st); // handed out cleared
        assert!(init.is_empty());
        assert!(init.capacity() >= 2, "reuse must keep the allocation");
        assert_eq!(admitted.len(), st.num_held());
        assert_eq!(admitted[st.held_index(1).unwrap()], Label::seed(1));
        assert!(a.memory_bytes() >= st.num_held() * std::mem::size_of::<Label>());
    }
}
