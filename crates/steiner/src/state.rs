//! Per-rank distributed vertex state for the Steiner algorithm.
//!
//! Every vertex `v` carries the Alg 3 states `src(v)` (nearest seed),
//! `d_1(src(v), v)` (distance to it) and `pred(v)` (predecessor on the
//! shortest path) as one 16 B [`Label`], plus a `traced` flag used by the
//! tree-edge phase. The predecessor edge's weight is not stored: at the
//! Voronoi fixpoint it is `d_1(v) - d_1(pred(v))` (see
//! `crate::tree_edges`). State for owned non-delegate vertices lives only
//! on the owner rank; delegate (hub) vertex state is *replicated* on every
//! rank and kept consistent by controller broadcasts, mirroring HavoqGT's
//! delegate mechanism.
//!
//! A vertex label is the triple `(dist, src, pred)` ordered
//! lexicographically; relaxation accepts strictly smaller labels only, so
//! the asynchronous computation converges to a unique fixpoint regardless
//! of message timing — this is what makes the distributed solver's output
//! deterministic and bit-comparable to the sequential reference.

use stgraph::csr::{Distance, Vertex, INF};
use stgraph::partition::{LocalId, RankGraph};
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

/// Appends one run of labels after its count.
fn encode_run(run: &[Label], out: &mut Vec<u8>) {
    (run.len() as u64).encode_into(out);
    for label in run {
        label.encode_into(out);
    }
}

/// Overwrites a run of labels from a snapshot written by [`encode_run`];
/// `None` if the snapshot was taken for a different slot count
/// (partitioning changed) or is truncated.
fn decode_run(run: &mut [Label], buf: &[u8], pos: &mut usize) -> Option<()> {
    if u64::decode_from(buf, pos)? as usize != run.len() {
        return None;
    }
    for label in run {
        *label = Label::decode_from(buf, pos)?;
    }
    Some(())
}

/// All Steiner vertex state held by one rank, one slot per held local id
/// of its [`RankGraph`]: the owned vertices, then the delegate replicas.
pub struct VertexStates {
    owned_start: Vertex,
    owned_len: usize,
    delegates: std::sync::Arc<Vec<Vertex>>,
    /// One label per held slot: the Voronoi phase's state, and all a
    /// checkpoint stores.
    labels: Vec<Label>,
    /// The tree-edge phase's flag per held slot.
    traced: Vec<bool>,
}

impl VertexStates {
    /// Allocates state for the rank's owned vertices plus replicas of every
    /// delegate.
    pub fn new(rg: &RankGraph) -> Self {
        VertexStates {
            owned_start: rg.owned.start,
            owned_len: rg.num_owned(),
            delegates: std::sync::Arc::clone(&rg.delegates),
            labels: vec![Label::UNSET; rg.num_held()],
            traced: vec![false; rg.num_held()],
        }
    }

    /// Approximate bytes of algorithm state held (the Fig 8 "state" series
    /// contribution of the vertex arrays): 17 B per held slot.
    pub fn memory_bytes(&self) -> usize {
        self.num_held() * (std::mem::size_of::<Label>() + std::mem::size_of::<bool>())
    }

    /// Whether `v` is a delegate vertex (state replicated everywhere).
    pub fn is_delegate(&self, v: Vertex) -> bool {
        self.delegates.binary_search(&v).is_ok()
    }

    /// Whether this rank holds state for `v` (owned or replica).
    pub fn holds(&self, v: Vertex) -> bool {
        self.held_index(v).is_some()
    }

    /// Number of state slots this rank holds: the range of
    /// [`VertexStates::held_index`], and the held local ids of the rank
    /// graph.
    pub fn num_held(&self) -> usize {
        self.owned_len + self.delegates.len()
    }

    /// The slot of `v`'s state on this rank — its delegate replica, or its
    /// owned slot — or `None` if the rank holds no state for `v`. This is
    /// `v`'s held local id in the [`RankGraph`]; one binary search, for
    /// seeds, the tree-edge phase and tests, while the Voronoi and
    /// min-edge phases index slots by the local ids their arcs store.
    pub fn held_index(&self, v: Vertex) -> Option<usize> {
        match self.delegates.binary_search(&v) {
            Ok(k) => Some(self.owned_len + k),
            Err(_) => {
                let i = v.wrapping_sub(self.owned_start) as usize;
                (i < self.owned_len).then_some(i)
            }
        }
    }

    fn slot(&self, v: Vertex) -> usize {
        self.held_index(v)
            .unwrap_or_else(|| panic!("rank holds no state for vertex {v}"))
    }

    /// The current label at slot `i` (see [`VertexStates::held_index`]).
    #[inline]
    pub fn label_at(&self, i: usize) -> Label {
        self.labels[i]
    }

    /// The current label of `v`.
    pub fn label(&self, v: Vertex) -> Label {
        self.label_at(self.slot(v))
    }

    /// Every held slot's label, indexed by held local id: the Voronoi
    /// kernel's admitted and committed label in one array.
    pub fn labels_mut(&mut self) -> &mut [Label] {
        &mut self.labels
    }

    /// Applies `label` to slot `i` if it is strictly smaller than the
    /// current one. Returns whether it improved.
    #[inline]
    pub fn try_improve_at(&mut self, i: usize, label: Label) -> bool {
        let current = &mut self.labels[i];
        let improves = label < *current;
        if improves {
            *current = label;
        }
        improves
    }

    /// [`VertexStates::try_improve_at`] for vertex `v`.
    pub fn try_improve(&mut self, v: Vertex, label: Label) -> bool {
        self.try_improve_at(self.slot(v), label)
    }

    /// Initializes seed labels: owned seeds and *all* delegate seeds (every
    /// rank can do the latter without communication since the seed list is
    /// globally known).
    pub fn init_seeds(&mut self, seeds: &[Vertex]) {
        for &s in seeds {
            if let Some(i) = self.held_index(s) {
                self.labels[i] = Label::seed(s);
            }
        }
    }

    /// Marks `v` traced by the tree-edge phase; returns `false` if it was
    /// already traced (the visitor should stop).
    pub fn mark_traced(&mut self, v: Vertex) -> bool {
        let i = self.slot(v);
        !std::mem::replace(&mut self.traced[i], true)
    }

    /// Appends a snapshot of the labels (owned slots, then delegate
    /// replicas, each run after its count) to `out` via the wire codec, for
    /// the crash-recovery phase checkpoints. The delegate list and
    /// ownership range are derived from the partition and are not
    /// serialized, and neither are the `traced` flags: only the tree-edge
    /// phase sets them, and it is the last phase, after which no
    /// checkpoint is taken.
    pub fn encode_checkpoint(&self, out: &mut Vec<u8>) {
        let (owned, replicas) = self.labels.split_at(self.owned_len);
        encode_run(owned, out);
        encode_run(replicas, out);
    }

    /// Restores a snapshot taken by [`VertexStates::encode_checkpoint`]
    /// over states freshly created for the same rank graph; `None` if the
    /// array shapes do not line up or the buffer is truncated.
    pub fn restore_checkpoint(&mut self, buf: &[u8], pos: &mut usize) -> Option<()> {
        let (owned, replicas) = self.labels.split_at_mut(self.owned_len);
        decode_run(owned, buf, pos)?;
        decode_run(replicas, buf, pos)
    }

    /// Iterates the owned (non-delegate) vertices and their labels.
    pub fn owned_labels(&self) -> impl Iterator<Item = (Vertex, Label)> + '_ {
        (0..self.owned_len).filter_map(move |i| {
            let v = self.owned_start + i as Vertex;
            (!self.is_delegate(v)).then(|| (v, self.label_at(i)))
        })
    }
}

/// A fixed-length set of bits, one per held slot.
#[derive(Default)]
pub struct SlotBits {
    words: Vec<u64>,
}

impl SlotBits {
    /// Clears the set to `len` unset bits, keeping the allocation.
    fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i` to `on`.
    #[inline]
    pub fn set(&mut self, i: usize, on: bool) {
        let word = &mut self.words[i / 64];
        *word = *word & !(1 << (i % 64)) | u64::from(on) << (i % 64);
    }
}

/// The asynchronous Voronoi phase's buffers, borrowed from a
/// [`ScratchArena`] (see [`ScratchArena::voronoi_buffers`]).
pub struct VoronoiBuffers<'a> {
    /// The held local ids of the seeds this rank bootstraps.
    pub init: &'a mut Vec<LocalId>,
    /// Per held slot, whether its current label has been expanded.
    pub expanded: &'a mut SlotBits,
    /// Per held slot, whether every other replica already has its label.
    pub synced: &'a mut SlotBits,
    /// The best label this rank has sent, per ghost id.
    pub ghost: &'a mut [Label],
}

/// Reusable per-rank visitor scratch buffers, allocated once per rank and
/// reused across phases so the Voronoi hot path's steady state allocates
/// nothing:
///
/// - `init` — the held local ids of the seeds the asynchronous phase
///   bootstraps,
/// - `expanded` — one bit per held slot: whether the slot's current label
///   has been expanded (its arcs relaxed). A queued id is live exactly
///   while it is not,
/// - `synced` — one bit per held slot, read for delegate replicas: whether
///   every other replica already has the slot's label (it came from a
///   `DelegateUpdate`, or it is a seed label every rank sets), so its
///   expansion broadcasts nothing,
/// - `ghost` — the best label this rank has sent to each remote vertex,
///   indexed by ghost id (local id minus the held count): 16 B per ghost
///   of the rank graph, the sender side of the filter.
///
/// Buffers are cleared (capacity retained) each time they are handed out,
/// so a fault-injection retry of the whole solve reuses the previous
/// attempt's allocations.
#[derive(Default)]
pub struct ScratchArena {
    init: Vec<LocalId>,
    expanded: SlotBits,
    synced: SlotBits,
    ghost: Vec<Label>,
}

impl ScratchArena {
    /// An empty arena (no buffers allocated until first use).
    pub fn new() -> ScratchArena {
        ScratchArena::default()
    }

    /// The asynchronous Voronoi phase's buffers: the bootstrap list
    /// (cleared, capacity retained), `held` unset bits of each bit set,
    /// and `ghost_len` ghost labels (one per ghost id), reset to
    /// [`Label::UNSET`].
    pub fn voronoi_buffers(&mut self, held: usize, ghost_len: usize) -> VoronoiBuffers<'_> {
        self.init.clear();
        self.expanded.reset(held);
        self.synced.reset(held);
        self.ghost.clear();
        self.ghost.resize(ghost_len, Label::UNSET);
        VoronoiBuffers {
            init: &mut self.init,
            expanded: &mut self.expanded,
            synced: &mut self.synced,
            ghost: &mut self.ghost,
        }
    }

    /// Approximate bytes held across all scratch buffers (capacity, since
    /// retained capacity is what the arena's reuse is about).
    pub fn memory_bytes(&self) -> usize {
        self.init.capacity() * std::mem::size_of::<LocalId>()
            + (self.expanded.words.capacity() + self.synced.words.capacity())
                * std::mem::size_of::<u64>()
            + self.ghost.capacity() * std::mem::size_of::<Label>()
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
        assert!(st.try_improve(1, l1));
        assert_eq!(st.label(1), l1);
        // Equal label does not improve.
        assert!(!st.try_improve(1, l1));
        // Worse distance rejected.
        assert!(!st.try_improve(
            1,
            Label {
                dist: 6,
                src: 0,
                pred: 0
            }
        ));
        // Same distance, smaller src accepted.
        assert!(st.try_improve(
            1,
            Label {
                dist: 5,
                src: 1,
                pred: 9
            }
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
        // Rank 0 owns 0..5 (the delegate costs 26, vertex 1 costs 42 and
        // vertices 2..7 cost 50 each, of 360); vertex 0 is a delegate, so
        // its state is the replica slot after the owned ones.
        assert_eq!(st.held_index(2), Some(2));
        assert_eq!(st.held_index(0), Some(5));
        assert_eq!(st.held_index(7), None);
        assert_eq!(st.num_held(), 6);
        for v in [0, 2, 3] {
            assert_eq!(st.label_at(st.held_index(v).unwrap()), st.label(v));
        }
    }

    #[test]
    fn memory_bytes_counts_the_state_arrays_elements() {
        assert_eq!(std::mem::size_of::<Label>(), 16);
        for delegate in [false, true] {
            let st = make_states(delegate);
            assert_eq!(
                st.memory_bytes(),
                std::mem::size_of_val(&st.labels[..]) + std::mem::size_of_val(&st.traced[..]),
                "delegates: {delegate}"
            );
            assert_eq!(st.memory_bytes(), 17 * st.num_held());
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
        assert_eq!(fresh.label(1), Label::seed(1));
        assert_eq!(blob.len(), 2 * 8 + 16 * fresh.num_held(), "labels only");
        assert!(
            fresh.mark_traced(2),
            "the last phase's flags are not stored"
        );

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
        let st = make_states(true);
        let held = st.num_held();
        let mut a = ScratchArena::new();
        let bufs = a.voronoi_buffers(held, 8);
        bufs.init.extend([1, 2]);
        bufs.expanded.set(held - 1, true);
        bufs.synced.set(0, true);
        bufs.ghost[7] = Label::seed(7);
        let bufs = a.voronoi_buffers(held, 8); // handed out cleared
        assert!(bufs.init.is_empty());
        assert!(bufs.init.capacity() >= 2, "reuse must keep the allocation");
        assert!((0..held).all(|i| !bufs.expanded.get(i) && !bufs.synced.get(i)));
        assert_eq!(
            bufs.ghost,
            &vec![Label::UNSET; 8][..],
            "ghost labels start fresh"
        );
        assert!(a.memory_bytes() >= 8 * std::mem::size_of::<Label>());
    }

    #[test]
    fn slot_bits_set_and_clear_one_bit() {
        let mut bits = SlotBits::default();
        bits.reset(130);
        for i in [0, 63, 64, 129] {
            bits.set(i, true);
        }
        bits.set(63, false);
        let on: Vec<usize> = (0..130).filter(|&i| bits.get(i)).collect();
        assert_eq!(on, vec![0, 64, 129]);
    }
}
