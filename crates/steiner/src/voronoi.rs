//! Distributed asynchronous Voronoi-cell computation (Alg 4).
//!
//! Bellman-Ford-style label-correcting relaxation run through the
//! vertex-centric traversal driver. Each vertex converges to the label
//! `(d_1(s, v), s, pred)` of its nearest seed `s`; the optional priority
//! queue (the paper's §IV optimization) processes lower-distance messages
//! first, approximating Dijkstra's settle order and slashing wasted
//! relaxations (§V-C).
//!
//! ## Bucket width
//!
//! The priority queue is a ring of buckets, one per key, so the key sets
//! the bucket width: a relaxation is queued under `dist / Δ`, and labels
//! within one width of each other pop in arrival order. [`bucket_width`]
//! derives Δ from the graph, Meyer and Sanders' delta-stepping choice
//! Δ = ⌊max w / max deg⌋ (at least 1). A vertex's arcs then span at most
//! `max deg` buckets, and the ring's live window stays about as wide as
//! the highest degree. Δ comes from two statistics `partition_graph`
//! records, so no option can mistune it and a solve pays nothing to find
//! it. The width changes only the order of visits, never the fixpoint
//! (below), so it cannot change a tree.
//!
//! Delegate (hub) vertices have a replica on every rank (HavoqGT's
//! vertex-cut). A relaxation targeting a delegate is applied to the
//! *local* replica — no network hop, no controller hotspot — and, when it
//! improves, broadcast so every rank can update its replica and relax its
//! slice of the hub's adjacency. All replicas converge to the same label:
//! every improvement anyone generates is broadcast, updates are strict
//! lexicographic minima, and min is order-independent. Thus the fixpoint —
//! and therefore the final Steiner tree — is independent of message timing
//! and of which rank discovered an improvement first.
//!
//! ## Stale-relaxation filtering
//!
//! Under the priority discipline a rank queues vertex ids, not messages:
//! the Δ-stepping layout of Meyer and Sanders, whose buckets hold vertices
//! and whose tentative labels live in one array. Each held slot has one
//! 16 B label, both the best candidate admitted so far and the label its
//! visit expands, and an `expanded` bit. An id entry stands for its
//! vertex's *current* label and is live exactly while that label is
//! unexpanded. FIFO and adversarial queues keep queuing whole messages
//! and filter nothing: they are the full-delivery baselines.
//!
//! A relaxation is filtered at one of three points:
//!
//! - **Push, held target.** Before `relax` queues a vertex this rank holds
//!   (owned slot or delegate replica), it compares the candidate with the
//!   target's label. A candidate not strictly below it is counted in
//!   `TraversalStats::pruned_at_push` and never becomes an entry; one
//!   below it becomes the label, clears the `expanded` bit and queues the
//!   target's id: the compare-then-enqueue of Dijkstra's inner loop.
//! - **Push, remote target.** A per-rank *ghost* label array, indexed by
//!   ghost id (see `stgraph::partition`), holds the best label this rank
//!   has sent to each remote target of its arcs. A candidate not strictly
//!   below it is pruned the same way; one that is below it is sent and
//!   recorded. This is HavoqGT-style sender-side filtering, as in the
//!   bulk exchanges of *Engineering Massively Parallel MST Algorithms*
//!   (arXiv:2302.12199). It costs 16 B per ghost of the rank graph,
//!   charged to the rank's `"ghosts"` memory label, and is re-set every
//!   solve.
//! - **Admission.** A `Relax` or `DelegateUpdate` of an inbound batch is
//!   admitted the same way as a local push: one strictly below the
//!   target's label becomes it and queues the id; any other is dropped
//!   (`TraversalStats::admission_dropped`). This is HavoqGT's `pre_visit`
//!   and the tentative-distance filter of delta-stepping.
//!
//! At pop an id whose slot is expanded is dropped
//! (`TraversalStats::pop_dropped`): its label has been expanded already,
//! by the visit of an earlier entry for the same vertex. A visit sets the
//! bit and relaxes the slot's arcs under its label.
//!
//! All of them are safe:
//!
//! - A label changes only to a strictly smaller one, and every change
//!   queues an entry and clears the bit, so every label a slot takes
//!   that is still its label when an entry for it pops is expanded
//!   exactly once. A label superseded before any entry popped needs no
//!   expansion: the smaller label's out-arc relaxations dominate its own.
//! - A candidate rejected at push or at admission is not below the
//!   target's label, which is what its visit would have compared it with,
//!   so its visit would have been a no-op.
//! - A ghost label is a candidate this rank really sent. The channel layer
//!   retransmits until delivery, so the owner eventually receives it, and
//!   a pruned candidate is dominated by it just as above. Crash recovery
//!   replays the whole phase on every rank from a checkpoint, and the
//!   array is rebuilt fresh for each phase run.
//!
//! A delegate replica's label can come from a local relaxation, which its
//! expansion broadcasts to the other replicas as a `DelegateUpdate`, or
//! from a `DelegateUpdate`, which it does not pass on. A `synced` bit per
//! slot remembers which, so every improvement is still broadcast once.
//! Seed replicas start synced: every rank sets a seed's label itself.
//!
//! So the strict-lexicographic label fixpoint, and the tree, stays
//! bit-identical across disciplines.

use crate::messages::VoronoiMsg;
use crate::state::{Label, ScratchArena, SlotBits, VertexStates};
use std::cell::RefCell;
use std::num::NonZeroU32;
use stgraph::csr::{Vertex, Weight};
use stgraph::partition::{LocalId, PartitionedGraph, RankGraph};
use struntime::traversal::{run_traversal_filtered, TraversalOptions};
use struntime::{run_traversal_config, ChannelGroup, Comm, DeepBytes, Pusher, TraversalStats};

/// The priority queue's bucket width Δ for `pg`: `⌊max w / max deg⌋`,
/// at least 1 (see "Bucket width" above).
pub fn bucket_width(pg: &PartitionedGraph) -> u64 {
    (pg.max_weight / pg.max_degree.max(1) as Weight).max(1)
}

/// A held local id as the priority discipline queues it: the id's
/// complement in a `NonZeroU32`, so `Option<QueuedId>` needs no tag and a
/// queue arena entry is the id and its link, 8 B. A rank holds fewer
/// slots than there are vertex ids, so no held id is `u32::MAX`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct QueuedId(NonZeroU32);

impl QueuedId {
    #[inline]
    fn new(i: LocalId) -> QueuedId {
        QueuedId(NonZeroU32::new(!i).expect("held ids are below u32::MAX"))
    }

    #[inline]
    fn id(self) -> LocalId {
        !self.0.get()
    }
}

impl DeepBytes for QueuedId {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Runs the Voronoi phase to quiescence on this rank's slice of `pg`.
/// Collective. Under the priority discipline vertex ids are queued under
/// `dist / Δ` ([`bucket_width`]). `scratch` provides the reusable
/// bootstrap list, bit sets and ghost-label array, so repeated solves
/// (benchmark sweeps) do not re-allocate per phase. The ghost labels are
/// charged to the rank's `"ghosts"` memory label while the phase runs.
pub fn run(
    comm: &Comm,
    chan: &ChannelGroup<Vec<VoronoiMsg>>,
    pg: &PartitionedGraph,
    states: &mut VertexStates,
    seeds: &[Vertex],
    options: TraversalOptions,
    scratch: &mut ScratchArena,
) -> TraversalStats {
    let rg = &pg.ranks[comm.rank()];
    states.init_seeds(seeds);
    let filter = options.queue.filters_stale();
    // Only a filtering run has sent labels to track.
    let ghost_len = if filter { rg.ghosts().len() } else { 0 };
    let ghost_bytes = ghost_len * std::mem::size_of::<Label>();
    comm.memory().record("ghosts", ghost_bytes);
    let bufs = scratch.voronoi_buffers(rg.num_held(), ghost_len);

    // Bootstrap: this rank starts every seed whose outgoing arcs it holds —
    // owned non-delegate seeds, plus every delegate seed (each rank holds a
    // slice of a delegate's adjacency).
    bufs.init.extend(
        seeds
            .iter()
            .filter_map(|&s| states.held_index(s))
            .map(|i| i as LocalId),
    );
    let arcs = Arcs {
        rg,
        starts: pg.partition.cuts(),
    };
    let stats = if filter {
        // Every rank sets a seed replica's label itself.
        for &i in bufs.init.iter() {
            bufs.synced.set(i as usize, true);
        }
        let width = bucket_width(pg);
        // Admission, the pop test, the keys and the visit all read the
        // kernel state; a RefCell arbitrates. The borrows never overlap:
        // the traversal calls them strictly in sequence on one thread.
        let kernel = RefCell::new(IdKernel {
            arcs,
            labels: states.labels_mut(),
            expanded: bufs.expanded,
            synced: bufs.synced,
            ghost: bufs.ghost,
        });
        run_traversal_filtered(
            comm,
            chan,
            options,
            |&q: &QueuedId| kernel.borrow().labels[q.id() as usize].dist / width,
            |msg| kernel.borrow_mut().admit(msg),
            |&q: &QueuedId| !kernel.borrow().expanded.get(q.id() as usize),
            bufs.init.iter().map(|&i| QueuedId::new(i)),
            // The lock-order rule resolves calls by name and so reads the
            // visit as borrowing `kernel` again; it never does.
            // stcheck: allow(lock-order): one thread's RefCell, never re-entered
            |q, pusher| kernel.borrow_mut().visit(q, pusher),
        )
    } else {
        let mut kernel = MsgKernel { arcs, states };
        run_traversal_config(
            comm,
            chan,
            options,
            |_| 0,
            bufs.init.iter().map(|&i| VoronoiMsg::Start(i)),
            |msg, pusher| kernel.visit(msg, pusher),
        )
    };
    comm.memory().release("ghosts", ghost_bytes);
    stats
}

/// Where one rank's arcs lead. Every vertex a kernel touches is a local
/// id of `rg`, and every message it visits names a held local id of this
/// rank (see [`VoronoiMsg`]).
#[derive(Clone, Copy)]
struct Arcs<'a> {
    rg: &'a RankGraph,
    /// The partition's cut table: first owned vertex of every rank, then
    /// the vertex count. Rank `q` holds vertex `v` of its block in local
    /// slot `v - starts[q]`.
    starts: &'a [Vertex],
}

impl Arcs<'_> {
    /// Calls `f(nbr, w)` for every outgoing arc of held local id `i` that
    /// this rank holds.
    #[inline]
    fn for_each(&self, i: LocalId, mut f: impl FnMut(LocalId, Weight)) {
        let (rg, owned) = (self.rg, self.rg.num_owned());
        if (i as usize) < owned {
            let (targets, weights) = rg.owned_arcs(i as usize);
            for (&nbr, &w) in targets.iter().zip(weights) {
                f(nbr, w);
            }
        } else {
            for &(nbr, w) in rg.delegate_arcs(i as usize - owned) {
                f(nbr, w);
            }
        }
    }

    /// The owner of ghost id `g` and the target's local id there.
    #[inline]
    fn ghost_route(&self, g: usize) -> (usize, LocalId) {
        let ghost = self.rg.ghosts()[g];
        let owner = ghost.owner as usize;
        (owner, ghost.global - self.starts[owner])
    }

    /// Sends `label` of replica slot `i` (a delegate) to its replica on
    /// every other rank.
    fn broadcast<Q>(&self, i: LocalId, label: Label, pusher: &mut Pusher<'_, VoronoiMsg, Q>) {
        let k = i - self.rg.num_owned() as LocalId;
        pusher.trace_instant("delegate_broadcast", self.rg.delegates[k as usize] as u64);
        for dest in 0..self.starts.len() - 1 {
            if dest != pusher.rank() {
                let owned_there = self.starts[dest + 1] - self.starts[dest];
                let target = owned_there + k;
                pusher.send(dest, VoronoiMsg::DelegateUpdate { target, label });
            }
        }
    }
}

/// The label relaxing the arc from `v`, labeled `label`, of weight `w`
/// offers its target.
#[inline]
fn candidate(v: Vertex, label: Label, w: Weight) -> Label {
    Label {
        dist: label.dist + w,
        src: label.src,
        pred: v,
    }
}

/// The priority discipline's kernel: it queues held ids (see
/// "Stale-relaxation filtering").
struct IdKernel<'a> {
    arcs: Arcs<'a>,
    /// Per held slot, the best label admitted: queued, expanded or
    /// awaiting expansion.
    labels: &'a mut [Label],
    expanded: &'a mut SlotBits,
    /// Per held slot, whether every other replica has its label already.
    synced: &'a mut SlotBits,
    /// Best label this rank has sent, per ghost id.
    ghost: &'a mut [Label],
}

impl IdKernel<'_> {
    /// Makes `label` the label of held slot `i` if it is strictly below the
    /// current one, and returns `i` to queue; `synced` says whether every
    /// other replica already has it.
    #[inline]
    fn improve(&mut self, i: LocalId, label: Label, synced: bool) -> Option<QueuedId> {
        let slot = &mut self.labels[i as usize];
        if label >= *slot {
            return None;
        }
        *slot = label;
        self.expanded.set(i as usize, false);
        self.synced.set(i as usize, synced);
        Some(QueuedId::new(i))
    }

    fn admit(&mut self, msg: VoronoiMsg) -> Option<QueuedId> {
        match msg {
            // Bootstraps are queued as ids and never sent.
            VoronoiMsg::Start(i) => Some(QueuedId::new(i)),
            VoronoiMsg::Relax { target, label } => self.improve(target, label, false),
            VoronoiMsg::DelegateUpdate { target, label } => self.improve(target, label, true),
        }
    }

    fn visit(&mut self, q: QueuedId, pusher: &mut Pusher<'_, VoronoiMsg, QueuedId>) {
        let i = q.id();
        self.expanded.set(i as usize, true);
        let label = self.labels[i as usize];
        let rg = self.arcs.rg;
        if i as usize >= rg.num_owned() && !self.synced.get(i as usize) {
            // Local replica improved: sync the other replicas, then relax
            // this rank's slice of the hub's adjacency.
            self.synced.set(i as usize, true);
            self.arcs.broadcast(i, label, pusher);
        }
        let (v, held) = (rg.global_id(i), rg.num_held());
        let arcs = self.arcs;
        arcs.for_each(i, |nbr, w| {
            let cand = candidate(v, label, w);
            // Held targets (owned vertices and delegate replicas) are
            // relaxed on this rank; a ghost routes to its owner, named by
            // its slot there.
            if (nbr as usize) < held {
                match self.improve(nbr, cand, false) {
                    Some(nbr) => pusher.push_local(nbr),
                    None => pusher.prune(),
                }
            } else {
                let g = nbr as usize - held;
                let sent = &mut self.ghost[g];
                if cand >= *sent {
                    pusher.prune();
                    return;
                }
                *sent = cand;
                let (owner, target) = arcs.ghost_route(g);
                pusher.send(
                    owner,
                    VoronoiMsg::Relax {
                        target,
                        label: cand,
                    },
                );
            }
        });
    }
}

/// The full-delivery disciplines' kernel: it queues whole messages and
/// visits every one.
struct MsgKernel<'a> {
    arcs: Arcs<'a>,
    states: &'a mut VertexStates,
}

impl MsgKernel<'_> {
    fn visit(&mut self, msg: VoronoiMsg, pusher: &mut Pusher<'_, VoronoiMsg>) {
        let (i, label) = match msg {
            VoronoiMsg::Start(i) => (i, Label::seed(self.arcs.rg.global_id(i))),
            VoronoiMsg::Relax { target, label } => {
                if !self.states.try_improve_at(target as usize, label) {
                    return;
                }
                if target as usize >= self.arcs.rg.num_owned() {
                    // Local replica improved: sync the other replicas.
                    self.arcs.broadcast(target, label, pusher);
                }
                (target, label)
            }
            // Replica update; reordering can deliver a newer (better)
            // update first, in which case the older one is a no-op.
            VoronoiMsg::DelegateUpdate { target, label } => {
                if !self.states.try_improve_at(target as usize, label) {
                    return;
                }
                (target, label)
            }
        };
        let (rg, arcs) = (self.arcs.rg, self.arcs);
        let (v, held) = (rg.global_id(i), rg.num_held());
        arcs.for_each(i, |nbr, w| {
            let label = candidate(v, label, w);
            let (dest, target) = if (nbr as usize) < held {
                (pusher.rank(), nbr)
            } else {
                arcs.ghost_route(nbr as usize - held)
            };
            pusher.push(dest, VoronoiMsg::Relax { target, label });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NO_VERTEX;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;
    use stgraph::builder::GraphBuilder;
    use stgraph::csr::CsrGraph;
    use stgraph::datasets::Dataset;
    use stgraph::partition::partition_graph;
    use stgraph::weights::{reweight, WeightRange};
    use struntime::{QueueKind, World};

    /// Degree above which a vertex of the tiny RMAT graphs becomes a
    /// delegate: low enough that every run has replica slots.
    const DELEGATE_THRESHOLD: usize = 24;

    fn tiny(seed: u64) -> (CsrGraph, Vec<Vertex>) {
        let g = Dataset::Lvj.generate_tiny(seed);
        let seeds = (0..g.num_vertices() as Vertex).step_by(61).collect();
        (g, seeds)
    }

    fn width_of(g: &CsrGraph) -> u64 {
        bucket_width(&partition_graph(g, 1, None))
    }

    fn star(spokes: u32, w: Weight) -> CsrGraph {
        let mut b = GraphBuilder::new(spokes as usize + 1);
        for v in 1..=spokes {
            b.add_edge(0, v, w);
        }
        b.build()
    }

    #[test]
    fn bucket_width_is_max_weight_over_max_degree() {
        assert_eq!(width_of(&star(8, 1)), 1, "unit weights");
        assert_eq!(width_of(&GraphBuilder::new(5).build()), 1, "edgeless");
        assert_eq!(width_of(&star(8, 100)), 12, "heavy spokes: 100 / 8");
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 7);
        assert_eq!(width_of(&b.build()), 7, "one edge: degree 1");
    }

    /// One 1-rank Voronoi run on a tiny RMAT graph with hub delegates:
    /// its traversal stats, the phase's local message count and the number
    /// of bootstraps.
    fn one_rank(queue: QueueKind) -> (TraversalStats, u64, u64) {
        let (g, seeds) = tiny(11);
        let pg = partition_graph(&g, 1, Some(DELEGATE_THRESHOLD));
        assert!(!pg.ranks[0].delegates.is_empty(), "exercise replica slots");
        let out = World::run(1, |comm| {
            let chan = comm.open_channels::<Vec<VoronoiMsg>>("voronoi");
            let rg = &pg.ranks[0];
            let mut states = VertexStates::new(rg);
            let mut scratch = ScratchArena::new();
            run(
                comm,
                &chan,
                &pg,
                &mut states,
                &seeds,
                TraversalOptions::new(queue),
                &mut scratch,
            )
        });
        let local = out.merged_counters()["voronoi"].local_msgs;
        (out.results[0], local, seeds.len() as u64)
    }

    /// On one rank every push is local, so each bootstrap and each local
    /// message is either visited or dropped by the queue's stale filter,
    /// exactly once; relaxations pruned at push are neither.
    #[test]
    fn priority_visits_plus_drops_equal_pushes_and_queue_stays_short() {
        let (priority, local, bootstraps) = one_rank(QueueKind::Priority);
        assert!(priority.pop_dropped > 0);
        assert_eq!(priority.admission_dropped, 0, "nothing arrives on one rank");
        assert!(priority.pruned_at_push > 0);
        assert_eq!(
            priority.processed + priority.pop_dropped,
            bootstraps + local
        );
        let (fifo, fifo_local, _) = one_rank(QueueKind::Fifo);
        assert_eq!(fifo.stale_dropped(), 0);
        assert_eq!(fifo.pruned_at_push, 0);
        assert_eq!(fifo.processed, bootstraps + fifo_local);
        assert!(
            priority.peak_queue_len < fifo.peak_queue_len,
            "priority peak {} vs fifo {}",
            priority.peak_queue_len,
            fifo.peak_queue_len
        );
    }

    /// Every held vertex's label after a Voronoi run on `p` ranks, with
    /// the weight of its predecessor edge derived as `dist(v) -
    /// dist(pred(v))`: owned slots and delegate replicas, each replica
    /// checked equal across ranks, and each derived weight checked to be
    /// the lightest `(pred(v), v)` edge of `g`.
    fn held_labels(
        g: &CsrGraph,
        seeds: &[Vertex],
        p: usize,
        queue: QueueKind,
    ) -> BTreeMap<Vertex, (Label, Weight)> {
        let pg = partition_graph(g, p, Some(DELEGATE_THRESHOLD));
        assert!(!pg.ranks[0].delegates.is_empty(), "exercise replica slots");
        let out = World::run(p, |comm| {
            let chan = comm.open_channels::<Vec<VoronoiMsg>>("voronoi");
            let rg = &pg.ranks[comm.rank()];
            let mut states = VertexStates::new(rg);
            run(
                comm,
                &chan,
                &pg,
                &mut states,
                seeds,
                TraversalOptions::new(queue),
                &mut ScratchArena::new(),
            );
            rg.owned
                .clone()
                .chain(rg.delegates.iter().copied())
                .map(|v| (v, states.label(v)))
                .collect::<Vec<_>>()
        });
        let mut labels = BTreeMap::new();
        for (v, held) in out.results.into_iter().flatten() {
            if let Some(other) = labels.insert(v, held) {
                assert_eq!(
                    other, held,
                    "replicas of {v} disagree ({p} ranks, {queue:?})"
                );
            }
        }
        assert_eq!(labels.len(), g.num_vertices());
        (labels.iter())
            .map(|(&v, &label)| {
                let w = match label.pred {
                    NO_VERTEX => 0,
                    pred => {
                        let w = label.dist - labels[&pred].dist;
                        let lightest = g.edges(pred).filter(|&(u, _)| u == v).map(|(_, w)| w).min();
                        assert_eq!(Some(w), lightest, "edge {pred} -> {v}");
                        w
                    }
                };
                (v, (label, w))
            })
            .collect()
    }

    /// The push-time pruning and the bucket width change which
    /// relaxations become messages and in which order they are visited,
    /// never the fixpoint: every held vertex's `(dist, src, pred)` and
    /// derived predecessor weight match the 1-rank FIFO run (no filter at all) under
    /// every rank count and discipline, delegate replicas and
    /// `DelegateUpdate`s included. Both RMAT graphs derive a width above
    /// 1; the reweighted copy derives a width of 1.
    #[test]
    fn labels_are_identical_across_ranks_and_queues_with_delegates() {
        let (g11, seeds11) = tiny(11);
        let narrow = reweight(
            &g11,
            WeightRange::new(1, 3),
            &mut ChaCha8Rng::seed_from_u64(11),
        );
        let (g12, seeds12) = tiny(12);
        assert_eq!(width_of(&narrow), 1);
        for g in [&g11, &g12] {
            assert!(width_of(g) > 1, "width {}", width_of(g));
        }
        for (name, g, seeds) in [
            ("narrow 11", &narrow, &seeds11),
            ("rmat 11", &g11, &seeds11),
            ("rmat 12", &g12, &seeds12),
        ] {
            let reference = held_labels(g, seeds, 1, QueueKind::Fifo);
            for p in [1, 2, 4] {
                for queue in [
                    QueueKind::Fifo,
                    QueueKind::Priority,
                    QueueKind::Adversarial { seed: 11 },
                ] {
                    assert!(
                        held_labels(g, seeds, p, queue) == reference,
                        "{name} graph, {p} ranks, {queue:?}: labels differ"
                    );
                }
            }
        }
    }

    /// The sender-side filter costs 16 B per ghost, charged to the
    /// `"ghosts"` label while the phase runs: on two ranks that is well
    /// below the 16 B per vertex of the graph a dense array would take.
    #[test]
    fn two_rank_ghost_labels_take_16_bytes_per_ghost() {
        let (g, seeds) = tiny(11);
        let n = g.num_vertices();
        let pg = partition_graph(&g, 2, None);
        let out = World::run(2, |comm| {
            let chan = comm.open_channels::<Vec<VoronoiMsg>>("voronoi");
            let rg = &pg.ranks[comm.rank()];
            let mut states = VertexStates::new(rg);
            run(
                comm,
                &chan,
                &pg,
                &mut states,
                &seeds,
                TraversalOptions::new(QueueKind::Priority),
                &mut ScratchArena::new(),
            );
            let memory = comm.memory();
            (memory.peaks()["ghosts"], memory.current("ghosts"))
        });
        for (rank, &(peak, live)) in out.results.iter().enumerate() {
            let ghosts = pg.ranks[rank].ghosts().len();
            assert!(ghosts > 0, "rank {rank}");
            assert_eq!(peak, 16 * ghosts, "rank {rank}");
            assert!(peak < 16 * n, "rank {rank}: {peak} B for n = {n}");
            assert_eq!(live, 0, "released when the phase ends");
        }
    }
}
