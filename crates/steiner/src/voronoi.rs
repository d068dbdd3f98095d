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
//! Under the priority discipline a relaxation is filtered at up to three
//! points. FIFO and adversarial queues skip all three: they are the
//! full-delivery baselines.
//!
//! - **Push, held target.** Before `relax` builds a `Relax` for a vertex
//!   this rank holds (owned slot or delegate replica), it compares the
//!   candidate with the target's *admitted* label: the best candidate
//!   admitted to this rank's queue so far, in one dense array seeded from
//!   the labels after `init_seeds`. A candidate not strictly below it is
//!   counted in `TraversalStats::pruned_at_push` and never becomes a
//!   message; one below it becomes the admitted label and is pushed to
//!   this rank's queue. That write is the local push's admission, so the
//!   traversal queues it without asking the predicate again: the
//!   compare-then-enqueue of Dijkstra's inner loop.
//! - **Push, remote target.** A per-rank *ghost* label array, indexed by
//!   ghost id (see `stgraph::partition`), holds the best label this rank
//!   has sent to each remote target of its arcs. A candidate not strictly
//!   below it is pruned the same way; one that is below it is sent and
//!   recorded. This is HavoqGT-style sender-side filtering, as in the
//!   bulk exchanges of *Engineering Massively Parallel MST Algorithms*
//!   (arXiv:2302.12199). It costs 16 B per ghost of the rank graph,
//!   charged to the rank's `"ghosts"` memory label, and is re-set every
//!   solve.
//! - **Queue.** The traversal asks a staleness predicate about every
//!   `Relax` and `DelegateUpdate` of an inbound batch at queue admission,
//!   and about every queued one at pop (see `struntime::traversal`,
//!   "Stale-entry filtering"). Admission rejects a candidate that is not
//!   strictly below the target's admitted label and records it otherwise
//!   (HavoqGT's `pre_visit`, the tentative-distance filter of
//!   delta-stepping); pop drops a candidate that is above the admitted
//!   label (a better one was queued after it) or not below the committed
//!   label. Both are counted in `TraversalStats::stale_dropped`.
//!
//! All of them are safe:
//!
//! - The committed label is never below the admitted one, so a candidate
//!   rejected at push or at admission either cannot pass `try_improve`
//!   or is dominated by an admitted candidate for the same target, whose
//!   visit (or drop, by induction) leaves the target at a label at least
//!   as small, and whose out-arc relaxations dominate the rejected one's.
//! - Admitting a local push at push time queues exactly what a separate
//!   admission pass over the visit's pushes would: the same candidates,
//!   compared in the same order against the same running minimum. Only
//!   the counter differs: a second candidate for one target within one
//!   visit is pruned rather than dropped at admission, so one-rank visits
//!   and the stale + pruned sum are the same either way.
//! - A ghost label is a candidate this rank really sent. The channel layer
//!   retransmits until delivery, so the owner eventually receives it, and
//!   a pruned candidate is dominated by it just as above. Crash recovery
//!   replays the whole phase on every rank from a checkpoint, and the
//!   array is rebuilt fresh for each phase run.
//! - The pop answer is monotone (both labels only shrink) and the visit is
//!   unchanged.
//!
//! So the strict-lexicographic label fixpoint, and the tree, stays
//! bit-identical across disciplines.

use crate::messages::VoronoiMsg;
use crate::state::{Label, ScratchArena, VertexStates};
use std::cell::RefCell;
use stgraph::csr::{Vertex, Weight};
use stgraph::partition::{LocalId, PartitionedGraph, RankGraph};
use struntime::traversal::{run_traversal_filtered, StaleCheck, TraversalOptions};
use struntime::{ChannelGroup, Comm, Pusher, TraversalStats};

/// The priority queue's bucket width Δ for `pg`: `⌊max w / max deg⌋`,
/// at least 1 (see "Bucket width" above).
pub fn bucket_width(pg: &PartitionedGraph) -> u64 {
    (pg.max_weight / pg.max_degree.max(1) as Weight).max(1)
}

/// Runs the Voronoi phase to quiescence on this rank's slice of `pg`.
/// Collective. Relaxations are queued under `dist / Δ` ([`bucket_width`]).
/// `scratch` provides the reusable bootstrap buffer and the admitted- and
/// ghost-label arrays, so repeated solves (benchmark sweeps) do not
/// re-allocate per phase. The ghost labels are charged to the rank's
/// `"ghosts"` memory label while the phase runs.
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
    let width = bucket_width(pg);
    states.init_seeds(seeds);
    let filter = options.queue.filters_stale();
    // Only a filtering run has sent labels to track.
    let ghost_len = if filter { rg.ghosts().len() } else { 0 };
    let ghost_bytes = ghost_len * std::mem::size_of::<Label>();
    comm.memory().record("ghosts", ghost_bytes);
    let (init, admitted, ghost) = scratch.voronoi_buffers(states, ghost_len);

    // Bootstrap: this rank starts every seed whose outgoing arcs it holds —
    // owned non-delegate seeds, plus every delegate seed (each rank holds a
    // slice of a delegate's adjacency).
    init.extend(
        seeds
            .iter()
            .filter_map(|&s| states.held_index(s))
            .map(|i| VoronoiMsg::Start(i as LocalId)),
    );

    // The stale predicate and the visit callback both need the kernel
    // state; a RefCell arbitrates. The borrows never overlap: the
    // traversal calls the predicate and the visit callback strictly in
    // sequence on one thread.
    let kernel = RefCell::new(Kernel {
        rg,
        starts: pg.partition.cuts(),
        states,
        admitted,
        ghost,
        filter,
    });
    let stats = run_traversal_filtered(
        comm,
        chan,
        options,
        |msg| msg.priority() / width,
        |check, msg| kernel.borrow_mut().is_stale(check, msg),
        init.iter().copied(),
        // The lock-order rule resolves calls by name and so reads the
        // visit as borrowing `kernel` again; it never does.
        // stcheck: allow(lock-order): one thread's RefCell, never re-entered
        |msg, pusher| kernel.borrow_mut().visit(msg, pusher),
    );
    comm.memory().release("ghosts", ghost_bytes);
    stats
}

/// One rank's Voronoi kernel state for the length of a phase. Every
/// vertex it touches is a local id of `rg`, and every message it visits
/// names a held local id of this rank (see [`VoronoiMsg`]).
struct Kernel<'a> {
    rg: &'a RankGraph,
    /// The partition's cut table: first owned vertex of every rank, then
    /// the vertex count. Rank `q` holds vertex `v` of its block in local
    /// slot `v - starts[q]`.
    starts: &'a [Vertex],
    states: &'a mut VertexStates,
    /// Best candidate admitted to this rank's queue, per held local id. A
    /// local push and the admission of an inbound visitor write it.
    admitted: &'a mut [Label],
    /// Best label this rank has sent, per ghost id (empty unless `filter`
    /// is on).
    ghost: &'a mut [Label],
    /// Whether the queue discipline filters stale relaxations.
    filter: bool,
}

impl Kernel<'_> {
    fn is_stale(&mut self, check: StaleCheck, msg: &VoronoiMsg) -> bool {
        match *msg {
            // Bootstraps are never stale: they carry no candidate label.
            VoronoiMsg::Start(_) => false,
            VoronoiMsg::Relax { target, label, .. }
            | VoronoiMsg::DelegateUpdate { target, label, .. } => {
                let i = target as usize;
                match check {
                    StaleCheck::Admit if label < self.admitted[i] => {
                        self.admitted[i] = label;
                        false
                    }
                    StaleCheck::Admit => true,
                    StaleCheck::Pop => label > self.admitted[i] || label >= self.states.label_at(i),
                }
            }
        }
    }

    fn visit(&mut self, msg: VoronoiMsg, pusher: &mut Pusher<'_, VoronoiMsg>) {
        match msg {
            VoronoiMsg::Start(i) => {
                let label = Label::seed(self.rg.global_id(i));
                self.relax_out_arcs(i, label, pusher)
            }
            VoronoiMsg::Relax {
                target,
                label,
                pred_weight,
            } => {
                if self
                    .states
                    .try_improve_at(target as usize, label, pred_weight)
                {
                    let owned = self.rg.num_owned() as LocalId;
                    if target >= owned {
                        // Local replica improved: sync the other replicas,
                        // then relax this rank's slice of the hub's adjacency.
                        let k = target - owned;
                        pusher.trace_instant(
                            "delegate_broadcast",
                            self.rg.delegates[k as usize] as u64,
                        );
                        for dest in 0..self.starts.len() - 1 {
                            if dest != pusher.rank() {
                                let owned_there = self.starts[dest + 1] - self.starts[dest];
                                pusher.push(
                                    dest,
                                    VoronoiMsg::DelegateUpdate {
                                        target: owned_there + k,
                                        label,
                                        pred_weight,
                                    },
                                );
                            }
                        }
                    }
                    self.relax_out_arcs(target, label, pusher);
                }
            }
            VoronoiMsg::DelegateUpdate {
                target,
                label,
                pred_weight,
            } => {
                // Replica update; priority-queue reordering can deliver a
                // newer (better) update first, in which case the older one
                // is a no-op.
                if self
                    .states
                    .try_improve_at(target as usize, label, pred_weight)
                {
                    self.relax_out_arcs(target, label, pusher);
                }
            }
        }
    }

    /// Relaxes every outgoing arc of held local id `i` that this rank
    /// holds, given its (just-updated) label.
    #[inline]
    fn relax_out_arcs(&mut self, i: LocalId, label: Label, pusher: &mut Pusher<'_, VoronoiMsg>) {
        let rg = self.rg;
        let (v, owned) = (rg.global_id(i), rg.num_owned());
        if (i as usize) < owned {
            let (targets, weights) = rg.owned_arcs(i as usize);
            for (&nbr, &w) in targets.iter().zip(weights) {
                self.relax(v, label, nbr, w, pusher);
            }
        } else {
            for &(nbr, w) in rg.delegate_arcs(i as usize - owned) {
                self.relax(v, label, nbr, w, pusher);
            }
        }
    }

    /// Relaxes the arc from `v` to local id `nbr` of weight `w`. Under a
    /// filtering discipline a candidate that cannot beat what `nbr`
    /// already has on this rank (a held target's admitted label, a
    /// ghost's sent label) is counted as pruned and never becomes a
    /// message; one that beats it replaces it, since it is queued here or
    /// sent.
    #[inline]
    fn relax(
        &mut self,
        v: Vertex,
        label: Label,
        nbr: LocalId,
        w: Weight,
        pusher: &mut Pusher<'_, VoronoiMsg>,
    ) {
        let cand = Label {
            dist: label.dist + w,
            src: label.src,
            pred: v,
        };
        // Held targets (owned vertices and delegate replicas) are relaxed
        // on this rank; a ghost routes to its owner, named by its slot
        // there.
        let held = self.rg.num_held();
        let (dest, target) = if (nbr as usize) < held {
            if self.filter {
                let admitted = &mut self.admitted[nbr as usize];
                if cand >= *admitted {
                    pusher.prune();
                    return;
                }
                *admitted = cand;
            }
            (pusher.rank(), nbr)
        } else {
            let g = nbr as usize - held;
            if self.filter {
                let ghost = &mut self.ghost[g];
                if cand >= *ghost {
                    pusher.prune();
                    return;
                }
                *ghost = cand;
            }
            let ghost = self.rg.ghosts()[g];
            let owner = ghost.owner as usize;
            (owner, ghost.global - self.starts[owner])
        };
        pusher.push(
            dest,
            VoronoiMsg::Relax {
                target,
                label: cand,
                pred_weight: w,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(priority.stale_dropped > 0);
        assert!(priority.pruned_at_push > 0);
        assert_eq!(
            priority.processed + priority.stale_dropped,
            bootstraps + local
        );
        let (fifo, fifo_local, _) = one_rank(QueueKind::Fifo);
        assert_eq!(fifo.stale_dropped, 0);
        assert_eq!(fifo.pruned_at_push, 0);
        assert_eq!(fifo.processed, bootstraps + fifo_local);
        assert!(
            priority.peak_queue_len < fifo.peak_queue_len,
            "priority peak {} vs fifo {}",
            priority.peak_queue_len,
            fifo.peak_queue_len
        );
    }

    /// Every held vertex's `(label, pred_weight)` after a Voronoi run on
    /// `p` ranks: owned slots and delegate replicas, each replica checked
    /// equal across ranks.
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
                .map(|v| (v, (states.label(v), states.pred_weight(v))))
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
        labels
    }

    /// The push-time pruning and the bucket width change which
    /// relaxations become messages and in which order they are visited,
    /// never the fixpoint: every held vertex's `(dist, src, pred,
    /// pred_weight)` matches the 1-rank FIFO run (no filter at all) under
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
