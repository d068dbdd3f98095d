//! Distributed asynchronous Voronoi-cell computation (Alg 4).
//!
//! Bellman-Ford-style label-correcting relaxation run through the
//! vertex-centric traversal driver. Each vertex converges to the label
//! `(d_1(s, v), s, pred)` of its nearest seed `s`; the optional priority
//! queue (the paper's §IV optimization) processes lower-distance messages
//! first, approximating Dijkstra's settle order and slashing wasted
//! relaxations (§V-C).
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
//! Under the ordered queue disciplines (priority, bucketed) the traversal
//! asks a staleness predicate about every `Relax` and `DelegateUpdate`
//! at queue admission and again at pop (see `struntime::traversal`,
//! "Stale-entry filtering"). The
//! predicate keeps, per held vertex (owned slot or delegate replica), the
//! best candidate label *admitted* to this rank's queue so far, in one
//! dense array seeded from the labels after `init_seeds`:
//!
//! - **admission** rejects a candidate that is not strictly below the
//!   target's admitted label and records it otherwise, so a relaxation
//!   that cannot beat the target's tentative distance is never queued —
//!   HavoqGT's `pre_visit`, the tentative-distance filter of
//!   delta-stepping;
//! - **pop** drops a candidate that is above the admitted label (a better
//!   one was queued after it) or not below the committed label.
//!
//! Both answers are safe. The committed label is never below the admitted
//! one, so a rejected candidate either cannot pass `try_improve` or is
//! dominated by an admitted candidate for the same target, whose visit
//! (or drop, by induction) leaves the target at a label at least as
//! small, and whose out-arc relaxations dominate the rejected one's. The
//! pop answer is monotone — both labels only shrink — and the visit is
//! unchanged, so the strict-lexicographic label fixpoint (and the tree)
//! stays bit-identical across disciplines. Dropped candidates are counted
//! in `TraversalStats::stale_dropped`.

use crate::messages::VoronoiMsg;
use crate::state::{Label, ScratchArena, VertexStates};
use std::cell::RefCell;
use stgraph::csr::{Vertex, Weight};
use stgraph::partition::{BlockPartition, RankGraph};
use struntime::traversal::{run_traversal_filtered, StaleCheck, TraversalOptions};
use struntime::{ChannelGroup, Comm, Pusher, TraversalStats};

/// Runs the Voronoi phase to quiescence on this rank. Collective.
/// `scratch` provides the reusable bootstrap buffer and admitted-label
/// array so repeated solves (benchmark sweeps) do not re-allocate per
/// phase.
#[allow(clippy::too_many_arguments)] // collective phase entry: ctx + graph views + state + knobs
pub fn run(
    comm: &Comm,
    chan: &ChannelGroup<Vec<VoronoiMsg>>,
    rg: &RankGraph,
    partition: &BlockPartition,
    states: &mut VertexStates,
    seeds: &[Vertex],
    options: TraversalOptions,
    scratch: &mut ScratchArena,
) -> TraversalStats {
    states.init_seeds(seeds);
    let (init, admitted) = scratch.voronoi_buffers(states);

    // Bootstrap: this rank starts every seed whose outgoing arcs it holds —
    // owned non-delegate seeds, plus every delegate seed (each rank holds a
    // slice of a delegate's adjacency).
    init.extend(
        seeds
            .iter()
            .copied()
            .filter(|&s| rg.is_delegate(s) || rg.owns(s))
            .map(VoronoiMsg::Start),
    );

    // The stale predicate and the visit callback both need the vertex
    // states (read-only vs. mutable); a RefCell arbitrates. The borrows
    // never overlap: the traversal calls the predicate and the visit
    // callback strictly in sequence on one thread.
    let states = RefCell::new(states);
    run_traversal_filtered(
        comm,
        chan,
        options,
        VoronoiMsg::priority,
        |check: StaleCheck, msg: &VoronoiMsg| match *msg {
            // Bootstraps are never stale: they carry no candidate label.
            VoronoiMsg::Start(_) => false,
            VoronoiMsg::Relax { target, label, .. }
            | VoronoiMsg::DelegateUpdate { target, label, .. } => {
                let st = states.borrow();
                let Some(i) = st.held_index(target) else {
                    return false;
                };
                match check {
                    StaleCheck::Admit if label < admitted[i] => {
                        admitted[i] = label;
                        false
                    }
                    StaleCheck::Admit => true,
                    StaleCheck::Pop => label > admitted[i] || label >= st.label_at(i),
                }
            }
        },
        init.iter().copied(),
        |msg, pusher| visit(msg, rg, partition, &mut states.borrow_mut(), pusher),
    )
}

fn visit(
    msg: VoronoiMsg,
    rg: &RankGraph,
    partition: &BlockPartition,
    states: &mut VertexStates,
    pusher: &mut Pusher<'_, VoronoiMsg>,
) {
    match msg {
        VoronoiMsg::Start(s) => {
            let label = Label::seed(s);
            relax_out_arcs(s, label, rg, partition, pusher);
        }
        VoronoiMsg::Relax {
            target,
            label,
            pred_weight,
        } => {
            if states.try_improve(target, label, pred_weight) {
                if rg.is_delegate(target) {
                    // Local replica improved: sync the other replicas,
                    // then relax this rank's slice of the hub's adjacency.
                    pusher.trace_instant("delegate_broadcast", target as u64);
                    for dest in 0..partition.num_ranks() {
                        if dest != pusher.rank() {
                            pusher.push(
                                dest,
                                VoronoiMsg::DelegateUpdate {
                                    target,
                                    label,
                                    pred_weight,
                                },
                            );
                        }
                    }
                }
                relax_out_arcs(target, label, rg, partition, pusher);
            }
        }
        VoronoiMsg::DelegateUpdate {
            target,
            label,
            pred_weight,
        } => {
            // Replica update; priority-queue reordering can deliver a newer
            // (better) update first, in which case the older one is a no-op.
            if states.try_improve(target, label, pred_weight) {
                relax_out_arcs(target, label, rg, partition, pusher);
            }
        }
    }
}

/// Relaxes every outgoing arc of `v` that this rank holds, given `v`'s
/// (just-updated) label.
fn relax_out_arcs(
    v: Vertex,
    label: Label,
    rg: &RankGraph,
    partition: &BlockPartition,
    pusher: &mut Pusher<'_, VoronoiMsg>,
) {
    let emit = |nbr: Vertex, w: Weight, pusher: &mut Pusher<'_, VoronoiMsg>| {
        let msg = VoronoiMsg::Relax {
            target: nbr,
            label: Label {
                dist: label.dist + w,
                src: label.src,
                pred: v,
            },
            pred_weight: w,
        };
        // Delegate targets are relaxed against the local replica (every
        // rank holds one); everything else routes to its owner.
        let dest = if rg.is_delegate(nbr) {
            pusher.rank()
        } else {
            partition.owner(nbr)
        };
        pusher.push(dest, msg);
    };
    if rg.is_delegate(v) {
        for &(nbr, w) in rg.delegate_slice(v) {
            emit(nbr, w, pusher);
        }
    } else {
        debug_assert!(rg.owns(v));
        for (nbr, w) in rg.adj(v) {
            emit(nbr, w, pusher);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph::datasets::Dataset;
    use stgraph::partition::partition_graph;
    use struntime::{QueueKind, World};

    /// One 1-rank Voronoi run on a tiny RMAT graph with hub delegates:
    /// its traversal stats, the phase's local message count and the number
    /// of bootstraps.
    fn one_rank(queue: QueueKind) -> (TraversalStats, u64, u64) {
        let g = Dataset::Lvj.generate_tiny(11);
        let seeds: Vec<Vertex> = (0..g.num_vertices() as Vertex).step_by(61).collect();
        let pg = partition_graph(&g, 1, Some(24));
        assert!(!pg.ranks[0].delegates.is_empty(), "exercise replica slots");
        let out = World::run(1, |comm| {
            let chan = comm.open_channels::<Vec<VoronoiMsg>>("voronoi");
            let rg = &pg.ranks[0];
            let mut states = VertexStates::new(rg);
            let mut scratch = ScratchArena::new();
            run(
                comm,
                &chan,
                rg,
                &pg.partition,
                &mut states,
                &seeds,
                TraversalOptions::new(queue),
                &mut scratch,
            )
        });
        let local = out.merged_counters()["voronoi"].local_msgs;
        (out.results[0], local, seeds.len() as u64)
    }

    /// `stale_dropped` counts relaxations that never became visits, at
    /// admission or at pop: on one rank every push is local, so each
    /// bootstrap and each local message is either visited or dropped,
    /// exactly once.
    #[test]
    fn priority_visits_plus_drops_equal_pushes_and_queue_stays_short() {
        let (priority, local, bootstraps) = one_rank(QueueKind::Priority);
        assert!(priority.stale_dropped > 0);
        assert_eq!(
            priority.processed + priority.stale_dropped,
            bootstraps + local
        );
        let (fifo, fifo_local, _) = one_rank(QueueKind::Fifo);
        assert_eq!(fifo.stale_dropped, 0);
        assert_eq!(fifo.processed, bootstraps + fifo_local);
        assert!(
            priority.peak_queue_len < fifo.peak_queue_len,
            "priority peak {} vs fifo {}",
            priority.peak_queue_len,
            fifo.peak_queue_len
        );
    }
}
