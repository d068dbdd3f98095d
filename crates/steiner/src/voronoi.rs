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
//! applies a staleness predicate at pop time: a queued `Relax` or
//! `DelegateUpdate` whose candidate label is already `>=` the target's
//! current label can never pass `try_improve`, so it is dropped without a
//! visit (counted in `TraversalStats::stale_dropped`). The predicate is
//! monotone — labels only shrink, so a dominated message stays dominated —
//! which makes the drop safe: it removes exactly the visits that would
//! have been no-ops, leaving the label fixpoint (and the tree) bit-
//! identical across disciplines.

use crate::messages::VoronoiMsg;
use crate::state::{Label, ScratchArena, VertexStates};
use std::cell::RefCell;
use stgraph::csr::{Vertex, Weight};
use stgraph::partition::{BlockPartition, RankGraph};
use struntime::traversal::{run_traversal_filtered, TraversalOptions};
use struntime::{ChannelGroup, Comm, Pusher, TraversalStats};

/// Runs the Voronoi phase to quiescence on this rank. Collective.
/// `scratch` provides the reusable bootstrap buffer so repeated solves
/// (benchmark sweeps) do not re-allocate per phase.
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

    // Bootstrap: this rank starts every seed whose outgoing arcs it holds —
    // owned non-delegate seeds, plus every delegate seed (each rank holds a
    // slice of a delegate's adjacency).
    let init = scratch.init_msgs();
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
        |msg: &VoronoiMsg| match *msg {
            // Bootstraps are never stale: they carry no candidate label.
            VoronoiMsg::Start(_) => false,
            VoronoiMsg::Relax { target, label, .. }
            | VoronoiMsg::DelegateUpdate { target, label, .. } => {
                let st = states.borrow();
                st.holds(target) && label >= st.label(target)
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
