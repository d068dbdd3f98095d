//! Steiner tree edge identification (Alg 6) plus the preceding global edge
//! pruning (Alg 5's `EDGE_PRUNING_COLL`).
//!
//! Pruning keeps only the "active" cross-cell bridges — those whose cell
//! pair is in the MST `G_2'`. Then, from each endpoint of every active
//! bridge, a vertex-centric asynchronous traversal walks predecessor
//! pointers back to the cell's seed, emitting tree edges along the way. A
//! per-vertex `traced` flag stops chains that merge into already-walked
//! paths, which is why this phase's message count is orders of magnitude
//! below the Voronoi phase's (paper Fig 6).
//!
//! A tree edge's weight is derived, not stored: the edge from `pred(v)`
//! to `v` weighs `d_1(v) - d_1(pred(v))`. That is exact at the Voronoi
//! fixpoint. `v`'s label is the relaxation of an arc from `pred(v)` at
//! some distance and seed of `pred(v)`. Had those improved later,
//! `pred(v)` would have relaxed the arc again and lowered `v`'s label, so
//! they are `pred(v)`'s final ones. And the arc is the lightest
//! `(pred(v), v)` edge, since that one gives the smallest candidate. So a
//! trace message carries `d_1(v)` to the owner of `pred(v)`, which
//! records the edge.

use crate::distance_graph::{MinEdge, PairKey};
use crate::messages::TraceMsg;
use crate::state::{VertexStates, NO_VERTEX};
use stgraph::csr::{Vertex, Weight};
use stgraph::partition::BlockPartition;
use struntime::{run_traversal, ChannelGroup, Comm, QueueKind};

/// Filters the distance graph down to the active bridges: entries whose
/// pair was chosen by the MST. Pure local computation (the reduced
/// distance graph is replicated), mirroring the paper's collective which
/// only reconciles tie-broken duplicates — our reduction already
/// tie-breaks deterministically.
pub fn active_bridges(distance_graph: &[(PairKey, MinEdge)], mst_chosen: &[usize]) -> Vec<MinEdge> {
    mst_chosen.iter().map(|&i| distance_graph[i].1).collect()
}

/// Runs the tree-edge phase: collects this rank's share of the Steiner
/// tree's edges plus the traversal stats. Collective.
pub fn run(
    comm: &Comm,
    chan: &ChannelGroup<Vec<TraceMsg>>,
    partition: &BlockPartition,
    states: &mut VertexStates,
    bridges: &[MinEdge],
) -> (Vec<(Vertex, Vertex, Weight)>, struntime::TraversalStats) {
    let mut edges: Vec<(Vertex, Vertex, Weight)> = Vec::new();
    let rank = comm.rank();

    // Seed the traversal: the owner of each bridge endpoint starts a trace
    // there; the owner of `a` also records the bridge edge itself.
    let mut init: Vec<TraceMsg> = Vec::new();
    for e in bridges {
        if partition.owner(e.a) == rank {
            edges.push((e.a, e.b, e.weight));
            init.push(TraceMsg::start(e.a));
        }
        if partition.owner(e.b) == rank {
            init.push(TraceMsg::start(e.b));
        }
    }

    let stats = run_traversal(
        comm,
        chan,
        QueueKind::Fifo,
        |_| 0,
        init,
        |msg: TraceMsg, pusher| {
            let (vertex, label) = (msg.vertex, states.label(msg.vertex));
            if msg.child != NO_VERTEX {
                // Each child is traced once, so each edge is recorded once,
                // even where chains merge.
                debug_assert!(msg.child_dist >= label.dist, "labels grow along a chain");
                edges.push((vertex, msg.child, msg.child_dist - label.dist));
            }
            if !states.mark_traced(vertex) {
                return; // Chain already walked from another bridge.
            }
            if label.src == vertex || label.pred == NO_VERTEX {
                return; // Reached the cell's seed.
            }
            pusher.push(
                partition.owner(label.pred),
                TraceMsg {
                    vertex: label.pred,
                    child: vertex,
                    child_dist: label.dist,
                },
            );
        },
    );
    (edges, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_bridges_selects_mst_entries() {
        let e = |t| MinEdge {
            total: t,
            a: 0,
            b: 1,
            weight: 1,
        };
        let dg = vec![((0u32, 1u32), e(3)), ((1, 2), e(5)), ((0, 2), e(4))];
        let active = active_bridges(&dg, &[0, 2]);
        assert_eq!(active.len(), 2);
        assert_eq!(active[0].total, 3);
        assert_eq!(active[1].total, 4);
    }
}
