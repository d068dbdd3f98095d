//! Distance-graph construction (Alg 5): local min-distance cross-cell edge
//! identification followed by the global collective reduction.
//!
//! Each rank scans its local arcs; for an arc `(u, v)` whose endpoints lie
//! in different Voronoi cells, the connecting-path length
//! `d_1(s, u) + d(u, v) + d_1(v, t)` becomes a candidate weight for the
//! distance-graph edge `(s, t)`. When `v`'s state is remote the arc is
//! shipped to `v`'s owner as a probe message. Under `--mst replicated`
//! the global minima are then found with one dense `Allreduce(MIN)` over
//! the paper's `binom(|S|, 2)` buffer ([`global_min_edges`]); the default
//! `--mst dist` pipeline instead feeds the per-rank candidate maps
//! straight into the Borůvka rounds ([`crate::boruvka`]).

use crate::messages::ProbeMsg;
use crate::state::{VertexStates, NO_VERTEX};
use std::collections::BTreeMap;
use stgraph::csr::{Distance, Vertex, Weight, INF};
use stgraph::partition::{BlockPartition, RankGraph};
use struntime::{run_traversal, ChannelGroup, Comm, QueueKind};

/// The winning bridge for one distance-graph edge `(s, t)`.
///
/// Ordering is the tie-breaking rule: smallest connecting-path total, then
/// smallest oriented bridge `(a, b)` where `a ∈ N(s)` — this is the
/// deterministic equivalent of the paper's `Allreduce(MIN)` on source
/// vertex ids that "ensures only one cross-cell edge per Voronoi cell
/// pair".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MinEdge {
    /// Connecting-path length `d_1'(s, t)`.
    pub total: Distance,
    /// Bridge endpoint in `N(s)` (the smaller seed's cell).
    pub a: Vertex,
    /// Bridge endpoint in `N(t)`.
    pub b: Vertex,
    /// Bridge edge weight `d(a, b)`.
    pub weight: Weight,
}

impl MinEdge {
    /// The "absent" entry — loses to every real candidate.
    pub const UNSET: MinEdge = MinEdge {
        total: INF,
        a: NO_VERTEX,
        b: NO_VERTEX,
        weight: 0,
    };
}

/// Seed-index pair `(si, ti)` with `si < ti`, keys of the distance graph.
pub type PairKey = (u32, u32);

/// Local phase: returns this rank's best candidate per cell pair plus the
/// traversal stats. Collective (runs a traversal).
pub fn local_min_edges(
    comm: &Comm,
    chan: &ChannelGroup<Vec<ProbeMsg>>,
    rg: &RankGraph,
    partition: &BlockPartition,
    states: &VertexStates,
    seed_index: &BTreeMap<Vertex, u32>,
) -> (BTreeMap<PairKey, MinEdge>, struntime::TraversalStats) {
    let mut local: BTreeMap<PairKey, MinEdge> = BTreeMap::new();

    let stats = run_traversal(
        comm,
        chan,
        QueueKind::Fifo,
        |_| 0,
        [ProbeMsg::Scan],
        |msg, pusher| match msg {
            ProbeMsg::Scan => {
                for (u, v, w) in rg.local_arcs() {
                    let lu = states.label(u);
                    if lu.src == NO_VERTEX {
                        continue;
                    }
                    if states.holds(v) {
                        // Both endpoints' states are local: evaluate here.
                        record_candidate(&mut local, states, seed_index, v, u, w, lu.src, lu.dist);
                    } else {
                        pusher.push(
                            partition.owner(v),
                            ProbeMsg::Candidate {
                                v,
                                u,
                                weight: w,
                                u_src: lu.src,
                                u_dist: lu.dist,
                            },
                        );
                    }
                }
            }
            ProbeMsg::Candidate {
                v,
                u,
                weight,
                u_src,
                u_dist,
            } => {
                record_candidate(&mut local, states, seed_index, v, u, weight, u_src, u_dist);
            }
        },
    );
    (local, stats)
}

#[allow(clippy::too_many_arguments)]
fn record_candidate(
    local: &mut BTreeMap<PairKey, MinEdge>,
    states: &VertexStates,
    seed_index: &BTreeMap<Vertex, u32>,
    v: Vertex,
    u: Vertex,
    w: Weight,
    u_src: Vertex,
    u_dist: Distance,
) {
    let lv = states.label(v);
    if lv.src == NO_VERTEX || lv.src == u_src {
        return;
    }
    let total = u_dist + w + lv.dist;
    let (si, ti) = (seed_index[&u_src], seed_index[&lv.src]);
    // Orient the bridge from the smaller seed's cell.
    let (key, a, b) = if si < ti {
        ((si, ti), u, v)
    } else {
        ((ti, si), v, u)
    };
    let cand = MinEdge {
        total,
        a,
        b,
        weight: w,
    };
    let entry = local.entry(key).or_insert(MinEdge::UNSET);
    if cand < *entry {
        *entry = cand;
    }
}

/// Global phase: reduces per-rank candidate maps to the cluster-wide
/// distance graph `G_1'`, as a sorted pair list. Collective — one
/// `Allreduce(MIN)` over the dense `binom(|S|, 2)` buffer (the paper's
/// Alg 5), which every rank materializes in full.
pub fn global_min_edges(
    comm: &Comm,
    local: BTreeMap<PairKey, MinEdge>,
    num_seeds: usize,
) -> Vec<(PairKey, MinEdge)> {
    // Fewer than two seeds means no cell pairs, hence an empty distance
    // graph. `num_seeds` is replicated on every rank, so all ranks take
    // this branch together and collective lockstep is preserved. (The
    // dense size below would underflow for `num_seeds == 0` otherwise —
    // solver entry points reject such seed sets, but this keeps the
    // collective layer total on its own.)
    if num_seeds < 2 {
        return Vec::new();
    }
    let len = num_seeds * (num_seeds - 1) / 2;
    let bytes = len * std::mem::size_of::<MinEdge>();
    comm.memory().record("distance_graph_dense", bytes);
    let mut buf = vec![MinEdge::UNSET; len];
    for (&(si, ti), &e) in &local {
        buf[pair_offset(num_seeds, si, ti)] = e;
    }
    comm.allreduce_min(&mut buf);
    let mut out = Vec::new();
    for si in 0..num_seeds as u32 {
        for ti in (si + 1)..num_seeds as u32 {
            let e = buf[pair_offset(num_seeds, si, ti)];
            if e.total != INF {
                out.push(((si, ti), e));
            }
        }
    }
    comm.memory().release("distance_graph_dense", bytes);
    out
}

/// Offset of pair `(si, ti)`, `si < ti`, in the dense upper-triangular
/// buffer over `k` seeds.
pub fn pair_offset(k: usize, si: u32, ti: u32) -> usize {
    let (si, ti) = (si as usize, ti as usize);
    debug_assert!(si < ti && ti < k);
    si * (2 * k - si - 1) / 2 + (ti - si - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_offsets_are_dense_and_unique() {
        let k = 7;
        let mut seen = vec![false; k * (k - 1) / 2];
        for si in 0..k as u32 {
            for ti in (si + 1)..k as u32 {
                let off = pair_offset(k, si, ti);
                assert!(!seen[off], "collision at ({si},{ti})");
                seen[off] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn global_min_edges_handles_degenerate_seed_counts() {
        // Regression: the dense size `k * (k - 1) / 2` underflowed (and
        // panicked) for k == 0. Both degenerate counts must return an
        // empty distance graph.
        for num_seeds in [0usize, 1] {
            let out = struntime::World::run(2, move |comm| {
                global_min_edges(comm, BTreeMap::new(), num_seeds)
            });
            for edges in &out.results {
                assert!(edges.is_empty(), "k={num_seeds}");
            }
        }
    }

    #[test]
    fn dense_reduce_takes_the_per_pair_minimum_and_settles_its_label() {
        let out = struntime::World::run(2, |comm| {
            let mut local = BTreeMap::new();
            local.insert(
                (0u32, 1u32),
                MinEdge {
                    total: 5 + comm.rank() as u64,
                    a: 1,
                    b: 2,
                    weight: 3,
                },
            );
            if comm.rank() == 1 {
                local.insert(
                    (1u32, 2u32),
                    MinEdge {
                        total: 7,
                        a: 4,
                        b: 5,
                        weight: 2,
                    },
                );
            }
            let dg = global_min_edges(comm, local, 3);
            (
                dg,
                comm.memory().current("distance_graph_dense"),
                comm.memory().peaks()["distance_graph_dense"],
            )
        });
        for (dg, current, peak) in &out.results {
            let keys: Vec<PairKey> = dg.iter().map(|&(k, _)| k).collect();
            assert_eq!(keys, vec![(0, 1), (1, 2)]);
            assert_eq!(dg[0].1.total, 5, "rank 0's lighter candidate wins");
            assert_eq!(*current, 0, "label released after the reduce");
            assert_eq!(*peak, 3 * std::mem::size_of::<MinEdge>());
        }
    }

    #[test]
    fn min_edge_ordering_prefers_total_then_bridge() {
        let a = MinEdge {
            total: 5,
            a: 9,
            b: 9,
            weight: 1,
        };
        let b = MinEdge {
            total: 6,
            a: 0,
            b: 0,
            weight: 1,
        };
        assert!(a < b);
        let c = MinEdge {
            total: 5,
            a: 2,
            b: 9,
            weight: 3,
        };
        assert!(c < a);
        assert!(a < MinEdge::UNSET);
    }
}
