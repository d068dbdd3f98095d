//! Distance-graph construction (Alg 5): local min-distance cross-cell edge
//! identification followed by the global collective reduction.
//!
//! Each rank scans one direction of each of its local edges; for an arc
//! `(u, v)` whose endpoints lie in different Voronoi cells, the
//! connecting-path length `d_1(s, u) + d(u, v) + d_1(v, t)` becomes a
//! candidate weight for the distance-graph edge `(s, t)`. When `v`'s state is remote the arc is
//! shipped to `v`'s owner as a probe message. Each rank ends with a sorted
//! candidate list holding its best bridge per cell pair. Under
//! `--mst replicated` the global minima are then found with one dense
//! `Allreduce(MIN)` over the paper's `binom(|S|, 2)` buffer
//! ([`global_min_edges`]); the default `--mst dist` pipeline instead feeds
//! the per-rank sorted candidate lists straight into the Borůvka rounds
//! ([`crate::boruvka`]).
//!
//! No map sits on the local path:
//!
//! - **Cell index.** A cell is named by its seed's index in the sorted
//!   seed list, resolved once per held vertex (`cell_labels`) rather than
//!   once per arc endpoint, and packed with the vertex's distance, so an
//!   arc endpoint costs one array read. Seed-index order is seed-vertex
//!   order, so tie-breaking is unchanged.
//! - **Direct loops.** The scan walks each source's adjacency slice
//!   ([`RankGraph::owned_arcs`], [`RankGraph::delegate_arcs`]); a
//!   source's index is also the held index of its state, so only the far
//!   end `v` is looked up.
//! - **One evaluation per undirected edge.** An arc `(u, v)` is evaluated
//!   iff `u < v` agrees with `u + v` being even (`evaluates`). Exactly
//!   one of an edge's two arcs passes, and self-loops never do. Every arc
//!   is stored on exactly one rank: the owner of `u`, or the rank holding
//!   that share of a delegate `u`'s adjacency. The candidate `(total, a,
//!   b, weight)` is the same from either direction, so per-pair minima are
//!   unchanged. The parity spreads the evaluating end over both endpoints,
//!   so under the block partition cross-rank probes flow both ways instead
//!   of all toward the higher rank.
//! - **Dense or sorted reduce.** A rank whose local arc count is at least
//!   `binom(|S|, 2)` folds candidates into a dense [`pair_offset`] table.
//!   Otherwise it appends them, sorts, and keeps each pair's first
//!   (smallest) entry: the filter/sort edge processing of Sanders and
//!   Schimek (arXiv:2302.12199). Either way the working set is bounded by
//!   the rank's arcs, and both give the same sorted list.

use crate::messages::ProbeMsg;
use crate::state::{VertexStates, NO_VERTEX};
use stgraph::csr::{Distance, Vertex, Weight, INF};
use stgraph::partition::{BlockPartition, RankGraph};
use struntime::{run_traversal, ChannelGroup, Comm, Pusher, QueueKind};

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

/// Cell of a vertex no seed reached.
const NO_CELL: u32 = u32::MAX;

/// This rank's scan input, packed: for each state slot it holds (indexed
/// by [`VertexStates::held_index`]), the label's distance and the index
/// in `seeds` of its source, or [`NO_CELL`]. `seeds` must be sorted, as
/// the solver entry points leave them.
fn cell_labels(states: &VertexStates, seeds: &[Vertex]) -> Vec<(Distance, u32)> {
    (0..states.num_held())
        .map(|i| {
            let label = states.label_at(i);
            let cell = match label.src {
                NO_VERTEX => NO_CELL,
                src => seeds
                    .binary_search(&src)
                    .expect("every label source is a seed") as u32,
            };
            (label.dist, cell)
        })
        .collect()
}

/// One rank's per-pair minimum over its candidates (see the module docs).
enum PairMins {
    Dense {
        num_seeds: usize,
        table: Vec<MinEdge>,
    },
    Sorted(Vec<(PairKey, MinEdge)>),
}

impl PairMins {
    /// The dense `binom(num_seeds, 2)` table when it is no larger than the
    /// rank's arc count, the sorted list otherwise.
    fn new(num_seeds: usize, local_arcs: usize) -> PairMins {
        let pairs = num_seeds * num_seeds.saturating_sub(1) / 2;
        if pairs <= local_arcs {
            PairMins::Dense {
                num_seeds,
                table: vec![MinEdge::UNSET; pairs],
            }
        } else {
            PairMins::Sorted(Vec::new())
        }
    }

    /// Offers the arc `(u, v)` of weight `w` between `u`, at distance
    /// `du` in cell `cu`, and `v`, at `dv` in `cv`, oriented from the
    /// smaller seed's cell. Arcs inside one cell, and arcs into an
    /// unreached `v` (`u` is always reached), are skipped.
    #[inline]
    fn offer(
        &mut self,
        (u, cu, du): (Vertex, u32, Distance),
        (v, cv, dv): (Vertex, u32, Distance),
        w: Weight,
    ) {
        if cv == NO_CELL || cv == cu {
            return;
        }
        let total = du + w + dv;
        let (key, a, b) = if cu < cv {
            ((cu, cv), u, v)
        } else {
            ((cv, cu), v, u)
        };
        let cand = MinEdge {
            total,
            a,
            b,
            weight: w,
        };
        match self {
            PairMins::Dense { num_seeds, table } => {
                let slot = &mut table[pair_offset(*num_seeds, key.0, key.1)];
                if cand < *slot {
                    *slot = cand;
                }
            }
            PairMins::Sorted(list) => list.push((key, cand)),
        }
    }

    /// The key-sorted list of each pair's smallest candidate.
    fn finish(self) -> Vec<(PairKey, MinEdge)> {
        match self {
            PairMins::Dense { num_seeds, table } => dense_to_sorted(num_seeds, &table),
            PairMins::Sorted(mut list) => {
                list.sort_unstable();
                list.dedup_by_key(|&mut (key, _)| key);
                list
            }
        }
    }
}

/// The set entries of a dense `binom(num_seeds, 2)` table, in key order.
fn dense_to_sorted(num_seeds: usize, table: &[MinEdge]) -> Vec<(PairKey, MinEdge)> {
    let mut out = Vec::new();
    let mut entries = table.iter();
    for si in 0..num_seeds as u32 {
        for ti in (si + 1)..num_seeds as u32 {
            let &e = entries.next().expect("table holds binom(k, 2) entries");
            if e.total != INF {
                out.push(((si, ti), e));
            }
        }
    }
    out
}

/// Arc sources per `Scan` visitor. Each scan chunk ends with a visit
/// boundary, where the traversal drains the probes other ranks sent, so a
/// rank evaluates them while it is still scanning. One whole-rank scan
/// held every probe in the channels until both ranks finished scanning:
/// with probes flowing both ways, that cost web-async about 13 MiB of
/// peak RSS.
const SCAN_CHUNK: usize = 1 << 12;

/// Local phase: returns this rank's best candidate per cell pair, sorted
/// by pair key, plus the traversal stats. `seeds` is the sorted seed list
/// that names the cells. Collective (runs a traversal).
pub fn local_min_edges(
    comm: &Comm,
    chan: &ChannelGroup<Vec<ProbeMsg>>,
    rg: &RankGraph,
    partition: &BlockPartition,
    states: &VertexStates,
    seeds: &[Vertex],
) -> (Vec<(PairKey, MinEdge)>, struntime::TraversalStats) {
    let cells = cell_labels(states, seeds);
    let mut mins = PairMins::new(seeds.len(), rg.num_local_arcs());
    let scan = Scan {
        states,
        cells: &cells,
        partition,
    };

    let (owned, sources) = (rg.num_owned(), rg.num_sources());
    let stats = run_traversal(
        comm,
        chan,
        QueueKind::Fifo,
        |_| 0,
        [ProbeMsg::Scan(0)],
        |msg, pusher| match msg {
            ProbeMsg::Scan(first) => {
                let (first, end) = (first as usize, sources.min(first as usize + SCAN_CHUNK));
                if end < sources {
                    pusher.push(pusher.rank(), ProbeMsg::Scan(end as u32));
                }
                // Source index `i` is also the held index of its state.
                for i in first.min(owned)..end.min(owned) {
                    let u = rg.owned.start + i as Vertex;
                    let (targets, weights) = rg.owned_arcs(i);
                    let arcs = targets.iter().copied().zip(weights.iter().copied());
                    scan.source(u, i, arcs, &mut mins, pusher);
                }
                for i in first.max(owned)..end.max(owned) {
                    let k = i - owned;
                    let arcs = rg.delegate_arcs(k).iter().copied();
                    scan.source(rg.delegates[k], i, arcs, &mut mins, pusher);
                }
            }
            ProbeMsg::Candidate {
                v,
                u,
                weight,
                u_cell,
                u_dist,
            } => {
                let iv = states.held_index(v).expect("probes go to v's owner");
                let (v_dist, v_cell) = cells[iv];
                mins.offer((u, u_cell, u_dist), (v, v_cell, v_dist), weight);
            }
        },
    );
    (mins.finish(), stats)
}

/// What the local scan reads: the held states, their packed
/// [`cell_labels`], and the owner map for probes.
struct Scan<'a> {
    states: &'a VertexStates,
    cells: &'a [(Distance, u32)],
    partition: &'a BlockPartition,
}

impl Scan<'_> {
    /// Evaluates the arcs of source `u`, held at index `iu`, that this
    /// rank evaluates ([`evaluates`]): offers the ones whose other end is
    /// held here, and probes the owner of every other one.
    #[inline]
    fn source(
        &self,
        u: Vertex,
        iu: usize,
        arcs: impl Iterator<Item = (Vertex, Weight)>,
        mins: &mut PairMins,
        pusher: &mut Pusher<'_, ProbeMsg>,
    ) {
        let (u_dist, u_cell) = self.cells[iu];
        if u_cell == NO_CELL {
            return;
        }
        for (v, w) in arcs {
            if !evaluates(u, v) {
                continue;
            }
            match self.states.held_index(v) {
                Some(iv) => {
                    let (v_dist, v_cell) = self.cells[iv];
                    mins.offer((u, u_cell, u_dist), (v, v_cell, v_dist), w);
                }
                None => pusher.push(
                    self.partition.owner(v),
                    ProbeMsg::Candidate {
                        v,
                        u,
                        weight: w,
                        u_cell,
                        u_dist,
                    },
                ),
            }
        }
    }
}

/// Whether the scan evaluates arc `(u, v)`: for `u != v`, exactly one of
/// `(u, v)` and `(v, u)` does, and for `u == v` neither.
fn evaluates(u: Vertex, v: Vertex) -> bool {
    (u < v) == ((u ^ v) & 1 == 0)
}

/// Global phase: reduces the per-rank sorted candidate lists to the
/// cluster-wide distance graph `G_1'`, as a sorted pair list. Collective —
/// one `Allreduce(MIN)` over the dense `binom(|S|, 2)` buffer (the paper's
/// Alg 5), which every rank materializes in full.
pub fn global_min_edges(
    comm: &Comm,
    local: &[(PairKey, MinEdge)],
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
    for &((si, ti), e) in local {
        buf[pair_offset(num_seeds, si, ti)] = e;
    }
    comm.allreduce_min(&mut buf);
    let out = dense_to_sorted(num_seeds, &buf);
    comm.memory().release("distance_graph_dense", bytes);
    out
}

/// Offset of pair `(si, ti)`, `si < ti`, in the dense upper-triangular
/// buffer over `k` seeds. Offsets follow key order.
pub fn pair_offset(k: usize, si: u32, ti: u32) -> usize {
    let (si, ti) = (si as usize, ti as usize);
    debug_assert!(si < ti && ti < k);
    si * (2 * k - si - 1) / 2 + (ti - si - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::VoronoiMsg;
    use crate::state::{Label, ScratchArena};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;
    use stgraph::csr::CsrGraph;
    use stgraph::partition::partition_graph;
    use stgraph::weights::WeightRange;
    use struntime::traversal::TraversalOptions;
    use struntime::World;

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
            let out = World::run(2, move |comm| global_min_edges(comm, &[], num_seeds));
            for edges in &out.results {
                assert!(edges.is_empty(), "k={num_seeds}");
            }
        }
    }

    #[test]
    fn dense_reduce_takes_the_per_pair_minimum_and_settles_its_label() {
        let out = World::run(2, |comm| {
            let mut local = vec![(
                (0u32, 1u32),
                MinEdge {
                    total: 5 + comm.rank() as u64,
                    a: 1,
                    b: 2,
                    weight: 3,
                },
            )];
            if comm.rank() == 1 {
                local.push((
                    (1u32, 2u32),
                    MinEdge {
                        total: 7,
                        a: 4,
                        b: 5,
                        weight: 2,
                    },
                ));
            }
            let dg = global_min_edges(comm, &local, 3);
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

    #[test]
    fn both_reduce_paths_give_the_same_sorted_minima() {
        let cands = [
            ((1u32, 2u32), (7u32, 8u32), 4u64),
            ((0, 2), (3, 5), 6),
            ((1, 2), (6, 8), 4), // tie on total: the smaller bridge wins
            ((0, 1), (9, 2), 3),
            ((1, 2), (7, 8), 5),
        ];
        let run = |local_arcs| {
            let mut mins = PairMins::new(3, local_arcs);
            for &((cu, cv), (u, v), total) in &cands {
                mins.offer((u, cu, 0), (v, cv, total - 1), 1);
            }
            (matches!(mins, PairMins::Dense { .. }), mins.finish())
        };
        let (dense, from_table) = run(3);
        let (sorted, from_sort) = run(2);
        assert!(dense && !sorted);
        assert_eq!(from_table, from_sort);
        let keys: Vec<PairKey> = from_sort.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!((from_sort[2].1.a, from_sort[2].1.b), (6, 8));
        // The bridge is oriented from the smaller seed's cell.
        assert_eq!((from_sort[0].1.a, from_sort[0].1.b), (9, 2));
    }

    /// A Barabási–Albert graph: hubs above the delegate threshold, and
    /// every vertex reachable.
    fn ba_graph(n: usize) -> CsrGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let edges = stgraph::generators::barabasi_albert(n, 2, &mut rng);
        stgraph::generators::weighted_from_edges(n, edges, WeightRange::new(1, 9), &mut rng)
    }

    /// One rank's sorted candidate list, and whether it reduced dense.
    type RankCandidates = (Vec<(PairKey, MinEdge)>, bool);

    /// Voronoi then [`local_min_edges`] on `p` ranks. Returns every rank's
    /// candidates and the label of every vertex.
    fn local_phase(
        g: &CsrGraph,
        seeds: &[Vertex],
        p: usize,
        delegate_threshold: Option<usize>,
    ) -> (Vec<RankCandidates>, Vec<Label>) {
        let pg = partition_graph(g, p, delegate_threshold);
        assert_eq!(pg.delegates.is_empty(), delegate_threshold.is_none());
        let out = World::run(p, |comm| {
            let rg = &pg.ranks[comm.rank()];
            let chan_voronoi = comm.open_channels::<Vec<VoronoiMsg>>("voronoi");
            let chan_probe = comm.open_channels::<Vec<ProbeMsg>>("local_min_edge");
            let mut states = VertexStates::new(rg);
            crate::voronoi::run(
                comm,
                &chan_voronoi,
                &pg,
                &mut states,
                seeds,
                TraversalOptions::new(QueueKind::Priority),
                &mut ScratchArena::new(),
            );
            let (local, _) = local_min_edges(comm, &chan_probe, rg, &pg.partition, &states, seeds);
            let dense = matches!(
                PairMins::new(seeds.len(), rg.num_local_arcs()),
                PairMins::Dense { .. }
            );
            let mut labels: Vec<(Vertex, Label)> = states.owned_labels().collect();
            labels.extend(rg.delegates.iter().map(|&d| (d, states.label(d))));
            ((local, dense), labels)
        });
        let mut labels = vec![Label::UNSET; g.num_vertices()];
        let mut per_rank = Vec::new();
        for (local, held) in out.results {
            for (v, l) in held {
                labels[v as usize] = l;
            }
            per_rank.push(local);
        }
        (per_rank, labels)
    }

    /// Per-pair minimum over every undirected edge of `g`, straight from
    /// the labels.
    fn brute_force(g: &CsrGraph, seeds: &[Vertex], labels: &[Label]) -> Vec<(PairKey, MinEdge)> {
        let mut best: BTreeMap<PairKey, MinEdge> = BTreeMap::new();
        for (u, v, w) in g.arcs() {
            let (lu, lv) = (labels[u as usize], labels[v as usize]);
            if u > v || lu.src == NO_VERTEX || lv.src == NO_VERTEX || lu.src == lv.src {
                continue;
            }
            let cell = |s| seeds.binary_search(&s).unwrap() as u32;
            let (cu, cv) = (cell(lu.src), cell(lv.src));
            let (key, a, b) = if cu < cv {
                ((cu, cv), u, v)
            } else {
                ((cv, cu), v, u)
            };
            let cand = MinEdge {
                total: lu.dist + w + lv.dist,
                a,
                b,
                weight: w,
            };
            let slot = best.entry(key).or_insert(MinEdge::UNSET);
            *slot = (*slot).min(cand);
        }
        best.into_iter().collect()
    }

    #[test]
    fn local_min_edges_match_brute_force_on_both_reduce_paths() {
        let small = ba_graph(400);
        // Below 4 ranks, every rank scans the large graph in several
        // chunks.
        let large = ba_graph(3 * SCAN_CHUNK);
        // 6 seeds: binom(6, 2) = 15 fits every rank's arc count (dense).
        // 90 seeds: binom(90, 2) = 4005 exceeds the small graph's ~1600
        // arcs (sorted).
        let few: Vec<Vertex> = (0..6).map(|i| i * 61 + 3).collect();
        let many: Vec<Vertex> = (0..90).map(|i| i * 4 + 1).collect();
        for (g, seeds, dense) in [
            (&small, &few, true),
            (&small, &many, false),
            (&large, &few, true),
        ] {
            for p in [1usize, 2, 4] {
                for delegates in [None, Some(12)] {
                    let ctx = format!(
                        "n={} |S|={} p={p} delegates={delegates:?}",
                        g.num_vertices(),
                        seeds.len()
                    );
                    let (per_rank, labels) = local_phase(g, seeds, p, delegates);
                    let mut merged: BTreeMap<PairKey, MinEdge> = BTreeMap::new();
                    for (local, rank_dense) in &per_rank {
                        assert_eq!(*rank_dense, dense, "{ctx}: reduce path");
                        assert!(
                            local.windows(2).all(|w| w[0].0 < w[1].0),
                            "{ctx}: keys sorted and unique"
                        );
                        for &(key, e) in local {
                            let slot = merged.entry(key).or_insert(MinEdge::UNSET);
                            *slot = (*slot).min(e);
                        }
                    }
                    let merged: Vec<(PairKey, MinEdge)> = merged.into_iter().collect();
                    assert!(!merged.is_empty(), "{ctx}");
                    assert_eq!(merged, brute_force(g, seeds, &labels), "{ctx}");
                }
            }
        }
    }
}
