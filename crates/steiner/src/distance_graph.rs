//! Distance-graph construction (Alg 5): local min-distance cross-cell edge
//! identification followed by the global collective reduction.
//!
//! Each rank scans one direction of each of its local edges; for an arc
//! `(u, v)` whose endpoints lie in different Voronoi cells, the
//! connecting-path length `d_1(s, u) + d(u, v) + d_1(v, t)` becomes a
//! candidate weight for the distance-graph edge `(s, t)`. The phase is
//! edge-centric, as in the paper's Alg 5 (a local scan, then a collective
//! reduce), and runs no traversal.
//!
//! - **Halo.** Arc targets are local ids ([`stgraph::partition`]): held
//!   slots, then *ghosts*, the remote targets. Each rank packs the
//!   `(dist, cell)` of its held slots, sends each peer the entries of its
//!   mirror list for that peer in one [`Comm::alltoallv`], and appends
//!   what it receives, which is its ghosts' entries in ghost order. Each
//!   remote label crosses once, however many arcs name it: the halo
//!   exchange of the bulk-synchronous MST algorithms of Sanders and
//!   Schimek (arXiv:2302.12199). Every rank joins the one exchange, with
//!   or without mirrors, at one rank too.
//! - **Scan.** Every evaluated arc is then offered locally, from one read
//!   of its target's `(dist, cell)` pair.
//! - **Reduce.** Under `--mst replicated` each rank ends with its best
//!   bridge per cell pair, sorted by pair key, and the global minima are
//!   found with one dense `Allreduce(MIN)` over the paper's
//!   `binom(|S|, 2)` buffer ([`global_min_edges`]). Under the default
//!   `--mst dist` each rank instead keeps the minimum spanning forest of
//!   its candidates (`spanning_forest`), at most `|S| - 1` edges, and
//!   hands it to the Borůvka rounds ([`crate::boruvka`]). A listed rank
//!   shrinks its candidates to that forest after about every
//!   `SHRINK_ARCS` scanned arcs, so it holds about that many arcs'
//!   candidates plus the forest.
//!
//! No map sits on the local path:
//!
//! - **Cell index.** A cell is named by its seed's index in the sorted
//!   seed list, resolved once per held vertex (`cell_labels`) rather
//!   than once per arc endpoint, and packed with the vertex's distance,
//!   so an arc endpoint costs one array read. Seed-index order is
//!   seed-vertex order, so tie-breaking is unchanged.
//! - **Direct loops.** The scan walks each source's adjacency slice
//!   ([`RankGraph::owned_arcs`], [`RankGraph::delegate_arcs`]); a
//!   source's index is its local id, and so is every target.
//! - **One evaluation per undirected edge, half the arcs read.** An arc
//!   `(u, v)` is evaluated iff [`evaluates`](stgraph::partition::evaluates)
//!   accepts it: an edge between two blocks from its end of lower degree,
//!   any other edge from the end that `u + v`'s parity picks. Exactly one
//!   of an edge's two arcs passes, and self-loops never do. Every arc is
//!   stored on exactly one rank: the owner of `u`, or the rank holding
//!   that share of a delegate `u`'s adjacency. The candidate is the same
//!   from either direction, so per-pair minima are unchanged. The degree
//!   rule moves the scan of hubs' boundary edges off the ranks that hold
//!   the hubs, which store more arcs than their share of the scan; the
//!   parity keeps a block's own layout the same at any rank count.
//!   `partition_graph` stores each source's evaluated arcs
//!   first and records how many there are
//!   ([`RankGraph::num_evaluated`]), so the scan walks that prefix with no
//!   per-arc test, and the other half of the arcs is never read.
//! - **Dense or listed candidates.** A rank whose local arc count is at
//!   least `binom(|S|, 2)` folds candidates into a dense [`pair_offset`]
//!   table. Otherwise it appends them as `(total, si, ti, a, b, weight)`
//!   tuples and sorts (the replicated per-pair list) or filters (the
//!   forest): the filter/sort edge processing of Sanders and Schimek.
//!   Either way the working set is bounded by the rank's arcs, and both
//!   give the same result.

use crate::state::{VertexStates, NO_VERTEX};
use crate::{MstMode, Phase};
use stgraph::csr::{Distance, Vertex, Weight, INF};
use stgraph::dsu::Dsu;
use stgraph::partition::{LocalId, PartitionedGraph, RankGraph};
use struntime::Comm;

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

struntime::wire_struct!(MinEdge {
    total,
    a,
    b,
    weight
});

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

/// One distance-graph candidate `(total, si, ti, a, b, weight)`: the
/// connecting-path total, the seed-index pair and the bridge. Its derived
/// lexicographic order is the strict `(total, si, ti)` order of the MST,
/// refined by the [`MinEdge`] bridge order within one pair.
pub(crate) type Cand = (Distance, u32, u32, Vertex, Vertex, Weight);

/// The candidate of bridge `e` of pair `(si, ti)`; [`keyed`] inverts it.
pub(crate) fn cand((si, ti): PairKey, e: MinEdge) -> Cand {
    (e.total, si, ti, e.a, e.b, e.weight)
}

/// `c` as a keyed distance-graph edge.
pub(crate) fn keyed((total, si, ti, a, b, weight): Cand) -> (PairKey, MinEdge) {
    (
        (si, ti),
        MinEdge {
            total,
            a,
            b,
            weight,
        },
    )
}

/// Cell of a vertex no seed reached.
const NO_CELL: u32 = u32::MAX;

/// This rank's scan input for each held slot: the label's distance and
/// its cell, the index in `seeds` of its source, or [`NO_CELL`]. `seeds`
/// must be sorted, as the solver entry points leave them. `capacity`
/// leaves room for the ghosts' entries.
fn cell_labels(states: &VertexStates, seeds: &[Vertex], capacity: usize) -> Vec<(Distance, u32)> {
    let mut cells = Vec::with_capacity(capacity);
    cells.extend((0..states.num_held()).map(|i| {
        let label = states.label_at(i);
        let cell = match label.src {
            NO_VERTEX => NO_CELL,
            src => seeds
                .binary_search(&src)
                .expect("every label source is a seed") as u32,
        };
        (label.dist, cell)
    }));
    cells
}

/// One rank's candidates (see the module docs).
enum PairMins {
    /// The per-pair minimum so far, one slot per seed pair.
    Dense {
        num_seeds: usize,
        table: Vec<MinEdge>,
    },
    /// Every candidate, unreduced.
    Listed { num_seeds: usize, list: Vec<Cand> },
}

impl PairMins {
    /// The dense `binom(num_seeds, 2)` table when it is no larger than the
    /// rank's arc count, the list otherwise.
    fn new(num_seeds: usize, local_arcs: usize) -> PairMins {
        let pairs = num_seeds * num_seeds.saturating_sub(1) / 2;
        if pairs <= local_arcs {
            PairMins::Dense {
                num_seeds,
                table: vec![MinEdge::UNSET; pairs],
            }
        } else {
            PairMins::Listed {
                num_seeds,
                list: Vec::new(),
            }
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
        let (si, ti, a, b) = if cu < cv {
            (cu, cv, u, v)
        } else {
            (cv, cu, v, u)
        };
        match self {
            PairMins::Dense { num_seeds, table } => {
                let cand = MinEdge {
                    total,
                    a,
                    b,
                    weight: w,
                };
                let slot = &mut table[pair_offset(*num_seeds, si, ti)];
                if cand < *slot {
                    *slot = cand;
                }
            }
            PairMins::Listed { list, .. } => list.push((total, si, ti, a, b, w)),
        }
    }

    /// Under [`MstMode::Replicated`], the key-sorted list of each pair's
    /// smallest candidate; under [`MstMode::Dist`], the rank's minimum
    /// spanning forest of its candidates, in [`Cand`] order.
    fn finish(self, mst_mode: MstMode) -> Vec<(PairKey, MinEdge)> {
        let (num_seeds, mut cands) = match (self, mst_mode) {
            (PairMins::Dense { num_seeds, table }, MstMode::Replicated) => {
                return dense_entries(num_seeds, &table).collect();
            }
            (PairMins::Listed { mut list, .. }, MstMode::Replicated) => {
                list.sort_unstable_by_key(|&(total, si, ti, a, b, w)| (si, ti, total, a, b, w));
                list.dedup_by_key(|c| (c.1, c.2));
                return list.into_iter().map(keyed).collect();
            }
            (PairMins::Dense { num_seeds, table }, MstMode::Dist) => {
                let cands = dense_entries(num_seeds, &table).map(|(k, e)| cand(k, e));
                (num_seeds, cands.collect())
            }
            (PairMins::Listed { num_seeds, list }, MstMode::Dist) => (num_seeds, list),
        };
        let forest = spanning_forest(num_seeds, &mut cands);
        forest.into_iter().map(keyed).collect()
    }

    /// Replaces listed candidates by their spanning forest, which keeps
    /// the list at about one round's candidates plus `|S| - 1` under
    /// [`MstMode::Dist`]. Exact: the forest of a forest plus new
    /// candidates is the forest of all of them (cycle property).
    fn shrink_to_forest(&mut self) {
        if let PairMins::Listed { num_seeds, list } = self {
            let forest = spanning_forest(*num_seeds, list);
            list.clear();
            list.extend(forest);
        }
    }
}

/// Candidate count below which [`filter_kruskal`] sorts instead of
/// splitting.
const FILTER_BASE: usize = 1 << 10;

/// The minimum spanning forest of `cands` over seed indices
/// `0..num_seeds`, under the strict [`Cand`] order, in ascending order.
/// `cands` is reordered in place.
///
/// This is Filter-Kruskal (Osipov, Sanders and Singler, ALENEX 2009):
/// split at the median candidate, build the forest of the light half,
/// drop every heavy candidate whose ends that forest already joins, and
/// recurse on what is left. By the cycle property a dropped candidate
/// closes a cycle of lighter ones, so the result is the forest a full
/// sort followed by Kruskal gives. A pair's later candidates always close
/// a cycle with its first, so each pair contributes at most its minimum
/// bridge.
pub(crate) fn spanning_forest(num_seeds: usize, cands: &mut [Cand]) -> Vec<Cand> {
    let mut dsu = Dsu::new(num_seeds);
    let mut forest = Vec::new();
    filter_kruskal(cands, &mut dsu, &mut forest, num_seeds.saturating_sub(1));
    forest
}

/// Appends to `forest` the edges of `cands` that join two trees of `dsu`,
/// lightest first, until it holds `cap` edges.
fn filter_kruskal(cands: &mut [Cand], dsu: &mut Dsu, forest: &mut Vec<Cand>, cap: usize) {
    if forest.len() == cap {
        return;
    }
    if cands.len() <= FILTER_BASE {
        cands.sort_unstable();
        for &c in cands.iter() {
            if dsu.union(c.1, c.2) {
                forest.push(c);
                if forest.len() == cap {
                    return;
                }
            }
        }
        return;
    }
    // The median as pivot: deterministic, and it halves every level.
    let mid = cands.len() / 2;
    cands.select_nth_unstable(mid);
    let (light, heavy) = cands.split_at_mut(mid + 1);
    filter_kruskal(light, dsu, forest, cap);
    let mut kept = 0;
    for i in 0..heavy.len() {
        let c = heavy[i];
        if dsu.find(c.1) != dsu.find(c.2) {
            heavy[kept] = c;
            kept += 1;
        }
    }
    filter_kruskal(&mut heavy[..kept], dsu, forest, cap);
}

/// The set entries of a dense `binom(num_seeds, 2)` table, in key order.
fn dense_entries(
    num_seeds: usize,
    table: &[MinEdge],
) -> impl Iterator<Item = (PairKey, MinEdge)> + '_ {
    let k = num_seeds as u32;
    let keys = (0..k).flat_map(move |si| (si + 1..k).map(move |ti| (si, ti)));
    keys.zip(table.iter().copied())
        .filter(|&(_, e)| e.total != INF)
}

/// About how many stored arcs a rank scans between two shrinks of its
/// listed candidates to their spanning forest under [`MstMode::Dist`].
/// It bounds the candidates held at once.
const SHRINK_ARCS: usize = 1 << 16;

/// Local phase: returns this rank's candidates. Under
/// [`MstMode::Replicated`] that is each cell pair's best bridge, sorted by
/// pair key; under [`MstMode::Dist`], the minimum spanning forest of the
/// rank's candidates. `seeds` is the sorted seed list that names the
/// cells. Collective: every rank joins one [`Comm::alltoallv`], the halo
/// exchange.
pub fn local_min_edges(
    comm: &Comm,
    pg: &PartitionedGraph,
    states: &VertexStates,
    seeds: &[Vertex],
    mst_mode: MstMode,
) -> Vec<(PairKey, MinEdge)> {
    local_min_edges_shrinking(comm, pg, states, seeds, mst_mode, SHRINK_ARCS)
}

/// [`local_min_edges`], shrinking listed candidates to their forest after
/// about every `shrink_arcs` stored arcs under [`MstMode::Dist`].
fn local_min_edges_shrinking(
    comm: &Comm,
    pg: &PartitionedGraph,
    states: &VertexStates,
    seeds: &[Vertex],
    mst_mode: MstMode,
    shrink_arcs: usize,
) -> Vec<(PairKey, MinEdge)> {
    let rg = &pg.ranks[comm.rank()];
    let cells = halo_cells(comm, rg, states, seeds);
    let mut mins = PairMins::new(seeds.len(), rg.num_local_arcs());
    let sources = rg.num_sources();
    let mut unshrunk = 0;
    for i in 0..sources {
        unshrunk += scan_source(rg, &cells, i, &mut mins);
        if mst_mode == MstMode::Dist && unshrunk >= shrink_arcs && i + 1 < sources {
            mins.shrink_to_forest();
            unshrunk = 0;
        }
    }
    mins.finish(mst_mode)
}

/// The [`cell_labels`] of every local id of `rg`: its held slots, then
/// its ghosts. A ghost's entry is its owner's, so each rank sends each
/// peer the entries of its mirror list for that peer, in one
/// [`Comm::alltoallv`]. The exchange delivers by source rank, and the
/// ghosts are grouped by owner in rank order, so what arrives is the
/// ghosts' entries in ghost order.
fn halo_cells(
    comm: &Comm,
    rg: &RankGraph,
    states: &VertexStates,
    seeds: &[Vertex],
) -> Vec<(Distance, u32)> {
    let mut cells = cell_labels(states, seeds, rg.num_held() + rg.ghosts().len());
    let send: Vec<Vec<(Distance, u32)>> = (0..comm.num_ranks())
        .map(|q| rg.mirrors(q).iter().map(|&m| cells[m as usize]).collect())
        .collect();
    let mut ghosts = Vec::with_capacity(rg.ghosts().len());
    comm.alltoallv(Phase::LocalMinEdge.name(), &send, &mut ghosts);
    debug_assert_eq!(ghosts.len(), rg.ghosts().len(), "one entry per ghost");
    cells.extend(ghosts);
    cells
}

/// Offers every arc of source `i` (see [`RankGraph::num_sources`]) that
/// this rank evaluates ([`evaluates`](stgraph::partition::evaluates); the
/// partition stores them first). Returns the source's stored arc count.
#[inline]
fn scan_source(rg: &RankGraph, cells: &[(Distance, u32)], i: usize, mins: &mut PairMins) -> usize {
    let owned = rg.num_owned();
    let evaluated = rg.num_evaluated(i);
    if i < owned {
        let (targets, weights) = rg.owned_arcs(i);
        let arcs = targets[..evaluated].iter().zip(&weights[..evaluated]);
        scan_arcs(rg, cells, i, arcs.map(|(&v, &w)| (v, w)), mins);
        targets.len()
    } else {
        let slice = rg.delegate_arcs(i - owned);
        scan_arcs(rg, cells, i, slice[..evaluated].iter().copied(), mins);
        slice.len()
    }
}

/// The body of [`scan_source`] for source `i` and its evaluated `arcs`.
#[inline]
fn scan_arcs(
    rg: &RankGraph,
    cells: &[(Distance, u32)],
    i: usize,
    arcs: impl Iterator<Item = (LocalId, Weight)>,
    mins: &mut PairMins,
) {
    let (u_dist, u_cell) = cells[i];
    if u_cell == NO_CELL {
        return;
    }
    let u = rg.global_id(i as LocalId);
    for (v, w) in arcs {
        let (v_dist, v_cell) = cells[v as usize];
        mins.offer((u, u_cell, u_dist), (rg.global_id(v), v_cell, v_dist), w);
    }
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
    let out = dense_entries(num_seeds, &buf).collect();
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
    use struntime::{QueueKind, World};

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
            (
                matches!(mins, PairMins::Dense { .. }),
                mins.finish(MstMode::Replicated),
            )
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

    /// One rank's replicated-mode candidate list, its dist-mode forest,
    /// and whether it reduced dense.
    type RankCandidates = (Vec<(PairKey, MinEdge)>, Vec<(PairKey, MinEdge)>, bool);

    /// Voronoi then the local phase in both modes on `p` ranks, shrinking
    /// every `shrink_arcs` arcs. Returns every rank's candidates and the
    /// label of every vertex.
    fn local_phase(
        g: &CsrGraph,
        seeds: &[Vertex],
        p: usize,
        delegate_threshold: Option<usize>,
        shrink_arcs: usize,
    ) -> (Vec<RankCandidates>, Vec<Label>) {
        let pg = partition_graph(g, p, delegate_threshold);
        assert_eq!(pg.delegates.is_empty(), delegate_threshold.is_none());
        let out = World::run(p, |comm| {
            let rg = &pg.ranks[comm.rank()];
            let chan_voronoi = comm.open_channels::<Vec<VoronoiMsg>>("voronoi");
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
            let [local, forest] = [MstMode::Replicated, MstMode::Dist].map(|mode| {
                local_min_edges_shrinking(comm, &pg, &states, seeds, mode, shrink_arcs)
            });
            let dense = matches!(
                PairMins::new(seeds.len(), rg.num_local_arcs()),
                PairMins::Dense { .. }
            );
            let mut labels: Vec<(Vertex, Label)> = states.owned_labels().collect();
            labels.extend(rg.delegates.iter().map(|&d| (d, states.label(d))));
            ((local, forest, dense), labels)
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
        // 6 seeds: binom(6, 2) = 15 fits every rank's arc count (dense).
        // 90 seeds: binom(90, 2) = 4005 exceeds the small graph's ~1600
        // arcs (listed).
        let few: Vec<Vertex> = (0..6).map(|i| i * 61 + 3).collect();
        let many: Vec<Vertex> = (0..90).map(|i| i * 4 + 1).collect();
        // No shrink on this graph, and a shrink every 97 arcs: a dozen or
        // more on one rank, and the smaller ranks shrink less often.
        for shrink_arcs in [SHRINK_ARCS, 97] {
            for (seeds, dense) in [(&few, true), (&many, false)] {
                for p in [1usize, 2, 4] {
                    for delegates in [None, Some(12)] {
                        let ctx = format!(
                            "|S|={} p={p} delegates={delegates:?} shrink_arcs={shrink_arcs}",
                            seeds.len()
                        );
                        let (per_rank, labels) =
                            local_phase(&small, seeds, p, delegates, shrink_arcs);
                        let mut merged: BTreeMap<PairKey, MinEdge> = BTreeMap::new();
                        let mut forests = Vec::new();
                        for (local, forest, rank_dense) in &per_rank {
                            assert!(forest.len() < seeds.len(), "{ctx}: forest size");
                            forests.extend(forest.iter().map(|&(k, e)| cand(k, e)));
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
                        let expect = brute_force(&small, seeds, &labels);
                        assert_eq!(merged, expect, "{ctx}");
                        // The forests keep the distance graph's MST.
                        let mut all: Vec<Cand> = expect.iter().map(|&(k, e)| cand(k, e)).collect();
                        assert_eq!(
                            spanning_forest(seeds.len(), &mut forests),
                            spanning_forest(seeds.len(), &mut all),
                            "{ctx}: forests"
                        );
                    }
                }
            }
        }
        let one_rank = partition_graph(&small, 1, None);
        assert!(one_rank.ranks[0].num_local_arcs() >= 12 * 97);
        assert!(one_rank.ranks[0].num_local_arcs() < SHRINK_ARCS);
    }
}
