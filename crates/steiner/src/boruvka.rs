//! Distributed Borůvka MST over the distance graph (`--mst dist`, the
//! solver's default).
//!
//! The paper's Alg 3 Step 3 (`--mst replicated`) replicates the full
//! `binom(|S|, 2)` edge buffer on every rank with one `Allreduce(MIN)`
//! and then runs Prim sequentially — the per-rank memory and latency
//! ceiling Fig 3 shows growing with the seed count. This module is the
//! Borůvka-style alternative (after arXiv:1610.04660 and the engineering in
//! arXiv:2302.12199): each rank keeps the spanning forest of its own
//! candidates ([`local_min_edges`] under [`MstMode::Dist`]), and each round
//! all-reduces only **one lightest-outgoing-edge slot per live
//! component** — `O(#components)` elements, shrinking geometrically —
//! then merges components by hooking and pointer-jumping over the
//! replicated parent array. The dense pair buffer never materializes
//! anywhere.
//!
//! ## Forests in, same rounds out
//!
//! A rank's input is the minimum spanning forest of its candidates under
//! the strict `(total, si, ti, a, b, weight)` order, at most `|S| - 1`
//! edges instead of one per cell pair it sees; every round scans it whole.
//! The filter is exact round by round, not only in the final tree. Under
//! a strict order the MST of the union of all candidates is unique. The
//! lightest outgoing candidate `e` of any component is an MST edge (cut
//! property). Had the rank holding `e` dropped it, `e` would close a
//! cycle of lighter candidates of that rank (the forest is the
//! rank's own Kruskal result), so it could not be in the MST (cycle
//! property). Hence every slot minimum over the forests equals the one
//! over the unfiltered lists, and the rounds, the chosen bridges and the
//! [`BoruvkaStats`] do not change. The filter runs per rank: merging
//! forests needs this module's collective rounds all the same.
//!
//! ## Bit-identity with the replicated Prim path
//!
//! Distance-graph edges are keyed by unique seed pairs `(si, ti)`, so
//! `(total, si, ti)` is a *strict* total order on them — under a strict
//! total order the MST is unique, and every MST algorithm that breaks
//! ties by that order (Prim's heap key `(w, si, ti, idx)` does, and the
//! slot minimum here does) returns the same edge set. The slot element
//! is the full candidate tuple `(total, si, ti, a, b, weight)`: its
//! lexicographic minimum composes the replicated path's two reductions
//! in one associative `MIN` — per-pair bridge selection (the
//! [`MinEdge`] ordering `(total, a, b, weight)` restricted to one pair)
//! and per-component lightest-outgoing-edge selection (the `(total, si,
//! ti)` order across pairs). The chosen bridges, and hence the final
//! tree, are bit-identical to `--mst replicated`.
//!
//! Hooking is deterministic too: winners are processed in slot order
//! (slots are indexed by sorted live roots, identical on every rank
//! after the allreduce), and each winner hooks the larger root under
//! the smaller. With a strict total order the component-choice graph
//! has no cycles except mutual pairs picking the *same* edge, so a
//! winner whose endpoints were already united this round is necessarily
//! the duplicate of an edge that won both its endpoint slots — it is
//! skipped, never a lost MST edge.
//!
//! [`local_min_edges`]: crate::distance_graph::local_min_edges
//! [`MinEdge`]: crate::distance_graph::MinEdge
//! [`MstMode::Dist`]: crate::MstMode::Dist

use crate::distance_graph::{cand, Cand, MinEdge, PairKey};
use stgraph::csr::INF;
use struntime::Comm;

/// The "absent" slot entry, the identity of the slot `MIN` — loses to
/// every real candidate (real
/// connecting-path totals are strictly below `INF`, the same convention
/// as [`MinEdge::UNSET`]).
const UNSET_CAND: Cand = (INF, u32::MAX, u32::MAX, u32::MAX, u32::MAX, u64::MAX);

/// Per-round counters of one distributed Borůvka run, surfaced through
/// [`crate::SolveReport::boruvka`] and the RunReport's v7 `boruvka`
/// section. All ranks compute identical values (the rounds are driven
/// by identical allreduce results), so one copy represents the solve.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BoruvkaStats {
    /// Borůvka rounds executed (including a final no-progress round on
    /// a disconnected distance graph).
    pub rounds: u64,
    /// Slot-vector length all-reduced in each round — the number of
    /// live components at the round's start, shrinking geometrically.
    pub edges_reduced: Vec<u64>,
    /// Live components remaining after each round's merges.
    pub components: Vec<u64>,
}

struntime::wire_struct!(BoruvkaStats {
    rounds,
    edges_reduced,
    components
});

impl BoruvkaStats {
    /// Total slots all-reduced across all rounds — the collective
    /// traffic replacing the replicated path's `binom(|S|, 2)` buffer.
    pub fn edges_reduced_total(&self) -> u64 {
        self.edges_reduced.iter().sum()
    }
}

/// Bytes of the first round's slot vector for `num_seeds` seeds — the
/// per-rank high-water mark of the dist pipeline (later rounds shrink
/// geometrically). The bench harnesses report this against
/// [`dense_pair_bytes`] to show the footprint the mode removes.
pub fn slot_bytes(num_seeds: usize) -> usize {
    num_seeds * std::mem::size_of::<Cand>()
}

/// Bytes of the `--mst replicated` pipeline's dense `binom(|S|, 2)` pair
/// buffer for `num_seeds` seeds (one [`MinEdge`] per seed pair,
/// materialized on every rank by
/// [`global_min_edges`](crate::distance_graph::global_min_edges)).
pub fn dense_pair_bytes(num_seeds: usize) -> usize {
    num_seeds * num_seeds.saturating_sub(1) / 2 * std::mem::size_of::<MinEdge>()
}

/// Walks `i` up to its component root. The parent array is fully
/// compressed between rounds (pointer jumping), so chains are short:
/// at most one hop mid-round, zero at round start.
fn find(parent: &[u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        i = parent[i as usize];
    }
    i
}

/// Distributed Borůvka MST of the distance graph `G_1'`. Collective —
/// every rank passes its own `local` candidate list (in the solver, the
/// rank's spanning forest from [`local_min_edges`], *not* globally
/// reduced; any list of candidates gives the same result) and all ranks
/// return the identical chosen edge set, sorted by pair key, plus the
/// per-round counters.
///
/// The chosen set is the unique MST of `G_1'` under the `(total, si,
/// ti)` order — bit-identical to the replicated
/// [`global_min_edges`] + [`mst_of_distance_graph`] pipeline. On a
/// distance graph that does not span all seeds the loop stops at the
/// first round with no outgoing edges and returns the spanning forest,
/// fewer than `num_seeds - 1` edges, as Prim does on the replicated
/// path.
///
/// Peak memory under the `"distance_graph_boruvka"` label is one slot
/// vector — `O(#components)` per round, at most `num_seeds` entries —
/// never the dense `binom(|S|, 2)` buffer.
///
/// [`local_min_edges`]: crate::distance_graph::local_min_edges
/// [`global_min_edges`]: crate::distance_graph::global_min_edges
/// [`mst_of_distance_graph`]: crate::mst::mst_of_distance_graph
pub fn distributed_mst(
    comm: &Comm,
    local: &[(PairKey, MinEdge)],
    num_seeds: usize,
) -> (Vec<(PairKey, MinEdge)>, BoruvkaStats) {
    let mut stats = BoruvkaStats::default();
    // Fewer than two seeds means no cell pairs and no rounds; all ranks
    // take this branch together (num_seeds is replicated), preserving
    // collective lockstep — same contract as `global_min_edges`.
    if num_seeds < 2 {
        return (Vec::new(), stats);
    }
    let k = num_seeds as u32;
    let mut parent: Vec<u32> = (0..k).collect();
    // Root -> slot index for the current round; only live roots' entries
    // are read, so the array is rewritten in place each round.
    let mut slot_of: Vec<u32> = vec![0; num_seeds];
    let mut chosen: Vec<(PairKey, MinEdge)> = Vec::new();

    loop {
        // Live roots in ascending order — the slot index space of this
        // round, identical on every rank.
        let roots: Vec<u32> = (0..k).filter(|&i| parent[i as usize] == i).collect();
        if roots.len() <= 1 {
            break;
        }
        for (s, &r) in roots.iter().enumerate() {
            slot_of[r as usize] = s as u32;
        }

        let span = comm.trace_span("boruvka_round");
        let slot_bytes = roots.len() * std::mem::size_of::<Cand>();
        comm.memory().record("distance_graph_boruvka", slot_bytes);
        let mut slots: Vec<Cand> = vec![UNSET_CAND; roots.len()];
        // Offer every still-outgoing local candidate to both endpoint
        // components' slots; the local fold plus the rank-ordered
        // allreduce below compute the same global MIN regardless of how
        // candidates are spread across ranks.
        for &((si, ti), e) in local {
            let (ra, rb) = (find(&parent, si), find(&parent, ti));
            if ra == rb {
                continue;
            }
            let c = cand((si, ti), e);
            for r in [ra, rb] {
                let slot = &mut slots[slot_of[r as usize] as usize];
                if c < *slot {
                    *slot = c;
                }
            }
        }
        comm.allreduce_min(&mut slots);
        stats.edges_reduced.push(slots.len() as u64);

        // Hook phase, in slot order. A winner whose endpoints are
        // already united is the mutual-pair duplicate (see module
        // docs) — skipped, not lost.
        let mut merged = 0u64;
        for &(total, si, ti, a, b, weight) in &slots {
            if total == INF {
                continue;
            }
            let (ra, rb) = (find(&parent, si), find(&parent, ti));
            if ra == rb {
                continue;
            }
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi as usize] = lo;
            chosen.push((
                (si, ti),
                MinEdge {
                    total,
                    a,
                    b,
                    weight,
                },
            ));
            merged += 1;
        }
        // Pointer jumping to a rooted star, so the next round's `find`
        // is O(1) and the live-root scan sees fully merged components.
        loop {
            let mut changed = false;
            for i in 0..k as usize {
                let p = parent[i];
                let gp = parent[p as usize];
                if p != gp {
                    parent[i] = gp;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        comm.memory().release("distance_graph_boruvka", slot_bytes);
        drop(span);
        stats.rounds += 1;
        let remaining = (0..k).filter(|&i| parent[i as usize] == i).count() as u64;
        stats.components.push(remaining);
        comm.trace_counter("boruvka_components", remaining);
        if merged == 0 {
            // No component has an outgoing edge left: the distance
            // graph is exhausted (disconnected if remaining > 1).
            break;
        }
    }
    chosen.sort_unstable_by_key(|&(key, _)| key);
    (chosen, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance_graph::pair_offset;
    use std::collections::BTreeMap;
    use struntime::World;

    fn edge(total: u64, a: u32, b: u32, weight: u64) -> MinEdge {
        MinEdge {
            total,
            a,
            b,
            weight,
        }
    }

    /// The replicated reference pipeline over the union of all ranks'
    /// candidate lists: per-pair MIN reduce, then Prim.
    fn replicated_reference(
        lists: &[Vec<(PairKey, MinEdge)>],
        num_seeds: usize,
    ) -> Vec<(PairKey, MinEdge)> {
        let mut merged: BTreeMap<PairKey, MinEdge> = BTreeMap::new();
        for l in lists {
            for &(key, e) in l {
                let slot = merged.entry(key).or_insert(MinEdge::UNSET);
                if e < *slot {
                    *slot = e;
                }
            }
        }
        let dg: Vec<(PairKey, MinEdge)> = merged.into_iter().collect();
        let chosen = crate::mst::mst_of_distance_graph(num_seeds, &dg);
        let mut out: Vec<(PairKey, MinEdge)> = chosen.iter().map(|&i| dg[i]).collect();
        out.sort_unstable_by_key(|&(key, _)| key);
        out
    }

    #[test]
    fn distributed_mst_handles_degenerate_seed_counts() {
        // Mirror of `global_min_edges_handles_degenerate_seed_counts`,
        // extended to k = 2: k < 2 runs zero rounds and returns no
        // edges; k = 2 with one bridge converges in one round.
        for num_seeds in [0usize, 1] {
            let out = World::run(2, move |comm| distributed_mst(comm, &[], num_seeds));
            for (chosen, stats) in &out.results {
                assert!(chosen.is_empty(), "k={num_seeds}");
                assert_eq!(stats.rounds, 0, "k={num_seeds}");
            }
        }
        let out = World::run(2, |comm| {
            let mut local = Vec::new();
            if comm.rank() == 1 {
                local.push(((0u32, 1u32), edge(7, 3, 9, 2)));
            }
            distributed_mst(comm, &local, 2)
        });
        for (chosen, stats) in &out.results {
            assert_eq!(chosen.as_slice(), &[((0, 1), edge(7, 3, 9, 2))]);
            assert_eq!(stats.rounds, 1);
            assert_eq!(stats.edges_reduced, vec![2]);
            assert_eq!(stats.components, vec![1]);
        }
    }

    #[test]
    fn matches_replicated_prim_on_split_candidate_lists() {
        // Candidates scattered across ranks, with deliberate per-pair
        // ties (equal totals, different bridges) so the composed
        // reduction's tie-breaking is exercised end to end.
        let k = 6usize;
        let mut maps = vec![BTreeMap::new(), BTreeMap::new(), BTreeMap::new()];
        let spread = [
            ((0u32, 1u32), edge(4, 10, 11, 1)),
            ((0, 1), edge(4, 2, 11, 1)), // tie on total, better bridge
            ((1, 2), edge(3, 12, 13, 3)),
            ((2, 3), edge(5, 14, 15, 2)),
            ((0, 3), edge(5, 16, 17, 5)),
            ((3, 4), edge(2, 18, 19, 2)),
            ((1, 4), edge(9, 20, 21, 4)),
            ((4, 5), edge(6, 22, 23, 6)),
            ((2, 5), edge(6, 24, 25, 1)),
            ((0, 5), edge(7, 26, 27, 7)),
        ];
        for (i, (key, e)) in spread.iter().enumerate() {
            let m = &mut maps[i % 3];
            let slot = m.entry(*key).or_insert(MinEdge::UNSET);
            if *e < *slot {
                *slot = *e;
            }
        }
        let lists: Vec<Vec<(PairKey, MinEdge)>> =
            maps.into_iter().map(|m| m.into_iter().collect()).collect();
        let expect = replicated_reference(&lists, k);
        assert_eq!(expect.len(), k - 1, "reference spans all seeds");
        let lists_ref = &lists;
        let out = World::run(3, move |comm| {
            distributed_mst(comm, &lists_ref[comm.rank()], k)
        });
        for (chosen, stats) in &out.results {
            assert_eq!(chosen, &expect);
            assert!(stats.rounds >= 1);
            // Geometric shrink: each round at least halves components.
            assert_eq!(stats.edges_reduced[0], k as u64);
            for w in stats.components.windows(2) {
                assert!(w[1] <= w[0]);
            }
        }
    }

    #[test]
    fn disconnected_distance_graph_stops_short() {
        // Components {0,1} and {2,3} with no pair edge between them:
        // the loop must terminate (no outgoing edges) with fewer than
        // k-1 chosen edges, mirroring the replicated spans check.
        let out = World::run(2, |comm| {
            let mut local = Vec::new();
            if comm.rank() == 0 {
                local.push(((0u32, 1u32), edge(3, 5, 6, 1)));
                local.push(((2u32, 3u32), edge(4, 7, 8, 2)));
            }
            distributed_mst(comm, &local, 4)
        });
        for (chosen, stats) in &out.results {
            assert_eq!(chosen.len(), 2);
            assert!(chosen.len() + 1 < 4, "must not claim to span");
            assert_eq!(*stats.components.last().unwrap(), 2);
        }
    }

    #[test]
    fn peak_memory_is_one_slot_vector_never_the_dense_buffer() {
        // The acceptance criterion: the per-round reduction footprint
        // under `distance_graph_boruvka` peaks at one slot per live
        // component (k slots in round one), strictly below the dense
        // `binom(k, 2)` MinEdge buffer, and the dense label of the
        // replicated path is never touched.
        let k = 24usize;
        let out = World::run(2, move |comm| {
            let mut local = Vec::new();
            // A path 0-1-2-...-(k-1) plus heavier chords.
            for i in 0..k as u32 - 1 {
                local.push(((i, i + 1), edge(2 + u64::from(i % 3), 100 + i, 200 + i, 1)));
            }
            for i in 0..k as u32 - 2 {
                local.push(((i, i + 2), edge(50 + u64::from(i), 300 + i, 400 + i, 9)));
            }
            let (chosen, stats) = distributed_mst(comm, &local, k);
            (chosen.len(), stats, comm.memory().peaks())
        });
        let dense_bytes = k * (k - 1) / 2 * std::mem::size_of::<MinEdge>();
        // Sanity: the dense offset space really is binom(k, 2)-sized.
        assert_eq!(
            pair_offset(k, (k - 2) as u32, (k - 1) as u32) + 1,
            k * (k - 1) / 2
        );
        for (chosen_len, stats, peaks) in &out.results {
            assert_eq!(*chosen_len, k - 1);
            let peak = peaks["distance_graph_boruvka"];
            assert_eq!(
                peak,
                k * std::mem::size_of::<Cand>(),
                "peak must be one k-slot vector"
            );
            assert!(
                peak < dense_bytes,
                "O(#components) slot vector ({peak} B) must undercut the dense \
                 buffer ({dense_bytes} B)"
            );
            assert!(!peaks.contains_key("distance_graph_dense"));
            // Round counters line up with the geometric shrink.
            assert_eq!(stats.rounds as usize, stats.edges_reduced.len());
            assert_eq!(stats.rounds as usize, stats.components.len());
            assert!(stats.edges_reduced_total() < dense_bytes as u64);
        }
    }
}
