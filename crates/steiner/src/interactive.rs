//! Interactive Steiner sessions: incremental seed addition and removal.
//!
//! The paper's introduction motivates an *interactive* exploration loop —
//! "a user will interact with such computation in various ways ... This
//! includes the user adding or removing classes of edges and/or vertices"
//! — and argues for computations "as fast as possible" so more resources
//! buy interactivity. This module supplies the algorithmic half of that
//! loop: a session object that maintains the Voronoi labelling across
//! *seed-set edits*, so adding or removing one seed touches only the
//! affected cells instead of recomputing every cell from scratch.
//!
//! - **Add seed `s`**: flood from `s` with label `(0, s)`; only vertices
//!   strictly closer to `s` than to their current seed change hands.
//! - **Remove seed `s`**: reset `N(s)`, then re-flood it from its boundary
//!   (the labels of neighboring cells), which is a Dijkstra over just the
//!   orphaned region.
//!
//! After any sequence of edits the labelling is exactly what a fresh
//! multi-source Dijkstra would produce (property-tested), so trees built
//! from the session inherit the usual `2(1 - 1/l)` guarantee.

use crate::refine;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use stgraph::csr::{CsrGraph, Distance, Vertex, Weight, INF};
use stgraph::error::SteinerError;
use stgraph::mst::{kruskal, AuxEdge};
use stgraph::steiner_tree::SteinerTree;

/// Statistics of one incremental edit, for interactivity accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditStats {
    /// Vertices whose label changed.
    pub relabeled: usize,
    /// Heap operations performed (work proxy).
    pub heap_ops: usize,
}

/// A long-lived exploration session over one graph.
///
/// ```
/// use steiner::interactive::InteractiveSession;
/// use stgraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(5);
/// for i in 0..4 {
///     b.add_edge(i, i + 1, 1);
/// }
/// let g = b.build();
///
/// let mut session = InteractiveSession::new(&g, &[0, 4]).unwrap();
/// assert_eq!(session.tree().unwrap().total_distance(), 4);
///
/// // Adding a middle seed splits the cells but the tree stays minimal.
/// session.add_seed(2).unwrap();
/// assert_eq!(session.tree().unwrap().total_distance(), 4);
///
/// session.remove_seed(4).unwrap();
/// assert_eq!(session.tree().unwrap().total_distance(), 2);
/// ```
pub struct InteractiveSession<'g> {
    g: &'g CsrGraph,
    seeds: BTreeSet<Vertex>,
    src: Vec<Vertex>,
    dist: Vec<Distance>,
    pred: Vec<Vertex>,
}

const NONE: Vertex = Vertex::MAX;

/// Winning bridge record: `(total path length, endpoint in the smaller
/// seed's cell, endpoint in the larger seed's cell, bridge weight)`.
type Bridge = (Distance, Vertex, Vertex, Weight);

impl<'g> InteractiveSession<'g> {
    /// Opens a session with an initial seed set (may be empty). Rejects a
    /// graph whose path sums could wrap with
    /// [`SteinerError::WeightOverflow`], under the batch solver's bound.
    pub fn new(g: &'g CsrGraph, initial_seeds: &[Vertex]) -> Result<Self, SteinerError> {
        let n = g.num_vertices();
        crate::check_weights(n, g.weight_range().map_or(0, |(_, hi)| hi))?;
        let mut session = InteractiveSession {
            g,
            seeds: BTreeSet::new(),
            src: vec![NONE; n],
            dist: vec![INF; n],
            pred: vec![NONE; n],
        };
        for &s in initial_seeds {
            session.add_seed(s)?;
        }
        Ok(session)
    }

    /// Current seed set, ascending.
    pub fn seeds(&self) -> Vec<Vertex> {
        self.seeds.iter().copied().collect()
    }

    /// The seed owning `v`'s Voronoi cell, if any seed reaches it.
    pub fn cell_of(&self, v: Vertex) -> Option<Vertex> {
        (self.src[v as usize] != NONE).then(|| self.src[v as usize])
    }

    /// Distance from `v` to its cell's seed (`INF` if unreached).
    pub fn dist_to_seed(&self, v: Vertex) -> Distance {
        self.dist[v as usize]
    }

    /// Adds seed `s`, stealing exactly the vertices now strictly closer to
    /// `s` (ties keep their incumbent unless the new seed id is smaller,
    /// matching the solver's deterministic ordering).
    pub fn add_seed(&mut self, s: Vertex) -> Result<EditStats, SteinerError> {
        if s as usize >= self.g.num_vertices() {
            return Err(SteinerError::SeedOutOfRange(s));
        }
        let mut stats = EditStats::default();
        if !self.seeds.insert(s) {
            return Ok(stats); // already a seed
        }
        let mut heap: BinaryHeap<Reverse<(Distance, Vertex)>> = BinaryHeap::new();
        if self.improves(s, 0, s) {
            self.set(s, 0, s, NONE);
            stats.relabeled += 1;
            heap.push(Reverse((0, s)));
        }
        self.flood(&mut heap, &mut stats);
        Ok(stats)
    }

    /// Removes seed `s`; its orphaned cell is re-covered by the remaining
    /// seeds (vertices unreachable from any remaining seed become
    /// unlabeled). Removing the last seed clears the labelling.
    pub fn remove_seed(&mut self, s: Vertex) -> Result<EditStats, SteinerError> {
        let mut stats = EditStats::default();
        if !self.seeds.remove(&s) {
            return Ok(stats); // not a seed
        }
        // Collect and reset the orphaned cell.
        let orphaned: Vec<Vertex> = self
            .g
            .vertices()
            .filter(|&v| self.src[v as usize] == s)
            .collect();
        for &v in &orphaned {
            self.src[v as usize] = NONE;
            self.dist[v as usize] = INF;
            self.pred[v as usize] = NONE;
        }
        stats.relabeled += orphaned.len();
        // Re-flood from the orphan region's boundary: any labeled neighbor
        // of an orphaned vertex is a Dijkstra source with its own label.
        let mut heap: BinaryHeap<Reverse<(Distance, Vertex)>> = BinaryHeap::new();
        for &v in &orphaned {
            for (u, w) in self.g.edges(v) {
                let su = self.src[u as usize];
                if su != NONE {
                    let nd = self.dist[u as usize] + w;
                    if self.improves(su, nd, v) {
                        self.set(v, nd, su, u);
                        heap.push(Reverse((nd, v)));
                        stats.heap_ops += 1;
                    }
                }
            }
        }
        self.flood(&mut heap, &mut stats);
        Ok(stats)
    }

    fn improves(&self, seed: Vertex, nd: Distance, v: Vertex) -> bool {
        let i = v as usize;
        nd < self.dist[i] || (nd == self.dist[i] && seed < self.src[i])
    }

    fn set(&mut self, v: Vertex, d: Distance, seed: Vertex, pred: Vertex) {
        let i = v as usize;
        self.dist[i] = d;
        self.src[i] = seed;
        self.pred[i] = pred;
    }

    /// Dijkstra continuation over whatever is in the heap.
    fn flood(&mut self, heap: &mut BinaryHeap<Reverse<(Distance, Vertex)>>, stats: &mut EditStats) {
        while let Some(Reverse((d, u))) = heap.pop() {
            stats.heap_ops += 1;
            if d > self.dist[u as usize] {
                continue; // stale
            }
            let seed = self.src[u as usize];
            for (v, w) in self.g.edges(u) {
                let nd = d + w;
                if self.improves(seed, nd, v) {
                    if self.src[v as usize] != seed {
                        stats.relabeled += 1;
                    }
                    self.set(v, nd, seed, u);
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }

    /// Builds the current 2-approximate Steiner tree from the maintained
    /// labelling (Mehlhorn pipeline: cheapest bridge per cell pair, MST,
    /// path expansion, finalize).
    pub fn tree(&self) -> Result<SteinerTree, SteinerError> {
        let seeds = self.seeds();
        if seeds.is_empty() {
            return Err(SteinerError::NoSeeds);
        }
        if seeds.len() == 1 {
            // Match the batch solver: a single terminal has no tree to
            // build; callers get a structured error on every path.
            return Err(SteinerError::TooFewSeeds { got: 1 });
        }
        // Cheapest bridge per cell pair.
        let index: HashMap<Vertex, u32> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        // BTreeMap, not HashMap: `pairs` below feeds kruskal(), whose
        // tie-breaking between equal-cost bridges follows input order —
        // hash-seed iteration order would leak into the tree shape.
        let mut best: BTreeMap<(u32, u32), Bridge> = BTreeMap::new();
        for (u, v, w) in self.g.undirected_edges() {
            let (su, sv) = (self.src[u as usize], self.src[v as usize]);
            if su == NONE || sv == NONE || su == sv {
                continue;
            }
            let total = self.dist[u as usize] + w + self.dist[v as usize];
            let (key, a, b) = if index[&su] < index[&sv] {
                ((index[&su], index[&sv]), u, v)
            } else {
                ((index[&sv], index[&su]), v, u)
            };
            let cand = (total, a, b, w);
            let entry = best.entry(key).or_insert(cand);
            if cand < *entry {
                *entry = cand;
            }
        }
        let pairs: Vec<(&(u32, u32), &Bridge)> = best.iter().collect();
        let aux: Vec<AuxEdge> = pairs
            .iter()
            .map(|(&(si, ti), &(total, ..))| (si, ti, total))
            .collect();
        let chosen = kruskal(seeds.len(), &aux);
        if chosen.len() + 1 < seeds.len() {
            return Err(SteinerError::SeedsDisconnected(
                seeds[0],
                *seeds.last().expect("non-empty"),
            ));
        }
        let mut edges: Vec<(Vertex, Vertex, Weight)> = Vec::new();
        for &i in &chosen {
            let &(_, a, b, w) = pairs[i].1;
            edges.push((a, b, w));
            for endpoint in [a, b] {
                let mut cur = endpoint;
                while self.pred[cur as usize] != NONE {
                    let p = self.pred[cur as usize];
                    let w = self.g.edge_weight(p, cur).expect("predecessor edge exists");
                    edges.push((p, cur, w));
                    cur = p;
                }
            }
        }
        let tree = SteinerTree::new(seeds, edges);
        // The expansion union may share path segments across bridges;
        // refine re-MSTs and prunes exactly like the batch pipeline.
        Ok(refine::refine(&tree))
    }

    /// Verifies the maintained labelling against a fresh multi-source
    /// Dijkstra; used by tests and debug assertions.
    pub fn validate_against_fresh(&self) -> Result<(), String> {
        let seeds = self.seeds();
        let n = self.g.num_vertices();
        let mut dist = vec![INF; n];
        let mut src = vec![NONE; n];
        let mut heap: BinaryHeap<Reverse<(Distance, Vertex, Vertex)>> = BinaryHeap::new();
        for &s in &seeds {
            dist[s as usize] = 0;
            src[s as usize] = s;
            heap.push(Reverse((0, s, s)));
        }
        while let Some(Reverse((d, seed, u))) = heap.pop() {
            if d != dist[u as usize] || src[u as usize] != seed {
                continue;
            }
            for (v, w) in self.g.edges(u) {
                let nd = d + w;
                let better =
                    nd < dist[v as usize] || (nd == dist[v as usize] && seed < src[v as usize]);
                if better {
                    dist[v as usize] = nd;
                    src[v as usize] = seed;
                    heap.push(Reverse((nd, seed, v)));
                }
            }
        }
        for v in 0..n {
            if self.dist[v] != dist[v] {
                return Err(format!(
                    "dist mismatch at {v}: session {} vs fresh {}",
                    self.dist[v], dist[v]
                ));
            }
            if self.src[v] != src[v] {
                return Err(format!(
                    "src mismatch at {v}: session {} vs fresh {}",
                    self.src[v], src[v]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph::builder::GraphBuilder;
    use stgraph::datasets::Dataset;

    fn line(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as Vertex, (i + 1) as Vertex, 1);
        }
        b.build()
    }

    /// Two seeds joined by a light path 0–3–2 (weight 12) and a heavy
    /// one 0–1–2 whose two edges weigh `heavy`.
    fn heavy_square(heavy: Weight) -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1, heavy), (1, 2, heavy), (2, 3, 5), (0, 3, 7)]);
        b.build()
    }

    /// With edges of 2^63, an unchecked `d + w` wraps: seed 0 reaches
    /// seed 2 through the heavy path at distance 0, seed 2 cannot claim
    /// its own cell, and the connected seeds read as disconnected. The
    /// session rejects such a graph when it opens, under the solver's
    /// bound `(2n - 1) * max_weight < INF` (n = 4); a graph just inside
    /// it still gives the light tree.
    #[test]
    fn weights_that_could_wrap_a_distance_are_rejected() {
        let inside = INF / 7;
        for (heavy, ok) in [(1 << 63, false), (inside + 1, false), (inside, true)] {
            let g = heavy_square(heavy);
            let expect = SteinerError::WeightOverflow {
                max_weight: heavy,
                num_vertices: 4,
            };
            match InteractiveSession::new(&g, &[0, 2]) {
                Ok(s) if ok => assert_eq!(s.tree().unwrap().total_distance(), 12),
                Err(e) if !ok => assert_eq!(e, expect),
                Ok(s) => panic!(
                    "weight {heavy} accepted: seed 2 is in cell {:?} at distance {}, tree {:?}",
                    s.cell_of(2),
                    s.dist_to_seed(2),
                    s.tree().map(|t| t.total_distance())
                ),
                Err(e) => panic!("weight {heavy}: {e}"),
            }
        }
    }

    #[test]
    fn add_seed_splits_cells() {
        let g = line(5);
        let mut s = InteractiveSession::new(&g, &[0]).unwrap();
        assert_eq!(s.cell_of(4), Some(0));
        let stats = s.add_seed(4).unwrap();
        assert!(stats.relabeled >= 2);
        assert_eq!(s.cell_of(3), Some(4));
        assert_eq!(s.cell_of(1), Some(0));
        s.validate_against_fresh().unwrap();
    }

    #[test]
    fn remove_seed_reassigns_cell() {
        let g = line(5);
        let mut s = InteractiveSession::new(&g, &[0, 4]).unwrap();
        s.remove_seed(4).unwrap();
        for v in 0..5 {
            assert_eq!(s.cell_of(v), Some(0));
        }
        s.validate_against_fresh().unwrap();
    }

    #[test]
    fn remove_last_seed_clears() {
        let g = line(3);
        let mut s = InteractiveSession::new(&g, &[1]).unwrap();
        s.remove_seed(1).unwrap();
        assert_eq!(s.cell_of(0), None);
        assert_eq!(s.dist_to_seed(0), INF);
    }

    #[test]
    fn duplicate_add_and_phantom_remove_are_noops() {
        let g = line(4);
        let mut s = InteractiveSession::new(&g, &[0]).unwrap();
        assert_eq!(s.add_seed(0).unwrap(), EditStats::default());
        assert_eq!(s.remove_seed(3).unwrap(), EditStats::default());
    }

    #[test]
    fn tree_matches_batch_solver_distance() {
        let g = Dataset::Cts.generate_tiny(3);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 7).copied().collect();
        let mut session = InteractiveSession::new(&g, &seeds).unwrap();
        let interactive = session.tree().unwrap();
        assert!(interactive.validate(&g).is_ok());
        let cfg = crate::SolverConfig {
            num_ranks: 2,
            refine: true,
            ..crate::SolverConfig::default()
        };
        let batch = crate::solve(&g, &seeds, &cfg).unwrap();
        let (a, b) = (
            interactive.total_distance() as f64,
            batch.tree.total_distance() as f64,
        );
        assert!(
            (a - b).abs() / a.max(b) < 0.1,
            "interactive {a} vs batch {b}"
        );
        // Edits keep the labelling exact.
        session.remove_seed(seeds[0]).unwrap();
        session.validate_against_fresh().unwrap();
        session.add_seed(seeds[0]).unwrap();
        session.validate_against_fresh().unwrap();
    }

    #[test]
    fn edit_sequence_stays_exact() {
        let g = Dataset::Mco.generate_tiny(5);
        let mut session = InteractiveSession::new(&g, &[1, 50, 200]).unwrap();
        let script: &[(bool, Vertex)] = &[
            (true, 300),
            (true, 77),
            (false, 50),
            (true, 450),
            (false, 1),
            (false, 300),
            (true, 13),
        ];
        for &(add, v) in script {
            if add {
                session.add_seed(v).unwrap();
            } else {
                session.remove_seed(v).unwrap();
            }
            session.validate_against_fresh().unwrap();
        }
        let t = session.tree().unwrap();
        assert!(t.validate(&g).is_ok());
    }

    #[test]
    fn incremental_add_touches_less_than_full_rebuild() {
        let g = Dataset::Lvj.generate_tiny(9);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 20).copied().collect();
        let mut session = InteractiveSession::new(&g, &seeds).unwrap();
        let new_seed = *verts.iter().find(|v| !seeds.contains(v)).unwrap();
        let stats = session.add_seed(new_seed).unwrap();
        // The point of incrementality: one more seed relabels a small
        // fraction of the graph, not all of it.
        assert!(
            stats.relabeled * 2 < g.num_vertices(),
            "add relabeled {} of {} vertices",
            stats.relabeled,
            g.num_vertices()
        );
        session.validate_against_fresh().unwrap();
    }

    #[test]
    fn tree_requires_seeds() {
        let g = line(3);
        let session = InteractiveSession::new(&g, &[]).unwrap();
        assert!(matches!(session.tree(), Err(SteinerError::NoSeeds)));
        // A single seed is also too few — same contract as the batch
        // solver's entry points.
        let single = InteractiveSession::new(&g, &[1]).unwrap();
        assert!(matches!(
            single.tree(),
            Err(SteinerError::TooFewSeeds { got: 1 })
        ));
        // Two seeds is the smallest instance with a tree.
        let pair = InteractiveSession::new(&g, &[0, 2]).unwrap();
        assert_eq!(pair.tree().unwrap().num_edges(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use stgraph::builder::GraphBuilder;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary edit scripts keep the incremental labelling exactly
        /// equal to a fresh multi-source Dijkstra.
        #[test]
        fn random_edit_scripts_stay_exact(
            n in 4usize..24,
            extra in proptest::collection::vec((0u32..24, 0u32..24, 1u64..40), 0..30),
            script in proptest::collection::vec((proptest::bool::ANY, 0u32..24), 1..12),
        ) {
            // Random connected-ish graph: a path backbone plus extras.
            let mut b = GraphBuilder::new(n);
            for i in 0..n - 1 {
                b.add_edge(i as Vertex, (i + 1) as Vertex, (i as u64 % 7) + 1);
            }
            for (u, v, w) in extra {
                if (u as usize) < n && (v as usize) < n && u != v {
                    b.add_edge(u, v, w);
                }
            }
            let g = b.build();
            let mut session = InteractiveSession::new(&g, &[]).unwrap();
            for (add, v) in script {
                let v = v % n as Vertex;
                if add {
                    session.add_seed(v).unwrap();
                } else {
                    session.remove_seed(v).unwrap();
                }
                prop_assert!(session.validate_against_fresh().is_ok(),
                    "{:?}", session.validate_against_fresh());
            }
            // Whenever a nontrivial seed set exists, the tree must
            // validate (0 or 1 seeds is a structured error by contract).
            if session.seeds().len() >= 2 {
                let tree = session.tree().unwrap();
                prop_assert!(tree.validate(&g).is_ok(), "{:?}", tree.validate(&g));
            } else {
                prop_assert!(session.tree().is_err());
            }
        }
    }
}
