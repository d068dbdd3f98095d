//! Graph partitioning for the simulated distributed runtime.
//!
//! The paper's implementation partitions the data graph so that "partitions
//! have approximately equal share of vertices; each partition is assigned to
//! an MPI process" (§IV), and relies on HavoqGT's *vertex delegates* to
//! spread the edges of high-degree hub vertices across partitions — crucial
//! for load balance on scale-free graphs.
//!
//! [`BlockPartition`] is the owner map: contiguous vertex blocks, stored as
//! a table of `p + 1` cut offsets. [`partition_graph`] materializes
//! per-rank subgraphs ([`RankGraph`]): each rank stores the full adjacency
//! of its owned non-delegate vertices plus a round-robin slice of every
//! delegate's adjacency.
//!
//! **Cost-balanced cuts.** Equal shares of vertex ids are not equal work:
//! the generators put their hubs at low ids, so at two ranks the first
//! block of the R-MAT web graph stored 716K of its 955K arcs, and the
//! other rank idled through most of every Voronoi phase. Equal shares of
//! arcs over-correct: a cut by cumulative degree made the sparse rank's
//! visits the bottleneck. Work has both parts — a Voronoi visit pops a
//! vertex, and relaxes its arcs — so [`partition_graph`] prices each
//! vertex at its degree plus the mean degree `d = arcs / live vertices`
//! (a delegate at `d` only, since its arcs are dealt to every rank; an
//! isolated vertex at 0) and cuts where the cost prefix reaches each
//! `r / p` of the total. A block's share of the cost is then the mean of
//! its share of the arcs and its share of the live vertices, so a visit
//! with its pops is priced at `d` relaxations. The mean degree is the one
//! weight that needs no constant: it is read off the graph. Blocks stay
//! contiguous, so locality and the local-id layout keep their shape, and
//! the cut is two passes over the degrees. One rank's cut is the single
//! block `0..n`, and [`BlockPartition::new`] is the same cut over unit
//! costs. An edgeless graph, whose total cost is 0, gets the unit-cost
//! cut. A block may be empty (more ranks than live vertices): its rank
//! owns nothing and takes part in every collective.
//!
//! **Evaluated arcs first.** The edge-centric min-distance-edge phase
//! (Alg 5) evaluates each undirected edge once, from the end [`evaluates`]
//! picks. Every stored adjacency, owned rows and delegate slices alike,
//! holds the arcs `evaluates` accepts first, then the others, each class
//! in the input graph's order. The scan then reads a prefix of each source
//! and stops at the end of the evaluated prefix, whose length
//! [`RankGraph::num_evaluated`] records, so it reads half the arcs with no
//! per-arc test. Traversals relax every arc of a vertex and do not depend
//! on the order.
//!
//! **Local ids.** Each rank renumbers the vertices its arcs name, as
//! HavoqGT's `vertex_locator` addresses a vertex by owner and local id:
//! owned vertices first, then delegate replicas, then *ghosts*, the
//! distinct remote targets of the rank's arcs, grouped by owner. Stored
//! arc targets are these local ids, so a solver phase reads a target's
//! state, or its ghost slot, with one array index. A side table keeps each
//! ghost's global id and owner, and every rank keeps, per peer, the
//! *mirror list* of its own vertices the peer holds as ghosts, in the
//! peer's ghost order: what one halo exchange sends that peer. The
//! renumbering happens while the rows are laid out, through one dense
//! global-to-local map that every rank reuses.

use crate::csr::{CsrGraph, Vertex, Weight};
use std::ops::Range;
use std::sync::Arc;

/// Contiguous vertex blocks over `p` ranks: a table of `p + 1` cut
/// offsets, rank `r` owning ids `cuts[r]..cuts[r + 1]`. A block may be
/// empty. [`partition_graph`] places the cuts by cost (see the module
/// docs); [`BlockPartition::new`] is the same cut over unit costs, so
/// block sizes differ by at most 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPartition {
    cuts: Vec<Vertex>,
}

impl BlockPartition {
    /// A partition of `n` vertices across `p >= 1` ranks, every vertex
    /// costing 1: cut `r` is `ceil(r * n / p)`.
    pub fn new(n: usize, p: usize) -> Self {
        Self::cut(n, p, n as u128, |_| 1)
    }

    /// Cuts ids `0..n` into `p` blocks: cut `r` is the first id `k`
    /// where the prefix sum of `cost` over `0..k` reaches `r / p` of
    /// `total`, which must be the sum of `cost` over `0..n`. Each block's
    /// cost is then below `total / p` plus the largest single cost. One
    /// pass, calling `cost(v)` in id order up to the last cut.
    pub(crate) fn cut(
        n: usize,
        p: usize,
        total: u128,
        mut cost: impl FnMut(Vertex) -> u128,
    ) -> Self {
        assert!(p >= 1, "need at least one rank");
        let ranks = p as u128;
        let mut cuts = Vec::with_capacity(p + 1);
        cuts.push(0);
        let mut prefix = 0;
        for v in 0..=n as Vertex {
            // Cut r goes at the first prefix with prefix / total >= r / p.
            while cuts.len() < p && prefix * ranks >= cuts.len() as u128 * total {
                cuts.push(v);
            }
            if cuts.len() == p || v as usize == n {
                break;
            }
            prefix += cost(v);
        }
        debug_assert_eq!(cuts.len(), p, "costs sum to less than the total");
        cuts.push(n as Vertex);
        BlockPartition { cuts }
    }

    /// Total vertex count.
    pub fn num_vertices(&self) -> usize {
        self.cuts[self.cuts.len() - 1] as usize
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.cuts.len() - 1
    }

    /// The `p + 1` cut offsets: rank `r` owns `cuts[r]..cuts[r + 1]`, so
    /// `cuts[r]` is also the first vertex of rank `r`'s block.
    pub fn cuts(&self) -> &[Vertex] {
        &self.cuts
    }

    /// The rank owning vertex `v`: a binary search over the `p` block
    /// ends, which skips empty blocks.
    #[inline]
    pub fn owner(&self, v: Vertex) -> usize {
        debug_assert!((v as usize) < self.num_vertices());
        self.cuts[1..].partition_point(|&end| end <= v)
    }

    /// The half-open vertex range owned by `rank`.
    pub fn range(&self, rank: usize) -> Range<Vertex> {
        self.cuts[rank]..self.cuts[rank + 1]
    }
}

/// Whether the min-edge scan evaluates arc `(u, v)` of `g` cut by
/// `partition`: for `u != v`, exactly one of `(u, v)` and `(v, u)` does,
/// and for `u == v` neither. An edge between two blocks is evaluated from
/// its end of lower degree. A rank stores every arc of its vertices, so
/// the ranks holding hubs store more arcs than their share of the scan;
/// evaluating the hubs' boundary edges from their sparse ends moves that
/// scan to the other ranks (on the web benchmark graph at two ranks,
/// 331K / 146K evaluated arcs become 258K / 220K). Any other edge, and a
/// boundary edge between equal degrees, is evaluated from the end that
/// `u + v`'s parity picks, so a block's own edges are scanned in the
/// same layout at any rank count.
#[inline]
pub fn evaluates(g: &CsrGraph, partition: &BlockPartition, u: Vertex, v: Vertex) -> bool {
    evaluates_from(g, &partition.range(partition.owner(u)), u, v)
}

/// [`evaluates`] for a source `u` of block `block`: only an arc leaving
/// the block reads the degrees.
#[inline]
fn evaluates_from(g: &CsrGraph, block: &Range<Vertex>, u: Vertex, v: Vertex) -> bool {
    if !block.contains(&v) {
        let (du, dv) = (g.degree(u), g.degree(v));
        if du != dv {
            return du < dv;
        }
    }
    (u < v) == ((u ^ v) & 1 == 0)
}

/// Lays out the `len` arcs of source `u` in one pass: `put(k, v, w)`
/// stores arc `(u, v)` of weight `w` at row position `k`. Arcs that
/// [`evaluates`] accepts fill the row from the front in `arcs`' order, the
/// others from the back, so the caller reverses the returned tail
/// `split..len` to restore their order. Which end an arc takes is a coin
/// flip per arc, so the position is selected without a branch.
fn fill_evaluated_first(
    g: &CsrGraph,
    partition: &BlockPartition,
    u: Vertex,
    arcs: impl Iterator<Item = (Vertex, Weight)>,
    len: usize,
    mut put: impl FnMut(usize, Vertex, Weight),
) -> usize {
    let block = partition.range(partition.owner(u));
    let (mut front, mut back) = (0, len);
    for (v, w) in arcs {
        let evaluated = evaluates_from(g, &block, u, v);
        put(if evaluated { front } else { back - 1 }, v, w);
        front += usize::from(evaluated);
        back -= usize::from(!evaluated);
    }
    debug_assert_eq!(front, back, "source {u} does not have {len} arcs");
    front
}

/// A vertex id local to one rank: an owned slot, a delegate replica or a
/// ghost (see [`RankGraph`]).
pub type LocalId = u32;

/// A remote arc target as one rank sees it: its global id and the rank
/// that owns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ghost {
    /// The vertex's global id.
    pub global: Vertex,
    /// The rank that owns it (and holds its state).
    pub owner: u32,
}

/// Per-rank share of the distributed graph, in local vertex ids.
///
/// Ids `0..num_owned` are the owned vertices in order (`owned.start + i`),
/// `num_owned..num_held` the delegate replicas in delegate-list order, and
/// `num_held..` the *ghosts*: the distinct remote targets of this rank's
/// arcs, grouped by owner in rank order. An arc to a delegate names its
/// replica, also on the delegate's owner, whose owned slot then has no
/// arcs and is never named. Arc sources are the held ids, so the source
/// index of [`RankGraph::num_sources`] is the source's local id.
#[derive(Clone, Debug)]
pub struct RankGraph {
    /// This rank's id.
    pub rank: usize,
    /// Vertices owned by this rank.
    pub owned: Range<Vertex>,
    /// Sorted global list of delegate (high-degree) vertices, shared by all
    /// ranks.
    pub delegates: Arc<Vec<Vertex>>,
    // CSR over owned vertices. Owned delegates have an empty adjacency here;
    // their edges live in the per-rank delegate slices instead.
    offsets: Vec<u64>,
    targets: Vec<LocalId>,
    weights: Vec<Weight>,
    // This rank's round-robin share of every delegate's adjacency, in
    // delegate-list order (parallel to `delegates`).
    delegate_slices: Vec<Vec<(LocalId, Weight)>>,
    // Per source: the length of its evaluated prefix.
    evaluated: Vec<u32>,
    // Per ghost id minus `num_held`: the ghost's global id and owner.
    ghosts: Vec<Ghost>,
    // Per peer: the local ids of this rank's vertices that the peer holds
    // as ghosts, in the peer's ghost order.
    mirrors: Vec<Vec<LocalId>>,
}

impl RankGraph {
    /// Whether this rank owns vertex `v`.
    #[inline]
    pub fn owns(&self, v: Vertex) -> bool {
        self.owned.contains(&v)
    }

    /// Number of owned vertices.
    #[inline]
    pub fn num_owned(&self) -> usize {
        (self.owned.end - self.owned.start) as usize
    }

    /// Number of vertices whose state this rank holds: the owned slots,
    /// then the delegate replicas. Local ids below it are held, the others
    /// are ghosts.
    #[inline]
    pub fn num_held(&self) -> usize {
        self.num_owned() + self.delegates.len()
    }

    /// The global id of local id `id`.
    #[inline]
    pub fn global_id(&self, id: LocalId) -> Vertex {
        let i = id as usize;
        if i < self.num_owned() {
            self.owned.start + id
        } else if i < self.num_held() {
            self.delegates[i - self.num_owned()]
        } else {
            self.ghosts[i - self.num_held()].global
        }
    }

    /// The ghost table: entry `g` describes local id `num_held + g`.
    #[inline]
    pub fn ghosts(&self) -> &[Ghost] {
        &self.ghosts
    }

    /// The local ids of this rank's vertices that `peer` holds as ghosts,
    /// in `peer`'s ghost order (empty for this rank itself).
    #[inline]
    pub fn mirrors(&self, peer: usize) -> &[LocalId] {
        &self.mirrors[peer]
    }

    /// Adjacency of an owned, non-delegate vertex `v`, in global ids.
    ///
    /// Panics if `v` is not owned; empty for an owned delegate (its edges
    /// are in the delegate slices).
    pub fn adj(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Weight)> + '_ {
        assert!(self.owns(v), "rank {} does not own {v}", self.rank);
        let (targets, weights) = self.owned_arcs((v - self.owned.start) as usize);
        targets
            .iter()
            .map(|&t| self.global_id(t))
            .zip(weights.iter().copied())
    }

    /// Adjacency of the `i`-th owned vertex as parallel local-target and
    /// weight slices (both empty for an owned delegate), the arcs
    /// [`evaluates`] accepts first.
    #[inline]
    pub fn owned_arcs(&self, i: usize) -> (&[LocalId], &[Weight]) {
        let r = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        (&self.targets[r.clone()], &self.weights[r])
    }

    /// This rank's slice of the `k`-th delegate's adjacency, in local
    /// targets, in the order of [`RankGraph::delegates`], the arcs
    /// [`evaluates`] accepts first.
    #[inline]
    pub fn delegate_arcs(&self, k: usize) -> &[(LocalId, Weight)] {
        &self.delegate_slices[k]
    }

    /// How many leading arcs of source `i` [`evaluates`] accepts (its
    /// arcs are stored evaluated first).
    #[inline]
    pub fn num_evaluated(&self, i: usize) -> usize {
        self.evaluated[i] as usize
    }

    /// Number of arcs stored locally (owned adjacency + delegate slices).
    pub fn num_local_arcs(&self) -> usize {
        self.targets.len() + self.delegate_slices.iter().map(|s| s.len()).sum::<usize>()
    }

    /// Approximate local memory footprint in bytes (Fig 8 "graph" series):
    /// the adjacency and the evaluated-prefix lengths. The ghost table is
    /// [`RankGraph::ghost_bytes`].
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..])
            + std::mem::size_of_val(&self.targets[..])
            + std::mem::size_of_val(&self.weights[..])
            + std::mem::size_of_val(&self.evaluated[..])
            + self
                .delegate_slices
                .iter()
                .map(|s| std::mem::size_of_val(&s[..]))
                .sum::<usize>()
    }

    /// Bytes of the ghost table and the mirror lists.
    pub fn ghost_bytes(&self) -> usize {
        std::mem::size_of_val(&self.ghosts[..])
            + self
                .mirrors
                .iter()
                .map(|m| std::mem::size_of_val(&m[..]))
                .sum::<usize>()
    }

    /// Number of arc sources stored on this rank: the owned vertices
    /// ([`RankGraph::owned_arcs`]), then the delegates
    /// ([`RankGraph::delegate_arcs`]), so source `i` is local id `i`.
    /// Together they hold every local arc exactly once: the arcs the
    /// edge-centric min-distance-edge phase (Alg 5) scans, "every
    /// (u, v) ∈ E local to a partition".
    pub fn num_sources(&self) -> usize {
        self.num_held()
    }
}

#[cfg(test)]
impl RankGraph {
    /// Every arc `(u, v, w)` stored on this rank in global ids, read
    /// source by source through the accessors the min-edge scan uses.
    pub(crate) fn stored_arcs(&self) -> Vec<(Vertex, Vertex, Weight)> {
        let mut arcs = Vec::new();
        for i in 0..self.num_owned() {
            let u = self.owned.start + i as Vertex;
            let (targets, weights) = self.owned_arcs(i);
            arcs.extend(
                targets
                    .iter()
                    .zip(weights)
                    .map(|(&v, &w)| (u, self.global_id(v), w)),
            );
        }
        for (k, &d) in self.delegates.iter().enumerate() {
            arcs.extend(
                self.delegate_arcs(k)
                    .iter()
                    .map(|&(v, w)| (d, self.global_id(v), w)),
            );
        }
        arcs
    }
}

/// Distributed view of a graph: the owner map plus every rank's subgraph.
#[derive(Clone, Debug)]
pub struct PartitionedGraph {
    /// The owner map.
    pub partition: BlockPartition,
    /// Per-rank subgraphs, indexed by rank.
    pub ranks: Vec<RankGraph>,
    /// Sorted global delegate list.
    pub delegates: Arc<Vec<Vertex>>,
    /// Heaviest edge weight of the whole graph (0 when it has no edges).
    pub max_weight: Weight,
    /// Highest vertex degree of the whole graph.
    pub max_degree: usize,
}

/// Marks a global id the renumbering map has not assigned.
const UNMAPPED: LocalId = LocalId::MAX;

/// Splits `g` into `p` rank subgraphs. Vertices with degree at least
/// `delegate_threshold` (if given) become *delegates*: their adjacency is
/// dealt round-robin across all ranks, mirroring HavoqGT's vertex-cut
/// treatment of scale-free hubs. `None` disables delegation. The blocks
/// are cut by cost (see the module docs).
pub fn partition_graph(
    g: &CsrGraph,
    p: usize,
    delegate_threshold: Option<usize>,
) -> PartitionedGraph {
    let n = g.num_vertices();
    let partition = cost_cut(g, p, delegate_threshold);

    let mut delegates: Vec<Vertex> = match delegate_threshold {
        Some(t) => g.vertices().filter(|&v| g.degree(v) >= t).collect(),
        None => Vec::new(),
    };
    delegates.sort_unstable();
    let delegates = Arc::new(delegates);

    // Global id -> local id of the rank being built. Every rank leaves it
    // all `UNMAPPED` again, so one allocation serves them all.
    let mut local = vec![UNMAPPED; n];
    let mut ranks: Vec<RankGraph> = (0..p)
        .map(|rank| build_rank(g, &partition, rank, &delegates, &mut local))
        .collect();
    // Rank r's ghosts owned by q, in r's ghost order, are q's mirrors for r.
    for r in 0..p {
        for gi in 0..ranks[r].ghosts.len() {
            let Ghost { global, owner } = ranks[r].ghosts[gi];
            let q = owner as usize;
            let id = global - ranks[q].owned.start;
            ranks[q].mirrors[r].push(id);
        }
    }
    PartitionedGraph {
        partition,
        ranks,
        delegates,
        max_weight: g.weight_range().map_or(0, |(_, hi)| hi),
        max_degree: g.max_degree(),
    }
}

/// The blocks of `g` over `p` ranks, cut so that every block costs about
/// the same. With `a` arcs and `l` live vertices (those with at least one
/// arc), the mean degree is `d = a / l`, and a vertex costs
///
/// - `deg(v) + d` when it has arcs and is not a delegate,
/// - `d` when it is a delegate (its arcs are dealt to every rank),
/// - 0 when it is isolated.
///
/// A block's share of the total is then the mean of its share of the
/// arcs and its share of the live vertices. Costs are scaled by `l` to
/// stay integers. Two passes over the degrees: one sums the costs, one
/// places the cuts. An edgeless graph costs 0 in total; its cut is the
/// unit-cost cut of [`BlockPartition::new`], so its isolated vertices
/// spread evenly. At one rank the cut is the single block `0..n`.
fn cost_cut(g: &CsrGraph, p: usize, delegate_threshold: Option<usize>) -> BlockPartition {
    let n = g.num_vertices();
    let arcs = g.num_arcs() as u128;
    let is_delegate = |deg: usize| delegate_threshold.is_some_and(|t| deg >= t);
    // Pass 1: live vertices, and the arcs and count of the live
    // non-delegates, from which the total follows.
    let (mut live, mut kept_arcs, mut kept) = (0u128, 0u128, 0u128);
    let mut delegates = 0u128;
    for v in g.vertices() {
        let deg = g.degree(v);
        live += u128::from(deg > 0);
        if is_delegate(deg) {
            delegates += 1;
        } else if deg > 0 {
            kept_arcs += deg as u128;
            kept += 1;
        }
    }
    let total = live * kept_arcs + arcs * (kept + delegates);
    if total == 0 {
        return BlockPartition::new(n, p);
    }
    // Pass 2: the cut.
    BlockPartition::cut(n, p, total, |v| {
        let deg = g.degree(v);
        if is_delegate(deg) {
            arcs
        } else if deg > 0 {
            deg as u128 * live + arcs
        } else {
            0
        }
    })
}

/// One rank's global-to-local renumbering: the held vertices are
/// pre-mapped in `local`, and every other target becomes the next ghost
/// on first sight.
struct Renumbering<'a> {
    local: &'a mut [LocalId],
    num_held: LocalId,
    /// Ghost global ids, in order of first sight.
    ghosts: Vec<Vertex>,
}

impl Renumbering<'_> {
    /// The id of `v` from the map, a new ghost's if it has none.
    fn mapped(&mut self, v: Vertex) -> LocalId {
        match self.local[v as usize] {
            UNMAPPED => {
                let id = self.num_held + self.ghosts.len() as LocalId;
                self.local[v as usize] = id;
                self.ghosts.push(v);
                id
            }
            id => id,
        }
    }
}

/// Builds rank `rank`'s subgraph, its mirror lists left empty. `local` is
/// the all-`UNMAPPED` renumbering map, left all `UNMAPPED` again.
fn build_rank(
    g: &CsrGraph,
    partition: &BlockPartition,
    rank: usize,
    delegates: &Arc<Vec<Vertex>>,
    local: &mut [LocalId],
) -> RankGraph {
    let p = partition.num_ranks();
    let owned = partition.range(rank);
    let num_owned = (owned.end - owned.start) as usize;
    let num_held = num_owned + delegates.len();
    // An arc to a delegate names its replica, so an owned delegate keeps
    // its replica id and its owned slot is never named.
    for (k, &d) in delegates.iter().enumerate() {
        local[d as usize] = (num_owned + k) as LocalId;
    }
    for v in owned.clone() {
        if local[v as usize] == UNMAPPED {
            local[v as usize] = v - owned.start;
        }
    }
    let mut ids = Renumbering {
        local,
        num_held: num_held as LocalId,
        ghosts: Vec::new(),
    };

    // Row lengths come from the degrees (an owned delegate's row is
    // empty), so every row is laid out and renamed in place by
    // `fill_evaluated_first`.
    let mut offsets = Vec::with_capacity(num_owned + 1);
    offsets.push(0u64);
    let mut num_arcs = 0;
    for v in owned.clone() {
        if (ids.local[v as usize] as usize) < num_owned {
            num_arcs += g.degree(v);
        }
        offsets.push(num_arcs as u64);
    }
    let mut targets = vec![0; num_arcs];
    let mut weights = vec![0; num_arcs];
    let mut evaluated = Vec::with_capacity(num_held);
    for (i, v) in owned.clone().enumerate() {
        let row = offsets[i] as usize..offsets[i + 1] as usize;
        if row.is_empty() {
            // An owned delegate (its arcs are in the delegate slices),
            // or an isolated vertex.
            evaluated.push(0);
            continue;
        }
        let (targets, weights) = (&mut targets[row.clone()], &mut weights[row]);
        let split = fill_evaluated_first(g, partition, v, g.edges(v), targets.len(), |k, t, w| {
            targets[k] = ids.mapped(t);
            weights[k] = w;
        });
        targets[split..].reverse();
        weights[split..].reverse();
        evaluated.push(split as u32);
    }
    // Round-robin share of each delegate's arcs: every p-th arc from
    // index `rank` on.
    let mut delegate_slices: Vec<Vec<(LocalId, Weight)>> = delegates
        .iter()
        .map(|&d| {
            let share = g.edges(d).enumerate().filter(|(i, _)| i % p == rank);
            let mut slice = vec![(0, 0); g.degree(d).saturating_sub(rank).div_ceil(p)];
            let split = fill_evaluated_first(
                g,
                partition,
                d,
                share.map(|(_, e)| e),
                slice.len(),
                |k, t, w| slice[k] = (ids.mapped(t), w),
            );
            slice[split..].reverse();
            evaluated.push(split as u32);
            slice
        })
        .collect();

    // Regroup the ghosts by owner, so each owner's ghosts form one run: a
    // stable counting sort, and a renaming pass over the targets, unless
    // first sight already grouped them (always so on two ranks).
    let local = ids.local;
    let mut ghosts: Vec<Ghost> = (ids.ghosts.into_iter())
        .map(|global| Ghost {
            global,
            owner: partition.owner(global) as u32,
        })
        .collect();
    if !ghosts.is_sorted_by_key(|gh| gh.owner) {
        let mut next = vec![0; p + 1];
        for gh in &ghosts {
            next[gh.owner as usize + 1] += 1;
        }
        for q in 0..p {
            next[q + 1] += next[q];
        }
        let mut regrouped = ghosts.clone();
        let renamed: Vec<LocalId> = (ghosts.iter())
            .map(|&gh| {
                let slot = &mut next[gh.owner as usize];
                regrouped[*slot] = gh;
                *slot += 1;
                (num_held + *slot - 1) as LocalId
            })
            .collect();
        let rename = |t: &mut LocalId| {
            if *t as usize >= num_held {
                *t = renamed[*t as usize - num_held];
            }
        };
        targets.iter_mut().for_each(rename);
        (delegate_slices.iter_mut().flatten()).for_each(|(t, _)| rename(t));
        ghosts = regrouped;
    }

    for v in (delegates.iter().copied())
        .chain(ghosts.iter().map(|gh| gh.global))
        .chain(owned.clone())
    {
        local[v as usize] = UNMAPPED;
    }
    RankGraph {
        rank,
        owned,
        delegates: Arc::clone(delegates),
        offsets,
        targets,
        weights,
        delegate_slices,
        evaluated,
        ghosts,
        mirrors: vec![Vec::new(); p],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    fn star_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for (u, v) in generators::star(n) {
            b.add_edge(u, v, 1);
        }
        b.build()
    }

    #[test]
    fn block_partition_balanced() {
        let p = BlockPartition::new(10, 3);
        assert_eq!(p.range(0), 0..4);
        assert_eq!(p.range(1), 4..7);
        assert_eq!(p.range(2), 7..10);
        for v in 0..10u32 {
            let o = p.owner(v);
            assert!(p.range(o).contains(&v), "owner({v}) = {o} inconsistent");
        }
    }

    #[test]
    fn block_partition_even_split() {
        let p = BlockPartition::new(8, 4);
        for r in 0..4 {
            assert_eq!(p.range(r).len(), 2);
        }
    }

    #[test]
    fn block_partition_single_rank() {
        let p = BlockPartition::new(5, 1);
        assert_eq!(p.range(0), 0..5);
        assert_eq!(p.owner(4), 0);
    }

    #[test]
    fn all_arcs_covered_without_delegates() {
        let g = star_graph(9);
        let pg = partition_graph(&g, 4, None);
        let total: usize = pg.ranks.iter().map(|r| r.num_local_arcs()).sum();
        assert_eq!(total, g.num_arcs());
    }

    #[test]
    fn all_arcs_covered_with_delegates() {
        let g = star_graph(9);
        // Center vertex 0 has degree 8 -> becomes a delegate.
        let pg = partition_graph(&g, 4, Some(5));
        assert_eq!(pg.delegates.as_slice(), &[0]);
        let total: usize = pg.ranks.iter().map(|r| r.num_local_arcs()).sum();
        assert_eq!(total, g.num_arcs());
        // The hub's arcs are spread across all ranks.
        for r in &pg.ranks {
            assert_eq!(r.delegate_arcs(0).len(), 2);
        }
    }

    #[test]
    fn delegate_has_empty_owned_adjacency() {
        let g = star_graph(9);
        let pg = partition_graph(&g, 2, Some(5));
        let owner = pg.partition.owner(0);
        let rg = &pg.ranks[owner];
        assert_eq!(rg.adj(0).count(), 0);
    }

    #[test]
    fn local_arcs_match_global() {
        let g = star_graph(7);
        let pg = partition_graph(&g, 3, Some(4));
        let mut local: Vec<_> = pg.ranks.iter().flat_map(RankGraph::stored_arcs).collect();
        local.sort_unstable();
        let mut global: Vec<_> = g.arcs().collect();
        global.sort_unstable();
        assert_eq!(local, global);
    }

    #[test]
    fn records_max_weight_and_degree() {
        let mut b = GraphBuilder::new(5);
        for (u, v, w) in [(0, 1, 3), (0, 2, 9), (0, 3, 4), (3, 4, 7)] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        for (p, threshold) in [(1, None), (3, None), (2, Some(3))] {
            let pg = partition_graph(&g, p, threshold);
            assert_eq!((pg.max_weight, pg.max_degree), (9, 3), "{p} ranks");
        }
        let edgeless = partition_graph(&GraphBuilder::new(4).build(), 2, None);
        assert_eq!((edgeless.max_weight, edgeless.max_degree), (0, 0));
    }

    /// Every vertex's owner holds it, the blocks tile `0..n`, and every
    /// arc is stored once.
    fn assert_consistent(g: &CsrGraph, pg: &PartitionedGraph) {
        let p = pg.partition.num_ranks();
        for v in g.vertices() {
            let o = pg.partition.owner(v);
            assert!(pg.ranks[o].owns(v), "owner({v}) = {o}: {:?}", pg.partition);
        }
        let sizes: usize = pg.ranks.iter().map(RankGraph::num_owned).sum();
        assert_eq!(sizes, g.num_vertices());
        for r in 0..p {
            assert_eq!(pg.ranks[r].owned, pg.partition.range(r));
        }
        let total: usize = pg.ranks.iter().map(|r| r.num_local_arcs()).sum();
        assert_eq!(total, g.num_arcs());
    }

    #[test]
    fn more_ranks_than_vertices() {
        let g = star_graph(3);
        let pg = partition_graph(&g, 8, None);
        assert_consistent(&g, &pg);
    }

    /// Three live vertices among ten, at eight ranks: most blocks are
    /// empty, and every vertex still has exactly one owner.
    #[test]
    fn more_ranks_than_live_vertices() {
        let mut b = GraphBuilder::new(10);
        b.extend_edges([(4, 5, 1), (5, 6, 2)]);
        let g = b.build();
        for p in [3, 5, 8] {
            let pg = partition_graph(&g, p, None);
            assert_consistent(&g, &pg);
            // Only the live vertices carry cost, so past three ranks each
            // gets a rank of its own and some blocks stay empty.
            if p > 3 {
                let mut live_owners: Vec<usize> = (4..7).map(|v| pg.partition.owner(v)).collect();
                live_owners.dedup();
                assert_eq!(live_owners.len(), 3, "p={p}: {:?}", pg.partition);
                assert!(
                    (0..p).any(|r| pg.partition.range(r).is_empty()),
                    "p={p}: {:?}",
                    pg.partition
                );
            }
        }
    }

    /// An edgeless graph costs 0 in total, and its cut is the unit-cost
    /// one: sizes differ by at most one.
    #[test]
    fn edgeless_graph_gets_the_unit_cut() {
        for (n, p) in [(10, 3), (2, 5), (0, 4)] {
            let g = GraphBuilder::new(n).build();
            let pg = partition_graph(&g, p, None);
            assert_eq!(pg.partition, BlockPartition::new(n, p), "n={n} p={p}");
            assert_consistent(&g, &pg);
        }
        let pg = partition_graph(&GraphBuilder::new(10).build(), 3, None);
        assert_eq!(pg.partition.cuts(), &[0, 4, 7, 10]);
    }

    /// A hub holding every arc costs its degree plus the mean degree, so
    /// it gets a block to itself; as a delegate it costs the mean degree
    /// only, like each leaf's mean-degree part.
    #[test]
    fn star_hub_gets_a_block_of_its_own() {
        let g = star_graph(9);
        let pg = partition_graph(&g, 4, None);
        assert_consistent(&g, &pg);
        // Hub 8 * 9 + 16 = 88, leaves 9 + 16 = 25 each, 288 in all.
        assert_eq!(pg.partition.cuts(), &[0, 1, 4, 7, 9]);
        let delegated = partition_graph(&g, 4, Some(5));
        assert_consistent(&g, &delegated);
        // Hub 16, leaves 25 each, 216 in all: 54 per rank.
        assert_eq!(delegated.partition.cuts(), &[0, 3, 5, 7, 9]);
    }

    #[test]
    fn one_rank_is_one_block() {
        let g = star_graph(9);
        for thresh in [None, Some(3)] {
            let pg = partition_graph(&g, 1, thresh);
            assert_eq!(pg.partition.cuts(), &[0, 9]);
        }
    }
}
