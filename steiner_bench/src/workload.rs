//! The four workloads and the inputs they generate from a seed.
//!
//! Each workload stresses a different layer of the solver (see the
//! README's workload table for the reasoning): `web-async` the Voronoi
//! traversal with remote messages, `web-1rank` the same traversal with no
//! messages at all, `cite-manyseeds` the distance-graph phases, and
//! `query-stream` the fixed per-solve cost on resident rank threads.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stgraph::csr::{CsrGraph, Vertex, Weight};
use stgraph::generators::{barabasi_albert, rmat, weighted_from_edges, RmatParams};
use stgraph::traversal::connected_components;
use stgraph::weights::WeightRange;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WebAsync,
    Web1Rank,
    CiteManySeeds,
    QueryStream,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WebAsync,
        Workload::Web1Rank,
        Workload::CiteManySeeds,
        Workload::QueryStream,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` declares.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WebAsync => "web-async",
            Workload::Web1Rank => "web-1rank",
            Workload::CiteManySeeds => "cite-manyseeds",
            Workload::QueryStream => "query-stream",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        // Eight seed sets per batch run: peak RSS depends on how far the
        // visitor queue grows for a set, and the largest of eight varies
        // far less between seeds than one set's does.
        let web = Spec {
            topology: Topology::Rmat { scale: 16 },
            max_weight: 100_000,
            set_size: 64,
            num_sets: 8,
            ranks: 2,
            resident: false,
            warmup: 2,
            traced_ops: 3,
        };
        match self {
            Workload::WebAsync => web,
            Workload::Web1Rank => Spec { ranks: 1, ..web },
            Workload::CiteManySeeds => Spec {
                topology: Topology::BarabasiAlbert { n: 65_536, m: 4 },
                max_weight: 5_000,
                set_size: 8_192,
                ..web
            },
            Workload::QueryStream => Spec {
                topology: Topology::Rmat { scale: 10 },
                max_weight: 100_000,
                set_size: 8,
                num_sets: 2_000,
                ranks: 2,
                resident: true,
                warmup: 50,
                traced_ops: 200,
            },
        }
    }
}

/// Graph family of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// RMAT with Graph500 parameters over `2^scale` vertices and
    /// `8 * 2^scale` sampled edges.
    Rmat { scale: u32 },
    /// Barabási–Albert preferential attachment, `m` edges per new vertex.
    BarabasiAlbert { n: usize, m: usize },
}

/// Everything that defines a workload's inputs and load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    pub topology: Topology,
    /// Edge weights are drawn uniformly from `[1, max_weight]`.
    pub max_weight: Weight,
    /// Seeds per solve, drawn uniformly from the largest component.
    pub set_size: usize,
    /// Distinct seed sets; the timed loop cycles through them.
    pub num_sets: usize,
    pub ranks: usize,
    /// Solve on one resident `PersistentWorld` with `solve_on` instead of
    /// spawning a world per `solve_partitioned` call.
    pub resident: bool,
    /// Untimed operations before the timed loop.
    pub warmup: usize,
    /// Operations in the traced pass.
    pub traced_ops: usize,
}

/// A workload's generated inputs: the graph and the seed sets to solve.
pub struct Inputs {
    pub graph: CsrGraph,
    pub seed_sets: Vec<Vec<Vertex>>,
}

/// Generates the inputs of `spec` deterministically from `seed`. Each
/// seed set is sorted and holds distinct vertices of the largest
/// component, so every solve has a connected seed set.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weights = WeightRange::new(1, spec.max_weight);
    let graph = match spec.topology {
        Topology::Rmat { scale } => {
            let n = 1usize << scale;
            let edges = rmat(scale, 8 * n, RmatParams::graph500(), &mut rng);
            weighted_from_edges(n, edges, weights, &mut rng)
        }
        Topology::BarabasiAlbert { n, m } => {
            let edges = barabasi_albert(n, m, &mut rng);
            weighted_from_edges(n, edges, weights, &mut rng)
        }
    };
    let component = connected_components(&graph).largest_component_vertices();
    assert!(
        component.len() >= spec.set_size,
        "largest component has {} vertices, the workload needs {}",
        component.len(),
        spec.set_size
    );
    let seed_sets = (0..spec.num_sets)
        .map(|_| {
            let mut set: Vec<Vertex> = component
                .choose_multiple(&mut rng, spec.set_size)
                .copied()
                .collect();
            set.sort_unstable();
            set
        })
        .collect();
    Inputs { graph, seed_sets }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A workload small enough for unit tests, on either engine.
    pub fn tiny(resident: bool) -> Spec {
        Spec {
            topology: Topology::Rmat { scale: 9 },
            max_weight: 1_000,
            set_size: 8,
            num_sets: 3,
            ranks: 2,
            resident,
            warmup: 2,
            traced_ops: 2,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let arcs = |inputs: &Inputs| inputs.graph.arcs().collect::<Vec<_>>();
        for spec in [tiny(false), Workload::QueryStream.spec()] {
            let (a, b, c) = (generate(&spec, 7), generate(&spec, 7), generate(&spec, 8));
            assert_eq!(arcs(&a), arcs(&b), "same seed must give the same graph");
            assert_eq!(
                a.seed_sets, b.seed_sets,
                "same seed must give the same seed sets"
            );
            assert_ne!(arcs(&a), arcs(&c), "another seed must give another graph");
            assert_ne!(
                a.seed_sets, c.seed_sets,
                "another seed must give other seed sets"
            );
        }
    }

    #[test]
    fn seed_sets_are_distinct_sorted_vertices() {
        let spec = Workload::QueryStream.spec();
        let inputs = generate(&spec, 3);
        assert_eq!(inputs.seed_sets.len(), spec.num_sets);
        for set in &inputs.seed_sets {
            assert_eq!(set.len(), spec.set_size);
            assert!(set.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("web"), None);
    }
}
