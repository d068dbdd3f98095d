#![warn(missing_docs)]

//! # baselines — sequential comparator algorithms
//!
//! Everything the paper compares its distributed solver against (§V-G),
//! plus the shortest-path and MST kernels they are built from:
//!
//! - [`shortest_path`]: Dijkstra, Bellman–Ford, and multi-source Dijkstra
//!   (exact Voronoi cells — the sequential reference for the distributed
//!   kernel);
//! - [`apsp`]: seed-pair all-pairs shortest paths (the expensive KMB Step 1
//!   that Table I compares against Voronoi cells);
//! - [`mst`]: Kruskal and Prim over auxiliary edge lists; [`dsu`];
//! - [`kmb`](mod@kmb): the KMB 2-approximation (Kou–Markowsky–Berman 1981);
//! - [`www`](mod@www): the WWW generalized-MST 2-approximation (Wu–Widmayer–Wong
//!   1986);
//! - [`takahashi`](mod@takahashi): the Takahashi–Matsuyama shortest-path heuristic
//!   (1980), the original 2-approximation;
//! - [`mehlhorn`](mod@mehlhorn): Mehlhorn's Voronoi-cell 2-approximation (1988);
//! - [`exact`]: Dreyfus–Wagner exact Steiner minimal trees (the suite's
//!   SCIP-Jack stand-in for measuring approximation quality);
//! - [`lower_bound`]: certified lower bounds on `D_min` for instances too
//!   large for the exact DP;
//! - [`improve`]: key-path local search that refines any 2-approximate
//!   tree toward the optimum.

pub mod apsp;
pub mod common;
pub mod exact;
pub mod improve;
pub mod kmb;
pub mod lower_bound;
pub mod mehlhorn;
pub mod shortest_path;
pub mod takahashi;
pub mod www;

pub use common::SteinerError;

pub use exact::{dreyfus_wagner, steiner_minimal_distance};
pub use improve::key_path_improve;
pub use kmb::kmb;
pub use lower_bound::steiner_lower_bound;
pub use mehlhorn::mehlhorn;
/// Re-export: union-find lives in the graph substrate crate.
pub use stgraph::dsu;
/// Re-export: MST kernels live in the graph substrate crate.
pub use stgraph::mst;
pub use takahashi::takahashi;
pub use www::www;

#[cfg(test)]
mod proptests;
