#![warn(missing_docs)]

//! # stgraph — weighted graph substrate
//!
//! The graph layer underneath the distributed Steiner tree suite. It provides:
//!
//! - [`CsrGraph`]: an immutable, cache-friendly compressed-sparse-row graph
//!   with positive integer edge weights (the paper's `d : E -> Z+ \ 0`),
//! - [`GraphBuilder`]: edge-list ingestion with symmetrization and
//!   min-weight deduplication,
//! - [`generators`]: synthetic graph families (RMAT, Barabási–Albert,
//!   Erdős–Rényi, grids, paths, stars, complete graphs) used to build
//!   scaled-down analogues of the paper's eight real-world datasets,
//! - [`partition`]: block partitioning with owner maps and high-degree
//!   vertex delegates (HavoqGT-style), used by the simulated runtime,
//! - [`traversal`]: BFS levels and connected components (seed selection and
//!   dataset preparation),
//! - [`io`]: text edge-list and compact binary formats,
//! - [`datasets`]: the registry of paper-graph analogues used by every
//!   experiment harness.
//!
//! All randomness is driven by caller-provided seeds through ChaCha RNGs so
//! that every generated graph is bit-for-bit reproducible.

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod dsu;
pub mod error;
pub mod generators;
pub mod io;
pub mod json;
pub mod mst;
pub mod partition;
pub mod stats;
pub mod steiner_tree;
pub mod traversal;
pub mod weights;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, Distance, Vertex, Weight, INF};
pub use error::SteinerError;
pub use partition::BlockPartition;
pub use steiner_tree::SteinerTree;

#[cfg(test)]
mod proptests;
