#![warn(missing_docs)]

//! # steiner-suite
//!
//! Umbrella crate re-exporting the whole distributed Steiner minimal tree
//! suite. Depend on this from examples and integration tests; library users
//! may prefer depending on the individual crates directly.

pub use baselines;
pub use seeds;
pub use steiner;
pub use stgraph;
pub use struntime;
