//! Rule families. Each module exposes `run(&Workspace, &mut Vec<Finding>)`
//! (unsafety additionally fills the unsafe-site inventory).

pub mod determinism;
pub mod labels;
pub mod locks;
pub mod protocol;
pub mod unsafety;
pub mod unwind;

/// The runtime crate's sources: the only place allowed to start threads,
/// and the only place held to the quiescence and no-unwrap rules.
pub(crate) const RUNTIME_SRC: &str = "crates/struntime/src";
