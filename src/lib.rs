//! Umbrella crate for the `powersparse` reproduction.
//!
//! This crate hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`). The actual library surface lives in:
//!
//! * [`powersparse`] — the paper's algorithms (sparsification, ruling sets,
//!   MIS, network decomposition),
//! * [`powersparse_congest`] — the CONGEST model: the `RoundEngine` trait
//!   and the sequential reference `Simulator`,
//! * [`powersparse_engine`] — the pooled and multi-process engine backends,
//! * [`powersparse_graphs`] — the graph substrate,
//! * [`powersparse_kwise`] — k-wise independent hashing and derandomizers.

pub use powersparse;
pub use powersparse_congest;
pub use powersparse_engine;
pub use powersparse_graphs;
pub use powersparse_kwise;
