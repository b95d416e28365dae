//! The cross-engine conformance suite: every `RoundEngine` backend in
//! this crate is tested against the same contract — bit-for-bit outputs
//! and `Metrics` (totals, `peak_queue_depth`, per-edge traffic) equal to
//! the sequential reference `Simulator`, across the full algorithm
//! matrix of the reproduction, at 1/2/4/8 shards.
//!
//! Grown out of the ad-hoc parity tests of PR 1–3 (`tests/parity.rs`),
//! now reusable: a new backend implements [`harness::EngineFactory`] and
//! inherits the whole wall.
//!
//! * [`harness`] — the engine-agnostic harness (factories, algorithm
//!   matrix, the conformance assertion).
//! * [`matrix`] — the deterministic matrix instantiated per backend,
//!   plus the scale and delayed-BFS path checks.
//! * [`random`] — randomized parity properties (proptest) per backend.
//! * [`negative`] — the misbehaving-phase contract: illegal node
//!   programs panic identically on all three engines (the multi-process
//!   backend included — contract panics fire before any wire traffic).
//! * [`probe`] — round-level probe traces: identical engine-invariant
//!   observations (and trace length = `rounds`) on every backend.
//! * [`spans`] — span-structure invariance: per-round per-shard stage
//!   spans have engine-invariant structure (timings stay backend-shaped
//!   and are never compared).

pub mod harness;
mod matrix;
mod negative;
mod probe;
mod random;
mod spans;
