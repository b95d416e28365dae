//! Sparsification of power graphs (Section 5 of the paper).
//!
//! * [`sparsify_power`] — Algorithm 3: `k` iterations of
//!   `DetSparsification` (Algorithm 2), iteration `s` simulated on `G^s`,
//!   maintaining invariants I1 (bounded distance-`s` `Q`-degree), I2
//!   (domination `s² + s`) and I3 (knowledge + BFS trees of depth `s+1`).
//! * [`sparsify_power_nd`] — Lemma 5.8: the diameter-free version that
//!   runs the sparsifier inside the clusters of a `(2k+1)`-separated
//!   network decomposition.
//!
//! The per-stage sampling is controlled by a [`SamplingStrategy`]:
//! Algorithm 1's randomized sampling, or Algorithm 2's derandomization,
//! which scans seeds with [`powersparse_kwise::derand::seed_search`] and
//! checks each candidate with one
//! [`sum_and_broadcast`](powersparse_congest::primitives::sum_and_broadcast)
//! on the global BFS tree (Claim 5.6).

mod nd;
mod power;

pub use nd::{sparsify_power_nd, NdSparsifyError, NdSparsifyOutcome};
pub use power::{sparsify_power, SparsifyError, SparsifyOutcome};

/// How each stage's sampled set `M_i` is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Algorithm 1: independent random sampling (seeded for
    /// reproducibility). The guarantees hold w.h.p. only.
    Randomized {
        /// RNG seed.
        seed: u64,
    },
    /// Algorithm 2 with the deterministic seed scan of
    /// [`powersparse_kwise::derand::seed_search`]: candidates are
    /// evaluated with a real convergecast per candidate and the first
    /// seed with zero bad events wins.
    SeedSearch,
}

/// Per-iteration statistics of a sparsification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationStats {
    /// Which power `G^s` this iteration ran on.
    pub s: usize,
    /// Number of sampling stages executed (`r` in the paper).
    pub stages: usize,
    /// `|Q_s|` after the iteration.
    pub q_size: usize,
    /// Derandomization seed-scan attempts summed over stages (0 when
    /// randomized).
    pub seed_attempts: u64,
}
