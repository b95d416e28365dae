//! Theory constants, with a paper-faithful preset and a laptop-scale
//! preset (see "Scaled constants" below).
//!
//! The paper's constants (sampling factor 24, degree bound `72 log n`,
//! `8 log n`-wise independence, …) make every bound vacuous at simulation
//! scales — e.g. `72 log₂ n > n` for all `n ≤ 512`. Tests that verify the
//! stated bounds verbatim use [`TheoryParams::paper`]; experiments that
//! need the bounds to *bite* (so the asymptotic shape is visible) use
//! [`TheoryParams::scaled`].
//!
//! # Substitutions
//!
//! Where the reproduction does something other than the paper, and where.
//! Each changes round counts, never what a run's output must satisfy.
//!
//! **Derandomization over a global BFS tree.** The paper derandomizes
//! each sampling stage of Algorithms 1–2 by the method of conditional
//! expectations over an `O(log n)`-wise independent family (Claim 5.6),
//! and Lemma 5.8 does so inside network-decomposition clusters to avoid
//! any dependence on the diameter `D`. Here every derandomized choice is
//! one scan, `powersparse_kwise::derand::seed_search`, over one global
//! BFS tree: the sparsifier's stages (`SamplingStrategy::SeedSearch`,
//! `sparsify/power.rs`) and `power_nd`'s delay seeds (`nd/cluster.rs`,
//! whose counter keeps running across colors) try seed candidates in a
//! fixed order, and each candidate costs one
//! `powersparse_congest::primitives::sum_and_broadcast`: a convergecast
//! of the local counts and a 1-bit accept/reject broadcast, so `Θ(D)`
//! rounds. The sparsifier elects its tree lazily, just before the first
//! stage that samples: the stage count `r` depends only on `Δ_A`, `n`
//! and the parameters, so a run whose iterations all have `r = 0` elects
//! no tree at all. On the benchmark's `ruling_k2` input at seed 42
//! (`gnp(n=20000,d=8)`, `k = 2`) that saves the election's 10 of 53
//! rounds, 862,303 of 3,815,777 messages and 26.1M of 69.5M bits. On the
//! paths `caterpillar(spine=N,legs=0)` at `k = 2` it saves `N + 2` rounds
//! and `Θ(N²)` messages: at `N = 1,600`, 4,807 → 3,205 rounds and
//! 2,577,584 → 15,986 messages. The sparsifier never fixes bits one by
//! one: its family (`KWiseFamily::for_graph`) has at least 32 seed bits,
//! far beyond what exact conditional expectations can enumerate.
//! `powersparse_kwise::derand::conditional_expectations` stays as the
//! tested reference for Claim 5.6 on small families.
//!
//! **The greedy MIS in Theorem 1.1.** The paper computes the MIS of
//! `G^k[Q]` with a deterministic CONGEST MIS algorithm, simulated over
//! the I3 trees (Lemma 6.3), in polylogarithmically many steps. Here
//! `mis_on_sparse_power` runs a greedy on local ID minima, one Lemma 4.2
//! broadcast per step, so it takes as many steps as the longest
//! decreasing ID chain in `G^k[Q]`. Likewise `beta_ruling_set`
//! (Corollary 1.3) finishes with Luby's MIS restricted to `Q` instead of
//! Theorem 1.2; the guarantee is the same. See `ruling/det_k2.rs` and
//! `ruling/kp12.rs`.
//!
//! **Delayed-BFS ND, with a one-cluster shortcut.** Theorem A.1 takes a
//! deterministic network decomposition of `G^k` with `O(log n)` colors
//! and cluster weak diameter `O(k·log n)` from prior work. Here
//! `power_nd` runs, per color, a delayed-BFS clustering in the style of
//! Miller, Peng and Xu (MPX13) with geometric delays chosen by a seed scan, and colors the
//! nodes whose whole `k`-ball landed in one cluster. When twice the
//! global tree's depth fits the weak-diameter budget (`diameter_bound`),
//! it returns one cluster in one color instead, which is valid because a
//! single cluster has no separation constraint. See `nd/cluster.rs`.
//!
//! **Scaled constants.** The paper's constants make every bound vacuous
//! at simulation scale (above). [`TheoryParams::paper`] keeps them for
//! the tests that check the bounds verbatim; every workload-suite run,
//! the paper profile included, and the benchmark use
//! [`TheoryParams::scaled`]. See this module and
//! `powersparse_workloads::suite_params`.
//!
//! **Charged sub-simulations.** Some steps of the paper run many
//! independent executions in parallel: the ball-graph network
//! decomposition, simulated on balls at an `O(r·τ)` overhead
//! (Claim A.4); cluster finishing's `O(log_N n)` BeepingMIS executions
//! within one bandwidth; and Lemma 5.8's per-cluster sparsification.
//! Here each runs on a private sequential `Simulator`, and the engine
//! under test is billed with `RoundEngine::charge_rounds`: the slowest
//! parallel part's rounds, times the simulation overhead where the paper
//! pays one. Charged rounds count in `Metrics::rounds` and again in
//! `Metrics::charged_rounds`, and a probe sees each as a zeroed
//! observation with empty spans. See `mis/shatter.rs` (phases 4 and 5)
//! and `sparsify/nd.rs`.

/// Tunable constants of the sparsification and shattering machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoryParams {
    /// Sampling probability factor: stage `i` samples with probability
    /// `sample_base · 2^i · log₂ n / Δ_A`. Paper: 24.
    pub sample_base: f64,
    /// `Q`-degree bound factor: the sparsified set must satisfy
    /// `d(v, Q) ≤ degree_bound_factor · log₂ n`. Paper: 72 (= 3 × 24).
    pub degree_bound_factor: f64,
    /// Stage count offset: `r = ⌊log₂ Δ_A − log₂ log₂ n⌋ − stage_offset`.
    /// Paper: 5.
    pub stage_offset: i64,
    /// Independence used by the hash family: `kwise_factor · log₂ n`-wise.
    /// Paper: 8.
    pub kwise_factor: usize,
    /// Budget for the deterministic seed scan (see "Derandomization over
    /// a global BFS tree" in the [module docs](self)).
    pub seed_attempts: u64,
    /// Pre-shattering length factor: `Θ(shatter_factor · log Δ)` steps.
    pub shatter_factor: f64,
}

impl TheoryParams {
    /// The paper's constants, verbatim.
    pub fn paper() -> Self {
        Self {
            sample_base: 24.0,
            degree_bound_factor: 72.0,
            stage_offset: 5,
            kwise_factor: 8,
            seed_attempts: 4096,
            shatter_factor: 8.0,
        }
    }

    /// Laptop-scale constants: the same algorithms, with constants small
    /// enough that the bounds are non-vacuous at `n ≤ 10⁵`.
    pub fn scaled() -> Self {
        Self {
            sample_base: 1.5,
            degree_bound_factor: 6.0,
            stage_offset: 0,
            kwise_factor: 2,
            seed_attempts: 4096,
            shatter_factor: 3.0,
        }
    }

    /// `log₂ n`, clamped below by 1.
    pub fn log_n(n: usize) -> f64 {
        (n.max(2) as f64).log2()
    }

    /// The sparsified degree bound `degree_bound_factor · log₂ n`,
    /// rounded up.
    pub fn degree_bound(&self, n: usize) -> usize {
        (self.degree_bound_factor * Self::log_n(n)).ceil() as usize
    }

    /// Number of sampling stages
    /// `r = ⌊log₂ Δ_A − log₂ log₂ n⌋ − stage_offset`, clamped at 0.
    ///
    /// When `r = 0` the active set is already sparse enough and is
    /// returned unchanged (the `Δ_A < 2^offset·log n` case of Lemma 5.1).
    pub fn num_stages(&self, delta_a: usize, n: usize) -> usize {
        let log_da = (delta_a.max(1) as f64).log2();
        let log_log = Self::log_n(n).log2().max(0.0);
        let r = (log_da - log_log).floor() as i64 - self.stage_offset;
        r.max(0) as usize
    }

    /// Stage-`i` sampling probability
    /// `min(1, sample_base · 2^i · log₂ n / Δ_A)` (stages are 1-based).
    pub fn stage_probability(&self, i: usize, delta_a: usize, n: usize) -> f64 {
        let p = self.sample_base * 2f64.powi(i as i32) * Self::log_n(n) / delta_a.max(1) as f64;
        p.min(1.0)
    }

    /// High-active-degree threshold of stage `i`: `Δ_A / 2^i`.
    pub fn high_degree_threshold(&self, i: usize, delta_a: usize) -> f64 {
        delta_a as f64 / 2f64.powi(i as i32)
    }

    /// Independence parameter for an `n`-node graph:
    /// `max(2, kwise_factor · ⌈log₂ n⌉)`.
    pub fn independence(&self, n: usize) -> usize {
        (self.kwise_factor * Self::log_n(n).ceil() as usize).max(2)
    }

    /// Number of pre-shattering steps `⌈shatter_factor · log₂ Δ⌉ + 1`.
    pub fn shatter_steps(&self, delta: usize) -> usize {
        (self.shatter_factor * (delta.max(2) as f64).log2()).ceil() as usize + 1
    }
}

impl Default for TheoryParams {
    fn default() -> Self {
        Self::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let p = TheoryParams::paper();
        assert_eq!(p.sample_base, 24.0);
        assert_eq!(p.degree_bound(1024), 720);
        assert_eq!(p.kwise_factor, 8);
    }

    #[test]
    fn stage_count_matches_formula() {
        let p = TheoryParams::paper();
        // r = floor(log2 1024 - log2 log2 1024) - 5 = floor(10 - 3.32) - 5 = 1.
        assert_eq!(p.num_stages(1024, 1024), 1);
        // Small ΔA: no stages.
        assert_eq!(p.num_stages(16, 1024), 0);
    }

    #[test]
    fn scaled_stages_bite_at_small_n() {
        let p = TheoryParams::scaled();
        assert!(p.num_stages(64, 256) >= 3);
    }

    #[test]
    fn probabilities_monotone_and_clamped() {
        let p = TheoryParams::scaled();
        let mut last = 0.0;
        for i in 1..=8 {
            let pi = p.stage_probability(i, 256, 512);
            assert!(pi >= last);
            assert!(pi <= 1.0);
            last = pi;
        }
    }

    #[test]
    fn high_degree_threshold_halves() {
        let p = TheoryParams::scaled();
        assert_eq!(p.high_degree_threshold(1, 64), 32.0);
        assert_eq!(p.high_degree_threshold(3, 64), 8.0);
    }

    #[test]
    fn independence_floor() {
        let p = TheoryParams::scaled();
        assert!(p.independence(4) >= 2);
        assert_eq!(p.independence(1024), 20); // 2 * 10
    }
}
