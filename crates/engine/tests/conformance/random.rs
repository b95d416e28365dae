//! Randomized conformance properties: seeded random graphs and
//! parameters, every parallel backend, checked through the same
//! [`crate::harness`] assertion as the deterministic matrix. These are
//! the direct descendants of the PR 1–3 parity property tests, now
//! phrased once and instantiated per backend.

use crate::harness::{assert_case_conformance, Algorithm, Case, PooledFactory, ProcessFactory};
use powersparse_graphs::generators;
use proptest::prelude::*;

/// Every backend: the pooled engine inline and at 2, 3 and 5 shards,
/// the process engine at one parallel count (forking is the expensive
/// part; the deterministic matrix already sweeps its full 1/2/4/8
/// grid).
fn all_backends(case: &Case) {
    assert_case_conformance(&PooledFactory, case, &[1, 2, 3, 5]);
    assert_case_conformance(&ProcessFactory, case, &[2]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Luby MIS on random graphs: identical membership mask and metrics
    /// on every backend.
    #[test]
    fn luby_conformance_on_random_graphs(n in 20usize..140, k in 1usize..3, seed in 0u64..500) {
        let g = generators::connected_gnp(n, 4.0 / n as f64, seed);
        all_backends(&Case::new("luby/random", g, seed, Algorithm::LubyMis { k }));
    }

    /// BeepingMIS (Lemma 8.2 beeps) on random graphs.
    #[test]
    fn beeping_conformance_on_random_graphs(n in 20usize..110, k in 1usize..3, seed in 0u64..400) {
        let g = generators::connected_gnp(n, 5.0 / n as f64, seed);
        all_backends(&Case::new("beeping/random", g, seed, Algorithm::BeepingMis { k }));
    }

    /// The AGLP ruling set with ball partition (min-ID knock-out floods
    /// through the step API).
    #[test]
    fn aglp_conformance_on_random_graphs(n in 20usize..110, dist in 1usize..4, seed in 0u64..400) {
        let g = generators::connected_gnp(n, 5.0 / n as f64, seed);
        all_backends(&Case::new("aglp/random", g, seed, Algorithm::AglpRuling { dist }));
    }

    /// Corollary 1.3's randomized `(k+1, kβ)`-ruling set.
    #[test]
    fn beta_ruling_conformance_on_random_graphs(n in 24usize..100, beta in 2usize..4, seed in 0u64..400) {
        let g = generators::connected_gnp(n, 6.0 / n as f64, seed);
        let k = 1 + (seed as usize % 2);
        all_backends(&Case::new("beta/random", g, seed, Algorithm::BetaRuling { k, beta }));
    }
}

proptest! {
    // The heavier pipelines: fewer cases each.
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// The derandomized sparsifier (global BFS tree, convergecasts,
    /// floods, Q-tree broadcasts — the most communication-heavy path).
    #[test]
    fn sparsifier_conformance_on_random_graphs(n in 24usize..80, k in 1usize..3, seed in 0u64..300) {
        let g = generators::connected_gnp(n, 5.0 / n as f64, seed);
        all_backends(&Case::new(
            "sparsify-det/random",
            g,
            seed,
            Algorithm::Sparsifier { k, derandomized: true },
        ));
    }

    /// The randomized sparsifier draws its samples on the driver, so it
    /// too must be engine-independent.
    #[test]
    fn randomized_sparsifier_conformance(n in 24usize..90, seed in 0u64..300) {
        let g = generators::connected_gnp(n, 6.0 / n as f64, seed);
        all_backends(&Case::new(
            "sparsify-rand/random",
            g,
            seed,
            Algorithm::Sparsifier { k: 2, derandomized: false },
        ));
    }

    /// Theorem 1.1's deterministic `(k+1, k²)`-ruling set pipeline.
    #[test]
    fn det_ruling_conformance_on_random_graphs(n in 24usize..70, k in 1usize..3, seed in 0u64..200) {
        let g = generators::connected_gnp(n, 5.0 / n as f64, seed);
        all_backends(&Case::new("detk2/random", g, seed, Algorithm::DetRulingK2 { k }));
    }

    /// The shattering MIS of Theorems 1.2/1.4 — every phase of the
    /// pipeline, both post-shattering variants.
    #[test]
    fn shatter_mis_conformance_on_random_graphs(n in 40usize..100, seed in 0u64..200) {
        let g = generators::connected_gnp(n, 6.0 / n as f64, seed);
        let k = 1 + (seed as usize % 2);
        all_backends(&Case::new(
            "shatter/random",
            g,
            seed,
            Algorithm::ShatterMis { k, two_phase: seed % 2 == 1 },
        ));
    }

    /// The network decomposition of `G^k` (delayed-BFS clustering +
    /// seed-scan accept/reject traffic).
    #[test]
    fn power_nd_conformance_on_random_graphs(n in 30usize..90, k in 1usize..3, seed in 0u64..200) {
        let g = generators::connected_gnp(n, 5.0 / n as f64, seed);
        all_backends(&Case::new("nd/random", g, seed, Algorithm::PowerNd { k }));
    }
}
