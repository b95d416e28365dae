//! The reusable, engine-agnostic conformance harness.
//!
//! A [`RoundEngine`] backend conforms when, for **any** node program, it
//! produces bit-for-bit the outputs and [`Metrics`] (totals,
//! `peak_queue_depth` and per-edge traffic) of the sequential reference
//! `Simulator`, at every shard count. This module turns that sentence
//! into code:
//!
//! * [`EngineFactory`] — how the harness builds the backend under test
//!   over any borrowed graph (a GAT keeps the engine's graph lifetime
//!   out of the caller's way). Implement it for a new backend and the
//!   whole suite applies unchanged.
//! * [`Algorithm`] / [`Case`] — the full algorithm matrix of the
//!   reproduction (Luby / beeping / shattering MIS, AGLP / β / det-k²
//!   ruling sets, network decomposition, both sparsifier strategies),
//!   each run **self-validating** against the slow
//!   `powersparse_graphs::check` predicates on every backend, not just
//!   the reference.
//! * [`assert_case_conformance`] — one case, one factory, a grid of
//!   shard counts, compared against a fresh sequential reference.
//! * [`full_matrix`] + [`run_full_matrix`] — the curated deterministic
//!   matrix every backend must pass at [`SHARD_GRID`].

use powersparse::mis::{beeping_mis, luby_mis, mis_power, PostShattering};
use powersparse::nd::{diameter_bound, power_nd};
use powersparse::ruling::{beta_ruling_set, det_ruling_set_k2, ruling_set_with_balls};
use powersparse::sparsify::{sparsify_power, SamplingStrategy};
use powersparse::TheoryParams;
use powersparse_congest::engine::{Metrics, RoundEngine};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::{PooledSimulator, ProcessSimulator};
use powersparse_graphs::{check, generators, Graph};

/// The shard counts every backend is checked at (1 shard runs the pooled
/// engine inline, 8 exceeds a CI machine's core count).
pub const SHARD_GRID: [usize; 4] = [1, 2, 4, 8];

/// Builds the backend under test over any borrowed graph. The GAT makes
/// the harness generic over engines that borrow their graph — the only
/// thing a new backend must provide to inherit the whole suite.
pub trait EngineFactory {
    /// The engine type, generic over the graph borrow.
    type Engine<'g>: RoundEngine;

    /// Backend name for assertion messages.
    fn label(&self) -> &'static str;

    /// Builds the engine with an explicit shard/worker count.
    fn build<'g>(&self, g: &'g Graph, config: SimConfig, shards: usize) -> Self::Engine<'g>;
}

/// Factory for the persistent worker-pool [`PooledSimulator`].
pub struct PooledFactory;

impl EngineFactory for PooledFactory {
    type Engine<'g> = PooledSimulator<'g>;

    fn label(&self) -> &'static str {
        "pooled"
    }

    fn build<'g>(&self, g: &'g Graph, config: SimConfig, shards: usize) -> PooledSimulator<'g> {
        PooledSimulator::with_shards(g, config, shards)
    }
}

/// Factory for the multi-process [`ProcessSimulator`] (one forked child
/// per shard, wire frames for every cross-shard byte).
pub struct ProcessFactory;

impl EngineFactory for ProcessFactory {
    type Engine<'g> = ProcessSimulator<'g>;

    fn label(&self) -> &'static str {
        "process"
    }

    fn build<'g>(&self, g: &'g Graph, config: SimConfig, shards: usize) -> ProcessSimulator<'g> {
        ProcessSimulator::with_shards(g, config, shards)
    }
}

/// One algorithm of the reproduction, with its power-graph parameters.
#[derive(Debug, Clone, Copy)]
pub enum Algorithm {
    /// Luby's MIS of `G^k` (Section 8.1).
    LubyMis {
        /// Power-graph exponent.
        k: usize,
    },
    /// Ghaffari's BeepingMIS of `G^k` via Lemma 8.2 beeps.
    BeepingMis {
        /// Power-graph exponent.
        k: usize,
    },
    /// The shattering MIS pipeline of Theorems 1.2/1.4.
    ShatterMis {
        /// Power-graph exponent.
        k: usize,
        /// Section 7.2.1 two-phase post-shattering vs. one-phase.
        two_phase: bool,
    },
    /// The AGLP coloring-digit ruling set with ball partition
    /// (Claim 7.6; exercises the `khop_min` knock-out floods).
    AglpRuling {
        /// Independence distance.
        dist: usize,
    },
    /// Corollary 1.3's randomized `(k+1, kβ)`-ruling set.
    BetaRuling {
        /// Power-graph exponent.
        k: usize,
        /// Domination stretch β.
        beta: usize,
    },
    /// Theorem 1.1's deterministic `(k+1, k²)`-ruling set.
    DetRulingK2 {
        /// Power-graph exponent.
        k: usize,
    },
    /// Network decomposition of `G^k` (Theorem A.1).
    PowerNd {
        /// Power-graph exponent.
        k: usize,
    },
    /// The power-graph sparsifier (Algorithms 1–3 / Lemma 3.1).
    Sparsifier {
        /// Power-graph exponent.
        k: usize,
        /// Seed-scan derandomization vs. randomized sampling.
        derandomized: bool,
    },
}

impl Algorithm {
    /// Runs the algorithm on `eng`, re-validates the output with the
    /// slow checkers (on *this* engine's output — every backend must
    /// produce a valid result, not merely an equal one), and returns a
    /// canonical rendering of everything produced, for bit-for-bit
    /// comparison across backends.
    pub fn run<E: RoundEngine>(&self, g: &Graph, eng: &mut E, seed: u64) -> String {
        let params = TheoryParams::scaled();
        match *self {
            Algorithm::LubyMis { k } => {
                let mis = luby_mis(eng, k, seed);
                assert!(
                    check::is_mis_of_power(g, &generators::members(&mis), k),
                    "invalid Luby MIS"
                );
                format!("{mis:?}")
            }
            Algorithm::BeepingMis { k } => {
                let mis = beeping_mis(eng, k, seed);
                assert!(
                    check::is_mis_of_power(g, &generators::members(&mis), k),
                    "invalid BeepingMIS"
                );
                format!("{mis:?}")
            }
            Algorithm::ShatterMis { k, two_phase } => {
                let post = if two_phase {
                    PostShattering::TwoPhase
                } else {
                    PostShattering::OnePhase
                };
                let (mis, report) = mis_power(eng, k, &params, seed, post).expect("shatter");
                assert!(
                    check::is_mis_of_power(g, &generators::members(&mis), k),
                    "invalid shattering MIS"
                );
                format!(
                    "{:?}",
                    (
                        mis,
                        report.undecided_after_pre,
                        report.rulers,
                        report.nd_colors
                    )
                )
            }
            Algorithm::AglpRuling { dist } => {
                let candidates: Vec<bool> =
                    (0..g.n()).map(|i| i % 5 != seed as usize % 5).collect();
                let out = ruling_set_with_balls(eng, dist, &candidates, None);
                assert!(
                    check::is_alpha_independent(g, &generators::members(&out.ruling_set), dist + 1),
                    "AGLP rulers not independent"
                );
                format!("{:?}", (out.ruling_set, out.ball_of, out.domination_bound))
            }
            Algorithm::BetaRuling { k, beta } => {
                let rs = beta_ruling_set(eng, k, beta, seed);
                assert!(
                    check::is_ruling_set(g, &rs, k + 1, k * beta),
                    "invalid beta ruling set"
                );
                format!("{rs:?}")
            }
            Algorithm::DetRulingK2 { k } => {
                let out = det_ruling_set_k2(eng, k, &params, seed);
                assert!(
                    check::is_ruling_set(g, &out.ruling_set, k + 1, k * k),
                    "invalid det (k+1,k^2) ruling set"
                );
                format!("{:?}", (out.ruling_set, out.q, out.mis_rounds))
            }
            Algorithm::PowerNd { k } => {
                let nd = power_nd(eng, k, &params).expect("nd");
                let view = check::DecompositionView {
                    cluster: &nd.cluster,
                    color: &nd.color,
                };
                let errors = check::check_decomposition(
                    g,
                    &view,
                    diameter_bound(k, g.n()),
                    2 * k as u32,
                    true,
                );
                assert!(errors.is_empty(), "decomposition invalid: {errors:?}");
                format!("{:?}", (nd.cluster, nd.color, nd.num_colors))
            }
            Algorithm::Sparsifier { k, derandomized } => {
                let strategy = if derandomized {
                    SamplingStrategy::SeedSearch
                } else {
                    SamplingStrategy::Randomized { seed }
                };
                let q0 = vec![true; g.n()];
                let out = sparsify_power(eng, k, &q0, &params, strategy).expect("sparsify");
                assert!(
                    check::satisfies_sparsifier_i3(g, k, &out.q, &out.trees.knowledge()),
                    "sparsifier I3 violated"
                );
                format!("{:?}", (&out.q, &out.trees))
            }
        }
    }
}

/// One conformance case: a seeded graph plus an algorithm to run on it.
pub struct Case {
    /// Label for assertion messages.
    pub name: &'static str,
    /// The communication graph.
    pub graph: Graph,
    /// Seed for the algorithm's randomness.
    pub seed: u64,
    /// What to run.
    pub algorithm: Algorithm,
}

impl Case {
    /// Builds a case.
    pub fn new(name: &'static str, graph: Graph, seed: u64, algorithm: Algorithm) -> Self {
        Self {
            name,
            graph,
            seed,
            algorithm,
        }
    }
}

/// The engine configuration the conformance matrix runs under: the
/// standard bandwidth **with per-edge accounting enabled**, so the
/// bit-for-bit [`Metrics`] comparison covers the full per-edge traffic
/// vectors, not just the aggregates. The aggregate-only mode (per-edge
/// accounting off, the default) is exercised separately by
/// `assert_case_conformance_with` in `matrix.rs`.
pub fn case_config(case: &Case) -> SimConfig {
    SimConfig::for_graph(&case.graph).with_per_edge_accounting()
}

/// Runs the case on the sequential reference engine under `config`;
/// returns its canonical output and full metrics.
pub fn reference_with(case: &Case, config: SimConfig) -> (String, Metrics) {
    let mut seq = Simulator::new(&case.graph, config);
    let out = case.algorithm.run(&case.graph, &mut seq, case.seed);
    (out, RoundEngine::metrics(&seq).clone())
}

/// Runs the case on the sequential reference engine (per-edge
/// accounting enabled); returns its canonical output and full metrics.
pub fn reference(case: &Case) -> (String, Metrics) {
    reference_with(case, case_config(case))
}

/// Asserts that `factory`'s backend reproduces the sequential reference
/// bit-for-bit under an explicit [`SimConfig`] — outputs and full
/// [`Metrics`] including `peak_queue_depth` (and, when the config
/// enables accounting, the per-edge counters) — at every shard count in
/// `shard_grid`.
pub fn assert_case_conformance_with<F: EngineFactory>(
    factory: &F,
    case: &Case,
    shard_grid: &[usize],
    config: SimConfig,
) {
    let (want, want_m) = reference_with(case, config);
    for &shards in shard_grid {
        let mut eng = factory.build(&case.graph, config, shards);
        let got = case.algorithm.run(&case.graph, &mut eng, case.seed);
        assert_eq!(
            got,
            want,
            "{}: output diverged on {} at {shards} shards",
            case.name,
            factory.label()
        );
        assert_eq!(
            RoundEngine::metrics(&eng),
            &want_m,
            "{}: metrics diverged on {} at {shards} shards",
            case.name,
            factory.label()
        );
    }
}

/// Asserts conformance under the standard matrix configuration
/// ([`case_config`]: per-edge accounting on).
pub fn assert_case_conformance<F: EngineFactory>(factory: &F, case: &Case, shard_grid: &[usize]) {
    assert_case_conformance_with(factory, case, shard_grid, case_config(case));
}

/// The curated deterministic matrix: every algorithm of the
/// reproduction on at least one random and (where meaningful) one
/// structured topology, with `k ∈ {1, 2}` both represented and `k = 3`
/// on Theorem 1.1's derandomized path.
pub fn full_matrix() -> Vec<Case> {
    use Algorithm::*;
    vec![
        Case::new(
            "luby/gnp-k2",
            generators::connected_gnp(120, 5.0 / 120.0, 11),
            11,
            LubyMis { k: 2 },
        ),
        Case::new("luby/grid-k1", generators::grid(9, 8), 5, LubyMis { k: 1 }),
        Case::new(
            "beeping/gnp-k2",
            generators::connected_gnp(90, 6.0 / 90.0, 23),
            23,
            BeepingMis { k: 2 },
        ),
        Case::new(
            "shatter-1p/gnp-k1",
            generators::connected_gnp(80, 6.0 / 80.0, 37),
            37,
            ShatterMis {
                k: 1,
                two_phase: false,
            },
        ),
        // Post-shattering runs here, and its charged sub-simulations
        // bill 52 of the 120 rounds.
        Case::new(
            "shatter-1p/grid-k1",
            generators::grid(16, 8),
            42,
            ShatterMis {
                k: 1,
                two_phase: false,
            },
        ),
        Case::new(
            "shatter-2p/gnp-k2",
            generators::connected_gnp(64, 5.0 / 64.0, 41),
            41,
            ShatterMis {
                k: 2,
                two_phase: true,
            },
        ),
        Case::new(
            "aglp/gnp-d2",
            generators::connected_gnp(100, 5.0 / 100.0, 13),
            13,
            AglpRuling { dist: 2 },
        ),
        Case::new(
            "beta/gnp-k2b3",
            generators::connected_gnp(96, 6.0 / 96.0, 17),
            17,
            BetaRuling { k: 2, beta: 3 },
        ),
        Case::new(
            "detk2/grid-k2",
            generators::grid(8, 8),
            3,
            DetRulingK2 { k: 2 },
        ),
        Case::new(
            "detk2/gnp-k1",
            generators::connected_gnp(60, 5.0 / 60.0, 29),
            29,
            DetRulingK2 { k: 1 },
        ),
        // Two tree extensions (Lemma 4.1) on the derandomized path, so
        // their per-node merges run on every backend and shard count.
        Case::new(
            "detk2/gnp-k3",
            generators::connected_gnp(64, 5.0 / 64.0, 43),
            43,
            DetRulingK2 { k: 3 },
        ),
        Case::new("nd/torus-k2", generators::torus(8, 8), 1, PowerNd { k: 2 }),
        Case::new(
            "sparsify-det/gnp-k1",
            generators::connected_gnp(72, 5.0 / 72.0, 19),
            19,
            Sparsifier {
                k: 1,
                derandomized: true,
            },
        ),
        Case::new(
            "sparsify-rand/gnp-k2",
            generators::connected_gnp(72, 6.0 / 72.0, 31),
            31,
            Sparsifier {
                k: 2,
                derandomized: false,
            },
        ),
    ]
}

/// Runs the full deterministic matrix for one backend at [`SHARD_GRID`].
pub fn run_full_matrix<F: EngineFactory>(factory: &F) {
    for case in full_matrix() {
        assert_case_conformance(factory, &case, &SHARD_GRID);
    }
}
