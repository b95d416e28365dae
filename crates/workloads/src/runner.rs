//! The experiment runner: materializes a [`Scenario`], executes it on the
//! requested [`powersparse_congest::engine::RoundEngine`] backend,
//! re-verifies the output with the `powersparse_graphs::check` predicates
//! and records everything in a [`RunRecord`].
//!
//! Nothing here trusts an algorithm: a run only counts as passed when the
//! slow, obviously-correct checkers agree (MIS independence + maximality,
//! ruling-set packing + covering, sparsifier invariant I3 + domination).

use crate::manifest::{PhaseWall, RunRecord, SuiteManifest, Validation, WallStats};
use crate::scenario::{AlgorithmSpec, EngineSpec, Scenario};
use powersparse::mis::{beeping_mis, luby_mis, mis_power, PostShattering, ShatterReport};
use powersparse::nd::{diameter_bound, power_nd, NetworkDecomposition};
use powersparse::params::TheoryParams;
use powersparse::ruling::{
    beta_ruling_set, det_ruling_set_k2, id_ruling_set, ruling_set_with_balls,
};
use powersparse::sparsify::{sparsify_power, SamplingStrategy, SparsifyOutcome};
use powersparse_congest::engine::{Metrics, RoundEngine};
use powersparse_congest::probe::{NoProbe, Probe, SpanProbe};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::{PooledSimulator, ProcessSimulator};
use powersparse_graphs::{bfs, check, generators, power, Graph, NodeId};
use std::time::Instant;

/// The laptop-scale theory constants every suite run uses, the paper
/// profile included (see "Scaled constants" in
/// [`powersparse::params`](powersparse::params#substitutions)).
pub fn suite_params() -> TheoryParams {
    TheoryParams::scaled()
}

/// How often a scenario's run phase is executed for wall-clock
/// statistics: `warmup` discarded invocations, then `invocations` timed
/// ones, each running the algorithm once on a fresh engine and
/// contributing one sample. Counters are taken from the first measured
/// run and asserted identical across invocations — only wall clock may
/// vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeat {
    /// Timed invocations (one wall sample each). Must be ≥ 1.
    pub invocations: usize,
    /// Discarded warmup invocations before measurement starts.
    pub warmup: usize,
}

impl Repeat {
    /// The default non-repeated measurement: one invocation, no
    /// warmup — exactly the pre-statistics runner behavior.
    pub fn once() -> Self {
        Self {
            invocations: 1,
            warmup: 0,
        }
    }
}

impl Default for Repeat {
    fn default() -> Self {
        Self::once()
    }
}

/// What an algorithm produced, in the shape its checker wants.
enum AlgOutput {
    /// A membership mask (MIS of `G^k`), with the shattering pipeline's
    /// diagnostics when it produced the mask.
    Mask(Vec<bool>, Option<ShatterReport>),
    /// An explicit node set with its `(α, β)` ruling-set targets.
    RulingSet {
        set: Vec<NodeId>,
        alpha: usize,
        beta: usize,
    },
    /// A sparsifier outcome (mask + I3 state).
    Sparsifier(Box<SparsifyOutcome>),
    /// A network decomposition of `G^k`.
    Decomposition(NetworkDecomposition),
}

/// Executes one scenario end to end.
///
/// # Errors
///
/// Returns `Err` only for *specification* problems (invalid scenario,
/// algorithm failure such as an exhausted seed scan) — a run that merely
/// fails validation still returns `Ok` with
/// `record.validation.passed == false`, so a suite can report it.
pub fn run_scenario(sc: &Scenario) -> Result<RunRecord, String> {
    run_scenario_with(sc, Repeat::once())
}

/// One run-phase execution: builds a fresh engine for the scenario's
/// backend with `probe` attached, runs the algorithm, and returns the
/// output, the final metrics and the probe. Suite runs pass [`NoProbe`],
/// which is what every plain engine constructor attaches, so they
/// compile to the un-probed engine.
fn execute<P: Probe>(
    g: &Graph,
    config: SimConfig,
    sc: &Scenario,
    probe: P,
) -> Result<(AlgOutput, Metrics, P), String> {
    match sc.engine {
        EngineSpec::Sequential => {
            let mut sim = Simulator::with_probe(g, config, probe);
            let out = run_generic(&mut sim, sc)?;
            Ok((out, RoundEngine::metrics(&sim).clone(), sim.into_probe()))
        }
        EngineSpec::Pooled { shards } => {
            let mut sim = PooledSimulator::with_probe(g, config, shards, probe);
            let out = run_generic(&mut sim, sc)?;
            Ok((out, RoundEngine::metrics(&sim).clone(), sim.into_probe()))
        }
        EngineSpec::Process { shards } => {
            let mut sim = ProcessSimulator::with_probe(g, config, shards, probe);
            let out = run_generic(&mut sim, sc)?;
            Ok((out, RoundEngine::metrics(&sim).clone(), sim.into_probe()))
        }
    }
}

/// Executes one scenario with an explicit repetition scheme (see
/// [`run_scenario`] for the error contract).
///
/// # Errors
///
/// As [`run_scenario`]; additionally rejects a [`Repeat`] with zero
/// invocations, and reports counters that drift between invocations of
/// the same scenario (which would mean the run is not deterministic and
/// its statistics meaningless).
pub fn run_scenario_with(sc: &Scenario, rep: Repeat) -> Result<RunRecord, String> {
    run_probed(sc, rep, || NoProbe).map(|(record, _)| record)
}

/// Runs one scenario `repeats` times with a [`SpanProbe`] attached (the
/// `experiments profile` front end). Returns the run's record, whose
/// counters every repeat reproduced, and one probe per repeat: check
/// each with [`crate::profile::trace_violations`] and aggregate them with
/// [`crate::profile::breakdown`].
///
/// # Errors
///
/// As [`run_scenario_with`] with `repeats` invocations and no warmup.
pub fn profile_scenario(
    sc: &Scenario,
    repeats: usize,
) -> Result<(RunRecord, Vec<SpanProbe>), String> {
    let rep = Repeat {
        invocations: repeats,
        warmup: 0,
    };
    run_probed(sc, rep, SpanProbe::new)
}

/// The one run path: builds the graph, runs `rep.warmup` discarded and
/// `rep.invocations` timed executions, each with a fresh `probe()`
/// attached, and validates the first execution's output.
fn run_probed<P: Probe>(
    sc: &Scenario,
    rep: Repeat,
    probe: impl Fn() -> P,
) -> Result<(RunRecord, Vec<P>), String> {
    sc.validate_spec()?;
    if rep.invocations == 0 {
        return Err("repeat needs at least one invocation".into());
    }
    let t = Instant::now();
    let g = sc.family.build(sc.seed);
    let build_us = t.elapsed().as_micros() as u64;
    let config = SimConfig::for_graph(&g);

    for _ in 0..rep.warmup {
        execute(&g, config, sc, NoProbe)?;
    }

    let mut samples: Vec<f64> = Vec::with_capacity(rep.invocations);
    let mut probes: Vec<P> = Vec::with_capacity(rep.invocations);
    let mut first: Option<(AlgOutput, Metrics)> = None;
    for _ in 0..rep.invocations {
        let t = Instant::now();
        let (out, metrics, p) = execute(&g, config, sc, probe())?;
        samples.push(t.elapsed().as_micros() as f64);
        probes.push(p);
        match &first {
            None => first = Some((out, metrics)),
            Some((_, m0)) => {
                if *m0 != metrics {
                    return Err(format!(
                        "counters drifted between invocations of {} — \
                         rounds {} vs {}, messages {} vs {}",
                        sc.name(),
                        m0.rounds,
                        metrics.rounds,
                        m0.messages,
                        metrics.messages
                    ));
                }
            }
        }
    }
    let (output, metrics) = first.expect("invocations >= 1");
    let wall_stats = WallStats::from_samples(&samples);
    let run_us = samples[0] as u64;

    let t = Instant::now();
    let (validation, output_size) = validate(&g, sc, &output);
    let validate_us = t.elapsed().as_micros() as u64;

    let wall = PhaseWall {
        build_us,
        run_us,
        validate_us,
    };
    Ok((
        record(sc, &g, &metrics, wall, wall_stats, validation, output_size),
        probes,
    ))
}

/// Executes a whole scenario matrix, in order.
///
/// # Errors
///
/// Propagates the first specification/algorithm error (validation
/// failures do not abort the suite; they are recorded per run).
pub fn run_suite(suite: &str, scenarios: &[Scenario]) -> Result<SuiteManifest, String> {
    run_suite_with(suite, scenarios, Repeat::once())
}

/// Executes a whole scenario matrix with an explicit repetition scheme.
///
/// # Errors
///
/// As [`run_suite`].
pub fn run_suite_with(
    suite: &str,
    scenarios: &[Scenario],
    rep: Repeat,
) -> Result<SuiteManifest, String> {
    let runs = scenarios
        .iter()
        .map(|sc| run_scenario_with(sc, rep).map_err(|e| format!("{}: {e}", sc.name())))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SuiteManifest {
        suite: suite.to_string(),
        runs,
    })
}

/// Executes the scenario's algorithm on any [`RoundEngine`] backend —
/// the single execution path since the PR-3 step-API port retired the
/// sequential-only closures.
fn run_generic<E: RoundEngine>(eng: &mut E, sc: &Scenario) -> Result<AlgOutput, String> {
    let n = eng.graph().n();
    match sc.algorithm {
        AlgorithmSpec::LubyMis => Ok(AlgOutput::Mask(luby_mis(eng, sc.k, sc.seed), None)),
        AlgorithmSpec::BeepingMis => Ok(AlgOutput::Mask(beeping_mis(eng, sc.k, sc.seed), None)),
        AlgorithmSpec::ShatterMis { two_phase } => {
            let post = if two_phase {
                PostShattering::TwoPhase
            } else {
                PostShattering::OnePhase
            };
            let (mask, report) = mis_power(eng, sc.k, &suite_params(), sc.seed, post)
                .map_err(|e| format!("shattering MIS failed: {e}"))?;
            Ok(AlgOutput::Mask(mask, Some(report)))
        }
        AlgorithmSpec::Sparsify { derandomized } => {
            let strategy = if derandomized {
                SamplingStrategy::SeedSearch
            } else {
                SamplingStrategy::Randomized { seed: sc.seed }
            };
            let out = sparsify_power(eng, sc.k, &vec![true; n], &suite_params(), strategy)
                .map_err(|e| format!("sparsify failed: {e}"))?;
            Ok(AlgOutput::Sparsifier(Box::new(out)))
        }
        AlgorithmSpec::BetaRulingSet { beta } => {
            let set = beta_ruling_set(eng, sc.k, beta, sc.seed);
            Ok(AlgOutput::RulingSet {
                set,
                alpha: sc.k + 1,
                beta: sc.k * beta,
            })
        }
        AlgorithmSpec::DetRulingK2 => {
            let out = det_ruling_set_k2(eng, sc.k, &suite_params(), sc.seed);
            Ok(AlgOutput::RulingSet {
                set: out.ruling_set,
                alpha: sc.k + 1,
                beta: sc.k * sc.k,
            })
        }
        AlgorithmSpec::IdRuling { c } => {
            let out = id_ruling_set(eng, sc.k, c);
            Ok(AlgOutput::RulingSet {
                set: generators::members(&out.ruling_set),
                alpha: sc.k + 1,
                beta: c as usize * sc.k,
            })
        }
        AlgorithmSpec::AglpRuling => {
            let out = ruling_set_with_balls(eng, sc.k, &vec![true; n], None);
            Ok(AlgOutput::RulingSet {
                set: generators::members(&out.ruling_set),
                alpha: sc.k + 1,
                beta: out.domination_bound,
            })
        }
        AlgorithmSpec::PowerNd => {
            let nd = power_nd(eng, sc.k, &suite_params())
                .map_err(|e| format!("network decomposition failed: {e}"))?;
            Ok(AlgOutput::Decomposition(nd))
        }
    }
}

/// Re-verifies the output with the `check` predicates; returns the
/// verdict and the output cardinality.
fn validate(g: &Graph, sc: &Scenario, output: &AlgOutput) -> (Validation, u64) {
    let k = sc.k;
    match output {
        AlgOutput::Mask(mask, shatter) => {
            let members = generators::members(mask);
            let passed = check::is_mis_of_power(g, &members, k);
            let mut detail = if passed {
                format!(
                    "MIS of G^{k}: independent + maximal, |S| = {}",
                    members.len()
                )
            } else {
                format!("INVALID MIS of G^{k} (|S| = {})", members.len())
            };
            if let Some(report) = shatter {
                detail.push_str(&format!(
                    "; undecided after pre-shattering = {}, largest component = {}",
                    report.undecided_after_pre, report.largest_component
                ));
            }
            (Validation { passed, detail }, members.len() as u64)
        }
        AlgOutput::RulingSet { set, alpha, beta } => {
            let passed = check::is_ruling_set(g, set, *alpha, *beta);
            let max_dist = bfs::distances_to_set(g, set)
                .into_iter()
                .flatten()
                .max()
                .unwrap_or(0);
            let detail = format!(
                "{}({alpha}, {beta})-ruling set: packing + covering {}, |S| = {}, \
                 max distance to S = {max_dist}",
                if passed { "" } else { "INVALID " },
                if passed { "hold" } else { "VIOLATED" },
                set.len()
            );
            (Validation { passed, detail }, set.len() as u64)
        }
        AlgOutput::Sparsifier(out) => {
            let members = generators::members(&out.q);
            let i3 = check::satisfies_sparsifier_i3(g, k, &out.q, &out.trees.knowledge());
            let dom_bound = k * k + k;
            let dominating = check::is_beta_dominating(g, &members, dom_bound);
            // The degree bound holds deterministically for the seed scan
            // and w.h.p. for randomized sampling, so it is recorded but
            // only the deterministic invariants gate the verdict.
            let max_deg = power::max_q_degree(g, k, &out.q);
            let target = suite_params().degree_bound(g.n());
            let passed = i3 && dominating;
            let seed_attempts: u64 = out.iterations.iter().map(|it| it.seed_attempts).sum();
            let detail = format!(
                "{}I3 {}, (k²+k)-domination {}; |Q| = {}, max d_{k}(v, Q) = {max_deg} \
                 (target ≤ {target}), seed attempts = {seed_attempts}",
                if passed { "" } else { "INVALID: " },
                if i3 { "holds" } else { "VIOLATED" },
                if dominating { "holds" } else { "VIOLATED" },
                members.len(),
            );
            (Validation { passed, detail }, members.len() as u64)
        }
        AlgOutput::Decomposition(nd) => {
            let bound = diameter_bound(k, g.n());
            let errors = check::check_decomposition(g, &nd.view(), bound, 2 * k as u32, true);
            let passed = errors.is_empty();
            let detail = if passed {
                format!(
                    "ND of G^{k}: cover + weak diameter ≤ {bound} + separation > {} hold; \
                     {} clusters in {} colors",
                    2 * k,
                    nd.color.len(),
                    nd.num_colors
                )
            } else {
                format!("INVALID ND of G^{k}: {errors:?}")
            };
            (Validation { passed, detail }, nd.color.len() as u64)
        }
    }
}

fn record(
    sc: &Scenario,
    g: &Graph,
    metrics: &Metrics,
    wall: PhaseWall,
    wall_stats: WallStats,
    validation: Validation,
    output_size: u64,
) -> RunRecord {
    RunRecord {
        name: sc.name(),
        family: sc.family.id().to_string(),
        graph: sc.family.label(),
        n: g.n() as u64,
        m: g.m() as u64,
        max_degree: g.max_degree() as u64,
        k: sc.k as u64,
        seed: sc.seed,
        algorithm: sc.algorithm.id(),
        engine: sc.engine.id().to_string(),
        shards: sc.engine.shards() as u64,
        rounds: metrics.rounds,
        charged_rounds: metrics.charged_rounds,
        messages: metrics.messages,
        bits: metrics.bits,
        peak_queue_depth: metrics.peak_queue_depth,
        arena_cells_peak: metrics.arena_cells_peak,
        arena_bytes_peak: metrics.arena_bytes_peak,
        output_size,
        wall,
        wall_stats,
        validation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GraphFamily;

    #[test]
    fn luby_scenario_runs_and_validates() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
            .k(2)
            .seed(3);
        let rec = run_scenario(&sc).unwrap();
        assert!(rec.validation.passed, "{}", rec.validation.detail);
        assert_eq!(rec.n, 36);
        assert_eq!(rec.m, 60);
        assert!(rec.rounds > 0);
        assert!(rec.messages > 0);
        assert!(rec.peak_queue_depth > 0);
        assert!(rec.output_size > 0);
    }

    #[test]
    fn sparsifier_scenario_validates_i3() {
        let sc = Scenario::new(GraphFamily::Torus { rows: 8, cols: 8 }).algorithm(
            AlgorithmSpec::Sparsify {
                derandomized: false,
            },
        );
        let rec = run_scenario(&sc).unwrap();
        assert!(rec.validation.passed, "{}", rec.validation.detail);
        assert!(rec.validation.detail.contains("I3 holds"));
    }

    #[test]
    fn ruling_set_scenarios_validate() {
        let sc = Scenario::new(GraphFamily::Gnp {
            n: 96,
            avg_deg: 6.0,
        })
        .seed(5)
        .algorithm(AlgorithmSpec::BetaRulingSet { beta: 3 });
        let rec = run_scenario(&sc).unwrap();
        assert!(rec.validation.passed, "{}", rec.validation.detail);

        for (algorithm, id) in [
            (AlgorithmSpec::DetRulingK2, "det_ruling_k2"),
            (AlgorithmSpec::IdRuling { c: 3 }, "id_ruling(c=3)"),
            (AlgorithmSpec::AglpRuling, "aglp_ruling"),
        ] {
            let sc = Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
                .k(2)
                .algorithm(algorithm);
            let rec = run_scenario(&sc).unwrap();
            assert!(rec.validation.passed, "{}", rec.validation.detail);
            assert_eq!(rec.algorithm, id);
            assert!(
                rec.validation.detail.contains("max distance to S"),
                "{}",
                rec.validation.detail
            );
        }
    }

    #[test]
    fn formerly_rejected_combinations_now_run_pooled() {
        // Before the PR-3 port these scenario × engine pairs were spec
        // errors; now they execute on the pooled engine and validate.
        for sc in [
            Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
                .algorithm(AlgorithmSpec::DetRulingK2)
                .pooled(2),
            Scenario::new(GraphFamily::Gnp {
                n: 72,
                avg_deg: 6.0,
            })
            .seed(9)
            .algorithm(AlgorithmSpec::BetaRulingSet { beta: 2 })
            .pooled(3),
            Scenario::new(GraphFamily::Gnp {
                n: 64,
                avg_deg: 5.0,
            })
            .seed(4)
            .algorithm(AlgorithmSpec::BeepingMis)
            .pooled(4),
            Scenario::new(GraphFamily::Gnp {
                n: 64,
                avg_deg: 5.0,
            })
            .seed(8)
            .algorithm(AlgorithmSpec::ShatterMis { two_phase: false })
            .pooled(2),
            Scenario::new(GraphFamily::Torus { rows: 6, cols: 6 })
                .k(2)
                .algorithm(AlgorithmSpec::PowerNd)
                .pooled(2),
        ] {
            let rec = run_scenario(&sc).unwrap();
            assert!(
                rec.validation.passed,
                "{}: {}",
                rec.name, rec.validation.detail
            );
            assert_eq!(rec.engine, "pooled");
        }
    }

    #[test]
    fn nd_scenario_validates_decomposition() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 7, cols: 7 })
            .k(2)
            .algorithm(AlgorithmSpec::PowerNd);
        let rec = run_scenario(&sc).unwrap();
        assert!(rec.validation.passed, "{}", rec.validation.detail);
        assert!(rec.validation.detail.contains("clusters"));
        assert!(rec.output_size >= 1);
    }

    #[test]
    fn spec_errors_are_reported() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 }).pooled(0);
        assert!(run_scenario(&sc).is_err());
        let mut sc = Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 });
        sc.k = 0;
        assert!(run_scenario(&sc).is_err());
    }

    #[test]
    fn engines_agree_on_costs_and_output() {
        let base = Scenario::new(GraphFamily::ClusterGrid {
            rows: 3,
            cols: 3,
            cluster: 4,
        })
        .k(2)
        .seed(9);
        let seq = run_scenario(&base.clone().sequential()).unwrap();
        for par in [
            run_scenario(&base.clone().pooled(3)).unwrap(),
            run_scenario(&base.process(3)).unwrap(),
        ] {
            assert!(seq.validation.passed && par.validation.passed);
            assert_eq!(seq.rounds, par.rounds, "{}", par.name);
            assert_eq!(seq.messages, par.messages, "{}", par.name);
            assert_eq!(seq.bits, par.bits, "{}", par.name);
            assert_eq!(seq.peak_queue_depth, par.peak_queue_depth, "{}", par.name);
            assert_eq!(seq.output_size, par.output_size, "{}", par.name);
        }
    }

    #[test]
    fn repeated_runs_collect_wall_stats_and_keep_counters_exact() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 5, cols: 5 }).seed(2);
        let rep = Repeat {
            invocations: 3,
            warmup: 1,
        };
        let rec = run_scenario_with(&sc, rep).unwrap();
        assert_eq!(rec.wall_stats.samples, 3);
        assert!(rec.wall_stats.min_us <= rec.wall_stats.mean_us);
        assert!(rec.wall_stats.mean_us <= rec.wall_stats.max_us);
        assert!(rec.wall_stats.ci95_us >= 0.0);
        // Counters are the deterministic single-run values.
        let base = run_scenario(&sc).unwrap();
        assert_eq!(rec.rounds, base.rounds);
        assert_eq!(rec.messages, base.messages);
        assert_eq!(rec.bits, base.bits);
        assert_eq!(rec.arena_cells_peak, base.arena_cells_peak);
        assert_eq!(base.wall_stats.samples, 1);
        assert_eq!(base.wall_stats.mean_us, base.wall.run_us as f64);
    }

    #[test]
    fn full_trace_reconciles_with_the_counters() {
        // A pooled Luby run, and a sequential shattering run whose
        // post-shattering phases charge rounds.
        for sc in [
            Scenario::new(GraphFamily::Grid { rows: 5, cols: 5 })
                .seed(2)
                .pooled(3),
            Scenario::new(GraphFamily::Grid { rows: 16, cols: 8 })
                .algorithm(AlgorithmSpec::ShatterMis { two_phase: false }),
        ] {
            let (rec, probes) = profile_scenario(&sc, 2).unwrap();
            assert!(rec.validation.passed, "{}", rec.validation.detail);
            assert_eq!(probes.len(), 2);
            for probe in &probes {
                assert_eq!(probe.rounds.len() as u64, rec.rounds);
                let msgs: u64 = probe.rounds.iter().map(|r| r.messages).sum();
                let bits: u64 = probe.rounds.iter().map(|r| r.bits).sum();
                assert_eq!((msgs, bits), (rec.messages, rec.bits));
                for (i, obs) in probe.rounds.iter().enumerate() {
                    assert_eq!(obs.round, i as u64);
                }
                assert_eq!(
                    crate::profile::trace_violations(probe, &rec),
                    Vec::<String>::new()
                );
            }
            // The probe changes no counter.
            let counters = |r: &RunRecord| (r.rounds, r.charged_rounds, r.messages, r.bits);
            assert_eq!(counters(&rec), counters(&run_scenario(&sc).unwrap()));
        }
    }

    #[test]
    fn trace_violations_catch_a_missing_charged_observation() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 16, cols: 8 })
            .algorithm(AlgorithmSpec::ShatterMis { two_phase: false });
        let (rec, mut probes) = profile_scenario(&sc, 1).unwrap();
        assert!(rec.charged_rounds > 0, "the row must charge rounds");
        let mut probe = probes.pop().unwrap();
        let charged = probe.spans.iter().position(|s| s.shards() == 0).unwrap();
        probe.rounds.remove(charged);
        let bad = crate::profile::trace_violations(&probe, &rec);
        assert!(bad.iter().any(|v| v.contains("observations")), "{bad:?}");
    }

    #[test]
    fn zero_repeat_counts_are_spec_errors() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 });
        let rep = Repeat {
            invocations: 0,
            warmup: 0,
        };
        assert!(run_scenario_with(&sc, rep).is_err());
        assert!(profile_scenario(&sc, 0).is_err());
    }

    #[test]
    fn pooled_scenarios_run_and_validate() {
        for sc in [
            Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
                .k(2)
                .seed(3)
                .pooled(4),
            Scenario::new(GraphFamily::Torus { rows: 6, cols: 6 })
                .algorithm(AlgorithmSpec::Sparsify {
                    derandomized: false,
                })
                .pooled(2),
            Scenario::new(GraphFamily::Gnp {
                n: 72,
                avg_deg: 6.0,
            })
            .seed(9)
            .algorithm(AlgorithmSpec::BetaRulingSet { beta: 2 })
            .pooled(3),
        ] {
            let rec = run_scenario(&sc).unwrap();
            assert!(
                rec.validation.passed,
                "{}: {}",
                rec.name, rec.validation.detail
            );
            assert_eq!(rec.engine, "pooled");
            assert!(rec.name.contains("/pooled"), "{}", rec.name);
        }
    }
}
