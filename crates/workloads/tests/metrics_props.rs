//! Property tests for the `Metrics` merge invariants across engine
//! backends (the satellite of the pooled-engine PR):
//!
//! * `messages` and `bits` are **monotone per round** on every backend —
//!   merging shard-local counters at a barrier can only add.
//! * `peak_queue_depth` never exceeds the total delivered messages once
//!   a phase has settled (every message counted in a queue snapshot is
//!   eventually delivered on that edge).
//! * On random scenarios (family × k × shards), the pooled and
//!   multi-process backends produce **identical** `RunRecord` counters —
//!   and both match the sequential reference.

use powersparse_congest::engine::{RoundEngine, RoundPhase};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::{PooledSimulator, ProcessSimulator};
use powersparse_graphs::generators;
use powersparse_workloads::{run_scenario, AlgorithmSpec, GraphFamily, Scenario};
use proptest::prelude::*;

/// A random small graph family instance, deterministic per pick/seed.
fn pick_family(pick: usize, n: usize) -> GraphFamily {
    match pick % 6 {
        0 => GraphFamily::Gnp { n, avg_deg: 6.0 },
        1 => GraphFamily::PowerLaw { n, attach: 2 },
        2 => GraphFamily::Grid {
            rows: 6,
            cols: n / 6 + 2,
        },
        3 => GraphFamily::Torus {
            rows: 6,
            cols: n / 6 + 2,
        },
        4 => GraphFamily::Caterpillar {
            spine: n / 3 + 2,
            legs: 2,
        },
        _ => GraphFamily::ClusterGrid {
            rows: 3,
            cols: n / 24 + 1,
            cluster: 4,
        },
    }
}

/// A settled algorithm choice (all suite algorithms drain their phases,
/// so the peak-vs-messages invariant is well-defined at the end).
fn pick_algorithm(pick: usize) -> AlgorithmSpec {
    match pick % 4 {
        0 => AlgorithmSpec::LubyMis,
        1 => AlgorithmSpec::BeepingMis,
        2 => AlgorithmSpec::BetaRulingSet { beta: 2 },
        _ => AlgorithmSpec::Sparsify {
            derandomized: false,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random scenario, three backends: identical counters everywhere,
    /// and `peak_queue_depth ≤ messages` once settled.
    #[test]
    fn all_backend_metrics_identical_on_random_scenarios(
        fam in 0usize..6,
        alg in 0usize..4,
        k in 1usize..3,
        shards in 1usize..7,
        n in 48usize..120,
        seed in 0u64..500,
    ) {
        let base = Scenario::new(pick_family(fam, n))
            .k(k)
            .seed(seed)
            .algorithm(pick_algorithm(alg));
        let seq = run_scenario(&base.clone().sequential()).unwrap();
        let poo = run_scenario(&base.clone().pooled(shards)).unwrap();
        let pro = run_scenario(&base.clone().process(shards)).unwrap();
        prop_assert!(seq.validation.passed, "{}: {}", seq.name, seq.validation.detail);
        for (label, a, rest) in [
            ("rounds", seq.rounds, [poo.rounds, pro.rounds]),
            ("charged_rounds", seq.charged_rounds, [poo.charged_rounds, pro.charged_rounds]),
            ("messages", seq.messages, [poo.messages, pro.messages]),
            ("bits", seq.bits, [poo.bits, pro.bits]),
            ("peak_queue_depth", seq.peak_queue_depth,
                [poo.peak_queue_depth, pro.peak_queue_depth]),
            ("output_size", seq.output_size, [poo.output_size, pro.output_size]),
        ] {
            for (engine, b) in ["pooled", "process"].iter().zip(rest) {
                prop_assert_eq!(
                    a, b,
                    "{}: {} diverged sequential vs {}", base.name(), label, engine
                );
            }
        }
        prop_assert!(
            seq.peak_queue_depth <= seq.messages,
            "peak {} exceeds delivered messages {}",
            seq.peak_queue_depth,
            seq.messages
        );
    }

    /// Per-round monotonicity, observed through deterministic prefix
    /// re-runs (the engine contract makes an execution's prefix
    /// bit-reproducible): `messages`/`bits`/`peak_queue_depth` after
    /// `t + 1` rounds dominate those after `t` rounds, the whole trace
    /// is identical across all three backends, and after the final
    /// settle the peak never exceeds the delivered-message total.
    #[test]
    fn per_round_counters_monotone_and_identical(
        n in 10usize..60,
        rounds in 1usize..6,
        shards in 2usize..6,
        seed in 0u64..300,
    ) {
        let g = generators::connected_gnp(n, 5.0 / n as f64, seed);
        let config = SimConfig::with_bandwidth(16);

        // One expansion per engine type: metrics after 0..=rounds steps
        // of the same seeded program (the last entry also settles).
        macro_rules! prefix_trace {
            ($mk:expr) => {{
                let mut out: Vec<(u64, u64, u64)> = Vec::with_capacity(rounds + 1);
                for t in 0..=rounds {
                    let mut sim = $mk;
                    let mut acc: Vec<u64> = vec![0; n];
                    let mut phase = sim.phase::<u64>();
                    for r in 0..t {
                        phase.step(&mut acc, |a, v, inbox, o| {
                            *a = a.wrapping_add(inbox.len() as u64);
                            // Mixed sizes force fragmentation + queueing.
                            let bits = if (v.0 as usize + r) % 3 == 0 { 40 } else { 6 };
                            o.broadcast(v, u64::from(v.0) ^ r as u64, bits);
                        });
                    }
                    if t == rounds {
                        phase.settle(10_000, &mut acc, |a, _v, inbox| {
                            *a = a.wrapping_add(inbox.len() as u64);
                        });
                    }
                    drop(phase);
                    let m = RoundEngine::metrics(&sim);
                    out.push((m.messages, m.bits, m.peak_queue_depth));
                }
                out
            }};
        }
        let seq_trace = prefix_trace!(Simulator::new(&g, config));
        let poo_trace = prefix_trace!(PooledSimulator::with_shards(&g, config, shards));
        let pro_trace = prefix_trace!(ProcessSimulator::with_shards(&g, config, shards));

        prop_assert_eq!(&seq_trace, &poo_trace, "pooled per-round trace diverged");
        prop_assert_eq!(&seq_trace, &pro_trace, "process per-round trace diverged");
        for w in seq_trace.windows(2) {
            prop_assert!(w[1].0 >= w[0].0, "messages not monotone: {:?}", seq_trace);
            prop_assert!(w[1].1 >= w[0].1, "bits not monotone: {:?}", seq_trace);
            prop_assert!(w[1].2 >= w[0].2, "peak not monotone: {:?}", seq_trace);
        }
        let (final_messages, _, final_peak) = *seq_trace.last().unwrap();
        prop_assert!(final_peak <= final_messages);
    }
}
