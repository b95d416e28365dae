//! Probe-trace conformance: the round-level observations of
//! [`powersparse_congest::probe`] are part of the engine contract. For
//! real algorithm runs, every backend at every shard count must emit
//!
//! * the same number of observations as `Metrics::rounds` (charged
//!   rounds included),
//! * bit-for-bit identical engine-invariant cores
//!   `(round, active_edges, dirty_nodes, messages, bits)`,
//! * identical [`PhaseObs`] sequences, and
//! * per-shard splice volumes that sum to the round's message count —
//!   with the *whole* splice vector equal between the pooled and
//!   process backends at the same shard count (they shard identically;
//!   the process backend reports splice volumes from its children's
//!   `Deliveries` frame counts).

use crate::harness::{case_config, full_matrix, Case, SHARD_GRID};
use powersparse_congest::engine::RoundEngine;
use powersparse_congest::probe::{PhaseObs, SpanProbe};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::{PooledSimulator, ProcessSimulator};
use powersparse_graphs::generators;
use proptest::prelude::*;

/// The representative slice of the deterministic matrix the trace
/// comparison sweeps (the full matrix already runs per backend in
/// `matrix.rs`; traces add a third dimension, so we keep one case per
/// algorithm family with nontrivial round structure).
const PROBE_CASES: [&str; 6] = [
    "luby/gnp-k2",
    "shatter-1p/gnp-k1",
    "shatter-1p/grid-k1",
    "detk2/grid-k2",
    "sparsify-det/gnp-k1",
    "beeping/gnp-k2",
];

/// Runs `case` on the sequential reference with a [`SpanProbe`];
/// returns output, trace and final round count.
fn traced_reference(case: &Case, config: SimConfig) -> (String, SpanProbe, u64) {
    let mut seq = Simulator::with_probe(&case.graph, config, SpanProbe::new());
    let out = case.algorithm.run(&case.graph, &mut seq, case.seed);
    let rounds = seq.metrics().rounds;
    (out, seq.into_probe(), rounds)
}

/// Asserts the invariants every backend's trace must satisfy on its own
/// (before any cross-engine comparison): dense 0-based round indices,
/// length equal to the round counter, splice sums equal to messages,
/// and empty splices exactly on charged rounds.
fn assert_trace_well_formed(trace: &SpanProbe, rounds: u64, label: &str) {
    assert_eq!(trace.rounds.len() as u64, rounds, "{label}: trace length");
    for (i, obs) in trace.rounds.iter().enumerate() {
        assert_eq!(obs.round, i as u64, "{label}: round index out of order");
        assert_eq!(
            obs.shard_splice.iter().sum::<u64>(),
            obs.messages,
            "{label}: splice volumes must sum to the round's messages"
        );
    }
}

#[test]
fn traces_agree_across_engines_at_all_shard_counts() {
    let cases: Vec<Case> = full_matrix()
        .into_iter()
        .filter(|c| PROBE_CASES.contains(&c.name))
        .collect();
    assert_eq!(cases.len(), PROBE_CASES.len(), "matrix renamed a case");
    let mut charged = 0;
    for case in &cases {
        let config = case_config(case);
        let (want_out, want, rounds) = traced_reference(case, config);
        assert_trace_well_formed(&want, rounds, case.name);
        charged += want.spans.iter().filter(|s| s.shards() == 0).count();
        for &shards in &SHARD_GRID {
            let mut po = PooledSimulator::with_probe(&case.graph, config, shards, SpanProbe::new());
            let po_out = case.algorithm.run(&case.graph, &mut po, case.seed);
            assert_eq!(po_out, want_out, "{}: pooled output at {shards}", case.name);
            assert_eq!(RoundEngine::metrics(&po).rounds, rounds);
            let po_trace = po.into_probe();

            let mut pr =
                ProcessSimulator::with_probe(&case.graph, config, shards, SpanProbe::new());
            let pr_out = case.algorithm.run(&case.graph, &mut pr, case.seed);
            assert_eq!(
                pr_out, want_out,
                "{}: process output at {shards}",
                case.name
            );
            assert_eq!(RoundEngine::metrics(&pr).rounds, rounds);
            let pr_trace = pr.into_probe();

            for (label, trace) in [("pooled", &po_trace), ("process", &pr_trace)] {
                assert_trace_well_formed(trace, rounds, label);
                assert_eq!(
                    trace.cores(),
                    want.cores(),
                    "{}: {label} trace core diverged at {shards} shards",
                    case.name
                );
                assert_eq!(
                    trace.phases, want.phases,
                    "{}: {label} phase trace diverged at {shards} shards",
                    case.name
                );
            }
            // Both parallel backends shard identically, so even the
            // backend-shaped splice vectors must agree whole — the
            // process backend's come back over the wire.
            assert_eq!(
                po_trace.rounds, pr_trace.rounds,
                "{}: full traces (incl. splice volumes) diverged at {shards} shards",
                case.name
            );
        }
    }
    assert!(charged > 0, "no probe case charges rounds");
}

#[test]
fn quiet_rounds_fire_zeroed_observations_in_order() {
    // One 35-bit message over a 10-bit edge: three quiet rounds while
    // fragments cross, nothing delivered until round 3, then two charged
    // rounds. Every backend must emit the zeroed observations at their
    // positions.
    let g = generators::path(2);
    let config = SimConfig::with_bandwidth(10);
    let mut traces: Vec<SpanProbe> = Vec::new();
    {
        let mut seq = Simulator::with_probe(&g, config, SpanProbe::new());
        drive(&mut seq);
        traces.push(seq.into_probe());
    }
    for shards in [1usize, 2] {
        let mut po = PooledSimulator::with_probe(&g, config, shards, SpanProbe::new());
        drive(&mut po);
        traces.push(po.into_probe());
        let mut pr = ProcessSimulator::with_probe(&g, config, shards, SpanProbe::new());
        drive(&mut pr);
        traces.push(pr.into_probe());
    }
    for t in &traces {
        let cores = t.cores();
        assert_eq!(cores.len(), 6);
        // Round 0: the send (35 bits enqueued), nothing delivered yet.
        assert_eq!(cores[0], (0, 1, 0, 0, 35));
        // Rounds 1-2: quiet — fragments crossing, zero traffic.
        assert_eq!(cores[1], (1, 1, 0, 0, 0));
        assert_eq!(cores[2], (2, 1, 0, 0, 0));
        // Round 3: the last fragment lands, one delivery.
        assert_eq!(cores[3], (3, 0, 1, 1, 0));
        // Rounds 4-5: charged, zeroed, with empty spans.
        assert_eq!(cores[4], (4, 0, 0, 0, 0));
        assert_eq!(cores[5], (5, 0, 0, 0, 0));
        assert_eq!(t.spans.len(), 6);
        assert!(t.spans[4..].iter().all(|s| s.shards() == 0));
        assert_eq!(
            t.phases,
            vec![PhaseObs {
                phase: 0,
                rounds: 4,
                messages: 1,
                bits: 35,
            }]
        );
    }

    fn drive<E: RoundEngine>(eng: &mut E) {
        use powersparse_congest::engine::RoundPhase;
        use powersparse_graphs::NodeId;
        let mut unit = vec![(); 2];
        let mut phase = eng.phase::<u8>();
        phase.step(&mut unit, |_, v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 7, 35);
            }
        });
        phase.settle(16, &mut unit, |_, _, _| {});
        drop(phase);
        eng.charge_rounds(2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// On random graphs, every backend's trace has dense in-order round
    /// indices (quiet and charged rounds included) and exactly
    /// `Metrics::rounds` entries — the invariant `experiments profile`
    /// re-checks on every run.
    #[test]
    fn trace_length_equals_rounds_on_every_backend(n in 20usize..70, seed in 0u64..300) {
        use crate::harness::Algorithm;
        let g = generators::connected_gnp(n, 4.0 / n as f64, seed);
        let case = Case::new("probe/random", g, seed, Algorithm::LubyMis { k: 2 });
        let config = case_config(&case);
        let (_, want, rounds) = traced_reference(&case, config);
        assert_trace_well_formed(&want, rounds, "sequential");
        for shards in [2usize, 5] {
            let mut po = PooledSimulator::with_probe(&case.graph, config, shards, SpanProbe::new());
            case.algorithm.run(&case.graph, &mut po, case.seed);
            let r = RoundEngine::metrics(&po).rounds;
            prop_assert_eq!(r, rounds);
            assert_trace_well_formed(&po.into_probe(), r, "pooled");
        }
        let mut pr = ProcessSimulator::with_probe(&case.graph, config, 2, SpanProbe::new());
        case.algorithm.run(&case.graph, &mut pr, case.seed);
        let r = RoundEngine::metrics(&pr).rounds;
        prop_assert_eq!(r, rounds);
        assert_trace_well_formed(&pr.into_probe(), r, "process");
    }
}
