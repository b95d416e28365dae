//! Span-structure conformance: the *timings* in a [`RoundSpans`] are
//! backend-shaped and never compared, but the span **structure** is part
//! of the engine contract (see `powersparse_congest::probe`'s "Span
//! emission points"):
//!
//! * one `RoundSpans` per `Metrics::rounds` entry, in round order,
//!   paired index-for-index with the `RoundObs` trace;
//! * `step`/`transfer` vectors of length = shard count (the sequential
//!   engine is its own single shard), `barrier` present exactly on the
//!   parallel backends, and all vectors empty on charged rounds —
//!   identical between the pooled and process backends at the same
//!   shard count (the process backend's transfer timings come from its
//!   children's `RoundStats` frames);
//! * the per-shard `arena_cells` gauge sums to the same engine-invariant
//!   transfer-start footprint on every backend at every shard count.

use crate::harness::{case_config, full_matrix, Case, SHARD_GRID};
use powersparse_congest::engine::RoundEngine;
use powersparse_congest::probe::{probe_vec, NoProbe, Probe, RoundSpans, SpanProbe};
use powersparse_congest::sim::Simulator;
use powersparse_engine::{PooledSimulator, ProcessSimulator};

/// The matrix slice the span sweep runs (one case per algorithm family
/// with nontrivial round structure — quiet transfer rounds, charged
/// rounds and multi-phase runs are all represented).
const SPAN_CASES: [&str; 4] = [
    "luby/gnp-k2",
    "shatter-1p/gnp-k1",
    "shatter-1p/grid-k1",
    "detk2/grid-k2",
];

/// Asserts the invariants every backend's span trace must satisfy on
/// its own: length equal to the round counter, dense in-order round
/// indices paired with the observation trace, and per-round structure
/// that is either uniformly `shards`-wide (executed) or empty (charged).
fn assert_spans_well_formed(probe: &SpanProbe, rounds: u64, shards: usize, label: &str) {
    assert_eq!(probe.spans.len() as u64, rounds, "{label}: span count");
    assert_eq!(
        probe.spans.len(),
        probe.rounds.len(),
        "{label}: spans must pair with round observations"
    );
    for (i, spans) in probe.spans.iter().enumerate() {
        assert_eq!(spans.round, i as u64, "{label}: span round index");
        assert_eq!(
            spans.round, probe.rounds[i].round,
            "{label}: span/observation pairing"
        );
        let barrier = if shards == 0 {
            0
        } else {
            spans.barrier_ns.len()
        };
        let want = if spans.shards() == 0 {
            (0, 0, 0) // charged round: every vector empty
        } else {
            (shards.max(1), shards.max(1), barrier)
        };
        assert_eq!(spans.structure(), want, "{label}: round {i} span structure");
        assert_eq!(
            spans.arena_cells.len(),
            spans.step_ns.len(),
            "{label}: arena gauge rides the same shard index"
        );
    }
}

/// Per-round charged/executed flags plus the engine-invariant arena
/// footprint (the `arena_cells` sum), for cross-engine comparison.
fn span_skeleton(probe: &SpanProbe) -> Vec<(bool, u64)> {
    probe
        .spans
        .iter()
        .map(|s| (s.shards() == 0, s.arena_cells.iter().sum()))
        .collect()
}

#[test]
fn span_structure_is_engine_invariant_at_all_shard_counts() {
    let cases: Vec<Case> = full_matrix()
        .into_iter()
        .filter(|c| SPAN_CASES.contains(&c.name))
        .collect();
    assert_eq!(cases.len(), SPAN_CASES.len(), "matrix renamed a case");
    for case in &cases {
        let config = case_config(case);
        let mut seq = Simulator::with_probe(&case.graph, config, SpanProbe::new());
        let want_out = case.algorithm.run(&case.graph, &mut seq, case.seed);
        let rounds = seq.metrics().rounds;
        let want = seq.into_probe();
        assert_spans_well_formed(&want, rounds, 1, "sequential");
        // The sequential engine never reports a barrier span.
        assert!(
            want.spans.iter().all(|s| s.barrier_ns.is_empty()),
            "{}: sequential engine emitted barrier spans",
            case.name
        );
        let skeleton = span_skeleton(&want);
        for &shards in &SHARD_GRID {
            let mut po = PooledSimulator::with_probe(&case.graph, config, shards, SpanProbe::new());
            let po_out = case.algorithm.run(&case.graph, &mut po, case.seed);
            assert_eq!(po_out, want_out, "{}: pooled output at {shards}", case.name);
            assert_eq!(RoundEngine::metrics(&po).rounds, rounds);
            let po_probe = po.into_probe();

            let mut pr =
                ProcessSimulator::with_probe(&case.graph, config, shards, SpanProbe::new());
            let pr_out = case.algorithm.run(&case.graph, &mut pr, case.seed);
            assert_eq!(
                pr_out, want_out,
                "{}: process output at {shards}",
                case.name
            );
            assert_eq!(RoundEngine::metrics(&pr).rounds, rounds);
            let pr_probe = pr.into_probe();

            for (label, probe) in [("pooled", &po_probe), ("process", &pr_probe)] {
                assert_spans_well_formed(probe, rounds, shards, label);
                // Parallel engines report a barrier span per shard on
                // every executed round.
                for s in &probe.spans {
                    if s.shards() > 0 {
                        assert_eq!(
                            s.barrier_ns.len(),
                            shards,
                            "{}: {label} barrier shards at {shards}",
                            case.name
                        );
                    }
                }
                assert_eq!(
                    span_skeleton(probe),
                    skeleton,
                    "{}: {label} span skeleton (charged pattern + arena \
                     footprint) diverged at {shards} shards",
                    case.name
                );
            }
            // Both parallel backends shard identically, so the whole
            // span structure must agree at the same shard count —
            // thread barriers and wire barriers included.
            let po_structure: Vec<_> = po_probe.spans.iter().map(RoundSpans::structure).collect();
            let pr_structure: Vec<_> = pr_probe.spans.iter().map(RoundSpans::structure).collect();
            assert_eq!(
                po_structure, pr_structure,
                "{}: span structures diverged at {shards} shards",
                case.name
            );
        }
    }
}

#[test]
fn no_probe_engines_allocate_zero_span_storage() {
    // The type-level guarantee: every engine routes its span scratch
    // through `probe_vec`, which is compile-time gated on
    // `Probe::ENABLED` — under `NoProbe` it returns a vector that never
    // touched the allocator.
    const { assert!(!NoProbe::ENABLED) };
    const { assert!(SpanProbe::ENABLED) };
    let off: Vec<u64> = probe_vec::<u64, NoProbe>(1024);
    assert_eq!(off.capacity(), 0, "NoProbe span scratch must not allocate");
    let on: Vec<u64> = probe_vec::<u64, SpanProbe>(1024);
    assert_eq!(on.len(), 1024);
}
