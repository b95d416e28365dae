//! `powersparse-workloads` — the scenario corpus and declarative
//! experiment runner of the `powersparse` reproduction.
//!
//! The paper's claims live on *power graphs of structured topologies*:
//! its sparsification bounds matter precisely when `G^k` is dense while
//! `G` stays sparse. This crate turns that into an executable, versioned
//! benchmark surface:
//!
//! * [`Scenario`] — a declarative experiment: graph family × size ×
//!   power `k` × algorithm × engine × shard count. Built fluently
//!   ([`Scenario::new`] + builder methods) or parsed from a TOML-subset
//!   spec file ([`parse_suite`]).
//! * [`builtin_suite`] — the curated matrices: [`SuiteProfile::Smoke`]
//!   spans every graph family (random, power-law, unit-disk, grid/torus,
//!   caterpillar/broom trees, bounded-growth cluster graphs) and all
//!   three engine backends; [`SuiteProfile::Paper`] reproduces the
//!   paper's tables, one validated row per table cell, and
//!   [`SuiteProfile::Engines`] times Luby's MIS on every backend.
//! * [`run_suite`] / [`run_scenario`] — execute any scenario matrix on
//!   the requested [`powersparse_congest::engine::RoundEngine`] backend,
//!   re-verify every output with the `powersparse_graphs::check`
//!   predicates (MIS independence + maximality, ruling-set packing +
//!   covering, sparsifier invariant I3 + domination) and collect rounds,
//!   messages, bits, peak queue depth, arena footprint and per-phase
//!   wall clock. The `_with` variants take a [`Repeat`] scheme (warmup +
//!   timed invocations) that turns the wall clock into [`WallStats`]
//!   (mean/min/max/95% CI).
//! * [`profile_scenario`] — the same run path with a
//!   `powersparse_congest::probe::SpanProbe` on every repeat
//!   (`experiments profile SCENARIO`): [`trace_violations`] re-checks
//!   each probe against the run's counters, and [`breakdown`] and
//!   [`chrome_trace`] read where the wall clock went.
//! * [`SuiteManifest`] — the structured JSON result
//!   (`BENCH_*.json`-ready), with an exact parse/serialize round trip
//!   for cross-run regression diffing.
//! * [`diff_manifests`] — field-by-field manifest comparison
//!   (`experiments suite --diff old.json new.json`): flags every
//!   round/message/bit regression, missing or reshaped scenarios and
//!   validation flips; wall clock gates only
//!   when both sides carry repeat statistics with disjoint confidence
//!   intervals.
//! * [`TrendReport`] — the cross-manifest trajectory (`experiments
//!   trend DIR`): every committed `BENCH_*.json` grouped per scenario,
//!   rounds/messages/bits/wall-clock across history, drift flagged
//!   against the per-scenario series median.
//!
//! The `experiments suite` subcommand of `powersparse-bench` is the CLI
//! front end; CI runs the smoke, paper and engines profiles
//! (`experiments suite --profile smoke|paper|engines`) on every PR and
//! diffs them against the committed `BENCH_suite.json`,
//! `BENCH_paper.json` and `BENCH_engine.json`.
//!
//! # Example
//!
//! ```
//! use powersparse_workloads::{run_scenario, GraphFamily, Scenario, SuiteManifest};
//!
//! let sc = Scenario::new(GraphFamily::Torus { rows: 6, cols: 6 })
//!     .k(2)
//!     .seed(7)
//!     .pooled(2);
//! let record = run_scenario(&sc).unwrap();
//! assert!(record.validation.passed, "{}", record.validation.detail);
//!
//! // Manifests round-trip through JSON exactly.
//! let manifest = SuiteManifest { suite: "doc".into(), runs: vec![record] };
//! let text = manifest.to_json_string();
//! assert_eq!(SuiteManifest::parse(&text).unwrap(), manifest);
//! ```

pub mod diff;
pub mod json;
pub mod manifest;
pub mod profile;
pub mod runner;
pub mod scenario;
pub mod trend;

pub use diff::{
    diff_manifests, diff_manifests_with, DiffOptions, DiffReport, FieldChange, ShapeChange,
};
pub use json::{Json, JsonError};
pub use manifest::{PhaseWall, RunRecord, SuiteManifest, Validation, WallStats};
pub use profile::{
    breakdown, chrome_trace, trace_violations, ProfileBreakdown, ProfileStats, ShardProfile,
};
pub use runner::{
    profile_scenario, run_scenario, run_scenario_with, run_suite, run_suite_with, suite_params,
    Repeat,
};
pub use scenario::{
    builtin_suite, parse_suite, AlgorithmSpec, EngineSpec, GraphFamily, Scenario, SpecError,
    SuiteProfile,
};
pub use trend::{TrendPoint, TrendReport, TrendSeries};
