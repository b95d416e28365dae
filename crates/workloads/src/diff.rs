//! Manifest regression diffing (`experiments suite --diff old.json
//! new.json`): compares two [`SuiteManifest`]s field by field and flags
//! every round/message/bit regression. The counters are bit-deterministic
//! per seed, so the comparison is exact.
//!
//! Runs are matched by their canonical scenario name plus seed (the
//! name omits the seed, and two runs may legally differ only there).
//! Three kinds of findings gate a diff (see [`DiffReport::clean`]):
//!
//! * **missing** — a baseline scenario disappeared from the new manifest;
//! * **reshaped** — a scenario's coordinates (graph shape, `k`, seed,
//!   algorithm, engine) changed, so its counters measure something else;
//! * **regressions** — a cost counter grew, or a run's validation
//!   flipped from passed to failed.
//!
//! Improvements and newly added runs are reported but never gate.
//! Wall clock is held to a *statistical* standard instead of the exact
//! one: a single measurement varies per machine, so `wall_stats` gates
//! only when both sides carry repeat-run statistics (≥ 2 samples) and
//! their 95% confidence intervals are disjoint with the new mean above
//! the old — evidence of a real slowdown, not noise. The arena
//! footprint in cells (`arena_cells_peak`) gates like the counters,
//! since every engine computes it in the same round close and the
//! engine-vs-engine walls cannot catch a change there; the footprint in
//! bytes (`arena_bytes_peak`) does not gate, because it scales by the
//! compiler's size of an arena cell.
//!
//! [`DiffOptions::ignore_engine`] turns the diff into a **cross-engine
//! conformance gate**: runs are matched modulo the engine backend and
//! shard count (which the engine contract says cannot affect any gated
//! counter), so a manifest produced by `suite --force-engine pooled` can
//! be compared field by field against the committed mixed-engine
//! baseline — CI gates the pooled backend this way.

use crate::manifest::{RunRecord, SuiteManifest};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// The cost counters compared per run, as `(label, accessor)` pairs.
/// `validation.passed` is handled separately (a flip to failed is a
/// regression).
const COUNTERS: [(&str, fn(&RunRecord) -> u64); 7] = [
    ("rounds", |r| r.rounds),
    ("charged_rounds", |r| r.charged_rounds),
    ("messages", |r| r.messages),
    ("bits", |r| r.bits),
    ("peak_queue_depth", |r| r.peak_queue_depth),
    ("arena_cells_peak", |r| r.arena_cells_peak),
    ("output_size", |r| r.output_size),
];

/// One counter change between the baseline and the new manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldChange {
    /// Canonical scenario name.
    pub run: String,
    /// Which counter changed.
    pub field: &'static str,
    /// Baseline value.
    pub old: u64,
    /// New value.
    pub new: u64,
}

impl FieldChange {
    /// Relative growth `new/old − 1` (`+∞` when the baseline was 0).
    pub fn relative(&self) -> f64 {
        if self.old == 0 {
            if self.new == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.new as f64 / self.old as f64 - 1.0
        }
    }
}

impl fmt::Display for FieldChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} {} -> {} ({:+.1}%)",
            self.run,
            self.field,
            self.old,
            self.new,
            100.0 * self.relative()
        )
    }
}

/// A scenario-coordinate mismatch: the run exists under the same name
/// but no longer measures the same experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeChange {
    /// Canonical scenario name.
    pub run: String,
    /// Which coordinate changed.
    pub field: &'static str,
    /// Baseline value.
    pub old: String,
    /// New value.
    pub new: String,
}

/// How a manifest comparison is performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffOptions {
    /// Match runs modulo engine backend and shard count (the engine
    /// contract makes every gated counter identical across backends),
    /// and skip the `engine`/`shards` shape fields.
    pub ignore_engine: bool,
}

/// The outcome of [`diff_manifests`].
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Whether runs were matched modulo engine backend.
    pub ignore_engine: bool,
    /// Baseline runs absent from the new manifest (gating).
    pub missing: Vec<String>,
    /// Runs present only in the new manifest (informational).
    pub added: Vec<String>,
    /// Scenario-coordinate changes (gating; counters are not compared
    /// for a reshaped run).
    pub reshaped: Vec<ShapeChange>,
    /// Counter growth and validation passed→failed flips (gating).
    pub regressions: Vec<FieldChange>,
    /// Counter reductions and validation failed→passed flips
    /// (informational).
    pub improvements: Vec<FieldChange>,
    /// Runs compared with every counter equal.
    pub unchanged: usize,
}

impl DiffReport {
    /// Whether the diff gates clean: nothing missing, nothing reshaped,
    /// no regression.
    pub fn clean(&self) -> bool {
        self.missing.is_empty() && self.reshaped.is_empty() && self.regressions.is_empty()
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "suite diff{}: {} unchanged, {} regression(s), \
             {} improvement(s), {} missing, {} reshaped, {} added",
            if self.ignore_engine {
                " (engines ignored)"
            } else {
                ""
            },
            self.unchanged,
            self.regressions.len(),
            self.improvements.len(),
            self.missing.len(),
            self.reshaped.len(),
            self.added.len(),
        )?;
        for name in &self.missing {
            writeln!(f, "  MISSING   {name}")?;
        }
        for s in &self.reshaped {
            writeln!(
                f,
                "  RESHAPED  {}: {} `{}` -> `{}`",
                s.run, s.field, s.old, s.new
            )?;
        }
        for c in &self.regressions {
            writeln!(f, "  REGRESSED {c}")?;
        }
        for c in &self.improvements {
            writeln!(f, "  improved  {c}")?;
        }
        for name in &self.added {
            writeln!(f, "  added     {name}")?;
        }
        Ok(())
    }
}

/// The scenario coordinates that must match before counters are
/// comparable. The seed is part of the match *key* (two scenarios may
/// legally share a name and differ only in seed), not a shape field.
/// With `ignore_engine` the `engine`/`shards` coordinates are exempt —
/// the engine contract guarantees they cannot change any gated counter.
fn shape_fields(r: &RunRecord, ignore_engine: bool) -> Vec<(&'static str, String)> {
    let mut fields = vec![
        ("family", r.family.clone()),
        ("graph", r.graph.clone()),
        ("n", r.n.to_string()),
        ("m", r.m.to_string()),
        ("k", r.k.to_string()),
        ("algorithm", r.algorithm.clone()),
    ];
    if !ignore_engine {
        fields.push(("engine", r.engine.clone()));
        fields.push(("shards", r.shards.to_string()));
    }
    fields
}

/// The run-matching key: the canonical scenario name does not embed the
/// seed, so same-named runs with different seeds are distinct scenarios
/// and must match only each other. With `ignore_engine` the engine
/// suffix is dropped from the name, so the same experiment matches
/// across backends.
fn key(r: &RunRecord, ignore_engine: bool) -> (Cow<'_, str>, u64) {
    let name = if ignore_engine {
        Cow::Owned(format!("{}/k{}/{}", r.graph, r.k, r.algorithm))
    } else {
        Cow::Borrowed(r.name.as_str())
    };
    (name, r.seed)
}

/// Renders a key for the report lists.
fn key_label(r: &RunRecord) -> String {
    format!("{} (seed {})", r.name, r.seed)
}

/// Compares `new` against the `old` baseline, run by run and field by
/// field. Shorthand for [`diff_manifests_with`] without the
/// engine-agnostic matching.
pub fn diff_manifests(old: &SuiteManifest, new: &SuiteManifest) -> DiffReport {
    diff_manifests_with(old, new, DiffOptions::default())
}

/// Compares `new` against the `old` baseline, run by run and field by
/// field, under [`DiffOptions`].
pub fn diff_manifests_with(
    old: &SuiteManifest,
    new: &SuiteManifest,
    opts: DiffOptions,
) -> DiffReport {
    let mut report = DiffReport {
        ignore_engine: opts.ignore_engine,
        ..DiffReport::default()
    };
    // Group by key, keeping duplicates: a spec may legally list the
    // same scenario several times, and every occurrence must be
    // compared (pairing them in manifest order).
    fn group(
        m: &SuiteManifest,
        ignore_engine: bool,
    ) -> BTreeMap<(Cow<'_, str>, u64), Vec<&RunRecord>> {
        let mut by_key: BTreeMap<(Cow<'_, str>, u64), Vec<&RunRecord>> = BTreeMap::new();
        for r in &m.runs {
            by_key.entry(key(r, ignore_engine)).or_default().push(r);
        }
        by_key
    }
    let old_by_key = group(old, opts.ignore_engine);
    let new_by_key = group(new, opts.ignore_engine);
    for (k, runs) in &new_by_key {
        let matched = old_by_key.get(k).map_or(0, Vec::len);
        for r in runs.iter().skip(matched) {
            report.added.push(key_label(r));
        }
    }

    for (k, old_runs) in &old_by_key {
        let new_runs = new_by_key.get(k).map(Vec::as_slice).unwrap_or(&[]);
        for (i, o) in old_runs.iter().copied().enumerate() {
            let Some(n) = new_runs.get(i).copied() else {
                report.missing.push(key_label(o));
                continue;
            };
            compare_run(o, n, opts, &mut report);
        }
    }
    report
}

/// Compares one matched run pair and records the findings.
fn compare_run(o: &RunRecord, n: &RunRecord, opts: DiffOptions, report: &mut DiffReport) {
    let old_shape = shape_fields(o, opts.ignore_engine);
    let new_shape = shape_fields(n, opts.ignore_engine);
    let mut reshaped = false;
    for ((field, ov), (_, nv)) in old_shape.into_iter().zip(new_shape) {
        if ov != nv {
            reshaped = true;
            report.reshaped.push(ShapeChange {
                run: key_label(o),
                field,
                old: ov,
                new: nv,
            });
        }
    }
    if reshaped {
        return;
    }
    let mut changed = false;
    if o.validation.passed != n.validation.passed {
        changed = true;
        let change = FieldChange {
            run: key_label(o),
            field: "validation.passed",
            old: u64::from(o.validation.passed),
            new: u64::from(n.validation.passed),
        };
        if o.validation.passed {
            report.regressions.push(change);
        } else {
            report.improvements.push(change);
        }
    }
    for (field, get) in COUNTERS {
        let (ov, nv) = (get(o), get(n));
        let change = FieldChange {
            run: key_label(o),
            field,
            old: ov,
            new: nv,
        };
        if nv > ov {
            changed = true;
            report.regressions.push(change);
        } else if nv < ov {
            changed = true;
            report.improvements.push(change);
        }
    }
    // Wall clock gates only on statistical evidence: both runs must
    // carry repeat statistics and the 95% confidence intervals must be
    // disjoint. Single-sample runs never gate on wall clock.
    if o.wall_stats.samples >= 2 && n.wall_stats.samples >= 2 {
        let (old_lo, old_hi) = o.wall_stats.interval();
        let (new_lo, new_hi) = n.wall_stats.interval();
        let change = FieldChange {
            run: key_label(o),
            field: "wall_stats.mean_us",
            old: o.wall_stats.mean_us as u64,
            new: n.wall_stats.mean_us as u64,
        };
        if n.wall_stats.mean_us > o.wall_stats.mean_us && new_lo > old_hi {
            changed = true;
            report.regressions.push(change);
        } else if n.wall_stats.mean_us < o.wall_stats.mean_us && new_hi < old_lo {
            changed = true;
            report.improvements.push(change);
        }
    }
    if !changed {
        report.unchanged += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{PhaseWall, Validation, WallStats};

    fn record(name: &str, rounds: u64, messages: u64, bits: u64) -> RunRecord {
        RunRecord {
            name: name.into(),
            family: "gnp".into(),
            graph: "gnp(n=100,d=6)".into(),
            n: 100,
            m: 300,
            max_degree: 12,
            k: 1,
            seed: 42,
            algorithm: "luby_mis".into(),
            engine: "sequential".into(),
            shards: 1,
            rounds,
            charged_rounds: 0,
            messages,
            bits,
            peak_queue_depth: 3,
            arena_cells_peak: 140,
            arena_bytes_peak: 4480,
            output_size: 30,
            wall: PhaseWall {
                build_us: 10,
                run_us: 500,
                validate_us: 20,
            },
            wall_stats: WallStats::single(500),
            validation: Validation {
                passed: true,
                detail: "ok".into(),
            },
        }
    }

    fn manifest(runs: Vec<RunRecord>) -> SuiteManifest {
        SuiteManifest {
            suite: "t".into(),
            runs,
        }
    }

    #[test]
    fn identical_manifests_are_clean() {
        let m = manifest(vec![record("a", 10, 100, 1000), record("b", 20, 200, 2000)]);
        let report = diff_manifests(&m, &m);
        assert!(report.clean());
        assert_eq!(report.unchanged, 2);
        assert!(report.regressions.is_empty());
        assert!(report.improvements.is_empty());
    }

    #[test]
    fn counter_growth_is_a_regression_and_shrink_an_improvement() {
        let old = manifest(vec![record("a", 10, 100, 1000)]);
        let new = manifest(vec![record("a", 12, 90, 1000)]);
        let report = diff_manifests(&old, &new);
        assert!(!report.clean());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].field, "rounds");
        assert_eq!(
            (report.regressions[0].old, report.regressions[0].new),
            (10, 12)
        );
        assert!((report.regressions[0].relative() - 0.2).abs() < 1e-9);
        assert_eq!(report.improvements.len(), 1);
        assert_eq!(report.improvements[0].field, "messages");
        assert_eq!(report.unchanged, 0);
        // The arena footprint in cells gates like the counters; the
        // byte footprint, which scales by the cell size, does not.
        let mut grown = record("a", 10, 100, 1000);
        grown.arena_cells_peak += 1;
        grown.arena_bytes_peak += 32;
        let report = diff_manifests(&old, &manifest(vec![grown]));
        assert!(!report.clean());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].field, "arena_cells_peak");
        let mut shrunk = record("a", 10, 100, 1000);
        shrunk.arena_cells_peak -= 1;
        let report = diff_manifests(&old, &manifest(vec![shrunk]));
        assert!(report.clean());
        assert_eq!(report.improvements[0].field, "arena_cells_peak");
    }

    #[test]
    fn validation_flip_gates_with_identical_counters() {
        let old = manifest(vec![record("a", 10, 100, 1000)]);
        let mut bad = record("a", 10, 100, 1000);
        bad.validation.passed = false;
        let new = manifest(vec![bad]);
        let report = diff_manifests(&old, &new);
        assert!(!report.clean());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].field, "validation.passed");
    }

    #[test]
    fn missing_added_and_reshaped_runs_are_flagged() {
        let old = manifest(vec![record("a", 10, 100, 1000), record("b", 20, 200, 2000)]);
        let mut c = record("a", 10, 100, 1000);
        c.n = 128; // same name, different graph shape
        let new = manifest(vec![c, record("d", 1, 1, 1)]);
        let report = diff_manifests(&old, &new);
        assert_eq!(report.missing, vec!["b (seed 42)".to_string()]);
        assert_eq!(report.added, vec!["d (seed 42)".to_string()]);
        assert_eq!(report.reshaped.len(), 1);
        assert_eq!(report.reshaped[0].field, "n");
        assert!(!report.clean());
        // A reshaped run's counters are not compared.
        assert!(report.regressions.is_empty());
    }

    #[test]
    fn same_name_different_seed_runs_match_separately() {
        // Scenario names omit the seed, so a manifest may legally hold
        // two same-named runs differing only in seed; each must match
        // its own counterpart (and a self-diff stays clean).
        let mut s5 = record("a", 10, 100, 1000);
        s5.seed = 5;
        let mut s9 = record("a", 30, 300, 3000);
        s9.seed = 9;
        let m = manifest(vec![s5.clone(), s9.clone()]);
        let report = diff_manifests(&m, &m);
        assert!(report.clean(), "{report}");
        assert_eq!(report.unchanged, 2);

        // Dropping one duplicate is reported missing, not absorbed.
        let report = diff_manifests(&m, &manifest(vec![s5]));
        assert_eq!(report.missing, vec!["a (seed 9)".to_string()]);
        assert_eq!(report.unchanged, 1);
    }

    #[test]
    fn exact_duplicate_runs_all_compared() {
        // run_suite does not dedupe: a spec may list the identical
        // scenario twice. Every occurrence must be compared (in
        // manifest order), so a regression in one of them cannot hide
        // behind its clean twin.
        let old = manifest(vec![record("a", 10, 100, 1000), record("a", 10, 100, 1000)]);
        let new = manifest(vec![record("a", 50, 100, 1000), record("a", 10, 100, 1000)]);
        let report = diff_manifests(&old, &new);
        assert_eq!(report.regressions.len(), 1, "{report}");
        assert_eq!(report.regressions[0].field, "rounds");
        assert_eq!(report.unchanged, 1);

        // A deleted duplicate is missing, an extra one is added.
        let report = diff_manifests(&old, &manifest(vec![record("a", 10, 100, 1000)]));
        assert_eq!(report.missing.len(), 1);
        let report = diff_manifests(&manifest(vec![record("a", 10, 100, 1000)]), &old);
        assert_eq!(report.added.len(), 1);
        assert!(report.clean());
    }

    #[test]
    fn zero_baseline_counter_growth_is_infinite_regression() {
        let mut o = record("a", 10, 100, 1000);
        o.charged_rounds = 0;
        let mut n = o.clone();
        n.charged_rounds = 5;
        let report = diff_manifests(&manifest(vec![o]), &manifest(vec![n]));
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].field, "charged_rounds");
        assert!(report.regressions[0].relative().is_infinite());
    }

    #[test]
    fn empty_manifests_are_handled() {
        let empty = manifest(vec![]);
        let full = manifest(vec![record("a", 10, 100, 1000)]);
        // Empty vs empty: trivially clean, nothing compared.
        let report = diff_manifests(&empty, &empty);
        assert!(report.clean(), "{report}");
        assert_eq!(report.unchanged, 0);
        // Empty baseline: everything is merely added, still clean.
        let report = diff_manifests(&empty, &full);
        assert!(report.clean(), "{report}");
        assert_eq!(report.added, vec!["a (seed 42)".to_string()]);
        // Empty new manifest against a real baseline gates.
        let report = diff_manifests(&full, &empty);
        assert!(!report.clean());
        assert_eq!(report.missing, vec!["a (seed 42)".to_string()]);
    }

    #[test]
    fn duplicate_runs_pair_in_manifest_order() {
        // Two occurrences in the baseline, three in the new manifest:
        // the first two pair positionally, the third is added — and a
        // regression in the *second* occurrence is attributed there,
        // not hidden by the clean first one.
        let old = manifest(vec![record("a", 10, 100, 1000), record("a", 10, 100, 1000)]);
        let new = manifest(vec![
            record("a", 10, 100, 1000),
            record("a", 99, 100, 1000),
            record("a", 10, 100, 1000),
        ]);
        let report = diff_manifests(&old, &new);
        assert_eq!(report.added.len(), 1, "{report}");
        assert_eq!(report.regressions.len(), 1, "{report}");
        assert_eq!(
            (report.regressions[0].old, report.regressions[0].new),
            (10, 99)
        );
        assert_eq!(report.unchanged, 1);
        assert!(!report.clean());
    }

    #[test]
    fn ignore_engine_matches_runs_across_backends() {
        // The cross-engine conformance gate: the same experiment run on
        // a different backend (different name suffix, engine and shard
        // coordinates) matches its baseline and compares clean when the
        // counters are identical — the engine contract made executable.
        let old = manifest(vec![record("g/k1/luby_mis/sequential", 10, 100, 1000)]);
        let mut pooled = record("g/k1/luby_mis/pooled4", 10, 100, 1000);
        pooled.engine = "pooled".into();
        pooled.shards = 4;
        let new = manifest(vec![pooled.clone()]);
        // Engine-strict: nothing matches.
        let strict = diff_manifests(&old, &new);
        assert_eq!(strict.missing.len(), 1);
        assert_eq!(strict.added.len(), 1);
        // Engine-agnostic: matched, compared, clean.
        let opts = DiffOptions {
            ignore_engine: true,
        };
        let agnostic = diff_manifests_with(&old, &new, opts);
        assert!(agnostic.clean(), "{agnostic}");
        assert_eq!(agnostic.unchanged, 1);
        assert!(agnostic.to_string().contains("engines ignored"));
        // A counter divergence across engines still gates — that is the
        // whole point of the conformance diff.
        pooled.messages = 150;
        let report = diff_manifests_with(&old, &manifest(vec![pooled]), opts);
        assert_eq!(report.regressions.len(), 1, "{report}");
        assert_eq!(report.regressions[0].field, "messages");
    }

    #[test]
    fn single_sample_wall_clock_never_gates() {
        // The pre-statistics behavior: plain runs carry one sample each,
        // so even a 100× slowdown is not gated — it is indistinguishable
        // from machine noise.
        let old = manifest(vec![record("a", 10, 100, 1000)]);
        let mut slow = record("a", 10, 100, 1000);
        slow.wall.run_us = 50_000;
        slow.wall_stats = WallStats::single(50_000);
        let report = diff_manifests(&old, &manifest(vec![slow]));
        assert!(report.clean(), "{report}");
        assert_eq!(report.unchanged, 1);
    }

    #[test]
    fn disjoint_confidence_intervals_gate_wall_clock() {
        let mut o = record("a", 10, 100, 1000);
        o.wall_stats = WallStats::from_samples(&[100.0, 102.0, 98.0]);
        let mut n = o.clone();
        n.wall_stats = WallStats::from_samples(&[200.0, 202.0, 198.0]);
        let report = diff_manifests(&manifest(vec![o.clone()]), &manifest(vec![n]));
        assert!(!report.clean(), "{report}");
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].field, "wall_stats.mean_us");
        assert_eq!(
            (report.regressions[0].old, report.regressions[0].new),
            (100, 200)
        );

        // The mirror image is an improvement, never a gate.
        let mut fast = o.clone();
        fast.wall_stats = WallStats::from_samples(&[50.0, 52.0, 48.0]);
        let report = diff_manifests(&manifest(vec![o]), &manifest(vec![fast]));
        assert!(report.clean(), "{report}");
        assert_eq!(report.improvements.len(), 1);
        assert_eq!(report.improvements[0].field, "wall_stats.mean_us");
    }

    #[test]
    fn overlapping_confidence_intervals_do_not_gate() {
        // Noisy measurements whose CIs overlap: a mean shift alone is
        // not evidence of a regression.
        let mut o = record("a", 10, 100, 1000);
        o.wall_stats = WallStats::from_samples(&[100.0, 200.0, 150.0]);
        let mut n = o.clone();
        n.wall_stats = WallStats::from_samples(&[160.0, 260.0, 210.0]);
        let (old_lo, old_hi) = o.wall_stats.interval();
        let (new_lo, new_hi) = n.wall_stats.interval();
        assert!(
            new_lo < old_hi,
            "fixture must overlap: {new_lo} vs {old_hi}"
        );
        assert!(old_lo < new_hi);
        let report = diff_manifests(&manifest(vec![o]), &manifest(vec![n]));
        assert!(report.clean(), "{report}");
        assert_eq!(report.unchanged, 1);
        assert!(report.improvements.is_empty());
    }

    #[test]
    fn report_renders_human_readably() {
        let old = manifest(vec![record("a", 10, 100, 1000)]);
        let new = manifest(vec![record("a", 20, 100, 1000)]);
        let text = diff_manifests(&old, &new).to_string();
        assert!(
            text.contains("REGRESSED a (seed 42): rounds 10 -> 20 (+100.0%)"),
            "{text}"
        );
        assert!(text.contains("1 regression(s)"), "{text}");
    }
}
