//! Trend reports over `BENCH_*.json` manifest history.
//!
//! The repository commits one manifest per builtin suite profile
//! (`BENCH_suite.json` for smoke, `BENCH_paper.json` for paper,
//! `BENCH_engine.json` for engines); as PRs regenerate them, the set of
//! manifests becomes the cost trajectory. A [`TrendReport`] groups every
//! run by `(suite, scenario)` across all manifests it is fed, rendering
//! the per-scenario series of rounds/messages/bits and mean wall clock
//! and flagging **drift** — any gated counter changing between sources,
//! which `suite --diff` would also catch pairwise but is easier to see
//! here across the whole history.
//!
//! The CLI front end is `experiments trend [DIR] [--out FILE.json]`: it
//! loads every `BENCH_*.json` in the directory (a malformed manifest is
//! a hard error — CI runs this, so a bad commit breaks the build),
//! prints the markdown report and optionally writes it as JSON.

use crate::json::Json;
use crate::manifest::SuiteManifest;
use std::collections::BTreeMap;

/// One scenario's measurement in one manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Which manifest this point came from (file name / label).
    pub source: String,
    /// CONGEST rounds.
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Bits sent.
    pub bits: u64,
    /// Peak single-edge queue depth.
    pub peak_queue_depth: u64,
    /// Mean run-phase wall clock over the row's samples, microseconds
    /// (never gates; context only).
    pub mean_us: f64,
    /// Whether the run's validation passed.
    pub passed: bool,
}

/// One scenario tracked across manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendSeries {
    /// Suite the scenario belongs to.
    pub suite: String,
    /// Canonical scenario name.
    pub scenario: String,
    /// One point per manifest containing the scenario, in source order.
    pub points: Vec<TrendPoint>,
}

impl TrendSeries {
    /// The per-counter series medians `(rounds, messages, bits,
    /// peak_queue_depth)` — the robust center every point is compared
    /// against. Uses the lower median for even-length series, so the
    /// reference is always a value the series actually took.
    pub fn medians(&self) -> (u64, u64, u64, u64) {
        fn median(mut v: Vec<u64>) -> u64 {
            v.sort_unstable();
            v[(v.len() - 1) / 2]
        }
        (
            median(self.points.iter().map(|p| p.rounds).collect()),
            median(self.points.iter().map(|p| p.messages).collect()),
            median(self.points.iter().map(|p| p.bits).collect()),
            median(self.points.iter().map(|p| p.peak_queue_depth).collect()),
        )
    }

    /// Whether a point deviates from the series medians in any
    /// deterministic counter.
    pub fn point_drifts(&self, p: &TrendPoint) -> bool {
        (p.rounds, p.messages, p.bits, p.peak_queue_depth) != self.medians()
    }

    /// Whether every deterministic counter matches the per-counter
    /// series **median** at every point (wall clock is expected to
    /// move; it never counts as drift). Comparing against the median
    /// rather than the previous point makes a single outlier manifest
    /// show up as one drifting point instead of poisoning both of its
    /// neighboring comparisons, and is trivially stable for
    /// single-point and constant series.
    pub fn stable(&self) -> bool {
        let m = self.medians();
        self.points
            .iter()
            .all(|p| (p.rounds, p.messages, p.bits, p.peak_queue_depth) == m)
    }
}

/// The cross-manifest trend report.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendReport {
    /// Every manifest source, in the order the series use.
    pub sources: Vec<String>,
    /// Per-`(suite, scenario)` series, sorted for stable output.
    pub series: Vec<TrendSeries>,
}

impl TrendReport {
    /// Builds the report from `(source label, manifest)` pairs. Sources
    /// are ordered by label (file names sort chronologically once a
    /// naming convention with dates exists; today's per-profile
    /// manifests are simply alphabetical), series by suite then
    /// scenario.
    pub fn from_manifests(manifests: &[(String, SuiteManifest)]) -> Self {
        let mut ordered: Vec<&(String, SuiteManifest)> = manifests.iter().collect();
        ordered.sort_by(|a, b| a.0.cmp(&b.0));
        let sources: Vec<String> = ordered.iter().map(|(s, _)| s.clone()).collect();
        let mut by_key: BTreeMap<(String, String), Vec<TrendPoint>> = BTreeMap::new();
        for (source, manifest) in ordered {
            for run in &manifest.runs {
                by_key
                    .entry((manifest.suite.clone(), run.name.clone()))
                    .or_default()
                    .push(TrendPoint {
                        source: source.clone(),
                        rounds: run.rounds,
                        messages: run.messages,
                        bits: run.bits,
                        peak_queue_depth: run.peak_queue_depth,
                        mean_us: run.wall_stats.mean_us,
                        passed: run.validation.passed,
                    });
            }
        }
        let series = by_key
            .into_iter()
            .map(|((suite, scenario), points)| TrendSeries {
                suite,
                scenario,
                points,
            })
            .collect();
        Self { sources, series }
    }

    /// Number of series whose counters drift across sources.
    pub fn drifting(&self) -> usize {
        self.series.iter().filter(|s| !s.stable()).count()
    }

    /// The report as a [`Json`] document (the `--out` payload).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "sources".into(),
                Json::Arr(self.sources.iter().map(|s| Json::str(s)).collect()),
            ),
            ("series_total".into(), Json::num(self.series.len() as u64)),
            ("drifting".into(), Json::num(self.drifting() as u64)),
            (
                "series".into(),
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("suite".into(), Json::str(&s.suite)),
                                ("scenario".into(), Json::str(&s.scenario)),
                                ("stable".into(), Json::Bool(s.stable())),
                                (
                                    "points".into(),
                                    Json::Arr(
                                        s.points
                                            .iter()
                                            .map(|p| {
                                                Json::Obj(vec![
                                                    ("source".into(), Json::str(&p.source)),
                                                    ("rounds".into(), Json::num(p.rounds)),
                                                    ("messages".into(), Json::num(p.messages)),
                                                    ("bits".into(), Json::num(p.bits)),
                                                    (
                                                        "peak_queue_depth".into(),
                                                        Json::num(p.peak_queue_depth),
                                                    ),
                                                    ("mean_us".into(), Json::Num(p.mean_us)),
                                                    ("passed".into(), Json::Bool(p.passed)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The report as a markdown table, one row per (scenario, source).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} manifests, {} series ({} drifting)\n\n",
            self.sources.len(),
            self.series.len(),
            self.drifting()
        ));
        out.push_str(
            "| suite | scenario | source | rounds | messages | bits | run wall | valid | trend |\n",
        );
        out.push_str("| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n");
        for s in &self.series {
            for (i, p) in s.points.iter().enumerate() {
                // The drift marker sits on the rows that deviate from
                // the series medians, so the outlier manifest — not its
                // neighbors — is the one flagged.
                let marker = if s.point_drifts(p) {
                    "DRIFT"
                } else if i == 0 {
                    "stable"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {:.1}ms | {} | {} |\n",
                    s.suite,
                    s.scenario,
                    p.source,
                    p.rounds,
                    p.messages,
                    p.bits,
                    p.mean_us / 1000.0,
                    if p.passed { "yes" } else { "NO" },
                    marker,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{PhaseWall, RunRecord, Validation, WallStats};

    fn record(name: &str, rounds: u64, messages: u64) -> RunRecord {
        RunRecord {
            name: name.into(),
            family: "gnp".into(),
            graph: "gnp(n=10,d=3)".into(),
            n: 10,
            m: 15,
            max_degree: 5,
            k: 1,
            seed: 1,
            algorithm: "luby_mis".into(),
            engine: "sequential".into(),
            shards: 1,
            rounds,
            charged_rounds: 0,
            messages,
            bits: messages * 8,
            peak_queue_depth: 2,
            arena_cells_peak: 12,
            arena_bytes_peak: 384,
            output_size: 4,
            wall: PhaseWall {
                build_us: 10,
                run_us: 100,
                validate_us: 5,
            },
            wall_stats: WallStats::single(100),
            validation: Validation {
                passed: true,
                detail: "ok".into(),
            },
        }
    }

    fn manifest(suite: &str, runs: Vec<RunRecord>) -> SuiteManifest {
        SuiteManifest {
            suite: suite.into(),
            runs,
        }
    }

    #[test]
    fn groups_by_suite_and_scenario_across_sources() {
        let report = TrendReport::from_manifests(&[
            (
                "b_new.json".into(),
                manifest("smoke", vec![record("a", 5, 100), record("b", 7, 50)]),
            ),
            (
                "a_old.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
        ]);
        assert_eq!(report.sources, vec!["a_old.json", "b_new.json"]);
        assert_eq!(report.series.len(), 2);
        let a = &report.series[0];
        assert_eq!((a.scenario.as_str(), a.points.len()), ("a", 2));
        // Source order inside a series follows the sorted source order.
        assert_eq!(a.points[0].source, "a_old.json");
        assert!(a.stable());
        assert_eq!(report.drifting(), 0);
    }

    #[test]
    fn drift_is_flagged_per_series_and_rendered() {
        let report = TrendReport::from_manifests(&[
            (
                "m1.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
            (
                "m2.json".into(),
                manifest("smoke", vec![record("a", 6, 100)]),
            ),
        ]);
        assert_eq!(report.drifting(), 1);
        assert!(!report.series[0].stable());
        let md = report.render_markdown();
        assert!(md.contains("DRIFT"), "{md}");
        assert!(md.contains("| smoke | a | m1.json | 5 |"), "{md}");
    }

    #[test]
    fn single_point_and_constant_series_are_stable() {
        // A series with one point is its own median — trivially stable.
        let report = TrendReport::from_manifests(&[(
            "m1.json".into(),
            manifest("smoke", vec![record("a", 5, 100)]),
        )]);
        assert!(report.series[0].stable());
        assert_eq!(report.drifting(), 0);

        // A constant series matches its medians at every point.
        let report = TrendReport::from_manifests(&[
            (
                "m1.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
            (
                "m2.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
            (
                "m3.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
        ]);
        assert!(report.series[0].stable());
        assert_eq!(report.series[0].medians(), (5, 100, 800, 2));
        assert_eq!(report.drifting(), 0);
    }

    #[test]
    fn outlier_is_flagged_against_the_series_median_not_its_neighbors() {
        // One outlier in a long series: the median of (5,5,9,5,5) is
        // still 5, so only the outlier point drifts — the m4 return to
        // baseline is not blamed, which pairwise comparison would do.
        let report = TrendReport::from_manifests(&[
            (
                "m1.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
            (
                "m2.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
            (
                "m3.json".into(),
                manifest("smoke", vec![record("a", 9, 100)]),
            ),
            (
                "m4.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
        ]);
        let s = &report.series[0];
        assert_eq!(s.medians().0, 5);
        assert!(!s.stable());
        assert_eq!(report.drifting(), 1);
        let drifters: Vec<&str> = s
            .points
            .iter()
            .filter(|p| s.point_drifts(p))
            .map(|p| p.source.as_str())
            .collect();
        assert_eq!(drifters, vec!["m3.json"]);
        // The markdown flags exactly the outlier row.
        let md = report.render_markdown();
        assert!(
            md.contains("| m3.json | 9 | 100 | 800 | 0.1ms | yes | DRIFT |"),
            "{md}"
        );
        assert!(
            !md.contains("| m4.json | 5 | 100 | 800 | 0.1ms | yes | DRIFT |"),
            "{md}"
        );
    }

    #[test]
    fn even_length_series_use_the_lower_median() {
        let report = TrendReport::from_manifests(&[
            (
                "m1.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
            (
                "m2.json".into(),
                manifest("smoke", vec![record("a", 7, 100)]),
            ),
        ]);
        // Lower median of [5, 7] is 5: a real value of the series, so
        // the m1 point is the stable one and m2 the drifter.
        let s = &report.series[0];
        assert_eq!(s.medians().0, 5);
        assert!(!s.point_drifts(&s.points[0]));
        assert!(s.point_drifts(&s.points[1]));
    }

    #[test]
    fn wall_clock_changes_are_not_drift() {
        let mut fast = record("a", 5, 100);
        fast.wall.run_us = 1;
        fast.wall_stats = WallStats::single(1);
        let report = TrendReport::from_manifests(&[
            (
                "m1.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
            ("m2.json".into(), manifest("smoke", vec![fast])),
        ]);
        assert_eq!(report.drifting(), 0);
    }

    #[test]
    fn wall_column_is_the_sample_mean_not_the_first_sample() {
        // Two samples, 100 µs then 300 µs: the first invocation is the
        // row's `wall_us.run`, but the trend reports the 200 µs mean,
        // as the suite table and the diff's wall gate do.
        let mut rec = record("a", 5, 100);
        rec.wall_stats = WallStats::from_samples(&[100.0, 300.0]);
        assert_eq!(rec.wall.run_us, 100);
        let report =
            TrendReport::from_manifests(&[("m1.json".into(), manifest("smoke", vec![rec]))]);
        assert_eq!(report.series[0].points[0].mean_us, 200.0);
        let md = report.render_markdown();
        assert!(md.contains("| 0.2ms |"), "{md}");
        let doc = report.to_json();
        let points = doc.get("series").and_then(Json::as_arr).unwrap()[0]
            .get("points")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(points[0].get("mean_us").and_then(Json::as_f64), Some(200.0));
    }

    #[test]
    fn different_suites_form_different_series() {
        let report = TrendReport::from_manifests(&[
            (
                "m1.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
            (
                "m2.json".into(),
                manifest("engines", vec![record("a", 5, 100)]),
            ),
        ]);
        assert_eq!(report.series.len(), 2, "same name, different suite");
        assert!(report.series.iter().all(|s| s.points.len() == 1));
    }

    #[test]
    fn json_payload_round_trips_through_the_parser() {
        let report = TrendReport::from_manifests(&[
            (
                "m1.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
            (
                "m2.json".into(),
                manifest("smoke", vec![record("a", 5, 100)]),
            ),
        ]);
        let text = report.to_json().to_string_pretty();
        let parsed = Json::parse(&text).expect("trend JSON must parse");
        assert_eq!(
            parsed.get("series_total").and_then(Json::as_u64),
            Some(1),
            "{text}"
        );
        assert_eq!(parsed.get("drifting").and_then(Json::as_u64), Some(0));
        let sources = parsed.get("sources").and_then(Json::as_arr).unwrap();
        assert_eq!(sources.len(), 2);
    }

    #[test]
    fn empty_input_renders_an_empty_report() {
        let report = TrendReport::from_manifests(&[]);
        assert!(report.series.is_empty() && report.sources.is_empty());
        assert!(report.render_markdown().contains("0 manifests"));
    }
}
