//! Structured run manifests: what a suite execution writes to disk
//! (`BENCH_*.json`) and what regression tooling diffs across runs.
//!
//! Every record carries the scenario coordinates (family, `k`, algorithm,
//! engine), the graph's realized shape, the engine's cost counters
//! (rounds, messages, bits, peak queue depth), per-phase wall clock and
//! the validation verdict. [`SuiteManifest::to_json_string`] and
//! [`SuiteManifest::parse`] round-trip exactly (checked in tests), so a
//! manifest written by one build is machine-readable by the next.

use crate::json::{Json, JsonError};

/// Per-phase wall clock, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseWall {
    /// Building the graph from its family spec.
    pub build_us: u64,
    /// Running the algorithm on the engine.
    pub run_us: u64,
    /// Re-verifying the output with the `check` predicates.
    pub validate_us: u64,
}

/// Wall-clock statistics over repeated invocations of the same
/// scenario (the run phase only). With a single invocation (the
/// default `Repeat::once()`), mean = min = max = the measured time and
/// `ci95_us` is zero; regression gating on wall clock only engages
/// when **both** compared records carry `samples >= 2` (see
/// `crate::diff`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WallStats {
    /// Mean run time per iteration, microseconds.
    pub mean_us: f64,
    /// Fastest invocation, microseconds.
    pub min_us: f64,
    /// Slowest invocation, microseconds.
    pub max_us: f64,
    /// Half-width of the 95% confidence interval of the mean
    /// (`t * sd / sqrt(samples)` with the Student-t critical value for
    /// `samples - 1` degrees of freedom below 30 samples, the normal
    /// `z = 1.96` from 30 on; sample standard deviation); zero when
    /// `samples < 2`.
    pub ci95_us: f64,
    /// Number of measured invocations (warmup excluded).
    pub samples: u64,
}

/// Two-sided 95% Student-t critical values for 1–29 degrees of freedom
/// (index `df - 1`). Suite repeats are typically 3–5, where the normal
/// `z = 1.96` badly understates the interval (df = 2 needs 4.303).
const T95: [f64; 29] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045,
];

/// The two-sided 95% critical value for `samples` measurements:
/// Student-t for fewer than 30, the normal `z` beyond.
fn crit95(samples: usize) -> f64 {
    debug_assert!(samples >= 2, "no interval from fewer than two samples");
    if samples < 30 {
        T95[samples - 2]
    } else {
        1.96
    }
}

impl WallStats {
    /// The single-sample statistics a plain (non-repeated) run carries:
    /// mean = min = max = `run_us`, zero CI, one sample. Also how old
    /// manifests without a `wall_stats` section are interpreted.
    pub fn single(run_us: u64) -> Self {
        let t = run_us as f64;
        Self {
            mean_us: t,
            min_us: t,
            max_us: t,
            ci95_us: 0.0,
            samples: 1,
        }
    }

    /// Computes statistics from per-invocation samples (microseconds
    /// per iteration).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let ci95 = if samples.len() < 2 {
            0.0
        } else {
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
            crit95(samples.len()) * var.sqrt() / n.sqrt()
        };
        Self {
            mean_us: mean,
            min_us: min,
            max_us: max,
            ci95_us: ci95,
            samples: samples.len() as u64,
        }
    }

    /// The `[mean - ci95, mean + ci95]` interval.
    pub fn interval(&self) -> (f64, f64) {
        (self.mean_us - self.ci95_us, self.mean_us + self.ci95_us)
    }
}

/// The validation verdict of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Validation {
    /// Whether every checked predicate held.
    pub passed: bool,
    /// Human-readable summary (what was checked, measured values).
    pub detail: String,
}

/// One executed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Canonical scenario name ([`crate::Scenario::name`]).
    pub name: String,
    /// Family identifier (e.g. `power_law`).
    pub family: String,
    /// Family label with parameters (e.g. `power_law(n=300,attach=3)`).
    pub graph: String,
    /// Realized node count.
    pub n: u64,
    /// Realized undirected edge count.
    pub m: u64,
    /// Realized maximum degree.
    pub max_degree: u64,
    /// Power-graph exponent.
    pub k: u64,
    /// Scenario seed.
    pub seed: u64,
    /// Algorithm identifier.
    pub algorithm: String,
    /// Engine identifier (`sequential`, `pooled` or `process`; archived
    /// manifests may carry a retired one such as `sharded`).
    pub engine: String,
    /// Worker count (1 for sequential).
    pub shards: u64,
    /// CONGEST rounds executed (including charged rounds).
    pub rounds: u64,
    /// Of which charged analytically.
    pub charged_rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Bits sent.
    pub bits: u64,
    /// Peak single-edge queue depth (messages), the congestion gauge.
    pub peak_queue_depth: u64,
    /// Peak arena footprint in cells (total queued messages at any
    /// transfer start, engine-invariant).
    pub arena_cells_peak: u64,
    /// Peak arena footprint in bytes (cells scaled by cell size).
    pub arena_bytes_peak: u64,
    /// Output cardinality (|MIS|, |ruling set|, |Q|).
    pub output_size: u64,
    /// Per-phase wall clock (first measured invocation).
    pub wall: PhaseWall,
    /// Wall-clock statistics over repeated invocations.
    pub wall_stats: WallStats,
    /// Validation verdict.
    pub validation: Validation,
}

/// A full suite execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteManifest {
    /// Suite name (`smoke`, `paper`, `engines`, or the spec file's
    /// path), with `+force-ENGINE` appended for a forced rerun.
    pub suite: String,
    /// All runs, in execution order.
    pub runs: Vec<RunRecord>,
}

impl SuiteManifest {
    /// Number of runs whose validation passed.
    pub fn passed(&self) -> usize {
        self.runs.iter().filter(|r| r.validation.passed).count()
    }

    /// Whether every run validated.
    pub fn all_passed(&self) -> bool {
        self.passed() == self.runs.len()
    }

    /// The manifest as a [`Json`] document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("suite".into(), Json::str(&self.suite)),
            ("scenarios".into(), Json::num(self.runs.len() as u64)),
            ("passed".into(), Json::num(self.passed() as u64)),
            (
                "runs".into(),
                Json::Arr(self.runs.iter().map(RunRecord::to_json).collect()),
            ),
        ])
    }

    /// The manifest as pretty-printed JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parses a manifest back from JSON text (the round-trip inverse of
    /// [`SuiteManifest::to_json_string`]).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON or missing/mistyped
    /// fields.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let doc = Json::parse(text)?;
        let suite = req_str(&doc, "suite")?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| missing("runs"))?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { suite, runs })
    }
}

impl RunRecord {
    /// The record as a [`Json`] object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("family".into(), Json::str(&self.family)),
            ("graph".into(), Json::str(&self.graph)),
            ("n".into(), Json::num(self.n)),
            ("m".into(), Json::num(self.m)),
            ("max_degree".into(), Json::num(self.max_degree)),
            ("k".into(), Json::num(self.k)),
            ("seed".into(), Json::num(self.seed)),
            ("algorithm".into(), Json::str(&self.algorithm)),
            ("engine".into(), Json::str(&self.engine)),
            ("shards".into(), Json::num(self.shards)),
            ("rounds".into(), Json::num(self.rounds)),
            ("charged_rounds".into(), Json::num(self.charged_rounds)),
            ("messages".into(), Json::num(self.messages)),
            ("bits".into(), Json::num(self.bits)),
            ("peak_queue_depth".into(), Json::num(self.peak_queue_depth)),
            ("arena_cells_peak".into(), Json::num(self.arena_cells_peak)),
            ("arena_bytes_peak".into(), Json::num(self.arena_bytes_peak)),
            ("output_size".into(), Json::num(self.output_size)),
            (
                "wall_us".into(),
                Json::Obj(vec![
                    ("build".into(), Json::num(self.wall.build_us)),
                    ("run".into(), Json::num(self.wall.run_us)),
                    ("validate".into(), Json::num(self.wall.validate_us)),
                ]),
            ),
            (
                "wall_stats".into(),
                Json::Obj(vec![
                    ("mean_us".into(), Json::Num(self.wall_stats.mean_us)),
                    ("min_us".into(), Json::Num(self.wall_stats.min_us)),
                    ("max_us".into(), Json::Num(self.wall_stats.max_us)),
                    ("ci95_us".into(), Json::Num(self.wall_stats.ci95_us)),
                    ("samples".into(), Json::num(self.wall_stats.samples)),
                ]),
            ),
            (
                "validation".into(),
                Json::Obj(vec![
                    ("passed".into(), Json::Bool(self.validation.passed)),
                    ("detail".into(), Json::str(&self.validation.detail)),
                ]),
            ),
        ])
    }

    /// Parses one record from its JSON object. The observability fields
    /// introduced with the probe layer (`arena_*_peak`, `wall_stats`)
    /// are optional, so manifests written by older builds still parse:
    /// missing arena gauges read as zero, and missing statistics derive
    /// from the plain `wall_us.run` sample. Keys this build does not
    /// read — such as the retired `net`, `recovery`, `profile` and
    /// `trace` sections and the `alloc_count`/`alloc_bytes_peak` gauges
    /// — are skipped.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn from_json(doc: &Json) -> Result<Self, JsonError> {
        let wall = doc.get("wall_us").ok_or_else(|| missing("wall_us"))?;
        let validation = doc.get("validation").ok_or_else(|| missing("validation"))?;
        let run_us = req_u64(wall, "run")?;
        let wall_stats = match doc.get("wall_stats") {
            None => WallStats::single(run_us),
            Some(stats) => WallStats {
                mean_us: req_f64(stats, "mean_us")?,
                min_us: req_f64(stats, "min_us")?,
                max_us: req_f64(stats, "max_us")?,
                ci95_us: req_f64(stats, "ci95_us")?,
                samples: req_u64(stats, "samples")?,
            },
        };
        Ok(Self {
            name: req_str(doc, "name")?,
            family: req_str(doc, "family")?,
            graph: req_str(doc, "graph")?,
            n: req_u64(doc, "n")?,
            m: req_u64(doc, "m")?,
            max_degree: req_u64(doc, "max_degree")?,
            k: req_u64(doc, "k")?,
            seed: req_u64(doc, "seed")?,
            algorithm: req_str(doc, "algorithm")?,
            engine: req_str(doc, "engine")?,
            shards: req_u64(doc, "shards")?,
            rounds: req_u64(doc, "rounds")?,
            charged_rounds: req_u64(doc, "charged_rounds")?,
            messages: req_u64(doc, "messages")?,
            bits: req_u64(doc, "bits")?,
            peak_queue_depth: req_u64(doc, "peak_queue_depth")?,
            arena_cells_peak: opt_u64(doc, "arena_cells_peak")?,
            arena_bytes_peak: opt_u64(doc, "arena_bytes_peak")?,
            output_size: req_u64(doc, "output_size")?,
            wall: PhaseWall {
                build_us: req_u64(wall, "build")?,
                run_us,
                validate_us: req_u64(wall, "validate")?,
            },
            wall_stats,
            validation: Validation {
                passed: validation
                    .get("passed")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| missing("validation.passed"))?,
                detail: req_str(validation, "detail")?,
            },
        })
    }
}

fn missing(field: &str) -> JsonError {
    JsonError {
        offset: 0,
        message: format!("missing or mistyped field `{field}`"),
    }
}

fn req_str(doc: &Json, field: &str) -> Result<String, JsonError> {
    doc.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| missing(field))
}

fn req_u64(doc: &Json, field: &str) -> Result<u64, JsonError> {
    doc.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| missing(field))
}

fn req_f64(doc: &Json, field: &str) -> Result<f64, JsonError> {
    doc.get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| missing(field))
}

/// An optional numeric field that older manifests lack: absent reads
/// as zero, but a *present* mistyped value is still an error.
fn opt_u64(doc: &Json, field: &str) -> Result<u64, JsonError> {
    match doc.get(field) {
        None => Ok(0),
        Some(v) => v.as_u64().ok_or_else(|| missing(field)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SuiteManifest {
        SuiteManifest {
            suite: "smoke".into(),
            runs: vec![RunRecord {
                name: "gnp(n=192,d=8)/k1/luby_mis/sharded4".into(),
                family: "gnp".into(),
                graph: "gnp(n=192,d=8)".into(),
                n: 192,
                m: 768,
                max_degree: 17,
                k: 1,
                seed: 42,
                algorithm: "luby_mis".into(),
                engine: "sharded".into(),
                shards: 4,
                rounds: 77,
                charged_rounds: 0,
                messages: 12345,
                bits: 98765,
                peak_queue_depth: 9,
                arena_cells_peak: 140,
                arena_bytes_peak: 4480,
                output_size: 55,
                wall: PhaseWall {
                    build_us: 120,
                    run_us: 4800,
                    validate_us: 310,
                },
                wall_stats: WallStats {
                    mean_us: 4730.25,
                    min_us: 4601.0,
                    max_us: 4905.5,
                    ci95_us: 88.125,
                    samples: 4,
                },
                validation: Validation {
                    passed: true,
                    detail: "MIS of G^1: independent + maximal, |S| = 55".into(),
                },
            }],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample();
        let text = m.to_json_string();
        let back = SuiteManifest::parse(&text).unwrap();
        assert_eq!(back, m);
        // And the re-serialization is byte-identical (stable field
        // order), so manifests diff cleanly across runs. This also pins
        // the non-integral wall statistics round-tripping exactly (the
        // writer uses the shortest-round-trip f64 representation).
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn old_schema_without_observability_fields_still_parses() {
        // A manifest written before the probe layer: no arena gauges,
        // no wall_stats.
        let m = sample();
        let mut text = m.to_json_string();
        for key in ["arena_cells_peak", "arena_bytes_peak"] {
            let from = text.find(key).unwrap() - 1;
            let to = text[from..].find('\n').unwrap() + from + 1;
            text.replace_range(from..to, "");
        }
        let from = text.find("\"wall_stats\"").unwrap();
        let to = from + text[from..].find('}').unwrap();
        let to = to + text[to..].find('\n').unwrap() + 1;
        text.replace_range(from..to, "");
        assert!(!text.contains("wall_stats") && !text.contains("arena_"));
        let back = SuiteManifest::parse(&text).unwrap();
        let r = &back.runs[0];
        assert_eq!(r.arena_cells_peak, 0);
        assert_eq!(r.arena_bytes_peak, 0);
        assert_eq!(r.wall_stats, WallStats::single(r.wall.run_us));
        assert_eq!(r.wall_stats.samples, 1);
    }

    #[test]
    fn wall_stats_from_samples() {
        let s = WallStats::from_samples(&[100.0]);
        assert_eq!(
            (s.mean_us, s.min_us, s.max_us, s.ci95_us),
            (100.0, 100.0, 100.0, 0.0)
        );
        assert_eq!(s.samples, 1);
        let s = WallStats::from_samples(&[90.0, 110.0, 100.0]);
        assert_eq!(s.mean_us, 100.0);
        assert_eq!((s.min_us, s.max_us), (90.0, 110.0));
        // sd = 10; n = 3 is deep in Student-t territory: df = 2 needs
        // 4.303, more than double the old z = 1.96.
        assert!((s.ci95_us - 4.303 * 10.0 / 3f64.sqrt()).abs() < 1e-9);
        let (lo, hi) = s.interval();
        assert!(lo < 100.0 && hi > 100.0);
    }

    #[test]
    fn ci95_uses_student_t_below_30_samples_and_z_beyond() {
        // Small n: the typical suite repeat counts all pull their
        // critical value from the t table.
        assert_eq!(crit95(2), 12.706);
        assert_eq!(crit95(3), 4.303);
        assert_eq!(crit95(5), 2.776);
        assert_eq!(crit95(29), 2.048);
        // Large n: the normal approximation takes over at exactly 30.
        assert_eq!(crit95(30), 1.96);
        assert_eq!(crit95(1000), 1.96);
        // End-to-end through from_samples: 30 equal-variance samples
        // use z, one fewer uses t(28).
        let wide: Vec<f64> = (0..30)
            .map(|i| if i % 2 == 0 { 90.0 } else { 110.0 })
            .collect();
        let s30 = WallStats::from_samples(&wide);
        let s29 = WallStats::from_samples(&wide[..29]);
        let sd30 = (wide.iter().map(|s| (s - 100.0).powi(2)).sum::<f64>() / 29.0).sqrt();
        assert!((s30.ci95_us - 1.96 * sd30 / 30f64.sqrt()).abs() < 1e-9);
        let mean29 = wide[..29].iter().sum::<f64>() / 29.0;
        let sd29 = (wide[..29].iter().map(|s| (s - mean29).powi(2)).sum::<f64>() / 28.0).sqrt();
        assert!((s29.ci95_us - 2.048 * sd29 / 29f64.sqrt()).abs() < 1e-9);
    }

    /// A `+net(...)` row of the engine manifest as the wire-shaping
    /// build wrote it, verbatim, plus the sections other retired
    /// writers added: the `recovery` object a supervised run appended
    /// after `net`, the `alloc_*` gauges and `profile` object of a
    /// gauged, profiled run, and the per-round `trace` array of a
    /// traced one.
    const ARCHIVED_WIRE_ROW: &str = r#"{
      "name": "gnp(n=1000,d=8)/k1/luby_mis/process2+net(lat=50us,bw=0,jit=0)",
      "family": "gnp",
      "graph": "gnp(n=1000,d=8)",
      "n": 1000,
      "m": 3973,
      "max_degree": 17,
      "k": 1,
      "seed": 42,
      "algorithm": "luby_mis",
      "engine": "process",
      "shards": 2,
      "net": {
        "tcp": false,
        "latency_us": 50,
        "bandwidth_bytes_per_s": 0,
        "jitter_seed": 0
      },
      "recovery": {
        "max_retries": 3,
        "backoff_ms": 0,
        "checkpoint_every": 4,
        "recoveries": 2
      },
      "rounds": 8,
      "charged_rounds": 0,
      "messages": 12898,
      "bits": 440884,
      "peak_queue_depth": 1,
      "arena_cells_peak": 7946,
      "arena_bytes_peak": 317840,
      "alloc_count": 812,
      "alloc_bytes_peak": 65536,
      "output_size": 265,
      "wall_us": {
        "build": 544,
        "run": 28895,
        "validate": 185
      },
      "wall_stats": {
        "mean_us": 28449.666666666668,
        "min_us": 27876,
        "max_us": 28895,
        "ci95_us": 1295.5349349482801,
        "samples": 3
      },
      "profile": {
        "shards": 2,
        "step_us": 1200.5,
        "transfer_us": 340.25,
        "barrier_us": 610.75,
        "imbalance": 1.37,
        "barrier_share": 0.284
      },
      "trace": [
        {
          "round": 0,
          "active_edges": 12,
          "dirty_nodes": 0,
          "messages": 0,
          "bits": 96
        },
        {
          "round": 7,
          "active_edges": 0,
          "dirty_nodes": 3,
          "messages": 3,
          "bits": 0
        }
      ],
      "validation": {
        "passed": true,
        "detail": "MIS of G^1: independent + maximal, |S| = 265"
      }
    }"#;

    #[test]
    fn archived_wire_and_recovery_sections_still_parse() {
        let text = format!("{{\"suite\": \"engines\", \"runs\": [{ARCHIVED_WIRE_ROW}]}}");
        let m = SuiteManifest::parse(&text).unwrap();
        let r = &m.runs[0];
        assert_eq!(
            r.name,
            "gnp(n=1000,d=8)/k1/luby_mis/process2+net(lat=50us,bw=0,jit=0)"
        );
        assert_eq!((r.engine.as_str(), r.shards), ("process", 2));
        assert_eq!(
            (r.rounds, r.charged_rounds, r.messages, r.bits),
            (8, 0, 12898, 440884)
        );
        assert_eq!(
            (r.peak_queue_depth, r.arena_cells_peak, r.arena_bytes_peak),
            (1, 7946, 317840)
        );
        assert_eq!(r.output_size, 265);
        assert_eq!(r.wall.run_us, 28895);
        assert_eq!(r.wall_stats.samples, 3);
        assert!(r.validation.passed);
        // Re-serializing drops the retired sections and nothing else.
        let again = m.to_json_string();
        for retired in [
            "\"net\"",
            "\"recovery\"",
            "\"alloc_",
            "\"profile\"",
            "\"trace\"",
        ] {
            assert!(!again.contains(retired), "{retired} survived: {again}");
        }
        assert_eq!(SuiteManifest::parse(&again).unwrap().runs, m.runs);
    }

    #[test]
    fn parse_rejects_missing_fields() {
        let err = SuiteManifest::parse("{\"suite\": \"x\"}").unwrap_err();
        assert!(err.message.contains("runs"));
        let err = SuiteManifest::parse("{\"suite\": \"x\", \"runs\": [{}]}").unwrap_err();
        assert!(err.message.contains("wall_us"));
    }

    #[test]
    fn pass_counting() {
        let mut m = sample();
        assert!(m.all_passed());
        m.runs[0].validation.passed = false;
        assert_eq!(m.passed(), 0);
        assert!(!m.all_passed());
    }
}
