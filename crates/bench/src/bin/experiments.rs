//! The front end of the workload scenario runner. The paper's tables
//! are the `paper` suite profile (committed as `BENCH_paper.json`) and
//! the engine matrix is the `engines` profile (`BENCH_engine.json`).
//! Usage:
//!
//! ```text
//! experiments suite (--profile smoke|paper|engines | --spec FILE.toml) --out MANIFEST.json
//!                   [--force-engine ENGINE] [--repeats R] [--warmup W]
//! experiments suite --diff OLD.json NEW.json [--ignore-engine]
//! experiments trend [DIR] [--out REPORT.json]
//! experiments profile SCENARIO [--repeats R] [--chrome-trace OUT.json]
//! ```
//!
//! Output is markdown. The `suite` subcommand runs a builtin profile
//! or a spec file (one of the two is required), writes a structured JSON manifest
//! to `--out` for cross-run regression diffing, and exits nonzero if any
//! run fails its validity checks; `--repeats R` times each scenario's
//! run phase `R` times (plus `--warmup W` discarded invocations) and
//! records mean/min/max/95%-CI wall statistics in the manifest. `trend`
//! renders the cost trajectory across every `BENCH_*.json` in a
//! directory. `profile` runs one named builtin scenario (from any
//! profile) with the span probe attached and prints the per-round
//! activity table (round, active edges, dirty nodes, messages, bits),
//! the run's totals and validation, and the per-stage × per-shard wall
//! breakdown (step/transfer/barrier, imbalance, barrier-overhead share);
//! `--chrome-trace` exports a Perfetto-loadable trace-event file.

const USAGE: &str = "usage: experiments suite|trend|profile [ARGS]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("suite") => suite_cmd(&args[1..]),
        Some("trend") => trend_cmd(&args[1..]),
        Some("profile") => profile_cmd(&args[1..]),
        Some(other) => {
            eprintln!("unknown experiment '{other}' ({USAGE})");
            std::process::exit(2);
        }
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Formats a markdown-style table row.
fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// E11 — `experiments trend [DIR] [--out REPORT.json]`: load every
/// `BENCH_*.json` manifest in `DIR` (default `.`), render the
/// per-scenario cost trajectory and optionally emit it as JSON. A
/// malformed or unreadable manifest exits nonzero — CI runs this over
/// the committed manifests, so a bad commit breaks the build.
fn trend_cmd(args: &[String]) {
    use powersparse_workloads::{SuiteManifest, TrendReport};

    let mut dir: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(
                    it.next()
                        .unwrap_or_else(|| {
                            eprintln!("--out requires a value");
                            std::process::exit(2);
                        })
                        .clone(),
                );
            }
            other if dir.is_none() && !other.starts_with('-') => dir = Some(other.to_string()),
            other => {
                eprintln!(
                    "unknown trend argument '{other}' \
                     (usage: experiments trend [DIR] [--out REPORT.json])"
                );
                std::process::exit(2);
            }
        }
    }
    let dir = dir.unwrap_or_else(|| ".".into());
    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| {
        eprintln!("cannot read directory {dir}: {e}");
        std::process::exit(2);
    });
    let mut manifests: Vec<(String, SuiteManifest)> = Vec::new();
    for entry in entries {
        let entry = entry.unwrap_or_else(|e| {
            eprintln!("cannot list {dir}: {e}");
            std::process::exit(2);
        });
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(entry.path()).unwrap_or_else(|e| {
            eprintln!("cannot read manifest {name}: {e}");
            std::process::exit(2);
        });
        let manifest = SuiteManifest::parse(&text).unwrap_or_else(|e| {
            eprintln!("malformed manifest {name}: {e}");
            std::process::exit(2);
        });
        manifests.push((name, manifest));
    }
    if manifests.is_empty() {
        eprintln!("no BENCH_*.json manifests found in {dir}");
        std::process::exit(2);
    }
    let report = TrendReport::from_manifests(&manifests);
    println!("\n## E11: Manifest trend — `{dir}`\n");
    print!("{}", report.render_markdown());
    if let Some(path) = out {
        std::fs::write(&path, report.to_json().to_string_pretty())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\ntrend report written to {path}");
    }
}

/// Looks a scenario up by canonical name across the builtin suites —
/// smoke first, then the paper and engines scenarios smoke does not
/// carry. Unknown names list the catalogue and exit nonzero.
fn find_builtin_scenario(target: &str) -> powersparse_workloads::Scenario {
    use powersparse_workloads::{builtin_suite, SuiteProfile};
    let mut scenarios = builtin_suite(SuiteProfile::Smoke);
    for sc in [SuiteProfile::Paper, SuiteProfile::Engines]
        .into_iter()
        .flat_map(builtin_suite)
    {
        if !scenarios.iter().any(|s| s.name() == sc.name()) {
            scenarios.push(sc);
        }
    }
    let Some(i) = scenarios.iter().position(|s| s.name() == target) else {
        eprintln!("unknown scenario '{target}'; builtin scenarios:");
        for s in &scenarios {
            eprintln!("  {}", s.name());
        }
        std::process::exit(2);
    };
    scenarios.swap_remove(i)
}

/// E13 — `profile`: where one builtin scenario's rounds and wall clock
/// went. Runs the scenario `--repeats` times with a span probe attached
/// and prints the per-round activity table (every round), the run's
/// totals and validation, then the per-stage × per-shard wall
/// breakdown, the step-imbalance metric (max/mean shard step time) and
/// the barrier overhead share. Every repeat's probe is re-checked
/// against the run's counters ([`powersparse_workloads::trace_violations`]);
/// a broken invariant or a failed validation exits 1. `--chrome-trace
/// OUT.json` additionally exports the first profiled run as a Chrome
/// trace-event file (one Perfetto track per shard plus active-edge/arena
/// counter tracks), gated by parsing the written file back. Span timings
/// are machine-shaped: nothing here is compared across runs or engines.
fn profile_cmd(args: &[String]) {
    use powersparse_workloads::{
        breakdown, chrome_trace, profile_scenario, trace_violations, Json, Scenario,
    };

    let mut target: Option<String> = None;
    let mut repeats = 1usize;
    let mut trace_out: Option<String> = None;
    let usage = "usage: experiments profile SCENARIO [--repeats R] [--chrome-trace OUT.json]";
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--repeats" => {
                let value = it.next().unwrap_or_else(|| {
                    eprintln!("--repeats requires a value ({usage})");
                    std::process::exit(2);
                });
                repeats = match value.parse::<usize>() {
                    Ok(v) if v >= 1 => v,
                    _ => {
                        eprintln!("cannot parse repeats '{value}' (an integer >= 1)");
                        std::process::exit(2);
                    }
                };
            }
            "--chrome-trace" => {
                trace_out = Some(
                    it.next()
                        .unwrap_or_else(|| {
                            eprintln!("--chrome-trace requires a path ({usage})");
                            std::process::exit(2);
                        })
                        .clone(),
                );
            }
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => {
                eprintln!("unknown profile argument '{other}' ({usage})");
                std::process::exit(2);
            }
        }
    }
    let Some(target) = target else {
        eprintln!("profile requires a scenario name ({usage})");
        std::process::exit(2);
    };
    let sc = find_builtin_scenario(&target);
    let (rec, probes) =
        profile_scenario(&sc, repeats).unwrap_or_else(|e| panic!("profile run failed: {e}"));

    println!(
        "\n## E13: Profile — `{}` ({} rounds, {} charged)\n",
        Scenario::name(&sc),
        rec.rounds,
        rec.charged_rounds
    );
    println!(
        "{}",
        row(&["round", "active edges", "dirty nodes", "messages", "bits"].map(String::from))
    );
    println!("{}", row(&["---"; 5].map(String::from)));
    for obs in &probes[0].rounds {
        println!(
            "{}",
            row(&[
                obs.round.to_string(),
                obs.active_edges.to_string(),
                obs.dirty_nodes.to_string(),
                obs.messages.to_string(),
                obs.bits.to_string(),
            ])
        );
    }
    println!(
        "\ntotals: {} rounds ({} charged), {} messages, {} bits; peak queue {}; \
         arena peak {} cells / {} bytes; validation: {}",
        rec.rounds,
        rec.charged_rounds,
        rec.messages,
        rec.bits,
        rec.peak_queue_depth,
        rec.arena_cells_peak,
        rec.arena_bytes_peak,
        rec.validation.detail
    );
    let mut bad = !rec.validation.passed;
    for (i, probe) in probes.iter().enumerate() {
        for violation in trace_violations(probe, &rec) {
            eprintln!("PROBE VIOLATION (repeat {i}): {violation}");
            bad = true;
        }
    }

    let b = breakdown(&probes);
    println!(
        "\n### Stages ({} shard{}, {} repeat{})\n",
        b.stats.shards,
        if b.stats.shards == 1 { "" } else { "s" },
        repeats,
        if repeats == 1 { "" } else { "s" },
    );
    println!(
        "{}",
        row(&["shard", "step", "transfer", "barrier wait", "total"].map(String::from))
    );
    println!("{}", row(&["---"; 5].map(String::from)));
    let us = |v: f64| format!("{v:.1}µs");
    for sp in &b.shards {
        println!(
            "{}",
            row(&[
                sp.shard.to_string(),
                us(sp.step_us),
                us(sp.transfer_us),
                us(sp.barrier_us),
                us(sp.total_us()),
            ])
        );
    }
    println!(
        "{}",
        row(&[
            "Σ".into(),
            us(b.stats.step_us),
            us(b.stats.transfer_us),
            us(b.stats.barrier_us),
            us(b.stats.step_us + b.stats.transfer_us + b.stats.barrier_us),
        ])
    );
    println!(
        "\nstep imbalance (max/mean over shards): {:.2}; barrier overhead: {:.1}% of \
         attributed time; spanned-run wall mean: {:.1}µs",
        b.stats.imbalance,
        100.0 * b.stats.barrier_share,
        rec.wall_stats.mean_us,
    );

    if let Some(path) = &trace_out {
        let doc = chrome_trace(&probes[0], &Scenario::name(&sc));
        let text = doc.to_string_pretty();
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        let reread =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot re-read {path}: {e}"));
        match Json::parse(&reread) {
            Ok(back) if back == doc => {
                let events = back
                    .get("traceEvents")
                    .and_then(Json::as_arr)
                    .map_or(0, |a| a.len());
                println!("chrome trace written to {path} ({events} events) — load it in Perfetto");
            }
            Ok(_) => {
                eprintln!("CHROME TRACE VIOLATION: {path} drifted through the round trip");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("CHROME TRACE VIOLATION: {path} does not parse back: {e}");
                std::process::exit(1);
            }
        }
    }
    if bad {
        eprintln!("profile failed — see above");
        std::process::exit(1);
    }
}

/// E10 — The workload scenario suite: the declarative graph-family ×
/// algorithm × engine matrix of `powersparse-workloads` (the smoke,
/// paper or engines profile, or a spec file), validated run by run, with
/// a JSON manifest for `BENCH_*.json` trajectory tracking. Each row's `valid`
/// column is its validation detail: the checked guarantee plus the
/// measured quantities the paper's tables report.
fn suite_cmd(args: &[String]) {
    use powersparse_workloads::{
        builtin_suite, parse_suite, run_suite_with, EngineSpec, Repeat, SuiteProfile,
    };

    let usage = "usage: experiments suite (--profile smoke|paper|engines | --spec FILE.toml) \
                 --out MANIFEST.json [--force-engine sequential|pooled|process] \
                 [--repeats R] [--warmup W] \
                 | suite --diff OLD.json NEW.json [--ignore-engine]";
    // Strict argument parsing: a mistyped flag must not silently run
    // something else (the spec-file parser rejects unknown keys for the
    // same reason).
    let mut profile: Option<(String, SuiteProfile)> = None;
    let mut out: Option<String> = None;
    let mut spec: Option<String> = None;
    let mut diff: Option<(String, String)> = None;
    let mut force_engine: Option<String> = None;
    let mut ignore_engine = false;
    let mut repeats = 1usize;
    let mut warmup = 0usize;
    let mut saw_repeat_flags = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ignore-engine" => ignore_engine = true,
            "--repeats" | "--warmup" => {
                let value = it.next().unwrap_or_else(|| {
                    eprintln!("{arg} requires a value");
                    std::process::exit(2);
                });
                let parsed = match value.parse::<usize>() {
                    Ok(v) if arg == "--warmup" || v >= 1 => v,
                    _ => {
                        eprintln!("cannot parse {arg} '{value}' (a count; --repeats needs ≥ 1)");
                        std::process::exit(2);
                    }
                };
                if arg == "--repeats" {
                    repeats = parsed;
                } else {
                    warmup = parsed;
                }
                saw_repeat_flags = true;
            }
            "--out" | "--spec" | "--force-engine" | "--profile" => {
                let value = it.next().unwrap_or_else(|| {
                    eprintln!("{arg} requires a value");
                    std::process::exit(2);
                });
                match arg.as_str() {
                    "--out" => out = Some(value.clone()),
                    "--force-engine" => force_engine = Some(value.clone()),
                    "--profile" => {
                        let builtin = match value.as_str() {
                            "smoke" => SuiteProfile::Smoke,
                            "paper" => SuiteProfile::Paper,
                            "engines" => SuiteProfile::Engines,
                            other => {
                                eprintln!(
                                    "unknown profile '{other}' (expected smoke|paper|engines)"
                                );
                                std::process::exit(2);
                            }
                        };
                        profile = Some((value.clone(), builtin));
                    }
                    _ => spec = Some(value.clone()),
                }
            }
            "--diff" => {
                let (Some(old), Some(new)) = (it.next(), it.next()) else {
                    eprintln!("--diff requires two manifest paths: OLD.json NEW.json");
                    std::process::exit(2);
                };
                diff = Some((old.clone(), new.clone()));
            }
            other => {
                eprintln!("unknown suite argument '{other}' ({usage})");
                std::process::exit(2);
            }
        }
    }
    if let Some((old_path, new_path)) = diff {
        if profile.is_some()
            || out.is_some()
            || spec.is_some()
            || force_engine.is_some()
            || saw_repeat_flags
        {
            eprintln!("--diff compares two existing manifests; it cannot be combined with --profile/--spec/--out/--force-engine/--repeats/--warmup");
            std::process::exit(2);
        }
        return diff_cmd(&old_path, &new_path, ignore_engine);
    }
    if ignore_engine {
        eprintln!("--ignore-engine only applies to --diff");
        std::process::exit(2);
    }
    if profile.is_some() && spec.is_some() {
        eprintln!("--profile and --spec both choose the scenarios; pass one ({usage})");
        std::process::exit(2);
    }
    // No default manifest path: a run must never overwrite a committed
    // baseline by accident.
    let Some(out) = out else {
        eprintln!("suite runs need --out MANIFEST.json ({usage})");
        std::process::exit(2);
    };
    let (mut name, mut scenarios) = match (spec, profile) {
        (Some(path), _) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read spec {path}: {e}"));
            let scenarios = parse_suite(&text).unwrap_or_else(|e| panic!("{e}"));
            (path, scenarios)
        }
        (None, Some((name, profile))) => (name, builtin_suite(profile)),
        (None, None) => {
            eprintln!("suite runs need --profile or --spec ({usage})");
            std::process::exit(2);
        }
    };
    // `--force-engine` reruns the whole matrix on one backend, keeping
    // each scenario's worker count. The engine contract promises the
    // counters cannot change; `suite --diff --ignore-engine` against the
    // mixed-engine baseline turns that promise into a CI gate.
    if let Some(engine) = force_engine {
        for sc in &mut scenarios {
            let shards = sc.engine.shards();
            sc.engine = match engine.as_str() {
                "sequential" => EngineSpec::Sequential,
                "pooled" => EngineSpec::Pooled { shards },
                "process" => EngineSpec::Process { shards },
                other => {
                    eprintln!("unknown engine '{other}' (expected sequential|pooled|process)");
                    std::process::exit(2);
                }
            };
        }
        name = format!("{name}+force-{engine}");
    }
    let rep = Repeat {
        invocations: repeats,
        warmup,
    };
    println!(
        "\n## E10: Workload suite `{name}` — {} scenarios{}\n",
        scenarios.len(),
        if repeats > 1 {
            format!(" ({repeats} repeats, {warmup} warmup)")
        } else {
            String::new()
        }
    );
    println!(
        "{}",
        row(&[
            "scenario",
            "n",
            "m",
            "rounds",
            "messages",
            "peak queue",
            "run wall",
            "valid"
        ]
        .map(String::from))
    );
    println!("{}", row(&["---"; 8].map(String::from)));
    let manifest =
        run_suite_with(&name, &scenarios, rep).unwrap_or_else(|e| panic!("suite failed: {e}"));
    for run in &manifest.runs {
        let wall = if run.wall_stats.samples > 1 {
            format!(
                "{:.1}±{:.1}ms",
                run.wall_stats.mean_us / 1000.0,
                run.wall_stats.ci95_us / 1000.0
            )
        } else {
            format!("{:.1}ms", run.wall.run_us as f64 / 1000.0)
        };
        println!(
            "{}",
            row(&[
                run.name.clone(),
                run.n.to_string(),
                run.m.to_string(),
                run.rounds.to_string(),
                run.messages.to_string(),
                run.peak_queue_depth.to_string(),
                wall,
                if run.validation.passed {
                    run.validation.detail.clone()
                } else {
                    format!("NO: {}", run.validation.detail)
                },
            ])
        );
    }
    std::fs::write(&out, manifest.to_json_string())
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "\n{}/{} runs valid; manifest written to {out}",
        manifest.passed(),
        manifest.runs.len()
    );
    if !manifest.all_passed() {
        eprintln!("validation failures — see the manifest");
        std::process::exit(1);
    }
}

/// E10b — `suite --diff`: field-by-field manifest regression comparison.
/// Exits nonzero when a baseline run is missing or reshaped, a counter
/// grew, or a validation flipped to failed. With
/// `--ignore-engine`, runs are matched modulo engine backend and shard
/// count — the cross-engine conformance gate.
fn diff_cmd(old_path: &str, new_path: &str, ignore_engine: bool) {
    use powersparse_workloads::{diff_manifests_with, DiffOptions, SuiteManifest};

    let load = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read manifest {path}: {e}");
            std::process::exit(2);
        });
        SuiteManifest::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    println!(
        "\n## E10b: Suite regression diff — `{old_path}` ({} runs) vs `{new_path}` ({} runs)\n",
        old.runs.len(),
        new.runs.len()
    );
    let report = diff_manifests_with(&old, &new, DiffOptions { ignore_engine });
    print!("{report}");
    if !report.clean() {
        eprintln!("regression diff failed — see the report above");
        std::process::exit(1);
    }
}
