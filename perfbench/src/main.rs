//! The powersparse benchmark: three workloads on power graphs `G^k`,
//! each measured end to end (graph build → engine → algorithm → check)
//! and, with `--trace 1`, layer by layer from one extra traced run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ruling_k2 --seed 42 --seconds 15 --trace 0
//! ```
//!
//! `--workload` is `ruling_k2`, `shatter_k3`, `luby_wire` or `all` (the
//! default); `--seed` (default 42) seeds the graph and the algorithm;
//! `--seconds` (default 15) is how long the untraced runs repeat. The
//! human-readable report goes to stdout, and its last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` carrying the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! See `perfbench/README.md` for what each metric should move.

mod layers;
mod workload;

use layers::median;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workload::{secs, Counters, Workload, WORKLOADS};

/// Input graphs per run. The untraced runs cycle over this many graphs,
/// the first one seeded with `--seed` itself, so a run's numbers average
/// over inputs instead of hinging on one graph's round count (which
/// varies by ±10% between seeds on `shatter_k3`). Every instance runs at
/// least once, however short `--seconds` is.
const INSTANCES: usize = 8;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 42,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                let w = Workload::by_name(&value).ok_or(format!(
                    "unknown workload `{value}` (ruling_k2 | shatter_k3 | luby_wire | all)"
                ))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

/// One reported number.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// What one workload reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records a failed check loudly on stderr.
    fn fail(&mut self, what: String) {
        eprintln!("perfbench: FAILED: {what}");
        self.failed += 1;
    }

    /// Counts one more attempted run; `None` when it panicked.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.fail(format!("{what} panicked"));
                None
            }
        }
    }

    /// Counts a counter mismatch between two runs of the same input.
    fn expect_same(&mut self, what: &str, want: &Counters, got: &Counters) -> bool {
        if want == got {
            return true;
        }
        self.fail(format!(
            "{what}: counters differ — rounds {} vs {}, messages {} vs {}, bits {} vs {}, \
             output {} vs {} nodes",
            want.rounds,
            got.rounds,
            want.messages,
            got.messages,
            want.bits,
            got.bits,
            want.output.len(),
            got.output.len()
        ));
        false
    }
}

/// One input graph of a run: the counters every run of it must reproduce,
/// and the wall clock of each valid run, in seconds.
struct Instance {
    seed: u64,
    counters: Option<Counters>,
    build: Vec<f64>,
    spawn: Vec<f64>,
    run: Vec<f64>,
    validate: Vec<f64>,
    total: Vec<f64>,
}

/// Seed of instance `i` of a run; instance 0 is the run's own seed.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 1_000_003)
}

/// Repeats graph build → engine → algorithm → check for `seconds`,
/// cycling over [`INSTANCES`] inputs. Every run is validated and must
/// reproduce its instance's first counters.
fn untraced_loop(w: &Workload, seed: u64, seconds: f64, rep: &mut Report) -> Option<Vec<Instance>> {
    let mut instances: Vec<Instance> = (0..INSTANCES)
        .map(|i| Instance {
            seed: instance_seed(seed, i),
            counters: None,
            build: Vec::new(),
            spawn: Vec::new(),
            run: Vec::new(),
            validate: Vec::new(),
            total: Vec::new(),
        })
        .collect();
    let start = Instant::now();
    let mut runs = 0;
    while runs < INSTANCES || secs(start) < seconds {
        let inst = &mut instances[runs % INSTANCES];
        runs += 1;
        let t0 = Instant::now();
        let g = w.build(inst.seed);
        let build_s = secs(t0);
        let Some(run) = rep.attempt("untraced run", || w.run_untraced(&g, inst.seed)) else {
            continue;
        };
        let t = Instant::now();
        let valid = w.validate(&g, &run.outcome.output);
        let validate_s = secs(t);
        drop(g);
        let total_s = secs(t0);
        if !valid {
            rep.fail(format!("seed {}: output fails validation", inst.seed));
            continue;
        }
        let counters = run.outcome.counters();
        match &inst.counters {
            Some(c0) if !rep.expect_same("untraced runs", c0, &counters) => continue,
            Some(_) => {}
            None => inst.counters = Some(counters),
        }
        inst.build.push(build_s);
        inst.spawn.push(run.spawn_s);
        inst.run.push(run.run_s);
        inst.validate.push(validate_s);
        inst.total.push(total_s);
    }
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    for inst in &instances {
        let Some(c) = &inst.counters else {
            rep.fail(format!("seed {}: no valid untraced run", inst.seed));
            return None;
        };
        println!(
            "# seed {}: {} rounds, {} messages, {} bits, |output| {}; run_s {}",
            inst.seed,
            c.rounds,
            c.messages,
            c.bits,
            c.output.len(),
            list(&inst.run)
        );
    }
    Some(instances)
}

/// Every sample of one per-run series, across instances.
fn pooled(instances: &[Instance], series: impl Fn(&Instance) -> Vec<f64>) -> Vec<f64> {
    instances.iter().flat_map(series).collect()
}

fn counters(inst: &Instance) -> &Counters {
    inst.counters.as_ref().expect("checked by untraced_loop")
}

/// The median over instances of one counter. A median, because a few
/// seeds take a much longer path (one `shatter_k3` graph in ~40 needs 2.5×
/// the usual rounds) and a mean would follow them.
fn median_counter(instances: &[Instance], counter: impl Fn(&Counters) -> u64) -> f64 {
    median(
        &instances
            .iter()
            .map(|i| counter(counters(i)) as f64)
            .collect::<Vec<_>>(),
    )
}

/// Keeps memory freed by one run inside the process for the next one.
/// By default glibc hands large blocks back to the kernel on free, so
/// every run faults its arena and graph memory in afresh; on a virtual
/// machine that reclaims free guest pages that refault cost follows the
/// host's load (±15% on `run_s` between runs on a 2-vCPU VM). Retaining
/// the memory makes every run after the first a warm one; `peak_rss_mb`
/// then includes what the process retained.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn retain_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers and only changes glibc's own
    // allocator parameters, under the allocator's lock.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    };
    assert!(ok, "mallopt rejected the allocator settings");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn retain_freed_memory() {}

/// Peak resident set of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    // `struct rusage` on Linux: two `timeval`s, then 14 `long` counters,
    // of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out like the C
    // `struct rusage`, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss as f64 / 1024.0
}

fn end_to_end(w: &Workload, args: &Args) -> Report {
    let mut rep = Report::default();
    let Some(inst) = untraced_loop(w, args.seed, args.seconds, &mut rep) else {
        return rep;
    };
    // Timings are medians over every run of every instance, robust to the
    // odd slow run.
    let setup = pooled(&inst, |i| {
        i.build.iter().zip(&i.spawn).map(|(b, e)| b + e).collect()
    });
    let run_s = median(&pooled(&inst, |i| i.run.clone()));
    let messages = median_counter(&inst, |c| c.messages);
    rep.push("run_s", "s", run_s);
    rep.push("setup_s", "s", median(&setup));
    rep.push("total_s", "s", median(&pooled(&inst, |i| i.total.clone())));
    rep.push("msgs_per_s", "1/s", messages / run_s);
    rep.push("rounds", "count", median_counter(&inst, |c| c.rounds));
    rep.push("messages", "count", messages);
    rep.push("bits", "bit", median_counter(&inst, |c| c.bits));
    rep.push("peak_rss_mb", "MB", peak_rss_mb());
    rep
}

fn per_layer(w: &Workload, args: &Args) -> Report {
    let mut rep = Report::default();
    let Some(inst) = untraced_loop(w, args.seed, args.seconds, &mut rep) else {
        return rep;
    };
    // The traced pass runs instance 0, the graph of `--seed` itself.
    let c = counters(&inst[0]);
    let run_s = median(&inst[0].run);
    let g = w.build(args.seed);

    let Some(traced) = rep.attempt("traced run", || w.run_traced(&g, args.seed)) else {
        return rep;
    };
    let tc = traced.outcome.counters();
    if !w.validate(&g, &traced.outcome.output) {
        rep.fail("traced run: output fails validation".into());
    }
    rep.expect_same("traced vs untraced", c, &tc);
    let spans = match layers::span_totals(&traced.probe, &traced.outcome.metrics) {
        Ok(spans) => spans,
        Err(e) => {
            rep.fail(format!("trace self-check: {e}"));
            return rep;
        }
    };
    if spans.round_s > traced.wall_s {
        rep.fail(format!(
            "trace self-check: round spans {:.6} s exceed the traced wall {:.6} s",
            spans.round_s, traced.wall_s
        ));
    }
    drop(traced.probe);

    let sequential_s = match rep.attempt("sequential run", || w.run_sequential(&g, args.seed)) {
        Some(seq) => {
            rep.expect_same("sequential vs traced", &tc, &seq.outcome.counters());
            seq.run_s
        }
        None => 0.0,
    };

    let (mut sparsify_s, mut mis_s) = (0.0, 0.0);
    if w.algorithm == workload::Algorithm::DetRulingK2 {
        if let Some((sp, mi, out)) = rep.attempt("ruling split run", || w.run_ruling_split(&g)) {
            rep.expect_same("sparsify + mis vs det_ruling_k2", &tc, &out.counters());
            (sparsify_s, mis_s) = (sp, mi);
        }
    }

    let wire = traced.wire.as_ref();
    let codec = match wire.map(layers::replay_codec) {
        Some(Err(e)) => {
            rep.fail(format!("codec replay: {e}"));
            None
        }
        Some(Ok(codec)) => Some(codec),
        None => None,
    };
    let on_wire = |f: &dyn Fn(&layers::WireTally) -> f64| wire.map_or(0.0, f);
    let send_s = on_wire(&|t| t.send_ns as f64 * 1e-9);
    let recv_s = on_wire(&|t| t.recv_ns as f64 * 1e-9);
    let codec_s = codec.as_ref().map_or(0.0, |c| c.codec_s);
    let residual_s = on_wire(&|_| spans.barrier_s - send_s - recv_s - codec_s);

    rep.push(
        "generators.build_s",
        "s",
        median(&pooled(&inst, |i| i.build.clone())),
    );
    rep.push(
        "engine.spawn_s",
        "s",
        median(&pooled(&inst, |i| i.spawn.clone())),
    );
    rep.push("core.driver_s", "s", traced.wall_s - spans.round_s);
    rep.push("core.sparsify_s", "s", sparsify_s);
    rep.push("core.mis_s", "s", mis_s);
    rep.push("engine.round_s", "s", spans.round_s);
    rep.push("engine.step_s", "s", spans.step_s);
    rep.push("engine.transfer_s", "s", spans.transfer_s);
    rep.push("engine.barrier_wait_s", "s", spans.barrier_s);
    rep.push("engine.step_imbalance", "ratio", spans.step_imbalance);
    rep.push(
        "engine.span_coverage",
        "ratio",
        spans.round_s / traced.wall_s,
    );
    rep.push(
        "msgcore.arena_cells_peak",
        "count",
        c.arena_cells_peak as f64,
    );
    rep.push(
        "msgcore.peak_queue_depth",
        "count",
        c.peak_queue_depth as f64,
    );
    rep.push(
        "msgcore.active_edges_mean",
        "count",
        spans.active_edges_mean,
    );
    rep.push("wire.frames_tx", "count", on_wire(&|t| t.tx.len() as f64));
    rep.push("wire.frames_rx", "count", on_wire(&|t| t.rx.len() as f64));
    rep.push("wire.bytes_tx", "bytes", on_wire(&|t| t.bytes_tx() as f64));
    rep.push("wire.bytes_rx", "bytes", on_wire(&|t| t.bytes_rx() as f64));
    rep.push("wire.send_s", "s", send_s);
    rep.push("wire.recv_wait_s", "s", recv_s);
    rep.push("wire.codec_s", "s", codec_s);
    rep.push(
        "wire.crc_mb_s",
        "MB/s",
        codec.as_ref().map_or(0.0, |c| c.crc_mb_s),
    );
    rep.push("wire.residual_s", "s", residual_s);
    rep.push(
        "check.validate_s",
        "s",
        median(&pooled(&inst, |i| i.validate.clone())),
    );
    rep.push("baseline.sequential_run_s", "s", sequential_s);
    rep.push(
        "engine.speedup_vs_sequential",
        "x",
        if sequential_s > 0.0 {
            sequential_s / run_s
        } else {
            0.0
        },
    );
    rep.push("trace.overhead_s", "s", traced.wall_s - run_s);
    rep
}

/// The CPU brand string, from `cpuid` (no file access needed).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // The brand string leaves exist only when leaf 0x8000_0000 says so.
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let brand: Vec<u8> = (0x8000_0002u32..=0x8000_0004)
        .flat_map(|leaf| {
            let r = __cpuid(leaf);
            [r.eax, r.ebx, r.ecx, r.edx]
        })
        .flat_map(u32::to_le_bytes)
        .collect();
    String::from_utf8_lossy(&brand)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The checked-out revision, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(name) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, r) = l.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON number: every digit as measured, but never a non-finite value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    retain_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench [--workload NAME|all] [--seed N] \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench seed={} seconds={} trace={} nproc={nproc} cpu=\"{}\" rev={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu_model(),
        git_revision()
    );
    // Shards beyond the cores would time contention, not the engine.
    if let Some(w) = args.workloads.iter().find(|w| w.shards > nproc) {
        eprintln!(
            "perfbench: workload {} needs {} shards but only {nproc} CPUs are available",
            w.name, w.shards
        );
        return ExitCode::from(3);
    }
    let prefix = args.workloads.len() > 1;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for w in &args.workloads {
        println!("# workload {}: {} — {}", w.name, w.describe(), w.why);
        let t = Instant::now();
        let rep = if args.trace {
            per_layer(w, &args)
        } else {
            end_to_end(w, &args)
        };
        println!("| {} metric | value | unit |\n| --- | --- | --- |", w.name);
        for m in &rep.metrics {
            println!("| {} | {} | {} |", m.name, json_number(m.value), m.unit);
        }
        println!(
            "# {}: fail_rate {}/{} runs, {:.1} s",
            w.name,
            rep.failed,
            rep.attempted,
            secs(t)
        );
        attempted += rep.attempted;
        failed += rep.failed;
        for m in rep.metrics {
            let name = if prefix {
                format!("{}/{}", w.name, m.name)
            } else {
                m.name.to_string()
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            ));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
