//! The three benchmark workloads and the calls the benchmark times: graph
//! generation, engine construction, the algorithm entry point and the
//! `check` predicate. Only public library functions are called.

use crate::layers::{TapTransport, WireTally};
use powersparse::mis::{luby_mis, mis_power, PostShattering};
use powersparse::ruling::{det_ruling_set_k2, mis_on_sparse_power};
use powersparse::sparsify::{sparsify_power, SamplingStrategy};
use powersparse::TheoryParams;
use powersparse_congest::engine::{Metrics, RoundEngine};
use powersparse_congest::probe::SpanProbe;
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::{PooledSimulator, ProcessSimulator};
use powersparse_graphs::{check, generators, Graph, NodeId};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Average degree of every workload graph (`connected_sparse_gnp(n, 8)`,
/// the `gnp(n=…,d=8)` family of the scenario runner).
const AVG_DEG: f64 = 8.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Theorem 1.1: deterministic `(k+1, k²)`-ruling set via sparsification.
    DetRulingK2,
    /// Theorems 1.2/1.4: shattering MIS of `G^k`, one-phase post-shattering.
    ShatterMis,
    /// Luby's MIS of `G^k`.
    LubyMis,
}

/// In-memory worker pool or one forked child per shard over Unix sockets.
/// Deliberately no sharded backend, shaping, TCP or chaos: the benchmark
/// must keep measuring the same thing while those are reworked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Pooled,
    Process,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub n: usize,
    pub k: usize,
    pub algorithm: Algorithm,
    pub backend: Backend,
    pub shards: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ruling_k2",
        why: "Thm 1.1 ruling set: code between rounds (seed search, greedy MIS) dominates; \
              message queues are deep",
        n: 20_000,
        k: 2,
        algorithm: Algorithm::DetRulingK2,
        backend: Backend::Pooled,
        shards: 2,
    },
    Workload {
        name: "shatter_k3",
        why: "shattering MIS on G^3: the in-memory round engine (step, transfer) dominates; \
              queues are shallow; the parallel engine beats the sequential one",
        n: 100_000,
        k: 3,
        algorithm: Algorithm::ShatterMis,
        backend: Backend::Pooled,
        shards: 2,
    },
    Workload {
        name: "luby_wire",
        why: "Luby MIS on the multi-process backend: the wire (frame codec, CRC, sockets) \
              dominates; little runs between rounds",
        n: 50_000,
        k: 2,
        algorithm: Algorithm::LubyMis,
        backend: Backend::Process,
        shards: 2,
    },
];

/// What one algorithm run produced: the engine's counters and the output
/// node set, sorted.
pub struct Outcome {
    pub metrics: Metrics,
    pub output: Vec<NodeId>,
}

/// The counters every run of one input must reproduce exactly, on every
/// backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    pub rounds: u64,
    pub charged_rounds: u64,
    pub messages: u64,
    pub bits: u64,
    pub peak_queue_depth: u64,
    pub arena_cells_peak: u64,
    pub output: Vec<NodeId>,
}

impl Outcome {
    pub fn counters(&self) -> Counters {
        let m = &self.metrics;
        Counters {
            rounds: m.rounds,
            charged_rounds: m.charged_rounds,
            messages: m.messages,
            bits: m.bits,
            peak_queue_depth: m.peak_queue_depth,
            arena_cells_peak: m.arena_cells_peak,
            output: self.output.clone(),
        }
    }
}

/// One untraced run: engine construction and algorithm wall, in seconds.
pub struct Timed {
    pub spawn_s: f64,
    pub run_s: f64,
    pub outcome: Outcome,
}

/// The traced run: its wall, outcome, span probe and (process backend
/// only) the wire traffic captured by the timing transport.
pub struct Traced {
    pub wall_s: f64,
    pub outcome: Outcome,
    pub probe: SpanProbe,
    pub wire: Option<WireTally>,
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Times engine construction and the algorithm call on that engine.
fn timed<E: RoundEngine>(
    make: impl FnOnce() -> E,
    run: impl FnOnce(&mut E) -> Vec<NodeId>,
) -> Timed {
    let t = Instant::now();
    let mut eng = make();
    let spawn_s = secs(t);
    let t = Instant::now();
    let output = run(&mut eng);
    let run_s = secs(t);
    Timed {
        spawn_s,
        run_s,
        outcome: Outcome {
            metrics: eng.metrics().clone(),
            output,
        },
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn describe(&self) -> String {
        let algorithm = match self.algorithm {
            Algorithm::DetRulingK2 => "det_ruling_k2",
            Algorithm::ShatterMis => "shatter_mis",
            Algorithm::LubyMis => "luby_mis",
        };
        let backend = match self.backend {
            Backend::Pooled => "pooled",
            Backend::Process => "process",
        };
        format!(
            "gnp(n={},d={AVG_DEG})/k{}/{algorithm}/{backend}{}",
            self.n, self.k, self.shards
        )
    }

    pub fn build(&self, seed: u64) -> Graph {
        generators::connected_sparse_gnp(self.n, AVG_DEG, seed)
    }

    /// The algorithm entry point, exactly as the scenario runner calls it
    /// (same parameters, the workload seed as the algorithm seed).
    fn run<E: RoundEngine>(&self, eng: &mut E, seed: u64) -> Vec<NodeId> {
        let params = TheoryParams::scaled();
        let mut set = match self.algorithm {
            Algorithm::DetRulingK2 => det_ruling_set_k2(eng, self.k, &params, seed).ruling_set,
            Algorithm::ShatterMis => {
                let (mask, _) = mis_power(eng, self.k, &params, seed, PostShattering::OnePhase)
                    .expect("shattering MIS failed");
                generators::members(&mask)
            }
            Algorithm::LubyMis => generators::members(&luby_mis(eng, self.k, seed)),
        };
        set.sort_unstable();
        set
    }

    /// The output check: a `(k+1, k²)`-ruling set for Theorem 1.1, an MIS
    /// of `G^k` otherwise.
    pub fn validate(&self, g: &Graph, output: &[NodeId]) -> bool {
        match self.algorithm {
            Algorithm::DetRulingK2 => check::is_ruling_set(g, output, self.k + 1, self.k * self.k),
            Algorithm::ShatterMis | Algorithm::LubyMis => check::is_mis_of_power(g, output, self.k),
        }
    }

    pub fn run_untraced(&self, g: &Graph, seed: u64) -> Timed {
        let config = SimConfig::for_graph(g);
        match self.backend {
            Backend::Pooled => timed(
                || PooledSimulator::with_shards(g, config, self.shards),
                |e| self.run(e, seed),
            ),
            Backend::Process => timed(
                || ProcessSimulator::with_shards(g, config, self.shards),
                |e| self.run(e, seed),
            ),
        }
    }

    /// The sequential reference engine on the same input.
    pub fn run_sequential(&self, g: &Graph, seed: u64) -> Timed {
        timed(
            || Simulator::new(g, SimConfig::for_graph(g)),
            |e| self.run(e, seed),
        )
    }

    /// One run with a [`SpanProbe`] attached and, on the process backend,
    /// every shard link wrapped in a timing [`TapTransport`].
    pub fn run_traced(&self, g: &Graph, seed: u64) -> Traced {
        let config = SimConfig::for_graph(g);
        match self.backend {
            Backend::Pooled => {
                let mut eng = PooledSimulator::with_probe(g, config, self.shards, SpanProbe::new());
                let t = Instant::now();
                let output = self.run(&mut eng, seed);
                let wall_s = secs(t);
                let metrics = RoundEngine::metrics(&eng).clone();
                Traced {
                    wall_s,
                    outcome: Outcome { metrics, output },
                    probe: eng.into_probe(),
                    wire: None,
                }
            }
            Backend::Process => {
                let mut eng =
                    ProcessSimulator::with_probe(g, config, self.shards, SpanProbe::new());
                let tally = Arc::new(Mutex::new(WireTally::default()));
                for w in 0..eng.shards() {
                    let tally = Arc::clone(&tally);
                    eng.wrap_transport(w, move |inner| Box::new(TapTransport::new(inner, tally)));
                }
                let t = Instant::now();
                let output = self.run(&mut eng, seed);
                let wall_s = secs(t);
                let metrics = RoundEngine::metrics(&eng).clone();
                // Taken before the engine drops, so the shutdown frames of
                // the teardown are not counted.
                let wire = std::mem::take(&mut *tally.lock().expect("wire tally poisoned"));
                Traced {
                    wall_s,
                    outcome: Outcome { metrics, output },
                    probe: eng.into_probe(),
                    wire: Some(wire),
                }
            }
        }
    }

    /// Theorem 1.1 split into its two public stages on a fresh engine of
    /// the workload's backend: `(sparsify_s, mis_s, outcome)`. The stages
    /// are the ones `try_det_ruling_set_k2` runs, so the outcome must equal
    /// the whole pipeline's.
    pub fn run_ruling_split(&self, g: &Graph) -> (f64, f64, Outcome) {
        assert_eq!(self.algorithm, Algorithm::DetRulingK2);
        assert_eq!(self.backend, Backend::Pooled);
        let mut eng = PooledSimulator::with_shards(g, SimConfig::for_graph(g), self.shards);
        let t = Instant::now();
        let sparse = sparsify_power(
            &mut eng,
            self.k - 1,
            &vec![true; g.n()],
            &TheoryParams::scaled(),
            SamplingStrategy::SeedSearch,
        )
        .expect("sparsification failed");
        let sparsify_s = secs(t);
        let t = Instant::now();
        let mut output = mis_on_sparse_power(&mut eng, &sparse);
        let mis_s = secs(t);
        output.sort_unstable();
        let metrics = RoundEngine::metrics(&eng).clone();
        (sparsify_s, mis_s, Outcome { metrics, output })
    }
}
