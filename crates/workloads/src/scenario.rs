//! Declarative experiment scenarios: graph family × power `k` ×
//! algorithm × engine, buildable through a fluent API or parsed from a
//! simple TOML-subset spec file.
//!
//! A scenario is pure data — [`crate::runner`] turns it into a graph, an
//! engine, a run and a validated [`crate::manifest::RunRecord`].

use powersparse_graphs::{generators, Graph};
use std::collections::BTreeMap;
use std::fmt;

/// A deterministic graph family with its parameters. Every family builds
/// in `O(n + m)` (expected) and is reproducible bit-for-bit per seed.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphFamily {
    /// Connected Erdős–Rényi-style graph with average degree `avg_deg`
    /// (random spanning path + uniform extra edges).
    Gnp {
        /// Node count.
        n: usize,
        /// Target average degree.
        avg_deg: f64,
    },
    /// Barabási–Albert preferential attachment (power-law degrees).
    PowerLaw {
        /// Node count.
        n: usize,
        /// Edges brought by each new node.
        attach: usize,
    },
    /// Random geometric / unit-disk graph on the unit square.
    Geometric {
        /// Node count.
        n: usize,
        /// Connection radius.
        radius: f64,
    },
    /// Hyperbolic random graph (power-law degrees with exponent
    /// `2·alpha + 1`, high clustering, giant component).
    Hyperbolic {
        /// Node count.
        n: usize,
        /// Target average degree.
        avg_deg: f64,
        /// Radial density exponent (`> 0.5`).
        alpha: f64,
    },
    /// 2D grid.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// 2D torus (grid with wraparound).
    Torus {
        /// Torus rows.
        rows: usize,
        /// Torus columns.
        cols: usize,
    },
    /// Caterpillar tree: spine path with `legs` leaves per spine node.
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// Broom tree: a handle path ending in a fan of bristles.
    Broom {
        /// Handle length.
        handle: usize,
        /// Bristle count.
        bristles: usize,
    },
    /// Bounded-growth cluster graph: a grid of bridged cliques.
    ClusterGrid {
        /// Cluster-grid rows.
        rows: usize,
        /// Cluster-grid columns.
        cols: usize,
        /// Clique size per cluster.
        cluster: usize,
    },
    /// Planted-community graph (equal-block stochastic block model):
    /// dense blocks (`p_in`) joined by a sparse random cut (`p_out`).
    Planted {
        /// Node count.
        n: usize,
        /// Community count.
        communities: usize,
        /// Intra-community edge probability.
        p_in: f64,
        /// Inter-community edge probability.
        p_out: f64,
    },
}

impl GraphFamily {
    /// Stable family identifier (used in manifests and spec files).
    pub fn id(&self) -> &'static str {
        match self {
            Self::Gnp { .. } => "gnp",
            Self::PowerLaw { .. } => "power_law",
            Self::Geometric { .. } => "geometric",
            Self::Hyperbolic { .. } => "hyperbolic",
            Self::Grid { .. } => "grid",
            Self::Torus { .. } => "torus",
            Self::Caterpillar { .. } => "caterpillar",
            Self::Broom { .. } => "broom",
            Self::ClusterGrid { .. } => "cluster_grid",
            Self::Planted { .. } => "planted",
        }
    }

    /// Human-readable label with parameters, e.g. `gnp(n=192,d=8)`.
    pub fn label(&self) -> String {
        match self {
            Self::Gnp { n, avg_deg } => format!("gnp(n={n},d={avg_deg})"),
            Self::PowerLaw { n, attach } => format!("power_law(n={n},attach={attach})"),
            Self::Geometric { n, radius } => format!("geometric(n={n},r={radius})"),
            Self::Hyperbolic { n, avg_deg, alpha } => {
                format!("hyperbolic(n={n},d={avg_deg},a={alpha})")
            }
            Self::Grid { rows, cols } => format!("grid({rows}x{cols})"),
            Self::Torus { rows, cols } => format!("torus({rows}x{cols})"),
            Self::Caterpillar { spine, legs } => format!("caterpillar(spine={spine},legs={legs})"),
            Self::Broom { handle, bristles } => format!("broom(handle={handle},b={bristles})"),
            Self::ClusterGrid {
                rows,
                cols,
                cluster,
            } => format!("cluster_grid({rows}x{cols},c={cluster})"),
            Self::Planted {
                n,
                communities,
                p_in,
                p_out,
            } => format!("planted(n={n},c={communities},pin={p_in},pout={p_out})"),
        }
    }

    /// Materializes the graph (deterministic per `seed`; the
    /// non-randomized families ignore it).
    pub fn build(&self, seed: u64) -> Graph {
        match *self {
            Self::Gnp { n, avg_deg } => generators::connected_sparse_gnp(n, avg_deg, seed),
            Self::PowerLaw { n, attach } => generators::barabasi_albert(n, attach, seed),
            Self::Geometric { n, radius } => generators::random_geometric(n, radius, seed),
            Self::Hyperbolic { n, avg_deg, alpha } => {
                generators::hyperbolic(n, avg_deg, alpha, seed)
            }
            Self::Grid { rows, cols } => generators::grid(rows, cols),
            Self::Torus { rows, cols } => generators::torus(rows, cols),
            Self::Caterpillar { spine, legs } => generators::caterpillar(spine, legs),
            Self::Broom { handle, bristles } => generators::broom(handle, bristles),
            Self::ClusterGrid {
                rows,
                cols,
                cluster,
            } => generators::cluster_grid(rows, cols, cluster),
            Self::Planted {
                n,
                communities,
                p_in,
                p_out,
            } => generators::planted(n, communities, p_in, p_out, seed),
        }
    }
}

/// The algorithm a scenario runs and validates. Every algorithm runs
/// through the engine-generic
/// [`powersparse_congest::engine::RoundPhase::step`] API and therefore
/// executes on any [`EngineSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum AlgorithmSpec {
    /// Luby's MIS of `G^k` (Section 8.1).
    LubyMis,
    /// Ghaffari's BeepingMIS of `G^k` via Lemma 8.2 ID-tagged beeps.
    BeepingMis,
    /// The shattering MIS of `G^k` (Theorems 1.2/1.4: pre-shattering,
    /// ruling set with balls, ball-graph network decomposition, cluster
    /// finishing). Requires a connected graph.
    ShatterMis {
        /// Use the two-phase post-shattering of Section 7.2.1 instead of
        /// the one-phase variant of Section 7.2.2.
        two_phase: bool,
    },
    /// Iterated power-graph sparsification (Algorithm 3 / Lemma 3.1).
    /// `derandomized` selects the seed-scan strategy (requires a
    /// connected graph for the global aggregation tree).
    Sparsify {
        /// Use the deterministic seed-scan strategy instead of
        /// randomized sampling.
        derandomized: bool,
    },
    /// Randomized `(k+1, kβ)`-ruling set (Corollary 1.3).
    BetaRulingSet {
        /// Domination stretch factor β ≥ 2.
        beta: usize,
    },
    /// Deterministic `(k+1, k²)`-ruling set (Theorem 1.1). Requires a
    /// connected graph.
    DetRulingK2,
    /// Deterministic `(k+1, c·k)`-ruling set from the ID digits in base
    /// `⌈n^{1/c}⌉` (Corollary 6.2, Table 1's `O(k·c·n^{1/c})` baseline).
    IdRuling {
        /// Digit count exponent `c ≥ 1`.
        c: u32,
    },
    /// Deterministic ruling set from the ID bits in base 2 (Theorem 6.1
    /// with IDs, Table 1's AGLP baseline). Validated against the
    /// `(k+1, k·⌈log₂ n⌉)` domination bound the run reports.
    AglpRuling,
    /// Network decomposition of `G^k` with separation `2k+1`
    /// (Theorem A.1). Requires a connected graph.
    PowerNd,
}

impl AlgorithmSpec {
    /// Stable identifier (used in manifests and spec files).
    pub fn id(&self) -> String {
        match self {
            Self::LubyMis => "luby_mis".into(),
            Self::BeepingMis => "beeping_mis".into(),
            Self::ShatterMis { two_phase: false } => "shatter_mis".into(),
            Self::ShatterMis { two_phase: true } => "shatter_mis_two_phase".into(),
            Self::Sparsify {
                derandomized: false,
            } => "sparsify".into(),
            Self::Sparsify { derandomized: true } => "sparsify_derandomized".into(),
            Self::BetaRulingSet { beta } => format!("beta_ruling(beta={beta})"),
            Self::DetRulingK2 => "det_ruling_k2".into(),
            Self::IdRuling { c } => format!("id_ruling(c={c})"),
            Self::AglpRuling => "aglp_ruling".into(),
            Self::PowerNd => "power_nd".into(),
        }
    }
}

/// Which [`powersparse_congest::engine::RoundEngine`] backend executes
/// the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSpec {
    /// The sequential reference `Simulator`.
    Sequential,
    /// The persistent worker-pool `PooledSimulator` (epoch barrier,
    /// batched transfer).
    Pooled {
        /// Worker/shard count.
        shards: usize,
    },
    /// The multi-process `ProcessSimulator` (one forked child per
    /// shard, Unix-socket wire frames).
    Process {
        /// Worker/shard count.
        shards: usize,
    },
}

impl EngineSpec {
    /// Stable identifier.
    pub fn id(&self) -> &'static str {
        match self {
            Self::Sequential => "sequential",
            Self::Pooled { .. } => "pooled",
            Self::Process { .. } => "process",
        }
    }

    /// Worker count (1 for the sequential engine).
    pub fn shards(&self) -> usize {
        match self {
            Self::Sequential => 1,
            Self::Pooled { shards } | Self::Process { shards } => *shards,
        }
    }
}

/// One fully specified experiment: build the family's graph, run the
/// algorithm on the engine, validate the output, record the costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The communication graph's family and parameters.
    pub family: GraphFamily,
    /// Power-graph exponent `k` (the algorithms operate on `G^k`).
    pub k: usize,
    /// Seed for both graph generation and the algorithm's randomness.
    pub seed: u64,
    /// The algorithm to run and validate.
    pub algorithm: AlgorithmSpec,
    /// The engine backend.
    pub engine: EngineSpec,
}

impl Scenario {
    /// A scenario with defaults: `k = 1`, `seed = 1`, Luby MIS on the
    /// sequential engine.
    pub fn new(family: GraphFamily) -> Self {
        Self {
            family,
            k: 1,
            seed: 1,
            algorithm: AlgorithmSpec::LubyMis,
            engine: EngineSpec::Sequential,
        }
    }

    /// Sets the power `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the algorithm.
    pub fn algorithm(mut self, algorithm: AlgorithmSpec) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Runs on the persistent-pool engine with `shards` workers.
    pub fn pooled(mut self, shards: usize) -> Self {
        self.engine = EngineSpec::Pooled { shards };
        self
    }

    /// Runs on the multi-process engine with `shards` forked children.
    pub fn process(mut self, shards: usize) -> Self {
        self.engine = EngineSpec::Process { shards };
        self
    }

    /// Runs on the sequential reference engine.
    pub fn sequential(mut self) -> Self {
        self.engine = EngineSpec::Sequential;
        self
    }

    /// Canonical run name, e.g.
    /// `power_law(n=300,attach=3)/k2/luby_mis/pooled4`.
    pub fn name(&self) -> String {
        format!(
            "{}/k{}/{}/{}{}",
            self.family.label(),
            self.k,
            self.algorithm.id(),
            self.engine.id(),
            match self.engine {
                EngineSpec::Sequential => String::new(),
                EngineSpec::Pooled { shards } | EngineSpec::Process { shards } =>
                    shards.to_string(),
            }
        )
    }

    /// Checks that the scenario is executable as specified.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem (e.g. zero shards). Every
    /// algorithm runs on every engine, so algorithm × engine
    /// combinations are not restricted.
    pub fn validate_spec(&self) -> Result<(), String> {
        if self.engine.shards() == 0 {
            return Err("shards must be >= 1".into());
        }
        if self.k == 0 {
            return Err("k must be >= 1".into());
        }
        if matches!(self.algorithm, AlgorithmSpec::IdRuling { c: 0 }) {
            return Err("`id_ruling` needs c >= 1".into());
        }
        Ok(())
    }
}

/// Which built-in suite to materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteProfile {
    /// Small sizes, every family, all three engines — CI-speed
    /// (< seconds). `BENCH_suite.json` is the committed run.
    Smoke,
    /// The paper's evaluation on the sequential reference engine:
    /// Table 1's rows at `k ∈ {1,2,3}`, Theorem 1.4's degree sweep, the
    /// sparsifier ablation and Theorem A.1 on a long path.
    /// `BENCH_paper.json` is the committed run.
    Paper,
    /// The engine matrix: Luby's MIS of `gnp(n, d=8)` at
    /// `n ∈ {10³, 10⁴, 10⁵}` on every backend, the parallel ones at 2,
    /// 4 and 8 shards. `BENCH_engine.json` is the committed run.
    Engines,
}

/// The curated built-in scenario suites: smoke (the one CI runs on
/// every PR) covers every graph family, all three engines and all four
/// algorithm classes; the paper profile reproduces the paper's tables,
/// one validated row per table cell; the engines profile times one
/// algorithm on every backend.
pub fn builtin_suite(profile: SuiteProfile) -> Vec<Scenario> {
    match profile {
        SuiteProfile::Smoke => smoke_suite(),
        SuiteProfile::Paper => paper_suite(),
        SuiteProfile::Engines => engines_suite(),
    }
}

/// Every graph family at CI-speed sizes, each algorithm class on at
/// least two engines.
fn smoke_suite() -> Vec<Scenario> {
    use AlgorithmSpec::*;
    let gnp = GraphFamily::Gnp {
        n: 192,
        avg_deg: 8.0,
    };
    let power_law = GraphFamily::PowerLaw { n: 300, attach: 3 };
    // Radius comfortably above the connectivity threshold √(ln n / n);
    // the suite's geometric scenarios run Luby MIS, which validates
    // per component and does not require connectivity.
    let geometric = GraphFamily::Geometric {
        n: 256,
        radius: 0.16,
    };
    // Power-law-with-geometry regime; Luby MIS validates per component,
    // so the (rare) small satellite components are fine.
    let hyperbolic = GraphFamily::Hyperbolic {
        n: 256,
        avg_deg: 6.0,
        alpha: 0.75,
    };
    let grid = GraphFamily::Grid { rows: 16, cols: 12 };
    let torus = GraphFamily::Torus { rows: 12, cols: 12 };
    let caterpillar = GraphFamily::Caterpillar { spine: 60, legs: 3 };
    let broom = GraphFamily::Broom {
        handle: 80,
        bristles: 40,
    };
    let cluster = GraphFamily::ClusterGrid {
        rows: 4,
        cols: 4,
        cluster: 6,
    };
    // Dense pockets over a sparse cut — the imbalance workload the
    // stage profiler is built to expose (`experiments profile`).
    let planted = GraphFamily::Planted {
        n: 160,
        communities: 4,
        p_in: 0.25,
        p_out: 0.01,
    };
    vec![
        // MIS across every family, alternating/pairing engines so each
        // family and all three engine backends appear.
        Scenario::new(gnp.clone()).seed(42),
        Scenario::new(gnp.clone()).seed(42).pooled(4),
        Scenario::new(gnp.clone()).seed(42).process(2),
        Scenario::new(power_law.clone()).k(2).seed(7),
        Scenario::new(power_law).k(2).seed(7).pooled(4),
        Scenario::new(geometric.clone()).seed(3),
        Scenario::new(geometric).seed(3).pooled(2),
        Scenario::new(hyperbolic).seed(17).pooled(4),
        Scenario::new(grid.clone()).k(2).pooled(4),
        Scenario::new(caterpillar).k(2),
        Scenario::new(broom).pooled(2),
        Scenario::new(cluster.clone()).k(2).pooled(4),
        Scenario::new(planted).seed(23).pooled(4),
        // Sparsification (Lemma 3.1) on structured topologies, both
        // engines.
        Scenario::new(torus.clone()).algorithm(Sparsify {
            derandomized: false,
        }),
        Scenario::new(torus.clone())
            .algorithm(Sparsify {
                derandomized: false,
            })
            .pooled(4),
        Scenario::new(torus.clone())
            .algorithm(Sparsify {
                derandomized: false,
            })
            .process(2),
        Scenario::new(cluster.clone()).k(2).algorithm(Sparsify {
            derandomized: false,
        }),
        // BeepingMIS (Lemma 8.2) — per-component, so it also covers the
        // possibly-disconnected geometric family; both engines.
        Scenario::new(GraphFamily::Gnp {
            n: 128,
            avg_deg: 7.0,
        })
        .seed(11)
        .algorithm(BeepingMis),
        Scenario::new(grid)
            .k(2)
            .seed(11)
            .algorithm(BeepingMis)
            .pooled(4),
        // The shattering MIS pipeline (Theorems 1.2/1.4), both
        // post-shattering variants.
        Scenario::new(GraphFamily::Gnp {
            n: 96,
            avg_deg: 6.0,
        })
        .seed(13)
        .algorithm(ShatterMis { two_phase: false })
        .pooled(4),
        Scenario::new(cluster)
            .k(2)
            .seed(13)
            .algorithm(ShatterMis { two_phase: true }),
        // Ruling sets, now engine-generic: both engines appear.
        Scenario::new(GraphFamily::Gnp {
            n: 160,
            avg_deg: 10.0,
        })
        .seed(5)
        .algorithm(BetaRulingSet { beta: 3 }),
        Scenario::new(GraphFamily::Gnp {
            n: 160,
            avg_deg: 10.0,
        })
        .seed(5)
        .algorithm(BetaRulingSet { beta: 3 })
        .pooled(4),
        Scenario::new(GraphFamily::Grid { rows: 10, cols: 10 })
            .k(2)
            .algorithm(DetRulingK2),
        Scenario::new(GraphFamily::Grid { rows: 10, cols: 10 })
            .k(2)
            .algorithm(DetRulingK2)
            .pooled(2),
        // Network decomposition (Theorem A.1), both engines.
        Scenario::new(torus).k(2).algorithm(PowerNd),
        Scenario::new(GraphFamily::Caterpillar { spine: 60, legs: 3 })
            .algorithm(PowerNd)
            .pooled(4),
    ]
}

/// The paper's evaluation as one scenario matrix on the sequential
/// reference engine (arXiv:2302.06878; every row validates the
/// guarantee it reproduces, and `suite --force-engine` reruns it on any
/// backend):
///
/// * Table 1 on `gnp(n=128,d=8)`, `grid(16x8)` and `gnp(n=128,d=16)` at
///   `k ∈ {1,2,3}`: the deterministic ruling sets (Corollary 6.2 with
///   `c ∈ {2,3}`, AGLP with IDs, Theorem 1.1), the randomized MIS of
///   `G^k` (Luby, BeepingMIS, Theorem 1.2) and both sparsifier
///   strategies (Lemma 3.1); Corollary 1.3 with `β ∈ {2,3,4}` and the
///   network decomposition of Theorem A.1 at `k ∈ {1,2}`.
/// * Theorem 1.4: Luby against both shattering variants on
///   `gnp(n=512)` across average degrees 4–32.
/// * The sparsifier sampling ablation on the dense `gnp(n=192,d=24)`.
/// * Theorem A.1 on a 900-node path (the long-diameter clustering
///   path).
/// * Theorem 1.1 at `k = 2` on paths of 100–1,600 nodes and on square
///   grids of side 16, 32 and 64: how its rounds grow with the
///   diameter.
fn paper_suite() -> Vec<Scenario> {
    use AlgorithmSpec::*;
    let gnp = |n, avg_deg| GraphFamily::Gnp { n, avg_deg };
    let tables = [
        (gnp(128, 8.0), 42),
        (GraphFamily::Grid { rows: 16, cols: 8 }, 42),
        (gnp(128, 16.0), 43),
    ];
    let randomized = Sparsify {
        derandomized: false,
    };
    let derandomized = Sparsify { derandomized: true };
    let shatter = |two_phase| ShatterMis { two_phase };
    let mut suite = Vec::new();
    let mut add = |family: &GraphFamily, seed, ks, algorithms: &[AlgorithmSpec]| {
        for k in ks {
            for algorithm in algorithms {
                let sc = Scenario::new(family.clone()).k(k).seed(seed);
                suite.push(sc.algorithm(algorithm.clone()));
            }
        }
    };
    for (family, seed) in &tables {
        let table1 = [
            IdRuling { c: 2 },
            IdRuling { c: 3 },
            AglpRuling,
            DetRulingK2,
            LubyMis,
            BeepingMis,
            shatter(false),
            randomized.clone(),
            derandomized.clone(),
        ];
        add(family, *seed, 1..=3, &table1);
    }
    for (family, seed) in &tables {
        let rulings_and_nd = [
            BetaRulingSet { beta: 2 },
            BetaRulingSet { beta: 3 },
            BetaRulingSet { beta: 4 },
            PowerNd,
        ];
        add(family, *seed, 1..=2, &rulings_and_nd);
    }
    for avg_deg in [4.0, 8.0, 16.0, 32.0] {
        let mis = [LubyMis, shatter(false), shatter(true)];
        add(&gnp(512, avg_deg), 77, 1..=1, &mis);
    }
    add(&gnp(192, 24.0), 9, 1..=1, &[randomized, derandomized]);
    let path = GraphFamily::Caterpillar {
        spine: 900,
        legs: 0,
    };
    add(&path, 1, 1..=2, &[PowerNd]);
    for spine in [100, 200, 400, 800, 1600] {
        let path = GraphFamily::Caterpillar { spine, legs: 0 };
        add(&path, 1, 2..=2, &[DetRulingK2]);
    }
    for side in [16, 32, 64] {
        let grid = GraphFamily::Grid {
            rows: side,
            cols: side,
        };
        add(&grid, 1, 2..=2, &[DetRulingK2]);
    }
    suite
}

/// The engine matrix: Luby's MIS of `G` on `gnp(n, d=8)` (seed 42) for
/// `n ∈ {10³, 10⁴, 10⁵}`, first on the sequential reference, then on the
/// pooled and process backends at 2, 4 and 8 shards. The engine
/// contract makes the rows of one `n` agree on every counter, so only
/// their wall clock differs.
fn engines_suite() -> Vec<Scenario> {
    let mut suite = Vec::new();
    for n in [1_000, 10_000, 100_000] {
        let sc = Scenario::new(GraphFamily::Gnp { n, avg_deg: 8.0 }).seed(42);
        suite.push(sc.clone());
        for shards in [2, 4, 8] {
            suite.push(sc.clone().pooled(shards));
            suite.push(sc.clone().process(shards));
        }
    }
    suite
}

/// A value in a spec file: integer, float, string or bool.
#[derive(Debug, Clone, PartialEq)]
enum SpecValue {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl SpecValue {
    fn type_name(&self) -> &'static str {
        match self {
            Self::Int(_) => "integer",
            Self::Float(_) => "float",
            Self::Str(_) => "string",
            Self::Bool(_) => "bool",
        }
    }
}

/// A spec-file parse failure with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number of the offending scenario block or line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Parses a scenario suite from the TOML-subset spec format:
///
/// ```toml
/// [[scenario]]
/// family = "power_law"   # gnp | power_law | geometric | hyperbolic |
///                        # grid | torus | caterpillar | broom |
///                        # cluster_grid | planted
/// n = 300
/// attach = 3
/// k = 2
/// seed = 7
/// algorithm = "luby_mis" # luby_mis | beeping_mis | shatter_mis |
///                        # shatter_mis_two_phase | sparsify |
///                        # sparsify_derandomized | beta_ruling |
///                        # det_ruling_k2 | id_ruling | aglp_ruling |
///                        # power_nd
/// engine = "pooled"      # sequential | pooled | process
/// shards = 4
///
/// [[scenario]]
/// family = "gnp"
/// n = 128
/// avg_deg = 8.0
/// algorithm = "beta_ruling"
/// beta = 3               # beta_ruling only (default 2); id_ruling
///                        # takes `c` (default 2), shatter_mis takes
///                        # `two_phase` (default false)
/// ```
///
/// Supported: `[[scenario]]` table headers, `key = value` with integer,
/// float, `"string"` and `true`/`false` values, `#` comments, blank
/// lines. Unknown keys are errors (typos must not silently change an
/// experiment).
///
/// # Errors
///
/// Returns the first [`SpecError`] encountered.
pub fn parse_suite(text: &str) -> Result<Vec<Scenario>, SpecError> {
    let mut scenarios = Vec::new();
    let mut current: Option<(usize, BTreeMap<String, (usize, SpecValue)>)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = match raw.split_once('#') {
            Some((before, _)) => before.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if line == "[[scenario]]" {
            if let Some((start, kv)) = current.take() {
                scenarios.push(scenario_from_kv(start, kv)?);
            }
            current = Some((line_no, BTreeMap::new()));
            continue;
        }
        let (key, value) = line.split_once('=').ok_or(SpecError {
            line: line_no,
            message: format!("expected `key = value` or `[[scenario]]`, got `{line}`"),
        })?;
        let key = key.trim().to_string();
        let value = parse_value(value.trim(), line_no)?;
        let Some((_, kv)) = current.as_mut() else {
            return Err(SpecError {
                line: line_no,
                message: "key outside a [[scenario]] block".into(),
            });
        };
        if kv.insert(key.clone(), (line_no, value)).is_some() {
            return Err(SpecError {
                line: line_no,
                message: format!("duplicate key `{key}`"),
            });
        }
    }
    if let Some((start, kv)) = current.take() {
        scenarios.push(scenario_from_kv(start, kv)?);
    }
    Ok(scenarios)
}

fn parse_value(text: &str, line: usize) -> Result<SpecValue, SpecError> {
    if let Some(stripped) = text.strip_prefix('"') {
        let inner = stripped.strip_suffix('"').ok_or(SpecError {
            line,
            message: format!("unterminated string `{text}`"),
        })?;
        return Ok(SpecValue::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(SpecValue::Bool(true)),
        "false" => return Ok(SpecValue::Bool(false)),
        _ => {}
    }
    if let Ok(v) = text.parse::<i64>() {
        return Ok(SpecValue::Int(v));
    }
    if let Ok(v) = text.parse::<f64>() {
        return Ok(SpecValue::Float(v));
    }
    Err(SpecError {
        line,
        message: format!("cannot parse value `{text}`"),
    })
}

/// Typed key extraction helpers over the parsed block. Keys are removed
/// as they are consumed; whatever remains at [`Block::finish`] is an
/// unknown key.
struct Block {
    line: usize,
    kv: BTreeMap<String, (usize, SpecValue)>,
}

impl Block {
    fn take(&mut self, key: &str) -> Option<(usize, SpecValue)> {
        self.kv.remove(key)
    }

    fn usize(&mut self, key: &str) -> Result<usize, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Int(v))) if v >= 0 => Ok(v as usize),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!(
                    "`{key}` must be a non-negative integer, got {}",
                    v.type_name()
                ),
            }),
            None => Err(SpecError {
                line: self.line,
                message: format!("missing required key `{key}`"),
            }),
        }
    }

    fn usize_or(&mut self, key: &str, default: usize) -> Result<usize, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Int(v))) if v >= 0 => Ok(v as usize),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!(
                    "`{key}` must be a non-negative integer, got {}",
                    v.type_name()
                ),
            }),
            None => Ok(default),
        }
    }

    fn f64(&mut self, key: &str) -> Result<f64, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Float(v))) => Ok(v),
            Some((_, SpecValue::Int(v))) => Ok(v as f64),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!("`{key}` must be a number, got {}", v.type_name()),
            }),
            None => Err(SpecError {
                line: self.line,
                message: format!("missing required key `{key}`"),
            }),
        }
    }

    fn f64_or(&mut self, key: &str, default: f64) -> Result<f64, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Float(v))) => Ok(v),
            Some((_, SpecValue::Int(v))) => Ok(v as f64),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!("`{key}` must be a number, got {}", v.type_name()),
            }),
            None => Ok(default),
        }
    }

    fn bool_or(&mut self, key: &str, default: bool) -> Result<bool, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Bool(v))) => Ok(v),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!("`{key}` must be a bool, got {}", v.type_name()),
            }),
            None => Ok(default),
        }
    }

    fn str_or(&mut self, key: &str, default: &str) -> Result<String, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Str(v))) => Ok(v),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!("`{key}` must be a string, got {}", v.type_name()),
            }),
            None => Ok(default.to_string()),
        }
    }

    fn finish(self) -> Result<(), SpecError> {
        if let Some((key, (line, _))) = self.kv.into_iter().next() {
            return Err(SpecError {
                line,
                message: format!("unknown key `{key}` for this scenario"),
            });
        }
        Ok(())
    }
}

fn scenario_from_kv(
    line: usize,
    kv: BTreeMap<String, (usize, SpecValue)>,
) -> Result<Scenario, SpecError> {
    let mut b = Block { line, kv };
    let family_name = {
        match b.take("family") {
            Some((_, SpecValue::Str(v))) => v,
            Some((l, v)) => {
                return Err(SpecError {
                    line: l,
                    message: format!("`family` must be a string, got {}", v.type_name()),
                })
            }
            None => {
                return Err(SpecError {
                    line,
                    message: "missing required key `family`".into(),
                })
            }
        }
    };
    let family = match family_name.as_str() {
        "gnp" => GraphFamily::Gnp {
            n: b.usize("n")?,
            avg_deg: b.f64("avg_deg")?,
        },
        "power_law" => GraphFamily::PowerLaw {
            n: b.usize("n")?,
            attach: b.usize("attach")?,
        },
        "geometric" => GraphFamily::Geometric {
            n: b.usize("n")?,
            radius: b.f64("radius")?,
        },
        "hyperbolic" => GraphFamily::Hyperbolic {
            n: b.usize("n")?,
            avg_deg: b.f64("avg_deg")?,
            alpha: b.f64_or("alpha", 0.75)?,
        },
        "grid" => GraphFamily::Grid {
            rows: b.usize("rows")?,
            cols: b.usize("cols")?,
        },
        "torus" => GraphFamily::Torus {
            rows: b.usize("rows")?,
            cols: b.usize("cols")?,
        },
        "caterpillar" => GraphFamily::Caterpillar {
            spine: b.usize("spine")?,
            legs: b.usize("legs")?,
        },
        "broom" => GraphFamily::Broom {
            handle: b.usize("handle")?,
            bristles: b.usize("bristles")?,
        },
        "cluster_grid" => GraphFamily::ClusterGrid {
            rows: b.usize("rows")?,
            cols: b.usize("cols")?,
            cluster: b.usize("cluster")?,
        },
        "planted" => GraphFamily::Planted {
            n: b.usize("n")?,
            communities: b.usize("communities")?,
            p_in: b.f64("p_in")?,
            p_out: b.f64("p_out")?,
        },
        other => {
            return Err(SpecError {
                line,
                message: format!("unknown family `{other}`"),
            })
        }
    };
    let algorithm = match b.str_or("algorithm", "luby_mis")?.as_str() {
        "luby_mis" => AlgorithmSpec::LubyMis,
        "beeping_mis" => AlgorithmSpec::BeepingMis,
        "shatter_mis" => AlgorithmSpec::ShatterMis {
            two_phase: b.bool_or("two_phase", false)?,
        },
        "shatter_mis_two_phase" => {
            // A redundant-but-consistent `two_phase = true` is fine; a
            // contradictory `two_phase = false` is an error, not a
            // silent override.
            if !b.bool_or("two_phase", true)? {
                return Err(SpecError {
                    line,
                    message: "`two_phase = false` contradicts algorithm \
                              `shatter_mis_two_phase`"
                        .into(),
                });
            }
            AlgorithmSpec::ShatterMis { two_phase: true }
        }
        "sparsify" => AlgorithmSpec::Sparsify {
            derandomized: false,
        },
        "sparsify_derandomized" => AlgorithmSpec::Sparsify { derandomized: true },
        "beta_ruling" => AlgorithmSpec::BetaRulingSet {
            beta: b.usize_or("beta", 2)?,
        },
        "det_ruling_k2" => AlgorithmSpec::DetRulingK2,
        "id_ruling" => AlgorithmSpec::IdRuling {
            c: b.usize_or("c", 2)? as u32,
        },
        "aglp_ruling" => AlgorithmSpec::AglpRuling,
        "power_nd" => AlgorithmSpec::PowerNd,
        other => {
            return Err(SpecError {
                line,
                message: format!("unknown algorithm `{other}`"),
            })
        }
    };
    let engine = match b.str_or("engine", "sequential")?.as_str() {
        "sequential" => EngineSpec::Sequential,
        "pooled" => EngineSpec::Pooled {
            shards: b.usize_or("shards", 4)?,
        },
        "process" => EngineSpec::Process {
            shards: b.usize_or("shards", 4)?,
        },
        other => {
            return Err(SpecError {
                line,
                message: format!("unknown engine `{other}` (expected sequential|pooled|process)"),
            })
        }
    };
    let scenario = Scenario {
        family,
        k: b.usize_or("k", 1)?,
        seed: b.usize_or("seed", 1)? as u64,
        algorithm,
        engine,
    };
    b.finish()?;
    scenario
        .validate_spec()
        .map_err(|message| SpecError { line, message })?;
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_names() {
        let sc = Scenario::new(GraphFamily::PowerLaw { n: 300, attach: 3 })
            .k(2)
            .seed(7)
            .pooled(4);
        assert_eq!(sc.name(), "power_law(n=300,attach=3)/k2/luby_mis/pooled4");
        assert!(sc.validate_spec().is_ok());
        let sc = sc.sequential().algorithm(AlgorithmSpec::DetRulingK2);
        assert_eq!(
            sc.name(),
            "power_law(n=300,attach=3)/k2/det_ruling_k2/sequential"
        );
    }

    #[test]
    fn every_algorithm_is_valid_on_every_engine() {
        // The PR-3 step-API port lifted the old sequential-only
        // restriction: algorithm × engine combinations all validate now.
        let algorithms = [
            AlgorithmSpec::LubyMis,
            AlgorithmSpec::BeepingMis,
            AlgorithmSpec::ShatterMis { two_phase: false },
            AlgorithmSpec::ShatterMis { two_phase: true },
            AlgorithmSpec::Sparsify { derandomized: true },
            AlgorithmSpec::BetaRulingSet { beta: 3 },
            AlgorithmSpec::DetRulingK2,
            AlgorithmSpec::IdRuling { c: 3 },
            AlgorithmSpec::AglpRuling,
            AlgorithmSpec::PowerNd,
        ];
        for algorithm in algorithms {
            for sc in [
                Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 }).algorithm(algorithm.clone()),
                Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 })
                    .algorithm(algorithm.clone())
                    .pooled(2),
            ] {
                assert!(sc.validate_spec().is_ok(), "{} rejected", sc.name());
            }
        }
    }

    #[test]
    fn parses_spec_file() {
        let text = r#"
# two scenarios
[[scenario]]
family = "power_law"
n = 300
attach = 3
k = 2
seed = 7
algorithm = "luby_mis"
engine = "pooled"
shards = 4

[[scenario]]
family = "torus"
rows = 12
cols = 12
algorithm = "sparsify"   # randomized
"#;
        let suite = parse_suite(text).unwrap();
        assert_eq!(suite.len(), 2);
        assert_eq!(
            suite[0],
            Scenario::new(GraphFamily::PowerLaw { n: 300, attach: 3 })
                .k(2)
                .seed(7)
                .pooled(4)
        );
        assert_eq!(
            suite[1],
            Scenario::new(GraphFamily::Torus { rows: 12, cols: 12 }).algorithm(
                AlgorithmSpec::Sparsify {
                    derandomized: false,
                }
            )
        );
    }

    #[test]
    fn table1_baselines_parse() {
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\nk = 2\n\
             algorithm = \"id_ruling\"\nc = 3\n\n\
             [[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             algorithm = \"aglp_ruling\"\n",
        )
        .unwrap();
        assert_eq!(suite[0].algorithm, AlgorithmSpec::IdRuling { c: 3 });
        assert_eq!(suite[0].name(), "grid(4x4)/k2/id_ruling(c=3)/sequential");
        assert_eq!(suite[1].algorithm, AlgorithmSpec::AglpRuling);
        assert_eq!(suite[1].name(), "grid(4x4)/k1/aglp_ruling/sequential");
        let zero = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             algorithm = \"id_ruling\"\nc = 0\n",
        )
        .unwrap_err();
        assert!(zero.message.contains("c >= 1"), "{zero}");
    }

    #[test]
    fn paper_profile_pins_every_table_row() {
        let suite = builtin_suite(SuiteProfile::Paper);
        assert_eq!(suite.len(), 129);
        let mut seen = std::collections::BTreeSet::new();
        for sc in &suite {
            assert_eq!(sc.engine, EngineSpec::Sequential, "{}", sc.name());
            sc.validate_spec().unwrap();
            assert!(seen.insert((sc.name(), sc.seed)), "duplicate {}", sc.name());
        }
        let expect = |graph: &str, k: usize, algorithm: &str, seed: u64| {
            let name = format!("{graph}/k{k}/{algorithm}/sequential");
            assert!(
                suite.iter().any(|sc| sc.name() == name && sc.seed == seed),
                "missing {name} (seed {seed})"
            );
        };
        // Table 1 (E1–E3), Lemma 3.1 (E5) and Theorem A.1 (E7).
        for (graph, seed) in [
            ("gnp(n=128,d=8)", 42),
            ("grid(16x8)", 42),
            ("gnp(n=128,d=16)", 43),
        ] {
            for k in 1..=3 {
                for algorithm in [
                    "id_ruling(c=2)",
                    "id_ruling(c=3)",
                    "aglp_ruling",
                    "det_ruling_k2",
                    "luby_mis",
                    "beeping_mis",
                    "shatter_mis",
                    "sparsify",
                    "sparsify_derandomized",
                ] {
                    expect(graph, k, algorithm, seed);
                }
            }
            for k in 1..=2 {
                for algorithm in [
                    "beta_ruling(beta=2)",
                    "beta_ruling(beta=3)",
                    "beta_ruling(beta=4)",
                    "power_nd",
                ] {
                    expect(graph, k, algorithm, seed);
                }
            }
        }
        // Theorem 1.4's degree sweep (E6).
        for d in [4, 8, 16, 32] {
            for algorithm in ["luby_mis", "shatter_mis", "shatter_mis_two_phase"] {
                expect(&format!("gnp(n=512,d={d})"), 1, algorithm, 77);
            }
        }
        // The sampling-strategy ablation (E8).
        for algorithm in ["sparsify", "sparsify_derandomized"] {
            expect("gnp(n=192,d=24)", 1, algorithm, 9);
        }
        // Theorem A.1 on a 900-node path (E7's long-diameter case).
        for k in 1..=2 {
            let name = format!("caterpillar(spine=900,legs=0)/k{k}/power_nd/sequential");
            assert!(suite.iter().any(|sc| sc.name() == name), "missing {name}");
        }
        // Theorem 1.1's growth with the diameter.
        for spine in [100, 200, 400, 800, 1600] {
            expect(
                &format!("caterpillar(spine={spine},legs=0)"),
                2,
                "det_ruling_k2",
                1,
            );
        }
        for side in [16, 32, 64] {
            expect(&format!("grid({side}x{side})"), 2, "det_ruling_k2", 1);
        }
    }

    #[test]
    fn planted_family_parses_builds_and_names() {
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"planted\"\nn = 60\ncommunities = 3\n\
             p_in = 0.4\np_out = 0.02\nseed = 9\nengine = \"pooled\"\nshards = 2\n",
        )
        .unwrap();
        assert_eq!(suite.len(), 1);
        let family = GraphFamily::Planted {
            n: 60,
            communities: 3,
            p_in: 0.4,
            p_out: 0.02,
        };
        assert_eq!(suite[0], Scenario::new(family.clone()).seed(9).pooled(2));
        assert_eq!(family.id(), "planted");
        assert_eq!(family.label(), "planted(n=60,c=3,pin=0.4,pout=0.02)");
        let g = family.build(9);
        assert_eq!(g.n(), 60);
        assert!(g.m() > 0);
        let missing = parse_suite("[[scenario]]\nfamily = \"planted\"\nn = 60\ncommunities = 3\n")
            .unwrap_err();
        assert!(missing.message.contains("p_in"), "{missing}");
    }

    #[test]
    fn spec_errors_are_located() {
        let missing = parse_suite("[[scenario]]\nfamily = \"gnp\"\nn = 100\n").unwrap_err();
        assert!(missing.message.contains("avg_deg"), "{missing}");
        let unknown =
            parse_suite("[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\nbogus = 1\n")
                .unwrap_err();
        assert!(unknown.message.contains("bogus"), "{unknown}");
        assert_eq!(unknown.line, 5);
        let stray = parse_suite("n = 100\n").unwrap_err();
        assert!(stray.message.contains("outside"), "{stray}");
        let badval = parse_suite("[[scenario]]\nfamily = \"gnp\"\nn = oops\n").unwrap_err();
        assert!(badval.message.contains("oops"), "{badval}");
        // The retired wire keys: `tcp` is an unknown key, and the inline
        // tables `net` and `recovery` used are no longer values at all.
        let grid = "[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\nengine = \"process\"\n";
        for (retired, needle) in [
            ("tcp = true", "`tcp`"),
            ("net = { latency_us = 200 }", "latency_us"),
            ("recovery = {}", "{}"),
        ] {
            let err = parse_suite(&format!("{grid}{retired}\n")).unwrap_err();
            assert_eq!(err.line, 6, "{retired}: {err}");
            assert!(err.message.contains(needle), "{retired}: {err}");
        }
    }

    #[test]
    fn unknown_engine_is_a_located_spec_error() {
        // The retired `sharded` backend is an unknown engine like any
        // other: reported at its block's line, with the valid names.
        let err = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\n\n\
             [[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\n\
             engine = \"sharded\"\nshards = 4\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 6, "{err}");
        assert!(err.message.contains("`sharded`"), "{err}");
        assert!(err.message.contains("pooled"), "{err}");
    }

    #[test]
    fn formerly_sequential_only_specs_now_parse_pooled() {
        // These spec files were rejected before the PR-3 port; they are
        // valid scenarios now.
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\n\
             algorithm = \"det_ruling_k2\"\nengine = \"pooled\"\n\n\
             [[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\n\
             algorithm = \"shatter_mis\"\ntwo_phase = true\nengine = \"pooled\"\nshards = 8\n\n\
             [[scenario]]\nfamily = \"torus\"\nrows = 4\ncols = 4\n\
             algorithm = \"power_nd\"\nengine = \"pooled\"\n",
        )
        .unwrap();
        assert_eq!(suite.len(), 3);
        assert_eq!(suite[0].algorithm, AlgorithmSpec::DetRulingK2);
        // shatter_mis_two_phase tolerates a consistent explicit key and
        // rejects a contradictory one.
        assert!(parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\n\
             algorithm = \"shatter_mis_two_phase\"\ntwo_phase = true\n"
        )
        .is_ok());
        let contradiction = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\n\
             algorithm = \"shatter_mis_two_phase\"\ntwo_phase = false\n",
        )
        .unwrap_err();
        assert!(
            contradiction.message.contains("contradicts"),
            "{contradiction}"
        );
        assert_eq!(
            suite[1].algorithm,
            AlgorithmSpec::ShatterMis { two_phase: true }
        );
        assert_eq!(suite[1].engine, EngineSpec::Pooled { shards: 8 });
        assert_eq!(suite[2].algorithm, AlgorithmSpec::PowerNd);
    }

    #[test]
    fn hyperbolic_family_parses_builds_and_is_in_the_suite() {
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"hyperbolic\"\nn = 200\navg_deg = 6.0\nseed = 9\n\n\
             [[scenario]]\nfamily = \"hyperbolic\"\nn = 200\navg_deg = 6.0\nalpha = 1.1\n",
        )
        .unwrap();
        assert_eq!(
            suite[0].family,
            GraphFamily::Hyperbolic {
                n: 200,
                avg_deg: 6.0,
                alpha: 0.75, // the spec default
            }
        );
        assert_eq!(
            suite[1].family,
            GraphFamily::Hyperbolic {
                n: 200,
                avg_deg: 6.0,
                alpha: 1.1,
            }
        );
        let g = suite[0].family.build(suite[0].seed);
        assert_eq!(g.n(), 200);
        assert!(g.m() > 0);
        assert_eq!(
            suite[0].name(),
            "hyperbolic(n=200,d=6,a=0.75)/k1/luby_mis/sequential"
        );
        // And the smoke suite carries a hyperbolic row.
        assert!(builtin_suite(SuiteProfile::Smoke)
            .iter()
            .any(|sc| sc.family.id() == "hyperbolic"));
    }

    #[test]
    fn builtin_suites_are_well_formed() {
        let suite = builtin_suite(SuiteProfile::Smoke);
        assert!(suite.len() >= 10);
        for sc in &suite {
            sc.validate_spec().unwrap();
        }
        let families: std::collections::BTreeSet<&str> =
            suite.iter().map(|s| s.family.id()).collect();
        assert!(families.len() >= 5, "families: {families:?}");
        assert!(
            families.contains("planted"),
            "the planted-community row must stay in the smoke profile"
        );
        assert!(suite.iter().any(|s| s.engine == EngineSpec::Sequential));
        assert!(suite
            .iter()
            .any(|s| matches!(s.engine, EngineSpec::Pooled { .. })));
        assert!(suite
            .iter()
            .any(|s| matches!(s.engine, EngineSpec::Process { .. })));
    }

    #[test]
    fn process_engine_parses_and_names() {
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"process\"\nshards = 3\n",
        )
        .unwrap();
        assert_eq!(suite[0].engine, EngineSpec::Process { shards: 3 });
        assert_eq!(suite[0].name(), "grid(4x4)/k1/luby_mis/process3");
    }

    #[test]
    fn pooled_engine_parses_and_names() {
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"pooled\"\nshards = 3\n\n\
             [[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"pooled\"\n",
        )
        .unwrap();
        assert_eq!(suite[0].engine, EngineSpec::Pooled { shards: 3 });
        assert_eq!(suite[0].name(), "grid(4x4)/k1/luby_mis/pooled3");
        // `shards` defaults like the process engine's.
        assert_eq!(suite[1].engine, EngineSpec::Pooled { shards: 4 });
        let sc = Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 }).pooled(0);
        assert!(sc.validate_spec().is_err(), "zero shards must be rejected");
    }
}
