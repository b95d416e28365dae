//! The shattering framework (Sections 7 and 8.2 of the paper), giving
//! **Theorem 1.4** (`k = 1`: MIS of `G`) and **Theorem 1.2** (MIS of
//! `G^k`) in one implementation.
//!
//! Pipeline:
//! 1. **Pre-shattering**: `Θ(log Δ(G^k))` steps of BeepingMIS on `G^k`
//!    (Lemma 8.2's ID-tagged beeps). W.h.p. the undecided remainder `B`
//!    shatters into small `G^k`-components (Lemma 8.1).
//! 2. Optionally (**Approach 1**, Section 7.2.1) a second pre-shattering
//!    phase run on every component of `G^k[B]` *independently* —
//!    realized by running BeepingMIS on `B` with full relays, since
//!    distinct components are more than `k` apart in `G` (relays
//!    restricted to `B` would measure distance in `G[B]`, not `G`) —
//!    splitting them into tiny components.
//! 3. A ruling set of `B` with a **ball partition** (Claim 7.6 via
//!    knocker chains; in Approach 1 w.r.t. component distances, in
//!    **Approach 2**, Section 7.2.2, w.r.t. distances in `G`).
//! 4. The **distance-`k` ball graph** (Lemma 8.3), a network
//!    decomposition of it with separation `2k+1` (Theorem A.1 /
//!    Claim A.4), and the induced node-level decomposition (Claim 8.4).
//! 5. **Cluster finishing**: per color, every cluster completes the MIS
//!    of `G^k` on its undecided nodes with repeated bounded-step
//!    BeepingMIS executions using short in-cluster IDs; the paper runs
//!    `O(log_N n)` executions in parallel (they fit one bandwidth —
//!    demonstrated by `khop_beep_multi`), we run them as retries on the
//!    cluster's sub-simulator and charge the rounds of the successful
//!    execution (same wall-clock as the parallel composition; see
//!    "Charged sub-simulations" in
//!    [`crate::params`](crate::params#substitutions)).

use crate::nd::{build_ball_graph, cluster_parts, power_nd, NdError, NetworkDecomposition};
use crate::params::TheoryParams;
use crate::ruling::ruling_set_with_balls;
use powersparse_congest::engine::RoundEngine;
use powersparse_congest::primitives::flood_flags;
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_graphs::{bfs, check, generators, subgraph, Graph, NodeId};

/// Which post-shattering variant of Section 7.2 to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostShattering {
    /// Section 7.2.1: a second pre-shattering phase per component, then
    /// the ruling set w.r.t. component distances.
    TwoPhase,
    /// Section 7.2.2: one pre-shattering phase; the ruling set (with
    /// connected balls via knocker chains) is computed w.r.t. `G`.
    OnePhase,
}

/// Diagnostics of a shattering run.
#[derive(Debug, Clone, Default)]
pub struct ShatterReport {
    /// Undecided nodes after the (first) pre-shattering phase.
    pub undecided_after_pre: usize,
    /// Number of `G^k`-components of the undecided set.
    pub components: usize,
    /// Largest component size (the quantity bounded by Lemma 8.1 (P2)).
    pub largest_component: usize,
    /// Ruling-set size over all components.
    pub rulers: usize,
    /// Colors used by the ball-graph network decomposition.
    pub nd_colors: usize,
    /// Cluster-finishing executions that needed a retry.
    pub retries: u64,
}

/// Failure of the shattering pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MisError {
    /// The ball-graph network decomposition failed.
    Nd(NdError),
    /// A cluster could not be finished within the execution budget
    /// (probability `n^{-Ω(1)}`).
    ClusterBudgetExhausted {
        /// Size of the offending cluster.
        cluster_size: usize,
    },
}

impl std::fmt::Display for MisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Nd(e) => write!(f, "ball-graph decomposition failed: {e}"),
            Self::ClusterBudgetExhausted { cluster_size } => {
                write!(
                    f,
                    "cluster of {cluster_size} nodes exhausted its execution budget"
                )
            }
        }
    }
}

impl std::error::Error for MisError {}

impl From<NdError> for MisError {
    fn from(e: NdError) -> Self {
        Self::Nd(e)
    }
}

/// Theorem 1.2 (and Theorem 1.4 for `k = 1`): computes an MIS of `G^k`
/// with the shattering framework. Returns the MIS membership mask and a
/// [`ShatterReport`].
///
/// # Errors
///
/// See [`MisError`].
pub fn mis_power<E: RoundEngine>(
    sim: &mut E,
    k: usize,
    params: &TheoryParams,
    seed: u64,
    post: PostShattering,
) -> Result<(Vec<bool>, ShatterReport), MisError> {
    let n = sim.graph().n();
    let mut report = ShatterReport::default();

    // Δ(G^k) upper bound for the step count.
    let delta = sim.graph().max_degree().max(2);
    let mut delta_k = delta;
    for _ in 1..k {
        delta_k = delta_k.saturating_mul(delta - 1).min(n.saturating_sub(1));
    }
    let steps = params.shatter_steps(delta_k);

    // --- Phase 1: pre-shattering on G^k. ---
    let pre = super::beeping_mis_run(sim, k, &vec![true; n], steps, seed);
    let mut in_mis = pre.in_mis;
    let mut undecided = pre.undecided;
    report.undecided_after_pre = undecided.iter().filter(|&&u| u).count();
    if report.undecided_after_pre == 0 {
        return Ok((in_mis, report));
    }

    // Component statistics (diagnostics; Lemma 8.1 (P2)).
    let b_members = generators::members(&undecided);
    let comps = subgraph::k_connected_components(sim.graph(), &b_members, k);
    report.components = comps.len();
    report.largest_component = comps.iter().map(Vec::len).max().unwrap_or(0);

    // --- Phase 2 (Approach 1 only): per-component pre-shattering. ---
    // Distinct G^k-components of B are > k apart in G, so running with
    // full relays already executes each component independently — and it
    // must be full relays: G^k[B] adjacency goes through paths leaving B
    // (Section 2: G^k[X] ≠ (G[X])^k), so restricting relays to B would
    // let two B-nodes at G-distance ≤ k both join. For k = 1 this
    // coincides with the paper's run on G[C].
    if post == PostShattering::TwoPhase {
        let second = super::beeping_mis_run(sim, k, &undecided, steps, seed ^ 0x5eed);
        for i in 0..n {
            if second.in_mis[i] {
                in_mis[i] = true;
            }
        }
        undecided = second.undecided;
        // Nodes dominated in G^k (not only in G^k[B]) by new MIS nodes.
        let reached = flood_flags(sim, &second.in_mis, k);
        for i in 0..n {
            if reached[i] {
                undecided[i] = false;
            }
        }
        if !undecided.iter().any(|&u| u) {
            return Ok((in_mis, report));
        }
    }

    // --- Phase 3: ruling set of B with ball partition (Claim 7.6). ---
    let relay_mask = undecided.clone();
    let relay = match post {
        PostShattering::TwoPhase => Some(relay_mask.as_slice()),
        PostShattering::OnePhase => None,
    };
    let balls = ruling_set_with_balls(sim, 5 * k, &undecided, relay);
    report.rulers = balls.ruling_set.iter().filter(|&&b| b).count();

    // --- Phase 4: distance-k ball graph + its network decomposition. ---
    let ball_graph = build_ball_graph(sim, &balls.ball_of, k);
    // Claim A.4: simulating the ND on balls costs an O(r·τ) factor, where
    // r is the ball radius — we charge the measured sub-rounds times the
    // measured maximum ball diameter (+k for borders).
    let ball_diam = max_ball_weak_diameter(sim.graph(), &ball_graph.assignment).max(1) as u64;
    let config = SimConfig::for_graph(sim.graph());
    let (ball_nd, rounds) = decompose_ball_graph(&ball_graph.graph, k, params, config)?;
    sim.charge_rounds(rounds * (ball_diam + k as u64));
    let NetworkDecomposition {
        cluster: cluster_of_ball,
        color: color_of_cluster,
        num_colors,
    } = ball_nd;
    report.nd_colors = num_colors;

    // Claim 8.4: nodes join the cluster of their ball (undecided nodes
    // only — borders were bookkeeping).
    let node_cluster: Vec<Option<usize>> = (0..n)
        .map(|i| {
            if undecided[i] {
                ball_graph.assignment[i].and_then(|b| cluster_of_ball[b])
            } else {
                None
            }
        })
        .collect();

    // --- Phase 5: finish each cluster, color by color. ---
    let exec_budget = (TheoryParams::log_n(n).ceil() as u64 + 2).max(3);
    for color in 0..num_colors {
        let mut max_rounds = 0u64;
        let mut joined_this_color: Vec<bool> = vec![false; n];
        for (c, &col) in color_of_cluster.iter().enumerate() {
            if col != color {
                continue;
            }
            let members: Vec<NodeId> = (0..n)
                .filter(|&i| node_cluster[i] == Some(c) && undecided[i])
                .map(NodeId::from)
                .collect();
            if members.is_empty() {
                continue;
            }
            let (rounds, new_mis) = finish_cluster(
                sim.graph(),
                k,
                &members,
                seed ^ (c as u64) << 17,
                exec_budget,
                &mut report.retries,
            )?;
            max_rounds = max_rounds.max(rounds);
            for v in new_mis {
                joined_this_color[v.index()] = true;
                in_mis[v.index()] = true;
            }
        }
        // Same-color clusters are ≥ 2k+1 apart (in the ball metric ⇒
        // ≥ k+1 in G, Claim 8.4): they ran in parallel.
        sim.charge_rounds(max_rounds);
        // New MIS nodes decide out everything within k hops, across
        // colors (a real flood).
        if joined_this_color.iter().any(|&b| b) {
            let reached = flood_flags(sim, &joined_this_color, k);
            for i in 0..n {
                if reached[i] {
                    undecided[i] = false;
                }
            }
        }
    }
    debug_assert!(!undecided.iter().any(|&u| u), "all clusters finished");
    Ok((in_mis, report))
}

/// Phase 4's decomposition: decomposes every connected component of the
/// ball graph `balls` on a sub-simulator of its own with the host
/// network's `config`, and returns the ball-level decomposition with the
/// ND rounds to charge for it. The components run in parallel, so they
/// cost the slowest one's rounds, not the sum (Phase 5 charges its
/// same-color clusters the same way).
fn decompose_ball_graph(
    balls: &Graph,
    k: usize,
    params: &TheoryParams,
    config: SimConfig,
) -> Result<(NetworkDecomposition, u64), MisError> {
    let mut out = NetworkDecomposition {
        cluster: vec![None; balls.n()],
        color: Vec::new(),
        num_colors: 0,
    };
    let mut rounds = 0;
    for comp in subgraph::components(balls) {
        let (comp_graph, comp_map) = subgraph::induced(balls, &comp);
        let mut subsim = Simulator::new(&comp_graph, config);
        let nd = power_nd(&mut subsim, k, params)?;
        rounds = rounds.max(subsim.metrics().rounds);
        let base = out.color.len();
        for (i, c) in nd.cluster.iter().enumerate() {
            out.cluster[comp_map[i].index()] = Some(base + c.expect("nd covers"));
        }
        out.color.extend(&nd.color);
        out.num_colors = out.num_colors.max(nd.num_colors);
    }
    Ok((out, rounds))
}

/// Completes the MIS on one cluster's undecided nodes: repeated
/// bounded-step BeepingMIS executions over the induced domain
/// `cluster ∪ N^k(cluster)` with short IDs, until one execution is
/// maximal (the paper's parallel executions, run as retries with the
/// successful execution's rounds charged).
fn finish_cluster(
    g: &Graph,
    k: usize,
    members: &[NodeId],
    seed: u64,
    exec_budget: u64,
    retries: &mut u64,
) -> Result<(u64, Vec<NodeId>), MisError> {
    let mut total_rounds = 0u64;
    let mut result: Vec<NodeId> = Vec::new();
    for (sub, map, cand) in cluster_parts(g, members, k) {
        // Short IDs are the compact sub-graph indices (|sub| ≤ N). The
        // execution length is the paper's O(log N) with a constant large
        // enough that a single execution succeeds with good probability
        // (independent of the pre-shattering length in `TheoryParams`).
        let n_sub = sub.n();
        let steps = 8 * (TheoryParams::log_n(n_sub).ceil() as usize) + 8;
        let mut done = false;
        for attempt in 0..exec_budget {
            let mut subsim = Simulator::new(&sub, SimConfig::for_graph(&sub));
            let out = super::beeping_mis_run(&mut subsim, k, &cand, steps, seed ^ attempt << 8);
            let ok = !out.undecided.iter().any(|&u| u);
            if ok {
                // Verification convergecast along the cluster tree:
                // one aggregate per execution (costed on the subsim).
                total_rounds = total_rounds.max(subsim.metrics().rounds);
                for (i, &m) in out.in_mis.iter().enumerate() {
                    if m {
                        result.push(map[i]);
                    }
                }
                done = true;
                break;
            }
            *retries += 1;
        }
        if !done {
            return Err(MisError::ClusterBudgetExhausted {
                cluster_size: sub.n(),
            });
        }
    }
    // Sanity: the produced set is valid for this cluster.
    debug_assert!(check::is_alpha_independent(g, &result, k + 1));
    Ok((total_rounds, result))
}

/// Largest weak diameter (in `G`) over the extended balls.
fn max_ball_weak_diameter(g: &Graph, assignment: &[Option<usize>]) -> u32 {
    let mut balls: std::collections::BTreeMap<usize, Vec<NodeId>> =
        std::collections::BTreeMap::new();
    for (i, b) in assignment.iter().enumerate() {
        if let Some(b) = b {
            balls.entry(*b).or_default().push(NodeId::from(i));
        }
    }
    let mut worst = 0u32;
    for members in balls.values() {
        if members.len() <= 1 {
            continue;
        }
        let d = bfs::distances(g, members[0]);
        for &w in members {
            if let Some(x) = d[w.index()] {
                worst = worst.max(x);
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(g: &Graph, k: usize, post: PostShattering, seed: u64) -> (Vec<bool>, ShatterReport) {
        let mut sim = Simulator::new(g, SimConfig::for_graph(g));
        let params = TheoryParams::scaled();
        let (mis, report) = mis_power(&mut sim, k, &params, seed, post).unwrap();
        assert!(
            check::is_mis_of_power(g, &generators::members(&mis), k),
            "not an MIS of G^{k}"
        );
        (mis, report)
    }

    #[test]
    fn theorem_1_4_mis_of_g_both_approaches() {
        let g = generators::connected_gnp(120, 0.08, 5);
        run(&g, 1, PostShattering::OnePhase, 3);
        run(&g, 1, PostShattering::TwoPhase, 3);
    }

    #[test]
    fn theorem_1_2_mis_of_g2() {
        let g = generators::grid(9, 9);
        run(&g, 2, PostShattering::OnePhase, 7);
    }

    #[test]
    fn theorem_1_2_mis_of_g3_two_phase() {
        let g = generators::connected_gnp(80, 0.05, 11);
        run(&g, 3, PostShattering::TwoPhase, 1);
    }

    #[test]
    fn shatter_report_populated() {
        // A short pre-shattering phase (small constants) leaves survivors
        // so the post-shattering machinery actually runs.
        let g = generators::connected_gnp(150, 0.12, 9);
        let mut params = TheoryParams::scaled();
        params.shatter_factor = 0.5; // force survivors
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let (mis, report) = mis_power(&mut sim, 1, &params, 2, PostShattering::OnePhase).unwrap();
        assert!(check::is_mis(&g, &generators::members(&mis)));
        if report.undecided_after_pre > 0 {
            assert!(report.components >= 1);
            assert!(report.rulers >= 1);
        }
    }

    #[test]
    fn ball_graph_components_are_charged_in_parallel() {
        // Two disjoint copies of one ball graph decompose in parallel, so
        // they are charged what one copy is (Phase 5 charges its
        // same-color clusters the same way).
        let one = generators::grid(6, 6);
        let n = one.n();
        let edges: Vec<(usize, usize)> = one
            .edges()
            .flat_map(|(u, v)| [(u.index(), v.index()), (u.index() + n, v.index() + n)])
            .collect();
        let two = Graph::from_edges(2 * n, &edges);
        let params = TheoryParams::scaled();
        let config = SimConfig::for_graph(&two);
        let (a, a_rounds) = decompose_ball_graph(&one, 2, &params, config).unwrap();
        let (b, b_rounds) = decompose_ball_graph(&two, 2, &params, config).unwrap();
        assert!(a_rounds > 0);
        assert_eq!(b_rounds, a_rounds);
        assert_eq!(b.num_colors, a.num_colors);
        assert_eq!(b.color.len(), 2 * a.color.len());
    }

    #[test]
    fn seeds_differ_but_all_valid() {
        let g = generators::grid(8, 7);
        for seed in [1u64, 2, 3] {
            run(&g, 2, PostShattering::OnePhase, seed);
        }
    }
}
