//! Algorithms 1–3: randomized and derandomized sparsification, iterated
//! over the powers `G^1, …, G^k` (Sections 5.1–5.3 of the paper).

use super::{IterationStats, SamplingStrategy};
use crate::params::TheoryParams;
use powersparse_congest::engine::RoundEngine;
use powersparse_congest::primitives::{
    elect_leader_and_tree, extend_trees, flood_flags, init_knowledge_and_trees, q_broadcast,
    sum_and_broadcast,
};
use powersparse_congest::trees::{GlobalTree, QTrees};
use powersparse_kwise::derand::{seed_search, DerandError};
use powersparse_kwise::family::KWiseFamily;
use powersparse_kwise::seed::Seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Failure of the derandomization step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparsifyError {
    /// The deterministic seed scan exhausted its budget in some stage:
    /// the instance/parameter combination does not satisfy the
    /// preconditions of the probabilistic analysis (Lemma 5.4).
    SeedScanExhausted {
        /// Power-graph iteration (`s`).
        s: usize,
        /// Stage index within the iteration.
        stage: usize,
        /// Best (minimum) bad-event count seen.
        best_bad_events: u64,
    },
}

impl std::fmt::Display for SparsifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SeedScanExhausted { s, stage, best_bad_events } => write!(
                f,
                "seed scan exhausted in iteration {s} stage {stage} (best candidate had {best_bad_events} bad events)"
            ),
        }
    }
}

impl std::error::Error for SparsifyError {}

/// Result of [`sparsify_power`]: the sparse set `Q = Q_k` plus the state
/// guaranteed by invariant I3 (knowledge of `N^{k+1}(v, Q)` and BFS trees
/// of depth `k+1`), which downstream algorithms (Lemma 4.6 simulation,
/// Theorem 1.1) consume directly.
///
/// The I3 state is flat: `knowledge[v]` is one ID list per node, sorted
/// ascending without duplicates, and `trees` keeps per-node lists sorted
/// by root ID whose child runs ascend by node ID (see [`QTrees`]).
#[derive(Debug, Clone)]
pub struct SparsifyOutcome {
    /// Membership mask of `Q_k`.
    pub q: Vec<bool>,
    /// `N^{k+1}(v, Q_k)` for every node as a sorted ID list (I3).
    pub knowledge: Vec<Vec<u32>>,
    /// Depth-`(k+1)` BFS trees rooted at `Q_k` (I3).
    pub trees: QTrees,
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStats>,
}

/// Member status as tracked by each observer (footnote 7 of the paper:
/// nodes track which of their distance-`s` `Q`-neighbors are still
/// active, were sampled, or were deactivated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemberStatus {
    Active,
    Sampled,
    Gone,
}

/// The 1-bit codes of a stage's status announcements.
const SAMPLED: u8 = 1;
const DEACTIVATED: u8 = 0;

/// What a node tracks during one iteration: its own status, and the
/// status of each member of `N^s(v, Q_{s-1})`, sorted by ID.
struct Observer {
    own: MemberStatus,
    members: Vec<(u32, MemberStatus)>,
}

/// Lemma 5.1 (`DetSparsification` on `G`): finds `Q ⊆ A` with
/// `d(v, Q) ≤ degree_bound` and `dist(v, Q) ≤ 2 + dist(v, A)`.
///
/// Equivalent to [`sparsify_power`] with `k = 1`.
///
/// # Errors
///
/// See [`SparsifyError`].
pub fn sparsify_graph<E: RoundEngine>(
    sim: &mut E,
    q0: &[bool],
    params: &TheoryParams,
    strategy: SamplingStrategy,
) -> Result<SparsifyOutcome, SparsifyError> {
    sparsify_power(sim, 1, q0, params, strategy)
}

/// Algorithm 3 / Lemma 3.1: iterated sparsification on `G^1, …, G^k`.
///
/// Returns `Q = Q_k ⊆ Q_0` with, for every `v ∈ V`:
/// * `d_k(v, Q) ≤ degree_bound(n)` (bounded distance-`k` `Q`-degree),
/// * `dist(v, Q) ≤ k² + k + dist(v, Q_0)` (domination),
///
/// plus the I3 state (knowledge sets and depth-`(k+1)` BFS trees).
///
/// With `k = 0` the input set is returned unchanged (with depth-1
/// knowledge), which is what Theorem 1.1 needs for `k = 1`.
///
/// # Errors
///
/// See [`SparsifyError`].
///
/// # Panics
///
/// Panics if `q0` has the wrong length, or if the graph is disconnected
/// and a derandomized stage samples (`r ≥ 1` stages in some iteration):
/// the seed scan aggregates on a global BFS tree, elected just before
/// the first such stage. A run whose iterations all have `r = 0` stages
/// elects no tree and accepts a disconnected graph.
pub fn sparsify_power<E: RoundEngine>(
    sim: &mut E,
    k: usize,
    q0: &[bool],
    params: &TheoryParams,
    strategy: SamplingStrategy,
) -> Result<SparsifyOutcome, SparsifyError> {
    let g = sim.graph();
    let n = g.n();
    assert_eq!(q0.len(), n);
    let delta = g.max_degree();

    // I3 for s = 0 → 1: knowledge of N^1(v, Q_0) and depth-1 trees.
    let mut q: Vec<bool> = q0.to_vec();
    let (mut knowledge, mut trees) = init_knowledge_and_trees(sim, &q);
    let mut iterations = Vec::new();
    // Global BFS tree for the seed scans' convergecasts, elected before
    // the first stage that samples (r depends only on Δ_A, n and the
    // parameters).
    let mut global: Option<GlobalTree> = None;

    for s in 1..=k {
        let delta_a = if s == 1 {
            delta.max(1)
        } else {
            (params.degree_bound(n) * delta).max(1)
        };
        let scans =
            matches!(strategy, SamplingStrategy::SeedSearch) && params.num_stages(delta_a, n) > 0;
        if scans && global.is_none() {
            global = Some(elect_leader_and_tree(sim));
        }
        let stats = sparsify_iteration(
            sim,
            s,
            delta_a,
            &mut q,
            &mut knowledge,
            &trees,
            global.as_ref(),
            params,
            strategy,
        )?;
        iterations.push(stats);
        // Maintain I3 for the next iteration: drop trees of discarded
        // roots, then extend knowledge and trees by one level
        // (Lemma 4.1).
        trees.retain_roots(&q);
        knowledge = extend_trees(sim, &knowledge, &mut trees);
    }
    Ok(SparsifyOutcome {
        q,
        knowledge,
        trees,
        iterations,
    })
}

/// One iteration of `DetSparsification`, simulated on `G^s`
/// (Lemma 5.5 / Lemma 5.7).
///
/// On entry: `q` is the membership mask of `Q_{s-1} = H_1`;
/// `knowledge[v] = N^s(v, Q_{s-1})`; `trees` have depth `s` rooted at
/// `Q_{s-1}`. On exit `q` is the mask of `Q_s` and `knowledge[v]` is
/// `N^s(v, Q_s)`.
#[allow(clippy::too_many_arguments)]
fn sparsify_iteration<E: RoundEngine>(
    sim: &mut E,
    s: usize,
    delta_a: usize,
    q: &mut [bool],
    knowledge: &mut [Vec<u32>],
    trees: &QTrees,
    global: Option<&GlobalTree>,
    params: &TheoryParams,
    strategy: SamplingStrategy,
) -> Result<IterationStats, SparsifyError> {
    let n = sim.graph().n();
    let r = params.num_stages(delta_a, n);
    let degree_bound = params.degree_bound(n);
    let family = KWiseFamily::for_graph(n, params.kwise_factor);

    let mut nodes: Vec<Observer> = knowledge
        .iter()
        .zip(q.iter())
        .map(|(set, &member)| Observer {
            own: if member {
                MemberStatus::Active
            } else {
                MemberStatus::Gone
            },
            members: set.iter().map(|&x| (x, MemberStatus::Active)).collect(),
        })
        .collect();

    let mut rng = match strategy {
        SamplingStrategy::Randomized { seed } => {
            Some(StdRng::seed_from_u64(seed ^ (s as u64) << 32))
        }
        SamplingStrategy::SeedSearch => None,
    };
    let id_bits = sim.graph().id_bits();
    let mut total_attempts = 0u64;

    for stage in 1..=r {
        let p = params.stage_probability(stage, delta_a, n);
        let threshold = family.threshold_for_probability(p);
        let high = params.high_degree_threshold(stage, delta_a);

        // --- Select the sampled set M_i. ---
        let sampled_mask: Vec<bool> = match &mut rng {
            Some(rng) => nodes
                .iter()
                .map(|o| o.own == MemberStatus::Active && rng.gen_bool(p))
                .collect(),
            None => {
                // Claim 5.6: every node evaluates its own bad events under
                // the candidate locally, the totals travel to the root
                // (Lemma 4.3), and the root accepts the first candidate
                // with none.
                let tree = global.expect("derandomization needs the global tree");
                let bad_events = |seed: &Seed, v: usize| {
                    node_bad_events(&family, seed, threshold, high, degree_bound, &nodes[v], v)
                };
                let scan = seed_search(family.seed_len(), 0..params.seed_attempts, |seed| {
                    let values: Vec<u64> = (0..n).map(|v| bad_events(seed, v)).collect();
                    sum_and_broadcast(sim, tree, &values, id_bits + 2, |total| total == 0).0
                });
                let counter = match scan {
                    Ok(counter) => counter,
                    Err(DerandError::SearchExhausted {
                        best_bad_events, ..
                    }) => {
                        return Err(SparsifyError::SeedScanExhausted {
                            s,
                            stage,
                            best_bad_events,
                        });
                    }
                    Err(e) => unreachable!("a seed scan only exhausts: {e}"),
                };
                total_attempts += counter + 1;
                let seed = Seed::from_counter(family.seed_len(), counter);
                nodes
                    .iter()
                    .enumerate()
                    .map(|(i, o)| {
                        o.own == MemberStatus::Active
                            && family.indicator(&seed, i as u64, threshold)
                    })
                    .collect()
            }
        };

        // --- Deactivate M_i ∪ N^{2s}(M_i) by flooding a flag 2s hops. ---
        let reached = flood_flags(sim, &sampled_mask, 2 * s);

        // --- Status announcements over the depth-s trees (Lemma 4.2
        // broadcast): a sampled node announces "sampled", a newly
        // deactivated one "deactivated"; observers update their views. ---
        q_broadcast(
            sim,
            trees,
            1,
            &mut nodes,
            |o, v| {
                if sampled_mask[v.index()] {
                    o.own = MemberStatus::Sampled;
                    Some(SAMPLED)
                } else if reached[v.index()] && o.own == MemberStatus::Active {
                    o.own = MemberStatus::Gone;
                    Some(DEACTIVATED)
                } else {
                    None
                }
            },
            |o, _, root, &code| {
                if let Ok(j) = o.members.binary_search_by_key(&root, |&(x, _)| x) {
                    let st = &mut o.members[j].1;
                    if *st == MemberStatus::Active {
                        *st = if code == SAMPLED {
                            MemberStatus::Sampled
                        } else {
                            MemberStatus::Gone
                        };
                    }
                }
            },
        );
    }

    // M_{r+1}: remaining active nodes join Q_s.
    for i in 0..n {
        q[i] = matches!(nodes[i].own, MemberStatus::Sampled | MemberStatus::Active);
    }
    // Knowledge of N^s(v, Q_s): members sampled or still active.
    for i in 0..n {
        knowledge[i] = nodes[i]
            .members
            .iter()
            .filter(|(_, st)| matches!(st, MemberStatus::Sampled | MemberStatus::Active))
            .map(|&(x, _)| x)
            .collect();
    }
    Ok(IterationStats {
        s,
        stages: r,
        q_size: q.iter().filter(|&&b| b).count(),
        seed_attempts: total_attempts,
    })
}

/// Φ_v + Ψ_v for a single node (0, 1 or 2). Each node can evaluate its
/// own events locally: they depend only on the IDs of its active
/// distance-`s` neighbors.
fn node_bad_events(
    family: &KWiseFamily,
    seed: &Seed,
    threshold: u64,
    high: f64,
    degree_bound: usize,
    node: &Observer,
    v: usize,
) -> u64 {
    let mut active = 0usize;
    let mut sampled_neighbors = 0usize;
    for &(x, st) in &node.members {
        if st == MemberStatus::Active {
            active += 1;
            sampled_neighbors += usize::from(family.indicator(seed, x as u64, threshold));
        }
    }
    // Ψ_v: more than `degree_bound` sampled distance-s neighbors.
    let psi = u64::from(sampled_neighbors > degree_bound);
    // Φ_v: high active degree but neither v nor any neighbor sampled.
    let self_sampled =
        node.own == MemberStatus::Active && family.indicator(seed, v as u64, threshold);
    let phi = u64::from(active as f64 >= high && sampled_neighbors == 0 && !self_sampled);
    psi + phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_congest::sim::{SimConfig, Simulator};
    use powersparse_graphs::{bfs, generators, power, NodeId};

    fn check_outcome(
        g: &powersparse_graphs::Graph,
        k: usize,
        q0: &[bool],
        out: &SparsifyOutcome,
        params: &TheoryParams,
    ) {
        let q_members = generators::members(&out.q);
        // Q ⊆ Q_0.
        for &v in &q_members {
            assert!(q0[v.index()], "{v} not in Q0");
        }
        // I1: bounded distance-k Q-degree.
        let bound = params.degree_bound(g.n());
        let maxdeg = power::max_q_degree(g, k, &out.q);
        assert!(maxdeg <= bound, "max d_k(v,Q) = {maxdeg} > bound {bound}");
        // I2: domination k² + k relative to Q0.
        let d_q = bfs::distances_to_set(g, &q_members);
        let q0_members = generators::members(q0);
        let d_q0 = bfs::distances_to_set(g, &q0_members);
        for v in g.nodes() {
            if let Some(d0) = d_q0[v.index()] {
                let dq = d_q[v.index()].expect("Q nonempty if Q0 nonempty");
                assert!(
                    dq as usize <= k * k + k + d0 as usize,
                    "domination violated at {v}: {dq} > {} + {d0}",
                    k * k + k
                );
            }
        }
        // I3: knowledge = N^{k+1}(v, Q), sorted.
        for v in g.nodes() {
            let mut expect: Vec<u32> = power::q_neighborhood(g, v, k + 1, &out.q)
                .into_iter()
                .map(|w| w.0)
                .collect();
            expect.sort_unstable();
            assert_eq!(out.knowledge[v.index()], expect, "knowledge at {v}");
        }
    }

    #[test]
    fn randomized_sparsification_k1() {
        let g = generators::connected_gnp(128, 0.12, 7);
        let params = TheoryParams::scaled();
        let q0 = vec![true; 128];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_graph(
            &mut sim,
            &q0,
            &params,
            SamplingStrategy::Randomized { seed: 3 },
        )
        .unwrap();
        check_outcome(&g, 1, &q0, &out, &params);
        assert_eq!(out.iterations.len(), 1);
        assert!(
            out.iterations[0].stages >= 1,
            "stages should bite at Δ ~ 15"
        );
    }

    #[test]
    fn deterministic_sparsification_k1_seed_search() {
        let g = generators::connected_gnp(96, 0.15, 11);
        let params = TheoryParams::scaled();
        let q0 = vec![true; 96];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_graph(&mut sim, &q0, &params, SamplingStrategy::SeedSearch).unwrap();
        check_outcome(&g, 1, &q0, &out, &params);
        // Deterministic: same run → same result.
        let mut sim2 = Simulator::new(&g, SimConfig::for_graph(&g));
        let out2 = sparsify_graph(&mut sim2, &q0, &params, SamplingStrategy::SeedSearch).unwrap();
        assert_eq!(out.q, out2.q);
    }

    #[test]
    fn power_sparsification_k2() {
        let g = generators::connected_gnp(100, 0.1, 5);
        let params = TheoryParams::scaled();
        let q0 = vec![true; 100];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_power(&mut sim, 2, &q0, &params, SamplingStrategy::SeedSearch).unwrap();
        check_outcome(&g, 2, &q0, &out, &params);
        assert_eq!(out.iterations.len(), 2);
        // Q shrinks (or stays equal) across iterations.
        assert!(out.iterations[1].q_size <= out.iterations[0].q_size);
    }

    #[test]
    fn power_sparsification_k3_randomized() {
        let g = generators::grid(10, 12);
        let params = TheoryParams::scaled();
        let q0 = vec![true; 120];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_power(
            &mut sim,
            3,
            &q0,
            &params,
            SamplingStrategy::Randomized { seed: 1 },
        )
        .unwrap();
        check_outcome(&g, 3, &q0, &out, &params);
    }

    #[test]
    fn partial_initial_set_respected() {
        let g = generators::connected_gnp(80, 0.1, 9);
        let params = TheoryParams::scaled();
        let q0: Vec<bool> = (0..80).map(|i| i % 2 == 0).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_graph(&mut sim, &q0, &params, SamplingStrategy::SeedSearch).unwrap();
        check_outcome(&g, 1, &q0, &out, &params);
    }

    #[test]
    fn k0_returns_input() {
        let g = generators::cycle(12);
        let params = TheoryParams::scaled();
        let q0: Vec<bool> = (0..12).map(|i| i % 3 == 0).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_power(&mut sim, 0, &q0, &params, SamplingStrategy::SeedSearch).unwrap();
        assert_eq!(out.q, q0);
        assert!(out.iterations.is_empty());
    }

    #[test]
    fn sparse_input_passes_through_when_no_stages() {
        // Low-degree graph: r = 0 stages, everything stays.
        let g = generators::cycle(64);
        let params = TheoryParams::paper(); // huge constants → r = 0
        let q0 = vec![true; 64];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_graph(&mut sim, &q0, &params, SamplingStrategy::SeedSearch).unwrap();
        assert_eq!(out.q, q0);
        assert_eq!(out.iterations[0].stages, 0);
    }

    /// Two disjoint copies of `g`: copy 2 renumbers node `v` as `v + n`.
    fn two_copies(g: &powersparse_graphs::Graph) -> powersparse_graphs::Graph {
        let n = g.n();
        let edges: Vec<(usize, usize)> = g
            .edges()
            .flat_map(|(u, v)| [(u.index(), v.index()), (u.index() + n, v.index() + n)])
            .collect();
        powersparse_graphs::Graph::from_edges(2 * n, &edges)
    }

    /// With no stage that samples, a derandomized run elects no global
    /// tree: it costs exactly the I3 upkeep, the depth-1 bootstrap plus
    /// one tree extension per iteration.
    #[test]
    fn seed_search_without_stages_costs_only_the_tree_growth() {
        let g = generators::cycle(64);
        let params = TheoryParams::scaled();
        let q0 = vec![true; 64];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_graph(&mut sim, &q0, &params, SamplingStrategy::SeedSearch).unwrap();
        assert_eq!(out.iterations[0].stages, 0);
        let mut fresh = Simulator::new(&g, SimConfig::for_graph(&g));
        let (sets, mut trees) = init_knowledge_and_trees(&mut fresh, &q0);
        let knowledge = extend_trees(&mut fresh, &sets, &mut trees);
        assert_eq!(out.knowledge, knowledge);
        let (got, want) = (sim.metrics(), fresh.metrics());
        assert_eq!(
            (got.rounds, got.messages, got.bits),
            (want.rounds, want.messages, want.bits)
        );
    }

    /// Without a stage that samples, the graph need not be connected.
    #[test]
    fn seed_search_without_stages_accepts_a_disconnected_graph() {
        let g = two_copies(&generators::cycle(32));
        let params = TheoryParams::scaled();
        let q0 = vec![true; 64];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_graph(&mut sim, &q0, &params, SamplingStrategy::SeedSearch).unwrap();
        assert_eq!(out.iterations[0].stages, 0);
        assert_eq!(out.q, q0);
        check_outcome(&g, 1, &q0, &out, &params);
    }

    /// A stage that samples scans its seeds over the global tree, which a
    /// disconnected graph does not have.
    #[test]
    #[should_panic(expected = "disconnected")]
    fn seed_search_with_stages_rejects_a_disconnected_graph() {
        let g = two_copies(&generators::connected_gnp(128, 0.12, 7));
        let params = TheoryParams::scaled();
        assert!(params.num_stages(g.max_degree(), g.n()) >= 1);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let _ = sparsify_graph(
            &mut sim,
            &vec![true; g.n()],
            &params,
            SamplingStrategy::SeedSearch,
        );
    }

    /// Paper-faithful constants on a graph with Δ large enough for
    /// `r ≥ 1` stages (`Δ ≥ 2^5·log n · log n`-ish): the `72·log n` bound
    /// must hold verbatim and must actually bite at the hub.
    #[test]
    fn paper_constants_bound_holds() {
        let g = generators::star(1500);
        let n = g.n();
        let params = TheoryParams::paper();
        let q0 = vec![true; n];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_graph(
            &mut sim,
            &q0,
            &params,
            SamplingStrategy::Randomized { seed: 4 },
        )
        .unwrap();
        assert!(
            out.iterations[0].stages >= 1,
            "stages must engage at Δ = 1500"
        );
        let bound = params.degree_bound(n);
        let hub_degree = power::q_degree(&g, NodeId(0), 1, &out.q);
        assert!(
            hub_degree <= bound,
            "hub has {hub_degree} Q-neighbors > {bound}"
        );
        // Domination 2 + 0.
        let members = generators::members(&out.q);
        assert!(powersparse_graphs::check::is_beta_dominating(
            &g, &members, 2
        ));
    }

    #[test]
    fn rounds_grow_with_k() {
        let g = generators::grid(8, 8);
        let params = TheoryParams::scaled();
        let q0 = vec![true; 64];
        let mut r1 = 0;
        let mut r2 = 0;
        for (k, out_rounds) in [(1usize, &mut r1), (2, &mut r2)] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let _ = sparsify_power(
                &mut sim,
                k,
                &q0,
                &params,
                SamplingStrategy::Randomized { seed: 8 },
            )
            .unwrap();
            *out_rounds = sim.metrics().rounds;
        }
        assert!(r2 > r1, "k=2 ({r2}) should cost more than k=1 ({r1})");
    }
}
