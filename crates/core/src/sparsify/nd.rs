//! Lemma 5.8: sparsification with no diameter dependency, by running the
//! power-graph sparsifier inside the clusters of a `(2k+1)`-separated
//! network decomposition, one color class at a time.

use super::{SamplingStrategy, SparsifyError};
use crate::nd::{cluster_parts, power_nd, NdError, NetworkDecomposition};
use crate::params::TheoryParams;
use powersparse_congest::engine::RoundEngine;
use powersparse_congest::primitives::flood_flags;
use powersparse_congest::sim::{SimConfig, Simulator};

/// Outcome of [`sparsify_power_nd`].
#[derive(Debug, Clone)]
pub struct NdSparsifyOutcome {
    /// Membership mask of the sparse set `Q`.
    pub q: Vec<bool>,
    /// The network decomposition that was used.
    pub nd: NetworkDecomposition,
}

/// Error of [`sparsify_power_nd`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NdSparsifyError {
    /// Network-decomposition construction failed.
    Nd(NdError),
    /// A per-cluster sparsification failed.
    Sparsify(SparsifyError),
}

impl std::fmt::Display for NdSparsifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Nd(e) => write!(f, "network decomposition failed: {e}"),
            Self::Sparsify(e) => write!(f, "cluster sparsification failed: {e}"),
        }
    }
}

impl std::error::Error for NdSparsifyError {}

impl From<NdError> for NdSparsifyError {
    fn from(e: NdError) -> Self {
        Self::Nd(e)
    }
}

impl From<SparsifyError> for NdSparsifyError {
    fn from(e: SparsifyError) -> Self {
        Self::Sparsify(e)
    }
}

/// Lemma 5.8: finds `Q ⊆ Q_0` with `d_k(v, Q) ≤ degree_bound(n)` and
/// `dist(v, Q) ≤ k² + k + dist(v, Q_0)` in rounds independent of
/// `diam(G)`.
///
/// Per color class, every cluster `C` runs Lemma 3.1 on the induced
/// domain `C ∪ N^k(C)` (the border acting as inactive observers), with
/// clusters of the same color running **in parallel**: each runs on its
/// own sub-simulator and the main simulator is charged the maximum of
/// their round counts (a documented parallel-composition charge; the
/// `2k+1` separation makes the runs non-interfering, which is the content
/// of the lemma). After each color, sampled nodes deactivate the globally
/// active nodes within `2k` hops (a real flood on the main simulator).
///
/// # Errors
///
/// See [`NdSparsifyError`].
pub fn sparsify_power_nd<E: RoundEngine>(
    sim: &mut E,
    k: usize,
    q0: &[bool],
    params: &TheoryParams,
    strategy: SamplingStrategy,
) -> Result<NdSparsifyOutcome, NdSparsifyError> {
    let n = sim.graph().n();
    assert_eq!(q0.len(), n);
    let nd = power_nd(sim, k, params)?;
    let members = nd.members();

    let mut globally_active: Vec<bool> = q0.to_vec();
    let mut q: Vec<bool> = vec![false; n];

    for color in 0..nd.num_colors {
        let mut max_cluster_rounds = 0u64;
        let mut sampled_this_color: Vec<bool> = vec![false; n];
        for (c, cluster) in members.iter().enumerate() {
            if nd.color[c] != color || cluster.is_empty() {
                continue;
            }
            for (sub, map, member) in cluster_parts(sim.graph(), cluster, k) {
                // Actives: globally active members of C (borders observe).
                let in_cluster: Vec<bool> = map
                    .iter()
                    .zip(&member)
                    .map(|(v, &m)| m && globally_active[v.index()])
                    .collect();
                if !in_cluster.iter().any(|&b| b) {
                    continue;
                }
                // Parallel run on the component's own simulator.
                let mut subsim = Simulator::new(&sub, SimConfig::for_graph(sim.graph()));
                let out = super::sparsify_power(&mut subsim, k, &in_cluster, params, strategy)?;
                max_cluster_rounds = max_cluster_rounds.max(subsim.metrics().rounds);
                for (i, &sel) in out.q.iter().enumerate() {
                    if sel {
                        let v = map[i];
                        q[v.index()] = true;
                        sampled_this_color[v.index()] = true;
                    }
                }
            }
        }
        // Same-color clusters ran in parallel: charge the maximum.
        sim.charge_rounds(max_cluster_rounds);
        // Sampled nodes deactivate globally active nodes within 2k hops.
        if sampled_this_color.iter().any(|&b| b) {
            let reached = flood_flags(sim, &sampled_this_color, 2 * k);
            for i in 0..n {
                if reached[i] && !q[i] {
                    globally_active[i] = false;
                }
            }
        }
    }
    Ok(NdSparsifyOutcome { q, nd })
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_graphs::{bfs, generators, power};

    fn validate(
        g: &powersparse_graphs::Graph,
        k: usize,
        q0: &[bool],
        out: &NdSparsifyOutcome,
        params: &TheoryParams,
    ) {
        let q_members = generators::members(&out.q);
        for &v in &q_members {
            assert!(q0[v.index()]);
        }
        let bound = params.degree_bound(g.n());
        let maxdeg = power::max_q_degree(g, k, &out.q);
        assert!(maxdeg <= bound, "d_k bound violated: {maxdeg} > {bound}");
        // Domination k² + k (+2k slack for the cross-cluster case is
        // already inside k²+k for k ≥ 1... the lemma's bound):
        let d_q = bfs::distances_to_set(g, &q_members);
        let d_q0 = bfs::distances_to_set(g, &generators::members(q0));
        for v in g.nodes() {
            if let Some(d0) = d_q0[v.index()] {
                let dq = d_q[v.index()].expect("nonempty") as usize;
                assert!(
                    dq <= k * k + k + d0 as usize,
                    "domination violated at {v}: {dq}"
                );
            }
        }
    }

    #[test]
    fn nd_sparsify_k1_randomized() {
        let g = generators::connected_gnp(100, 0.12, 17);
        let params = TheoryParams::scaled();
        let q0 = vec![true; 100];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_power_nd(
            &mut sim,
            1,
            &q0,
            &params,
            SamplingStrategy::Randomized { seed: 5 },
        )
        .unwrap();
        validate(&g, 1, &q0, &out, &params);
    }

    #[test]
    fn nd_sparsify_k2_seed_search() {
        let g = generators::grid(9, 9);
        let params = TheoryParams::scaled();
        let q0 = vec![true; 81];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out =
            sparsify_power_nd(&mut sim, 2, &q0, &params, SamplingStrategy::SeedSearch).unwrap();
        validate(&g, 2, &q0, &out, &params);
    }

    #[test]
    fn charged_rounds_recorded() {
        let g = generators::connected_gnp(60, 0.1, 23);
        let params = TheoryParams::scaled();
        let q0 = vec![true; 60];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let _ = sparsify_power_nd(
            &mut sim,
            1,
            &q0,
            &params,
            SamplingStrategy::Randomized { seed: 9 },
        )
        .unwrap();
        assert!(sim.metrics().charged_rounds > 0);
        assert!(sim.metrics().rounds >= sim.metrics().charged_rounds);
    }
}
