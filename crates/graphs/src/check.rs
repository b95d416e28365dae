//! Validity checkers for the outputs of every algorithm in the workspace.
//!
//! Tests and benches never trust an algorithm's output: they re-verify it
//! with these (slow, obviously-correct) checkers.

use crate::bfs;
use crate::graph::{Graph, NodeId};
use crate::power;

/// Whether `set` is `α`-independent in `G`: all distinct members are at
/// distance ≥ `α` (Section 2 of the paper). `α = 2` is plain independence;
/// `α = k + 1` is independence in `G^k`.
pub fn is_alpha_independent(g: &Graph, set: &[NodeId], alpha: usize) -> bool {
    if alpha <= 1 {
        return true;
    }
    let mut mask = vec![false; g.n()];
    for &v in set {
        if mask[v.index()] {
            return false; // duplicate member: distance 0 < alpha
        }
        mask[v.index()] = true;
    }
    set.iter()
        .all(|&v| power::q_degree(g, v, alpha - 1, &mask) == 0)
}

/// Whether `set` is a `β`-dominating set of `of` in `G`: every node of
/// `of` has a member of `set` within distance `β`.
pub fn is_beta_dominating_of(g: &Graph, set: &[NodeId], of: &[NodeId], beta: usize) -> bool {
    let d = bfs::multi_source_distances(g, set);
    of.iter()
        .all(|&v| matches!(d[v.index()], Some(x) if (x as usize) <= beta))
}

/// Whether `set` is a `β`-dominating set of all of `V`.
pub fn is_beta_dominating(g: &Graph, set: &[NodeId], beta: usize) -> bool {
    let all: Vec<NodeId> = g.nodes().collect();
    is_beta_dominating_of(g, set, &all, beta)
}

/// Whether `set` is an `(α, β)`-ruling set of `G` (Section 2):
/// `α`-independent and `β`-dominating.
pub fn is_ruling_set(g: &Graph, set: &[NodeId], alpha: usize, beta: usize) -> bool {
    is_alpha_independent(g, set, alpha) && is_beta_dominating(g, set, beta)
}

/// Whether `set` is an MIS of `G` (i.e. a `(2, 1)`-ruling set).
pub fn is_mis(g: &Graph, set: &[NodeId]) -> bool {
    is_ruling_set(g, set, 2, 1)
}

/// Whether `set` is an MIS of the power graph `G^k` (i.e. a
/// `(k+1, k)`-ruling set of `G`).
pub fn is_mis_of_power(g: &Graph, set: &[NodeId], k: usize) -> bool {
    is_ruling_set(g, set, k + 1, k)
}

/// Whether `set` is an MIS of `G^k[Q]`: `set ⊆ Q`, `(k+1)`-independent in
/// `G`, and every node of `q_members` has a member within `k` hops in `G`.
///
/// Note that maximality is relative to `Q` only (Lemma 6.3 of the paper).
pub fn is_mis_of_power_restricted(
    g: &Graph,
    set: &[NodeId],
    q_members: &[NodeId],
    k: usize,
) -> bool {
    let mut in_q = vec![false; g.n()];
    for &v in q_members {
        in_q[v.index()] = true;
    }
    set.iter().all(|&v| in_q[v.index()])
        && is_alpha_independent(g, set, k + 1)
        && is_beta_dominating_of(g, set, q_members, k)
}

/// Whether the iterated power-graph sparsifier's **invariant I3** holds
/// (Algorithm 3 / Lemma 3.1 of the paper): every node's knowledge set is
/// exactly its non-inclusive distance-`(k+1)` `Q`-neighborhood
/// `N^{k+1}(v, Q)`, given as sorted node indices. A list out of order or
/// with a repeated index fails.
///
/// # Panics
///
/// Panics if `q` or `knowledge` has the wrong length.
pub fn satisfies_sparsifier_i3(g: &Graph, k: usize, q: &[bool], knowledge: &[Vec<u32>]) -> bool {
    assert_eq!(q.len(), g.n(), "q mask has wrong length");
    assert_eq!(knowledge.len(), g.n(), "knowledge has wrong length");
    g.nodes().all(|v| {
        let mut want: Vec<u32> = power::q_neighborhood(g, v, k + 1, q)
            .into_iter()
            .map(|w| w.0)
            .collect();
        want.sort_unstable();
        knowledge[v.index()] == want
    })
}

/// Whether `colors` is a proper distance-`k` coloring of `G`: any two
/// distinct nodes within distance `k` get different colors.
pub fn is_distance_k_coloring(g: &Graph, colors: &[u64], k: usize) -> bool {
    assert_eq!(colors.len(), g.n());
    g.nodes().all(|v| {
        power::neighborhood(g, v, k)
            .iter()
            .all(|w| colors[w.index()] != colors[v.index()])
    })
}

/// A network decomposition given as per-node cluster assignment plus
/// per-cluster colors (see Definition 2.1 of the paper). Nodes with
/// `cluster[v] == None` are unclustered (only allowed while a
/// decomposition is being built; a complete decomposition covers `V`).
#[derive(Debug, Clone)]
pub struct DecompositionView<'a> {
    /// `cluster[v]`: the cluster id of `v`, or `None` if unclustered.
    pub cluster: &'a [Option<usize>],
    /// `color[c]`: color of cluster `c`.
    pub color: &'a [usize],
}

/// Errors found by [`check_decomposition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompositionError {
    /// A node is not assigned to any cluster.
    Uncovered(NodeId),
    /// A cluster's weak diameter (in `G`) exceeds the bound.
    DiameterExceeded {
        cluster: usize,
        diameter: u32,
        bound: u32,
    },
    /// Two distinct clusters of the same color are within `separation`
    /// hops of each other in `G`.
    SeparationViolated { a: usize, b: usize, distance: u32 },
}

impl std::fmt::Display for DecompositionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Uncovered(v) => write!(f, "node {v} is not covered by any cluster"),
            Self::DiameterExceeded {
                cluster,
                diameter,
                bound,
            } => write!(
                f,
                "cluster {cluster} has weak diameter {diameter} > bound {bound}"
            ),
            Self::SeparationViolated { a, b, distance } => write!(
                f,
                "same-color clusters {a} and {b} are at distance {distance}"
            ),
        }
    }
}

impl std::error::Error for DecompositionError {}

/// Checks a `(c, d)`-network decomposition with the given same-color
/// `separation` requirement (`separation = 1` is the classic "adjacent
/// clusters have different colors"; power-graph decompositions need
/// `separation = k + 1` or `2k + 1`, meaning
/// `dist_G(C, C') ≥ separation + 1`... — precisely: we require
/// `dist_G(C, C') > separation_gap` where `separation_gap = separation`).
///
/// Concretely, for any two distinct same-color clusters `C, C'` we require
/// `dist_G(C, C') > separation`, matching "for any two clusters of the same
/// color, `dist_G(C, C') > k`" in Definition 2.1 with `separation = k`.
///
/// Weak diameter of each cluster must be ≤ `diameter_bound`.
///
/// Returns all violations (empty = valid). `require_cover` controls
/// whether unclustered nodes are errors.
pub fn check_decomposition(
    g: &Graph,
    view: &DecompositionView<'_>,
    diameter_bound: u32,
    separation: u32,
    require_cover: bool,
) -> Vec<DecompositionError> {
    let mut errors = Vec::new();
    let num_clusters = view.color.len();
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num_clusters];
    for v in g.nodes() {
        match view.cluster[v.index()] {
            Some(c) => {
                assert!(c < num_clusters, "cluster id {c} out of range");
                members[c].push(v);
            }
            None => {
                if require_cover {
                    errors.push(DecompositionError::Uncovered(v));
                }
            }
        }
    }
    // Weak diameter: max pairwise distance in G between cluster members.
    for (c, mem) in members.iter().enumerate() {
        if mem.len() <= 1 {
            continue;
        }
        let mut worst = 0u32;
        for &v in mem {
            let d = bfs::distances(g, v);
            for &w in mem {
                match d[w.index()] {
                    Some(x) => worst = worst.max(x),
                    None => worst = u32::MAX,
                }
            }
        }
        if worst > diameter_bound {
            errors.push(DecompositionError::DiameterExceeded {
                cluster: c,
                diameter: worst,
                bound: diameter_bound,
            });
        }
    }
    // Separation between same-color clusters.
    for c in 0..num_clusters {
        if members[c].is_empty() {
            continue;
        }
        let d = bfs::multi_source_distances(g, &members[c]);
        for c2 in (c + 1)..num_clusters {
            if view.color[c] != view.color[c2] {
                continue;
            }
            for &w in &members[c2] {
                if let Some(x) = d[w.index()] {
                    if x <= separation {
                        errors.push(DecompositionError::SeparationViolated {
                            a: c,
                            b: c2,
                            distance: x,
                        });
                        break;
                    }
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn independence_checks() {
        let g = generators::path(6);
        assert!(is_alpha_independent(
            &g,
            &[NodeId(0), NodeId(2), NodeId(4)],
            2
        ));
        assert!(!is_alpha_independent(&g, &[NodeId(0), NodeId(1)], 2));
        assert!(is_alpha_independent(&g, &[NodeId(0), NodeId(3)], 3));
        assert!(!is_alpha_independent(&g, &[NodeId(0), NodeId(2)], 3));
        // Duplicate members are never alpha-independent for alpha >= 2.
        assert!(!is_alpha_independent(&g, &[NodeId(0), NodeId(0)], 2));
        // Everything is 1-independent and 0-independent.
        assert!(is_alpha_independent(&g, &[NodeId(0), NodeId(0)], 1));
    }

    #[test]
    fn domination_checks() {
        let g = generators::path(5);
        assert!(is_beta_dominating(&g, &[NodeId(2)], 2));
        assert!(!is_beta_dominating(&g, &[NodeId(2)], 1));
        assert!(is_beta_dominating_of(&g, &[NodeId(0)], &[NodeId(1)], 1));
        // Empty set dominates nothing (on a non-empty graph).
        assert!(!is_beta_dominating(&g, &[], 100));
    }

    #[test]
    fn mis_checks() {
        let g = generators::cycle(6);
        assert!(is_mis(&g, &[NodeId(0), NodeId(2), NodeId(4)]));
    }

    #[test]
    fn mis_cycle_pair_is_maximal() {
        // {0, 3} in C6 is a valid (smaller) MIS.
        let g = generators::cycle(6);
        assert!(is_mis(&g, &[NodeId(0), NodeId(3)]));
        // {0} alone is not maximal.
        assert!(!is_mis(&g, &[NodeId(0)]));
        // {0, 1} is not independent.
        assert!(!is_mis(&g, &[NodeId(0), NodeId(1)]));
    }

    #[test]
    fn mis_of_power() {
        let g = generators::path(7);
        // G^2 MIS: nodes at distance >= 3 covering within 2.
        assert!(is_mis_of_power(&g, &[NodeId(1), NodeId(4)], 2));
        assert!(!is_mis_of_power(&g, &[NodeId(0), NodeId(2)], 2)); // too close
        assert!(!is_mis_of_power(&g, &[NodeId(0)], 2)); // 6 uncovered... dist(0,6)=6 > 2
    }

    #[test]
    fn mis_restricted_to_q() {
        let g = generators::path(9);
        let q = [NodeId(0), NodeId(4), NodeId(8)];
        // {0, 4, 8} is 3-independent? dist(0,4)=4 >= 3 yes. k=2: need (3)-indep and 2-dominating of q.
        assert!(is_mis_of_power_restricted(&g, &q, &q, 2));
        // {0, 8} leaves node 4 at distance 4 > 2 undominated.
        assert!(!is_mis_of_power_restricted(
            &g,
            &[NodeId(0), NodeId(8)],
            &q,
            2
        ));
        // A set not contained in Q fails.
        assert!(!is_mis_of_power_restricted(&g, &[NodeId(1)], &q, 2));
    }

    #[test]
    fn sparsifier_i3_check() {
        let g = generators::path(5);
        let q = vec![true, false, false, true, false];
        let k = 1; // knowledge must be N²(v, Q), excluding v itself
        let knowledge: Vec<Vec<u32>> = vec![
            vec![],     // v0: only Q member within 2 is itself
            vec![0, 3], // v1
            vec![0, 3], // v2
            vec![],     // v3
            vec![3],    // v4
        ];
        assert!(satisfies_sparsifier_i3(&g, k, &q, &knowledge));
        // A node missing a Q-neighbor violates I3.
        let mut bad = knowledge.clone();
        bad[1].retain(|&x| x != 3);
        assert!(!satisfies_sparsifier_i3(&g, k, &q, &bad));
        // A node claiming an extra member violates I3.
        let mut bad = knowledge;
        bad[0].push(4);
        assert!(!satisfies_sparsifier_i3(&g, k, &q, &bad));
    }

    #[test]
    fn coloring_check() {
        let g = generators::cycle(4);
        assert!(is_distance_k_coloring(&g, &[0, 1, 0, 1], 1));
        assert!(!is_distance_k_coloring(&g, &[0, 1, 0, 1], 2));
        assert!(is_distance_k_coloring(&g, &[0, 1, 2, 3], 2));
    }

    #[test]
    fn decomposition_checker_accepts_valid() {
        let g = generators::path(6);
        // Clusters {0,1}, {2,3}, {4,5} colored 0, 1, 0.
        let cluster = vec![Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)];
        let color = vec![0, 1, 0];
        let view = DecompositionView {
            cluster: &cluster,
            color: &color,
        };
        // dist({0,1},{4,5}) = 3 > separation 2. Diameter 1.
        assert!(check_decomposition(&g, &view, 1, 2, true).is_empty());
        // With separation 3 it must fail.
        let errs = check_decomposition(&g, &view, 1, 3, true);
        assert!(matches!(
            errs[0],
            DecompositionError::SeparationViolated { .. }
        ));
    }

    #[test]
    fn decomposition_checker_catches_diameter_and_cover() {
        let g = generators::path(5);
        let cluster = vec![Some(0), Some(0), Some(0), None, Some(1)];
        let color = vec![0, 1];
        let view = DecompositionView {
            cluster: &cluster,
            color: &color,
        };
        let errs = check_decomposition(&g, &view, 1, 0, true);
        assert!(errs
            .iter()
            .any(|e| matches!(e, DecompositionError::Uncovered(v) if *v == NodeId(3))));
        assert!(errs.iter().any(|e| matches!(
            e,
            DecompositionError::DiameterExceeded {
                cluster: 0,
                diameter: 2,
                ..
            }
        )));
    }

    #[test]
    fn weak_diameter_measured_in_g() {
        // Cluster {0, 2} in a path 0-1-2: weak diameter 2 via node 1,
        // which is in another cluster.
        let g = generators::path(3);
        let cluster = vec![Some(0), Some(1), Some(0)];
        let color = vec![0, 1];
        let view = DecompositionView {
            cluster: &cluster,
            color: &color,
        };
        assert!(check_decomposition(&g, &view, 2, 0, true).is_empty());
        let errs = check_decomposition(&g, &view, 1, 0, true);
        assert_eq!(errs.len(), 1);
    }
}
