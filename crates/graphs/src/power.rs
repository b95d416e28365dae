//! Power-graph machinery: distance-`s` neighborhoods, `Q`-degrees and
//! materialized power graphs `G^k`.
//!
//! Notation follows Section 2 of the paper:
//! * `N^s(v)` — the distance-`s` neighborhood of `v` (excluding `v`),
//! * `d_s(v) = |N^s(v)|`,
//! * `N^s(v, X) = N^s(v) ∩ X` — the distance-`s` `X`-neighborhood,
//! * `d_s(v, X) = |N^s(v, X)|` — the distance-`s` `X`-degree.

use crate::graph::{Graph, GraphBuilder, NodeId};
use std::collections::VecDeque;

/// Returns `N^s(v)`: all nodes `w ≠ v` with `dist_G(v, w) ≤ s`, sorted.
///
/// Runs a truncated BFS; `O(edges within s hops)`.
pub fn neighborhood(g: &Graph, v: NodeId, s: usize) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut seen = vec![false; g.n()];
    let mut queue = VecDeque::new();
    seen[v.index()] = true;
    queue.push_back((v, 0usize));
    while let Some((u, d)) = queue.pop_front() {
        if d == s {
            continue;
        }
        for &w in g.neighbors(u) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                out.push(w);
                queue.push_back((w, d + 1));
            }
        }
    }
    out.sort_unstable();
    out
}

/// `d_s(v) = |N^s(v)|`.
pub fn degree(g: &Graph, v: NodeId, s: usize) -> usize {
    neighborhood(g, v, s).len()
}

/// `N^s(v, Q)`: distance-`s` `Q`-neighbors of `v`, where `q` is a
/// membership mask over the nodes. Sorted. Excludes `v` itself even when
/// `v ∈ Q` (matching the paper's non-inclusive neighborhoods).
pub fn q_neighborhood(g: &Graph, v: NodeId, s: usize, q: &[bool]) -> Vec<NodeId> {
    neighborhood(g, v, s)
        .into_iter()
        .filter(|w| q[w.index()])
        .collect()
}

/// `d_s(v, Q) = |N^s(v, Q)|`.
pub fn q_degree(g: &Graph, v: NodeId, s: usize, q: &[bool]) -> usize {
    q_neighborhood(g, v, s, q).len()
}

/// Maximum distance-`s` `Q`-degree over all nodes of the graph:
/// `max_v d_s(v, Q)`. This is the paper's sparsity measure `Δ̂`.
pub fn max_q_degree(g: &Graph, s: usize, q: &[bool]) -> usize {
    g.nodes().map(|v| q_degree(g, v, s, q)).max().unwrap_or(0)
}

/// Materializes the power graph `G^k` as a [`Graph`].
///
/// Note: this is only used for *verification* and for LOCAL-style
/// baselines; CONGEST algorithms never get to see `G^k` directly.
///
/// # Example
///
/// ```
/// use powersparse_graphs::{generators, power};
/// let g = generators::path(5);
/// let g2 = power::power_graph(&g, 2);
/// assert_eq!(g2.m(), 4 + 3); // distance-1 and distance-2 pairs
/// ```
pub fn power_graph(g: &Graph, k: usize) -> Graph {
    let mut b = GraphBuilder::new(g.n());
    for v in g.nodes() {
        for w in neighborhood(g, v, k) {
            if v < w {
                b.add_edge(v, w);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn neighborhood_path() {
        let g = generators::path(7);
        assert_eq!(
            neighborhood(&g, NodeId(3), 2),
            vec![NodeId(1), NodeId(2), NodeId(4), NodeId(5)]
        );
        assert_eq!(degree(&g, NodeId(0), 3), 3);
    }

    #[test]
    fn neighborhood_excludes_self() {
        let g = generators::cycle(5);
        let nb = neighborhood(&g, NodeId(2), 4);
        assert!(!nb.contains(&NodeId(2)));
        assert_eq!(nb.len(), 4);
    }

    #[test]
    fn q_degree_counts_only_members() {
        let g = generators::path(6);
        let mut q = vec![false; 6];
        q[0] = true;
        q[5] = true;
        assert_eq!(q_degree(&g, NodeId(2), 2, &q), 1); // only node 0
        assert_eq!(q_degree(&g, NodeId(2), 3, &q), 2);
        assert_eq!(max_q_degree(&g, 5, &q), 2);
    }

    #[test]
    fn power_graph_cycle() {
        let g = generators::cycle(6);
        let g2 = power_graph(&g, 2);
        assert!(g2.nodes().all(|v| g2.degree(v) == 4));
        let g3 = power_graph(&g, 3);
        assert!(g3.nodes().all(|v| g3.degree(v) == 5)); // complete
    }

    #[test]
    fn power_graph_k1_is_g() {
        let g = generators::gnp(40, 0.1, 3);
        assert_eq!(power_graph(&g, 1), g);
    }

    #[test]
    fn power_neighborhood_matches_power_graph() {
        let g = generators::gnp(30, 0.15, 11);
        let g3 = power_graph(&g, 3);
        for v in g.nodes() {
            let nb = neighborhood(&g, v, 3);
            assert_eq!(nb.as_slice(), g3.neighbors(v));
        }
    }
}
