//! Induced subgraphs, connected components and `k`-connected components.

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::power;
use std::collections::VecDeque;

/// Induced subgraph `G[X]` over compacted indices, plus the mapping from
/// new index to original node ID.
pub fn induced(g: &Graph, x: &[NodeId]) -> (Graph, Vec<NodeId>) {
    let mut sorted = x.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut to_new = vec![usize::MAX; g.n()];
    for (i, &v) in sorted.iter().enumerate() {
        to_new[v.index()] = i;
    }
    let mut b = GraphBuilder::new(sorted.len());
    for &v in &sorted {
        for &w in g.neighbors(v) {
            if to_new[w.index()] != usize::MAX && v < w {
                b.add_edge(
                    NodeId::from(to_new[v.index()]),
                    NodeId::from(to_new[w.index()]),
                );
            }
        }
    }
    (b.build(), sorted)
}

/// Connected components of `G` as lists of node IDs (each sorted; the list
/// of components is sorted by smallest member).
pub fn components(g: &Graph) -> Vec<Vec<NodeId>> {
    let mut comp = vec![usize::MAX; g.n()];
    let mut out: Vec<Vec<NodeId>> = Vec::new();
    for v in g.nodes() {
        if comp[v.index()] != usize::MAX {
            continue;
        }
        let id = out.len();
        let mut cur = vec![];
        let mut queue = VecDeque::new();
        comp[v.index()] = id;
        queue.push_back(v);
        while let Some(u) = queue.pop_front() {
            cur.push(u);
            for &w in g.neighbors(u) {
                if comp[w.index()] == usize::MAX {
                    comp[w.index()] = id;
                    queue.push_back(w);
                }
            }
        }
        cur.sort_unstable();
        out.push(cur);
    }
    out
}

/// Components of `X` under distance-`k` connectivity in `G` (i.e. the
/// connected components of `G^k[X]`; see "k-connected" in Section 2 of the
/// paper). Distances are measured in all of `G`, so two members may be
/// joined through non-members.
pub fn k_connected_components(g: &Graph, x: &[NodeId], k: usize) -> Vec<Vec<NodeId>> {
    let mut mask = vec![false; g.n()];
    for &v in x {
        mask[v.index()] = true;
    }
    let mut comp: Vec<usize> = vec![usize::MAX; g.n()];
    let mut out: Vec<Vec<NodeId>> = Vec::new();
    let mut sorted = x.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for &v in &sorted {
        if comp[v.index()] != usize::MAX {
            continue;
        }
        let id = out.len();
        let mut cur = vec![];
        let mut queue = VecDeque::new();
        comp[v.index()] = id;
        queue.push_back(v);
        while let Some(u) = queue.pop_front() {
            cur.push(u);
            for w in power::q_neighborhood(g, u, k, &mask) {
                if comp[w.index()] == usize::MAX {
                    comp[w.index()] = id;
                    queue.push_back(w);
                }
            }
        }
        cur.sort_unstable();
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn induced_subgraph_basic() {
        let g = generators::cycle(6);
        let (sub, map) = induced(&g, &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 1); // only 0-1 survives
        assert_eq!(map, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn components_of_disconnected() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (3, 4)]);
        let comps = components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[1], vec![NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(comps[2], vec![NodeId(5)]);
    }

    #[test]
    fn k_connected_through_nonmembers() {
        // Path 0-1-2-3-4; X = {0, 2, 4}: 2-connected via the middle nodes
        // even though G[X] has no edges.
        let g = generators::path(5);
        let x = [NodeId(0), NodeId(2), NodeId(4)];
        assert_eq!(k_connected_components(&g, &x, 2).len(), 1);
        assert_eq!(k_connected_components(&g, &x, 1).len(), 3);
    }

    #[test]
    fn k_connected_components_partition() {
        let g = generators::path(10);
        let x = [NodeId(0), NodeId(1), NodeId(5), NodeId(6), NodeId(9)];
        let comps = k_connected_components(&g, &x, 2);
        assert_eq!(comps.len(), 3);
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn empty_and_singleton_connected() {
        let g = generators::path(3);
        assert!(k_connected_components(&g, &[], 1).is_empty());
        assert_eq!(
            k_connected_components(&g, &[NodeId(1)], 1),
            vec![vec![NodeId(1)]]
        );
    }
}
