//! Pipelined ID-set exchange (Lemma 4.1): learning the distance-`(s+1)`
//! `Q`-neighborhood from the distance-`s` one, and extending the BFS trees
//! rooted at `Q` by one level.
//!
//! The knowledge and the trees of invariant I3 live in one [`QTrees`],
//! whose per-node record is the state of the node programs below: every node
//! does its own part of the lemma inside its own node steps and inbox
//! reads, so a parallel engine runs it on its workers, and the caller
//! makes no pass over the nodes. Each function's docs say which work
//! runs in which step or read.

use crate::engine::{Delivery, RoundEngine, RoundPhase};
use crate::trees::QTrees;
use powersparse_graphs::NodeId;
use std::sync::Arc;

/// The CSR position of each delivery's sender in `neighbors` (the
/// receiver's ascending neighbor list), paired with its payload. A
/// sender's messages are adjacent in an inbox, so each sender costs one
/// search.
fn by_position<'a, M>(
    neighbors: &'a [NodeId],
    inbox: &'a [Delivery<M>],
) -> impl Iterator<Item = (u32, &'a M)> + 'a {
    let mut last = 0;
    inbox.iter().map(move |(from, msg)| {
        if neighbors[last] != *from {
            last = neighbors
                .binary_search(from)
                .unwrap_or_else(|_| panic!("{from} is not a neighbor"));
        }
        (last as u32, msg)
    })
}

/// Bootstraps per-node knowledge of `N^1(v, Q)` and the depth-1 BFS trees
/// rooted at the members of `Q`, in one communication round: every member
/// broadcasts its own ID and, in the same step, roots its tree with all
/// its neighbors as descendants; every receiver's read joins each sender's
/// tree under the sender. This establishes invariant **I3** for
/// `s = 0 → 1` and is the starting point for iterated [`extend_trees`]
/// calls.
pub fn init_knowledge_and_trees<E: RoundEngine>(sim: &mut E, q: &[bool]) -> QTrees {
    let g = sim.network();
    assert_eq!(q.len(), g.n());
    let id_bits = g.id_bits();
    let mut trees = QTrees::new(g.n());
    let nodes = trees.open_level();
    let mut phase = sim.phase::<u32>();
    phase.step(nodes, |node, v, _in, out| {
        if q[v.index()] {
            node.plant();
            node.adopt((0..g.degree(v) as u32).map(|pos| (v.0, pos)));
            out.broadcast(v, v.0, id_bits);
        }
    });
    phase.settle(8 * id_bits as u64, nodes, |node, v, inbox| {
        let neighbors = g.neighbors(v);
        for (pos, &x) in by_position(neighbors, inbox) {
            node.hear(x, pos);
        }
        node.join(v, neighbors);
    });
    trees
}

/// Lemma 4.1, second claim: from per-node knowledge of `N^s(v, Q)` (in
/// `trees`, whose trees have depth `s`), every node learns
/// `N^{s+1}(v, Q) = ∪_{w ∈ N(v)} N^s(w, Q)` (with `v` itself removed;
/// neighborhoods are non-inclusive), and each depth-`s` BFS tree `T_x`
/// (for `x ∈ Q`) grows to depth `s+1`. For every newly learned ID
/// `x ∈ N^{s+1}(v,Q) \ N^s(v,Q)`, `v` picks one neighbor `w_x` that sent
/// `ID(x)` (the smallest, for determinism), sets `ancestor(T_x, v) = w_x`
/// and sends a confirmation carrying `ID(x)` (in ascending order of `x`)
/// so `w_x` records `v` as a descendant.
///
/// Where the work runs:
///
/// * the set exchange's first step sends `N^s(v, Q)` as one shared
///   `Arc<[u32]>` per node, and its reads keep each unknown ID with its
///   sender's CSR position;
/// * the confirmation phase's first step joins: it merges each new
///   `(root, ancestor)` pair into the node's knowledge and ancestors, and
///   sends each confirmation with [`crate::engine::Outbox::send_at`];
/// * its reads record each confirming child by its CSR position.
pub fn extend_trees<E: RoundEngine>(sim: &mut E, trees: &mut QTrees) {
    let g = sim.network();
    let id_bits = g.id_bits();
    // No node knows n IDs, so none sends n down an edge (in one ID set,
    // or one confirmation per new ID), and every edge carries at least
    // one bit per round.
    let budget = 8 * (g.n() as u64 + 2) * id_bits as u64;
    let nodes = trees.open_level();

    let mut phase = sim.phase::<Arc<[u32]>>();
    phase.step(nodes, |node, v, _in, out| {
        let known = node.known();
        if !known.is_empty() {
            out.broadcast(v, Arc::from(known), known.len() * id_bits);
        }
    });
    phase.settle(budget, nodes, |node, v, inbox| {
        for (pos, ids) in by_position(g.neighbors(v), inbox) {
            for &x in ids.iter() {
                if x != v.0 && !node.knows(x) {
                    node.hear(x, pos);
                }
            }
        }
    });
    drop(phase);

    // Confirmation round(s): v → w_x carrying ID(x). Costs id_bits per
    // confirmation, pipelined by the engine.
    let mut phase = sim.phase::<u32>();
    phase.step(nodes, |node, v, _in, out| {
        for (x, pos) in node.join(v, out.neighbors(v)) {
            out.send_at(v, pos as usize, x, id_bits);
        }
    });
    phase.settle(budget, nodes, |node, w, inbox| {
        node.adopt(by_position(g.neighbors(w), inbox).map(|(pos, &x)| (x, pos)));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::SpanProbe;
    use crate::sim::{SimConfig, Simulator};
    use powersparse_graphs::{bfs, generators, power, Graph};

    /// Ground truth: `N^s(v, Q)` as a sorted ID list.
    fn q_ids(g: &Graph, v: NodeId, s: usize, q: &[bool]) -> Vec<u32> {
        let mut ids: Vec<u32> = power::q_neighborhood(g, v, s, q)
            .into_iter()
            .map(|w| w.0)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Ground-truth knowledge at depth `s`: each v knows N^s(v, Q).
    fn sets_at(g: &Graph, s: usize, q: &[bool]) -> Vec<Vec<u32>> {
        g.nodes().map(|v| q_ids(g, v, s, q)).collect()
    }

    #[test]
    fn exchange_computes_next_neighborhood() {
        let g = generators::grid(5, 5);
        let q: Vec<bool> = (0..25).map(|i| i % 3 == 0).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut trees = init_knowledge_and_trees(&mut sim, &q);
        extend_trees(&mut sim, &mut trees);
        assert_eq!(trees.knowledge(), sets_at(&g, 2, &q));
    }

    #[test]
    fn iterated_exchange_reaches_distance_s() {
        let g = generators::connected_gnp(40, 0.07, 2);
        let q: Vec<bool> = (0..40).map(|i| i % 7 == 0).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut trees = init_knowledge_and_trees(&mut sim, &q);
        for s in 2..=3usize {
            extend_trees(&mut sim, &mut trees);
            assert_eq!(trees.knowledge(), sets_at(&g, s, &q), "s={s}");
        }
    }

    #[test]
    fn pipelining_cost_scales_with_set_size() {
        // Dense Q on a clique-ish graph: sets are large, so the exchange
        // must take ~|set|·id_bits/bandwidth rounds.
        let g = generators::complete(24);
        let q = vec![true; 24];
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(16));
        let mut trees = init_knowledge_and_trees(&mut sim, &q);
        let before = sim.metrics().rounds;
        extend_trees(&mut sim, &mut trees);
        let spent = sim.metrics().rounds - before;
        // 23 ids × 5 bits / 16 bw ≈ 8 rounds.
        assert!(spent >= 6, "expected pipelining cost, got {spent} rounds");
    }

    #[test]
    fn init_matches_ground_truth() {
        let g = generators::grid(4, 4);
        let q: Vec<bool> = (0..16).map(|i| i % 4 == 1).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let trees = init_knowledge_and_trees(&mut sim, &q);
        assert_eq!(trees.knowledge(), sets_at(&g, 1, &q));
        assert_eq!(trees.depth(), 1);
        // Every Q-neighbor pair is a tree edge.
        for v in g.nodes() {
            for &x in trees.known(v) {
                if g.has_edge(v, NodeId(x)) {
                    assert_eq!(trees.parent(v, x), Some(NodeId(x)));
                }
            }
        }
    }

    #[test]
    fn tree_extension_builds_bfs_trees() {
        let g = generators::path(6);
        let q: Vec<bool> = (0..6).map(|i| i == 0 || i == 5).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut trees = init_knowledge_and_trees(&mut sim, &q);
        // Extend once: depth-2 trees.
        extend_trees(&mut sim, &mut trees);
        assert_eq!(trees.depth(), 2);
        // Node 2 is in tree 0 at level 2, under 1 and 0.
        assert_eq!(trees.parent(NodeId(2), 0), Some(NodeId(1)));
        assert_eq!(trees.parent(NodeId(1), 0), Some(NodeId(0)));
        // Node 3 is in tree 5 at level 2.
        assert_eq!(trees.parent(NodeId(3), 5), Some(NodeId(4)));
        // Node 2 not yet in tree 5 (distance 3).
        assert_eq!(trees.parent(NodeId(2), 5), None);
    }

    #[test]
    fn tree_levels_are_graph_distances() {
        let g = generators::grid(4, 6);
        let q_nodes: Vec<NodeId> = vec![NodeId(0), NodeId(11), NodeId(23)];
        let q: Vec<bool> = (0..24).map(|i| [0usize, 11, 23].contains(&i)).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut trees = init_knowledge_and_trees(&mut sim, &q);
        for _ in 0..2 {
            extend_trees(&mut sim, &mut trees);
        }
        for &root in &q_nodes {
            let d = bfs::distances(&g, root);
            for v in g.nodes() {
                if v != root && trees.parent(v, root.0).is_none() {
                    continue;
                }
                // A node's level is the length of its ancestor chain.
                let (mut at, mut lvl) = (v, 0u32);
                while at != root {
                    at = trees.parent(at, root.0).expect("chain reaches the root");
                    lvl += 1;
                    assert!(lvl as usize <= trees.depth(), "root {root} node {v}");
                }
                assert_eq!(Some(lvl), d[v.index()], "root {root} node {v}");
            }
        }
    }

    /// The I3 invariants, checked the way a broadcast walks the trees:
    /// every node knows `N^depth(v, Q)`, exactly the members of `Q` root
    /// a tree, and the walk down each tree from its root along
    /// [`QTrees::child_positions`] reaches every node within `depth`
    /// exactly once, at its BFS distance, from the node it names as its
    /// parent, through ascending child runs, and nothing below `depth`.
    fn assert_qtree_invariants(g: &Graph, q: &[bool], trees: &QTrees) {
        let depth = trees.depth();
        for v in g.nodes() {
            let expect = q_ids(g, v, depth, q);
            assert_eq!(trees.known(v), expect, "knowledge of {v} at depth {depth}");
            assert_eq!(trees.is_root(v), q[v.index()], "is_root({v})");
        }
        for x in generators::members(q) {
            let mut reached = vec![None; g.n()];
            reached[x.index()] = Some(0);
            let mut level = vec![x];
            for d in 1..=depth as u32 + 1 {
                let mut next = Vec::new();
                for &w in &level {
                    let kids: Vec<NodeId> = trees
                        .child_positions(w, x.0)
                        .map(|pos| g.neighbors(w)[pos])
                        .collect();
                    assert!(
                        kids.windows(2).all(|p| p[0] < p[1]),
                        "children of {w} in T_{x} not ascending: {kids:?}"
                    );
                    for c in kids {
                        assert!(
                            d as usize <= depth,
                            "{c} hangs below depth {depth} in T_{x}"
                        );
                        assert_eq!(reached[c.index()], None, "{c} reached twice in T_{x}");
                        reached[c.index()] = Some(d);
                        assert_eq!(trees.parent(c, x.0), Some(w), "parent of {c} in T_{x}");
                        next.push(c);
                    }
                }
                level = next;
            }
            let dist = bfs::distances(g, x);
            for v in g.nodes() {
                let within = dist[v.index()].filter(|&d| d as usize <= depth);
                assert_eq!(reached[v.index()], within, "level of {v} in T_{x}");
            }
        }
    }

    /// A grid and a gnp graph, each with a sparse `Q`.
    fn lemma_4_1_cases() -> Vec<(Graph, Vec<bool>)> {
        let cases = [
            (generators::connected_gnp(60, 0.08, 5), 3),
            (generators::grid(7, 8), 5),
        ];
        cases
            .into_iter()
            .map(|(g, every)| {
                let q = (0..g.n()).map(|i| i % every == 1).collect();
                (g, q)
            })
            .collect()
    }

    #[test]
    fn qtree_invariants_hold_at_depths_1_to_3() {
        for (g, q) in &lemma_4_1_cases() {
            for k in 1..=3usize {
                let mut sim = Simulator::new(g, SimConfig::for_graph(g));
                let mut trees = init_knowledge_and_trees(&mut sim, q);
                for _ in 1..k {
                    extend_trees(&mut sim, &mut trees);
                }
                assert_eq!(trees.depth(), k);
                assert_qtree_invariants(g, q, &trees);
            }
        }
    }

    /// Lemma 4.1's traffic, phase by phase, against ground truth: the
    /// init round sends `Σ_{x∈Q} deg(x)` one-ID messages; each
    /// extension's set exchange sends one message per edge out of every
    /// node that knows a `Q`-member, of `|N^s(v, Q)|` IDs; its
    /// confirmations send one ID per newly learned member.
    #[test]
    fn traffic_matches_ground_truth() {
        for (g, q) in &lemma_4_1_cases() {
            let id_bits = g.id_bits() as u64;
            let mut sim = Simulator::with_probe(g, SimConfig::for_graph(g), SpanProbe::new());
            let mut trees = init_knowledge_and_trees(&mut sim, q);
            for _ in 1..3 {
                extend_trees(&mut sim, &mut trees);
            }
            let phases: Vec<(u64, u64)> = sim
                .into_probe()
                .phases
                .iter()
                .map(|p| (p.messages, p.bits))
                .collect();
            let deg = |v: NodeId| g.degree(v) as u64;
            let members: u64 = generators::members(q).into_iter().map(deg).sum();
            let mut expect = vec![(members, members * id_bits)];
            for s in 1..3 {
                let (mut sets, mut ids, mut confirmations) = (0, 0, 0);
                for v in g.nodes() {
                    let known = q_ids(g, v, s, q).len() as u64;
                    sets += deg(v) * u64::from(known > 0);
                    ids += deg(v) * known;
                    confirmations += q_ids(g, v, s + 1, q).len() as u64 - known;
                }
                expect.push((sets, ids * id_bits));
                expect.push((confirmations, confirmations * id_bits));
            }
            assert_eq!(phases, expect);
        }
    }
}
