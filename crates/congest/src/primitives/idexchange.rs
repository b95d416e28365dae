//! Pipelined ID-set exchange (Lemma 4.1): learning the distance-`(s+1)`
//! `Q`-neighborhood from the distance-`s` one, and extending the BFS trees
//! rooted at `Q` by one level.
//!
//! ID sets are sorted `u32` lists without duplicates, one per node. The
//! knowledge and the trees of invariant I3 live in one [`QTrees`], whose
//! per-node share is the state of the node programs below: every node
//! does its own part of the lemma inside its own node steps and inbox
//! reads, so a parallel engine runs it on its workers, and the caller
//! makes no pass over the nodes. Each function's docs say which work
//! runs in which step or read.

use crate::engine::{Delivery, RoundEngine, RoundPhase};
use crate::trees::QTrees;
use powersparse_graphs::NodeId;
use std::sync::Arc;

/// The settle budget of a phase that sends at most `ids` IDs down an
/// edge (in one ID set, or one confirmation per new ID): every edge
/// carries at least one bit per round.
fn budget(ids: usize, id_bits: usize) -> u64 {
    8 * (ids as u64 + 2) * id_bits as u64
}

/// Each node sends its ID set to every neighbor (pipelined by the engine:
/// a set of `t` IDs is one `t·id_bits`-bit message). Returns, per node
/// `v`, one list per CSR neighbor position: entry `i` is the set
/// `g.neighbors(v)[i]` sent (empty if that set was empty).
///
/// This is the communication core of Lemma 4.1; with
/// `|set| ≤ Δ̂` the measured cost is `O(Δ̂ · id_bits / bandwidth)` rounds.
pub fn exchange_with_neighbors<E: RoundEngine>(
    sim: &mut E,
    sets: &[Vec<u32>],
) -> Vec<Vec<Vec<u32>>> {
    let g = sim.network();
    assert_eq!(sets.len(), g.n());
    debug_assert!(
        sets.iter().all(|s| s.windows(2).all(|p| p[0] < p[1])),
        "ID sets must be sorted and free of duplicates"
    );
    let id_bits = g.id_bits();
    let mut heard: Vec<Vec<Delivery<Arc<[u32]>>>> = vec![Vec::new(); sets.len()];
    let mut phase = sim.phase::<Arc<[u32]>>();
    phase.step_stateless(|v, _in, out| {
        let s = &sets[v.index()];
        if !s.is_empty() {
            out.broadcast(v, Arc::from(&s[..]), s.len() * id_bits);
        }
    });
    let max_set = sets.iter().map(Vec::len).max().unwrap_or(0);
    phase.settle(budget(max_set, id_bits), &mut heard, |mine, _v, inbox| {
        mine.extend_from_slice(inbox);
    });
    drop(phase);
    heard
        .into_iter()
        .enumerate()
        .map(|(i, mut heard)| {
            // Sets of different sizes finish crossing in different rounds.
            heard.sort_unstable_by_key(|&(w, _)| w);
            let mut heard = heard.into_iter().peekable();
            g.neighbors(NodeId::from(i))
                .iter()
                .map(|&w| {
                    heard
                        .next_if(|&(u, _)| u == w)
                        .map_or_else(Vec::new, |(_, ids)| ids.to_vec())
                })
                .collect()
        })
        .collect()
}

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
    let (level, nodes) = trees.open_level();
    let mut phase = sim.phase::<u32>();
    phase.step(nodes, |node, v, _in, out| {
        if q[v.index()] {
            node.plant(v);
            node.adopt((0..g.degree(v) as u32).map(|pos| (v.0, pos)));
            out.broadcast(v, v.0, id_bits);
        }
    });
    phase.settle(8 * id_bits as u64, nodes, |node, v, inbox| {
        let neighbors = g.neighbors(v);
        for (pos, &x) in by_position(neighbors, inbox) {
            node.hear(x, pos);
        }
        node.join(neighbors, level);
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
/// * the confirmation phase's first step merges the new IDs into the
///   node's knowledge and links, and sends each confirmation with
///   [`crate::engine::Outbox::send_at`];
/// * its reads record each confirming child by its CSR position.
pub fn extend_trees<E: RoundEngine>(sim: &mut E, trees: &mut QTrees) {
    let g = sim.network();
    let id_bits = g.id_bits();
    // No node knows n IDs, so none sends n down an edge.
    let budget = budget(g.n(), id_bits);
    let (level, nodes) = trees.open_level();

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
        for (x, pos) in node.join(out.neighbors(v), level) {
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
    fn neighbor_lists_follow_csr_positions() {
        let g = generators::path(4);
        let sets = vec![vec![7], vec![], vec![1, 5], vec![2]];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let got = exchange_with_neighbors(&mut sim, &sets);
        // Node 1's neighbors are 0 and 2; node 2's are 1 and 3.
        assert_eq!(got[1], vec![vec![7], vec![1, 5]]);
        assert_eq!(got[2], vec![vec![], vec![2]]);
        assert_eq!(got[3], vec![vec![1, 5]]);
    }

    #[test]
    fn init_matches_ground_truth() {
        let g = generators::grid(4, 4);
        let q: Vec<bool> = (0..16).map(|i| i % 4 == 1).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let trees = init_knowledge_and_trees(&mut sim, &q);
        assert_eq!(trees.knowledge(), sets_at(&g, 1, &q));
        assert_eq!(trees.depth(), 1);
        // Every Q-neighbor pair is a tree link.
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
        // Node 2 is in tree 0 at level 2 with parent 1.
        assert_eq!(trees.parent(NodeId(2), 0), Some(NodeId(1)));
        assert_eq!(trees.level(NodeId(2), 0), Some(2));
        // Node 3 is in tree 5 at level 2.
        assert_eq!(trees.parent(NodeId(3), 5), Some(NodeId(4)));
        // Node 2 not yet in tree 5 (distance 3).
        assert_eq!(trees.level(NodeId(2), 5), None);
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
                if let Some(lvl) = trees.level(v, root.0) {
                    assert_eq!(Some(lvl), d[v.index()], "root {root} node {v}");
                }
            }
        }
    }

    /// The I3 invariants: every node knows `N^depth(v, Q)`, parent and
    /// child links agree, levels are BFS distances, every node belongs to
    /// exactly the trees of its distance-`depth` `Q`-neighbors (plus its
    /// own if it is in `Q`), and every child list ascends by node ID.
    fn assert_qtree_invariants(g: &Graph, q: &[bool], trees: &QTrees) {
        let depth = trees.depth();
        let roots = generators::members(q);
        let dist: Vec<Vec<Option<u32>>> = roots.iter().map(|&x| bfs::distances(g, x)).collect();
        for v in g.nodes() {
            let mut expect = q_ids(g, v, depth, q);
            assert_eq!(trees.known(v), expect, "knowledge of {v} at depth {depth}");
            if q[v.index()] {
                expect.push(v.0);
                expect.sort_unstable();
            }
            assert_eq!(trees.trees_of(v), expect, "trees of {v} at depth {depth}");
            for (x, d) in roots.iter().zip(&dist) {
                if let Some(lvl) = trees.level(v, x.0) {
                    assert_eq!(Some(lvl), d[v.index()], "level of {v} in T_{x}");
                }
                if let Some(w) = trees.parent(v, x.0) {
                    assert!(
                        trees
                            .child_positions(w, x.0)
                            .any(|pos| g.neighbors(w)[pos] == v),
                        "{v} has parent {w} in T_{x} but is not its child"
                    );
                }
                let kids: Vec<NodeId> = trees
                    .child_positions(v, x.0)
                    .map(|pos| g.neighbors(v)[pos])
                    .collect();
                assert!(
                    kids.windows(2).all(|p| p[0] < p[1]),
                    "children of {v} in T_{x} not ascending: {kids:?}"
                );
                for c in kids {
                    assert_eq!(trees.parent(c, x.0), Some(v), "child {c} of {v} in T_{x}");
                }
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
