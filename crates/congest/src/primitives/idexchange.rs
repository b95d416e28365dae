//! Pipelined ID-set exchange (Lemma 4.1): learning the distance-`(s+1)`
//! `Q`-neighborhood from the distance-`s` one, and extending the BFS trees
//! rooted at `Q` by one level.
//!
//! ID sets are sorted `Vec<u32>`s without duplicates, one per node.

use crate::engine::{Delivery, RoundEngine, RoundPhase};
use crate::trees::QTrees;
use powersparse_graphs::{generators, NodeId};

/// Sends every node's nonempty ID set to all its neighbors (one
/// `|set|·id_bits`-bit message per edge, pipelined by the engine) and
/// hands every delivery batch to `receive`.
fn send_sets<E: RoundEngine, S: Send>(
    sim: &mut E,
    sets: &[Vec<u32>],
    state: &mut [S],
    receive: impl Fn(&mut S, NodeId, &[Delivery<Vec<u32>>]) + Sync,
) {
    assert_eq!(sets.len(), sim.graph().n());
    debug_assert!(
        sets.iter().all(|s| s.windows(2).all(|p| p[0] < p[1])),
        "ID sets must be sorted and free of duplicates"
    );
    let id_bits = sim.graph().id_bits();
    let mut phase = sim.phase::<Vec<u32>>();
    phase.step_stateless(|v, _in, out| {
        let s = &sets[v.index()];
        if !s.is_empty() {
            out.broadcast(v, s.clone(), s.len() * id_bits);
        }
    });
    let max_set = sets.iter().map(Vec::len).max().unwrap_or(0) as u64;
    phase.settle(8 * (max_set + 2) * id_bits as u64, state, receive);
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
    let mut heard: Vec<Vec<Delivery<Vec<u32>>>> = vec![Vec::new(); sets.len()];
    send_sets(sim, sets, &mut heard, |mine, _v, inbox| {
        mine.extend_from_slice(inbox);
    });
    let g = sim.graph();
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
                        .map_or_else(Vec::new, |(_, ids)| ids)
                })
                .collect()
        })
        .collect()
}

/// Bootstraps per-node knowledge of `N^1(v, Q)` and the depth-1 BFS trees
/// rooted at the members of `Q`, in one communication round: every member
/// broadcasts its own ID; every receiver records the sender as a tree
/// ancestor, and every member records all its neighbors as descendants.
/// This establishes invariant **I3** for `s = 0 → 1` and is the starting
/// point for iterated [`extend_trees`] calls.
pub fn init_knowledge_and_trees<E: RoundEngine>(
    sim: &mut E,
    q: &[bool],
) -> (Vec<Vec<u32>>, QTrees) {
    let n = sim.graph().n();
    assert_eq!(q.len(), n);
    let id_bits = sim.graph().id_bits();
    // Per node: the (root, sender) pairs heard; the sender is the root.
    let mut heard: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); n];
    let mut phase = sim.phase::<u32>();
    phase.step_stateless(|v, _in, out| {
        if q[v.index()] {
            out.broadcast(v, v.0, id_bits);
        }
    });
    phase.settle(8 * id_bits as u64, &mut heard, |mine, _v, inbox| {
        mine.extend(inbox.iter().map(|&(from, x)| (x, from)));
    });
    drop(phase);
    for pairs in &mut heard {
        pairs.sort_unstable();
    }
    let sets = heard
        .iter()
        .map(|pairs| pairs.iter().map(|&(x, _)| x).collect())
        .collect();
    let g = sim.graph();
    let roots = generators::members(q);
    let mut children: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); n];
    for &x in &roots {
        children[x.index()] = g.neighbors(x).iter().map(|&c| (x.0, c)).collect();
    }
    let mut trees = QTrees::new_roots(n, &roots);
    trees.grow(g, &heard, children);
    (sets, trees)
}

/// Lemma 4.1, second claim: from per-node knowledge of `N^s(v, Q)` (the
/// `sets`), every node learns `N^{s+1}(v, Q) = ∪_{w ∈ N(v)} N^s(w, Q)`
/// (with `v` itself removed; neighborhoods are non-inclusive), and each
/// depth-`s` BFS tree `T_x` (for `x ∈ Q`) grows to depth `s+1`. For every
/// newly learned ID `x ∈ N^{s+1}(v,Q) \ N^s(v,Q)`, `v` picks one neighbor
/// `w_x` that sent `ID(x)` (the smallest, for determinism), sets
/// `ancestor(T_x, v) = w_x` and sends a confirmation carrying `ID(x)`
/// (in ascending order of `x`) so `w_x` records `v` as a descendant.
///
/// Returns the new sets `N^{s+1}(v, Q)`.
pub fn extend_trees<E: RoundEngine>(
    sim: &mut E,
    sets: &[Vec<u32>],
    trees: &mut QTrees,
) -> Vec<Vec<u32>> {
    let n = sets.len();
    let id_bits = sim.graph().id_bits();
    // Per node: every (new ID, neighbor that sent it) pair.
    let mut chosen: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); n];
    send_sets(sim, sets, &mut chosen, |pairs, v, inbox| {
        let known = &sets[v.index()];
        for (from, ids) in inbox {
            let new = ids
                .iter()
                .filter(|&&x| x != v.0 && known.binary_search(&x).is_err());
            pairs.extend(new.map(|&x| (x, *from)));
        }
    });
    // Sorted, each new ID's smallest sender comes first: that neighbor
    // becomes its ancestor `w_x`.
    let mut out_sets: Vec<Vec<u32>> = Vec::with_capacity(n);
    for (known, pairs) in sets.iter().zip(&mut chosen) {
        pairs.sort_unstable();
        pairs.dedup_by_key(|&mut (x, _)| x);
        let mut set = Vec::with_capacity(known.len() + pairs.len());
        set.extend_from_slice(known);
        set.extend(pairs.iter().map(|&(x, _)| x));
        set.sort_unstable();
        out_sets.push(set);
    }

    // Confirmation round(s): v → w_x carrying ID(x). Costs id_bits per
    // confirmation, pipelined by the engine.
    let mut phase = sim.phase::<u32>();
    phase.step_stateless(|v, _in, out| {
        for &(x, w) in &chosen[v.index()] {
            out.send(v, w, x, id_bits);
        }
    });
    let max_new = chosen.iter().map(Vec::len).max().unwrap_or(0) as u64;
    let mut confirmations: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); n];
    phase.settle(
        8 * (max_new + 2) * id_bits as u64,
        &mut confirmations,
        |mine, _w, inbox| {
            mine.extend(inbox.iter().map(|&(from, x)| (x, from)));
        },
    );
    drop(phase);
    // v joins T_x under w_x; w_x learned its descendant v from v's
    // confirmation.
    trees.grow(sim.graph(), &chosen, confirmations);
    out_sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};
    use powersparse_graphs::{bfs, power, Graph};

    /// Ground truth: `N^s(v, Q)` as a sorted ID list.
    fn q_ids(g: &Graph, v: NodeId, s: usize, q: &[bool]) -> Vec<u32> {
        let mut ids: Vec<u32> = power::q_neighborhood(g, v, s, q)
            .into_iter()
            .map(|w| w.0)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Ground-truth initial knowledge: each v knows N^1(v, Q).
    fn initial_sets(g: &Graph, q: &[bool]) -> Vec<Vec<u32>> {
        g.nodes().map(|v| q_ids(g, v, 1, q)).collect()
    }

    #[test]
    fn exchange_computes_next_neighborhood() {
        let g = generators::grid(5, 5);
        let q: Vec<bool> = (0..25).map(|i| i % 3 == 0).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let (s1, mut trees) = init_knowledge_and_trees(&mut sim, &q);
        let s2 = extend_trees(&mut sim, &s1, &mut trees);
        for v in g.nodes() {
            assert_eq!(s2[v.index()], q_ids(&g, v, 2, &q), "node {v}");
        }
    }

    #[test]
    fn iterated_exchange_reaches_distance_s() {
        let g = generators::connected_gnp(40, 0.07, 2);
        let q: Vec<bool> = (0..40).map(|i| i % 7 == 0).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let (mut sets, mut trees) = init_knowledge_and_trees(&mut sim, &q);
        for s in 2..=3usize {
            sets = extend_trees(&mut sim, &sets, &mut trees);
            for v in g.nodes() {
                assert_eq!(sets[v.index()], q_ids(&g, v, s, &q), "node {v} at s={s}");
            }
        }
    }

    #[test]
    fn pipelining_cost_scales_with_set_size() {
        // Dense Q on a clique-ish graph: sets are large, so the exchange
        // must take ~|set|·id_bits/bandwidth rounds.
        let g = generators::complete(24);
        let q = vec![true; 24];
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(16));
        let (sets, mut trees) = init_knowledge_and_trees(&mut sim, &q);
        let before = sim.metrics().rounds;
        let _ = extend_trees(&mut sim, &sets, &mut trees);
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
        let (sets, trees) = init_knowledge_and_trees(&mut sim, &q);
        assert_eq!(sets, initial_sets(&g, &q));
        assert_eq!(trees.depth(), 1);
        // Every Q-neighbor pair is a tree link.
        for v in g.nodes() {
            for &x in &sets[v.index()] {
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
        let (sets, mut trees) = init_knowledge_and_trees(&mut sim, &q);
        // Extend once: depth-2 trees.
        extend_trees(&mut sim, &sets, &mut trees);
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
        let (mut sets, mut trees) = init_knowledge_and_trees(&mut sim, &q);
        for _ in 0..2 {
            sets = extend_trees(&mut sim, &sets, &mut trees);
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

    /// The I3 tree invariants: parent and child links agree, levels are
    /// BFS distances, every node belongs to exactly the trees of its
    /// distance-`depth` `Q`-neighbors (plus its own if it is in `Q`), and
    /// every child list ascends by node ID.
    fn assert_qtree_invariants(g: &Graph, q: &[bool], trees: &QTrees) {
        let depth = trees.depth();
        let roots = generators::members(q);
        let dist: Vec<Vec<Option<u32>>> = roots.iter().map(|&x| bfs::distances(g, x)).collect();
        for v in g.nodes() {
            let mut expect = q_ids(g, v, depth, q);
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

    #[test]
    fn qtree_invariants_hold_at_depths_1_to_3() {
        let cases = [
            (generators::connected_gnp(60, 0.08, 5), 3),
            (generators::grid(7, 8), 5),
        ];
        for (g, every) in &cases {
            let q: Vec<bool> = (0..g.n()).map(|i| i % every == 1).collect();
            for k in 1..=3usize {
                let mut sim = Simulator::new(g, SimConfig::for_graph(g));
                let (mut sets, mut trees) = init_knowledge_and_trees(&mut sim, &q);
                for _ in 1..k {
                    sets = extend_trees(&mut sim, &sets, &mut trees);
                }
                assert_eq!(trees.depth(), k);
                assert_qtree_invariants(g, &q, &trees);
            }
        }
    }
}
