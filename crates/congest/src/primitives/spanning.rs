//! Leader election and global BFS-tree construction.
//!
//! "A spanning BFS tree for Lemma 4.3 can be formed by leader election in
//! `O(diam(G))` time, by starting a BFS token from each node and forwarding
//! the token of the tree whose root has the smallest identifier."
//! (Section 4 of the paper.)

use crate::engine::{RoundEngine, RoundPhase};
use crate::trees::GlobalTree;
use powersparse_graphs::NodeId;

/// Per-node election state.
#[derive(Clone, Copy)]
struct Best {
    root: u32,
    dist: u32,
    parent: Option<NodeId>,
}

/// Per-node state driven through the election rounds.
#[derive(Clone, Copy)]
struct ElectState {
    best: Best,
    /// Best changed since the last forward.
    dirty: bool,
    /// Forwarded a token in the current round (the termination signal,
    /// OR-reduced by scanning the state slice between rounds).
    forwarded: bool,
}

/// Elects the minimum-ID node as leader and builds a spanning BFS tree
/// rooted at it, in `O(diam(G))` measured rounds.
///
/// # Panics
///
/// Panics if the graph is disconnected (no spanning tree exists) or empty.
pub fn elect_leader_and_tree<E: RoundEngine>(sim: &mut E) -> GlobalTree {
    let g = sim.graph();
    let n = g.n();
    assert!(n > 0, "cannot build a tree on the empty graph");
    let id_bits = g.id_bits();
    let msg_bits = 2 * id_bits + 1;

    // Every node starts a BFS token of its own.
    let mut state: Vec<ElectState> = g
        .nodes()
        .map(|v| ElectState {
            best: Best {
                root: v.0,
                dist: 0,
                parent: None,
            },
            dirty: true,
            forwarded: false,
        })
        .collect();

    let mut phase = sim.phase::<(u32, u32)>();
    loop {
        phase.step(&mut state, |s, v, inbox, out| {
            s.forwarded = false;
            // Relax on incoming tokens.
            for &(from, (root, dist)) in inbox {
                let b = s.best;
                if root < b.root || (root == b.root && dist + 1 < b.dist) {
                    s.best = Best {
                        root,
                        dist: dist + 1,
                        parent: Some(from),
                    };
                    s.dirty = true;
                }
            }
            // Forward own best if it changed.
            if s.dirty {
                s.dirty = false;
                s.forwarded = true;
                out.broadcast(v, (s.best.root, s.best.dist), msg_bits);
            }
        });
        if !state.iter().any(|s| s.forwarded) && phase.idle() {
            break;
        }
    }
    drop(phase);

    let states: Vec<Best> = state.into_iter().map(|s| s.best).collect();

    // One round: every non-root announces itself to its parent so parents
    // learn their children (1-bit message; sender identity is implicit).
    let mut phase = sim.phase::<()>();
    phase.step_stateless(|v, _in, out| {
        if let Some(p) = states[v.index()].parent {
            out.send(v, p, (), 1);
        }
    });
    let mut unit = vec![(); n];
    phase.settle(4, &mut unit, |_, _, _| {});
    drop(phase);

    let root = NodeId(states.iter().map(|b| b.root).min().expect("nonempty"));
    for s in &states {
        assert_eq!(
            s.root, root.0,
            "graph disconnected: multiple roots survived"
        );
    }
    GlobalTree::from_parents(
        root,
        states.iter().map(|s| s.parent).collect(),
        states.iter().map(|s| s.dist).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};
    use powersparse_graphs::{bfs, generators};

    #[test]
    fn elects_min_id_and_bfs_levels() {
        let g = generators::grid(4, 4);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let t = elect_leader_and_tree(&mut sim);
        assert_eq!(t.root, NodeId(0));
        let d = bfs::distances(&g, NodeId(0));
        for v in g.nodes() {
            assert_eq!(Some(t.level[v.index()]), d[v.index()]);
        }
        // O(diam) rounds: diam(grid 4x4) = 6; allow small constant factor.
        assert!(
            sim.metrics().rounds <= 4 * 6 + 8,
            "rounds {}",
            sim.metrics().rounds
        );
    }

    #[test]
    fn single_node_tree() {
        let g = powersparse_graphs::Graph::from_edges(1, &[]);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let t = elect_leader_and_tree(&mut sim);
        assert_eq!(t.root, NodeId(0));
        assert_eq!(t.depth, 0);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_panics() {
        let g = powersparse_graphs::Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let _ = elect_leader_and_tree(&mut sim);
    }

    #[test]
    fn children_consistent_with_parents() {
        let g = generators::connected_gnp(40, 0.08, 5);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let t = elect_leader_and_tree(&mut sim);
        let mut count = 0;
        for v in g.nodes() {
            for &c in &t.children[v.index()] {
                assert_eq!(t.parent[c.index()], Some(v));
                count += 1;
            }
        }
        assert_eq!(count, g.n() - 1); // spanning tree edges
    }
}
