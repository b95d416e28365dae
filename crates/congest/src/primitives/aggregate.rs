//! Convergecast and broadcast on the global spanning tree (Lemma 4.3).
//!
//! The sum of `m`-bit non-negative integers over all nodes is computed at
//! the root in `O(diam(G) + (m + log n)/bandwidth)` rounds; the engine's
//! fragmentation makes that cost emerge naturally from a single
//! `(m + log n)`-bit message per tree edge.

use crate::engine::{RoundEngine, RoundPhase};
use crate::trees::GlobalTree;

/// Per-node convergecast state.
#[derive(Clone, Copy)]
struct SumState {
    /// Children still owed a partial sum.
    waiting: usize,
    /// Own value plus received partial sums.
    acc: u64,
    /// Partial sum already forwarded to the parent (for the root: the
    /// total is complete).
    sent: bool,
}

/// Computes `Σ_v values[v]` at the root of `tree` by convergecast
/// (Lemma 4.3). `value_bits` is the paper's `m`; partial sums are sent as
/// `(m + log n)`-bit messages so they cannot overflow.
///
/// Returns the sum (as known by the root).
///
/// # Panics
///
/// Panics if the convergecast has not completed within
/// `8 · (depth + value_bits + log n)` rounds (indicates an engine bug).
pub fn converge_sum<E: RoundEngine>(
    sim: &mut E,
    tree: &GlobalTree,
    values: &[u64],
    value_bits: usize,
) -> u64 {
    let n = tree.n();
    assert_eq!(values.len(), n);
    let id_bits = sim.graph().id_bits();
    let msg_bits = value_bits + id_bits;
    let budget = 8 * (tree.depth as u64 + msg_bits as u64 + 2);

    let mut state: Vec<SumState> = (0..n)
        .map(|i| SumState {
            waiting: tree.children[i].len(),
            acc: values[i],
            sent: false,
        })
        .collect();

    let mut phase = sim.phase::<u64>();
    let mut spent = 0u64;
    loop {
        phase.step(&mut state, |s, v, inbox, out| {
            for &(_, partial) in inbox {
                s.acc += partial;
                s.waiting -= 1;
            }
            if s.waiting == 0 && !s.sent {
                s.sent = true;
                if let Some(p) = tree.parent[v.index()] {
                    out.send(v, p, s.acc, msg_bits);
                }
            }
        });
        spent += 1;
        if state[tree.root.index()].sent {
            break;
        }
        assert!(
            spent < budget,
            "convergecast did not finish within {budget} rounds"
        );
    }
    drop(phase);
    state[tree.root.index()].acc
}

/// Broadcasts `value` (of `value_bits` bits) from the root to every node
/// down the tree. Returns once every node has received it.
pub fn broadcast_from_root<E: RoundEngine>(
    sim: &mut E,
    tree: &GlobalTree,
    value: u64,
    value_bits: usize,
) -> Vec<u64> {
    let n = tree.n();
    let budget = 8 * (tree.depth as u64 + value_bits as u64 + 2);
    // Per node: (known value, forwarded to children).
    let mut state: Vec<(Option<u64>, bool)> = vec![(None, false); n];
    state[tree.root.index()].0 = Some(value);
    let mut phase = sim.phase::<u64>();
    let mut spent = 0u64;
    while state.iter().any(|s| s.0.is_none()) {
        phase.step(&mut state, |s, v, inbox, out| {
            if let Some(&(_, m)) = inbox.first() {
                s.0 = Some(m);
            }
            if let Some(m) = s.0 {
                if !s.1 {
                    s.1 = true;
                    for &c in &tree.children[v.index()] {
                        out.send(v, c, m, value_bits);
                    }
                }
            }
        });
        spent += 1;
        assert!(
            spent < budget,
            "broadcast did not finish within {budget} rounds"
        );
    }
    drop(phase);
    state
        .into_iter()
        .map(|s| s.0.expect("all received"))
        .collect()
}

/// Claim 5.6's check of one seed candidate: sums the per-node values at
/// the root (Lemma 4.3), lets the root judge the total with `accept`,
/// and broadcasts the 1-bit verdict to every node. Returns the total and
/// the verdict. Every seed scan of the reproduction checks its
/// candidates with this.
pub fn sum_and_broadcast<E: RoundEngine>(
    sim: &mut E,
    tree: &GlobalTree,
    values: &[u64],
    value_bits: usize,
    accept: impl FnOnce(u64) -> bool,
) -> (u64, bool) {
    let total = converge_sum(sim, tree, values, value_bits);
    let verdict = accept(total);
    broadcast_from_root(sim, tree, u64::from(verdict), 1);
    (total, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::spanning::elect_leader_and_tree;
    use crate::sim::{SimConfig, Simulator};
    use powersparse_graphs::generators;

    fn setup(g: &powersparse_graphs::Graph) -> (Simulator<'_>, GlobalTree) {
        let mut sim = Simulator::new(g, SimConfig::for_graph(g));
        let tree = elect_leader_and_tree(&mut sim);
        (sim, tree)
    }

    #[test]
    fn sum_over_path() {
        let g = generators::path(10);
        let (mut sim, tree) = setup(&g);
        let values: Vec<u64> = (0..10).collect();
        assert_eq!(converge_sum(&mut sim, &tree, &values, 8), 45);
    }

    #[test]
    fn sum_over_random_graph() {
        let g = generators::connected_gnp(60, 0.05, 9);
        let (mut sim, tree) = setup(&g);
        let values: Vec<u64> = (0..60).map(|i| (i * 7) % 13).collect();
        let expect: u64 = values.iter().sum();
        assert_eq!(converge_sum(&mut sim, &tree, &values, 16), expect);
    }

    #[test]
    fn rounds_scale_with_depth_not_n() {
        let g = generators::star(100);
        let (mut sim, tree) = setup(&g);
        let before = sim.metrics().rounds;
        converge_sum(&mut sim, &tree, &vec![1; 101], 8);
        let spent = sim.metrics().rounds - before;
        assert!(spent <= 6, "star convergecast took {spent} rounds");
    }

    #[test]
    fn broadcast_reaches_all() {
        let g = generators::binary_tree(5);
        let (mut sim, tree) = setup(&g);
        let got = broadcast_from_root(&mut sim, &tree, 424242, 20);
        assert!(got.iter().all(|&x| x == 424242));
    }

    #[test]
    fn large_values_cost_extra_rounds() {
        // With bandwidth 8 and 64-bit values, each tree hop takes ~8+ rounds.
        let g = generators::path(4);
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(8));
        let tree = elect_leader_and_tree(&mut sim);
        let before = sim.metrics().rounds;
        let s = converge_sum(&mut sim, &tree, &[1u64 << 40, 0, 0, 0], 60);
        assert_eq!(s, 1u64 << 40);
        let spent = sim.metrics().rounds - before;
        assert!(
            spent >= 3 * (60 / 8) as u64,
            "pipelining cost missing: {spent}"
        );
    }

    #[test]
    fn sum_and_broadcast_decision() {
        let g = generators::cycle(8);
        let (mut sim, tree) = setup(&g);
        let got = sum_and_broadcast(&mut sim, &tree, &[2; 8], 8, |total| total > 10);
        assert_eq!(got, (16, true));
    }
}
