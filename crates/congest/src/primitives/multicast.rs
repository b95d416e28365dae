//! The *Broadcast* operation of Lemma 4.2: sending messages from the
//! members of a sparse set `Q` through their distributed depth-`s` BFS
//! trees.
//!
//! Shared edges carry the traffic of up to `2Δ̂` trees (proved in
//! Lemma 4.2); the engine's per-edge bandwidth makes the resulting
//! pipelining delay *measured* rather than assumed. Messages are tagged
//! with the root ID for demultiplexing; the tag's bits are **not**
//! charged, because the GGR21 piece-ordering scheme used in the paper
//! demultiplexes positionally (receivers know `ancestor(T, v)` for every
//! tree through them) — see Lemma 4.2's proof.

use crate::engine::{Message, RoundEngine, RoundPhase};
use crate::trees::QTrees;
use powersparse_graphs::NodeId;

/// **Broadcast** (Lemma 4.2): every root `x ∈ Q` that has a message
/// sends it to all nodes of its tree `T_x` (its distance-`s`
/// neighborhood), every message `bits` bits long.
///
/// Both closures run inside the nodes' steps, over the caller's per-node
/// `state` (one entry per node), so a parallel engine runs them in
/// parallel:
///
/// * `origin(state, v)` runs once per node, in the first round's step,
///   and returns the message `v` sends down its own tree, if any;
/// * `receive(state, v, root, &msg)` is handed every delivery, in
///   arrival order, in the step where it arrives (a root does not
///   receive its own message).
///
/// Every node forwards what it received straight from its inbox, in
/// arrival order, to its children in ascending node ID, each addressed
/// by its CSR position ([`QTrees::child_positions`]). The broadcast ends
/// in the first round that sends nothing and leaves nothing in flight.
///
/// Measured cost: `O(s + m·Δ̂ / bandwidth)` rounds.
///
/// # Panics
///
/// Panics if `origin` returns a message at a node that roots no tree,
/// if `bits` is 0 and some message is sent, or if `state` does not hold
/// one entry per node.
pub fn q_broadcast<E, S, M>(
    sim: &mut E,
    trees: &QTrees,
    bits: usize,
    state: &mut [S],
    origin: impl Fn(&mut S, NodeId) -> Option<M> + Sync,
    receive: impl Fn(&mut S, NodeId, u32, &M) + Sync,
) where
    E: RoundEngine,
    S: Send,
    M: Message,
{
    let mut phase = sim.phase::<(u32, M)>();
    phase.step(state, |s, v, _inbox, out| {
        if let Some(m) = origin(s, v) {
            assert!(trees.is_root(v), "message root {v} is not a tree root");
            for pos in trees.child_positions(v, v.0) {
                out.send_at(v, pos, (v.0, m.clone()), bits);
            }
        }
    });
    let budget = 1_000_000u64;
    let mut spent = 1u64;
    while !phase.idle() {
        phase.step(state, |s, v, inbox, out| {
            for (_, (root, m)) in inbox {
                receive(s, v, *root, m);
                for pos in trees.child_positions(v, *root) {
                    out.send_at(v, pos, (*root, m.clone()), bits);
                }
            }
        });
        spent += 1;
        assert!(spent < budget, "q_broadcast exceeded round budget");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::idexchange::{extend_trees, init_knowledge_and_trees};
    use crate::sim::{SimConfig, Simulator};
    use powersparse_graphs::{generators, power, Graph};

    /// Builds depth-`s` trees + knowledge with the Lemma 4.1 machinery.
    fn build(sim: &mut Simulator<'_>, q: &[bool], s: usize) -> QTrees {
        let mut trees = init_knowledge_and_trees(sim, q);
        for _ in 1..s {
            extend_trees(sim, &mut trees);
        }
        trees
    }

    /// A broadcast in which every node `v` with `origin(v)` sends it as
    /// a `bits`-bit message; returns each node's deliveries in arrival
    /// order.
    fn broadcast<M: Message>(
        sim: &mut Simulator<'_>,
        trees: &QTrees,
        bits: usize,
        origin: impl Fn(NodeId) -> Option<M> + Sync,
    ) -> Vec<Vec<(u32, M)>> {
        let mut got = vec![Vec::new(); sim.graph().n()];
        q_broadcast(
            sim,
            trees,
            bits,
            &mut got,
            |_, v| origin(v),
            |mine, _, root, m| mine.push((root, m.clone())),
        );
        got
    }

    #[test]
    fn broadcast_covers_distance_s_neighborhood() {
        let g = generators::grid(5, 6);
        let q: Vec<bool> = (0..30).map(|i| i % 9 == 0).collect();
        let s = 3;
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let trees = build(&mut sim, &q, s);
        let got = broadcast(&mut sim, &trees, 16, |v| {
            q[v.index()].then_some(1000 + u64::from(v.0))
        });
        for v in g.nodes() {
            let mut expect: Vec<u32> = power::q_neighborhood(&g, v, s, &q)
                .into_iter()
                .map(|w| w.0)
                .collect();
            expect.sort_unstable();
            let mut have: Vec<u32> = got[v.index()].iter().map(|(r, _)| *r).collect();
            have.sort_unstable();
            have.dedup();
            assert_eq!(have, expect, "node {v}");
            for (r, m) in &got[v.index()] {
                assert_eq!(*m, 1000 + *r as u64);
            }
        }
    }

    #[test]
    fn figure1_broadcast_load_is_linear_in_hatd() {
        // Figure 1: with s = 3, broadcasts from Q put exactly Δ̂ messages
        // across the bottleneck edge {v, w} (one per tree containing it).
        for hatd in [2usize, 4, 8, 16, 32] {
            let (g, q, v, w) = generators::figure1(hatd, 3);
            let config = SimConfig::for_graph(&g).with_per_edge_accounting();
            let mut sim = Simulator::new(&g, config);
            let trees = build(&mut sim, &q, 3);
            let before = sim.messages_across(v, w) + sim.messages_across(w, v);
            let _ = broadcast(&mut sim, &trees, 8, |x| {
                q[x.index()].then_some(u64::from(x.0))
            });
            let after = sim.messages_across(v, w) + sim.messages_across(w, v);
            let crossing = after - before;
            assert_eq!(
                crossing, hatd as u64,
                "hatd {hatd}: {crossing} messages crossed the bottleneck"
            );
        }
    }

    #[test]
    fn empty_messages_cost_nothing() {
        let g = generators::path(5);
        let q: Vec<bool> = vec![true, false, false, false, true];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let trees = build(&mut sim, &q, 2);
        let before = sim.metrics().clone();
        let got = broadcast::<u64>(&mut sim, &trees, 8, |_| None);
        assert!(got.iter().all(Vec::is_empty));
        // Only the final emptiness-check round; no messages.
        assert_eq!(sim.metrics().messages, before.messages);
        assert_eq!(sim.metrics().rounds, before.rounds + 1);
    }

    #[test]
    fn broadcast_through_non_q_relays() {
        // Q = endpoints of a path; s large enough to cross the middle.
        let g: Graph = generators::path(5);
        let q = vec![true, false, false, false, true];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let trees = build(&mut sim, &q, 4);
        let got = broadcast(&mut sim, &trees, 8, |v| (v == NodeId(0)).then_some(7u64));
        // Node 4 (∈ Q) and middle nodes all hear root 0.
        for i in 1..5 {
            assert_eq!(got[i], vec![(0u32, 7u64)], "node {i}");
        }
    }

    #[test]
    #[should_panic(expected = "message root v1 is not a tree root")]
    fn origin_at_a_non_root_panics() {
        let g: Graph = generators::path(5);
        let q = vec![true, false, false, false, true];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let trees = build(&mut sim, &q, 2);
        let _ = broadcast(&mut sim, &trees, 8, |v| (v == NodeId(1)).then_some(7u64));
    }
}
