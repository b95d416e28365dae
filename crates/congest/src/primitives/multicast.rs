//! The *Broadcast* and *Q-message* operations of Lemma 4.2: sending
//! messages from the members of a sparse set `Q` through their distributed
//! depth-`s` BFS trees.
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
use std::collections::BTreeMap;

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

/// **Q-message** (Lemma 4.2): each root `x ∈ Q` sends an individual
/// `m`-bit message to each `y ∈ N^s(x, Q)`.
///
/// Inputs follow the lemma's knowledge assumptions:
/// * `trees`: depth-`s` BFS trees rooted at `Q`;
/// * `neighbor_sets[v][i]`: for the `i`-th neighbor `w` of `v` in CSR
///   order, the sorted set `N^{s-1}(w, Q)` (as obtained from
///   [`crate::primitives::exchange_with_neighbors`]);
/// * `msgs[x]`: the list of `(target ID, message)` pairs from root `x`.
///
/// Step 1 distributes `S_{x,w} = {(msg_{x,y}, ID(y)) : y ∈ N^{s-1}(w,Q)}`
/// to each neighbor `w` of `x`; step 2 broadcasts `S_{x,w}` down the
/// subtree `T_{x,w}`. Each `y` extracts its own messages by ID. Duplicate
/// deliveries (a tuple can travel via several neighbors) are deduplicated.
///
/// Returns, per node `y`, the `(root, message)` pairs addressed to `y`.
///
/// Measured cost: `O(s + (m + a)·Δ̂² / bandwidth)` rounds.
pub fn q_message<E: RoundEngine, M: Message>(
    sim: &mut E,
    trees: &QTrees,
    neighbor_sets: &[Vec<Vec<u32>>],
    msgs: &BTreeMap<u32, Vec<(u32, M)>>,
    m_bits: usize,
) -> Vec<Vec<(u32, M)>> {
    let n = sim.graph().n();
    let id_bits = sim.graph().id_bits();
    let tuple_bits = m_bits + id_bits;

    // Payload travelling the trees: (root, Vec<(target, M)>).
    type Packet<M> = (u32, Vec<(u32, M)>);
    /// Per-node state.
    struct NodeState<M> {
        /// root -> message (dedup by root; one message per root per
        /// target in this primitive, as in the lemma).
        delivered: BTreeMap<u32, M>,
        /// Packets to push to children of the given tree.
        pending: Vec<(Packet<M>, usize)>,
        sent: bool,
    }
    let mut state: Vec<NodeState<M>> = (0..n)
        .map(|_| NodeState {
            delivered: BTreeMap::new(),
            pending: Vec::new(),
            sent: false,
        })
        .collect();

    // Step 1: roots package per-neighbor tuple sets.
    let mut phase = sim.phase::<Packet<M>>();
    phase.step_stateless(|v, _in, out| {
        let Some(targets) = msgs.get(&v.0) else {
            return;
        };
        let by_id: BTreeMap<u32, &M> = targets.iter().map(|(y, m)| (*y, m)).collect();
        for i in 0..out.neighbors(v).len() {
            let w = out.neighbors(v)[i];
            // `N^{s-1}(w, Q)` is non-inclusive; a neighbor w ∈ Q that is
            // itself a target must still get its tuple, so the package
            // for w is keyed on `N^{s-1}(w, Q) ∪ {w}`.
            let mut tuples: Vec<(u32, M)> = neighbor_sets[v.index()][i]
                .iter()
                .filter_map(|y| by_id.get(y).map(|m| (*y, (*m).clone())))
                .collect();
            if let Some(m) = by_id.get(&w.0) {
                tuples.push((w.0, (*m).clone()));
            }
            if tuples.is_empty() {
                continue;
            }
            let bits = tuples.len() * tuple_bits;
            out.send(v, w, (v.0, tuples), bits);
        }
    });

    // Step 2: receivers extract their own tuples and forward the set down
    // the subtree of the originating tree.
    let budget = 1_000_000u64;
    let mut spent = 0u64;
    loop {
        phase.step(&mut state, |s, v, inbox, out| {
            s.sent = false;
            for (_, (root, tuples)) in inbox {
                for (y, m) in tuples {
                    if *y == v.0 {
                        s.delivered.entry(*root).or_insert_with(|| m.clone());
                    }
                }
                let bits = tuples.len() * tuple_bits;
                s.pending.push(((*root, tuples.clone()), bits));
            }
            for ((root, tuples), bits) in s.pending.drain(..) {
                for pos in trees.child_positions(v, root) {
                    s.sent = true;
                    out.send_at(v, pos, (root, tuples.clone()), bits);
                }
            }
        });
        spent += 1;
        assert!(spent < budget, "q_message exceeded round budget");
        if !state.iter().any(|s| s.sent) && phase.idle() {
            break;
        }
    }
    state
        .into_iter()
        .map(|s| s.delivered.into_iter().collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::idexchange::{
        exchange_with_neighbors, extend_trees, init_knowledge_and_trees,
    };
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
    fn qmessage_delivers_to_q_targets() {
        let g = generators::grid(4, 7);
        let q: Vec<bool> = (0..28).map(|i| i % 5 == 0).collect();
        let s = 3;
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        // Knowledge: N^{s-1}(v, Q) for every v, then neighbor's sets.
        let mut trees = build(&mut sim, &q, s - 1);
        let sets = trees.knowledge();
        // Trees must have depth s.
        extend_trees(&mut sim, &mut trees);
        let neighbor_sets = exchange_with_neighbors(&mut sim, &sets);
        // Every root x sends "x*1000 + y" to each y in N^s(x, Q).
        let mut msgs: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
        for x in g.nodes().filter(|x| q[x.index()]) {
            let targets: Vec<(u32, u64)> = power::q_neighborhood(&g, x, s, &q)
                .into_iter()
                .map(|y| (y.0, x.0 as u64 * 1000 + y.0 as u64))
                .collect();
            msgs.insert(x.0, targets);
        }
        let got = q_message(&mut sim, &trees, &neighbor_sets, &msgs, 24);
        for y in g.nodes() {
            let mut expect: Vec<u32> = power::q_neighborhood(&g, y, s, &q)
                .into_iter()
                .filter(|x| q[x.index()])
                .map(|x| x.0)
                .collect();
            // Only Q-members receive q_messages.
            if !q[y.index()] {
                expect.clear();
            }
            expect.sort_unstable();
            let have: Vec<u32> = got[y.index()].iter().map(|(r, _)| *r).collect();
            assert_eq!(have, expect, "node {y}");
            for (x, m) in &got[y.index()] {
                assert_eq!(*m, *x as u64 * 1000 + y.0 as u64);
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
    fn figure1_qmessage_load_is_quadratic_in_hatd() {
        // Figure 1's second claim: Q-message puts Θ(Δ̂²/4) tuples across
        // the bottleneck. We measure bits and check the growth is
        // quadratic: quadrupling each time Δ̂ doubles (±30%).
        let mut loads = Vec::new();
        for hatd in [4usize, 8, 16, 32] {
            let (g, q, v, w) = generators::figure1(hatd, 3);
            let config = SimConfig::for_graph(&g).with_per_edge_accounting();
            let mut sim = Simulator::new(&g, config);
            let trees = build(&mut sim, &q, 3);
            // Knowledge of N^{s-1}: rebuild depth-2 sets, share them.
            let mut sim2 = Simulator::new(&g, SimConfig::for_graph(&g));
            let s1 = build(&mut sim2, &q, 2).knowledge();
            let neighbor_sets = exchange_with_neighbors(&mut sim, &s1);
            let mut msgs: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
            for x in g.nodes().filter(|x| q[x.index()]) {
                let targets: Vec<(u32, u64)> = power::q_neighborhood(&g, x, 3, &q)
                    .into_iter()
                    .map(|y| (y.0, 1))
                    .collect();
                msgs.insert(x.0, targets);
            }
            let before = sim.bits_across(v, w) + sim.bits_across(w, v);
            let got = q_message(&mut sim, &trees, &neighbor_sets, &msgs, 8);
            let after = sim.bits_across(v, w) + sim.bits_across(w, v);
            loads.push((after - before) as f64);
            // Deliveries are complete while we're here.
            for y in g.nodes().filter(|y| q[y.index()]) {
                let expect = power::q_degree(&g, y, 3, &q);
                assert_eq!(got[y.index()].len(), expect, "node {y}");
            }
        }
        for pair in loads.windows(2) {
            let ratio = pair[1] / pair[0];
            assert!(
                (2.8..=5.2).contains(&ratio),
                "growth {ratio} not quadratic: {loads:?}"
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
