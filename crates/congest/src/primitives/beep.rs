//! ID-tagged k-hop beeping (Lemma 8.2): each node learns whether some
//! *other* node within `k` hops beeped.
//!
//! "Each `x ∈ S` beeps by sending a tuple `(ID(x), k)` … For `k` steps,
//! each `v ∈ V` forwards to each neighbor an arbitrary subset of at most
//! **two** incoming tuples with distinct identifiers, with the maximum of
//! the distances left." Forwarding two distinct IDs is what lets a beeping
//! node distinguish a neighbor's beep from its own echo on cycles
//! (`k ≥ 3`) — the ablation test below shows the naive 1-tuple variant
//! failing exactly there.

use crate::engine::{RoundEngine, RoundPhase};

/// Lemma 8.2's forwarding rule for one node: of the tuples heard since
/// the last forward, keep the best `fanout ≤ 2` with distinct IDs, each
/// with the maximum hops left heard for its ID, ordered by hops left
/// (descending) then ID (ascending). Updated as the inbox streams, in
/// place: an ID that falls out of the best `fanout` can only come back
/// with a larger hops-left value, which is then its new maximum, so the
/// result equals keeping every ID's maximum, sorting and truncating.
#[derive(Debug, Clone, Copy, Default)]
struct Relay {
    /// `(id, hops left)`, best first; a slot with 0 hops left is empty.
    slots: [(u32, u32); 2],
}

impl Relay {
    /// Whether tuple `a` ranks before tuple `b` (an empty `b` ranks last).
    fn better(a: (u32, u32), b: (u32, u32)) -> bool {
        a.1 > b.1 || (a.1 == b.1 && a.0 < b.0)
    }

    /// Offers a heard tuple; tuples with no hops left are not forwarded.
    fn offer(&mut self, fanout: usize, id: u32, left: u32) {
        if left == 0 {
            return;
        }
        let slots = &mut self.slots[..fanout];
        let at = match slots.iter().position(|&(i, l)| l > 0 && i == id) {
            Some(at) if left <= slots[at].1 => return,
            Some(at) => at,
            None if Self::better((id, left), slots[fanout - 1]) => fanout - 1,
            None => return,
        };
        slots[at] = (id, left);
        if at == 1 && Self::better(slots[1], slots[0]) {
            slots.swap(0, 1);
        }
    }

    /// The tuples to forward, best first; leaves the relay empty.
    fn take(&mut self) -> impl Iterator<Item = (u32, u32)> {
        std::mem::take(&mut self.slots)
            .into_iter()
            .filter(|&(_, left)| left > 0)
    }
}

/// Runs one beep step of `G^k`: every node with `beepers[v]` beeps;
/// returns for each node `v` whether it heard a beep from some **other**
/// node within distance `k` (the beeper itself also listens, as required
/// by the BeepingMIS simulation).
///
/// `fanout` is the number of distinct-ID tuples forwarded per step: the
/// paper uses 2 (correct); 1 reproduces the naive broken variant for the
/// ablation experiment.
///
/// # Panics
///
/// Panics unless `fanout` is 1 or 2 (the paper's rule and the ablation's
/// naive variant), or if `beepers` is not one entry per node.
pub fn khop_beep<E: RoundEngine>(
    sim: &mut E,
    beepers: &[bool],
    k: usize,
    fanout: usize,
) -> Vec<bool> {
    let n = sim.graph().n();
    assert_eq!(beepers.len(), n);
    assert!(fanout == 1 || fanout == 2, "fanout must be 1 or 2");
    let id_bits = sim.graph().id_bits();
    let k_bits = (usize::BITS - k.leading_zeros()) as usize + 1;
    let msg_bits = id_bits + k_bits;

    // Per node: (heard a foreign beep, tuples to forward next step).
    let mut state: Vec<(bool, Relay)> = vec![(false, Relay::default()); n];
    for v in 0..n {
        if beepers[v] {
            state[v].1.offer(fanout, v as u32, k as u32);
        }
    }
    let mut phase = sim.phase::<(u32, u32)>();
    phase.step_n(k, &mut state, |s, v, inbox, out| {
        for &(_, (id, left)) in inbox {
            if id != v.0 {
                s.0 = true;
            }
            s.1.offer(fanout, id, left);
        }
        for (id, left) in s.1.take() {
            out.broadcast(v, (id, left - 1), msg_bits);
        }
    });
    // Deliver the final step's sends.
    phase.settle(8 * msg_bits as u64, &mut state, |s, v, inbox| {
        for &(_, (id, _)) in inbox {
            if id != v.0 {
                s.0 = true;
            }
        }
    });
    state.into_iter().map(|s| s.0).collect()
}

/// Multiple **parallel** beep instances in one communication phase
/// (the post-shattering trick of Theorem 1.2: `O(log_N n)` BeepingMIS
/// executions run in parallel, each with `Θ(log N)`-bit short IDs, so the
/// combined traffic still fits the `O(log n)` bandwidth).
///
/// `beepers[j]` is instance `j`'s beeping set; `short_id[v]` is `v`'s
/// ID in `[N]` (unique within its cluster); `short_id_bits = ⌈log₂ N⌉`.
/// Only nodes with `relay[v]` forward. Returns `heard[j][v]`.
pub fn khop_beep_multi<E: RoundEngine>(
    sim: &mut E,
    beepers: &[Vec<bool>],
    k: usize,
    short_id: &[u32],
    short_id_bits: usize,
    relay: Option<&[bool]>,
) -> Vec<Vec<bool>> {
    let n = sim.graph().n();
    let instances = beepers.len();
    if instances == 0 {
        return Vec::new();
    }
    let k_bits = (usize::BITS - k.leading_zeros()) as usize + 1;
    let inst_bits = (usize::BITS - instances.leading_zeros()) as usize;
    let tuple_bits = short_id_bits + k_bits + inst_bits;

    /// Per-node state: per instance, the heard flag and the relay.
    struct NodeState {
        heard: Vec<bool>,
        pending: Vec<Relay>,
    }
    let mut state: Vec<NodeState> = (0..n)
        .map(|_| NodeState {
            heard: vec![false; instances],
            pending: vec![Relay::default(); instances],
        })
        .collect();
    for (j, b) in beepers.iter().enumerate() {
        assert_eq!(b.len(), n);
        for v in 0..n {
            if b[v] {
                state[v].pending[j].offer(2, short_id[v], k as u32);
            }
        }
    }
    // Message: list of (instance, id, left).
    let mut phase = sim.phase::<Vec<(u16, u32, u32)>>();
    phase.step_n(k, &mut state, |s, v, inbox, out| {
        let i = v.index();
        for (_, tuples) in inbox {
            for &(j, id, left) in tuples {
                let j = j as usize;
                if id != short_id[i] {
                    s.heard[j] = true;
                }
                s.pending[j].offer(2, id, left);
            }
        }
        let forward = relay.is_none_or(|m| m[i]);
        let mut payload: Vec<(u16, u32, u32)> = Vec::new();
        for (j, p) in s.pending.iter_mut().enumerate() {
            for (id, left) in p.take() {
                if forward {
                    payload.push((j as u16, id, left - 1));
                }
            }
        }
        if !payload.is_empty() {
            let bits = payload.len() * tuple_bits;
            out.broadcast(v, payload, bits);
        }
    });
    phase.settle(
        64 * tuple_bits as u64 * instances as u64,
        &mut state,
        |s, v, inbox| {
            let i = v.index();
            for (_, tuples) in inbox {
                for &(j, id, _) in tuples {
                    if id != short_id[i] {
                        s.heard[j as usize] = true;
                    }
                }
            }
        },
    );
    // Transpose per-node state into the per-instance layout.
    let mut heard: Vec<Vec<bool>> = vec![vec![false; n]; instances];
    for (i, s) in state.into_iter().enumerate() {
        for (j, h) in s.heard.into_iter().enumerate() {
            heard[j][i] = h;
        }
    }
    heard
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};
    use powersparse_graphs::{generators, power};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;

    /// The forwarding rule [`Relay`] streams, computed by sorting: keep
    /// every ID's maximum hops left, sort by hops left (descending) then
    /// ID (ascending), truncate to `fanout`.
    fn forward_by_sort(tuples: &[(u32, u32)], fanout: usize) -> Vec<(u32, u32)> {
        let mut best: Vec<(u32, u32)> = tuples.iter().copied().filter(|&(_, l)| l > 0).collect();
        best.sort_by_key(|&(id, l)| (id, Reverse(l)));
        best.dedup_by_key(|&mut (id, _)| id);
        best.sort_by_key(|&(id, l)| (Reverse(l), id));
        best.truncate(fanout);
        best
    }

    #[test]
    fn relay_selection_matches_the_sort() {
        for fanout in [1usize, 2] {
            for seed in 0..500u64 {
                // Few IDs and few hop counts: repeated IDs and ties.
                let mut rng = StdRng::seed_from_u64(seed);
                let len = rng.gen_range(0..14usize);
                let tuples: Vec<(u32, u32)> = (0..len)
                    .map(|_| (rng.gen_range(0..5u32), rng.gen_range(0..4u32)))
                    .collect();
                let mut relay = Relay::default();
                for &(id, left) in &tuples {
                    relay.offer(fanout, id, left);
                }
                assert_eq!(
                    relay.take().collect::<Vec<_>>(),
                    forward_by_sort(&tuples, fanout),
                    "fanout {fanout}, stream {tuples:?}"
                );
                assert_eq!(relay.take().count(), 0, "take empties the relay");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fanout must be 1 or 2")]
    fn fanout_beyond_two_is_rejected() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        khop_beep(&mut sim, &[true, false, false], 2, 3);
    }

    fn ground_truth(g: &powersparse_graphs::Graph, beepers: &[bool], k: usize) -> Vec<bool> {
        g.nodes()
            .map(|v| power::q_degree(g, v, k, beepers) > 0)
            .collect()
    }

    #[test]
    fn beeps_heard_within_k_hops() {
        let g = generators::grid(5, 5);
        let beepers: Vec<bool> = (0..25).map(|i| i == 0 || i == 24).collect();
        for k in 1..=3 {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let heard = khop_beep(&mut sim, &beepers, k, 2);
            assert_eq!(heard, ground_truth(&g, &beepers, k), "k = {k}");
        }
    }

    #[test]
    fn beeper_ignores_own_echo_on_cycle() {
        // A single beeper on a short cycle: its own tuple travels all the
        // way around, but carries its ID, so it must NOT count as heard.
        let g = generators::cycle(5);
        let beepers = vec![true, false, false, false, false];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let heard = khop_beep(&mut sim, &beepers, 4, 2);
        assert!(!heard[0], "lone beeper heard its own echo");
        for i in 1..5 {
            assert!(heard[i]);
        }
    }

    #[test]
    fn two_beepers_hear_each_other_everywhere() {
        let g = generators::connected_gnp(40, 0.08, 13);
        for k in [2usize, 3] {
            let beepers: Vec<bool> = (0..40).map(|i| i % 19 == 0).collect();
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let heard = khop_beep(&mut sim, &beepers, k, 2);
            assert_eq!(heard, ground_truth(&g, &beepers, k), "k = {k}");
        }
    }

    /// The ablation the module docs describe: forwarding only ONE tuple per step
    /// can suppress a real neighbor's beep behind another tuple, so a
    /// beeping node misses its beeping distance-k neighbor. On the path
    /// `0 − 1 − 2` with beepers 0 and 2 and `k = 2`, the relay (node 1)
    /// receives both tuples simultaneously and, with fanout 1, forwards
    /// only the smaller ID — node 0 then hears nothing but its own echo.
    #[test]
    fn fanout_one_is_broken_fanout_two_is_not() {
        let g = generators::path(3);
        let beepers = vec![true, false, true];
        let k = 2;
        let truth = ground_truth(&g, &beepers, k);
        assert!(truth[0] && truth[2]);

        let mut sim2 = Simulator::new(&g, SimConfig::for_graph(&g));
        let heard2 = khop_beep(&mut sim2, &beepers, k, 2);
        assert_eq!(heard2, truth, "fanout 2 must be correct");

        let mut sim1 = Simulator::new(&g, SimConfig::for_graph(&g));
        let heard1 = khop_beep(&mut sim1, &beepers, k, 1);
        assert!(
            !heard1[0],
            "node 0 should have missed node 2's beep under fanout 1"
        );
        assert_ne!(heard1, truth, "the naive variant must fail here");
    }

    /// The post-shattering bandwidth argument of Theorem 1.2: `O(log_N n)`
    /// parallel instances with short IDs fit together, and each instance
    /// behaves exactly like a standalone beep.
    #[test]
    fn multi_instance_matches_single_instance() {
        let g = generators::grid(5, 6);
        let n = g.n();
        let k = 2;
        let short_id: Vec<u32> = (0..n as u32).collect();
        let beepers: Vec<Vec<bool>> = (0..4)
            .map(|j| (0..n).map(|i| (i + j) % 7 == 0).collect())
            .collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let multi = khop_beep_multi(&mut sim, &beepers, k, &short_id, 8, None);
        for (j, b) in beepers.iter().enumerate() {
            assert_eq!(multi[j], ground_truth(&g, b, k), "instance {j}");
        }
    }

    #[test]
    fn multi_instance_empty_and_masked() {
        let g = generators::path(6);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        assert!(khop_beep_multi(&mut sim, &[], 2, &[0; 6], 3, None).is_empty());
        // Masked relays confine instance beeps to G[mask].
        let mask: Vec<bool> = (0..6).map(|i| i != 3).collect();
        let beepers = vec![vec![true, false, false, false, false, true]];
        let short_id: Vec<u32> = (0..6).collect();
        let heard = khop_beep_multi(&mut sim, &beepers, 4, &short_id, 3, Some(&mask));
        // Node 4 is 2 hops from beeper 5 within the mask, but node 0's
        // beep cannot cross the unmasked node 3.
        assert!(heard[0][4]);
        assert!(heard[0][2], "node 2 hears node 0");
        assert!(heard[0][1]); // from node 0
                              // Nothing crossed node 3: node 4 must not have heard node 0 —
                              // both beepers exist though, so check via a single-beeper run.
        let lone = vec![vec![true, false, false, false, false, false]];
        let mut sim2 = Simulator::new(&g, SimConfig::for_graph(&g));
        let heard2 = khop_beep_multi(&mut sim2, &lone, 5, &short_id, 3, Some(&mask));
        assert!(!heard2[0][4], "beep crossed the masked-out relay");
        assert!(heard2[0][2]);
    }

    #[test]
    fn no_beepers_nothing_heard() {
        let g = generators::path(6);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let heard = khop_beep(&mut sim, &[false; 6], 3, 2);
        assert!(heard.iter().all(|&h| !h));
    }

    #[test]
    fn round_cost_is_linear_in_k() {
        let g = generators::cycle(20);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let beepers: Vec<bool> = (0..20).map(|i| i == 0).collect();
        let before = sim.metrics().rounds;
        let _ = khop_beep(&mut sim, &beepers, 5, 2);
        let spent = sim.metrics().rounds - before;
        assert!(spent <= 5 + 3, "beep of k=5 took {spent} rounds");
    }
}
