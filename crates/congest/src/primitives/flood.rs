//! k-hop floods: anonymous flag propagation (deactivation flags, Section
//! 5.1: "sending a flag from each sampled node, propagated for two hops,
//! where multiple incoming flags can be forwarded as one"), the
//! `min`-merging value flood (Theorem 6.1's knock-out beeps and Luby's
//! rank comparison, Section 8.1) and accept-first ball growing (Lemma 8.3
//! border construction).

use crate::engine::{Delivery, Message, RoundEngine, RoundPhase};

/// Per-node state of a flag flood.
#[derive(Clone, Copy)]
struct FloodState {
    /// Within `hops` of a source (so far).
    reached: bool,
    /// Reached in the previous step; must forward this step.
    fresh: bool,
}

/// Floods a 1-bit flag from every source for `hops` hops. Multiple
/// incoming flags merge into one, so each node broadcasts at most once and
/// a step costs one round. Returns the mask of nodes within distance
/// `hops` of a source (sources included).
pub fn flood_flags<E: RoundEngine>(sim: &mut E, sources: &[bool], hops: usize) -> Vec<bool> {
    let n = sim.graph().n();
    assert_eq!(sources.len(), n);
    let mut state: Vec<FloodState> = sources
        .iter()
        .map(|&s| FloodState {
            reached: s,
            fresh: s,
        })
        .collect();
    let mut phase = sim.phase::<()>();
    phase.step_n(hops, &mut state, |s, v, inbox, out| {
        if !inbox.is_empty() && !s.reached {
            s.reached = true;
            s.fresh = true;
        }
        if s.fresh {
            s.fresh = false;
            out.broadcast(v, (), 1);
        }
    });
    // Deliver the last step's sends.
    phase.settle(4, &mut state, |s, _v, inbox| {
        if !inbox.is_empty() {
            s.reached = true;
        }
    });
    state.into_iter().map(|s| s.reached).collect()
}

/// Per-node state of the min flood.
#[derive(Clone, Copy)]
struct MinState<M> {
    /// Smallest value heard from another starter so far.
    best: Option<M>,
    /// Last value broadcast (re-sent only on improvement).
    sent: Option<M>,
}

/// `min`-merging value flood: the knock-out beep of Theorem 6.1 (values
/// are starter IDs) and Luby's rank comparison (values are
/// `(rank, ID)` pairs). `start(i)` is node `i`'s own value, `None` if
/// `i` starts nothing; values of distinct starters must differ. Every
/// node learns the smallest value of *another* starter within `hops`,
/// in `G`, or with `relay = Some(mask)` along paths whose inner nodes are
/// starters or in the mask (starters outside the mask still emit). A
/// node re-broadcasts the smallest value it knows, its own included,
/// whenever that improves, so each edge carries one `msg_bits`-bit value
/// per round. Merging may hide a larger value behind a smaller one, but a
/// starter hears a smaller value exactly when it is not the strict
/// minimum among the starters within reach. Costs `hops` rounds (+ drain).
pub fn khop_min<E: RoundEngine, M: Message + Copy + Ord>(
    sim: &mut E,
    hops: usize,
    start: impl Fn(usize) -> Option<M> + Sync,
    msg_bits: usize,
    relay: Option<&[bool]>,
) -> Vec<Option<M>> {
    let n = sim.graph().n();
    if let Some(mask) = relay {
        assert_eq!(mask.len(), n);
    }
    let hear = |s: &mut MinState<M>, own: Option<M>, inbox: &[Delivery<M>]| {
        for &(_, m) in inbox {
            if Some(m) != own && s.best.is_none_or(|b| m < b) {
                s.best = Some(m);
            }
        }
    };
    let mut state = vec![
        MinState {
            best: None,
            sent: None
        };
        n
    ];
    let mut phase = sim.phase::<M>();
    phase.step_n(hops, &mut state, |s, v, inbox, out| {
        let i = v.index();
        let own = start(i);
        hear(s, own, inbox);
        if own.is_none() && relay.is_some_and(|m| !m[i]) {
            return;
        }
        if let Some(carry) = own.into_iter().chain(s.best).min() {
            if s.sent.is_none_or(|prev| carry < prev) {
                s.sent = Some(carry);
                out.broadcast(v, carry, msg_bits);
            }
        }
    });
    phase.settle(8 * msg_bits as u64, &mut state, |s, v, inbox| {
        hear(s, start(v.index()), inbox);
    });
    state.into_iter().map(|s| s.best).collect()
}

/// Accept-first ball growing (the BFS of Lemma 8.3): every node with
/// `origin[v] = Some(ball)` starts a search carrying `ball` for `hops`
/// hops. A node with no origin that is not `blocked` **accepts** the
/// smallest ball ID among the searches arriving first and forwards that
/// search onward with the remaining hop budget. Blocked nodes neither
/// accept nor forward. Origin nodes forward nothing besides their own
/// initial search (they are already members).
///
/// Returns the final assignment (origins keep theirs; accepting nodes get
/// their accepted ball; blocked/unreached nodes stay `None`).
pub fn grow_balls<E: RoundEngine>(
    sim: &mut E,
    origin: &[Option<u32>],
    hops: usize,
    blocked: &[bool],
) -> Vec<Option<u32>> {
    let n = sim.graph().n();
    assert_eq!(origin.len(), n);
    assert_eq!(blocked.len(), n);
    let id_bits = sim.graph().id_bits();
    let hop_bits = usize::BITS as usize - hops.leading_zeros() as usize + 1;
    let msg_bits = id_bits + hop_bits;

    // Per node: (assignment, pending forward (ball, hops_left)).
    let mut state: Vec<(Option<u32>, Option<(u32, u32)>)> = origin
        .iter()
        .map(|o| (*o, o.map(|b| (b, hops as u32))))
        .collect();
    let mut phase = sim.phase::<(u32, u32)>();
    phase.step_n(hops + 1, &mut state, |s, v, inbox, out| {
        // Accept the best arriving search if not yet assigned.
        if s.0.is_none() && !blocked[v.index()] {
            let best = inbox
                .iter()
                .map(|&(_, (ball, left))| (ball, left))
                .min_by_key(|&(ball, left)| (ball, std::cmp::Reverse(left)));
            if let Some((ball, left)) = best {
                s.0 = Some(ball);
                if left > 0 {
                    s.1 = Some((ball, left));
                }
            }
        }
        if let Some((ball, left)) = s.1.take() {
            out.broadcast(v, (ball, left - 1), msg_bits);
        }
    });
    drop(phase);
    state.into_iter().map(|s| s.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};
    use powersparse_graphs::{bfs, generators, NodeId};

    #[test]
    fn flood_reaches_exact_radius() {
        let g = generators::path(9);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut src = vec![false; 9];
        src[4] = true;
        let reached = flood_flags(&mut sim, &src, 2);
        let expect: Vec<bool> = (0..9).map(|i: i32| (i - 4).abs() <= 2).collect();
        assert_eq!(reached, expect);
    }

    #[test]
    fn flood_merges_flags_in_one_round_per_hop() {
        // Many sources: still `hops + O(1)` rounds because flags merge.
        let g = generators::grid(6, 6);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let sources: Vec<bool> = (0..36).map(|i| i % 5 == 0).collect();
        let before = sim.metrics().rounds;
        let _ = flood_flags(&mut sim, &sources, 3);
        let spent = sim.metrics().rounds - before;
        assert!(spent <= 3 + 2, "flood of 3 hops took {spent} rounds");
    }

    #[test]
    fn flood_matches_multi_source_bfs() {
        let g = generators::connected_gnp(50, 0.06, 4);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let sources: Vec<bool> = (0..50).map(|i| i % 11 == 0).collect();
        let reached = flood_flags(&mut sim, &sources, 2);
        let src: Vec<NodeId> = generators::members(&sources);
        let d = bfs::multi_source_distances(&g, &src);
        for v in g.nodes() {
            let expect = matches!(d[v.index()], Some(x) if x <= 2);
            assert_eq!(reached[v.index()], expect, "node {v}");
        }
    }

    #[test]
    fn min_source_coverage_and_min_exactness() {
        // Min-merging floods may suppress larger IDs behind smaller ones,
        // so the contract is: (a) a non-source with any source within
        // `hops` hears *some* source; (b) whoever is within `hops` of the
        // global-minimum source hears exactly it (its flood is never
        // suppressed); (c) nodes with no source within `hops` hear None.
        let g = generators::grid(5, 5);
        let sources: Vec<bool> = (0..25).map(|i| i == 7 || i == 18).collect();
        let d7 = bfs::distances(&g, NodeId(7));
        let d18 = bfs::distances(&g, NodeId(18));
        for hops in 1..=3 {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let ids = |i: usize| sources[i].then_some(i as u32);
            let got = khop_min(&mut sim, hops, ids, g.id_bits(), None);
            for v in g.nodes() {
                let i = v.index();
                let near7 = i != 7 && matches!(d7[i], Some(x) if x as usize <= hops);
                let near18 = i != 18 && matches!(d18[i], Some(x) if x as usize <= hops);
                if near7 {
                    assert_eq!(got[i], Some(7), "node {v}, hops {hops}");
                } else if near18 && !sources[i] {
                    assert!(got[i].is_some(), "node {v} uncovered at hops {hops}");
                } else if !near18 {
                    assert_eq!(got[i], None, "node {v}, hops {hops}");
                }
            }
        }
    }

    #[test]
    fn min_source_respects_relay_mask() {
        // Path 0-1-2-3-4 with node 2 outside the mask: node 0's ID cannot
        // reach nodes 3 and 4 even with a large hop budget.
        let g = generators::path(5);
        let mask: Vec<bool> = (0..5).map(|i| i != 2).collect();
        let sources = [true, false, false, false, false];
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let ids = |i: usize| sources[i].then_some(i as u32);
        let got = khop_min(&mut sim, 4, ids, g.id_bits(), Some(&mask));
        assert_eq!(got[1], Some(0));
        assert_eq!(got[2], Some(0), "the masked-out node still hears");
        assert_eq!(got[3], None, "ID crossed the masked-out relay");
        assert_eq!(got[4], None);
    }

    /// Starters reachable from `v` in at most `hops` hops along paths
    /// whose inner nodes relay: a starter, or in `relay` when given.
    fn starters_within(
        g: &powersparse_graphs::Graph,
        v: usize,
        hops: usize,
        starter: &[bool],
        relay: Option<&[bool]>,
    ) -> Vec<usize> {
        let mut dist = vec![usize::MAX; g.n()];
        dist[v] = 0;
        let mut frontier = vec![v];
        let mut found = Vec::new();
        for d in 1..=hops {
            let mut next = Vec::new();
            for &u in &frontier {
                if u != v && !starter[u] && relay.is_some_and(|m| !m[u]) {
                    continue;
                }
                for &w in g.neighbors(NodeId::from(u)) {
                    if dist[w.index()] == usize::MAX {
                        dist[w.index()] = d;
                        next.push(w.index());
                        if starter[w.index()] {
                            found.push(w.index());
                        }
                    }
                }
            }
            frontier = next;
        }
        found
    }

    /// Luby's join rule over `khop_min` with `(rank, id)` payloads,
    /// against a BFS oracle: a starter hears a smaller value exactly when
    /// some other starter within `hops` has a smaller one, with and
    /// without a relay mask; a node with no starter in reach hears
    /// nothing.
    #[test]
    fn min_flood_matches_lubys_join_rule() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..4u64 {
            let g = generators::connected_gnp(60, 0.06, seed);
            let n = g.n();
            let mut rng = StdRng::seed_from_u64(seed);
            let starter: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
            let rank: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 20)).collect();
            let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
            let value = |i: usize| (rank[i], i as u32);
            for relay in [None, Some(mask.as_slice())] {
                for hops in 1..=4 {
                    let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
                    let start = |i: usize| starter[i].then(|| value(i));
                    let got = khop_min(&mut sim, hops, start, 20 + g.id_bits(), relay);
                    for v in 0..n {
                        let near = starters_within(&g, v, hops, &starter, relay);
                        let what = format!("seed {seed}, node {v}, hops {hops}, {relay:?}");
                        if near.is_empty() {
                            assert_eq!(got[v], None, "{what}");
                        } else if starter[v] {
                            let beaten = near.iter().any(|&w| value(w) < value(v));
                            let heard_smaller = got[v].is_some_and(|b| b < value(v));
                            assert_eq!(heard_smaller, beaten, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn balls_partition_by_distance_then_id() {
        let g = generators::path(7);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut origin = vec![None; 7];
        origin[0] = Some(0);
        origin[6] = Some(6);
        let blocked = vec![false; 7];
        let got = grow_balls(&mut sim, &origin, 3, &blocked);
        // Node 3 is at distance 3 from both; both searches arrive the same
        // round; min ball ID (0) wins.
        assert_eq!(
            got,
            vec![
                Some(0),
                Some(0),
                Some(0),
                Some(0),
                Some(6),
                Some(6),
                Some(6)
            ]
        );
    }

    #[test]
    fn blocked_nodes_stop_searches() {
        let g = generators::path(5);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut origin = vec![None; 5];
        origin[0] = Some(0);
        let mut blocked = vec![false; 5];
        blocked[2] = true;
        let got = grow_balls(&mut sim, &origin, 4, &blocked);
        // The search dies at blocked node 2: nodes 3, 4 stay unassigned.
        assert_eq!(got, vec![Some(0), Some(0), None, None, None]);
    }

    #[test]
    fn hop_budget_limits_growth() {
        let g = generators::path(6);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut origin = vec![None; 6];
        origin[0] = Some(0);
        let got = grow_balls(&mut sim, &origin, 2, &[false; 6]);
        assert_eq!(got, vec![Some(0), Some(0), Some(0), None, None, None]);
    }
}
