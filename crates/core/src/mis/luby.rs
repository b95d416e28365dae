//! Luby's MIS algorithm on power graphs (Section 8.1 of the paper).
//!
//! Each step: undecided nodes draw a random rank from `[n^3]`; a node
//! whose rank is a strict minimum among the undecided nodes of its
//! distance-`k` neighborhood joins the MIS; joiners alert their
//! distance-`k` neighborhood, which becomes decided. Rank comparison and
//! the alert are `k`-hop floods (the min-merging [`khop_min`] and the
//! flag-merging [`flood_flags`]), so one step costs `O(k)` rounds — the
//! paper's `k`-factor slowdown. Importantly, the algorithm never needs a
//! node's degree in `G^k` (unknowable in CONGEST), which is why this
//! variant extends to power graphs.

use powersparse_congest::engine::RoundEngine;
use powersparse_congest::primitives::{flood_flags, khop_min};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Computes an MIS of `G^k` with Luby's algorithm. Returns the
/// membership mask.
///
/// # Panics
///
/// Panics if the algorithm has not terminated after `64·(log₂ n + 1)`
/// steps (probability `n^{-Ω(1)}`; would indicate a bug).
pub fn luby_mis<E: RoundEngine>(sim: &mut E, k: usize, seed: u64) -> Vec<bool> {
    let n = sim.graph().n();
    luby_mis_on(sim, k, seed, &vec![true; n])
}

/// Luby's algorithm restricted to a candidate set: computes an MIS of
/// `G^k[candidates]` (only candidates may join; everyone relays —
/// Corollary 8.5's observer pattern). Returns the membership mask.
///
/// # Panics
///
/// As for [`luby_mis`].
pub fn luby_mis_on<E: RoundEngine>(
    sim: &mut E,
    k: usize,
    seed: u64,
    candidates: &[bool],
) -> Vec<bool> {
    let g = sim.graph();
    let n = g.n();
    assert_eq!(candidates.len(), n);
    let id_bits = g.id_bits();
    let rank_bits = 3 * id_bits; // ranks from [n³], as in [MRSZ11]
    let mut rng = StdRng::seed_from_u64(seed);

    let mut in_mis = vec![false; n];
    let mut undecided = candidates.to_vec();
    let max_steps = 64 * (id_bits + 1);
    for _ in 0..max_steps {
        if !undecided.iter().any(|&u| u) {
            return in_mis;
        }
        // Draw ranks; (rank, id) is globally unique.
        let ranks: Vec<u64> = (0..n)
            .map(|_| rng.gen_range(0..1u64 << rank_bits.min(40)))
            .collect();
        // k-hop min-flood of (rank, id) over undecided originators.
        let own = |i: usize| undecided[i].then_some((ranks[i], i as u32));
        let best = khop_min(sim, k, own, rank_bits + id_bits, None);
        // Strict minimum joins.
        let mut joined = vec![false; n];
        for i in 0..n {
            if undecided[i] {
                let own = (ranks[i], i as u32);
                if best[i].is_none_or(|b| own < b) {
                    joined[i] = true;
                    in_mis[i] = true;
                }
            }
        }
        // Joiners alert N^k: all reached undecided nodes become decided.
        let reached = flood_flags(sim, &joined, k);
        for i in 0..n {
            if reached[i] {
                undecided[i] = false;
            }
        }
    }
    assert!(
        !undecided.iter().any(|&u| u),
        "Luby did not terminate within {max_steps} steps"
    );
    in_mis
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_congest::sim::{SimConfig, Simulator};
    use powersparse_graphs::{check, generators};

    #[test]
    fn luby_on_g_is_mis() {
        let g = generators::connected_gnp(80, 0.08, 3);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mis = luby_mis(&mut sim, 1, 42);
        assert!(check::is_mis(&g, &generators::members(&mis)));
    }

    #[test]
    fn luby_on_g2_and_g3() {
        let g = generators::grid(7, 8);
        for k in [2usize, 3] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let mis = luby_mis(&mut sim, k, 7);
            assert!(
                check::is_mis_of_power(&g, &generators::members(&mis), k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn luby_deterministic_given_seed() {
        let g = generators::connected_gnp(50, 0.1, 5);
        let run = |seed| {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            luby_mis(&mut sim, 2, seed)
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn luby_rounds_scale_with_k() {
        let g = generators::cycle(60);
        let mut rounds = Vec::new();
        for k in [1usize, 2, 4] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let mis = luby_mis(&mut sim, k, 11);
            assert!(check::is_mis_of_power(&g, &generators::members(&mis), k));
            rounds.push(sim.metrics().rounds);
        }
        assert!(
            rounds[2] > rounds[0],
            "k=4 should cost more rounds than k=1"
        );
    }

    #[test]
    fn luby_on_complete_graph_picks_one() {
        let g = generators::complete(20);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mis = luby_mis(&mut sim, 1, 9);
        assert_eq!(mis.iter().filter(|&&b| b).count(), 1);
    }
}
