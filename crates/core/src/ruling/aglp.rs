//! The deterministic coloring-digit ruling set algorithm
//! ([AGLP89, SEW13, HKN21, KMW18] — Theorem 6.1 of the paper) and its
//! ball-tracking variant (Claim 7.6).
//!
//! Given a distance-`dist` coloring with `γ` colors, the candidate set is
//! thinned digit by digit (base `B`): in step `s` of digit `i`, the
//! candidates whose digit equals `s` beep to their distance-`dist`
//! neighborhood and candidates with a larger digit drop out. After all
//! `⌈log_B γ⌉` digits, surviving candidates within distance `dist` would
//! agree on every digit — impossible under a proper coloring — so the
//! survivors are `(dist+1)`-independent, and each drop-out keeps a ruler
//! within `dist` per digit (domination `dist·⌈log_B γ⌉`).
//!
//! The beeps carry the beeper's ID (a `min`-merging flood), so each
//! drop-out learns one *knocker*; following knocker chains assigns every
//! candidate to the ball of a surviving ruler — the partition Claim 7.6
//! needs for the shattering framework.

use powersparse_congest::engine::RoundEngine;
use powersparse_congest::primitives::khop_min;

/// Output of [`aglp_ruling_set`]/[`ruling_set_with_balls`].
#[derive(Debug, Clone)]
pub struct RulingBalls {
    /// Membership mask of the ruling set.
    pub ruling_set: Vec<bool>,
    /// For every candidate: the ID of the ruler whose ball it joined
    /// (rulers map to themselves). `None` for non-candidates.
    pub ball_of: Vec<Option<u32>>,
    /// Domination guarantee `dist · #digits` actually incurred.
    pub domination_bound: usize,
}

/// Theorem 6.1: computes a `(dist+1, dist·⌈log_B γ⌉)`-ruling set of the
/// candidate set, given a proper distance-`dist` coloring of the
/// candidates (w.r.t. the metric used — see `relay`).
///
/// * `relay = None`: distances in `G` (the standard setting).
/// * `relay = Some(mask)`: beeps only travel through masked nodes, so all
///   distances are in `G[mask]` (the per-component setting of
///   Section 7.2.1).
///
/// Measured cost: `O(dist · B · ⌈log_B γ⌉)` rounds.
///
/// # Panics
///
/// Panics if `base < 2` or the coloring is missing.
pub fn aglp_ruling_set<E: RoundEngine>(
    sim: &mut E,
    dist: usize,
    candidates: &[bool],
    colors: &[u64],
    base: u64,
    relay: Option<&[bool]>,
) -> RulingBalls {
    let n = sim.graph().n();
    assert!(base >= 2, "digit base must be at least 2");
    assert_eq!(candidates.len(), n);
    assert_eq!(colors.len(), n);
    let gamma = colors.iter().copied().max().unwrap_or(0) + 1;
    let digits = {
        let mut m = 0u32;
        let mut acc = 1u64;
        while acc < gamma {
            acc = acc.saturating_mul(base);
            m += 1;
        }
        m.max(1)
    };

    let id_bits = sim.graph().id_bits();
    let mut in_set: Vec<bool> = candidates.to_vec();
    let mut knocked_by: Vec<Option<u32>> = vec![None; n];

    for digit in (0..digits).rev() {
        let place = base.pow(digit);
        for s in 0..base {
            let beepers: Vec<bool> = (0..n)
                .map(|i| in_set[i] && colors[i] / place % base == s)
                .collect();
            if !beepers.iter().any(|&b| b) {
                continue;
            }
            let ids = |i: usize| beepers[i].then_some(i as u32);
            let heard = khop_min(sim, dist, ids, id_bits, relay);
            for i in 0..n {
                if in_set[i] && colors[i] / place % base > s {
                    if let Some(knocker) = heard[i] {
                        in_set[i] = false;
                        knocked_by[i] = Some(knocker);
                    }
                }
            }
        }
    }

    // Resolve knocker chains to surviving rulers (local pointer
    // information; the chase is pure bookkeeping over already-delivered
    // IDs).
    let ball_of: Vec<Option<u32>> = (0..n)
        .map(|i| {
            if !candidates[i] {
                return None;
            }
            let mut cur = i as u32;
            let mut guard = 0;
            while !in_set[cur as usize] {
                cur = knocked_by[cur as usize].expect("drop-out has a knocker");
                guard += 1;
                assert!(guard <= n, "knocker chain cycle");
            }
            Some(cur)
        })
        .collect();

    RulingBalls {
        ruling_set: in_set,
        ball_of,
        domination_bound: dist * digits as usize,
    }
}

/// Corollary 6.2: a `(k+1, ck)`-ruling set in `O(k·c·n^{1/c})` rounds,
/// using the unique IDs as the coloring and base `B = ⌈n^{1/c}⌉`.
pub fn id_ruling_set<E: RoundEngine>(sim: &mut E, k: usize, c: u32) -> RulingBalls {
    let n = sim.graph().n();
    let colors: Vec<u64> = (0..n as u64).collect();
    let base = (n as f64).powf(1.0 / c as f64).ceil().max(2.0) as u64;
    aglp_ruling_set(sim, k, &vec![true; n], &colors, base, None)
}

/// Claim 7.6-style ruling set with balls for the shattering framework:
/// `(dist+1)`-independent rulers among the candidates with every
/// candidate assigned to a ruler via knocker chains. Uses IDs as colors
/// and base 2 (domination `dist·⌈log₂ n⌉`; the paper's
/// `O(k² log log n)` domination comes from the \[Gha19\] internals, a
/// documented substitution — the shape downstream only needs *some*
/// polylogarithmic bound plus the ball partition).
pub fn ruling_set_with_balls<E: RoundEngine>(
    sim: &mut E,
    dist: usize,
    candidates: &[bool],
    relay: Option<&[bool]>,
) -> RulingBalls {
    let n = sim.graph().n();
    let colors: Vec<u64> = (0..n as u64).collect();
    aglp_ruling_set(sim, dist, candidates, &colors, 2, relay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_congest::sim::{SimConfig, Simulator};
    use powersparse_graphs::{check, coloring, generators, NodeId};

    #[test]
    fn theorem_6_1_with_greedy_coloring() {
        let g = generators::grid(7, 7);
        let k = 2;
        let colors = coloring::greedy_distance_k(&g, k);
        let gamma = coloring::palette_size(&colors) as u64;
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = aglp_ruling_set(&mut sim, k, &[true; 49], &colors, 2, None);
        let members = generators::members(&out.ruling_set);
        let digits = (gamma as f64).log2().ceil() as usize;
        assert!(check::is_ruling_set(&g, &members, k + 1, k * digits.max(1)));
    }

    #[test]
    fn corollary_6_2_domination_ck() {
        let g = generators::connected_gnp(60, 0.08, 19);
        for (k, c) in [(1usize, 2u32), (2, 2), (2, 3)] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let out = id_ruling_set(&mut sim, k, c);
            let members = generators::members(&out.ruling_set);
            assert!(
                check::is_ruling_set(&g, &members, k + 1, c as usize * k),
                "k={k} c={c}: domination {} violated",
                c as usize * k
            );
        }
    }

    #[test]
    fn base_affects_rounds_and_domination() {
        // Larger base: fewer digits (less domination), more rounds.
        let g = generators::cycle(64);
        let colors: Vec<u64> = (0..64u64).collect();
        let mut r2 = 0;
        let mut r8 = 0;
        for (base, out_rounds) in [(2u64, &mut r2), (8, &mut r8)] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let out = aglp_ruling_set(&mut sim, 1, &[true; 64], &colors, base, None);
            assert!(check::is_ruling_set(
                &g,
                &generators::members(&out.ruling_set),
                2,
                out.domination_bound
            ));
            *out_rounds = sim.metrics().rounds;
        }
        assert!(r8 > r2 / 3, "base-8 rounds {r8} vs base-2 {r2}");
    }

    #[test]
    fn balls_partition_candidates() {
        let g = generators::connected_gnp(70, 0.07, 2);
        let candidates: Vec<bool> = (0..70).map(|i| i % 3 != 0).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = ruling_set_with_balls(&mut sim, 2, &candidates, None);
        for i in 0..70 {
            if candidates[i] {
                let b = out.ball_of[i].expect("candidate must be assigned");
                assert!(out.ruling_set[b as usize], "ball root must be a ruler");
            } else {
                assert_eq!(out.ball_of[i], None);
                assert!(!out.ruling_set[i]);
            }
        }
        // Rulers map to themselves.
        for i in 0..70 {
            if out.ruling_set[i] {
                assert_eq!(out.ball_of[i], Some(i as u32));
            }
        }
        // Independence at distance 3.
        assert!(check::is_alpha_independent(
            &g,
            &generators::members(&out.ruling_set),
            3
        ));
    }

    #[test]
    fn masked_distances_allow_close_rulers_across_components() {
        // Path 0..6 with node 3 outside the mask: nodes 2 and 4 are 2
        // apart in G but in different components of G[mask]; with
        // dist = 2 and masked relays both may survive.
        let g = generators::path(7);
        let mask: Vec<bool> = (0..7).map(|i| i != 3).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = ruling_set_with_balls(&mut sim, 2, &mask, Some(&mask));
        // Every component of G[mask] must contain at least one ruler.
        assert!(out.ruling_set[..3].iter().any(|&b| b));
        assert!(out.ruling_set[4..].iter().any(|&b| b));
        // Within each component, rulers are 3-independent in G[mask];
        // the two components are {0,1,2} and {4,5,6}.
        let left: Vec<NodeId> = (0..3)
            .filter(|&i| out.ruling_set[i])
            .map(NodeId::from)
            .collect();
        assert!(left.len() == 1 || check::is_alpha_independent(&g, &left, 3));
    }

    #[test]
    fn domination_bound_reported() {
        let g = generators::cycle(32);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = id_ruling_set(&mut sim, 1, 2);
        // base = ceil(sqrt 32) = 6; digits = 2; bound = 1·2 = 2·1.
        assert_eq!(out.domination_bound, 2);
    }
}
