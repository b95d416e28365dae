//! KP12 degree-reduction sampling ([KP12], algorithm `Sparsify-GG` of
//! [BKP14]) on power graphs, and the `(k+1, kβ)`-ruling set it yields
//! when iterated (**Corollary 1.3** of the paper, Section 8.3).

use powersparse_congest::engine::RoundEngine;
use powersparse_congest::primitives::flood_flags;
use powersparse_graphs::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One KP12 sparsification pass on `G^k[active]`: returns `Q ⊆ active`
/// such that `Q` `k`-dominates `active` in `G` and (w.h.p.)
/// `Δ(G^k[Q]) = O(f·log n)`.
///
/// Sampling probabilities grow geometrically (`f^j / Δ_k`); sampled nodes
/// beep `k` hops (an anonymous flood — beepers need not listen, which is
/// why this works without knowing degrees in `G^k`); actives hearing a
/// beep become dominated and stop sampling.
///
/// Measured cost: `O(k · log_f Δ_k)` rounds.
pub fn kp12_sparsify<E: RoundEngine>(
    sim: &mut E,
    k: usize,
    active0: &[bool],
    f: f64,
    delta_k: usize,
    seed: u64,
) -> Vec<bool> {
    let n = sim.graph().n();
    assert_eq!(active0.len(), n);
    assert!(f > 1.0, "degree-reduction parameter must exceed 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active: Vec<bool> = active0.to_vec();
    let mut q: Vec<bool> = vec![false; n];

    let steps = ((delta_k.max(2) as f64).ln() / f.ln()).ceil() as usize + 1;
    for j in 1..=steps {
        let p = (f.powi(j as i32) / delta_k.max(1) as f64).min(1.0);
        let sampled: Vec<bool> = (0..n).map(|i| active[i] && rng.gen_bool(p)).collect();
        if sampled.iter().any(|&s| s) {
            let reached = flood_flags(sim, &sampled, k);
            for i in 0..n {
                if sampled[i] {
                    q[i] = true;
                    active[i] = false;
                } else if reached[i] {
                    active[i] = false;
                }
            }
        }
    }
    // Whoever is still active joins Q (they heard no beep: no dominator).
    for i in 0..n {
        if active[i] {
            q[i] = true;
        }
    }
    q
}

/// **Corollary 1.3**: a `(k+1, kβ)`-ruling set of `G`, via `β − 1` KP12
/// iterations with `f_s = 2^{(log Δ_k)^{1 − s/(β−1)}}` followed by an MIS
/// of `G^k[Q_{β−1}]` (we use Luby restricted to `Q_{β−1}`; the paper uses
/// Theorem 1.2 — the guarantees are identical, only the polylog factors
/// differ; see the [substitutions](crate::params#substitutions)).
///
/// # Panics
///
/// Panics if `beta < 2`.
pub fn beta_ruling_set<E: RoundEngine>(
    sim: &mut E,
    k: usize,
    beta: usize,
    seed: u64,
) -> Vec<NodeId> {
    assert!(beta >= 2, "beta-ruling sets need beta >= 2");
    let n = sim.graph().n();
    // Upper bound on Δ(G^k): min(n−1, Δ·(Δ−1)^{k−1}).
    let delta = sim.graph().max_degree().max(2);
    let mut delta_k: usize = delta;
    for _ in 1..k {
        delta_k = delta_k.saturating_mul(delta - 1).min(n.saturating_sub(1));
    }
    let delta_k = delta_k.max(2);

    let mut q: Vec<bool> = vec![true; n];
    let log_dk = (delta_k as f64).log2().max(1.0);
    for s in 1..beta {
        let exponent = 1.0 - s as f64 / (beta as f64 - 1.0);
        let f = 2f64.powf(log_dk.powf(exponent)).max(1.5);
        q = kp12_sparsify(sim, k, &q, f, delta_k, seed.wrapping_add(s as u64));
    }
    // MIS of G^k[Q_{β−1}] (restricted Luby; everyone relays).
    let mis = crate::mis::luby_mis_on(sim, k, seed ^ 0xbeef, &q);
    powersparse_graphs::generators::members(&mis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TheoryParams;
    use powersparse_congest::sim::{SimConfig, Simulator};
    use powersparse_graphs::{check, generators, power};

    #[test]
    fn kp12_dominates_and_thins() {
        let g = generators::connected_gnp(150, 0.15, 3);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let active = vec![true; 150];
        let q = kp12_sparsify(&mut sim, 1, &active, 4.0, g.max_degree(), 7);
        let members = generators::members(&q);
        // Q 1-dominates V.
        assert!(check::is_beta_dominating(&g, &members, 1));
        // Degree drops below the whp bound O(f log n) — generous check.
        let (sub, _) = powersparse_graphs::subgraph::induced(&g, &members);
        let bound = (4.0 * 8.0 * TheoryParams::log_n(150)).ceil() as usize;
        assert!(
            sub.max_degree() <= bound,
            "Δ(G[Q]) = {} > {bound}",
            sub.max_degree()
        );
    }

    #[test]
    fn kp12_on_power_graph() {
        let g = generators::grid(9, 9);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let q = kp12_sparsify(&mut sim, 2, &[true; 81], 3.0, 12, 11);
        let members = generators::members(&q);
        assert!(check::is_beta_dominating(&g, &members, 2));
        // Sparser in G² than the full set.
        assert!(power::max_q_degree(&g, 2, &q) < 12);
    }

    #[test]
    fn corollary_1_3_guarantees() {
        let g = generators::connected_gnp(100, 0.1, 23);
        for (k, beta) in [(1usize, 2usize), (1, 3), (2, 2)] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let rs = beta_ruling_set(&mut sim, k, beta, 5);
            assert!(
                check::is_ruling_set(&g, &rs, k + 1, k * beta),
                "(k+1,kβ) violated for k={k} β={beta}"
            );
        }
    }

    #[test]
    fn beta_ruling_set_seeded_reproducible() {
        let g = generators::grid(7, 7);
        let run = |seed| {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            beta_ruling_set(&mut sim, 2, 3, seed)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn larger_beta_not_worse_domination_bound() {
        // β trades domination for speed: both must at least satisfy
        // their own guarantee on the same instance.
        let g = generators::connected_gnp(80, 0.12, 2);
        for beta in [2usize, 4] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let rs = beta_ruling_set(&mut sim, 1, beta, 3);
            assert!(check::is_ruling_set(&g, &rs, 2, beta));
        }
    }
}
