//! Ghaffari's BeepingMIS ([Gha17, Section 2.2]) simulated on `G^k` with
//! the ID-tagged beep layer of Lemma 8.2.
//!
//! Each step has two exchanges. First, every undecided node marks itself
//! with its current probability `p_v` and marked nodes beep; a node
//! halves `p_v` when it hears a beep and doubles it (capped at 1/2)
//! otherwise. Second, marked nodes that heard no beep join the MIS and
//! beep again; whoever hears the second beep (or joined) becomes decided.
//! On `G^k` each beep costs `O(k)` rounds.

use powersparse_congest::engine::RoundEngine;
use powersparse_congest::primitives::beep::khop_beep;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// State after a (possibly partial) BeepingMIS run.
#[derive(Debug, Clone)]
pub struct BeepingOutcome {
    /// Nodes that joined the independent set.
    pub in_mis: Vec<bool>,
    /// Nodes still undecided (the set `B` fed to post-shattering).
    pub undecided: Vec<bool>,
    /// Steps executed.
    pub steps: usize,
}

/// Runs `steps` steps of BeepingMIS on `G^k[participants]`, starting from
/// the given undecided set. Every node relays beeps, so distances are
/// measured in `G`: the two-phase post-shattering of Section 7.2.1 needs
/// that, since `G^k[B]` adjacency goes through paths that leave `B`.
///
/// Decided-but-relaying nodes are exactly the paper's "observers"
/// (Corollary 8.5).
pub fn beeping_mis_run<E: RoundEngine>(
    sim: &mut E,
    k: usize,
    undecided0: &[bool],
    steps: usize,
    seed: u64,
) -> BeepingOutcome {
    let n = sim.graph().n();
    assert_eq!(undecided0.len(), n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p: Vec<f64> = vec![0.5; n];
    let mut undecided: Vec<bool> = undecided0.to_vec();
    let mut in_mis: Vec<bool> = vec![false; n];

    for _ in 0..steps {
        if !undecided.iter().any(|&u| u) {
            break;
        }
        // Exchange 1: marked nodes beep.
        let marked: Vec<bool> = (0..n).map(|i| undecided[i] && rng.gen_bool(p[i])).collect();
        let heard1 = khop_beep(sim, &marked, k, 2);
        for i in 0..n {
            if undecided[i] {
                if heard1[i] {
                    p[i] = (p[i] / 2.0).max(1e-9);
                } else {
                    p[i] = (2.0 * p[i]).min(0.5);
                }
            }
        }
        // Exchange 2: lonely marked nodes join and beep.
        let joined: Vec<bool> = (0..n).map(|i| marked[i] && !heard1[i]).collect();
        let heard2 = khop_beep(sim, &joined, k, 2);
        for i in 0..n {
            if joined[i] {
                in_mis[i] = true;
                undecided[i] = false;
            } else if undecided[i] && heard2[i] {
                undecided[i] = false;
            }
        }
    }
    BeepingOutcome {
        in_mis,
        undecided,
        steps,
    }
}

/// Runs BeepingMIS on `G^k` until every node is decided; panics after
/// `64·(log₂ n + 1)` steps (probability `n^{-Ω(1)}`). Returns the MIS
/// membership mask.
///
/// # Panics
///
/// See above.
pub fn beeping_mis<E: RoundEngine>(sim: &mut E, k: usize, seed: u64) -> Vec<bool> {
    let n = sim.graph().n();
    let max_steps = 64 * (sim.graph().id_bits() + 1);
    let out = beeping_mis_run(sim, k, &vec![true; n], max_steps, seed);
    assert!(
        !out.undecided.iter().any(|&u| u),
        "BeepingMIS did not terminate within {max_steps} steps"
    );
    out.in_mis
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_congest::sim::{SimConfig, Simulator};
    use powersparse_graphs::{check, generators};

    #[test]
    fn beeping_mis_on_g() {
        let g = generators::connected_gnp(70, 0.09, 13);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mis = beeping_mis(&mut sim, 1, 3);
        assert!(check::is_mis(&g, &generators::members(&mis)));
    }

    #[test]
    fn beeping_mis_on_g2() {
        let g = generators::grid(6, 9);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mis = beeping_mis(&mut sim, 2, 8);
        assert!(check::is_mis_of_power(&g, &generators::members(&mis), 2));
    }

    #[test]
    fn beeping_mis_on_g3_cycle() {
        let g = generators::cycle(50);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mis = beeping_mis(&mut sim, 3, 21);
        assert!(check::is_mis_of_power(&g, &generators::members(&mis), 3));
    }

    #[test]
    fn partial_run_shatters() {
        // A short run decides most nodes; the undecided remainder plus the
        // MIS remains consistent (I independent, no undecided node
        // dominated).
        let g = generators::connected_gnp(120, 0.15, 4);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = beeping_mis_run(&mut sim, 1, &[true; 120], 6, 5);
        let mis = generators::members(&out.in_mis);
        assert!(check::is_alpha_independent(&g, &mis, 2));
        // Undecided nodes have no MIS neighbor.
        for i in 0..120 {
            if out.undecided[i] {
                let v = powersparse_graphs::NodeId::from(i);
                assert!(!out.in_mis[i]);
                for &w in g.neighbors(v) {
                    assert!(!out.in_mis[w.index()], "undecided {v} has MIS neighbor");
                }
            }
        }
    }
}
