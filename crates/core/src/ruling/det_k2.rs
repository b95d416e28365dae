//! **Theorem 1.1**: the deterministic `(k+1, k²)`-ruling set via
//! sparsification (Lemma 6.3 instantiated with Algorithm 3).
//!
//! Pipeline: sparsify with `k−1` power iterations (`Q := Q_{k-1}`,
//! domination `(k−1)² + (k−1) = k² − k`), then compute an MIS of
//! `G^k[Q]`, communicating over the depth-`k` BFS trees maintained by
//! invariant I3 — the black-box simulation of Lemma 4.6. The MIS is
//! `(k+1)`-independent and dominates `Q` within `k`, so the result is a
//! `(k+1, k²)`-ruling set of `G`.
//!
//! MIS subroutine substitution (see [`mis_on_sparse_power`]): the paper
//! plugs in the FGG+22 deterministic MIS; we use a deterministic
//! local-ID-minimum greedy whose per-round communication is exactly the
//! Lemma 4.2 broadcast pattern. Its round count grows with the longest
//! decreasing ID chain in `G^k[Q]`, up to `Θ(n)`: the paper profile's
//! path rows take `2N + 5` rounds on `N` nodes at `k = 2`. The ruling
//! set guarantees are independent of this choice (Lemma 6.3 is
//! black-box).

use crate::params::TheoryParams;
use crate::sparsify::{sparsify_power, SamplingStrategy, SparsifyError, SparsifyOutcome};
use powersparse_congest::engine::RoundEngine;
use powersparse_congest::primitives::q_broadcast;
use powersparse_graphs::NodeId;

/// Result of [`det_ruling_set_k2`].
#[derive(Debug, Clone)]
pub struct DetRulingOutcome {
    /// The `(k+1, k²)`-ruling set.
    pub ruling_set: Vec<NodeId>,
    /// The sparsified intermediate set `Q = Q_{k-1}`.
    pub q: Vec<bool>,
    /// Rounds spent in the MIS-on-`G^k[Q]` stage (subset of the total).
    pub mis_rounds: u64,
}

/// Theorem 1.1: deterministic `(k+1, k²)`-ruling set of `G` (equivalently
/// a `k`-ruling set of `G^k`).
///
/// The `_seed` parameter is unused (the algorithm is deterministic); it
/// exists so benchmark harnesses can treat all ruling-set algorithms
/// uniformly.
///
/// # Panics
///
/// Panics on sparsification failure (parameters inconsistent with the
/// instance; see [`SparsifyError`]) — callers that need to handle this
/// use [`try_det_ruling_set_k2`].
pub fn det_ruling_set_k2<E: RoundEngine>(
    sim: &mut E,
    k: usize,
    params: &TheoryParams,
    _seed: u64,
) -> DetRulingOutcome {
    try_det_ruling_set_k2(sim, k, params).expect("sparsification failed")
}

/// Fallible version of [`det_ruling_set_k2`].
///
/// # Errors
///
/// Returns the underlying [`SparsifyError`] when the derandomized
/// sparsification cannot establish its guarantees.
pub fn try_det_ruling_set_k2<E: RoundEngine>(
    sim: &mut E,
    k: usize,
    params: &TheoryParams,
) -> Result<DetRulingOutcome, SparsifyError> {
    assert!(k >= 1);
    let n = sim.graph().n();
    let q0 = vec![true; n];
    // Lemma 6.3 uses T_sparsification(k − 1): Q is sparse in G^{k-1} and
    // the I3 state (knowledge of N^k(v,Q), depth-k trees) is exactly what
    // the G^k[Q] simulation needs.
    let sparse = sparsify_power(sim, k - 1, &q0, params, SamplingStrategy::SeedSearch)?;
    let before = sim.metrics().rounds;
    let mis = mis_on_sparse_power(sim, &sparse);
    let mis_rounds = sim.metrics().rounds - before;
    Ok(DetRulingOutcome {
        ruling_set: mis,
        q: sparse.q,
        mis_rounds,
    })
}

/// Deterministic MIS of `G^k[Q]` over the I3 state of a
/// [`SparsifyOutcome`] (trees of depth `k`, knowledge `N^k(v, Q)`),
/// communicating via Lemma 4.2 broadcasts.
///
/// Greedy local-ID-minimum: each step, every undecided member whose ID
/// is smaller than all its *undecided* `G^k[Q]`-neighbors joins and
/// announces it down its tree; the members a joiner reaches are
/// dominated and announce that in a second broadcast. Each member counts
/// its undecided smaller-ID neighbors, starting from its I3 knowledge:
/// every member decides once and announces it once, so the count falls
/// by one for each smaller neighbor's "dominated" announcement, and the
/// member joins once it reaches 0. The join test, the count and the
/// domination check run inside the broadcasts' node steps.
pub fn mis_on_sparse_power<E: RoundEngine>(sim: &mut E, sparse: &SparsifyOutcome) -> Vec<NodeId> {
    let n = sparse.q.len();
    let mut nodes: Vec<GreedyNode> = (0..n)
        .map(|i| {
            if sparse.q[i] {
                let smaller = sparse
                    .trees
                    .known(NodeId::from(i))
                    .iter()
                    .take_while(|&&x| (x as usize) < i);
                GreedyNode {
                    st: St::Undecided,
                    smaller_undecided: smaller.filter(|&&x| sparse.q[x as usize]).count(),
                }
            } else {
                GreedyNode {
                    st: St::Out,
                    smaller_undecided: 0,
                }
            }
        })
        .collect();

    let budget = 4 * n as u64 + 16;
    let mut steps = 0u64;
    while nodes.iter().any(|m| m.st == St::Undecided) {
        steps += 1;
        assert!(steps < budget, "greedy MIS exceeded its round budget");
        // Join: local minimum among undecided neighbors; every undecided
        // member a joiner reaches is dominated.
        q_broadcast(
            sim,
            &sparse.trees,
            1,
            &mut nodes,
            |m, _| {
                let joins = m.st == St::Undecided && m.smaller_undecided == 0;
                joins.then(|| {
                    m.st = St::In;
                    JOINED
                })
            },
            |m, _, _, _| {
                if m.st == St::Undecided {
                    m.st = St::Dominated;
                }
            },
        );
        // Dominated members go Out and announce it.
        q_broadcast(
            sim,
            &sparse.trees,
            1,
            &mut nodes,
            |m, _| {
                (m.st == St::Dominated).then(|| {
                    m.st = St::Out;
                    DOMINATED
                })
            },
            |m, v, root, _| {
                if m.st == St::Undecided && (root as usize) < v.index() {
                    m.smaller_undecided -= 1;
                }
            },
        );
    }
    (0..n)
        .filter(|&i| nodes[i].st == St::In)
        .map(NodeId::from)
        .collect()
}

/// A greedy MIS member's status.
#[derive(Clone, Copy, PartialEq)]
enum St {
    Undecided,
    In,
    /// Reached by a joiner's announcement, not yet announced itself.
    Dominated,
    Out,
}

/// Per-node state of the greedy MIS.
struct GreedyNode {
    st: St,
    /// Undecided `G^k[Q]`-neighbors with a smaller ID.
    smaller_undecided: usize,
}

/// The 1-bit codes of the two announcements.
const JOINED: u8 = 1;
const DOMINATED: u8 = 0;

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_congest::sim::{SimConfig, Simulator};
    use powersparse_graphs::{check, generators};

    fn run_and_check(g: &powersparse_graphs::Graph, k: usize) -> (DetRulingOutcome, u64) {
        let mut sim = Simulator::new(g, SimConfig::for_graph(g));
        let out = det_ruling_set_k2(&mut sim, k, &TheoryParams::scaled(), 0);
        assert!(
            check::is_ruling_set(g, &out.ruling_set, k + 1, k * k),
            "not a (k+1, k²)-ruling set for k={k}"
        );
        (out, sim.metrics().rounds)
    }

    #[test]
    fn theorem_1_1_k1_is_mis() {
        let g = generators::connected_gnp(60, 0.1, 31);
        let (out, _) = run_and_check(&g, 1);
        assert!(check::is_mis(&g, &out.ruling_set));
    }

    #[test]
    fn theorem_1_1_k2() {
        let g = generators::grid(8, 8);
        let (out, _) = run_and_check(&g, 2);
        // The k=2 ruling set is 3-independent.
        assert!(check::is_alpha_independent(&g, &out.ruling_set, 3));
    }

    #[test]
    fn theorem_1_1_k3_on_random() {
        let g = generators::connected_gnp(90, 0.06, 17);
        run_and_check(&g, 3);
    }

    #[test]
    fn deterministic_output() {
        let g = generators::grid(6, 8);
        let run = || {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            det_ruling_set_k2(&mut sim, 2, &TheoryParams::scaled(), 0).ruling_set
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mis_respects_sparsified_q() {
        let g = generators::connected_gnp(70, 0.12, 13);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = det_ruling_set_k2(&mut sim, 2, &TheoryParams::scaled(), 0);
        // The ruling set lives inside Q and is an MIS of G²[Q].
        let q_members = generators::members(&out.q);
        assert!(check::is_mis_of_power_restricted(
            &g,
            &out.ruling_set,
            &q_members,
            2
        ));
    }
}
