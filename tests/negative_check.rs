//! Negative-case coverage for the `check` validators: corrupted versions
//! of *real* algorithm outputs must be rejected. The suite's "nothing
//! here trusts an algorithm" stance only means something if the checkers
//! catch packing violations, covering violations, lost maximality and
//! broken sparsifier invariants — each is exercised here by taking a
//! valid output and damaging it minimally.

use powersparse::mis::luby_mis;
use powersparse::params::TheoryParams;
use powersparse::ruling::{beta_ruling_set, det_ruling_set_k2};
use powersparse::sparsify::{sparsify_power, SamplingStrategy};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_graphs::{bfs, check, generators, NodeId};

/// A ruling set with an extra member within distance `k` of an existing
/// ruler violates packing (`(k+1)`-independence on `G`, i.e.
/// independence in `G^k`) and must be rejected.
#[test]
fn ruling_set_packing_violation_on_gk_rejected() {
    let g = generators::grid(8, 8);
    let k = 2;
    let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
    let out = det_ruling_set_k2(&mut sim, k, &TheoryParams::scaled(), 0);
    assert!(check::is_ruling_set(&g, &out.ruling_set, k + 1, k * k));

    // Add a G-neighbor of the first ruler: distance 1 ≤ k.
    let ruler = out.ruling_set[0];
    let intruder = g.neighbors(ruler)[0];
    assert!(!out.ruling_set.contains(&intruder), "test premise");
    let mut corrupted = out.ruling_set.clone();
    corrupted.push(intruder);
    assert!(
        !check::is_alpha_independent(&g, &corrupted, k + 1),
        "packing violation not caught"
    );
    assert!(!check::is_ruling_set(&g, &corrupted, k + 1, k * k));

    // A duplicated ruler is a distance-0 packing violation.
    let mut duplicated = out.ruling_set.clone();
    duplicated.push(out.ruling_set[0]);
    assert!(!check::is_ruling_set(&g, &duplicated, k + 1, k * k));
}

/// A ruling set truncated to a single ruler on a graph whose diameter
/// exceeds the domination bound violates covering and must be rejected.
#[test]
fn ruling_set_covering_violation_on_gk_rejected() {
    let g = generators::grid(10, 10); // diameter 18
    let k = 2;
    let beta = 3;
    let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
    let rs = beta_ruling_set(&mut sim, k, beta, &TheoryParams::scaled(), 5);
    assert!(check::is_ruling_set(&g, &rs, k + 1, k * beta));
    assert!(rs.len() > 1, "test premise: several rulers");

    // Keep only one ruler: some node is now farther than kβ = 6 < 18.
    let truncated = vec![rs[0]];
    assert!(
        !check::is_beta_dominating(&g, &truncated, k * beta),
        "covering violation not caught"
    );
    assert!(!check::is_ruling_set(&g, &truncated, k + 1, k * beta));

    // Dropping the ruler nearest to the worst-covered node also breaks
    // covering at the tight bound measured on the intact set.
    let measured = bfs::distances_to_set(&g, &rs)
        .iter()
        .map(|d| d.expect("connected"))
        .max()
        .unwrap() as usize;
    let empty: Vec<NodeId> = Vec::new();
    assert!(!check::is_beta_dominating(&g, &empty, measured));
}

/// An MIS with one member removed leaves that node undominated (members
/// of an MIS of `G^k` are pairwise > k apart), so maximality must fail;
/// an MIS with an extra close node fails independence.
#[test]
fn non_maximal_mis_rejected() {
    let g = generators::connected_gnp(100, 0.06, 9);
    for k in [1usize, 2] {
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mask = luby_mis(&mut sim, k, 21);
        let mis = generators::members(&mask);
        assert!(check::is_mis_of_power(&g, &mis, k));

        // Remove one member: it has no other member within k, so the
        // set is no longer maximal (covering fails), while independence
        // still holds — the checker must reject on maximality alone.
        let shrunk: Vec<NodeId> = mis[1..].to_vec();
        assert!(check::is_alpha_independent(&g, &shrunk, k + 1));
        assert!(
            !check::is_mis_of_power(&g, &shrunk, k),
            "non-maximal MIS accepted for k={k}"
        );

        // Add a neighbor of a member: independence fails.
        let mut bloated = mis.clone();
        bloated.push(g.neighbors(mis[0])[0]);
        assert!(!check::is_mis_of_power(&g, &bloated, k));
    }
}

/// Sparsifier outputs whose knowledge lists drift from the true sorted
/// `N^{k+1}(v, Q)` — an element dropped, an element invented, an element
/// repeated, two entries swapped, or a `Q` flip not reflected in the
/// knowledge — all violate invariant I3.
#[test]
fn i3_violating_sparsifier_rejected() {
    let g = generators::torus(8, 8);
    let k = 1;
    let params = TheoryParams::scaled();
    let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
    let out = sparsify_power(
        &mut sim,
        k,
        &vec![true; g.n()],
        &params,
        SamplingStrategy::Randomized { seed: 3 },
    )
    .expect("sparsify");
    assert!(check::satisfies_sparsifier_i3(
        &g,
        k,
        &out.q,
        &out.knowledge
    ));

    // Drop one element from a nonempty knowledge list.
    let donor = out
        .knowledge
        .iter()
        .position(|s| !s.is_empty())
        .expect("some node knows a Q-neighbor");
    let mut dropped = out.knowledge.clone();
    let x = dropped[donor].remove(0);
    assert!(
        !check::satisfies_sparsifier_i3(&g, k, &out.q, &dropped),
        "missing knowledge element not caught"
    );

    // Invent an element that is not a Q-member within k+1 hops.
    let mut invented = out.knowledge.clone();
    invented[donor].push(donor as u32); // own ID is never in N^{k+1}(v, Q)
    invented[donor].sort_unstable();
    assert!(
        !check::satisfies_sparsifier_i3(&g, k, &out.q, &invented),
        "invented knowledge element not caught"
    );

    // Repeat an element: the right members, but not a set.
    let mut repeated = out.knowledge.clone();
    repeated[donor].insert(0, x);
    assert!(
        !check::satisfies_sparsifier_i3(&g, k, &out.q, &repeated),
        "duplicated knowledge element not caught"
    );

    // Swap two entries: the right members, out of order.
    let pair = out
        .knowledge
        .iter()
        .position(|s| s.len() >= 2)
        .expect("some node knows two Q-neighbors");
    let mut swapped = out.knowledge.clone();
    swapped[pair].swap(0, 1);
    assert!(
        !check::satisfies_sparsifier_i3(&g, k, &out.q, &swapped),
        "unsorted knowledge list not caught"
    );

    // Flip a Q-bit without updating anyone's knowledge: the stale
    // knowledge lists no longer match the claimed Q.
    let mut stale_q = out.q.clone();
    stale_q[x as usize] = !stale_q[x as usize];
    assert!(
        !check::satisfies_sparsifier_i3(&g, k, &stale_q, &out.knowledge),
        "stale knowledge after Q flip not caught"
    );
}
