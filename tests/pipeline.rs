//! End-to-end integration tests: every theorem of the paper exercised on
//! shared instances, with outputs re-verified by the independent checkers
//! of `powersparse-graphs`.

use powersparse::mis::{beeping_mis, luby_mis, mis_power, PostShattering};
use powersparse::nd::{diameter_bound, power_nd};
use powersparse::params::TheoryParams;
use powersparse::ruling::{beta_ruling_set, det_ruling_set_k2, id_ruling_set};
use powersparse::sparsify::{sparsify_power, sparsify_power_nd, SamplingStrategy};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_graphs::{check, generators, power, Graph};

fn instances() -> Vec<(String, Graph)> {
    vec![
        ("gnp96".into(), generators::connected_gnp(96, 0.09, 12)),
        ("grid9x9".into(), generators::grid(9, 9)),
        ("torus6x7".into(), generators::torus(6, 7)),
        ("clustered".into(), generators::clustered_ring(6, 5)),
    ]
}

#[test]
fn theorem_1_1_on_all_instances() {
    let params = TheoryParams::scaled();
    for (name, g) in instances() {
        for k in [1usize, 2] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let out = det_ruling_set_k2(&mut sim, k, &params, 0);
            assert!(
                check::is_ruling_set(&g, &out.ruling_set, k + 1, k * k),
                "{name}, k={k}"
            );
        }
    }
}

#[test]
fn theorem_1_2_on_all_instances() {
    let params = TheoryParams::scaled();
    for (name, g) in instances() {
        for k in [1usize, 2] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let (mis, _) =
                mis_power(&mut sim, k, &params, 3, PostShattering::OnePhase).expect(&name);
            assert!(
                check::is_mis_of_power(&g, &generators::members(&mis), k),
                "{name}, k={k}"
            );
        }
    }
}

#[test]
fn theorem_1_4_both_approaches_agree_on_validity() {
    let params = TheoryParams::scaled();
    for (name, g) in instances() {
        for post in [PostShattering::OnePhase, PostShattering::TwoPhase] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let (mis, _) = mis_power(&mut sim, 1, &params, 9, post).expect(&name);
            assert!(
                check::is_mis(&g, &generators::members(&mis)),
                "{name} {post:?}"
            );
        }
    }
}

#[test]
fn corollary_1_3_on_all_instances() {
    for (name, g) in instances() {
        for (k, beta) in [(1usize, 3usize), (2, 2)] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let rs = beta_ruling_set(&mut sim, k, beta, 4);
            assert!(
                check::is_ruling_set(&g, &rs, k + 1, k * beta),
                "{name}, k={k}, beta={beta}"
            );
        }
    }
}

#[test]
fn lemma_3_1_invariants_via_both_strategies() {
    let params = TheoryParams::scaled();
    for (name, g) in instances() {
        let n = g.n();
        for strat in [
            SamplingStrategy::Randomized { seed: 5 },
            SamplingStrategy::SeedSearch,
        ] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let out = sparsify_power(&mut sim, 2, &vec![true; n], &params, strat).expect(&name);
            assert!(
                power::max_q_degree(&g, 2, &out.q) <= params.degree_bound(n),
                "{name} I1"
            );
            let members = generators::members(&out.q);
            assert!(
                check::is_beta_dominating(&g, &members, 6),
                "{name} I2 (k²+k=6)"
            );
        }
    }
}

#[test]
fn lemma_5_8_nd_sparsification() {
    let params = TheoryParams::scaled();
    for (name, g) in instances() {
        let n = g.n();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_power_nd(
            &mut sim,
            1,
            &vec![true; n],
            &params,
            SamplingStrategy::Randomized { seed: 2 },
        )
        .expect(&name);
        assert!(power::max_q_degree(&g, 1, &out.q) <= params.degree_bound(n));
        assert!(
            check::is_beta_dominating(&g, &generators::members(&out.q), 2),
            "{name}"
        );
    }
}

#[test]
fn theorem_a_1_decompositions_are_valid() {
    let params = TheoryParams::scaled();
    for (name, g) in instances() {
        for k in [1usize, 2] {
            let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
            let nd = power_nd(&mut sim, k, &params).expect(&name);
            let errors = check::check_decomposition(
                &g,
                &nd.view(),
                diameter_bound(k, g.n()),
                2 * k as u32,
                true,
            );
            assert!(errors.is_empty(), "{name}, k={k}: {errors:?}");
        }
    }
}

#[test]
fn baselines_and_new_algorithms_agree_on_problem() {
    // Luby, BeepingMIS and Theorem 1.2 all produce valid (different) MIS
    // of the same power graph.
    let g = generators::connected_gnp(80, 0.08, 44);
    let params = TheoryParams::scaled();
    let k = 2;
    let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
    let a = luby_mis(&mut sim, k, 1);
    let b = beeping_mis(&mut sim, k, 1);
    let (c, _) = mis_power(&mut sim, k, &params, 1, PostShattering::OnePhase).unwrap();
    for (label, mis) in [("luby", a), ("beeping", b), ("thm1.2", c)] {
        assert!(
            check::is_mis_of_power(&g, &generators::members(&mis), k),
            "{label}"
        );
    }
}

#[test]
fn corollary_6_2_round_guarantee_scales() {
    // O(k·c·n^{1/c}) rounds: measure that c = 3 is cheaper than c = 2 at
    // larger n on a cycle (where n^{1/c} dominates).
    let g = generators::cycle(1024);
    let mut r = Vec::new();
    for c in [2u32, 3] {
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = id_ruling_set(&mut sim, 1, c);
        assert!(check::is_ruling_set(
            &g,
            &generators::members(&out.ruling_set),
            2,
            c as usize
        ));
        r.push(sim.metrics().rounds);
    }
    assert!(
        r[1] < r[0],
        "c=3 ({}) should beat c=2 ({}) at n=1024",
        r[1],
        r[0]
    );
}
