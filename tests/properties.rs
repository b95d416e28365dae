//! Property-based tests: the paper's guarantees hold on randomized
//! instances and seeds (proptest shrinks violations to minimal cases).

use powersparse::mis::{luby_mis, mis_power, PostShattering};
use powersparse::params::TheoryParams;
use powersparse::ruling::ruling_set_with_balls;
use powersparse::sparsify::{sparsify_power, SamplingStrategy};
use powersparse_congest::primitives::khop_beep;
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_graphs::{check, generators, power, subgraph};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Luby on `G^k` always outputs a valid MIS of the power graph.
    #[test]
    fn luby_always_valid(n in 12usize..60, k in 1usize..4, seed in 0u64..1000) {
        let g = generators::connected_gnp(n, 2.5 / n as f64, seed);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mis = luby_mis(&mut sim, k, seed);
        prop_assert!(check::is_mis_of_power(&g, &generators::members(&mis), k));
    }

    /// The ID-tagged k-hop beep layer (Lemma 8.2) exactly reproduces the
    /// ground truth "∃ other beeper within k hops".
    #[test]
    fn beep_matches_ground_truth(n in 8usize..50, k in 1usize..5, seed in 0u64..500) {
        let g = generators::connected_gnp(n, 3.0 / n as f64, seed);
        let beepers: Vec<bool> = (0..n).map(|i| (i as u64 * 7 + seed).is_multiple_of(5)).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let heard = khop_beep(&mut sim, &beepers, k);
        for v in g.nodes() {
            let truth = power::q_degree(&g, v, k, &beepers) > 0;
            prop_assert_eq!(heard[v.index()], truth, "node {}", v);
        }
    }

    /// Randomized sparsification (Algorithm 1) keeps both Lemma 3.1
    /// guarantees on every instance and seed.
    #[test]
    fn sparsify_invariants(n in 24usize..90, k in 1usize..3, seed in 0u64..500) {
        let g = generators::connected_gnp(n, 5.0 / n as f64, seed);
        let params = TheoryParams::scaled();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_power(&mut sim, k, &vec![true; n], &params,
            SamplingStrategy::Randomized { seed }).unwrap();
        prop_assert!(power::max_q_degree(&g, k, &out.q) <= params.degree_bound(n));
        let members = generators::members(&out.q);
        prop_assert!(check::is_beta_dominating(&g, &members, k * k + k));
        // I3: knowledge matches ground truth.
        for v in g.nodes() {
            let mut expect: Vec<u32> =
                power::q_neighborhood(&g, v, k + 1, &out.q).into_iter().map(|w| w.0).collect();
            expect.sort_unstable();
            prop_assert_eq!(&out.knowledge[v.index()], &expect);
        }
    }

    /// Ruling sets with balls: rulers independent, every candidate
    /// assigned to a ruler, rulers own themselves.
    #[test]
    fn ruling_balls_partition(n in 10usize..70, dist in 1usize..4, seed in 0u64..300) {
        let g = generators::connected_gnp(n, 3.0 / n as f64, seed);
        let candidates: Vec<bool> = (0..n).map(|i| !(i as u64 + seed).is_multiple_of(3)).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = ruling_set_with_balls(&mut sim, dist, &candidates, None);
        let rulers = generators::members(&out.ruling_set);
        prop_assert!(check::is_alpha_independent(&g, &rulers, dist + 1));
        for i in 0..n {
            if candidates[i] {
                let b = out.ball_of[i].unwrap();
                prop_assert!(out.ruling_set[b as usize]);
            } else {
                prop_assert!(out.ball_of[i].is_none());
            }
        }
    }

    /// Theorem 1.2's full pipeline stays valid across seeds and both
    /// post-shattering approaches.
    #[test]
    fn shattering_mis_valid(n in 30usize..80, seed in 0u64..200, two_phase in any::<bool>()) {
        let g = generators::connected_gnp(n, 6.0 / n as f64, seed);
        let params = TheoryParams::scaled();
        let post = if two_phase { PostShattering::TwoPhase } else { PostShattering::OnePhase };
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let (mis, _) = mis_power(&mut sim, 2, &params, seed, post).unwrap();
        prop_assert!(check::is_mis_of_power(&g, &generators::members(&mis), 2));
    }

    /// k-connected components partition the candidate set, and members of
    /// different components are > k apart (the Section 2 definition).
    #[test]
    fn k_components_partition(n in 10usize..60, k in 1usize..4, seed in 0u64..300) {
        let g = generators::connected_gnp(n, 2.0 / n as f64, seed);
        let x: Vec<_> = (0..n).filter(|i| (i + seed as usize).is_multiple_of(2))
            .map(powersparse_graphs::NodeId::from).collect();
        let comps = subgraph::k_connected_components(&g, &x, k);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, x.len());
        for (i, a) in comps.iter().enumerate() {
            for b in comps.iter().skip(i + 1) {
                for &u in a {
                    for &w in b {
                        let d = powersparse_graphs::bfs::distance(&g, u, w);
                        prop_assert!(d.is_none_or(|d| d as usize > k));
                    }
                }
            }
        }
    }
}
