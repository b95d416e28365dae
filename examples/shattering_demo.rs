//! Shattering up close (Section 7 / Theorem 1.4): run the pre-shattering
//! phase alone, inspect the component structure of the undecided
//! remainder (the quantity Lemma 7.3 (P2) bounds), then let the
//! post-shattering machinery finish and verify the MIS.
//!
//! Run with: `cargo run --example shattering_demo`

use powersparse::mis::{beeping_mis_run, mis_power, PostShattering};
use powersparse::params::TheoryParams;
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_graphs::{check, generators, subgraph};

fn main() {
    let n = 400;
    let g = generators::connected_gnp(n, 20.0 / n as f64, 99);
    let delta = g.max_degree();
    println!("graph: gnp (n = {n}, Δ = {delta})\n");

    let params = TheoryParams::scaled();
    let steps = params.shatter_steps(delta);

    // --- Pre-shattering only. ---
    let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
    let pre = beeping_mis_run(&mut sim, 1, &vec![true; n], steps, 5);
    let undecided: Vec<_> = generators::members(&pre.undecided);
    println!(
        "pre-shattering ({steps} BeepingMIS steps, {} rounds): {} nodes undecided",
        sim.metrics().rounds,
        undecided.len()
    );

    let comps = subgraph::k_connected_components(&g, &undecided, 1);
    let largest = comps.iter().map(Vec::len).max().unwrap_or(0);
    let p2_bound = ((n as f64).log2() / (delta as f64).log2() * (delta as f64).powi(4)) as usize;
    println!(
        "undecided components: {} (largest = {largest}; Lemma 7.3 (P2) bound O(log_Δ n · Δ⁴) ≈ {p2_bound})",
        comps.len()
    );
    for (i, c) in comps.iter().take(5).enumerate() {
        println!("  component {i}: {} nodes", c.len());
    }
    if comps.len() > 5 {
        println!("  …");
    }

    // --- Full pipeline, both post-shattering approaches. ---
    for (label, post) in [
        (
            "approach 1 (two pre-shattering phases, §7.2.1)",
            PostShattering::TwoPhase,
        ),
        (
            "approach 2 (one pre-shattering phase, §7.2.2)",
            PostShattering::OnePhase,
        ),
    ] {
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let (mis, report) = mis_power(&mut sim, 1, &params, 5, post).expect("mis");
        assert!(check::is_mis(&g, &generators::members(&mis)));
        println!(
            "\n{label}:\n  rounds = {}, MIS size = {}, rulers = {}, ND colors = {}",
            sim.metrics().rounds,
            mis.iter().filter(|&&b| b).count(),
            report.rulers,
            report.nd_colors,
        );
    }
    println!("\nboth approaches verified as MIS of G ✓");
}
