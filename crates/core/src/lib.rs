//! `powersparse` — a reproduction of *Distributed Symmetry Breaking on
//! Power Graphs via Sparsification* (Maus, Peltonen, Uitto — PODC 2023,
//! arXiv:2302.06878).
//!
//! The crate implements the paper's algorithms as programs over the
//! CONGEST simulator of [`powersparse_congest`]; all round counts are
//! *measured* by the engine.
//!
//! # What is implemented
//!
//! * **Sparsification** ([`sparsify`]):
//!   * randomized sampling (Algorithm 1, Section 5.1),
//!   * deterministic sparsification via derandomization
//!     (Algorithm 2 / `DetSparsification`, Section 5.2): a seed scan
//!     whose candidates are checked over a global BFS tree (Claim 5.6),
//!     shared with the network decomposition's delay seeds,
//!   * iterated sparsification of power graphs with invariants I1–I3
//!     (Algorithm 3, Section 5.3 — [`sparsify::sparsify_power`]),
//!   * diameter-free sparsification inside network-decomposition
//!     clusters (Lemma 5.8 — [`sparsify::sparsify_power_nd`]).
//! * **Deterministic ruling sets** ([`ruling`]):
//!   * the AGLP/SEW/KMW coloring-digit algorithm (Theorem 6.1) and its
//!     ID-based instantiation (Corollary 6.2),
//!   * the headline `(k+1, k²)`-ruling set (**Theorem 1.1** —
//!     [`ruling::det_ruling_set_k2`]),
//!   * KP12 degree-reduction sampling and the randomized
//!     `(k+1, kβ)`-ruling set (**Corollary 1.3** —
//!     [`ruling::beta_ruling_set`]),
//!   * ruling sets with knocker-chain ball partitions (Claim 7.6 —
//!     [`ruling::ruling_set_with_balls`]).
//! * **MIS** ([`mis`]):
//!   * Luby's algorithm on `G^k` (Section 8.1),
//!   * Ghaffari's BeepingMIS simulated on `G^k` with ID-tagged beeps
//!     (Lemma 8.2),
//!   * the shattering framework with both post-shattering approaches of
//!     Section 7 (**Theorem 1.4**) generalized to power graphs
//!     (**Theorem 1.2** — [`mis::mis_power`]).
//! * **Network decomposition** ([`nd`]): delay-based clustering with
//!   same-color separation `2k+1` (Theorem A.1 interface), the
//!   distance-`k` ball graphs of Lemma 8.3, and [`nd::cluster_parts`],
//!   the domain `G[C ∪ N^k(C)]` on which both cluster finishing
//!   (Theorem 1.2) and Lemma 5.8 run a cluster.
//!
//! Substitutions relative to the paper (derandomization strategy, the MIS
//! subroutine of Theorem 1.1, the network-decomposition internals, scaled
//! constants, charged sub-simulations) are catalogued in
//! [`params`](params#substitutions).
//!
//! # Quickstart
//!
//! ```
//! use powersparse::params::TheoryParams;
//! use powersparse::ruling::det_ruling_set_k2;
//! use powersparse_congest::sim::{SimConfig, Simulator};
//! use powersparse_graphs::{check, generators};
//!
//! let g = generators::grid(6, 6);
//! let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
//! let k = 2;
//! let out = det_ruling_set_k2(&mut sim, k, &TheoryParams::scaled(), 0);
//! assert!(check::is_ruling_set(&g, &out.ruling_set, k + 1, k * k));
//! ```

pub mod mis;
pub mod nd;
pub mod params;
pub mod report;
pub mod ruling;
pub mod sparsify;

pub use params::TheoryParams;
pub use report::RunReport;
