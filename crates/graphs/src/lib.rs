//! Graph substrate for the `powersparse` reproduction of
//! *Distributed Symmetry Breaking on Power Graphs via Sparsification*
//! (Maus, Peltonen, Uitto — PODC 2023).
//!
//! This crate provides everything the algorithm crates need to talk about
//! graphs **without** any external graph dependency:
//!
//! * [`Graph`] — an immutable CSR (compressed sparse row) undirected graph
//!   with `O(1)` degree queries and cache-friendly neighbor iteration.
//! * [`generators`] — deterministic and seeded-random graph families used by
//!   the test suite and the benchmark harness (G(n,p), grids, tori, rings,
//!   trees, caterpillars, cluster graphs, and the Figure-1
//!   gadget from the paper).
//! * [`bfs`] — breadth-first search, multi-source BFS, exact distances,
//!   eccentricities and diameters.
//! * [`power`] — power-graph machinery: distance-`s` neighborhoods
//!   `N^s(v)`, distance-`s` `Q`-degrees `d_s(v, Q)`, and materialized
//!   power graphs `G^k`.
//! * [`subgraph`] — induced subgraphs, connected components, and
//!   `k`-connected components (components of `G^k[X]`).
//! * [`partition`] — contiguous, load-balanced node-range partitions of
//!   CSR graphs for the parallel round engines (`powersparse-engine`).
//! * [`check`] — validity checkers for independence, domination,
//!   `(α, β)`-ruling sets, MIS of `G^k`, colorings, and network
//!   decompositions. Tests and benches *never* trust an algorithm's output
//!   without running these.
//! * [`coloring`] — greedy distance-`k` colorings used as inputs to the
//!   AGLP-style ruling set algorithm (Theorem 6.1 of the paper).
//!
//! # Example
//!
//! ```
//! use powersparse_graphs::{Graph, generators};
//!
//! let g = generators::cycle(8);
//! assert_eq!(g.n(), 8);
//! assert_eq!(g.degree(powersparse_graphs::NodeId(0)), 2);
//! let d = powersparse_graphs::bfs::distances(&g, powersparse_graphs::NodeId(0));
//! assert_eq!(d[4], Some(4));
//! ```

pub mod bfs;
pub mod check;
pub mod coloring;
pub mod generators;
pub mod graph;
pub mod partition;
pub mod power;
pub mod subgraph;

pub use graph::{Graph, GraphBuilder, NodeId};
