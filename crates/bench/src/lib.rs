//! Helpers for the `powersparse` benchmark harness.
//!
//! The `experiments` binary (see `src/bin/experiments.rs`) is the front
//! end of the workload scenario runner: the paper's tables are its
//! `paper` suite profile (`builtin_suite(SuiteProfile::Paper)`, committed
//! as `BENCH_paper.json`), and it also measures Figure 1 and the engine
//! matrix. The Criterion benches under `benches/` measure the
//! communication primitives, the derandomizers, the message core and the
//! round engines.

pub mod alloc_gauge;

/// Formats a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}
