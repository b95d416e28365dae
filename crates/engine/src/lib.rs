//! `powersparse-engine` — the parallel CONGEST round executors behind
//! the [`RoundEngine`](powersparse_congest::RoundEngine) trait of
//! `powersparse-congest`: the persistent worker-pool
//! [`PooledSimulator`] and the multi-process [`ProcessSimulator`], whose
//! shards live in forked child processes and exchange splice buffers
//! over a Unix-socket wire protocol ([`wire`]).
//!
//! # Architecture: shards, arrival runs, barriers
//!
//! Nodes are partitioned into contiguous **shards** by
//! [`powersparse_graphs::partition::shard_ranges`], weighted by
//! `1 + deg(v)` so that dense regions do not pile onto one worker.
//! Because the graph is CSR-ordered, each shard also owns a contiguous
//! range of *directed edge indices* — every per-edge structure (FIFO
//! queue, bit/message counters) is a flat array sliced per shard, with
//! no locks and no sharing inside a round.
//!
//! A round executes in two barrier-separated stages:
//!
//! 1. **Shard round (sender side).** Each shard runs the round every
//!    engine runs ([`powersparse_congest::shard::Shard::round`]): its
//!    nodes are stepped against their inboxes, their sends run through
//!    the shard-owned message core, and up to `bandwidth` bits move on
//!    each owned edge. Completed messages are bucketed by receiver
//!    shard; bit/message totals accumulate in the shard's tally.
//! 2. **Splice (receiver side).** After the barrier, each receiver
//!    shard's buckets are appended onto its arrival run in sender-shard
//!    order; the next read groups the run per node with a stable
//!    counting sort, so each inbox is in ascending sender order, FIFO
//!    per edge.
//!
//! The shards' tallies are merged into the shared
//! [`Metrics`](powersparse_congest::Metrics) at the barrier by
//! [`close_round`](powersparse_congest::shard::close_round), the round
//! close of every engine, so totals and per-edge traffic are
//! *identical* to the sequential
//! [`Simulator`](powersparse_congest::Simulator), and the delivery-order
//! rule of the engine contract (`powersparse_congest::engine` module
//! docs) holds bit-for-bit: results do not depend on the shard count.
//! The shard layout both backends share lives in [`routing`]; like
//! every engine, both park a closed phase's buffers for the next phase
//! ([`Parked`](powersparse_congest::shard::Parked)).
//!
//! # Threading: the persistent pool
//!
//! [`PooledSimulator`] spawns its worker threads once, when the engine
//! is built, and parks them on an epoch barrier (condvar + generation
//! counter), so each round costs two barrier waits and no thread spawns
//! (see [`pooled`]). The worker count is the one passed to
//! `with_shards`; the engines keep no default and read no environment
//! variable. With one shard the engine runs inline with no thread
//! overhead.
//!
//! # Crossing the process boundary
//!
//! [`ProcessSimulator`] takes the same shard layout out-of-process:
//! each shard's message core runs in a forked child, built once at
//! fork, and every cross-shard byte rides the length-prefixed,
//! checksummed frame codec in [`wire`] over one Unix socket pair per
//! child. The parent steps nodes (CONGEST computation is free;
//! only bandwidth is charged) and plays the stage-2 splicer by reading
//! children in ascending shard order — ascending sender order across
//! shards, which the per-node counting sort turns into the reference
//! delivery order. Transport faults fail closed with a
//! deterministic [`wire::EngineError`] ("died mid-round", "barrier
//! timeout", "checksum mismatch", …) instead of hanging or corrupting
//! results; `tests/faults.rs` injects each fault and pins the error.
//!
//! # Example
//!
//! ```
//! use powersparse_congest::engine::RoundEngine;
//! use powersparse_congest::sim::{SimConfig, Simulator};
//! use powersparse_engine::PooledSimulator;
//! use powersparse_graphs::generators;
//!
//! let g = generators::connected_gnp(200, 0.05, 1);
//! let config = SimConfig::for_graph(&g);
//! let mut seq = Simulator::new(&g, config);
//! let mut par = PooledSimulator::with_shards(&g, config, 4);
//! let a = powersparse::mis::luby_mis(&mut seq, 1, 7);
//! let b = powersparse::mis::luby_mis(&mut par, 1, 7);
//! assert_eq!(a, b);
//! assert_eq!(seq.metrics(), par.metrics());
//! ```

mod pool;
pub mod pooled;
pub mod process;
pub mod routing;
pub mod wire;

pub use pooled::{PooledPhase, PooledSimulator};
pub use process::{ProcessPhase, ProcessSimulator};
