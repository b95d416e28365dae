//! A synchronous CONGEST-model simulator for the `powersparse`
//! reproduction of *Distributed Symmetry Breaking on Power Graphs via
//! Sparsification* (PODC 2023).
//!
//! # Model
//!
//! The communication network is a graph `G` ([`powersparse_graphs::Graph`]).
//! Computation proceeds in synchronous rounds; in each round every node may
//! send messages to each of its `G`-neighbors, subject to a per-directed-edge
//! budget of [`sim::SimConfig::bandwidth`] bits per round (the CONGEST
//! bandwidth `Θ(log n)`). Local computation is free, exactly as in the model.
//!
//! # Engine
//!
//! * [`engine::RoundEngine`] abstracts round execution: step scheduling,
//!   message delivery and metrics access. [`sim::Simulator`] is the
//!   sequential reference implementation; the `powersparse-engine` crate
//!   provides the pooled and multi-process parallel backends. Engine-generic
//!   algorithms drive typed phases with per-node state slices
//!   ([`engine::RoundPhase::step`]); the engine contract in [`engine`]
//!   pins down delivery order so every backend is bit-for-bit
//!   deterministic.
//! * [`sim::Simulator`] owns the metrics; algorithms open typed
//!   [`sim::Phase`]s and drive them round by round through
//!   [`engine::RoundPhase`], the same API every backend implements. A
//!   backend supplies `step` and `read_inboxes`; the trait defines
//!   `settle`, the quiescence loop, once for all of them.
//! * Messages carry an explicit bit size. A message larger than the
//!   remaining per-edge budget is **fragmented automatically**: it occupies
//!   the edge for `⌈bits / bandwidth⌉` rounds and is delivered when its
//!   last bit arrives. Pipelining costs therefore *emerge from the engine*
//!   instead of being asserted — the measured round counts are the
//!   experiment results.
//! * [`sim::Metrics`] tracks rounds, messages, bits, and per-edge traffic
//!   (used by the Figure-1 tightness tests of Lemma 4.2).
//! * [`shard`] defines one shard's round — group its arrival run into
//!   inboxes, step its nodes, run their sends through its
//!   [`msgcore::MsgCore`] — and [`shard::close_round`], which ends every
//!   engine's round: the sequential engine is one shard over the whole
//!   graph, the parallel backends one per worker or child.
//! * [`probe`] observes a run on any backend: one [`probe::RoundObs`]
//!   and one [`probe::RoundSpans`] per round, one [`probe::PhaseObs`] per
//!   phase. [`probe::SpanProbe`] records them all; the default
//!   [`probe::NoProbe`] compiles the layer out.
//!
//! # Primitives
//!
//! [`primitives`] implements the communication toolbox of Section 4 of the
//! paper as real node programs: leader election + global BFS tree,
//! convergecast (Lemma 4.3), tree broadcast and their composition
//! [`primitives::sum_and_broadcast`] (the check of one seed candidate,
//! Claim 5.6), k-hop floods — flag-merging, and the `min`-merging
//! [`primitives::khop_min`] behind knock-out beeps and Luby's ranks —
//! pipelined ID-set exchange (Lemma 4.1), multicast over distributed BFS
//! trees — the *Broadcast* operation of Lemma 4.2 — and the ID-tagged
//! k-hop beep layer of Lemma 8.2.
//!
//! # Example
//!
//! ```
//! use powersparse_congest::engine::RoundPhase;
//! use powersparse_congest::sim::{SimConfig, Simulator};
//! use powersparse_graphs::generators;
//!
//! let g = generators::path(4);
//! let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
//! // One round of "send your ID left and right".
//! let mut phase = sim.phase::<u32>();
//! phase.step_stateless(|v, _inbox, out| {
//!     for w in out.neighbors(v).to_vec() {
//!         out.send(v, w, v.0, 8);
//!     }
//! });
//! // Read what arrived: each node keeps the IDs it heard.
//! let mut got: Vec<Vec<u32>> = vec![Vec::new(); 4];
//! phase.step(&mut got, |mine, _v, inbox, _out| {
//!     mine.extend(inbox.iter().map(|&(_, id)| id));
//! });
//! drop(phase);
//! assert_eq!(got[1], vec![0, 2]);
//! assert_eq!(sim.metrics().rounds, 2);
//! ```

pub mod engine;
pub mod msgcore;
pub mod primitives;
pub mod probe;
pub mod shard;
pub mod sim;
pub mod trees;

pub use engine::{
    Delivery, Message, Metrics, MetricsConfig, Outbox, RoundEngine, RoundPhase, SendRecord,
};
pub use msgcore::MsgCore;
pub use probe::{NoProbe, PhaseObs, Probe, RoundObs, SpanProbe};
pub use sim::{Phase, SimConfig, Simulator};
pub use trees::{GlobalTree, QTrees};
