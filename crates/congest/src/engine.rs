//! The [`RoundEngine`] abstraction: what it means to *execute* synchronous
//! CONGEST rounds, independently of how the execution is scheduled.
//!
//! The reference implementation is the sequential [`crate::sim::Simulator`]
//! (one thread, nodes stepped in ID order). The parallel backends live
//! in the `powersparse-engine` crate: the persistent worker-pool
//! `PooledSimulator` and the multi-process `ProcessSimulator`. All must
//! be **observationally identical**: same per-node outputs,
//! same [`Metrics`] totals, same per-edge traffic — the engine contract
//! below pins down the delivery order that makes this possible.
//!
//! # Engine contract
//!
//! 1. **Step order is unobservable.** A node-step function receives only
//!    its own per-node state `&mut S`, its inbox, and an [`Outbox`]; it
//!    may read shared captured data but can mutate nothing outside its
//!    state. Any schedule (sequential, pooled, multi-process) therefore
//!    produces the same result.
//! 2. **Deterministic delivery order.** Messages completing in the same
//!    round are appended to the receiver's inbox by ascending sender ID,
//!    FIFO within an edge. The graph has no parallel edges, so this is
//!    ascending *directed edge index* as one receiver sees it. The
//!    message core produces it by handling a round's sends in sender
//!    order and moving the backlog of every loaded edge `≤ e` before a
//!    send on edge `e`. Deliveries to different receivers may interleave
//!    in any order. Backends may batch, splice or regroup deliveries
//!    internally as long as the per-node inbox sequences are preserved.
//! 3. **Identical accounting.** `rounds` increments once per step,
//!    `bits`/`messages` and `peak_queue_depth` accumulate identically
//!    regardless of backend; so do the per-edge counters whenever
//!    per-edge accounting is enabled (see below).
//! 4. **Scheduling is a backend detail.** How a backend maps node steps
//!    to threads — a persistent pool behind an epoch barrier, forked
//!    shard processes, or a single loop — is invisible to node programs;
//!    no trait surface exposes it. The conformance suite in
//!    `crates/engine/tests/conformance/` holds every backend to the
//!    three rules above across the full algorithm matrix, under both
//!    accounting modes.
//!
//! # The flat message core
//!
//! All three backends run a round's sends through the shared message
//! core [`crate::msgcore::MsgCore`] (the sequential engine holds one over
//! the whole graph; each shard of a parallel backend holds one over its
//! CSR-aligned edge range) in one pass, [`crate::msgcore::MsgCore::round`].
//! A send that completes in its round — it fits what its edge has left
//! and nothing is queued ahead of it — is delivered at once. Only the
//! rest take a cell in a flat arena with intrusive per-edge FIFOs,
//! tracked by an **active-edge worklist**. A round visits only edges
//! that send or hold bits, and quiescence checks are O(1) — so a quiet
//! round (fragments of large messages still crossing, the common case on
//! sparsified subgraphs) costs `O(active edges)`, not `O(m)`. The
//! bandwidth/fragmentation semantics live solely in
//! [`crate::msgcore::MsgCore::round`], which is what keeps rule 3
//! impossible to desynchronize between backends.
//!
//! # Accounting modes
//!
//! The always-on counters — `rounds`, `charged_rounds`, `messages`,
//! `bits`, `peak_queue_depth` — cost O(1) per round to maintain. The
//! **per-edge** counters (`edge_messages`/`edge_bits`, two `2m`-entry
//! arrays updated on every send and delivery) are **opt-in** via
//! [`MetricsConfig::per_edge`] (builder:
//! [`crate::sim::SimConfig::with_per_edge_accounting`]). With accounting
//! off — the default, and what the workload suite uses at scale — the
//! arrays are never allocated and
//! [`RoundEngine::messages_across`]/[`RoundEngine::bits_across`] panic
//! with "per-edge accounting is disabled", identically on every
//! backend. Enabling the mode changes no always-on counter: they stay
//! bit-for-bit identical either way (conformance-gated).
//!
//! # Probe emission points
//!
//! Engines are generic over a [`crate::probe::Probe`] (default
//! [`crate::probe::NoProbe`], which compiles the entire layer out) and
//! emit one [`crate::probe::RoundObs`] per `Metrics::rounds` increment
//! — the observation fires exactly where the round counter advances, so
//! trace length equals `rounds` on every backend:
//!
//! * the sequential `Simulator` emits at the end of its round step,
//!   after the transfer delivered;
//! * the pooled and process backends gather shard-local counts during
//!   the round stages and emit **on the caller thread** after the
//!   stage-2 barrier (the process backend's parent has read every
//!   child's `Deliveries` and `RoundStats` frames), merged exactly where
//!   the shard counters merge;
//! * [`RoundEngine::charge_rounds`] emits one zeroed observation per
//!   charged round, in order.
//!
//! The observation's engine-invariant core (round index, post-transfer
//! active edges, distinct delivery receivers, messages, bits) is part
//! of rule 3: conformance pins it bit-for-bit across backends at every
//! shard count. A [`crate::probe::PhaseObs`] fires when a typed phase
//! drops, carrying the phase ordinal and the rounds/messages/bits it
//! consumed.
//!
//! # Misbehaving node programs
//!
//! The contract is two-sided: programs that break the rules are rejected
//! **identically on every backend** (same panic, same message), so no
//! backend silently tolerates a program another backend would refuse:
//!
//! * sending to a non-neighbor panics with "… is not an edge"
//!   ([`Outbox::send`] resolves the directed edge index first);
//! * sending to a CSR position at or beyond the sender's degree panics
//!   with "… has no neighbor at position …" ([`Outbox::send_at`]);
//! * sending on behalf of another node panics with "attempted to send
//!   as" (the outbox is bound to the acting node);
//! * zero-bit messages panic with "messages must have positive size";
//! * a state slice whose length differs from the node count panics with
//!   "state slice must have one entry per node" in both
//!   [`RoundPhase::step`] and [`RoundPhase::settle`];
//! * a [`RoundPhase::settle`] whose messages are still in flight after
//!   its `max_rounds` silent rounds panics with "settle exceeded
//!   `max_rounds` rounds" (the loop is defined once, in the trait);
//! * querying [`RoundEngine::messages_across`] /
//!   [`RoundEngine::bits_across`] on an engine built without
//!   [`MetricsConfig::per_edge`] panics with "per-edge accounting is
//!   disabled".
//!
//! The remaining misbehavior — *writing another node's state* — is
//! rejected statically: a step function receives `&mut S` for its own
//! node only, and the `F: Sync` bound keeps captured context read-only
//! across worker threads. `tests/conformance/negative.rs` in
//! `powersparse-engine` pins the runtime rejections down on all three
//! engines (the multi-process backend steps nodes on the parent side,
//! so contract panics fire before any wire traffic).
//!
//! # Transport failure semantics
//!
//! Backends that cross a process boundary add a third contract side:
//! **transport faults fail closed**. A backend may never return a wrong
//! answer or hang forever because its wire misbehaved — every detectable
//! fault becomes a deterministic panic whose message is the `Display` of
//! the backend's `EngineError` (in `powersparse-engine`, the
//! `wire::EngineError` carrying the shard index and a stable
//! description). The multi-process backend's vocabulary, pinned by its
//! fault-injection wall (`tests/faults.rs`):
//!
//! * a short read mid-frame → "truncated frame";
//! * a frame whose CRC does not authenticate (header or payload
//!   corruption) → "frame checksum mismatch";
//! * a duplicated or reordered frame → "unexpected frame
//!   (want …, got …)" — the per-shard stream has exactly one legal next
//!   frame kind at all times;
//! * a child process dying (socket closed) → "child for shard _s_ died
//!   mid-round (socket closed)";
//! * a child that stops responding → "barrier timeout waiting on
//!   shard _s_", bounded by the engine's configured barrier timeout;
//! * a child speaking another protocol version → "protocol version
//!   skew (want …, got …)", raised at construction by its `Hello`
//!   (pinned by the process module's own unit test, since the
//!   handshake cannot be faulted from outside).
//!
//! Two rules sharpen "fail closed" beyond the vocabulary above:
//!
//! * **Poisoning.** A fault that can strand the stream *inside* a frame
//!   (a mid-frame read timeout) latches the transport: every subsequent
//!   receive replays the original error. Once the frame boundary is
//!   lost, resynchronizing on whatever bytes come next could silently
//!   misparse a later frame, so the transport refuses to try — the
//!   first error is the permanent answer for that link.
//! * **Bounded trust in headers.** A declared payload length is
//!   validated against the frame-size ceiling *before* any allocation,
//!   and payloads are assembled in bounded chunks, so a corrupt or
//!   hostile length header can never size an allocation.
//!
//! In-process backends have no transport and never raise these; the
//! contract only requires that *if* a backend has a wire, its failures
//! are loud, attributed, and bounded in time.
//!
//! # Writing engine-generic node programs
//!
//! Algorithms hold their mutable per-node data in a state slice (one entry
//! per node) and drive a typed phase with [`RoundPhase::step`]:
//!
//! ```
//! use powersparse_congest::engine::{RoundEngine, RoundPhase};
//! use powersparse_congest::sim::{SimConfig, Simulator};
//! use powersparse_graphs::generators;
//!
//! fn ids_of_neighbors<E: RoundEngine>(eng: &mut E) -> Vec<Vec<u32>> {
//!     let n = eng.graph().n();
//!     let id_bits = eng.graph().id_bits();
//!     let mut heard: Vec<Vec<u32>> = vec![Vec::new(); n];
//!     let mut phase = eng.phase::<u32>();
//!     phase.step_stateless(|v, _inbox, out| out.broadcast(v, v.0, id_bits));
//!     phase.settle(8 * id_bits as u64, &mut heard, |mine, _v, inbox| {
//!         mine.extend(inbox.iter().map(|&(_, id)| id));
//!     });
//!     heard
//! }
//!
//! let g = generators::cycle(5);
//! let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
//! let heard = ids_of_neighbors(&mut sim);
//! assert_eq!(heard[0], vec![1, 4]);
//! ```

use powersparse_graphs::{Graph, NodeId};

/// A CONGEST message payload: cloneable and shareable across worker
/// threads. Blanket-implemented; never implement manually.
pub trait Message: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> Message for T {}

/// A delivered message: `(sender, payload)`.
pub type Delivery<M> = (NodeId, M);

/// Which cost counters an engine maintains beyond the always-on set.
/// Part of [`crate::sim::SimConfig`]; shared by all backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Maintain the per-directed-edge `edge_messages`/`edge_bits`
    /// counters (two `2m`-entry arrays, updated on every send and
    /// delivery). Off by default: most callers only read the aggregate
    /// counters, and the arrays are pure overhead at workload-suite
    /// scale. Required for [`RoundEngine::messages_across`] /
    /// [`RoundEngine::bits_across`].
    pub per_edge: bool,
}

/// Cumulative cost counters of a round-engine run.
///
/// All counters accumulate across phases of the same engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Synchronous rounds executed (including rounds charged via
    /// [`RoundEngine::charge_rounds`]).
    pub rounds: u64,
    /// Rounds charged analytically via [`RoundEngine::charge_rounds`]
    /// (a subset of `rounds`; nonzero only in the charged sub-simulations
    /// the `powersparse::params` docs list under "Substitutions").
    pub charged_rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total bits sent.
    pub bits: u64,
    /// Peak queue depth: the maximum over rounds and directed edges of
    /// the edge's queue in the per-edge FIFO model — its backlog at the
    /// start of the round plus its sends of the round, whether or not a
    /// send is delivered at once. A congestion gauge for the benchmark
    /// manifests; part of the engine contract — every backend must
    /// measure the identical value.
    pub peak_queue_depth: u64,
    /// Peak footprint of the queue model in cells: the maximum over
    /// rounds of the *total* backlog plus all of the round's sends
    /// across all message cores — what a core that queued every message
    /// would hold at transfer start. Direct deliveries count although
    /// they take no arena cell. Summed across shards at the round
    /// barrier, so every backend measures the identical value regardless
    /// of how the arena is partitioned.
    pub arena_cells_peak: u64,
    /// Peak footprint of the queue model in bytes: `arena_cells_peak`
    /// rounds scaled by the per-message cell size (payload plus
    /// intrusive FIFO links), maxed over rounds. Engine-invariant like
    /// [`Metrics::arena_cells_peak`].
    pub arena_bytes_peak: u64,
    /// Whether per-edge accounting is enabled ([`MetricsConfig`]).
    pub per_edge: bool,
    /// Per-directed-edge delivered message counts, indexed like the CSR
    /// adjacency (edge `u→neighbors(u)[i]` has index `offset(u) + i`).
    /// Empty unless [`MetricsConfig::per_edge`] was set.
    pub edge_messages: Vec<u64>,
    /// Per-directed-edge cumulative bits. Empty unless
    /// [`MetricsConfig::per_edge`] was set.
    pub edge_bits: Vec<u64>,
}

impl Metrics {
    /// Zeroed metrics sized for `g`: one slot per directed edge when
    /// `config` enables per-edge accounting, no per-edge storage at all
    /// otherwise.
    pub fn for_graph(g: &Graph, config: MetricsConfig) -> Self {
        let dir_edges = if config.per_edge { 2 * g.m() } else { 0 };
        Self {
            per_edge: config.per_edge,
            edge_messages: vec![0; dir_edges],
            edge_bits: vec![0; dir_edges],
            ..Self::default()
        }
    }

    /// Messages delivered across the directed edge `u → v` so far — the
    /// single definition behind every backend's
    /// [`RoundEngine::messages_across`].
    ///
    /// # Panics
    ///
    /// Panics if per-edge accounting is disabled, or if `{u, v}` is not
    /// an edge.
    pub fn messages_across(&self, g: &Graph, u: NodeId, v: NodeId) -> u64 {
        self.require_per_edge();
        self.edge_messages[dir_edge_index(g, u, v)]
    }

    /// Bits sent across the directed edge `u → v` so far — the single
    /// definition behind every backend's [`RoundEngine::bits_across`].
    ///
    /// # Panics
    ///
    /// Panics if per-edge accounting is disabled, or if `{u, v}` is not
    /// an edge.
    pub fn bits_across(&self, g: &Graph, u: NodeId, v: NodeId) -> u64 {
        self.require_per_edge();
        self.edge_bits[dir_edge_index(g, u, v)]
    }

    /// The documented rejection of per-edge queries in aggregate-only
    /// mode, shared by all backends so they panic identically.
    fn require_per_edge(&self) {
        assert!(
            self.per_edge,
            "per-edge accounting is disabled: construct the engine with \
             SimConfig::with_per_edge_accounting (MetricsConfig::per_edge) \
             to query messages_across/bits_across"
        );
    }
}

/// Resolves the directed edge index of `u → v`: directed edge
/// `u→neighbors(u)[i]` has index `g.offsets()[u] + i` (the graph's own
/// CSR offsets double as the directed-edge index base — engines borrow
/// them via [`Graph::offsets`] instead of keeping an O(n) copy).
///
/// # Panics
///
/// Panics if `{u, v}` is not an edge of `g`.
pub fn dir_edge_index(g: &Graph, u: NodeId, v: NodeId) -> usize {
    let pos = g
        .neighbors(u)
        .binary_search(&v)
        .unwrap_or_else(|_| panic!("{u} → {v} is not an edge"));
    g.offsets()[u.index()] as usize + pos
}

/// A message handed to the engine for queueing on a directed edge.
#[derive(Debug, Clone)]
pub struct SendRecord<M> {
    /// Directed edge index (sender-side CSR indexing).
    pub edge: usize,
    /// Size charged to the edge, in bits.
    pub bits: u64,
    /// The sender.
    pub from: NodeId,
    /// The payload.
    pub msg: M,
}

/// Send interface handed to the per-node round handler.
#[derive(Debug)]
pub struct Outbox<'a, M> {
    graph: &'a Graph,
    from_expected: NodeId,
    sends: &'a mut Vec<SendRecord<M>>,
}

impl<'a, M: Clone> Outbox<'a, M> {
    /// Creates the outbox for the node `from_expected`, appending into
    /// `sends` (engine backends hand each worker its own buffer).
    pub fn new(graph: &'a Graph, from_expected: NodeId, sends: &'a mut Vec<SendRecord<M>>) -> Self {
        Self {
            graph,
            from_expected,
            sends,
        }
    }

    /// Neighbors of `v` in the communication network (the only legal
    /// message destinations).
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.graph.neighbors(v)
    }

    /// Sends `msg` of `bits` bits from `from` to neighbor `to`. Large
    /// messages are fragmented automatically and arrive once the last bit
    /// has crossed the edge.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not the node currently acting, if `to` is not a
    /// `G`-neighbor of `from`, or if `bits == 0`.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M, bits: usize) {
        self.check_send(from, bits);
        let edge = dir_edge_index(self.graph, from, to);
        self.sends.push(SendRecord {
            edge,
            bits: bits as u64,
            from,
            msg,
        });
    }

    /// Sends `msg` of `bits` bits from `from` to `neighbors(from)[pos]`,
    /// addressed by CSR position: the directed edge index is
    /// `offsets[from] + pos`, with no search.
    ///
    /// # Panics
    ///
    /// As for [`Outbox::send`], and if `pos` is not below `from`'s
    /// degree.
    pub fn send_at(&mut self, from: NodeId, pos: usize, msg: M, bits: usize) {
        self.check_send(from, bits);
        let degree = self.graph.degree(from);
        assert!(
            pos < degree,
            "{from} has no neighbor at position {pos} (degree {degree})"
        );
        self.sends.push(SendRecord {
            edge: self.graph.offsets()[from.index()] as usize + pos,
            bits: bits as u64,
            from,
            msg,
        });
    }

    /// Sends `msg` to every neighbor of `from`. Unlike per-neighbor
    /// [`Outbox::send`] calls, this derives each directed edge index
    /// directly from the CSR position — no binary search on the engine's
    /// hottest path.
    ///
    /// # Panics
    ///
    /// As for [`Outbox::send`].
    pub fn broadcast(&mut self, from: NodeId, msg: M, bits: usize) {
        self.check_send(from, bits);
        let base = self.graph.offsets()[from.index()] as usize;
        for i in 0..self.graph.degree(from) {
            self.sends.push(SendRecord {
                edge: base + i,
                bits: bits as u64,
                from,
                msg: msg.clone(),
            });
        }
    }

    /// The rejections every send shares: the outbox is bound to the
    /// acting node, and a message has at least one bit.
    fn check_send(&self, from: NodeId, bits: usize) {
        assert_eq!(
            from, self.from_expected,
            "node {} attempted to send as {}",
            self.from_expected, from
        );
        assert!(bits > 0, "messages must have positive size");
    }
}

/// A synchronous CONGEST round executor over a fixed communication graph.
///
/// Implementations own the [`Metrics`] and schedule node-step functions;
/// algorithms open typed communication phases with [`RoundEngine::phase`]
/// and drive them via [`RoundPhase`]. See the module docs for the
/// observational-equivalence contract every backend must satisfy.
pub trait RoundEngine {
    /// The phase type produced by [`RoundEngine::phase`].
    type Phase<'s, M: Message>: RoundPhase<M>
    where
        Self: 's;

    /// The communication network.
    fn graph(&self) -> &Graph;

    /// Per-edge-per-round bit budget.
    fn bandwidth(&self) -> usize;

    /// Cost metrics so far.
    fn metrics(&self) -> &Metrics;

    /// Charges `r` rounds without running them (the charged
    /// sub-simulations the `powersparse::params` docs list under
    /// "Substitutions"); every backend calls
    /// [`crate::probe::charge_rounds`].
    fn charge_rounds(&mut self, r: u64);

    /// Messages delivered across the directed edge `u → v` so far.
    /// Requires per-edge accounting ([`MetricsConfig::per_edge`]).
    ///
    /// # Panics
    ///
    /// Panics with "per-edge accounting is disabled" when the engine was
    /// built without [`MetricsConfig::per_edge`] (identically on every
    /// backend), or if `{u, v}` is not an edge.
    fn messages_across(&self, u: NodeId, v: NodeId) -> u64;

    /// Bits sent across the directed edge `u → v` so far. Requires
    /// per-edge accounting ([`MetricsConfig::per_edge`]).
    ///
    /// # Panics
    ///
    /// Panics with "per-edge accounting is disabled" when the engine was
    /// built without [`MetricsConfig::per_edge`] (identically on every
    /// backend), or if `{u, v}` is not an edge.
    fn bits_across(&self, u: NodeId, v: NodeId) -> u64;

    /// Opens a communication phase with message type `M`.
    fn phase<M: Message>(&mut self) -> Self::Phase<'_, M>;
}

/// One typed communication phase driven round by round.
///
/// `state` slices must hold exactly one entry per node; entry `i` is the
/// private mutable state of node `i`, and the step function for node `i`
/// receives only that entry. This is the discipline that lets backends
/// run node steps concurrently while staying bit-for-bit deterministic.
pub trait RoundPhase<M: Message> {
    /// The communication network.
    fn graph(&self) -> &Graph;

    /// Executes one synchronous round: for every node `v`, `f` receives
    /// `v`'s state, the messages delivered to `v` this round and an
    /// [`Outbox`]. After all nodes have acted, every directed edge
    /// transfers up to `bandwidth` bits from its queue; fully transferred
    /// messages are delivered next round.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the node count.
    fn step<S, F>(&mut self, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>], &mut Outbox<'_, M>) + Sync;

    /// Runs `t` rounds with the same handler.
    fn step_n<S, F>(&mut self, t: usize, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>], &mut Outbox<'_, M>) + Sync,
    {
        for _ in 0..t {
            self.step(state, &f);
        }
    }

    /// One round for handlers that keep no per-node state (pure send /
    /// relay logic over captured shared data).
    fn step_stateless<F>(&mut self, f: F)
    where
        F: Fn(NodeId, &[Delivery<M>], &mut Outbox<'_, M>) + Sync,
    {
        let mut unit = vec![(); self.graph().n()];
        self.step(&mut unit, |_, v, inbox, out| f(v, inbox, out));
    }

    /// Hands every nonempty unread inbox to `f` and consumes it, without
    /// running a round. Backends may visit the nodes in any order, or
    /// concurrently; each inbox keeps the contract's delivery order.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the node count.
    fn read_inboxes<S, F>(&mut self, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>]) + Sync;

    /// Runs silent rounds (no new sends) until all in-flight messages
    /// have been delivered, handing **every** nonempty delivery batch
    /// (including those completing in intermediate rounds) to `f`. One
    /// definition for every backend, over [`RoundPhase::read_inboxes`].
    ///
    /// # Panics
    ///
    /// Panics with "settle exceeded `max_rounds` rounds" if messages are
    /// still in flight after `max_rounds` silent rounds, or if
    /// `state.len()` differs from the node count.
    fn settle<S, F>(&mut self, max_rounds: u64, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>]) + Sync,
    {
        let mut unit = vec![(); self.graph().n()];
        let mut spent = 0u64;
        loop {
            self.read_inboxes(state, &f);
            if !self.in_flight() {
                break;
            }
            assert!(spent < max_rounds, "settle exceeded {max_rounds} rounds");
            self.step(&mut unit, |_, _, _, _| {});
            spent += 1;
        }
    }

    /// Whether any message is still queued on an edge.
    fn in_flight(&self) -> bool;

    /// Whether the phase is fully quiescent: nothing queued on any edge
    /// **and** nothing delivered-but-unread in any inbox. Termination
    /// checks must use this rather than [`RoundPhase::in_flight`] alone.
    fn idle(&self) -> bool;
}
