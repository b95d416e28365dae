//! One shard's round: the single definition of a synchronous round that
//! every engine runs, and the one function that closes it.
//!
//! A **shard** is a contiguous node range together with the directed
//! edges its nodes send on (CSR-aligned, so a node's out-edges all lie
//! in its shard's edge range). The sequential engine is one shard over
//! the whole graph; the pooled engine runs one per worker; the process
//! engine's parent keeps one [`Inboxes`] per shard and its children the
//! cores. A round of one shard ([`Shard::round`]):
//!
//! 1. groups the shard's arrival run into per-node inbox slices;
//! 2. steps the shard's nodes against them, collecting their sends;
//! 3. runs the sends through the shard's [`MsgCore`], counting bits,
//!    messages and (when enabled) per-edge traffic;
//! 4. hands each delivery that completes to a sink: the sequential
//!    engine's sink appends it to its own arrival run, the pooled
//!    engine's buckets it by receiver shard for the splice.
//!
//! Each delivery carries its receiver ([`Routed`]). An arrival run keeps
//! each receiver's messages in ascending sender order, FIFO per edge —
//! the core's round order, and the order in which the engines append
//! shards' deliveries — and the grouping is a stable counting sort (two
//! linear passes into one flat buffer, no per-node allocation), so every
//! inbox gets the delivery order of the engine contract.
//!
//! [`close_round`] ends every engine's round: it merges the shards'
//! [`ShardTally`]s into [`Metrics`] and emits the round's
//! [`RoundObs`] and [`RoundSpans`]; [`Parked`] keeps every engine's
//! phase buffers from one phase to the next.

use crate::engine::{Delivery, Metrics, Outbox, SendRecord};
use crate::msgcore::MsgCore;
use crate::probe::{now_if, ns_between, Probe, RoundObs, RoundSpans};
use powersparse_graphs::{Graph, NodeId};
use std::any::Any;
use std::ops::Range;

/// An engine's last closed phase's buffers, cleared (messages dropped,
/// capacity kept) and type-erased. The next phase of the same message
/// type opens with them instead of building O(m) cursors and regrowing
/// every buffer; a phase of another type builds fresh ones.
#[derive(Debug, Default)]
pub struct Parked(Option<Box<dyn Any + Send>>);

impl Parked {
    /// The parked buffers if they are a `B`, else `fresh()`, called
    /// after buffers of another type are freed.
    pub fn take_or<B: Any + Send>(&mut self, fresh: impl FnOnce() -> B) -> B {
        if let Some(Ok(bufs)) = self.0.take().map(|b| b.downcast::<B>()) {
            return *bufs;
        }
        fresh()
    }

    /// Parks a closing phase's buffers, which the caller has cleared.
    pub fn park<B: Any + Send>(&mut self, bufs: B) {
        self.0 = Some(Box::new(bufs));
    }
}

/// A delivery on its way to an inbox: `(receiver, sender, payload)`.
pub type Routed<M> = (NodeId, NodeId, M);

/// The inboxes of a contiguous node range: the arrival run of delivered
/// but unread messages, and the counting-sort workspace that groups it
/// per node. Every buffer keeps its capacity across rounds.
#[derive(Debug)]
pub struct Inboxes<M> {
    /// The nodes whose inboxes these are.
    nodes: Range<usize>,
    /// Delivered, unread messages, each receiver's in delivery order.
    run: Vec<Routed<M>>,
    /// Inbox start offset per local node (`len = nodes + 1` after a
    /// grouping).
    starts: Vec<usize>,
    /// Write cursors of the counting sort (reset from `starts`).
    cursors: Vec<usize>,
    /// The grouped inboxes: local node `l`'s is
    /// `buf[starts[l]..starts[l + 1]]`.
    buf: Vec<Delivery<M>>,
}

impl<M> Inboxes<M> {
    /// Empty inboxes for `nodes`.
    pub fn new(nodes: Range<usize>) -> Self {
        Self {
            nodes,
            run: Vec::new(),
            starts: Vec::new(),
            cursors: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Whether no delivered message is waiting to be read.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// Appends one delivery to the arrival run.
    pub fn push(&mut self, delivery: Routed<M>) {
        self.run.push(delivery);
    }

    /// Makes room for `additional` more deliveries in the arrival run,
    /// exactly: a run reserved from the count of its deliveries carries
    /// no doubling slack.
    pub fn reserve(&mut self, additional: usize) {
        self.run.reserve_exact(additional);
    }

    /// Moves every delivery of `cell` onto the end of the arrival run,
    /// leaving `cell` empty: swapped in whole when the run is empty,
    /// appended (a memcpy-style move) otherwise.
    pub fn append(&mut self, cell: &mut Vec<Routed<M>>) {
        if self.run.is_empty() {
            std::mem::swap(&mut self.run, cell);
        } else {
            self.run.append(cell);
        }
    }

    /// Drops every unread delivery, keeping capacity.
    pub fn clear(&mut self) {
        self.run.clear();
        self.starts.clear();
        self.cursors.clear();
        self.buf.clear();
    }

    /// Hands every nonempty inbox, in node order, to `f` with its node's
    /// entry of `state` (one per node of the range), consuming the run.
    pub fn read<S>(&mut self, state: &mut [S], f: impl Fn(&mut S, NodeId, &[Delivery<M>])) {
        if self.run.is_empty() {
            return;
        }
        self.group();
        for (l, s) in state.iter_mut().enumerate() {
            let inbox = self.inbox(l);
            if !inbox.is_empty() {
                f(s, NodeId::from(self.nodes.start + l), inbox);
            }
        }
    }

    /// Marks each receiver of the run in `stamps` (one slot per node of
    /// the graph) with `stamp`, and returns how many did not carry it
    /// yet. A fresh stamp per round counts the round's distinct
    /// receivers without clearing an n-sized set every round.
    fn stamp_receivers(&self, stamps: &mut [u64], stamp: u64) -> u64 {
        let mut fresh = 0u64;
        for (to, _, _) in &self.run {
            let slot = &mut stamps[to.index()];
            if *slot != stamp {
                *slot = stamp;
                fresh += 1;
            }
        }
        fresh
    }

    /// Groups the run (consumed) into per-node inbox slices with a
    /// stable counting sort: one counting pass, one placement pass.
    fn group(&mut self) {
        let (lo, n) = (self.nodes.start, self.nodes.len());
        let total = self.run.len();
        self.starts.clear();
        self.starts.resize(n + 1, 0);
        for (to, _, _) in &self.run {
            self.starts[to.index() - lo + 1] += 1;
        }
        for l in 0..n {
            self.starts[l + 1] += self.starts[l];
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.starts[..n]);
        self.buf.clear();
        self.buf.reserve(total);
        let spare = self.buf.spare_capacity_mut();
        for (to, from, msg) in self.run.drain(..) {
            let l = to.index() - lo;
            let slot = self.cursors[l];
            self.cursors[l] += 1;
            spare[slot].write((from, msg));
        }
        // SAFETY: the per-node counts sum to `total` and each cursor
        // walks its own disjoint `starts[l]..starts[l + 1]` subrange, so
        // every slot in `0..total` was initialized exactly once above.
        unsafe { self.buf.set_len(total) };
    }

    /// Local node `l`'s inbox (valid after [`Self::group`]).
    fn inbox(&self, l: usize) -> &[Delivery<M>] {
        &self.buf[self.starts[l]..self.starts[l + 1]]
    }

    /// Groups the run and steps every node of the range against its
    /// inbox, in node order: `f` gets the node's entry of `state` (one
    /// per node of the range) and an [`Outbox`] appending to `sends`.
    /// Returns the nanoseconds spent grouping and stepping, both 0
    /// unless `timed`.
    pub fn step<S>(
        &mut self,
        graph: &Graph,
        state: &mut [S],
        sends: &mut Vec<SendRecord<M>>,
        f: impl Fn(&mut S, NodeId, &[Delivery<M>], &mut Outbox<'_, M>),
        timed: bool,
    ) -> (u64, u64) {
        debug_assert_eq!(state.len(), self.nodes.len(), "one state per node");
        let t0 = now_if(timed);
        self.group();
        let t1 = now_if(timed);
        for (l, s) in state.iter_mut().enumerate() {
            let v = NodeId::from(self.nodes.start + l);
            f(s, v, self.inbox(l), &mut Outbox::new(graph, v, sends));
        }
        (ns_between(t0, t1), ns_between(t1, now_if(timed)))
    }
}

/// What one shard's round measured, merged across shards by
/// [`close_round`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTally {
    /// Bits the shard's nodes sent.
    pub bits: u64,
    /// Messages the shard's core delivered.
    pub messages: u64,
    /// The largest queue depth of one of the shard's edges.
    pub peak_depth: u64,
    /// The shard's queue footprint at transfer start: its backlog plus
    /// its sends of the round.
    pub cells: u64,
    /// The shard's edges still holding queued bits after the round.
    pub active_edges: u64,
    /// Nanoseconds spent stepping the shard's nodes (probe only).
    pub step_ns: u64,
    /// Nanoseconds spent moving the shard's messages: grouping its
    /// arrivals, its core's round and, on the pooled engine, its splice
    /// (probe only).
    pub transfer_ns: u64,
}

/// One shard of an engine phase: its message core over the shard's
/// edges, the inboxes of its nodes and the buffer their sends collect
/// in. Every buffer keeps its capacity across rounds.
#[derive(Debug)]
pub struct Shard<M> {
    /// The shard's directed edges, which the core indexes locally.
    edges: Range<usize>,
    /// The per-edge queues of the shard's edges.
    pub core: MsgCore<M>,
    /// The inboxes of the shard's nodes.
    pub inboxes: Inboxes<M>,
    /// The round's sends, drained by the core.
    pub sends: Vec<SendRecord<M>>,
}

impl<M: Clone> Shard<M> {
    /// An empty shard of `nodes` whose out-edges are `edges`.
    pub fn new(nodes: Range<usize>, edges: Range<usize>) -> Self {
        Self {
            core: MsgCore::new(edges.len()),
            edges,
            inboxes: Inboxes::new(nodes),
            sends: Vec::new(),
        }
    }

    /// Drops every queued message and unread delivery, keeping
    /// capacity.
    pub fn clear(&mut self) {
        self.core.clear();
        self.inboxes.clear();
        self.sends.clear();
    }

    /// One round of the shard: group its arrivals, step its nodes with
    /// `f` against `state` (one entry per node of the shard), and run
    /// their sends through the core, which moves up to `bw` bits per
    /// edge. Each delivery that completes goes to `sink`, together with
    /// the shard's own inboxes. `edge_bits`/`edge_messages` are the
    /// shard's slices of the per-edge counters, empty when per-edge
    /// accounting is off. Span times are taken only when `timed`.
    #[allow(clippy::too_many_arguments)]
    pub fn round<S>(
        &mut self,
        graph: &Graph,
        bw: u64,
        state: &mut [S],
        edge_bits: &mut [u64],
        edge_messages: &mut [u64],
        f: impl Fn(&mut S, NodeId, &[Delivery<M>], &mut Outbox<'_, M>),
        timed: bool,
        mut sink: impl FnMut(&mut Inboxes<M>, Routed<M>),
    ) -> ShardTally {
        let Self {
            edges,
            core,
            inboxes,
            sends,
        } = self;
        debug_assert!(sends.is_empty(), "send buffer not drained last round");
        let (group_ns, step_ns) = inboxes.step(graph, state, sends, f, timed);
        let t0 = now_if(timed);
        let per_edge = !edge_bits.is_empty();
        let lo = edges.start;
        let (mut bits, mut messages) = (0u64, 0u64);
        let local = sends.drain(..).map(|mut s| {
            let covered = s.edges();
            debug_assert!(
                edges.start <= covered.start && covered.end <= edges.end,
                "send escaped its shard"
            );
            s.edge -= lo as u32;
            bits += s.bits * u64::from(s.fanout);
            if per_edge {
                for b in &mut edge_bits[covered.start - lo..covered.end - lo] {
                    *b += s.bits;
                }
            }
            s
        });
        let load = core.round(bw, local, |e, from, msg| {
            messages += 1;
            if per_edge {
                edge_messages[e] += 1;
            }
            sink(inboxes, (graph.edge_target(lo + e), from, msg));
        });
        ShardTally {
            bits,
            messages,
            peak_depth: load.peak_depth,
            cells: load.cells,
            active_edges: core.active_edges() as u64,
            step_ns,
            transfer_ns: group_ns + ns_between(t0, now_if(timed)),
        }
    }
}

impl<M: Clone> Default for Shard<M> {
    /// A shard of no nodes and no edges, which allocates nothing.
    fn default() -> Self {
        Self::new(0..0, 0..0)
    }
}

/// Closes one executed round of any engine. Merges the shards' tallies
/// into `metrics` — bits, messages, `peak_queue_depth`, the arena
/// gauges (the shards' footprints summed, so every engine measures the
/// whole-graph value, and scaled to bytes by the cell size of `M`, not
/// of the encoded bytes a process child queues) — and advances
/// `rounds`. When `P` gathers, it
/// then emits the round's [`RoundObs`] and [`RoundSpans`]:
///
/// * the distinct receivers are counted over `inboxes`, which hold
///   exactly this round's deliveries, with `stamps` (one slot per node);
/// * `barrier_wall` is the round's wall clock on a parallel engine,
///   where each shard waited `wall − step − transfer` at its barriers;
///   `None` on the sequential engine, whose barrier vector stays empty.
pub fn close_round<'a, M: 'a, P: Probe>(
    metrics: &mut Metrics,
    probe: &mut P,
    tallies: &[ShardTally],
    inboxes: impl IntoIterator<Item = &'a Inboxes<M>>,
    stamps: &mut [u64],
    barrier_wall: Option<u64>,
) {
    let round = metrics.rounds;
    let (mut bits, mut messages, mut cells) = (0u64, 0u64, 0u64);
    for t in tallies {
        bits += t.bits;
        messages += t.messages;
        cells += t.cells;
        metrics.peak_queue_depth = metrics.peak_queue_depth.max(t.peak_depth);
    }
    metrics.bits += bits;
    metrics.messages += messages;
    metrics.arena_cells_peak = metrics.arena_cells_peak.max(cells);
    let cell_bytes = cells * MsgCore::<M>::cell_size() as u64;
    metrics.arena_bytes_peak = metrics.arena_bytes_peak.max(cell_bytes);
    metrics.rounds += 1;
    if P::ENABLED {
        let per_shard = |get: fn(&ShardTally) -> u64| tallies.iter().map(get).collect();
        probe.on_round_end(RoundObs {
            round,
            active_edges: tallies.iter().map(|t| t.active_edges).sum(),
            dirty_nodes: inboxes
                .into_iter()
                .map(|i| i.stamp_receivers(stamps, round + 1))
                .sum(),
            messages,
            bits,
            shard_splice: per_shard(|t| t.messages),
        });
        probe.on_round_spans(RoundSpans {
            round,
            step_ns: per_shard(|t| t.step_ns),
            transfer_ns: per_shard(|t| t.transfer_ns),
            barrier_ns: barrier_wall.map_or_else(Vec::new, |wall| {
                tallies
                    .iter()
                    .map(|t| wall.saturating_sub(t.step_ns + t.transfer_ns))
                    .collect()
            }),
            arena_cells: per_shard(|t| t.cells),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A parked value of the asked type comes back; one of another type
    /// is freed before the fresh one is built.
    #[test]
    fn take_or_reuses_a_match_and_frees_a_mismatch_first() {
        let mut parked = Parked::default();
        parked.park(vec![0u32; 8]);
        assert_eq!(parked.take_or(Vec::<u32>::new).len(), 8);
        assert!(parked.take_or(Vec::<u32>::new).is_empty(), "taken once");
        let token = std::sync::Arc::new(());
        parked.park(std::sync::Arc::clone(&token));
        assert_eq!(parked.take_or(|| std::sync::Arc::strong_count(&token)), 1);
    }

    /// The grouping against per-node `Vec` pushes, over seeded random
    /// arrival runs for node ranges that do not start at 0 (a shard's):
    /// empty ranges and empty runs included, the buffers reused across
    /// rounds, deliveries arriving one by one and as spliced cells.
    #[test]
    fn read_groups_like_per_node_pushes() {
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let lo = rng.gen_range(0..20usize);
            let nodes = lo..lo + rng.gen_range(0..12usize);
            let mut inboxes = Inboxes::new(nodes.clone());
            let mut stamps = vec![0u64; nodes.end];
            for round in 1..=4u64 {
                let mut want: Vec<Vec<Delivery<u32>>> = vec![Vec::new(); nodes.len()];
                let mut cell = Vec::new();
                let count = if nodes.is_empty() {
                    0
                } else {
                    rng.gen_range(0..40u32)
                };
                for msg in 0..count {
                    let to = NodeId::from(rng.gen_range(nodes.clone()));
                    let from = NodeId(rng.gen_range(0..64u32));
                    want[to.index() - lo].push((from, msg));
                    if rng.gen_bool(0.5) {
                        cell.push((to, from, msg));
                    } else {
                        inboxes.append(&mut cell);
                        inboxes.push((to, from, msg));
                    }
                }
                inboxes.append(&mut cell);
                assert!(cell.is_empty());
                assert_eq!(inboxes.is_empty(), count == 0);
                let receivers = want.iter().filter(|w| !w.is_empty()).count() as u64;
                assert_eq!(inboxes.stamp_receivers(&mut stamps, round), receivers);
                let mut got: Vec<Option<(NodeId, Vec<Delivery<u32>>)>> = vec![None; nodes.len()];
                inboxes.read(&mut got, |slot, v, inbox| {
                    assert!(slot.is_none(), "{v} read twice");
                    *slot = Some((v, inbox.to_vec()));
                });
                for (l, (got, want)) in got.into_iter().zip(want).enumerate() {
                    let want = (!want.is_empty()).then(|| (NodeId::from(lo + l), want));
                    assert_eq!(got, want, "seed {seed}, round {round}, node {}", lo + l);
                }
                assert!(inboxes.is_empty(), "reading consumes the run");
                let mut again = vec![false; nodes.len()];
                inboxes.read(&mut again, |seen, _, _| *seen = true);
                assert!(!again.contains(&true), "nothing is read twice");
            }
        }
    }
}
