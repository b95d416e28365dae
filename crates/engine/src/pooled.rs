//! The persistent-pool executor: [`PooledSimulator`] and its phase type.
//!
//! Nodes are split into contiguous, CSR-aligned shards
//! ([`crate::routing`]), one per worker, and a round runs in two
//! barrier-separated stages:
//!
//! 1. **Shard round (sender side).** Each worker runs its shard's round
//!    ([`Shard::round`]): it groups the shard's arrival run into
//!    per-node inboxes, steps its own nodes, and runs their sends
//!    through the shard's message core, which moves up to `bandwidth`
//!    bits on each owned edge. Completed messages land in
//!    per-`(sender shard, receiver shard)` delivery cells.
//! 2. **Splice (receiver side).** Each worker moves the cells bound for
//!    its nodes onto its shard's contiguous *arrival run*, in
//!    sender-shard order
//!    ([`Inboxes::append`](powersparse_congest::shard::Inboxes::append)):
//!    the first nonempty cell is swapped in whole, each later one is a
//!    `Vec::append` (a memcpy-style move). Within one cell, each
//!    receiver's messages are in ascending sender order, FIFO per edge;
//!    the run as a whole is not in global edge order.
//!
//! The caller then closes the round ([`close_round`]), merging the
//! shards' tallies into [`Metrics`]. Worker threads are spawned once,
//! when the engine is built, and parked on an epoch barrier
//! (`pool::WorkerPool`), so a round costs two barrier waits and no
//! thread spawns. A phase's per-shard buffers outlive it, and the next
//! phase of the same message type reuses them ([`Parked`], as on every
//! engine).
//!
//! Outputs and [`Metrics`] (totals, `peak_queue_depth`, per-edge
//! traffic) are identical to the other backends at every shard count —
//! the conformance suite in `tests/conformance/` pins this down.

use crate::pool::{CachePadded, DisjointChunks, DisjointSlice, WorkerPool};
use crate::routing::ShardLayout;
use powersparse_congest::engine::{Delivery, Message, Metrics, Outbox, RoundEngine, RoundPhase};
use powersparse_congest::probe::{
    charge_rounds, now_if, ns_between, probe_vec, NoProbe, PhaseMark, Probe,
};
use powersparse_congest::shard::{close_round, Parked, Routed, Shard, ShardTally};
use powersparse_congest::sim::SimConfig;
use powersparse_graphs::{Graph, NodeId};
use std::ops::Range;

/// The persistent worker-pool round engine.
#[derive(Debug)]
pub struct PooledSimulator<'g, P: Probe = NoProbe> {
    graph: &'g Graph,
    config: SimConfig,
    metrics: Metrics,
    layout: ShardLayout,
    pool: WorkerPool,
    /// The round/phase observer (zero-cost [`NoProbe`] by default).
    probe: P,
    /// Phases opened so far (the ordinal assigned to the next phase).
    phases_opened: u64,
    /// The probe's distinct-receiver stamps, one per node (empty under
    /// [`NoProbe`]).
    stamps: Vec<u64>,
    /// The last closed phase's [`PhaseBufs`].
    parked: Parked,
}

impl<'g> PooledSimulator<'g> {
    /// Creates a pooled engine with an explicit shard/worker count; the
    /// worker threads are spawned here, once, and live until the engine
    /// is dropped. Results are identical for every count (the engine
    /// contract); only wall-clock time changes.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(graph: &'g Graph, config: SimConfig, shards: usize) -> Self {
        Self::with_probe(graph, config, shards, NoProbe)
    }
}

impl<'g, P: Probe> PooledSimulator<'g, P> {
    /// Creates a pooled engine observed by `probe` (see
    /// [`powersparse_congest::probe`] for the emission contract). The
    /// probe is only ever called on the caller thread, after the round
    /// barrier — never from pool workers.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_probe(graph: &'g Graph, config: SimConfig, shards: usize, probe: P) -> Self {
        let layout = ShardLayout::new(graph, shards);
        let pool = WorkerPool::new(layout.shards());
        Self {
            graph,
            config,
            metrics: Metrics::for_graph(graph, config.metrics),
            layout,
            pool,
            probe,
            phases_opened: 0,
            stamps: probe_vec::<u64, P>(graph.n()),
            parked: Parked::default(),
        }
    }

    /// Number of shards (= persistent workers, including the caller).
    pub fn shards(&self) -> usize {
        self.layout.shards()
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the engine, returning the probe (and its gathered
    /// observations).
    pub fn into_probe(self) -> P {
        self.probe
    }
}

impl<'g, P: Probe> RoundEngine for PooledSimulator<'g, P> {
    type Phase<'s, M: Message>
        = PooledPhase<'s, 'g, M, P>
    where
        Self: 's;
    type Network = &'g Graph;

    fn graph(&self) -> &Graph {
        self.graph
    }

    fn network(&self) -> &'g Graph {
        self.graph
    }

    fn bandwidth(&self) -> usize {
        self.config.bandwidth
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn charge_rounds(&mut self, r: u64) {
        charge_rounds(&mut self.metrics, &mut self.probe, r);
    }

    fn messages_across(&self, u: NodeId, v: NodeId) -> u64 {
        self.metrics.messages_across(self.graph, u, v)
    }

    fn bits_across(&self, u: NodeId, v: NodeId) -> u64 {
        self.metrics.bits_across(self.graph, u, v)
    }

    fn phase<M: Message>(&mut self) -> PooledPhase<'_, 'g, M, P> {
        let shards = self.layout.shards();
        let mark = PhaseMark::open(&mut self.phases_opened, &self.metrics);
        PooledPhase {
            bufs: self.parked.take_or(|| PhaseBufs::new(&self.layout)),
            tallies: vec![ShardTally::default(); shards],
            row_ranges: (0..shards).map(|w| w * shards..(w + 1) * shards).collect(),
            splice_ns: probe_vec::<u64, P>(shards),
            mark,
            sim: self,
        }
    }
}

/// The per-shard buffers of one phase. They outlive it: dropping a phase
/// clears them and parks them on the engine ([`Parked`]), and the next
/// phase of the same message type opens with them in O(shards).
///
/// What a worker touches per message — its shard (core, inboxes, send
/// buffer) and its delivery cells — sits on cache lines of its own
/// ([`CachePadded`]): the buffers live as long as the engine, so a line
/// shared by two workers would slow every round of every phase.
#[derive(Debug)]
struct PhaseBufs<M> {
    /// One shard per worker ([`Shard`]).
    shards: Vec<CachePadded<Shard<M>>>,
    /// Shard-to-shard delivery cells, rows-major: sender shard `w` ×
    /// receiver shard `r` is `cells[w * shards + r]`.
    cells: Vec<CachePadded<Vec<Routed<M>>>>,
}

impl<M: Message> PhaseBufs<M> {
    /// Fresh, empty buffers for `layout`.
    fn new(layout: &ShardLayout) -> Self {
        let shards = layout.shards();
        Self {
            shards: layout
                .node_ranges
                .iter()
                .zip(&layout.edge_ranges)
                .map(|(nodes, edges)| CachePadded(Shard::new(nodes.clone(), edges.clone())))
                .collect(),
            cells: (0..shards * shards)
                .map(|_| CachePadded::default())
                .collect(),
        }
    }

    /// Empties every buffer and core, keeping capacity.
    fn clear(&mut self) {
        self.shards.iter_mut().for_each(|s| s.clear());
        self.cells.iter_mut().for_each(|c| c.clear());
    }
}

impl<M> Default for PhaseBufs<M> {
    /// No buffers at all (allocates nothing): what a dropping phase
    /// leaves behind when it hands its buffers to the engine.
    fn default() -> Self {
        Self {
            shards: Vec::new(),
            cells: Vec::new(),
        }
    }
}

/// One typed communication phase on the pooled engine.
///
/// All buffers live for the whole phase and keep their capacity round
/// after round; the scatter bodies reach them through zero-allocation
/// disjoint views, so a round allocates nothing beyond what the node
/// program itself sends. The per-shard buffers also outlive the phase:
/// dropping it clears them and hands them to the engine, and the next
/// phase of the same message type opens with them.
#[derive(Debug)]
pub struct PooledPhase<'s, 'g, M: Message, P: Probe = NoProbe> {
    sim: &'s mut PooledSimulator<'g, P>,
    /// The per-shard buffers, handed back to the engine on drop.
    bufs: PhaseBufs<M>,
    /// Per-shard round tallies, written by the workers through a
    /// disjoint view and merged on the caller behind the barrier.
    tallies: Vec<ShardTally>,
    /// Cell-row range of each sender shard: `w * shards..(w+1) * shards`.
    row_ranges: Vec<Range<usize>>,
    /// Per-receiver-shard stage-2 splice time, timestamped by the
    /// workers themselves through a disjoint view (empty under
    /// [`NoProbe`]).
    splice_ns: Vec<u64>,
    /// The phase's ordinal and opening counters.
    mark: PhaseMark,
}

impl<M: Message, P: Probe> Drop for PooledPhase<'_, '_, M, P> {
    fn drop(&mut self) {
        self.mark.close(&self.sim.metrics, &mut self.sim.probe);
        let mut bufs = std::mem::take(&mut self.bufs);
        bufs.clear();
        self.sim.parked.park(bufs);
    }
}

impl<M: Message, P: Probe> PooledPhase<'_, '_, M, P> {
    /// Whether any shard holds a delivered, unread message.
    fn unread(&self) -> bool {
        self.bufs.shards.iter().any(|s| !s.inboxes.is_empty())
    }
}

impl<M: Message, P: Probe> RoundPhase<M> for PooledPhase<'_, '_, M, P> {
    fn graph(&self) -> &Graph {
        self.sim.graph
    }

    /// One round through the two barrier-separated stages; with one
    /// shard both run inline on the calling thread.
    fn step<S, F>(&mut self, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>], &mut Outbox<'_, M>) + Sync,
    {
        let sim = &mut *self.sim;
        let n = sim.graph.n();
        assert_eq!(state.len(), n, "state slice must have one entry per node");
        let shards = sim.layout.shards();
        let bw = sim.config.bandwidth as u64;
        let graph = sim.graph;
        let layout = &sim.layout;
        let pool = &sim.pool;
        debug_assert_eq!(pool.workers(), shards, "pool sized to the layout");

        // --- Stage 1: every shard's round. Every phase-lived buffer is
        // handed to its owning worker through a disjoint view. ---
        let stage1_start = now_if(P::ENABLED);
        {
            let state_c = DisjointChunks::new(state, &layout.node_ranges);
            let shards_s = DisjointSlice::new(&mut self.bufs.shards);
            let ebits_c = DisjointChunks::new(&mut sim.metrics.edge_bits, &layout.edge_ranges);
            let emsgs_c = DisjointChunks::new(&mut sim.metrics.edge_messages, &layout.edge_ranges);
            let rows_c = DisjointChunks::new(&mut self.bufs.cells, &self.row_ranges);
            let tallies_s = DisjointSlice::new(&mut self.tallies);
            let f = &f;
            pool.scatter(&|w| {
                // SAFETY: worker `w` touches only chunk/element `w` of
                // every view (shard `w`'s nodes, edges and buffers).
                unsafe {
                    let row = rows_c.chunk(w);
                    *tallies_s.get(w) = shards_s.get(w).round(
                        graph,
                        bw,
                        state_c.chunk(w),
                        ebits_c.chunk(w),
                        emsgs_c.chunk(w),
                        f,
                        P::ENABLED,
                        |_, d| row[layout.shard_of[d.0.index()] as usize].push(d),
                    );
                }
            });
        }
        let stage1_wall = ns_between(stage1_start, now_if(P::ENABLED));

        // --- Stage 2: splice the delivery cells onto the receiver
        // shards' arrival runs, in sender-shard order — at most one
        // memcpy-style append per shard pair. Skipped entirely on quiet
        // transfer rounds, whose splice clocks then read zero. ---
        self.splice_ns.fill(0);
        let stage2_start = now_if(P::ENABLED);
        if self.bufs.cells.iter().any(|c| !c.is_empty()) {
            let cells_s = DisjointSlice::new(&mut self.bufs.cells);
            let shards_s = DisjointSlice::new(&mut self.bufs.shards);
            let splice_s = DisjointSlice::new(&mut self.splice_ns);
            pool.scatter(&|r| {
                let t0 = now_if(P::ENABLED);
                // SAFETY: receiver `r` appends only to its own shard's
                // run and drains only its own strided cell column
                // `{w · shards + r}` — disjoint across receivers; cells
                // were filled by stage 1, behind the pool barrier.
                let inboxes = &mut unsafe { shards_s.get(r) }.inboxes;
                for w in 0..shards {
                    // Ascending `w` keeps the run in sender-shard order.
                    inboxes.append(unsafe { cells_s.get(w * shards + r) });
                }
                if P::ENABLED {
                    // SAFETY: receiver `r` writes only its own slot (the
                    // vector has one per shard whenever `P::ENABLED`).
                    unsafe { *splice_s.get(r) = ns_between(t0, now_if(true)) };
                }
            });
        }
        let wall = stage1_wall + ns_between(stage2_start, now_if(P::ENABLED));
        // A shard's transfer span covers its grouping and core round
        // (stage 1) and its splice (stage 2).
        for (tally, &splice) in self.tallies.iter_mut().zip(&self.splice_ns) {
            tally.transfer_ns += splice;
        }
        close_round(
            &mut sim.metrics,
            &mut sim.probe,
            &self.tallies,
            self.bufs.shards.iter().map(|s| &s.inboxes),
            &mut sim.stamps,
            Some(wall),
        );
    }

    /// Worker-parallel, and skipped when nothing was delivered.
    fn read_inboxes<S, F>(&mut self, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>]) + Sync,
    {
        let n = self.sim.graph.n();
        assert_eq!(state.len(), n, "state slice must have one entry per node");
        if !self.unread() {
            return;
        }
        let layout = &self.sim.layout;
        let state_c = DisjointChunks::new(state, &layout.node_ranges);
        let shards_s = DisjointSlice::new(&mut self.bufs.shards);
        let f = &f;
        self.sim.pool.scatter(&|w| {
            // SAFETY: worker `w` touches only chunk/element `w`.
            unsafe { shards_s.get(w).inboxes.read(state_c.chunk(w), f) };
        });
    }

    fn in_flight(&self) -> bool {
        // O(shards): each core's emptiness is O(1).
        self.bufs.shards.iter().any(|s| !s.core.is_empty())
    }

    fn idle(&self) -> bool {
        !self.in_flight() && !self.unread()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_congest::sim::Simulator;
    use powersparse_graphs::generators;

    /// A nontrivial node program exercising fragmentation, FIFO order
    /// and per-node state: every node repeatedly broadcasts a mix of
    /// small and large messages derived from what it heard.
    fn echo_program<E: RoundEngine>(eng: &mut E, rounds: usize) -> (Vec<u64>, Metrics) {
        let n = eng.graph().n();
        let mut acc: Vec<u64> = vec![0; n];
        let mut phase = eng.phase::<u64>();
        for r in 0..rounds {
            phase.step(&mut acc, |a, v, inbox, out| {
                for &(from, m) in inbox {
                    *a = a.wrapping_mul(31).wrapping_add(m ^ u64::from(from.0));
                }
                let payload = *a ^ (v.0 as u64) << 8 | r as u64;
                let bits = if v.0 % 2 == 1 { 200 } else { 5 };
                out.broadcast(v, payload, bits);
            });
        }
        phase.settle(10_000, &mut acc, |a, _v, inbox| {
            for &(from, m) in inbox {
                *a = a.wrapping_mul(31).wrapping_add(m ^ u64::from(from.0));
            }
        });
        drop(phase);
        (acc, eng.metrics().clone())
    }

    #[test]
    fn parity_with_sequential_across_shard_counts() {
        let g = generators::connected_gnp(150, 0.05, 9);
        let config = SimConfig::with_bandwidth(24);
        let mut seq = Simulator::new(&g, config);
        let (want, want_m) = echo_program(&mut seq, 6);
        for shards in [1usize, 2, 3, 5, 8] {
            let mut par = PooledSimulator::with_shards(&g, config, shards);
            let (got, got_m) = echo_program(&mut par, 6);
            assert_eq!(got, want, "outputs diverged at {shards} shards");
            assert_eq!(got_m, want_m, "metrics diverged at {shards} shards");
        }
    }

    #[test]
    fn inbox_order_matches_sequential() {
        let g = generators::complete(17);
        let config = SimConfig::for_graph(&g);
        let collect = |eng: &mut dyn FnMut(&mut Vec<Vec<(u32, u64)>>)| {
            let mut log: Vec<Vec<(u32, u64)>> = vec![Vec::new(); 17];
            eng(&mut log);
            log
        };
        let mut seq = Simulator::new(&g, config);
        let want = collect(&mut |log| {
            let mut phase = seq.phase::<u64>();
            RoundPhase::step(&mut phase, log, |_, v, _in, out| {
                out.broadcast(v, u64::from(v.0) * 1000, 8);
            });
            phase.settle(64, log, |mine, _v, inbox| {
                mine.extend(inbox.iter().map(|&(f, m)| (f.0, m)));
            });
        });
        for shards in [2usize, 4, 7] {
            let mut par = PooledSimulator::with_shards(&g, config, shards);
            let got = collect(&mut |log| {
                let mut phase = par.phase::<u64>();
                phase.step(log, |_, v, _in, out| {
                    out.broadcast(v, u64::from(v.0) * 1000, 8);
                });
                phase.settle(64, log, |mine, _v, inbox| {
                    mine.extend(inbox.iter().map(|&(f, m)| (f.0, m)));
                });
            });
            assert_eq!(got, want, "inbox order diverged at {shards} shards");
        }
    }

    #[test]
    fn phases_reuse_the_same_pool() {
        // Phases on one engine: the workers spawned at construction
        // serve them all (nothing is re-spawned), and each phase of a
        // message type seen before reuses the last one's buffers.
        let g = generators::grid(6, 8);
        let config = SimConfig::with_bandwidth(9).with_per_edge_accounting();
        let mut seq = Simulator::new(&g, config);
        let mut par = PooledSimulator::with_shards(&g, config, 5);
        echo_program(&mut seq, 3);
        echo_program(&mut par, 3);
        let mut unit = vec![0usize; g.n()];
        let mut p = par.phase::<u8>();
        p.step(&mut unit, |_, v, _in, out| {
            if v == NodeId(0) {
                out.send(v, g.neighbors(v)[0], 1, 4);
            }
        });
        p.settle(16, &mut unit, |s, _, inbox| *s += inbox.len());
        drop(p);
        let mut q = seq.phase::<u8>();
        RoundPhase::step(&mut q, &mut vec![0usize; g.n()], |_, v, _in, out| {
            if v == NodeId(0) {
                out.send(v, g.neighbors(v)[0], 1, 4);
            }
        });
        q.settle(16, &mut vec![0usize; g.n()], |_, _, _| {});
        drop(q);
        assert_eq!(seq.metrics(), RoundEngine::metrics(&par));
        // A phase of a type seen last reuses that phase's buffers; a new
        // type opens fresh ones.
        let p = par.phase::<u8>();
        assert!(p.bufs.shards.iter().any(|s| s.sends.capacity() > 0));
        drop(p);
        let p = par.phase::<u16>();
        assert!(p.bufs.shards.iter().all(|s| s.sends.capacity() == 0));
    }

    #[test]
    fn charge_rounds_and_accessors() {
        let g = generators::path(5);
        let mut par = PooledSimulator::with_shards(&g, SimConfig::for_graph(&g), 2);
        assert_eq!(par.shards(), 2);
        par.charge_rounds(3);
        assert_eq!(par.metrics().rounds, 3);
        assert_eq!(par.metrics().charged_rounds, 3);
        assert_eq!(
            RoundEngine::bandwidth(&par),
            SimConfig::for_graph(&g).bandwidth
        );
    }

    #[test]
    fn isolated_nodes_and_tiny_graphs() {
        let g = Graph::from_edges(4, &[(0, 1)]); // 2 isolated nodes
        let mut par = PooledSimulator::with_shards(&g, SimConfig::for_graph(&g), 8);
        let mut got = vec![0usize; 4];
        let mut phase = par.phase::<u8>();
        phase.step(&mut got, |_, v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 42, 4);
            }
        });
        phase.step(&mut got, |g_, _v, inbox, _out| *g_ += inbox.len());
        drop(phase);
        assert_eq!(got, vec![0, 1, 0, 0]);
    }

    #[test]
    fn settle_counts_rounds_like_drain() {
        // One 40-bit message over a 4-bit edge, settled on both engines.
        fn send_and_settle<E: RoundEngine>(eng: &mut E) {
            let mut unit = vec![(); 2];
            let mut phase = eng.phase::<u8>();
            phase.step(&mut unit, |_, v, _in, out| {
                if v == NodeId(0) {
                    out.send(v, NodeId(1), 1, 40);
                }
            });
            phase.settle(64, &mut unit, |_, _, _| {});
        }
        let g = generators::path(2);
        let config = SimConfig::with_bandwidth(4);
        let mut seq = Simulator::new(&g, config);
        send_and_settle(&mut seq);
        let mut par = PooledSimulator::with_shards(&g, config, 2);
        send_and_settle(&mut par);
        assert_eq!(seq.metrics().rounds, 10);
        assert_eq!(seq.metrics().rounds, RoundEngine::metrics(&par).rounds);
        assert_eq!(seq.metrics(), RoundEngine::metrics(&par));
    }

    #[test]
    fn probe_trace_matches_sequential_core_for_core() {
        use powersparse_congest::probe::SpanProbe;
        let g = generators::connected_gnp(80, 0.07, 5);
        let config = SimConfig::with_bandwidth(16);
        let mut seq = Simulator::with_probe(&g, config, SpanProbe::new());
        echo_program(&mut seq, 4);
        seq.charge_rounds(2);
        let seq_rounds = seq.metrics().rounds;
        let want = seq.into_probe();
        for shards in [1usize, 3, 4] {
            let mut par = PooledSimulator::with_probe(&g, config, shards, SpanProbe::new());
            echo_program(&mut par, 4);
            par.charge_rounds(2);
            assert_eq!(RoundEngine::metrics(&par).rounds, seq_rounds);
            let got = par.into_probe();
            assert_eq!(got.rounds.len() as u64, seq_rounds);
            assert_eq!(
                got.cores(),
                want.cores(),
                "trace diverged at {shards} shards"
            );
            assert_eq!(
                got.phases, want.phases,
                "phases diverged at {shards} shards"
            );
            for obs in &got.rounds {
                assert_eq!(obs.shard_splice.iter().sum::<u64>(), obs.messages);
            }
        }
    }

    #[test]
    fn idle_tracks_unread_arrivals() {
        let g = generators::path(2);
        let mut par = PooledSimulator::with_shards(&g, SimConfig::with_bandwidth(64), 2);
        let mut unit = vec![(); 2];
        let mut phase = par.phase::<u8>();
        assert!(RoundPhase::idle(&phase));
        phase.step(&mut unit, |_, v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 7, 4);
            }
        });
        // Delivered but unread: not idle, though nothing is in flight.
        assert!(!RoundPhase::in_flight(&phase));
        assert!(!RoundPhase::idle(&phase));
        phase.step(&mut unit, |_, _, _, _| {});
        assert!(RoundPhase::idle(&phase));
    }
}
