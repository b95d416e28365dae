//! The sequential synchronous round engine with per-edge bandwidth
//! accounting — the reference [`RoundEngine`] implementation.

pub use crate::engine::{Metrics, MetricsConfig, Outbox};

use crate::engine::{Delivery, Message, RoundEngine, RoundPhase};
use crate::probe::{probe_vec, NoProbe, PhaseMark, Probe};
use crate::shard::{close_round, Parked, Shard};
use powersparse_graphs::{Graph, NodeId};

/// Configuration of a round engine (shared by all backends). No
/// `Default`: a zero bandwidth would silently never deliver, so every
/// config starts from [`SimConfig::for_graph`] or
/// [`SimConfig::with_bandwidth`] (both keep `bandwidth >= 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Bits a single directed edge can carry per round (the CONGEST
    /// message size `Θ(log n)`).
    pub bandwidth: usize,
    /// Which opt-in counters to maintain (per-edge accounting is off by
    /// default; see [`MetricsConfig`]).
    pub metrics: MetricsConfig,
}

impl SimConfig {
    /// The standard CONGEST bandwidth for this graph:
    /// `max(64, 8·⌈log₂ n⌉)` bits. The constant 8 gives algorithms the
    /// usual "a constant number of IDs plus change per message" headroom
    /// (Lemma 4.2 of the paper assumes `bandwidth ≥ Δ̂` with
    /// `Δ̂ = O(log n)`, which this satisfies at reproduction scales).
    pub fn for_graph(g: &Graph) -> Self {
        Self {
            bandwidth: 8 * g.id_bits().max(8),
            metrics: MetricsConfig::default(),
        }
    }

    /// Explicit bandwidth in bits.
    pub fn with_bandwidth(bandwidth: usize) -> Self {
        assert!(bandwidth >= 1, "bandwidth must be positive");
        Self {
            bandwidth,
            metrics: MetricsConfig::default(),
        }
    }

    /// Enables per-edge traffic accounting: the engine allocates and
    /// maintains the `2m`-entry `edge_messages`/`edge_bits` counters so
    /// [`RoundEngine::messages_across`] / [`RoundEngine::bits_across`]
    /// can be queried. Aggregate counters are unaffected either way.
    pub fn with_per_edge_accounting(mut self) -> Self {
        self.metrics.per_edge = true;
        self
    }
}

/// The sequential simulator: owns cost metrics across algorithm phases on
/// one graph, stepping nodes one by one in ID order.
///
/// The probe parameter `P` defaults to [`NoProbe`] (observation sites
/// compile out entirely); [`Simulator::with_probe`] attaches a real
/// [`Probe`] that receives one [`crate::probe::RoundObs`] per round and one
/// [`crate::probe::PhaseObs`] per closed phase.
#[derive(Debug)]
pub struct Simulator<'g, P: Probe = NoProbe> {
    graph: &'g Graph,
    config: SimConfig,
    metrics: Metrics,
    probe: P,
    /// Phases opened so far (the [`PhaseMark`] ordinal source).
    phases_opened: u64,
    /// The probe's distinct-receiver stamps, one per node (empty under
    /// [`NoProbe`]).
    stamps: Vec<u64>,
    /// The last closed phase's whole-graph [`Shard`].
    parked: Parked,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator over communication network `graph`.
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        Self::with_probe(graph, config, NoProbe)
    }
}

impl<'g, P: Probe> Simulator<'g, P> {
    /// Creates a simulator with an attached round/phase [`Probe`].
    pub fn with_probe(graph: &'g Graph, config: SimConfig, probe: P) -> Self {
        Self {
            graph,
            config,
            metrics: Metrics::for_graph(graph, config.metrics),
            probe,
            phases_opened: 0,
            stamps: probe_vec::<u64, P>(graph.n()),
            parked: Parked::default(),
        }
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the simulator, returning the probe (and whatever trace
    /// it collected).
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// The communication network.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Per-edge-per-round bit budget.
    pub fn bandwidth(&self) -> usize {
        self.config.bandwidth
    }

    /// Cost metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Charges `r` rounds without running them ([`crate::probe::charge_rounds`]).
    pub fn charge_rounds(&mut self, r: u64) {
        crate::probe::charge_rounds(&mut self.metrics, &mut self.probe, r);
    }

    /// Messages delivered across the directed edge `u → v` so far.
    ///
    /// # Panics
    ///
    /// Panics if per-edge accounting is disabled
    /// ([`SimConfig::with_per_edge_accounting`]) or if `{u, v}` is not
    /// an edge.
    pub fn messages_across(&self, u: NodeId, v: NodeId) -> u64 {
        self.metrics.messages_across(self.graph, u, v)
    }

    /// Bits sent across the directed edge `u → v` so far.
    ///
    /// # Panics
    ///
    /// Panics if per-edge accounting is disabled
    /// ([`SimConfig::with_per_edge_accounting`]) or if `{u, v}` is not
    /// an edge.
    pub fn bits_across(&self, u: NodeId, v: NodeId) -> u64 {
        self.metrics.bits_across(self.graph, u, v)
    }

    /// Opens a communication phase with message type `M`.
    pub fn phase<M: Message>(&mut self) -> Phase<'_, 'g, M, P> {
        let (n, m) = (self.graph.n(), self.graph.m());
        Phase {
            shard: self.parked.take_or(|| Shard::new(0..n, 0..2 * m)),
            mark: PhaseMark::open(&mut self.phases_opened, &self.metrics),
            sim: self,
        }
    }
}

impl<'g, P: Probe> RoundEngine for Simulator<'g, P> {
    type Phase<'s, M: Message>
        = Phase<'s, 'g, M, P>
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
        Simulator::bandwidth(self)
    }

    fn metrics(&self) -> &Metrics {
        Simulator::metrics(self)
    }

    fn charge_rounds(&mut self, r: u64) {
        Simulator::charge_rounds(self, r);
    }

    fn messages_across(&self, u: NodeId, v: NodeId) -> u64 {
        Simulator::messages_across(self, u, v)
    }

    fn bits_across(&self, u: NodeId, v: NodeId) -> u64 {
        Simulator::bits_across(self, u, v)
    }

    fn phase<M: Message>(&mut self) -> Phase<'_, 'g, M, P> {
        Simulator::phase(self)
    }
}

/// One typed communication phase: a sequence of synchronous rounds
/// exchanging messages of type `M`, run as one [`Shard`] over the whole
/// graph, stepped inline. A round's deliveries land on the shard's own
/// arrival run, as a one-shard pooled round's do after its splice. The
/// shard outlives the phase ([`Parked`]).
///
/// Messages sent in round `r` begin transferring in round `r`; a message
/// of `b` bits is delivered at the start of round `r + ⌈(queue + b) /
/// bandwidth⌉` — i.e. fragmentation and pipelining are handled by the
/// engine.
#[derive(Debug)]
pub struct Phase<'s, 'g, M: Message, P: Probe = NoProbe> {
    sim: &'s mut Simulator<'g, P>,
    /// The whole graph's core, inboxes and send buffer.
    shard: Shard<M>,
    /// The phase's ordinal and opening counters.
    mark: PhaseMark,
}

impl<M: Message, P: Probe> Drop for Phase<'_, '_, M, P> {
    fn drop(&mut self) {
        self.mark.close(&self.sim.metrics, &mut self.sim.probe);
        let mut shard = std::mem::take(&mut self.shard);
        shard.clear();
        self.sim.parked.park(shard);
    }
}

impl<M: Message, P: Probe> RoundPhase<M> for Phase<'_, '_, M, P> {
    fn graph(&self) -> &Graph {
        self.sim.graph
    }

    fn step<S, F>(&mut self, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>], &mut Outbox<'_, M>) + Sync,
    {
        let sim = &mut *self.sim;
        let n = sim.graph.n();
        assert_eq!(state.len(), n, "state slice must have one entry per node");
        let Metrics {
            edge_bits,
            edge_messages,
            ..
        } = &mut sim.metrics;
        let tally = self.shard.round(
            sim.graph,
            sim.config.bandwidth as u64,
            state,
            edge_bits,
            edge_messages,
            f,
            P::ENABLED,
            |inboxes, delivery| inboxes.push(delivery),
        );
        close_round(
            &mut sim.metrics,
            &mut sim.probe,
            &[tally],
            [&self.shard.inboxes],
            &mut sim.stamps,
            None,
        );
    }

    fn read_inboxes<S, F>(&mut self, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>]) + Sync,
    {
        let n = self.sim.graph.n();
        assert_eq!(state.len(), n, "state slice must have one entry per node");
        self.shard.inboxes.read(state, f);
    }

    /// O(1) on the message core.
    fn in_flight(&self) -> bool {
        !self.shard.core.is_empty()
    }

    fn idle(&self) -> bool {
        !self.in_flight() && self.shard.inboxes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_graphs::generators;

    #[test]
    fn single_round_delivery() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(32));
        let mut phase = sim.phase::<u32>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 99, 8);
            }
        });
        let mut seen = vec![None; 3];
        phase.step(&mut seen, |seen, _v, inbox, _out| {
            if let Some(&first) = inbox.first() {
                *seen = Some(first);
            }
        });
        assert_eq!(seen, vec![None, Some((NodeId(0), 99)), None]);
        drop(phase);
        assert_eq!(sim.metrics().rounds, 2);
        assert_eq!(sim.metrics().messages, 1);
        assert_eq!(sim.metrics().bits, 8);
    }

    #[test]
    fn fragmentation_delays_delivery() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(10));
        let mut phase = sim.phase::<&'static str>();
        // 35 bits at 10 bits/round: arrives after 4 transfer steps.
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), "big", 35);
            }
        });
        let mut arrived_at_round = vec![None; 2];
        for r in 2..=6 {
            phase.step(&mut arrived_at_round, |at, _v, inbox, _out| {
                if !inbox.is_empty() && at.is_none() {
                    *at = Some(r);
                }
            });
        }
        // Sent in round 1; transfers rounds 1-4; readable in round 5's inbox.
        assert_eq!(arrived_at_round, vec![None, Some(5)]);
    }

    #[test]
    fn fifo_order_per_edge() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(8));
        let mut phase = sim.phase::<u32>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 1, 8);
                out.send(v, NodeId(1), 2, 8);
                out.send(v, NodeId(1), 3, 8);
            }
        });
        let mut got = vec![Vec::new(); 2];
        phase.step_n(4, &mut got, |got, _v, inbox, _out| {
            got.extend(inbox.iter().map(|(_, m)| *m));
        });
        assert_eq!(got[1], vec![1, 2, 3]);
    }

    #[test]
    fn bandwidth_shared_across_messages_not_across_edges() {
        // Node 1 (center of a star) sends 8 bits to each of 3 leaves:
        // distinct edges, so all arrive next round.
        let g = generators::star(3);
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(8));
        let mut phase = sim.phase::<u32>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.broadcast(v, 7, 8);
            }
        });
        let mut deliveries = vec![0usize; g.n()];
        phase.step(&mut deliveries, |d, _, inbox, _out| *d += inbox.len());
        assert_eq!(deliveries.iter().sum::<usize>(), 3);
    }

    #[test]
    fn drain_completes_inflight() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(4));
        let mut phase = sim.phase::<u8>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 1, 40); // 10 transfer rounds
            }
        });
        let mut got = vec![false; 2];
        phase.settle(64, &mut got, |got, _v, inbox| *got |= !inbox.is_empty());
        assert_eq!(got, vec![false, true]);
        drop(phase);
        // Round 1 (send) + 9 more transfer rounds.
        assert_eq!(sim.metrics().rounds, 10);
    }

    #[test]
    fn per_edge_counters() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(16).with_per_edge_accounting());
        let mut phase = sim.phase::<u8>();
        let mut unit = vec![(); 3];
        phase.step_n(3, &mut unit, |_, v, _in, out| {
            if v == NodeId(1) {
                out.send(v, NodeId(2), 0, 5);
            }
        });
        phase.settle(16, &mut unit, |_, _, _| {});
        drop(phase);
        assert_eq!(sim.messages_across(NodeId(1), NodeId(2)), 3);
        assert_eq!(sim.bits_across(NodeId(1), NodeId(2)), 15);
        assert_eq!(sim.messages_across(NodeId(2), NodeId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "per-edge accounting is disabled")]
    fn per_edge_query_without_accounting_panics() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut phase = sim.phase::<u8>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(1) {
                out.send(v, NodeId(2), 0, 5);
            }
        });
        drop(phase);
        let _ = sim.messages_across(NodeId(1), NodeId(2));
    }

    #[test]
    fn aggregate_counters_identical_across_accounting_modes() {
        let g = generators::cycle(8);
        let run = |config: SimConfig| {
            let mut sim = Simulator::new(&g, config);
            let mut phase = sim.phase::<u32>();
            let mut unit = vec![(); 8];
            phase.step_n(3, &mut unit, |_, v, _in, out| out.broadcast(v, v.0, 40));
            phase.settle(64, &mut unit, |_, _, _| {});
            drop(phase);
            sim.metrics().clone()
        };
        let off = run(SimConfig::with_bandwidth(16));
        let on = run(SimConfig::with_bandwidth(16).with_per_edge_accounting());
        assert!(!off.per_edge && off.edge_messages.is_empty());
        assert!(on.per_edge && !on.edge_messages.is_empty());
        assert_eq!(
            (off.rounds, off.messages, off.bits, off.peak_queue_depth),
            (on.rounds, on.messages, on.bits, on.peak_queue_depth),
            "always-on counters must not depend on the accounting mode"
        );
    }

    #[test]
    fn quiet_round_cost_is_bounded_by_active_edges() {
        // One big message fragments across many rounds on a large star:
        // the arena core must keep exactly one edge active while the
        // other ~2m edges never enter the transfer loop.
        let g = generators::star(500);
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(8));
        let mut phase = sim.phase::<u8>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(1) {
                out.send(v, NodeId(0), 7, 80); // 10 transfer rounds
            }
        });
        assert!(phase.in_flight());
        assert_eq!(
            phase.shard.core.active_edges(),
            1,
            "only the loaded edge is active"
        );
        let mut got = vec![0usize; g.n()];
        phase.settle(64, &mut got, |got, _, inbox| *got += inbox.len());
        assert_eq!(got.iter().sum::<usize>(), 1);
        assert!(phase.idle());
        assert_eq!(phase.shard.core.active_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "is not an edge")]
    fn nonneighbor_send_panics() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut phase = sim.phase::<u8>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(2), 0, 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "attempted to send as")]
    fn spoofed_sender_panics() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut phase = sim.phase::<u8>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.send(NodeId(1), NodeId(2), 0, 1);
            }
        });
    }

    #[test]
    fn charge_rounds_tracked_separately() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        sim.charge_rounds(5);
        assert_eq!(sim.metrics().rounds, 5);
        assert_eq!(sim.metrics().charged_rounds, 5);
    }

    #[test]
    fn degree_zero_nodes_are_fine() {
        let g = Graph::from_edges(3, &[(0, 1)]); // node 2 isolated
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut phase = sim.phase::<u8>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 9, 4);
            }
        });
        let mut got = vec![0usize; 3];
        phase.step(&mut got, |got, _, inbox, _| *got += inbox.len());
        assert_eq!(got, vec![0, 1, 0]);
    }

    #[test]
    fn probe_traces_rounds_phases_and_charges() {
        use crate::probe::{PhaseObs, SpanProbe};
        let g = generators::path(3);
        let mut sim = Simulator::with_probe(&g, SimConfig::with_bandwidth(8), SpanProbe::new());
        let mut phase = sim.phase::<u32>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 9, 8);
            }
        });
        phase.step_stateless(|_, _, _| {});
        drop(phase);
        sim.charge_rounds(2);
        assert_eq!(sim.metrics().rounds, 4);
        let trace = sim.into_probe();
        assert_eq!(trace.rounds.len(), 4, "trace length == Metrics::rounds");
        // Round 0: 8 bits sent and delivered within the round (bw 8).
        assert_eq!(trace.rounds[0].core(), (0, 0, 1, 1, 8));
        assert_eq!(trace.rounds[0].shard_splice, vec![1]);
        // Round 1 is quiet; rounds 2-3 are charged (zeroed, in order).
        assert_eq!(trace.rounds[1].core(), (1, 0, 0, 0, 0));
        assert_eq!(trace.rounds[2].core(), (2, 0, 0, 0, 0));
        assert_eq!(trace.rounds[3].core(), (3, 0, 0, 0, 0));
        assert!(trace.rounds[2].shard_splice.is_empty());
        assert_eq!(
            trace.phases,
            vec![PhaseObs {
                phase: 0,
                rounds: 2,
                messages: 1,
                bits: 8,
            }]
        );
    }

    #[test]
    fn probe_sees_fragment_crossing_rounds_as_active() {
        use crate::probe::SpanProbe;
        let g = generators::path(2);
        let mut sim = Simulator::with_probe(&g, SimConfig::with_bandwidth(10), SpanProbe::new());
        let mut phase = sim.phase::<u8>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 1, 35); // 4 transfer rounds
            }
        });
        phase.settle(16, &mut [(), ()], |_, _, _| {});
        drop(phase);
        let rounds = sim.metrics().rounds;
        let trace = sim.into_probe();
        let cores = trace.cores();
        // Rounds 0-2: the fragment is still crossing (1 active edge, no
        // delivery); round 3 delivers.
        assert_eq!(cores[0], (0, 1, 0, 0, 35));
        assert_eq!(cores[1], (1, 1, 0, 0, 0));
        assert_eq!(cores[2], (2, 1, 0, 0, 0));
        assert_eq!(cores[3], (3, 0, 1, 1, 0));
        assert_eq!(trace.rounds.len() as u64, rounds);
    }

    #[test]
    fn spans_cover_every_round_with_single_shard_structure() {
        use crate::probe::SpanProbe;
        let g = generators::path(3);
        let mut sim = Simulator::with_probe(&g, SimConfig::with_bandwidth(8), SpanProbe::new());
        let mut phase = sim.phase::<u32>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 9, 8);
            }
        });
        phase.step_stateless(|_, _, _| {});
        drop(phase);
        sim.charge_rounds(2);
        let probe = sim.into_probe();
        assert_eq!(probe.spans.len(), 4, "one RoundSpans per Metrics::rounds");
        for (i, s) in probe.spans.iter().enumerate() {
            assert_eq!(s.round, i as u64);
        }
        // Executed rounds: single-shard structure, no barrier spans.
        assert_eq!(probe.spans[0].structure(), (1, 1, 0));
        assert_eq!(probe.spans[1].structure(), (1, 1, 0));
        assert_eq!(probe.spans[0].arena_cells, vec![1]);
        // Charged rounds: empty everywhere, like shard_splice.
        assert_eq!(probe.spans[2].structure(), (0, 0, 0));
        assert_eq!(probe.spans[3].structure(), (0, 0, 0));
        // The span-carrying probe still sees the identical counter trace.
        assert_eq!(probe.cores()[0], (0, 0, 1, 1, 8));
    }

    #[test]
    fn a_phase_of_the_last_closed_type_reuses_its_shard() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(8));
        let mut p = sim.phase::<u8>();
        p.step_stateless(|v, _in, out| out.broadcast(v, 1, 8));
        assert!(!p.idle());
        drop(p);
        // The same type takes the cleared shard: capacity, no deliveries.
        let p = sim.phase::<u8>();
        assert!(p.shard.sends.capacity() > 0);
        assert!(p.idle());
        drop(p);
        // A new type opens a fresh one.
        let p = sim.phase::<u16>();
        assert_eq!(p.shard.sends.capacity(), 0);
    }

    #[test]
    fn arena_footprint_peaks_at_transfer_start() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(8));
        let mut phase = sim.phase::<u32>();
        phase.step_stateless(|v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 1, 8);
                out.send(v, NodeId(1), 2, 8);
            }
        });
        let cell = crate::msgcore::MsgCore::<u32>::cell_size() as u64;
        phase.settle(16, &mut [(), ()], |_, _, _| {});
        drop(phase);
        assert_eq!(sim.metrics().arena_cells_peak, 2);
        assert_eq!(sim.metrics().arena_bytes_peak, 2 * cell);
        assert_eq!(sim.metrics().peak_queue_depth, 2);
    }
}
