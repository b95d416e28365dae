//! The round-level observability layer: a [`Probe`] receives one
//! [`RoundObs`] per executed (or charged) round and one [`PhaseObs`] per
//! closed phase, on **every** [`crate::engine::RoundEngine`] backend.
//!
//! # Contract
//!
//! The engine contract (see [`crate::engine`] module docs) extends to
//! probes: the *engine-invariant core* of every `RoundObs` — round
//! index, post-transfer active-edge count, distinct delivery receivers,
//! messages delivered and bits enqueued this round — is **bit-for-bit
//! identical across backends at every shard count**, and the trace
//! length always equals `Metrics::rounds` (charged rounds emit zeroed
//! observations so the invariant survives analytical charging). The
//! per-shard splice volumes are the only backend-shaped field: their sum
//! equals `messages` everywhere, and the two parallel backends at the
//! *same* shard count agree on the whole vector.
//!
//! Emission points (one per `Metrics::rounds` increment):
//!
//! * every executed round, on every engine —
//!   [`crate::shard::close_round`], on the caller thread once the
//!   round's deliveries are in place (after the stage-2 barrier on the
//!   pooled engine, after every child's replies on the process engine),
//!   exactly where the shards' tallies merge into the counters;
//! * `charge_rounds(r)` — `r` zeroed observations, in order.
//!
//! [`PhaseObs`] fires when a typed phase is dropped, carrying the phase
//! ordinal and the rounds/messages/bits the phase consumed.
//!
//! Each emission is defined once and called by all three engines:
//! [`crate::shard::close_round`] closes executed rounds,
//! [`charge_rounds`] bills charged rounds, and a [`PhaseMark`] taken
//! when a phase opens emits its [`PhaseObs`] when it drops.
//!
//! # Span emission points
//!
//! Directly after each [`RoundObs`], [`crate::shard::close_round`]
//! emits one [`RoundSpans`] through [`Probe::on_round_spans`] carrying
//! the round's per-shard stage timings (empty for charged rounds). The
//! timestamps themselves are taken where the work happens:
//!
//! * sequential `Simulator` and `PooledSimulator` — a shard's round
//!   ([`crate::shard::Shard::round`]) times its node-stepping loop as
//!   `step`, and its grouping of the arrival run plus its message
//!   core's round as `transfer`, on the thread that runs it: a pool
//!   worker writes them into its shard's tally slot through the same
//!   disjoint views the counters use. A pooled worker adds its stage-2
//!   splice to `transfer`. The sequential engine has no barrier, so its
//!   `barrier` vector is empty; the pooled caller measures each stage's
//!   wall clock around the scatter and attributes
//!   `barrier = Σ stage walls − step − transfer` per shard.
//! * `ProcessSimulator` — the parent times each shard's step loop, each
//!   shard child times its own transfer and reports it in the round's
//!   `RoundStats` frame, and the parent attributes
//!   `barrier = round wall − step − the child's transfer` per shard (so
//!   every wire cost lands in the barrier span).
//!
//! **Timing values are backend-shaped and never conformance-gated** —
//! two runs of the same binary disagree on them. What *is*
//! engine-invariant (and conformance-tested) is the span **structure**:
//! one `RoundSpans` per `Metrics::rounds` entry, `step`/`transfer`
//! vectors of length = shard count, `barrier` present exactly on the
//! parallel backends, all vectors empty on charged rounds, and the
//! per-shard [`RoundSpans::arena_cells`] gauge summing to the same
//! engine-invariant transfer-start footprint everywhere.
//!
//! # Cost
//!
//! [`NoProbe`] (the default type parameter of every engine) sets
//! [`Probe::ENABLED`] to `false`; every gathering site is guarded by
//! that associated constant, so the disabled path compiles down to the
//! pre-probe engine — no branch, no allocation, no trace storage, no
//! clock reads ([`now_if`] returns `None` without touching the clock,
//! and [`probe_vec`] returns a zero-capacity vector).

use crate::engine::Metrics;

/// What one round looked like, observed at the round barrier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundObs {
    /// Round index (0-based; equals this observation's position in the
    /// trace, counting charged rounds).
    pub round: u64,
    /// Directed edges still holding queued bits *after* this round's
    /// transfer (fragments still crossing).
    pub active_edges: u64,
    /// Distinct nodes that received at least one delivery this round.
    pub dirty_nodes: u64,
    /// Messages delivered this round.
    pub messages: u64,
    /// Bits enqueued (sent) this round.
    pub bits: u64,
    /// Messages routed per sender shard this round (backend-shaped:
    /// length = shard count; empty for charged rounds). Sums to
    /// [`RoundObs::messages`] on every backend.
    pub shard_splice: Vec<u64>,
}

impl RoundObs {
    /// A charged (analytically accounted) round: everything zero except
    /// the index.
    pub fn charged(round: u64) -> Self {
        Self {
            round,
            ..Self::default()
        }
    }

    /// The engine-invariant core `(round, active_edges, dirty_nodes,
    /// messages, bits)` — identical across backends at every shard
    /// count.
    pub fn core(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.round,
            self.active_edges,
            self.dirty_nodes,
            self.messages,
            self.bits,
        )
    }
}

/// Per-round, per-shard stage timings — the span layer of the probe.
///
/// Every vector is indexed by shard (the sequential engine is its own
/// single shard) and lengths are part of the engine-invariant span
/// *structure*; the nanosecond values are backend-shaped wall-clock
/// measurements and never conformance-gated (see the module docs'
/// "Span emission points").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundSpans {
    /// Round index (matches the paired [`RoundObs::round`]).
    pub round: u64,
    /// Nanoseconds each shard spent stepping its nodes this round
    /// (empty for charged rounds).
    pub step_ns: Vec<u64>,
    /// Nanoseconds each shard spent grouping its arrivals and running
    /// its sends through its message core (stage 1, as sender) plus, on
    /// the pooled engine, splicing deliveries (stage 2, as receiver).
    /// Empty for charged rounds.
    pub transfer_ns: Vec<u64>,
    /// Nanoseconds each shard's worker spent idle at the round's stage
    /// barriers (stage wall clock minus the shard's busy time, summed
    /// over both stages). **Empty on the sequential engine** — there is
    /// no barrier — and for charged rounds.
    pub barrier_ns: Vec<u64>,
    /// Queued arena cells per shard at transfer start — the per-shard
    /// share of the round's arena footprint. Backend-shaped lengths,
    /// but the *sum* is engine-invariant (it is the value the
    /// `arena_cells_peak` gauge maxes over). Empty for charged rounds.
    pub arena_cells: Vec<u64>,
}

impl RoundSpans {
    /// A charged (analytically accounted) round: index only, every
    /// per-shard vector empty — mirroring [`RoundObs::charged`].
    pub fn charged(round: u64) -> Self {
        Self {
            round,
            ..Self::default()
        }
    }

    /// The engine-invariant span structure: `(step shards, transfer
    /// shards, barrier shards)` — the vector lengths, with the timing
    /// values stripped. Identical across runs; equal between the
    /// pooled and process backends at the same shard count.
    pub fn structure(&self) -> (usize, usize, usize) {
        (
            self.step_ns.len(),
            self.transfer_ns.len(),
            self.barrier_ns.len(),
        )
    }

    /// Shard count this round was executed at (0 for charged rounds).
    pub fn shards(&self) -> usize {
        self.step_ns.len()
    }
}

/// Reads the monotonic clock only when `enabled` — the span layer's
/// single time source. Call with [`Probe::ENABLED`] so the disabled
/// path contains no clock read at all.
#[inline(always)]
pub fn now_if(enabled: bool) -> Option<std::time::Instant> {
    enabled.then(std::time::Instant::now)
}

/// Nanoseconds between two [`now_if`] reads; 0 when either side was
/// disabled.
#[inline(always)]
pub fn ns_between(start: Option<std::time::Instant>, end: Option<std::time::Instant>) -> u64 {
    match (start, end) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_nanos() as u64,
        _ => 0,
    }
}

/// Probe-only scratch: a `len`-element zeroed vector when `P` gathers
/// observations, a **zero-capacity** vector otherwise. Every engine
/// allocates its probe-only storage through this (the distinct-receiver
/// stamps, the pooled engine's splice clocks), which is what makes
/// "`NoProbe` engines allocate zero span storage" a type-level guarantee
/// (tested in the conformance suite).
pub fn probe_vec<T: Default + Clone, P: Probe>(len: usize) -> Vec<T> {
    if P::ENABLED {
        vec![T::default(); len]
    } else {
        Vec::new()
    }
}

/// What one closed phase consumed, observed when the phase drops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseObs {
    /// Phase ordinal on this engine (0-based, in open order).
    pub phase: u64,
    /// Rounds the phase executed (charged rounds between phases are not
    /// attributed to any phase).
    pub rounds: u64,
    /// Messages the phase delivered.
    pub messages: u64,
    /// Bits the phase sent.
    pub bits: u64,
}

/// A phase's ordinal and the counters at the moment it opened. Every
/// engine takes one in `phase()` and closes it when the phase drops.
#[derive(Debug, Clone, Copy)]
pub struct PhaseMark {
    phase: u64,
    rounds: u64,
    messages: u64,
    bits: u64,
}

impl PhaseMark {
    /// Opens phase number `*opened` at the counters `m`, and advances
    /// the count.
    pub fn open(opened: &mut u64, m: &Metrics) -> Self {
        let phase = *opened;
        *opened += 1;
        Self {
            phase,
            rounds: m.rounds,
            messages: m.messages,
            bits: m.bits,
        }
    }

    /// Emits the phase's [`PhaseObs`]: what the counters `m` grew by
    /// since it opened.
    pub fn close<P: Probe>(&self, m: &Metrics, probe: &mut P) {
        if P::ENABLED {
            probe.on_phase_end(PhaseObs {
                phase: self.phase,
                rounds: m.rounds - self.rounds,
                messages: m.messages - self.messages,
                bits: m.bits - self.bits,
            });
        }
    }
}

/// Charges `r` rounds without running them: the body of every engine's
/// [`RoundEngine::charge_rounds`](crate::engine::RoundEngine::charge_rounds).
/// Each charged round emits a zeroed [`RoundObs`] and an empty
/// [`RoundSpans`], so the probe's trace stays one entry per
/// [`Metrics::rounds`].
pub fn charge_rounds<P: Probe>(m: &mut Metrics, probe: &mut P, r: u64) {
    if P::ENABLED {
        for round in m.rounds..m.rounds + r {
            probe.on_round_end(RoundObs::charged(round));
            probe.on_round_spans(RoundSpans::charged(round));
        }
    }
    m.rounds += r;
    m.charged_rounds += r;
}

/// A round/phase observer attached to an engine.
///
/// Implementations are called on the engine's caller thread only, after
/// the round's barrier — never from worker threads — so no `Sync` bound
/// is required.
pub trait Probe {
    /// Whether the engine should gather observations at all. Every
    /// gathering site is guarded by this constant; [`NoProbe`] sets it
    /// to `false` and costs nothing.
    const ENABLED: bool = true;

    /// Called once per round, in round order, after delivery completed.
    fn on_round_end(&mut self, obs: RoundObs);

    /// Called once per round, directly after [`Probe::on_round_end`],
    /// with the round's per-shard stage timings (see the module docs'
    /// "Span emission points").
    fn on_round_spans(&mut self, spans: RoundSpans);

    /// Called once per phase, when the phase is dropped.
    fn on_phase_end(&mut self, obs: PhaseObs);
}

/// The zero-cost default probe: observes nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_round_end(&mut self, _obs: RoundObs) {}

    #[inline(always)]
    fn on_round_spans(&mut self, _spans: RoundSpans) {}

    #[inline(always)]
    fn on_phase_end(&mut self, _obs: PhaseObs) {}
}

/// The recording probe: every round observation, every round's stage
/// spans and every phase observation. Span timings are backend-shaped,
/// so cross-backend comparisons compare [`SpanProbe::rounds`] and
/// [`SpanProbe::phases`], never whole probes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanProbe {
    /// One entry per round, in round order.
    pub rounds: Vec<RoundObs>,
    /// One entry per round, in round order (paired with
    /// [`SpanProbe::rounds`] by index).
    pub spans: Vec<RoundSpans>,
    /// One entry per closed phase, in open order.
    pub phases: Vec<PhaseObs>,
}

impl SpanProbe {
    /// An empty span collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The engine-invariant per-round cores (see [`RoundObs::core`]).
    pub fn cores(&self) -> Vec<(u64, u64, u64, u64, u64)> {
        self.rounds.iter().map(RoundObs::core).collect()
    }
}

impl Probe for SpanProbe {
    fn on_round_end(&mut self, obs: RoundObs) {
        self.rounds.push(obs);
    }

    fn on_round_spans(&mut self, spans: RoundSpans) {
        self.spans.push(spans);
    }

    fn on_phase_end(&mut self, obs: PhaseObs) {
        self.phases.push(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_probe_is_disabled_and_inert() {
        const { assert!(!NoProbe::ENABLED) };
        let mut p = NoProbe;
        p.on_round_end(RoundObs::charged(0));
        p.on_phase_end(PhaseObs::default());
    }

    #[test]
    fn span_probe_collects_spans_in_order() {
        const { assert!(SpanProbe::ENABLED) };
        let mut p = SpanProbe::new();
        p.on_round_end(RoundObs {
            round: 0,
            active_edges: 3,
            dirty_nodes: 2,
            messages: 4,
            bits: 32,
            shard_splice: vec![4],
        });
        p.on_round_end(RoundObs::charged(1));
        p.on_phase_end(PhaseObs {
            phase: 0,
            rounds: 2,
            messages: 4,
            bits: 32,
        });
        assert_eq!(p.cores(), vec![(0, 3, 2, 4, 32), (1, 0, 0, 0, 0)]);
        assert_eq!(p.rounds[1].shard_splice, Vec::<u64>::new());
        assert_eq!(p.phases.len(), 1);
        p.on_round_spans(RoundSpans {
            round: 0,
            step_ns: vec![5, 7],
            transfer_ns: vec![3, 2],
            barrier_ns: vec![1, 4],
            arena_cells: vec![0, 6],
        });
        p.on_round_spans(RoundSpans::charged(1));
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.spans[0].structure(), (2, 2, 2));
        assert_eq!(p.spans[0].shards(), 2);
        assert_eq!(p.spans[1].structure(), (0, 0, 0));
        assert_eq!(p.spans[1].round, 1);
    }

    #[test]
    fn disabled_helpers_touch_nothing() {
        assert_eq!(now_if(false), None);
        assert_eq!(ns_between(None, None), 0);
        assert_eq!(ns_between(now_if(true), None), 0);
        let a = now_if(true);
        let b = now_if(true);
        // Monotonic clock: never negative (saturating either way).
        let _ = ns_between(a, b);
        assert_eq!(ns_between(b, a), 0, "saturates instead of underflowing");
        // Zero span storage for NoProbe, real storage for SpanProbe —
        // the type-level allocation guarantee.
        let off: Vec<u64> = probe_vec::<u64, NoProbe>(64);
        assert_eq!(off.capacity(), 0);
        let on: Vec<u64> = probe_vec::<u64, SpanProbe>(64);
        assert_eq!(on.len(), 64);
    }
}
