//! Reading a profiled run: [`trace_violations`] re-checks what a
//! [`SpanProbe`] gathered against the run's counters, and the raw
//! per-round, per-shard spans turn into (a) the per-stage × per-shard
//! [`breakdown`] with its aggregated [`ProfileStats`], which the
//! `experiments profile` table renders, and (b) a Chrome trace-event
//! document (one Perfetto track per shard, counter tracks for active
//! edges and arena cells).
//!
//! Span *timings* are machine-shaped wall-clock measurements — nothing
//! here is conformance-gated, diffed across runs or written to a
//! manifest (the span *structure* is gated; see
//! `powersparse_congest::probe`). The numbers answer two scheduling
//! questions: how much of a round is barrier wait, and how unbalanced
//! the shards are, in the shattering regime where activity collapses
//! onto tiny components.

use crate::json::Json;
use crate::manifest::RunRecord;
use powersparse_congest::probe::{RoundObs, SpanProbe};

/// Re-checks one profiled run's probe against the run's counters: one
/// observation and one span per round, in round order; per-round
/// messages and bits summing to the counters; and the charged rounds
/// being exactly the rounds with empty spans, each with a zeroed
/// observation. Returns one line per broken invariant.
pub fn trace_violations(probe: &SpanProbe, rec: &RunRecord) -> Vec<String> {
    let mut bad = Vec::new();
    let (obs, spans) = (probe.rounds.len(), probe.spans.len());
    if obs as u64 != rec.rounds || spans as u64 != rec.rounds {
        bad.push(format!(
            "{obs} observations and {spans} spans for {} rounds",
            rec.rounds
        ));
    }
    let rounds = || probe.rounds.iter().zip(&probe.spans);
    if let Some(i) = (0u64..)
        .zip(rounds())
        .position(|(i, (o, s))| o.round != i || s.round != i)
    {
        bad.push(format!("round {i} is out of order"));
    }
    let (msgs, bits) = probe
        .rounds
        .iter()
        .fold((0, 0), |(m, b), o| (m + o.messages, b + o.bits));
    if (msgs, bits) != (rec.messages, rec.bits) {
        bad.push(format!(
            "per-round sums ({msgs} messages, {bits} bits) disagree with the counters \
             ({} messages, {} bits)",
            rec.messages, rec.bits
        ));
    }
    let empty = probe.spans.iter().filter(|s| s.shards() == 0).count() as u64;
    if empty != rec.charged_rounds {
        bad.push(format!(
            "{empty} rounds have empty spans but {} were charged",
            rec.charged_rounds
        ));
    }
    if let Some((o, _)) =
        rounds().find(|(o, s)| s.shards() == 0 && **o != RoundObs::charged(o.round))
    {
        bad.push(format!(
            "round {} has empty spans but a nonzero observation",
            o.round
        ));
    }
    bad
}

/// Aggregated stage-attribution statistics of one or more profiled
/// runs. All times are totals over the run's rounds, in microseconds,
/// averaged over repeats.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfileStats {
    /// Worker/shard count the profiled engine ran at.
    pub shards: u64,
    /// Total step time summed over shards and rounds, microseconds.
    pub step_us: f64,
    /// Total transfer/splice time summed over shards and rounds.
    pub transfer_us: f64,
    /// Total barrier-wait time summed over shards and rounds (zero on
    /// the sequential engine, which has no barrier).
    pub barrier_us: f64,
    /// Shard imbalance: max over shards of total step time, divided by
    /// the mean (1.0 = perfectly balanced; 0 with no step work).
    pub imbalance: f64,
    /// Barrier share of total attributed busy+wait time, in `[0, 1]`.
    pub barrier_share: f64,
}

/// One shard's totals across a profiled run, in microseconds (averaged
/// over repeats).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardProfile {
    /// Shard index.
    pub shard: usize,
    /// Total step time, microseconds.
    pub step_us: f64,
    /// Total transfer/splice time, microseconds.
    pub transfer_us: f64,
    /// Total barrier-wait time, microseconds (0 on the sequential
    /// engine).
    pub barrier_us: f64,
}

impl ShardProfile {
    /// The shard's total attributed time (busy + wait).
    pub fn total_us(&self) -> f64 {
        self.step_us + self.transfer_us + self.barrier_us
    }
}

/// The per-stage × per-shard breakdown of one or more profiled runs of
/// the same scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileBreakdown {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardProfile>,
    /// Rounds observed (charged rounds included; they contribute no
    /// time).
    pub rounds: u64,
    /// The totals over all shards.
    pub stats: ProfileStats,
}

/// Aggregates one or more [`SpanProbe`]s (repeats of the same scenario)
/// into the per-shard breakdown. Per-shard times are averaged over the
/// probes; the imbalance metric is max/mean of the per-shard step
/// totals, and the barrier share is the barrier fraction of all
/// attributed time.
pub fn breakdown(probes: &[SpanProbe]) -> ProfileBreakdown {
    assert!(!probes.is_empty(), "need at least one profiled run");
    let shards = probes
        .iter()
        .flat_map(|p| p.spans.iter().map(|s| s.shards()))
        .max()
        .unwrap_or(0);
    let mut step = vec![0.0f64; shards];
    let mut transfer = vec![0.0f64; shards];
    let mut barrier = vec![0.0f64; shards];
    for probe in probes {
        for spans in &probe.spans {
            for w in 0..spans.shards() {
                step[w] += spans.step_ns[w] as f64;
                transfer[w] += spans.transfer_ns[w] as f64;
                if let Some(&b) = spans.barrier_ns.get(w) {
                    barrier[w] += b as f64;
                }
            }
        }
    }
    let scale = 1.0 / (1000.0 * probes.len() as f64); // ns → µs, mean over repeats
    let shards: Vec<ShardProfile> = (0..shards)
        .map(|w| ShardProfile {
            shard: w,
            step_us: step[w] * scale,
            transfer_us: transfer[w] * scale,
            barrier_us: barrier[w] * scale,
        })
        .collect();
    let step_total: f64 = shards.iter().map(|s| s.step_us).sum();
    let transfer_total: f64 = shards.iter().map(|s| s.transfer_us).sum();
    let barrier_total: f64 = shards.iter().map(|s| s.barrier_us).sum();
    let step_max = shards.iter().map(|s| s.step_us).fold(0.0, f64::max);
    let step_mean = step_total / (shards.len().max(1) as f64);
    let attributed = step_total + transfer_total + barrier_total;
    let stats = ProfileStats {
        shards: shards.len() as u64,
        step_us: step_total,
        transfer_us: transfer_total,
        barrier_us: barrier_total,
        imbalance: if step_mean > 0.0 {
            step_max / step_mean
        } else {
            0.0
        },
        barrier_share: if attributed > 0.0 {
            barrier_total / attributed
        } else {
            0.0
        },
    };
    ProfileBreakdown {
        shards,
        rounds: probes[0].spans.len() as u64,
        stats,
    }
}

/// Renders one profiled run as a Chrome trace-event document (the JSON
/// Perfetto and `chrome://tracing` load): an object with a
/// `traceEvents` array holding one complete (`"X"`) event per stage per
/// shard per round on a per-shard track (`tid` = shard), plus
/// `active_edges` / `arena_cells` counter (`"C"`) tracks and
/// `thread_name` metadata.
///
/// The spans carry durations, not absolute timestamps, so the timeline
/// is synthetic: rounds are laid out back to back, each spanning the
/// slowest shard's attributed time, and within a round every shard runs
/// `step → transfer → barrier_wait` from the round's start. Timestamps
/// are microseconds (the trace-event convention).
pub fn chrome_trace(probe: &SpanProbe, scenario: &str) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let shards = probe.spans.iter().map(|s| s.shards()).max().unwrap_or(0);
    events.push(meta_event("process_name", 0, scenario));
    for w in 0..shards {
        events.push(meta_event("thread_name", w, &format!("shard {w}")));
    }
    let mut cursor = 0.0f64; // µs since the synthetic origin
    for (i, spans) in probe.spans.iter().enumerate() {
        let round = spans.round;
        let mut round_span = 0.0f64;
        for w in 0..spans.shards() {
            let step = spans.step_ns[w] as f64 / 1000.0;
            let transfer = spans.transfer_ns[w] as f64 / 1000.0;
            let barrier = spans.barrier_ns.get(w).map_or(0.0, |&b| b as f64 / 1000.0);
            events.push(span_event("step", w, cursor, step, round));
            events.push(span_event("transfer", w, cursor + step, transfer, round));
            if spans.barrier_ns.get(w).is_some() {
                events.push(span_event(
                    "barrier_wait",
                    w,
                    cursor + step + transfer,
                    barrier,
                    round,
                ));
            }
            round_span = round_span.max(step + transfer + barrier);
        }
        if let Some(obs) = probe.rounds.get(i) {
            events.push(counter_event("active_edges", cursor, obs.active_edges));
        }
        let cells: u64 = spans.arena_cells.iter().sum();
        events.push(counter_event("arena_cells", cursor, cells));
        // Keep charged/quiet rounds visible as nonzero ticks.
        cursor += round_span.max(0.001);
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::str("ms")),
    ])
}

fn meta_event(name: &str, tid: usize, value: &str) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("ph".into(), Json::str("M")),
        ("pid".into(), Json::num(1)),
        ("tid".into(), Json::num(tid as u64)),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::str(value))]),
        ),
    ])
}

fn span_event(name: &str, tid: usize, ts_us: f64, dur_us: f64, round: u64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("ph".into(), Json::str("X")),
        ("pid".into(), Json::num(1)),
        ("tid".into(), Json::num(tid as u64)),
        ("ts".into(), Json::Num(ts_us)),
        ("dur".into(), Json::Num(dur_us)),
        (
            "args".into(),
            Json::Obj(vec![("round".into(), Json::num(round))]),
        ),
    ])
}

fn counter_event(name: &str, ts_us: f64, value: u64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("ph".into(), Json::str("C")),
        ("pid".into(), Json::num(1)),
        ("tid".into(), Json::num(0)),
        ("ts".into(), Json::Num(ts_us)),
        (
            "args".into(),
            Json::Obj(vec![(name.to_string(), Json::num(value))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_congest::probe::{RoundObs, RoundSpans};

    fn two_shard_probe() -> SpanProbe {
        let mut p = SpanProbe::new();
        p.rounds.push(RoundObs {
            round: 0,
            active_edges: 4,
            dirty_nodes: 2,
            messages: 3,
            bits: 24,
            shard_splice: vec![2, 1],
        });
        p.spans.push(RoundSpans {
            round: 0,
            step_ns: vec![3000, 1000],
            transfer_ns: vec![500, 500],
            barrier_ns: vec![0, 2000],
            arena_cells: vec![2, 1],
        });
        p.rounds.push(RoundObs::charged(1));
        p.spans.push(RoundSpans::charged(1));
        p
    }

    #[test]
    fn breakdown_aggregates_per_shard_totals_and_metrics() {
        let b = breakdown(&[two_shard_probe()]);
        assert_eq!(b.rounds, 2);
        assert_eq!(b.shards.len(), 2);
        assert_eq!(b.shards[0].step_us, 3.0);
        assert_eq!(b.shards[1].step_us, 1.0);
        assert_eq!(b.shards[0].barrier_us, 0.0);
        assert_eq!(b.shards[1].barrier_us, 2.0);
        assert_eq!(b.stats.shards, 2);
        assert_eq!(b.stats.step_us, 4.0);
        assert_eq!(b.stats.transfer_us, 1.0);
        assert_eq!(b.stats.barrier_us, 2.0);
        // max/mean of [3, 1] = 3 / 2
        assert!((b.stats.imbalance - 1.5).abs() < 1e-12);
        // 2 of 7 attributed µs waited at a barrier.
        assert!((b.stats.barrier_share - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_averages_over_repeats() {
        let a = two_shard_probe();
        let mut b = two_shard_probe();
        b.spans[0].step_ns = vec![5000, 3000];
        let agg = breakdown(&[a, b]);
        assert_eq!(agg.shards[0].step_us, 4.0);
        assert_eq!(agg.shards[1].step_us, 2.0);
        // Transfer identical in both repeats: mean = single value.
        assert_eq!(agg.stats.transfer_us, 1.0);
    }

    #[test]
    fn sequential_probe_has_no_barrier_and_unit_imbalance() {
        let mut p = SpanProbe::new();
        p.rounds.push(RoundObs::charged(0));
        p.spans.push(RoundSpans {
            round: 0,
            step_ns: vec![4000],
            transfer_ns: vec![1000],
            barrier_ns: Vec::new(),
            arena_cells: vec![3],
        });
        let b = breakdown(&[p]);
        assert_eq!(b.stats.shards, 1);
        assert_eq!(b.stats.barrier_us, 0.0);
        assert_eq!(b.stats.barrier_share, 0.0);
        assert!((b.stats.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_round_trips_and_is_well_formed() {
        let probe = two_shard_probe();
        let doc = chrome_trace(&probe, "smoke/profile");
        // Exact writer → parser round trip (the CI gate re-parses the
        // emitted file the same way).
        let text = doc.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.to_string_pretty(), text);

        let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 1 process_name + 2 thread_name metadata, 2×3 stage spans for
        // the executed round (none for the charged one), 2×2 counters.
        let by_ph = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(by_ph("M"), 3);
        assert_eq!(by_ph("X"), 6);
        assert_eq!(by_ph("C"), 4);
        for e in events {
            assert!(e.get("name").and_then(Json::as_str).is_some());
            assert!(e.get("pid").and_then(Json::as_u64).is_some());
            assert!(e.get("tid").and_then(Json::as_u64).is_some());
            if e.get("ph").and_then(Json::as_str) == Some("X") {
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
            }
        }
        // One track per shard: the complete events cover tids {0, 1}.
        let tids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| e.get("tid").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(tids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        // The barrier_wait span sits after the shard's busy time.
        let barrier = events
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("barrier_wait")
                    && e.get("tid").and_then(Json::as_u64) == Some(1)
            })
            .unwrap();
        assert_eq!(barrier.get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(barrier.get("dur").and_then(Json::as_f64), Some(2.0));
    }
}
